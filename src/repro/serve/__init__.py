"""The campaign service: ``repro.sweep`` behind a long-running HTTP API.

``python -m repro.serve`` starts a stdlib-only HTTP/JSON front end over
a :class:`repro.sweep.jobs.JobService` — an async job queue, a
persistent worker pool whose design caches stay warm across jobs, and a
persisted result store that answers repeated scenarios from memory
instead of re-simulating them.

Endpoints (see ``docs/service.md`` for the full reference):

========================================  ==================================
``POST /campaigns``                       submit a campaign spec (JSON body)
``GET /campaigns``                        list jobs
``GET /campaigns/<id>``                   job status
``GET /campaigns/<id>/report``            aggregated report (``?wait=S``)
``POST /campaigns/<id>/cancel``           cancel a job
``GET /families``                         the design-family registry
``GET /healthz``                          queue depth, workers, cache rates
========================================  ==================================

:class:`repro.serve.client.ServiceClient` is the matching stdlib-only
client used by the tests, the load benchmark and the CI smoke job.
"""

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.http import make_server

__all__ = ["ServiceClient", "ServiceError", "make_server"]
