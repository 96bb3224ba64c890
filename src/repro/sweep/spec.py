"""Declarative campaign specifications.

A campaign is a name, a base seed, an engine choice, a worker count and
a list of *scenario templates*.  Each template names a design family
(see :mod:`repro.sweep.registry`), fixed ``params``, an optional
``grid`` (parameter name → list of values, expanded as a cross
product), a ``stimulus`` block and a ``metrics`` block.  Expansion turns
the templates into concrete :class:`ScenarioSpec` instances with

* a **canonical key** — ``family(param=value,...)`` plus a stimulus
  digest — unique within the campaign and stable across runs, and
* a **deterministic seed** — derived from the campaign seed and the
  scenario key via SHA-256, so a scenario's stimulus randomness is a
  function of *what* it is, never of which shard or worker runs it.
  Sharded and serial runs of the same spec are therefore bit-identical.

Specs load from a plain dict, a JSON file, or a TOML file (TOML needs
``tomllib``, Python 3.11+; on older interpreters use JSON or dicts —
:func:`load_spec` raises a clear error rather than importing anything).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
from typing import Any, Mapping

from repro.kernel.engine import ENGINES

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - py3.10 fallback path
    tomllib = None  # type: ignore[assignment]


class SpecError(ValueError):
    """A campaign spec is malformed or unloadable.

    Carries a machine-readable location so every transport renders the
    same diagnosis from one source: *path* is the spec location
    (``"campaign"``, ``"scenarios[2]"``, ...), *field* the offending key
    within it (or ``None``), *reason* the human explanation.
    :meth:`to_dict` is what the HTTP 400 body serves; ``str(exc)`` is
    what the CLI prints — both derive from the same three fields.
    """

    def __init__(
        self, reason: str, *, path: str = "campaign", field: str | None = None
    ):
        self.reason = reason
        self.path = path
        self.field = field
        super().__init__(self.render())

    def render(self) -> str:
        where = self.path if self.field is None else f"{self.path}.{self.field}"
        return f"{where}: {self.reason}"

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "field": self.field, "reason": self.reason}


def _timeout_value(
    value: Any, *, path: str, field: str = "timeout_s"
) -> float | None:
    """Validate a deadline value: a positive number of seconds or None."""
    if value is None:
        return None
    try:
        timeout = float(value)
    except (TypeError, ValueError):
        raise SpecError(
            "must be a positive number of seconds", path=path, field=field
        ) from None
    if timeout <= 0:
        raise SpecError(
            "must be a positive number of seconds", path=path, field=field
        )
    return timeout


def _retries_value(value: Any, *, path: str = "campaign") -> int | None:
    """Validate a retry budget: a non-negative integer or None."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            "must be a non-negative integer", path=path, field="retries"
        )
    if value < 0:
        raise SpecError(
            "must be a non-negative integer", path=path, field="retries"
        )
    return value


def _engine_value(value: Any, *, path: str = "campaign") -> str | None:
    """Validate a settle-engine name: one of :data:`ENGINES` or None."""
    if value is None:
        return None
    if value not in ENGINES:
        raise SpecError(
            f"unknown settle engine {value!r}; expected one of {ENGINES}",
            path=path,
            field="engine",
        )
    return value


def _canon_value(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def canonical_params(params: Mapping[str, Any]) -> str:
    """Stable ``k=v,...`` rendering of a parameter mapping (sorted)."""
    return ",".join(
        f"{k}={_canon_value(v)}" for k, v in sorted(params.items())
    )


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One fully expanded scenario: a single simulation to run."""

    index: int
    family: str
    params: Mapping[str, Any]
    stimulus: Mapping[str, Any]
    metrics: Mapping[str, Any]
    key: str
    seed: int
    #: Per-scenario deadline in seconds (None = derive from history /
    #: campaign default).  Deliberately excluded from :meth:`result_key`:
    #: a deadline changes *whether* a run finishes, never its metrics.
    timeout_s: float | None = None

    def design_key(self) -> str:
        """Identity of the *built design* (family + structural params).

        Scenarios sharing a design key differ only in stimulus/metrics
        and can reuse one built simulator via snapshot/restore.
        """
        return f"{self.family}({canonical_params(self.params)})"

    def result_key(self) -> str:
        """Identity of the *simulation result* (the dedup/memoization key).

        SHA-256 over everything that determines the metrics: family,
        structural params, the full stimulus block, the metrics block
        and the derived seed.  Deliberately excludes the settle engine
        (the engines are differential-pinned cycle-identical) and any
        run-placement detail (shard, worker count), so an identical
        scenario submitted twice — by any client, under any sharding —
        maps to the same stored row.
        """
        payload = json.dumps(
            {
                "family": self.family,
                "params": dict(self.params),
                "stimulus": dict(self.stimulus),
                "metrics": dict(self.metrics),
                "seed": self.seed,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A named, fully expanded campaign."""

    name: str
    seed: int
    engine: str | None
    workers: int
    scenarios: tuple[ScenarioSpec, ...]
    #: Campaign-wide deadline default; per-scenario ``timeout_s`` wins.
    timeout_s: float | None = None
    #: Retry budget for retryable failures (None = service default).
    retries: int | None = None

    def scenario(self, key: str) -> ScenarioSpec:
        for sc in self.scenarios:
            if sc.key == key:
                return sc
        raise KeyError(f"no scenario with key {key!r}")


def _scenario_seed(campaign_seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{campaign_seed}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _expand_template(
    template: Mapping[str, Any], position: int
) -> list[dict[str, Any]]:
    """Expand one scenario template's grid into concrete entries."""
    where = f"scenarios[{position}]"
    if not isinstance(template, Mapping):
        raise SpecError("expected a table/dict", path=where)
    family = template.get("family")
    if not family or not isinstance(family, str):
        raise SpecError(
            "missing required key 'family'", path=where, field="family"
        )
    base_params = dict(template.get("params") or {})
    grid = dict(template.get("grid") or {})
    stimulus = dict(template.get("stimulus") or {})
    metrics = dict(template.get("metrics") or {})
    timeout_s = _timeout_value(template.get("timeout_s"), path=where)
    unknown = set(template) - {
        "family", "params", "grid", "stimulus", "metrics", "timeout_s",
    }
    if unknown:
        raise SpecError(
            f"unknown keys {sorted(unknown)} (scenario {family!r})",
            path=where,
            field=sorted(unknown)[0],
        )
    for axis, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(
                f"grid axis {axis!r} must be a non-empty list "
                f"(scenario {family!r})",
                path=where,
                field=f"grid.{axis}",
            )
    # Grid axes sweep structural params by default; an axis named
    # "stimulus.<opt>" sweeps a stimulus option instead (the swept
    # options are recorded as tags so scenario keys stay distinct).
    axes = sorted(grid)
    out = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        params = dict(base_params)
        stim = dict(stimulus)
        stim_tags = {}
        for axis, value in zip(axes, combo):
            if axis.startswith("stimulus."):
                opt = axis[len("stimulus."):]
                stim[opt] = value
                stim_tags[opt] = value
            else:
                params[axis] = value
        out.append(
            {
                "family": family,
                "params": params,
                "stimulus": stim,
                "stim_tags": stim_tags,
                "metrics": metrics,
                "timeout_s": timeout_s,
            }
        )
    return out


def from_dict(data: Mapping[str, Any]) -> CampaignSpec:
    """Build a fully expanded :class:`CampaignSpec` from plain data."""
    if not isinstance(data, Mapping):
        raise SpecError("campaign spec must be a mapping", path="spec")
    campaign = dict(data.get("campaign") or {})
    templates = data.get("scenarios")
    if not templates:
        raise SpecError(
            "spec has no [[scenarios]] entries", path="spec",
            field="scenarios",
        )
    name = str(campaign.get("name") or "campaign")
    seed = int(campaign.get("seed", 0))
    engine = _engine_value(campaign.get("engine"))
    workers = int(campaign.get("workers", 1))
    if workers < 0:
        raise SpecError("must be >= 0", field="workers")
    timeout_s = _timeout_value(campaign.get("timeout_s"), path="campaign")
    retries = _retries_value(campaign.get("retries"))
    entries: list[dict[str, Any]] = []
    for position, template in enumerate(templates):
        entries.extend(_expand_template(template, position))
    scenarios: list[ScenarioSpec] = []
    seen: dict[str, int] = {}
    for index, entry in enumerate(entries):
        stim = entry["stimulus"]
        stim_part = stim.get("kind", "uniform")
        if entry["stim_tags"]:
            stim_part += f"[{canonical_params(entry['stim_tags'])}]"
        key = (
            f"{entry['family']}({canonical_params(entry['params'])})"
            f"/{stim_part}"
        )
        # Same design + same stimulus kind twice (e.g. two stimulus
        # option sets): disambiguate with a stable occurrence counter.
        n = seen.get(key, 0)
        seen[key] = n + 1
        if n:
            key = f"{key}#{n}"
        scenarios.append(
            ScenarioSpec(
                index=index,
                family=entry["family"],
                params=entry["params"],
                stimulus=stim,
                metrics=entry["metrics"],
                key=key,
                seed=_scenario_seed(seed, key),
                timeout_s=entry["timeout_s"],
            )
        )
    return CampaignSpec(
        name=name,
        seed=seed,
        engine=engine,
        workers=workers,
        scenarios=tuple(scenarios),
        timeout_s=timeout_s,
        retries=retries,
    )


def make_scenario(
    family: str,
    params: Mapping[str, Any] | None = None,
    stimulus: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    seed: int = 0,
    index: int = 0,
    timeout_s: float | None = None,
) -> ScenarioSpec:
    """One ad-hoc scenario for programmatic use (benchmarks, tests).

    The key and per-scenario seed are derived exactly as in a declared
    campaign, so an ad-hoc scenario reproduces the campaign-run numbers
    bit for bit.
    """
    params = dict(params or {})
    stimulus = dict(stimulus or {})
    key = (
        f"{family}({canonical_params(params)})"
        f"/{stimulus.get('kind', 'uniform')}"
    )
    return ScenarioSpec(
        index=index,
        family=family,
        params=params,
        stimulus=stimulus,
        metrics=dict(metrics or {}),
        key=key,
        seed=_scenario_seed(seed, key),
        timeout_s=_timeout_value(timeout_s, path="scenario"),
    )


def load_spec(path: str | pathlib.Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = pathlib.Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}", path="spec")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if tomllib is None:
            raise SpecError(
                "TOML specs need Python 3.11+ (tomllib); use a .json "
                "spec or build the campaign from a dict",
                path="spec",
            )
        with path.open("rb") as fh:
            data = tomllib.load(fh)
    elif suffix == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"invalid JSON: {exc}", path="spec"
            ) from None
    else:
        raise SpecError(
            f"unsupported spec format {suffix!r} (use .toml or .json)",
            path="spec",
        )
    return from_dict(data)
