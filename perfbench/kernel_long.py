"""``kernel_long``: long simulations of the paper's designs, run-only timing.

One *round* is a fixed mix of five simulations, each on a design built
once during set-up through the family registry
(``repro.sweep.registry.get_family(...).build``):

* ``pipe_full`` / ``pipe_reduced`` — an 8-thread, 4-stage ``mt_pipeline``
  with full and reduced MEBs, fed on the first M threads only;
* ``chain`` — a 32-thread, 8-function ``mt_chain`` (settle-bound);
* ``md5`` — pipelined MD5 (32 threads, 16 round stages), one two-block
  message per thread;
* ``cpu`` — the 8-thread processor running four seeded program kinds.

Between rounds the channel designs and the processor rewind to their
pristine snapshot; the MD5 hasher keeps running (its driver state lives
outside the simulator).  Only the drive-to-completion call is timed —
``Simulator.run`` directly, or the hasher's ``hash_batch`` and the
processor's ``run``, which are thin loops over it.  Inputs come from
the seed; every output is checked against an oracle computed here in
Python (``hashlib`` for MD5, the program semantics for the processor,
the item streams and the paper's 1/M law for the channel designs).
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Any, Callable

from common import Checks

#: Channel-pipeline shape and stimulus: THREADS threads, the first
#: ACTIVE[meb] of them fed ITEMS_TOTAL items in all.
PIPE_PARAMS = {"threads": 8, "n_stages": 4}
PIPE_ACTIVE = {"full": 4, "reduced": 6}
PIPE_ITEMS_TOTAL = 1200
CHAIN_PARAMS = {"threads": 32, "n_funcs": 8}
CHAIN_ITEMS = 36
MD5_PARAMS = {"threads": 32, "round_stages": 16, "meb": "reduced"}
CPU_PARAMS = {"threads": 8, "meb": "reduced"}
CPU_ITERATIONS = 24
#: Allowed distance of a fed thread's throughput from 1/M.
ONE_OVER_M_TOLERANCE = 0.01
MASK32 = 0xFFFFFFFF


def chain_fn(value: int, n_funcs: int) -> int:
    """What ``mt_chain``'s function stages compute (``(x * 7 + k) & 0xFFFF``)."""
    for k in range(n_funcs):
        value = (value * 7 + k) & 0xFFFF
    return value


# -- processor programs: source plus a Python oracle ---------------------

def _accum(n: int, c: int) -> tuple[str, int, int]:
    source = f"""
        addi x1, x0, {n}
        addi x3, x0, 0
        addi x6, x0, {c}
    loop:
        beq  x1, x0, done
        add  x3, x3, x1
        add  x3, x3, x6
        addi x1, x1, -1
        jal  x0, loop
    done:
        halt
    """
    return source, 3, (n * (n + 1) // 2 + n * c) & MASK32


def _fib(n: int, a: int, b: int) -> tuple[str, int, int]:
    source = f"""
        addi x1, x0, {n}
        addi x3, x0, {a}
        addi x4, x0, {b}
    loop:
        beq  x1, x0, done
        add  x5, x3, x4
        add  x3, x0, x4
        add  x4, x0, x5
        addi x1, x1, -1
        jal  x0, loop
    done:
        halt
    """
    for _ in range(n):
        a, b = b, (a + b) & MASK32
    return source, 4, b


def _xorshift(n: int, a: int, c: int) -> tuple[str, int, int]:
    source = f"""
        addi x1, x0, {n}
        addi x3, x0, {a}
    loop:
        beq  x1, x0, done
        slli x5, x3, 5
        xor  x3, x3, x5
        srli x5, x3, 7
        xor  x3, x3, x5
        xori x3, x3, {c}
        addi x1, x1, -1
        jal  x0, loop
    done:
        halt
    """
    for _ in range(n):
        a ^= (a << 5) & MASK32
        a ^= a >> 7
        a ^= c
    return source, 3, a


def _mulacc(n: int, c: int, d: int) -> tuple[str, int, int]:
    source = f"""
        addi x1, x0, {n}
        addi x3, x0, 1
        addi x6, x0, {c}
    loop:
        beq  x1, x0, done
        mul  x3, x3, x6
        addi x3, x3, {d}
        addi x1, x1, -1
        jal  x0, loop
    done:
        halt
    """
    x = 1
    for _ in range(n):
        x = (x * c + d) & MASK32
    return source, 3, x


def _programs(rng: random.Random, threads: int) -> list[tuple[str, int, int]]:
    """Two of each program kind with seeded constants, in seeded order."""
    n = CPU_ITERATIONS
    imm = lambda: rng.randrange(1, 2048)
    progs = []
    for _ in range(threads // 4):
        progs.append(_accum(n, imm()))
        progs.append(_fib(n, imm(), imm()))
        progs.append(_xorshift(n, imm(), imm()))
        progs.append(_mulacc(n, imm(), imm()))
    rng.shuffle(progs)
    return progs


class Sim:
    """One simulation of the mix: a built design, its inputs and its oracle."""

    def __init__(self, name: str, family: str, params: dict, build: Callable):
        self.name = name
        self.handle = build(family, params)
        self.sim = getattr(self.handle, "sim", None) or self.handle.circuit.sim
        self.pristine = self.sim.snapshot() if family != "md5" else None

    def prepare(self) -> None:
        """Rewind and load the inputs (untimed)."""

    def drive(self) -> None:
        """Run to completion (the timed call)."""

    def result(self) -> tuple[bool, Any]:
        """(passed the oracle, simulated statistics for the digest)."""
        raise NotImplementedError


class PipeSim(Sim):
    def __init__(self, meb: str, rng: random.Random, build: Callable):
        super().__init__(f"pipe_{meb}", "mt_pipeline", {**PIPE_PARAMS, "meb": meb}, build)
        self.active = PIPE_ACTIVE[meb]
        per_thread = PIPE_ITEMS_TOTAL // self.active
        self.items = [
            [rng.getrandbits(32) for _ in range(per_thread)] if t < self.active else []
            for t in range(self.handle.threads)
        ]

    def prepare(self) -> None:
        h = self.handle
        self.sim.restore(self.pristine)
        for t, items in enumerate(self.items):
            for item in items:
                h.source.push(t, item)
        self.start = self.sim.cycle
        self.target = h.sink.count + sum(len(i) for i in self.items)

    def drive(self) -> None:
        from repro.kernel import WatchedPredicate

        sink, target = self.handle.sink, self.target
        self.sim.run(
            until=WatchedPredicate(
                lambda _s: sink.count >= target,
                watches=(*sink.channel.valid, *sink.channel.ready),
            ),
            max_cycles=100_000,
        )

    def received(self) -> list[list[tuple[int, Any]]]:
        per_thread: list[list[tuple[int, Any]]] = [[] for _ in self.items]
        for cycle, thread, data in self.handle.sink.received:
            per_thread[thread].append((cycle, data))
        return per_thread

    def result(self) -> tuple[bool, Any]:
        got = self.received()
        ok = all([data for _c, data in got[t]] == self.items[t] for t in range(len(got)))
        cycles = [c for per in got for c, _d in per]
        span = max(cycles) - min(cycles) + 1 if cycles else 1
        throughput = [len(per) / span for per in got]
        law = all(
            abs(tp - 1.0 / self.active) <= ONE_OVER_M_TOLERANCE if t < self.active else tp == 0
            for t, tp in enumerate(throughput)
        )
        stats = {
            "cycles": self.sim.cycle - self.start,
            "transfers": [len(per) for per in got],
            "schedule": hashlib.sha256(repr(cycles).encode()).hexdigest(),
        }
        return ok and law, stats


class ChainSim(PipeSim):
    def __init__(self, rng: random.Random, build: Callable):
        Sim.__init__(self, "chain", "mt_chain", dict(CHAIN_PARAMS), build)
        self.items = [
            [rng.getrandbits(16) for _ in range(CHAIN_ITEMS)]
            for _ in range(self.handle.threads)
        ]
        self.expected = [
            [chain_fn(x, CHAIN_PARAMS["n_funcs"]) for x in items] for items in self.items
        ]

    def result(self) -> tuple[bool, Any]:
        got = self.received()
        ok = all([data for _c, data in got[t]] == self.expected[t] for t in range(len(got)))
        stats = {
            "cycles": self.sim.cycle - self.start,
            "transfers": [len(per) for per in got],
            "schedule": hashlib.sha256(repr(got).encode()).hexdigest(),
        }
        return ok, stats


class Md5Sim(Sim):
    def __init__(self, rng: random.Random, build: Callable):
        super().__init__("md5", "md5", dict(MD5_PARAMS), build)
        # 64..119 bytes: every message pads to exactly two blocks.
        self.messages = [
            bytes(rng.getrandbits(8) for _ in range(rng.randrange(64, 120)))
            for _ in range(self.handle.threads)
        ]
        self.expected = [hashlib.md5(m).hexdigest() for m in self.messages]

    def prepare(self) -> None:
        self.start = self.sim.cycle

    def drive(self) -> None:
        self.digests = self.handle.hash_batch(self.messages)

    def result(self) -> tuple[bool, Any]:
        return self.digests == self.expected, {
            "cycles": self.sim.cycle - self.start,
            "digests": self.digests,
        }


class CpuSim(Sim):
    def __init__(self, rng: random.Random, build: Callable):
        super().__init__("cpu", "processor", dict(CPU_PARAMS), build)
        self.programs = _programs(rng, self.handle.threads)

    def prepare(self) -> None:
        self.sim.restore(self.pristine)
        for t, (source, _reg, _expected) in enumerate(self.programs):
            self.handle.load_program(t, source)
        self.start = self.sim.cycle

    def drive(self) -> None:
        self.stats = self.handle.run(max_cycles=100_000)

    def result(self) -> tuple[bool, Any]:
        cpu = self.handle
        regs = [cpu.reg(t, reg) for t, (_s, reg, _e) in enumerate(self.programs)]
        ok = regs == [expected for _s, _r, expected in self.programs]
        return ok, {
            "cycles": self.stats.cycles - self.start,
            "retired": list(self.stats.retired),
            "regs": regs,
        }


class KernelLong:
    """The ``kernel_long`` workload (see the module docstring)."""

    name = "kernel_long"
    #: Passes whose simulated statistics make up ``digest_stats``.
    digest_passes = 1
    #: Passes of the traced run's fixed work, after one set-up.
    traced_passes = 2

    def __init__(self, seed: int, wrong_reference: bool = False):
        self.seed = seed
        self.wrong_reference = wrong_reference
        self.sims: list[Sim] = []
        #: The first round's simulated statistics; every round must match.
        self.digest_stats: list[Any] | None = None
        #: A ledger probe (traced runs only) that records the builds.
        self.probe = None

    def setup(self) -> None:
        """Build the five designs, make the inputs, run one warm-up round."""
        from repro.sweep.registry import get_family

        def build(family: str, params: dict) -> Any:
            fam = get_family(family)
            if self.probe is not None:
                fam = self.probe.traced_family(fam)
            return fam.build(params, None)

        rng = random.Random(self.seed)
        self.sims = [
            PipeSim("full", rng, build),
            PipeSim("reduced", rng, build),
            ChainSim(rng, build),
            Md5Sim(rng, build),
            CpuSim(rng, build),
        ]
        if self.wrong_reference:
            md5 = self.sims[3]
            md5.expected = [hashlib.md5(md5.messages[0] + b"!").hexdigest()] + md5.expected[1:]
        self.digest_stats = None
        self.run_pass(Checks())

    def run_pass(self, checks: Checks) -> dict[str, Any]:
        """One round: every simulation once, each timed on its own."""
        latencies = []
        cycles = 0
        stats = []
        for sim in self.sims:
            sim.prepare()
            t0 = time.perf_counter()
            sim.drive()
            latencies.append(time.perf_counter() - t0)
            ok, sim_stats = sim.result()
            checks.record(ok, f"{sim.name}: output differs from its oracle")
            cycles += sim_stats["cycles"]
            stats.append({"sim": sim.name, **sim_stats})
        if self.digest_stats is None:
            self.digest_stats = stats
        elif stats != self.digest_stats:
            checks.fail_run("kernel_long: a round's statistics differ from the first round's")
        return {"cycles": cycles, "seconds": sum(latencies), "latencies": latencies}

    def profile_pass(self) -> dict[str, int]:
        """One round under the kernel profiler: settle iterations and fusion."""
        totals = {"iterations": 0, "cycles": 0, "fused": 0}
        for sim in self.sims:
            sim.prepare()
            with sim.sim.profile() as prof:
                sim.drive()
            report = prof.report(top=0)
            totals["iterations"] += report["settle"]["iterations"]
            totals["cycles"] += report["cycles"]["total"]
            totals["fused"] += report["cycles"]["fused"]
        return totals

    def finish(self, checks: Checks) -> None:
        """No reference beyond the per-simulation oracles."""

    def close(self) -> None:
        self.sims = []
