"""The multithreaded pipelined elastic processor (paper §V-B).

Five stages connected into an elastic ring, with an MEB in place of every
pipeline register::

    ┌─► PC/WB unit ──► MEB ──► Fetch(IMem, VL) ──► MEB ──► Decode+RegRead
    │                                                           │
    │                                                          MEB
    │                                                           │
    └── Mem(DMem, VL) ◄── MEB ◄──────────────────── Execute(ALU, VL)

* every thread owns a private program counter and register-file bank;
* the instruction memory, data memory and execution unit are
  variable-latency units (paper: "considered variable latency units");
* one instruction per thread is in flight at a time (DESIGN.md §5), so
  threads never see their own hazards while the MEBs keep the shared
  stages busy with *other* threads — multithreading hiding latency
  exactly as §I describes.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.apps.processor import isa
from repro.apps.processor.assembler import assemble
from repro.apps.processor.memory import DataMemoryArray, InstructionMemory
from repro.apps.processor.regfile import RegisterFileArray
from repro.apps.processor.stages import (
    DecodedToken,
    ExecutedToken,
    FetchedToken,
    MemToken,
    MTSequencedUnit,
    PCToken,
)
from repro.core import (
    FullMEB,
    GrantPolicy,
    MTChannel,
    MTContextFunction,
    MTMonitor,
    MTVariableLatencyUnit,
    ReducedMEB,
    RoundRobinArbiter,
)
from repro.cost.model import (
    adder_luts,
    comparator_luts,
    logic_unit_luts,
    mux_tree_luts,
    shifter_luts,
)
from repro.core.mtchannel import one_hot_thread, one_hot_vectors
from repro.kernel import Component, Simulator
from repro.kernel.errors import SimulationError
from repro.kernel.slots import SeqPlan
from repro.kernel.values import X, same_value

MEB_KINDS = {"full": FullMEB, "reduced": ReducedMEB}

#: Ops that write a destination register.
_WRITES_RD = frozenset(
    op for op, fmt in isa.FORMATS.items()
    if fmt is isa.Format.R or (fmt is isa.Format.I and op is not isa.Op.SW)
)


# ----------------------------------------------------------------------
# per-opcode execute specialization
# ----------------------------------------------------------------------
# The interpreter below (`_execute_interp`) walks an if/elif chain and
# calls `isa.alu` — a second dispatch — on every token.  The opcode is
# static per instruction, so both dispatches can be folded out: generate
# one straight-line function per opcode (the same codegen trick as the
# MD5 datapath's `compiled_round_steps`) and route execute through a
# single dict lookup.  The interpreter stays as the reference semantics
# the generated table is differential-tested against.

_ALU_EXPRS = {
    isa.Op.ADD: "(_a + _b) & M",
    isa.Op.ADDI: "(_a + _b) & M",
    isa.Op.SUB: "(_a - _b) & M",
    isa.Op.AND: "_a & _b",
    isa.Op.ANDI: "_a & _b",
    isa.Op.OR: "_a | _b",
    isa.Op.ORI: "_a | _b",
    isa.Op.XOR: "_a ^ _b",
    isa.Op.XORI: "_a ^ _b",
    isa.Op.SLL: "(_a << (_b & 31)) & M",
    isa.Op.SLLI: "(_a << (_b & 31)) & M",
    isa.Op.SRL: "_a >> (_b & 31)",
    isa.Op.SRLI: "_a >> (_b & 31)",
    isa.Op.SRA: "(_signed32(_a) >> (_b & 31)) & M if _b & 31 else _a",
    isa.Op.SRAI: "(_signed32(_a) >> (_b & 31)) & M if _b & 31 else _a",
    isa.Op.SLT: "1 if _signed32(_a) < _signed32(_b) else 0",
    isa.Op.SLTI: "1 if _signed32(_a) < _signed32(_b) else 0",
    isa.Op.SLTU: "1 if _a < _b else 0",
    isa.Op.MUL: "(_a * _b) & M",
    isa.Op.LUI: "(_b << 16) & M",
}

_BRANCH_CONDS = {
    isa.Op.BEQ: "(token.a & M) == (token.b & M)",
    isa.Op.BNE: "(token.a & M) != (token.b & M)",
    isa.Op.BLT: "_signed32(token.a) < _signed32(token.b)",
    isa.Op.BGE: "_signed32(token.a) >= _signed32(token.b)",
}


def _compile_execute_table() -> dict[isa.Op, Any]:
    """Generate the per-opcode ``fn(token) -> ExecutedToken`` table."""
    table: dict[isa.Op, Any] = {}
    for op in isa.Op:
        value, next_pc, mem_addr, halt = "0", "pc + 4", "None", "False"
        prelude: list[str] = []
        if op in _ALU_EXPRS:
            prelude = ["    _a = token.a & M", "    _b = token.b & M"]
            value = _ALU_EXPRS[op]
        elif op in _BRANCH_CONDS:
            next_pc = (
                f"pc + 4 + instr.imm * 4 if {_BRANCH_CONDS[op]} else pc + 4"
            )
        elif op is isa.Op.JAL:
            value, next_pc = "pc + 4", "instr.imm * 4"
        elif op is isa.Op.JALR:
            value = "pc + 4"
            next_pc = "(token.a + instr.imm) & ~3 & M"
        elif op in (isa.Op.LW, isa.Op.SW):
            mem_addr = "(token.a + instr.imm) & M"
        elif op is isa.Op.HALT:
            halt = "True"
        else:  # NOP
            pass
        name = f"_exec_{op.name.lower()}"
        lines = [
            f"def {name}(token):",
            "    instr = token.instr",
            "    pc = token.pc",
            *prelude,
            f"    return ExecutedToken(pc, instr, {value}, {next_pc}, "
            f"{mem_addr}, token.store_value, {halt})",
        ]
        ns: dict[str, Any] = {
            "ExecutedToken": ExecutedToken,
            "M": isa.MASK32,
            "_signed32": isa._signed32,
        }
        exec("\n".join(lines), ns)  # noqa: S102 - trusted codegen
        table[op] = ns[name]
    return table


_EXEC_FNS = _compile_execute_table()


def _execute_interp(token: DecodedToken) -> ExecutedToken:
    """Reference execute semantics (the pre-codegen interpreter)."""
    instr = token.instr
    op = instr.op
    pc = token.pc
    next_pc = pc + 4
    value = 0
    mem_addr: int | None = None
    halt = False
    if op is isa.Op.HALT:
        halt = True
    elif op is isa.Op.NOP:
        pass
    elif isa.is_branch(op):
        if isa.branch_taken(op, token.a, token.b):
            next_pc = pc + 4 + instr.imm * 4
    elif op is isa.Op.JAL:
        value = pc + 4
        next_pc = instr.imm * 4
    elif op is isa.Op.JALR:
        value = pc + 4
        next_pc = (token.a + instr.imm) & ~3 & isa.MASK32
    elif isa.is_mem(op):
        mem_addr = (token.a + instr.imm) & isa.MASK32
    else:
        value = isa.alu(op, token.a, token.b)
    return ExecutedToken(pc, instr, value, next_pc, mem_addr,
                         token.store_value, halt)


def alu_luts() -> int:
    """LE estimate for the shared execute datapath."""
    return (
        adder_luts(32)            # add/sub (shared adder)
        + logic_unit_luts(32)     # and/or/xor
        + shifter_luts(32)        # barrel shifter
        + comparator_luts(32)     # slt/branch compare
        + mux_tree_luts(6, 32)    # result selection
        + adder_luts(32)          # next-pc / address adder
    )


def decode_luts() -> int:
    """LE estimate for the decoder (control decode + immediate forms)."""
    return 96 + mux_tree_luts(2, 32)


class PCUnit(Component):
    """Writeback stage fused with the per-thread program counters.

    Holds one pending PC per live thread, dispatches fetch requests
    through its arbiter (this is the "private program counter" file of
    the paper), and retires incoming :class:`MemToken` results: register
    writeback, next-PC update, or thread halt.

    The registered state is slot-backed, laid out columnar as
    ``[pending×S][alive×S][retired×S]`` in ``_sstore`` starting at
    ``_sq`` — a private list until :meth:`compile_seq` re-homes the
    block into the design-wide :class:`~repro.kernel.slots.SeqStore`.
    The ``_pending``/``_alive``/``retired`` properties view the same
    cells.
    """

    def __init__(
        self,
        name: str,
        inp: MTChannel,
        out: MTChannel,
        regfile: RegisterFileArray,
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.threads = out.threads
        self.inp = inp
        self.out = out
        self.regfile = regfile
        self.policy = policy
        self.arbiter = RoundRobinArbiter(self.threads, rotate_on_stall=True)
        inp.connect_consumer(self)
        out.connect_producer(self)
        # Fetch dispatch is masked by downstream ready; retirement is
        # always accepted, so the input handshakes are not read.
        self.declare_reads(out.ready)
        self._start_pcs: dict[int, int] = {}
        self._sstore: list[Any] = (
            [None] * self.threads + [False] * self.threads
            + [0] * self.threads
        )
        self._sq = 0
        self._grant: int | None = None
        self._next: tuple[list[int | None], list[bool], list[int]] | None = None

    # -- slot-backed state views ---------------------------------------
    @property
    def _pending(self) -> list[int | None]:
        b = self._sq
        return self._sstore[b:b + self.threads]

    @_pending.setter
    def _pending(self, pending: list[int | None]) -> None:
        b = self._sq
        self._sstore[b:b + self.threads] = pending

    @property
    def _alive(self) -> list[bool]:
        b = self._sq + self.threads
        return self._sstore[b:b + self.threads]

    @_alive.setter
    def _alive(self, alive: list[bool]) -> None:
        b = self._sq + self.threads
        self._sstore[b:b + self.threads] = alive

    @property
    def retired(self) -> list[int]:
        """Per-thread retired-instruction counters."""
        b = self._sq + 2 * self.threads
        return self._sstore[b:b + self.threads]

    @retired.setter
    def retired(self, retired: list[int]) -> None:
        b = self._sq + 2 * self.threads
        self._sstore[b:b + self.threads] = retired

    # ------------------------------------------------------------------
    def set_start(self, thread: int, pc: int) -> None:
        """Arm *thread* to begin execution at byte address *pc*."""
        self._start_pcs[thread] = pc
        b = self._sq
        self._sstore[b + thread] = pc
        self._sstore[b + self.threads + thread] = True
        self.invalidate()

    @property
    def all_halted(self) -> bool:
        return not any(self._alive)

    def alive(self, thread: int) -> bool:
        return self._sstore[self._sq + self.threads + thread]

    # ------------------------------------------------------------------
    def combinational(self) -> None:
        requests_base = [pc is not None for pc in self._pending]
        readies = [sig.value for sig in self.out.ready]
        requests = self.policy.requests(requests_base, readies)
        grant = self.arbiter.grant(requests)
        self._grant = grant
        for t in range(self.threads):
            self.out.valid[t].set(grant == t)
            self.inp.ready[t].set(True)  # retirement always accepted
        if grant is not None:
            self.out.data.set(PCToken(self._pending[grant]))
        else:
            self.out.data.set(X)

    def compile_comb(self, store):
        """Slot-compiled :meth:`combinational`: one slice read for the S
        downstream readies, ``grant_fast`` index probes, and one slice
        compare-and-assign each for the S ``valid`` and S (constant-true)
        ``ready`` outputs.
        """
        if type(self).combinational is not PCUnit.combinational:
            return None
        if type(self.arbiter).grant is not RoundRobinArbiter.grant:
            return None
        out_valid = store.range_of(self.out.valid)
        out_ready = store.range_of(self.out.ready)
        in_ready = store.range_of(self.inp.ready)
        data_slot = store.slot_or_none(self.out.data)
        if None in (out_valid, out_ready, in_ready, data_slot):
            return None
        values = store.values
        dirty = store.dirty
        valid_readers = store.readers_of(self.out.valid)
        ready_readers = store.readers_of(self.inp.ready)
        data_readers = store.readers_of((self.out.data,))
        ovb, ove = out_valid
        orb, ore = out_ready
        irb, ire = in_ready
        requests_of = self.policy.requests_fast
        grant_fast = self.arbiter.grant_fast
        threads = self.threads
        falses = [False] * threads
        trues = [True] * threads
        one_hot = one_hot_vectors(threads)
        unknown = X
        # Compile-time binding of the (possibly re-homed) state block;
        # rebuild()/reset() recompiles, so the binding stays fresh.
        sstore = self._sstore
        sq = self._sq
        sqe = sq + threads

        def step() -> bool:
            pending = sstore[sq:sqe]
            readies = values[orb:ore]
            if pending.count(None) == threads:
                grant = None
            else:
                valids = [pc is not None for pc in pending]
                grant = grant_fast(requests_of(valids, readies))
            self._grant = grant
            if grant is None:
                new_valid = falses
                new_data = unknown
            else:
                new_valid = one_hot[grant]
                new_data = PCToken(pending[grant])
            changed = False
            if values[ovb:ove] != new_valid:
                values[ovb:ove] = new_valid
                if valid_readers:
                    dirty.update(valid_readers)
                changed = True
            if values[irb:ire] != trues:
                values[irb:ire] = trues
                if ready_readers:
                    dirty.update(ready_readers)
                changed = True
            old = values[data_slot]
            if old is not new_data and not same_value(old, new_data):
                values[data_slot] = new_data
                if data_readers:
                    dirty.update(data_readers)
                changed = True
            return changed

        return step

    def capture(self) -> None:
        pending = list(self._pending)
        alive = list(self._alive)
        retired = list(self.retired)
        transferred = False
        g = self._grant
        if g is not None and self.out.ready[g].value:
            transferred = True
            pending[g] = None  # token dispatched into the ring
        t = self.inp.transfer_thread()
        if t is not None:
            token: MemToken = self.inp.data.value
            instr = token.instr
            if instr.op in _WRITES_RD:
                self.regfile.write(t, instr.rd, token.value)
            retired[t] += 1
            if token.halt:
                alive[t] = False
                pending[t] = None
            else:
                if pending[t] is not None:
                    raise SimulationError(
                        f"{self.path}: thread {t} retired while a fetch "
                        "was already pending (duplicate token)"
                    )
                pending[t] = token.next_pc
        self.arbiter.note(g, transferred)
        self._next = (pending, alive, retired)

    def commit(self) -> bool:
        changed = self.arbiter.commit()
        if self._next is not None:
            changed = (
                changed
                or self._pending != self._next[0]
                or self._alive != self._next[1]
            )
            self._pending, self._alive, self.retired = self._next
            self._next = None
        return changed

    def compile_seq(self, seq):
        """Columnar tick plan: pending/alive/retired re-homed into one
        ``[pending×S][alive×S][retired×S]`` block, dispatch and
        retirement detected with slot-level probes, and the whole
        capture/commit delta-gated — a fully halted (or token-less)
        PC/WB unit costs nothing per cycle.
        """
        cls = type(self)
        if cls.capture is not PCUnit.capture or cls.commit is not PCUnit.commit:
            return None
        store = seq.store
        out_ready = store.range_of(self.out.ready)
        in_valid = store.range_of(self.inp.valid)
        in_ready = store.range_of(self.inp.ready)
        in_data = store.slot_or_none(self.inp.data)
        if None in (out_ready, in_valid, in_ready, in_data):
            return None
        threads = self.threads
        sq = seq.alloc(self._sstore[self._sq:self._sq + 3 * threads])
        self._sstore = seq.values
        self._sq = sq
        svalues = seq.values
        ab = sq + threads           # alive base
        rb = ab + threads           # retired base
        re_ = rb + threads
        values = store.values
        orb = out_ready[0]
        ivb, ive = in_valid
        irb = in_ready[0]
        arb = self.arbiter
        regfile_write = self.regfile.write
        writes_rd = _WRITES_RD
        inp_path = self.inp.path
        path = self.path

        def capture(cycle) -> None:
            g = self._grant
            transferred = g is not None and values[orb + g]
            t = one_hot_thread(values[ivb:ive], inp_path)
            if t is not None and not values[irb + t]:
                t = None
            if not transferred and t is None:
                # Idle cycle: no dispatch, no retirement.
                self._next = None
                arb.note(g, False)
                return
            pending = svalues[sq:ab]
            alive = svalues[ab:rb]
            retired = svalues[rb:re_]
            if transferred:
                pending[g] = None  # token dispatched into the ring
            if t is not None:
                token: MemToken = values[in_data]
                instr = token.instr
                if instr.op in writes_rd:
                    regfile_write(t, instr.rd, token.value)
                retired[t] += 1
                if token.halt:
                    alive[t] = False
                    pending[t] = None
                else:
                    if pending[t] is not None:
                        raise SimulationError(
                            f"{path}: thread {t} retired while a fetch "
                            "was already pending (duplicate token)"
                        )
                    pending[t] = token.next_pc
            arb.note(g, transferred)
            self._next = (pending, alive, retired)

        def commit() -> bool:
            changed = arb.commit()
            nxt = self._next
            if nxt is not None:
                changed = (
                    changed
                    or svalues[sq:ab] != nxt[0]
                    or svalues[ab:rb] != nxt[1]
                )
                svalues[sq:ab] = nxt[0]
                svalues[ab:rb] = nxt[1]
                svalues[rb:re_] = nxt[2]
                self._next = None
            return changed

        watch = (out_ready, in_valid, in_ready, (in_data, in_data + 1))
        return SeqPlan(self, capture, commit, watch,
                       state=((sq, re_),))

    def reset(self) -> None:
        self.arbiter.reset()
        b = self._sq
        s = self.threads
        pending: list[int | None] = [None] * s
        alive = [False] * s
        for t, pc in self._start_pcs.items():
            pending[t] = pc
            alive[t] = True
        self._sstore[b:b + s] = pending
        self._sstore[b + s:b + 2 * s] = alive
        self._sstore[b + 2 * s:b + 3 * s] = [0] * s
        self._grant = None
        self._next = None

    def area_items(self) -> list[tuple[str, int, int]]:
        s = self.threads
        items: list[tuple[str, int, int]] = [
            ("ff", s, 32),        # private program counters
            ("ff", s, 1),         # alive flags
            ("mux2", s - 1, 32),  # pc selection tree
            ("lut", 2 * s, 1),
        ]
        items.extend(self.arbiter.area_items())
        return items


@dataclasses.dataclass
class RunStats:
    """Execution summary returned by :meth:`Processor.run`."""

    cycles: int
    retired: list[int]

    @property
    def total_retired(self) -> int:
        return sum(self.retired)

    @property
    def ipc(self) -> float:
        return self.total_retired / self.cycles if self.cycles else 0.0


class Processor:
    """Assembled multithreaded elastic processor."""

    def __init__(
        self,
        threads: int = 8,
        meb: str = "reduced",
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        imem_latency: Any = 1,
        dmem_latency: int = 2,
        mul_latency: int = 3,
        monitor: bool = False,
        alu_in_dsp: bool = True,
        engine: str | None = None,
    ):
        if meb not in MEB_KINDS:
            raise ValueError(f"meb must be one of {sorted(MEB_KINDS)}")
        self.threads = threads
        self.meb_kind = meb
        self.imem = InstructionMemory("imem")
        self.dmem = DataMemoryArray("dmem", threads)
        self.regfile = RegisterFileArray("regfile", threads)
        self._dmem_latency = dmem_latency
        self._mul_latency = mul_latency

        ch = lambda name, width: MTChannel(name, threads, width)
        self.c_pc = ch("c_pc", PCToken.WIDTH)
        self.c_if = ch("c_if", PCToken.WIDTH)
        self.c_fo = ch("c_fo", FetchedToken.WIDTH)
        self.c_id = ch("c_id", FetchedToken.WIDTH)
        self.c_do = ch("c_do", DecodedToken.WIDTH)
        self.c_ex = ch("c_ex", DecodedToken.WIDTH)
        self.c_eo = ch("c_eo", ExecutedToken.WIDTH)
        self.c_mm = ch("c_mm", ExecutedToken.WIDTH)
        self.c_mo = ch("c_mo", MemToken.WIDTH)

        meb_cls = MEB_KINDS[meb]
        self.pc_unit = PCUnit("pc_wb", self.c_mo, self.c_pc, self.regfile,
                              policy=policy)
        self.meb_if = meb_cls("meb_if", self.c_pc, self.c_if, policy=policy)
        self.fetch = MTVariableLatencyUnit(
            "fetch", self.c_if, self.c_fo,
            fn=lambda tok: FetchedToken(tok.pc, self.imem.fetch(tok.pc)),
            latency=imem_latency,
        )
        self.meb_id = meb_cls("meb_id", self.c_fo, self.c_id, policy=policy)
        # pure=True although _decode reads the register file: one token
        # per thread circulates the ring, so thread t's bank is only
        # written while t's token sits in the PC/WB stage — never while
        # a FetchedToken of t is parked at decode's input.  By the time
        # t's next token reaches decode, the input handshake signals
        # have changed and the engine re-evaluates.  Out-of-band regfile
        # writes mid-run must call decode.invalidate() (the standard
        # kernel rule for mutated closure context).
        self.decode = MTContextFunction(
            "decode", self.c_id, self.c_do, fn=self._decode,
            area_luts=decode_luts(), pure=True,
        )
        self.meb_ex = meb_cls("meb_ex", self.c_do, self.c_ex, policy=policy)
        # The reference iDEA processor [10] maps its ALU onto a DSP block,
        # which the paper's Table I excludes from the LE counts ("the DSP
        # blocks are not included"); alu_in_dsp=True mirrors that
        # accounting, alu_in_dsp=False folds the ALU into the LE total.
        self.alu_in_dsp = alu_in_dsp
        self.execute = MTVariableLatencyUnit(
            "execute", self.c_ex, self.c_eo, fn=self._execute,
            latency=self._exec_latency,
            area_luts=0 if alu_in_dsp else alu_luts(),
        )
        self.meb_mem = meb_cls("meb_mem", self.c_eo, self.c_mm, policy=policy)
        self.mem = MTSequencedUnit(
            "mem", self.c_mm, self.c_mo, fn=self._mem_access,
            latency=self._mem_latency,
        )

        parts: list[Component] = [
            self.c_pc, self.c_if, self.c_fo, self.c_id, self.c_do, self.c_ex,
            self.c_eo, self.c_mm, self.c_mo, self.imem, self.dmem,
            self.regfile, self.pc_unit, self.meb_if, self.fetch, self.meb_id,
            self.decode, self.meb_ex, self.execute, self.meb_mem, self.mem,
        ]
        self.monitors: dict[str, MTMonitor] = {}
        if monitor:
            for chan in (self.c_pc, self.c_do, self.c_mo):
                mon = MTMonitor(f"mon_{chan.name}", chan)
                self.monitors[chan.name] = mon
                parts.append(mon)
        self.sim = Simulator(max_settle_iterations=128, engine=engine)
        for part in parts:
            self.sim.add(part)
        self.sim.reset()

    # ------------------------------------------------------------------
    # stage functions
    # ------------------------------------------------------------------
    def _decode(self, token: FetchedToken, thread: int) -> DecodedToken:
        instr = isa.decode(token.word)
        a = self.regfile.read(thread, instr.rs1)
        if instr.format is isa.Format.I:
            b = instr.imm
        else:
            b = self.regfile.read(thread, instr.rs2)
        store_value = (
            self.regfile.read(thread, instr.rd)
            if instr.op is isa.Op.SW
            else 0
        )
        return DecodedToken(token.pc, instr, a, b, store_value)

    @staticmethod
    def _execute(token: DecodedToken) -> ExecutedToken:
        # One dict lookup to the opcode's straight-line specialization
        # (see _compile_execute_table); semantics pinned to
        # _execute_interp by a differential test over the full ISA.
        return _EXEC_FNS[token.instr.op](token)

    def _exec_latency(self, token: DecodedToken, _k: int) -> int:
        return self._mul_latency if token.instr.op is isa.Op.MUL else 1

    def _mem_access(self, token: ExecutedToken, thread: int) -> MemToken:
        value = token.value
        if token.instr.op is isa.Op.LW:
            value = self.dmem.read(thread, token.mem_addr)
        elif token.instr.op is isa.Op.SW:
            self.dmem.write(thread, token.mem_addr, token.store_value)
        return MemToken(token.pc, token.instr, value, token.next_pc,
                        token.halt)

    def _mem_latency(self, token: ExecutedToken, _k: int) -> int:
        return self._dmem_latency if isa.is_mem(token.instr.op) else 1

    # ------------------------------------------------------------------
    # program loading and execution
    # ------------------------------------------------------------------
    def load_program(self, thread: int, source: str | list[int],
                     base: int | None = None) -> int:
        """Assemble/load a program and arm the thread's PC at its base.

        Without an explicit ``base``, each thread gets a 4 KiB code
        segment at ``thread * 0x1000``.  Returns the base address.
        """
        if base is None:
            base = thread * 0x1000
        words = assemble(source, base=base) if isinstance(source, str) else source
        self.imem.load(words, base=base)
        self.pc_unit.set_start(thread, base)
        return base

    def run(self, max_cycles: int = 50_000) -> RunStats:
        """Run until every armed thread has halted."""
        pc_unit = self.pc_unit
        self.sim.run(until=lambda _s: pc_unit.all_halted, max_cycles=max_cycles)
        return RunStats(cycles=self.sim.cycle, retired=list(self.pc_unit.retired))

    def run_cycles(self, cycles: int) -> RunStats:
        self.sim.run(cycles=cycles)
        return RunStats(cycles=self.sim.cycle, retired=list(self.pc_unit.retired))

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def reg(self, thread: int, index: int) -> int:
        return self.regfile.read(thread, index)

    def mem_word(self, thread: int, addr: int) -> int:
        return self.dmem.read(thread, addr)

    # ------------------------------------------------------------------
    # area inventory for Table I
    # ------------------------------------------------------------------
    def area_components(self) -> list[Component]:
        """LE-counted parts; memories/register file excluded (Table I)."""
        return [
            self.pc_unit, self.meb_if, self.fetch, self.meb_id, self.decode,
            self.meb_ex, self.execute, self.meb_mem, self.mem,
            self.imem, self.dmem, self.regfile,
        ]

    def meb_components(self) -> list[Component]:
        return [self.meb_if, self.meb_id, self.meb_ex, self.meb_mem]
