"""Thread arbiters and grant policies for MEBs (paper §III).

The paper states that "an arbiter is responsible for selecting the active
thread after taking into account which threads are ready downstream".
Between two MEBs this downstream-ready masking is safe because an MEB's
``ready`` outputs are functions of registered state.  Where the downstream
readiness itself depends on what is being presented (M-Join between two
MEBs, M-Branch, the barrier), pure masking creates a combinational
chicken-and-egg that settles at all-zero, i.e. deadlock.  DESIGN.md §5
discusses this; the three policies below make the trade-off explicit:

* :attr:`GrantPolicy.MASKED` — grant only among threads that are valid
  *and* ready downstream (paper's description; every grant is a transfer).
* :attr:`GrantPolicy.UNMASKED` — grant among valid threads regardless of
  downstream readiness (a granted thread may stall for a cycle).
* :attr:`GrantPolicy.MASKED_FALLBACK` — the default: behave exactly like
  ``MASKED`` whenever some thread is both valid and ready; otherwise
  *probe* by presenting a valid thread anyway.  Combined with
  rotate-on-stall this lets barriers observe arrivals and lets paired
  join-feeding MEBs converge on a common thread, while remaining
  cycle-for-cycle identical to ``MASKED`` in ordinary pipelines.
"""

from __future__ import annotations

import enum
import math
from operator import and_


class GrantPolicy(enum.Enum):
    """How an MEB arbiter filters its request vector (see module docs)."""

    MASKED = "masked"
    UNMASKED = "unmasked"
    MASKED_FALLBACK = "masked_fallback"

    def requests(self, valids: list[bool], readies: list[bool]) -> list[bool]:
        """Combine per-thread occupancy and downstream readiness."""
        masked = [v and r for v, r in zip(valids, readies)]
        if self is GrantPolicy.MASKED:
            return masked
        if self is GrantPolicy.UNMASKED:
            return list(valids)
        return masked if any(masked) else list(valids)

    def requests_fast(self, valids: list, readies: list) -> list:
        """:meth:`requests` for canonical-bool vectors (hot path).

        Builds the masked vector with one C-speed ``map(and_)`` only when
        some downstream thread is not ready; otherwise — and whenever the
        fallback applies — returns *valids* itself, so callers must not
        mutate the result.  Both vectors must hold real ``True``/``False``
        entries (``&`` is not ``and`` for truthy non-bools).
        """
        if self is GrantPolicy.UNMASKED or False not in readies:
            return valids
        masked = list(map(and_, valids, readies))
        if self is GrantPolicy.MASKED or True in masked:
            return masked
        return valids


class RoundRobinArbiter:
    """Rotating-priority arbiter with two-phase pointer update.

    The grant computation (:meth:`grant`) is pure so it can be called from
    a component's ``combinational()`` any number of times; the pointer
    advances through the owner's capture/commit phases via
    :meth:`note`/:meth:`commit`.

    ``rotate_on_stall=True`` advances the pointer even when the granted
    thread did not transfer, so a probing grant (see
    :attr:`GrantPolicy.MASKED_FALLBACK`) sweeps across all waiting threads
    instead of pinning one forever — required for barrier arrival
    detection and join agreement.
    """

    def __init__(self, n: int, rotate_on_stall: bool = True):
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = int(n)
        self.rotate_on_stall = rotate_on_stall
        self._pointer = 0
        self._next_pointer: int | None = None

    @property
    def pointer(self) -> int:
        return self._pointer

    def grant(self, requests: list[bool]) -> int | None:
        """Pick the first requesting index at or after the pointer."""
        if len(requests) != self.n:
            raise ValueError(
                f"expected {self.n} request bits, got {len(requests)}"
            )
        for k in range(self.n):
            i = (self._pointer + k) % self.n
            if requests[i]:
                return i
        return None

    def grant_fast(self, requests: list[bool]) -> int | None:
        """:meth:`grant` for canonical-bool request vectors (hot path).

        Replaces the rotating modulo scan with C-speed probes: one
        ``True in`` test answers the no-request case, one
        ``list.index(True)`` finds the first request, and only when that
        lies before the pointer is the tail past the pointer searched.
        Callers must pass real ``True``/``False`` entries — handshake
        slots hold only bools, being
        :class:`~repro.kernel.signal.ControlSignal` s — since ``in`` and
        ``index`` match by equality, not truthiness.
        """
        if True not in requests:
            return None
        first = requests.index(True)
        pointer = self._pointer
        if first >= pointer:
            return first
        tail = requests[pointer:]
        if True in tail:
            return pointer + tail.index(True)
        return first

    def note(self, granted: int | None, transferred: bool) -> None:
        """Record this cycle's outcome (called from the owner's capture)."""
        if granted is None:
            self._next_pointer = self._pointer
        elif transferred or self.rotate_on_stall:
            self._next_pointer = (granted + 1) % self.n
        else:
            self._next_pointer = self._pointer

    def commit(self) -> bool:
        """Apply the pointer update; True when the pointer actually moved."""
        if self._next_pointer is None:
            return False
        changed = self._next_pointer != self._pointer
        self._pointer = self._next_pointer
        self._next_pointer = None
        return changed

    def reset(self) -> None:
        self._pointer = 0
        self._next_pointer = None

    def area_items(self) -> list[tuple[str, int, int]]:
        # Rotating priority encoder + pointer register.
        bits = max(1, math.ceil(math.log2(self.n)))
        return [("ff", 1, bits), ("lut", 2 * self.n, 1)]


class FixedPriorityArbiter(RoundRobinArbiter):
    """Static-priority arbiter (lowest index wins).  Used in ablations to
    show why rotating priority is needed for per-thread fairness."""

    def __init__(self, n: int):
        super().__init__(n, rotate_on_stall=False)

    def note(self, granted: int | None, transferred: bool) -> None:
        self._next_pointer = 0

    def area_items(self) -> list[tuple[str, int, int]]:
        return [("lut", self.n, 1)]
