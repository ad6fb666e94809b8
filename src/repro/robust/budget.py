"""Cooperative solve budgets (wall time, conflicts, decisions).

A :class:`Budget` is threaded from the public entry points (``Allocator``,
``SolveSupervisor``, the CLI) down into the CDCL search loop of
:class:`repro.sat.solver.Solver`.  The search charges the budget on every
conflict and decision and periodically re-checks the wall clock; when the
budget is exhausted the engine backtracks to level 0 (so it stays usable)
and raises :class:`BudgetExpired`.  Callers report the interrupted probe
as UNKNOWN instead of hanging -- the anytime/limit discipline exact
solvers need before they can be served at production scale.

One budget spans a whole optimization run: all binary-search probes (and
all escalation stages of :class:`repro.robust.supervisor.SolveSupervisor`)
draw from the same pool, so the wall-clock promise made to the caller
holds end-to-end, not per probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Budget", "BudgetExpired"]


class BudgetExpired(RuntimeError):
    """Raised by the search loop when its :class:`Budget` runs out.

    The solver that raises it has already backtracked to decision level 0
    and remains usable (learnt clauses are kept); only the *answer* of the
    interrupted call is unknown.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class Budget:
    """Cooperative resource budget for one solve/optimize run.

    Any combination of limits may be set; ``None`` means unlimited.  The
    wall clock starts on the first :meth:`start` call (the first solver
    invocation), so constructing a budget ahead of time costs nothing.

    ``check_every`` bounds how many conflicts/decisions may pass between
    wall-clock checks -- the granularity of interruption.  Conflict and
    decision limits are exact.
    """

    wall_seconds: float | None = None
    max_conflicts: int | None = None
    max_decisions: int | None = None
    check_every: int = 64

    conflicts_used: int = field(default=0, init=False)
    decisions_used: int = field(default=0, init=False)
    expired_reason: str | None = field(default=None, init=False)
    _deadline: float | None = field(default=None, init=False, repr=False)
    _tick: int = field(default=0, init=False, repr=False)

    def start(self) -> None:
        """Arm the wall clock (idempotent; later calls keep the deadline)."""
        if self._deadline is None and self.wall_seconds is not None:
            self._deadline = time.monotonic() + self.wall_seconds

    def remaining_seconds(self) -> float | None:
        """Seconds left on the wall clock (``None`` when unlimited)."""
        if self.wall_seconds is None:
            return None
        if self._deadline is None:
            return self.wall_seconds
        return max(0.0, self._deadline - time.monotonic())

    def step(self, conflicts: int = 0, decisions: int = 0) -> bool:
        """Charge usage; return True when the budget just expired.

        Called from the CDCL inner loop -- kept allocation-free and cheap.
        Once expired it keeps returning True.
        """
        if self.expired_reason is not None:
            return True
        self.conflicts_used += conflicts
        self.decisions_used += decisions
        if (
            self.max_conflicts is not None
            and self.conflicts_used >= self.max_conflicts
        ):
            self.expired_reason = (
                f"conflict budget exhausted "
                f"({self.conflicts_used}/{self.max_conflicts})"
            )
            return True
        if (
            self.max_decisions is not None
            and self.decisions_used >= self.max_decisions
        ):
            self.expired_reason = (
                f"decision budget exhausted "
                f"({self.decisions_used}/{self.max_decisions})"
            )
            return True
        if self._deadline is not None:
            self._tick += 1
            if self._tick >= self.check_every:
                self._tick = 0
                if time.monotonic() >= self._deadline:
                    self.expired_reason = (
                        f"wall-clock budget exhausted "
                        f"({self.wall_seconds:g}s)"
                    )
                    return True
        return False

    def expired(self) -> bool:
        """Whether the budget is exhausted (also re-checks the clock)."""
        if self.expired_reason is not None:
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self.expired_reason = (
                f"wall-clock budget exhausted ({self.wall_seconds:g}s)"
            )
            return True
        return False

    def raise_if_expired(self) -> None:
        if self.expired():
            raise BudgetExpired(self.expired_reason or "budget exhausted")
