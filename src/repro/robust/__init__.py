"""Solve supervision: budgets, checkpoints, degradation.

The SOLVE/BIN_SEARCH loop (paper section 5.2) and the tables-1-4 sweeps
are long-running searches over NP-hard instances; serving them at
production scale demands that every solve is *bounded*, *resumable*, and
*degradable*.  This package supplies the supervision layer:

- :mod:`repro.robust.budget` -- cooperative :class:`Budget` limits
  (wall time / conflicts / decisions) honored inside the CDCL search
  loop, so a single probe is interruptible mid-search,
- :mod:`repro.robust.checkpoint` -- JSON checkpoint/resume state for
  binary searches (:class:`SearchCheckpoint`),
- :mod:`repro.robust.supervisor` -- the :class:`SolveSupervisor`
  escalation chain (incremental -> rebuild -> heuristic) that always
  returns a usable allocation with an honest status,
- :mod:`repro.robust.faults` -- single-point certificate corruption
  (proof lines, witnesses) for testing the checkers.

Process-level fault injection lives in :mod:`repro.chaos`; sweeps are
supervised by the experiment fabric (:mod:`repro.fabric`: leases,
``job_timeout``, bounded retry, poison quarantine).  See
``docs/ROBUSTNESS.md`` for the full picture.
"""

from repro.robust.budget import Budget, BudgetExpired
from repro.robust.checkpoint import (
    CheckpointCorrupt,
    CorruptArtifact,
    SearchCheckpoint,
)
from repro.robust.flight import FlightRecorder, read_events
from repro.robust.faults import (
    PROOF_CORRUPTIONS,
    corrupt_allocation,
    corrupt_proof_line,
)
from repro.robust.supervisor import (
    SolveSupervisor,
    StageReport,
    SupervisedResult,
)

__all__ = [
    "Budget",
    "BudgetExpired",
    "SearchCheckpoint",
    "CheckpointCorrupt",
    "CorruptArtifact",
    "SolveSupervisor",
    "StageReport",
    "SupervisedResult",
    "FlightRecorder",
    "read_events",
    "PROOF_CORRUPTIONS",
    "corrupt_proof_line",
    "corrupt_allocation",
]
