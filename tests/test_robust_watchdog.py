"""Tests of sweep supervision through the experiment fabric.

Test-local cells hang, crash (``os._exit``) or raise on their first
executions (counted across worker processes in a state directory), and
the tests check that :func:`repro.fabric.fabric_sweep` kills, retries,
records, and -- above all -- never loses the other cells.
"""

import os
import time
from dataclasses import dataclass

import pytest

from repro.chaos import CHAOS_EXIT_CODE
from repro.fabric import SweepResult, fabric_sweep


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _first_squared(param):
    return _square(param[0])


@dataclass
class _Misbehave:
    """Picklable cell: squares its parameter, except that the first
    ``times`` executions of ``param`` hang, crash or raise.

    Executions are counted by one-byte appends to a file in
    ``state_dir``, so the count holds across worker processes."""

    state_dir: str
    param: int
    kind: str  # "hang" | "crash" | "raise"
    times: int = 1

    def executions(self) -> int:
        try:
            return os.path.getsize(self._counter)
        except OSError:
            return 0

    @property
    def _counter(self) -> str:
        return os.path.join(self.state_dir, f"cell-{self.param}.count")

    def __call__(self, x):
        if x == self.param:
            with open(self._counter, "ab") as fh:
                fh.write(b".")
            if self.executions() <= self.times:
                if self.kind == "hang":
                    time.sleep(3600)
                if self.kind == "crash":
                    os._exit(CHAOS_EXIT_CODE)
                raise RuntimeError(f"injected fault for param {x!r}")
        return _square(x)


@pytest.fixture
def fab(tmp_path):
    return str(tmp_path / "fabric")


class TestErrorReporting:
    def test_error_carries_full_traceback(self, fab):
        results = fabric_sweep(_fail_on_three, [1, 3], fabric_dir=fab,
                               workers=0).results
        assert results[0].ok and results[0].value == 1
        bad = results[1]
        assert not bad.ok
        assert "Traceback" in bad.error
        assert "ValueError: three is right out" in bad.error
        assert "_fail_on_three" in bad.error  # the frame is visible

    def test_seconds_and_attempts_are_recorded(self, fab):
        results = fabric_sweep(_square, [2, 5], fabric_dir=fab,
                               workers=2).results
        for r in results:
            assert r.ok
            assert r.seconds >= 0.0
            assert r.attempts == 1

    def test_retry_errors_in_process(self, fab):
        results = fabric_sweep(_fail_on_three, [3], fabric_dir=fab,
                               workers=0, max_attempts=3,
                               retry_errors=True, backoff=0.01).results
        assert not results[0].ok  # deterministic failure every attempt
        assert results[0].attempts == 3


# A hung cell stops renewing its lease after job_timeout; the lease
# expires lease_ttl later and a peer steals the cell.  The coordinator
# kills the hung worker (stale heartbeat, or at shutdown).
_WATCHDOG = dict(workers=2, lease_ttl=0.3, job_timeout=0.5,
                 poll_interval=0.05, backoff=0.05)


class TestHungWorkerKill:
    def test_hung_worker_is_killed_and_retried(self, fab, tmp_path):
        fn = _Misbehave(str(tmp_path), 1, "hang")
        results = fabric_sweep(fn, [0, 1, 4], fabric_dir=fab,
                               max_attempts=2, **_WATCHDOG).results
        assert [r.value for r in results] == [0, 1, 16]
        assert results[1].attempts == 2  # killed once, succeeded on retry
        assert results[0].attempts == 1 and results[2].attempts == 1
        assert fn.executions() == 2

    def test_retries_exhausted_reports_timeout(self, fab, tmp_path):
        fn = _Misbehave(str(tmp_path), 7, "hang", times=99)
        t0 = time.monotonic()
        outcome = fabric_sweep(fn, [7, 2], fabric_dir=fab,
                               max_attempts=2, **_WATCHDOG)
        assert time.monotonic() - t0 < 60  # an honest error, not a hang
        dead = outcome.results[0]
        assert not dead.ok
        assert "poisoned after 2 failed claims" in dead.error
        assert "max_attempts=2" in dead.error
        assert dead.attempts == 2
        assert outcome.stats["poisoned"] == 1
        assert outcome.stats["errors"] == 0
        # The healthy cell is untouched by its neighbour's death.
        assert outcome.results[1].ok and outcome.results[1].value == 4


class TestCrashedWorker:
    def test_crash_is_detected_and_retried(self, fab, tmp_path):
        fn = _Misbehave(str(tmp_path), 2, "crash")
        results = fabric_sweep(fn, [2, 3], fabric_dir=fab,
                               max_attempts=2, **_WATCHDOG).results
        assert [r.value for r in results] == [4, 9]
        assert results[0].attempts == 2
        assert fn.executions() == 2

    def test_crash_without_retry_is_recorded(self, fab, tmp_path):
        fn = _Misbehave(str(tmp_path), 2, "crash")
        outcome = fabric_sweep(fn, [2, 3], fabric_dir=fab,
                               max_attempts=1, **_WATCHDOG)
        dead = outcome.results[0]
        assert not dead.ok
        assert "poisoned after 1 failed claims" in dead.error
        assert fn.executions() == 1  # the crashed cell never re-ran
        assert outcome.results[1].ok
        with open(os.path.join(fab, "fabric-events.jsonl")) as fh:
            assert f'"exitcode": {CHAOS_EXIT_CODE}' in fh.read()


class TestRaisedFaults:
    def test_raise_fault_records_then_clears(self, tmp_path):
        # The fault fires on the first two *executions* of the cell
        # (counted across sweeps): once in the record-only sweep below,
        # once more on the retrying sweep's first attempt.
        fn = _Misbehave(str(tmp_path), 5, "raise", times=2)
        # Cell errors are deterministic by default: recorded, no retry.
        results = fabric_sweep(fn, [5], fabric_dir=str(tmp_path / "a"),
                               workers=2).results
        assert not results[0].ok
        assert "injected fault for param 5" in results[0].error
        # With retry_errors the second attempt succeeds (fault cleared).
        # A fresh directory: the first store holds the error record.
        results = fabric_sweep(fn, [5], fabric_dir=str(tmp_path / "b"),
                               workers=2, max_attempts=2,
                               retry_errors=True, backoff=0.05).results
        assert results[0].ok and results[0].value == 25
        assert results[0].attempts == 2


class TestSweepResume:
    def test_finished_cells_are_not_rerun(self, fab):
        params = [1, 2, 3]
        first = fabric_sweep(_square, params, fabric_dir=fab, workers=0)
        assert [r.value for r in first.results] == [1, 4, 9]

        # Re-run on the same directory: nothing executes again.
        second = fabric_sweep(_fail_on_three, params, fabric_dir=fab,
                              workers=0)
        assert [r.value for r in second.results] == [1, 4, 9]
        assert all(r.ok for r in second.results)
        assert second.stats["restored"] == 3

    def test_checkpoint_roundtrips_worker_results(self, fab):
        params = [[i] for i in range(4)]
        first = fabric_sweep(_first_squared, params, fabric_dir=fab,
                             workers=2).results
        assert [r.value for r in first] == [0, 1, 4, 9]
        again = fabric_sweep(_first_squared, params, fabric_dir=fab,
                             workers=2)
        assert [r.value for r in again.results] == [0, 1, 4, 9]
        assert [r.seconds for r in again.results] == [
            r.seconds for r in first]  # restored bits, not re-solved
        assert again.stats["restored"] == 4

    def test_param_mismatch_is_rejected(self, fab):
        # Cells are keyed by content: a store recorded for one parameter
        # list restores nothing for another.
        fabric_sweep(_square, [1, 2, 3], fabric_dir=fab, workers=0)
        out = fabric_sweep(_square, [9, 9], fabric_dir=fab, workers=0)
        assert out.stats["restored"] == 0
        assert [r.value for r in out.results] == [81, 81]


class TestSweepResultShape:
    def test_ok_property(self):
        assert SweepResult(param=0, value=1).ok
        assert not SweepResult(param=0, error="boom").ok
