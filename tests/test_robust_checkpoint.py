"""Tests of checkpoint/resume (repro.robust.checkpoint).

The core promise: an interrupted binary search, resumed from its
checkpoint on a *fresh* solver, reaches exactly the optimum an
uninterrupted run would have -- with a model to show for it.
"""

import json
import os

import pytest

from repro.arith import IntSolver
from repro.core import SolveRequest
from repro.core.optimize import bin_search
from repro.fabric import ResultStore, fabric_sweep
from repro.robust import Budget, SearchCheckpoint


def _solver():
    s = IntSolver()
    x = s.int_var("x", 0, 1023)
    y = s.int_var("y", 0, 1023)
    s.require(x + y >= 777)
    s.require(x >= 37)
    return s, x


class TestSearchCheckpointCodec:
    def test_roundtrip(self, tmp_path):
        ck = SearchCheckpoint(lower=0, upper=100, left=10, right=40,
                              feasible=True,
                              probes=[{"lo": 0, "hi": 100, "sat": True,
                                       "cost": 40, "seconds": 0.1,
                                       "conflicts": 5, "decisions": 9,
                                       "interrupted": False}],
                              payload={"note": "best"})
        path = str(tmp_path / "ck.json")
        ck.save(path)
        back = SearchCheckpoint.load(path)
        assert back.to_dict() == ck.to_dict()
        assert back.path == path

    def test_rejects_foreign_kind_and_version(self):
        with pytest.raises(ValueError):
            SearchCheckpoint.from_dict({"kind": "sweep", "version": 1})
        with pytest.raises(ValueError):
            SearchCheckpoint.from_dict({"kind": "bin_search", "version": 99})

    def test_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9)
        ck.save(path)
        # No temp droppings next to the checkpoint.
        assert os.listdir(tmp_path) == ["ck.json"]
        with open(path) as fh:
            assert json.load(fh)["kind"] == "bin_search"

    def test_save_is_durable(self, tmp_path, monkeypatch):
        """atomic_write_json must fsync the temp file *before* the rename
        and the directory *after* it -- otherwise a crash can leave the
        renamed checkpoint empty (the ext4 zero-length-file hazard)."""
        from repro.robust.checkpoint import atomic_write_json

        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            mode = os.fstat(fd).st_mode
            import stat

            events.append("fsync-dir" if stat.S_ISDIR(mode)
                          else "fsync-file")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        path = str(tmp_path / "ck.json")
        atomic_write_json(path, {"kind": "test", "n": 3})
        assert events == ["fsync-file", "rename", "fsync-dir"]
        with open(path) as fh:
            assert json.load(fh) == {"kind": "test", "n": 3}

    def test_save_survives_unsupported_directory_fsync(self, tmp_path,
                                                       monkeypatch):
        """A filesystem refusing directory fsync degrades gracefully."""
        from repro.robust.checkpoint import atomic_write_json

        real_fsync = os.fsync

        def flaky_fsync(fd):
            import stat

            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory fsync unsupported")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = str(tmp_path / "ck.json")
        atomic_write_json(path, {"ok": True})
        with open(path) as fh:
            assert json.load(fh) == {"ok": True}

    def test_started_and_finished(self):
        ck = SearchCheckpoint()
        assert not ck.started and not ck.finished
        ck.feasible = True
        ck.left, ck.right = 3, 7
        assert ck.started and not ck.finished
        ck.left = 7
        assert ck.finished
        assert SearchCheckpoint(feasible=False).finished  # certified UNSAT


class TestBinSearchResume:
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        s_ref, x_ref = _solver()
        reference = bin_search(s_ref, x_ref, 0, 1023)
        assert reference.status == "optimal" and reference.optimum == 37
        decisions = s_ref.stats.decisions

        path = str(tmp_path / "search.json")
        s1, x1 = _solver()
        ck = SearchCheckpoint()
        ck.path = path
        out1 = bin_search(s1, x1, 0, 1023, checkpoint=ck,
                          budget=Budget(
                              max_decisions=max(2, decisions // 3)))
        assert out1.interrupted and not out1.proven
        assert os.path.exists(path)

        # Resume on a brand-new solver from the file alone.
        s2, x2 = _solver()
        out2 = bin_search(s2, x2, 0, 1023,
                          checkpoint=SearchCheckpoint.load(path))
        assert out2.resumed
        assert out2.status == "optimal"
        assert out2.optimum == reference.optimum
        assert out2.proven
        # The re-certification probe loaded the optimum's model.
        assert s2.value(x2) == reference.optimum

    def test_resume_of_certified_unsat(self, tmp_path):
        s = IntSolver()
        x = s.int_var("x", 0, 7)
        s.require(x >= 5)
        s.require(x <= 2)
        path = str(tmp_path / "unsat.json")
        ck = SearchCheckpoint()
        ck.path = path
        out = bin_search(s, x, 0, 7, checkpoint=ck)
        assert not out.feasible and out.proven

        s2 = IntSolver()
        x2 = s2.int_var("x", 0, 7)
        out2 = bin_search(s2, x2, 0, 7,
                          checkpoint=SearchCheckpoint.load(path))
        # Infeasibility was certified: the resume does not probe at all.
        assert out2.resumed and out2.status == "infeasible"

    def test_range_mismatch_is_rejected(self):
        s, x = _solver()
        ck = SearchCheckpoint(lower=0, upper=99, left=0, right=50,
                              feasible=True)
        with pytest.raises(ValueError, match="does not match"):
            bin_search(s, x, 0, 1023, checkpoint=ck)

    def test_inconsistent_checkpoint_is_detected(self):
        # A checkpoint claiming an optimum below what the constraints
        # allow must fail loudly at re-certification, not return a bogus
        # "certified" answer.
        s, x = _solver()  # requires x >= 37
        ck = SearchCheckpoint(lower=0, upper=1023, left=5, right=5,
                              feasible=True)
        with pytest.raises(ValueError, match="inconsistent"):
            bin_search(s, x, 0, 1023, checkpoint=ck)


class TestAllocatorResume:
    def _system(self):
        from repro.model import (
            TOKEN_RING,
            Architecture,
            Ecu,
            Medium,
            Message,
            Task,
            TaskSet,
        )

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([
            Task("a", 2000, {"p0": 400, "p1": 400}, 2000,
                 messages=(Message("b", 100, 1000),),
                 separated_from=frozenset({"b"})),
            Task("b", 2000, {"p0": 400, "p1": 400}, 2000),
        ])
        return tasks, arch

    def test_interrupted_allocation_resumes_to_same_optimum(self, tmp_path):
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        reference = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        assert reference.proven

        # Find a budget that interrupts *between* the initial SOLVE and
        # the certified optimum, so there is real state to resume.  The
        # reference run's probe log tells us the decision window: any
        # budget past the initial probe but short of the full search
        # starves mid-interval (decisions are deterministic, but keep
        # the bracketing ladder as a fallback for engine changes).
        initial = reference.outcome.probes[0].decisions
        total = sum(p.decisions for p in reference.outcome.probes)
        ladder = [initial + max((total - initial) // 2, 1)]
        ladder += [x for x in (40, 80, 160, 320, 640, 1280, 2560)
                   if x not in ladder]
        path = str(tmp_path / "alloc.json")
        starved = None
        for max_decisions in ladder:
            if os.path.exists(path):
                os.remove(path)
            starved = Allocator(tasks, arch).minimize(
                MinimizeTRT("ring"),
                request=SolveRequest(
                    budget=Budget(max_decisions=max_decisions),
                    checkpoint=path,
                ),
            )
            if starved.outcome.feasible and not starved.proven:
                break
        if not (starved.outcome.feasible and not starved.proven):
            pytest.skip("could not starve the search mid-interval here")
        assert os.path.exists(path)

        resumed = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"), request=SolveRequest(checkpoint=path)
        )
        assert resumed.proven
        assert resumed.cost == reference.cost
        assert resumed.outcome.resumed
        assert resumed.verified  # independent analysis still passes

    def test_checkpoint_payload_preserves_best_allocation(self, tmp_path):
        # Even when the *resumed* run is interrupted before probing, the
        # checkpoint payload hands back the best allocation found so far.
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        path = str(tmp_path / "alloc.json")
        first = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(
                budget=Budget(max_decisions=200), checkpoint=path),
        )
        if first.allocation is None:
            pytest.skip("budget too small to find any model on this host")
        data = json.load(open(path))
        assert data["payload"] is not None
        resumed = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(
                budget=Budget(max_decisions=1), checkpoint=path),
        )
        assert resumed.allocation is not None


def _ten_times_or_fail(x):
    if x == 3:
        raise ValueError("cell 3 fails")
    return x * 10


def _only_two_may_run(x):
    if x != 2:
        raise AssertionError(f"recorded cell {x} re-ran on resume")
    return x * 10


def _scaled(param):
    return param * 10


def _unserializable(param):
    return object()


class TestSweepCheckpoint:
    """A sweep's checkpoint is its fabric store: every finished cell,
    value or error, is a content-addressed record that a later run on
    the same directory restores instead of re-running."""

    def test_record_and_resume(self, tmp_path):
        fab = str(tmp_path / "fabric")
        fabric_sweep(_ten_times_or_fail, [1, 3], fabric_dir=fab,
                     workers=0, max_attempts=2, retry_errors=True,
                     backoff=0.0)
        back = fabric_sweep(_only_two_may_run, [1, 2, 3], fabric_dir=fab,
                            workers=0)
        assert back.stats["restored"] == 2
        assert [r.value for r in back.results[:2]] == [10, 20]
        assert "cell 3 fails" in back.results[2].error
        assert back.results[2].attempts == 2  # restored with its record

    def test_fingerprint_guards_against_other_params(self, tmp_path):
        fab = str(tmp_path / "fabric")
        fabric_sweep(_scaled, [1, 2], fabric_dir=fab, workers=0,
                     config={"scale": 10})
        # Keys are per cell: only the shared cell [2] is restored.
        out = fabric_sweep(_scaled, [2, 9], fabric_dir=fab, workers=0,
                           config={"scale": 10})
        assert out.stats["restored"] == 1
        assert [r.value for r in out.results] == [20, 90]
        # The same cells under another sweep config restore nothing.
        other = fabric_sweep(_scaled, [1, 2], fabric_dir=fab, workers=0,
                             config={"scale": 11})
        assert other.stats["restored"] == 0

    def test_unserializable_values_are_skipped(self, tmp_path):
        fab = str(tmp_path / "fabric")
        out = fabric_sweep(_unserializable, [0], fabric_dir=fab, workers=0)
        assert not out.results[0].ok and out.results[0].value is None
        # The store holds a JSON error record, never the bad value, and
        # a resume restores that honest error.
        (rec,) = ResultStore(fab).scan().records.values()
        assert rec["value"] is None and "JSON" in rec["error"]
        again = fabric_sweep(_unserializable, [0], fabric_dir=fab,
                             workers=0)
        assert again.stats["restored"] == 1
        assert again.results[0].error == out.results[0].error
