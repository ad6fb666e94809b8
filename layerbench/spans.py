"""Span recorder that wraps the layers' public entry points from outside.

Nothing in ``src/`` knows about this module: :func:`install` replaces
the entry points of each layer with thin wrappers for the duration of a
traced run.  A wrapper records a span (name, layer, start, end, parent,
op id) and its counts only while a traced operation of the benchmark is
current, so calls the benchmark makes itself, such as its answer checks,
and the untraced operations of a traced run are never recorded.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans whose layer is ``None`` are glue that belongs to no
layer: their self time is the operation's unattributed time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: (op id, span id of the innermost open span).  None outside any
#: traced operation.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "layerbench_span", default=None
)


@dataclass
class Span:
    id: int
    op: str
    name: str
    layer: str | None
    parent: int | None
    start: float
    end: float = 0.0


class Recorder:
    """In-memory spans and per-op counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: rb.upper per op, for ``bounds.upper_exact_ratio``.
        self.bounds_upper: dict[str, list] = defaultdict(list)
        #: traced op id -> root span id, so a server worker thread can
        #: hang its spans under the client's request.
        self.roots: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- operation scope ------------------------------------------------

    @contextlib.contextmanager
    def op(self, op: str, name: str = "op", layer: str | None = None):
        """Scope of one traced operation: its root span."""
        span = Span(next(self._ids), op, name, layer, None,
                    time.perf_counter())
        self.spans.append(span)
        self.roots[op] = span.id
        self.counts[op]  # every op gets a (possibly empty) count record
        token = _current.set((op, span.id))
        try:
            yield
        finally:
            span.end = time.perf_counter()
            _current.reset(token)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str | None, count=None,
              before=None, op_of=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if op_of is not None:
                op = op_of(args)
                if op not in rec.roots:
                    return fn(*args, **kwargs)
                token = _current.set((op, rec.roots[op]))
                try:
                    return record(*args, **kwargs)
                finally:
                    _current.reset(token)
            return record(*args, **kwargs)

        def record(*args, **kwargs):
            cur = _current.get()
            if cur is None:
                return fn(*args, **kwargs)
            op, parent = cur
            pre = before(args, kwargs) if before is not None else None
            span = Span(next(rec._ids), op, name, layer, parent,
                        time.perf_counter())
            token = _current.set((op, span.id))
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec.spans.append(span)
                _current.reset(token)
            if count is not None:
                count(rec, op, out, pre)
            return out

        return wrapper

    def patch_method(self, cls, attr: str, name: str, layer: str | None,
                     count=None, op_of=None) -> None:
        """Wrap method ``cls.attr`` (a classmethod stays one).  With
        ``op_of``, the call enters the op ``op_of(args)`` names, for
        entry points that run in another thread than the op began."""
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(raw.__func__, name, layer,
                                             count, op_of=op_of))
        else:
            wrapper = self._wrap(raw, name, layer, count, op_of=op_of)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, raw))

    def patch_function(self, fn, name: str, layer: str | None,
                       count=None, before=None) -> None:
        """Wrap a module-level function at every ``repro`` module that
        binds it, so ``from x import f`` call sites see the wrapper."""
        wrapper = self._wrap(fn, name, layer, count, before)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def layer_self_times(self) -> dict[str, dict[str | None, float]]:
        """Per traced op: layer -> summed self time (``None`` = glue)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            covered = _union_length(
                [(c.start, c.end) for c in children.get(s.id, ())],
                s.start, s.end,
            )
            out[s.op][s.layer] += (s.end - s.start) - covered
        return out

    def op_walls(self) -> dict[str, float]:
        return {
            s.op: s.end - s.start for s in self.spans if s.parent is None
        }


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


# -- count hooks: (recorder, op, wrapped call's result, before-hook value)


def _count_encode(rec, op, out, pre) -> None:
    # O(1) reads of what ProblemEncoding.formula_size() reports; that
    # call also walks every clause and would land in the op's glue time.
    sat = out[0].solver.sat
    counts = rec.counts[op]
    counts["encode.calls"] += 1
    counts["encode.clauses"] += sat.num_clauses()
    counts["encode.vars"] += sat.nvars


def _count_bounds(rec, op, out, pre) -> None:
    rec.bounds_upper[op].append(out[0].upper)


def _resumed_probes(args, kwargs) -> int:
    """Probes a resumed checkpoint holds before the search appends."""
    ckpt = kwargs.get("checkpoint")
    return len(ckpt.probes) if ckpt is not None and ckpt.started else 0


def _count_search(rec, op, out, old) -> None:
    fresh = out.probes[old:]
    rec.counts[op]["search.probes"] += len(fresh)
    rec.counts[op]["search.conflicts"] += sum(p.conflicts for p in fresh)


def _count_certify(rec, op, out, pre) -> None:
    rec.counts[op]["certify.proof_lines"] += out.proof_lines


def install(rec: Recorder) -> None:
    """Wrap the entry points of every layer a solve passes through."""
    import repro.analysis.feasibility as feasibility
    import repro.baselines.annealing  # noqa: F401 - binds check_allocation
    import repro.baselines.common  # noqa: F401
    import repro.baselines.greedy  # noqa: F401
    import repro.bounds.providers as providers
    import repro.core.allocator as allocator
    import repro.core.optimize as optimize
    from repro.certify.certifier import ProbeCertifier
    from repro.core.encoder import ProblemEncoding
    from repro.robust.checkpoint import SearchCheckpoint
    from repro.robust.supervisor import SolveSupervisor
    from repro.serve.server import AllocationServer

    # core.allocator: the solve glue itself belongs to no layer.
    rec.patch_method(allocator.Allocator, "minimize", "allocator", None)
    # core.encoder: the encoding of one system plus its cost function.
    rec.patch_method(allocator.Allocator, "_encode", "encode", "encode",
                     _count_encode)
    rec.patch_method(ProblemEncoding, "formula_size", "encode.size",
                     "encode")
    rec.patch_method(ProblemEncoding, "encode_stats", "encode.stats",
                     "encode")
    # bounds: provider proposals and their audits.
    rec.patch_function(providers.resolve_bounds, "bounds", "bounds",
                       _count_bounds)
    # core.optimize (+ sat): the BIN_SEARCH probes.
    rec.patch_function(optimize.bin_search, "search", "search",
                       _count_search, before=_resumed_probes)
    # certify: proof logging set-up, per-probe checks, finalisation.
    rec.patch_method(ProbeCertifier, "__init__", "certify.init", "certify")
    rec.patch_method(ProbeCertifier, "on_probe", "certify.probe", "certify")
    rec.patch_method(ProbeCertifier, "finalize", "certify.finalize",
                     "certify", _count_certify)
    # analysis: every independent feasibility check.
    rec.patch_function(feasibility.check_allocation, "verify", "verify")
    # robust: the supervisor and checkpoint persistence.
    rec.patch_method(SolveSupervisor, "solve", "supervisor", "supervisor")
    rec.patch_method(SearchCheckpoint, "save", "checkpoint.save",
                     "checkpoint")
    rec.patch_method(SearchCheckpoint, "load", "checkpoint.load",
                     "checkpoint")
    # serve: the worker-side handling of one request, which runs in a
    # server thread and joins its op through the request id.
    rec.patch_method(AllocationServer, "_solve_job", "serve.solve",
                     "serve", op_of=lambda args: args[1].id)
