"""Layer-by-layer benchmark of the allocation solver.

Run from the root of a checkout:

    python3 layerbench/run.py --workload solve-fresh --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  See ``layerbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
WORK = ROOT / ".bench_build" / "layerbench"
#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 7
#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
WORKLOADS = ("solve-fresh", "solve-certified", "serve-replay")


def fail(message: str, code: int) -> None:
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(code)


def prepare_environment() -> None:
    """Point every temporary file (the compiled SAT core's cache, proof
    spools) into the checkout and pin the compiled core."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a checkout root", 2)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_SAT_BACKEND"] = "fast"
    import tempfile

    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))


def pin_fast_backend():
    """The compiled core or a loud exit: the pure core is ~5x slower and
    would silently change every timing."""
    from repro.sat.core import backend_status, get_backend, set_default_backend

    set_default_backend("fast")
    backend = get_backend("fast")
    if backend.name != "fast":
        fail("the compiled SAT core is unavailable: "
             f"{backend_status()['fast']['reason']}", 3)
    return backend


def setup(workload: str, seed: int, seconds: float):
    """Everything before the first operation: imports, the fast core,
    the inputs and, on serve-replay, a listening server."""
    pin_fast_backend()
    import workloads as wl

    if workload == "serve-replay":
        plan = wl.serve_plan(seed, seconds)
        harness = wl.ServeHarness(wl.new_state_dir(str(WORK)))
        harness.start()
        return plan, harness
    return wl.solve_plan(workload, seed, seconds), None


def setup_probe(args) -> None:
    """Child mode: set up, say "ready", wait for stdin to close, tear
    down.  The parent times spawn -> "ready"."""
    _plan, harness = setup(args.workload, args.seed, args.seconds)
    print("ready", flush=True)
    sys.stdin.read()
    if harness is not None:
        harness.stop()


def time_setups(args) -> list[float]:
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            fail(f"set-up probe failed (exit {proc.returncode})", 4)
        samples.append(elapsed)
    return samples


# -- running the plan ----------------------------------------------------


def traced_op(op) -> bool:
    """A traced run traces every other op of each table-4 cell (solve)
    or every other family of each client, the two clients out of phase
    (serve), so both halves hold the same mix.  Untraced ops fire no
    span or count hook; they are the baseline of trace.overhead_ratio."""
    import workloads as wl

    if isinstance(op, wl.SolveOp):
        cell = [name for name, *_ in wl.TABLE4].index(op.cell)
        return (op.round + cell) % 2 == 0
    return (op.client + op.family) % 2 == 0


def op_scope(rec, op, **span):
    """The op's scope in a traced run: its root span when traced."""
    if rec is None or not traced_op(op):
        return contextlib.nullcontext()
    return rec.op(op.id, **span)


def run_solves(plan, certify: bool, rec) -> list:
    import workloads as wl

    return [
        wl.run_solve_op(op, certify, functools.partial(op_scope, rec, op))
        for op in plan
    ]


def run_serve(plan, harness, rec) -> tuple[list, dict]:
    import workloads as wl

    replies: list = []
    scope = functools.partial(op_scope, rec, name="serve.request",
                              layer="serve")
    threads = [
        threading.Thread(
            target=wl.run_client,
            args=(harness.address, ops, replies, scope),
            name=f"client-{c}",
        )
        for c, ops in enumerate(plan)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
    if any(t.is_alive() for t in threads):
        fail("a serve client did not finish", 5)
    return wl.check_serve(plan, replies), harness.server.status()


# -- metrics -------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with
    TAIL_BEYOND samples above it.  Every plan holds more than twice
    that many ops, so the tail always lies above the median."""
    xs = sorted(latencies)
    if len(xs) <= 2 * TAIL_BEYOND:
        fail(f"{len(xs)} ops leave no tail above the median", 6)
    rank = len(xs) - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / len(xs)


def end_to_end(results, wall: float, setups: list[float]) -> dict:
    latencies = [r.latency for r in results]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail(latencies)[0], "s"),
        "throughput_ops_per_s": (len(results) / wall, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def med(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer(rec, results, serve_status, self_times) -> dict:
    traced = [r for r in results if r.id in rec.roots]
    untraced = [r for r in results if r.id not in rec.roots]

    def layer(name):
        return med(self_times[r.id].get(name, 0.0) for r in traced)

    def count(name):
        return med(rec.counts[r.id].get(name, 0) for r in traced)

    costs = {r.id: r.cost for r in results}
    uppers = [(op, u) for op, us in rec.bounds_upper.items() for u in us]
    serve = [r for r in results if "seconds" in r.extra]
    traced_serve = [r for r in serve if r.id in rec.roots]
    cache = (serve_status or {}).get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "encode.self_s": (layer("encode"), "s"),
        "encode.calls": (count("encode.calls"), "count"),
        "encode.clauses": (count("encode.clauses"), "count"),
        "encode.vars": (count("encode.vars"), "count"),
        "bounds.self_s": (layer("bounds"), "s"),
        "bounds.upper_exact_ratio": (
            sum(u is not None and u == costs.get(op) for op, u in uppers)
            / len(uppers) if uppers else 0.0, "ratio",
        ),
        "search.self_s": (layer("search"), "s"),
        "search.probes": (count("search.probes"), "count"),
        "search.conflicts": (count("search.conflicts"), "count"),
        "certify.self_s": (layer("certify"), "s"),
        "certify.proof_lines": (count("certify.proof_lines"), "count"),
        "verify.self_s": (layer("verify"), "s"),
        "supervisor.self_s": (layer("supervisor"), "s"),
        "checkpoint.self_s": (layer("checkpoint"), "s"),
        "serve.queue_wait_s": (
            med(r.latency - r.extra["seconds"] for r in serve), "s"),
        "serve.solve_s": (med(r.extra["seconds"] for r in serve), "s"),
        "serve.cache_hit_ratio": (
            cache.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "serve.resumed_ratio": (
            sum(r.extra["resumed"] for r in serve) / len(serve)
            if serve else 0.0, "ratio",
        ),
        "serve.encodes_per_request": (
            sum(rec.counts[r.id].get("encode.calls", 0)
                for r in traced_serve) / len(traced_serve)
            if traced_serve else 0.0, "count",
        ),
        "unattributed_s": (layer(None), "s"),
        "trace.overhead_ratio": (
            med(r.latency for r in traced) / med(r.latency for r in untraced),
            "ratio",
        ),
    }


def attribution(self_times, walls) -> dict:
    """Per traced op, layer self times + unattributed must add up to the
    op's wall time; report the worst gap and the unattributed share."""
    gaps, shares = [], []
    for op, wall in walls.items():
        layers = self_times[op]
        gaps.append(abs(sum(layers.values()) - wall))
        shares.append(layers.get(None, 0.0) / wall if wall else 0.0)
    return {"max_gap_s": max(gaps, default=0.0),
            "unattributed_share_p50": med(shares),
            "unattributed_share_max": max(shares, default=0.0)}


def deterministic_counts(rec, results) -> dict:
    """The counts the count check compares across two runs."""
    keys = ("encode.clauses", "encode.vars", "search.probes",
            "search.conflicts", "certify.proof_lines")
    out = {
        r.id: {k: rec.counts[r.id].get(k, 0) for k in keys}
        for r in results if r.id in rec.roots
    }
    for r in results:
        if "resumed" in r.extra:
            flags = out.setdefault(r.id, {})
            flags["serve.warm"] = int(r.extra["warm"])
            flags["serve.resumed"] = int(r.extra["resumed"])
    return out


def stamp(args, backend, n_ops: int, wall: float) -> dict:
    from repro.fabric.jobs import code_fingerprint

    commit = "unknown"  # an exported checkout has no .git to ask
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "code_fingerprint": code_fingerprint(),
        "backend": backend.name,
        "backend_library": backend.library_path,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "run_wall_s": wall,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    prepare_environment()
    if args.setup_probe:
        setup_probe(args)
        return

    # Untimed pre-step: compile (or reuse) the fast core's shared
    # library so a one-off build never lands inside a timed set-up.
    backend = pin_fast_backend()
    setups = time_setups(args)
    plan, harness = setup(args.workload, args.seed, args.seconds)

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    serve_status = None
    t0 = time.perf_counter()
    try:
        if harness is not None:
            results, serve_status = run_serve(plan, harness, rec)
        else:
            results = run_solves(
                plan, args.workload == "solve-certified", rec
            )
    finally:
        wall = time.perf_counter() - t0
        if harness is not None:
            harness.stop()
        if rec is not None:
            rec.uninstall()
    if serve_status is not None:
        breaker = serve_status["breaker"]
        if breaker["state"] != "closed" or breaker["trips"]:
            for r in results:
                r.ok, r.error = False, f"breaker tripped: {breaker}"

    failed = sum(not r.ok for r in results)
    _value, percentile = tail([r.latency for r in results])
    record = {
        "stamp": stamp(args, backend, len(results), wall),
        "tail": {"percentile": percentile, "samples_beyond": TAIL_BEYOND,
                 "samples": len(results)},
        "setup_samples_s": setups,
        "ops": [
            {"id": r.id, "kind": r.kind, "latency_s": r.latency,
             "ok": r.ok, "cost": r.cost, "error": r.error, **r.extra}
            for r in results
        ],
    }
    if rec is None:
        metrics = end_to_end(results, wall, setups)
    else:
        self_times, walls = rec.layer_self_times(), rec.op_walls()
        metrics = per_layer(rec, results, serve_status, self_times)
        record["attribution"] = attribution(self_times, walls)
        record["counts"] = deterministic_counts(rec, results)
        record["serve_status"] = serve_status
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{args.workload}-seed{args.seed}.jsonl",
                  "w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for r in results:
        if not r.ok:
            print(f"layerbench: op {r.id} failed: {r.error}",
                  file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"], "tail": record["tail"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
