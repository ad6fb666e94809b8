"""Count check: one workload, run twice with the same seed, must repeat
its deterministic counts exactly.

    python3 layerbench/countcheck.py --workload solve-fresh --seed 1

Compared per traced operation: encode.clauses, encode.vars, search.probes,
search.conflicts, certify.proof_lines and, on serve-replay, the warm and
resumed flags; per run: the serve cache hits and misses.  Exits 0 when
both runs agree and every operation of both was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
RESULTS = Path.cwd() / ".bench_build" / "layerbench" / "results"


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"countcheck: run failed (exit {proc.returncode})")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace1.json").read_text()
    )
    cache = (record.get("serve_status") or {}).get("cache", {})
    return {
        "correct": summary["correct"],
        "ops": record["counts"],
        "cache": {k: cache.get(k) for k in ("hits", "misses")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    mismatches = []
    for op in sorted(set(first["ops"]) | set(second["ops"])):
        a, b = first["ops"].get(op), second["ops"].get(op)
        if a != b:
            mismatches.append(f"{op}: {a} != {b}")
    if first["cache"] != second["cache"]:
        mismatches.append(f"serve cache: {first['cache']} != "
                          f"{second['cache']}")
    for m in mismatches:
        print(f"countcheck: {m}", file=sys.stderr)
    ok = not mismatches and first["correct"] and second["correct"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "ops": len(first["ops"]), "counts_match": not mismatches,
        "correct": first["correct"] and second["correct"],
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
