"""Random-workload sweep: solver effort vs. system load.

Not a paper table -- supporting evidence for the paper's scaling story:
optimal allocation gets hard near the schedulability boundary (lightly
loaded systems are easy-SAT, overloaded ones are easy-UNSAT, the
in-between is where CDCL works).  Cells are independent, so the sweep
runs through the experiment fabric (:func:`repro.fabric.fabric_sweep`).
"""

from repro.fabric import fabric_sweep
from repro.reporting import ExperimentRow, format_table

# Worker must be importable/picklable: module-level function.


def _solve_cell(param):
    import time

    from repro.core import (Allocator, MinimizeSumResponseTimes,
                            SolveRequest)
    from repro.workloads import random_taskset, ring_architecture

    util, seed = param
    arch = ring_architecture(3)
    tasks = random_taskset(arch, 6, total_util=util, seed=seed)
    t0 = time.perf_counter()
    res = Allocator(tasks, arch).minimize(request=SolveRequest(
        objective=MinimizeSumResponseTimes(), time_limit=30.0
    ))
    return {
        "feasible": res.feasible,
        "cost": res.cost,
        "seconds": time.perf_counter() - t0,
        "conflicts": res.solver_stats["conflicts"],
        "encode_seconds": round(res.encode_seconds, 4),
        "solve_seconds": round(res.solve_seconds, 4),
        "cnf_vars": res.formula_size["bool_vars"],
        "cnf_clauses": res.formula_size["clauses"],
        "probes": res.outcome.num_probes if res.outcome else 0,
    }


def test_fabric_sweep_restores_cells(tmp_path, record_json):
    """The fabric-backed sweep survives a second run untouched: every
    cell is restored from the append-only store (identical values,
    including timings -- a re-solve could not reproduce those bits)."""
    cells = [(u, s) for u in (0.6, 1.6) for s in (0, 1)]
    fabric_dir = str(tmp_path / "fabric")

    first = fabric_sweep(_solve_cell, cells, fabric_dir=fabric_dir,
                         workers=2).results
    assert all(r.ok for r in first), [r.error for r in first if not r.ok]

    again = fabric_sweep(_solve_cell, cells, fabric_dir=fabric_dir,
                         workers=2).results
    assert [r.param for r in again] == [r.param for r in first]
    assert [r.value for r in again] == [r.value for r in first]
    record_json("fabric_sweep", {
        "cells": len(cells),
        "restored_identical": True,
    })


def test_utilization_sweep(benchmark, profile, record_table, record_json,
                           tmp_path):
    utils = (0.6, 1.2, 1.8) if profile.name == "ci" else (
        0.8, 1.2, 1.6, 2.0, 2.4, 2.8)
    seeds = (0, 1) if profile.name == "ci" else (0, 1, 2, 3)
    cells = [(u, s) for u in utils for s in seeds]

    results = benchmark.pedantic(
        lambda: fabric_sweep(_solve_cell, cells,
                             fabric_dir=str(tmp_path / "fabric"),
                             workers=2).results,
        rounds=1,
        iterations=1,
    )
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]

    rows = []
    by_util: dict[float, list] = {}
    for r in results:
        by_util.setdefault(r.param[0], []).append(r.value)
    feas_rate_prev = None
    for util in utils:
        vals = by_util[util]
        feas = sum(1 for v in vals if v["feasible"])
        secs = sum(v["seconds"] for v in vals) / len(vals)
        rows.append(
            ExperimentRow(
                label=f"U = {util:.1f} on 3 ECUs",
                result=f"{feas}/{len(vals)} feasible",
                seconds=secs,
                bool_vars=0,
                literals=0,
                extra={"avg_conflicts": sum(
                    v["conflicts"] for v in vals) // len(vals)},
            )
        )
        # Feasibility rate is non-increasing in load.
        rate = feas / len(vals)
        if feas_rate_prev is not None:
            assert rate <= feas_rate_prev + 1e-9
        feas_rate_prev = rate
    record_table(
        format_table("Random-workload sweep (load vs. effort)", rows)
    )
    record_json("sweep", {
        "profile": profile.name,
        "cells": [
            {"util": r.param[0], "seed": r.param[1], **r.value}
            for r in results
        ],
    })
