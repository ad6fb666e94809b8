"""Inputs, fixed operation plans and answer checks of the three workloads.

Every plan is a pure function of (workload, seed, seconds): the seed
picks which task of a system gets its WCETs raised and by how much, the
seconds fix how many operations run.  Runs that pass the same seconds
execute the same count and mix of operations on every commit.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import random
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.bounds import RelaxationBoundsProvider
from repro.certify.audit import independent_cost
from repro.analysis.feasibility import check_allocation
from repro.core import MinimizeSumTRT, MinimizeTRT, SolveRequest, solve
from repro.core.objectives import objective_from_spec
from repro.io.json_codec import allocation_from_dict, system_to_dict
from repro.model.task import TaskSet
from repro.serve import AllocationServer, ServeConfig
from repro.serve.responses import ServeResponse
from repro.workloads import (
    architecture_a,
    architecture_b,
    architecture_c,
    architecture_c_can,
    tindell_partition,
)
from repro.workloads.scaling import ring_architecture, scaling_taskset

#: The table-4 cells: (name, architecture, objective factory).
TABLE4 = (
    ("A", architecture_a, MinimizeSumTRT),
    ("B", architecture_b, MinimizeSumTRT),
    ("C", architecture_c, MinimizeSumTRT),
    ("CAN", architecture_c_can, lambda: MinimizeTRT("lower")),
)
#: Tasks of each workload's systems (prefixes of the case study) and the
#: optima of the unperturbed cells.  10 tasks are the paper's table 4.
#: The certified ops use the 7-task prefix so that a 30-s run holds 36
#: of them; the proof check is still the larger part of each op.  Its
#: optima are those the seed commit proves, kept as a regression check.
SOLVE_TASKS = {"solve-fresh": 10, "solve-certified": 7}
OPTIMA = {
    10: {"A": 86, "B": 119, "C": 78, "CAN": 37},
    7: {"A": 85, "B": 117, "C": 77, "CAN": 37},
}

#: Nominal wall seconds of one round (one op per table-4 cell) on a
#: slow 2-CPU host; only turns ``--seconds`` into a fixed round count.
#: A host at full speed runs a round in a bit over half of this.
ROUND_SECONDS = {"solve-fresh": 2.7, "solve-certified": 3.3}
#: Nominal wall seconds of one serve family per client (5 requests),
#: on the same slow host.
FAMILY_SECONDS = 7.5
#: Request kinds of one serve family, in order.  Three variants put the
#: median inside one kind.
FAMILY_KINDS = ("fresh", "variant", "variant", "variant", "repeat")
DELTAS = (1, 2, 3)


def perturbed(base: TaskSet, changes: dict[int, int]) -> TaskSet:
    """``base`` with the WCETs of task index i raised by changes[i]."""
    return TaskSet(
        [
            dataclasses.replace(
                t, wcet={k: v + changes[i] for k, v in t.wcet.items()}
            ) if i in changes else t
            for i, t in enumerate(base)
        ],
        name=base.name,
    )


@dataclass
class OpResult:
    id: str
    kind: str
    latency: float
    ok: bool
    cost: int | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)


# -- solve-fresh / solve-certified ----------------------------------------


@dataclass
class SolveOp:
    id: str
    cell: str
    round: int
    tasks: TaskSet
    arch: object
    objective: object
    expected: int | None
    change: dict


def perturbations(rng: random.Random, n_tasks: int) -> list[tuple]:
    """Every (task, delta) pair once, in passes that each raise every
    task once, so any prefix spreads its ops evenly over the tasks and
    the seed only decides the order and which delta comes in which pass."""
    deltas = {j: rng.sample(DELTAS, len(DELTAS)) for j in range(n_tasks)}
    out = []
    for p in range(len(DELTAS)):
        out += [(j, deltas[j][p]) for j in rng.sample(range(n_tasks),
                                                      n_tasks)]
    return out


def solve_plan(workload: str, seed: int, seconds: float) -> list[SolveOp]:
    """Round-robin over the table-4 cells.  Round 0 is the unperturbed
    system of every cell; each later round raises one task's WCETs by
    1-3 ticks, a distinct (task, delta) per op, so no system repeats."""
    base = tindell_partition(SOLVE_TASKS[workload])
    optima = OPTIMA[len(base.tasks)]
    # At least 24 ops, so that the tail metric lies above the median.
    rounds = max(6, round(seconds / ROUND_SECONDS[workload]))
    rounds = min(rounds, 1 + len(DELTAS) * len(base.tasks))
    rng = random.Random(seed)
    picks = {name: perturbations(rng, len(base.tasks))
             for name, *_ in TABLE4}
    archs = {name: make() for name, make, _ in TABLE4}
    ops = []
    for r in range(rounds):
        for name, _make, objective in TABLE4:
            change = {} if r == 0 else dict([picks[name][r - 1]])
            ops.append(SolveOp(
                id=f"{name}-r{r}", cell=name, round=r,
                tasks=perturbed(base, change) if change else base,
                arch=archs[name], objective=objective(),
                expected=optima[name] if r == 0 else None, change=change,
            ))
    return ops


def check_answer(tasks, arch, objective, status, proven, cost,
                 allocation) -> str | None:
    """None when the answer is a proven optimum whose allocation passes
    the independent analysis at the claimed cost, else the reason."""
    if status != "optimal" or not proven:
        return f"status {status!r} proven={proven}"
    if allocation is None:
        return "no allocation"
    report = check_allocation(tasks, arch, allocation)
    if not report.schedulable:
        return f"allocation fails the analysis: {report.problems[:2]}"
    recomputed, _exact = independent_cost(tasks, arch, allocation, objective)
    if recomputed != cost:
        return f"claimed cost {cost} but allocation costs {recomputed}"
    return None


def run_solve_op(op: SolveOp, certify: bool,
                 scope=contextlib.nullcontext) -> OpResult:
    """Solve one op inside ``scope()`` (the traced run's op scope, which
    must not cover the answer check), then check the answer."""
    request = SolveRequest(
        objective=op.objective,
        bounds=(RelaxationBoundsProvider(),),
        certify=certify,
    )
    t0 = time.perf_counter()
    try:
        with scope():
            report = solve(op.tasks, op.arch, request)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op
        return OpResult(op.id, op.cell, time.perf_counter() - t0, False,
                        error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    error = check_answer(op.tasks, op.arch, op.objective, report.status,
                         report.proven, report.cost, report.allocation)
    if error is None and op.expected is not None and (
        report.cost != op.expected
    ):
        error = f"optimum {report.cost}, the cell expects {op.expected}"
    backend = (report.result.solver_stats or {}).get("backend")
    if error is None and backend != "fast":
        error = f"solved on the {backend!r} core"
    if error is None and certify and not (
        report.certificate is not None and report.certificate.all_verified
    ):
        error = "certificate not all_verified"
    return OpResult(op.id, op.cell, latency, error is None,
                    cost=report.cost, error=error)


# -- serve-replay ---------------------------------------------------------


SERVE_CLIENTS = 2
SERVE_OBJECTIVE = "trt:ring"
#: The serve systems: ring-5 with the 15-task scaling set, the
#: ``BENCH_serve`` family cut from 20 tasks so that each client gets 20
#: requests through in a 30-s run.
SERVE_ECUS, SERVE_TASKS = 5, 15


@dataclass
class ServeOp:
    id: str
    client: int
    family: int
    kind: str
    tasks: TaskSet
    line: bytes
    first: str | None = None  # id of the answer a repeat must match


def serve_plan(seed: int, seconds: float) -> list[list[ServeOp]]:
    """One op list per client.  A family is one scenario of its client:
    a fresh system, three variants of it (a second task's WCETs raised)
    and an exact repeat of the fresh system.  No system is shared
    between families or clients, so cache hits and checkpoint resumes
    do not depend on thread timing."""
    arch = ring_architecture(SERVE_ECUS)
    base = scaling_taskset(SERVE_ECUS, SERVE_TASKS)
    # At least 30 requests, so that the tail lies above the median.
    families = max(3, round(seconds / FAMILY_SECONDS))
    families = min(families, (len(base.tasks) - 3) // SERVE_CLIENTS)
    n_fam = SERVE_CLIENTS * families
    rng = random.Random(seed)
    order = list(range(len(base.tasks)))
    rng.shuffle(order)
    fresh_tasks, pool = order[:n_fam], order[n_fam:]
    plans: list[list[ServeOp]] = []
    for c in range(SERVE_CLIENTS):
        ops: list[ServeOp] = []
        for f in range(families):
            g = c * families + f
            scenario = f"client{c}-family{f}"
            change = {fresh_tasks[g]: rng.choice(DELTAS)}
            variant_tasks = rng.sample(pool, 3)
            systems = [perturbed(base, change)]
            systems += [
                perturbed(base, {**change, j: rng.choice(DELTAS)})
                for j in variant_tasks
            ]
            systems.append(systems[0])
            first = None
            for i, (kind, tasks) in enumerate(zip(FAMILY_KINDS, systems)):
                rid = f"c{c}-f{f}-{i}-{kind}"
                payload = {
                    "id": rid, "scenario": scenario,
                    "system": system_to_dict(tasks, arch),
                    "objective": SERVE_OBJECTIVE,
                    "return_allocation": True,
                }
                line = (json.dumps(payload) + "\n").encode()
                ops.append(ServeOp(rid, c, f, kind, tasks, line,
                                   first if kind == "repeat" else None))
                if kind == "fresh":
                    first = rid
        plans.append(ops)
    return plans


class ServeHarness:
    """An in-process AllocationServer (default ServeConfig) behind its
    TCP front end, on an event loop in a background thread."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.loop = asyncio.new_event_loop()
        self.server = AllocationServer(ServeConfig(state_dir=state_dir))
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="serve-loop", daemon=True
        )
        self.address = None

    def start(self) -> None:
        self.thread.start()

        async def up():
            await self.server.start()
            return await self.server.start_tcp("127.0.0.1", 0)

        self.address = asyncio.run_coroutine_threadsafe(
            up(), self.loop
        ).result(timeout=60)

    def stop(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self.loop
            ).result(timeout=120)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            if not self.thread.is_alive():
                self.loop.close()
            shutil.rmtree(self.state_dir, ignore_errors=True)


def run_client(address, ops: list[ServeOp], out: list,
               scope=lambda op: contextlib.nullcontext()) -> None:
    """Closed loop over one connection: send, wait for the reply, send
    the next.  Clients do not wait for each other."""
    try:
        sock = socket.create_connection(address, timeout=170)
    except OSError as exc:
        for op in ops:
            out.append((op, 0.0, None, f"connect: {exc}"))
        return
    with sock, sock.makefile("rb") as reader:
        for op in ops:
            t0 = time.perf_counter()
            try:
                with scope(op):
                    sock.sendall(op.line)
                    reply = reader.readline()
                latency = time.perf_counter() - t0
                if not reply:
                    raise ConnectionError("server closed the connection")
                resp = ServeResponse.from_dict(json.loads(reply))
                out.append((op, latency, resp, None))
            except (OSError, ValueError) as exc:
                out.append((op, time.perf_counter() - t0, None,
                            f"{type(exc).__name__}: {exc}"))


def envelope(resp: ServeResponse | None) -> tuple | None:
    """The part of an answer an exact repeat must reproduce bit for bit
    (the allocation may be another equally optimal one)."""
    if resp is None:
        return None
    return (resp.kind, resp.status, resp.cost, resp.proven, resp.certified)


def check_serve(plan: list[list[ServeOp]], replies: list) -> list[OpResult]:
    """Turn raw replies into checked OpResults (in plan order)."""
    arch = ring_architecture(SERVE_ECUS)
    objective = objective_from_spec(SERVE_OBJECTIVE)
    by_id = {op.id: (op, lat, resp, err) for op, lat, resp, err in replies}
    results = []
    for op in (op for ops in plan for op in ops):
        if op.id not in by_id:
            results.append(OpResult(op.id, op.kind, 0.0, False,
                                    error="no reply"))
            continue
        _, latency, resp, error = by_id[op.id]
        extra = {"client": op.client, "family": op.family}
        if error is None and resp.kind != "ok":
            error = f"{resp.kind}: {resp.detail}"
        if error is None:
            extra.update(seconds=resp.seconds, warm=resp.warm,
                         resumed=resp.resumed)
            alloc = (allocation_from_dict(resp.allocation)
                     if resp.allocation else None)
            error = check_answer(op.tasks, arch, objective, resp.status,
                                 resp.proven, resp.cost, alloc)
        if error is None and op.first is not None:
            first = by_id.get(op.first, (None, 0, None, None))[2]
            if envelope(first) != envelope(resp):
                error = (f"repeat answered {envelope(resp)}, first answer "
                         f"was {envelope(first)}")
        results.append(OpResult(
            op.id, op.kind, latency, error is None,
            cost=resp.cost if resp is not None else None,
            error=error, extra=extra,
        ))
    return results


def new_state_dir(root: str) -> str:
    path = os.path.join(root, "state", f"{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path
