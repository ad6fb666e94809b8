"""Process-parallel BIN_SEARCH: speculative probes + solver races.

The engine owns a fleet of probe workers arranged as ``groups x racers``:

- each *group* serves one probe at a time, and the groups' probes sit at
  the quantiles of the open interval (:class:`~repro.parallel_solve.
  plan.SpeculativeSearch` keeps the bookkeeping sound and sequential-
  equivalent);
- within a group, all *racers* solve the identical probe with diversified
  search heuristics (:mod:`repro.parallel_solve.race`); the first answer
  wins, the losers are cancelled, and short learnt clauses flow between
  the racers through bounded queues (verified and proof-logged on import,
  so ``--certify`` still checks).

Under the ``fork`` start method the workers inherit the parent's
finished encoding copy-on-write -- no per-worker encode cost and no
pickling; under ``spawn`` each worker rebuilds the (deterministic)
encoding from the serialized system.  The parent encoding is never
probed, so a respawned worker forks a pristine copy and replays the
group's probe history to realign guards with its surviving peers.

Fault handling: a worker death (EOF on its pipe) triggers a bounded
number of respawns; cancellation is cooperative with one solve-slice
latency; budget / time-limit expiry winds the fleet down gracefully and
reports an honest anytime bound (``proven`` False).  A worker whose
engine process died exits on its own (it polls for re-parenting).

Bounds providers (:mod:`repro.bounds`) join the fleet in two modes:
``bounds_mode="auto"`` resolves and audits them before the first
dispatch (an audited witness then replaces the unconstrained SOLVE);
``"race"`` runs the resolver as a sidecar thread whose audited bounds
tighten the shared interval mid-flight, cancelling probes they decide.
Either way the certified optimum is bit-identical to a cold run's.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait as conn_wait

from repro.chaos import chaos_point
from repro.core.optimize import (
    CHECKPOINT_FAILURE_LIMIT,
    OptimizationOutcome,
    ProbeLog,
)
from repro.parallel_solve.plan import ProbeSpec, SpeculativeSearch
from repro.parallel_solve.race import default_race_configs
from repro.parallel_solve.worker import WorkerSpec, probe_worker_main

__all__ = ["speculative_minimize"]

#: Hard cap on worker respawns per run (multiplied by the fleet size).
_RESPAWN_FACTOR = 2

#: Crashes after which one worker slot is quarantined for good: a slot
#: that keeps dying (bad core, poisoned inherited state, scheduled
#: chaos) must stop eating the global respawn budget.  With every slot
#: quarantined the engine reports "all probe workers failed" and the
#: supervisor chain degrades to the sequential single-process stages.
_CRASH_QUARANTINE = 3

#: Attempts (with backoff) to start one worker process before giving up
#: on that slot.
_SPAWN_ATTEMPTS = 3


@dataclass
class _Worker:
    """Parent-side handle for one probe worker process."""

    wid: int
    gid: int
    racer: int
    spec: WorkerSpec | None = None
    proc: object = None
    conn: object = None
    inbox: object = None
    peers: list = field(default_factory=list)
    conflicts: int = 0
    decisions: int = 0
    imported: int = 0
    rejected: int = 0
    proof_lines: int = 0


@dataclass
class _Group:
    """One probe slot: ``racers`` workers solving the same probe."""

    gid: int
    workers: list = field(default_factory=list)
    #: Probe currently being raced (None = idle or draining acks).
    spec: ProbeSpec | None = None
    #: Probe id the outstanding acks belong to.
    ack_pid: int | None = None
    #: Workers that still owe an ack (result / cancelled / death).
    pending: set = field(default_factory=set)
    #: True once the current probe is resolved (answer or cancel).
    answered: bool = False
    #: Bounds of all resolved probes, in dispatch order -- the history a
    #: respawned worker replays to realign its guard numbering.
    completed: list = field(default_factory=list)
    dead: bool = False

    @property
    def idle(self) -> bool:
        return self.spec is None and not self.pending and not self.dead


def speculative_minimize(allocator, objective, request):
    """Minimize ``objective`` with the parallel engine.

    ``allocator`` is a :class:`repro.core.allocator.Allocator`;
    ``request`` a :class:`repro.core.api.SolveRequest` whose
    ``effective_groups()`` / ``effective_racers()`` size the fleet.

    Returns the same :class:`~repro.core.allocator.AllocationResult` a
    sequential :meth:`Allocator.minimize` would -- bit-identical certified
    optimum, ``certificate`` populated when ``request.certify``.
    """
    ckpt = allocator._as_checkpoint(request.checkpoint)
    if ckpt is not None and ckpt.started:
        closed = (
            ckpt.feasible is False
            or (
                ckpt.left is not None
                and ckpt.right is not None
                and ckpt.left >= ckpt.right
            )
        )
        if closed:
            # Nothing left to parallelize; the sequential path also
            # handles the [R, R] re-certification corner.
            return allocator._minimize_incremental(
                objective, request, ckpt, proof_log=request.proof_log,
            )
    enc, cost_var, lb, ub, enc_secs = allocator._encode(objective)
    assert cost_var is not None
    budget = request.budget
    if budget is not None:
        budget.start()

    groups_n = request.effective_groups()
    racers_n = request.effective_racers()
    share = bool(request.share_clauses) and racers_n > 1
    race_cfgs = default_race_configs(racers_n)

    ctx = mp.get_context()
    use_fork = ctx.get_start_method() == "fork"
    if use_fork:
        blob = None
        enc_pack = (allocator.tasks, allocator.arch, enc, cost_var, lb)
    else:
        from repro.io import system_to_dict

        blob = system_to_dict(allocator.tasks, allocator.arch)
        enc_pack = None

    workers: dict[int, _Worker] = {}
    groups: dict[int, _Group] = {}
    wid = 0
    for g in range(groups_n):
        grp = _Group(gid=g)
        groups[g] = grp
        inboxes = [
            ctx.Queue(maxsize=512) if share else None
            for _ in range(racers_n)
        ]
        for r in range(racers_n):
            w = _Worker(wid=wid, gid=g, racer=r)
            w.inbox = inboxes[r]
            w.peers = [
                q for i, q in enumerate(inboxes) if i != r and q is not None
            ]
            w.spec = WorkerSpec(
                worker_id=wid,
                group=g,
                racer=r,
                system_blob=blob,
                config=allocator.config,
                objective=objective,
                certify=request.certify,
                share=share,
                share_max_len=request.share_max_len,
                race_config=race_cfgs[r],
                chaos=request.chaos,
            )
            grp.workers.append(wid)
            workers[wid] = w
            wid += 1

    search = SpeculativeSearch(lb, ub)
    out = OptimizationOutcome(feasible=False, optimum=None, proven=False)
    certificate = None
    if request.certify:
        from repro.certify import CertifiedResult

        certificate = CertifiedResult()
    best_blob: dict | None = None
    best_cost: int | None = None
    probe_group: dict[int, int] = {}
    conn_map: dict[object, _Worker] = {}
    respawns = 0
    respawn_cap = _RESPAWN_FACTOR * max(1, request.retries) * len(workers)
    crash_counts: dict[int, int] = {w: 0 for w in workers}
    quarantined: set[int] = set()
    spawn_failures = 0

    if ckpt is not None and ckpt.started:
        if ckpt.lower != lb or ckpt.upper != ub:
            raise ValueError(
                f"checkpoint range [{ckpt.lower}, {ckpt.upper}] "
                f"does not match this search's [{lb}, {ub}]"
            )
        out.resumed = True
        out.probes = [ProbeLog(**p) for p in ckpt.probes]
        out.feasible = True
        search.resume(ckpt.left, ckpt.right, True)
        if ckpt.payload:
            best_blob = dict(ckpt.payload)
            best_cost = search.right

    witness_seeded = False
    bounds_meta: dict = {}
    ckpt_failures = [0]  # consecutive failed saves

    def sync_checkpoint() -> None:
        if ckpt is None:
            return
        ckpt.lower, ckpt.upper = lb, ub
        ckpt.left = search.left
        ckpt.right = search.right
        ckpt.feasible = search.feasible
        ckpt.probes = [asdict(p) for p in out.probes]
        if best_blob:
            ckpt.payload = best_blob
        if ckpt.path is None:
            return
        try:
            ckpt.save()
        except OSError:
            # Same policy as the sequential search: persistence
            # degrades, the answer does not.
            out.checkpoint_errors += 1
            ckpt_failures[0] += 1
            if ckpt_failures[0] >= CHECKPOINT_FAILURE_LIMIT:
                ckpt.path = None
                out.checkpoint_disabled = True
        else:
            ckpt_failures[0] = 0

    def spawn(w: _Worker, history: list) -> bool:
        """Start one worker process; bounded retry with backoff on
        spawn failure (fork/pipe EAGAIN, injected ``worker.spawn``
        io-error).  False = the slot could not be started."""
        nonlocal conn_map, spawn_failures
        w.spec.history = list(history)
        for attempt in range(_SPAWN_ATTEMPTS):
            parent_conn = child_conn = None
            try:
                chaos_point("worker.spawn")
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=probe_worker_main,
                    args=(child_conn, w.spec, w.inbox, w.peers, enc_pack),
                    daemon=True,
                )
                proc.start()
            except OSError:
                spawn_failures += 1
                for c in (parent_conn, child_conn):
                    if c is not None:
                        try:
                            c.close()
                        except OSError:
                            pass
                time.sleep(0.02 * (2 ** attempt))
                continue
            # Close our copy of the child end NOW: later forks must not
            # inherit it, or a worker crash would never surface as EOF.
            child_conn.close()
            w.proc, w.conn = proc, parent_conn
            conn_map[parent_conn] = w
            return True
        w.proc = w.conn = None
        return False

    def safe_send(w: _Worker, msg) -> bool:
        if w.conn is None:
            return False
        try:
            w.conn.send(msg)
            return True
        except (OSError, ValueError):
            handle_death(w)
            return False

    def log_probe(spec: ProbeSpec, gid: int, *, payload=None, hit=None,
                  cancelled=False) -> None:
        out.probes.append(ProbeLog(
            lo=spec.lo,
            hi=spec.hi if spec.hi is not None else ub,
            sat=bool(payload and payload["sat"]),
            cost=payload["cost"] if payload else None,
            seconds=payload["seconds"] if payload else 0.0,
            conflicts=payload["conflicts"] if payload else 0,
            decisions=payload["decisions"] if payload else 0,
            speculative=True,
            hit=hit,
            cancelled=cancelled,
            group=gid,
        ))
        if certificate is not None:
            cert = payload["certificate"] if payload else None
            if cert is None:
                from repro.certify import ProbeCertificate

                cert = ProbeCertificate(
                    index=0, kind="skipped", ok=True,
                    detail="cancelled as obsolete" if cancelled else None,
                )
            cert.index = len(certificate.probes)
            certificate.add(cert)

    def cancel_probe(pid: int) -> None:
        """An in-flight probe became obsolete: cancel its group."""
        grp = groups[probe_group[pid]]
        if grp.spec is None or grp.spec.probe_id != pid:
            return
        spec = grp.spec
        search.on_cancelled(pid)
        grp.spec = None
        grp.answered = True
        grp.completed.append((spec.lo, spec.hi))
        for wid2 in list(grp.pending):
            safe_send(workers[wid2], ("cancel", pid))
        log_probe(spec, grp.gid, cancelled=True)

    def handle_death(w: _Worker, *, permanent: bool = False) -> None:
        nonlocal respawns
        if w.conn is not None:
            conn_map.pop(w.conn, None)
            try:
                w.conn.close()
            except OSError:
                pass
            w.conn = None
        if w.proc is not None:
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
        grp = groups[w.gid]
        grp.pending.discard(w.wid)
        crash_counts[w.wid] += 1
        if (
            not permanent
            and respawns < respawn_cap
            and crash_counts[w.wid] < _CRASH_QUARANTINE
        ):
            respawns += 1
            if spawn(w, grp.completed):
                if grp.spec is not None and not grp.answered:
                    # Rejoin the race on the probe still in flight.
                    grp.pending.add(w.wid)
                    safe_send(w, (
                        "probe", grp.spec.probe_id,
                        grp.spec.lo, grp.spec.hi, None,
                    ))
                return
        # No respawn (cap reached, quarantined, or the respawn itself
        # failed): the group shrinks; with no racer left it dies.
        quarantined.add(w.wid)
        if all(workers[x].conn is None for x in grp.workers):
            grp.dead = True
            if grp.spec is not None and not grp.answered:
                pid = grp.spec.probe_id
                spec = grp.spec
                search.on_cancelled(pid)
                grp.spec = None
                grp.answered = True
                log_probe(spec, grp.gid, cancelled=True)

    def handle_result(w: _Worker, pid: int, payload: dict) -> None:
        grp = groups[w.gid]
        w.conflicts += payload["conflicts"]
        w.decisions += payload["decisions"]
        w.imported = payload["imported"]
        w.rejected = payload["rejected"]
        w.proof_lines = max(w.proof_lines, payload["proof_lines"])
        if pid != grp.ack_pid:
            return  # stale answer for a long-resolved probe
        grp.pending.discard(w.wid)
        if grp.answered:
            return  # a peer racer already won this probe
        grp.answered = True
        spec = grp.spec
        grp.spec = None
        grp.completed.append((spec.lo, spec.hi))
        for wid2 in list(grp.pending):
            safe_send(workers[wid2], ("cancel", pid))
        hit, obsolete = search.on_result(pid, payload["sat"], payload["cost"])
        log_probe(spec, grp.gid, payload=payload, hit=hit)
        nonlocal best_blob, best_cost
        if payload["sat"] and payload["alloc"] is not None:
            if best_cost is None or payload["cost"] < best_cost:
                best_blob = payload["alloc"]
                best_cost = payload["cost"]
        for pid2 in obsolete:
            cancel_probe(pid2)
        if budget is not None:
            budget.step(
                conflicts=payload["conflicts"],
                decisions=payload["decisions"],
            )
        sync_checkpoint()

    def apply_bounds(rb, witness, meta) -> None:
        """Fold resolved (audited) bounds into the shared interval.

        Same sequential-equivalence rules as probe answers: an audited
        upper is a SAT answer whose witness the caller holds, a
        certified lower an UNSAT verdict for the region below it.
        In-flight probes the bounds decide are cancelled.  A bound that
        contradicts already-probed facts is dropped with a note (the
        probes win; the search stays sound either way).
        """
        nonlocal best_blob, best_cost, witness_seeded
        from repro.parallel_solve.plan import SearchInconsistency

        bounds_meta["mode"] = meta["mode"]
        bounds_meta["providers"] = meta["providers"]
        if meta.get("notes"):
            bounds_meta.setdefault("notes", []).extend(meta["notes"])
        upper = rb.upper if rb.upper is not None and lb <= rb.upper <= ub \
            else None
        floor = rb.lower if rb.lower is not None and rb.lower > lb else None
        if floor is not None:
            floor = min(floor, ub)
        applied: dict = {}
        obsolete: list[int] = []
        if upper is not None:
            try:
                obsolete += search.tighten_upper(upper)
            except SearchInconsistency as exc:
                bounds_meta.setdefault("notes", []).append(
                    f"audited upper dropped: {exc}"
                )
            else:
                applied["upper"] = upper
                if witness is not None and (
                    best_cost is None or upper < best_cost
                ):
                    from repro.io import allocation_to_dict

                    best_blob = allocation_to_dict(witness)
                    best_cost = upper
                    witness_seeded = True
        if floor is not None:
            try:
                obsolete += search.tighten_lower(floor)
            except SearchInconsistency as exc:
                bounds_meta.setdefault("notes", []).append(
                    f"certified floor dropped: {exc}"
                )
            else:
                applied["lower"] = floor
        if applied:
            bounds_meta["applied"] = {
                **bounds_meta.get("applied", {}), **applied,
            }
            if rb.provenance:
                bounds_meta["provenance"] = dict(rb.provenance)
        if certificate is not None and meta.get("audits"):
            from repro.certify import ProbeCertificate

            for a in meta["audits"]:
                certificate.add(ProbeCertificate(
                    index=len(certificate.probes),
                    kind="bounds",
                    ok=True,
                    detail=f"{a['provider']} {a['side']}: {a['detail']}",
                ))
        for pid2 in obsolete:
            cancel_probe(pid2)
        sync_checkpoint()

    racer = None
    bounds_mode = getattr(request, "bounds_mode", "auto")
    if (
        objective is not None
        and bounds_mode != "off"
        and not (ckpt is not None and ckpt.started)
    ):
        if bounds_mode == "race":
            # Sidecar racer: the fleet starts cold, the bounds arrive
            # mid-flight and tighten the shared interval.
            from repro.bounds.sidecar import BoundsRacer

            racer = BoundsRacer(
                allocator.tasks, allocator.arch, objective, request
            ).start()
        else:
            # "auto": resolve synchronously so the very first dispatch
            # already sees the audited interval (no unconstrained SOLVE
            # when an audited witness exists).
            from repro.bounds.providers import resolve_bounds

            rb, wit, meta = resolve_bounds(
                allocator.tasks, allocator.arch, objective, request
            )
            if meta.get("providers"):
                apply_bounds(rb, wit, meta)

    def dispatch() -> None:
        idle = [g for g in groups.values() if g.idle]
        if not idle:
            return
        for grp, spec in zip(idle, search.probe_points(len(idle))):
            probe_group[spec.probe_id] = grp.gid
            grp.spec = spec
            grp.ack_pid = spec.probe_id
            grp.answered = False
            grp.pending = set()
            for wid2 in grp.workers:
                if workers[wid2].conn is not None:
                    grp.pending.add(wid2)
                    safe_send(workers[wid2], (
                        "probe", spec.probe_id, spec.lo, spec.hi, None,
                    ))

    t0 = time.perf_counter()
    try:
        for w in workers.values():
            if not spawn(w, []):
                quarantined.add(w.wid)
        for grp in groups.values():
            if all(workers[x].conn is None for x in grp.workers):
                grp.dead = True
        while not search.done:
            if (
                request.time_limit is not None
                and time.perf_counter() - t0 > request.time_limit
            ):
                out.interrupted = True
                out.interrupt_reason = (
                    f"time limit ({request.time_limit:g}s) expired"
                )
                break
            if budget is not None and budget.expired():
                out.interrupted = True
                out.interrupt_reason = budget.expired_reason
                break
            if all(g.dead for g in groups.values()):
                out.interrupted = True
                out.interrupt_reason = "all probe workers failed"
                break
            if racer is not None and racer.done:
                got = racer.poll()
                if got is not None:
                    apply_bounds(*got)
                    if search.done:
                        break
                elif racer.error and "sidecar_error" not in bounds_meta:
                    bounds_meta["sidecar_error"] = racer.error
            dispatch()
            if search.done:
                break
            ready = conn_wait(list(conn_map.keys()), timeout=0.2)
            for conn in ready:
                w = conn_map.get(conn)
                if w is None:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    handle_death(w)
                    continue
                kind = msg[0]
                if kind == "ready":
                    continue
                if kind == "error":
                    handle_death(w)
                elif kind == "cancelled":
                    grp = groups[w.gid]
                    if msg[2] == grp.ack_pid:
                        grp.pending.discard(w.wid)
                elif kind == "result":
                    handle_result(w, msg[2], msg[3])
    finally:
        for w in workers.values():
            safe_send(w, ("stop",))
        for w in workers.values():
            if w.proc is not None:
                w.proc.join(timeout=2.0)
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
                    if w.proc.is_alive():
                        w.proc.kill()
                        w.proc.join()
            if w.conn is not None:
                conn_map.pop(w.conn, None)
                try:
                    w.conn.close()
                except OSError:
                    pass
                w.conn = None
            if w.inbox is not None:
                w.inbox.cancel_join_thread()
                w.inbox.close()

    if racer is not None and not racer.done:
        bounds_meta.setdefault("notes", []).append(
            "race: search closed before the bounds sidecar resolved"
        )
    out.feasible = search.feasible is True
    out.optimum = search.right
    out.proven = search.done and not out.interrupted
    out.seconds = time.perf_counter() - t0
    if bounds_meta:
        out.bounds.update(bounds_meta)
    sync_checkpoint()

    alloc = None
    certifier = None
    need_model = best_blob is None
    # A certified run whose optimum rests on a seeded bounds witness
    # (no SAT probe of its own) still owes the certificate a SAT audit
    # of the served model.
    need_audit = (
        certificate is not None
        and witness_seeded
        and not any(p.sat for p in out.probes)
    )
    if out.feasible and out.proven and (need_model or need_audit):
        # Closed without a SAT probe of its own (resumed checkpoint or
        # audited bounds witness): re-certify [R, R] on the (pristine)
        # parent encoding, exactly like bin_search does.
        certifier = _recertify(
            allocator, objective, enc, cost_var, lb, search.right, out,
            certificate is not None,
        )
        alloc = enc.decode()
        if certifier is not None and certifier.result.probes:
            cert = certifier.result.probes[-1]
            cert.index = len(certificate.probes)
            certificate.add(cert)
    elif best_blob is not None:
        from repro.io import allocation_from_dict

        alloc = allocation_from_dict(best_blob)

    if certificate is not None:
        certificate.proof_lines = sum(
            w.proof_lines for w in workers.values()
        )
        if certifier is not None:
            certificate.proof_lines += len(certifier.proof.steps)

    result = allocator._finish(
        enc, out, alloc, enc_secs, request.verify, certificate
    )
    stats = result.solver_stats
    stats["conflicts"] = stats.get("conflicts", 0) + sum(
        w.conflicts for w in workers.values()
    )
    stats["decisions"] = stats.get("decisions", 0) + sum(
        w.decisions for w in workers.values()
    )
    stats["imported_clauses"] = stats.get("imported_clauses", 0) + sum(
        w.imported for w in workers.values()
    )
    stats["rejected_imports"] = stats.get("rejected_imports", 0) + sum(
        w.rejected for w in workers.values()
    )
    stats["parallel"] = {
        "groups": groups_n,
        "racers": racers_n,
        "workers": len(workers),
        "respawns": respawns,
        "spawn_failures": spawn_failures,
        "quarantined_workers": sorted(quarantined),
        "speculative_hits": out.speculative_hits,
        "speculative_misses": out.speculative_misses,
        "cancelled_probes": out.cancelled_probes,
    }
    return result


def _recertify(allocator, objective, enc, cost_var, lb, optimum, out,
               certify):
    """Run the final [R, R] probe in-process on the parent encoding."""
    from repro.arith.ast import And

    certifier = None
    if certify:
        from repro.certify import ProbeCertifier

        certifier = ProbeCertifier(
            allocator.tasks, allocator.arch, enc, objective
        )
    guard = enc.solver.new_guard()
    parts = []
    if optimum > lb:
        parts.append(cost_var >= optimum)
    parts.append(cost_var <= optimum)
    enc.solver.require(
        And(*parts) if len(parts) > 1 else parts[0], guard=guard
    )
    t0 = time.perf_counter()
    c0 = enc.solver.stats.conflicts
    d0 = enc.solver.stats.decisions
    sat = enc.solver.solve(assumptions=[guard])
    if not sat:
        raise ValueError(
            "recorded state is inconsistent with the constraints: "
            f"optimum {optimum} (from a checkpoint or an audited bounds "
            "witness) is not satisfiable"
        )
    out.probes.append(ProbeLog(
        lo=optimum, hi=optimum, sat=True, cost=enc.solver.value(cost_var),
        seconds=time.perf_counter() - t0,
        conflicts=enc.solver.stats.conflicts - c0,
        decisions=enc.solver.stats.decisions - d0,
    ))
    if certifier is not None:
        certifier.on_probe(out.probes[-1], guard)
    return certifier
