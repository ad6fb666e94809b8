"""Per-probe certification wired into the binary search.

:class:`ProbeCertifier` attaches to one *incremental* BIN_SEARCH run: it
starts proof logging on the shared CDCL engine, and after every probe
either

- **UNSAT** -- feeds the proof steps logged since the last probe to an
  independent :class:`repro.certify.drup.RupChecker` (each learnt clause
  is RUP-checked on arrival) and requires the checker to refute the
  probe's guard assumption by unit propagation, or
- **SAT** -- re-checks the model against every original constraint
  (:meth:`Solver.check_model`, plain evaluation, no propagation code),
  decodes the allocation and audits it with
  :func:`repro.certify.audit.audit_witness`.

Interrupted probes answered nothing, so they are recorded as
``skipped``.  The rebuild strategy (fresh solver per probe) uses the
stateless helpers :func:`certify_sat_probe` / :func:`certify_unsat_probe`
instead.
"""

from __future__ import annotations

import time

from repro.certify.audit import audit_witness
from repro.certify.drup import ProofError, RupChecker
from repro.certify.result import CertifiedResult, ProbeCertificate
from repro.sat.literals import to_dimacs
from repro.sat.proof import format_step

__all__ = [
    "ProbeCertifier",
    "certify_sat_probe",
    "certify_unsat_probe",
]


def _audit_sat(tasks, arch, enc, objective, claimed_cost, index):
    """Shared SAT-side certification: model re-check + witness audit."""
    t0 = time.perf_counter()
    problems: list[str] = []
    if not enc.solver.sat.check_model():
        problems.append("model violates an original clause/PB constraint")
    alloc = enc.decode()
    report = audit_witness(
        tasks, arch, alloc, objective=objective, claimed_cost=claimed_cost
    )
    problems.extend(report.problems)
    return ProbeCertificate(
        index=index,
        kind="sat",
        ok=not problems,
        detail="; ".join(problems) or None,
        claimed_cost=claimed_cost,
        recomputed_cost=report.recomputed_cost,
        seconds=time.perf_counter() - t0,
    )


class ProbeCertifier:
    """Certify every probe of one incremental binary search.

    ``spool`` (a :class:`repro.certify.proofio.ProofSpool`) persists the
    proof to disk as crash-safe length-prefixed records alongside the
    in-memory check; artifact damage that the spool cannot repair marks
    the whole certificate unverified (``proof_artifact_ok``) -- the
    in-memory verdicts stay intact for diagnosis, but a run must never
    report "certified" next to a corrupt artifact.
    """

    def __init__(self, tasks, arch, enc, objective=None, spool=None):
        self.tasks = tasks
        self.arch = arch
        self.enc = enc
        self.objective = objective
        self.proof = enc.solver.sat.start_proof()
        self.checker = RupChecker()
        self._fed = 0
        self.spool = spool
        self.result = CertifiedResult()
        if spool is not None:
            self.result.proof_artifact = spool.path

    # -- bin_search hook ------------------------------------------------

    def on_probe(self, probe, guard) -> None:
        """Callback invoked by :func:`repro.core.optimize.bin_search`
        after each probe, while the probe's model (if SAT) is loaded."""
        index = len(self.result.probes)
        if probe.interrupted:
            self.result.add(
                ProbeCertificate(index=index, kind="skipped", ok=True)
            )
            return
        if probe.sat:
            self.result.add(
                _audit_sat(
                    self.tasks, self.arch, self.enc, self.objective,
                    probe.cost, index,
                )
            )
            return
        self.result.add(self._check_unsat(index, guard))

    # -- UNSAT side -----------------------------------------------------

    def _check_unsat(self, index: int, guard) -> ProbeCertificate:
        t0 = time.perf_counter()
        checked0 = self.checker.stats["rup_checks"]
        detail = None
        try:
            self._feed()
            glit = to_dimacs(self.enc.solver._assumption_lit(guard))
            ok = self.checker.check_assumptions([glit])
            if not ok:
                detail = (
                    "proof does not refute the probe's guard assumption"
                )
        except ProofError as exc:
            ok = False
            detail = f"proof check failed: {exc}"
        return ProbeCertificate(
            index=index,
            kind="unsat",
            ok=ok,
            detail=detail,
            proof_steps_checked=(
                self.checker.stats["rup_checks"] - checked0
            ),
            seconds=time.perf_counter() - t0,
        )

    def _feed(self) -> None:
        """Feed proof steps logged since the last check to the checker
        through the *text* interface -- the same path a file-based
        offline check would take -- and mirror them to the on-disk
        spool (verified appends; see :mod:`repro.certify.proofio`)."""
        steps = self.proof.steps
        if self._fed >= len(steps):
            return
        lines = [format_step(s) for s in steps[self._fed:]]
        self._fed = len(steps)
        for line in lines:
            self.checker.add_line(line)
        if self.spool is not None and self.result.proof_artifact_ok:
            try:
                self.spool.append(lines)
            except OSError as exc:
                # ProofArtifactError subclasses RuntimeError, OSError
                # covers the raw-IO failures; both condemn the artifact.
                self.result.proof_artifact_ok = False
                self.result.proof_artifact_error = str(exc)
            except Exception as exc:  # noqa: BLE001 - artifact boundary
                self.result.proof_artifact_ok = False
                self.result.proof_artifact_error = str(exc)

    # -- wrap-up --------------------------------------------------------

    def finalize(self) -> CertifiedResult:
        # Flush trailing proof steps (logged after the last UNSAT check)
        # so the on-disk artifact holds the *complete* proof.  Their
        # RUP checks count as proof checking.
        t0 = time.perf_counter()
        checked0 = self.checker.stats["rup_checks"]
        try:
            self._feed()
        except ProofError as exc:
            # A trailing lemma that fails its check condemns the whole
            # certificate; it must not take the solve down.
            self.result.add(ProbeCertificate(
                index=len(self.result.probes), kind="unsat", ok=False,
                detail=f"trailing proof step failed check: {exc}",
            ))
        self.result.check_seconds += time.perf_counter() - t0
        self.result.proof_steps_checked += (
            self.checker.stats["rup_checks"] - checked0
        )
        self.result.proof_lines = len(self.proof.steps)
        if self.spool is not None:
            self.result.proof_repairs = self.spool.repairs
            self.spool.close()
        return self.result


def certify_sat_probe(
    tasks, arch, enc, objective=None, claimed_cost=None, index=0
) -> ProbeCertificate:
    """Certify one satisfiable probe of a fresh (rebuild) solver."""
    return _audit_sat(tasks, arch, enc, objective, claimed_cost, index)


def certify_unsat_probe(enc, index=0) -> tuple[ProbeCertificate, int]:
    """Certify one unsatisfiable probe of a fresh (rebuild) solver.

    The probe ran without assumptions, so the proof must establish
    outright unsatisfiability.  Returns ``(certificate, proof_lines)``.
    """
    t0 = time.perf_counter()
    proof = enc.solver.sat.proof
    if proof is None:
        return (
            ProbeCertificate(
                index=index, kind="unsat", ok=False,
                detail="no proof was logged for this probe",
            ),
            0,
        )
    checker = RupChecker()
    detail = None
    try:
        for line in proof.lines():
            checker.add_line(line)
        ok = checker.check_assumptions([])
        if not ok:
            detail = "proof does not establish unsatisfiability"
    except ProofError as exc:
        ok = False
        detail = f"proof check failed: {exc}"
    cert = ProbeCertificate(
        index=index,
        kind="unsat",
        ok=ok,
        detail=detail,
        proof_steps_checked=checker.stats["rup_checks"],
        seconds=time.perf_counter() - t0,
    )
    return cert, len(proof.steps)
