"""Reference RUP checker: the differential oracle for
:class:`repro.certify.drup.RupChecker`.

This is the deliberately simple checker the certification layer used
before it moved to watched literals: every RUP check re-propagates all
unit clauses from an empty assignment over occurrence lists and rescans
whole clauses.  It is slow but obviously a unit-propagation fixpoint,
which makes it a good oracle: ``tests/test_certify_differential.py``
requires the watched-literal checker to agree with it on every
accept/reject and every ``check_assumptions`` verdict.  Test-only; no
program code imports it.
"""

from __future__ import annotations

from repro.certify.drup import ProofError

__all__ = ["ReferenceRupChecker"]


class ReferenceRupChecker:
    """Occurrence-list RUP checker over a clause + PB database.

    Literals are signed non-zero integers (DIMACS convention).  Feed
    proof lines with :meth:`add_line`; each addition line is checked on
    arrival and a failure raises :class:`ProofError` -- a fully fed proof
    is therefore already verified step by step.
    """

    def __init__(self) -> None:
        #: Clause database; deleted slots become None.
        self.clauses: list[list[int] | None] = []
        self._by_key: dict[tuple[int, ...], list[int]] = {}
        #: Occurrence lists: asserted literal -> clause indices that
        #: contain its negation (i.e. clauses losing a literal).
        self._occ: dict[int, list[int]] = {}
        #: PB database: (lits, coefs, bound) with ``sum >= bound``.
        self.pbs: list[tuple[list[int], list[int], int]] = []
        self._pb_occ: dict[int, list[int]] = {}
        #: Literals of unit clauses plus statically forced PB literals --
        #: the propagation seed of every check.
        self._units: list[int] = []
        #: True once the database contains the empty clause.
        self.contradiction = False
        self.stats = {
            "inputs": 0,
            "pb_inputs": 0,
            "additions": 0,
            "deletions": 0,
            "rup_checks": 0,
            "assumption_checks": 0,
            "propagations": 0,
        }

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_lits(tokens: list[str], line: str) -> list[int]:
        try:
            nums = [int(t) for t in tokens]
        except ValueError:
            raise ProofError(f"non-integer literal in {line!r}") from None
        if not nums or nums[-1] != 0:
            raise ProofError(f"missing terminating 0 in {line!r}")
        nums.pop()
        if any(n == 0 for n in nums):
            raise ProofError(f"embedded 0 in {line!r}")
        return nums

    def add_line(self, line: str) -> None:
        """Parse and apply one proof line (additions are RUP-checked)."""
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            return
        head = tokens[0]
        if head == "i":
            lits = self._parse_lits(tokens[1:], line)
            self.stats["inputs"] += 1
            self._store_clause(lits)
        elif head == "b":
            body = self._parse_lits(tokens[1:], line)
            if not body:
                raise ProofError(f"empty PB constraint in {line!r}")
            bound, rest = body[0], body[1:]
            if len(rest) % 2:
                raise ProofError(f"odd coef/literal list in {line!r}")
            coefs = rest[0::2]
            lits = rest[1::2]
            if any(c <= 0 for c in coefs):
                raise ProofError(f"non-positive PB coefficient in {line!r}")
            self.stats["pb_inputs"] += 1
            self._store_pb(lits, coefs, bound)
        elif head == "d":
            lits = self._parse_lits(tokens[1:], line)
            self.stats["deletions"] += 1
            self._delete_clause(lits, line)
        else:
            lits = self._parse_lits(tokens, line)
            self.stats["additions"] += 1
            self.stats["rup_checks"] += 1
            if not self._propagate([-l for l in lits]):
                raise ProofError(
                    f"addition {lits} is not a reverse-unit-propagation "
                    "consequence of the database"
                )
            self._store_clause(lits)

    # ------------------------------------------------------------------
    # Database maintenance
    # ------------------------------------------------------------------

    def _store_clause(self, lits: list[int]) -> None:
        lits = list(dict.fromkeys(lits))  # drop duplicate literals
        if not lits:
            self.contradiction = True
            return
        idx = len(self.clauses)
        self.clauses.append(lits)
        self._by_key.setdefault(tuple(sorted(lits)), []).append(idx)
        if len(lits) == 1:
            self._units.append(lits[0])
        for lit in lits:
            self._occ.setdefault(-lit, []).append(idx)

    def _store_pb(self, lits: list[int], coefs: list[int], bound: int) -> None:
        idx = len(self.pbs)
        self.pbs.append((list(lits), list(coefs), bound))
        for lit in lits:
            self._pb_occ.setdefault(-lit, []).append(idx)
        # Static consequences under the empty assignment.
        slack = sum(coefs) - bound
        if slack < 0:
            self.contradiction = True
            return
        for lit, coef in zip(lits, coefs):
            if coef > slack:
                self._units.append(lit)

    def _delete_clause(self, lits: list[int], line: str) -> None:
        key = tuple(sorted(dict.fromkeys(lits)))
        idxs = self._by_key.get(key)
        if not idxs:
            raise ProofError(f"deletion of clause not in database: {line!r}")
        idx = idxs.pop()
        clause = self.clauses[idx]
        self.clauses[idx] = None
        if clause is not None and len(clause) == 1:
            self._units.remove(clause[0])

    # ------------------------------------------------------------------
    # Unit propagation (clauses + PB)
    # ------------------------------------------------------------------

    def _propagate(self, seed: list[int]) -> bool:
        """Assert ``seed`` literals, propagate to fixpoint; True iff a
        conflict is derived (the database refutes the seed)."""
        if self.contradiction:
            return True
        val: dict[int, bool] = {}
        queue: list[int] = []

        def assign(lit: int) -> bool:
            """Record ``lit`` true; True when it contradicts a prior
            assignment (i.e. an immediate conflict)."""
            var = abs(lit)
            want = lit > 0
            prev = val.get(var)
            if prev is None:
                val[var] = want
                queue.append(lit)
                return False
            return prev is not want

        for lit in self._units:
            if assign(lit):
                return True
        for lit in seed:
            if assign(lit):
                return True
        clauses = self.clauses
        pbs = self.pbs
        occ = self._occ
        pb_occ = self._pb_occ
        head = 0
        while head < len(queue):
            lit = queue[head]
            head += 1
            for idx in occ.get(lit, ()):
                clause = clauses[idx]
                if clause is None:
                    continue
                unassigned = None
                free = 0
                satisfied = False
                for q in clause:
                    have = val.get(abs(q))
                    if have is None:
                        free += 1
                        if free > 1:
                            break
                        unassigned = q
                    elif have is (q > 0):
                        satisfied = True
                        break
                if satisfied or free > 1:
                    continue
                if free == 0:
                    self.stats["propagations"] += head
                    return True
                assert unassigned is not None
                if assign(unassigned):
                    self.stats["propagations"] += head
                    return True
            for idx in pb_occ.get(lit, ()):
                plits, coefs, bound = pbs[idx]
                slack = -bound
                for q, c in zip(plits, coefs):
                    have = val.get(abs(q))
                    if have is None or have is (q > 0):
                        slack += c
                if slack < 0:
                    self.stats["propagations"] += head
                    return True
                for q, c in zip(plits, coefs):
                    if c > slack and val.get(abs(q)) is None:
                        if assign(q):
                            self.stats["propagations"] += head
                            return True
        self.stats["propagations"] += head
        return False

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def check_assumptions(self, assumptions: list[int]) -> bool:
        """True when the database is unsatisfiable under the assumption
        literals by unit propagation alone.  With a fully fed proof of an
        UNSAT probe this closes the argument: the solver's core clause
        (or the empty clause) is in the database, so propagation refutes
        the probe's assumptions."""
        self.stats["assumption_checks"] += 1
        return self._propagate(list(assumptions))

    def input_formula(self) -> tuple[list[list[int]], list[tuple]]:
        """The *current* database split as (clauses, pb constraints) --
        used by tests to cross-check verdicts against a brute-force
        oracle."""
        cls = [list(c) for c in self.clauses if c is not None]
        return cls, [tuple(p) for p in self.pbs]
