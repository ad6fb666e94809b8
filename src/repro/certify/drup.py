"""Standalone reverse-unit-propagation (RUP) proof checker.

Verifies the DRUP-style proofs emitted by
:class:`repro.sat.proof.ProofLog` **without importing any of the
solver's propagation code**: this module depends on nothing but the
standard library, works on the text form of the proof (signed DIMACS
integers), and implements its own unit propagation over clauses and
pseudo-Boolean constraints.

A proof is a sequence of lines:

- ``i <lits> 0``                 input clause (axiom),
- ``b <bound> (<coef> <lit>)* 0``  input PB constraint
  ``sum coef*lit >= bound`` (axiom),
- ``<lits> 0``                   addition: the clause must be *RUP* --
  asserting the negation of every literal and unit-propagating over the
  current database must yield a conflict,
- ``d <lits> 0``                 deletion of a previously added clause
  (matched as a literal multiset; watched-literal solvers permute clause
  literals in place),
- ``c ...``                      comment.

Propagation follows DRAT-trim (Wetzler, Heule & Hunt, SAT 2014):

- every clause of two or more literals is watched on its first two
  positions; the watches live in per-literal lists and move in place;
- unit clauses and everything they imply form a persistent *level-0
  trail*, propagated once, lazily, before the next check.  Each RUP or
  assumption check assigns its literals on top of that trail,
  propagates, and undoes back to it;
- deleting a clause that is the reason of a level-0 literal (or any
  deletion while level 0 is in conflict) rebuilds level 0 from the
  surviving unit clauses and PB constraints, so every verdict stays a
  verdict about the current database (:meth:`RupChecker.input_formula`).

PB propagation mirrors the engine's counter-based rule: with ``slack =
(max achievable LHS over non-false literals) - bound``, ``slack < 0`` is
a conflict and an unassigned literal with ``coef > slack`` is forced
true.  A PB constraint is re-evaluated whenever one of its literals
becomes false.  Every check propagates to fixpoint, so the checker is at
least as strong as the solver's watch-driven propagation and every
honestly derived clause checks -- while soundness (an accepted addition
really is implied) holds independently of anything the solver did.

After feeding a proof, :meth:`RupChecker.check_assumptions` decides
"database UNSAT under these assumption literals by unit propagation
alone" -- the final verdict for one binary-search probe.
"""

from __future__ import annotations

__all__ = ["ProofError", "RupChecker", "check_proof_lines"]


class ProofError(ValueError):
    """A proof line is malformed or an addition fails its RUP check."""


class RupChecker:
    """Incremental RUP checker over a clause + PB database.

    Literals are signed non-zero integers (DIMACS convention).  Feed
    proof lines with :meth:`add_line`; each addition line is checked on
    arrival and a failure raises :class:`ProofError` -- a fully fed proof
    is therefore already verified step by step.

    Per-literal tables (values, reasons, watches, PB occurrences) are
    plain lists indexed by the signed literal itself: ``+v`` lands at
    index ``v`` and ``-v`` at ``len - v`` through Python's negative
    indexing, so a table of length ``2 * nvars + 1`` holds both
    polarities of every variable with no index arithmetic in the
    propagation loop.
    """

    def __init__(self) -> None:
        #: Clause database; deleted slots become None.  Clauses of two
        #: or more literals are permuted in place as their watches move.
        self.clauses: list[list[int] | None] = []
        #: PB database: (lits, coefs, bound) with ``sum >= bound``.
        self.pbs: list[tuple[list[int], list[int], int]] = []
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
        self._nvars = 0
        #: literal -> 1 true, -1 false, 0 unassigned.
        self._val: list[int] = [0]
        #: true literal -> the clause that implied it (None: assumed,
        #: or forced by a PB constraint, which is never deleted).
        self._reason: list[list[int] | None] = [None]
        #: literal -> clauses watching it (visited when it turns false).
        self._watch: list[list[list[int]]] = [[]]
        #: literal -> PB indices containing its negation (visited when
        #: it turns true, i.e. when a PB literal turns false).
        self._pb_occ: list[list[int]] = [[]]
        #: Live and deleted unit clauses (deleted ones are emptied).
        self._units: list[list[int]] = []
        #: sorted literal tuple -> clause indices; built on the first
        #: deletion, maintained from then on.
        self._by_key: dict[tuple[int, ...], list[int]] | None = None
        #: The level-0 trail: literals true under the database alone.
        self._trail: list[int] = []
        #: Level-0 work not yet propagated: clauses whose first literal
        #: is the last non-false one (unit clauses, and clauses that
        #: arrived unit or falsified under level 0), and PB indices to
        #: evaluate.
        self._todo: list[list[int]] = []
        self._pb_todo: list[int] = []
        #: Level 0 propagated to a conflict: every check succeeds.
        self._conflict = False
        #: A deletion invalidated level 0; rebuild before the next check.
        self._stale = False

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_lits(tokens: list[str], line: str) -> list[int]:
        try:
            nums = list(map(int, tokens))
        except ValueError:
            raise ProofError(f"non-integer literal in {line!r}") from None
        if not nums or nums[-1] != 0:
            raise ProofError(f"missing terminating 0 in {line!r}")
        nums.pop()
        if 0 in nums:
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
            if len(tokens) < 2:
                raise ProofError(f"empty PB constraint in {line!r}")
            # The bound is positional, so it may be 0 (a trivially true
            # constraint the solver still logs).
            try:
                bound = int(tokens[1])
            except ValueError:
                raise ProofError(f"non-integer bound in {line!r}") from None
            rest = self._parse_lits(tokens[2:], line)
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
            if not self._refutes([-l for l in lits]):
                raise ProofError(
                    f"addition {lits} is not a reverse-unit-propagation "
                    "consequence of the database"
                )
            self._store_clause(lits)

    # ------------------------------------------------------------------
    # Database maintenance
    # ------------------------------------------------------------------

    def _fit(self, lits: list[int]) -> None:
        """Grow the per-literal tables to cover every literal of
        ``lits``.  New slots go between the positive and the negative
        half, so existing entries keep their (signed) indices."""
        if not lits:
            return
        need = max(max(lits), -min(lits))
        n = self._nvars
        if need <= n:
            return
        grow = max(need, 2 * n) - n
        at = n + 1
        self._val[at:at] = [0] * (2 * grow)
        self._reason[at:at] = [None] * (2 * grow)
        self._watch[at:at] = [[] for _ in range(2 * grow)]
        self._pb_occ[at:at] = [[] for _ in range(2 * grow)]
        self._nvars = n + grow

    def _store_clause(self, lits: list[int]) -> None:
        lits = list(dict.fromkeys(lits))  # drop duplicate literals
        if not lits:
            self.contradiction = True
            return
        n = self._nvars
        if max(lits) > n or -min(lits) > n:
            self._fit(lits)
        if self._by_key is not None:
            self._by_key.setdefault(tuple(sorted(lits)), []).append(
                len(self.clauses)
            )
        self.clauses.append(lits)
        if len(lits) == 1:
            self._units.append(lits)
            self._todo.append(lits)
            return
        val = self._val
        if val[lits[0]] == -1 or val[lits[1]] == -1:
            # Watch non-false literals where there are any: true first,
            # then unassigned, then false.  With at most one non-false
            # literal the clause is unit (or falsified) under level 0.
            lits.sort(key=val.__getitem__, reverse=True)
            if val[lits[1]] == -1:
                self._todo.append(lits)
        self._watch[lits[0]].append(lits)
        self._watch[lits[1]].append(lits)

    def _store_pb(self, lits: list[int], coefs: list[int], bound: int) -> None:
        idx = len(self.pbs)
        self.pbs.append((list(lits), list(coefs), bound))
        self._fit(lits)
        pb_occ = self._pb_occ
        for lit in lits:
            pb_occ[-lit].append(idx)
        if sum(coefs) < bound:
            self.contradiction = True
            return
        self._pb_todo.append(idx)

    def _delete_clause(self, lits: list[int], line: str) -> None:
        by_key = self._by_key
        if by_key is None:
            by_key = self._by_key = {}
            for i, c in enumerate(self.clauses):
                if c is not None:
                    by_key.setdefault(tuple(sorted(c)), []).append(i)
        idxs = by_key.get(tuple(sorted(set(lits))))
        if not idxs:
            raise ProofError(f"deletion of clause not in database: {line!r}")
        idx = idxs.pop()
        clause = self.clauses[idx]
        self.clauses[idx] = None
        if self._conflict:
            self._stale = True
        else:
            val = self._val
            reason = self._reason
            for q in clause:
                if val[q] == 1 and reason[q] is clause:
                    self._stale = True
                    break
        # An emptied clause is dropped from watch lists and level-0
        # work as propagation meets it.
        clause.clear()

    # ------------------------------------------------------------------
    # Unit propagation (clauses + PB)
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Forget level 0 and queue its sources again: the surviving
        unit clauses and every PB constraint.  Watches stay where they
        are -- any two literals are valid watches under the empty
        assignment."""
        val = self._val
        for q in self._trail:
            val[q] = 0
            val[-q] = 0
        self._trail.clear()
        self._units = [c for c in self._units if c]
        self._todo = list(self._units)
        self._pb_todo = list(range(len(self.pbs)))
        self._conflict = False
        self._stale = False

    def _settle(self) -> bool:
        """Bring the level-0 trail up to date; True when level 0 is in
        conflict."""
        if self._stale:
            self._rebuild()
        if self._conflict:
            return True
        if not (self._todo or self._pb_todo):
            return False
        val = self._val
        reason = self._reason
        trail = self._trail
        head = len(trail)
        conflict = False
        for c in self._todo:
            if not c:
                continue  # deleted since it was queued
            q = c[0]
            v = val[q]
            if v == 0:
                val[q] = 1
                val[-q] = -1
                reason[q] = c
                trail.append(q)
            elif v == -1:
                conflict = True
                break
        self._todo = []
        if not conflict:
            for idx in self._pb_todo:
                if self._pb_fire(idx):
                    conflict = True
                    break
        self._pb_todo = []
        if not conflict:
            conflict = self._propagate(head)
        self._conflict = conflict
        return conflict

    def _pb_fire(self, idx: int) -> bool:
        """Apply the PB counter rule to constraint ``idx`` under the
        current assignment; True on conflict."""
        plits, coefs, bound = self.pbs[idx]
        val = self._val
        slack = -bound
        for q, c in zip(plits, coefs):
            if val[q] != -1:
                slack += c
        if slack < 0:
            return True
        reason = self._reason
        trail = self._trail
        for q, c in zip(plits, coefs):
            if c > slack and val[q] == 0:
                val[q] = 1
                val[-q] = -1
                reason[q] = None
                trail.append(q)
        return False

    def _propagate(self, head: int) -> bool:
        """Propagate the trail from position ``head`` to fixpoint; True
        iff a conflict is derived."""
        val = self._val
        reason = self._reason
        watch = self._watch
        pb_occ = self._pb_occ
        trail = self._trail
        start = head
        conflict = False
        while head < len(trail):
            p = trail[head]
            head += 1
            f = -p  # the literal that just turned false
            ws = watch[f]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if not c:
                    continue  # deleted: drop the watch
                if c[0] == f:
                    c[0] = c[1]
                    c[1] = f
                first = c[0]
                if val[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if val[q] != -1:
                        c[1] = q
                        c[k] = f
                        watch[q].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if val[first] == -1:
                        conflict = True
                        break
                    val[first] = 1
                    val[-first] = -1
                    reason[first] = c
                    trail.append(first)
            del ws[j:i]
            if conflict:
                break
            for idx in pb_occ[p]:
                if self._pb_fire(idx):
                    conflict = True
                    break
            if conflict:
                break
        self.stats["propagations"] += head - start
        return conflict

    def _refutes(self, lits: list[int]) -> bool:
        """Assert ``lits`` on top of the level-0 trail and propagate;
        True iff a conflict is derived (the database refutes them).
        Leaves the level-0 trail as it found it."""
        if self.contradiction:
            return True
        self._fit(lits)
        if self._settle():
            return True
        val = self._val
        trail = self._trail
        mark = len(trail)
        conflict = False
        for q in lits:
            v = val[q]
            if v == 0:
                val[q] = 1
                val[-q] = -1
                trail.append(q)
            elif v == -1:
                conflict = True
                break
        if not conflict:
            conflict = self._propagate(mark)
        for q in trail[mark:]:
            val[q] = 0
            val[-q] = 0
        del trail[mark:]
        return conflict

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
        return self._refutes(list(assumptions))

    def input_formula(self) -> tuple[list[list[int]], list[tuple]]:
        """The *current* database split as (clauses, pb constraints) --
        used by tests to cross-check verdicts against a brute-force
        oracle."""
        cls = [list(c) for c in self.clauses if c is not None]
        return cls, [tuple(p) for p in self.pbs]


def check_proof_lines(
    lines, assumptions: list[int] | None = None
) -> RupChecker:
    """Feed a whole proof, then require the final refutation.

    Raises :class:`ProofError` when a step fails its RUP check or the
    database does not refute ``assumptions`` (default: no assumptions,
    i.e. the proof must establish outright unsatisfiability).
    """
    checker = RupChecker()
    for line in lines:
        checker.add_line(line)
    if not checker.check_assumptions(list(assumptions or [])):
        raise ProofError(
            "proof does not refute the claimed assumptions "
            f"{list(assumptions or [])}"
        )
    return checker
