"""Differential property: the watched-literal RUP checker against the
reference oracle.

:class:`repro.certify.drup.RupChecker` keeps a persistent level-0 trail
and moves watches in place; :class:`tests.rup_oracle.ReferenceRupChecker`
re-propagates everything from scratch on every check.  Unit propagation
to fixpoint does not depend on the order it runs in, so the two must
agree on every addition (accepted or rejected with ``ProofError``), every
deletion, and every ``check_assumptions`` verdict -- over random small
clause and PB databases followed by random additions, deletions
(including of unit clauses and of the reasons of level-0 literals) and
assumption checks.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import ProofError, RupChecker
from tests.rup_oracle import ReferenceRupChecker

NVARS = 5


def _lit(draw):
    return draw(st.integers(1, NVARS)) * draw(st.sampled_from([1, -1]))


def _clause(draw, min_size):
    n = draw(st.integers(min_size, 4))
    return [_lit(draw) for _ in range(n)]


def _pb_line(draw):
    n = draw(st.integers(1, 4))
    terms = [(draw(st.integers(1, 3)), _lit(draw)) for _ in range(n)]
    # Bound >= 1: the reference parser reads a 0 bound as the line's
    # terminator (the watched checker accepts it; see test_certify.py).
    bound = draw(st.integers(1, sum(c for c, _ in terms) + 1))
    body = " ".join(f"{c} {l}" for c, l in terms)
    return f"b {bound} {body} 0"


def _fmt(lits, prefix=""):
    return f"{prefix}{' '.join(map(str, lits))} 0".replace("  ", " ")


def _apply(checker, line):
    """'ok' or 'rejected' -- the outcome of feeding ``line``."""
    try:
        checker.add_line(line)
    except ProofError:
        return "rejected"
    return "ok"


def _database(checker):
    clauses, pbs = checker.input_formula()
    return (
        sorted(tuple(sorted(c)) for c in clauses),
        sorted(repr(p) for p in pbs),
    )


class TestWatchedCheckerMatchesOracle:
    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_verdicts_as_reference(self, data):
        draw = data.draw
        new, ref = RupChecker(), ReferenceRupChecker()
        shuffle = random.Random(draw(st.integers(0, 2**16)))
        lines = [_fmt(_clause(draw, 1), "i ")
                 for _ in range(draw(st.integers(0, 8)))]
        lines += [_pb_line(draw) for _ in range(draw(st.integers(0, 2)))]
        shuffle.shuffle(lines)
        for line in lines:
            assert _apply(new, line) == _apply(ref, line) == "ok"
        for step in range(draw(st.integers(1, 25))):
            op = draw(st.sampled_from(
                ["input", "input", "pb", "add", "add", "delete",
                 "delete_unit", "delete_unknown", "check", "check",
                 "check"]
            ))
            if op == "check":
                assumptions = [_lit(draw)
                               for _ in range(draw(st.integers(0, 3)))]
                got = new.check_assumptions(assumptions)
                assert got == ref.check_assumptions(assumptions), (
                    f"step {step}: check_assumptions({assumptions})"
                )
                continue
            if op == "input":
                line = _fmt(_clause(draw, 1), "i ")
            elif op == "pb":
                line = _pb_line(draw)
            elif op == "add":
                line = _fmt(_clause(draw, 0))
            elif op in ("delete", "delete_unit"):
                live = [c for c in ref.clauses if c is not None
                        and (op == "delete" or len(c) == 1)]
                if not live:
                    continue
                target = list(draw(st.sampled_from(live)))
                shuffle.shuffle(target)  # deletion matches a multiset
                line = _fmt(target, "d ")
            else:
                line = _fmt(_clause(draw, 1), "d ")
            got = _apply(new, line)
            assert got == _apply(ref, line), f"step {step}: {line!r}"
        assert new.check_assumptions([]) == ref.check_assumptions([])
        assert _database(new) == _database(ref)
        assert new.contradiction == ref.contradiction
        for key in ("inputs", "pb_inputs", "additions", "deletions",
                    "rup_checks", "assumption_checks"):
            assert new.stats[key] == ref.stats[key], key
