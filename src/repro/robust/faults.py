"""Certificate corruption for the certification layer's tests.

A checker is only trustworthy when it is seen to reject tampered
input.  :func:`corrupt_proof_line` and :func:`corrupt_allocation` inject
single-point defects into proof logs and SAT witnesses, so the tests can
demonstrate that the :mod:`repro.certify` checkers reject tampered
artifacts instead of silently passing them.

Process-level faults (worker hangs, crashes, I/O errors) are injected
through the named sites of :mod:`repro.chaos`; mid-probe *solver*
interrupts need no machinery of their own: a
:class:`repro.robust.budget.Budget` with a small ``max_decisions`` or
``max_conflicts`` interrupts the CDCL loop deterministically.
"""

from __future__ import annotations

__all__ = [
    "corrupt_proof_line",
    "corrupt_allocation",
    "PROOF_CORRUPTIONS",
]


#: Supported single-line proof corruption modes.
PROOF_CORRUPTIONS = ("flip-lit", "drop-lit", "drop-line", "bump-bound")


def corrupt_proof_line(
    lines: list[str], index: int, mode: str
) -> list[str]:
    """Return a copy of ``lines`` with a single-point defect at ``index``.

    Modes (see :data:`PROOF_CORRUPTIONS`):

    - ``"flip-lit"``  -- negate the first literal of the line,
    - ``"drop-lit"``  -- remove the first literal of the line,
    - ``"drop-line"`` -- remove the whole line,
    - ``"bump-bound"`` -- increment a PB line's bound (``b`` lines only).

    Lines without a corruptible payload (comments, empty clauses for the
    literal modes, non-PB lines for ``bump-bound``) are left unchanged --
    the caller must pick a suitable target line.
    """
    if mode not in PROOF_CORRUPTIONS:
        raise ValueError(f"unknown proof corruption mode {mode!r}")
    out = list(lines)
    line = out[index]
    tokens = line.split()
    if not tokens or tokens[0] == "c":
        return out
    if mode == "drop-line":
        del out[index]
        return out
    if mode == "bump-bound":
        if tokens[0] != "b":
            return out
        tokens[1] = str(int(tokens[1]) + 1)
        out[index] = " ".join(tokens)
        return out
    # Literal modes: find the first literal token (skip the head marker
    # and, for PB lines, bound/coefficient positions).
    if tokens[0] == "b":
        pos = 3  # "b bound coef lit ..." -> first literal
    elif tokens[0] in ("i", "d"):
        pos = 1
    else:
        pos = 0
    if pos >= len(tokens) or tokens[pos] == "0":
        return out  # no literal to corrupt (e.g. the empty clause)
    if mode == "flip-lit":
        tokens[pos] = str(-int(tokens[pos]))
    else:  # drop-lit
        del tokens[pos]
    out[index] = " ".join(tokens)
    return out


def corrupt_allocation(alloc, ecu_names: list[str]):
    """Return a copy of ``alloc`` with one task moved to a different ECU
    (deterministically: the lexicographically first task, cycled to the
    next ECU name) -- a single-point witness corruption."""
    import copy

    out = copy.deepcopy(alloc)
    name = min(out.task_ecu)
    current = out.task_ecu[name]
    others = [p for p in ecu_names if p != current]
    if not others:
        raise ValueError("cannot corrupt: only one ECU in the architecture")
    out.task_ecu[name] = others[0]
    return out
