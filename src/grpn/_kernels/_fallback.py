"""Pure-Python kernel: per-element statistics for the verification sweep.

Composes the public group / rs / tableaux operations: the validated
``rs_map`` pair and the ``Multitableau`` statistics, not the row-list pass
that ``signs.pi`` uses.  So ``verify_theorem`` checks the formula on the
objects users get, and a fault in the tableau classes shows up in the
sweep.
"""

from __future__ import annotations

from ..group import GroupElement, GroupParams, inversions
from ..rs import rs_map


def theorem_stats(perm, colors, r):
    """Return (inv_sigma, color_sum, e_P, inv_P, inv_Q, twice_spin_P,
    twice_spin_Q) for the element with the given one-line data."""
    w = GroupElement(GroupParams(r, 1, len(perm)), tuple(perm), tuple(colors))
    pair = rs_map(w)
    return (
        inversions(perm),
        sum(colors),
        pair.P.even_row_boxes(),
        pair.P.inversions(),
        pair.Q.inversions(),
        pair.P.twice_spin(),
        pair.Q.twice_spin(),
    )
