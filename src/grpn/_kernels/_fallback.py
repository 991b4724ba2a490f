"""Pure-Python kernel: per-element statistics for the verification sweep.

The kernel runs the row-list insertion pass on every element and reads P's
and Q's statistics from its store through ``rs._parts``, the path the
admissible sweep's class table takes.  Only an element whose P rows or Q
rows are new to the store is rebuilt as a ``GroupElement`` and mapped with
the validated ``rs_map``; the statistics are then read off the
``Multitableau`` objects into the store.  So ``verify_theorem`` checks the
formula on the objects users get, each distinct P and Q built and
validated once per sweep, and a fault in the tableau classes shows up in
the sweep.  inv(sigma) is recounted only when the permutation differs from
the previous call's, which in a sweep in lexicographic order is once per
permutation.
"""

from __future__ import annotations

from ..group import GroupElement, GroupParams, inversions
from ..rs import _insertion_rows, _parts, rs_map


def theorem_kernel():
    """A fresh kernel ``theorem_stats(perm, colors, r)`` with an empty store."""
    store: dict = {}
    # a copy of the last permutation, and its inv(sigma)
    last_perm: tuple = ()
    inv_sigma = 0

    def theorem_stats(perm, colors, r):
        """Return (inv_sigma, color_sum, e_P, inv_P, inv_Q, twice_spin_P,
        twice_spin_Q) for the element with the given one-line data."""
        nonlocal last_perm, inv_sigma
        p_rows, q_rows = _insertion_rows(perm, colors, r)
        if perm != last_perm:
            last_perm = tuple(perm)
            inv_sigma = inversions(last_perm)
        p_part, q_part = _parts(
            p_rows,
            q_rows,
            store,
            lambda: rs_map(GroupElement(GroupParams(r, 1, len(perm)), tuple(perm), tuple(colors))),
        )
        (_, inv_p, _), e_p, twice_spin_p, _ = p_part
        (_, inv_q, _), _, twice_spin_q, _ = q_part
        return inv_sigma, sum(colors), e_p, inv_p, inv_q, twice_spin_p, twice_spin_q

    return theorem_stats
