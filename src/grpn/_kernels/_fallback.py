"""Pure-Python kernel: the group side of one leaf of the sweeps' leaf stream.

The leaf stream (``signs._blocks``), which ``verify_theorem`` and
``verify_admissible`` read, takes P's and Q's statistics off validated
``Multitableau`` objects, inv once per filling of a shape and e and
twice_spin once per shape, and walks each P's leaves with
``rs._removal_walk`` in that filling's own rows, replaying the steps of
the shape's corner search (run once per shape).  What is
left per leaf is the group side: inv(sigma) and the color sum, which
``theorem_stats`` counts afresh on every call, with no store.
"""

from __future__ import annotations

from ..group import inversions

# Not called here: the name stays bound because perfbench's tracer test
# checks that its ``rs_map`` wrapper reaches this module too.
from ..rs import rs_map  # noqa: F401


def theorem_stats(perm, colors, r):
    """Return (inv_sigma, color_sum) for the element with the given
    one-line data; ``r`` is the group's, which neither count needs."""
    return inversions(perm), sum(colors)
