"""Pure-Python kernel: the group side of one leaf of a theorem or
admissible sweep.

The shape blocks these sweeps read (``signs._blocks``) check a shape's
fillings as one block, with no object per filling
(``tableaux.check_fillings``), take each filling's inv off its reading
word, and e and twice_spin once per shape, off the first filling's
validated ``Multitableau``, and walk the whole block with one
``rs._removal_walk``, each P in its own filling's rows, replaying the
steps of the shape's corner search (run once per shape).  What is left per
leaf is the group side: inv(sigma) and the color sum, which
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
