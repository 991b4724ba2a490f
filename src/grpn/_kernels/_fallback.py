"""Pure-Python kernel: the group side of one leaf of the theorem sweep.

``verify_theorem`` reads P's and Q's statistics off validated
``Multitableau`` objects, once per filling of a shape, and walks each P's
leaves with ``rs._removal_walk`` in that filling's own rows, replaying the
steps of the shape's corner search (run once per shape).  What is left
per leaf is the group side: inv(sigma) and the color sum, which
``theorem_stats`` counts afresh on every call, with no store.  ``mapped_pair`` is the sweep's round trip: it
maps one leaf per shape with the validated ``rs_map``, through this
module's own binding of it.
"""

from __future__ import annotations

from ..group import GroupElement, GroupParams, inversions
from ..rs import RSPair, rs_map


def theorem_stats(perm, colors, r):
    """Return (inv_sigma, color_sum) for the element with the given
    one-line data; ``r`` is the group's, which neither count needs."""
    return inversions(perm), sum(colors)


def mapped_pair(perm, colors, r) -> RSPair:
    """The validated ``rs_map`` pair of the element of G(r,1,n) with the
    given one-line data, which may be live buffers."""
    return rs_map(GroupElement(GroupParams(r, 1, len(perm)), tuple(perm), tuple(colors)))
