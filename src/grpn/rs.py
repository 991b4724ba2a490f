"""Generalized Robinson-Schensted correspondence for colored permutations.

For an element w of G(r,1,n) the values with color k are Schensted-inserted
in position order to build the component P_k, while Q_k records, in the box
created by the entry at position i, the absolute position i itself.
``_removal_walk`` runs the inverse for every Q of one P at once, replaying
the corner search's steps for P's shape (``tableaux._corner_steps``, run
once per shape) on P's row lists; the sweeps walk the group this way, one
shape block at a time.
The admissible operators L_i / R_i and the ascending canonical
representative of each class live here as well, each written once on
one-line data ``(perm, colors)`` (``_left_move``, ``_right_move``,
``_ascend``) and wrapped for ``GroupElement``s.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import IndexOutOfRange, InvalidTableau, NotAdmissible, ShapeMismatch
from .group import GroupElement, GroupParams, _bubble, require_member
from .tableaux import CornerSteps, Multitableau, StandardTableau


@dataclass(frozen=True)
class RSPair:
    """Insertion and recording multitableaux of equal shape."""

    P: Multitableau
    Q: Multitableau

    def __post_init__(self):
        if self.P.shape != self.Q.shape:
            raise ShapeMismatch(f"{self.P.shape} != {self.Q.shape}")


def _insertion_rows(perm, colors, r: int) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
    """Per-component row lists of P and Q for the colored permutation with
    one-line data ``perm``, ``colors`` in G(r,1,n): the insertion pass of
    ``rs_map`` without the tableau objects.  Nothing is validated."""
    p_rows: list[list[list[int]]] = [[] for _ in range(r)]
    q_rows: list[list[list[int]]] = [[] for _ in range(r)]
    for i, (cur, k) in enumerate(zip(perm, colors), start=1):
        rows = p_rows[k]
        for t, row in enumerate(rows):
            pos = bisect_right(row, cur)
            if pos == len(row):
                row.append(cur)
                q_rows[k][t].append(i)
                break
            cur, row[pos] = row[pos], cur
        else:
            rows.append([cur])
            q_rows[k].append([i])
    return p_rows, q_rows


def _rs_rows(w: GroupElement) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
    """``_insertion_rows`` of the element w."""
    return _insertion_rows(w.perm, w.colors, w.params.r)


def _removal_walk(p_rows: list[list[list[int]]], steps: CornerSteps) -> Iterator[tuple[list[int], list[int]]]:
    """``rs_inverse(RSPair(P, Q), G(r,1,n))`` for every standard Q of P's
    shape, each once, as ``(perm, colors)``; P is given as one row list per
    component, and ``steps`` is the corner search of P's shape
    (``tableaux._corner_steps``).

    The walk replays the search's leaves on P's rows: leaf k is the element
    whose Q is the k-th standard filling ``_corner_steps`` gives with the
    same steps.  It undoes the previous leaf's removals that this leaf does not
    keep, then makes this leaf's further removals, labels n-keep down to 2:
    each pops the last box of its (component, row), reverse-bumps its value
    up through the rows above and logs the bump positions; an undo bumps
    back in reverse order and puts the box back.  So each step costs one
    reverse bump, not n, with no corner scan and no recording multitableau.
    Label 1's box is then the only one left, the first box of the leaf's
    ``first`` component, and is read off.

    P's rows must have the shape the steps were built for, or the walk
    raises ``ShapeMismatch`` before any removal.  The yielded lists are
    live buffers, valid until the next step; copy what must outlive it.
    The walk works in ``p_rows`` itself, which must hold n >= 1 boxes, and
    leaves it holding P's rows again, the same row objects, when it ends.
    """
    shape, leaves = steps
    got = tuple([tuple(map(len, rows)) for rows in p_rows])
    if got != shape:
        raise ShapeMismatch(f"P has shape {got}, the steps are for {shape}")
    n = sum(map(sum, shape))
    perm = [0] * n
    colors = [0] * n
    # log[j]: the removal of label j + 1 as (its component's rows, its row,
    # the bump positions from the row above up, or None from the first row);
    # labels low + 1, ..., n have a removal in place
    log = [None] * n
    low = n
    # a last leaf that keeps nothing and is not yielded puts P's rows back
    for keep, moves, first in chain(leaves, [(0, (), None)]):
        for j in range(low, n - keep):
            rows, row, bumps = log[j]
            x = perm[j]
            if bumps:
                for above, pos in zip(rows, reversed(bumps)):
                    x, above[pos] = above[pos], x
            if not row:  # the pop emptied it: put the same row back
                rows.append(row)
            row.append(x)
        if first is None:
            return
        j = n - keep
        for k, t in moves:
            rows = p_rows[k]
            row = rows[t]
            x = row.pop()
            if not row:
                rows.pop()
            bumps = None
            if t:
                bumps = []
                for upper in range(t - 1, -1, -1):
                    above = rows[upper]
                    pos = bisect_right(above, x) - 1
                    if pos < 0:
                        raise InvalidTableau("reverse bump fell off the tableau")
                    bumps.append(pos)
                    x, above[pos] = above[pos], x
            j -= 1
            perm[j], colors[j] = x, k
            log[j] = rows, row, bumps
        low = j
        perm[0], colors[0] = p_rows[first][0][0], first
        yield perm, colors


def rs_map(w: GroupElement) -> RSPair:
    p_rows, q_rows = _rs_rows(w)
    P = Multitableau(tuple(StandardTableau(rs) for rs in p_rows))
    Q = Multitableau(tuple(StandardTableau(rs) for rs in q_rows))
    return RSPair(P, Q)


def rs_inverse(pair: RSPair, params: GroupParams) -> GroupElement:
    """Reverse bumping in decreasing recording label, n down to 1, each
    label in the component and row where Q holds it.
    Raises ``NotAMember`` if the element lies outside G(r,p,n)."""
    n = pair.P.size
    if n != params.n or len(pair.P.components) != params.r:
        raise ShapeMismatch(
            f"pair has rank {n} with {len(pair.P.components)} components, expected {params}"
        )
    # Q's labels are exactly 1..n, and P has Q's shape
    comp_of = [0] * (n + 1)
    row_of = [0] * (n + 1)
    for k, q_comp in enumerate(pair.Q.components):
        for t, row in enumerate(q_comp.rows):
            for label in row:
                comp_of[label] = k
                row_of[label] = t
    p_rows = [[list(row) for row in comp.rows] for comp in pair.P.components]
    perm = [0] * n
    for label in range(n, 0, -1):
        rows, t = p_rows[comp_of[label]], row_of[label]
        x = rows[t].pop()
        if not rows[t]:
            rows.pop()
        for upper in range(t - 1, -1, -1):
            row = rows[upper]
            pos = bisect_right(row, x) - 1
            if pos < 0:
                raise InvalidTableau("reverse bump fell off the tableau")
            x, row[pos] = row[pos], x
        perm[label - 1] = x
    if any(p_rows):
        raise InvalidTableau("recording tableau does not exhaust the shape")
    w = GroupElement(params, tuple(perm), tuple(comp_of[1:]))
    if params.p != 1:
        require_member(w)
    return w


def _is_ascending(perm, colors, r: int) -> bool:
    """``is_ascending_element`` on one-line data ``(perm, colors)`` with
    colors in [0, r): nothing is built or validated."""
    if any(a > b for a, b in zip(colors, colors[1:])):
        return False
    classes = [[] for _ in range(r)]
    for value, k in zip(perm, colors):
        classes[k].append(value)
    nonempty = [c for c in classes if c]
    return all(max(a) < min(b) for a, b in zip(nonempty, nonempty[1:]))


def is_ascending_element(w: GroupElement) -> bool:
    """Colors weakly increase along positions and the values of each color
    class sit entirely below those of every later nonempty class
    (``_is_ascending`` on w's one-line data)."""
    return _is_ascending(w.perm, w.colors, w.params.r)


def _left_move(perm: tuple, position, i: int) -> tuple:
    """L_i on one-line data: ``perm`` with the values i and i+1 swapped,
    found through ``position[v]``, the 0-based position of value v."""
    moved = list(perm)
    moved[position[i]], moved[position[i + 1]] = i + 1, i
    return tuple(moved)


def _right_move(perm: tuple, colors: tuple, i: int) -> tuple[tuple, tuple]:
    """R_i on one-line data: entries i-1 and i (0-based) of both tuples
    swapped."""
    p, c = list(perm), list(colors)
    p[i - 1], p[i], c[i - 1], c[i] = p[i], p[i - 1], c[i], c[i - 1]
    return tuple(p), tuple(c)


def _require_move_index(w: GroupElement, i: int) -> None:
    """Raise ``IndexOutOfRange`` unless 1 <= i <= n - 1."""
    if not 1 <= i <= w.params.n - 1:
        raise IndexOutOfRange(f"i={i} not in [1, {w.params.n - 1}]")


def left_admissible(w: GroupElement, i: int) -> GroupElement:
    """s_i * w: swaps the values i and i+1, keeping each position's color.
    Admissible only when the positions holding i and i+1 carry different
    colors."""
    _require_move_index(w, i)
    position = {i: w.perm.index(i), i + 1: w.perm.index(i + 1)}
    if w.colors[position[i]] == w.colors[position[i + 1]]:
        raise NotAdmissible(f"values {i} and {i + 1} carry equal colors")
    return GroupElement(w.params, _left_move(w.perm, position, i), w.colors)


def right_admissible(w: GroupElement, i: int) -> GroupElement:
    """w * s_i: swaps positions i and i+1 together with their colors.
    Admissible only when those positions carry different colors."""
    _require_move_index(w, i)
    if w.colors[i - 1] == w.colors[i]:
        raise NotAdmissible(f"positions {i} and {i + 1} carry equal colors")
    return GroupElement(w.params, *_right_move(w.perm, w.colors, i))


def _ascend(perm, colors) -> tuple[list[int], list[int], tuple[tuple, tuple]]:
    """The swaps of the two phases of ``ascending_moves``, right then left,
    and the one-line data ``(perm, colors)`` of the element they lead to.

    Both phases are one ``_bubble``.  The right moves bubble the
    position-color word and carry the values; the left moves then bubble
    the value-color word (the color at each value's position, by value)
    and carry the positions.  A swap is made only where the two colors it
    exchanges are strictly out of order, so every move is admissible:
    ``apply_moves`` replays them with ``left_admissible`` /
    ``right_admissible`` to the same element.
    """
    perm, colors = list(perm), list(colors)
    right = _bubble(colors, perm)
    # the 0-based position of value v, and its color, at index v - 1
    position, value_colors = [0] * len(perm), [0] * len(perm)
    for p, v in enumerate(perm):
        position[v - 1], value_colors[v - 1] = p, colors[p]
    left = _bubble(value_colors, position)
    for v, p in enumerate(position, start=1):
        perm[p] = v
    return right, left, (tuple(perm), tuple(colors))


def ascending_moves(w: GroupElement) -> list[tuple[str, int]]:
    """A sequence of admissible moves ("L"|"R", i) taking w to its canonical
    ascending representative.

    Right moves stably bubble positions into weakly increasing color order;
    left moves then stably renumber values so each color class occupies a
    contiguous block, preserving within-class order on both sides.  The two
    phases are one adjacent-swap sort (``_bubble``), run first on the
    position-color word and then on the value-color word.
    """
    return _ascend_element(w)[0]


def _ascend_element(w: GroupElement) -> tuple[list[tuple[str, int]], GroupElement]:
    """``ascending_moves(w)`` and ``ascending_representative(w)`` from one
    ``_ascend``."""
    right, left, rep = _ascend(w.perm, w.colors)
    return [("R", i) for i in right] + [("L", i) for i in left], GroupElement(w.params, *rep)


def apply_moves(w: GroupElement, moves: list[tuple[str, int]]) -> GroupElement:
    cur = w
    for side, i in moves:
        cur = left_admissible(cur, i) if side == "L" else right_admissible(cur, i)
    return cur


def ascending_representative(w: GroupElement) -> GroupElement:
    """The ascending element ``apply_moves(w, ascending_moves(w))``."""
    return GroupElement(w.params, *_ascend(w.perm, w.colors)[2])
