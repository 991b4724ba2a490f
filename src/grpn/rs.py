"""Generalized Robinson-Schensted correspondence for colored permutations.

For an element w of G(r,1,n) the values with color k are Schensted-inserted
in position order to build the component P_k, while Q_k records, in the box
created by the entry at position i, the absolute position i itself.
``_removal_walk`` runs the inverse for every Q of one P at once, replaying
the corner search's steps for P's shape (``tableaux._corner_steps``, run
once per shape) on P's row objects, laid out in one flat list, with no row
popped or put back, and undoes a removal by inserting its value back; the
sweeps walk the group this way, one shape block at a time, and
``rs_inverse`` is its one-leaf case, with the step list read off Q.  So
the library has one reverse bump.
The admissible operators L_i / R_i and the ascending canonical
representative of each class live here as well, each written once on
one-line data ``(perm, colors)`` (``_left_move``, ``_right_move``; the
moves to the representative, ``_ascend``; the representative alone, two
stable sorts, ``_class_leader``) and wrapped for ``GroupElement``s.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import IndexOutOfRange, InvalidTableau, NotAdmissible, ShapeMismatch
from .group import GroupElement, GroupParams, _bubble, require_member
from .tableaux import CornerSteps, Multitableau, ascending_blocks


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
    same steps.  It first lays P's row objects out in one flat list,
    components in order and each component's rows top to bottom, so the
    step (k, t) is flat row ``base[k] + t`` and its reverse bump runs
    through the t flat rows above it.  Each leaf undoes the previous leaf's
    removals that it does not keep, latest first, then makes its further
    removals, labels n-keep down to 2: each pops the last box of its row,
    leaving an emptied row in place, and reverse-bumps its value up through
    the rows above.  A removal is undone by Schensted-inserting its value
    back into its component, from the component's first row: the insertion
    inverts the reverse bump, so it ends in the row the removal popped,
    where an emptied row takes the value.  The walk's state is P's rows and
    the yielded buffers, with no log of the bumps.  So each step costs one
    reverse bump, not n, with no corner scan and no recording
    multitableau.  Label 1's box is then the only one left, the first box
    of the leaf's ``first`` component, and is read off.

    P's rows must be standard, as every caller's are, and have the shape
    the steps were built for, or the walk raises ``ShapeMismatch`` before
    any removal; a column that decreases raises ``InvalidTableau``.  The
    yielded lists are live buffers, valid until the next step, which reads
    them to undo: copy what must outlive it, and change neither.  The walk
    works in ``p_rows`` itself, which must hold n >= 1 boxes, and leaves it
    holding P's rows again, the same row objects, when it ends.
    """
    shape, leaves = steps
    got = tuple([tuple(map(len, rows)) for rows in p_rows])
    if got != shape:
        raise ShapeMismatch(f"P has shape {got}, the steps are for {shape}")
    n = sum(map(sum, shape))
    perm, colors = [0] * n, [0] * n
    # flat: P's row objects, component by component; row t of component k
    # is flat[base[k] + t]
    flat, base = [], []
    for rows in p_rows:
        base.append(len(flat))
        flat += rows
    # labels low + 1, ..., n have a removal in place
    low = n
    # a last leaf that keeps nothing and is not yielded puts P's rows back
    for keep, moves, first in chain(leaves, [(0, (), None)]):
        for j in range(low, n - keep):
            x, i = perm[j], base[colors[j]]
            row = flat[i]
            while (pos := bisect_right(row, x)) < len(row):
                x, row[pos] = row[pos], x
                i += 1
                row = flat[i]
            row.append(x)
        if first is None:
            return
        j = n - keep
        for k, t in moves:
            i = base[k] + t
            x = flat[i].pop()
            while t:
                t -= 1
                i -= 1
                above = flat[i]
                pos = bisect_right(above, x) - 1
                if pos < 0:
                    raise InvalidTableau("reverse bump fell off the tableau")
                x, above[pos] = above[pos], x
            j -= 1
            perm[j], colors[j] = x, k
        low = j
        perm[0], colors[0] = flat[base[first]][0], first
        yield perm, colors


def rs_map(w: GroupElement) -> RSPair:
    p_rows, q_rows = _rs_rows(w)
    return RSPair(Multitableau.from_rows(p_rows), Multitableau.from_rows(q_rows))


def rs_inverse(pair: RSPair, params: GroupParams) -> GroupElement:
    """Reverse bumping in decreasing recording label, n down to 1, each
    label in the component and row where Q holds it: one leaf of
    ``_removal_walk``, on a copy of P's rows, whose step list is read off Q.
    A validated Q holds exactly the labels 1..n in P's shape, so every
    removal takes a corner and the n removals empty P: no box can be left.
    Raises ``NotAMember`` if the element lies outside G(r,p,n)."""
    P, Q = pair.P, pair.Q
    n = P.size
    if n != params.n or len(P.components) != params.r:
        raise ShapeMismatch(
            f"pair has rank {n} with {len(P.components)} components, expected {params}"
        )
    # cells[x]: the (component, row) where Q holds label x, one tuple per row
    cells, shape = [None] * (n + 1), []
    for k, comp in enumerate(Q.components):
        shape.append(tuple(map(len, comp.rows)))
        for t, row in enumerate(comp.rows):
            cell = (k, t)
            for label in row:
                cells[label] = cell
    p_rows = [[list(row) for row in comp.rows] for comp in P.components]
    steps = (tuple(shape), ((0, cells[n:1:-1], cells[1][0]),))
    perm, colors = next(_removal_walk(p_rows, steps))
    w = GroupElement(params, tuple(perm), tuple(colors))
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
    return ascending_blocks(classes)


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


def _class_leader(perm, colors, position) -> tuple[tuple, tuple]:
    """The ascending element of the class of ``(perm, colors)``, its class
    leader, from the element's own invariants by two stable sorts, with no
    move: positions by color, then values by the color at their position.
    ``position[v]`` is the 0-based position of value v, for v in 1..n."""
    n = len(perm)
    rank = [0] * (n + 1)  # rank[v]: value v's value in the leader
    for j, v in enumerate(sorted(range(1, n + 1), key=lambda v: colors[position[v]]), start=1):
        rank[v] = j
    return tuple([rank[perm[p]] for p in sorted(range(n), key=colors.__getitem__)]), tuple(sorted(colors))


def ascending_representative(w: GroupElement) -> GroupElement:
    """The ascending element ``apply_moves(w, ascending_moves(w))``, built
    by ``_class_leader`` in O(n log n) without the moves."""
    position = {v: p for p, v in enumerate(w.perm)}
    return GroupElement(w.params, *_class_leader(w.perm, w.colors, position))
