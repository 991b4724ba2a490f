"""Generalized Robinson-Schensted correspondence for colored permutations.

For an element w of G(r,1,n) the values with color k are Schensted-inserted
in position order to build the component P_k, while Q_k records, in the box
created by the entry at position i, the absolute position i itself.
``_removal_walk`` runs the inverse for every pair (P, Q) of one shape
block at once, P by P, replaying the corner search's steps for the shape
(``tableaux._corner_steps``, run once per shape) in each P's own component
rows, with no row popped or put back, and undoes a removal by inserting
its value back into its component; the sweeps walk the group this way, one
walk per shape block, and ``rs_inverse`` is its one-filling, one-leaf
case, with the step list read off Q.  So the library has one reverse
bump.  It has two Schensted insertion loops, the insertion pass's and the
walk's undo, written inline in each: one shared per-value insertion call
measured 1.15x the time of the sweeps and 1.07x that of ``pi`` (in
process, 2-core x86-64, Python 3.11).
The admissible operators L_i / R_i and the ascending canonical
representative of each class live here as well, each written once on
one-line data ``(perm, colors)`` (``_left_move``, ``_right_move``; the
moves to the representative, ``_ascend``; the representative alone, two
stable sorts, ``_class_leader``) and wrapped for ``GroupElement``s.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain

from .errors import CapExceeded, IndexOutOfRange, InvalidTableau, NotAdmissible, ShapeMismatch
from .group import GroupElement, GroupParams, _swap_sort, _Value, inversions, require_member
from .tableaux import CornerSteps, Multitableau, ascending_blocks


class RSPair(_Value):
    """Insertion and recording multitableaux of equal shape."""

    _fields = ("P", "Q")

    def __init__(self, P: Multitableau, Q: Multitableau):
        self.__dict__.update(P=P, Q=Q)
        if P.shape != Q.shape:
            raise ShapeMismatch(f"{P.shape} != {Q.shape}")


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


def _removal_walk(fillings: list, steps: CornerSteps) -> Iterator[tuple[int, int, list[int], list[int]]]:
    """``rs_inverse(RSPair(P, Q), G(r,1,n))`` for every pair (P, Q) of a
    shape block: P and Q run over ``fillings``, standard fillings of one
    shape, each given as one row list per component, and ``steps`` is the
    corner search of that shape (``tableaux._corner_steps``).  Each pair is
    yielded once, as ``(a, k, perm, colors)`` with P filling a and Q
    filling k, in a-major order; the sweeps walk the whole block of a shape
    in one walk, and ``rs_inverse`` is its one-filling, one-leaf case.

    For each P in turn the walk replays the search's leaves on P's rows:
    leaf k is the element whose Q is the k-th standard filling
    ``_corner_steps`` gives with the same steps, which is filling k when
    ``fillings`` are the search's.  The step (c, t) is row t of component
    c, and its reverse bump runs through the t rows above it.  Each leaf
    undoes the previous leaf's removals that it does not keep, latest
    first, then makes its further removals, labels n-keep down to 2: each
    pops the last box of its row, leaving an emptied row in place, and
    reverse-bumps its value up through the rows above.  A removal is undone
    by Schensted-inserting its value back into its component, from the
    component's first row: the insertion inverts the reverse bump, so it
    ends in the row the removal popped, where an emptied row takes the
    value.  The walk's state is the rows of the filling being walked and
    the yielded buffers, with no log of the bumps.  So each step costs one
    reverse bump, not n, with no corner scan and no recording
    multitableau.  Label 1's box is then the only one left, the first box
    of the leaf's ``first`` component, and is read off.  A last leaf that
    keeps nothing and is not yielded puts P's rows back before the next P.

    The block's shape is checked once, before any removal: a filling of
    another shape than the steps' raises ``ShapeMismatch``, naming the
    first.  The rows must also be standard, as every caller's are; other
    rows make the walk raise ``InvalidTableau`` before the last leaf of
    their filling: a reverse bump that finds no smaller entry in the row
    above, a re-insertion that runs past its component's last row, and a
    removal from an emptied row, or label 1 read off one.  The yielded
    lists are live buffers, valid until the next step, which reads them to
    undo: copy what must outlive it, and change neither.  The walk works
    in the fillings' rows themselves, which must hold n >= 1 boxes, and
    leaves each filling holding its rows again, the same row objects, when
    it runs to its end.
    """
    shape, leaves = steps
    comps, f = list(chain.from_iterable(fillings)), len(fillings)
    lens = list(map(len, fillings)), list(map(len, comps)), list(map(len, chain.from_iterable(comps)))
    if lens != ([len(shape)] * f, list(map(len, shape)) * f, list(chain.from_iterable(shape)) * f):
        for a, p_rows in enumerate(fillings):
            if (got := tuple([tuple(map(len, rows)) for rows in p_rows])) != shape:
                raise ShapeMismatch(f"filling {a} has shape {got}, the steps are for {shape}")
    n = sum(map(sum, shape))
    perm, colors = [0] * n, [0] * n
    # each leaf as (n - keep, moves, first), built once per block, then a
    # closing leaf that keeps nothing and is not yielded: it puts P's rows back
    plan = [(n - keep, moves, first) for keep, moves, first in leaves] + [(n, (), None)]
    try:
        for a, p_rows in enumerate(fillings):
            # labels low + 1, ..., n have a removal in place
            low = n
            for k, (stop, moves, first) in enumerate(plan):
                for j in range(low, stop):
                    x = perm[j]
                    for row in p_rows[colors[j]]:
                        pos = bisect_right(row, x)
                        if pos == len(row):
                            row.append(x)
                            break
                        x, row[pos] = row[pos], x
                    else:
                        raise InvalidTableau("re-insertion ran off its component")
                if first is None:
                    break
                j = stop
                for c, t in moves:
                    rows = p_rows[c]
                    x = rows[t].pop()
                    while t:
                        t -= 1
                        above = rows[t]
                        pos = bisect_right(above, x) - 1
                        if pos < 0:
                            raise InvalidTableau("reverse bump fell off the tableau")
                        x, above[pos] = above[pos], x
                    j -= 1
                    perm[j], colors[j] = x, c
                low = j
                perm[0], colors[0] = p_rows[first][0][0], first
                yield a, k, perm, colors
    except IndexError:
        # only an emptied row has no box where the shape has one
        raise InvalidTableau("no box left in a row of the shape") from None


def rs_map(w: GroupElement) -> RSPair:
    p_rows, q_rows = _insertion_rows(w.perm, w.colors, w.params.r)
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
    cells = [None] * (n + 1)
    for k, comp in enumerate(Q.components):
        for t, row in enumerate(comp.rows):
            cell = (k, t)
            for label in row:
                cells[label] = cell
    p_rows = [[list(row) for row in comp.rows] for comp in P.components]
    steps = (Q.shape, ((0, cells[n:1:-1], cells[1][0]),))
    _, _, perm, colors = next(_removal_walk([p_rows], steps))
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

    Both phases are one ``_swap_sort``.  The right moves sort the
    position-color word and carry the values; the left moves then sort the
    value-color word (the color at each value's position, by value) and
    carry the positions.  A swap is made only where the two colors it
    exchanges are strictly out of order, so every move is admissible:
    ``apply_moves`` replays them with ``left_admissible`` /
    ``right_admissible`` to the same element.
    """
    perm, colors = list(perm), list(colors)
    right = _swap_sort(colors, perm)
    # the 0-based position of value v, and its color, at index v - 1
    position, value_colors = [0] * len(perm), [0] * len(perm)
    for p, v in enumerate(perm):
        position[v - 1], value_colors[v - 1] = p, colors[p]
    left = _swap_sort(value_colors, position)
    for v, p in enumerate(position, start=1):
        perm[p] = v
    return right, left, (tuple(perm), tuple(colors))


# The most moves ``ascending_moves`` and ``grpn ascend`` make.  The moves
# grow as n^2 (a random element of G(2,1,n) has about n^2 / 4), and each
# sort makes at most n - 1 comparisons more than moves.  At r = 2 the
# command took 0.10-0.12 s with text output and 0.44-0.56 s with JSON for
# a random element of rank 900 (203,644 moves), and 0.38-0.45 s and
# 0.81-1.14 s for the identity colored (1, ..., 1, 0) at rank 125,001
# (250,000 moves; in process, 2-core x86-64, Python 3.11).
MAX_ASCEND_MOVES = 250_000


def _move_count(perm, colors) -> int:
    """The number of moves ``_ascend`` makes, counted in O(n log n)
    comparisons without making them, in O(n^2) time all the same
    (``list.insert`` in ``inversions``, ROADMAP item 4).  A stable
    adjacent-swap sort swaps each strictly out-of-order pair once, so the
    right moves are the inversions of the position-color word and the left
    moves those of the value-color word, which the right moves leave as it
    was, since each value keeps its color."""
    value_colors = [0] * len(perm)
    for p, v in enumerate(perm):
        value_colors[v - 1] = colors[p]
    return inversions(colors) + inversions(value_colors)


def ascending_moves(w: GroupElement) -> list[tuple[str, int]]:
    """A sequence of admissible moves ("L"|"R", i) taking w to its canonical
    ascending representative.

    Right moves stably sort positions into weakly increasing color order;
    left moves then stably renumber values so each color class occupies a
    contiguous block, preserving within-class order on both sides.  The two
    phases are one adjacent-swap sort (``_swap_sort``), run first on the
    position-color word and then on the value-color word.  Raises
    ``CapExceeded`` before any move if there are more than
    ``MAX_ASCEND_MOVES``.
    """
    return _ascend_element(w)[0]


def _ascend_element(w: GroupElement) -> tuple[list[tuple[str, int]], GroupElement]:
    """``ascending_moves(w)`` and ``ascending_representative(w)`` from one
    ``_ascend``, after the move count (``_move_count``) is checked against
    ``MAX_ASCEND_MOVES``."""
    count = _move_count(w.perm, w.colors)
    if count > MAX_ASCEND_MOVES:
        raise CapExceeded(
            f"ascending an element of rank {w.params.n} takes {count} moves, above cap {MAX_ASCEND_MOVES}"
        )
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
