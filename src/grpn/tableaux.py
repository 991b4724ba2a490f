"""Partitions, standard Young multitableaux, and their statistics.

A partition is a plain tuple of weakly decreasing positive integers; a
multipartition is an r-tuple of partitions.  Multitableaux carry r
component tableaux jointly labeled by 1..n.  A multipartition's
depth-first corner search (``_corner_search``) gives each leaf as steps
together with its filling, written as the search places each label.  A
sweep runs it once per shape (``_corner_steps``), keeping the steps for
``rs._removal_walk`` and a row-list copy of each filling, and checks the
copies together as one block with no object per filling
(``check_fillings``); ``standard_tableaux`` and ``standard_multitableaux``
wrap the search's fillings in validated objects, one leaf at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import factorial
from operator import lt
from typing import Iterator, Sequence

from .errors import InvalidTableau, ShapeMismatch
from .group import inversions

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def check_partition(parts: Sequence[int]) -> Partition:
    parts = tuple(parts)
    if any(x < 1 for x in parts):
        raise InvalidTableau(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidTableau(f"partition must be weakly decreasing: {parts}")
    return parts


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def multipartitions(n: int, r: int) -> Iterator[MultiPartition]:
    """All r-tuples of partitions of total rank n: by the first component's
    size, then its partition, then the rest in this order.  Only nonempty
    components recurse, so the depth is at most n, whatever r is."""
    if n == 0:
        yield ((),) * r
        return
    for j in range(r - 1, -1, -1):  # the first nonempty component
        for m in range(1, n + 1):
            for head in partitions(m):
                for tail in multipartitions(n - m, r - j - 1):
                    yield ((),) * j + (head,) + tail


def _is_standard(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether a nonempty tuple of rows forms a standard tableau, in one
    pass over the rows: each row is nonempty, no longer than the row above,
    increasing, and above each entry of the row below it.  The least label
    is then ``rows[0][0]``, and a single increasing row has distinct
    labels."""
    above = rows[0]
    if not above or above[0] < 1 or not all(map(lt, above, above[1:])):
        return False
    if len(rows) == 1:
        return True
    size = len(above)
    for row in rows[1:]:
        if not row or len(row) > len(above) or not all(map(lt, row, row[1:])):
            return False
        if not all(map(lt, above, row)):
            return False
        size += len(row)
        above = row
    return len(set(chain.from_iterable(rows))) == size


def _check_rows(rows: tuple[tuple[int, ...], ...]) -> None:
    """The tableau checks one by one, raising ``InvalidTableau`` at the
    first that fails."""
    lens = list(map(len, rows))
    if 0 in lens:
        raise InvalidTableau("empty row")
    if any(map(lt, lens, lens[1:])):
        raise InvalidTableau(f"row lengths must weakly decrease: {lens}")
    labels = list(chain.from_iterable(rows))
    if len(set(labels)) != len(labels) or min(labels) < 1:
        raise InvalidTableau("labels must be distinct positive integers")
    for row in rows:
        if not all(map(lt, row, row[1:])):
            raise InvalidTableau(f"row not increasing: {row}")
    for i in range(len(rows) - 1):
        if not all(map(lt, rows[i], rows[i + 1])):
            raise InvalidTableau(f"column not increasing between rows {i + 1} and {i + 2}")


@dataclass(frozen=True, init=False)
class StandardTableau:
    """A Young tableau with distinct labels increasing along rows and down
    columns.  Labels need not be 1..m; any distinct positive integers work,
    so component tableaux of a multitableau share one label pool.

    Construction checks the rows in one pass (``_is_standard``).  Only an
    input that fails it runs the checks one by one (``_check_rows``):
    nonempty rows, weakly decreasing row lengths, distinct positive labels,
    increasing rows, increasing columns.  So an invalid input raises
    ``InvalidTableau`` with the message of the first check it fails, in
    that order."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        if rows:
            try:
                if _is_standard(rows):
                    return
            except TypeError:  # labels that do not compare: let the checks name it
                pass
            _check_rows(rows)

    @property
    def shape(self) -> Partition:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def labels(self) -> set[int]:
        return {x for row in self.rows for x in row}

    def inversions(self) -> int:
        """Pairs (i, j), j > i, with the box of i in a strictly lower row:
        the inversions of the reading word, the rows read top to bottom
        (``tableau_inversions``)."""
        return tableau_inversions(self.rows)

    def even_row_boxes(self) -> int:
        """Boxes in rows 2, 4, 6, ... (rows are 1-indexed):
        ``rows_even_row_boxes`` of the one component."""
        return rows_even_row_boxes((self.rows,))

    def __str__(self):
        return "/".join(",".join(map(str, row)) for row in self.rows) or "-"


# Tableau and multitableau statistics as functions of row lists (one
# component's ``t.rows``, or ``[t.rows for t in T.components]``), so the
# insertion pass can read them without building tableaux; the
# ``StandardTableau`` and ``Multitableau`` methods call them.
ComponentRows = Sequence[Sequence[Sequence[int]]]


def reading_word(components: ComponentRows) -> list[int]:
    """The labels read row by row, components in order and each
    component's rows top to bottom.  Rows increase, so a pair of labels
    i < j is an inversion of the word exactly when i's row comes after j's
    in (component, row) order: the word's inversions are the multitableau's
    (``rows_inversions``), and for a multitableau, whose labels are 1..n,
    the parity of its inversion count is the word's ``group.parity``."""
    return list(chain.from_iterable(chain.from_iterable(components)))


def tableau_inversions(rows: Sequence[Sequence[int]]) -> int:
    """Inversions of one component given as its row list: pairs (i, j),
    j > i, with the box of i in a strictly lower row, counted as the
    inversions of its ``reading_word``."""
    if len(rows) < 2:  # no two boxes in different rows
        return 0
    return rows_inversions((rows,))


def rows_inversions(components: ComponentRows) -> int:
    """Multitableau inversions: pairs of labels i < j with i's row after
    j's in (component, row) order, counted as the inversions of the
    ``reading_word`` (``group.inversions``, O(n^2) in the worst case)."""
    return inversions(reading_word(components))


def rows_even_row_boxes(components: ComponentRows) -> int:
    """Boxes in rows 2, 4, 6, ... of every component."""
    return sum([len(row) for comp in components for row in comp[1::2]])


def rows_twice_spin(components: ComponentRows) -> int:
    """Twice the spin: sum of k * (boxes of component k)."""
    return sum([k * sum(map(len, comp)) for k, comp in enumerate(components) if k])


def ascending_blocks(classes: Sequence[Sequence[int]]) -> bool:
    """Whether the labels of each nonempty class lie entirely below those
    of the next nonempty class; empty classes are skipped."""
    nonempty = [c for c in classes if c]
    return all(max(a) < min(b) for a, b in zip(nonempty, nonempty[1:]))


def is_component_list(data) -> bool:
    """Whether decoded JSON has the nested list layout of a multitableau: a
    list of components, each a list of rows, each a list."""
    return isinstance(data, list) and all(
        isinstance(comp, list) and all(isinstance(row, list) for row in comp) for comp in data
    )


@dataclass(frozen=True, init=False)
class Multitableau:
    """Standard tableaux, one per color, jointly labeled by exactly 1..n.

    Construction checks the labels in one pass: it sorts the labels of all
    components together and compares them with 1..n, raising
    ``InvalidTableau`` with the sorted labels when they differ.  Each
    component checked its own rows when it was built."""

    components: tuple[StandardTableau, ...]

    def __init__(self, components):
        components = tuple(components)
        object.__setattr__(self, "components", components)
        labels = [x for t in components for row in t.rows for x in row]
        labels.sort()
        if labels != list(range(1, len(labels) + 1)):
            raise InvalidTableau(f"labels must be exactly 1..n, got {labels}")

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return sum(t.size for t in self.components)

    @property
    def shape(self) -> MultiPartition:
        return tuple([t.shape for t in self.components])

    def inversions(self) -> int:
        """Pairs (i, j) of labels, i < j, where i sits in a later component
        than j, or in the same component and a strictly lower row: the sum
        of the component inversions plus, over every pair of components,
        the label pairs split between them.  Counted as the inversions of
        the reading word, the components' rows read in (component, row)
        order (``rows_inversions``).  sign(T) is ``(-1) ** T.inversions()``;
        for the sign alone, ``group.parity`` of the word gives the parity in
        O(n), as ``signs.pi`` reads it."""
        return rows_inversions([t.rows for t in self.components])

    def even_row_boxes(self) -> int:
        return rows_even_row_boxes([t.rows for t in self.components])

    def twice_spin(self) -> int:
        """Twice the spin statistic: sum of k * |sh(T_k)|, always an integer."""
        return rows_twice_spin([t.rows for t in self.components])

    def is_ascending(self) -> bool:
        """Labels of each nonempty component lie entirely below those of the
        next nonempty component; empty components are skipped."""
        return ascending_blocks([t.labels() for t in self.components])

    def to_json(self) -> list:
        return [[list(row) for row in t.rows] for t in self.components]

    @classmethod
    def from_rows(cls, components: ComponentRows) -> "Multitableau":
        """The validated multitableau with one row list per component: each
        component is checked as a ``StandardTableau``, in order, then the
        labels of all of them together.  Every multitableau built from row
        lists is built here."""
        return cls(tuple(map(StandardTableau, components)))

    @classmethod
    def from_json(cls, data: list) -> "Multitableau":
        """Read the nested list layout: a list of components, each a list of
        rows, each a list of integer labels (JSON booleans are not labels)."""
        if not is_component_list(data):
            raise InvalidTableau("expected a list of components of rows")
        for label in chain.from_iterable(chain.from_iterable(data)):
            if not isinstance(label, int) or isinstance(label, bool):
                raise InvalidTableau(f"labels must be integers, got {label!r}")
        return cls.from_rows(data)

    def __str__(self):
        return "(" + " | ".join(str(t) for t in self.components) + ")"


# One leaf of a multipartition's corner search, as ``_corner_search``
# yields it, the search kept as a step list (the shape and its leaves), and
# one standard filling as a row list per component.
CornerLeaf = tuple[int, tuple[tuple[int, int], ...], int | None]
CornerSteps = tuple[MultiPartition, list[CornerLeaf]]
Filling = list[list[list[int]]]


def _corner_search(shape: MultiPartition) -> Iterator[tuple[CornerLeaf, Filling]]:
    """The depth-first corner search over a multipartition, one leaf at a
    time: the leaf's steps, which ``rs._removal_walk`` replays, and its
    standard filling.

    The search puts label n into each corner box of each component in turn,
    then label n-1 into each corner of the boxes still empty, and so on down
    to label 2; label 1 then has one box left, the first box of some
    component.  Each label is the largest of those still to place, so every
    leaf is a standard filling, and every standard filling is one leaf.

    Order: label n's box first, components in order and each component's
    corners top to bottom, then label n-1's, and so on.  Each leaf is
    ``(keep, moves, first)``: the leaf keeps the boxes of labels n, n-1, ...
    of the first ``keep`` of the previous leaf's moves, ``moves`` holds the
    (component, row) of each further label down to 2, and ``first`` is
    label 1's component (None for the empty shape).

    The search writes each label into its box as it places it: label j,
    placed in a row of component k with m boxes still empty, at
    ``rows[k][t][m - 1]``, and label 1 at ``rows[first][0][0]``.  The
    filling yielded with a leaf is that live buffer, valid until the next
    leaf; copy what must outlive it.  The search keeps its own stack, so
    any rank works.
    """
    rows = [[[0] * part for part in lam] for lam in shape]
    flat = [row for comp in rows for row in comp]
    # cells[i]: the (component, row) of flat row i; left[i]: its boxes still
    # without a label, then a 0; under[i]: the flat row below it in its
    # component, or that 0
    cells = [(k, t) for k, lam in enumerate(shape) for t in range(len(lam))]
    left = [part for lam in shape for part in lam] + [0]
    under = [i + 1 if t + 1 < len(shape[k]) else len(cells) for i, (k, t) in enumerate(cells)]
    n = sum(left)
    path: list[int] = []  # the flat row of labels n, n-1, ... as placed
    keep = 0
    i = 0  # where the scan for label n - len(path) resumes
    while True:
        if len(path) < n - 1:
            # the next corner: a row with more boxes left than the row below
            while i < len(cells) and left[i] <= left[under[i]]:
                i += 1
            if i < len(cells):
                m = left[i] = left[i] - 1
                flat[i][m] = n - len(path)
                path.append(i)
                i = 0
                continue
        else:
            first = None
            if n:  # label 1 takes the one box left
                first = cells[left.index(1)][0]
                rows[first][0][0] = 1
            yield (keep, tuple([cells[j] for j in path[keep:]]), first), rows
            keep = len(path)
        if not path:
            return
        i = path.pop()
        left[i] += 1
        keep = min(keep, len(path))
        i += 1


def _corner_steps(shape: MultiPartition) -> tuple[CornerSteps, list[Filling]]:
    """The corner search of a multipartition, run once: its step list, for
    the removal walk of each P of the shape, and a fresh row-list copy of
    each standard filling, in search order."""
    leaves, fillings = [], []
    for leaf, rows in _corner_search(shape):
        leaves.append(leaf)
        fillings.append([[row[:] for row in comp] for comp in rows])
    return (shape, leaves), fillings


def _layout(shape: MultiPartition) -> tuple[int, list[int], list[int], list[int], list[int]] | None:
    """What ``check_fillings`` reads of a shape, in one pass over its rows:
    n, each component's row count, each row's length, and its cover
    relations (a box and the box to its right, or a box and the box below
    it, in one component) as two lists of places in the reading word,
    ``lows[c] < highs[c]`` for cover c.  None when the shape is not a
    multipartition: a part below 1, or longer than the part above it."""
    comp_rows, row_lens, lows, highs = [], [], [], []
    start = 0
    for lam in shape:
        comp_rows.append(len(lam))
        above = None
        for part in lam:
            if part < 1 or (above is not None and part > row_lens[-1]):
                return None
            lows += range(start, start + part - 1)
            highs += range(start + 1, start + part)
            if above is not None:
                lows += range(above, above + part)
                highs += range(start, start + part)
            row_lens.append(part)
            above = start
            start += part
    return start, comp_rows, row_lens, lows, highs


def _block_words(shape: MultiPartition, fillings: Sequence[ComponentRows]) -> list[tuple[int, ...]] | None:
    """The reading words of ``check_fillings``' block, or None at its first
    failing check."""
    layout = _layout(shape)
    if layout is None:
        return None
    n, comp_rows, row_lens, lows, highs = layout
    f = len(fillings)
    comps = list(chain.from_iterable(fillings))
    if list(map(len, fillings)) != [len(shape)] * f or list(map(len, comps)) != comp_rows * f:
        return None
    rows = list(chain.from_iterable(comps))
    if list(map(len, rows)) != row_lens * f:
        return None
    # n references to one iterator: tuples of n labels each
    words = list(zip(*[chain.from_iterable(rows)] * n)) if n else [()] * f
    labels = list(range(1, n + 1))
    if not all(map(labels.__eq__, map(sorted, words))):
        return None
    if len(set(words)) != f:
        return None
    boxes = list(zip(*words))
    if not all(map(all, map(map, repeat(lt), map(boxes.__getitem__, lows), map(boxes.__getitem__, highs)))):
        return None
    return words


def check_fillings(shape: MultiPartition, fillings: Sequence[ComponentRows]) -> list[tuple[int, ...]]:
    """The reading words of a shape's fillings, each given as one row list
    per component, after checking them together as one block, with no
    tableau object (``_block_words``): every filling has the shape's
    component and row lengths, its labels sorted are exactly 1..n (one sort
    per filling), no two fillings are equal (one set of words), and on the
    transposed block, one tuple per box across all fillings, every cover
    relation of the shape (``_layout``) increases, each in one
    ``all(map(lt, ...))``.  So the fillings are distinct standard
    multitableaux of the shape, which must be a multipartition.

    On any failure each filling is built in order with
    ``Multitableau.from_rows``, so the first one that is not a standard
    multitableau raises its ``InvalidTableau`` with its message; a standard
    filling of another shape then raises ``ShapeMismatch``, and a repeated
    filling ``InvalidTableau``, each naming the filling by its index."""
    try:
        words = _block_words(shape, fillings)
    except TypeError:  # labels that do not compare: let the objects name it
        words = None
    if words is not None:
        return words
    built = [Multitableau.from_rows(filling) for filling in fillings]
    first = {}
    for a, T in enumerate(built):
        if T.shape != shape:
            raise ShapeMismatch(f"filling {a} has shape {T.shape}, expected {shape}")
        b = first.setdefault(T, a)
        if b != a:
            raise InvalidTableau(f"filling {a} repeats filling {b}")
    raise InvalidTableau(f"the fillings of {shape} fail the block check")


def standard_tableaux(shape: Partition) -> Iterator[StandardTableau]:
    """All standard tableaux of the given shape, filled with 1..n, in the
    corner-search order of ``_corner_search``."""
    for _, (filling,) in _corner_search((check_partition(shape),)):
        yield StandardTableau(filling)


def standard_multitableaux(shape: MultiPartition) -> Iterator[Multitableau]:
    """All standard multitableaux of the given multipartition shape, in the
    corner-search order of ``_corner_search``."""
    for _, filling in _corner_search(tuple(map(check_partition, shape))):
        yield Multitableau.from_rows(filling)


def count_standard_tableaux(shape: Partition) -> int:
    """Hook length formula for a single shape, in one pass over the rows
    from the bottom up: box j of a row of length m has hook length m - j
    plus the boxes below it, counted per column as the rows go by."""
    shape = check_partition(shape)
    hooks = 1
    below = [0] * (shape[0] if shape else 0)
    for part in reversed(shape):
        for j in range(part):
            hooks *= part - j + below[j]
            below[j] += 1
    return factorial(sum(shape)) // hooks


def count_standard_multitableaux(shape: MultiPartition) -> int:
    """Multinomial label split times the per-component hook length counts.
    An empty component is a factor of 1 in both, so it is skipped: every
    sweep counts each shape it walks, and at r = 3 or 4 most shapes have
    several empty components."""
    total = factorial(sum(map(sum, shape)))
    for lam in shape:
        if lam:
            total = total // factorial(sum(lam)) * count_standard_tableaux(lam)
    return total
