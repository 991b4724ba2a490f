"""Partitions, standard Young multitableaux, and their statistics.

A partition is a plain tuple of weakly decreasing positive integers; a
multipartition is an r-tuple of partitions.  Multitableaux carry r
component tableaux jointly labeled by 1..n.  A multipartition's
depth-first corner search (``_corner_search``) gives each leaf as steps
together with its filling, written as the search places each label.  A
sweep runs it once per shape (``_corner_steps``), keeping the steps for
``rs._removal_walk`` and a row-list copy of each filling;
``standard_tableaux`` and ``standard_multitableaux`` wrap the search's
fillings in validated objects, one leaf at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import factorial
from operator import lt
from typing import Iterator, Sequence

from .errors import CapExceeded, InvalidTableau
from .group import inversions

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]

DEFAULT_SHAPE_CAP = 12


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
        """Pairs (i, j), j > i, with the box of i in a strictly lower row
        (see ``tableau_inversions``)."""
        return tableau_inversions(self.rows)

    def even_row_boxes(self) -> int:
        """Boxes in rows 2, 4, 6, ... (rows are 1-indexed)."""
        return sum(map(len, self.rows[1::2]))

    def __str__(self):
        return "/".join(",".join(map(str, row)) for row in self.rows) or "-"


# Tableau and multitableau statistics as functions of row lists (one
# component's ``t.rows``, or ``[t.rows for t in T.components]``), so the
# insertion pass can read them without building tableaux; the
# ``StandardTableau`` and ``Multitableau`` methods call them.
ComponentRows = Sequence[Sequence[Sequence[int]]]


def tableau_inversions(rows: Sequence[Sequence[int]]) -> int:
    """Inversions of one component given as its row list: the inversions of
    the row numbers read in label order."""
    if len(rows) < 2:  # no two boxes in different rows
        return 0
    boxes = sorted((x, t) for t, row in enumerate(rows) for x in row)
    return inversions([t for _, t in boxes])


def rows_inversions(components: ComponentRows) -> int:
    """Multitableau inversions: the inversions of the (component, row) keys
    read in label order, counted in one pass."""
    rows = list(chain.from_iterable(components))
    # a row's place in this list orders it by (component, row)
    keys = [0] * sum(map(len, rows))
    for row_no, row in enumerate(rows):
        for x in row:
            keys[x - 1] = row_no
    return inversions(keys)


def rows_even_row_boxes(components: ComponentRows) -> int:
    """Boxes in rows 2, 4, 6, ... of every component."""
    return sum([len(row) for comp in components for row in comp[1::2]])


def rows_twice_spin(components: ComponentRows) -> int:
    """Twice the spin: sum of k * (boxes of component k)."""
    return sum([k * sum(map(len, comp)) for k, comp in enumerate(components) if k])


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
        the label pairs split between them (see ``rows_inversions``)."""
        return rows_inversions([t.rows for t in self.components])

    def even_row_boxes(self) -> int:
        return rows_even_row_boxes([t.rows for t in self.components])

    def twice_spin(self) -> int:
        """Twice the spin statistic: sum of k * |sh(T_k)|, always an integer."""
        return rows_twice_spin([t.rows for t in self.components])

    def is_ascending(self) -> bool:
        """Labels of each nonempty component lie entirely below those of the
        next nonempty component; empty components are skipped."""
        nonempty = [t.labels() for t in self.components if t.size]
        return all(max(a) < min(b) for a, b in zip(nonempty, nonempty[1:]))

    def to_json(self) -> list:
        return [[list(row) for row in t.rows] for t in self.components]

    @classmethod
    def from_json(cls, data: list) -> "Multitableau":
        """Read the nested list layout: a list of components, each a list of
        rows, each a list of integer labels (JSON booleans are not labels)."""
        if not is_component_list(data):
            raise InvalidTableau("expected a list of components of rows")
        for label in chain.from_iterable(chain.from_iterable(data)):
            if not isinstance(label, int) or isinstance(label, bool):
                raise InvalidTableau(f"labels must be integers, got {label!r}")
        return cls(tuple(StandardTableau(comp) for comp in data))

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


def standard_tableaux(shape: Partition) -> Iterator[StandardTableau]:
    """All standard tableaux of the given shape, filled with 1..n, in the
    corner-search order of ``_corner_search``."""
    for _, (filling,) in _corner_search((check_partition(shape),)):
        yield StandardTableau(filling)


def standard_multitableaux(shape: MultiPartition, cap: int = DEFAULT_SHAPE_CAP) -> Iterator[Multitableau]:
    """All standard multitableaux of the given multipartition shape, in the
    corner-search order of ``_corner_search``."""
    shape = tuple(map(check_partition, shape))
    n = sum(map(sum, shape))
    if n > cap:
        raise CapExceeded(f"rank {n} above cap {cap}")
    for _, filling in _corner_search(shape):
        yield Multitableau(StandardTableau(comp) for comp in filling)


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
