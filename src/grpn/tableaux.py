"""Partitions, standard Young multitableaux, and their statistics.

A partition is a plain tuple of weakly decreasing positive integers; a
multipartition is an r-tuple of partitions.  Multitableaux carry r
component tableaux jointly labeled by 1..n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import chain
from math import factorial
from operator import lt
from typing import Iterator, Sequence

from .errors import CapExceeded, InvalidTableau, OverlappingLabels
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
    """All r-tuples of partitions of total rank n."""
    if r == 0:
        if n == 0:
            yield ()
        return
    for m in range(n + 1):
        for head in partitions(m):
            for tail in multipartitions(n - m, r - 1):
                yield (head,) + tail


@dataclass(frozen=True)
class StandardTableau:
    """A Young tableau with distinct labels increasing along rows and down
    columns.  Labels need not be 1..m; any distinct positive integers work,
    so component tableaux of a multitableau share one label pool."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows:  # every check below holds vacuously
            return
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

    @property
    def shape(self) -> Partition:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def labels(self) -> set[int]:
        return {x for row in self.rows for x in row}

    def row_index(self) -> dict[int, int]:
        """Map label -> 1-based row number."""
        return {x: i + 1 for i, row in enumerate(self.rows) for x in row}

    def inversions(self) -> int:
        """Pairs (i, j), j > i, with the box of i in a strictly lower row
        (see ``tableau_inversions``)."""
        return tableau_inversions(self.rows)

    def even_row_boxes(self) -> int:
        """Boxes in rows 2, 4, 6, ... (rows are 1-indexed)."""
        return sum(map(len, self.rows[1::2]))

    def __str__(self):
        return "/".join(",".join(map(str, row)) for row in self.rows) or "-"


def cross_inversions(t_earlier: StandardTableau, t_later: StandardTableau) -> int:
    """Pairs (j, i) with j a label of the earlier component, i of the later,
    and j > i."""
    a, b = t_earlier.labels(), t_later.labels()
    if a & b:
        raise OverlappingLabels(f"components share labels {sorted(a & b)}")
    return sum(1 for j in a for i in b if j > i)


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


@dataclass(frozen=True)
class Multitableau:
    components: tuple[StandardTableau, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        labels = sorted(chain.from_iterable(chain.from_iterable(t.rows for t in self.components)))
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
        of the component inversions plus ``cross_inversions`` over every
        pair of components (see ``rows_inversions``)."""
        return rows_inversions([t.rows for t in self.components])

    def sign(self) -> int:
        return (-1) ** self.inversions()

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
        if not (
            isinstance(data, list)
            and all(isinstance(comp, list) and all(isinstance(row, list) for row in comp) for comp in data)
        ):
            raise InvalidTableau("expected a list of components of rows")
        for label in chain.from_iterable(chain.from_iterable(data)):
            if not isinstance(label, int) or isinstance(label, bool):
                raise InvalidTableau(f"labels must be integers, got {label!r}")
        return cls(tuple(StandardTableau(comp) for comp in data))

    def __str__(self):
        return "(" + " | ".join(str(t) for t in self.components) + ")"


def standard_tableaux(shape: Partition, labels: Sequence[int] | None = None) -> Iterator[StandardTableau]:
    """All standard tableaux of the given shape, filled with the given label
    set (default 1..n) in the order-preserving way."""
    shape = check_partition(shape)
    n = sum(shape)
    pool = sorted(labels) if labels is not None else list(range(1, n + 1))
    if len(pool) != n:
        raise InvalidTableau(f"need {n} labels, got {len(pool)}")
    for filling in _standard_fillings(shape):
        yield StandardTableau(
            tuple(tuple(pool[k - 1] for k in row) for row in filling)
        )


def _standard_fillings(shape: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Standard fillings with 1..n, built by removing n from a corner."""
    n = sum(shape)
    if n == 0:
        yield ()
        return
    rows = list(shape)
    for i in range(len(rows)):
        is_corner = rows[i] > 0 and (i + 1 == len(rows) or rows[i] > rows[i + 1])
        if not is_corner:
            continue
        smaller = rows[:i] + ([rows[i] - 1] if rows[i] > 1 else []) + rows[i + 1 :]
        for sub in _standard_fillings(tuple(smaller)):
            filled = [list(row) for row in sub]
            while len(filled) <= i:
                filled.append([])
            filled[i].append(n)
            yield tuple(tuple(row) for row in filled if row)


def standard_multitableaux(shape: MultiPartition, cap: int = DEFAULT_SHAPE_CAP) -> Iterator[Multitableau]:
    """All standard multitableaux of the given multipartition shape."""
    sizes = [sum(lam) for lam in shape]
    n = sum(sizes)
    if n > cap:
        raise CapExceeded(f"rank {n} above cap {cap}")
    remaining = set(range(1, n + 1))
    yield from _assemble(tuple(shape), sizes, remaining)


def _assemble(shape: MultiPartition, sizes: list[int], remaining: set[int]) -> Iterator[Multitableau]:
    for split in _label_splits(sorted(remaining), sizes):
        comps = [
            list(standard_tableaux(lam, labels=lab)) if lam else [StandardTableau(())]
            for lam, lab in zip(shape, split)
        ]
        for combo in itertools.product(*comps):
            yield Multitableau(tuple(combo))


def _label_splits(pool: list[int], sizes: list[int]) -> Iterator[list[list[int]]]:
    if not sizes:
        if not pool:
            yield []
        return
    head, rest = sizes[0], sizes[1:]
    for chosen in itertools.combinations(pool, head):
        left = [x for x in pool if x not in chosen]
        for tail in _label_splits(left, rest):
            yield [list(chosen)] + tail


def count_standard_tableaux(shape: Partition) -> int:
    """Hook length formula for a single shape."""
    shape = check_partition(shape)
    n = sum(shape)
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return factorial(n) // hooks


def count_standard_multitableaux(shape: MultiPartition) -> int:
    """Multinomial label split times the per-component hook length counts."""
    sizes = [sum(lam) for lam in shape]
    n = sum(sizes)
    total = factorial(n)
    for m in sizes:
        total //= factorial(m)
    for lam in shape:
        total *= count_standard_tableaux(lam)
    return total
