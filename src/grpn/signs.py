"""Tableaux-side sign formula and exhaustive verification sweeps.

The tableaux route evaluates a colored permutation's sign character from
its Robinson-Schensted image alone:

    (-1)^{e(P)} * (z^i)^{spin(P)+spin(Q)} * sign(P) * sign(Q)

The group route (``GroupElement.one_dim``) evaluates it from the parity of
the inversion count and the color sum.  The sweeps check the two routes
against each other over entire groups.  Only e(P), the parity of
inv(P) + inv(Q) and spin(P) + spin(Q) enter.  P and Q share one shape, so
e(P) is one number per shape, and so is spin(P) + spin(Q), which is the
shape's twice_spin, sum of k * |lambda_k|.  ``pi`` reads them off the
insertion pass's row lists where no tableau object is needed, e and
twice_spin off P's rows and the parity from the cycle counts of P's and
Q's reading words.

Both sides agree for every i exactly when an element's *defect*
(parity, shift) is (0, 0): parity is (inv(sigma) + e(P) + inv(P) + inv(Q))
mod 2 and shift is (twice_spin - color sum) mod r, with the twice_spin of
the pair's shape.  The i at which the two sides disagree depend on the
defect alone (``_disagreeing``), so the sweeps compare defects and list
those i only for a counterexample.

The sweeps' traversal is written once.  The shape iterator ``_shapes``
takes the shapes in ``multipartitions`` order, skips a shape unless p
divides its color sum (the membership sweep, which covers G(r,1,n),
passes p = 1), runs each kept shape's corner search once
(``tableaux._corner_steps``: the fillings as row lists and a step list)
and checks the filling count against the hook-length formula, since every
sweep's coverage rests on the walk being a bijection.  Each shape block,
the elements whose P and Q have the shape, is one prefix-sharing
corner-removal walk (``rs._removal_walk``): it checks the block's shape
once, then replays the steps in each P's own filling rows in turn,
component by component, undoes each removal by inserting its value back
into its component, and so leaves the rows as it found them; it
reconstructs every element of the block with one reverse bump per step,
as ``(a, k, perm, colors)`` with P = filling a and Q = filling k.  So
every sweep visits its elements once, by shape, then by P, then in walk
order.

``verify_theorem`` and ``verify_admissible`` read one block stream,
``_blocks``: for each kept shape, its fillings as row lists with its
record ``(invs, e, twice_spin)`` (``_fillings``), with no object per
filling: the fillings are checked together as one block
(``tableaux.check_fillings``), their inversion counts are those of their
reading words, and e and twice_spin, which depend on the shape alone, are
read once, off the first filling's checked rows; the one leaf per shape
mapped with the validated ``rs_map``, whose pair's rows are compared with
those of (P, Q), copied before the walk, and whose P's e and twice_spin
are compared with the record's (``_round_trip``); and the block's walk,
whose leaves each sweep reads directly.  Each of the two sweeps gets the
kernel (``_kernels``) once and calls it on every leaf for inv(sigma) and
the color sum, and computes the leaf's defect inline from those and the
record's numbers, as they are: a shared per-leaf defect helper measured
0.97x the elements per second of the inline form (``perfbench``
sweep-theorem, 2-core x86-64, Python 3.11), about a quarter of what
reading the walk directly gained.
``verify_theorem`` compares each leaf's defect with (0, 0).
``verify_admissible`` keys the leaves of one shape block (which holds
every admissible class and move image of the shape) to (a, k, parity,
shift); each admissible move is then
an index swap on one-line ``(perm, colors)`` tuples whose image is looked
up in the block and compared by filling index, and each representative
(``rs._ascend``) is compared with the class leader built from the
element's own invariants (``rs._class_leader``).  The sweeps hand the
report a counterexample's tuples, and the report builds the element only
if it keeps it.

The three sweeps share one frame, ``_sweep``, which alone owns a sweep's
argument checks and fault boundary: it refuses a ``max_counterexamples``
below 1 and a sweep above its cap, counted on the set the sweep covers,
before any work; it raises a ``GrpnError`` the walk raises after these
checks, a fault of the program and not bad input, as ``RuntimeError``;
and it builds the ``VerificationReport``, times the walk, sets the
report's element and value-check counts and checks the element count
against the covered set's order.  Each sweep's own body only walks its
elements, records counterexamples and returns those counts.
"""

from __future__ import annotations

import time

from ._kernels import get_kernel
from .errors import CapExceeded, GrpnError, IndexOutOfRange, NotAscending, ShapeMismatch
from .group import (
    DEFAULT_CAP,
    GroupElement,
    GroupParams,
    OneDimValue,
    inversions,
    require_within_cap,
)
# renamed: in the sweeps ``parity`` is a leaf's defect parity
from .group import parity as perm_parity
from .rs import _ascend, _class_leader, _insertion_rows, _left_move, _removal_walk, _right_move, is_ascending_element, rs_map
from .tableaux import (
    ComponentRows,
    Multitableau,
    _corner_steps,
    check_fillings,
    count_standard_multitableaux,
    multipartitions,
    reading_word,
    rows_even_row_boxes,
    rows_twice_spin,
    tableau_inversions,
)


def _sign(e_p: int, inv_sum: int) -> int:
    """(-1)^(e(P) + inv(P) + inv(Q)) from e(P) and inv(P) + inv(Q).  Only
    the parity of ``inv_sum`` enters, so any integer with that parity will
    do."""
    return -1 if (e_p + inv_sum) & 1 else 1


def _rows_data(p_rows: ComponentRows, q_rows: ComponentRows) -> tuple[int, int]:
    """(sign, spin_sum) of a same-shape pair given as per-component row
    lists, each labeled by 1..n: all the sign formula reads; just the
    exponent i * spin_sum depends on i.  P and Q share one shape, so e and
    spin_sum = spin(P) + spin(Q), the shape's twice_spin, sum of
    k * |lambda_k|, are read off P's rows.  The parity of inv(P) + inv(Q)
    suffices, and it is read off the cycle counts of the two reading words
    (``group.parity`` of ``tableaux.reading_word``) in O(n), with no
    inversion count."""
    parity = perm_parity(reading_word(p_rows)) + perm_parity(reading_word(q_rows))
    return _sign(rows_even_row_boxes(p_rows), parity), rows_twice_spin(p_rows)


def _disagreeing(parity: int, shift: int, r: int) -> list[int]:
    """The i at which the two sides of an element with defect (parity,
    shift) differ: their ``OneDimValue.code`` integers differ by
    2 i shift + r parity mod 2r."""
    return [i for i in range(r) if (2 * i * shift + r * parity) % (2 * r)]


def pi_from_tableaux(P: Multitableau, Q: Multitableau, i: int, r: int) -> OneDimValue:
    if P.shape != Q.shape:
        raise ShapeMismatch(f"{P.shape} != {Q.shape}")
    if P.r != r:
        raise ShapeMismatch(f"pair has {P.r} components, expected r={r}")
    if not 0 <= i < r:
        raise IndexOutOfRange(f"i={i} not in [0, {r})")
    sign, spin_sum = _rows_data([t.rows for t in P.components], [t.rows for t in Q.components])
    return OneDimValue(sign, (i * spin_sum) % r, r)


# (element, (sign, spin_sum)) of the last element ``pi`` saw.  Keyed by
# identity and holding the element, so a key is never reused; swapped in one
# assignment, so a thread race can only cause a miss.
_last_pi: tuple[GroupElement | None, tuple[int, int]] = (None, (1, 0))


def pi(w: GroupElement, i: int) -> OneDimValue:
    """The tableaux-side value pi_i(w), read off w's Robinson-Schensted image.

    The image's row lists are computed once per element object, by one
    insertion pass without tableau objects: calling ``pi(w, i)`` for every
    i in turn costs one pass.
    """
    global _last_pi
    r = w.params.r
    if not 0 <= i < r:
        raise IndexOutOfRange(f"i={i} not in [0, {r})")
    last, data = _last_pi
    if last is not w:
        data = _rows_data(*_insertion_rows(w.perm, w.colors, r))
        _last_pi = (w, data)
    sign, spin_sum = data
    return OneDimValue(sign, (i * spin_sum) % r, r)


class VerificationReport:
    """What one sweep checked and the counterexamples it kept.  A plain
    mutable record: it compares by identity and has the default repr."""

    def __init__(
        self, params: GroupParams, kind: str, elements_checked: int = 0, i_values_checked: int = 0,
        counterexamples: list | None = None, elapsed: float = 0.0, max_counterexamples: int = 10,
    ):
        self.params = params
        self.kind = kind
        self.elements_checked = elements_checked
        self.i_values_checked = i_values_checked
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.elapsed = elapsed
        self.max_counterexamples = max_counterexamples

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def full(self) -> bool:
        """Whether ``max_counterexamples`` are kept: a sweep need not build
        another counterexample."""
        return len(self.counterexamples) >= self.max_counterexamples

    def record(self, w, i, expected, got) -> None:
        """Keep one counterexample, unless the report is full.  ``w`` is an
        element, the one-line data ``(perm, colors)`` of one of ``params``,
        which is then built as a ``GroupElement`` only if kept, or a text
        naming what a coverage check found short (a shape or a group)."""
        if not self.full:
            w = GroupElement(self.params, *w) if isinstance(w, tuple) else w
            self.counterexamples.append((w, i, expected, got))

    def to_json(self) -> dict:
        return {
            "params": {"r": self.params.r, "p": self.params.p, "n": self.params.n},
            "kind": self.kind,
            "checked": self.elements_checked,
            "i_values_checked": self.i_values_checked,
            "failures": [
                {
                    "element": str(w),
                    "i": i,
                    "expected": expected.to_json() if isinstance(expected, OneDimValue) else expected,
                    "got": got.to_json() if isinstance(got, OneDimValue) else got,
                }
                for w, i, expected, got in self.counterexamples
            ],
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.counterexamples)} counterexamples)"
        return (
            f"verify {self.kind} G({self.params.r},{self.params.p},{self.params.n}): "
            f"{verdict}, {self.elements_checked} elements, "
            f"{self.i_values_checked} value checks, {self.elapsed * 1000:.1f} ms"
        )


# A sweep's work per element grows with r, not only its element count: each
# filling is r component tableaux on the P side and on the Q side, and each
# shape's corner search scans all r components at every label.
# G(100000,1,1) has 10^5 elements but would take hours.  So above SWEEP_R a
# sweep's element cap is scaled down by SWEEP_R / r; at or below it the
# element cap decides alone.
SWEEP_R = 8


def _sweep(walk):
    """The frame of a sweep, written once for all three: ``@_sweep`` on
    ``verify_<kind>(params, report)`` makes the public
    ``verify_<kind>(params, cap=DEFAULT_CAP, max_counterexamples=10)``.

    The walk checks every element, records its counterexamples in
    ``report`` and returns (elements checked, value checks).  Before any
    work the frame refuses a ``max_counterexamples`` below 1 with
    ``ValueError``, and a sweep above its cap with ``CapExceeded``: the cap
    counts the set the sweep covers, G(r,1,n) for membership and G(r,p,n)
    otherwise, and for r above ``SWEEP_R`` it is scaled by ``SWEEP_R``/r.
    A ``GrpnError`` the walk raises after these checks is a fault of the
    program, not of the arguments, and is raised as ``RuntimeError("verify
    <kind> raised <Class> after its argument checks")``, chained from it.
    The frame builds the report, times the walk and sets the report's
    counts and elapsed time.  A count of elements checked other than the
    order of the covered set is a counterexample ``("G(r,p,n)", 0,
    "<order> elements", "<checked> checked")``.  It is a plain function
    with its own signature and the walk's docstring, so
    ``inspect.signature`` and ``help`` show the public call."""
    kind = walk.__name__.removeprefix("verify_")

    def sweep(
        params: GroupParams, cap: int = DEFAULT_CAP, max_counterexamples: int = 10
    ) -> VerificationReport:
        if max_counterexamples < 1:
            # a report that keeps no counterexample would read PASS on a failing sweep
            raise ValueError(f"max_counterexamples={max_counterexamples} is below 1")
        covered = GroupParams(params.r, 1, params.n) if kind == "membership" else params
        require_within_cap(covered, cap)
        r, p, n = covered.r, covered.p, covered.n
        order, scaled = covered.order, cap * SWEEP_R // r
        if r > SWEEP_R and order > scaled:
            raise CapExceeded(
                f"G({r},{p},{n}) has {order} elements, above cap {scaled} "
                f"for a sweep at r={r} (cap {cap} times {SWEEP_R}/r)"
            )
        report = VerificationReport(params, kind, max_counterexamples=max_counterexamples)
        start = time.perf_counter()
        try:
            report.elements_checked, report.i_values_checked = walk(params, report)
        except GrpnError as exc:
            raise RuntimeError(f"verify {kind} raised {type(exc).__name__} after its argument checks") from exc
        if report.elements_checked != order:
            report.record(f"G({r},{p},{n})", 0, f"{order} elements", f"{report.elements_checked} checked")
        report.elapsed = time.perf_counter() - start
        return report

    sweep.__name__ = sweep.__qualname__ = walk.__name__
    sweep.__doc__ = walk.__doc__
    return sweep


def _fillings(shape, rows: list) -> tuple[list[int], int, int]:
    """One record per shape, ``(invs, e, twice_spin)``, from its row-list
    fillings (``tableaux._corner_steps``), with no object per filling: the
    fillings are checked together as one block (``tableaux.check_fillings``,
    which also refuses a repeated filling), and ``invs[a]`` is the
    inversion count of filling a's reading word.  e and twice_spin depend on
    the shape alone, so they are read once, off the first filling's checked
    rows, and checked by ``_round_trip``."""
    invs = list(map(inversions, check_fillings(shape, rows)))
    return invs, rows_even_row_boxes(rows[0]), rows_twice_spin(rows[0])


def _shapes(params: GroupParams, report: VerificationReport, p: int):
    """The shapes a sweep walks: each shape of ``multipartitions(n, r)``
    whose color sum, sum of k * |lambda_k|, p divides, in that order, as
    (its index in that order, the step list of its corner search, its
    fillings as row lists), from one ``tableaux._corner_steps`` call.

    Every sweep's coverage rests on the walk being a bijection, so the
    search's filling count is checked against the hook-length count
    ``count_standard_multitableaux(shape)``, which does not use the search:
    on a mismatch this records a counterexample naming the shape and skips
    the shape."""
    for index, shape in enumerate(multipartitions(params.n, params.r)):
        if sum(k * sum(lam) for k, lam in enumerate(shape)) % p:
            continue
        steps, rows = _corner_steps(shape)
        count = count_standard_multitableaux(shape)
        if len(rows) != count:
            report.record(f"shape {shape}", 0, f"{count} standard fillings", f"{len(rows)} from the corner search")
            continue
        yield index, steps, rows


def _frozen(filling) -> tuple:
    """A filling's rows as one tuple of row tuples per component, as
    ``tuple(t.rows for t in T.components)`` gives them for a
    ``Multitableau`` T."""
    return tuple([tuple(map(tuple, comp)) for comp in filling])


def _blocks(params: GroupParams, report: VerificationReport):
    """The shape blocks of the theorem and admissible sweeps.  For each
    shape ``_shapes`` keeps at p, it yields the shape's fillings as row
    lists with its record, ``(rows, invs, e, twice_spin)``, ``_fillings``
    giving the numbers; its round-trip leaf ``(a, k, P rows, Q rows)``,
    leaf k of P = filling a, which rotates with the shape's index (index
    mod f**2 for f fillings), with the rows of fillings a and k frozen
    (``_frozen``) before any walk, since the walk works in the fillings'
    rows in place; and the walk of its block, ``rs._removal_walk(rows,
    steps)``, not yet started, whose leaves ``(a, k, perm, colors)`` have
    P = filling a and Q = filling k.  Every leaf of a kept shape has its
    color sum, so the leaves of the kept shapes are G(r,p,n), each once."""
    for index, steps, rows in _shapes(params, report, params.p):
        invs, e, twice_spin = _fillings(steps[0], rows)
        a, k = divmod(index % len(rows) ** 2, len(rows))
        trip = a, k, _frozen(rows[a]), _frozen(rows[k])
        yield (rows, invs, e, twice_spin), trip, _removal_walk(rows, steps)


def _round_trip(report: VerificationReport, perm, colors, r: int, e: int, twice_spin: int, p_rows, q_rows) -> None:
    """Map the leaf ``(perm, colors)`` of G(r,1,n), which may be live
    buffers, with the validated ``rs_map`` and compare the pair's rows with
    the walk's (P, Q), given as ``_frozen`` rows: a pair other than the
    walk's is a counterexample ``(w, 0, walk's pair, rs_map's pair)``, each
    pair as text, for which alone the walk's pair is built as objects.
    The record's ``e`` and ``twice_spin``, read off rows, must be the
    validated P's, or the leaf is a counterexample ``(w, 0, "e <e>,
    twice_spin <t>", the same for P)``."""
    pair = rs_map(GroupElement(GroupParams(r, 1, len(perm)), tuple(perm), tuple(colors)))
    if (tuple(t.rows for t in pair.P.components), tuple(t.rows for t in pair.Q.components)) != (p_rows, q_rows):
        walk_pair = f"{Multitableau.from_rows(p_rows)} {Multitableau.from_rows(q_rows)}"
        report.record((perm, colors), 0, walk_pair, f"{pair.P} {pair.Q}")
    if (got := (pair.P.even_row_boxes(), pair.P.twice_spin())) != (e, twice_spin):
        report.record((perm, colors), 0, f"e {e}, twice_spin {twice_spin}", "e {}, twice_spin {}".format(*got))


@_sweep
def verify_theorem(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Check the sign formula for every element of G(r,p,n) and every i.

    The sweep reads each kept shape's block (``_blocks``): by shape, then
    by P, then in removal-walk order, each leaf with its P and Q fillings,
    and computes its defect from the kernel's counts and the shape's
    record; the shift only for an odd parity or a color sum other than
    the shape's twice_spin, since it is 0 otherwise.  A leaf is a
    counterexample when its defect is not (0, 0), and is then reported at
    each i where the character's value (expected) and the formula's (got)
    differ.  With defect (0, 0) a leaf is still a counterexample, reported
    once at i = 0, when its color sum is not exactly the shape's
    twice_spin, which a walk that puts a value in the wrong component
    would give.  Once per shape one leaf, which rotates with the shape's
    index, is mapped with the validated ``rs_map``: its pair's rows must
    be those of (P, filling k), and its P's e and twice_spin the record's
    (``_round_trip``).  A ``GroupElement`` is built only for that leaf and
    for a counterexample the report keeps, and counterexamples come by
    shape, then by P, then in walk order.

    Raises ``ValueError`` if ``max_counterexamples`` is below 1, and
    ``RuntimeError``, chained from the error, if the walk raises a
    ``GrpnError`` after the argument checks.
    Raises ``CapExceeded`` before any work if the sweep is above its cap (``_sweep``)."""
    r, kernel = params.r, get_kernel()
    checked = 0
    for (_, invs, e, twice_spin), (trip_a, trip_k, *trip_rows), walk in _blocks(params, report):
        for a, k, perm, colors in walk:
            checked += 1
            inv_sigma, color_sum = kernel(perm, colors, r)
            parity = (inv_sigma + e + invs[a] + invs[k]) & 1
            if parity or color_sum != twice_spin:
                shift = (twice_spin - color_sum) % r
                if not (parity or shift):
                    report.record((perm, colors), 0, f"color sum {twice_spin}", f"color sum {color_sum}")
                elif not report.full:
                    sign = _sign(e, invs[a] + invs[k])
                    perm_sign = -sign if parity else sign
                    for i in _disagreeing(parity, shift, r):
                        expected = OneDimValue(perm_sign, i * color_sum % r, r)
                        report.record((perm, colors), i, expected, OneDimValue(sign, i * twice_spin % r, r))
            if k == trip_k and a == trip_a:
                _round_trip(report, perm, colors, r, e, twice_spin, *trip_rows)
    return checked, checked * r


@_sweep
def verify_membership(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Subgroup membership matches the spin criterion, both directions: an
    element of G(r,1,n) lies in G(r,p,n) exactly when p divides twice the
    spin of its insertion multitableau P.

    The sweep is one walk per shape block, over every shape (``_shapes``
    at p = 1).  Before the walk it reads the criterion off the first P's
    rows (``rows_twice_spin``), as every P of the block has the shape's
    twice spin; the walk then takes each P of the shape, in
    search order, and walks every Q of P's shape by replaying the step list
    in P's rows (``rs._removal_walk``, in P's own component rows), which
    it leaves as it found them, the same row objects: each leaf is
    ``rs_inverse(RSPair(P, Q))`` at the cost of one reverse bump, with no
    Q built and no row popped.  The correspondence is
    a bijection, so the leaves are G(r,1,n), each once, and each is checked
    against its shape's criterion: a member whose P fails it, or a
    non-member whose P passes it, is a counterexample ``(w, 0, member,
    criterion)``.  A ``GroupElement`` is built only for a counterexample, so
    counterexamples come by shape, then by P, then in removal-walk order.
    Each leaf counts one value check, and a second when its P passes the
    criterion (the reconstruction of a pair whose shape admits members).

    The criterion holds by construction for any Schensted pass that places
    each value in its color's component: component k of P then holds
    exactly the values of color k, so twice the spin of P equals the color
    sum.  What the sweep exercises is the walk's reverse bumping, not an
    independent fact about G(r,p,n).

    Raises ``ValueError`` if ``max_counterexamples`` is below 1, and
    ``RuntimeError``, chained from the error, if the walk raises a
    ``GrpnError`` after the argument checks.
    Raises ``CapExceeded`` before any work if the sweep is above its cap (``_sweep``).
    """
    p, full = params.p, GroupParams(params.r, 1, params.n)
    checked = values = 0
    for _, steps, fillings in _shapes(params, report, 1):
        criterion = rows_twice_spin(fillings[0]) % p == 0
        for _, _, perm, colors in _removal_walk(fillings, steps):
            member = sum(colors) % p == 0
            checked += 1
            values += 1 + criterion
            if member != criterion and not report.full:
                report.record(GroupElement(full, tuple(perm), tuple(colors)), 0, member, criterion)
    return checked, values


def _move_kept(entry: tuple, image: tuple | None, fixed: int, invs: list, comps: list) -> bool:
    """An admissible move from the block entry ``entry`` = (a, k, parity,
    shift) to the block entry ``image`` of its image, None when the image
    is outside the block: the filling at ``fixed`` (0 for P, 1 for Q) is
    unchanged, and the other filling's inversion count (``invs``) moves by
    exactly one while each of its components keeps its count (``comps``)."""
    if image is None or image[fixed] != entry[fixed]:
        return False
    before, after = entry[1 - fixed], image[1 - fixed]
    return abs(invs[after] - invs[before]) == 1 and comps[after] == comps[before]


@_sweep
def verify_admissible(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Check the admissible-operator propositions over all of G(r,p,n).

    For every admissible right move: P is fixed, the multitableau inversion
    count of Q changes by exactly one, and each component's count is fixed.
    Symmetrically for left moves and P.  Also checks that each element's
    ascending representative is the ascending element of its class (a
    counterexample gives the representative it got), and that the
    formula-vs-character agreement boolean is the same for both.

    A right move fixes P and a left move fixes Q, so every admissible
    class, and every move's image, lies in one shape block: the f**2
    elements whose P and Q have the shape, for f fillings.  The sweep reads
    each kept shape's block (``_blocks``), as ``verify_theorem`` does,
    computes each leaf's defect as it does, and keys the block's leaves by
    one-line data to (a, k, parity, shift): P is filling a and Q is
    filling k of the shape's fillings,
    checked as one block, whose inversion counts and per-component counts
    (``tableau_inversions`` on each component's rows) are read once per
    shape, and the block shares one colors tuple per color word.
    A right move's image (``rs._right_move``) must then be (a, k') with
    |inv Q_k' - inv Q_k| = 1 and equal per-component counts, and a left
    move's (``rs._left_move``) (a', k) with the same conditions on P; an
    image outside the block has changed P's or Q's shape.  Each failing
    move is a counterexample ``(w, i, "R-move invariants" or "L-move
    invariants", "violated")``.

    The representative check does not trust the walk: ``rs._ascend``'s
    element must equal the class leader built from w's own invariants, its
    color content and the order of each color's values along its positions
    (``rs._class_leader``: positions stably sorted by color, then values
    stably sorted by the color at their position, read through the
    sweep's own value-to-position array), and that leader must be in the
    block: a representative other than the leader is a counterexample
    ``(w, 0, "ascending representative", representative)``, and a leader
    outside the block ``(w, 0, "class leader in the shape block",
    leader)``.  The agreement
    of formula and character is compared through the two defects: a member
    whose defect differs from its leader's has its ``_disagreeing`` i
    compared with the leader's, and each i where exactly one of the two
    agrees is a counterexample ``(w, i, agrees_w, agrees_leader)``.  Once
    per shape the rotating leaf goes through the validated ``rs_map``
    (``_round_trip``).  The sweep holds one block at a time, and builds a
    ``GroupElement`` only for that leaf and for a counterexample the report
    keeps.  Counterexamples come by shape, then by P, then in walk order.

    Raises ``ValueError`` if ``max_counterexamples`` is below 1, and
    ``RuntimeError``, chained from the error, if the walk raises a
    ``GrpnError`` after the argument checks.
    Raises ``CapExceeded`` before any work if the sweep is above its cap (``_sweep``).
    """
    r, n, kernel = params.r, params.n, get_kernel()
    checked = values = 0
    position = [0] * (n + 1)  # position[v]: the 0-based position of value v
    for (rows, invs, e, twice_spin), (trip_a, trip_k, *trip_rows), walk in _blocks(params, report):
        comps = [list(map(tableau_inversions, filling)) for filling in rows]
        block, words = {}, {}
        for a, k, perm, colors in walk:
            inv_sigma, color_sum = kernel(perm, colors, r)
            parity, shift = (inv_sigma + e + invs[a] + invs[k]) & 1, (twice_spin - color_sum) % r
            colors = tuple(colors)
            block[tuple(perm), words.setdefault(colors, colors)] = a, k, parity, shift
        checked += len(block)
        for (perm, colors), entry in block.items():
            a, k, parity, shift = entry
            if k == trip_k and a == trip_a:
                _round_trip(report, perm, colors, r, e, twice_spin, *trip_rows)
            for p, v in enumerate(perm):
                position[v] = p
            for i in range(1, n):
                if colors[i - 1] != colors[i]:
                    values += 1
                    if not _move_kept(entry, block.get(_right_move(perm, colors, i)), 0, invs, comps):
                        report.record((perm, colors), i, "R-move invariants", "violated")
                if colors[position[i]] != colors[position[i + 1]]:
                    values += 1
                    if not _move_kept(entry, block.get((_left_move(perm, position, i), colors)), 1, invs, comps):
                        report.record((perm, colors), i, "L-move invariants", "violated")
            values += r
            leader = _class_leader(perm, colors, position)
            rep = _ascend(perm, colors)[2]
            if rep != leader and not report.full:
                report.record((perm, colors), 0, "ascending representative", str(GroupElement(params, *rep)))
            lead = block.get(leader)
            if lead is None:
                report.record((perm, colors), 0, "class leader in the shape block", str(GroupElement(params, *leader)))
            elif lead[2:] != entry[2:]:
                bad, lead_bad = _disagreeing(parity, shift, r), _disagreeing(*lead[2:], r)
                for i in sorted(set(bad).symmetric_difference(lead_bad)):
                    report.record((perm, colors), i, i not in bad, i not in lead_bad)
    return checked, values


def decompose_ascending(w: GroupElement) -> list[GroupElement]:
    """Factor an ascending element as u_0 * ... * u_{r-1} * u_r.

    For k < r, u_k is the permutation of the k-th value block with zero
    colors; u_r is the identity permutation carrying w's colors.  The
    factors multiply back to w.
    """
    if not is_ascending_element(w):
        raise NotAscending(str(w))
    params, n, r = w.params, w.params.n, w.params.r
    factors = []
    for k in range(r):
        perm = list(range(1, n + 1))
        for pos, (value, color) in enumerate(zip(w.perm, w.colors), start=1):
            if color == k:
                perm[pos - 1] = value
        factors.append(GroupElement(params, tuple(perm), (0,) * n))
    factors.append(GroupElement(params, tuple(range(1, n + 1)), w.colors))
    return factors
