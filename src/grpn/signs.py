"""Tableaux-side sign formula and exhaustive verification sweeps.

The tableaux route evaluates a colored permutation's sign character from
its Robinson-Schensted image alone:

    (-1)^{e(P)} * (z^i)^{spin(P)+spin(Q)} * sign(P) * sign(Q)

The group route (``GroupElement.one_dim``) evaluates it from the inversion
count and color sum.  The sweeps check the two routes against each other
over entire groups.  Only e(P), inv(P) + inv(Q) and spin(P) + spin(Q)
enter, so ``pi`` reads them off the insertion pass's row lists where no
tableau object is needed.

Both sides agree for every i exactly when an element's *defect*
(parity, shift) is (0, 0): parity is (inv(sigma) + e(P) + inv(P) + inv(Q))
mod 2 and shift is (spin(P) + spin(Q) - color sum) mod r.  The i at which
the two sides disagree depend on the defect alone (``_disagreeing``), so the
sweeps compare defects and list those i only for a counterexample.

All three sweeps are one walk each: they take every P of every shape and
reconstruct the elements of each P by one prefix-sharing corner-removal
walk (``rs._removal_walk``), so they visit their elements once, by shape,
then by P, then in removal order, without inserting.  Each shape's corner
search runs once (``tableaux._corner_steps``), writing each filling as it
goes: it gives the shape's fillings as row lists and a step list, and each
P's walk replays the steps in that P's own filling rows, leaving them as
it found them.  Each sweep checks the search's filling count against the
hook-length formula (``_checked_steps``), and its element count against
the order of the set it covers, since its coverage rests on the walk
being a bijection.
``verify_theorem`` and ``verify_admissible`` share their per-shape
preparation (``_kept_shapes``): the shapes whose color sum p divides, each
standard filling built once as a validated ``Multitableau`` whose
statistics are read off its methods once, and one leaf per shape mapped
with the validated ``rs_map`` and compared with (P, filling k)
(``_round_trip``).  The one list of fillings is the P side and the Q side:
leaf k of P's walk has Q = filling k.  ``verify_theorem`` calls the kernel
(``_kernels``) per leaf for inv(sigma) and the color sum.
``verify_admissible`` keys every leaf of one shape block (``_shape_block``:
the elements whose P and Q have one shape, which holds every admissible
class and move image of the shape) to its (a, k, defect), with P filling
a and Q filling k; each admissible move is then an index swap on one-line
``(perm, colors)`` tuples whose image is looked up in the block and
compared by filling index, and each representative (``rs._ascend``) is
compared with the class leader built from the element's own invariants.
The sweeps hand the report a counterexample's tuples, and the report
builds the element only if it keeps it.

The three sweeps share one frame, ``_sweep``: it refuses a sweep above its
cap before any work, builds the ``VerificationReport``, times the walk and
sets the report's element and value-check counts.  Each sweep's own body
only walks its elements, records counterexamples and returns those counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from inspect import cleandoc
from math import factorial

from ._kernels import get_kernel, mapped_pair
from .errors import CapExceeded, IndexOutOfRange, NotAscending, ShapeMismatch
from .group import (
    DEFAULT_CAP,
    GroupElement,
    GroupParams,
    OneDimValue,
    inversions,
    require_within_cap,
)
from .rs import _ascend, _left_move, _removal_walk, _right_move, _rs_rows, is_ascending_element

# The sweeps reach ``rs_map`` only through ``_kernels.mapped_pair``; the name
# stays bound here because perfbench's tracer test checks that it wraps
# ``signs.rs_map``.
from .rs import rs_map  # noqa: F401
from .tableaux import (
    ComponentRows,
    Multitableau,
    StandardTableau,
    _corner_steps,
    count_standard_multitableaux,
    multipartitions,
    rows_even_row_boxes,
    rows_inversions,
    rows_twice_spin,
)


def _sign_data(e_p: int, inv_sum: int, twice_spin_sum: int) -> tuple[int, int]:
    """(sign, spin_sum) from e(P), inv(P) + inv(Q) and 2 (spin(P) + spin(Q)):
    all the sign formula reads; just the exponent i * spin_sum depends on i."""
    return (-1 if (e_p + inv_sum) & 1 else 1), twice_spin_sum // 2


def _rows_data(p_rows: ComponentRows, q_rows: ComponentRows) -> tuple[int, int]:
    """``_sign_data`` of a same-shape pair given as per-component row lists."""
    return _sign_data(
        rows_even_row_boxes(p_rows),
        rows_inversions(p_rows) + rows_inversions(q_rows),
        rows_twice_spin(p_rows) + rows_twice_spin(q_rows),
    )


def _defect(perm_sign: int, color_sum: int, sign: int, spin_sum: int, r: int) -> tuple[int, int]:
    """(parity, shift) of the tableaux side's ``_sign_data`` (sign, spin_sum)
    against the group side's (-1)^inv(sigma) and color sum: (0, 0) exactly
    when the two sides agree for every i."""
    return int(sign != perm_sign), (spin_sum - color_sum) % r


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
        data = _rows_data(*_rs_rows(w))
        _last_pi = (w, data)
    sign, spin_sum = data
    return OneDimValue(sign, (i * spin_sum) % r, r)


@dataclass
class VerificationReport:
    params: GroupParams
    kind: str
    elements_checked: int = 0
    i_values_checked: int = 0
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    max_counterexamples: int = 10

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


_CAP_DOC = "Raises ``CapExceeded`` before any work if the sweep is above its cap (``_sweep``)."


def _sweep(walk):
    """The frame of a sweep, written once for all three: ``@_sweep`` on
    ``verify_<kind>(params, report)`` makes the public
    ``verify_<kind>(params, cap=DEFAULT_CAP, max_counterexamples=10)``.

    The walk checks every element, records its counterexamples in
    ``report`` and returns (elements checked, value checks).  The frame
    refuses a sweep above its cap before any work, builds the report, times
    the walk and sets the report's counts and elapsed time.  A count of
    elements checked other than the order of the set the sweep covers,
    G(r,1,n) for membership and G(r,p,n) otherwise, is a counterexample
    ``("G(r,p,n)", 0, "<order> elements", "<checked> checked")``.  It is a plain
    function with its own signature and the walk's docstring, so
    ``inspect.signature`` and ``help`` show the public call."""
    kind = walk.__name__.removeprefix("verify_")

    def sweep(
        params: GroupParams, cap: int = DEFAULT_CAP, max_counterexamples: int = 10
    ) -> VerificationReport:
        require_within_cap(params, cap)
        r, n = params.r, params.n
        order, scaled = r**n * factorial(n), cap * SWEEP_R // r
        if r > SWEEP_R and order > scaled:
            raise CapExceeded(
                f"G({r},1,{n}) has {order} elements, above cap {scaled} "
                f"for a sweep at r={r} (cap {cap} times {SWEEP_R}/r)"
            )
        report = VerificationReport(params, kind, max_counterexamples=max_counterexamples)
        start = time.perf_counter()
        report.elements_checked, report.i_values_checked = walk(params, report)
        # the set the sweep covers: G(r,1,n) for membership, else G(r,p,n)
        p = 1 if kind == "membership" else params.p
        if report.elements_checked != order // p:
            report.record(f"G({r},{p},{n})", 0, f"{order // p} elements", f"{report.elements_checked} checked")
        report.elapsed = time.perf_counter() - start
        return report

    sweep.__name__ = sweep.__qualname__ = walk.__name__
    sweep.__doc__ = f"{cleandoc(walk.__doc__)}\n\n{_CAP_DOC}"
    return sweep


def _fillings(fillings: list) -> list[tuple[Multitableau, int, int, int]]:
    """The row-list fillings of a shape (``tableaux._corner_steps``), each
    as a validated ``Multitableau`` with its e, inv and twice_spin, each
    read off its methods once."""
    out = []
    for rows in fillings:
        T = Multitableau(tuple(StandardTableau(comp) for comp in rows))
        out.append((T, T.even_row_boxes(), T.inversions(), T.twice_spin()))
    return out


def _checked_steps(shape, report: VerificationReport):
    """``tableaux._corner_steps(shape)``, each sweep's one corner search of
    a shape, with its filling count checked against the hook-length count
    ``count_standard_multitableaux(shape)``, which does not use the search.
    Every sweep's coverage rests on the walk being a bijection, so on a
    mismatch this records a counterexample naming the shape and gives no
    fillings, and the sweep skips the shape."""
    steps, rows = _corner_steps(shape)
    count = count_standard_multitableaux(shape)
    if len(rows) != count:
        report.record(f"shape {shape}", 0, f"{count} standard fillings", f"{len(rows)} from the corner search")
        rows = []
    return steps, rows


def _kept_shapes(params: GroupParams, report: VerificationReport):
    """The per-shape preparation of the theorem and admissible sweeps.  For
    each shape in ``multipartitions`` order whose color sum, sum of k *
    |lambda_k|, p divides, it yields the shape's corner search
    (``_checked_steps``): its step list and its fillings as row lists; the
    fillings as ``_fillings`` builds them; and the (a, k) of the round-trip
    leaf, leaf k of P = filling a, which rotates with the shape's index
    (index mod f**2 for f fillings).  Every leaf of a kept shape has its
    color sum, so the leaves of the kept shapes are G(r,p,n), each once."""
    r, p, n = params.r, params.p, params.n
    for index, shape in enumerate(multipartitions(n, r)):
        if sum(k * sum(lam) for k, lam in enumerate(shape)) % p:
            continue
        steps, rows = _checked_steps(shape, report)
        if rows:
            fillings = _fillings(rows)
            yield steps, rows, fillings, divmod(index % len(fillings) ** 2, len(fillings))


def _round_trip(report: VerificationReport, perm, colors, r: int, P: Multitableau, Q: Multitableau) -> None:
    """Map the leaf ``(perm, colors)`` with the validated ``rs_map``: a pair
    other than the walk's (P, Q) is a counterexample ``(w, 0, walk's pair,
    rs_map's pair)``, each pair as text."""
    pair = mapped_pair(perm, colors, r)
    if (pair.P, pair.Q) != (P, Q):
        report.record((perm, colors), 0, f"{P} {Q}", f"{pair.P} {pair.Q}")


@_sweep
def verify_theorem(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Check the sign formula for every element of G(r,p,n) and every i.

    The sweep walks the group by shape, then by P, then in removal order,
    as ``verify_membership`` does, over the shapes ``_kept_shapes`` keeps.
    Each kept shape's corner search runs once (``tableaux._corner_steps``),
    for the shape's fillings as row lists and the step list every P's walk
    replays.  Each filling is built once, as a validated ``Multitableau``
    whose e, inv and twice_spin are read once (``_fillings``), and the one
    list is the P side and the Q side: leaf k of ``rs._removal_walk(P,
    steps)``, walked in P's own filling rows, is ``rs_inverse(RSPair(P,
    filling k))``.

    Per leaf the kernel gives inv(sigma) and the color sum.  A leaf is a
    counterexample when its defect is not (0, 0), and is then reported at
    each i where the character's value (expected) and the formula's (got)
    differ.  With defect (0, 0) a leaf is still a counterexample, reported
    once at i = 0, when its color sum is not exactly twice_spin(P), which a
    walk that puts a value in the wrong component would give.  Once per
    shape one leaf, which rotates with the shape's index, is mapped with
    the validated ``rs_map`` and must give (P, filling k)
    (``_round_trip``).  A ``GroupElement`` is built only for that leaf and
    for a counterexample the report keeps, and counterexamples come by
    shape, then by P, then in walk order."""
    kernel = get_kernel()
    r = params.r
    checked = 0
    for steps, rows, fillings, (mapped_p, mapped_k) in _kept_shapes(params, report):
        for a, ((P, e_p, inv_p, ts_p), p_rows) in enumerate(zip(fillings, rows)):
            mapped = mapped_k if a == mapped_p else -1
            leaves = zip(_removal_walk(p_rows, steps), fillings, strict=True)
            for k, ((perm, colors), (Q, _, inv_q, ts_q)) in enumerate(leaves):
                checked += 1
                inv_sigma, color_sum = kernel(perm, colors, r)
                perm_sign = -1 if inv_sigma & 1 else 1
                sign, spin_sum = _sign_data(e_p, inv_p + inv_q, ts_p + ts_q)
                parity, shift = _defect(perm_sign, color_sum, sign, spin_sum, r)
                if parity or shift:
                    if not report.full:
                        for i in _disagreeing(parity, shift, r):
                            expected = OneDimValue(perm_sign, i * color_sum % r, r)
                            report.record((perm, colors), i, expected, OneDimValue(sign, i * spin_sum % r, r))
                elif color_sum != ts_p:
                    report.record((perm, colors), 0, f"color sum {ts_p}", f"color sum {color_sum}")
                if k == mapped:
                    _round_trip(report, perm, colors, r, P, Q)
    return checked, checked * r


@_sweep
def verify_membership(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Subgroup membership matches the spin criterion, both directions: an
    element of G(r,1,n) lies in G(r,p,n) exactly when p divides twice the
    spin of its insertion multitableau P.

    The sweep is one walk.  For each shape in ``multipartitions`` order it
    runs the shape's corner search once (``_checked_steps``), for the
    shape's fillings as row lists and its step list.  For each P of that
    shape, in search order, it reads the criterion off P's rows
    (``rows_twice_spin``) and walks every Q of P's shape by replaying the
    step list in those rows (``rs._removal_walk``), which it leaves as it
    found them: each
    leaf is ``rs_inverse(RSPair(P, Q))`` at the cost of one reverse bump,
    with no Q built.  The correspondence is a
    bijection, so the leaves are G(r,1,n), each once, and each is checked
    against its own P's criterion: a member whose P fails it, or a
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
    """
    r, p, n = params.r, params.p, params.n
    full = GroupParams(r, 1, n)
    checked = values = 0
    for shape in multipartitions(n, r):
        steps, fillings = _checked_steps(shape, report)
        for p_rows in fillings:
            criterion = rows_twice_spin(p_rows) % p == 0
            for perm, colors in _removal_walk(p_rows, steps):
                member = sum(colors) % p == 0
                checked += 1
                values += 1 + criterion
                if member != criterion and not report.full:
                    report.record(GroupElement(full, tuple(perm), tuple(colors)), 0, member, criterion)
    return checked, values


def _shape_block(steps, rows: list, fillings: list, r: int) -> dict:
    """The shape block of a kept shape: every element whose P and Q have
    the shape, walked by ``rs._removal_walk`` from each P in turn and keyed
    by its one-line data ``(perm, colors)``, as tuples, to ``(a, k,
    defect)``: P is filling a, Q is filling k, and the defect is read off
    inv(sigma), the color sum and the two fillings' statistics.  The dict
    keeps the walk's order, by P and then by leaf."""
    block = {}
    for a, ((_, e_p, inv_p, ts_p), p_rows) in enumerate(zip(fillings, rows)):
        leaves = zip(_removal_walk(p_rows, steps), fillings, strict=True)
        for k, ((perm, colors), (_, _, inv_q, ts_q)) in enumerate(leaves):
            sign, spin_sum = _sign_data(e_p, inv_p + inv_q, ts_p + ts_q)
            perm_sign = -1 if inversions(perm) & 1 else 1
            block[tuple(perm), tuple(colors)] = a, k, _defect(perm_sign, sum(colors), sign, spin_sum, r)
    return block


def _move_kept(entry: tuple, image: tuple | None, fixed: int, invs: list, comps: list) -> bool:
    """An admissible move from the block entry ``entry`` = (a, k, defect)
    to the block entry ``image`` of its image, None when the image is
    outside the block: the filling at ``fixed`` (0 for P, 1 for Q) is
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
    elements whose P and Q have the shape, for f fillings.  The sweep takes
    the shapes ``_kept_shapes`` keeps, as ``verify_theorem`` does, and
    walks each block once (``_shape_block``), keying every leaf's one-line
    data to its (a, k, defect): P is filling a and Q is filling k of the
    shape's validated fillings, whose inversion counts, per-component
    counts and other statistics are read once per shape.  A right move's
    image (``rs._right_move``) must then be (a, k') with |inv Q_k' - inv
    Q_k| = 1 and equal per-component counts, and a left move's
    (``rs._left_move``) (a', k) with the same conditions on P; an image
    outside the block has changed P's or Q's shape.  Each failing move is a
    counterexample ``(w, i, "R-move invariants" or "L-move invariants",
    "violated")``.

    The representative check does not trust the walk: ``rs._ascend``'s
    element must equal the class leader built from w's own invariants, its
    color content and the order of each color's values along its positions
    (positions stably sorted by color, then values stably sorted by
    color), and that leader must be in the block: a representative other
    than the leader is a counterexample ``(w, 0, "ascending
    representative", representative)``, and a leader outside the block
    ``(w, 0, "class leader in the shape block", leader)``.  The agreement
    of formula and character is compared through the two defects: a member
    whose defect differs from its leader's has its ``_disagreeing`` i
    compared with the leader's, and each i where exactly one of the two
    agrees is a counterexample ``(w, i, agrees_w, agrees_leader)``.  Once
    per shape the rotating leaf goes through the validated ``rs_map``
    (``_round_trip``).  The sweep holds one block at a time, and builds a
    ``GroupElement`` only for that leaf and for a counterexample the report
    keeps.  Counterexamples come by shape, then by P, then in walk order.
    """
    r, n = params.r, params.n
    checked = values = 0
    position = [0] * (n + 1)  # position[v]: the 0-based position of value v
    rank = [0] * (n + 1)  # rank[v]: value v's value in the class leader
    for steps, rows, fillings, trip in _kept_shapes(params, report):
        invs = [inv for _, _, inv, _ in fillings]
        comps = [[t.inversions() for t in T.components] for T, *_ in fillings]
        block = _shape_block(steps, rows, fillings, r)
        checked += len(block)
        for (perm, colors), entry in block.items():
            a, k, defect = entry
            if (a, k) == trip:
                _round_trip(report, perm, colors, r, fillings[a][0], fillings[k][0])
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
            # w's class leader from its invariants: values, then positions, stably by color
            for j, v in enumerate(sorted(range(1, n + 1), key=lambda v: colors[position[v]]), start=1):
                rank[v] = j
            leader = tuple([rank[perm[p]] for p in sorted(range(n), key=colors.__getitem__)]), tuple(sorted(colors))
            rep = _ascend(perm, colors)[2]
            if rep != leader and not report.full:
                report.record((perm, colors), 0, "ascending representative", str(GroupElement(params, *rep)))
            lead = block.get(leader)
            if lead is None:
                report.record((perm, colors), 0, "class leader in the shape block", str(GroupElement(params, *leader)))
            elif lead[2] != defect:
                bad, lead_bad = _disagreeing(*defect, r), _disagreeing(*lead[2], r)
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
