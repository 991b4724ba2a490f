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

``verify_theorem`` and ``verify_membership`` are one walk each: they take
every P of every shape and reconstruct the elements of each P by one
prefix-sharing corner-removal walk (``rs._removal_walk``), so they visit
the group once, by shape, then by P, then in removal order, without
inserting.  Each shape's corner search runs once
(``tableaux._corner_steps``), writing each filling as it goes: it gives
the shape's fillings as row lists and a step list, and each P's walk
replays the steps in that P's own filling rows, leaving them as it found
them.
``verify_theorem`` builds each standard filling of a shape once as a
validated ``Multitableau``, reads its statistics off its methods once,
and uses the same list for the P side and the Q side: leaf k of P's walk
has Q = filling k.  Per leaf it calls the kernel (``_kernels``) for
inv(sigma) and the color sum, and once per shape it maps one leaf with
the validated ``rs_map`` and compares the pair with (P, filling k).
``verify_admissible`` gets every element's P and Q as row lists, and
builds validated tableau objects only for an element whose P rows or Q
rows are new to the store of its color content (``rs._parts``), which
every class of that content shares, so each distinct P and Q is built,
validated and read once per sweep.  It sweeps one admissible class at a
time, on one-line ``(perm, colors)`` tuples: each admissible move is an
index swap whose image, a member of the same class, is looked up in the
class's table, and each class's leader is checked for being ascending on
its tuples (``rs._is_ascending``).  It builds a ``GroupElement`` only for
a first-sight ``rs_map`` call and for a counterexample.  The sweeps hand
the report a counterexample's tuples, and the report builds the element
only if it keeps it.

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
from .rs import (
    _admissible_classes,
    _ascend,
    _insertion_rows,
    _is_ascending,
    _left_move,
    _parts,
    _removal_walk,
    _right_move,
    _rs_rows,
    is_ascending_element,
    rs_map,
)
from .tableaux import (
    ComponentRows,
    Multitableau,
    StandardTableau,
    _corner_steps,
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
        element, or the one-line data ``(perm, colors)`` of one of
        ``params``, which is then built as a ``GroupElement`` only if kept."""
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
    the walk and sets the report's counts and elapsed time.  It is a plain
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


@_sweep
def verify_theorem(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Check the sign formula for every element of G(r,p,n) and every i.

    The sweep walks the group by shape, then by P, then in removal order,
    as ``verify_membership`` does.  A shape is skipped unless p divides its
    color sum, sum of k * |lambda_k|: every leaf of the shape has that color
    sum, so the leaves of the kept shapes are G(r,p,n), each once.  Each
    kept shape's corner search runs once (``tableaux._corner_steps``), for
    the shape's fillings as row lists and the step list every P's walk
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
    the validated ``rs_map`` and must give (P, filling k); a mismatch is a
    counterexample ``(w, 0, walk's pair, rs_map's pair)``, each pair as
    text.  A ``GroupElement``
    is built only for that leaf and for a counterexample the report keeps,
    and counterexamples come by shape, then by P, then in walk order."""
    kernel = get_kernel()
    r, p, n = params.r, params.p, params.n
    checked = 0
    for index, shape in enumerate(multipartitions(n, r)):
        if sum(k * sum(lam) for k, lam in enumerate(shape)) % p:
            continue
        steps, rows = _corner_steps(shape)
        fillings = _fillings(rows)
        mapped_p, mapped_k = divmod(index % len(fillings) ** 2, len(fillings))
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
                    pair = mapped_pair(perm, colors, r)
                    if (pair.P, pair.Q) != (P, Q):
                        report.record((perm, colors), 0, f"{P} {Q}", f"{pair.P} {pair.Q}")
    return checked, checked * r


@_sweep
def verify_membership(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Subgroup membership matches the spin criterion, both directions: an
    element of G(r,1,n) lies in G(r,p,n) exactly when p divides twice the
    spin of its insertion multitableau P.

    The sweep is one walk.  For each shape in ``multipartitions`` order it
    runs the shape's corner search once (``tableaux._corner_steps``), for
    the shape's fillings as row lists and its step list.  For each P of
    that shape, in search order, it reads the criterion off P's rows
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
        steps, fillings = _corner_steps(shape)
        for p_rows in fillings:
            criterion = rows_twice_spin(p_rows) % p == 0
            for perm, colors in _removal_walk(p_rows, steps):
                member = sum(colors) % p == 0
                checked += 1
                values += 1 + criterion
                if member != criterion and not report.full:
                    report.record(GroupElement(full, tuple(perm), tuple(colors)), 0, member, criterion)
    return checked, values


def _class_table(params: GroupParams, members: list[tuple[tuple, tuple]], store: dict) -> dict:
    """What the admissible sweep keeps of every member of one admissible
    class, given as one-line data ``(perm, colors)`` and keyed by it: for
    P, then for Q, its rows, inversion count and per-component counts; then
    the member's (sign, spin_sum).

    ``store`` is the tableau store of the class's color content, which the
    caller shares between every class of that content and adds to here.
    Every member goes through the insertion pass ``_insertion_rows``, and
    ``rs._parts`` gives its P's and Q's statistics from the store: only a
    member whose P rows or Q rows are not yet there is built as a
    ``GroupElement`` and mapped with the validated ``rs_map``, and every
    other member's entry is joined from the stored parts of tableaux that
    were built and validated with exactly its rows.  P depends only on the
    value-color word and Q only on the position-color word, so a class of
    M**2 members has M distinct P's and M distinct Q's: ``rs_map`` runs on
    at most 2M - 1 members, fewer when an earlier class of the content
    already stored some of them, and each tableau's statistics are read
    once per store."""
    table = {}
    for perm, colors in members:
        p_rows, q_rows = _insertion_rows(perm, colors, params.r)
        (kept_p, e_p, ts_p, _), (kept_q, _, ts_q, _) = _parts(
            p_rows, q_rows, store, lambda: rs_map(GroupElement(params, perm, colors))
        )
        table[perm, colors] = kept_p, kept_q, _sign_data(e_p, kept_p[1] + kept_q[1], ts_p + ts_q)
    return table


def _move_kept(table: dict, entry: tuple, moved: tuple, fixed: int) -> bool:
    """An admissible move, from the member whose ``_class_table`` entry is
    ``entry`` to the one-line data ``moved``: ``moved`` is in the class's
    table, the multitableau ``fixed`` (0 for P, 1 for Q) is unchanged, the
    other one's inversion count moves by exactly one, and each of its
    components keeps its count."""
    image = table.get(moved)
    changed = 1 - fixed
    return (
        image is not None
        and image[fixed][0] == entry[fixed][0]
        and abs(image[changed][1] - entry[changed][1]) == 1
        and image[changed][2] == entry[changed][2]
    )


@_sweep
def verify_admissible(params: GroupParams, report: VerificationReport) -> tuple[int, int]:
    """Check the admissible-operator propositions over all of G(r,p,n).

    For every admissible right move: P is fixed, the multitableau inversion
    count of Q changes by exactly one, and each component's count is fixed.
    Symmetrically for left moves and P.  Also checks that each element's
    ascending representative is the ascending element of its class (a
    counterexample gives the representative it got), and that the
    formula-vs-character agreement boolean is the same for both.

    The sweep takes G(r,p,n) one admissible class at a time
    (``rs._admissible_classes``), with the class's ascending element rho
    first, and works on one-line data ``(perm, colors)`` throughout: the
    moves are ``rs._right_move`` and ``rs._left_move`` and the
    representative is ``rs._ascend``, the routines ``right_admissible``,
    ``left_admissible`` and ``ascending_representative`` wrap, and rho's
    ascending check is ``rs._is_ascending``.  A ``GroupElement`` is built
    only for a member ``rs_map`` must map and for a counterexample the
    report keeps.  Moves stay inside a class, so it keeps every member's
    entry in a table keyed by (perm, colors) (``_class_table``); each move's
    image is then looked up there, and an image outside the table has left
    its class, which the move must not do.  Within a class P depends only
    on the value-color word and Q only on the position-color word.  So the
    table runs the insertion pass on every member but the validated
    ``rs_map`` only on a member whose P rows or Q rows are new to the
    store of its color content, the sorted color word every member of a
    class shares: each distinct P and Q is built as a validated
    ``Multitableau`` and its statistics read once per sweep, and every
    other member's entry is joined from those of its two tableaux.  The
    store is replaced whenever the content changes, which is safe because
    component k of every P and Q of one content holds exactly n_k labels,
    so a multitableau never comes up in two contents; and the classes of
    one content come together (``rs._admissible_classes``), so none is
    built twice.  The table holds one class at a time, at most
    multinomial(n; n_k)**2 elements, and the store one content's
    multitableaux, never the whole group.  The
    agreement of formula and character is compared through defects, read
    off inv(sigma) and the color sum: only
    a member whose defect differs from rho's has its ``_disagreeing`` i
    compared with rho's, and each i where exactly one of the two agrees is
    a counterexample ``(w, i, agrees_w, agrees_rho)``.

    Counterexamples come by class and then in member order, not in
    ``enumerate_group`` order; a class whose first element is not ascending
    reports that before its members.
    """
    r, n = params.r, params.n
    checked = values = 0
    position = [0] * (n + 1)  # position[v]: the 0-based position of value v
    content = store = None
    for members in _admissible_classes(params):
        rho = members[0]
        if sorted(rho[1]) != content:  # each content's classes come together
            content, store = sorted(rho[1]), {}
        table = _class_table(params, members, store)
        if not _is_ascending(*rho, r):
            report.record(rho, 0, "ascending representative", "not ascending")
        rho_defect = _defect((-1) ** inversions(rho[0]), sum(rho[1]), *table[rho][2], r)
        for perm, colors in members:
            checked += 1
            entry = table[perm, colors]
            for p, v in enumerate(perm):
                position[v] = p
            for i in range(1, n):
                if colors[i - 1] != colors[i]:
                    values += 1
                    if not _move_kept(table, entry, _right_move(perm, colors, i), 0):
                        report.record((perm, colors), i, "R-move invariants", "violated")
                if colors[position[i]] != colors[position[i + 1]]:
                    values += 1
                    if not _move_kept(table, entry, (_left_move(perm, position, i), colors), 1):
                        report.record((perm, colors), i, "L-move invariants", "violated")
            rep = _ascend(perm, colors)[2]
            if rep != rho and not report.full:
                report.record((perm, colors), 0, "ascending representative", str(GroupElement(params, *rep)))
            values += r
            defect = _defect((-1) ** inversions(perm), sum(colors), *entry[2], r)
            if defect != rho_defect:
                bad, rho_bad = _disagreeing(*defect, r), _disagreeing(*rho_defect, r)
                for i in sorted(set(bad).symmetric_difference(rho_bad)):
                    report.record((perm, colors), i, i not in bad, i not in rho_bad)
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
