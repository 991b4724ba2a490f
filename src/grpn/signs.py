"""Tableaux-side sign formula and exhaustive verification sweeps.

The tableaux route evaluates a colored permutation's sign character from
its Robinson-Schensted image alone:

    (-1)^{e(P)} * (z^i)^{spin(P)+spin(Q)} * sign(P) * sign(Q)

The group route (``GroupElement.one_dim``) evaluates it from the inversion
count and color sum.  The sweeps check the two routes against each other
over entire groups.  Only e(P), inv(P) + inv(Q) and spin(P) + spin(Q)
enter, so ``pi`` and the structural sweeps read them off the insertion
pass's row lists where no tableau object is needed.

``verify_admissible`` builds validated tableau objects for each swept
element w, and reads each admissible move's image, which the same sweep
validates as its own w, off the row lists.  ``verify_membership`` reads P's
row lists off one prefix-sharing insertion search over G(r,1,n).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ._kernels import get_kernel
from .errors import IndexOutOfRange, NotAscending, ShapeMismatch
from .group import DEFAULT_CAP, GroupElement, GroupParams, OneDimValue, enumerate_group
from .rs import (
    RSPair,
    _insertion_walk,
    _rs_rows,
    ascending_representative,
    is_ascending_element,
    left_admissible,
    right_admissible,
    rs_inverse,
    rs_map,
)
from .tableaux import (
    ComponentRows,
    Multitableau,
    multipartitions,
    rows_even_row_boxes,
    rows_inversions,
    rows_twice_spin,
    standard_multitableaux,
    tableau_inversions,
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


def pi_from_tableaux(P: Multitableau, Q: Multitableau, i: int, r: int) -> OneDimValue:
    if P.shape != Q.shape:
        raise ShapeMismatch(f"{P.shape} != {Q.shape}")
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

    @property
    def passed(self) -> bool:
        return not self.counterexamples

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


def verify_theorem(
    params: GroupParams,
    cap: int = DEFAULT_CAP,
    max_counterexamples: int = 10,
) -> VerificationReport:
    """Check the sign formula for every element of G(r,p,n) and every i."""
    kernel = get_kernel()
    r = params.r
    report = VerificationReport(params, "theorem")
    start = time.perf_counter()
    two_r = 2 * r
    for w in enumerate_group(params, cap=cap):
        inv_sigma, color_sum, e_p, inv_p, inv_q, ts_p, ts_q = kernel(w.perm, w.colors, r)
        spin_sum = (ts_p + ts_q) // 2
        report.elements_checked += 1
        report.i_values_checked += r
        # OneDimValue.code of both values for every i, without building them
        group_half = r * (inv_sigma & 1)
        tab_half = r * ((e_p + inv_p + inv_q) & 1)
        expected = [(2 * i * color_sum + group_half) % two_r for i in range(r)]
        got = [(2 * i * spin_sum + tab_half) % two_r for i in range(r)]
        if expected == got:
            continue
        group_sign, tab_sign = (-1) ** inv_sigma, (-1) ** (e_p + inv_p + inv_q)
        for i in range(r):
            if expected[i] != got[i] and len(report.counterexamples) < max_counterexamples:
                report.counterexamples.append(
                    (
                        w,
                        i,
                        OneDimValue(group_sign, (i * color_sum) % r, r),
                        OneDimValue(tab_sign, (i * spin_sum) % r, r),
                    )
                )
    report.elapsed = time.perf_counter() - start
    return report


def verify_membership(
    params: GroupParams, cap: int = DEFAULT_CAP, max_counterexamples: int = 10
) -> VerificationReport:
    """Subgroup membership matches the spin criterion, both directions.

    Forward: over all of G(r,1,n), membership in G(r,p,n) is equivalent to
    p dividing twice the spin of P.  Backward: every same-shape pair whose
    shape has p-divisible twice-spin reconstructs to a subgroup member.

    The forward pass walks G(r,1,n) as one depth-first insertion search that
    shares prefixes (``rs._insertion_walk``) and reads P's row lists at each
    leaf; it builds a ``GroupElement`` only for a counterexample.  Its
    counterexamples therefore come in walk order, lexicographic in
    (v_1, c_1, v_2, c_2, ...), and the backward pass's follow them.
    """
    r, p, n = params.r, params.p, params.n
    full = GroupParams(r, 1, n)
    report = VerificationReport(params, "membership")
    start = time.perf_counter()
    for perm, colors, p_rows in _insertion_walk(full, cap=cap):
        member = sum(colors) % p == 0
        ts = rows_twice_spin(p_rows)
        report.elements_checked += 1
        report.i_values_checked += 1
        if member != (ts % p == 0) and len(report.counterexamples) < max_counterexamples:
            w = GroupElement(full, tuple(perm), tuple(colors))
            report.counterexamples.append((w, 0, member, ts % p == 0))
    for shape in multipartitions(n, r):
        ts = sum(k * sum(lam) for k, lam in enumerate(shape))
        if ts % p != 0:
            continue
        tableaux = list(standard_multitableaux(shape, cap=n))
        for P in tableaux:
            for Q in tableaux:
                w = rs_inverse(RSPair(P, Q), full)
                report.i_values_checked += 1
                if not w.is_member(p) and len(report.counterexamples) < max_counterexamples:
                    report.counterexamples.append((w, 0, True, False))
    report.elapsed = time.perf_counter() - start
    return report


def _agreements(sign: int, spin_sum: int, w: GroupElement) -> list[bool]:
    """Per i, whether the tableaux-side value of sign data (sign, spin_sum)
    equals ``w.one_dim(i, 1)``, compared as ``OneDimValue.code`` integers."""
    r = w.params.r
    two_r, color_sum = 2 * r, w.color_sum()
    tab_half = r if sign < 0 else 0
    group_half = r if w.perm_sign < 0 else 0
    return [
        (2 * i * spin_sum + tab_half) % two_r == (2 * i * color_sum + group_half) % two_r
        for i in range(r)
    ]


def _move_keeps_invariants(
    fixed: ComponentRows,
    fixed_before: ComponentRows,
    changed: ComponentRows,
    inv_before: int,
    comp_inv_before: list[int],
) -> bool:
    """An admissible move's image, as row lists, against the element's own
    image: the fixed multitableau is unchanged, the other one's inversion
    count moves by exactly one, and each of its components keeps its count."""
    return (
        fixed == fixed_before
        and abs(rows_inversions(changed) - inv_before) == 1
        and [tableau_inversions(comp) for comp in changed] == comp_inv_before
    )


def verify_admissible(
    params: GroupParams, cap: int = DEFAULT_CAP, max_counterexamples: int = 10
) -> VerificationReport:
    """Check the admissible-operator propositions over all of G(r,1,n).

    For every admissible right move: P is fixed, the multitableau inversion
    count of Q changes by exactly one, and each component's count is fixed.
    Symmetrically for left moves and P.  Also checks that the formula-vs-
    character agreement boolean is constant along the passage to the
    ascending representative.

    Each element w is mapped by the validated ``rs_map`` and its statistics
    come from the tableau objects.  A move's image is compared on the row
    lists of one ``_rs_rows`` pass: the image is an element of G(r,1,n)
    too, so the sweep validates its objects where it maps it as its own w,
    and building them again per move would only repeat that work.  The
    ascending representative's sign data is read off row lists likewise.
    The formula and the character are compared for each i as
    ``OneDimValue.code`` integers, as in ``verify_theorem``.
    """
    r, n = params.r, params.n
    full = GroupParams(r, 1, n)
    report = VerificationReport(params, "admissible")
    start = time.perf_counter()

    def record(w, i, expected, got):
        if len(report.counterexamples) < max_counterexamples:
            report.counterexamples.append((w, i, expected, got))

    for w in enumerate_group(full, cap=cap):
        pair = rs_map(w)
        report.elements_checked += 1
        inv_p, inv_q = pair.P.inversions(), pair.Q.inversions()
        comp_inv_p = [c.inversions() for c in pair.P.components]
        comp_inv_q = [c.inversions() for c in pair.Q.components]
        p_rows = [list(map(list, c.rows)) for c in pair.P.components]
        q_rows = [list(map(list, c.rows)) for c in pair.Q.components]
        for i in range(1, n):
            if w.colors[i - 1] != w.colors[i]:
                moved_p, moved_q = _rs_rows(right_admissible(w, i))
                report.i_values_checked += 1
                if not _move_keeps_invariants(moved_p, p_rows, moved_q, inv_q, comp_inv_q):
                    record(w, i, "R-move invariants", "violated")
            pos_i, pos_j = w.perm.index(i), w.perm.index(i + 1)
            if w.colors[pos_i] != w.colors[pos_j]:
                moved_p, moved_q = _rs_rows(left_admissible(w, i))
                report.i_values_checked += 1
                if not _move_keeps_invariants(moved_q, q_rows, moved_p, inv_p, comp_inv_p):
                    record(w, i, "L-move invariants", "violated")
        rep = ascending_representative(w)
        if not is_ascending_element(rep):
            record(w, 0, "ascending representative", "not ascending")
        sign_w, spin_w = _sign_data(
            pair.P.even_row_boxes(), inv_p + inv_q, pair.P.twice_spin() + pair.Q.twice_spin()
        )
        sign_rep, spin_rep = _rows_data(*_rs_rows(rep))
        report.i_values_checked += r
        for i, (agrees_w, agrees_rep) in enumerate(
            zip(_agreements(sign_w, spin_w, w), _agreements(sign_rep, spin_rep, rep))
        ):
            if agrees_w != agrees_rep:
                record(w, i, agrees_w, agrees_rep)
    report.elapsed = time.perf_counter() - start
    return report


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
