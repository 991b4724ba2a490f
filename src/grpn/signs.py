"""Tableaux-side sign formula and exhaustive verification sweeps.

The tableaux route evaluates a colored permutation's sign character from
its Robinson-Schensted image alone:

    (-1)^{e(P)} * (z^i)^{spin(P)+spin(Q)} * sign(P) * sign(Q)

The group route (``GroupElement.one_dim``) evaluates it from the inversion
count and color sum.  The sweeps check the two routes against each other
over entire groups.  Only e(P), inv(P) + inv(Q) and spin(P) + spin(Q)
enter, so ``pi`` reads them off the insertion pass's row lists where no
tableau object is needed.

``verify_admissible`` sweeps one admissible class at a time: it runs the
insertion pass on every member, builds validated tableau objects only for
a member whose P rows or Q rows are new to the class, so each distinct P
and Q is built, validated and read once per class, and looks each
admissible move's image, a member of the same class, up in the class's
table.
``verify_membership`` is one walk: it takes every P of every shape as row
lists and reconstructs the elements of each P by one prefix-sharing
corner-removal search, so it visits G(r,1,n) once, by shape, then by P,
then in removal order, without inserting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ._kernels import get_kernel
from .errors import IndexOutOfRange, NotAscending, ShapeMismatch
from .group import (
    DEFAULT_CAP,
    GroupElement,
    GroupParams,
    OneDimValue,
    enumerate_group,
    require_within_cap,
)
from .rs import (
    RSPair,
    _admissible_classes,
    _removal_walk,
    _rs_rows,
    ascending_representative,
    is_ascending_element,
    left_admissible,
    right_admissible,
    rs_map,
)
from .tableaux import (
    ComponentRows,
    Multitableau,
    _standard_fillings,
    multipartitions,
    rows_even_row_boxes,
    rows_inversions,
    rows_twice_spin,
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
    """Subgroup membership matches the spin criterion, both directions: an
    element of G(r,1,n) lies in G(r,p,n) exactly when p divides twice the
    spin of its insertion multitableau P.

    The sweep is one walk.  For each shape in ``multipartitions`` order and
    each P of that shape in ``_standard_fillings`` order, given as live row
    lists, it reads the criterion off P (``rows_twice_spin``) and walks
    every Q of P's shape as one depth-first corner-removal search
    (``rs._removal_walk``): each leaf is ``rs_inverse(RSPair(P, Q))`` at the
    cost of one reverse bump, with no Q built.  The correspondence is a
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
    independent fact about G(r,p,n).  Raises ``CapExceeded`` as
    ``enumerate_group`` does, before any work.
    """
    require_within_cap(params, cap)
    r, p, n = params.r, params.p, params.n
    full = GroupParams(r, 1, n)
    report = VerificationReport(params, "membership")
    start = time.perf_counter()
    checked = values = 0
    for shape in multipartitions(n, r):
        for p_rows in _standard_fillings(shape):
            criterion = rows_twice_spin(p_rows) % p == 0
            for perm, colors in _removal_walk(p_rows):
                member = sum(colors) % p == 0
                checked += 1
                values += 1 + criterion
                if member != criterion and len(report.counterexamples) < max_counterexamples:
                    w = GroupElement(full, tuple(perm), tuple(colors))
                    report.counterexamples.append((w, 0, member, criterion))
    report.elements_checked, report.i_values_checked = checked, values
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


def _part(T: Multitableau, store: dict) -> tuple:
    """What the admissible sweep keeps of one multitableau: (its rows, its
    inversion count, its per-component counts), then e(T), twice its spin
    and its shape.  Each is a function of the rows alone, so they are read
    off T only the first time its rows appear in ``store``, which P's and
    Q's share; ``_rows_key`` gives the same key from row lists."""
    rows = tuple([t.rows for t in T.components])
    part = store.get(rows)
    if part is None:
        part = store[rows] = (
            (rows, T.inversions(), [tableau_inversions(comp) for comp in rows]),
            T.even_row_boxes(),
            T.twice_spin(),
            T.shape,
        )
    return part


def _rows_key(components: list[list[list[int]]]) -> tuple:
    """The ``_part`` store key of a multitableau given as per-component row
    lists: the rows tuple its ``Multitableau`` would hold."""
    return tuple([tuple(map(tuple, comp)) for comp in components])


def _join(p_part: tuple, q_part: tuple) -> tuple:
    """The ``_entry`` of a pair from the ``_part`` of P and of Q, which must
    have one shape, as ``RSPair`` requires."""
    kept_p, e_p, twice_spin_p, shape = p_part
    kept_q, _, twice_spin_q, q_shape = q_part
    if shape != q_shape:
        raise ShapeMismatch(f"{shape} != {q_shape}")
    return kept_p, kept_q, _sign_data(e_p, kept_p[1] + kept_q[1], twice_spin_p + twice_spin_q)


def _entry(pair: RSPair, store: dict | None = None) -> tuple:
    """What the admissible sweep keeps of one element's Robinson-Schensted
    pair: for P, then for Q, its rows, inversion count and per-component
    counts; then the element's (sign, spin_sum).  The statistics come from
    ``_part`` through ``store``, a fresh one when none is given."""
    if store is None:
        store = {}
    return _join(_part(pair.P, store), _part(pair.Q, store))


def _class_table(members: list[GroupElement]) -> dict:
    """The ``_entry`` of every member of one admissible class, keyed by
    (perm, colors).

    Every member goes through the insertion pass ``_rs_rows``.  Only a member
    whose P rows or Q rows are not yet in the class's store is mapped with
    the validated ``rs_map``, and its ``_entry`` puts them there; every
    other member's entry is joined from the stored parts of tableaux that
    were built and validated with exactly its rows.  P depends only on the
    value-color word and Q only on the position-color word, so a class of
    M**2 members has M distinct P's and M distinct Q's: ``rs_map`` runs on
    at most 2M - 1 members, and each tableau's statistics are read once."""
    store: dict = {}
    table = {}
    for w in members:
        p_rows, q_rows = _rs_rows(w)
        p_part = store.get(_rows_key(p_rows))
        q_part = store.get(_rows_key(q_rows))
        if p_part is None or q_part is None:
            table[w.perm, w.colors] = _entry(rs_map(w), store)
        else:
            table[w.perm, w.colors] = _join(p_part, q_part)
    return table


def _class_agreements(store: dict, sign_data: tuple[int, int], w: GroupElement) -> list[bool]:
    """``_agreements(*sign_data, w)``, computed once per (sign, spin_sum,
    perm_sign, color_sum) in ``store``: all it depends on besides r."""
    key = (*sign_data, w.perm_sign, w.color_sum())
    agrees = store.get(key)
    if agrees is None:
        agrees = store[key] = _agreements(*sign_data, w)
    return agrees


def _move_kept(entry: tuple, image: tuple, fixed: int) -> bool:
    """An admissible move, on the ``_entry`` of an element and of its image:
    the multitableau ``fixed`` (0 for P, 1 for Q) is unchanged, the other
    one's inversion count moves by exactly one, and each of its components
    keeps its count."""
    changed = 1 - fixed
    return (
        image[fixed][0] == entry[fixed][0]
        and abs(image[changed][1] - entry[changed][1]) == 1
        and image[changed][2] == entry[changed][2]
    )


def verify_admissible(
    params: GroupParams, cap: int = DEFAULT_CAP, max_counterexamples: int = 10
) -> VerificationReport:
    """Check the admissible-operator propositions over all of G(r,p,n).

    For every admissible right move: P is fixed, the multitableau inversion
    count of Q changes by exactly one, and each component's count is fixed.
    Symmetrically for left moves and P.  Also checks that each element's
    ascending representative is the ascending element of its class (a
    counterexample gives the representative it got), and that the
    formula-vs-character agreement boolean is the same for both.

    The sweep takes G(r,p,n) one admissible class at a time
    (``rs._admissible_classes``), with the class's ascending element rho
    first.  Moves stay inside a class, so it keeps every member's ``_entry``
    in a table keyed by (perm, colors) (``_class_table``); each move's image
    is then looked up there, and an image outside the table has left its
    class, which the move must not do.  Within a class P depends only on the
    value-color word and Q only on the position-color word.  So the table
    runs the insertion pass on every member but the validated ``rs_map``
    only on a member whose P rows or Q rows are new to the class: each
    distinct P and Q is built as a validated ``Multitableau`` and its
    statistics read once, and every other member's entry is joined from
    those of its two tableaux.  The table holds one class at a time, at
    most multinomial(n; n_k)**2 elements, never the whole group.  The
    formula and the character are compared for each i as
    ``OneDimValue.code`` integers, as in ``verify_theorem``, once per
    distinct (sign, spin_sum, perm_sign, color_sum) in the class.

    Counterexamples come by class and then in member order, not in
    ``enumerate_group`` order; a class whose first element is not ascending
    reports that before its members.
    """
    r, n = params.r, params.n
    report = VerificationReport(params, "admissible")
    start = time.perf_counter()

    def record(w, i, expected, got):
        if len(report.counterexamples) < max_counterexamples:
            report.counterexamples.append((w, i, expected, got))

    checked = values = 0
    value_colors = [0] * (n + 1)  # value_colors[v]: the color at v's position
    for members in _admissible_classes(params, cap=cap):
        table = _class_table(members)
        agreements: dict = {}
        rho = members[0]
        if not is_ascending_element(rho):
            record(rho, 0, "ascending representative", "not ascending")
        rho_agrees = _class_agreements(agreements, table[rho.perm, rho.colors][2], rho)
        for w in members:
            checked += 1
            entry = table[w.perm, w.colors]
            colors = w.colors
            for v, c in zip(w.perm, colors):
                value_colors[v] = c
            for i in range(1, n):
                if colors[i - 1] != colors[i]:
                    moved = right_admissible(w, i)
                    image = table.get((moved.perm, moved.colors))
                    values += 1
                    if image is None or not _move_kept(entry, image, 0):
                        record(w, i, "R-move invariants", "violated")
                if value_colors[i] != value_colors[i + 1]:
                    moved = left_admissible(w, i)
                    image = table.get((moved.perm, moved.colors))
                    values += 1
                    if image is None or not _move_kept(entry, image, 1):
                        record(w, i, "L-move invariants", "violated")
            rep = ascending_representative(w)
            if rep != rho:
                record(w, 0, "ascending representative", str(rep))
            values += r
            agrees = _class_agreements(agreements, entry[2], w)
            for i, (agrees_w, agrees_rho) in enumerate(zip(agrees, rho_agrees)):
                if agrees_w != agrees_rho:
                    record(w, i, agrees_w, agrees_rho)
    report.elements_checked, report.i_values_checked = checked, values
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
