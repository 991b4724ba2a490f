"""The fast statistics against their direct definitions.

Each oracle here is the straightforward pairwise or object-level
definition that the library computes by a faster route: the O(n^2)
inversion count, the within-plus-cross multitableau count on row lists,
Schensted row insertion by a linear scan (``row_insert``), OneDimValue
canonical forms, move-by-move replay of the ascending moves, and the
tableau-object route to the sign formula's statistics and to the
admissible-move checks, per-label reverse bumping by a linear scan
(``reverse_bump``) and ``enumerate_group`` for the removal walk, for
``rs_inverse``, its one-leaf case, and for the theorem sweep's order, every arrangement of the labels for the standard
fillings, and the two invariants of a move (color content and within-color
orders) for the admissible classes.
"""

import bisect
import copy
import random
import re
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, islice, permutations, product
from math import factorial, prod

import pytest

from grpn import group as group_module
from grpn import rs as rs_module
from grpn import signs
from grpn import tableaux as tableaux_module
from grpn.cli import main as cli_main
from grpn.errors import CapExceeded, GrpnError, InvalidTableau, NotAMember, NotAPermutation, ShapeMismatch
from grpn.group import (
    GroupElement,
    GroupParams,
    OneDimValue,
    enumerate_group,
    generator,
    inversions,
    parity,
)
from grpn.rs import (
    RSPair,
    _insertion_rows,
    _removal_walk,
    apply_moves,
    ascending_moves,
    ascending_representative,
    is_ascending_element,
    left_admissible,
    right_admissible,
    rs_inverse,
    rs_map,
)
from grpn.signs import pi_from_tableaux
from grpn.tableaux import (
    Multitableau,
    StandardTableau,
    _corner_search,
    _corner_steps,
    _is_standard,
    check_fillings,
    count_standard_multitableaux,
    count_standard_tableaux,
    multipartitions,
    partitions,
    reading_word,
    rows_even_row_boxes,
    rows_inversions,
    rows_twice_spin,
    standard_multitableaux,
    tableau_inversions,
)


def pairwise_inversions(keys):
    n = len(keys)
    return sum(1 for a in range(n) for b in range(a + 1, n) if keys[a] > keys[b])


def within_plus_cross(T):
    """Inversions of each component's row numbers, plus the pairs (j, i),
    j > i, with j in an earlier component than i."""
    comps = [t.rows for t in T.components]
    within = sum(pairwise_inversions(row_numbers(rows)) for rows in comps)
    labels = [[x for row in rows for x in row] for rows in comps]
    cross = sum(
        1 for earlier, later in combinations(labels, 2) for j in earlier for i in later if j > i
    )
    return within + cross


def row_numbers(rows):
    """The 1-based row number of each label of one component, by label."""
    row_of = {x: t for t, row in enumerate(rows, start=1) for x in row}
    return [row_of[x] for x in sorted(row_of)]


def object_stats(T):
    """e, inv and twice-spin of a multitableau, component by component."""
    return (
        sum(t.even_row_boxes() for t in T.components),
        within_plus_cross(T),
        sum(k * t.size for k, t in enumerate(T.components)),
    )


def row_insert(rows, x):
    """Schensted row insertion of x into the row list ``rows``, in place:
    x takes the place of the first larger entry of a row, which moves on to
    the next row, until one is appended at a row's end.  Returns the 1-based
    row of the appended box."""
    for t, row in enumerate(rows, start=1):
        larger = [j for j, y in enumerate(row) if y > x]
        if not larger:
            row.append(x)
            return t
        x, row[larger[0]] = row[larger[0]], x
    rows.append([x])
    return len(rows)


def row_insert_image(w):
    """P and Q row lists of w, built by ``row_insert`` one entry at a time."""
    P = [[] for _ in range(w.params.r)]
    Q = [[] for _ in range(w.params.r)]
    for i, (x, k) in enumerate(zip(w.perm, w.colors), start=1):
        row = row_insert(P[k], x)
        if row > len(Q[k]):
            Q[k].append([])
        Q[k][row - 1].append(i)
    return P, Q


def check_row_route(w):
    """The row-list statistics and (sign, spin_sum) of w against rs_map's
    objects, their methods and the component-by-component definitions."""
    p_rows, q_rows = _insertion_rows(w.perm, w.colors, w.params.r)
    pair = rs_map(w)
    expected = {}
    for name, rows, T in (("P", p_rows, pair.P), ("Q", q_rows, pair.Q)):
        assert rows == [[list(row) for row in t.rows] for t in T.components]
        expected[name] = object_stats(T)
        got = (rows_even_row_boxes(rows), rows_inversions(rows), rows_twice_spin(rows))
        assert got == expected[name], (str(w), name)
        assert (T.even_row_boxes(), T.inversions(), T.twice_spin()) == expected[name]
    (e_p, inv_p, ts_p), (_, inv_q, ts_q) = expected["P"], expected["Q"]
    data = ((-1) ** (e_p + inv_p + inv_q), (ts_p + ts_q) // 2)
    assert signs._rows_data(p_rows, q_rows) == data, str(w)
    r = w.params.r
    for i in range(r):
        assert pi_from_tableaux(pair.P, pair.Q, i, r) == OneDimValue(data[0], (i * data[1]) % r, r)


def random_element(rng, n, r):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return GroupElement(GroupParams(r, 1, n), tuple(perm), tuple(rng.randrange(r) for _ in range(n)))


def test_inversions_match_pairwise_definition_with_repeated_keys():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(0, 40)
        keys = [rng.randint(0, rng.choice((1, 3, 10, 100))) for _ in range(n)]
        assert inversions(keys) == pairwise_inversions(keys), keys
    assert inversions([2, 2, 2]) == 0
    assert inversions([(1, 0), (0, 2), (0, 2)]) == 2


def test_tableau_inversions_match_pairwise_definition():
    for r, n in ((1, 6), (2, 5), (3, 4)):
        for shape in multipartitions(n, r):
            for T in standard_multitableaux(shape):
                for t in T.components:
                    assert t.inversions() == pairwise_inversions(row_numbers(t.rows))


@pytest.mark.parametrize("r,n", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_multitableau_inversions_over_all_small_shapes(r, n):
    for shape in multipartitions(n, r):
        for T in standard_multitableaux(shape):
            assert T.inversions() == within_plus_cross(T), T


def test_multitableau_inversions_on_rs_images_up_to_rank_64():
    rng = random.Random(11)
    for _ in range(150):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        pair = rs_map(w)
        assert pair.P.inversions() == within_plus_cross(pair.P), w
        assert pair.Q.inversions() == within_plus_cross(pair.Q), w


@pytest.mark.parametrize("r", range(1, 13))
def test_code_equality_matches_canonical_forms(r):
    values = [OneDimValue(sign, k, r) for sign in (1, -1) for k in range(r)]
    for u in values:
        assert 0 <= u.code < 2 * r
        for v in values:
            assert (u.code == v.code) == (u.canonical() == v.canonical()), (u, v)
            assert (u == v) == (u.canonical() == v.canonical())
            if u == v:
                assert hash(u) == hash(v)


def test_values_of_different_moduli_differ():
    assert OneDimValue(1, 0, 2) != OneDimValue(1, 0, 4)
    assert OneDimValue(-1, 0, 2) != OneDimValue(1, 2, 4)


def test_ascending_representative_replays_its_moves():
    rng = random.Random(5)
    for _ in range(200):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        assert ascending_representative(w) == apply_moves(w, ascending_moves(w)), w


def leader_oracle_elements():
    """Every element of G(2,1,5), G(3,1,4) and G(4,2,4), then 60 seeded
    random elements of rank 64."""
    for params in (GroupParams(2, 1, 5), GroupParams(3, 1, 4), GroupParams(4, 2, 4)):
        yield from enumerate_group(params)
    rng = random.Random(41)
    for _ in range(60):
        yield random_element(rng, 64, rng.choice((2, 4, 8)))


def test_class_leader_is_where_the_ascending_moves_lead():
    """``rs._class_leader``, two stable sorts with no move, against the
    replay of w's ascending moves, and ``ascending_representative``, which
    returns its element."""
    for w in leader_oracle_elements():
        position = [0] * (w.params.n + 1)
        for p, v in enumerate(w.perm):
            position[v] = p
        leader = rs_module._class_leader(w.perm, w.colors, position)
        assert type(leader[0]) is type(leader[1]) is tuple
        rho = apply_moves(w, ascending_moves(w))
        assert leader == (rho.perm, rho.colors) and ascending_representative(w) == rho, str(w)


def test_sweep_reports_a_broken_kernel(monkeypatch):
    """A kernel with the wrong sign of the permutation must fail the sweep
    at every i, with the counterexamples still given as values, in the
    sweep's order."""
    kernel = signs.get_kernel()

    def flipped(perm, colors, r):
        inv_sigma, *rest = kernel(perm, colors, r)
        return (inv_sigma + 1, *rest)

    monkeypatch.setattr(signs, "get_kernel", lambda: flipped)
    params = GroupParams(3, 1, 3)
    report = signs.verify_theorem(params, max_counterexamples=10)
    assert not report.passed
    assert report.elements_checked == params.order
    assert report.i_values_checked == params.order * params.r
    assert len(report.counterexamples) == 10
    first, second, *_ = (w for w, _, _ in theorem_leaves(params))
    assert [c[:2] for c in report.counterexamples[:4]] == [(first, 0), (first, 1), (first, 2), (second, 0)]
    for w, i, expected, got in report.counterexamples:
        assert isinstance(expected, OneDimValue) and isinstance(got, OneDimValue)
        assert got == w.one_dim(i, 1)
        assert expected == OneDimValue(-got.sign, got.exponent, params.r)
    data = report.to_json()
    assert [f["i"] for f in data["failures"]] == [i for _, i, _, _ in report.counterexamples]
    assert data["failures"][0]["expected"] == {"sign": -1, "exponent": 0}
    assert data["failures"][0]["got"] == {"sign": 1, "exponent": 0}


def test_sweep_reports_a_color_sum_off_by_r(monkeypatch):
    """A color sum off by exactly r leaves every defect at (0, 0), and is
    still a counterexample: once per leaf, at i = 0, against twice_spin(P)."""
    kernel = signs.get_kernel()

    def off_by_r(perm, colors, r):
        inv_sigma, color_sum = kernel(perm, colors, r)
        return inv_sigma, color_sum + r

    monkeypatch.setattr(signs, "get_kernel", lambda: off_by_r)
    params = GroupParams(4, 2, 3)
    report = signs.verify_theorem(params, max_counterexamples=10**4)
    assert report.elements_checked == params.order
    assert report.counterexamples == [
        (w, 0, f"color sum {P.twice_spin()}", f"color sum {P.twice_spin() + 4}")
        for w, P, _ in theorem_leaves(params)
    ]


def test_sweep_reports_a_round_trip_that_disagrees(monkeypatch):
    """The one leaf per shape that goes through ``rs_map``: a pair other
    than (P, filling k) is a counterexample naming both pairs, and it is the
    only one."""
    params = GroupParams(2, 1, 3)
    mapped, real = [], signs.rs_map

    def swapped(w):
        pair = real(w)
        mapped.append((w, pair))
        return RSPair(pair.Q, pair.P)

    monkeypatch.setattr(signs, "rs_map", swapped)
    report = signs.verify_theorem(params, max_counterexamples=100)
    assert report.elements_checked == params.order
    assert len(mapped) == len(list(multipartitions(3, 2)))
    assert report.counterexamples == [
        (w, 0, f"{pair.P} {pair.Q}", f"{pair.Q} {pair.P}") for w, pair in mapped if pair.P != pair.Q
    ]
    assert report.counterexamples


@pytest.mark.parametrize("kind", ["theorem", "admissible"])
def test_sweep_compares_the_record_with_its_round_trip(monkeypatch, kind):
    """The shape record's e and twice_spin, which ``_fillings`` reads off
    the first filling's rows, are compared with the ``Multitableau``
    methods of the validated ``rs_map`` pair of the round trip.  A clean
    sweep calls those statistics exactly twice per kept shape.  With e off
    by one in the record, each kept shape's round-trip leaf, leaf k of P =
    filling a for (a, k) = divmod(index mod f**2, f), is a counterexample
    naming both records; the theorem sweep also fails every leaf's parity
    at every i, and the admissible sweep, whose defects all move alike,
    reports nothing else."""
    params = GroupParams(4, 2, 3)
    sweep = getattr(signs, f"verify_{kind}")
    calls = []
    for name in ("inversions", "even_row_boxes", "twice_spin"):
        method = getattr(Multitableau, name)
        monkeypatch.setattr(Multitableau, name, lambda T, m=method: calls.append(m) or m(T))
    assert sweep(params).passed
    trips = []
    for index, shape in enumerate(multipartitions(params.n, params.r)):
        if shape_criterion(shape, params.p):
            fillings = _corner_steps(shape)[1]
            a, k = divmod(index % len(fillings) ** 2, len(fillings))
            P, Q = (Multitableau.from_rows(fillings[b]) for b in (a, k))
            e, ts = rows_even_row_boxes(fillings[a]), rows_twice_spin(fillings[a])
            trips.append((rs_inverse(RSPair(P, Q), params), e, ts))
    assert len(calls) == 2 * len(trips)

    real = signs.rows_even_row_boxes
    monkeypatch.setattr(signs, "rows_even_row_boxes", lambda rows: real(rows) + 1)
    report = sweep(params, max_counterexamples=10**6)
    assert report.elements_checked == params.order
    expected = [(w, 0, f"e {e + 1}, twice_spin {ts}", f"e {e}, twice_spin {ts}") for w, e, ts in trips]
    assert [c for c in report.counterexamples if isinstance(c[2], str)] == expected
    parities = [c for c in report.counterexamples if not isinstance(c[2], str)]
    assert len(parities) == (params.order * params.r if kind == "theorem" else 0)


def test_sweep_reports_only_the_failing_i(monkeypatch):
    """Color sums off by r/2 disagree at odd i only."""
    kernel = signs.get_kernel()

    def shifted(perm, colors, r):
        inv_sigma, color_sum, *rest = kernel(perm, colors, r)
        return (inv_sigma, color_sum + r // 2, *rest)

    monkeypatch.setattr(signs, "get_kernel", lambda: shifted)
    params = GroupParams(4, 2, 3)
    report = signs.verify_theorem(params, max_counterexamples=1000)
    assert report.i_values_checked == params.order * params.r
    assert len(report.counterexamples) == params.order * 2
    assert {i for _, i, _, _ in report.counterexamples} == {1, 3}
    for w, i, expected, got in report.counterexamples:
        assert got == w.one_dim(i, 1) != expected
    assert len(report.to_json()["failures"]) == len(report.counterexamples)


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4)])
def test_row_route_matches_objects_over_whole_groups(r, n):
    for w in enumerate_group(GroupParams(r, 1, n)):
        check_row_route(w)


def test_row_route_matches_objects_up_to_rank_64():
    rng = random.Random(17)
    for _ in range(500):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        check_row_route(w)
        assert list(_insertion_rows(w.perm, w.colors, w.params.r)) == list(row_insert_image(w)), w


def block_rows(fillings):
    """Each filling's rows, with the id of each row object."""
    return [[[(id(row), list(row)) for row in comp] for comp in p_rows] for p_rows in fillings]


def removal_leaves(fillings, steps):
    """The removal walk's leaves over a block of P's, given as row lists,
    replaying the step list of their shape in those rows, as (a, k, perm,
    colors) with tuples; the walk must leave the same row objects, holding
    each filling's rows, in ``fillings``."""
    before = block_rows(fillings)
    leaves = [(a, k, tuple(perm), tuple(colors)) for a, k, perm, colors in _removal_walk(fillings, steps)]
    assert block_rows(fillings) == before
    return leaves


def one_p_leaves(p_rows, steps):
    """``removal_leaves`` of the one-filling block of P's row lists, as
    (perm, colors): every leaf has P = filling 0, and leaf k is (0, k)."""
    leaves = removal_leaves([p_rows], steps)
    assert [(a, k) for a, k, _, _ in leaves] == [(0, k) for k in range(len(leaves))]
    return [(perm, colors) for _, _, perm, colors in leaves]


@pytest.mark.parametrize("p_rows", [[[[2], [1]]], [[[1]], [[3, 4], [2]]]])
def test_removal_walk_refuses_rows_that_are_not_standard(p_rows):
    """A column that decreases makes a reverse bump find no smaller entry in
    the row above: the walk raises instead of yielding a wrong element."""
    with pytest.raises(InvalidTableau, match="^reverse bump fell off the tableau$"):
        list(_removal_walk([p_rows], _corner_steps(shape_of(p_rows))[0]))


@pytest.mark.parametrize(
    "p_rows",
    [[[[1, 3]], []], [[[1, 3], [2], [4]], []], [[[1, 3]], [[2]]], [[[1], [2], [3]], []]],
    ids=["too-few-boxes", "too-many-boxes", "other-component", "other-rows"],
)
def test_removal_walk_refuses_rows_of_another_shape(p_rows):
    """The walk replays a step list built for one shape; rows of any other
    shape, with fewer boxes or the same boxes arranged otherwise, raise
    ``ShapeMismatch`` before any removal, and the rows are left as given."""
    steps = _corner_steps(((2, 1), ()))[0]
    before = [[list(row) for row in comp] for comp in p_rows]
    walk = _removal_walk([p_rows], steps)
    with pytest.raises(ShapeMismatch, match=r"^filling 0 has shape .*, the steps are for \(\(2, 1\), \(\)\)$"):
        next(walk)
    assert p_rows == before


@pytest.mark.parametrize("r,n", [(1, 4), (2, 4), (3, 3)])
def test_block_walk_refuses_a_last_filling_of_another_shape(r, n):
    """A block whose last filling has another shape, of the same rank,
    than the one its steps are for: the walk raises ``ShapeMismatch``
    naming that filling before any removal, so no filling's rows change,
    and every row object stays in place, also when the first fillings are
    of the steps' shape."""
    shapes = list(multipartitions(n, r))
    for shape, other in zip(shapes, shapes[1:] + shapes[:1]):
        steps, fillings = _corner_steps(shape)
        fillings[-1] = _corner_steps(other)[1][-1]
        before = block_rows(fillings)
        walk = _removal_walk(fillings, steps)
        match = f"^filling {len(fillings) - 1} has shape {re.escape(str(other))}, the steps are for "
        with pytest.raises(ShapeMismatch, match=match):
            next(walk)
        assert block_rows(fillings) == before, shape


def reverse_bump(P, Q):
    """(perm, colors) of the pair (P, Q) by per-label reverse bumping, with
    no step list and no walk: for labels n down to 1, the box where Q holds
    the label is popped from a copy of P, and its value moves up through
    the rows above, in each taking the place of the largest smaller entry,
    found by a linear scan, which moves on; the value that leaves the first
    row is the label's, with its component as color.  The n removals must
    empty P."""
    where = {x: (k, t) for k, comp in enumerate(Q.components) for t, row in enumerate(comp.rows) for x in row}
    p_rows, n = rows_of(P), len(where)
    perm, colors = [0] * n, [0] * n
    for label in range(n, 0, -1):
        k, t = where[label]
        rows = p_rows[k]
        x = rows[t].pop()
        for row in reversed(rows[:t]):
            j = max(j for j, y in enumerate(row) if y < x)
            x, row[j] = row[j], x
        perm[label - 1], colors[label - 1] = x, k
    assert not any(chain.from_iterable(p_rows)), (str(P), str(Q))
    return tuple(perm), tuple(colors)


def shape_criterion(shape, p):
    """Whether p divides twice the spin of a shape, sum of k * |lambda_k|."""
    return sum(k * sum(lam) for k, lam in enumerate(shape)) % p == 0


def membership_leaves(params, walk=_removal_walk):
    """(w, criterion) for every leaf of the membership sweep, in its order:
    shapes in ``multipartitions`` order, then the walk of each shape's
    block, each P in the order of the fillings ``_corner_steps`` gives, in
    P's own filling rows; the criterion is read off the shape."""
    r, p, n = params.r, params.p, params.n
    full = GroupParams(r, 1, n)
    for shape in multipartitions(n, r):
        steps, fillings = _corner_steps(shape)
        for _, _, perm, colors in walk(fillings, steps):
            yield GroupElement(full, tuple(perm), tuple(colors)), shape_criterion(shape, p)


def theorem_leaves(params):
    """(w, P, Q) for every element of G(r,p,n) in the theorem sweep's order,
    without the removal walk: shapes in ``multipartitions`` order, kept when
    p divides their color sum; then P and, within each P, Q in
    ``standard_multitableaux`` order; w is ``reverse_bump(P, Q)``."""
    r, p, n = params.r, params.p, params.n
    for shape in multipartitions(n, r):
        if shape_criterion(shape, p):
            tableaux = list(standard_multitableaux(shape))
            for P in tableaux:
                for Q in tableaux:
                    yield GroupElement(params, *reverse_bump(P, Q)), P, Q


@pytest.mark.parametrize("r,n", [(1, 6), (2, 5), (3, 4), (4, 3), (4, 4)])
def test_removal_walk_covers_the_group(r, n):
    """Over the block of every shape, the removal walk's leaves are
    G(r,1,n), each exactly once, each inserting back to the P it came from,
    and each walk puts every P's rows back."""
    params = GroupParams(r, 1, n)
    leaves = []
    for shape in multipartitions(n, r):
        steps, fillings = _corner_steps(shape)
        for a, _, perm, colors in removal_leaves(fillings, steps):
            assert _insertion_rows(perm, colors, r)[0] == fillings[a], (perm, colors)
            leaves.append((perm, colors))
    assert len(leaves) == len(set(leaves)) == params.order
    assert set(leaves) == {(w.perm, w.colors) for w in enumerate_group(params)}


@pytest.mark.parametrize("r,max_n", [(1, 6), (2, 6), (3, 5)])
def test_removal_walk_matches_rs_inverse(r, max_n):
    """For every P of every shape up to the rank, as row lists: leaf k of
    the walk and ``rs_inverse``'s element of (P, filling k) are both the
    ``reverse_bump`` oracle's, each leaf once, and the walk puts P's rows
    back in its buffers."""
    for n in range(1, max_n + 1):
        full = GroupParams(r, 1, n)
        for shape in multipartitions(n, r):
            tableaux = list(standard_multitableaux(shape))
            steps, fillings = _corner_steps(shape)
            ps = [Multitableau(StandardTableau(rows) for rows in p_rows) for p_rows in fillings]
            leaves = removal_leaves(fillings, steps)
            f = count_standard_multitableaux(shape)
            assert len(set(leaves)) == len(leaves) == f * f
            for a, P in enumerate(ps):
                expected = [reverse_bump(P, Q) for Q in tableaux]
                assert [leaf[2:] for leaf in leaves[a * f : (a + 1) * f]] == expected, str(P)
                assert [rs_inverse(RSPair(P, Q), full) for Q in tableaux] == [GroupElement(full, *e) for e in expected]


@pytest.mark.parametrize("r,p,n", [(2, 2, 4), (4, 2, 3), (3, 3, 3), (4, 4, 3), (6, 3, 2)])
def test_rs_inverse_matches_the_reverse_bump_oracle_over_subgroups(r, p, n):
    """Over every same-shape pair of G(r,1,n) at p > 1: ``rs_inverse`` into
    G(r,p,n) gives the ``reverse_bump`` oracle's element when p divides the
    shape's color sum, and raises ``NotAMember`` otherwise, and the walk of
    P on the one-leaf step list of Q gives the oracle's element in both
    cases."""
    params = GroupParams(r, p, n)
    members = 0
    for shape in multipartitions(n, r):
        tableaux = list(standard_multitableaux(shape))
        for P in tableaux:
            for Q in tableaux:
                expected = reverse_bump(P, Q)
                assert one_p_leaves(rows_of(P), one_leaf_steps(Q)) == [expected], (str(P), str(Q))
                if shape_criterion(shape, p):
                    assert rs_inverse(RSPair(P, Q), params) == GroupElement(params, *expected)
                    members += 1
                else:
                    with pytest.raises(NotAMember):
                        rs_inverse(RSPair(P, Q), params)
    assert members == params.order


def test_rs_inverse_matches_the_reverse_bump_oracle_up_to_rank_64():
    """On 300 seeded elements w of G(r,p,n), rank up to 64, r in 1, 2, 4, 8
    and p any divisor of r: the ``reverse_bump`` oracle, ``rs_inverse`` and
    the walk of P on the one-leaf step list of Q all give w back from
    ``rs_map(w)``."""
    rng = random.Random(41)
    ps = set()
    for _ in range(300):
        r = rng.choice((1, 2, 4, 8))
        p = rng.choice([d for d in range(1, r + 1) if r % d == 0])
        w = random_element(rng, rng.randint(1, 64), r)
        colors = list(w.colors)
        colors[0] = (colors[0] - sum(colors)) % r  # p divides the color sum
        params = GroupParams(r, p, len(colors))
        w = GroupElement(params, w.perm, tuple(colors))
        pair = rs_map(w)
        assert reverse_bump(pair.P, pair.Q) == (w.perm, w.colors), str(w)
        assert rs_inverse(pair, params) == w, str(w)
        assert one_p_leaves(rows_of(pair.P), one_leaf_steps(pair.Q)) == [(w.perm, w.colors)], str(w)
        ps.add(p)
    assert ps == {1, 2, 4, 8}


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4)])
def test_removal_walk_leaf_k_is_filling_k(r, n):
    """Over whole groups, the walk of each shape's block yields every pair
    (a, k) of its fillings once, in a-major order, and for every P of
    G(r,1,n), filling a of its shape, leaf (a, k) is ``reverse_bump(P,
    filling k)`` and inserts back to P and filling k: the pairs the sweeps
    read each leaf's P and Q by."""
    full = GroupParams(r, 1, n)
    count = 0
    for shape in multipartitions(n, r):
        tableaux = list(standard_multitableaux(shape))
        steps, fillings = _corner_steps(shape)
        leaves = removal_leaves(fillings, steps)
        assert [(a, k) for a, k, _, _ in leaves] == list(product(range(len(tableaux)), repeat=2)), shape
        for a, k, perm, colors in leaves:
            P, Q = tableaux[a], tableaux[k]
            assert (perm, colors) == reverse_bump(P, Q), (str(P), str(Q))
            assert rs_module._insertion_rows(perm, colors, r) == (rows_of(P), rows_of(Q))
            count += 1
    assert count == full.order


def test_removal_walk_leaf_k_is_filling_k_above_the_exhaustive_ranks():
    """On seeded random shapes of rank 7 to 9 with r <= 4: the search's
    fillings are distinct standard multitableaux, as many as the hook
    length formula counts, and for a block of sampled P's leaf (b, k) of
    the walk, for the b-th sampled P, is ``reverse_bump(P, filling k)`` at
    sampled k, the first and last among them, and the walk puts every P's
    rows back."""
    rng = random.Random(29)
    for _ in range(12):
        n, r = rng.randint(7, 9), rng.randint(1, 4)
        shape = rng.choice(list(multipartitions(n, r)))
        steps, rows = _corner_steps(shape)
        fillings = [as_tuples(f) for f in rows]
        count = count_standard_multitableaux(shape)
        assert len(fillings) == len(set(fillings)) == count, shape
        tableaux = [Multitableau(StandardTableau(rows) for rows in f) for f in fillings]
        sampled = rng.sample(range(count), min(3, count))
        block = [[[list(row) for row in comp] for comp in fillings[a]] for a in sampled]
        leaves = removal_leaves(block, steps)
        assert len(set(leaves)) == len(leaves) == count * len(sampled)
        for b, a in enumerate(sampled):
            for k in {0, count - 1, *rng.sample(range(count), min(40, count))}:
                assert leaves[b * count + k] == (b, k, *reverse_bump(tableaux[a], tableaux[k])), (shape, a, k)


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4)])
def test_walks_in_place_leave_the_fillings_as_they_were(r, n):
    """The sweeps walk each P in its own filling's rows, with no copy: after
    the walk of a shape's block, every P of the shape walked in place, the
    fillings ``_corner_steps`` handed out equal a deep copy taken before
    the walk, and no two of them share a row object."""
    for shape in multipartitions(n, r):
        steps, fillings = _corner_steps(shape)
        before = copy.deepcopy(fillings)
        for _ in _removal_walk(fillings, steps):
            pass
        assert fillings == before, shape
        rows = [id(row) for filling in fillings for comp in filling for row in comp]
        assert len(rows) == len(set(rows)), shape


@pytest.mark.parametrize("r,n", [(1, 6), (2, 5), (3, 4), (2, 6)])
def test_removal_walk_work_follows_from_its_step_list(monkeypatch, r, n):
    """The walk's work, counted through ``rs``'s module-level
    ``bisect_right``: a removal at row t reverse-bumps through the t rows
    above it, one call each, and its undo re-inserts from the component's
    first row and ends in row t, t + 1 calls.  Every removal is undone
    once, by a later leaf or by the closing leaf, so each P of a shape costs
    exactly the sum of 2t + 1 over the removals of the step list, and the
    walk of the block that many calls per filling."""
    calls = 0

    def counted(row, x):
        nonlocal calls
        calls += 1
        return bisect.bisect_right(row, x)

    monkeypatch.setattr(rs_module, "bisect_right", counted)
    for shape in multipartitions(n, r):
        steps, fillings = _corner_steps(shape)
        per_p = sum(2 * t + 1 for _, moves, _ in steps[1] for _, t in moves)
        calls = 0
        for _ in _removal_walk(fillings, steps):
            pass
        assert calls == len(fillings) * per_p, shape


def insertion_row_visits(w):
    """The rows the values of w visit in an independent linear-scan
    insertion (``row_insert``), summed over the values: one that lands in
    row t visits t rows, counted from 1, and one that falls off the m rows
    of its component visits m."""
    P = [[] for _ in range(w.params.r)]
    visits = 0
    for x, k in zip(w.perm, w.colors):
        rows = len(P[k])
        visits += min(row_insert(P[k], x), rows)
    return visits


def test_insertion_pass_work_is_one_bisect_per_row_visited(monkeypatch):
    """The insertion pass's work, counted through ``rs``'s module-level
    ``bisect_right``: one call per row a value visits, as many as the
    linear-scan insertion visits, on all of G(2,1,5) and G(3,1,4) and on
    seeded rank-64 elements with r in 1, 2, 4 and 8."""
    calls = 0

    def counted(row, x):
        nonlocal calls
        calls += 1
        return bisect.bisect_right(row, x)

    rng = random.Random(43)
    seeded = [random_element(rng, 64, rng.choice((1, 2, 4, 8))) for _ in range(200)]
    monkeypatch.setattr(rs_module, "bisect_right", counted)
    for w in chain(enumerate_group(GroupParams(2, 1, 5)), enumerate_group(GroupParams(3, 1, 4)), seeded):
        calls = 0
        _insertion_rows(w.perm, w.colors, w.params.r)
        assert calls == insertion_row_visits(w), str(w)


def one_leaf_steps(Q):
    """A step list with one leaf, read off the recording multitableau Q:
    the (component, row) of labels n down to 2 as its moves, and label 1's
    component as its ``first``."""
    where = {x: (k, t) for k, comp in enumerate(Q.components) for t, row in enumerate(comp.rows) for x in row}
    return Q.shape, [(0, tuple([where[x] for x in range(len(where), 1, -1)]), where[1][0])]


def test_removal_walk_matches_the_insertion_up_to_rank_64():
    """For seeded random elements w of rank up to 64, r in 1, 2, 4 and 8:
    the walk of ``rs_map(w)``'s P on the one-leaf step list of its Q
    yields exactly w's one-line data, and leaves P's rows as given, as the
    same row objects."""
    rng = random.Random(31)
    for _ in range(300):
        w = random_element(rng, rng.randint(1, 64), rng.choice((1, 2, 4, 8)))
        pair = rs_map(w)
        p_rows = rows_of(pair.P)
        assert one_p_leaves(p_rows, one_leaf_steps(pair.Q)) == [(w.perm, w.colors)], str(w)
        assert p_rows == rows_of(pair.P)


def test_removal_walk_refuses_a_corrupted_rank_64_p():
    """A rank-64 P whose second row of a component starts with 0, below
    every entry of the row above: carrying the 0 up, the reverse bump falls
    off the tableau."""
    rng = random.Random(37)
    w = random_element(rng, 64, 2)
    pair = rs_map(w)
    p_rows = rows_of(pair.P)
    next(rows for rows in p_rows if len(rows) > 1)[1][0] = 0
    with pytest.raises(InvalidTableau, match="^reverse bump fell off the tableau$"):
        list(_removal_walk([p_rows], one_leaf_steps(pair.Q)))


def label_fillings(shape):
    """Every filling of ``shape`` by the labels 1..n, one per box, as row
    lists, standard or not: n! of them."""
    for labels in permutations(range(1, sum(map(sum, shape)) + 1)):
        it = iter(labels)
        yield [[[next(it) for _ in range(part)] for part in lam] for lam in shape]


def test_removal_walk_refuses_every_p_that_is_not_standard():
    """Each of the 4,456 fillings of rank 1 to 5 at r = 2 that is not a
    standard filling of its shape makes the walk raise ``InvalidTableau``
    before its last leaf, the one that puts P's rows back, instead of
    ending as if P were standard: a re-insertion that runs past its
    component's last row raises rather than dropping its value, and so do
    a removal from an emptied row and label 1 read off one, which 54 of
    them reach."""
    refused, emptied = 0, 0
    for n in range(1, 6):
        for shape in multipartitions(n, 2):
            steps, standard = _corner_steps(shape)
            for p_rows in label_fillings(shape):
                if p_rows not in standard:
                    with pytest.raises(InvalidTableau) as info:
                        for _ in _removal_walk([p_rows], steps):
                            pass
                    refused += 1
                    emptied += str(info.value) == "no box left in a row of the shape"
    assert (refused, emptied) == (4456, 54)


def hook_length_count(shape):
    """The hook length formula box by box: the hook of box (i, j) is the
    boxes right of it in its row, below it in its column, and itself."""
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
    hooks = prod((part - j) + (conj[j] - i) - 1 for i, part in enumerate(shape) for j in range(part))
    return factorial(sum(shape)) // hooks


def test_tableau_counts_match_the_hook_length_formula_box_by_box():
    """``count_standard_tableaux`` walks the rows once from the bottom up;
    every partition up to rank 14 against the formula read box by box, and
    ``count_standard_multitableaux`` against the multinomial times those
    counts, empty components included."""
    for m in range(15):
        for shape in partitions(m):
            assert count_standard_tableaux(shape) == hook_length_count(shape), shape
    for n, r in ((5, 3), (4, 4), (6, 2)):
        for shape in multipartitions(n, r):
            expected = factorial(n) // prod(factorial(sum(lam)) for lam in shape)
            expected *= prod(hook_length_count(lam) for lam in shape)
            assert count_standard_multitableaux(shape) == expected, shape


def brute_force_fillings(shape):
    """Every arrangement of 1..n in the boxes of a multipartition whose rows
    and columns increase, as tuples of row tuples."""
    boxes = [(k, t, c) for k, lam in enumerate(shape) for t, part in enumerate(lam) for c in range(part)]
    found = set()
    for labels in permutations(range(1, len(boxes) + 1)):
        comps = [[[0] * part for part in lam] for lam in shape]
        for (k, t, c), x in zip(boxes, labels):
            comps[k][t][c] = x
        if all(
            a < b
            for rows in comps
            for t, row in enumerate(rows)
            for a, b in chain(zip(row, row[1:]), zip(rows[t - 1], row) if t else ())
        ):
            found.add(as_tuples(comps))
    return found


@pytest.mark.parametrize("r", [1, 2, 3])
def test_standard_fillings_match_brute_force(r):
    """Every multishape up to rank 5: the corner search yields exactly the
    increasing arrangements, each once, with the same fillings live as
    ``_corner_steps`` copies, and ``standard_multitableaux`` wraps them in
    the same order."""
    for n in range(6):
        for shape in multipartitions(n, r):
            fillings = [as_tuples(rows) for rows in _corner_steps(shape)[1]]
            assert fillings == [as_tuples(rows) for _, rows in _corner_search(shape)]
            assert len(fillings) == len(set(fillings)) == count_standard_multitableaux(shape)
            assert set(fillings) == brute_force_fillings(shape), shape
            assert fillings == [as_tuples(rows_of(T)) for T in standard_multitableaux(shape)]


def test_membership_sweep_reports_a_wrong_twice_spin(monkeypatch):
    """The sweep reads twice_spin(P) off the row lists of each shape's
    first filling; a wrong value there must show up as counterexamples."""
    monkeypatch.setattr(signs, "rows_twice_spin", lambda comps: rows_twice_spin(comps) + 1)
    full = GroupParams(2, 1, 3)
    report = signs.verify_membership(GroupParams(2, 2, 3), max_counterexamples=1000)
    assert not report.passed
    assert report.elements_checked == full.order
    assert len(report.counterexamples) == full.order
    for w, i, member, criterion in report.counterexamples:
        assert i == 0 and member == w.is_member(2) != criterion


def test_membership_cap_matches_enumerate_group():
    """The membership sweep walks G(r,1,n) whatever p, so it is refused as
    ``enumerate_group`` refuses G(r,1,n), also at a cap that G(r,p,n)
    would fit; ``enumerate_group`` caps the group it yields, G(r,p,n)."""
    for params in (GroupParams(3, 1, 4), GroupParams(4, 2, 3)):
        full = GroupParams(params.r, 1, params.n)
        for cap in (params.order - 1, full.order - 1):
            with pytest.raises(CapExceeded) as sweep:
                signs.verify_membership(params, cap=cap)
            with pytest.raises(CapExceeded) as enum:
                next(enumerate_group(full, cap=cap))
            assert str(sweep.value) == str(enum.value)
    assert str(sweep.value) == "G(4,1,3) has 384 elements, above cap 383"
    with pytest.raises(CapExceeded, match=r"^G\(4,2,3\) has 192 elements, above cap 191$"):
        next(enumerate_group(GroupParams(4, 2, 3), cap=191))
    assert len(list(enumerate_group(GroupParams(4, 2, 3), cap=192))) == 192
    with pytest.raises(CapExceeded, match="G\\(2,1,5\\) has 3840 elements, above cap 100"):
        signs.verify_membership(GroupParams(2, 2, 5), cap=100)
    # refused before any work, at a rank whose group no sweep could walk
    with pytest.raises(CapExceeded, match="G\\(2,1,1000000\\) has more than 10"):
        signs.verify_membership(GroupParams(2, 2, 10**6))
    assert signs.verify_membership(GroupParams(3, 1, 4), cap=1944).elements_checked == 1944


def test_membership_counterexamples_come_in_walk_order(monkeypatch):
    """By shape, then by P, then in removal-walk order, each with the
    element's membership and the criterion the sweep read."""
    monkeypatch.setattr(signs, "rows_twice_spin", lambda comps: rows_twice_spin(comps) + 1)
    params = GroupParams(4, 2, 3)  # p = 2: the shift flips every verdict
    report = signs.verify_membership(params, max_counterexamples=10)
    walked = list(islice(membership_leaves(params), 10))
    assert report.counterexamples == [(w, 0, criterion, not criterion) for w, criterion in walked]
    assert all(w.params == GroupParams(4, 1, 3) for w, *_ in report.counterexamples)
    assert {criterion for _, criterion in walked} == {True, False}


def test_membership_backward_pass_reports_a_shifted_color(monkeypatch):
    """A leaf whose color is shifted must show up as a (w, 0, member,
    criterion) counterexample, in shape-then-P-then-walk order, and leave
    the counts alone."""

    def shifted(fillings, steps):
        # the value 1 at position 1 gets the next color, an element outside
        # its P's membership verdict for p = 2
        for a, k, perm, colors in _removal_walk(fillings, steps):
            yield a, k, perm, [(colors[0] + 1) % 2] + colors[1:] if perm[0] == 1 else colors

    params, full = GroupParams(2, 2, 4), GroupParams(2, 1, 4)
    clean = signs.verify_membership(params)
    monkeypatch.setattr(signs, "_removal_walk", shifted)
    report = signs.verify_membership(params)
    assert report.elements_checked == clean.elements_checked == full.order
    assert report.i_values_checked == clean.i_values_checked == full.order + params.order
    failing = [(w, criterion) for w, criterion in membership_leaves(params, shifted) if w.is_member(2) != criterion]
    assert 10 < len(failing) < full.order
    assert report.counterexamples == [(w, 0, not criterion, criterion) for w, criterion in failing[:10]]


def value_defect(expected, got):
    """(parity, shift) of two values at i = 1, as they were computed: the
    group side's ``expected`` and the formula's ``got``.  Parity is whether
    their signs differ, shift how far the formula's exponent is ahead,
    mod r."""
    return int(got.sign != expected.sign), (got.exponent - expected.exponent) % expected.modulus


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3)])
def test_disagreeing_matches_value_comparison(r, n):
    """``_disagreeing`` of the defect against ``OneDimValue`` == ``one_dim``
    for every i, on each element's own sign data and on data that disagrees
    with it."""
    outcomes = set()
    for w in enumerate_group(GroupParams(r, 1, n)):
        sign, spin_sum = signs._rows_data(*_insertion_rows(w.perm, w.colors, r))
        for s, spin in ((sign, spin_sum), (-sign, spin_sum), (sign, spin_sum + 1), (-sign, 0)):
            expected = [i for i in range(r) if OneDimValue(s, (i * spin) % r, r) != w.one_dim(i, 1)]
            defect = value_defect(w.one_dim(1, 1), OneDimValue(s, spin % r, r))
            assert signs._disagreeing(*defect, r) == expected, (str(w), s, spin)
            outcomes.update(i in expected for i in range(r))
    assert outcomes == {True, False}


@pytest.mark.parametrize("r", range(1, 13))
def test_disagreeing_is_empty_exactly_at_defect_zero(r):
    """Every sign on each side and every color sum and spin sum mod r: the
    two sides' ``OneDimValue`` objects differ at the i ``_disagreeing``
    lists, and at none exactly when the defect is (0, 0)."""
    for perm_sign, sign, color_sum, spin_sum in product((1, -1), (1, -1), range(r), range(r)):
        defect = value_defect(OneDimValue(perm_sign, color_sum, r), OneDimValue(sign, spin_sum, r))
        bad = signs._disagreeing(*defect, r)
        assert bad == [
            i
            for i in range(r)
            if OneDimValue(sign, (i * spin_sum) % r, r) != OneDimValue(perm_sign, (i * color_sum) % r, r)
        ]
        assert (bad == []) == (defect == (0, 0)), (perm_sign, sign, color_sum, spin_sum)


def test_rs_inverse_round_trip_up_to_rank_64():
    rng = random.Random(23)
    for _ in range(300):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        assert rs_inverse(rs_map(w), w.params) == w, str(w)


def test_perm_sign_is_cached_per_element():
    rng = random.Random(13)
    for _ in range(300):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        expected = (-1) ** pairwise_inversions(w.perm)
        assert "perm_sign" not in vars(w)
        assert w.one_dim(0, 1).sign == expected
        assert vars(w)["perm_sign"] == expected
        twin = GroupElement(w.params, w.perm, w.colors)
        assert "perm_sign" not in vars(twin)
        assert twin == w and hash(twin) == hash(w) and repr(twin) == repr(w)
        assert twin.perm_sign == expected


def test_parity_matches_inversions_on_every_small_permutation():
    for n in range(8):
        for perm in permutations(range(1, n + 1)):
            assert parity(perm) == inversions(perm) % 2, perm


def test_parity_matches_inversions_up_to_rank_10_000():
    rng = random.Random(29)
    for n in (8, 9, 63, 64, 65, 100, 999, 1000, 9999, 10**4):
        for _ in range(3):
            perm = rng.sample(range(1, n + 1), n)
            assert parity(perm) == inversions(perm) % 2 == parity(tuple(perm)), n


def test_signs_are_read_without_inversion_counts(monkeypatch, capsys):
    """``perm_sign``, ``pi``, ``grpn sgn`` and ``grpn pi`` take every sign
    from a cycle count (``group.parity``): with each module's binding of
    ``group.inversions`` raising, they still give the pairwise oracle's
    sign, the object route's values and the same command output."""
    rng = random.Random(31)
    cases = []
    for _ in range(60):
        w = random_element(rng, rng.randint(1, 64), rng.choice((1, 2, 4, 8)))
        r, pair = w.params.r, rs_map(w)
        sign = (-1) ** (pair.P.even_row_boxes() + pair.P.inversions() + pair.Q.inversions())
        spin_sum = (pair.P.twice_spin() + pair.Q.twice_spin()) // 2
        values = [OneDimValue(sign, i * spin_sum % r, r) for i in range(r)]
        outputs = [cli_output(capsys, command, "--r", str(r), str(w)) for command in ("sgn", "pi")]
        cases.append((w, (-1) ** pairwise_inversions(w.perm), values, outputs))

    def refuse(keys):
        raise AssertionError("an inversion count on a sign route")

    for module in (group_module, tableaux_module):
        monkeypatch.setattr(module, "inversions", refuse)
    with pytest.raises(AssertionError):
        rs_map(cases[0][0]).P.inversions()
    for w, perm_sign, values, outputs in cases:
        fresh = GroupElement(w.params, w.perm, w.colors)
        assert fresh.perm_sign == perm_sign, str(w)
        assert [signs.pi(fresh, i) for i in range(w.params.r)] == values, str(w)
        assert [fresh.one_dim(i, 1) for i in range(w.params.r)] == values, str(w)
        assert [cli_output(capsys, command, "--r", str(w.params.r), str(w)) for command in ("sgn", "pi")] == outputs


def cli_output(capsys, *argv):
    """Exit code and standard output of one ``grpn`` command, run in-process."""
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_tableau_inversions_match_pairwise_on_rs_images_up_to_rank_64():
    rng = random.Random(19)
    for _ in range(300):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        pair = rs_map(w)
        for t in pair.P.components + pair.Q.components:
            expected = pairwise_inversions(row_numbers(t.rows))
            assert tableau_inversions(t.rows) == t.inversions() == expected, w
            assert tableau_inversions([list(row) for row in t.rows]) == expected


def rows_of(T):
    return [[list(row) for row in t.rows] for t in T.components]


def object_move_check(fixed, fixed_before, changed, changed_before):
    """The admissible-move invariants on tableau objects, one boolean each."""
    return (
        fixed == fixed_before,
        abs(changed.inversions() - changed_before.inversions()) == 1,
        [t.inversions() for t in changed.components]
        == [t.inversions() for t in changed_before.components],
    )


def row_move_check(fixed, fixed_before, changed, changed_before):
    """The same invariants on the row lists of one ``_insertion_rows`` pass."""
    return (
        fixed == fixed_before,
        abs(rows_inversions(changed) - rows_inversions(changed_before)) == 1,
        [tableau_inversions(c) for c in changed]
        == [tableau_inversions(c) for c in changed_before],
    )


def filling_indices(shape):
    """What the admissible sweep reads of a shape's fillings: each filling's
    index, keyed by its rows (``as_tuples``), its inversion count
    (``signs._fillings``) and its per-component counts (the sweep's
    ``tableau_inversions`` on its rows), all indexed by filling."""
    fillings = _corner_steps(shape)[1]
    invs, _, _ = signs._fillings(shape, fillings)
    return (
        {as_tuples(rows): a for a, rows in enumerate(fillings)},
        invs,
        [[signs.tableau_inversions(comp) for comp in rows] for rows in fillings],
    )


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (4, 3)])
def test_move_images_on_rows_match_objects(r, n):
    """Every admissible move's image: its row lists are the rows of its
    ``rs_map`` pair, and each invariant reads the same on rows as on
    objects, both for the side the move fixes (true) and the side it does
    not (mostly false).  The sweep's comparison of the two members' shape
    block entries, by filling index (``_move_kept``), holds exactly when all
    three hold on objects."""
    params = GroupParams(r, 1, n)
    shapes = {}
    outcomes = set()
    for w in enumerate_group(params):
        pair = rs_map(w)
        w_objs = pair.P, pair.Q
        w_rows = rows_of(pair.P), rows_of(pair.Q)
        if pair.P.shape not in shapes:
            shapes[pair.P.shape] = filling_indices(pair.P.shape)
        index, invs, comps = shapes[pair.P.shape]
        entry = index[as_tuples(w_rows[0])], index[as_tuples(w_rows[1])], None
        moves = [right_admissible(w, i) for i in range(1, n) if w.colors[i - 1] != w.colors[i]]
        moves += [
            left_admissible(w, i)
            for i in range(1, n)
            if w.colors[w.perm.index(i)] != w.colors[w.perm.index(i + 1)]
        ]
        for moved in moves:
            rows = _insertion_rows(moved.perm, moved.colors, r)
            image = rs_map(moved)
            objs = image.P, image.Q
            assert list(rows) == [rows_of(image.P), rows_of(image.Q)], (str(w), str(moved))
            in_block = image.P.shape == pair.P.shape
            image_entry = (index[as_tuples(rows[0])], index[as_tuples(rows[1])], None) if in_block else None
            for f, c in ((0, 1), (1, 0)):  # P fixed (R-move check), Q fixed (L-move check)
                on_objects = object_move_check(objs[f], w_objs[f], objs[c], w_objs[c])
                on_rows = row_move_check(rows[f], w_rows[f], rows[c], w_rows[c])
                assert on_rows == on_objects, (str(w), str(moved), f)
                outcomes.add(on_rows)
                ok = signs._move_kept(entry, image_entry, f, invs, comps)
                assert ok == all(on_objects), (str(w), str(moved), f)
    assert (True, True, True) in outcomes and any(not all(o) for o in outcomes)


def test_admissible_report_counts():
    """One value check per admissible move plus r per element."""
    params = GroupParams(3, 1, 3)
    n = params.n
    moves = 0
    for w in enumerate_group(params):
        moves += sum(w.colors[i - 1] != w.colors[i] for i in range(1, n))
        colors_of = [w.colors[w.perm.index(v)] for v in range(1, n + 1)]
        moves += sum(colors_of[i - 1] != colors_of[i] for i in range(1, n))
    report = signs.verify_admissible(params)
    assert report.passed
    assert report.elements_checked == params.order
    assert report.i_values_checked == moves + params.order * params.r


@pytest.mark.parametrize(
    "r,p,n,checked,values",
    [
        (2, 1, 3, 48, 192),
        (2, 1, 4, 384, 1920),
        (3, 1, 3, 162, 918),
        (4, 1, 3, 384, 2688),
        (4, 2, 3, 192, 1344),
        (2, 1, 5, 3840, 23040),
    ],
)
def test_admissible_report_counts_are_pinned(r, p, n, checked, values):
    report = signs.verify_admissible(GroupParams(r, p, n))
    assert report.passed
    assert (report.elements_checked, report.i_values_checked) == (checked, values)


def object_entry(pair):
    """What the admissible sweep compares of one element, read straight off
    its tableau objects, method by method: for P, then for Q, its rows,
    inversion count and per-component counts; then its (sign, spin_sum)."""

    def kept(T):
        return (
            tuple(t.rows for t in T.components),
            T.inversions(),
            [t.inversions() for t in T.components],
        )

    P, Q = pair.P, pair.Q
    sign = (-1) ** (P.even_row_boxes() + P.inversions() + Q.inversions())
    return kept(P), kept(Q), (sign, (P.twice_spin() + Q.twice_spin()) // 2)


def object_defect(key, entry, r):
    """The defect of the element with one-line data ``key`` from its
    ``object_entry``."""
    perm, colors = key
    sign, spin_sum = entry[2]
    return value_defect(OneDimValue((-1) ** inversions(perm), sum(colors) % r, r), OneDimValue(sign, spin_sum % r, r))


# The admissible sweep as it ran one admissible class at a time, kept as an
# oracle for the shape-block sweep: the classes are built from the two
# invariants of a move (color content and within-color orders), and every
# statistic is read off each member's own ``rs_map`` pair.


def admissible_classes(params):
    """The elements of G(r,p,n), one admissible class at a time, each class
    a list of one-line data ``(perm, colors)`` with its ascending element
    first.

    Admissible moves keep two things: the color content (n_0, ..., n_{r-1})
    and, for each color k, the relative order of the values at the positions
    of color k.  A class is every element with one content and one tuple of
    within-color orders: each position-color word paired with each
    value-color word, multinomial(n; n_0, ..., n_{r-1})**2 elements.  The
    classes are built from these two invariants, not by applying moves, so a
    broken move cannot change them.  Moves keep the content, so a class lies
    wholly inside G(r,p,n) or wholly outside it: for p > 1 only the contents
    whose color sum p divides are kept.

    Order: contents by their sorted color word, lexicographically; then
    within-color orders lexicographically (the least color's first); then
    position words and, within each, value words lexicographically.  The
    least word puts each color in one block, so the class's ascending
    element comes first.
    """
    p, n = params.p, params.n
    for least in combinations_with_replacement(range(params.r), n):
        if sum(least) % p:
            continue
        used = sorted(set(least))
        counts = [least.count(k) for k in used]
        words = sorted(set(permutations(least)))
        # per word, the indices (positions, or values - 1) of each used color
        blocks = [[[j for j, c in enumerate(word) if c == k] for k in used] for word in words]
        for orders in product(*(permutations(range(m)) for m in counts)):
            members = []
            for colors, positions in zip(words, blocks):
                for values in blocks:
                    perm = [0] * n
                    for at, vals, order in zip(positions, values, orders):
                        for j, rank in zip(at, order):
                            perm[j] = vals[rank] + 1
                    members.append((tuple(perm), colors))
            yield members


def class_move_kept(table, entry, moved, fixed):
    """An admissible move between two ``object_entry`` values of one class's
    table: the image is in the table, the multitableau ``fixed`` (0 for P, 1
    for Q) is unchanged, the other one's inversion count moves by exactly
    one, and each of its components keeps its count."""
    image = table.get(moved)
    changed = 1 - fixed
    return (
        image is not None
        and image[fixed][0] == entry[fixed][0]
        and abs(image[changed][1] - entry[changed][1]) == 1
        and image[changed][2] == entry[changed][2]
    )


def class_sweep(params, max_counterexamples=10):
    """The admissible checks one class at a time (``admissible_classes``),
    with a table of each class's ``object_entry`` values: each move's image
    is looked up in its class's table, each member's representative must be
    the class's first element, and each member's disagreeing i are compared
    with that element's.  The moves and the representative are the sweep's
    own (``signs._right_move``, ``signs._left_move``, ``signs._ascend``), so
    a patch there reaches both sweeps; the report has the sweep's counts and
    counterexample forms, in class order."""
    r, n = params.r, params.n
    report = signs.VerificationReport(params, "admissible", max_counterexamples=max_counterexamples)
    position = [0] * (n + 1)
    for members in admissible_classes(params):
        table = {key: object_entry(rs_map(GroupElement(params, *key))) for key in members}
        rho = members[0]
        rho_defect = object_defect(rho, table[rho], r)
        for perm, colors in members:
            report.elements_checked += 1
            entry = table[perm, colors]
            for p, v in enumerate(perm):
                position[v] = p
            for i in range(1, n):
                if colors[i - 1] != colors[i]:
                    report.i_values_checked += 1
                    if not class_move_kept(table, entry, signs._right_move(perm, colors, i), 0):
                        report.record((perm, colors), i, "R-move invariants", "violated")
                if colors[position[i]] != colors[position[i + 1]]:
                    report.i_values_checked += 1
                    if not class_move_kept(table, entry, (signs._left_move(perm, position, i), colors), 1):
                        report.record((perm, colors), i, "L-move invariants", "violated")
            rep = signs._ascend(perm, colors)[2]
            if rep != rho:
                report.record((perm, colors), 0, "ascending representative", str(GroupElement(params, *rep)))
            report.i_values_checked += r
            defect = object_defect((perm, colors), entry, r)
            if defect != rho_defect:
                bad, rho_bad = signs._disagreeing(*defect, r), signs._disagreeing(*rho_defect, r)
                for i in sorted(set(bad).symmetric_difference(rho_bad)):
                    report.record((perm, colors), i, i not in bad, i not in rho_bad)
    return report


def without_elapsed(report):
    data = report.to_json()
    del data["elapsed_ms"]
    return data


@pytest.mark.parametrize("r,p,n", [(2, 1, 4), (3, 1, 3), (4, 2, 3), (2, 2, 4), (2, 1, 5)])
def test_block_sweep_report_equals_the_class_sweep(r, p, n):
    params = GroupParams(r, p, n)
    report = signs.verify_admissible(params)
    assert report.passed
    assert without_elapsed(report) == without_elapsed(class_sweep(params))


def recolor(perm, colors, i):
    """An R-move that swaps the two colors but leaves the values in place."""
    colors = list(colors)
    colors[i - 1], colors[i] = colors[i], colors[i - 1]
    return perm, tuple(colors)


def skew_label_one(real):
    """A per-component count one too high on the component holding label 1."""
    return lambda rows: real(rows) + any(1 in row for row in rows)


# the patches of each mutant, as (module, attribute, replacement given the
# real one); the per-component counts are patched where the sweep reads
# them, on the fillings' rows, and where the oracle does, in
# ``StandardTableau.inversions``
SWEEP_MUTANTS = {
    "right-move-returns-its-input": [(signs, "_right_move", lambda real: lambda perm, colors, i: (perm, colors))],
    "recoloring-right-move": [(signs, "_right_move", lambda real: recolor)],
    "component-count-skew": [
        (signs, "tableau_inversions", skew_label_one),
        (tableaux_module, "tableau_inversions", skew_label_one),
    ],
    "ascend-returns-its-input": [(signs, "_ascend", lambda real: lambda perm, colors: ([], [], (perm, colors)))],
}


@pytest.mark.parametrize("mutant", sorted(SWEEP_MUTANTS))
@pytest.mark.parametrize("r,p,n", [(2, 1, 4), (3, 1, 3), (4, 2, 3)])
def test_block_sweep_counterexamples_equal_the_class_sweep(monkeypatch, mutant, r, p, n):
    """Under each mutant both sweeps fail, with the same counts and the same
    set of counterexamples; only their order differs."""
    for module, name, replace in SWEEP_MUTANTS[mutant]:
        monkeypatch.setattr(module, name, replace(getattr(module, name)))
    params = GroupParams(r, p, n)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    oracle = class_sweep(params, max_counterexamples=10**6)
    assert (report.elements_checked, report.i_values_checked) == (oracle.elements_checked, oracle.i_values_checked)
    assert report.counterexamples
    assert len(report.counterexamples) == len(oracle.counterexamples)
    assert set(report.counterexamples) == set(oracle.counterexamples)


# rs_map calls of the admissible sweep: one round trip per kept shape
MAPPED = {(2, 1, 4): 20, (3, 1, 3): 22, (4, 2, 3): 20, (2, 1, 5): 36}


@pytest.mark.parametrize("r,p,n", [(2, 1, 4), (3, 1, 3), (4, 2, 3), (2, 1, 5)])
def test_class_table_matches_fresh_entries(monkeypatch, r, p, n):
    """The sweep's shape blocks, the walk of each kept shape's block
    (``_blocks``), against each member's fresh ``rs_map`` pair: every
    element of G(r,p,n) is in the block of its shape once, with the
    fillings whose rows are its P's and Q's and the inversion counts its
    tableau objects give (``object_entry``), and the defect the sweeps
    compute from the shape's record and the element's inv(sigma) and color
    sum is the one its tableau objects give; a block of f fillings has
    f**2 members, f distinct P's and f distinct Q's.  The sweep maps with
    ``rs_map`` exactly the rotating round-trip leaf of each kept shape, in
    shape order, and the rows it compares that leaf's pair with are the
    pair's."""
    params = GroupParams(r, p, n)
    report = signs.VerificationReport(params, "admissible")
    everything, trips = [], []
    for (fillings, invs, e, ts), (trip_a, trip_k, *trip_rows), walk in signs._blocks(params, report):
        block = {(tuple(perm), tuple(colors)): (a, k) for a, k, perm, colors in walk}
        f = len(fillings)
        assert len(invs) == f
        assert len(block) == f * f
        assert {a for a, _ in block.values()} == {k for _, k in block.values()} == set(range(f))
        for key, (a, k) in block.items():
            w = GroupElement(params, *key)
            pair = rs_map(w)
            entry = object_entry(pair)
            assert (as_tuples(fillings[a]), as_tuples(fillings[k])) == (entry[0][0], entry[1][0]), str(w)
            assert (invs[a], invs[k]) == (entry[0][1], entry[1][1]), str(w)
            defect = (pairwise_inversions(w.perm) + e + invs[a] + invs[k]) & 1, (ts - sum(w.colors)) % r
            assert defect == object_defect(key, entry, r), str(w)
            if (a, k) == (trip_a, trip_k):
                assert trip_rows == [entry[0][0], entry[1][0]], str(w)
                trips.append(w)
        everything += block
    assert report.passed
    assert len(everything) == len(set(everything)) == params.order
    assert {GroupElement(params, *key) for key in everything} == set(enumerate_group(params))
    assert len(trips) == MAPPED[r, p, n]
    mapped, real = [], signs.rs_map
    monkeypatch.setattr(signs, "rs_map", lambda w: mapped.append(GroupElement(params, w.perm, w.colors)) or real(w))
    assert signs.verify_admissible(params).passed
    assert mapped == trips


def patch_kernel(monkeypatch, change):
    """Patch the kernel the sweeps get (``get_kernel``): each leaf's
    (inv(sigma), color sum) becomes ``change(perm, colors, r, inv_sigma,
    color_sum)``."""
    real = signs.get_kernel

    def get_kernel():
        kernel = real()
        return lambda perm, colors, r: change(perm, colors, r, *kernel(perm, colors, r))

    monkeypatch.setattr(signs, "get_kernel", get_kernel)


def skewing_kernel(monkeypatch, r):
    """Patch the kernel the sweeps get with one that adds a skew to each
    leaf's inv(sigma) and color sum, cycling through every pair of 0 or 1
    and 0, 1 or r, so that each leaf's defect moves by a known amount;
    returns ``skew(perm, colors)``, the pair the kernel adds to that
    element's counts."""
    skews = list(product((0, 1), (0, 1, r)))

    def skew(perm, colors):
        return skews[(sum(v * (j + 1) for j, v in enumerate(perm)) + 3 * sum(colors)) % len(skews)]

    def skewed(perm, colors, r, inv_sigma, color_sum):
        d_inv, d_sum = skew(perm, colors)
        return inv_sigma + d_inv, color_sum + d_sum

    patch_kernel(monkeypatch, skewed)
    return skew


@pytest.mark.parametrize("r,p,n", [(2, 1, 5), (4, 2, 4), (3, 3, 4)])
def test_leaf_stream_defect_matches_the_two_sides(monkeypatch, r, p, n):
    """Each sweep's defect, computed inline on every leaf of its shape
    blocks, against the two sides: the formula's value at i = 1,
    ``pi_from_tableaux`` on the leaf's own (P, Q), and the character's,
    ``GroupElement.one_dim``.  A kernel that skews each leaf's counts by a
    known amount (``skewing_kernel``) makes the defects nonzero in every
    combination.  The theorem sweep then reports exactly the counterexamples
    that the oracle's defect, moved by the skew, gives, in ``theorem_leaves``
    order: at each ``_disagreeing`` i, or at i = 0 for a color sum skewed by
    a multiple of r.  Every entry the admissible sweep's move checks read
    (``_move_kept``) holds the defect of its element, the oracle's moved by
    the skew, and the entries read are the elements with two colors."""
    params = GroupParams(r, p, n)
    skew = skewing_kernel(monkeypatch, r)
    expected = []
    for w, P, Q in theorem_leaves(params):
        d_inv, d_sum = skew(w.perm, w.colors)
        got = pi_from_tableaux(P, Q, 1, r)
        parity, shift = value_defect(w.one_dim(1, 1), got)
        parity, shift = parity ^ d_inv, (shift - d_sum) % r
        color_sum, twice_spin = w.color_sum() + d_sum, P.twice_spin()
        if parity or shift:
            for i in signs._disagreeing(parity, shift, r):
                character = OneDimValue(-got.sign if parity else got.sign, i * color_sum % r, r)
                expected.append((w, i, character, pi_from_tableaux(P, Q, i, r)))
        elif color_sum != twice_spin:
            expected.append((w, 0, f"color sum {twice_spin}", f"color sum {color_sum}"))
    report = signs.verify_theorem(params, max_counterexamples=10**6)
    assert report.elements_checked == params.order
    assert report.counterexamples == expected
    assert {c[1] for c in expected} == set(range(r)) and any(isinstance(c[2], str) for c in expected)

    fillings, entries = [], {}
    real_fillings, real_kept = signs._fillings, signs._move_kept
    monkeypatch.setattr(
        signs, "_fillings", lambda shape, rows: fillings.append(copy.deepcopy(rows)) or real_fillings(shape, rows)
    )

    def move_kept(entry, image, fixed, invs, comps):
        for e in (entry, image):
            if e is not None:
                entries[len(fillings) - 1, *e[:2]] = e[2:]
        return real_kept(entry, image, fixed, invs, comps)

    monkeypatch.setattr(signs, "_move_kept", move_kept)
    signs.verify_admissible(params)
    seen = set()
    for (shape, a, k), defect in entries.items():
        P, Q = (Multitableau.from_rows(fillings[shape][b]) for b in (a, k))
        w = GroupElement(params, *reverse_bump(P, Q))
        d_inv, d_sum = skew(w.perm, w.colors)
        parity, shift = value_defect(w.one_dim(1, 1), pi_from_tableaux(P, Q, 1, r))
        assert defect == (parity ^ d_inv, (shift - d_sum) % r), str(w)
        seen.add(w)
    assert seen == {w for w in enumerate_group(params) if len(set(w.colors)) > 1}


def patch_leaves(monkeypatch, r, change):
    """Patch the walk the sweeps read each shape block's leaves from
    (``_removal_walk``, which ``_blocks`` hands them): each block's leaves
    ``(a, k, perm, colors)``, their one-line data copied to tuples, become
    ``change(index, leaves, r)`` for the block's index among the blocks
    walked."""
    real, walked = signs._removal_walk, []

    def walk(fillings, steps):
        walked.append(steps)
        leaves = [(a, k, tuple(perm), tuple(colors)) for a, k, perm, colors in real(fillings, steps)]
        yield from change(len(walked) - 1, leaves, r)

    monkeypatch.setattr(signs, "_removal_walk", walk)


def content_multitableaux(r, p, n):
    """The rows of every standard multitableau of rank n with r components
    whose color sum, sum of k * n_k, p divides: the fillings the admissible
    sweep builds between its shapes."""
    return {
        tuple(t.rows for t in T.components)
        for shape in multipartitions(n, r)
        if sum(k * sum(lam) for k, lam in enumerate(shape)) % p == 0
        for T in standard_multitableaux(shape)
    }


# leaf orders of each shape block: its ascending elements (the class
# leaders) first, reversed, and shuffled
BLOCK_ORDERS = {
    "ascending-first": lambda leaves, index, r: sorted(
        leaves, key=lambda leaf: not rs_module._is_ascending(*leaf[2:4], r)
    ),
    "reversed": lambda leaves, index, r: leaves[::-1],
    "shuffled": lambda leaves, index, r: random.Random(index).sample(leaves, len(leaves)),
}


@pytest.mark.parametrize("order", sorted(BLOCK_ORDERS))
@pytest.mark.parametrize("r,p,n", [(2, 1, 4), (3, 1, 3), (4, 2, 3)])
def test_admissible_store_holds_one_color_content(monkeypatch, r, p, n, order):
    """What the sweep holds at each shape: the shape's fillings and its
    block.  Every member of a block has the color content (n_0, ...,
    n_{r-1}) of the shape's component sizes, and so does each filling; each
    standard filling of a kept shape is checked once per sweep, and the
    one round trip of a shape maps a member of its block.  With each
    block's leaves in another order in the walk the report is the
    same: each member's checks look its images and its leader up in the
    block, whatever their place in it."""
    params = GroupParams(r, p, n)
    expected = without_elapsed(signs.verify_admissible(params))
    real_fillings, real_trip = signs._fillings, signs.rs_map
    seen, built, mapped = [], [], []

    def reordered(index, leaves, r):
        leaves = BLOCK_ORDERS[order](leaves, index, r)
        seen.append((built[-1], {(perm, colors) for _, _, perm, colors, *_ in leaves}))
        return leaves

    def fillings(shape, rows):
        built.append((shape, rows))
        return real_fillings(shape, rows)

    patch_leaves(monkeypatch, r, reordered)
    monkeypatch.setattr(signs, "_fillings", fillings)
    monkeypatch.setattr(signs, "rs_map", lambda w: mapped.append((w.perm, w.colors)) or real_trip(w))
    assert without_elapsed(signs.verify_admissible(params)) == expected
    assert [checked for checked, _ in seen] == built
    entered = [as_tuples(filling) for _, rows in built for filling in rows]
    assert len(entered) == len(set(entered))
    assert set(entered) == content_multitableaux(r, p, n)
    assert len(mapped) == len(seen)
    for ((shape, rows), keys), trip in zip(seen, mapped):
        counts = [sum(lam) for lam in shape]
        assert all([colors.count(k) for k in range(r)] == counts for _, colors in keys), shape
        assert all([sum(map(len, comp)) for comp in filling] == counts for filling in rows), shape
        assert len(keys) == len(rows) ** 2
        assert trip in keys


def test_admissible_sweep_builds_elements_only_to_map_them(monkeypatch):
    """A passing sweep builds a ``GroupElement`` only for each ``rs_map``
    call, one per kept shape: each element's moves, representative and
    leader are read on its one-line data."""
    built = []

    class Counted(GroupElement):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(signs, "GroupElement", Counted)
    mapped, real = [], signs.rs_map
    monkeypatch.setattr(signs, "rs_map", lambda w: mapped.append(w) or real(w))
    assert signs.verify_admissible(GroupParams(2, 1, 4)).passed
    assert len(built) == len(mapped) == MAPPED[2, 1, 4]


@contextmanager
def sweep_fault(kind, cls, match):
    """``pytest.raises`` for a sweep of ``kind`` whose walk raises ``cls``
    after the argument checks: the sweep frame raises ``RuntimeError``
    naming the sweep and the class, chained from the error itself, whose
    message matches the regular expression ``match``."""
    with pytest.raises(RuntimeError, match=f"^verify {kind} raised {cls.__name__} after its argument checks$") as info:
        yield
    cause = info.value.__cause__
    assert type(cause) is cls and re.search(match, str(cause)), repr(cause)


@pytest.mark.parametrize("side", [0, 1], ids=["P", "Q"])
def test_admissible_sweep_validates_rows_it_has_not_seen(monkeypatch, side):
    """Non-standard rows from the insertion pass, for a leaf the sweep
    maps, are never compared as if valid: ``rs_map`` validates the pair it
    builds, and its tableau validation raises, a fault the sweep frame
    raises as ``RuntimeError`` (``sweep_fault``)."""
    real = rs_module._insertion_rows

    def fake(perm, colors, r):
        rows = real(perm, colors, r)
        comp = next((c for c in rows[side] if c and len(c[0]) > 1), None)
        if comp is not None:
            comp[0].reverse()
        return rows

    monkeypatch.setattr(rs_module, "_insertion_rows", fake)
    with sweep_fault("admissible", InvalidTableau, r"^row not increasing: \(4, 3, 2, 1\)$"):
        signs.verify_admissible(GroupParams(2, 1, 4))


def test_admissible_sweep_checks_the_pair_shape(monkeypatch):
    """A mapped leaf whose insertion gives P rows of another shape than its
    Q rows is a ``ShapeMismatch``, as ``RSPair`` raises for it, raised by
    the sweep frame as ``RuntimeError`` (``sweep_fault``)."""
    decoy = (1, 2, 3), (0, 0, 0)  # P is one row of three in component 0
    real = rs_module._insertion_rows
    monkeypatch.setattr(
        rs_module, "_insertion_rows", lambda perm, colors, r: (real(*decoy, r)[0], real(perm, colors, r)[1])
    )
    with sweep_fault("admissible", ShapeMismatch, r"^\(\(3,\), \(\)\) != \(\(\), \(3,\)\)$"):
        signs.verify_admissible(GroupParams(2, 1, 3))


def test_admissible_sweep_validates_every_filling(monkeypatch):
    """A filling that is not standard, from the corner search, raises when
    the sweep builds it, before it is used as a P or a Q, and the sweep
    frame raises it as ``RuntimeError`` (``sweep_fault``)."""
    real = signs._corner_steps

    def corner_steps(shape):
        steps, fillings = real(shape)
        for rows in fillings:
            comp = next((c for c in rows if c and len(c[0]) > 1), None)
            if comp is not None:
                comp[0].reverse()
        return steps, fillings

    monkeypatch.setattr(signs, "_corner_steps", corner_steps)
    with sweep_fault("admissible", InvalidTableau, r"^row not increasing: \(3, 2, 1\)$"):
        signs.verify_admissible(GroupParams(2, 1, 3))


def test_admissible_sweep_reports_a_wrong_component_count(monkeypatch):
    """Both sides of a move read their per-component counts off the
    fillings' component rows (``tableau_inversions``, as ``signs`` binds
    it).  A count
    one too high on the component holding label 1 changes exactly where a
    move carries label 1 to another component: R_1 moves it in Q and L_1 in
    P.  Those moves, and nothing else, must be reported."""
    monkeypatch.setattr(signs, "tableau_inversions", skew_label_one(signs.tableau_inversions))
    params = GroupParams(2, 1, 4)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    assert {(i, expected) for _, i, expected, _ in report.counterexamples} == {
        (1, "R-move invariants"),
        (1, "L-move invariants"),
    }
    moved = sum(
        (w.colors[0] != w.colors[1]) + (w.colors[w.perm.index(1)] != w.colors[w.perm.index(2)])
        for w in enumerate_group(params)
    )
    assert len(report.counterexamples) == moved


def test_admissible_sweep_reports_an_r_move_that_changes_p(monkeypatch):
    """An R-move that swaps the two colors but leaves the values in place
    moves a value to another component of P."""
    monkeypatch.setattr(signs, "_right_move", recolor)
    params = GroupParams(2, 1, 3)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    assert {expected for _, _, expected, _ in report.counterexamples} == {"R-move invariants"}
    r_moves = sum(
        w.colors[i - 1] != w.colors[i] for w in enumerate_group(params) for i in range(1, params.n)
    )
    assert len(report.counterexamples) == r_moves


def test_admissible_sweep_reports_a_round_trip_that_disagrees(monkeypatch):
    """The one leaf per kept shape that goes through ``rs_map``: a pair
    other than (P, filling k) is a counterexample naming the walk's pair
    and ``rs_map``'s, and it is the only one."""
    params = GroupParams(2, 1, 3)
    mapped, real = [], signs.rs_map

    def swapped(w):
        pair = real(w)
        mapped.append((w, pair))
        return RSPair(pair.Q, pair.P)

    monkeypatch.setattr(signs, "rs_map", swapped)
    report = signs.verify_admissible(params, max_counterexamples=100)
    assert report.elements_checked == params.order
    assert len(mapped) == len(list(multipartitions(3, 2)))
    assert report.counterexamples == [
        (w, 0, f"{pair.P} {pair.Q}", f"{pair.Q} {pair.P}") for w, pair in mapped if pair.P != pair.Q
    ]
    assert report.counterexamples


def test_admissible_sweep_reports_a_representative_of_another_class(monkeypatch):
    """An ``_ascend`` that gives an ascending element of the wrong class,
    here the leader of another class in the same shape block, is reported
    once for each member it gets wrong, and for no other: the check compares
    it with the leader built from w's own invariants, not with what the walk
    found, so finding it in the block is not enough."""
    params = GroupParams(2, 1, 4)
    leaders = {}  # shape -> the ascending elements whose P has that shape
    for w in enumerate_group(params):
        if is_ascending_element(w):
            leaders.setdefault(rs_map(w).P.shape, []).append((w.perm, w.colors))
    other = {}
    for same_shape in leaders.values():
        for j, key in enumerate(same_shape):
            other[key] = same_shape[(j + 1) % len(same_shape)]
    real = signs._ascend
    monkeypatch.setattr(signs, "_ascend", lambda perm, colors: ([], [], other[real(perm, colors)[2]]))
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    wrong = {}
    for w in enumerate_group(params):
        rho = ascending_representative(w)
        given = GroupElement(params, *other[rho.perm, rho.colors])
        if given != rho:
            wrong[w] = str(given)
    assert 0 < len(wrong) < params.order
    assert len(report.counterexamples) == len(wrong)
    assert {(w, got) for w, i, expected, got in report.counterexamples} == set(wrong.items())
    assert {(i, expected) for _, i, expected, _ in report.counterexamples} == {(0, "ascending representative")}


def test_admissible_sweep_reports_a_leader_missing_from_its_block(monkeypatch):
    """A block that lacks one class leader, as a walk that skipped a leaf
    would give: each other member of that class reports its leader missing,
    with the leader it looked for, and the sweep is one element short."""
    params = GroupParams(2, 1, 3)
    dropped = []

    def short(index, leaves, r):
        # the first leader of a class of more than one element: two colors
        leaders = [leaf for leaf in leaves if rs_module._is_ascending(*leaf[2:4], r) and len(set(leaf[3])) > 1]
        if leaders and not dropped:
            dropped.append(leaders[0][2:4])
            leaves.remove(leaders[0])
        return leaves

    patch_leaves(monkeypatch, params.r, short)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    leader = GroupElement(params, *dropped[0])
    members = {w for w in enumerate_group(params) if ascending_representative(w) == leader and w != leader}
    missing = [(w, i, got) for w, i, expected, got in report.counterexamples if expected == "class leader in the shape block"]
    assert members and len(missing) == len(members)
    assert set(missing) == {(w, 0, str(leader)) for w in members}
    assert report.elements_checked == params.order - 1
    assert report.counterexamples[-1] == ("G(2,1,3)", 0, "48 elements", "47 checked")


@pytest.mark.parametrize("kind", ["theorem", "admissible"])
def test_sweep_refuses_a_walk_that_reads_label_one_as_the_value_one(monkeypatch, kind):
    """A walk that puts the value 1 at position 1 of every leaf, rather
    than the value in label 1's box, yields one-line data that are not
    permutations.  The theorem and admissible sweeps build a
    ``GroupElement`` for their round-trip leaf and for each counterexample,
    and its validation refuses such data: the sweep frame raises that
    ``NotAPermutation`` as a fault (``sweep_fault``)."""
    params = GroupParams(2, 1, 4)

    def label_one(index, leaves, r):
        return [(a, k, (1, *perm[1:]), colors) for a, k, perm, colors in leaves]

    patch_leaves(monkeypatch, params.r, label_one)
    with sweep_fault(kind, NotAPermutation, "is not a permutation of 1..4$"):
        getattr(signs, f"verify_{kind}")(params)


# Admissible classes against their definition: one color content and, for
# each color, one relative order of the values at that color's positions.


def class_signature(w):
    """Content and within-color orders of w, the two things moves keep."""
    r = w.params.r
    content = tuple(w.colors.count(k) for k in range(r))
    orders = []
    for k in range(r):
        values = [v for v, c in zip(w.perm, w.colors) if c == k]
        ranks = {v: rank for rank, v in enumerate(sorted(values))}
        orders.append(tuple(ranks[v] for v in values))
    return content, tuple(orders)


def multinomial(content):
    out = factorial(sum(content))
    for m in content:
        out //= factorial(m)
    return out


@pytest.mark.parametrize("r,n", [(1, 4), (2, 1), (2, 4), (3, 3), (4, 3), (5, 2)])
def test_admissible_classes_partition_the_group(r, n):
    """Each class of the oracle is one signature with multinomial**2
    members, its first member is ascending and is every member's ascending
    representative, and the classes cover G(r,1,n) once.  Every yielded
    (perm, colors) is a pair of tuples that makes a valid
    ``GroupElement``."""
    params = GroupParams(r, 1, n)
    seen, signatures = [], set()
    for keys in admissible_classes(params):
        assert all(type(perm) is type(colors) is tuple for perm, colors in keys)
        members = [GroupElement(params, *key) for key in keys]
        rho = members[0]
        content, _ = signature = class_signature(rho)
        assert signature not in signatures
        signatures.add(signature)
        assert len(members) == multinomial(content) ** 2
        assert is_ascending_element(rho)
        for w in members:
            assert class_signature(w) == signature, str(w)
            assert ascending_representative(w) == rho, str(w)
        seen += members
    assert len(seen) == params.order
    assert set(seen) == set(enumerate_group(params))


@pytest.mark.parametrize("r,p,n", [(4, 2, 3), (6, 3, 2), (2, 2, 4), (3, 3, 3)])
def test_admissible_classes_cover_exactly_the_subgroup(r, p, n):
    params = GroupParams(r, p, n)
    seen = [GroupElement(params, *key) for keys in admissible_classes(params) for key in keys]
    assert len(seen) == params.order
    assert set(seen) == set(enumerate_group(params))


def test_admissible_classes_of_a_large_r():
    """Contents are read off sorted color words, not built one color at a
    time, so an r above the recursion limit works: one class per color."""
    r = 2 * sys.getrecursionlimit()
    params = GroupParams(r, 1, 1)
    assert list(admissible_classes(params)) == [[((1,), (k,))] for k in range(r)]


def move_oracle_elements():
    """Every element of G(2,1,4), G(3,1,3) and G(4,2,3), then 300 seeded
    random elements of rank 8 to 64."""
    for params in (GroupParams(2, 1, 4), GroupParams(3, 1, 3), GroupParams(4, 2, 3)):
        yield from enumerate_group(params)
    rng = random.Random(19)
    for _ in range(300):
        yield random_element(rng, rng.randint(8, 64), rng.choice((2, 3, 4, 8)))


def test_one_line_moves_and_ascend_match_products_and_the_element_api():
    """The one-line routines the admissible sweep calls, against group
    products and the element API that wraps them: wherever a move is
    admissible, ``_right_move`` gives w * s_i and ``_left_move`` (through a
    value-to-position array) gives s_i * w, as tuples and equal to
    ``right_admissible`` / ``left_admissible``; ``_ascend`` gives the one
    ascending element of w's class signature, ``ascending_representative``
    and ``ascending_moves``, whose replay leads to it."""

    def key(w):
        return w.perm, w.colors

    gens = {}
    moves = 0
    for w in move_oracle_elements():
        params, perm, colors = w.params, w.perm, w.colors
        if params not in gens:
            gens[params] = [None] + [generator(params, i) for i in range(1, params.n)]
        position = [0] * (params.n + 1)
        for p, v in enumerate(perm):
            position[v] = p
        for i in range(1, params.n):
            s_i = gens[params][i]
            if colors[i - 1] != colors[i]:
                moved = rs_module._right_move(perm, colors, i)
                assert type(moved[0]) is type(moved[1]) is tuple
                assert moved == key(w * s_i) == key(right_admissible(w, i)), (str(w), i)
                moves += 1
            if colors[position[i]] != colors[position[i + 1]]:
                moved = rs_module._left_move(perm, position, i)
                assert type(moved) is tuple
                assert (moved, colors) == key(s_i * w) == key(left_admissible(w, i)), (str(w), i)
                moves += 1
        right, left, rep = rs_module._ascend(perm, colors)
        assert type(rep[0]) is type(rep[1]) is tuple
        rho = GroupElement(params, *rep)
        assert is_ascending_element(rho) and class_signature(rho) == class_signature(w), str(w)
        assert rho == ascending_representative(w) == apply_moves(w, ascending_moves(w)), str(w)
        assert ascending_moves(w) == [("R", i) for i in right] + [("L", i) for i in left]
    assert moves > 10**4


def test_admissible_counterexamples_come_in_class_walk_order(monkeypatch):
    """With R-moves patched to the identity every admissible R-move fails,
    and each is reported by shape, then by P, then in walk order: the order
    ``theorem_leaves`` builds without the walk."""
    monkeypatch.setattr(signs, "_right_move", lambda perm, colors, i: (perm, colors))
    params = GroupParams(3, 1, 3)
    report = signs.verify_admissible(params, max_counterexamples=10**4)
    walk = [
        (w, i, "R-move invariants", "violated")
        for w, _, _ in theorem_leaves(params)
        for i in range(1, params.n)
        if w.colors[i - 1] != w.colors[i]
    ]
    assert report.counterexamples == walk
    assert signs.verify_admissible(params).counterexamples == walk[:10]


def test_admissible_sweep_reports_a_wrong_ascending_representative(monkeypatch):
    """An ascending representative that returns w itself is wrong exactly
    on the non-ascending elements: all but one per class, where a content
    has prod n_k! classes."""
    monkeypatch.setattr(signs, "_ascend", lambda perm, colors: ([], [], (perm, colors)))
    r, n = 3, 3
    params = GroupParams(r, 1, n)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    assert {(i, expected) for _, i, expected, _ in report.counterexamples} == {
        (0, "ascending representative")
    }
    ascending = 0
    for content in product(range(n + 1), repeat=r):
        if sum(content) == n:
            ascending += prod(factorial(m) for m in content)
    assert len(report.counterexamples) == params.order - ascending
    assert {w for w, *_ in report.counterexamples} == {
        w for w in enumerate_group(params) if not is_ascending_element(w)
    }


def test_admissible_sweep_reports_broken_sign_data(monkeypatch):
    """inv(sigma) one too high wherever value 1 has color 0 flips the sign
    on those elements only.  A class with color 0 has such an ascending
    element and members without, whose agreements then differ for every i;
    a class without color 0 has neither.  Only those agreements may be
    reported.  The fault, in the kernel, flips the defect parity of each
    leaf whose P holds label 1 in component 0, as e(P) one too high on
    those P would."""
    patch_kernel(monkeypatch, lambda perm, colors, r, inv, color_sum: (inv + (colors[perm.index(1)] == 0), color_sum))
    params = GroupParams(2, 1, 4)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    expected = {
        (w, i)
        for w in enumerate_group(params)
        if 0 in w.colors and w.colors[w.perm.index(1)] != 0
        for i in range(params.r)
    }
    assert {(w, i) for w, i, _, _ in report.counterexamples} == expected
    assert len(report.counterexamples) == len(expected)
    assert all(got != agrees for _, _, agrees, got in report.counterexamples)


@pytest.mark.parametrize("member_shift,recorded", [(3, set()), (2, {(2, True, False)})])
def test_admissible_sweep_compares_the_disagreeing_i_not_the_defects(monkeypatch, member_shift, recorded):
    """At r = 4 the defects (0, 1) and (0, 3) both disagree at i = 1, 2, 3,
    and (0, 2) at i = 1, 3.  Shifts skewed by 1 on each class's ascending
    element and by ``member_shift`` on its other members, through color
    sums from the kernel that are that much low, give differing defects; a
    counterexample is each i where exactly one of the two agrees, so none
    when the disagreeing i are the same."""

    def skewed(perm, colors, r, inv_sigma, color_sum):
        return inv_sigma, color_sum - (1 if rs_module._is_ascending(perm, colors, r) else member_shift)

    patch_kernel(monkeypatch, skewed)
    params = GroupParams(4, 1, 3)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    assert report.elements_checked == params.order
    not_ascending = [w for w in enumerate_group(params) if not is_ascending_element(w)]
    assert len(report.counterexamples) == len(not_ascending) * len(recorded)
    assert {(w, i, a, b) for w, i, a, b in report.counterexamples} == {
        (w, *c) for w in not_ascending for c in recorded
    }


# Tableau validation against the checks run one by one.  The oracles are
# the step-by-step definitions in their documented order; construction
# takes a one-pass route and must agree on the exception class and message
# of the first failing check, and accept every valid input on that route.


def oracle_tableau(rows):
    """(class, message) of the first failing tableau check, or None."""
    if not rows:
        return None
    lens = [len(row) for row in rows]
    labels = [x for row in rows for x in row]
    if 0 in lens:
        return InvalidTableau, "empty row"
    if any(a < b for a, b in zip(lens, lens[1:])):
        return InvalidTableau, f"row lengths must weakly decrease: {lens}"
    if len(set(labels)) != len(labels) or min(labels) < 1:
        return InvalidTableau, "labels must be distinct positive integers"
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return InvalidTableau, f"row not increasing: {row}"
    for i in range(len(rows) - 1):
        if any(a >= b for a, b in zip(rows[i], rows[i + 1])):
            return InvalidTableau, f"column not increasing between rows {i + 1} and {i + 2}"
    return None


def oracle_multitableau(components):
    for rows in components:
        failure = oracle_tableau(rows)
        if failure:
            return failure
    labels = sorted(x for rows in components for row in rows for x in row)
    if labels != list(range(1, len(labels) + 1)):
        return InvalidTableau, f"labels must be exactly 1..n, got {labels}"
    return None


def shape_of(components):
    return tuple(tuple(len(row) for row in rows) for rows in components)


def oracle_pair(p_components, q_components):
    failure = oracle_multitableau(p_components) or oracle_multitableau(q_components)
    if failure:
        return failure
    if shape_of(p_components) != shape_of(q_components):
        return ShapeMismatch, f"{shape_of(p_components)} != {shape_of(q_components)}"
    return None


def outcome(build):
    try:
        build()
    except GrpnError as exc:
        return type(exc), str(exc)
    return None


def as_tuples(components):
    return tuple(tuple(tuple(row) for row in rows) for rows in components)


@cache
def validation_corpus():
    """Component row lists of rs_map images up to rank 64 and of every
    standard multitableau up to rank 6, as tuples; one list of (P, Q) pairs
    and one of multitableaux.  Built on first use, once per session, so a
    fault in the enumeration fails the tests that use it, not the import."""
    rng = random.Random(29)
    pairs = []
    for _ in range(200):
        w = random_element(rng, rng.randint(1, 64), rng.choice((1, 2, 3, 4, 8)))
        p_rows, q_rows = _insertion_rows(w.perm, w.colors, w.params.r)
        pairs.append((as_tuples(p_rows), as_tuples(q_rows)))
    multis = [comps for pair in pairs for comps in pair]
    for r, n in ((1, 6), (2, 6), (3, 5)):
        for n_ in range(n + 1):
            for shape in multipartitions(n_, r):
                multis += [as_tuples(rows_of(T)) for T in standard_multitableaux(shape)]
    return pairs, multis


@cache
def corpus_tableaux():
    """Every component of ``validation_corpus``'s multitableaux, each once."""
    return sorted({rows for comps in validation_corpus()[1] for rows in comps})


def bottom_up_filling(rows):
    """The shape of rows filled row by row from the bottom: rows increase,
    every column above the last row descends."""
    labels = iter(sorted(x for row in rows for x in row))
    filled = [tuple(next(labels) for _ in row) for row in reversed(rows)]
    return tuple(reversed(filled))


def repeated_label(rows):
    """rows with its largest label replaced by a smaller label that keeps
    the rows and columns increasing, or None when there is none."""
    top = max(x for row in rows for x in row)
    i = next(i for i, row in enumerate(rows) if row[-1] == top)
    j = len(rows[i]) - 1
    least = max(rows[i][j - 1] if j else 0, rows[i - 1][j] if i else 0)
    x = next((x for row in rows for x in row if least < x < top), None)
    if x is None:
        return None
    return rows[:i] + (rows[i][:j] + (x,),) + rows[i + 1 :]


def corrupted_tableaux(rows):
    """Copies of a nonempty standard tableau, each breaking one check."""
    top = max(x for row in rows for x in row)
    yield rows + ((),)  # an empty row
    yield ((),) + rows
    yield rows + (tuple(range(top + 1, top + 2 + len(rows[-1]))),)  # growing lengths
    yield (rows[0] + (rows[0][0],),) + rows[1:]  # a repeated label
    if repeated_label(rows):
        yield repeated_label(rows)
    yield ((0,) + rows[0][1:],) + rows[1:]  # label 0
    yield ((-top,) + rows[0][1:],) + rows[1:]
    for i, row in enumerate(rows):  # a row descent
        if len(row) > 1:
            yield rows[:i] + (row[:-2] + (row[-1], row[-2]),) + rows[i + 1 :]
    if len(rows) > 1:  # a column descent
        yield bottom_up_filling(rows)
        yield rows[1:] + rows[:1]


def test_valid_tableaux_pass_in_one_pass():
    assert len(corpus_tableaux()) > 1000
    for rows in corpus_tableaux():
        assert oracle_tableau(rows) is None
        if rows:
            assert _is_standard(rows), rows
        assert StandardTableau(rows).rows == rows
        assert StandardTableau([list(row) for row in rows]).rows == rows


def test_corrupted_tableaux_name_the_first_failing_check():
    seen = set()
    for rows in corpus_tableaux():
        if not rows:
            continue
        for bad in corrupted_tableaux(rows):
            expected = oracle_tableau(bad)
            assert expected is not None, bad
            assert not _is_standard(bad), bad
            assert outcome(lambda: StandardTableau(bad)) == expected, bad
            seen.add(expected[1].split(":")[0].split(" between")[0])
    # labels that do not compare with 1 still get the first failing check
    assert outcome(lambda: StandardTableau(((None,), ()))) == (InvalidTableau, "empty row")
    assert seen == {
        "empty row",
        "row lengths must weakly decrease",
        "labels must be distinct positive integers",
        "row not increasing",
        "column not increasing",
    }


def corrupted_label_sets(components):
    """Copies of a standard multitableau whose components stay standard but
    whose labels are not exactly 1..n: a gap, then a repeat."""
    n = sum(len(row) for rows in components for row in rows)
    if not n:
        return
    yield tuple(
        tuple(tuple(x + 1 if x == n else x for x in row) for row in rows) for rows in components
    )
    nonempty = next(rows for rows in components if rows)
    yield components + (nonempty,)


def test_multitableau_labels_match_the_oracle():
    for comps in validation_corpus()[1]:
        assert oracle_multitableau(comps) is None
        T = Multitableau(StandardTableau(rows) for rows in comps)
        assert as_tuples(rows_of(T)) == comps
        for bad in corrupted_label_sets(comps):
            expected = oracle_multitableau(bad)
            assert expected is not None and "exactly 1..n" in expected[1], bad
            assert outcome(lambda: Multitableau([StandardTableau(rows) for rows in bad])) == expected


def test_from_rows_matches_the_component_by_component_build():
    """``Multitableau.from_rows``, the one row-list builder, against the
    multitableau built component by component.  On every invalid row list
    of the validation corpus (each corrupted tableau as a component alone
    and after a valid component, and each corrupted label set) it raises
    that build's exception class and message, which are the oracle's and
    ``from_json``'s on the same lists.  On every standard multitableau of
    rank <= 5 at r <= 3, found by brute force, it gives that build's
    object."""

    def by_components(comps):
        return Multitableau(tuple(StandardTableau(rows) for rows in comps))

    invalid = []
    for rows in corpus_tableaux():
        if rows:
            for bad in corrupted_tableaux(rows):
                invalid += [(bad,), (rows, bad)]
    for comps in validation_corpus()[1]:
        invalid += corrupted_label_sets(comps)
    for bad in invalid:
        expected = outcome(lambda: by_components(bad))
        assert expected is not None and expected == oracle_multitableau(bad), bad
        assert outcome(lambda: Multitableau.from_rows(bad)) == expected, bad
        assert outcome(lambda: Multitableau.from_json([[list(row) for row in rows] for rows in bad])) == expected, bad
    built = 0
    for r in (1, 2, 3):
        for n in range(6):
            for shape in multipartitions(n, r):
                for comps in brute_force_fillings(shape):
                    T = Multitableau.from_rows(comps)
                    assert T == by_components(comps), comps
                    assert as_tuples(rows_of(T)) == comps
                    built += 1
    assert built > 1000


def test_rs_pair_shapes_match_the_oracle():
    rng = random.Random(31)
    mismatches = 0
    pairs = validation_corpus()[0]
    for p_comps, q_comps in pairs:
        assert oracle_pair(p_comps, q_comps) is None
        n = sum(len(row) for rows in p_comps for row in rows)
        # a Q of the same rank and r but another element's shape, and Q's
        # components in another order
        v = random_element(rng, n, len(q_comps))
        other = _insertion_rows(v.perm, v.colors, v.params.r)[1]
        for bad_q in (as_tuples(other), q_comps[1:] + q_comps[:1], q_comps + ((),)):
            expected = oracle_pair(p_comps, bad_q)
            mismatches += expected is not None
            P = Multitableau([StandardTableau(rows) for rows in p_comps])
            Q = Multitableau([StandardTableau(rows) for rows in bad_q])
            assert outcome(lambda: RSPair(P, Q)) == expected, (p_comps, bad_q)
    assert mismatches > len(pairs)


# The block check of a shape's fillings (``check_fillings``) against the
# fillings built one by one with ``Multitableau.from_rows``.


def block_oracle(shape, block):
    """(class, message) of the first failure of ``block`` as fillings of
    ``shape``, or None: the first filling ``from_rows`` refuses, then the
    first standard filling of another shape, then the first filling equal to
    an earlier one."""
    built = []
    for filling in block:
        failure = outcome(lambda: Multitableau.from_rows(filling))
        if failure:
            return failure
        built.append(Multitableau.from_rows(filling))
    first = {}
    for a, T in enumerate(built):
        if T.shape != shape:
            return ShapeMismatch, f"filling {a} has shape {T.shape}, expected {shape}"
        if first.setdefault(T, a) != a:
            return InvalidTableau, f"filling {a} repeats filling {first[T]}"
    return None


def check_block(shape, block):
    """``check_fillings`` on ``block`` gives the oracle's outcome, and on a
    block it passes the fillings' reading words.  Returns the outcome."""
    expected = block_oracle(shape, block)
    assert outcome(lambda: check_fillings(shape, block)) == expected, (shape, block)
    if expected is None:
        assert check_fillings(shape, block) == [tuple(reading_word(f)) for f in block]
    return expected


def swapped(filling, one, other):
    """``filling`` with the labels of the boxes ``one`` and ``other``, each
    (component, row, column), exchanged."""
    comps = [[list(row) for row in rows] for rows in filling]
    (k, t, c), (k2, t2, c2) = one, other
    comps[k][t][c], comps[k2][t2][c2] = comps[k2][t2][c2], comps[k][t][c]
    return as_tuples(comps)


def moved(filling, source, target):
    """``filling`` with the last box of row ``source``, a (component, row),
    moved to the end of row ``target``, or to a new last row of ``target``'s
    component when that row does not exist; an emptied row is dropped."""
    comps = [[list(row) for row in rows] for rows in filling]
    (k, t), (k2, t2) = source, target
    x = comps[k][t].pop()
    if t2 < len(comps[k2]):
        comps[k2][t2].append(x)
    else:
        comps[k2].append([x])
    comps[k] = [row for row in comps[k] if row]
    return as_tuples(comps)


def structural_corruptions(filling):
    """Copies of a standard filling with two labels swapped within a row,
    down a column or across components, or with a box moved to another row
    or component."""
    boxes = [(k, t, c) for k, rows in enumerate(filling) for t, row in enumerate(rows) for c in range(len(row))]
    for k, t, c in boxes:
        if c + 1 < len(filling[k][t]):
            yield swapped(filling, (k, t, c), (k, t, c + 1))
        if t + 1 < len(filling[k]) and c < len(filling[k][t + 1]):
            yield swapped(filling, (k, t, c), (k, t + 1, c))
    for one, other in combinations(boxes, 2):
        if one[0] != other[0]:
            yield swapped(filling, one, other)
    rows = [(k, t) for k, comp in enumerate(filling) for t in range(len(comp))]
    for source in rows:
        for k2, comp in enumerate(filling):
            for t2 in range(len(comp) + 1):
                bad = moved(filling, source, (k2, t2))
                if bad != filling:  # a lone last box moved below itself stays
                    yield bad


def test_block_check_refuses_what_from_rows_refuses():
    """On the validation corpus, each multitableau alone passes and each
    invalid row list of it (as in the ``from_rows`` test) is refused with
    ``from_rows``' class and message, alone and after a valid filling.  On
    every shape of rank <= 4 at r <= 3, each structural corruption of one
    filling, in its place in the shape's block, and each repeat of one
    filling in place of another, gives the oracle's outcome: the first
    filling ``from_rows`` refuses, else the first of another shape, else
    the first repeat, else the reading words."""
    for comps in validation_corpus()[1]:
        assert check_block(shape_of(comps), [comps]) is None
        for bad in corrupted_label_sets(comps):
            assert check_block(shape_of(bad), [bad]) is not None
            assert check_block(shape_of(comps), [comps, bad]) is not None
    for rows in corpus_tableaux():
        if rows:
            for bad in corrupted_tableaux(rows):
                assert check_block(shape_of((bad,)), [(bad,)]) is not None
                assert check_block(shape_of((rows,)), [(rows,), (bad,)]) is not None
    outcomes = set()
    for r in (1, 2, 3):
        for n in range(5):
            for index, shape in enumerate(multipartitions(n, r)):
                block = [as_tuples(rows) for rows in _corner_steps(shape)[1]]
                assert check_block(shape, block) is None
                a = index % len(block)
                for bad in structural_corruptions(block[a]):
                    outcomes.add(check_block(shape, block[:a] + [bad] + block[a + 1 :]))
                for b in range(len(block)):
                    if b != a:
                        repeated = block[:b] + [block[a]] + block[b + 1 :]
                        outcomes.add(check_block(shape, repeated))
    messages = {o[1].split(":")[0].split(" between")[0] for o in outcomes if o}
    assert {"row not increasing", "column not increasing", "row lengths must weakly decrease"} <= messages
    assert any(o and o[0] is ShapeMismatch for o in outcomes)
    assert any(o and "repeats filling" in o[1] for o in outcomes)
    assert None not in outcomes


@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_check_passes_every_shape_with_its_reading_words(r):
    """Every shape of rank <= 6: the corner search's fillings pass, and
    the words are ``reading_word``'s."""
    for n in range(7):
        for shape in multipartitions(n, r):
            fillings = _corner_steps(shape)[1]
            assert check_fillings(shape, fillings) == [tuple(reading_word(f)) for f in fillings], shape


def patch_search(monkeypatch, corrupt):
    """Replace the corner search where the sweeps call it: the fillings of
    the first shape that ``corrupt`` changes, in place, stay changed.
    ``corrupt`` returns whether it changed them.  Returns the list that then
    holds that shape."""
    real = signs._corner_steps
    corrupted = []

    def corner_steps(shape):
        steps, fillings = real(shape)
        if not corrupted and corrupt(fillings):
            corrupted.append(shape)
        return steps, fillings

    monkeypatch.setattr(signs, "_corner_steps", corner_steps)
    return corrupted


def column_descent(fillings):
    """Swap the labels at the top of the first column of a component in
    the last filling but the first where the swap keeps every row
    increasing.  The first filling is left alone: it is also built as a
    ``Multitableau``, for e and twice_spin."""
    for rows in reversed(fillings[1:]):
        for comp in rows:
            if len(comp) > 1 and (len(comp[0]) == 1 or comp[1][0] < comp[0][1]):
                comp[0][0], comp[1][0] = comp[1][0], comp[0][0]
                return True
    return False


@pytest.mark.parametrize("kind", ["theorem", "admissible"])
def test_sweep_refuses_a_filling_that_is_not_standard_before_any_walk(monkeypatch, kind):
    """A search that hands the sweep one filling whose rows increase but
    whose first column does not: the block check raises ``from_rows``'
    ``InvalidTableau`` before any walk of the shape, since the walk does
    not check its rows."""
    corrupted = patch_search(monkeypatch, column_descent)
    real, walked = signs._removal_walk, []
    monkeypatch.setattr(signs, "_removal_walk", lambda fillings, steps: walked.append(steps[0]) or real(fillings, steps))
    with sweep_fault(kind, InvalidTableau, "column not increasing between rows 1 and 2"):
        getattr(signs, f"verify_{kind}")(GroupParams(2, 1, 4))
    assert corrupted and corrupted[0] not in walked


@pytest.mark.parametrize("kind", ["theorem", "admissible"])
def test_sweep_refuses_a_repeated_filling(monkeypatch, kind):
    """A search that yields its first filling twice, in place of its last,
    keeps the hook-length count; the block check refuses it, so the sweeps'
    fillings are exactly the shape's standard fillings."""

    def repeat(fillings):
        if len(fillings) > 1:
            fillings[-1] = copy.deepcopy(fillings[0])
            return True
        return False

    corrupted = patch_search(monkeypatch, repeat)
    with sweep_fault(kind, InvalidTableau, r"filling \d+ repeats filling 0"):
        getattr(signs, f"verify_{kind}")(GroupParams(2, 1, 4))
    assert corrupted
