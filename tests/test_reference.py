"""The fast statistics against their direct definitions.

Each oracle here is the straightforward pairwise or object-level
definition that the library computes by a faster route: the O(n^2)
inversion count, the within-plus-cross multitableau count, OneDimValue
canonical forms, move-by-move replay of the ascending moves, and the
tableau-object route to the sign formula's statistics and to the
admissible-move checks.
"""

import random
from itertools import chain

import pytest

from grpn import signs
from grpn.errors import CapExceeded
from grpn.group import (
    GroupElement,
    GroupParams,
    OneDimValue,
    enumerate_group,
    inversions,
)
from grpn.rs import (
    _insertion_walk,
    _rs_rows,
    apply_moves,
    ascending_moves,
    ascending_representative,
    left_admissible,
    right_admissible,
    row_insert,
    rs_inverse,
    rs_map,
)
from grpn.signs import pi_from_tableaux
from grpn.tableaux import (
    StandardTableau,
    cross_inversions,
    multipartitions,
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
    comps = T.components
    within = sum(pairwise_inversions(row_numbers(t)) for t in comps)
    cross = sum(
        cross_inversions(comps[k], comps[l])
        for k in range(len(comps))
        for l in range(k + 1, len(comps))
    )
    return within + cross


def row_numbers(t):
    rows_of = t.row_index()
    return [rows_of[x] for x in sorted(rows_of)]


def object_stats(T):
    """e, inv and twice-spin of a multitableau, component by component."""
    return (
        sum(t.even_row_boxes() for t in T.components),
        within_plus_cross(T),
        sum(k * t.size for k, t in enumerate(T.components)),
    )


def row_insert_image(w):
    """P and Q row lists of w, built by ``row_insert`` one entry at a time."""
    P = [StandardTableau(()) for _ in range(w.params.r)]
    Q = [[] for _ in range(w.params.r)]
    for i, (x, k) in enumerate(zip(w.perm, w.colors), start=1):
        P[k], (row, _) = row_insert(P[k], x)
        if row > len(Q[k]):
            Q[k].append([])
        Q[k][row - 1].append(i)
    return [[list(row) for row in t.rows] for t in P], Q


def check_row_route(w):
    """The row-list statistics and (sign, spin_sum) of w against rs_map's
    objects, their methods and the component-by-component definitions."""
    p_rows, q_rows = _rs_rows(w)
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
                    assert t.inversions() == pairwise_inversions(row_numbers(t))


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


def test_sweep_reports_a_broken_kernel(monkeypatch):
    """A kernel with the wrong sign of the permutation must fail the sweep
    at every i, with the counterexamples still given as values."""
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
    first = next(enumerate_group(params))
    assert [c[:2] for c in report.counterexamples[:3]] == [(first, 0), (first, 1), (first, 2)]
    for w, i, expected, got in report.counterexamples:
        assert isinstance(expected, OneDimValue) and isinstance(got, OneDimValue)
        assert got == w.one_dim(i, 1)
        assert expected == OneDimValue(-got.sign, got.exponent, params.r)
    data = report.to_json()
    assert [f["i"] for f in data["failures"]] == [i for _, i, _, _ in report.counterexamples]
    assert data["failures"][0]["expected"] == {"sign": -1, "exponent": 0}
    assert data["failures"][0]["got"] == {"sign": 1, "exponent": 0}


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
        assert list(_rs_rows(w)) == list(row_insert_image(w)), w


def test_membership_sweep_reports_a_wrong_twice_spin(monkeypatch):
    """The forward direction reads twice_spin(P) off the row lists; a wrong
    value there must show up as counterexamples."""
    monkeypatch.setattr(signs, "rows_twice_spin", lambda comps: rows_twice_spin(comps) + 1)
    full = GroupParams(2, 1, 3)
    report = signs.verify_membership(GroupParams(2, 2, 3), max_counterexamples=1000)
    assert not report.passed
    assert report.elements_checked == full.order
    assert len(report.counterexamples) == full.order
    for w, i, member, criterion in report.counterexamples:
        assert i == 0 and member == w.is_member(2) != criterion


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4), (1, 6)])
def test_insertion_walk_matches_enumeration_and_rs_rows(r, n):
    """Every element once, in (v_1, c_1, v_2, c_2, ...) order, with the rows
    of its own insertion pass; the buffers are empty once the walk ends."""
    params = GroupParams(r, 1, n)
    keys = []
    for perm, colors, p_rows in _insertion_walk(params):
        w = GroupElement(params, tuple(perm), tuple(colors))
        assert p_rows == _rs_rows(w)[0], str(w)
        keys.append(tuple(chain.from_iterable(zip(perm, colors))))
    assert keys == sorted(set(keys))
    assert len(keys) == params.order
    assert {k[::2] + k[1::2] for k in keys} == {w.perm + w.colors for w in enumerate_group(params)}
    assert p_rows == [[] for _ in range(r)]  # the live buffers, after the walk


def test_insertion_walk_cap_matches_enumerate_group():
    for params in (GroupParams(3, 1, 4), GroupParams(4, 2, 3)):
        with pytest.raises(CapExceeded) as walk:
            next(_insertion_walk(params, cap=params.order - 1))
        with pytest.raises(CapExceeded) as enum:
            next(enumerate_group(params, cap=params.order - 1))
        assert str(walk.value) == str(enum.value)
    assert str(walk.value) == "G(4,1,3) has 384 elements, above cap 191"
    with pytest.raises(CapExceeded, match="G\\(2,1,5\\) has 3840 elements, above cap 100"):
        signs.verify_membership(GroupParams(2, 2, 5), cap=100)
    assert sum(1 for _ in _insertion_walk(GroupParams(3, 1, 4), cap=1944)) == 1944


def test_membership_counterexamples_come_in_walk_order(monkeypatch):
    monkeypatch.setattr(signs, "rows_twice_spin", lambda comps: rows_twice_spin(comps) + 1)
    params = GroupParams(4, 2, 3)  # p = 2: the shift flips every verdict
    report = signs.verify_membership(params, max_counterexamples=10)
    walked = [(tuple(perm), tuple(colors)) for perm, colors, _ in _insertion_walk(params)]
    assert [(w.perm, w.colors) for w, *_ in report.counterexamples] == walked[:10]
    assert all(w.params == GroupParams(4, 1, 3) for w, *_ in report.counterexamples)


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3)])
def test_agreement_codes_match_value_comparison(r, n):
    """``_agreements`` against ``OneDimValue`` == ``one_dim`` for every i, on
    each element's own sign data and on data that disagrees with it."""
    outcomes = set()
    for w in enumerate_group(GroupParams(r, 1, n)):
        sign, spin_sum = signs._rows_data(*_rs_rows(w))
        for s, spin in ((sign, spin_sum), (-sign, spin_sum), (sign, spin_sum + 1), (-sign, 0)):
            expected = [OneDimValue(s, (i * spin) % r, r) == w.one_dim(i, 1) for i in range(r)]
            assert signs._agreements(s, spin, w) == expected, (str(w), s, spin)
            outcomes.update(expected)
    assert outcomes == {True, False}


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


def test_tableau_inversions_match_pairwise_on_rs_images_up_to_rank_64():
    rng = random.Random(19)
    for _ in range(300):
        w = random_element(rng, rng.randint(1, 64), rng.randint(1, 8))
        pair = rs_map(w)
        for t in pair.P.components + pair.Q.components:
            expected = pairwise_inversions(row_numbers(t))
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
    """The same invariants on row lists, as ``verify_admissible`` reads them."""
    return (
        fixed == fixed_before,
        abs(rows_inversions(changed) - rows_inversions(changed_before)) == 1,
        [tableau_inversions(c) for c in changed]
        == [tableau_inversions(c) for c in changed_before],
    )


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (4, 3)])
def test_move_images_on_rows_match_objects(r, n):
    """Every admissible move's image: its row lists are the rows of its
    ``rs_map`` pair, and each invariant reads the same on rows as on
    objects, both for the side the move fixes (true) and the side it does
    not (mostly false)."""
    params = GroupParams(r, 1, n)
    outcomes = set()
    for w in enumerate_group(params):
        pair = rs_map(w)
        w_objs = pair.P, pair.Q
        w_rows = rows_of(pair.P), rows_of(pair.Q)
        moves = [right_admissible(w, i) for i in range(1, n) if w.colors[i - 1] != w.colors[i]]
        moves += [
            left_admissible(w, i)
            for i in range(1, n)
            if w.colors[w.perm.index(i)] != w.colors[w.perm.index(i + 1)]
        ]
        for moved in moves:
            rows = _rs_rows(moved)
            image = rs_map(moved)
            objs = image.P, image.Q
            assert list(rows) == [rows_of(image.P), rows_of(image.Q)], (str(w), str(moved))
            for f, c in ((0, 1), (1, 0)):  # P fixed (R-move check), Q fixed (L-move check)
                on_objects = object_move_check(objs[f], w_objs[f], objs[c], w_objs[c])
                on_rows = row_move_check(rows[f], w_rows[f], rows[c], w_rows[c])
                assert on_rows == on_objects, (str(w), str(moved), f)
                outcomes.add(on_rows)
                comp_inv = [t.inversions() for t in w_objs[c].components]
                inv = w_objs[c].inversions()
                ok = signs._move_keeps_invariants(rows[f], w_rows[f], rows[c], inv, comp_inv)
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


def test_admissible_sweep_reports_a_wrong_component_count(monkeypatch):
    """The per-component counts of each move's image are read with
    ``signs.tableau_inversions``; a wrong count there must be reported on
    both sides."""
    monkeypatch.setattr(signs, "tableau_inversions", lambda rows: 0)
    report = signs.verify_admissible(GroupParams(2, 1, 4), max_counterexamples=10**6)
    assert not report.passed
    assert {expected for _, _, expected, _ in report.counterexamples} == {
        "R-move invariants",
        "L-move invariants",
    }


def test_admissible_sweep_reports_an_r_move_that_changes_p(monkeypatch):
    """An R-move that swaps the two colors but leaves the values in place
    moves a value to another component of P."""

    def recolor(w, i):
        colors = list(w.colors)
        colors[i - 1], colors[i] = colors[i], colors[i - 1]
        return GroupElement(w.params, w.perm, tuple(colors))

    monkeypatch.setattr(signs, "right_admissible", recolor)
    params = GroupParams(2, 1, 3)
    report = signs.verify_admissible(params, max_counterexamples=10**6)
    assert {expected for _, _, expected, _ in report.counterexamples} == {"R-move invariants"}
    r_moves = sum(
        w.colors[i - 1] != w.colors[i] for w in enumerate_group(params) for i in range(1, params.n)
    )
    assert len(report.counterexamples) == r_moves
