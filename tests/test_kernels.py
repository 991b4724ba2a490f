"""The theorem sweep's per-leaf data against the independent oracles of
test_reference: pairwise inversion counts, and the component-by-component
statistics of the image built one entry at a time by test_reference's
``row_insert``, a Schensted insertion on row lists by linear scan.

The sweep reads each leaf's group side, (inv(sigma), color sum), from the
kernel, which keeps no state, and its tableaux side from its shape's record
(``signs._fillings``, read off ``Multitableau`` methods): the inversion
counts of the filling that is its P and the filling that is its Q, and the
shape's e and twice_spin.  So the whole-group tests check the kernel and
the record together, leaf by leaf, in the walk's order and in shuffled
order, and the random tests up to rank 64 check the kernel and the same
``Multitableau`` methods on ``rs_map`` pairs.  The sweep maps one leaf per
shape with the validated ``rs_map``; the last tests check which leaf, and
that a pair it cannot validate stops the sweep."""

import random

import pytest

from grpn import rs as rs_module
from grpn import signs
from grpn._kernels import BACKENDS, _fallback, get_kernel
from grpn.errors import InvalidTableau, ShapeMismatch
from grpn.group import GroupElement, GroupParams, enumerate_group
from grpn.rs import _removal_walk, rs_map
from grpn.tableaux import (
    Multitableau,
    StandardTableau,
    _corner_steps,
    count_standard_multitableaux,
    multipartitions,
)
from test_reference import (
    object_stats,
    pairwise_inversions,
    random_element,
    row_insert_image,
    shape_criterion,
    theorem_leaves,
)


def oracle_stats(w):
    """(inv_sigma, color_sum, e_P, inv_P, inv_Q, twice_spin_P, twice_spin_Q)
    of w, without the library's insertion loop or inversion count."""
    P, Q = (Multitableau(tuple(map(StandardTableau, comps))) for comps in row_insert_image(w))
    (e_p, inv_p, ts_p), (_, inv_q, ts_q) = object_stats(P), object_stats(Q)
    return (pairwise_inversions(w.perm), sum(w.colors), e_p, inv_p, inv_q, ts_p, ts_q)


def method_stats(w, kernel=None):
    """The same seven numbers from the kernel and the ``Multitableau``
    methods the sweep reads each filling's statistics with, on w's
    validated ``rs_map`` pair."""
    pair = rs_map(w)
    P, Q = pair.P, pair.Q
    inv_sigma, color_sum = (kernel or get_kernel())(w.perm, w.colors, w.params.r)
    return (inv_sigma, color_sum, P.even_row_boxes(), P.inversions(), Q.inversions(), P.twice_spin(), Q.twice_spin())


def check_kernel(w):
    assert get_kernel()(w.perm, w.colors, w.params.r) == oracle_stats(w)[:2], str(w)


def check_method_stats(w, kernel=None):
    assert method_stats(w, kernel) == oracle_stats(w), str(w)


def leaf_stats(params):
    """(w, the seven numbers) for every leaf of G(r,1,n), in the sweep's
    walk order, as the sweep reads them: the kernel's pair on the walk's
    live buffers, then the shape's e, the ``_fillings`` inversion counts of
    filling a as P and of filling k as Q, and the shape's twice_spin as
    twice_spin(P) and as twice_spin(Q), for leaf k of the walk of filling a
    in filling a's own rows."""
    r, n = params.r, params.n
    kernel = get_kernel()
    for shape in multipartitions(n, r):
        steps, rows = _corner_steps(shape)
        _, invs, e, ts = signs._fillings(rows)
        for inv_p, p_rows in zip(invs, rows, strict=True):
            for (perm, colors), inv_q in zip(_removal_walk(p_rows, steps), invs, strict=True):
                stats = (*kernel(perm, colors, r), e, inv_p, inv_q, ts, ts)
                yield GroupElement(params, perm, colors), stats


def test_python_backend_always_available():
    assert "python" in BACKENDS


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        get_kernel("fortran")


def test_stats_shape():
    assert get_kernel()((2, 1), (1, 0), 2) == (1, 1)
    assert get_kernel("python") is get_kernel() is _fallback.theorem_stats


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (4, 3), (1, 5)])
def test_kernel_matches_oracle_exhaustive(r, n):
    for w in enumerate_group(GroupParams(r, 1, n)):
        check_kernel(w)


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4), (1, 6)])
def test_one_kernel_matches_oracle_over_whole_groups(r, n):
    """Every leaf's seven numbers, as the sweep reads them, equal the
    oracle's, and the leaves are the whole group, each once."""
    params = GroupParams(r, 1, n)
    seen = set()
    for w, stats in leaf_stats(params):
        assert stats == oracle_stats(w), str(w)
        seen.add(w)
    assert len(seen) == params.order


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4)])
def test_one_kernel_matches_oracle_in_shuffled_order(r, n):
    """In shuffled order, each element's P and Q are looked up among its
    shape's ``_fillings`` by their rows, not reached by the walk: the
    inversion count stored with each filling, and the shape's e and
    twice_spin, are the oracle's on both sides."""
    elements = list(enumerate_group(GroupParams(r, 1, n)))
    random.Random(r * 10 + n).shuffle(elements)
    kernel = get_kernel()
    tables = {}
    for w in elements:
        pair = rs_map(w)
        if pair.P.shape not in tables:
            tableaux, invs, e, ts = signs._fillings(_corner_steps(pair.P.shape)[1])
            tables[pair.P.shape] = dict(zip(tableaux, invs, strict=True)), e, ts
        index, e, ts = tables[pair.P.shape]
        stats = (*kernel(w.perm, w.colors, r), e, index[pair.P], index[pair.Q], ts, ts)
        assert stats == oracle_stats(w), str(w)


def neighbour(rng, w, r):
    """An element of rank n or n + 1 sharing a random prefix of w's
    one-line data, the rest drawn afresh."""
    n = len(w.perm) + rng.randint(0, 1)
    m = rng.randint(0, len(w.perm))
    rest = sorted(set(range(1, n + 1)) - set(w.perm[:m]))
    rng.shuffle(rest)
    colors = w.colors[:m] + tuple(rng.randrange(r) for _ in rest)
    return GroupElement(GroupParams(r, 1, n), w.perm[:m] + tuple(rest), colors)


def test_one_kernel_matches_oracle_on_prefix_sharing_neighbours_up_to_rank_64():
    rng = random.Random(44)
    kernel = get_kernel()
    for _ in range(300):
        r = rng.randint(1, 8)
        w = random_element(rng, rng.randint(1, 64), r)
        for v in (w, neighbour(rng, w, r), w):
            check_method_stats(v, kernel)


def test_one_kernel_across_changes_of_r_and_n():
    """Each element shares a prefix with the one before it, or its
    permutation, and r or n changes between them."""
    kernel = get_kernel()
    for r, perm, colors in (
        (2, (2, 1, 3), (1, 0, 1)),
        (2, (2, 1, 3, 4), (1, 0, 1, 1)),
        (2, (2, 1), (1, 0)),
        (3, (2, 1, 3), (1, 0, 2)),
        (2, (2, 1, 3), (1, 0, 1)),
        (4, (2, 1, 3, 5, 4), (1, 0, 3, 2, 0)),
        (4, (2, 1, 3, 4), (1, 0, 3, 2)),
        (1, (2, 1, 3, 4), (0, 0, 0, 0)),
        (2, (2, 1, 3, 4), (0, 0, 0, 1)),
    ):
        check_method_stats(GroupElement(GroupParams(r, 1, len(perm)), perm, colors), kernel)


def test_one_kernel_reads_an_input_buffer_the_caller_mutates():
    """The caller passes the same two lists on every call and changes
    their entries in place, as the removal walk does with its live
    buffers: the kernel reads the lists as they are at the call."""
    params = GroupParams(3, 1, 4)
    kernel = get_kernel()
    perm, colors = [0] * 4, [0] * 4
    for w in enumerate_group(params):
        perm[:], colors[:] = w.perm, w.colors
        assert kernel(perm, colors, 3) == oracle_stats(w)[:2], str(w)


def test_one_kernel_matches_oracle_random_up_to_rank_64():
    """Random elements, twice over, through one kernel."""
    rng = random.Random(43)
    elements = [random_element(rng, rng.randint(1, 64), rng.randint(1, 8)) for _ in range(300)]
    kernel = get_kernel()
    for _ in range(2):
        for w in elements:
            check_method_stats(w, kernel)


def test_kernel_matches_oracle_random_up_to_rank_64():
    rng = random.Random(42)
    for _ in range(300):
        check_method_stats(random_element(rng, rng.randint(1, 64), rng.randint(1, 8)))


def test_kernel_has_no_rank_cap():
    check_method_stats(random_element(random.Random(65), 80, 3))


def mapped_leaves(params):
    """The leaves the theorem sweep maps with ``rs_map``, in its order: for
    the shape at index s in ``multipartitions`` order, kept when p divides
    its color sum and with f fillings, leaf s mod f**2 of the shape in
    ``theorem_leaves`` order."""
    by_shape = {}
    for w, P, _ in theorem_leaves(params):
        by_shape.setdefault(P.shape, []).append(w)
    return [
        by_shape[shape][index % len(by_shape[shape])]
        for index, shape in enumerate(multipartitions(params.n, params.r))
        if shape_criterion(shape, params.p)
    ]


# rs_map calls of one theorem sweep: one per shape whose color sum p divides
MAPPED = {(2, 1, 5): 36, (4, 2, 4): 65, (3, 3, 4): 17}


@pytest.mark.parametrize("r,p,n", sorted(MAPPED))
def test_sweep_maps_each_first_sight_once(monkeypatch, r, p, n):
    """A sweep maps with ``rs_map`` one leaf of each shape it keeps, the
    first time it meets the shape: the leaf whose number in the shape
    rotates with the shape's index.  A second sweep maps them again: no
    state carries from one sweep to the next."""
    params = GroupParams(r, p, n)
    mapped = []
    real = signs.rs_map
    monkeypatch.setattr(signs, "rs_map", lambda w: mapped.append(w) or real(w))
    expected = mapped_leaves(params)
    assert len(expected) == MAPPED[r, p, n]
    for _ in range(2):
        mapped.clear()
        assert signs.verify_theorem(params).passed
        assert [(w.perm, w.colors) for w in mapped] == [(w.perm, w.colors) for w in expected]


# (step lists built, walks) of one sweep: one step list per shape walked,
# the theorem sweep's kept shapes only, and one walk per P of those shapes
SEARCHES = {
    ("theorem", 2, 1, 5): (36, 312),
    ("theorem", 4, 2, 4): (65, 368),
    ("theorem", 3, 3, 4): (17, 90),
    ("membership", 2, 2, 5): (36, 312),
}


@pytest.mark.parametrize("kind,r,p,n", sorted(SEARCHES))
def test_sweep_runs_the_corner_search_once_per_shape(monkeypatch, kind, r, p, n):
    """A sweep builds one step list per shape it walks, in
    ``multipartitions`` order (the theorem sweep only for the shapes it
    keeps, one per ``rs_map`` call), and hands that same list to every walk
    of the shape, one walk per P, each in the rows of P's own filling as
    the search handed it out, in search order."""
    built, walked = [], []
    real_steps, real_walk = signs._corner_steps, signs._removal_walk
    monkeypatch.setattr(signs, "_corner_steps", lambda shape: built.append(real_steps(shape)) or built[-1])

    def walk(p_rows, steps):
        walked.append((steps, p_rows))
        return real_walk(p_rows, steps)

    monkeypatch.setattr(signs, "_removal_walk", walk)
    assert getattr(signs, f"verify_{kind}")(GroupParams(r, p, n)).passed
    assert (len(built), len(walked)) == SEARCHES[kind, r, p, n]
    shapes = [s for s in multipartitions(n, r) if kind == "membership" or shape_criterion(s, p)]
    assert [shape for (shape, _), _ in built] == shapes
    assert len(walked) == sum(map(count_standard_multitableaux, shapes))
    assert {id(steps) for steps, _ in walked} == {id(steps) for steps, _ in built}
    assert [id(rows) for _, rows in walked] == [id(rows) for _, fillings in built for rows in fillings]


def patch_insertion(monkeypatch, fake):
    """Replace the insertion pass where ``rs_map`` calls it: ``fake(perm,
    colors, r, real)`` returns (P rows, Q rows)."""
    real = rs_module._insertion_rows
    monkeypatch.setattr(rs_module, "_insertion_rows", lambda *a: fake(*a, real))


@pytest.mark.parametrize("side", [0, 1], ids=["P", "Q"])
def test_sweep_validates_rows_it_has_not_seen(monkeypatch, side):
    """Non-standard rows from the insertion pass for a leaf the sweep maps
    are never compared as if valid: ``rs_map`` validates the pair it
    builds, and its tableau validation raises."""
    params = GroupParams(2, 1, 4)

    def fake(perm, colors, r, real):
        rows = real(perm, colors, r)
        for comp in rows[side]:
            if comp and len(comp[0]) > 1:
                comp[0].reverse()
                break
        return rows

    patch_insertion(monkeypatch, fake)
    with pytest.raises(InvalidTableau):
        signs.verify_theorem(params)


def test_sweep_validates_every_filling(monkeypatch):
    """A filling that is not standard, from the corner search, raises when
    the sweep builds it, before it is used as a P or a Q."""
    real = signs._corner_steps

    def corner_steps(shape):
        steps, fillings = real(shape)
        for rows in fillings:
            comp = next((c for c in rows if c and len(c[0]) > 1), None)
            if comp is not None:
                comp[0].reverse()
        return steps, fillings

    monkeypatch.setattr(signs, "_corner_steps", corner_steps)
    with pytest.raises(InvalidTableau):
        signs.verify_theorem(GroupParams(2, 1, 3))


def test_sweep_checks_the_pair_shape(monkeypatch):
    """A mapped leaf whose insertion gives P rows of another shape than its
    Q rows is a ``ShapeMismatch``, as ``RSPair`` raises for it."""
    params = GroupParams(2, 1, 3)
    decoy = GroupElement(params, (1, 2, 3), (0, 0, 0))  # P is one row of three

    def fake(perm, colors, r, real):
        return real(decoy.perm, decoy.colors, r)[0], real(perm, colors, r)[1]

    patch_insertion(monkeypatch, fake)
    with pytest.raises(ShapeMismatch):
        signs.verify_theorem(params)
