"""The theorem sweep's kernel against the independent oracles of
test_reference: pairwise inversion counts, and the component-by-component
statistics of the image built by ``row_insert`` one entry at a time.

A kernel keeps a store of the statistics of every distinct multitableau it
has met, and the last permutation it was called with and its inv(sigma).
So a fresh kernel per element tests only the path that builds and
validates the tableaux, and one kernel across many elements tests the
store and the reuse of inv(sigma) as well: in lexicographic order, where
neighbours mostly share the permutation, in shuffled order, across
changes of r and n, and on an input buffer the caller mutates in place."""

import random

import pytest

from grpn import rs as rs_module
from grpn import signs
from grpn._kernels import BACKENDS, _fallback, get_kernel
from grpn.errors import InvalidTableau, ShapeMismatch
from grpn.group import GroupElement, GroupParams, enumerate_group
from grpn.tableaux import Multitableau, StandardTableau
from test_reference import object_stats, pairwise_inversions, random_element, row_insert_image


def oracle_stats(w):
    """(inv_sigma, color_sum, e_P, inv_P, inv_Q, twice_spin_P, twice_spin_Q)
    of w, without the kernel's insertion loop or inversion count."""
    P, Q = (Multitableau(tuple(map(StandardTableau, comps))) for comps in row_insert_image(w))
    (e_p, inv_p, ts_p), (_, inv_q, ts_q) = object_stats(P), object_stats(Q)
    return (pairwise_inversions(w.perm), sum(w.colors), e_p, inv_p, inv_q, ts_p, ts_q)


def check_kernel(w):
    assert get_kernel()(w.perm, w.colors, w.params.r) == oracle_stats(w), str(w)


def test_python_backend_always_available():
    assert "python" in BACKENDS


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        get_kernel("fortran")


def test_stats_shape():
    out = get_kernel()((2, 1), (1, 0), 2)
    inv_sigma, color_sum, e_p, inv_p, inv_q, ts_p, ts_q = out
    assert inv_sigma == 1 and color_sum == 1 and ts_p == ts_q


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (4, 3), (1, 5)])
def test_kernel_matches_oracle_exhaustive(r, n):
    for w in enumerate_group(GroupParams(r, 1, n)):
        check_kernel(w)


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4), (1, 6)])
def test_one_kernel_matches_oracle_over_whole_groups(r, n):
    kernel = get_kernel()
    for w in enumerate_group(GroupParams(r, 1, n)):
        assert kernel(w.perm, w.colors, r) == oracle_stats(w), str(w)


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 4)])
def test_one_kernel_matches_oracle_in_shuffled_order(r, n):
    """Neighbours in a shuffled order rarely share the permutation, so the
    kernel recounts inv(sigma) on most calls."""
    elements = list(enumerate_group(GroupParams(r, 1, n)))
    random.Random(r * 10 + n).shuffle(elements)
    kernel = get_kernel()
    for w in elements:
        assert kernel(w.perm, w.colors, r) == oracle_stats(w), str(w)


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
            assert kernel(v.perm, v.colors, r) == oracle_stats(v), str(v)


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
        w = GroupElement(GroupParams(r, 1, len(perm)), perm, colors)
        assert kernel(perm, colors, r) == oracle_stats(w), str(w)


def test_one_kernel_reads_an_input_buffer_the_caller_mutates():
    """The caller passes the same two lists on every call and changes
    their last entries in place: the kernel compares against its own copy
    of the last permutation, not against the caller's list."""
    params = GroupParams(3, 1, 4)
    kernel = get_kernel()
    perm, colors = [0] * 4, [0] * 4
    for w in enumerate_group(params):
        perm[:], colors[:] = w.perm, w.colors
        assert kernel(perm, colors, 3) == oracle_stats(w), str(w)


def test_one_kernel_matches_oracle_random_up_to_rank_64():
    """Random elements rarely share a tableau, so the second pass is the
    one that reads every element's statistics from the store."""
    rng = random.Random(43)
    elements = [random_element(rng, rng.randint(1, 64), rng.randint(1, 8)) for _ in range(300)]
    kernel = get_kernel()
    for _ in range(2):
        for w in elements:
            assert kernel(w.perm, w.colors, w.params.r) == oracle_stats(w), str(w)


def test_kernel_matches_oracle_random_up_to_rank_64():
    rng = random.Random(42)
    for _ in range(300):
        check_kernel(random_element(rng, rng.randint(1, 64), rng.randint(1, 8)))


def test_kernel_has_no_rank_cap():
    check_kernel(random_element(random.Random(65), 80, 3))


def rows_key(rows):
    return tuple(tuple(map(tuple, comp)) for comp in rows)


def first_sights(params):
    """The elements, in sweep order, whose P rows or Q rows no earlier
    element had, by the ``row_insert`` oracle."""
    seen, new = set(), []
    for w in enumerate_group(params):
        keys = {rows_key(rows) for rows in row_insert_image(w)}
        if not keys <= seen:
            new.append(w)
        seen |= keys
    return new


# rs_map calls of one theorem sweep: one per distinct P or Q first seen
MAPPED = {(2, 1, 5): 312, (4, 2, 4): 368, (3, 3, 4): 90}


@pytest.mark.parametrize("r,p,n", sorted(MAPPED))
def test_sweep_maps_each_first_sight_once(monkeypatch, r, p, n):
    """A sweep maps with ``rs_map`` exactly the elements whose P rows or Q
    rows are new to it, and a second sweep maps them again: no state
    carries from one sweep to the next."""
    params = GroupParams(r, p, n)
    mapped = []
    real = _fallback.rs_map
    monkeypatch.setattr(_fallback, "rs_map", lambda w: mapped.append(w) or real(w))
    expected = first_sights(params)
    assert len(expected) == MAPPED[r, p, n]
    for _ in range(2):
        mapped.clear()
        assert signs.verify_theorem(params).passed
        assert [(w.perm, w.colors) for w in mapped] == [(w.perm, w.colors) for w in expected]


def patch_insertion(monkeypatch, fake):
    """Replace the insertion pass both where the kernel and where ``rs_map``
    call it: ``fake(perm, colors, r, real)`` returns (P rows, Q rows)."""
    real = rs_module._insertion_rows
    for module in (_fallback, rs_module):
        monkeypatch.setattr(module, "_insertion_rows", lambda *a: fake(*a, real))


@pytest.mark.parametrize("side", [0, 1], ids=["P", "Q"])
def test_sweep_validates_rows_it_has_not_seen(monkeypatch, side):
    """Non-standard rows from the insertion pass, for an element whose true
    rows repeat earlier elements' rows, are never looked up as if valid:
    they are new to the store, so the element is mapped with ``rs_map`` and
    its tableau validation raises."""
    params = GroupParams(2, 1, 4)
    new = first_sights(params)
    target = next(
        w
        for w in reversed(list(enumerate_group(params)))
        if w not in new and any(c and len(c[0]) > 1 for c in row_insert_image(w)[side])
    )

    def fake(perm, colors, r, real):
        rows = real(perm, colors, r)
        if (perm, colors) == (target.perm, target.colors):
            comp = next(c for c in rows[side] if c and len(c[0]) > 1)
            comp[0].reverse()
        return rows

    patch_insertion(monkeypatch, fake)
    with pytest.raises(InvalidTableau):
        signs.verify_theorem(params)


def test_sweep_checks_the_pair_shape(monkeypatch):
    """Two stored, validated tableaux of different shapes given as one
    element's pair are a ``ShapeMismatch``, as ``RSPair`` raises for them."""
    params = GroupParams(2, 1, 3)
    elements = list(enumerate_group(params))
    new = first_sights(params)
    # the last element whose P rows and Q rows earlier elements had
    target = next(w for w in reversed(elements) if w not in new)
    shape = rs_module.rs_map(target).P.shape
    earlier = elements[: elements.index(target)]
    decoy = next(w for w in earlier if rs_module.rs_map(w).P.shape != shape)

    def fake(perm, colors, r, real):
        if (perm, colors) == (target.perm, target.colors):
            return real(decoy.perm, decoy.colors, r)[0], real(perm, colors, r)[1]
        return real(perm, colors, r)

    patch_insertion(monkeypatch, fake)
    with pytest.raises(ShapeMismatch):
        signs.verify_theorem(params)
