"""The theorem sweep's kernel against the independent oracles of
test_reference: pairwise inversion counts, and the component-by-component
statistics of the image built by ``row_insert`` one entry at a time.

A kernel keeps a store of the statistics of every distinct multitableau it
has met, so a fresh kernel per element tests only the path that builds
and validates the tableaux, and one kernel across a whole group tests the
store as well."""

import random

import pytest

from grpn import rs as rs_module
from grpn import signs
from grpn._kernels import BACKENDS, _fallback, get_kernel
from grpn.errors import InvalidTableau, ShapeMismatch
from grpn.group import GroupParams, enumerate_group
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
