"""The theorem sweep's kernel against the independent oracles of
test_reference: pairwise inversion counts, and the component-by-component
statistics of the image built by ``row_insert`` one entry at a time."""

import random

import pytest

from grpn._kernels import BACKENDS, get_kernel
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


def test_kernel_matches_oracle_random_up_to_rank_64():
    rng = random.Random(42)
    for _ in range(300):
        check_kernel(random_element(rng, rng.randint(1, 64), rng.randint(1, 8)))


def test_kernel_has_no_rank_cap():
    check_kernel(random_element(random.Random(65), 80, 3))
