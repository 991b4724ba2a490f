import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpn.errors import CapExceeded, InvalidTableau
from grpn.tableaux import (
    Multitableau,
    StandardTableau,
    check_partition,
    count_standard_multitableaux,
    count_standard_tableaux,
    multipartitions,
    partitions,
    rows_inversions,
    standard_multitableaux,
    standard_tableaux,
    tableau_inversions,
)

P_EXAMPLE = [[[1, 2, 8], [6]], [[4], [5]], [[3, 7]], []]
Q_EXAMPLE = [[[2, 4, 8], [7]], [[1], [6]], [[3, 5]], []]
ASCENDING_RANK_11 = [[[1, 3], [2]], [[4], [5]], [[6, 7, 10], [8, 9, 11]]]


def flat_inversions(T: Multitableau) -> int:
    """Brute-force oracle: count all label pairs straight from the
    component-then-row position of each label."""
    where = {}
    for k, comp in enumerate(T.components):
        for row_i, row in enumerate(comp.rows, start=1):
            for x in row:
                where[x] = (k, row_i)
    total = 0
    for i in sorted(where):
        for j in sorted(where):
            if j <= i:
                continue
            ki, ri = where[i]
            kj, rj = where[j]
            if kj < ki or (kj == ki and ri > rj):
                total += 1
    return total


@st.composite
def multitableaux(draw, max_n=7, max_r=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=max_r))
    shapes = list(multipartitions(n, r))
    shape = draw(st.sampled_from(shapes))
    pool = list(standard_multitableaux(shape))
    return draw(st.sampled_from(pool))


class TestValidation:
    def test_partition_decreasing(self):
        assert check_partition((3, 3, 1)) == (3, 3, 1)
        with pytest.raises(InvalidTableau):
            check_partition((1, 2))
        with pytest.raises(InvalidTableau):
            check_partition((2, 0))

    def test_row_not_increasing(self):
        with pytest.raises(InvalidTableau):
            StandardTableau(((2, 1),))

    def test_column_not_increasing(self):
        with pytest.raises(InvalidTableau):
            StandardTableau(((3, 4), (1, 2)))

    def test_bad_shape(self):
        with pytest.raises(InvalidTableau):
            StandardTableau(((1,), (2, 3)))

    def test_label_multiset(self):
        with pytest.raises(InvalidTableau):
            Multitableau((StandardTableau(((1, 3),)),))
        with pytest.raises(InvalidTableau):
            Multitableau((StandardTableau(((1,),)), StandardTableau(((1,),))))


class TestInversions:
    def test_component_single(self):
        t = StandardTableau(((1, 2, 8), (6,)))
        assert t.inversions() == 1  # only (6, 8)

    def test_single_row_and_column(self):
        assert StandardTableau(((1, 2, 3, 4),)).inversions() == 0
        assert StandardTableau(((1,), (2,), (3,))).inversions() == 0

    def test_cross_pairs(self):
        a, b = [[1, 2, 6], [5]], [[3], [4]]
        cross = rows_inversions([a, b]) - tableau_inversions(a) - tableau_inversions(b)
        assert cross == 4  # (5,3) (5,4) (6,3) (6,4)

    def test_cross_sorted_blocks(self):
        assert rows_inversions([[[1, 2]], [[3, 4]]]) == 0
        assert rows_inversions([[[3, 4]], [[1, 2]]]) == 4

    def test_multi_running_example(self):
        P = Multitableau.from_json(P_EXAMPLE)
        Q = Multitableau.from_json(Q_EXAMPLE)
        assert P.inversions() == 10
        assert (-1) ** P.inversions() == 1
        # printed value is 12; direct enumeration gives 14, same parity
        assert Q.inversions() == 14
        assert Q.inversions() % 2 == 0
        assert (-1) ** Q.inversions() == 1

    def test_empty(self):
        T = Multitableau((StandardTableau(()),))
        assert T.inversions() == 0 and (-1) ** T.inversions() == 1

    @settings(max_examples=50, deadline=None)
    @given(multitableaux())
    def test_flat_oracle(self, T):
        assert T.inversions() == flat_inversions(T)


class TestEvenRowsAndSpin:
    def test_running_example(self):
        P = Multitableau.from_json(P_EXAMPLE)
        assert P.even_row_boxes() == 2
        assert P.twice_spin() == 6
        assert Multitableau.from_json(Q_EXAMPLE).twice_spin() == 6

    def test_single_rows(self):
        T = Multitableau.from_json([[[1, 2]], [[3]]])
        assert T.even_row_boxes() == 0

    def test_tall_column(self):
        t = StandardTableau(((1,), (2,), (3,), (4,)))
        assert t.even_row_boxes() == 2  # rows 2 and 4

    def test_spin_concentrated(self):
        assert Multitableau.from_json([[[1, 2], [3]], [], []]).twice_spin() == 0
        assert Multitableau.from_json([[], [], [[1]]]).twice_spin() == 2

    @settings(max_examples=30, deadline=None)
    @given(multitableaux())
    def test_spin_is_shape_based(self, T):
        for other in standard_multitableaux(T.shape):
            assert other.twice_spin() == T.twice_spin()


class TestAscending:
    def test_rank_11_example(self):
        assert Multitableau.from_json(ASCENDING_RANK_11).is_ascending()

    def test_running_example_not_ascending(self):
        assert not Multitableau.from_json(P_EXAMPLE).is_ascending()

    def test_single_component(self):
        assert Multitableau.from_json([[], [[1, 2], [3]], []]).is_ascending()

    def test_empty_component_skipped(self):
        assert Multitableau.from_json([[[1]], [], [[2]]]).is_ascending()
        assert not Multitableau.from_json([[[2]], [], [[1]]]).is_ascending()

    def test_ascending_has_no_cross_inversions(self):
        T = Multitableau.from_json(ASCENDING_RANK_11)
        assert T.inversions() == sum(t.inversions() for t in T.components)


class TestEnumeration:
    def test_two_single_boxes(self):
        out = list(standard_multitableaux(((1,), (1,))))
        assert len(out) == 2
        assert {tuple(map(str, t.components)) for t in out} == {("1", "2"), ("2", "1")}

    def test_single_row_forced(self):
        assert len(list(standard_multitableaux(((4,), (), ())))) == 1

    def test_single_column_forced(self):
        assert len(list(standard_multitableaux(((1, 1, 1),)))) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(standard_multitableaux(((20,),), cap=10))

    def test_no_duplicates(self):
        shape = ((2, 1), (1,), (1,))
        out = [str(t) for t in standard_multitableaux(shape)]
        assert len(out) == len(set(out)) == count_standard_multitableaux(shape)

    @pytest.mark.parametrize("n,r", [(0, 2), (1, 3), (3, 2), (4, 2), (5, 3)])
    def test_counts_match_hook_length_oracle(self, n, r):
        for shape in multipartitions(n, r):
            got = len(list(standard_multitableaux(shape)))
            assert got == count_standard_multitableaux(shape), shape

    @pytest.mark.parametrize("n", range(7))
    def test_single_shape_counts_match_hook_length_oracle(self, n):
        for shape in partitions(n):
            out = list(standard_tableaux(shape))
            assert all(T.shape == shape for T in out), shape
            assert len({str(T) for T in out}) == len(out) == count_standard_tableaux(shape), shape

    def test_one_row_above_the_recursion_limit(self):
        """The corner search keeps its own stack, so a rank above the
        interpreter's recursion limit still gives its one filling."""
        assert [T.rows for T in standard_tableaux((1200,))] == [(tuple(range(1, 1201)),)]

    def test_two_rows_above_the_recursion_limit(self):
        out = list(standard_tableaux((1100, 1)))
        assert all(T.shape == (1100, 1) for T in out)
        assert len({T.rows for T in out}) == len(out) == count_standard_tableaux((1100, 1))

    def test_hook_lengths_known_values(self):
        assert count_standard_tableaux((2, 1)) == 2
        assert count_standard_tableaux((3, 2)) == 5
        assert count_standard_tableaux((2, 2)) == 2
        assert count_standard_tableaux(()) == 1


class TestPartitionGenerators:
    def test_partitions_of_4(self):
        assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_multipartition_totals(self):
        # 2 colors: sum over m of p(m) * p(n - m)
        assert len(list(multipartitions(3, 2))) == 10
        assert all(sum(map(sum, mp)) == 3 for mp in multipartitions(3, 2))

    def test_multipartition_order(self):
        """The order of the recursion over every component, by the first
        component's size, then its partition, then the rest: the membership
        sweep reports its counterexamples in this order."""

        def by_components(n, r):
            if r == 0:
                if n == 0:
                    yield ()
                return
            for m in range(n + 1):
                for head in partitions(m):
                    for tail in by_components(n - m, r - 1):
                        yield (head,) + tail

        for n in range(7):
            for r in range(6):
                assert list(multipartitions(n, r)) == list(by_components(n, r)), (n, r)

    def test_multipartitions_of_many_components(self):
        # the recursion depth is at most n, not r
        r = 2 * sys.getrecursionlimit()
        empty = ((),) * r
        assert list(islice(multipartitions(2, r), 5)) == [
            empty[:-1] + ((2,),),
            empty[:-1] + ((1, 1),),
            empty[:-2] + ((1,), (1,)),
            empty[:-2] + ((2,), ()),
            empty[:-2] + ((1, 1), ()),
        ]
        singles = [(mp.index((1,)), sum(map(sum, mp))) for mp in multipartitions(1, r)]
        assert singles == [(k, 1) for k in range(r - 1, -1, -1)]


class TestSerialization:
    def test_round_trip(self):
        T = Multitableau.from_json(ASCENDING_RANK_11)
        assert Multitableau.from_json(T.to_json()) == T
        assert T.to_json() == ASCENDING_RANK_11

    def test_bad_nesting(self):
        with pytest.raises(InvalidTableau):
            Multitableau.from_json([2, 1])
