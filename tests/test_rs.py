import itertools

import pytest

from grpn.errors import IndexOutOfRange, NotAdmissible, NotAMember, ShapeMismatch
from grpn.group import (
    GroupParams,
    enumerate_group,
    generator,
    identity,
    make_element,
    parse_element,
)
from grpn.rs import (
    RSPair,
    _insertion_rows,
    apply_moves,
    ascending_moves,
    ascending_representative,
    is_ascending_element,
    left_admissible,
    right_admissible,
    rs_inverse,
    rs_map,
)
from grpn.tableaux import Multitableau, multipartitions, standard_multitableaux

from conftest import to_matrix

import numpy as np


def canonical_ascending(w):
    """Independent oracle for the canonical representative: stable-sort
    positions by color and renumber each color class into its value block,
    preserving within-class order."""
    r, n = w.params.r, w.params.n
    class_values = [[] for _ in range(r)]
    for v, k in zip(w.perm, w.colors):
        class_values[k].append(v)
    offsets = [0] * r
    for k in range(1, r):
        offsets[k] = offsets[k - 1] + len(class_values[k - 1])
    perm, colors = [], []
    for k in range(r):
        ranks = {v: i + 1 for i, v in enumerate(sorted(class_values[k]))}
        for v in class_values[k]:
            perm.append(offsets[k] + ranks[v])
            colors.append(k)
    return make_element(w.params, perm, colors)


class TestRowInsert:
    """Single insertions through ``_insertion_rows``: the last entry's
    recording label marks the box it appended."""

    def test_bump_into_new_row(self):
        assert _insertion_rows((5, 4), (0, 0), 1) == ([[[4], [5]]], [[[1], [2]]])

    def test_empty(self):
        assert _insertion_rows((7,), (0,), 1) == ([[[7]]], [[[1]]])

    def test_append_without_bump(self):
        # 1, 6, 8, 2 build (1,2,8 / 6); then 9 appends at row 1, column 4
        p_rows, q_rows = _insertion_rows((1, 6, 8, 2, 9), (0,) * 5, 1)
        assert p_rows == [[[1, 2, 8, 9], [6]]] and q_rows == [[[1, 2, 3, 5], [4]]]


class TestRSMap:
    def test_running_example(self, running_example):
        pair = rs_map(running_example)
        assert pair.P.to_json() == [[[1, 2, 8], [6]], [[4], [5]], [[3, 7]], []]
        assert pair.Q.to_json() == [[[2, 4, 8], [7]], [[1], [6]], [[3, 5]], []]

    def test_ascending_example(self):
        w = parse_element("[1,3,2,4,z1*6,z1*5,z2*7,z2*8]", 4)
        pair = rs_map(w)
        expected = [[[1, 2, 4], [3]], [[5], [6]], [[7, 8]], []]
        assert pair.P.to_json() == expected
        assert pair.Q.to_json() == expected

    def test_identity(self):
        pair = rs_map(identity(GroupParams(3, 1, 4)))
        assert pair.P.to_json() == [[[1, 2, 3, 4]], [], []]
        assert pair.P == pair.Q

    def test_same_shape_always(self):
        for w in enumerate_group(GroupParams(3, 1, 3)):
            pair = rs_map(w)
            assert pair.P.shape == pair.Q.shape

    def test_color_class_sizes_match_shape(self):
        for w in enumerate_group(GroupParams(3, 1, 3)):
            pair = rs_map(w)
            for k in range(3):
                assert pair.P.components[k].size == sum(1 for a in w.colors if a == k)


class TestRSInverse:
    def test_running_example(self, running_example):
        assert rs_inverse(rs_map(running_example), running_example.params) == running_example

    def test_identity_pair(self):
        params = GroupParams(2, 1, 3)
        row = Multitableau.from_json([[[1, 2, 3]], []])
        assert rs_inverse(RSPair(row, row), params).is_identity()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            RSPair(
                Multitableau.from_json([[[1, 2]]]),
                Multitableau.from_json([[[1], [2]]]),
            )

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
    def test_bijection_exhaustive(self, r, n):
        params = GroupParams(r, 1, n)
        images = set()
        for w in enumerate_group(params):
            pair = rs_map(w)
            images.add((str(pair.P), str(pair.Q)))
            assert rs_inverse(pair, params) == w
        # image is exactly the same-shape pairs
        expected = 0
        for shape in multipartitions(n, r):
            count = len(list(standard_multitableaux(shape)))
            expected += count * count
        assert len(images) == expected == params.order

    @pytest.mark.parametrize(
        "params,message",
        [
            (GroupParams(2, 1, 2), r"pair has rank 1 with 2 components, expected GroupParams\(r=2, p=1, n=2\)"),
            (GroupParams(3, 1, 1), r"pair has rank 1 with 2 components, expected GroupParams\(r=3, p=1, n=1\)"),
        ],
        ids=["rank", "components"],
    )
    def test_pair_must_have_the_params_rank_and_r(self, params, message):
        box = Multitableau.from_json([[[1]], []])
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            rs_inverse(RSPair(box, box), params)

    def test_non_member_rejected(self):
        full, sub = GroupParams(4, 1, 3), GroupParams(4, 2, 3)
        for w in enumerate_group(full):
            pair = rs_map(w)
            if w.is_member(2):
                assert rs_inverse(pair, sub) == make_element(sub, w.perm, w.colors)
            else:
                message = f"color sum {w.color_sum()} is not divisible by p=2"
                with pytest.raises(NotAMember, match=message):
                    rs_inverse(pair, sub)

    def test_all_pairs_round_trip(self):
        params = GroupParams(2, 1, 3)
        for shape in multipartitions(3, 2):
            tableaux = list(standard_multitableaux(shape))
            for P, Q in itertools.product(tableaux, repeat=2):
                pair = RSPair(P, Q)
                w = rs_inverse(pair, params)
                back = rs_map(w)
                assert back.P == P and back.Q == Q


class TestAscendingElement:
    def test_worked_representative(self):
        assert is_ascending_element(parse_element("[1,3,2,4,z1*6,z1*5,z2*7,z2*8]", 4))

    def test_running_example_not(self, running_example):
        assert not is_ascending_element(running_example)

    def test_single_color(self):
        for w in enumerate_group(GroupParams(1, 1, 3)):
            assert is_ascending_element(w)

    def test_empty_class_does_not_hide_value_overlap(self):
        # colors weakly increase but the skipped class 1 must not break
        # the value comparison between classes 0 and 2
        w = make_element(GroupParams(3, 1, 2), [2, 1], [0, 2])
        assert not is_ascending_element(w)

    def test_ascending_elements_have_ascending_tableaux(self):
        for w in enumerate_group(GroupParams(3, 1, 3)):
            if is_ascending_element(w):
                pair = rs_map(w)
                assert pair.P.is_ascending() and pair.Q.is_ascending()


class TestAdmissibleOperators:
    def test_left_example(self):
        w = make_element(GroupParams(2, 1, 2), [2, 1], [1, 0])
        assert left_admissible(w, 1) == make_element(GroupParams(2, 1, 2), [1, 2], [1, 0])

    def test_left_not_admissible(self):
        w = make_element(GroupParams(2, 1, 2), [2, 1], [0, 0])
        with pytest.raises(NotAdmissible):
            left_admissible(w, 1)

    def test_right_example(self, running_example):
        moved = right_admissible(running_example, 1)
        assert moved == parse_element("[1,z1*5,z2*3,6,z2*7,z1*4,2,8]", 4)

    def test_right_not_admissible(self):
        w = make_element(GroupParams(2, 1, 2), [2, 1], [1, 1])
        with pytest.raises(NotAdmissible):
            right_admissible(w, 1)

    def test_index_range(self, running_example):
        with pytest.raises(IndexOutOfRange):
            right_admissible(running_example, 8)
        with pytest.raises(IndexOutOfRange):
            left_admissible(running_example, 0)

    @pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (4, 3)])
    def test_moves_are_products_with_generators(self, r, n):
        params = GroupParams(r, 1, n)
        gens = [None] + [generator(params, i) for i in range(1, n)]
        moves = 0
        for w in enumerate_group(params):
            for i in range(1, n):
                if w.colors[i - 1] != w.colors[i]:
                    assert right_admissible(w, i) == w * gens[i]
                    moves += 1
                if w.colors[w.perm.index(i)] != w.colors[w.perm.index(i + 1)]:
                    assert left_admissible(w, i) == gens[i] * w
                    moves += 1
        assert moves > 0

    def test_matrix_oracle(self, running_example):
        s1 = generator(running_example.params, 1)
        assert np.allclose(
            to_matrix(right_admissible(running_example, 1)),
            to_matrix(running_example) @ to_matrix(s1),
        )
        # values 2 and 3 sit at positions with colors 0 and 2
        assert np.allclose(
            to_matrix(left_admissible(running_example, 2)),
            to_matrix(generator(running_example.params, 2)) @ to_matrix(running_example),
        )

    def test_proposition_invariance(self):
        for w in enumerate_group(GroupParams(2, 1, 3)):
            pair = rs_map(w)
            for i in (1, 2):
                if w.colors[i - 1] != w.colors[i]:
                    moved = rs_map(right_admissible(w, i))
                    assert moved.P == pair.P
                    assert abs(moved.Q.inversions() - pair.Q.inversions()) == 1
                pos = (w.perm.index(i), w.perm.index(i + 1))
                if w.colors[pos[0]] != w.colors[pos[1]]:
                    moved = rs_map(left_admissible(w, i))
                    assert moved.Q == pair.Q
                    assert abs(moved.P.inversions() - pair.P.inversions()) == 1


class TestAscendingRepresentative:
    def test_worked_example(self, running_example):
        rep = ascending_representative(running_example)
        assert rep == parse_element("[1,3,2,4,z1*6,z1*5,z2*7,z2*8]", 4)

    def test_fixed_point(self):
        w = parse_element("[1,3,2,4,z1*6,z1*5,z2*7,z2*8]", 4)
        assert ascending_representative(w) == w
        assert ascending_moves(w) == []

    def test_two_element_class(self):
        w = make_element(GroupParams(2, 1, 2), [2, 1], [1, 0])
        assert ascending_representative(w) == make_element(GroupParams(2, 1, 2), [1, 2], [0, 1])

    def test_moves_replay(self):
        for w in enumerate_group(GroupParams(3, 1, 3)):
            moves = ascending_moves(w)
            rep = apply_moves(w, moves)
            assert rep == ascending_representative(w)
            assert is_ascending_element(rep)

    def test_one_displaced_element(self):
        """Identity permutation, colors (1, ..., 1, 0): n - 1 right moves,
        then n - 1 left moves, which replay to the representative."""
        n = 2000
        w = make_element(GroupParams(2, 1, n), range(1, n + 1), [1] * (n - 1) + [0])
        moves = ascending_moves(w)
        assert [side for side, _ in moves] == ["R"] * (n - 1) + ["L"] * (n - 1)
        assert apply_moves(w, moves) == ascending_representative(w)

    def test_matches_standardization_oracle(self):
        for w in enumerate_group(GroupParams(3, 1, 3)):
            assert ascending_representative(w) == canonical_ascending(w)
        for w in enumerate_group(GroupParams(2, 1, 4)):
            assert ascending_representative(w) == canonical_ascending(w)
