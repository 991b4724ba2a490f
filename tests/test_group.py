import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpn import group as group_module
from grpn.errors import (
    CapExceeded,
    ColorOutOfRange,
    IndexOutOfRange,
    InvalidP,
    InvalidParams,
    LengthMismatch,
    NotAMember,
    NotAPermutation,
    ParamsMismatch,
    ParseError,
)
from grpn.group import (
    MAX_R,
    GroupElement,
    GroupParams,
    OneDimValue,
    _numbers,
    _swap_sort,
    enumerate_group,
    evaluate_word,
    generator,
    identity,
    inversions,
    make_element,
    parse_element,
    subgroup_generators,
)

from conftest import to_matrix


def elements(r, n, count=None, seed=0):
    rng = random.Random(seed)
    params = GroupParams(r, 1, n)
    if count is None:
        yield from enumerate_group(params)
        return
    for _ in range(count):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        colors = [rng.randrange(r) for _ in range(n)]
        yield GroupElement(params, tuple(perm), tuple(colors))


class TestConstruction:
    def test_running_example(self, running_example):
        assert running_example.perm == (5, 1, 3, 6, 7, 4, 2, 8)
        assert running_example.colors == (1, 0, 2, 0, 2, 1, 0, 0)

    def test_identity(self):
        e = make_element(GroupParams(2, 1, 3), [1, 2, 3], [0, 0, 0])
        assert e.is_identity()

    def test_duplicate_image_rejected(self):
        with pytest.raises(NotAPermutation):
            make_element(GroupParams(2, 1, 2), [1, 1], [0, 0])

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRange):
            make_element(GroupParams(2, 1, 2), [1, 2], [0, 2])

    def test_lengths_must_be_the_rank(self):
        with pytest.raises(LengthMismatch, match="expected 3 entries, got perm of 2 and colors of 2"):
            GroupElement(GroupParams(2, 1, 3), (1, 2), (0, 0))
        with pytest.raises(LengthMismatch, match="expected 2 entries, got perm of 2 and colors of 1"):
            GroupElement(GroupParams(2, 1, 2), (1, 2), (0,))

    def test_negative_powers_are_powers_of_the_inverse(self, running_example):
        w = running_example
        assert w**-1 == w.inverse() != w
        assert w**-3 == w.inverse() ** 3
        assert w**-3 * w**3 == identity(w.params)

    def test_p_must_divide_r(self):
        with pytest.raises(InvalidP):
            GroupParams(4, 3, 2)

    def test_r_is_bounded(self):
        """r = 2000 stays inside the bound; any r above it is refused."""
        assert MAX_R > 2000
        assert GroupParams(MAX_R, 1, 1).r == MAX_R
        for r in (MAX_R + 1, 10**20):
            with pytest.raises(InvalidParams, match=rf"^r={r} is above the limit of {MAX_R}$"):
                GroupParams(r, 1, 1)


class TestMultiply:
    def test_colors_cancel(self):
        # [z*2, 1] times [2, z*1] in G(2,1,2) is the identity
        params = GroupParams(2, 1, 2)
        u = make_element(params, [2, 1], [1, 0])
        v = make_element(params, [2, 1], [0, 1])
        assert (u * v).is_identity()

    def test_transposition_squares_to_identity(self):
        params = GroupParams(4, 1, 3)
        s1 = generator(params, 1)
        assert (s1 * s1).is_identity()

    def test_color_generator_has_order_r(self):
        params = GroupParams(4, 1, 3)
        s0 = generator(params, 0)
        assert (s0**4).is_identity()
        assert not (s0**2).is_identity()

    def test_params_mismatch(self):
        with pytest.raises(ParamsMismatch):
            identity(GroupParams(2, 1, 2)) * identity(GroupParams(4, 1, 2))

    def test_matrix_oracle_exhaustive_small(self):
        params = GroupParams(3, 1, 2)
        group = list(enumerate_group(params))
        for u, v in itertools.product(group, repeat=2):
            assert np.allclose(to_matrix(u * v), to_matrix(u) @ to_matrix(v))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_matrix_oracle_random(self, a, b):
        u = next(elements(5, 6, 1, seed=a))
        v = next(elements(5, 6, 1, seed=b + 10**7))
        assert np.allclose(to_matrix(u * v), to_matrix(u) @ to_matrix(v))


class TestInverse:
    def test_identity_self_inverse(self):
        e = identity(GroupParams(3, 1, 4))
        assert e.inverse() == e

    def test_order_two_color(self):
        w = make_element(GroupParams(2, 1, 1), [1], [1])
        assert w.inverse() == w

    def test_color_exponent_negates(self):
        w = make_element(GroupParams(4, 1, 1), [1], [1])
        assert w.inverse() == make_element(GroupParams(4, 1, 1), [1], [3])

    def test_two_sided(self):
        for w in elements(3, 4, 50, seed=5):
            assert (w * w.inverse()).is_identity()
            assert (w.inverse() * w).is_identity()


class TestGenerators:
    def test_s0(self):
        s0 = generator(GroupParams(4, 1, 3), 0)
        assert s0.perm == (1, 2, 3) and s0.colors == (1, 0, 0)

    def test_s1(self):
        s1 = generator(GroupParams(4, 1, 3), 1)
        assert s1.perm == (2, 1, 3) and s1.colors == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            generator(GroupParams(4, 1, 3), 3)

    def test_subgroup_generators_g222(self):
        gens = subgroup_generators(GroupParams(2, 2, 2))
        reprs = {str(g) for g in gens}
        assert reprs == {"[1,2]", "[z1*2,z1*1]", "[2,1]"}

    def test_subgroup_generators_r1(self):
        gens = subgroup_generators(GroupParams(1, 1, 3))
        assert {str(g) for g in gens} == {"[1,2,3]", "[2,1,3]", "[1,3,2]"}

    def test_subgroup_generators_exponent_doubles(self):
        gens = subgroup_generators(GroupParams(4, 2, 2))
        assert any(g.perm == (1, 2) and g.colors == (2, 0) for g in gens)

    def test_subgroup_generators_are_members(self):
        for r, p, n in [(2, 2, 2), (4, 2, 3), (6, 3, 2)]:
            for g in subgroup_generators(GroupParams(r, p, n)):
                assert g.is_member(p)


class TestMembership:
    def test_running_example(self, running_example):
        assert running_example.is_member(2)
        assert not running_example.is_member(4)

    def test_identity_always_member(self):
        e = identity(GroupParams(12, 1, 3))
        for p in (1, 2, 3, 4, 6, 12):
            assert e.is_member(p)

    def test_invalid_p(self, running_example):
        with pytest.raises(InvalidP):
            running_example.is_member(3)

    @pytest.mark.parametrize(
        "p,error,message",
        [(p, InvalidParams, "^parameters must be positive") for p in (0, -1, -2)]
        + [(3, InvalidP, "^p=3 does not divide r=4$")],
        ids=["0", "-1", "-2", "3"],
    )
    def test_p_is_checked_as_a_group_parameter(self, p, error, message):
        """p is refused as ``GroupParams`` refuses it: a p below 1 is not
        divided by (0) or read as a divisor of r (-1, -2)."""
        w = GroupElement(GroupParams(4, 1, 2), (2, 1), (1, 1))
        with pytest.raises(error, match=message):
            w.is_member(p)

    def test_matrix_oracle(self):
        # p | color sum iff the (r/p)-th power of the entry product is 1
        for w in elements(4, 3):
            product = np.prod([to_matrix(w)[w.perm[c] - 1, c] for c in range(3)])
            for p in (1, 2, 4):
                assert w.is_member(p) == bool(abs(product ** (4 // p) - 1) < 1e-9)

    def test_closed_under_multiply_and_inverse(self):
        members = [w for w in elements(4, 3) if w.is_member(2)]
        sample = members[::17]
        for u in sample:
            assert u.inverse().is_member(2)
            for v in sample:
                assert (u * v).is_member(2)


class TestOneDim:
    def test_running_example_sgn(self, running_example):
        for i in range(4):
            assert running_example.one_dim(i, 1) == OneDimValue(1, (2 * i) % 4, 4)

    def test_s0_value(self):
        s0 = generator(GroupParams(5, 1, 3), 0)
        for i in range(5):
            assert s0.one_dim(i, 1) == OneDimValue(1, i, 5)
            assert s0.one_dim(i, 0) == OneDimValue(1, i, 5)

    def test_s1_value(self):
        s1 = generator(GroupParams(5, 1, 3), 1)
        for i in range(5):
            assert s1.one_dim(i, 1) == OneDimValue(-1, 0, 5)
            assert s1.one_dim(i, 0) == OneDimValue(1, 0, 5)

    def test_trivial_rep(self):
        for w in elements(3, 4, 20, seed=9):
            assert w.one_dim(0, 0) == OneDimValue(1, 0, 3)

    def test_i_out_of_range(self, running_example):
        with pytest.raises(IndexOutOfRange):
            running_example.one_dim(4, 1)

    @pytest.mark.parametrize("epsilon", [-1, 2])
    def test_epsilon_checked(self, running_example, epsilon):
        with pytest.raises(ValueError, match=f"^epsilon must be 0 or 1, got {epsilon}$"):
            running_example.one_dim(0, epsilon)

    def test_homomorphism_exhaustive(self):
        group = list(enumerate_group(GroupParams(2, 1, 3)))
        for u, v in itertools.product(group, repeat=2):
            for i, eps in itertools.product(range(2), (0, 1)):
                assert (u * v).one_dim(i, eps) == u.one_dim(i, eps) * v.one_dim(i, eps)


class TestOneDimValue:
    def test_canonical_equality_even_modulus(self):
        assert OneDimValue(-1, 1, 4) == OneDimValue(1, 3, 4)
        assert OneDimValue(-1, 0, 2) == OneDimValue(1, 1, 2)

    def test_odd_modulus_distinct(self):
        assert all(OneDimValue(-1, 1, 3) != OneDimValue(1, k, 3) for k in range(3))

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_checked(self, sign):
        with pytest.raises(ValueError, match=f"^sign must be \\+-1, got {sign}$"):
            OneDimValue(sign, 0, 4)

    @pytest.mark.parametrize("exponent", [-1, 4])
    def test_exponent_checked(self, exponent):
        with pytest.raises(ValueError, match=f"^exponent {exponent} out of range mod 4$"):
            OneDimValue(1, exponent, 4)

    def test_never_equal_to_another_type(self):
        value = OneDimValue(1, 0, 4)
        assert value != 1 and value != (1, 0, 4) and not value == "+1"

    def test_product_needs_one_modulus(self):
        with pytest.raises(ParamsMismatch, match="different moduli"):
            OneDimValue(1, 1, 4) * OneDimValue(1, 1, 2)

    def test_str(self):
        assert str(OneDimValue(1, 0, 4)) == "+1"
        assert str(OneDimValue(-1, 0, 3)) == "-1"
        assert str(OneDimValue(1, 2, 4)) == "+z^2"


def counting_keys(values):
    """``values`` as keys whose only comparison is ``>``, with the number of
    ``>`` comparisons made so far in ``count[0]``."""
    count = [0]

    class Key:
        def __init__(self, value):
            self.value = value

        def __gt__(self, other):
            count[0] += 1
            return self.value > other.value

    return [Key(v) for v in values], count


class TestSwapSort:
    def test_work_is_inversions_plus_at_most_n_minus_one_comparisons(self):
        """On the one-displaced word (1, ..., 1, 0) at n = 2000 and on
        seeded random 3-color words: a stable sort, with ``carried`` swapped
        alongside, by inv(keys) swaps, each of strictly out-of-order
        neighbours, and at most n - 1 more comparisons than swaps (a sort
        that rescans the keys pass after pass makes n(n - 1)/2 on the
        one-displaced word)."""
        rng = random.Random(35)
        words = [[1] * 1999 + [0]] + [[rng.randrange(3) for _ in range(rng.randint(1, 300))] for _ in range(40)]
        for word in words:
            keys, count = counting_keys(word)
            carried = list(range(len(word)))
            swaps = _swap_sort(keys, carried)
            assert carried == sorted(range(len(word)), key=word.__getitem__)
            assert [key.value for key in keys] == sorted(word)
            assert len(swaps) == inversions(word)
            assert count[0] <= len(word) - 1 + len(swaps), len(word)
            replayed = list(word)
            for i in swaps:
                assert replayed[i - 1] > replayed[i]
                replayed[i - 1], replayed[i] = replayed[i], replayed[i - 1]
            assert replayed == sorted(word)


class TestWord:
    def test_identity_empty(self):
        assert identity(GroupParams(3, 1, 4)).word() == []

    def test_round_trip_exhaustive(self):
        params = GroupParams(3, 1, 3)
        for w in enumerate_group(params):
            assert evaluate_word(params, w.word()) == w

    def test_words_are_pinned(self):
        """The swap sort's swaps, last first, then each color's conjugate."""
        for text, r, word in (
            ("[3,1,2]", 1, [2, 1]),
            ("[4,3,2,1]", 1, [1, 2, 3, 1, 2, 1]),
            ("[z1*2,1]", 2, [1, 0]),
            ("[1,z2*2,3]", 3, [1, 0, 0, 1]),
            (
                "[z1*5,1,z2*3,6,z2*7,z1*4,2,8]",
                4,
                [2, 3, 4, 5, 6, 3, 4, 5, 2, 1, 0, 2, 1, 0, 0, 1, 2, 4, 3, 2, 1, 0, 0, 1, 2, 3]
                + [4, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5],
            ),
        ):
            w = parse_element(text, r)
            assert w.word() == word, text
            assert evaluate_word(w.params, word) == w, text

    def test_word_evaluates_characters(self):
        # multiplicative evaluation over the word agrees with the closed form
        params = GroupParams(3, 1, 3)
        for w in enumerate_group(params):
            word = w.word()
            for i, eps in itertools.product(range(3), (0, 1)):
                value = OneDimValue(1, 0, 3)
                for j in word:
                    value = value * generator(params, j).one_dim(i, eps)
                assert value == w.one_dim(i, eps)


class TestPresentation:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_relations(self, r, n):
        params = GroupParams(r, 1, n)
        s = [generator(params, j) for j in range(n)]
        assert (s[0] ** r).is_identity()
        for i in range(1, n):
            assert (s[i] * s[i]).is_identity()
        for j in range(n):
            for k in range(n):
                if abs(j - k) > 1:
                    # commutation braid relation; literal (s_j s_k)^2 = 1
                    # only when both are involutions
                    assert s[j] * s[k] == s[k] * s[j]
                    if j >= 1 and k >= 1:
                        assert ((s[j] * s[k]) ** 2).is_identity()
        if n >= 2:
            # length-4 braid relation between s_0 and s_1
            assert s[0] * s[1] * s[0] * s[1] == s[1] * s[0] * s[1] * s[0]
        for l in range(1, n - 1):
            assert ((s[l] * s[l + 1]) ** 3).is_identity()


class TestEnumerate:
    @pytest.mark.parametrize(
        "r,p,n,count",
        [(1, 1, 3, 6), (2, 1, 2, 8), (2, 2, 2, 4), (3, 1, 3, 162), (4, 2, 3, 192)],
    )
    def test_counts(self, r, p, n, count):
        group = list(enumerate_group(GroupParams(r, p, n)))
        assert len(group) == count == GroupParams(r, p, n).order
        assert len(set(group)) == count

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_group(GroupParams(10, 1, 10), cap=100))

    def test_cap_names_an_order_too_long_to_print(self):
        # 2^1423 * 1423! has 4,300 digits, 2^1424 * 1424! has 4,303
        with pytest.raises(CapExceeded, match=r"^G\(2,1,1423\) has \d{4300} elements, above cap 5$"):
            next(enumerate_group(GroupParams(2, 1, 1423), cap=5))
        with pytest.raises(CapExceeded, match=r"^G\(2,1,1424\) has more than 10\^4302 elements, above cap 5$"):
            next(enumerate_group(GroupParams(2, 1, 1424), cap=5))
        huge = r"^G\(2,1,1000000\) has more than 10\^5866738 elements, above cap 10000000$"
        with pytest.raises(CapExceeded, match=huge):
            next(enumerate_group(GroupParams(2, 1, 10**6)))

    def test_members_only(self):
        for w in enumerate_group(GroupParams(4, 4, 2)):
            assert w.is_member(4)

    @pytest.mark.parametrize("r,p,n", [(4, 2, 4), (6, 3, 3), (3, 3, 1), (1, 1, 5)])
    def test_lexicographic_order(self, r, p, n):
        """Every candidate of G(r,1,n) whose color sum p divides, sorted:
        permutations first, then colors, the last color fastest."""
        expected = sorted(
            (perm, colors)
            for perm, colors in itertools.product(
                itertools.permutations(range(1, n + 1)), itertools.product(range(r), repeat=n)
            )
            if sum(colors) % p == 0
        )
        assert [(w.perm, w.colors) for w in enumerate_group(GroupParams(r, p, n))] == expected


class TestParse:
    def test_round_trip(self):
        for w in elements(4, 6, 40, seed=3):
            assert parse_element(str(w), 4) == w

    def test_example(self, running_example):
        w = parse_element("[z1*5,1,z2*3,6,z2*7,z1*4,2,8]", 4)
        assert w == running_example

    def test_whitespace_and_mod(self):
        assert parse_element(" [ z5*1 , 2 ] ", 4).colors == (1, 0)
        assert parse_element("[\tz 5 * 1,\n2 ]", 4) == parse_element("[z5*1,2]", 4)

    @pytest.mark.parametrize(
        "text,item",
        [("[1,2,3,4,5,6,7,8,9,1 0]", "1 0"), ("[z1 2*1]", "z1 2*1"), ("[2, z3*1\t4]", "z3*1\t4")],
    )
    def test_whitespace_between_digits_is_refused(self, text, item):
        with pytest.raises(ParseError, match=re.escape(f"bad item {item!r}")):
            parse_element(text, 4)

    def test_one_pass_parse_gives_back_the_generating_data(self):
        """The one-pass, one-conversion parse (``_numbers``) on random
        elements up to rank 64 gives back the permutation and colors each
        body was written from: colors below, at and above r, color 0
        written out or left bare, and whitespace around brackets, commas,
        ``z`` and ``*``."""
        rng = random.Random(17)
        for _ in range(500):
            n, r = rng.randint(1, 64), rng.choice((1, 2, 4, 8))
            perm = rng.sample(range(1, n + 1), n)
            colors = [rng.randrange(3 * r) for _ in range(n)]
            items = [f"z{c}*{v}" if c or rng.random() < 0.2 else str(v) for v, c in zip(perm, colors)]
            items = [f" {item}\t".replace("z", "z ").replace("*", "\n* ") if rng.random() < 0.3 else item for item in items]
            body = ",".join(items)
            assert _numbers(body) == [x for c, v in zip(colors, perm) for x in (c, v)], body
            w = parse_element(f" [{body}] ", r)
            assert w.perm == tuple(perm) and w.colors == tuple(c % r for c in colors), body

    def test_numbers_at_the_integer_string_limit(self, int_digit_limit):
        """A number of 4,300 digits, leading zeros included, is read; one
        of 4,301 is refused with its digit count, as a value or as a
        color."""
        one = "0" * 4299 + "1"  # 1, in 4,300 digits
        assert parse_element(f"[2,{one}]", 4) == parse_element("[2,1]", 4)
        assert parse_element(f"[z{one}*1, z {one} * 2]", 4) == parse_element("[z1*1,z1*2]", 4)
        too_long = "number too long: 4301 digits, above the limit of 4300"
        for text in (f"[0{one}]", f"[1,z0{one}*2]", f"[1,z2*0{one}]"):
            with pytest.raises(ParseError, match=f"^{too_long}$"):
                parse_element(text, 4)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1,x,2,z0{long}*3]", "bad item 'x'"),
            ("[1,z0{long}*3,x]", "number too long: 4301 digits"),
            ("[{long}0,2 3]", "number too long: 4301 digits"),
            ("[1,2 3,{long}0]", "bad item '2 3'"),
        ],
        ids=["bad-then-long", "long-then-bad", "long-value-then-spaced", "spaced-then-long-value"],
    )
    def test_first_fault_of_a_refused_body_is_named(self, int_digit_limit, text, message):
        """A body holding both a bad item and an over-long number names
        whichever comes first."""
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            parse_element(text.format(long="1" * 4300), 4)

    def test_a_scan_that_finds_no_fault_is_a_program_fault(self, monkeypatch):
        """A body the one-pass check refuses but whose items all read is a
        disagreement of the two passes: ``RuntimeError``, not a usage
        error and not an element."""
        monkeypatch.setattr(group_module, "_ITEM_COMMA_RE", re.compile("(?!)"))
        with pytest.raises(RuntimeError, match="found no fault"):
            parse_element("[z1*2,1]", 4)

    def test_inversions_helper(self):
        assert inversions((1, 2, 3)) == 0
        assert inversions((3, 2, 1)) == 3

    def test_membership_checked_for_p_above_one(self):
        for r, p, n in ((4, 2, 3), (6, 3, 2), (4, 4, 2)):
            sub = GroupParams(r, p, n)
            for w in enumerate_group(GroupParams(r, 1, n)):
                if w.is_member(p):
                    assert parse_element(str(w), r, p) == make_element(sub, w.perm, w.colors)
                else:
                    message = f"color sum {w.color_sum()} is not divisible by p={p}: {w} is not in"
                    with pytest.raises(NotAMember, match=re.escape(message)):
                        parse_element(str(w), r, p)
        assert parse_element("[z1*2,1]", 4).color_sum() == 1  # p = 1 takes any color sum

    def test_generators_still_built_outside_the_subgroup(self):
        # s_0 is not in G(4,2,2), but generator and subgroup_generators build it
        params = GroupParams(4, 2, 2)
        assert not generator(params, 0).is_member(2)
        assert subgroup_generators(params)[0] == generator(params, 0) ** 2


def _small_groups(max_order=200, max_r=12):
    """Every (r, p, n) with r <= ``max_r`` whose G(r,p,n) has at most
    ``max_order`` elements.  r is bounded too, since G(r,r,1) is trivial
    for every r."""
    for r in range(1, max_r + 1):
        for p in (d for d in range(1, r + 1) if r % d == 0):
            n = 1
            while GroupParams(r, p, n).order <= max_order:
                yield r, p, n
                n += 1


def _abelianization_order(elements, r):
    """|G/[G,G]| for the group of one-line tuples ``elements``, with its
    own product ``(s, a)(t, b) = (s o t, a_{t_i} + b_i mod r)``: the
    commutators g h g^-1 h^-1 of all pairs, closed under multiplication."""

    def mul(x, y):
        (s, a), (t, b) = x, y
        return tuple([s[j - 1] for j in t]), tuple([(a[j - 1] + c) % r for j, c in zip(t, b)])

    def inv(x):
        s, a = x
        perm, colors = [0] * len(s), [0] * len(s)
        for i, j in enumerate(s):
            perm[j - 1], colors[j - 1] = i + 1, -a[i] % r
        return tuple(perm), tuple(colors)

    inverses = {x: inv(x) for x in elements}
    commutators = {mul(mul(g, h), mul(inverses[g], inverses[h])) for g in elements for h in elements}
    closed, frontier = set(commutators), list(commutators)
    while frontier:
        frontier = [y for x in frontier for c in commutators if (y := mul(x, c)) not in closed]
        closed.update(frontier)
    assert len(elements) % len(closed) == 0
    return len(elements) // len(closed)


def test_the_family_and_psi_give_every_linear_character():
    """On every G(r,p,n) with r <= 12 of order at most 200, the distinct
    restrictions of tau_i^eps (i < r, eps in 0, 1), together with their
    products with psi(w) = (-1)^{c_1}, the color at position 1, when n = 2
    and p is even, number exactly |G/[G,G]|, the count of linear
    characters; psi is then a homomorphism.  Everywhere else tau_i^eps
    alone gives every linear character, and for n = 2 with p even it gives
    half of them."""
    halves = []
    for r, p, n in _small_groups():
        params = GroupParams(r, p, n)
        elements = list(enumerate_group(params))
        twists = (0, 1) if n == 2 and p % 2 == 0 else (0,)
        # a value +-z^k as its code c, with +-z^k = exp(pi i c / r); psi adds r
        characters = {
            (t, tuple([(w.one_dim(i, eps).code + t * r * w.colors[0]) % (2 * r) for w in elements]))
            for i in range(r)
            for eps in (0, 1)
            for t in twists
        }
        order = _abelianization_order([(w.perm, w.colors) for w in elements], r)
        assert len({values for _, values in characters}) == order, (r, p, n)
        if len(twists) == 2:
            assert 2 * len({values for t, values in characters if t == 0}) == order, (r, p, n)
            psi = {w: (-1) ** w.colors[0] for w in elements}
            assert all(psi[v * w] == psi[v] * psi[w] for v in elements for w in elements), (r, p, n)
            halves.append((r, p))
    assert halves == [(2, 2), (4, 2), (4, 4), (6, 2), (6, 6), (8, 2), (8, 4), (8, 8), (10, 2), (10, 10), (12, 2), (12, 4), (12, 6), (12, 12)]
