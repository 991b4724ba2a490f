import inspect
import json
import pydoc
import random
import sys
import threading

import pytest

from grpn import signs
from grpn.cli import main
from grpn.errors import CapExceeded, IndexOutOfRange, NotAscending, ShapeMismatch
from grpn.group import (
    DEFAULT_CAP,
    GroupElement,
    GroupParams,
    OneDimValue,
    enumerate_group,
    generator,
    identity,
    parse_element,
)
from grpn.rs import ascending_representative, is_ascending_element, rs_map
from grpn.signs import (
    VerificationReport,
    decompose_ascending,
    pi,
    pi_from_tableaux,
    verify_admissible,
    verify_membership,
    verify_theorem,
)
from grpn.tableaux import Multitableau, count_standard_multitableaux, multipartitions
from test_reference import theorem_leaves


class TestPiFromTableaux:
    def test_running_example_pair(self):
        P = Multitableau.from_json([[[1, 2, 8], [6]], [[4], [5]], [[3, 7]], []])
        Q = Multitableau.from_json([[[2, 4, 8], [7]], [[1], [6]], [[3, 5]], []])
        for i in range(4):
            assert pi_from_tableaux(P, Q, i, 4) == OneDimValue(1, (2 * i) % 4, 4)

    def test_ascending_example_pair(self):
        T = Multitableau.from_json([[[1, 2, 4], [3]], [[5], [6]], [[7, 8]], []])
        for i in range(4):
            assert pi_from_tableaux(T, T, i, 4) == OneDimValue(1, (2 * i) % 4, 4)

    def test_empty(self):
        empty = Multitableau.from_json([[], []])
        assert pi_from_tableaux(empty, empty, 1, 2) == OneDimValue(1, 0, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            pi_from_tableaux(
                Multitableau.from_json([[[1, 2]]]),
                Multitableau.from_json([[[1], [2]]]),
                0,
                1,
            )

    def test_index_range(self):
        T = Multitableau.from_json([[[1]]])
        with pytest.raises(IndexOutOfRange):
            pi_from_tableaux(T, T, 1, 1)

    @pytest.mark.parametrize("r", [1, 2, 4, 7])
    def test_component_count_must_be_r(self, r):
        """A pair with three components is no image in G(r,1,n) for r != 3,
        whatever i: the value would be reduced mod the wrong r."""
        T = Multitableau.from_json([[[1]], [[2]], [[3]]])
        for i in range(r):
            with pytest.raises(ShapeMismatch):
                pi_from_tableaux(T, T, i, r)
        assert pi_from_tableaux(T, T, 1, 3) == OneDimValue(1, 0, 3)


class TestPi:
    def test_running_example(self, running_example):
        for i in range(4):
            assert pi(running_example, i) == running_example.one_dim(i, 1)
            assert pi(running_example, i) == OneDimValue(1, (2 * i) % 4, 4)

    def test_identity(self):
        e = identity(GroupParams(5, 1, 4))
        for i in range(5):
            assert pi(e, i) == OneDimValue(1, 0, 5)

    def test_single_color_box(self):
        s0 = generator(GroupParams(4, 1, 1), 0)
        pair = rs_map(s0)
        assert pair.P.to_json() == [[], [[1]], [], []]
        for i in range(4):
            assert pi(s0, i) == OneDimValue(1, i, 4) == s0.one_dim(i, 1)

    def test_exponent_is_color_sum(self):
        # twice the spin of P equals the color sum
        for w in enumerate_group(GroupParams(4, 1, 3)):
            assert rs_map(w).P.twice_spin() == w.color_sum()
            for i in range(4):
                assert pi(w, i).exponent == (i * w.color_sum()) % 4


def _element(rng, r, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    colors = [rng.randrange(r) for _ in range(n)]
    return GroupElement(GroupParams(r, 1, n), tuple(perm), tuple(colors))


def _count_insertions(monkeypatch):
    """Record each element ``signs`` runs the insertion pass on, whether
    through ``rs_map`` or straight through the row-list pass
    (``_insertion_rows``)."""
    calls = []
    rows = signs._insertion_rows

    def counting_rows(perm, colors, r):
        calls.append(GroupElement(GroupParams(r, 1, len(perm)), perm, colors))
        return rows(perm, colors, r)

    monkeypatch.setattr(signs, "rs_map", lambda w: calls.append(w) or rs_map(w))
    monkeypatch.setattr(signs, "_insertion_rows", counting_rows)
    return calls


class TestPiMemo:
    """``pi`` reuses one element's RS image across i; it must never serve
    another element's values."""

    def _expected(self, w, i):
        pair = rs_map(w)
        return pi_from_tableaux(pair.P, pair.Q, i, w.params.r)

    def test_interleaved_calls_match_tableaux(self):
        rng = random.Random(3)
        pool = []
        for _ in range(12):
            r, n = rng.choice((2, 3, 4, 8)), rng.randrange(1, 65)
            w = _element(rng, r, n)
            pool.append(w)
            # same permutation, other colors
            pool.append(GroupElement(w.params, w.perm, tuple((a + 1) % r for a in w.colors)))
            # the same data under another r
            pool.append(GroupElement(GroupParams(r + 1, 1, n), w.perm, w.colors))
            # an equal but distinct object
            twin = GroupElement(w.params, w.perm, w.colors)
            assert twin == w and twin is not w
            pool.append(twin)
        expected = {id(w): [self._expected(w, i) for i in range(w.params.r)] for w in pool}
        for _ in range(400):
            w = rng.choice(pool)
            i = rng.randrange(w.params.r)
            assert pi(w, i) == expected[id(w)][i], (str(w), w.params.r, i)

    def test_one_rs_map_for_all_i(self, monkeypatch):
        w = _element(random.Random(5), 8, 40)
        calls = _count_insertions(monkeypatch)
        values = [pi(w, i) for i in range(8)]
        assert len(calls) == 1
        assert values == [w.one_dim(i, 1) for i in range(8)]

    def test_new_element_refreshes(self, monkeypatch):
        rng = random.Random(6)
        a, b = _element(rng, 4, 10), _element(rng, 4, 10)
        calls = _count_insertions(monkeypatch)
        for w in (a, b, a):
            for i in range(4):
                assert pi(w, i) == w.one_dim(i, 1)
        assert calls == [a, b, a]

    def test_cli_pi_runs_rs_map_once(self, monkeypatch, capsys):
        calls = _count_insertions(monkeypatch)
        assert main(["pi", "--r", "8", "[z3*5,1,z7*3,6,z2*7,z1*4,2,8]"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.count("pi_") == 8

    def test_threads_never_see_another_elements_values(self):
        rng = random.Random(8)
        elements = [_element(rng, 8, rng.randrange(8, 20)) for _ in range(4)]
        expected = [[w.one_dim(i, 1) for i in range(8)] for w in elements]
        wrong = []

        def worker(k):
            w = elements[k]
            for step in range(300):
                i = step % 8
                if pi(w, i) != expected[k][i]:
                    wrong.append((k, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(elements))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("i", [-1, 4, 5])
    def test_index_checked_before_rs_map(self, monkeypatch, running_example, i):
        calls = _count_insertions(monkeypatch)
        with pytest.raises(IndexOutOfRange, match=rf"^i={i} not in \[0, 4\)$"):
            pi(running_example, i)
        assert calls == []


class TestVerifyTheorem:
    @pytest.mark.parametrize("r,p,n", [(1, 1, 4), (2, 1, 3), (2, 2, 3), (4, 1, 3)])
    def test_passes(self, r, p, n):
        report = verify_theorem(GroupParams(r, p, n))
        assert report.passed
        assert report.elements_checked == GroupParams(r, p, n).order
        assert report.i_values_checked == report.elements_checked * r

    def test_subgroup_consistent_with_full_group(self):
        full = verify_theorem(GroupParams(4, 1, 3))
        sub = verify_theorem(GroupParams(4, 2, 3))
        assert full.passed and sub.passed
        assert sub.elements_checked * 2 == full.elements_checked

    @pytest.mark.parametrize("limit", [10**6, 7])
    def test_counterexamples_match_an_element_by_element_comparison(self, monkeypatch, limit):
        """A kernel whose sign and color sum are off on some elements: the
        sweep, which compares defects, reports exactly the (element, i) an
        element-by-element comparison of ``OneDimValue`` objects finds, the
        tableaux side read off each (P, Q) by ``pi_from_tableaux``, in the
        sweep's order (``test_reference.theorem_leaves``)."""
        get_kernel = signs.get_kernel

        def skewed():
            kernel = get_kernel()

            def stats(perm, colors, r):
                inv_sigma, color_sum = kernel(perm, colors, r)
                return inv_sigma + (perm[0] == 2), color_sum + 2 * (perm[-1] == 3)

            return stats

        monkeypatch.setattr(signs, "get_kernel", skewed)
        params = GroupParams(4, 2, 3)
        kernel, expected = skewed(), []
        for w, P, Q in theorem_leaves(params):
            inv_sigma, color_sum = kernel(w.perm, w.colors, 4)
            for i in range(4):
                group = OneDimValue((-1) ** inv_sigma, i * color_sum % 4, 4)
                tableaux = pi_from_tableaux(P, Q, i, 4)
                if group != tableaux:
                    expected.append((w, i, group, tableaux))
        assert 7 < len(expected) < params.order * 4
        report = verify_theorem(params, max_counterexamples=limit)
        assert report.elements_checked == params.order
        assert report.counterexamples == expected[:limit]
        assert [(str(w), i, str(a), str(b)) for w, i, a, b in report.counterexamples] == [
            (str(w), i, str(a), str(b)) for w, i, a, b in expected[:limit]
        ]

    def test_cap_is_checked_before_any_work(self, monkeypatch):
        """As ``enumerate_group`` refuses, and before a kernel is built: the
        cap counts G(r,p,n), the set the sweep visits, also on the path that
        reads the order off its logarithm and above ``SWEEP_R``."""
        monkeypatch.setattr(signs, "get_kernel", lambda: pytest.fail("kernel built"))
        with pytest.raises(CapExceeded, match=r"^G\(4,2,3\) has 192 elements, above cap 191$"):
            verify_theorem(GroupParams(4, 2, 3), cap=191)
        with pytest.raises(CapExceeded, match=r"^G\(2,1,1000000\) has more than 10\^"):
            verify_theorem(GroupParams(2, 1, 10**6))
        with pytest.raises(CapExceeded, match=r"^G\(2,2,1000000\) has more than 10\^"):
            verify_theorem(GroupParams(2, 2, 10**6))
        with pytest.raises(CapExceeded, match=r"^G\(10,2,2\) has 100 elements, above cap 96 for a sweep at r=10 "):
            verify_theorem(GroupParams(10, 2, 2), cap=120)

    def test_cap_counts_the_subgroup(self):
        """G(4,2,3) has 192 elements: a cap of 192 lets the sweep run,
        although G(4,1,3) has 384."""
        report = verify_theorem(GroupParams(4, 2, 3), cap=192)
        assert report.passed and report.elements_checked == 192

    def test_report_serialization(self):
        report = verify_theorem(GroupParams(2, 1, 2))
        data = report.to_json()
        assert data["failures"] == []
        assert data["checked"] == 8
        json.dumps(data)  # serializable

    def test_counterexamples_recorded(self, running_example):
        # fabricate a failing comparison through the report structure
        report = VerificationReport(GroupParams(4, 1, 8), "theorem")
        report.counterexamples.append(
            (running_example, 1, OneDimValue(1, 2, 4), OneDimValue(-1, 2, 4))
        )
        assert not report.passed
        blob = report.to_json()["failures"][0]
        assert blob["element"].startswith("[z1*5")
        assert blob["expected"] == {"sign": 1, "exponent": 2}


class TestVerifyMembership:
    @pytest.mark.parametrize("r,p,n", [(2, 2, 3), (4, 4, 2), (3, 1, 3)])
    def test_passes(self, r, p, n):
        assert verify_membership(GroupParams(r, p, n)).passed


class TestVerifyAdmissible:
    @pytest.mark.parametrize("r,p,n", [(2, 1, 3), (3, 1, 3), (4, 2, 3), (6, 3, 2), (2, 2, 4)])
    def test_passes(self, r, p, n):
        """It sweeps G(r,p,n), not G(r,1,n): one value check per admissible
        move of each element, plus r."""
        params = GroupParams(r, p, n)
        report = verify_admissible(params)
        assert report.passed
        assert report.elements_checked == params.order
        moves = 0
        for w in enumerate_group(params):
            colors_of = [w.colors[w.perm.index(v)] for v in range(1, n + 1)]
            for colors in (w.colors, colors_of):
                moves += sum(a != b for a, b in zip(colors, colors[1:]))
        assert report.i_values_checked == moves + params.order * r

    @pytest.mark.parametrize(
        "move,nothing,violation",
        [
            ("_right_move", lambda perm, colors, i: (perm, colors), "R-move invariants"),
            ("_left_move", lambda perm, position, i: perm, "L-move invariants"),
        ],
        ids=["right_admissible-R-move invariants", "left_admissible-L-move invariants"],
    )
    def test_catches_a_move_that_does_nothing(self, monkeypatch, move, nothing, violation):
        """The one-line routine that ``right_admissible`` / ``left_admissible``
        wrap, patched to return its input, fails every such move."""
        monkeypatch.setattr(signs, move, nothing)
        report = verify_admissible(GroupParams(2, 1, 3))
        assert not report.passed
        assert {expected for _, _, expected, _ in report.counterexamples} == {violation}

    def test_reports_a_class_not_led_by_its_ascending_element(self, monkeypatch):
        """A representative of the right class that is not its ascending
        element (its color blocks in decreasing color order) is reported
        for every member of each class with two or more colors, with the
        representative it got, and for no other."""
        real = signs._ascend

        def descending(perm, colors):
            _, _, (rep, rep_colors) = real(perm, colors)
            blocks = [[v for v, c in zip(rep, rep_colors) if c == k] for k in sorted(set(rep_colors), reverse=True)]
            out = []
            for block in blocks:
                out += [v - min(block) + 1 + len(out) for v in block]
            return [], [], (tuple(out), tuple(sorted(colors, reverse=True)))

        monkeypatch.setattr(signs, "_ascend", descending)
        params = GroupParams(2, 1, 3)
        report = verify_admissible(params, max_counterexamples=10**4)
        expected = {}
        for w in enumerate_group(params):
            if len(set(w.colors)) > 1:
                got = GroupElement(params, *descending(w.perm, w.colors)[2])
                assert not is_ascending_element(got) and ascending_representative(got) == ascending_representative(w)
                expected[w] = (w, 0, "ascending representative", str(got))
        assert len(expected) > 3
        assert len(report.counterexamples) == len(expected)
        assert set(report.counterexamples) == set(expected.values())


@pytest.mark.parametrize(
    "verify,walk",
    [
        (verify_theorem, "multipartitions"),
        (verify_membership, "multipartitions"),
        (verify_admissible, "multipartitions"),
    ],
)
def test_sweep_cap_scales_with_r_before_any_work(monkeypatch, verify, walk):
    """A sweep's work per element grows with r, so above ``SWEEP_R`` its
    element cap is scaled down by SWEEP_R / r before any work: G(100000,1,1)
    has 10^5 elements but is refused at once.  A larger cap lifts the bound,
    and at r <= SWEEP_R the element cap decides alone."""
    monkeypatch.setattr(signs, walk, lambda *args, **kwargs: pytest.fail("sweep started"))
    message = (
        r"^G\(100000,1,1\) has 100000 elements, above cap 800 "
        r"for a sweep at r=100000 \(cap 10000000 times 8/r\)$"
    )
    with pytest.raises(CapExceeded, match=message):
        verify(GroupParams(10**5, 1, 1))
    with pytest.raises(CapExceeded, match=r"^G\(9,1,2\) has 162 elements, above cap 160 for a sweep at r=9"):
        verify(GroupParams(9, 1, 2), cap=180)
    monkeypatch.undo()
    assert verify(GroupParams(9, 1, 2), cap=183).elements_checked == 162
    assert verify(GroupParams(8, 1, 2), cap=128).elements_checked == 128


def drop_last_filling(real):
    """``_corner_steps`` that drops each shape's last filling, and its
    leaf, wherever the shape has more than one."""

    def corner_steps(shape):
        (shape, leaves), fillings = real(shape)
        return (shape, leaves[: max(1, len(leaves) - 1)]), fillings[: max(1, len(fillings) - 1)]

    return corner_steps


@pytest.mark.parametrize("kind", ["theorem", "membership", "admissible"])
def test_sweeps_fail_on_a_corner_search_that_drops_a_filling(monkeypatch, capsys, kind):
    """A corner search short of fillings shrinks the walk and the fillings
    together, so nothing inside a shape notices: without a count from
    outside the search, the theorem sweep of G(2,1,5) passed with 3,256 of
    its 3,840 elements.  Each sweep compares every shape's filling count
    with the hook-length formula, skipping a shape that fails it, and its
    element count with the order of the set it covers; each mismatch is a
    named counterexample, so the sweep fails with exit 1 and the same JSON
    keys, not a PASS or a traceback."""
    monkeypatch.setattr(signs, "_corner_steps", drop_last_filling(signs._corner_steps))
    params = GroupParams(2, 1, 5)
    report = getattr(signs, f"verify_{kind}")(params, max_counterexamples=10**4)
    short = [
        (f"shape {shape}", 0, f"{count} standard fillings", f"{count - 1} from the corner search")
        for shape in multipartitions(5, 2)
        if (count := count_standard_multitableaux(shape)) > 1
    ]
    kept = sum(1 for shape in multipartitions(5, 2) if count_standard_multitableaux(shape) == 1)
    assert report.elements_checked == kept
    assert report.counterexamples == [*short, ("G(2,1,5)", 0, "3840 elements", f"{kept} checked")]
    code = main(["verify", kind, "--r", "2", "--n", "5", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(data) == {"params", "kind", "checked", "i_values_checked", "failures", "elapsed_ms"}
    assert data["failures"][0] == {"element": short[0][0], "i": 0, "expected": short[0][2], "got": short[0][3]}


@pytest.mark.parametrize("verify", [verify_theorem, verify_membership, verify_admissible])
def test_sweeps_refuse_to_keep_no_counterexample(monkeypatch, verify):
    """A report that keeps no counterexample reads PASS on a failing sweep,
    so a ``max_counterexamples`` below 1 raises ``ValueError`` before any
    work, even for a group above the cap."""
    monkeypatch.setattr(signs, "multipartitions", lambda *args, **kwargs: pytest.fail("sweep started"))
    for limit in (0, -1):
        with pytest.raises(ValueError, match=f"^max_counterexamples={limit} is below 1$"):
            verify(GroupParams(2, 1, 2), max_counterexamples=limit)
        with pytest.raises(ValueError):
            verify(GroupParams(2, 1, 10**6), max_counterexamples=limit)


@pytest.mark.parametrize("verify", [verify_theorem, verify_membership, verify_admissible])
def test_sweeps_keep_their_public_signature(verify):
    """The sweep frame is the public call: ``inspect.signature`` and ``help``
    show ``(params, cap=DEFAULT_CAP, max_counterexamples=10)`` under the
    sweep's own name, with its docstring and the frame's cap sentence."""
    sig = inspect.signature(verify)
    assert [(p.name, p.kind, p.default) for p in sig.parameters.values()] == [
        ("params", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("cap", inspect.Parameter.POSITIONAL_OR_KEYWORD, DEFAULT_CAP),
        ("max_counterexamples", inspect.Parameter.POSITIONAL_OR_KEYWORD, 10),
    ]
    assert verify.__module__ == "grpn.signs" and verify.__qualname__ == verify.__name__
    assert getattr(signs, verify.__name__) is verify
    doc = inspect.getdoc(verify)
    assert doc.endswith("Raises ``CapExceeded`` before any work if the sweep is above its cap (``_sweep``).")
    assert doc.count("CapExceeded") == 1
    text = pydoc.render_doc(verify, renderer=pydoc.plaintext)
    assert f"{verify.__name__}{sig}" in text and doc.splitlines()[0] in text


class TestDecomposeAscending:
    def test_worked_example(self, running_example):
        rep = ascending_representative(running_example)
        factors = decompose_ascending(rep)
        assert len(factors) == 5
        u0, u1, u2, u3, u4 = factors
        assert u0 == parse_element("[1,3,2,4,5,6,7,8]", 4)
        assert u1 == parse_element("[1,2,3,4,6,5,7,8]", 4)
        assert u2.is_identity() and u3.is_identity()
        assert u4 == parse_element("[1,2,3,4,z1*5,z1*6,z2*7,z2*8]", 4)
        product = u0
        for u in factors[1:]:
            product = product * u
        assert product == rep

    def test_identity(self):
        e = identity(GroupParams(3, 1, 2))
        assert all(u.is_identity() for u in decompose_ascending(e))

    def test_requires_ascending(self, running_example):
        with pytest.raises(NotAscending):
            decompose_ascending(running_example)

    def test_product_recovers_all_ascending(self):
        params = GroupParams(2, 1, 3)
        from grpn.rs import is_ascending_element

        for w in enumerate_group(params):
            if not is_ascending_element(w):
                continue
            factors = decompose_ascending(w)
            product = factors[0]
            for u in factors[1:]:
                product = product * u
            assert product == w
            # permutation factors commute pairwise
            for a in factors[:-1]:
                for b in factors[:-1]:
                    assert a * b == b * a

    def test_color_factor_character(self):
        w = parse_element("[1,3,2,4,z1*6,z1*5,z2*7,z2*8]", 4)
        u_last = decompose_ascending(w)[-1]
        for i in range(4):
            assert u_last.one_dim(i, 1) == OneDimValue(1, (2 * i) % 4, 4)
