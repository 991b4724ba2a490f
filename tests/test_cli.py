import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grpn
from grpn import rs as rs_module
from grpn import signs
from grpn.cli import INTERNAL_ERROR, USAGE_ERROR, VERIFY_FAILURE, build_parser, main
from grpn.errors import CapExceeded, InvalidTableau
from grpn.group import MAX_R, GroupElement, GroupParams, parse_element
from grpn.rs import apply_moves, ascending_moves, rs_map
from grpn.signs import VerificationReport
from grpn.tableaux import Multitableau

RUNNING = "[z1*5,1,z2*3,6,z2*7,z1*4,2,8]"
SRC = os.path.dirname(os.path.dirname(grpn.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# (argv, exit code, stdout, stderr) of every subcommand, in text and in JSON,
# on the running example, and of the usage errors; a sweep's elapsed time is
# masked
CLI_OUTPUTS = json.loads(Path(__file__).with_name("cli_outputs.json").read_text())


def _mask_elapsed(text):
    text = re.sub(r'("elapsed_ms": )[0-9.e-]+', "\\1…", text)
    return re.sub(r"[0-9.]+ ms$", "… ms", text, flags=re.M)


@pytest.mark.parametrize("case", CLI_OUTPUTS, ids=lambda case: " ".join(case["argv"])[:48])
def test_output_is_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    try:
        code = main(case["argv"])
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    out = capsys.readouterr()
    assert (code, _mask_elapsed(out.out), out.err) == (case["code"], case["stdout"], case["stderr"])


def test_rs_text(capsys):
    code, out, _ = run(capsys, "rs", "--r", "4", RUNNING)
    assert code == 0
    assert "P = (1,2,8/6 | 4/5 | 3,7 | -)" in out
    assert "Q = (2,4,8/7 | 1/6 | 3,5 | -)" in out


def _element_command_cases():
    """argv without ``--format``, and known JSON values, of every element
    command on seeded elements of rank 8-64, r in 2, 4 and 8, led by ``rs``
    on the running example, whose image is known."""
    known = {"P": [[[1, 2, 8], [6]], [[4], [5]], [[3, 7]], []], "Q": [[[2, 4, 8], [7]], [[1], [6]], [[3, 5]], []]}
    cases = [pytest.param(["rs", "--r", "4", RUNNING], known, id="rs-running-example")]
    rng = random.Random(39)
    for r in (2, 4, 8, 2, 4, 8):
        n = rng.randrange(8, 65)
        perm = rng.sample(range(1, n + 1), n)
        w = GroupElement(GroupParams(r, 1, n), tuple(perm), tuple(rng.randrange(r) for _ in perm))
        pair = rs_map(w)
        P, Q = json.dumps(pair.P.to_json()), json.dumps(pair.Q.to_json())
        R = ["--r", str(r)]
        for name, argv in [
            ("rs", ["rs", *R, str(w)]),
            ("inverse-rs", ["inverse-rs", *R, f"[{P}, {Q}]"]),
            ("stats-element", ["stats", *R, str(w)]),
            ("stats-tableau", ["stats", P]),
            ("sgn", ["sgn", *R, str(w)]),
            ("pi", ["pi", *R, str(w)]),
            ("ascend", ["ascend", *R, str(w)]),
        ]:
            cases.append(pytest.param(argv, {}, id=f"{name}-r{r}-n{n}"))
    return cases


def _text_from_json(argv, data):
    """The text output of ``argv``, rebuilt from its JSON output ``data``
    with no ``grpn.cli`` code: the lines of each command's text format."""
    command = argv[0]
    if command == "inverse-rs":
        w = parse_element(data["element"], int(argv[2]))
        assert w.to_json() == {k: v for k, v in data.items() if k != "element"}
        return [data["element"]]
    if "tableau" in data:
        stats = {k: v for k, v in data.items() if k != "tableau"}
        return [f"T = {Multitableau.from_json(data['tableau'])}", *(f"{k} = {v}" for k, v in stats.items())]
    r = int(argv[2])
    lines = [f"w = {data['element']}"]
    if command in ("rs", "stats"):
        pair = rs_map(parse_element(data["element"], r))
        if command == "rs":
            assert (data["P"], data["Q"]) == (pair.P.to_json(), pair.Q.to_json())
        lines += [f"P = {pair.P}", f"Q = {pair.Q}"]
        if command == "stats":
            lines += [f"{name}.{k} = {v}" for name in ("P", "Q") for k, v in data[name].items()]
    elif command == "sgn":
        values = data["values"]
        assert len(values) == 2 * r
        lines += [f"sigma_{i}(w) = {values[f'tau_{i}^0']}" for i in range(r)]
        lines += [f"sgn_{i}(w) = {values[f'tau_{i}^1']}" for i in range(r)]
    elif command == "pi":
        assert len(data["values"]) == r
        lines += [f"pi_{i}(w) = {data['values'][str(i)]}" for i in range(r)]
    else:
        moves = " ".join(f"{side}{i}" for side, i in data["moves"]) or "(none)"
        lines += [f"ascending = {data['ascending']}", f"moves = {moves}"]
    return lines


@pytest.mark.parametrize("argv,known", _element_command_cases())
def test_rs_json_matches_text(capsys, argv, known):
    """Each element command's text and JSON outputs carry the same answer.
    Only one format is built per call, so only this check ties the text
    builder of a command to its JSON builder."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert {key: data[key] for key in known} == known
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == _text_from_json(argv, data)


def test_inverse_rs_round_trip(capsys):
    code, out, _ = run(capsys, "rs", "--r", "4", "--format", "json", RUNNING)
    data = json.loads(out)
    pair = json.dumps([data["P"], data["Q"]])
    code, out, _ = run(capsys, "inverse-rs", "--r", "4", pair)
    assert code == 0
    assert out.strip() == RUNNING


def test_stats_element(capsys):
    code, out, _ = run(capsys, "stats", "--r", "4", RUNNING)
    assert code == 0
    assert "P.inv = 10" in out and "Q.inv = 14" in out
    assert "P.e = 2" in out and "P.twice_spin = 6" in out
    assert "P.sign = 1" in out and "Q.sign = 1" in out


def test_stats_tableau(capsys):
    code, out, _ = run(capsys, "stats", json.dumps([[[1, 3], [2]], [[4], [5]]]))
    assert code == 0
    assert "inv = 1" in out and "ascending = True" in out
    assert "sign = -1" in out


def test_stats_tableau_rejects_a_mismatched_r(capsys):
    code, out, err = run(capsys, "stats", "--r", "1", "[[[1]],[[2]]]")
    assert (code, out, err) == (2, "", "error: multitableau has 2 components, expected r=1\n")
    code, out, _ = run(capsys, "stats", "--r", "2", "[[[1]],[[2]]]")
    assert code == 0 and "twice_spin = 1" in out


def test_stats_tableau_checks_r_and_p(capsys):
    """On tableau input the component count is r, and it and --p are
    checked as element input checks them."""
    for argv, message in (
        (["--p", "0", "[[[1]],[[2]]]"], "parameters must be positive: GroupParams(r=2, p=0, n=2)"),
        (["--p", "-2", "[[[1]],[[2]]]"], "parameters must be positive: GroupParams(r=2, p=-2, n=2)"),
        (["--r", "2", "--p", "3", "[[[1]],[[2]]]"], "p=3 does not divide r=2"),
        (["--p", "3", "[[[1]],[[2]]]"], "p=3 does not divide r=2"),
        (["[]"], "parameters must be positive: GroupParams(r=0, p=1, n=0)"),
    ):
        code, out, err = run(capsys, "stats", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    code, out, _ = run(capsys, "stats", "--p", "2", "[[[1]],[[2]]]")
    assert code == 0 and "twice_spin = 1" in out


def test_stats_tableau_refuses_a_multitableau_without_boxes(capsys):
    """n = 0 is refused for a multitableau as for every other input."""
    for argv, r in ((["[[],[]]"], 2), (["[[]]"], 1), (["--r", "3", "[[],[],[]]"], 3)):
        code, out, err = run(capsys, "stats", *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: parameters must be positive: GroupParams(r={r}, p=1, n=0)\n", argv


def test_sgn_identity_all_positive(capsys):
    code, out, _ = run(capsys, "sgn", "--r", "4", "[1,2]")
    assert code == 0
    assert out.count("= +1") == 8


def test_pi_matches_sgn(capsys):
    _, sgn_out, _ = run(capsys, "sgn", "--r", "4", RUNNING)
    code, pi_out, _ = run(capsys, "pi", "--r", "4", RUNNING)
    assert code == 0
    for i in range(4):
        line = next(l for l in pi_out.splitlines() if l.startswith(f"pi_{i}"))
        value = line.split(" = ")[1]
        assert f"sgn_{i}(w) = {value}" in sgn_out


def test_ascend(capsys):
    code, out, _ = run(capsys, "ascend", "--r", "4", RUNNING)
    assert code == 0
    assert "ascending = [1,3,2,4,z1*6,z1*5,z2*7,z2*8]" in out
    moves = next(l for l in out.splitlines() if l.startswith("moves"))
    assert moves.split(" = ")[1].split()[0][0] in "LR"


def test_ascend_matches_replaying_its_moves(capsys):
    """On seeded elements of rank 64, the printed representative and moves
    are ``ascending_moves(w)`` and the element those moves replay to."""
    rng = random.Random(64)
    for r in (2, 4, 8, 4, 2):
        perm = list(range(1, 65))
        rng.shuffle(perm)
        w = GroupElement(GroupParams(r, 1, 64), tuple(perm), tuple(rng.randrange(r) for _ in perm))
        code, out, _ = run(capsys, "ascend", "--r", str(r), "--format", "json", str(w))
        data = json.loads(out)
        moves = ascending_moves(w)
        assert code == 0 and len(moves) > 100
        assert data["moves"] == [[side, i] for side, i in moves]
        assert data["ascending"] == str(apply_moves(w, moves)), str(w)


def test_ascend_sorts_once(capsys, monkeypatch):
    """``grpn ascend`` takes its moves and its representative from one
    ``_ascend``, which runs both adjacent-swap sorts."""
    calls = []
    ascend = rs_module._ascend
    monkeypatch.setattr(rs_module, "_ascend", lambda *args: calls.append(args) or ascend(*args))
    for fmt in ("text", "json"):
        calls.clear()
        assert run(capsys, "ascend", "--r", "4", "--format", fmt, RUNNING)[0] == 0
        assert len(calls) == 1, fmt


# argv without --format, and the counted calls it makes in text and in
# JSON; calls that are not listed must not be made.  Each element is turned
# into text once: the input w (the result of inverse-rs), and the
# representative of ascend.  Text makes no to_json call, JSON no
# Multitableau.__str__ call, and verify builds only its summary or its dict.
RUNNING_PAIR = "[[[[1, 2, 8], [6]], [[4], [5]], [[3, 7]], []], [[[2, 4, 8], [7]], [[1], [6]], [[3, 5]], []]]"
W_STR, T_STR, T_JSON = "GroupElement.__str__", "Multitableau.__str__", "Multitableau.to_json"
BUILT = [
    pytest.param(["rs", "--r", "4", RUNNING], {W_STR: 1, T_STR: 2}, {W_STR: 1, T_JSON: 2}, id="rs"),
    pytest.param(["inverse-rs", "--r", "4", RUNNING_PAIR], {W_STR: 1}, {W_STR: 1}, id="inverse-rs"),
    pytest.param(["stats", "--r", "4", RUNNING], {W_STR: 1, T_STR: 2}, {W_STR: 1}, id="stats-element"),
    pytest.param(["stats", "[[[1, 3], [2]], [[4], [5]]]"], {T_STR: 1}, {T_JSON: 1}, id="stats-tableau"),
    pytest.param(["sgn", "--r", "4", RUNNING], {W_STR: 1}, {W_STR: 1}, id="sgn"),
    pytest.param(["pi", "--r", "4", RUNNING], {W_STR: 1}, {W_STR: 1}, id="pi"),
    pytest.param(["ascend", "--r", "4", RUNNING], {W_STR: 2}, {W_STR: 2}, id="ascend"),
    pytest.param(
        ["verify", "theorem", "--r", "2", "--n", "3"],
        {"VerificationReport.summary": 1},
        {"VerificationReport.to_json": 1},
        id="verify",
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,text_calls,json_calls", BUILT)
def test_only_the_printed_format_is_built(capsys, monkeypatch, fmt, argv, text_calls, json_calls):
    """Each command builds the output of its ``--format`` only, counted
    through the formatting methods of the element, multitableau and report
    classes."""
    calls = Counter()

    def count(cls, name):
        method = getattr(cls, name)

        def counted(self):
            calls[f"{cls.__name__}.{name}"] += 1
            return method(self)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in [
        (GroupElement, "__str__"),
        (Multitableau, "__str__"),
        (Multitableau, "to_json"),
        (VerificationReport, "summary"),
        (VerificationReport, "to_json"),
    ]:
        count(cls, name)
    assert run(capsys, *argv, "--format", fmt)[0] == 0
    assert calls == (text_calls if fmt == "text" else json_calls)


def out_of_order_pairs(word, r):
    """Pairs a < b with word[a] > word[b], for letters in [0, r), counted
    with one tally per letter: the swaps of a stable adjacent-swap sort."""
    seen, total = [0] * r, 0
    for x in word:
        total += sum(seen[x + 1 :])
        seen[x] += 1
    return total


def test_ascend_refuses_above_its_move_bound_before_any_move(capsys, monkeypatch):
    """``grpn ascend`` counts its moves before it makes any and refuses an
    element above ``MAX_ASCEND_MOVES`` with exit 2 and one ``error:`` line
    naming the count: the out-of-order pairs of the position-color word plus
    those of the value-color word."""
    rng = random.Random(2000)
    perm = rng.sample(range(1, 2001), 2000)
    colors = [rng.randrange(2) for _ in perm]
    value_colors = [colors[perm.index(v)] for v in range(1, 2001)]
    count = out_of_order_pairs(colors, 2) + out_of_order_pairs(value_colors, 2)
    assert count > rs_module.MAX_ASCEND_MOVES

    def swap_sort(keys, carried):
        raise AssertionError("sorted above the bound")

    monkeypatch.setattr(rs_module, "_swap_sort", swap_sort)
    w = GroupElement(GroupParams(2, 1, 2000), tuple(perm), tuple(colors))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "ascend", "--r", "2", "--format", fmt, str(w))
        assert (code, out) == (USAGE_ERROR, "")
        assert err == f"error: ascending an element of rank 2000 takes {count} moves, above cap 250000\n"


def test_ascend_runs_at_its_move_bound(monkeypatch):
    """An element with exactly ``MAX_ASCEND_MOVES`` moves is ascended, and
    with the bound one lower it is refused before any move."""
    # 250 positions of color 1 before 500 of color 0, values in place: each
    # word has 250 * 500 out-of-order pairs
    colors = (1,) * 250 + (0,) * 500
    w = GroupElement(GroupParams(2, 1, 750), tuple(range(1, 751)), colors)
    assert len(ascending_moves(w)) == rs_module.MAX_ASCEND_MOVES == 2 * 250 * 500
    monkeypatch.setattr(rs_module, "MAX_ASCEND_MOVES", rs_module.MAX_ASCEND_MOVES - 1)
    monkeypatch.setattr(rs_module, "_swap_sort", lambda keys, carried: pytest.fail("sorted above the bound"))
    with pytest.raises(CapExceeded, match="takes 250000 moves, above cap 249999"):
        ascending_moves(w)


# kind, r, p, n, elements checked, i values checked
SWEEP_COUNTS = [
    ("admissible", 2, 1, 4, 384, 1920),
    ("admissible", 3, 1, 3, 162, 918),
    ("admissible", 4, 2, 3, 192, 1344),
    ("admissible", 3, 3, 3, 54, 306),
    ("admissible", 2, 2, 4, 192, 960),
    ("admissible", 2, 1, 5, 3840, 23040),
    ("membership", 2, 2, 5, 3840, 5760),
    ("membership", 3, 3, 4, 1944, 2592),
    ("membership", 1000, 1, 1, 1000, 2000),  # more components than the recursion limit
    ("theorem", 2, 1, 5, 3840, 7680),
    ("theorem", 4, 2, 4, 3072, 12288),
    ("theorem", 3, 3, 4, 648, 1944),
    ("theorem", 6, 3, 3, 432, 2592),
    ("theorem", 4, 4, 3, 96, 384),
    ("theorem", 3, 3, 1, 1, 3),
]


@pytest.mark.parametrize("kind,r,p,n,checked,values", SWEEP_COUNTS)
def test_verify_json_reports_its_counts(capsys, kind, r, p, n, checked, values):
    """A sweep's report keys, its element and value-check counts, and no
    failures."""
    code, out, _ = run(capsys, "verify", kind, f"--r={r}", f"--p={p}", f"--n={n}", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["failures"] == []
    assert set(data) == {"params", "kind", "checked", "i_values_checked", "failures", "elapsed_ms"}
    assert [data["checked"], data["i_values_checked"]] == [checked, values]


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--r", "2", "--p", "1", "--n", "4")
    assert code == 0
    assert "PASS" in out and "384 elements" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "membership", "--r", "2", "--p", "2", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["failures"] == []


@pytest.mark.parametrize("fault", [IndexError, InvalidTableau])
@pytest.mark.parametrize("kind", ["theorem", "membership", "admissible"])
def test_verify_fault_in_the_walk_exits_with_its_own_code(capsys, monkeypatch, kind, fault):
    """An error raised inside a sweep's walk, after its arguments passed
    every check, is a fault of the program: exit 3 with the traceback, not
    1, which means counterexamples, nor 2, which means bad input, even when
    it is a ``GrpnError``.  Bad arguments still exit 2, and a sweep that
    finds counterexamples 1."""

    def broken(fillings, steps):
        raise fault("walk fault")
        yield

    argv = ["verify", kind, "--r", "2", "--p", "2", "--n", "3"]
    real = signs._removal_walk
    monkeypatch.setattr(signs, "_removal_walk", broken)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (INTERNAL_ERROR, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert f"{fault.__name__}: walk fault" in err
    code, out, err = run(capsys, *argv, "--cap", "5")
    assert (code, out) == (USAGE_ERROR, "") and re.fullmatch(r"error: G\(2,[12],3\) has \d+ elements, above cap 5\n", err)

    def recolored(fillings, steps):
        for a, k, perm, colors in real(fillings, steps):
            yield a, k, perm, [1 - colors[0], *colors[1:]]

    monkeypatch.setattr(signs, "_removal_walk", recolored)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (VERIFY_FAILURE, "") and "FAIL" in out


def test_verify_cap_exit_usage(capsys):
    code, _, err = run(capsys, "verify", "theorem", "--r", "6", "--n", "8", "--cap", "100")
    assert code == 2
    assert "error" in err


def test_verify_cap_is_the_only_size_option(capsys):
    """``--cap`` sizes a sweep; there is no ``--force`` to override it."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem", "--r", "2", "--n", "3", "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "theorem", "--r", "2", "--n", "3", "--cap", "1000000000000")
    assert code == 0 and "PASS, 48 elements" in out
    code, _, err = run(capsys, "verify", "theorem", "--r", "2", "--n", "3", "--cap", "5")
    assert code == 2 and err == "error: G(2,1,3) has 48 elements, above cap 5\n"


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "rs", "--r", "2", "[2,2]")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", ["[1,2,3,4,5,6,7,8,9,1 0]", "[z1 2*1]"])
def test_whitespace_between_digits_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "sgn", "--r", "4", text)
    assert (code, out) == (2, "") and err.startswith("error: bad item ")


def test_verify_membership_of_many_components(capsys):
    # G(1000,1,1): the shapes have 1000 components, more than the recursion limit
    code, out, _ = run(capsys, "verify", "membership", "--r", "1000", "--n", "1", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["failures"] == []
    assert (data["checked"], data["i_values_checked"]) == (1000, 2000)


def test_non_member_rejected_with_usage_error(capsys):
    for command in ("rs", "sgn", "pi", "stats", "ascend"):
        code, out, err = run(capsys, command, "--r", "4", "--p", "2", "[z1*2,1]")
        assert code == 2 and out == "", command
        assert err == "error: color sum 1 is not divisible by p=2: [z1*2,1] is not in G(4,2,2)\n"


def test_member_accepted_for_p_above_one(capsys):
    code, out, _ = run(capsys, "rs", "--r", "4", "--p", "2", "[z1*2,z1*1]")
    assert code == 0 and "P = (- | 1/2 | - | -)" in out
    code, out, _ = run(capsys, "sgn", "--r", "4", "--p", "2", "[z1*2,z1*1]")
    assert code == 0 and "sgn_0(w) = +z^2" in out and "sigma_1(w) = +z^2" in out


def test_inverse_rs_rejects_a_non_member(capsys):
    pair = json.dumps([[[], [[1]], [], []], [[], [[1]], [], []]])
    code, out, err = run(capsys, "inverse-rs", "--r", "4", "--p", "2", pair)
    assert code == 2 and out == ""
    assert "color sum 1 is not divisible by p=2" in err
    code, out, _ = run(capsys, "inverse-rs", "--r", "4", pair)
    assert code == 0 and out == "[z1*1]\n"


def test_non_positive_parameters_are_usage_errors(capsys):
    for argv, params in (
        (["rs", "--r", "0", "[1]"], "r=0, p=1, n=1"),
        (["rs", "--r", "0", "[z1*1]"], "r=0, p=1, n=1"),
        (["verify", "theorem", "--r", "2", "--n", "0"], "r=2, p=1, n=0"),
        (["verify", "membership", "--r", "2", "--p", "0", "--n", "2"], "r=2, p=0, n=2"),
        (["inverse-rs", "--r", "0", "[[[[1]]], [[[1]]]]"], "r=0, p=1, n=1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: parameters must be positive: GroupParams({params})\n", argv


@pytest.mark.parametrize(
    "argv",
    [
        ["rs", "[1]"],
        ["inverse-rs", "[[[[1]]], [[[1]]]]"],
        ["stats", "[1]"],
        ["sgn", "[1]"],
        ["pi", "[1]"],
        ["ascend", "[1]"],
        ["verify", "theorem", "--n", "1", "--cap", "1"],  # a sweep of r elements would be slow
    ],
    ids=lambda argv: argv[0],
)
def test_an_r_above_the_limit_is_a_usage_error(capsys, argv):
    """An element of G(r,p,n) has r components in its image, so each command
    refuses an r above ``MAX_R`` before it builds anything of size r."""
    code, out, err = run(capsys, *argv, "--r", str(MAX_R + 1))
    assert (code, out, err) == (2, "", f"error: r={MAX_R + 1} is above the limit of {MAX_R}\n")


def test_inverse_rs_rejects_a_malformed_pair(capsys):
    for text in ("5", '{"a":1}', "[]", "[1, 2, 3]", '"ab"'):
        code, out, err = run(capsys, "inverse-rs", text)
        assert code == 2 and out == "", text
        assert err == f"error: pair must be a JSON list [P, Q] of two multitableaux: {text!r}\n"
    code, out, err = run(capsys, "inverse-rs", "[5, 6]")
    assert code == 2 and out == "" and err.startswith("error: expected a list of components")


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "[[[1.0]]]"],
        ["stats", "[[[true]]]"],
        ["inverse-rs", "[[[[1.0]]],[[[1]]]]"],
        ["inverse-rs", "[[[[true]]],[[[1]]]]"],
        ["inverse-rs", "[[[[1]]],[[[true]]]]"],
    ],
)
def test_non_integer_labels_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: labels must be integers") and err.count("\n") == 1


LONG = "1" * 5000  # above Python's default limit of 4300 digits for int(str)


@pytest.mark.parametrize(
    "argv",
    [
        ["rs", "--r", "2", f"[{LONG}]"],
        ["rs", "--r", "2", f"[z{LONG}*1]"],
        ["stats", f"[[[{LONG}]]]"],
        ["inverse-rs", f"[[[[{LONG}]]],[[[1]]]]"],
    ],
    ids=["element-value", "color-exponent", "stats", "inverse-rs"],
)
def test_over_long_integers_are_usage_errors(capsys, int_digit_limit, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: number too long: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text,message",
    [(f"[{LONG},x]", "number too long: 5000 digits"), (f"[x,{LONG}]", "bad item 'x'"), (f"[1,z{LONG}*2,y]", "number too long")],
    ids=["long-then-bad", "bad-then-long", "long-color-then-bad"],
)
def test_first_failing_item_is_named(capsys, int_digit_limit, text, message):
    """A body that fails the one-pass parse is read item by item, and the
    first failing item, bad or over-long, names the error."""
    code, out, err = run(capsys, "rs", "--r", "2", text)
    assert (code, out) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["stats", "inverse-rs"])
def test_json_nested_too_deeply_is_a_usage_error(capsys, command):
    # far past the recursion limit json.loads checks on any supported Python
    code, out, err = run(capsys, command, "[" * 100_000 + "]" * 100_000)
    assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")


def run_quietly(argv):
    """``main(argv)`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_cli_contract(argv):
    """Exit 0 with nothing on stderr, or exit 2 with one ``error:`` line and
    nothing on stdout; an uncaught exception fails the test."""
    code, out, err = run_quietly(argv)
    if code == 0:
        assert err == "", argv
    else:
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv


ITEMS = st.builds(
    lambda color, value: value if color is None else f"z{color}*{value}",
    st.none() | st.integers(0, 9).map(str),
    st.integers(0, 9).map(str) | st.text("0123456789-x", max_size=2),
)
ELEMENT_TEXT = (
    st.lists(ITEMS, max_size=7).map(lambda xs: "[" + ",".join(xs) + "]")
    | st.text(max_size=20)
).filter(lambda text: not text.startswith("-"))
LABELS = st.integers(-1, 8) | st.booleans() | st.floats(0, 8) | st.none() | st.text(max_size=2)
JSON_VALUES = st.recursive(
    LABELS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=16,
)
TABLEAU_LIKE = st.lists(st.lists(st.lists(LABELS, max_size=3), max_size=3), max_size=3)
TABLEAU_JSON = st.one_of(
    TABLEAU_LIKE,
    st.lists(TABLEAU_LIKE, min_size=2, max_size=2),
    JSON_VALUES,
).map(json.dumps)
# nesting from none to well past the recursion limit
DEEP_JSON = st.builds(
    lambda depth, inner: "[" * depth + inner + "]" * depth,
    st.integers(0, 3 * sys.getrecursionlimit()),
    TABLEAU_JSON,
)
PARAMS = st.tuples(st.integers(0, 5), st.integers(0, 3)).map(
    lambda rp: ["--r", str(rp[0]), "--p", str(rp[1])]
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["rs", "sgn", "pi", "ascend", "stats"]), PARAMS, ELEMENT_TEXT)
def test_element_commands_keep_the_exit_code_contract(command, params, text):
    assert_cli_contract([command, *params, text])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["stats", "inverse-rs"]), st.none() | PARAMS, TABLEAU_JSON | DEEP_JSON)
def test_tableau_commands_keep_the_exit_code_contract(command, params, text):
    assume(not text.startswith("-"))
    assert_cli_contract([command, *(params or []), text])


# mostly valid parameters, so that many draws run a sweep under the cap
SMALL = st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 0, -1])
# orders of 4,566 and of 5,866,739 digits: too long to print in full
HUGE_N = st.sampled_from([1500, 10**6])
VERIFY_PARAMS = st.tuples(
    st.sampled_from(["theorem", "membership", "admissible"]),
    SMALL,
    SMALL,
    SMALL | HUGE_N,
    st.integers(-5, 1000),
).map(lambda a: ["verify", a[0], f"--r={a[1]}", f"--p={a[2]}", f"--n={a[3]}", f"--cap={a[4]}"])


@settings(max_examples=200, deadline=None)
@given(VERIFY_PARAMS, st.sampled_from([[], ["--format", "json"]]))
def test_verify_keeps_the_exit_code_contract(argv, fmt):
    # exit 1 would mean counterexamples, which correct code never finds
    assert_cli_contract(argv + fmt)


def test_element_round_trip_through_str():
    w = parse_element(RUNNING, 4)
    assert parse_element(str(w), 4) == w


def test_parser_built_once():
    assert build_parser() is build_parser()


def _fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "grpn.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import_generates_no_code():
    """``import grpn, grpn.cli`` in a fresh interpreter without ``site``
    newly loads none of ``dataclasses``, ``inspect`` and ``typing``: the
    value classes write their own methods, so no class is generated at
    import, and the type names come from ``collections.abc``."""
    script = "import sys; before = set(sys.modules); import grpn, grpn.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}
    )
    loaded = set(proc.stdout.split())
    assert proc.returncode == 0 and "grpn.cli" in loaded, proc.stderr
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing"}), sorted(loaded)


def test_repeated_main_calls_match_fresh_processes(capsys):
    # one shared parser must not carry anything from one call to the next
    calls = [
        ["pi", "--r", "8", "--format", "json", "[z3*5,1,z7*3,6,z2*7,z1*4,2,8]"],
        ["rs", "--r", "2", "[2,2]"],
        ["pi"],
        ["sgn", "--r", "3", "[z2*2,1,3]"],
        ["stats", "--r", "4", "--format", "json", RUNNING],
        ["pi", "--r", "4", RUNNING],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit directly
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == _fresh_process(argv), argv
