import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grpn
from grpn.cli import build_parser, main
from grpn.group import parse_element

RUNNING = "[z1*5,1,z2*3,6,z2*7,z1*4,2,8]"
SRC = os.path.dirname(os.path.dirname(grpn.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rs_text(capsys):
    code, out, _ = run(capsys, "rs", "--r", "4", RUNNING)
    assert code == 0
    assert "P = (1,2,8/6 | 4/5 | 3,7 | -)" in out
    assert "Q = (2,4,8/7 | 1/6 | 3,5 | -)" in out


def test_rs_json_matches_text(capsys):
    code, out, _ = run(capsys, "rs", "--r", "4", "--format", "json", RUNNING)
    data = json.loads(out)
    assert code == 0
    assert data["P"] == [[[1, 2, 8], [6]], [[4], [5]], [[3, 7]], []]
    assert data["Q"] == [[[2, 4, 8], [7]], [[1], [6]], [[3, 5]], []]


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
        (["--p", "0", "[[[1]],[[2]]]"], "parameters must be positive: r=2, p=0"),
        (["--p", "-2", "[[[1]],[[2]]]"], "parameters must be positive: r=2, p=-2"),
        (["--r", "2", "--p", "3", "[[[1]],[[2]]]"], "p=3 does not divide r=2"),
        (["--p", "3", "[[[1]],[[2]]]"], "p=3 does not divide r=2"),
        (["[]"], "parameters must be positive: r=0, p=1"),
    ):
        code, out, err = run(capsys, "stats", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    code, out, _ = run(capsys, "stats", "--p", "2", "[[[1]],[[2]]]")
    assert code == 0 and "twice_spin = 1" in out


def test_stats_tableau_refuses_a_multitableau_without_boxes(capsys):
    """n = 0 is refused for a multitableau as for every other input."""
    for argv in (["[[],[]]"], ["[[]]"], ["--r", "3", "[[],[],[]]"]):
        code, out, err = run(capsys, "stats", *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: parameters must be positive: multitableau has no boxes, n=0\n", argv


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


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--r", "2", "--p", "1", "--n", "4")
    assert code == 0
    assert "PASS" in out and "384 elements" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "membership", "--r", "2", "--p", "2", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["failures"] == []


@pytest.mark.parametrize("r,p,n,order", [(3, 1, 3, 162), (4, 2, 3, 192)])
def test_verify_admissible_json_checks_the_group_order(capsys, r, p, n, order):
    code, out, _ = run(
        capsys, "verify", "admissible", f"--r={r}", f"--p={p}", f"--n={n}", "--format", "json"
    )
    data = json.loads(out)
    assert code == 0 and data["failures"] == []
    assert data["checked"] == order


def test_verify_cap_exit_usage(capsys):
    code, _, err = run(capsys, "verify", "theorem", "--r", "6", "--n", "8", "--cap", "100")
    assert code == 2
    assert "error" in err


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "rs", "--r", "2", "[2,2]")
    assert code == 2 and "error" in err


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


@pytest.fixture
def int_digit_limit():
    """Python's default integer-string limit, whatever the interpreter or
    ``PYTHONINTMAXSTRDIGITS`` set; interpreters without one are skipped."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer-string limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


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
