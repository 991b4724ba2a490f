"""Command-line surface.

Elements use the one-line grammar ``[z1*5,1,z2*3,6]`` (a bare value means
color 0); multitableaux use the nested JSON list layout, e.g.
``[[[1,3],[2]],[[4],[5]],[]]``.  Pass ``-`` to read the input from stdin.

Exit codes: 0 on success, 1 when a sweep finds counterexamples, 2 with
one ``error: ...`` line on bad input, and 3 with the traceback on any
other exception, a fault of the program, such as an error a sweep raises
after its arguments passed every check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from .errors import GrpnError, ParseError, ShapeMismatch
from .group import DEFAULT_CAP, GroupParams, parse_element
from .rs import RSPair, _ascend_element, rs_inverse, rs_map
from .signs import pi, verify_admissible, verify_membership, verify_theorem
from .tableaux import Multitableau, is_component_list

USAGE_ERROR = 2
VERIFY_FAILURE = 1
INTERNAL_ERROR = 3


def _read(text: str) -> str:
    return sys.stdin.read().strip() if text == "-" else text


def _emit(args, text_lines, payload, w=None):
    """Print the lines ``text_lines()`` builds, or for ``--format json`` the
    dict ``payload()`` builds, as JSON; only the chosen callable runs.  A
    command on one element w leads with it, turned into text in that
    branch: the ``w = ...`` line or the ``"element"`` key."""
    if args.format == "json":
        head = {} if w is None else {"element": str(w)}
        print(json.dumps({**head, **payload()}, indent=2))
    else:
        head = [] if w is None else [f"w = {w}"]
        print(*head, *text_lines(), sep="\n")


def _load_json(text: str):
    """``json.loads``, with a number above Python's integer-string limit or
    nesting deeper than its recursion limit raised as ``ParseError``;
    malformed JSON still raises ``json.JSONDecodeError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number too long: above the limit of {limit} digits") from None


def _element(args):
    return parse_element(_read(args.element), args.r, args.p)


def cmd_rs(args):
    w = _element(args)
    pair = rs_map(w)
    _emit(args, lambda: [f"P = {pair.P}", f"Q = {pair.Q}"], lambda: {"P": pair.P.to_json(), "Q": pair.Q.to_json()}, w)
    return 0


def cmd_inverse_rs(args):
    text = _read(args.pair)
    data = _load_json(text)
    if not (isinstance(data, list) and len(data) == 2):
        raise ParseError(f"pair must be a JSON list [P, Q] of two multitableaux: {text!r}")
    P, Q = map(Multitableau.from_json, data)
    w = rs_inverse(RSPair(P, Q), GroupParams(P.r if args.r is None else args.r, args.p, P.size))
    _emit(args, lambda: [str(w)], lambda: {"element": str(w), **w.to_json()})
    return 0


def _tableau_stats(T: Multitableau) -> dict:
    inv = T.inversions()
    return {
        "inv": inv,
        "sign": (-1) ** inv,
        "e": T.even_row_boxes(),
        "twice_spin": T.twice_spin(),
        "ascending": T.is_ascending(),
    }


def cmd_stats(args):
    raw = _read(args.input)
    try:
        data = _load_json(raw)
    except json.JSONDecodeError:
        data = None
    if is_component_list(data):
        T = Multitableau.from_json(data)
        if args.r is not None and args.r != T.r:
            raise ShapeMismatch(f"multitableau has {T.r} components, expected r={args.r}")
        # checked as every other input: the component count is r, the box count n
        GroupParams(T.r, args.p, T.size)
        stats = _tableau_stats(T)
        _emit(
            args,
            lambda: [f"T = {T}"] + [f"{k} = {v}" for k, v in stats.items()],
            lambda: {"tableau": T.to_json(), **stats},
        )
        return 0
    if args.r is None:
        raise GrpnError("--r is required for element input")
    w = parse_element(raw, args.r, args.p)
    pair = rs_map(w)
    stats = {"P": _tableau_stats(pair.P), "Q": _tableau_stats(pair.Q)}

    def text_lines():
        parts = [f"{name}.{k} = {v}" for name, part in stats.items() for k, v in part.items()]
        return [f"P = {pair.P}", f"Q = {pair.Q}", *parts]

    _emit(args, text_lines, lambda: stats, w)
    return 0


def cmd_sgn(args):
    w = _element(args)
    values = {eps: [str(w.one_dim(i, eps)) for i in range(args.r)] for eps in (0, 1)}
    _emit(
        args,
        lambda: [f"sigma_{i}(w) = {v}" for i, v in enumerate(values[0])]
        + [f"sgn_{i}(w) = {v}" for i, v in enumerate(values[1])],
        lambda: {"values": {f"tau_{i}^{eps}": v for eps in (0, 1) for i, v in enumerate(values[eps])}},
        w,
    )
    return 0


def cmd_pi(args):
    w = _element(args)
    values = [str(pi(w, i)) for i in range(args.r)]
    _emit(
        args,
        lambda: [f"pi_{i}(w) = {v}" for i, v in enumerate(values)],
        lambda: {"values": {str(i): v for i, v in enumerate(values)}},
        w,
    )
    return 0


def cmd_ascend(args):
    w = _element(args)
    moves, rep = _ascend_element(w)
    _emit(
        args,
        lambda: [f"ascending = {rep}", "moves = " + (" ".join(f"{s}{i}" for s, i in moves) or "(none)")],
        lambda: {"ascending": str(rep), "moves": moves},  # each (s, i) dumped as [s, i]
        w,
    )
    return 0


VERIFIERS = {
    "theorem": verify_theorem,
    "membership": verify_membership,
    "admissible": verify_admissible,
}


def cmd_verify(args):
    report = VERIFIERS[args.which](GroupParams(args.r, args.p, args.n), cap=args.cap)
    _emit(args, lambda: [report.summary()], report.to_json)
    return 0 if report.passed else VERIFY_FAILURE


# name, handler, positional input, whether --r is required, help
COMMANDS = (
    ("rs", cmd_rs, "element", True, "Robinson-Schensted image of an element"),
    ("inverse-rs", cmd_inverse_rs, "pair", False, "element from a JSON pair [P, Q]"),
    ("stats", cmd_stats, "input", False, "statistics of an element or multitableau"),
    ("sgn", cmd_sgn, "element", True, "values of the 2r characters tau_i^eps, group side"),
    ("pi", cmd_pi, "element", True, "tableaux-side sign values for all i"),
    ("ascend", cmd_ascend, "element", True, "ascending representative and move sequence"),
)


def _shared_options(p, need_r=True, with_n=False):
    p.add_argument("--r", type=int, required=need_r, help="color modulus r")
    p.add_argument("--p", type=int, default=1, help="subgroup parameter, divides r")
    if with_n:  # here, so that usage lists the group's parameters together
        p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` never
    changes it and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(prog="grpn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, positional, need_r, help_text in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _shared_options(p, need_r)
        p.add_argument(positional)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="exhaustive verification sweep")
    p.add_argument("which", choices=sorted(VERIFIERS))
    _shared_options(p, with_n=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GrpnError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
