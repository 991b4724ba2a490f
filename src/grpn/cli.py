"""Command-line surface.

Elements use the one-line grammar ``[z1*5,1,z2*3,6]`` (a bare value means
color 0); multitableaux use the nested JSON list layout, e.g.
``[[[1,3],[2]],[[4],[5]],[]]``.  Pass ``-`` to read the input from stdin.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import GrpnError, InvalidP, InvalidParams, ParseError, ShapeMismatch
from .group import DEFAULT_CAP, GroupParams, parse_element
from .rs import RSPair, ascending_moves, apply_moves, rs_inverse, rs_map
from .signs import pi, verify_admissible, verify_membership, verify_theorem
from .tableaux import Multitableau

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _read(text: str) -> str:
    return sys.stdin.read().strip() if text == "-" else text


def _emit(args, text_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


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
    _emit(
        args,
        [f"w = {w}", f"P = {pair.P}", f"Q = {pair.Q}"],
        {"element": str(w), "P": pair.P.to_json(), "Q": pair.Q.to_json()},
    )
    return 0


def cmd_inverse_rs(args):
    text = _read(args.pair)
    data = _load_json(text)
    if not (isinstance(data, list) and len(data) == 2):
        raise ParseError(f"pair must be a JSON list [P, Q] of two multitableaux: {text!r}")
    P = Multitableau.from_json(data[0])
    Q = Multitableau.from_json(data[1])
    r = args.r if args.r is not None else P.r
    params = GroupParams(r, args.p, P.size)
    w = rs_inverse(RSPair(P, Q), params)
    _emit(args, [str(w)], {"element": str(w), **w.to_json()})
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
        is_tableau = isinstance(data, list) and all(
            isinstance(comp, list) and all(isinstance(row, list) for row in comp)
            for comp in data
        )
    except json.JSONDecodeError:
        is_tableau = False
    if is_tableau:
        T = Multitableau.from_json(data)
        if args.r is not None and args.r != T.r:
            raise ShapeMismatch(f"multitableau has {T.r} components, expected r={args.r}")
        # the component count is r: check it and --p as GroupParams does
        if T.r < 1 or args.p < 1:
            raise InvalidParams(f"parameters must be positive: r={T.r}, p={args.p}")
        if T.r % args.p:
            raise InvalidP(f"p={args.p} does not divide r={T.r}")
        # and its box count is n, which must be positive too
        if not T.size:
            raise InvalidParams("parameters must be positive: multitableau has no boxes, n=0")
        stats = _tableau_stats(T)
        _emit(
            args,
            [f"T = {T}"] + [f"{k} = {v}" for k, v in stats.items()],
            {"tableau": T.to_json(), **stats},
        )
        return 0
    if args.r is None:
        raise GrpnError("--r is required for element input")
    w = parse_element(raw, args.r, args.p)
    pair = rs_map(w)
    stats = {"P": _tableau_stats(pair.P), "Q": _tableau_stats(pair.Q)}
    lines = [f"w = {w}", f"P = {pair.P}", f"Q = {pair.Q}"]
    for name in ("P", "Q"):
        lines += [f"{name}.{k} = {v}" for k, v in stats[name].items()]
    _emit(args, lines, {"element": str(w), **stats})
    return 0


def cmd_sgn(args):
    w = _element(args)
    values = {eps: [str(w.one_dim(i, eps)) for i in range(args.r)] for eps in (0, 1)}
    _emit(
        args,
        [f"w = {w}"]
        + [f"sigma_{i}(w) = {v}" for i, v in enumerate(values[0])]
        + [f"sgn_{i}(w) = {v}" for i, v in enumerate(values[1])],
        {
            "element": str(w),
            "values": {
                f"tau_{i}^{eps}": v for eps in (0, 1) for i, v in enumerate(values[eps])
            },
        },
    )
    return 0


def cmd_pi(args):
    w = _element(args)
    values = [str(pi(w, i)) for i in range(args.r)]
    _emit(
        args,
        [f"w = {w}"] + [f"pi_{i}(w) = {v}" for i, v in enumerate(values)],
        {"element": str(w), "values": {str(i): v for i, v in enumerate(values)}},
    )
    return 0


def cmd_ascend(args):
    w = _element(args)
    moves = ascending_moves(w)
    rep = apply_moves(w, moves)
    move_text = " ".join(f"{side}{i}" for side, i in moves) or "(none)"
    _emit(
        args,
        [f"w = {w}", f"ascending = {rep}", f"moves = {move_text}"],
        {"element": str(w), "ascending": str(rep), "moves": [[s, i] for s, i in moves]},
    )
    return 0


VERIFIERS = {
    "theorem": verify_theorem,
    "membership": verify_membership,
    "admissible": verify_admissible,
}


def cmd_verify(args):
    params = GroupParams(args.r, args.p, args.n)
    cap = args.cap if not args.force else 10**12
    report = VERIFIERS[args.which](params, cap=cap)
    _emit(args, [report.summary()], report.to_json())
    return 0 if report.passed else VERIFY_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` never
    changes it and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(prog="grpn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_r=True, element_arg=True):
        p.add_argument("--r", type=int, required=need_r, default=None, help="color modulus r")
        p.add_argument("--p", type=int, default=1, help="subgroup parameter, divides r")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("rs", help="Robinson-Schensted image of an element")
    common(p)
    p.add_argument("element")
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("inverse-rs", help="element from a JSON pair [P, Q]")
    common(p, need_r=False)
    p.add_argument("pair")
    p.set_defaults(func=cmd_inverse_rs)

    p = sub.add_parser("stats", help="statistics of an element or multitableau")
    common(p, need_r=False)
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sgn", help="all 2r one-dimensional values, group side")
    common(p)
    p.add_argument("element")
    p.set_defaults(func=cmd_sgn)

    p = sub.add_parser("pi", help="tableaux-side sign values for all i")
    common(p)
    p.add_argument("element")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("ascend", help="ascending representative and move sequence")
    common(p)
    p.add_argument("element")
    p.set_defaults(func=cmd_ascend)

    p = sub.add_parser("verify", help="exhaustive verification sweep")
    p.add_argument("which", choices=sorted(VERIFIERS))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--force", action="store_true", help="ignore the enumeration cap")
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


if __name__ == "__main__":
    sys.exit(main())
