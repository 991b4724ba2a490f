"""The benchmark's workloads: seeded inputs, the requests made from them,
and the check each request's output must pass.

A request's ``run`` is what gets timed; its ``check`` runs after the
request's unit, so checking costs nothing in the metrics.  Requests look grpn's
functions up on the module at call time, so the traced run's wrappers
apply to them.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

# Sweeps are exhaustive, so the seed only orders them within each round.
# Each list holds a p = 1 group, a p > 1 group and an r >= 3 group.
THEOREM_GROUPS = ((2, 1, 5), (4, 2, 4), (3, 3, 4))
STRUCTURAL_SWEEPS = (
    ("membership", (2, 2, 5)),
    ("admissible", (2, 1, 4)),
    ("admissible", (3, 1, 3)),
)
SMALL_THEOREM_GROUPS = ((2, 1, 3), (4, 2, 2), (3, 3, 2))
SMALL_STRUCTURAL_SWEEPS = (("membership", (2, 2, 3)), ("admissible", (3, 1, 2)))

# Query mix: one block of requests.  Ascend stays at 1 in 197, so the slowest
# 1% is half ascend calls and half the dense tail of r = 8 pi requests, and
# p99 lands in the dense part.
MIX = (("rs", 64), ("pi", 64), ("stats", 64), ("ascend", 1), ("cli", 4))
SMALL_MIX = (("rs", 2), ("pi", 2), ("stats", 2), ("ascend", 1), ("cli", 4))
# Ranks are drawn per stratum so every run sees nearly the same rank mix.
RANK_STRATA = ((8, 16), (16, 24), (24, 32), (32, 40), (40, 48), (48, 56), (56, 65))
SMALL_RANK_STRATA = ((8, 10), (10, 13))
COLOR_COUNTS = (2, 4, 8)
CLI_COMMANDS = ("rs", "stats", "pi", "sgn")

NAMES = ("sweep-theorem", "sweep-structural", "query-mix")


@dataclass
class Request:
    kind: str  # "<workload part>.<operation>", names the request's root span
    elements: int  # group elements the request covers
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    key: Any = None  # same key, same work: set on requests that repeat


def perm_inversions(perm) -> int:
    """Inversion count of a one-line permutation; the checks' own reference."""
    return sum(1 for i, a in enumerate(perm) for b in perm[i + 1 :] if a > b)


# -- sweeps -------------------------------------------------------------------


def sweep_request(grpn, kind: str, r: int, p: int, n: int) -> Request:
    params = grpn.group.GroupParams(r, p, n)
    expected = params.order if kind == "theorem" else grpn.group.GroupParams(r, 1, n).order
    verifier = "verify_" + kind

    def run():
        return getattr(grpn.signs, verifier)(params)

    def check(report) -> bool:
        return report.passed and report.elements_checked == expected

    return Request(f"sweep.{kind}", expected, run, check, key=(kind, r, p, n))


class Sweeps:
    """Rounds of exhaustive sweeps; every round runs each sweep once."""

    def __init__(self, seed: int, sweeps):
        self.rng = random.Random(seed)
        self.sweeps = list(sweeps)

    def unit(self) -> list:
        order = self.sweeps[:]
        self.rng.shuffle(order)
        return order

    def warm_up(self) -> list:
        kinds = sorted({kind for kind, _ in self.sweeps})
        return [(kind, (2, 2 if kind == "membership" else 1, 2)) for kind in kinds]

    @staticmethod
    def requests(grpn, unit) -> list[Request]:
        return [sweep_request(grpn, kind, *rpn) for kind, rpn in unit]


# -- query mix ----------------------------------------------------------------


class Deck:
    """Draws items in seeded shuffled passes over the whole list."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = self.items[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def element_text(perm, colors) -> str:
    return "[" + ",".join(f"z{a}*{s}" if a else str(s) for s, a in zip(perm, colors)) + "]"


def query_request(grpn, kind: str, perm, colors, r: int, command: str | None) -> Request:
    n = len(perm)
    text = element_text(perm, colors)
    w = grpn.group.GroupElement(grpn.group.GroupParams(r, 1, n), tuple(perm), tuple(colors))
    spin = sum(colors)
    parity = perm_inversions(perm) % 2

    if kind == "rs":

        def run():
            v = grpn.group.parse_element(text, r)
            back = grpn.rs.rs_inverse(grpn.rs.rs_map(v), v.params)
            return v, back

        def check(out) -> bool:
            v, back = out
            return v == w and back == w

    elif kind == "pi":

        def run():
            return [(grpn.signs.pi(w, i), w.one_dim(i, 1)) for i in range(r)]

        def check(out) -> bool:
            return len(out) == r and all(a == b for a, b in out)

    elif kind == "stats":

        def run():
            pair = grpn.rs.rs_map(w)
            P, Q = pair.P, pair.Q
            return (
                P.inversions(),
                Q.inversions(),
                P.even_row_boxes(),
                Q.even_row_boxes(),
                P.twice_spin(),
                Q.twice_spin(),
            )

        def check(out) -> bool:
            inv_p, inv_q, e_p, e_q, ts_p, ts_q = out
            return ts_p == ts_q == spin and (e_p + inv_p + inv_q) % 2 == parity and 0 <= e_q <= n

    elif kind == "ascend":

        def run():
            return grpn.rs.ascending_representative(w)

        def check(rep) -> bool:
            return grpn.rs.is_ascending_element(rep) and sorted(rep.colors) == sorted(colors)

    elif kind == "cli":
        argv = [command, "--r", str(r), text, "--format", "json"]

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = grpn.cli.main(argv)
            return code, buf.getvalue()

        def check(out) -> bool:
            code, text_out = out
            return code == 0 and _check_cli(grpn, command, w, json.loads(text_out))

    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return Request(f"query.{kind}", 1, run, check)


def _check_cli(grpn, command: str, w, data: dict) -> bool:
    r, n = w.params.r, w.params.n
    if data.get("element") != str(w):
        return False
    if command == "rs":
        P = grpn.tableaux.Multitableau.from_json(data["P"])
        Q = grpn.tableaux.Multitableau.from_json(data["Q"])
        return grpn.rs.rs_inverse(grpn.rs.RSPair(P, Q), w.params) == w
    if command == "stats":
        P, Q = data["P"], data["Q"]
        return (
            P["twice_spin"] == Q["twice_spin"] == sum(w.colors)
            and (P["e"] + P["inv"] + Q["inv"]) % 2 == perm_inversions(w.perm) % 2
            and 0 <= Q["e"] <= n
        )
    if command == "pi":
        return data["values"] == {str(i): str(w.one_dim(i, 1)) for i in range(r)}
    if command == "sgn":
        return all(data["values"][f"tau_{i}^1"] == str(grpn.signs.pi(w, i)) for i in range(r))
    return False


class QueryMix:
    """Blocks of requests from one closed-loop client; each block holds the
    whole mix in seeded order, on seeded random elements."""

    def __init__(self, seed: int, mix, strata):
        self.rng = random.Random(seed)
        self.mix = mix
        self.strata = strata
        combos = list(itertools.product(range(len(strata)), COLOR_COUNTS))
        self.decks = {kind: Deck(self.rng, combos) for kind, _ in mix}
        self.commands = itertools.cycle(CLI_COMMANDS)

    def _query(self, rng: random.Random, kind: str, stratum: int, r: int, command=None) -> tuple:
        lo, hi = self.strata[stratum]
        n = rng.randrange(lo, hi)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        colors = [rng.randrange(r) for _ in range(n)]
        return kind, perm, colors, r, command

    def unit(self) -> list:
        kinds = [kind for kind, count in self.mix for _ in range(count)]
        self.rng.shuffle(kinds)
        return [
            self._query(
                self.rng, kind, *self.decks[kind].draw(), next(self.commands) if kind == "cli" else None
            )
            for kind in kinds
        ]

    def warm_up(self) -> list:
        """One query of each kind, color count and cli command at the lowest ranks."""
        rng = random.Random(0)
        return [
            self._query(rng, kind, 0, r, command)
            for kind, _ in self.mix
            for r in COLOR_COUNTS
            for command in (CLI_COMMANDS if kind == "cli" else (None,))
        ]

    @staticmethod
    def requests(grpn, unit) -> list[Request]:
        return [query_request(grpn, *query) for query in unit]


def build(name: str, seed: int, small: bool = False):
    """The workload ``name``; ``small`` shrinks every input so the
    benchmark's tests finish in seconds.

    A workload hands out units of raw inputs (``unit()``, ``warm_up()``)
    and turns them into requests on given grpn modules (``requests()``):
    every set-up imports grpn afresh, and the traced run replays its
    inputs untraced, then traced.
    """
    if name == "sweep-theorem":
        groups = SMALL_THEOREM_GROUPS if small else THEOREM_GROUPS
        return Sweeps(seed, [("theorem", g) for g in groups])
    if name == "sweep-structural":
        return Sweeps(seed, SMALL_STRUCTURAL_SWEEPS if small else STRUCTURAL_SWEEPS)
    if name == "query-mix":
        return QueryMix(seed, SMALL_MIX if small else MIX, SMALL_RANK_STRATA if small else RANK_STRATA)
    raise ValueError(f"unknown workload {name!r}; have {', '.join(NAMES)}")


def kernel_elements(grpn, small: bool = False) -> list[tuple[tuple, tuple, int]]:
    """(perm, colors, r) of every element of the sweep-theorem groups."""
    out = []
    for r, p, n in SMALL_THEOREM_GROUPS if small else THEOREM_GROUPS:
        for w in grpn.group.enumerate_group(grpn.group.GroupParams(r, p, n)):
            out.append((w.perm, w.colors, r))
    return out
