"""Colored permutations: the groups G(r,p,n) with exact root-of-unity arithmetic.

Elements are monomial matrices written in one-line notation
``[z^{a_1} s_1, ..., z^{a_n} s_n]``: the nonzero entry of column i is the
root of unity z^{a_i} and sits in row s_i.  No complex number is ever
evaluated; all character values live in the finite set {+-z^k} and are
stored as (sign, exponent mod r).
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from math import factorial, lgamma, log, log10

from .errors import (
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

DEFAULT_CAP = 10**7

# The largest color modulus r.  Every Robinson-Schensted image has r
# components in P and in Q, and the commands print r values, so one element
# costs O(r) memory and time whatever its rank: on a 2-core x86-64 machine,
# ``grpn rs`` on ``[1]`` takes about 50 MB and under a second at r = 10**5,
# and about 375 MB and 10 s at 10**6.
MAX_R = 10**5


class _Value:
    """A value object named by its ``_fields``, which ``__init__`` sets
    once through ``__dict__``.  Two objects of one class are equal, and
    hash alike, when their fields' values are; an object of another class,
    or a plain tuple, is never equal.  The repr is ``Name(field=value,
    ...)``, and assigning or deleting an attribute raises
    ``AttributeError``.  A ``functools.cached_property`` writes
    ``__dict__`` directly, so it still caches, outside the fields."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{name}={d[name]!r}' for name in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroupParams(_Value):
    """Parameters (r, p, n): integers, not bools, with p dividing r and r
    at most ``MAX_R``."""

    _fields = ("r", "p", "n")

    def __init__(self, r: int, p: int = 1, n: int = 1):
        self.__dict__.update(r=r, p=p, n=n)
        if not (type(r) is type(p) is type(n) is int):
            raise InvalidParams(f"parameters must be integers: {self}")
        if r < 1 or n < 1 or p < 1:
            raise InvalidParams(f"parameters must be positive: {self}")
        if r > MAX_R:
            raise InvalidParams(f"r={r} is above the limit of {MAX_R}")
        if r % p != 0:
            raise InvalidP(f"p={p} does not divide r={r}")

    @property
    def order(self) -> int:
        """Number of elements of G(r,p,n)."""
        return self.r**self.n * factorial(self.n) // self.p


class OneDimValue(_Value):
    """A value +-z^k of a one-dimensional representation, z a primitive
    r-th root of unity.

    Equality compares the value as one integer (``code``): when r is even,
    (-1, k) and (+1, k + r/2) denote the same complex number and share a
    code.  The stored form is whatever was computed; only comparisons
    collapse it.
    """

    _fields = ("sign", "exponent", "modulus")

    def __init__(self, sign: int, exponent: int, modulus: int):
        self.__dict__.update(sign=sign, exponent=exponent, modulus=modulus)
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        if not 0 <= exponent < modulus:
            raise ValueError(f"exponent {exponent} out of range mod {modulus}")

    def canonical(self) -> tuple[int, int, int]:
        if self.sign == -1 and self.modulus % 2 == 0:
            return (1, (self.exponent + self.modulus // 2) % self.modulus, self.modulus)
        return (self.sign, self.exponent, self.modulus)

    @property
    def code(self) -> int:
        """The integer c in [0, 2r) with +-z^k = exp(pi i c / r), namely
        (2k + r * [sign = -1]) mod 2r, for r the modulus."""
        r = self.modulus
        return (2 * self.exponent + (r if self.sign < 0 else 0)) % (2 * r)

    def __eq__(self, other):
        """Same modulus and same ``code``.  The code is the exponent of one
        primitive 2r-th root of unity, so this is exact for odd and even r."""
        if not isinstance(other, OneDimValue):
            return NotImplemented
        return self.modulus == other.modulus and self.code == other.code

    def __hash__(self):
        return hash((self.code, self.modulus))

    def __mul__(self, other: "OneDimValue") -> "OneDimValue":
        if self.modulus != other.modulus:
            raise ParamsMismatch("cannot multiply values with different moduli")
        return OneDimValue(
            self.sign * other.sign,
            (self.exponent + other.exponent) % self.modulus,
            self.modulus,
        )

    def __str__(self):
        sign, exp, _ = self.canonical()
        s = "+" if sign == 1 else "-"
        return f"{s}1" if exp == 0 else f"{s}z^{exp}"

    def to_json(self) -> dict:
        sign, exp, _ = self.canonical()
        return {"sign": sign, "exponent": exp}


def inversions(keys: Sequence) -> int:
    """Number of pairs a < b with keys[a] > keys[b]; equal keys do not count.

    Works on any sequence of mutually comparable keys (a permutation in
    one-line notation, a tableau's reading word) with O(n log n)
    comparisons: each key's ``bisect_right`` position in a sorted list of
    the keys before it counts those at most it, and the inversions are the
    n(n-1)/2 pairs less the sum of those positions.  Summing the positions,
    rather than the larger keys per key, takes 0.83x the time at n = 4-5,
    the sweeps' ranks, and about 0.9x at n = 36-2000.  Each
    ``list.insert`` still moves O(n) entries, so the time grows as n^2: on
    a random permutation, n = 10^5 takes 1.4 s and n = 2 * 10^5 takes
    4.5 s (2-core x86-64 Xeon, Python 3.11).  Only the exact counts pay
    it: the tableau and multitableau inversion counts
    (``tableaux.rows_inversions``, and the sweeps' per-filling counts) and
    so ``grpn stats``, and the move count of ``grpn ascend``; the sweeps'
    inv(sigma) takes a bit mask (``_kernels``).  A sign needs only the
    parity, which ``parity`` gives in O(n).
    """
    seen: list = []
    below = 0  # pairs a < b with keys[a] <= keys[b]
    for x in keys:
        pos = bisect_right(seen, x)
        below += pos
        seen.insert(pos, x)
    n = len(seen)
    return n * (n - 1) // 2 - below


def parity(perm: Sequence[int]) -> int:
    """``inversions(perm) % 2`` for a permutation of 1..n, in O(n): a
    permutation with c cycles is a product of n - c transpositions, and
    each transposition changes the inversion count by an odd number.
    ``perm`` is not checked."""
    n = len(perm)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
    return (n - cycles) & 1


def _swap_sort(keys: list, carried: list) -> list[int]:
    """Stably sort ``keys`` in place by straight insertion, swapping
    adjacent entries only where they are strictly out of order, and swap
    ``carried`` alongside.  Returns the 1-based index i of each swap of
    entries i and i+1, in order: inv(keys) swaps, with at most n - 1 more
    key comparisons than swaps."""
    swaps = []
    for j in range(1, len(keys)):
        while j and keys[j - 1] > keys[j]:
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            carried[j - 1], carried[j] = carried[j], carried[j - 1]
            swaps.append(j)
            j -= 1
    return swaps


class GroupElement(_Value):
    """An element of G(r,1,n): a permutation together with color exponents."""

    _fields = ("params", "perm", "colors")

    def __init__(self, params: GroupParams, perm: Sequence[int], colors: Sequence[int]):
        perm, colors = tuple(perm), tuple(colors)
        self.__dict__.update(params=params, perm=perm, colors=colors)
        n, r = params.n, params.r
        if len(perm) != n or len(colors) != n:
            raise LengthMismatch(f"expected {n} entries, got perm of {len(perm)} and colors of {len(colors)}")
        if sorted(perm) != list(range(1, n + 1)):
            raise NotAPermutation(f"{perm} is not a permutation of 1..{n}")
        for a in colors:
            if not 0 <= a < r:
                raise ColorOutOfRange(f"color {a} not in [0, {r})")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Matrix product: (s,a)(t,b) has permutation s o t and colors
        c_i = a_{t_i} + b_i mod r."""
        if self.params != other.params:
            raise ParamsMismatch(f"{self.params} != {other.params}")
        r = self.params.r
        perm = tuple(self.perm[t - 1] for t in other.perm)
        colors = tuple(
            (self.colors[t - 1] + b) % r for t, b in zip(other.perm, other.colors)
        )
        return GroupElement(self.params, perm, colors)

    def inverse(self) -> "GroupElement":
        r, n = self.params.r, self.params.n
        perm = [0] * n
        colors = [0] * n
        for i in range(n):
            j = self.perm[i] - 1
            perm[j] = i + 1
            colors[j] = (-self.colors[i]) % r
        return GroupElement(self.params, tuple(perm), tuple(colors))

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = identity(self.params)
        for _ in range(k):
            out = out * self
        return out

    def is_identity(self) -> bool:
        return self.perm == tuple(range(1, self.params.n + 1)) and not any(self.colors)

    def color_sum(self) -> int:
        return sum(self.colors)

    def is_member(self, p: int) -> bool:
        """Membership in the index-p subgroup G(r,p,n): the (r/p)-th power of
        the product of the nonzero entries is 1, i.e. p divides the color sum.
        ``GroupParams`` checks p."""
        GroupParams(self.params.r, p, self.params.n)
        return self.color_sum() % p == 0

    def one_dim(self, i: int, epsilon: int) -> OneDimValue:
        """Value of the representation tau_i^epsilon: z^i on the color
        generator, (-1)^epsilon on each transposition."""
        r = self.params.r
        if not 0 <= i < r:
            raise IndexOutOfRange(f"i={i} not in [0, {r})")
        if epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
        sign = 1 if epsilon == 0 else self.perm_sign
        return OneDimValue(sign, (i * self.color_sum()) % r, r)

    @functools.cached_property
    def perm_sign(self) -> int:
        """(-1)^inv of the permutation, read off its cycle count
        (``parity``) in O(n), once per element object.  Kept in the
        instance ``__dict__``, outside the fields, so ``==``, ``hash`` and
        ``repr`` do not see it."""
        return -1 if parity(self.perm) else 1

    def word(self) -> list[int]:
        """A word in the generators s_0..s_{n-1} whose product is this element.

        Not length-minimal: the permutation part is sorted with adjacent
        transpositions (``_swap_sort``), then each color a_i is
        produced by the conjugate s_{i-1}...s_1 s_0 s_1...s_{i-1} applied
        a_i times.
        """
        n = self.params.n
        # sort one-line notation to identity by right multiplications
        word = _swap_sort(list(self.perm), [None] * n)[::-1]
        for i in range(1, n + 1):
            a = self.colors[i - 1]
            if a:
                wrap = list(range(i - 1, 0, -1))
                word += wrap + [0] * a + wrap[::-1]
        return word

    def __str__(self):
        items = []
        for s, a in zip(self.perm, self.colors):
            items.append(f"z{a}*{s}" if a else str(s))
        return "[" + ",".join(items) + "]"

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "colors": list(self.colors)}


def make_element(params: GroupParams, perm: Sequence[int], colors: Sequence[int]) -> GroupElement:
    return GroupElement(params, tuple(perm), tuple(colors))


def require_member(w: GroupElement) -> None:
    """Raise ``NotAMember`` unless w lies in G(r,p,n) for its params' p.

    ``GroupElement`` itself does not check this: s_0, which lies outside
    G(r,p,n) for p > 1, is built with those params by ``generator`` and
    ``subgroup_generators``.  Parsers and inverse maps that take their p
    from the user call this instead.
    """
    p = w.params.p
    if w.color_sum() % p:
        raise NotAMember(
            f"color sum {w.color_sum()} is not divisible by p={p}: "
            f"{w} is not in G({w.params.r},{p},{w.params.n})"
        )


def identity(params: GroupParams) -> GroupElement:
    return GroupElement(params, tuple(range(1, params.n + 1)), (0,) * params.n)


def generator(params: GroupParams, j: int) -> GroupElement:
    """The generator s_j: s_0 colors the first entry, s_i swaps i and i+1."""
    n = params.n
    if not 0 <= j <= n - 1:
        raise IndexOutOfRange(f"generator index {j} not in [0, {n - 1}]")
    if j == 0:
        return GroupElement(params, tuple(range(1, n + 1)), (1 % params.r,) + (0,) * (n - 1))
    perm = list(range(1, n + 1))
    perm[j - 1], perm[j] = perm[j], perm[j - 1]
    return GroupElement(params, tuple(perm), (0,) * n)


def subgroup_generators(params: GroupParams) -> list[GroupElement]:
    """Generating set {s_0^p, s_0^{-1} s_1 s_0, s_i | 1 <= i <= n-1} of
    G(r,p,n).  The conjugate (not s_0 s_1 s_0, which has color sum 2 and
    falls outside the subgroup when p does not divide 2) keeps every
    generator inside G(r,p,n); the two coincide for r = 2."""
    s0 = generator(params, 0)
    gens = [s0**params.p]
    if params.n >= 2:
        s1 = generator(params, 1)
        gens.append(s0.inverse() * s1 * s0)
        gens += [generator(params, i) for i in range(1, params.n)]
    return gens


def evaluate_word(params: GroupParams, word: Sequence[int]) -> GroupElement:
    out = identity(params)
    for j in word:
        out = out * generator(params, j)
    return out


# orders of at most this many digits are spelled out in full, as Python's
# default integer-string limit allows
EXACT_ORDER_DIGITS = 4300


def require_within_cap(params: GroupParams, cap: int) -> None:
    """Raise ``CapExceeded`` if G(r,p,n) has more than cap elements.

    The order's size is read off its logarithm first, so a group of more
    than ``EXACT_ORDER_DIGITS`` digits is refused as "more than 10^d
    elements" without computing r^n * n! / p; a smaller one is named with
    its exact order."""
    r, p, n = params.r, params.p, params.n
    log10_order = n * log10(r) + lgamma(n + 1) / log(10) - log10(p)
    if log10_order > EXACT_ORDER_DIGITS and log10_order > cap.bit_length() * log10(2) + 1:
        raise CapExceeded(f"G({r},{p},{n}) has more than 10^{int(log10_order)} elements, above cap {cap}")
    total = params.order
    if total > cap:
        raise CapExceeded(f"G({r},{p},{n}) has {total} elements, above cap {cap}")


def enumerate_group(params: GroupParams, cap: int = DEFAULT_CAP) -> Iterator[GroupElement]:
    """Yield every element of G(r,p,n) exactly once, in lexicographic
    order: permutations lexicographically and, within each, colors
    lexicographically (the last color changes fastest).  For p > 1 the last
    color runs through the residue class mod p that makes the color sum
    divisible by p, so no candidate is discarded.  Raises ``CapExceeded``
    before the first element if G(r,p,n) is above ``cap``.
    """
    require_within_cap(params, cap)
    r, p, n = params.r, params.p, params.n
    for perm in itertools.permutations(range(1, n + 1)):
        if p == 1:
            colorings = itertools.product(range(r), repeat=n)
        else:
            colorings = (
                head + (last,)
                for head in itertools.product(range(r), repeat=n - 1)
                for last in range(-sum(head) % p, r, p)
            )
        for colors in colorings:
            yield GroupElement(params, perm, colors)


# one item: whitespace may stand around a number, never inside one
_ITEM = r"\s*(?:z\s*(\d+)\s*\*\s*)?(\d+)\s*"
_SPACED_ITEM_RE = re.compile(_ITEM)
# one item and its comma, without the groups, which are not read.  A body
# with a comma appended is well formed exactly when deleting every match
# leaves nothing.  One fullmatch of a repeated item pattern over the whole
# body would keep backtracking state for every item, about 800 bytes each.
_ITEM_COMMA_RE = re.compile(_ITEM.replace(r"(\d+)", r"\d+") + ",")


def _numbers(body: str) -> list[int]:
    """The one reader of a body: every number, as color, value, color,
    value, ..., with color 0 written in before a bare value.  One regex
    pass checks the items and one conversion reads the numbers.  A body
    that fails either is scanned item by item, and ``ParseError`` names
    the first item that is not an item or holds a number above Python's
    integer-string limit; if there is none, the two passes disagree, a
    fault of the program (``RuntimeError``)."""
    if not _ITEM_COMMA_RE.sub("", body + ","):
        # the items allow whitespace only around numbers, so it can all go
        text = ("," + "".join(body.split())).replace(",", ",0*").replace("0*z", "")
        try:
            return list(map(int, text[1:].replace(",", "*").split("*")))
        except ValueError:  # only a number above Python's integer-string limit
            pass
    for item in body.split(","):
        m = _SPACED_ITEM_RE.fullmatch(item)
        if not m:
            raise ParseError(f"bad item {item.strip()!r}")
        numbers = m.groups("0")  # a bare value's color is read as 0
        try:
            list(map(int, numbers))
        except ValueError:  # only a number above Python's integer-string limit
            digits, limit = max(map(len, numbers)), sys.get_int_max_str_digits()
            raise ParseError(f"number too long: {digits} digits, above the limit of {limit}") from None
    raise RuntimeError("the item scan found no fault in a body the one-pass parse refused")


def parse_element(text: str, r: int, p: int = 1) -> GroupElement:
    """Parse one-line notation like ``[z1*5,1,z2*3,6]``; rank is inferred.
    Whitespace may stand around brackets, commas, ``z`` and ``*``, but not
    between two digits.  Raises ``NotAMember`` if the element lies outside
    G(r,p,n).

    The body is read by ``_numbers`` alone, which names the first bad
    item or over-long number of a body it refuses."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"element must be bracketed: {''.join(text.split())!r}")
    body = text[1:-1]
    if not body or body.isspace():
        raise ParseError("empty element")
    # checked first: the colors below are reduced mod r
    params = GroupParams(r, p, body.count(",") + 1)
    numbers = _numbers(body)
    perm, colors = numbers[1::2], [c % r for c in numbers[0::2]]
    w = GroupElement(params, tuple(perm), tuple(colors))
    if p != 1:
        require_member(w)
    return w
