"""Sequence quantities with exact rational values.

A quantity is a sequence of rationals indexed from n = 1, stored either as

* a closed form: a canonical exponential polynomial (a finite sum of terms
  ``c * n**k * b**n`` with rational c, b and integer k) plus a finite set of
  index overrides (the "prefix patch"), or
* a lazy sequence: a node of a graph (a DAG) of pointwise operations whose
  leaves are closed forms and evaluators, pure functions from index to
  rational.  Each node is itself a lazy ``Quantity``.

Closed forms are the decidable fragment: addition and multiplication stay
inside it, and the ordering layer can compare them exactly.  Arithmetic that
mixes a closed form with a lazy sequence lowers the result to lazy: ``add``,
``mul``, ``neg`` and ``delay`` build lazy ``Quantity`` nodes tagged "+",
"*", "neg" and "delay" over "leaf" nodes (closed forms, ``as_lazy``); an
"apply" node holds a function, with no operand for an evaluator
(``Quantity.lazy``) and one for ``calculus.extend``.  Nodes hold no
evaluation state.  ``reader`` compiles one DAG once into slots, one per
node and index offset, and evaluates each slot once per index as an
unnormalized integer pair (num, den) with den > 0, so no intermediate value
pays a gcd; each leaf slot steps its closed form from one index to the next
on integers alone (``ExpPoly._advance``), in a memo of its own, so a scan
over closed forms builds no Fraction per index; a constant form keeps its
first memo at every index.  The lazy scans in ``order`` read by sign.  Only
the public boundary reduces a value to a Fraction: ``values`` reads a
closed form through its one stepping Fraction reader,
``ExpPoly._fractions``, and a lazy quantity through one ``reader``;
``ExpPoly.value_at`` is one read of it, and ``eval_at`` is one read of
``values``.

Sums, products and negations of closed forms stay closed, so ``values``
and the lazy scans in ``order`` first ``fold`` the DAG, whole or not at all:
when every node is a patch-free closed leaf, a "neg", or a "+" or "*" whose
form has no more terms than its operands step per index, the DAG reads as
its one closed form; any other DAG is read exactly as the ring operations
built it, so a leaf that an "apply" node also reads shares its slot.

``ExpPoly`` keeps a closed form on integers: each base as a reduced
(num, den) pair and each coefficient as an integer numerator over one
common denominator, so its arithmetic, order, hashing and text work on
integers.  Fractions are only what its public methods take and give.

A zero prefix (``delay``, ``series ... from``) holds one shared ``_ZERO`` at
each of its m indices, and ``Quantity.render`` cuts those entries from
fixed templates of one block of 1000 indices: "1:0, " .. "999:0, ", and
"#000:0, " .. "#999:0, " with "#" replaced by the block number p, so one
``str`` per 1000 indices, not one per index.  A block with no hole is one
slice of its template; a block with holes picks its entries by index.

All values are immutable after construction; lazy evaluators must be pure.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import comb, gcd, lcm
from typing import Callable, Iterable, Mapping

from .errors import (
    InvalidTerm,
    LazyPatchUnsupported,
    NegativePowerDelay,
    NonInvertible,
    ZeroDivisor,
)

# An ExpPoly key: (num, den, power) for the shape n**power * (num/den)**n, the
# base num/den reduced with den > 0.  A key maps to the integer numerator of
# its coefficient over the polynomial's one common denominator.
Key = tuple[int, int, int]

# Finite index -> value overrides, invisible to Frechet equality and order.
PrefixPatch = dict[int, Fraction]

# One parity's group of terms, as ``ExpPoly.groups`` gives it: the integers
# (|num|, den, power, a), coefficient a over the form's common denominator.
IntGroup = tuple[int, int, int, int]


# The modulus of patch fingerprints (``Quantity.closed``): the Mersenne prime 2**61 - 1.
_P = (1 << 61) - 1

# The one zero that every zero-prefix entry holds, so ``Quantity.render`` can
# find runs of them by identity.  A speed path only: any other zero prints
# the same text.
_ZERO = Fraction(0)

# The text templates of zero entries (``_zero_run``), one entry per index
# in a block of 1000: "i:0, " for i < 1000 (the entry at 0 is never read),
# and "#jjj:0, " for the index p * 1000 + j of a block p >= 1, whose "#"
# becomes str(p).
_SMALL = tuple(f"{i}:0, " for i in range(1000))
_BLOCK = tuple(f"#{j:03d}:0, " for j in range(1000))


def _zero_run(keys: list[int], s: int, e: int, out: list[str]) -> None:
    # Appends the entries "i:0, " of the sorted keys[s:e] to out, one piece
    # per block of 1000 indices, from the block's template.  The block's
    # keys keys[s:t] have no hole exactly when keys[t - 1] - keys[s] == t - 1 - s,
    # and are then one slice of it; else each key picks its entry.  A block
    # p >= 1 makes one str(p).
    while s < e:
        p = keys[s] // 1000
        t = bisect_left(keys, 1000 * p + 1000, s, e)
        base, template = 1000 * p, (_BLOCK if p else _SMALL)
        lo, hi = keys[s] - base, keys[t - 1] - base
        if hi - lo == t - 1 - s:
            text = "".join(template[lo : hi + 1])
        else:
            text = "".join(map(template.__getitem__, map(operator.sub, keys[s:t], repeat(base))))
        out.append(text.replace("#", str(p)) if p else text)
        s = t


def _residue(num: int, den: int) -> int | None:
    # num / den mod _P, or None when _P divides den.
    den %= _P
    return num * pow(den, -1, _P) % _P if den else None


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class Term:
    """One closed-form term, denoting the sequence n -> coeff * n**power * base**n."""

    coeff: Fraction
    power: int
    base: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeff", _rat(self.coeff))
        object.__setattr__(self, "power", operator.index(self.power))
        object.__setattr__(self, "base", _rat(self.base))
        if self.base == 0:
            raise InvalidTerm("term base must be nonzero")

    def value_at(self, n: int) -> Fraction:
        n = operator.index(n)
        return self.coeff * Fraction(n) ** self.power * self.base**n


class ExpPoly:
    """Canonical exponential polynomial: distinct (base, power) keys, no zero coefficients.

    The empty polynomial denotes the zero sequence.  Canonical forms are a
    complete invariant: two closed forms agree at all but finitely many
    indices if and only if their canonical forms are identical.

    The terms are kept on integers.  ``_coeffs`` maps each ``Key``
    (num, den, power) to a nonzero integer a, and ``_den`` is one common
    denominator D > 0, so the term is (a / D) * n**power * (num/den)**n.  D
    is kept reduced, gcd(D, every a) = 1, which makes it the lcm of the
    coefficients' denominators: equal forms store equal integers, and
    ``__eq__`` and ``__hash__`` read them as they are.  ``Fraction`` is only
    the boundary: the constructor, ``coeff``, ``items``, ``terms`` and
    ``value_at`` take or give Fractions, and ``groups`` gives the integers.
    """

    __slots__ = ("_coeffs", "_den")

    def __init__(self, coeffs: Mapping[tuple[object, int], object] | None = None):
        self._coeffs, self._den = _integer_terms(coeffs.items() if coeffs else ())

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def constant(cls, r) -> "ExpPoly":
        r = _rat(r)
        return cls._trusted({(1, 1, 0): r.numerator}, r.denominator) if r else cls()

    @classmethod
    def single(cls, coeff, power: int, base) -> "ExpPoly":
        return cls._trusted(*_integer_terms([((base, power), coeff)]))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, base, power: int) -> Fraction:
        base = _rat(base)
        a = self._coeffs.get((base.numerator, base.denominator, operator.index(power)))
        return Fraction(a, self._den) if a else Fraction(0)

    def _sorted(self) -> list[tuple[Key, int]]:
        # The (key, a) pairs in canonical order: |base| desc, power desc, base
        # desc.  |num/den| is compared as |num| * (L // den) over the lcm L of
        # the base denominators, so the sort compares integers only.
        coeffs = self._coeffs
        big_l = lcm(*{den for _, den, _ in coeffs})
        return sorted(
            coeffs.items(),
            key=lambda kv: (abs(kv[0][0]) * (big_l // kv[0][1]), kv[0][2], kv[0][0] > 0),
            reverse=True,
        )

    def items(self) -> list[tuple[tuple[Fraction, int], Fraction]]:
        """Terms ((base, power), coefficient) in canonical order (|base| desc, power desc, base desc)."""
        d = self._den
        return [((Fraction(num, den), k), Fraction(a, d)) for (num, den, k), a in self._sorted()]

    def terms(self) -> list[Term]:
        return [Term(c, power, base) for (base, power), c in self.items()]

    def value_at(self, n: int) -> Fraction:
        """Exact value at index n >= 1: one read of ``_fractions``."""
        return self._fractions()(_index(n))

    def _fractions(self) -> Callable[[int], Fraction]:
        """n -> the exact value at n >= 1 as a reduced Fraction, stepped from one read to the next.

        The value is written as S(n) * I(n) / n**K, where
        S(n) = (g * G**n) / (D * Q**n), I(n) = sum a_i * r_i**n * n**(k_i + K)
        is an integer, and K is the largest negative power.  D is the stored
        common denominator and Q the lcm of the base denominators; g and G
        are the gcds of the numerators over them, which a_i and r_i are
        divided by.  gcd(g, D) = 1 because D is reduced, and gcd(G, Q) = 1
        because a prime that divides Q divides some base denominator to its
        full power in Q, so (G/Q)**n is reduced with no gcd.

        A ``reader`` keeps S(n) as the unreduced integer pair
        (s_num, s_den) = (g * G**n, D * Q**n).  This reader instead steps the
        body with its scale left out, from index 0, and keeps S(n) as the
        reduced Fraction (g/D) * (G/Q)**n: a read at the index after the last
        multiplies it by G/Q and steps each r_i**n by one multiplication, a
        read at any other index restarts both with one ``pow`` each, and a
        repeated read costs neither.  S(n) is then multiplied by I(n) / n**K.
        ``Fraction``'s gcds there meet a small operand unless I(n) and Q**n
        are both large, which takes several bases.  With one base I(n) stays
        small, so a large coefficient or index costs no gcd of two large
        integers.  The index is not checked here.
        """
        g, d, big_g, q, k_shift, terms = self._plan()
        # The ``_advance`` memo at index 0 of the plan with g = D = G = Q = 1,
        # where every power is 1.
        memo = (0, 1, 1, sum(a for a, _, k in terms if not k), (1,) * len(terms), (1, 1, 1, 1, k_shift, terms))
        scale = start = Fraction(g, d)  # S(0)
        ratio = Fraction(big_g, q) if big_g != q else None  # else S(n) = g/D at every n

        def value(n: int) -> Fraction:
            nonlocal memo, scale
            if memo[0] != n:
                if ratio is not None:
                    scale = scale * ratio if memo[0] + 1 == n else start * ratio**n
                memo = self._advance(n, memo)
            inner = memo[3]
            return scale * (Fraction(inner, n**k_shift) if k_shift else inner)

        return value

    def _advance(self, n: int, memo: tuple | None) -> tuple:
        # (n, s_num, s_den, I(n), (r_i**n per term), plan): see _fractions.
        # Stepped from memo when it holds n - 1, by one integer multiplication
        # each, else restarted with pow.  A plan with G = Q = 1 keeps the
        # scale as it is.
        if memo is None:
            plan, stepping = self._plan(), False
        else:
            plan, stepping = memo[5], memo[0] + 1 == n
        g, d, big_g, q, _, terms = plan
        if stepping:
            powers = tuple([s * r for s, (_, r, _) in zip(memo[4], terms)])
            s_num, s_den = memo[1], memo[2]
            if big_g != q:  # G and Q are coprime: equal only when both are 1
                s_num, s_den = s_num * big_g, s_den * q
        else:
            powers = tuple([r**n for _, r, _ in terms])
            s_num, s_den = (g * big_g**n, d * q**n) if big_g != q else (g, d)
        inner = 0
        for s, (a, _, k) in zip(powers, terms):
            inner += a * s * n**k if k else a * s
        return n, s_num, s_den, inner, powers, plan

    def fingerprint(self) -> Callable[[int], int | None]:
        """n -> value_at(n) mod P for the prime P = 2**61 - 1, or None where undefined.

        Reduction mod P is a ring map on the rationals whose denominators P
        does not divide, so the value's residue is the sum over the terms of
        (c mod P) * n**k * (b mod P)**n, reduced mod P.  The residues of c and
        b are taken once here; each index costs one ``pow(b, n, P)`` and one
        ``pow(n, k, P)`` per term.  The residue is undefined (None) when P
        divides the common denominator or a base's denominator, or divides n
        under a negative power.
        """
        d = self._den
        terms = [(_residue(a, d), _residue(num, den), k) for (num, den, k), a in self._coeffs.items()]
        if any(c is None or b is None for c, b, _ in terms):
            return lambda n: None
        negative = any(k < 0 for _, _, k in terms)

        def residue_at(n: int) -> int | None:
            if negative and n % _P == 0:
                return None
            total = 0
            for c, b, k in terms:
                total += c * pow(b, n, _P) * pow(n, k, _P) if k else c * pow(b, n, _P)
            return total % _P

        return residue_at

    def groups(self) -> tuple[list[IntGroup], list[IntGroup], int]:
        """(even, odd, D): per parity of n, the nonzero groups (|num|, den, power, a), largest first.

        On even n a term c * n**k * b**n is c * n**k * |b|**n, and on odd n it
        is sign(b) * c * n**k * |b|**n, so the terms of one (|base|, power)
        group add up to one coefficient a / D per parity, over the common
        denominator D > 0.  In (|base| desc, power desc) order the first group
        of a parity dominates it and gives its sign, the sign of a; a parity
        with no group is 0.  This integer table is the certificate behind
        every exact decision in ``order``, the tails of its lazy scans of a
        closed form and the hole scan of ``zeros`` (``_tail_start``).
        """
        even: list[IntGroup] = []
        odd: list[IntGroup] = []
        for (num, den, power), a in self._sorted():  # a group's +B term just before its -B term
            key = (abs(num), den, power)
            for rows, c in ((even, a), (odd, a if num > 0 else -a)):
                if rows and rows[-1][:3] == key:
                    c += rows.pop()[3]
                if c:
                    rows.append((*key, c))
        return even, odd, self._den

    def reflect(self, m: int) -> "ExpPoly":
        """The form t -> self(m - t): the sequence read backwards from index m.

        A term c * n**k * b**n at n = -t is c * (-1)**k * t**k * (1/b)**t, the
        term relabelled with no expansion, so the powers must be nonnegative.
        That form read at t - m (``shift``) is self(m - t).
        """
        coeffs = self._coeffs
        if any(power < 0 for _, _, power in coeffs):
            raise ValueError("cannot reflect a term with a negative power")
        backwards = ExpPoly._trusted(
            {
                ((den, num, k) if num > 0 else (-den, -num, k)): -a if k % 2 else a
                for (num, den, k), a in coeffs.items()
            },
            self._den,
        )
        return backwards.shift(m) if m else backwards

    def shift(self, m: int) -> "ExpPoly":
        """The form n -> self(n - m) for m >= 0, re-expanded in powers of n; the powers must be nonnegative.

        A term c * n**k * b**n at n - m is c * b**-m * sum C(k, j) * (-m)**(k - j)
        * n**j * b**n.  b**-m = den**m / num**m is put over L**m, with L the
        lcm of the base numerators' magnitudes.  A negative power or a
        negative m is a ValueError.
        """
        m = operator.index(m)
        if m < 0:
            raise ValueError("cannot shift by a negative m")
        coeffs = self._coeffs
        if any(power < 0 for _, _, power in coeffs):
            raise ValueError("cannot shift a term with a negative power")
        big_l = lcm(*{abs(num) for num, _, _ in coeffs})
        out: dict[Key, int] = {}
        for (num, den, power), a in coeffs.items():
            shifted = a * (den * (big_l // abs(num))) ** m
            if num < 0 and m % 2:
                shifted = -shifted
            for j in range(power + 1):
                key = (num, den, j)
                out[key] = out.get(key, 0) + shifted * comb(power, j) * (-m) ** (power - j)
        return ExpPoly._reduced({k: a for k, a in out.items() if a}, self._den * big_l**m)

    def zeros(self, hi: int) -> set[int]:
        """The t in 0..hi - 1 where the value is 0; the powers must be nonnegative.

        The t below the tail start (``_tail_start`` of ``groups``) are
        evaluated exactly: S(t) in ``_fractions`` is never 0, so the value is
        0 where the integer I(t) is, and ``_advance`` steps I(t) from t = 0 by
        one multiplication per term and index.  From the tail start on, a
        parity of t with a group is 0 nowhere and one with no group is 0
        everywhere, so the first two t there decide every later t of their
        parity.
        """
        holes: set[int] = set()
        window, memo = min(_tail_start(self.groups(), hi), hi), None
        for t in range(min(window + 2, hi)):
            memo = self._advance(t, memo)
            if not memo[3]:
                holes.update(range(t, hi, 2) if t >= window else (t,))
        return holes

    def _plan(self) -> tuple[int, int, int, int, int, tuple[tuple[int, int, int], ...]]:
        # (g, D, G, Q, K, ((a_i, r_i, k_i + K) per term)), all integers: see _fractions.
        coeffs = self._coeffs
        nums = list(coeffs.values())
        q = lcm(*[den for _, den, _ in coeffs])
        ratios = [num * (q // den) for num, den, _ in coeffs]
        g, big_g = gcd(*nums), gcd(*ratios)
        k_shift = max([0, *(-k for _, _, k in coeffs)])
        terms = tuple(
            (a // g, r // big_g, k + k_shift) for a, r, (_, _, k) in zip(nums, ratios, coeffs)
        )
        return g, self._den, big_g, q, k_shift, terms

    def scale(self, r) -> "ExpPoly":
        r = _rat(r)
        if r == 0:
            return ExpPoly()
        p = r.numerator
        return ExpPoly._reduced({k: a * p for k, a in self._coeffs.items()}, self._den * r.denominator)

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self._plus(other, -1)

    def _plus(self, other: "ExpPoly", sign: int) -> "ExpPoly":
        # self + sign * other, both brought over the lcm of the two denominators.
        d1, d2 = self._den, other._den
        if d1 == d2:
            merged, d, f = dict(self._coeffs), d1, sign
        else:
            d = d1 // gcd(d1, d2) * d2
            f1 = d // d1
            merged, f = {k: a * f1 for k, a in self._coeffs.items()}, sign * (d // d2)
        for k, a in other._coeffs.items():
            s = merged.get(k, 0) + a * f
            if s:
                merged[k] = s
            else:
                del merged[k]
        return ExpPoly._reduced(merged, d)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._trusted({k: -a for k, a in self._coeffs.items()}, self._den)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        # Term product: coefficients multiply, powers add, bases multiply.
        # The numerators are grouped by base, so a base pair is multiplied
        # and reduced once, and the product is over the denominator D1 * D2.
        left, right = self._numerators_by_base(), other._numerators_by_base()
        sums: dict[Key, int] = {}
        for (n1, d1), terms1 in left.items():
            for (n2, d2), terms2 in right.items():
                g1, g2 = gcd(n1, d2), gcd(n2, d1)
                num, den = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
                for k1, a1 in terms1:
                    for k2, a2 in terms2:
                        key = (num, den, k1 + k2)
                        sums[key] = sums.get(key, 0) + a1 * a2
        return ExpPoly._reduced({k: s for k, s in sums.items() if s}, self._den * other._den)

    def _numerators_by_base(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        # {(num, den): [(power, a), ...]}: the numerators over the common denominator, by base.
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (num, den, power), a in self._coeffs.items():
            groups.setdefault((num, den), []).append((power, a))
        return groups

    @classmethod
    def _trusted(cls, coeffs: dict[Key, int], den: int = 1) -> "ExpPoly":
        # An ExpPoly over parts that are canonical already: reduced bases,
        # nonzero numerators and gcd(den, numerators) = 1; no revalidation.
        p = cls.__new__(cls)
        p._coeffs = coeffs
        p._den = den
        return p

    @classmethod
    def _reduced(cls, coeffs: dict[Key, int], den: int) -> "ExpPoly":
        # The ExpPoly with coefficients a / den (nonzero a, den > 0), their common factor divided out.
        g = gcd(den, *coeffs.values())
        if g == 1:
            return cls._trusted(coeffs, den)
        return cls._trusted({k: a // g for k, a in coeffs.items()}, den // g)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpPoly) and self._den == other._den and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._den, frozenset(self._coeffs.items())))

    def render(self) -> str:
        """Stable text form, e.g. ``1/2*n^2*1^n + 1/2*n^1*1^n``; parseable by the CLI.

        Each coefficient a / D is reduced by one gcd(a, D), and every
        rational prints as ``str(Fraction)`` would print it.
        """
        if not self._coeffs:
            return "0"
        d, parts = self._den, []
        for (num, den, power), a in self._sorted():
            g = gcd(a, d)
            mag = f"{abs(a) // g}" if g == d else f"{abs(a) // g}/{d // g}"
            base = f"{num}" if den == 1 else f"{num}/{den}"
            if num < 0:
                base = f"({base})"
            sign = ("" if a > 0 else "-") if not parts else ("+ " if a > 0 else "- ")
            parts.append(f"{sign}{mag}*n^{power}*{base}^n")
        return " ".join(parts)

    def __repr__(self):
        return f"ExpPoly({self.render()})"


def _integer_terms(pairs: Iterable) -> tuple[dict[Key, int], int]:
    # (coefficients, D) of an ExpPoly from ((base, power), coefficient) pairs of rationals.
    cleaned: dict[Key, Fraction] = {}
    for (base, power), c in pairs:
        base, power, c = _rat(base), operator.index(power), _rat(c)
        if base == 0:
            raise InvalidTerm("term base must be nonzero")
        if c != 0:
            cleaned[(base.numerator, base.denominator, power)] = c
    d = lcm(*[c.denominator for c in cleaned.values()])
    return {key: c.numerator * (d // c.denominator) for key, c in cleaned.items()}, d


def _tail_start(table: tuple[list[IntGroup], list[IntGroup], int], cap: int) -> int:
    """The least N0 in 1..cap from which every value has its parity's lead sign; cap if none, 0 for zero.

    ``table`` is a form's (even, odd, D), as ``ExpPoly.groups`` gives it.  A
    parity with no group is 0 at every index and bounds nothing.  Otherwise,
    with its groups (|num|, den, power, a) largest first and the first
    (B0, k0, C0), each other group j gives the ratio
    rho_j(t) = |Cj / C0| * t**(kj - k0) * (Bj / B0)**t.  The parity's T is the
    least t >= 1 at which every rho_j steps down, rho_j(t + 1) <= rho_j(t),
    and their sum is below 1.  The step ((t + 1) / t)**(kj - k0) * Bj / B0
    falls with t, so both still hold at every t past T, where the value is
    C0 * t**k0 * B0**t times (1 + a sum of magnitude below 1): not 0, with
    the sign of C0.  The search doubles t, then bisects, on exact integers.
    N0 is the larger T of the two parities; it does not depend on cap unless
    it reaches it.  ``ExpPoly.zeros`` evaluates below it and at its first
    index of each parity, and the lazy scans of ``order`` read a closed form
    pointwise only below it and take the sign past it from the same table.
    """
    n0 = 0
    for groups in table[:2]:
        if not groups:
            continue
        p0, q0, k0, a0 = groups[0]  # Cj = aj / D: the common denominator cancels in rho_j
        a0 = abs(a0)
        shift = max(k0 - k for _, _, k, _ in groups)  # t**shift clears the negative powers of t
        by_ratio: dict[tuple[int, int], list[tuple[int, int]]] = {}  # Bj / B0 -> [(kj - k0 + shift, |aj|)]
        for p, q, k, a in groups[1:]:
            by_ratio.setdefault((p * q0, q * p0), []).append((k - k0 + shift, abs(a)))
        rising = [(k - k0, p * q0, q * p0) for p, q, k, _ in groups[1:] if k > k0]

        def settled(t: int) -> bool:
            if any((t + 1) ** d * p > t**d * q for d, p, q in rising):  # there Bj / B0 = p / q < 1
                return False
            # a0 * t**shift times sum rho_j(t) < 1: sum over ratios p / q of (p / q)**t * sum |aj| * t**e.
            num, den = 0, 1
            for (p, q), parts in by_ratio.items():
                s, qt = sum(a * t**e for e, a in parts), q**t
                num, den = num * qt + s * p**t * den, den * qt
            return num < a0 * t**shift * den

        lo, hi = 0, 1
        while not settled(hi):
            if hi >= cap:
                return cap  # N0 is at most cap
            lo, hi = hi, min(2 * hi, cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if settled(mid) else (mid, hi)
        n0 = max(n0, hi)
    return n0


def canonicalize(terms: Iterable[Term]) -> ExpPoly:
    """Merge terms sharing a (base, power) key and drop zero coefficients."""
    return sum((ExpPoly.single(t.coeff, t.power, t.base) for t in terms), ExpPoly())


def fold(q: Quantity) -> Quantity:
    """q's one closed form when its whole DAG folds, else q itself; equal to q at every index.

    A lazy q is the root node of its DAG.  Sums, products and negations of
    closed forms are closed forms, so one walk (``_post_order``) gives each
    node the closed form that ``ExpPoly`` arithmetic gives.  A node folds
    when it is a patch-free "leaf", a "neg", or a "+" or "*" whose form has
    no more terms than its operands' forms, which a ``reader`` steps per
    index (counted once when both read one closed form).  Any other node,
    such as an "apply", a "delay" (a closed delay writes m prefix entries),
    a patched leaf below the root (a closed sum evaluates its operands at
    every override) or a product of two distinct 3-term forms, leaves q, the
    DAG exactly as the ring operations built it.  A root "leaf", and a root
    "neg" over one, give their closed form with the patch included.
    """
    if q.is_closed:
        return q
    leaf = q.args[0] if q.op == "neg" else q
    if leaf.op == "leaf":
        return leaf.data if leaf is q else _negated(leaf.data)
    forms: dict[Quantity, tuple] = {}  # node -> (its closed form, the closed form or node a reader steps for it)
    for node in _post_order(q, operator.attrgetter("args"), lambda node: node, forms):
        op, args = node.op, [forms[a] for a in node.args]
        if op == "leaf" and not node.data.patch:
            forms[node] = (node.data.body, node.data)
        elif op == "neg":
            forms[node] = (-args[0][0], args[0][1])
        elif op in ("+", "*"):
            (x, a), (y, b) = args
            body = x + y if op == "+" else x * y
            if len(body._coeffs) > len(x._coeffs) + (0 if a is b else len(y._coeffs)):
                return q
            forms[node] = (body, node)
        else:
            return q
    return Quantity(forms[q][0], {})


def _post_order(root, operands: Callable, key: Callable, done) -> Iterable:
    """The items of root's DAG, operands first, skipping those whose key is in ``done``.

    The caller enters each yielded item's key in ``done`` before it asks for
    the next, so each key is yielded once.  The walk keeps an explicit
    stack, so the nesting depth meets no recursion limit.
    """
    stack = [root]
    while stack:
        item = stack[-1]
        if key(item) in done:
            stack.pop()
            continue
        pending = [o for o in operands(item) if key(o) not in done]
        if pending:
            stack.extend(reversed(pending))
        else:
            stack.pop()
            yield item


class Quantity:
    """A rational sequence, closed-form or lazy.  Immutable.

    A closed form has a ``body`` and a ``patch`` and no ``op``.  A lazy
    quantity has no body and an empty patch, and is a node of a lazy
    expression DAG, pure and total on indices n >= 1: ``op`` is "leaf"
    (``data``: a closed Quantity, patch included), "apply" (``data``:
    (f, name); n -> f(n) with no operand, n -> f(arg(n), n) with one), "+",
    "*", "neg" or "delay" (``data``: m), and ``args`` are its operands, lazy
    Quantities.  A node holds no evaluation state: ``reader`` evaluates it.
    """

    __slots__ = ("body", "patch", "op", "args", "data")

    def __init__(self, body: ExpPoly | None, patch: PrefixPatch, op: str | None = None, args=(), data=None):
        self.body = body
        self.patch = patch
        self.op, self.args, self.data = op, args, data

    @classmethod
    def closed(cls, body: ExpPoly, patch: Mapping[int, object] | None = None) -> "Quantity":
        """``body`` with the overrides in ``patch``, minus those equal to the body's value.

        Dropping the equal overrides keeps the patch minimal.  Each override v
        at i is first compared with body(i) modulo the prime P = 2**61 - 1
        (``ExpPoly.fingerprint``): different residues prove v != body(i)
        without computing body(i), whose size grows with i.  Equal residues,
        or an undefined one (P divides a denominator, or divides i under a
        negative power), fall back to the exact comparison, so the check
        stays exact and no decision rests on the fingerprint alone.
        """
        cleaned: PrefixPatch = {}
        if patch:
            fingerprint = body.fingerprint()
            for i, v in patch.items():
                i = operator.index(i)
                if i < 1:
                    raise ValueError("patch indices start at 1")
                v = _rat(v)
                fv, fb = _residue(v.numerator, v.denominator), fingerprint(i)
                differs = fv is not None and fb is not None and fv != fb
                if differs or v != body.value_at(i):
                    cleaned[i] = v
        return cls(body, cleaned)

    @classmethod
    def zero_prefixed(
        cls,
        body: ExpPoly,
        m: int,
        tail: PrefixPatch | None = None,
        reflected: ExpPoly | None = None,
    ) -> "Quantity":
        """``body`` with value 0 at indices 1..m and the overrides ``tail`` past m.

        The prefix skips the holes, the indices where the body is already 0,
        which keeps the patch as minimal as ``closed`` would; ``tail`` must be
        minimal already.  n is a hole exactly when t = m - n is a zero of
        ``reflected``, the body read backwards from m (``body.reflect(m)``
        unless the caller has it more cheaply), and ``ExpPoly.zeros`` finds
        those from a tail bound without evaluating every index.  All prefix
        entries hold the one shared ``_ZERO``, which ``render`` prints in bulk.
        """
        if reflected is None:
            reflected = body.reflect(m)
        prefix: PrefixPatch = dict.fromkeys(range(1, m + 1), _ZERO)
        for t in reflected.zeros(m):
            del prefix[m - t]
        if tail:
            prefix.update(tail)
        return cls(body, prefix)

    @classmethod
    def lazy(cls, evaluator: Callable[[int], Fraction], description: str = "lazy") -> "Quantity":
        return cls(None, {}, "apply", (), (evaluator, description))

    @property
    def is_closed(self) -> bool:
        return self.body is not None

    @property
    def description(self) -> str:
        """A closed form's text, or a lazy DAG's, each node around its operands' texts."""
        if self.is_closed:
            return self.render()
        texts: dict[Quantity, str] = {}
        for node in _post_order(self, operator.attrgetter("args"), lambda node: node, texts):
            texts[node] = node._describe([texts[a] for a in node.args])
        return texts[self]

    def _describe(self, parts: list[str]) -> str:
        # This node's text around its operands' texts ``parts``.
        op, data = self.op, self.data
        if op == "leaf":  # the closed form's own text, patch included, bracketed unless one term
            text = data.render()
            return f"({text})" if len(data.body._coeffs) > 1 or data.patch else text
        if op == "apply":
            return f"{data[1]}({parts[0]})" if parts else data[1]
        if op == "neg":
            return f"-({parts[0]})"
        if op == "delay":
            return f"delay({parts[0]}, {data})"
        return f"({parts[0]} {op} {parts[1]})"

    def as_lazy(self) -> "Quantity":
        """Explicitly forget the closed form: a lazy q itself, a closed one as a "leaf" node over it."""
        if not self.is_closed:
            return self
        return Quantity(None, {}, "leaf", (), self)

    def __eq__(self, other) -> bool:
        # Structural equality.  For Frechet equality use order.compare().
        if not isinstance(other, Quantity):
            return NotImplemented
        if self.is_closed and other.is_closed:
            return self.body == other.body and self.patch == other.patch
        return self is other

    def __hash__(self):
        if self.is_closed:
            return hash((self.body, frozenset(self.patch.items())))
        return id(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, j: int):
        return pow_int(self, j)

    def render(self) -> str:
        """Stable text form: the body's, inside ``patch(body, i:v, ...)`` when there are overrides.

        The entries are ``f"{i}:{v}"`` in index order.  A run of entries that
        hold the shared ``_ZERO`` of a zero prefix is cut from fixed
        templates, with no per-entry formatting, one piece per block of
        1000 indices it covers: below 1000 from the entries
        "1:0, " .. "999:0, ", and in the block p000..p999 from
        "#000:0, " .. "#999:0, " with "#" replaced by str(p), so a run of m
        indices makes about m / 1000 ``str`` calls.  A block whose indices
        have no hole is one slice of its template; in a block with holes
        each index picks its entry.  Every other entry, another zero
        included, is formatted on its own.  Both print the same bytes, so
        the text never depends on which zero an entry holds.  The pieces
        are joined once.
        """
        if not self.is_closed:
            return f"lazy({self.description})"
        text = self.body.render()
        if not self.patch:
            return text
        overrides = self.patch
        keys = sorted(overrides)
        out, start = ["patch(", text, ", "], 0
        for k in sorted(compress(overrides, map(operator.is_not, overrides.values(), repeat(_ZERO)))):
            i = bisect_left(keys, k, start)
            _zero_run(keys, start, i, out)
            out.append(f"{k}:{overrides[k]}, ")
            start = i + 1
        _zero_run(keys, start, len(keys), out)
        out[-1] = out[-1][:-2] + ")"  # the last piece (one entry or one block) loses its ", "
        return "".join(out)

    def __repr__(self):
        return f"Quantity({self.render()})"


def _coerce(x) -> Quantity:
    if isinstance(x, Quantity):
        return x
    return embed_scalar(_rat(x))


def embed_scalar(r) -> Quantity:
    """The constant sequence (r, r, r, ...); ring embedding of the scalars."""
    return Quantity.closed(ExpPoly.constant(r))


def eval_at(q: Quantity, n: int) -> Fraction:
    """Exact value of the n-th element (n >= 1); patch overrides win.  Loops use ``values``."""
    return values(q)(n)


def reader(q: Quantity) -> Callable[[int], tuple[int, int]]:
    """n -> q's value at n >= 1 as an unreduced pair (num, den), den > 0.

    The DAG under q's node (``as_lazy``: a closed q reads as one "leaf") is
    walked once, with an explicit stack (``_post_order``), into slots keyed
    by (node, offset): a slot reads its node at n - offset, and a read
    evaluates each slot once, operands first, however often the DAG shares
    it, and returns the root's pair, the last slot.  A "delay" adds
    its m to the offset and needs no slot: below index 1 every leaf and
    "apply" node reads (0, 1), and so do sums, products and negations.
    The leaves of one closed form share a slot, and each leaf slot keeps its
    own ``_advance`` memo for the life of the reader: a read at the index
    after the last steps it, any other read restarts it, so a body read at
    any number of offsets steps at each of them.  A constant body (no n in
    it) keeps its first memo, whose pair is the same at every index.
    """
    slots: dict = {}  # (node, offset), or (id(closed form), offset) for a leaf -> slot
    steps: list[Callable[[int], tuple[int, int]]] = []
    vals: list[tuple[int, int]] = []

    def resolve(node: Quantity, offset: int) -> tuple:
        # (node, offset, slot key) past any "delay", which adds its m to the offset.
        while node.op == "delay":
            node, offset = node.args[0], offset + node.data
        return node, offset, (id(node.data) if node.op == "leaf" else node, offset)

    def operands(item: tuple) -> list[tuple]:
        node, offset, _ = item
        return [resolve(a, offset) for a in node.args]

    def make_step(node: Quantity, offset: int, x: int | None, y: int | None) -> Callable:
        # The step of node read at n - offset, over the slots x and y of its operands.
        op, data = node.op, node.data
        if op == "leaf":
            patch, body = data.patch, data.body
            memo = None  # body's ``_advance`` memo at the last index read, or at the first for a constant
            constant = body._coeffs.keys() <= {(1, 1, 0)}  # its pair does not depend on n

            def step(n: int) -> tuple[int, int]:
                nonlocal memo
                v = patch.get(n - offset)
                if v is not None:
                    return v.numerator, v.denominator
                if n <= offset:
                    return 0, 1
                if memo is None or memo[0] != n - offset and not constant:
                    memo = body._advance(n - offset, memo)
                # (s_num * I(i), s_den * i**K) in the terms of _fractions: integers, with no gcd.
                i, s_num, s_den, inner, _, plan = memo
                k = plan[4]
                return s_num * inner, (s_den * i**k if k else s_den)

        elif op == "apply":
            fn = data[0]

            def step(n: int) -> tuple[int, int]:
                if n <= offset:
                    return 0, 1
                v = _rat(fn(n - offset) if x is None else fn(Fraction(*vals[x]), n - offset))
                return v.numerator, v.denominator

        elif op == "neg":
            step = lambda n: (-vals[x][0], vals[x][1])
        elif op == "+":

            def step(n: int) -> tuple[int, int]:
                (a, b), (c, d) = vals[x], vals[y]
                if b == d:  # operands over one body, or both integers
                    return a + c, b
                return a * d + c * b, b * d

        else:  # "*"
            step = lambda n: (vals[x][0] * vals[y][0], vals[x][1] * vals[y][1])
        return step

    for item in _post_order(resolve(q.as_lazy(), 0), operands, operator.itemgetter(2), slots):
        x, y = (*[slots[key] for _, _, key in operands(item)], None, None)[:2]
        slots[item[2]] = len(steps)
        steps.append(make_step(item[0], item[1], x, y))

    def read(n: int) -> tuple[int, int]:
        vals.clear()
        for step in steps:
            vals.append(step(n))
        return vals[-1]

    return read


def values(q: Quantity) -> Callable[[int], Fraction]:
    """n -> q's exact value at n >= 1 as a Fraction, for loops over indices.

    q is folded first (``fold``).  A closed result returns its override at a
    patched index and reads its body through the body's one stepping reader
    (``ExpPoly._fractions``) at any other, so a lazy DAG that folds
    completely builds no ``reader``.  Any other DAG, as the ring operations
    built it, is read through one ``reader``, and its pair is reduced to a
    Fraction.
    """
    q = fold(q)
    if q.is_closed:
        read, patch = q.body._fractions(), q.patch
        value = lambda n: patch[n] if n in patch else read(n)
    else:
        read = reader(q)
        value = lambda n: Fraction(*read(n))
    return lambda n: value(_index(n))


def _index(n) -> int:
    n = operator.index(n)
    if n < 1:
        raise ValueError("sequence indices start at 1")
    return n


def _pointwise(q1, q2, op, symbol: str) -> Quantity:
    q1, q2 = _coerce(q1), _coerce(q2)
    if not (q1.is_closed and q2.is_closed):
        return Quantity(None, {}, symbol, (q1.as_lazy(), q2.as_lazy()))
    patch = {}
    if q1.patch or q2.patch:  # evaluate at the overrides of either, stepping between them
        v1, v2 = values(q1), values(q2)
        patch = {i: op(v1(i), v2(i)) for i in sorted(q1.patch.keys() | q2.patch.keys())}
    return Quantity.closed(op(q1.body, q2.body), patch)


def add(q1, q2) -> Quantity:
    """Pointwise sum."""
    return _pointwise(q1, q2, operator.add, "+")


def neg(q) -> Quantity:
    """Pointwise negation; the additive inverse.

    A closed q's patch is negated as it stands: v != body(i) gives
    -v != -body(i), so the negated patch is minimal already and skips
    ``Quantity.closed``'s re-check.  ``v and -v`` keeps a zero entry's own
    object, so a negated zero prefix still holds the shared ``_ZERO``.
    """
    q = _coerce(q)
    if q.is_closed:
        return _negated(q)
    return Quantity(None, {}, "neg", (q,))


def _negated(q: Quantity) -> Quantity:
    # The negation of a closed q, patch included (see ``neg``).
    return Quantity(-q.body, {i: v and -v for i, v in q.patch.items()})


def sub(q1, q2) -> Quantity:
    return add(q1, neg(q2))


def mul(q1, q2) -> Quantity:
    """Pointwise product."""
    return _pointwise(q1, q2, operator.mul, "*")


def pow_int(q, j: int) -> Quantity:
    """q**j by repeated multiplication; j < 0 inverts a single-term closed form."""
    q = _coerce(q)
    if j == 0:
        return embed_scalar(1)
    if j < 0:
        return pow_int(_reciprocal(q), -j)
    out = q
    for _ in range(j - 1):
        out = mul(out, q)
    return out


def _reciprocal(q: Quantity) -> Quantity:
    # The ring has zero divisors, so there is no general division; the
    # pointwise reciprocal stays exact only for single-term bodies.
    if not q.is_closed:
        raise NonInvertible("cannot invert a lazy sequence exactly")
    items = q.body.items()
    if len(items) != 1:
        raise NonInvertible("reciprocal requires a single-term closed form")
    (base, power), c = items[0]
    patch = {}
    for i, v in q.patch.items():
        if v == 0:
            raise ZeroDivisor(f"zero override at index {i} has no reciprocal", operation="pow")
        patch[i] = 1 / v
    return Quantity.closed(ExpPoly.single(1 / c, -power, 1 / base), patch)


def delay(q, m: int) -> Quantity:
    """Prefix with m zeros: value 0 for n <= m, the original value at n - m after.

    A closed q keeps its closed form, re-expanded at n - m.  Its prefix holes,
    the n <= m where that body is already 0, are the zeros t = m - n of
    q(-t): q's own terms relabelled (``ExpPoly.reflect(0)``), which do not
    depend on m, so finding them evaluates a window whose size does not
    grow with m.
    """
    q = _coerce(q)
    m = operator.index(m)
    if m < 0:
        raise ValueError("delay must be nonnegative")
    if m == 0:
        return q
    if not q.is_closed:
        return Quantity(None, {}, "delay", (q,), m)
    # Re-expanding each c*n^k*b^n at n-m into powers of n needs k >= 0.
    for (_, _, power), _ in q.body._sorted():
        if power < 0:
            raise NegativePowerDelay(
                f"cannot delay term with power {power}; lower to lazy via as_lazy()"
            )
    # body(i + m) = q.body(i), so the shifted overrides stay minimal.
    return Quantity.zero_prefixed(
        q.body.shift(m), m, {i + m: v for i, v in q.patch.items()}, q.body.reflect(0)
    )


def patch(q, overrides: Mapping[int, object]) -> Quantity:
    """Merge finite index overrides into a closed form; new values win."""
    q = _coerce(q)
    if not q.is_closed:
        raise LazyPatchUnsupported("cannot patch a lazy sequence")
    merged = dict(q.patch)
    merged.update((operator.index(i), v) for i, v in overrides.items())
    return Quantity.closed(q.body, merged)
