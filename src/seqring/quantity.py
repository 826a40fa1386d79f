"""Sequence quantities with exact rational values.

A quantity is a sequence of rationals indexed from n = 1, stored either as

* a closed form: a canonical exponential polynomial (a finite sum of terms
  ``c * n**k * b**n`` with rational c, b and integer k) plus a finite set of
  index overrides (the "prefix patch"), or
* a lazy sequence: a node graph (a DAG) of pointwise operations whose leaves
  are closed forms and opaque evaluators, pure functions from index to
  rational.

Closed forms are the decidable fragment: addition and multiplication stay
inside it, and the ordering layer can compare them exactly.  Arithmetic that
mixes a closed form with a lazy sequence lowers the result to lazy: ``add``,
``mul``, ``neg`` and ``delay`` build ``LazySeq`` nodes tagged "+", "*", "neg"
and "delay" over "leaf" (a closed form) and "opaque" (an evaluator) nodes,
and ``calculus.extend`` builds "apply" nodes.  Nodes hold no evaluation
state.  ``reader`` compiles DAGs once into slots, one per node and index
offset, and evaluates each slot once per index as an unnormalized integer
pair (num, den) with den > 0, so no intermediate value pays a gcd; each
closed form in it steps from one index to the next on integers alone
(``ExpPoly._advance``), so a scan over closed forms builds no Fraction per
index.  The lazy scans in ``order`` compare the pairs by sign.  Only the
public boundary reduces a value to a Fraction: ``ExpPoly.value_at``,
``values`` and ``eval_at``.

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
from itertools import accumulate, compress, repeat
from math import comb, gcd, lcm
from typing import Callable, Iterable, Mapping

from .errors import (
    InvalidTerm,
    LazyPatchUnsupported,
    NegativePowerDelay,
    NonInvertible,
    ZeroDivisor,
)

Rational = Fraction

# An ExpPoly key: (num, den, power) for the shape n**power * (num/den)**n, the
# base num/den reduced with den > 0.  A key maps to the integer numerator of
# its coefficient over the polynomial's one common denominator.
Key = tuple[int, int, int]

# Finite index -> value overrides, invisible to Frechet equality and order.
PrefixPatch = dict[int, Fraction]

# One parity's group of terms, as ``ExpPoly.leads`` gives it: ((|base|, power),
# combined coefficient).  Inside ``ExpPoly`` a group is the integer tuple
# (|num|, den, power, a): coefficient a over the common denominator.
Group = tuple[tuple[Fraction, int], Fraction]
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
    the boundary: the constructor, ``coeff``, ``items``, ``terms``,
    ``value_at`` and ``leads`` take or give Fractions.
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
        a = self._coeffs.get((base.numerator, base.denominator, power))
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
        """Exact value at index n >= 1.

        The value is written as S(n) * I(n) / n**K, where
        S(n) = (g * G**n) / (D * Q**n), I(n) = sum a_i * r_i**n * n**(k_i + K)
        is an integer, and K is the largest negative power.  D is the stored
        common denominator and Q the lcm of the base denominators; g and G
        are the gcds of the numerators over them, which a_i and r_i are
        divided by.  gcd(g, D) = 1 because D is reduced, and gcd(G, Q) = 1
        because a prime that divides Q divides some base denominator to its
        full power in Q, so (G/Q)**n is reduced with no gcd.

        A ``reader`` keeps S(n) as the unreduced integer pair
        (s_num, s_den) = (g * G**n, D * Q**n).  This read instead steps the
        body with its scale left out (``_origin``) and builds S(n) as the
        reduced Fraction (g/D) * (G/Q)**n, one ``pow``, which is then
        multiplied by I(n) / n**K.  ``Fraction``'s gcds there meet a small
        operand unless I(n) and Q**n are both large, which takes several
        bases.  With one base I(n) stays small, so a large coefficient or
        index costs no gcd of two large integers.  The body keeps no state:
        a loop over consecutive indices reads through ``values`` or
        ``reader``, which step each r_i**n and S(n) by one multiplication
        per index.
        """
        n = _index(n)
        (g, d, big_g, q), origin = self._origin()
        return _value(self._advance(n, origin), Fraction(g, d) * Fraction(big_g, q) ** n)

    def _advance(self, n: int, memo: tuple | None) -> tuple:
        # (n, s_num, s_den, I(n), (r_i**n per term), plan): see value_at.
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

    def _origin(self) -> tuple[tuple[int, int, int, int], tuple]:
        # ((g, D, G, Q), the ``_advance`` memo at index 0 of a plan with
        # g = D = G = Q = 1): for a read that keeps S(n) as a reduced Fraction
        # itself, so the body steps only its powers and I(n).  Every power is
        # 1 at index 0, so a read at 1 steps and any other index restarts.
        g, d, big_g, q, k_shift, terms = self._plan()
        inner = sum(a for a, _, k in terms if not k)
        return (g, d, big_g, q), (0, 1, 1, inner, (1,) * len(terms), (1, 1, 1, 1, k_shift, terms))

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

    def leads(self) -> tuple[Group | None, Group | None]:
        """Per parity of n (even, odd): the dominant group ((|base|, power), coefficient), or None.

        On even n a term c * n**k * b**n is c * n**k * |b|**n, and on odd n it
        is sign(b) * c * n**k * |b|**n, so the terms of one (|base|, power)
        group add up to one coefficient per parity.  In (|base| desc, power
        desc) order the first nonzero group of a parity dominates it, and
        ``order`` reads its sign; a parity whose groups all cancel gives None.
        This table is the per-parity certificate behind every exact decision.
        """
        def lead(groups: list[IntGroup]) -> Group | None:
            if not groups:
                return None
            num, den, power, a = groups[0]
            return (Fraction(num, den), power), Fraction(a, self._den)

        even, odd = self._groups()
        return lead(even), lead(odd)

    def _groups(self) -> tuple[list[IntGroup], list[IntGroup]]:
        # Per parity (even, odd): the nonzero groups (|num|, den, power, a) of
        # ``leads``, coefficient a / D, largest first.
        groups: dict[tuple[int, int, int], list[int]] = {}  # (|num|, den, power) -> [even a, odd a]
        for (num, den, power), a in self._coeffs.items():
            odd = a if num > 0 else -a
            slot = groups.get((abs(num), den, power))
            if slot is None:
                groups[(abs(num), den, power)] = [a, odd]
            else:
                slot[0] += a
                slot[1] += odd
        big_l = lcm(*{den for _, den, _ in groups})
        keys = sorted(groups, key=lambda k: (k[0] * (big_l // k[1]), k[2]), reverse=True)
        return tuple([(*k, groups[k][p]) for k in keys if groups[k][p]] for p in (0, 1))

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
        """The form n -> self(n - m), re-expanded in powers of n; the powers must be nonnegative.

        A term c * n**k * b**n at n - m is c * b**-m * sum C(k, j) * (-m)**(k - j)
        * n**j * b**n.  b**-m = den**m / num**m is put over L**m, with L the
        lcm of the base numerators' magnitudes.
        """
        coeffs = self._coeffs
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

    def zeros(self, hi: int, forward: "ExpPoly | None" = None) -> set[int]:
        """The t in 0..hi - 1 where the value is 0; the powers must be nonnegative.

        On each parity of t (the groups of ``leads``), a parity with no nonzero
        group is 0 at every t of it, and those t are added with no evaluation.
        Otherwise the first group outweighs the sum of the others from some T
        on (``_tail_start``), so the value has no zero there, and T does not
        depend on hi.  Only t < min(T, hi) are evaluated exactly: S(t) in
        ``value_at`` is never 0, so the value is 0 where the integer I(t) is,
        and each term of I(t) steps a_i * r_i**t by one multiplication per t.

        ``forward`` is the same values read the other way, forward(hi - t) =
        self(t).  When T reaches hi and every base of ``forward`` is 1 or -1,
        the zeros are read off its scan of n = 1..hi instead: the reflection
        of a polynomial at hi carries every power of t with coefficients of
        the size of hi**k, where the forward form carries its own few terms.
        A base |b| < 1 makes the forward form the larger one, as its constant
        carries b**-hi.
        """
        holes: set[int] = set()
        window = 0
        for parity, groups in enumerate(self._groups()):
            if groups:
                window = max(window, _tail_start(groups, hi))
            else:
                holes.update(range(parity, hi, 2))
        polynomial = forward is not None and all(den == abs(num) == 1 for num, den, _ in forward._coeffs)
        if window >= hi and polynomial:
            return {hi - n for n in forward._zeros_below(hi + 1) if n}
        window = min(window, hi)
        if window:
            holes.update(self._zeros_below(window))
        return holes

    def _zeros_below(self, window: int) -> list[int]:
        # The t in 0..window - 1 where I(t) = 0: the exact scan of ``zeros``.
        ts = range(window)
        columns = []  # per term: a_i * r_i**t * t**k_i for t in ts
        for a, r, k in self._plan()[5]:
            column = accumulate(repeat(r, window - 1), operator.mul, initial=a)
            columns.append(map(operator.mul, column, map(pow, ts, repeat(k))) if k else column)
        return list(compress(ts, map(operator.not_, map(sum, zip(*columns)))))

    def _plan(self) -> tuple[int, int, int, int, int, tuple[tuple[int, int, int], ...]]:
        # (g, D, G, Q, K, ((a_i, r_i, k_i + K) per term)), all integers: see value_at.
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
        base = _rat(base)
        c = _rat(c)
        if base == 0:
            raise InvalidTerm("term base must be nonzero")
        if c != 0:
            cleaned[(base.numerator, base.denominator, int(power))] = c
    d = lcm(*[c.denominator for c in cleaned.values()])
    return {key: c.numerator * (d // c.denominator) for key, c in cleaned.items()}, d


def _value(memo: tuple, scale: Fraction) -> Fraction:
    # S(n) * I(n) / n**K from an ``_advance`` memo and S(n) as a reduced
    # Fraction ``scale``: see ExpPoly.value_at.
    n, _, _, inner, _, plan = memo
    k_shift = plan[4]
    return scale * (Fraction(inner, n**k_shift) if k_shift else inner)


def _tail_start(groups: list[IntGroup], cap: int) -> int:
    """The least T in 1..cap from which the first of one parity's groups outweighs the rest, else cap.

    ``groups`` are one parity's (|num|, den, power, a), largest first, as
    ``ExpPoly._groups`` gives them.  With the first group (B0, k0, C0), each
    other group j gives the ratio
    rho_j(t) = |Cj / C0| * t**(kj - k0) * (Bj / B0)**t.  T is the least
    t >= 1 at which every rho_j steps down, rho_j(t + 1) <= rho_j(t), and
    their sum is below 1.  The step ((t + 1) / t)**(kj - k0) * Bj / B0 falls
    with t, so both still hold at every t past T, where the value is
    C0 * t**k0 * B0**t times (1 + a sum of magnitude below 1): not 0.
    The search doubles t, then bisects, on exact integers.
    """
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
            return cap
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if settled(mid) else (mid, hi)
    return hi


def canonicalize(terms: Iterable[Term]) -> ExpPoly:
    """Merge terms sharing a (base, power) key and drop zero coefficients."""
    return sum((ExpPoly.single(t.coeff, t.power, t.base) for t in terms), ExpPoly())


class LazySeq:
    """A node of a lazy expression DAG, pure and total on indices n >= 1.

    ``op`` is "leaf" (``data``: a closed Quantity, patch included), "opaque"
    (``data``: (evaluator, description)), "apply" (n -> f(arg(n), n); ``data``:
    (f, name)), "+", "*", "neg" or "delay" (``data``: m); ``args`` are the
    operand nodes.  A node holds no evaluation state: ``reader`` evaluates it.
    """

    __slots__ = ("op", "args", "data")

    def __init__(self, op: str, args: tuple["LazySeq", ...] = (), data=None):
        self.op, self.args, self.data = op, args, data

    @property
    def description(self) -> str:
        texts: dict[LazySeq, str] = {}
        for node in _post_order(self, operator.attrgetter("args"), lambda node: node, texts):
            texts[node] = node._describe([texts[a] for a in node.args])
        return texts[self]

    def _describe(self, parts: list[str]) -> str:
        # This node's text around its operands' texts ``parts``.
        op, data = self.op, self.data
        if op == "leaf":  # the closed form's own text, patch included, bracketed unless one term
            text = data.render()
            return f"({text})" if len(data.body._coeffs) > 1 or data.patch else text
        if op == "opaque":
            return data[1]
        if op == "apply":
            return f"{data[1]}({parts[0]})"
        if op == "neg":
            return f"-({parts[0]})"
        if op == "delay":
            return f"delay({parts[0]}, {data})"
        return f"({parts[0]} {op} {parts[1]})"


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
    """A rational sequence, closed-form or lazy.  Immutable."""

    __slots__ = ("body", "patch", "seq")

    def __init__(self, body: ExpPoly | None, patch: PrefixPatch, seq: LazySeq | None):
        self.body = body
        self.patch = patch
        self.seq = seq

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
        return cls(body, cleaned, None)

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
        those from a tail bound without evaluating every index.  When it
        reflects the body itself and the bound reaches m, the body is scanned
        forwards over 1..m instead.  All prefix entries hold the one shared
        ``_ZERO``, which ``render`` prints in bulk.
        """
        forward = None
        if reflected is None:
            reflected, forward = body.reflect(m), body
        prefix: PrefixPatch = dict.fromkeys(range(1, m + 1), _ZERO)
        for t in reflected.zeros(m, forward):
            del prefix[m - t]
        if tail:
            prefix.update(tail)
        return cls(body, prefix, None)

    @classmethod
    def lazy(cls, evaluator: Callable[[int], Fraction], description: str = "lazy") -> "Quantity":
        return cls(None, {}, LazySeq("opaque", (), (evaluator, description)))

    @property
    def is_closed(self) -> bool:
        return self.body is not None

    @property
    def description(self) -> str:
        return self.seq.description if self.seq is not None else self.body.render()

    def as_lazy(self) -> "Quantity":
        """Explicitly forget the closed form."""
        if not self.is_closed:
            return self
        return Quantity(None, {}, LazySeq("leaf", (), self))

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
            return f"lazy({self.seq.description})"
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
    if not q.is_closed:
        return values(q)(n)
    n = _index(n)
    if n in q.patch:
        return q.patch[n]
    return q.body.value_at(n)


def as_node(q: Quantity) -> LazySeq:
    """q's DAG node; a closed form becomes a "leaf"."""
    return q.seq if q.seq is not None else LazySeq("leaf", (), q)


def _stepper(body: ExpPoly, memo: tuple | None = None) -> Callable[[int], tuple]:
    # i -> body's ``_advance`` memo at i >= 1: the last one when it holds i,
    # else the last one stepped when it holds i - 1, else a restart with pow.
    # The first read starts from ``memo`` when given, else from body's plan.

    def at(i: int) -> tuple:
        nonlocal memo
        if memo is None or memo[0] != i:
            memo = body._advance(i, memo)
        return memo

    return at


def reader(*qs: Quantity) -> Callable[[int], list[tuple[int, int]]]:
    """n -> [(num, den) for each q]: the values at n >= 1 as unreduced pairs, den > 0.

    The DAGs are walked once, with an explicit stack (``_post_order``), into
    slots keyed by (node, offset): a slot reads its node at n - offset, and a
    read evaluates each slot once, operands first, however often the DAGs
    share it.  A "delay" adds its m to the offset and needs no slot: below
    index 1 every leaf, evaluator and applied function reads (0, 1), and so
    do sums, products and negations.
    The leaves of one closed form share a slot, and all leaves on one body
    at one offset share an ``_advance`` memo, kept for the life of the
    reader, so a body read at any number of offsets steps at each of them.
    """
    slots: dict = {}  # (node, offset), or (id(closed form), offset) for a leaf -> slot
    steppers: dict = {}  # (id(body), offset) -> _stepper(body)
    steps: list[Callable[[int], tuple[int, int]]] = []
    vals: list[tuple[int, int]] = []

    def resolve(node: LazySeq, offset: int) -> tuple:
        # (node, offset, slot key) past any "delay", which adds its m to the offset.
        while node.op == "delay":
            node, offset = node.args[0], offset + node.data
        return node, offset, (id(node.data) if node.op == "leaf" else node, offset)

    def operands(item: tuple) -> list[tuple]:
        node, offset, _ = item
        return [resolve(a, offset) for a in node.args]

    def make_step(node: LazySeq, offset: int, x: int | None, y: int | None) -> Callable:
        # The step of node read at n - offset, over the slots x and y of its operands.
        op, data = node.op, node.data
        if op == "leaf":
            patch = data.patch
            at = steppers.setdefault((id(data.body), offset), _stepper(data.body))

            def step(n: int) -> tuple[int, int]:
                v = patch.get(n - offset)
                if v is not None:
                    return v.numerator, v.denominator
                if n <= offset:
                    return 0, 1
                # (s_num * I(i), s_den * i**K) in the terms of value_at: integers, with no gcd.
                i, s_num, s_den, inner, _, plan = at(n - offset)
                k = plan[4]
                return s_num * inner, (s_den * i**k if k else s_den)

        elif op in ("opaque", "apply"):
            fn = data[0]

            def step(n: int) -> tuple[int, int]:
                if n <= offset:
                    return 0, 1
                v = _rat(fn(n - offset) if op == "opaque" else fn(Fraction(*vals[x]), n - offset))
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

    outs = []
    for q in qs:
        root = resolve(as_node(q), 0)
        for item in _post_order(root, operands, operator.itemgetter(2), slots):
            x, y = (*[slots[key] for _, _, key in operands(item)], None, None)[:2]
            slots[item[2]] = len(steps)
            steps.append(make_step(item[0], item[1], x, y))
        outs.append(slots[root[2]])

    def read(n: int) -> list[tuple[int, int]]:
        vals.clear()
        for step in steps:
            vals.append(step(n))
        return [vals[i] for i in outs]

    return read


def values(q: Quantity) -> Callable[[int], Fraction]:
    """n -> q's exact value at n >= 1 as a Fraction, for loops over indices.

    A lazy q is read through one ``reader``.  A closed q steps its body as
    ``ExpPoly.value_at`` reads it, with the scale left out, from index 0,
    and keeps S(n) here as a reduced Fraction: multiplied by G/Q when the
    body steps, and (g/D) * (G/Q)**n, one ``pow``, when it restarts.
    Reducing the value of a body over several bases pays a gcd of two large
    integers.  An evaluator's Fraction is reduced already and is returned
    as it is.
    """
    if q.is_closed:
        (g, d, big_g, big_q), last = q.body._origin()
        at, patch = _stepper(q.body, last), q.patch
        scale = start = Fraction(g, d)  # S(0)
        ratio = Fraction(big_g, big_q) if big_g != big_q else None

        def value(n: int) -> Fraction:
            nonlocal last, scale
            if n in patch:
                return patch[n]
            memo = at(n)
            if ratio is not None and memo is not last:  # else S(n) = g/D at every n
                scale = scale * ratio if memo[0] == last[0] + 1 else start * ratio**n
                last = memo
            return _value(memo, scale)

    elif q.seq.op == "opaque":
        value = lambda n: _rat(q.seq.data[0](n))
    else:
        read = reader(q)
        value = lambda n: Fraction(*read(n)[0])
    return lambda n: value(_index(n))


def _index(n) -> int:
    n = operator.index(n)
    if n < 1:
        raise ValueError("sequence indices start at 1")
    return n


def _pointwise(q1, q2, op, symbol: str) -> Quantity:
    q1, q2 = _coerce(q1), _coerce(q2)
    if not (q1.is_closed and q2.is_closed):
        return Quantity(None, {}, LazySeq(symbol, (as_node(q1), as_node(q2))))
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
        return Quantity(-q.body, {i: v and -v for i, v in q.patch.items()}, None)
    return Quantity(None, {}, LazySeq("neg", (q.seq,)))


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
        return Quantity(None, {}, LazySeq("delay", (q.seq,), m))
    # Re-expanding each c*n^k*b^n at n-m into powers of n needs k >= 0.
    for (_, power), _ in q.body.items():
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
