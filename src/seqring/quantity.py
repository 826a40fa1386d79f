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
closed form in it steps from one index to the next.  ``values`` turns the
pairs into Fractions, and the lazy scans in ``order`` compare them by sign.

All values are immutable after construction; lazy evaluators must be pure.
"""

from __future__ import annotations

import operator
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

# An ExpPoly key: (base, power).  Terms are kept in a dict under these keys.
Key = tuple[Fraction, int]

# Finite index -> value overrides, invisible to Frechet equality and order.
PrefixPatch = dict[int, Fraction]


# The modulus of patch fingerprints (``Quantity.closed``): the Mersenne prime 2**61 - 1.
_P = (1 << 61) - 1


def _residue(x: Fraction) -> int | None:
    # x mod _P, or None when _P divides x's denominator.
    d = x.denominator % _P
    return x.numerator * pow(d, -1, _P) % _P if d else None


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


def _canonical_order(key: Key):
    # |base| desc, power desc, base desc: the stable rendering/decision order.
    base, power = key
    return (abs(base), power, base)


class ExpPoly:
    """Canonical exponential polynomial: distinct (base, power) keys, no zero coefficients.

    The empty polynomial denotes the zero sequence.  Canonical forms are a
    complete invariant: two closed forms agree at all but finitely many
    indices if and only if their canonical forms are identical.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Key, Fraction] | None = None):
        cleaned: dict[Key, Fraction] = {}
        if coeffs:
            for (base, power), c in coeffs.items():
                base = _rat(base)
                c = _rat(c)
                if base == 0:
                    raise InvalidTerm("term base must be nonzero")
                if c != 0:
                    cleaned[(base, int(power))] = c
        self._coeffs = cleaned

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def constant(cls, r) -> "ExpPoly":
        r = _rat(r)
        return cls({(Fraction(1), 0): r}) if r != 0 else cls()

    @classmethod
    def single(cls, coeff, power: int, base) -> "ExpPoly":
        return cls({(_rat(base), power): _rat(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, base, power: int) -> Fraction:
        return self._coeffs.get((_rat(base), power), Fraction(0))

    def items(self) -> list[tuple[Key, Fraction]]:
        """Terms in canonical order (|base| desc, power desc, base desc)."""
        return sorted(self._coeffs.items(), key=lambda kv: _canonical_order(kv[0]), reverse=True)

    def terms(self) -> list[Term]:
        return [Term(c, power, base) for (base, power), c in self.items()]

    def value_at(self, n: int) -> Fraction:
        """Exact value at index n >= 1.

        The value is written as S(n) * I(n) / n**K, where
        S(n) = (g/D) * (G/Q)**n is a Fraction, I(n) = sum a_i * r_i**n * n**(k_i + K)
        is an integer, and K is the largest negative power.  D and Q are the
        lcms of the coefficient and base denominators; g and G are the gcds
        of the numerators over them, which a_i and r_i are divided by.  Each
        index multiplies S(n) by I(n) / n**K, and ``Fraction``'s gcds meet a
        small operand unless I(n) and the denominator of S(n) are both large,
        which takes several bases.  With one base I(n) stays small, so a
        large coefficient or index costs no gcd of two large integers.

        This is one read, computed with ``pow``.  The body keeps no state: a
        loop over consecutive indices reads through ``values`` or ``reader``,
        which step each r_i**n and S(n) by one multiplication per index.
        """
        n = _index(n)
        return _value(self._advance(n, None))

    def _advance(self, n: int, memo: tuple | None) -> tuple:
        # (n, S(n), I(n), (r_i**n per term), plan), stepped from memo when it holds n - 1.
        if memo is None:
            plan, stepping = self._plan(), False
        else:
            plan, stepping = memo[4], memo[0] + 1 == n
        scale0, step, _, terms = plan
        if stepping:
            powers = tuple([s * r for s, (_, r, _) in zip(memo[3], terms)])
        else:
            powers = tuple([r**n for _, r, _ in terms])
        if step is None:
            scale = scale0
        elif stepping:
            scale = memo[1] * step
        else:
            scale = scale0 * step**n
        inner = 0
        for s, (a, _, k) in zip(powers, terms):
            inner += a * s * n**k if k else a * s
        return n, scale, inner, powers, plan

    def fingerprint(self) -> Callable[[int], int | None]:
        """n -> value_at(n) mod P for the prime P = 2**61 - 1, or None where undefined.

        Reduction mod P is a ring map on the rationals whose denominators P
        does not divide, so the value's residue is the sum over the terms of
        (c mod P) * n**k * (b mod P)**n, reduced mod P.  The residues of c and
        b are taken once here; each index costs one ``pow(b, n, P)`` and one
        ``pow(n, k, P)`` per term.  The residue is undefined (None) when P
        divides a denominator of some c or b, or divides n under a negative
        power.
        """
        terms = [(_residue(c), _residue(b), k) for (b, k), c in self._coeffs.items()]
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

    def zeros(self, hi: int) -> set[int]:
        """The indices 1..hi where the value is 0.

        S(n) in ``value_at`` is never 0, so the value is 0 exactly where the
        integer I(n) is.  Each term of I(n) steps a_i * r_i**n by one
        multiplication by the small r_i per index, and no Fraction is built.
        A single term c * n**k * b**n never vanishes.
        """
        if not self._coeffs:
            return set(range(1, hi + 1))
        if len(self._coeffs) == 1:
            return set()
        ns = range(1, hi + 1)
        columns = []  # per term: a_i * r_i**n * n**k_i for n in ns
        for a, r, k in self._plan()[3]:
            column = accumulate(repeat(r, hi - 1), operator.mul, initial=a * r)
            columns.append(map(operator.mul, column, map(pow, ns, repeat(k))) if k else column)
        return set(compress(ns, map(operator.not_, map(sum, zip(*columns)))))

    def _plan(self) -> tuple[Fraction, Fraction | None, int, tuple[tuple[int, int, int], ...]]:
        # (g/D, G/Q or None when it is 1, K, ((a_i, r_i, k_i + K) per term)): see value_at.
        keys = self._coeffs.keys()
        nums, d = _over_lcm(self._coeffs.values())
        ratios, q = _over_lcm([b for b, _ in keys])
        g, big_g = gcd(*nums), gcd(*ratios)
        k_shift = max([0, *(-k for _, k in keys)])
        terms = tuple(
            (a // g, r // big_g, k + k_shift) for a, r, (_, k) in zip(nums, ratios, keys)
        )
        return Fraction(g, d), Fraction(big_g, q) if big_g != q else None, k_shift, terms

    def scale(self, r) -> "ExpPoly":
        r = _rat(r)
        if r == 0:
            return ExpPoly()
        return ExpPoly({k: c * r for k, c in self._coeffs.items()})

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        merged = dict(self._coeffs)
        for k, c in other._coeffs.items():
            merged[k] = merged.get(k, Fraction(0)) + c
        return ExpPoly(merged)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        # Term product: coefficients multiply, powers add, bases multiply.
        # Each operand's coefficients are integer numerators over its lcm
        # denominator, grouped by base, so a base pair is multiplied and
        # hashed once and a key's coefficient is one Fraction(sum, da * db).
        left, da = self._numerators_by_base()
        right, db = other._numerators_by_base()
        sums: dict[Fraction, dict[int, int]] = {}
        for b1, terms1 in left.items():
            for b2, terms2 in right.items():
                acc = sums.setdefault(b1 * b2, {})
                for k1, a1 in terms1:
                    for k2, a2 in terms2:
                        k = k1 + k2
                        acc[k] = acc.get(k, 0) + a1 * a2
        d = da * db
        return ExpPoly._trusted(
            {(base, k): Fraction(s, d) for base, acc in sums.items() for k, s in acc.items() if s}
        )

    def _numerators_by_base(self) -> tuple[dict[Fraction, list[tuple[int, int]]], int]:
        # ({base: [(power, a), ...]}, D) with each coefficient c = a / D, D the lcm.
        nums, d = _over_lcm(self._coeffs.values())
        groups: dict[Fraction, list[tuple[int, int]]] = {}
        for (base, power), a in zip(self._coeffs, nums):
            groups.setdefault(base, []).append((power, a))
        return groups, d

    @classmethod
    def _trusted(cls, coeffs: dict[Key, Fraction]) -> "ExpPoly":
        # An ExpPoly over coeffs that are canonical already: nonzero bases and
        # coefficients, Fraction keys and values, no revalidation.
        p = cls.__new__(cls)
        p._coeffs = coeffs
        return p

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpPoly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def render(self) -> str:
        """Stable text form, e.g. ``1/2*n^2*1^n + 1/2*n^1*1^n``; parseable by the CLI."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for (base, power), c in self.items():
            mag = -c if c < 0 else c
            body = f"{mag}*n^{power}*{_render_base(base)}^n"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"ExpPoly({self.render()})"


def _value(memo: tuple) -> Fraction:
    # S(n) * I(n) / n**K from an ``_advance`` memo: see ExpPoly.value_at.
    n, scale, inner, _, (_, _, k_shift, _) = memo
    return scale * (Fraction(inner, n**k_shift) if k_shift else inner)


def _over_lcm(xs: Iterable[Fraction]) -> tuple[list[int], int]:
    # ([a, ...], D): each x = a / D over the lcm D of the denominators.
    xs = list(xs)
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _render_base(base: Fraction) -> str:
    return str(base) if base > 0 else f"({base})"


def canonicalize(terms: Iterable[Term]) -> ExpPoly:
    """Merge terms sharing a (base, power) key and drop zero coefficients."""
    out: dict[Key, Fraction] = {}
    for t in terms:
        key = (t.base, t.power)
        out[key] = out.get(key, Fraction(0)) + t.coeff
    return ExpPoly(out)


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
        op, args, data = self.op, self.args, self.data
        if op == "leaf":
            return data.body.render()
        if op == "opaque":
            return data[1]
        if op == "apply":
            return f"{data[1]}({args[0].description})"
        if op == "neg":
            return f"-({args[0].description})"
        if op == "delay":
            return f"delay({args[0].description}, {data})"
        return f"({args[0].description} {op} {args[1].description})"


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
                fv, fb = _residue(v), fingerprint(i)
                differs = fv is not None and fb is not None and fv != fb
                if differs or v != body.value_at(i):
                    cleaned[i] = v
        return cls(body, cleaned, None)

    @classmethod
    def zero_prefixed(cls, body: ExpPoly, m: int, tail: PrefixPatch | None = None) -> "Quantity":
        """``body`` with value 0 at indices 1..m and the overrides ``tail`` past m.

        The prefix skips the indices where the body is already 0, which keeps
        the patch as minimal as ``closed`` would; ``tail`` must be minimal
        already.  All prefix entries share one ``Fraction(0)``.
        """
        prefix: PrefixPatch = dict.fromkeys(range(1, m + 1), Fraction(0))
        for i in body.zeros(m):
            del prefix[i]
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
        if not self.is_closed:
            return f"lazy({self.seq.description})"
        text = self.body.render()
        if self.patch:
            entries = ", ".join(f"{i}:{self.patch[i]}" for i in sorted(self.patch))
            return f"patch({text}, {entries})"
        return text

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


def _stepper(body: ExpPoly) -> Callable[[int], tuple]:
    # i -> body's ``_advance`` memo at i >= 1: the last one when it holds i,
    # else the last one stepped when it holds i - 1, else a restart with pow.
    memo = None

    def at(i: int) -> tuple:
        nonlocal memo
        if memo is None or memo[0] != i:
            memo = body._advance(i, memo)
        return memo

    return at


def reader(*qs: Quantity) -> Callable[[int], list[tuple[int, int]]]:
    """n -> [(num, den) for each q]: the values at n >= 1 as unreduced pairs, den > 0.

    The DAGs are walked once into slots keyed by (node, offset): a slot reads
    its node at n - offset, and a read evaluates each slot once, operands
    first, however often the DAGs share it.  A "delay" adds its m to the
    offset and needs no slot: below index 1 every leaf, evaluator and
    applied function reads (0, 1), and so do sums, products and negations.
    The leaves of one closed form share a slot, and all leaves on one body
    at one offset share an ``_advance`` memo, kept for the life of the
    reader, so a body read at any number of offsets steps at each of them.
    """
    slots: dict = {}  # (node, offset), or (id(closed form), offset) for a leaf -> slot
    steppers: dict = {}  # (id(body), offset) -> _stepper(body)
    steps: list[Callable[[int], tuple[int, int]]] = []
    vals: list[tuple[int, int]] = []

    def compile(node: LazySeq, offset: int) -> int:
        op, data = node.op, node.data
        if op == "delay":
            return compile(node.args[0], offset + data)
        key = (id(data) if op == "leaf" else node, offset)
        if key in slots:
            return slots[key]
        args = node.args  # no comprehension: one Python frame per nesting level
        x = compile(args[0], offset) if args else None
        y = compile(args[1], offset) if len(args) > 1 else None
        if op == "leaf":
            patch = data.patch
            at = steppers.setdefault((id(data.body), offset), _stepper(data.body))

            def step(n: int) -> tuple[int, int]:
                v = patch.get(n - offset)
                if v is not None:
                    return v.numerator, v.denominator
                if n <= offset:
                    return 0, 1
                # (S.numerator * I(i), S.denominator * i**K) in the terms of value_at, with no gcd.
                i, scale, inner, _, (_, _, k, _) = at(n - offset)
                return scale.numerator * inner, (scale.denominator * i**k if k else scale.denominator)

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
        slots[key] = len(steps)
        steps.append(step)
        return slots[key]

    outs = [compile(as_node(q), 0) for q in qs]

    def read(n: int) -> list[tuple[int, int]]:
        vals.clear()
        for step in steps:
            vals.append(step(n))
        return [vals[i] for i in outs]

    return read


def values(q: Quantity) -> Callable[[int], Fraction]:
    """n -> q's exact value at n >= 1 as a Fraction, for loops over indices.

    A lazy q is read through one ``reader``.  A closed q steps its body as a
    reader does but builds each value as ``ExpPoly.value_at`` does: reducing
    the pair of a body over several bases pays a gcd of two large integers.
    An evaluator's Fraction is reduced already and is returned as it is.
    """
    if q.is_closed:
        at, patch = _stepper(q.body), q.patch
        value = lambda n: patch[n] if n in patch else _value(at(n))
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
    """Pointwise negation; the additive inverse."""
    q = _coerce(q)
    if q.is_closed:
        return Quantity.closed(-q.body, {i: -v for i, v in q.patch.items()})
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
    """Prefix with m zeros: value 0 for n <= m, the original value at n - m after."""
    q = _coerce(q)
    m = operator.index(m)
    if m < 0:
        raise ValueError("delay must be nonnegative")
    if m == 0:
        return q
    if not q.is_closed:
        return Quantity(None, {}, LazySeq("delay", (q.seq,), m))
    # Re-expand each c*n^k*b^n at n-m into powers of n; needs k >= 0.
    out: dict[Key, Fraction] = {}
    for (base, power), c in q.body.items():
        if power < 0:
            raise NegativePowerDelay(
                f"cannot delay term with power {power}; lower to lazy via as_lazy()"
            )
        shifted = c * base ** (-m)
        for j in range(power + 1):
            key = (base, j)
            out[key] = out.get(key, Fraction(0)) + shifted * comb(power, j) * Fraction(-m) ** (
                power - j
            )
    # body(i + m) = q.body(i), so the shifted overrides stay minimal.
    return Quantity.zero_prefixed(ExpPoly(out), m, {i + m: v for i, v in q.patch.items()})


def patch(q, overrides: Mapping[int, object]) -> Quantity:
    """Merge finite index overrides into a closed form; new values win."""
    q = _coerce(q)
    if not q.is_closed:
        raise LazyPatchUnsupported("cannot patch a lazy sequence")
    merged = dict(q.patch)
    merged.update((operator.index(i), v) for i, v in overrides.items())
    return Quantity.closed(q.body, merged)
