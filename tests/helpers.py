"""Shared generators and independent oracles for the test suite.

The oracles here never call the code paths they check: closed forms are
evaluated term by term from the textbook formula (never ``ExpPoly.value_at``),
lazy operations are mirrored by plain ``Fraction`` closures (never the DAG
evaluator), sums are brute-force loops over those values, comparisons are
pointwise big-integer evaluation, and sqrt(2) digits come from integer square
roots, stepped one digit at a time.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import isqrt

from seqring import ExpPoly, Quantity, eval_at

ALL_BASES = [F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2), F(3, 4), F(-3, 4)]
PM1_BASES = [F(1), F(-1)]

# The (horizon, window) pairs the sampled verdicts are swept on: every pair
# with 1 <= window <= horizon <= 40, the two windows at horizon 100 and the
# defaults.
WINDOW_PAIRS = [(h, w) for h in range(1, 41) for w in range(1, h + 1)] + [(100, 50), (100, 100), (10**4, 50)]


def random_poly(
    rng: random.Random,
    max_terms: int = 2,
    bases=ALL_BASES,
    pow_lo: int = -2,
    pow_hi: int = 3,
    coeff_max: int = 9,
) -> ExpPoly:
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.choice(bases), rng.randint(pow_lo, pow_hi))
        c = F(rng.randint(-coeff_max, coeff_max))
        terms[key] = terms.get(key, F(0)) + c
    return ExpPoly(terms)


def random_quantity(rng: random.Random, with_patch: bool = False, **kwargs) -> Quantity:
    body = random_poly(rng, **kwargs)
    patch = {}
    if with_patch and rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            patch[rng.randint(1, 100)] = F(rng.randint(-50, 50))
    return Quantity.closed(body, patch)


def random_patch(rng: random.Random, max_index: int = 100) -> dict:
    return {
        rng.randint(1, max_index): F(rng.randint(-50, 50))
        for _ in range(rng.randint(1, 3))
    }


def naive_value(e: ExpPoly, n: int) -> F:
    """Independent evaluation oracle: the sum of c * n**k * b**n, one term at a time."""
    return pairs_value(e.items(), n)


def pairs_value(pairs, n: int) -> F:
    """The sum of c * n**k * b**n over ((b, k), c) pairs of plain Fractions."""
    return sum((c * F(n) ** k * b**n for (b, k), c in pairs), F(0))


def naive_product(a: ExpPoly, b: ExpPoly) -> dict:
    """Independent product oracle: {(base, power): coeff}, term by term in plain Fractions.

    Every pair of terms contributes c1 * c2 at (b1 * b2, k1 + k2); keys whose
    contributions cancel are dropped.
    """
    out: dict = {}
    for (b1, k1), c1 in a.items():
        for (b2, k2), c2 in b.items():
            key = (b1 * b2, k1 + k2)
            out[key] = out.get(key, F(0)) + c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def reference_items(pairs) -> list:
    """Independent canonical order: ((b, k), c) for ((b, k), c) pairs, summed per key.

    Zero sums are dropped, and the rest are sorted on plain Fractions by
    (abs(b), k, b), descending.  It calls nothing from ``seqring``.
    """
    merged: dict = {}
    for (b, k), c in pairs:
        merged[(F(b), k)] = merged.get((F(b), k), F(0)) + F(c)
    kept = [(key, c) for key, c in merged.items() if c != 0]
    return sorted(kept, key=lambda kv: (abs(kv[0][0]), kv[0][1], kv[0][0]), reverse=True)


def reference_render(pairs) -> str:
    """Independent text of the form summed from ((b, k), c) pairs, printed with ``str(Fraction)``."""
    parts = []
    for (b, k), c in reference_items(pairs):
        body = f"{abs(c)}*n^{k}*{b if b > 0 else f'({b})'}^n"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return " ".join(parts) or "0"


def reference_patch_render(body_text: str, patch: dict) -> str:
    """Independent text of a closed quantity from its body's text and its patch.

    ``body_text`` alone when the patch is empty, else
    ``patch(<body_text>, i:v, ...)`` with each entry ``f"{i}:{v}"`` over the
    sorted indices.  It calls nothing from ``seqring``.
    """
    if not patch:
        return body_text
    return f"patch({body_text}, {', '.join(f'{i}:{patch[i]}' for i in sorted(patch))})"


def naive_eval(q: Quantity, n: int) -> F:
    """Independent value of a closed quantity: its patch, else ``naive_value`` of its body.

    A lazy quantity has no independent value; check it against a mirror.
    """
    if not q.is_closed:
        raise TypeError("naive_eval takes closed forms; mirror lazy operations instead")
    return q.patch[n] if n in q.patch else naive_value(q.body, n)


# Plain-Fraction mirrors of the lazy operations.  A mirror maps an index to a
# Fraction through closures alone, never through a seqring node, so a lazy
# quantity built by the same operations must agree with it at every index.
def mirror_closed(q: Quantity):
    return lambda n: naive_eval(q, n)


def mirror_add(f, g):
    return lambda n: f(n) + g(n)


def mirror_sub(f, g):
    return lambda n: f(n) - g(n)


def mirror_mul(f, g):
    return lambda n: f(n) * g(n)


def mirror_neg(f):
    return lambda n: -f(n)


def mirror_delay(f, m: int):
    return lambda n: F(0) if n <= m else f(n - m)


def mirror_pow(f, j: int):
    return lambda n: f(n) ** j


def mirror_extend(fn, f):
    """``calculus.extend`` of the RealFunction whose evaluator is ``fn``."""
    return lambda n: F(fn(f(n)))


def oracle_scan(ok, horizon: int) -> tuple:
    """A lazy verdict as (status, index): the first n past the exempt ceil(h/10) where ok fails."""
    for n in range(-(-horizon // 10) + 1, horizon + 1):
        if not ok(n):
            return ("fails", n)
    return ("holds", horizon)


def oracle_probe_k(horizon: int) -> int:
    """The largest power of 10 at most horizon // 10 (1 below that)."""
    return 10 ** (len(str(horizon // 10)) - 1)


def oracle_compare(f1, f2, claim, horizon: int) -> tuple:
    """compare_lazy's verdict from mirrors: ``claim`` ("less", "equal" or "greater" in its value) at each index."""
    ok = {"less": lambda a, b: a < b, "equal": lambda a, b: a == b, "greater": lambda a, b: a > b}[claim.value]
    return oracle_scan(lambda n: ok(f1(n), f2(n)), horizon)


def oracle_small(f, horizon: int) -> tuple:
    """is_infinitely_small's verdict from a mirror: |f(n)| < 1/k at each index."""
    k = oracle_probe_k(horizon)
    return oracle_scan(lambda n: abs(f(n)) < F(1, k), horizon)


def oracle_great(f, horizon: int) -> tuple:
    """is_infinitely_great's verdict from a mirror: the sign at the horizon, then |f(n)| > k with it."""
    direction = (f(horizon) > 0) - (f(horizon) < 0)
    if direction == 0:
        return ("fails", horizon)
    k = oracle_probe_k(horizon)
    return oracle_scan(lambda n: f(n) * direction > k, horizon)


# Bodies that vanish at some index below 1 once read at n - m, so that a zero
# prefix built over them meets indices where the body is already 0:
# N + 3, N^2 - 9, 2^n - (1/2)^n, 1 + (-1)^n and N^3 - N^2*(-1)^n - 3N + 3*(-1)^n
# vanish near 0; N + 500 at -500 (a hole at n = m - 500), (1/2)^n - 2^40*2^n
# at -20 (n = m - 20), N + N*(-1)^n at 0 and every odd negative index, and N
# at 0 (n = m).
VANISHING_BODIES = [
    ExpPoly({(F(1), 1): F(1), (F(1), 0): F(3)}),
    ExpPoly({(F(1), 2): F(1), (F(1), 0): F(-9)}),
    ExpPoly({(F(2), 0): F(1), (F(1, 2), 0): F(-1)}),
    ExpPoly({(F(1), 0): F(1), (F(-1), 0): F(1)}),
    ExpPoly({(F(1), 3): F(1), (F(-1), 2): F(-1), (F(1), 1): F(-3), (F(-1), 0): F(3)}),
    ExpPoly({(F(1), 1): F(1), (F(1), 0): F(500)}),
    ExpPoly({(F(1, 2), 0): F(1), (F(2), 0): F(-(2**40))}),
    ExpPoly({(F(1), 1): F(1), (F(-1), 1): F(1)}),
    ExpPoly({(F(1), 1): F(1)}),
]


def delay_holes(body: ExpPoly, m: int) -> set:
    """The n in 1..m where ``body`` read at n - m is 0, by ``naive_value``."""
    return {n for n in range(1, m + 1) if naive_value(body, n - m) == 0}


def series_holes(term: ExpPoly, m: int) -> set:
    """The n in 1..m where sum(term(k), k = n + 1..m) is 0, added up by ``naive_value``."""
    holes, tail = set(), F(0)
    for n in range(m, 0, -1):
        if tail == 0:
            holes.add(n)
        tail += naive_value(term, n)
    return holes


def check_zero_prefix(q: Quantity, m: int, expected) -> None:
    """q is 0 at 1..m and ``expected(n)`` at m < n <= m + 5, and its patch is minimal.

    Values are read through the patch and ``naive_value``, and through
    ``eval_at``.  A patch entry equal to the body's own value is redundant.
    """
    for n in range(1, m + 6):
        want = F(0) if n <= m else expected(n)
        assert naive_eval(q, n) == want, n
        assert eval_at(q, n) == want, n
    for i, v in q.patch.items():
        assert v != naive_value(q.body, i), i


def brute_partial_sum(term: ExpPoly, n: int, start: int = 1) -> F:
    """Independent summation oracle: add term values one index at a time."""
    total = F(0)
    for k in range(start, n + 1):
        total += naive_value(term, k)
    return total


def pointwise_verdict(q1: Quantity, q2: Quantity, indices) -> str:
    """Pointwise comparison oracle: 'less'/'greater'/'equal' if uniform, else 'mixed'."""
    seen = set()
    for n in indices:
        a, b = naive_eval(q1, n), naive_eval(q2, n)
        seen.add("less" if a < b else "greater" if a > b else "equal")
    return seen.pop() if len(seen) == 1 else "mixed"


# The even index from which the decision references read eventual signs, at
# SETTLED and SETTLED + 1.  It is late enough for forms over the bases +-1,
# +-1/2, +-2 and +-3/4 with powers -2..2 and at most 8 terms of integer
# coefficients up to 18 in magnitude (a difference of two forms of 4 terms
# up to 9): on one parity a leading group of coefficient at least 1 meets
# at most 8 others, each under 36 times 1/n (same |b|, lower power) or
# n**4 * (3/4)**n (smaller |b|), so their sum is below 1 at n >= 1000, and
# the value there is nonzero with the leading group's sign.
SETTLED = 1000


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _term_vanishes(b: F, k: int) -> bool:
    """n**k * b**n tends to 0: |b| < 1, or |b| = 1 and k < 0."""
    return abs(b) < 1 or (abs(b) == 1 and k < 0)


def _term_grows(b: F, k: int) -> bool:
    """n**k * b**n is unbounded: |b| > 1, or |b| = 1 and k > 0."""
    return abs(b) > 1 or (abs(b) == 1 and k > 0)


def reference_signs(pairs) -> tuple:
    """The signs of the sum of ((b, k), c) pairs at the even SETTLED and the odd SETTLED + 1."""
    return tuple(_sign(pairs_value(pairs, n)) for n in (SETTLED, SETTLED + 1))


def reference_classify(e: ExpPoly) -> tuple:
    """(kind, standard part) by the term rules on ``items()`` and ``reference_signs``.

    zero: no term.  infinitesimal: every term tends to 0.  finite: every
    term tends to 0 but the constant 1**n, whose coefficient is the standard
    part.  Otherwise the growing terms decide: inf+ (inf-) when their sum is
    positive (negative) at a large even and a large odd index, where it grows
    without bound unless it is 0 on that parity, and else oscillating.
    """
    items = e.items()
    if not items:
        return "zero", None
    if all(_term_vanishes(b, k) for (b, k), _ in items):
        return "infinitesimal", None
    if all(_term_vanishes(b, k) or (b, k) == (1, 0) for (b, k), _ in items):
        return "finite", dict(items)[(F(1), 0)]
    signs = reference_signs([(key, c) for key, c in items if _term_grows(*key)])
    return {(1, 1): "inf+", (-1, -1): "inf-"}.get(signs, "oscillating"), None


def reference_dominant(e: ExpPoly, parity: int):
    """The largest (|b|, k) whose terms do not cancel on indices n with n % 2 == parity, or None.

    On such n the term c * n**k * b**n is c * n**k * |b|**n times sign(b)**parity.
    """
    combined: dict = {}
    for (b, k), c in e.items():
        combined[(abs(b), k)] = combined.get((abs(b), k), F(0)) + (c if b > 0 or not parity else -c)
    return max((key for key, c in combined.items() if c), default=None)


def reference_infinitely_greater(e1: ExpPoly, e2: ExpPoly) -> bool:
    """Whether e1 > k * e2 eventually for every natural k, read parity by parity at SETTLED.

    Where e2 is 0, e1 must be positive.  Where e2 is negative, k = 1 binds,
    so e1 - e2 must be positive.  Where e2 is positive, e1 must be positive
    and dominate e2 with a larger (|b|, k).
    """
    for n in (SETTLED, SETTLED + 1):
        v1, v2 = naive_value(e1, n), naive_value(e2, n)
        if v2 == 0:
            ok = v1 > 0
        elif v2 < 0:
            ok = v1 > v2
        else:
            d1, d2 = reference_dominant(e1, n % 2), reference_dominant(e2, n % 2)
            ok = v1 > 0 and d1 > d2
        if not ok:
            return False
    return True


def lex_poly_compare(p1: ExpPoly, p2: ExpPoly) -> str:
    """Descending-lexicographic coefficient comparison for base-1 polynomials."""
    degree = max(
        [k for (_, k), _ in p1.items()] + [k for (_, k), _ in p2.items()] + [0]
    )
    for k in range(degree, -1, -1):
        a, b = p1.coeff(1, k), p2.coeff(1, k)
        if a != b:
            return "less" if a < b else "greater"
    return "equal"


def sqrt2_truncations():
    """A fresh n -> first n decimal digits of sqrt(2), as an exact rational (truncated, not rounded).

    That is a_n / 10**n with a_n = isqrt(2 * 10**(2n)).  With the remainder
    r_n = 2 * 10**(2n) - a_n**2, the next digit is the largest d <= 9 with
    d * (20 * a_n + d) <= 100 * r_n, and a_(n+1) = 10 * a_n + d.  Each
    evaluator keeps its last (n, a_n, r_n), so consecutive n step by one
    digit and pay no isqrt; any other n restarts from isqrt.  The value
    depends on n alone.
    """
    last = [0, 1, 1]

    def truncation(n: int) -> F:
        m, a, r = last
        if n == m + 1:
            c, a20 = 100 * r, 20 * a
            d = min(9, c // a20)
            while d * (a20 + d) > c:
                d -= 1
            a, r = 10 * a + d, c - d * (a20 + d)
        elif n != m:
            square = 2 * 10 ** (2 * n)
            a = isqrt(square)
            r = square - a * a
        last[:] = n, a, r
        return F(a, 10**n)

    return truncation


def lazy_sqrt2() -> Quantity:
    return Quantity.lazy(sqrt2_truncations(), "sqrt2 decimal truncations")


# Continued-fraction convergent of sqrt(2); |sqrt(2) - p/q| < 1/q^2 ~ 4.5e-12.
SQRT2_CONVERGENT = F(665857, 470832)


REFERENCE_PUNCT = {
    "->": "ARROW", "==": "EQEQ", "+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
    "/": "SLASH", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON", "=": "EQ",
}


def reference_tokens(src: str):
    """Tokens ``(kind, text, col)`` of an expression-language line, or the column of the
    first character that starts no token.

    Steps through ``src`` one character at a time and uses nothing from seqring.
    Space, tab, CR and LF separate tokens. A number is a run of ``str.isdecimal``
    characters, optionally followed by '.' and another such run. A name starts with
    a ``str.isalpha`` character or '_' and goes on with those and decimal digits.
    The list ends with ``("EOF", "", len(src) + 1)``.
    """
    tokens, i = [], 0
    while i < len(src):
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        j = i + 1
        if src[i : i + 2] in REFERENCE_PUNCT:
            kind, j = REFERENCE_PUNCT[src[i : i + 2]], i + 2
        elif ch in REFERENCE_PUNCT:
            kind = REFERENCE_PUNCT[ch]
        elif ch.isdecimal():
            kind = "NUM"
            while j < len(src) and src[j].isdecimal():
                j += 1
            if src[j : j + 1] == "." and src[j + 1 : j + 2].isdecimal():
                j += 2
                while j < len(src) and src[j].isdecimal():
                    j += 1
        elif ch.isalpha() or ch == "_":
            kind = "IDENT"
            while j < len(src) and (src[j].isalpha() or src[j].isdecimal() or src[j] == "_"):
                j += 1
        else:
            return i + 1
        tokens.append((kind, src[i:j], i + 1))
        i = j
    tokens.append(("EOF", "", len(src) + 1))
    return tokens
