"""Symbolic summation: series term rules to closed-form partial sums.

A series is given by its term rule, an exponential polynomial in the
summation variable k.  Partial sums of k**j come from Faulhaber's formula
over an exact Bernoulli table; partial sums of k**j * b**k (b != 1) come
from solving the defining difference equation for the known closed-form
shape, an upper-triangular rational system.  Both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import BaseOne, DegreeCapExceeded, InvalidTerm, NegativePowerTerm
from .quantity import ExpPoly, Quantity, _rat, embed_scalar

DEGREE_CAP = 16


@lru_cache(maxsize=None)
def bernoulli_numbers(cap: int) -> tuple[Fraction, ...]:
    """B_0..B_cap by the binomial recurrence sum(C(m+1, j) * B_j, j=0..m) = 0.

    This is the B_1 = -1/2 convention.
    """
    values = [Fraction(1)]
    for m in range(1, cap + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / Fraction(m + 1))
    return tuple(values)


def faulhaber_sum(j: int) -> ExpPoly:
    """Exact closed form of sum(k**j, k=1..n) as a base-1 polynomial of degree j + 1."""
    if j < 0:
        raise NegativePowerTerm("faulhaber_sum needs a nonnegative power")
    if j > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {j} above cap {DEGREE_CAP}")
    bern = bernoulli_numbers(j)
    coeffs = {}
    for i in range(j + 1):
        # The (-1)**i flips B_1 to +1/2, giving the sum from k = 1 through n.
        c = Fraction((-1) ** i * comb(j + 1, i), j + 1) * bern[i]
        if c != 0:
            coeffs[(Fraction(1), j + 1 - i)] = c
    return ExpPoly(coeffs)


def geometric_power_sum(j: int, b) -> ExpPoly:
    """Exact closed form of sum(k**j * b**k, k=1..n) for b not in {0, 1}.

    The sum is A + p(n) * b**n with deg(p) <= j.  Matching the difference
    equation G(n) - G(n-1) = n**j * b**n coefficient by coefficient gives an
    upper-triangular system with diagonal 1 - 1/b; G(0) = 0 fixes the
    constant A = -p(0).  It is solved on integers: with b = u/v and
    w = u - v, the coefficient of n**i is c_i = f_i / w**(j - i + 1), where
    f_j = u and, by back substitution,
    f_p = v * sum((-1)**(i - p) * C(i, p) * w**(i - p - 1) * f_i, i = p+1..j).
    Over the one denominator |w|**(j + 1), c_i has the numerator
    f_i * w**i * sign(w)**(j + 1), and no ``Fraction`` is built.
    """
    b = _rat(b)
    if j < 0:
        raise NegativePowerTerm("geometric_power_sum needs a nonnegative power")
    if j > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {j} above cap {DEGREE_CAP}")
    if b == 1:
        raise BaseOne("base 1 has no geometric closed form; use faulhaber_sum")
    if b == 0:
        raise InvalidTerm("term base must be nonzero", operation="geometric_power_sum")
    u, v = b.numerator, b.denominator
    w = u - v
    f = [0] * (j + 1)
    f[j] = u
    for p in range(j - 1, -1, -1):
        terms = ((-1) ** (i - p) * comb(i, p) * w ** (i - p - 1) * f[i] for i in range(p + 1, j + 1))
        f[p] = v * sum(terms)
    sign = -1 if w < 0 and j % 2 == 0 else 1  # sign(w)**(j + 1)
    coeffs = {(u, v, i): sign * f[i] * w**i for i in range(j + 1) if f[i]}
    if f[0]:
        coeffs[(1, 1, 0)] = -sign * f[0]
    return ExpPoly._reduced(coeffs, abs(w) ** (j + 1))


@dataclass(frozen=True)
class Series:
    """A term rule in the summation variable k, summed from ``start``."""

    term: ExpPoly
    start: int = 1

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("series start must be >= 1")


def partial_sums(s: Series) -> Quantity:
    """The quantity of partial sums: value at n is sum(term(k), k=start..n), 0 below start.

    From start = m + 1 > 1 the body is S(n) - S(m), with S the closed form
    from k = 1.  Its prefix holes, the n <= m where S(n) = S(m), are found on
    the body reflected at m (``Quantity.zero_prefixed``).  When every base
    of the term has |b| > 1, the reflected body is led by its constant, and
    only a window of t = m - n near 0 is evaluated.  Otherwise the window can
    reach the whole prefix: a polynomial term's reflection can vanish
    anywhere in it, and all of its m indices are then evaluated.
    """
    total = ExpPoly.zero()
    for (base, power), coeff in s.term.items():
        if power < 0:
            raise NegativePowerTerm(f"series term has negative power {power}")
        part = faulhaber_sum(power) if base == 1 else geometric_power_sum(power, base)
        total = total + part.scale(coeff)
    if s.start == 1:
        return Quantity.closed(total)
    head = total.value_at(s.start - 1)
    body = total - ExpPoly.constant(head)
    return Quantity.zero_prefixed(body, s.start - 1)


def omit_first(s: Series, m: int) -> Quantity:
    """Drop the first m terms: 0 up to index m, then S(n) - S(m)."""
    if m < 0:
        raise ValueError("cannot omit a negative number of terms")
    return partial_sums(Series(s.term, max(s.start, m + 1)))


def geometric_series_sums(e) -> Quantity:
    """Partial sums (1 - e**n) / (1 - e) of the unit-led geometric series.

    The series starts with the 0th power of e, so the term rule from k = 1
    is e**(k-1), i.e. coefficient 1/e on base e.  Degenerate bases: e = 0
    gives the constant 1, e = 1 gives the sequence (n).
    """
    e = _rat(e)
    if e == 0:
        return embed_scalar(1)
    if e == 1:
        return partial_sums(Series(ExpPoly.constant(1)))
    return partial_sums(Series(ExpPoly.single(1 / e, 0, e)))
