"""Independent exact arithmetic for the benchmark's expected answers.

Nothing here imports seqring.  Expected answers come from construction (the
generator places a known dominant term) or from evaluating the definition
with plain ``Fraction``s.  The program's JSON renderings are read back by a
small reader of our own and evaluated at sampled indices.

A form is a list of ``(coeff, power, base)`` triples denoting the sequence
``n -> sum(coeff * n**power * base**n)``, indexed from n = 1.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction as F
from math import comb

ZERO = F(0)
# CPython's default limit on the decimal digits of an int that str() writes.
# The default, not the current setting, so the program cannot move it.
STR_DIGITS_LIMIT = sys.int_info.default_max_str_digits
_TOO_LONG = 10**STR_DIGITS_LIMIT


def sign(x) -> int:
    return (x > 0) - (x < 0)


def value(form, n: int) -> F:
    """Exact value of a form at index n."""
    total = ZERO
    for c, k, b in form:
        total += c * F(n) ** k * b**n
    return total


def shifted(form, m: int):
    """The form of n -> form(n - m), re-expanded by the binomial theorem into terms c * n**j * b**n."""
    out: dict = {}
    for c, k, b in form:
        for j in range(k + 1):
            out[(b, j)] = out.get((b, j), ZERO) + c * b ** (-m) * comb(k, j) * F(-m) ** (k - j)
    return [(c, j, b) for (b, j), c in out.items() if c]


def printable(form) -> bool:
    """Whether every coefficient of a form has at most STR_DIGITS_LIMIT digits
    in its numerator and its denominator, so that ``str`` can write it."""
    return all(abs(c.numerator) < _TOO_LONG and c.denominator < _TOO_LONG for c, _, _ in form)


def vanishes(base: F, power: int) -> bool:
    """Whether the term n**power * base**n tends to 0."""
    return abs(base) < 1 or (abs(base) == 1 and power < 0)


# ------------------------------------------------------------------
# A dominant term, placed by construction
# ------------------------------------------------------------------


class Lead:
    """The unique dominant term ``coeff * n**power * base**n`` of a form.

    Its group (|base|, power) is strictly above every other term's group, so
    the eventual sign of the form on even indices is sign(coeff) and on odd
    indices sign(coeff) * sign(base).
    """

    __slots__ = ("coeff", "power", "base")

    def __init__(self, coeff: F, power: int, base: F):
        self.coeff, self.power, self.base = coeff, power, base

    @property
    def group(self):
        return (abs(self.base), self.power)

    def signs(self) -> tuple[int, int]:
        s = sign(self.coeff)
        return s, s * sign(self.base)

    def __neg__(self) -> "Lead":
        return Lead(-self.coeff, self.power, self.base)

    def pow(self, p: int) -> "Lead":
        return Lead(self.coeff**p, self.power * p, self.base**p)

    def classify(self) -> str:
        """Taxonomy token of any form whose dominant term is this one."""
        if vanishes(self.base, self.power):
            return "infinitesimal"
        if self.group == (1, 0):
            return "finite" if self.base == 1 else "oscillating"
        even, odd = self.signs()
        if even == odd:
            return "inf+" if even > 0 else "inf-"
        return "oscillating"


def cmp_token(diff: Lead) -> str:
    """Verdict of cmp(q1, q2) when q2 - q1 has the dominant term ``diff``."""
    even, odd = diff.signs()
    if even > 0 and odd > 0:
        return "less"
    if even < 0 and odd < 0:
        return "greater"
    return "incomparable"


def top_of_difference(a: Lead, b: Lead) -> Lead:
    """Dominant term of (b - a) when a and b lie in different groups."""
    if a.group == b.group:
        raise ValueError("equal groups: the difference's dominant term is not known by construction")
    return b if b.group > a.group else -a


def infgreater_token(a: Lead, b: Lead) -> str:
    """Whether a exceeds every natural multiple of b, per parity class.

    Where b is eventually positive, a must be positive in a strictly higher
    group.  Where b is eventually negative, a - k*b >= a - b for k >= 1, so
    a - b must be eventually positive.
    """
    top = top_of_difference(b, a)  # dominant term of a - b
    for parity in (0, 1):
        s_a, s_b, s_d = a.signs()[parity], b.signs()[parity], top.signs()[parity]
        ok = (s_a > 0 and a.group > b.group) if s_b > 0 else s_d > 0
        if not ok:
            return "no"
    return "yes"


# ------------------------------------------------------------------
# Series constants
# ------------------------------------------------------------------


def eulerian_row(j: int) -> list[int]:
    """Eulerian numbers A(j, 0..j) by A(j,i) = (i+1) A(j-1,i) + (j-i) A(j-1,i-1)."""
    row = [1]
    for m in range(1, j + 1):
        row = [
            (i + 1) * (row[i] if i < len(row) else 0) + (m - i) * (row[i - 1] if i >= 1 else 0)
            for i in range(m + 1)
        ]
    return row


def polylog_neg(j: int, b: F) -> F:
    """sum(k**j * b**k, k >= 1) for |b| < 1: b * A_j(b) / (1 - b)**(j + 1)."""
    if not abs(b) < 1:
        raise ValueError("series diverges")
    poly = sum(a * b**i for i, a in enumerate(eulerian_row(j))) if j > 0 else F(1)
    return b * poly / (1 - b) ** (j + 1)


def series_lead(c: F, j: int, b: F) -> Lead:
    """Dominant term of the partial sums of c * k**j * b**k."""
    if b == 1:
        return Lead(c / (j + 1), j + 1, F(1))
    if abs(b) > 1:
        return Lead(c * b / (b - 1), j, b)
    if abs(b) < 1:
        return Lead(c * polylog_neg(j, b), 0, F(1))
    raise ValueError("base -1 partial sums have no single dominant term")


def partial_sum(terms, n: int) -> F:
    """sum(term(k), k = 1..n) by direct addition."""
    return sum((value(terms, k) for k in range(1, n + 1)), ZERO)


# ------------------------------------------------------------------
# Horizon-bounded checks, as the order and calculus docstrings define them
# ------------------------------------------------------------------


def exempt_start(horizon: int) -> int:
    """First index checked: the first ceil(horizon/10) indices are exempt."""
    return -(-horizon // 10) + 1


def probe_k(horizon: int) -> int:
    """The largest power of ten k <= horizon/10, the bound of the infinitely small/great checks."""
    k = 1
    while k * 10 <= horizon // 10:
        k *= 10
    return k


def estimate(values, window: int) -> dict:
    """A sampled standard part: the median of the window and its spread, as serialized."""
    s = sorted(values)
    mid = len(s) // 2
    median = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
    return {"value": rat(median), "window": window, "spread": rat(s[-1] - s[0])}


def rat(x: F | None):
    """A rational as the "p/q" string of seqring's JSON, or None."""
    return None if x is None else f"{x.numerator}/{x.denominator}"


# ------------------------------------------------------------------
# Reading the program's renderings
# ------------------------------------------------------------------

_RAT = r"\d+(?:/\d+)?"
_TERM = re.compile(
    rf"(?P<sign>-|[+-] )?(?P<c>{_RAT})\*n\^(?P<k>-?\d+)\*(?:\((?P<nb>-{_RAT})\)|(?P<pb>{_RAT}))\^n"
)


class RenderingError(ValueError):
    pass


def read_form(text: str):
    """Parse ``c*n^k*b^n +/- ...`` into a form; ``0`` is the empty form."""
    if text == "0":
        return []
    form, pos = [], 0
    while pos < len(text):
        if form:
            if text[pos] != " ":
                raise RenderingError(f"expected a separator at {pos}")
            pos += 1
        m = _TERM.match(text, pos)
        if m is None or (form and not m.group("sign")) or (not form and m.group("sign") not in (None, "-")):
            raise RenderingError(f"unreadable term at {pos}: {text[pos:pos + 40]!r}")
        c = F(m.group("c"))
        if m.group("sign") and m.group("sign").startswith("-"):
            c = -c
        base = F(m.group("nb") or m.group("pb"))
        form.append((c, int(m.group("k")), base))
        pos = m.end()
    return form


def read_quantity(text: str):
    """Parse a closed-form rendering, with or without ``patch(...)``, into (form, overrides)."""
    if not text.startswith("patch("):
        return read_form(text), {}
    if not text.endswith(")"):
        raise RenderingError("unterminated patch")
    body, *entries = text[len("patch(") : -1].split(", ")
    overrides = {}
    for entry in entries:
        index, _, val = entry.partition(":")
        overrides[int(index)] = F(val)
    return read_form(body), overrides


def rendered_value(form, overrides, n: int) -> F:
    """Value of a read-back quantity at n: an override wins over the body."""
    if n in overrides:
        return overrides[n]
    return value(form, n)
