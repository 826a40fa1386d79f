"""Frechet-filter comparison, order relations, and classification.

Two sequences are Frechet-equal when they agree at all but finitely many
indices, and strictly ordered when one is strictly below the other at every
sufficiently large index.  On canonical closed forms both relations are
decidable; the decision device is the parity split:

Restricted to even (or odd) indices, a term with base -B collapses onto the
base +B term of the same (|base|, power) group, with combined coefficient
c_plus + c_minus on even indices and c_plus - c_minus on odd ones.  Each
parity restriction is therefore an exponential polynomial with positive
bases, whose eventual sign is the sign of its dominant group in the
(|base| desc, power desc) lexicographic order: a base ratio above 1 outgrows
any power gap, and with equal bases the higher power wins.  No deeper
periodicity can occur because bases enter only as +B/-B pairs.
Every exact decision reads that table alone, from ``ExpPoly.groups``:
integer rows (|num|, den, power, a) of coefficient a / D, D > 0.

Lazy sequences get horizon-bounded semi-decisions instead: a Verdict that
either reports a concrete counterexample index or states the horizon up to
which the claim was checked.  The first tenth of the indices is exempt, as a
finite-prefix tolerance mirroring "all but finitely many".  A sampled verdict
(``classify_lazy`` and ``calculus``'s) reads the two windows of ``windows``.
Each other lazy verdict is a list of sign claims op(c + k*q(n), 0), and one
scan (``_claim_scan``) tests them on the DAG after ``quantity.fold``, whose
values are the same at every index, so a lazy input still gets the same
Verdict, never an exact answer.  When the folded DAG is one closed form, the
scan reads it pointwise only below its tail start N0 (``quantity._tail_start``
of the parity table), past which that table fixes every sign, and takes the
rest of the verdict from it: a claim that holds there holds at every index
from the first checked one on, and one that fails there fails at the first
index, past N0 and the exempt prefix, of a parity with the wrong sign that
no override covers, or at an earlier override that breaks it.  The verdict
and witness are the full scan's.
"""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .errors import LazyInput, ZeroDivisor
from .quantity import ExpPoly, IntGroup, Quantity, _tail_start, fold, reader, sub, values

DEFAULT_HORIZON = 10_000
DEFAULT_WINDOW = 50
DEFAULT_TOL = Fraction(1, 10**6)


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ParitySign:
    """Eventual signs (-1, 0, +1) of a closed form on even and odd indices."""

    even: int
    odd: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of a horizon-bounded check on a lazy claim."""

    status: str  # "holds" | "fails" | "unknown"
    checked_up_to: int | None = None
    witness: int | None = None
    horizon: int | None = None

    @classmethod
    def holds(cls, checked_up_to: int) -> "Verdict":
        return cls("holds", checked_up_to=checked_up_to)

    @classmethod
    def fails(cls, witness: int) -> "Verdict":
        return cls("fails", witness=witness)

    @classmethod
    def unknown(cls, horizon: int) -> "Verdict":
        return cls("unknown", horizon=horizon)


@dataclass(frozen=True)
class Classification:
    """Position of a quantity in the infinitesimal/finite/infinite taxonomy.

    kind is one of "zero", "infinitesimal", "finite", "inf+", "inf-",
    "oscillating"; standard_part is set exactly when kind is "finite".
    """

    kind: str
    standard_part: Fraction | None = None


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _lead_sign(rows: list[IntGroup]) -> int:
    # One parity's eventual sign: its first row's a (D > 0), or 0 with no row.
    return _sign(rows[0][3]) if rows else 0


# The row of the constant 1**n.  A row's n**power * |base|**n tends to 0, is
# 1 or is unbounded as ``_versus`` puts it below, at or above _ONE.
_ONE = (1, 1, 0, 1)


def _versus(row1: IntGroup, row2: IntGroup) -> int:
    # -1, 0 or +1 as (|base1|, power1) is below, equal to or above
    # (|base2|, power2), |base| = num / den compared by cross-multiplication.
    return _sign(row1[0] * row2[1] - row2[0] * row1[1]) or _sign(row1[2] - row2[2])


def _limit(rows: list[IntGroup]) -> int | None:
    # One parity's limit over D: 0 when its first row (if any) tends to 0, a
    # when it is the constant (1, 1, 0, a) and the next (if any) does; else None.
    if not rows or _versus(rows[0], _ONE) < 0:
        return 0
    if _versus(rows[0], _ONE) == 0 and (len(rows) == 1 or _versus(rows[1], _ONE) < 0):
        return rows[0][3]
    return None


def eventual_sign(e: ExpPoly) -> ParitySign:
    """Eventual sign of the sequence on each parity class."""
    even, odd, _ = e.groups()
    return ParitySign(_lead_sign(even), _lead_sign(odd))


def compare(q1: Quantity, q2: Quantity) -> Comparison:
    """Exact Frechet comparison of closed forms.

    Patches are ignored: finite index sets never decide equality or order.
    INCOMPARABLE covers every eventual sign pattern of the difference other
    than strictly-positive-on-both-parities and strictly-negative-on-both,
    because the strict order requires strict inequality at every large index.
    """
    if not (q1.is_closed and q2.is_closed):
        raise LazyInput("compare needs closed forms; use compare_lazy")
    s = eventual_sign(q2.body - q1.body)  # (0, 0) exactly when the bodies are equal
    by_sign = {(1, 1): Comparison.LESS, (0, 0): Comparison.EQUAL, (-1, -1): Comparison.GREATER}
    return by_sign.get((s.even, s.odd), Comparison.INCOMPARABLE)


def check_horizon(horizon: int, window: int = 1) -> tuple[int, int]:
    """(horizon, window) as ints, checked before any index is evaluated.

    A non-integer is a TypeError (``operator.index``; a bool counts as its
    int), and a horizon below 1 or a window outside 1..horizon a ValueError.
    Callers scan with the returned ints.
    """
    horizon, window = operator.index(horizon), operator.index(window)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 1 <= window <= horizon:
        raise ValueError("window must be between 1 and the horizon")
    return horizon, window


def first_checked_index(horizon: int) -> int:
    """First index a lazy check evaluates: past the exempt first ceil(horizon/10)."""
    return -(-horizon // 10) + 1


def windows(horizon: int, window: int) -> tuple[range, range]:
    """(early, tail): the disjoint index windows in 1..horizon of every sampled verdict.

    tail is the last ``window`` indices; early the first ``window`` checked
    ones, cut before tail.start, and empty unless the tail starts at twice
    the first checked index or later: closer windows cannot tell a decaying
    gap from a stuck one, since a gap of order 1/n halves only as n doubles.
    """
    tail, first = range(horizon - window + 1, horizon + 1), first_checked_index(horizon)
    end = min(first + window, tail.start) if tail.start >= 2 * first else first
    return range(first, end), tail


def _claim_scan(q: Quantity, claims: list[tuple[int, int, Callable[[int, int], bool]]], horizon: int) -> Verdict:
    """The verdict on 1..horizon of the sign claims (c, k, op): op(c + k * q(n), 0), c and k integers.

    q is folded here (``fold``) and read through its one ``reader``.  A
    value a/b (b > 0) passes where op(c * b + k * a, 0), of the sign of
    c + k * a/b, holds for every claim: that one test serves each read and
    each override.  A lazy q is read at every checked index.  A closed q is
    read only below N0, the largest ``_tail_start`` of the parity tables
    (``ExpPoly.groups``) of the claims' closed forms c + k * body, each
    table built once.  From N0 on, each form has at every non-override
    index of a parity the sign of that parity's lead group (0 with no
    group).  A claim that such a sign breaks fails first at the
    parity's first non-override index at or past max(first checked, N0),
    and each override up to the horizon is tested as the value it holds,
    found through the patch or through the indices up to the horizon,
    whichever is shorter.  The verdict and witness are the full scan's.
    """

    def ok(a: int, b: int) -> bool:
        for c, k, op in claims:
            if not op(c * b + k * a, 0):
                return False
        return True

    q, first, end = fold(q), first_checked_index(horizon), horizon
    if q.is_closed:
        patch = q.patch
        tables = [((ExpPoly.constant(c) + q.body.scale(k)).groups(), op) for c, k, op in claims]
        end = min(horizon, max(_tail_start(table, horizon + 1) for table, _ in tables) - 1)
    read = reader(q)
    for n in range(first, end + 1):
        if not ok(*read(n)):
            return Verdict.fails(n)
    if end == horizon:
        return Verdict.holds(horizon)
    start = max(first, end + 1)
    indices = patch if len(patch) <= horizon - start else range(start, horizon + 1)
    witnesses = [
        i for i in indices
        if start <= i <= horizon and i in patch and not ok(patch[i].numerator, patch[i].denominator)
    ]
    for table, op in tables:
        for parity, rows in enumerate(table[:2]):  # even n, then odd n
            if not op(_lead_sign(rows), 0):
                n = start + (start - parity) % 2
                while n <= horizon and n in patch:
                    n += 2
                witnesses.append(n)
    witness = min(witnesses, default=horizon + 1)
    return Verdict.fails(witness) if witness <= horizon else Verdict.holds(horizon)


_CLAIMS = {Comparison.LESS: operator.lt, Comparison.EQUAL: operator.eq, Comparison.GREATER: operator.gt}


def compare_lazy(
    q1: Quantity, q2: Quantity, claim: Comparison, horizon: int = DEFAULT_HORIZON
) -> Verdict:
    """Pointwise semi-decision of a claimed relation on indices 1..horizon.

    The first ceil(horizon/10) indices are exempt; a violation past the
    exemption window yields Fails with the smallest violating index.  The
    claim is the one sign claim op(q1 - q2, 0), which ``_claim_scan`` reads
    from the difference q1 - q2 of the ring operations through one
    ``reader``.  It folds to one closed form when every node of it folds
    (``quantity.fold``); else it is read as built, so a leaf read by both
    sides is stepped once per index and a constant leaf once.  A lazy
    difference is read at every checked index.  A closed one is read only
    below its tail start N0, and its eventual parity signs certify the rest:
    a claim that holds past N0 holds at every later index, beyond the
    horizon too, and one that fails there fails at the first index of the
    wrong parity at or past the first checked one and N0.  A nonzero
    difference times n**K, K clearing its negative powers, satisfies a
    linear recurrence of some order r, so it is 0 at fewer than r
    consecutive indices and fails EQUAL within r indices of the first
    checked one; the zero difference holds EQUAL with no read.
    """
    horizon, _ = check_horizon(horizon)
    if claim not in _CLAIMS:
        raise ValueError("claim must be LESS, EQUAL or GREATER")
    return _claim_scan(sub(q1.as_lazy(), q2.as_lazy()), [(0, 1, _CLAIMS[claim])], horizon)


def _probe_k(horizon: int) -> int:
    k = 1
    while k * 10 <= horizon // 10:
        k *= 10
    return k


def is_infinitely_small(q: Quantity, horizon: int = DEFAULT_HORIZON):
    """Whether |q| eventually drops below 1/k for every k.

    Closed forms answer exactly (True/False): ``classify`` finds zero or an
    infinitesimal.  Lazy sequences get a Verdict testing |q(n)| < 1/k past
    the exemption window, with k probed up to horizon/10 (larger k would
    falsely fail honest infinitesimals like (1/n) inside the horizon), as
    the two sign claims 1 - k*q > 0 and 1 + k*q > 0 that ``_claim_scan``
    reads from ``fold(q)``, once per index for both.  When q folds to one
    closed form, it is read below the larger of their tail starts,
    overrides are checked as they stand, and the parity signs of both forms
    decide every other index (see ``compare_lazy``).  The horizon is
    checked first on both paths.
    """
    horizon, _ = check_horizon(horizon)
    if q.is_closed:
        return classify(q).kind in ("zero", "infinitesimal")
    k = _probe_k(horizon)
    return _claim_scan(q, [(1, -k, operator.gt), (1, k, operator.gt)], horizon)  # 1 -+ k * q > 0


def is_infinitely_great(q: Quantity, horizon: int = DEFAULT_HORIZON):
    """+1 if q eventually exceeds every constant, -1 symmetrically, 0 otherwise.

    Needs unbounded one-signed growth on BOTH parity classes (``classify``);
    parity-mixed growth such as (0, 2, 0, 4, ...) is not infinitely great.
    Lazy sequences get a Verdict: the tail sign is sampled at the horizon
    (``values``), then |q(n)| > k is required past the exemption window for
    the probed k, as the sign claim direction*q - k > 0 that ``_claim_scan``
    reads from ``fold(q)``.  When q folds to one closed form, it is read
    below the claim's tail start, overrides are checked as they stand, and
    its parity signs decide every other index (see ``compare_lazy``).  The
    horizon is checked first on both paths.
    """
    horizon, _ = check_horizon(horizon)
    if q.is_closed:
        return {"inf+": 1, "inf-": -1}.get(classify(q).kind, 0)
    direction = _sign(values(q)(horizon))
    if direction == 0:
        return Verdict.fails(horizon)
    # With direction = +-1 and bound >= 1: same sign as direction and |q(n)| > bound.
    bound = _probe_k(horizon)
    return _claim_scan(q, [(-bound, direction, operator.gt)], horizon)  # direction * q - bound > 0


def infinitely_greater(q1: Quantity, q2: Quantity) -> bool:
    """Whether q1 exceeds every natural multiple k*q2 in the Frechet order.

    Decided per parity class.  Where q2's restriction vanishes identically,
    q1's must be eventually positive.  Where q2 is eventually negative the
    k = 1 instance binds (larger k only loosens it), so q1 - q2 must be
    eventually positive there.  Where q2 is eventually positive the
    constraint tightens as k grows, so q1 must dominate with a strictly
    higher (|base|, power) group and a positive leading coefficient.
    """
    if not (q1.is_closed and q2.is_closed):
        raise LazyInput("infinitely_greater needs closed forms")
    (e1, o1, _), (e2, o2, _), (ed, od, _) = (e.groups() for e in (q1.body, q2.body, q1.body - q2.body))
    for r1, r2, rd in ((e1, e2, ed), (o1, o2, od)):
        if not r2:
            ok = _lead_sign(r1) > 0
        elif r2[0][3] < 0:
            ok = _lead_sign(rd) > 0
        else:
            ok = _lead_sign(r1) > 0 and _versus(r1[0], r2[0]) > 0
        if not ok:
            return False
    return True


def infinitely_close(q1: Quantity, q2: Quantity, horizon: int = DEFAULT_HORIZON):
    """Whether the difference is infinitely small (zero difference counts); closed forms read bodies only.

    ``is_infinitely_small`` checks the horizon first, on closed forms too.
    """
    closed = q1.is_closed and q2.is_closed
    return is_infinitely_small(Quantity.closed(q1.body - q2.body) if closed else sub(q1, q2), horizon)


def classify(q: Quantity) -> Classification:
    """Exact taxonomy of a closed form.

    A parity has a limit (``_limit``) when its first group tends to 0, or is
    the constant 1**n and the next tends to 0.  With equal limits L on both
    parities the form is zero (no group), infinitesimal (L = 0) or finite,
    with standard part L.  inf+/inf-: the first group of both parities grows
    without bound, with one sign.  oscillating: everything else (no limit,
    no eventual relation to the constants).
    """
    if not q.is_closed:
        raise LazyInput("classify needs a closed form; use classify_lazy")
    even, odd, den = q.body.groups()
    limit = _limit(even)
    if limit is not None and limit == _limit(odd):
        if limit:
            return Classification("finite", Fraction(limit, den))
        return Classification("infinitesimal" if even or odd else "zero")
    great = tuple(_lead_sign(rows) if rows and _versus(rows[0], _ONE) > 0 else 0 for rows in (even, odd))
    return Classification({(1, 1): "inf+", (-1, -1): "inf-"}.get(great, "oscillating"))


def classify_lazy(
    q: Quantity,
    horizon: int = DEFAULT_HORIZON,
    window: int = DEFAULT_WINDOW,
    tol: Fraction = DEFAULT_TOL,
) -> Classification | None:
    """Horizon-based estimate for lazy sequences; None when the tail is inconclusive.

    q is read once per index of the early and tail windows (``windows``); an
    empty early window has magnitude 0.  A "finite" result carries the tail's
    upper median as an estimated standard part.  This is evidence, not proof:
    only a closed form can be classified exactly (``classify``).  Both paths
    first need 1 <= window <= horizon (ValueError otherwise).
    """
    horizon, window = check_horizon(horizon, window)
    if q.is_closed:
        return classify(q)
    value = values(q)
    early, tail = ([value(n) for n in w] for w in windows(horizon, window))
    if all(v == 0 for v in tail):
        return Classification("zero")
    tail_mag = max(abs(v) for v in tail)
    early_mag = max((abs(v) for v in early), default=0)
    if tail_mag < tol or (tail_mag * 2 <= early_mag and tail_mag < Fraction(1, 100)):
        return Classification("infinitesimal")
    if max(tail) - min(tail) < tol:
        return Classification("finite", statistics.median_high(tail))
    bound = _probe_k(horizon)
    if all(v > bound for v in tail):
        return Classification("inf+")
    if all(v < -bound for v in tail):
        return Classification("inf-")
    return None


def proportionality_constant(q1: Quantity, q2: Quantity) -> Fraction | None:
    """The exact constant c with q1 = c * q2, or None if there is none.

    The candidate is read off the coefficients at q2's dominant key and then
    verified by exact comparison, so a returned constant is always sound.
    """
    if not (q1.is_closed and q2.is_closed):
        raise LazyInput("proportionality_constant needs closed forms")
    if q2.body.is_zero:
        raise ZeroDivisor("ratio against a quantity equal to zero")
    if q1.body.is_zero:
        return Fraction(0)
    (base, power), c2 = q2.body.items()[0]  # the dominant key: items() is in canonical order
    c1 = q1.body.coeff(base, power)
    if c1 == 0:
        return None
    candidate = c1 / c2
    if q1.body == q2.body.scale(candidate):
        return candidate
    return None
