"""Infinitesimal calculus on sequence quantities.

A real function extends to quantities pointwise: apply it index by index.
Derivatives are difference quotients against an infinitesimal probe
sequence; continuity and uniform continuity are probed by checking that
function gaps decay along infinitesimal perturbations.

The contract is deliberately asymmetric.  A "fails" verdict carries a
concrete witness index on a concrete probe sequence and so is a proof; a
"holds" verdict only reports that nothing failed up to the horizon, since no
terminating procedure can quantify over all infinitesimal perturbations.
Estimates of standard parts of lazy sequences report their observed spread
rather than pretending to be exact.

Decay rule used by both continuity probes, on the two disjoint index windows
of ``order.windows``: with g_early the largest gap in the early window, just
past the exempt prefix, and g_tail the largest gap in the tail window at the
horizon, the verdict is holds when g_tail < tol or g_tail <= g_early / 2 (the
gap at least halved), fails when g_tail >= tol and g_tail > (3/4) * g_early,
and unknown between.  When the windows do not fit (the tail starts before
twice the first checked index), the verdict is unknown with no gap read.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import (
    DomainViolation,
    NotFinite,
    NotInfinitelyClose,
    ProbeNotInfinitesimal,
    ZeroProbeValue,
)
from .order import (
    DEFAULT_HORIZON,
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    Verdict,
    check_horizon,
    classify,
    infinitely_close,
    windows,
)
from .quantity import ExpPoly, Quantity, _rat, values


class _OutOfDomain(Exception):
    pass


@dataclass(frozen=True)
class RealFunction:
    """A real-valued function evaluable exactly at rational points.

    Float-backed evaluators convert their output exactly (every binary float
    is a rational), so their only error is the evaluator's own roundoff,
    about 1e-15 relative for the double-precision builtins.
    """

    name: str
    evaluator: Callable[[Fraction], Fraction]
    domain: Callable[[Fraction], bool] | None = None

    def at(self, x: Fraction, index: int = 0) -> Fraction:
        """Evaluate at x; a domain failure reports the sequence index in play."""
        try:
            if self.domain is not None and not self.domain(x):
                raise _OutOfDomain
            return Fraction(self.evaluator(x))
        except (_OutOfDomain, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainViolation(index, f"{self.name} undefined at {x} (index {index})") from exc

    @classmethod
    def from_float(cls, name: str, fn: Callable[[float], float], domain=None) -> "RealFunction":
        return cls(name, lambda x: Fraction(fn(float(x))), domain)


BUILTINS: dict[str, RealFunction] = {
    "sin": RealFunction.from_float("sin", math.sin),
    "cos": RealFunction.from_float("cos", math.cos),
    "exp": RealFunction.from_float("exp", math.exp),
    "log": RealFunction.from_float("log", math.log, domain=lambda x: x > 0),
    "sqrt": RealFunction.from_float("sqrt", math.sqrt, domain=lambda x: x >= 0),
    "abs": RealFunction("abs", lambda x: abs(x)),
    "step": RealFunction("step", lambda x: Fraction(0) if x < 0 else Fraction(1)),
}


@dataclass(frozen=True)
class StEstimate:
    """A sampled standard part: the tail values lie within achieved_spread of value."""

    value: Fraction
    achieved_window: int
    achieved_spread: Fraction


def extend(f: RealFunction, q: Quantity) -> Quantity:
    """The pointwise extension of f: the lazy sequence n -> f(q(n)), an "apply" node over q's."""
    return Quantity(None, {}, "apply", (q.as_lazy(),), (f.at, f.name))


def standard_part(
    q: Quantity, horizon: int = DEFAULT_HORIZON, window: int = DEFAULT_WINDOW
):
    """The rational infinitely close to a finite quantity.

    Closed forms are exact: ``classify``'s standard part, or 0 (NotFinite
    when the quantity is infinitely great or oscillating).  Lazy sequences
    are sampled over the tail window of ``order.windows``, the last
    ``window`` indices up to ``horizon``, and yield a StEstimate with the
    tail median (``statistics.median``: the mean of the middle two of an
    even count) and observed spread, max - min; the caller judges the spread
    against its own tolerance.  Both paths first need
    1 <= window <= horizon (ValueError otherwise).
    """
    horizon, window = check_horizon(horizon, window)
    if q.is_closed:
        c = classify(q)
        if c.kind not in ("zero", "infinitesimal", "finite"):
            raise NotFinite(f"no standard part: quantity is {c.kind}")
        return c.standard_part or Fraction(0)
    samples = list(map(values(q), windows(horizon, window)[1]))
    return StEstimate(statistics.median(samples), window, max(samples) - min(samples))


def unit_infinitesimal() -> Quantity:
    """The probe (1/n), the canonical infinitesimal."""
    return Quantity.closed(ExpPoly.single(1, -1, 1))


def _check_probe(probe: Quantity, operation: str) -> None:
    if probe.is_closed and classify(probe).kind not in ("infinitesimal", "zero"):
        raise ProbeNotInfinitesimal(
            f"probe {probe.render()} is not infinitesimal", operation=operation
        )


def derivative(
    f: RealFunction,
    x,
    probe: Quantity | None = None,
    horizon: int = DEFAULT_HORIZON,
    window: int = DEFAULT_WINDOW,
) -> StEstimate:
    """Difference-quotient estimate of f'(x) along an infinitesimal probe.

    Builds the lazy quotient (f(x + h(n)) - f(x)) / h(n) and samples its
    standard part.  A large spread is the signal that the quotient does not
    settle, i.e. that no derivative exists along this probe.  The horizon
    and window are checked before f is evaluated, and f(x) is read once, so
    a call evaluates f window + 1 times.
    """
    x = _rat(x)
    h = probe if probe is not None else unit_infinitesimal()
    _check_probe(h, "derivative")
    horizon, window = check_horizon(horizon, window)
    fx, h_at = f.at(x), values(h)

    def quotient(n: int) -> Fraction:
        hn = h_at(n)
        if hn == 0:
            raise ZeroProbeValue(n)
        return (f.at(x + hn, n) - fx) / hn

    q = Quantity.lazy(quotient, f"d{f.name}/dx at {x}")
    return standard_part(q, horizon, window)


def default_probes() -> list[Quantity]:
    """(1/n), (1/n^2), ((-1)^n/n), and three reproducible rational multiples c/n."""
    probes = [
        Quantity.closed(ExpPoly.single(1, -1, 1)),
        Quantity.closed(ExpPoly.single(1, -2, 1)),
        Quantity.closed(ExpPoly.single(1, -1, -1)),
    ]
    rng = random.Random(0)
    for _ in range(3):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        probes.append(Quantity.closed(ExpPoly.single(c, -1, 1)))
    return probes


def _decay_verdict(
    gaps: Callable[[int], Fraction], horizon: int, tol: Fraction, window: int
) -> Verdict:
    """Apply the decay rule to a gap sequence; see the module docstring.

    Each gap is read once, from the disjoint early and tail windows of
    ``order.windows``.  An empty early window (the windows do not fit,
    horizon 1 included) gives unknown before any gap is read.
    """
    early, tail = windows(horizon, window)
    if not early:
        return Verdict.unknown(horizon)
    g_early = max(map(gaps, early))
    tail = {n: gaps(n) for n in tail}
    g_tail = max(tail.values())
    if g_tail < tol or 2 * g_tail <= g_early:
        return Verdict.holds(horizon)
    if 4 * g_tail > 3 * g_early:
        return Verdict.fails(min(n for n, g in tail.items() if g >= tol))
    return Verdict.unknown(horizon)


def continuity_probe(
    f: RealFunction,
    x,
    probes: Iterable[Quantity] | None = None,
    horizon: int = DEFAULT_HORIZON,
    tol: Fraction = DEFAULT_TOL,
    window: int = DEFAULT_WINDOW,
) -> Verdict:
    """Refutation-capable continuity check of f at x.

    For each infinitesimal probe h the gap |f(x + h(n)) - f(x)| must decay;
    a tail gap at or above tol that has not decayed since the early window
    is a failure with that index as witness.  The smallest witness across
    probes is reported.  Needs 1 <= window <= horizon and at least one probe
    (ValueError otherwise).  ``probes`` is read once, so any iterable works.
    """
    horizon, window = check_horizon(horizon, window)
    x = _rat(x)
    probes = default_probes() if probes is None else list(probes)
    if not probes:
        raise ValueError("continuity_probe needs at least one probe")
    for h in probes:
        _check_probe(h, "continuity_probe")
    fx = f.at(x)
    gaps = [lambda n, h_at=values(h): abs(f.at(x + h_at(n), n) - fx) for h in probes]
    return _combine([_decay_verdict(gap, horizon, tol, window) for gap in gaps], horizon)


def uniform_continuity_probe(
    f: RealFunction,
    x_seq: Quantity,
    y_seq: Quantity,
    horizon: int = DEFAULT_HORIZON,
    tol: Fraction = DEFAULT_TOL,
    window: int = DEFAULT_WINDOW,
) -> Verdict:
    """Whether f keeps the infinitely close pair (x_seq, y_seq) infinitely close.

    Unlike continuity_probe the base points travel with the index, so pairs
    like (n) and (n + 1/n) expose non-uniformity at infinity.  Needs
    1 <= window <= horizon (ValueError otherwise).
    """
    horizon, window = check_horizon(horizon, window)
    near = infinitely_close(x_seq, y_seq, horizon)
    if near is False or (isinstance(near, Verdict) and near.status == "fails"):
        raise NotInfinitelyClose("input sequences are not infinitely close")
    x_at, y_at = values(x_seq), values(y_seq)
    gap = lambda n: abs(f.at(x_at(n), n) - f.at(y_at(n), n))
    return _decay_verdict(gap, horizon, tol, window)


def _combine(verdicts: list[Verdict], horizon: int) -> Verdict:
    failing = [v.witness for v in verdicts if v.status == "fails"]
    if failing:
        return Verdict.fails(min(failing))
    if any(v.status == "unknown" for v in verdicts):
        return Verdict.unknown(horizon)
    return Verdict.holds(horizon)
