"""Function extension, standard parts, derivatives, continuity probes."""

import random
from fractions import Fraction as F

import pytest
from helpers import SQRT2_CONVERGENT, WINDOW_PAIRS, lazy_sqrt2

from seqring import (
    BUILTINS,
    DomainViolation,
    ExpPoly,
    NotFinite,
    NotInfinitelyClose,
    ProbeNotInfinitesimal,
    Quantity,
    RealFunction,
    StEstimate,
    Verdict,
    ZeroProbeValue,
    add,
    classify,
    classify_lazy,
    continuity_probe,
    derivative,
    embed_scalar,
    eval_at,
    extend,
    mul,
    pow_int,
    standard_part,
    uniform_continuity_probe,
    unit_infinitesimal,
)
from seqring.order import first_checked_index

N = Quantity.closed(ExpPoly.single(1, 1, 1))
SQUARE = RealFunction("square", lambda x: x * x)
IDENTITY = RealFunction("id", lambda x: x)
RECIP = RealFunction("recip", lambda x: 1 / x, domain=lambda x: x != 0)


def alternating_probe() -> Quantity:
    return Quantity.closed(ExpPoly.single(1, -1, -1))  # (-1)^n / n


# ------------------------------------------------------------------
# extend
# ------------------------------------------------------------------

def test_extend_constant():
    q = extend(SQUARE, embed_scalar(3))
    assert all(eval_at(q, n) == 9 for n in range(1, 20))


def test_extend_matches_ring_square():
    q = extend(SQUARE, N)
    squared = mul(N, N)
    for n in range(1, 101):
        assert eval_at(q, n) == eval_at(squared, n)


def test_extend_domain_violation():
    q = extend(RECIP, embed_scalar(0))
    with pytest.raises(DomainViolation) as err:
        eval_at(q, 1)
    assert err.value.index == 1


# ------------------------------------------------------------------
# standard_part
# ------------------------------------------------------------------

def test_standard_part_geometric_limit():
    geo = Quantity.closed(ExpPoly({(F(1), 0): F(2), (F(1, 2), 0): F(-2)}))
    assert standard_part(geo) == 2


def test_standard_part_of_infinitesimal_is_zero():
    assert standard_part(pow_int(N, -1)) == 0


def test_standard_part_rejects_growth():
    with pytest.raises(NotFinite):
        standard_part(N)
    with pytest.raises(NotFinite):
        standard_part(Quantity.closed(ExpPoly.single(1, 0, -1)))


@pytest.mark.parametrize(
    "horizon, window, message",
    [
        (0, 50, "horizon must be >= 1"),
        (-5, 1, "horizon must be >= 1"),
        (10, 50, "window must be between 1 and the horizon"),
        (10, 11, "window must be between 1 and the horizon"),
        (10, 0, "window must be between 1 and the horizon"),
        (10, -3, "window must be between 1 and the horizon"),
    ],
)
def test_lazy_standard_part_rejects_its_window_before_evaluating(horizon, window, message):
    evaluated = []
    q = Quantity.lazy(lambda n: evaluated.append(n) or F(1, n), "1/n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        standard_part(q, horizon, window)
    assert evaluated == []
    assert standard_part(q, 10, 10).achieved_window == 10  # the whole horizon is a window


@pytest.mark.parametrize(
    "horizon, window, message",
    [(0, 50, "horizon must be >= 1"), (10, 50, "window must be between 1 and the horizon")],
)
def test_closed_standard_part_checks_its_horizon_and_window(horizon, window, message):
    # The exact answer reads no index, but its horizon and window are checked as on the lazy path.
    with pytest.raises(ValueError, match=f"^{message}$"):
        standard_part(embed_scalar(1), horizon, window)
    assert standard_part(embed_scalar(1), 10, 10) == 1


@pytest.mark.parametrize(
    "horizon, window, message",
    [
        (0, 50, "horizon must be >= 1"),
        (10, 50, "window must be between 1 and the horizon"),
        (10, 0, "window must be between 1 and the horizon"),
    ],
)
def test_continuity_probes_reject_their_window_before_evaluating(horizon, window, message):
    evaluated = []

    def recording(values):
        return Quantity.lazy(lambda n: evaluated.append(n) or values(n), "recording")

    affine = RealFunction("affine", lambda x: 2 * x + 1)
    probe = recording(lambda n: F(1, n))
    with pytest.raises(ValueError, match=f"^{message}$"):
        continuity_probe(affine, 0, [probe], horizon, window=window)
    xs, ys = recording(lambda n: F(n)), recording(lambda n: n + F(1, n))
    with pytest.raises(ValueError, match=f"^{message}$"):
        uniform_continuity_probe(affine, xs, ys, horizon, window=window)
    assert evaluated == []
    # Accepted with the whole horizon as a window, which leaves no room for an
    # early window before the tail, so the decay rule has nothing to compare.
    assert continuity_probe(affine, 0, [probe], 10, window=10).status == "unknown"


def test_every_sampled_verdict_reads_its_horizon_and_an_exempt_index_only_in_its_tail():
    # Each read lies in 1..horizon; one below the first checked index lies in
    # the tail window.  Verdicts that read one sequence once per sampled index
    # read no index twice, so their early and tail windows share none.
    reads = []

    def recording(values):
        return Quantity.lazy(lambda n: reads.append(n) or values(n), "recording")

    affine = RealFunction("affine", lambda x: 2 * x + 1)
    calls = {
        "classify_lazy": lambda h, w: classify_lazy(recording(lambda n: F(1, n)), h, w),
        "standard_part": lambda h, w: standard_part(recording(lambda n: 2 + F(1, n)), h, w),
        "derivative": lambda h, w: derivative(affine, 0, recording(lambda n: F(1, n)), h, w),
        "continuity_probe": lambda h, w: continuity_probe(affine, 0, [recording(lambda n: F(1, n))], h, window=w),
        "uniform_continuity_probe": lambda h, w: uniform_continuity_probe(
            affine, recording(F), recording(lambda n: n + F(1, n)), h, window=w
        ),
    }
    for horizon, window in WINDOW_PAIRS:
        allowed = set(range(first_checked_index(horizon), horizon + 1)) | set(range(horizon - window + 1, horizon + 1))
        for name, call in calls.items():
            reads.clear()
            call(horizon, window)
            assert set(reads) <= allowed, (name, horizon, window, sorted(set(reads) - allowed))
            if name != "uniform_continuity_probe":  # reads a pair, and checks it is close first
                assert len(reads) == len(set(reads)), (name, horizon, window)


def test_an_affine_map_and_sin_are_never_refuted_at_zero():
    # Their gaps along the default probes shrink like 1/n, so no window pair
    # may see a gap that has not decayed.
    affine = RealFunction("affine", lambda x: 2 * x + 1)
    for horizon, window in WINDOW_PAIRS:
        for f in (affine, BUILTINS["sin"]):
            verdict = continuity_probe(f, 0, horizon=horizon, window=window)
            assert verdict.status != "fails", (f.name, horizon, window, verdict)
    assert continuity_probe(affine, 0, horizon=100, window=50).status == "holds"


def test_continuity_probes_at_a_horizon_with_no_checked_index_are_unknown():
    # Horizon 1 exempts index 1, so no index is checked: both probes answer
    # unknown without reading the probe or the pair, with any function.
    evaluated = []

    def recording(values):
        return Quantity.lazy(lambda n: evaluated.append(n) or values(n), "recording")

    for f in (BUILTINS["sin"], SQUARE, RealFunction("step", lambda x: F(x > 0))):
        assert continuity_probe(f, 0, [recording(lambda n: F(1, n))], horizon=1, window=1) == Verdict.unknown(1)
        assert continuity_probe(f, 0, horizon=1, window=1) == Verdict.unknown(1)
        xs, ys = recording(lambda n: F(n)), recording(lambda n: n + F(1, n))
        assert uniform_continuity_probe(f, xs, ys, horizon=1, window=1) == Verdict.unknown(1)
    assert evaluated == []


def test_continuity_probe_rejects_an_empty_probe_list_before_evaluating():
    calls = []
    recording = RealFunction("affine", lambda x: calls.append(x) or 2 * x + 1)
    for probes in ([], ()):
        with pytest.raises(ValueError, match="at least one probe"):
            continuity_probe(recording, 0, probes=probes)
    assert calls == []


def test_continuity_probe_reads_a_generator_of_probes_once():
    # A generator of probes gives the verdict and the f evaluations of the
    # same probes in a list: the check and the evaluation share one read.
    step = lambda x: F(1) if x > 0 else F(0)
    runs = []
    for make in (list, iter):
        calls = []
        recording = RealFunction("step", lambda x: calls.append(x) or step(x))
        probes = make([unit_infinitesimal(), mul(unit_infinitesimal(), -1)])
        runs.append((continuity_probe(recording, 0, probes=probes, horizon=100, window=10), len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][0].status == "fails" and runs[0][1] > 2 * 10  # each probe reads f over its window


def test_probes_read_their_point_as_an_exact_rational():
    # A float point is a TypeError before f is evaluated; an int, a Fraction
    # and a str give the same rational.
    calls = []
    recording = RealFunction("square", lambda x: calls.append(x) or x * x)
    with pytest.raises(TypeError, match="not an exact rational"):
        derivative(recording, 0.1)
    with pytest.raises(TypeError, match="not an exact rational"):
        continuity_probe(recording, 0.1)
    assert calls == []
    for same in (F(1, 3), "1/3"):
        assert derivative(SQUARE, same, horizon=100, window=10) == derivative(SQUARE, F(1, 3), horizon=100, window=10)
        assert continuity_probe(SQUARE, same, horizon=100, window=10) == continuity_probe(SQUARE, F(1, 3), horizon=100, window=10)
    assert derivative(SQUARE, 3, horizon=100, window=10) == derivative(SQUARE, "3", horizon=100, window=10)
    assert continuity_probe(SQUARE, 3, horizon=100, window=10).status == "holds"


@pytest.mark.parametrize("horizon, window", [(100.5, 10), (100.0, 10), (100, 10.0), (F(100), 10)])
def test_lazy_probes_reject_a_non_integer_horizon_or_window_before_evaluating(horizon, window):
    evaluated = []

    def recording(values):
        return Quantity.lazy(lambda n: evaluated.append(n) or values(n), "recording")

    affine = RealFunction("affine", lambda x: 2 * x + 1)
    probe, xs, ys = recording(lambda n: F(1, n)), recording(lambda n: F(n)), recording(lambda n: n + F(1, n))
    with pytest.raises(TypeError):
        standard_part(probe, horizon, window)
    with pytest.raises(TypeError):
        continuity_probe(affine, 0, [probe], horizon, window=window)
    with pytest.raises(TypeError):
        uniform_continuity_probe(affine, xs, ys, horizon, window=window)
    assert evaluated == []


def test_standard_part_sqrt2_estimate():
    # oracle: continued-fraction convergent 665857/470832, error below 1e-11
    est = standard_part(lazy_sqrt2())
    assert isinstance(est, StEstimate)
    assert abs(est.value - SQRT2_CONVERGENT) < F(1, 10**6)
    assert est.achieved_spread < F(1, 10**9)
    assert est.achieved_window == 50


def test_standard_part_is_ring_homomorphism_on_finite_forms():
    rng = random.Random(40)
    finite_bases = [F(1), F(1, 2), F(-1, 2), F(3, 4)]
    for _ in range(40):
        # base-1 terms only at power <= 0 keep the quantity finite
        q1 = _finite_quantity(rng, finite_bases)
        q2 = _finite_quantity(rng, finite_bases)
        assert classify(q1).kind in ("zero", "infinitesimal", "finite")
        assert standard_part(add(q1, q2)) == standard_part(q1) + standard_part(q2)
        assert standard_part(mul(q1, q2)) == standard_part(q1) * standard_part(q2)


def _finite_quantity(rng, bases):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        b = rng.choice(bases)
        k = rng.randint(-2, 0) if b == 1 else rng.randint(-2, 2)
        if b == 1 and k == 0:
            k = 0  # constant term allowed
        c = F(rng.randint(-9, 9))
        key = (b, k)
        terms[key] = terms.get(key, F(0)) + c
    return Quantity.closed(ExpPoly(terms))


def test_standard_part_of_embedding():
    rng = random.Random(41)
    for _ in range(30):
        r = F(rng.randint(-99, 99), rng.randint(1, 20))
        assert standard_part(embed_scalar(r)) == r


# ------------------------------------------------------------------
# derivative
# ------------------------------------------------------------------

def test_derivative_square_at_three():
    # the quotient is exactly 6 + 1/n under the (1/n) probe
    est = derivative(SQUARE, 3)
    assert abs(est.value - 6) < F(1, 1000)
    quotient = lambda n: ((3 + F(1, n)) ** 2 - 9) * n
    for n in (1, 10, 100):
        assert quotient(n) == 6 + F(1, n)


def test_derivative_sin_at_zero():
    est = derivative(BUILTINS["sin"], 0)
    assert abs(est.value - 1) < F(1, 10**6)


def test_derivative_absent_for_abs_at_zero():
    # the alternating quotient hits -1 and +1 forever; the spread says so
    est = derivative(BUILTINS["abs"], 0, probe=alternating_probe())
    assert est.achieved_spread == 2
    assert abs(est.value) <= 1


def test_derivative_rejects_non_infinitesimal_probe():
    with pytest.raises(ProbeNotInfinitesimal):
        derivative(SQUARE, 3, probe=N)


def test_derivative_zero_probe_value():
    probe = Quantity.closed(ExpPoly.single(1, -1, 1), {9990: F(0)})
    with pytest.raises(ZeroProbeValue):
        derivative(SQUARE, 3, probe=probe)


def test_derivative_evaluates_f_at_the_point_once():
    # window quotient samples read f at x + h(n) each, and f(x) once: window + 1 calls.
    calls = []
    recording = RealFunction("square", lambda x: calls.append(x) or x * x)
    for horizon, window in ((100, 10), (1000, 50), (7, 7)):
        calls.clear()
        est = derivative(recording, 3, horizon=horizon, window=window)
        assert est == derivative(SQUARE, 3, horizon=horizon, window=window)
        assert len(calls) == window + 1 and calls.count(3) == 1, (horizon, window)
    calls.clear()
    with pytest.raises(ValueError, match="window must be between 1 and the horizon"):
        derivative(recording, 3, horizon=10, window=50)
    assert calls == []


def test_derivative_matches_polynomial_oracle():
    # analytic differentiation oracle on random degree <= 4 polynomials
    rng = random.Random(42)
    horizon = 10_000
    for _ in range(15):
        coeffs = [F(rng.randint(-1, 1)) for _ in range(5)]
        x = F(rng.randint(-4, 4), rng.randint(8, 12))
        f = RealFunction("poly", lambda t, c=coeffs: sum(ci * t**i for i, ci in enumerate(c)))
        exact = sum(i * ci * x ** (i - 1) for i, ci in enumerate(coeffs) if i >= 1)
        est = derivative(f, x, horizon=horizon)
        assert abs(est.value - exact) <= F(10, horizon)


def test_derivative_probe_independent_at_smooth_points():
    rng = random.Random(43)
    probes = [
        unit_infinitesimal(),
        Quantity.closed(ExpPoly.single(1, -2, 1)),
        alternating_probe(),
    ]
    for _ in range(5):
        x = F(rng.randint(-9, 9), rng.randint(1, 5))
        estimates = [derivative(SQUARE, x, probe=h) for h in probes]
        spread_budget = sum(e.achieved_spread for e in estimates) + F(1, 10**6)
        for e1 in estimates:
            for e2 in estimates:
                assert abs(e1.value - e2.value) <= spread_budget


# ------------------------------------------------------------------
# continuity_probe
# ------------------------------------------------------------------

def test_continuity_square_holds():
    assert continuity_probe(SQUARE, 3).status == "holds"


def test_continuity_step_fails_with_witness():
    v = continuity_probe(BUILTINS["step"], 0, probes=[alternating_probe()])
    assert v.status == "fails"
    assert v.witness is not None and v.witness % 2 == 1  # odd indices approach from below
    gap = abs(BUILTINS["step"].at(0 + F(-1, v.witness)) - BUILTINS["step"].at(F(0)))
    assert gap == 1


def test_continuity_step_fails_with_default_probes():
    v = continuity_probe(BUILTINS["step"], 0)
    assert v.status == "fails"


def test_continuity_zero_probe_trivially_holds():
    v = continuity_probe(SQUARE, 3, probes=[embed_scalar(0)])
    assert v.status == "holds"


def test_continuity_never_fails_for_polynomials():
    rng = random.Random(44)
    for _ in range(10):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(5)]
        f = RealFunction("poly", lambda t, c=coeffs: sum(ci * t**i for i, ci in enumerate(c)))
        x = F(rng.randint(-20, 20), rng.randint(1, 10))
        assert continuity_probe(f, x).status != "fails"


def test_continuity_builtin_sqrt_at_zero_needs_one_sided_probes():
    holds = continuity_probe(
        BUILTINS["sqrt"], 0, probes=[unit_infinitesimal()]
    )
    assert holds.status == "holds"
    with pytest.raises(DomainViolation):
        continuity_probe(BUILTINS["sqrt"], 0, probes=[alternating_probe()])


# ------------------------------------------------------------------
# uniform_continuity_probe
# ------------------------------------------------------------------

def test_square_not_uniformly_continuous():
    pair_gap = lambda n: (F(n) + F(1, n)) ** 2 - F(n) ** 2
    assert pair_gap(10) == 2 + F(1, 100)  # algebraic oracle: gap = 2 + 1/n^2
    v = uniform_continuity_probe(SQUARE, N, add(N, pow_int(N, -1)))
    assert v.status == "fails"
    assert pair_gap(v.witness) >= 2 - F(1, 10**6)


def test_identity_uniformly_continuous_on_close_pair():
    v = uniform_continuity_probe(IDENTITY, N, add(N, pow_int(N, -1)))
    assert v.status == "holds"


def test_sin_uniformly_continuous_within_tolerance():
    # Lipschitz oracle: |sin a - sin b| <= |a - b| = 1/n
    v = uniform_continuity_probe(
        BUILTINS["sin"], N, add(N, pow_int(N, -1)), tol=F(1, 1000)
    )
    assert v.status == "holds"


def test_uniform_continuity_rejects_distant_pair():
    with pytest.raises(NotInfinitelyClose):
        uniform_continuity_probe(SQUARE, N, add(N, embed_scalar(1)))
