"""Frechet comparison, order relations, and classification."""

import random
from fractions import Fraction as F
from math import isqrt

import pytest
from helpers import (
    WINDOW_PAIRS,
    lazy_sqrt2,
    pointwise_verdict,
    random_patch,
    random_poly,
    random_quantity,
    sqrt2_truncations,
)

from seqring import (
    Classification,
    Comparison,
    ExpPoly,
    LazyInput,
    Quantity,
    ZeroDivisor,
    add,
    classify,
    classify_lazy,
    compare,
    compare_lazy,
    embed_scalar,
    eval_at,
    eventual_sign,
    geometric_series_sums,
    infinitely_close,
    infinitely_greater,
    is_infinitely_great,
    is_infinitely_small,
    mul,
    patch,
    pow_int,
    proportionality_constant,
    sub,
)
from seqring.order import first_checked_index, windows

N = Quantity.closed(ExpPoly.single(1, 1, 1))
P = Quantity.closed(ExpPoly({(F(1), 2): F(1, 2), (F(1), 1): F(1, 2)}))
S = Quantity.closed(ExpPoly({(F(1), 3): F(1, 3), (F(1), 2): F(1, 2), (F(1), 1): F(1, 6)}))
ZERO = embed_scalar(0)

OSC_A = Quantity.closed(ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(-1, 2)}))  # (1,0,1,0,...)
OSC_B = Quantity.closed(ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(1, 2)}))  # (0,1,0,1,...)


# ------------------------------------------------------------------
# eventual_sign
# ------------------------------------------------------------------

def test_eventual_sign_of_s_minus_p():
    s = eventual_sign(S.body - P.body)
    assert (s.even, s.odd) == (1, 1)


def test_eventual_sign_pure_oscillator():
    s = eventual_sign(ExpPoly.single(1, 0, -1))
    assert (s.even, s.odd) == (1, -1)


def test_eventual_sign_parity_vanishing():
    # (0,1,0,1,...): zero on odd indices, one on even indices (brute check)
    for n in range(1, 11):
        assert OSC_B.body.value_at(n) == (1 if n % 2 == 0 else 0)
    s = eventual_sign(OSC_B.body)
    assert (s.even, s.odd) == (1, 0)


def test_eventual_sign_matches_brute_evaluation():
    # predicted parity signs must match actual signs at indices past the
    # corpus crossover (coefficient ratios are small against base ratios
    # >= 4/3 and power gaps >= 1 at n >= 2000)
    rng = random.Random(12)
    sign_of = lambda v: (v > 0) - (v < 0)
    for _ in range(200):
        e = random_poly(rng, max_terms=3)
        s = eventual_sign(e)
        for n in range(2000, 2032):
            expected = s.even if n % 2 == 0 else s.odd
            assert sign_of(e.value_at(n)) == expected


# ------------------------------------------------------------------
# compare
# ------------------------------------------------------------------

def test_compare_p_less_than_s():
    assert compare(P, S) is Comparison.LESS


def test_compare_ignores_finite_patch():
    assert compare(patch(N, {1: F(99), 7: F(0)}), N) is Comparison.EQUAL


def test_compare_oscillator_incomparable_with_zero():
    assert compare(OSC_A, ZERO) is Comparison.INCOMPARABLE


def test_compare_requires_closed_forms():
    with pytest.raises(LazyInput):
        compare(N.as_lazy(), N)


def test_compare_mixed_growth_incomparable():
    # even indices grow, odd indices shrink
    q = Quantity.closed(ExpPoly({(F(1), 1): F(1, 2), (F(-1), 1): F(1, 2)}))
    assert compare(q, ZERO) is Comparison.INCOMPARABLE


# ------------------------------------------------------------------
# compare_lazy
# ------------------------------------------------------------------

def test_sqrt2_truncation_certificate():
    # independent certificate that the lazy sequence really carries the
    # decimal truncations of sqrt(2): s_n^2 <= 2 < (s_n + 10^-n)^2
    q = lazy_sqrt2()
    for n in (1, 2, 5, 10, 50, 200):
        s = eval_at(q, n)
        assert s * s <= 2 < (s + F(1, 10**n)) ** 2


def test_sqrt2_truncation_steps_match_isqrt():
    # The oracle's digit step against a fresh isqrt, read in ascending,
    # repeated, jumping and descending order.
    truncation = sqrt2_truncations()
    for n in [*range(1, 60), 59, 59, 60, 1000, 1001, 1002, 7, 6, 3000, 3001, 3002]:
        assert truncation(n) == F(isqrt(2 * 10 ** (2 * n)), 10**n), n


def test_compare_lazy_sqrt2_below_three_halves():
    # truncations never exceed sqrt(2) < 3/2, so the claim holds at any horizon
    v = compare_lazy(lazy_sqrt2(), embed_scalar(F(3, 2)), Comparison.LESS, horizon=10_000)
    assert v.status == "holds"
    assert v.checked_up_to == 10_000


def test_compare_lazy_reflexive_equality():
    v = compare_lazy(N, N, Comparison.EQUAL, horizon=100)
    assert v.status == "holds"
    assert v.checked_up_to == 100


def test_compare_lazy_witness_past_window():
    # N exceeds 10 from index 11; the first checked index past the exempt
    # tenth of horizon 10^4 is 1001
    v = compare_lazy(N, embed_scalar(10), Comparison.LESS, horizon=10_000)
    assert v.status == "fails"
    assert v.witness == 1001
    assert v.witness >= 11


def test_compare_lazy_small_horizon_witness():
    v = compare_lazy(N, embed_scalar(10), Comparison.LESS, horizon=100)
    assert v.status == "fails"
    assert v.witness == 11  # smallest violating index past the window


# ------------------------------------------------------------------
# is_infinitely_small / is_infinitely_great
# ------------------------------------------------------------------

def test_reciprocal_of_identity_is_infinitesimal():
    assert is_infinitely_small(pow_int(N, -1)) is True


def test_zero_is_infinitely_small():
    assert is_infinitely_small(ZERO) is True
    assert classify(ZERO).kind == "zero"


def test_oscillator_not_infinitely_small():
    # |(-1)^n| = 1 >= 1/2 at every index
    q = Quantity.closed(ExpPoly.single(1, 0, -1))
    assert is_infinitely_small(q) is False
    for n in range(1, 20):
        assert abs(eval_at(q, n)) >= F(1, 2)


def test_infinitely_small_matches_forall_k_reading():
    # consistency with "eventually |q| < 1/k for every k": spot-check large
    # indices for k up to 100 on quantities judged small, and exhibit a
    # violating k for quantities judged not small
    small = [
        pow_int(N, -1),
        Quantity.closed(ExpPoly.single(1, 0, F(1, 2))),
        Quantity.closed(ExpPoly.single(1, 2, F(-2, 3))),
    ]
    for q in small:
        assert is_infinitely_small(q) is True
        for k in (1, 10, 100):
            for n in range(5000, 5020):
                assert abs(eval_at(q, n)) < F(1, k)
    not_small = [embed_scalar(F(1, 2)), Quantity.closed(ExpPoly.single(1, 0, -1)), N]
    for q in not_small:
        assert is_infinitely_small(q) is False
        assert any(abs(eval_at(q, n)) >= F(1, 2) for n in range(5000, 5020))


def test_lazy_small_verdicts():
    decaying = Quantity.lazy(lambda n: F(1, n), "1/n")
    v = is_infinitely_small(decaying, horizon=10_000)
    assert v.status == "holds"
    stuck = Quantity.lazy(lambda n: F(1, 2), "1/2")
    v = is_infinitely_small(stuck, horizon=10_000)
    assert v.status == "fails"


def test_lazy_small_holds_when_every_wrong_parity_index_to_the_horizon_is_an_override():
    # p is (1, 0, 1, 0, ...) with every odd index from 1 to the horizon 101
    # overridden to 0: the odd parity's lead sign breaks |p| < 1/k, but no
    # odd index up to the horizon reads it, so the certified scan holds.
    h = 101
    p = patch(OSC_A, {i: 0 for i in range(1, h + 1, 2)})
    v = is_infinitely_small(p.as_lazy(), h)
    assert (v.status, v.checked_up_to) == ("holds", h)


@pytest.mark.parametrize("scan", [is_infinitely_small, is_infinitely_great, infinitely_close])
@pytest.mark.parametrize("horizon", [0, -5])
def test_lazy_scans_reject_a_horizon_below_one_before_evaluating(scan, horizon):
    evaluated = []
    q = Quantity.lazy(lambda n: evaluated.append(n) or F(1, n), "1/n")
    args = (q, N.as_lazy()) if scan is infinitely_close else (q,)
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        scan(*args, horizon)
    assert evaluated == []


# A closed form gets an exact answer that reads no index, but the horizon it
# is given is checked all the same, as on the lazy path.
def test_is_infinitely_small_checks_the_horizon_of_a_closed_form():
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        is_infinitely_small(N, horizon=0)
    assert is_infinitely_small(N, horizon=1) is False


def test_is_infinitely_great_checks_the_horizon_of_a_closed_form():
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        is_infinitely_great(N, horizon=-5)
    assert is_infinitely_great(N, horizon=1) == 1


def test_infinitely_close_checks_the_horizon_of_closed_forms():
    with pytest.raises(TypeError):
        infinitely_close(N, N, horizon="x")
    assert infinitely_close(N, N, horizon=1) is True


@pytest.mark.parametrize(
    "horizon, window, message",
    [(0, 50, "horizon must be >= 1"), (10, 50, "window must be between 1 and the horizon")],
)
def test_classify_lazy_checks_the_horizon_and_window_of_a_closed_form(horizon, window, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        classify_lazy(N, horizon, window)
    assert classify_lazy(N, 10, 10).kind == "inf+"


@pytest.mark.parametrize(
    "horizon, window, message",
    [
        (0, 50, "horizon must be >= 1"),
        (10, 50, "window must be between 1 and the horizon"),
        (10, 0, "window must be between 1 and the horizon"),
    ],
)
def test_classify_lazy_rejects_its_window_before_evaluating(horizon, window, message):
    evaluated = []
    q = Quantity.lazy(lambda n: evaluated.append(n) or F(1, n), "1/n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        classify_lazy(q, horizon, window)
    assert evaluated == []
    zero = Quantity.lazy(lambda n: F(0), "0")
    assert classify_lazy(zero, 10, 10).kind == "zero"  # the whole horizon is a window


# Each threshold of classify_lazy met with equality, window 10 and tol 1/1000.
# At horizon 100 the early window is 11..20, the tail 91..100 and the probed
# bound 10; the sequence reads `early` below 91 and `even` or `odd` in the
# tail by parity.  At horizon 10 the tail is the whole horizon and the early
# window is empty, so its magnitude is 0.
TOL = F(1, 1000)


@pytest.mark.parametrize(
    "horizon, early, even, odd, expected",
    [
        pytest.param(100, TOL, TOL, TOL, Classification("finite", TOL), id="tail_at_tol"),
        pytest.param(100, F(1, 200), F(1, 400), F(1, 400), Classification("infinitesimal"), id="tail_at_half_early"),
        pytest.param(100, F(1, 50), F(1, 100), F(1, 100), Classification("finite", F(1, 100)), id="tail_at_one_hundredth"),
        pytest.param(100, F(1), F(1), 1 + TOL, None, id="spread_at_tol"),
        pytest.param(100, F(10), F(10), F(11), None, id="tail_at_bound"),
        pytest.param(100, F(-10), F(-10), F(-11), None, id="tail_at_minus_bound"),
        pytest.param(10, None, F(1, 200), F(1, 200), Classification("finite", F(1, 200)), id="no_early_window"),
    ],
)
def test_classify_lazy_at_each_threshold(horizon, early, even, odd, expected):
    q = Quantity.lazy(lambda n: (even if n % 2 == 0 else odd) if n > horizon - 10 else early)
    assert classify_lazy(q, horizon, 10, TOL) == expected


def test_windows_are_disjoint_inside_the_horizon_and_past_the_exempt_prefix():
    for h, w in WINDOW_PAIRS:
        early, tail = windows(h, w)
        first = first_checked_index(h)
        assert tail == range(h - w + 1, h + 1), (h, w)
        assert not set(early) & set(tail) and set(early) <= set(range(first, h + 1)), (h, w)
        # Empty exactly when the tail starts before twice the first checked
        # index; otherwise the first w checked indices, cut before the tail.
        assert (not early) == (h - w + 1 < 2 * first), (h, w)
        assert not early or early == range(first, min(first + w, tail.start)), (h, w)


# Each lazy scan of order, called on one lazy q at a horizon.
LAZY_SCANS = {
    "compare_lazy": lambda q, horizon: compare_lazy(q, N.as_lazy(), Comparison.LESS, horizon),
    "is_infinitely_small": lambda q, horizon: is_infinitely_small(q, horizon),
    "is_infinitely_great": lambda q, horizon: is_infinitely_great(q, horizon),
    "infinitely_close": lambda q, horizon: infinitely_close(q, N.as_lazy(), horizon),
    "classify_lazy": lambda q, horizon: classify_lazy(q, horizon, 1),
}


@pytest.mark.parametrize("scan", LAZY_SCANS)
@pytest.mark.parametrize("horizon", [100.5, 100.0, F(100), "100"])
def test_lazy_scans_reject_a_non_integer_horizon_before_evaluating(scan, horizon):
    evaluated = []
    q = Quantity.lazy(lambda n: evaluated.append(n) or F(1, n), "1/n")
    with pytest.raises(TypeError):
        LAZY_SCANS[scan](q, horizon)
    assert evaluated == []


@pytest.mark.parametrize("window", [10.0, 2.5, F(10)])
def test_classify_lazy_rejects_a_non_integer_window_before_evaluating(window):
    evaluated = []
    q = Quantity.lazy(lambda n: evaluated.append(n) or F(1, n), "1/n")
    with pytest.raises(TypeError):
        classify_lazy(q, 100, window)
    assert evaluated == []


@pytest.mark.parametrize("scan", LAZY_SCANS)
def test_lazy_scans_read_a_bool_horizon_as_its_int(scan):
    q = Quantity.lazy(lambda n: F(1, n), "1/n")
    got = LAZY_SCANS[scan](q, True)
    assert got == LAZY_SCANS[scan](q, 1)
    for field in ("checked_up_to", "horizon"):
        if getattr(got, field, None) is not None:
            assert type(getattr(got, field)) is int


def test_identity_is_infinitely_great():
    assert is_infinitely_great(N) == 1


def test_constants_are_not_infinitely_great():
    assert is_infinitely_great(embed_scalar(10**6)) == 0


def test_alternating_powers_not_infinitely_great():
    # (-2)^n: positive at n = 2, negative at n = 3
    q = Quantity.closed(ExpPoly.single(1, 0, -2))
    assert eval_at(q, 2) > 0 > eval_at(q, 3)
    assert is_infinitely_great(q) == 0


def test_negative_growth_detected():
    assert is_infinitely_great(sub(ZERO, S)) == -1


def test_parity_mixed_growth_not_infinitely_great():
    q = Quantity.closed(ExpPoly({(F(1), 1): F(1, 2), (F(-1), 1): F(1, 2)}))  # (0,2,0,4,...)
    assert is_infinitely_great(q) == 0


def test_lazy_great_verdict():
    v = is_infinitely_great(N.as_lazy(), horizon=10_000)
    assert v.status == "holds"


def _form(*terms):
    """Closed form from (coeff, power, base) terms."""
    return Quantity.closed(ExpPoly({(F(b), k): F(c) for c, k, b in terms}))


# Forms whose +B/-B pairs cancel on one parity; expected values were captured
# from the implementation that rebuilt the parity groups once per parity.
# Columns: (even sign, odd sign), is_infinitely_great, classify kind.
PARITY_CANCELLING = [
    ("2^n + (-2)^n", _form((1, 0, 2), (1, 0, -2)), (1, 0), 0, "oscillating"),
    ("2^n - (-2)^n", _form((1, 0, 2), (-1, 0, -2)), (0, 1), 0, "oscillating"),
    ("1 + (-1)^n", _form((1, 0, 1), (1, 0, -1)), (1, 0), 0, "oscillating"),
    ("3 + (-1)^n*N^-1", _form((3, 0, 1), (1, -1, -1)), (1, 1), 0, "finite"),
    ("N^2 - (-1)^n*N^2 + N", _form((1, 2, 1), (-1, 2, -1), (1, 1, 1)), (1, 1), 1, "inf+"),
    ("N^2 + (-1)^n*N^2 - N", _form((1, 2, 1), (1, 2, -1), (-1, 1, 1)), (1, -1), 0, "oscillating"),
    ("2^n + (-2)^n + N", _form((1, 0, 2), (1, 0, -2), (1, 1, 1)), (1, 1), 1, "inf+"),
    ("-2^n - (-2)^n - N^3", _form((-1, 0, 2), (-1, 0, -2), (-1, 3, 1)), (-1, -1), -1, "inf-"),
    ("(-1)^n*N - (-1)^n", _form((1, 1, -1), (-1, 0, -1)), (1, -1), 0, "oscillating"),
    ("3^n - (-3)^n - 2^n", _form((1, 0, 3), (-1, 0, -3), (-1, 0, 2)), (-1, 1), 0, "oscillating"),
]


@pytest.mark.parametrize(
    "q, signs, great, kind",
    [case[1:] for case in PARITY_CANCELLING],
    ids=[case[0] for case in PARITY_CANCELLING],
)
def test_parity_cancelling_decisions(q, signs, great, kind):
    s = eventual_sign(q.body)
    assert (s.even, s.odd) == signs
    assert is_infinitely_great(q) == great
    assert classify(q).kind == kind


# ------------------------------------------------------------------
# infinitely_greater
# ------------------------------------------------------------------

def test_s_infinitely_greater_than_p():
    assert infinitely_greater(S, P) is True


def test_power_hierarchy():
    assert infinitely_greater(mul(N, N), N) is True
    assert infinitely_greater(mul(N, mul(N, N)), mul(N, N)) is True


def test_not_infinitely_greater_than_itself():
    assert infinitely_greater(N, N) is False
    # fails concretely at k = 2
    assert compare(mul(embed_scalar(2), N), N) is Comparison.GREATER


def test_infinitely_greater_eventually_negative_binds_at_one():
    # against an eventually negative rhs, k = 1 binds: k * (-10) < -5 for all k
    assert infinitely_greater(N, embed_scalar(-5)) is True
    assert infinitely_greater(embed_scalar(-5), embed_scalar(-10)) is True
    assert infinitely_greater(embed_scalar(-10), embed_scalar(-5)) is False


def test_infinitely_greater_oscillating_rhs():
    # k * (-1)^n < n eventually for every k, on both parities
    osc = Quantity.closed(ExpPoly.single(1, 0, -1))
    assert infinitely_greater(N, osc) is True
    assert infinitely_greater(osc, N) is False


def test_infinitely_greater_zero_rhs_needs_positive():
    assert infinitely_greater(N, ZERO) is True
    assert infinitely_greater(OSC_B, ZERO) is False  # vanishes on odd indices


# q2 restrictions that take different branches on the two parities: one
# vanishes, or one is eventually negative and the other eventually positive.
ALT_N = _form((1, 1, 1), (1, 1, -1))  # N + (-1)^n*N: 2N on even, 0 on odd
ALT_N_ODD = _form((1, 1, 1), (-1, 1, -1))  # N - (-1)^n*N: 0 on even, 2N on odd
NEG_ODD = _form((-1, 1, 1), (1, 1, -1))  # -N + (-1)^n*N: 0 on even, -2N on odd
ALT_2 = _form((1, 0, 2), (-1, 0, -2))  # 2^n - (-2)^n: 0 on even, 2*2^n on odd
SPLIT = _form((-1, 2, 1), (-1, 2, -1), (1, 1, 1))  # -2N^2 + N on even, N on odd


@pytest.mark.parametrize(
    "q1, q2, expected",
    [
        (_form((1, 2, 1)), ALT_N, True),
        (_form((1, 2, 1)), ALT_N_ODD, True),
        (embed_scalar(1), NEG_ODD, True),
        (embed_scalar(-1), NEG_ODD, False),
        (_form((1, 0, 3), (1, 0, -3)), ALT_2, False),
        (_form((1, 0, 3)), ALT_2, True),
        (_form((1, 0, 2)), ALT_2, False),
        (N, SPLIT, False),
        (_form((1, 3, 1)), SPLIT, True),
        (_form((-1, 3, 1)), SPLIT, False),
        (OSC_B, OSC_A, False),
    ],
)
def test_infinitely_greater_parity_branches(q1, q2, expected):
    assert infinitely_greater(q1, q2) is expected


def test_infinitely_greater_finite_instance_soundness():
    rng = random.Random(10)
    cases = [(S, P), (mul(N, N), N), (N, embed_scalar(1))]
    for q1, q2 in cases:
        assert infinitely_greater(q1, q2) is True
        for k in range(1, 21):
            assert compare(mul(embed_scalar(k), q2), q1) is Comparison.LESS
    # random soundness: whenever the relation holds, every multiple stays below
    found = 0
    while found < 40:
        q1, q2 = random_quantity(rng), random_quantity(rng)
        if not (q1.is_closed and q2.is_closed):
            continue
        if infinitely_greater(q1, q2):
            found += 1
            for k in range(1, 21):
                assert compare(mul(embed_scalar(k), q2), q1) is Comparison.LESS


def test_infinitely_greater_no_answers_are_complete():
    # a No must come with a finite counterexample: some multiple k*q2 no
    # longer sits strictly below q1 (k <= 40 suffices for this corpus's
    # coefficient ratios)
    rng = random.Random(11)
    refused = 0
    while refused < 60:
        q1, q2 = random_quantity(rng), random_quantity(rng)
        if infinitely_greater(q1, q2):
            continue
        refused += 1
        assert any(
            compare(mul(embed_scalar(k), q2), q1) is not Comparison.LESS
            for k in range(1, 41)
        ), (q1.render(), q2.render())


# ------------------------------------------------------------------
# infinitely_close
# ------------------------------------------------------------------

def test_geometric_sums_close_to_limit():
    geo = Quantity.closed(ExpPoly({(F(1), 0): F(2), (F(1, 2), 0): F(-2)}))
    assert infinitely_close(geo, embed_scalar(2)) is True


def test_identity_close_to_identity_plus_infinitesimal():
    assert infinitely_close(N, add(N, pow_int(N, -1))) is True


def test_unit_gap_not_close():
    assert infinitely_close(N, add(N, embed_scalar(1))) is False


def test_close_on_closed_forms_evaluates_no_override(monkeypatch):
    # A patch changes no Frechet class, so deciding against a form patched at
    # 10**5 evaluates neither form there, and answers as the unpatched pair.
    geo = geometric_series_sums(F(2, 3))  # tends to 3
    advances = []
    advance = ExpPoly._advance

    def counted(self, n, memo):
        advances.append(n)
        return advance(self, n, memo)

    for body, close in ((N, False), (embed_scalar(3), True)):
        patched = patch(body, {10**5: F(3, 2)})
        monkeypatch.setattr(ExpPoly, "_advance", counted)
        verdict = infinitely_close(patched, geo)
        monkeypatch.undo()
        assert advances == []
        assert verdict is infinitely_close(body, geo) is close


# ------------------------------------------------------------------
# classify
# ------------------------------------------------------------------

def test_classify_finite_geometric_limit():
    geo = Quantity.closed(ExpPoly({(F(1), 0): F(2), (F(1, 2), 0): F(-2)}))
    c = classify(geo)
    assert c.kind == "finite"
    assert c.standard_part == 2


def test_classify_triangular_numbers_grow():
    assert classify(P).kind == "inf+"


def test_classify_oscillator():
    assert classify(Quantity.closed(ExpPoly.single(1, 0, -1))).kind == "oscillating"


def test_classify_a_constant_parity_beside_a_growing_one_oscillates():
    # 1 + n - n(-1)^n reads 1 at every even n and 2n + 1 at every odd n: the
    # even parity's lead group is the constant, which is not unbounded.
    q = add(add(embed_scalar(1), N), mul(N, Quantity.closed(ExpPoly.single(-1, 0, -1))))
    assert classify(q).kind == "oscillating"


def test_classify_infinitesimal():
    assert classify(pow_int(N, -1)).kind == "infinitesimal"


def test_classify_lazy_estimates():
    assert classify_lazy(Quantity.lazy(lambda n: F(1, n), "1/n")).kind == "infinitesimal"
    near2 = Quantity.lazy(lambda n: 2 + F(1, n * n), "2 + 1/n^2")
    c = classify_lazy(near2)
    assert c.kind == "finite"
    assert abs(c.standard_part - 2) < F(1, 10**6)
    assert classify_lazy(N.as_lazy()).kind == "inf+"
    flipping = Quantity.lazy(lambda n: F((-1) ** n), "(-1)^n")
    assert classify_lazy(flipping) is None


# ------------------------------------------------------------------
# proportionality_constant
# ------------------------------------------------------------------

def test_proportionality_of_scaled_identities():
    assert proportionality_constant(3 * N, 5 * N) == F(3, 5)


def test_proportionality_with_a_unit_leading_coefficient():
    assert proportionality_constant(N, 2 * N) == F(1, 2)


def test_no_constant_ratio_between_powers():
    assert proportionality_constant(mul(N, N), N) is None


def test_zero_numerator_gives_zero():
    assert proportionality_constant(ZERO, N) == 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisor):
        proportionality_constant(N, ZERO)


# ------------------------------------------------------------------
# invariants
# ------------------------------------------------------------------

def test_strict_order_axioms_random():
    rng = random.Random(20)
    for _ in range(300):
        a = random_quantity(rng)
        assert compare(a, a) is Comparison.EQUAL
    # transitivity on constructed strictly increasing chains
    for _ in range(100):
        a = random_quantity(rng)
        step1 = random_poly(rng)
        step2 = random_poly(rng)
        b = add(a, Quantity.closed(step1 * step1 + ExpPoly.constant(1)))
        c = add(b, Quantity.closed(step2 * step2 + ExpPoly.constant(1)))
        assert compare(a, b) is Comparison.LESS
        assert compare(b, c) is Comparison.LESS
        assert compare(a, c) is Comparison.LESS


def test_equal_is_a_congruence():
    rng = random.Random(21)
    for _ in range(100):
        a = random_quantity(rng)
        b = patch(a, random_patch(rng))
        c = random_quantity(rng)
        assert compare(a, b) is Comparison.EQUAL
        assert compare(add(a, c), add(b, c)) is Comparison.EQUAL
        assert compare(mul(a, c), mul(b, c)) is Comparison.EQUAL


def test_compare_agrees_with_pointwise_oracle():
    # big-integer evaluation at 1000 sampled indices in [2^10, 2^20]
    rng = random.Random(22)
    checked = 0
    while checked < 60:
        q1 = random_quantity(rng, max_terms=3, bases=[F(1), F(-1)], pow_lo=0, pow_hi=4)
        q2 = random_quantity(rng, max_terms=3, bases=[F(1), F(-1)], pow_lo=0, pow_hi=4)
        verdict = compare(q1, q2)
        if verdict is Comparison.INCOMPARABLE:
            continue
        checked += 1
        indices = [rng.randint(2**10, 2**20) for _ in range(1000)]
        assert pointwise_verdict(q1, q2, indices) == verdict.value


def test_compare_exponential_dominance_oracle():
    # moderate indices keep the big powers cheap while exercising base ratios
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        q1, q2 = random_quantity(rng), random_quantity(rng)
        verdict = compare(q1, q2)
        if verdict is Comparison.INCOMPARABLE:
            continue
        checked += 1
        indices = [rng.randint(2**10, 2**14) for _ in range(20)]
        assert pointwise_verdict(q1, q2, indices) == verdict.value


def test_non_archimedean_witness():
    assert is_infinitely_great(N) == 1
    for k in range(1, 101):
        assert compare(embed_scalar(k), N) is Comparison.LESS


def test_patch_invariance():
    rng = random.Random(24)
    for _ in range(100):
        q = random_quantity(rng)
        p = patch(q, random_patch(rng))
        assert compare(p, q) is Comparison.EQUAL
        assert classify(p) == classify(q)


def test_zero_divisor_exhibit():
    product = mul(OSC_A, OSC_B)
    assert product.body.is_zero
    assert compare(OSC_A, ZERO) is not Comparison.EQUAL
    assert compare(OSC_B, ZERO) is not Comparison.EQUAL
