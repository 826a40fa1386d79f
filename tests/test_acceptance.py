"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import subprocess
import sys
from fractions import Fraction as F

from helpers import lex_poly_compare, naive_value, pointwise_verdict

from seqring import (
    Comparison,
    ExpPoly,
    Quantity,
    Series,
    add,
    classify,
    compare,
    continuity_probe,
    derivative,
    embed_scalar,
    eval_at,
    geometric_series_sums,
    infinitely_close,
    infinitely_greater,
    is_infinitely_small,
    mul,
    neg,
    omit_first,
    partial_sums,
    patch,
    pow_int,
    proportionality_constant,
    uniform_continuity_probe,
)
from seqring.calculus import BUILTINS, RealFunction
from seqring.cli import Config, run_batch, run_statement

EQUAL, LESS = Comparison.EQUAL, Comparison.LESS

ONES = Series(ExpPoly.constant(1))  # the series 1 + 1 + 1 + ...
N = Quantity.closed(ExpPoly.single(1, 1, 1))


def criterion(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


# ------------------------------------------------------------------
# 1. Omitting m terms of the unit series loses exactly m
# ------------------------------------------------------------------

def test_criterion_1_omitted_prefix():
    whole = partial_sums(ONES)
    ok = all(
        compare(add(embed_scalar(m), omit_first(ONES, m)), whole) is EQUAL
        for m in (1, 5, 50)
    )
    criterion(1, "m + (unit series minus first m terms) equals the unit series sums", ok)


# ------------------------------------------------------------------
# 2. Geometric partial sums converge to 1/(1-e)
# ------------------------------------------------------------------

def test_criterion_2_geometric_limits():
    ok = True
    for e in (F(1, 2), F(3, 4), F(9, 10)):
        sums = geometric_series_sums(e)
        limit = 1 / (1 - e)
        c = classify(sums)
        ok &= c.kind == "finite" and c.standard_part == limit
        ok &= infinitely_close(sums, embed_scalar(limit)) is True
    criterion(2, "geometric sums classify as finite 1/(1-e) and sit infinitely close", ok)


# ------------------------------------------------------------------
# 3. The square series dominates the triangular series
# ------------------------------------------------------------------

def test_criterion_3_squares_dominate():
    triangular = partial_sums(Series(ExpPoly.single(1, 1, 1)))  # 1 + 2 + 3 + ...
    pyramidal = partial_sums(Series(ExpPoly.single(1, 2, 1)))  # 1 + 4 + 9 + ...
    ok = compare(triangular, pyramidal) is LESS
    ok &= infinitely_greater(pyramidal, triangular) is True
    criterion(3, "sum of squares is greater and infinitely greater than sum of naturals", ok)


# ------------------------------------------------------------------
# 4. Scaled identities keep their ratio; powers stack strictly
# ------------------------------------------------------------------

def test_criterion_4_ratios_and_powers():
    rng = random.Random(404)
    ok = True
    for _ in range(20):
        r = F(rng.randint(-99, 99) or 1, rng.randint(1, 20))
        s = F(rng.randint(-99, 99) or 1, rng.randint(1, 20))
        ok &= proportionality_constant(r * N, s * N) == r / s
    square, cube = mul(N, N), mul(N, mul(N, N))
    ok &= infinitely_greater(square, N) is True
    ok &= infinitely_greater(cube, square) is True
    ok &= is_infinitely_small(pow_int(N, -1)) is True
    criterion(4, "rN : sN = r : s over 20 random pairs; N^2 >> N >> nothing smaller than 1/N", ok)


# ------------------------------------------------------------------
# 5. Ten ring/order axioms over 10^4 random triples, plus zero divisors
# ------------------------------------------------------------------

BASES = [F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2), F(3, 4), F(-3, 4)]


def _random_poly(rng, max_terms=2, bases=BASES, pow_lo=-2, pow_hi=3, coeff_max=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.choice(bases), rng.randint(pow_lo, pow_hi))
        c = F(rng.randint(-coeff_max, coeff_max))
        terms[key] = terms.get(key, F(0)) + c
    return ExpPoly(terms)


def test_criterion_5_ring_axioms():
    rng = random.Random(505)
    zero, one = embed_scalar(0), embed_scalar(1)
    failures = 0
    for i in range(10_000):
        a = Quantity.closed(_random_poly(rng))
        b = Quantity.closed(_random_poly(rng))
        c = Quantity.closed(_random_poly(rng))
        checks = [
            compare(add(add(a, b), c), add(a, add(b, c))) is EQUAL,  # 1 assoc +
            compare(add(a, b), add(b, a)) is EQUAL,  # 2 comm +
            compare(add(a, zero), a) is EQUAL,  # 3 neutral +
            compare(add(a, neg(a)), zero) is EQUAL,  # 4 inverse +
            compare(mul(mul(a, b), c), mul(a, mul(b, c))) is EQUAL,  # 5 assoc *
            compare(mul(a, b), mul(b, a)) is EQUAL,  # 6 comm *
            compare(mul(a, one), a) is EQUAL,  # 7 neutral *
            compare(mul(a, add(b, c)), add(mul(a, b), mul(a, c))) is EQUAL,  # 8 distrib
            compare(a, a) is EQUAL,  # 9 irreflexive strict order
        ]
        # 10: transitivity, on a constructed strictly increasing chain
        lift = _random_poly(rng)
        bigger = add(a, Quantity.closed(lift * lift + ExpPoly.constant(1)))
        biggest = add(bigger, one)
        checks.append(
            compare(a, bigger) is LESS
            and compare(bigger, biggest) is LESS
            and compare(a, biggest) is LESS
        )
        # Equality is a congruence: patched copies stay equal under + and *
        twin = patch(a, {rng.randint(1, 50): F(rng.randint(-9, 9))})
        checks.append(
            compare(a, twin) is EQUAL
            and compare(add(a, c), add(twin, c)) is EQUAL
            and compare(mul(a, c), mul(twin, c)) is EQUAL
        )
        if not all(checks):
            failures += 1
    osc_a = Quantity.closed(ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(-1, 2)}))
    osc_b = Quantity.closed(ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(1, 2)}))
    exhibit = (
        mul(osc_a, osc_b).body.is_zero
        and compare(osc_a, embed_scalar(0)) is not EQUAL
        and compare(osc_b, embed_scalar(0)) is not EQUAL
    )
    criterion(5, f"10^4 random triples pass all ten axioms ({failures} failures) "
                 "and oscillators exhibit zero divisors", failures == 0 and exhibit)


# ------------------------------------------------------------------
# 6. Base-1 nonnegative-power quantities are linearly ordered
# ------------------------------------------------------------------

def test_criterion_6_polynomial_subring():
    rng = random.Random(606)
    failures = 0
    for _ in range(10_000):
        p1 = _random_poly(rng, max_terms=3, bases=[F(1)], pow_lo=0, pow_hi=4)
        p2 = _random_poly(rng, max_terms=3, bases=[F(1)], pow_lo=0, pow_hi=4)
        verdict = compare(Quantity.closed(p1), Quantity.closed(p2))
        if verdict is Comparison.INCOMPARABLE:
            failures += 1
            continue
        if verdict.value != lex_poly_compare(p1, p2):
            failures += 1
        if not p1.is_zero and not p2.is_zero and (p1 * p2).is_zero:
            failures += 1
    criterion(6, f"10^4 polynomial pairs: linear order matches lexicographic "
                 f"comparison, products of nonzero stay nonzero ({failures} failures)",
              failures == 0)


# ------------------------------------------------------------------
# 7. Decided comparisons agree with exact big-integer evaluation
# ------------------------------------------------------------------

def test_criterion_7_oracle_equivalence():
    rng = random.Random(707)
    pairs = failures = 0
    while pairs < 1000:
        q1 = Quantity.closed(_random_poly(rng, max_terms=3, bases=[F(1), F(-1)], pow_lo=0, pow_hi=4))
        q2 = Quantity.closed(_random_poly(rng, max_terms=3, bases=[F(1), F(-1)], pow_lo=0, pow_hi=4))
        verdict = compare(q1, q2)
        if verdict is Comparison.INCOMPARABLE:
            continue
        pairs += 1
        indices = [rng.randint(2**10, 2**20) for _ in range(100)]
        if pointwise_verdict(q1, q2, indices) != verdict.value:
            failures += 1
    criterion(7, f"10^3 decided pairs agree with pointwise evaluation at 100 "
                 f"indices in [2^10, 2^20] ({failures} failures)", failures == 0)


# ------------------------------------------------------------------
# 8. Symbolic partial sums match brute-force summation
# ------------------------------------------------------------------

def test_criterion_8_summation_matches_brute_force():
    rng = random.Random(808)
    failures = 0
    for _ in range(30):
        term = _random_poly(rng, max_terms=3, bases=[F(1), F(1, 2), F(2), F(3, 4)],
                            pow_lo=0, pow_hi=4)
        sums = partial_sums(Series(term))
        running = F(0)
        for n in range(1, 201):
            running += naive_value(term, n)
            if eval_at(sums, n) != running:
                failures += 1
    criterion(8, f"partial sums equal brute-force sums for all n <= 200 over the "
                 f"random corpus ({failures} failures)", failures == 0)


# ------------------------------------------------------------------
# 9. The calculus layer: derivatives, refuted continuity, refuted uniformity
# ------------------------------------------------------------------

def test_criterion_9_calculus():
    square = RealFunction("square", lambda x: x * x)
    est = derivative(square, 3, horizon=10_000)
    ok = abs(est.value - 6) < F(1, 1000)

    est_sin = derivative(BUILTINS["sin"], 0, horizon=10_000)
    ok &= abs(est_sin.value - 1) < F(1, 10**6)

    step_verdict = continuity_probe(BUILTINS["step"], 0)
    ok &= step_verdict.status == "fails" and step_verdict.witness is not None

    pair = add(N, pow_int(N, -1))
    uc = uniform_continuity_probe(square, N, pair)
    ok &= uc.status == "fails"
    if uc.witness is not None:
        w = uc.witness
        gap = (F(w) + F(1, w)) ** 2 - F(w) ** 2
        ok &= gap >= 2 - F(1, 10**6)
    else:
        ok = False
    criterion(9, "derivative estimates hit 6 and 1 within tolerance; step continuity "
                 "and square uniform continuity are refuted with witnesses", ok)


# ------------------------------------------------------------------
# 10. The expression language drives criteria 1-4; fuzz inputs never crash
# ------------------------------------------------------------------

BATCH = [
    "# criterion 1: omitted prefixes",
    "assert cmp(1 + delay(N, 1), N) == equal",
    "assert cmp(5 + delay(N, 5), N) == equal",
    "assert cmp(50 + delay(N, 50), N) == equal",
    "# criterion 2: geometric limits",
    "assert classify(geom(1/2)) == finite",
    "assert st(geom(1/2)) == 2",
    "assert close(geom(1/2), 2) == yes",
    "assert classify(geom(3/4)) == finite",
    "assert st(geom(3/4)) == 4",
    "assert close(geom(3/4), 4) == yes",
    "assert classify(geom(9/10)) == finite",
    "assert st(geom(9/10)) == 10",
    "assert close(geom(9/10), 10) == yes",
    "# criterion 3: squares dominate",
    "assert cmp(series(k), series(k^2)) == less",
    "assert infgreater(series(k^2), series(k)) == yes",
    "# criterion 4: ratios and powers",
    "assert cmp(5 * (3 * N), 3 * (5 * N)) == equal",
    "assert infgreater(N^2, N) == yes",
    "assert infgreater(N^3, N^2) == yes",
    "assert classify(N^-1) == infinitesimal",
]


def test_criterion_10_cli(tmp_path):
    ok = run_batch(BATCH, Config(), lambda s: None) == 0

    # byte stability across two separate interpreter runs
    script = tmp_path / "criteria.sr"
    script.write_text("\n".join(BATCH) + "\n", encoding="utf-8")
    cmd = [sys.executable, "-m", "seqring.cli", "--json", "--batch", str(script)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok &= first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout and len(first.stdout) > 0

    rng = random.Random(1010)
    vocab = [
        "N", "n", "k", "x", "let", "assert", "cmp", "classify", "st", "series",
        "geom", "delay", "patch", "deriv", "cont", "close", "infgreater", "(",
        ")", ",", "+", "-", "*", "^", "/", ":", "==", "->", "=", "0", "1", "2",
        "7", "16", "1/2", "0.5", "9999999999", "sin", "step", "sqrt", "name",
        "from", "inf", "equal", "yes",
    ]
    config = Config()
    crashes = 0
    for _ in range(1000):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
        try:
            _, code = run_statement(text, {}, config)
            if code not in (0, 1, 2, 3):
                crashes += 1
        except BaseException:
            crashes += 1
    ok &= crashes == 0
    criterion(10, f"batch encoding criteria 1-4 exits 0, JSON is byte-stable, "
                  f"10^3 fuzz statements return only documented exit codes "
                  f"({crashes} crashes)", ok)
