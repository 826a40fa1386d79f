"""Symbolic summation: Bernoulli table, Faulhaber sums, geometric power sums."""

import random
from fractions import Fraction as F

import pytest
from helpers import (
    VANISHING_BODIES,
    brute_partial_sum,
    check_zero_prefix,
    naive_value,
    random_poly,
    series_holes,
)

from seqring import (
    DEGREE_CAP,
    BaseOne,
    Comparison,
    DegreeCapExceeded,
    ExpPoly,
    NegativePowerTerm,
    Series,
    add,
    bernoulli_numbers,
    compare,
    embed_scalar,
    eval_at,
    faulhaber_sum,
    geometric_power_sum,
    geometric_series_sums,
    omit_first,
    partial_sums,
)

SERIES_BASES = [F(1), F(1, 2), F(2), F(3, 4)]


def test_bernoulli_prefix():
    # recurrence-forced values, checked against the hand-computed prefix
    expected = [
        F(1),
        F(-1, 2),
        F(1, 6),
        F(0),
        F(-1, 30),
        F(0),
        F(1, 42),
        F(0),
        F(-1, 30),
        F(0),
        F(5, 66),
    ]
    assert list(bernoulli_numbers(10)) == expected


def test_faulhaber_degree_one():
    assert faulhaber_sum(1) == ExpPoly({(F(1), 2): F(1, 2), (F(1), 1): F(1, 2)})


def test_faulhaber_degree_two():
    assert faulhaber_sum(2) == ExpPoly(
        {(F(1), 3): F(1, 3), (F(1), 2): F(1, 2), (F(1), 1): F(1, 6)}
    )


def test_faulhaber_degree_three():
    # oracle: sum of cubes equals n^2 (n+1)^2 / 4, brute-checked to n = 50
    cubes = faulhaber_sum(3)
    assert cubes == ExpPoly({(F(1), 4): F(1, 4), (F(1), 3): F(1, 2), (F(1), 2): F(1, 4)})
    for n in range(1, 51):
        brute = sum(F(k) ** 3 for k in range(1, n + 1))
        assert cubes.value_at(n) == brute == F(n * n * (n + 1) * (n + 1), 4)


def test_faulhaber_cap():
    with pytest.raises(DegreeCapExceeded):
        faulhaber_sum(17)


def test_faulhaber_telescopes():
    for j in range(0, 11):
        fs = faulhaber_sum(j)
        for n in range(2, 201):
            assert fs.value_at(n) - fs.value_at(n - 1) == F(n) ** j


def test_geometric_base_half():
    assert geometric_power_sum(0, F(1, 2)) == ExpPoly(
        {(F(1), 0): F(1), (F(1, 2), 0): F(-1)}
    )


def test_geometric_base_two():
    # brute force to n = 30: 2 + 4 + ... + 2^n = 2^(n+1) - 2
    got = geometric_power_sum(0, F(2))
    assert got == ExpPoly({(F(2), 0): F(2), (F(1), 0): F(-2)})
    for n in range(1, 31):
        assert got.value_at(n) == sum(F(2) ** k for k in range(1, n + 1))


def test_geometric_linear_weight():
    got = geometric_power_sum(1, F(1, 2))
    for n in range(1, 31):
        assert got.value_at(n) == sum(F(k) * F(1, 2) ** k for k in range(1, n + 1))


def test_geometric_rejects_base_one():
    with pytest.raises(BaseOne):
        geometric_power_sum(2, F(1))


def test_geometric_random_against_brute_force():
    rng = random.Random(30)
    for _ in range(20):
        j = rng.randint(0, 5)
        b = rng.choice([F(1, 2), F(2), F(3, 4), F(-1, 2), F(5, 3)])
        got = geometric_power_sum(j, b)
        for n in range(1, 41):
            assert got.value_at(n) == sum(F(k) ** j * b**k for k in range(1, n + 1))


@pytest.mark.parametrize(
    "b",
    # u - v < 0, then u - v > 0, for the base b = u/v
    [F(1, 2), F(2, 3), F(3, 7), F(-1, 2), F(-2), F(-1), F(2), F(3, 2), F(3), F(10, 3)],
)
def test_geometric_power_sum_up_to_the_degree_cap(b):
    for j in range(DEGREE_CAP + 1):
        got = geometric_power_sum(j, b)
        total = F(0)
        for n in range(1, 21):
            total += F(n) ** j * b**n
            assert got.value_at(n) == naive_value(got, n) == total, (j, n)


# ------------------------------------------------------------------
# partial_sums / omit_first
# ------------------------------------------------------------------

def test_ones_sum_to_identity():
    q = partial_sums(Series(ExpPoly.constant(1)))
    assert q.body == ExpPoly.single(1, 1, 1)


def test_identity_sums_to_triangulars():
    q = partial_sums(Series(ExpPoly.single(1, 1, 1)))
    assert q.body == ExpPoly({(F(1), 2): F(1, 2), (F(1), 1): F(1, 2)})


def test_squares_sum_to_pyramidals():
    q = partial_sums(Series(ExpPoly.single(1, 2, 1)))
    assert q.body == ExpPoly(
        {(F(1), 3): F(1, 3), (F(1), 2): F(1, 2), (F(1), 1): F(1, 6)}
    )
    assert [eval_at(q, n) for n in range(1, 5)] == [1, 5, 14, 30]


def test_partial_sums_rejects_negative_powers():
    with pytest.raises(NegativePowerTerm):
        partial_sums(Series(ExpPoly.single(1, -1, 1)))


def test_partial_sums_with_later_start():
    s = Series(ExpPoly.single(1, 1, 1), start=4)
    q = partial_sums(s)
    for n in range(1, 31):
        assert eval_at(q, n) == brute_partial_sum(s.term, n, start=4)


def test_partial_sums_random_corpus():
    rng = random.Random(31)
    for _ in range(25):
        term = random_poly(rng, max_terms=3, bases=SERIES_BASES, pow_lo=0, pow_hi=4)
        q = partial_sums(Series(term))
        running = F(0)
        for n in range(1, 201):
            running += naive_value(term, n)
            assert eval_at(q, n) == running


def test_partial_sums_linear():
    rng = random.Random(32)
    for _ in range(20):
        t1 = random_poly(rng, max_terms=2, bases=SERIES_BASES, pow_lo=0, pow_hi=4)
        t2 = random_poly(rng, max_terms=2, bases=SERIES_BASES, pow_lo=0, pow_hi=4)
        combined = partial_sums(Series(t1 + t2))
        split = add(partial_sums(Series(t1)), partial_sums(Series(t2)))
        assert combined.body == split.body


@pytest.mark.parametrize("start", [2, 3, 4, 8, 51])
def test_series_prefix_skips_indices_where_the_body_vanishes(start):
    alternating = ExpPoly.single(1, 0, -1)
    for term in VANISHING_BODIES + [alternating, ExpPoly.single(3, 0, F(1, 2))]:
        q = partial_sums(Series(term, start))
        check_zero_prefix(q, start - 1, lambda n: brute_partial_sum(term, n, start))
        # The body S(n) - S(start - 1) is 0 at start - 1.
        assert start - 1 not in q.patch
    q = omit_first(Series(alternating, 3), 5)
    check_zero_prefix(q, 5, lambda n: brute_partial_sum(alternating, n, 6))


@pytest.mark.parametrize("m", [1, 19, 20, 21, 499, 501, 2000])
def test_series_from_far_starts_finds_every_hole(m):
    alternating = ExpPoly.single(1, 0, -1)
    for term in VANISHING_BODIES + [alternating]:
        q = partial_sums(Series(term, m + 1))
        check_zero_prefix(q, m, lambda n: brute_partial_sum(term, n, m + 1))
        assert q.patch.keys() == set(range(1, m + 1)) - series_holes(term, m)


# S(n) = n(n - 300)(n - 1000)(n - 2000) has these first differences, so its
# sums from n + 1 to m vanish at n = 300 and 1000 for m = 1000 or 2000.
QUARTIC_STEPS = ExpPoly({(F(1), 3): 4, (F(1), 2): -9906, (F(1), 1): 5809904, (F(1), 0): -602903301})


@pytest.mark.parametrize("m", [1, 299, 1000, 2000, 2500])
def test_series_of_a_polynomial_term_skips_exactly_its_holes(m):
    # A polynomial's reflection at m has every power of t, with coefficients
    # of the size of m**k, and its tail bound reaches m, so the whole prefix
    # is evaluated on it; the holes must still be exactly the summed ones.
    for term in (QUARTIC_STEPS, ExpPoly.single(1, 16, 1)):
        q = partial_sums(Series(term, m + 1))
        assert q.patch.keys() == set(range(1, m + 1)) - series_holes(term, m)
    assert series_holes(QUARTIC_STEPS, 2000) == {300, 1000, 2000}
    # A base |b| < 1, whose reflection carries b**m in its coefficients.
    term = ExpPoly.single(1, 3, F(1, 2))
    q = partial_sums(Series(term, m + 1))
    assert q.patch.keys() == set(range(1, m + 1)) - series_holes(term, m)


def test_omit_first_of_ones():
    q = omit_first(Series(ExpPoly.constant(1)), 2)
    assert [eval_at(q, n) for n in range(1, 6)] == [0, 0, 1, 2, 3]


def test_omit_zero_is_partial_sums():
    s = Series(ExpPoly.single(1, 1, 1))
    assert omit_first(s, 0) == partial_sums(s)


def test_omitted_prefix_completes_the_whole():
    s = Series(ExpPoly.constant(1))
    whole = partial_sums(s)
    for m in (1, 5, 50):
        rejoined = add(embed_scalar(m), omit_first(s, m))
        assert compare(rejoined, whole) is Comparison.EQUAL


def test_omit_first_brute_force():
    rng = random.Random(33)
    for _ in range(10):
        term = random_poly(rng, max_terms=2, bases=SERIES_BASES, pow_lo=0, pow_hi=3)
        m = rng.randint(1, 8)
        q = omit_first(Series(term), m)
        for n in range(1, 61):
            expected = F(0) if n <= m else brute_partial_sum(term, n) - brute_partial_sum(term, m)
            assert eval_at(q, n) == expected


# ------------------------------------------------------------------
# geometric_series_sums (the unit-led geometric series)
# ------------------------------------------------------------------

def test_geometric_sums_read_their_base_as_an_exact_rational():
    # A float base is a TypeError, as it is for ExpPoly's own inputs; an int,
    # a Fraction and a str give the same rational.
    for inexact in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError, match="not an exact rational"):
            geometric_series_sums(inexact)
        with pytest.raises(TypeError, match="not an exact rational"):
            geometric_power_sum(1, inexact)
    assert geometric_series_sums("1/10") == geometric_series_sums(F(1, 10))
    assert geometric_series_sums("1/10").body.coeff(F(1, 10), 0) == F(-10, 9)
    assert geometric_series_sums(3) == geometric_series_sums("3") == geometric_series_sums(F(3))
    assert geometric_power_sum(2, "1/10") == geometric_power_sum(2, F(1, 10))
    assert geometric_power_sum(2, -2) == geometric_power_sum(2, "-2") == geometric_power_sum(2, F(-2))


def test_geom_partial_sums_closed_form():
    for e in (F(1, 2), F(3, 4), F(9, 10)):
        q = geometric_series_sums(e)
        for n in range(1, 31):
            assert eval_at(q, n) == (1 - e**n) / (1 - e)


def test_geom_degenerate_bases():
    assert geometric_series_sums(F(0)) == embed_scalar(1)
    q = geometric_series_sums(F(1))
    assert q.body == ExpPoly.single(1, 1, 1)
