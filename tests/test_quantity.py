"""Core representation and pointwise ring operations."""

import random
from fractions import Fraction as F

import pytest
from helpers import (
    VANISHING_BODIES,
    check_zero_prefix,
    delay_holes,
    naive_eval,
    naive_product,
    naive_value,
    random_poly,
    random_quantity,
    reference_patch_render,
    reference_render,
)

from seqring import (
    ExpPoly,
    InvalidTerm,
    LazyPatchUnsupported,
    NegativePowerDelay,
    NonInvertible,
    Quantity,
    Series,
    Term,
    add,
    canonicalize,
    delay,
    embed_scalar,
    eval_at,
    mul,
    neg,
    partial_sums,
    patch,
    pow_int,
    values,
)
from seqring.quantity import _ZERO, reader

N = Quantity.closed(ExpPoly.single(1, 1, 1))
P = Quantity.closed(ExpPoly({(F(1), 2): F(1, 2), (F(1), 1): F(1, 2)}))

# (1,0,1,0,...) and (0,1,0,1,...) as exact closed forms
OSC_A = Quantity.closed(ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(-1, 2)}))
OSC_B = Quantity.closed(ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(1, 2)}))


# ------------------------------------------------------------------
# embed_scalar
# ------------------------------------------------------------------

def test_embed_constant_sequence():
    q = embed_scalar(3)
    assert [eval_at(q, n) for n in range(1, 6)] == [3, 3, 3, 3, 3]


def test_embed_zero_is_empty_body():
    assert embed_scalar(0).body.is_zero


def test_embed_negative_rational():
    q = embed_scalar(F(-7, 2))
    assert eval_at(q, 100) == F(-7, 2)


# ------------------------------------------------------------------
# canonicalize
# ------------------------------------------------------------------

def test_canonicalize_merges_equal_keys():
    e = canonicalize([Term(F(2), 1, F(1)), Term(F(3), 1, F(1))])
    assert e == ExpPoly.single(5, 1, 1)


def test_canonicalize_cancels_to_zero():
    e = canonicalize([Term(F(1), 0, F(1)), Term(F(-1), 0, F(1))])
    assert e.is_zero


def test_canonicalize_keeps_distinct_bases():
    # brute-force oracle: the two-term form evaluates to 1, 0 at n = 1, 2
    e = canonicalize([Term(F(1, 2), 0, F(1)), Term(F(-1, 2), 0, F(-1))])
    assert len(e.items()) == 2
    assert e.value_at(1) == 1
    assert e.value_at(2) == 0


def test_canonicalize_rejects_zero_base():
    with pytest.raises(InvalidTerm):
        Term(F(1), 0, F(0))


def test_canonicalize_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        e = random_poly(rng, max_terms=4)
        assert canonicalize(e.terms()) == e


# ------------------------------------------------------------------
# eval_at
# ------------------------------------------------------------------

def test_eval_identity_sequence():
    assert eval_at(N, 4) == 4


def test_eval_triangular_numbers():
    assert [eval_at(P, n) for n in range(1, 5)] == [1, 3, 6, 10]


def test_eval_patch_precedence():
    q = Quantity.closed(N.body, {1: F(0)})
    assert eval_at(q, 1) == 0
    assert eval_at(q, 2) == 2


def test_eval_rejects_index_zero():
    with pytest.raises(ValueError):
        eval_at(N, 0)


@pytest.mark.parametrize("call, arg", [
    pytest.param(lambda i: patch(N, {i: 7}), 1.5, id="patch"),
    pytest.param(lambda i: Quantity.closed(N.body, {i: 7}), F(3, 2), id="closed"),
    pytest.param(lambda i: eval_at(N, i), 2.5, id="eval_at"),
    pytest.param(lambda i: eval_at(N.as_lazy(), i), 2.5, id="eval_at-lazy"),
    pytest.param(lambda i: delay(N.as_lazy(), i), 1.5, id="delay-lazy"),
    pytest.param(lambda i: delay(N, i), 1.5, id="delay"),
    pytest.param(lambda i: delay(N.as_lazy(), i), True, id="delay-bool"),
    pytest.param(lambda i: ExpPoly({(F(1), 2): 1, (F(2), 0): F(3, 5)}).value_at(i), 2.5, id="expoly-value_at"),
    pytest.param(lambda i: Term(1, 1, 2).value_at(i), 2.5, id="term-value_at"),
    pytest.param(lambda i: values(N.as_lazy())(i), 2.5, id="values-lazy"),
])
def test_integer_arguments_are_checked(call, arg):
    # A non-integer index or delay is a TypeError; a bool counts as its int.
    if isinstance(arg, bool):
        assert call(arg).render() == call(int(arg)).render() == "lazy(delay(1*n^1*1^n, 1))"
    else:
        with pytest.raises(TypeError):
            call(arg)


# value_at reads with pow and readers step from index to index; every access
# order must agree with the textbook formula.
STEP_BASES = [F(1), F(-1), F(1, 2), F(-1, 2), F(3, 7), F(-3)]


def _stepping_poly(rng: random.Random) -> ExpPoly:
    return ExpPoly({
        (rng.choice(STEP_BASES), rng.randint(-3, 3)): F(rng.randint(-9, 9), rng.randint(1, 6))
        for _ in range(rng.randint(1, 4))
    })


def _access_orders(rng: random.Random) -> dict:
    ascending = list(range(1, 41))
    return {
        "ascending": ascending,
        "repeated": [n for n in ascending for _ in range(3)],
        "descending": ascending[::-1],
        "jumping": [rng.choice((1, 2, 39, 40, 41, 300, 5000)) for _ in range(40)],
    }


def test_value_at_matches_naive_formula_in_every_access_order():
    rng = random.Random(41)
    for _ in range(60):
        e = _stepping_poly(rng)
        carried = values(Quantity.closed(e))  # keeps its memo from one order to the next
        for order, indices in _access_orders(rng).items():
            fresh = ExpPoly(dict(e.items()))
            for n in indices:
                expected = naive_value(e, n)
                assert fresh.value_at(n) == expected, (e, order, n)
                assert carried(n) == expected, (e, order, n)
    assert ExpPoly().value_at(7) == 0


def test_lazies_sharing_one_body_match_naive_formula():
    rng = random.Random(42)
    for _ in range(30):
        x, d = Quantity.closed(_stepping_poly(rng)), Quantity.closed(_stepping_poly(rng))
        plain, shifted, lagged = x.as_lazy(), x.as_lazy() + d, delay(x.as_lazy(), 3)
        for n in list(range(1, 61)) + [rng.randint(1, 300) for _ in range(20)]:
            xn = naive_value(x.body, n)
            assert eval_at(plain, n) == xn
            assert eval_at(shifted, n) == xn + naive_value(d.body, n)
            assert eval_at(lagged, n) == (0 if n <= 3 else naive_value(x.body, n - 3))


def test_value_at_memo_is_invisible():
    # Pairs from one reader, in every access order, equal a fresh twin's value_at.
    e = ExpPoly({(F(3, 7), 1): F(2, 3), (F(-3), -1): F(5), (F(1, 2), 0): F(-1, 4)})
    twin = ExpPoly(dict(e.items()))
    read = reader(Quantity.closed(e))
    for order, indices in _access_orders(random.Random(43)).items():
        for n in indices:
            (pair,) = read(n)
            assert F(*pair) == twin.value_at(n), (order, n)
    assert e == twin
    assert hash(e) == hash(twin)
    assert e.render() == twin.render()
    assert repr(e) == repr(twin)


def test_values_raise_the_scale_to_a_power_only_on_a_restart(monkeypatch):
    # values steps its reduced scale by one multiplication per index, from
    # index 0 on, and value_at takes it from one power: each restart costs
    # one Fraction power, and a read of index 1 or a repeated read none.
    e = ExpPoly({(F(3, 7), 0): F(1), (F(-2, 3), 1): F(5, 2), (F(1, 2), -1): F(-1, 3)})
    reads = list(range(1, 201)) + [200] + list(range(50, 61))
    expected = [naive_value(e, n) for n in reads]
    powers = []
    power = F.__pow__
    monkeypatch.setattr(F, "__pow__", lambda a, b, *rest: powers.append(b) or power(a, b, *rest))
    value = values(Quantity.closed(e))
    assert [value(n) for n in reads] == expected
    assert powers == [50]
    powers.clear()
    assert e.value_at(100000) == ExpPoly(dict(e.items())).value_at(100000)
    assert powers == [100000, 100000]


# ------------------------------------------------------------------
# add / neg / mul
# ------------------------------------------------------------------

def test_add_doubles_identity():
    q = add(N, N)
    assert q.body == ExpPoly.single(2, 1, 1)
    assert [eval_at(q, n) for n in range(1, 4)] == [2, 4, 6]


def test_add_oscillators_gives_constant_one():
    q = add(OSC_A, OSC_B)
    for n in range(1, 11):  # pointwise brute force
        assert eval_at(q, n) == 1


def test_neg_flips_sign():
    assert eval_at(neg(N), 3) == -3


def test_neg_zero_fixed_point():
    assert neg(embed_scalar(0)).body.is_zero


def test_neg_negates_body_and_patch():
    q = patch(N, {2: F(7)})
    m = neg(q)
    assert m.body == -N.body
    assert m.patch == {2: F(-7)}


def test_mul_squares_identity():
    q = mul(N, N)
    assert q.body == ExpPoly.single(1, 2, 1)
    assert [eval_at(q, n) for n in range(1, 4)] == [1, 4, 9]


def test_mul_oscillators_is_exact_zero():
    assert mul(OSC_A, OSC_B).body.is_zero


def test_mul_scalar_homomorphism():
    assert mul(embed_scalar(2), embed_scalar(3)) == embed_scalar(6)


# Bases whose products are 1 or -1 (2 * 1/2, -2 * -1/2), and coefficients
# over several denominators, so that the integer numerators of a product sit
# over different lcms and some keys cancel to 0.
PRODUCT_BASES = [F(1), F(-1), F(2), F(1, 2), F(-2), F(-1, 2), F(3), F(2, 3)]


def _product_form(rng: random.Random) -> ExpPoly:
    return ExpPoly({
        (rng.choice(PRODUCT_BASES), rng.randint(-2, 2)): F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6, 7)))
        for _ in range(rng.randint(0, 5))
    })


def _check_product(a: ExpPoly, b: ExpPoly) -> None:
    product = a * b
    expected = naive_product(a, b)
    assert dict(product.items()) == expected, (a, b)
    assert product == ExpPoly(expected) and hash(product) == hash(ExpPoly(expected))
    for n in (1, 2, 3, 10, 57):
        assert naive_value(product, n) == naive_value(a, n) * naive_value(b, n), (a, b, n)


def test_mul_matches_the_term_by_term_product():
    rng = random.Random(10)
    for _ in range(300):
        _check_product(_product_form(rng), _product_form(rng))


def test_mul_of_empty_constant_and_cancelling_forms():
    two, half = ExpPoly.single(F(1, 3), 0, 2), ExpPoly.single(F(3, 5), -1, F(1, 2))
    minus_two, minus_half = ExpPoly.single(5, 2, -2), ExpPoly.single(F(-1, 4), 0, F(-1, 2))
    assert two * half == ExpPoly.single(F(1, 5), -1, 1)
    assert minus_two * minus_half == ExpPoly.single(F(-5, 4), 2, 1)
    # (2^n + (1/2)^n)(2^n - (1/2)^n): the two cross terms at base 1 cancel.
    plus = ExpPoly({(F(2), 0): F(1), (F(1, 2), 0): F(1)})
    minus = ExpPoly({(F(2), 0): F(1), (F(1, 2), 0): F(-1)})
    assert plus * minus == ExpPoly({(F(4), 0): F(1), (F(1, 4), 0): F(-1)})
    forms = [ExpPoly(), ExpPoly.constant(F(3, 5)), plus, minus, two, minus_half]
    for a in forms:
        for b in forms:
            _check_product(a, b)


def test_equal_forms_are_equal_and_hash_alike():
    # The coefficients are kept as integers over one reduced denominator, so
    # every route to one form must reach the same integers.
    rng = random.Random(12)
    for _ in range(150):
        a, b, c = _product_form(rng), _product_form(rng), _product_form(rng)
        r = F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40))
        for x, y in (
            ((a + b) - b, a),
            (a.scale(r).scale(1 / r), a),
            ((a * b) * c, a * (b * c)),
            (-(-a), a),
            (a, ExpPoly(dict(a.items()))),
        ):
            assert x == y and hash(x) == hash(y), (a, b, c, r)
    assert (a - a) == ExpPoly() and hash(a - a) == hash(ExpPoly())
    with pytest.raises(InvalidTerm):
        ExpPoly({(0, 1): 1})


def test_products_hash_no_fraction(monkeypatch):
    # Bases and coefficients are integers inside ExpPoly, so repeated products
    # never hash a Fraction (the Fraction-keyed form made 106 149 calls here).
    calls = []
    fraction_hash = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or fraction_hash(self))
    half, alternating = ExpPoly.single(1, 0, F(1, 2)), ExpPoly.single(1, 0, -1)
    q = pow_int(N + Quantity.closed(half) + Quantity.closed(alternating), 64)
    assert calls == []
    monkeypatch.undo()
    assert naive_value(q.body, 3) == (3 + F(1, 8) - 1) ** 64


def test_scalar_coercion_operators():
    q = 3 * N + 1
    assert eval_at(q, 5) == 16


# ------------------------------------------------------------------
# delay
# ------------------------------------------------------------------

def test_delay_prefixes_zeros():
    q = delay(N, 2)
    assert [eval_at(q, n) for n in range(1, 6)] == [0, 0, 1, 2, 3]


def test_delay_zero_is_identity():
    assert delay(N, 0) is N


def test_delay_shift_oracle():
    # brute-force shift check against geometric partial sums, n <= 20
    geo = Quantity.closed(ExpPoly({(F(1), 0): F(1), (F(1, 2), 0): F(-1)}))  # 1 - (1/2)^n
    q = delay(geo, 3)
    assert eval_at(q, 5) == eval_at(geo, 2)
    for n in range(1, 21):
        expected = F(0) if n <= 3 else eval_at(geo, n - 3)
        assert eval_at(q, n) == expected


def test_delay_keeps_closed_form():
    assert delay(P, 5).is_closed


def test_delay_shifts_patch():
    q = patch(N, {1: F(42)})
    d = delay(q, 2)
    assert eval_at(d, 3) == 42


def test_delay_negative_power_errors():
    recip = pow_int(N, -1)
    with pytest.raises(NegativePowerDelay):
        delay(recip, 1)


def test_delay_negative_power_lowers_via_lazy():
    recip = pow_int(N, -1).as_lazy()
    q = delay(recip, 2)
    assert eval_at(q, 1) == 0
    assert eval_at(q, 5) == F(1, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 19, 20, 21, 40, 499, 501, 2000])
def test_delay_prefix_skips_indices_where_the_body_vanishes(m):
    for body in VANISHING_BODIES:
        q = Quantity.closed(body)
        d = delay(q, m)
        check_zero_prefix(d, m, lambda n: naive_eval(q, n - m))
        holes = delay_holes(body, m)
        assert d.patch.keys() == set(range(1, m + 1)) - holes
        if m >= 4 and body in VANISHING_BODIES[:5]:  # each is 0 at some index 1..m delayed this far
            assert holes


def test_delay_finds_holes_deep_in_the_prefix_and_at_its_end():
    shifted, deep, half_zero, bare = (Quantity.closed(b) for b in VANISHING_BODIES[5:])
    holes = lambda q, m: set(range(1, m + 1)) - delay(q, m).patch.keys()
    assert holes(shifted, 499) == set()
    assert holes(shifted, 501) == {1}
    assert holes(shifted, 2000) == {1500}
    assert holes(deep, 20) == set()
    assert holes(deep, 21) == {1}
    assert holes(deep, 2000) == {1980}
    assert holes(half_zero, 2000) == set(range(1, 2000, 2)) | {2000}
    assert holes(half_zero, 21) == set(range(2, 21, 2)) | {21}
    assert holes(bare, 2000) == {2000}


def test_delay_hole_scan_does_not_grow_with_m(monkeypatch):
    windows = []  # the number of indices each exact scan evaluates
    zeros_below = ExpPoly._zeros_below

    def counted(self, window):
        windows.append(window)
        return zeros_below(self, window)

    monkeypatch.setattr(ExpPoly, "_zeros_below", counted)
    q = Quantity.closed(ExpPoly({(F(1), 3): 1, (F(-1), 2): 1, (F(1), 1): 1, (F(-1), 0): 5}))
    counts = []
    for m in (10**3, 10**5):
        windows.clear()
        d = delay(q, m)
        counts.append(sum(windows))
        assert len(d.patch) == m  # q(n - m) = (n - m)^3 + ... has no zero at n <= m
        assert eval_at(d, m + 2) == eval_at(q, 2)
    assert counts[0] == counts[1] < 10


def test_reflect_reads_the_form_backwards():
    rng = random.Random(41)
    for _ in range(40):
        e = random_poly(rng, max_terms=4, pow_lo=0)
        for m in (0, 1, 7):
            r = e.reflect(m)
            for t in range(12):
                assert naive_value(r, t) == naive_value(e, m - t), (e, m, t)
    with pytest.raises(ValueError):
        ExpPoly.single(1, -1, 2).reflect(0)


def test_zeros_match_a_full_scan():
    rng = random.Random(42)
    for _ in range(80):
        e = random_poly(rng, max_terms=4, pow_lo=0)
        t0 = rng.randint(0, 30)
        hole = e - ExpPoly.constant(naive_value(e, t0))  # 0 at t0
        for f in (e, hole, ExpPoly()):
            assert f.zeros(40) == {t for t in range(40) if naive_value(f, t) == 0}, f


def test_delay_prefix_of_one_term_and_patched_bodies():
    one_term = Quantity.closed(ExpPoly.single(F(-3, 2), 0, F(-1, 2)))
    patched = patch(Quantity.closed(VANISHING_BODIES[1]), {1: F(7), 2: F(0), 5: F(-1, 3)})
    assert patched.patch == {1: F(7), 2: F(0), 5: F(-1, 3)}
    for q in (one_term, patched, N):
        for m in (1, 3, 6, 25):
            d = delay(q, m)
            check_zero_prefix(d, m, lambda n: naive_eval(q, n - m))
            assert {i: v for i, v in d.patch.items() if i > m} == {
                i + m: v for i, v in q.patch.items()
            }


def test_delay_composes():
    rng = random.Random(2)
    for _ in range(20):
        q = random_quantity(rng, with_patch=True, pow_lo=0)
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        lhs, rhs = delay(q, a + b), delay(delay(q, a), b)
        for n in range(1, 101):
            assert eval_at(lhs, n) == eval_at(rhs, n)


# ------------------------------------------------------------------
# patch
# ------------------------------------------------------------------

def test_patch_override():
    assert eval_at(patch(N, {1: F(0)}), 1) == 0


def test_patch_last_wins():
    q = patch(patch(N, {1: F(0)}), {1: F(5)})
    assert eval_at(q, 1) == 5


def test_patch_lazy_unsupported():
    with pytest.raises(LazyPatchUnsupported):
        patch(N.as_lazy(), {1: F(0)})


def test_patch_rejects_index_zero():
    with pytest.raises(ValueError):
        patch(N, {0: F(1)})


# The minimality check compares an override with the body's value modulo
# P = 2**61 - 1 first; only equal or undefined residues evaluate the body.
MODULUS = 2305843009213693951


def _value_at_calls(monkeypatch) -> list:
    calls = []
    value_at = ExpPoly.value_at

    def counted(self, n):
        calls.append(n)
        return value_at(self, n)

    monkeypatch.setattr(ExpPoly, "value_at", counted)
    return calls


@pytest.mark.parametrize(
    "body, index",
    [
        (N.body, 5),
        (ExpPoly.single(1, 0, F(3, 7)), 50),
        (ExpPoly({(F(2), -1): F(5, 3), (F(-1), 2): F(-1, 4)}), 9),
    ],
)
def test_patch_keeps_a_value_congruent_to_the_body_but_not_equal(monkeypatch, body, index):
    q = Quantity.closed(body)
    calls = _value_at_calls(monkeypatch)
    for offset in (MODULUS, F(MODULUS, 7), -3 * MODULUS):
        v = naive_value(body, index) + offset
        assert patch(q, {index: v}).patch == {index: v}
    assert calls == [index] * 3  # the residues agree, so the exact check decides


def test_patch_drops_a_value_equal_to_the_body():
    three_sevenths = Quantity.closed(ExpPoly.single(1, 0, F(3, 7)))
    assert patch(N, {5: 5, 6: 7}).patch == {6: F(7)}
    assert patch(three_sevenths, {50: F(3, 7) ** 50}).patch == {}
    assert patch(three_sevenths, {50: F(3, 7) ** 50 + 1}).patch == {50: F(3, 7) ** 50 + 1}


@pytest.mark.parametrize(
    "body, index, equal",
    [
        (ExpPoly.single(F(1, MODULUS), 1, 1), 3, F(3, MODULUS)),  # coefficient over P
        (ExpPoly.single(1, 0, F(1, MODULUS)), 2, F(1, MODULUS**2)),  # base over P
        (ExpPoly.constant(F(1, MODULUS)), 7, F(1, MODULUS)),  # override over P
        (ExpPoly.single(1, -1, 1), MODULUS, F(1, MODULUS)),  # N^-1 at index P
        (ExpPoly.single(MODULUS, -1, 1), MODULUS, F(1)),  # P * N^-1 at index P: 1
    ],
)
def test_patch_with_an_undefined_residue_takes_the_exact_path(monkeypatch, body, index, equal):
    q = Quantity.closed(body)
    calls = _value_at_calls(monkeypatch)
    assert patch(q, {index: equal}).patch == {}
    assert patch(q, {index: equal + 1}).patch == {index: equal + 1}
    assert patch(q, {index: equal + MODULUS}).patch == {index: equal + MODULUS}
    assert calls == [index] * 3
    assert naive_value(body, index) == equal


def test_patch_with_different_residues_evaluates_no_body(monkeypatch):
    advances = []
    advance = ExpPoly._advance
    monkeypatch.setattr(ExpPoly, "_advance", lambda self, n, memo: advances.append(n) or advance(self, n, memo))
    q = patch(Quantity.closed(ExpPoly.single(1, 0, F(3, 7))), {100000: 1})
    assert q.patch == {100000: F(1)}
    assert advances == []


def test_patch_minimality_matches_the_naive_value():
    rng = random.Random(11)
    for _ in range(200):
        body = _stepping_poly(rng)
        overrides = {}
        for i in rng.sample(range(1, 80), 6):
            overrides[i] = naive_value(body, i) if rng.random() < 0.5 else F(rng.randint(-9, 9), rng.randint(1, 4))
        q = patch(Quantity.closed(body), overrides)
        assert q.patch == {i: v for i, v in overrides.items() if v != naive_value(body, i)}, body


# ------------------------------------------------------------------
# pow_int
# ------------------------------------------------------------------

def test_pow_zero_is_unit():
    assert pow_int(P, 0) == embed_scalar(1)


def test_pow_reciprocal_of_identity():
    recip = pow_int(N, -1)
    assert recip.body == ExpPoly.single(1, -1, 1)
    assert eval_at(recip, 4) == F(1, 4)


def test_pow_reciprocal_needs_single_term():
    with pytest.raises(NonInvertible):
        pow_int(P, -1)


# ------------------------------------------------------------------
# invariants
# ------------------------------------------------------------------

def test_ring_axioms_pointwise():
    rng = random.Random(3)
    for _ in range(30):
        q1, q2, q3 = (random_quantity(rng, with_patch=True) for _ in range(3))
        zero, one = embed_scalar(0), embed_scalar(1)
        for n in range(1, 101):
            a, b, c = eval_at(q1, n), eval_at(q2, n), eval_at(q3, n)
            assert eval_at(add(add(q1, q2), q3), n) == a + b + c
            assert eval_at(add(q1, q2), n) == eval_at(add(q2, q1), n)
            assert eval_at(add(q1, zero), n) == a
            assert eval_at(add(q1, neg(q1)), n) == 0
            assert eval_at(mul(mul(q1, q2), q3), n) == a * b * c
            assert eval_at(mul(q1, q2), n) == eval_at(mul(q2, q1), n)
            assert eval_at(mul(q1, one), n) == a
            assert eval_at(mul(q1, add(q2, q3)), n) == a * (b + c)


def test_eval_homomorphism_mixed_representations():
    rng = random.Random(4)
    for _ in range(5):
        q1 = random_quantity(rng, with_patch=True)
        q2 = random_quantity(rng)
        for lhs, rhs in [(q1, q2.as_lazy()), (q1.as_lazy(), q2), (q1, q2)]:
            total, prod = add(lhs, rhs), mul(lhs, rhs)
            for n in range(1, 1001):
                a, b = eval_at(q1, n), eval_at(q2, n)
                assert eval_at(total, n) == a + b
                assert eval_at(prod, n) == a * b


def test_canonical_equality_implies_pointwise_equality():
    rng = random.Random(5)
    for _ in range(30):
        e = random_poly(rng, max_terms=3)
        rebuilt = canonicalize(list(e.terms()) + [Term(F(1), 0, F(1)), Term(F(-1), 0, F(1))])
        assert rebuilt == e
        for n in range(1, 201):
            assert rebuilt.value_at(n) == e.value_at(n)


def test_embed_is_ring_homomorphism():
    rng = random.Random(6)
    for _ in range(50):
        r = F(rng.randint(-30, 30), rng.randint(1, 9))
        s = F(rng.randint(-30, 30), rng.randint(1, 9))
        assert add(embed_scalar(r), embed_scalar(s)) == embed_scalar(r + s)
        assert mul(embed_scalar(r), embed_scalar(s)) == embed_scalar(r * s)


def test_mixed_arithmetic_lowers_to_lazy():
    q = add(N, N.as_lazy())
    assert not q.is_closed
    assert eval_at(q, 10) == 20


def test_rendering_examples():
    assert P.render() == "1/2*n^2*1^n + 1/2*n^1*1^n"
    assert embed_scalar(0).render() == "0"
    assert Quantity.closed(ExpPoly.single(1, 0, -1)).render() == "1*n^0*(-1)^n"


def _check_render(q: Quantity) -> None:
    assert q.render() == reference_patch_render(reference_render(q.body.items()), q.patch)


def test_rendering_matches_the_reference_on_zero_prefixes():
    # Runs of prefix zeros are written in bulk; the text must still be the
    # per-entry f"{i}:{v}" of every override, whichever zero an entry holds.
    for body in VANISHING_BODIES:
        q = Quantity.closed(body)
        for m in (1, 2, 7, 21, 501):
            d = delay(q, m)
            assert all(v is _ZERO for v in d.patch.values())
            inside = [i for i in (1, m // 2, m) if i in d.patch]
            overrides = {i: F(-i, 3) for i in inside} | {m + 1: F(9), m + 4: F(0)}
            users = {i: F(0, 5) for i in inside}  # zeros that are not the shared one
            for r in (d, neg(d), patch(d, overrides), patch(d, users), neg(patch(d, overrides))):
                _check_render(r)
            assert all(patch(d, users).patch[i] is not _ZERO for i in users)
        for m in (1, 20, 299):
            s = partial_sums(Series(body, m + 1))
            for r in (s, neg(s), patch(s, {m: F(1, 2), m + 2: F(0)})):
                _check_render(r)
    _check_render(patch(N, {2: F(0), 3: F(0), 5: F(7, 2)}))
    _check_render(Quantity.closed(ExpPoly(), {1: F(0), 4: F(-1)}))
    _check_render(delay(patch(N, {1: F(0), 2: F(-5)}), 6))


def test_neg_keeps_a_minimal_patch():
    rng = random.Random(15)
    cases = [delay(Quantity.closed(b), m) for b in VANISHING_BODIES for m in (3, 40)]
    cases += [random_quantity(rng, with_patch=True) for _ in range(40)]
    cases += [patch(delay(N, 5), {2: F(0, 7), 3: F(4), 9: F(1)})]
    for q in cases:
        negated = {i: -v for i, v in q.patch.items()}
        assert neg(q).patch == Quantity.closed(-q.body, negated).patch == negated
        assert neg(q).body == -q.body
    assert all(v is _ZERO for v in neg(delay(N, 30)).patch.values())


def test_prefix_zeros_render_without_formatting_each_entry(monkeypatch):
    # An f-string formats a Fraction through __format__, which calls __str__
    # before Python 3.13 and formats on its own from 3.13, so both are counted.
    formatted = []
    to_str, to_format = F.__str__, F.__format__
    monkeypatch.setattr(F, "__str__", lambda self: formatted.append(self) or to_str(self))
    monkeypatch.setattr(F, "__format__", lambda self, spec: formatted.append(self) or to_format(self, spec))
    d = patch(delay(N, 1000), {500: F(0, 3), 700: F(2)})
    for q in (d, neg(d)):
        formatted.clear()
        q.render()
        # the entries at 500 and 700, not the 998 shared zeros
        assert {id(v) for v in formatted} == {id(q.patch[500]), id(q.patch[700])}
        _check_render(q)


# Indices where the text of an index gains a digit or enters a new block of 1000.
BOUNDARIES = (9, 99, 999, 1999, 9999, 99999, 100000)


def test_zero_runs_render_as_the_reference_across_digit_and_block_boundaries():
    for m in (1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1999, 2000, 2001, 9999, 10000, 10001):
        d = delay(N, m)
        assert all(v is _ZERO for v in d.patch.values())
        _check_render(d)
    # Runs that start past 1 and cross a boundary: the override at b - 3 ends
    # the run 1..b - 4 and starts the run b - 2..b + 3.
    for b in BOUNDARIES:
        q = patch(delay(N, b + 3), {b - 3: F(7, 2)})
        _check_render(q)
        _check_render(Quantity(N.body, dict.fromkeys(range(b - 2, b + 4), _ZERO), None))
    _check_render(Quantity(N.body, dict.fromkeys(range(99998, 100003), _ZERO), None))


def test_zero_runs_split_by_holes_render_as_the_reference():
    alternating = Quantity.closed(ExpPoly({(F(1), 0): F(1), (F(-1), 0): F(1)}))  # 1 + (-1)^n
    for m in (1, 2, 3, 10, 999, 1000, 1001, 2001, 10002):
        d = delay(alternating, m)
        assert len(d.patch) == (m + 1) // 2  # a hole at every other index
        _check_render(d)
    # N + 500 is 0 at n = -500, which leaves one hole at m - 500.
    one_hole = Quantity.closed(ExpPoly({(F(1), 1): F(1), (F(1), 0): F(500)}))
    for m in (999, 1500, 2499, 100500):
        d = delay(one_hole, m)
        assert m - 500 not in d.patch and len(d.patch) == m - 1
        _check_render(d)


def test_zero_runs_with_tails_negation_and_other_zeros_render_as_the_reference():
    for m in (998, 1003, 12000):
        d = delay(patch(N, {1: F(0), 2: F(-5), 4: F(1, 3)}), m)  # a tail past the prefix
        others = {7: F(0, 3), 999: F(0), 1000: F(0, 2), m // 2: F(-1), m - 1: F(0, 9)}  # zeros that are not _ZERO
        for q in (d, neg(d), patch(d, others), neg(patch(d, others)), 3 * patch(d, others)):
            _check_render(q)
        assert all(patch(d, others).patch[i] is not _ZERO for i in others)


def test_the_longest_zero_run_renders_as_the_reference():
    d = delay(N, 100000)  # N is 0 at n - 100000 = 0, so the run is 1..99999
    _check_render(d)
    assert len(d.patch) == 99999 and d.render().endswith(", 99998:0, 99999:0)")
    _check_render(delay(N, 100002))  # the run 1..100001


def test_zero_runs_call_str_once_per_block_of_1000(monkeypatch):
    import seqring.quantity as quantity

    alternating = Quantity.closed(ExpPoly({(F(1), 0): F(1), (F(-1), 0): F(1)}))
    cases = [(delay(N, 100000), 100000), (delay(alternating, 20000), 20000)]
    want = [reference_patch_render(reference_render(q.body.items()), q.patch) for q, _ in cases]
    calls = []
    monkeypatch.setattr(quantity, "str", lambda x: calls.append(x) or str(x), raising=False)
    for (q, m), text in zip(cases, want):
        calls.clear()
        assert q.render() == text
        assert len(calls) <= m // 1000 + 1  # one per block, not one per index
