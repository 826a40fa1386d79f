"""Property tests: the product law, parse/render round-trips, order, text, stepped values, tokens, the exact decisions against a reference and folded lazy reads against mirrors, and certified scans against full-scan oracles.

They need ``hypothesis``, which the ``test`` extra of ``pyproject.toml``
installs (``pip install -e '.[test]'``); without it they are skipped.
"""

from fractions import Fraction as F
from functools import partial

import pytest

pytest.importorskip("hypothesis")

from helpers import (
    SETTLED,
    mirror_add,
    mirror_closed,
    mirror_delay,
    mirror_mul,
    mirror_neg,
    naive_product,
    naive_value,
    oracle_compare,
    oracle_great,
    oracle_small,
    pointwise_verdict,
    reference_classify,
    reference_infinitely_greater,
    reference_items,
    reference_render,
    reference_signs,
    reference_tokens,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from seqring import (
    Comparison,
    ExpPoly,
    ExprSyntaxError,
    Quantity,
    add,
    classify,
    compare,
    compare_lazy,
    delay,
    eval_at,
    eventual_sign,
    infinitely_greater,
    is_infinitely_great,
    is_infinitely_small,
    mul,
    neg,
    patch,
    sub,
)
from seqring.cli import Config, _tokenize, run_statement
from seqring.quantity import fold, reader, values

# Products of these bases include 1 and -1 (2 * 1/2, -2 * -1/2).
BASES = [F(1), F(-1), F(2), F(1, 2), F(-2), F(-1, 2), F(3), F(2, 3), F(-3, 4)]

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(bool)
forms = st.dictionaries(
    st.tuples(st.sampled_from(BASES), st.integers(-2, 3)), nonzero, max_size=5
).map(ExpPoly)
overrides = st.dictionaries(st.integers(1, 3_000_000), rationals, min_size=1, max_size=4)

CONFIG = Config()
SETTINGS = settings(max_examples=150, deadline=None)


def _round_trip(text: str) -> str:
    result, code = run_statement(text, {}, CONFIG)
    assert code == 0, (text, result.fields)
    return result.rendering


@SETTINGS
@given(forms, forms, st.integers(1, 60))
def test_product_is_the_term_by_term_product(a, b, n):
    product = a * b
    assert dict(product.items()) == naive_product(a, b)
    assert product == ExpPoly(naive_product(a, b))
    assert naive_value(product, n) == naive_value(a, n) * naive_value(b, n)


@SETTINGS
@given(forms, forms)
def test_products_round_trip_through_parse_and_render(a, b):
    text = Quantity.closed(a * b).render()
    assert _round_trip(text) == text
    assert _round_trip(f"({a.render()}) * ({b.render()})") == text


@SETTINGS
@given(forms, overrides, st.integers(1, 40))
def test_patches_round_trip_through_parse_and_render(body, entries, equal_at):
    entries[equal_at] = naive_value(body, equal_at)  # an override the patch drops
    q = patch(Quantity.closed(body), entries)
    assert equal_at not in q.patch
    assert q.patch.items() <= entries.items()
    text = q.render()
    assert _round_trip(text) == text


# Bases of equal magnitude with both signs, over denominators 1 to 5, and
# coefficients over mixed denominators, one of them a large prime.
SIGNED_BASES = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 4), F(-3, 4), F(4, 3), F(2, 3), F(-6, 5)]
coefficients = st.builds(
    F, st.integers(-(10**12), 10**12).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 9, 35, 10**9 + 7])
)
pair_lists = st.lists(st.tuples(st.tuples(st.sampled_from(SIGNED_BASES), st.integers(-3, 3)), coefficients))


def _form(pairs) -> ExpPoly:
    return sum((ExpPoly.single(c, k, b) for (b, k), c in pairs), ExpPoly())


@SETTINGS
@given(pair_lists, pair_lists)
def test_order_and_text_match_the_reference(xs, ys):
    a, b = _form(xs), _form(ys)
    cancelled = [(key, -c) for key, c in xs]
    for form, pairs in (
        (a, xs),
        (a + b, xs + ys),
        (a - b, xs + [(key, -c) for key, c in ys]),
        ((a + b) - a, xs + ys + cancelled),  # every term of a cancels
        (a * ExpPoly.constant(F(-3, 7)), [(key, c * F(-3, 7)) for key, c in xs]),
    ):
        assert form.items() == reference_items(pairs)
        assert form.render() == reference_render(pairs)


# Bases whose denominators mix (3/7, -2/3, 3/2, -1/2), so a closed form's
# scale steps on its numerator and its denominator, and integer bases (2, 1),
# where it steps on one of them or on neither.
STEP_BASES = [F(3, 7), F(-2, 3), F(3, 2), F(-1, 2), F(2), F(1)]
step_forms = st.dictionaries(
    st.tuples(st.sampled_from(STEP_BASES), st.integers(-2, 3)), nonzero, max_size=4
).map(ExpPoly)
step_patches = st.dictionaries(st.integers(1, 80), rationals, max_size=3)
# Runs of consecutive indices (start, length); the jumps between runs go
# either way and may repeat an index.
index_runs = st.lists(st.tuples(st.integers(1, 80), st.integers(1, 6)), min_size=1, max_size=6)


@SETTINGS
@given(step_forms, step_patches, index_runs, st.integers(1, 5))
def test_stepped_values_reduce_to_the_naive_value(body, entries, runs, m):
    # A closed form read through the stepping paths, in one access order,
    # against naive_value or the override: the pair of one reader of a sum
    # that reads the body at offsets 0 and m (a patched and a plain leaf
    # share offset 0's memo), values, value_at and eval_at.
    q = patch(Quantity.closed(body), entries)
    plain = Quantity.closed(body).as_lazy()
    read = reader(add(add(q.as_lazy(), plain), delay(plain, m)))
    value = values(q)

    def want(n: int) -> F:
        return entries[n] if n in entries else naive_value(body, n)

    for n in [start + i for start, length in runs for i in range(length)]:
        num, den = read(n)
        assert den > 0
        lagged = naive_value(body, n - m) if n > m else 0
        assert F(num, den) == want(n) + naive_value(body, n) + lagged, n
        assert value(n) == eval_at(q, n) == want(n), n
        assert body.value_at(n) == naive_value(body, n), n


# Lazy DAGs as (quantity, mirror) pairs: closed leaves, some patched and some
# lowered with as_lazy, evaluators, and "+", "*", "neg" and "delay" over them,
# with an operand sometimes used twice.  A closed leaf's powers are
# nonnegative, so a closed delay needs no as_lazy.
def _opaque(a: int, b: int, c: int, n: int) -> F:
    return F(a * n + b * (-1) ** n, n + c)


def _leaf(body: ExpPoly, entries: dict, lower: bool) -> tuple:
    q = Quantity.closed(body, entries)
    return (q.as_lazy() if lower else q), mirror_closed(q)


lazy_leaves = st.builds(
    _leaf,
    st.dictionaries(st.tuples(st.sampled_from(STEP_BASES), st.integers(0, 2)), nonzero, max_size=3).map(ExpPoly),
    st.dictionaries(st.integers(1, 30), rationals, max_size=2),
    st.booleans(),
)
evaluators = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3)).map(
    lambda abc: (Quantity.lazy(partial(_opaque, *abc), "opaque"), partial(_opaque, *abc))
)


def _grown(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: (add(p[0][0], p[1][0]), mirror_add(p[0][1], p[1][1]))),
        pairs.map(lambda p: (mul(p[0][0], p[1][0]), mirror_mul(p[0][1], p[1][1]))),
        children.map(lambda p: (add(p[0], p[0]), mirror_add(p[1], p[1]))),
        children.map(lambda p: (mul(p[0], neg(p[0])), mirror_mul(p[1], mirror_neg(p[1])))),
        children.map(lambda p: (neg(p[0]), mirror_neg(p[1]))),
        st.tuples(children, st.integers(1, 3)).map(lambda p: (delay(p[0][0], p[1]), mirror_delay(p[0][1], p[1]))),
    )


lazy_dags = st.recursive(st.one_of(lazy_leaves, lazy_leaves, evaluators), _grown, max_leaves=6)


@SETTINGS
@given(lazy_dags, lazy_dags, st.integers(10, 50), st.lists(st.integers(1, 60), min_size=1, max_size=8))
def test_folded_scans_and_values_match_the_mirrors(x, y, h, indices):
    # The lazy scans and values read DAGs after quantity.fold; the mirrors
    # read the same operations as plain Fraction closures, never folded.
    (q1, f1), (q2, f2) = x, y
    q1 = q1.as_lazy()
    for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
        got = compare_lazy(q1, q2, claim, h)
        assert _verdict(got) == oracle_compare(f1, f2, claim, h), (q1.render(), q2.render(), claim, h)
    assert _verdict(is_infinitely_small(q1, h)) == oracle_small(f1, h), (q1.render(), h)
    assert _verdict(is_infinitely_great(q1, h)) == oracle_great(f1, h), (q1.render(), h)
    value = values(q1)
    assert [value(n) for n in indices] == [f1(n) for n in indices], q1.render()


def _verdict(v) -> tuple:
    return (v.status, v.witness if v.status == "fails" else v.checked_up_to)


# Closed differences for the certified scans: c * (n**k - t**k) * n**j, which
# changes sign at t and so puts the tail start near t (below the first checked
# index, inside the horizon or past it, where ``_tail_start`` returns its
# cap), kept on every index or on one parity only, plus up to two other
# terms; c = 0 with no other term is the zero form.  Overrides land before the
# tail start, past it and past the horizon, and their values break one claim
# or another.
def _crossing(c: F, t: int, k: int, j: int, mask: int, extra: ExpPoly) -> ExpPoly:
    form = ExpPoly({(F(1), k): c, (F(1), 0): -c * t**k}) * ExpPoly.single(1, j, 1)
    if mask:  # (1 + mask * (-1)**n) / 2 keeps the even (mask = 1) or odd (mask = -1) indices
        form = form * ExpPoly({(F(1), 0): F(1, 2), (F(-1), 0): F(mask, 2)})
    return form + extra


crossings = st.builds(
    _crossing,
    rationals,
    st.integers(0, 90),
    st.integers(1, 2),
    st.integers(-2, 0),
    st.sampled_from([0, 1, -1]),
    st.one_of(
        st.just(ExpPoly()),
        st.dictionaries(st.tuples(st.sampled_from(BASES), st.integers(-2, 1)), nonzero, max_size=2).map(ExpPoly),
    ),
)
claim_overrides = st.dictionaries(
    st.integers(1, 140), st.one_of(rationals, st.sampled_from([F(0), F(10**6), F(-(10**6))])), max_size=3
)


@SETTINGS
@given(crossings, claim_overrides, st.booleans(), st.integers(10, 100))
def test_certified_scans_match_the_full_scan_oracles(d, entries, negated, h):
    # compare_lazy of x + d against x folds to the closed d, and the
    # is_infinitely_* scans of a lowered patched d (or its negation) fold to
    # the closed form, overrides included: all are read pointwise only below
    # the tail start.  The oracles scan every index through naive values.
    x = Quantity.closed(ExpPoly({(F(3, 2), 1): F(1), (F(-1), 0): F(2)}))
    q1, fx = add(x.as_lazy(), Quantity.closed(d)), mirror_closed(x)
    f1 = mirror_add(fx, mirror_closed(Quantity.closed(d)))
    assert fold(sub(q1, x.as_lazy())).is_closed
    for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
        got = compare_lazy(q1, x.as_lazy(), claim, h)
        assert _verdict(got) == oracle_compare(f1, fx, claim, h), (d, claim, h)
    p = Quantity.closed(d, entries)
    q, f = (neg(p.as_lazy()), mirror_neg(mirror_closed(p))) if negated else (p.as_lazy(), mirror_closed(p))
    assert fold(q).is_closed
    assert _verdict(is_infinitely_small(q, h)) == oracle_small(f, h), (p, negated, h)
    assert _verdict(is_infinitely_great(q, h)) == oracle_great(f, h), (p, negated, h)


# Characters on which str.isalpha, str.isdecimal and re's \w and \d part ways
# ('²' and '①' are digits but not decimal, '½' and 'Ⅷ' numeric, U+0301 neither),
# whitespace the language does not skip, and the two-character punctuation.
TOKEN_PIECES = [
    "N", "n", "x", "_", "1", "7", " ", "\t", "\r", "\n", ".", "+", "-", "*", "^", "/", "(", ")",
    ",", ":", "=", ">", "@", "²", "₂", "①", "٣", "½", "Ⅷ", "é", "ß", "\u0301", "\xa0", "\x0b",
    "->", "==", "1.",
]


def _cli_tokens(text):
    try:
        return [(tok.kind, tok.text, tok.col) for tok in _tokenize(text, 1)]
    except ExprSyntaxError as exc:
        return exc.column


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=12).map("".join))
def test_tokens_match_the_reference(text):
    assert _cli_tokens(text) == reference_tokens(text)


# The exact decisions against the references of ``helpers``, which read the
# terms through ``items()`` and values through ``naive_value`` at large even
# and odd indices, never the parity table of ``ExpPoly.groups``.  The forms
# stay inside the class for which SETTLED is late enough.
DECISION_BASES = [F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2), F(3, 4), F(-3, 4)]
decision_forms = st.dictionaries(
    st.tuples(st.sampled_from(DECISION_BASES), st.integers(-2, 2)),
    st.integers(-9, 9).filter(bool).map(F),
    max_size=4,
).map(ExpPoly)


def _edge(*terms) -> ExpPoly:
    return ExpPoly({(F(b), k): F(c) for c, k, b in terms})


# c + c*(-1)^n, c*(-1)^n, b^n + (-b)^n for b = 2 and 3/4, 1/n + (-1)^n/n and
# n^-2 * 1^n: parity groups that cancel on one parity, and the boundaries
# |b| = 1 at powers 0, -1 and -2.
EDGE_FORMS = [
    _edge((3, 0, 1), (3, 0, -1)),
    _edge((-3, 0, -1)),
    _edge((1, 0, 2), (1, 0, -2)),
    _edge((1, 0, F(3, 4)), (1, 0, F(-3, 4))),
    _edge((1, -1, 1), (1, -1, -1)),
    _edge((1, -2, 1)),
]


def _check_decisions(a: ExpPoly, b: ExpPoly) -> None:
    qa, qb = Quantity.closed(a), Quantity.closed(b)
    c = classify(qa)
    kind, standard_part = reference_classify(a)
    assert (c.kind, c.standard_part) == (kind, standard_part), a
    s = eventual_sign(a)
    assert (s.even, s.odd) == reference_signs(a.items()), a
    assert is_infinitely_small(qa) is (kind in ("zero", "infinitesimal")), a
    assert is_infinitely_great(qa) == {"inf+": 1, "inf-": -1}.get(kind, 0), a
    assert infinitely_greater(qa, qb) is reference_infinitely_greater(a, b), (a, b)
    verdict = pointwise_verdict(qa, qb, (SETTLED, SETTLED + 1))
    assert compare(qa, qb).value == ("incomparable" if verdict == "mixed" else verdict), (a, b)


@SETTINGS
@given(decision_forms, decision_forms)
def test_decisions_match_the_term_rule_reference(a, b):
    for x, y in ((a, b), (b, a), (a + b, b), (a, a - b)):
        _check_decisions(x, y)


@pytest.mark.parametrize("a", EDGE_FORMS)
def test_decisions_on_parity_edge_cases_match_the_reference(a):
    for b in [*EDGE_FORMS, ExpPoly(), ExpPoly.single(1, 1, 1), ExpPoly.single(-1, 0, 1)]:
        _check_decisions(a, b)
        _check_decisions(b, a)
