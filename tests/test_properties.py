"""Property tests: the product law and parse/render round-trips of products and patches.

They need ``hypothesis``, which seqring does not depend on, and are skipped
without it.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from helpers import naive_product, naive_value
from hypothesis import given, settings
from hypothesis import strategies as st

from seqring import ExpPoly, Quantity, patch
from seqring.cli import Config, run_statement

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
