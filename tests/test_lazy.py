"""Lazy expression DAGs and lazy verdicts against plain-Fraction mirrors.

Each random DAG is built twice from one seeded draw: with seqring's lazy
operations and with the closure mirrors of ``helpers``.  The two must agree
at every index, in every access order, and the horizon-bounded verdicts must
match a ``Fraction`` scan of the mirror values, witness included.  DAGs reuse
subexpressions, so one leaf is read at several shifts in one walk.
"""

import operator
import random
from fractions import Fraction as F
from functools import partial

import pytest

from helpers import (
    ALL_BASES,
    mirror_add,
    mirror_closed,
    mirror_delay,
    mirror_extend,
    mirror_mul,
    mirror_neg,
    mirror_pow,
    mirror_sub,
    random_quantity,
)
from helpers import oracle_compare as _compare_oracle
from helpers import oracle_great as _great_oracle
from helpers import oracle_probe_k
from helpers import oracle_small as _small_oracle

from seqring import (
    Comparison,
    ExpPoly,
    Quantity,
    add,
    compare_lazy,
    delay,
    embed_scalar,
    eval_at,
    is_infinitely_great,
    is_infinitely_small,
    mul,
    neg,
    patch,
    pow_int,
    sub,
)
from seqring import quantity
from seqring.calculus import RealFunction, extend
from seqring.order import first_checked_index
from seqring.quantity import fold, reader, values

N = Quantity.closed(ExpPoly.single(1, 1, 1))
RECIP = Quantity.closed(ExpPoly.single(1, -1, 1))


def _opaque_value(a: int, b: int, c: int, n: int) -> F:
    return F(a * n + b * (-1) ** n, n + c)


def _cubic(x: F) -> F:
    return x * x * x / 2 - x + 1


CUBIC = RealFunction("cubic", _cubic)

BINARY = {"add": (add, mirror_add), "sub": (sub, mirror_sub), "mul": (mul, mirror_mul)}


def _leaf(rng: random.Random):
    kind = rng.choice(("closed", "as_lazy", "opaque"))
    if kind == "opaque":
        fn = partial(_opaque_value, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 3))
        return Quantity.lazy(fn, "opaque"), fn
    q = random_quantity(rng, with_patch=True, max_terms=3, bases=ALL_BASES, pow_lo=-1, pow_hi=2)
    return (q.as_lazy() if kind == "as_lazy" else q), mirror_closed(q)


def _dag(rng: random.Random, depth: int, pool: list):
    """A (quantity, mirror) pair of depth <= ``depth``; ``pool`` holds built pairs by depth to share."""
    shared = [entry for d, entry in pool if d < depth]
    if shared and rng.random() < 0.3:
        return rng.choice(shared)
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng)
    op = rng.choice(("add", "sub", "mul", "neg", "delay", "pow", "extend"))
    q, f = _dag(rng, depth - 1, pool)
    if op in BINARY:
        q2, f2 = _dag(rng, depth - 1, pool)
        lib, mirror = BINARY[op]
        out = (lib(q, q2), mirror(f, f2)) if rng.random() < 0.5 else (lib(q2, q), mirror(f2, f))
    elif op == "neg":
        out = neg(q), mirror_neg(f)
    elif op == "delay":
        if q.is_closed and any(k < 0 for (_, k), _ in q.body.items()):
            q = q.as_lazy()  # a closed form with n^-k has no closed delay
        m = rng.randint(0, 4)
        out = delay(q, m), mirror_delay(f, m)
    elif op == "pow":
        j = rng.randint(1, 3)
        out = pow_int(q, j), mirror_pow(f, j)
    else:
        out = extend(CUBIC, q), mirror_extend(_cubic, f)
    pool.append((depth, out))
    return out


def _access_orders(rng: random.Random) -> dict:
    ascending = list(range(1, 31))
    return {
        "ascending": ascending,
        "repeated": [n for n in ascending for _ in range(3)],
        "descending": ascending[::-1],
        "jumping": [rng.choice((1, 2, 3, 29, 30, 31, 120, 300)) for _ in range(30)],
    }


def _verdict(v) -> tuple:
    return (v.status, v.witness if v.status == "fails" else v.checked_up_to)


def test_random_dags_match_the_mirror_in_every_access_order():
    rng = random.Random(7070)
    lazy = 0
    for _ in range(120):
        pool = []
        q, f = _dag(rng, rng.randint(1, 4), pool)
        lazy += not q.is_closed
        for order, indices in _access_orders(rng).items():
            for n in indices:
                assert eval_at(q, n) == f(n), (q.render(), order, n)
    assert lazy >= 90


def test_random_dag_verdicts_match_a_fraction_scan():
    rng = random.Random(7071)
    statuses = set()
    for _ in range(150):
        pool = []
        (q1, f1), (q2, f2) = _dag(rng, rng.randint(1, 3), pool), _dag(rng, rng.randint(1, 3), pool)
        if q1.is_closed and q2.is_closed:
            q1 = q1.as_lazy()
        # q2 + c lies above q2 at every index when c > 0; q2 + c*(-1)^n crosses it.
        c = F(rng.randint(1, 9), rng.randint(1, 4))
        shifted = Quantity.closed(ExpPoly.constant(c) if rng.random() < 0.5 else ExpPoly.single(c, 0, -1))
        q3, f3 = add(q2, shifted), mirror_add(f2, mirror_closed(shifted))
        h = rng.randint(20, 80)
        for a, fa, b, fb in ((q1, f1, q2, f2), (q2, f2, q3, f3), (neg(q3), mirror_neg(f3), neg(q2), mirror_neg(f2))):
            for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
                got = _verdict(compare_lazy(a, b, claim, h))
                assert got == _compare_oracle(fa, fb, claim, h), (a.render(), b.render(), claim, h)
                statuses.add(got[0])
        for q, f in ((q1, f1), (neg(q1), mirror_neg(f1))):
            if not q.is_closed:
                assert _verdict(is_infinitely_small(q, h)) == _small_oracle(f, h), (q.render(), h)
                assert _verdict(is_infinitely_great(q, h)) == _great_oracle(f, h), (q.render(), h)
    assert statuses == {"holds", "fails"}


def test_lazy_verdicts_through_negation_shift_and_product_match_a_fraction_scan():
    # Sign-sensitive cases where one side only is negated, shifted or multiplied.
    flip = Quantity.lazy(partial(_opaque_value, 0, 1, 0), "(-1)^n/n")
    n2 = mul(N, N)
    cases_small = [
        (neg(RECIP.as_lazy()), mirror_neg(mirror_closed(RECIP))),
        (neg(delay(RECIP.as_lazy(), 2)), mirror_neg(mirror_delay(mirror_closed(RECIP), 2))),
        (mul(flip, RECIP), mirror_mul(partial(_opaque_value, 0, 1, 0), mirror_closed(RECIP))),
        (add(neg(RECIP.as_lazy()), mul(RECIP, F(1, 2))), mirror_mul(mirror_closed(RECIP), lambda n: F(-1, 2))),
        (neg(mul(N.as_lazy(), RECIP)), lambda n: F(-1)),
    ]
    for h in (30, 100, 250):
        for q, f in cases_small:
            assert _verdict(is_infinitely_small(q, h)) == _small_oracle(f, h), (q.render(), h)
    cases_great = [
        (neg(n2.as_lazy()), mirror_neg(mirror_closed(n2))),
        (neg(delay(n2.as_lazy(), 3)), mirror_neg(mirror_delay(mirror_closed(n2), 3))),
        (sub(RECIP.as_lazy(), n2), mirror_sub(mirror_closed(RECIP), mirror_closed(n2))),
        (mul(neg(N.as_lazy()), N), mirror_neg(mirror_closed(n2))),
        (neg(flip), mirror_neg(partial(_opaque_value, 0, 1, 0))),
    ]
    for h in (30, 100, 250):
        for q, f in cases_great:
            assert _verdict(is_infinitely_great(q, h)) == _great_oracle(f, h), (q.render(), h)
    x, fx = N.as_lazy(), mirror_closed(N)
    pairs = [
        (neg(x), mirror_neg(fx), neg(add(x, 1)), mirror_neg(mirror_add(fx, lambda n: F(1)))),
        (x, fx, delay(x, 1), mirror_delay(fx, 1)),
        (delay(x, 2), mirror_delay(fx, 2), neg(x), mirror_neg(fx)),
        (mul(x, RECIP), lambda n: F(1), neg(delay(x, 5)), mirror_neg(mirror_delay(fx, 5))),
    ]
    for h in (30, 100):
        for a, fa, b, fb in pairs:
            for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
                for lhs, flhs, rhs, frhs in ((a, fa, b, fb), (b, fb, a, fa)):
                    got = _verdict(compare_lazy(lhs, rhs, claim, h))
                    assert got == _compare_oracle(flhs, frhs, claim, h), (lhs.render(), rhs.render(), claim, h)


def test_one_leaf_read_at_two_shifts_steps_at_both():
    # The same Leaf under delay 0 and delay 1: values match the mirror while
    # both reads step in one loop, and again after a jump back.  Under three
    # delays the reads outnumber the body's two memos and some restart.
    body = ExpPoly({(F(1), 2): F(1), (F(2), 0): F(3, 5), (F(3), 1): F(-2, 3), (F(-1), 0): F(7)})
    x = Quantity.closed(body)
    y, fx = x.as_lazy(), mirror_closed(x)
    both = sub(y, delay(y, 1))
    f = mirror_sub(fx, mirror_delay(fx, 1))
    three = add(both, delay(y, 2))
    f3 = mirror_add(f, mirror_delay(fx, 2))
    for n in list(range(1, 60)) + [7, 8, 9, 200, 201, 3]:
        assert eval_at(both, n) == f(n), n
        assert eval_at(three, n) == f3(n), n
    assert compare_lazy(y, delay(y, 1), Comparison.LESS, 300).status == "holds"


def _reader_holds(q1, q2, ok, h: int) -> bool:
    """Whether ok(q1(n) - q2(n), 0) at every checked n <= h, read through one unfolded ``reader`` of q1 - q2."""
    read = reader(sub(q1, q2))
    return all(ok(a, 0) for a, _ in map(read, range(first_checked_index(h), h + 1)))


def test_readers_of_one_body_at_one_shift_share_a_step(monkeypatch):
    # A read of a closed form at n returns its body's memo at n or steps the
    # memo at n - 1, so two readers at one index step the body once per index,
    # and readers at n and n - 1 step it twice.  Each scan reads a fresh body.
    # compare_lazy folds x - (x + 1) to the closed form -1 and steps x's body
    # never, so the first scan reads the unfolded DAGs through ``reader``.
    coeffs = {(F(1), 2): F(1), (F(2), 0): F(3, 5), (F(3), 1): F(-2, 3), (F(-1), 0): F(7)}
    body = None
    steps = []  # per _advance call on body: whether it stepped from n - 1
    others = []  # per _advance call on any other body
    advance = ExpPoly._advance

    def fresh() -> Quantity:
        nonlocal body
        body = ExpPoly(coeffs)
        steps.clear()
        others.clear()
        return Quantity.closed(body)

    def counted(self, n, memo):
        if self is body:
            steps.append(memo is not None and memo[0] + 1 == n)
        else:
            others.append(self)
        return advance(self, n, memo)

    monkeypatch.setattr(ExpPoly, "_advance", counted)
    h = 300
    scanned = h - first_checked_index(h) + 1
    x = fresh()
    assert _reader_holds(x.as_lazy(), add(x.as_lazy(), 1), operator.lt, h)
    assert len(steps) == scanned and steps.count(False) == 1
    steps.clear()
    assert compare_lazy(x.as_lazy(), add(x.as_lazy(), 1), Comparison.LESS, h).status == "holds"
    assert steps == []
    # extend's operand and the leaf are one closed form, so they share one reader slot.
    x = fresh()
    same = compare_lazy(extend(RealFunction("id", F), x), x.as_lazy(), Comparison.EQUAL, h)
    assert same.status == "holds" and len(steps) == scanned and steps.count(False) == 1
    assert others == []  # the folded difference steps no copy of x, such as -x
    y = fresh().as_lazy()
    eval_at(y, 1000)  # a stale memo, which the first two reads below must evict
    steps.clear()
    assert compare_lazy(y, delay(y, 1), Comparison.LESS, h).status == "holds"
    assert len(steps) == 2 * scanned
    assert steps.count(False) == 2  # one restart for each read of the first index


def test_shared_nodes_are_evaluated_once_per_index(monkeypatch):
    # x + x nested 12 times reads its leaf 4096 times per index as a tree; a
    # reader evaluates each shared node, and so each leaf, once per index.
    # ``fold`` makes N's case one closed form, so its DAGs are read unfolded.
    advances = []
    advance = ExpPoly._advance

    def counted(self, n, memo):
        if self is N.body:
            advances.append(n)
        return advance(self, n, memo)

    monkeypatch.setattr(ExpPoly, "_advance", counted)
    calls = []

    def reciprocal(n: int) -> F:
        calls.append(n)
        return F(1, n)

    h = 100
    for leaf, reads in ((N.as_lazy(), advances), (Quantity.lazy(reciprocal, "1/n"), calls)):
        x = leaf
        for _ in range(12):
            x = add(x, x)
        if reads is advances:
            assert _reader_holds(x, add(x, 1), operator.lt, h)
        else:
            assert compare_lazy(x, add(x, 1), Comparison.LESS, h).status == "holds"
        assert reads == list(range(first_checked_index(h), h + 1)), len(reads)


def test_one_body_read_at_three_offsets_restarts_once_per_offset(monkeypatch):
    # y - delay(y, 1) + delay(y, 2) reads one body at n, n - 1 and n - 2; each
    # offset keeps its own memo, so the scan restarts three times and every
    # other read steps.  A patched copy of the closed form is a different
    # leaf on the same body, so at offset 1 it steps a memo of its own.
    body = ExpPoly({(F(1), 2): F(1), (F(2), 0): F(3, 5), (F(3), 1): F(-2, 3), (F(-1), 0): F(7)})
    steps = []  # per _advance call on body: whether it stepped from n - 1
    advance = ExpPoly._advance

    def counted(self, n, memo):
        if self is body:
            steps.append(memo is not None and memo[0] + 1 == n)
        return advance(self, n, memo)

    monkeypatch.setattr(ExpPoly, "_advance", counted)
    x = Quantity.closed(body)
    y = x.as_lazy()
    three = add(sub(y, delay(y, 1)), delay(y, 2))
    twin = delay(patch(x, {1: F(5)}).as_lazy(), 1)  # below 0 past index 2
    h = 300
    assert compare_lazy(three, add(three, twin), Comparison.GREATER, h).status == "holds"
    assert len(steps) == 4 * (h - first_checked_index(h) + 1)
    assert steps.count(False) == 4


def test_a_closed_leaf_scan_builds_no_fraction_per_index(monkeypatch):
    # A closed form steps and restarts its scale and powers on integers, so
    # a scan over closed leaves builds no Fraction at any horizon.  Python
    # 3.12 and later build the results of Fraction arithmetic through
    # _from_coprime_ints, not __new__.
    x = Quantity.closed(ExpPoly({(F(3, 2), 1): F(1), (F(2, 3), 0): F(5, 7), (F(-1, 2), 2): F(1, 3)}))
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(lambda cls, *args, **kw: built.append(1) or new(cls, *args, **kw)))
    coprime = getattr(F, "_from_coprime_ints", None)
    if coprime is not None:
        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(lambda cls, n, d: built.append(1) or coprime(n, d)))
    counts = []
    for h in (300, 3000):
        y = x.as_lazy()
        built.clear()
        assert compare_lazy(y, add(delay(y, 1), y), Comparison.LESS, h).status == "holds"
        counts.append(len(built))
    assert counts == [0, 0]


def test_a_closed_difference_is_read_only_below_its_tail_start(monkeypatch):
    # compare_lazy of x against x + d reads the folded closed -d.  With one
    # group in d its tail start is 1, so a holding scan steps no body.  With
    # d = t - n it is t + 1: the scan fails at t, where n - t < 0 first
    # breaks, and reads no index past t + 1.
    x = Quantity.closed(ExpPoly({(F(3), 2): F(2), (F(-1), 1): F(-5), (F(1, 2), 0): F(1)}))
    advanced = []
    advance = ExpPoly._advance
    monkeypatch.setattr(ExpPoly, "_advance", lambda self, n, memo: advanced.append(n) or advance(self, n, memo))
    h = 3000
    d = Quantity.closed(ExpPoly.single(F(7, 3), 1, F(1, 2)))
    assert _verdict(compare_lazy(x.as_lazy(), add(x.as_lazy(), d), Comparison.LESS, h)) == ("holds", h)
    assert advanced == []
    t = 1234
    d = Quantity.closed(ExpPoly({(F(1), 0): F(t), (F(1), 1): F(-1)}))
    assert _verdict(compare_lazy(x.as_lazy(), add(x.as_lazy(), d), Comparison.LESS, h)) == ("fails", t)
    assert advanced and max(advanced) <= t + 1


def test_a_patch_longer_than_the_horizon_is_checked_index_by_index():
    # Its overrides past the tail start are found by walking the indices up
    # to the horizon, not the patch; a zero at each index but one leaves that
    # one as the witness, whether it is an override (on 1/(100n), small) or
    # the one index the patch misses (on 1, which is never small).
    h = 1000
    start = first_checked_index(h)
    small, one = ExpPoly.single(F(1, 100), -1, 1), ExpPoly.constant(1)
    for body, fail in ((small, lambda e, i: e.update({i: F(1)})), (one, lambda e, i: e.pop(i))):
        for witness in (start, start + 1, 777, h):
            entries = dict.fromkeys(range(1, 3 * h), F(0))
            fail(entries, witness)
            p = Quantity.closed(body, entries)
            assert _verdict(is_infinitely_small(p.as_lazy(), h)) == _small_oracle(mirror_closed(p), h) == ("fails", witness)
            assert _verdict(is_infinitely_great(p.as_lazy(), h)) == _great_oracle(mirror_closed(p), h)


def test_a_sum_over_a_far_patch_stays_lazy_and_never_reads_the_patched_index(monkeypatch):
    # A closed sum would evaluate both operands at the override 3 000 000;
    # the fold keeps a "+" over a patched operand lazy, so scans to 1000 and
    # reads of values step no body past the indices they read.
    far = patch(N, {3_000_000: F(5)})
    q = add(far.as_lazy(), mul(N.as_lazy(), 2))  # 3n, and 5 at 3 000 000
    three = mul(N, 3)
    advanced = []
    advance = ExpPoly._advance
    monkeypatch.setattr(ExpPoly, "_advance", lambda self, n, memo: advanced.append(n) or advance(self, n, memo))
    assert fold(q).op == "+"
    h = 1000
    for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
        got = _verdict(compare_lazy(q, three, claim, h))
        assert got == _compare_oracle(lambda n: F(3 * n), lambda n: F(3 * n), claim, h)
    assert _verdict(is_infinitely_great(q, h)) == ("holds", h)
    assert _verdict(is_infinitely_small(q, h)) == ("fails", first_checked_index(h))
    value = values(q)
    assert [value(n) for n in (1, 7, 999)] == [3, 21, 2997]
    assert advanced and max(advanced) <= h


def test_a_product_of_two_three_term_leaves_stays_lazy():
    # Its closed product has 9 terms where its two leaves step 6 per index,
    # so the fold keeps the "*", and the verdicts still match the mirror.
    a = Quantity.closed(ExpPoly({(F(1), 1): F(1), (F(2), 0): F(1), (F(1, 2), 0): F(1)}))
    b = Quantity.closed(ExpPoly({(F(3), 0): F(1), (F(-1), 0): F(2), (F(1), 2): F(-1)}))
    product = mul(a.as_lazy(), b)
    assert len((a.body * b.body).items()) == 9
    folded = fold(product)
    assert not folded.is_closed and folded.op == "*"
    fp = mirror_mul(mirror_closed(a), mirror_closed(b))
    closed = mul(a, b)
    h = 200
    others = [
        (embed_scalar(0), lambda n: F(0)),
        (closed, mirror_closed(closed)),
        (delay(closed, 1), mirror_delay(mirror_closed(closed), 1)),
    ]
    for other, fo in others:
        for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
            got = _verdict(compare_lazy(product, other, claim, h))
            assert got == _compare_oracle(fp, fo, claim, h), (other.render(), claim)


def _unfolded(spiked, body: Quantity, name: str) -> list:
    """q(n) = spiked(n) as two DAGs that ``fold`` keeps lazy, each with its mirror.

    One is an evaluator under "+" with the closed body, the other an "apply"
    over the closed leaf N; each also comes negated at the root.
    """
    fb = mirror_closed(body)
    plus = add(Quantity.lazy(lambda n: spiked(n) - fb(n), name), body)
    applied = extend(RealFunction(name, lambda v: spiked(int(v))), N)
    cases = []
    for q in (plus, applied):
        assert not fold(q).is_closed and not fold(neg(q)).is_closed
        cases += [(q, spiked), (neg(q), mirror_neg(spiked))]
    return cases


def test_each_lazy_scan_fails_where_its_bound_is_met_with_equality():
    # |q(t)| = 1/k and direction * q(t) = k exactly at one checked index t,
    # strictly inside the bound at every other: each scan fails at t, as
    # the oracles' strict tests do, on the first and last checked index too.
    for h in (100, 1000):
        k, first = oracle_probe_k(h), first_checked_index(h)
        for t in (first, first + 7, h):
            small = lambda n, t=t: F(1, k) if n == t else F(1, n * n)
            for q, f in _unfolded(small, Quantity.closed(ExpPoly.single(1, -2, 1)), "small"):
                assert _verdict(is_infinitely_small(q, h)) == _small_oracle(f, h) == ("fails", t), (q.description, h)
            great = lambda n, t=t: F(k) if n == t else F(n)
            for q, f in _unfolded(great, N, "great"):
                assert _verdict(is_infinitely_great(q, h)) == _great_oracle(f, h) == ("fails", t), (q.description, h)
            # Just inside both bounds at t, the scans hold.
            inside = lambda n, t=t: F(1, k + 1) if n == t else F(1, n * n)
            for q, f in _unfolded(inside, Quantity.closed(ExpPoly.single(1, -2, 1)), "inside"):
                assert _verdict(is_infinitely_small(q, h)) == _small_oracle(f, h) == ("holds", h), (q.description, h)
            above = lambda n, t=t: F(k + 1) if n == t else F(n)
            for q, f in _unfolded(above, N, "above"):
                assert _verdict(is_infinitely_great(q, h)) == _great_oracle(f, h) == ("holds", h), (q.description, h)


def test_compare_lazy_on_unfolded_dags_at_a_zero_difference_and_at_one_equality():
    # A difference that is 0 at every index holds EQUAL only; one that is 0
    # at a single checked index t and negative elsewhere fails LESS at t.
    # Each pair is checked both ways round, for all three claims.
    n_plus_one = add(N, 1)
    for h in (100, 1000):
        first = first_checked_index(h)
        square = lambda n: F(n * n)
        pairs = [(q, square, Quantity.closed(ExpPoly.single(1, 2, 1)), square) for q, _ in _unfolded(square, N, "sq")[::2]]
        for t in (first, first + 7, h):
            touch = lambda n, t=t: F(n + 1) if n == t else F(n)
            pairs += [(q, touch, n_plus_one, mirror_closed(n_plus_one)) for q, _ in _unfolded(touch, N, "touch")[::2]]
        for a, fa, b, fb in pairs:
            assert not fold(sub(a, b)).is_closed
            for claim in (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER):
                for lhs, flhs, rhs, frhs in ((a, fa, b, fb), (b, fb, a, fa)):
                    got = _verdict(compare_lazy(lhs, rhs, claim, h))
                    assert got == _compare_oracle(flhs, frhs, claim, h), (lhs.description, claim, h)
        for a, fa, b, fb in pairs[:2]:
            assert _verdict(compare_lazy(a, b, Comparison.EQUAL, h)) == ("holds", h)
        for a, fa, b, fb in pairs[2:]:
            t = next(n for n in range(first, h + 1) if fa(n) == fb(n))
            assert _verdict(compare_lazy(a, b, Comparison.LESS, h)) == ("fails", t)
            assert _verdict(compare_lazy(b, a, Comparison.GREATER, h)) == ("fails", t)


def test_values_of_a_dag_that_folds_completely_builds_no_reader(monkeypatch):
    # Sums, products and negations of closed leaves fold to one closed form,
    # which values reads through the closed form's own stepping reader.
    x = Quantity.closed(ExpPoly.single(1, 0, F(3, 7)))
    y = Quantity.closed(ExpPoly({(F(1), 1): F(1), (F(-2), 0): F(1, 3)}))
    q = sub(mul(x.as_lazy(), 2), add(neg(x.as_lazy()), y))  # 3x - y
    closed = sub(mul(x, 3), y)
    monkeypatch.setattr(quantity, "reader", lambda *qs: pytest.fail("values built a reader"))
    assert fold(q) == closed
    got, want, mirror = values(q), values(closed), mirror_closed(closed)
    for n in (1, 2, 3, 50, 49, 100, 2):
        assert got(n) == want(n) == mirror(n), n
    assert eval_at(x.as_lazy(), 100_000) == mirror_closed(x)(100_000)
    # A "neg" folds at the root, where nothing else reads its leaf, patch included.
    p = patch(y, {2: F(5)})
    assert fold(neg(p.as_lazy())) == neg(p)
    assert [eval_at(neg(p.as_lazy()), n) for n in (1, 2, 3)] == [mirror_neg(mirror_closed(p))(n) for n in (1, 2, 3)]


def test_a_dag_that_does_not_fold_completely_comes_back_as_built():
    # fold gives one closed form or q itself: an "apply", an evaluator, a
    # patched leaf below the root or a product that would outgrow its
    # operands leaves every node as the ring operations built it.
    x = Quantity.closed(ExpPoly({(F(3), 2): F(2), (F(-1), 1): F(-5)}))
    y = Quantity.closed(ExpPoly.single(F(1, 3), 1, F(1, 2)))
    a = Quantity.closed(ExpPoly({(F(1), 1): F(1), (F(2), 0): F(1), (F(1, 2), 0): F(1)}))
    b = Quantity.closed(ExpPoly({(F(3), 0): F(1), (F(-1), 0): F(2), (F(1), 2): F(-1)}))
    affine = extend(RealFunction("affine", lambda v: 2 * v + 1), x)
    cases = [
        sub(affine, add(mul(x.as_lazy(), 2), 1)),
        add(Quantity.lazy(lambda n: F(1, n), "1/n"), add(x.as_lazy(), y)),
        mul(add(patch(x, {3: F(1)}).as_lazy(), y), 2),
        mul(a.as_lazy(), b),
    ]
    for q in cases:
        assert fold(q) is q, q.description


def test_extend_against_its_affine_map_steps_x_once_per_index_and_each_constant_once(monkeypatch):
    # extend(f, x) - (a*x + b) does not fold, so its reader steps the one x
    # that both sides read once per checked index, and a constant leaf keeps
    # its first pair: a and b are each stepped once.
    x = Quantity.closed(ExpPoly({(F(3), 2): F(2), (F(-1), 1): F(-5), (F(1, 2), 0): F(1)}))
    a, b = embed_scalar(F(-3, 4)), embed_scalar(F(5, 2))
    f = RealFunction("affine", lambda v: F(-3, 4) * v + F(5, 2))
    calls = []
    advance = ExpPoly._advance
    monkeypatch.setattr(ExpPoly, "_advance", lambda self, n, memo: calls.append(self) or advance(self, n, memo))
    h = 1000
    got = compare_lazy(extend(f, x), add(mul(x.as_lazy(), a), b), Comparison.EQUAL, h)
    assert _verdict(got) == ("holds", h)
    assert sum(body is x.body for body in calls) == h - first_checked_index(h) + 1
    others = [body for body in calls if body is not x.body]
    assert len({id(body) for body in others}) == len(others) == 2


def test_a_constant_leaf_under_a_delay_reads_zero_up_to_the_delay():
    # A constant leaf keeps its first stepped pair at every index, but a
    # delay still reads 0 below its offset and an override wins at its index.
    f = lambda n: F(1, n)
    q = delay(add(Quantity.lazy(f, "1/n"), 3), 2)
    p = delay(add(Quantity.lazy(f, "1/n"), patch(embed_scalar(3), {2: F(7)})), 2)
    want = [F(0), F(0)] + [f(n - 2) + 3 for n in range(3, 9)]
    for order in (range(1, 9), range(8, 0, -1)):
        value, patched = values(q), values(p)
        assert {n: value(n) for n in order} == dict(enumerate(want, 1))
        assert {n: patched(n) for n in order} == {**dict(enumerate(want, 1)), 4: f(2) + 7}


def test_delays_of_one_body_keep_at_most_two_memos():
    # One body read at one index under 200 delays; the body itself holds only
    # its integer coefficients and their common denominator, so no read
    # leaves a memo on it.
    x = Quantity.closed(ExpPoly({(F(1), 2): F(1), (F(2), 0): F(3, 5), (F(-1), 1): F(7)}))
    fx = mirror_closed(x)
    for m in range(1, 201):
        assert eval_at(delay(x.as_lazy(), m), 3000) == fx(3000 - m)
    assert ExpPoly.__slots__ == ("_coeffs", "_den")


def test_lazy_descriptions_render_the_dag():
    # Captured from the closure implementation, which built each description
    # as a string at construction time.  A leaf prints its closed form's own
    # text, patch included, in brackets unless it is one term.
    P = Quantity.closed(ExpPoly({(F(1), 2): F(1, 2), (F(1), 1): F(1, 2)}))
    L = N.as_lazy()
    R = Quantity.lazy(lambda n: F(1, n), "1/n")
    sine = RealFunction("sin", lambda x: x)
    cases = [
        (L, "lazy(1*n^1*1^n)"),
        (Quantity.closed(P.body, {1: F(5)}).as_lazy(), "lazy((patch(1/2*n^2*1^n + 1/2*n^1*1^n, 1:5)))"),
        (add(L, P), "lazy((1*n^1*1^n + (1/2*n^2*1^n + 1/2*n^1*1^n)))"),
        (sub(L, P), "lazy((1*n^1*1^n + (-1/2*n^2*1^n - 1/2*n^1*1^n)))"),
        (sub(P, R), "lazy(((1/2*n^2*1^n + 1/2*n^1*1^n) + -(1/n)))"),
        (mul(R, F(-3, 4)), "lazy((1/n * -3/4*n^0*1^n))"),
        (neg(neg(L)), "lazy(-(-(1*n^1*1^n)))"),
        (delay(delay(L, 2), 3), "lazy(delay(delay(1*n^1*1^n, 2), 3))"),
        (pow_int(add(L, 1), 3),
         "lazy((((1*n^1*1^n + 1*n^0*1^n) * (1*n^1*1^n + 1*n^0*1^n)) * (1*n^1*1^n + 1*n^0*1^n)))"),
        (extend(sine, add(L, 1)), "lazy(sin((1*n^1*1^n + 1*n^0*1^n)))"),
        (Quantity.lazy(lambda n: F(n)), "lazy(lazy)"),
        (add(0, R), "lazy((0 + 1/n))"),
    ]
    for q, text in cases:
        assert q.render() == text
        assert q.description == text[len("lazy("):-1]


def test_every_lazy_node_is_a_quantity():
    # A lazy quantity is its own DAG node: every node below it is a lazy
    # Quantity, as_lazy() of one is itself, and a "leaf" holds its closed form.
    x = Quantity.closed(ExpPoly({(F(2), 1): F(1), (F(1), 0): F(3)}), {2: F(7)})
    one = embed_scalar(1)
    r = Quantity.lazy(lambda n: F(1, n), "1/n")
    ident = RealFunction("id", lambda v: v)
    built = [
        x.as_lazy(), r, add(x, r), mul(r, x), neg(r), delay(r, 3), extend(ident, x),
        sub(mul(add(x.as_lazy(), one), neg(delay(r, 2))), extend(ident, add(r, x))),
    ]
    for q in built:
        assert q.as_lazy() is q
        stack, leaves = [q], []
        while stack:
            node = stack.pop()
            assert type(node) is Quantity and node.op is not None
            assert (node.body, node.patch, node.as_lazy()) == (None, {}, node)
            if node.op == "leaf":
                leaves.append(node.data)
            stack.extend(node.args)
        assert all(leaf is x or leaf is one for leaf in leaves), q.description
    assert x.as_lazy().data is x and (x.op, x.args, x.data) == (None, (), None)


def test_a_patched_leaf_describes_its_patch():
    # x * x and patch(x, 1:5) * x differ at n = 1 (4 and 10), so their texts differ too.
    x = add(N, 1)
    patched, plain = mul(patch(x, {1: F(5)}).as_lazy(), x), mul(x.as_lazy(), x)
    assert (eval_at(patched, 1), eval_at(plain, 1)) == (10, 4)
    assert plain.render() == "lazy(((1*n^1*1^n + 1*n^0*1^n) * (1*n^1*1^n + 1*n^0*1^n)))"
    assert patched.render() == "lazy(((patch(1*n^1*1^n + 1*n^0*1^n, 1:5)) * (1*n^1*1^n + 1*n^0*1^n)))"


def test_a_dag_5000_deep_scans_and_renders():
    # Both walks of the DAG, the reader's compile and the description, keep
    # an explicit stack, so the nesting depth meets no recursion limit.
    x = Quantity.lazy(lambda n: F(n), "n")
    for _ in range(5000):
        x = mul(x, Quantity.lazy(lambda n: F(1), "one"))
    twin = Quantity.lazy(lambda n: F(n), "n")
    assert compare_lazy(x, twin, Comparison.EQUAL, 30) == compare_lazy(twin, twin, Comparison.EQUAL, 30)
    assert compare_lazy(x, add(twin, 1), Comparison.LESS, 30).status == "holds"
    assert eval_at(delay(x, 3), 10) == 7
    assert x.render() == "lazy(" + "(" * 5000 + "n" + " * one)" * 5000 + ")"
