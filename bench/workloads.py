"""Seeded workloads and their expected answers.

Each workload is a stream of blocks.  A block has a fixed mix of operation
kinds and the seed varies only the values inside each kind, so that the cost
of a block, and therefore the throughput and percentiles of a run, barely
depend on the seed.  ``head`` operations run once at the start of a run.

Every expected answer is computed here, before any timing, by ``oracle``,
which never calls seqring.  seqring receives only the generated inputs: CLI
statement text, or plain rationals that a library call turns into quantities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from typing import Callable

import oracle
from oracle import Lead

import seqring.calculus as calculus
import seqring.order as order
import seqring.quantity as quantity

# ------------------------------------------------------------------
# Operations
# ------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation.

    ``text`` is a CLI statement, run as ``run_batch`` runs one line, or
    ``call`` is a library call.  ``expect`` is ``("assert", token)``,
    ``("values", {index: value})`` or ``("result", dict)``.  ``unprintable``
    marks an answer with a coefficient past CPython's default limit of 4300
    digits for ``str``; seqring's render raises ``ValueError`` on it today,
    and the run counts that error as a known failure.
    """

    kind: str
    expect: tuple
    text: str | None = None
    call: Callable | None = None
    unprintable: bool = False


@dataclass
class Workload:
    name: str
    head: list[Op]
    blocks: list[list[Op]]
    # Blocks every run completes; the output digest and the traced run cover head + these.
    min_blocks: int


WHY = {
    "decide_batch": (
        "batch/REPL traffic: many short CLI statements that decide on small closed forms; "
        "parse, render and ExpPoly bookkeeping, no horizon loops"
    ),
    "horizon_scan": (
        "lazy verdicts: direct library calls whose time sits in eval_at inside horizon loops; "
        "no parsing, little ExpPoly arithmetic"
    ),
    "construct_heavy": (
        "CLI statements that build and print large forms: delay re-expansion, patch minimality, "
        "big rationals and render; the order layer is bypassed"
    ),
}


def _base_text(b: F, exp_var: str) -> str:
    if b > 0 and b.denominator == 1:
        return f"{b}^{exp_var}"
    return f"({b})^{exp_var}"


def term_text(c: F, k: int, b: F, var: str = "N", exp_var: str = "n") -> str:
    """CLI text of c * var**k * b**exp_var, e.g. ``3/4*N^2*(-2)^n``."""
    parts = [str(c)]
    if k == 1:
        parts.append(var)
    elif k != 0:
        parts.append(f"{var}^{k}")
    if b != 1:
        parts.append(_base_text(b, exp_var))
    return "*".join(parts)


def form_text(form, var: str = "N", exp_var: str = "n") -> str:
    out = ""
    for c, k, b in form:
        if not out:
            out = term_text(c, k, b, var, exp_var)
        else:
            out += (" + " if c > 0 else " - ") + term_text(abs(c), k, b, var, exp_var)
    return out


def _coeff(rng: random.Random) -> F:
    c = F(rng.choice((1, 1, 2, 3, 4, 5, 7)), rng.choice((1, 1, 1, 2, 3, 4)))
    return c if rng.random() < 0.6 else -c


def _form_with_lead(rng: random.Random, nterms: int, bases, powers) -> tuple[list, Lead]:
    """Distinct-key form whose top (|base|, power) group holds exactly one term."""
    keys = [(b, k) for b in bases for k in powers]
    while True:
        chosen = rng.sample(keys, nterms)
        groups = sorted(((abs(b), k) for b, k in chosen), reverse=True)
        if len(groups) == 1 or groups[0] != groups[1]:
            break
    form = [(_coeff(rng), k, b) for b, k in chosen]
    c, k, b = max(form, key=lambda t: (abs(t[2]), t[1]))
    return form, Lead(c, k, b)


def _cli_values(samples, fn) -> tuple:
    return ("values", {n: fn(n) for n in samples})


# ------------------------------------------------------------------
# decide_batch
# ------------------------------------------------------------------

DECIDE_BASES = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 2), F(2, 3), F(3)]
SERIES_BASES = [F(1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 2), F(2, 3), F(3, 7), F(3)]
GEOM_RATIOS = [F(1, 2), F(-1, 2), F(3, 4), F(9, 10), F(1, 3), F(-1, 3), F(2), F(-2), F(3, 2)]
LET_SAMPLES = (1, 2, 3, 6)
SERIES_MAX_POWER = 16  # seqring's degree cap
# Distinct blocks in the corpus; a run that gets through more cycles them.
# A 30 s run gets through about 300.  With 100 blocks, cycled, the figures
# depend more on the seed's corpus: ops_per_s spread 13 % over ten seeds,
# against 5 % with 400.
DECIDE_BLOCKS = 400

# The criterion-10 acceptance batch, verbatim; run_batch skips the comments.
CRITERION_BATCH = [
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


def _asserted(statement: str, token: str) -> Op:
    return Op("assert", ("assert", token), text=f"assert {statement} == {token}")


def _series_rule(rng: random.Random, nterms: int):
    """A term rule in k whose partial sums have a dominant term known by construction."""
    while True:
        keys = rng.sample([(b, j) for b in SERIES_BASES for j in range(SERIES_MAX_POWER + 1)], nterms)
        rule = [(_coeff(rng), j, b) for b, j in keys]
        leads: dict = {}
        for c, j, b in rule:
            lead = oracle.series_lead(c, j, b)
            leads.setdefault(lead.group, []).append(lead)
        top = max(leads)
        group = leads[top]
        if len(group) == 1:
            return rule, group[0]
        if top == (1, 0):  # several convergent terms: their limits add up
            total = sum(ld.coeff for ld in group)
            if total != 0:
                return rule, Lead(total, 0, F(1))


def _decide_block(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    names, leads, powers = [], [], []
    for i in range(6):
        form, lead = _form_with_lead(rng, rng.randint(1, 4), DECIDE_BASES, range(4))
        p = rng.randint(1, 8)
        name = f"f{i}"
        ops.append(
            Op(
                "let",
                _cli_values(LET_SAMPLES, lambda n, form=form, p=p: oracle.value(form, n) ** p),
                text=f"let {name} = ({form_text(form)})^{p}",
            )
        )
        names.append(name)
        leads.append(lead.pow(p))
        powers.append(p)

    for name, lead in zip(names, leads):
        kind = lead.classify()
        ops.append(_asserted(f"classify({name})", kind))
        if kind in ("finite", "infinitesimal"):
            st = lead.coeff if kind == "finite" else F(0)
            ops.append(_asserted(f"st({name})", str(st)))

    pairs = [(i, j) for i in range(6) for j in range(6) if i != j and leads[i].group != leads[j].group]
    rng.shuffle(pairs)
    for i, j in pairs[:3]:
        token = oracle.cmp_token(oracle.top_of_difference(leads[i], leads[j]))
        ops.append(_asserted(f"cmp({names[i]}, {names[j]})", token))
    for i, j in pairs[3:5]:
        ops.append(_asserted(f"infgreater({names[i]}, {names[j]})", oracle.infgreater_token(leads[i], leads[j])))
    for i, j in pairs[5:6]:
        top = oracle.top_of_difference(leads[i], leads[j])
        ops.append(_asserted(f"close({names[i]}, {names[j]})", "yes" if oracle.vanishes(top.base, top.power) else "no"))

    i = rng.randrange(6)
    d = (_coeff(rng), rng.randint(0, 3), rng.choice(DECIDE_BASES))
    ops.append(_asserted(f"cmp({names[i]}, {names[i]} + {term_text(*d)})", oracle.cmp_token(Lead(*d))))
    d = (_coeff(rng), rng.choice((-1, 0, 1, 2)), rng.choice(DECIDE_BASES))
    close = "yes" if oracle.vanishes(d[2], d[1]) else "no"
    ops.append(_asserted(f"close({names[i]}, {names[i]} + {term_text(*d)})", close))
    j = rng.randrange(6)
    ops.append(_asserted(f"cmp({names[i]} + {names[j]}, {names[j]} + {names[i]})", "equal"))

    # Series and geometric sums.
    for s in range(2):
        rule, lead = _series_rule(rng, rng.randint(1, 2))
        name = f"s{s}"
        ops.append(
            Op(
                "let",
                _cli_values((1, 2, 5, 9), lambda n, rule=rule: oracle.partial_sum(rule, n)),
                text=f"let {name} = series({form_text(rule, 'k', 'k')})",
            )
        )
        kind = lead.classify()
        ops.append(_asserted(f"classify({name})", kind))
        if kind == "finite":
            ops.append(_asserted(f"st({name})", str(lead.coeff)))
    rule, _ = _series_rule(rng, rng.randint(1, 3))
    ops.append(
        Op(
            "series",
            _cli_values((1, 3, 7), lambda n, rule=rule: oracle.partial_sum(rule, n)),
            text=f"series({form_text(rule, 'k', 'k')})",
        )
    )
    e = rng.choice(GEOM_RATIOS)
    if abs(e) < 1:
        limit = 1 / (1 - e)
        ops.append(_asserted(f"classify(geom({e}))", "finite"))
        ops.append(_asserted(f"st(geom({e}))", str(limit)))
        ops.append(_asserted(f"close(geom({e}), {limit})", "yes"))
    else:
        ops.append(_asserted(f"classify(geom({e}))", Lead(1 / (e - 1), 0, e).classify()))
    ops.append(Op("geom", _cli_values((1, 2, 5), lambda n, e=e: (1 - e**n) / (1 - e)), text=f"geom({e})"))

    # Criterion-1 style small delays and patches.
    c, m = rng.randint(0, 60), rng.randint(1, 60)
    token = "less" if m > c else "greater" if m < c else "equal"
    ops.append(_asserted(f"cmp({c} + delay(N, {m}), N)", token))
    movable = [i for i in range(6) if abs(leads[i].base) != 1 and powers[i] <= 4]
    if movable:
        i, m = rng.choice(movable), rng.randint(1, 60)
        lead = leads[i]
        # delay(f, m) - f keeps f's top group with coefficient C * (B**-m - 1).
        diff = Lead(lead.coeff * (lead.base ** (-m) - 1), lead.power, lead.base)
        ops.append(_asserted(f"cmp({names[i]}, delay({names[i]}, {m}))", oracle.cmp_token(diff)))
    i = rng.randrange(6)
    entries = {rng.randint(1, 60): _coeff(rng) for _ in range(2)}
    patch_text = ", ".join(f"{a}:{v}" for a, v in entries.items())
    ops.append(_asserted(f"cmp(patch({names[i]}, {patch_text}), {names[i]})", "equal"))
    ops.append(_asserted(f"classify(patch({names[i]}, {patch_text}))", leads[i].classify()))
    form, _ = _form_with_lead(rng, rng.randint(1, 3), DECIDE_BASES, range(4))
    m = rng.randint(1, 60)
    ops.append(
        Op(
            "delay",
            _cli_values(
                (1, m, m + 1, m + 4),
                lambda n, form=form, m=m: F(0) if n <= m else oracle.value(form, n - m),
            ),
            text=f"delay({form_text(form)}, {m})",
        )
    )
    ops.append(
        Op(
            "patch",
            _cli_values(
                (1, 2, *entries),
                lambda n, form=form, entries=entries: entries[n] if n in entries else oracle.value(form, n),
            ),
            text=f"patch({form_text(form)}, {patch_text})",
        )
    )

    for line in CRITERION_BATCH:
        if not line.startswith("#"):
            ops.append(Op("criterion", ("assert", line.rsplit("== ", 1)[1]), text=line))
    return ops


def decide_batch(seed: int) -> Workload:
    rng = random.Random(seed)
    blocks = [_decide_block(rng) for _ in range(DECIDE_BLOCKS)]
    return Workload("decide_batch", [], blocks, min_blocks=20)


# ------------------------------------------------------------------
# construct_heavy
# ------------------------------------------------------------------

CONSTRUCT_BASES = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3, 2), F(2, 3), F(3), F(3, 7)]
CONSTRUCT_BLOCKS = 12
GOLDEN = 0.6180339887498949


def _delayed(form, m: int):
    return lambda n: F(0) if n <= m else oracle.value(form, n - m)


def _delay(text: str, form, m: int, samples) -> Op:
    return Op(
        "delay",
        _cli_values(samples, _delayed(form, m)),
        text=text,
        unprintable=not oracle.printable(oracle.shifted(form, m)),
    )


def _delay_op(form, lo: int, hi: int, u: float) -> Op:
    """delay(form, m) with m at quantile u of the log-uniform law on [lo, hi]."""
    m = int(round(lo * (hi / lo) ** u))
    return _delay(f"delay({form_text(form)}, {m})", form, m, (1, m // 2, m, m + 1, m + 2, m + 11))


def _quantiles(rng: random.Random, count: int) -> list[float]:
    """count draws from [0, 1), one in each of count equal slices, in random order.

    Drawing m this way gives every block nearly the same spread of sizes, so
    block costs, and the percentiles of a run, barely depend on the seed.
    """
    us = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(us)
    return us


def _int_coeff(rng: random.Random) -> F:
    return F(rng.randint(1, 5) * rng.choice((1, -1)))


def _stress_cases() -> list[Op]:
    """The ROADMAP stress cases, exactly as listed there.  ``delay(2^n,16000)``
    has the coefficient 2^-16000, whose denominator has 4817 digits."""
    return [
        _delay("delay(2^n,16000)", [(F(1), 0, F(2))], 16000, (1, 8000, 16000, 16001, 16005)),
        _delay("delay(N,100000)", [(F(1), 1, F(1))], 100000, (1, 50000, 100000, 100001, 100010)),
        Op(
            "patch",
            _cli_values((1, 2, 3000000), lambda n: F(1) if n == 3000000 else F(3, 7) ** n),
            text="patch((3/7)^n,3000000:1)",
        ),
        Op(
            "power",
            _cli_values((1, 2, 3, 5), lambda n: (n + F(2) ** n + F(1, 2) ** n + F(-1) ** n) ** 20),
            text="(N+2^n+(1/2)^n+(-1)^n)^20",
        ),
        Op(
            "series",
            _cli_values((1, 2, 5, 17), lambda n: oracle.partial_sum([(F(1), 16, F(3, 7))], n)),
            text="series(k^16*(3/7)^k)",
        ),
    ]


def _construct_block(rng: random.Random, u: float) -> list[Op]:
    """One block; ``u`` places the m of its two one-term delays in their ranges."""
    # Delays, with m drawn log-uniformly inside strata that together cover
    # 10^2 to 1.4*10^4.  The form shape is fixed per position, so that a
    # block's cost and its count of unprintable answers do not depend on the
    # seed.  delay's patch-minimality check evaluates the body at every index
    # up to m, so its cost grows with m^2 and with the digits of the bases:
    # 4 terms on 3/7, 3, 2 and 2/3 at m = 1.4*10^4 take 20-50 s on a 2-vCPU
    # cloud VM.  So forms get plainer as m grows, and the delays with the
    # largest coefficients have one term.
    ops = []
    signs = (F(1), F(-1))
    strata = (
        (100, 300, (1, 2, 3, 4) * 3, CONSTRUCT_BASES),
        (300, 1000, (1, 2, 3, 4), CONSTRUCT_BASES),
        (1000, 2000, (1, 2) * 2, CONSTRUCT_BASES),
        # Polynomials, alternating or not: small numbers, long patches.
        (2000, 7000, (3, 4), signs),
        (7000, 14000, (4,), signs),
    )
    for lo, hi, nterms, bases in strata:
        for k, q in zip(nterms, _quantiles(rng, len(nterms))):
            ops.append(_delay_op(_form_with_lead(rng, k, bases, range(4))[0], lo, hi, q))
    # Two classes of one shape and near-equal cost, which hold the run's p50
    # and p90 whatever the seed: only the coefficients and m vary.
    for lo, hi, count in ((900, 1000, 16), (3000, 3300, 8)):
        for q in _quantiles(rng, count):
            form = [(_coeff(rng), 3, F(1)), (_coeff(rng), 2, F(-1)), (_coeff(rng), 1, F(1)), (_coeff(rng), 0, F(-1))]
            ops.append(_delay_op(form, lo, hi, q))
    # One-term delays whose coefficients have 3600-4216 digits, which render,
    ops.append(_delay_op([(_int_coeff(rng), 0, rng.choice((F(2), F(-2), F(1, 2))))], 12000, 14000, u))
    # and 4390-4740 digits, past the digit limit of str, where render fails.
    ops.append(_delay_op([(_int_coeff(rng), 0, F(3, 7))], 5200, 5600, u))

    for _ in range(4):
        body = [(_coeff(rng), rng.randint(0, 2), rng.choice((F(3, 7), F(2, 3))))]
        if rng.random() < 0.5:
            body.append((_coeff(rng), rng.randint(0, 2), rng.choice((F(1), F(-1), F(2)))))
        entries = {rng.randint(1000, 100000): _coeff(rng) for _ in range(rng.randint(1, 2))}
        text = ", ".join(f"{i}:{v}" for i, v in entries.items())
        ops.append(
            Op(
                "patch",
                _cli_values(
                    (1, 2, *entries),
                    lambda n, body=body, entries=entries: entries[n] if n in entries else oracle.value(body, n),
                ),
                text=f"patch({form_text(body)}, {text})",
            )
        )

    for _ in range(2):
        four = [(_coeff(rng), 1, F(1)), (_coeff(rng), 0, F(2)), (_coeff(rng), 0, F(1, 2)), (_coeff(rng), 0, F(-1))]
        p = rng.randint(12, 20)
        ops.append(
            Op(
                "power",
                _cli_values((1, 2, 3), lambda n, four=four, p=p: oracle.value(four, n) ** p),
                text=f"({form_text(four)})^{p}",
            )
        )

        bases = rng.sample([F(3, 7), F(2), F(1, 2), F(-1, 2), F(3, 2), F(1)], rng.randint(2, 3))
        rule = [(_coeff(rng), 16 if i == 0 else rng.randint(13, 16), b) for i, b in enumerate(bases)]
        ops.append(
            Op(
                "series",
                _cli_values((1, 2, 5, 17), lambda n, rule=rule: oracle.partial_sum(rule, n)),
                text=f"series({form_text(rule, 'k', 'k')})",
            )
        )
    rng.shuffle(ops)
    return ops


def construct_heavy(seed: int) -> Workload:
    rng = random.Random(seed)
    head = _stress_cases()
    # Successive blocks place their one-term delays at evenly spread quantiles.
    start = rng.random()
    blocks = [_construct_block(rng, (start + i * GOLDEN) % 1) for i in range(CONSTRUCT_BLOCKS)]
    return Workload("construct_heavy", head, blocks, min_blocks=2)


# ------------------------------------------------------------------
# horizon_scan
# ------------------------------------------------------------------

# One base that makes the bit length grow with n, plus smaller companions.
HORIZON_BLOCKS = 32
GROWING_BASES = [F(2), F(-2), F(3), F(-3), F(3, 2)]
COMPANION_BASES = [F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3)]
ONE = F(1)


def _heavy_form(rng: random.Random, nterms: int) -> list:
    form = {(rng.choice(GROWING_BASES), rng.randint(0, 2)): _coeff(rng)}
    while len(form) < nterms:
        form.setdefault((rng.choice(COMPANION_BASES), rng.randint(0, 2)), _coeff(rng))
    return [(c, k, b) for (b, k), c in form.items()]


def closed(form) -> quantity.Quantity:
    """A seqring closed form from an oracle form."""
    return quantity.Quantity.closed(quantity.ExpPoly({(b, k): c for c, k, b in form}))


def cancelled(form, extra) -> quantity.Quantity:
    """(x lowered to lazy) - x + extra: a lazy mix equal to ``extra`` that evaluates x twice per index."""
    x = closed(form)
    return quantity.add(quantity.sub(x.as_lazy(), x), closed(extra))


def holds(h: int) -> dict:
    return {"status": "holds", "checked_up_to": h, "witness": None, "horizon": None}


def fails(n: int) -> dict:
    return {"status": "fails", "checked_up_to": None, "witness": n, "horizon": None}


def serialize(result) -> dict:
    """Canonical dict of a library result, the unit of the horizon_scan output digest."""
    if result is None:
        return {"kind": None}
    if isinstance(result, order.Verdict):
        return {
            "status": result.status,
            "checked_up_to": result.checked_up_to,
            "witness": result.witness,
            "horizon": result.horizon,
        }
    if isinstance(result, order.Classification):
        return {"kind": result.kind, "standard_part": oracle.rat(result.standard_part)}
    if isinstance(result, calculus.StEstimate):
        return {"value": oracle.rat(result.value), "window": result.achieved_window, "spread": oracle.rat(result.achieved_spread)}
    raise TypeError(f"unexpected result {result!r}")


def _affine(a: F, b: F, x: F) -> F:
    return a * x + b


def _square(x: F) -> F:
    return x * x


def _quadratic(a: F, b: F, c: F, x: F) -> F:
    return a * x * x + b * x + c


def _cmp_shifted(form, d, claim: str, h: int):
    x = closed(form)
    return order.compare_lazy(x.as_lazy(), quantity.add(x.as_lazy(), closed(d)), order.Comparison[claim], h)


def _cmp_extended(form, a: F, b: F, h: int):
    x = closed(form)
    f = calculus.RealFunction("affine", partial(_affine, a, b))
    rhs = quantity.add(quantity.mul(x.as_lazy(), a), b)
    return order.compare_lazy(calculus.extend(f, x), rhs, order.Comparison.EQUAL, h)


def _uniform(f, form, c: F, h: int):
    xs = cancelled(form, [(ONE, 1, ONE)])
    ys = cancelled(form, [(ONE, 1, ONE), (c, -1, ONE)])
    return calculus.uniform_continuity_probe(f, xs, ys, h)


def _derivative(coeffs, x0: F, form, s: F, h: int, window: int):
    f = calculus.RealFunction("quadratic", partial(_quadratic, *coeffs))
    return calculus.derivative(f, x0, cancelled(form, [(s, -1, ONE)]), h, window)


def _continuity(f, x0: F, form, probe_c, h: int, window: int):
    probes = [
        cancelled(form, [(probe_c[0], -1, ONE)]),
        closed([(probe_c[1], -1, ONE)]),
        closed([(probe_c[2], -1, F(-1))]),
    ]
    return calculus.continuity_probe(f, x0, probes, h, window=window)


def _lazy_ops(rng: random.Random) -> list[Op]:
    """Operations that scan every index from the exempt prefix to the horizon."""
    ops = []

    # compare_lazy of X against X + D decides the sign of D at each index.
    # The two full scans to 3000 are the costliest operations of a block, and
    # their forms share one shape, so a run's p90 falls inside this class.
    slowest = [[(_int_coeff(rng), rng.randint(0, 2), rng.choice((F(3), F(-3)))), (_int_coeff(rng), rng.randint(0, 2), F(-1))] for _ in range(2)]
    for form, h in ((_heavy_form(rng, 3), 1000), (slowest[0], 3000), (slowest[1], 3000)):
        claim = rng.choice(("LESS", "GREATER"))
        s = 1 if claim == "LESS" else -1
        d = [(s * abs(_coeff(rng)), rng.randint(0, 1), rng.choice((ONE, F(2), F(1, 2))))]
        ops.append(Op("compare_lazy", ("result", holds(h)), call=partial(_cmp_shifted, form, d, claim, h)))
    for form, h in ((_heavy_form(rng, 2), 3000), (_heavy_form(rng, 1), 10_000)):
        # D = t - n is positive below t, so LESS fails first at n = t.
        t = rng.randint(oracle.exempt_start(h) + 1, 2000)
        d = [(F(t), 0, ONE), (F(-1), 1, ONE)]
        ops.append(Op("compare_lazy", ("result", fails(t)), call=partial(_cmp_shifted, form, d, "LESS", h)))
    # extend(f, X) against the same affine map built from ring operations.
    ops.append(
        Op("compare_lazy", ("result", holds(1000)), call=partial(_cmp_extended, _heavy_form(rng, 2), _coeff(rng), _coeff(rng), 1000))
    )

    # is_infinitely_small: |c|/n^k < 1/n < 1/K past the exempt prefix, since K < start.
    e = [(abs(_coeff(rng)) / 8, -rng.randint(1, 2), ONE)]
    ops.append(Op("is_infinitely_small", ("result", holds(1000)), call=partial(_small, _heavy_form(rng, 3), e, 1000)))
    h = 3000
    t = rng.randint(oracle.exempt_start(h), 2000)
    e = [(F(rng.choice((1, -1)), t * oracle.probe_k(h)), 1, ONE)]  # |n/(tK)| >= 1/K exactly from n = t on
    ops.append(Op("is_infinitely_small", ("result", fails(t)), call=partial(_small, _heavy_form(rng, 2), e, h)))

    # is_infinitely_great: |c| n^k >= n > K past the exempt prefix.
    g = [(F(rng.randint(1, 5) * rng.choice((1, -1))), rng.randint(1, 2), ONE)]
    ops.append(Op("is_infinitely_great", ("result", holds(1000)), call=partial(_great, _heavy_form(rng, 3), g, 1000)))

    # uniform_continuity_probe on (n, n + c/n): an affine map keeps the pair
    # close; x^2 leaves a gap near 2c that never decays, failing at the tail start.
    h = 1000
    c = abs(_coeff(rng)) / 8 * rng.choice((1, -1))
    if rng.random() < 0.5:
        f, expect = calculus.RealFunction("affine", partial(_affine, _coeff(rng), _coeff(rng))), holds(h)
    else:
        f, expect = calculus.RealFunction("square", _square), fails(h - calculus.DEFAULT_WINDOW + 1)
    ops.append(Op("uniform_continuity_probe", ("result", expect), call=partial(_uniform, f, _heavy_form(rng, 1), c, h)))
    return ops


def _small(form, extra, h: int):
    return order.is_infinitely_small(cancelled(form, extra), h)


def _great(form, extra, h: int):
    return order.is_infinitely_great(cancelled(form, extra), h)


def _classify(form, extra, h: int):
    return order.classify_lazy(cancelled(form, extra), h)


def _standard_part(form, extra, h: int, window: int):
    return calculus.standard_part(cancelled(form, extra), h, window)


def _window_ops(rng: random.Random) -> list[Op]:
    """Operations that evaluate windows of indices near the horizon 10^4."""
    h, window = 10_000, calculus.DEFAULT_WINDOW
    ops = []

    c = _coeff(rng)
    g, expect = rng.choice(
        [
            ([(c, 0, ONE)], {"kind": "finite", "standard_part": oracle.rat(c)}),
            ([(c / 8, -1, ONE)], {"kind": "infinitesimal", "standard_part": None}),
            ([(abs(c), 2, ONE)], {"kind": "inf+", "standard_part": None}),
            ([(-abs(c), 1, ONE)], {"kind": "inf-", "standard_part": None}),
            ([(abs(c), 0, F(-1))], {"kind": None}),
        ]
    )
    ops.append(Op("classify_lazy", ("result", expect), call=partial(_classify, _heavy_form(rng, 3), g, h)))

    g = [(_coeff(rng), 0, ONE), (_coeff(rng), -1, ONE)]
    tail = [oracle.value(g, n) for n in range(h - window + 1, h + 1)]
    ops.append(
        Op("standard_part", ("result", oracle.estimate(tail, window)), call=partial(_standard_part, _heavy_form(rng, 3), g, h, window))
    )

    # derivative of a quadratic along a lazy probe equal to s/n: the tail of
    # difference quotients (f(x0 + s/n) - f(x0)) / (s/n), evaluated directly.
    coeffs, x0, s = (_coeff(rng), _coeff(rng), _coeff(rng)), _coeff(rng), _coeff(rng)
    quotients = [
        (_quadratic(*coeffs, x0 + s / n) - _quadratic(*coeffs, x0)) / (s / n) for n in range(h - window + 1, h + 1)
    ]
    ops.append(
        Op("derivative", ("result", oracle.estimate(quotients, window)), call=partial(_derivative, coeffs, x0, _heavy_form(rng, 2), s, h, window))
    )

    # continuity_probe: an affine map holds; step at 0 fails from the tail
    # start wherever a probe is negative.
    probe_c = [_coeff(rng) / 4 for _ in range(3)]
    if rng.random() < 0.5:
        f, x0, expect = calculus.RealFunction("affine", partial(_affine, _coeff(rng), _coeff(rng))), _coeff(rng), holds(h)
    else:
        f, x0 = calculus.BUILTINS["step"], F(0)
        tail_lo = h - window + 1
        witnesses = [tail_lo for pc in probe_c[:2] if pc < 0]
        # The third probe pc * (-1)^n / n is negative on odd n when pc > 0.
        witnesses.append(tail_lo if (tail_lo % 2 == 1) == (probe_c[2] > 0) else tail_lo + 1)
        expect = fails(min(witnesses))
    ops.append(Op("continuity_probe", ("result", expect), call=partial(_continuity, f, x0, _heavy_form(rng, 2), probe_c, h, window)))
    return ops


def _horizon_block(rng: random.Random) -> list[Op]:
    ops = _lazy_ops(rng) + _window_ops(rng)
    rng.shuffle(ops)
    return ops


def horizon_scan(seed: int) -> Workload:
    rng = random.Random(seed)
    blocks = [_horizon_block(rng) for _ in range(HORIZON_BLOCKS)]
    return Workload("horizon_scan", [], blocks, min_blocks=3)


WORKLOADS = {"decide_batch": decide_batch, "horizon_scan": horizon_scan, "construct_heavy": construct_heavy}
