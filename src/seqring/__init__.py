"""Exact arithmetic on rational sequences modulo the Frechet filter.

Sequences of exact rationals form a partially ordered, non-Archimedean
commutative ring under pointwise operations, once sequences agreeing at all
but finitely many indices are identified.  This package provides:

* quantity:  closed-form quantities (exponential polynomials plus finite
  prefix patches), lazy sequences, and the pointwise ring operations;
* order:     decidable Frechet comparison and classification on closed
  forms, horizon-bounded verdicts on lazy sequences;
* series:    exact symbolic summation of term rules into closed-form
  partial sums (Faulhaber and geometric power sums);
* calculus:  extension of real functions to quantities, standard parts,
  difference-quotient derivatives, and continuity probes;
* cli:       an expression-language REPL and batch driver.
"""

from .calculus import (
    BUILTINS,
    RealFunction,
    StEstimate,
    continuity_probe,
    default_probes,
    derivative,
    extend,
    standard_part,
    uniform_continuity_probe,
    unit_infinitesimal,
)
from .errors import (
    BaseOne,
    DegreeCapExceeded,
    DomainViolation,
    ExprSyntaxError,
    InvalidTerm,
    LazyInput,
    LazyPatchUnsupported,
    NegativePowerDelay,
    NegativePowerTerm,
    NonInvertible,
    NotFinite,
    NotInfinitelyClose,
    ProbeNotInfinitesimal,
    SeqRingError,
    ZeroDivisor,
    ZeroProbeValue,
)
from .order import (
    Classification,
    Comparison,
    ParitySign,
    Verdict,
    classify,
    classify_lazy,
    compare,
    compare_lazy,
    eventual_sign,
    infinitely_close,
    infinitely_greater,
    is_infinitely_great,
    is_infinitely_small,
    proportionality_constant,
)
from .quantity import (
    ExpPoly,
    PrefixPatch,
    Quantity,
    Term,
    add,
    canonicalize,
    delay,
    embed_scalar,
    eval_at,
    mul,
    neg,
    patch,
    pow_int,
    sub,
    values,
)
from .series import (
    DEGREE_CAP,
    Series,
    bernoulli_numbers,
    faulhaber_sum,
    geometric_power_sum,
    geometric_series_sums,
    omit_first,
    partial_sums,
)

__version__ = "0.1.0"
