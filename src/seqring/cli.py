"""Expression-language front end: REPL and batch driver.

Statements
  let IDENT = qexpr            bind a quantity to a name
  cmp(qexpr, qexpr)            exact comparison: less/equal/greater/incomparable
  classify(qexpr)              zero/infinitesimal/finite/inf+/inf-/oscillating
  st(qexpr)                    exact standard part of a finite quantity
  infgreater(qexpr, qexpr)     yes/no: first exceeds every multiple of second
  close(qexpr, qexpr)          yes/no: difference is infinitesimal
  deriv(fn, rat)               difference-quotient derivative estimate at a point
  cont(fn, rat)                continuity probe verdict: holds/fails/unknown
  assert <command> == TOKEN    gate the batch exit code on a result token
  qexpr                        evaluate and print the canonical closed form

Quantity expressions
  qexpr := rat | N | n | IDENT | qexpr (+|-|*) qexpr | -qexpr | qexpr ^ [-]INT
         | base ^ n | base ^ N               exponential sequence b**n
         | delay(qexpr, INT)                 prefix with INT zeros, INT <= 100000
         | patch(qexpr, INT:rat, ...)        finite index overrides, 1 <= INT <= 3000000
         | series(kexpr) [from INT]          closed-form partial sums, 1 <= INT <= 100000
         | geom(rat)                         partial sums (1 - e^n)/(1 - e)
         | (qexpr)
  base  := rat | (cexpr)              cexpr: rationals under + - * unary -
                                      and ^INT, folded to a nonzero rational b
  kexpr := expression in k: rationals, k, base ^ k, + - * unary - and ^INT
  fn    := sin|cos|exp|log|sqrt|abs|step | IDENT -> a polynomial in IDENT
           with rational coefficients and integer (also negative) powers
  rat   := [-]INT | [-]INT/INT | [-]decimal literal (converted exactly)
  INT   := unsigned integer literal of decimal digits (str.isdecimal, so not ² or ①)
  IDENT := a letter or _, then letters, decimal digits and _ (so x1, not x² or N₂)

Precedence, tightest first: ^ (applied once, so N^2^3 is a parse error), unary
-, then *, then + and -, which are left-associative: -N^2 is -(N^2), 2*-N is
2*(-N) and N-N-N is (N-N)-N. All expression contexts share one evaluator, so
these mean the same everywhere; |INT| <= 64, and a negative power needs an
inverse (a single-term closed form, or a nonzero rational). Binary operator
chains may be of any length, but nesting (parentheses, unary -) past the
recursion limit is the parse error "expected shallower nesting" at column 1.

The named calls and their argument kinds are listed once, in SIGNATURES. A
length, start or patch index above its cap is an evaluation error (exit 2),
raised before any argument is evaluated.

Rationals are exact everywhere; decimal literals like 0.5 become 1/2.
Exit codes: 0 success, 1 parse error, 2 evaluation error, 3 failed assertion
or an unknown verdict on an asserted claim. A bad option value, or a --batch
FILE that cannot be read as UTF-8 text, is a usage error (exit 2) before any
statement runs.
"""

from __future__ import annotations

import argparse
import decimal
import json
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .calculus import (
    BUILTINS,
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    RealFunction,
    StEstimate,
    continuity_probe,
    derivative,
    standard_part,
)
from .errors import ExprSyntaxError, SeqRingError
from .order import (
    DEFAULT_HORIZON,
    Verdict,
    check_horizon,
    classify,
    compare,
    infinitely_close,
    infinitely_greater,
)
from .quantity import ExpPoly, Quantity, delay, embed_scalar, patch, pow_int
from .series import Series, geometric_series_sums, partial_sums

MAX_POW = 64
MAX_DELAY = 100_000
MAX_PATCH_INDEX = 3_000_000

# Argument kinds of the named calls. START is the optional ``from INT`` that
# follows the closing parenthesis; OVERRIDES is a run of ``, INT:rat``.
QUANTITY, TERM, FUNCTION, RATIONAL = "quantity", "term", "function", "rational"
LENGTH, OVERRIDES, START = "length", "overrides", "start"

# Every named call: a command is a statement, a construct a quantity expression.
SIGNATURES = {
    "cmp": ("command", (QUANTITY, QUANTITY)),
    "classify": ("command", (QUANTITY,)),
    "st": ("command", (QUANTITY,)),
    "infgreater": ("command", (QUANTITY, QUANTITY)),
    "close": ("command", (QUANTITY, QUANTITY)),
    "deriv": ("command", (FUNCTION, RATIONAL)),
    "cont": ("command", (FUNCTION, RATIONAL)),
    "delay": ("construct", (QUANTITY, LENGTH)),
    "patch": ("construct", (QUANTITY, OVERRIDES)),
    "series": ("construct", (TERM, START)),
    "geom": ("construct", (RATIONAL,)),
}
COMMANDS = tuple(name for name, (role, _) in SIGNATURES.items() if role == "command")
CONSTRUCTS = tuple(name for name, (role, _) in SIGNATURES.items() if role == "construct")
RESERVED = tuple(SIGNATURES) + ("let", "assert", "N", "n", "from")

# Caps on integer arguments: (largest allowed value, operation of the error).
_CAPS = {LENGTH: (MAX_DELAY, "delay"), START: (MAX_DELAY, "partial_sums"),
         OVERRIDES: (MAX_PATCH_INDEX, "patch")}


# ------------------------------------------------------------------
# Tokens
# ------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # NUM, IDENT, punctuation kinds, EOF
    text: str
    col: int


_PUNCT = {"->": "ARROW", "==": "EQEQ", "+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
          "/": "SLASH", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON", "=": "EQ"}

# One match per token; the search skips the whitespace between them (" \t\r\n"
# only), since BAD takes any other character. \d is str.isdecimal, which int()
# reads, so '²' and '①' are no digits. A name starts with a \w that is no \d;
# \w also takes '²', '½' and 'Ⅷ', which _tokenize refuses inside a name.
_TOKEN = re.compile(r"(?P<NUM>\d+(?:\.\d+)?)|(?P<IDENT>[^\W\d]\w*)"
                    r"|(?P<PUNCT>->|==|[-+*^/(),:=])|(?P<BAD>[^ \t\r\n])")


def _tokenize(src: str, line: int) -> list[Token]:
    out: list[Token] = []
    for match in _TOKEN.finditer(src):
        kind, text, col = match.lastgroup, match.group(), match.start() + 1
        if kind == "PUNCT":
            kind = _PUNCT[text]
        elif kind == "IDENT" and not text.isascii():  # names take letters, decimal digits and _
            for j, ch in enumerate(text):
                if not (ch.isalpha() or ch.isdecimal() or ch == "_"):
                    raise ExprSyntaxError(line, col + j, "a valid token")
        elif kind == "BAD":
            raise ExprSyntaxError(line, col, "a valid token")
        out.append(Token(kind, text, col))
    out.append(Token("EOF", "", len(src) + 1))
    return out


# ------------------------------------------------------------------
# AST
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str  # N or n in quantities, the bound variable in series and lambdas


@dataclass(frozen=True)
class Ref:
    name: str  # a binding, or a built-in function where a function is read


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-" or "*"
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Pow:
    operand: object
    exponent: int


@dataclass(frozen=True)
class ExpBase:
    base: Fraction


@dataclass(frozen=True)
class Lambda:
    var: str
    body: object


@dataclass(frozen=True)
class Call:
    name: str  # a key of SIGNATURES
    args: tuple  # one per argument kind: an AST, a rational, an int or (index, rational) pairs


@dataclass(frozen=True)
class Let:
    name: str
    expr: object


@dataclass(frozen=True)
class Assertion:
    inner: Call
    expected: str


# ------------------------------------------------------------------
# Parser
# ------------------------------------------------------------------

# Binding power of the binary operators, all left-associative. Unary '-' binds
# tighter than any of them, and '^' tighter still.
_PRECEDENCE = {"PLUS": 1, "MINUS": 1, "STAR": 2}


class _Parser:
    """Recursive descent over the statement grammar; one statement per call."""

    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> Token:
        return self.tokens[self.pos]  # advance stops at EOF, the last token

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """Consume and return the next token if it has this kind (and text)."""
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        return self.accept(kind) or self.fail(what)

    def fail(self, what: str):
        raise ExprSyntaxError(self.line, self.peek().col, what)

    # -- statements --------------------------------------------------

    def statement(self):
        """A Let, an Assertion, a command Call, or else the expression of a bare quantity."""
        tok = self.peek()
        if self.accept("IDENT", "let"):
            name = self.expect("IDENT", "a binding name").text
            if name in RESERVED:
                raise ExprSyntaxError(self.line, tok.col, "a non-reserved binding name")
            self.expect("EQ", "'='")
            node = Let(name, self.expr())
        elif self.accept("IDENT", "assert"):
            if self.peek().text not in COMMANDS:
                self.fail(f"a command ({', '.join(COMMANDS)})")
            inner = self.call()
            self.expect("EQEQ", "'=='")
            node = Assertion(inner, self.expected_token())
        elif tok.kind == "IDENT" and tok.text in COMMANDS and self.tokens[self.pos + 1].kind == "LPAREN":
            node = self.call()
        else:
            node = self.expr()
        if self.peek().kind != "EOF":
            self.fail("end of statement")
        return node

    def call(self) -> Call:
        """NAME(arg, ...) for a name in SIGNATURES, read by argument kind."""
        name = self.advance().text
        kinds = SIGNATURES[name][1]
        self.expect("LPAREN", "'('")
        args = [self.argument(kind, i == 0) for i, kind in enumerate(kinds) if kind != START]
        self.expect("RPAREN", "')'")
        if OVERRIDES in kinds and not args[-1]:
            self.fail("at least one index:value override")
        if START in kinds:  # an omitted ``from INT`` starts at 1
            args.append(self.integer("a start index >= 1", 1) if self.accept("IDENT", "from") else 1)
        return Call(name, tuple(args))

    def argument(self, kind: str, first: bool):
        if kind == OVERRIDES:  # each entry brings its own comma
            entries = []
            while self.accept("COMMA"):
                idx = self.integer("a patch index >= 1", 1)
                self.expect("COLON", "':'")
                entries.append((idx, self.rational()))
            return tuple(entries)
        if not first:
            self.expect("COMMA", "','")
        read = {QUANTITY: self.expr, TERM: lambda: self.expr("series", "k"), FUNCTION: self.fn,
                RATIONAL: self.rational, LENGTH: lambda: self.integer("a delay length >= 0", 0)}
        return read[kind]()

    def expected_token(self) -> str:
        tok = self.peek()
        if tok.kind == "IDENT":
            text = self.advance().text
            if text == "inf" and self.peek().kind in ("PLUS", "MINUS"):
                text += self.advance().text
            return text
        if tok.kind in ("NUM", "MINUS"):
            return str(self.rational())
        self.fail("an expected result token")

    # -- quantity expressions ----------------------------------------

    def expr(self, ctx: str = "quantity", var: str | None = None):
        """Unary operands joined by + - *, reduced by _PRECEDENCE in one loop without recursion."""
        operands, ops = [self.unary(ctx, var)], []
        while True:
            prec = _PRECEDENCE.get(self.peek().kind, 0)
            while ops and ops[-1][0] >= prec:  # left-associative: reduce an equal level too
                right = operands.pop()
                operands[-1] = BinOp(ops.pop()[1], operands[-1], right)
            if not prec:
                return operands[0]
            ops.append((prec, self.advance().text))
            operands.append(self.unary(ctx, var))

    def unary(self, ctx, var):
        if self.accept("MINUS"):
            return Neg(self.unary(ctx, var))
        return self.power(ctx, var)

    def power(self, ctx, var):
        node = self.atom(ctx, var)
        if self.peek().kind != "CARET":
            return node
        caret = self.advance()
        tok = self.peek()
        exp_symbols = ("n", "N") if ctx == "quantity" else ((var,) if ctx == "series" else ())
        if tok.kind == "IDENT" and tok.text in exp_symbols:
            self.advance()
            base = _fold_const(node)
            if base is None or base == 0:
                raise ExprSyntaxError(self.line, caret.col, "a nonzero rational base for an exponential")
            return ExpBase(base)
        sign = -1 if self.accept("MINUS") else 1
        return Pow(node, sign * self.integer("an integer exponent", 0))

    def atom(self, ctx, var):
        tok = self.peek()
        if tok.kind == "NUM":
            return Num(self.rational())
        if self.accept("LPAREN"):
            node = self.expr(ctx, var)
            self.expect("RPAREN", "')'")
            return node
        if tok.kind != "IDENT":
            self.fail("an expression")
        if tok.text in ((var,) if ctx != "quantity" else ("N", "n")):
            self.advance()
            return Var(tok.text)
        if ctx != "quantity":
            role = "summation" if ctx == "series" else "function"
            self.fail(f"the {role} variable '{var}' or a rational")
        if tok.text in CONSTRUCTS:
            return self.call()
        if tok.text in COMMANDS + ("let", "assert", "from"):
            self.fail("a quantity expression")
        self.advance()
        return Ref(tok.text)

    def fn(self):
        tok = self.expect("IDENT", "a function name or a lambda")
        if self.accept("ARROW"):
            return Lambda(tok.text, self.expr("lambda", tok.text))
        return Ref(tok.text)

    def rational(self) -> Fraction:
        sign = -1 if self.accept("MINUS") else 1
        num = self.expect("NUM", "a number")
        value = self.convert(num, Fraction)  # decimal literals convert exactly
        if self.peek().kind == "SLASH":
            if "." in num.text:
                self.fail("an integer numerator")
            self.advance()
            den = self.expect("NUM", "a denominator")
            if "." in den.text:
                self.fail("an integer denominator")
            divisor = self.convert(den, int)
            if divisor == 0:
                raise ExprSyntaxError(self.line, den.col, "a nonzero denominator")
            value /= divisor
        return sign * value

    def integer(self, what: str, low: int) -> int:
        tok = self.expect("NUM", what)
        value = None if "." in tok.text else self.convert(tok, int)
        if value is None or value < low:
            raise ExprSyntaxError(self.line, tok.col, what)
        return value

    def convert(self, tok: Token, kind):
        try:
            return kind(tok.text)
        except ValueError:  # past Python's digit limit for int-from-string conversion
            raise ExprSyntaxError(self.line, tok.col, "a numeric literal of fewer digits") from None


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _left_spine(node) -> tuple[list, object]:
    """The BinOp and Neg nodes down the left of ``node``, outermost first, and the node below."""
    spine = []
    while isinstance(node, (BinOp, Neg)):
        spine.append(node)
        node = node.left if isinstance(node, BinOp) else node.operand
    return spine, node


def _evaluate(node, leaf, power):
    """Evaluate + - * and unary - with the value type's own operators, left operand first.

    ``^INT`` calls ``power(value, exponent)``; every other node goes to ``leaf``. The left
    spine is walked in a loop, so a flat chain like ``N+N+...+N`` costs no recursion.
    """
    spine, node = _left_spine(node)
    if isinstance(node, Pow):
        if abs(node.exponent) > MAX_POW:
            raise SeqRingError("exponent magnitude above 64", operation="pow")
        value = power(_evaluate(node.operand, leaf, power), node.exponent)
    else:
        value = leaf(node)
    for outer in reversed(spine):
        if isinstance(outer, Neg):
            value = -value
        else:
            value = _BINOPS[outer.op](value, _evaluate(outer.right, leaf, power))
    return value


def _fold_const(node):
    """Fold an AST to a rational if it is a constant expression, else None."""

    def leaf(node):
        if not isinstance(node, Num):
            raise SeqRingError("not a constant", operation="parse")
        return node.value

    try:
        return _evaluate(node, leaf, operator.pow)
    except (SeqRingError, ZeroDivisionError):
        return None


def parse(text: str, line: int = 1):
    """Parse one statement; raises ExprSyntaxError with position on bad input."""
    try:
        tokens = _tokenize(text, line)
        return _Parser(tokens, line).statement()
    except RecursionError:
        raise ExprSyntaxError(line, 1, "shallower nesting") from None


# ------------------------------------------------------------------
# Execution
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    """Run settings, checked once here: frozen, so a later assignment cannot skip the check."""

    horizon: int = DEFAULT_HORIZON
    tol: Fraction = DEFAULT_TOL
    window: int = DEFAULT_WINDOW
    json_output: bool = False

    def __post_init__(self):
        horizon, window = check_horizon(self.horizon, self.window)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "window", window)


@dataclass
class Result:
    kind: str
    fields: dict
    rendering: str = ""
    token: str = ""
    text: str = ""  # the text-mode line; an error's comes from format_text


def _eval_quantity(node, env: dict) -> Quantity:
    """Evaluate a quantity expression; a series term is one too, in k."""

    def leaf(node):
        if isinstance(node, Num):
            return embed_scalar(node.value)
        if isinstance(node, Var):
            return Quantity.closed(ExpPoly.single(1, 1, 1))
        if isinstance(node, ExpBase):
            return Quantity.closed(ExpPoly.single(1, 0, node.base))
        if isinstance(node, Ref):
            if node.name not in env:
                raise SeqRingError(f"unknown name '{node.name}'", operation="execute")
            return env[node.name]
        return _construct(node.name, *_arguments(node, env))  # a Call

    return _evaluate(node, leaf, pow_int)


def _construct(name: str, *args) -> Quantity:
    if name == "delay":
        return delay(*args)
    if name == "patch":
        return patch(args[0], dict(args[1]))
    if name == "series":
        return partial_sums(Series(args[0].body, args[1]))
    return geometric_series_sums(*args)  # geom


def _arguments(node: Call, env: dict) -> list:
    """Check the caps on a call's integer arguments, then evaluate every argument by kind."""
    kinds = SIGNATURES[node.name][1]
    for kind, arg in zip(kinds, node.args):
        if kind in _CAPS:
            cap, operation = _CAPS[kind]
            if (max(i for i, _ in arg) if kind == OVERRIDES else arg) > cap:
                raise SeqRingError(f"{node.name} {kind} above {cap}", operation=operation)
    return [_argument(kind, arg, env) for kind, arg in zip(kinds, node.args)]


def _argument(kind: str, arg, env: dict):
    if kind in (QUANTITY, TERM):  # a series term is a quantity too, in k
        return _eval_quantity(arg, env)
    return _fn_object(arg) if kind == FUNCTION else arg  # else a number or the overrides


def _fn_object(node) -> RealFunction:
    if isinstance(node, Ref):
        if node.name not in BUILTINS:
            raise SeqRingError(f"unknown function '{node.name}'", operation="execute")
        return BUILTINS[node.name]

    def evaluate(x: Fraction) -> Fraction:
        leaf = lambda term: term.value if isinstance(term, Num) else x  # Num or Var
        return _evaluate(node.body, leaf, operator.pow)

    return RealFunction(f"{node.var} -> {_unparse(node.body)}", evaluate)


def _unparse(node) -> str:
    """Lambda body text: each BinOp in parentheses, ``-x`` and ``x^INT``."""
    spine, node = _left_spine(node)
    if isinstance(node, Num):
        text = str(node.value)
    elif isinstance(node, Var):
        text = node.name
    else:
        text = f"{_unparse(node.operand)}^{node.exponent}"  # Pow
    heads = "".join("-" if isinstance(outer, Neg) else "(" for outer in spine)
    tails = "".join(f" {outer.op} {_unparse(outer.right)})" for outer in reversed(spine)
                    if isinstance(outer, BinOp))
    return heads + text + tails


def _json_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _estimate(est: StEstimate) -> tuple[dict, str]:
    """JSON fields and text line of an estimate with its achieved spread."""
    value, spread = est.value, est.achieved_spread
    try:
        approx = f"{float(value):.6g}"
    except OverflowError:  # past the float range; Decimal has no such bound
        context = decimal.Context(prec=6, Emax=decimal.MAX_EMAX)
        approx = f"{context.divide(value.numerator, value.denominator).normalize(context):.6g}"
    fields = {"value": _json_rat(value), "spread": _json_rat(spread)}
    return fields, f"estimate {value} (~{approx}, spread {spread})"


def execute(node, env: dict, config: Config) -> Result:
    """Dispatch a parsed statement to the library; returns a renderable Result."""
    if isinstance(node, Let):
        env[node.name] = q = _eval_quantity(node.expr, env)
        rendering = q.render()
        return Result("let", {"name": node.name}, rendering, node.name, f"{node.name} = {rendering}")
    if isinstance(node, Assertion):
        inner = execute(node.inner, env, config)
        ok = inner.token == node.expected and inner.token != "unknown"
        verdict = "pass" if ok else "fail"
        fields = {"verdict": verdict, "expected": node.expected, "actual": inner.token}
        text = (f"assert passed: {inner.token}" if ok
                else f"assert failed: expected {node.expected}, got {inner.token}")
        return Result("assert", fields, inner.rendering, verdict, text)
    if not isinstance(node, Call) or node.name not in COMMANDS:  # a bare quantity
        rendering = _eval_quantity(node, env).render()
        return Result("quantity", {}, rendering, rendering, rendering)

    # fields and text default to {"verdict": token} and the token itself.
    name, args, fields, text = node.name, _arguments(node, env), None, None
    if name == "cmp":
        token = compare(*args).value
    elif name == "infgreater":
        token = "yes" if infinitely_greater(*args) else "no"
    elif name == "close":
        answer = infinitely_close(*args, config.horizon)
        token = answer.status if isinstance(answer, Verdict) else ("yes" if answer else "no")
    elif name == "cont":
        probe = continuity_probe(
            *args, horizon=config.horizon, tol=config.tol, window=config.window
        )
        token = probe.status
        if probe.witness is not None:
            fields = {"verdict": token, "witness": probe.witness}
            text = f"{token} (witness index {probe.witness})"
    elif name == "classify":
        c = classify(args[0])
        fields, token = {"value": c.kind}, c.kind
        if c.standard_part is not None:
            fields["standard_part"] = _json_rat(c.standard_part)
            text = f"{c.kind} {c.standard_part}"
    elif name == "st":
        value = standard_part(args[0], config.horizon, config.window)
        if isinstance(value, StEstimate):
            fields, text = _estimate(value)
            value = value.value
        else:
            fields = {"value": _json_rat(value)}
        token = str(value)
    else:  # deriv
        est = derivative(*args, horizon=config.horizon, window=config.window)
        fields, text = _estimate(est)
        token = str(est.value)
    # A one-quantity command renders its quantity, the others render the call.
    shown = [a.render() if k == QUANTITY else a.name if k == FUNCTION else str(a)
             for k, a in zip(SIGNATURES[name][1], args)]
    rendering = shown[0] if len(shown) == 1 else f"{name}({', '.join(shown)})"
    return Result(name, fields or {"verdict": token}, rendering, token, text or token)


# ------------------------------------------------------------------
# Formatting and drivers
# ------------------------------------------------------------------

def format_json(result: Result, config: Config) -> str:
    """Single-line JSON with fixed key order; rationals serialized as "p/q"."""
    payload = {"kind": result.kind, **result.fields}
    if result.kind != "error":
        payload["rendering"] = result.rendering
        payload["config"] = {"horizon": config.horizon, "tol": _json_rat(config.tol)}
    return json.dumps(payload, separators=(",", ":"))


def format_text(result: Result) -> str:
    if result.kind == "error":
        return f"error in {result.fields['operation']}: {result.fields['message']}"
    return result.text


def run_statement(text: str, env: dict, config: Config, line: int = 1) -> tuple[Result, int]:
    """Parse and execute one statement; returns the result and its exit code."""
    try:
        node = parse(text, line)
        result = execute(node, env, config)
    except ExprSyntaxError as exc:
        return Result("error", {"operation": "parse", "message": str(exc)}), 1
    except Exception as exc:  # fuzz robustness: nothing escapes as a crash
        operation = exc.operation if isinstance(exc, SeqRingError) else "execute"
        return Result("error", {"operation": operation, "message": type(exc).__name__}), 2
    if isinstance(node, Assertion) and result.token != "pass":
        return result, 3
    return result, 0


def run_batch(lines, config: Config, write: Callable[[str], None] = None) -> int:
    """One statement per line; stops at the first failure and returns its code."""
    write = write or print
    env: dict = {}
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        result, code = run_statement(text, env, config, line_no)
        write(format_json(result, config) if config.json_output else format_text(result))
        if code != 0:
            return code
    return 0


def repl(config: Config) -> int:
    env: dict = {}
    while True:
        try:
            text = input("seqring> ")
        except EOFError:
            print()
            return 0
        text = text.strip()
        if text in ("exit", "quit"):
            return 0
        if text:
            result, _ = run_statement(text, env, config)
            print(format_json(result, config) if config.json_output else format_text(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqring",
        description="exact sequence-quantity calculator (REPL or batch)",
    )
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    parser.add_argument("--tol", type=Fraction, default=DEFAULT_TOL)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--json", action="store_true", help="emit single-line JSON results")
    parser.add_argument("--batch", metavar="FILE", help="run statements from a file")
    args = parser.parse_args(argv)
    try:
        config = Config(horizon=args.horizon, tol=args.tol, window=args.window, json_output=args.json)
    except ValueError as exc:
        parser.error(str(exc))
    if not args.batch:
        return repl(config)
    try:
        with open(args.batch, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read batch file {args.batch!r}: {exc}")
    return run_batch(lines, config)


if __name__ == "__main__":
    sys.exit(main())
