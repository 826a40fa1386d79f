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
         | patch(qexpr, INT:rat, ...)        finite index overrides, INT >= 1
         | series(kexpr) [from INT]          closed-form partial sums, 1 <= INT <= 100000
         | geom(rat)                         partial sums (1 - e^n)/(1 - e)
         | (qexpr)
  base  := rat | (cexpr)              cexpr: rationals under + - * unary -
                                      and ^INT, folded to a nonzero rational b
  kexpr := expression in k: rationals, k, base ^ k, + - * unary - and ^INT
  fn    := sin|cos|exp|log|sqrt|abs|step | IDENT -> a polynomial in IDENT
           with rational coefficients and integer (also negative) powers
  rat   := [-]INT | [-]INT/INT | [-]decimal literal (converted exactly)
  INT   := unsigned integer literal

All expression contexts share one evaluator, so + - * unary - and ^INT
(|INT| <= 64) mean the same everywhere; a negative power needs an inverse (a
single-term closed form, or a nonzero rational).

Rationals are exact everywhere; decimal literals like 0.5 become 1/2.
Exit codes: 0 success, 1 parse error, 2 evaluation error, 3 failed assertion
or an unknown verdict on an asserted claim.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
    classify,
    compare,
    infinitely_close,
    infinitely_greater,
)
from .quantity import ExpPoly, Quantity, delay, embed_scalar, patch, pow_int
from .series import Series, geometric_series_sums, partial_sums

MAX_POW = 64
MAX_DELAY = 100_000

COMMANDS = ("cmp", "classify", "st", "infgreater", "close", "deriv", "cont")
CONSTRUCTS = ("delay", "patch", "series", "geom")


# ------------------------------------------------------------------
# Tokens
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # NUM, IDENT, punctuation kinds, EOF
    text: str
    col: int


_PUNCT = {
    "->": "ARROW",
    "==": "EQEQ",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ":": "COLON",
    "=": "EQ",
}


def _tokenize(src: str, line: int) -> list[Token]:
    out: list[Token] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if src.startswith("->", i) or src.startswith("==", i):
            text = src[i : i + 2]
            out.append(Token(_PUNCT[text], text, col))
            i += 2
            continue
        if ch in _PUNCT:
            out.append(Token(_PUNCT[ch], ch, col))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            if j < len(src) and src[j] == "." and j + 1 < len(src) and src[j + 1].isdigit():
                j += 1
                while j < len(src) and src[j].isdigit():
                    j += 1
            out.append(Token("NUM", src[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("IDENT", src[i:j], col))
            i = j
            continue
        raise ExprSyntaxError(line, col, "a valid token")
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
    name: str


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
class Delay:
    operand: object
    steps: int


@dataclass(frozen=True)
class Patch:
    operand: object
    overrides: tuple


@dataclass(frozen=True)
class SeriesNode:
    term: object
    start: int


@dataclass(frozen=True)
class Geom:
    ratio: Fraction


@dataclass(frozen=True)
class Lambda:
    var: str
    body: object


@dataclass(frozen=True)
class FnRef:
    name: str


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple


@dataclass(frozen=True)
class Let:
    name: str
    expr: object


@dataclass(frozen=True)
class Assertion:
    inner: Command
    expected: str


@dataclass(frozen=True)
class Bare:
    expr: object


# ------------------------------------------------------------------
# Parser
# ------------------------------------------------------------------

class _Parser:
    """Recursive descent over the statement grammar; one statement per call."""

    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(self.line, tok.col, what)
        return self.advance()

    def fail(self, what: str):
        raise ExprSyntaxError(self.line, self.peek().col, what)

    # -- statements --------------------------------------------------

    def statement(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "let":
            self.advance()
            name = self.expect("IDENT", "a binding name").text
            if name in COMMANDS + CONSTRUCTS + ("let", "assert", "N", "n", "from"):
                raise ExprSyntaxError(self.line, tok.col, "a non-reserved binding name")
            self.expect("EQ", "'='")
            node = Let(name, self.qexpr())
        elif tok.kind == "IDENT" and tok.text == "assert":
            self.advance()
            inner = self.command()
            self.expect("EQEQ", "'=='")
            node = Assertion(inner, self.expected_token())
        elif tok.kind == "IDENT" and tok.text in COMMANDS and self.peek(1).kind == "LPAREN":
            node = self.command()
        else:
            node = Bare(self.qexpr())
        if self.peek().kind != "EOF":
            self.fail("end of statement")
        return node

    def command(self) -> Command:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text not in COMMANDS:
            self.fail("a command (cmp, classify, st, infgreater, close, deriv, cont)")
        name = self.advance().text
        self.expect("LPAREN", "'('")
        if name in ("cmp", "infgreater", "close"):
            a = self.qexpr()
            self.expect("COMMA", "','")
            args = (a, self.qexpr())
        elif name in ("classify", "st"):
            args = (self.qexpr(),)
        else:  # deriv, cont
            fn = self.fn()
            self.expect("COMMA", "','")
            args = (fn, self.rational())
        self.expect("RPAREN", "')'")
        return Command(name, args)

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

    def qexpr(self):
        return self.sum("quantity", None)

    def sum(self, ctx: str, var: str | None):
        node = self.product(ctx, var)
        while self.peek().kind in ("PLUS", "MINUS"):
            node = BinOp(self.advance().text, node, self.product(ctx, var))
        return node

    def product(self, ctx, var):
        node = self.unary(ctx, var)
        while self.peek().kind == "STAR":
            node = BinOp(self.advance().text, node, self.unary(ctx, var))
        return node

    def unary(self, ctx, var):
        if self.peek().kind == "MINUS":
            self.advance()
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
                raise ExprSyntaxError(
                    self.line, caret.col, "a nonzero rational base for an exponential"
                )
            return ExpBase(base)
        sign = 1
        if tok.kind == "MINUS":
            self.advance()
            sign = -1
        return Pow(node, sign * self.integer("an integer exponent", 0))

    def atom(self, ctx, var):
        tok = self.peek()
        if tok.kind == "NUM":
            return Num(self.rational())
        if tok.kind == "LPAREN":
            self.advance()
            node = self.sum(ctx, var)
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
        if tok.text == "delay":
            self.advance()
            self.expect("LPAREN", "'('")
            operand = self.qexpr()
            self.expect("COMMA", "','")
            steps = self.integer("a delay length >= 0", 0)
            self.expect("RPAREN", "')'")
            return Delay(operand, steps)
        if tok.text == "patch":
            self.advance()
            self.expect("LPAREN", "'('")
            operand = self.qexpr()
            entries = []
            while self.peek().kind == "COMMA":
                self.advance()
                idx = self.integer("a patch index >= 1", 1)
                self.expect("COLON", "':'")
                entries.append((idx, self.rational()))
            self.expect("RPAREN", "')'")
            if not entries:
                self.fail("at least one index:value override")
            return Patch(operand, tuple(entries))
        if tok.text == "series":
            self.advance()
            self.expect("LPAREN", "'('")
            term = self.sum("series", "k")
            self.expect("RPAREN", "')'")
            start = 1
            if self.peek().kind == "IDENT" and self.peek().text == "from":
                self.advance()
                start = self.integer("a start index >= 1", 1)
            return SeriesNode(term, start)
        if tok.text == "geom":
            self.advance()
            self.expect("LPAREN", "'('")
            ratio = self.rational()
            self.expect("RPAREN", "')'")
            return Geom(ratio)
        if tok.text in COMMANDS + ("let", "assert", "from"):
            self.fail("a quantity expression")
        self.advance()
        return Ref(tok.text)

    def fn(self):
        tok = self.expect("IDENT", "a function name or a lambda")
        if self.peek().kind == "ARROW":
            self.advance()
            return Lambda(tok.text, self.sum("lambda", tok.text))
        return FnRef(tok.text)

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
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


def _evaluate(node, leaf, power):
    """Evaluate + - * and unary - with the value type's own operators.

    ``^INT`` calls ``power(value, exponent)``; every other node goes to ``leaf``.
    """
    if isinstance(node, BinOp):
        left, right = _evaluate(node.left, leaf, power), _evaluate(node.right, leaf, power)
        return _BINOPS[node.op](left, right)
    if isinstance(node, Neg):
        return -_evaluate(node.operand, leaf, power)
    if isinstance(node, Pow):
        if abs(node.exponent) > MAX_POW:
            raise SeqRingError("exponent magnitude above 64", operation="pow")
        return power(_evaluate(node.operand, leaf, power), node.exponent)
    return leaf(node)


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

@dataclass
class Config:
    horizon: int = DEFAULT_HORIZON
    tol: Fraction = DEFAULT_TOL
    window: int = DEFAULT_WINDOW
    json_output: bool = False


@dataclass
class Result:
    kind: str
    fields: dict
    rendering: str
    token: str


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
        if isinstance(node, Delay):
            if node.steps > MAX_DELAY:
                raise SeqRingError("delay length above 100000", operation="delay")
            return delay(_eval_quantity(node.operand, env), node.steps)
        if isinstance(node, Patch):
            return patch(_eval_quantity(node.operand, env), dict(node.overrides))
        if isinstance(node, SeriesNode):
            if node.start > MAX_DELAY:
                raise SeqRingError("series start above 100000", operation="partial_sums")
            return partial_sums(Series(_eval_quantity(node.term, env).body, node.start))
        return geometric_series_sums(node.ratio)  # Geom

    return _evaluate(node, leaf, pow_int)


def _fn_object(node) -> tuple[RealFunction, str]:
    if isinstance(node, FnRef):
        if node.name not in BUILTINS:
            raise SeqRingError(f"unknown function '{node.name}'", operation="execute")
        return BUILTINS[node.name], node.name

    def evaluate(x: Fraction) -> Fraction:
        leaf = lambda term: term.value if isinstance(term, Num) else x  # Num or Var
        return _evaluate(node.body, leaf, operator.pow)

    text = f"{node.var} -> {_unparse(node.body)}"
    return RealFunction(text, evaluate), text


def _unparse(node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_unparse(node.operand)}"
    if isinstance(node, BinOp):
        return f"({_unparse(node.left)} {node.op} {_unparse(node.right)})"
    return f"{_unparse(node.operand)}^{node.exponent}"  # Pow


def _json_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def execute(node, env: dict, config: Config) -> Result:
    """Dispatch a parsed statement to the library; returns a renderable Result."""
    if isinstance(node, Let):
        q = _eval_quantity(node.expr, env)
        env[node.name] = q
        return Result("let", {"name": node.name}, q.render(), node.name)
    if isinstance(node, Bare):
        q = _eval_quantity(node.expr, env)
        return Result("quantity", {}, q.render(), q.render())
    if isinstance(node, Assertion):
        inner = execute(node.inner, env, config)
        ok = inner.token == node.expected and inner.token != "unknown"
        fields = {
            "verdict": "pass" if ok else "fail",
            "expected": node.expected,
            "actual": inner.token,
        }
        return Result("assert", fields, inner.rendering, "pass" if ok else "fail")
    if not isinstance(node, Command):
        raise SeqRingError("unsupported statement", operation="execute")

    name, args = node.name, node.args
    if name == "cmp":
        q1, q2 = (_eval_quantity(a, env) for a in args)
        verdict = compare(q1, q2).value
        rendering = f"cmp({q1.render()}, {q2.render()})"
        return Result("cmp", {"verdict": verdict}, rendering, verdict)
    if name == "classify":
        q = _eval_quantity(args[0], env)
        c = classify(q)
        fields = {"value": c.kind}
        if c.standard_part is not None:
            fields["standard_part"] = _json_rat(c.standard_part)
        return Result("classify", fields, q.render(), c.kind)
    if name == "st":
        q = _eval_quantity(args[0], env)
        value = standard_part(q, config.horizon, config.window)
        if isinstance(value, StEstimate):
            fields = {
                "value": _json_rat(value.value),
                "spread": _json_rat(value.achieved_spread),
            }
            return Result("st", fields, q.render(), str(value.value))
        return Result("st", {"value": _json_rat(value)}, q.render(), str(value))
    if name == "infgreater":
        q1, q2 = (_eval_quantity(a, env) for a in args)
        verdict = "yes" if infinitely_greater(q1, q2) else "no"
        rendering = f"infgreater({q1.render()}, {q2.render()})"
        return Result("infgreater", {"verdict": verdict}, rendering, verdict)
    if name == "close":
        q1, q2 = (_eval_quantity(a, env) for a in args)
        answer = infinitely_close(q1, q2, config.horizon)
        verdict = answer.status if isinstance(answer, Verdict) else ("yes" if answer else "no")
        rendering = f"close({q1.render()}, {q2.render()})"
        return Result("close", {"verdict": verdict}, rendering, verdict)
    if name == "deriv":
        fn, text = _fn_object(args[0])
        est = derivative(fn, args[1], horizon=config.horizon, window=config.window)
        fields = {"value": _json_rat(est.value), "spread": _json_rat(est.achieved_spread)}
        return Result("deriv", fields, f"deriv({text}, {args[1]})", str(est.value))
    if name == "cont":
        fn, text = _fn_object(args[0])
        verdict = continuity_probe(
            fn, args[1], horizon=config.horizon, tol=config.tol, window=config.window
        )
        fields = {"verdict": verdict.status}
        if verdict.witness is not None:
            fields["witness"] = verdict.witness
        return Result("cont", fields, f"cont({text}, {args[1]})", verdict.status)
    raise SeqRingError(f"unknown command '{name}'", operation="execute")


# ------------------------------------------------------------------
# Formatting and drivers
# ------------------------------------------------------------------

def format_json(result: Result, config: Config) -> str:
    """Single-line JSON with fixed key order; rationals serialized as "p/q"."""
    if result.kind == "error":
        payload = {"kind": "error", **result.fields}
    else:
        payload = {"kind": result.kind, **result.fields}
        payload["rendering"] = result.rendering
        payload["config"] = {"horizon": config.horizon, "tol": _json_rat(config.tol)}
    return json.dumps(payload, separators=(",", ":"))


def format_text(result: Result) -> str:
    if result.kind == "error":
        return f"error in {result.fields['operation']}: {result.fields['message']}"
    if result.kind in ("cmp", "infgreater", "close"):
        return result.fields["verdict"]
    if result.kind == "cont":
        verdict = result.fields["verdict"]
        if "witness" in result.fields:
            return f"{verdict} (witness index {result.fields['witness']})"
        return verdict
    if result.kind == "classify":
        if "standard_part" in result.fields:
            return f"{result.fields['value']} {Fraction(result.fields['standard_part'])}"
        return result.fields["value"]
    if result.kind in ("st", "deriv"):
        value = Fraction(result.fields["value"])
        if "spread" in result.fields:
            spread = Fraction(result.fields["spread"])
            return f"estimate {value} (~{float(value):.6g}, spread {spread})"
        return str(value)
    if result.kind == "assert":
        if result.fields["verdict"] == "pass":
            return f"assert passed: {result.fields['actual']}"
        return (
            f"assert failed: expected {result.fields['expected']}, "
            f"got {result.fields['actual']}"
        )
    if result.kind == "let":
        return f"{result.fields['name']} = {result.rendering}"
    return result.rendering


def run_statement(text: str, env: dict, config: Config, line: int = 1) -> tuple[Result, int]:
    """Parse and execute one statement; returns the result and its exit code."""
    try:
        node = parse(text, line)
    except ExprSyntaxError as exc:
        return Result("error", {"operation": "parse", "message": str(exc)}, "", ""), 1
    try:
        result = execute(node, env, config)
    except ExprSyntaxError as exc:
        return Result("error", {"operation": "parse", "message": str(exc)}, "", ""), 1
    except SeqRingError as exc:
        fields = {"operation": exc.operation, "message": type(exc).__name__}
        return Result("error", fields, "", ""), 2
    except Exception as exc:  # fuzz robustness: nothing escapes as a crash
        fields = {"operation": "execute", "message": type(exc).__name__}
        return Result("error", fields, "", ""), 2
    if isinstance(node, Assertion) and result.token != "pass":
        return result, 3
    return result, 0


def run_batch(lines, config: Config, write: Callable[[str], None] = None) -> int:
    """One statement per line; stops at the first failure and returns its code."""
    if write is None:
        write = lambda s: print(s)
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
        if not text:
            continue
        if text in ("exit", "quit"):
            return 0
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
    config = Config(horizon=args.horizon, tol=args.tol, window=args.window, json_output=args.json)
    if args.batch:
        with open(args.batch, "r", encoding="utf-8") as handle:
            return run_batch(handle.read().splitlines(), config)
    return repl(config)


if __name__ == "__main__":
    sys.exit(main())
