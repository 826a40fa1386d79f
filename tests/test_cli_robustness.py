"""Literals the parser must reject with a position instead of crashing."""

import random
import sys

import pytest
from helpers import WINDOW_PAIRS, reference_tokens

from seqring import ExprSyntaxError
from seqring.cli import Config, _tokenize, format_json, format_text, main, run_statement

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="this interpreter has no int-string digit limit"
)


def run_one(text):
    result, code = run_statement(text, {}, Config())
    return format_json(result, Config()), code


def parse_error_at(column, expected):
    message = f"syntax error at 1:{column}: expected {expected}"
    return f'{{"kind":"error","operation":"parse","message":"{message}"}}'


@pytest.mark.parametrize(
    "text, column",
    [
        ("1/0", 3),
        ("cmp(N, 1/0)", 10),
        ("(1/0)^n", 4),
        ("patch(N, 1:1/0)", 14),
        ("deriv(x -> x, 1/0)", 17),
        ("st(-3/00)", 7),
    ],
)
def test_zero_denominator_is_a_parse_error(text, column):
    assert run_one(text) == (parse_error_at(column, "a nonzero denominator"), 1)


@pytest.mark.parametrize(
    "text, column, expected",
    [
        ("patch(N, 0:1)", 10, "a patch index >= 1"),
        ("patch(N, -2:1)", 10, "a patch index >= 1"),
        ("patch(N, 1:5, 2.5:1)", 15, "a patch index >= 1"),
        ("series(1) from 0", 16, "a start index >= 1"),
        ("series(k) from -3", 16, "a start index >= 1"),
        ("delay(N, -1)", 10, "a delay length >= 0"),
        ("N^--2", 4, "an integer exponent"),
        ("N^2.5", 3, "an integer exponent"),
    ],
)
def test_out_of_range_integer_is_a_parse_error(text, column, expected):
    assert run_one(text) == (parse_error_at(column, expected), 1)


@pytest.mark.parametrize(
    "text, operation",
    [
        ("series(1) from 100001", "partial_sums"),
        ("series(k) from 999999999", "partial_sums"),
        # The caps come before the operand is evaluated, so its own error never shows.
        ("series(k^65) from 100001", "partial_sums"),
        ("delay(N^-1, 100001)", "delay"),
    ],
)
def test_lengths_above_the_cap_are_refused_before_any_work(text, operation):
    expected = f'{{"kind":"error","operation":"{operation}","message":"SeqRingError"}}'
    assert run_one(text) == (expected, 2)


@needs_digit_limit
def test_literal_past_the_digit_limit_is_a_parse_error():
    long = "1" * (DIGIT_LIMIT + 1)
    expected = "a numeric literal of fewer digits"
    cases = [
        (long, 1),
        (f"delay(N, {long})", 10),
        (f"N^{long}", 3),
        (f"0.{long}", 1),
        (f"3/{long}", 3),
        (f"patch(N, {long}:1)", 10),
    ]
    for text, column in cases:
        assert run_one(text) == (parse_error_at(column, expected), 1), text[:20]


@needs_digit_limit
def test_digit_limit_on_outputs_is_unchanged():
    # A literal at the limit parses; a result past it still fails in render.
    json_text, code = run_one("9" * DIGIT_LIMIT)
    assert code == 0 and ("9" * DIGIT_LIMIT) in json_text
    half = "9" * (DIGIT_LIMIT // 2 + 1)
    assert run_one(f"{half} * {half}") == (
        '{"kind":"error","operation":"execute","message":"ValueError"}',
        2,
    )


def _cli_tokens(text):
    try:
        return [(tok.kind, tok.text, tok.col) for tok in _tokenize(text, 1)]
    except ExprSyntaxError as exc:
        return exc.column


def test_every_bmp_character_tokenizes_like_the_reference():
    for code in range(0x10000):
        ch = chr(code)
        for text in (ch, "N" + ch, "1" + ch):
            assert _cli_tokens(text) == reference_tokens(text), hex(code)


CHAIN = 5000


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+".join(["N"] * CHAIN), "5000*n^1*1^n"),
        ("*".join(["1"] * CHAIN), "1*n^0*1^n"),
        (f"series({'+'.join(['k'] * CHAIN)})", "2500*n^2*1^n + 2500*n^1*1^n"),
        # The function's name is the lambda's text, written out by the same loop.
        (f"deriv(x -> {'+'.join(['x'] * CHAIN)}, 1)", "estimate 5000 (~5000, spread 0)"),
        # The base is folded to a constant while parsing.
        (f"({'+'.join(['1'] * CHAIN)})^n", "1*n^0*5000^n"),
    ],
    ids=["sum", "product", "series", "lambda", "exponential-base"],
)
def test_a_flat_operator_chain_of_any_length_evaluates(text, expected):
    result, code = run_statement(text, {}, Config())
    assert (code, format_text(result)) == (0, expected)


@pytest.mark.parametrize(
    "text",
    ["(" * CHAIN + "N" + ")" * CHAIN, "-" * CHAIN + "N"],
    ids=["parentheses", "unary-minus"],
)
def test_nesting_past_the_recursion_limit_is_a_parse_error(text):
    assert run_one(text) == (parse_error_at(1, "shallower nesting"), 1)


def test_fuzz_with_zero_denominators_and_long_literals():
    rng = random.Random(2024)
    vocab = [
        "N", "n", "k", "x", "let", "cmp", "st", "series", "delay", "patch",
        "deriv", "(", ")", ",", "+", "-", "*", "^", "/", ":", "->", "0", "1",
        "1/0", "0/0", "7", "0.5", "1" * 5000,
    ]
    for _ in range(300):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
        _, code = run_statement(text, {}, Config())
        assert code in (0, 1, 2, 3), text[:80]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--horizon", "0"], "horizon must be >= 1"),
        (["--horizon", "-5"], "horizon must be >= 1"),
        (["--window", "0"], "window must be between 1 and the horizon"),
        (["--window", "-1"], "window must be between 1 and the horizon"),
        (["--horizon", "10", "--window", "11"], "window must be between 1 and the horizon"),
    ],
)
def test_out_of_range_horizon_or_window_is_a_usage_error(tmp_path, capsys, options, message):
    batch = tmp_path / "batch.txt"
    batch.write_text("deriv(sin, 0)\n1 + 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main([*options, "--json", "--batch", str(batch)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before any statement runs
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("content", [None, b"\xff\xfe1 + 1\n"], ids=["missing", "not-utf-8"])
def test_an_unreadable_batch_file_is_a_usage_error(tmp_path, capsys, content):
    batch = tmp_path / "batch.txt"
    if content is not None:
        batch.write_bytes(content)
    with pytest.raises(SystemExit) as exit_info:
        main(["--json", "--batch", str(batch)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before any statement runs
    assert f"error: cannot read batch file {str(batch)!r}: " in err


def test_window_equal_to_the_horizon_is_accepted(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("deriv(x -> x * x, 3)\n", encoding="utf-8")
    assert main(["--horizon", "10", "--window", "10", "--batch", str(batch)]) == 0
    assert capsys.readouterr().out.startswith("estimate ")


SWEPT_STATEMENTS = [
    "cont(sin, 0)",
    "cont(step, 0)",
    "cont(x -> x^2, 1)",
    "deriv(sin, 0)",
    "deriv(x -> x^-1, 1)",
    "st(geom(1/2))",
    "st(N^-1 + 2)",
    "close(N^-1, 0)",
    "close(N, N+1)",
    "classify(geom(1/2))",
    "classify((-1)^n * N)",
    "cmp(N, N^2)",
]


def test_every_small_horizon_and_window_runs_each_statement_without_an_execute_error():
    # Horizons 1..12 with every window 1..h: a verdict may be unknown, but no
    # statement may fail in execution (a library defect, exit 2).
    for horizon in range(1, 13):
        for window in range(1, horizon + 1):
            config = Config(horizon=horizon, window=window)
            for text in SWEPT_STATEMENTS:
                result, code = run_statement(text, {}, config)
                line = format_json(result, config)
                assert '"operation":"execute"' not in line, (horizon, window, text, line)
                assert code in (0, 3), (horizon, window, text, line)


def test_cont_never_refutes_an_affine_map_or_sin_at_zero_on_any_swept_window():
    # A "fails" verdict is a proof: with windows too close to compare, cont is unknown.
    for horizon, window in WINDOW_PAIRS:
        config = Config(horizon=horizon, window=window)
        for text in ("cont(sin, 0)", "cont(x -> 2*x + 1, 0)"):
            result, code = run_statement(text, {}, config)
            assert result.fields["verdict"] in ("holds", "unknown"), (horizon, window, text)
            assert code == 0
    for horizon, verdict in ((50, "unknown"), (100, "holds")):  # the default window, 50
        for text in ("cont(sin, 0)", "cont(x -> 2*x + 1, 0)"):
            assert run_statement(text, {}, Config(horizon=horizon))[0].fields["verdict"] == verdict
