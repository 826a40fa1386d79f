"""Expression language: parsing, execution, JSON output, batch exit codes."""

import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from seqring import ExprSyntaxError, Quantity
from seqring.cli import (
    Call,
    Config,
    Let,
    execute,
    format_json,
    format_text,
    parse,
    run_batch,
    run_statement,
)


def run_one(text, env=None, config=None):
    return run_statement(text, env if env is not None else {}, config or Config())


# ------------------------------------------------------------------
# parse
# ------------------------------------------------------------------

def test_parse_cmp_of_series():
    node = parse("cmp(series(k^2), series(k))")
    assert isinstance(node, Call) and node.name == "cmp"
    assert all(isinstance(a, Call) and a.name == "series" for a in node.args)


def test_parse_st_of_geom():
    node = parse("st(geom(1/2))")
    assert node.name == "st"
    assert node.args[0] == Call("geom", (F(1, 2),))


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("cmp(N + )")
    assert err.value.column == 9
    assert err.value.line == 1


def test_parse_let_and_reference():
    node = parse("let twice = 2 * N")
    assert isinstance(node, Let) and node.name == "twice"


def test_parse_decimal_literals_exactly():
    assert parse("0.5").value == F(1, 2)
    result, code = run_one("st(0.125 + 0.375)")
    assert code == 0
    assert result.token == "1/2"


def test_parse_rejects_garbage():
    for bad in ["cmp(N,)", "series()", "let = 3", "N ^", "patch(N)", "deriv(x ->, 1)", "@"]:
        with pytest.raises(ExprSyntaxError):
            parse(bad)


# ------------------------------------------------------------------
# execute
# ------------------------------------------------------------------

def test_execute_series_comparison():
    result, code = run_one("cmp(series(k^2), series(k))")
    assert (code, result.token) == (0, "greater")
    result, _ = run_one("infgreater(series(k^2), series(k))")
    assert result.token == "yes"


def test_execute_classify_geom():
    result, _ = run_one("classify(geom(1/2))")
    assert result.fields == {"value": "finite", "standard_part": "2/1"}


def test_execute_deriv_estimate():
    result, code = run_one("deriv(x -> x^2, 3)")
    assert code == 0
    value = F(result.fields["value"])
    assert abs(value - 6) < F(1, 1000)


def test_execute_builtin_function():
    result, code = run_one("deriv(sin, 0)")
    assert code == 0
    assert abs(F(result.fields["value"]) - 1) < F(1, 10**6)


def test_execute_cont_step_fails():
    result, code = run_one("cont(step, 0)")
    assert code == 0
    assert result.fields["verdict"] == "fails"
    assert result.fields["witness"] > 0


def test_let_binding_flow():
    env = {}
    run_one("let p = series(k)", env)
    result, code = run_one("cmp(p, N)", env)
    assert (code, result.token) == (0, "greater")


def test_unknown_name_is_evaluation_error():
    result, code = run_one("cmp(mystery, N)")
    assert code == 2
    assert result.fields["operation"] == "execute"


def test_module_errors_carry_operation():
    result, code = run_one("delay(N^-1, 2)")
    assert code == 2
    assert result.fields == {"operation": "delay", "message": "NegativePowerDelay"}
    result, code = run_one("st(series(k))")
    assert code == 2
    assert result.fields["operation"] == "standard_part"
    assert result.fields["message"] == "NotFinite"


def test_exponent_and_delay_guards():
    for text in ["N^999", "2^1000000", "delay(N, 999999)"]:
        _, code = run_one(text)
        assert code == 2


def test_bare_quantity_is_rendered_once(monkeypatch):
    calls = []
    render = Quantity.render

    def counting(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(Quantity, "render", counting)
    result, code = run_one("delay(N, 3)")
    assert (code, len(calls)) == (0, 1)
    assert result.rendering == result.token == result.text


def test_estimate_past_the_float_range_has_a_text_line():
    # 64 * 10^(12*63) overflows float(); the JSON value is exact either way.
    result, code = run_one("deriv(x -> x^64, 1000000000000)")
    assert code == 0 and 6 * 10**757 < F(result.fields["value"]) < 7 * 10**757
    assert "(~6.4e+757, spread " in format_text(result)


def test_patch_syntax_and_equality():
    result, code = run_one("cmp(patch(N, 1:99, 7:0), N)")
    assert (code, result.token) == (0, "equal")


def test_series_from_clause():
    result, code = run_one("series(k) from 3")
    assert code == 0
    env = {}
    run_one("let tail = series(k) from 3", env)
    values, _ = run_one("st(tail - series(k) + 3)", env)  # difference is the constant -3
    assert values.token == "0"


# ------------------------------------------------------------------
# JSON output
# ------------------------------------------------------------------

def test_json_schema_for_cmp():
    config = Config()
    result, _ = run_one("cmp(series(k^2), series(k))")
    payload = json.loads(format_json(result, config))
    assert list(payload) == ["kind", "verdict", "rendering", "config"]
    assert payload["kind"] == "cmp"
    assert payload["verdict"] == "greater"
    assert payload["config"] == {"horizon": 10000, "tol": "1/1000000"}


def test_json_schema_for_classify():
    config = Config()
    result, _ = run_one("classify(geom(1/2))")
    payload = json.loads(format_json(result, config))
    assert list(payload) == ["kind", "value", "standard_part", "rendering", "config"]
    assert payload["standard_part"] == "2/1"


def test_json_schema_for_error():
    config = Config()
    result, _ = run_one("delay(N^-1, 2)")
    text = format_json(result, config)
    assert text == '{"kind":"error","operation":"delay","message":"NegativePowerDelay"}'


def test_json_is_deterministic():
    config = Config()
    lines = ["cmp(series(k^2), series(k))", "classify(geom(1/2))", "deriv(x -> x^2, 3)"]
    def render_all():
        out = []
        run_batch(lines, Config(json_output=True), out.append)
        return "\n".join(out)
    assert render_all() == render_all()


# ------------------------------------------------------------------
# batch / exit codes
# ------------------------------------------------------------------

def test_batch_success_exit_zero():
    lines = [
        "# the infinite hierarchy",
        "assert cmp(series(k), series(k^2)) == less",
        "assert infgreater(series(k^2), series(k)) == yes",
        "assert classify(geom(1/2)) == finite",
        "assert st(geom(1/2)) == 2",
    ]
    out = []
    assert run_batch(lines, Config(), out.append) == 0
    assert len(out) == 4


def test_batch_parse_error_exit_one():
    assert run_batch(["cmp(N +)"], Config(), lambda s: None) == 1


def test_batch_evaluation_error_exit_two():
    assert run_batch(["st(series(k))"], Config(), lambda s: None) == 2


def test_batch_failed_assertion_exit_three():
    # correct verdict is `less`, so asserting equality must gate the run
    assert run_batch(["assert cmp(N, series(k)) == equal"], Config(), lambda s: None) == 3


def test_batch_stops_at_first_failure():
    out = []
    lines = ["assert cmp(N, N) == equal", "cmp(N +)", "assert cmp(N, N) == equal"]
    assert run_batch(lines, Config(), out.append) == 1
    assert len(out) == 2  # the passing assert and the error line


# ------------------------------------------------------------------
# round trip
# ------------------------------------------------------------------

def test_quantity_rendering_round_trips():
    config = Config()
    sources = [
        "N",
        "series(k)",
        "series(k^2)",
        "geom(1/2)",
        "geom(3/4) * N + 2",
        "delay(N, 2)",
        "patch(N, 1:99)",
        "N^-1",
        "2^n - 2*1^n",
        "-3*n^2*1^n + 1/2*n^0*(-1)^n",
    ]
    env = {}
    for text in sources:
        first, code = run_statement(text, env, config)
        assert code == 0, text
        second, code = run_statement(first.rendering, env, config)
        assert code == 0, first.rendering
        q1, _ = run_statement(f"cmp({text}, {first.rendering})", env, config)
        assert q1.token == "equal"
        assert second.rendering == first.rendering  # rendering is a fixed point


def test_fuzz_corpus_never_crashes():
    rng = random.Random(99)
    vocab = [
        "N", "n", "k", "x", "let", "assert", "cmp", "classify", "st", "series",
        "geom", "delay", "patch", "deriv", "cont", "(", ")", ",", "+", "-", "*",
        "^", "/", ":", "==", "->", "=", "0", "1", "2", "7", "1/2", "0.5",
        "9999999999", "sin", "step", "name", "from", "inf",
    ]
    config = Config()
    for _ in range(300):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
        _, code = run_statement(text, {}, config)
        assert code in (0, 1, 2, 3), text


@pytest.mark.parametrize(
    "options, message",
    [
        ({"horizon": 0}, "horizon must be >= 1"),
        ({"window": 0}, "window must be between 1 and the horizon"),
        ({"horizon": 10}, "window must be between 1 and the horizon"),  # default window 50
    ],
)
def test_config_rejects_an_out_of_range_horizon_or_window(options, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Config(**options)
    config = Config(horizon=10, window=10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.horizon = 0


def test_config_keeps_its_horizon_and_window_as_ints():
    config = Config(horizon=True, window=True)
    assert (config.horizon, config.window) == (1, 1)
    assert type(config.horizon) is type(config.window) is int
    with pytest.raises(TypeError):
        Config(horizon=100.5)
