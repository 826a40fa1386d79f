"""Golden JSON for the expression language.

A fixed corpus runs in order, in one environment, through ``run_statement``
and ``format_json``. Each line's exit code and JSON were captured from the
implementation that had one tree walker per expression context, so a change
to parsing, evaluation or rendering shows up here as a diff. The corpus hits
every AST node type, every command, lambda renderings with ``-``, unary
``-`` and ``^``, constant-folded exponential bases, and each error path.
The lines ``series(1) from 0`` and ``patch(N, 0:1)`` were later changed from
a library ``ValueError`` (exit 2) to a parse error at the index (exit 1).
The lines ``series(1) from 100000`` and ``series(1) from 100001`` were added
with the cap on series starts; the first is the output the code gave before
the cap.
"""

import dataclasses

from seqring import cli
from seqring.cli import Config, format_json, parse, run_statement

GOLDEN = [
    ('let a = 2*N - 1/2', 0,
     '{"kind":"let","name":"a","rendering":"2*n^1*1^n - 1/2*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('a + 3', 0,
     '{"kind":"quantity","rendering":"2*n^1*1^n + 5/2*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('-a * N^2', 0,
     '{"kind":"quantity","rendering":"-2*n^3*1^n + 1/2*n^2*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('1 - -n', 0,
     '{"kind":"quantity","rendering":"1*n^1*1^n + 1*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('(N+1)^2 - N^2', 0,
     '{"kind":"quantity","rendering":"2*n^1*1^n + 1*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('2^n - 3*(1/2)^n', 0,
     '{"kind":"quantity","rendering":"1*n^0*2^n - 3*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('(-2/3)^N * n^-2', 0,
     '{"kind":"quantity","rendering":"1*n^-2*(-2/3)^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('(1/2+1/2)^n', 0,
     '{"kind":"quantity","rendering":"1*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('(2^70)^n', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:7: expected a nonzero rational base for an exponential"}'),
    ('(0.5)^N', 0,
     '{"kind":"quantity","rendering":"1*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('N^0 + 0^0', 0,
     '{"kind":"quantity","rendering":"2*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('delay(N^2 + 2^n, 3)', 0,
     '{"kind":"quantity","rendering":"patch(1/8*n^0*2^n + 1*n^2*1^n - 6*n^1*1^n + 9*n^0*1^n, 1:0, 2:0, 3:0)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('delay(a, 0)', 0,
     '{"kind":"quantity","rendering":"2*n^1*1^n - 1/2*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('patch(N, 1:99, 7:0)', 0,
     '{"kind":"quantity","rendering":"patch(1*n^1*1^n, 1:99, 7:0)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('patch(N^-1, 2:-1/2, 3:0.25)', 0,
     '{"kind":"quantity","rendering":"patch(1*n^-1*1^n, 2:-1/2, 3:1/4)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('series(k^2 - 2*k + (1/2)^k) from 2', 0,
     '{"kind":"quantity","rendering":"1/3*n^3*1^n - 1/2*n^2*1^n - 5/6*n^1*1^n + 3/2*n^0*1^n - 1*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('series(-k*(2/3)^k)', 0,
     '{"kind":"quantity","rendering":"-6*n^0*1^n + 2*n^1*2/3^n + 6*n^0*2/3^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('series((2*k)^-1)', 2,
     '{"kind":"error","operation":"partial_sums","message":"NegativePowerTerm"}'),
    ('series(1) from 0', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:16: expected a start index >= 1"}'),
    ('geom(3/4)', 0,
     '{"kind":"quantity","rendering":"4*n^0*1^n - 4*n^0*3/4^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('geom(1)', 0,
     '{"kind":"quantity","rendering":"1*n^1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('let b = series(k) * 2 - geom(1/2)', 0,
     '{"kind":"let","name":"b","rendering":"1*n^2*1^n + 1*n^1*1^n - 2*n^0*1^n + 2*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('b', 0,
     '{"kind":"quantity","rendering":"1*n^2*1^n + 1*n^1*1^n - 2*n^0*1^n + 2*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('cmp(series(k), N^2)', 0,
     '{"kind":"cmp","verdict":"less","rendering":"cmp(1/2*n^2*1^n + 1/2*n^1*1^n, 1*n^2*1^n)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('cmp(a, b)', 0,
     '{"kind":"cmp","verdict":"less","rendering":"cmp(2*n^1*1^n - 1/2*n^0*1^n, 1*n^2*1^n + 1*n^1*1^n - 2*n^0*1^n + 2*n^0*1/2^n)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('cmp((-1)^n, 0)', 0,
     '{"kind":"cmp","verdict":"incomparable","rendering":"cmp(1*n^0*(-1)^n, 0)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('classify(geom(1/2))', 0,
     '{"kind":"classify","value":"finite","standard_part":"2/1","rendering":"2*n^0*1^n - 2*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('classify(N^-1)', 0,
     '{"kind":"classify","value":"infinitesimal","rendering":"1*n^-1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('classify((-1)^n * N)', 0,
     '{"kind":"classify","value":"oscillating","rendering":"1*n^1*(-1)^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('classify(-N)', 0,
     '{"kind":"classify","value":"inf-","rendering":"-1*n^1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('st(geom(1/2) + 1/3)', 0,
     '{"kind":"st","value":"7/3","rendering":"7/3*n^0*1^n - 2*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('st(N)', 2,
     '{"kind":"error","operation":"standard_part","message":"NotFinite"}'),
    ('infgreater(N^2, 5*N)', 0,
     '{"kind":"infgreater","verdict":"yes","rendering":"infgreater(1*n^2*1^n, 5*n^1*1^n)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('infgreater(N, N)', 0,
     '{"kind":"infgreater","verdict":"no","rendering":"infgreater(1*n^1*1^n, 1*n^1*1^n)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('close(N^-1, 0)', 0,
     '{"kind":"close","verdict":"yes","rendering":"close(1*n^-1*1^n, 0)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('close(N, N+1)', 0,
     '{"kind":"close","verdict":"no","rendering":"close(1*n^1*1^n, 1*n^1*1^n + 1*n^0*1^n)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('deriv(x -> x^3 - 2*x + -x^2, 1/2)', 0,
     '{"kind":"deriv","value":"-44559624938608499/19804719024720000","spread":"2438972599/9902240100000000","rendering":"deriv(x -> ((x^3 - (2 * x)) + -x^2), 1/2)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('deriv(t -> -(t - 1)^2 * t^-1, 2)', 0,
     '{"kind":"deriv","value":"-1194266861/1592329212","spread":"49/796159806","rendering":"deriv(t -> (-(t - 1)^2 * t^-1), 2)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('deriv(sin, 0)', 0,
     '{"kind":"deriv","value":"36893488085627550335/36893488147419103232","spread":"1214110853/73786976294838206464","rendering":"deriv(sin, 0)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('deriv(foo, 1)', 2,
     '{"kind":"error","operation":"execute","message":"SeqRingError"}'),
    ('cont(x -> -(x - 1)^2 * x^-1, 2)', 0,
     '{"kind":"cont","verdict":"holds","rendering":"cont(x -> (-(x - 1)^2 * x^-1), 2)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('cont(x -> x^0 - 0.5*x, -1)', 0,
     '{"kind":"cont","verdict":"holds","rendering":"cont(x -> (x^0 - (1/2 * x)), -1)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('cont(step, 0)', 0,
     '{"kind":"cont","verdict":"fails","witness":9951,"rendering":"cont(step, 0)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('assert cmp(N, N) == equal', 0,
     '{"kind":"assert","verdict":"pass","expected":"equal","actual":"equal","rendering":"cmp(1*n^1*1^n, 1*n^1*1^n)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('assert classify(N) == inf+', 0,
     '{"kind":"assert","verdict":"pass","expected":"inf+","actual":"inf+","rendering":"1*n^1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('assert st(geom(1/2)) == 2', 0,
     '{"kind":"assert","verdict":"pass","expected":"2","actual":"2","rendering":"2*n^0*1^n - 2*n^0*1/2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('assert st(1/2 - 1) == -1/2', 0,
     '{"kind":"assert","verdict":"pass","expected":"-1/2","actual":"-1/2","rendering":"-1/2*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('assert classify(N) == finite', 3,
     '{"kind":"assert","verdict":"fail","expected":"finite","actual":"inf+","rendering":"1*n^1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('(N)^n', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:4: expected a nonzero rational base for an exponential"}'),
    ('(0^-1)^n', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:7: expected a nonzero rational base for an exponential"}'),
    ('(N+1)^-1', 2,
     '{"kind":"error","operation":"pow","message":"NonInvertible"}'),
    # The one line that differs from the per-context walkers, which reported
    # series/SeqRingError here; now it is the error (N+1)^-1 gives.
    ('series((k+1)^-1)', 2,
     '{"kind":"error","operation":"pow","message":"NonInvertible"}'),
    ('N^65', 2,
     '{"kind":"error","operation":"pow","message":"SeqRingError"}'),
    ('N^-65', 2,
     '{"kind":"error","operation":"pow","message":"SeqRingError"}'),
    ('series(k^65)', 2,
     '{"kind":"error","operation":"pow","message":"SeqRingError"}'),
    ('delay(N, 100001)', 2,
     '{"kind":"error","operation":"delay","message":"SeqRingError"}'),
    # The body n - 99999 is 0 at index 99999, so the zero prefix stops at 99998.
    ('series(1) from 100000', 0,
     '{"kind":"quantity","rendering":"patch(1*n^1*1^n - 99999*n^0*1^n, '
     + ', '.join(f'{i}:0' for i in range(1, 99999))
     + ')","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('series(1) from 100001', 2,
     '{"kind":"error","operation":"partial_sums","message":"SeqRingError"}'),
    ('delay(N^-1, 2)', 2,
     '{"kind":"error","operation":"delay","message":"NegativePowerDelay"}'),
    ('patch(N, 0:1)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:10: expected a patch index >= 1"}'),
    ('mystery + 1', 2,
     '{"kind":"error","operation":"execute","message":"SeqRingError"}'),
    ('cmp(N + )', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:9: expected an expression"}'),
    ('let N = 1', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:1: expected a non-reserved binding name"}'),
    ('deriv(x -> y, 1)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:12: expected the function variable \'x\' or a rational"}'),
    ('series(N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:8: expected the summation variable \'k\' or a rational"}'),
]

AST_TYPES = {
    cli.Num, cli.Var, cli.Ref, cli.BinOp, cli.Neg, cli.Pow, cli.ExpBase, cli.Delay,
    cli.Patch, cli.SeriesNode, cli.Geom, cli.Lambda, cli.FnRef, cli.Command, cli.Let,
    cli.Assertion, cli.Bare,
}


def _node_types(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _node_types(item)
    elif dataclasses.is_dataclass(value):
        yield type(value)
        for field in dataclasses.fields(value):
            yield from _node_types(getattr(value, field.name))


def test_golden_corpus_json():
    config, env = Config(), {}
    for text, code, expected in GOLDEN:
        result, got = run_statement(text, env, config)
        assert (got, format_json(result, config)) == (code, expected), text


def test_golden_corpus_covers_the_language():
    seen, commands = set(), set()
    for text, code, _ in GOLDEN:
        if code == 1:
            continue
        node = parse(text)
        seen.update(_node_types(node))
        inner = node.inner if isinstance(node, cli.Assertion) else node
        if isinstance(inner, cli.Command):
            commands.add(inner.name)
    assert seen == AST_TYPES
    assert commands == set(cli.COMMANDS)
