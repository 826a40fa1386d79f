"""Golden JSON and text output for the expression language.

A fixed corpus runs in order, in one environment, through ``run_statement``,
``format_json`` and ``format_text``. Each line's exit code and JSON were
captured from the implementation that had one tree walker per expression
context, so a change to parsing, evaluation or rendering shows up here as a
diff. The corpus hits
every AST node type, every command, lambda renderings with ``-``, unary
``-`` and ``^``, constant-folded exponential bases, and each error path.
The lines ``series(1) from 0`` and ``patch(N, 0:1)`` were later changed from
a library ``ValueError`` (exit 2) to a parse error at the index (exit 1).
The lines ``series(1) from 100000`` and ``series(1) from 100001`` were added
with the cap on series starts; the first is the output the code gave before
the cap. The text lines and the argument-error lines near the end of the
corpus were captured from the implementation that parsed each named call with
its own code. The last five lines came with the cap on patch indices and with
number tokens of decimal digits only; ``2²`` and ``①`` were reported before
as a literal of too many digits at 1:1. The four name lines after them came
with names of letters, decimal digits and ``_`` only; before, ``N²`` and
``N₂`` were unknown names (exit 2) and ``let x² = 1`` bound one. The five
precedence lines at the end were captured from the implementation that parsed
``+ -`` and ``*`` with one method each, before they shared one loop.
"""

import dataclasses
import hashlib

from seqring import cli
from seqring.cli import Config, format_json, format_text, parse, run_statement

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
    # Argument errors of the named calls: a missing, extra or mistyped argument.
    ('patch(N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:9: expected at least one index:value override"}'),
    ('patch(N, 1)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:11: expected \':\'"}'),
    ('delay(N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:8: expected \',\'"}'),
    ('delay(N, 1.5)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:10: expected a delay length >= 0"}'),
    ('geom(N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:6: expected a number"}'),
    ('series(k) from', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:15: expected a start index >= 1"}'),
    ('cmp(N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:6: expected \',\'"}'),
    ('cmp(N, N, N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:9: expected \')\'"}'),
    ('classify(N, N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:11: expected \')\'"}'),
    ('st()', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:4: expected an expression"}'),
    ('deriv(1, 2)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:7: expected a function name or a lambda"}'),
    ('cont(sin)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:9: expected \',\'"}'),
    ('let x = cmp(N, N)', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:9: expected a quantity expression"}'),
    ('let delay = 1', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:1: expected a non-reserved binding name"}'),
    # The cap on patch indices; the first line is the output the code gave before the cap.
    ('patch(N, 3000000:1)', 0,
     '{"kind":"quantity","rendering":"patch(1*n^1*1^n, 3000000:1)","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('patch(N, 3000001:1)', 2,
     '{"kind":"error","operation":"patch","message":"SeqRingError"}'),
    # Digits that int() rejects are no number tokens; an Arabic-Indic 3 is one.
    ('2²', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:2: expected a valid token"}'),
    ('①', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:1: expected a valid token"}'),
    ('٣ + 1', 0,
     '{"kind":"quantity","rendering":"4*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    # Names continue with letters, decimal digits and '_', so '²' and '₂' end them.
    ('N²', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:2: expected a valid token"}'),
    ('N₂', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:2: expected a valid token"}'),
    ('let x² = 1', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:6: expected a valid token"}'),
    ('let x1 = N + 1', 0,
     '{"kind":"let","name":"x1","rendering":"1*n^1*1^n + 1*n^0*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    # Precedence: ^ binds tightest and applies once, then unary -, then *, then + and -.
    ('-2^n', 0,
     '{"kind":"quantity","rendering":"-1*n^0*2^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('-N^2', 0,
     '{"kind":"quantity","rendering":"-1*n^2*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('2*-N', 0,
     '{"kind":"quantity","rendering":"-2*n^1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('N--N', 0,
     '{"kind":"quantity","rendering":"2*n^1*1^n","config":{"horizon":10000,"tol":"1/1000000"}}'),
    ('N^2^3', 1,
     '{"kind":"error","operation":"parse","message":"syntax error at 1:4: expected end of statement"}'),
]

# The text-mode line (format_text) of each statement above, from the same run.
TEXT = {
    'let a = 2*N - 1/2': 'a = 2*n^1*1^n - 1/2*n^0*1^n',
    'a + 3': '2*n^1*1^n + 5/2*n^0*1^n',
    '-a * N^2': '-2*n^3*1^n + 1/2*n^2*1^n',
    '1 - -n': '1*n^1*1^n + 1*n^0*1^n',
    '(N+1)^2 - N^2': '2*n^1*1^n + 1*n^0*1^n',
    '2^n - 3*(1/2)^n': '1*n^0*2^n - 3*n^0*1/2^n',
    '(-2/3)^N * n^-2': '1*n^-2*(-2/3)^n',
    '(1/2+1/2)^n': '1*n^0*1^n',
    '(2^70)^n': 'error in parse: syntax error at 1:7: expected a nonzero rational base for an exponential',
    '(0.5)^N': '1*n^0*1/2^n',
    'N^0 + 0^0': '2*n^0*1^n',
    'delay(N^2 + 2^n, 3)': 'patch(1/8*n^0*2^n + 1*n^2*1^n - 6*n^1*1^n + 9*n^0*1^n, 1:0, 2:0, 3:0)',
    'delay(a, 0)': '2*n^1*1^n - 1/2*n^0*1^n',
    'patch(N, 1:99, 7:0)': 'patch(1*n^1*1^n, 1:99, 7:0)',
    'patch(N^-1, 2:-1/2, 3:0.25)': 'patch(1*n^-1*1^n, 2:-1/2, 3:1/4)',
    'series(k^2 - 2*k + (1/2)^k) from 2': '1/3*n^3*1^n - 1/2*n^2*1^n - 5/6*n^1*1^n + 3/2*n^0*1^n - 1*n^0*1/2^n',
    'series(-k*(2/3)^k)': '-6*n^0*1^n + 2*n^1*2/3^n + 6*n^0*2/3^n',
    'series((2*k)^-1)': 'error in partial_sums: NegativePowerTerm',
    'series(1) from 0': 'error in parse: syntax error at 1:16: expected a start index >= 1',
    'geom(3/4)': '4*n^0*1^n - 4*n^0*3/4^n',
    'geom(1)': '1*n^1*1^n',
    'let b = series(k) * 2 - geom(1/2)': 'b = 1*n^2*1^n + 1*n^1*1^n - 2*n^0*1^n + 2*n^0*1/2^n',
    'b': '1*n^2*1^n + 1*n^1*1^n - 2*n^0*1^n + 2*n^0*1/2^n',
    'cmp(series(k), N^2)': 'less',
    'cmp(a, b)': 'less',
    'cmp((-1)^n, 0)': 'incomparable',
    'classify(geom(1/2))': 'finite 2',
    'classify(N^-1)': 'infinitesimal',
    'classify((-1)^n * N)': 'oscillating',
    'classify(-N)': 'inf-',
    'st(geom(1/2) + 1/3)': '7/3',
    'st(N)': 'error in standard_part: NotFinite',
    'infgreater(N^2, 5*N)': 'yes',
    'infgreater(N, N)': 'no',
    'close(N^-1, 0)': 'yes',
    'close(N, N+1)': 'no',
    'deriv(x -> x^3 - 2*x + -x^2, 1/2)': 'estimate -44559624938608499/19804719024720000 (~-2.24995, spread 2438972599/9902240100000000)',
    'deriv(t -> -(t - 1)^2 * t^-1, 2)': 'estimate -1194266861/1592329212 (~-0.750013, spread 49/796159806)',
    'deriv(sin, 0)': 'estimate 36893488085627550335/36893488147419103232 (~1, spread 1214110853/73786976294838206464)',
    'deriv(foo, 1)': 'error in execute: SeqRingError',
    'cont(x -> -(x - 1)^2 * x^-1, 2)': 'holds',
    'cont(x -> x^0 - 0.5*x, -1)': 'holds',
    'cont(step, 0)': 'fails (witness index 9951)',
    'assert cmp(N, N) == equal': 'assert passed: equal',
    'assert classify(N) == inf+': 'assert passed: inf+',
    'assert st(geom(1/2)) == 2': 'assert passed: 2',
    'assert st(1/2 - 1) == -1/2': 'assert passed: -1/2',
    'assert classify(N) == finite': 'assert failed: expected finite, got inf+',
    '(N)^n': 'error in parse: syntax error at 1:4: expected a nonzero rational base for an exponential',
    '(0^-1)^n': 'error in parse: syntax error at 1:7: expected a nonzero rational base for an exponential',
    '(N+1)^-1': 'error in pow: NonInvertible',
    'series((k+1)^-1)': 'error in pow: NonInvertible',
    'N^65': 'error in pow: SeqRingError',
    'N^-65': 'error in pow: SeqRingError',
    'series(k^65)': 'error in pow: SeqRingError',
    'delay(N, 100001)': 'error in delay: SeqRingError',
    'series(1) from 100000': ('patch(1*n^1*1^n - 99999*n^0*1^n, ' + ', '.join(f'{i}:0' for i in range(1, 99999)) + ')'),
    'series(1) from 100001': 'error in partial_sums: SeqRingError',
    'delay(N^-1, 2)': 'error in delay: NegativePowerDelay',
    'patch(N, 0:1)': 'error in parse: syntax error at 1:10: expected a patch index >= 1',
    'mystery + 1': 'error in execute: SeqRingError',
    'cmp(N + )': 'error in parse: syntax error at 1:9: expected an expression',
    'let N = 1': 'error in parse: syntax error at 1:1: expected a non-reserved binding name',
    'deriv(x -> y, 1)': "error in parse: syntax error at 1:12: expected the function variable 'x' or a rational",
    'series(N)': "error in parse: syntax error at 1:8: expected the summation variable 'k' or a rational",
    'patch(N)': 'error in parse: syntax error at 1:9: expected at least one index:value override',
    'patch(N, 1)': "error in parse: syntax error at 1:11: expected ':'",
    'delay(N)': "error in parse: syntax error at 1:8: expected ','",
    'delay(N, 1.5)': 'error in parse: syntax error at 1:10: expected a delay length >= 0',
    'geom(N)': 'error in parse: syntax error at 1:6: expected a number',
    'series(k) from': 'error in parse: syntax error at 1:15: expected a start index >= 1',
    'cmp(N)': "error in parse: syntax error at 1:6: expected ','",
    'cmp(N, N, N)': "error in parse: syntax error at 1:9: expected ')'",
    'classify(N, N)': "error in parse: syntax error at 1:11: expected ')'",
    'st()': 'error in parse: syntax error at 1:4: expected an expression',
    'deriv(1, 2)': 'error in parse: syntax error at 1:7: expected a function name or a lambda',
    'cont(sin)': "error in parse: syntax error at 1:9: expected ','",
    'let x = cmp(N, N)': 'error in parse: syntax error at 1:9: expected a quantity expression',
    'let delay = 1': 'error in parse: syntax error at 1:1: expected a non-reserved binding name',
    'patch(N, 3000000:1)': 'patch(1*n^1*1^n, 3000000:1)',
    'patch(N, 3000001:1)': 'error in patch: SeqRingError',
    '2²': 'error in parse: syntax error at 1:2: expected a valid token',
    '①': 'error in parse: syntax error at 1:1: expected a valid token',
    '٣ + 1': '4*n^0*1^n',
    'N²': 'error in parse: syntax error at 1:2: expected a valid token',
    'N₂': 'error in parse: syntax error at 1:2: expected a valid token',
    'let x² = 1': 'error in parse: syntax error at 1:6: expected a valid token',
    'let x1 = N + 1': 'x1 = 1*n^1*1^n + 1*n^0*1^n',
    '-2^n': '-1*n^0*2^n',
    '-N^2': '-1*n^2*1^n',
    '2*-N': '-2*n^1*1^n',
    'N--N': '2*n^1*1^n',
    'N^2^3': 'error in parse: syntax error at 1:4: expected end of statement',
}

AST_TYPES = {
    cli.Num, cli.Var, cli.Ref, cli.BinOp, cli.Neg, cli.Pow, cli.ExpBase, cli.Lambda,
    cli.Call, cli.Let, cli.Assertion,
}


def _nodes(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)
    elif dataclasses.is_dataclass(value):
        yield value
        for field in dataclasses.fields(value):
            yield from _nodes(getattr(value, field.name))


def test_golden_corpus_json():
    assert len(TEXT) == len(GOLDEN) and set(TEXT) == {text for text, _, _ in GOLDEN}
    config, env = Config(), {}
    for text, code, expected in GOLDEN:
        result, got = run_statement(text, env, config)
        assert (got, format_json(result, config)) == (code, expected), text
        assert format_text(result) == TEXT[text], text


# sha256 of the JSON line of statements whose prefix holds thousands of
# entries, captured from the implementation that evaluated the body at every
# prefix index to find where it was already 0.
CAP_SCALE_DIGESTS = {
    "delay(N^3*2^n + N, 14000)": "acc53d8b5f0f0a827d5ceedbc4ae14decba3bf6750db94c5d3de73848d1d8bfc",
    "delay(N^3 + N^2*(-1)^n + N + 5*(-1)^n, 100000)":
        "384cccc042be1fd37476ecb01817895458e169c28d6fafea783f5662a900e826",
    "series(k^16*2^k) from 13000": "0c8714a96c56ac27ab2809acd458fdfbe55e27c639e7ee17e34a01c3ad2f8a82",
    "delay(N*(3/2)^n + (2/3)^n, 7000)": "a38db8c4cfa2b4f75b804715f5a6f5351b81f98e5e4a6aea802732d2d16d702c",
}


def test_cap_scale_statements_keep_their_digests():
    config = Config()
    for text, digest in CAP_SCALE_DIGESTS.items():
        result, code = run_statement(text, {}, config)
        assert code == 0, text
        assert hashlib.sha256(format_json(result, config).encode()).hexdigest() == digest, text


def test_golden_corpus_covers_the_language():
    seen, calls = set(), set()
    for text, code, _ in GOLDEN:
        if code == 1:
            continue
        for node in _nodes(parse(text)):
            seen.add(type(node))
            if isinstance(node, cli.Call):
                calls.add(node.name)
    assert seen == AST_TYPES
    assert calls == set(cli.SIGNATURES)
