"""The benchmark tracer (``bench/tracer.py``) binds every name it wraps.

``Tracer.install`` looks up each function of its ``FUNCTIONS`` table and
each method of ``METHODS`` and ``COUNTED`` by name, so a renamed or removed
one (``eventual_sign``, ``classify``, ``infinitely_close``, ...) fails here.
The tracer is loaded from its file, installed in this process, exercised on
a few statements and uninstalled in a ``finally``.
"""

import importlib.util
from pathlib import Path

import seqring.calculus as calculus
import seqring.cli as cli
import seqring.quantity as quantity
from seqring.cli import Config

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("seqring_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_runs_and_uninstalls():
    tracer_module = _load_tracer()
    owners = [*tracer_module.MODULES, quantity.ExpPoly, quantity.Quantity, calculus.RealFunction]
    before = [dict(vars(owner)) for owner in owners]
    tracer, config = tracer_module.Tracer(), Config()
    try:
        tracer.install()
        for text, want in (
            ("classify(N^2 - 3*N)", '"inf+"'),
            ("close(geom(2/3), 3)", '"yes"'),
            ("cmp(N, N + N^-1)", '"less"'),
        ):
            result, code = cli.run_statement(text, {}, config)
            assert code == 0, (text, result.fields)
            assert want in cli.format_json(result, config), text
    finally:
        tracer.uninstall()
    assert tracer.calls[tracer_module.EXACT] >= 3
    assert tracer.calls["cli.parse"] == 3
    assert [dict(vars(owner)) for owner in owners] == before
