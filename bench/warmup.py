"""The set-up a fresh process pays before its first statement.

Imports seqring, fills the Bernoulli cache up to the degree cap and runs one
small statement through each CLI command path.  ``run.py`` times this file
in fresh interpreters for ``setup_s`` and calls ``warm_up`` in-process before
it measures anything.
"""

import sys
from pathlib import Path

STATEMENTS = (
    "let w = series(k^2) + (1/2)^n",
    "assert cmp(w, N^3) == less",
    "assert classify(geom(1/2)) == finite",
    "patch(delay(2^n, 3), 1:1)",
)


def warm_up() -> None:
    import seqring
    from seqring import cli

    for j in range(seqring.DEGREE_CAP + 1):
        seqring.bernoulli_numbers(j)
    config = cli.Config(json_output=True)
    env: dict = {}
    for text in STATEMENTS:  # outcomes are checked by the timed run, not here
        cli.format_json(cli.run_statement(text, env, config)[0], config)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up()
