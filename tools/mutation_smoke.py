"""Mutation smoke: each listed mutant of seqring must be killed by its test.

For each mutant (file, original text, mutated text, test node id) it copies
``src/`` to a temporary directory, requires the original text to occur there
exactly once, and runs the one test against that copy twice: unmutated it
must pass (pytest exit code 0), and with the text replaced it must fail
(exit code 1).  Each run first checks that ``seqring`` is imported from the
copy, not from an installed or in-tree package.  Standard library only, apart
from the pytest that runs the tests.

    python tools/mutation_smoke.py

Exit code 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under the repo root, original text, mutated text, test node id)
MUTANTS = [
    (
        "src/seqring/order.py",
        "rows and _versus(rows[0], _ONE) > 0 else 0",
        "rows and _versus(rows[0], _ONE) >= 0 else 0",
        "tests/test_order.py::test_classify_a_constant_parity_beside_a_growing_one_oscillates",
    ),
    (
        "src/seqring/order.py",
        "    if c1 == 0:\n",
        "    if c1 == 1:\n",
        "tests/test_order.py::test_proportionality_with_a_unit_leading_coefficient",
    ),
    (
        "src/seqring/order.py",
        "while n <= horizon and n in patch:",
        "while n < horizon and n in patch:",
        "tests/test_order.py::test_lazy_small_holds_when_every_wrong_parity_index_to_the_horizon_is_an_override",
    ),
    (
        "src/seqring/order.py",
        "tail_mag < tol or",
        "tail_mag <= tol or",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[tail_at_tol]",
    ),
    (
        "src/seqring/order.py",
        "tail_mag * 2 <= early_mag",
        "tail_mag * 2 < early_mag",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[tail_at_half_early]",
    ),
    (
        "src/seqring/order.py",
        "tail_mag < Fraction(1, 100)",
        "tail_mag <= Fraction(1, 100)",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[tail_at_one_hundredth]",
    ),
    (
        "src/seqring/order.py",
        "max(tail) - min(tail) < tol",
        "max(tail) - min(tail) <= tol",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[spread_at_tol]",
    ),
    (
        "src/seqring/order.py",
        "all(v > bound for v in tail)",
        "all(v >= bound for v in tail)",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[tail_at_bound]",
    ),
    (
        "src/seqring/order.py",
        "all(v < -bound for v in tail)",
        "all(v <= -bound for v in tail)",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[tail_at_minus_bound]",
    ),
    (
        "src/seqring/order.py",
        "(abs(v) for v in early), default=0)",
        "(abs(v) for v in early), default=1)",
        "tests/test_order.py::test_classify_lazy_at_each_threshold[no_early_window]",
    ),
]

# Exit code of a run whose seqring does not import, or not from the copy.
_WRONG_IMPORT = 10

# Imports seqring, checks that it comes from the copy (argv[1]), then runs
# pytest on one node id (argv[2]) in the same process, so the tests use that
# module.
_RUN = f"""
import sys
from pathlib import Path
try:
    import seqring
except Exception as exc:
    print("seqring does not import:", repr(exc), file=sys.stderr)
    sys.exit({_WRONG_IMPORT})
if not Path(seqring.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    print("seqring imported from", seqring.__file__, file=sys.stderr)
    sys.exit({_WRONG_IMPORT})
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]]))
"""


def run_test(src: Path, test: str) -> int:
    """pytest's exit code for the one test, with seqring imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _RUN, str(src), test],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if done.returncode not in (0, 1):
        print(done.stdout)
    return done.returncode


def check(file: str, original: str, mutated: str, test: str) -> str | None:
    """None when the test passes on the copy and fails on the mutant, else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = Path(tmp) / file
        text = target.read_text()
        count = text.count(original)
        if count != 1:
            return f"the original text occurs {count} times in {file}"
        code = run_test(src, test)
        if code != 0:
            return f"the test does not pass unmutated (pytest exit code {code})"
        target.write_text(text.replace(original, mutated))
        code = run_test(src, test)
        if code != 1:
            return f"the mutated run exits with code {code}, not 1: the mutant survives"
    return None


def main() -> int:
    survivors = 0
    for file, original, mutated, test in MUTANTS:
        problem = check(file, original, mutated, test)
        print(f"{'FAIL' if problem else 'killed'}: {file}: {original.strip()!r} -> {mutated.strip()!r} by {test}")
        if problem:
            print(f"  {problem}")
            survivors += 1
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
