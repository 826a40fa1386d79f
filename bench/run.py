"""seqring benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload decide_batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; seqring is imported from ``src/``.
Each run is one single-threaded process and one client in a closed loop: the
next operation starts when the previous one has returned.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics.  ``--trace 1`` runs the workload's fixed traced set (head plus
``min_blocks`` blocks) once untraced and once under the tracer, checks that
both give byte-identical output, and reports the per-layer metrics.

Every output is checked against expected answers fixed before timing starts.
The last line of standard output is the JSON result; the line before it is
the run record (environment, seed, output digest, notes).  A table goes to
standard error.  The exit code is 0 when the run completed, whatever it found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A seed for claims, never used while the benchmark or a change is tuned.
HELD_OUT_SEED = 7919
SETUP_RUNS = 7
# A run times at least this many block operations, so p90 has ten samples beyond it.
MIN_OPS = 100

# The host is shared, and its speed for one process drifts by tens of percent
# within seconds; process CPU time drifts with it.  A fixed exact-arithmetic
# kernel that never touches seqring is timed between operations, at least
# every REFERENCE_EVERY_S, and each reported time is scaled by REFERENCE_S over
# the kernel's local time: times are given at the speed where the kernel takes
# REFERENCE_S.  On a 2-vCPU cloud VM this cut the seed-to-seed spread of
# ops_per_s and op_p50_ms from 15-30 % to under 7 %.  The raw figures stay in
# the run record.
REFERENCE_S = 0.004
REFERENCE_EVERY_S = 0.1

NOTES = {
    "loop": "closed loop, one client, one single-threaded process; workloads run one after another",
    "statistics": (
        "timings are medians and p90 over every block operation of a run, and a run reports the median "
        "of its set-up repeats; they replace the 'minimum of k repeats' proposed in ROADMAP item 1"
    ),
    "head": (
        "the head runs once, before the blocks; it counts in attempted, failed, fail_ratio and the "
        "digest, and its times are in head_ms, not in ops_per_s or the percentiles, where its weight "
        "would change with the number of blocks a run gets through"
    ),
    "not_workloads": (
        "the Tier-1 suite (about 42 s) and the demos (about 19 s) are tests and walkthroughs, not "
        "traffic: their time is dominated by the test oracles and by one demo, and they already gate "
        "correctness elsewhere"
    ),
    "fail_ratio": (
        "failed / attempted over the fixed set (head + min_blocks blocks) that every run completes; a "
        "failure is an error or a wrong answer.  The end-to-end metric is ok_ratio = 1 - fail_ratio, "
        "because a metric of the benchmark must never read 0"
    ),
    "correct": (
        "false on any wrong answer, and on any error except the known one: render raising ValueError "
        "on an answer the oracle marks unprintable (a coefficient past CPython's default limit of 4300 "
        "digits for str).  Known failures still count in failed and fail_ratio"
    ),
    "peak_rss": (
        "ru_maxrss of the run's process; rss_before_corpus_mb and rss_after_corpus_mb give the share "
        "of the interpreter, seqring and the generated corpus, before any operation runs"
    ),
    "digest": "sha256 of the output of head + min_blocks blocks; equal across runs of one seed and code",
    "reference_speed": (
        "times are scaled to the speed at which a fixed Fraction kernel, timed between operations, "
        "takes REFERENCE_S; raw_timings holds the unscaled figures"
    ),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------------
# Run record
# ------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: ") :]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seqring").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------
# Machine speed and set-up
# ------------------------------------------------------------------


def _reference_kernel() -> None:
    x = Fraction(0)
    table = {}
    for i in range(1, 400):
        x += Fraction(3, 7) ** (i % 61) * i
        table[(i % 17, i)] = str(x.numerator % 1000003)


class Speed:
    """Timings of the reference kernel, taken between timed operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> int:
        """Time the kernel (best of two back-to-back runs); returns the sample's index."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _reference_kernel()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= REFERENCE_EVERY_S

    def scale(self, before: int) -> float:
        """Factor for a time taken between samples ``before`` and ``before + 1``.

        The local kernel time is the mean of the three samples on each side,
        which follows the drift and averages out the jitter of single samples.
        """
        window = self.samples[max(0, before - 2) : before + 4]
        return REFERENCE_S / (sum(window) / len(window))


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import seqring and warm it up, scaled to reference speed."""
    speed = Speed()
    speed.sample()
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "warmup.py")], cwd=ROOT, capture_output=True, timeout=120
        )
        raw = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
        times.append(raw * speed.scale(speed.sample() - 1))
    return times


# ------------------------------------------------------------------
# Execution and checking
# ------------------------------------------------------------------


class Runner:
    """Runs operations the way their front end would: CLI text through run_batch's
    per-line body (one env shared across the corpus), library calls directly."""

    def __init__(self):
        from seqring import cli
        from workloads import serialize

        self.cli = cli
        self.serialize = serialize
        self.config = cli.Config(json_output=True)
        self.env: dict = {}
        self.line = 0

    def __call__(self, op) -> str:
        if op.text is not None:
            self.line += 1
            result, _ = self.cli.run_statement(op.text, self.env, self.config, self.line)
            return self.cli.format_json(result, self.config)
        try:
            return json.dumps(self.serialize(op.call()), separators=(",", ":"))
        except Exception as exc:  # counted as a failed operation
            return json.dumps({"error": type(exc).__name__, "message": str(exc)[:200]})


def check(op, output: str) -> str:
    """'ok', 'error' (no answer) or 'wrong' (an answer that disagrees with the oracle)."""
    data = json.loads(output)
    if data.get("kind") == "error" or "error" in data:
        return "error"
    kind, expected = op.expect
    if kind == "assert":
        good = (
            data.get("kind") == "assert"
            and data.get("verdict") == "pass"
            and data.get("expected") == expected
            and data.get("actual") == expected
        )
    elif kind == "values":
        try:
            form, overrides = oracle.read_quantity(data["rendering"])
            good = all(oracle.rendered_value(form, overrides, n) == v for n, v in expected.items())
        except (KeyError, ValueError):
            good = False
    else:
        good = data == expected
    return "ok" if good else "wrong"


class Phase:
    """Timed outcome of running a sequence of operations."""

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []  # scaled to reference speed by finish()
        # The head runs first; its operations are the first ``head`` entries.
        self.head = 0
        self.speed = Speed()
        self._before: list[int] = []
        self.outcomes = {"ok": 0, "error": 0, "wrong": 0}
        self.first_bad: list[str] = []
        # Wrong answers, and errors on operations whose answer the oracle can print.
        self.unexpected = 0
        # Texts of the failed operations of the fixed set, and (attempted, failed) over it.
        self.fixed_failures: list[str] = []
        self.fixed: tuple[int, int] | None = None
        self.cli_bytes = 0
        self.blocks = 0
        self.prefix_digest = ""
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def record(self, op, output: str, latency: float, before: int) -> None:
        self.raw.append(latency)
        self._before.append(before)
        if op.text is not None:
            self.cli_bytes += len(output)
        self._digest.update(output.encode() + b"\n")
        outcome = check(op, output)
        self.outcomes[outcome] += 1
        if outcome == "ok":
            return
        known = outcome == "error" and op.unprintable and "ValueError" in output
        if not known:
            self.unexpected += 1
        if len(self.first_bad) < 5:
            self.first_bad.append(f"{outcome}: {op.text or op.kind} -> {output[:160]}")
        if self.fixed is None and len(self.fixed_failures) < 50:
            self.fixed_failures.append(f"{'known' if known else 'unexpected'} {outcome}: {op.text or op.kind}")

    @property
    def failed(self) -> int:
        return self.outcomes["error"] + self.outcomes["wrong"]

    def close_fixed_set(self) -> None:
        self.prefix_digest = self.digest
        self.fixed = (len(self.raw), self.failed)

    def finish(self) -> None:
        self.speed.sample()
        self.latencies = [t * self.speed.scale(b) for t, b in zip(self.raw, self._before)]

    @property
    def block_latencies(self) -> list[float]:
        return self.latencies[self.head :]


def run_phase(workload, seconds: float | None, blocks: int, tracer=None) -> Phase:
    """Head, then whole blocks until ``seconds`` have passed (at least ``blocks``
    blocks and MIN_OPS operations), or exactly ``blocks`` blocks when ``seconds`` is None."""
    runner = Runner()
    phase = Phase()
    speed = phase.speed
    clock = time.perf_counter
    start = clock()
    op_id = 0
    before = speed.sample()

    def run(op):
        nonlocal op_id, before
        op_id += 1
        if speed.due():
            before = speed.sample()
        t0 = clock()
        out = runner(op) if tracer is None else tracer.operation(op_id, lambda: runner(op))
        phase.record(op, out, clock() - t0, before)

    for op in workload.head:
        run(op)
    phase.head = len(workload.head)
    while True:
        if phase.blocks == blocks:
            phase.close_fixed_set()
            if seconds is None:
                break
        if phase.blocks >= blocks and len(phase.raw) - phase.head >= MIN_OPS and clock() - start >= seconds:
            break
        for op in workload.blocks[phase.blocks % len(workload.blocks)]:
            run(op)
        phase.blocks += 1
    phase.finish()
    return phase


# ------------------------------------------------------------------
# Metrics
# ------------------------------------------------------------------


def _timings(latencies: list[float]) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def _rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setup: list[float]) -> dict:
    attempted, failed = phase.fixed
    return {
        "setup_s": (statistics.median(setup), "s"),
        **_timings(phase.block_latencies),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }


def _print_result(correct: bool, phase: Phase, metrics: dict, record: dict) -> None:
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}", file=sys.stderr)
    attempted, failed = phase.fixed
    print(f"{'fail_ratio':<{width}}  {failed / attempted:>14.6g}  ratio", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    # attempted and failed cover the fixed set, so that they do not drift with
    # the number of blocks a run gets through; the operations past it are
    # checked too, and any unexpected failure among them sets correct to false.
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "seqring" / "__init__.py").is_file():
        print(f"seqring sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    setup = measure_setup()
    import warmup

    warmup.warm_up()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rss_before_corpus = _rss_mb()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    rss_after_corpus = _rss_mb()

    record = {
        "workload": workload.name,
        "why": workloads.WHY[workload.name],
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "setup_runs_s": setup,
        "rss_before_corpus_mb": rss_before_corpus,
        "rss_after_corpus_mb": rss_after_corpus,
        "notes": NOTES,
    }

    if args.trace == 0:
        phase = run_phase(workload, args.seconds, workload.min_blocks)
        metrics = end_to_end(phase, setup)
        record.update(_phase_record(phase))
        _print_result(phase.unexpected == 0, phase, metrics, record)
        return 0

    import seqring
    from tracer import Tracer

    plain = run_phase(workload, None, workload.min_blocks)
    tracer = Tracer()
    cache_before = seqring.bernoulli_numbers.cache_info()
    tracer.install()
    try:
        traced = run_phase(workload, None, workload.min_blocks, tracer)
    finally:
        tracer.uninstall()
    cache_after = seqring.bernoulli_numbers.cache_info()
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    extra = {
        "cli.output.bytes": (traced.cli_bytes, "bytes"),
        "series.bernoulli.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "trace.overhead_ratio": (sum(traced.latencies) / sum(plain.latencies), "ratio"),
    }
    metrics = tracer.metrics(extra)
    spans_path = BENCH / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    same = plain.digest == traced.digest
    record.update(_phase_record(traced))
    record.update({"untraced_digest": plain.digest, "traced_matches_untraced": same, "spans": str(spans_path.relative_to(ROOT))})
    correct = same and plain.unexpected == 0 and traced.unexpected == 0
    _print_result(correct, traced, metrics, record)
    return 0


def _phase_record(phase: Phase) -> dict:
    return {
        "ops": len(phase.latencies),
        "head_ms": [t * 1e3 for t in phase.latencies[: phase.head]],
        "blocks": phase.blocks,
        "measured_s": sum(phase.raw),
        "raw_timings": {k: v for k, (v, _) in _timings(phase.raw[phase.head :]).items()},
        "reference_s": {
            "median": statistics.median(phase.speed.samples),
            "min": min(phase.speed.samples),
            "max": max(phase.speed.samples),
            "samples": len(phase.speed.samples),
        },
        "outcomes": phase.outcomes,
        "unexpected_failures": phase.unexpected,
        "fixed_set": {"attempted": phase.fixed[0], "failed": phase.fixed[1], "failures": phase.fixed_failures},
        "first_failures": phase.first_bad,
        "output_digest": phase.prefix_digest,
        "cli_output_bytes": phase.cli_bytes,
    }


if __name__ == "__main__":
    sys.exit(main())
