"""torquiv benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload certify|geometry|classify \\
        --seed N --seconds S --trace 0|1

Run it from anywhere; the library is imported from the `src/` of the
checkout that holds this directory.  Set-up imports `torquiv`, builds the
seeded deck of jobs and writes the command-line input files; it is
repeated `SETUP_REPEATS` times, each with a fresh import, and `setup_s` is
the median.  The timed loop then runs whole rounds of the deck, one job at
a time, until at least `--seconds` of job time and `MIN_JOBS` jobs have
passed.

The fixed kernel of `hostspeed.py` runs after every job and between
set-ups, and every reported time is scaled by it to reference seconds, so
that a host that slows down for a while does not read as a slower
program; the unscaled wall-clock figures are printed beside them.  Job
time is counted in reference seconds too, so a run covers the same rounds
of its deck however busy the host is (up to `MAX_SLOWDOWN` times
`--seconds` of wall clock).

Every job's output is checked outside the timed region; on the default
seed it is also compared with the SHA-256 digest recorded in
`digests.json` (rewrite it with `--record-digests` when outputs change on
purpose).

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` every job of the same loop also runs once under the span
tracer of `tracing.py`, next to its untraced run; the last line carries
the per-layer metrics and `trace.overhead_ratio`, the traced job time over
the untraced job time of the same jobs, and the hot-layer check: the
share of library self time of the workload's hot layers, that of the
largest other layer, and `trace.hot_layer_ok` (1 when the hot layers lead,
else 0; recorded, not a failure).  Spans are written to
`.perfbench_out/traces/`.  The lines before the last one repeat every
metric by name with its unit and sample count, and the failure ratio with
its counts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from layers import HOT_LAYERS, per_layer_metrics  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0  # the run length BENCHMARK.json declares
MAX_SLOWDOWN = 3.0  # wall-clock job time may reach this multiple of --seconds
SETUP_REPEATS = 5
SETUP_SAMPLES = 5  # host-speed samples between two set-ups
MIN_JOBS = 100  # so that ten samples lie beyond the reported 90th percentile
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help="run every job of the default seed's deck once and store its output digest",
    )
    return p.parse_args(argv)


def _import_fresh():
    """Import torquiv from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "torquiv" or m.startswith("torquiv.")]:
        del sys.modules[name]
    tq = importlib.import_module("torquiv")
    importlib.import_module("torquiv.cli")
    importlib.import_module("torquiv.corpus")
    return tq


def _setup(cls, seed: int, work: Path, host: HostSpeed):
    """Repeat set-up; return (median reference seconds, median wall
    seconds, workload, deck) with the workload and deck of the last one."""
    intervals = []
    host.sample(SETUP_SAMPLES)
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        tq = _import_fresh()
        workload = cls(tq, ROOT, work / f"setup{i}", seed)
        deck = workload.build(cls.ROUNDS)
        intervals.append((start, time.perf_counter()))
        host.sample(SETUP_SAMPLES)
    times = [host.scale(start, end) for start, end in intervals]
    walls = [end - start for start, end in intervals]
    return statistics.median(times), statistics.median(walls), workload, deck


def _digest(output: str) -> str:
    """First 64 bits of the output's SHA-256, plenty to tell outputs apart."""
    return hashlib.sha256(output.encode()).hexdigest()[:16]


class Loop:
    """The closed loop: one job at a time, whole rounds, timed per job.

    `latencies` are in reference seconds (see `hostspeed.py`), final
    once `measure` returns; `walls` are the same jobs' unscaled
    wall-clock seconds."""

    def __init__(self, workload, deck, expected: dict | None, host: HostSpeed):
        self.workload = workload
        self.deck = deck
        self.expected = expected
        self.host = host
        self.intervals: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.failures: list[str] = []
        self.jobs = 0
        self.rounds = 0
        self.wall = 0.0
        self.reference = 0.0
        self.traced_wall = 0.0

    def run_job(self, job, tracer=None, seq=0):
        """(start, end, output or None, error message or None) of one job."""
        span = tracer.begin_job(seq) if tracer else None
        start = time.perf_counter()
        try:
            output, error = self.workload.run(job), None
        except Exception as exc:  # a failed job is counted, not fatal
            output, error = None, f"{job.kind} {job.key}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if span is not None:
            tracer.end_job(span)
        return start, end, output, error

    def measure(self, seconds: float, tracer: Tracer | None = None) -> None:
        """Run whole rounds until `seconds` of job time, in reference
        seconds, and `MIN_JOBS` jobs have passed.  With a tracer, every
        job also runs once traced, right before or after its untraced run
        (alternating, so neither side always finds the caches warm), and
        must print the same."""
        rounds = 0
        self.host.sample()
        while (
            self.reference < seconds and self.wall + self.traced_wall < MAX_SLOWDOWN * seconds
        ) or self.jobs < MIN_JOBS:
            for job in self.deck[rounds % len(self.deck)]:
                traced_first = tracer is not None and self.jobs % 2 == 1
                if traced_first:
                    traced = self.run_traced(job, tracer)
                start, end, output, error = self.run_job(job)
                self.host.sample()
                if tracer is not None and not traced_first:
                    traced = self.run_traced(job, tracer)
                self.wall += end - start
                self.jobs += 1
                self.intervals.append((start, end))
                self.walls.append(end - start)
                self.reference += self.host.scale(start, end)  # from the samples so far
                digest = _digest(output) if output is not None else ""
                if error is None:
                    error = self.workload.check(job, output)
                if error is None and self.expected is not None:
                    if self.expected.get(job.key) != digest:
                        error = f"{job.kind} {job.key}: output digest differs from the recorded one"
                if error is None and tracer is not None and traced != digest:
                    error = f"{job.kind} {job.key}: traced output differs from the untraced one"
                if error is not None:
                    self.failures.append(error)
            rounds += 1
        self.rounds = rounds
        self.host.sample(SETUP_SAMPLES)  # so that the last jobs have samples after them too
        self.latencies = [self.host.scale(start, end) for start, end in self.intervals]
        self.reference = sum(self.latencies)

    def run_traced(self, job, tracer: Tracer) -> str:
        """Run one job under the tracer; return its output digest."""
        tracer.install(sys.modules["torquiv"])
        try:
            start, end, output, _error = self.run_job(job, tracer, self.jobs)
        finally:
            tracer.uninstall()
        self.traced_wall += end - start
        if output is None:
            return ""
        tracer.counts["cli.main.bytes_out"] += self.workload.bytes_out(output)
        return _digest(output)


def _record_digests(name: str, workload, deck) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[name] = {}
    for job in (job for round_ in deck for job in round_):
        output = workload.run(job)
        error = workload.check(job, output)
        if error is not None:
            raise SystemExit(f"not recording: {error}")
        table[name][job.key] = _digest(output)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(table[name])} digests for {name}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "torquiv" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"no torquiv checkout around {HERE}: need src/torquiv and corpus/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: Path) -> int:
    cls = WORKLOADS[args.workload]
    host = HostSpeed()
    setup_s, setup_wall, workload, deck = _setup(cls, args.seed, work, host)
    if args.record_digests:
        _record_digests(args.workload, workload, deck)
        return 0
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())[args.workload]

    loop = Loop(workload, deck, expected, host)
    tracer = Tracer() if args.trace else None
    loop.measure(args.seconds, tracer)
    n = len(loop.latencies)
    print(f"workload {args.workload} seed {args.seed}: {n} jobs in {loop.rounds} rounds, "
          f"{loop.reference:.3f} reference s ({loop.wall:.3f} wall-clock s) of job time; "
          f"digests {'checked' if expected else 'not checked'}")
    print(f"host speed: kernel median {statistics.median(host.seconds) * 1e3:.3f} ms "
          f"over {len(host.seconds)} samples, reference {REFERENCE_S * 1e3:.3f} ms")

    if args.trace:
        metrics = _traced(args, loop, tracer)
    else:
        ok = n - len(loop.failures)
        metrics = {
            "setup_s": (setup_s, setup_wall, "s", SETUP_REPEATS),
            "jobs_per_s": (ok / loop.reference, ok / loop.wall, "1/s", n),
            "job_p50_ms": (
                statistics.median(loop.latencies) * 1e3,
                statistics.median(loop.walls) * 1e3,
                "ms",
                n,
            ),
            "job_p90_ms": (
                tail_percentile(loop.latencies, 0.9) * 1e3,
                tail_percentile(loop.walls, 0.9) * 1e3,
                "ms",
                n,
            ),
        }
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, rss, "MB", 1)
        print("  metric       reference    wall-clock unit samples")
        for name, (value, wall, unit, samples) in metrics.items():
            print(f"  {name:<12} {value:12.4f} {wall:12.4f} {unit:<4} samples={samples}")
        print(f"  {'fail_ratio':<12} {len(loop.failures) / n:12.4f} 1    failed={len(loop.failures)} attempted={n}")
        metrics = {k: (v, u) for k, (v, _w, u, _s) in metrics.items()}
    for failure in loop.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not loop.failures,
        "attempted": n,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(args, loop: Loop, tracer: Tracer) -> dict:
    units = {name: unit for name, unit, _better in per_layer_metrics()}
    hot = HOT_LAYERS[args.workload]
    values = tracer.metrics(loop.traced_wall / loop.wall, hot)
    metrics = {k: (v, units[k]) for k, v in values.items()}
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl.gz")

    layers = tracer.layer_self_seconds()
    total = sum(layers.values())
    print(f"traced {len(tracer.start)} spans; self time by layer (share of {total:.3f} s):")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:10.4f} s {seconds / total:7.1%}")
    hot_share, rival, rival_share = tracer.hot_layer_shares(hot)
    verdict = "PASS" if values["trace.hot_layer_ok"] else "FAIL"
    print(f"hot-layer check {verdict}: {'+'.join(hot)} {hot_share:.1%} of library self time "
          f"vs next layer {rival} {rival_share:.1%}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.6f} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
