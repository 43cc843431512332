"""surflink benchmark: one command, four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One client drives the program in a closed loop from this single process
(the cli workload runs one ``surflink`` subprocess at a time).  Set-up
builds a seeded pool of distinct items; the loop runs the whole pool in
rounds, each in a fresh seeded order, until at least S seconds have passed
and every item has run at least MIN_ROUNDS times.  Every run of every item
is checked.  The host is shared and its speed drifts, so every time is
scaled by a gauge of the host's speed read next to it (class Gauge), and
an item's latency is the median of its scaled runs (see
perfbench/README.md).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced rounds with rounds in which every layer boundary is
wrapped, and prints the per-layer metrics; the ratio of the two halves'
summed item latencies is the tracing overhead.

The last line of standard output is the JSON result; the lines before it
record the environment, sample counts, check failures and, when tracing,
the per-layer self-time accounting and the ROADMAP baseline cross-check.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3  # runs of every item before a run may end
HARD_CAP_S = 100.0  # a run ends after this even when MIN_ROUNDS are not done
# Set-ups per run: SETUP_REPEATS, or MIN_SETUPS once SETUP_BUDGET_S of
# set-up time has passed.
SETUP_REPEATS = 5
MIN_SETUPS = 3
SETUP_BUDGET_S = 5.0

# ROADMAP "Baseline" table: op -> {(g, c): seconds}, single hand-timed runs.
ROADMAP_BASELINE = {
    "generator.generate_fal": {(2, 25): 0.04, (2, 50): 0.13, (3, 100): 0.57, (2, 200): 1.47},
    "fal_diagram.check_weakly_prime": {(2, 25): 0.006, (2, 50): 0.022, (3, 100): 0.085, (2, 200): 0.259},
    "fal_diagram.diagram_canonical_form": {(2, 25): 0.017, (2, 50): 0.075, (3, 100): 0.293},
    "bowtie.prism_triangulation": {(2, 25): 0.022, (2, 50): 0.040, (3, 100): 0.082, (2, 200): 0.143},
    "bowtie.decompose": {(2, 25): 0.001, (2, 50): 0.001, (3, 100): 0.003, (2, 200): 0.004},
    "fal_diagram.validate_fal": {(2, 25): 0.001, (2, 50): 0.001, (3, 100): 0.003, (2, 200): 0.004},
}


def log(line: str = "") -> None:
    print(line, flush=True)


def import_probe() -> None:
    """Start a fresh interpreter that imports the whole package: the part
    of set-up that every user of the program pays."""
    # Captured output makes the wait select on the pipes; a bare timeout
    # would poll with sleeps of up to 50 ms and blur the time.
    subprocess.run(
        [sys.executable, "-c", "import surflink.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=60,
        capture_output=True,
    )


def reference_loop() -> float:
    """Time a fixed ~1 ms pure-Python task that does not touch the program.
    Like the program, it builds tuples, lists and a dict and sorts, so
    contention for the core and its caches slows it as it slows the program."""
    start = time.perf_counter()
    table = {}
    for i in range(1600):
        key = (i % 61, i // 61)
        table[key] = [i, key, str(i)]
    order = sorted(table, key=lambda k: (k[1], k[0]))
    sum(len(table[k][2]) for k in order)
    return time.perf_counter() - start


def empty_interpreter() -> float:
    """Time the start and exit of an interpreter that runs nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60, capture_output=True)
    return time.perf_counter() - start


class Gauge:
    """Readings of the host's current speed, taken between items.

    The host is shared, and its speed drifts by a third or more in phases
    of seconds to minutes, longer than a run.  A time measured over some
    span is normalised to the speed at which the probe takes `ref`
    seconds: it is multiplied by `ref` over the median reading taken within
    `window` seconds of the span (at least the three nearest readings)."""

    def __init__(self, probe, reads: int, every: float, window: float, ref: float) -> None:
        self.probe, self.reads, self.every, self.window, self.ref = probe, reads, every, window, ref
        self.times: list[float] = []
        self.values: list[float] = []

    def read(self, n: int = 1) -> None:
        for _ in range(n):
            value = min(self.probe() for _ in range(self.reads))
            self.times.append(time.perf_counter())
            self.values.append(value)

    def read_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.read()

    def normalise(self, seconds: float, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.window)
        hi = bisect.bisect_right(self.times, end + self.window)
        lo, hi = max(0, min(lo, hi - 3)), max(hi, lo + 3)
        return seconds * self.ref / statistics.median(self.values[lo:hi])

    def describe(self) -> str:
        return (f"{self.probe.__name__}: {len(self.values)} readings, median {1e3 * statistics.median(self.values):.4g} ms, "
                f"best {1e3 * min(self.values):.4g} ms, worst {1e3 * max(self.values):.4g} ms; "
                f"scaled to {1e3 * self.ref:g} ms")


def cpu_gauge() -> Gauge:
    """The gauge of in-process work: a reading, the faster of two runs of
    the reference loop, every 50 ms; a time is scaled by the readings
    within 1 s of it."""
    return Gauge(reference_loop, 2, 0.05, 1.0, 1e-3)


def spawn_gauge() -> Gauge:
    """The gauge of process start-up, for subprocesses: a reading, one
    empty interpreter, every 0.3 s; a time is scaled by the readings
    within 3 s of it."""
    return Gauge(empty_interpreter, 1, 0.3, 3.0, 0.05)


@dataclass
class Run:
    """Every item run's timing, the run counts, and the checks that failed."""

    timings: list = field(default_factory=list)  # (item, start, end) per item run
    runs: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    failed: int = 0
    rounds: int = 0
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    def latencies(self, gauge: Gauge | None = None) -> list:
        """Per item, the median over its runs of its latency, normalised by
        `gauge` when one is given."""
        per_item = [[] for _ in self.runs]
        for i, start, end in self.timings:
            per_item[i].append(gauge.normalise(end - start, start, end) if gauge else end - start)
        return [statistics.median(v) for v in per_item if v]


def run_round(wl, state, run: Run, rng: random.Random, gauge: Gauge, tracer=None, on_item=None, stop_at=None) -> None:
    """Run every item of the pool once, in a shuffled order, checking each
    output and reading the gauge between items; stop early at `stop_at`.
    The items are fetched afresh so that a tracer installed before the
    round sees every call."""
    items = wl.items(state)
    if not run.runs:
        run.runs = [0] * len(items)
    order = list(range(len(items)))
    rng.shuffle(order)
    start = time.perf_counter()
    for i in order:
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        gauge.read_if_due()
        label, fn = items[i]
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                index = len(tracer.spans)
                with tracer.span("item", label):
                    bad = fn()
                if on_item is not None:
                    on_item(index)
            else:
                bad = fn()
        except Exception as exc:  # a failed item must not stop the run
            bad = [f"raised_{type(exc).__name__}"]
            if sum(run.failures.values()) < 3:
                traceback.print_exc(file=sys.stderr)
        run.timings.append((i, t0, time.perf_counter()))
        run.runs[i] += 1
        if bad:
            run.failed += 1
            run.failures.update(bad)
    gauge.read()
    run.wall += time.perf_counter() - start
    run.rounds += 1


def run_rounds(wl, state, seed: int, seconds: float, rounds: int | None, gauge: Gauge) -> Run:
    """Closed loop over the pool until `rounds` rounds have run or, without
    a count, until `seconds` have passed and MIN_ROUNDS rounds are done; a
    round may stop part-way once both hold, or after HARD_CAP_S."""
    run, rng = Run(), random.Random(seed)
    start = time.perf_counter()
    while rounds is None or run.rounds < rounds:
        if rounds is not None or run.rounds == 0:
            stop_at = None
        else:
            stop_at = start + (seconds if run.rounds >= MIN_ROUNDS else HARD_CAP_S)
        run_round(wl, state, run, rng, gauge, stop_at=stop_at)
        elapsed = time.perf_counter() - start
        if rounds is None and (elapsed >= HARD_CAP_S or (elapsed >= seconds and run.rounds >= MIN_ROUNDS)):
            break
    return run


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_runs(wl, state, seed: int, seconds: float, rounds: int | None, workload: str, gauge: Gauge):
    """Alternate untraced and traced rounds, after one untraced warm-up
    round, until `seconds` have passed (or `rounds` traced rounds have
    run).  Running the pair back to back puts both halves in the same phase
    of the host's load.

    Returns (tracer, per-item cli parts, untraced run, traced run)."""
    import tracer as tr

    tracer = tr.Tracer()
    cli_parts = {"interpreter_s": 0.0, "import_s": 0.0, "command_s": 0.0}
    on_item = None
    child = None
    if workload == "cli":
        spans_file = WORK / f"child-{os.getpid()}.json"
        child = [sys.executable, str(HERE / "cli_child.py"), str(spans_file)]

        def on_item(index):
            # The child process becomes a span under the item; its own time
            # outside the bootstrap is interpreter start-up and exit.
            data = json.loads(spans_file.read_text())
            start, end = state["last_process"]
            tracer.spans.append(["cli.process", start, end, index, None])
            tracer.merge(data, len(tracer.spans) - 1)
            cli_parts["import_s"] += data["import_s"]
            cli_parts["command_s"] += data["command_s"]
            cli_parts["interpreter_s"] += (end - start) - (data["t1"] - data["t0"])
            tracer.add("cli.bytes_out", state["last_bytes_out"])

    rng = random.Random(seed)

    def run_traced():
        if child is not None:
            wl.child = child
        else:
            tracer.install()
        try:
            run_round(wl, state, traced, rng, gauge, tracer, on_item)
        finally:
            tracer.uninstall()
            wl.child = None

    untraced, traced = Run(), Run()
    run_round(wl, state, untraced, rng, gauge)  # warm-up: first-call costs stay out of the traced rounds
    start = time.perf_counter()
    while True:
        # Alternate which half goes first, so neither always finds the
        # other's leftovers in the caches.
        halves = [lambda: run_round(wl, state, untraced, rng, gauge), run_traced]
        if traced.rounds % 2:
            halves.reverse()
        for half in halves:
            half()
        if traced.rounds == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            break
    if child is not None:
        spans_file.unlink(missing_ok=True)
    for key in cli_parts:
        cli_parts[key] /= traced.attempted
    return tracer, cli_parts, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes, one round")
    args = parser.parse_args(argv)

    if not (SRC / "surflink" / "__init__.py").is_file():
        print(f"error: no surflink package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    rounds = 1 if tiny else None
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"

    # Items run with the gauge of the work they do; a set-up is a fresh
    # interpreter, scaled by the spawn gauge, plus building the inputs.
    cpu, spawn = cpu_gauge(), spawn_gauge()
    gauge = spawn if wl.spawns else cpu
    setups = []
    try:
        cpu.read(5)
        spawn.read(3)
        wanted = 1 if tiny or args.trace else SETUP_REPEATS
        begin = time.perf_counter()
        while len(setups) < wanted and (len(setups) < MIN_SETUPS or time.perf_counter() - begin < SETUP_BUDGET_S):
            t0 = time.perf_counter()
            import_probe()
            t1 = time.perf_counter()
            state = wl.setup(args.seed, args.scale, workdir)
            t2 = time.perf_counter()
            cpu.read(5)
            spawn.read(3)
            setups.append(spawn.normalise(t1 - t0, t0, t1) + gauge.normalise(t2 - t1, t1, t2))
        if args.trace == 0:
            run = run_rounds(wl, state, args.seed, args.seconds, rounds, gauge)
            latencies = run.latencies(gauge)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "items_per_s": (len(latencies) / sum(latencies), "items/s"),
                "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                "item_p90_ms": (1e3 * quantile(latencies, 0.9), "ms"),
                "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
            }
        else:
            tracer, cli_parts, untraced, run = traced_runs(
                wl, state, args.seed, args.seconds, rounds, args.workload, gauge
            )
            import tracer as tr

            overhead = sum(run.latencies(gauge)) / sum(untraced.latencies(gauge)) - 1.0
            metrics = tr.per_layer_metrics(tracer, run.attempted, overhead, cli_parts)
        probe = wl.defect_probe(args.seed) if hasattr(wl, "defect_probe") and not tiny else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failures = run.attempted, run.failed, run.failures
    if args.trace:  # the untraced rounds were checked too
        attempted, failed = attempted + untraced.attempted, failed + untraced.failed
        failures = failures + untraced.failures
    raw = run.latencies()
    log(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}  scale: {args.scale}")
    log(f"environment: python {platform.python_version()} ({platform.python_implementation()}), "
        f"nproc {os.cpu_count()}, {platform.platform()}, machine {platform.machine()}")
    log(f"loop: closed, 1 client, {len(raw)} distinct items, {run.rounds} rounds, "
        f"{min(run.runs)}-{max(run.runs)} runs per item, {attempted} item runs in {run.wall:.3f} s")
    log(f"set-ups: {len(setups)}, scaled {', '.join(f'{s:.4f}' for s in setups)} s")
    for g in (cpu, spawn):
        log(f"gauge {g.describe()}" + ("; the items' gauge" if g is gauge else ""))
    log(f"as measured, unscaled: items_per_s {len(raw) / sum(raw):.6g} items/s, item_p50_ms "
        f"{1e3 * statistics.median(raw):.6g} ms, item_p90_ms {1e3 * quantile(raw, 0.9):.6g} ms")
    log(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6f} ratio (failed item runs / attempted item runs)")
    for name, n in sorted(failures.items()):
        log(f"  check failed: {name} x{n}")
    if probe is not None:
        log(f"known defect probe (ROADMAP item 3, untimed, not in the counts above): {probe[0]} of {probe[1]} "
            "mapping-torus specs with 2g-letter twist words fail the certificate check")
    if args.trace == 0:
        log(f"latency samples: the median run of each of {len(raw)} items; "
            f"p90 has {len(raw) - math.ceil(0.9 * len(raw))} items beyond it")
    else:
        report_trace(tracer, run.wall, args)
    for name, (value, unit) in metrics.items():
        log(f"{name}: {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def report_trace(tracer, wall: float, args) -> None:
    import tracer as tr

    log(f"traced spans: {len(tracer.spans)}")
    log("self-time accounting of the traced wall time:")
    accounting = tr.layer_accounting(tracer, wall)
    for layer, seconds in sorted(accounting.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:14s} {seconds:9.4f} s  {100 * seconds / wall:6.2f} %")
    log(f"  {'sum':14s} {sum(accounting.values()):9.4f} s  of wall {wall:.4f} s")
    rows = []
    for op, baseline in ROADMAP_BASELINE.items():
        measured = tr.median_by_size(tracer.spans, op)
        for (g, c), then in baseline.items():
            if (g, c) in measured:
                now, n = measured[(g, c)]
                rows.append(f"  {op:40s} ({g},{c:3d})  roadmap {then * 1e3:8.1f} ms  traced median {now * 1e3:8.1f} ms"
                             f"  x{now / then:5.2f}  n={n}")
    if rows:
        log("ROADMAP baseline cross-check (inclusive time per call):")
        for row in rows:
            log(row)
    WORK.mkdir(exist_ok=True)
    tr.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.json.gz", tracer)


if __name__ == "__main__":
    sys.exit(main())
