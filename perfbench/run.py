"""Run one finring benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from src/.
Set-up (imports, seeded input files, one untimed warm-up pass) is followed
by a closed loop with one client: whole passes over the workload's ops,
serially, until --seconds have passed.  Every op runs under a deadline and
every output is checked.  With --trace 0 the loop is split over three
processes, this one and two children run one after the other, each with its
own set-up.

Op times are gated in refs: one ref is the time a fixed pure-Python loop
(`reference_s`) takes, timed right before and right after each op.  The
host's speed wanders by up to 1.6x over seconds to minutes, and the loop
slows with it, so an op's latency over the mean of its two refs is steady
where its latency in seconds is not.  The seconds are reported as well.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics (see tracing.py) with --trace 1.

Work files go to .bench_build/perfbench/ and are removed at exit; results
and traces are kept under .bench_build/perfbench/{results,traces}/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats, tracing  # noqa: E402

OUT = ROOT / ".bench_build" / "perfbench"

# The reference loop: about 6-10 ms on a 2-core Xeon VM, depending on the
# host's speed at the time.
REF_LOOPS = 100_000
# The per-op deadline, in refs measured just before the op: about 5 s, twice
# the slowest op that finishes (zdg graph on Z2^6, 210-340 refs), so only a
# hang misses it.
DEADLINE_REFS = 600
# Processes that each set up and run a share of the timed loop, one after
# another.  A process's memory layout makes all of its ops about 5% faster
# or slower in refs than in the next process on the same inputs; the pooled
# samples of three processes vary less, and set-up is measured three times.
PROCESSES = 3
# Enough ops that the tail rule (10 samples beyond) reaches past p66; on
# ring-queries, whose pass takes 10-15 s, this means one pass in each process.
MIN_OPS = 3 * stats.TAIL_BEYOND
WORKLOAD_NAMES = ("atlas-classify", "verify-warm", "ring-queries")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_kref", "ops/kref"),
    ("latency_p50_ref", "ref"),
    ("latency_tail_ref", "ref"),
    ("peak_rss_mb", "MiB"),
    ("answered_share", "ratio"),
)

# Printed beside the metrics; they are in the result file too.
REPORTED = (
    ("failed_ops_share", "ratio"),
    ("missed_deadline_share", "ratio"),
    ("latency_tail_percentile", "%"),
    ("latency_samples", "count"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ref_p50_ms", "ms"),
    ("untraced_ops_per_kref", "ops/kref"),
    ("traced_ops_per_kref", "ops/kref"),
)

# Counts printed for each op of the (untimed, cold-cache) warm-up pass.
COLD_COUNTS = (
    ("structure.ring_canonical_certificate.calls", "certificates"),
    ("addgroup.iter_basis_perms.bases", "bases"),
    ("atlas.enumerate_rings.classes", "classes"),
)

NOTES = (
    "On a 2-core machine, medians of 6-pass atlas-classify runs drifted from "
    "0.75 to 0.95 s per pass while the minima held at 0.673-0.678 s; runs must "
    "be long enough to make medians steady, or the workload dropped with the "
    "reason recorded. On a 2-core Xeon VM the host's speed wanders by up to "
    "1.6x over seconds to minutes: within one process, ten successive 26 s "
    "windows of atlas-classify spread 0.28 (quartile distance over median) in "
    "ops per second and 0.35 in the time of a fixed pure-Python loop, while "
    "ops per reference-loop time spread 0.07. Op times are therefore gated in "
    "refs (the loop's time, measured next to every op); seconds are reported "
    "beside them."
)


class DeadlineExceeded(Exception):
    """Raised by the interval timer.  Not an OSError or ValueError, which
    cli.main would turn into exit code 2 as if the input were bad."""


def reference_s() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


@contextlib.contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    """Runs ops, records their latencies and problems, tags traced ops."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.records: list[dict] = []

    def run_op(self, op, phase: str) -> dict:
        op_id = len(self.records)
        if self.tracer is not None:
            self.tracer.op = op_id
        out = io.StringIO()
        # Each CLI call would start with a fresh heap in its own process;
        # collect the garbage of earlier ops so that no op pays for it.
        gc.collect()
        ref_before = reference_s()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                with deadline(DEADLINE_REFS * ref_before):
                    code = self.cli.main(op.argv)
        except DeadlineExceeded:
            code = None
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        latency = time.perf_counter() - start
        ref = (ref_before + reference_s()) / 2
        missed = code is None
        # A missed op is charged at the deadline it missed.
        latency_ref = DEADLINE_REFS if missed else latency / ref
        if missed:
            problem = None if op.known_hang else f"missed the {DEADLINE_REFS} ref deadline"
        else:
            problem = op.check(code, out.getvalue())
        record = dict(id=op_id, phase=phase, label=op.label, latency_s=latency, ref_s=ref,
                      latency_ref=latency_ref, exit=code,
                      missed=missed, problem=problem, wrong=problem is not None and not missed)
        self.records.append(record)
        return record

    def run_passes(self, ops, phase: str, seconds: float, min_ops: int = 0):
        """Whole passes until `seconds` have passed and at least `min_ops` ran.

        Returns the op records and the duration of each pass."""
        done: list[dict] = []
        durations: list[float] = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds or len(done) < min_ops:
            begin = time.perf_counter()
            done += [self.run_op(op, phase) for op in ops]
            durations.append(time.perf_counter() - begin)
        return done, durations


def part_in_child(args, part: int) -> dict:
    """Set up in a fresh process on the same inputs and run its share of the
    timed loop; returns its set-up time, peak RSS and op records."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--part", str(part)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"child process {part} failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metadata() -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return dict(commit=commit, python=platform.python_version(), numpy=numpy.__version__,
                nproc=len(os.sched_getaffinity(0)), cpu=cpu)


def ops_per_kref(records) -> float:
    return 1000 * len(records) / sum(r["latency_ref"] for r in records)


def end_to_end(records, durations: list[float], setups: list[float],
               rss_mb: list[float]) -> tuple[dict, dict]:
    latencies = [r["latency_ref"] for r in records]
    tail, percentile = stats.tail_percentile(latencies)
    seconds = [r["latency_s"] for r in records]
    failed = sum(r["problem"] is not None for r in records)
    missed = sum(r["missed"] for r in records)
    metrics = dict(
        setup_s=statistics.median(setups),
        ops_per_kref=ops_per_kref(records),
        latency_p50_ref=statistics.median(latencies),
        latency_tail_ref=tail,
        peak_rss_mb=max(rss_mb),
        answered_share=1 - missed / len(records),
    )
    extra = dict(
        latency_tail_percentile=percentile,
        latency_samples=len(latencies),
        failed_ops_share=failed / len(records),
        missed_deadline_share=missed / len(records),
        # The same op times in seconds; they follow the host's speed.
        ops_per_s=len(records) / sum(seconds),
        latency_p50_ms=1000 * statistics.median(seconds),
        latency_tail_ms=1000 * stats.tail_percentile(seconds)[0],
        ref_p50_ms=1000 * statistics.median(r["ref_s"] for r in records),
        setup_samples_s=setups,
        pass_s=durations,
    )
    return metrics, extra


def latencies_by_op(records, key: str, scale: float = 1.0) -> dict[str, list[float]]:
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(scale * r[key])
    return dict(sorted(by_label.items()))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by this script for its child processes: run share `part` (1 or 2)
    # of the timed loop and print the records.
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_traced(runner: Runner, tracer, ops, seconds: float):
    """Untraced passes, then traced ones, each for half of `seconds`."""
    plain, plain_durations = runner.run_passes(ops, "untraced", seconds / 2)
    tracer.install()
    try:
        timed, durations = runner.run_passes(ops, "timed", seconds / 2)
    finally:
        tracer.uninstall()
    untraced_rate = ops_per_kref(plain)
    traced_rate = ops_per_kref(timed)
    metrics = tracer.layer_metrics([r["id"] for r in timed], len(durations))
    metrics["trace.ops_per_kref_ratio"] = traced_rate / untraced_rate

    def counts_per_op(records):
        return {r["label"]: dict(tracer.op_counts([r["id"]])) for r in records}

    extra = dict(
        untraced_ops_per_kref=untraced_rate,
        traced_ops_per_kref=traced_rate,
        warmup_counts_per_op=counts_per_op(r for r in runner.records if r["phase"] == "warmup"),
        timed_counts_per_op=counts_per_op(timed[: len(ops)]),
    )
    return timed, durations, metrics, extra


def print_report(result: dict, units: dict) -> None:
    for key, value in result["metadata"].items():
        print(f"# {key}: {value}")
    print(f"# {result['workload']}: {result['passes']} passes, {result['attempted']} ops, "
          f"deadline {DEADLINE_REFS} ref")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, unit in REPORTED:
        if name in result:
            print(f"{name} {result[name]:.6g} {unit}")
    for label, counts in result.get("warmup_counts_per_op", {}).items():
        shown = [f"{counts[key]} {what}" for key, what in COLD_COUNTS if key in counts]
        if shown:
            print(f"# cold {label}: " + ", ".join(shown))
    for line in result["problems"]:
        print(f"# problem: {line}")
    for label in result["known_hangs"]:
        print(f"# known hang, charged at the deadline: {label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "finring" / "__init__.py").is_file():
        print(f"error: no finring sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import finring
    from finring import cli

    if not Path(finring.__file__).resolve().is_relative_to(src):
        print(f"error: finring imported from {finring.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import workloads

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, tracer)
    try:
        ops = workloads.WORKLOADS[args.workload](work, args.seed)
        if tracer is not None:
            tracer.install()  # the warm-up is traced too: its counts are the cold ones
        try:
            runner.run_passes([op for op in ops if op.warm], "warmup", 0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = time.perf_counter() - _T0
        if tracer is None:
            timed, durations = runner.run_passes(
                ops, "timed", args.seconds / PROCESSES, -(-MIN_OPS // PROCESSES))
            if args.part:
                print(json.dumps(dict(setup_s=setup_s, rss_mb=peak_rss_mb(),
                                      durations=durations, records=runner.records)))
                return 0
            setups, rss_mb = [setup_s], [peak_rss_mb()]
            for part in range(1, PROCESSES):
                child = part_in_child(args, part)
                setups.append(child["setup_s"])
                rss_mb.append(child["rss_mb"])
                durations += child["durations"]
                runner.records += child["records"]
            timed = [r for r in runner.records if r["phase"] == "timed"]
            metrics, extra = end_to_end(timed, durations, setups, rss_mb)
            units = dict(END_TO_END)
        else:
            timed, durations, metrics, extra = measure_traced(runner, tracer, ops, args.seconds)
            units = dict(tracing.PER_LAYER)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r["problem"] is not None for r in timed)
    wrong = [r for r in runner.records if r["wrong"]]
    result = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=len(durations), attempted=len(timed), deadline_ref=DEADLINE_REFS,
        metadata=metadata(), notes=NOTES, metrics=metrics, **extra,
        latency_ref_by_op=latencies_by_op(timed, "latency_ref"),
        latency_ms_by_op=latencies_by_op(timed, "latency_s", 1000),
        problems=sorted({f"{r['label']}: {r['problem']}" for r in runner.records if r["problem"]}),
        known_hangs=sorted({r["label"] for r in runner.records if r["missed"] and not r["problem"]}),
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stem}.jsonl",
                     [{k: r[k] for k in ("id", "phase", "label", "latency_s")} for r in runner.records])
    print_report(result, units)
    print(json.dumps(dict(
        correct=not wrong, attempted=len(timed), failed=failed,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
