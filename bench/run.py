"""The benchmark: seeded CLI jobs fed in process to ``complements.cli.run``.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the next job starts when the previous
one returns.  The job list (a round) is generated from ``--seed``; the
program only ever sees the generated argv.  Whole rounds run, at least
three, until their timed total reaches ``--seconds``.

Times are paced: each job's wall time is scaled by the ratio of a fixed
pacer's nominal time to its time measured around the job (see ``pace``),
which takes out the host's drift between speed regimes.  A job's latency
is its fastest paced run across the rounds.  The unpaced figures are
printed beside the paced ones.  Every job's exit code, stdout and
stderr are compared, outside the timed region, with an answer the
acceptance suite names or with :mod:`reference`.  The lru cache of
``closure_elements`` is cleared before every job, as a fresh CLI process
would have it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each job
three times (traced, untraced, traced), reports the per-layer metrics of
one round from the traced runs (wall times, not paced), checks that the
work counters of the two traced runs agree and that the twelve-set walks
at caps 48 and 96 visit the ROADMAP's 26,869 and 80,849 boundaries, and
writes the first round's spans to ``bench/out/trace-<workload>.csv.gz``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5
ROUNDS = 3
# The pacer's time on a quiet host: a 2-vCPU VM running Python 3.11.7, where
# the benchmark was defined.  Only the ratio to it matters, see ``pace``.
PACER_NOMINAL_NS = 600_000
PACE_EVERY_S = 0.1
PACER_SET = [Fraction(0), Fraction(1, 2), Fraction(1)]
PACER_CLOSURE = [Fraction(0), Fraction(9, 10), Fraction(1)]
MODULES = ("cli", "rationals", "hyperstandard", "p1", "adjunction", "approximation")

sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

now = time.perf_counter_ns


def fresh_import() -> dict:
    """Import the package from ``src/`` as a new process would."""
    for name in [m for m in sys.modules if m == "complements" or m.startswith("complements.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"complements.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "complements":
        raise ImportError(f"complements was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


class Ticker:
    """Runs the pacer every ``PACE_EVERY_S`` while a job runs, from a SIGALRM
    handler in the same thread, so long jobs are paced by the host's speed
    while they ran.  The handler's own time is taken out of the job's."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spans: list[tuple[int, int]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = now()
        pace_once()  # the job has just evicted the pacer from the caches
        self.samples.append(pace_once())
        self.spans.append((t0, now()))

    def start(self) -> None:
        self.samples, self.spans = [], []
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)

    def stop(self, t0: int, t1: int) -> int:
        """Stop ticking; return the handler time that fell inside [t0, t1]."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(max(0, min(b, t1) - max(a, t0)) for a, b in self.spans)


def run_job(cli, clear_cache, argv, ticker: Ticker | None = None):
    """Run one job; return (ns, exit code or None if it raised, stdout, stderr)."""
    clear_cache()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if ticker:
            ticker.start()
        t0 = now()
        try:
            rc = cli.run(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        t1 = now()
        stolen = ticker.stop(t0, t1) if ticker else 0
    return t1 - t0 - stolen, rc, out.getvalue(), err.getvalue()


def pace_once() -> int:
    t0 = now()
    ref.n1_walk(PACER_SET, [9], 60)
    ref.closure(PACER_CLOSURE)
    return now() - t0


def pace() -> int:
    """Median time of three runs of a fixed piece of the benchmark's own code.

    The host's speed drifts between regimes up to 1.8x apart, each lasting
    seconds to minutes.  The pacer shares none of the program's code, so a
    change to the program leaves it alone, while a host regime slows both
    alike.  A job's time is scaled by ``PACER_NOMINAL_NS`` over the mean of
    the pacer runs just before it, during it (see :class:`Ticker`) and just
    after it.
    """
    return statistics.median([pace_once() for _ in range(3)])


def tail_percentile(round_size: int) -> int:
    """Highest whole percentile with at least ten jobs of one round beyond it."""
    return max(p for p in range(100) if round_size - math.ceil(p * round_size / 100) >= 10)


def nearest_rank(sorted_values, p: int):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def setup(workload: str, seed: int):
    """Import, generate the round and warm up; repeated, and the median of the
    paced times kept."""
    times = []
    for _ in range(3):
        pace()
    before = pace()
    for _ in range(SETUPS):
        t0 = now()
        mods = fresh_import()
        jobs = workloads.generate(workload, seed)
        cache = mods["hyperstandard"].closure_elements.cache_clear
        for argv in workloads.WARMUP:
            run_job(mods["cli"], cache, argv)
        dt = now() - t0
        after = pace()
        times.append(dt * 2 * PACER_NOMINAL_NS / (before + after))
        before = after
    return mods, jobs, statistics.median(times)


def report_failure(job, rc, out, err) -> None:
    exp = job.expected()
    print(
        f"FAILED {' '.join(job.argv)}\n  got      rc={rc} out={out[:300]!r} err={err[:600]!r}\n"
        f"  expected rc={exp[0]} out={exp[1][:300]!r} err={exp[2][:300]!r}",
        file=sys.stderr,
    )


def end_to_end(mods, jobs, seconds: int):
    """Whole rounds, at least ROUNDS of them; a job's latency is its fastest
    paced run."""
    cli, cache = mods["cli"], mods["hyperstandard"].closure_elements.cache_clear
    runs = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    pacer = []
    failed = busy = rounds = 0
    ticker = Ticker()
    before = pace()
    while rounds < ROUNDS or busy < seconds * 10**9:
        for job, samples, raw_samples in zip(jobs, runs, raw):
            dt, rc, out, err = run_job(cli, cache, job.argv, ticker)
            after = pace()
            paces = [before, after, *ticker.samples]
            samples.append(dt * PACER_NOMINAL_NS * len(paces) / sum(paces))
            raw_samples.append(dt)
            pacer.append(after)
            before = after
            busy += dt
            if not job.check(rc, out, err):
                failed += 1
                report_failure(job, rc, out, err)
        rounds += 1
    latencies = sorted(min(samples) for samples in runs)
    unpaced = sorted(min(samples) for samples in raw)
    p = tail_percentile(len(jobs))
    attempted = rounds * len(jobs)
    metrics = {
        "jobs_per_s": (len(jobs) / (sum(latencies) / 1e9), "1/s"),
        "job_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "job_tail_ms": (nearest_rank(latencies, p) / 1e6, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "jobs_per_s": f"unpaced {len(jobs) / (sum(unpaced) / 1e9):.4g}",
        "job_p50_ms": f"unpaced {statistics.median(unpaced) / 1e6:.4g}",
        "job_tail_ms": f"p{p} of {len(jobs)} jobs, each the fastest of {rounds} rounds; unpaced {nearest_rank(unpaced, p) / 1e6:.4g}",
        "failed_ratio": f"{failed}/{attempted} = {failed / attempted:.4f}",
        "pacer": f"median {statistics.median(pacer) / 1e6:.4g} ms, nominal {PACER_NOMINAL_NS / 1e6:.4g} ms",
    }
    return attempted, failed, True, metrics, notes


def traced(mods, jobs, seconds: int, workload: str):
    cli, cache = mods["cli"], mods["hyperstandard"].closure_elements.cache_clear
    tracer = tracing.Tracer()
    tracing.install_points(tracer, mods)
    attempted = failed = 0
    untraced_ns = traced_ns = 0
    rounds = 0
    repeat_ok = True
    counts = None
    while rounds == 0 or untraced_ns + traced_ns < seconds * 10**9:
        round_counts = {}
        for j, job in enumerate(jobs):
            passes = []
            for kind in ("traced", "untraced", "traced"):
                if kind == "traced":
                    tracer.install(job=(rounds * len(jobs) + j) * 2 + len(passes))
                dt, rc, out, err = run_job(cli, cache, job.argv)
                if kind == "traced":
                    passes.append(dict(tracer.uninstall()))
                    traced_ns += dt
                else:
                    untraced_ns += dt
                attempted += 1
                if not job.check(rc, out, err):
                    failed += 1
                    report_failure(job, rc, out, err)
            if passes[0] != passes[1]:
                repeat_ok = False
                print(f"COUNTERS DIFFER {' '.join(job.argv)}: {passes[0]} != {passes[1]}", file=sys.stderr)
            for k, v in passes[0].items():
                round_counts[k] = round_counts.get(k, 0) + v
        if counts is not None and counts != round_counts:
            repeat_ok = False
            print("COUNTERS DIFFER between rounds", file=sys.stderr)
        counts = round_counts
        rounds += 1

    walks_ok = all(tracing.TWELVE_BOUNDARIES.get(cap, b) == b for cap, b in tracer.twelve_walks)
    if workload == "sweep":
        walks_ok &= set(tracing.TWELVE_BOUNDARIES) <= {cap for cap, _ in tracer.twelve_walks}
    if not walks_ok:
        print(f"BOUNDARY COUNTS DIFFER from {tracing.TWELVE_BOUNDARIES}: {tracer.twelve_walks}", file=sys.stderr)

    per_pass = 2 * rounds
    selfs = tracer.self_times()
    busy = tracer.busy_times()

    def ms(ns: int) -> float:
        return ns / per_pass / 1e6

    adj = [n for n in selfs if n.startswith("adjunction.")]
    values = {
        "p1.scan_minimal_indices.walk_ms": (ms(busy["p1.scan_minimal_indices"] - tracer.rows_ns), "ms"),
        "p1.scan_minimal_indices.rows_ms": (ms(tracer.rows_ns), "ms"),
        "p1.scan_minimal_indices.boundaries": (counts.get("p1.scan_minimal_indices.boundaries", 0), "count"),
        "p1.scan_minimal_indices.capped": (counts.get("p1.scan_minimal_indices.capped", 0), "count"),
        "p1.enumerate_N1.self_ms": (ms(selfs["p1.enumerate_N1"]), "ms"),
        "hyperstandard.phi_enumerate.calls": (counts.get("hyperstandard.phi_enumerate.calls", 0), "count"),
        "hyperstandard.phi_enumerate.self_ms": (ms(selfs["hyperstandard.phi_enumerate"]), "ms"),
        "hyperstandard.phi_enumerate.values_out": (counts.get("hyperstandard.phi_enumerate.values_out", 0), "count"),
    }
    for name in ("calls", "elements_out", "cache_hits", "cache_misses"):
        key = f"hyperstandard.closure_elements.{name}"
        values[key] = (counts.get(key, 0), "count")
    values["hyperstandard.closure_elements.self_ms"] = (ms(selfs["hyperstandard.closure_elements"]), "ms")
    values["hyperstandard.r_n_set.self_ms"] = (ms(selfs["hyperstandard.r_n_set"]), "ms")
    for fn, extra in (
        ("p1.min_complement_index", ["n_scanned"]),
        ("p1.complement_exists", []),
        ("approximation.simultaneous_approx", ["q_scanned", "errors"]),
        ("rationals.parse", []),
    ):
        for name in ["calls"] + extra:
            values[f"{fn}.{name}"] = (counts.get(f"{fn}.{name}", 0), "count")
        values[f"{fn}.self_ms"] = (ms(selfs[fn]), "ms")
    values["cli.run.self_ms"] = (ms(selfs["cli.run"]), "ms")
    values["adjunction.calls"] = (sum(counts.get(f"{n}.calls", 0) for n in adj), "count")
    values["adjunction.self_ms"] = (ms(sum(selfs[n] for n in adj)), "ms")
    values["trace.overhead_ratio"] = (untraced_ns / (traced_ns / 2), "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}.csv.gz"
    tracer.write(path, jobs_below=2 * len(jobs))
    notes = {
        "trace": f"{rounds} round(s) of {len(jobs)} jobs, each run traced, untraced, traced; "
        f"{len(tracer.cols['name'])} spans, the first round's in {path.relative_to(ROOT)}",
        "counters": "repeat exactly" if repeat_ok else "DIFFER",
    }
    return attempted, failed, repeat_ok and walks_ok, values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "complements" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'complements'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    mods, jobs, setup_ns = setup(args.workload, args.seed)
    if args.trace:
        attempted, failed, ok, metrics, notes = traced(mods, jobs, args.seconds, args.workload)
    else:
        attempted, failed, ok, metrics, notes = end_to_end(mods, jobs, args.seconds)
        metrics["setup_s"] = (setup_ns / 1e9, "s")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} round={len(jobs)} jobs")
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    for name in sorted(set(notes) - set(metrics)):
        print(f"  {name:<48} {notes[name]}")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
