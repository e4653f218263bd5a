"""Regenerate ``catalog.json``, the input families whose cost is calibrated.

    python3 bench/calibrate.py

* ``sweep``: for each set ``{0, 1} ∪ S`` with S one to three fractions p/d,
  d <= 6, and I(R) <= 12, the cap c whose sweep over caps c, c+1, c+2
  (n_max 200) takes closest to ``SWEEP_TARGET_MS``; sets that cannot get
  within 8% are left out.  Seeded ``sweep`` jobs draw from this list, so
  every draw costs about the same.
* ``approx_exhausted``: vectors of three fractions over 1000003 for which
  no q <= 10^4 meets the approximation bound, with scan times within 8%
  of their median; ``queries`` draws its exhausting ``approx`` jobs here.

Costs are measured relative to a fixed pacer job run just before each
sample (see :func:`relative`), at the commit the catalog was made on; the
choice of entries uses them, the benchmark does not.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import random
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
from complements import cli, hyperstandard  # noqa: E402

SWEEP_TARGET_MS = 60.0
TOLERANCE = 0.08
PASSES = 7
PACER = ["n1-sweep", "--set", "0,1/2,1", "--m-max", "18,19,20", "--n-max", "200"]


def timed(argv) -> float:
    hyperstandard.closure_elements.cache_clear()
    gc.collect()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter_ns()
        cli.run(argv)
        return (time.perf_counter_ns() - t0) / 1e6


def relative(argvs: list, passes: int = PASSES) -> list[float]:
    """Cost of each job in ms, robust to a host whose speed drifts: every run
    is paired with a run of the fixed ``PACER`` job just before it, and a
    job's cost is the median of its ratios to the pacer times the pacer's
    median time.  Passes go round-robin over all jobs."""
    ratios = [[] for _ in argvs]
    pacer = []
    for _ in range(passes):
        for argv, samples in zip(argvs, ratios):
            pacer.append(timed(PACER))
            samples.append(timed(argv) / pacer[-1])
    scale = statistics.median(pacer)
    return [statistics.median(samples) * scale for samples in ratios]


def sweep_argv(R, c: int) -> list[str]:
    return ["n1-sweep", "--set", ",".join(map(str, R)), "--m-max", f"{c},{c + 1},{c + 2}", "--n-max", "200"]


def sweep_catalog() -> list[dict]:
    fracs = sorted({Fraction(p, d) for d in range(2, 7) for p in range(1, d)})
    candidates = []
    for k in (1, 2, 3):
        for S in itertools.combinations(fracs, k):
            R = [Fraction(0), *S, Fraction(1)]
            if ref.interval(R) > 12:
                continue
            for c in range(2, 60):
                if ref.n1_sweep(R, [c, c + 1, c + 2], 200)[1] is not None:
                    break
                ms = timed(sweep_argv(R, c))
                if ms > 0.5 * SWEEP_TARGET_MS:
                    candidates.append((R, c))
                if ms > 1.5 * SWEEP_TARGET_MS:
                    break
    best: dict = {}
    for (R, c), ms in zip(candidates, relative([sweep_argv(R, c) for R, c in candidates])):
        key = ",".join(map(str, R))
        if key not in best or abs(ms - SWEEP_TARGET_MS) < abs(best[key][1] - SWEEP_TARGET_MS):
            best[key] = (c, ms)
    return [
        {"set": key, "cap": c, "ms": round(ms, 1)}
        for key, (c, ms) in best.items()
        if abs(ms - SWEEP_TARGET_MS) <= TOLERANCE * SWEEP_TARGET_MS
    ]


def approx_catalog(count: int = 24) -> list[str]:
    rng = random.Random("approx_exhausted")
    found = []
    while len(found) < 3 * count:
        b = [Fraction(rng.randint(1, 10**6), 1000003) for _ in range(3)]
        try:
            ref.approx(b, 10000, None)
        except ref.Refused:
            found.append(",".join(map(str, b)))
    times = relative([["approx", "--b", text, "--q-max", "10000"] for text in found])
    mid = statistics.median(times)
    return [text for ms, text in zip(times, found) if abs(ms - mid) <= TOLERANCE * mid][:count]


def main() -> None:
    catalog = {"sweep": sweep_catalog(), "approx_exhausted": approx_catalog()}
    (HERE / "catalog.json").write_text(json.dumps(catalog, indent=1) + "\n")


if __name__ == "__main__":
    main()
