#!/usr/bin/env python3
"""Cap-sweep experiment for the minimal-complement-index sets.

Runs the boundary enumeration across a range of truncation caps and emits
one JSON line per cap, so stabilization can be checked by eye or by diff.
The sweep walks the boundaries once, at the largest cap, before the first
report, so the first line's ``ns`` (integer nanoseconds) covers that single
walk and each later line's covers only reading its own cap's report off it.
Invalid input prints ``error: <message>`` on stderr and exits 1; a missing
flag or a non-integer ``--n-max`` is a usage error (exit 2).

    python3 scripts/n1_sweep.py --set 0,1 --caps 20:60 --n-max 10
    python3 scripts/n1_sweep.py --set 0,1/2,2/3,3/4,5/6,1 --caps 12:48 --n-max 200 --witnesses
"""

import argparse
import json
import sys
import time

from complements import DomainError, MultSet, enumerate_N1_sweep
from complements.cli import int_flag
from complements.rationals import clip, parse_int, split_items


def parse_caps(text: str) -> list[int]:
    if ":" in text:
        lo, _, hi = text.partition(":")
        caps = list(range(parse_int(lo), parse_int(hi) + 1))
    else:
        caps = [parse_int(p) for p in split_items(text)]
    if not caps:
        raise DomainError(f"empty cap list: {clip(text)}")
    return caps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", required=True, help="multiplicity set, e.g. 0,1/2,2/3,3/4,5/6,1")
    ap.add_argument("--caps", required=True, help="lo:hi range or comma list of truncation caps")
    ap.add_argument("--n-max", type=int_flag, required=True)
    ap.add_argument("--witnesses", action="store_true", help="include one witness per index")
    args = ap.parse_args()

    try:
        R = MultSet.parse(args.set)
        previous = None
        started = time.perf_counter_ns()
        for report in enumerate_N1_sweep(R, parse_caps(args.caps), args.n_max):
            line = {
                "m_max": report.cap_used[0],
                "n_max": args.n_max,
                "indices": list(report.indices),
                "stable": previous == report.indices,
                "ns": time.perf_counter_ns() - started,
            }
            if args.witnesses:
                line["witnesses"] = {str(i): w.to_json() for i, w in report.witnesses.items()}
            print(json.dumps(line))
            previous = report.indices
            started = time.perf_counter_ns()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
