"""Spans around the program's public functions, for the traced run.

Each wrapper is installed at the module attribute where the caller looks
the function up (``p1.phi_enumerate`` for the walk, ``hyperstandard.
phi_enumerate`` for the CLI, ...), so the program itself is not changed.
A span records its name, start and end in ``perf_counter_ns``, its parent
span and the job it belongs to.  Spans stay in memory, in flat integer
arrays, until :meth:`Tracer.write` at the end of the run.

Self time is a span's busy time minus the busy time of its children.  A
generator (``scan_minimal_indices``) is busy only while it is resumed, so
its busy time excludes the consumer's work between yields.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

now = time.perf_counter_ns

COLUMNS = ("name", "parent", "job", "start", "end", "busy")

# The ROADMAP's walk sizes for the twelve-set: boundaries per cap.
TWELVE = ["0", "1/2", "2/3", "3/4", "5/6", "1"]
TWELVE_BOUNDARIES = {48: 26869, 96: 80849}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols = {c: array("q") for c in COLUMNS}
        self.stack = [-1]
        self.job = -1
        self.counters: Counter = Counter()
        self.twelve_walks: list[tuple[int, int]] = []  # (m_max, boundaries)
        self.rows_ns = 0
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, wrapper, original

    # -- spans ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.cols["name"])
        for c, v in zip(COLUMNS, (name_id, self.stack[-1], self.job, now(), 0, 0)):
            self.cols[c].append(v)
        return sid

    def _close(self, sid: int) -> None:
        end = now()
        self.cols["end"][sid] = end
        self.cols["busy"][sid] = end - self.cols["start"][sid]

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        """A traced stand-in for ``fn``; ``count(counters, args, result, exc)``
        adds the function's work counters."""
        nid = self._name(name)
        calls = name + ".calls"

        def traced(*args, **kwargs):
            sid = self._open(nid)
            self.stack.append(sid)
            self.counters[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.stack.pop()
                self._close(sid)
                if count:
                    count(self.counters, args, None, exc)
                raise
            self.stack.pop()
            self._close(sid)
            if count:
                count(self.counters, args, result, None)
            return result

        return traced

    def wrap_scan(self, fn):
        """Trace ``scan_minimal_indices``: time to the first yield (building the
        requirement rows), busy time of the walk, boundaries and capped ones."""
        name = "p1.scan_minimal_indices"
        nid = self._name(name)

        def traced(R, m_max, n_max):
            sid = self._open(nid)
            self.counters[name + ".calls"] += 1
            return self._drive(sid, fn(R, m_max, n_max), R.to_json() == TWELVE, m_max)

        return traced

    def _drive(self, sid: int, it, twelve: bool, m_max: int):
        busy = boundaries = capped = 0
        first = True
        try:
            while True:
                self.stack.append(sid)
                t0 = now()
                try:
                    item = next(it)
                except StopIteration:
                    if twelve:
                        self.twelve_walks.append((m_max, boundaries))
                    return
                finally:
                    t1 = now()
                    busy += t1 - t0
                    self.stack.pop()
                    if first:
                        self.rows_ns += t1 - self.cols["start"][sid]
                        first = False
                boundaries += 1
                capped += item[1] is None
                yield item
        finally:
            self.cols["end"][sid] = now()
            self.cols["busy"][sid] = busy
            self.counters["p1.scan_minimal_indices.boundaries"] += boundaries
            self.counters["p1.scan_minimal_indices.capped"] += capped

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, wrapper, vars(owner)[attr]))

    def install(self, job: int) -> None:
        self.job = job
        self.counters = Counter()
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> Counter:
        for owner, attr, _, original in reversed(self._patches):
            setattr(owner, attr, original)
        return self.counters

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, int]:
        """Self time in ns per span name, summed over every span recorded."""
        name, parent, busy = self.cols["name"], self.cols["parent"], self.cols["busy"]
        child = [0] * len(name)
        for p, b in zip(parent, busy):
            if p >= 0:
                child[p] += b
        out: Counter = Counter()
        for i, n in enumerate(name):
            out[self.names[n]] += busy[i] - child[i]
        return out

    def busy_times(self) -> dict[str, int]:
        out: Counter = Counter()
        for n, b in zip(self.cols["name"], self.cols["busy"]):
            out[self.names[n]] += b
        return out

    def write(self, path, jobs_below: int) -> None:
        """Write the spans of the jobs numbered below ``jobs_below`` as gzipped CSV."""
        c = self.cols
        with gzip.open(path, "wt") as f:
            f.write("span,parent,job,name,start_ns,end_ns,busy_ns\n")
            for i in range(len(c["name"])):
                if c["job"][i] < jobs_below:
                    f.write(f"{i},{c['parent'][i]},{c['job'][i]},{self.names[c['name'][i]]},{c['start'][i]},{c['end'][i]},{c['busy'][i]}\n")


def install_points(tracer: Tracer, mods: dict) -> None:
    """Register every wrapper on the freshly imported program modules."""
    cli, rationals, hyper, p1 = mods["cli"], mods["rationals"], mods["hyperstandard"], mods["p1"]
    adjunction, approximation = mods["adjunction"], mods["approximation"]
    t = tracer

    t.patch(cli, "run", t.wrap("cli.run", cli.run))
    t.patch(p1, "enumerate_N1", t.wrap("p1.enumerate_N1", p1.enumerate_N1))
    t.patch(p1, "scan_minimal_indices", t.wrap_scan(p1.scan_minimal_indices))

    def values_out(c, args, result, exc):
        if exc is None:
            c["hyperstandard.phi_enumerate.values_out"] += len(result)

    for owner in (p1, hyper):
        t.patch(owner, "phi_enumerate", t.wrap("hyperstandard.phi_enumerate", hyper.phi_enumerate, values_out))

    cached = hyper.closure_elements
    hits = []

    def closure_count(c, args, result, exc):
        info = cached.cache_info()
        hit = info.hits - hits.pop()
        c["hyperstandard.closure_elements.cache_hits"] += hit
        if exc is None and not hit:
            c["hyperstandard.closure_elements.cache_misses"] += 1
            c["hyperstandard.closure_elements.elements_out"] += len(result)

    traced_closure = t.wrap("hyperstandard.closure_elements", cached, closure_count)

    def closure_elements(R):
        hits.append(cached.cache_info().hits)
        return traced_closure(R)

    t.patch(hyper, "closure_elements", closure_elements)
    t.patch(hyper, "r_n_set", t.wrap("hyperstandard.r_n_set", hyper.r_n_set))

    def n_scanned(c, args, result, exc):
        D, I, n_max = args[:3]
        if exc is None:
            c["p1.min_complement_index.n_scanned"] += (n_max if result is None else result) // I

    t.patch(p1, "min_complement_index", t.wrap("p1.min_complement_index", p1.min_complement_index, n_scanned))
    t.patch(p1, "complement_exists", t.wrap("p1.complement_exists", p1.complement_exists))

    def q_scanned(c, args, result, exc):
        if exc is None:
            c["approximation.simultaneous_approx.q_scanned"] += result.q
        elif isinstance(exc, approximation.ApproximationError):
            c["approximation.simultaneous_approx.q_scanned"] += args[1]
            c["approximation.simultaneous_approx.errors"] += 1

    t.patch(approximation, "simultaneous_approx", t.wrap("approximation.simultaneous_approx", approximation.simultaneous_approx, q_scanned))

    parse = "rationals.parse"
    for owner in (cli, rationals, adjunction):
        t.patch(owner, "parse_rational", t.wrap(parse, rationals.parse_rational))
    for cls in (rationals.MultSet, rationals.BoundaryP1):
        t.patch(cls, "parse", staticmethod(t.wrap(parse, cls.parse)))

    for fn in (
        "diff_multiplicity", "diff_in_hyperstandard", "lct_over_divisor", "divisorial_shift",
        "kodaira_dP", "elliptic_formula", "moduli_degree_ruled", "pair_discr_bound",
    ):
        t.patch(adjunction, fn, t.wrap(f"adjunction.{fn}", getattr(adjunction, fn)))
