"""Seeded job lists for the benchmark's workloads.

A workload is a *round*: a fixed list of CLI jobs generated from the seed.
The benchmark runs whole rounds, so every figure it reports is a property
of the round and does not depend on how many rounds fit in a run.  Each
slot of a round draws its inputs from a family whose cost is held in a
narrow band (by an exact work count, or by the calibrated catalog in
``catalog.json``), so that the round costs about the same for every seed.

Every job carries its expected ``(exit code, stdout, stderr)``: either an
answer the acceptance suite names, or one computed by :mod:`reference`.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

TWELVE = [Fraction(x) for x in ("0", "1/2", "2/3", "3/4", "5/6", "1")]
TWELVE_INDICES = [12 * k for k in (1, 2, 3, 4, 5, 7, 8, 9, 11)]
NEAR_ONE = [Fraction(x) for x in ("0", "97/100", "98/100", "99/100", "1")]
# The largest idempotence check that keeps a run steady: 2.4 s here.  A
# single job much longer than that (0,34/35,1 takes 5.9 s) sets a closure
# run's throughput alone, and its host-speed noise with it.  The sizes left
# out and their timings are in baseline.json.
IDEMPOTENT_NAMED = [Fraction(x) for x in ("0", "29/30", "1")]

# Seeded closure jobs keep the walk's exact node count in this band, about
# 30 to 45 ms of closure_elements at the commit that added the benchmark.
CLOSURE_WORK = (1800, 2200)


@functools.cache
def catalog() -> dict:
    return json.loads(Path(__file__).with_name("catalog.json").read_text())


WARMUP = [
    ["phi", "--set", "0,1", "--value", "1/2"],
    ["min-index", "--boundary", "1/2,1/2,1/2"],
    ["complement", "--boundary", "1,1/2", "--n", "2"],
    ["closure", "--set", "0,1/2,1"],
    ["n1", "--set", "0,1", "--m-max", "4", "--n-max", "6"],
    ["approx", "--b", "1/2,1/3", "--q-max", "10"],
    ["kodaira", "--type", "II"],
]


def text(values) -> str:
    return ",".join(str(v) for v in values)


class Job:
    """One CLI invocation and the output it must produce."""

    __slots__ = ("argv", "_answer", "_expected")

    def __init__(self, argv: list[str], answer):
        self.argv = argv
        self._answer = answer
        self._expected = None

    def expected(self) -> tuple[int, str, str]:
        if self._expected is None:
            self._expected = self._answer()
        return self._expected

    def check(self, rc: int, out: str, err: str) -> bool:
        return (rc, out, err) == self.expected()


def stdout_of(fn, *args):
    """Expected triple for a reference function that returns stdout text."""

    def answer():
        try:
            return 0, fn(*args), ""
        except ref.Refused as exc:
            return 1, "", f"error: {exc}\n"

    return answer


def named(out: str):
    return lambda: (0, out, "")


def rand_frac(rng: random.Random, max_den: int, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> Fraction:
    while True:
        d = rng.randint(1, max_den)
        x = Fraction(rng.randint(0, d), d)
        if lo <= x <= hi:
            return x


# ---------------------------------------------------------------------------
# sweep: the depth-first walk of scan_minimal_indices

def sweep(rng: random.Random) -> list[Job]:
    caps = list(range(12, 49))
    lines = "".join(
        json.dumps({"m_max": c, "n_max": 200, "indices": TWELVE_INDICES}, separators=(",", ":")) + "\n"
        for c in caps
    )
    jobs = [
        Job(["n1-sweep", "--set", text(TWELVE), "--m-max", text(caps), "--n-max", "200"], named(lines)),
        Job(["n1", "--set", text(TWELVE), "--m-max", "96", "--n-max", "200"], named(ref.fmt_ints(TWELVE_INDICES) + "\n")),
    ]
    for _ in range(30):
        entry = rng.choice(catalog()["sweep"])
        R = [Fraction(x) for x in entry["set"].split(",")]
        shown = R[:]
        rng.shuffle(shown)
        c = entry["cap"]
        cap_list = [c, c + 1, c + 2]

        def answer(R=R, cap_list=cap_list):
            out, msg = ref.n1_sweep(R, cap_list, 200)
            return (0, out, "") if msg is None else (1, out, f"error: {msg}\n")

        jobs.append(Job(["n1-sweep", "--set", text(shown), "--m-max", text(cap_list), "--n-max", "200"], answer))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# closure: closure_elements on sets whose parts lie near 1

def closure_work(R) -> int:
    """Exact node count of the multiset walk in ``closure_elements``: for each
    r0 and m, the multisets of costs ``1 - r`` with ``m * sum <= r0``."""
    den = math.lcm(*(x.denominator for x in R))
    costs = sorted({int((1 - r) * den) for r in R if r < 1})
    if not costs:
        return 0
    count = [1] + [0] * den
    for c in costs:
        for s in range(c, den + 1):
            count[s] += count[s - c]
    for s in range(1, den + 1):
        count[s] += count[s - 1]
    tops = [int(r0 * den) for r0 in R]
    return sum(count[top // m] for top in tops for m in range(1, top // costs[0] + 1))


def near_one_set(rng: random.Random, dens: tuple[int, int], budget: tuple[int, int], idempotent: bool = False):
    """{0, 1} plus one to three parts ``1 - a/D``, drawn until the walk's work
    count (with the second closure, for the idempotence check) is in budget."""
    while True:
        D = rng.randint(*dens)
        pool = range(1, max(2, D // 10) + 1)
        a = rng.sample(pool, min(len(pool), rng.choice([1, 2, 3])))
        R = sorted({Fraction(0), Fraction(1), *(1 - Fraction(x, D) for x in a)})
        work = closure_work(R)
        if idempotent and work <= budget[1]:
            work += closure_work(ref.closure(R))
        if budget[0] <= work <= budget[1]:
            return R


def near_one_closure() -> str:
    values = ref.closure(NEAR_ONE)
    if len(values) != 101:  # the size the acceptance suite names
        raise AssertionError(f"reference closure of {text(NEAR_ONE)} has {len(values)} values, not 101")
    return ref.fmt_set(values) + "\n"


def idempotence(R) -> str:
    once = ref.closure(R)
    return f"{ref.fmt_set(once)} idempotent={'true' if ref.closure(once) == once else 'false'}\n"


def closure(rng: random.Random) -> list[Job]:
    jobs = [
        Job(["closure", "--set", text(NEAR_ONE)], stdout_of(near_one_closure)),
        Job(["closure", "--set", text(IDEMPOTENT_NAMED), "--check-idempotent"], stdout_of(idempotence, IDEMPOTENT_NAMED)),
    ]
    budget = CLOSURE_WORK
    for _ in range(14):
        R = near_one_set(rng, (10, 100), budget)
        jobs.append(Job(["closure", "--set", text(R)], stdout_of(lambda R=R: ref.fmt_set(ref.closure(R)) + "\n")))
    for _ in range(12):
        R = near_one_set(rng, (10, 100), budget)
        ns = sorted(rng.sample(range(1, 7), rng.choice([1, 2])))

        def rn(R=R, ns=ns):
            values = ref.closure(R)
            return ref.fmt_set(set().union(*(ref.shift_lattice(values, n) for n in ns))) + "\n"

        jobs.append(Job(["rn", "--set", text(R), "--n", text(ns)], stdout_of(rn)))
    for _ in range(10):
        R = near_one_set(rng, (10, 100), budget)
        n = rng.randint(1, 6)
        r = rng.choice([x for x in R if x > 0])
        b = 1 - r / rng.randint(2, 6)
        terms = [(1, b)] + ([(0, rand_frac(rng, 9))] if rng.random() < 0.5 else [])
        eps = Fraction(1, rng.randint(20, 200)) if rng.random() < 0.5 else Fraction(0)
        argv = ["diff", "--n", str(n), "--terms", ",".join(f"{k}:{v}" for k, v in terms), "--set", text(R), "--eps", str(eps)]
        jobs.append(Job(argv, stdout_of(ref.diff_with_set, R, eps, n, terms)))
    for _ in range(12):
        R = near_one_set(rng, (6, 16), budget, idempotent=True)
        jobs.append(Job(["closure", "--set", text(R), "--check-idempotent"], stdout_of(idempotence, R)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# queries: many short jobs of every other subcommand

def boundary(rng: random.Random, k: int, max_den: int = 12, degree_below: Fraction | None = None):
    while True:
        mults = [rand_frac(rng, max_den) for _ in range(k)]
        if degree_below is None or sum(mults) < degree_below:
            return mults


KODAIRA_TYPES = ["II", "III", "IV", "Istar", "IIstar", "IIIstar", "IVstar"]


def kodaira_type(rng: random.Random) -> str:
    return f"mI_n:{rng.randint(1, 12)}" if rng.random() < 0.3 else rng.choice(KODAIRA_TYPES)


def small_set(rng: random.Random, k: int, max_den: int = 6) -> list[Fraction]:
    return sorted({Fraction(0), Fraction(1), *(rand_frac(rng, max_den, Fraction(1, 100), Fraction(99, 100)) for _ in range(k))})


def queries(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    add = jobs.append

    for _ in range(30):
        D = boundary(rng, rng.randint(2, 4), degree_below=Fraction(2))
        variant = rng.choice(["definition", "geq"])
        I = rng.randint(1, 3)
        argv = ["min-index", "--boundary", text(D), "--index", str(I), "--variant", variant]
        add(Job(argv, stdout_of(lambda D=D, I=I, v=variant: f"{ref.min_index(D, I, 1000, v) or 'none'}\n")))
    # Two full points and one of multiplicity >= 1/2 need more than 2n at
    # every n, so no complement exists and the scan runs to --n-max.
    add(Job(["min-index", "--boundary", "1,1,1/2", "--n-max", "100000"], named("none\n")))
    for _ in range(3):
        D = [Fraction(1), Fraction(1), rand_frac(rng, 12, Fraction(1, 2))]
        add(Job(["min-index", "--boundary", text(D), "--n-max", "10000"], named("none\n")))

    for _ in range(25):
        D = boundary(rng, rng.randint(2, 5))
        n = rng.randint(1, 12)
        variant = rng.choice(["definition", "geq"])
        scale = rng.randint(2, 4) if variant == "geq" and rng.random() < 0.4 else 1
        argv = ["complement", "--boundary", text(D), "--n", str(n), "--variant", variant, "--index", str(scale)]
        add(Job(argv, stdout_of(ref.complement, D, n, variant, scale)))

    for i in range(25):
        R = small_set(rng, rng.randint(1, 2), 12)
        if i % 3 == 0:
            m = rng.randint(2, 10)
            add(Job(["phi", "--set", text(R), "--m-max", str(m)], stdout_of(lambda R=R, m=m: ref.fmt_set(ref.phi_values(R, m)) + "\n")))
        elif i % 3 == 1:
            a = 1 - rng.choice(R) / rng.randint(1, 12) if rng.random() < 0.6 else rand_frac(rng, 24)

            def member(R=R, a=a):
                w = ref.phi_member(R, a)
                return "no\n" if w is None else f"yes (r={w[0]}, m={w[1]})\n"

            add(Job(["phi", "--set", text(R), "--value", str(a)], stdout_of(member)))
        else:
            a, eps = rand_frac(rng, 24), Fraction(1, rng.randint(2, 20))
            ok = a >= 1 - eps or ref.phi_member(R, a) is not None
            add(Job(["phi", "--set", text(R), "--value", str(a), "--eps", str(eps)], named(f"{'true' if ok else 'false'}\n")))

    for i in range(15):
        if i % 3:
            n, a = rng.randint(1, 12), rand_frac(rng, 24)
            add(Job(["pn", "--n", str(n), "--value", str(a)], named(f"{'true' if ref.pn(n, a) else 'false'}\n")))
        else:
            R = small_set(rng, 1, 4)
            n = ref.interval(R) * rng.randint(1, 3)
            m = rng.randint(2, 12)
            ok = all(ref.pn(n, a) for a in ref.phi_values(R, m))
            argv = ["pn", "--n", str(n), "--set", text(R), "--eps", f"1/{n + 1}", "--m-max", str(m)]
            add(Job(argv, named(f"{'true' if ok else 'false'}\n")))

    for _ in range(15):
        D, n = boundary(rng, rng.randint(1, 4)), rng.randint(1, 12)
        add(Job(["radius", "--boundary", text(D), "--n", str(n)], stdout_of(lambda D=D, n=n: f"{ref.radius(D, n)}\n")))

    for _ in range(10):
        n = rng.randint(1, 8)
        terms = [(rng.randint(0, 3), rand_frac(rng, 8)) for _ in range(rng.randint(1, 3))]
        argv = ["diff", "--n", str(n), "--terms", ",".join(f"{k}:{b}" for k, b in terms)]
        add(Job(argv, stdout_of(lambda n=n, t=terms: f"{ref.diff_value(n, t)}\n")))
    for _ in range(8):
        germ = [(rng.randint(1, 6), Fraction(rng.randint(-6, 2), rng.randint(1, 4))) for _ in range(rng.randint(1, 5))]
        germ = [(mu, min(d, Fraction(1))) for mu, d in germ]
        shift = Fraction(rng.randint(-2, 2), rng.randint(1, 6)) if rng.random() < 0.4 else None
        if shift is not None and any(d + shift * mu > 1 for mu, d in germ):
            shift = None
        argv = ["lct", "--germ", ",".join(f"{mu}:{d}" for mu, d in germ)] + ([f"--shift={shift}"] if shift is not None else [])
        add(Job(argv, stdout_of(ref.lct, germ, shift)))
    for _ in range(8):
        t = kodaira_type(rng)
        add(Job(["kodaira", "--type", t], named(f"{ref.kodaira(t)}\n")))
    for _ in range(6):
        genus, j = rng.randint(0, 2), rng.randint(0, 24)
        fibers = [(f"P{i}", kodaira_type(rng)) for i in range(1, rng.randint(1, 4) + 1)]
        argv = ["elliptic", "--genus", str(genus), "--fibers", ",".join(f"{l}:{t}" for l, t in fibers), "--j-degree", str(j)]
        add(Job(argv, stdout_of(ref.elliptic, genus, fibers, j)))
    for _ in range(6):
        e = rng.randint(0, 3)
        x, y = rand_frac(rng, 8), rand_frac(rng, 8)
        sections = [(x, Fraction(e + rng.randint(0, 3))), (1 - x, Fraction(e + rng.randint(0, 3))),
                    (y, Fraction(e + rng.randint(0, 3))), (1 - y, Fraction(rng.randint(0, e + 2)))]
        argv = ["ruled-moduli", "--e", str(e), "--sections", ",".join(f"{d}:{a}" for d, a in sections)]
        add(Job(argv, named(f"{ref.ruled_moduli(e, sections)}\n")))
    for _ in range(6):
        lambdas = [rand_frac(rng, 8) for _ in range(rng.randint(2, 3))]
        eps = Fraction(1, rng.randint(2, 16))
        add(Job(["pair-discr", "--lambdas", text(lambdas), "--eps", str(eps)], stdout_of(ref.pair_discr, lambdas, eps)))

    for _ in range(12):
        # denominators <= 12 keep the common denominator (an exact answer)
        # below q_max, so these scans stop early
        b = [rand_frac(rng, 12) for _ in range(rng.randint(1, 3))]
        q_max = rng.choice([q for q in (100, 1000, 10000) if q >= math.lcm(*(x.denominator for x in b))])
        floor_n = rng.randint(1, 6) if rng.random() < 0.5 else None
        argv = ["approx", "--b", text(b), "--q-max", str(q_max)] + (["--floor-n", str(floor_n)] if floor_n else [])
        add(Job(argv, stdout_of(ref.approx, b, q_max, floor_n)))
    for _ in range(10):
        # vectors from the catalog whose scan runs out at q = 10^4
        b = [Fraction(x) for x in rng.choice(catalog()["approx_exhausted"]).split(",")]
        add(Job(["approx", "--b", text(b), "--q-max", "10000"], stdout_of(ref.approx, b, 10000, None)))

    add(Job(["n1", "--set", "0,1", "--m-max", "20", "--n-max", "10"], named("{1,2,3,4,6}\n")))
    for i in range(9):
        R = small_set(rng, 1)
        m, as_json = rng.randint(2, 6), i % 3 == 0
        argv = ["n1", "--set", text(R), "--m-max", str(m), "--n-max", "60"] + (["--json"] if as_json else [])
        add(Job(argv, stdout_of(ref.n1, R, m, 60, as_json)))

    for i in range(10):
        R = small_set(rng, rng.randint(1, 2), 8)
        if i % 2:
            add(Job(["closure", "--set", text(R)], stdout_of(lambda R=R: ref.fmt_set(ref.closure(R)) + "\n")))
        else:
            n = rng.randint(1, 6)
            add(Job(["rn", "--set", text(R), "--n", str(n)], stdout_of(lambda R=R, n=n: ref.fmt_set(ref.shift_lattice(ref.closure(R), n)) + "\n")))

    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"sweep": sweep, "closure": closure, "queries": queries}


def generate(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
