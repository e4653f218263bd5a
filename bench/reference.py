"""Reference answers for the benchmark's jobs, written from the README.

Nothing here imports ``complements``: every expected output is derived
from the definitions in the README (and the docstrings it points to), by
algorithms chosen to differ from the program's where the program's is the
thing being measured.  Each function returns the exact text the CLI should
print, or raises :class:`Refused` with the message a ``DomainError`` must
carry (printed by the CLI as ``error: <message>`` with exit code 1).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class Refused(Exception):
    """The job's expected answer is a domain error with this message."""


def fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(set(values))) + "}"


def fmt_ints(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def interval(R) -> int:
    """I(R): lcm of the denominators of the nonzero elements."""
    return math.lcm(*(x.denominator for x in R if x != 0))


# ---------------------------------------------------------------------------
# phi(R), the floor criterion and the complement requirements

def phi_member(R, a: Fraction):
    """Witness (r, m) of ``a = 1 - r/m`` with the smallest r, or None."""
    if a == 1:
        return (Fraction(0), 1) if 0 in R else None
    for r in sorted(R):
        if r > 0 and (r / (1 - a)).denominator == 1:
            return r, int(r / (1 - a))
    return None


def phi_values(R, m_max: int) -> set:
    out = set()
    for r in R:
        out.update([Fraction(1)] if r == 0 else (1 - r / m for m in range(1, m_max + 1)))
    return out


def pn(n: int, a: Fraction) -> bool:
    return 0 <= a <= 1 and math.floor((n + 1) * a) >= n * a


def requirement(d: Fraction, n: int, variant: str) -> int:
    if variant == "geq":
        return math.ceil(n * d)
    return n if d == 1 else math.floor((n + 1) * d)


# ---------------------------------------------------------------------------
# closure(R): distinct subset sums instead of a walk over multisets

def closure(R) -> list:
    """Values ``r0 - m * c`` with c a sum of costs ``1 - r`` (r in R, r < 1)
    and ``m * c <= r0``, computed as reachable integer sums over a common
    denominator."""
    R = sorted(set(R))
    den = math.lcm(*(x.denominator for x in R))
    costs = sorted({int((1 - r) * den) for r in R if r < 1})
    reach = [False] * (den + 1)
    reach[0] = True
    for s in range(1, den + 1):
        reach[s] = any(c <= s and reach[s - c] for c in costs)
    sums = [s for s in range(den + 1) if reach[s]]
    out = set()
    for r0 in R:
        top = int(r0 * den)
        out.add(r0)
        for c in sums[1:]:
            for m in range(1, top // c + 1):
                out.add(Fraction(top - m * c, den))
    return sorted(out)


def shift_lattice(values, n: int) -> set:
    out = set()
    for x in values:
        out.update(x + Fraction(k, n) for k in range(math.ceil(-x * n), math.floor((1 - x) * n) + 1))
    return out


# ---------------------------------------------------------------------------
# the minimal-index set: one walk at the largest cap, with birth caps

def _values_with_birth(R, cap: int) -> dict:
    birth: dict = {}
    for r in R:
        for m in ([1] if r == 0 else range(1, cap + 1)):
            v = 1 - r / m if r else Fraction(1)
            if v > 0 and (v not in birth or m < birth[v]):
                birth[v] = m
    return birth


def n1_walk(R, caps, n_max: int) -> dict:
    """For each cap: ``(indices, witnesses, first_uncovered)``.

    Walks the admissible boundaries once at ``max(caps)`` in lexicographic
    order of their sorted multiplicity tuples.  A boundary exists at cap c
    exactly when every multiplicity in it is born by c (the least m that
    produces it), so the per-cap answers are read off one walk.  Each
    boundary's minimal index is found by scanning multiples of I(R).
    """
    birth = _values_with_birth(R, max(caps))
    vals = sorted(birth)
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    step = interval(R)
    ns = range(step, n_max + 1, step)
    need = [[n if v == den else (n + 1) * v // den for n in ns] for v in ints]
    first: dict = {}  # index -> list of (birth, mults), prefix minima of birth
    uncovered: list = []  # prefix minima of birth among boundaries with no index

    def note(store: list, b: int, mults) -> None:
        if not store or b < store[-1][0]:
            store.append((b, mults))

    stack = [(0, 0, 0, ())]
    while stack:
        start, total, b, chosen = stack.pop()
        if total == 2 * den or not chosen or ints[chosen[-1]] < den:
            idx = None
            for j, n in enumerate(ns):
                if sum(need[i][j] for i in chosen) <= 2 * n:
                    idx = n
                    break
            note(uncovered if idx is None else first.setdefault(idx, []), b, chosen)
        kids = []
        for i in range(start, len(vals)):
            if total + ints[i] > 2 * den:
                break
            kids.append((i, total + ints[i], max(b, birth[vals[i]]), chosen + (i,)))
        stack.extend(reversed(kids))

    out = {}
    for cap in caps:
        wit = {}
        for idx, store in first.items():
            for b, chosen in store:
                if b <= cap:
                    wit[idx] = tuple(vals[i] for i in chosen)
                    break
        bad = next((tuple(vals[i] for i in ch) for b, ch in uncovered if b <= cap), None)
        out[cap] = (sorted(wit), wit, bad)
    return out


def _uncovered_message(mults, n_max: int) -> str:
    return f"no admissible index <= {n_max} for boundary ({', '.join(str(m) for m in mults)})"


def n1(R, m_max: int, n_max: int, as_json: bool) -> str:
    indices, wit, bad = n1_walk(R, [m_max], n_max)[m_max]
    if bad is not None:
        raise Refused(_uncovered_message(bad, n_max))
    if not as_json:
        return fmt_ints(indices) + "\n"
    payload = {
        "indices": indices,
        "witnesses": {
            str(i): [[f"P{k}", str(m)] for k, m in enumerate(wit[i], start=1)] for i in indices
        },
        "cap": {"m_max": m_max, "n_max": n_max},
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def n1_sweep(R, caps, n_max: int) -> tuple[str, str | None]:
    """Lines printed before the first cap that fails, and that failure."""
    per_cap = n1_walk(R, caps, n_max)
    lines = []
    for cap in caps:
        indices, _, bad = per_cap[cap]
        if bad is not None:
            return "".join(lines), _uncovered_message(bad, n_max)
        lines.append(json.dumps({"m_max": cap, "n_max": n_max, "indices": indices}, separators=(",", ":")) + "\n")
    return "".join(lines), None


# ---------------------------------------------------------------------------
# complements of one boundary

def min_index(mults, I: int, n_max: int, variant: str):
    for n in range(I, n_max + 1, I):
        if sum(requirement(d, n, variant) for d in mults) <= 2 * n:
            return n
    return None


def complement(mults, n: int, variant: str, scale: int) -> str:
    reqs = [requirement(d, n, variant) for d in mults]
    slack = 2 * n - sum(reqs)
    if slack < 0:
        return "none\n"
    extras = [n] * (slack // n) + ([slack % n] if slack % n else [])
    nums = ",".join(str(a * scale) for a in reqs)
    extra = ",".join(str(a * scale) for a in extras) or "-"
    return f"n={n * scale} numerators={nums} extra={extra}\n"


def radius(mults, n: int) -> Fraction:
    best = Fraction(1)
    for b in mults:
        if b < 1:
            frac = (n + 1) * b - math.floor((n + 1) * b)
            best = min(best, (1 - frac) / (n + 1))
    return best


# ---------------------------------------------------------------------------
# adjunction

def diff_value(n: int, terms) -> Fraction:
    return 1 - Fraction(1, n) + sum(k * b for k, b in terms) / n


def diff_with_set(R, eps: Fraction, n: int, terms) -> str:
    for k, b in terms:
        if k > 0 and not (b >= 1 - eps or phi_member(R, b) is not None):
            raise Refused(f"multiplicity {b} is not semi-hyperstandard over R")
    d = diff_value(n, terms)
    if d >= 1:
        raise Refused(f"adjunction multiplicity {d} >= 1: germ is not plt")
    w = phi_member(closure(R), d)
    if w is not None:
        return f"{d} (r={w[0]}, m={w[1]})\n"
    if d >= 1 - eps:
        return f"{d} (tail)\n"
    raise Refused(f"no hyperstandard certificate for multiplicity {d}")


KODAIRA = {
    "II": Fraction(1, 6),
    "III": Fraction(1, 4),
    "IV": Fraction(1, 3),
    "Istar": Fraction(1, 2),
    "IVstar": Fraction(2, 3),
    "IIIstar": Fraction(3, 4),
    "IIstar": Fraction(5, 6),
}


def kodaira(tag: str) -> Fraction:
    if tag.startswith("mI_n:"):
        return 1 - Fraction(1, int(tag[5:]))
    return KODAIRA[tag]


def elliptic(genus: int, fibers, j_degree: int) -> str:
    ds = [(lbl, kodaira(t)) for lbl, t in fibers]
    dmod = Fraction(j_degree, 12)
    total = 2 * genus - 2 + sum(d for _, d in ds) + dmod
    torsion = math.lcm(*(d.denominator for _, d in ds)) if ds else 1
    parts = " + ".join(f"{d}*{lbl}" for lbl, d in ds) or "0"
    return f"D_div = {parts}; deg D_mod = {dmod}; deg total = {total}; torsion index = {torsion}\n"


def lct(germ, shift: Fraction | None) -> str:
    if shift is not None:
        germ = [(mu, d + shift * mu) for mu, d in germ]
    c = min((1 - d) / mu for mu, d in germ)
    return f"c_w={c} d_w={1 - c}\n"


def ruled_moduli(e: int, sections) -> Fraction:
    return sum(d * a for d, a in sections) - e


def pair_discr(lambdas, eps: Fraction) -> str:
    total = sum(lambdas, Fraction(0))
    ok = "true" if total <= 2 - eps else "false"
    return f"sum={total} bound_ok={ok} discrepancy={1 - total}\n"


# ---------------------------------------------------------------------------
# simultaneous approximation

def approx(b, q_max: int, floor_n: int | None) -> str:
    """Smallest q whose nearest numerators (ties down) give a sup-error
    ``e < 1/((r+1) q^(1+1/r))``, tested as ``((r+1) e)^r q^(r+1) < 1`` with
    e kept as an unreduced integer pair."""
    r = len(b)
    pairs = [(x.numerator, x.denominator) for x in b]
    best = None
    for q in range(1, q_max + 1):
        nums = [-((d - 2 * q * p) // (2 * d)) for p, d in pairs]
        a, e = 0, 1
        for m, (p, d) in zip(nums, pairs):
            gap = abs(m * d - p * q)
            if gap * e > a * d * q:
                a, e = gap, d * q
        if (r + 1) ** r * a**r * q ** (r + 1) < e**r:
            line = f"q={q} numerators={','.join(map(str, nums))} error={Fraction(a, e)}"
            if floor_n is not None:
                ok = all(m >= q or math.floor((q * floor_n + 1) * x) <= floor_n * m for x, m in zip(b, nums))
                line += f" floor_claim={'true' if ok else 'false'}"
            return line + "\n"
        if best is None or a * best[2] < best[1] * e:
            best = (q, a, e)
    raise Refused(
        f"no q <= {q_max} meets the approximation bound; best found q={best[0]} with error {Fraction(best[1], best[2])}"
    )
