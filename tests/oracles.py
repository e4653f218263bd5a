"""The slow reference paths that the tests compare the package's fast paths against.

Each oracle is independent of the path it checks: from ``complements`` it
imports only the types and exceptions it must build or raise, and it
computes every value itself with ``Fraction``, ``math`` and ``itertools``.
So a fault in the package's arithmetic cannot reach an oracle and its fast
path alike.
"""

import itertools
import math
from fractions import Fraction

from complements import (
    BoundaryP1, ComplementVariant, EnumerationCapError, N1Report, PreconditionError,
)

F = Fraction
DEF = ComplementVariant.DEFINITION
GEQ = ComplementVariant.GEQ


def requirement(d, n, variant):
    """The numerator a point of multiplicity d needs at index n: checks
    ``p1.point_requirement`` and the requirement rows of
    ``p1.scan_minimal_indices``."""
    if variant is GEQ:
        return math.ceil(n * d)
    return n if d == 1 else math.floor((n + 1) * d)


def oracle_min_index(mults, I, n_max, variant):
    """Checks ``p1.min_complement_index`` and the indices of the N1 walk:
    test the degree inequality at every multiple of I up to n_max."""
    for n in range(I, n_max + 1, I):
        if sum(requirement(d, n, variant) for d in mults) <= 2 * n:
            return n
    return None


def fraction_scan(R, m_max, n_max):
    """Checks ``p1.scan_minimal_indices``: the recursive walk in exact
    Fraction arithmetic, one value at a time."""
    interval = math.lcm(*(r.denominator for r in R))
    if m_max < 1:
        raise PreconditionError(f"m_max={m_max} must be >= 1")
    values = sorted(v for v in {1 - r / m for r in R for m in range(1, m_max + 1)} if v > 0)
    candidates = list(range(interval, n_max + 1, interval))
    if not candidates:
        raise PreconditionError(f"n_max={n_max} below I(R)={interval}")
    req_rows = []
    for v in values:
        row = tuple(requirement(v, n, DEF) for n in candidates)
        assert row == tuple(requirement(v, n, GEQ) for n in candidates)
        req_rows.append(row)
    caps = [2 * n for n in candidates]

    def min_index(sums):
        for j, n in enumerate(candidates):
            if sums[j] <= caps[j]:
                return n
        return None

    two = F(2)
    mults = []

    def rec(start, total, sums):
        if total == two or not mults or mults[-1] < 1:
            yield tuple(mults), min_index(sums)
        for i in range(start, len(values)):
            new_total = total + values[i]
            if new_total > two:
                break
            mults.append(values[i])
            yield from rec(i, new_total, [s + r for s, r in zip(sums, req_rows[i])])
            mults.pop()

    yield from rec(0, F(0), [0] * len(candidates))


def per_cap_enumerate(R, m_max, n_max):
    """Checks ``p1.enumerate_N1``: the enumeration run on its own at one cap,
    over ``fraction_scan``."""
    if not any(r > 0 for r in R):
        raise PreconditionError("R must contain a positive element")
    witnesses = {}
    for mults, idx in fraction_scan(R, m_max, n_max):
        if idx is None:
            raise EnumerationCapError(mults, n_max)
        witnesses.setdefault(idx, BoundaryP1.from_mults(mults))
    order = sorted(witnesses)
    return N1Report(tuple(order), {i: witnesses[i] for i in order}, (m_max, n_max))


def per_cap_sweep(R, caps, n_max):
    """Checks ``p1.enumerate_N1_sweep``: a fresh enumeration at each cap."""
    return (per_cap_enumerate(R, cap, n_max) for cap in caps)


def brute_closure(R, m_cap=8, s_cap=8):
    """Checks ``hyperstandard.closure``: plain nested loops over (r0, m, parts)."""
    pool = [r for r in R if r < 1]
    out = set(R)
    for r0 in R:
        for m in range(1, m_cap + 1):
            for s in range(1, s_cap + 1):
                for parts in itertools.combinations_with_replacement(pool, s):
                    v = r0 - m * sum(1 - p for p in parts)
                    if v >= 0:
                        out.add(v)
    return out


def multiset_walk_oracle(R):
    """Checks the witnesses of ``hyperstandard.closure_elements``:
    ``(value, r0, m, parts)`` per value from the recursive walk over every
    multiplier m that ``closure_elements`` ran before its one walk per r0."""
    pool = sorted((r for r in R if r < 1), reverse=True)
    found = {r0: (r0, r0, 1, ()) for r0 in R}
    costs = [1 - r for r in pool]

    def walk(r0, m, start, cost, parts):
        if parts:
            value = r0 - m * cost
            if value not in found:
                found[value] = (value, r0, m, tuple(parts))
        for i in range(start, len(pool)):
            new_cost = cost + costs[i]
            if m * new_cost > r0:
                break
            parts.append(pool[i])
            walk(r0, m, i, new_cost, parts)
            parts.pop()

    for r0 in R:
        for m in range(1, int(r0 / min(costs, default=1)) + 1):
            walk(r0, m, 0, F(0), [])
    return [found[v] for v in sorted(found)]


def walk_closure(R):
    """The values of ``multiset_walk_oracle``: checks ``hyperstandard.closure``."""
    return {value for value, *_ in multiset_walk_oracle(R)}


def closed_twice_is_closed(R):
    """Checks ``hyperstandard.closure_is_idempotent``: close R, close the
    result again and compare, both with ``walk_closure``.  Its cost grows
    with the square of the closure's size."""
    once = walk_closure(R)
    return walk_closure(once) == once


def least_r_witness(values, a):
    """Checks the witnesses of ``adjunction.diff_in_hyperstandard``: ``(r, m)``
    for the least r > 0 in ``values`` with ``r = m(1 - a)``, m a positive
    integer, or None; for ``a < 1``."""
    for r in sorted(values):
        m = r / (1 - a)
        if r > 0 and m.denominator == 1:
            return r, int(m)
    return None


def pn_truncation_holds(R, n, m_max):
    """Checks ``hyperstandard.pn_lemma_check``: the floor criterion
    ``floor((n+1) v) >= n v`` at every value ``v = 1 - r/m`` with
    ``m <= m_max``, the full enumeration with no saturation bound."""
    values = {1 - r / m for r in R for m in range(1, m_max + 1)}
    return all(math.floor((n + 1) * v) >= n * v for v in values)


def shifted_lattice_grid(R, ns, ms, mus):
    """Checks ``hyperstandard.r_n_set`` on fibre germs: yields
    ``(n, r, m, k, mu, r_shift, d_o)`` per fibre ``d_f = 1 - r/m``, level
    ``k/n >= d_f`` and component multiplicity mu, where ``d_o = 1 -
    (k/n - d_f)/mu`` should equal ``1 - r_shift/(m mu)``, r_shift in R_n."""
    for n in ns:
        for r in R:
            for m in ms:
                d_f = 1 - F(r, m)
                for k in range(1, n + 1):
                    if F(k, n) < d_f:
                        continue
                    for mu in mus:
                        r_shift = r + F(k * m, n) - m
                        d_o = 1 - (F(k, n) - d_f) / mu
                        yield n, r, m, k, mu, r_shift, d_o


def convergents(x):
    """Checks ``approximation.simultaneous_approx`` in one dimension: the
    continued-fraction convergents of x."""
    p_prev, q_prev, p, q = 1, 0, int(x), 1
    yield F(p, q)
    frac = x - int(x)
    while frac != 0:
        x = 1 / frac
        a = int(x)
        frac = x - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield F(p, q)
