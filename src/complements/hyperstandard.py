"""Membership and closure arithmetic for hyperstandard multiplicity sets.

Given a finite rational set R in [0, 1], this module decides and enumerates
the derived sets used everywhere else in the package:

* ``phi(R)``          -- values ``1 - r/m`` for ``r`` in R and integer m >= 1,
                         intersected with [0, 1] (infinite; enumerated under
                         an explicit truncation);
* ``phi(R, eps)``     -- the same with the tail interval ``[1-eps, 1]`` added;
* ``closure(R)``      -- values ``r0 - m * sum(1 - r_i)`` clipped to be
                         nonnegative, where adjunction coefficients live;
* ``r_n_set / r_prime`` -- the 1/n-shift lattices of the closure;
* the floor predicate ``pn_contains`` that forces complements to dominate
  the boundary.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .rationals import (
    DomainError, MultSet, PreconditionError, clip, exact, exact_int, exact_unit, lcm_denominators,
)


@dataclass(frozen=True)
class PhiWitness:
    """A certificate that ``value`` equals ``1 - r/m`` for r in the set."""

    value: Fraction
    r: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", exact_int(self.m, "witness multiplier m", 1))
        if 1 - self.r / self.m != self.value or not (0 <= self.value <= 1):
            raise PreconditionError(
                f"invalid witness: 1 - {self.r}/{self.m} != {self.value}"
            )

    def to_json(self) -> dict:
        return {"value": str(self.value), "r": str(self.r), "m": self.m}


@dataclass(frozen=True)
class ClosureElement:
    """A witnessed element ``r0 - m * sum(1 - r_i)`` of the closed set.

    Parts with ``r_i = 1`` contribute nothing and are never stored.
    """

    value: Fraction
    r0: Fraction
    m: int
    parts: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", exact_int(self.m, "multiplier m", 1))
        if any(not (0 <= p < 1) for p in self.parts):
            raise PreconditionError("closure parts must lie in [0, 1)")
        expected = self.r0 - self.m * sum((1 - p for p in self.parts), Fraction(0))
        if expected != self.value or self.value < 0:
            raise PreconditionError(f"invalid closure element: {self}")


def phi_contains(R: MultSet, a: Fraction) -> PhiWitness | None:
    """Decide ``a in phi(R)``, returning a witness ``(r, m)`` if one exists.

    The value 1 is attained only by ``r = 0``; for a < 1 each positive r is
    tested for ``m = r / (1 - a)`` being a positive integer.  The smallest
    admissible r wins, which makes the witness deterministic.
    """
    a = exact_unit(a, "a=")
    if a == 1:
        return PhiWitness(Fraction(1), Fraction(0), 1) if Fraction(0) in R else None
    gap = 1 - a
    for r in R:
        if r <= 0:
            continue
        m = r / gap
        if m.denominator == 1 and m >= 1:
            return PhiWitness(a, r, int(m))
    return None


def phi_enumerate(R: MultSet, m_max: int) -> MultSet:
    """The truncation ``{1 - r/m : r in R, 1 <= m <= m_max}`` of phi(R).

    phi(R) is infinite with accumulation at 1, so the truncation bound is
    mandatory; callers own the choice of ``m_max``.
    """
    m_max = exact_int(m_max, "m_max", 1)
    values: set[Fraction] = set()
    for r in R:
        if r == 0:
            values.add(Fraction(1))
        else:
            values.update(1 - Fraction(r, m) for m in range(1, m_max + 1))
    return MultSet(values)


def phi_eps_contains(R: MultSet, eps: Fraction, a: Fraction) -> bool:
    """Membership in ``phi(R) union [1-eps, 1]``."""
    eps = exact_unit(eps, "eps=")
    a = exact_unit(a, "a=")
    return a >= 1 - eps or phi_contains(R, a) is not None


# A set whose cheapest part costs eps = min(1 - r) is walked max(R) // eps
# parts deep; the walk's time grows with the square of that depth.
_WALK_DEPTH_BUDGET = 1000


def _check_walk_depth(R: MultSet) -> None:
    """Raise ``DomainError`` if the closure walk of R would go over budget.

    Every closure path checks it, the ones that never walk too, so that no
    output depends on which path a command takes.
    """
    pool = [r for r in R if r < 1]
    depth = max(R) // (1 - max(pool)) if pool else 0
    if depth > _WALK_DEPTH_BUDGET:
        raise DomainError(
            f"closure of {clip(R)} walks {depth} parts deep, "
            f"over the budget of {_WALK_DEPTH_BUDGET} parts"
        )


@functools.lru_cache(maxsize=512)
def closure_elements(R: MultSet) -> tuple[ClosureElement, ...]:
    """Enumerate the closed set with one witness per value.

    One depth-first walk per r0, over multisets of parts cheapest first,
    records each new value ``r0 - sum(1 - r_i)`` as its last part is pushed.
    Every witness has m = 1: ``r0 - m*s`` with m >= 2 is ``r0 - s'``, where
    s' takes each part of s m times; the m = 1 walk from r0 visits s' first,
    so walks with m >= 2 add no value and no witness.  Inputs are immutable,
    so results are cached.
    """
    if len(R) == 0:
        raise PreconditionError("closure of the empty set")
    _check_walk_depth(R)
    # Cheapest parts first, so a part that does not fit ends its node.
    pool = sorted((r for r in R if r < 1), reverse=True)
    costs = [1 - r for r in pool]
    found: dict[Fraction, ClosureElement] = {
        r0: ClosureElement(r0, r0, 1, ()) for r0 in R
    }
    for r0 in R:
        # One (pool index, cost before it) per pushed part, to resume from.
        stack: list[tuple[int, Fraction]] = []
        i, cost = 0, Fraction(0)
        while True:
            if i < len(pool) and cost + costs[i] <= r0:
                stack.append((i, cost))
                cost += costs[i]
                value = r0 - cost
                if value not in found:
                    found[value] = ClosureElement(value, r0, 1, tuple(pool[j] for j, _ in stack))
            elif stack:
                i, cost = stack.pop()
                i += 1
            else:
                break
    return tuple(found[v] for v in sorted(found))


def closure(R: MultSet) -> MultSet:
    """The closed multiplicity set of R (contains R, stays inside [0, 1])."""
    return MultSet(e.value for e in closure_elements(R))


class _CostMonoid(NamedTuple):
    """closure(R) in integers: R scaled by D, the lcm of its denominators.

    Each part r < 1 costs ``D - rD``; M holds the sums of costs, with 0.  So
    ``closure(R)*D = {t - s : t in tops, s in M, s <= t}`` with ``tops = R*D``.
    ``apery[j]`` is the least s in M with ``s = j (mod step)``, ``step`` the
    least cost, for each j that has one no larger than ``max(tops)``: the
    Apery set, cut at max(tops).  So ``0 <= s <= max(tops)`` lies in M exactly
    when ``s >= apery[s % step]``, and the s in M up to ``t`` are the
    progressions ``apery[j] + k*step``.
    """

    scale: int
    tops: tuple[int, ...]
    step: int
    apery: dict[int, int]

    def __contains__(self, s: int) -> bool:
        """``s in M``, for ``0 <= s <= max(tops)``."""
        w = self.apery.get(s % self.step)
        return w is not None and s >= w

    def progressions(self) -> Iterator[range]:
        """closure(R)*D as ranges: ``t - w - k*step`` for each t and Apery w <= t."""
        for t in self.tops:
            for w in self.apery.values():
                if w <= t:
                    yield range((t - w) % self.step, t - w + 1, self.step)


def _cost_monoid(R: MultSet) -> _CostMonoid:
    """The Apery set of R's costs by Dijkstra over the residues mod the least
    cost, stopped at max(R)*D: the minimal-path method of Nijenhuis (1979).

    It settles at most ``min(step, |M up to max(tops)|)`` residues, each with
    one push per cost, so it never lists closure(R).
    """
    _check_walk_depth(R)
    D = lcm_denominators(R)
    tops = tuple(r.numerator * (D // r.denominator) for r in R)
    top = max(tops)
    costs = sorted({D - t for t in tops if t < D})
    step = costs[0] if costs else top + 1  # no costs: M up to top is {0}
    apery: dict[int, int] = {}
    heap = [(0, 0)]
    while heap:
        w, j = heapq.heappop(heap)
        if j in apery:
            continue
        apery[j] = w
        for c in costs:
            if w + c > top:
                break
            if (w + c) % step not in apery:
                heapq.heappush(heap, (w + c, (w + c) % step))
    return _CostMonoid(D, tops, step, apery)


def closure_is_idempotent(R: MultSet) -> bool:
    """Whether closing twice adds nothing.  Checked, though it always holds.

    Two facts about ``once = closure(R)`` are checked, in the integers of
    :class:`_CostMonoid` (scale D, costs monoid M, top = max(R)*D):

    1. ``once*D`` is exactly ``{t - s : t in R*D, s in M, s <= t}``, as
       generated from the Apery progressions: no value extra, none missing;
    2. each value ``v < 1`` of once costs ``D - vD``, which lies in M whenever
       it is at most top.

    They imply idempotence.  An element of closure(once) is ``u - s'/D``
    with u in once and s' a sum of costs ``D - vD`` of values v < 1 of once,
    with ``s' <= uD <= top``.  Each of those costs is at most s', hence at
    most top, so lies in M by (2), and so does s'.  By (1), ``uD = t - s``
    with s in M, so ``(u - s'/D)*D = t - (s + s')`` with s + s' in M and
    at most t: by (1) again, a value of once.  (1) gives (2) as well, since
    ``D - vD = (D - t) + s`` with ``D - t`` a cost or 0, so (2) checks the
    membership test against the progressions.  Each check costs
    O(|R| * |closure(R)|); recomputing closure(once) cost the square.  The
    values of once are read from the cached :func:`closure_elements`, which
    a caller that has just built closure(R) has filled already.
    """
    once = [e.value for e in closure_elements(R)]
    costs = _cost_monoid(R)
    D = costs.scale
    if any(D % v.denominator for v in once):
        return False
    scaled = {v.numerator * (D // v.denominator) for v in once}
    if scaled != set().union(*costs.progressions()):
        return False
    top = max(costs.tops)
    return all(D - u in costs for u in scaled if 0 < D - u <= top)


def _closure_phi_witness(R: MultSet, a: Fraction) -> PhiWitness | None:
    """``phi_contains(closure(R), a)`` for ``a < 1``, without listing closure(R).

    phi_contains takes the least r in the set with ``r = m(1 - a)``, m >= 1
    an integer: the least m.  With ``(1 - a)D = p/q`` in lowest terms,
    ``rD = mp/q`` is an integer exactly when q divides m, so the witness is
    the least positive multiple x of p in ``closure(R)*D``, with ``r = x/D``
    and ``m = xq/p``.  On each progression ``lo + k*step`` that is the least
    k >= 0 with ``lo + k*step > 0`` and ``k*step = -lo (mod p)``: one linear
    congruence per progression, where testing m = 1, 2, ... in turn could
    take up to D membership tests.
    """
    a = exact_unit(a, "a=")
    costs = _cost_monoid(R)
    gap = (1 - a) * costs.scale
    p, q = gap.numerator, gap.denominator
    h = math.gcd(costs.step, p)
    mod = p // h
    inverse = pow(costs.step // h, -1, mod)
    best = None
    for prog in costs.progressions():
        if prog.start % h:
            continue
        x = prog.start + (-prog.start // h * inverse % mod) * costs.step
        if x == 0:
            x = mod * costs.step  # the next solution: r must be positive
        if x in prog and (best is None or x < best):
            best = x
    return None if best is None else PhiWitness(a, Fraction(best, costs.scale), best // p * q)


def r_n_set(R: MultSet, n: int) -> MultSet:
    """The shift lattice ``(closure(R) + (1/n)Z)`` cut to [0, 1]."""
    n = exact_int(n, "n", 1)
    out: set[Fraction] = set()
    for x in closure(R):
        k_lo = math.ceil(-x * n)
        k_hi = math.floor((1 - x) * n)
        out.update(x + Fraction(k, n) for k in range(k_lo, k_hi + 1))
    return MultSet(out)


def r_prime(R: MultSet, indices: Iterable[int]) -> MultSet:
    """Union of the shift lattices over a set of indices."""
    idx = sorted(set(indices))
    if not idx:
        raise PreconditionError("r_prime: empty index set")
    out: set[Fraction] = set()
    for n in idx:
        out.update(r_n_set(R, n))
    return MultSet(out)


def pn_contains(n: int, a: Fraction) -> bool:
    """The floor criterion: 0 <= a <= 1 and ``floor((n+1)a) >= n*a``."""
    n = exact_int(n, "n", 1)
    a = exact(a)
    if a < 0 or a > 1:
        return False
    return math.floor((n + 1) * a) >= n * a


def pn_lemma_check(R: MultSet, n: int, eps: Fraction, m_max: int) -> bool:
    """Check the inclusion ``phi(R, eps) subset P_n``, for every m.

    Requires ``I(R) | n`` and ``eps <= 1/(n+1)``; violations raise a
    distinct :class:`PreconditionError` so callers can probe the failure
    mode.  The interval part ``[1-eps, 1]`` needs no sampling: there
    ``(n+1)a >= n`` forces ``floor((n+1)a) >= n >= n*a``.  The same bound
    saturates phi(R): ``v = 1 - r/m`` with ``m >= (n+1) r`` has
    ``(n+1) v >= n``.  So only ``m < ceil((n+1) r)`` is checked, and at
    most ``m_max`` of those, yet the answer covers every m.

    The inclusion always holds.  Let ``n = kI`` with I = I(R), r = a/I in
    R with r > 0, ``v = 1 - r/m`` and ``x = n r / m = ka/m``, a multiple of
    1/m.  Since ``(n+1) v = n + 1 - (x + r/m)`` and ``n v = n - x``, the
    criterion ``floor((n+1) v) >= n v`` holds iff
    ``ceil(x + r/m) <= x + 1``, where ``0 < r/m <= 1/m``.  If x is an
    integer the left side is x + 1.  If not, ``x + r/m <= ceil(x) < x + 1``,
    because ceil(x) is a multiple of 1/m above x.  r = 0 gives v = 1, which
    passes.  The check is kept, at its bounded cost, as a check of the
    arithmetic.
    """
    n = exact_int(n, "n", 1)
    interval = lcm_denominators(R)
    if n % interval != 0:
        raise PreconditionError(f"I(R)={interval} does not divide n={n}")
    eps = exact(eps)
    if not (0 <= eps <= Fraction(1, n + 1)):
        raise PreconditionError(f"eps={eps} outside [0, 1/{n + 1}]")
    m_max = exact_int(m_max, "m_max", 1)
    return all(
        pn_contains(n, 1 - r / m)
        for r in R
        if r > 0
        for m in range(1, min(m_max + 1, math.ceil((n + 1) * r)))
    )
