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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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
    # Cheapest parts first, so a part that does not fit ends its node.
    pool = sorted((r for r in R if r < 1), reverse=True)
    costs = [1 - r for r in pool]
    depth = max(R) // costs[0] if pool else 0
    if depth > _WALK_DEPTH_BUDGET:
        raise DomainError(
            f"closure of {clip(R)} walks {depth} parts deep, "
            f"over the budget of {_WALK_DEPTH_BUDGET} parts"
        )
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


def closure_is_idempotent(R: MultSet) -> bool:
    """Whether closing twice adds nothing.  Checked, though it always holds.

    Let S be the nonempty sums of costs ``1 - r`` (r in R, r < 1, with
    repetition); S is closed under addition.  Each element of closure(R) is
    ``r0 - s`` with r0 in R and s in S or s = 0.  As a part (value below 1)
    it costs ``(1 - r0) + s``, which lies in S.  So an element of the second
    closure, ``(r0 - s) - t`` with t a sum of such costs and value >= 0, is
    ``r0 - (s + t)`` with ``s + t <= r0`` in S, already in closure(R).
    """
    once = closure(R)
    return closure(once) == once


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
