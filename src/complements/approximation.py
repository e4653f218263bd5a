"""Simultaneous Diophantine approximation of boundary vectors.

Approximates a rational multiplicity vector by vectors with one common
denominator, certifies the approximation quality by an exact
cross-multiplied inequality (no real exponentials are ever formed), and
verifies the floor inequality that lets an approximating boundary inherit
complements from the original one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rationals import DomainError, PreconditionError, exact, exact_int, exact_unit


@dataclass(frozen=True)
class ApproxResult:
    """Common denominator q, numerators, exact sup-error and the quality flag."""

    q: int
    numerators: tuple[int, ...]
    error: Fraction
    cassels_ok: bool

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "numerators": list(self.numerators),
            "error": str(self.error),
            "cassels_ok": self.cassels_ok,
        }


class ApproximationError(DomainError):
    """No denominator up to the cap met the quality bound."""

    def __init__(self, q_max: int, best: ApproxResult):
        self.best = best
        super().__init__(
            f"no q <= {q_max} meets the approximation bound; "
            f"best found q={best.q} with error {best.error}"
        )


def quality_bound_holds(error: Fraction, r: int, q: int) -> bool:
    """Exact test of ``error < 1/((r+1) * q**(1 + 1/r))``.

    Raising both sides to the r-th power clears the fractional exponent:
    the inequality is equivalent to ``num^r (r+1)^r q^(r+1) < den^r``.
    """
    r = exact_int(r, "dimension r", 1)
    q = exact_int(q, "denominator q", 1)
    error = exact(error)
    return error.numerator**r * (r + 1) ** r * q ** (r + 1) < error.denominator**r


def _nearest_down(p: int, d: int, q: int) -> int:
    """Nearest integer to q*p/d with ties broken downward."""
    t, rem = divmod(q * p, d)
    return t + (1 if 2 * rem > d else 0)


def simultaneous_approx(b: Sequence[Fraction], q_max: int) -> ApproxResult:
    """Smallest q <= q_max whose nearest-numerator vector meets the bound.

    For rational input the common denominator always qualifies (error 0),
    so the scan is total whenever ``q_max`` reaches it; otherwise the best
    denominator found is reported in the error.
    """
    bs = list(b)
    if not bs:
        raise PreconditionError("empty multiplicity vector")
    q_max = exact_int(q_max, "q_max", 2)
    bs = [exact_unit(x, "multiplicity ") for x in bs]
    r = len(bs)
    pairs = [(x.numerator, x.denominator) for x in bs]
    best: tuple[Fraction, ApproxResult] | None = None
    for q in range(1, q_max + 1):
        nums = [_nearest_down(p, d, q) for p, d in pairs]
        # sup-error as an exact integer pair: max |m*d - p*q| / (d*q)
        err_num, err_den = 0, 1
        for m, (p, d) in zip(nums, pairs):
            a = abs(m * d - p * q)
            if a * err_den > err_num * d * q:
                err_num, err_den = a, d * q
        error = Fraction(err_num, err_den)
        if quality_bound_holds(error, r, q):
            return ApproxResult(q, tuple(nums), error, True)
        if best is None or error < best[0]:
            best = (error, ApproxResult(q, tuple(nums), error, False))
    assert best is not None
    raise ApproximationError(q_max, best[1])


def verify_floor_claim(b0: Sequence[Fraction], approx: ApproxResult, N: int) -> bool:
    """Check ``floor((qN+1) b0_i) <= qN b_i`` at every constrained component.

    Components where the approximating multiplicity ``b_i = m_i/q`` reaches
    1 are exempt.  This is the inequality that lets a complement of the
    approximation serve the original boundary.
    """
    b0s = [exact(x) for x in b0]
    if len(b0s) != len(approx.numerators):
        raise PreconditionError("approximation does not align with the boundary vector")
    N = exact_int(N, "N", 1)
    q = approx.q
    for x0, m in zip(b0s, approx.numerators):
        if m >= q:  # b_i = m/q >= 1 is unconstrained
            continue
        if math.floor((q * N + 1) * x0) > N * m:
            return False
    return True
