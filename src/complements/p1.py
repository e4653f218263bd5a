"""Decision, construction and enumeration of n-complements on the line.

A boundary on the projective line admits an n-complement exactly when the
per-point numerator requirements fit into degree 2n (the anticanonical
degree).  Two requirement variants are supported:

* ``DEFINITION`` -- numerator n at points of multiplicity 1 and
  ``floor((n+1) d)`` at fractional points (the defining inequality of an
  n-complement);
* ``GEQ``        -- numerator ``ceil(n d)`` everywhere, which forces the
  complement to dominate the boundary.

On inputs whose multiplicities satisfy the floor criterion of
:func:`complements.hyperstandard.pn_contains` the two variants coincide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .hyperstandard import phi_contains, phi_enumerate
from .rationals import BoundaryP1, DomainError, MultSet, PreconditionError, exact_int, lcm_denominators


class ComplementVariant(enum.Enum):
    DEFINITION = "definition"
    GEQ = "geq"

    @classmethod
    def parse(cls, text: str) -> "ComplementVariant":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DomainError(f"unknown variant {text!r} (expected definition|geq)")


def point_requirement(d: Fraction, n: int, variant: ComplementVariant) -> int:
    """Minimal admissible numerator of the complement at a point of multiplicity d."""
    if variant is ComplementVariant.DEFINITION:
        if d == 1:
            return n
        return math.floor((n + 1) * d)
    return math.ceil(n * d)


@dataclass(frozen=True)
class ComplementCertificate:
    """Numerator data witnessing ``n(K + D+) ~ 0`` with D+ log canonical.

    ``numerators`` align with the boundary's points; ``extra_points`` hold
    the numerators placed at new general points.  The total is 2n because
    the canonical divisor of the line has degree -2.
    """

    n: int
    numerators: tuple[int, ...]
    extra_points: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", exact_int(self.n, "index n", 1))
        for field, name in (("numerators", "numerator"), ("extra_points", "extra point")):
            values = tuple(exact_int(a, name, None) for a in getattr(self, field))
            object.__setattr__(self, field, values)
        if any(not (0 <= a <= self.n) for a in self.numerators):
            raise PreconditionError("numerators must lie in [0, n]")
        if any(not (1 <= a <= self.n) for a in self.extra_points):
            raise PreconditionError("extra-point numerators must lie in [1, n]")
        if sum(self.numerators) + sum(self.extra_points) != 2 * self.n:
            raise PreconditionError("certificate degree must equal 2n")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "numerators": list(self.numerators),
            "extra_points": list(self.extra_points),
        }


def complement_exists(
    D: BoundaryP1, n: int, variant: ComplementVariant
) -> ComplementCertificate | None:
    """Build an n-complement certificate, or return None if none exists.

    Existence is the inequality ``sum of requirements <= 2n``; the slack is
    then distributed greedily (largest parts first, each at most n) over new
    general points.
    """
    n = exact_int(n, "index n", 1)
    reqs = tuple(point_requirement(d, n, variant) for _, d in D)
    total = sum(reqs)
    if total > 2 * n:
        return None
    slack = 2 * n - total
    extras = [n] * (slack // n)
    if slack % n:
        extras.append(slack % n)
    return ComplementCertificate(n, reqs, tuple(extras))


def certificate_is_valid(
    cert: ComplementCertificate, D: BoundaryP1, variant: ComplementVariant
) -> bool:
    """Whether the certificate meets the variant's per-point lower bounds for D."""
    if len(cert.numerators) != len(D):
        return False
    return all(
        a >= point_requirement(d, cert.n, variant)
        for a, (_, d) in zip(cert.numerators, D)
    )


def min_complement_index(
    D: BoundaryP1, I: int, n_max: int, variant: ComplementVariant
) -> int | None:
    """Least ``n <= n_max`` divisible by I admitting an n-complement."""
    I = exact_int(I, "I", 1)
    n_max = exact_int(n_max, "n_max", None)
    if n_max < I:
        raise PreconditionError(f"n_max={n_max} must be >= I={I}")
    for n in range(I, n_max + 1, I):
        if complement_exists(D, n, variant) is not None:
            return n
    return None


def scale_certificate(
    cert: ComplementCertificate, D: BoundaryP1, I: int
) -> ComplementCertificate:
    """Turn an n-certificate whose complement dominates D into an nI-certificate."""
    I = exact_int(I, "I", 1)
    if len(cert.numerators) != len(D):
        raise PreconditionError("certificate does not align with the boundary")
    for a, (label, d) in zip(cert.numerators, D):
        if Fraction(a, cert.n) < d:
            raise PreconditionError(
                f"complement does not dominate the boundary at {label}: "
                f"{a}/{cert.n} < {d}"
            )
    return ComplementCertificate(
        cert.n * I,
        tuple(a * I for a in cert.numerators),
        tuple(a * I for a in cert.extra_points),
    )


def openness_radius(B: BoundaryP1, n: int) -> Fraction:
    """Sup-norm radius within which every n-complement of B keeps working.

    Equals ``min (1 - frac((n+1) b)) / (n+1)`` over points with b < 1; with
    no constraining component the full multiplicity interval works and the
    radius is 1.
    """
    n = exact_int(n, "index n", 1)
    radius = Fraction(1)
    for _, b in B:
        if b < 1:
            t = (n + 1) * b
            radius = min(radius, (1 - (t - math.floor(t))) / (n + 1))
    return radius


def epsilon_from_N(N: int) -> Fraction:
    """The gap ``1/(N+2)`` attached to a supremum N of minimal indices."""
    return Fraction(1, exact_int(N, "N", 1) + 2)


class EnumerationCapError(DomainError):
    """Some admissible boundary needed an index beyond the n_max cap."""

    def __init__(self, mults: tuple[Fraction, ...], n_max: int):
        self.mults = mults
        self.n_max = n_max
        pretty = ", ".join(str(m) for m in mults)
        super().__init__(f"no admissible index <= {n_max} for boundary ({pretty})")


@dataclass(frozen=True)
class N1Report:
    """Attained minimal indices with one witness boundary per index."""

    indices: tuple[int, ...]
    witnesses: dict[int, BoundaryP1] = field(compare=False)
    cap_used: tuple[int, int] = (0, 0)  # (m_max, n_max)

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "witnesses": {str(i): w.to_json() for i, w in self.witnesses.items()},
            "cap": {"m_max": self.cap_used[0], "n_max": self.cap_used[1]},
        }


def scan_minimal_indices(
    R: MultSet, m_max: int, n_max: int
) -> Iterator[tuple[tuple[Fraction, ...], int | None]]:
    """Walk every admissible boundary multiset and its minimal index.

    Multiplicities are drawn from the positive part of the phi(R)
    truncation; a multiset is admissible when it is klt (all d < 1, degree
    <= 2) or has degree exactly 2.  Minimality is over multiples of I(R)
    up to ``n_max`` in the DEFINITION variant; ``None`` marks a boundary
    whose minimal index exceeds the cap.

    The walk is depth-first over non-decreasing multiplicity tuples, so the
    output order (and hence every witness downstream) is canonical.  It
    runs in integers: the degree tests compare the values scaled to their
    common denominator, and each value's row of requirement numerators (one
    per candidate index n_j) is subtracted from the running state as it is
    pushed.

    The state packs one field per candidate into a single int.  With n_top
    the largest candidate, ``W = (2*n_top + 2).bit_length() + 1`` and
    ``bias = 2**(W-1)``, field j (at bit offset W*j) holds
    ``2*n_j - sums_j + bias``, where sums_j is the requirement sum of the
    boundary at n_j; a value's row is its requirements packed the same
    way.  So the empty boundary starts at ``sum((2*n_j + bias) << W*j)`` and
    a push is one int subtraction.  No field borrows from the next: every
    pushed multiset has degree at most 2, and each requirement is at most
    ``(n_j + 1) v``, so ``0 <= sums_j <= 2*n_j + 2`` and each field lies in
    ``[bias - 2, bias + 2*n_j]``, inside ``[0, 2**W)`` since
    ``2*n_j + 2 < bias``.  The field's top bit (its guard bit) is therefore
    set exactly when ``sums_j <= 2*n_j``, when n_j admits a complement, and
    the minimal index is the candidate of the lowest set guard bit.

    Each row is checked against the GEQ row ``ceil(n v)``, and the check
    always holds.  For v < 1 in phi(R) and I(R) | n, the lemma proven at
    :func:`complements.hyperstandard.pn_lemma_check` gives
    ``floor((n+1) v) >= n v``, and ``floor((n+1) v) <= n v + v < n v + 1``;
    so ``floor((n+1) v)`` is the least integer ``>= n v``, ``ceil(n v)``.
    At v = 1 both rows are n.  The check stays as a check of the arithmetic.
    """
    interval = lcm_denominators(R)
    values = [v for v in phi_enumerate(R, m_max) if v > 0]
    candidates = list(range(interval, exact_int(n_max, "n_max", None) + 1, interval))
    if not candidates:
        raise PreconditionError(f"n_max={n_max} below I(R)={interval}")
    unit = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (unit // v.denominator) for v in values]
    two = 2 * unit
    width = (2 * candidates[-1] + 2).bit_length() + 1
    bias = 1 << (width - 1)

    def pack(fields: Iterable[int]) -> int:
        out = 0
        for f in reversed(list(fields)):
            out = out << width | f
        return out

    guard = pack([bias] * len(candidates))
    rows = []
    for v in values:
        p, q = v.numerator, v.denominator
        # DEFINITION: n at d = 1, floor((n+1) d) below it.
        row = candidates if p == q else [(n + 1) * p // q for n in candidates]
        # Self-check: on phi(R) inputs with I(R) | n it equals GEQ, ceil(n d).
        if row != [-(-n * p // q) for n in candidates]:
            raise AssertionError(f"variant mismatch at multiplicity {v}")
        rows.append(pack(row))

    def min_index(packed: int) -> int | None:
        g = packed & guard
        return candidates[(g & -g).bit_length() // width - 1] if g else None

    mults: list[Fraction] = []
    # One (value index, degree, packed state) per pushed value, to resume from.
    stack: list[tuple[int, int, int]] = []
    i, total, packed = 0, 0, pack(2 * n + bias for n in candidates)
    yield (), min_index(packed)
    while True:
        if i < len(values) and total + scaled[i] <= two:
            stack.append((i, total, packed))
            mults.append(values[i])
            total += scaled[i]
            packed -= rows[i]
            # Values are pushed in non-decreasing order: values[i] is the largest.
            if total == two or scaled[i] < unit:
                yield tuple(mults), min_index(packed)
        elif stack:
            i, total, packed = stack.pop()
            mults.pop()
            i += 1
        else:
            return


def _first_births(
    R: MultSet, caps: list[int], n_max: int
) -> dict[int | None, list[tuple[int, tuple[Fraction, ...]]]]:
    """Walk once at ``max(caps)`` and keep, per minimal index (``None`` for
    boundaries with no index), the boundaries in walk order whose birth cap
    is below that of every earlier one, as ``(birth cap, mults)``."""
    low = min(caps)
    births: dict[Fraction, int] = {}

    def birth(mults: tuple[Fraction, ...]) -> int:
        # phi_contains picks the least r, hence the least m = r / (1 - v).
        out = 1
        for v in mults:
            if v not in births:
                births[v] = phi_contains(R, v).m
            out = max(out, births[v])
        return out

    firsts: dict[int | None, list[tuple[int, tuple[Fraction, ...]]]] = {}
    # Indices already witnessed at every cap; their later boundaries are moot.
    settled: set[int | None] = set()
    for mults, idx in scan_minimal_indices(R, max(caps), n_max):
        if idx in settled:
            continue
        born = birth(mults)
        entries = firsts.setdefault(idx, [])
        if not entries or born < entries[-1][0]:
            entries.append((born, mults))
            if born <= low:
                settled.add(idx)
                if idx is None:  # every cap fails by now
                    break
    return firsts


def enumerate_N1_sweep(
    R: MultSet, m_maxes: Iterable[int], n_max: int
) -> Iterator[N1Report]:
    """Yield the enumeration's report at each truncation cap, in the given order.

    One walk, at the largest cap, serves every cap.  A value of phi(R) is
    born at the least m with ``1 - r/m`` equal to it over all r in R (the
    value 1, from r = 0, at m = 1), and a boundary exists at cap c exactly
    when its values are all born by c.  The cap-c walk is the big walk
    restricted to those boundaries, in the same order, and a boundary's
    minimal index does not depend on the cap.  So the first witness of an
    index at cap c, and the first boundary without one, are the first
    boundaries of the big walk born by c.

    Each cap behaves as :func:`enumerate_N1` at that cap: the reports before
    the first failing cap are yielded, and then its error is raised.  A cap
    that is not an integer fails the whole sweep before any report.
    """
    caps = [exact_int(cap, "m_max", None) for cap in m_maxes]
    if caps and not any(r > 0 for r in R):
        raise PreconditionError("R must contain a positive element")
    firsts = None
    for cap in caps:
        exact_int(cap, "m_max", 1)
        if firsts is None:
            firsts = _first_births(R, [c for c in caps if c >= 1], n_max)
        found = {
            idx: next(mults for born, mults in entries if born <= cap)
            for idx, entries in firsts.items()
            if entries[-1][0] <= cap
        }
        if None in found:
            raise EnumerationCapError(found[None], n_max)
        order = sorted(found)
        yield N1Report(
            tuple(order), {i: BoundaryP1.from_mults(found[i]) for i in order}, (cap, n_max)
        )


def enumerate_N1(R: MultSet, m_max: int, n_max: int) -> N1Report:
    """The set of minimal complement indices over all admissible boundaries.

    Reports the truncation caps it ran under; acceptance of the result is a
    stabilization statement across caps, never a single-run truth claim.
    This is the one-cap case of :func:`enumerate_N1_sweep`.
    """
    return next(enumerate_N1_sweep(R, [m_max], n_max))
