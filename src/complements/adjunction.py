"""Exact coefficient arithmetic for adjunction along divisors and fibres.

Covers the multiplicity formula of divisorial adjunction, log canonical
thresholds of fibre germs over a codimension-one point (and the induced
divisorial part), the discriminant table for degenerate elliptic fibres,
the degree bookkeeping of the canonical bundle formula for elliptic
surfaces, and two small numerical bounds for surface germs and ruled
surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .hyperstandard import PhiWitness, _closure_phi_witness, phi_eps_contains
from .rationals import (
    DomainError,
    MultSet,
    PreconditionError,
    exact,
    exact_int,
    exact_unit,
    parse_int,
    parse_rational,
    split_pairs,
)


# ---------------------------------------------------------------------------
# Divisorial adjunction (the different)

@dataclass(frozen=True)
class DiffInput:
    """Local data of a divisor germ: index n and terms (k_i, b_i)."""

    n: int
    terms: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", exact_int(self.n, "germ index n", 1))
        terms = tuple(
            (exact_int(k, "intersection number k", 0), exact_unit(b, "boundary multiplicity "))
            for k, b in self.terms
        )
        object.__setattr__(self, "terms", terms)


def diff_multiplicity(inp: DiffInput) -> Fraction:
    """The adjunction multiplicity ``1 - 1/n + (sum k_i b_i)/n``."""
    acc = sum((k * b for k, b in inp.terms), Fraction(0))
    return 1 - Fraction(1, inp.n) + acc / inp.n


@dataclass(frozen=True)
class DiffMembership:
    """Certificate that an adjunction multiplicity is semi-hyperstandard
    over the closed set: either a witness or the tail flag ``d >= 1-eps``."""

    value: Fraction
    witness: PhiWitness | None
    in_tail: bool

    def to_json(self) -> dict:
        return {
            "value": str(self.value),
            "witness": self.witness.to_json() if self.witness else None,
            "in_tail": self.in_tail,
        }


def diff_in_hyperstandard(R: MultSet, eps: Fraction, inp: DiffInput) -> DiffMembership:
    """Certify that the adjunction multiplicity lands in phi(closure(R), eps).

    Requires 1 in R, every contributing b semi-hyperstandard over R, and a
    plt germ (multiplicity < 1).  The witness search over the closed set is
    complete for values below 1, so a missing certificate would disprove
    the containment rather than time out.  It does not list the closed set:
    the witness is ``phi_contains(closure(R), d)``, found from the cost
    semigroup of R.
    """
    if Fraction(1) not in R:
        raise PreconditionError("the multiplicity set must contain 1")
    eps = exact_unit(eps, "eps=")
    for k, b in inp.terms:
        if k > 0 and not phi_eps_contains(R, eps, b):
            raise DomainError(f"multiplicity {b} is not semi-hyperstandard over R")
    d = diff_multiplicity(inp)
    if d >= 1:
        raise DomainError(f"adjunction multiplicity {d} >= 1: germ is not plt")
    witness = _closure_phi_witness(R, d)
    if witness is not None:
        return DiffMembership(d, witness, False)
    if d >= 1 - eps:
        return DiffMembership(d, None, True)
    raise DomainError(f"no hyperstandard certificate for multiplicity {d}")


# ---------------------------------------------------------------------------
# Fibre germs over a codimension-one point

@dataclass(frozen=True)
class FiberGerm:
    """Components of a fibre on an snc model: (multiplicity in the pulled
    back fibre, multiplicity in the crepant boundary).

    Boundary multiplicities may be negative: a component extracted with
    positive discrepancy a carries d = -a.  One representation serves both
    honest boundary fibres and resolution germs.
    """

    components: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise PreconditionError("fibre germ must have at least one component")
        comps = []
        for mu, d in self.components:
            d = exact(d)
            if d > 1:
                raise PreconditionError(f"boundary multiplicity {d} exceeds 1")
            comps.append((exact_int(mu, "fibre multiplicity mu", 1), d))
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def parse(cls, text: str) -> "FiberGerm":
        """Parse ``"mu:d,mu:d,..."`` such as ``"1:0,2:-1,3:-2,6:-4"``."""
        pairs = split_pairs(text, "germ")
        return cls(tuple((parse_int(mu), parse_rational(d)) for mu, d in pairs))

    def to_json(self) -> list[list[str]]:
        return [[str(mu), str(d)] for mu, d in self.components]


class LcThreshold(NamedTuple):
    c_w: Fraction
    d_w: Fraction


def lct_over_divisor(germ: FiberGerm) -> LcThreshold:
    """Largest c with ``d + c*mu <= 1`` on every component, and ``1 - c``.

    The second value is the multiplicity the divisorial part of adjunction
    assigns to the base point under the germ.
    """
    c = min((1 - d) / mu for mu, d in germ.components)
    return LcThreshold(c, 1 - c)


def divisorial_shift(germ: FiberGerm, c: Fraction) -> FiberGerm:
    """Add ``c`` times the pulled-back fibre to the boundary."""
    c = exact(c)
    return FiberGerm(tuple((mu, d + c * mu) for mu, d in germ.components))


def germ_from_blowups(
    initial: Iterable[tuple[int, Fraction]],
    steps: Iterable[Iterable[tuple[int, int]]],
) -> FiberGerm:
    """Resolution bookkeeping oracle: blow up points until the germ is snc.

    ``initial`` lists the fibre's prime components as (mu, d) pairs; each
    step blows up one point and names the components through it as
    (component index, local multiplicity of that component's curve at the
    point).  The exceptional component picks up

        mu = sum(local_mult * mu_i),   d = sum(local_mult * d_i) - 1,

    i.e. the fibre multiplicity adds up along total transforms while the
    crepant boundary drops by the discrepancy of the blowup.
    """
    comps: list[tuple[int, Fraction]] = [(mu, exact(d)) for mu, d in initial]
    for step in steps:
        mu_new = 0
        d_new = Fraction(-1)
        for index, local_mult in step:
            index = exact_int(index, "component index", 0)
            if index >= len(comps):
                raise PreconditionError(
                    f"component index={index} must be < {len(comps)}, the component count"
                )
            local_mult = exact_int(local_mult, "local_mult", 1)
            mu_i, d_i = comps[index]
            mu_new += local_mult * mu_i
            d_new += local_mult * d_i
        comps.append((mu_new, d_new))
    return FiberGerm(tuple(comps))


# ---------------------------------------------------------------------------
# Degenerate elliptic fibres

# tag -> (discriminant multiplicity d_P, snc resolution germ as (mu, d)
# pairs).  The starred types and IV are snc already, with Kodaira's component
# multiplicities and trivial boundary; II and III need blowups of the cusp
# and the tangency.  The one computed row, mI_n, is in _kodaira_row.
_KODAIRA = {
    "II": (Fraction(1, 6), ((1, 0), (2, -1), (3, -2), (6, -4))),
    "III": (Fraction(1, 4), ((1, 0), (1, 0), (2, -1), (4, -2))),
    "IV": (Fraction(1, 3), ((1, 0), (1, 0), (1, 0), (3, -1))),
    "Istar": (Fraction(1, 2), ((1, 0), (1, 0), (1, 0), (1, 0), (2, 0))),
    "IIstar": (Fraction(5, 6), ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (4, 0), (2, 0), (3, 0))),
    "IIIstar": (Fraction(3, 4), ((1, 0), (2, 0), (3, 0), (4, 0), (3, 0), (2, 0), (1, 0), (2, 0))),
    "IVstar": (Fraction(2, 3), ((1, 0), (1, 0), (1, 0), (2, 0), (2, 0), (2, 0), (3, 0))),
}


@dataclass(frozen=True)
class KodairaType:
    """A degenerate-fibre type of a minimal elliptic fibration."""

    tag: str
    m: int = 1

    def __post_init__(self):
        if self.tag != "mI_n" and self.tag not in _KODAIRA:
            raise DomainError(f"unknown fibre type {self.tag!r}")
        object.__setattr__(self, "m", exact_int(self.m, "fibre multiplicity m", 1))
        if self.tag != "mI_n" and self.m != 1:
            raise PreconditionError(f"type {self.tag} carries no multiplicity")

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        s = text.strip()
        if s.startswith("mI_n"):
            _, _, m = s.partition(":")
            if not m:
                raise DomainError("multiple-fibre type needs a multiplicity, e.g. mI_n:2")
            return cls("mI_n", parse_int(m))
        return cls(s)

    def __str__(self) -> str:
        return f"mI_n:{self.m}" if self.tag == "mI_n" else self.tag


def _kodaira_row(t: KodairaType) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    if t.tag == "mI_n":
        # nodal representative (n = 1): one blowup of the node
        return 1 - Fraction(1, t.m), ((t.m, 0), (2 * t.m, -1))
    return _KODAIRA[t.tag]


def kodaira_dP(t: KodairaType) -> Fraction:
    """Discriminant multiplicity of the fibre type."""
    return _kodaira_row(t)[0]


def kodaira_resolution_germ(t: KodairaType) -> FiberGerm:
    """An snc germ realising the fibre type, for the threshold cross-check.

    The stored pairs are regenerated by the blowup oracle
    :func:`germ_from_blowups` in the test suite and in
    ``scripts/kodaira_germs.py``.
    """
    return FiberGerm(_kodaira_row(t)[1])


# ---------------------------------------------------------------------------
# Canonical bundle formula on a curve base

@dataclass(frozen=True)
class EllipticFibration:
    """A minimal elliptic surface over a curve: genus, fibre types, deg j."""

    base_genus: int
    fibers: tuple[tuple[str, KodairaType], ...]
    j_degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "base_genus", exact_int(self.base_genus, "base_genus", 0))
        object.__setattr__(self, "j_degree", exact_int(self.j_degree, "j_degree", 0))
        labels = [lbl for lbl, _ in self.fibers]
        if len(labels) != len(set(labels)):
            raise DomainError("fibre labels must be pairwise distinct")


@dataclass(frozen=True)
class EllipticAdjunction:
    """Output of the canonical bundle formula: divisorial part, degrees,
    and the lcm of the discriminant denominators."""

    d_div: tuple[tuple[str, Fraction], ...]
    deg_dmod: Fraction
    deg_total: Fraction
    torsion_index: int

    def to_json(self) -> dict:
        return {
            "d_div": [[lbl, str(d)] for lbl, d in self.d_div],
            "deg_dmod": str(self.deg_dmod),
            "deg_total": str(self.deg_total),
            "torsion_index": self.torsion_index,
        }


def elliptic_formula(e: EllipticFibration) -> EllipticAdjunction:
    """Evaluate the canonical bundle formula degree by degree.

    The moduli part contributes deg(j)/12; the total is the degree of
    ``K_base + D_div + D_mod``.  The torsion index is meaningful when the
    total degree and the moduli degree both vanish (then it is the order
    of the canonical class).
    """
    d_div = tuple((lbl, kodaira_dP(t)) for lbl, t in e.fibers)
    deg_dmod = Fraction(e.j_degree, 12)
    deg_total = (2 * e.base_genus - 2) + sum((d for _, d in d_div), Fraction(0)) + deg_dmod
    torsion = math.lcm(*(d.denominator for _, d in d_div)) if d_div else 1
    return EllipticAdjunction(d_div, deg_dmod, deg_total, torsion)


def moduli_degree_ruled(e: int, sections: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """Moduli-part degree ``sum d_i a_i - e`` for four sections on a ruled surface.

    Sections are (multiplicity, fibre offset) pairs; offsets satisfy
    ``a >= e`` except possibly for the one sitting on the minimal section,
    and the multiplicities sum to 2.
    """
    e = exact_int(e, "ruling invariant e", 0)
    secs = [(exact(d), exact(a)) for d, a in sections]
    if len(secs) != 4:
        raise PreconditionError(f"expected exactly 4 sections, got {len(secs)}")
    if sum(d for d, _ in secs) != 2:
        raise PreconditionError("section multiplicities must sum to 2")
    for d, a in secs:
        exact_unit(d, "section multiplicity ")
        if a < 0:
            raise PreconditionError(f"section offset {a} must be >= 0")
    if sum(1 for _, a in secs if a < e) > 1:
        raise PreconditionError("at most one section may sit below the ruling invariant")
    return sum((d * a for d, a in secs), Fraction(0)) - e


# ---------------------------------------------------------------------------
# Surface germ discrepancy bound

class PairDiscrepancy(NamedTuple):
    total: Fraction
    bound_ok: bool
    blowup_discrepancy: Fraction


def pair_discr_bound(lambdas: Iterable[Fraction], eps: Fraction) -> PairDiscrepancy:
    """Check ``sum lambda_i <= 2 - eps`` and report the blowup discrepancy
    ``1 - sum lambda_i`` of the point the curves pass through."""
    eps = exact(eps)
    if eps < 0:
        raise PreconditionError(f"eps={eps} must be >= 0")
    ls = [exact_unit(x, "multiplicity ") for x in lambdas]
    total = sum(ls, Fraction(0))
    return PairDiscrepancy(total, total <= 2 - eps, 1 - total)
