import inspect
import sys
import typing
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import complements
from complements import (
    ApproxResult,
    BoundaryP1,
    ClosureElement,
    ComplementCertificate,
    ComplementVariant,
    DiffInput,
    DomainError,
    EllipticFibration,
    FiberGerm,
    KodairaType,
    LcThreshold,
    MultSet,
    PhiWitness,
    PreconditionError,
    complement_exists,
    diff_in_hyperstandard,
    diff_multiplicity,
    divisorial_shift,
    elliptic_formula,
    enumerate_N1,
    enumerate_N1_sweep,
    epsilon_from_N,
    format_rational,
    germ_from_blowups,
    kodaira_dP,
    lcm_denominators,
    lct_over_divisor,
    min_complement_index,
    moduli_degree_ruled,
    openness_radius,
    pair_discr_bound,
    parse_rational,
    phi_contains,
    phi_enumerate,
    phi_eps_contains,
    pn_contains,
    pn_lemma_check,
    quality_bound_holds,
    r_n_set,
    scale_certificate,
    scan_minimal_indices,
    simultaneous_approx,
    verify_floor_claim,
)
from complements.rationals import clip, parse_int, split_items
from conftest import unit_fractions

F = Fraction
R01 = MultSet([0, 1])
HALF = ApproxResult(2, (1,), F(0), True)

# (entry point, call taking one caller scalar, exact values to feed it)
ENTRY_POINTS = [
    ("simultaneous_approx", lambda x: simultaneous_approx([x, F(1, 3)], 10), [F(1, 2), F(1)]),
    ("verify_floor_claim", lambda x: verify_floor_claim([x], HALF, 2), [F(1, 2), F(0)]),
    ("quality_bound_holds", lambda x: quality_bound_holds(x, 1, 3), [F(1, 20), F(0)]),
    ("pair_discr_bound.lambdas", lambda x: pair_discr_bound([x, 1], 0), [F(15, 16), F(1)]),
    ("pair_discr_bound.eps", lambda x: pair_discr_bound([1, F(15, 16)], x), [F(1, 8), F(0)]),
    ("moduli_degree_ruled.d", lambda x: moduli_degree_ruled(1, [(x, 0), (x, 1), (1, 1), (0, 1)]), [F(1, 2)]),
    ("moduli_degree_ruled.a", lambda x: moduli_degree_ruled(1, [(F(1, 2), x)] + [(F(1, 2), 1)] * 3), [F(3, 2), F(2)]),
    ("germ_from_blowups", lambda x: germ_from_blowups([(1, x)], [[(0, 2)]]), [F(1, 3), F(0)]),
    ("divisorial_shift", lambda x: divisorial_shift(FiberGerm(((1, 0), (2, -1))), x), [F(1, 2), F(1)]),
    ("DiffInput", lambda x: diff_multiplicity(DiffInput(2, ((1, x),))), [F(1, 2), F(1)]),
    ("FiberGerm", lambda x: lct_over_divisor(FiberGerm(((1, x), (2, -1)))), [F(1, 10), F(0)]),
    ("phi_contains", lambda x: phi_contains(R01, x), [F(3, 4), F(1)]),
    ("phi_eps_contains.eps", lambda x: phi_eps_contains(R01, x, F(5, 7)), [F(1, 3), F(0)]),
    ("phi_eps_contains.a", lambda x: phi_eps_contains(R01, F(1, 10), x), [F(2, 3), F(1)]),
    ("pn_contains", lambda x: pn_contains(2, x), [F(1, 2), F(1)]),
    ("pn_lemma_check", lambda x: pn_lemma_check(R01, 2, x, 5), [F(1, 3), F(0)]),
    ("format_rational", format_rational, [F(1, 2), F(5)]),
    ("diff_in_hyperstandard", lambda x: diff_in_hyperstandard(R01, x, DiffInput(2, ((1, F(1, 2)),))), [F(1, 10), F(0)]),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, v, id=f"{name}-{v}") for name, call, values in ENTRY_POINTS for v in values],
)
def test_entry_point_takes_exact_scalars_only(call, value):
    expected = call(value)
    assert call(f"{value.numerator}/{value.denominator}") == expected
    if value.denominator == 1:
        assert call(value.numerator) == expected
    with pytest.raises(DomainError, match="not an exact rational"):
        call(float(value))


E8 = BoundaryP1.from_mults([F(1, 2), F(2, 3), F(5, 6)])
GEQ = ComplementVariant.GEQ
CERT6 = ComplementCertificate(6, (3, 4, 5))

# (parameter, call taking the integer, a valid value, its result, a value
# below the bound, the error that value raises)
INT_PARAMS = [
    ("ComplementCertificate.n", lambda n: ComplementCertificate(n, (n, n)), 1,
     ComplementCertificate(1, (1, 1)), 0, "index n=0 must be >= 1"),
    ("complement_exists.n", lambda n: complement_exists(E8, n, GEQ), 6, CERT6, 0,
     "index n=0 must be >= 1"),
    ("min_complement_index.I", lambda i: min_complement_index(E8, i, 12, GEQ), 3, 6, 0,
     "I=0 must be >= 1"),
    ("min_complement_index.n_max", lambda n: min_complement_index(E8, 2, n, GEQ), 10, 6, 1,
     "n_max=1 must be >= I=2"),
    ("scale_certificate.I", lambda i: scale_certificate(CERT6, E8, i), 2,
     ComplementCertificate(12, (6, 8, 10)), 0, "I=0 must be >= 1"),
    ("openness_radius.n", lambda n: openness_radius(BoundaryP1.from_mults([F(2, 3), F(1, 2)]), n),
     3, F(1, 12), 0, "index n=0 must be >= 1"),
    ("epsilon_from_N.N", epsilon_from_N, 4, F(1, 6), 0, "N=0 must be >= 1"),
    ("enumerate_N1.m_max", lambda m: enumerate_N1(R01, m, 10).indices, 20, (1, 2, 3, 4, 6), 0,
     "m_max=0 must be >= 1"),
    ("enumerate_N1.n_max", lambda n: enumerate_N1(R01, 20, n).indices, 10, (1, 2, 3, 4, 6), 0,
     "n_max=0 below I(R)=1"),
    ("enumerate_N1_sweep.m_maxes", lambda m: [r.indices for r in enumerate_N1_sweep(R01, [8, m], 10)],
     12, [(1, 2, 3, 4, 6)] * 2, 0, "m_max=0 must be >= 1"),
    ("enumerate_N1_sweep.n_max", lambda n: [r.indices for r in enumerate_N1_sweep(R01, [8], n)],
     10, [(1, 2, 3, 4, 6)], 0, "n_max=0 below I(R)=1"),
    ("scan_minimal_indices.m_max", lambda m: len(list(scan_minimal_indices(R01, m, 1))), 2, 7, 0,
     "m_max=0 must be >= 1"),
    ("scan_minimal_indices.n_max", lambda n: list(scan_minimal_indices(R01, 1, n)), 1,
     [((), 1), ((1, 1), 1)], 0, "n_max=0 below I(R)=1"),
    ("PhiWitness.m", lambda m: PhiWitness(F(3, 4), F(1), m).m, 4, 4, 0,
     "witness multiplier m=0 must be >= 1"),
    ("ClosureElement.m", lambda m: ClosureElement(F(1, 3), F(2, 3), m, (F(2, 3),)).m, 1, 1, 0,
     "multiplier m=0 must be >= 1"),
    ("phi_enumerate.m_max", lambda m: phi_enumerate(R01, m), 4, MultSet([0, F(1, 2), F(2, 3), F(3, 4), 1]),
     0, "m_max=0 must be >= 1"),
    ("r_n_set.n", lambda n: r_n_set(R01, n), 2, MultSet([0, F(1, 2), 1]), 0, "n=0 must be >= 1"),
    ("pn_contains.n", lambda n: pn_contains(n, F(3, 10)), 2, False, 0, "n=0 must be >= 1"),
    ("pn_lemma_check.n", lambda n: pn_lemma_check(R01, n, 0, 5), 2, True, 0, "n=0 must be >= 1"),
    ("pn_lemma_check.m_max", lambda m: pn_lemma_check(R01, 2, 0, m), 5, True, 0,
     "m_max=0 must be >= 1"),
    ("DiffInput.n", lambda n: diff_multiplicity(DiffInput(n, ((1, F(1, 2)),))), 3, F(5, 6), 0,
     "germ index n=0 must be >= 1"),
    ("DiffInput.terms.k", lambda k: diff_multiplicity(DiffInput(3, ((k, F(1, 2)),))), 1, F(5, 6), -1,
     "intersection number k=-1 must be >= 0"),
    ("FiberGerm.components.mu", lambda mu: lct_over_divisor(FiberGerm(((mu, 0),))), 2,
     LcThreshold(F(1, 2), F(1, 2)), 0, "fibre multiplicity mu=0 must be >= 1"),
    ("KodairaType.m", lambda m: kodaira_dP(KodairaType("mI_n", m)), 2, F(1, 2), 0,
     "fibre multiplicity m=0 must be >= 1"),
    ("EllipticFibration.base_genus", lambda g: elliptic_formula(EllipticFibration(g, ())).deg_total,
     1, 0, -1, "base_genus=-1 must be >= 0"),
    ("EllipticFibration.j_degree", lambda j: elliptic_formula(EllipticFibration(0, (), j)).deg_total,
     6, F(-3, 2), -1, "j_degree=-1 must be >= 0"),
    ("moduli_degree_ruled.e", lambda e: moduli_degree_ruled(e, [(F(1, 2), 1)] * 4), 1, 1, -1,
     "ruling invariant e=-1 must be >= 0"),
    ("germ_from_blowups.local_mult", lambda k: germ_from_blowups([(1, 0)], [[(0, k)]]), 2,
     FiberGerm(((1, 0), (2, -1))), 0, "local_mult=0 must be >= 1"),
    ("quality_bound_holds.r", lambda r: quality_bound_holds(F(1, 20), r, 3), 1, True, 0,
     "dimension r=0 must be >= 1"),
    ("quality_bound_holds.q", lambda q: quality_bound_holds(F(1, 20), 1, q), 3, True, 0,
     "denominator q=0 must be >= 1"),
    ("simultaneous_approx.q_max", lambda q: simultaneous_approx([F(2, 3), F(1, 3)], q), 3,
     ApproxResult(3, (2, 1), F(0), True), 1, "q_max=1 must be >= 2"),
    ("verify_floor_claim.N", lambda n: verify_floor_claim([F(1, 2)], HALF, n), 2, True, 0,
     "N=0 must be >= 1"),
]

# Integer parameters that are no caller input: fields of results and errors
# the package builds itself, and the per-point kernel point_requirement,
# whose n complement_exists checks before calling it.
INT_EXEMPT = {
    "ApproxResult.q",
    "ApproximationError.q_max",
    "EllipticAdjunction.torsion_index",
    "EnumerationCapError.n_max",
    "point_requirement.n",
}


@pytest.mark.parametrize(
    "call, valid, result, below, message", [pytest.param(*p[1:], id=p[0]) for p in INT_PARAMS]
)
def test_integer_parameter_takes_ints_only(call, valid, result, below, message):
    assert call(valid) == result
    for bad in (2.5, 2.0, F(2), "2"):
        with pytest.raises(DomainError, match="^not an integer: "):
            call(bad)
    with pytest.raises(PreconditionError) as info:
        call(below)
    assert str(info.value) == message


def test_every_integer_parameter_is_in_the_table():
    annotated = set()
    for name in complements.__all__:
        obj = getattr(complements, name)
        targets = [obj, vars(obj).get("__init__")] if inspect.isclass(obj) else [obj]
        for target in filter(callable, targets):
            hints = typing.get_type_hints(target)
            annotated |= {f"{name}.{p}" for p, hint in hints.items() if hint is int and p != "return"}
    assert INT_EXEMPT <= annotated
    assert annotated - INT_EXEMPT - {p[0] for p in INT_PARAMS} == set()


class TestParse:
    def test_identity(self):
        assert parse_rational("13/18") == Fraction(13, 18)

    def test_reduction(self):
        assert parse_rational("6/8") == Fraction(3, 4)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            parse_rational("5/0")

    def test_integers_and_signs(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational(" 2/4 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/2/3", "1e3", "/2"])
    def test_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_integers(self):
        assert parse_int(" -12 ") == -12
        with pytest.raises(DomainError, match="malformed integer: '1/2'"):
            parse_int("1/2")

    def test_clip(self):
        assert clip("1/2") == "'1/2'"
        assert clip("7" * 100) == "'" + "7" * 76 + "..."
        assert len(clip("7" * 100)) == 80

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on int() digits")
    def test_clip_integer_past_digit_limit(self):
        huge = -(10 ** (sys.get_int_max_str_digits() + 1))
        assert clip(Fraction(huge)) == "<Fraction too large to print>"
        with pytest.raises(PreconditionError, match=r"^n=<int too large to print> must be >= 1$"):
            r_n_set(R01, huge)

    def test_split_items(self):
        assert split_items(" 0, ,1/2,,1 ") == ["0", "1/2", "1"]
        assert split_items(" , ") == []

    def test_format_canonical(self):
        assert format_rational(Fraction(4, 8)) == "1/2"
        assert format_rational(Fraction(5, 1)) == "5"


class TestLcmDenominators:
    def test_twelfth_roots_set(self):
        s = MultSet.parse("0,1/2,2/3,3/4,5/6,1")
        assert lcm_denominators(s) == 12

    def test_integers_only(self):
        assert lcm_denominators(MultSet([0, 1])) == 1

    def test_single_fraction(self):
        assert lcm_denominators(MultSet.parse("0,2/5,1")) == 5

    def test_all_zero(self):
        assert lcm_denominators(MultSet([0])) == 1

    def test_empty(self):
        with pytest.raises(PreconditionError):
            lcm_denominators(MultSet([]))

    @given(st.frozensets(unit_fractions, min_size=1, max_size=6))
    def test_invariant_under_integer_elements(self, values):
        base = MultSet(values)
        padded = MultSet(set(values) | {Fraction(0), Fraction(1)})
        assert lcm_denominators(base) == lcm_denominators(padded)


class TestMultSet:
    def test_sorted_dedup(self):
        s = MultSet.parse("1,0,1/2,2/4")
        assert s.elements == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            MultSet.parse("3/2")
        with pytest.raises(DomainError):
            MultSet([Fraction(-1, 2)])

    def test_json(self):
        assert MultSet.parse("0,1/2,1").to_json() == ["0", "1/2", "1"]


class TestBoundaryP1:
    def test_auto_labels_and_degree(self):
        b = BoundaryP1.parse("1/2,2/3,5/6")
        assert [lbl for lbl, _ in b] == ["P1", "P2", "P3"]
        assert b.degree == 2

    def test_explicit_labels(self):
        b = BoundaryP1.parse("a=1/2,b=1")
        assert b.points == (("a", Fraction(1, 2)), ("b", Fraction(1)))

    def test_duplicate_labels(self):
        with pytest.raises(DomainError):
            BoundaryP1([("p", Fraction(1, 2)), ("p", Fraction(1, 3))])

    def test_multiplicity_range(self):
        with pytest.raises(DomainError):
            BoundaryP1.parse("3/2")
