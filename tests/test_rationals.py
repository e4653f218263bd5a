from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complements import (
    ApproxResult,
    BoundaryP1,
    DiffInput,
    DomainError,
    FiberGerm,
    MultSet,
    PreconditionError,
    diff_in_hyperstandard,
    diff_multiplicity,
    divisorial_shift,
    format_rational,
    germ_from_blowups,
    lcm_denominators,
    lct_over_divisor,
    moduli_degree_ruled,
    pair_discr_bound,
    parse_rational,
    phi_contains,
    phi_eps_contains,
    pn_contains,
    pn_lemma_check,
    quality_bound_holds,
    simultaneous_approx,
    verify_floor_claim,
)
from complements.rationals import parse_int, split_items
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
