import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complements import (
    BoundaryP1,
    ComplementCertificate,
    ComplementVariant,
    DomainError,
    EnumerationCapError,
    MultSet,
    PreconditionError,
    certificate_is_valid,
    complement_exists,
    enumerate_N1,
    enumerate_N1_sweep,
    epsilon_from_N,
    min_complement_index,
    openness_radius,
    pn_contains,
    scale_certificate,
    scan_minimal_indices,
)
from oracles import oracle_min_index

F = Fraction
DEF = ComplementVariant.DEFINITION
GEQ = ComplementVariant.GEQ


boundary_mults = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=60), min_size=0, max_size=5
)


class TestComplementExists:
    def test_two_full_points(self):
        for variant in (DEF, GEQ):
            cert = complement_exists(BoundaryP1.parse("1,1"), 1, variant)
            assert cert.numerators == (1, 1) and cert.extra_points == ()

    def test_definition_at_one(self):
        cert = complement_exists(BoundaryP1.parse("1,2/3,1/3"), 1, DEF)
        assert cert.numerators == (1, 1, 0)

    def test_geq_at_one_fails(self):
        assert complement_exists(BoundaryP1.parse("1,2/3,1/3"), 1, GEQ) is None

    def test_slack_goes_to_general_points(self):
        cert = complement_exists(BoundaryP1.parse("1/2"), 3, DEF)
        assert cert.numerators == (2,)
        assert sum(cert.extra_points) == 4 and all(1 <= a <= 3 for a in cert.extra_points)

    def test_empty_boundary(self):
        cert = complement_exists(BoundaryP1([]), 1, GEQ)
        assert cert.extra_points == (1, 1)

    @given(boundary_mults, st.integers(min_value=1, max_value=40))
    def test_degree_obstruction(self, mults, n):
        D = BoundaryP1.from_mults(mults)
        if D.degree > 2:
            assert complement_exists(D, n, GEQ) is None

    @given(boundary_mults, st.integers(min_value=1, max_value=40))
    def test_certificates_are_valid(self, mults, n):
        D = BoundaryP1.from_mults(mults)
        for variant in (DEF, GEQ):
            cert = complement_exists(D, n, variant)
            if cert is not None:
                assert certificate_is_valid(cert, D, variant)


class TestMinIndex:
    def test_e8_boundary(self):
        D = BoundaryP1.parse("1/2,2/3,5/6")
        assert min_complement_index(D, 1, 10, GEQ) == 6 == oracle_min_index(D.mults, 1, 10, GEQ)

    def test_e7_boundary(self):
        D = BoundaryP1.parse("1/2,2/3,3/4")
        assert min_complement_index(D, 1, 10, GEQ) == 4 == oracle_min_index(D.mults, 1, 10, GEQ)

    def test_eighteenths_row(self):
        D = BoundaryP1.parse("1,13/18,5/18")
        assert min_complement_index(D, 12, 120, GEQ) == 36
        assert oracle_min_index(D.mults, 12, 120, GEQ) == 36

    def test_none_when_capped(self):
        D = BoundaryP1.parse("1/2,2/3,5/6")
        assert min_complement_index(D, 1, 5, GEQ) is None

    @pytest.mark.parametrize(
        "d2,d3,expected",
        [
            ("13/18", "5/18", 36),
            ("3/4", "1/4", 12),
            ("7/9", "2/9", 36),
            ("19/24", "5/24", 24),
            ("4/5", "1/5", 60),
            ("13/16", "3/16", 48),
            ("5/6", "1/6", 12),
        ],
    )
    def test_full_point_case_table(self, d2, d3, expected):
        # boundaries (1, d2, d3) raised to a full point all land in 12*{1..5}
        D = BoundaryP1.parse(f"1,{d2},{d3}")
        got = min_complement_index(D, 12, 60, GEQ)
        assert got == expected == oracle_min_index(D.mults, 12, 60, GEQ)
        assert got in {12 * k for k in range(1, 6)}

    @given(boundary_mults, st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, mults, I):
        D = BoundaryP1.from_mults(mults)
        for variant in (DEF, GEQ):
            assert min_complement_index(D, I, 48, variant) == oracle_min_index(
                mults, I, 48, variant
            )

    @given(boundary_mults, st.integers(min_value=0, max_value=4), st.fractions(min_value=0, max_value=1, max_denominator=30))
    @settings(max_examples=80, deadline=None)
    def test_geq_monotone_in_multiplicities(self, mults, pos, bump):
        if not mults or pos >= len(mults):
            return
        raised = list(mults)
        raised[pos] = min(F(1), raised[pos] + bump)
        lo = min_complement_index(BoundaryP1.from_mults(mults), 1, 60, GEQ)
        hi = min_complement_index(BoundaryP1.from_mults(raised), 1, 60, GEQ)
        if lo is None:
            assert hi is None  # a larger boundary cannot gain an index
        elif hi is not None:
            assert hi >= lo


class TestScaling:
    def test_full_pair(self):
        D = BoundaryP1.parse("1,1")
        cert = complement_exists(D, 1, GEQ)
        scaled = scale_certificate(cert, D, 5)
        assert scaled.n == 5 and scaled.numerators == (5, 5)

    def test_e8_doubles(self):
        D = BoundaryP1.parse("1/2,2/3,5/6")
        cert = complement_exists(D, 6, GEQ)
        scaled = scale_certificate(cert, D, 2)
        assert scaled.n == 12
        assert certificate_is_valid(scaled, D, GEQ)
        assert certificate_is_valid(scaled, D, DEF)

    def test_requires_domination(self):
        D = BoundaryP1.parse("1,2/3,1/3")
        cert = complement_exists(D, 1, DEF)  # numerator 0 below 1/3
        with pytest.raises(PreconditionError):
            scale_certificate(cert, D, 2)

    @given(boundary_mults, st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_geq_certificates_always_scale(self, mults, n, I):
        D = BoundaryP1.from_mults(mults)
        cert = complement_exists(D, n, GEQ)
        if cert is None:
            return
        scaled = scale_certificate(cert, D, I)
        assert scaled.n == n * I
        assert certificate_is_valid(scaled, D, GEQ)


class TestVariantCoincidence:
    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), min_size=0, max_size=4), st.integers(min_value=1, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_agree_on_pn_boundaries(self, mults, n):
        if not all(pn_contains(n, d) for d in mults):
            return
        D = BoundaryP1.from_mults(mults)
        a = complement_exists(D, n, DEF)
        b = complement_exists(D, n, GEQ)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b
            # the definition-variant complement dominates the boundary
            for num, d in zip(a.numerators, mults):
                assert F(num, n) >= d


class TestOpenness:
    def test_single_half(self):
        assert openness_radius(BoundaryP1.parse("1/2"), 2) == F(1, 6)

    def test_no_constraining_component(self):
        assert openness_radius(BoundaryP1.parse("1,1"), 1) == 1

    def test_two_points(self):
        assert openness_radius(BoundaryP1.parse("2/3,1/2"), 3) == F(1, 12)

    def test_perturbation_stability_sample(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            k = rng.randint(1, 4)
            n = rng.randint(1, 24)
            mults = [F(rng.randint(0, 12), 12) for _ in range(k)]
            D = BoundaryP1.from_mults(mults)
            cert = complement_exists(D, n, DEF)
            if cert is None:
                continue
            radius = openness_radius(D, n)
            for _ in range(10):
                moved = []
                for d in mults:
                    delta = F(rng.randint(-10**6 + 1, 10**6 - 1), 10**6) * radius
                    moved.append(min(F(1), max(F(0), d + delta)))
                assert certificate_is_valid(cert, BoundaryP1.from_mults(moved), DEF)
            checked += 1


class TestEpsilonFromN:
    def test_values(self):
        assert epsilon_from_N(6) == F(1, 8)
        assert epsilon_from_N(1) == F(1, 3)
        assert epsilon_from_N(132) == F(1, 134)


class TestEnumerateN1:
    def test_standard_set(self):
        report = enumerate_N1(MultSet([0, 1]), 20, 10)
        assert report.indices == (1, 2, 3, 4, 6)
        assert report.cap_used == (20, 10)
        for idx, witness in report.witnesses.items():
            assert oracle_min_index(witness.mults, 1, 10, DEF) == idx

    def test_trivial_set(self):
        report = enumerate_N1(MultSet([1]), 1, 2)
        assert report.indices == (1,)
        assert len(report.witnesses[1]) == 0  # the empty boundary

    def test_deterministic(self):
        a = enumerate_N1(MultSet([0, 1]), 20, 10)
        b = enumerate_N1(MultSet([0, 1]), 20, 10)
        assert a.indices == b.indices and a.witnesses == b.witnesses

    def test_requires_positive_element(self):
        with pytest.raises(PreconditionError):
            enumerate_N1(MultSet([0]), 5, 5)

    def test_cap_error_names_boundary(self):
        with pytest.raises(EnumerationCapError) as err:
            enumerate_N1(MultSet([0, 1]), 20, 5)  # (1/2,2/3,5/6) needs 6
        assert err.value.n_max == 5 and len(err.value.mults) > 0

    def test_scan_boundaries_are_admissible(self):
        for mults, idx in scan_minimal_indices(MultSet([0, 1]), 8, 10):
            total = sum(mults, F(0))
            assert total == 2 or all(d < 1 for d in mults)
            assert total <= 2
            assert idx == oracle_min_index(mults, 1, 10, DEF)

    def test_sweep_shape(self):
        reports = list(enumerate_N1_sweep(MultSet([0, 1]), [8, 12, 16], 10))
        assert [r.cap_used[0] for r in reports] == [8, 12, 16]
        assert all(r.indices == (1, 2, 3, 4, 6) for r in reports)


class TestCertificateStructure:
    def test_degree_must_close(self):
        with pytest.raises(PreconditionError):
            ComplementCertificate(2, (1, 1), (1,))  # sums to 3, needs 4

    def test_numerators_capped_by_n(self):
        with pytest.raises(PreconditionError):
            ComplementCertificate(2, (3, 1))

    @pytest.mark.parametrize(
        "numerators, extras",
        [((1.5, 2.5), (2,)), ((F(3, 2), F(5, 2)), (2,)), ((1, 3), (2.0,)), ((1, 3), (F(2),))],
    )
    def test_numerators_are_integers(self, numerators, extras):
        with pytest.raises(DomainError, match="^not an integer: "):
            ComplementCertificate(3, numerators, extras)

    def test_stores_tuples(self):
        cert = ComplementCertificate(3, [1, 3], [2])
        assert (cert.numerators, cert.extra_points) == ((1, 3), (2,))
        assert cert == ComplementCertificate(3, (1, 3), (2,))
