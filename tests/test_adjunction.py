import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complements import (
    DiffInput,
    DomainError,
    EllipticFibration,
    FiberGerm,
    KodairaType,
    MultSet,
    PreconditionError,
    closure,
    diff_in_hyperstandard,
    diff_multiplicity,
    divisorial_shift,
    elliptic_formula,
    germ_from_blowups,
    kodaira_dP,
    kodaira_resolution_germ,
    lct_over_divisor,
    moduli_degree_ruled,
    pair_discr_bound,
    phi_contains,
    phi_enumerate,
    r_n_set,
)
from conftest import load_script
from oracles import shifted_lattice_grid

F = Fraction
KODAIRA_GERMS = load_script("kodaira_germs")
ALL_TYPES = [
    KodairaType("mI_n", 1),
    KodairaType("mI_n", 2),
    KodairaType("mI_n", 3),
    KodairaType("mI_n", 7),
    KodairaType("II"),
    KodairaType("III"),
    KodairaType("IV"),
    KodairaType("Istar"),
    KodairaType("IIstar"),
    KodairaType("IIIstar"),
    KodairaType("IVstar"),
]


class TestDiffMultiplicity:
    def test_smooth_empty(self):
        assert diff_multiplicity(DiffInput(1)) == 0

    def test_index_two(self):
        assert diff_multiplicity(DiffInput(2, ((1, F(0)),))) == F(1, 2)

    def test_index_three_with_half(self):
        assert diff_multiplicity(DiffInput(3, ((1, F(1, 2)),))) == F(5, 6)

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            DiffInput(0)
        with pytest.raises(PreconditionError):
            DiffInput(1, ((-1, F(1, 2)),))
        with pytest.raises(PreconditionError):
            DiffInput(1, ((1, F(3, 2)),))


class TestDiffHyperstandard:
    def test_standard_witness(self):
        cert = diff_in_hyperstandard(MultSet([0, 1]), F(0), DiffInput(2, ((1, F(1, 2)),)))
        assert cert.value == F(3, 4)
        assert (cert.witness.r, cert.witness.m) == (1, 4)

    def test_closure_witness(self):
        R = MultSet.parse("0,2/3,1")
        cert = diff_in_hyperstandard(R, F(0), DiffInput(1, ((1, F(2, 3)),)))
        assert cert.value == F(2, 3)
        assert (cert.witness.r, cert.witness.m) == (F(1, 3), 1)
        assert cert.witness.r in closure(R)

    def test_not_plt(self):
        with pytest.raises(DomainError):
            diff_in_hyperstandard(MultSet([0, 1]), F(0), DiffInput(1, ((2, F(1, 2)),)))

    def test_needs_one_in_set(self):
        with pytest.raises(PreconditionError):
            diff_in_hyperstandard(MultSet([0]), F(0), DiffInput(2))

    def test_rejects_foreign_multiplicity(self):
        with pytest.raises(DomainError):
            diff_in_hyperstandard(MultSet([0, 1]), F(0), DiffInput(2, ((1, F(2, 5)),)))

    def test_tail_flag(self):
        # b = 9/10 lies only in the tail of phi({1}, 1/10); so does d
        cert = diff_in_hyperstandard(MultSet([1]), F(1, 10), DiffInput(1, ((1, F(9, 10)),)))
        assert cert.value == F(9, 10)
        assert cert.in_tail or cert.witness is not None

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_always_certified_on_hyperstandard_inputs(self, n, nterms, data):
        R = MultSet.parse("0,1/2,2/3,1")
        pool = [a for a in phi_enumerate(R, 6)]
        terms = tuple(
            (data.draw(st.integers(min_value=0, max_value=2)), data.draw(st.sampled_from(pool)))
            for _ in range(nterms)
        )
        inp = DiffInput(n, terms)
        if diff_multiplicity(inp) >= 1:
            return
        cert = diff_in_hyperstandard(R, F(0), inp)
        assert cert.witness is not None
        assert 1 - cert.witness.r / cert.witness.m == cert.value


class TestLct:
    def test_smooth_reduced(self):
        assert lct_over_divisor(FiberGerm.parse("1:0")) == (1, 0)

    def test_multiple_fibre(self):
        for m in (2, 3, 12):
            assert lct_over_divisor(FiberGerm.parse(f"{m}:0")) == (F(1, m), 1 - F(1, m))

    def test_cusp_resolution(self):
        assert lct_over_divisor(FiberGerm.parse("1:0,2:-1,3:-2,6:-4")) == (F(5, 6), F(1, 6))

    def test_germ_validation(self):
        with pytest.raises(PreconditionError):
            FiberGerm(())
        with pytest.raises(PreconditionError):
            FiberGerm(((0, F(0)),))
        with pytest.raises(PreconditionError):
            FiberGerm(((1, F(3, 2)),))


class TestShift:
    def test_reduced_by_half(self):
        assert divisorial_shift(FiberGerm.parse("1:0"), F(1, 2)) == FiberGerm.parse("1:1/2")

    def test_multiple_to_lc_boundary(self):
        m = 4
        shifted = divisorial_shift(FiberGerm.parse(f"{m}:0"), F(1, m))
        assert shifted == FiberGerm.parse(f"{m}:1")
        assert lct_over_divisor(shifted) == (0, 1)

    def test_two_components(self):
        shifted = divisorial_shift(FiberGerm.parse("2:0,1:0"), F(1, 4))
        assert shifted == FiberGerm.parse("2:1/2,1:1/4")

    def test_semiadditivity_random(self):
        rng = random.Random(11)
        for _ in range(500):
            comps = []
            for _ in range(rng.randint(1, 5)):
                mu = rng.randint(1, 6)
                d = F(rng.randint(0, 12), 12)
                comps.append((mu, d))
            germ = FiberGerm(tuple(comps))
            base = lct_over_divisor(germ)
            c = F(rng.randint(0, 24), 24) * base.c_w  # keep multiplicities <= 1
            shifted = divisorial_shift(germ, c)
            assert lct_over_divisor(shifted).d_w == base.d_w + c

    def test_effectivity_random(self):
        rng = random.Random(13)
        for _ in range(500):
            comps = tuple(
                (rng.randint(1, 8), F(rng.randint(0, 10), 10))
                for _ in range(rng.randint(1, 5))
            )
            assert lct_over_divisor(FiberGerm(comps)).d_w >= 0

    def test_klt_detection(self):
        # d_W < 1 exactly when every multiplicity stays < 1 at the threshold shift
        germ = FiberGerm.parse("2:1/2,3:0")
        c, d = lct_over_divisor(germ)
        assert d < 1
        saturated = divisorial_shift(germ, c)
        assert any(dd == 1 for _, dd in saturated.components)


class TestBlowupOracle:
    """Regenerate the stored resolution germs by explicit blowup bookkeeping.

    Components are indexed in creation order; each step lists the
    components through the blown-up point with the local multiplicity of
    their curve there.  The recipes are those of ``scripts/kodaira_germs.py``.
    """

    def test_node(self):
        # m I_1: the fibre component passes the node with local multiplicity 2
        for m in (1, 2, 5):
            germ = germ_from_blowups([(m, 0)], [[(0, 2)]])
            assert germ == kodaira_resolution_germ(KodairaType("mI_n", m))

    @pytest.mark.parametrize(
        "t, initial, steps", KODAIRA_GERMS.RECIPES, ids=[str(t) for t, _, _ in KODAIRA_GERMS.RECIPES]
    )
    def test_recipe(self, t, initial, steps):
        assert germ_from_blowups(initial, steps) == kodaira_resolution_germ(t)

    def test_script_reports_every_type_ok(self, capsys):
        assert KODAIRA_GERMS.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 and all(line.endswith("ok") for line in lines)

    @pytest.mark.parametrize(
        "initial, steps, message",
        [
            ([(1, 0), (1, 0)], [[(-1, 1), (0, 1)]], "component index=-1 must be >= 0"),
            ([(1, 0)], [[(5, 1)]], "component index=5 must be < 1, the component count"),
            # the first step's exceptional component is index 1 only from the second step on
            ([(1, 0)], [[(0, 1), (1, 1)]], "component index=1 must be < 1, the component count"),
        ],
    )
    def test_component_index_in_range(self, initial, steps, message):
        with pytest.raises(PreconditionError) as info:
            germ_from_blowups(initial, steps)
        assert str(info.value) == message

    def test_snc_types_have_trivial_boundary(self):
        for tag in ("Istar", "IIstar", "IIIstar", "IVstar"):
            germ = kodaira_resolution_germ(KodairaType(tag))
            assert all(d == 0 for _, d in germ.components)


class TestKodairaTable:
    @pytest.mark.parametrize("t", ALL_TYPES, ids=str)
    def test_threshold_matches_table(self, t):
        assert lct_over_divisor(kodaira_resolution_germ(t)).d_w == kodaira_dP(t)

    def test_table_rows(self):
        assert kodaira_dP(KodairaType.parse("mI_n:1")) == 0
        assert kodaira_dP(KodairaType.parse("mI_n:2")) == F(1, 2)
        assert kodaira_dP(KodairaType.parse("II")) == F(1, 6)
        assert kodaira_dP(KodairaType.parse("III")) == F(1, 4)
        assert kodaira_dP(KodairaType.parse("IV")) == F(1, 3)
        assert kodaira_dP(KodairaType.parse("Istar")) == F(1, 2)
        assert kodaira_dP(KodairaType.parse("IIstar")) == F(5, 6)
        assert kodaira_dP(KodairaType.parse("IIIstar")) == F(3, 4)
        assert kodaira_dP(KodairaType.parse("IVstar")) == F(2, 3)

    def test_parse_validation(self):
        with pytest.raises(DomainError):
            KodairaType.parse("V")
        with pytest.raises(DomainError):
            KodairaType.parse("mI_n")
        with pytest.raises(PreconditionError):
            KodairaType("mI_n", 0)


def _multiple_fibres(ms):
    return tuple(
        (f"P{i}", KodairaType("mI_n", m)) for i, m in enumerate(ms, start=1)
    )


class TestEllipticFormula:
    @pytest.mark.parametrize(
        "ms,torsion,coeffs",
        [
            ((2, 2, 2, 2), 2, ("1/2", "1/2", "1/2", "1/2")),
            ((3, 3, 3), 3, ("2/3", "2/3", "2/3")),
            ((2, 4, 4), 4, ("1/2", "3/4", "3/4")),
            ((2, 3, 6), 6, ("1/2", "2/3", "5/6")),
        ],
    )
    def test_bielliptic_quotients(self, ms, torsion, coeffs):
        out = elliptic_formula(EllipticFibration(0, _multiple_fibres(ms), 0))
        assert out.deg_total == 0
        assert out.deg_dmod == 0
        assert out.torsion_index == torsion
        assert tuple(str(d) for _, d in out.d_div) == coeffs

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_torus_quotient_two_fibres(self, m):
        out = elliptic_formula(EllipticFibration(0, _multiple_fibres((m, m)), 0))
        assert out.d_div == (("P1", 1 - F(1, m)), ("P2", 1 - F(1, m)))
        assert out.deg_dmod == 0
        assert out.deg_total == -F(2, m)

    def test_moduli_degree_counts(self):
        fibers = (("P1", KodairaType("IIstar")), ("P2", KodairaType("mI_n", 1)))
        out = elliptic_formula(EllipticFibration(0, fibers, 14))
        assert out.deg_dmod == F(7, 6)
        assert out.deg_total == -2 + F(5, 6) + F(7, 6)

    def test_higher_genus_base(self):
        out = elliptic_formula(EllipticFibration(2, (), 0))
        assert out.deg_total == 2 and out.torsion_index == 1

    def test_duplicate_labels(self):
        with pytest.raises(DomainError):
            EllipticFibration(0, (("P", KodairaType("II")), ("P", KodairaType("III"))))


class TestRuledModuli:
    def test_all_offsets_zero(self):
        secs = [(F(1, 2), F(0))] * 4
        assert moduli_degree_ruled(0, secs) == 0

    def test_halves_on_f1(self):
        secs = [(F(1, 2), F(0)), (F(1, 2), F(1)), (F(1, 2), F(1)), (F(1, 2), F(1))]
        assert moduli_degree_ruled(1, secs) == F(1, 2)

    def test_attains_zero_bound(self):
        secs = [(F(1), F(0)), (F(1, 3), F(1)), (F(1, 3), F(1)), (F(1, 3), F(1))]
        assert moduli_degree_ruled(1, secs) == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            moduli_degree_ruled(0, [(F(1), F(0))])
        with pytest.raises(PreconditionError):
            moduli_degree_ruled(0, [(F(1, 2), F(0))] * 3 + [(F(1), F(0))])  # sum != 2
        with pytest.raises(PreconditionError):
            moduli_degree_ruled(
                2, [(F(1, 2), F(0)), (F(1, 2), F(1)), (F(1, 2), F(2)), (F(1, 2), F(2))]
            )  # two sections below e

    def test_nonnegative_random(self):
        rng = random.Random(17)
        for _ in range(500):
            e = rng.randint(0, 3)
            ds = [F(rng.randint(1, 8), 8) for _ in range(3)]
            last = 2 - sum(ds)
            if not (0 <= last <= 1):
                continue
            ds.append(last)
            offsets = [F(rng.randint(e, e + 5))] * 4
            offsets[rng.randrange(4)] = F(0) if e > 0 else offsets[0]
            try:
                deg = moduli_degree_ruled(e, list(zip(ds, offsets)))
            except PreconditionError:
                continue
            assert deg >= 0


class TestPairDiscrepancy:
    def test_boundary_case(self):
        out = pair_discr_bound([F(1), F(1)], F(0))
        assert out.total == 2 and out.bound_ok and out.blowup_discrepancy == -1

    def test_violates_gap(self):
        assert not pair_discr_bound([F(1), F(15, 16)], F(1, 8)).bound_ok

    def test_klt_pair(self):
        out = pair_discr_bound([F(1, 2), F(1, 2)], F(1))
        assert out.bound_ok and out.blowup_discrepancy == 0


class TestDivisorialPartMultiplicities:
    """Fibre-germ arithmetic lands in the shifted hyperstandard set."""

    def test_small_grid(self):
        R = MultSet.parse("0,1/2,1")
        lattices = {n: r_n_set(R, n) for n in (1, 2, 3, 4)}
        members = {n: set(lattice.elements) for n, lattice in lattices.items()}
        for n, r, m, k, mu, r_shift, d_o in shifted_lattice_grid(R, lattices, (1, 2, 3), (1, 2, 3)):
            assert 0 <= r_shift <= 1
            assert r_shift in members[n]
            assert d_o == 1 - r_shift / (m * mu)
            assert phi_contains(lattices[n], d_o) is not None
