import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complements import (
    ApproximationError,
    ApproxResult,
    PreconditionError,
    quality_bound_holds,
    simultaneous_approx,
    verify_floor_claim,
)
from oracles import convergents

F = Fraction


class TestSimultaneousApprox:
    def test_exact_half(self):
        out = simultaneous_approx([F(1, 2)], 100)
        assert (out.q, out.numerators, out.error) == (2, (1,), 0)
        assert out.cassels_ok

    def test_exact_thirds(self):
        out = simultaneous_approx([F(2, 3), F(1, 3)], 100)
        assert (out.q, out.numerators, out.error) == (3, (2, 1), 0)

    def test_surrogate_irrational(self):
        b = F(169, 239)
        out = simultaneous_approx([b], 1000)
        assert out.q <= 1000
        assert out.error * out.q**2 < F(1, 2)
        # every admissible hit is a continued-fraction convergent
        assert F(out.numerators[0], out.q) in set(convergents(b))
        assert out.error == abs(b - F(out.numerators[0], out.q))

    def test_ties_break_downward(self):
        out = simultaneous_approx([F(1, 3)], 6)
        assert out.q >= 1
        # at q = 3 the hit is exact regardless of ties; probe the tie rule directly
        from complements.approximation import _nearest_down

        assert _nearest_down(1, 2, 1) == 0  # 1/2 rounds down to 0
        assert _nearest_down(3, 4, 2) == 1  # 3/2 rounds down to 1
        assert _nearest_down(2, 3, 1) == 1  # 2/3 rounds to 1 (no tie)

    def test_failure_reports_best(self):
        with pytest.raises(ApproximationError) as err:
            simultaneous_approx([F(2, 3), F(1, 3)], 2)
        assert err.value.best.q == 2 and err.value.best.error == F(1, 6)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            simultaneous_approx([], 10)
        with pytest.raises(PreconditionError):
            simultaneous_approx([F(1, 2)], 1)
        with pytest.raises(PreconditionError):
            simultaneous_approx([F(3, 2)], 10)

    @given(
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40), min_size=1, max_size=3)
    )
    @settings(max_examples=150, deadline=None)
    def test_scan_stops_by_common_denominator(self, b):
        q0 = 1
        for x in b:
            q0 = math.lcm(q0, x.denominator)
        out = simultaneous_approx(b, max(q0, 2))
        assert out.q <= q0
        assert out.cassels_ok
        assert out.error == max(abs(F(m, out.q) - x) for m, x in zip(out.numerators, b))

    def test_quality_bound_cross_multiplication(self):
        # r=1: error < 1/(2 q^2)
        assert quality_bound_holds(F(1, 9), 1, 2)
        assert not quality_bound_holds(F(1, 8), 1, 2)
        # r=2: error < 1/(3 q^(3/2)); at q=2 the threshold is 1/(3*2*sqrt(2))
        assert quality_bound_holds(F(1, 9), 2, 2)
        assert not quality_bound_holds(F(1, 8), 2, 2)


class TestFloorClaim:
    def test_half_at_two(self):
        approx = ApproxResult(2, (1,), F(0), True)
        assert verify_floor_claim([F(1, 2)], approx, 1)

    def test_full_components_skipped(self):
        approx = ApproxResult(1, (1,), F(0), True)  # b = 1/1, unconstrained
        assert verify_floor_claim([F(9, 10)], approx, 3)

    def test_nine_tenths_exact(self):
        approx = ApproxResult(10, (9,), F(0), True)
        assert verify_floor_claim([F(9, 10)], approx, 2)

    def test_fails_below_threshold(self):
        # b0 = 2/3 approximated by 1/2: c + qN|b0-b| = 2/3 + 2*(1/6) = 1
        approx = ApproxResult(2, (1,), F(1, 6), False)
        assert not verify_floor_claim([F(2, 3)], approx, 1)

    def test_holds_above_threshold(self):
        approx = ApproxResult(3, (2,), F(0), True)
        assert verify_floor_claim([F(2, 3)], approx, 1)

    def test_alignment_validated(self):
        approx = ApproxResult(2, (1,), F(0), True)
        with pytest.raises(PreconditionError):
            verify_floor_claim([F(1, 2), F(1, 3)], approx, 1)

    def test_threshold_criterion_random(self):
        # whenever c + qN*error < 1 the claim must hold
        rng = random.Random(23)
        for _ in range(400):
            r = rng.randint(1, 3)
            b0 = [F(rng.randint(0, 24), 24) for _ in range(r)]
            q0 = 1
            for x in b0:
                q0 = math.lcm(q0, x.denominator)
            out = simultaneous_approx(b0, max(2, q0))
            N = rng.randint(1, 4)
            constrained = [x for x, m in zip(b0, out.numerators) if m < out.q]
            if not constrained:
                assert verify_floor_claim(b0, out, N)
                continue
            c = max(constrained)
            if c + out.q * N * out.error < 1:
                assert verify_floor_claim(b0, out, N)
