import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complements import (
    MultSet,
    PreconditionError,
    closure,
    closure_elements,
    closure_is_idempotent,
    lcm_denominators,
    phi_contains,
    phi_enumerate,
    phi_eps_contains,
    pn_contains,
    pn_lemma_check,
    r_n_set,
    r_prime,
)
from complements import hyperstandard
from conftest import small_sets, unit_fractions
from oracles import (
    brute_closure, closed_twice_is_closed, least_r_witness, multiset_walk_oracle,
    pn_truncation_holds, walk_closure,
)

F = Fraction
STANDARD = MultSet([0, 1])


class TestPhiContains:
    def test_standard_three_quarters(self):
        w = phi_contains(STANDARD, F(3, 4))
        assert (w.r, w.m) == (1, 4)

    def test_one_needs_zero(self):
        w = phi_contains(STANDARD, F(1))
        assert (w.r, w.m) == (0, 1)
        assert phi_contains(MultSet([1]), F(1)) is None

    def test_zero_from_r_equal_one(self):
        w = phi_contains(MultSet([1]), F(0))
        assert (w.r, w.m) == (1, 1)

    def test_absent(self):
        # 1 - 1/m = 2/5 would need m = 5/3
        assert phi_contains(MultSet([1]), F(2, 5)) is None

    def test_standard_form_present(self):
        w = phi_contains(MultSet([1]), F(4, 5))
        assert (w.r, w.m) == (1, 5)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            phi_contains(STANDARD, F(3, 2))

    @given(small_sets, unit_fractions)
    def test_witness_is_sound(self, values, a):
        R = MultSet(values)
        w = phi_contains(R, a)
        if w is not None:
            assert w.r in R and w.m >= 1 and 1 - w.r / w.m == a

    @given(small_sets, st.integers(min_value=1, max_value=20))
    def test_complete_on_truncation(self, values, m_max):
        R = MultSet(values)
        for a in phi_enumerate(R, m_max):
            assert phi_contains(R, a) is not None


class TestPhiEnumerate:
    def test_standard_m4(self):
        assert phi_enumerate(STANDARD, 4) == MultSet.parse("0,1/2,2/3,3/4,1")

    def test_single_one(self):
        assert phi_enumerate(MultSet([1]), 1) == MultSet([0])

    def test_with_half(self):
        assert phi_enumerate(MultSet.parse("0,1/2,1"), 2) == MultSet.parse("0,1/2,3/4,1")

    def test_truncation_required(self):
        with pytest.raises(PreconditionError):
            phi_enumerate(STANDARD, 0)


class TestPhiEps:
    def test_interval_part(self):
        assert phi_eps_contains(MultSet([1]), F(1, 8), F(15, 16))

    def test_phi_part(self):
        assert phi_eps_contains(STANDARD, F(0), F(4, 5))

    def test_neither(self):
        # 2/5 is below the tail and not of the form 1 - 1/m
        assert not phi_eps_contains(MultSet([1]), F(1, 8), F(2, 5))

    def test_standard_form_below_tail(self):
        assert phi_eps_contains(MultSet([1]), F(1, 8), F(4, 5))

    @given(small_sets, unit_fractions, unit_fractions, unit_fractions)
    def test_monotone_in_eps(self, values, e1, e2, a):
        R = MultSet(values)
        lo, hi = min(e1, e2), max(e1, e2)
        if phi_eps_contains(R, lo, a):
            assert phi_eps_contains(R, hi, a)


class TestClosure:
    def test_standard_closed(self):
        assert closure(STANDARD) == STANDARD

    def test_two_thirds(self):
        assert closure(MultSet.parse("0,2/3,1")) == MultSet.parse("0,1/3,2/3,1")

    def test_half(self):
        assert closure(MultSet.parse("0,1/2,1")) == MultSet.parse("0,1/2,1")

    def test_empty(self):
        with pytest.raises(PreconditionError):
            closure(MultSet([]))

    @pytest.mark.parametrize(
        "text",
        ["0,1", "0,2/3,1", "0,1/2,1", "0,1/2,2/3,3/4,5/6,1", "1/5,1", "0,3/7,1/2,1"],
    )
    def test_against_brute_oracle(self, text):
        R = MultSet(text.split(","))
        assert set(closure(R).elements) == brute_closure(R)

    def test_walk_matches_multiset_walk_oracle(self):
        rng = random.Random("closure-walk")
        cases = 0
        for _ in range(200):
            dens = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
            R = MultSet(F(rng.randint(0, d), d) for d in dens)
            for S in (R, closure(R)):
                if len(S) <= 16:
                    got = [(e.value, e.r0, e.m, e.parts) for e in closure_elements(S)]
                    assert got == multiset_walk_oracle(S), S
                    cases += 1
        assert cases > 300

    def test_walk_needs_no_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            elements = closure_elements(MultSet.parse("0,199/200,1"))
        finally:
            sys.setrecursionlimit(limit)
        assert len(elements) == 201

    def test_witnesses_validate(self):
        for el in closure_elements(MultSet.parse("0,1/2,2/3,3/4,5/6,1")):
            assert el.value == el.r0 - el.m * sum((1 - p for p in el.parts), F(0))
            assert all(p < 1 for p in el.parts)

    @given(small_sets)
    @settings(max_examples=60, deadline=None)
    def test_contains_r_and_stays_in_unit(self, values):
        R = MultSet(values)
        closed = closure(R)
        assert set(R.elements) <= set(closed.elements)
        assert all(0 <= x <= 1 for x in closed)

    @given(small_sets)
    @settings(max_examples=60, deadline=None)
    def test_preserves_lcm(self, values):
        R = MultSet(values)
        assert lcm_denominators(R) == lcm_denominators(closure(R))

    @pytest.mark.parametrize(
        "text", ["0,1", "0,2/3,1", "0,1/2,1", "0,1/2,2/3,3/4,5/6,1", "1/5,1"]
    )
    def test_idempotent_on_known_sets(self, text):
        assert closure_is_idempotent(MultSet(text.split(",")))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_lattice_sets_are_closed(self, k):
        # restrictions of additive subgroups (1/k)Z are fixed points
        R = MultSet(F(j, k) for j in range(k + 1))
        assert closure(R) == R


# the sets of the closure tests above
CLOSURE_TEST_SETS = [
    "0,1", "0,2/3,1", "0,1/2,1", "0,1/2,2/3,3/4,5/6,1", "1/5,1", "0,3/7,1/2,1", "0,199/200,1",
    *(",".join(str(F(j, k)) for j in range(k + 1)) for k in range(3, 7)),  # k = 1, 2 are above
    # costs 10, 11, 32 at scale 40: 22 = 11 + 11 is the least sum = 2 (mod 10),
    # though 32 is reached with fewer parts
    "1/5,29/40,3/4,1",
]


def random_small_closures(seed, count, max_size):
    """Random sets whose closure has at most ``max_size`` values, as in
    ``test_walk_matches_multiset_walk_oracle``."""
    rng = random.Random(seed)
    while count:
        dens = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        R = MultSet(F(rng.randint(0, d), d) for d in dens)
        if len(closure(R)) <= max_size:
            yield R
            count -= 1


class TestCostMonoid:
    @pytest.mark.parametrize("text", CLOSURE_TEST_SETS)
    def test_membership_matches_closure(self, text):
        R = MultSet(text.split(","))
        costs = hyperstandard._cost_monoid(R)
        D = costs.scale
        once = set(closure(R).elements)
        for x in range(D + 1):
            member = any(t >= x and t - x in costs for t in costs.tops)
            assert member == (F(x, D) in once), F(x, D)

    def test_idempotent_matches_recomputation(self):
        for R in random_small_closures("idempotent", 150, 16):
            assert closure_is_idempotent(R) == closed_twice_is_closed(R), R

    @pytest.mark.parametrize("change", ["add", "drop"])
    def test_idempotence_check_catches_a_wrong_closure(self, monkeypatch, change):
        # closure {0, 1/5, 3/5}; the value 1 costs nothing, so only the
        # comparison with the generated values can reject it
        R = MultSet.parse("0,3/5")
        assert closure_is_idempotent(R)
        values = {"add": "0,1/5,3/5,1", "drop": "0,3/5"}[change]
        wrong = tuple(hyperstandard.ClosureElement(v, v, 1, ()) for v in MultSet.parse(values))
        monkeypatch.setattr(hyperstandard, "closure_elements", lambda S: wrong)
        assert not closure_is_idempotent(R)

    def test_phi_witness_matches_least_r_over_closure(self):
        rng = random.Random("closure-phi")
        probes = 0
        for R in random_small_closures("closure-phi", 100, 40):
            values = walk_closure(R)
            D = lcm_denominators(R)
            for _ in range(20):
                den = rng.choice([D, D * rng.randint(2, 5), rng.randint(1, 30)])
                a = F(rng.randint(0, den - 1), den)
                w = hyperstandard._closure_phi_witness(R, a)
                assert (None if w is None else (w.r, w.m)) == least_r_witness(values, a), (R, a)
                probes += w is not None
        assert probes > 300


class TestShiftLattices:
    def test_standard_halves(self):
        assert r_n_set(STANDARD, 2) == MultSet.parse("0,1/2,1")

    def test_integer_shifts(self):
        assert r_n_set(STANDARD, 1) == STANDARD

    def test_thirds_already_periodic(self):
        assert r_n_set(MultSet.parse("0,2/3,1"), 3) == MultSet.parse("0,1/3,2/3,1")

    def test_union_two(self):
        assert r_prime(STANDARD, {1, 2}) == MultSet.parse("0,1/2,1")

    def test_union_single(self):
        assert r_prime(STANDARD, {1}) == STANDARD

    def test_union_standard_indices(self):
        expected = MultSet.parse("0,1/6,1/4,1/3,1/2,2/3,3/4,5/6,1")
        assert r_prime(STANDARD, {1, 2, 3, 4, 6}) == expected

    def test_empty_indices(self):
        with pytest.raises(PreconditionError):
            r_prime(STANDARD, set())


class TestPnCriterion:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_one_always_in(self, n):
        assert pn_contains(n, F(1))

    def test_half_at_two(self):
        assert pn_contains(2, F(1, 2))

    def test_three_tenths_at_two(self):
        assert not pn_contains(2, F(3, 10))

    def test_outside_unit_interval(self):
        assert not pn_contains(3, F(-1, 2))
        assert not pn_contains(3, F(5, 4))

    def test_floor_equals_ceil_exhaustive(self):
        # For a = p/q < 1 in the criterion set: floor((n+1)a) == ceil(n a).
        # Pure-integer sweep over denominators <= 200 and n <= 100.
        for q in range(1, 201):
            for p in range(0, q):
                for n in range(1, 101):
                    lhs = ((n + 1) * p) // q
                    if lhs * q >= n * p:  # p/q is in the criterion set
                        assert lhs == -((-n * p) // q)

    def test_lemma_inclusion_standard(self):
        assert pn_lemma_check(STANDARD, 6, F(1, 7), 1000)

    def test_lemma_inclusion_half(self):
        assert pn_lemma_check(MultSet.parse("0,1/2,1"), 2, F(0), 500)

    def test_lemma_needs_divisibility(self):
        with pytest.raises(PreconditionError):
            pn_lemma_check(MultSet.parse("0,2/3,1"), 1, F(0), 10)

    def test_lemma_eps_cap(self):
        with pytest.raises(PreconditionError):
            pn_lemma_check(STANDARD, 6, F(1, 2), 10)

    def test_lemma_matches_full_enumeration(self):
        # every set {0, p/d, 1} with d <= 6, every m_max up to 2(n+1)
        for d in range(2, 7):
            for p in range(1, d):
                R = MultSet([0, F(p, d), 1])
                interval = lcm_denominators(R)
                for n in (interval, 2 * interval):
                    for m_max in range(1, 2 * (n + 1) + 1):
                        assert pn_lemma_check(R, n, F(1, n + 1), m_max) == pn_truncation_holds(
                            R, n, m_max
                        ), (R, n, m_max)

    @given(small_sets, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_lemma_over_random_sets(self, values, k):
        R = MultSet(values)
        n = k * lcm_denominators(R)
        assert pn_lemma_check(R, n, F(1, n + 1), 60)

    @pytest.mark.parametrize("text", ["0,1", "0,1/2,1", "0,1/2,2/3,3/4,5/6,1"])
    @pytest.mark.parametrize("k", [1, 7])
    def test_deep_truncation_inclusion(self, text, k):
        R = MultSet(text.split(","))
        n = k * lcm_denominators(R)
        assert all(pn_contains(n, a) for a in phi_enumerate(R, 1000))
