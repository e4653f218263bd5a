"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -s``).

Every expected value below is either frozen from an independent hand
computation, re-verified in place by a brute-force oracle from
``tests/oracles.py``, or phrased as a stabilization statement across
truncation caps.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest

import complements
from complements import (
    BoundaryP1,
    ComplementVariant,
    DiffInput,
    EllipticFibration,
    FiberGerm,
    KodairaType,
    MultSet,
    certificate_is_valid,
    closure,
    complement_exists,
    diff_in_hyperstandard,
    diff_multiplicity,
    divisorial_shift,
    elliptic_formula,
    enumerate_N1,
    kodaira_dP,
    kodaira_resolution_germ,
    lcm_denominators,
    lct_over_divisor,
    moduli_degree_ruled,
    openness_radius,
    phi_contains,
    phi_enumerate,
    pn_contains,
    pn_lemma_check,
    r_n_set,
    scale_certificate,
    scan_minimal_indices,
    simultaneous_approx,
    verify_floor_claim,
)
from oracles import least_r_witness, oracle_min_index, shifted_lattice_grid, walk_closure

F = Fraction
DEF = ComplementVariant.DEFINITION
GEQ = ComplementVariant.GEQ
TWELVE_SET = MultSet.parse("0,1/2,2/3,3/4,5/6,1")


def _report(label, fn):
    try:
        fn()
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


# ---------------------------------------------------------------------------
# 1. standard multiplicities

def test_criterion_1_standard_n1():
    def check():
        expected = (1, 2, 3, 4, 6)
        report = enumerate_N1(MultSet([0, 1]), 20, 10)
        assert report.indices == expected, f"got {report.indices}"
        for idx, witness in report.witnesses.items():
            assert oracle_min_index(witness.mults, 1, 10, DEF) == idx
        for cap in range(20, 61):
            swept = enumerate_N1(MultSet([0, 1]), cap, 10)
            assert swept.indices == expected, f"cap {cap} gave {swept.indices}"

    _report("criterion 1 (standard-set minimal indices {1,2,3,4,6})", check)


# ---------------------------------------------------------------------------
# 2. the twelve-set

def test_criterion_2_twelve_set_sweep():
    def check():
        expected = tuple(12 * k for k in (1, 2, 3, 4, 5, 7, 8, 9, 11))
        small = {12 * k for k in (1, 2, 3, 4, 5)}
        n_max = 200
        per_cap = {}
        for cap in range(12, 49):
            indices = set()
            for mults, idx in scan_minimal_indices(TWELVE_SET, cap, n_max):
                assert idx is not None, f"cap {cap}: no index <= {n_max} for {mults}"
                assert idx % 12 == 0, f"cap {cap}: index {idx} not a multiple of 12"
                if any(d == 1 for d in mults):
                    assert idx in small, f"boundary {mults} with a full point gave {idx}"
                if cap == 12:  # re-derive every minimal index by brute force once
                    assert oracle_min_index(mults, 12, n_max, DEF) == idx
                indices.add(idx)
            per_cap[cap] = tuple(sorted(indices))
        stabilized = set(per_cap.values())
        assert len(stabilized) == 1, f"sweep did not stabilize: {sorted(stabilized)}"
        got = per_cap[48]
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        assert got == expected, (
            f"twelve-set indices differ from the expected table: "
            f"missing={missing} extra={extra} got={list(got)}"
        )
        # one witness per index, re-verified by brute force
        report = enumerate_N1(TWELVE_SET, 48, n_max)
        assert report.indices == expected
        for idx, witness in report.witnesses.items():
            assert oracle_min_index(witness.mults, 12, n_max, DEF) == idx

    _report("criterion 2 (twelve-set sweep stabilizes to 12*{1,2,3,4,5,7,8,9,11})", check)


# ---------------------------------------------------------------------------
# 3. the discriminant table

def test_criterion_3_kodaira_table():
    def check():
        types = [KodairaType("mI_n", m) for m in (1, 2, 3, 5, 12)] + [
            KodairaType(tag)
            for tag in ("II", "III", "IV", "Istar", "IIstar", "IIIstar", "IVstar")
        ]
        tags_covered = {t.tag for t in types}
        assert len(tags_covered) == 8
        for t in types:
            germ = kodaira_resolution_germ(t)
            assert lct_over_divisor(germ).d_w == kodaira_dP(t), f"mismatch at {t}"

    _report("criterion 3 (fibre-type table reproduced by thresholds, 8/8)", check)


# ---------------------------------------------------------------------------
# 4. bielliptic quotient table

def test_criterion_4_bielliptic_table():
    def check():
        table = [
            ((2, 2, 2, 2), 2, ["1/2", "1/2", "1/2", "1/2"]),
            ((3, 3, 3), 3, ["2/3", "2/3", "2/3"]),
            ((2, 4, 4), 4, ["1/2", "3/4", "3/4"]),
            ((2, 3, 6), 6, ["1/2", "2/3", "5/6"]),
        ]
        for ms, torsion, coeffs in table:
            fibers = tuple(
                (f"P{i}", KodairaType("mI_n", m)) for i, m in enumerate(ms, start=1)
            )
            out = elliptic_formula(EllipticFibration(0, fibers, 0))
            assert out.deg_total == 0, f"{ms}: deg {out.deg_total}"
            assert out.torsion_index == torsion, f"{ms}: torsion {out.torsion_index}"
            assert [str(d) for _, d in out.d_div] == coeffs

    _report("criterion 4 (bielliptic-surface table: degrees 0, torsion 2/3/4/6)", check)


# ---------------------------------------------------------------------------
# 5. property suites

SET_POOL = [
    MultSet([0, 1]),
    MultSet([1]),
    MultSet.parse("0,1/2,1"),
    MultSet.parse("0,2/3,1"),
    MultSet.parse("0,2/5,1"),
    MultSet.parse("0,1/2,2/3,3/4,5/6,1"),
    MultSet.parse("0,3/7,1/2,1"),
]


def test_criterion_5a_pn_lemma():
    def check():
        rng = random.Random(501)
        checked = 0
        while checked < 10_000:
            R = rng.choice(SET_POOL)
            interval = lcm_denominators(R)
            n = interval * rng.randint(1, 10)
            eps = F(rng.randint(0, n + 1), (n + 1) ** 2)  # within [0, 1/(n+1)]
            assert pn_lemma_check(R, n, eps, 40)
            # spot-check the analytic tail as well
            a = 1 - eps * F(rng.randint(0, 16), 16)
            assert pn_contains(n, a)
            checked += len(phi_enumerate(R, 40)) + 1

    _report("criterion 5a (floor criterion contains the truncated set)", check)


def _random_pn_boundary(rng, n):
    pool = [d for d in phi_enumerate(rng.choice(SET_POOL), 8) if pn_contains(n, d)]
    k = rng.randint(0, 4)
    return BoundaryP1.from_mults(rng.choice(pool) for _ in range(k)) if pool else None


def test_criterion_5b_domination_and_5c_coincidence():
    def check():
        rng = random.Random(502)
        checked = 0
        while checked < 10_000:
            n = rng.randint(1, 60)
            D = _random_pn_boundary(rng, n)
            if D is None:
                continue
            a = complement_exists(D, n, DEF)
            b = complement_exists(D, n, GEQ)
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b
                for num, (_, d) in zip(a.numerators, D):
                    assert F(num, n) >= d, f"no domination at n={n}, D={D}"
            checked += 1

    _report("criterion 5b/5c (domination and variant coincidence on P_n inputs)", check)


def test_criterion_5d_scaling():
    def check():
        rng = random.Random(503)
        checked = 0
        while checked < 10_000:
            n = rng.randint(1, 40)
            k = rng.randint(0, 4)
            D = BoundaryP1.from_mults(F(rng.randint(0, 30), 30) for _ in range(k))
            cert = complement_exists(D, n, GEQ)
            if cert is None:
                continue
            for I in (2, rng.randint(3, 20)):
                scaled = scale_certificate(cert, D, I)
                assert scaled.n == n * I
                assert certificate_is_valid(scaled, D, GEQ)
                assert certificate_is_valid(scaled, D, DEF)
            checked += 1

    _report("criterion 5d (certificates scale to every multiple index)", check)


def test_criterion_5e_openness():
    def check():
        rng = random.Random(504)
        checked = 0
        while checked < 10_000:
            n = rng.randint(1, 24)
            k = rng.randint(1, 4)
            mults = [F(rng.randint(0, 24), 24) for _ in range(k)]
            D = BoundaryP1.from_mults(mults)
            cert = complement_exists(D, n, DEF)
            if cert is None:
                continue
            radius = openness_radius(D, n)
            for _ in range(10):
                moved = []
                for d in mults:
                    delta = radius * F(rng.randint(-999, 999), 1000)
                    moved.append(min(F(1), max(F(0), d + delta)))
                assert certificate_is_valid(cert, BoundaryP1.from_mults(moved), DEF)
            checked += 1

    _report("criterion 5e (perturbations inside the radius keep certificates)", check)


def test_criterion_5f_divisorial_part():
    def check():
        rng = random.Random(505)
        for _ in range(10_000):
            comps = tuple(
                (rng.randint(1, 8), F(rng.randint(0, 12), 12))
                for _ in range(rng.randint(1, 5))
            )
            germ = FiberGerm(comps)
            base = lct_over_divisor(germ)
            assert base.d_w >= 0  # effectivity for boundary germs
            assert (base.d_w < 1) == all(d < 1 for _, d in comps)  # klt detection
            c = base.c_w * F(rng.randint(0, 16), 16)
            assert lct_over_divisor(divisorial_shift(germ, c)).d_w == base.d_w + c

    _report("criterion 5f (effectivity and semiadditivity of the divisorial part)", check)


def test_criterion_5g_diff_containment():
    def check():
        rng = random.Random(506)
        pools, listed = {}, {}
        for R in (MultSet([0, 1]), MultSet.parse("0,1/2,1"), MultSet.parse("0,2/3,1"), TWELVE_SET):
            pools[R] = list(phi_enumerate(R, 40))
            listed[R] = walk_closure(R)
        checked = 0
        while checked < 10_000:
            R = rng.choice(list(pools))
            eps = rng.choice([F(0), F(1, 40), F(1, 13)])
            terms = []
            for _ in range(rng.randint(0, 3)):
                if rng.randint(0, 7) < 7:
                    b = rng.choice(pools[R])
                else:
                    b = 1 - eps * F(rng.randint(0, 8), 8)  # tail values
                terms.append((rng.randint(0, 2), b))
            inp = DiffInput(rng.randint(1, 12), tuple(terms))
            if diff_multiplicity(inp) >= 1:
                continue
            cert = diff_in_hyperstandard(R, eps, inp)
            assert cert.witness is not None or cert.in_tail
            w = cert.witness
            assert (None if w is None else (w.r, w.m)) == least_r_witness(listed[R], cert.value)
            checked += 1

    _report("criterion 5g (adjunction multiplicities certified hyperstandard)", check)


def test_criterion_5h_shifted_lattice_grid():
    def check():
        lattices = {n: r_n_set(TWELVE_SET, n) for n in range(1, 13)}
        members = {n: set(lattices[n].elements) for n in lattices}
        cases = 0
        grid = shifted_lattice_grid(TWELVE_SET, range(1, 13), range(1, 13), range(1, 13))
        for n, r, m, k, mu, r_shift, d_o in grid:
            assert 0 <= r_shift <= 1
            assert r_shift in members[n], (n, k, mu, r, m)
            assert d_o == 1 - r_shift / (m * mu)
            cases += 1
        assert cases >= 10_000, f"grid too small: {cases}"
        # sanity: the witness really proves phi-membership on a sample
        rng = random.Random(507)
        for _ in range(200):
            n = rng.randint(1, 12)
            x = rng.choice(sorted(members[n]))
            m = rng.randint(1, 6)
            assert phi_contains(lattices[n], 1 - F(x, m)) is not None

    _report("criterion 5h (fibre multiplicities land in the shifted lattice)", check)


def test_criterion_5i_closure_invariants():
    def check():
        universe = [F(0), F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
        rng = random.Random(508)
        cases = 0
        seen = set()
        # exhaustive over all nonempty subsets of the small universe
        for mask in range(1, 1 << len(universe)):
            values = frozenset(x for i, x in enumerate(universe) if mask >> i & 1)
            seen.add(values)
        # plus random sets with per-element denominators <= 12
        while len(seen) < 3_500:
            size = rng.randint(1, 4)
            draw = []
            for _ in range(size):
                den = rng.randint(1, 12)
                draw.append(F(rng.randint(0, den), den))
            seen.add(frozenset(draw))
        for values in seen:
            R = MultSet(values)
            closed = closure(R)
            assert set(R.elements) <= set(closed.elements)
            assert all(0 <= x <= 1 for x in closed)
            assert lcm_denominators(R) == lcm_denominators(closed)
            cases += 3
        assert cases >= 10_000

    _report("criterion 5i (closure contains R, stays in [0,1], keeps the lcm)", check)


def test_criterion_5j_ruled_moduli_nonnegative():
    def check():
        rng = random.Random(509)
        checked = 0
        while checked < 10_000:
            e = rng.randint(0, 4)
            ds = [F(rng.randint(0, 12), 12) for _ in range(3)]
            last = 2 - sum(ds)
            if not (0 <= last <= 1):
                continue
            ds.append(last)
            offsets = [F(rng.randint(e, e + 6), rng.randint(1, 2)) for _ in range(4)]
            offsets[rng.randrange(4)] = F(rng.randint(0, e))
            secs = list(zip(ds, offsets))
            if sum(1 for _, a in secs if a < e) > 1:
                continue
            assert moduli_degree_ruled(e, secs) >= 0
            checked += 1

    _report("criterion 5j (ruled-surface moduli degree nonnegative)", check)


# ---------------------------------------------------------------------------
# 6. Diophantine approximation

def test_criterion_6_diophantine():
    def check():
        rng = random.Random(600)
        for _ in range(100):
            r = rng.randint(1, 3)
            den = rng.randint(2, 10_000)
            b0 = [F(rng.randint(0, den), den) for _ in range(r)]
            assert all(x.denominator <= 10_000 for x in b0)
            out = simultaneous_approx(b0, 10_000)
            assert out.cassels_ok and out.q <= 10_000
            assert isinstance(out.error, F)
            for N in (1, 3):
                constrained = [x for x, m in zip(b0, out.numerators) if m < out.q]
                if not constrained or max(constrained) + out.q * N * out.error < 1:
                    assert verify_floor_claim(b0, out, N)

    _report("criterion 6a (qualifying denominators found, floor claim holds)", check)


# module -> attributes that return floats; the clocks' *_ns variants are ints
FLOAT_SINKS = {
    "math": {"sqrt", "exp", "log", "log2", "log10", "pow", "sin", "cos", "tan", "hypot"},
    "time": {"time", "perf_counter", "monotonic", "process_time"},
}
INT_CALLS = {"floor", "ceil", "lcm", "gcd"}


def _int_by_syntax(node):
    """Whether the expression is an int whatever its operands hold: an int
    literal, ``len(...)``, ``math.floor/ceil/lcm/gcd(...)``, a ``//`` result,
    or one of these negated."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return _int_by_syntax(node.operand)
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.FloorDiv)
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name):
            return fn.id == "len"
        return (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "math"
            and fn.attr in INT_CALLS
        )
    return False


def audit_exactness(source, name):
    """Raise AssertionError at the first floating-point code path in the source."""
    tree = ast.parse(source, filename=name)
    # The body of rationals.exact, which rejects floats first, is the one
    # place a caller's value may become a Fraction directly.
    boundary = {
        id(node)
        for fn in tree.body
        if name == "rationals.py" and isinstance(fn, ast.FunctionDef) and fn.name == "exact"
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            raise AssertionError(f"float literal {node.value} in {name}")
        if isinstance(node, ast.Name) and node.id == "float":
            raise AssertionError(f"float conversion in {name}")
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in FLOAT_SINKS.get(node.value.id, ())
        ):
            raise AssertionError(f"{node.value.id}.{node.attr} in {name}, line {node.lineno}")
        # Fraction division is exact; int / int is a float.
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and _int_by_syntax(node.left)
            and _int_by_syntax(node.right)
        ):
            raise AssertionError(f"int / int division in {name}, line {node.lineno}")
        # Caller input becomes a Fraction only through rationals.exact, which
        # rejects floats; Fraction(x) of a variable would accept one.
        if (
            id(node) not in boundary
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.Name, ast.Attribute, ast.Subscript))
        ):
            raise AssertionError(f"Fraction() of a variable in {name}, line {node.lineno}")


def test_criterion_6_exactness_audit():
    def check():
        pkg_dir = pathlib.Path(complements.__file__).parent
        scripts = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
        assert scripts, "no scripts to audit"
        for path in sorted(pkg_dir.glob("*.py")) + scripts:
            audit_exactness(path.read_text(), path.name)

    _report("criterion 6b (no floating-point code path in the package or its scripts)", check)


@pytest.mark.parametrize(
    "inexact, exact",
    [
        ("x = len(parts) / 2", "x = Fraction(len(parts)) / 2"),
        ("x = math.floor(t) / (n // k)", "x = math.floor(t) / Fraction(n // k)"),
        ("x = -1 / math.lcm(a, b)", "x = Fraction(-1) / math.lcm(a, b)"),
    ],
)
def test_exactness_audit_flags_int_division(inexact, exact):
    with pytest.raises(AssertionError, match="int / int division"):
        audit_exactness(inexact, "snippet.py")
    audit_exactness(exact, "snippet.py")


@pytest.mark.parametrize("clock", ["time", "perf_counter", "monotonic", "process_time"])
def test_exactness_audit_flags_float_clock(clock):
    with pytest.raises(AssertionError, match=f"time.{clock} in snippet.py"):
        audit_exactness(f"t = time.{clock}()", "snippet.py")
    audit_exactness(f"t = time.{clock}_ns()", "snippet.py")


@pytest.mark.parametrize("coercion", ["x = Fraction(x)", "x = Fraction(b.eps)", "x = Fraction(bs[0])"])
def test_exactness_audit_flags_unchecked_coercion(coercion):
    for name in ("snippet.py", "rationals.py"):
        with pytest.raises(AssertionError, match="Fraction\\(\\) of a variable"):
            audit_exactness(coercion, name)
    audit_exactness(f"def exact(x):\n    {coercion}", "rationals.py")
    with pytest.raises(AssertionError, match="Fraction\\(\\) of a variable"):
        audit_exactness(f"def exact(x):\n    {coercion}", "snippet.py")


def recursive_functions(source):
    """Names of the functions in the source that call themselves, by name
    or as a method through ``self`` or ``cls``."""
    names = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == fn.name)
                or (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("self", "cls")
                    and node.func.attr == fn.name
                )
            )
            for node in ast.walk(fn)
        ):
            names.append(fn.name)
    return names


def test_no_function_in_the_package_calls_itself():
    # A recursive walk fails on deep valid input at the recursion limit.
    pkg_dir = pathlib.Path(complements.__file__).parent
    found = [
        f"{path.name}: {fn}"
        for path in sorted(pkg_dir.glob("*.py"))
        for fn in recursive_functions(path.read_text())
    ]
    assert found == []


def test_recursion_audit_flags_self_calls():
    source = (
        "def outer(n):\n"
        "    def walk(k):\n        return walk(k - 1) if k else 0\n"
        "    return walk(n)\n"
        "class C:\n    def f(self, k):\n        return self.f(k - 1) if k else g(k)\n"
        "def g(k):\n    return C().f(k)\n"
    )
    assert sorted(recursive_functions(source)) == ["f", "walk"]


@pytest.mark.parametrize("checked", ["x = exact(x)", "x = Fraction(len(p))", "x = Fraction(1, n)"])
def test_exactness_audit_passes_checked_coercion(checked):
    audit_exactness(checked, "snippet.py")
