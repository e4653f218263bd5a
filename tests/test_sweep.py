"""The one-walk cap sweep and the integer walk against their per-cap originals.

``fraction_scan`` is the walk as it ran in ``Fraction`` arithmetic, one
value at a time, and ``per_cap_sweep`` runs the enumeration afresh at each
cap on top of it.  The library's integer walk and single-walk sweep must
reproduce both exactly: same boundaries in the same order, same reports,
and the same error at the same place.
"""

import random
from fractions import Fraction

import pytest

from complements import (
    EnumerationCapError,
    MultSet,
    PreconditionError,
    enumerate_N1_sweep,
    lcm_denominators,
    scan_minimal_indices,
)
from complements.cli import run
from oracles import fraction_scan, per_cap_sweep

F = Fraction
TWELVE_SET = MultSet.parse("0,1/2,2/3,3/4,5/6,1")


def outcomes(reports):
    """Each report as plain data, then the error that ended the run, if any."""
    out = []
    try:
        for report in reports:
            out.append(("report", report.indices, report.to_json(), report.cap_used))
    except EnumerationCapError as exc:
        out.append(("cap error", str(exc), exc.mults, exc.n_max))
    except PreconditionError as exc:
        out.append(("precondition", str(exc)))
    return out


def random_set(rng):
    """``{0, 1}`` and one or two values ``p/d`` with ``d <= 6``."""
    extra = set()
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(2, 6)
        extra.add(F(rng.randint(1, d - 1), d))
    return MultSet([0, 1, *extra])


def random_caps(rng):
    caps = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.5:
        caps.append(rng.choice(caps))  # a repeated cap
    if rng.random() < 0.3:
        caps.insert(rng.randrange(len(caps) + 1), rng.choice([0, -2]))  # an invalid cap
    rng.shuffle(caps)
    return caps


class TestIntegerWalk:
    @pytest.mark.parametrize(
        "R, m_max, n_max, size",
        [
            (MultSet([0, 1]), 20, 10, None),
            (MultSet([0, 1]), 20, 5, None),  # some boundaries have no index
            (TWELVE_SET, 12, 200, None),
            (TWELVE_SET, 48, 200, 26869),
            # The packed fields.  I = 1 packs the most of them, and their width
            # grows by a bit where 2 * n_max + 2 reaches 64 (n_max 31) and 128
            # (n_max 63).  At odd n, (1/2, 1/2, 1/2, 1/2) needs 2n + 2, so its
            # field sits at bias - 2, the least a field takes.
            *((MultSet([0, 1]), 14, n_max, 127) for n_max in (30, 31, 62, 63, 64)),
            # I = 2: (1/2, 1/2, 1/2, 1/2) needs exactly 2n, so its field sits at
            # bias, the least with the guard bit set; at n = 2 (mod 3) (2/3, 2/3,
            # 2/3) needs 2n + 2.  With the one candidate n = 2 (n_max 2, 3) the
            # empty boundary's field, bias + 4, needs every bit of the width.
            *((MultSet([0, F(1, 2), 1]), 8, n_max, 98) for n_max in (2, 3, 31, 63)),
        ],
    )
    def test_matches_fraction_walk(self, R, m_max, n_max, size):
        got = list(scan_minimal_indices(R, m_max, n_max))
        assert got == list(fraction_scan(R, m_max, n_max))
        assert size is None or len(got) == size
        assert all(isinstance(d, Fraction) for mults, _ in got for d in mults)

    def test_matches_fraction_walk_on_random_sets(self):
        rng = random.Random(20060624)
        for _ in range(12):
            R = random_set(rng)
            I = lcm_denominators(R)
            m_max, n_max = rng.randint(1, 14), I * rng.randint(1, 8)
            assert list(scan_minimal_indices(R, m_max, n_max)) == list(
                fraction_scan(R, m_max, n_max)
            ), (R, m_max, n_max)


class TestOneWalkSweep:
    def test_matches_per_cap_runs(self):
        rng = random.Random(606242)
        kinds = set()
        for _ in range(60):
            R = random_set(rng)
            caps = random_caps(rng)
            n_max = lcm_denominators(R) * rng.randint(1, 6) - rng.randint(0, 1)
            want = outcomes(per_cap_sweep(R, caps, n_max))
            assert outcomes(enumerate_N1_sweep(R, caps, n_max)) == want, (R, caps, n_max)
            kinds.update(entry[0] for entry in want)
        assert kinds == {"report", "cap error", "precondition"}

    @pytest.mark.parametrize(
        "R, caps, n_max",
        [
            (MultSet([0, 1]), [4, 2, 4, 9, 20, 3], 5),  # fails from cap 5 on, after 3 reports
            (MultSet([0, 1]), [3, 0, 4], 5),
            (MultSet([0, 1, F(1, 2)]), [5, 2], 1),  # n_max below I(R) = 2
            (MultSet([0]), [2], 5),  # no positive element
            (MultSet([0]), [], 5),
            (TWELVE_SET, [30, 12, 48, 12, 13], 200),
        ],
    )
    def test_named_cases(self, R, caps, n_max):
        assert outcomes(enumerate_N1_sweep(R, caps, n_max)) == outcomes(
            per_cap_sweep(R, caps, n_max)
        )


class TestSweepCli:
    @pytest.mark.parametrize(
        "caps, first, error",
        [
            ("2,20,4", '{"m_max":2,"n_max":5,"indices":[1,2]}',
             "error: no admissible index <= 5 for boundary (1/2, 2/3, 4/5)"),
            ("3,0,4", '{"m_max":3,"n_max":5,"indices":[1,2,3]}',
             "error: m_max=0 must be >= 1"),
        ],
    )
    def test_output_before_an_error(self, capsys, caps, first, error):
        code = run(["n1-sweep", "--set", "0,1", "--m-max", caps, "--n-max", "5"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, first + "\n", error + "\n")
