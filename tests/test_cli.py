import ast
import json
import pathlib
import sys

import pytest

from complements import cli
from complements.cli import run
from conftest import load_script

INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestTextOutput:
    def test_n1_standard(self, capsys):
        code, out, _ = invoke(capsys, "n1", "--set", "0,1", "--m-max", "20", "--n-max", "10")
        assert code == 0 and out.strip() == "{1,2,3,4,6}"

    def test_min_index_e8(self, capsys):
        code, out, _ = invoke(capsys, "min-index", "--boundary", "1/2,2/3,5/6", "--variant", "geq")
        assert code == 0 and out.strip() == "6"

    def test_kodaira_iistar(self, capsys):
        code, out, _ = invoke(capsys, "kodaira", "--type", "IIstar")
        assert code == 0 and out.strip() == "5/6"

    def test_phi_membership(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--set", "0,1", "--value", "3/4")
        assert code == 0 and out.strip() == "yes (r=1, m=4)"

    def test_phi_enumerate(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--set", "0,1", "--m-max", "4")
        assert code == 0 and out.strip() == "{0,1/2,2/3,3/4,1}"

    def test_closure(self, capsys):
        code, out, _ = invoke(capsys, "closure", "--set", "0,2/3,1")
        assert code == 0 and out.strip() == "{0,1/3,2/3,1}"

    def test_closure_interval(self, capsys):
        code, out, _ = invoke(capsys, "closure", "--set", "0,1/2,2/3,3/4,5/6,1", "--interval")
        assert code == 0 and out.strip() == "12"

    def test_rn_union(self, capsys):
        code, out, _ = invoke(capsys, "rn", "--set", "0,1", "--n", "1,2,3,4,6")
        assert code == 0 and out.strip() == "{0,1/6,1/4,1/3,1/2,2/3,3/4,5/6,1}"

    def test_pn_value(self, capsys):
        code, out, _ = invoke(capsys, "pn", "--n", "2", "--value", "3/10")
        assert code == 0 and out.strip() == "false"

    def test_complement(self, capsys):
        code, out, _ = invoke(
            capsys, "complement", "--boundary", "1,2/3,1/3", "--n", "1", "--variant", "definition"
        )
        assert code == 0 and out.strip() == "n=1 numerators=1,1,0 extra=-"

    def test_complement_absent(self, capsys):
        code, out, _ = invoke(
            capsys, "complement", "--boundary", "1,2/3,1/3", "--n", "1", "--variant", "geq"
        )
        assert code == 0 and out.strip() == "none"

    def test_lct_cusp(self, capsys):
        code, out, _ = invoke(capsys, "lct", "--germ", "1:0,2:-1,3:-2,6:-4")
        assert code == 0 and out.strip() == "c_w=5/6 d_w=1/6"

    def test_radius(self, capsys):
        code, out, _ = invoke(capsys, "radius", "--boundary", "2/3,1/2", "--n", "3")
        assert code == 0 and out.strip() == "1/12"

    def test_diff(self, capsys):
        code, out, _ = invoke(capsys, "diff", "--n", "3", "--terms", "1:1/2")
        assert code == 0 and out.strip() == "5/6"

    def test_pair_discr(self, capsys):
        code, out, _ = invoke(capsys, "pair-discr", "--lambdas", "1,1")
        assert code == 0 and out.strip() == "sum=2 bound_ok=true discrepancy=-1"

    def test_ruled_moduli(self, capsys):
        code, out, _ = invoke(
            capsys, "ruled-moduli", "--e", "1", "--sections", "1/2:0,1/2:1,1/2:1,1/2:1"
        )
        assert code == 0 and out.strip() == "1/2"

    def test_approx(self, capsys):
        code, out, _ = invoke(capsys, "approx", "--b", "2/3,1/3", "--q-max", "10")
        assert code == 0 and out.strip() == "q=3 numerators=2,1 error=0"

    def test_elliptic(self, capsys):
        code, out, _ = invoke(
            capsys, "elliptic", "--genus", "0",
            "--fibers", "P1:mI_n:2,P2:mI_n:3,P3:mI_n:6", "--j-degree", "0",
        )
        assert code == 0
        assert "deg total = 0" in out and "torsion index = 6" in out


class TestJsonOutput:
    def test_n1_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "n1", "--set", "0,1", "--m-max", "20", "--n-max", "10", "--json"
        )
        payload = json.loads(out)
        assert payload["indices"] == [1, 2, 3, 4, 6]
        assert payload["cap"] == {"m_max": 20, "n_max": 10}
        assert set(payload["witnesses"]) == {"1", "2", "3", "4", "6"}
        for witness in payload["witnesses"].values():
            assert all(isinstance(lbl, str) and isinstance(m, str) for lbl, m in witness)

    def test_sweep_lines(self, capsys):
        code, out, _ = invoke(
            capsys, "n1-sweep", "--set", "0,1", "--m-max", "8,12", "--n-max", "10"
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [l["m_max"] for l in lines] == [8, 12]
        assert all(l["indices"] == [1, 2, 3, 4, 6] for l in lines)

    def test_phi_witness_schema(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--set", "0,1", "--value", "3/4", "--json")
        payload = json.loads(out)
        assert payload == {"member": True, "witness": {"value": "3/4", "r": "1", "m": 4}}

    def test_multset_schema(self, capsys):
        code, out, _ = invoke(capsys, "closure", "--set", "0,2/3,1", "--json")
        assert json.loads(out) == ["0", "1/3", "2/3", "1"]

    def test_approx_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "approx", "--b", "2/3,1/3", "--q-max", "10", "--floor-n", "2", "--json"
        )
        payload = json.loads(out)
        assert payload == {
            "q": 3,
            "numerators": [2, 1],
            "error": "0",
            "cassels_ok": True,
            "floor_claim": True,
        }

    def test_certificate_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "complement", "--boundary", "1,1", "--n", "1", "--json", "-I", "5"
        )
        assert json.loads(out) == {"n": 5, "numerators": [5, 5], "extra_points": []}

    def test_germ_roundtrip(self, capsys):
        code, out, _ = invoke(capsys, "lct", "--germ", "4:0", "--shift", "1/4", "--json")
        payload = json.loads(out)
        assert payload == {"germ": [["4", "1"]], "c_w": "0", "d_w": "1"}

    def test_elliptic_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "elliptic", "--genus", "0", "--fibers", "P1:IIstar", "--j-degree", "14",
            "--json",
        )
        payload = json.loads(out)
        assert payload["d_div"] == [["P1", "5/6"]]
        assert payload["deg_dmod"] == "7/6"
        assert payload["torsion_index"] == 6


# exact stdout of every handler branch the classes above do not pin
@pytest.mark.parametrize(
    "argv, stdout",
    [
        ("phi --set 0,1 --value 3/4 --eps 1/10 --json", '{"member":true}\n'),
        ("phi --set 0,1 --value 1/3 --eps 1/2", "false\n"),
        ("phi --set 0,1 --m-max 4 --json", '["0","1/2","2/3","3/4","1"]\n'),
        ("phi --set 0,1 --value 1/3 --json", '{"member":false,"witness":null}\n'),
        ("phi --set 0,1 --value 1/3", "no\n"),
        ("closure --set 0,2/3,1 --check-idempotent --json", '{"closure":["0","1/3","2/3","1"],"idempotent":true}\n'),
        ("closure --set 0,2/3,1 --check-idempotent", "{0,1/3,2/3,1} idempotent=true\n"),
        ("closure --set 0,1/2,2/3,3/4,5/6,1 --interval --json", '{"interval":12}\n'),
        ("rn --set 0,1 --n 1,2,3,4,6 --json", '["0","1/6","1/4","1/3","1/2","2/3","3/4","5/6","1"]\n'),
        ("pn --n 2 --value 1/2 --json", '{"ok":true}\n'),
        ("complement --boundary 1,2/3,1/3 --n 1 --variant geq --json", "null\n"),
        ("min-index --boundary 1/2,2/3,5/6 --variant geq --json", '{"min_index":6}\n'),
        ("min-index --boundary 1,1,1/2 --n-max 50 --json", '{"min_index":null}\n'),
        ("diff --n 3 --terms 1:1/2 --json", '{"value":"5/6"}\n'),
        ("diff --n 2 --terms 1:1/2 --set 0,1 --eps 0 --json", '{"value":"3/4","witness":{"value":"3/4","r":"1","m":4},"in_tail":false}\n'),
        ("diff --n 2 --terms 1:1/2 --set 0,1 --eps 0", "3/4 (r=1, m=4)\n"),
        ("diff --n 3 --terms 1:9/11 --set 0,1 --eps 1/5 --json", '{"value":"31/33","witness":null,"in_tail":true}\n'),
        ("diff --n 3 --terms 1:9/11 --set 0,1 --eps 1/5", "31/33 (tail)\n"),
        # 1 - d = 1/D with D = 97*89*83*79: the witness needs m = D/97, 583,573 steps of a scan over m
        ("diff --n 1 --terms 1:56606580/56606581 --set 0,1/97,1/89,1/83,1/79,1", "56606580/56606581 (r=1/97, m=583573)\n"),
        ("kodaira --type IIstar --json", '{"d_P":"5/6"}\n'),
        ("ruled-moduli --e 1 --sections 1/2:0,1/2:1,1/2:1,1/2:1 --json", '{"degree":"1/2"}\n'),
        ("pair-discr --lambdas 1,15/16 --eps 1/8 --json", '{"sum":"31/16","bound_ok":false,"blowup_discrepancy":"-15/16"}\n'),
        ("radius --boundary 2/3,1/2 --n 3 --json", '{"radius":"1/12"}\n'),
    ],
)
def test_exact_stdout(capsys, argv, stdout):
    assert invoke(capsys, *argv.split()) == (0, stdout, "")


def test_handlers_leave_output_to_run():
    # one output path: handlers yield (payload, text) and only run prints
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(handlers) == 16
    for handler in handlers:
        for node in ast.walk(handler):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                assert name not in ("print", "json.dumps"), f"{handler.name} calls {name}"
            if isinstance(node, ast.Attribute) and node.attr == "json":
                raise AssertionError(f"{handler.name} reads {ast.unparse(node)}")


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "n1", "--set", "0,1")  # missing caps
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_domain_error(self, capsys):
        code, _, err = invoke(capsys, "pn", "--n", "1", "--set", "0,2/3,1", "--m-max", "10")
        assert code == 1 and "does not divide" in err

    def test_malformed_rational(self, capsys):
        code, _, err = invoke(capsys, "phi", "--set", "0,1", "--value", "1.5")
        assert code == 1 and "malformed" in err

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["n1-sweep", "--set", "0,1", "--m-max", "a,2", "--n-max", "5"], "a"),
            (["rn", "--set", "0,1", "--n", "1,a"], "a"),
            (["lct", "--germ", "x:1"], "x"),
            (["diff", "--n", "2", "--terms", "x:1/2"], "x"),
            (["elliptic", "--genus", "0", "--fibers", "P1:mI_n:x"], "x"),
            (["kodaira", "--type", "mI_n:x"], "x"),
        ],
    )
    def test_malformed_integer_in_list(self, capsys, argv, token):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: malformed integer: {token!r}\n")

    @pytest.mark.parametrize(
        "argv, what, item",
        [
            (["diff", "--n", "2", "--terms", "1:1/2,2"], "term", "2"),
            (["lct", "--germ", "1"], "germ", "1"),
            (["lct", "--germ", "2:1/2,3"], "germ", "3"),
            (["elliptic", "--genus", "0", "--fibers", "P1"], "fibre", "P1"),
            (["ruled-moduli", "--e", "1", "--sections", "1/2"], "section", "1/2"),
        ],
    )
    def test_malformed_pair_in_list(self, capsys, argv, what, item):
        message = f"error: malformed {what} entry {item!r} (expected a:b)\n"
        assert invoke(capsys, *argv) == (1, "", message)

    def test_negative_cap_in_list(self, capsys):
        # a leading "-" reads as an option unless the value is attached with "="
        code, _, _ = invoke(capsys, "n1-sweep", "--set", "0,1", "--m-max", "-1,3", "--n-max", "5")
        assert code == 2
        code, _, err = invoke(capsys, "n1-sweep", "--set", "0,1", "--m-max=-1,3", "--n-max", "5")
        assert (code, err) == (1, "error: m_max=-1 must be >= 1\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["complement", "--boundary", "1/2", "--n", "0"], "index n=0 must be >= 1"),
            (["radius", "--boundary", "1/2", "--n", "0"], "index n=0 must be >= 1"),
            (["min-index", "--boundary", "1/2", "-I", "0"], "I=0 must be >= 1"),
            (["diff", "--n", "0"], "germ index n=0 must be >= 1"),
            (["lct", "--germ", "0:1"], "fibre multiplicity mu=0 must be >= 1"),
            (["elliptic", "--genus", "-1"], "base_genus=-1 must be >= 0"),
            (["elliptic", "--genus", "0", "--j-degree", "-1"], "j_degree=-1 must be >= 0"),
            (["approx", "--b", "1/2", "--q-max", "2", "--floor-n", "0"], "N=0 must be >= 1"),
            (["complement", "--boundary", "1/2,1/2", "--n", "2", "-I", "0"], "I=0 must be >= 1"),
            (["complement", "--boundary", "1/2,1/2", "--n", "2", "-I", "-3"], "I=-3 must be >= 1"),
            (["complement", "--boundary", "1,1,1", "--n", "1", "-I", "0"], "I=0 must be >= 1"),
            (["complement", "--boundary", "1/2", "--n", "0", "-I", "0"], "index n=0 must be >= 1"),
        ],
    )
    def test_integer_below_bound(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.skipif(INT_MAX_STR_DIGITS == 0, reason="no limit on int() digits")
    @pytest.mark.parametrize(
        "argv, message",
        [
            # the echo is cut to 80 characters: quote, text, "..."
            (["phi", "--set", "0,1", "--value", "1/{}"], "malformed rational: '1/" + "7" * 74 + "..."),
            (["rn", "--set", "0,1", "--n", "1,{}"], "malformed integer: '" + "7" * 76 + "..."),
        ],
        ids=["phi", "rn"],
    )
    def test_oversized_literal(self, capsys, argv, message):
        sevens = "7" * (INT_MAX_STR_DIGITS + 100)
        assert invoke(capsys, *(a.format(sevens) for a in argv)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("caps", [",", ""])
    def test_empty_cap_list(self, capsys, caps):
        code, out, err = invoke(capsys, "n1-sweep", "--set", "0,1", "--m-max", caps, "--n-max", "10")
        assert (code, out, err) == (1, "", f"error: empty cap list: {caps!r}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure"],
            ["rn", "--n", "2"],
            ["diff", "--n", "2", "--terms", "1:1/2"],
            ["closure", "--check-idempotent"],
        ],
    )
    def test_closure_over_depth_budget(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--set", "0,1000/1001,1")
        assert (code, out) == (1, "")
        assert err == (
            "error: closure of MultSet({0, 1000/1001, 1}) walks 1001 parts deep, "
            "over the budget of 1000 parts\n"
        )

    def test_deterministic_output(self, capsys):
        a = invoke(capsys, "n1", "--set", "0,1", "--m-max", "20", "--n-max", "10", "--json")
        b = invoke(capsys, "n1", "--set", "0,1", "--m-max", "20", "--n-max", "10", "--json")
        assert a == b

    @pytest.mark.parametrize(
        "value, echo", [("1.5", "'1.5'"), ("7" * 100 + ".5", "'" + "7" * 76 + "...")]
    )
    def test_int_flag_echo(self, capsys, value, echo):
        code, out, err = invoke(capsys, "phi", "--set", "0,1", "--m-max", value)
        assert (code, out) == (2, "")
        assert err.endswith(f"complements phi: error: argument --m-max: invalid int value: {echo}\n")

    @pytest.mark.skipif(INT_MAX_STR_DIGITS == 0, reason="no limit on int() digits")
    def test_oversized_int_flag(self, capsys):
        sevens = "7" * (INT_MAX_STR_DIGITS + 100)
        code, out, err = invoke(capsys, "min-index", "--boundary", "1/2", "--n-max", sevens)
        assert (code, out) == (2, "")
        assert err.endswith(
            "complements min-index: error: argument --n-max: invalid int value: '"
            + "7" * 76 + "...\n"
        )


# one of each exit path: success, --json, domain error, usage error, --help
MIXED_ARGV = [
    ["phi", "--set", "0,1", "--value", "1/2", "--eps", "1/3"],
    ["phi", "--set", "0,1", "--m-max", "1.5"],
    ["phi", "--set", "0,1", "--m-max", "4"],
    ["min-index", "--boundary", "1/2,2/3,5/6", "--n-max", "50", "--variant", "geq", "--json"],
    ["min-index", "--boundary", "1/2,2/3,5/6"],
    ["pn", "--n", "1", "--set", "0,2/3,1", "--m-max", "10"],
    ["n1", "--set", "0,1"],
    ["frobnicate"],
    ["--help"],
    ["approx", "--help"],
    ["approx", "--b", "2/3,1/3", "--q-max", "100", "--floor-n", "2"],
    ["approx", "--b", "2/3,1/3", "--q-max", "100"],
]


def test_parser_built_once(capsys):
    cli._build_parser.cache_clear()
    codes = [run(argv) for argv in MIXED_ARGV]
    capsys.readouterr()
    assert set(codes) == {0, 1, 2}
    assert cli._build_parser.cache_info().misses == 1


def test_parser_reuse_leaks_no_state(capsys):
    def fresh(argv):
        cli._build_parser.cache_clear()
        return invoke(capsys, *argv)

    expected = [fresh(argv) for argv in MIXED_ARGV]
    for order in (MIXED_ARGV, MIXED_ARGV[::-1]):
        cli._build_parser.cache_clear()
        got = {tuple(argv): invoke(capsys, *argv) for argv in order}
        assert [got[tuple(argv)] for argv in MIXED_ARGV] == expected


class TestSweepScript:
    def run_script(self, capsys, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["n1_sweep.py", "--set", "0,1", *argv])
        code = load_script("n1_sweep").main()
        out, err = capsys.readouterr()
        return code, out, err

    def test_lines_carry_integer_nanoseconds(self, capsys, monkeypatch):
        code, out, err = self.run_script(capsys, monkeypatch, "--caps", "8,12", "--n-max", "10")
        lines = [json.loads(line) for line in out.splitlines()]
        assert (code, err) == (0, "")
        assert [(l["m_max"], l["indices"], l["stable"]) for l in lines] == [
            (8, [1, 2, 3, 4, 6], False),
            (12, [1, 2, 3, 4, 6], True),
        ]
        assert all(type(l["ns"]) is int and l["ns"] > 0 for l in lines)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--caps", "5:3", "--n-max", "10"], "empty cap list: '5:3'"),
            (["--caps", "a:3", "--n-max", "10"], "malformed integer: 'a'"),
            (["--caps", "3:5", "--n-max", "0"], "n_max=0 below I(R)=1"),
        ],
    )
    def test_domain_error_exits_one(self, capsys, monkeypatch, argv, message):
        assert self.run_script(capsys, monkeypatch, *argv) == (1, "", f"error: {message}\n")

    def test_malformed_n_max_exits_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            self.run_script(capsys, monkeypatch, "--caps", "3:5", "--n-max", "x")
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith("n1_sweep.py: error: argument --n-max: invalid int value: 'x'\n")
