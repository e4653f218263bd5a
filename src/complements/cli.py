"""Command-line front end.

Every library operation is reachable from exactly one subcommand; output
is plain text by default and the documented JSON schemas under ``--json``.
Exit status: 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import adjunction, approximation, hyperstandard, p1
from .rationals import (
    BoundaryP1,
    DomainError,
    MultSet,
    clip,
    exact_int,
    format_rational,
    lcm_denominators,
    parse_int,
    parse_rational,
    split_items,
    split_pairs,
)


def _json_text(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _flag(ok: bool) -> str:
    return "true" if ok else "false"


def _fmt_set(values) -> str:
    return "{" + ",".join(format_rational(v) for v in values) + "}"


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


# ---------------------------------------------------------------------------
# subcommand handlers: each yields one (JSON payload, text line) pair per
# output line; run prints one of the two

def _cmd_phi(args):
    R = MultSet.parse(args.set)
    if args.value is not None:
        a = parse_rational(args.value)
        if args.eps is not None:
            ok = hyperstandard.phi_eps_contains(R, parse_rational(args.eps), a)
            yield {"member": ok}, _flag(ok)
            return
        w = hyperstandard.phi_contains(R, a)
        text = "no" if w is None else f"yes (r={format_rational(w.r)}, m={w.m})"
        yield {"member": w is not None, "witness": w.to_json() if w else None}, text
        return
    if args.m_max is None:
        raise DomainError("phi needs either --value or --m-max")
    out = hyperstandard.phi_enumerate(R, args.m_max)
    yield out.to_json(), _fmt_set(out)


def _cmd_closure(args):
    R = MultSet.parse(args.set)
    if args.interval:
        i = lcm_denominators(R)
        yield {"interval": i}, str(i)
        return
    out = hyperstandard.closure(R)
    if args.check_idempotent:
        ok = hyperstandard.closure_is_idempotent(R)
        text = f"{_fmt_set(out)} idempotent={_flag(ok)}"
        yield {"closure": out.to_json(), "idempotent": ok}, text
        return
    yield out.to_json(), _fmt_set(out)


def _cmd_rn(args):
    R = MultSet.parse(args.set)
    ns = [parse_int(p) for p in split_items(args.n)]
    out = hyperstandard.r_prime(R, ns)
    yield out.to_json(), _fmt_set(out)


def _cmd_pn(args):
    if args.value is not None:
        ok = hyperstandard.pn_contains(args.n, parse_rational(args.value))
    else:
        if args.set is None or args.m_max is None:
            raise DomainError("pn needs --value, or --set with --m-max")
        eps = parse_rational(args.eps) if args.eps is not None else Fraction(0)
        ok = hyperstandard.pn_lemma_check(MultSet.parse(args.set), args.n, eps, args.m_max)
    yield {"ok": ok}, _flag(ok)


def _cmd_complement(args):
    D = BoundaryP1.parse(args.boundary)
    variant = p1.ComplementVariant.parse(args.variant)
    cert = p1.complement_exists(D, args.n, variant)
    index = exact_int(args.index, "I", 1)
    if cert is None:
        yield None, "none"
        return
    if index > 1:
        cert = p1.scale_certificate(cert, D, index)
    nums = ",".join(str(a) for a in cert.numerators)
    extras = ",".join(str(a) for a in cert.extra_points) or "-"
    yield cert.to_json(), f"n={cert.n} numerators={nums} extra={extras}"


def _cmd_min_index(args):
    D = BoundaryP1.parse(args.boundary)
    variant = p1.ComplementVariant.parse(args.variant)
    n = p1.min_complement_index(D, args.index, args.n_max, variant)
    yield {"min_index": n}, "none" if n is None else str(n)


def _cmd_n1(args):
    report = p1.enumerate_N1(MultSet.parse(args.set), args.m_max, args.n_max)
    yield report.to_json(), _fmt_indices(report.indices)


def _cmd_n1_sweep(args):
    # one JSON line per cap in both modes, each out before the next cap runs
    R = MultSet.parse(args.set)
    caps = [parse_int(p) for p in split_items(args.m_max)]
    if not caps:
        raise DomainError(f"empty cap list: {clip(args.m_max)}")
    for report in p1.enumerate_N1_sweep(R, caps, args.n_max):
        m_max, n_max = report.cap_used
        line = {"m_max": m_max, "n_max": n_max, "indices": list(report.indices)}
        yield line, _json_text(line)


def _cmd_diff(args):
    terms = tuple(
        (parse_int(k), parse_rational(b)) for k, b in split_pairs(args.terms or "", "term")
    )
    inp = adjunction.DiffInput(args.n, terms)
    d = adjunction.diff_multiplicity(inp)
    if args.set is None:
        yield {"value": str(d)}, format_rational(d)
        return
    eps = parse_rational(args.eps) if args.eps is not None else Fraction(0)
    cert = adjunction.diff_in_hyperstandard(MultSet.parse(args.set), eps, inp)
    w = cert.witness
    how = "tail" if w is None else f"r={format_rational(w.r)}, m={w.m}"
    yield cert.to_json(), f"{format_rational(d)} ({how})"


def _cmd_lct(args):
    germ = adjunction.FiberGerm.parse(args.germ)
    if args.shift is not None:
        germ = adjunction.divisorial_shift(germ, parse_rational(args.shift))
    c_w, d_w = adjunction.lct_over_divisor(germ)
    yield (
        {"germ": germ.to_json(), "c_w": str(c_w), "d_w": str(d_w)},
        f"c_w={format_rational(c_w)} d_w={format_rational(d_w)}",
    )


def _cmd_kodaira(args):
    d = adjunction.kodaira_dP(adjunction.KodairaType.parse(args.type))
    yield {"d_P": str(d)}, format_rational(d)


def _cmd_elliptic(args):
    fibers = tuple(
        (lbl, adjunction.KodairaType.parse(t))
        for lbl, t in split_pairs(args.fibers or "", "fibre")
    )
    fib = adjunction.EllipticFibration(args.genus, fibers, args.j_degree)
    out = adjunction.elliptic_formula(fib)
    parts = " + ".join(f"{format_rational(d)}*{lbl}" for lbl, d in out.d_div) or "0"
    yield out.to_json(), (
        f"D_div = {parts}; deg D_mod = {format_rational(out.deg_dmod)}; "
        f"deg total = {format_rational(out.deg_total)}; torsion index = {out.torsion_index}"
    )


def _cmd_ruled_moduli(args):
    sections = [
        (parse_rational(d), parse_rational(a))
        for d, a in split_pairs(args.sections, "section")
    ]
    deg = adjunction.moduli_degree_ruled(args.e, sections)
    yield {"degree": str(deg)}, format_rational(deg)


def _cmd_pair_discr(args):
    eps = parse_rational(args.eps) if args.eps is not None else Fraction(0)
    out = adjunction.pair_discr_bound([parse_rational(p) for p in split_items(args.lambdas)], eps)
    yield (
        {
            "sum": str(out.total),
            "bound_ok": out.bound_ok,
            "blowup_discrepancy": str(out.blowup_discrepancy),
        },
        f"sum={format_rational(out.total)} bound_ok={_flag(out.bound_ok)} "
        f"discrepancy={format_rational(out.blowup_discrepancy)}",
    )


def _cmd_approx(args):
    b = [parse_rational(p) for p in split_items(args.b)]
    result = approximation.simultaneous_approx(b, args.q_max)
    payload = result.to_json()
    nums = ",".join(str(m) for m in result.numerators)
    line = f"q={result.q} numerators={nums} error={format_rational(result.error)}"
    if args.floor_n is not None:
        b0 = [parse_rational(p) for p in split_items(args.b0)] if args.b0 else b
        claim = approximation.verify_floor_claim(b0, result, args.floor_n)
        payload["floor_claim"] = claim
        line += f" floor_claim={_flag(claim)}"
    yield payload, line


def _cmd_radius(args):
    r = p1.openness_radius(BoundaryP1.parse(args.boundary), args.n)
    yield {"radius": str(r)}, format_rational(r)


# ---------------------------------------------------------------------------
# parser

def int_flag(text: str) -> int:
    """argparse ``type`` of every integer flag: ``int(text)``, with a rejected
    value echoed cut to 80 characters (argparse's own message echoes it whole)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(text)}") from None


# Built once per process and reused: argparse keeps per-parse state only in the
# Namespace it returns, and usage errors and --help look up sys.stdout,
# sys.stderr and the terminal width when they print.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="complements",
        description="Exact arithmetic for hyperstandard sets, complements on the line, and adjunction coefficients.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(handler=handler)
        return p

    p = add("phi", _cmd_phi, "membership in / truncation of the hyperstandard set")
    p.add_argument("--set", required=True, help="multiplicity set, e.g. 0,1/2,1")
    p.add_argument("--value", help="value to test for membership")
    p.add_argument("--eps", help="tail width for semi-hyperstandard membership")
    p.add_argument("--m-max", type=int_flag, help="truncation bound for enumeration")

    p = add("closure", _cmd_closure, "the closed multiplicity set")
    p.add_argument("--set", required=True)
    p.add_argument("--check-idempotent", action="store_true")
    p.add_argument("--interval", action="store_true", help="print the lcm of the denominators instead")

    p = add("rn", _cmd_rn, "1/n-shift lattice (union over several n)")
    p.add_argument("--set", required=True)
    p.add_argument("--n", required=True, help="one index or a comma list")

    p = add("pn", _cmd_pn, "floor criterion membership / truncated inclusion check")
    p.add_argument("--n", type=int_flag, required=True)
    p.add_argument("--value")
    p.add_argument("--set")
    p.add_argument("--eps")
    p.add_argument("--m-max", type=int_flag)

    p = add("complement", _cmd_complement, "construct an n-complement certificate")
    p.add_argument("--boundary", required=True, help="e.g. 1/2,2/3,5/6 or a=1/2,b=2/3")
    p.add_argument("--n", type=int_flag, required=True)
    p.add_argument("--variant", default="definition", choices=["definition", "geq"])
    p.add_argument("--index", "-I", type=int_flag, default=1, help="scale the certificate to nI")

    p = add("min-index", _cmd_min_index, "least admissible complement index")
    p.add_argument("--boundary", required=True)
    p.add_argument("--index", "-I", type=int_flag, default=1, help="divisibility constraint")
    p.add_argument("--n-max", type=int_flag, default=1000)
    p.add_argument("--variant", default="definition", choices=["definition", "geq"])

    p = add("n1", _cmd_n1, "minimal-index set over all admissible boundaries")
    p.add_argument("--set", required=True)
    p.add_argument("--m-max", type=int_flag, required=True)
    p.add_argument("--n-max", type=int_flag, required=True)

    p = add("n1-sweep", _cmd_n1_sweep, "minimal-index sets across truncation caps")
    p.add_argument("--set", required=True)
    p.add_argument("--m-max", required=True, help="comma list of caps")
    p.add_argument("--n-max", type=int_flag, required=True)

    p = add("diff", _cmd_diff, "adjunction multiplicity (and its membership certificate)")
    p.add_argument("--n", type=int_flag, required=True, help="index of the divisor germ")
    p.add_argument("--terms", help="k:b pairs, e.g. 1:1/2,2:2/3")
    p.add_argument("--set", help="certify membership over this multiplicity set")
    p.add_argument("--eps")

    p = add("lct", _cmd_lct, "fibre-germ log canonical threshold")
    p.add_argument("--germ", required=True, help="mu:d pairs, e.g. 1:0,2:-1,3:-2,6:-4")
    p.add_argument("--shift", help="add c times the fibre before computing")

    p = add("kodaira", _cmd_kodaira, "discriminant multiplicity of a fibre type")
    p.add_argument("--type", required=True, help="mI_n:m, II, III, IV, Istar, ... IVstar")

    p = add("elliptic", _cmd_elliptic, "canonical bundle formula degrees")
    p.add_argument("--genus", type=int_flag, required=True)
    p.add_argument("--fibers", help="label:type pairs, e.g. P1:mI_n:2,P2:II")
    p.add_argument("--j-degree", type=int_flag, default=0)

    p = add("ruled-moduli", _cmd_ruled_moduli, "moduli degree for four sections of a ruled surface")
    p.add_argument("--e", type=int_flag, required=True)
    p.add_argument("--sections", required=True, help="d:a pairs, exactly four")

    p = add("pair-discr", _cmd_pair_discr, "surface-germ multiplicity bound")
    p.add_argument("--lambdas", required=True)
    p.add_argument("--eps")

    p = add("approx", _cmd_approx, "simultaneous rational approximation")
    p.add_argument("--b", required=True, help="vector, e.g. 2/3,1/3")
    p.add_argument("--q-max", type=int_flag, required=True)
    p.add_argument("--floor-n", type=int_flag, help="also verify the floor inequality at N")
    p.add_argument("--b0", help="original vector for the floor check (defaults to --b)")

    p = add("radius", _cmd_radius, "openness radius of the complement condition")
    p.add_argument("--boundary", required=True)
    p.add_argument("--n", type=int_flag, required=True)

    return top


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for payload, text in args.handler(args):
            print(_json_text(payload) if args.json else text)
    except (ValueError, ZeroDivisionError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
