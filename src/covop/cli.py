"""Command-line surface: coefficient tables, verification suites, and
machine-readable operator export.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error.  JSON output keeps every coefficient exact as integer numerator and
denominator strings, so parse(emit(D)) reproduces D bit for bit.  The
operator export is streamed term by term from the integer expansion of the
reduced basis (``juhl.expanded_iterated``), in the bytes ``json.dump`` with
``indent=2, sort_keys=True, ensure_ascii=False`` would write for the same
document; no DiffOp or document dict is built.
"""

import argparse
import json
import sys
from fractions import Fraction

from .algebra import Poly, pretty_terms
from .diffop import DiffOp, op_vars
# ``iterated`` is not called here but stays bound: perfbench's self-test
# checks that its tracer patches a name imported into another covop module.
from .juhl import (expanded_iterated, iterated, juhl_coeffs,  # noqa: F401
                   leading_factors, normalization_meta)
from .verify import TOLERANCES, run_suites

COEFFS_MAX_N = 8
COEFFS_MAX_ORDER = 12


# -- exact serialization -----------------------------------------------------


def poly_to_triples(p):
    """[(exponent vector, numerator string, denominator string)] sorted."""
    return [[list(e), str(c.numerator), str(c.denominator)]
            for e, c in sorted(p.terms.items())]


def poly_from_triples(variables, triples):
    terms = {}
    for exps, num, den in triples:
        terms[tuple(exps)] = Fraction(int(num), int(den))
    return Poly(tuple(variables), terms)


def operator_from_dict(d):
    variables = tuple(d["variables"])
    n = d["n"]
    terms = {tuple(t["alpha"]): poly_from_triples(variables, t["coeff"])
             for t in d["terms"]}
    return DiffOp(n, terms)


def _affine_pretty(b, a):
    if b == 2:
        head = "2λ"
    elif b == 1:
        head = "λ"
    else:
        head = f"{b}λ"
    if a > 0:
        return f"({head}+{a})"
    if a < 0:
        return f"({head}{a})"
    return f"({head})"


def normalization_to_dict(meta):
    return {
        "pi_power": meta.pi_power,
        "gamma_factors": [{"const": str(g.const), "lam_coeff": str(g.lam_coeff),
                           "exponent": g.exponent} for g in meta.gammas],
        "parity": meta.parity,
        "ratio_prefactor": str(meta.ratio_prefactor),
        "ratio_two_power": meta.ratio_two_power,
        "ratio_factors": [[str(b), str(a)] for b, a in meta.ratio_factors],
        "display": meta.pretty(),
    }


def coeff_table(n, N):
    rows = []
    for j, p in enumerate(juhl_coeffs(n, N).coeffs):
        row = {"j": j, "poly": poly_to_triples(p), "display": p.pretty()}
        if j == 0:
            row["factored"] = "".join(_affine_pretty(b, a)
                                      for b, a in leading_factors(n, N))
        rows.append(row)
    return {"kind": "juhl_coeffs", "n": n, "N": N, "rows": rows,
            "normalization": normalization_to_dict(normalization_meta(n, N))}


def _emit_json(obj, stream):
    json.dump(obj, stream, indent=2, sort_keys=True, ensure_ascii=False)
    stream.write("\n")


def _json_list(items, indent):
    """A non-empty JSON list of encoded items whose bracket sits at ``indent``
    spaces, laid out as json.dump(indent=2) does."""
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _emit_operator(n, N, expansion, stream):
    """Write the operator document of ``expansion`` (see
    ``juhl.expanded_iterated``) one term at a time: keys N, kind, n, terms
    (sorted by alpha, each with alpha, coeff triples sorted by exponent
    vector, and display) and variables, in the bytes of ``_emit_json``."""
    variables = op_vars(n)
    lam_xin = (variables[0], variables[-1])  # the only variables that occur
    zeros = ["0"] * (n - 1)
    enc = json.encoder.encode_basestring
    exps = {}  # (lam_deg, xi_n_deg) -> its exponent vector as JSON
    stream.write(f'{{\n  "N": {N},\n  "kind": "operator",\n  "n": {n},\n  "terms": [')
    sep = "\n"
    for alpha in sorted(expansion):
        coeff = expansion[alpha]
        triples = []
        for (deg, i), c in sorted(coeff.items()):
            e = exps.get((deg, i))
            if e is None:
                e = exps[deg, i] = _json_list([str(deg), *zeros, str(i)], 10)
            triples.append(_json_list([e, enc(str(c)), '"1"'], 8))
        stream.write(f'{sep}    {{\n      "alpha": {_json_list(map(str, alpha), 6)},\n'
                     f'      "coeff": {_json_list(triples, 6)},\n'
                     f'      "display": {enc(pretty_terms(lam_xin, coeff))}\n    }}')
        sep = ",\n"
    stream.write(f'\n  ],\n  "variables": {_json_list(map(enc, variables), 2)}\n}}\n')


def _emit_coeffs_csv(table, stream):
    stream.write("j,coeffs,display\n")
    for row in table["rows"]:
        coeffs = {tuple(e)[0]: Fraction(int(num), int(den))
                  for e, num, den in row["poly"]}
        deg = max(coeffs, default=0)
        asc = ";".join(str(coeffs.get(k, Fraction(0))) for k in range(deg + 1))
        stream.write(f"{row['j']},{asc},{row['display']}\n")


def _latex_poly(display):
    return display.replace("λ", "\\lambda ")


def _emit_coeffs_latex(table, stream):
    stream.write("\\begin{aligned}\n")
    for row in table["rows"]:
        body = row.get("factored", row["display"])
        stream.write(f"a_{{{row['j']}}}(\\lambda) &= {_latex_poly(body)} \\\\\n")
    stream.write("\\end{aligned}\n")


# -- subcommands ----------------------------------------------------------------


def _check_range(n, N):
    if not (1 <= n <= COEFFS_MAX_N):
        return f"n must be between 1 and {COEFFS_MAX_N} (got {n})"
    if not (1 <= N <= COEFFS_MAX_ORDER):
        return f"N must be between 1 and {COEFFS_MAX_ORDER} (got {N})"
    return None


def cmd_coeffs(args, stream):
    problem = _check_range(args.n, args.N)
    if problem:
        print(f"covop coeffs: {problem}", file=sys.stderr)
        return 2
    table = coeff_table(args.n, args.N)
    if args.format == "json":
        _emit_json(table, stream)
    elif args.format == "csv":
        _emit_coeffs_csv(table, stream)
    else:
        _emit_coeffs_latex(table, stream)
    return 0


def cmd_operator(args, stream):
    problem = _check_range(args.n, args.N)
    if problem:
        print(f"covop operator: {problem}", file=sys.stderr)
        return 2
    _emit_operator(args.n, args.N, expanded_iterated(args.n, args.N), stream)
    return 0


def _parse_tols(pairs):
    tols = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--tol expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        name = name.strip()
        if name not in TOLERANCES:
            raise ValueError(f"--tol: unknown tolerance {name!r}; known names: "
                             + ", ".join(TOLERANCES))
        tols[name] = float(val)
    return tols


def cmd_verify(args, stream):
    try:
        tols = _parse_tols(args.tol)
    except ValueError as exc:
        print(f"covop verify: {exc}", file=sys.stderr)
        return 2
    reports = run_suites(args.suite, seed=args.seed, n_min=args.n_min,
                         n_max=args.n_max, tols=tols)
    passed = all(r.passed for r in reports)
    _emit_json({"kind": "verification", "suite": args.suite, "seed": args.seed,
                "n_min": args.n_min, "n_max": args.n_max, "passed": passed,
                "reports": [r.to_dict() for r in reports]}, stream)
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="covop",
        description="Conformally covariant differential operators: "
                    "coefficient tables, verification suites, operator export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="tangential coefficient table of the restricted family")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--N", type=int, required=True, help="order of the family")
    p.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("symbolic", "numeric", "ambient", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance, e.g. --tol covariance=1e-6")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("operator", help="export the unrestricted iterated operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_operator)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
