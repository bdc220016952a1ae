"""Command-line surface: coefficient tables, verification suites, and
machine-readable operator export.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 a quadrature that ran out of nodes before its tolerance, which
prints one ``covop verify: ...`` line on stderr and nothing on stdout.  JSON
output keeps every coefficient exact as integer numerator and denominator
strings, so parsing a document gives back its coefficients bit for bit.
The operator export is streamed term by term from the coefficient classes of
the reduced basis (``juhl.iterated``) and one lazy walk over the m' of every
Lap'^s (``juhl.lap_prime_terms``), in the bytes ``json.dump`` with
``indent=2, sort_keys=True, ensure_ascii=False`` would write for the same
document; no term list or document dict is built.  It is encoded once per
coefficient class and m' and goes to the stream's binary buffer in batches
of about 64 KiB, encoded as the stream would encode it.  Every other JSON
document is encoded in full and written in one call.
"""

import argparse
import json
import sys

from .juhl import (iterated, juhl_coeffs, lap_prime_terms, leading_factors,
                   normalization_meta, pretty_factors, pretty_lam, pretty_terms)
from .verify import SUITES, QuadratureBudgetExceeded, run_suites

COEFFS_MAX_N = 8
COEFFS_MAX_ORDER = 12
EMIT_BATCH = 1 << 16  # bytes of operator text collected before one write


# -- exact serialization -----------------------------------------------------


def coeff_table(n, N):
    rows = []
    for j, p in enumerate(juhl_coeffs(n, N)):
        poly = [[[k], str(c), "1"] for k, c in enumerate(p) if c]
        row = {"j": j, "poly": poly, "display": pretty_lam(p)}
        if j == 0:
            row["factored"] = pretty_factors(leading_factors(n, N))
        rows.append(row)
    return {"kind": "juhl_coeffs", "n": n, "N": N, "rows": rows,
            "normalization": normalization_meta(n, N)}


def _emit_json(obj, stream):
    stream.write(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _json_list(items, indent):
    """A non-empty JSON list of encoded items whose bracket sits at ``indent``
    spaces, laid out as json.dump(indent=2) does."""
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def op_vars(n):
    """The variables of an operator document on R^n: (lam, xi1..xin)."""
    return ("lam",) + tuple(f"xi{i}" for i in range(1, n + 1))


def _emit_operator(n, N, stream):
    """Write the operator document of ``iterated(n, N)``: keys N, kind, n,
    terms (sorted by alpha, each with alpha, coeff triples sorted by
    exponent vector, and display) and variables, in the bytes of
    ``_emit_json``.  The terms come from ``iterated``: alpha =
    (2m', a) has the coefficient multinomial(m') * F(s, a) with |m'| = s, so
    the coeff and display text is encoded once per (s, a, multinomial(m'))
    and each term adds only its alpha.  The m' of every s come in
    ascending order from one ``lap_prime_terms`` walk, never held in a list;
    the alpha text of an m' is encoded once, and all terms of the m' are one
    bytes join.  The class text is encoded with the stream's encoding and
    errors and the bytes go to its binary buffer after a flush (so earlier
    text comes first), in writes of ``EMIT_BATCH`` bytes plus at most one
    m'.  A stream with no buffer (io.StringIO), or whose encoding does not
    write ASCII as ASCII (UTF-16), gets the UTF-8 bytes decoded to text."""
    variables = op_vars(n)
    lam_xin = (variables[0], variables[-1])  # the only variables that occur
    zeros = ["0"] * (n - 1)
    enc = json.encoder.encode_basestring
    classes = iterated(n, N)
    a_by_s = {}
    for s, a in sorted(classes):
        a_by_s.setdefault(s, []).append(a)
    stream.flush()
    encoding = getattr(stream, "encoding", None) or "utf-8"
    errors = getattr(stream, "errors", None) or "strict"
    buffer = getattr(stream, "buffer", None)
    if buffer is not None and "\n".encode(encoding) == b"\n":
        write = buffer.write
    else:  # no buffer, or an encoding that does not write ASCII as ASCII
        encoding, errors = "utf-8", "strict"
        write = lambda data: stream.write(data.decode())

    def term_tail(s, a, w):
        # the term after the first n - 1 alpha entries, closing brace included
        coeff = {key: w * c for key, c in sorted(classes[s, a].items())}
        triples = [_json_list([_json_list([str(deg), *zeros, str(i)], 10),
                               enc(str(c)), '"1"'], 8)
                   for (deg, i), c in coeff.items()]
        text = (f'{a}\n      ],\n      "coeff": {_json_list(triples, 6)},\n'
                f'      "display": {enc(pretty_terms(lam_xin, coeff))}\n    }}')
        return text.encode(encoding, errors)

    tails = {}  # (s, multinomial(m')) -> [encoded tail for each a of s]
    pad = "\n        "
    cell = [f"{2 * x},{pad}".encode() for x in range(max(a_by_s) + 1)]  # one alpha entry
    open_alpha = f'    {{\n      "alpha": [{pad}'.encode()
    batch = [f'{{\n  "N": {N},\n  "kind": "operator",\n  "n": {n},\n  "terms": ['.encode()]
    size, sep = 0, b"\n"
    # alpha = (2m', a) sorts by m' first, then by a; m' of distinct s differ
    for m, w in lap_prime_terms(n, a_by_s):
        s = sum(m)
        texts = tails.get((s, w))
        if texts is None:
            texts = tails[s, w] = [term_tail(s, a, w) for a in a_by_s[s]]
        head = open_alpha + b"".join(map(cell.__getitem__, m))
        batch.append(sep + head + (b",\n" + head).join(texts))
        size += len(batch[-1])
        if size >= EMIT_BATCH:
            write(b"".join(batch))
            batch, size = [], 0
        sep = b",\n"
    tail = f'\n  ],\n  "variables": {_json_list(map(enc, variables), 2)}\n}}\n'
    batch.append(tail.encode())
    write(b"".join(batch))


def _emit_coeffs_csv(n, N, stream):
    stream.write("j,coeffs,display\n")
    for j, p in enumerate(juhl_coeffs(n, N)):
        asc = ";".join(map(str, p or (0,)))
        stream.write(f"{j},{asc},{pretty_lam(p)}\n")


def _emit_coeffs_latex(n, N, stream):
    stream.write("\\begin{aligned}\n")
    for j, p in enumerate(juhl_coeffs(n, N)):
        body = pretty_factors(leading_factors(n, N)) if j == 0 else pretty_lam(p)
        body = body.replace("λ", "\\lambda ")
        stream.write(f"a_{{{j}}}(\\lambda) &= {body} \\\\\n")
    stream.write("\\end{aligned}\n")


# -- subcommands ----------------------------------------------------------------


def _check_range(n, N):
    if not (1 <= n <= COEFFS_MAX_N):
        return f"n must be between 1 and {COEFFS_MAX_N} (got {n})"
    if not (1 <= N <= COEFFS_MAX_ORDER):
        return f"N must be between 1 and {COEFFS_MAX_ORDER} (got {N})"
    return None


def _check_verify_args(n_min, n_max, seed):
    for flag, value in (("--n-min", n_min), ("--n-max", n_max)):
        if value is not None and value < 1:
            return f"{flag} must be at least 1 (got {value})"
    if None not in (n_min, n_max) and n_min > n_max:
        return f"--n-min must not exceed --n-max (got {n_min} > {n_max})"
    if seed < 0:
        return f"--seed must be at least 0 (got {seed})"
    return None


def cmd_coeffs(args, stream):
    problem = _check_range(args.n, args.N)
    if problem:
        print(f"covop coeffs: {problem}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json(coeff_table(args.n, args.N), stream)
    elif args.format == "csv":
        _emit_coeffs_csv(args.n, args.N, stream)
    else:
        _emit_coeffs_latex(args.n, args.N, stream)
    return 0


def cmd_operator(args, stream):
    problem = _check_range(args.n, args.N)
    if problem:
        print(f"covop operator: {problem}", file=sys.stderr)
        return 2
    _emit_operator(args.n, args.N, stream)
    return 0


def cmd_verify(args, stream):
    problem = _check_verify_args(args.n_min, args.n_max, args.seed)
    if problem:
        print(f"covop verify: {problem}", file=sys.stderr)
        return 2
    try:
        reports = run_suites(args.suite, seed=args.seed, n_min=args.n_min,
                             n_max=args.n_max)
    except QuadratureBudgetExceeded as exc:
        print(f"covop verify: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not reports:
        print(f"covop verify: --n-min/--n-max leave suite {args.suite!r} "
              "with no check", file=sys.stderr)
        return 2
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

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("operator", help="export the unrestricted iterated operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    return parser


_parser = None  # built by the first main call, so an import does not pay for it


def main(argv=None):
    """Run one command and return its exit code; may be called many times in
    one process.  The parser is built on the first call and reused, each call
    parses into a fresh namespace, and the ``cmd_*`` handler is looked up by
    name at call time, so a handler patched after the first call runs."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return globals()[f"cmd_{args.command}"](args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
