"""Command-line surface: coefficient tables, verification suites, and
machine-readable operator export.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 a quadrature that ran out of nodes before its tolerance, which
prints one ``covop verify: ...`` line on stderr and nothing on stdout, and
141 (128 + SIGPIPE) when the reader of stdout closed it before the output
was written (``covop operator ... | head``), with no traceback.  JSON
output keeps every coefficient exact as integer numerator and denominator
strings, so parsing a document gives back its coefficients bit for bit.
The operator export is streamed from the coefficient classes of the reduced
basis (``juhl.iterated``) and one lazy walk over the prefixes of the m' of
every Lap'^s (``juhl.lap_prime_prefixes``), in the bytes ``json.dump`` with
``indent=2, sort_keys=True, ensure_ascii=False`` would write for the same
document; no term list or document dict is built.  Its text is encoded once
per coefficient class, multinomial and prefix, and goes to the stream's
binary buffer in writes of ``EMIT_BATCH`` bytes plus at most one prefix
block, encoded as the stream would encode it.  The ``coeffs`` JSON is laid
out directly from ``coeff_table`` in those same ``json.dump`` bytes, and
the ``verify`` document goes through ``json.dumps``; each is written in one
call.
"""

import argparse
import json
import os
import sys
from math import comb

from .juhl import (iterated, juhl_coeffs, lap_prime_prefixes, leading_factors,
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


def _json_list(items, indent, brackets="[]"):
    """A non-empty JSON list of encoded items whose bracket sits at ``indent``
    spaces, laid out as json.dump(indent=2) does; with brackets "{}" the
    items are the encoded "key": value members of an object."""
    pad = "\n" + " " * (indent + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent + brackets[1]


def _emit_coeffs_json(n, N, stream):
    """Write ``coeff_table(n, N)`` in the bytes of ``_emit_json``, laid out
    directly: members in sorted key order, rows and poly triples through
    ``_json_list``, and the normalization block through ``json.dumps`` with
    each newline indented two more spaces (a JSON string holds no raw
    newline, so only the layout moves)."""
    table = coeff_table(n, N)
    enc = json.encoder.encode_basestring
    rows = []
    for row in table["rows"]:
        triples = [_json_list([_json_list(map(str, e), 10), enc(num), enc(den)], 8)
                   for e, num, den in row["poly"]]
        members = [f'"display": {enc(row["display"])}']
        if "factored" in row:
            members.append(f'"factored": {enc(row["factored"])}')
        members += [f'"j": {row["j"]}',
                    f'"poly": {_json_list(triples, 6) if triples else "[]"}']
        rows.append(_json_list(members, 4, "{}"))
    norm = json.dumps(table["normalization"], indent=2, sort_keys=True,
                      ensure_ascii=False).replace("\n", "\n  ")
    doc = _json_list([f'"N": {table["N"]}', f'"kind": {enc(table["kind"])}',
                      f'"n": {table["n"]}', f'"normalization": {norm}',
                      f'"rows": {_json_list(rows, 2)}'], 0, "{}")
    stream.write(doc + "\n")


def op_vars(n):
    """The variables of an operator document on R^n: (lam, xi1..xin)."""
    return ("lam",) + tuple(f"xi{i}" for i in range(1, n + 1))


def _emit_operator(n, N, stream):
    """Write the operator document of ``iterated(n, N)``: keys N, kind, n,
    terms (sorted by alpha, each with alpha, coeff triples sorted by
    exponent vector, and display) and variables, in the bytes of
    ``_emit_json``.  The terms come from ``iterated``: alpha =
    (2m', a) has the coefficient multinomial(m') * F(s, a) with |m'| = s, so
    the coeff and display text (the tail) is encoded once per
    (s, a, multinomial(m')) and each term adds only its alpha.  The prefixes
    of m' (its first n - 2 entries, of sum p and weight w) come in ascending
    order from one ``lap_prime_prefixes`` walk, never held in a list; the m'
    of a prefix are prefix + (t - p,) for every order t >= p, with
    multinomial w * C(t, p).  So the terms after a prefix depend only on
    (p, w): they are laid out once per (p, w) as a list of [head, last
    entry, tail, separator] bytes sharing the tails, and per prefix only the
    head (its alpha text, built once) is filled in and the list goes to the
    batch, so one bytes join writes all of the prefix's terms.  The bytes
    are encoded with the stream's encoding and errors and go to its binary
    buffer after a flush (so earlier text comes first), in writes of
    ``EMIT_BATCH`` bytes plus at most one prefix block.  A stream with no
    buffer (io.StringIO), or whose encoding does not write ASCII as ASCII
    (UTF-16), gets the UTF-8 bytes decoded to text."""
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

    pad = "\n        "
    cell = [f"{2 * x},{pad}".encode() for x in range(max(a_by_s) + 1)]  # one alpha entry
    last = cell if n > 1 else [b""]  # n = 1 has no m': alpha is (a,)
    tails = {}  # (s, multinomial(m')) -> [encoded tail for each a of s]
    blocks = {}  # (p, w) -> (parts, heads, fixed bytes) of one prefix block

    def block(p, w):
        # [head, last entry, tail, separator, ...] for every term after a
        # prefix of sum p and weight w, the heads filled in per prefix
        parts = []
        for t in a_by_s:
            if t >= p:
                key = t, w * comb(t, p)
                texts = tails.get(key)
                if texts is None:
                    texts = tails[key] = [term_tail(t, a, key[1]) for a in a_by_s[t]]
                for text in texts:
                    parts += (b"", last[t - p], text, b",\n")
        del parts[-1]
        return parts, len(parts) // 4 + 1, sum(map(len, parts))

    open_alpha = f'    {{\n      "alpha": [{pad}'.encode()
    batch = [f'{{\n  "N": {N},\n  "kind": "operator",\n  "n": {n},\n  "terms": ['.encode()]
    size, sep = 0, b"\n"
    prefixes = lap_prime_prefixes(n, max(a_by_s)) if n > 1 else [((), 0, 1)]
    # alpha = (2m', a) sorts by the prefix first, then by the last entry of
    # m' (by the order t), then by a
    for prefix, p, w in prefixes:
        if (p, w) not in blocks:
            blocks[p, w] = block(p, w)
        parts, heads, fixed = blocks[p, w]
        head = open_alpha + b"".join(map(cell.__getitem__, prefix))
        parts[::4] = [head] * heads
        batch.append(sep)
        batch += parts
        size += fixed + heads * len(head)
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
        _emit_coeffs_json(args.n, args.N, stream)
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
    name at call time, so a handler patched after the first call runs.

    Run as the command (``argv`` None), a reader that closes stdout early
    ends it with exit code 141 (128 + SIGPIPE) and no traceback: stdout is
    flushed inside the call, and on a broken pipe it is pointed at the null
    device, so the flush at exit finds nothing to write.  Called with an
    argv list, the ``BrokenPipeError`` reaches the caller."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    if argv is not None:
        return handler(args, sys.stdout)
    try:
        code = handler(args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
