"""Output checks, run in their own process after a workload child exits.

Each CLI call of a child wrote its stdout to ``<outdir>/<k>.out`` and its exit
code to the child's result.  A check reads those files, never the timings, so
it sits outside the timed region; it runs in a separate process so that
parsing the operator document (tens of MB) neither counts in the child's
peak RSS nor stays resident in the runner.

Usage: python3 perfbench/checks.py <job.json>
The job names the workload, the argv lists, the exit codes and the output
directory; the verdict is written as JSON to ``<outdir>/check.json``.
"""

import hashlib
import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# terms of the expanded operator document, by (n, N)
OPERATOR_TERMS = {(8, 10): 67078, (8, 12): 198978}


def _sha(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _triples(triples):
    return sorted([list(e), str(num), str(den)] for e, num, den in triples)


def coeffs_json_digest(path):
    """Exact content of a `coeffs --format json` table: rows' exact
    polynomials and the normalization block, without display strings."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    norm = {k: v for k, v in doc["normalization"].items() if k != "display"}
    rows = [{"j": r["j"], "poly": _triples(r["poly"])} for r in doc["rows"]]
    return _sha({"kind": doc["kind"], "n": doc["n"], "N": doc["N"],
                 "rows": rows, "normalization": norm})


def coeffs_csv_digest(path):
    """The j and exact-coefficient columns of a `coeffs --format csv` table."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "j,coeffs,display":
        raise ValueError("unexpected csv header")
    return _sha([line.split(",", 2)[:2] for line in lines[1:]])


def text_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def operator_digest(path):
    """(digest, term count) of an operator document's exact content.

    Terms are hashed one by one as the parser meets them and combined by an
    order-independent sum, so only one term is held at a time.
    """
    acc = 0
    count = 0

    def hook(obj):
        nonlocal acc, count
        if "alpha" in obj and "coeff" in obj:
            h = _sha([obj["alpha"], _triples(obj["coeff"])])
            acc = (acc + int(h, 16)) % (1 << 256)
            count += 1
            return None
        return obj

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, object_hook=hook)
    head = {k: doc[k] for k in ("kind", "n", "N", "variables")}
    return _sha([head, f"{acc:064x}", count]), count


def verification_reports(path):
    """(passed flag, [report dicts]) of a `verify` document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["passed"], doc["reports"]


def document_digest(argv, path):
    """Exact-content digest of one CLI call's stdout, chosen by subcommand."""
    if argv[0] == "coeffs":
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if fmt == "json":
            return coeffs_json_digest(path)
        if fmt == "csv":
            return coeffs_csv_digest(path)
    return text_digest(path)  # latex tables and verification reports


def check_outputs(job):
    """Per-call verdicts [{"argv", "digest", "why"}, ...], ``why`` empty when
    the call passed, plus the accepted sample count of the covariance and
    intertwining reports."""
    golden = {}
    if job.get("golden"):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[job["golden"]]
    verdicts = []
    accepted = 0
    for k, (argv, rc) in enumerate(zip(job["argvs"], job["rcs"])):
        path = os.path.join(job["outdir"], f"{k}.out")
        key = " ".join(argv)
        why = []
        digest = None
        if rc != 0:
            why.append(f"exit code {rc}")
        try:
            if argv[0] == "operator":
                digest, terms = operator_digest(path)
                want_terms = OPERATOR_TERMS.get(
                    (int(argv[argv.index("--n") + 1]), int(argv[argv.index("--N") + 1])))
                if want_terms is not None and terms != want_terms:
                    why.append(f"{terms} terms, expected {want_terms}")
            else:
                digest = document_digest(argv, path)
            if argv[0] == "verify":
                passed, reports = verification_reports(path)
                if not passed or not all(r["passed"] for r in reports):
                    why.append("a report did not pass")
                accepted += sum(r["samples"] for r in reports
                                if r["name"].startswith(("covariance_", "mult_intertwining_")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            why.append(f"unreadable output: {type(exc).__name__}: {exc}")
        want = golden.get(key)
        if golden and want is None:
            why.append("no golden digest for this call")
        elif want is not None and digest != want:
            why.append("digest differs from golden")
        verdicts.append({"argv": argv, "digest": digest, "why": "; ".join(why)})
    return {"verdicts": verdicts, "accepted_samples": accepted}


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    verdict = check_outputs(job)
    with open(os.path.join(job["outdir"], "check.json"), "w", encoding="utf-8") as fh:
        json.dump(verdict, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
