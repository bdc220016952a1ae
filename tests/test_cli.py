import contextlib
import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

from covop.cli import EMIT_BATCH, _emit_operator, coeff_table, main, op_vars
from covop.juhl import juhl_coeffs, leading_coeff
from covop import verify

from pins import GOLDEN, assert_golden, first_difference
from oracles import (expand, lam_coeffs, lam_poly, one_step, operator_from_dict,
                     poly_from_triples, poly_to_triples)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_json_n4_N1(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "4", "--N", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "juhl_coeffs" and doc["n"] == 4 and doc["N"] == 1
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["display"] == "2λ - 2"
    p = poly_from_triples(("lam",), doc["rows"][0]["poly"])
    assert lam_coeffs(p) == leading_coeff(4, 1)


def test_coeffs_row_count_and_a0():
    for n, N in ((3, 2), (4, 5), (2, 6)):
        table = coeff_table(n, N)
        assert len(table["rows"]) == N // 2 + 1
        p = poly_from_triples(("lam",), table["rows"][0]["poly"])
        assert lam_coeffs(p) == leading_coeff(n, N)


def test_coeffs_rows_match_the_poly_route():
    # each row's poly and display are the triples and text of the one-variable
    # Poly of its coefficients, zero rows (n = 1) included
    for n in (1, 3, 8):
        for N in (1, 4, 7):
            rows = coeff_table(n, N)["rows"]
            for row, a in zip(rows, juhl_coeffs(n, N)):
                p = lam_poly(a)
                assert row["poly"] == poly_to_triples(p), (n, N)
                assert row["display"] == p.pretty(), (n, N)


def test_coeffs_csv_expanded(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--N", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,coeffs,display"
    # a_0 = (2lam)(2lam+1) = 4lam^2 + 2lam: ascending 0;2;4
    assert lines[1].startswith("0,0;2;4,")


def test_coeffs_latex_product_form(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--N", "2", "--format", "latex")
    assert code == 0
    assert "a_{0}(\\lambda)" in out
    assert "(2\\lambda )(2\\lambda +1)" in out


def test_coeffs_bytes_pinned(capsys):
    # sha256 of the stdout written while the reduced basis held Fraction Polys
    pinned = {
        "json": "57bb5dd83b3c8849ae978203f59e93375470353df0ad5f9328f59a962b90a773",
        "csv": "5f127af5ca8b55d82b5d9fd25e89e8cf91e0b8c7254350094b37e6bc134b3212",
        "latex": "8e864a57d4d08a22efdd8f319b190e53f7b43ac7ca8d07205333df3cf9c02336",
    }
    for fmt, digest in pinned.items():
        code, out, _ = run_cli(capsys, "coeffs", "--n", "8", "--N", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


def test_coeffs_match_the_benchmark_golden(tmp_path):
    # every call of every benchmark workload with a golden file (the
    # symbolic suite, each coeffs table and the operator at n = 8, N = 10),
    # its stdout written to a file and digested as the benchmark's own
    # output check digests it, against that golden file
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_checks", bench / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    golden = json.loads((bench / "golden.json").read_text(encoding="utf-8"))
    assert sorted(golden) == ["exact-grid", "export"]
    calls = {key: digest for workload in golden.values() for key, digest in workload.items()}
    assert len(calls) == 1 + 8 * 12 * 3 + 1
    assert "verify --suite symbolic" in calls and "operator --n 8 --N 10" in calls
    path = tmp_path / "out"
    for key, digest in calls.items():
        argv = key.split()
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = main(argv)
        assert code == 0, key
        if argv[0] == "operator":
            got, terms = checks.operator_digest(str(path))
            assert terms == checks.OPERATOR_TERMS[8, 10], key
        else:
            got = checks.document_digest(argv, str(path))
        assert got == digest, key



def test_coeffs_json_is_the_json_dump_of_the_table(capsys):
    # the laid-out writer against json.dump of coeff_table for every (n, N)
    # the CLI accepts, the empty polys of n = 1, N >= 2 included
    for n in range(1, 9):
        for N in range(1, 13):
            code, out, _ = run_cli(capsys, "coeffs", "--n", str(n), "--N", str(N))
            assert code == 0
            assert out == _json_dump_bytes(coeff_table(n, N)), (n, N)
    assert '"poly": []' in _json_dump_bytes(coeff_table(1, 2))

def test_coeffs_range_violation(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--n", "9", "--N", "1")
    assert code == 2 and "n must be" in err
    code, _, err = run_cli(capsys, "coeffs", "--n", "3", "--N", "13")
    assert code == 2 and "N must be" in err


def test_operator_round_trip(capsys):
    for n, N in ((2, 1), (2, 2), (3, 2)):
        code, out, _ = run_cli(capsys, "operator", "--n", str(n), "--N", str(N))
        assert code == 0
        doc = json.loads(out)
        assert operator_from_dict(doc) == expand(n, N)


def test_operator_n2_N1_content(capsys):
    code, out, _ = run_cli(capsys, "operator", "--n", "2", "--N", "1")
    doc = json.loads(out)
    by_alpha = {tuple(t["alpha"]): t for t in doc["terms"]}
    assert set(by_alpha) == {(0, 1), (2, 0), (0, 2)}
    assert by_alpha[(0, 1)]["display"] == "2λ"
    assert by_alpha[(2, 0)]["display"] == "ξ2"


def test_operator_n2_N2_term_count(capsys):
    # hand Leibniz expansion of the two-factor composition gives 7 distinct
    # multi-index entries for n = 2
    code, out, _ = run_cli(capsys, "operator", "--n", "2", "--N", "2")
    doc = json.loads(out)
    assert len(doc["terms"]) == 7


def _json_dump_bytes(obj):
    buf = io.StringIO()
    json.dump(obj, buf, indent=2, sort_keys=True, ensure_ascii=False)
    return buf.getvalue() + "\n"


def _operator_document_via_dict(n, N):
    # the document as a dict of the expanded DiffOp, dumped by json: the byte
    # oracle for the streamed writer
    D = expand(n, N)
    doc = {"kind": "operator", "n": n, "N": N, "variables": list(op_vars(n)),
           "terms": [{"alpha": list(a), "coeff": poly_to_triples(c),
                      "display": c.pretty()}
                     for a, c in sorted(D.terms.items())]}
    return _json_dump_bytes(doc)


def test_operator_stream_matches_json_dump_bytes(capsys):
    # n = 1 has no Lap', N = 1 is the one-step operator, at (8, 4) the walk
    # over m' steps seven tangential entries, (5, 2) has negative
    # coefficients (a " - " in display)
    for n, N in ((1, 3), (1, 1), (4, 1), (2, 3), (3, 4), (8, 4), (6, 4), (2, 8), (5, 2)):
        code, out, _ = run_cli(capsys, "operator", "--n", str(n), "--N", str(N))
        assert code == 0
        assert out == _operator_document_via_dict(n, N), (n, N)
    assert " - " in out


class _RecordingBuffer(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(len(data))
        return super().write(data)


def _largest_prefix_block(out, n):
    # bytes of the largest run of terms sharing the first n - 2 entries of
    # alpha (the prefix of m'; the whole document for n <= 2): the most one
    # prefix adds to a batch
    starts = [m.start() for m in re.finditer(r"\n    \{\n", out)]
    ends = starts[1:] + [out.index('\n  ],\n  "variables"')]
    blocks = {}
    for term, a, b in zip(json.loads(out)["terms"], starts, ends):
        key = tuple(term["alpha"][:max(n - 2, 0)])
        blocks[key] = blocks.get(key, 0) + len(out[a:b].encode("utf-8"))
    return max(blocks.values())


def test_operator_stream_writes_bounded_byte_batches(capsys):
    # the document goes to the stream's binary buffer in batches of
    # EMIT_BATCH bytes (the last one shorter), none longer than EMIT_BATCH
    # plus one prefix block; a stream with no buffer gets the same text
    for n, N in ((1, 3), (2, 8), (8, 4), (5, 7)):
        code, out, _ = run_cli(capsys, "operator", "--n", str(n), "--N", str(N))
        assert code == 0
        raw = _RecordingBuffer()
        stream = io.TextIOWrapper(raw, encoding="utf-8")
        _emit_operator(n, N, stream)
        stream.flush()
        assert raw.getvalue() == out.encode("utf-8"), (n, N)
        assert max(raw.writes) <= EMIT_BATCH + _largest_prefix_block(out, n), (n, N)
        assert all(w >= EMIT_BATCH for w in raw.writes[:-1]), (n, N)
        text = io.StringIO()
        _emit_operator(n, N, text)
        assert text.getvalue() == out, (n, N)
    assert len(raw.writes) > 1  # (5, 7) spans several batches


def test_operator_bytes_follow_earlier_text(monkeypatch):
    # text written before the operator is flushed ahead of its bytes, and
    # text written after it follows them
    argvs = (["coeffs", "--n", "3", "--N", "4"],
             ["operator", "--n", "3", "--N", "4"],
             ["coeffs", "--n", "2", "--N", "5", "--format", "csv"])

    def output(*argvs):
        raw = io.BytesIO()
        stream = io.TextIOWrapper(raw, encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stream)
        for argv in argvs:
            assert main(argv) == 0
        stream.flush()
        return raw.getvalue()

    assert output(*argvs) == b"".join(output(argv) for argv in argvs)


def test_subprocess_operator_encodes_as_stdout(covop_env):
    # stdout's encoding and error handler apply to the operator bytes as to
    # any text written to it
    def run(n, N, encoding="utf-8"):
        env = dict(covop_env, PYTHONIOENCODING=encoding)
        return subprocess.run([sys.executable, "-m", "covop", "operator",
                               "--n", str(n), "--N", str(N)],
                              capture_output=True, env=env)

    proc = run(2, 2, "ascii:backslashreplace")
    assert proc.returncode == 0
    assert proc.stdout == _operator_document_via_dict(2, 2).encode(
        "ascii", "backslashreplace")
    assert b"\\u03bb" in proc.stdout
    proc = run(2, 2, "ascii")
    assert proc.returncode == 1
    assert b"UnicodeEncodeError" in proc.stderr
    proc = run(8, 4)  # several batches through the real BufferedWriter
    assert proc.returncode == 0
    assert proc.stdout == _operator_document_via_dict(8, 4).encode("utf-8")
    # UTF-16 does not write ASCII as ASCII: the text goes through the stream
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="utf-16")
    _emit_operator(2, 2, stream)
    stream.flush()
    assert raw.getvalue() == _operator_document_via_dict(2, 2).encode("utf-16")


def test_operator_n4_N6_bytes_pinned(capsys):
    # sha256 of the stdout written by the json.dump route before streaming
    code, out, _ = run_cli(capsys, "operator", "--n", "4", "--N", "6")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "2e5dbfc7f77601c6c7c1630af1054e18faf978ae121652cf71c8a6b213927f49"


def test_operator_n8_N10_bytes_pinned(capsys):
    # sha256 of the stdout written from the multi-index expansion, before the
    # export read the coefficient classes
    code, out, _ = run_cli(capsys, "operator", "--n", "8", "--N", "10")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "73e2e4149b02609647bbc58fd291a58f4abaed9219571db546cbb09f0c9a3463"



class _HashingStream:
    """A text stream whose binary buffer hashes what it is given."""
    encoding, errors = "utf-8", "strict"

    def __init__(self):
        self.buffer = self
        self.sha = hashlib.sha256()

    def write(self, data):
        self.sha.update(data)

    def flush(self):
        pass


def test_operator_bytes_pinned_at_every_n_and_N():
    # sha256 of the documents of N = 1..10, one after another, for each n,
    # as written one m' at a time before the writer went one prefix of m'
    # at a time
    pinned = {
        1: "d1ab138205755b8e01bcf0628fcc97112dd645301b419ea03da2b72f4739269a",
        2: "2019b8e49d986b26cdb397cd854ba07ed012e7e90c0e78fb5287393512aad3ec",
        3: "07bb48fe0a7c467b09e127ef449357e04d4e6d7b780f3139ea303432b296b840",
        4: "452a9248434d388b1e74f382b6aea0033b1c62caca5c6ee9430f1494f672af28",
        5: "bc07d99392e9c0e7ee97cb5cce91ebaf35b3c0ca3189af096c0e5f8491891e6a",
        6: "5fa339afc0135d200458c3441e41a5e8444cdb8a6ead7b5f5c323b2e96f948f1",
        7: "bbf76f0d93888ec80ea243aa4f44a426f29f8e6d025311ddf35531671d4aa015",
        8: "6c5ac5d8aa85d732a1759bf969af0137ea1cf78c9a49f7ff9ca6db9d7355ae33",
    }
    for n, digest in pinned.items():
        stream = _HashingStream()
        for N in range(1, 11):
            _emit_operator(n, N, stream)
        assert stream.sha.hexdigest() == digest, n


def test_broken_pipe_ends_the_command_with_141(covop_env):
    # a reader that stops early (covop operator ... | head -c 50) ends the
    # command with 128 + SIGPIPE and no traceback; 1 would mean a failed check
    with subprocess.Popen([sys.executable, "-m", "covop", "operator",
                           "--n", "8", "--N", "6"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=covop_env) as proc:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_broken_pipe_reaches_an_in_process_caller(monkeypatch):
    class ClosedPipe(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

    stream = io.TextIOWrapper(ClosedPipe(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    with pytest.raises(BrokenPipeError):
        main(["operator", "--n", "8", "--N", "4"])

def test_poly_triples_round_trip():
    p = one_step(3).terms[(0, 0, 1)]
    q = poly_from_triples(op_vars(3), poly_to_triples(p))
    assert q == p


def test_verify_symbolic_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "symbolic")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(r["passed"] for r in doc["reports"])
    # the exact path's bytes, as written before the reduced basis went integer
    assert_golden("verify_symbolic.json", out)


def test_verify_deterministic_reports(capsys):
    args = ["verify", "--suite", "numeric", "--seed", "7",
            "--n-min", "2", "--n-max", "2"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seeded_bytes_pinned(capsys):
    # the reports print errors with full repr, so every float is pinned
    for suite in ("numeric", "ambient"):
        for seed in ("0", "7", "11"):
            code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", seed)
            assert code == 0
            assert_golden(f"verify_{suite}_seed{seed}.json", out)


#: numpy's SIMD dispatch pinned below AVX2 and OpenBLAS pinned to Nehalem:
#: with numpy in the seeded path, 9-12 reports per seed moved under it
OTHER_SIMD_TARGET = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
                     "OPENBLAS_CORETYPE": "Nehalem"}


def test_verify_all_prints_the_goldens_under_another_simd_target(covop_env):
    # the document of every suite is the committed symbolic, numeric and
    # ambient goldens' reports in one verification document; a child with
    # the default environment and one with another dispatch target, set for
    # that child only, both print it
    docs = [json.loads((GOLDEN / name).read_text(encoding="utf-8")) for name in
            ("verify_symbolic.json", "verify_numeric_seed0.json", "verify_ambient_seed0.json")]
    want = dict(docs[0], suite="all", seed=0,
                passed=all(d["passed"] for d in docs),
                reports=[r for d in docs for r in d["reports"]])
    want = json.dumps(want, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    argv = [sys.executable, "-m", "covop", "verify", "--suite", "all", "--seed", "0"]
    for extra in ({}, OTHER_SIMD_TARGET):
        proc = subprocess.run(argv, capture_output=True, env={**covop_env, **extra})
        assert proc.returncode == 0, proc.stderr
        got = proc.stdout.decode("utf-8")
        assert got == want, (extra, first_difference(want, got))


def test_a_pin_mismatch_names_the_first_report_that_moved():
    want = (GOLDEN / "verify_ambient_seed0.json").read_text(encoding="utf-8")
    doc = json.loads(want)
    old = doc["reports"][1]["max_rel_err"]
    doc["reports"][1]["max_rel_err"] = 1e-3
    doc["reports"][4]["max_rel_err"] = 2e-3
    got = json.dumps(doc, indent=2, sort_keys=True)
    assert first_difference(want, got) == (
        f"report 1: weight_conjugation_n2 max_rel_err {old!r}"
        " -> weight_conjugation_n2 max_rel_err 0.001")
    del doc["reports"][1:]
    assert first_difference(want, json.dumps(doc)).startswith(
        "report 1: weight_conjugation_n2 max_rel_err ")
    assert first_difference("a\nb\n", "a\nc\n") == "line 2: 'b' -> 'c'"


def test_verify_quadrature_budget_exits_3(capsys, monkeypatch):
    # a numeric evaluation that cannot be carried out is neither a failed
    # check (1) nor a usage error (2); level 0 alone never settles
    monkeypatch.setattr(verify, "DE_MAX_LEVEL", 0)
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric")
    assert code == 3 and out == ""
    assert err.startswith("covop verify: QuadratureBudgetExceeded:")
    assert err.count("\n") == 1


def test_verify_quad_tol_reaches_kernel_pairing(capsys, monkeypatch):
    # n = 3 runs no Knapp-Stein check, so only the pairing integrals can
    # run out of quadrature levels
    monkeypatch.setattr(verify, "DE_MAX_LEVEL", 0)
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric", "--n-min", "3",
                             "--n-max", "3")
    assert code == 3 and out == ""
    assert err.startswith("covop verify: QuadratureBudgetExceeded:")


def test_import_leaves_scipy_integrate_out(covop_env):
    # covop needs no scipy at run time: no scipy module loads on import or in
    # a command, and scipy.integrate least of all
    code = textwrap.dedent("""
        import contextlib, io, sys
        import covop.cli

        def report(*head):
            scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
            print(*head, 'scipy.integrate' in sys.modules, scipy)

        report('import')
        for argv in (['verify', '--suite', 'all', '--seed', '0'],
                     ['coeffs', '--n', '8', '--N', '12'],
                     ['operator', '--n', '3', '--N', '4']):
            with contextlib.redirect_stdout(io.StringIO()):
                code = covop.cli.main(argv)
            report(argv[0], code)
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import False []", "verify 0 False []",
                                        "coeffs 0 False []", "operator 0 False []"]


def test_verify_has_no_tolerance_option(capsys):
    # each check's tolerance is fixed at the check; --tol is an unknown option
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--tol", "covariance=1e-6")
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --tol" in out.err


def test_verify_bad_n_range(capsys):
    # 0 is not "unset", and an empty range is a usage error, not zero samples
    for bounds, text in ((("--n-max", "0"), "--n-max must be at least 1"),
                         (("--n-min", "-1"), "--n-min must be at least 1"),
                         (("--n-min", "5", "--n-max", "3"), "must not exceed")):
        code, out, err = run_cli(capsys, "verify", "--suite", "symbolic", *bounds)
        assert code == 2 and out == "", bounds
        assert err.startswith("covop verify: ") and text in err, err


def test_verify_negative_seed(capsys):
    # numpy refuses a negative seed; every suite refuses it as a usage error
    for suite in ("symbolic", "numeric", "ambient", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1")
        assert (code, out) == (2, ""), suite
        assert err == "covop verify: --seed must be at least 0 (got -1)\n"


def test_verify_range_without_checks(capsys):
    # the numeric suite covers n = 1..4, so n >= 5 leaves it nothing to run
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric", "--n-min", "5")
    assert code == 2 and out == ""
    assert err.startswith("covop verify: ") and "'numeric'" in err, err
    code, out, _ = run_cli(capsys, "verify", "--suite", "symbolic", "--n-min", "9")
    assert code == 2 and out == ""


def test_reused_parser_keeps_no_n_min_between_calls(capsys, monkeypatch):
    import covop.cli

    seen = []
    cmd_verify = covop.cli.cmd_verify

    def recording_verify(args, stream):
        seen.append(args.n_min)
        return cmd_verify(args, stream)

    monkeypatch.setattr(covop.cli, "cmd_verify", recording_verify)
    report = SimpleNamespace(passed=True, to_dict=dict)
    monkeypatch.setattr(covop.cli, "run_suites",
                        lambda *a, n_min, **k: seen.append(n_min) or [report])
    assert run_cli(capsys, "verify", "--n-min", "2")[0] == 0
    assert run_cli(capsys, "verify")[0] == 0
    assert seen == [2, 2, None, None]


def test_usage_error_after_a_call_matches_a_fresh_process(capsys, monkeypatch,
                                                          covop_env):
    # argparse wraps its usage text to COLUMNS: give both sides the same width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(covop_env, COLUMNS="80")
    for argv in (["bogus"], ["coeffs", "--n", "2"], ["verify", "--seed", "x"]):
        fresh = subprocess.run([sys.executable, "-m", "covop", *argv],
                               capture_output=True, text=True, env=env)
        assert fresh.returncode == 2 and fresh.stderr.startswith("usage: covop")
        assert run_cli(capsys, "coeffs", "--n", "2", "--N", "1")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err == fresh.stderr, argv


def test_parser_is_built_once_and_not_at_import(capsys, monkeypatch, covop_env):
    import covop.cli

    builds = []
    build = covop.cli.build_parser
    monkeypatch.setattr(covop.cli, "_parser", None)
    monkeypatch.setattr(covop.cli, "build_parser",
                        lambda: builds.append(1) or build())
    for argv in (["coeffs", "--n", "2", "--N", "1"], ["operator", "--n", "2", "--N", "1"],
                 ["coeffs", "--n", "3", "--N", "2", "--format", "csv"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(builds) == 1
    # an ArgumentParser built during the import would raise here
    proc = subprocess.run(
        [sys.executable, "-c", "import argparse\n"
         "argparse.ArgumentParser.__init__ = None\n"
         "import covop.cli\n"
         "print(covop.cli._parser)"],
        capture_output=True, text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"


def test_handler_is_looked_up_at_call_time(capsys, monkeypatch):
    import covop.cli

    assert run_cli(capsys, "coeffs", "--n", "2", "--N", "1")[0] == 0
    calls = []
    monkeypatch.setattr(covop.cli, "cmd_coeffs",
                        lambda args, stream: calls.append((args.n, args.N)) or 0)
    assert run_cli(capsys, "coeffs", "--n", "3", "--N", "4") == (0, "", "")
    assert calls == [(3, 4)]


def test_emit_json_matches_json_dump_bytes():
    # the one-call writer against the json.dump route it replaced: coeffs
    # tables (with a non-ASCII display) and a seeded verification document
    from covop.cli import _emit_json
    from covop.verify import run_suites

    reports = run_suites("numeric", seed=3, n_min=1, n_max=1)
    docs = [coeff_table(n, N) for n, N in ((1, 1), (1, 4), (3, 5), (8, 12))]
    docs.append({"kind": "verification", "suite": "numeric", "seed": 3,
                 "n_min": 1, "n_max": 1, "passed": all(r.passed for r in reports),
                 "reports": [r.to_dict() for r in reports]})
    for doc in docs:
        buf = io.StringIO()
        _emit_json(doc, buf)
        assert buf.getvalue() == _json_dump_bytes(doc), doc["kind"]
    assert "λ" in _json_dump_bytes(docs[-2])


def test_usage_error_exit_code(covop_env):
    proc = subprocess.run([sys.executable, "-m", "covop", "bogus"],
                          capture_output=True, text=True, env=covop_env)
    assert proc.returncode == 2


def test_subprocess_operator_utf8(covop_env):
    proc = subprocess.run([sys.executable, "-m", "covop", "operator",
                           "--n", "2", "--N", "1"],
                          capture_output=True, text=True, env=covop_env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 2
    assert "λ" in proc.stdout
