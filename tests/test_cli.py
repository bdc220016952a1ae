import hashlib
import io
import json
import subprocess
import sys

from covop.cli import (coeff_table, main, operator_from_dict,
                       poly_from_triples, poly_to_triples)
from covop.diffop import op_vars
from covop.juhl import iterated, leading_coeff, one_step


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
    assert p == leading_coeff(4, 1)


def test_coeffs_row_count_and_a0():
    for n, N in ((3, 2), (4, 5), (2, 6)):
        table = coeff_table(n, N)
        assert len(table["rows"]) == N // 2 + 1
        p = poly_from_triples(("lam",), table["rows"][0]["poly"])
        assert p == leading_coeff(n, N)


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
        assert operator_from_dict(doc) == iterated(n, N)


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


def _operator_document_via_dict(n, N):
    # the document as a dict of the DiffOp, dumped by json: the byte oracle
    # for the streamed writer
    D = iterated(n, N)
    doc = {"kind": "operator", "n": n, "N": N, "variables": list(op_vars(n)),
           "terms": [{"alpha": list(a), "coeff": poly_to_triples(c),
                      "display": c.pretty()}
                     for a, c in sorted(D.terms.items())]}
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True, ensure_ascii=False)
    return buf.getvalue() + "\n"


def test_operator_stream_matches_json_dump_bytes(capsys):
    # n = 1 has no Lap', N = 1 is the one-step operator, (5, 2) has negative
    # coefficients (a " - " in display)
    for n, N in ((1, 3), (1, 1), (4, 1), (2, 3), (3, 4), (5, 2)):
        code, out, _ = run_cli(capsys, "operator", "--n", str(n), "--N", str(N))
        assert code == 0
        assert out == _operator_document_via_dict(n, N), (n, N)
    assert " - " in out


def test_operator_n4_N6_bytes_pinned(capsys):
    # sha256 of the stdout written by the json.dump route before streaming
    code, out, _ = run_cli(capsys, "operator", "--n", "4", "--N", "6")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "2e5dbfc7f77601c6c7c1630af1054e18faf978ae121652cf71c8a6b213927f49"


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
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "ebae12978583a96651eb085b015dc0b4d8b4130a604e4f2a467ee06ef18a2253"


def test_verify_deterministic_reports(capsys):
    args = ["verify", "--suite", "numeric", "--seed", "7",
            "--n-min", "2", "--n-max", "2"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seeded_bytes_pinned(capsys):
    # sha256 of the stdout written before the jet products were table-driven:
    # the reports print errors with full repr, so every float is pinned
    pinned = {
        # the numeric digests were written after the third n = 1 Knapp-Stein
        # map became an affine composite instead of the identity, which
        # changed the two ks_intertwining_n1 reports of that map only
        ("numeric", "7"): "dab13d1c0b052b0a72cdf250b472a1e8b73ce8941ccc0108fb6ee3f74a2f96c6",
        ("numeric", "0"): "31b71219ca1cda200e6ad621cadf7ee8b40abcd511bdff399fe2dbc76b543a0b",
        ("ambient", "7"): "f4d41df3645e0b6d179ec5073d3742bd581f37855f1178a2a9f69d9422cf4869",
        # written while the ambient point lists were drawn ahead of the checks
        ("ambient", "0"): "c6a64cac6660a43138133f834ee30774df6407caac4153f3da3f07732b0486d1",
    }
    for (suite, seed), digest in pinned.items():
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (suite, seed)


def test_verify_quadrature_budget_exits_3(capsys):
    # a numeric evaluation that cannot be carried out is neither a failed
    # check (1) nor a usage error (2)
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric",
                             "--tol", "quad_tol=1e-30")
    assert code == 3 and out == ""
    assert err.startswith("covop verify: QuadratureBudgetExceeded:")
    assert err.count("\n") == 1


def test_verify_pole_exits_3(capsys, monkeypatch):
    import covop.cli
    from covop.special import gamma_checked

    monkeypatch.setattr(covop.cli, "run_suites", lambda *a, **k: gamma_checked(-2.0))
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric")
    assert code == 3 and out == ""
    assert err == "covop verify: PoleAtLambda: Gamma pole at argument -2.0\n"


def test_import_leaves_scipy_integrate_out(covop_env):
    code = "import sys, covop.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=covop_env)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_verify_tolerance_override_looser_still_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "symbolic",
                           "--tol", "covariance=1e-6")
    assert code == 0


def test_verify_bad_tol_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "symbolic", "--tol", "oops")
    assert code == 2 and "name=value" in err
    # a tolerance no error can meet, or that every error meets, is a usage error
    for value in ("nan", "inf", "-1e-9"):
        code, out, err = run_cli(capsys, "verify", "--suite", "numeric",
                                 "--tol", f"cocycle={value}")
        assert code == 2 and out == "", value
        assert "finite number >= 0" in err, err


def test_verify_unknown_tol_name(capsys):
    # a misspelt name must not silently run with the default tolerance
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric",
                             "--tol", "covarience=1e-6")
    assert code == 2 and out == ""
    assert "'covarience'" in err
    assert "covariance, covariance_restricted" in err and "ambient_compact" in err


def test_verify_bad_n_range(capsys):
    # 0 is not "unset", and an empty range is a usage error, not zero samples
    for bounds, text in ((("--n-max", "0"), "--n-max must be at least 1"),
                         (("--n-min", "-1"), "--n-min must be at least 1"),
                         (("--n-min", "5", "--n-max", "3"), "must not exceed")):
        code, out, err = run_cli(capsys, "verify", "--suite", "symbolic", *bounds)
        assert code == 2 and out == "", bounds
        assert err.startswith("covop verify: ") and text in err, err


def test_verify_range_without_checks(capsys):
    # the numeric suite covers n = 1..4, so n >= 5 leaves it nothing to run
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric", "--n-min", "5")
    assert code == 2 and out == ""
    assert err.startswith("covop verify: ") and "'numeric'" in err, err
    code, out, _ = run_cli(capsys, "verify", "--suite", "symbolic", "--n-min", "9")
    assert code == 2 and out == ""


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
