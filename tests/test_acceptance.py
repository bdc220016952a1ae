"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s)."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from covop import verify
from covop.algebra import Poly
from covop.cli import main as cli_main, op_vars
from covop.conformal import (ConformalMap, Dilation, GaussianBump, Translation,
                             full_rotation)
from covop.juhl import juhl_coeffs, leading_coeff
from covop.symbolcalc import check_factorization, check_ks_inversion

from oracles import apply, decompose_tangential, expand, one_step, operator_from_dict

GRID = [(n, N) for n in range(2, 7) for N in range(1, 11)]


def _report(num, desc, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_symbol_factorization():
    t0 = time.perf_counter()
    ok = all(check_factorization(n) for n in range(1, 9))
    dt = time.perf_counter() - t0
    _report(1, "exact symbol factorization, n=1..8", ok and dt < 1.0,
            f"runtime {dt:.3f}s")


def test_criterion_02_leading_coeff_closed_form():
    t0 = time.perf_counter()
    ok = True
    for n, N in GRID:
        if not (juhl_coeffs(n, N).coeffs[0] == leading_coeff(n, N)):
            ok = False
            break
    dt = time.perf_counter() - t0
    _report(2, "leading coefficient closed form, n=2..6 N=1..10",
            ok and dt < 30.0, f"runtime {dt:.2f}s")


def test_criterion_03_normal_power_constants():
    ok = True
    for n, N in GRID:
        vars_ = op_vars(n)
        xin = Poly.variable(f"xi{n}", vars_)
        lam = Poly.variable("lam", vars_)
        want = Poly.const(math.factorial(N), vars_)
        for m in range(N + 1, 2 * N + 1):
            want = want * (2 * lam + (m - n))
        if apply(expand(n, N), xin ** N) != want:
            ok = False
            break
    _report(3, "iterated family on xi_n^N equals N! times the closed product", ok)


def test_criterion_04_tangential_zero_residual():
    ok = True
    for n, N in GRID:
        try:
            tang = decompose_tangential(expand(n, N).restrict(), N)
        except Exception as exc:  # NonTangentialForm means failure here
            ok = False
            break
        if len(tang.coeffs) != N // 2 + 1:
            ok = False
            break
    _report(4, "restricted family decomposes with zero residual", ok)


def test_criterion_05_one_step_on_powers():
    ok = True
    for n in (1, 2, 3, 4):
        vars_ = op_vars(n)
        xin = Poly.variable(f"xi{n}", vars_)
        lam = Poly.variable("lam", vars_)
        E = one_step(n)
        for k in range(1, 11):
            if apply(E, xin ** k) != k * (2 * lam + (1 - n + k)) * xin ** (k - 1):
                ok = False
    _report(5, "one-step operator drops normal powers with the stated factor, k<=10", ok)


def test_criterion_06_covariance_one_step():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    ok = True
    for n in (2, 3):
        r = verify.check_covariance_one_step(n, rng, samples=50, tol=1e-9)
        worst = max(worst, r.max_rel_err)
        ok = ok and r.passed
    dt = time.perf_counter() - t0
    _report(6, "one-step covariance, n=2,3, 50 seeded samples each",
            ok and dt < 10.0, f"max_rel_err {worst:.2e}, runtime {dt:.2f}s, tol 1e-9")


def test_criterion_07_covariance_restricted():
    rng = np.random.default_rng(20240502)
    worst = 0.0
    ok = True
    for n in (2, 3):
        for N in (1, 2, 3):
            r = verify.check_covariance_iterated(n, N, rng, samples=20, tol=1e-8)
            worst = max(worst, r.max_rel_err)
            ok = ok and r.passed
    _report(7, "restricted covariance, N=1..3, n=2,3, 20 samples each",
            ok, f"max_rel_err {worst:.2e}, tol 1e-8")


def test_criterion_08_knapp_stein_intertwining():
    rng = np.random.default_rng(20240503)
    worst = 0.0
    ok = True
    for n in (1, 2):
        f = GaussianBump((0.3,) * n, 1.1)
        maps = [ConformalMap(n, [Dilation(2.0)]),
                ConformalMap(n, [Translation((0.4,) * n)]),
                ConformalMap(n, [full_rotation(n, 0.7)])]
        for lam in (0.8 * n, 1.1 * n):
            for g in maps:
                r = verify.check_ks_intertwining(n, lam, g, f, rng, samples=5,
                                                 quad_tol=1e-6, tol=1e-5)
                worst = max(worst, r.max_rel_err)
                ok = ok and r.passed
    # the closed Gaussian case: J_1 exp(-xi^2) at lam = 1 is identically 1
    f1 = GaussianBump((0.0,), 1.0)
    gauss_err = max(abs(verify.knapp_stein_value(1, 1.0, f1, (x,), quad_tol=1e-10) - 1.0)
                    for x in (-1.2, 0.0, 0.8))
    ok = ok and gauss_err <= 1e-8
    _report(8, "convolution intertwining by quadrature, n=1,2",
            ok, f"max_rel_err {worst:.2e} (tol 1e-5), gaussian case {gauss_err:.2e}")


def test_criterion_09_kernel_pairing():
    worst = 0.0
    ok = True
    for n, s in ((1, -0.5), (2, -1.0), (3, -1.5)):
        r = verify.check_kernel_pairing(n, s, tol=1e-8)
        worst = max(worst, r.max_rel_err)
        ok = ok and r.passed
    _report(9, "kernel Fourier pairing against closed Gamma forms",
            ok, f"max_rel_err {worst:.2e}, tol 1e-8")


def test_criterion_10_inversion_constant():
    ok = all(check_ks_inversion(n) for n in range(1, 9))
    _report(10, "symbol-level inversion constant, exact identity for n=1..8", ok)


def test_criterion_11_ambient_identities():
    rng = np.random.default_rng(20240505)
    ok = True
    details = []
    for n in (2, 3, 4):
        f = GaussianBump(tuple(rng.uniform(-0.3, 0.3, n)), 1.2)
        lam = float(rng.uniform(0.4, 1.2))
        r = verify.check_ambient_noncompact(n, lam, f, rng, samples=30, tol=1e-9)
        ok = ok and r.passed
        details.append(f"chart n={n}: {r.max_rel_err:.1e}")
        r = verify.check_weight_conjugation(n, rng, samples=20, tol=1e-9)
        ok = ok and r.passed
        r = verify.check_yamabe_constant(n, rng, samples=20, tol=1e-10)
        ok = ok and r.passed
        r = verify.check_extension_independence(n, rng, samples=20, tol=1e-9)
        ok = ok and r.passed
    _report(11, "ambient realization: chart transport, weight conjugation, "
                "Yamabe constant, extension independence",
            ok, "; ".join(details))


def test_criterion_12_geometric_identities():
    rng = np.random.default_rng(20240506)
    ok = True
    worst = 0.0
    for n in (2, 3):
        checks = [
            verify.check_cocycle(n, rng, 100, tol=1e-10),
            verify.check_factor_vs_jet(n, rng, 100, tol=1e-10),
            verify.check_hyperplane_covariance(n, rng, 100, tol=1e-10),
            verify.check_chart_conformality(n, rng, 100, tol=1e-10),
            verify.check_chord_identity(n, rng, 100, tol=1e-10),
        ]
        for r in checks:
            ok = ok and r.passed
            worst = max(worst, r.max_rel_err)
    _report(12, "geometric identities on 100 seeded samples",
            ok, f"max_rel_err {worst:.2e}, tol 1e-10")


def test_criterion_13_cli_contract(capsys, covop_env):
    proc = subprocess.run([sys.executable, "-m", "covop", "verify", "--suite", "all"],
                          capture_output=True, text=True, env=covop_env)
    suite_ok = proc.returncode == 0 and json.loads(proc.stdout)["passed"]

    code = cli_main(["operator", "--n", "3", "--N", "2"])
    out = capsys.readouterr().out
    round_trip_ok = code == 0 and operator_from_dict(json.loads(out)) == expand(3, 2)

    args = ["verify", "--suite", "numeric", "--seed", "11",
            "--n-min", "2", "--n-max", "2"]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    second = capsys.readouterr().out
    deterministic = first == second

    _report(13, "CLI contract: exit codes, lossless round-trip, seeded determinism",
            suite_ok and round_trip_ok and deterministic,
            f"suite_exit={proc.returncode}")
