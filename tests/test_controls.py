"""Negative controls: named faults, and the committed matrix of which seeded
check families catch each one (mutation analysis: DeMillo, Lipton and
Sayward, Hints on Test Data Selection, IEEE Computer 11(4), 1978).

``FAULTS`` maps a fault's name to a perturbation, a function of pytest's
``monkeypatch`` that plants it.  Each fault sits in ``covop`` code that a
production path other than the catching check's own code also uses.  The
matrix runs every check family of ``CASES`` under each fault (seed 0, 20
samples, 5 for the quadrature-backed ``ks_intertwining``) and records the
reports that fail; ``tests/kill_matrix.json`` holds it.  After a change that
moves it on purpose, rewrite that file with
``PYTHONPATH=src python3 tests/test_controls.py`` and read its diff.

A family outside the matrix names the ``file::test`` of its control in
``NAMED_CONTROLS``.
"""

import ast
import json
import math
import re
from pathlib import Path

import pytest

from covop import conformal, verify
from covop.conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                             PulledBack, Rotation, Translation)

MATRIX = Path(__file__).resolve().parent / "kill_matrix.json"


def family(report_name):
    """'covariance_iterated_n2_N3' -> 'covariance_iterated'; the reports of
    the symbolic suite carry no n."""
    return re.sub(r"_n\d.*$", "", report_name)


def wrap(owner, name, change):
    """The perturbation that replaces owner.name by change(original)."""
    return lambda mp: mp.setattr(owner, name, change(getattr(owner, name)))


def step(cls, change):
    """The perturbation that passes each (image, factor) step of a generator
    or of the chart through change(g, xs, image, factor)."""
    return wrap(cls, "act_and_factor",
                lambda f: lambda g, xs: change(g, xs, *f(g, xs)))


def chart(change):
    """The perturbation that passes the (image, factor) of every chart step
    through change."""
    return wrap(verify, "stereographic", lambda f: lambda xs: change(*f(xs)))


FAULTS = {
    # -- the generators and the word (factor_vs_jet's code) --
    # the inversion's factor 1/|xi|^4, a wrong exponent
    "inversion_factor_squared": step(Inversion, lambda g, xs, ys, k: (ys, k * k)),
    # the dilation's factor 1/r, a wrong exponent
    "dilation_factor_inverted": step(Dilation, lambda g, xs, ys, k: (ys, 1.0 / k)),
    # the word's factor is its first generator's: the cocycle product dropped
    "cocycle_product_dropped": wrap(ConformalMap, "act_and_factor", lambda f: lambda g, p:
                                    (f(g, p)[0], f(ConformalMap(g.n, g.word[:1]), p)[1])),
    # the image alone walks all but the last generator, an off-by-one
    "act_drops_last_generator": wrap(ConformalMap, "act", lambda f: lambda g, p:
                                     f(ConformalMap(g.n, g.word[:-1]), p)),
    # -- the generators' images of xi_n (hyperplane_covariance's code) --
    # the inversion flips xi_n instead of xi_1: it keeps the hyperplane, but
    # moves xi_n to -kappa xi_n
    "inversion_flips_xi_n": step(Inversion, lambda g, xs, ys, k:
                                 ([-ys[0]] + ys[1:-1] + [-ys[-1]] if len(ys) > 1 else ys, k)),
    # xi_i + v_(i-1) for xi_i + v_i, an off-by-one coordinate that moves
    # xi_n by v_(n-1)
    "translation_shifted_coordinate": step(Translation, lambda g, xs, ys, k:
                                           ([x + c for x, c in zip(xs, g.v[-1:] + g.v[:-1])], k)),
    # the rotation's second row (-s, c) for (s, c), a wrong sign
    "rotation_row_sign": step(Rotation, lambda g, xs, ys, k:
                              (ys[:1] + [ys[1] - 2 * g.s * xs[0]] + ys[2:] if g.dim > 1 else ys, k)),
    # -- the chart (chart_conformality's and chord_identity's code) --
    # 2 xi_i/(1+|xi|^2) written xi_i/(1+|xi|^2)
    "chart_image_halved": chart(lambda x, k: (x[:1] + tuple(c / 2 for c in x[1:]), k)),
    # (|xi|^2-1)/(1+|xi|^2) for (1-|xi|^2)/(1+|xi|^2), a wrong sign
    "chart_first_sign": chart(lambda x, k: ((-x[0],) + x[1:], k)),
    # the chart's factor squared, a wrong exponent
    "chart_factor_squared": chart(lambda x, k: (x, k ** 2)),
    # the chart's factor 1/(1+|xi|^2), its 2 dropped
    "chart_factor_halved": chart(lambda x, k: (x, k / 2)),
    # -- the polynomial prefactor of a test function (mult_intertwining's code) --
    # each exponent applied to the next coordinate: xi_i f built as
    # xi_(i+1) f, an off-by-one coordinate
    "prefactor_coordinate_shift": wrap(conformal, "_eval_prefactor", lambda f: lambda pre, xs:
                                       f(pre, list(xs[1:]) + list(xs[:1]))),
    # xi_i^k read as xi_i^(2k), a wrong exponent
    "prefactor_exponent_doubled": wrap(conformal, "_eval_prefactor", lambda f: lambda pre, xs:
                                       f({tuple(2 * k for k in e): c for e, c in pre.items()},
                                         xs)),
    # -- the principal-series action and the operators --
    # rho_lam(g) twisted by kappa^(lam + 1), an off-by-one weight
    "pulled_back_weight_shift": wrap(PulledBack, "eval_generic", lambda f: lambda pb, xs:
                                     f(pb, xs) * pb.g_inv.act_and_factor(xs)[1]),
    # (2 lam - n + 2) d_n u - xi_n Lap u: the second-order term's sign
    "one_step_laplacian_sign": wrap(verify, "one_step_from_jet", lambda f: lambda n, lam, u, xi_n:
                                    f(n, lam, u, xi_n) - 2 * xi_n * u.laplacian()),
    # B_(mu + 1/2) in place of B_mu
    "ambient_weight_shift": wrap(verify, "ambient_operator", lambda f: lambda mu, Fj, c, n:
                                 f(mu + 0.5, Fj, c, n)),
    # x_n Box F + 2 mu dF/dx_n: the first-order term's sign
    "ambient_first_order_sign": wrap(verify, "ambient_operator", lambda f: lambda mu, Fj, c, n:
                                     f(mu, Fj, c, n) + 4.0 * mu * Fj.grad[n + 1]),
    # every homogeneous extension one degree too high
    "extension_degree_shift": wrap(verify, "homogeneous", lambda f: lambda q, degree, value:
                                   f(q, degree + 1.0, value)),
    # the d'Alembertian without its d_t^2 term
    "dalembertian_drops_tt": wrap(verify, "dalembertian", lambda f: lambda jet, n:
                                  f(jet, n) - jet.hessian_diagonal()[0]),
}


def _sphere_function(n):
    return lambda x: x[0] * x[n] + x[1] * x[1] + 0.5


#: the arguments before (rng, samples) of each case of a family in the matrix
CASES = {
    "factor_vs_jet": [(2,), (3,)],
    "mult_intertwining": [(2,), (3,)],
    "covariance_one_step": [(2,), (3,)],
    "covariance_iterated": [(2, 2), (3, 2)],
    "ks_intertwining": [
        (1, 0.8, ConformalMap(1, [Dilation(0.5), Translation((-0.3,))]), GaussianBump((0.3,), 1.1)),
        (2, 1.6, ConformalMap(2, [Rotation(2, math.cos(0.7), math.sin(0.7))]),
         GaussianBump((0.3, 0.3), 1.1))],
    "ambient_noncompact": [(n, 0.9, GaussianBump((0.2,) * n, 1.1)) for n in (2, 3)],
    "weight_conjugation": [(2,), (3,)],
    "yamabe_constant": [(2,), (3,)],
    "extension_independence": [(2,), (3,)],
    "ambient_compact": [(n, 1.2, _sphere_function(n)) for n in (2, 3)],
}

#: the paper's checks, which stay in the suites whatever the matrix shows
PAPER_CHECKS = {"covariance_one_step", "covariance_iterated", "ks_intertwining",
                "ks_symbol_bridge", "ks_inversion_symbol", "ambient_noncompact",
                "weight_conjugation", "yamabe_constant", "extension_independence",
                "ambient_compact"}

NAMED_CONTROLS = {
    "symbol_factorization": "test_symbolcalc.py::test_factorization_fails_with_wrong_constant",
    "kernel_hat_involution": "test_verify.py::test_hat_involution_fails_on_a_doubled_coefficient",
    "juhl_leading_coeff": "test_verify.py::test_leading_coeff_fails_on_a_doubled_closed_form",
    "iterated_power_constant":
        "test_verify.py::test_power_constant_fails_on_a_changed_pure_normal_coefficient",
    "tangential_zero_residual": "test_verify.py::test_zero_residual_fails_on_an_off_span_term",
    "shift_consistency":
        "test_verify.py::test_shift_consistency_fails_on_a_changed_pure_normal_coefficient",
    "ks_symbol_bridge": "test_verify.py::test_ks_symbol_bridge_fails_on_a_negated_symbol",
    "ks_inversion_symbol": "test_verify.py::test_ks_inversion_fails_on_a_perturbed_symbol",
}


def failing_reports():
    """The reports of every case of CASES that fail, in CASES order; a case
    whose check raises counts as failing, under its family's name and the
    exception's type."""
    out = []
    for fam, cases in CASES.items():
        check = getattr(verify, f"check_{fam}")
        samples = 5 if fam == "ks_intertwining" else 20
        for args in cases:
            try:
                report = check(*args, verify.Stream(0), samples)
            except Exception as exc:  # a crash is caught too, if not quietly
                out.append(f"{fam}_n{args[0]} raises {type(exc).__name__}")
                continue
            if not report.passed:
                out.append(report.name)
    return out


def kill_matrix():
    """{fault: the reports that fail under it}, after a fault-free run in
    which every report passes."""
    assert failing_reports() == []
    matrix = {}
    for name, plant in FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            plant(mp)
            matrix[name] = failing_reports()
    return matrix


def _catchers(matrix):
    return {fault: {family(r.split(" raises ")[0]) for r in reports}
            for fault, reports in matrix.items()}


def test_the_committed_kill_matrix_holds():
    want = json.loads(MATRIX.read_text(encoding="utf-8"))
    got = kill_matrix()
    moved = {f: (want.get(f), got.get(f)) for f in want.keys() | got.keys()
             if want.get(f) != got.get(f)}
    assert not moved, moved


def test_every_fault_is_caught_and_every_family_is_needed():
    catchers = _catchers(json.loads(MATRIX.read_text(encoding="utf-8")))
    assert sorted(catchers) == sorted(FAULTS)
    assert [f for f, fams in catchers.items() if not fams] == []  # caught by none
    assert set().union(*catchers.values()) == set(CASES)  # a family catching none
    sole = {next(iter(fams)) for fams in catchers.values() if len(fams) == 1}
    assert sorted(set(CASES) - sole - PAPER_CHECKS) == []  # the only catcher of none


@pytest.mark.parametrize("fam", sorted(CASES))
def test_the_perturbation_fails_every_report_of_its_family(fam):
    # no case of a family in the matrix passes under every fault
    failed = {r.split(" raises ")[0]
              for reports in json.loads(MATRIX.read_text(encoding="utf-8")).values()
              for r in reports if family(r) == fam}
    assert len(failed) == len(CASES[fam]), sorted(failed)


def test_every_family_has_a_control():
    families = {family(r.name) for r in verify.run_suites("all", seed=0)}
    controlled = set(CASES) | set(NAMED_CONTROLS)
    assert sorted(families - controlled) == []  # a family without a control
    assert sorted(controlled - families) == []  # a control of no family


def test_named_controls_exist():
    for fam, where in NAMED_CONTROLS.items():
        path, name = where.split("::")
        tree = ast.parse((Path(__file__).parent / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, fam


if __name__ == "__main__":
    MATRIX.write_text(json.dumps(kill_matrix(), indent=1) + "\n", encoding="utf-8")
