"""Negative controls: for every check family the suites report, a plausible
fault that the family's reports catch.

``CONTROLS`` maps a family either to a perturbation, a function of pytest's
``monkeypatch`` that plants the fault (the family's check, run at n = 2, 3
from seed 0, passes before it and fails every report after it), or to the
``file::test`` that already holds the family's control.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from covop import verify
from covop.conformal import ConformalMap, GaussianBump, Inversion
from covop.jets import _squares


def family(report_name):
    """'covariance_iterated_n2_N3' -> 'covariance_iterated'; the reports of
    the symbolic suite carry no n."""
    return re.sub(r"_n\d.*$", "", report_name)


def wrap(owner, name, change):
    """The perturbation that replaces owner.name by change(original)."""
    return lambda mp: mp.setattr(owner, name, change(getattr(owner, name)))


def inversion(change):
    """The perturbation that passes the (image, factor) of every inversion
    step through change."""
    return wrap(Inversion, "act_and_factor", lambda f: lambda self, xs: change(*f(self, xs)))


def chart(change):
    """The perturbation that passes the (image, factor) of every chart step
    through change."""
    return wrap(verify, "stereographic", lambda f: lambda xs: change(*f(xs)))


CONTROLS = {
    "symbol_factorization": "test_symbolcalc.py::test_factorization_fails_with_wrong_constant",
    "kernel_hat_involution": "test_verify.py::test_hat_involution_fails_on_a_doubled_coefficient",
    "juhl_leading_coeff": "test_verify.py::test_leading_coeff_fails_on_a_doubled_closed_form",
    "iterated_power_constant":
        "test_verify.py::test_power_constant_fails_on_a_changed_pure_normal_coefficient",
    "tangential_zero_residual": "test_verify.py::test_zero_residual_fails_on_an_off_span_term",
    "shift_consistency":
        "test_verify.py::test_shift_consistency_fails_on_a_changed_pure_normal_coefficient",
    "covariance_iterated": "test_verify.py::test_covariance_iterated_fails_on_a_doubled_a1",
    "ks_intertwining": "test_verify.py::test_ks_intertwining_fails_on_a_point_dependent_factor",
    "kernel_pairing": "test_verify.py::test_kernel_pairing_fails_on_a_perturbed_radial_integral",
    "ks_inversion_symbol": "test_verify.py::test_ks_inversion_fails_on_a_perturbed_symbol",
    # g1 @ g2 applies g1 first instead of g2
    "cocycle": wrap(ConformalMap, "__matmul__", lambda f: lambda g1, g2: f(g2, g1)),
    # the inversion's factor 1/|xi|^4, a wrong exponent
    "factor_vs_jet": inversion(lambda ys, k: (ys, k * k)),
    # the inversion flips xi_n instead of xi_1: it keeps the hyperplane, but
    # moves xi_n to -kappa xi_n
    "hyperplane_covariance": inversion(lambda ys, k: ([-ys[0]] + ys[1:-1] + [-ys[-1]], k)),
    # the chart's 2 xi_i/(1+|xi|^2) written xi_i/(1+|xi|^2)
    "chart_conformality": chart(lambda x, k: (x[:1] + tuple(c / 2 for c in x[1:]), k)),
    # the chart's factor squared, a wrong exponent
    "chord_identity": chart(lambda x, k: (x, k ** 2)),
    # xi_i f built as xi_(i-1) f
    "mult_intertwining": wrap(GaussianBump, "times_coordinate",
                              lambda f: lambda self, i: f(self, i - 1)),
    # (2 lam - n + 2) d_n u - xi_n Lap u: the second-order term's sign
    "covariance_one_step": wrap(verify, "one_step_from_jet", lambda f: lambda n, lam, u, xi_n:
                                f(n, lam, u, xi_n) - 2 * xi_n * u.laplacian()),
    # B_(mu + 1/2) in place of B_mu
    "ambient_noncompact": wrap(verify, "ambient_operator",
                               lambda f: lambda mu, Fj, coords, n: f(mu + 0.5, Fj, coords, n)),
    "ambient_compact": wrap(verify, "ambient_operator",
                            lambda f: lambda mu, Fj, coords, n: f(mu + 0.5, Fj, coords, n)),
    # x_n Box F + 2 mu dF/dx_n: the first-order term's sign
    "weight_conjugation": wrap(verify, "ambient_operator", lambda f: lambda mu, Fj, c, n:
                               f(mu, Fj, c, n) + 4.0 * mu * Fj.grad[n + 1]),
    # the extension of 1 homogeneous of degree 2 - n/2, one above 1 - n/2
    "yamabe_constant": wrap(verify, "sphere_extension",
                            lambda f: lambda n, fs, degree: f(n, fs, degree + 1.0)),
    # the d'Alembertian without its d_t^2 term
    "extension_independence": wrap(verify, "dalembertian", lambda f: lambda jet, n:
                                   f(jet, n) - 2.0 * jet.terms.get(_squares(n + 2)[0], 0.0)),
}


def test_every_family_has_a_control():
    families = {family(r.name) for r in verify.run_suites("all", seed=0)}
    assert sorted(families - set(CONTROLS)) == []  # a family without a control
    assert sorted(set(CONTROLS) - families) == []  # a control of no family


def test_named_controls_exist():
    for fam, where in CONTROLS.items():
        if isinstance(where, str):
            path, name = where.split("::")
            tree = ast.parse((Path(__file__).parent / path).read_text(encoding="utf-8"))
            assert name in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, fam


def _sphere_function(n):
    return lambda x: x[0] * x[n] + x[1] * x[1] + 0.5


#: the arguments of the checks that take more than (n, rng, samples)
EXTRA_ARGS = {"ambient_noncompact": lambda n: (0.9, GaussianBump((0.2,) * n, 1.1)),
              "ambient_compact": lambda n: (1.2, _sphere_function(n))}


def _reports(fam):
    extra = EXTRA_ARGS.get(fam, lambda n: ())
    return [getattr(verify, f"check_{fam}")(n, *extra(n), np.random.default_rng(0), 20)
            for n in (2, 3)]


@pytest.mark.parametrize("fam", sorted(f for f, c in CONTROLS.items() if callable(c)))
def test_the_perturbation_fails_every_report_of_its_family(fam, monkeypatch):
    assert all(r.passed for r in _reports(fam))
    CONTROLS[fam](monkeypatch)
    reports = _reports(fam)
    assert [family(r.name) for r in reports] == [fam, fam]
    assert not any(r.passed for r in reports), reports
