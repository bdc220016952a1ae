import itertools
import math

import numpy as np
import pytest

from covop import juhl, symbolcalc, verify
from covop.algebra import Poly
from covop.conformal import ConformalMap, Dilation, GaussianBump, Translation
from covop.jets import coordinate_jets
from covop.verify import (CheckReport, check_ambient_compact,
                          check_ambient_noncompact, check_covariance_iterated,
                          check_covariance_one_step, check_extension_independence,
                          check_kernel_pairing, check_ks_intertwining,
                          check_yamabe_constant, chart_family,
                          dalembertian, knapp_stein_value, rel_err)

import oracles


class StubRng:
    """Stands in for a numpy Generator: uniform() hands out ``values`` in
    turn, whatever its bounds."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self, low=0.0, high=1.0, size=None):
        return next(self._values)


def test_report_pass_criterion():
    r = CheckReport.from_errors("x", [1e-12, 5e-10], 1e-9, ["a", "b"])
    assert r.passed and r.max_rel_err == 5e-10 and r.samples == 2
    r = CheckReport.from_errors("x", [1e-12, 5e-9], 1e-9, ["a", "b"])
    assert not r.passed and r.diagnostics == "b"


def test_nan_error_fails_its_report():
    # a NaN error is the worst sample: np.argmax returns its index, and the
    # NaN <= tol comparison is False
    r = CheckReport.from_errors("x", [0.0, math.nan], 1.0)
    assert r.passed is False
    assert r.diagnostics == "sample 1"
    assert r.samples == 2 and math.isnan(r.max_rel_err)


def test_sampler_gives_up_on_a_draw_that_always_rejects():
    seen = []

    def draw(k):
        seen.append(k)
        if len(seen) % 2:
            raise verify.SingularPoint("rejected")
        return None

    r = verify._sampled("never", 5, 1e-9, draw)
    assert not r.passed and r.samples == 0
    assert r.diagnostics == f"accepted 0 of 5 samples in {verify.DRAWS_PER_SAMPLE * 5} draws"
    assert seen == [0] * (verify.DRAWS_PER_SAMPLE * 5)


def test_sampler_counts_accepted_samples():
    def draw(k):
        return (1e-12 * k, f"k={k}") if k < 2 else None

    r = verify._sampled("short", 4, 1e-9, draw)
    assert not r.passed and r.samples == 2 and r.max_rel_err == 1e-12
    assert r.diagnostics.startswith("accepted 2 of 4 samples")
    full = verify._sampled("full", 3, 1e-9, lambda k: (1e-12 * k, f"k={k}"))
    assert full.passed and full.samples == 3 and full.diagnostics == "k=2"


def test_covariance_dilation_and_translation_only():
    # affine cases close in closed form; errors are pure rounding
    rng = np.random.default_rng(2)
    n = 2
    f = GaussianBump((0.3, -0.2), 1.0)
    for word in ([Dilation(1.9)], [Translation((0.5, 0.0))]):
        g = ConformalMap(n, word)
        errs = []
        for _ in range(10):
            xi = tuple(rng.uniform(-1.0, 1.0, n))
            uj = verify.PulledBack(0.7, g, f).jet(xi, 2)
            lhs = verify.one_step_from_jet(n, 0.7, uj, xi[n - 1])
            zeta, k = g.inverse().act_and_factor(xi)
            fj = f.jet(zeta, 2)
            rhs = k ** (0.7 + 1) * verify.one_step_from_jet(n, 0.7, fj, zeta[n - 1])
            errs.append(rel_err(lhs, rhs))
        assert max(errs) < 1e-12


def test_covariance_inversion_case():
    rng = np.random.default_rng(3)
    r = check_covariance_one_step(3, rng, samples=25, tol=1e-9)
    assert r.passed, r


def test_covariance_holds_for_complex_parameter():
    # the twisted action is defined for complex weights; the identity is
    # holomorphic in the parameter, so it must close there too
    from covop.conformal import Inversion, PulledBack
    n = 2
    lam = 0.7 + 0.4j
    g = ConformalMap(n, [Translation((0.3, 0.0)), Inversion()])
    f = GaussianBump((0.4, 0.1), 1.0)
    xi = (0.8, -0.5)
    uj = PulledBack(lam, g, f).jet(xi, 2)
    lhs = verify.one_step_from_jet(n, lam, uj, xi[n - 1])
    zeta, k = g.inverse().act_and_factor(xi)
    rhs = k ** (lam + 1) * verify.one_step_from_jet(n, lam, f.jet(zeta, 2), zeta[n - 1])
    assert rel_err(lhs, rhs) < 1e-12


def test_covariance_iterated_reduces_to_one_step_at_order_one():
    rng = np.random.default_rng(4)
    r1 = check_covariance_iterated(2, 1, rng, samples=10, tol=1e-9)
    assert r1.passed, r1


def test_covariance_iterated_at_the_numeric_cap():
    # N = 4 needs order-4 jets internally
    rng = np.random.default_rng(77)
    r = check_covariance_iterated(2, 4, rng, samples=5, tol=1e-8)
    assert r.passed, r


def test_covariance_iterated_cap():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        check_covariance_iterated(2, 5, rng)


def test_covariance_iterated_fails_on_a_doubled_a1(monkeypatch):
    # the numeric table is read off juhl_coeffs, so a wrong a_1 must show
    original = verify.juhl_coeffs

    def doubled(n, N):
        t = original(n, N)
        return juhl.TangentialOp(n, N, (t.coeffs[0], 2 * t.coeffs[1]) + t.coeffs[2:])

    monkeypatch.setattr(verify, "juhl_coeffs", doubled)
    for n in (2, 3):
        for N in (2, 3):
            r = check_covariance_iterated(n, N, np.random.default_rng(0), samples=10, tol=1e-8)
            assert not r.passed, r


# -- quadrature --------------------------------------------------------------------


def test_j1_gaussian_is_one():
    f = GaussianBump((0.0,), 1.0)
    for x in (0.0, 0.6, -1.1):
        v = knapp_stein_value(1, 1.0, f, (x,), quad_tol=1e-10)
        assert abs(v - 1.0) <= 1e-8


def test_ks_identity_map_trivial():
    f = GaussianBump((0.2,), 1.0)
    r = check_ks_intertwining(1, 0.9, ConformalMap.identity(1), f,
                              np.random.default_rng(10), samples=2,
                              quad_tol=1e-8, tol=1e-10)
    assert r.passed and r.samples == 2


def test_ks_dilation_n2():
    f = GaussianBump((0.3, 0.3), 1.1)
    g = ConformalMap(2, [Dilation(2.0)])
    r = check_ks_intertwining(2, 1.3, g, f, np.random.default_rng(11), samples=2,
                              quad_tol=1e-6, tol=1e-5)
    assert r.passed and r.samples == 2, r


def test_ks_truncation_self_consistency(monkeypatch):
    # doubling the effective support radius, and so nearly doubling the
    # truncation radius, moves the value by far less than tol/10
    f = GaussianBump((0.1,), 1.0)
    quad_tol = 1e-6
    v1 = knapp_stein_value(1, 0.8, f, (0.3,), quad_tol=quad_tol)
    ball = verify._effective_ball
    monkeypatch.setattr(verify, "_effective_ball",
                        lambda func: (ball(func)[0], 2.0 * ball(func)[1]))
    v2 = knapp_stein_value(1, 0.8, f, (0.3,), quad_tol=quad_tol)
    assert abs(v1 - v2) < quad_tol / 10.0


def test_ks_intertwining_fails_on_a_point_dependent_factor(monkeypatch):
    # a factor that depends on the point breaks the intertwining relation
    # between xi and its image under the map, for every map of the suite
    value = verify.knapp_stein_value
    monkeypatch.setattr(verify, "knapp_stein_value",
                        lambda n, lam, func, point, quad_tol=1e-6:
                        value(n, lam, func, point, quad_tol) * (1.0 + 1e-3 * point[0]))
    reports = [r for r in verify.suite_numeric(seed=0, n_min=1, n_max=2)
               if r.name.startswith("ks_intertwining")]
    assert len(reports) == 12
    assert not any(r.passed for r in reports)


def test_ks_rejects_bad_parameters():
    f = GaussianBump((0.0,), 1.0)
    with pytest.raises(ValueError):
        knapp_stein_value(3, 2.0, f, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        knapp_stein_value(1, 0.4, f, (0.0,))  # below the convergence line


def test_ks_quadrature_budget_guard():
    # an unreachable tolerance must surface as a budget error, not silence
    f = GaussianBump((0.0,), 1.0)
    with pytest.raises(verify.QuadratureBudgetExceeded):
        knapp_stein_value(1, 0.8, f, (0.3,), quad_tol=1e-30)


@pytest.mark.parametrize("s", [-0.9, -0.4, 0.4])
def test_de_quad_endpoint_power(s):
    # the singular factor is read off the endpoint distance, never off x - a
    got = verify._de_quad(lambda x, da, db: da ** s, 0.0, 1.0, 1e-13, 1.0)
    assert abs(got - 1.0 / (s + 1.0)) <= 1e-12 / (s + 1.0)


def test_de_quad_level_cap():
    # a jump inside the interval converges like h, far slower than 1e-10
    with pytest.raises(verify.QuadratureBudgetExceeded, match="levels 7 and 8"):
        verify._de_quad(lambda x, da, db: (x > 1.0 / 3.0) * 1.0, 0.0, 1.0, 1e-10, 1.0)


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 2.0])
def test_gaussian_moment_closed_form(p):
    # int_0^inf r^p exp(-r^2) dr = Gamma((p+1)/2)/2, through r = t/(1-t)
    want = 0.5 * math.gamma((p + 1.0) / 2.0)
    assert abs(verify._gaussian_moment(p, 1.0, 1e-13) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [1, 2])
def test_ks_value_matches_quadpack(n):
    # scipy's QUADPACK is the oracle on the same integrand: |x - eta|^s f over
    # both sides of x for n = 1, r^(s+1) times a 2048-angle ring integral for
    # n = 2; the suite's three maps, three fixed points, lam in {0.8n, 1.1n}
    quad = pytest.importorskip("scipy.integrate").quad
    from covop.conformal import PulledBack, full_rotation
    f = GaussianBump((0.3,) * n, 1.1)
    third = (ConformalMap(1, [Dilation(0.5), Translation((-0.3,))]) if n == 1
             else ConformalMap(2, [full_rotation(2, 0.7)]))
    maps = [ConformalMap(n, [Dilation(2.0)]),
            ConformalMap(n, [Translation((0.4,) * n)]), third]
    points = ([(0.0,), (0.5,), (-0.9,)] if n == 1
              else [(0.0, 0.0), (0.5, -0.25), (-0.9, 0.7)])
    cos, sin = verify._ring_angles(2048)
    for lam in (0.8 * n, 1.1 * n):
        s = 2.0 * lam - 2.0 * n
        norm = 1.0 / math.gamma(lam - n / 2.0)
        for g in maps:
            func = PulledBack(lam, g, f)
            center, r0 = verify._effective_ball(func)
            for p in points:
                radius = float(np.linalg.norm(np.array(p) - center)) + r0 + 1.0
                got = knapp_stein_value(n, lam, func, p, quad_tol=1e-10)
                if n == 1:
                    x = p[0]
                    want = quad(lambda e: abs(x - e) ** s * func.value((e,))
                                if e != x else 0.0, x - radius, x + radius,
                                points=[x], epsabs=1e-14, epsrel=1e-13, limit=500)[0]
                else:
                    want = quad(lambda r: r ** (s + 1.0) * 2.0 * math.pi * float(np.mean(
                        func.eval_generic([p[0] + r * cos, p[1] + r * sin])))
                        if r > 0.0 else 0.0, 0.0, radius,
                        epsabs=1e-14, epsrel=1e-13, limit=500)[0]
                assert rel_err(got, norm * want) <= 1e-9, (lam, g.word, p)


def test_ring_angles_match_linspace_bit_for_bit():
    # every ring size the angular average can reach: 32, 64, ..., 4096
    k = 32
    while k <= 4096:
        theta = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
        cos, sin = verify._ring_angles(k)
        assert cos.tobytes() == np.cos(theta).tobytes()
        assert sin.tobytes() == np.sin(theta).tobytes()
        assert not cos.flags.writeable and not sin.flags.writeable
        k *= 2


# -- pairing -----------------------------------------------------------------------


@pytest.mark.parametrize("n,s", [(1, -0.5), (2, -1.0), (3, -1.5)])
def test_kernel_pairing(n, s):
    r = check_kernel_pairing(n, s)
    assert r.passed and r.max_rel_err <= 1e-8


def test_kernel_pairing_range_check():
    with pytest.raises(ValueError):
        check_kernel_pairing(2, 0.5)
    with pytest.raises(ValueError):
        check_kernel_pairing(2, -2.5)


def test_kernel_pairing_continuity_towards_zero():
    # the normalized family stays continuous as s -> 0^-: the rhs radial
    # integral grows like Gamma(-s/2) while its normalizer 1/Gamma(-s/2)
    # falls to 0, and the pairing still holds near rounding level
    for s in (-0.2, -0.1, -0.05):
        r = check_kernel_pairing(2, s)
        assert r.passed and r.max_rel_err <= 1e-12, (s, r)


def test_kernel_pairing_fails_on_a_perturbed_radial_integral(monkeypatch):
    # the same factor on both radial integrals cancels in the pairing, so
    # only the closed Gamma forms can catch it
    moment = verify._gaussian_moment
    monkeypatch.setattr(verify, "_gaussian_moment",
                        lambda p, c, quad_tol: moment(p, c, quad_tol) * (1.0 + 1e-6))
    reports = [r for r in verify.suite_numeric(seed=0)
               if r.name.startswith("kernel_pairing")]
    assert len(reports) == 3
    assert not any(r.passed for r in reports)


# -- ambient -----------------------------------------------------------------------


def test_ambient_operator_on_monomials():
    # B_mu(x_n) = -2 mu and B_mu(x_n^2) = -2 (2 mu + 1) x_n, by direct
    # differentiation: Box x_n = 0, Box x_n^2 = -2
    n = 2
    mu = 0.7
    pt = (1.1, 0.2, -0.3, 0.5)

    def F_lin(coords):
        return coords[n + 1]

    def F_sq(coords):
        return coords[n + 1] * coords[n + 1]

    coords = coordinate_jets(pt, 2)
    got_lin = verify.ambient_operator(mu, F_lin, coords, n)
    assert got_lin == pytest.approx(-2 * mu, rel=1e-13)
    got_sq = verify.ambient_operator(mu, F_sq, coords, n)
    assert got_sq == pytest.approx(-2 * (2 * mu + 1) * pt[n + 1], rel=1e-13)


def test_weight_conjugation_mu_zero_collapses():
    # mu = 0: both sides are x_n Box F
    n = 2
    f = GaussianBump((0.1, 0.2), 1.0)
    F = chart_family(n, 0.8, f)
    coords = coordinate_jets((1.0, 0.3, 0.1, 0.4), 2)
    lhs = verify.ambient_operator(0.0, F, coords, n)
    Fj = F(coords)
    rhs = 0.4 * dalembertian(Fj, n)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_dalembertian_reads_the_hessian_diagonal():
    n = 2
    F = chart_family(n, 0.8, GaussianBump((0.1, 0.2), 1.0))
    Fj = F(coordinate_jets((1.0, 0.3, 0.1, 0.4), 2))
    h = Fj.hess
    assert dalembertian(Fj, n) == h[0][0] - sum(h[i][i] for i in range(1, n + 2))


def test_ambient_noncompact_small():
    rng = np.random.default_rng(6)
    f = GaussianBump((0.2, -0.1), 1.2)
    r = check_ambient_noncompact(2, 0.8, f, rng, samples=10, tol=1e-9)
    assert r.passed and r.samples == 10, r


def test_yamabe_constant_values():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        r = check_yamabe_constant(n, rng, samples=10)
        assert r.passed


def test_extension_independence_and_euler():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        r = check_extension_independence(n, rng, samples=10)
        assert r.passed, r


def test_extension_off_its_degree_fails_the_report(monkeypatch):
    # an extension one degree off breaks the Euler identity: the check fails
    # its report with a finite error and names the identity, and the suite
    # runner reports it instead of raising
    extension = verify.sphere_extension
    monkeypatch.setattr(verify, "sphere_extension",
                        lambda n, fs, degree: extension(n, fs, degree + 1.0))
    r = check_extension_independence(3, np.random.default_rng(0), samples=10)
    assert not r.passed and math.isfinite(r.max_rel_err)
    assert r.diagnostics.startswith("Euler homogeneity identity residual ")
    reports = verify.run_suites("ambient", n_min=3, n_max=3)
    assert not next(r for r in reports
                    if r.name == "extension_independence_n3").passed


def test_ambient_compact_three_routes():
    rng = np.random.default_rng(9)
    n = 4
    vars_ = tuple(f"x{i}" for i in range(n + 1))
    fpoly = Poly.variable(vars_[0], vars_) * Poly.variable(vars_[n], vars_) \
        + Poly.variable(vars_[1], vars_) ** 2
    r = check_ambient_compact(n, 1.2, fpoly, rng, samples=10, tol=1e-8)
    assert r.passed and r.samples == 10, r


def test_ambient_compact_fails_when_every_draw_misses_the_guards():
    # xi = 0 maps to the pole (1, 0, ..., 0), where x_n = 0: every draw is
    # rejected, and the check reports the shortfall instead of raising
    n = 3
    vars_ = tuple(f"x{i}" for i in range(n + 1))
    fpoly = Poly.variable(vars_[1], vars_) ** 2
    r = check_ambient_compact(n, 1.2, fpoly, StubRng(itertools.repeat(np.zeros(n))))
    assert not r.passed and r.samples == 0
    assert r.diagnostics == "accepted 0 of 20 samples in 200 draws"


# -- suites ------------------------------------------------------------------------


def test_suite_symbolic_all_green():
    for r in verify.suite_symbolic():
        assert r.passed, r


def _report(name):
    return next(r for r in verify.suite_symbolic() if r.name == name)


def test_symbolic_suite_stays_off_the_fraction_route(monkeypatch):
    # every exact check reads the reduced basis: the suite composes no
    # Fraction DiffOp and never runs another oracle route of the tests
    # (apply, subs_value, the residual certificate)
    calls = []

    def recording(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("compose", "shift_lambda"):
        monkeypatch.setattr(oracles.DiffOp, name,
                            recording(name, getattr(oracles.DiffOp, name)))
    for name in ("apply", "subs_value", "decompose_tangential"):
        monkeypatch.setattr(oracles, name, recording(name, getattr(oracles, name)))
    assert all(r.passed for r in verify.suite_symbolic())
    assert calls == []


def test_right_composition_rebuilds_the_next_order():
    # order N at lam + 1 composed on the left of the first factor is order
    # N + 1: with the base case, a certificate that the closed form is the
    # defining composition
    for n in range(1, 9):
        for N in range(1, 12):
            assert verify._compose_first_factor(n, N) == juhl._reduced_iterated(n, N + 1), (n, N)


def _change_pure_normal_coefficient(monkeypatch):
    # +1 on the lam^0 coefficient of d_n^N at every order N
    original = verify._reduced_iterated

    def changed(n, N):
        reduced = dict(original(n, N))  # a copy: the original is cached
        c = reduced[(0, N, 0)]
        reduced[(0, N, 0)] = (c[0] + 1,) + c[1:]
        return reduced

    monkeypatch.setattr(verify, "_reduced_iterated", changed)


def test_shift_consistency_fails_on_a_changed_pure_normal_coefficient(monkeypatch):
    _change_pure_normal_coefficient(monkeypatch)
    r = _report("shift_consistency")
    assert not r.passed and r.max_rel_err == r.samples == 6


def test_power_constant_fails_on_a_changed_pure_normal_coefficient(monkeypatch):
    _change_pure_normal_coefficient(monkeypatch)
    r = _report("iterated_power_constant")
    assert not r.passed and r.max_rel_err == r.samples == 50


def test_zero_residual_fails_on_an_off_span_term(monkeypatch):
    original = verify._reduced_iterated

    def injected(n, N):
        # d_n^(N-1) with a constant coefficient: of order N - 1, so outside
        # the span of d_n^(N-2j) Lap'^j
        reduced = dict(original(n, N))
        reduced[(0, N - 1, 0)] = (1,)
        return reduced

    monkeypatch.setattr(verify, "_reduced_iterated", injected)
    r = _report("tangential_zero_residual")
    assert not r.passed and r.max_rel_err == r.samples == 50


def test_leading_coeff_fails_on_a_doubled_closed_form(monkeypatch):
    # juhl_coeffs compares a_0 with leading_coeff when it builds an entry;
    # a cached entry skips that, so the cache is emptied first.  Every
    # patched build raises, so no wrong entry is cached.
    original = juhl.leading_coeff
    monkeypatch.setattr(juhl, "leading_coeff", lambda n, N: 2 * original(n, N))
    juhl.juhl_coeffs.cache_clear()
    r = _report("juhl_leading_coeff")
    assert not r.passed and r.max_rel_err == r.samples == 50


def test_leading_coeff_fails_on_a_doubled_closed_form_when_cached(monkeypatch):
    # in a process that already ran the suite every juhl_coeffs entry is
    # cached and builds nothing, so the report itself must compare a_0
    verify.run_suites("symbolic")
    original = juhl.leading_coeff
    monkeypatch.setattr(juhl, "leading_coeff", lambda n, N: 2 * original(n, N))
    r = _report("juhl_leading_coeff")
    assert not r.passed and r.max_rel_err == r.samples == 50


def test_hat_involution_fails_on_a_doubled_coefficient(monkeypatch):
    original = symbolcalc.hat_kernel

    def doubled(n, s_const, s_lam):
        coeff, s_c, s_l = original(n, s_const, s_lam)
        return coeff * 2, s_c, s_l

    monkeypatch.setattr(symbolcalc, "hat_kernel", doubled)
    r = _report("kernel_hat_involution")
    assert not r.passed and r.max_rel_err == r.samples == 24


# each takes the intertwiner symbol's one term (coeff, s_const, s_lam) to a
# wrong one
KS_PERTURBATIONS = {
    "doubled_coefficient": lambda c, sc, sl: (c * 2, sc, sl),
    "pi_half_plus_1": lambda c, sc, sl: (
        symbolcalc.SymCoeff(c.num, c.den, two_a=c.two_a, two_b=c.two_b,
                            pi_half=c.pi_half + 1, i_pow=c.i_pow), sc, sl),
    "two_b_1": lambda c, sc, sl: (
        symbolcalc.SymCoeff(c.num, c.den, two_a=c.two_a, two_b=1,
                            pi_half=c.pi_half, i_pow=c.i_pow), sc, sl),
    "i_pow_1": lambda c, sc, sl: (
        symbolcalc.SymCoeff(c.num, c.den, two_a=c.two_a, two_b=c.two_b,
                            pi_half=c.pi_half, i_pow=1), sc, sl),
    "rf_times_lam": lambda c, sc, sl: (c * symbolcalc.SymCoeff((0, 1)), sc, sl),
    "s_const_plus_1": lambda c, sc, sl: (c, sc + 1, sl),
    "s_lam_minus_1": lambda c, sc, sl: (c, sc, -1),
}


@pytest.mark.parametrize("name", sorted(KS_PERTURBATIONS))
def test_ks_inversion_fails_on_a_perturbed_symbol(monkeypatch, name):
    original = symbolcalc.knapp_stein_symbol

    def perturbed(n):
        (t,) = original(n).terms
        coeff, s_const, s_lam = KS_PERTURBATIONS[name](t.coeff, t.s_const, t.s_lam)
        return symbolcalc.HExpr([symbolcalc.HTerm(coeff, t.eta_pow, s_const, s_lam,
                                                  t.target)])

    monkeypatch.setattr(symbolcalc, "knapp_stein_symbol", perturbed)
    reports = [r for r in verify.suite_numeric(seed=0)
               if r.name.startswith("ks_inversion_symbol")]
    assert [r.name for r in reports] == [f"ks_inversion_symbol_n{n}" for n in (1, 2, 3, 4)]
    assert not any(r.passed for r in reports)


@pytest.mark.parametrize("n_min, n_max", [(1, 1), (2, 3), (4, 8), (7, 8)])
def test_no_report_passes_on_no_case(n_min, n_max):
    # a check with no case in the range is left out rather than reported
    # as passed on 0 samples
    reports = verify.run_suites("all", seed=0, n_min=n_min, n_max=n_max)
    assert reports
    assert [r.name for r in reports if r.samples == 0] == []


def test_report_names_are_unique():
    # a failing report must point at one check: the map of a Knapp-Stein
    # report is part of its name
    names = [r.name for r in verify.run_suites("all", seed=0)]
    assert len(names) == len(set(names))
    assert "ks_intertwining_n1_lam0.8_dilation_translation" in names


def test_run_suites_selection():
    reps = verify.run_suites("symbolic")
    names = {r.name for r in reps}
    assert "symbol_factorization" in names
    assert all(r.passed for r in reps)
