import math

import pytest

from covop import jets, juhl, symbolcalc, verify
from covop.conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                             PulledBack, Rotation, Translation)
from covop.jets import Jet, coordinate_jets
from covop.verify import (CheckReport, Stream, check_ambient_compact,
                          check_ambient_noncompact, check_covariance_iterated,
                          check_covariance_one_step, check_extension_independence,
                          check_kernel_pairing, check_ks_intertwining,
                          check_yamabe_constant, chart_family,
                          dalembertian, knapp_stein_value, rel_err)

import oracles


def stub_stream(random):
    """A Stream whose draws are built from ``random`` in place of the seeded
    random()."""
    rng = Stream(0)
    rng.random = random
    return rng


def no_draw():
    raise AssertionError("a draw was made")


def test_report_pass_criterion():
    r = CheckReport.from_errors("x", [1e-12, 5e-10], 1e-9, ["a", "b"])
    assert r.passed and r.max_rel_err == 5e-10 and r.samples == 2
    r = CheckReport.from_errors("x", [1e-12, 5e-9], 1e-9, ["a", "b"])
    assert not r.passed and r.diagnostics == "b"


def test_nan_error_fails_its_report():
    # a NaN error is the worst sample, and the NaN <= tol comparison is
    # False
    r = CheckReport.from_errors("x", [0.0, math.nan], 1.0)
    assert r.passed is False
    assert r.diagnostics == "sample 1"
    assert r.samples == 2 and math.isnan(r.max_rel_err)
    # a NaN after a larger finite error is still the worst sample
    r = CheckReport.from_errors("x", [0.5, 9.0, math.nan, 0.1], 1.0)
    assert r.passed is False and r.diagnostics == "sample 2"
    assert math.isnan(r.max_rel_err)
    # of tied largest errors the first is the worst sample
    r = CheckReport.from_errors("x", [0.1, 3.0, 0.2, 3.0], 1.0, list("abcd"))
    assert r.passed is False and r.diagnostics == "b" and r.max_rel_err == 3.0


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


def test_sampler_lets_other_errors_propagate():
    # only SingularPoint rejects a sample: a fault in a draw is not a rejection
    calls = []

    def draw(k):
        calls.append(k)
        if len(calls) == 3:
            raise NotImplementedError("a fault in the check")
        return 1e-12, f"k={k}"

    with pytest.raises(NotImplementedError):
        verify._sampled("faulty", 5, 1e-9, draw)
    assert calls == [0, 1, 2]

    def recurse(k):
        return recurse(k)

    with pytest.raises(RecursionError):
        verify._sampled("recursing", 3, 1e-9, recurse)


def test_stream_uniform_is_pythons_random_at_the_seed():
    # Python promises random()'s sequence for a seed; a change to it shows here
    rng = Stream(0)
    assert [rng.uniform() for _ in range(5)] == [
        0.8444218515250481, 0.7579544029403025, 0.420571580830845,
        0.25891675029296335, 0.5112747213686085]
    rng = Stream(0)
    assert rng.uniform(-1.0, 3.0, 2) == [-1.0 + 4.0 * 0.8444218515250481,
                                         -1.0 + 4.0 * 0.7579544029403025]


def test_stream_integers_stay_below_high():
    # random() < 1, and (high - low) * random() rounds below high - low even
    # at the largest double under 1
    for value in (0.0, 0.5, 1.0 - 2.0 ** -53):
        rng = stub_stream(lambda: value)
        for low, high in ((0, 4), (1, 4), (-2, 3), (1, 2), (0, 10**6 + 3), (-7, -6)):
            k = rng.integers(low, high)
            assert type(k) is int and low <= k < high, (value, low, high)
    assert stub_stream(lambda: 1.0 - 2.0 ** -53).integers(-2, 3) == 2


def test_stream_direction_lies_on_the_unit_sphere():
    rng = Stream(3)
    for d in range(1, 6):
        for _ in range(50):
            x = rng.direction(d)
            assert len(x) == d
            assert abs(math.fsum(c * c for c in x) - 1.0) <= 4 * 2.0 ** -52, (d, x)


def test_stream_direction_raises_singular_point_when_every_try_is_rejected():
    # random() = 0.5 draws the cube's centre, where x = 0 has no direction;
    # random() = 0 draws the corner (-1, ..., -1), outside the ball for d >= 2
    calls = []
    rng = stub_stream(lambda: calls.append(1) or 0.5)
    for d in range(1, 6):
        calls.clear()
        with pytest.raises(verify.SingularPoint):
            rng.direction(d)
        assert len(calls) == verify.DIRECTION_TRIES * d
    with pytest.raises(verify.SingularPoint):
        stub_stream(lambda: 0.0).direction(2)
    assert stub_stream(lambda: 0.0).direction(1) == [-1.0]
    # a sample whose direction is rejected is rejected by _sampled
    r = verify.check_yamabe_constant(3, rng, samples=2)
    assert not r.passed and r.samples == 0


def test_point_sampler_rejects_a_word_by_singular_point():
    # a word with no regular point near the bump raises SingularPoint, which
    # _sampled counts as a rejected sample
    class Singular:
        def act(self, xi):
            raise verify.SingularPoint("always")

    f = GaussianBump((0.0, 0.0), 1.0)
    with pytest.raises(verify.SingularPoint):
        verify.sample_point_for(Stream(0), Singular(), f)
    r = verify._sampled("singular", 2, 1e-9, lambda k: verify.sample_point_for(
        Stream(k), Singular(), f))
    assert not r.passed and r.samples == 0


def test_sampler_counts_accepted_samples():
    def draw(k):
        return (1e-12 * k, f"k={k}") if k < 2 else None

    r = verify._sampled("short", 4, 1e-9, draw)
    assert not r.passed and r.samples == 2 and r.max_rel_err == 1e-12
    assert r.diagnostics.startswith("accepted 2 of 4 samples")
    full = verify._sampled("full", 3, 1e-9, lambda k: (1e-12 * k, f"k={k}"))
    assert full.passed and full.samples == 3 and full.diagnostics == "k=2"


def test_seeded_checks_refuse_fewer_than_one_sample_before_any_draw():
    # a report on 0 samples would pass with nothing checked
    rng = stub_stream(no_draw)
    f = GaussianBump((0.2,), 1.0)
    draws = []
    for check in (lambda: verify._sampled("none", 0, 1e-9, draws.append),
                  lambda: verify.check_factor_vs_jet(2, rng, samples=0),
                  lambda: check_covariance_iterated(2, 2, rng, samples=-3),
                  lambda: check_ks_intertwining(1, 0.9, ConformalMap(1), f, rng,
                                                samples=0)):
        with pytest.raises(ValueError):
            check()
    assert not draws


def test_every_seeded_report_passes_at_ten_seeds():
    # the tolerances hold with margin beyond the pinned seeds 0, 7 and 11
    for seed in range(10):
        failed = [r.name for r in verify.suite_numeric(seed) + verify.suite_ambient(seed)
                  if not r.passed]
        assert failed == [], seed


def test_covariance_dilation_and_translation_only():
    # affine cases close in closed form; errors are pure rounding
    rng = Stream(2)
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
    rng = Stream(3)
    r = check_covariance_one_step(3, rng, samples=25, tol=1e-9)
    assert r.passed, r


def test_covariance_holds_for_complex_parameter():
    # the twisted action is defined for complex weights; the identity is
    # holomorphic in the parameter, so it must close there too
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


def test_the_second_order_checks_multiply_no_full_order_2_jet(monkeypatch):
    # the one-step and ambient operators read value, gradient and pure second
    # partials, so their checks run on pure jets, which skip the mixed pairs;
    # a check that went back to full jets would give that saving back
    full, products = [], []
    product = jets._product

    def counted(shape, a, b):
        products.append(shape.dim)
        if shape.order == 2 and not shape.pure:
            full.append(shape.dim)
        return product(shape, a, b)

    monkeypatch.setattr(jets, "_product", counted)
    verify.suite_ambient(0)
    for n in (2, 3):
        check_covariance_one_step(n, Stream(n), samples=10)
    assert products and full == []
    # the counter sees a full order-2 product where there is one
    check_covariance_iterated(2, 2, Stream(0), samples=2)
    assert full


def test_covariance_iterated_reduces_to_one_step_at_order_one():
    rng = Stream(4)
    r1 = check_covariance_iterated(2, 1, rng, samples=10, tol=1e-9)
    assert r1.passed, r1


def test_covariance_iterated_at_the_numeric_cap():
    # N = 4 needs order-4 jets internally
    rng = Stream(77)
    r = check_covariance_iterated(2, 4, rng, samples=5, tol=1e-8)
    assert r.passed, r


def test_covariance_iterated_cap():
    rng = Stream(5)
    with pytest.raises(ValueError):
        check_covariance_iterated(2, 5, rng)


def test_covariance_iterated_fails_on_a_doubled_a1(monkeypatch):
    # the numeric table is read off juhl_coeffs, so a wrong a_1 must show
    original = verify.juhl_coeffs

    def doubled(n, N):
        t = original(n, N)
        return (t[0], tuple(2 * c for c in t[1])) + t[2:]

    monkeypatch.setattr(verify, "juhl_coeffs", doubled)
    for n in (2, 3):
        for N in (2, 3):
            r = check_covariance_iterated(n, N, Stream(0), samples=10, tol=1e-8)
            assert not r.passed, r


# -- quadrature --------------------------------------------------------------------


def test_j1_gaussian_is_one():
    # in closed form for the bump, by quadrature for its identity pullback
    f = GaussianBump((0.0,), 1.0)
    for func in (f, PulledBack(1.0, ConformalMap(1), f)):
        for x in (0.0, 0.6, -1.1):
            v = knapp_stein_value(1, 1.0, func, (x,), quad_tol=1e-10)
            assert abs(v - 1.0) <= 1e-8


def test_ks_identity_map_trivial():
    f = GaussianBump((0.2,), 1.0)
    r = check_ks_intertwining(1, 0.9, ConformalMap(1), f,
                              Stream(10), samples=2,
                              quad_tol=1e-8, tol=1e-10)
    assert r.passed and r.samples == 2


def test_ks_dilation_n2():
    f = GaussianBump((0.3, 0.3), 1.1)
    g = ConformalMap(2, [Dilation(2.0)])
    r = check_ks_intertwining(2, 1.3, g, f, Stream(11), samples=2,
                              quad_tol=1e-6, tol=1e-5)
    assert r.passed and r.samples == 2, r


def test_ks_truncation_self_consistency(monkeypatch):
    # doubling the effective support radius, and so nearly doubling the
    # truncation radius, moves the quadrature of a pullback by far less than
    # tol/10
    f = PulledBack(0.8, ConformalMap(1, [Translation((0.2,))]), GaussianBump((0.1,), 1.0))
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


def test_ks_value_refuses_a_function_or_point_of_the_wrong_dimension():
    # zip dropped the surplus: a 2-d bump at a 1-d point gave 0.965
    with pytest.raises(ValueError, match="function has dimension 2"):
        knapp_stein_value(1, 0.8, GaussianBump((0.0, 0.0)), (0.3,))
    with pytest.raises(ValueError, match="point has dimension 2"):
        knapp_stein_value(1, 0.8, GaussianBump((0.0,)), (0.3, 0.1))


def test_ks_intertwining_refuses_a_word_or_function_of_the_wrong_dimension():
    rng = stub_stream(no_draw)
    with pytest.raises(ValueError, match="function has dimension 2"):
        check_ks_intertwining(1, 0.9, ConformalMap(1, [Dilation(2.0)]),
                              GaussianBump((0.2, 0.1), 1.1), rng, samples=2)
    with pytest.raises(ValueError, match="word has dimension 2"):
        check_ks_intertwining(1, 0.9, ConformalMap(2, [Dilation(2.0)]),
                              GaussianBump((0.2,), 1.1), rng, samples=2)


def test_ks_quadrature_budget_guard():
    # an unreachable tolerance must surface as a budget error, not silence;
    # a pullback on R^1 is the function that goes through the quadrature
    f = PulledBack(0.8, ConformalMap(1), GaussianBump((0.0,), 1.0))
    with pytest.raises(verify.QuadratureBudgetExceeded):
        knapp_stein_value(1, 0.8, f, (0.3,), quad_tol=1e-30)


@pytest.mark.parametrize("s", [-0.9, -0.4, 0.4])
def test_de_quad_endpoint_power(s):
    # the singular factor is read off the endpoint distance d0
    got = verify._de_quad(lambda d0, db: d0 ** s, 1.0, 1e-13)
    assert abs(got - 1.0 / (s + 1.0)) <= 1e-12 / (s + 1.0)


def test_de_quad_level_cap():
    # a jump inside the interval converges like h, far slower than 1e-10
    with pytest.raises(verify.QuadratureBudgetExceeded, match="levels 7 and 8"):
        # on [0, 1] the distance d0 to 0 is the abscissa x
        verify._de_quad(lambda d0, db: (d0 > 1.0 / 3.0) * 1.0, 1.0, 1e-10)


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 2.0])
def test_gaussian_moment_closed_form(p):
    # int_0^inf r^p exp(-r^2) dr = Gamma((p+1)/2)/2, through r = t/(1-t)
    want = 0.5 * math.gamma((p + 1.0) / 2.0)
    assert abs(verify._gaussian_moment(p, 1.0, 1e-13) - want) <= 1e-12 * want


#: the suite's maps of R^n as (r, theta, v), for g(y) = r R_theta y + v with
#: R_theta the rotation of the (xi_1, xi_2) plane: a dilation, a translation,
#: and a rotation (a dilation and a translation on R^1)
SUITE_MAPS = {1: [(2.0, 0.0, (0.0,)), (1.0, 0.0, (0.4,)), (0.5, 0.0, (-0.3,))],
              2: [(2.0, 0.0, (0.0,) * 2), (1.0, 0.0, (0.4,) * 2), (1.0, 0.7, (0.0,) * 2)],
              3: [(2.0, 0.0, (0.0,) * 3), (1.0, 0.0, (0.4,) * 3), (1.0, 0.7, (0.0,) * 3)]}

QUADPACK_POINTS = {1: [(0.0,), (0.5,), (-0.9,)],
                   2: [(0.0, 0.0), (0.5, -0.25), (-0.9, 0.7)],
                   3: [(0.0, 0.0, 0.0), (-0.9, 0.7, -0.4)]}


def _word(n, r, theta, v):
    """The covop word of g(y) = r R_theta y + v."""
    word = [Rotation(n, math.cos(theta), math.sin(theta))] if theta else []
    word += [Dilation(r)] if r != 1.0 else []
    word += [Translation(v)] if any(v) else []
    return ConformalMap(n, word)


def _pulled_back_bump(lam, r, theta, v, center, width):
    """rho_lam(g) of exp(-|xi - center|^2 / width^2) for g(y) = r R_theta y + v,
    on an array of points of shape (n, m), written here in numpy: g^-1 xi is
    R_-theta (xi - v) / r, and kappa(g^-1, xi) is 1/r."""
    np = pytest.importorskip("numpy")
    v, center = np.array(v)[:, None], np.array(center)[:, None]

    def value(pts):
        y = (pts - v) / r
        if theta:
            c, s = math.cos(theta), math.sin(theta)
            y = np.concatenate(([c * y[0] + s * y[1]], [-s * y[0] + c * y[1]], y[2:]))
        return r ** -lam * np.exp(-np.sum((y - center) ** 2, axis=0) / width ** 2)

    return value


def _quadpack_knapp_stein(n, lam, value, x, radius):
    """(1/Gamma(lam - n/2)) int |x - eta|^(2 lam - 2 n) value(eta) d eta by
    scipy's QUADPACK in r = |x - eta| on [0, radius]: on R^1 over both sides
    of x; on R^2 times a 2048-angle periodic trapezoid over the circle; on R^3
    times a product rule over the sphere, 64 Gauss-Legendre nodes in
    cos(theta) by a 128-angle trapezoid in phi."""
    np = pytest.importorskip("numpy")
    quad = pytest.importorskip("scipy.integrate").quad
    s = 2.0 * lam - 2.0 * n
    if n == 1:
        total = quad(lambda e: abs(x[0] - e) ** s * value(np.array([[e]]))[0]
                     if e != x[0] else 0.0, x[0] - radius, x[0] + radius,
                     points=[x[0]], epsabs=1e-14, epsrel=1e-13, limit=500)[0]
    else:
        if n == 2:
            phi = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
            dirs = np.array([np.cos(phi), np.sin(phi)])
            weights = np.full(2048, 2.0 * math.pi / 2048)
        else:
            t, wt = np.polynomial.legendre.leggauss(64)
            phi = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
            t, phi = np.meshgrid(t, phi, indexing="ij")
            sin_t = np.sqrt(1.0 - t * t)
            dirs = np.array([sin_t * np.cos(phi), sin_t * np.sin(phi), t]).reshape(3, -1)
            weights = np.repeat(wt * (2.0 * math.pi / 128), 128)
        xs = np.array(x)[:, None]
        total = quad(lambda r: r ** (s + n - 1.0) * float(weights @ value(xs + r * dirs))
                     if r > 0.0 else 0.0, 0.0, radius,
                     epsabs=1e-14, epsrel=1e-13, limit=500)[0]
    return total / math.gamma(lam - n / 2.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ks_value_matches_quadpack(n):
    # QUADPACK is the oracle of both routes of knapp_stein_value: the closed
    # form of a plain bump (every n) and of an affine pullback (n >= 2), and
    # the tanh-sinh quadrature of a pullback on R^1; the integrand is this
    # test's own numpy code, through no covop evaluation
    center, width = (0.3,) * n, 1.1
    f = GaussianBump(center, width)
    for lam in (0.8 * n, 1.1 * n):
        cases = [(f, _pulled_back_bump(lam, 1.0, 0.0, (0.0,) * n, center, width),
                  center, width)]
        for r, theta, v in SUITE_MAPS[n]:
            g = _word(n, r, theta, v)
            image = g.act(center)
            cases.append((PulledBack(lam, g, f),
                          _pulled_back_bump(lam, r, theta, v, center, width),
                          image, r * width))
        for func, value, c, w in cases:
            for x in QUADPACK_POINTS[n]:
                # 14 widths past the bump's center the Gaussian is below 1e-85
                radius = math.dist(x, c) + 14.0 * w
                got = knapp_stein_value(n, lam, func, x, quad_tol=1e-10)
                want = _quadpack_knapp_stein(n, lam, value, x, radius)
                assert rel_err(got, want) <= 1e-12, (lam, func, x)


def test_scaled_kummer_special_cases():
    # e^-z M(a, a, z) = 1, and M(1, 2, z) = (e^z - 1)/z
    for z in (0.0, 1e-3, 0.7, 5.0, 40.0, 300.0, verify.KUMMER_Z_MAX):
        for a in (0.1, 1.0, 2.5):
            assert verify._scaled_kummer(a, a, z) == pytest.approx(1.0, rel=5e-14)
        if z:
            want = -math.expm1(-z) / z
            assert verify._scaled_kummer(1.0, 2.0, z) == pytest.approx(want, rel=5e-14)


def test_scaled_kummer_matches_scipy():
    hyp1f1 = pytest.importorskip("scipy.special").hyp1f1
    for a in (0.05, 0.4, 1.5, 4.0):
        for b in (0.5, 1.0, 1.5, 4.0):
            for z in (0.0, 0.3, 2.0, 9.0, 30.0):
                want = math.exp(-z) * hyp1f1(a, b, z)
                assert verify._scaled_kummer(a, b, z) == pytest.approx(want, rel=1e-12)


def test_ks_value_refuses_what_it_has_no_route_for():
    bump = GaussianBump((0.1, 0.2), 1.0)
    # no closed form at n >= 2 for a prefactor or a word with an inversion
    with pytest.raises(ValueError, match="without a prefactor"):
        knapp_stein_value(2, 1.3, bump.times_coordinate(0), (0.3, 0.1))
    with pytest.raises(ValueError, match="without a prefactor"):
        knapp_stein_value(2, 1.3, PulledBack(1.3, ConformalMap(2, [Inversion()]), bump),
                          (0.3, 0.1))
    # the Kummer series stops where e^-z leaves the normal floats
    far = GaussianBump((0.0,), 0.1)
    assert knapp_stein_value(1, 0.8, far, (2.6,)) > 0.0
    with pytest.raises(ValueError, match="Kummer series"):
        knapp_stein_value(1, 0.8, far, (2.7,))


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
    got_lin = verify.ambient_operator(mu, F_lin(coords), coords, n)
    assert got_lin == pytest.approx(-2 * mu, rel=1e-13)
    got_sq = verify.ambient_operator(mu, F_sq(coords), coords, n)
    assert got_sq == pytest.approx(-2 * (2 * mu + 1) * pt[n + 1], rel=1e-13)


def test_weight_conjugation_mu_zero_collapses():
    # mu = 0: both sides are x_n Box F
    n = 2
    f = GaussianBump((0.1, 0.2), 1.0)
    F = chart_family(n, 0.8, f)
    coords = coordinate_jets((1.0, 0.3, 0.1, 0.4), 2)
    Fj = F(coords)
    lhs = verify.ambient_operator(0.0, Fj, coords, n)
    rhs = 0.4 * dalembertian(Fj, n)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_dalembertian_reads_the_hessian_diagonal():
    n = 2
    F = chart_family(n, 0.8, GaussianBump((0.1, 0.2), 1.0))
    Fj = F(coordinate_jets((1.0, 0.3, 0.1, 0.4), 2))
    h = oracles.hess(Fj)
    assert dalembertian(Fj, n) == h[0][0] - sum(h[i][i] for i in range(1, n + 2))


def test_ambient_noncompact_small():
    rng = Stream(6)
    f = GaussianBump((0.2, -0.1), 1.2)
    r = check_ambient_noncompact(2, 0.8, f, rng, samples=10, tol=1e-9)
    assert r.passed and r.samples == 10, r


def test_ambient_noncompact_refuses_a_function_of_the_wrong_dimension():
    # a 1-d bump on R^2 passed with max_rel_err 2.1e-15
    with pytest.raises(ValueError, match="function has dimension 1"):
        check_ambient_noncompact(2, 0.8, GaussianBump((0.2,), 1.1),
                                 stub_stream(no_draw), samples=10)


def test_yamabe_constant_values():
    rng = Stream(7)
    for n in (2, 3, 4):
        r = check_yamabe_constant(n, rng, samples=10)
        assert r.passed


def test_extension_independence_and_euler():
    rng = Stream(8)
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
    r = check_extension_independence(3, Stream(0), samples=10)
    assert not r.passed and math.isfinite(r.max_rel_err)
    assert r.diagnostics.startswith("Euler homogeneity identity residual ")
    reports = verify.run_suites("ambient", n_min=3, n_max=3)
    assert not next(r for r in reports
                    if r.name == "extension_independence_n3").passed


def test_extension_independence_fails_on_a_nan_euler_residual(monkeypatch):
    # a NaN Euler residual fails the report as a large one does: max() would
    # drop the NaN, and a "residual > bound" test is false for it
    grad = Jet.grad.fget
    for bad in (1e3, math.nan):
        monkeypatch.setattr(Jet, "grad", property(lambda j, bad=bad: [bad] + grad(j)[1:]))
        r = check_extension_independence(2, Stream(0), samples=5)
        assert not r.passed, bad
        assert r.diagnostics.startswith("Euler homogeneity identity residual ")


def test_ambient_compact_three_routes():
    rng = Stream(9)
    n = 4
    r = check_ambient_compact(n, 1.2, lambda x: x[0] * x[n] + x[1] * x[1], rng,
                              samples=10, tol=1e-8)
    assert r.passed and r.samples == 10, r


def test_ambient_compact_fails_when_every_draw_misses_the_guards():
    # random() = 0.5 draws xi = 0, which maps to the pole (1, 0, ..., 0),
    # where x_n = 0: every draw is rejected, and the check reports the
    # shortfall instead of raising
    r = check_ambient_compact(3, 1.2, lambda x: x[1] * x[1], stub_stream(lambda: 0.5))
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
    for N in range(1, 12):
        assert verify._compose_first_factor(N) == juhl._reduced_iterated(N + 1), N


def _change_pure_normal_coefficient(monkeypatch):
    # +1 on the u^0 coefficient of d_n^N at every order N
    original = verify._reduced_iterated

    def changed(N):
        reduced = dict(original(N))  # a copy: the original is cached
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

    def injected(N):
        # d_n^(N-1) with a constant coefficient: of order N - 1, so outside
        # the span of d_n^(N-2j) Lap'^j
        reduced = dict(original(N))
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
    monkeypatch.setattr(juhl, "leading_coeff",
                        lambda n, N: tuple(2 * c for c in original(n, N)))
    juhl.juhl_coeffs.cache_clear()
    r = _report("juhl_leading_coeff")
    assert not r.passed and r.max_rel_err == r.samples == 50


def test_leading_coeff_fails_on_a_doubled_closed_form_when_cached(monkeypatch):
    # in a process that already ran the suite every juhl_coeffs entry is
    # cached and builds nothing, so the report itself must compare a_0
    verify.run_suites("symbolic")
    original = juhl.leading_coeff
    monkeypatch.setattr(juhl, "leading_coeff",
                        lambda n, N: tuple(2 * c for c in original(n, N)))
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
        (((target, s_const, s_lam, eta_pow), coeff),) = original(n).terms.items()
        coeff, s_const, s_lam = KS_PERTURBATIONS[name](coeff, s_const, s_lam)
        return symbolcalc.HExpr([((target, s_const, s_lam, eta_pow), coeff)])

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


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ValueError) as info:
        verify.run_suites("symbolc")
    for suite in ("symbolic", "numeric", "ambient", "all"):
        assert suite in str(info.value)
