import math

import numpy as np
import pytest

from covop.special import PoleAtLambda, _gamma, gamma_checked, near_pole


def _same(got, want):
    """Equal as doubles, with nan equal to nan and the sign of an infinity or
    a zero compared too."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# argument -> what scipy.special.gamma returns there
EDGES = [(math.nan, math.nan), (math.inf, math.inf), (-math.inf, math.nan),
         (0.0, math.inf), (-0.0, -math.inf), (-1.0, math.nan), (-2.0, math.nan),
         (-34.0, math.nan), (-1e20, math.nan), (171.7, math.inf), (1e300, math.inf)]


def test_non_finite_arguments_are_no_poles():
    for z in (math.nan, math.inf, -math.inf, complex(math.inf, 0.0),
              complex(math.nan, 0.0), complex(-math.inf, 1.0),
              complex(-2.0, math.nan)):
        assert near_pole(z) is False
    assert math.isnan(gamma_checked(math.nan))
    assert gamma_checked(math.inf) == math.inf
    assert math.isnan(gamma_checked(-math.inf))
    g = gamma_checked(complex(math.nan, 0.0))
    assert math.isnan(g.real) and math.isnan(g.imag)
    with pytest.raises(PoleAtLambda):
        gamma_checked(-3.0)


def test_gamma_edge_values():
    for x, want in EDGES:
        assert _same(_gamma(x), want), x


def test_gamma_exact_at_integers_and_half_integers():
    for k in range(1, 20):
        assert gamma_checked(float(k)) == math.factorial(k - 1)
    assert gamma_checked(0.5) == math.sqrt(math.pi)


# -- bit identity with scipy -------------------------------------------------------


def _real_inputs():
    rng = np.random.default_rng(20261018)
    return np.concatenate([
        rng.uniform(-171.6, 171.6, 100_000),  # |x| > 33: Stirling, reflection
        rng.uniform(-34.0, -32.0, 5_000), rng.uniform(32.0, 34.0, 5_000),
        rng.uniform(-1e-3, 1e-3, 5_000),
        rng.uniform(-2e-9, 2e-9, 5_000),  # the small-argument branch
        np.arange(-171, 171) + 0.5,
    ])


def _complex_inputs():
    """Seeded points on every branch of log-Gamma."""
    rng = np.random.default_rng(20261019)

    def box(re_lo, re_hi, im_lo, im_hi, k):
        return rng.uniform(re_lo, re_hi, k) + 1j * rng.uniform(im_lo, im_hi, k)

    def disc(center, radius, k):
        return center + radius * np.sqrt(rng.uniform(0, 1, k)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, k))

    above = rng.uniform(-12.0, 12.0, 5_000) + 0j  # on the real axis
    below = above.copy()
    below.imag = -0.0
    exact = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 7.0, 7.5, -0.5, -6.5]) + 0j
    return np.concatenate([
        box(7.0, 180.0, -7.0, 7.0, 10_000),  # Stirling, Re z > 7
        box(-180.0, 180.0, 7.0, 100.0, 5_000),  # Stirling, |Im z| > 7
        box(-180.0, 180.0, -100.0, -7.0, 5_000),
        disc(1.0, 0.2, 15_000),  # Taylor series about 1
        disc(2.0, 0.2, 15_000),  # log z - 1 plus the Taylor series
        box(-12.0, 0.1, -7.0, 7.0, 20_000),  # reflection
        box(0.1, 7.0, 0.0, 7.0, 15_000),  # recurrence, Im z >= 0
        box(0.1, 7.0, -7.0, 0.0, 15_000),  # recurrence through the conjugate
        above, below, exact,
    ])


def test_real_gamma_matches_scipy_bit_for_bit():
    scipy_special = pytest.importorskip("scipy.special")
    xs = _real_inputs()
    want = scipy_special.gamma(xs)
    bad = [(x, _gamma(x), w) for x, w in zip(xs.tolist(), want.tolist())
           if _gamma(x) != w]
    assert bad == []
    for x, _ in EDGES:
        assert _same(_gamma(x), float(scipy_special.gamma(x))), x


def test_complex_gamma_matches_scipy_bit_for_bit():
    scipy_special = pytest.importorskip("scipy.special")
    zs = _complex_inputs()
    want = scipy_special.gamma(zs)
    bad = [(z, gamma_checked(z), w) for z, w in zip(zs.tolist(), want.tolist())
           if gamma_checked(z) != w]
    assert bad == []
