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
    for x in (math.nan, math.inf, -math.inf):
        assert near_pole(x) is False
    assert math.isnan(gamma_checked(math.nan))
    assert gamma_checked(math.inf) == math.inf
    assert math.isnan(gamma_checked(-math.inf))
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


def test_real_gamma_matches_scipy_bit_for_bit():
    scipy_special = pytest.importorskip("scipy.special")
    xs = _real_inputs()
    want = scipy_special.gamma(xs)
    bad = [(x, _gamma(x), w) for x, w in zip(xs.tolist(), want.tolist())
           if _gamma(x) != w]
    assert bad == []
    for x, _ in EDGES:
        assert _same(_gamma(x), float(scipy_special.gamma(x))), x

