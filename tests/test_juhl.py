import math
from fractions import Fraction

import pytest

from covop.algebra import Poly, RationalFunction
from covop.diffop import DiffOp, decompose_tangential, op_vars
from covop.juhl import (iterated, juhl_coeffs, leading_coeff, normalization_meta,
                        one_step)
from covop.special import PoleAtLambda
from covop.verify import _restricted_table


def lam_poly(n):
    return Poly.variable("lam", op_vars(n))


def test_one_step_n2():
    n = 2
    vars_ = op_vars(n)
    lam = lam_poly(n)
    xin = Poly.variable("xi2", vars_)
    want = DiffOp(n, {(0, 1): 2 * lam, (2, 0): xin, (0, 2): xin})
    assert one_step(n) == want


def test_one_step_n1():
    vars_ = op_vars(1)
    lam = Poly.variable("lam", vars_)
    xi = Poly.variable("xi1", vars_)
    want = DiffOp(1, {(1,): 2 * lam + 1, (2,): xi})
    assert one_step(1) == want


def test_one_step_drops_xin():
    for n in (1, 2, 4):
        vars_ = op_vars(n)
        xin = Poly.variable(f"xi{n}", vars_)
        lam = lam_poly(n)
        assert one_step(n).apply(xin) == 2 * lam + (2 - n)


def test_iterated_single_factor():
    for n in (1, 2, 3):
        assert iterated(n, 1) == one_step(n)


def test_iterated_equals_generic_composition():
    # the reduced-basis build must agree with plain Leibniz composition
    for n in (1, 2, 3):
        for N in (2, 3, 4):
            direct = one_step(n)
            for j in range(1, N):
                direct = one_step(n).shift_lambda(j).compose(direct)
            assert iterated(n, N) == direct


def test_juhl_coeffs_pin_to_generic_route():
    # the reduced-basis read-off must agree with expand, restrict, decompose
    for n in (1, 2, 3, 4):
        for N in (1, 2, 3, 5, 6):
            assert juhl_coeffs(n, N) == decompose_tangential(iterated(n, N).restrict(), N)


def test_restrict_pins_to_subs_value_route():
    # keeping the xi_n-free terms is evaluation at xi_n = 0, term order included
    for n in (1, 2, 3, 4):
        for N in (1, 2, 3, 5, 6):
            D = iterated(n, N)
            got = D.restrict()
            want = DiffOp(n, {a: c.subs_value(f"xi{n}", 0) for a, c in D.terms.items()})
            assert got == want
            assert [(a, list(c.terms)) for a, c in got.terms.items()] == \
                [(a, list(c.terms)) for a, c in want.terms.items()]
            # the numeric covariance check keeps the xi_n-free integer terms
            table = _restricted_table(n, N)
            assert list(table.items()) == \
                [(a, [(e[0], c) for e, c in p.terms.items()]) for a, p in got.terms.items()]


def test_iterated_on_normal_powers():
    # N-fold drop of xi_n^N: N! prod_{m=N+1}^{2N} (2 lam - n + m)
    for n in (2, 3):
        for N in (2, 3):
            vars_ = op_vars(n)
            xin = Poly.variable(f"xi{n}", vars_)
            lam = lam_poly(n)
            want = Poly.const(math.factorial(N), vars_)
            for m in range(N + 1, 2 * N + 1):
                want = want * (2 * lam + (m - n))
            assert iterated(n, N).apply(xin ** N) == want


def test_iterated_n2_on_square():
    # N=2 applied to xi_n^2 -> 2 (2 lam - n + 3)(2 lam - n + 4)
    n = 3
    vars_ = op_vars(n)
    xin = Poly.variable("xi3", vars_)
    lam = lam_poly(n)
    got = iterated(n, 2).apply(xin ** 2)
    assert got == 2 * (2 * lam + (3 - n)) * (2 * lam + (4 - n))


def test_iterated_n3_on_cube():
    n = 2
    vars_ = op_vars(n)
    xin = Poly.variable("xi2", vars_)
    lam = lam_poly(n)
    got = iterated(n, 3).apply(xin ** 3)
    assert got == 6 * (2 * lam + (4 - n)) * (2 * lam + (5 - n)) * (2 * lam + (6 - n))


def test_leading_coeff_closed_form():
    lam = Poly.from_univariate([0, 1])
    assert leading_coeff(4, 1) == 2 * lam - 2
    assert leading_coeff(3, 2) == (2 * lam) * (2 * lam + 1)
    assert leading_coeff(3, 3) == (2 * lam + 1) * (2 * lam + 2) * (2 * lam + 3)


def test_juhl_coeffs_small_orders():
    t1 = juhl_coeffs(3, 1)
    assert t1.coeffs[0] == RationalFunction(Poly.from_univariate([-1, 2]))
    t2 = juhl_coeffs(3, 2)
    lam = Poly.from_univariate([0, 1])
    assert t2.coeffs[0] == RationalFunction((2 * lam) * (2 * lam + 1))
    assert t2.coeffs[1] == RationalFunction(2 * lam + 1)


def closed_form_coeff(n, N, m):
    """a_m = N!/(2^m m! (N-2m)!) prod (2 lam - n + k), k over N+1..2N
    without the m odd values 2N-1, 2N-3, ..., 2N-2m+1."""
    lam = Poly.from_univariate([0, 1])
    skip = {2 * N - 2 * r + 1 for r in range(1, m + 1)}
    out = Poly.const(Fraction(math.factorial(N),
                              2 ** m * math.factorial(m) * math.factorial(N - 2 * m)), ("lam",))
    for k in range(N + 1, 2 * N + 1):
        if k not in skip:
            out = out * (2 * lam + (k - n))
    return out


def test_juhl_coeffs_match_closed_form_grid():
    for n in range(2, 9):
        for N in range(1, 13):
            coeffs = juhl_coeffs(n, N).coeffs
            assert coeffs[0] == RationalFunction(leading_coeff(n, N))
            for m, a in enumerate(coeffs):
                assert a == closed_form_coeff(n, N, m), (n, N, m)


def test_juhl_coeffs_polynomial_in_lam():
    for n in (2, 3):
        for N in (1, 2, 3, 4):
            for a in juhl_coeffs(n, N).coeffs:
                assert isinstance(a, Poly) and a.vars == ("lam",)


def test_shift_consistency():
    for n in (2, 3):
        for N in (1, 2):
            lhs = iterated(n, N).shift_lambda(1).compose(one_step(n))
            assert lhs == iterated(n, N + 1)


def test_one_step_never_zero():
    for n in range(1, 9):
        assert one_step(n).terms


# -- normalization metadata --------------------------------------------------


def test_meta_even_ratio_example():
    # n=4, N=2 at lam=0: (2!/1!) * 2^0 * (2*0) = 0 flags a reducibility point
    m = normalization_meta(4, 2)
    assert m.parity == "even"
    assert m.ratio_value(0.0) == 0.0
    assert m.ratio_value(1.0) == pytest.approx(4.0)


def test_meta_odd_ratio_example():
    # n=3, N=1 at lam=1: (1!/0!) * 2^1 * (2-3+1+1) = 2
    m = normalization_meta(3, 1)
    assert m.parity == "odd"
    assert m.ratio_value(1.0) == pytest.approx(2.0)


def test_meta_gamma_factors_at_order_one():
    # N=1: no pi power, factors Gamma(lam+1) Gamma(n-1-lam); at n=2 the
    # second is Gamma(1-lam)
    m = normalization_meta(2, 1)
    assert m.pi_power == 0
    assert [(g.const, g.lam_coeff) for g in m.gammas] == \
        [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    # Gamma(1.5) Gamma(0.5) at lam = 0.5
    assert m.dtilde_value(0.5) == pytest.approx(math.gamma(1.5) * math.gamma(0.5))


def test_meta_pi_power():
    assert normalization_meta(3, 4).pi_power == 9
    assert normalization_meta(2, 5).pi_power == 8


def test_meta_pole():
    m = normalization_meta(2, 1)  # Gamma(lam+1) Gamma(1-lam)
    with pytest.raises(PoleAtLambda):
        m.dtilde_value(-1.0)
    with pytest.raises(PoleAtLambda):
        m.dtilde_value(1.0)
    assert math.isfinite(m.dtilde_value(0.25))


def test_meta_parity_matches_order():
    for N in range(1, 8):
        assert normalization_meta(3, N).parity == ("even" if N % 2 == 0 else "odd")
