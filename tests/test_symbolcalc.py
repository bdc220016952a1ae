from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from covop import symbolcalc, verify
from covop.algebra import Poly
from covop.symbolcalc import (HExpr, HTerm, SymCoeff, check_factorization,
                              check_ks_inversion, d_normal,
                              factorization_constant, hat_kernel,
                              knapp_stein_symbol, mul_norm_sq,
                              symbol_ks_after_onestep, symbol_mult_after_ks)

from oracles import symcoeff_normal_form


def term(coeff, eta, s_const, s_lam, target=0):
    return HTerm(coeff, eta, s_const, s_lam, target)


def at(coeffs, x):
    """Value at x of the polynomial with these ascending coefficients."""
    return sum(c * x ** k for k, c in enumerate(coeffs))


# -- coefficient canonicalization ------------------------------------------------


def test_symcoeff_folds_two_powers_and_signs():
    # 2 lam/(lam-2) * 2^0  ==  lam/(lam-2) * 2^1
    a = SymCoeff((0, 2), (-2, 1), two_a=0)
    b = SymCoeff((0, 1), (-2, 1), two_a=1)
    assert a == b
    # the numerator content 3/4 keeps its odd part, the 2-part moves out
    c = SymCoeff((0, 3), (-8, 4), two_a=0)   # 3 lam/(4 lam - 8)
    d = SymCoeff((0, 3), (-2, 1), two_a=-2)  # 3 lam/(lam - 2) * 2^-2
    assert c == d
    # a sign flip lands in the i-power
    e = SymCoeff(-1, (-2, 1), two_a=2)
    assert e == SymCoeff(1, (-2, 1), two_a=2, i_pow=2)


def test_symcoeff_exponents_are_keyword_only():
    # a positional exponent after the denominator is refused, not read as one
    with pytest.raises(TypeError):
        SymCoeff((0, 1), (1, 1), 2, 0, 0)
    assert SymCoeff((0, 1), 2) == SymCoeff((0, 1), two_a=-1)
    # products take an int, a Fraction or a SymCoeff only
    with pytest.raises(TypeError):
        SymCoeff(1) * Poly.from_univariate([0, 1])


def test_symcoeff_multiplication_tracks_exponents():
    a = SymCoeff(1, two_a=-2, two_b=2, pi_half=2, i_pow=3)
    b = SymCoeff(1, two_a=3, two_b=-2, pi_half=2, i_pow=3)
    p = a * b
    assert p == SymCoeff(1, two_a=1, two_b=0, pi_half=4, i_pow=2)


def test_symcoeff_add_requires_commensurable_parts():
    a = SymCoeff(1, two_b=2)
    b = SymCoeff(1, two_b=1)
    with pytest.raises(ValueError):
        a + b
    assert (a + SymCoeff(1, two_a=1, two_b=2)) == SymCoeff(3, two_b=2)


def test_symcoeff_reflect():
    # lam -> 4 - lam: 2^(1+3lam) becomes 2^(13-3lam) and lam + 1 becomes 5 - lam
    c = SymCoeff((1, 1), two_a=1, two_b=3, pi_half=2, i_pow=1)
    assert c.reflect(4) == SymCoeff((5, -1), two_a=13, two_b=-3, pi_half=2, i_pow=1)
    assert c.reflect(4).reflect(4) == c
    # lam / (2 lam - 1) at 1/2 - lam is (1/2 - lam) / (-2 lam)
    q = SymCoeff((0, 1), (-1, 2))
    assert q.reflect(Fraction(1, 2)) == SymCoeff((Fraction(1, 2), -1), (0, -2))


# -- kernel rules -----------------------------------------------------------------


def test_hat_rule_twice_is_two_pi_to_n():
    # hat(hat(h_s)) bookkeeping must produce exactly (2 pi)^n h_s
    for n in (1, 2, 3, 5):
        for (a, b) in ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(-2)),
                       (Fraction(1, 2), Fraction(1))):
            c1, s1c, s1l = hat_kernel(n, a, b)
            c2, s2c, s2l = hat_kernel(n, s1c, s1l)
            assert (s2c, s2l) == (a, b)
            assert c1 * c2 == SymCoeff(1, two_a=n, pi_half=2 * n)


def test_knapp_stein_symbol_n2():
    e = knapp_stein_symbol(2)
    assert len(e.terms) == 1
    t = e.terms[0]
    assert t.target == 0 and t.eta_pow == 0
    assert (t.s_const, t.s_lam) == (2, -2)
    assert t.coeff == SymCoeff(1, two_a=-2, two_b=2, pi_half=2)


def test_knapp_stein_symbol_n1():
    t = knapp_stein_symbol(1).terms[0]
    assert (t.s_const, t.s_lam) == (1, -2)
    assert t.coeff == SymCoeff(1, two_a=-1, two_b=2, pi_half=1)


def test_mul_norm_sq_examples():
    # n=2, s=0: |eta|^2 h_0 = 1 * h_2
    e = HExpr([term(SymCoeff(1), 0, 0, 0)])
    got = mul_norm_sq(2, e)
    assert got == HExpr([term(SymCoeff(1), 0, 2, 0)])
    # n=3, s=-1: coefficient (n+s)/2 = 1
    e = HExpr([term(SymCoeff(1), 0, -1, 0)])
    assert mul_norm_sq(3, e) == HExpr([term(SymCoeff(1), 0, 1, 0)])
    # zero coefficients disappear
    assert mul_norm_sq(2, HExpr([term(SymCoeff(0), 0, 0, 0)])) == HExpr()


def test_d_normal_product_rule():
    # d/deta_n (h_s f^) = 2s/(n+s-2) eta h_(s-2) f^ + h_s df^
    n = 3
    e = HExpr([term(SymCoeff(1), 0, 0, 2)])  # s = 2 lam
    got = d_normal(n, e)
    want = HExpr([
        term(SymCoeff((0, 4), (1, 2)), 1, -2, 2),
        term(SymCoeff(1), 0, 0, 2, 1),
    ])
    assert got == want


def test_d_normal_s_zero_kills_kernel_term():
    # s identically 0: coefficient 2s/(n+s-2) vanishes as a rational function
    n = 5
    got = d_normal(n, HExpr([term(SymCoeff(1), 0, 0, 0)]))
    assert got == HExpr([term(SymCoeff(1), 0, 0, 0, 1)])


def test_d_normal_eta_product_rule():
    n = 3
    e = HExpr([term(SymCoeff(1), 1, 0, 2)])
    got = d_normal(n, e)
    want = HExpr([
        term(SymCoeff(1), 0, 0, 2),
        term(SymCoeff((0, 4), (1, 2)), 2, -2, 2),
        term(SymCoeff(1), 1, 0, 2, 1),
    ])
    assert got == want


def test_d_normal_closure():
    # targets close under every normal derivative: d/deta_n raises the
    # derivative order of f^ by one, here to 2
    n = 3
    first = d_normal(n, HExpr([term(SymCoeff(1), 0, 0, 2, 1)]))  # s = 2 lam
    assert first == HExpr([
        term(SymCoeff((0, 4), (1, 2)), 1, -2, 2, 1),
        term(SymCoeff(1), 0, 0, 2, 2),
    ])
    # twice from f^: 4lam/(2lam+1) * (4lam-4)/(2lam-1) on eta_n^2 h_(2lam-4),
    # and the eta_n h_(2lam-2) (x) df^ terms of both steps merged
    second = d_normal(n, d_normal(n, HExpr([term(SymCoeff(1), 0, 0, 2)])))
    assert second == HExpr([
        term(SymCoeff((0, 4), (1, 2)), 0, -2, 2),
        term(SymCoeff((0, -16, 16), (-1, 0, 4)), 2, -4, 2),
        term(SymCoeff((0, 8), (1, 2)), 1, -2, 2, 1),
        term(SymCoeff(1), 0, 0, 2, 2),
    ])
    assert second.terms[-1].pretty() == "1·h_(2λ)⊗∂^2 f̂/∂η_n^2"
    assert [t.pretty().rsplit("⊗", 1)[1] for t in first.terms] == [
        "∂f̂/∂η_n", "∂^2 f̂/∂η_n^2"]


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=30, deadline=None)
@given(rationals, rationals)
def test_commutator_identity(a, b):
    # d_normal(mul) - mul(d_normal) = 2 * eta_n on any h_s tensor Fhat,
    # with s = a + b lam symbolic
    n = 3
    assume(b != 0 or (n + a - 2) != 0)
    assume(b != 0 or (n + a) != 0)  # keep the shifted rule nonsingular too
    e = HExpr([term(SymCoeff(1), 0, a, b)])
    lhs = d_normal(n, mul_norm_sq(n, e))
    rhs = mul_norm_sq(n, d_normal(n, e))
    commutator = e.mul_eta().scale(2)
    assert lhs == rhs + commutator


# -- the displayed two-term expressions -------------------------------------------


def test_mult_after_ks_n3_coefficients():
    e = symbol_mult_after_ks(3)
    assert len(e.terms) == 2
    by_target = {t.target: t for t in e.terms}
    d = by_target[1]
    assert (d.s_const, d.s_lam, d.eta_pow) == (3, -2, 0)
    assert d.coeff == SymCoeff(1, two_a=-3, two_b=2, pi_half=3, i_pow=3)
    f = by_target[0]
    assert (f.s_const, f.s_lam, f.eta_pow) == (1, -2, 1)
    # -i pi^(3/2) 2^(-3+2lam) (3-2lam)/(2-lam)
    assert f.coeff == SymCoeff((3, -2), (2, -1), two_a=-3, two_b=2,
                               pi_half=3, i_pow=3)


def test_ks_after_onestep_n3_coefficients():
    e = symbol_ks_after_onestep(3)
    by_target = {t.target: t for t in e.terms}
    d = by_target[1]
    # -i 2^(-1+2lam) pi^(3/2) (lam-2)
    assert d.coeff == SymCoeff((-2, 1), two_a=-1, two_b=2, pi_half=3, i_pow=3)
    f = by_target[0]
    assert f.coeff == SymCoeff((-3, 2), two_a=-1, two_b=2, pi_half=3, i_pow=3)
    assert (f.s_const, f.s_lam, f.eta_pow) == (1, -2, 1)


def test_dfhat_coefficient_vanishes_at_lam_one_n2():
    e = symbol_ks_after_onestep(2)
    d = next(t for t in e.terms if t.target == 1)
    assert at(d.coeff.num, Fraction(1)) == 0


def test_mult_after_ks_fhat_vanishes_at_half_n1():
    # n = 1: the kernel-term coefficient carries the factor (n - 2 lam),
    # whose numerator vanishes at lam = 1/2
    e = symbol_mult_after_ks(1)
    f = next(t for t in e.terms if t.target == 0)
    assert at(f.coeff.num, Fraction(1, 2)) == 0


def test_factorization_identity():
    for n in range(1, 9):
        assert check_factorization(n)


def test_ks_inversion_identity():
    for n in range(1, 9):
        assert check_ks_inversion(n)


@pytest.mark.parametrize("shape", ["eta_n power", "second term"])
def test_ks_inversion_needs_one_multiplier_term(monkeypatch, shape):
    # an eta_n power or a second term is no multiplier by a function of |eta|
    (t,) = knapp_stein_symbol(2).terms
    wrong = {"eta_n power": [term(t.coeff, 1, t.s_const, t.s_lam)],
             "second term": [t, term(t.coeff, 0, t.s_const + 2, t.s_lam)]}[shape]
    monkeypatch.setattr(symbolcalc, "knapp_stein_symbol", lambda n: HExpr(wrong))
    assert not check_ks_inversion(2)


def test_factorization_fails_with_wrong_constant():
    for n in (1, 3):
        wrong = SymCoeff(1, (4 * (2 - n), 4))  # 4(lam - n + 2): wrong shift
        lhs = symbol_mult_after_ks(n)
        rhs = symbol_ks_after_onestep(n).scale(wrong)
        assert lhs != rhs


@settings(max_examples=20, deadline=None)
@given(rationals, st.integers(0, 3))
def test_scaling_both_sides_preserves_verdict(a, ipow):
    # coefficient equality is a congruence: a common nonzero rescaling of
    # both sides cannot flip the outcome
    assume(a != 0)
    n = 2
    common = SymCoeff(a, two_a=1, two_b=-1, pi_half=3, i_pow=ipow)
    lhs = symbol_mult_after_ks(n).scale(common)
    rhs = symbol_ks_after_onestep(n).scale(factorization_constant(n)).scale(common)
    assert lhs == rhs


# -- the rescaling that keeps the normal form -------------------------------------


def fields(c):
    return (c.num, c.den, c.two_a, c.two_b, c.pi_half, c.i_pow)


small_q = st.fractions(min_value=-12, max_value=12, max_denominator=8)
symcoeff_cases = st.tuples(
    st.lists(small_q, max_size=3), st.lists(small_q, min_size=1, max_size=3).filter(any),
    st.lists(small_q, max_size=3), st.integers(-3, 3), st.integers(-2, 2),
    st.integers(0, 3), st.integers(0, 3), st.sampled_from([0, 2]))


@settings(max_examples=80, deadline=None)
@given(symcoeff_cases, small_q)
def test_symcoeff_rescaling_matches_renormalizing(case, q):
    num, den, num2, two_a, two_b, pi_half, i_pow, di = case
    c = SymCoeff(num, den, two_a=two_a, two_b=two_b, pi_half=pi_half, i_pow=i_pow)
    assert fields(c) == symcoeff_normal_form(num, den, two_a, two_b, pi_half, i_pow)
    exps = (c.two_a, c.two_b, c.pi_half, c.i_pow)
    # by an int or a Fraction, zero included
    for k in (q, int(q)):
        assert fields(c * k) == symcoeff_normal_form([x * k for x in c.num], c.den, *exps)
    # a sum of commensurable coefficients: the 2-power offset and the sign
    # of the second are folded into its numerator
    d = SymCoeff(num2, den, two_a=two_a + 2, two_b=two_b, pi_half=pi_half,
                 i_pow=i_pow + di)
    if c.is_zero() or d.is_zero():
        return
    sign = 1 if (d.i_pow - c.i_pow) % 4 == 0 else -1
    q = sign * Fraction(2) ** (d.two_a - c.two_a)
    L = Poly.from_univariate
    want_num = L(c.num) * L(d.den) + L(d.num) * q * L(c.den)
    want_den = L(c.den) * L(d.den)
    assert fields(c + d) == symcoeff_normal_form(
        want_num.to_univariate(), want_den.to_univariate(), *exps)


def test_suite_symbolic_runs_euclid_only_on_nonconstant_pairs(monkeypatch):
    calls = []
    ugcd = symbolcalc._ugcd

    def spy(a, b):
        calls.append((len(a), len(b)))
        return ugcd(a, b)

    monkeypatch.setattr(symbolcalc, "_ugcd", spy)
    assert all(r.passed for r in verify.suite_symbolic())
    assert calls, "the suite has rational functions with both degrees >= 1"
    assert all(la > 1 and lb > 1 for la, lb in calls), calls
