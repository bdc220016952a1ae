from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from covop.juhl import padd, pmul, substitute
from covop.symbolcalc import SymCoeff

from oracles import (Poly, lam_coeffs, lam_poly, partial, shift_var, subs_value,
                     symcoeff_normal_form)

VARS = ("lam", "xi1", "xi2")


def P(terms):
    return Poly(VARS, terms)


def test_binomial_square():
    x1 = Poly.variable("xi1", VARS)
    x2 = Poly.variable("xi2", VARS)
    got = (x1 + x2) * (x1 + x2)
    assert got == x1 ** 2 + 2 * x1 * x2 + x2 ** 2


def test_mul_identity():
    p = P({(1, 2, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)})
    assert p * Poly.const(1, VARS) == p


def test_linear_factor_product_hand_expansion():
    # (2*lam - 2)(2*lam) expanded by hand: 4*lam^2 - 4*lam
    lam = Poly.variable("lam", VARS)
    got = (2 * lam - 2) * (2 * lam)
    assert got == 4 * lam ** 2 - 4 * lam


def test_partial_power_rule():
    x2 = Poly.variable("xi2", VARS)
    assert partial(x2 ** 3, "xi2") == 3 * x2 ** 2


def test_partial_constant_and_mixed():
    assert not partial(Poly.const(7, VARS), "xi1")
    x1 = Poly.variable("xi1", VARS)
    x2 = Poly.variable("xi2", VARS)
    assert partial(x1 * x2 ** 2, "xi2") == 2 * x1 * x2


def test_variable_list_mismatch():
    p = Poly.variable("xi1", VARS)
    q = Poly.variable("xi1", ("lam", "xi1"))
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        partial(p, "nope")


def test_shift_var():
    lam = Poly.variable("lam", VARS)
    p = lam ** 2 + 3 * lam
    assert shift_var(p, "lam", 1) == (lam + 1) ** 2 + 3 * (lam + 1)


def test_subs_value_keeps_variable_list():
    x2 = Poly.variable("xi2", VARS)
    lam = Poly.variable("lam", VARS)
    p = lam * x2 ** 2 + x2 + lam
    q = subs_value(p, "xi2", 0)
    assert q.vars == VARS
    assert q == lam


def test_evaluate_exact():
    lam = Poly.variable("lam", VARS)
    x1 = Poly.variable("xi1", VARS)
    p = lam * x1 + 2
    assert p.evaluate([Fraction(1, 2), Fraction(4), Fraction(0)]) == Fraction(4)


def test_pretty_printing():
    lam = Poly.variable("lam", VARS)
    x2 = Poly.variable("xi2", VARS)
    assert Poly.zero(VARS).pretty() == "0"
    assert (2 * lam - 2).pretty() == "2λ - 2"
    assert (-x2 ** 2 + Poly.const(Fraction(1, 2), VARS)).pretty() == "-ξ2^2 + 1/2"
    assert (lam * x2).pretty() == "λξ2"


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exps, coeffs, max_size=4).map(P)


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_partials_commute(p):
    assert partial(partial(p, "xi1"), "xi2") == partial(partial(p, "xi2"), "xi1")
    assert partial(partial(p, "lam"), "xi1") == partial(partial(p, "xi1"), "lam")


# -- rational functions: the normal form of a symbol coefficient -------------------


def ratio(num, den):
    """The SymCoeff num/den of two one-variable Polys."""
    return SymCoeff(lam_coeffs(num), lam_coeffs(den))


def test_rf_eq_cancellation():
    # (lam^2 - 1)/(lam - 1) == lam + 1
    assert SymCoeff((-1, 0, 1), (-1, 1)) == SymCoeff((1, 1))


def test_rf_eq_sign_cancelled_ratio():
    # (n - 2 lam)/(n - lam - 1) == (2 lam - n)/(lam - n + 1) at fixed n
    for n in (1, 2, 3, 5):
        assert SymCoeff((n, -2), (n - 1, -1)) == SymCoeff((-n, 2), (1 - n, 1))


def test_rf_distinct_poles():
    assert SymCoeff(1, (0, 1)) != SymCoeff(1, (1, 1))


def test_rf_normal_form():
    r = SymCoeff((0, 2), (0, 0, 2))  # 2 lam / 2 lam^2 = 1/lam
    assert r.num == (1,) and r.den == (0, 1)


def test_rf_arithmetic():
    lam = SymCoeff((0, 1))
    one = SymCoeff(1)
    assert lam * SymCoeff(1, (0, 1)) == one
    zero = lam + (-lam)
    assert zero == SymCoeff(0) and (zero.num, zero.den) == ((), (1,))
    assert (lam + one) * (lam + (-one)) == SymCoeff((-1, 0, 1))


rf_samples = st.tuples(
    st.lists(coeffs, min_size=1, max_size=3),
    st.lists(coeffs, min_size=1, max_size=3).filter(lambda c: any(c)),
    st.lists(coeffs, min_size=1, max_size=2).filter(lambda c: any(c)),
)


@settings(max_examples=40, deadline=None)
@given(rf_samples)
def test_rf_eq_is_equivalence(sample):
    num, den, scale = sample
    r = ratio(lam_poly(num), lam_poly(den))
    scaled = ratio(lam_poly(num) * lam_poly(scale), lam_poly(den) * lam_poly(scale))
    # reflexive, symmetric through a common rescaling, and transitive via it
    assert r == r
    assert r == scaled and scaled == r
    rescaled = ratio(lam_poly(num) * lam_poly(scale) * 2, lam_poly(den) * lam_poly(scale) * 2)
    assert scaled == rescaled and r == rescaled


# -- the normal form against Euclid at every degree -----------------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = small.filter(bool)


def _times_roots(p, roots):
    for r in roots:
        p = p * lam_poly([-r, 1])
    return p


# numerator, denominator, shared linear factors (lam - r) and a scale on each
normal_form_cases = st.tuples(
    st.lists(small, max_size=3), st.lists(small, min_size=1, max_size=3).filter(any),
    st.lists(small, max_size=2), nonzero, nonzero)


@settings(max_examples=150, deadline=None)
@given(normal_form_cases)
@example(([], [3], [], 1, 1))                # 0 over a non-monic constant
@example(([], [1, 0, 2], [], 1, 1))          # 0 over a non-monic quadratic
@example(([0], [0, 1], [2], 3, 1))           # 0 over a shared linear factor
@example(([5], [2], [], 1, 1))               # constant over non-monic constant
@example(([Fraction(1, 3)], [1, 2], [], 1, 1))  # constant over non-monic linear
@example(([1, 2], [3], [], 1, 1))            # linear over non-monic constant
@example(([1], [1], [Fraction(-1, 2)], 2, 6))   # shared factor, constant rest
@example(([-1, 1], [2, 1], [3, 0], 1, -3))   # shared factors, linear rest
def test_rf_normal_form_matches_euclid_at_every_degree(case):
    num, den, roots, a, b = case
    num = _times_roots(lam_poly(num), roots) * a
    den = _times_roots(lam_poly(den), roots) * b
    r = ratio(num, den)
    assert ((r.num, r.den, r.two_a, r.two_b, r.pi_half, r.i_pow)
            == symcoeff_normal_form(lam_coeffs(num), lam_coeffs(den)))
    assert all(type(c) is Fraction for c in (*r.num, *r.den))


# -- juhl's ascending-tuple arithmetic against the ring ---------------------------

int_coeffs = st.integers(min_value=-9, max_value=9)
frac_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
tuples = st.one_of(st.lists(int_coeffs, max_size=5), st.lists(frac_coeffs, max_size=5))


@settings(max_examples=80, deadline=None)
@given(tuples, tuples, st.sampled_from((1, -1, 2)), st.one_of(int_coeffs, frac_coeffs))
@example([1, 2], [], 2, -3)          # a product with zero is []
@example([0, 0, 5], [3], -1, 0)      # p(-lam)
def test_tuple_arithmetic_matches_the_ring(p, q, a, b):
    lam = Poly.variable("lam", ("lam",))
    assert lam_poly(padd(p, q)) == lam_poly(p) + lam_poly(q)
    assert lam_poly(pmul(p, q)) == lam_poly(p) * lam_poly(q)
    want = Poly.zero(("lam",))
    for r, c in enumerate(p):
        want = want + c * (a * lam + b) ** r
    got = substitute(p, a, b)
    assert lam_poly(got) == want and len(got) == len(p)
    if p and p[-1]:
        assert got[-1]  # a != 0 keeps the degree
    # int coefficients stay ints
    if all(type(c) is int for c in (*p, *q, b)):
        assert all(type(c) is int for c in (*padd(p, q), *pmul(p, q), *got))
