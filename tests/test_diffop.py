from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covop.cli import op_vars

from oracles import (DiffOp, NonTangentialForm, Poly, apply, decompose_tangential,
                     lam_coeffs, one_step, subs_value)


def mk(n, terms):
    vars_ = op_vars(n)
    return DiffOp(n, {a: p if isinstance(p, Poly) else Poly.const(p, vars_)
                      for a, p in terms.items()})


def test_canonical_commutation():
    # d_n o (mult by xi_n) = xi_n d_n + 1
    n = 2
    vars_ = op_vars(n)
    xin = Poly.variable("xi2", vars_)
    d_n = mk(n, {(0, 1): 1})
    mult = DiffOp(n, {(0, 0): xin})
    got = d_n.compose(mult)
    want = DiffOp(n, {(0, 1): xin, (0, 0): Poly.const(1, vars_)})
    assert got == want


def test_identity_composition():
    D = one_step(3)
    I = mk(3, {(0, 0, 0): 1})
    assert I.compose(D) == D
    assert D.compose(I) == D


def test_two_step_restricted_decomposition_hand_leibniz():
    # Hand Leibniz expansion of the two-factor composition gives, after
    # restriction, a_0 = (2lam-n+3)(2lam-n+4) and a_1 = (2lam-n+4).
    for n in (2, 3, 4):
        D = one_step(n).shift_lambda(1).compose(one_step(n))
        tang = decompose_tangential(D.restrict(), 2)
        lam = Poly.variable("lam", ("lam",))
        a0 = (2 * lam + (3 - n)) * (2 * lam + (4 - n))
        a1 = 2 * lam + (4 - n)
        assert tang[0] == lam_coeffs(a0)
        assert tang[1] == lam_coeffs(a1)


def test_apply_one_step_to_powers():
    # E_mu xi_n^k = k (2 mu - n + 1 + k) xi_n^(k-1), mu symbolic
    for n in (1, 2, 3):
        vars_ = op_vars(n)
        xin = Poly.variable(f"xi{n}", vars_)
        lam = Poly.variable("lam", vars_)
        E = one_step(n)
        for k in range(1, 8):
            got = apply(E, xin ** k)
            want = k * (2 * lam + (1 - n + k)) * xin ** (k - 1)
            assert got == want


def test_apply_kills_constants_and_laplacian_of_quadratic():
    n = 3
    vars_ = op_vars(n)
    assert not apply(one_step(n), Poly.const(5, vars_))
    lap = mk(n, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    norm_sq = sum((Poly.variable(f"xi{i}", vars_) ** 2 for i in range(1, n + 1)),
                  Poly.zero(vars_))
    assert apply(lap, norm_sq) == Poly.const(2 * n, vars_)


def test_restrict_examples():
    n = 2
    vars_ = op_vars(n)
    xin = Poly.variable("xi2", vars_)
    xi1 = Poly.variable("xi1", vars_)
    lam = Poly.variable("lam", vars_)
    # coefficient xi_n dies on the hyperplane
    assert DiffOp(n, {(2, 0): xin, (0, 2): xin}).restrict() == DiffOp(n)
    # one-step operator restricts to (2 lam - n + 2) d_n
    assert one_step(n).restrict() == DiffOp(n, {(0, 1): 2 * lam + (2 - n)})
    # tangential coefficients survive
    D = DiffOp(n, {(0, 1): xi1})
    assert D.restrict() == D


def test_decompose_basis_element_and_failure():
    n = 3
    lap_prime = mk(n, {(2, 0, 0): 1, (0, 2, 0): 1})
    tang = decompose_tangential(lap_prime, 2)
    assert tang[0] == ()
    assert tang[1] == (1,)
    with pytest.raises(NonTangentialForm):
        decompose_tangential(mk(n, {(1, 1, 0): 1}), 2)


def test_decompose_one_step_restricted():
    for n in (2, 3):
        tang = decompose_tangential(one_step(n).restrict(), 1)
        assert tang[0] == (2 - n, 2)


def test_decompose_rejects_xi_dependent_coefficients():
    n = 2
    vars_ = op_vars(n)
    D = DiffOp(n, {(0, 1): Poly.variable("xi1", vars_)})
    with pytest.raises(NonTangentialForm):
        decompose_tangential(D, 1)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        one_step(2).compose(one_step(3))


# -- randomized structural properties ----------------------------------------

N_RAND = 2
RVARS = op_vars(N_RAND)
coeff_polys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.integers(-3, 3).map(Fraction), max_size=2,
).map(lambda t: Poly(RVARS, t))
ops = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), coeff_polys, min_size=1, max_size=2,
).map(lambda t: DiffOp(N_RAND, t))
rand_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).map(Fraction), max_size=3,
).map(lambda t: Poly(RVARS, t))


@settings(max_examples=25, deadline=None)
@given(ops, ops, ops)
def test_composition_associative(A, B, C):
    assert A.compose(B).compose(C) == A.compose(B.compose(C))


@settings(max_examples=25, deadline=None)
@given(ops, ops, rand_polys)
def test_apply_respects_composition(A, B, p):
    assert apply(A.compose(B), p) == apply(A, apply(B, p))


def test_restrict_commutes_with_apply_at_rational_points():
    # restricting the operator then applying equals applying then evaluating
    # at xi_n = 0, whenever the argument is xi_n-independent
    n = 2
    vars_ = op_vars(n)
    xi1 = Poly.variable("xi1", vars_)
    lam = Poly.variable("lam", vars_)
    p = xi1 ** 3 + 2 * xi1 + 1  # no xi2 dependence
    D = one_step(n).compose(one_step(n).shift_lambda(1))
    lhs = subs_value(apply(D, p), "xi2", 0)
    rhs = subs_value(apply(D.restrict(), p), "xi2", 0)
    for lv in (Fraction(0), Fraction(1, 2), Fraction(-3)):
        for xv in (Fraction(1), Fraction(-2, 3)):
            vals = [lv, xv, Fraction(0)]
            assert lhs.evaluate(vals) == rhs.evaluate(vals)
