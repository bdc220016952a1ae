"""The dense Jet product, integer powers and ``compose_series`` against the
plain double loop in exact arithmetic, the memoized reciprocal, the refusal
of a key outside the shape, and pure jets against the full jets they
restrict.

On small dyadic coefficients every float operation of a product is exact,
so a product, a power or a Horner step must equal the exact loop; on random
floats each coefficient must lie within the rounding bound of its sum.
"""

import math
import random
from fractions import Fraction

import pytest

from covop.jets import Jet, _exponents, _is_mixed, coordinate_jets

from oracles import exact_product, exact_terms, log_series

SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2),
          (6, 2), (1, 5), (3, 4)]

#: the machine epsilon 2^-52, twice the unit roundoff
EPS = 2.0 ** -52


def _bits(c):
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c.hex()


def assert_same_jet(got, want):
    assert (got.dim, got.order, got.pure) == (want.dim, want.order, want.pure)
    assert got.terms == want.terms
    assert [(e, _bits(c)) for e, c in got.terms.items()] == \
        [(e, _bits(c)) for e, c in want.terms.items()]


def random_exponent(rng, dim, degree):
    e = [0] * dim
    for _ in range(degree):
        e[rng.randrange(dim)] += 1
    return tuple(e)


def random_jet(rng, dim, order, complex_values, coarse):
    """Some keys of the shape drawn at random, the others 0.  Coarse values
    are small dyadic ones, on which a product's float operations are exact
    and often cancel to exactly 0."""
    def value():
        if coarse:
            v = rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
            w = rng.choice((-1.0, 0.0, 1.0))
        else:
            v, w = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        return complex(v, w) if complex_values else v

    terms = {}
    for _ in range(rng.randrange(1, 3 * order * dim + 2)):
        terms[random_exponent(rng, dim, rng.randrange(order + 1))] = value()
    return Jet(dim, order, terms)


@pytest.mark.parametrize("dim,order", SHAPES)
def test_product_matches_the_tuple_sum_loop(dim, order):
    # on dyadic coefficients, exactly
    rng = random.Random(1000 * dim + order)
    for trial in range(40):
        complex_values = trial % 4 in (1, 3)
        a = random_jet(rng, dim, order, complex_values, True)
        b = random_jet(rng, dim, order, complex_values and trial % 8 != 1, True)
        for x, y in ((a, b), (b, a), (a, a)):
            assert exact_terms(x * y) == exact_product(exact_terms(x), exact_terms(y), order)


def _magnitudes(s):
    return {e: (abs(x) + abs(y), 0) for e, (x, y) in s.items()}


def _ones(s):
    return {e: (1, 0) for e in s}


@pytest.mark.parametrize("dim,order", SHAPES)
def test_a_product_of_float_jets_is_the_exact_loop_within_rounding(dim, order):
    # each coefficient is a sum of m products: within (m + 1) eps sum |a_i b_j|
    # of the exact sum, for real and complex values alike
    rng = random.Random(2000 * dim + order)
    for trial in range(20):
        complex_values = trial % 2 == 1
        a = random_jet(rng, dim, order, complex_values, False)
        b = random_jet(rng, dim, order, False, False)
        for x, y in ((a, b), (b, a), (a, a)):
            s, t = exact_terms(x), exact_terms(y)
            want = exact_product(s, t, order)
            size = exact_product(_magnitudes(s), _magnitudes(t), order)
            count = exact_product(_ones(s), _ones(t), order)
            got = exact_terms(x * y)
            for e in set(got) | set(want) | set(size):
                (gx, gy), (wx, wy) = got.get(e, (0, 0)), want.get(e, (0, 0))
                bound = (count[e][0] + 1) * EPS * size[e][0] if e in size else 0
                assert abs(gx - wx) + abs(gy - wy) <= bound, e


# -- compose_series, powers and quotients ---------------------------------------------


def reference_compose(x, derivs):
    """Horner's rule in x - value through the jet operators."""
    w = x - x.value
    acc = Jet.constant(derivs[x.order] / math.factorial(x.order), x.dim, x.order)
    for k in range(x.order - 1, -1, -1):
        acc = w * acc + derivs[k] / math.factorial(k)
    return acc


def reference_pow(x, p):
    """x ** p for a fractional or negative p: reference_compose with the
    derivatives of t ** p at the value."""
    v = x.value
    derivs = []
    fall = 1.0
    for k in range(x.order + 1):
        derivs.append(fall * v ** (p - k))
        fall = fall * (p - k)
    return reference_compose(x, derivs)


def exact_power(x, p):
    """x ** p for an integer p >= 0 by the exact loop, one factor at a time."""
    out = {(0,) * x.dim: (1, 0)}
    for _ in range(p):
        out = exact_product(out, exact_terms(x), x.order)
    return out


def exact_compose(x, derivs):
    """Horner's rule in x - value by the exact loop, from the float
    constants derivs[k] / k! that ``compose_series`` adds."""
    z = (0,) * x.dim
    w = {e: c for e, c in exact_terms(x).items() if e != z}
    acc = {}
    for k in range(x.order, -1, -1):
        acc = exact_product(w, acc, x.order)
        c = complex(derivs[k] / math.factorial(k))
        re, im = acc.get(z, (0, 0))
        acc[z] = (re + Fraction(c.real), im + Fraction(c.imag))
        acc = {e: v for e, v in acc.items() if v != (0, 0)}
    return acc


def with_value(x, v):
    """x with its value part set to v."""
    return x - x.value + v


# 1.0 and 2.0 are float powers whose top derivatives are exactly 0
POWERS = (-1, -2, -0.5, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("dim,order", SHAPES)
def test_powers_match_the_unfused_horner_loop(dim, order):
    # integer powers and compose_series on dyadic coefficients equal the exact
    # loop; fractional powers equal Horner's rule through the jet operators
    rng = random.Random(50 * dim + order)
    for trial in range(8):
        complex_values = trial % 4 == 1
        x = random_jet(rng, dim, order, complex_values, True)
        for p in (0, 1, 2, 3):
            assert exact_terms(x ** p) == exact_power(x, p)
        # derivs[k] / k! is dyadic, so Horner's float operations are exact too
        derivs = [rng.choice((-1.5, 0.5, 2.0)) * math.factorial(k) for k in range(order + 1)]
        assert exact_terms(x.compose_series(derivs)) == exact_compose(x, derivs)
        y = random_jet(rng, dim, order, complex_values, trial % 2 == 0)
        y = with_value(y, rng.choice((0.5, -1.5, 2.0)) if trial % 2 == 0 else rng.uniform(0.3, 2.0))
        for p in POWERS:
            assert_same_jet(y ** p, reference_pow(y, p))


@pytest.mark.parametrize("dim,order", [(2, 2), (3, 3), (1, 5)])
def test_powers_of_a_jet_with_zero_value(dim, order):
    rng = random.Random(dim + 10 * order)
    x = with_value(random_jet(rng, dim, order, False, True), 0.0)
    for p in (0, 1, 2, 3):
        assert exact_terms(x ** p) == exact_power(x, p)
    for p in (-1, -0.5, 0.5, 1.5):
        with pytest.raises(ZeroDivisionError):
            x ** p
    with pytest.raises(ZeroDivisionError):
        1.0 / x


@pytest.mark.parametrize("dim,order", SHAPES)
def test_exp_log_and_quotients_match_the_unfused_horner_loop(dim, order):
    rng = random.Random(70 * dim + order)
    for trial in range(8):
        complex_values = trial % 4 == 1
        coarse = trial % 2 == 0
        x = random_jet(rng, dim, order, complex_values, coarse)
        y = random_jet(rng, dim, order, complex_values, coarse)
        y = with_value(y, 2.0 if coarse else rng.uniform(0.5, 2.0))
        if not complex_values:  # exp takes a real value part
            e = math.exp(x.value)
            assert_same_jet(x.exp(), reference_compose(x, [e] * (order + 1)))
        assert_same_jet(x / y, x * reference_pow(y, -1))
        assert_same_jet(1.5 / y, reference_pow(y, -1) * 1.5)
        pos = with_value(random_jet(rng, dim, order, False, coarse), rng.uniform(0.5, 2.0))
        logs = log_series(pos.value, order)
        assert_same_jet(pos.compose_series(logs), reference_compose(pos, logs))


def _close(got, want, tol):
    g, w = got.terms, want.terms
    return all(abs(g.get(e, 0.0) - w.get(e, 0.0)) <= tol for e in set(g) | set(w))


@pytest.mark.parametrize("dim,order", SHAPES)
def test_fractional_powers_exp_log_and_quotients_keep_their_meaning(dim, order):
    # the identities of the functions they compose with, to rounding
    rng = random.Random(80 * dim + order)
    one = Jet.constant(1.0, dim, order)
    for trial in range(8):
        x = 0.25 * random_jet(rng, dim, order, False, False)
        y = with_value(x, rng.uniform(0.5, 2.0))
        assert _close(y ** 0.5 * y ** 0.5, y, 1e-12)
        assert _close(y ** 1.5, y * y ** 0.5, 1e-12)
        assert _close(y / y, one, 1e-12) and _close(y * y ** -1, one, 1e-12)
        assert _close(y.compose_series(log_series(y.value, order)).exp(), y, 1e-12)
        assert _close(x.exp() * (-x).exp(), one, 1e-12)
        neg = with_value(x, -1.5) ** 0.5  # a complex jet
        assert isinstance(neg.value, complex)
        assert _close(neg * neg, with_value(x, -1.5), 1e-12)


def test_exp_of_a_complex_jet_raises_type_error():
    # a fractional power of a negative value part is a complex jet, and exp
    # takes a real value part only
    rng = random.Random(3)
    x = with_value(random_jet(rng, 3, 2, False, True), -1.5) ** 0.5
    assert isinstance(x.value, complex)
    with pytest.raises(TypeError):
        x.exp()


def test_the_reciprocal_is_computed_once_and_not_shared_by_a_copy():
    rng = random.Random(5)
    b = with_value(random_jet(rng, 3, 2, True, False), 1.3)
    first = 2.5 / b
    assert_same_jet(2.5 / b, first)
    assert_same_jet(b ** -1 * 2.5, first)
    a = random_jet(rng, 3, 2, False, False)
    assert_same_jet(a / b, a * b ** -1)
    assert b._reciprocal() is b._reciprocal()
    fresh = Jet(b.dim, b.order, b.terms)
    assert fresh._reciprocal() is not b._reciprocal()
    assert_same_jet(fresh._reciprocal(), b._reciprocal())
    assert_same_jet(2.5 / fresh, first)


# -- the shape ------------------------------------------------------------------------


def test_mismatched_shapes_raise():
    a = Jet(2, 2, {(0, 0): 1.0})
    for b in (Jet(3, 2, {(0, 0, 0): 1.0}), Jet(2, 3, {(0, 0): 1.0})):
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            b * a


def test_public_constructor_copies_its_terms():
    terms = {(0, 0): 1.0}
    j = Jet(2, 2, terms)
    terms[(1, 0)] = 2.0
    assert j.terms == {(0, 0): 1.0}


@pytest.mark.parametrize("dim,order", SHAPES)
def test_a_key_above_the_order_is_refused(dim, order):
    rng = random.Random(7 * dim + order)
    high = random_exponent(rng, dim, order + 1)
    with pytest.raises(ValueError, match="above the order"):
        Jet(dim, order, {(0,) * dim: 1.0, high: 3.0})


def test_terms_are_a_read_only_view_of_the_nonzero_coefficients_in_key_order():
    x, y = coordinate_jets((0.5, 0.0), 2)
    u = x * y + x * x
    # the coefficient of y^2 is 0 and left out; the others follow _exponents
    assert list(u.terms.items()) == [((0, 0), 0.25), ((0, 1), 0.5), ((1, 0), 1.0),
                                     ((1, 1), 1.0), ((2, 0), 1.0)]
    assert [e for e in _exponents(2, 2) if e in u.terms] == list(u.terms)
    with pytest.raises(TypeError):
        u.terms[(0, 0)] = 1.0
    assert (u - u).terms == {}


# -- pure jets: the full jet restricted, bit for bit ----------------------------------


def restrict(x):
    """The pure jet of x's value and pure partials."""
    return Jet(x.dim, x.order, {e: c for e, c in x.terms.items() if not _is_mixed(e)},
               pure=True)


#: pipelines run on full and on pure operands; y has a nonzero value part
PIPELINES = {
    "products": lambda a, b, y: a * b * a * (b * b),
    "sums and differences": lambda a, b, y: (a + b) * (b - a) - 2.0 + 0.5 * a - (1.0 - b),
    "quotients": lambda a, b, y: a / y + 1.5 / y - b / 3.0,
    "integer powers": lambda a, b, y: a ** 3 * b ** 2 + y ** 0,
    "fractional powers": lambda a, b, y: y ** 0.5 * a + y ** -1.5 - y ** 2.0,
}


@pytest.mark.parametrize("dim,order", SHAPES)
def test_a_pure_jet_is_the_full_jet_restricted(dim, order):
    # the full operands keep their mixed keys: no mixed key can reach a pure
    # one, as a sum landing on k e_i has both summands on the e_i axis
    rng = random.Random(90 * dim + order)
    for trial in range(16):
        complex_values = trial % 4 == 1
        coarse = trial % 2 == 0
        a = random_jet(rng, dim, order, complex_values, coarse)
        b = random_jet(rng, dim, order, complex_values, coarse)
        y = random_jet(rng, dim, order, complex_values, coarse)
        y = with_value(y, rng.choice((0.5, -1.5, 2.0)) if coarse else rng.uniform(0.5, 2.0))
        pure = [restrict(x) for x in (a, b, y)]
        for run in PIPELINES.values():
            assert_same_jet(run(*pure), restrict(run(a, b, y)))
        if not complex_values:  # exp takes a real value part
            assert_same_jet(pure[0].exp(), restrict(a.exp()))
            assert_same_jet(pure[2].exp() * pure[0], restrict(y.exp() * a))


def test_pure_seeds_restrict_the_full_seeds():
    point = (0.3, -1.2, 0.7)
    full = coordinate_jets(point, 3)
    pure = coordinate_jets(point, 3, pure=True)
    f = (full[0] * full[1] + full[2]).exp() / (1.0 + full[1] * full[1])
    g = (pure[0] * pure[1] + pure[2]).exp() / (1.0 + pure[1] * pure[1])
    assert_same_jet(g, restrict(f))
    assert g.grad == f.grad and g.laplacian() == f.laplacian()
    assert g.hessian_diagonal() == f.hessian_diagonal() == \
        [f.derivative(e) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
    assert g.derivative((0, 3, 0)) == f.derivative((0, 3, 0))


def test_a_pure_jet_refuses_what_it_does_not_hold():
    x, y = coordinate_jets((0.5, 0.2), 2, pure=True)
    u = x * y
    assert u.value == 0.1 and u.grad == [0.2, 0.5]
    # the mixed partial of x y is 1, not the 0 a truncation would return
    for alpha in ((1, 1), [1, 1]):
        with pytest.raises(ValueError, match="mixed"):
            u.derivative(alpha)
    assert u.derivative((2, 0)) == 0.0 and u.derivative((0, 1)) == 0.5
    with pytest.raises(ValueError, match="mixed"):
        Jet(2, 2, {(1, 1): 1.0}, pure=True)
    full = coordinate_jets((0.5, 0.2), 2)[0]
    for op in (lambda p, q: p * q, lambda p, q: p + q, lambda p, q: p - q,
               lambda p, q: p / q):
        with pytest.raises(ValueError, match="purity"):
            op(x, full)
        with pytest.raises(ValueError, match="purity"):
            op(full, x)
    assert "pure=True" in repr(x) and "pure=False" in repr(full)
