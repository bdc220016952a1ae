"""The planned Jet product, the fused Horner step and the memoized
reciprocal against the plain loops they replaced, and pure jets against the
full jets they restrict.

Each must be bit-identical to its loop: the same terms, inserted in the same
order, with the same floats (seeded reports print errors with full repr, so
a reordered sum would change their bytes).
"""

import math
import random

import pytest

from covop import verify
from covop.jets import Jet, _is_mixed, _product_plan, coordinate_jets

from oracles import log_series

SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2),
          (6, 2), (1, 5), (3, 4)]


def reference_mul(a, b):
    """The tuple-sum product: every pair, degree filter on each sum."""
    t = {}
    order = a.order
    for e1, c1 in a.terms.items():
        if sum(e1) > order:
            continue
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) > order:
                continue
            s = t.get(e, 0.0) + c1 * c2
            if s == 0 and e in t:
                del t[e]
            else:
                t[e] = s
    return Jet(a.dim, a.order, t)


def _bits(c):
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c.hex()


def assert_same_jet(got, want):
    assert (got.dim, got.order, got.pure) == (want.dim, want.order, want.pure)
    assert list(got.terms) == list(want.terms)  # same keys, same order
    assert got.terms == want.terms
    assert [_bits(c) for c in got.terms.values()] == \
        [_bits(c) for c in want.terms.values()]


def random_exponent(rng, dim, degree):
    e = [0] * dim
    for _ in range(degree):
        e[rng.randrange(dim)] += 1
    return tuple(e)


def random_jet(rng, dim, order, complex_values, coarse):
    """Terms in random insertion order; coarse values (small dyadic ones)
    make products cancel to exactly 0 often, so the delete branch runs."""
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
    rng = random.Random(1000 * dim + order)
    for trial in range(40):
        complex_values = trial % 4 in (1, 3)
        coarse = trial % 2 == 0
        a = random_jet(rng, dim, order, complex_values, coarse)
        b = random_jet(rng, dim, order, complex_values and trial % 8 != 1, coarse)
        assert_same_jet(a * b, reference_mul(a, b))
        assert_same_jet(b * a, reference_mul(b, a))
        assert_same_jet(a * a, reference_mul(a, a))


@pytest.mark.parametrize("dim,order", SHAPES)
def test_a_term_above_the_order_is_skipped(dim, order):
    # such a term only arrives through the public constructor; both the row
    # lookup (left operand) and the entry lookup (right operand) must drop it
    rng = random.Random(7 * dim + order)
    a = random_jet(rng, dim, order, False, False)
    high = random_exponent(rng, dim, order + 1)
    a = Jet(dim, order, {**a.terms, high: 3.0})
    b = random_jet(rng, dim, order, True, False)
    for x, y in ((a, b), (b, a), (a, a)):
        got = x * y
        assert_same_jet(got, reference_mul(x, y))
        assert all(sum(e) <= order for e in got.terms)


def test_a_cancelled_coefficient_is_deleted_and_reinserted_last():
    # (1 + x)(1 - x): the x coefficient is -1, then -1 + 1 = 0, and is deleted
    one_plus = Jet(1, 2, {(0,): 1.0, (1,): 1.0})
    one_minus = Jet(1, 2, {(0,): 1.0, (1,): -1.0})
    got = one_plus * one_minus
    assert_same_jet(got, reference_mul(one_plus, one_minus))
    assert got.terms == {(0,): 1.0, (2,): -1.0}
    # (1 + x + y)(1 - y + x + xy): the xy coefficient cancels on the x row
    # and comes back on the y row, so it moves to the end of the key order
    a = Jet(2, 2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
    b = Jet(2, 2, {(0, 0): 1.0, (0, 1): -1.0, (1, 0): 1.0, (1, 1): 1.0})
    got = a * b
    assert_same_jet(got, reference_mul(a, b))
    assert list(got.terms.items()) == [((0, 0), 1.0), ((1, 0), 2.0), ((2, 0), 1.0),
                                       ((0, 2), -1.0), ((1, 1), 1.0)]


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


# -- plans keyed by the ordered keys -------------------------------------------------


@pytest.mark.parametrize("dim,order", SHAPES)
def test_the_same_key_set_in_another_order_gets_its_own_plan(dim, order):
    # a plan keyed by the set (or the sorted tuple) of an operand's keys would
    # walk the second operand's values in the first one's order
    rng = random.Random(31 * dim + order)
    for trial in range(10):
        a = random_jet(rng, dim, order, trial % 2 == 1, trial % 3 == 0)
        b = random_jet(rng, dim, order, False, trial % 3 == 0)
        items = list(a.terms.items())
        for perm in (items[::-1], rng.sample(items, len(items))):
            a2 = Jet(dim, order, dict(perm))
            for x, y in ((a, b), (a2, b), (b, a), (b, a2), (a2, a), (a, a2)):
                assert_same_jet(x * y, reference_mul(x, y))


# -- compose_series, powers and quotients against the unfused Horner loop -----------


def reference_compose(x, derivs):
    """Horner's rule in x - value through jet operators and reference_mul."""
    w = x - x.value
    acc = Jet.constant(derivs[x.order] / math.factorial(x.order), x.dim, x.order)
    for k in range(x.order - 1, -1, -1):
        acc = reference_mul(acc, w) + derivs[k] / math.factorial(k)
    return acc


def reference_pow(x, p):
    if isinstance(p, int) and p >= 0:
        out = Jet.constant(1.0, x.dim, x.order)
        base = x
        while p:
            if p & 1:
                out = reference_mul(out, base)
            base = reference_mul(base, base)
            p >>= 1
        return out
    v = x.value
    derivs = []
    fall = 1.0
    for k in range(x.order + 1):
        derivs.append(fall * v ** (p - k))
        fall = fall * (p - k)
    return reference_compose(x, derivs)


def with_value(x, v):
    """x with its value part set to v (moved to the end of the key order)."""
    terms = {e: c for e, c in x.terms.items() if any(e)}
    terms[(0,) * x.dim] = v
    return Jet(x.dim, x.order, terms)


# 1.0 and 2.0 are float powers whose top derivatives are exactly 0
POWERS = (-1, -2, -0.5, 0.5, 1.0, 1.5, 2.0, 0, 3)


@pytest.mark.parametrize("dim,order", SHAPES)
def test_powers_match_the_unfused_horner_loop(dim, order):
    rng = random.Random(50 * dim + order)
    for trial in range(8):
        complex_values = trial % 4 == 1
        coarse = trial % 2 == 0
        x = random_jet(rng, dim, order, complex_values, coarse)
        x = with_value(x, rng.choice((0.5, -1.5, 2.0)) if coarse else rng.uniform(0.3, 2.0))
        for p in POWERS:
            assert_same_jet(x ** p, reference_pow(x, p))


@pytest.mark.parametrize("dim,order", [(2, 2), (3, 3), (1, 5)])
def test_powers_of_a_jet_with_zero_value(dim, order):
    rng = random.Random(dim + 10 * order)
    x = with_value(random_jet(rng, dim, order, False, True), 0.0)
    for p in (0, 1, 2, 3):
        assert_same_jet(x ** p, reference_pow(x, p))
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
        assert_same_jet(x / y, reference_mul(x, reference_pow(y, -1)))
        assert_same_jet(1.5 / y, reference_pow(y, -1) * 1.5)
        pos = with_value(random_jet(rng, dim, order, False, coarse), rng.uniform(0.5, 2.0))
        logs = log_series(pos.value, order)
        assert_same_jet(pos.compose_series(logs), reference_compose(pos, logs))


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


def test_a_seeded_run_builds_a_bounded_number_of_plans():
    # the plans of every suite at seed 0 (353 when this test was written); a
    # plan key that came to depend on values would grow past the bound
    _product_plan.cache_clear()
    verify.run_suites("all", seed=0)
    assert _product_plan.cache_info().currsize <= 2000


# -- pure jets: the full jet restricted, bit for bit and in key order --------------


def restrict(x):
    """The pure jet of x's value and pure partials, in x's key order."""
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
