"""The table-driven Jet product against the plain double loop it replaced.

The product must be bit-identical to the loop: the same terms, inserted in
the same order, with the same floats (seeded reports print errors with full
repr, so a reordered sum would change their bytes).
"""

import random

import pytest

from covop.jets import Jet

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
    assert (got.dim, got.order) == (want.dim, want.order)
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
