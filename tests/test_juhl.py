import heapq
import inspect
import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import pytest

from covop.algebra import Poly
from covop.cli import op_vars
from covop.juhl import (_reduced_iterated, iterated, juhl_coeffs, lap_prime_terms,
                        leading_coeff, normalization_meta)
from covop.verify import _restricted_table

from oracles import (DiffOp, apply, decompose_tangential, expand, multinomial,
                     one_step, subs_value, weak_compositions)


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
        assert apply(one_step(n), xin) == 2 * lam + (2 - n)


def test_iterated_single_factor():
    for n in (1, 2, 3):
        assert expand(n, 1) == one_step(n)


def test_iterated_equals_generic_composition():
    # the reduced-basis build, expanded, must agree with plain Leibniz
    # composition
    for n in (1, 2, 3):
        for N in (2, 3, 4):
            direct = one_step(n)
            for j in range(1, N):
                direct = one_step(n).shift_lambda(j).compose(direct)
            assert expand(n, N) == direct


def test_juhl_coeffs_pin_to_generic_route():
    # the reduced-basis read-off must agree with expand, restrict, decompose
    for n in (1, 2, 3, 4):
        for N in (1, 2, 3, 5, 6):
            assert juhl_coeffs(n, N) == decompose_tangential(expand(n, N).restrict(), N)


def test_restrict_pins_to_subs_value_route():
    # keeping the xi_n-free terms is evaluation at xi_n = 0, term order included
    for n in (1, 2, 3, 4):
        for N in (1, 2, 3, 5, 6):
            D = expand(n, N)
            got = D.restrict()
            want = DiffOp(n, {a: subs_value(c, f"xi{n}", 0) for a, c in D.terms.items()})
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
            assert apply(expand(n, N), xin ** N) == want


def test_leading_coeff_closed_form():
    lam = Poly.from_univariate([0, 1])
    assert leading_coeff(4, 1) == 2 * lam - 2
    assert leading_coeff(3, 2) == (2 * lam) * (2 * lam + 1)
    assert leading_coeff(3, 3) == (2 * lam + 1) * (2 * lam + 2) * (2 * lam + 3)


def test_juhl_coeffs_small_orders():
    t1 = juhl_coeffs(3, 1)
    assert t1.coeffs[0] == Poly.from_univariate([-1, 2])
    t2 = juhl_coeffs(3, 2)
    lam = Poly.from_univariate([0, 1])
    assert t2.coeffs[0] == (2 * lam) * (2 * lam + 1)
    assert t2.coeffs[1] == 2 * lam + 1


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
            assert coeffs[0] == leading_coeff(n, N)
            for m, a in enumerate(coeffs):
                assert a == closed_form_coeff(n, N, m), (n, N, m)


def test_juhl_coeffs_read_the_xin_free_part_of_the_classes():
    # a_m, read from the i = 0 reduced keys, is the xi_n-free part of the
    # class (m, N - 2m) of the class table; for n = 1 only a_0 survives
    for n in range(1, 9):
        for N in range(1, 13):
            classes = iterated(n, N)
            coeffs = juhl_coeffs(n, N).coeffs
            assert len(coeffs) == N // 2 + 1
            for m, a in enumerate(coeffs):
                want = {(deg,): c for (deg, i), c in
                        classes.get((m, N - 2 * m), {}).items() if not i}
                assert a == Poly(("lam",), want), (n, N, m)
                assert (n == 1 and m > 0) == (not a), (n, N, m)


def test_juhl_coeffs_polynomial_in_lam():
    for n in (2, 3):
        for N in (1, 2, 3, 4):
            for a in juhl_coeffs(n, N).coeffs:
                assert isinstance(a, Poly) and a.vars == ("lam",)


def test_shift_consistency():
    for n in (2, 3):
        for N in (1, 2):
            lhs = expand(n, N).shift_lambda(1).compose(one_step(n))
            assert lhs == expand(n, N + 1)


def test_lap_prime_terms_match_the_weak_compositions():
    # the one expansion of Lap'^s is lazy and yields the oracle's m' in the
    # oracle's (ascending) order, each with its multinomial
    assert inspect.isgenerator(lap_prime_terms(8, (10,)))
    for n in range(1, 9):
        for s in range(7):
            assert list(lap_prime_terms(n, (s,))) == \
                [(m, multinomial(m)) for m in weak_compositions(s, n - 1)], (n, s)


def test_lap_prime_terms_walk_every_order_at_once():
    # one walk over a set of orders is the ascending merge of the
    # single-order streams, each of them the oracle's
    assert inspect.isgenerator(lap_prime_terms(8, range(11)))
    for n in range(1, 9):
        for orders in ((), (0,), (3,), (1, 3), tuple(range(7))):
            streams = [[(m, multinomial(m)) for m in weak_compositions(s, n - 1)]
                       for s in orders]
            assert list(lap_prime_terms(n, orders)) == list(heapq.merge(*streams)), \
                (n, orders)


def test_operator_classes_rebuild_the_expansion():
    # d^(2m', a) has the coefficient multinomial(m') * F(s, a), |m'| = s;
    # checked against the composition of shifted one-step operators
    for n in range(1, 7):
        direct = one_step(n)
        for N in range(1, 9):
            if N > 1:
                direct = one_step(n).shift_lambda(N - 1).compose(direct)
            rebuilt = {}
            for (s, a), F in iterated(n, N).items():
                for m in weak_compositions(s, n - 1):
                    w = multinomial(m)
                    rebuilt[tuple(2 * x for x in m) + (a,)] = \
                        {key: w * c for key, c in F.items()}
            want = {}
            for alpha, p in direct.terms.items():
                assert all(not any(e[1:n]) for e in p.terms), (n, N)
                want[alpha] = {(e[0], e[n]): c for e, c in p.terms.items()}
            assert rebuilt == want, (n, N)


@lru_cache(maxsize=None)
def reference_reduced(n, N):
    """The reduced basis by its defining recursion: order N composes
    (2*lam + 2N - n) P + X L on the left of order N - 1, with
    P X^i = X^i P + i X^(i-1) and L X^i = X^i L + 2i X^(i-1) P + i(i-1) X^(i-2)."""
    if N == 0:
        return {(0, 0, 0): (1,)}
    a = 2 * N - n
    new = {}

    def add(key, c):
        s = [x + y for x, y in zip_longest(new.get(key, ()), c, fillvalue=0)]
        while s and not s[-1]:
            s.pop()
        if s:
            new[key] = tuple(s)
        else:
            new.pop(key, None)

    for (i, j, k), c in reference_reduced(n, N - 1).items():
        # (2*lam + a) * d_n applied after xi_n^i d_n^j Lap^k
        fc = tuple(a * x + 2 * y for x, y in zip(c + (0,), (0,) + c))
        add((i, j + 1, k), fc)
        if i:
            add((i - 1, j, k), tuple(x * i for x in fc))
        # xi_n * Lap applied after the same
        add((i + 1, j, k + 1), c)
        if i:
            add((i, j + 1, k), tuple(x * (2 * i) for x in c))
        if i >= 2:
            add((i - 1, j, k), tuple(x * (i * (i - 1)) for x in c))
    return new


def test_closed_form_matches_the_recursion():
    for n in range(1, 9):
        for N in range(1, 13):
            assert _reduced_iterated(n, N) == reference_reduced(n, N), (n, N)


def test_iterated_is_the_class_table():
    # (2 lam) d_2 + xi_2 (d_1^2 + d_2^2) on R^2, by class (s, a) of
    # d^(2m', a), |m'| = s: {(lam_deg, xi_n_deg): coefficient}
    assert iterated(2, 1) == {(0, 1): {(1, 0): 2}, (1, 0): {(0, 1): 1},
                              (0, 2): {(0, 1): 1}}
    with pytest.raises(ValueError):
        iterated(2, 0)


def test_operator_classes_count_at_8_10():
    # 67,078 terms of the expansion in 608 coefficient classes
    classes = iterated(8, 10)
    assert len(classes) == 91
    assert len({(s, a, multinomial(m)) for s, a in classes
                for m in weak_compositions(s, 7)}) == 608


def test_one_step_never_zero():
    for n in range(1, 9):
        assert one_step(n).terms


# -- normalization metadata --------------------------------------------------


def _ratio_at(m, lam):
    """The parity ratio at a rational lam, in Fractions."""
    val = m.ratio_prefactor * Fraction(2) ** m.ratio_two_power
    for b, a in m.ratio_factors:
        val *= b * lam + a
    return val


def test_meta_even_ratio_example():
    # n=4, N=2 at lam=0: (2!/1!) * 2^0 * (2*0) = 0 flags a reducibility point
    m = normalization_meta(4, 2)
    assert m.parity == "even"
    assert _ratio_at(m, Fraction(0)) == 0
    assert _ratio_at(m, Fraction(1)) == 4


def test_meta_odd_ratio_example():
    # n=3, N=1 at lam=1: (1!/0!) * 2^1 * (2-3+1+1) = 2
    m = normalization_meta(3, 1)
    assert m.parity == "odd"
    assert _ratio_at(m, Fraction(1)) == 2


def test_meta_gamma_factors_at_order_one():
    # N=1: no pi power, factors Gamma(lam+1) Gamma(n-1-lam); at n=2 the
    # second is Gamma(1-lam)
    m = normalization_meta(2, 1)
    assert m.pi_power == 0
    assert [(g.const, g.lam_coeff) for g in m.gammas] == \
        [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]


def test_meta_pi_power():
    assert normalization_meta(3, 4).pi_power == 9
    assert normalization_meta(2, 5).pi_power == 8


def test_meta_parity_matches_order():
    for N in range(1, 8):
        assert normalization_meta(3, N).parity == ("even" if N % 2 == 0 else "odd")


def test_meta_ratio_is_the_top_tangential_coefficient():
    # ratio_prefactor * 2^ratio_two_power * prod(b lam + a) is
    # 2^(2 ceil(N/2) - 1) * a_floor(N/2), the coefficient of Lap'^(N/2), or
    # of d_n Lap'^((N-1)/2) for odd N.  n = 1 is left out: it has no Lap',
    # so a_floor(N/2) is 0 for N >= 2 while the exported ratio is not.
    lam = Poly.from_univariate([0, 1])
    for n in range(2, 9):
        for N in range(1, 13):
            m = normalization_meta(n, N)
            ratio = Poly.const(m.ratio_prefactor * 2 ** m.ratio_two_power, ("lam",))
            for b, a in m.ratio_factors:
                ratio = ratio * (b * lam + a)
            top = juhl_coeffs(n, N).coeffs[N // 2]
            assert ratio == top * 2 ** (2 * ((N + 1) // 2) - 1), (n, N)
