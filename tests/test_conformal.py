import math
from fractions import Fraction

import numpy as np
import pytest

from covop import conformal
from covop.conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                             PulledBack, Rotation, SingularPoint, Translation,
                             stereographic, tangential_rotation)
from covop.jets import Jet, coordinate_jets

from oracles import Poly, hess, log_series


def test_dilation_action_and_factor():
    g = ConformalMap(3, [Dilation(2.0)])
    assert g.act((1.0, 0.0, 0.0)) == (2.0, 0.0, 0.0)
    assert g.act_and_factor((5.0, 1.0, -2.0))[1] == 2.0


def test_inversion_at_unit_vector():
    g = ConformalMap(3, [Inversion()])
    assert g.act((1.0, 0.0, 0.0)) == (-1.0, 0.0, 0.0)


def test_inversion_is_involution_exact():
    # checked in exact rational arithmetic
    g = Inversion()
    pts = [(Fraction(1, 2), Fraction(-2), Fraction(3)),
           (Fraction(3), Fraction(1, 3), Fraction(-1, 7))]
    for p in pts:
        q = g.act_and_factor(g.act_and_factor(list(p))[0])[0]
        assert tuple(q) == p


def test_inversion_factor_values():
    g = ConformalMap(2, [Inversion()])
    assert g.act_and_factor((2.0, 0.0))[1] == pytest.approx(0.25)
    # jet-based oracle |Dg(xi) eta| / |eta| at |xi| = 2
    comps = g.act(coordinate_jets((2.0, 0.0), 1))
    jac = np.array([c.grad for c in comps])
    eta = np.array([0.6, 0.8])
    assert np.linalg.norm(jac @ eta) == pytest.approx(0.25, rel=1e-12)


def test_composite_factor_via_cocycle():
    # Dilation(2) after inversion at |xi| = 1: 2 * 1 = 2
    g = ConformalMap(2, [Inversion(), Dilation(2.0)])
    assert g.act_and_factor((1.0, 0.0))[1] == pytest.approx(2.0)


def test_singular_guard():
    g = ConformalMap(2, [Inversion()])
    with pytest.raises(SingularPoint):
        g.act((0.01, 0.01))


def test_inversion_step_evaluates_norm_once(monkeypatch):
    # image and factor share one |xi|^2 and one singular guard
    calls = []
    norm_sq = conformal._norm_sq

    def counted(xs):
        calls.append(len(xs))
        return norm_sq(xs)

    monkeypatch.setattr(conformal, "_norm_sq", counted)
    ConformalMap(3, [Inversion()]).act_and_factor(coordinate_jets((0.5, -0.3, 0.8), 2))
    assert calls == [3]


def test_act_is_the_image_of_act_and_factor(monkeypatch):
    # act walks the word for the image alone, with no cocycle product, and
    # gives the same floats and the same jets
    words = [ConformalMap(3, [Translation((0.3, -0.2, 0.1)), Inversion(),
                              Dilation(1.7), Rotation(3, math.cos(0.4), math.sin(0.4))]),
             ConformalMap(3, [Inversion(), tangential_rotation(3, 1.1),
                              Inversion(), Translation((0.0, 0.5, -0.4))])]
    points = [(0.7, -0.4, 0.9), (-1.2, 0.3, 0.25)]
    want = [(g.act_and_factor(p)[0], g.act_and_factor(coordinate_jets(p, 2))[0])
            for g in words for p in points]
    monkeypatch.setattr(ConformalMap, "act_and_factor", None)
    got = [(g.act(p), g.act(coordinate_jets(p, 2))) for g in words for p in points]
    for (floats, jets), (want_floats, want_jets) in zip(got, want):
        assert floats == want_floats
        assert [j.terms for j in jets] == [j.terms for j in want_jets]


def test_rotation_validation():
    with pytest.raises(ValueError):
        Rotation(2, 1.0, 0.1)  # off the unit circle
    with pytest.raises(ValueError):
        Rotation(1, 0.0, 1.0)  # R^1 has no plane to rotate
    with pytest.raises(ValueError):
        Rotation(1, -1.0, 0.0)  # determinant -1
    # from n = 2 on, (c, s) stands for [[c, -s], [s, c]], of determinant
    # c^2 + s^2: a reflection such as [[0, 1], [1, 0]] cannot be written


def _matrix_rows(rot):
    """The rows of the rotation's matrix: (c, -s, 0, ...), (s, c, 0, ...)
    and e_k for k >= 3 (only (c) in R^1)."""
    n = rot.dim
    rows = [[float(j == i) for j in range(n)] for i in range(n)]
    rows[0][0] = rot.c
    if n >= 2:
        rows[0][1], rows[1][0], rows[1][1] = -rot.s, rot.s, rot.c
    return rows


def _row_loop(rows, xs):
    """The matrix step: each row against xs, skipping the zero entries."""
    out = []
    for row in rows:
        acc = row[0] * xs[0]
        for c, x in zip(row[1:], xs[1:]):
            if c:
                acc = acc + c * x
        out.append(acc)
    return out


def _bits(v):
    if isinstance(v, Jet):
        return tuple(v.terms), tuple(float.hex(c) for c in v.terms.values())
    # a Fraction the rows would have turned into a float passes through
    # exactly; the float the rows made is float() of it
    return float.hex(float(v))


def test_rotation_step_matches_matrix_rows():
    rng = np.random.default_rng(5)

    def points(n):
        p = tuple(float(x) for x in rng.uniform(-2.0, 2.0, n))
        yield p
        yield tuple(Fraction(int(k), 7) for k in rng.integers(-20, 21, n))
        for order in (1, 2, 3):
            yield coordinate_jets(p, order)

    def check(rot, rows):
        for xs in points(rot.dim):
            got, k = rot.act_and_factor(list(xs))
            assert k == 1.0
            assert [_bits(v) for v in got] == [_bits(v) for v in _row_loop(rows, xs)]

    for n in (1, 2, 3, 4):
        for angle in (0.0, 0.7, 2.5, -1.3):
            # the rotation by the angle, the identity on R^1, and the one
            # that keeps xi_n fixed
            full = (Rotation(n, math.cos(angle), math.sin(angle)) if n >= 2
                    else Rotation(1, 1.0, 0.0))
            for rot in (full, tangential_rotation(n, angle)):
                rows = _matrix_rows(rot)
                check(rot, rows)
                check(rot.inverse(), [list(col) for col in zip(*rows)])
                if n >= 2 and rot.preserves_hyperplane():
                    (sub,) = ConformalMap(n, [rot]).restrict_to_hyperplane().word
                    check(sub, [row[:-1] for row in rows[:-1]])


def test_hyperplane_preservation_flags():
    n = 3
    assert Translation((0.5, -1.0, 0.0)).preserves_hyperplane()
    assert not Translation((0.0, 0.0, 0.7)).preserves_hyperplane()
    assert tangential_rotation(n, 0.4).preserves_hyperplane()
    assert Inversion().preserves_hyperplane()
    g = ConformalMap(n, [Dilation(1.5), Inversion()])
    assert g.preserves_hyperplane()


def test_inverse_word():
    g = ConformalMap(2, [Translation((0.3, 0.0)), Dilation(2.0), Inversion()])
    xi = (0.7, -0.4)
    back = g.inverse().act(g.act(xi))
    assert np.allclose(back, xi, atol=1e-14)


def test_restrict_to_hyperplane_consistency():
    # acting on (xi', 0) and restricting agree with the induced map on xi'
    n = 3
    g = ConformalMap(n, [Translation((0.4, 0.0, 0.0)), Inversion(),
                         tangential_rotation(n, 0.9)])
    gp = g.restrict_to_hyperplane()
    xi_p = (0.8, -0.6)
    full = g.act(xi_p + (0.0,))
    red = gp.act(xi_p)
    assert np.allclose(full[:-1], red, atol=1e-14)
    assert abs(full[-1]) < 1e-15
    assert gp.act_and_factor(xi_p)[1] == pytest.approx(
        g.act_and_factor(xi_p + (0.0,))[1], rel=1e-13)


# -- test functions and the twisted action --------------------------------------


def test_gaussian_value_and_jet():
    f = GaussianBump((0.0, 0.0), 1.0)
    assert f.value((0.0, 0.0)) == pytest.approx(1.0)
    j = f.jet((0.3, -0.2), 2)
    # d/dxi_i exp(-|xi|^2) = -2 xi_i exp(-|xi|^2)
    v = math.exp(-(0.3 ** 2 + 0.2 ** 2))
    assert j.value == pytest.approx(v)
    assert j.grad[0] == pytest.approx(-2 * 0.3 * v)
    assert hess(j)[0][1] == pytest.approx(4 * 0.3 * (-0.2) * v, abs=1e-12)


def test_gaussian_prefactor_and_times_coordinate():
    f = GaussianBump((0.0, 0.0), 1.0, {(1, 0): 1})
    assert f.value((0.5, 0.2)) == pytest.approx(0.5 * math.exp(-(0.29)))
    g = GaussianBump((0.0, 0.0), 1.0).times_coordinate(1)
    assert g.prefactor == {(0, 1): 1}
    assert g.value((0.5, 0.2)) == pytest.approx(0.2 * math.exp(-(0.29)))
    h = GaussianBump((0.0, 0.0), 1.0, {(0, 0): 1, (1, 0): -2}).times_coordinate(0)
    assert list(h.prefactor.items()) == [((1, 0), 1), ((2, 0), -2)]
    assert h.effective_radius() == pytest.approx(math.sqrt(math.log(1e16)) + 2)


def _hex_terms(x):
    """The bits of a float, or of every coefficient of a jet."""
    if isinstance(x, Jet):
        return {e: float(c).hex() for e, c in x.terms.items()}
    return float(x).hex()


def test_prefactor_matches_the_poly_oracle_bit_for_bit():
    # a prefactor is summed as Poly.evaluate sums, on floats and on order-2
    # jets, also after times_coordinate has raised its exponents
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        names = tuple(f"xi{i}" for i in range(1, n + 1))
        for _ in range(15):
            pre = {tuple(int(k) for k in rng.integers(0, 3, n)): int(c)
                   for c in rng.integers(-3, 4, 3) if c}
            f = GaussianBump(tuple(rng.uniform(-0.5, 0.5, n)), 1.1, pre or None)
            for i in rng.integers(0, n, int(rng.integers(0, 3))):
                f = f.times_coordinate(int(i))
            if f.prefactor is None:
                continue
            plain = GaussianBump(f.center, f.width)
            oracle = Poly(names, f.prefactor)
            xi = tuple(float(c) for c in rng.uniform(-1.0, 1.0, n))
            cj = coordinate_jets(xi, 2)
            assert _hex_terms(f.value(xi)) == _hex_terms(
                oracle.evaluate(list(xi)) * plain.value(xi))
            assert _hex_terms(f.jet(xi, 2)) == _hex_terms(
                oracle.evaluate(cj) * plain.eval_generic(cj))


def test_dilation_rejects_a_nonpositive_or_nonfinite_ratio():
    for r in (0.0, -1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            Dilation(r)


def test_rotation_rejects_nan():
    for c, s in ((math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Rotation(3, c, s)


def test_gaussian_rejects_a_nonpositive_or_nan_width_and_a_short_exponent():
    for width in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            GaussianBump((0.0,), width=width)
    with pytest.raises(ValueError):
        GaussianBump((0.0, 0.0), prefactor={(1,): 1})


def test_gaussian_rejects_a_negative_or_fractional_exponent():
    # xi^-1 exp(-xi^2) was evaluated as exp(-xi^2), and a fractional
    # exponent raised TypeError only when evaluated
    for e in ((-1,), (1.5,)):
        with pytest.raises(ValueError, match="ints >= 0"):
            GaussianBump((0.0,), 1.0, {e: 1})
    with pytest.raises(ValueError, match="ints >= 0"):
        GaussianBump((0.0, 0.0), 1.0, {(0, 0): 1, (2, -1): 3})
    f = GaussianBump((0.0,), 1.0, {(0,): 1, (2,): 1})
    assert f.value((2.0,)) == 5.0 * math.exp(-4.0)


def test_gaussian_rejects_an_infinite_width_and_a_nonfinite_center():
    with pytest.raises(ValueError):
        GaussianBump((0.0,), width=math.inf)
    for center in ((math.nan,), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError):
            GaussianBump(center, 1.0)


def test_translation_rejects_nonfinite_entries():
    for v in ((math.nan, 0.0), (0.0, math.inf), (-math.inf,)):
        with pytest.raises(ValueError):
            Translation(v)
    assert Translation((0.5, -1.0)).inverse().v == (-0.5, 1.0)


def test_times_coordinate_rejects_an_index_outside_the_coordinates():
    # with or without a prefactor: no silent no-op and no IndexError
    for f in (GaussianBump((0.1, 0.2)), GaussianBump((0.1, 0.2), 1.0, {(1, 0): 1})):
        for i in (2, 5, -1):
            with pytest.raises(ValueError, match="coordinate index"):
                f.times_coordinate(i)
        assert f.times_coordinate(1).value((0.5, 0.5)) == \
            pytest.approx(0.5 * f.value((0.5, 0.5)))


# the generators and the bump zip coordinates, so a surplus one was dropped
# and a missing one ignored without a word


def test_a_word_refuses_a_point_of_another_dimension():
    # act((1, 2, 3)) returned (1.1, 2.0)
    g = ConformalMap(2, [Translation((0.1, 0.0))])
    for point in ((1.0, 2.0, 3.0), (1.0,), [Jet.variable(1.0, 0, 1, 2)]):
        for call in (g.act, g.act_and_factor):
            with pytest.raises(ValueError, match="expected n = 2"):
                call(point)
    assert g.act((1.0, 2.0)) == (1.1, 2.0)


def test_a_pullback_refuses_a_word_and_function_of_different_dimensions():
    # the 1-d word on a 2-d bump gave 0.9608 at (0.3, 0.2), the 1-d bump's
    # value at 0.2
    with pytest.raises(ValueError, match="dimension"):
        PulledBack(0.8, ConformalMap(1, [Translation((0.1,))]), GaussianBump((0.0, 0.0)))
    with pytest.raises(ValueError, match="dimension"):
        PulledBack(0.8, ConformalMap(3), GaussianBump((0.0, 0.0)))


def test_a_bump_refuses_a_point_of_another_dimension():
    # value((1.0,)) on a 2-d bump gave e^-1
    f = GaussianBump((0.0, 0.0))
    for point in ((1.0,), (1.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="expected n = 2"):
            f.value(point)
        with pytest.raises(ValueError, match="expected n = 2"):
            f.jet(point)
    with pytest.raises(ValueError, match="expected n = 2"):
        f.eval_generic([np.zeros(4)])
    assert f.value((1.0, 0.0)) == math.exp(-1.0)


def test_rho_identity_and_dilation():
    n = 2
    f = GaussianBump((0.2, -0.1), 1.0)
    xi = (0.4, 0.3)
    ident = ConformalMap(n)
    j = PulledBack(1.3, ident, f).jet(xi, 2)
    jf = f.jet(xi, 2)
    assert j.value == pytest.approx(jf.value)
    assert np.allclose(j.grad, jf.grad)

    r = 1.7
    lam = 0.8
    g = ConformalMap(n, [Dilation(r)])
    got = PulledBack(lam, g, f).value(xi)
    want = r ** (-lam) * f.value((xi[0] / r, xi[1] / r))
    assert got == pytest.approx(want, rel=1e-13)


def test_rho_inversion_hand_value():
    # at xi = e_1 the inversion factor is 1, the image is -e_1
    n = 2
    f = GaussianBump((1.0, 0.0), 1.0)
    g = ConformalMap(n, [Inversion()])
    got = PulledBack(2.0, g, f).value((1.0, 0.0))
    assert got == pytest.approx(f.value((-1.0, 0.0)), rel=1e-13)


def test_rho_prime_restriction_consistency():
    # for hyperplane-preserving g and xi_n-independent f near the hyperplane,
    # the restricted action evaluates like the full one
    n = 3
    g = ConformalMap(n, [Dilation(1.4), tangential_rotation(n, 0.5)])
    f3 = GaussianBump((0.3, -0.2, 0.0), 1.1)   # center on the hyperplane
    f2 = GaussianBump((0.3, -0.2), 1.1)
    lam = 0.9
    xi_p = (0.5, 0.1)
    full = PulledBack(lam, g, f3).value(xi_p + (0.0,))
    red = PulledBack(lam, g.restrict_to_hyperplane(), f2).value(xi_p)
    assert full == pytest.approx(red, rel=1e-13)


# -- chart ------------------------------------------------------------------------


def test_chart_at_origin_and_equator():
    assert stereographic((0.0, 0.0))[0] == (1.0, 0.0, 0.0)
    x = stereographic((1.0, 0.0))[0]
    assert np.allclose(x, (0.0, 1.0, 0.0))


def test_chart_limit_towards_antipode():
    x = stereographic((100.0, 0.0))[0]
    assert x[0] == pytest.approx(-1.0, abs=3e-4)
    assert np.linalg.norm(x[1:]) < 2.1e-2


def test_chart_unit_norm_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        xi = tuple(rng.uniform(-3, 3, 3))
        x = stereographic(xi)[0]
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-13)
        # the inverse chart (x_0, x') -> x'/(1 + x_0)
        assert np.allclose(np.array(x[1:]) / (1.0 + x[0]), xi, atol=1e-12)


def test_chart_factor_values():
    assert stereographic((0.0, 0.0))[1] == pytest.approx(2.0)
    assert stereographic((1.0, 0.0))[1] == pytest.approx(1.0)


def test_chart_step_is_the_two_function_route_bit_for_bit(monkeypatch):
    # the chart was two functions, the image and the factor 2/(1+|xi|^2),
    # each from its own |xi|^2; the one step gives both from one |xi|^2, with
    # the same bits on floats, numpy scalars and order-2 pure and full jets
    def norm_sq(xs):
        total = xs[0] * xs[0]
        for x in xs[1:]:
            total = total + x * x
        return total

    def old_image(xs):
        q = norm_sq(list(xs))
        den = 1.0 + q
        first = (1.0 - q) / den
        return tuple([first] + [2.0 * x / den for x in xs])

    def old_factor(xs):
        return 2.0 / (1.0 + norm_sq(list(xs)))

    def bits(v):
        if isinstance(v, Jet):
            return v.pure, [(e, float.hex(c)) for e, c in v.terms.items()]
        return type(v), float.hex(v)

    calls = []
    monkeypatch.setattr(conformal, "_norm_sq", lambda xs: calls.append(1) or norm_sq(xs))
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        p = rng.uniform(-2.0, 2.0, n)
        floats = tuple(float(x) for x in p)
        for xs in (floats, tuple(p), coordinate_jets(floats, 2, pure=True),
                   coordinate_jets(floats, 2)):
            calls.clear()
            image, k = stereographic(xs)
            assert calls == [1]
            assert [bits(v) for v in image] == [bits(v) for v in old_image(xs)]
            assert bits(k) == bits(old_factor(xs))


def test_chord_product_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        xi = rng.uniform(-2, 2, 3)
        eta = rng.uniform(-2, 2, 3)
        if np.linalg.norm(xi - eta) < 0.2:
            continue
        cx, kx = stereographic(tuple(xi))
        ce, ke = stereographic(tuple(eta))
        lhs = np.sum((np.array(cx) - np.array(ce)) ** 2)
        rhs = kx * np.sum((xi - eta) ** 2) * ke
        assert lhs == pytest.approx(rhs, rel=1e-12)


# -- jets -------------------------------------------------------------------------


def test_jet_power_and_log_roundtrip():
    j = coordinate_jets((1.7, 0.4), 3)[0]
    p = (j * j + 1.0) ** 0.5
    q = (p * p - 1.0) / j
    assert q.value == pytest.approx(1.7)
    assert q.grad[0] == pytest.approx(1.0, abs=1e-12)
    e = j.compose_series(log_series(1.7, 3)).exp()  # log, then exp
    assert e.value == pytest.approx(1.7)
    assert e.grad[0] == pytest.approx(1.0)


def test_jet_higher_order_derivative():
    # d^3/dx^3 of x^2 * exp(x) at 0.5, against the closed form (x^2+6x+6) e^x
    x = coordinate_jets((0.5,), 3)[0]
    f = x * x * x.exp()
    want = (0.25 + 3.0 + 6.0) * math.exp(0.5)
    assert f.derivative((3,)) == pytest.approx(want, rel=1e-12)


def test_jet_derivative_refuses_a_multi_index_of_the_wrong_length():
    # a short or long multi-index names no derivative; it is not a zero one
    x = coordinate_jets((0.5, 0.2))[0]
    assert x.derivative((1, 0)) == 1.0 and x.derivative((0, 1)) == 0.0
    for alpha in ((1,), (), (1, 0, 0)):
        with pytest.raises(ValueError):
            x.derivative(alpha)



def test_jet_refuses_a_key_of_the_wrong_length():
    # a key of another length would be read back by derivative() as if it
    # named a derivative, and a jet holds no coefficient above its order
    for terms in ({(1,): 1.0}, {(0, 0): 1.0, (1, 0, 0): 2.0}, {(): 3.0}):
        with pytest.raises(ValueError, match="entries"):
            Jet(2, 2, terms)
    with pytest.raises(ValueError, match="above the order"):
        Jet(2, 2, {(3, 0): 1.0})
    assert Jet.constant(0.0, 2, 2).terms == {}
    assert Jet.constant(2.5, 2, 2).terms == {(0, 0): 2.5}
    assert (Jet.variable(0.5, 1, 2, 2) * 0).terms == {}

def test_jet_against_finite_differences():
    # independent spot check of the jet machinery on the twisted pullback
    n = 2
    g = ConformalMap(n, [Inversion(), Dilation(1.3)])
    f = GaussianBump((0.4, 0.1), 1.0)
    lam = 0.7
    u = PulledBack(lam, g, f)
    xi = (0.8, -0.5)
    j = u.jet(xi, 2)
    h = 1e-5
    for i in range(n):
        up = list(xi); up[i] += h
        dn = list(xi); dn[i] -= h
        fd = (u.value(tuple(up)) - u.value(tuple(dn))) / (2 * h)
        assert j.grad[i] == pytest.approx(fd, rel=2e-6, abs=1e-8)
    up = (xi[0] + h, xi[1])
    dn = (xi[0] - h, xi[1])
    fd2 = (u.value(up) - 2 * u.value(xi) + u.value(dn)) / h ** 2
    assert hess(j)[0][0] == pytest.approx(fd2, rel=2e-4, abs=1e-6)
