"""Numerical verification of the analytic identities behind the operator
families: covariance under hyperplane-preserving conformal maps, intertwining
of the convolution operators by quadrature, the intertwiner's Fourier symbol
against its space-side value, and the ambient (light-cone) realization.

Every check returns a CheckReport.  Derivatives are taken with jets (exact
to rounding).  The Knapp-Stein transform of a Gaussian bump, and of an
affine pullback of one, is a Kummer function in closed form.  The one
integral left, the n = 1 transform of any other function, is taken by
double-exponential (tanh-sinh) quadrature, level by level (Takahasi-Mori,
Publ. RIMS 9, 1974): the integrand receives the nodes of a level at once,
as their distances to the kernel's singular end 0, so the algebraic
singularity there costs no accuracy, and a level's estimate is one
math.fsum.  The module computes with the standard library alone, so
no report depends on a SIMD kernel's dispatch.  Quadrature-backed checks
carry their own truncation/tolerance budget, and all sampling is seeded, so
suite runs are reproducible.  Every seeded check takes an rng (a ``Stream``)
and a sample count, and draws each sample (points and parameters alike)
inside one bounded sampler, ``_sampled``: it makes at most DRAWS_PER_SAMPLE
draws per requested sample, and a check that accepts fewer samples than it
asked for fails and says how many it got.  The suites share one n range,
1..8 by default; a check with no case in the range is left out, so a suite
with no check in the range returns no reports.

A ``Stream`` builds every draw from ``random.Random(seed).random`` alone, by
formulas written in this module.  Python's documentation promises that
random() repeats its sequence for a seed; numpy promises that only for its
bit generators, not for ``Generator.uniform``, ``normal`` or ``integers``
(NEP 19).  So the draws of a seed depend on no numpy version, and a suite
run loads neither numpy's random module nor the OpenSSL behind its seeding.
"""

import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

from .conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                        PulledBack, Rotation, SingularPoint, Translation,
                        _norm_sq, stereographic, tangential_rotation)
from .jets import coordinate_jets
from .juhl import (_leading_product, _reduced_iterated, juhl_coeffs,
                   lap_prime_prefixes, padd, pmul, substitute)
from . import juhl, symbolcalc


class QuadratureBudgetExceeded(Exception):
    """The double-exponential quadrature (Takahasi-Mori 1974) ran out of
    levels before it reached its requested accuracy."""


class CheckReport:
    """Outcome of one verification: passed iff max_rel_err <= tolerance."""

    __slots__ = ("name", "samples", "max_rel_err", "tolerance", "passed", "diagnostics")

    def __init__(self, name, samples, max_rel_err, tolerance, passed, diagnostics=""):
        self.name = name
        self.samples = samples
        self.max_rel_err = max_rel_err
        self.tolerance = tolerance
        self.passed = passed
        self.diagnostics = diagnostics

    def __repr__(self):
        return (f"CheckReport({self.name!r}, {self.samples!r}, {self.max_rel_err!r}, "
                f"{self.tolerance!r}, {self.passed!r}, {self.diagnostics!r})")

    @classmethod
    def from_errors(cls, name, errs, tol, diags=None):
        if not errs:
            return cls(name, 0, 0.0, tol, True, "no samples")
        # the first NaN, else the first largest error: max keeps the first
        # of equal keys
        worst = max(range(len(errs)), key=lambda k: (math.isnan(errs[k]), errs[k]))
        diag = diags[worst] if diags else f"sample {worst}"
        return cls(name, len(errs), float(errs[worst]), tol,
                   bool(errs[worst] <= tol), diag)

    def to_dict(self):
        return {"name": self.name, "samples": self.samples,
                "max_rel_err": self.max_rel_err, "tolerance": self.tolerance,
                "passed": self.passed, "diagnostics": self.diagnostics}


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


# -- the one-step operator evaluated from a jet ---------------------------------


def one_step_from_jet(n, lam, jet, xi_n):
    """(2*lam - n + 2) d_n u + xi_n * Lap u read off an order-2 jet of u."""
    return (2 * lam - n + 2) * jet.grad[n - 1] + xi_n * jet.laplacian()


def _apply_coeff_table(coeffs, jet):
    total = 0.0
    for alpha, c in coeffs.items():
        if c:
            total = total + c * jet.derivative(alpha)
    return total


# -- seeded sampling -------------------------------------------------------------


#: cube points Stream.direction tries before it rejects the sample
DIRECTION_TRIES = 100


class Stream:
    """The seeded draws of the seeded checks, each built from floats in
    [0, 1) of ``random``: ``random.Random(seed).random``, or any callable
    put in its place."""

    def __init__(self, seed):
        self.random = random.Random(seed).random

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low) * random(): a float, or a list of ``size``."""
        if size is None:
            return low + (high - low) * self.random()
        return [low + (high - low) * self.random() for _ in range(size)]

    def integers(self, low, high):
        """An int in [low, high): low + int((high - low) * random())."""
        return low + int((high - low) * self.random())

    def direction(self, d):
        """A point drawn uniformly from the unit sphere of R^d, as a list:
        x uniform in the cube [-1, 1]^d, kept when 0 < |x|^2 <= 1, over
        sqrt(|x|^2).  Raises SingularPoint when DIRECTION_TRIES cube points
        are all rejected, which rejects the sample in ``_sampled``."""
        for _ in range(DIRECTION_TRIES):
            x = self.uniform(-1.0, 1.0, d)
            q = math.fsum(c * c for c in x)
            if 0.0 < q <= 1.0:
                r = math.sqrt(q)
                return [c / r for c in x]
        raise SingularPoint(f"no cube point of {DIRECTION_TRIES} lay in the unit ball")


def _length(xs):
    """|x| of a short vector: math.fsum rounds the sum of the squares once,
    so its bits depend on no summation order."""
    return math.sqrt(math.fsum(x * x for x in xs))


def sample_bump(rng, n, near_hyperplane=False):
    center = rng.uniform(-0.8, 0.8, n)
    if near_hyperplane:
        center[n - 1] *= 0.3
    width = rng.uniform(0.8, 1.4)
    pre = None
    if rng.uniform() < 0.3:
        i = rng.integers(1, n + 1)
        c = rng.integers(-2, 3)
        # 1 + c xi_i
        pre = {(0,) * n: 1}
        if c:
            pre[tuple(int(j == i) for j in range(1, n + 1))] = c
    return GaussianBump(tuple(center), width, pre)


def _generator(rng, n, kind):
    if kind == 0:
        v = rng.uniform(-1.0, 1.0, n)
        v[n - 1] = 0.0
        return Translation(tuple(v))
    if kind == 1:
        return tangential_rotation(n, rng.uniform(0.0, 2 * math.pi))
    if kind == 2:
        return Dilation(math.exp(rng.uniform(-0.7, 0.7)))
    return Inversion()


def sample_gprime_word(rng, n, force_kind=None):
    """A random hyperplane-preserving word of one to three generators;
    force_kind pins a single generator so every generator type is
    guaranteed coverage."""
    if force_kind is not None:
        return ConformalMap(n, [_generator(rng, n, force_kind)])
    length = rng.integers(1, 4)
    return ConformalMap(n, [_generator(rng, n, rng.integers(0, 4))
                            for _ in range(length)])


#: draws a seeded check may make per requested sample before it gives up
DRAWS_PER_SAMPLE = 10
#: candidate points sample_point_for tries before it rejects the word
POINT_TRIES = 100


def _sampled(name, samples, tol, draw):
    """CheckReport over ``samples`` accepted results of draw(k), k the number
    accepted so far, within DRAWS_PER_SAMPLE * samples draws.  A draw returns
    (err, diagnostic), or rejects its sample by returning None or raising
    SingularPoint; any other exception propagates.  A check left short of
    its samples fails; samples < 1 is refused before any draw."""
    if samples < 1:
        raise ValueError(f"{name}: samples must be >= 1, got {samples}")
    got = []
    for _ in range(DRAWS_PER_SAMPLE * samples):
        if len(got) == samples:
            break
        try:
            out = draw(len(got))
        except SingularPoint:
            continue
        if out is not None:
            got.append(out)
    report = CheckReport.from_errors(name, [e for e, _ in got], tol,
                                     [d for _, d in got])
    if len(got) < samples:
        report.passed = False
        report.diagnostics = (f"accepted {len(got)} of {samples} samples in "
                              f"{DRAWS_PER_SAMPLE * samples} draws")
    return report


def _check_dims(n, **dims):
    """Refuse an input whose dimension is not n: the generators and test
    functions zip coordinates, so a surplus coordinate would be dropped
    without a word."""
    for what, dim in dims.items():
        if dim != n:
            raise ValueError(f"{what} has dimension {dim}, expected n = {n}")


def sample_point_for(rng, g, f, on_hyperplane=False):
    """A point xi where rho_lam(g) f is healthy: xi = g(y) with y inside the
    bump, resampled until no inversion hits its singular guard.  Raises
    SingularPoint when POINT_TRIES candidates all fail, which rejects the
    sample in ``_sampled``."""
    n = f.n
    for _ in range(POINT_TRIES):
        y = [c + u * 0.8 * f.width for c, u in zip(f.center, rng.uniform(-1.0, 1.0, n))]
        if on_hyperplane:
            y[n - 1] = 0.0
        try:
            xi = g.act(tuple(y))
            g.inverse().act_and_factor(xi)
        except SingularPoint:
            continue
        if max(abs(c) for c in xi) > 25.0:
            continue
        xi = tuple(float(c) for c in xi)
        if on_hyperplane:
            xi = xi[:-1] + (0.0,)
        return xi
    raise SingularPoint("could not sample a regular point for this word")


# -- geometric identities ---------------------------------------------------------


def check_factor_vs_jet(n, rng, samples=100, tol=1e-10):
    """Conformal factor (cocycle product) against the stretch |J eta| of the
    jet-based Jacobian J of the image, eta drawn uniformly from the unit
    sphere of R^n."""
    def draw(_):
        g = sample_gprime_word(rng, n)
        xi = tuple(rng.uniform(-2.0, 2.0, n))
        k = g.act_and_factor(xi)[1]
        jac = [c.grad for c in g.act(coordinate_jets(xi, 1))]
        eta = rng.direction(n)
        stretch = _length([math.fsum(a * e for a, e in zip(row, eta)) for row in jac])
        return rel_err(stretch, k), f"xi={xi}"

    return _sampled(f"factor_vs_jet_n{n}", samples, tol, draw)


def check_mult_intertwining(n, rng, samples=50, tol=1e-12):
    """xi_n * rho_lam(g) f = rho_(lam-1)(g) (xi_n f), pointwise."""
    def draw(_):
        lam = rng.uniform(-1.5, 2.5)
        g = sample_gprime_word(rng, n)
        f = sample_bump(rng, n)
        xi = sample_point_for(rng, g, f)
        lhs = xi[n - 1] * PulledBack(lam, g, f).value(xi)
        rhs = PulledBack(lam - 1, g, f.times_coordinate(n - 1)).value(xi)
        return rel_err(lhs, rhs), f"lam={lam}, xi={xi}"

    return _sampled(f"mult_intertwining_n{n}", samples, tol, draw)


def geometry_suite(n, rng):
    return [check_factor_vs_jet(n, rng), check_mult_intertwining(n, rng)]


# -- covariance of the operator families ------------------------------------------


def check_covariance_one_step(n, rng, samples=50, tol=1e-9):
    """(one-step at lam) o rho_lam(g) = rho_(lam+1)(g) o (one-step at lam)
    for hyperplane-preserving g, evaluated through jets on both sides.  The
    one-step operator reads a jet's gradient and Laplacian only, so the jets
    are pure (see ``covop.jets``)."""
    def draw(made):
        # the first four samples pin one generator type each
        force = made if made < 4 else None
        lam = rng.uniform(-1.5, 2.5)
        g = sample_gprime_word(rng, n, force_kind=force)
        f = sample_bump(rng, n)
        xi = sample_point_for(rng, g, f)
        uj = PulledBack(lam, g, f).jet(xi, 2, pure=True)
        lhs = one_step_from_jet(n, lam, uj, xi[n - 1])
        zeta, k = g.inverse().act_and_factor(xi)
        fj = f.jet(zeta, 2, pure=True)
        rhs = k ** (lam + 1) * one_step_from_jet(n, lam, fj, zeta[n - 1])
        return (rel_err(lhs, rhs),
                f"lam={lam}, word={[type(w).__name__ for w in g.word]}, xi={xi}")

    return _sampled(f"covariance_one_step_n{n}", samples, tol, draw)


def _restricted_table(n, N):
    """The restricted iterated family as {alpha: [(lam_deg, int)]}: with the
    tangential coefficients a_m of ``juhl_coeffs``, d^(2m', N - 2m) has the
    coefficient multinomial(m') * a_m, |m'| = m, lam-degrees ascending.  The
    m' come in ascending order, each prefix of ``lap_prime_prefixes`` closed
    with the last entry m - p and weight w * C(m, p).  On R^1 there is no
    Lap', and only a_0 remains, at d_n^N."""
    coeffs = juhl_coeffs(n, N)
    if n == 1:
        return {(N,): [(deg, c) for deg, c in enumerate(coeffs[0]) if c]}
    table = {}
    for m, a in enumerate(coeffs):
        terms = [(deg, c) for deg, c in enumerate(a) if c]
        for head, p, w in lap_prime_prefixes(n, m):
            w *= math.comb(m, p)
            alpha = tuple(2 * x for x in head) + (2 * (m - p), N - 2 * m)
            table[alpha] = [(deg, w * c) for deg, c in terms]
    return table


def check_covariance_iterated(n, N, rng, samples=20, tol=1e-8):
    """Restricted iterated family: res E(rho_lam(g) f) against the weight
    lam+N action of the induced hyperplane map on res E f."""
    if N > 4:
        raise ValueError("numeric iterated covariance is capped at N = 4")
    restricted = _restricted_table(n, N)

    def draw(_):
        lam = rng.uniform(-1.5, 2.5)
        # c * lam * ... * lam summed in order of ascending lam-degree
        coeffs = {alpha: sum(math.prod((c,) + (lam,) * deg) for deg, c in terms)
                  for alpha, terms in restricted.items()}
        g = sample_gprime_word(rng, n)
        f = sample_bump(rng, n, near_hyperplane=True)
        xi = sample_point_for(rng, g, f, on_hyperplane=True)
        uj = PulledBack(lam, g, f).jet(xi, N)
        lhs = _apply_coeff_table(coeffs, uj)
        gp = g.restrict_to_hyperplane()
        zeta_p, kp = gp.inverse().act_and_factor(xi[:-1])
        fj = f.jet(zeta_p + (0.0,), N)
        rhs = kp ** (lam + N) * _apply_coeff_table(coeffs, fj)
        return (rel_err(lhs, rhs),
                f"lam={lam}, word={[type(w).__name__ for w in g.word]}, xi={xi}")

    return _sampled(f"covariance_iterated_n{n}_N{N}", samples, tol, draw)


# -- Knapp-Stein intertwining ------------------------------------------------------


def _bump_image(func):
    """(bump, center, k, weight) for a Gaussian bump, and for its pullback
    kappa(g^-1, xi)^lam bump(g^-1 xi) under an affine word g: the bump, the
    image g(c) of its center, the word's factor k = k_g(c), and the weight
    kappa(g^-1, g(c))^lam, a constant.  An affine g maps the bump's balls
    about c to balls about g(c) scaled by k, and a bump without a prefactor
    to the bump of center g(c) and width w k times the weight.  A bump is its
    own image: (func, c, 1.0, 1.0).  None for any other function."""
    if isinstance(func, GaussianBump):
        return func, func.center, 1.0, 1.0
    if (isinstance(func, PulledBack) and isinstance(func.f, GaussianBump)
            and func.g.is_affine()):
        image, k = func.g.act_and_factor(func.f.center)
        return func.f, image, k, func.g_inv.act_and_factor(image)[1] ** func.lam
    return None


def _elementwise(op, reflected=False):
    """The Batch method of the binary float operator op: with a Batch of
    the same length element by element, with an int or a float (the left
    operand when reflected) against every element."""
    def method(self, other):
        if isinstance(other, Batch):
            if len(other.values) != len(self.values):
                raise ValueError("batches of different lengths")
            return Batch(list(map(op, self.values, other.values)))
        if not isinstance(other, (int, float)):
            return NotImplemented
        if reflected:
            return Batch(list(map(op, itertools.repeat(other), self.values)))
        return Batch(list(map(op, self.values, itertools.repeat(other))))

    return method


class Batch:
    """A list of floats that the generic formulas of ``covop.conformal``
    evaluate at once: + - * / (either side a Batch, an int or a float),
    unary -, ** by an int or a float, and exp() apply the float operation to
    every element, so each element has the bits of the scalar evaluation.
    Anything else raises TypeError: there is no float(), no comparison and
    no truth value, so a scalar-only step, such as the inversion's guard,
    fails loudly on a batch instead of deciding for all its elements."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    __add__ = _elementwise(operator.add)
    __radd__ = _elementwise(operator.add, reflected=True)
    __sub__ = _elementwise(operator.sub)
    __rsub__ = _elementwise(operator.sub, reflected=True)
    __mul__ = _elementwise(operator.mul)
    __rmul__ = _elementwise(operator.mul, reflected=True)
    __truediv__ = _elementwise(operator.truediv)
    __rtruediv__ = _elementwise(operator.truediv, reflected=True)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            return NotImplemented
        return Batch(list(map(operator.pow, self.values, itertools.repeat(p))))

    def __neg__(self):
        return Batch(list(map(operator.neg, self.values)))

    def exp(self):
        return Batch(list(map(math.exp, self.values)))

    def _scalar_only(self, *_):
        raise TypeError("a Batch has elementwise arithmetic and exp() only")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _scalar_only


#: tanh-sinh nodes lie at t = k h on [-DE_T_MAX, DE_T_MAX]: level 0 has h = 1,
#: each further level halves h and adds only the new (odd) nodes.  At
#: |t| = DE_T_MAX the node is ~1e-275 (relative) from its endpoint, so an
#: integrable endpoint singularity |x - a|^s, s > -1, is resolved past double
#: precision without the distance underflowing to 0.
DE_T_MAX = 6
#: the last level tried: 12 * 2**DE_MAX_LEVEL + 1 nodes in all
DE_MAX_LEVEL = 8
#: the least quad_tol a level difference can certify: 50 ulps, as QUADPACK
DE_ROUNDING_FLOOR = 50 * sys.float_info.epsilon


@functools.cache
def _de_level(level):
    """The nodes tanh-sinh level ``level`` adds on [-1, 1], in ascending
    order, as two tuples (das, ws): da is a node's distance to -1 (exact to
    rounding however near -1 the node is), and w is dx/dt there, from both
    distances, to -1 and to 1.  The estimate at a level is h times the sum
    of w * f over the nodes of that level and every level before it."""
    h = 2.0 ** -level
    if level == 0:
        ts = [float(t) for t in range(-DE_T_MAX, DE_T_MAX + 1)]
    else:
        right = [k * h for k in range(1, DE_T_MAX * 2 ** level, 2)]
        ts = [-t for t in reversed(right)] + right
    das, ws = [], []
    for t in ts:
        u = 0.5 * math.pi * math.sinh(t)
        da = 2.0 / (1.0 + math.exp(-2.0 * u))
        db = 2.0 / (1.0 + math.exp(2.0 * u))
        das.append(da)
        # dx/dt = (pi/2) cosh t / cosh^2 u, and 1/cosh^2 u = (1 + tanh u)(1 - tanh u)
        ws.append(0.5 * math.pi * math.cosh(t) * da * db)
    return tuple(das), tuple(ws)


def _de_quad(integrand, b, quad_tol):
    """int_0^b by double-exponential (tanh-sinh) quadrature, level by level
    (Takahasi-Mori, Double exponential formulas for numerical integration,
    Publ. RIMS 9, 1974).

    integrand(d) takes the nodes one level adds, all at once, as the list d
    of their distances to 0 (the nodes themselves, exact to rounding however
    near 0 they are, so a factor singular at 0 costs no accuracy), and
    returns a list of the integrand's values there, one per node in the same
    order.  Each level's estimate is the math.fsum of w * f over every node
    so far, so it depends on no summation order, nor on how the integrand
    evaluates a level.
    Stops when two successive levels agree within quad_tol * max(1, b, |I|),
    the epsabs/epsrel pair of QUADPACK with epsabs = quad_tol * max(1, b);
    raises QuadratureBudgetExceeded when DE_MAX_LEVEL is reached first, or
    at once for a quad_tol below DE_ROUNDING_FLOOR, where two levels can
    agree to the last bit without either being that accurate."""
    if not quad_tol >= DE_ROUNDING_FLOOR:
        raise QuadratureBudgetExceeded(
            f"quad_tol {quad_tol:g} is below the rounding floor {DE_ROUNDING_FLOOR:.3g}")
    half = 0.5 * b
    scale = max(1.0, b)
    parts = []
    cur = diff = math.inf
    for level in range(DE_MAX_LEVEL + 1):
        das, ws = _de_level(level)
        values = integrand([half * da for da in das])
        parts += [w * f for w, f in zip(ws, values, strict=True)]
        prev, cur = cur, half * 2.0 ** -level * math.fsum(parts)
        diff = abs(cur - prev)
        if diff <= quad_tol * max(scale, abs(cur)):
            return cur
    raise QuadratureBudgetExceeded(
        f"levels {DE_MAX_LEVEL - 1} and {DE_MAX_LEVEL} differ by {diff:.3g} "
        f"on [0, {b:g}]")


#: the largest |x - c|^2 / w^2 at which e^(-z) is a normal float, so the
#: first term of ``_scaled_kummer`` keeps full precision
KUMMER_Z_MAX = 700.0


def _scaled_kummer(a, b, z):
    """e^(-z) M(a, b, z), Kummer's M(a, b, z) = sum_k (a)_k / (b)_k z^k / k!,
    for a, b > 0 and 0 <= z <= KUMMER_Z_MAX.  The terms carry e^(-z) from
    the first one on, so none exceeds the result and none overflows.  Every
    term is positive, so their math.fsum is the sum to rounding.  It stops
    at the first term t_k below 2^-56 of the sum so far with
    rho = max(1, (a + k)/(b + k)) z/(k + 1) at most 1/2: no later ratio of
    terms exceeds rho, so the tail is at most t_k."""
    if not 0.0 <= z <= KUMMER_Z_MAX:
        raise ValueError(f"the Kummer series is summed for 0 <= z <= {KUMMER_Z_MAX:g}, "
                         f"got z = {z:g}")
    term = total = math.exp(-z)
    terms = [term]
    k = 0
    while True:
        term *= (a + k) * z / ((b + k) * (k + 1))
        terms.append(term)
        total += term
        k += 1
        if (max(1.0, (a + k) / (b + k)) * z <= 0.5 * (k + 1)
                and term <= 2.0 ** -56 * total):
            return math.fsum(terms)


def knapp_stein_value(n, lam, func, point, quad_tol=1e-6):
    """(1/Gamma(lam - n/2)) * int |point-eta|^(2 lam - 2 n) func(eta) d eta
    over R^n, lam > n/2: the convolution with the kernel h_(2 lam - 2n) of
    ``covop.symbolcalc``, h_s = |x|^s / Gamma((n + s)/2), whose Fourier
    transform is ``symbolcalc.knapp_stein_symbol`` (``check_ks_symbol_bridge``
    ties the two normalizations).  func is a Gaussian bump or an affine
    pullback of one (``_bump_image``).

    A Gaussian bump without a prefactor, of center c and width w, has it in
    closed form for every n: with z = |point - c|^2 / w^2,
    w^(2 lam - n) pi^(n/2) / Gamma(n/2) * e^(-z) M(lam - n/2, n/2, z) (see
    ``_scaled_kummer``), from
    int |x - y|^(-2a) e^(-|y|^2) dy = pi^(n/2) Gamma(n/2 - a) / Gamma(n/2)
    * M(a, n/2, -|x|^2) and Kummer's transformation (DLMF 13.2.39); the
    1/Gamma(lam - n/2) cancels.  At n >= 2 an affine pullback of such a bump
    is the bump of center g(c) and width w k times a weight, and takes the
    same closed form; no other function is accepted there.

    At n = 1 a pullback, or a bump with a prefactor, is integrated by
    double-exponential quadrature (Takahasi-Mori 1974; see ``_de_quad``),
    quad_tol its tolerance: the two sides of the point fold onto
    d = |point - eta| in [0, radius], where the radius reaches 1 past the
    ball of radius r0 k about g(c), r0 the bump's effective radius, seen from
    the point, so the ball holds the integrand mass up to the Gaussian tail.
    The fold takes a level's distances d as one ``Batch``, so func's word
    and formulas are walked once per level, not once per node; each value
    has the bits of the node-by-node walk.  Raises QuadratureBudgetExceeded
    when the rule runs out of levels."""
    if not (lam > n / 2):
        raise ValueError("absolute convergence needs lam > n/2")
    point = tuple(point)
    image = _bump_image(func)
    if image is None or (n > 1 and image[0].prefactor is not None):
        raise ValueError("the Knapp-Stein value is taken of a Gaussian bump or an affine "
                         "pullback of one, and at n >= 2 only without a prefactor")
    bump, center, k, weight = image
    _check_dims(n, point=len(point), function=len(center))
    if n == 1 and (isinstance(func, PulledBack) or bump.prefactor is not None):
        x = point[0]
        s = 2.0 * lam - 2.0
        value = func.eval_generic

        def folded(d):
            d = Batch(d)
            return (d ** s * (value([x + d]) + value([x - d]))).values

        radius = abs(x - center[0]) + bump.effective_radius(1e-18) * k + 1.0
        return _de_quad(folded, radius, quad_tol) / math.gamma(lam - 0.5)
    width = bump.width * k
    z = math.fsum((p - c) * (p - c) for p, c in zip(point, center)) / (width * width)
    return (weight * width ** (2.0 * lam - n) * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
            * _scaled_kummer(lam - n / 2.0, n / 2.0, z))


def check_ks_intertwining(n, lam, g, f, rng, samples=5, quad_tol=1e-6, tol=1e-5):
    """Convolution intertwiner applied to the twisted pullback against the
    weight n-lam pullback of the transformed function, at points drawn
    uniformly from [-1, 1]^n.  The right side is the closed form of the
    bump f at g^-1(xi) (see ``knapp_stein_value``).  The left side is a
    quadrature at n = 1, so each report compares a quadrature with a closed
    form; at n >= 2 it is the closed form of the pulled-back bump, whose
    center g(c), width w k_g(c) and weight come from the word, so the report
    checks the word's action and conformal factor against its inverse.  The
    report is named after n, lam and the generator word of g, e.g.
    ``ks_intertwining_n1_lam0.8_dilation``."""
    _check_dims(n, word=g.n, function=f.n)
    pulled = PulledBack(lam, g, f)
    word = "_".join(type(w).__name__.lower() for w in g.word) or "identity"

    def draw(_):
        xi = tuple(rng.uniform(-1.0, 1.0, n))
        lhs = knapp_stein_value(n, lam, pulled, xi, quad_tol)
        zeta, k = g.inverse().act_and_factor(xi)
        rhs = k ** (n - lam) * knapp_stein_value(n, lam, f, zeta, quad_tol)
        return rel_err(lhs, rhs), f"lam={lam}, xi={xi}"

    return _sampled(f"ks_intertwining_n{n}_lam{lam:g}_{word}", samples, tol, draw)


# -- the symbol against the space side ----------------------------------------------


def check_ks_symbol_bridge(n, tol=1e-13):
    """The Fourier symbol C(lam) h_s of ``symbolcalc.knapp_stein_symbol``
    against the space side ``knapp_stein_value``, at the center 0 of
    f = exp(-|xi|^2 / w^2), w = 1.1, for lam = 0.6 n, 0.75 n and 0.9 n in
    (n/2, n), with s = s_const + s_lam lam read off the symbol's one term.
    With fhat(eta) = pi^(n/2) w^n exp(-w^2 |eta|^2 / 4) and polar
    coordinates, the symbol applied to f is, at 0,
    (2 pi)^-n int C h_s fhat d eta = (2 pi)^-n C / Gamma((n+s)/2)
    * pi^(n/2) w^n * pi^(n/2) Gamma((n+s)/2) / (Gamma(n/2) (w^2/4)^((n+s)/2)),
    and the space side is the closed form of the bump.  Both sides are
    closed forms, so a wrong constant or sign of either normalization fails
    the report, and so does a wrong kernel index, as w != 2.  The term's
    shape (no eta_n power, no derivative) is ``check_ks_inversion``'s; a
    symbol that is not one term with a real coefficient fails the report."""
    name = f"ks_symbol_bridge_n{n}"
    lams = (0.6 * n, 0.75 * n, 0.9 * n)
    try:
        ((_, s_const, s_lam, _), c), = symbolcalc.knapp_stein_symbol(n).terms.items()
        cs = [c.at(lam) for lam in lams]
    except ValueError as exc:
        return CheckReport(name, len(lams), math.inf, tol, False, str(exc))
    w = 1.1
    f = GaussianBump((0.0,) * n, w)
    errs = []
    for lam, c_lam in zip(lams, cs):
        a = (n + float(s_const) + float(s_lam) * lam) / 2.0
        fourier = ((2.0 * math.pi) ** -n * c_lam / math.gamma(a)
                   * math.pi ** (n / 2.0) * w ** n
                   * math.pi ** (n / 2.0) * math.gamma(a)
                   / (math.gamma(n / 2.0) * (w * w / 4.0) ** a))
        errs.append(rel_err(fourier, knapp_stein_value(n, lam, f, (0.0,) * n)))
    return CheckReport.from_errors(name, errs, tol, [f"lam={lam}" for lam in lams])


# -- ambient-space checks ---------------------------------------------------------------


def dalembertian(jet, n):
    """Box F = F_tt - sum_j F_(x_j x_j) from an order-2 ambient jet
    (variables ordered t, x_0, ..., x_n)."""
    diag = jet.hessian_diagonal()
    return diag[0] - sum(diag[1:])


def chart_family(n, lam, f):
    """The degree -lam homogeneous ambient function built from a test
    function on R^n: (t+x_0)^(-lam) f(x_1/(t+x_0), ..., x_n/(t+x_0))."""

    def F(coords):
        u = coords[0] + coords[1]
        args = [c / u for c in coords[2:]]
        return u ** (-lam) * f.eval_generic(args)

    return F


def sphere_parts(coords):
    """(|x|^2, x/|x|) of the ambient coords (t, x_0, ..., x_n), computed once
    for every extension evaluated at the same coords."""
    q = _norm_sq(coords[1:])
    r = q ** 0.5
    return q, [c / r for c in coords[1:]]


def homogeneous(q, degree, value):
    """|x|^degree * f(x/|x|) from q = |x|^2 and value = f(x/|x|): the one
    formula of every degree-homogeneous extension of a sphere function."""
    return q ** (degree / 2.0) * value


def sphere_extension(n, f_sphere, degree):
    """t-independent extension |x|^degree * f(x/|x|) of a sphere function
    (f_sphere takes the n+1 components of x/|x|).  The extension F(coords,
    parts) takes the ``sphere_parts(coords)`` shared with other extensions,
    or computes them when parts is None."""

    def F(coords, parts=None):
        q, args = sphere_parts(coords) if parts is None else parts
        return homogeneous(q, degree, f_sphere(args))

    return F


def ambient_operator(mu, Fj, coords, n):
    """B_mu F = x_n Box F - 2 mu dF/dx_n at the base point of the coords,
    from the order-2 jet Fj = F(coords)."""
    xn = coords[n + 1].value
    return xn * dalembertian(Fj, n) - 2.0 * mu * Fj.grad[n + 1]


def check_ambient_noncompact(n, lam, f, rng, samples=30, tol=1e-9):
    """The ambient operator at weight lam - n/2 + 1, pushed through the
    stereographic chart (including the chart weight lam+1), against minus the
    one-step operator on R^n, at points drawn uniformly from [-1.2, 1.2]^n.
    Both operators read no mixed partial, so the jets are pure."""
    _check_dims(n, function=f.n)
    mu = lam - n / 2.0 + 1.0
    F = chart_family(n, lam, f)

    def draw(_):
        xi = tuple(rng.uniform(-1.2, 1.2, n))
        x, kc = stereographic(xi)
        coords = coordinate_jets((1.0,) + x, 2, pure=True)
        bval = ambient_operator(mu, F(coords), coords, n)
        lhs = kc ** (lam + 1.0) * bval
        fj = f.jet(xi, 2, pure=True)
        rhs = -one_step_from_jet(n, lam, fj, xi[n - 1])
        return rel_err(lhs, rhs), f"lam={lam}, xi={xi}"

    return _sampled(f"ambient_noncompact_n{n}_lam{lam:g}", samples, tol, draw)


def _conjugated_yamabe(mu, xn, box, f):
    """x_n |x_n|^(-mu) Box(|x_n|^mu F) + mu(mu-1) F / x_n at a point, from
    the values xn, box = Box(|x_n|^mu F) and f = F there."""
    return xn * abs(xn) ** (-mu) * box + mu * (mu - 1.0) / xn * f


def check_weight_conjugation(n, rng, samples=20, tol=1e-9):
    """B_mu F = x_n |x_n|^(-mu) Box(|x_n|^mu F) + mu(mu-1) F / x_n for smooth
    ambient F and x_n != 0 (direct two-route jet evaluation, on pure jets:
    both routes read the value, gradient and d'Alembertian only)."""
    def draw(_):
        mu = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(-1.0, 2.0)
        f = sample_bump(rng, n)
        F = chart_family(n, lam, f)
        t = rng.uniform(0.6, 1.6)
        x = rng.uniform(-0.8, 0.8, n + 1)
        x[0] = max(x[0], 0.4 - t)  # keep t + x_0 away from the family's singular set
        if abs(x[n]) < 0.15:
            x[n] = 0.4
        coords = coordinate_jets((t,) + tuple(x), 2, pure=True)
        Fj = F(coords)
        lhs = ambient_operator(mu, Fj, coords, n)
        xn = coords[n + 1]
        Gj = (xn * xn) ** (mu / 2.0) * Fj
        rhs = _conjugated_yamabe(mu, xn.value, dalembertian(Gj, n), Fj.value)
        return rel_err(lhs, rhs), f"mu={mu}, t={t}, x={tuple(x)}"

    return _sampled(f"weight_conjugation_n{n}", samples, tol, draw)


def check_yamabe_constant(n, rng, samples=20, tol=1e-10):
    """The conformal Laplacian of the constant function: Box of the degree
    -(n/2-1) extension of 1 equals n(n-2)/4 on the sphere, read off a pure
    jet."""
    F = sphere_extension(n, lambda args: 1.0, -(n / 2.0 - 1.0))
    expected = n * (n - 2) / 4.0

    def draw(_):
        x = tuple(rng.direction(n + 1))
        coords = coordinate_jets((1.0,) + x, 2, pure=True)
        got = dalembertian(F(coords), n)
        return abs(got - expected) / max(1.0, abs(expected)), f"x={x}"

    return _sampled(f"yamabe_constant_n{n}", samples, tol, draw)


def check_ambient_compact(n, lam, fs, rng, samples=20, tol=1e-8):
    """Three routes to the same value at x = c(xi) on the sphere, for xi drawn
    uniformly from [-1, 1]^n and kept when |x_n| >= 0.15 and 1 + x_0 >= 0.4,
    for a sphere function fs of the n+1 components of x (floats or jets):

    A. the ambient operator on the degree -lam extension of the sphere
       function (jets on the light cone section t = 1);
    B. the conjugated-Yamabe formula
       x_n |x_n|^(-mu) Delta_S(|x_n|^mu f) + mu(mu-1) f / x_n,
       with Delta_S realized by Box on the degree -(n/2-1) extension;
    C. minus the one-step operator on the chart transport of f, mapped back
       with the chart weight.

    No route reads a mixed partial, so the jets are pure; A and B share one
    |x|^2, x/|x| and f(x/|x|), and extend through ``homogeneous`` as
    ``sphere_extension`` does.
    """
    mu = lam - n / 2.0 + 1.0

    def draw(_):
        xi = tuple(rng.uniform(-1.0, 1.0, n))
        x, kc = stereographic(xi)
        if abs(x[n]) < 0.15 or 1.0 + x[0] < 0.4:
            return None
        coords = coordinate_jets((1.0,) + x, 2, pure=True)
        q, args = sphere_parts(coords)
        f_val = fs(args)
        a_val = ambient_operator(mu, homogeneous(q, -lam, f_val), coords, n)

        # conjugated Yamabe route, on the degree -(n/2-1) extension of
        # |x_n|^mu f
        h_val = (args[n] * args[n]) ** (mu / 2.0) * f_val
        b_ext = homogeneous(q, -(n / 2.0 - 1.0), h_val)
        b_val = _conjugated_yamabe(mu, x[n], dalembertian(b_ext, n), fs(x))

        # chart transport route
        y, kj = stereographic(coordinate_jets(xi, 2, pure=True))
        fnc = kj ** lam * fs(y)
        c_val = -(kc ** (-(lam + 1.0))) * one_step_from_jet(n, lam, fnc, xi[n - 1])

        err = max(rel_err(a_val, b_val), rel_err(a_val, c_val), rel_err(b_val, c_val))
        return err, f"lam={lam}, xi={xi}"

    return _sampled(f"ambient_compact_n{n}_lam{lam:g}", samples, tol, draw)


def check_extension_independence(n, rng, samples=20, tol=1e-9):
    """Box F restricted to the positive light cone does not depend on the
    choice of degree -(n/2-1) homogeneous extension.

    Compares the t-independent extension, a t-homogeneous one, and one
    shifted by Q * (homogeneous of degree -(n/2)-1); each extension's
    homogeneity is certified through the Euler identity, and a residual of
    that identity above 1e-10, or NaN, at any sample fails the report.  Both
    identities read the value, gradient and d'Alembertian only, so the jets
    are pure, and the extensions share one |x|^2 and x/|x| per sample.
    """
    d = n / 2.0 - 1.0

    def gs(args):
        return args[0] + 2 * args[n]

    def fs(args):
        return args[0] * args[0] + 0.5 * args[n] + 1.0

    F1 = sphere_extension(n, fs, -d)
    G = sphere_extension(n, gs, -(d + 2.0))

    euler = 0.0  # the largest Euler residual of any extension at any sample

    def draw(_):
        nonlocal euler
        x = rng.direction(n + 1)
        radius = rng.uniform(0.6, 1.8)
        xs = [radius * c for c in x]
        t = _length(xs)
        coords = coordinate_jets([t] + xs, 2, pure=True)
        parts = sphere_parts(coords)
        q, tt = parts[0], coords[0] * coords[0]
        F1j = F1(coords, parts)
        jets = [F1j,
                # t-dependent: t^2/|x|^2 is 0-homogeneous and equals 1 on the cone
                tt / q * F1j,
                # shifted by Q G, where Q = t^2 - |x|^2 vanishes on the cone
                F1j + (tt - q) * G(coords, parts)]
        for Fj in jets:
            e = t * Fj.grad[0] + sum(xs[i] * Fj.grad[i + 1] for i in range(n + 1))
            r = abs(e - (-d) * Fj.value) / max(1.0, abs(Fj.value))
            # a NaN residual is kept: max(euler, nan) would drop it
            euler = r if math.isnan(r) else max(euler, r)
        boxes = [dalembertian(Fj, n) for Fj in jets]
        err = max(rel_err(boxes[0], boxes[1]), rel_err(boxes[0], boxes[2]))
        return err, f"t={t}, x={tuple(xs)}"

    report = _sampled(f"extension_independence_n{n}", samples, tol, draw)
    if not euler <= 1e-10:
        report.passed = False
        report.diagnostics = (f"Euler homogeneity identity residual {euler:.3g} "
                              "exceeds 1e-10")
    return report


# -- suites ------------------------------------------------------------------------


def _exact_report(name, cases, holds, text):
    """Report of an exact identity over ``cases``: max_rel_err counts the
    cases where ``holds(*case)`` is false."""
    bad = sum(0 if holds(*case) else 1 for case in cases)
    return CheckReport(name, len(cases), float(bad), 0.0, bad == 0, text)


def _compose_first_factor(N):
    """Order N at lam + 1, which is u -> u + 2, composed on the left of the
    first factor (u + 2) P + X L, in the reduced basis: order N + 1 built
    from the other side than the closed form's induction.  Normal order uses
    P^j L^k X = X P^j L^k + j P^(j-1) L^k + 2k P^(j+1) L^(k-1), so the key
    (i, j + 1, k) takes (u + 2) + 2k = u + 2k + 2 times the shifted c.
    Every coefficient in u is positive, so a sum has no trailing zero."""
    out = {}
    for (i, j, k), c in _reduced_iterated(N).items():
        c = substitute(c, 1, 2)
        for key, q in (((i, j + 1, k), pmul((2 * k + 2, 1), c)),
                       ((i + 1, j, k + 1), c),
                       ((i, j - 1, k + 1), pmul((j,), c) if j else ())):
            if q:
                out[key] = padd(out.get(key, ()), q)
    return {key: tuple(c) for key, c in out.items()}


def _within(ns, n_min, n_max):
    """The n of ``ns`` in n_min..n_max, in their order."""
    return [n for n in ns if n_min <= n <= n_max]


def suite_symbolic(n_min=1, n_max=8):
    def hat_involution(n, a, b):
        # kernel hat rule applied twice returns (2 pi)^n times the original
        c1, s1c, s1l = symbolcalc.hat_kernel(n, a, b)
        c2, s2c, s2l = symbolcalc.hat_kernel(n, s1c, s1l)
        expect = symbolcalc.SymCoeff(1, two_a=n, pi_half=2 * n)
        return c1 * c2 == expect and (s2c, s2l) == (a, b)

    def leading_closed_form(n, N):
        # juhl_coeffs raises when it builds an entry whose a_0 is off the
        # closed form; a cached entry is compared here
        try:
            return juhl_coeffs(n, N)[0] == juhl.leading_coeff(n, N)
        except RuntimeError:
            return False

    # the reduced basis is in u = 2 lam - n, so the checks below compare in
    # u and the n of their case does not enter

    def power_constant(_, N):
        # Lap acts on a function of xi_n alone as d_n^2, so X^i P^j L^k takes
        # xi_n^N to N!/(N-j-2k)! xi_n^(i+N-j-2k); math.perm is 0 past N
        got = {}
        for (i, j, k), c in _reduced_iterated(N).items():
            drop = j + 2 * k
            factor = math.perm(N, drop)
            for deg, x in enumerate(c):
                key = (deg, i + N - drop)
                got[key] = got.get(key, 0) + x * factor
        want = enumerate(_leading_product(N))
        return ({key: c for key, c in got.items() if c}
                == {(deg, 0): math.factorial(N) * c for deg, c in want if c})

    def zero_residual(_, N):
        # every term of the order-N family has weight j + 2k - i = N, so its
        # i = 0 part, the restriction, is a sum of c P^j L^k with j + 2k = N,
        # which with L = Lap' + P^2 lies in the span of P^(N-2m) Lap'^m
        return all(j + 2 * k - i == N for i, j, k in _reduced_iterated(N))

    def shift_consistent(_, N):
        return _compose_first_factor(N) == _reduced_iterated(N + 1)

    ns = _within(range(1, 9), n_min, n_max)
    pairs = ((0, 2), (-1, -2), (Fraction(3, 2), 1))
    grid = [(n, N) for n in _within(range(2, 7), n_min, n_max) for N in range(1, 11)]
    small = [(n, N) for n in _within((2, 3), n_min, n_max) for N in (1, 2, 3)]
    checks = [
        ("symbol_factorization", [(n,) for n in ns],
         symbolcalc.check_factorization, f"exact identity for n in {ns}"),
        ("kernel_hat_involution", [(n, *ab) for n in ns for ab in pairs],
         hat_involution, "double transform bookkeeping"),
        ("juhl_leading_coeff", grid, leading_closed_form,
         "closed form of a_0, full grid"),
        ("iterated_power_constant", grid, power_constant,
         "N-fold drop of xi_n^N, full grid"),
        ("tangential_zero_residual", grid, zero_residual,
         "restricted family lies in the tangential span"),
        ("shift_consistency", small, shift_consistent,
         "parameter shift composes correctly"),
    ]
    # a check with no case in the range is left out, as the seeded suites do
    return [_exact_report(*check) for check in checks if check[1]]


def suite_numeric(seed=0, n_min=1, n_max=8):
    rng = Stream(seed)
    reports = []
    for n in _within((2, 3), n_min, n_max):
        reports.extend(geometry_suite(n, rng))
    for n in _within((2, 3), n_min, n_max):
        reports.append(check_covariance_one_step(n, rng))
    for n in _within((2, 3), n_min, n_max):
        for N in (1, 2, 3):
            reports.append(check_covariance_iterated(n, N, rng))
    for n in _within((1, 2), n_min, n_max):
        f = GaussianBump((0.3,) * n, 1.1)
        maps = [ConformalMap(n, [Dilation(2.0)]),
                ConformalMap(n, [Translation((0.4,) * n)])]
        if n >= 2:
            maps.append(ConformalMap(n, [Rotation(2, math.cos(0.7), math.sin(0.7))]))
        else:
            maps.append(ConformalMap(n, [Dilation(0.5), Translation((-0.3,))]))
        for lam in (0.8 * n, 1.1 * n):
            for g in maps:
                reports.append(check_ks_intertwining(n, lam, g, f, rng))
    for n in _within((1, 2, 3, 4), n_min, n_max):
        reports.append(check_ks_symbol_bridge(n))
    for n in _within((1, 2, 3, 4), n_min, n_max):
        reports.append(_exact_report(
            f"ks_inversion_symbol_n{n}", [(n,)], symbolcalc.check_ks_inversion,
            "exact identity: symbols at lam and n-lam compose to "
            "pi^n/(Gamma(lam)Gamma(n-lam))"))
    return reports


def suite_ambient(seed=0, n_min=1, n_max=8):
    rng = Stream(seed)
    reports = []
    for n in _within((2, 3, 4), n_min, n_max):
        f = sample_bump(rng, n)
        lam = rng.uniform(0.3, 1.5)
        reports.append(check_ambient_noncompact(n, lam, f, rng))
        reports.append(check_weight_conjugation(n, rng))
        reports.append(check_yamabe_constant(n, rng))
        reports.append(check_extension_independence(n, rng))
    for n in _within((3, 4), n_min, n_max):
        reports.append(check_ambient_compact(
            n, 1.2, lambda x: x[0] * x[n] + x[1] * x[1] + 0.5, rng))
    return reports


SUITES = ("symbolic", "numeric", "ambient", "all")


def run_suites(which="all", seed=0, n_min=None, n_max=None):
    """Reports of the chosen suites over n_min <= n <= n_max (None: 1 and 8);
    empty when no check of those suites covers an n in the range.  A
    ``which`` outside SUITES raises ValueError."""
    if which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; choose one of "
                         f"{', '.join(SUITES)}")
    n_min = 1 if n_min is None else n_min
    n_max = 8 if n_max is None else n_max
    reports = []
    if which in ("symbolic", "all"):
        reports.extend(suite_symbolic(n_min, n_max))
    if which in ("numeric", "all"):
        reports.extend(suite_numeric(seed, n_min, n_max))
    if which in ("ambient", "all"):
        reports.extend(suite_ambient(seed, n_min, n_max))
    return reports
