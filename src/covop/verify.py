"""Numerical verification of the analytic identities behind the operator
families: covariance under hyperplane-preserving conformal maps, intertwining
of the convolution operators by quadrature, the kernel Fourier pairing, and
the ambient (light-cone) realization.

Every check returns a CheckReport.  Derivatives are taken with jets (exact to
rounding).  Integrals are taken by double-exponential (tanh-sinh) quadrature,
batched per level (Takahasi-Mori, Publ. RIMS 9, 1974): each level evaluates
all its new nodes in one call of the integrand, which also receives the
nodes' distances to both endpoints, so the algebraic endpoint singularities
of the convolution kernels cost no accuracy.  Quadrature-backed checks carry
their own truncation/tolerance budget, and all sampling is seeded, so suite
runs are reproducible.  Every seeded check takes an rng and a sample count,
and draws each sample (points and parameters alike) inside one bounded
sampler, ``_sampled``: it makes at most DRAWS_PER_SAMPLE draws per requested
sample, and a check that accepts fewer samples than it asked for fails and
says how many it got.  The suites share one n range, 1..8 by default; a
suite with no check in the range returns no reports.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Poly
from .conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                        PulledBack, SingularPoint, Translation, _norm_sq,
                        full_rotation, stereographic, stereographic_factor,
                        tangential_rotation, xi_vars)
from .jets import Jet, coordinate_jets
from .juhl import _reduced_iterated, expanded_iterated, iterated, leading_coeff
from .special import gamma_checked
from . import symbolcalc


class QuadratureBudgetExceeded(Exception):
    """The double-exponential quadrature, batched per level (Takahasi-Mori
    1974), or the doubling ring of the n = 2 angular average ran out of nodes
    before it reached its requested accuracy."""


@dataclass
class CheckReport:
    """Outcome of one verification: passed iff max_rel_err <= tolerance."""

    name: str
    samples: int
    max_rel_err: float
    tolerance: float
    passed: bool
    diagnostics: str = ""

    @classmethod
    def from_errors(cls, name, errs, tol, diags=None):
        if not errs:
            return cls(name, 0, 0.0, tol, True, "no samples")
        worst = int(np.argmax(errs))
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


def sample_bump(rng, n, near_hyperplane=False):
    center = rng.uniform(-0.8, 0.8, n)
    if near_hyperplane:
        center[n - 1] *= 0.3
    width = float(rng.uniform(0.8, 1.4))
    pre = None
    if rng.uniform() < 0.3:
        i = int(rng.integers(1, n + 1))
        vars_ = xi_vars(n)
        pre = Poly.const(1, vars_) + Poly.variable(f"xi{i}", vars_) * int(rng.integers(-2, 3))
    return GaussianBump(tuple(center), width, pre)


def _generator(rng, n, kind):
    if kind == 0:
        v = rng.uniform(-1.0, 1.0, n)
        v[n - 1] = 0.0
        return Translation(tuple(v))
    if kind == 1:
        return tangential_rotation(n, float(rng.uniform(0.0, 2 * math.pi)))
    if kind == 2:
        return Dilation(float(np.exp(rng.uniform(-0.7, 0.7))))
    return Inversion()


def sample_gprime_word(rng, n, max_len=3, force_kind=None):
    """A random hyperplane-preserving word; force_kind pins a single
    generator so every generator type is guaranteed coverage."""
    if force_kind is not None:
        return ConformalMap(n, [_generator(rng, n, force_kind)])
    length = int(rng.integers(1, max_len + 1))
    return ConformalMap(n, [_generator(rng, n, int(rng.integers(0, 4)))
                            for _ in range(length)])


#: draws a seeded check may make per requested sample before it gives up
DRAWS_PER_SAMPLE = 10
#: candidate points sample_point_for tries before it rejects the word
POINT_TRIES = 100


def _sampled(name, samples, tol, draw):
    """CheckReport over ``samples`` accepted results of draw(k), k the number
    accepted so far, within DRAWS_PER_SAMPLE * samples draws.  A draw returns
    (err, diagnostic), or rejects its sample by returning None or raising
    SingularPoint/RuntimeError; a check left short of its samples fails."""
    got = []
    for _ in range(DRAWS_PER_SAMPLE * samples):
        if len(got) == samples:
            break
        try:
            out = draw(len(got))
        except (SingularPoint, RuntimeError):
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


def sample_point_for(rng, g, f, on_hyperplane=False):
    """A point xi where rho_lam(g) f is healthy: xi = g(y) with y inside the
    bump, resampled until no inversion hits its singular guard."""
    n = f.n
    for _ in range(POINT_TRIES):
        y = np.array(f.center) + rng.uniform(-1.0, 1.0, n) * 0.8 * f.width
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
    raise RuntimeError("could not sample a regular point for this word")


# -- geometric identities ---------------------------------------------------------


def check_cocycle(n, rng, samples=100, tol=1e-12):
    def draw(_):
        g1 = sample_gprime_word(rng, n, 2)
        g2 = sample_gprime_word(rng, n, 2)
        xi = tuple(float(c) for c in rng.uniform(-2.0, 2.0, n))
        lhs = (g1 @ g2).factor(xi)
        rhs = g1.factor(g2.act(xi)) * g2.factor(xi)
        return rel_err(lhs, rhs), f"xi={xi}"

    return _sampled(f"cocycle_n{n}", samples, tol, draw)


def check_factor_vs_jet(n, rng, samples=100, tol=1e-10):
    """Conformal factor (cocycle product) against the jet-based Jacobian."""
    def draw(_):
        g = sample_gprime_word(rng, n, 3)
        xi = tuple(float(c) for c in rng.uniform(-2.0, 2.0, n))
        k = g.factor(xi)
        comps = g.act(coordinate_jets(xi, 1))
        jac = np.array([c.grad if isinstance(c, Jet) else [0.0] * n for c in comps])
        eta = rng.normal(size=n)
        eta /= np.linalg.norm(eta)
        return rel_err(float(np.linalg.norm(jac @ eta)), k), f"xi={xi}"

    return _sampled(f"factor_vs_jet_n{n}", samples, tol, draw)


def check_hyperplane_covariance(n, rng, samples=100, tol=1e-12):
    """g(xi)_n = kappa(g, xi) xi_n for hyperplane-preserving g."""
    def draw(_):
        g = sample_gprime_word(rng, n, 3)
        xi = rng.uniform(-2.0, 2.0, n)
        if abs(xi[n - 1]) < 0.1:
            xi[n - 1] = 0.3
        xi = tuple(float(c) for c in xi)
        moved, k = g.act_and_factor(xi)
        return rel_err(moved[n - 1], k * xi[n - 1]), f"xi={xi}"

    return _sampled(f"hyperplane_covariance_n{n}", samples, tol, draw)


def check_chart_conformality(n, rng, samples=100, tol=1e-10):
    """|Dc(xi) eta| = (2/(1+|xi|^2)) |eta| for the stereographic chart."""
    def draw(_):
        xi = tuple(float(c) for c in rng.uniform(-2.0, 2.0, n))
        comps = stereographic(coordinate_jets(xi, 1))
        jac = np.array([c.grad for c in comps])
        eta = rng.normal(size=n)
        eta /= np.linalg.norm(eta)
        return (rel_err(float(np.linalg.norm(jac @ eta)), stereographic_factor(xi)),
                f"xi={xi}")

    return _sampled(f"chart_conformality_n{n}", samples, tol, draw)


def check_chord_identity(n, rng, samples=100, tol=1e-12):
    """|c(xi)-c(eta)|^2 = kappa_c(xi) |xi-eta|^2 kappa_c(eta)."""
    def draw(_):
        xi = rng.uniform(-2.0, 2.0, n)
        eta = rng.uniform(-2.0, 2.0, n)
        if np.linalg.norm(xi - eta) < 0.3:
            return None
        cx = np.array(stereographic(tuple(xi)))
        ce = np.array(stereographic(tuple(eta)))
        lhs = float(np.sum((cx - ce) ** 2))
        rhs = stereographic_factor(tuple(xi)) * float(np.sum((xi - eta) ** 2)) \
            * stereographic_factor(tuple(eta))
        return rel_err(lhs, rhs), f"xi={tuple(float(c) for c in xi)}"

    return _sampled(f"chord_identity_n{n}", samples, tol, draw)


def check_mult_intertwining(n, rng, samples=50, tol=1e-12):
    """xi_n * rho_lam(g) f = rho_(lam-1)(g) (xi_n f), pointwise."""
    def draw(_):
        lam = float(rng.uniform(-1.5, 2.5))
        g = sample_gprime_word(rng, n, 3)
        f = sample_bump(rng, n)
        xi = sample_point_for(rng, g, f)
        lhs = xi[n - 1] * PulledBack(lam, g, f).value(xi)
        rhs = PulledBack(lam - 1, g, f.times_coordinate(n - 1)).value(xi)
        return rel_err(lhs, rhs), f"lam={lam}, xi={xi}"

    return _sampled(f"mult_intertwining_n{n}", samples, tol, draw)


def geometry_suite(n, rng, samples=100, tols=None):
    return [
        check_cocycle(n, rng, samples, _tol(tols, "cocycle")),
        check_factor_vs_jet(n, rng, samples, _tol(tols, "factor_vs_jet")),
        check_hyperplane_covariance(n, rng, samples,
                                    _tol(tols, "hyperplane_covariance")),
        check_chart_conformality(n, rng, samples,
                                 _tol(tols, "chart_conformality")),
        check_chord_identity(n, rng, samples, _tol(tols, "chord_identity")),
        check_mult_intertwining(n, rng, max(20, samples // 2),
                                _tol(tols, "mult_intertwining")),
    ]


# -- covariance of the operator families ------------------------------------------


def check_covariance_one_step(n, rng, samples=50, tol=1e-9):
    """(one-step at lam) o rho_lam(g) = rho_(lam+1)(g) o (one-step at lam)
    for hyperplane-preserving g, evaluated through jets on both sides."""
    def draw(made):
        # the first four samples pin one generator type each
        force = made if made < 4 else None
        lam = float(rng.uniform(-1.5, 2.5))
        g = sample_gprime_word(rng, n, 3, force_kind=force)
        f = sample_bump(rng, n)
        xi = sample_point_for(rng, g, f)
        uj = PulledBack(lam, g, f).jet(xi, 2)
        lhs = one_step_from_jet(n, lam, uj, xi[n - 1])
        zeta, k = g.inverse().act_and_factor(xi)
        fj = f.jet(zeta, 2)
        rhs = k ** (lam + 1) * one_step_from_jet(n, lam, fj, zeta[n - 1])
        return (rel_err(lhs, rhs),
                f"lam={lam}, word={[type(w).__name__ for w in g.word]}, xi={xi}")

    return _sampled(f"covariance_one_step_n{n}", samples, tol, draw)


def _restricted_table(n, N):
    """The restricted iterated family as {alpha: [(lam_deg, int)]}: the
    xi_n-free terms of ``expanded_iterated(n, N)``, in its key order."""
    table = {}
    for alpha, coeff in expanded_iterated(n, N).items():
        terms = [(deg, c) for (deg, i), c in coeff.items() if not i]
        if terms:
            table[alpha] = terms
    return table


def check_covariance_iterated(n, N, rng, samples=20, tol=1e-8):
    """Restricted iterated family: res E(rho_lam(g) f) against the weight
    lam+N action of the induced hyperplane map on res E f."""
    if N > 4:
        raise ValueError("numeric iterated covariance is capped at N = 4")
    restricted = _restricted_table(n, N)

    def draw(_):
        lam = float(rng.uniform(-1.5, 2.5))
        # c * lam * ... * lam summed in order, as Poly.evaluate sums
        coeffs = {alpha: sum(math.prod((c,) + (lam,) * deg) for deg, c in terms)
                  for alpha, terms in restricted.items()}
        g = sample_gprime_word(rng, n, 3)
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


# -- Knapp-Stein intertwining by quadrature ----------------------------------------


def _effective_ball(func):
    """(center, radius) bounding the effective support of a test function or
    of its pullback under an affine map."""
    if isinstance(func, GaussianBump):
        return np.array(func.center), func.effective_radius(1e-18)
    if isinstance(func, PulledBack):
        if not func.g.is_affine():
            raise ValueError("effective support only available for affine words")
        c0, r0 = _effective_ball(func.f)
        center = np.array(func.g.act(tuple(c0)))
        return center, r0 * func.g.factor(tuple(c0))
    raise TypeError(f"unsupported integrand {type(func).__name__}")


#: tanh-sinh nodes lie at t = k h on [-DE_T_MAX, DE_T_MAX]: level 0 has h = 1,
#: each further level halves h and adds only the new (odd) nodes.  At
#: |t| = DE_T_MAX the node is ~1e-275 (relative) from its endpoint, so an
#: integrable endpoint singularity |x - a|^s, s > -1, is resolved past double
#: precision without the distance underflowing to 0.
DE_T_MAX = 6
#: the last level tried: 12 * 2**DE_MAX_LEVEL + 1 nodes in all
DE_MAX_LEVEL = 8
#: the least quad_tol a level difference can certify: 50 ulps, as QUADPACK
DE_ROUNDING_FLOOR = 50 * float(np.finfo(float).eps)


@functools.cache
def _de_level(level):
    """The nodes tanh-sinh level ``level`` adds on [-1, 1], as read-only
    arrays (left, da, db, w): left marks t <= 0, da and db are the distances
    to -1 and to 1 (each exact to rounding however near its endpoint the node
    is), and w is dx/dt.  The estimate at a level is h times the sum of
    w * f over the nodes of that level and every level before it."""
    h = 2.0 ** -level
    if level == 0:
        t = np.arange(-DE_T_MAX, DE_T_MAX + 1, dtype=float)
    else:
        t = np.arange(h, DE_T_MAX, 2.0 * h)
        t = np.concatenate((-t[::-1], t))
    u = 0.5 * math.pi * np.sinh(t)
    da = 2.0 / (1.0 + np.exp(-2.0 * u))
    db = 2.0 / (1.0 + np.exp(2.0 * u))
    # dx/dt = (pi/2) cosh t / cosh^2 u, and 1/cosh^2 u = (1 + tanh u)(1 - tanh u)
    w = 0.5 * math.pi * np.cosh(t) * da * db
    out = (t <= 0.0, da, db, w)
    for a in out:
        a.setflags(write=False)
    return out


def _de_quad(integrand, a, b, quad_tol, scale):
    """int_a^b by double-exponential (tanh-sinh) quadrature, batched per level
    (Takahasi-Mori, Double exponential formulas for numerical integration,
    Publ. RIMS 9, 1974).

    integrand(x, da, db) takes the array of a level's new nodes and their
    distances to a and to b, so a factor singular at an endpoint is computed
    from the distance, never from x - a or b - x.  Stops when two successive
    levels agree within max(quad_tol * scale, quad_tol * |I|), the
    epsabs/epsrel pair of QUADPACK; raises QuadratureBudgetExceeded when
    DE_MAX_LEVEL is reached first, or at once for a quad_tol below
    DE_ROUNDING_FLOOR, where two levels can agree to the last bit without
    either being that accurate."""
    if not quad_tol >= DE_ROUNDING_FLOOR:
        raise QuadratureBudgetExceeded(
            f"quad_tol {quad_tol:g} is below the rounding floor {DE_ROUNDING_FLOOR:.3g}")
    half = 0.5 * (b - a)
    total = 0.0
    cur = diff = math.inf
    for level in range(DE_MAX_LEVEL + 1):
        left, da, db, w = _de_level(level)
        da = half * da
        db = half * db
        x = np.where(left, a + da, b - db)
        total += float(np.sum(w * integrand(x, da, db)))
        prev, cur = cur, half * 2.0 ** -level * total
        diff = abs(cur - prev)
        if diff <= quad_tol * max(scale, abs(cur)):
            return cur
    raise QuadratureBudgetExceeded(
        f"levels {DE_MAX_LEVEL - 1} and {DE_MAX_LEVEL} differ by {diff:.3g} "
        f"on [{a:g}, {b:g}]")


@functools.cache
def _ring_angles(k):
    """(cos, sin) of k equally spaced angles on [0, 2 pi), as read-only
    arrays shared by every ring of that size."""
    theta = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
    out = (np.cos(theta), np.sin(theta))
    for a in out:
        a.setflags(write=False)
    return out


def knapp_stein_value(n, lam, func, point, quad_tol=1e-6, radius=None):
    """(1/Gamma(lam - n/2)) * int |point-eta|^(2 lam - 2 n) func(eta) d eta
    over R^n (n = 1 or 2 only), by double-exponential quadrature, batched per
    level (Takahasi-Mori 1974; see ``_de_quad``), on a ball that provably
    contains the integrand mass up to the Gaussian tail.

    n = 1 folds the two sides of the point onto d = |point - eta| in
    [0, radius]; n = 2 integrates r^(2 lam - 3) times the angular integral of
    func over the circle of radius r about the point, where each radius
    doubles its periodic trapezoid ring (32, 64, ..., 4096 angles) until two
    sizes agree to quad_tol / 10.  Raises QuadratureBudgetExceeded when
    either rule runs out of nodes."""
    if n not in (1, 2):
        raise ValueError("quadrature-backed intertwining checks cover n = 1, 2")
    if not (lam > n / 2):
        raise ValueError("absolute convergence needs lam > n/2")
    point = tuple(point)
    if radius is None:
        center, r0 = _effective_ball(func)
        radius = float(np.linalg.norm(np.array(point) - center)) + r0 + 1.0
    norm = 1.0 / gamma_checked(lam - n / 2.0)
    s = 2.0 * lam - 2.0 * n
    if n == 1:
        x = point[0]

        def folded(_, d, __):
            vals = func.eval_generic([np.concatenate((x + d, x - d))])
            return d ** s * (vals[:d.size] + vals[d.size:])

        return norm * _de_quad(folded, 0.0, radius, quad_tol, max(1.0, radius))

    # n == 2: polar coordinates about the singular point
    x1, x2 = point

    def ring_integrals(r):
        # rows, vals, prev: the radii not yet settled, their values on the
        # k-ring and its integral; the k-ring is the even columns of the
        # 2k-ring, so each angle is evaluated once
        out = np.empty(r.size)
        rows = np.arange(r.size)
        rr = r[:, None]
        k = 32
        cos, sin = _ring_angles(k)
        vals = func.eval_generic([x1 + rr * cos, x2 + rr * sin])
        prev = np.mean(vals, axis=1) * (2.0 * math.pi)
        while True:
            cos, sin = _ring_angles(2 * k)
            rr = r[rows, None]
            both = np.empty((rows.size, 2 * k))
            both[:, ::2] = vals
            both[:, 1::2] = func.eval_generic([x1 + rr * cos[1::2],
                                               x2 + rr * sin[1::2]])
            cur = np.mean(both, axis=1) * (2.0 * math.pi)
            done = np.abs(cur - prev) <= quad_tol * 0.1 * np.maximum(1.0, np.abs(cur))
            out[rows[done]] = cur[done]
            if done.all():
                return out
            k *= 2
            if k >= 4096:
                raise QuadratureBudgetExceeded("angular average did not settle")
            rows, vals, prev = rows[~done], both[~done], cur[~done]

    def outer(_, r, __):
        return r ** (s + 1.0) * ring_integrals(r)

    return norm * _de_quad(outer, 0.0, radius, quad_tol, max(1.0, radius))


def check_ks_intertwining(n, lam, g, f, rng, samples=5, quad_tol=1e-6, tol=1e-5):
    """Convolution intertwiner applied to the twisted pullback against the
    weight n-lam pullback of the transformed function, at points drawn
    uniformly from [-1, 1]^n."""
    pulled = PulledBack(lam, g, f)

    def draw(_):
        xi = tuple(float(c) for c in rng.uniform(-1.0, 1.0, n))
        lhs = knapp_stein_value(n, lam, pulled, xi, quad_tol)
        zeta, k = g.inverse().act_and_factor(xi)
        rhs = k ** (n - lam) * knapp_stein_value(n, lam, f, zeta, quad_tol)
        return rel_err(lhs, rhs), f"lam={lam}, xi={xi}"

    return _sampled(f"ks_intertwining_n{n}_lam{lam:g}", samples, tol, draw)


# -- kernel Fourier pairing ---------------------------------------------------------


def _gaussian_moment(p, c, quad_tol):
    """int_0^inf r^p exp(-r^2/c) dr (p > -1) by ``_de_quad`` on [0, 1] after
    r = t/(1-t), dr = (1+r)^2 dt; r is read as da/db, exact near both ends."""
    def integrand(_, da, db):
        r = da / db
        # r*r overflows to inf near t = 1, where the integrand is 0
        with np.errstate(over="ignore"):
            return np.exp(p * np.log(r) + 2.0 * np.log1p(r) - r * r / c)

    return _de_quad(integrand, 0.0, 1.0, quad_tol, 1.0)


def check_kernel_pairing(n, s, quad_tol=1e-10, tol=1e-8):
    """Weak form of hat(h_s) = 2^(n+s) pi^(n/2) h_(-n-s) against a Gaussian:
    <h_s, hat g> = <hat h_s, g> for g = exp(-|xi|^2), both sides reduced to
    radial integrals and cross-checked against their closed Gamma forms."""
    if not (-n < s < 0):
        raise ValueError("need -n < s < 0 for both pairings to converge absolutely")
    omega = 2.0 * math.pi ** (n / 2.0) / gamma_checked(n / 2.0)
    i1 = _gaussian_moment(s + n - 1, 4.0, quad_tol)
    i1_closed = 0.5 * 2.0 ** (s + n) * gamma_checked((s + n) / 2.0)
    i2 = _gaussian_moment(-s - 1, 1.0, quad_tol)
    i2_closed = 0.5 * gamma_checked(-s / 2.0)

    lhs = math.pi ** (n / 2.0) / gamma_checked((n + s) / 2.0) * omega * i1
    rhs = 2.0 ** (n + s) * math.pi ** (n / 2.0) / gamma_checked(-s / 2.0) * omega * i2
    errs = [rel_err(lhs, rhs), rel_err(i1, i1_closed), rel_err(i2, i2_closed)]
    diags = ["pairing lhs vs rhs", "radial integral vs closed form (lhs)",
             "radial integral vs closed form (rhs)"]
    return CheckReport.from_errors(f"kernel_pairing_n{n}_s{s:g}", errs, tol, diags)


# -- symbol-level inversion constant --------------------------------------------------


def check_ks_inversion(n, rng, samples=20, tol=1e-10):
    """The intertwiner symbols at lam and n-lam compose to the closed constant
    pi^n / (Gamma(lam) Gamma(n-lam)), pointwise on |eta| = 1, where the kernel
    h_s is 1/Gamma(n/2 + s/2); lam is drawn in the strip 0.2 < Re < n-0.2.

    Raises PoleAtLambda for a sample at a pole of the Gamma factors involved.
    """
    (t,) = symbolcalc.knapp_stein_symbol(n).terms

    def draw(_):
        lam = complex(rng.uniform(0.2, n - 0.2), rng.uniform(-1.0, 1.0))
        prod = 1.0 + 0.0j
        for mu in (lam, n - lam):
            s_val = complex(t.s_const) + complex(t.s_lam) * mu
            prod *= t.coeff.evaluate(mu) * (1.0 / gamma_checked(n / 2.0 + s_val / 2.0))
        expected = math.pi ** n / (gamma_checked(lam) * gamma_checked(n - lam))
        err = abs(prod - expected) / max(abs(prod), abs(expected))
        return err, "sampled lam in the strip 0.2 < Re < n-0.2"

    return _sampled(f"ks_inversion_symbol_n{n}", samples, tol, draw)


# -- ambient-space checks ---------------------------------------------------------------


def dalembertian(jet, n):
    """Box F = F_tt - sum_j F_(x_j x_j) from an order-2 ambient jet
    (variables ordered t, x_0, ..., x_n)."""
    # the diagonal of the Hessian, read directly: 2 * (coefficient of y_i^2)
    diag = [2.0 * jet.terms.get(tuple(2 if k == i else 0 for k in range(n + 2)), 0.0)
            for i in range(n + 2)]
    return diag[0] - sum(diag[1:])


def chart_family(n, lam, f):
    """The degree -lam homogeneous ambient function built from a test
    function on R^n: (t+x_0)^(-lam) f(x_1/(t+x_0), ..., x_n/(t+x_0))."""

    def F(coords):
        u = coords[0] + coords[1]
        args = [c / u for c in coords[2:]]
        return u ** (-lam) * f.eval_generic(args)

    return F


def sphere_extension(n, f_sphere, degree):
    """t-independent extension |x|^degree * f(x/|x|) of a sphere function
    (f_sphere takes the n+1 components of x/|x|)."""

    def F(coords):
        q = _norm_sq(coords[1:])
        r = q ** 0.5
        args = [c / r for c in coords[1:]]
        return q ** (degree / 2.0) * f_sphere(args)

    return F


def ambient_operator(mu, F, coords, n):
    """B_mu F = x_n Box F - 2 mu dF/dx_n at the base point of the coords."""
    Fj = F(coords)
    xn = coords[n + 1].value
    return xn * dalembertian(Fj, n) - 2.0 * mu * Fj.grad[n + 1]


def check_ambient_noncompact(n, lam, f, rng, samples=30, tol=1e-9):
    """The ambient operator at weight lam - n/2 + 1, pushed through the
    stereographic chart (including the chart weight lam+1), against minus the
    one-step operator on R^n, at points drawn uniformly from [-1.2, 1.2]^n."""
    mu = lam - n / 2.0 + 1.0
    F = chart_family(n, lam, f)

    def draw(_):
        xi = tuple(float(c) for c in rng.uniform(-1.2, 1.2, n))
        x = stereographic(xi)
        coords = coordinate_jets((1.0,) + x, 2)
        bval = ambient_operator(mu, F, coords, n)
        kc = stereographic_factor(xi)
        lhs = kc ** (lam + 1.0) * bval
        fj = f.jet(xi, 2)
        rhs = -one_step_from_jet(n, lam, fj, xi[n - 1])
        return rel_err(lhs, rhs), f"lam={lam}, xi={xi}"

    return _sampled(f"ambient_noncompact_n{n}_lam{lam:g}", samples, tol, draw)


def check_weight_conjugation(n, rng, samples=30, tol=1e-9):
    """B_mu F = x_n |x_n|^(-mu) Box(|x_n|^mu F) + mu(mu-1) F / x_n for smooth
    ambient F and x_n != 0 (direct two-route jet evaluation)."""
    def draw(_):
        mu = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(-1.0, 2.0))
        f = sample_bump(rng, n)
        F = chart_family(n, lam, f)
        t = float(rng.uniform(0.6, 1.6))
        x = rng.uniform(-0.8, 0.8, n + 1)
        x[0] = max(x[0], 0.4 - t)  # keep t + x_0 away from the family's singular set
        if abs(x[n]) < 0.15:
            x[n] = 0.4
        coords = coordinate_jets((t,) + tuple(x), 2)
        lhs = ambient_operator(mu, F, coords, n)
        Fj = F(coords)
        xn = coords[n + 1]
        w = (xn * xn) ** (mu / 2.0)
        Gj = w * Fj
        xn_val = xn.value
        rhs = xn_val * abs(xn_val) ** (-mu) * dalembertian(Gj, n) \
            + mu * (mu - 1.0) / xn_val * Fj.value
        return rel_err(lhs, rhs), f"mu={mu}, t={t}, x={tuple(float(c) for c in x)}"

    return _sampled(f"weight_conjugation_n{n}", samples, tol, draw)


def check_yamabe_constant(n, rng, samples=20, tol=1e-10):
    """The conformal Laplacian of the constant function: Box of the degree
    -(n/2-1) extension of 1 equals n(n-2)/4 on the sphere."""
    F = sphere_extension(n, lambda args: 1.0, -(n / 2.0 - 1.0))
    expected = n * (n - 2) / 4.0

    def draw(_):
        x = rng.normal(size=n + 1)
        x /= np.linalg.norm(x)
        coords = coordinate_jets((1.0,) + tuple(x), 2)
        got = dalembertian(F(coords), n)
        return (abs(got - expected) / max(1.0, abs(expected)),
                f"x={tuple(float(c) for c in x)}")

    return _sampled(f"yamabe_constant_n{n}", samples, tol, draw)


def _poly_on_jets(p):
    def f(args):
        return p.evaluate(list(args))
    return f


def check_ambient_compact(n, lam, f_sphere_poly, rng, samples=20, tol=1e-8):
    """Three routes to the same value at x = c(xi) on the sphere, for xi drawn
    uniformly from [-1, 1]^n and kept when |x_n| >= 0.15 and 1 + x_0 >= 0.4:

    A. the ambient operator on the degree -lam extension of the sphere
       function (jets on the light cone section t = 1);
    B. the conjugated-Yamabe formula
       x_n |x_n|^(-mu) Delta_S(|x_n|^mu f) + mu(mu-1) f / x_n,
       with Delta_S realized by Box on the degree -(n/2-1) extension;
    C. minus the one-step operator on the chart transport of f, mapped back
       with the chart weight.
    """
    mu = lam - n / 2.0 + 1.0
    fs = _poly_on_jets(f_sphere_poly)
    FA = sphere_extension(n, fs, -lam)

    def h_sphere(args):
        return (args[n] * args[n]) ** (mu / 2.0) * fs(args)

    FB = sphere_extension(n, h_sphere, -(n / 2.0 - 1.0))

    def draw(_):
        xi = tuple(float(c) for c in rng.uniform(-1.0, 1.0, n))
        x = stereographic(xi)
        if abs(x[n]) < 0.15 or 1.0 + x[0] < 0.4:
            return None
        coords = coordinate_jets((1.0,) + x, 2)
        a_val = ambient_operator(mu, FA, coords, n)

        # conjugated Yamabe route
        ds = dalembertian(FB(coords), n)
        xn = x[n]
        f_here = f_sphere_poly.evaluate(list(x))
        b_val = xn * abs(xn) ** (-mu) * ds + mu * (mu - 1.0) / xn * f_here

        # chart transport route
        cj = coordinate_jets(xi, 2)
        fnc = stereographic_factor(cj) ** lam * f_sphere_poly.evaluate(stereographic(cj))
        kc = stereographic_factor(xi)
        c_val = -(kc ** (-(lam + 1.0))) * one_step_from_jet(n, lam, fnc, xi[n - 1])

        err = max(rel_err(a_val, b_val), rel_err(a_val, c_val), rel_err(b_val, c_val))
        return err, f"lam={lam}, xi={xi}"

    return _sampled(f"ambient_compact_n{n}_lam{lam:g}", samples, tol, draw)


def check_extension_independence(n, rng, samples=20, tol=1e-9):
    """Box F restricted to the positive light cone does not depend on the
    choice of degree -(n/2-1) homogeneous extension.

    Compares the t-independent extension, a t-homogeneous one, and one
    shifted by Q * (homogeneous of degree -(n/2)-1); each extension's
    homogeneity is certified through the Euler identity first.
    """
    d = n / 2.0 - 1.0
    vars_ = tuple(f"x{i}" for i in range(n + 1))
    gpoly = Poly.variable(vars_[0], vars_) + Poly.variable(vars_[n], vars_) * 2
    gs = _poly_on_jets(gpoly)

    def fs(args):
        return args[0] * args[0] + 0.5 * args[n] + 1.0

    F1 = sphere_extension(n, fs, -d)

    def F2(coords):
        # t-dependent variant: (t^2/|x|^2) is 0-homogeneous and equals 1 on the cone
        q = _norm_sq(coords[1:])
        return coords[0] * coords[0] / q * F1(coords)

    def F3(coords):
        q = _norm_sq(coords[1:])
        Q = coords[0] * coords[0] - q
        G = sphere_extension(n, gs, -(d + 2.0))(coords)
        return F1(coords) + Q * G

    exts = (F1, F2, F3)

    def draw(_):
        x = rng.normal(size=n + 1)
        x *= float(rng.uniform(0.6, 1.8)) / np.linalg.norm(x)
        t = float(np.linalg.norm(x))
        coords = coordinate_jets((t,) + tuple(x), 2)
        jets = [F(coords) for F in exts]
        for Fj in jets:
            euler = t * Fj.grad[0] + sum(x[i] * Fj.grad[i + 1] for i in range(n + 1))
            e_err = abs(euler - (-d) * Fj.value) / max(1.0, abs(Fj.value))
            if e_err > 1e-10:
                raise ValueError(f"extension violates the Euler homogeneity identity: {e_err}")
        boxes = [dalembertian(Fj, n) for Fj in jets]
        err = max(rel_err(boxes[0], boxes[1]), rel_err(boxes[0], boxes[2]))
        return err, f"t={t}, x={tuple(float(c) for c in x)}"

    return _sampled(f"extension_independence_n{n}", samples, tol, draw)


# -- suites ------------------------------------------------------------------------


#: every tolerance the suites read, with its default; ``tols`` overrides them by name
TOLERANCES = {
    "cocycle": 1e-12, "factor_vs_jet": 1e-10, "hyperplane_covariance": 1e-12,
    "chart_conformality": 1e-10, "chord_identity": 1e-12,
    "mult_intertwining": 1e-12, "covariance": 1e-9,
    "covariance_restricted": 1e-8, "quad_tol": 1e-6, "ks": 1e-5,
    "pairing": 1e-8, "inversion": 1e-10, "ambient": 1e-9, "yamabe": 1e-10,
    "extension": 1e-9, "ambient_compact": 1e-8,
}


def _tol(tols, name):
    return (tols or {}).get(name, TOLERANCES[name])


def _exact_report(name, cases, holds, text):
    """Report of an exact identity over ``cases``: max_rel_err counts the
    cases where ``holds(*case)`` is false."""
    bad = sum(0 if holds(*case) else 1 for case in cases)
    return CheckReport(name, len(cases), float(bad), 0.0, bad == 0, text)


def suite_symbolic(n_min=1, n_max=8, tols=None):
    from .juhl import juhl_coeffs, one_step

    def hat_involution(n, a, b):
        # kernel hat rule applied twice returns (2 pi)^n times the original
        c1, s1c, s1l = symbolcalc.hat_kernel(n, a, b)
        c2, s2c, s2l = symbolcalc.hat_kernel(n, s1c, s1l)
        expect = symbolcalc.SymCoeff(1, two_a=n, pi_half=2 * n)
        return c1 * c2 == expect and (s2c, s2l) == (a, b)

    def leading_closed_form(n, N):
        try:
            juhl_coeffs(n, N)
        except RuntimeError:
            return False
        return True

    def power_constant(n, N):
        # Lap acts on a function of xi_n alone as d_n^2, so X^i P^j L^k takes
        # xi_n^N to N!/(N-j-2k)! xi_n^(i+N-j-2k); math.perm is 0 past N
        got = {}
        for (i, j, k), c in _reduced_iterated(n, N).items():
            drop = j + 2 * k
            factor = math.perm(N, drop)
            for deg, x in enumerate(c):
                key = (deg, i + N - drop)
                got[key] = got.get(key, 0) + x * factor
        want = enumerate(leading_coeff(n, N).to_univariate())
        return ({key: c for key, c in got.items() if c}
                == {(deg, 0): math.factorial(N) * c for deg, c in want if c})

    def zero_residual(n, N):
        # each factor (2 lam + 2N' - n) P + X L raises the weight j + 2k - i
        # of X^i P^j L^k by exactly one, so every term of the order-N family
        # has weight N.  Its i = 0 part, the restriction, is then a sum of
        # c P^j L^k with j + 2k = N, and with L = Lap' + P^2 each such term
        # lies in the span of P^(N-2m) Lap'^m.
        return all(j + 2 * k - i == N for i, j, k in _reduced_iterated(n, N))

    def shift_consistent(n, N):
        lhs = iterated(n, N).shift_lambda(1).compose(one_step(n))
        return lhs == iterated(n, N + 1)

    ns = [n for n in range(1, 9) if n_min <= n <= n_max]
    if not ns:
        return []
    pairs = ((Fraction(0), Fraction(2)), (Fraction(-1), Fraction(-2)),
             (Fraction(3, 2), Fraction(1)))
    grid = [(n, N) for n in range(max(2, n_min), min(6, n_max) + 1)
            for N in range(1, 11)]
    small = [(n, N) for n in (2, 3) if n_min <= n <= n_max for N in (1, 2, 3)]
    return [
        _exact_report("symbol_factorization", [(n,) for n in ns],
                      symbolcalc.check_factorization,
                      f"exact identity for n in {ns}"),
        _exact_report("kernel_hat_involution", [(n, *ab) for n in ns for ab in pairs],
                      hat_involution, "double transform bookkeeping"),
        _exact_report("juhl_leading_coeff", grid, leading_closed_form,
                      "closed form of a_0, full grid"),
        _exact_report("iterated_power_constant", grid, power_constant,
                      "N-fold drop of xi_n^N, full grid"),
        _exact_report("tangential_zero_residual", grid, zero_residual,
                      "restricted family lies in the tangential span"),
        _exact_report("shift_consistency", small, shift_consistent,
                      "parameter shift composes correctly"),
    ]


def suite_numeric(seed=0, n_min=1, n_max=8, tols=None):
    rng = np.random.default_rng(seed)
    reports = []
    for n in (2, 3):
        if n_min <= n <= n_max:
            reports.extend(geometry_suite(n, rng, 100, tols))
    for n in (2, 3):
        if n_min <= n <= n_max:
            reports.append(check_covariance_one_step(
                n, rng, 50, _tol(tols, "covariance")))
    for n in (2, 3):
        if not (n_min <= n <= n_max):
            continue
        for N in (1, 2, 3):
            reports.append(check_covariance_iterated(
                n, N, rng, 20, _tol(tols, "covariance_restricted")))
    for n in (1, 2):
        if not (n_min <= n <= n_max):
            continue
        f = GaussianBump((0.3,) * n, 1.1)
        maps = [ConformalMap(n, [Dilation(2.0)]),
                ConformalMap(n, [Translation((0.4,) * n)])]
        if n >= 2:
            maps.append(ConformalMap(n, [full_rotation(n, 0.7)]))
        else:
            maps.append(ConformalMap(n, [Dilation(0.5), Translation((-0.3,))]))
        for lam in (0.8 * n, 1.1 * n):
            for g in maps:
                reports.append(check_ks_intertwining(
                    n, lam, g, f, rng, 5, _tol(tols, "quad_tol"), _tol(tols, "ks")))
    for n, s in ((1, -0.5), (2, -1.0), (3, -1.5)):
        if n_min <= n <= n_max:
            reports.append(check_kernel_pairing(n, s, tol=_tol(tols, "pairing")))
    for n in (1, 2, 3, 4):
        if n_min <= n <= n_max:
            reports.append(check_ks_inversion(
                n, rng, 20, _tol(tols, "inversion")))
    return reports


def suite_ambient(seed=0, n_min=1, n_max=8, tols=None):
    rng = np.random.default_rng(seed)
    reports = []
    for n in (2, 3, 4):
        if not (n_min <= n <= n_max):
            continue
        f = sample_bump(rng, n)
        lam = float(rng.uniform(0.3, 1.5))
        reports.append(check_ambient_noncompact(
            n, lam, f, rng, 30, _tol(tols, "ambient")))
        reports.append(check_weight_conjugation(
            n, rng, 20, _tol(tols, "ambient")))
        reports.append(check_yamabe_constant(
            n, rng, 20, _tol(tols, "yamabe")))
        reports.append(check_extension_independence(
            n, rng, 20, _tol(tols, "extension")))
    for n in (3, 4):
        if not (n_min <= n <= n_max):
            continue
        vars_ = tuple(f"x{i}" for i in range(n + 1))
        fpoly = (Poly.variable(vars_[0], vars_) * Poly.variable(vars_[n], vars_)
                 + Poly.variable(vars_[1], vars_) ** 2
                 + Poly.const(Fraction(1, 2), vars_))
        reports.append(check_ambient_compact(
            n, 1.2, fpoly, rng, 20, _tol(tols, "ambient_compact")))
    return reports


def run_suites(which="all", seed=0, n_min=None, n_max=None, tols=None):
    """Reports of the chosen suites over n_min <= n <= n_max (None: 1 and 8);
    empty when no check of those suites covers an n in the range."""
    n_min = 1 if n_min is None else n_min
    n_max = 8 if n_max is None else n_max
    reports = []
    if which in ("symbolic", "all"):
        reports.extend(suite_symbolic(n_min, n_max, tols))
    if which in ("numeric", "all"):
        reports.extend(suite_numeric(seed, n_min, n_max, tols))
    if which in ("ambient", "all"):
        reports.extend(suite_ambient(seed, n_min, n_max, tols))
    return reports
