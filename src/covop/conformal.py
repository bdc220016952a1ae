"""Conformal maps of R^n, conformal factors, principal-series actions,
the stereographic chart to the sphere, and Gaussian test functions.

A map is a word in four generators (translation, rotation, dilation, and the
chart-change inversion).  Each generator has one step, ``act_and_factor``,
which returns the image of a point and the generator's conformal factor there;
a word multiplies the factors along the orbit (the cocycle product), and
``act`` is the same walk with the factors dropped.  The chart to the sphere,
``stereographic``, takes the same one step: image and factor from one
|xi|^2.  A rotation is the pair (cos, sin) of a rotation in the (xi_1, xi_2)
plane, the only rotations the checks use.  All evaluation code is generic over the scalar
type: plain floats, jets and batches (``covop.verify.Batch``, a list of
floats under elementwise arithmetic) go through the same formulas, so
derivative information is exact to rounding wherever jets are fed in, and
each element of a batch has the bits of its scalar evaluation.  A step
that needs one float, the inversion's guard, refuses a batch.  A test
function's polynomial prefactor has int coefficients, so a float input
gives floats.
"""

import math

from .jets import Jet, coordinate_jets

#: points whose inversion input is closer to the origin than this are rejected
#: to keep the conditioning of 1/|xi|^2 powers bounded
GUARD_RADIUS = 0.05


class SingularPoint(Exception):
    """An inversion was evaluated at (numerically near) its singular point."""


def _norm_sq(xs):
    total = xs[0] * xs[0]
    for x in xs[1:]:
        total = total + x * x
    return total


def _too_small(q):
    """Generic singular-set test on |xi|^2 (works for floats, Fractions and
    jets, a jet by its value; a batch has no float, so it raises TypeError)."""
    if isinstance(q, Jet):
        q = q.value
    return float(q) < GUARD_RADIUS * GUARD_RADIUS


class Translation:
    """xi -> xi + v.  Tangential (v_n = 0) translations preserve the
    hyperplane; general ones are allowed for full-group checks."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = tuple(float(x) for x in v)
        if not all(map(math.isfinite, self.v)):
            raise ValueError("translation entries must be finite")

    @property
    def dim(self):
        return len(self.v)

    def act_and_factor(self, xs):
        return [x + c for x, c in zip(xs, self.v)], 1.0

    def inverse(self):
        return Translation([-c for c in self.v])

    def preserves_hyperplane(self):
        return self.v[-1] == 0.0

    def __repr__(self):
        return f"Translation({self.v})"


class Rotation:
    """The rotation of R^dim by the angle with cosine c and sine s in the
    (xi_1, xi_2) plane, every other coordinate fixed.  (c, s) must lie on the
    unit circle to 1e-12; R^1 has only the identity, (1, 0)."""

    __slots__ = ("dim", "c", "s")

    def __init__(self, dim, c, s):
        c, s = float(c), float(s)
        if dim < 1:
            raise ValueError("a rotation acts on R^dim with dim >= 1")
        if not abs(c * c + s * s - 1.0) <= 1e-12:
            raise ValueError("(c, s) is not on the unit circle to 1e-12")
        if dim == 1 and (s != 0.0 or c < 0.0):
            raise ValueError("the only rotation of R^1 is the identity")
        self.dim, self.c, self.s = dim, c, s

    def act_and_factor(self, xs):
        """[[c, -s], [s, c]] applied to (xi_1, xi_2) row by row, the -s term
        dropped when s = 0, as a matrix product that skips zero entries
        would; the other coordinates pass through."""
        c, s = self.c, self.s
        y0 = c * xs[0]
        if s:
            y0 = y0 + (-s) * xs[1]
        if self.dim == 1:
            return [y0], 1.0
        return [y0, s * xs[0] + c * xs[1]] + list(xs[2:]), 1.0

    def inverse(self):
        return Rotation(self.dim, self.c, -self.s)

    def preserves_hyperplane(self):
        return self.dim > 2 or (self.c, self.s) == (1.0, 0.0)

    def __repr__(self):
        return f"Rotation({self.dim}, {self.c!r}, {self.s!r})"


class Dilation:
    """xi -> r xi, r > 0; conformal factor r everywhere."""

    __slots__ = ("r",)

    def __init__(self, r):
        r = float(r)
        if not 0 < r < math.inf:
            raise ValueError("dilation ratio must be positive and finite")
        self.r = r

    dim = None  # acts in any dimension

    def act_and_factor(self, xs):
        return [self.r * x for x in xs], self.r

    def inverse(self):
        return Dilation(1.0 / self.r)

    def preserves_hyperplane(self):
        return True

    def __repr__(self):
        return f"Dilation({self.r})"


class Inversion:
    """The chart-change map xi -> (-xi_1, xi_2, ..., xi_n)/|xi|^2, an
    involution preserving the hyperplane, with conformal factor 1/|xi|^2."""

    __slots__ = ()

    dim = None

    def act_and_factor(self, xs):
        q = _norm_sq(xs)
        if _too_small(q):
            raise SingularPoint("inversion evaluated too close to the origin")
        return [-xs[0] / q] + [x / q for x in xs[1:]], 1 / q

    def inverse(self):
        return self

    def preserves_hyperplane(self):
        return True

    def __repr__(self):
        return "Inversion()"


def tangential_rotation(n, angle):
    """Rotation by the angle in the (xi_1, xi_2) plane, which keeps xi_n
    fixed when n >= 3.  For n <= 2 there is no room: returns the identity."""
    if n >= 3:
        return Rotation(n, math.cos(angle), math.sin(angle))
    return Rotation(n, 1.0, 0.0)


class ConformalMap:
    """A word of generators applied left to right: word[0] acts first;
    ``ConformalMap(n)``, the empty word, is the identity.  The conformal
    factor of a word is the cocycle product of the generator factors along
    the orbit of the point; the jet-based Jacobian is the independent check.
    """

    __slots__ = ("n", "word")

    def __init__(self, n, word=()):
        self.n = n
        word = tuple(word)
        for g in word:
            if g.dim is not None and g.dim != n:
                raise ValueError(f"generator {g!r} has wrong dimension for n={n}")
        self.word = word

    def inverse(self):
        return ConformalMap(self.n, tuple(g.inverse() for g in reversed(self.word)))

    def _coords(self, point):
        """The point as a list of its n coordinates; a point of another
        length is refused, since the generators zip coordinates and would
        drop a surplus one."""
        xs = list(point)
        if len(xs) != self.n:
            raise ValueError(f"point has {len(xs)} coordinates, expected n = {self.n}")
        return xs

    def act(self, point):
        """Image of the point: the word's images alone, with no cocycle
        product formed."""
        xs = self._coords(point)
        for g in self.word:
            xs = g.act_and_factor(xs)[0]
        return tuple(xs)

    def act_and_factor(self, point):
        """Image of the point and the cocycle product of the generator
        factors along its orbit, in one walk of the word."""
        xs = self._coords(point)
        total = 1.0
        for g in self.word:
            xs, k = g.act_and_factor(xs)
            total = k * total
        return tuple(xs), total

    def preserves_hyperplane(self):
        return all(g.preserves_hyperplane() for g in self.word)

    def is_affine(self):
        return not any(isinstance(g, Inversion) for g in self.word)

    def restrict_to_hyperplane(self):
        """The induced conformal map of R^(n-1) = {xi_n = 0}; requires a
        hyperplane-preserving word."""
        if not self.preserves_hyperplane():
            raise ValueError("map does not preserve the hyperplane")
        word = []
        for g in self.word:
            if isinstance(g, Translation):
                word.append(Translation(g.v[:-1]))
            elif isinstance(g, Rotation):
                word.append(Rotation(g.dim - 1, g.c, g.s))
            else:
                word.append(g)
        return ConformalMap(self.n - 1, word)

    def __repr__(self):
        return f"ConformalMap(n={self.n}, word={list(self.word)!r})"


# -- test functions --------------------------------------------------------------


def _eval_prefactor(prefactor, xs):
    """sum c * prod xs[i]^e_i over the terms {e: c}: the terms summed in
    order from 0, each term c times each coordinate e_i times in index
    order."""
    total = 0
    for e, c in prefactor.items():
        term = c
        for x, k in zip(xs, e):
            for _ in range(k):
                term = term * x
        total = total + term
    return total


class GaussianBump:
    """P(xi) * exp(-|xi - m|^2 / a^2): Schwartz-class test function with an
    optional polynomial prefactor P, a dict {exponent tuple: int} with one
    exponent, an int >= 0, per coordinate."""

    __slots__ = ("n", "center", "width", "prefactor")

    def __init__(self, center, width=1.0, prefactor=None):
        self.center = tuple(float(x) for x in center)
        if not all(map(math.isfinite, self.center)):
            raise ValueError("center must be finite")
        self.n = len(self.center)
        self.width = float(width)
        if not 0 < self.width < math.inf:
            raise ValueError("width must be positive and finite")
        for e in prefactor or ():
            if len(e) != self.n:
                raise ValueError(f"prefactor exponents must have length {self.n}")
            if not all(isinstance(k, int) and k >= 0 for k in e):
                raise ValueError(f"prefactor exponents must be ints >= 0, got {e}")
        self.prefactor = prefactor

    def eval_generic(self, xs):
        """Evaluate at a coordinate sequence of floats, jets or batches,
        which must hold n coordinates."""
        if len(xs) != self.n:
            raise ValueError(f"{len(xs)} coordinates given, expected n = {self.n}")
        q = _norm_sq([x - c for x, c in zip(xs, self.center)])
        arg = q * (-1.0 / self.width ** 2)
        e = math.exp(arg) if isinstance(arg, float) else arg.exp()
        if self.prefactor is None:
            return e
        return _eval_prefactor(self.prefactor, xs) * e

    def value(self, point):
        return self.eval_generic(list(point))

    def jet(self, point, order=2, pure=False):
        return self.eval_generic(coordinate_jets(point, order, pure))

    def times_coordinate(self, i):
        """The test function xi_i * f (stays in the class), 0 <= i < n."""
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate index must be in 0..{self.n - 1}, got {i}")
        if self.prefactor is None:
            pre = {tuple(int(j == i) for j in range(self.n)): 1}
        else:
            pre = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in self.prefactor.items()}
        return GaussianBump(self.center, self.width, pre)

    def effective_radius(self, eps=1e-16):
        """Radius around the center outside which |f| < eps * scale."""
        extra = 0
        if self.prefactor:
            extra = max(sum(e) for e in self.prefactor)
        return self.width * (math.sqrt(math.log(1.0 / eps)) + extra)

    def __repr__(self):
        return f"GaussianBump(center={self.center}, width={self.width})"


class PulledBack:
    """The twisted pullback kappa(g^-1, xi)^lam * f(g^-1 xi): the
    principal-series action of g on f at weight lam."""

    __slots__ = ("lam", "g", "f", "g_inv")

    def __init__(self, lam, g, f):
        if g.n != f.n:
            raise ValueError(f"word of dimension {g.n} acts on a function of "
                             f"dimension {f.n}")
        self.lam = lam
        self.g = g
        self.f = f
        self.g_inv = g.inverse()

    def eval_generic(self, xs):
        ys, total = self.g_inv.act_and_factor(xs)
        return total ** self.lam * self.f.eval_generic(ys)

    def value(self, point):
        return self.eval_generic(list(point))

    def jet(self, point, order=2, pure=False):
        return self.eval_generic(coordinate_jets(point, order, pure))


# -- the chart to the sphere ------------------------------------------------------


def stereographic(xs):
    """The inverse stereographic chart R^n -> S^n (source at the antipode of
    1) in one step, as a generator's ``act_and_factor``: the image
    ((1-|xi|^2)/(1+|xi|^2), 2 xi_1/(1+|xi|^2), ..., 2 xi_n/(1+|xi|^2)) and
    the conformal factor 2/(1+|xi|^2), both from one |xi|^2."""
    q = _norm_sq(list(xs))
    den = 1.0 + q
    return tuple([(1.0 - q) / den] + [2.0 * x / den for x in xs]), 2.0 / den

