"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A jet stores the Taylor coefficients of a smooth function at a point up to a
fixed total order, so derivatives obtained from composed jets are exact up to
rounding -- no finite-difference step-size tuning anywhere.  Order 2 covers
the second-order operators; higher orders are used when composed operator
families are evaluated numerically.

Products are table-driven: for each (dim, order) a pair table
``{e1: {e2: e1 + e2}}`` over the multi-indices of total degree <= order,
keeping only pairs whose sum stays within the order, is built on the first
product at that shape and reused (Griewank--Walther, *Evaluating
Derivatives*, SIAM 2008, ch. 13).  It replaces the per-pair tuple sums and
degree tests but reorders nothing: a product walks both operands' terms in
insertion order, so every coefficient comes out of the same float
operations in the same order as the plain double loop, and seeded reports,
which print errors with full ``repr``, stay byte-identical.  Dense
coefficient arrays would sum in another order and change those bits.
"""

import cmath
import functools
import math
from fractions import Fraction


def _scalar(c):
    if isinstance(c, Fraction):
        return float(c)
    return c


def _exponents(dim, order):
    """Every multi-index of length dim and total degree <= order."""
    if dim == 0:
        return [()]
    return [(a,) + rest for a in range(order + 1)
            for rest in _exponents(dim - 1, order - a)]


@functools.cache
def _pair_table(dim, order):
    """{e1: {e2: e1 + e2}} for every pair with |e1| + |e2| <= order.

    A multi-index missing as a row or as an entry has a product above the
    order, which truncation drops.  Shared by every product at this shape;
    never mutated.
    """
    exps = _exponents(dim, order)
    return {e1: {e2: tuple(a + b for a, b in zip(e1, e2))
                 for e2 in exps if sum(e1) + sum(e2) <= order}
            for e1 in exps}


class Jet:
    """Taylor coefficients {multi-index: value} of a function at a point.

    ``terms[alpha]`` is the coefficient of prod (x_i - p_i)^alpha_i, i.e.
    the partial derivative divided by alpha!.  Values may be real or complex.

    A product looks its exponent sums up in the pair table of its
    (dim, order) and keeps the insertion order of both operands' terms, so
    its floats are bit-identical to those of the plain double loop over
    ``terms`` (see the module docstring).
    """

    __slots__ = ("dim", "order", "terms")

    def __init__(self, dim, order, terms=None):
        self.dim = dim
        self.order = order
        self.terms = dict(terms) if terms else {}

    @classmethod
    def _adopt(cls, dim, order, terms):
        """A jet owning ``terms`` as given, without the defensive copy; only
        for dicts freshly built by jet arithmetic."""
        jet = object.__new__(cls)
        jet.dim = dim
        jet.order = order
        jet.terms = terms
        return jet

    @classmethod
    def constant(cls, value, dim, order):
        value = _scalar(value)
        if value == 0:
            return cls(dim, order)
        return cls(dim, order, {(0,) * dim: value})

    @classmethod
    def variable(cls, value, i, dim, order):
        t = {}
        value = _scalar(value)
        if value != 0:
            t[(0,) * dim] = value
        if order >= 1:
            e = tuple(1 if j == i else 0 for j in range(dim))
            t[e] = 1.0
        return cls(dim, order, t)

    # -- readout -------------------------------------------------------------

    @property
    def value(self):
        return self.terms.get((0,) * self.dim, 0.0)

    def derivative(self, alpha):
        """Partial derivative of the underlying function for multi-index alpha."""
        alpha = tuple(alpha)
        c = self.terms.get(alpha)
        if c is None:
            return 0.0
        fact = 1
        for a in alpha:
            fact *= math.factorial(a)
        return c * fact

    @property
    def grad(self):
        out = []
        for i in range(self.dim):
            e = tuple(1 if j == i else 0 for j in range(self.dim))
            out.append(self.terms.get(e, 0.0))
        return out

    @property
    def hess(self):
        h = [[0.0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                e = tuple((1 if k == i else 0) + (1 if k == j else 0)
                          for k in range(self.dim))
                v = self.terms.get(e, 0.0)
                if i == j:
                    v = 2.0 * v
                h[i][j] = v
                h[j][i] = v
        return h

    def laplacian(self):
        # the diagonal of hess, read directly: 2 * (coefficient of x_i^2)
        d = self.dim
        return sum(2.0 * self.terms.get(tuple(2 if k == i else 0 for k in range(d)), 0.0)
                   for i in range(d))

    # -- arithmetic ------------------------------------------------------------

    def _like(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError("jet dimension/order mismatch")
            return other
        return Jet.constant(other, self.dim, self.order)

    def __add__(self, other):
        other = self._like(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0.0) + c
            if s == 0 and e in t:
                del t[e]
            else:
                t[e] = s
        return Jet._adopt(self.dim, self.order, t)

    __radd__ = __add__

    def __neg__(self):
        return Jet._adopt(self.dim, self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = _scalar(other)
            if c == 0:
                return Jet(self.dim, self.order)
            return Jet._adopt(self.dim, self.order,
                              {e: v * c for e, v in self.terms.items()})
        other = self._like(other)
        table = _pair_table(self.dim, self.order)
        pairs = other.terms.items()
        t = {}
        for e1, c1 in self.terms.items():
            row = table.get(e1)
            if row is None:
                continue
            for e2, c2 in pairs:
                e = row.get(e2)
                if e is None:
                    continue
                s = t.get(e, 0.0) + c1 * c2
                if s == 0 and e in t:
                    del t[e]
                else:
                    t[e] = s
        return Jet._adopt(self.dim, self.order, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / _scalar(other))
        return self * other ** (-1)

    def __rtruediv__(self, other):
        return self ** (-1) * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(1.0, self.dim, self.order)
            base = self
            k = p
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        v = self.value
        if v == 0:
            raise ZeroDivisionError("fractional/negative power of a jet with zero value")
        derivs = []
        fall = 1.0
        for k in range(self.order + 1):
            derivs.append(fall * v ** (p - k))
            fall = fall * (p - k)
        return self.compose_series(derivs)

    def compose_series(self, derivs):
        """Compose with a scalar function given by its derivatives at self.value."""
        w = self - self.value
        acc = Jet.constant(derivs[self.order] / math.factorial(self.order),
                           self.dim, self.order)
        for k in range(self.order - 1, -1, -1):
            acc = acc * w + derivs[k] / math.factorial(k)
        return acc

    def exp(self):
        v = self.value
        e = cmath.exp(v) if isinstance(v, complex) else math.exp(v)
        return self.compose_series([e] * (self.order + 1))

    def log(self):
        v = self.value
        if isinstance(v, complex) or v <= 0:
            raise ValueError("log of a jet requires a positive value part")
        derivs = [math.log(v)]
        for k in range(1, self.order + 1):
            derivs.append((-1.0) ** (k - 1) * math.factorial(k - 1) / v ** k)
        return self.compose_series(derivs)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


def coordinate_jets(point, order=2):
    """Identity-function jets at a point: the seeds for all evaluations."""
    point = tuple(point)
    d = len(point)
    return [Jet.variable(x, i, d, order) for i, x in enumerate(point)]
