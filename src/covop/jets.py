"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A jet stores the Taylor coefficients of a smooth function at a point up to a
fixed total order, so derivatives obtained from composed jets are exact up to
rounding -- no finite-difference step-size tuning anywhere.  Order 2 covers
the second-order operators; higher orders are used when composed operator
families are evaluated numerically.  A jet holds floats or complex values;
``exp`` takes a real value part.

* Dense layout.  A jet is one list of coefficients in the fixed key order of
  its shape (Griewank--Walther, *Evaluating Derivatives*, SIAM 2008, ch. 13).
  A shape is cached once per (dim, order, pure) and holds the keys in
  ``_exponents`` order, value first, the key -> index map, the product rows
  ``(i, ((j, k), ...))`` of every pair of keys whose sum is the key k, the
  gradient and pure-square indices and the factorials ``derivative`` uses.
  Sums, differences and scalar operations are list comprehensions, and one
  product function walks the rows for ``*``, integer powers and every
  Horner step of ``compose_series``.  Coefficients stay Python floats or
  complex values, never numpy arrays: no operation goes through a SIMD
  dispatch, so the bits of a seeded report do not depend on the CPU.
* A skipped zero.  A product skips the row of a zero left coefficient.  Each
  sum starts at +0.0, and a sum that starts at +0.0 never becomes -0.0, as
  round-to-nearest gives -0.0 only for (-0.0) + (-0.0); adding the signed
  zero 0 * b to it therefore changes no bit, for every finite b.
* Pure jets.  A jet built with ``pure=True`` keeps only the keys 0 and
  k e_i, 1 <= k <= order: the value, the gradient and the pure partials
  d_i^k, all that a second-order operator without mixed terms reads.  Its
  shape keeps the full shape's key order, and every pair of keys that sums
  to a pure key is itself pure (both summands lie on its axis), so the rows
  of a pure key list the full shape's pairs in the full shape's order.
  Every coefficient of a pure jet is therefore the full jet's, bit for bit,
  for sums, products, powers, quotients and ``compose_series`` alike, and a
  product skips the mixed pairs (at (6, 2), 31 of the 91 pairs of a
  product).  A pure jet refuses a mixed partial, and mixing a pure jet with
  a full one.
* A memoized reciprocal.  Jets are never mutated after construction, so
  ``a / b`` and ``c / b`` share one ``b ** -1``, computed on the first
  quotient by b; a recomputation would give the same bits.  Call sites do
  not hoist ``1 / b`` themselves: the formulas are generic over floats,
  where ``c / b`` and ``c * (1 / b)`` differ in the last bit.
"""

import functools
import math
from types import MappingProxyType


def _exponents(dim, order):
    """Every multi-index of length dim and total degree <= order."""
    if dim == 0:
        return [()]
    return [(a,) + rest for a in range(order + 1)
            for rest in _exponents(dim - 1, order - a)]


def _is_mixed(e):
    """Whether the multi-index e has more than one nonzero entry."""
    return sum(1 for a in e if a) > 1


class _Shape:
    """The key set of a jet and everything its arithmetic reads off it.

    A jet keeps every multi-index of total degree <= order, and a pure jet
    only those that are not mixed.  ``rows`` lists, for each key i, the
    pairs (j, k) with keys[i] + keys[j] = keys[k]; a pair whose sum leaves
    the key set is dropped, as truncation would drop its product.  ``grad``
    and ``squares`` index the keys e_i and 2 e_i, with None where the order
    is too low to hold one.  Shared by every jet of this shape; never
    mutated.
    """

    __slots__ = ("dim", "order", "pure", "keys", "index", "rows", "grad",
                 "squares", "fact")

    def __init__(self, dim, order, pure):
        self.dim, self.order, self.pure = dim, order, pure
        self.keys = tuple(e for e in _exponents(dim, order) if not (pure and _is_mixed(e)))
        self.index = index = {e: k for k, e in enumerate(self.keys)}
        rows = []
        for i, e1 in enumerate(self.keys):
            sums = (index.get(tuple(a + b for a, b in zip(e1, e2))) for e2 in self.keys)
            rows.append((i, tuple((j, k) for j, k in enumerate(sums) if k is not None)))
        self.rows = tuple(rows)
        units = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
        self.grad = [index.get(e) for e in units]
        self.squares = [index.get(tuple(2 * a for a in e)) for e in units]
        self.fact = [math.prod(map(math.factorial, e)) for e in self.keys]

    def check(self, e, what):
        """Raise ValueError for a multi-index e that no jet of this dim and
        purity holds; ``what`` names it in the message."""
        if len(e) != self.dim:
            raise ValueError(f"{what} {e} needs {self.dim} entries")
        if self.pure and _is_mixed(e):
            raise ValueError(f"a pure jet has no mixed {what} {e}")


@functools.cache
def _shape_for(dim, order, pure):
    """The one shape of (dim, order, pure), built on first use; a seeded run
    of every suite builds 11."""
    return _Shape(dim, order, pure)


def _product(shape, a, b):
    """The truncated product of the coefficient lists a and b of a shape:
    the rows in order, each sum started at +0.0, a zero left coefficient's
    row skipped (see the module docstring)."""
    out = [0.0] * len(a)
    for i, pairs in shape.rows:
        c = a[i]
        if c:
            for j, k in pairs:
                out[k] += c * b[j]
    return out


class Jet:
    """Taylor coefficients of a function at a point, one per key of a shape.

    The coefficient of the key alpha is that of prod (x_i - p_i)^alpha_i,
    i.e. the partial derivative divided by alpha!.  Values may be real or
    complex.  ``terms`` reads them as a read-only {multi-index: value} of
    the nonzero ones, in key order.  A pure jet (``pure=True``) keeps only
    the value and the pure partials d_i^k, bit for bit the full jet's; it
    refuses a mixed multi-index, and the flag carries to every jet computed
    from it.  A jet keeps its reciprocal once a quotient has needed it (see
    the module docstring).  Jets are never mutated after construction.
    """

    __slots__ = ("_shape", "_coeffs", "_recip")

    def __init__(self, dim, order, terms=None, pure=False):
        """The jet of the coefficients ``terms`` {multi-index: value}; any
        other key's is 0.  A multi-index outside the shape (of another
        length, mixed for a pure jet, or above the order) raises
        ValueError."""
        shape = self._shape = _shape_for(dim, order, pure)
        self._coeffs = [0.0] * len(shape.keys)
        for e, c in (terms or {}).items():
            k = shape.index.get(e)
            if k is None:
                shape.check(e, "multi-index")
                raise ValueError(f"multi-index {e} is above the order {order}")
            self._coeffs[k] = c

    @classmethod
    def _of(cls, shape, coeffs):
        """A jet of ``shape`` owning ``coeffs`` as given; only for lists
        freshly built by jet arithmetic."""
        jet = object.__new__(cls)
        jet._shape = shape
        jet._coeffs = coeffs
        return jet

    @classmethod
    def constant(cls, value, dim, order, pure=False):
        shape = _shape_for(dim, order, pure)
        return cls._of(shape, [value] + [0.0] * (len(shape.keys) - 1))

    @classmethod
    def variable(cls, value, i, dim, order, pure=False):
        jet = cls.constant(value, dim, order, pure)
        if order >= 1:
            jet._coeffs[jet._shape.grad[i]] = 1.0
        return jet

    # -- readout -------------------------------------------------------------

    dim = property(lambda self: self._shape.dim)
    order = property(lambda self: self._shape.order)
    pure = property(lambda self: self._shape.pure)

    @property
    def terms(self):
        """A read-only {multi-index: value} of the nonzero coefficients."""
        return MappingProxyType({e: c for e, c in zip(self._shape.keys, self._coeffs) if c})

    @property
    def value(self):
        return self._coeffs[0]

    def derivative(self, alpha):
        """Partial derivative of the underlying function for multi-index
        alpha; a pure jet refuses a mixed alpha, whose derivative it does
        not hold."""
        alpha = tuple(alpha)
        k = self._shape.index.get(alpha)
        if k is None:
            self._shape.check(alpha, "partial")
            return 0.0
        return self._coeffs[k] * self._shape.fact[k]

    def _read(self, indices):
        """The coefficients at the indices of the shape, None reading 0."""
        return [0.0 if k is None else self._coeffs[k] for k in indices]

    @property
    def grad(self):
        return self._read(self._shape.grad)

    def hessian_diagonal(self):
        """The pure second partials d_i^2: 2 * (coefficient of x_i^2)."""
        return [2.0 * c for c in self._read(self._shape.squares)]

    def laplacian(self):
        return sum(self.hessian_diagonal())

    # -- arithmetic ------------------------------------------------------------

    def _coeffs_of(self, other):
        """other's coefficients, if other is a jet of this shape."""
        if other._shape is not self._shape:
            raise ValueError("jet dimension/order/purity mismatch")
        return other._coeffs

    def __add__(self, other):
        c = self._coeffs
        if isinstance(other, Jet):
            return self._of(self._shape, [x + y for x, y in zip(c, self._coeffs_of(other))])
        return self._of(self._shape, [c[0] + other] + c[1:])

    __radd__ = __add__

    def __neg__(self):
        return self._of(self._shape, [-x for x in self._coeffs])

    def __sub__(self, other):
        c = self._coeffs
        if isinstance(other, Jet):
            return self._of(self._shape, [x - y for x, y in zip(c, self._coeffs_of(other))])
        return self._of(self._shape, [c[0] - other] + c[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return self._of(self._shape, _product(self._shape, self._coeffs,
                                                  self._coeffs_of(other)))
        return self._of(self._shape, [x * other for x in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        """``self ** -1``, computed once per jet: a jet is never mutated, so
        every quotient by it may share the same reciprocal."""
        try:
            return self._recip
        except AttributeError:
            self._recip = self ** (-1)
            return self._recip

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(1.0, self.dim, self.order, self.pure)
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
        """Compose with a scalar function given by its derivatives at self.value.

        Horner's rule in w = self - value: each step is the product w * acc
        plus derivs[k]/k! on the value coefficient."""
        shape, order = self._shape, self.order
        w = [0.0] + self._coeffs[1:]
        acc = [derivs[order] / math.factorial(order)] + [0.0] * (len(w) - 1)
        for k in range(order - 1, -1, -1):
            acc = _product(shape, w, acc)
            acc[0] += derivs[k] / math.factorial(k)
        return self._of(shape, acc)

    def exp(self):
        """exp of the jet, for a real value part only.  A complex value part,
        which a fractional power of a negative value part gives, makes
        math.exp raise TypeError."""
        return self.compose_series([math.exp(self.value)] * (self.order + 1))

    def __repr__(self):
        return (f"Jet(dim={self.dim}, order={self.order}, pure={self.pure}, "
                f"value={self.value!r})")


def coordinate_jets(point, order=2, pure=False):
    """Identity-function jets at a point: the seeds for all evaluations;
    ``pure=True`` seeds pure jets."""
    point = tuple(point)
    d = len(point)
    return [Jet.variable(x, i, d, order, pure) for i, x in enumerate(point)]
