"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A jet stores the Taylor coefficients of a smooth function at a point up to a
fixed total order, so derivatives obtained from composed jets are exact up to
rounding -- no finite-difference step-size tuning anywhere.  Order 2 covers
the second-order operators; higher orders are used when composed operator
families are evaluated numerically.  A jet holds floats or complex values;
``exp`` takes a real value part.

Nothing here reorders a float operation; the speed comes from not redoing
work.  Seeded reports print errors with full ``repr``, so a reordered sum
would change their bytes.  Dense or batched coefficient arrays would sum in
another order, which is why jets stay dicts.

* Product plans.  For each (dim, order) a pair table ``{e1: {e2: e1 + e2}}``
  over the jet's key set keeps only the pairs whose sum stays in it
  (Griewank--Walther, *Evaluating Derivatives*, SIAM 2008, ch. 13).  A
  product walks its two operands' terms in insertion order, and which pairs
  it hits depends only on the two key sequences, so those hits are cached
  as a plan keyed by the ordered keys.  A product then walks the plan over
  the two value lists: the same additions, in the same order, as the plain
  double loop, without visiting the pairs above the order (at (6, 2), 56 of
  the 420 pairs of a Horner step land within it).
* Pure jets.  A jet built with ``pure=True`` keeps only the keys 0 and
  k e_i, 1 <= k <= order: the value, the gradient and the pure partials
  d_i^k, all that a second-order operator without mixed terms reads.  That
  key set is downward closed, so the hits e1 + e2 = e on a kept key e,
  which all have e1 <= e and e2 <= e, are the full jet's hits on e, met in
  the same order; each kept key is deleted and re-inserted at the same
  moments as in the full jet.  Every kept coefficient is therefore the
  full jet's, bit for bit and in the same key order, for sums, products,
  powers, quotients and ``compose_series`` alike, and a product skips the
  mixed pairs (at (6, 2), 31 of the 91 pairs of a product).  A pure jet
  refuses a mixed partial, and mixing a pure jet with a full one.
* A fused Horner step.  ``compose_series`` builds w = self - value and each
  step acc * w + c_k on the term dicts, through the plan, and adds the
  constants as ``+ Jet.constant(c)`` would; no constant jets or copies are
  made, and the floats are those of the jet operators.  ``jet + c`` and
  ``jet - c`` for a scalar c add to the constant key the same way.
* A memoized reciprocal.  Jets are never mutated after construction, so
  ``a / b`` and ``c / b`` share one ``b ** -1``, computed on the first
  quotient by b; a recomputation would give the same bits.  Call sites do
  not hoist ``1 / b`` themselves: the formulas are generic over floats,
  where ``c / b`` and ``c * (1 / b)`` differ in the last bit.
"""

import functools
import math


def _exponents(dim, order):
    """Every multi-index of length dim and total degree <= order."""
    if dim == 0:
        return [()]
    return [(a,) + rest for a in range(order + 1)
            for rest in _exponents(dim - 1, order - a)]


@functools.cache
def _pair_table(dim, order, pure):
    """{e1: {e2: e1 + e2}} for every pair of kept keys whose sum is kept.
    A jet keeps every multi-index of total degree <= order, and a pure jet
    only those that are not mixed: 0 and the k e_i, 1 <= k <= order.

    A multi-index missing as a row or as an entry has its product outside
    the key set, which truncation drops.  Shared by every product at this
    shape; never mutated.
    """
    keys = [e for e in _exponents(dim, order) if not (pure and _is_mixed(e))]
    kept = set(keys)
    table = {}
    for e1 in keys:
        row = table[e1] = {}
        for e2 in keys:
            e = tuple(a + b for a, b in zip(e1, e2))
            if e in kept:
                row[e2] = e
    return table


@functools.lru_cache(maxsize=4096)
def _product_plan(dim, order, pure, keys1, keys2):
    """The hits of the double loop over keys1 x keys2 whose exponent sum
    stays in the key set, in that loop's order: rows (i, ((j, e, first),
    ...)) for the terms keys1[i] and keys2[j] with sum e, where ``first``
    marks the first hit on e.

    The keys are the operands' terms in insertion order.  A plan keyed by
    their set would walk them in another order and sum in another order.
    The cache is bounded because the keys follow the values a little: a
    coefficient that cancels to 0 is deleted and re-inserted last.
    """
    table = _pair_table(dim, order, pure)
    plan = []
    seen = set()
    for i, e1 in enumerate(keys1):
        row = table.get(e1)
        if row is None:
            continue
        hits = []
        for j, e2 in enumerate(keys2):
            e = row.get(e2)
            if e is not None:
                hits.append((j, e, e not in seen))
                seen.add(e)
        if hits:
            plan.append((i, tuple(hits)))
    return tuple(plan)


def _mul_terms(dim, order, pure, a, b):
    """The truncated product of the term dicts a and b.

    It does the float operations of the double loop over a and b, in its
    order.  On the first hit on a key the loop adds the product to the 0.0
    that ``t.get`` returns and, as no key can be deleted before it is
    inserted, stores the sum: that is ``0.0 + c1 * c2`` here too.
    """
    plan = _product_plan(dim, order, pure, tuple(a), tuple(b))
    v1 = list(a.values())
    v2 = list(b.values())
    t = {}
    for i, hits in plan:
        c1 = v1[i]
        for j, e, first in hits:
            if first:
                t[e] = 0.0 + c1 * v2[j]
                continue
            s = t.get(e, 0.0) + c1 * v2[j]
            if s == 0 and e in t:
                del t[e]
            else:
                t[e] = s
    return t


def _add_constant(t, z, c):
    """t + c in place, as ``+ Jet.constant(c)`` sums and deletes."""
    if c == 0:
        return
    s = t.get(z, 0.0) + c
    if s == 0 and z in t:
        del t[z]
    else:
        t[z] = s


@functools.cache
def _units(dim):
    """The multi-indices e_i of the first partials."""
    return tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))


@functools.cache
def _squares(dim):
    """The multi-indices 2 e_i of the pure second partials."""
    return tuple(tuple(2 * a for a in e) for e in _units(dim))


def _is_mixed(e):
    """Whether the multi-index e has more than one nonzero entry."""
    return sum(1 for a in e if a) > 1


class Jet:
    """Taylor coefficients {multi-index: value} of a function at a point.

    ``terms[alpha]`` is the coefficient of prod (x_i - p_i)^alpha_i, i.e.
    the partial derivative divided by alpha!.  Values may be real or complex.
    A pure jet (``pure=True``) keeps only the value and the pure partials
    d_i^k: the full jet's coefficients at those keys, bit for bit and in the
    same key order.  It refuses a mixed multi-index, and the flag carries to
    every jet computed from it.

    A product walks the cached plan of its operands' key sequences, so its
    floats are bit-identical to those of the plain double loop over
    ``terms``; a jet keeps its reciprocal once a quotient has needed it
    (see the module docstring).  Jets are never mutated after construction.
    """

    __slots__ = ("dim", "order", "pure", "terms", "_recip")

    def __init__(self, dim, order, terms=None, pure=False):
        self.dim = dim
        self.order = order
        self.pure = pure
        self.terms = dict(terms) if terms else {}
        for e in self.terms:
            if len(e) != dim:
                raise ValueError(f"multi-index {e} needs {dim} entries")
            if pure and _is_mixed(e):
                raise ValueError(f"a pure jet has no mixed multi-index {e}")

    @classmethod
    def _adopt(cls, dim, order, pure, terms):
        """A jet owning ``terms`` as given, without the defensive copy; only
        for dicts freshly built by jet arithmetic."""
        jet = object.__new__(cls)
        jet.dim = dim
        jet.order = order
        jet.pure = pure
        jet.terms = terms
        return jet

    def _with(self, terms):
        """A jet of this one's shape owning ``terms``, as ``_adopt``."""
        return Jet._adopt(self.dim, self.order, self.pure, terms)

    @classmethod
    def constant(cls, value, dim, order, pure=False):
        return cls._adopt(dim, order, pure, {(0,) * dim: value} if value != 0 else {})

    @classmethod
    def variable(cls, value, i, dim, order, pure=False):
        t = {}
        if value != 0:
            t[(0,) * dim] = value
        if order >= 1:
            t[_units(dim)[i]] = 1.0
        return cls._adopt(dim, order, pure, t)

    # -- readout -------------------------------------------------------------

    @property
    def value(self):
        return self.terms.get((0,) * self.dim, 0.0)

    def derivative(self, alpha):
        """Partial derivative of the underlying function for multi-index
        alpha; a pure jet refuses a mixed alpha, whose derivative it does
        not hold."""
        alpha = tuple(alpha)
        c = self.terms.get(alpha)
        if c is None:
            # every key has dim entries, and a pure jet no mixed one, so only
            # a miss can be a bad index
            if len(alpha) != self.dim:
                raise ValueError(f"multi-index {alpha} needs {self.dim} entries")
            if self.pure and _is_mixed(alpha):
                raise ValueError(f"a pure jet has no mixed partial {alpha}")
            return 0.0
        fact = 1
        for a in alpha:
            fact *= math.factorial(a)
        return c * fact

    @property
    def grad(self):
        get = self.terms.get
        return [get(e, 0.0) for e in _units(self.dim)]

    def laplacian(self):
        # the diagonal of the Hessian: 2 * (coefficient of x_i^2)
        get = self.terms.get
        return sum(2.0 * get(e, 0.0) for e in _squares(self.dim))

    # -- arithmetic ------------------------------------------------------------

    def _like(self, other):
        if isinstance(other, Jet):
            if (other.dim, other.order, other.pure) != (self.dim, self.order, self.pure):
                raise ValueError("jet dimension/order/purity mismatch")
            return other
        return Jet.constant(other, self.dim, self.order, self.pure)

    def __add__(self, other):
        t = dict(self.terms)
        if not isinstance(other, Jet):
            # as + Jet.constant(other) sums and deletes
            _add_constant(t, (0,) * self.dim, other)
            return self._with(t)
        for e, c in self._like(other).terms.items():
            s = t.get(e, 0.0) + c
            if s == 0 and e in t:
                del t[e]
            else:
                t[e] = s
        return self._with(t)

    __radd__ = __add__

    def __neg__(self):
        return self._with({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            # as + (-Jet.constant(other)): the negated constant, summed
            t = dict(self.terms)
            _add_constant(t, (0,) * self.dim, -other)
            return self._with(t)
        return self + (-self._like(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if other == 0:
                return self._with({})
            return self._with({e: v * other for e, v in self.terms.items()})
        other = self._like(other)
        return self._with(_mul_terms(self.dim, self.order, self.pure,
                                     self.terms, other.terms))

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

        Horner's rule in w = self - value, each step acc * w + derivs[k]/k!
        done on the term dicts with the same float operations as the jet
        operators would do."""
        dim, order, pure = self.dim, self.order, self.pure
        z = (0,) * dim
        w = dict(self.terms)
        _add_constant(w, z, -self.value)
        acc = {}
        _add_constant(acc, z, derivs[order] / math.factorial(order))
        for k in range(order - 1, -1, -1):
            acc = _mul_terms(dim, order, pure, acc, w)
            _add_constant(acc, z, derivs[k] / math.factorial(k))
        return self._with(acc)

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
