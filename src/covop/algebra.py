"""Exact arithmetic: multivariate polynomials over Q.

The coefficients of the operator families reduce to identities in this ring,
so coefficients are arbitrary-precision rationals throughout.  The rational
functions of the Fourier-symbol algebra live in ``symbolcalc.SymCoeff``,
which prints through :func:`pretty_terms`.
"""

from fractions import Fraction
from math import comb


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _subscript_var(name):
    if name == "lam":
        return "λ"
    if name.startswith("xi"):
        return "ξ" + name[2:]
    return name


class Poly:
    """Polynomial over Q in a fixed ordered tuple of formal variables.

    ``terms`` maps dense exponent tuples (one slot per variable) to nonzero
    Fraction coefficients.  Instances are treated as immutable: every
    operation returns a fresh Poly.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError(f"exponent vector {exps} has wrong length for {self.vars}")
                c = _as_fraction(c)
                if c:
                    clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, c, vars):
        c = _as_fraction(c)
        if not c:
            return cls(vars)
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exps: Fraction(1)})

    @classmethod
    def from_univariate(cls, coeffs, name="lam"):
        """Build a one-variable Poly from ascending coefficients."""
        return cls((name,), {(k,): _as_fraction(c) for k, c in enumerate(coeffs) if c})

    # -- basic structure ---------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.vars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.vars)
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) + c
            if s:
                res[e] = s
            elif e in res:
                del res[e]
        out = Poly.__new__(Poly)
        out.vars = self.vars
        out.terms = res
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                return Poly.zero(self.vars)
            out = Poly.__new__(Poly)
            out.vars = self.vars
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check(other)
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, Fraction(0)) + c1 * c2
                if s:
                    res[e] = s
                elif e in res:
                    del res[e]
        out = Poly.__new__(Poly)
        out.vars = self.vars
        out.terms = res
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Poly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- substitution and evaluation --------------------------------------

    def shift_var(self, name, offset):
        """Substitute ``var -> var + offset`` with exact binomial expansion."""
        i = self.vars.index(name)
        offset = _as_fraction(offset)
        res = Poly.zero(self.vars)
        for e, c in self.terms.items():
            k = e[i]
            for j in range(k + 1):
                ne = e[:i] + (j,) + e[i + 1:]
                res = res + Poly(self.vars, {ne: c * comb(k, j) * offset ** (k - j)})
        return res

    def degree_in(self, name):
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def evaluate(self, values):
        """Evaluate at a full assignment (one value per variable).

        Generic over the value type: exact with Fractions, numeric with
        floats/complex, and works coordinate-wise with jets or arrays.
        """
        if len(values) != len(self.vars):
            raise ValueError("wrong number of values")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                for _ in range(k):
                    term = term * v
            total = total + term
        return total

    def to_univariate(self, name="lam"):
        """Ascending coefficient list, requiring all other variables absent."""
        i = self.vars.index(name)
        deg = self.degree_in(name)
        coeffs = [Fraction(0)] * (deg + 1)
        for e, c in self.terms.items():
            if any(e[j] for j in range(len(e)) if j != i):
                raise ValueError(f"polynomial involves variables other than {name}")
            coeffs[e[i]] = c
        return coeffs

    # -- display -----------------------------------------------------------

    def pretty(self):
        return pretty_terms(self.vars, self.terms)

    def __repr__(self):
        return f"Poly({self.pretty()})"


def pretty_terms(variables, terms):
    """Display string of {exponent tuple: rational} over ``variables``,
    highest exponent first; the text of :meth:`Poly.pretty`.

    Coefficients may be ints or Fractions, and a variable whose exponent is
    0 in every term may be left out of both arguments without changing the
    text.
    """
    if not terms:
        return "0"
    names = [_subscript_var(v) for v in variables]
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "".join(factors)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
