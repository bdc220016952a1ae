"""Exact arithmetic: multivariate polynomials and rational functions over Q.

Everything downstream (the coefficients of the operator families, the
Fourier-symbol algebra) reduces to identities in these rings, so coefficients
are arbitrary-precision rationals throughout.

A RationalFunction is kept in one normal form: denominator monic, numerator
and denominator coprime, and zero stored as 0/1.  Building one runs the
Fraction Euclid only when both sides have degree >= 1; with a constant side
the gcd is 1.  A product with an int or Fraction scales the numerator and
does not renormalize, since a unit factor keeps the normal form.
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


# -- univariate division (for rational-function normalization) ------------


def _udivmod(a, b):
    if len(b) == 1 and not b[0]:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and not a[-1]:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, bc in enumerate(b):
            a[i + k] -= f * bc
        a.pop()
    while len(a) > 1 and not a[-1]:
        a.pop()
    if not a:
        a = [Fraction(0)]
    return q, a


def _ugcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, r = _udivmod(a, b)
        a, b = b, r
    if not any(a):
        return [Fraction(1)]
    lc = a[-1]
    return [c / lc for c in a]


class RationalFunction:
    """Quotient of one-variable polynomials over Q, kept in normal form:
    denominator monic and coprime to the numerator, and zero stored as 0/1.

    Euclid runs only when both sides have degree >= 1.  A nonzero constant
    is a unit, so with a constant side the gcd is 1 and normalizing is at
    most one division by the leading coefficient of the denominator.
    """

    __slots__ = ("num", "den", "var")

    def __init__(self, num, den=None, var="lam"):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num, (var,))
        if den is None:
            den = Poly.const(1, num.vars[0:1])
        if isinstance(den, (int, Fraction)):
            den = Poly.const(den, num.vars)
        if num.vars != den.vars or len(num.vars) != 1:
            raise ValueError("numerator and denominator must share one variable")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.var = num.vars[0]
        nc, dc = num.to_univariate(self.var), den.to_univariate(self.var)
        if len(nc) > 1 and len(dc) > 1:
            g = _ugcd(nc, dc)
            if len(g) > 1:
                nc, _ = _udivmod(nc, g)
                dc, _ = _udivmod(dc, g)
        elif num.is_zero():
            dc = [Fraction(1)]
        lc = dc[-1]
        if lc != 1:
            nc = [c / lc for c in nc]
            dc = [c / lc for c in dc]
        self.num = Poly.from_univariate(nc, self.var)
        self.den = Poly.from_univariate(dc, self.var)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.to_univariate(self.var) == [Fraction(1)]

    def __eq__(self, other):
        """Cross-multiplied identity of rational functions."""
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction(other if isinstance(other, Poly) else
                                     Poly.const(other, (self.var,)))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a nonzero constant multiplies the numerator alone, which keeps
            # the normal form
            if not other:
                return RationalFunction(0, var=self.var)
            out = RationalFunction.__new__(RationalFunction)
            out.var = self.var
            out.num = self.num * other
            out.den = self.den
            return out
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(Poly.const(other, (self.var,)))
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def shift(self, offset):
        """Substitute ``lam -> lam + offset``."""
        return RationalFunction(self.num.shift_var(self.var, offset),
                                self.den.shift_var(self.var, offset))

    def reflect(self, point):
        """Substitute ``lam -> point - lam``."""
        def flip(p):
            c = p.shift_var(self.var, point).to_univariate(self.var)
            return Poly.from_univariate([(-1) ** k * x for k, x in enumerate(c)], self.var)
        return RationalFunction(flip(self.num), flip(self.den))

    def pretty(self):
        if self.is_polynomial():
            return self.num.pretty()
        return f"({self.num.pretty()})/({self.den.pretty()})"

    def __repr__(self):
        return f"RationalFunction({self.pretty()})"
