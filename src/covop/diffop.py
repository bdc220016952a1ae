"""Differential operators on R^n with polynomial coefficients.

Operators are finite maps from derivative multi-indices to polynomial
coefficients in the spectral parameter lam and the coordinates xi_1..xi_n.
Composition is the exact Leibniz product; restriction evaluates coefficients
on the hyperplane xi_n = 0 while keeping normal derivatives as transversal
derivatives acting before restriction.
"""

from fractions import Fraction
from itertools import product as _cartesian
from math import comb

from .algebra import Poly


def op_vars(n):
    """Coefficient-ring variables for operators on R^n: (lam, xi1..xin)."""
    return ("lam",) + tuple(f"xi{i}" for i in range(1, n + 1))


class DiffOp:
    """Differential operator sum_alpha c_alpha(lam, xi) d^alpha on R^n.

    Treated as immutable; all operations return new instances.  Operators act
    on the left, so ``A * B`` (alias of :meth:`compose`) applies B first.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        vars_ = op_vars(n)
        clean = {}
        if terms:
            for alpha, coeff in terms.items():
                alpha = tuple(alpha)
                if len(alpha) != n or any(a < 0 for a in alpha):
                    raise ValueError(f"bad multi-index {alpha} for n={n}")
                if coeff.vars != vars_:
                    raise ValueError("coefficient has wrong variable list")
                if coeff:
                    clean[alpha] = coeff
        self.terms = clean

    @classmethod
    def identity(cls, n):
        return cls(n, {(0,) * n: Poly.const(1, op_vars(n))})

    @classmethod
    def zero(cls, n):
        return cls(n)

    @property
    def order(self):
        return max((sum(a) for a in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        for a, c in other.terms.items():
            s = res.get(a)
            s = c if s is None else s + c
            if s:
                res[a] = s
            elif a in res:
                del res[a]
        out = DiffOp.__new__(DiffOp)
        out.n = self.n
        out.terms = res
        return out

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return DiffOp(self.n, {a: p * c for a, p in self.terms.items()})

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def shift_lambda(self, offset):
        """Substitute lam -> lam + offset in every coefficient."""
        return DiffOp(self.n, {a: p.shift_var("lam", offset)
                               for a, p in self.terms.items()})

    # -- composition and restriction -----------------------------------------

    def compose(self, other):
        """Exact operator product self o other (other applied first):
        (p d^a) o (q d^b) = p * sum_{g<=a} binom(a,g) (d^g q) d^(a-g+b)."""
        self._check(other)
        n = self.n
        vars_ = op_vars(n)
        res = {}
        # cache of partial derivatives of the right factor's coefficients
        dcache = {}

        def deriv(b, q, g):
            key = (b, g)
            got = dcache.get(key)
            if got is not None:
                return got
            if all(x == 0 for x in g):
                dcache[key] = q
                return q
            i = next(j for j, x in enumerate(g) if x > 0)
            gm = g[:i] + (g[i] - 1,) + g[i + 1:]
            d = deriv(b, q, gm).partial(vars_[i + 1])
            dcache[key] = d
            return d

        for a, p in self.terms.items():
            for b, q in other.terms.items():
                for g in _cartesian(*(range(ai + 1) for ai in a)):
                    dq = deriv(b, q, g)
                    if not dq:
                        continue
                    binom = 1
                    for ai, gi in zip(a, g):
                        binom *= comb(ai, gi)
                    alpha = tuple(ai - gi + bi for ai, gi, bi in zip(a, g, b))
                    contrib = p * dq * binom
                    s = res.get(alpha)
                    s = contrib if s is None else s + contrib
                    if s:
                        res[alpha] = s
                    elif alpha in res:
                        del res[alpha]
        return DiffOp(n, res)

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return self.compose(other)
        return NotImplemented

    def restrict(self):
        """Evaluate every coefficient at xi_n = 0, i.e. keep the terms free of
        xi_n; derivative indices are kept (normal derivatives act before
        restriction)."""
        slot = self.n  # position of xi_n in op_vars(n)
        out = {}
        for a, c in self.terms.items():
            kept = {e: v for e, v in c.terms.items() if not e[slot]}
            if kept:
                out[a] = Poly(c.vars, kept)
        return DiffOp(self.n, out)

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for a in sorted(self.terms, reverse=True):
            c = self.terms[a]
            ds = "".join(f"∂{i + 1}^{k}" if k > 1 else f"∂{i + 1}"
                         for i, k in enumerate(a) if k)
            cs = c.pretty()
            if "+" in cs or " - " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}·{ds}" if ds else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp(n={self.n}, {self.pretty()})"
