"""Differential operators on R^n with polynomial coefficients.

Operators are finite maps from derivative multi-indices to polynomial
coefficients in the spectral parameter lam and the coordinates xi_1..xi_n.
Composition is the exact Leibniz product; restriction evaluates coefficients
on the hyperplane xi_n = 0 while keeping normal derivatives as transversal
derivatives acting before restriction.
"""

from fractions import Fraction
from itertools import product as _cartesian
from math import comb, factorial

from .algebra import Poly


class NonTangentialForm(Exception):
    """Raised when a restricted operator is not in the tangential span
    a_0 d_n^N + a_1 d_n^(N-2) Lap' + ... (certified by a nonzero residual)."""


def op_vars(n):
    """Coefficient-ring variables for operators on R^n: (lam, xi1..xin)."""
    return ("lam",) + tuple(f"xi{i}" for i in range(1, n + 1))


def weak_compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def multinomial(parts):
    total = sum(parts)
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


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

    # -- composition and application ----------------------------------------

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

    def apply(self, p):
        """Exact polynomial D(p) for p over the same variable list."""
        if p.vars != op_vars(self.n):
            raise ValueError("polynomial has incompatible variable list")
        res = Poly.zero(p.vars)
        for alpha, coeff in self.terms.items():
            dp = p
            for i, k in enumerate(alpha):
                for _ in range(k):
                    dp = dp.partial(p.vars[i + 1])
                if not dp:
                    break
            if dp:
                res = res + coeff * dp
        return res

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


class TangentialOp:
    """Hyperplane operator sum_j a_j d_n^(N-2j) Lap'^j followed by restriction;
    each coefficient a_j is a one-variable Poly in lam."""

    __slots__ = ("n", "N", "coeffs")

    def __init__(self, n, N, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != N // 2 + 1:
            raise ValueError("need floor(N/2)+1 coefficients")
        self.n = n
        self.N = N
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, TangentialOp):
            return NotImplemented
        return (self.n, self.N) == (other.n, other.N) and \
            all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def pretty(self):
        parts = []
        for j, a in enumerate(self.coeffs):
            ds = []
            if self.N - 2 * j:
                ds.append(f"∂n^{self.N - 2 * j}" if self.N - 2 * j > 1 else "∂n")
            if j:
                ds.append(f"Δ'^{j}" if j > 1 else "Δ'")
            head = "·".join(ds) if ds else "1"
            parts.append(f"({a.pretty()})·{head}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TangentialOp(n={self.n}, N={self.N}, {self.pretty()})"


def decompose_tangential(D, N):
    """Write a restricted, constant-coefficient operator in the tangential
    basis d_n^(N-2j) Lap'^j by exact symbol matching.

    Reads each a_j off the monomial eta_1^(2j) eta_n^(N-2j), subtracts the
    full expansion, and demands the residual be exactly zero; a nonzero
    residual raises NonTangentialForm, so success is a certificate that the
    input lies in the tangential span.
    """
    n = D.n
    # coefficients must be constant in all xi variables and polynomial in lam
    working = {}
    for alpha, coeff in D.terms.items():
        for i in range(1, n + 1):
            if coeff.degree_in(f"xi{i}") > 0:
                raise NonTangentialForm(
                    f"coefficient of {alpha} depends on xi{i}")
        working[alpha] = coeff

    vars_ = op_vars(n)
    coeffs = []
    for j in range(N // 2 + 1):
        if n == 1:
            # no tangential directions: only the pure normal term survives
            if j > 0:
                coeffs.append(Poly.zero(("lam",)))
                continue
            probe = (N,)
        else:
            probe = (2 * j,) + (0,) * (n - 2) + (N - 2 * j,)
        a_j = working.get(probe, Poly.zero(vars_))
        try:
            a_univ = Poly.from_univariate(a_j.to_univariate("lam"))
        except ValueError as exc:  # pragma: no cover - guarded above
            raise NonTangentialForm(str(exc))
        coeffs.append(a_univ)
        if a_j.is_zero():
            continue
        # subtract a_j * eta_n^(N-2j) |eta'|^(2j) expanded over monomials
        for m in weak_compositions(j, n - 1):
            alpha = tuple(2 * mi for mi in m) + (N - 2 * j,)
            s = working.get(alpha, Poly.zero(vars_)) - a_j * multinomial(m)
            if s:
                working[alpha] = s
            elif alpha in working:
                del working[alpha]
    residual = {a: c for a, c in working.items() if c}
    if residual:
        worst = sorted(residual)[0]
        raise NonTangentialForm(
            f"residual symbol is nonzero, e.g. at multi-index {worst}")
    return TangentialOp(n, N, coeffs)
