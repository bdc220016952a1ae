"""Reference routes that the tests compare the library against.

The library builds the families in the reduced X^i P^j L^k basis of
``covop.juhl``.  These are the generic routes it replaced, computed in the
ring ``Poly`` of multivariate polynomials over Q (also the oracle of a test
function's prefactor): the Fraction ``DiffOp`` with exact Leibniz
composition and restriction, the one-step operator as one, the family
expanded from the classes of ``juhl.iterated``, applying a ``DiffOp`` to a
polynomial, partial derivatives, the shift lam -> lam + t, evaluating a
coefficient at a value, a polynomial in lam to and from its ascending
coefficients, writing a polynomial as the exact triples of a document and
parsing an operator or coefficient document back, writing a restricted
operator in the tangential basis with a zero-residual certificate, and the
normal form of a symbol coefficient by Euclid at every degree, normalizing
again after the numerator's content is taken out; and the Hessian of a jet,
whose diagonal the library reads directly, the series of log that composes
a jet's logarithm, and the truncated product of two jets' coefficients as
the plain double loop in exact arithmetic; and the n = 1 Knapp-Stein
quadrature with its fold evaluated one node at a time.  They enumerate the
multi-indices of Lap'^s themselves, so a test that uses them does not rest
on ``juhl.lap_prime_prefixes``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import comb, factorial, fsum, gamma, gcd, inf, log

from covop import verify
from covop.cli import op_vars
from covop.juhl import iterated, pretty_terms
from covop.symbolcalc import _as_fraction, _udivmod, _ugcd


class NonTangentialForm(Exception):
    """Raised when a restricted operator is not in the tangential span
    a_0 d_n^N + a_1 d_n^(N-2) Lap' + ... (certified by a nonzero residual)."""


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

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.vars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

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

    def evaluate(self, values):
        """Evaluate at a full assignment (one value per variable): the terms
        summed in order from 0, each term c times each value e_i times in
        index order.  Exact with Fractions; generic over floats, jets and
        arrays."""
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

    def pretty(self):
        return pretty_terms(self.vars, self.terms)

    def __repr__(self):
        return f"Poly({self.pretty()})"


def weak_compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
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


def partial(p, name):
    """Formal partial derivative of the Poly p in the named variable."""
    i = p.vars.index(name)
    return Poly(p.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                         for e, c in p.terms.items() if e[i]})


def shift_var(p, name, offset):
    """Substitute ``name -> name + offset`` in the Poly p with exact binomial
    expansion."""
    i = p.vars.index(name)
    offset = _as_fraction(offset)
    res = Poly.zero(p.vars)
    for e, c in p.terms.items():
        k = e[i]
        for j in range(k + 1):
            ne = e[:i] + (j,) + e[i + 1:]
            res = res + Poly(p.vars, {ne: c * comb(k, j) * offset ** (k - j)})
    return res


def lam_poly(coeffs):
    """The one-variable Poly in lam of the ascending coefficients ``coeffs``."""
    return Poly(("lam",), {(k,): c for k, c in enumerate(coeffs)})


def lam_coeffs(p):
    """The Poly p, which may involve lam alone, as the tuple of its ascending
    lam coefficients with no trailing zero, each an int when it is one: the
    form of ``juhl``'s polynomials in lam."""
    i = p.vars.index("lam")
    if any(x for e in p.terms for j, x in enumerate(e) if j != i):
        raise ValueError("polynomial involves variables other than lam")
    out = [0] * (max((e[i] for e in p.terms), default=-1) + 1)
    for e, c in p.terms.items():
        out[e[i]] = c.numerator if c.denominator == 1 else c
    return tuple(out)


class DiffOp:
    """Differential operator sum_alpha c_alpha(lam, xi) d^alpha on R^n, each
    c_alpha a Poly over op_vars(n); zero coefficients are dropped.  Operators
    act on the left, so A.compose(B) applies B first."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {tuple(a): c for a, c in (terms or {}).items() if c}

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def shift_lambda(self, offset):
        """Substitute lam -> lam + offset in every coefficient."""
        return DiffOp(self.n, {a: shift_var(p, "lam", offset)
                               for a, p in self.terms.items()})

    def compose(self, other):
        """Exact operator product self o other (other applied first):
        (p d^a) o (q d^b) = p * sum_{g<=a} binom(a,g) (d^g q) d^(a-g+b)."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        vars_ = op_vars(self.n)
        res = {}
        dcache = {}  # partial derivatives of the right factor's coefficients

        def deriv(b, q, g):
            got = dcache.get((b, g))
            if got is None:
                if not any(g):
                    got = q
                else:
                    i = next(j for j, x in enumerate(g) if x > 0)
                    got = partial(deriv(b, q, g[:i] + (g[i] - 1,) + g[i + 1:]), vars_[i + 1])
                dcache[b, g] = got
            return got

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
                    res[alpha] = contrib if s is None else s + contrib
        return DiffOp(self.n, res)

    def restrict(self):
        """Evaluate every coefficient at xi_n = 0, i.e. keep the terms free of
        xi_n; derivative indices are kept (normal derivatives act before
        restriction)."""
        slot = self.n  # position of xi_n in op_vars(n)
        return DiffOp(self.n, {a: Poly(c.vars, {e: v for e, v in c.terms.items() if not e[slot]})
                               for a, c in self.terms.items()})


def one_step(n):
    """The order-2 operator (2*lam - n + 2) d_n + xi_n * Lap on R^n."""
    vars_ = op_vars(n)
    lam = Poly.variable("lam", vars_)
    xin = Poly.variable(f"xi{n}", vars_)
    terms = {(0,) * (n - 1) + (1,): 2 * lam + (2 - n)}
    for j in range(n):
        alpha = tuple(2 if i == j else 0 for i in range(n))
        terms[alpha] = terms.get(alpha, Poly.zero(vars_)) + xin
    return DiffOp(n, terms)


@lru_cache(maxsize=None)
def expand(n, N):
    """The classes of ``juhl.iterated(n, N)`` expanded to a DiffOp:
    d^(2m', a) has the coefficient multinomial(m') * F(s, a), |m'| = s,
    with the terms in the order of (s, a), then ascending m'."""
    vars_, zeros = op_vars(n), (0,) * (n - 1)
    terms = {}
    for (s, a), coeff in sorted(iterated(n, N).items()):
        for m in weak_compositions(s, n - 1):
            w = multinomial(m)
            terms[tuple(2 * x for x in m) + (a,)] = Poly(
                vars_, {(deg,) + zeros + (i,): w * c for (deg, i), c in sorted(coeff.items())})
    return DiffOp(n, terms)


def poly_to_triples(p):
    """[(exponent vector, numerator string, denominator string)] of the Poly
    p, sorted by exponent vector: the ``poly`` and ``coeff`` fields of the
    JSON documents."""
    return [[list(e), str(c.numerator), str(c.denominator)]
            for e, c in sorted(p.terms.items())]


def poly_from_triples(variables, triples):
    """The Poly of [(exponent vector, numerator, denominator)] triples."""
    return Poly(tuple(variables), {tuple(exps): Fraction(int(num), int(den))
                                   for exps, num, den in triples})


def operator_from_dict(d):
    """The DiffOp of an ``operator`` JSON document."""
    variables = tuple(d["variables"])
    return DiffOp(d["n"], {tuple(t["alpha"]): poly_from_triples(variables, t["coeff"])
                           for t in d["terms"]})


def apply(D, p):
    """Exact polynomial D(p) for p over the same variable list."""
    if p.vars != op_vars(D.n):
        raise ValueError("polynomial has incompatible variable list")
    res = Poly.zero(p.vars)
    for alpha, coeff in D.terms.items():
        dp = p
        for i, k in enumerate(alpha):
            for _ in range(k):
                dp = partial(dp, p.vars[i + 1])
            if not dp:
                break
        if dp:
            res = res + coeff * dp
    return res


def subs_value(p, name, value):
    """Substitute an exact rational value for one variable of p.

    The variable list is kept unchanged (the exponent slot drops to 0),
    which is what hyperplane restriction of operator coefficients needs.
    """
    i = p.vars.index(name)
    value = _as_fraction(value)
    res = {}
    for e, c in p.terms.items():
        ne = e[:i] + (0,) + e[i + 1:]
        s = res.get(ne, Fraction(0)) + c * value ** e[i]
        if s:
            res[ne] = s
        elif ne in res:
            del res[ne]
    out = Poly.__new__(Poly)
    out.vars = p.vars
    out.terms = res
    return out


def decompose_tangential(D, N):
    """Write a restricted, constant-coefficient operator in the tangential
    basis d_n^(N-2j) Lap'^j by exact symbol matching.

    Reads each a_j off the monomial eta_1^(2j) eta_n^(N-2j), subtracts the
    full expansion, and demands the residual be exactly zero; a nonzero
    residual raises NonTangentialForm, so success is a certificate that the
    input lies in the tangential span.
    """
    n = D.n
    # coefficients must be constant in all xi variables and polynomial in lam;
    # xi_i is slot i of op_vars(n)
    working = {}
    for alpha, coeff in D.terms.items():
        for i in range(1, n + 1):
            if any(e[i] for e in coeff.terms):
                raise NonTangentialForm(
                    f"coefficient of {alpha} depends on xi{i}")
        working[alpha] = coeff

    vars_ = op_vars(n)
    coeffs = []
    for j in range(N // 2 + 1):
        if n == 1:
            # no tangential directions: only the pure normal term survives
            if j > 0:
                coeffs.append(())
                continue
            probe = (N,)
        else:
            probe = (2 * j,) + (0,) * (n - 2) + (N - 2 * j,)
        a_j = working.get(probe, Poly.zero(vars_))
        coeffs.append(lam_coeffs(a_j))
        if not a_j:
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
    return tuple(coeffs)


def _euclid_normal_form(num, den):
    """num/den by the Fraction Euclid whatever the degrees: the gcd divided
    out, then both sides divided by the leading coefficient of the
    denominator, so 0 comes out as ()/(1,)."""
    num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
    for p in (num, den):
        while p and not p[-1]:
            p.pop()
    if not num:
        return [], [Fraction(1)]
    g = _ugcd(num, den)
    num, _ = _udivmod(num, g)
    den, _ = _udivmod(den, g)
    lc = den[-1]
    return [c / lc for c in num], [c / lc for c in den]


def symcoeff_normal_form(num, den=(1,), two_a=0, two_b=0, pi_half=0, i_pow=0):
    """(num, den, two_a, two_b, pi_half, i_pow) of the SymCoeff
    num/den * 2^(two_a + two_b lam) pi^(pi_half/2) i^i_pow, from ascending
    coefficients: normalized by Euclid at every degree, then the signed
    rational content of the numerator taken out by dividing the numerator
    and normalizing again, its 2-part added to two_a and its sign to i_pow."""
    num, den = _euclid_normal_form(num, den)
    if not num:
        return (), (Fraction(1),), Fraction(0), Fraction(0), Fraction(0), 0
    g, l = 0, 1
    for c in num:
        g = gcd(g, abs(c.numerator))
        l = l * c.denominator // gcd(l, c.denominator)
    content = Fraction(g, l) if num[-1] > 0 else Fraction(-g, l)
    # 2-adic valuation by halving
    v, top, bottom = 0, content.numerator, content.denominator
    while top % 2 == 0:
        top, v = top // 2, v + 1
    while bottom % 2 == 0:
        bottom, v = bottom // 2, v - 1
    sign = 1 if content > 0 else -1
    num, den = _euclid_normal_form([c * (sign * Fraction(2) ** -v) for c in num], den)
    return (tuple(num), tuple(den), Fraction(two_a) + v, Fraction(two_b),
            Fraction(pi_half), (i_pow + (2 if sign < 0 else 0)) % 4)


def hess(jet):
    """The Hessian of the function a jet of order >= 2 expands, as a list of
    rows, read off its degree-2 coefficients (the diagonal ones doubled)."""
    h = [[0.0] * jet.dim for _ in range(jet.dim)]
    for i in range(jet.dim):
        for j in range(i, jet.dim):
            e = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(jet.dim))
            v = jet.terms.get(e, 0.0)
            if i == j:
                v = 2.0 * v
            h[i][j] = v
            h[j][i] = v
    return h


def log_series(v, order):
    """The derivatives of log at v > 0, orders 0..order: composed with a jet
    of value part v, they give the jet's logarithm."""
    return [log(v)] + [(-1.0) ** (k - 1) * factorial(k - 1) / v ** k
                       for k in range(1, order + 1)]


def exact_terms(jet):
    """A jet's nonzero coefficients, each as the exact pair (real, imag) of
    Fractions."""
    return {e: (Fraction(complex(c).real), Fraction(complex(c).imag))
            for e, c in jet.terms.items()}


def exact_product(s, t, order):
    """The truncated product of the exact coefficient dicts s and t (as
    ``exact_terms`` gives them) of two jets: the plain double loop over every
    pair, a sum above the order dropped with its product.  Zero results are
    dropped."""
    out = {}
    for e1, (x1, y1) in s.items():
        for e2, (x2, y2) in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > order:
                continue
            x, y = out.get(e, (0, 0))
            out[e] = (x + x1 * x2 - y1 * y2, y + x1 * y2 + y1 * x2)
    return {e: c for e, c in out.items() if c != (0, 0)}


def scalar_knapp_stein_n1(lam, func, point, quad_tol):
    """``verify.knapp_stein_value`` at n = 1 on its quadrature route, one
    node at a time: the fold d^(2 lam - 2) (func(x + d) + func(x - d)) is
    evaluated at each float node of ``verify._de_level`` in turn, and the
    levels are summed and stopped as ``verify._de_quad`` does."""
    bump, center, k, _ = verify._bump_image(func)
    x = point[0]
    s = 2.0 * lam - 2.0
    b = abs(x - center[0]) + bump.effective_radius(1e-18) * k + 1.0
    half, scale = 0.5 * b, max(1.0, b)
    parts = []
    cur = inf
    for level in range(verify.DE_MAX_LEVEL + 1):
        das, ws = verify._de_level(level)
        for da, w in zip(das, ws):
            d = half * da
            parts.append(w * (d ** s * (func.eval_generic([x + d])
                                        + func.eval_generic([x - d]))))
        prev, cur = cur, half * 2.0 ** -level * fsum(parts)
        if abs(cur - prev) <= quad_tol * max(scale, abs(cur)):
            return cur / gamma(lam - 0.5)
    raise verify.QuadratureBudgetExceeded(f"no convergence on [0, {b:g}]")
