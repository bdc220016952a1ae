"""Reference routes that the tests compare the library against.

The library builds the families in the reduced X^i P^j L^k basis of
``covop.juhl``.  These are the generic routes it replaced: the Fraction
``DiffOp`` with exact Leibniz composition and restriction, the one-step
operator as one, the family expanded from the classes of ``juhl.iterated``,
applying a ``DiffOp`` to a polynomial, partial derivatives, evaluating a
coefficient at a value, parsing an operator or coefficient document back,
writing a restricted operator in the tangential basis with a
zero-residual certificate, and the normal form of a symbol coefficient by
Euclid at every degree, normalizing again after the numerator's content is
taken out.  They enumerate the multi-indices of Lap'^s
themselves, so a test that uses them does not rest on
``juhl.lap_prime_terms``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import comb, factorial, gcd

from covop.algebra import Poly, _as_fraction
from covop.cli import op_vars
from covop.juhl import TangentialOp, iterated
from covop.symbolcalc import _udivmod, _ugcd


class NonTangentialForm(Exception):
    """Raised when a restricted operator is not in the tangential span
    a_0 d_n^N + a_1 d_n^(N-2) Lap' + ... (certified by a nonzero residual)."""


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
        return DiffOp(self.n, {a: p.shift_var("lam", offset)
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
        coeffs.append(Poly.from_univariate(a_j.to_univariate("lam")))
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
