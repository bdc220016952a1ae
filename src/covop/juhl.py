"""The covariant operator families on R^n.

The one-step operator is

    (2*lam - n + 2) d/dxi_n  +  xi_n * Laplacian,

lam a formal variable.  Iterating it with shifted parameters and restricting
to the hyperplane xi_n = 0 produces the Juhl-type tangential families; this
module builds them exactly and exposes the closed form of the leading
coefficient together with the Gamma-factor normalization metadata.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, pi

from .algebra import Poly
from .diffop import DiffOp, TangentialOp, multinomial, op_vars, weak_compositions
from .special import gamma_checked


def one_step(n):
    """The order-2 operator (2*lam - n + 2) d_n + xi_n * Lap on R^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vars_ = op_vars(n)
    lam = Poly.variable("lam", vars_)
    xin = Poly.variable(f"xi{n}", vars_)
    terms = {}
    e_n = (0,) * (n - 1) + (1,)
    terms[e_n] = 2 * lam + (2 - n)
    for j in range(1, n + 1):
        alpha = tuple(2 if i == j - 1 else 0 for i in range(n))
        terms[alpha] = terms.get(alpha, Poly.zero(vars_)) + xin
    return DiffOp(n, terms)


# -- iterated family -----------------------------------------------------------
#
# The factors generate a small closed algebra: with X = mult by xi_n,
# P = d_n and L = Lap one has [P, X] = 1, [L, X] = 2P, [P, L] = 0, so every
# iterate is a combination of monomials X^i P^j L^k with lam-polynomial
# coefficients.  The basis is grown one factor at a time: order N is the
# factor (2*lam + 2N - n) P + X L composed on the left of the cached order
# N - 1, which only multiplies and adds integers, so every coefficient is an
# integer polynomial in lam by construction and is kept as a plain tuple of
# ints.  Composing in that basis and expanding once at the end
# (_expand_reduced) is exactly the Leibniz composition (cross-checked in the
# tests) but does not touch the full multi-index expansion at every step.
# The tangential coefficients (juhl_coeffs) and the exact checks of ``verify``
# read the reduced basis itself; only the operator export and the numeric
# covariance table expand it (expanded_iterated).  The Fraction DiffOp of the
# whole family, ``iterated``, is the oracle that the tests and the small
# shift_consistency grid check.


@lru_cache(maxsize=None)
def _reduced_iterated(n, N):
    """{(i, j, k): c} for xi_n^i d_n^j Lap^k, equal to the N-fold
    composition with the parameter shifted by one per factor; c holds the
    integer coefficients of lam^0, lam^1, ... with no trailing zero.  Order
    N composes (2*lam + 2N - n) P + X L on the left of order N - 1."""
    if N == 0:
        return {(0, 0, 0): (1,)}
    a = 2 * N - n
    new = {}

    def add(key, c):
        s = new.get(key)
        if s is None:
            s = c
        else:  # sum of the coefficient tuples, trailing zeros dropped
            s = [x + y for x, y in zip_longest(s, c, fillvalue=0)]
            while s and not s[-1]:
                s.pop()
            s = tuple(s)
        if s:
            new[key] = s
        elif key in new:
            del new[key]

    for (i, j, k), c in _reduced_iterated(n, N - 1).items():
        # (2*lam + a) * d_n applied after xi_n^i d_n^j Lap^k
        fc = tuple(a * x + 2 * y for x, y in zip(c + (0,), (0,) + c))
        add((i, j + 1, k), fc)
        if i:
            add((i - 1, j, k), tuple(x * i for x in fc))
        # xi_n * Lap applied after the same
        add((i + 1, j, k + 1), c)
        if i:
            add((i, j + 1, k), tuple(x * (2 * i) for x in c))
        if i >= 2:
            add((i - 1, j, k), tuple(x * (i * (i - 1)) for x in c))
    return new


def _expand_reduced(n, reduced):
    """Expand a reduced form over derivative multi-indices, in integers.

    Lap^k = sum_{|m| = k} multinomial(m) d^(2m), so the term c(lam) X^i P^j
    L^k adds c * multinomial(m) to the coefficient of d^(2m + j e_n).  The
    result is {alpha: {(lam_deg, xi_n_deg): int}}; keys appear in the order
    the terms are first reached.  The float evaluations of the numeric
    covariance check sum in that order, so it is part of the seeded suites'
    output.
    """
    res = {}
    spread = {}  # k -> [(2m, multinomial(m)) for |m| = k]
    for (i, j, k), c in reduced.items():
        lam_terms = [((deg, i), cc) for deg, cc in enumerate(c) if cc]
        if k not in spread:
            spread[k] = [(tuple(2 * mi for mi in m), multinomial(m))
                         for m in weak_compositions(k, n)]
        for even, mult in spread[k]:
            alpha = even[:-1] + (even[-1] + j,)
            coeff = res.setdefault(alpha, {})
            for key, cc in lam_terms:
                s = coeff.get(key, 0) + cc * mult
                if s:
                    coeff[key] = s
                else:
                    del coeff[key]
            if not coeff:
                del res[alpha]
    return res


def expanded_iterated(n, N):
    """The iterated family in integers: {alpha: {(lam_deg, xi_n_deg): int}}
    is the coefficient of lam^lam_deg xi_n^xi_n_deg d^alpha (no other xi
    occurs).  The operator export, the numeric covariance check of
    ``verify`` and the oracle ``iterated`` read it."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _expand_reduced(n, _reduced_iterated(n, N))


@lru_cache(maxsize=None)
def iterated(n, N):
    """The N-fold composition of one-step operators with per-factor shifts
    lam, lam+1, ..., lam+N-1 (first factor applied first), as a DiffOp in
    the key order of ``expanded_iterated``, whose Fraction oracle it is."""
    vars_, zeros = op_vars(n), (0,) * (n - 1)
    return DiffOp(n, {alpha: Poly(vars_, {(deg,) + zeros + (i,): c
                                          for (deg, i), c in coeff.items()})
                      for alpha, coeff in expanded_iterated(n, N).items()})


def leading_factors(n, N):
    """Linear factors (b, a) meaning b*lam + a of the leading coefficient."""
    return [(Fraction(2), Fraction(m - n)) for m in range(N + 1, 2 * N + 1)]


def pretty_factors(factors):
    """Affine factors (b, a), each b*lam + a, displayed as '(2λ)(2λ+1)(2λ-3)'."""
    return "".join(f"({b}λ+{a})" if a > 0 else (f"({b}λ{a})" if a else f"({b}λ)")
                   for b, a in factors)


def leading_coeff(n, N):
    """Closed form of the pure-normal-derivative coefficient of the restricted
    family: prod_{m=N+1}^{2N} (2*lam - n + m), as a polynomial in lam."""
    out = Poly.const(1, ("lam",))
    for b, a in leading_factors(n, N):
        out = out * Poly(("lam",), {(1,): b, (0,): a})
    return out


@lru_cache(maxsize=None)
def juhl_coeffs(n, N):
    """Tangential coefficients of the restricted iterated family.

    Restriction to xi_n = 0 keeps the i = 0 part of the reduced basis, whose
    monomials d_n^j Lap^k all have j + 2k = N.  With Lap = Lap' + d_n^2 the
    coefficient of d_n^(N-2m) Lap'^m is a_m = sum_k C(k, m) c_(0, N-2k, k);
    for n = 1 there is no Lap' and only a_0 survives.  The sums run in ints
    and each a_m becomes one Poly in lam alone.  a_0 is checked against the
    closed form, so a mismatch can only mean an implementation bug.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    sums = [[0] * (N + 1) for _ in range(N // 2 + 1)]  # a_m has degree <= N
    for (i, j, k), c in _reduced_iterated(n, N).items():
        if i == 0:
            for m in range(k + 1 if n > 1 else 1):
                for deg, x in enumerate(c):
                    sums[m][deg] += comb(k, m) * x
    coeffs = [Poly.from_univariate(s) for s in sums]
    if coeffs[0] != leading_coeff(n, N):
        raise RuntimeError(
            f"leading tangential coefficient deviates from closed form at n={n}, N={N}")
    return TangentialOp(n, N, coeffs)


# -- normalization metadata ---------------------------------------------------


@dataclass(frozen=True)
class GammaFactor:
    """Gamma(lam_coeff * lam + const) ** exponent."""
    const: Fraction
    lam_coeff: Fraction
    exponent: int = 1

    def argument(self, lam):
        return complex(self.const) + complex(self.lam_coeff) * lam

    def pretty(self):
        b, a = self.lam_coeff, self.const
        if b == 1:
            inner = f"λ+{a}" if a > 0 else (f"λ{a}" if a < 0 else "λ")
        elif b == -1:
            inner = f"{a}-λ" if a != 0 else "-λ"
        else:
            inner = f"{b}λ+{a}"
        s = f"Γ({inner})"
        return s if self.exponent == 1 else f"{s}^{self.exponent}"


@dataclass(frozen=True)
class NormalizationMeta:
    """Scalar normalization data for the iterated family of order N.

    ``pi_power``/``gammas`` describe the factor pi^(n(N-1)) Gamma(lam+N)
    Gamma(n-lam-N) relating the iterated family to the twisted composition
    with convolution intertwiners; ``ratio_*`` give the parity-dependent
    multiplicative factor relating the restricted family to Juhl's own
    normalization.  Purely analytic bookkeeping: none of it enters the
    operator coefficients, and it is only ever evaluated numerically.
    """

    n: int
    N: int
    pi_power: int
    gammas: tuple
    parity: str
    ratio_prefactor: Fraction
    ratio_two_power: int
    ratio_factors: tuple  # affine (b, a): factor b*lam + a

    def dtilde_value(self, lam):
        out = complex(pi) ** self.pi_power
        for g in self.gammas:
            out *= gamma_checked(g.argument(lam)) ** g.exponent
        if isinstance(lam, complex):
            return out
        return out.real if abs(out.imag) <= 1e-12 * max(1.0, abs(out)) else out

    def ratio_value(self, lam):
        out = float(self.ratio_prefactor) * 2.0 ** self.ratio_two_power
        val = complex(out)
        for b, a in self.ratio_factors:
            val *= complex(b) * lam + complex(a)
        if isinstance(lam, complex):
            return val
        return val.real

    def pretty(self):
        gam = "".join(g.pretty() for g in self.gammas)
        head = f"π^{self.pi_power}·{gam}" if self.pi_power else gam
        ratio = (f"{self.ratio_prefactor}·2^{self.ratio_two_power}·"
                 f"{pretty_factors(self.ratio_factors)}")
        return f"normalization {head}; {self.parity} ratio {ratio}"


def normalization_meta(n, N):
    if N < 1:
        raise ValueError("N must be >= 1")
    gammas = (
        GammaFactor(const=Fraction(N), lam_coeff=Fraction(1)),
        GammaFactor(const=Fraction(n - N), lam_coeff=Fraction(-1)),
    )
    if N % 2 == 0:
        parity = "even"
        pref = Fraction(factorial(N), factorial(N // 2))
        two = N // 2 - 1
        factors = tuple((Fraction(2), Fraction(-n + N + 2 * j))
                        for j in range(1, N // 2 + 1))
    else:
        parity = "odd"
        pref = Fraction(factorial(N), factorial((N - 1) // 2))
        two = (N + 1) // 2
        factors = tuple((Fraction(2), Fraction(-n + N + 1 + 2 * j))
                        for j in range((N - 1) // 2 + 1))
    return NormalizationMeta(n=n, N=N, pi_power=n * (N - 1), gammas=gammas,
                             parity=parity, ratio_prefactor=pref,
                             ratio_two_power=two, ratio_factors=factors)
