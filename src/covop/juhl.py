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
# coefficients.  Composing in that basis and expanding once at the end is
# exactly the Leibniz composition (cross-checked in the tests) but does not
# touch the full multi-index expansion at every step.  The tangential
# coefficients are read straight off the reduced basis (juhl_coeffs); the
# generic route -- expand, restrict, then decompose_tangential with its
# zero-residual certificate -- is the independent oracle that
# ``verify --suite symbolic`` and the tests run against it.


@lru_cache(maxsize=None)
def _reduced_iterated(n, N):
    """{(i, j, k): lam-Poly} for xi_n^i d_n^j Lap^k, equal to the N-fold
    composition with the parameter shifted by one per factor."""
    lamvars = ("lam",)
    terms = {}
    for step in range(N):
        factor_c = Poly(lamvars, {(1,): Fraction(2), (0,): Fraction(2 * step + 2 - n)})
        if not terms:
            terms = {(0, 1, 0): factor_c, (1, 0, 1): Poly.const(1, lamvars)}
            continue
        new = {}

        def add(key, poly):
            if not poly:
                return
            s = new.get(key)
            s = poly if s is None else s + poly
            if s:
                new[key] = s
            elif key in new:
                del new[key]

        for (i, j, k), c in terms.items():
            # c_step * d_n applied after xi_n^i d_n^j Lap^k
            add((i, j + 1, k), factor_c * c)
            if i:
                add((i - 1, j, k), factor_c * c * i)
            # xi_n * Lap applied after the same
            add((i + 1, j, k + 1), c)
            if i:
                add((i, j + 1, k), c * (2 * i))
            if i >= 2:
                add((i - 1, j, k), c * (i * (i - 1)))
        terms = new
    return terms


def _expand_reduced(n, reduced):
    vars_ = op_vars(n)
    res = {}
    for (i, j, k), c in reduced.items():
        lam_coeffs = c.to_univariate("lam")
        for m in weak_compositions(k, n):
            mult = multinomial(m)
            alpha = tuple(2 * mi for mi in m)
            alpha = alpha[:-1] + (alpha[-1] + j,)
            poly_terms = {}
            for deg, cc in enumerate(lam_coeffs):
                if cc:
                    key = (deg,) + (0,) * (n - 1) + (i,)
                    poly_terms[key] = cc * mult
            contrib = Poly(vars_, poly_terms)
            s = res.get(alpha)
            s = contrib if s is None else s + contrib
            if s:
                res[alpha] = s
            elif alpha in res:
                del res[alpha]
    return DiffOp(n, res)


@lru_cache(maxsize=None)
def iterated(n, N):
    """The N-fold composition of one-step operators with per-factor shifts
    lam, lam+1, ..., lam+N-1 (first factor applied first), as a DiffOp."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _expand_reduced(n, _reduced_iterated(n, N))


def leading_coeff(n, N):
    """Closed form of the pure-normal-derivative coefficient of the restricted
    family: prod_{m=N+1}^{2N} (2*lam - n + m), as a polynomial in lam."""
    out = Poly.const(1, ("lam",))
    for m in range(N + 1, 2 * N + 1):
        out = out * Poly(("lam",), {(1,): Fraction(2), (0,): Fraction(m - n)})
    return out


def leading_factors(n, N):
    """Linear factors (b, a) meaning b*lam + a of the leading coefficient."""
    return [(Fraction(2), Fraction(m - n)) for m in range(N + 1, 2 * N + 1)]


@lru_cache(maxsize=None)
def juhl_coeffs(n, N):
    """Tangential coefficients of the restricted iterated family.

    Restriction to xi_n = 0 keeps the i = 0 part of the reduced basis, whose
    monomials d_n^j Lap^k all have j + 2k = N.  With Lap = Lap' + d_n^2 the
    coefficient of d_n^(N-2m) Lap'^m is a_m = sum_k C(k, m) c_(0, N-2k, k);
    for n = 1 there is no Lap' and only a_0 survives.  Each a_m is a Poly in
    lam alone.  a_0 is checked against the closed form, so a mismatch can
    only mean an implementation bug.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    coeffs = [Poly.zero(("lam",))] * (N // 2 + 1)
    for (i, j, k), c in _reduced_iterated(n, N).items():
        if i == 0:
            for m in range(k + 1 if n > 1 else 1):
                coeffs[m] = coeffs[m] + c * comb(k, m)
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
        fac = "".join(f"(2λ+{a})" if a > 0 else (f"(2λ{a})" if a else "(2λ)")
                      for _, a in self.ratio_factors)
        ratio = f"{self.ratio_prefactor}·2^{self.ratio_two_power}·{fac}"
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
