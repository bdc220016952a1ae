"""Formal Fourier-symbol algebra over the normalized homogeneous kernels.

Expressions are finite sums of terms

    coeff * eta_n^a * h_s(eta) (x) {Fhat  or  dFhat/deta_n},

where h_s(eta) = |eta|^s / Gamma(n/2 + s/2), s is kept exactly affine in lam,
and coefficients are rational functions of lam times tracked powers of 2,
sqrt(pi) and i.  The rewrite rules are

    |eta|^2 h_s = (n+s)/2 * h_{s+2},
    d/deta_n h_s = 2s/(n+s-2) * eta_n h_{s-2},

and keeping s symbolic means the pole of the second rule is never evaluated:
all identities are proved at the rational-function level.
"""

import math
from fractions import Fraction

from .algebra import Poly, RationalFunction

FHAT = "Fhat"
DFHAT = "dFhat_dn"


class ClosureExceeded(Exception):
    """A second normal derivative of the transform target would be needed."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


def _two_adic(q):
    """2-adic valuation of a nonzero Fraction."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % 2 == 0:
        num //= 2
        v += 1
    while den % 2 == 0:
        den //= 2
        v -= 1
    return v


class SymCoeff:
    """rf(lam) * 2^(two_a + two_b*lam) * pi^(pi_half/2) * i^i_pow, canonical.

    Canonical form: the rational content of rf is made odd and positive, with
    its 2-part folded into two_a and its sign into i_pow, so equality is a
    plain componentwise comparison.
    """

    __slots__ = ("rf", "two_a", "two_b", "pi_half", "i_pow")

    def __init__(self, rf=1, two_a=0, two_b=0, pi_half=0, i_pow=0):
        if isinstance(rf, (int, Fraction, Poly)):
            rf = RationalFunction(rf)
        two_a, two_b, pi_half = _frac(two_a), _frac(two_b), _frac(pi_half)
        i_pow = i_pow % 4
        if rf.is_zero():
            self.rf = rf
            self.two_a = Fraction(0)
            self.two_b = Fraction(0)
            self.pi_half = Fraction(0)
            self.i_pow = 0
            return
        # extract the rational content of the numerator, signed by the leading term
        g = 0
        l = 1
        for c in rf.num.terms.values():
            g = math.gcd(g, abs(c.numerator))
            l = l * c.denominator // math.gcd(l, c.denominator)
        content = Fraction(g, l)
        if rf.num.terms[max(rf.num.terms)] < 0:
            content = -content
        # rf -> rf / (sign * 2^v): fold the sign into i_pow, the 2-part into two_a
        v = _two_adic(content)
        sign = 1 if content > 0 else -1
        self.rf = rf * (Fraction(sign) * Fraction(2) ** (-v)) if v or sign < 0 else rf
        self.two_a = two_a + v
        self.two_b = two_b
        self.pi_half = pi_half
        self.i_pow = (i_pow + (2 if sign < 0 else 0)) % 4

    def is_zero(self):
        return self.rf.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SymCoeff):
            return NotImplemented
        return (self.two_a == other.two_a and self.two_b == other.two_b
                and self.pi_half == other.pi_half and self.i_pow == other.i_pow
                and self.rf.num == other.rf.num and self.rf.den == other.rf.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly, RationalFunction)):
            return SymCoeff(self.rf * other, self.two_a, self.two_b,
                            self.pi_half, self.i_pow)
        return SymCoeff(self.rf * other.rf, self.two_a + other.two_a,
                        self.two_b + other.two_b, self.pi_half + other.pi_half,
                        self.i_pow + other.i_pow)

    __rmul__ = __mul__

    def __add__(self, other):
        """Sum of two coefficients; only defined when they are commensurable
        (same transcendental parts up to integer 2-powers and a sign)."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.two_b != other.two_b or self.pi_half != other.pi_half:
            raise ValueError("cannot add symbol coefficients with different 2^lam or pi parts")
        delta = other.two_a - self.two_a
        if delta.denominator != 1:
            raise ValueError("cannot add symbol coefficients with non-integer 2-power offset")
        di = (other.i_pow - self.i_pow) % 4
        if di == 0:
            sign = 1
        elif di == 2:
            sign = -1
        else:
            raise ValueError("cannot add coefficients differing by an odd power of i")
        rf = self.rf + other.rf * (Fraction(sign) * Fraction(2) ** delta)
        return SymCoeff(rf, self.two_a, self.two_b, self.pi_half, self.i_pow)

    def __neg__(self):
        return SymCoeff(self.rf, self.two_a, self.two_b, self.pi_half, self.i_pow + 2)

    def shift(self, offset):
        """lam -> lam + offset."""
        offset = _frac(offset)
        return SymCoeff(self.rf.shift(offset), self.two_a + self.two_b * offset,
                        self.two_b, self.pi_half, self.i_pow)

    def reflect(self, point):
        """lam -> point - lam."""
        point = _frac(point)
        return SymCoeff(self.rf.reflect(point), self.two_a + self.two_b * point,
                        -self.two_b, self.pi_half, self.i_pow)

    def pretty(self):
        bits = []
        if self.i_pow == 1:
            bits.append("i")
        elif self.i_pow == 2:
            bits.append("-1")
        elif self.i_pow == 3:
            bits.append("-i")
        if self.two_a or self.two_b:
            if self.two_b:
                bits.append(f"2^({self.two_a}+{self.two_b}λ)")
            else:
                bits.append(f"2^{self.two_a}")
        if self.pi_half:
            bits.append(f"π^({self.pi_half}/2)")
        rf = self.rf.pretty()
        if rf != "1" or not bits:
            bits.append(f"({rf})" if ("+" in rf or "-" in rf[1:]) else rf)
        return "·".join(bits)

    def __repr__(self):
        return f"SymCoeff({self.pretty()})"


class HTerm:
    """One term coeff * eta_n^eta_pow * h_{s_const + s_lam*lam} (x) target."""

    __slots__ = ("coeff", "eta_pow", "s_const", "s_lam", "target")

    def __init__(self, coeff, eta_pow, s_const, s_lam, target):
        if target not in (FHAT, DFHAT):
            raise ValueError(f"unknown target {target!r}")
        if eta_pow < 0:
            raise ValueError("eta_n power must be nonnegative")
        self.coeff = coeff
        self.eta_pow = eta_pow
        self.s_const = _frac(s_const)
        self.s_lam = _frac(s_lam)
        self.target = target

    def key(self):
        return (self.target, self.s_const, self.s_lam, self.eta_pow)

    def pretty(self):
        if not self.s_lam:
            s = f"{self.s_const}"
        else:
            head = "" if self.s_lam == 1 else ("-" if self.s_lam == -1 else f"{self.s_lam}")
            s = f"{head}λ"
            if self.s_const:
                s += f"+{self.s_const}" if self.s_const > 0 else f"{self.s_const}"
        eta = "" if not self.eta_pow else (
            "η_n·" if self.eta_pow == 1 else f"η_n^{self.eta_pow}·")
        tgt = "f̂" if self.target == FHAT else "∂f̂/∂η_n"
        return f"{self.coeff.pretty()}·{eta}h_({s})⊗{tgt}"


class HExpr:
    """Canonical sum of HTerms: like terms merged, zeros dropped, sorted."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for t in terms:
            k = t.key()
            if k in merged:
                merged[k] = HTerm(merged[k].coeff + t.coeff, t.eta_pow,
                                  t.s_const, t.s_lam, t.target)
            else:
                merged[k] = t
        self.terms = tuple(merged[k] for k in sorted(merged)
                           if not merged[k].coeff.is_zero())

    def __eq__(self, other):
        if not isinstance(other, HExpr):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        return all(a.key() == b.key() and a.coeff == b.coeff
                   for a, b in zip(self.terms, other.terms))

    def __add__(self, other):
        return HExpr(self.terms + other.terms)

    def scale(self, coeff):
        if isinstance(coeff, (int, Fraction, Poly, RationalFunction)):
            coeff = SymCoeff(coeff if isinstance(coeff, RationalFunction)
                             else RationalFunction(coeff))
        return HExpr(HTerm(t.coeff * coeff, t.eta_pow, t.s_const, t.s_lam, t.target)
                     for t in self.terms)

    def mul_eta(self):
        """Multiply by eta_n."""
        return HExpr(HTerm(t.coeff, t.eta_pow + 1, t.s_const, t.s_lam, t.target)
                     for t in self.terms)

    def retarget(self, target):
        return HExpr(HTerm(t.coeff, t.eta_pow, t.s_const, t.s_lam, target)
                     for t in self.terms)

    def shift(self, offset):
        """lam -> lam + offset everywhere (coefficients and kernel indices)."""
        offset = _frac(offset)
        return HExpr(HTerm(t.coeff.shift(offset), t.eta_pow,
                           t.s_const + t.s_lam * offset, t.s_lam, t.target)
                     for t in self.terms)

    def pretty(self):
        if not self.terms:
            return "0"
        return "  +  ".join(t.pretty() for t in self.terms)

    def __repr__(self):
        return f"HExpr({self.pretty()})"


# -- rewrite rules -------------------------------------------------------------


def hat_kernel(n, s_const, s_lam):
    """Fourier transform rule for the normalized kernel:
    hat(h_s) = 2^(n+s) pi^(n/2) h_(-n-s).  Returns (coeff, s'_const, s'_lam)."""
    s_const, s_lam = _frac(s_const), _frac(s_lam)
    coeff = SymCoeff(1, two_a=n + s_const, two_b=s_lam, pi_half=n)
    return coeff, -n - s_const, -s_lam


def mul_norm_sq(n, e):
    """|eta|^2 applied to each term: s -> s+2 with coefficient (n+s)/2."""
    out = []
    for t in e.terms:
        factor = RationalFunction(
            Poly(("lam",), {(1,): t.s_lam, (0,): (n + t.s_const)}),
            Poly.const(2, ("lam",)))
        out.append(HTerm(t.coeff * factor, t.eta_pow,
                         t.s_const + 2, t.s_lam, t.target))
    return HExpr(out)


def d_normal(n, e):
    """d/deta_n by the Leibniz rule over eta_n^a, h_s and the target.

    The kernel factor follows d/deta_n h_s = 2s/(n+s-2) eta_n h_{s-2}; targets
    close under one normal derivative only (Fhat -> dFhat), a second one
    raises ClosureExceeded.
    """
    out = []
    for t in e.terms:
        if t.eta_pow:
            out.append(HTerm(t.coeff * Fraction(t.eta_pow), t.eta_pow - 1,
                             t.s_const, t.s_lam, t.target))
        num = Poly(("lam",), {(1,): 2 * t.s_lam, (0,): 2 * t.s_const})
        den = Poly(("lam",), {(1,): t.s_lam, (0,): n + t.s_const - 2})
        if den.is_zero():
            raise ValueError(
                "kernel derivative at the analytic-continuation point s = 2-n "
                "with s constant in lam")
        if num:
            out.append(HTerm(t.coeff * RationalFunction(num, den),
                             t.eta_pow + 1, t.s_const - 2, t.s_lam, t.target))
        if t.target == FHAT:
            out.append(HTerm(t.coeff, t.eta_pow, t.s_const, t.s_lam, DFHAT))
        else:
            raise ClosureExceeded(
                "second eta_n-derivative of the transform target required")
    return HExpr(out)


# -- the operators' Fourier sides ----------------------------------------------


def knapp_stein_symbol(n):
    """Fourier side of the convolution intertwiner of parameter lam:
    multiplication by 2^(-n+2*lam) pi^(n/2) h_{n-2*lam}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeff, sc, sl = hat_kernel(n, Fraction(-2 * n), Fraction(2))
    return HExpr([HTerm(coeff, 0, sc, sl, FHAT)])


def symbol_mult_after_ks(n):
    """Fourier side of (multiplication by xi_n) o (convolution intertwiner):
    -i * d/deta_n of the intertwiner symbol."""
    return d_normal(n, knapp_stein_symbol(n)).scale(SymCoeff(1, i_pow=3))


def symbol_ks_after_onestep(n):
    """Fourier side of (convolution intertwiner at lam+1) o (one-step operator).

    The one-step operator transforms to -i [(2*lam-n) eta_n Fhat - |eta|^2 dFhat],
    which is pushed through the intertwiner symbol at lam+1.
    """
    j1 = knapp_stein_symbol(n).shift(1)
    lin = Poly(("lam",), {(1,): Fraction(2), (0,): Fraction(-n)})
    term_mult = j1.mul_eta().scale(SymCoeff(RationalFunction(lin), i_pow=3))
    term_der = mul_norm_sq(n, j1.retarget(DFHAT)).scale(SymCoeff(1, i_pow=1))
    return term_mult + term_der


def factorization_constant(n):
    """The scalar 1/(4*(lam - n + 1)) linking the two compositions."""
    den = Poly(("lam",), {(1,): Fraction(4), (0,): Fraction(4 * (1 - n))})
    return SymCoeff(RationalFunction(Poly.const(1, ("lam",)), den))


def check_factorization(n):
    """Exact identity: mult-after-intertwiner equals 1/(4(lam-n+1)) times
    intertwiner-after-one-step, as canonical-form symbol expressions."""
    lhs = symbol_mult_after_ks(n)
    rhs = symbol_ks_after_onestep(n).scale(factorization_constant(n))
    return lhs == rhs


def check_ks_inversion(n):
    """Exact identity: the intertwiner symbols at lam and n-lam compose to
    Knapp-Stein's inversion constant pi^n / (Gamma(lam) Gamma(n-lam)).

    The symbol is one term c(lam) h_s(lam) (x) Fhat, so the composition
    multiplies by c(lam) c(n-lam) |eta|^(s(lam)+s(n-lam)) over the kernel
    Gammas Gamma(n/2 + s(lam)/2) Gamma(n/2 + s(n-lam)/2).  That is the
    constant exactly when the |eta| powers cancel, n/2 + s(lam)/2 = n - lam
    (so the kernel Gammas are Gamma(n-lam) and, at n-lam, Gamma(lam)), and
    c(lam) c(n-lam) = pi^n.
    """
    terms = knapp_stein_symbol(n).terms
    if len(terms) != 1 or terms[0].eta_pow or terms[0].target != FHAT:
        return False  # no multiplier by a function of |eta| alone
    (t,) = terms
    return (2 * t.s_const + n * t.s_lam == 0
            and (Fraction(n, 2) + t.s_const / 2, t.s_lam / 2) == (n, -1)
            and t.coeff * t.coeff.reflect(n) == SymCoeff(1, pi_half=2 * n))
