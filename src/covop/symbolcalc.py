"""Formal Fourier-symbol algebra over the normalized homogeneous kernels.

Expressions are finite sums of terms

    coeff * eta_n^a * h_s(eta) (x) d^l Fhat / deta_n^l,

where h_s(eta) = |eta|^s / Gamma(n/2 + s/2), s is kept exactly affine in lam,
l is the order of the normal derivative of the transformed function, and
coefficients are rational functions of lam times tracked powers of 2,
sqrt(pi) and i.  The rewrite rules are

    |eta|^2 h_s = (n+s)/2 * h_{s+2},
    d/deta_n h_s = 2s/(n+s-2) * eta_n h_{s-2},

and keeping s symbolic means the pole of the second rule is never evaluated:
all identities are proved at the rational-function level.  A coefficient's
rational function is held by SymCoeff itself, as numerator and denominator
coefficient tuples, and SymCoeff owns its one normal form.
"""

import math
from fractions import Fraction

from .algebra import _as_fraction as _frac, pretty_terms


def _two_adic(q):
    """2-adic valuation of a nonzero Fraction, from the lowest set bits of
    its numerator and denominator."""
    num, den = abs(q.numerator), q.denominator
    return (num & -num).bit_length() - (den & -den).bit_length()


# -- polynomials in lam as ascending coefficient tuples ---------------------------


def _coeffs(p):
    """Ascending Fraction coefficients of an int, a Fraction or a sequence of
    them, with trailing zeros dropped (so zero is the empty list)."""
    out = [_frac(c) for c in ((p,) if isinstance(p, (int, Fraction)) else p)]
    while out and not out[-1]:
        out.pop()
    return out


def _pmul(a, b):
    """Product of two coefficient sequences."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(a, b):
    """Sum of two coefficient sequences, trailing zeros kept."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def _pshift(a, t):
    """Coefficients of p(lam + t) from those of p(lam)."""
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * t ** (k - j)
    return out


def _udivmod(a, b):
    """Quotient and remainder of a by b, for coefficient lists without
    trailing zeros; the remainder has none either (zero is [])."""
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        f = q[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[i + k] -= f * c
    r = a[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _ugcd(a, b):
    """Monic gcd of two nonzero coefficient lists without trailing zeros."""
    while b:
        a, b = b, _udivmod(a, b)[1]
    return [c / a[-1] for c in a]


class SymCoeff:
    """num(lam)/den(lam) * 2^(two_a + two_b*lam) * pi^(pi_half/2) * i^i_pow.

    ``num`` and ``den`` are ascending tuples of Fractions, and every
    instance is in one normal form, so equality is a plain componentwise
    comparison:
    - den is monic and coprime to num.  Euclid runs only when both sides
      have degree >= 1; with a constant side the gcd is 1.
    - the rational content of num is odd and positive: its 2-part is folded
      into two_a, and the sign of num's leading coefficient into i_pow.
    - zero is num = () over den = (1,), with every exponent 0.

    ``num`` and ``den`` may be given as an int, a Fraction or a sequence of
    them; the exponents are keyword-only.
    """

    __slots__ = ("num", "den", "two_a", "two_b", "pi_half", "i_pow")

    def __init__(self, num=1, den=1, *, two_a=0, two_b=0, pi_half=0, i_pow=0):
        num, den = _coeffs(num), _coeffs(den)
        two_a, two_b, pi_half = _frac(two_a), _frac(two_b), _frac(pi_half)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (Fraction(1),)
            self.two_a = self.two_b = self.pi_half = Fraction(0)
            self.i_pow = 0
            return
        if len(num) > 1 and len(den) > 1:
            g = _ugcd(num, den)
            if len(g) > 1:
                num, _ = _udivmod(num, g)
                den, _ = _udivmod(den, g)
        # the rational content of num, signed by its leading coefficient
        g, l = 0, 1
        for c in num:
            g = math.gcd(g, c.numerator)
            l = l * c.denominator // math.gcd(l, c.denominator)
        lc = den[-1]
        content = Fraction(g if num[-1] > 0 else -g, l) / lc
        # num/den -> num/(lc * sign * 2^v) over den/lc: den monic, the sign
        # into i_pow, the 2-part into two_a
        v = _two_adic(content)
        sign = 1 if content > 0 else -1
        scale = lc * sign * Fraction(2) ** v
        if scale != 1:
            num = [c / scale for c in num]
        if lc != 1:
            den = [c / lc for c in den]
        self.num, self.den = tuple(num), tuple(den)
        self.two_a = two_a + v
        self.two_b = two_b
        self.pi_half = pi_half
        self.i_pow = (i_pow + (2 if sign < 0 else 0)) % 4

    def is_zero(self):
        return not self.num

    def _with(self, num, den, **exps):
        """A coefficient with this one's exponents, except those given."""
        return SymCoeff(num, den, **{"two_a": self.two_a, "two_b": self.two_b,
                                     "pi_half": self.pi_half, "i_pow": self.i_pow,
                                     **exps})

    def __eq__(self, other):
        if not isinstance(other, SymCoeff):
            return NotImplemented
        return (self.two_a == other.two_a and self.two_b == other.two_b
                and self.pi_half == other.pi_half and self.i_pow == other.i_pow
                and self.num == other.num and self.den == other.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymCoeff(other)
        elif not isinstance(other, SymCoeff):
            raise TypeError(f"cannot multiply SymCoeff by {type(other).__name__}")
        return SymCoeff(_pmul(self.num, other.num), _pmul(self.den, other.den),
                        two_a=self.two_a + other.two_a, two_b=self.two_b + other.two_b,
                        pi_half=self.pi_half + other.pi_half,
                        i_pow=self.i_pow + other.i_pow)

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
        q = sign * Fraction(2) ** delta
        num = _padd(_pmul(self.num, other.den), _pmul([c * q for c in other.num], self.den))
        return self._with(num, _pmul(self.den, other.den))

    def __neg__(self):
        return self._with(self.num, self.den, i_pow=self.i_pow + 2)

    def shift(self, offset):
        """lam -> lam + offset."""
        offset = _frac(offset)
        return self._with(_pshift(self.num, offset), _pshift(self.den, offset),
                          two_a=self.two_a + self.two_b * offset)

    def reflect(self, point):
        """lam -> point - lam."""
        point = _frac(point)

        def flip(p):
            return [c if k % 2 == 0 else -c for k, c in enumerate(_pshift(p, point))]
        return self._with(flip(self.num), flip(self.den),
                          two_a=self.two_a + self.two_b * point, two_b=-self.two_b)

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

        def text(p):
            return pretty_terms(("lam",), {(k,): c for k, c in enumerate(p) if c})
        rf = text(self.num) if self.den == (1,) else f"({text(self.num)})/({text(self.den)})"
        if rf != "1" or not bits:
            bits.append(f"({rf})" if ("+" in rf or "-" in rf[1:]) else rf)
        return "·".join(bits)

    def __repr__(self):
        return f"SymCoeff({self.pretty()})"


class HTerm:
    """One term coeff * eta_n^eta_pow * h_{s_const + s_lam*lam} (x)
    d^target Fhat / deta_n^target: ``target`` is the order of the normal
    derivative of the transformed function (0 for Fhat itself)."""

    __slots__ = ("coeff", "eta_pow", "s_const", "s_lam", "target")

    def __init__(self, coeff, eta_pow, s_const, s_lam, target):
        if not isinstance(target, int) or target < 0:
            raise ValueError(f"target must be a derivative order >= 0, got {target!r}")
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
        l = self.target
        tgt = ("f̂", "∂f̂/∂η_n")[l] if l < 2 else f"∂^{l} f̂/∂η_n^{l}"
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
        """Multiply every coefficient by an int, a Fraction or a SymCoeff."""
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
        factor = SymCoeff((n + t.s_const, t.s_lam), 2)
        out.append(HTerm(t.coeff * factor, t.eta_pow,
                         t.s_const + 2, t.s_lam, t.target))
    return HExpr(out)


def d_normal(n, e):
    """d/deta_n by the Leibniz rule over eta_n^a, h_s and the target.

    The kernel factor follows d/deta_n h_s = 2s/(n+s-2) eta_n h_{s-2}, and a
    target's derivative order goes up by one, so the rule closes under every
    normal derivative.
    """
    out = []
    for t in e.terms:
        if t.eta_pow:
            out.append(HTerm(t.coeff * t.eta_pow, t.eta_pow - 1,
                             t.s_const, t.s_lam, t.target))
        den = (n + t.s_const - 2, t.s_lam)
        if not any(den):
            raise ValueError(
                "kernel derivative at the analytic-continuation point s = 2-n "
                "with s constant in lam")
        if t.s_const or t.s_lam:
            out.append(HTerm(t.coeff * SymCoeff((2 * t.s_const, 2 * t.s_lam), den),
                             t.eta_pow + 1, t.s_const - 2, t.s_lam, t.target))
        out.append(HTerm(t.coeff, t.eta_pow, t.s_const, t.s_lam, t.target + 1))
    return HExpr(out)


# -- the operators' Fourier sides ----------------------------------------------


def knapp_stein_symbol(n):
    """Fourier side of the convolution intertwiner of parameter lam:
    multiplication by 2^(-n+2*lam) pi^(n/2) h_{n-2*lam}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeff, sc, sl = hat_kernel(n, Fraction(-2 * n), Fraction(2))
    return HExpr([HTerm(coeff, 0, sc, sl, 0)])


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
    term_mult = j1.mul_eta().scale(SymCoeff((-n, 2), i_pow=3))
    term_der = mul_norm_sq(n, j1.retarget(1)).scale(SymCoeff(1, i_pow=1))
    return term_mult + term_der


def factorization_constant(n):
    """The scalar 1/(4*(lam - n + 1)) linking the two compositions."""
    return SymCoeff(1, (4 * (1 - n), 4))


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
    if len(terms) != 1 or terms[0].eta_pow or terms[0].target:
        return False  # no multiplier by a function of |eta| alone
    (t,) = terms
    return (2 * t.s_const + n * t.s_lam == 0
            and (Fraction(n, 2) + t.s_const / 2, t.s_lam / 2) == (n, -1)
            and t.coeff * t.coeff.reflect(n) == SymCoeff(1, pi_half=2 * n))
