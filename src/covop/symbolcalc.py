"""Formal Fourier-symbol algebra over the normalized homogeneous kernels.

Expressions are finite sums of terms

    coeff * eta_n^a * h_s(eta) (x) d^l Fhat / deta_n^l,

where h_s(eta) = |eta|^s / Gamma(n/2 + s/2), s is kept exactly affine in lam,
l is the order of the normal derivative of the transformed function, and
coefficients are rational functions of lam times tracked powers of 2,
sqrt(pi) and i.  An ``HExpr`` holds its sum as one dict from the key
(l, s_const, s_lam, a) to the coefficient, and every operation works on
(key, coefficient) pairs.  The rewrite rules are

    |eta|^2 h_s = (n+s)/2 * h_{s+2},
    d/deta_n h_s = 2s/(n+s-2) * eta_n h_{s-2},

and keeping s symbolic means the pole of the second rule is never evaluated:
all identities are proved at the rational-function level.  A coefficient's
rational function is held by SymCoeff itself, as numerator and denominator
coefficient tuples of Fractions in the arithmetic of ``covop.juhl``, and
SymCoeff owns its one normal form and its one substitution lam -> a lam + b,
``subs``.  Every other exact rational, a coefficient's exponents and a key's
s_const and s_lam, is held as an int when it is integral and as a Fraction
only when it is not, such as the s = 3/2 + lam of a kernel; as
hash(Fraction(2)) == hash(2), no equality, hash or key order depends on
which of the two holds an integer.
"""

import math
from fractions import Fraction

from .juhl import padd, pmul, pretty_lam, substitute


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _exact(c):
    """An exact rational as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def _two_adic(num, den):
    """2-adic valuation of num/den for nonzero ints, from their lowest set
    bits."""
    return (num & -num).bit_length() - (den & -den).bit_length()


def _times_two_power(sign, v):
    """sign * 2^v for an int v: an int when v >= 0."""
    return sign << v if v >= 0 else Fraction(sign, 1 << -v)


# -- polynomials in lam as ascending coefficient tuples ---------------------------


def _coeffs(p):
    """Ascending Fraction coefficients of an int, a Fraction or a sequence of
    them, with trailing zeros dropped (so zero is the empty list)."""
    out = [_as_fraction(c) for c in ((p,) if isinstance(p, (int, Fraction)) else p)]
    while out and not out[-1]:
        out.pop()
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

    ``num`` and ``den`` are ascending tuples of Fractions.  ``two_a``,
    ``two_b`` and ``pi_half`` are ints when integral and Fractions
    otherwise, and ``i_pow`` is an int in 0..3.  Every instance is in one
    normal form, so equality is a plain componentwise comparison:
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
        two_a, two_b, pi_half = _exact(two_a), _exact(two_b), _exact(pi_half)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (Fraction(1),)
            self.two_a = self.two_b = self.pi_half = self.i_pow = 0
            return
        if len(num) > 1 and len(den) > 1:
            g = _ugcd(num, den)
            if len(g) > 1:
                num, _ = _udivmod(num, g)
                den, _ = _udivmod(den, g)
        # the rational content g/l of num; over den's leading coefficient lc
        # it has the sign of num[-1]/lc and the 2-adic valuation v
        g, l = 0, 1
        for c in num:
            g = math.gcd(g, c.numerator)
            l = l * c.denominator // math.gcd(l, c.denominator)
        lc = den[-1]
        sign = 1 if (num[-1].numerator > 0) == (lc.numerator > 0) else -1
        # num/den -> num/(lc * sign * 2^v) over den/lc: den monic, the sign
        # into i_pow, the 2-part into two_a
        v = _two_adic(g * lc.denominator, l * lc.numerator)
        scale = lc * _times_two_power(sign, v)
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
        other = _symcoeff(other)
        return SymCoeff(pmul(self.num, other.num), pmul(self.den, other.den),
                        two_a=self.two_a + other.two_a, two_b=self.two_b + other.two_b,
                        pi_half=self.pi_half + other.pi_half,
                        i_pow=self.i_pow + other.i_pow)

    __rmul__ = __mul__

    def __add__(self, other):
        """Sum of two coefficients; only defined when they are commensurable
        (same transcendental parts up to integer 2-powers and a sign)."""
        other = _symcoeff(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.two_b != other.two_b or self.pi_half != other.pi_half:
            raise ValueError("cannot add symbol coefficients with different 2^lam or pi parts")
        delta = _exact(other.two_a - self.two_a)
        if isinstance(delta, Fraction):
            raise ValueError("cannot add symbol coefficients with non-integer 2-power offset")
        di = (other.i_pow - self.i_pow) % 4
        if di == 0:
            sign = 1
        elif di == 2:
            sign = -1
        else:
            raise ValueError("cannot add coefficients differing by an odd power of i")
        q = _times_two_power(sign, delta)
        onum = other.num if q == 1 else [c * q for c in other.num]
        num = padd(pmul(self.num, other.den), pmul(onum, self.den))
        return self._with(num, pmul(self.den, other.den))

    def __neg__(self):
        return self._with(self.num, self.den, i_pow=self.i_pow + 2)

    def subs(self, a, b):
        """lam -> a lam + b: 2^(two_b lam) gives 2^(two_b b) to two_a and
        turns two_b into two_b a."""
        return self._with(substitute(self.num, a, b), substitute(self.den, a, b),
                          two_a=self.two_a + self.two_b * b, two_b=self.two_b * a)

    def at(self, lam):
        """The coefficient at a real lam, as a float.  A coefficient with an
        odd power of i is not real there, and is refused."""
        if self.i_pow % 2:
            raise ValueError(f"{self.pretty()} carries an odd power of i, so it is not real")
        num, den = (math.fsum(float(c) * lam ** k for k, c in enumerate(p))
                    for p in (self.num, self.den))
        return ((1.0 - self.i_pow) * num / den
                * 2.0 ** (float(self.two_a) + float(self.two_b) * lam)
                * math.pi ** (float(self.pi_half) / 2.0))

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
        rf = pretty_lam(self.num)
        if self.den != (1,):
            rf = f"({rf})/({pretty_lam(self.den)})"
        if rf != "1" or not bits:
            bits.append(f"({rf})" if ("+" in rf or "-" in rf[1:]) else rf)
        return "·".join(bits)

    def __repr__(self):
        return f"SymCoeff({self.pretty()})"


def _symcoeff(c):
    """c as a SymCoeff, an int or a Fraction as the constant c."""
    if isinstance(c, SymCoeff):
        return c
    if isinstance(c, (int, Fraction)):
        return SymCoeff(c)
    raise TypeError(f"cannot combine SymCoeff with {type(c).__name__}")


def pretty_term(key, coeff):
    """One term of an HExpr, e.g. '2^-1·η_n·h_(λ-1)⊗∂f̂/∂η_n'."""
    target, s_const, s_lam, eta_pow = key
    if not s_lam:
        s = f"{s_const}"
    else:
        head = "" if s_lam == 1 else ("-" if s_lam == -1 else f"{s_lam}")
        s = f"{head}λ"
        if s_const:
            s += f"+{s_const}" if s_const > 0 else f"{s_const}"
    eta = "" if not eta_pow else ("η_n·" if eta_pow == 1 else f"η_n^{eta_pow}·")
    tgt = ("f̂", "∂f̂/∂η_n")[target] if target < 2 else f"∂^{target} f̂/∂η_n^{target}"
    return f"{coeff.pretty()}·{eta}h_({s})⊗{tgt}"


class HExpr:
    """Canonical sum of terms coeff * eta_n^eta_pow * h_{s_const + s_lam*lam}
    (x) d^target Fhat / deta_n^target: ``terms`` maps each key (target,
    s_const, s_lam, eta_pow) to its SymCoeff, keys sorted, like terms merged
    and zero coefficients dropped.  ``target`` is the order of the normal
    derivative of the transformed function (0 for Fhat itself); it and
    ``eta_pow`` are ints, and s_const and s_lam are ints when integral and
    Fractions otherwise, so the keys 2 and Fraction(2) are one key.  Built
    from (key, coeff) pairs in any order."""

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        merged = {}
        for (target, s_const, s_lam, eta_pow), coeff in pairs:
            if (not isinstance(target, int) or not isinstance(eta_pow, int)
                    or target < 0 or eta_pow < 0):
                raise ValueError(f"target and eta_n power must be ints >= 0, "
                                 f"got {target!r} and {eta_pow!r}")
            k = (target, _exact(s_const), _exact(s_lam), eta_pow)
            merged[k] = merged[k] + coeff if k in merged else coeff
        self.terms = {k: merged[k] for k in sorted(merged) if not merged[k].is_zero()}

    def __eq__(self, other):
        if not isinstance(other, HExpr):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return HExpr([*self.terms.items(), *other.terms.items()])

    def scale(self, coeff):
        """Multiply every coefficient by an int, a Fraction or a SymCoeff."""
        return HExpr((k, c * coeff) for k, c in self.terms.items())

    def mul_eta(self):
        """Multiply by eta_n."""
        return HExpr(((l, sc, sl, a + 1), c) for (l, sc, sl, a), c in self.terms.items())

    def retarget(self, target):
        return HExpr(((target, sc, sl, a), c) for (_, sc, sl, a), c in self.terms.items())

    def shift(self, offset):
        """lam -> lam + offset everywhere (coefficients and kernel indices)."""
        offset = _exact(offset)
        return HExpr(((l, sc + sl * offset, sl, a), c.subs(1, offset))
                     for (l, sc, sl, a), c in self.terms.items())

    def pretty(self):
        if not self.terms:
            return "0"
        return "  +  ".join(pretty_term(k, c) for k, c in self.terms.items())

    def __repr__(self):
        return f"HExpr({self.pretty()})"


# -- rewrite rules -------------------------------------------------------------


def hat_kernel(n, s_const, s_lam):
    """Fourier transform rule for the normalized kernel:
    hat(h_s) = 2^(n+s) pi^(n/2) h_(-n-s).  Returns (coeff, s'_const, s'_lam)."""
    s_const, s_lam = _exact(s_const), _exact(s_lam)
    coeff = SymCoeff(1, two_a=n + s_const, two_b=s_lam, pi_half=n)
    return coeff, -n - s_const, -s_lam


def mul_norm_sq(n, e):
    """|eta|^2 applied to each term: s -> s+2 with coefficient (n+s)/2."""
    return HExpr(((l, sc + 2, sl, a), c * SymCoeff((n + sc, sl), 2))
                 for (l, sc, sl, a), c in e.terms.items())


def d_normal(n, e):
    """d/deta_n by the Leibniz rule over eta_n^a, h_s and the target.

    The kernel factor follows d/deta_n h_s = 2s/(n+s-2) eta_n h_{s-2}, and a
    target's derivative order goes up by one, so the rule closes under every
    normal derivative.  A kernel with s = 0 is constant and has no kernel
    term, even where n + s - 2 vanishes too.
    """
    out = []
    for (l, sc, sl, a), c in e.terms.items():
        if a:
            out.append(((l, sc, sl, a - 1), c * a))
        if sc or sl:
            den = (n + sc - 2, sl)
            if not any(den):
                raise ValueError(
                    "kernel derivative at the analytic-continuation point s = 2-n "
                    "with s constant in lam")
            out.append(((l, sc - 2, sl, a + 1), c * SymCoeff((2 * sc, 2 * sl), den)))
        out.append(((l + 1, sc, sl, a), c))
    return HExpr(out)


# -- the operators' Fourier sides ----------------------------------------------


def knapp_stein_symbol(n):
    """Fourier side of the convolution intertwiner of parameter lam:
    multiplication by 2^(-n+2*lam) pi^(n/2) h_{n-2*lam}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeff, sc, sl = hat_kernel(n, -2 * n, 2)
    return HExpr([((0, sc, sl, 0), coeff)])


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
    if len(terms) != 1:
        return False  # no multiplier by a function of |eta| alone
    ((target, s_const, s_lam, eta_pow), c), = terms.items()
    return (not target and not eta_pow  # nor with a derivative or an eta_n power
            and 2 * s_const + n * s_lam == 0
            and (n + s_const, s_lam) == (2 * n, -2)
            and c * c.subs(-1, n) == SymCoeff(1, pi_half=2 * n))
