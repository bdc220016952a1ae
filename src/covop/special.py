"""Gamma-function evaluation with pole guards.

The Gamma function is computed here in pure Python, and returns the same
doubles as ``scipy.special.gamma``, so covop needs no scipy at run time.

* Real arguments: a port of Cephes ``Gamma`` (S. L. Moshier, *Methods and
  Programs for Mathematical Functions*, Prentice-Hall 1989) as scipy's
  ``xsf`` library carries it.  It uses a rational approximation on [2, 3)
  reached by recurrence, a small-argument branch, Stirling's formula above
  33 and the reflection formula below -33.
* Complex arguments: ``exp`` of the principal branch of log-Gamma as
  ``xsf`` computes it (D. E. G. Hare, "Computing the principal branch of
  log-Gamma", J. Algorithms 25, 1997).  It uses Stirling's series, Taylor
  series about 1 and 2, the reflection formula and a shifted recurrence
  that counts branch crossings.

Both follow the scipy source operation for operation.  That source is under
scipy's BSD-3-Clause licence (Copyright (c) 2001-2002 Enthought, Inc. and
2003- SciPy Developers); the Cephes code in it is Copyright 1984-2000 by
Stephen L. Moshier.

Bit identity also needs the C library's rounding.  The ports call the libm
``exp``, ``pow``, ``sin``, ``cos``, ``cosh``, ``sinh``, ``log``, ``log1p``,
``fmod`` and ``atan2`` through ``math``, and ``hypot`` through
``abs(complex)`` (``math.hypot`` is CPython's own).  The complex ``log`` and
``exp`` that the C++ code calls are glibc's ``clog`` and ``cexp``, re-created
below from those functions: ``cmath`` rounds differently from both.  An
``fma`` is emulated exactly, since ``math.fma`` needs Python 3.13.
"""

import math


class PoleAtLambda(Exception):
    """Raised when a numeric evaluation lands on (or too near) a pole of one
    of the Gamma factors involved."""


def near_pole(z, tol=1e-9):
    """True when z is within tol of a nonpositive integer; False when z is
    not finite."""
    z = complex(z)
    if not (abs(z.imag) <= tol and math.isfinite(z.real)):
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def gamma_checked(z, tol=1e-9):
    """Gamma(z), complex for a complex z and float otherwise; raises
    PoleAtLambda when z is within tol of a pole."""
    if near_pole(z, tol):
        raise PoleAtLambda(f"Gamma pole at argument {z}")
    if isinstance(z, complex):
        return _cexp(_loggamma(complex(z)))
    return _gamma(float(z))


# -- real Gamma (Cephes) ------------------------------------------------------

_MAXGAM = 171.624376956302725
_MAXSTIR = 143.01608
_SQTPI = 2.50662827463100050242  # sqrt(2 pi)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_GAMMA_STIR = (7.87311395793093628397e-4, -2.29549961613378126380e-4,
               -2.68132617805781232825e-3, 3.47222221605458667310e-3,
               8.33333333333482257126e-2)


def _polevl(x, coeffs):
    ans = coeffs[0]
    for c in coeffs[1:]:
        ans = ans * x + c
    return ans


def _stirf(x):
    """Stirling's formula for Gamma(x), 33 < x."""
    if x >= _MAXGAM:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _GAMMA_STIR)
    y = math.exp(x)
    if x > _MAXSTIR:  # pow(x, x - 0.5) would overflow
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQTPI * y * w


def _gamma(x):
    """Gamma of a float: nan at the negative integers, +-inf at +-0."""
    if not math.isfinite(x):
        return x if x > 0 else math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirf(x)
        p = float(math.floor(q))
        if p == q:
            return math.nan
        sign = -1.0 if int(p) % 2 == 0 else 1.0
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sign * math.inf
        return sign * (math.pi / (abs(z) * _stirf(q)))

    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _gamma_small(x, z):
    if x == 0.0:  # the argument was a negative integer
        return math.nan
    return z / ((1.0 + 0.5772156649015329 * x) * x)


# -- complex log-Gamma (xsf) --------------------------------------------------

_EPS = 2.220446092504131e-16
_HLOG2PI = 0.918938533204672742  # log(2 pi) / 2
_LOGPI = 1.1447298858494001741434262
# B_2k / (2k (2k - 1)), k = 8 .. 1
_LG_STIRLING = (-2.955065359477124183e-2, 6.4102564102564102564e-3,
                -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                -5.952380952380952381e-4, 7.9365079365079365079e-4,
                -2.7777777777777777778e-3, 8.3333333333333333333e-2)
# (-1)^k zeta(k) / k, k = 23 .. 2, then -(Euler's gamma)
_LG_TAYLOR = (-4.3478266053040259361e-2, 4.5454556293204669442e-2,
              -4.7619070330142227991e-2, 5.000004769810169364e-2,
              -5.2631679379616660734e-2, 5.5555767627403611102e-2,
              -5.8823978658684582339e-2, 6.2500955141213040742e-2,
              -6.6668705882420468033e-2, 7.1432946295361336059e-2,
              -7.6932516411352191473e-2, 8.3353840546109004025e-2,
              -9.0954017145829042233e-2, 1.0009945751278180853e-1,
              -1.1133426586956469049e-1, 1.2550966952474304242e-1,
              -1.4404989676884611812e-1, 1.6955717699740818995e-1,
              -2.0738555102867398527e-1, 2.7058080842778454788e-1,
              -4.0068563438653142847e-1, 8.2246703342411321824e-1,
              -5.7721566490153286061e-1)


def _loggamma(z):
    """Principal branch of log Gamma(z); nan + nan j at a pole or for a
    non-finite z."""
    x, y = z.real, z.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        return complex(math.nan, math.nan)
    if x <= 0.0 and y == 0.0 and x == math.floor(x):
        return complex(math.nan, math.nan)
    if x > 7.0 or abs(y) > 7.0:
        return _lg_stirling(z)
    if abs(z - 1.0) < 0.2:
        return _lg_taylor(z)
    if abs(z - 2.0) < 0.2:
        w = z - 1.0
        return _zlog1(w) + _lg_taylor(w)
    if x < 0.1:
        # reflection; the imaginary part picks the branch of log sin(pi z)
        tmp = math.copysign(2.0 * math.pi, y) * math.floor(0.5 * x + 0.25)
        return (complex(_LOGPI, tmp) - _clog(_sinpi_complex(z))
                - _loggamma(complex(1.0 - x, -y)))
    if math.copysign(1.0, y) > 0.0:
        return _lg_recurrence(z)
    return _lg_recurrence(z.conjugate()).conjugate()


def _lg_stirling(z):
    rz = 1.0 / z
    rzz = rz / z
    t = (z - 0.5) * _clog(z) - z
    return complex(t.real + _HLOG2PI, t.imag) + rz * _cevalpoly(_LG_STIRLING, rzz)


def _lg_recurrence(z):
    """Shift z up past Re 7, counting each time the running product crosses
    the negative real axis from above."""
    signflips = 0
    below = False
    shiftprod = z
    z = complex(z.real + 1.0, z.imag)
    while z.real <= 7.0:
        shiftprod *= z
        now_below = math.copysign(1.0, shiftprod.imag) < 0.0
        if now_below and not below:
            signflips += 1
        below = now_below
        z = complex(z.real + 1.0, z.imag)
    t = _lg_stirling(z) - _clog(shiftprod)
    return complex(t.real, t.imag - signflips * 2 * math.pi)


def _lg_taylor(z):
    """Taylor series of log Gamma about 1."""
    z = z - 1.0
    return z * _cevalpoly(_LG_TAYLOR, z)


def _zlog1(z):
    """log z, by its series about 1 when |z - 1| <= 0.1."""
    if abs(z - 1.0) > 0.1:
        return _clog(z)
    z = z - 1.0
    if z == 0:
        return 0j
    coeff = complex(-1.0, 0.0)
    res = 0j
    for n in range(1, 17):
        coeff *= -z
        res += complex(coeff.real / n, coeff.imag / n)
        # C divides by an underflowed coeff to inf or nan and goes on
        if coeff and abs(res / coeff) < _EPS:
            break
    return res


def _sinpi(x):
    s = 1.0
    if x < 0.0:
        x = -x
        s = -1.0
    r = math.fmod(x, 2.0)
    if r < 0.5:
        return s * math.sin(math.pi * r)
    if r > 1.5:
        return s * math.sin(math.pi * (r - 2.0))
    return -s * math.sin(math.pi * (r - 1.0))


def _cospi(x):
    if x < 0.0:
        x = -x
    r = math.fmod(x, 2.0)
    if r == 0.5:
        return 0.0
    if r < 1.0:
        return -math.sin(math.pi * (r - 0.5))
    return math.sin(math.pi * (r - 1.5))


def _sinpi_complex(z):
    # only the reflection calls this, with |Im z| <= 7: cosh and sinh of
    # pi Im z cannot overflow, so xsf's rescaled branch is not needed
    piy = math.pi * z.imag
    return complex(_sinpi(z.real) * math.cosh(piy), _cospi(z.real) * math.sinh(piy))


def _cevalpoly(coeffs, z):
    """Real polynomial (highest degree first) at complex z, by Knuth's
    second-order recurrence (TAOCP 4.6.4, eq. 3)."""
    a, b = coeffs[0], coeffs[1]
    r = 2.0 * z.real
    s = z.real * z.real + z.imag * z.imag
    for c in coeffs[2:]:
        a, b = _fma(r, a, b), _fma(-s, a, c)
    return complex(z.real * a + b, z.imag * a)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    t = 134217729.0 * a  # 2^27 + 1 splits a double into two halves
    ah = t - (t - a)
    al = a - ah
    t = 134217729.0 * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fma(a, b, c):
    """a b + c rounded once: fsum rounds the exact sum correctly."""
    return math.fsum((*_two_prod(a, b), c))


# -- glibc's complex log and exp ------------------------------------------------


def _clog(z):
    """glibc ``clog`` for a nonzero z in the normal range.  Near |z| = 1 it
    takes log1p of |z|^2 - 1, which it forms without cancellation."""
    x, y = abs(z.real), abs(z.imag)
    if x < y:
        x, y = y, x
    if x == 1.0:
        re = math.log1p(y * y) / 2
    elif 1.0 < x < 2.0 and y < 1.0:
        d2m1 = (x - 1.0) * (x + 1.0)
        if y >= _EPS:
            d2m1 += y * y
        re = math.log1p(d2m1) / 2
    elif 0.5 <= x < 1.0 and y < _EPS / 2:
        re = math.log1p((x - 1.0) * (x + 1.0)) / 2
    elif 0.5 <= x < 1.0 and x * x + y * y >= 0.5:
        re = math.log1p(_x2y2m1(x, y)) / 2
    else:
        re = math.log(abs(complex(x, y)))
    return complex(re, math.atan2(z.imag, z.real))


def _x2y2m1(x, y):
    """x^2 + y^2 - 1 as glibc's ``__x2y2m1`` forms it: the exact products
    and -1, summed smallest first with each partial sum split into its
    rounded value and error."""
    vals = sorted((*reversed(_two_prod(x, x)), *reversed(_two_prod(y, y)), -1.0), key=abs)
    for i in range(4):
        hi = vals[i + 1] + vals[i]
        vals[i] = (vals[i + 1] - hi) + vals[i]
        vals[i + 1] = hi
        vals[i + 1:] = sorted(vals[i + 1:], key=abs)
    return vals[4] + vals[3] + vals[2] + vals[1] + vals[0]


_CEXP_T = 709.0  # int((DBL_MAX_EXP - 1) ln 2)


def _cexp(z):
    """glibc ``cexp`` for a finite z, and nan + nan j for z = nan + nan j."""
    x, y = z.real, z.imag
    if abs(y) > 2.2250738585072014e-308:  # DBL_MIN
        s, c = math.sin(y), math.cos(y)
    else:
        s, c = y, 1.0
    if x > _CEXP_T:
        exp_t = math.exp(_CEXP_T)
        x -= _CEXP_T
        s *= exp_t
        c *= exp_t
        if x > _CEXP_T:
            x -= _CEXP_T
            s *= exp_t
            c *= exp_t
    if x > _CEXP_T:
        return complex(1.7976931348623157e308 * c, 1.7976931348623157e308 * s)
    e = math.exp(x)
    return complex(e * c, e * s)
