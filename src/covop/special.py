"""Gamma-function evaluation with pole guards, for real arguments.

The Gamma function is computed here in pure Python, and returns the same
doubles as ``scipy.special.gamma``, so covop needs no scipy at run time.  It
is a port of Cephes ``Gamma`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, Prentice-Hall 1989) as scipy's ``xsf`` library
carries it: a rational approximation on [2, 3) reached by recurrence, a
small-argument branch, Stirling's formula above 33 and the reflection
formula below -33.  It follows the scipy source operation for operation.
That source is under scipy's BSD-3-Clause licence (Copyright (c) 2001-2002
Enthought, Inc. and 2003- SciPy Developers); the Cephes code in it is
Copyright 1984-2000 by Stephen L. Moshier.

Bit identity also needs the C library's rounding: the port calls the libm
``exp``, ``pow`` and ``sin`` through ``math``.
"""

import math


class PoleAtLambda(Exception):
    """Raised when a numeric evaluation lands on (or too near) a pole of one
    of the Gamma factors involved."""


def near_pole(x, tol=1e-9):
    """True when x is within tol of a nonpositive integer; False when x is
    not finite."""
    x = float(x)
    if not math.isfinite(x):
        return False
    r = round(x)
    return r <= 0 and abs(x - r) <= tol


def gamma_checked(x, tol=1e-9):
    """Gamma(x) of a real x as a float; raises PoleAtLambda when x is within
    tol of a pole."""
    if near_pole(x, tol):
        raise PoleAtLambda(f"Gamma pole at argument {x}")
    return _gamma(float(x))


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
