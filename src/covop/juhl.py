"""The covariant operator families on R^n.

The one-step operator is

    (2*lam - n + 2) d/dxi_n  +  xi_n * Laplacian,

lam a formal variable.  Iterating it with shifted parameters and restricting
to the hyperplane xi_n = 0 produces the Juhl-type tangential families.  Their
coefficients depend on n only through u = 2 lam - n, and this module holds
them in u: every iterate in closed form in the reduced basis xi_n^i d_n^j
Lap^k, its tangential sums and the leading product, as int tuples in u
cached per order N.
``lam_poly`` turns a polynomial in u into one in lam, and only the three
functions whose polynomials leave the module call it: ``iterated`` splits
the iterate over derivatives into coefficient classes for the export,
``juhl_coeffs`` substitutes u = 2 lam - n into the tangential sums, read
once per N off the xi_n-free keys, and ``leading_coeff`` gives the first of
them in closed form.  ``normalization_meta`` gives the Gamma-factor
normalization block of a ``coeffs`` document in closed form, as the plain
ints and strings the document holds.  A polynomial in u or lam is the tuple of its
integer coefficients in ascending order with no trailing zero, () for 0;
``padd``, ``pmul`` and ``substitute`` are the one arithmetic of that format,
for the symbolic suite and the symbol calculus too.  ``pretty_lam`` prints
one in lam, and ``pretty_terms`` prints a polynomial in several variables
given as {exponent tuple: coefficient}.
``lap_prime_prefixes`` is the one walk over the derivative multi-indices
m' of Lap'^s: a recursive walk over their first n - 2 entries (the
prefix), one entry at a time, yielding each prefix with its sum and
multinomial weight.  Its two readers, the operator export and the numeric
covariance table, each close the last entry themselves.
"""

from functools import lru_cache, reduce
from math import comb, factorial


# -- ascending coefficient arithmetic ---------------------------------------------


def padd(a, b):
    """Sum of two ascending coefficient sequences, trailing zeros kept."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def pmul(a, b):
    """Product of two ascending coefficient sequences; ints stay ints."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def substitute(p, a, b):
    """p(a x + b) from the ascending coefficients of p(x), by Horner; for
    a != 0 the top coefficient is a^r times that of p, so none is zero."""
    out = []
    for c in reversed(p):
        out = [a * y + b * x for x, y in zip(out + [0], [0] + out)]
        out[0] += c
    return tuple(out)


# -- iterated family -----------------------------------------------------------
#
# The factors generate a small closed algebra: with X = mult by xi_n,
# P = d_n and L = Lap one has [P, X] = 1, [L, X] = 2P, [P, L] = 0, so every
# iterate is a combination of monomials X^i P^j L^k with coefficients
# polynomial in u, which _reduced_iterated gives in closed form as tuples of
# ints; the symbolic suite's shift_consistency composes in the same basis.
# iterated is the one place the basis is split over derivatives, into
# coefficient classes of which the expansion is multinomial multiples; the
# operator export reads them.  juhl_coeffs needs only the xi_n-free part of
# the classes (m, N - 2m), which _tangential_sums reads straight from the
# i = 0 keys.


@lru_cache(maxsize=None)
def _reduced_iterated(N):
    """{(i, j, k): c} for xi_n^i d_n^j Lap^k in the N-fold composition with
    the parameter shifted by one per factor; c holds the integer
    coefficients of u^0, u^1, ..., u = 2 lam - n, with no trailing zero.
    The keys are 0 <= i <= k with j = N + i - 2k >= 0, and

        c_(i,j,k) = N! / (i! (k-i)! 2^(k-i) j!) * prod_{t=k+1}^{N} (u + 2t).

    Proof by induction from c_(0,0,0) = 1 at N = 0: order N composes
    f P + X L, f = u + 2N, on the left of order N - 1, so by [P, X] = 1 and
    [L, X] = 2P its key (i, j, k) collects (f + 2i) c_(i,j-1,k)
    + (i+1)(f + i) c_(i+1,j,k) + c_(i-1,j,k-1), each branch raising the
    weight j + 2k - i by one.  Dividing by the common factor leaves
    N (u + 2N) = j (u + 2N + 2i) + 2(k-i)(u + 2N + i) + i (u + 2k), true as
    j + 2k - i = N; a missing key carries a vanishing factor j, k - i or i.
    Every coefficient is positive, so no key cancels.  The product is
    multiplied out in ints by ``pmul``; the recursion makes the division
    exact.
    """
    out, prod = {}, [1]
    for k in range(N, -1, -1):
        for i in range(max(0, 2 * k - N), k + 1):
            j = N + i - 2 * k
            den = factorial(i) * factorial(k - i) * 2 ** (k - i) * factorial(j)
            out[i, j, k] = tuple(factorial(N) * x // den for x in prod)
        # the product for k - 1 takes t = k
        prod = pmul(prod, (2 * k, 1))
    return out


@lru_cache(maxsize=None)
def _tangential_sums(N):
    """(a_0, ..., a_(N//2)) in u, each the int tuple of

        a_m = sum_{k=m}^{N//2} C(k, m) c_(0, N-2k, k)

    over the xi_n-free reduced keys, the same for every n >= 2; see
    ``juhl_coeffs``."""
    reduced = _reduced_iterated(N)
    sums = []
    for m in range(N // 2 + 1):
        a = []
        for k in range(m, N // 2 + 1):
            a = padd(a, pmul((comb(k, m),), reduced[0, N - 2 * k, k]))
        sums.append(tuple(a))
    return tuple(sums)


@lru_cache(maxsize=None)
def _leading_product(N):
    """prod_{m=N+1}^{2N} (u + m) multiplied out in ints, ascending in u."""
    return tuple(reduce(pmul, [(m, 1) for m in range(N + 1, 2 * N + 1)], [1]))


def lam_poly(p, n):
    """p(2 lam - n) in lam for p in u = 2 lam - n: the one place the
    families leave u for lam."""
    return substitute(p, 2, -n)


def lap_prime_prefixes(n, top):
    """The prefixes (m_1, ..., m_(n-2)) of the m' on R^n, n >= 2, whose sum
    p is at most ``top``, yielded lazily in ascending order as (prefix, p,
    w) with w = prod_k C(m_1 + ... + m_k, m_k), built along the prefix.  The
    m' of order t >= p with this prefix is prefix + (t - p,), and its
    multinomial is w * C(t, p).  A recursive walk over the next entry
    extends the head built so far by each m from 0 up, and yields the head
    once it has n - 2 entries; for n = 2 the one prefix is ((), 0, 1)."""
    d = n - 2

    def walk(head, p, w):
        if len(head) == d:
            yield head, p, w
            return
        for m in range(top - p + 1):
            yield from walk(head + (m,), p + m, w * comb(p + m, m))

    return walk((), 0, 1)


def iterated(n, N):
    """The N-fold composition of one-step operators with per-factor shifts
    lam, lam+1, ..., lam+N-1 (first factor applied first), by coefficient
    class: {(s, a): {(lam_deg, xi_n_deg): int}} with no zero entry.

    Write alpha = (2m', a) with |m'| = s.  Lap^k = sum_{|m| = k}
    multinomial(m) d^(2m) and multinomial(m', m_n) = C(k, m_n) *
    multinomial(m'), so the coefficient of d^alpha in the family is
    multinomial(m') times F(s, a) = sum C(k, m_n) c_(i, j, k) over the
    reduced keys with j + 2 m_n = a and k = s + m_n; no other alpha occurs.
    As sum_{|m'| = s} multinomial(m') d^(2m') = Lap'^s, the family is
    sum F(s, a) Lap'^s d_n^a.  For n = 1 there is no m', so m_n = k and
    s = 0.  The operator export reads this table; ``juhl_coeffs`` reads the
    xi_n-free part of its classes (m, N - 2m) from the i = 0 reduced keys
    alone, and the tests hold the two equal.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    classes = {}
    for (i, j, k), c in _reduced_iterated(N).items():
        c = lam_poly(c, n)
        for m_n in range(k + 1) if n > 1 else (k,):
            coeff = classes.setdefault((k - m_n, j + 2 * m_n), {})
            w = comb(k, m_n)
            for deg, x in enumerate(c):
                coeff[deg, i] = coeff.get((deg, i), 0) + w * x
    out = {}
    for sa, coeff in classes.items():
        coeff = {key: x for key, x in coeff.items() if x}
        if coeff:
            out[sa] = coeff
    return out


def leading_factors(n, N):
    """Linear factors (b, a) meaning b*lam + a of the leading coefficient,
    as int pairs."""
    return [(2, m - n) for m in range(N + 1, 2 * N + 1)]


def pretty_factors(factors):
    """Affine factors (b, a), each b*lam + a, displayed as '(2λ)(2λ+1)(2λ-3)'."""
    return "".join(f"({b}λ+{a})" if a > 0 else (f"({b}λ{a})" if a else f"({b}λ)")
                   for b, a in factors)


def _subscript_var(name):
    if name == "lam":
        return "λ"
    if name.startswith("xi"):
        return "ξ" + name[2:]
    return name


def pretty_terms(variables, terms):
    """Display string of {exponent tuple: rational} over ``variables``,
    highest exponent first.

    Coefficients may be ints or Fractions, and a variable whose exponent is
    0 in every term may be left out of both arguments without changing the
    text.
    """
    if not terms:
        return "0"
    names = [_subscript_var(v) for v in variables]
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "".join(factors)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def pretty_lam(coeffs):
    """Display string of a polynomial in lam given by its ascending
    coefficients, as :func:`pretty_terms` prints it."""
    return pretty_terms(("lam",), {(k,): c for k, c in enumerate(coeffs) if c})


def leading_coeff(n, N):
    """Closed form of the pure-normal-derivative coefficient of the restricted
    family: prod_{m=N+1}^{2N} (2*lam - n + m), multiplied out in ints; the
    top coefficient is 2^N, so there is no trailing zero."""
    return lam_poly(_leading_product(N), n)


@lru_cache(maxsize=None)
def juhl_coeffs(n, N):
    """Tangential coefficients (a_0, ..., a_(N//2)) of the restricted iterated
    family sum_m a_m d_n^(N-2m) Lap'^m, each a polynomial in lam.

    Restriction to xi_n = 0 keeps the xi_n-free terms, the reduced keys with
    i = 0, whose j = N - 2k.  With Lap^k = (Lap' + d_n^2)^k, the term
    c_(0, N-2k, k) d_n^(N-2k) Lap^k gives C(k, m) c_(0, N-2k, k) to the
    coefficient of d_n^(N-2m) Lap'^m, so

        a_m = sum_{k=m}^{N//2} C(k, m) c_(0, N-2k, k),

    the xi_n-free part of the class F(m, N - 2m) of ``iterated``, read
    without building the class table.  It depends on n only through u, so
    the sums in u are held once per N by ``_tangential_sums``, and each
    (n, N) only substitutes u = 2 lam - n.  The k = m term alone reaches the
    top degree N - m, with a positive coefficient, so no a_m has a trailing
    zero.  For n = 1 there is no Lap' and only a_0 survives; a_m, m > 0, is
    ().  a_0 is checked against the closed form, so a mismatch can only mean
    an implementation bug.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    coeffs = tuple(lam_poly(a, n) if m == 0 or n > 1 else ()
                   for m, a in enumerate(_tangential_sums(N)))
    if coeffs[0] != leading_coeff(n, N):
        raise RuntimeError(
            f"leading tangential coefficient deviates from closed form at n={n}, N={N}")
    return coeffs


# -- normalization metadata ---------------------------------------------------


def normalization_meta(n, N):
    """The ``normalization`` block of the ``coeffs`` document of order N on
    R^n, as the document holds it: ints, strings where the schema has
    strings, and the ``display`` line.

    ``pi_power`` and ``gamma_factors`` describe the factor pi^(n(N-1))
    Gamma(lam+N) Gamma(n-lam-N) relating the iterated family to the twisted
    composition with convolution intertwiners; ``ratio_*`` give the
    parity-dependent multiplicative factor relating the restricted family to
    Juhl's own normalization.  For n >= 2 the ratio, ratio_prefactor *
    2^ratio_two_power * prod(b lam + a) over the pairs [b, a] of
    ``ratio_factors``, equals 2^(2 ceil(N/2) - 1) times a_floor(N/2), the
    coefficient of Lap'^(N/2) (of d_n Lap'^((N-1)/2) for odd N).  For n = 1
    and N >= 2 there is no Lap', a_floor(N/2) is 0, and the ratio matches no
    coefficient of the family.  Purely analytic bookkeeping, kept exact: none
    of it enters the operator coefficients.  The prefactor N!/floor(N/2)! is
    an integer, so every value is.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pi_power = n * (N - 1)
    pref = factorial(N) // factorial(N // 2)
    if N % 2 == 0:
        parity, two = "even", N // 2 - 1
        factors = [(2, N - n + 2 * j) for j in range(1, N // 2 + 1)]
    else:
        parity, two = "odd", (N + 1) // 2
        factors = [(2, N - n + 1 + 2 * j) for j in range(N // 2 + 1)]
    gammas = f"Γ(λ+{N})Γ({n - N if n != N else ''}-λ)"
    head = f"π^{pi_power}·{gammas}" if pi_power else gammas
    return {
        "pi_power": pi_power,
        "gamma_factors": [{"const": str(N), "lam_coeff": "1", "exponent": 1},
                          {"const": str(n - N), "lam_coeff": "-1", "exponent": 1}],
        "parity": parity,
        "ratio_prefactor": str(pref),
        "ratio_two_power": two,
        "ratio_factors": [[str(b), str(a)] for b, a in factors],
        "display": (f"normalization {head}; {parity} ratio "
                    f"{pref}·2^{two}·{pretty_factors(factors)}"),
    }
