"""Reference routes that the tests compare the library against.

The library builds the families in the reduced X^i P^j L^k basis of
``covop.juhl``.  These are the generic routes it replaced: applying a
``DiffOp`` to a polynomial, evaluating a coefficient at a value, and writing
a restricted operator in the tangential basis with a zero-residual
certificate.  They enumerate the multi-indices of Lap'^s themselves, so a
test that uses them does not rest on ``juhl.lap_prime_terms``.
"""

from fractions import Fraction
from math import factorial

from covop.algebra import Poly, _as_fraction
from covop.diffop import op_vars
from covop.juhl import TangentialOp


class NonTangentialForm(Exception):
    """Raised when a restricted operator is not in the tangential span
    a_0 d_n^N + a_1 d_n^(N-2) Lap' + ... (certified by a nonzero residual)."""


def weak_compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
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


def apply(D, p):
    """Exact polynomial D(p) for p over the same variable list."""
    if p.vars != op_vars(D.n):
        raise ValueError("polynomial has incompatible variable list")
    res = Poly.zero(p.vars)
    for alpha, coeff in D.terms.items():
        dp = p
        for i, k in enumerate(alpha):
            for _ in range(k):
                dp = dp.partial(p.vars[i + 1])
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
        try:
            a_univ = Poly.from_univariate(a_j.to_univariate("lam"))
        except ValueError as exc:  # pragma: no cover - guarded above
            raise NonTangentialForm(str(exc))
        coeffs.append(a_univ)
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
