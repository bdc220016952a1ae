#!/usr/bin/env python3
"""Building the covariant operator families exactly.

The one-step operator on R^n is (2λ - n + 2) ∂_n + ξ_n Δ, with λ a formal
variable.  Composing N copies with the parameter shifted by one per factor
and restricting coefficients to the hyperplane ξ_n = 0 produces an operator
that lies in the span of ∂_n^(N-2j) Δ'^j -- the Juhl-type families -- with
polynomial coefficients we can read off exactly.

covop hands out each composition by coefficient class: ``iterated(n, N)``
maps (s, a) to the coefficient of Δ'^s ∂_n^a, a polynomial in λ and ξ_n.
A tangential coefficient is a polynomial in λ alone, the tuple of its
integer coefficients in ascending order, printed by ``pretty_lam``.
"""

from math import comb

from covop.juhl import (iterated, juhl_coeffs, leading_coeff, normalization_meta,
                        pretty_lam, pretty_terms)

n = 3


def basis(s, a):
    parts = [f"Δ'^{s}" if s > 1 else "Δ'"] if s else []
    if a:
        parts.append(f"∂{n}^{a}" if a > 1 else f"∂{n}")
    return "·".join(parts) or "1"


def show(classes, variables):
    print("   ", " + ".join(f"({pretty_terms(variables, F)})·{basis(s, a)}"
                          for (s, a), F in sorted(classes.items(), reverse=True)))


print(f"one-step operator on R^{n}:")
show(iterated(n, 1), ("lam", f"xi{n}"))

print("\nthree-fold composition (λ, λ+1, λ+2 shifts):")
classes = iterated(n, 3)
terms = sum(comb(s + n - 2, n - 2) for s, a in classes)  # the m' of |m'| = s
order = max(2 * s + a for s, a in classes)
print(f"    {len(classes)} classes of {terms} multi-index terms, total order {order}")

print("\nrestricted to ξ_n = 0 it collapses to tangential form:")
restricted = {sa: {(deg,): c for (deg, i), c in F.items() if not i}
              for sa, F in classes.items()}
show({sa: F for sa, F in restricted.items() if F}, ("lam",))

print("\ntangential coefficients for N = 1..4:")
for N in range(1, 5):
    tang = juhl_coeffs(n, N)
    row = ",  ".join(f"a_{j} = {pretty_lam(a)}" for j, a in enumerate(tang))
    print(f"    N={N}:  {row}")

print("\nthe leading coefficient has the closed product form:")
for N in (2, 5):
    print(f"    N={N}:  {pretty_lam(leading_coeff(n, N))}")

print("\nscalar normalization metadata (Gamma factors and parity ratio):")
for N in (1, 2):
    m = normalization_meta(n, N)
    print(f"    N={N}:  {m['display']}")
    ratio = int(m["ratio_prefactor"]) * 2 ** m["ratio_two_power"]
    for b, a in m["ratio_factors"]:
        ratio *= int(b) + int(a)
    print(f"           ratio at λ=1: {ratio}")
