#!/usr/bin/env python3
"""Building the covariant operator families exactly.

The one-step operator on R^n is (2λ - n + 2) ∂_n + ξ_n Δ, with λ a formal
variable.  Composing N copies with the parameter shifted by one per factor
and restricting coefficients to the hyperplane ξ_n = 0 produces an operator
that lies in the span of ∂_n^(N-2j) Δ'^j -- the Juhl-type families -- with
polynomial coefficients we can read off exactly.
"""

from fractions import Fraction

from covop import (iterated, juhl_coeffs, leading_coeff, normalization_meta,
                   one_step)

n = 3
print(f"one-step operator on R^{n}:")
print("   ", one_step(n).pretty())

print("\nthree-fold composition (λ, λ+1, λ+2 shifts):")
D = iterated(n, 3)
print(f"    {len(D.terms)} multi-index terms, total order {D.order}")

print("\nrestricted to ξ_n = 0 it collapses to tangential form:")
print("   ", D.restrict().pretty())

print("\ntangential coefficients for N = 1..4:")
for N in range(1, 5):
    tang = juhl_coeffs(n, N)
    row = ",  ".join(f"a_{j} = {a.pretty()}" for j, a in enumerate(tang.coeffs))
    print(f"    N={N}:  {row}")

print("\nthe leading coefficient has the closed product form:")
for N in (2, 5):
    print(f"    N={N}:  {leading_coeff(n, N).pretty()}")

print("\nscalar normalization metadata (Gamma factors and parity ratio):")
for N in (1, 2):
    m = normalization_meta(n, N)
    print(f"    N={N}:  {m.pretty()}")
    ratio = m.ratio_prefactor * Fraction(2) ** m.ratio_two_power
    for b, a in m.ratio_factors:
        ratio *= b + a
    print(f"           ratio at λ=1: {ratio}")
