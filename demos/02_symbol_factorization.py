#!/usr/bin/env python3
"""The Fourier-symbol factorization, proved exactly.

On the Fourier side the convolution intertwiner of parameter λ is
multiplication by 2^(-n+2λ) π^(n/2) h_{n-2λ}, where h_s = |η|^s / Γ(n/2+s/2).
Multiplying by ξ_n before it, or applying the one-step operator before the
intertwiner at λ+1, give two-term expressions in h-kernels; they agree up to
the exact scalar 1/(4(λ-n+1)).  The whole computation happens in an exact
symbol algebra (rational functions of λ times tracked powers of 2, √π, i).
"""

from covop.symbolcalc import (check_factorization, check_ks_inversion,
                              factorization_constant, knapp_stein_symbol,
                              symbol_ks_after_onestep, symbol_mult_after_ks)

n = 3
print(f"intertwiner symbol (n={n}):")
print("   ", knapp_stein_symbol(n).pretty())

print("\nmultiplication-then-intertwiner:")
print("   ", symbol_mult_after_ks(n).pretty())

print("\nintertwiner-then-one-step:")
print("   ", symbol_ks_after_onestep(n).pretty())

print("\nlinking constant:", factorization_constant(n).pretty())
for nn in range(1, 9):
    assert check_factorization(nn)
print("exact factorization identity holds for n = 1..8")

print("\nthe symbols at λ and n-λ compose to π^n/(Γ(λ)Γ(n-λ)), Knapp-Stein's")
print("inversion constant: the |η| powers cancel, the kernel Gammas are Γ(n-λ)")
print("and Γ(λ), and the coefficients multiply to π^n")
for nn in range(1, 9):
    assert check_ks_inversion(nn)
print("exact inversion identity holds for n = 1..8")
