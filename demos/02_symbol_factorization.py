#!/usr/bin/env python3
"""The Fourier-symbol factorization, proved exactly.

On the Fourier side the convolution intertwiner of parameter λ is
multiplication by 2^(-n+2λ) π^(n/2) h_{n-2λ}, where h_s = |η|^s / Γ(n/2+s/2).
Multiplying by ξ_n before it, or applying the one-step operator before the
intertwiner at λ+1, give two-term expressions in h-kernels; they agree up to
the exact scalar 1/(4(λ-n+1)).  The whole computation happens in an exact
symbol algebra (rational functions of λ times tracked powers of 2, √π, i).
"""

import numpy as np

from covop import check_factorization, knapp_stein_symbol, verify
from covop.symbolcalc import (factorization_constant, symbol_ks_after_onestep,
                              symbol_mult_after_ks)

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

print("\nnumeric cross-check: symbols at λ and n-λ compose to π^n/(Γ(λ)Γ(n-λ))")
rng = np.random.default_rng(0)
for nn in (1, 2, 3, 4):
    r = verify.check_ks_inversion(nn, rng, samples=10)
    print(f"    n={nn}: max relative error {r.max_rel_err:.2e}")
