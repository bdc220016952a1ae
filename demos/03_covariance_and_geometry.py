#!/usr/bin/env python3
"""Conformal geometry and numerical covariance checks.

Conformal maps of R^n are words in translations, rotations, dilations, and
the chart-change inversion; a word's conformal factor is checked against the
Jacobian of its image jets.  The one-step operator intertwines the weight-λ and weight-(λ+1)
actions of every hyperplane-preserving map, and the restricted iterated
family intertwines weight λ with weight λ+N one dimension down.  Both sides
of each identity are evaluated through jets, so errors sit at rounding level.
"""

from covop import verify
from covop.conformal import ConformalMap, Dilation, GaussianBump, Inversion, Translation

n = 3
g = ConformalMap(n, [Translation((0.4, -0.2, 0.0)), Inversion(), Dilation(1.5)])
xi = (0.7, 0.3, -0.4)
print("a conformal map word:", [type(w).__name__ for w in g.word])
print("  image of xi:      ", tuple(round(c, 6) for c in g.act(xi)))
print("  conformal factor: ", round(g.act_and_factor(xi)[1], 6))
print("  preserves the hyperplane:", g.preserves_hyperplane())

rng = verify.Stream(42)
print("\ngeometric identities (100 seeded samples each, 50 for mult_intertwining):")
for r in verify.geometry_suite(n, rng):
    print(f"    {r.name:32s} max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")

print("\ncovariance of the one-step operator (random words, length <= 3):")
for nn in (2, 3):
    r = verify.check_covariance_one_step(nn, rng, samples=50)
    print(f"    n={nn}: max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")

print("\ncovariance of the restricted families:")
for nn in (2, 3):
    for N in (1, 2, 3):
        r = verify.check_covariance_iterated(nn, N, rng, samples=20)
        print(f"    n={nn}, N={N}: max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")

print("\nconvolution intertwining by quadrature (n=1):")
f = GaussianBump((0.3,), 1.1)
g1 = ConformalMap(1, [Dilation(2.0)])
r = verify.check_ks_intertwining(1, 0.9, g1, f, rng, samples=5)
print(f"    {r.name}: max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")
