#!/usr/bin/env python3
"""The ambient (light-cone) realization of the one-step operator.

Functions on the sphere lift to homogeneous functions on the positive light
cone of R^(1,n+1).  The wave operator □ applied to a degree -(n/2-1)
extension realizes the conformal Laplacian, independently of the extension;
the operator B_μ = x_n □ - 2μ ∂/∂x_n at μ = λ - n/2 + 1 descends to minus
the one-step operator once pushed through the stereographic chart.
"""

from covop import verify
from covop.conformal import GaussianBump
from covop.jets import coordinate_jets

n = 3
mu = 0.7

print("B_mu on coordinate monomials (exact first principles):")
pt = (1.1, 0.2, -0.3, 0.5, 0.4)
coords = coordinate_jets(pt, 2)
lin = verify.ambient_operator(mu, coords[n + 1], coords, n)
sq = verify.ambient_operator(mu, coords[n + 1] * coords[n + 1], coords, n)
print(f"    B_mu(x_n)   = {lin:+.6f}   (expected {-2*mu:+.6f})")
print(f"    B_mu(x_n^2) = {sq:+.6f}   (expected {-2*(2*mu+1)*pt[n+1]:+.6f})")

print("\nthe conformal Laplacian of the constant function is n(n-2)/4:")
rng = verify.Stream(7)
for nn in (2, 3, 4):
    r = verify.check_yamabe_constant(nn, rng, samples=10)
    print(f"    n={nn}: expected {nn*(nn-2)/4:.2f}, max err {r.max_rel_err:.2e}")

print("\n□ on the cone is extension-independent (Euler-certified homogeneity):")
for nn in (2, 3, 4):
    r = verify.check_extension_independence(nn, rng, samples=10)
    print(f"    n={nn}: max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")

print("\nweight-conjugation identity for B_mu (two-route jet evaluation):")
r = verify.check_weight_conjugation(n, rng, samples=15)
print(f"    {r.name}: max_rel_err={r.max_rel_err:.2e}")

print("\nchart transport: B at weight λ-n/2+1 equals minus the one-step operator")
f = GaussianBump((0.2, -0.1, 0.3), 1.2)
r = verify.check_ambient_noncompact(n, 0.8, f, rng, samples=15)
print(f"    {r.name}: max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")

print("\nthree-route agreement on the sphere (ambient / conjugated Yamabe / chart):")
r = verify.check_ambient_compact(n, 1.2, lambda x: x[0] * x[n] + x[1] * x[1], rng,
                                 samples=10)
print(f"    {r.name}: max_rel_err={r.max_rel_err:.2e}  passed={r.passed}")
