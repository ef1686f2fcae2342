"""The global identities: addition theorem, scalar corollaries, and limits.

Conjugating an eigenbasis element by U(g) expands it back in the eigenbasis
with Bessel coefficients; sandwiching that statement between number states
yields scalar Kummer-Bessel identities.  The truncated inner products of the
eigenbasis exhibit the delta-normalization concentration, and two asymptotic
regimes (commutative rescaling, large polynomial degree) connect everything
to plane-wave matrix elements and modified Bessel functions.
"""

import numpy as np

from e2fock import (
    GroupElement,
    IrrepLabel,
    addition_residual,
    addition_vacuum_crosscheck,
    classical_limit_error,
    hille_hardy_residual,
    identity_a,
    identity_b,
    kummer_bessel_limit_residual,
    orthogonality_profile_curve,
)

g = GroupElement(r=1.0, psi=0.7, phi=0.3)
label = IrrepLabel(2.0, 1)

print("Operator addition theorem, U(g) D_k U(g)* = sum_n t_kn(g) D_n:")
rep = addition_residual(g, label, dim=96)
print("  relative Frobenius residual on the safe block:", rep.residual)
rep = addition_vacuum_crosscheck(g, IrrepLabel(2.0, 2), dim=96)
print("  <0|.|0> element reproduces the scalar identity:", rep.residual)

print("\nScalar corollaries:")
for k, x, r in [(0, 1.0, 1.0), (3, 0.5, 2.0), (10, 2.0, 0.5)]:
    print("  identity A at k=%2d, x=%.1f, r=%.1f: residual %.2e" % (k, x, r, identity_a(k, x, r).residual))
for m, k, x, r in [(1, 0, 1.0, 1.0), (5, 3, 0.8, 1.5)]:
    print("  identity B at m=%d, k=%d:            residual %.2e" % (m, k, identity_b(m, k, x, r).residual))
print("  bilinear Laguerre sum (k=4, x=2, y=3, z=0.9):", hille_hardy_residual(4, 2.0, 3.0, 0.9).residual)

print("\nDelta-normalization concentration of the eigenbasis:")
diag = orthogonality_profile_curve(0, 2.0, 2.0, 1000)
off = orthogonality_profile_curve(0, 2.0, 3.0, 1000)
print("  equal weights  (2.0, 2.0): partial sums at 100/400/1000 =", np.round([diag[100], diag[400], diag[999]], 3))
print("  mixed weights  (2.0, 3.0): same checkpoints            =", np.round([off[100], off[400], off[999]], 3))
print("  (the diagonal grows without bound, the off-diagonal just oscillates)")

print("\nCommutative rescaling: D_k approaches the plane matrix element")
for sig in (1e-1, 1e-2, 1e-3, 1e-4):
    err = classical_limit_error(IrrepLabel(2.0, 2), 1.5, sig)
    print("  sigma = %7.0e: |rescaled D - t_k0| = %.3e" % (sig, err))

print("\nLarge-degree Kummer values approach a modified Bessel profile:")
for n in (100, 1000, 10000):
    print("  n = %6d: |ratio - 1| = %.3e" % (n, kummer_bessel_limit_residual(n, 3, 4.0)))
