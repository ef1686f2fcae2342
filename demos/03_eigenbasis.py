"""The function space on the algebra and its Kummer-function eigenbasis.

Elements are finite sums of z*^k f(zeta) / f(zeta) z^n with the operator-trace
inner product.  The group generators act as exact difference operators on the
radial coefficients; the joint eigenfunctions D_k of (pp*, h) have Kummer
polynomial radial parts.  Everything below is checkable to machine precision.
"""

import numpy as np

from e2fock import (
    IrrepLabel,
    adjoint_p,
    algebra_function,
    basis_d,
    eigen_residuals,
    inner_product,
    kummer_recurrence_residual,
    log_factorial,
    op_h,
    op_p,
)

print("Trace inner product on finite-support elements:")
F = algebra_function({-1: np.ones(12)}, 11)   # z* with flat radial profile
print("  (z*, z*) over zeta <= 11 =", inner_product(F, F).real, "(= sum zeta+1 =", sum(range(1, 13)), ")")
G = algebra_function({1: np.ones(12)}, 11)
print("  mixed windings are exactly orthogonal:", inner_product(F, G))

print("\nDifference operators:")
mono = algebra_function({2: [1.0, 2.0, 0.5]}, 2)
print("  p lowers the winding: windings of p(f z^2) =", op_p(mono).windings())
print("  h grades by winding:  h(z*^3 f) = +3 z*^3 f:", op_h(algebra_function({-3: [1.0]}, 0)).coeff(-3)[0].real)

rng = np.random.default_rng(1)
A = algebra_function({-2: rng.standard_normal(9), 0: rng.standard_normal(9)}, 8)
B = algebra_function({-1: rng.standard_normal(9), 0: rng.standard_normal(9)}, 8)
print("  adjoint pairing <pA, B> - <A, p*B> =", abs(inner_product(op_p(A), B) - inner_product(A, adjoint_p(B))))

print("\nEigenbasis D_k, weight lambda = 2:")
label = IrrepLabel(2.0, 3)
d = basis_d(label, 30)
print("  radial values f_3(0..4):", np.round(d.radial[:5], 8))
lag_route = (
    (1j * 2.0) ** 3
    * np.exp(log_factorial(2) - log_factorial(3 + 2) - 0.5)
    / 8.0
    * np.polyval([0.5, -5.0, 10.0], 1.0)  # L^(3)_2(x) = x^2/2 - 5x + 10
)
print("  Laguerre route at zeta=2 agrees:", abs(d.radial[2] - lag_route))
recurrence = kummer_recurrence_residual(1 + label.k, label.lam**2 / 4, 200)  # D_k's radial recurrence
print("  three-term recurrence residual (zeta <= 200):", recurrence.residual)

for lam, k in ((1.0, 0), (4.0, -7), (8.0, 20)):
    c1, c2 = eigen_residuals(IrrepLabel(lam, k), 200)
    print("  lam=%.0f k=%+3d:  pp* residual %.2e,  h residual %g" % (lam, k, c1, c2))
