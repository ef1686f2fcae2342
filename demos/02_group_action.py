"""The unitary implementing a plane Euclidean motion on Fock space.

Shows the closed-form matrix elements of U(g), checks unitarity and the
intertwining relation U z U* = e^{i phi} z + r e^{i psi} on the safe block,
and compares a whole block against a brute-force matrix exponential.
"""

import numpy as np
from scipy.linalg import expm

from e2fock import (
    GroupElement,
    IrrepLabel,
    act_on_generator,
    annihilator,
    compose,
    identity,
    inverse,
    irrep_element,
    safe_block,
    u_matrix,
)

g = GroupElement(r=1.0, psi=0.7, phi=0.3)
dim = 64

print("Group arithmetic:")
gi = inverse(g)
print("  g . g^-1 =", compose(g, gi))
print("  identity =", identity())

U = u_matrix(g, dim)

print("\nClosed-form matrix elements:")
print("  <0|U|0> = e^{-r^2/2}:", U[0, 0].real, "vs", np.exp(-0.5))
print("  <1|U|1> at r=1, psi=phi=0 (node):", abs(u_matrix(GroupElement(1, 0, 0), dim)[1, 1]))

a = annihilator(dim)
b = safe_block(dim, g.r)
alpha, beta = act_on_generator(g)
print("\nOn the reliable %d x %d block:" % (b, b))
print("  || U*U - 1 ||_F          =", np.linalg.norm((U.conj().T @ U - np.eye(dim))[:b, :b]))
print("  max|U z U* - (az + b)|   =", np.max(np.abs((U @ a @ U.conj().T - alpha * a - beta * np.eye(dim))[:b, :b])))

oracle = expm(-g.r * np.exp(1j * (g.psi - g.phi)) * a.conj().T + g.r * np.exp(-1j * (g.psi - g.phi)) * a)
oracle = oracle @ expm(-1j * g.phi * (a.conj().T @ a))
phase = oracle[0, 0] / U[0, 0]
print("  vs matrix exponential (one global phase):", np.max(np.abs((phase * U - oracle)[:b, :b])))

print("\nBessel-type irreducible matrix elements t_{kn}(g), weight lambda = 2:")
label = IrrepLabel(2.0)
row = [irrep_element(label, 0, n, g) for n in range(-3, 4)]
print("  row k=0, n=-3..3 moduli:", np.round(np.abs(row), 6))
print("  sum over the full row of |t|^2 (unitarity):", sum(abs(irrep_element(label, 0, n, g)) ** 2 for n in range(-60, 61)))
