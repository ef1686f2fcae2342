"""Ladder operators on truncated Fock space, and what a group element does to them.

Walks through the matrix realization of [z, z*] = 1, the transformed vacuum
(the state annihilated by gz) and the transformed number basis, both read
off as columns of U(g), and where truncation artifacts start to bite.
"""

import numpy as np

from e2fock import GroupElement, annihilator, safe_block, u_matrix

dim = 64
a = annihilator(dim)
ad = a.conj().T

print("Canonical pair on a %d-dimensional truncation" % dim)
print("  annihilator entry (1,2) = sqrt(2):", a[1, 2].real)
comm = a @ ad - ad @ a
print("  commutator defect off the boundary:", np.linalg.norm((comm - np.eye(dim))[: dim - 1, : dim - 1]))
print("  corner entry of [z,z*] (should be 1-dim):", comm[dim - 1, dim - 1].real)

g = GroupElement(r=1.2, psi=0.7, phi=0.3)
gz = np.exp(1j * g.phi) * a + g.w * np.eye(dim)
U = u_matrix(g, dim)

print("\nGroup element g: rotation %.2f, translation %.2f e^{i %.2f}" % (g.phi, g.r, g.psi))
vac = U[:, 0]
print("  transformed vacuum U e_0: norm = %.15f" % np.linalg.norm(vac))
print("  ||gz U e_0|| (should vanish):", np.linalg.norm(gz @ vac))

print("\nThe columns of U(g) obey the same ladder algebra:")
for n in (1, 5, 15):
    resid = np.linalg.norm(gz @ U[:, n] - np.sqrt(n) * U[:, n - 1])
    print("  n = %2d: ||gz U e_n - sqrt(n) U e_{n-1}|| = %.3e" % (n, resid))

print("\nTruncation bookkeeping: safe block sizes at dim = 64")
for r in (0.5, 1.0, 1.5, 2.0):
    print("  r = %.1f -> reliable leading block %d x %d" % (r, safe_block(dim, r), safe_block(dim, r)))
