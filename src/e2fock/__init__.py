"""Unitary representations of the Euclidean group E(2) on the Heisenberg algebra.

The plane Euclidean group acts as automorphisms of the algebra [z, z*] = 1.
This package realizes that action concretely:

* ``specfun``  -- stable scalar special functions (Kummer polynomials, which
  also give terminating 2F0 and Laguerre values, integer-order Bessel J and I,
  log-factorials);
* ``fock``     -- truncated Fock-space operators, conjugation by U(g)'s
  factors, safe-block truncation bookkeeping;
* ``e2group``  -- group elements, composition, closed-form matrix elements of
  the implementing unitary U(g), Bessel-type irreducible matrix elements;
* ``repk``     -- the trace-inner-product space of functions on the algebra,
  exact difference-operator generators, and the Kummer eigenbasis D_k;
* ``identities`` -- machine checks for the addition theorem, the two sandwich
  identities, the bilinear Laguerre sum, orthogonality concentration, and the
  classical and Bessel limits;
* ``cli``      -- the ``e2fock verify`` / ``e2fock table`` command line.
"""

from . import e2group, fock, identities, repk, specfun
from .e2group import *  # noqa: F403
from .fock import *  # noqa: F403
from .identities import *  # noqa: F403
from .repk import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

# each layer module's __all__ is its public API; the package re-exports them all
__all__ = [*e2group.__all__, *fock.__all__, *repk.__all__, *identities.__all__, *specfun.__all__, "__version__"]
