"""Exact spectrum of the coupled two-level system.

The statically coupled matrix has a closed-form eigensystem; the ground
level is shifted down by sqrt(delta**2 + x**2) - delta. Everything the
series machinery later produces is checked against these closed forms,
and the closed forms themselves are checked here against the dense
eigensolver (LAPACK through numpy.linalg.eigh).
"""

import numpy as np

from adiabatic_lab.numkit import hermitian_eig
from adiabatic_lab.twostate import TwoStateModel, delta_e_closed, exact_eigensystem

model = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)
es = exact_eigensystem(model)

print("two-level model: mu=0, delta=1, x=0.5")
print(f"  level shift     {es.delta_e:+.12f}   (exact: delta - sqrt(delta^2+x^2))")
print(f"  ground energy   {es.e0:+.12f}")
print(f"  excited energy  {es.e1:+.12f}")
print(f"  normalization   {es.norm_n:.12f}")
print(f"  ground vector   ({es.psi0[0].real:+.9f}, {es.psi0[1].real:+.9f})")

# cross-check against the dense eigensolver on the full matrix
w, v = hermitian_eig(model.hamiltonian())
print("\ndense eigensolver on the same matrix:")
print(f"  eigenvalues     {w[0]:+.12f}, {w[1]:+.12f}")
print(f"  max |closed - solver| = {max(abs(w[0]-es.e0), abs(w[1]-es.e1)):.2e}")

# the shift is the root of a simple quadratic, continuous with 0 at x=0
print("\nshift vs coupling (quadratic root, always <= 0):")
for x in (0.1, 0.25, 0.5, 0.75):
    de = delta_e_closed(1.0, x)
    residual = de * de - 2.0 * de - x * x
    print(f"  x={x:4.2f}  shift={de:+.10f}  quadratic residual={residual:+.1e}")

overlap = abs(np.vdot(es.psi0, v[:, 0]))
print(f"\nground-vector overlap with solver column: {overlap:.15f}")
