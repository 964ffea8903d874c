"""Splitting the accumulated phase: divergent, secular, finite.

Writing a(t) = exp(-i f(t)/eps) turns the divergent series into a tame
one: f has a finite slow-switching limit order by order. Dividing by the
rate, the phase splits into
  * f_a / eps : a time-independent divergent phase (physically invisible),
  * shift * t : the secular part, whose coefficient is the level shift,
  * f_b       : a finite log-magnitude that restores normalization.
Dropping the invisible phase leaves exactly the coupled ground state.
"""

import math

import numpy as np

from adiabatic_lab.twostate import (
    TwoStateModel,
    delta_e_closed,
    exact_eigensystem,
    limit_state,
    phase_split,
)

model = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)
split = phase_split(model, order=30)

print("phase split at delta=1, x=0.5 (series order 30):")
print(f"  divergent coefficient f_a   {split.f_a:+.12f}  (divide by eps, then drop)")
print(f"  secular shift               {split.delta_e_a:+.12f}")
print(f"  closed-form shift           {delta_e_closed(1.0, 0.5):+.12f}")
print(f"  log-magnitude f_b           {split.f_b:+.12f}")
print(f"  finite-rate remainder f_c   {split.f_c:+.3e}  (vanishes linearly in eps)")

print("\nnormalization identity exp(f_b) = 1/sqrt(1 + (shift/x)^2):")
print(f"  exp(f_b)        {math.exp(split.f_b):.12f}")
print(f"  closed form     {split.norm_n:.12f}")
print(f"  residual        {split.normalization_residual:.2e}")

# remainder shrinks linearly with the rate
print("\nremainder f_c vs switching rate:")
for eps in (0.4, 0.2, 0.1, 0.05):
    s = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps), 30)
    print(f"  eps={eps:5.2f}  f_c={s.f_c:+.3e}")

# with the divergent factor dropped, the limit state IS the eigenvector
res = limit_state(model, 0.0, order=30)
es = exact_eigensystem(model)
print("\nslow-switching limit state at t=0 vs exact ground vector:")
print(f"  limit state   ({res.state[0].real:+.10f}, {res.state[1].real:+.10f})")
print(f"  eigenvector   ({es.psi0[0].real:+.10f}, {es.psi0[1].real:+.10f})")
print(f"  max difference {np.abs(res.state - es.psi0).max():.2e}")
print(f"  dropped phase coefficient: {res.divergent_coefficient:+.10f}")

h = model.hamiltonian()
residual = np.abs(h @ res.state - es.e0 * res.state).max()
print(f"  eigen-residual |H psi - E0 psi| = {residual:.2e}")
print(f"  norm = {np.linalg.norm(res.state):.12f}, exp(f_b) = {math.exp(split.f_b):.12f}")
