"""The general case: projector recursion vs Dyson vs exact diagonalization.

For an arbitrary finite level count the same program goes through: the
evolved state is written as a phase factor times a normalized correction
series, built by a projector recursion whose resolvent keeps the rate
bookkeeping per order. Three independent checks run here:

  1. finite-rate Dyson expansion matches the recursion order by order,
  2. the secular coefficient matches the exact-diagonalization shift,
  3. the assembled limit state is normalized.
"""

import math

import numpy as np

from adiabatic_lab.modelio import generate_nstate_model, model_to_dict
from adiabatic_lab.nstate import (
    assemble_state,
    dyson2,
    g_split,
    oracle_shift,
    rs_recursion,
)

model = generate_nstate_model(seed=7, levels=6, gap=1.0, vscale=1.5)
print(f"seeded 6-level model: x = {model.x:.6f} (5% of the smallest gap)")
print("energies:", np.array2string(model.energies, precision=4))

# 1. Dyson cross-check at finite rate
vec_dyson = dyson2(model, 0.0)
rs = rs_recursion(model, 2, 0, at_eps=model.eps)
a1 = rs.xi[0, 0] / model.eps
a2 = rs.xi[1, 0] / (2 * model.eps)
eg = np.zeros(model.dim, dtype=complex)
eg[0] = 1.0
vec_rec = (
    eg
    + model.x * (rs.phi_n(1) - 1j * a1 * eg)
    + model.x**2
    * (rs.phi_n(2) - 1j * a1 * rs.phi_n(1) + (-1j * a2 - a1 * a1 / 2) * eg)
)
print(f"\n1. Dyson vs recursion at finite rate: max diff {np.abs(vec_dyson - vec_rec).max():.2e}")

# 2. level shift: truncated series against exact diagonalization
print("\n2. secular shift vs exact diagonalization:")
print(f"{'order':>6} {'series shift':>18} {'|series - exact|':>18}")
exact = oracle_shift(model)
for order in (2, 4, 6, 8):
    split = g_split(model, order)
    print(f"{order:6d} {split.delta_e:18.12f} {abs(split.delta_e - exact):18.2e}")
print(f"{'exact':>6} {exact:18.12f}")

# 3. assembled limit state: normalized by construction of the split
assembled = assemble_state(model, 30)
print(f"\n3. assembled limit state: norm = {np.linalg.norm(assembled.state):.12f}")
print(f"   energy E_0 + shift = {assembled.energy:.12f}")
print(f"   log-magnitude g_b  = {assembled.split.g_b:+.3e} -> factor {math.exp(assembled.split.g_b):.9f}")

print("\nmodel file contents are plain JSON; regenerate with:")
print("  adiabatic-lab n-state gen --seed 7 --levels 6 --vscale 1.5 --out model.json")
print(f"  ({len(model_to_dict(model)['energies'])} levels, real symmetric perturbation)")
