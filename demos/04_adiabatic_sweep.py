"""Slow-switching sweep: the evolved state lands on the eigenstate.

Integrate the interaction-picture pair from deep in the switch-on tail to
t = 0 for a ladder of switching rates. As the rate drops, the surviving
amplitude converges to the exact normalization N(x) and the component
ratio converges to the eigenvector ratio |shift|/x: the slowly switched
state becomes the coupled ground state, up to the dropped phase.
"""

import time

from adiabatic_lab.twostate import TwoStateModel, evolve_two_state, exact_eigensystem

base = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)
es = exact_eigensystem(base)
target_ratio = abs(es.delta_e) / base.x

print("delta=1, x=0.5: ODE from the switch-on tail to t=0")
print(f"target |a(0)| = N(x) = {es.norm_n:.10f}, target |c/a| = {target_ratio:.10f}\n")
print(f"{'eps':>8} {'|a(0)|':>14} {'error':>10} {'|c/a|':>12} {'steps':>7} {'sec':>6}")

for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    t0 = time.perf_counter()
    traj = evolve_two_state(m, 0.0, 1e-10)
    elapsed = time.perf_counter() - t0
    a, c = traj.final_state
    print(
        f"{eps:8.4f} {abs(a):14.10f} {abs(abs(a) - es.norm_n):10.2e} "
        f"{abs(c / a):12.10f} {traj.accepted_steps:7d} {elapsed:6.2f}"
    )

print("\nthe error falls with the rate while the integrator's step count")
print("grows only like 1/eps: the long quiescent tail is cheap under")
print("adaptive stepping.")
