"""The divergence that is not there: series blow-up vs bounded dynamics.

The amplitude a(t) that survives on the initial level has a power series
whose k-th term carries the k-th inverse power of the switching rate.
Slow the switching and the terms explode. Yet the quantity the series
represents stays bounded by 1: direct integration of the Schrodinger pair
shows a perfectly tame amplitude. The explosion lives entirely in how the
series is organized, not in the physics.
"""

from adiabatic_lab.twostate import TwoStateModel, bessel_series_a, evolve_two_state, exact_eigensystem

print("delta=1, x=0.5, t=0: term blow-up vs ODE amplitude")
print(f"{'eps':>8} {'worst series term':>18} {'ODE |a(0)|':>12} {'series sum':>12}")

limit = exact_eigensystem(TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)).norm_n
for eps in (0.5, 0.25, 0.125, 0.0625, 0.03125):
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    series = bessel_series_a(m, 0.0)
    a0 = abs(evolve_two_state(m, 0.0, 1e-10).final_state[0])
    print(
        f"{eps:8.5f} {series.term_magnitudes.max():18.6f} {a0:12.8f} "
        f"{abs(series.value):12.8f}"
    )

print(f"\nslow-switching limit of |a(0)|: {limit:.8f} (the exact normalization)")
print("the worst term doubles with each halving of the rate;")
print("the amplitude barely moves.")

# push the rate low enough and the terms overflow before the tail decays
m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=1e-4)
series = bessel_series_a(m, 0.0)
print(
    f"\nat eps=1e-4 the series is unusable: worst term {series.term_magnitudes.max():.2e}, "
    f"converged={series.converged}"
)
print("the ODE route has no such problem; the recursion route (demo 03)")
print("isolates the entire blow-up into one phase coefficient.")
