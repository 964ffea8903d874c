"""Oracles the benchmark checks the program against, computed apart from it.

* slow-switch: the surviving amplitude a(0) = 0F1(; 1 - nu; -s**2/4) with
  nu = 1/2 - i*delta/eps and s = x/eps, by mpmath at 40 digits.
* many-level: numpy.linalg.eigh, continued in the coupling from 0 to x by
  maximum overlap, for the shift and the limit state; scipy's DOP853 at
  rtol 1e-13 from the program's switch-on time for the finite-rate state.
* high-order-phase: the closed forms delta - sqrt(delta**2 + x**2) and
  1/sqrt(1 + (shift/x)**2), and mpmath quadrature of shift(s)/s over (0, x)
  for the divergent coefficient f_a.

Run as a script it computes one workload's oracle and writes it as JSON,
so the measured process never imports scipy or mpmath:

    python3 bench/oracles.py <workload> <seed> <out.json>
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from workloads import START_THRESHOLD, make_inputs

MP_DPS = 40
DOP853_RTOL = 1e-13
CONTINUATION_STEPS = 32


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def slow_switch(inputs: dict) -> dict:
    import mpmath

    mpmath.mp.dps = MP_DPS
    delta = mpmath.mpf(inputs["delta"])
    x = mpmath.mpf(inputs["x"])
    a0 = []
    for eps in inputs["eps"]:
        eps = mpmath.mpf(eps)
        nu = mpmath.mpf(1) / 2 - 1j * delta / eps
        s = x / eps
        a0.append(_pair(mpmath.hyp0f1(1 - nu, -s * s / 4)))
    return {"eps": inputs["eps"], "delta": inputs["delta"], "x": inputs["x"], "a0": a0}


def _continued_eigenpair(energies, v, x, g):
    """Eigenpair of diag(energies) + x*v that continues basis state g."""
    h0 = np.diag(energies)
    vec = np.zeros(energies.size)
    vec[g] = 1.0
    for lam in np.linspace(0.0, x, CONTINUATION_STEPS + 1)[1:]:
        w, vecs = np.linalg.eigh(h0 + lam * v)
        k = int(np.argmax(np.abs(vecs.T @ vec)))
        vec = vecs[:, k] * np.sign(vecs[:, k] @ vec)
    return float(w[k]), vec


def _ode_reference(energies, v, x, eps, g):
    from scipy.integrate import solve_ivp

    gaps = np.abs(energies - energies[g])
    gaps[g] = np.inf
    t0 = math.log(gaps.min() * START_THRESHOLD / x) / eps
    vc = v.astype(complex)

    def rhs(t, y):
        return -1j * (energies * y + (x * math.exp(eps * t)) * (vc @ y))

    y0 = np.zeros(energies.size, dtype=complex)
    y0[g] = 1.0
    sol = solve_ivp(rhs, (t0, 0.0), y0, method="DOP853", rtol=DOP853_RTOL, atol=1e-16)
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.y[:, -1]


def many_level(inputs: dict) -> dict:
    out = []
    for model in inputs["models"]:
        energies = np.array(model["energies"])
        v = np.array(model["v_real"])
        g = model["ground_index"]
        energy, vec = _continued_eigenpair(energies, v, model["x"], g)
        psi = _ode_reference(energies, v, model["x"], model["eps"], g)
        others = [k for k in range(energies.size) if k != g]
        out.append(
            {
                "shift": energy - energies[g],
                "vector": [_pair(c) for c in vec],
                "ratio_exact": [abs(vec[k] / vec[g]) for k in others],
                "ratio_ode": [abs(psi[k] / psi[g]) for k in others],
            }
        )
    return {"models": out}


def high_order_phase(inputs: dict) -> dict:
    import mpmath

    mpmath.mp.dps = MP_DPS
    delta = mpmath.mpf(inputs["delta"])

    def shift(s):
        # cancellation-free delta - sqrt(delta**2 + s**2)
        return -(s * s) / (delta + mpmath.sqrt(delta * delta + s * s))

    points = []
    for x in inputs["x"]:
        xm = mpmath.mpf(x)
        de = shift(xm)
        points.append(
            {
                "x": x,
                "delta_e": float(de),
                "norm_n": float(1 / mpmath.sqrt(1 + (de / xm) ** 2)),
                "f_a": float(mpmath.quad(lambda s: shift(s) / s, [0, xm])),
            }
        )
    return {"points": points}


ORACLES = {
    "slow-switch": slow_switch,
    "many-level": many_level,
    "high-order-phase": high_order_phase,
}


def main(argv) -> int:
    workload, seed, out = argv
    oracle = ORACLES[workload](make_inputs(workload, int(seed)))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
