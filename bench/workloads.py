"""The benchmark's workloads: seeded inputs, the CLI command batch, and the
checks of each command's report against the oracle.

Inputs come from ``numpy.random.default_rng(seed)`` only, so one seed gives
one set of inputs on every machine. Everything here is plain numpy; the
oracles themselves live in ``oracles.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("slow-switch", "many-level", "high-order-phase")

# slow-switch: the paper's regime. Steps of the RK45 route grow as 1/eps.
SLOW_EPS = (0.2, 0.05, 0.0125, 0.003125)
# many-level: level counts, coupling as a share of the smallest gap, rate.
LEVELS = (8, 16, 32, 64)
COUPLING_SHARE = 0.05
MANY_EPS = 0.25
MANY_ORDER = 30
START_THRESHOLD = 1e-8
# high-order-phase: recursion order and how many couplings.
PHASE_ORDER = 200
PHASE_POINTS = 3

# Tolerances of the checks, relative to the oracle's scale. The ODE routes
# run at tol 1e-10 from a switch-on start of 1e-8 and agree with the oracles
# to about 3e-9 (two-state) and 1e-7 (N = 64); the algebraic routes to
# about 1e-14.
ODE_TOL = 1e-6
ALGEBRA_TOL = 1e-10

DIGITS_CAP = 16.0


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-able inputs of one workload, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "slow-switch":
        # a narrow band around (1, 0.5) keeps the step count, and so the
        # batch time, within about 2% across seeds
        return {
            "delta": 1.0 + 0.02 * (float(rng.random()) - 0.5),
            "x": 0.5 + 0.02 * (float(rng.random()) - 0.5),
            "eps": list(SLOW_EPS),
        }
    if workload == "many-level":
        models = []
        for n in LEVELS:
            energies = np.concatenate([[0.0], np.cumsum(1.0 + rng.random(n - 1))])
            upper = np.triu(rng.standard_normal((n, n)))
            v = upper + np.triu(upper, 1).T
            models.append(
                {
                    "kind": "n-state",
                    "energies": energies.tolist(),
                    "v_real": v.tolist(),
                    "v_imag": np.zeros((n, n)).tolist(),
                    "x": COUPLING_SHARE * float(energies[1] - energies[0]),
                    "eps": MANY_EPS,
                    "ground_index": 0,
                }
            )
        return {"models": models}
    if workload == "high-order-phase":
        return {"delta": 1.0, "x": sorted((0.2 + 0.7 * rng.random(PHASE_POINTS)).tolist())}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Command:
    """One CLI call; ``key`` says what its report holds for the checks."""

    key: tuple
    argv: list
    out: Path


def commands(workload: str, inputs: dict, work_dir: Path) -> list:
    """The batch, grouped by input item: a list of lists of Commands.

    Model files for the many-level workload are written here, before any
    timing starts.
    """
    items = []
    if workload == "slow-switch":
        for i, eps in enumerate(inputs["eps"]):
            out = work_dir / f"compare-{i}.json"
            argv = ["two-state", "compare", "--delta", repr(inputs["delta"]),
                    "--x", repr(inputs["x"]), "--eps", repr(eps), "--t", "0",
                    "--out", str(out)]
            items.append([Command(("compare", i), argv, out)])
    elif workload == "many-level":
        for i, model in enumerate(inputs["models"]):
            path = work_dir / f"model-{i}.json"
            path.write_text(json.dumps(model), encoding="utf-8")
            item = []
            for sub in ("split", "assemble", "oracle", "compare"):
                out = work_dir / f"{sub}-{i}.json"
                argv = ["n-state", sub, "--model", str(path), "--out", str(out)]
                if sub != "oracle":
                    argv += ["--order", str(MANY_ORDER)]
                item.append(Command((sub, i), argv, out))
            items.append(item)
    elif workload == "high-order-phase":
        for i, x in enumerate(inputs["x"]):
            out = work_dir / f"phase-{i}.json"
            argv = ["two-state", "phase", "--delta", repr(inputs["delta"]),
                    "--x", repr(x), "--order", str(PHASE_ORDER), "--out", str(out)]
            items.append([Command(("phase", i), argv, out)])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.error <= self.tol

    @property
    def digits(self) -> float:
        if self.error <= 0.0:
            return DIGITS_CAP
        return min(DIGITS_CAP, -math.log10(self.error))


def rel_error(value, ref) -> float:
    """|value - ref| / |ref| for scalars, max-norm for vectors; NaN and
    missing values count as infinitely wrong."""
    value = np.asarray(value, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return math.inf
    return float(np.max(np.abs(value - ref)) / np.max(np.abs(ref)))


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _table(report: dict, name: str) -> list:
    for table in report["tables"]:
        if table["name"] == name:
            return table["rows"]
    raise KeyError(f"report has no table {name!r}")


def check_report(workload: str, key: tuple, report: dict, oracle: dict) -> list:
    """Checks of one command's report; a missing field raises KeyError."""
    sub, i = key
    if workload == "slow-switch":
        ref = _complex(oracle["a0"][i])
        methods = {row[0]: complex(row[1], row[2]) for row in _table(report, "methods")}
        eps = oracle["eps"][i]
        return [
            Check(f"a0[ode] eps={eps}", rel_error(methods["ode"], ref), ODE_TOL),
            Check(f"a0[phase-recursion] eps={eps}",
                  rel_error(methods["phase-recursion"], ref), ALGEBRA_TOL),
        ]
    if workload == "many-level":
        ref = oracle["models"][i]
        n = len(ref["ratio_exact"]) + 1
        tag = f"N={n}"
        values = report["values"]
        if sub == "split":
            return [Check(f"split delta_e {tag}",
                          rel_error(values["delta_e[phase-recursion]"], ref["shift"]),
                          ALGEBRA_TOL)]
        if sub == "oracle":
            return [Check(f"oracle shift {tag}",
                          rel_error(values["shift[oracle]"], ref["shift"]), ALGEBRA_TOL)]
        if sub == "assemble":
            state = np.array([complex(r[1], r[2]) for r in _table(report, "state")])
            exact = np.array([_complex(c) for c in ref["vector"]])
            # the eigenvector is fixed only up to a global phase
            overlap = np.vdot(exact, state)
            phase = overlap / abs(overlap) if overlap != 0 else 1.0
            return [Check(f"assemble state {tag}", rel_error(state, phase * exact),
                          ALGEBRA_TOL)]
        if sub == "compare":
            rows = _table(report, "component-ratios")
            r_ode = [1.0] + [row[1] for row in rows]
            r_rec = [1.0] + [row[2] for row in rows]
            # ratios are compared against the whole state, tracked component
            # included, so a tiny far component does not count as all error
            return [
                Check(f"compare delta_e {tag}",
                      rel_error(values["delta_e[phase-recursion]"], ref["shift"]),
                      ALGEBRA_TOL),
                Check(f"compare shift {tag}",
                      rel_error(values["shift[oracle]"], ref["shift"]), ALGEBRA_TOL),
                Check(f"compare ratio[phase-recursion] {tag}",
                      rel_error(r_rec, [1.0] + ref["ratio_exact"]), ALGEBRA_TOL),
                Check(f"compare ratio[ode] {tag}",
                      rel_error(r_ode, [1.0] + ref["ratio_ode"]), ODE_TOL),
            ]
    if workload == "high-order-phase":
        ref = oracle["points"][i]
        values = report["values"]
        tag = f"x={ref['x']:.6f}"
        return [
            Check(f"delta_e_a {tag}",
                  rel_error(values["delta_e_a[phase-recursion]"], ref["delta_e"]),
                  ALGEBRA_TOL),
            Check(f"f_a {tag}", rel_error(values["f_a[phase-recursion]"], ref["f_a"]),
                  ALGEBRA_TOL),
            Check(f"exp_f_b {tag}",
                  rel_error(values["exp_f_b[phase-recursion]"], ref["norm_n"]),
                  ALGEBRA_TOL),
            Check(f"norm_n[exact] {tag}",
                  rel_error(values["norm_n[exact]"], ref["norm_n"]), ALGEBRA_TOL),
        ]
    raise ValueError(f"unknown workload {workload!r} or command {sub!r}")
