"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts live.
"""

import cmath
import math

import numpy as np

from adiabatic_lab.cli import main as cli_main
from adiabatic_lab.numkit import HermitianMatrix, hermitian_eig, jet_mul, jet_recip
from adiabatic_lab.nstate import (
    NStateModel,
    dyson2_terms,
    g_split,
    oracle_shift,
    rs_recursion,
    two_level_embed,
)
from adiabatic_lab.report import RunReport, Table, emit, report_from_json
from adiabatic_lab.rng import random_hermitian_model_arrays
from adiabatic_lab.twostate import (
    TwoStateModel,
    bessel_series_a,
    delta_e_closed,
    evolve_two_state,
    exact_eigensystem,
    gtilde_values,
    limit_state,
    phase_series,
    phase_split,
)

STD = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)
NORM = 0.9732489894677302


def check(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_closed_form_shift():
    value = phase_split(STD, 30).delta_e_a
    closed = delta_e_closed(1.0, 0.5)
    quad_residual = abs(value * value - 2.0 * value - 0.25)
    ok = abs(value - closed) <= 1e-10 and quad_residual <= 1e-9
    check(
        "1 closed-form shift",
        ok,
        f"series={value:.12f} closed={closed:.12f} quad_residual={quad_residual:.2e}",
    )


def test_criterion_2_normalization_identity():
    worst = 0.0
    for x in (0.1, 0.3, 0.5, 0.7):
        split = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 40)
        rhs = 1.0 / math.sqrt(1.0 + (delta_e_closed(1.0, x) / x) ** 2)
        worst = max(worst, abs(math.exp(split.f_b) - rhs))
    check("2 normalization identity", worst <= 1e-8, f"worst residual={worst:.2e}")


def test_criterion_3_three_way_agreement():
    worst = 0.0
    for t in (-2.0, -1.0, 0.0):
        a_ode = evolve_two_state(STD, t, 1e-10).final_state[0]
        a_series = bessel_series_a(STD, t).value
        a_rec = cmath.exp(-1j * phase_series(STD, t, 60).value / STD.eps)
        worst = max(
            worst, abs(a_ode - a_series), abs(a_ode - a_rec), abs(a_series - a_rec)
        )
    check("3 three-way agreement", worst <= 1e-6, f"worst pairwise residual={worst:.2e}")


def test_criterion_4_adiabatic_limit():
    errors = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
        traj = evolve_two_state(m, 0.0, 1e-10, start_threshold=1e-9)
        errors.append(abs(abs(traj.final_state[0]) - NORM))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    ok = monotone and errors[-1] <= 5e-3
    check(
        "4 adiabatic limit",
        ok,
        "errors=" + " ".join(f"{e:.2e}" for e in errors),
    )


def test_criterion_5_divergence_confinement():
    max_terms = []
    amplitudes = []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
        max_terms.append(float(bessel_series_a(m, 0.0).term_magnitudes.max()))
        amplitudes.append(abs(evolve_two_state(m, 0.0, 1e-10).final_state[0]))
    doubling = all(b >= 2.0 * a for a, b in zip(max_terms, max_terms[1:]))
    bounded = all(NORM - 0.05 <= a <= 1.0 for a in amplitudes)
    check(
        "5 divergence confinement",
        doubling and bounded,
        "max_terms=" + " ".join(f"{v:.4f}" for v in max_terms)
        + " |a0|=" + " ".join(f"{v:.4f}" for v in amplitudes),
    )


def test_criterion_6_limit_state_is_eigenstate():
    res = limit_state(STD, 0.0, 30)
    es = exact_eigensystem(STD)
    state_err = float(np.abs(res.state - es.psi0).max())
    eigen_err = float(np.abs(STD.hamiltonian() @ res.state - es.e0 * res.state).max())
    ok = state_err <= 1e-8 and eigen_err <= 1e-8
    check(
        "6 limit state eigenstate",
        ok,
        f"state_err={state_err:.2e} eigen_residual={eigen_err:.2e}",
    )


def test_criterion_7_nstate_oracle_equivalence():
    energies, v = random_hermitian_model_arrays(7, 6, 1.0, 1.5)
    gaps = np.abs(energies - energies[0])
    gaps[0] = np.inf
    x = 0.05 * float(gaps.min())
    residuals = []
    for coupling in (x, x / 2):
        m = NStateModel(energies=energies, v=HermitianMatrix(v), x=coupling, eps=0.25)
        residuals.append(abs(g_split(m, 8).delta_e - oracle_shift(m)))
    ratio = residuals[0] / residuals[1]
    ok = residuals[0] <= 1e-8 and 2**8 * 0.5 <= ratio <= 2**9 * 2
    check(
        "7 n-state oracle equivalence",
        ok,
        f"residual={residuals[0]:.2e} halving_ratio={ratio:.1f}",
    )


def test_criterion_8_dyson_recursion_equivalence():
    rng = np.random.default_rng(2016)
    worst = 0.0
    for _ in range(20):
        energies = np.cumsum(rng.uniform(0.5, 1.5, 4))
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = (a + a.conj().T) / 2
        model = NStateModel(energies=energies, v=HermitianMatrix(v), x=0.1, eps=0.3)
        for t in (-1.0, 0.0):
            xi, phi = rs_recursion(model, 2, 0, at_eps=model.eps)
            ramp = math.exp(model.eps * t)
            a1 = ramp * xi[0, 0] / model.eps
            a2 = ramp * ramp * xi[1, 0] / (2 * model.eps)
            b1 = ramp * phi[0, :, 0]
            b2 = ramp * ramp * phi[1, :, 0]
            eg = np.zeros(4, dtype=complex)
            eg[0] = 1.0
            rec = (
                eg,
                b1 - 1j * a1 * eg,
                b2 - 1j * a1 * b1 + (-1j * a2 - a1 * a1 / 2) * eg,
            )
            for lhs, rhs in zip(dyson2_terms(model, t), rec):
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    check("8 dyson equivalence", worst <= 1e-10, f"worst coefficient diff={worst:.2e}")


def test_criterion_9_two_formulations_correspond():
    xi, _ = rs_recursion(two_level_embed(STD), 16, 1)
    xv = xi[:, 0]
    gv = gtilde_values(0.0, 8)
    even_err = max(abs(xv[2 * k - 1] - gv[k - 1]) for k in range(1, 9))
    odd_err = max(abs(xv[2 * k]) for k in range(8))
    ok = even_err <= 1e-12 and odd_err <= 1e-12
    check(
        "9 two-formulation correspondence",
        ok,
        f"even_err={even_err:.2e} odd_err={odd_err:.2e}",
    )


def test_criterion_10_structural_invariants():
    details = []

    # orthogonality of correction vectors: exact zeros by construction
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    v = (a + a.conj().T) / 2
    m = NStateModel(
        energies=np.cumsum(rng.uniform(0.5, 1.5, 6)),
        v=HermitianMatrix(v),
        x=0.05,
        eps=0.25,
    )
    _, phi = rs_recursion(m, 10, 2)
    ortho = float(np.abs(phi[:, m.ground_index, :]).max())
    details.append(f"ortho={ortho:.1e}")
    ok = ortho <= 1e-15

    # reality of split coefficients (real-symmetric perturbation)
    energies, vsym = random_hermitian_model_arrays(13, 6, 1.0, 1.0)
    msym = NStateModel(energies=energies, v=HermitianMatrix(vsym), x=0.05, eps=0.25)
    g_res = g_split(msym, 10).max_imag_residue
    f_res = phase_split(STD, 30).max_imag_residue
    details.append(f"imag_residues=({g_res:.1e},{f_res:.1e})")
    ok = ok and g_res <= 1e-9 and f_res <= 1e-9

    # ODE norm preservation
    drift = float(np.abs(evolve_two_state(STD, 0.0, 1e-10).norms() - 1.0).max())
    details.append(f"norm_drift={drift:.1e}")
    ok = ok and drift <= 1e-8

    # jet mul/recip identities (|c_0| >= 0.1, tail within 2|c_0|: the unit
    # residual is rounding-limited by |c_k/c_0|**order for any implementation)
    jrng = np.random.default_rng(17)
    jet_err = 0.0
    for _ in range(200):
        order = int(jrng.integers(0, 5))
        c0 = (0.1 + jrng.uniform()) * np.exp(2j * np.pi * jrng.uniform())
        tail = jrng.normal(size=order) + 1j * jrng.normal(size=order)
        tail = np.clip(np.abs(tail), 0, 2.0) * np.exp(1j * np.angle(tail)) * abs(c0)
        j = np.concatenate([[c0], tail])
        unit = np.zeros(order + 1, dtype=complex)
        unit[0] = 1.0
        jet_err = max(
            jet_err, float(np.abs(jet_mul(j, jet_recip(j)) - unit).max())
        )
    details.append(f"jet_identity={jet_err:.1e}")
    ok = ok and jet_err <= 1e-12

    # eigensolver reconstruction
    recon_rel = 0.0
    for n in (4, 9, 16):
        b = jrng.normal(size=(n, n)) + 1j * jrng.normal(size=(n, n))
        h = (b + b.conj().T) / 2
        w, vecs = hermitian_eig(h)
        recon_rel = max(
            recon_rel,
            float(np.linalg.norm((vecs * w) @ vecs.conj().T - h) / np.linalg.norm(h)),
        )
    details.append(f"eig_reconstruction={recon_rel:.1e}")
    ok = ok and recon_rel <= 1e-9

    check("10 structural invariants", ok, " ".join(details))


def test_criterion_11_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = cli_main(
            ["n-state", "gen", "--seed", "7", "--levels", "6", "--out", str(path)]
        )
        assert code == 0
    identical = a.read_bytes() == b.read_bytes()

    report = RunReport(
        command="probe",
        parameters={"x": 0.1},
        tables=[Table("t", ["v"], [[0.12345678901234567], [-1e-300]])],
        values={"s[oracle]": -2.0 / 3.0},
        residuals={},
        flags={"ok": True},
    )
    emit(report, "json", tmp_path / "r.json")
    lossless = report_from_json(tmp_path / "r.json") == report
    check(
        "11 cli determinism",
        identical and lossless,
        f"gen_byte_identical={identical} json_round_trip={lossless}",
    )
