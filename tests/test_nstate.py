import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from adiabatic_lab.errors import (
    ConsistencyError,
    ContinuationError,
    DegeneracyError,
    DomainError,
)
from adiabatic_lab.numkit import HermitianMatrix
from adiabatic_lab.nstate import (
    NStateModel,
    assemble_state,
    dyson2,
    dyson2_terms,
    evolve_nstate,
    g_split,
    oracle_shift,
    rs_recursion,
    two_level_embed,
)
from adiabatic_lab.rng import random_hermitian_model_arrays
from adiabatic_lab.twostate import TwoStateModel, delta_e_closed, gtilde_values

SHIFT = -0.11803398874989485
NORM = 0.9732489894677302

TWO = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)


def random_model(seed, levels, x=0.1, eps=0.25, complex_v=False, vscale=1.0):
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.5, 1.5, levels))
    if complex_v:
        a = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        v = (a + a.conj().T) / 2
    else:
        a = rng.normal(size=(levels, levels))
        v = (a + a.T) / 2
    return NStateModel(
        energies=energies, v=HermitianMatrix(vscale * v), x=x, eps=eps
    )


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_degenerate_tracked_level():
    with pytest.raises(DegeneracyError, match="levels 0 and 1"):
        NStateModel(
            energies=np.array([0.0, 1e-12, 1.0]),
            v=HermitianMatrix(np.zeros((3, 3))),
            x=0.1,
            eps=0.25,
        )


def test_model_rejects_flat_spectrum():
    with pytest.raises(DegeneracyError):
        NStateModel(
            energies=np.array([1.0, 1.0]),
            v=HermitianMatrix(np.eye(2)),
            x=0.1,
            eps=0.25,
        )


def test_model_allows_degeneracy_away_from_tracked_level():
    m = NStateModel(
        energies=np.array([0.0, 1.0, 1.0]),
        v=HermitianMatrix(np.zeros((3, 3))),
        x=0.1,
        eps=0.25,
    )
    assert m.min_gap == 1.0


def test_model_rejects_bad_ground_index_and_sizes():
    with pytest.raises(DomainError, match="ground_index"):
        NStateModel(
            energies=np.array([0.0, 1.0]),
            v=HermitianMatrix(np.zeros((2, 2))),
            x=0.1,
            eps=0.25,
            ground_index=5,
        )
    with pytest.raises(DomainError):
        NStateModel(
            energies=np.array([0.0, 1.0, 2.0]),
            v=HermitianMatrix(np.zeros((2, 2))),
            x=0.1,
            eps=0.25,
        )


def test_two_level_embed_matches_two_state_spectrum():
    emb = two_level_embed(TWO)
    np.testing.assert_allclose(emb.energies, [-1.0, 1.0])
    assert emb.min_gap == 2.0


# ---------------------------------------------------------------------------
# Dyson expansion


def test_dyson2_trivial_perturbation():
    m = NStateModel(
        energies=np.array([0.0, 1.0, 2.5]),
        v=HermitianMatrix(np.zeros((3, 3))),
        x=0.3,
        eps=0.25,
    )
    np.testing.assert_allclose(dyson2(m, -1.3), [1.0, 0.0, 0.0], atol=1e-15)


def test_dyson2_first_order_magnitude():
    # |x V_10 / (i(E_1 - E_0) + eps)| evaluated by hand
    emb = two_level_embed(TWO)
    vec = dyson2(emb, 0.0)
    assert abs(vec[1]) == pytest.approx(0.24806946917841693, abs=1e-15)
    assert abs(vec[1]) == pytest.approx(0.5 / math.sqrt(4.0625), abs=1e-15)


def test_dyson2_is_term_assembly():
    m = random_model(5, 4, complex_v=True)
    zeroth, first, second = dyson2_terms(m, -0.5)
    np.testing.assert_allclose(
        dyson2(m, -0.5), zeroth + m.x * first + m.x**2 * second, atol=1e-15
    )


def _recursion_coefficients_at_finite_rate(model, t):
    """x-polynomial coefficients of the phase-recursion state through
    second order, at the model's finite switching rate."""
    rs = rs_recursion(model, 2, 0, at_eps=model.eps)
    ramp = math.exp(model.eps * t)
    a1 = ramp * rs.xi[0, 0] / model.eps
    a2 = ramp * ramp * rs.xi[1, 0] / (2 * model.eps)
    b1 = ramp * rs.phi_n(1)
    b2 = ramp * ramp * rs.phi_n(2)
    eg = np.zeros(model.dim, dtype=complex)
    eg[model.ground_index] = 1.0
    c0 = eg
    c1 = b1 - 1j * a1 * eg
    c2 = b2 - 1j * a1 * b1 + (-1j * a2 - a1 * a1 / 2) * eg
    return c0, c1, c2


def test_dyson_equivalence_random_models():
    # order-by-order identity between the Dyson expansion and the
    # phase-recursion representation, at finite switching rate
    for seed in range(20):
        m = random_model(seed, 4, x=0.1, eps=0.3, complex_v=True)
        for t in (-1.0, 0.0):
            expected = dyson2_terms(m, t)
            got = _recursion_coefficients_at_finite_rate(m, t)
            for lhs, rhs in zip(expected, got):
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# projector recursion


def test_recursion_diagonal_perturbation():
    m = NStateModel(
        energies=np.array([0.0, 1.0, 2.0]),
        v=HermitianMatrix(np.diag([0.7, -0.2, 0.4])),
        x=0.3,
        eps=0.25,
    )
    rs = rs_recursion(m, 6, 2)
    assert rs.xi[0, 0] == pytest.approx(0.7, abs=1e-15)
    for n in range(2, 7):
        assert abs(rs.xi[n - 1, 0]) < 1e-15
    assert np.abs(rs.phi).max() == 0.0


def test_recursion_two_level_embed_second_order():
    rs = rs_recursion(two_level_embed(TWO), 2, 1)
    assert rs.xi[0, 0] == 0.0
    assert rs.xi[1, 0] == pytest.approx(-0.5, abs=1e-15)


def test_recursion_matches_direct_double_sum():
    # order-2 correction vector against the explicit double-sum expression
    # in the slow-switching limit
    m = random_model(17, 3, complex_v=True)
    e, vm, g = m.energies, m.v.entries, 0
    rs = rs_recursion(m, 2, 0, at_eps=0.0)
    expected = np.zeros(3, dtype=complex)
    for n in range(3):
        if n == g:
            continue
        for mm in range(3):
            if mm == g:
                continue
            expected[n] += vm[n, mm] * vm[mm, g] / (
                (e[n] - e[g]) * (e[mm] - e[g])
            )
        expected[n] -= vm[n, g] * vm[g, g] / (e[n] - e[g]) ** 2
    np.testing.assert_allclose(rs.phi_n(2), expected, atol=1e-14)


def test_recursion_orthogonality_exact():
    m = random_model(23, 6, complex_v=True)
    rs = rs_recursion(m, 10, 2)
    assert np.abs(rs.phi[:, m.ground_index, :]).max() == 0.0


def test_recursion_arrays_read_only():
    rs = rs_recursion(random_model(5, 4), 6, 2)
    assert rs.xi.shape == (6, 3)
    assert rs.phi.shape == (6, 4, 3)
    for coeffs in (rs.xi, rs.phi):
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1.0


def test_recursion_xi_values_real_for_hermitian():
    for seed in (1, 2, 3):
        m = random_model(seed, 8, complex_v=True)
        rs = rs_recursion(m, 10, 1)
        assert np.abs(rs.xi_values().imag).max() <= 1e-10


def test_correspondence_with_two_state_recursion():
    rs = rs_recursion(two_level_embed(TWO), 16, 1)
    xv = rs.xi_values()
    gv = gtilde_values(TWO.delta, 0.0, 8)
    for k in range(1, 9):
        assert abs(xv[2 * k - 1] - gv[k - 1]) <= 1e-12
        assert abs(xv[2 * k - 2]) <= 1e-12 or k == 1  # odd orders vanish


# ---------------------------------------------------------------------------
# phase split and assembled state


def test_g_split_two_level_embed_matches_closed_forms():
    emb = two_level_embed(TWO)
    split = g_split(emb, 30)
    assert split.delta_e == pytest.approx(SHIFT, abs=1e-9)
    f_a_quad, _ = quad(
        lambda u: delta_e_closed(1.0, u) / u, 0.0, 0.5, epsabs=1e-14, epsrel=1e-14
    )
    assert split.g_a == pytest.approx(f_a_quad, abs=1e-9)
    assert math.exp(split.g_b) == pytest.approx(NORM, abs=1e-9)


def test_g_split_diagonal_perturbation():
    m = NStateModel(
        energies=np.array([0.0, 1.0]),
        v=HermitianMatrix(np.diag([0.8, -0.3])),
        x=0.4,
        eps=0.25,
    )
    split = g_split(m, 10)
    assert split.delta_e == pytest.approx(0.4 * 0.8, abs=1e-14)
    assert split.g_b == pytest.approx(0.0, abs=1e-14)


def test_g_split_reality_on_random_real_symmetric_models():
    for seed in (4, 5, 6):
        m = random_model(seed, 8, x=0.05)
        split = g_split(m, 10)
        assert split.max_imag_residue <= 1e-9


def test_g_split_complex_perturbation_carries_structural_phase():
    # a complex Hermitian perturbation adds a genuine constant phase: the
    # log-magnitude coefficient is no longer real and the split refuses
    e = np.array([0.0, 1.0, 2.0])
    v = np.array([[0, 1, 1j], [1, 0, 1], [-1j, 1, 0]], dtype=complex)
    m = NStateModel(energies=e, v=HermitianMatrix(v), x=0.1, eps=0.1)
    with pytest.raises(ConsistencyError, match="g_b"):
        g_split(m, 10)
    # the shift itself stays real: only the finite phase is affected
    rs = rs_recursion(m, 10, 1)
    assert np.abs(rs.xi_values().imag).max() <= 1e-12


def test_complex_perturbation_phase_confirmed_by_ode():
    # extrapolating the evolved constant phase to zero switching rate
    # reproduces the imaginary part of the would-be log-magnitude sum
    e = np.array([0.0, 1.0, 2.0])
    v = np.array([[0, 1, 1j], [1, 0, 1], [-1j, 1, 0]], dtype=complex)
    x = 0.1
    phases = []
    rates = (0.1, 0.05)
    for eps in rates:
        m = NStateModel(energies=e, v=HermitianMatrix(v), x=x, eps=eps)
        rs = rs_recursion(m, 12, 1)
        n = np.arange(1, 13)
        g_a = float(np.sum(x**n * rs.xi_values().real / n))
        g_b = -1j * np.sum(x**n * rs.xi_slopes() / n)
        amp0 = evolve_nstate(m, 0.0, 1e-11, start_threshold=1e-9).final_state[0]
        phases.append(cmath.phase(amp0 * cmath.exp(1j * g_a / eps)))
    extrapolated = 2 * phases[1] - phases[0]  # leading-order in rate
    assert g_b.imag != 0.0
    assert extrapolated == pytest.approx(g_b.imag, rel=0.1)


def test_assemble_trivial_perturbation():
    m = NStateModel(
        energies=np.array([0.0, 1.0, 2.0]),
        v=HermitianMatrix(np.zeros((3, 3))),
        x=0.3,
        eps=0.25,
    )
    res = assemble_state(m, 10)
    np.testing.assert_allclose(res.state, [1.0, 0.0, 0.0], atol=1e-15)
    assert res.split.g_a == res.split.delta_e == res.split.g_b == 0.0
    assert res.energy == 0.0


def test_assemble_two_level_embed_matches_eigenvector():
    res = assemble_state(two_level_embed(TWO), 30)
    np.testing.assert_allclose(
        res.state, [0.9732489894677302, -0.2297529205473612], atol=1e-8
    )
    assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-8)
    assert res.energy == pytest.approx(-1.1180339887498949, abs=1e-9)


def test_assemble_norm_identity_on_random_models():
    for seed in (8, 9):
        m = random_model(seed, 5, x=0.05)
        res = assemble_state(m, 30)
        assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# evolution oracle


def test_evolve_trivial_perturbation_phase_only():
    m = NStateModel(
        energies=np.array([0.4, 1.0]),
        v=HermitianMatrix(np.zeros((2, 2))),
        x=0.3,
        eps=0.25,
    )
    traj = evolve_nstate(m, 0.0, 1e-10)
    t0 = traj.times[0]
    expected = cmath.exp(-1j * 0.4 * (0.0 - t0))
    assert abs(traj.final_state[0] - expected) < 1e-8
    assert abs(traj.final_state[1]) < 1e-12


def test_evolve_norm_preserved():
    m = random_model(12, 4, x=0.2)
    traj = evolve_nstate(m, 0.0, 1e-10)
    assert np.abs(traj.norms() - 1.0).max() <= 1e-8


def test_evolve_component_ratios_converge_to_recursion():
    rng_seed = 21
    energies, v = random_hermitian_model_arrays(rng_seed, 4, 1.0, 1.0)
    residuals = []
    for eps in (0.2, 0.1, 0.05):
        m = NStateModel(energies=energies, v=HermitianMatrix(v), x=0.08, eps=eps)
        rs = rs_recursion(m, 10, 1)
        target = np.zeros(4, dtype=complex)
        for n in range(1, 11):
            target += m.x**n * rs.phi_n(n)
        psi = evolve_nstate(m, 0.0, 1e-10).final_state
        residuals.append(
            max(
                abs(abs(psi[c] / psi[0]) - abs(target[c]))
                for c in range(1, 4)
            )
        )
    assert residuals[0] > residuals[1] > residuals[2]


# ---------------------------------------------------------------------------
# exact-diagonalization oracle


def test_oracle_diagonal_perturbation_exact():
    m = NStateModel(
        energies=np.array([0.0, 1.0, 2.0]),
        v=HermitianMatrix(np.diag([0.6, -0.1, 0.2])),
        x=0.25,
        eps=0.25,
    )
    assert oracle_shift(m) == pytest.approx(0.25 * 0.6, abs=1e-12)


def test_oracle_two_level_embed():
    assert oracle_shift(two_level_embed(TWO)) == pytest.approx(SHIFT, abs=1e-12)


def test_oracle_tracks_adiabatic_continuation_not_global_minimum():
    # tracked level 1 sits above level 0; its shift follows eigenvalue 1
    m = NStateModel(
        energies=np.array([0.0, 2.0]),
        v=HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        x=0.1,
        eps=0.25,
        ground_index=1,
    )
    shift = oracle_shift(m)
    assert shift == pytest.approx(math.hypot(1.0, 0.1) - 1.0, abs=1e-12)
    assert shift > 0


def test_oracle_continuation_failure_for_strong_coupling():
    energies, v = random_hermitian_model_arrays(1, 8, 1.0, 1.0)
    m = NStateModel(energies=energies, v=HermitianMatrix(v), x=200.0, eps=0.25)
    with pytest.raises(ContinuationError, match="ambiguous"):
        oracle_shift(m)


def test_oracle_convergence_order_of_truncated_series():
    # the order-N series misses the oracle by O(x**(N+1)): halving x must
    # shrink the residual by about 2**(N+1)
    energies, v = random_hermitian_model_arrays(7, 6, 1.0, 1.5)
    order = 8
    residuals = []
    for x in (0.069, 0.0345):
        m = NStateModel(energies=energies, v=HermitianMatrix(v), x=x, eps=0.25)
        residuals.append(abs(g_split(m, order).delta_e - oracle_shift(m)))
    log_ratio = math.log2(residuals[0] / residuals[1])
    assert order + 0.5 <= log_ratio <= order + 1.5
