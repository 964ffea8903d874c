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
from adiabatic_lab.modelio import generate_nstate_model
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


def _pinned_n32_model():
    energies, v = random_hermitian_model_arrays(11, 32, 1.0, 1.0)
    x = 0.05 * float(energies[1] - energies[0])
    return NStateModel(energies=energies, v=HermitianMatrix(v), x=x, eps=0.25)


# final states recorded with the step-size controller's decisions
PINNED_N6 = [
    0.8919733743719458 + 0.4485138784459972j,
    -0.03851245274722773 - 0.028430188761324658j,
    -0.024483814918164433 - 0.015331300322664046j,
    -0.0036324896579073567 - 0.002216032139616494j,
    -0.0033451097877610072 - 0.0017862728221079806j,
    -0.006803495657361558 - 0.0037464353554137026j,
]
PINNED_N32 = [
    0.8920248641166557 + 0.44773464395826784j,
    0.033412870362899624 + 0.024746142008356863j,
    -0.003011684254462436 - 0.0019802047782778685j,
    0.021004829243094273 + 0.012217868034518789j,
    0.020734485560791563 + 0.011645580285699132j,
    -0.023924400873016678 - 0.012987631580612608j,
    0.003627590442974077 + 0.0020560252368046704j,
    -0.005854764300301854 - 0.003182741276067317j,
    -0.004228115241967089 - 0.002240960006867376j,
    -0.002492248721985146 - 0.0013588336206861167j,
    0.00013852489148193117 + 0.00010745533413339366j,
    0.0012285013714955061 + 0.000703674905432067j,
    -0.0014853504787374736 - 0.0007357956968171861j,
    -0.001209323294838733 - 0.0006042579267877925j,
    0.00011469386709813443 + 6.708232737069851e-05j,
    -0.0027362057542698786 - 0.0014351115309365048j,
    -0.0006514100534351808 - 0.0003787832695412637j,
    0.0022707920968108894 + 0.001169236967010486j,
    4.58873069000386e-05 + 9.092725213905747e-06j,
    -0.005804045857191966 - 0.0029923602139343927j,
    0.0001431356539984253 + 7.554973069944173e-05j,
    7.70162057742007e-05 + 3.851917567947913e-05j,
    8.251233549246379e-05 + 4.047088841747622e-05j,
    0.0008861695735606296 + 0.0004315743736125811j,
    0.002093136859993371 + 0.0010579670881028216j,
    0.001557898511163263 + 0.0007885835997448707j,
    0.0021989855806868793 + 0.0011439795163442313j,
    -0.0012848645739015937 - 0.0006468821720919492j,
    -0.0009908578363501945 - 0.000499715215178552j,
    0.0002683552042163794 + 0.00014736850528417763j,
    -0.0015168527468838065 - 0.0007899841905930579j,
    0.002146201193695826 + 0.0010867029615774597j,
]


@pytest.mark.parametrize(
    "make_model, accepted, pinned",
    [
        (lambda: generate_nstate_model(seed=7, levels=6), 453, PINNED_N6),
        (_pinned_n32_model, 2379, PINNED_N32),
    ],
    ids=["gen-seed7-N6", "rng-seed11-N32"],
)
def test_evolve_step_counts_and_final_state_pinned(make_model, accepted, pinned):
    # the step-size controller's decisions and the state they lead to
    traj = evolve_nstate(make_model(), 0.0, 1e-10)
    assert (traj.accepted_steps, traj.rejected_steps) == (accepted, 0)
    ref = np.array(pinned)
    assert np.abs(traj.final_state - ref).max() <= 1e-12 * np.abs(ref).max()


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
