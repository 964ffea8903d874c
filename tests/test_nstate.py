import cmath
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from adiabatic_lab import nstate
from adiabatic_lab.cli import main
from adiabatic_lab.errors import (
    ConsistencyError,
    ContinuationError,
    DegeneracyError,
    DomainError,
    IntegrationError,
)
from adiabatic_lab.modelio import generate_nstate_model
from adiabatic_lab.numkit import HermitianMatrix, jet_mul, jet_recip, ode
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


def random_model(
    seed, levels, x=0.1, eps=0.25, complex_v=False, vscale=1.0, ground_index=0
):
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.5, 1.5, levels))
    if complex_v:
        a = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        v = (a + a.conj().T) / 2
    else:
        a = rng.normal(size=(levels, levels))
        v = (a + a.T) / 2
    return NStateModel(
        energies=energies,
        v=HermitianMatrix(vscale * v),
        x=x,
        eps=eps,
        ground_index=ground_index,
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


@st.composite
def near_degenerate_levels(draw):
    """Distinct random energies, spread 1 to 18, with a random tracked level
    and one more level to be put next to it: ``(energies, ground_index,
    moved)``, where ``energies[moved]`` is NaN until the test places it."""
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6))
    assume(sum(gaps) >= 1.0)
    others = list(draw(st.floats(-5.0, 5.0)) + np.cumsum([0.0, *gaps]))
    others = draw(st.permutations(others))
    g = draw(st.integers(0, len(others) - 1))
    moved = draw(st.integers(0, len(others)))
    return np.insert(others, moved, np.nan), g + (g >= moved), moved


@settings(derandomize=True, max_examples=40, deadline=None)
@given(levels=near_degenerate_levels())
def test_near_degenerate_tracked_level_refused_property(levels):
    # the moved level sits between the others, so the spread and with it
    # the floor are those of the other levels
    energies, g, moved = levels
    spread = np.nanmax(energies) - np.nanmin(energies)
    floor = nstate.GAP_FLOOR_FACTOR * spread
    side = 1.0 if energies[g] < np.nanmax(energies) else -1.0

    def model_at(share):
        e = energies.copy()
        e[moved] = e[g] + side * share * floor
        v = HermitianMatrix(np.ones((e.size, e.size)))
        return e, dict(v=v, x=0.1, eps=0.25, ground_index=g)

    e, fields = model_at(0.999)
    names = f"levels {g} and {moved} are separated by"
    with pytest.raises(DegeneracyError, match=names):
        NStateModel(energies=e, **fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps({
            "kind": "n-state", "energies": e.tolist(),
            "v_real": fields["v"].entries.real.tolist(),
            "v_imag": fields["v"].entries.imag.tolist(),
            "x": 0.1, "eps": 0.25, "ground_index": g,
        }))
        assert main(["n-state", "oracle", "--model", str(path)]) == 4
    e, fields = model_at(1.001)
    assert NStateModel(energies=e, **fields).min_gap >= floor


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
    xi, phi = rs_recursion(model, 2, 0, at_eps=model.eps)
    ramp = math.exp(model.eps * t)
    a1 = ramp * xi[0, 0] / model.eps
    a2 = ramp * ramp * xi[1, 0] / (2 * model.eps)
    b1 = ramp * phi[0, :, 0]
    b2 = ramp * ramp * phi[1, :, 0]
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
    xi, phi = rs_recursion(m, 6, 2)
    assert xi[0, 0] == pytest.approx(0.7, abs=1e-15)
    for n in range(2, 7):
        assert abs(xi[n - 1, 0]) < 1e-15
    assert np.abs(phi).max() == 0.0


def test_recursion_two_level_embed_second_order():
    xi, _ = rs_recursion(two_level_embed(TWO), 2, 1)
    assert xi[0, 0] == 0.0
    assert xi[1, 0] == pytest.approx(-0.5, abs=1e-15)


def test_recursion_matches_direct_double_sum():
    # order-2 correction vector against the explicit double-sum expression
    # in the slow-switching limit
    m = random_model(17, 3, complex_v=True)
    e, vm, g = m.energies, m.v.entries, 0
    _, phi = rs_recursion(m, 2, 0, at_eps=0.0)
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
    np.testing.assert_allclose(phi[1, :, 0], expected, atol=1e-14)


def test_recursion_orthogonality_exact():
    m = random_model(23, 6, complex_v=True)
    _, phi = rs_recursion(m, 10, 2)
    assert np.abs(phi[:, m.ground_index, :]).max() == 0.0


def test_recursion_rejects_a_negative_jet_order():
    with pytest.raises(DomainError, match="jet order must be >= 0, got -1"):
        rs_recursion(random_model(5, 4), 4, -1)


def test_recursion_arrays_read_only():
    xi, phi = rs_recursion(random_model(5, 4), 6, 2)
    assert xi.shape == (6, 3)
    assert phi.shape == (6, 4, 3)
    for coeffs in (xi, phi):
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1.0


def test_recursion_xi_real_for_hermitian():
    for seed in (1, 2, 3):
        m = random_model(seed, 8, complex_v=True)
        xi, _ = rs_recursion(m, 10, 1)
        assert np.abs(xi[:, 0].imag).max() <= 1e-10


def test_correspondence_with_two_state_recursion():
    xi, _ = rs_recursion(two_level_embed(TWO), 16, 1)
    xv = xi[:, 0]
    gv = gtilde_values(0.0, 8)
    for k in range(1, 9):
        assert abs(xv[2 * k - 1] - gv[k - 1]) <= 1e-12
        assert abs(xv[2 * k - 2]) <= 1e-12 or k == 1  # odd orders vanish


def _recursion_term_by_term(model, order, jet_order, at_eps):
    """The projector recursion with the sum over m of xi_{n-m} phi_m taken
    one jet product at a time: the reference that ``rs_recursion`` must
    match bit for bit."""
    e, g, vm, dim = model.energies, model.ground_index, model.v.entries, model.dim
    k1 = jet_order + 1
    others = np.arange(dim) != g
    n_col = np.arange(1, order + 1)[:, None]
    den = np.zeros((order, dim - 1, k1), dtype=complex)
    den[..., 0] = e[others] - e[g] - 1j * n_col * at_eps
    if jet_order >= 1:
        den[..., 1] = -1j * n_col
    recip = np.zeros((order, dim, k1), dtype=complex)
    recip[:, others] = jet_recip(den)
    xi = np.zeros((order, k1), dtype=complex)
    xi[0, 0] = vm[g, g]
    phi = np.zeros((order, dim, k1), dtype=complex)
    w = np.zeros((dim, k1), dtype=complex)
    w[:, 0] = vm[:, g]
    w[g, 0] = 0.0
    phi[0] = -jet_mul(recip[0], w)
    phi[0, g] = 0.0
    for n in range(2, order + 1):
        xi[n - 1] = np.tensordot(vm[g, :], phi[n - 2], axes=(0, 0))
        bracket = np.tensordot(vm, phi[n - 2], axes=(1, 0))
        bracket[g] = 0.0
        for m_idx in range(1, n):
            bracket -= jet_mul(xi[n - m_idx - 1], phi[m_idx - 1])
        phi[n - 1] = -jet_mul(recip[n - 1], bracket)
        phi[n - 1, g] = 0.0
    return xi, phi


def _assert_recursion_matches_reference(model, order, jet_order, at_eps):
    xi, phi = rs_recursion(model, order, jet_order, at_eps)
    xi_ref, phi_ref = _recursion_term_by_term(model, order, jet_order, at_eps)
    assert np.array_equal(xi, xi_ref)
    assert np.array_equal(phi, phi_ref)


@pytest.mark.parametrize("complex_v", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("levels", [2, 3, 8, 64])
def test_recursion_bit_identical_to_term_by_term_sum(levels, complex_v):
    m = random_model(levels, levels, complex_v=complex_v, ground_index=1)
    for order in (1, 2, 30):
        for jet_order in (0, 1, 2):
            for at_eps in (0.0, m.eps):
                _assert_recursion_matches_reference(m, order, jet_order, at_eps)


@pytest.mark.parametrize(
    "levels, complex_v, jet_order, at_eps",
    [(2, True, 0, 0.25), (3, False, 1, 0.0), (8, True, 2, 0.0), (64, False, 1, 0.25)],
)
def test_recursion_bit_identical_to_term_by_term_sum_order_200(
    levels, complex_v, jet_order, at_eps
):
    # the coefficients of these models stay below 1e86 at order 200, so no
    # mismatch can hide behind an inf or a NaN
    m = random_model(levels, levels, complex_v=complex_v, ground_index=levels - 1)
    _assert_recursion_matches_reference(m, 200, jet_order, at_eps)


@st.composite
def hermitian_models(draw):
    """Models with unit-scale gaps and a Hermitian V, real or complex,
    whose entries are up to about ``scale`` in size, tracking any level."""
    levels = draw(st.integers(2, 5))
    unit = st.floats(-1.0, 1.0)
    gaps = draw(st.lists(st.floats(0.5, 1.5), min_size=levels - 1, max_size=levels - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 4.0]))
    a = np.array(draw(st.lists(unit, min_size=levels * levels, max_size=levels * levels)))
    a = a.reshape(levels, levels)
    if draw(st.booleans()):
        b = np.array(draw(st.lists(unit, min_size=levels * levels, max_size=levels * levels)))
        a = a + 1j * b.reshape(levels, levels)
    return NStateModel(
        energies=np.concatenate([[0.0], np.cumsum(gaps)]),
        v=HermitianMatrix(scale * (a + a.conj().T) / 2),
        x=0.1,
        eps=draw(st.sampled_from([0.1, 0.25])),
        ground_index=draw(st.integers(0, levels - 1)),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    model=hermitian_models(),
    order=st.integers(1, 40),
    jet_order=st.integers(0, 2),
    at_rate=st.booleans(),
)
def test_recursion_bit_identical_to_term_by_term_sum_property(
    model, order, jet_order, at_rate
):
    _assert_recursion_matches_reference(
        model, order, jet_order, model.eps if at_rate else 0.0
    )


@pytest.mark.parametrize("order", [1, 30, 200])
def test_recursion_makes_at_most_two_jet_products_per_order(monkeypatch, order):
    calls = []

    def counting(a, b):
        calls.append(None)
        return jet_mul(a, b)

    monkeypatch.setattr(nstate, "jet_mul", counting)
    rs_recursion(random_model(3, 5, complex_v=True), order, 1)
    assert 0 < len(calls) <= 2 * order


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
    xi, _ = rs_recursion(m, 10, 1)
    assert np.abs(xi[:, 0].imag).max() <= 1e-12


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
        xi, _ = rs_recursion(m, 12, 1)
        n = np.arange(1, 13)
        g_a = float(np.sum(x**n * xi[:, 0].real / n))
        g_b = -1j * np.sum(x**n * xi[:, 1] / n)
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


@st.composite
def weakly_coupled_real_models(draw):
    """Real symmetric models with 2 to 5 levels, gaps 0.5 to 1.5 and any
    tracked level, coupled at x = s * min_gap / ||V||_2 for s in [0.01, 0.1]."""
    levels = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.5, 1.5), min_size=levels - 1, max_size=levels - 1))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=levels * levels, max_size=levels * levels)
    a = np.array(draw(entries)).reshape(levels, levels)
    v = (a + a.T) / 2
    v_norm = float(np.linalg.norm(v, 2))
    # a V near zero would put x**n out of range long before x**n * xi_n
    assume(v_norm >= 0.1)
    energies = np.concatenate([[0.0], np.cumsum(gaps)])
    ground_index = draw(st.integers(0, levels - 1))
    min_gap = float(np.delete(np.abs(energies - energies[ground_index]), ground_index).min())
    return NStateModel(
        energies=energies,
        v=HermitianMatrix(v),
        x=draw(st.floats(0.01, 0.1)) * min_gap / v_norm,
        eps=0.25,
        ground_index=ground_index,
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(model=weakly_coupled_real_models())
def test_split_and_assembled_state_match_exact_diagonalization_property(model):
    g = model.ground_index
    res = assemble_state(model, 20)
    shift = oracle_shift(model)
    assert abs(np.linalg.norm(res.state) - 1.0) <= 1e-12
    # both vectors in the gauge where the tracked component is real and positive
    w, vecs = np.linalg.eigh(model.hamiltonian())
    vec = vecs[:, np.argmax(np.abs(vecs[g]))]
    state = res.state * (abs(res.state[g]) / res.state[g])
    assert np.abs(state - vec * (abs(vec[g]) / vec[g])).max() <= 1e-12
    assert abs(g_split(model, 20).delta_e - shift) <= 1e-12
    assert abs(res.energy - model.ground_energy - shift) <= 1e-12


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
        _, phi = rs_recursion(m, 10, 1)
        target = np.zeros(4, dtype=complex)
        for n in range(1, 11):
            target += m.x**n * phi[n - 1, :, 0]
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
    0.891973374372784 + 0.448513878485797j,
    -0.03851245275095324 - 0.02843018873443767j,
    -0.0244838149222209 - 0.015331300455297937j,
    -0.0036324896334597057 - 0.0022160323073629096j,
    -0.0033451100503746646 - 0.0017862721998316109j,
    -0.006803495576569378 - 0.0037464301257382157j,
]
PINNED_N32 = [
    0.8920248642280171 + 0.4477346438707999j,
    0.033412870375552205 + 0.024746142038051325j,
    -0.003011684290283194 - 0.0019802047536865994j,
    0.021004829215808183 + 0.012217868040820088j,
    0.020734485579312543 + 0.011645580262874251j,
    -0.02392440090082321 - 0.01298763157480365j,
    0.0036275905282894694 + 0.0020560251855397532j,
    -0.005854764235684246 - 0.003182741322809864j,
    -0.004228115193489362 - 0.002240960064094914j,
    -0.002492248639915458 - 0.0013588336948601892j,
    0.00013852491214247682 + 0.0001074553323431196j,
    0.0012285013378898662 + 0.0007036749958737781j,
    -0.0014853505326670056 - 0.0007357955809565636j,
    -0.0012093232470178242 - 0.0006042579631066543j,
    0.00011469383661368766 + 6.708227947721973e-05j,
    -0.002736205746923193 - 0.0014351115948835994j,
    -0.0006514101973828752 - 0.0003787832354435828j,
    0.00227079186045655 + 0.0011692373208204185j,
    4.5887117356619624e-05 + 9.092946874199376e-06j,
    -0.005804045368635717 - 0.0029923593609233455j,
    0.00014313566950517324 + 7.554979034576358e-05j,
    7.701632899415247e-05 + 3.8519029879307824e-05j,
    8.251258624061844e-05 + 4.0470601402670574e-05j,
    0.0008861697077246132 + 0.0004315741667961807j,
    0.0020931378863211394 + 0.0010579668083004832j,
    0.0015578982206008204 + 0.0007885832725449069j,
    0.002198985046571167 + 0.0011439790120584198j,
    -0.0012848629876145142 - 0.000646883709518973j,
    -0.000990858901771169 - 0.0004997162470887421j,
    0.00026835367599241047 + 0.0001473692147898583j,
    -0.0015168411141003363 - 0.0007899816899106948j,
    0.002146164722058294 + 0.0010867418223137427j,
]


@pytest.mark.parametrize(
    "make_model, steps, pinned",
    [
        (lambda: generate_nstate_model(seed=7, levels=6), (234, 2), PINNED_N6),
        (_pinned_n32_model, (788, 0), PINNED_N32),
    ],
    ids=["gen-seed7-N6", "rng-seed11-N32"],
)
def test_evolve_step_counts_and_final_state_pinned(
    monkeypatch, make_model, steps, pinned
):
    # the step-size controller's decisions (accepted, rejected) and the
    # state they lead to; a budget of four times the steps makes a wrong
    # weight, whose error estimate shrinks the step without end, fail fast
    monkeypatch.setattr(ode, "MAX_STEPS", 4 * sum(steps))
    traj = evolve_nstate(make_model(), 0.0, 1e-10)
    assert (traj.accepted_steps, traj.rejected_steps) == steps
    ref = np.array(pinned)
    assert np.abs(traj.final_state - ref).max() <= 1e-12 * np.abs(ref).max()


def test_evolve_generator_products_pinned(monkeypatch):
    # the ramp kernel's products of the real generator [Re V; diag(E)] with
    # a state, which stand in for right-hand-side calls: one at the start,
    # one to size the first step, eleven per trial step and one per
    # accepted step but the last (first same as last). They are counted at
    # np.dot, which the kernel looks up when it is built
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    model = generate_nstate_model(seed=7, levels=6)
    generators = []
    dot = np.dot

    def counting(a, b, out=None):
        if a.ndim == 2 and a.dtype == np.float64:
            generators.append(a)
        return dot(a, b, out)

    monkeypatch.setattr(np, "dot", counting)
    traj = evolve_nstate(model, 0.0, 1e-10)
    assert (traj.accepted_steps, traj.rejected_steps, len(generators)) == (234, 2, 2831)
    assert len(generators) == 1 + 12 * traj.accepted_steps + 11 * traj.rejected_steps
    assert generators[0].shape == (2 * model.dim, model.dim)
    assert all(g is generators[0] for g in generators)


@pytest.mark.parametrize(
    "make_model",
    [lambda: generate_nstate_model(seed=7, levels=6), _pinned_n32_model],
    ids=["gen-seed7-N6", "rng-seed11-N32"],
)
def test_evolve_step_estimate_stays_below_the_step_count(monkeypatch, make_model):
    # the up-front estimate of the step budget check against the steps
    # taken, in the tail (t_end 0, where the fastest level's phase carries
    # it) and on a long ramp (t_end 20)
    model = make_model()
    for tol in (1e-4, 1e-12):
        for t_end in (0.0, 20.0):
            traj = evolve_nstate(model, t_end, tol)
            steps = traj.accepted_steps + traj.rejected_steps
            monkeypatch.setattr(ode, "MAX_STEPS", 0)
            with pytest.raises(IntegrationError, match="before the start") as info:
                evolve_nstate(model, t_end, tol)
            assert info.value.time == traj.times[0]
            estimate = float(re.search(r"about (\S+) steps", str(info.value))[1])
            assert 0 < estimate < steps
            # a budget the run fits is not refused
            monkeypatch.setattr(ode, "MAX_STEPS", steps)
            assert evolve_nstate(model, t_end, tol).accepted_steps == traj.accepted_steps
            monkeypatch.undo()


def test_evolve_step_estimate_follows_a_ramp_that_carries_the_steps(monkeypatch):
    # at t_end 30 the ramp angle is about 3.4x the phase and the run takes
    # 6,860 steps; one rate for both terms estimated 205 of them, 33x low
    model = generate_nstate_model(seed=7, levels=6)
    traj = evolve_nstate(model, 30.0, 1e-10)
    steps = traj.accepted_steps + traj.rejected_steps
    monkeypatch.setattr(ode, "MAX_STEPS", 0)
    with pytest.raises(IntegrationError, match="before the start") as info:
        evolve_nstate(model, 30.0, 1e-10)
    estimate = float(re.search(r"about (\S+) steps", str(info.value))[1])
    assert steps / 12 <= estimate < steps


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
