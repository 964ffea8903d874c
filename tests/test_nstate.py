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
from scipy.integrate import quad, solve_ivp

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
from adiabatic_lab.numkit import HermitianMatrix, Ramp, jet_mul, jet_recip, jets, ode
from adiabatic_lab.nstate import (
    NStateModel,
    assemble_state,
    dyson2,
    dyson2_terms,
    evolve_nstate,
    g_split,
    oracle_shift,
    rs_recursion,
    switch_on_time,
    two_level_embed,
)
from adiabatic_lab.rng import random_hermitian_model_arrays
from adiabatic_lab.twostate import TwoStateModel, delta_e_closed, gtilde_values
from test_jets import _bench_models

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
    """The projector recursion in complex jets in the rate, with the sum over
    m of xi_{n-m} phi_m taken one jet product at a time: the reference whose
    coefficient k is 1j**k times coefficient k of ``rs_recursion``'s jets
    in s = 1j * rate."""
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
    # within 1e-13 of the largest entry of each array: the two sum in other
    # orders and in other variables, so their last bits differ
    xi, phi = rs_recursion(model, order, jet_order, at_eps)
    xi_ref, phi_ref = _recursion_term_by_term(model, order, jet_order, at_eps)
    turn = 1j ** np.arange(jet_order + 1)
    for got, ref in ((xi * turn, xi_ref), (phi * turn, phi_ref)):
        assert np.isfinite(ref).all()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("complex_v", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("levels", [2, 3, 8, 64])
def test_recursion_agrees_with_the_complex_rate_jets(levels, complex_v):
    m = random_model(levels, levels, complex_v=complex_v, ground_index=1)
    for order in (1, 2, 30):
        for jet_order in (0, 1, 2, 8):
            for at_eps in (0.0, m.eps):
                _assert_recursion_matches_reference(m, order, jet_order, at_eps)


@pytest.mark.parametrize("jet_order", [1, 8])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("levels", [3, 64])
def test_recursion_agrees_with_the_complex_rate_jets_order_200(
    levels, complex_v, jet_order
):
    # the coefficients of these models stay below 1e86 at order 200, so no
    # mismatch can hide behind an inf or a NaN
    m = random_model(levels, levels, complex_v=complex_v, ground_index=levels - 1)
    for at_eps in (0.0, m.eps):
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
def test_recursion_agrees_with_the_complex_rate_jets_property(
    model, order, jet_order, at_rate
):
    _assert_recursion_matches_reference(
        model, order, jet_order, model.eps if at_rate else 0.0
    )


def test_recursion_store_hits_only_the_same_model_and_arguments(monkeypatch):
    runs, body = [], nstate._recursion

    def counted(*args):
        runs.append(args)
        return body(*args)

    monkeypatch.setattr(nstate, "_recursion", counted)
    monkeypatch.setattr(nstate, "_last_recursion", (None, None, None))
    model = random_model(3, 5)
    # equal numbers, another object
    twin = NStateModel(model.energies, model.v, model.x, model.eps)
    stored = rs_recursion(model, 6, 1)
    assert rs_recursion(model, 6, 1) is stored
    assert len(runs) == 1
    # another model object, order, jet order or expansion point runs the body
    for args in ((twin, 6, 1), (model, 7, 1), (model, 6, 2), (model, 6, 1, model.eps)):
        before = len(runs)
        result = rs_recursion(*args)
        assert len(runs) == before + 1
        assert rs_recursion(*args) is result
        assert len(runs) == before + 1
    np.testing.assert_array_equal(rs_recursion(twin, 6, 1)[1], stored[1])
    # a failing call stores nothing: the entry it met stays
    last = rs_recursion(model, 6, 1)
    for args in ((model, 0, 1), (model, 6, -1)):
        with pytest.raises(DomainError):
            rs_recursion(*args)
    before = len(runs)
    assert rs_recursion(model, 6, 1) is last
    assert len(runs) == before


@pytest.mark.parametrize("at_eps", [0.0, 0.25])
def test_stored_recursion_cannot_be_made_writeable(at_eps):
    for array in rs_recursion(random_model(3, 5), 6, 1, at_eps):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flags.writeable = True


def test_recursion_calls_no_jet_kernel_and_is_real_for_a_real_v(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the recursion called a jet kernel or np.tensordot")

    for module in (jets, nstate):
        for name in ("jet_mul", "jet_recip"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    # the sum of products is one matrix product per order
    monkeypatch.setattr(np, "tensordot", refuse)
    real, complex_v = random_model(3, 5), random_model(3, 5, complex_v=True)
    for order in (1, 30, 200):
        for model, at_eps, dtype in (
            (real, 0.0, np.float64), (real, real.eps, np.complex128),
            (complex_v, 0.0, np.complex128),
        ):
            xi, phi = rs_recursion(model, order, 1, at_eps)
            assert xi.dtype == phi.dtype == dtype


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
        # the recursion is real in s = 1j * rate: no residue at all
        assert split.max_imag_residue == 0.0


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
        g_b = np.sum(x**n * xi[:, 1] / n)
        amp0 = evolve_nstate(m, 0.0, 1e-11).final_state[0]
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


def _assembled_order_by_order(model, order):
    """The assembled state as a sum taken one order at a time, in Python
    powers of the coupling."""
    phi = rs_recursion(model, order, 1)[1]
    state = np.zeros(model.dim, dtype=complex)
    state[model.ground_index] = 1.0
    for n in range(1, order + 1):
        state += model.x**n * phi[n - 1, :, 0]
    return state * math.exp(g_split(model, order).g_b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "model, order",
    [(model, 30) for seed in (1, 7, 977) for model in _bench_models(seed)]
    # x**n underflows to 0 before order 400, the jets do not overflow
    + [(random_model(5, 6, x=0.15), 400)],
)
def test_assembled_state_matches_the_order_by_order_sum(model, order):
    # one product of the powers with the corrections, within 4 ulps of the
    # largest entry of the sum taken one order at a time
    ref = _assembled_order_by_order(model, order)
    state = assemble_state(model, order).state
    assert np.abs(state - ref).max() <= 4 * np.spacing(np.abs(ref).max())


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


def test_evolve_start_threshold_validation():
    # the start, at the fixed START_THRESHOLD of the smallest gap, must
    # precede t_end
    m = random_model(12, 4, x=0.2)
    with pytest.raises(DomainError, match="is not before t_end = -1e.09; move t_end later"):
        evolve_nstate(m, -1e9, 1e-10)


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
    0.8919733743747853 + 0.44851387848433677j,
    -0.038512452749434635 - 0.028430188735263644j,
    -0.02448381492907053 - 0.015331300450622736j,
    -0.0036324896415227885 - 0.0022160323018308825j,
    -0.003345110005443466 - 0.0017862722113713763j,
    -0.006803495316203146 - 0.003746430309499277j,
]
PINNED_N32 = [
    0.8920248642284218 + 0.4477346438662012j,
    0.033412870377086366 + 0.02474614203813844j,
    -0.0030116842912325573 - 0.0019802047545473106j,
    0.021004829213526977 + 0.012217868037330236j,
    0.0207344855800155 + 0.011645580265442492j,
    -0.02392440090174373 - 0.012987631571695274j,
    0.003627590527090726 + 0.002056025185165783j,
    -0.005854764232108908 - 0.0031827413112911064j,
    -0.004228115195866857 - 0.002240960063834449j,
    -0.0024922486365799267 - 0.0013588336893730869j,
    0.00013852491265791737 + 0.00010745532854690899j,
    0.0012285013367990519 + 0.0007036749889818815j,
    -0.0014853505385623057 - 0.0007357955750284125j,
    -0.00120932324026123 - 0.0006042579647503271j,
    0.00011469384190638769 + 6.708229500623844e-05j,
    -0.002736205813476272 - 0.0014351115234250927j,
    -0.0006514101872099952 - 0.0003787831853508139j,
    0.0022707919752842985 + 0.0011692371715069077j,
    4.588712014451727e-05 + 9.09294647175909e-06j,
    -0.00580404555949117 - 0.0029923603470014483j,
    0.0001431356723442202 + 7.554978711145656e-05j,
    7.701633244886059e-05 + 3.851904165252206e-05j,
    8.251258499060038e-05 + 4.0470619838557445e-05j,
    0.0008861699157300308 + 0.00043157424846767466j,
    0.0020931377829830453 + 0.0010579663785821743j,
    0.0015578978986557814 + 0.0007885833903276883j,
    0.0021989846085524096 + 0.0011439789851584625j,
    -0.001284863025770946 - 0.0006468839773036853j,
    -0.000990859016189559 - 0.0004997163892964317j,
    0.0002683536341968678 + 0.00014736919265448384j,
    -0.0015168410081811705 - 0.0007899814794199222j,
    0.002146164507677289 + 0.001086741661944576j,
]


@pytest.mark.parametrize(
    "make_model, steps, pinned",
    [
        (lambda: generate_nstate_model(seed=7, levels=6), (119, 0), PINNED_N6),
        (_pinned_n32_model, (363, 0), PINNED_N32),
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
    # the products of the real generator [Re V; diag(E)] with a state, which
    # stand in for right-hand-side calls: two at the start (the derivative
    # that ode_evolve takes and the ramp kernel's first stage), one to size
    # the first step, eleven per trial step and one per accepted step but
    # the last (first same as last). They are counted on a generator of a
    # counting ndarray subclass: the kernel calls its bound dot method, and
    # the ramp called as a right-hand side passes it to np.dot
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    model = generate_nstate_model(seed=7, levels=6)
    generators = []

    class Counting(np.ndarray):
        def dot(self, b, out=None):
            generators.append(self)
            return self.view(np.ndarray).dot(b, out)

        def __array_function__(self, func, types, args, kwargs):
            if func is np.dot and args[0] is self:
                generators.append(self)
            plain = [a.view(np.ndarray) if isinstance(a, Counting) else a for a in args]
            return func(*plain, **kwargs)

    def counting_ramp(*args):
        ramp = Ramp(*args)
        object.__setattr__(ramp, "generator", ramp.generator.view(Counting))
        return ramp

    monkeypatch.setattr(nstate, "Ramp", counting_ramp)
    traj = evolve_nstate(model, 0.0, 1e-10)
    assert (traj.accepted_steps, traj.rejected_steps, len(generators)) == (119, 0, 1430)
    assert len(generators) == 2 + 12 * traj.accepted_steps + 11 * traj.rejected_steps
    assert generators[0].shape == (2 * model.dim, model.dim)
    assert all(g is generators[0] for g in generators)


def _two_level_shape_model(ground_index=0):
    """An N-state model of the two-level shape: energies (0, w) and a real
    V with a zero diagonal."""
    v = HermitianMatrix(np.array([[0.0, 0.8], [0.8, 0.0]]))
    return NStateModel(np.array([0.0, 1.3]), v, 0.1, 0.25, ground_index=ground_index)


def _gen_seed7_n6(offset=0.0, ground_index=0):
    model = generate_nstate_model(seed=7, levels=6)
    return NStateModel(model.energies + offset, model.v, model.x, model.eps,
                       ground_index=ground_index)


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: generate_nstate_model(seed=7, levels=6),
        _pinned_n32_model,
        _two_level_shape_model,
        lambda: _two_level_shape_model(ground_index=1),
        lambda: _gen_seed7_n6(offset=20.0),
        lambda: _gen_seed7_n6(ground_index=2),
    ],
    ids=["gen-seed7-N6", "rng-seed11-N32", "two-level-shape", "two-level-shape-level-1",
         "energies-offset-20", "ground-index-2"],
)
def test_evolve_step_estimate_stays_below_the_step_count(monkeypatch, make_model):
    # the up-front estimate of the step budget check against the steps
    # taken, in the tail (t_end 0, where the fastest level's phase carries
    # it) and on a long ramp (t_end 20). A model of the two-level shape
    # takes that shape's rates; energies offset by 20 rotate the stepped
    # frame by max|E_k|, which the estimate counts (3 to 85 times fewer
    # steps than taken on these models)
    model = make_model()
    for tol in (1e-4, 1e-12):
        for t_end in (0.0, 20.0):
            traj = evolve_nstate(model, t_end, tol)
            steps = traj.accepted_steps + traj.rejected_steps
            monkeypatch.setattr(ode, "MAX_STEPS", 0)
            with pytest.raises(IntegrationError, match="before the start") as info:
                evolve_nstate(model, t_end, tol)
            # refused where stepping starts, the ODE's first row
            assert info.value.time == traj.times[-1 - traj.accepted_steps]
            estimate = float(re.search(r"about (\S+) steps", str(info.value))[1])
            assert 0 < estimate < steps
            # a budget the run fits is not refused
            monkeypatch.setattr(ode, "MAX_STEPS", steps)
            assert evolve_nstate(model, t_end, tol).accepted_steps == traj.accepted_steps
            monkeypatch.undo()


def test_evolve_step_estimate_follows_a_ramp_that_carries_the_steps(monkeypatch):
    # at t_end 30 the ramp angle is about 5.6x the stepped phase and the run
    # takes 6,772 steps; one rate for both terms estimated 205 of 6,860, 33x
    # low
    model = generate_nstate_model(seed=7, levels=6)
    traj = evolve_nstate(model, 30.0, 1e-10)
    steps = traj.accepted_steps + traj.rejected_steps
    monkeypatch.setattr(ode, "MAX_STEPS", 0)
    with pytest.raises(IntegrationError, match="before the start") as info:
        evolve_nstate(model, 30.0, 1e-10)
    estimate = float(re.search(r"about (\S+) steps", str(info.value))[1])
    assert steps / 12 <= estimate < steps


# ---------------------------------------------------------------------------
# closed-form switch-on stretch


class _Started(Exception):
    pass


def _ode_start(monkeypatch, model, t_end, tol, **kwargs):
    """The time and state that ``evolve_nstate`` hands ``ode_evolve``,
    which is stopped there."""
    starts = []

    def started(ramp, y, t, *rest):
        starts.append((t, y))
        raise _Started

    monkeypatch.setattr(nstate, "ode_evolve", started)
    with pytest.raises(_Started):
        evolve_nstate(model, t_end, tol, **kwargs)
    monkeypatch.undo()
    ((t, y),) = starts
    return t, y


def _basis_start(model, t_end=0.0, tol=1e-10):
    t0 = switch_on_time(model.min_gap, model.x, model.eps, t_end, tol)
    y0 = np.zeros(model.dim, dtype=complex)
    y0[model.ground_index] = 1.0
    return t0, y0


def _dop853_reference(model, t0, y0, t1):
    """y(t1) from y0 at t0, by scipy's DOP853 at rtol 1e-13, in the frame
    where the tracked level stands still, turned by its phase exactly: in
    the lab frame DOP853 carries that phase, E_g (t1 - t0), and misses it
    by up to 4e-12 where E_g is not 0."""
    w = model.energies - model.ground_energy
    v, x, eps = model.v.entries, model.x, model.eps

    def rhs(t, y):
        return -1j * (w * y + (x * math.exp(eps * t)) * (v @ y))

    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-13, atol=1e-16)
    assert sol.success
    return cmath.exp(-1j * model.ground_energy * (t1 - t0)) * sol.y[:, -1]


def _stepping_start(model, t_end):
    """Two decades of the ramp before ``t_end``, or the floor, where the
    coupling is 1e-4 of the smallest gap, where that is before the floor
    and ``t_end`` after it; no later than where the coupling reaches
    eps / ||V||."""
    eps = model.eps
    v_norm = np.linalg.norm(model.v.entries, 2)
    bound = math.log(eps / v_norm / model.x) / eps if v_norm else math.inf
    floor = math.log(model.min_gap * 1e-4 / model.x) / eps
    start = t_end - math.log(100.0) / eps
    if start < floor < t_end:
        start = floor
    return min(start, bound)


def _zero_v_model():
    return NStateModel(energies=np.array([0.0, 0.7, 1.5, 2.0]),
                       v=HermitianMatrix(np.zeros((4, 4))), x=0.05, eps=0.25)


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: generate_nstate_model(seed=3, levels=8, eps=0.25),
        lambda: generate_nstate_model(seed=3, levels=64, eps=0.25),
        lambda: generate_nstate_model(seed=3, levels=8, eps=0.05),
        lambda: generate_nstate_model(seed=3, levels=32, eps=0.05),
        lambda: generate_nstate_model(seed=3, levels=8, eps=0.01),
        lambda: random_model(5, 12, eps=0.05, complex_v=True),
        _zero_v_model,
    ],
    ids=["N8-eps0.25", "N64-eps0.25", "N8-eps0.05", "N32-eps0.05", "N8-eps0.01",
         "complex-N12-eps0.05", "zero-V-N4"],
)
def test_stretch_matches_dop853_from_the_basis_start(monkeypatch, make_model):
    # the exact state where stepping starts, two decades of the ramp before
    # the end 0, against DOP853 run from the basis state at t0 through the
    # stretch: within 1e-12 of the state
    model = make_model()
    t0, y0 = _basis_start(model)
    t1, y1 = _ode_start(monkeypatch, model, 0.0, 1e-10)
    assert t0 < t1 == pytest.approx(_stepping_start(model, 0.0), rel=1e-14)
    ref = _dop853_reference(model, t0, y0, t1)
    assert np.abs(y1 - ref).max() <= 1e-12 * np.abs(ref).max()


def test_two_level_shape_takes_the_two_level_series_bound(monkeypatch):
    # at t_end 30 two decades before the end are past both series bounds;
    # the two-level shape's, lam |v| = sqrt(2 eps w), is the later one
    # (about 9.24, against 4.56 where lam ||V|| = eps)
    model = _two_level_shape_model()
    bound = math.log(math.sqrt(2.0 * model.eps * 1.3) / 0.8 / model.x) / model.eps
    assert bound > math.log(model.eps / 0.8 / model.x) / model.eps
    t1, _ = _ode_start(monkeypatch, model, 30.0, 1e-10)
    assert t1 == pytest.approx(bound, rel=1e-13)


@pytest.mark.parametrize("t_end", [1e-300, 1e-15], ids=["1e-300", "1e-15"])
def test_evolve_ends_just_past_zero(t_end):
    # the last accepted step before the end stopped short of it by less
    # than the step floor, and the next trial underflowed; such a trial
    # now ends at t_end
    traj = evolve_nstate(generate_nstate_model(seed=7, levels=6), t_end, 1e-10)
    assert traj.times[-1] == t_end


@pytest.mark.parametrize("t_end", [-45.0], ids=["end-within-two-decades"])
def test_empty_stretch_is_the_basis_start_bit_for_bit(t_end):
    # stepping would start at or before the basis start t0: at t_end -45 two
    # decades before it fall before t0. No exact stretch, and the ODE's own
    # trajectory from the basis state at t0
    model = generate_nstate_model(seed=7, levels=6)
    t0, y0 = _basis_start(model, t_end)
    assert _stepping_start(model, t_end) <= t0
    ramp = Ramp(model.energies, model.v.entries, model.x, model.eps)
    ref = ode.ode_evolve(ramp, y0, t0, t_end, 1e-10)
    traj = evolve_nstate(model, t_end, 1e-10)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states, ref.states)
    assert (traj.accepted_steps, traj.rejected_steps) == (
        ref.accepted_steps, ref.rejected_steps
    )


def test_stretch_trajectory_starts_with_the_basis_state(monkeypatch):
    # first row (t0, basis state), then the ODE's rows from (t1, y(t1))
    model = generate_nstate_model(seed=7, levels=6)
    t0, y0 = _basis_start(model)
    t1, y1 = _ode_start(monkeypatch, model, 0.0, 1e-10)
    traj = evolve_nstate(model, 0.0, 1e-10)
    assert traj.times[0] == t0 and np.array_equal(traj.states[0], y0)
    assert traj.times[1] == t1 and np.array_equal(traj.states[1], y1)
    assert traj.times.size == traj.accepted_steps + 2


@pytest.mark.parametrize("eps", [1e-9], ids=["tail-turned"])
def test_stretch_is_empty_at_a_slow_rate(monkeypatch, eps):
    # at 1e-9, ||V|| lam0 / eps is about 60: the coupling at t0 is already
    # past eps / ||V||, where the series bound puts the start, so the ODE
    # starts at t0 in the basis state
    model = generate_nstate_model(seed=7, levels=6, eps=eps)
    monkeypatch.setattr(ode, "MAX_STEPS", math.inf)
    t0, y0 = _basis_start(model)
    t1, y1 = _ode_start(monkeypatch, model, 0.0, 1e-10)
    assert t1 == t0 and np.array_equal(y1, y0)


@pytest.mark.parametrize("complex_v", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("levels", [3, 16])
@pytest.mark.parametrize("x", [1e-4, 0.05, 2.0])
@pytest.mark.parametrize("eps", [1e-8, 1e-4, 1e-2, 1.0])
def test_evolve_starts_stepping_at_two_decades_the_floor_or_the_series_bound(
    monkeypatch, eps, x, levels, complex_v
):
    # over a grid of couplings, rates and ends, one of them less than two
    # decades past the floor (the coupling 1e-4 of the smallest gap):
    # stepping starts two decades of the ramp before the end, or at the
    # floor where that is before the floor and the end after it, no later
    # than the series bound, and at t0 where that is earlier still, with no
    # tail series. Where it starts after t0, no term of the tail series
    # there exceeds 1 but by rounding (a tail summed with tol
    # (1 + 1e-12) 2**-53 refuses a term above 1 + 1e-12)
    model = random_model(levels, levels, x=x, eps=eps, complex_v=complex_v)
    monkeypatch.setattr(ode, "MAX_STEPS", math.inf)
    ramp = Ramp(model.energies, model.v.entries, x, eps)
    in_band = math.log(model.min_gap * 1e-3 / x) / eps
    for t_end in (-20.0 / eps, 0.0, 5.0 / eps, in_band):
        if t_end <= math.log(model.min_gap * nstate.START_THRESHOLD / x) / eps:
            continue
        t0, _ = _basis_start(model, t_end=t_end)
        t1, _ = _ode_start(monkeypatch, model, t_end, 1e-10)
        monkeypatch.setattr(ode, "MAX_STEPS", math.inf)
        assert t1 == pytest.approx(max(t0, _stepping_start(model, t_end)), rel=1e-13)
        if t1 > t0:
            ramp.tail(x * math.exp(eps * t1), (1 + 1e-12) * 2.0**-53)


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: generate_nstate_model(seed=3, levels=8, eps=0.25),
        lambda: generate_nstate_model(seed=3, levels=8, eps=0.01),
        lambda: random_model(5, 12, eps=0.05, complex_v=True),
    ],
    ids=["N8-eps0.25", "N8-eps0.01", "complex-N12-eps0.05"],
)
def test_ramp_tail_matches_dop853_from_deep_in_the_tail(make_model):
    # the series alone, against scipy's DOP853 at rtol 1e-13 on the
    # tracked-frame equation y' = -i (diag(w) + lam V) y, w = E - E_g, run
    # from a coupling of 1e-12 of the smallest gap, where the first-order
    # tail state is exact to about 1e-24, up to lam = eps / ||V||, the
    # largest coupling at which the N-level route sums it
    model = make_model()
    g, eps = model.ground_index, model.eps
    w = model.energies - model.ground_energy
    v = model.v.entries
    lam0 = 1e-12 * model.min_gap
    lam = eps / np.linalg.norm(v, 2)
    y0 = -1j * lam0 * v[:, g] / (eps + 1j * w)
    y0[g] += 1.0

    def rhs(t, y):
        return -1j * (w * y + (lam0 * math.exp(eps * t)) * (v @ y))

    span = (0.0, math.log(lam / lam0) / eps)
    sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=1e-13, atol=1e-16)
    assert sol.success
    tail = Ramp(model.energies, v, model.x, eps).tail(lam, 1e-10)[:, g]
    assert np.abs(tail - sol.y[:, -1]).max() <= 1e-12


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


def test_oracle_shift_store_hits_only_the_same_model_and_keeps_no_failure(monkeypatch):
    eigs, eig = [], nstate.hermitian_eig

    def counted(m):
        eigs.append(m)
        return eig(m)

    monkeypatch.setattr(nstate, "hermitian_eig", counted)
    monkeypatch.setattr(nstate, "_last_shift", (None, None))
    model = random_model(3, 5)
    # equal numbers, another object
    twin = NStateModel(model.energies, model.v, model.x, model.eps)
    energies, v = random_hermitian_model_arrays(1, 8, 1.0, 1.0)
    strong = NStateModel(energies=energies, v=HermitianMatrix(v), x=200.0, eps=0.25)
    shift = oracle_shift(model)
    assert (oracle_shift(model), len(eigs)) == (shift, 1)
    assert (oracle_shift(twin), len(eigs)) == (shift, 2)
    # a failing call stores nothing: it fails again, and the entry it met stays
    for _ in range(2):
        with pytest.raises(ContinuationError):
            oracle_shift(strong)
    assert (oracle_shift(twin), len(eigs)) == (shift, 4)
    assert (oracle_shift(model), len(eigs)) == (shift, 5)


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
