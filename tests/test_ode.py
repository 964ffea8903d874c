import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from adiabatic_lab.errors import DomainError, IntegrationError
from adiabatic_lab.numkit import Trajectory, ode, ode_evolve
from adiabatic_lab.twostate import TwoStateModel, evolve_two_state


def test_exact_oscillator():
    omega = 3.0
    rhs = lambda t, y: 1j * omega * y
    traj = ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 5.0, 1e-10)
    assert abs(traj.final_state[0] - np.exp(1j * omega * 5.0)) < 1e-8
    assert traj.times[-1] == 5.0
    assert traj.accepted_steps == traj.times.size - 1


def test_forced_real_system_against_closed_form():
    # y' = -y + sin(t): y(t) = (y0 + 1/2) e^-t + (sin t - cos t)/2
    rhs = lambda t, y: -y + np.sin(t)
    traj = ode_evolve(rhs, np.array([0.2 + 0j]), 0.0, 4.0, 1e-11)
    expected = 0.7 * np.exp(-4.0) + (np.sin(4.0) - np.cos(4.0)) / 2
    assert abs(traj.final_state[0] - expected) < 1e-9


def test_tolerance_halving_never_degrades():
    omega = 2.0
    rhs = lambda t, y: 1j * omega * np.exp(0.3 * t) * y[::-1]
    y0 = np.array([1.0, 0.0], dtype=complex)
    ref = ode_evolve(rhs, y0, 0.0, 3.0, 1e-13).final_state
    tols = [1e-6, 5e-7, 2.5e-7, 1.25e-7, 6.25e-8]
    errors = [
        np.abs(ode_evolve(rhs, y0, 0.0, 3.0, tol).final_state - ref).max()
        for tol in tols
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 2.0 * coarse


def test_norm_preservation_random_anti_hermitian():
    rng = np.random.default_rng(3)
    tol = 1e-9
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h0 = (a + a.conj().T) / 2
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h1 = (b + b.conj().T) / 2
        rhs = lambda t, y: -1j * ((h0 + np.sin(t) * h1) @ y)
        y0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        y0 /= np.linalg.norm(y0)
        traj = ode_evolve(rhs, y0, 0.0, 10.0, tol)
        assert np.abs(traj.norms() - 1.0).max() <= 100 * tol


def test_step_underflow_reports_failure_time():
    # finite-time blow-up at t = 1
    rhs = lambda t, y: y * y
    with pytest.raises(IntegrationError) as excinfo:
        ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 2.0, 1e-10)
    assert excinfo.value.time is not None
    assert 0.9 < excinfo.value.time <= 1.05
    assert "t =" in str(excinfo.value)


def test_step_underflow_reports_failure_time_pair():
    # the first component blows up at t = 1, the second stays bounded
    rhs = lambda t, y: y * y
    with pytest.raises(IntegrationError) as excinfo:
        ode_evolve(rhs, np.array([1.0 + 0j, 0.5j]), 0.0, 2.0, 1e-10)
    error = excinfo.value
    assert error.time is not None
    assert 0.9 < error.time <= 1.05
    assert "t =" in str(error)


def test_non_finite_start_raises_at_once(monkeypatch):
    # a NaN step passes any `h <= floor` test, so without the start check
    # the loop would run out the whole step budget
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.full_like(y, np.nan)

    with pytest.raises(IntegrationError, match="not finite") as excinfo:
        ode_evolve(rhs, np.array([1.0 + 0j, 0j]), -3.0, 0.0, 1e-10)
    assert excinfo.value.time == -3.0
    assert len(calls) == 1


def test_non_finite_start_state_raises_at_once(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    rhs = lambda t, y: np.zeros_like(y)
    with pytest.raises(IntegrationError, match="not finite"):
        ode_evolve(rhs, np.array([np.nan + 0j]), 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("y0", [[1.0 + 0j], [1.0 + 0j, 0.5j]], ids=["size1", "size2"])
def test_nan_after_start_underflows_within_a_few_dozen_steps(monkeypatch, y0):
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y if t == 0.0 else np.full_like(y, np.nan)

    with pytest.raises(IntegrationError, match="underflow"):
        ode_evolve(rhs, np.array(y0), 0.0, 1.0, 1e-10)
    assert len(calls) < 7 * 40


@pytest.mark.parametrize("y0", [[1.0 + 0j], [1.0 + 0j, 0j]], ids=["size1", "size2"])
def test_step_budget_exhausted(monkeypatch, y0):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    rhs = lambda t, y: 1j * y
    with pytest.raises(IntegrationError, match="step budget exhausted") as excinfo:
        ode_evolve(rhs, np.array(y0), 0.0, 100.0, 1e-10)
    assert 0.0 < excinfo.value.time < 100.0


def test_rejects_bad_window_and_tolerance():
    rhs = lambda t, y: y
    with pytest.raises(DomainError):
        ode_evolve(rhs, np.array([1.0 + 0j]), 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 1.0, 0.0)


def test_trajectory_invariants():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(
            times=np.array([0.0, 0.0]),
            states=np.zeros((2, 2), dtype=complex),
            accepted_steps=1,
            rejected_steps=0,
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.zeros((3, 2), dtype=complex),
            accepted_steps=2,
            rejected_steps=0,
        )


def test_trajectory_records_every_accepted_step():
    rhs = lambda t, y: -y
    traj = ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 1.0, 1e-8)
    assert traj.times[0] == 0.0
    assert traj.states.shape == (traj.times.size, 1)
    assert np.all(np.diff(traj.times) > 0)


def test_sequence_rhs_matches_array_rhs():
    def rhs_tuple(t, y):
        a, c = y.tolist()
        w = -0.5j * math.exp(0.3 * t)
        return (w * c, w * a + 1j * c)

    def rhs_array(t, y):
        return np.array(rhs_tuple(t, y))

    y0 = np.array([1.0, 0.0], dtype=complex)
    seq = ode_evolve(rhs_tuple, y0, -5.0, 2.0, 1e-10)
    arr = ode_evolve(rhs_array, y0, -5.0, 2.0, 1e-10)
    assert seq.accepted_steps == arr.accepted_steps
    assert seq.rejected_steps == arr.rejected_steps
    assert np.array_equal(seq.times, arr.times)
    assert np.array_equal(seq.states, arr.states)


def test_large_finite_state_accepted():
    # its squared norm overflows; the error scale must not
    rhs = lambda t, y: 1j * y
    traj = ode_evolve(rhs, np.array([1e200 + 0j, 3e199 + 0j]), 0.0, 1.0, 1e-10)
    expected = np.array([1e200, 3e199]) * np.exp(1j)
    assert np.abs(traj.final_state - expected).max() <= 1e-8 * 1e200


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize(
    "y0, lo, hi",
    [
        ([1e308 + 0j], 0.7, 0.8),
        ([1e308 + 0j, 1e308 + 0j], 0.7, 0.8),
        # |y| = 1e308 sqrt((1 + t)**2 + 1) overflows at t = 0.494, its parts at 0.798
        ([1e308 + 1e308j, 1e308 + 1e308j], 0.49, 0.5),
    ],
    ids=["single", "parts", "modulus"],
)
def test_overflowing_state_never_accepted(y0, lo, hi):
    # y = 1e308 (1 + t) overflows at t ~ 0.8 while the error estimate of a
    # constant right-hand side stays finite; the step must still be rejected.
    # The update's weights of both signs exceed 1, so an overflowing update
    # can sum +inf and -inf to NaN.
    rhs = lambda t, y: np.full_like(y, 1e308)
    with pytest.raises(IntegrationError, match="underflow") as excinfo:
        ode_evolve(rhs, np.array(y0), 0.0, 2.0, 1e-10)
    assert lo < excinfo.value.time < hi


@pytest.mark.parametrize("size", [2, 3], ids=["size2", "size3"])
def test_overflowing_starting_derivative_fails_at_t0(size):
    # the zero component's error scale is tol, so the scaled size of the
    # derivative overflows and no starting step can be sized
    rhs = lambda t, y: np.full_like(y, 1e308 + 1e308j)
    y0 = np.zeros(size, dtype=complex)
    y0[0] = 1e308 + 1e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"not finite at t = 0\b") as excinfo:
            ode_evolve(rhs, y0, 0.0, 2.0, 1e-10)
    assert excinfo.value.time == 0.0


@pytest.mark.parametrize(
    "y0", [[1.0 + 0j], [1.0 + 0j, 0.5 - 2j]], ids=["size1-array", "size2-pair"]
)
def test_kernel_is_eighth_order(monkeypatch, y0):
    # n equal steps on y' = (i + 0.3 t) y, y(0) = y0, whose solution is
    # y0 exp(i t + 0.15 t**2): the step is pinned by the starting step, growth
    # clamped to 1 and a tolerance no error exceeds. Each halving of the
    # step must cut the error at t = 2 by nearly 2**8 = 256. Size 1 runs the
    # array kernel and size 2 the pair kernel, whose written-out sums fail
    # this with any weight misplaced.
    monkeypatch.setattr(ode, "GROWTH_MIN", 1.0)
    monkeypatch.setattr(ode, "GROWTH_MAX", 1.0)
    rhs = lambda t, y: (1j + 0.3 * t) * y
    y0 = np.array(y0)
    errors = []
    for n in (4, 8, 16):
        monkeypatch.setattr(ode, "_initial_step", lambda *args: 2.0 / n)
        traj = ode_evolve(rhs, y0, 0.0, 2.0, 1e300)
        assert (traj.accepted_steps, traj.rejected_steps) == (n, 0)
        errors.append(np.abs(traj.final_state - y0 * np.exp(2j + 0.6)).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 200


def _random_pair_system(seed):
    """y' = -i (H0 + sin(t) H1) y with random 2x2 Hermitian H0, H1, from a
    random unit state, over [0, 10]."""
    rng = np.random.default_rng(seed)
    h0, h1 = (
        (a + a.conj().T) / 2
        for a in rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    )
    y0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    rhs = lambda t, y: -1j * ((h0 + math.sin(t) * h1) @ y)
    return lambda: ode_evolve(rhs, y0 / np.linalg.norm(y0), 0.0, 10.0, 1e-10)


def _slow_switch(eps):
    model = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    return lambda: evolve_two_state(model, 0.0, 1e-10)


@pytest.mark.parametrize(
    "run, budget",
    [*((_slow_switch(eps), budget)
       for eps, budget in ((0.2, 800), (0.05, 2200), (0.0125, 6000), (0.003125, 17000))),
     *((_random_pair_system(seed), 300) for seed in (0, 1))],
    ids=["slow-0.2", "slow-0.05", "slow-0.0125", "slow-0.003125",
         "random-0", "random-1"],
)
def test_pair_kernel_matches_array_kernel(monkeypatch, run, budget):
    # the two kernels round differently, so their step grids drift apart in
    # the last bits; the step counts and the end states must still agree.
    # The budget, about four times the steps taken, makes a wrong weight,
    # whose error estimate shrinks the step without end, fail in seconds
    monkeypatch.setattr(ode, "MAX_STEPS", budget)
    pair = run()
    monkeypatch.setattr(ode, "_pair_kernel", ode._array_kernel)
    array = run()
    assert pair.accepted_steps == array.accepted_steps
    assert np.abs(pair.final_state - array.final_state).max() <= 1e-12


def _ramp_system(n, complex_v):
    """Energies and a random Hermitian V, real or complex, of size n, with
    the N-state switching parameters the benchmark uses."""
    rng = np.random.default_rng(n)
    energies = np.cumsum(rng.uniform(0.5, 1.5, n))
    a = rng.normal(size=(n, n))
    if complex_v:
        a = a + 1j * rng.normal(size=(n, n))
    return energies, (a + a.conj().T) / 2, 0.05, 0.25


@pytest.mark.parametrize("complex_v", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [3, 8, 32, 64])
def test_ramp_kernel_matches_array_kernel(monkeypatch, n, complex_v):
    # the ramp kernel against the array kernel on the same system, given as
    # a right-hand side; they round differently, so the step grids drift
    # apart in the last bits, but the counts and end states must agree.
    # The runs take 140 to 906 steps; the budget fails a wrong weight fast
    monkeypatch.setattr(ode, "MAX_STEPS", 4000)
    energies, v, x, eps = _ramp_system(n, complex_v)
    rhs = lambda t, y: -1j * (energies * y + (x * math.exp(eps * t)) * v.dot(y))
    y0 = np.zeros(n, dtype=complex)
    y0[0] = 1.0
    array = ode_evolve(rhs, y0, -60.0, 0.0, 1e-10)
    ramp = ode.ramp_evolve(energies, v, x, eps, y0, -60.0, 0.0, 1e-10)
    assert (ramp.accepted_steps, ramp.rejected_steps) == (
        array.accepted_steps, array.rejected_steps
    )
    assert np.abs(ramp.final_state - array.final_state).max() <= 1e-12


def test_ramp_kernel_is_eighth_order(monkeypatch):
    # the setting of test_kernel_is_eighth_order on a ramp system with an
    # exact solution: complex 2x2 blocks of V, each on a pair of equal
    # energies, so that diag(E) and V commute and
    # y(t) = expm(-i (E t + x (exp(eps t) - 1) / eps V)) y0. V need not be
    # Hermitian here, so every block of the generator (Re V, Im V, diag(E))
    # carries weight
    monkeypatch.setattr(ode, "GROWTH_MIN", 1.0)
    monkeypatch.setattr(ode, "GROWTH_MAX", 1.0)
    rng = np.random.default_rng(5)
    energies = np.array([0.3, 0.3, 1.1, 1.1])
    v = np.zeros((4, 4), dtype=complex)
    for block in (slice(0, 2), slice(2, 4)):
        v[block, block] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x, eps = 0.8, 0.6
    y0 = np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])
    ramp = x * math.expm1(2.0 * eps) / eps
    exact = expm(-1j * (2.0 * np.diag(energies) + ramp * v)) @ y0
    errors = []
    for n in (4, 8, 16):
        monkeypatch.setattr(ode, "_initial_step", lambda *args: 2.0 / n)
        traj = ode.ramp_evolve(energies, v, x, eps, y0, 0.0, 2.0, 1e300)
        assert (traj.accepted_steps, traj.rejected_steps) == (n, 0)
        errors.append(np.abs(traj.final_state - exact).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 200


@pytest.mark.parametrize(
    "energies, v, y0",
    [(np.zeros(3), np.eye(2), np.ones(3)), (np.zeros(3), np.eye(3), np.ones(2)),
     (np.zeros((3, 1)), np.eye(3), np.ones(3))],
    ids=["v", "y0", "energies"],
)
def test_ramp_evolve_rejects_mismatched_shapes(energies, v, y0):
    with pytest.raises(DomainError, match="N x N"):
        ode.ramp_evolve(energies, v, 0.1, 0.25, y0, 0.0, 1.0, 1e-8)


def test_tableau_rows_sum_to_their_stage_times():
    # the leading column is y's weight; the rest are the stages' weights
    assert np.all(ode._W[:12, 0] == 1.0) and np.all(ode._W[12:, 0] == 0.0)
    sums = ode._W[:, 1:].sum(axis=1)
    np.testing.assert_allclose(sums.real, [*ode._C, 1.0, 0.0, 0.0], rtol=0, atol=1e-14)
    assert np.all(sums.imag == 0.0)
