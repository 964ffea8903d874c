import math
import re

import numpy as np
import pytest

from adiabatic_lab.errors import DomainError, IntegrationError
from adiabatic_lab.numkit import Trajectory, ode, ode_evolve


def _fails_alike_on_both_kernels(monkeypatch, run):
    """Run a 2-vector failure case on the pair kernel, then on the array
    kernel put in its place. Both must raise the same message, numbers
    aside, at the same time to 1e-6: the error estimate cancels to about
    1e-6 of its terms, so the kernels' different rounding of the stage sums
    moves the step sizes by up to about 1e-7 relative."""
    with pytest.raises(IntegrationError) as pair:
        run()
    monkeypatch.setattr(ode, "_pair_steps", ode._array_steps)
    with pytest.raises(IntegrationError) as array:
        run()
    words = lambda e: re.sub(r"-?\d[\w.+-]*", "#", str(e))
    assert words(pair.value) == words(array.value)
    assert pair.value.time == pytest.approx(array.value.time, rel=1e-6)
    return pair.value


def test_exact_oscillator():
    omega = 3.0
    rhs = lambda t, y: 1j * omega * y
    traj = ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 5.0, 1e-10)
    assert abs(traj.final_state[0] - np.exp(1j * omega * 5.0)) < 1e-8
    assert traj.final_time == 5.0
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


def test_step_underflow_reports_failure_time_pair(monkeypatch):
    # the first component blows up at t = 1, the second stays bounded
    rhs = lambda t, y: y * y
    error = _fails_alike_on_both_kernels(
        monkeypatch, lambda: ode_evolve(rhs, np.array([1.0 + 0j, 0.5j]), 0.0, 2.0, 1e-10)
    )
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


def test_nan_after_start_underflows_within_a_few_dozen_steps(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y if t == 0.0 else np.full_like(y, np.nan)

    with pytest.raises(IntegrationError, match="underflow"):
        ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 1.0, 1e-10)
    assert len(calls) < 7 * 40


def test_nan_after_start_underflows_within_a_few_dozen_steps_pair(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 1000)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y if t == 0.0 else np.full_like(y, np.nan)

    def run():
        calls.clear()
        ode_evolve(rhs, np.array([1.0 + 0j, 0.5j]), 0.0, 1.0, 1e-10)

    error = _fails_alike_on_both_kernels(monkeypatch, run)
    assert "underflow" in str(error)
    assert len(calls) < 7 * 40


def test_step_budget_exhausted(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    rhs = lambda t, y: 1j * y
    with pytest.raises(IntegrationError, match="step budget exhausted") as excinfo:
        ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 100.0, 1e-10)
    assert 0.0 < excinfo.value.time < 100.0


def test_step_budget_exhausted_pair(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    rhs = lambda t, y: 1j * y
    error = _fails_alike_on_both_kernels(
        monkeypatch, lambda: ode_evolve(rhs, np.array([1.0 + 0j, 0j]), 0.0, 100.0, 1e-10)
    )
    assert "step budget exhausted" in str(error)
    assert 0.0 < error.time < 100.0


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_state_never_accepted():
    # y = 1e308 (1 + t) overflows at t ~ 0.8 while the error estimate of a
    # constant right-hand side stays finite; the step must still be rejected
    rhs = lambda t, y: np.full_like(y, 1e308)
    with pytest.raises(IntegrationError, match="underflow") as excinfo:
        ode_evolve(rhs, np.array([1e308 + 0j]), 0.0, 2.0, 1e-10)
    assert 0.7 < excinfo.value.time < 0.8


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize(
    "y0, lo, hi",
    [
        ([1e308 + 0j, 1e308 + 0j], 0.7, 0.8),
        # |y| = 1e308 sqrt((1 + t)**2 + 1) overflows at t = 0.494, its parts at 0.798
        ([1e308 + 1e308j, 1e308 + 1e308j], 0.49, 0.5),
    ],
    ids=["parts", "modulus"],
)
def test_overflowing_state_never_accepted_pair(monkeypatch, y0, lo, hi):
    rhs = lambda t, y: np.full_like(y, 1e308)
    error = _fails_alike_on_both_kernels(
        monkeypatch, lambda: ode_evolve(rhs, np.array(y0), 0.0, 2.0, 1e-10)
    )
    assert "underflow" in str(error)
    assert lo < error.time < hi
