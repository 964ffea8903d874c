import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from adiabatic_lab.errors import DomainError, IntegrationError
from adiabatic_lab import twostate
from adiabatic_lab.numkit import Ramp, Trajectory, ode, ode_evolve
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


@pytest.mark.parametrize("t1", [1e-17, 1e-15, 3e-15, 1e-300])
@pytest.mark.parametrize("kind", ["ramp", "callable"])
def test_trial_short_of_the_end_by_less_than_the_floor_ends_there(kind, t1):
    # from two decades before 0, the steps land within the step floor
    # (8 eps_machine times the span, 3.3e-14) of these ends: the trial that
    # would stop short of one is lengthened to end on it, where the next
    # trial underflowed, and no step lands a rounding past it
    ramp = Ramp((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], 0.5, 0.25)
    rhs = ramp if kind == "ramp" else lambda t, y: ramp(t, y)
    traj = ode_evolve(rhs, np.array([1.0 + 0j, 0j]), -math.log(100.0) / 0.25, t1, 1e-10)
    assert traj.times[-1] == t1
    assert (traj.accepted_steps, traj.rejected_steps) == (73, 0)


@pytest.mark.parametrize(
    "energies, v",
    [((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]]), ((0.0, 1.0, 2.0), np.ones((3, 3)))],
    ids=["two-level", "three-levels"],
)
def test_stepping_start_refuses_a_start_that_rounds_to_the_end(energies, v):
    # ln(100) / eps before -1e300 is -1e300 itself
    ramp = Ramp(energies, v, 0.5, 0.25)
    with pytest.raises(DomainError, match="rounds to it; move the end time later"):
        ramp.stepping_start(-1e300, 0)
    assert ramp.stepping_start(0.0, 0) == -math.log(100.0) / 0.25


@pytest.mark.parametrize(
    "energies, v",
    [((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]]), ((0.0, 1.0, 2.0), np.ones((3, 3)))],
    ids=["two-level", "three-levels"],
)
def test_stepping_start_refuses_a_start_that_is_not_a_finite_time(energies, v):
    # at a subnormal eps every time a multiple of 1 / eps before the end is
    # -inf: the refusal names eps, not a time
    ramp = Ramp(energies, v, 0.5, 5e-324)
    with pytest.raises(DomainError, match=r"^switching rate eps = 4\.94066e-324 is too "
                       r"small: the start of stepping is not a finite time; raise eps$"):
        ramp.stepping_start(0.0, 0)


def test_ramp_run_whose_coupling_overflows_is_not_refused_up_front():
    # exp(eps t1) overflows, so the step estimate is not finite: the run is
    # not refused, and fails where the coupling 1e300 exp(t) overflows, at
    # t = 19.0072, as test_pair_kernel_rejects_a_nan_derivative's does
    ramp = Ramp((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], 1e300, 1.0)
    with pytest.raises(IntegrationError, match="underflow") as excinfo:
        ode_evolve(ramp, np.zeros(2, dtype=complex), 0.0, 800.0, 1e-10)
    assert 19.0 < excinfo.value.time < 19.0072


def test_ramp_run_whose_estimate_alone_overflows_is_refused_up_front():
    # the coupling 1e308 exp(0.25 t) is at most 1e308 up to t = 0, but the
    # angle it turns by, 1e308 (1 - exp(-2.5)) / 0.25, overflows: the
    # estimate is inf, and the run is refused before its first step
    ramp = Ramp((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], 1e308, 0.25)
    with pytest.raises(IntegrationError, match="before the start: about inf steps from "
                       "t = -10 to 0 exceed") as excinfo:
        ode_evolve(ramp, np.array([1.0 + 0j, 0j]), -10.0, 0.0, 1e-10)
    assert excinfo.value.time == -10.0


def test_ramp_run_refused_up_front_where_its_estimate_exceeds_the_budget(monkeypatch):
    # the two-level estimate from 0 to 100 with no coupling: the rotation
    # 2 * 100 radians at 0.052 steps each, 10.4 steps
    ramp = Ramp((0.0, 2.0), [[0.0, 0.0], [0.0, 0.0]], 0.5, 0.25)
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="before the start: about 10.4 steps from "
                       r"t = 0 to 100 exceed the budget of 10; raise tol or move the end "
                       "earlier$") as excinfo:
        ode_evolve(ramp, np.array([1.0 + 0j, 0j]), 0.0, 100.0, 1e-10)
    assert excinfo.value.time == 0.0
    # a budget above the estimate lets the run start, and its steps count
    monkeypatch.setattr(ode, "MAX_STEPS", 11)
    with pytest.raises(IntegrationError, match="step budget exhausted at t = ") as excinfo:
        ode_evolve(ramp, np.array([1.0 + 0j, 0j]), 0.0, 100.0, 1e-10)
    assert excinfo.value.time > 0.0


def test_rejects_bad_window_and_tolerance():
    rhs = lambda t, y: y
    with pytest.raises(DomainError):
        ode_evolve(rhs, np.array([1.0 + 0j]), 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        ode_evolve(rhs, np.array([1.0 + 0j]), 0.0, 1.0, 0.0)
    # an infinite start, as a subnormal eps gives, is refused, not stepped
    with pytest.raises(DomainError, match=r"need finite t0 < t1, got \[-inf, 0.0\]"):
        ode_evolve(Ramp((0.0, 1.0, 2.0), np.ones((3, 3)), 0.5, 5e-324),
                   np.array([1.0 + 0j, 0j, 0j]), -math.inf, 0.0, 1e-8)


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


_CONSTANT_1E308 = lambda t, y: np.full_like(y, 1e308)
# y' = y: V = i I, a non-Hermitian coupling that grows the state as exp(t)
_GROWTH = Ramp((0.0, 0.0), 1j * np.eye(2), 1.0, 0.0)
# y' = -i sigma_x y: the two-state shape, which turns a into c and back
_TURN = Ramp((0.0, 0.0), [[0.0, 1.0], [1.0, 0.0]], 1.0, 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize(
    "rhs, y0, lo, hi",
    [
        (_CONSTANT_1E308, [1e308 + 0j], 0.7, 0.8),
        (_CONSTANT_1E308, [1e308 + 0j, 1e308 + 0j], 0.7, 0.8),
        # |y| = 1e308 sqrt((1 + t)**2 + 1) overflows at t = 0.494, its parts at 0.798
        (_CONSTANT_1E308, [1e308 + 1e308j, 1e308 + 1e308j], 0.49, 0.5),
        # V = i I is complex, so these two run the ramp kernel:
        # 1e308 exp(t) overflows at t = log(1.798) = 0.5866
        (_GROWTH, [1e308 + 0j, 1e308 + 0j], 0.58, 0.5866),
        # |y| = 1e308 sqrt(2) exp(t) overflows at t = 0.2401, its parts at
        # 0.5866, so the modulus of a finite update overflows in np.abs()
        (_GROWTH, [1e308 + 1e308j, 1e308 + 1e308j], 0.23, 0.2401),
        # the two-level kernel: a = 1.2e308 (1 + i) (cos t + sin t / 2) has
        # finite parts, but its modulus overflows in math.hypot at t = 0.13807
        (_TURN, [1.2e308 + 1.2e308j, -6e307 + 6e307j], 0.13, 0.13808),
    ],
    ids=["single", "parts", "modulus", "pair-parts", "pair-modulus",
         "two-level-modulus"],
)
def test_overflowing_state_never_accepted(rhs, y0, lo, hi):
    # y = 1e308 (1 + t) overflows at t ~ 0.8 while the error estimate of a
    # constant right-hand side stays finite; the step must still be rejected.
    # The update's weights of both signs exceed 1, so an overflowing update
    # can sum +inf and -inf to NaN.
    with pytest.raises(IntegrationError, match="underflow") as excinfo:
        ode_evolve(rhs, np.array(y0), 0.0, 2.0, 1e-10)
    assert lo < excinfo.value.time < hi


def test_pair_kernel_rejects_a_nan_derivative(monkeypatch):
    # the two-state shape, on the two-level kernel. A zero state has a zero
    # derivative, so every step is accepted and grows five-fold, until the
    # ramped coupling 1e300 exp(t) overflows at t = log(1.798e8) = 19.0072
    # and inf times the zero amplitudes gives NaN stages; each step past
    # that time must be rejected, until the step underflows there
    monkeypatch.setattr(ode, "MAX_STEPS", 200)
    ramp = Ramp((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], 1e300, 1.0)
    with pytest.raises(IntegrationError, match="underflow") as excinfo:
        ode_evolve(ramp, np.zeros(2, dtype=complex), 0.0, 30.0, 1e-10)
    assert 19.0 < excinfo.value.time < 19.0072


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
    "y0", [[1.0 + 0j], [1.0 + 0j, 0.5 - 2j]], ids=["size1-array", "size2-array"]
)
def test_kernel_is_eighth_order(monkeypatch, y0):
    # n equal steps on y' = (i + 0.3 t) y, y(0) = y0, whose solution is
    # y0 exp(i t + 0.15 t**2): the step is pinned by the starting step, growth
    # clamped to 1 and a tolerance no error exceeds. Each halving of the
    # step must cut the error at t = 2 by nearly 2**8 = 256. A plain callable
    # runs the array kernel at every size; test_two_level_kernel_is_eighth_order
    # and test_ramp_kernel_is_eighth_order hold the other two to the same.
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


@pytest.mark.parametrize(
    "eps, budget",
    [(0.2, 800), (0.05, 2200), (0.0125, 6000), (0.003125, 17000)],
    ids=["slow-0.2", "slow-0.05", "slow-0.0125", "slow-0.003125"],
)
def test_pair_kernel_matches_array_kernel(monkeypatch, eps, budget):
    # the two-state route on the two-level kernel against the array kernel,
    # reached through a plain callable that wraps the same Ramp. The two
    # kernels round differently, so their step grids drift apart in the
    # last bits; the step counts and the end states must still agree.
    # The budget, about four times the steps taken, makes a wrong weight,
    # whose error estimate shrinks the step without end, fail in seconds
    monkeypatch.setattr(ode, "MAX_STEPS", budget)
    model = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    pair = evolve_two_state(model, 0.0, 1e-10)
    monkeypatch.setattr(
        twostate, "ode_evolve",
        lambda ramp, *args: ode_evolve(lambda t, y: ramp(t, y), *args),
    )
    array = evolve_two_state(model, 0.0, 1e-10)
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
@pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
def test_ramp_kernel_matches_array_kernel(monkeypatch, n, complex_v):
    # a Ramp on the ramp kernel (at n = 2 too, as its first energy is not
    # 0) against the array kernel on the same system, given as a right-hand
    # side; they round differently, so the step grids drift apart in the
    # last bits, but the counts and end states must agree. The runs take 140
    # to 906 steps; the budget fails a wrong weight fast
    monkeypatch.setattr(ode, "MAX_STEPS", 4000)
    energies, v, x, eps = _ramp_system(n, complex_v)
    rhs = lambda t, y: -1j * (energies * y + (x * math.exp(eps * t)) * v.dot(y))
    y0 = np.zeros(n, dtype=complex)
    y0[0] = 1.0
    array = ode_evolve(rhs, y0, -60.0, 0.0, 1e-10)
    ramp = ode_evolve(Ramp(energies, v, x, eps), y0, -60.0, 0.0, 1e-10)
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
    # carries weight. The first block alone and both blocks run the ramp
    # kernel, as V is complex
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
    for levels in (2, 4):
        e, v_l, y0_l = energies[:levels], v[:levels, :levels], y0[:levels]
        exact = expm(-1j * (2.0 * np.diag(e) + ramp * v_l)) @ y0_l
        errors = []
        for n in (4, 8, 16):
            monkeypatch.setattr(ode, "_initial_step", lambda *args: 2.0 / n)
            traj = ode_evolve(Ramp(e, v_l, x, eps), y0_l, 0.0, 2.0, 1e300)
            assert (traj.accepted_steps, traj.rejected_steps) == (n, 0)
            errors.append(np.abs(traj.final_state - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 200


def test_two_level_kernel_is_eighth_order(monkeypatch):
    # the setting of test_kernel_is_eighth_order on the two-state shape with
    # equal energies, y' = -i x exp(eps t) v sigma_x y, whose solution is
    # y(t) = cos(L) y0 - i sin(L) sigma_x y0 with
    # L = x v (exp(eps t) - exp(eps t0)) / eps
    monkeypatch.setattr(ode, "GROWTH_MIN", 1.0)
    monkeypatch.setattr(ode, "GROWTH_MAX", 1.0)
    x, v, eps = 0.8, 0.7, 0.6
    y0 = np.array([1.0 - 0.4j, 0.5j])
    angle = x * v * math.expm1(2.0 * eps) / eps
    exact = math.cos(angle) * y0 - 1j * math.sin(angle) * y0[::-1]
    ramp = Ramp((0.0, 0.0), [[0.0, v], [v, 0.0]], x, eps)
    errors = []
    for n in (4, 8, 16):
        monkeypatch.setattr(ode, "_initial_step", lambda *args: 2.0 / n)
        traj = ode_evolve(ramp, y0, 0.0, 2.0, 1e300)
        assert (traj.accepted_steps, traj.rejected_steps) == (n, 0)
        errors.append(np.abs(traj.final_state - exact).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 200


@pytest.mark.parametrize(
    "energies, v, kernel",
    [
        ((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], "two-level"),
        ((0.0, 2.0), [[0.0, 1.0j], [-1.0j, 0.0]], "ramp"),
        ((0.0, 2.0), [[0.3, 1.0], [1.0, 0.0]], "ramp"),
        ((1.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], "ramp"),
        ((0.0, 1.0, 2.0), [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
         "ramp"),
    ],
    ids=["two-state", "complex-v", "v-diagonal", "first-energy-nonzero",
         "three-levels"],
)
def test_ramp_shape_picks_its_kernel(monkeypatch, energies, v, kernel):
    # only the two-state shape, two levels, the first at energy 0 and a
    # real V with a zero diagonal, steps on the two-level kernel
    picked = []
    for name, attr in (("two-level", "_two_level_kernel"), ("ramp", "_ramp_kernel")):
        def spy(*args, real=getattr(ode, attr), name=name):
            picked.append(name)
            return real(*args)

        monkeypatch.setattr(ode, attr, spy)
    y0 = np.zeros(len(energies), dtype=complex)
    y0[0] = 1.0
    ramp = Ramp(energies, v, 0.5, 0.25)
    ode_evolve(ramp, y0, -1.0, 0.0, 1e-8)
    assert picked == [kernel]
    assert ramp.two_level is (kernel == "two-level")


@pytest.mark.parametrize(
    "energies, v, y0",
    [(np.zeros(3), np.eye(2), np.ones(3)), (np.zeros(3), np.eye(3), np.ones(2)),
     (np.zeros((3, 1)), np.eye(3), np.ones(3))],
    ids=["v", "y0", "energies"],
)
def test_ramp_evolve_rejects_mismatched_shapes(energies, v, y0):
    # a Ramp checks its energies and V, and ode_evolve the state it evolves
    with pytest.raises(DomainError, match="N x N"):
        ode_evolve(Ramp(energies, v, 0.1, 0.25), y0, 0.0, 1.0, 1e-8)


def test_tableau_rows_sum_to_their_stage_times():
    # the leading column is y's weight; the rest are the stages' weights
    assert np.all(ode._W[:12, 0] == 1.0) and np.all(ode._W[12:, 0] == 0.0)
    sums = ode._W[:, 1:].sum(axis=1)
    np.testing.assert_allclose(sums.real, [*ode._C, 1.0, 0.0, 0.0], rtol=0, atol=1e-14)
    assert np.all(sums.imag == 0.0)


def test_ramp_tail_refuses_a_series_that_cancels():
    # the two-level tail at 1e-4 of the gap with eps = 2e-10 delta: a turns
    # by about delta * 1e-8 / eps = 50 radians by then, so the terms grow
    # to about e**50 before they fall
    ramp = Ramp((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], 1e-4, 2e-10)
    with pytest.raises(DomainError, match="tail series .*; raise eps or tol$"):
        ramp.tail(2e-4, 1e-10)
