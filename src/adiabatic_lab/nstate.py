"""Arbitrary finite level count under an exponentially switched perturbation.

The slow-switching limit of the evolved state is built from a projector
recursion for the phase coefficients and the orthogonal corrections. All
inverse powers of the switching rate end up in a single phase coefficient;
what remains is the level shift (cross-checked against exact
diagonalization) and a finite log-magnitude that restores normalization.
A second-order Dyson expansion provides an independent finite-rate check.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ContinuationError, DegeneracyError, DomainError
# nothing here calls jet_recip; it stays importable from this module because
# bench/spans.py wraps nstate.jet_recip by name in every traced run
from .numkit import (  # noqa: F401
    HermitianMatrix, Ramp, Trajectory, hermitian_eig, immutable, jet_recip, laurent_split,
    ode_evolve,
)
from .twostate import TwoStateModel, ramped_coupling, ramped_coupling_squared, require_time

__all__ = [
    "NStateModel",
    "GSplit",
    "AssembledState",
    "two_level_embed",
    "dyson2",
    "dyson2_terms",
    "rs_recursion",
    "g_split",
    "assemble_state",
    "evolve_nstate",
    "oracle_shift",
]

GAP_FLOOR_FACTOR = 1e-8
# an imaginary part above this on g_a, the shift or g_b aborts the split; for
# a real V the recursion is real in s = 1j * rate and the parts are exactly
# real, so only a complex V can reach it
IMAG_GATE = 1e-9
# an eigenvector must hold at least this probability weight on the initial
# basis state to count as its continuation
OVERLAP_FLOOR = 0.5
# the evolution starts in the tracked basis state where the ramped coupling
# is this share of the smallest gap; the basis state misses the switch-on
# state by about as much, so the start is deep in the tail
START_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class NStateModel:
    """Unperturbed energies, Hermitian perturbation, coupling and switching
    rate. The tracked initial state (default index 0) must be separated from
    every other level by at least ``GAP_FLOOR_FACTOR`` times the spread of
    the energies."""

    energies: np.ndarray
    v: HermitianMatrix
    x: float
    eps: float
    ground_index: int = 0

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float).copy()
        if e.ndim != 1 or e.size < 2:
            raise DomainError("energies must be a 1-d sequence of length >= 2")
        v = self.v if isinstance(self.v, HermitianMatrix) else HermitianMatrix(self.v)
        if v.dim != e.size:
            raise DomainError(
                f"perturbation is {v.dim}x{v.dim} but there are {e.size} levels"
            )
        # HermitianMatrix has checked the perturbation's entries
        if not np.isfinite(np.append(e, (self.x, self.eps))).all():
            raise DomainError("energies, x and eps must be finite")
        if not self.x > 0:
            raise DomainError(f"coupling x must be > 0, got {self.x}")
        if not self.eps > 0:
            raise DomainError(f"switching rate eps must be > 0, got {self.eps}")
        g = self.ground_index
        if not 0 <= g < e.size:
            raise DomainError(f"ground_index {g} out of range for {e.size} levels")
        spread = float(e.max() - e.min())
        floor = GAP_FLOOR_FACTOR * spread
        if spread == 0.0:
            raise DegeneracyError("all levels coincide; tracked state is degenerate")
        gaps = np.abs(e - e[g])
        gaps[g] = np.inf
        worst = int(np.argmin(gaps))
        if gaps[worst] < floor:
            raise DegeneracyError(
                f"levels {g} and {worst} are separated by {gaps[worst]:.3e}, "
                f"below the degeneracy floor {floor:.3e}"
            )
        object.__setattr__(self, "energies", immutable(e))
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def ground_energy(self) -> float:
        return float(self.energies[self.ground_index])

    @property
    def min_gap(self) -> float:
        gaps = np.abs(self.energies - self.ground_energy)
        gaps[self.ground_index] = np.inf
        return float(gaps.min())

    def hamiltonian(self) -> np.ndarray:
        """Static Hamiltonian at full coupling. An entry of x V past the range
        of doubles is inf, without a warning; the eigensolver refuses it."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.diag(self.energies).astype(complex) + self.x * self.v.entries


def two_level_embed(m: TwoStateModel) -> NStateModel:
    """The two-level model rendered as an N-state model (off-diagonal unit
    perturbation), used to cross-check the two formulations against each other."""
    return NStateModel(
        energies=np.array([m.mu - m.delta, m.mu + m.delta]),
        v=HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
        x=m.x,
        eps=m.eps,
    )


# ---------------------------------------------------------------------------
# Dyson expansion to second order


def dyson2_terms(model: NStateModel, t: float):
    """Coefficient vectors of the zeroth, first and second power of the
    coupling in the second-order Dyson expansion (free phase omitted)."""
    g = model.ground_index
    vm = model.v.entries
    eps = model.eps
    ramp = ramped_coupling(1.0, eps, t)
    ramp2 = ramped_coupling_squared(1.0, eps, t)
    # first-order and second-order outer denominators; at the tracked level
    # they are eps and 2 * eps, its own
    d1 = 1j * (model.energies - model.ground_energy) + eps
    d2 = d1 + eps
    zeroth = np.zeros(model.dim, dtype=complex)
    zeroth[g] = 1.0
    first = -1j * ramp * vm[:, g] / d1
    second = -ramp2 * (vm @ (vm[:, g] / d1)) / d2
    return zeroth, first, second


def dyson2(model: NStateModel, t: float) -> np.ndarray:
    """Second-order Dyson state at finite switching rate, without the global
    free-evolution phase of the tracked level (``exp(-1j * E_g * t)``), which
    the caller applies if needed. Meaningful only at finite rate: the
    coefficients carry first and second inverse powers of it. A
    ``DomainError`` naming eps where the state is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        zeroth, first, second = dyson2_terms(model, t)
        state = zeroth + model.x * first + model.x * model.x * second
    if not np.isfinite(state).all():
        raise DomainError(f"second-order Dyson state is not finite at eps = "
                          f"{model.eps:.6g}: its terms carry (x / eps)**2; raise eps")
    return state


# ---------------------------------------------------------------------------
# projector recursion


def rs_recursion(
    model: NStateModel, order: int, jet_order: int, at_eps: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Run the projector recursion to ``order`` powers of the coupling.

    ``_recursion`` keeps the last call's result (``functools.lru_cache``
    of size 1): a call with that same model object and equal arguments
    returns the stored pair, as the split, assemble and compare commands
    of one model in one batch all run the same recursion. The key is
    object identity, which is safe because a model is frozen and keeps its
    arrays on immutable buffers; the stored arrays sit on immutable buffers
    too, so no caller can change what a later call reads.

    Returns the read-only pair ``(xi, phi)``: ``xi[n-1, k]`` is the k-th jet
    coefficient of the order-n phase coefficient and ``phi[n-1, :, k]`` that
    of the order-n correction vector, whose tracked component is zero by
    construction. Jets are in s = 1j * rate, expanded around 1j * ``at_eps``
    (0 for the slow-switching limit); the k-th coefficient in the rate is
    1j**k times the k-th in s. For a real V at ``at_eps`` 0 every
    coefficient is real and both arrays are float64; otherwise complex.

    The resolvent at order n divides component k by ``(E_k - E_g) - n * s``;
    the n-fold rate follows from the n-th power of the ramped coupling and
    is what makes the finite-rate result match the Dyson expansion order by
    order. Per order, the sum over m of xi_m phi_{n-m} is one matrix
    product, of the rows xi_1 .. xi_{n-1} against phi_{n-1} .. phi_1: entry
    (j, l) of its (K+1) x (K+1) blocks is coefficient j of xi times
    coefficient l of phi, so jet index k of the sum is anti-diagonal
    j + l = k. With a = (E_k - E_g) - 1j * n * at_eps, the jet of
    b / (a - n s) is c_k = (b_k + n c_{k-1}) / a, Horner's rule in s.
    """
    return _recursion(model, order, jet_order, at_eps)


# the stores sit on private functions: bench/spans.py times only plain
# functions, so rs_recursion and oracle_shift stay undecorated
@functools.lru_cache(maxsize=1)
def _recursion(model, order, jet_order, at_eps):
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if jet_order < 0:
        raise DomainError(f"jet order must be >= 0, got {jet_order}")
    g = model.ground_index
    vm = model.v.entries
    if not (at_eps or vm.imag.any()):
        vm = vm.real
    s0 = 1j * at_eps if at_eps else 0.0
    # the tracked component's numerators are zero; a 1 in its denominator
    # keeps it zero without a division by zero
    w = model.energies - model.ground_energy
    w[g] = 1.0

    k1, dim = jet_order + 1, model.dim
    xi = np.zeros((order, k1), dtype=vm.dtype)
    # phi[0] is the unperturbed state e_g, phi[n] the order-n correction
    phi = np.zeros((order + 1, dim, k1), dtype=vm.dtype)
    phi[0, g, 0] = 1.0
    # terms past the range of doubles come out non-finite, without a
    # warning; laurent_split rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order + 1):
            xi[n - 1] = vm[g].dot(phi[n - 1])
            bracket = vm.dot(phi[n - 1])
            bracket[g] = 0.0
            # pair[j, :, l] = sum over m of coefficient j of xi_m times
            # coefficient l of phi_{n-m}; the reversed rows of phi are a
            # view, and at n = 1 the product is zero
            reversed_phi = phi[n - 1 : 0 : -1].reshape(n - 1, dim * k1)
            pair = (xi[: n - 1].T @ reversed_phi).reshape(k1, dim, k1)
            a = w - n * s0
            c = 0.0
            for k in range(k1):
                b = bracket[:, k]
                for j in range(k + 1):
                    b = b - pair[j, :, k - j]
                phi[n, :, k] = c = (n * c - b) / a

    return immutable(xi), immutable(phi[1:])


# ---------------------------------------------------------------------------
# Laurent split of the accumulated phase and the assembled limit state


@dataclass(frozen=True)
class GSplit:
    """Divergent phase coefficient g_a (to be divided by the rate), secular
    level shift, and finite log-magnitude g_b, all real after the residue
    gate: g_b is the sum of the slopes in s = 1j * rate. ``max_imag_residue``
    is exactly 0.0 for a real V. ``last_term_magnitude`` records how far
    the shift series had decayed at truncation."""

    g_a: float
    delta_e: float
    g_b: float
    last_term_magnitude: float
    max_imag_residue: float


@dataclass(frozen=True, eq=False)
class AssembledState:
    state: np.ndarray
    split: GSplit
    energy: float


def _split_from(xi: np.ndarray, model: NStateModel) -> GSplit:
    """Laurent split of the accumulated phase from jets in s = 1j * rate,
    ``numkit.laurent_split`` at lam = x, step 1: g_a = sum x**n c_0 / n
    (to be divided by the rate), the shift sum x**n c_0 and g_b = sum
    x**n c_1 / n. A ``ConsistencyError`` names the quantity whose imaginary
    part exceeds IMAG_GATE, a ``DomainError`` the first order whose term is
    not finite."""
    (g_a, g_b), de, terms = laurent_split(xi, model.x, 1)
    residues = [abs(p.imag) for p in (g_a, de, g_b)]
    worst = int(np.argmax(residues))
    if residues[worst] > IMAG_GATE:
        name = ("g_a", "delta_e", "g_b")[worst]
        raise ConsistencyError(
            f"imaginary residue {residues[worst]:.3e} on {name} exceeds {IMAG_GATE:.0e}"
        )
    return GSplit(g_a=g_a.real, delta_e=de.real, g_b=g_b.real,
                  last_term_magnitude=float(abs(terms[-1, 0])), max_imag_residue=residues[worst])


def g_split(model: NStateModel, order: int) -> GSplit:
    """Laurent split of the accumulated phase in the slow-switching limit,
    from the values and slopes of a first-order jet expansion.

    Accepts any coupling; convergence is the caller's concern and can be
    judged from ``last_term_magnitude``.
    """
    return _split_from(rs_recursion(model, order, 1)[0], model)


def assemble_state(model: NStateModel, order: int) -> AssembledState:
    """Slow-switching limit state with the divergent phase factor dropped
    (its coefficient is reported in the split). The time dependence
    ``exp(-1j * (E_g + shift) * t)`` is left to the caller via ``energy``.
    A ``DomainError`` if ``exp(g_b)`` is not a finite, positive double."""
    xi, phi = rs_recursion(model, order, 1)
    split = _split_from(xi, model)
    try:
        norm = math.exp(split.g_b)
    except OverflowError:
        norm = math.inf
    if not 0.0 < norm < math.inf:
        raise DomainError(
            f"exp(g_b) is not a finite positive double: g_b = {split.g_b:.6g} at "
            f"order {order}; the phase-recursion series does not converge here"
        )
    # the powers x**n that the split weighs the jets with; it has refused
    # every order where one overflows
    powers = model.x ** np.arange(1, order + 1)
    # the corrections' tracked components are zero: e_g adds 1 there alone
    state = powers.dot(phi[:, :, 0]).astype(complex)
    state[model.ground_index] = 1.0
    state *= norm
    return AssembledState(
        state=state, split=split, energy=model.ground_energy + split.delta_e
    )


# ---------------------------------------------------------------------------
# oracles


def switch_on_time(gap: float, x: float, eps: float, t_end: float, tol: float) -> float:
    """Start time at which the ramped coupling is ``START_THRESHOLD`` of the
    gap; ``t_end`` must be a finite number, and the run's tolerance ``tol``
    must lie in (0, 1): at 1 and above the integrator's error control is
    off."""
    if not 0 < tol < 1:
        raise DomainError(f"tol must be in (0, 1), got {tol}")
    require_time(t_end, "t_end")
    # in log space, where the coupling over the gap cannot underflow
    return (math.log(gap) + math.log(START_THRESHOLD) - math.log(x)) / eps


def _quiet_stretch(model, ramp, t0, t_end, tol, y0):
    """``(t1, y1)``: the time where stepping starts and the state there.

    t1 is ``Ramp.stepping_start`` for the tracked level (the start rule of
    the ``numkit.ode`` module docstring). From the basis state ``y0`` = e_g
    at t0 to t1 the state is exact: the tail solutions exp(-i E_l t)
    S(lam)[:, l] (``ramp.tail``) span the solutions, so with tau = t1 - t0
    and W = E - E_g,

        y(t1) = exp(-i E_g tau) S(lam1) (exp(-i W tau) * S(lam0)^-1 e_g),

    where S(lam0)^-1 e_g is the conjugate of row g of S(lam0), as S is
    unitary for a Hermitian V. The stretch is empty, ``(t0, y0)``, where t1
    is not after t0."""
    x, eps = model.x, model.eps
    t1 = ramp.stepping_start(t_end, model.ground_index)
    if not t0 < t1:
        return t0, y0
    tau = t1 - t0
    w = model.energies - model.ground_energy
    s0 = ramp.tail(ramped_coupling(x, eps, t0), tol)
    s1 = ramp.tail(ramped_coupling(x, eps, t1), tol)
    y1 = s1.dot(np.exp(-1j * tau * w) * s0[model.ground_index].conj())
    return t1, cmath.exp(-1j * model.ground_energy * tau) * y1


def evolve_nstate(model: NStateModel, t_end: float, tol: float) -> Trajectory:
    """Full Schrodinger evolution under the ramped perturbation from deep in
    the switch-on tail (ramped coupling at ``START_THRESHOLD`` of the
    smallest gap to the tracked level, time t0), starting in the tracked
    basis state.

    DOP853 steps from t1, where ``Ramp.stepping_start`` puts the start (the
    start rule of the ``numkit.ode`` module docstring). From t0 to t1 the
    state is exact (``_quiet_stretch``): it is the tail solutions, the
    columns of ``Ramp.tail``, each turned by its own level's phase, in the
    mix that is the basis state at t0; against DOP853 at rtol 1e-13 from
    the basis state at t0 it is within 1e-12 of the state. From t1 it
    passes ``numkit.ode.ode_evolve`` a ``Ramp``, which the ramp kernel
    steps with no Python right-hand side (the two-level kernel where the
    model has the two-level shape: energies (0, w) and a real V with a zero
    diagonal); the general array kernel is its oracle in the tests. The
    returned trajectory's first row is (t0, basis state) and the ODE's rows
    follow from (t1, y(t1)); its step counts are the ODE's. Where the
    stretch is empty (t1 not after t0) the ODE starts at t0 in the basis
    state. Where the coupling stays below the threshold up to ``t_end``
    (t0 not before it), the run starts in the basis state at t1, with an
    empty stretch. A ``DomainError`` if ``t_end`` is not a finite number or
    the coupling overflows there; an ``IntegrationError`` at t1 where
    ``ode_evolve``'s step estimate exceeds ``numkit.ode.MAX_STEPS``.
    """
    t0 = switch_on_time(model.min_gap, model.x, model.eps, t_end, tol)
    # refuses an end where the coupling overflows
    ramped_coupling(model.x, model.eps, t_end, "t_end")
    y0 = np.zeros(model.dim, dtype=complex)
    y0[model.ground_index] = 1.0
    ramp = Ramp(model.energies, model.v.entries, model.x, model.eps)
    if not t0 < t_end:
        t0 = ramp.stepping_start(t_end, model.ground_index)
    t1, y1 = _quiet_stretch(model, ramp, t0, t_end, tol, y0)
    traj = ode_evolve(ramp, y1, t1, t_end, tol)
    if t1 == t0:
        return traj
    return Trajectory(
        np.append(t0, traj.times),
        np.vstack((y0, traj.states)),
        traj.accepted_steps,
        traj.rejected_steps,
    )


def oracle_shift(model: NStateModel) -> float:
    """Exact level shift: eigenvalue of the fully coupled Hamiltonian whose
    eigenvector carries the most probability on the tracked basis state
    (adiabatic continuation, not necessarily the global minimum), minus the
    unperturbed energy.

    Raises ContinuationError when no eigenvector holds a majority weight,
    i.e. the coupling is too strong for perturbative tracking.

    ``_shift`` keeps the last model object's shift, as ``rs_recursion``
    keeps its result: the same model object again returns it with no
    eigensolve, as the oracle and compare commands of one model in one
    batch ask for the same shift.
    """
    return _shift(model)


@functools.lru_cache(maxsize=1)
def _shift(model):
    w, vecs = hermitian_eig(model.hamiltonian())
    weights = np.abs(vecs[model.ground_index, :]) ** 2
    k = int(np.argmax(weights))
    if weights[k] < OVERLAP_FLOOR:
        raise ContinuationError(
            f"largest eigenvector weight on the tracked state is "
            f"{weights[k]:.3f} < {OVERLAP_FLOOR}; adiabatic continuation ambiguous"
        )
    return float(w[k] - model.ground_energy)
