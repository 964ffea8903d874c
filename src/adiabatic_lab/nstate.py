"""Arbitrary finite level count under an exponentially switched perturbation.

The slow-switching limit of the evolved state is built from a projector
recursion for the phase coefficients and the orthogonal corrections. All
inverse powers of the switching rate end up in a single phase coefficient;
what remains is the level shift (cross-checked against exact
diagonalization) and a finite log-magnitude that restores normalization.
A second-order Dyson expansion provides an independent finite-rate check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ContinuationError, DegeneracyError, DomainError
from .numkit import (
    HermitianMatrix, Trajectory, hermitian_eig, jet_mul, jet_recip, ramp_evolve,
)
# unused here, but bench/spans.py patches nstate.ode_evolve by name, which
# fails unless the name exists
from .numkit import ode_evolve  # noqa: F401
from .twostate import (
    DEFAULT_START_THRESHOLD, TwoStateModel, ramped_coupling,
    ramped_coupling_squared, require_step_budget, switch_on_time,
)

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
# an imaginary part above this on g_a, the shift or g_b aborts the split
IMAG_GATE = 1e-9
# an eigenvector must hold at least this probability weight on the initial
# basis state to count as its continuation
OVERLAP_FLOOR = 0.5


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
        e.flags.writeable = False
        object.__setattr__(self, "energies", e)
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
        """Static Hamiltonian at full coupling."""
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
    coefficients carry first and second inverse powers of it."""
    zeroth, first, second = dyson2_terms(model, t)
    return zeroth + model.x * first + model.x * model.x * second


# ---------------------------------------------------------------------------
# projector recursion


def rs_recursion(
    model: NStateModel, order: int, jet_order: int, at_eps: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Run the projector recursion to ``order`` powers of the coupling.

    Returns the read-only pair ``(xi, phi)``: ``xi[n-1, k]`` is the k-th jet
    coefficient of the order-n phase coefficient and ``phi[n-1, :, k]`` that
    of the order-n correction vector, whose tracked component is zero by
    construction. Jets are expanded around ``at_eps`` (0 for the
    slow-switching limit).

    The resolvent at order n divides component k by
    ``(E_k - E_g) - 1j * n * rate``; the n-fold rate follows from the n-th
    power of the ramped coupling and is what makes the finite-rate result
    match the Dyson expansion order by order.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if jet_order < 0:
        raise DomainError(f"jet order must be >= 0, got {jet_order}")
    e = model.energies
    g = model.ground_index
    vm = model.v.entries
    dim = model.dim
    k1 = jet_order + 1

    # reciprocal resolvent jets, per recursion order and component; the
    # tracked component is left at zero
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

    # stack[0] holds V·φ_{n-1} and stack[m] the product ξ_{n-m}·φ_m, for
    # m = 1 .. n-1; all n-1 products are one broadcast jet_mul
    stack = np.empty((order, dim, k1), dtype=complex)
    v_row = vm[g : g + 1]
    # terms past the range of doubles come out non-finite, without a
    # warning; _split_from rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, order + 1):
            # the same matrix products as np.tensordot, without its reshaping cost
            xi[n - 1] = v_row.dot(phi[n - 2])
            stack[0] = vm.dot(phi[n - 2])
            stack[0, g] = 0.0
            stack[1:n] = jet_mul(xi[n - 2 :: -1, None, :], phi[: n - 1])
            # an axis-0 reduction subtracts the products one at a time in order
            # of m, an accumulation order that keeps the rounding of the
            # Hermitian-case residues small
            bracket = np.subtract.reduce(stack[:n], axis=0)
            phi[n - 1] = -jet_mul(recip[n - 1], bracket)
            phi[n - 1, g] = 0.0

    xi.flags.writeable = False
    phi.flags.writeable = False
    return xi, phi


# ---------------------------------------------------------------------------
# Laurent split of the accumulated phase and the assembled limit state


@dataclass(frozen=True)
class GSplit:
    """Divergent phase coefficient g_a (to be divided by the rate), secular
    level shift, and finite log-magnitude g_b, all real after the residue
    gate. ``last_term_magnitude`` records how far the shift series had
    decayed at truncation."""

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
    """Laurent split of the accumulated phase: g_a = sum x**n c_0 / n (to be
    divided by the rate), the shift sum x**n c_0 and g_b = -i sum x**n c_1 / n.
    A ``ConsistencyError`` names the quantity whose imaginary part exceeds
    IMAG_GATE, a ``DomainError`` the first order whose term is not finite."""
    n = np.arange(1, len(xi) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = model.x**n
        parts = (
            np.sum(powers * xi[:, 0] / n),
            np.sum(powers * xi[:, 0]),
            -1j * np.sum(powers * xi[:, 1] / n),
        )
        if not (np.isfinite(xi).all() and np.isfinite(parts).all()):
            finite = np.isfinite(powers[:, None] * xi).all(axis=1)
            first = int(np.argmin(finite)) + 1 if not finite.all() else len(finite)
            raise DomainError(
                f"phase-recursion terms are not finite from order {first} of "
                f"{len(finite)}: the recursion or the powers of the coupling "
                "overflow; lower the order"
            )
    residues = [abs(p.imag) for p in parts]
    worst = int(np.argmax(residues))
    if residues[worst] > IMAG_GATE:
        name = ("g_a", "delta_e", "g_b")[worst]
        raise ConsistencyError(
            f"imaginary residue {residues[worst]:.3e} on {name} exceeds {IMAG_GATE:.0e}"
        )
    g_a, de, g_b = (float(p.real) for p in parts)
    return GSplit(
        g_a=g_a,
        delta_e=de,
        g_b=g_b,
        last_term_magnitude=float(abs(powers[-1] * xi[-1, 0])),
        max_imag_residue=residues[worst],
    )


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
    state = np.zeros(model.dim, dtype=complex)
    state[model.ground_index] = 1.0
    for n in range(1, order + 1):
        state += model.x**n * phi[n - 1, :, 0]
    state *= norm
    return AssembledState(
        state=state, split=split, energy=model.ground_energy + split.delta_e
    )


# ---------------------------------------------------------------------------
# oracles


def evolve_nstate(
    model: NStateModel,
    t_end: float,
    tol: float,
    start_threshold: float = DEFAULT_START_THRESHOLD,
) -> Trajectory:
    """Full Schrodinger evolution under the ramped perturbation from deep in
    the switch-on tail (ramped coupling at ``start_threshold`` of the
    smallest gap to the tracked level), starting in the tracked basis state.
    It runs on ``numkit.ode.ramp_evolve``, whose ramp kernel steps this one
    system with no Python right-hand side; the general array kernel of
    ``ode_evolve`` is its oracle in the tests, and the size-2 pair kernel
    serves the two-state route only.

    A run whose step count would exceed ``numkit.ode.MAX_STEPS`` fails at
    the start with an ``IntegrationError``. The count grows with the fastest
    level's phase max|E_k - E_g| * (t_end - t0), measured at 0.012 to 0.058
    * tol**-0.125 steps per radian, plus the ramp angle
    x * ||V|| * exp(eps * t_end) / eps (||V|| the spectral norm), measured at
    0.042 to 0.20 * tol**-0.125, for tol 1e-4 to 1e-12 and N = 3 to 64; the
    estimate takes a third of each term's lowest rate, so a run that could
    finish is never refused.
    """
    t0 = switch_on_time(model.min_gap, model.x, model.eps, start_threshold, t_end, tol)
    phase = float(np.abs(model.energies - model.ground_energy).max()) * (t_end - t0)
    ramp = ramped_coupling(model.x, model.eps, t_end, "t_end") / model.eps
    ramp *= float(np.linalg.norm(model.v.entries, 2))
    steps = tol**-0.125 * (0.0039 * phase + 0.014 * ramp)
    require_step_budget(
        steps,
        "tol**-0.125 * (0.0039 * max|E_k - E_g| * (t_end - t0) "
        "+ 0.014 * x * ||V|| * exp(eps * t_end) / eps)",
        t0,
        t_end,
    )
    y0 = np.zeros(model.dim, dtype=complex)
    y0[model.ground_index] = 1.0
    return ramp_evolve(
        model.energies, model.v.entries, model.x, model.eps, y0, t0, t_end, tol
    )


def oracle_shift(model: NStateModel) -> float:
    """Exact level shift: eigenvalue of the fully coupled Hamiltonian whose
    eigenvector carries the most probability on the tracked basis state
    (adiabatic continuation, not necessarily the global minimum), minus the
    unperturbed energy.

    Raises ContinuationError when no eigenvector holds a majority weight,
    i.e. the coupling is too strong for perturbative tracking.
    """
    w, vecs = hermitian_eig(model.hamiltonian())
    weights = np.abs(vecs[model.ground_index, :]) ** 2
    k = int(np.argmax(weights))
    if weights[k] < OVERLAP_FLOOR:
        raise ContinuationError(
            f"largest eigenvector weight on the tracked state is "
            f"{weights[k]:.3f} < {OVERLAP_FLOOR}; adiabatic continuation ambiguous"
        )
    return float(w[k] - model.ground_energy)
