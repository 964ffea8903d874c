"""Exactly solvable two-level system under an exponentially switched coupling.

Three independent routes to the same evolved amplitude live here:

* direct ODE integration of the interaction-picture pair (a, c),
* the power series for a(t) whose terms blow up as the switching slows,
* a phase-function recursion that isolates the blow-up into a single
  time-independent phase, leaving a finite level shift and normalization.

The level shift has the closed form ``delta - sqrt(delta**2 + x**2)``, which
every series route is tested against.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
# nothing here calls jet_mul or jet_recip; both stay importable from this
# module because bench/spans.py wraps twostate.jet_mul and
# twostate.jet_recip by name in every traced run
from .numkit import Ramp, Trajectory, jet_mul, jet_recip, ode, ode_evolve  # noqa: F401

__all__ = [
    "TwoStateModel",
    "TwoStateEigensystem",
    "BesselSeriesResult",
    "PhaseSeriesResult",
    "PhaseSplitTwoState",
    "LimitState",
    "exact_eigensystem",
    "gtilde_table",
    "gtilde_values",
    "delta_e_closed",
    "bessel_series_a",
    "phase_series",
    "ramped_coupling",
    "ramped_coupling_squared",
    "phase_split",
    "evolve_two_state",
    "limit_state",
]

DEFAULT_ORDER = 30
DEFAULT_START_THRESHOLD = 1e-8


@dataclass(frozen=True)
class TwoStateModel:
    """Two-level model: energy offset mu, half-gap delta, coupling x,
    switching rate eps. The coupling is ramped as ``x * exp(eps * t)``."""

    mu: float
    delta: float
    x: float
    eps: float

    def __post_init__(self):
        for name in ("mu", "delta", "x", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.delta > 0:
            raise DomainError(f"half-gap delta must be > 0, got {self.delta}")
        if not self.x > 0:
            raise DomainError(f"coupling x must be > 0, got {self.x}")
        if not self.eps > 0:
            raise DomainError(f"switching rate eps must be > 0, got {self.eps}")

    def hamiltonian(self) -> np.ndarray:
        """Static Hamiltonian at full coupling (the t = 0 matrix)."""
        return np.array(
            [[self.mu - self.delta, self.x], [self.x, self.mu + self.delta]],
            dtype=complex,
        )


@dataclass(frozen=True, eq=False)
class TwoStateEigensystem:
    psi0: np.ndarray
    e0: float
    psi1: np.ndarray
    e1: float
    delta_e: float
    norm_n: float


@dataclass(frozen=True, eq=False)
class BesselSeriesResult:
    value: complex
    term_magnitudes: np.ndarray
    converged: bool

    @property
    def max_term(self) -> float:
        return float(self.term_magnitudes.max(initial=0.0))


@dataclass(frozen=True, eq=False)
class PhaseSeriesResult:
    value: complex
    converged: bool


@dataclass(frozen=True)
class PhaseSplitTwoState:
    """Split of the accumulated phase-over-rate into a divergent coefficient
    (f_a, to be divided by the rate), a secular level shift, and a finite
    log-magnitude f_b. f_c is the finite-rate remainder diagnostic, expected
    to vanish linearly as the switching slows.

    The normalization identity is checked on the same coefficients: exp(f_b)
    against the closed-form ``norm_n``, the quadratic the shift satisfies,
    and the balance tying the coupling derivatives of f_b and the shift;
    the last two in units of delta."""

    f_a: float
    delta_e_a: float
    f_b: float
    f_c: float
    max_imag_residue: float
    norm_n: float
    normalization_residual: float
    shift_quadratic_residual: float
    rate_balance_residual: float


@dataclass(frozen=True, eq=False)
class LimitState:
    state: np.ndarray
    secular_phase: float
    divergent_coefficient: float


# ---------------------------------------------------------------------------
# exact eigensystem


def _scaled_shift(delta: float, x: float):
    """``(q, u, e)``: the ground-level shift q and the coupling u in units of
    the power of two 2**e of x, or of delta / 2**1022 where that is larger
    (``math.frexp``)."""
    e = max(math.frexp(x)[1], math.frexp(delta)[1] - 1022)
    d, u = math.ldexp(delta, -e), math.ldexp(x, -e)
    return -(u * u) / (d + math.hypot(d, u)), u, e


def delta_e_closed(delta: float, x: float) -> float:
    """Ground-level shift delta - sqrt(delta**2 + x**2), evaluated in the
    cancellation-free form; always <= 0 and continuous with 0 at x = 0.

    It is computed on delta and x divided by the power of two 2**e of x
    (``math.frexp``), or of delta / 2**1022 where that is larger, and
    multiplied back by 2**e. The scaled x * x is then about 1, and the
    denominator and quotient sit at about delta / x and x / delta, so the
    result is finite and right to a few ulps for every pair of finite
    doubles, also where x * x, the denominator or the quotient would leave
    the normal range in absolute units. Scaling by a power of two is exact,
    so wherever those three are normal doubles the result is the same bits
    as the unscaled form's."""
    if not delta > 0:
        raise DomainError(f"delta must be > 0, got {delta}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    q, _, e = _scaled_shift(delta, x)
    return math.ldexp(q, e)


def exact_eigensystem(m: TwoStateModel) -> TwoStateEigensystem:
    """Closed-form spectrum and orthonormal eigenvectors of the full matrix.

    The eigenvector ratio delta_e / x is formed on the pair that
    ``delta_e_closed`` scales by a power of two, so it keeps its digits
    where delta_e is subnormal or underflows; wherever delta_e is a normal
    double it is the same bits as the quotient in absolute units."""
    q, u, e = _scaled_shift(m.delta, m.x)
    # u underflows to 0 only where x / delta is far below the smallest
    # double, and so is the ratio: q, -0, stands for it there
    ratio = q / u if u else q
    norm_n = 1.0 / math.sqrt(1.0 + ratio * ratio)
    psi0 = norm_n * np.array([1.0, ratio], dtype=complex)
    psi1 = norm_n * np.array([-ratio, 1.0], dtype=complex)
    hyp = math.hypot(m.delta, m.x)
    return TwoStateEigensystem(
        psi0=psi0,
        e0=m.mu - hyp,
        psi1=psi1,
        e1=m.mu + hyp,
        delta_e=math.ldexp(q, e),
        norm_n=norm_n,
    )


# ---------------------------------------------------------------------------
# phase-function recursion coefficients


# the process-wide store behind gtilde_table: entry 1, -1 / (2 - s) as a jet
# in s, to start with
_gtilde_store = np.array([[-0.5, -0.25, -0.125]])
_gtilde_store.flags.writeable = False


def gtilde_table(order: int) -> np.ndarray:
    """First ``order`` phase-recursion coefficients in units of the half-gap
    delta, as second-order jets in s = i * eps / delta around the
    slow-switching limit 0: a read-only float64 ``(order, 3)`` array whose
    row n-1 (value, slope, half curvature) multiplies (x / delta)**(2n); in
    absolute units entry n is delta**(1 - 2n) times as large.

    In s the recursion is real: first entry = -1 / (2 - s), entry n =
    sum_{m<n} entry_{n-m} * entry_m / (2 - (2n-1) * s). Its coefficient k
    of the rate r = eps / delta is i**k times its coefficient k of s, so the
    jets in the rate are the rows times (1, i, -1). Entry n is
    at most |binom(1/2, n)| <= 1/2, its value at s = 0; slope and curvature
    grow as a power of n.

    Entry n depends on n alone, so each entry is computed once per process.
    The entries live in one process-wide read-only store that holds the
    longest table asked for so far (24 bytes per order). A longer ``order``
    copies the store into a new array, extends it by the same recursion,
    marks it read-only and swaps it in; entry n reads only entries below n,
    so every prefix is the same bits as a fresh build. The returned table is
    the prefix ``store[:order]``, a read-only view that cannot be made
    writeable; its ``.base`` is the store itself, which can be, and a write
    through it would change every later table. Two threads that extend the
    store at once build equal arrays, and the last swap wins.
    """
    global _gtilde_store
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    store = _gtilde_store
    done = len(store)
    if order > done:
        table = np.empty((order, 3))
        table[:done] = store
        for n in range(done + 1, order + 1):
            # pair[j][l] = sum over m of coefficient j of entry_{n-m} times
            # coefficient l of entry_m; the jet coefficients of the sum of
            # products are its anti-diagonal sums
            pair = (table[n - 2 :: -1].T @ table[: n - 1]).tolist()
            c0 = pair[0][0]
            c1 = pair[0][1] + pair[1][0]
            c2 = pair[0][2] + pair[1][1] + pair[2][0]
            # times 1 / (2 - 2q s) = (1, q, q**2) / 2 as a jet in s
            q = n - 0.5
            table[n - 1] = (0.5 * c0, 0.5 * (c1 + q * c0), 0.5 * (c2 + q * (c1 + q * c0)))
        table.flags.writeable = False
        _gtilde_store = store = table
    return store[:order]


def gtilde_values(rate: float, order: int) -> np.ndarray:
    """The phase-recursion coefficients evaluated exactly at the rate
    r = eps / delta, by the plain complex recursion in r: entry 1 =
    -i / (2i + r), entry n = i * sum_{m<n} entry_{n-m} * entry_m /
    (2i + (2n-1) * r). At r = 0 they are column 0 of ``gtilde_table``; at a
    real rate each is at most 1/2 in magnitude."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    g = np.zeros(order + 1, dtype=complex)  # g[0] unused; 1-based
    g[1] = -1j / (2j + rate)
    for n in range(2, order + 1):
        conv = np.dot(g[1:n], g[n - 1 : 0 : -1])
        g[n] = 1j * conv / (2j + (2 * n - 1) * rate)
    return g[1:]


# ---------------------------------------------------------------------------
# divergent series for the surviving amplitude


def bessel_series_a(m: TwoStateModel, t: float) -> BesselSeriesResult:
    """Series for the surviving amplitude a(t), summed by term-ratio recursion.

    The k-th term carries the k-th inverse power of the switching rate, so
    for slow switching the magnitudes grow before they decay; they are
    returned for divergence diagnostics. The sum stops at the first term of
    at most 1e-12 * max(1, |a|), or at a term above 1e250 or not finite;
    past the peak the term ratio |z| / (k |k - nu|) falls toward 0, so it
    always stops. ``converged`` says that the sum stopped at that target
    and that the cancellation bound 2**-53 * (largest term) is within it
    too. A ``DomainError`` if the series argument
    -(x * exp(eps * t) / eps)**2 / 4 overflows, as no term can then be
    formed.
    """
    s = ramped_coupling(m.x, m.eps, t) / m.eps
    z = -0.25 * s * s
    if not math.isfinite(z):
        raise DomainError(
            f"squared ramped coupling over the rate (x * exp(eps * t) / eps)**2 "
            f"overflows at t = {t:.6g}; raise eps or move t earlier"
        )
    nu = 0.5 - 1j * m.delta / m.eps
    value = 1.0 + 0.0j
    term = 1.0 + 0.0j
    mags = []
    converged = False
    for k in itertools.count(1):
        term = term * z / (k * (k - nu))
        mag = abs(term)
        if not math.isfinite(mag):
            break
        mags.append(mag)
        if mag > 1e250:
            break
        value += term
        target = 1e-12 * max(1.0, abs(value))
        if mag <= target:
            # the last term is small; so must be the rounding error left by
            # cancellation among the largest terms
            converged = max(mags) * 2.0**-53 <= target
            break
    return BesselSeriesResult(
        value=complex(value),
        term_magnitudes=np.array(mags),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# phase-function route


def phase_series(
    m: TwoStateModel, t: float, order: int = DEFAULT_ORDER
) -> PhaseSeriesResult:
    """Accumulated phase function f(t) at the model's finite switching rate
    (the amplitude is ``exp(-1j * f / eps)``), and whether its truncated
    series in powers of the squared ramped coupling has converged.

    ``converged`` says that the last two terms shrink and that the geometric
    tail they start is at most 1e-12 * max(1, |f|). A ``DomainError`` if the
    sum is not finite: the powers of the squared ramped coupling can overflow
    even where the square itself does not.
    """
    g = gtilde_values(m.eps / m.delta, order)
    lam2 = ramped_coupling_squared(m.x, m.eps, t)
    u = lam2 / m.delta / m.delta  # delta**2 can underflow to 0
    n = np.arange(1, order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = m.delta * u**n / (2 * n) * g
        f = complex(np.sum(terms))
        mags = np.abs(terms)
    if not cmath.isfinite(f):
        raise DomainError(
            f"phase function f is not finite at t = {t:.6g}: the squared ramped "
            f"coupling {lam2:.6g} is beyond the reach of the order-{order} series"
        )
    last = float(mags[-1])
    prev = float(mags[-2]) if order > 1 else 0.0
    # terms that keep shrinking by r = last / prev leave a tail of
    # last * r / (1 - r) = last**2 / (prev - last)
    converged = last == 0.0 or (
        last < prev and last * last / (prev - last) <= 1e-12 * max(1.0, abs(f))
    )
    return PhaseSeriesResult(value=f, converged=converged)


def phase_split(m: TwoStateModel, order: int = DEFAULT_ORDER) -> PhaseSplitTwoState:
    """Split the t = 0 phase-over-rate into divergent coefficient, secular
    shift, and finite log-magnitude, with a finite-rate remainder diagnostic
    and the residuals of the normalization identity.

    The remainder f_c is built from the second-order jet coefficients and is
    expected to vanish linearly with the switching rate. The identity's
    residuals are in units of delta: they are formed on u = x / delta and
    the shift over delta, with the derivatives in u taken term by term from
    the same table, so they do not change when delta, x and eps are scaled
    together by a power of two. The table is real in s = i * eps / delta,
    so each sum is a correctly rounded ``math.fsum`` of real terms. f_b,
    -i times a sum of rate slopes i * s_1, is the sum of the slopes s_1 in
    s, and f_c's half curvatures change sign, since i**2 = -1.
    ``max_imag_residue`` is 0.0.
    """
    delta, x = m.delta, m.x
    if not x < delta:
        raise DomainError(
            f"series requires x < delta (convergence radius delta = {delta}, "
            f"branch point at x = i*delta); got x = {x}"
        )
    table = gtilde_table(order)
    n = np.arange(1, order + 1)
    u = x / delta
    powers = u ** (2 * n)
    f_a = delta * math.fsum(powers * table[:, 0] / (2 * n))
    d = math.fsum(powers * table[:, 0])  # the shift in units of delta
    f_b = math.fsum(powers * table[:, 1] / (2 * n))
    f_c = -m.eps / delta * math.fsum(powers * table[:, 2] / (2 * n))

    # d/du of the sums over u**(2n), term by term; u underflows to 0 only
    # where x / delta is far below the smallest double, and every power
    # and both derivatives are 0 there
    dd = math.fsum(2 * n * powers * table[:, 0]) / u if u else 0.0
    dfb = math.fsum(powers * table[:, 1]) / u if u else 0.0
    norm_n = exact_eigensystem(m).norm_n
    return PhaseSplitTwoState(
        f_a=f_a,
        delta_e_a=delta * d,
        f_b=f_b,
        f_c=f_c,
        max_imag_residue=0.0,
        norm_n=norm_n,
        normalization_residual=abs(math.exp(f_b) - norm_n),
        shift_quadratic_residual=abs(-d * d + 2 * d + u * u),
        rate_balance_residual=abs(2 * u * dfb * (1 - d) + (d - u * dd)),
    )


# ---------------------------------------------------------------------------
# ODE route


def ramped_coupling(x: float, eps: float, t: float, name: str = "t") -> float:
    """The coupling ``x * exp(eps * t)`` at time ``t``; a ``DomainError``
    naming the time ``name`` if it is not a finite float."""
    try:
        value = x * math.exp(eps * t)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"ramped coupling x * exp(eps * {name}) overflows at {name} = {t:.6g}; "
            f"move {name} earlier"
        )
    return value


def ramped_coupling_squared(x: float, eps: float, t: float) -> float:
    """The square of ``ramped_coupling(x, eps, t)``; a ``DomainError`` if it
    is not a finite float."""
    lam = ramped_coupling(x, eps, t)
    square = lam * lam
    if not math.isfinite(square):
        raise DomainError(
            f"squared ramped coupling (x * exp(eps * t))**2 overflows at t = {t:.6g}; "
            "move t earlier"
        )
    return square


def switch_on_time(
    gap: float, x: float, eps: float, threshold: float, t_end: float, tol: float
) -> float:
    """Start time at which the ramped coupling is ``threshold`` of the gap;
    the threshold must lie in (0, 1e-4], the start must precede ``t_end``,
    and the run's tolerance ``tol`` must lie in (0, 1): at 1 and above the
    integrator's error control is off."""
    if not 0 < tol < 1:
        raise DomainError(f"tol must be in (0, 1), got {tol}")
    if not 0 < threshold <= 1e-4:
        raise DomainError(f"start_threshold must be in (0, 1e-4], got {threshold}")
    t0 = math.log(gap * threshold / x) / eps
    if not t0 < t_end:
        raise DomainError(
            f"switch-on start t0 = {t0:.6g} is not before t_end = {t_end:.6g}; "
            "lower start_threshold or move t_end"
        )
    return t0


def require_step_budget(steps: float, formula: str, t0: float, t_end: float) -> None:
    """Raise an ``IntegrationError`` at ``t0`` if ``steps``, an up-front
    estimate of a run's step count given by ``formula``, exceeds
    ``numkit.ode.MAX_STEPS`` (read at call time)."""
    if steps > ode.MAX_STEPS:
        raise IntegrationError(
            f"step budget exhausted before the start: about {steps:.3g} steps "
            f"({formula}) to t_end = {t_end:.6g} exceed the budget of "
            f"{ode.MAX_STEPS}; raise tol or move t_end earlier",
            time=t0,
        )


def evolve_two_state(
    m: TwoStateModel,
    t_end: float,
    tol: float,
    start_threshold: float = DEFAULT_START_THRESHOLD,
) -> Trajectory:
    """Integrate the interaction-picture amplitude pair (a, c) from deep in
    the switch-on tail (ramped coupling at ``start_threshold`` of the gap
    2*delta) to ``t_end``. The generator is anti-Hermitian, so
    |a|**2 + |c|**2 stays at 1 within a small multiple of ``tol``.

    The pair is integrated in the frame where the tracked level stands
    still, y' = -i [[0, lam], [lam, 2 delta]] y with lam = x * exp(eps * t),
    the two-level ``Ramp`` with energies (0, 2 delta) and V = sigma_x, which
    ``numkit.ode.ode_evolve`` steps on its pair kernel. Its second
    component is exp(-2i delta t) c; it starts from the first-order
    switch-on state (1, -i lam / (eps + 2i delta)): the tail solution of
    that component's own equation at a = 1, so the start misses the exact
    state by O(start_threshold**2). The returned states carry c itself.

    A run whose step count would exceed ``numkit.ode.MAX_STEPS`` fails at
    the start with an ``IntegrationError``. The count grows with the
    rotation angle x * exp(eps * t_end) / eps, measured at about
    0.20 * tol**-0.125 steps per radian for tol 1e-4 to 1e-12; the estimate
    takes a third of that rate, so a run that could finish is never refused.
    """
    t0 = switch_on_time(2 * m.delta, m.x, m.eps, start_threshold, t_end, tol)
    angle = ramped_coupling(m.x, m.eps, t_end, "t_end") / m.eps
    steps = 0.068 * tol**-0.125 * angle
    require_step_budget(
        steps, "0.068 * tol**-0.125 * x * exp(eps * t_end) / eps", t0, t_end
    )
    ramp = Ramp((0.0, 2.0 * m.delta), [[0.0, 1.0], [1.0, 0.0]], m.x, m.eps)
    y0 = np.array([1.0, -1j * m.x * math.exp(m.eps * t0) / complex(m.eps, 2.0 * m.delta)])
    traj = ode_evolve(ramp, y0, t0, t_end, tol)
    states = traj.states.copy()
    states[:, 1] *= np.exp(2j * m.delta * traj.times)
    return Trajectory(traj.times, states, traj.accepted_steps, traj.rejected_steps)


# ---------------------------------------------------------------------------
# assembled slow-switching limit


def limit_state(
    m: TwoStateModel, t: float, order: int = DEFAULT_ORDER
) -> LimitState:
    """Evolved state in the slow-switching limit with the divergent phase
    factor dropped, not exponentiated: its coefficient (to be divided by the
    switching rate) is returned separately so callers see exactly what was
    removed. At t = 0 this is the exact ground eigenvector."""
    split = phase_split(m, order)
    de = split.delta_e_a
    norm = math.exp(split.f_b)
    phase = np.exp(-1j * (m.mu - m.delta) * t) * np.exp(-1j * de * t)
    state = phase * norm * np.array([1.0, de / m.x], dtype=complex)
    return LimitState(
        state=state,
        secular_phase=de * t,
        divergent_coefficient=split.f_a,
    )
