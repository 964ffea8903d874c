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

from .errors import DomainError
# nothing here calls jet_mul or jet_recip; both stay importable from this
# module because bench/spans.py wraps twostate.jet_mul and
# twostate.jet_recip by name in every traced run
from .numkit import Ramp, Trajectory, jet_mul, jet_recip, ode_evolve  # noqa: F401

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
    the last two in units of delta. ``converged`` says that the bound on
    the truncated tail of the shift and of f_a is within 1e-12 of each."""

    f_a: float
    delta_e_a: float
    f_b: float
    f_c: float
    max_imag_residue: float
    norm_n: float
    normalization_residual: float
    shift_quadratic_residual: float
    rate_balance_residual: float
    converged: bool


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


def _gtilde(order: int, jet_order: int, at_rate: float) -> np.ndarray:
    """The first ``order`` phase-recursion coefficients in units of delta, as
    jets of order K = ``jet_order`` in s = i * eps / delta around s0 = i *
    ``at_rate``: a read-only ``(order, K + 1)`` array whose row n-1 holds
    entry n's Taylor coefficients in s - s0; float64 at s0 = 0, complex
    otherwise. A ``DomainError`` if ``order`` is below 1.

    In s the recursion is entry n = b_n / (2 - (2n-1) s), with b_1 = -1 and
    b_n = sum_{m<n} entry_{n-m} * entry_m; around s0 = 0 every jet
    coefficient is real. Jet index k of b_n is
    anti-diagonal k of one (K+1) x (K+1) product of earlier rows, added in
    order of the row; with a_n = 2 - (2n-1) s0, the jet of
    b / (a_n - (2n-1) (s - s0)) is c_k = (b_k + (2n-1) c_{k-1}) / a_n,
    Horner's rule in s.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    s0 = 1j * at_rate if at_rate else 0.0
    rows = np.zeros((order, jet_order + 1), dtype=type(s0))
    # anti-diagonal k past its first cell, pair[0][k]
    cells = [[(j, k - j) for j in range(1, k + 1)] for k in range(jet_order + 1)]
    # entry 1 has no products: b_1 = -1 stands in their place
    pair = np.diag([-1.0] + [0.0] * jet_order).tolist()
    for n in range(order):
        # row n holds entry n + 1: pair[j][l] = sum over m of coefficient j
        # of entry_{n+1-m} times coefficient l of entry_m
        if n:
            pair = (rows[n - 1 :: -1].T @ rows[:n]).tolist()
        q, c = 2 * n + 1, 0.0
        a = 2 - q * s0
        for k, rest in enumerate(cells):
            b = pair[0][k]
            for j, l in rest:
                b += pair[j][l]
            rows[n, k] = c = (b + q * c) / a
    rows.flags.writeable = False
    return rows


# the process-wide store behind gtilde_table: the longest table asked for
# so far
_gtilde_store = np.empty((0, 3))


def gtilde_table(order: int) -> np.ndarray:
    """First ``order`` phase-recursion coefficients in units of the half-gap
    delta, as second-order jets in s = i * eps / delta around the
    slow-switching limit 0: a read-only float64 ``(order, 3)`` array whose
    row n-1 (value, slope, half curvature) multiplies (x / delta)**(2n); in
    absolute units entry n is delta**(1 - 2n) times as large.

    It is the phase recursion that also gives ``gtilde_values``, here at jet
    order 2 around s0 = 0, where it is real: first entry = -1 / (2 - s),
    entry n = sum_{m<n} entry_{n-m} * entry_m / (2 - (2n-1) * s). Its
    coefficient k of the rate r = eps / delta is i**k times its coefficient
    k of s, so the jets in the rate are the rows times (1, i, -1). Entry n
    is at most |binom(1/2, n)| <= 1/2, its value at s = 0; slope and
    curvature grow as a power of n.

    Entry n depends on n alone, so each table is built once per process.
    It lives in one process-wide read-only store that holds the longest
    table asked for so far (24 bytes per order). A longer ``order`` builds
    the table afresh at that order and swaps it in; entry n reads only
    entries below n, so every prefix is the same bits as a shorter build.
    The returned table is the prefix ``store[:order]``, a read-only view
    that cannot be made writeable; its ``.base`` is the store itself, which
    can be, and a write through it would change every later table. Two
    threads that grow the store at once build equal prefixes, and the last
    swap wins.
    """
    global _gtilde_store
    store = _gtilde_store
    # _gtilde refuses an order below 1
    if not 0 < order <= len(store):
        _gtilde_store = store = _gtilde(order, 2, 0.0)
    return store[:order]


def gtilde_values(rate: float, order: int) -> np.ndarray:
    """The phase-recursion coefficients evaluated exactly at the rate
    r = eps / delta: column 0 of the recursion of ``gtilde_table`` at jet
    order 0 around s0 = i r, a read-only array. In r, entry 1 =
    -i / (2i + r) and entry n = i * sum_{m<n} entry_{n-m} * entry_m /
    (2i + (2n-1) * r). They are complex, and float64 at r = 0, where they
    are column 0 of ``gtilde_table`` to rounding (the jet-order-0 product
    may add in another order); at a real rate each is at most 1/2 in
    magnitude."""
    return _gtilde(order, 0, rate)[:, 0]


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

    Column 0 of the table is +-|binom(1/2, n)| to rounding, so the terms
    past ``order`` of the shift over delta sum to at most
    |binom(1/2, order + 1)| u**(2 order + 2) / (1 - u**2), and those of
    f_a over delta, each divided by 2n, to no more; ``converged`` says that
    this bound is within 1e-12 of both.
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
    a = math.fsum(powers * table[:, 0] / (2 * n))  # f_a in units of delta
    d = math.fsum(powers * table[:, 0])  # the shift in units of delta
    # |binom(1/2, order + 1)| = Gamma(order + 1/2) / (2 sqrt(pi) (order + 1)!)
    binom = math.exp(math.lgamma(order + 0.5) - math.lgamma(order + 2))
    tail = binom / (2 * math.sqrt(math.pi)) * u ** (2 * order + 2) / (1 - u * u)
    f_b = math.fsum(powers * table[:, 1] / (2 * n))
    f_c = -m.eps / delta * math.fsum(powers * table[:, 2] / (2 * n))

    # d/du of the sums over u**(2n), term by term; u underflows to 0 only
    # where x / delta is far below the smallest double, and every power
    # and both derivatives are 0 there
    dd = math.fsum(2 * n * powers * table[:, 0]) / u if u else 0.0
    dfb = math.fsum(powers * table[:, 1]) / u if u else 0.0
    norm_n = exact_eigensystem(m).norm_n
    return PhaseSplitTwoState(
        f_a=delta * a,
        delta_e_a=delta * d,
        f_b=f_b,
        f_c=f_c,
        max_imag_residue=0.0,
        norm_n=norm_n,
        normalization_residual=abs(math.exp(f_b) - norm_n),
        shift_quadratic_residual=abs(-d * d + 2 * d + u * u),
        rate_balance_residual=abs(2 * u * dfb * (1 - d) + (d - u * dd)),
        converged=tail <= 1e-12 * abs(d) and tail <= 1e-12 * abs(a),
    )


# ---------------------------------------------------------------------------
# ODE route


def require_time(t: float, name: str = "t") -> None:
    """A ``DomainError`` naming the time ``name`` if ``t`` is not a finite
    number: no run can start before an infinite end, or end at it."""
    if math.isnan(t):
        raise DomainError(f"{name} is not a number, got {t}")
    if math.isinf(t):
        raise DomainError(f"{name} must be finite, got {t}")


def ramped_coupling(x: float, eps: float, t: float, name: str = "t") -> float:
    """The coupling ``x * exp(eps * t)`` at time ``t``; a ``DomainError``
    naming the time ``name`` if ``t`` is not a number or the coupling is not
    a finite float."""
    require_time(t, name)
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


def evolve_two_state(m: TwoStateModel, t_end: float, tol: float) -> Trajectory:
    """Integrate the interaction-picture amplitude pair (a, c) from the
    switch-on tail to ``t_end``. The generator is anti-Hermitian, so
    |a|**2 + |c|**2 stays at 1 within a small multiple of ``tol``.

    The pair is integrated in the frame where the tracked level stands
    still, y' = -i [[0, lam], [lam, 2 delta]] y with lam = x * exp(eps * t),
    the two-level ``Ramp`` with energies (0, 2 delta) and V = sigma_x.
    ``numkit.ode.ode_evolve`` steps that shape on its two-level kernel, in
    real arithmetic on the four parts of the pair as Python floats, one
    ``exp`` and a few products per stage. Its second component is
    exp(-2i delta t) c. It starts where ``Ramp.stepping_start`` puts the
    start (the start rule of the ``numkit.ode`` module docstring; there
    the coupling is at most 2 sqrt(delta eps)), from column 0 of
    ``Ramp.tail``, the tail solution of these equations summed as a power
    series in lam, so the start error is rounding and where the run starts
    moves the result by integration error only. The returned states carry
    c itself. A ``DomainError`` if ``t_end`` is not a finite number, the
    coupling overflows there or the start rounds to it; an
    ``IntegrationError`` at the start where ``ode_evolve``'s step estimate
    exceeds ``numkit.ode.MAX_STEPS``.
    """
    if not 0 < tol < 1:
        raise DomainError(f"tol must be in (0, 1), got {tol}")
    # refuses an end where the coupling overflows
    ramped_coupling(m.x, m.eps, t_end, "t_end")
    ramp = Ramp((0.0, 2.0 * m.delta), [[0.0, 1.0], [1.0, 0.0]], m.x, m.eps)
    t0 = ramp.stepping_start(t_end, 0)
    y0 = ramp.tail(ramped_coupling(m.x, m.eps, t0), tol)[:, 0]
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
    removed. At t = 0 this is the exact ground eigenvector.

    Its ratio of components, the shift over x, is formed in units of delta
    as ``phase_split`` forms the shift: the sum of u**(2n - 1) times the
    table's column 0, u = x / delta, which is the shift over delta divided
    by u term by term. So it keeps its digits where the shift is subnormal
    or underflows; at delta = 1 and x a power of two it is the same bits as
    the shift over x."""
    split = phase_split(m, order)
    de = split.delta_e_a
    u = m.x / m.delta
    n = np.arange(1, order + 1)
    ratio = math.fsum(u ** (2 * n - 1) * gtilde_table(order)[:, 0])
    norm = math.exp(split.f_b)
    phase = np.exp(-1j * (m.mu - m.delta) * t) * np.exp(-1j * de * t)
    state = phase * norm * np.array([1.0, ratio], dtype=complex)
    return LimitState(
        state=state,
        secular_phase=de * t,
        divergent_coefficient=split.f_a,
    )
