"""Adaptive embedded Runge-Kutta 5(4) integration for complex ODE systems.

Dormand-Prince pair with PI step-size control (safety 0.9, growth clamped
to [0.2, 5.0]). Suited to the smooth, non-stiff switching problems in this
package, where a long quiescent tail benefits from aggressive step growth.

The states here are short vectors (2 to a few dozen entries), so a step
costs interpreter and numpy call overhead, not arithmetic. One controller
(step floor, step budget, PI factor, recorded trajectory) drives one of two
kernels, which take the same trial steps from the same tableau:

- ``_array_steps``, for every size but 2, makes as few numpy calls as it
  can. One stage matrix holds y in row 0 and the stages k1..k7 below it.
  The tableau ``_W`` has a leading column for y (1 in the stage rows, 0 in
  the error row); its other columns are scaled by ``h`` in place once per
  step into a persistent buffer, so each stage input is one ``dot`` of a
  pre-sliced buffer row against a pre-sliced head of the stage matrix. The
  input of the last stage is the 5th-order update itself
  (first-same-as-last), one more ``dot`` gives the error vector, and the
  error norm is one ``vdot``: 22 numpy calls a step.
- ``_pair_steps``, for 2-vectors: the two-state route, where the
  slow-switching limit spends its time. A numpy call on a 2-vector costs
  about 1 us, ten complex multiply-adds on Python scalars, and a step is
  about 65 of those against 22 calls. So this kernel unrolls the tableau
  (unpacked from ``_W`` and ``_C``) over two Python complex numbers and
  makes no numpy call but storing each stage input into the array that
  the right-hand side is passed.

The kernels round the stage sums differently. The error estimate cancels
to about 1e-6 of its terms, so their error norms, and with them the step
sizes, differ by about 1e-7 relative; the step counts of this package's
problems are the same. Untraced on one CPU of a shared 2-core Xeon, a
two-state step costs 20 to 23 us with the pair kernel against 28 to 39 us
with the array kernel in the same sitting; the six right-hand-side calls
are about a third of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, IntegrationError

__all__ = ["Trajectory", "ode_evolve"]

SAFETY = 0.9
GROWTH_MIN = 0.2
GROWTH_MAX = 5.0
# PI controller exponents for a 5th-order propagator
PI_ALPHA = 0.7 / 5.0
PI_BETA = 0.4 / 5.0
MAX_STEPS = 5_000_000
# smallest step, relative to the larger of |t| and the span
_H_FLOOR = 8.0 * float(np.finfo(float).eps)

# stage times of stages 2 to 7, as fractions of the step
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# Rows 0-5: the inputs of stages 2-7 as weights over the stage matrix
# (y, k1, ..., k7); row 5 is also the 5th-order update (first-same-as-last).
# Row 6: the error estimate, the difference between the 5th- and embedded
# 4th-order weights. The leading column is y's weight and is not scaled by h.
_W = np.array(
    [
        [1.0, 1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [1.0, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [1.0, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [1.0, 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
        [0.0, 71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    ],
    dtype=complex,
)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted integration steps: matching times and state vectors."""

    times: np.ndarray
    states: np.ndarray
    accepted_steps: int
    rejected_steps: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.states, dtype=complex)
        if t.ndim != 1 or y.ndim != 2 or y.shape[0] != t.size:
            raise ValueError("times and states must be matching 1-d / 2-d arrays")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", y)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _rms(v, scale) -> float:
    """Root mean square of ``|v| / scale``."""
    r = np.abs(v) / scale
    return math.sqrt(r.dot(r) / r.size)


def _initial_step(rhs, t0, t1, y0, f0, tol):
    """Hairer-style starting step estimate; NaN when the scaled size of the
    state or of its derivative overflows, as no step can then be sized."""
    span = t1 - t0
    with np.errstate(over="ignore", invalid="ignore"):
        scale = tol + tol * np.abs(y0)
        d0 = _rms(y0, scale)
        d1 = _rms(f0, scale)
    if not d0 + d1 < math.inf:
        return math.nan
    h0 = 1e-6 if d1 < 1e-5 or d0 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=complex)
    d2 = _rms(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)




def _array_steps(rhs, y, f0, tol):
    """Trial Dormand-Prince steps of a state vector of any size, on one
    stage matrix (see the module docstring).

    A generator: each ``send((t, h, keep))`` first makes the previous trial
    the current state if ``keep`` is true, then takes a trial step of size
    ``h`` from ``t`` and yields its error norm and its 5th-order state.
    """
    ay = np.abs(y)
    # err_norm = sqrt(q.q / n) / tol, q = err / (1 + max(|y|, |y_new|))
    norm_scale = 1.0 / (y.size * tol * tol)
    mean = np.full(y.size, 1.0 / y.size)
    # stage matrix: y, then the stages k1..k7
    k = np.empty((8, y.size), dtype=complex)
    k[0] = y
    k[1] = f0
    # the tableau with its h-scaled columns, rescaled in place every step
    hw = _W.copy()
    hw_scaled = hw[:, 1:]
    w_h = _W[:, 1:]
    # each stage input: a row of hw against the rows of k it weights
    stage_rows = [(hw[i, : i + 2], k[: i + 2], c) for i, c in enumerate(_C)]
    err_row = hw_scaled[6]
    stages = k[1:]

    t, h, _ = yield
    while True:
        np.multiply(w_h, h, hw_scaled)
        for i, (row, head, c) in enumerate(stage_rows, start=2):
            y_stage = row.dot(head)
            k[i] = rhs(t + c * h, y_stage)
        # the input of the last stage is the 5th-order update
        y_new = y_stage
        err = err_row.dot(stages)
        ay_new = np.abs(y_new)
        scale = 1.0 + np.maximum(ay, ay_new)
        # a non-finite state is rejected; the mean of the scale cannot overflow
        if scale.dot(mean) < math.inf:
            q = err / scale
            err_norm = math.sqrt(np.vdot(q, q).real * norm_scale)
        else:
            err_norm = math.inf
        t, h, keep = yield err_norm, y_new
        if keep:
            # k7 was evaluated at the end of the step: the next first stage
            k[0] = y_new
            k[1] = k[7]
            ay = ay_new


def _pair_steps(rhs, y, f0, tol):
    """Trial Dormand-Prince steps of a 2-vector on Python complex scalars.

    The stage sums, update, error vector and error norm of ``_array_steps``,
    unrolled over the two components; the only numpy work in a step is
    storing each stage input into the one array ``rhs`` is passed, and
    converting what ``rhs`` returns if it is not a tuple. Same protocol, but
    the yielded state is a tuple.
    """
    # _W's weights of k1..k7 row by row, zero weights dropped; each sum of
    # them is scaled by h
    (
        (a21, *_),
        (a31, a32, *_),
        (a41, a42, a43, *_),
        (a51, a52, a53, a54, *_),
        (a61, a62, a63, a64, a65, *_),
        (b1, _, b3, b4, b5, b6, _),
        (e1, _, e3, e4, e5, e6, e7),
    ) = _W[:, 1:].tolist()
    c2, c3, c4, c5, c6, c7 = _C
    inf = math.inf
    norm_scale = 0.5 / (tol * tol)
    y_stage = np.empty(2, dtype=complex)

    def f(t, a, c):
        y_stage[0] = a
        y_stage[1] = c
        k = rhs(t, y_stage)
        # Python complex numbers, so that an array return steps exactly as
        # a tuple return does
        if k.__class__ is not tuple:
            k = np.asarray(k, dtype=complex).tolist()
        return k

    a, c = y.tolist()
    ka1, kc1 = f0.tolist()
    # unlike abs, np.abs gives inf for a modulus past the float range
    aa, ac = np.abs(y).tolist()

    t, h, _ = yield
    while True:
        ka2, kc2 = f(t + c2 * h, a + h * (a21 * ka1), c + h * (a21 * kc1))
        ka3, kc3 = f(
            t + c3 * h,
            a + h * (a31 * ka1 + a32 * ka2),
            c + h * (a31 * kc1 + a32 * kc2),
        )
        ka4, kc4 = f(
            t + c4 * h,
            a + h * (a41 * ka1 + a42 * ka2 + a43 * ka3),
            c + h * (a41 * kc1 + a42 * kc2 + a43 * kc3),
        )
        ka5, kc5 = f(
            t + c5 * h,
            a + h * (a51 * ka1 + a52 * ka2 + a53 * ka3 + a54 * ka4),
            c + h * (a51 * kc1 + a52 * kc2 + a53 * kc3 + a54 * kc4),
        )
        ka6, kc6 = f(
            t + c6 * h,
            a + h * (a61 * ka1 + a62 * ka2 + a63 * ka3 + a64 * ka4 + a65 * ka5),
            c + h * (a61 * kc1 + a62 * kc2 + a63 * kc3 + a64 * kc4 + a65 * kc5),
        )
        # the input of the last stage is the 5th-order update
        a_new = a + h * (b1 * ka1 + b3 * ka3 + b4 * ka4 + b5 * ka5 + b6 * ka6)
        c_new = c + h * (b1 * kc1 + b3 * kc3 + b4 * kc4 + b5 * kc5 + b6 * kc6)
        ka7, kc7 = f(t + c7 * h, a_new, c_new)
        ea = h * (e1 * ka1 + e3 * ka3 + e4 * ka4 + e5 * ka5 + e6 * ka6 + e7 * ka7)
        ec = h * (e1 * kc1 + e3 * kc3 + e4 * kc4 + e5 * kc5 + e6 * kc6 + e7 * kc7)
        try:
            aa_new, ac_new = abs(a_new), abs(c_new)
        except OverflowError:  # finite parts, modulus past the float range
            aa_new = ac_new = inf
        # a NaN in the new state fails the comparison and reaches the scale
        sa = 1.0 + (aa if aa > aa_new else aa_new)
        sc = 1.0 + (ac if ac > ac_new else ac_new)
        # a non-finite state is rejected
        if sa < inf and sc < inf:
            qa = ea / sa
            qc = ec / sc
            err_norm = math.sqrt(
                (qa.real * qa.real + qa.imag * qa.imag + qc.real * qc.real + qc.imag * qc.imag)
                * norm_scale
            )
        else:
            err_norm = inf
        t, h, keep = yield err_norm, (a_new, c_new)
        if keep:
            # k7 was evaluated at the end of the step: the next first stage
            a, c, ka1, kc1, aa, ac = a_new, c_new, ka7, kc7, aa_new, ac_new


def ode_evolve(rhs, y0, t0: float, t1: float, tol: float) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from t0 to t1, recording every accepted step.

    ``rhs`` must accept a float time and a complex state vector, which it
    must neither modify nor keep a reference to (the vector's buffer may be
    reused for the next stage), and return the complex derivative as an
    array or any sequence of complex numbers. The local error is controlled
    relative to ``tol``; for anti-Hermitian generators the state norm drifts
    by at most a small multiple of ``tol`` over moderate spans.

    Raises IntegrationError (naming the time of failure) if ``rhs`` is not
    finite at the start, if the step size underflows, which indicates
    stiffness or a singularity beyond the tolerance budget, or if more than
    ``MAX_STEPS`` steps are taken.
    """
    if not t0 < t1:
        raise DomainError(f"need t0 < t1, got [{t0}, {t1}]")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")

    y = np.atleast_1d(np.asarray(y0, dtype=complex)).copy()
    t = float(t0)
    f0 = np.asarray(rhs(t, y), dtype=complex)
    h = _initial_step(rhs, t0, t1, y, f0, tol) if np.all(np.isfinite(f0)) else math.nan
    if not math.isfinite(h):
        raise IntegrationError(
            f"right-hand side or starting step is not finite at t = {t:.12g}", time=t
        )
    # the same steps either way; a 2-vector's are cheaper without numpy
    steps = (_pair_steps if y.size == 2 else _array_steps)(rhs, y, f0, tol)
    next(steps)

    times = [t]
    states = [y]
    accepted = 0
    rejected = 0
    err_prev = 1e-4
    span = abs(t1 - t0)
    keep = False

    while t < t1:
        h = min(h, t1 - t)
        if not h > _H_FLOOR * max(abs(t), span):
            raise IntegrationError(
                f"step size underflow ({h:.3e}) at t = {t:.12g}", time=t
            )
        if accepted + rejected > MAX_STEPS:
            raise IntegrationError(
                f"step budget exhausted at t = {t:.12g}", time=t
            )

        err_norm, y_new = steps.send((t, h, keep))
        keep = err_norm <= 1.0
        if keep:
            t += h
            times.append(t)
            states.append(y_new)
            accepted += 1
            if err_norm == 0.0:
                factor = GROWTH_MAX
            else:
                factor = SAFETY * err_norm ** (-PI_ALPHA) * err_prev ** PI_BETA
            h *= min(GROWTH_MAX, max(GROWTH_MIN, factor))
            err_prev = max(err_norm, 1e-10)
        else:
            rejected += 1
            if math.isfinite(err_norm):
                factor = SAFETY * err_norm ** (-0.2)
            else:
                factor = GROWTH_MIN
            h *= min(1.0, max(GROWTH_MIN, factor))

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        accepted_steps=accepted,
        rejected_steps=rejected,
    )
