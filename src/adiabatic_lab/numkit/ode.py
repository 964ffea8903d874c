"""Adaptive embedded Runge-Kutta 8(5,3) integration for complex ODE systems.

The Dormand-Prince pair DOP853 (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., section II.10): twelve stages,
an 8th-order update whose derivative is the next step's first stage
(first same as last), and Hairer's error estimate built from the embedded
5th- and 3rd-order differences. PI step-size control (safety 0.9, growth
clamped to [0.2, 5.0]). Suited to the smooth, non-stiff switching problems
in this package, where a long quiescent tail benefits from aggressive step
growth; at the tolerances used here it takes several times fewer steps
than a 5(4) pair.

The states here are short vectors (2 to a few dozen entries), so a step
costs interpreter and numpy call overhead, not arithmetic. ``ode_evolve``
is one loop over trial steps, for a state of any size. One stage matrix
holds y in row 0 and the stages k1..k12 below it. The tableau ``_W`` has a
leading column for y (1 in the stage and update rows, 0 in the error rows);
its other columns are scaled by ``h`` in place once per step into a
persistent buffer, so each stage input is one ``dot`` of a pre-sliced
buffer row against a pre-sliced head of the stage matrix. One more ``dot``
gives the update and one the two error vectors; the right-hand side at an
accepted update is the next trial's first stage, evaluated when that
trial starts.
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
# PI controller exponents for an 8th-order propagator
PI_ALPHA = 0.7 / 8.0
PI_BETA = 0.4 / 8.0
MAX_STEPS = 5_000_000
# smallest step, relative to the larger of |t| and the span
_H_FLOOR = 8.0 * float(np.finfo(float).eps)

# Stage times of stages 2 to 12, as fractions of the step, and the inputs
# of those stages as weights of the stages k1, k2, ... before them.
_C = (
    0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_STAGE_WEIGHTS = (
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2},
    {
        1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
        4: 9.24834003261792003115737966543e-1,
    },
    {
        1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
        5: 1.25467687566822425016691814123e-1,
    },
    {
        1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
        5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2,
    },
    {
        1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
        5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
        7: 8.27378916381402288758473766002e-3,
    },
    {
        1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
        5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
        7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1,
    },
    {
        1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
        5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
        7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
        9: -2.03312017085086261358222928593e-2,
    },
    {
        1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
        5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
        7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
        9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022,
    },
    {
        1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
        5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
        7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
        9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
        11: 6.43392746015763530355970484046e-1,
    },
)
# the 8th-order update
_B = {
    1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
    7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
    9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
    11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2,
}
# the 8th-order update less the embedded 5th-order one
_E5 = {
    1: 0.1312004499419488073250102996e-1, 6: -0.1225156446376204440720569753e1,
    7: -0.4957589496572501915214079952, 8: 0.1664377182454986536961530415e1,
    9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
    11: 0.8192320648511571246570742613e-1, 12: -0.2235530786388629525884427845e-1,
}
# the 8th-order update less the embedded 3rd-order one
_E3 = {
    **_B,
    1: _B[1] - 0.244094488188976377952755905512,
    9: _B[9] - 0.733846688281611857341361741547,
    12: _B[12] - 0.220588235294117647058823529412e-1,
}


def _tableau():
    """Rows 0-10: the inputs of stages 2-12 as weights over the stage
    matrix (y, k1, ..., k12); row 11: the update; rows 12-13: the two error
    estimates. The leading column is y's weight and is not scaled by h."""
    w = np.zeros((14, 13), dtype=complex)
    w[:12, 0] = 1.0
    for row, weights in enumerate((*_STAGE_WEIGHTS, _B, _E5, _E3)):
        for stage, weight in weights.items():
            w[row, stage] = weight
    w.flags.writeable = False
    return w


_W = _tableau()


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
    ay = np.abs(y)
    # err_norm = n5 / sqrt((n5 + 0.01 n3) n) / tol, with n5 and n3 the
    # squared norms of the error vectors over 1 + max(|y|, |y_new|)
    norm_scale = 1.0 / (tol * math.sqrt(y.size))
    mean = np.full(y.size, 1.0 / y.size)
    # stage matrix: y, then the stages k1..k12
    k = np.empty((13, y.size), dtype=complex)
    k[0] = y
    k[1] = f0
    # the tableau with its h-scaled columns, rescaled in place every step
    hw = _W.copy()
    hw_scaled = hw[:, 1:]
    w_h = _W[:, 1:]
    # each stage input: a row of hw against the rows of k it weights
    stage_rows = [(hw[i, : i + 2], k[: i + 2], c) for i, c in enumerate(_C)]
    update_row = hw[11]
    err_rows = hw_scaled[12:]
    stages = k[1:]

    times = [t]
    states = [y]
    accepted = 0
    rejected = 0
    err_prev = 1e-4
    span = abs(t1 - t0)
    # no trial yet, so none to accept
    err_norm = math.inf

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
        if err_norm <= 1.0:
            # the last trial was accepted: the derivative at its state is
            # this trial's first stage
            k[0] = y_new
            k[1] = rhs(t, y_new)
            ay = ay_new

        np.multiply(w_h, h, hw_scaled)
        for i, (row, head, c) in enumerate(stage_rows, start=2):
            k[i] = rhs(t + c * h, row.dot(head))
        y_new = update_row.dot(k)
        ay_new = np.abs(y_new)
        scale = 1.0 + np.maximum(ay, ay_new)
        # a non-finite state is rejected; the mean of the scale cannot overflow
        if scale.dot(mean) < math.inf:
            q5, q3 = err_rows.dot(stages) / scale
            # Python floats, which give NaN for inf / inf without a warning
            n5 = float(np.vdot(q5, q5).real)
            n3 = float(np.vdot(q3, q3).real)
            # n5 = 0 would divide 0 by 0 if n3 = 0 too; an infinite n5
            # gives NaN, which is rejected
            err_norm = n5 * norm_scale / math.sqrt(n5 + 0.01 * n3) if n5 else 0.0
        else:
            err_norm = math.inf

        if err_norm <= 1.0:
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
                factor = SAFETY * err_norm ** (-1 / 8)
            else:
                factor = GROWTH_MIN
            h *= min(1.0, max(GROWTH_MIN, factor))

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        accepted_steps=accepted,
        rejected_steps=rejected,
    )
