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
costs interpreter and numpy call overhead, not arithmetic. One loop over
trial steps, ``_drive``, holds the step-size controller, written once; a
trial-step kernel takes each step. Three kernels serve it:

- ``_array_kernel``, for a state of any size and any right-hand side:
  ``ode_evolve`` takes it for every size but 2. It is also the oracle of
  the other two.
- ``_pair_kernel``, for a state of size 2: ``ode_evolve`` takes it for
  the two-level problems (``twostate.evolve_two_state``).
- ``_ramp_kernel``, for the one system y' = -i (diag(E) + x e^{eps t} V) y
  and no right-hand-side callable: ``ramp_evolve`` takes it for the
  N-state problems (``nstate.evolve_nstate``).

The right-hand side at an accepted update is the next trial's first stage,
evaluated when that trial starts.

``_array_kernel`` keeps one stage matrix with y in row 0 and the stages
k1..k12 below it. The tableau ``_W`` has a leading column for y (1 in the
stage and update rows, 0 in the error rows); its other columns are scaled
by ``h`` in place once per step into a persistent buffer, so each stage
input is one ``dot`` of a pre-sliced buffer row against a pre-sliced head
of the stage matrix. One more ``dot`` gives the update and one the two
error vectors.

``_pair_kernel`` writes the same sums out stage by stage on two Python
complex scalars; its only numpy work is filling the array it passes the
right-hand side, and it takes about two thirds of the array kernel's time.

``_ramp_kernel`` keeps, in place of each stage k_j, the product of the
real generator ``[Re V; Im V; diag(E)]`` (no Im V rows for a real V) with
the stage input's (N, 2) float view. The factor -i, h and the ramped
coupling at each stage's time are folded into an expanded tableau, so a
stage is two dots, its input and its product, and no Python call; it
takes about 0.6 of the array kernel's time with the N-state right-hand
side at N = 8 to 64.

The pair and ramp kernels round differently, so their step grids drift
from the array kernel's in the last bits: on the switching problems here
the step counts are equal and the end states agree to within about 1e-14
(pair) and 5e-14 (ramp, N up to 64). The
array and ramp kernels end a trial the same way (``_stage_matrix_update``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, IntegrationError

__all__ = ["Trajectory", "ode_evolve", "ramp_evolve"]

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


def _stage_matrix_update(hw, k, tol):
    """The end of a trial step on a stage matrix: ``update(ay)`` returns the
    update, its moduli and its error norm, from the h-scaled tableau ``hw``
    (rows 11-13: the update and the two error estimates) and the stage
    matrix ``k`` (row 0: y), given the moduli ``ay`` of the base state."""
    size = k.shape[1]
    # err_norm = n5 / sqrt((n5 + 0.01 n3) n) / tol, with n5 and n3 the
    # squared norms of the error vectors over 1 + max(|y|, |y_new|)
    norm_scale = 1.0 / (tol * math.sqrt(size))
    mean = np.full(size, 1.0 / size)
    update_row = hw[11]
    err_rows = hw[12:, 1:]
    stages = k[1:]

    def update(ay):
        y_new = update_row.dot(k)
        ay_new = np.abs(y_new)
        scale = 1.0 + np.maximum(ay, ay_new)
        # a non-finite state is rejected; the mean of the scale cannot overflow
        if not scale.dot(mean) < math.inf:
            return y_new, ay_new, math.inf
        q5, q3 = err_rows.dot(stages) / scale
        # Python floats, which give NaN for inf / inf without a warning
        n5 = float(np.vdot(q5, q5).real)
        n3 = float(np.vdot(q3, q3).real)
        # n5 = 0 would divide 0 by 0 if n3 = 0 too; an infinite n5 gives
        # NaN, which is rejected
        return y_new, ay_new, n5 * norm_scale / math.sqrt(n5 + 0.01 * n3) if n5 else 0.0

    return update


def _array_kernel(rhs, y, f0, tol):
    """The trial step for a state of any size, on the stage matrix.

    Returns ``trial(t, h, advance)``, which takes one trial step of size h
    from the base state at t and returns its update and error norm. With
    ``advance`` true, the last update (which the caller accepted) becomes
    the base state first, and its derivative, this trial's first stage, is
    evaluated then.
    """
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
    update = _stage_matrix_update(hw, k, tol)
    ay = np.abs(y)
    y_new = ay_new = None

    def trial(t, h, advance):
        nonlocal ay, y_new, ay_new
        if advance:
            k[0] = y_new
            k[1] = rhs(t, y_new)
            ay = ay_new
        np.multiply(w_h, h, hw_scaled)
        for i, (row, head, c) in enumerate(stage_rows, start=2):
            k[i] = rhs(t + c * h, row.dot(head))
        y_new, ay_new, err_norm = update(ay)
        return y_new, err_norm

    return trial


def _ramp_kernel(g, factors, x, eps, t, y, tol):
    """The trial step of ``_array_kernel`` for one system,
    y' = -i (diag(E) + x exp(eps t) V) y, with no right-hand-side call.

    ``g`` is the real generator ``[Re V; Im V; diag(E)]`` of m = 3 blocks,
    or ``[Re V; diag(E)]`` (m = 2) for a real V; ``factors`` holds each
    block's factor, -i for Re V and diag(E) and 1 for Im V, so that
    y' = sum over blocks of factor * lam * (block . y), with lam the ramped
    coupling x exp(eps t) on the blocks of V and 1 on diag(E).

    The stage matrix holds y in row 0 and then, per stage j, the m rows of
    the product Z_j = g . Y_j of the generator with the stage input, one
    real ``dot`` on the (N, 2) float view of Y_j written straight into the
    float view of those rows. The tableau is expanded to match: stage j's
    column of ``_W`` becomes m columns, times each block's factor, and per
    step the columns are scaled by h * lam_j on the blocks of V, with
    lam_j = x exp(eps t) exp(eps c_j h) at the stage's time, and by h on
    diag(E). A stage is then two dots: the stage input and its product.

    Returns ``(f0, trial)``: the derivative at (t, y), made from the first
    stage's product, and the trial step (see ``_array_kernel``).
    """
    n = y.size
    m = len(factors)
    # stage matrix: y, then the products Z_1..Z_12, m rows each
    k = np.empty((1 + 12 * m, n), dtype=complex)
    k[0] = y
    y_real = k[0].view(float).reshape(n, 2)
    products = [
        k[1 + m * j : 1 + m * (j + 1)].view(float).reshape(m * n, 2) for j in range(12)
    ]
    first = products[0]
    stage = np.empty(n, dtype=complex)
    stage_real = stage.view(float).reshape(n, 2)
    # the expanded tableau, its h-scaled columns rescaled in place every step
    w_h = (_W[:, 1:, None] * factors).reshape(14, 12 * m)
    hw = np.empty((14, 1 + 12 * m), dtype=complex)
    hw[:, 0] = _W[:, 0]
    hw_scaled = hw[:, 1:]
    # per stage, h * lam_j on the blocks of V and h on diag(E)
    column_scale = np.empty((12, m))
    ramp_scale = column_scale[:, :-1]
    diag_scale = column_scale[:, -1]
    column_scale = column_scale.reshape(12 * m)
    eps_c = eps * np.array((0.0, *_C))
    # each stage input: a row of hw against the rows of k it weights
    stage_rows = [(hw[i, : 1 + m * (i + 1)], k[: 1 + m * (i + 1)], products[i + 1])
                  for i in range(11)]
    update = _stage_matrix_update(hw, k, tol)
    dot = np.dot
    ay = np.abs(y)
    y_new = ay_new = None

    def trial(t, h, advance):
        nonlocal ay, y_new, ay_new
        if advance:
            k[0] = y_new
            dot(g, y_real, first)
            ay = ay_new
        lam = np.exp(eps_c * h)
        lam *= h * x * math.exp(eps * t)
        ramp_scale[...] = lam[:, None]
        diag_scale.fill(h)
        np.multiply(w_h, column_scale, hw_scaled)
        for row, head, product in stage_rows:
            dot(row, head, stage)
            dot(g, stage_real, product)
        y_new, ay_new, err_norm = update(ay)
        return y_new, err_norm

    dot(g, y_real, first)
    return _ramp_factors(factors, x, eps, t).dot(k[1 : 1 + m]), trial


def _as_pair(f):
    """A right-hand side's value as a list of two Python complex scalars."""
    return np.asarray(f, dtype=complex).tolist()


def _moduli(a, c):
    """``(abs(a), abs(c))``, with inf for a modulus past the range of doubles."""
    try:
        return abs(a), abs(c)
    except OverflowError:
        return math.inf, math.inf


def _pair_kernel(rhs, y, f0, tol):
    """The trial step of ``_array_kernel`` for a state of size 2, written
    out stage by stage on the two components as Python complex scalars.

    The weights are the tableau's, unpacked once as complex scalars, so that
    each product is a full complex product, as numpy's complex tableau
    forms it, on every Python version (3.14 changed the rules of mixed
    float-complex products for inf and NaN), and skips the float-to-complex
    dispatch. Each stage's derivative is scaled by h as it arrives, as the
    array kernel's h-scaled tableau scales it, so that no stage sum of large
    derivatives overflows where the scaled one does not. The right-hand
    side is passed one reused array; a tuple it returns is taken as it is,
    anything else through ``_as_pair``. A modulus past the range of doubles
    reads as inf, so its update is rejected as a non-finite one is.
    """
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _C
    # each table's weights in the order of their stages, as typed in
    (
        (w2_1,),
        (w3_1, w3_2),
        (w4_1, w4_3),
        (w5_1, w5_3, w5_4),
        (w6_1, w6_4, w6_5),
        (w7_1, w7_4, w7_5, w7_6),
        (w8_1, w8_4, w8_5, w8_6, w8_7),
        (w9_1, w9_4, w9_5, w9_6, w9_7, w9_8),
        (w10_1, w10_4, w10_5, w10_6, w10_7, w10_8, w10_9),
        (w11_1, w11_4, w11_5, w11_6, w11_7, w11_8, w11_9, w11_10),
        (w12_1, w12_4, w12_5, w12_6, w12_7, w12_8, w12_9, w12_10, w12_11),
        (b1, b6, b7, b8, b9, b10, b11, b12),
        (p1, p6, p7, p8, p9, p10, p11, p12),
        (q1, q6, q7, q8, q9, q10, q11, q12),
    ) = [tuple(map(complex, w.values())) for w in (*_STAGE_WEIGHTS, _B, _E5, _E3)]
    norm_scale = 1.0 / (tol * math.sqrt(2.0))
    inf = math.inf
    buf = np.empty(2, dtype=complex)
    # the base state, its derivative and moduli, and the last update
    ya, yc = y.tolist()
    fa, fc = f0.tolist()
    ma, mc = _moduli(ya, yc)
    na = nc = nma = nmc = None

    def trial(t, dt, advance):
        nonlocal ya, yc, fa, fc, ma, mc, na, nc, nma, nmc
        if advance:
            ya, yc, ma, mc = na, nc, nma, nmc
            buf[0] = ya
            buf[1] = yc
            out = rhs(t, buf)
            fa, fc = out if type(out) is tuple else _as_pair(out)
        # complex, so that it too multiplies as a full complex product
        h = complex(dt)
        k1a = h * fa
        k1c = h * fc
        buf[0] = ya + w2_1 * k1a
        buf[1] = yc + w2_1 * k1c
        out = rhs(t + c2 * dt, buf)
        k2a, k2c = out if type(out) is tuple else _as_pair(out)
        k2a *= h
        k2c *= h
        buf[0] = ya + w3_1 * k1a + w3_2 * k2a
        buf[1] = yc + w3_1 * k1c + w3_2 * k2c
        out = rhs(t + c3 * dt, buf)
        k3a, k3c = out if type(out) is tuple else _as_pair(out)
        k3a *= h
        k3c *= h
        buf[0] = ya + w4_1 * k1a + w4_3 * k3a
        buf[1] = yc + w4_1 * k1c + w4_3 * k3c
        out = rhs(t + c4 * dt, buf)
        k4a, k4c = out if type(out) is tuple else _as_pair(out)
        k4a *= h
        k4c *= h
        buf[0] = ya + w5_1 * k1a + w5_3 * k3a + w5_4 * k4a
        buf[1] = yc + w5_1 * k1c + w5_3 * k3c + w5_4 * k4c
        out = rhs(t + c5 * dt, buf)
        k5a, k5c = out if type(out) is tuple else _as_pair(out)
        k5a *= h
        k5c *= h
        buf[0] = ya + w6_1 * k1a + w6_4 * k4a + w6_5 * k5a
        buf[1] = yc + w6_1 * k1c + w6_4 * k4c + w6_5 * k5c
        out = rhs(t + c6 * dt, buf)
        k6a, k6c = out if type(out) is tuple else _as_pair(out)
        k6a *= h
        k6c *= h
        buf[0] = ya + w7_1 * k1a + w7_4 * k4a + w7_5 * k5a + w7_6 * k6a
        buf[1] = yc + w7_1 * k1c + w7_4 * k4c + w7_5 * k5c + w7_6 * k6c
        out = rhs(t + c7 * dt, buf)
        k7a, k7c = out if type(out) is tuple else _as_pair(out)
        k7a *= h
        k7c *= h
        buf[0] = ya + w8_1 * k1a + w8_4 * k4a + w8_5 * k5a + w8_6 * k6a + w8_7 * k7a
        buf[1] = yc + w8_1 * k1c + w8_4 * k4c + w8_5 * k5c + w8_6 * k6c + w8_7 * k7c
        out = rhs(t + c8 * dt, buf)
        k8a, k8c = out if type(out) is tuple else _as_pair(out)
        k8a *= h
        k8c *= h
        buf[0] = (
            ya + w9_1 * k1a + w9_4 * k4a + w9_5 * k5a + w9_6 * k6a + w9_7 * k7a
            + w9_8 * k8a
        )
        buf[1] = (
            yc + w9_1 * k1c + w9_4 * k4c + w9_5 * k5c + w9_6 * k6c + w9_7 * k7c
            + w9_8 * k8c
        )
        out = rhs(t + c9 * dt, buf)
        k9a, k9c = out if type(out) is tuple else _as_pair(out)
        k9a *= h
        k9c *= h
        buf[0] = (
            ya + w10_1 * k1a + w10_4 * k4a + w10_5 * k5a + w10_6 * k6a + w10_7 * k7a
            + w10_8 * k8a + w10_9 * k9a
        )
        buf[1] = (
            yc + w10_1 * k1c + w10_4 * k4c + w10_5 * k5c + w10_6 * k6c + w10_7 * k7c
            + w10_8 * k8c + w10_9 * k9c
        )
        out = rhs(t + c10 * dt, buf)
        k10a, k10c = out if type(out) is tuple else _as_pair(out)
        k10a *= h
        k10c *= h
        buf[0] = (
            ya + w11_1 * k1a + w11_4 * k4a + w11_5 * k5a + w11_6 * k6a + w11_7 * k7a
            + w11_8 * k8a + w11_9 * k9a + w11_10 * k10a
        )
        buf[1] = (
            yc + w11_1 * k1c + w11_4 * k4c + w11_5 * k5c + w11_6 * k6c + w11_7 * k7c
            + w11_8 * k8c + w11_9 * k9c + w11_10 * k10c
        )
        out = rhs(t + c11 * dt, buf)
        k11a, k11c = out if type(out) is tuple else _as_pair(out)
        k11a *= h
        k11c *= h
        buf[0] = (
            ya + w12_1 * k1a + w12_4 * k4a + w12_5 * k5a + w12_6 * k6a + w12_7 * k7a
            + w12_8 * k8a + w12_9 * k9a + w12_10 * k10a + w12_11 * k11a
        )
        buf[1] = (
            yc + w12_1 * k1c + w12_4 * k4c + w12_5 * k5c + w12_6 * k6c + w12_7 * k7c
            + w12_8 * k8c + w12_9 * k9c + w12_10 * k10c + w12_11 * k11c
        )
        out = rhs(t + c12 * dt, buf)
        k12a, k12c = out if type(out) is tuple else _as_pair(out)
        k12a *= h
        k12c *= h
        na = (
            ya + b1 * k1a + b6 * k6a + b7 * k7a + b8 * k8a + b9 * k9a + b10 * k10a
            + b11 * k11a + b12 * k12a
        )
        nc = (
            yc + b1 * k1c + b6 * k6c + b7 * k7c + b8 * k8c + b9 * k9c + b10 * k10c
            + b11 * k11c + b12 * k12c
        )
        nma, nmc = _moduli(na, nc)
        # a non-finite state is rejected; the sum of two finite moduli can
        # overflow, so each is tested
        if not (nma < inf and nmc < inf):
            return (na, nc), inf
        sa = 1.0 + (nma if nma > ma else ma)
        sc = 1.0 + (nmc if nmc > mc else mc)
        e5a = (
            p1 * k1a + p6 * k6a + p7 * k7a + p8 * k8a + p9 * k9a + p10 * k10a
            + p11 * k11a + p12 * k12a
        ) / sa
        e5c = (
            p1 * k1c + p6 * k6c + p7 * k7c + p8 * k8c + p9 * k9c + p10 * k10c
            + p11 * k11c + p12 * k12c
        ) / sc
        e3a = (
            q1 * k1a + q6 * k6a + q7 * k7a + q8 * k8a + q9 * k9a + q10 * k10a
            + q11 * k11a + q12 * k12a
        ) / sa
        e3c = (
            q1 * k1c + q6 * k6c + q7 * k7c + q8 * k8c + q9 * k9c + q10 * k10c
            + q11 * k11c + q12 * k12c
        ) / sc
        n5 = (
            e5a.real * e5a.real + e5a.imag * e5a.imag
            + e5c.real * e5c.real + e5c.imag * e5c.imag
        )
        n3 = (
            e3a.real * e3a.real + e3a.imag * e3a.imag
            + e3c.real * e3c.real + e3c.imag * e3c.imag
        )
        # as in the array kernel: an infinite n5 gives NaN, which is rejected
        return (na, nc), n5 * norm_scale / math.sqrt(n5 + 0.01 * n3) if n5 else 0.0

    return trial


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

    def start(t, y):
        f0 = np.asarray(rhs(t, y), dtype=complex)
        return f0, (_pair_kernel if y.size == 2 else _array_kernel)(rhs, y, f0, tol)

    return _drive(rhs, start, y0, t0, t1, tol)


def _ramp_factors(factors, x, eps, t):
    """Each generator block's factor at time t: ``factors`` with the ramped
    coupling x exp(eps t) on every block but the last, diag(E)."""
    at_t = factors.copy()
    at_t[:-1] *= x * math.exp(eps * t)
    return at_t


def ramp_evolve(
    energies, v, x: float, eps: float, y0, t0: float, t1: float, tol: float
) -> Trajectory:
    """Integrate the Schrodinger system y' = -i (diag(energies) + x exp(eps t) v) y
    from t0 to t1, as ``ode_evolve`` does with that right-hand side (same
    controller, error norm and failures), on ``_ramp_kernel``, which steps
    it with no Python call per stage. ``v`` may be real or complex; a
    complex one with a nonzero imaginary part adds Im v to the generator.
    A ``DomainError`` if the energies, ``v`` and ``y0`` are not of sizes
    N, N x N and N.
    """
    e = np.asarray(energies, dtype=float)
    v = np.asarray(v)
    if e.ndim != 1 or v.shape != (e.size, e.size) or np.shape(y0) != e.shape:
        raise DomainError(
            f"need N energies, an N x N v and N initial amplitudes, got shapes "
            f"{e.shape}, {v.shape} and {np.shape(y0)}"
        )
    if np.iscomplexobj(v) and v.imag.any():
        g = np.concatenate((v.real, v.imag, np.diag(e)))
        factors = np.array((-1j, 1.0, -1j))
    else:
        g = np.concatenate((v.real, np.diag(e)))
        factors = np.array((-1j, -1j))
    n = e.size

    def rhs(t, y):
        # sizes the first step; the kernel makes every other derivative
        products = np.dot(g, y.view(float).reshape(n, 2)).view(complex)
        return _ramp_factors(factors, x, eps, t).dot(products.reshape(-1, n))

    def start(t, y):
        return _ramp_kernel(g, factors, x, eps, t, y, tol)

    return _drive(rhs, start, y0, t0, t1, tol)


def _drive(rhs, start, y0, t0, t1, tol) -> Trajectory:
    """The step-size controller of ``ode_evolve`` and ``ramp_evolve``.

    ``start(t, y)`` returns the derivative at the start and the trial step
    ``trial(t, h, advance)`` of a kernel; ``rhs`` sizes the first step.
    """
    if not t0 < t1:
        raise DomainError(f"need t0 < t1, got [{t0}, {t1}]")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")

    y = np.atleast_1d(np.asarray(y0, dtype=complex)).copy()
    t = float(t0)
    f0, trial = start(t, y)
    h = _initial_step(rhs, t0, t1, y, f0, tol) if np.all(np.isfinite(f0)) else math.nan
    if not math.isfinite(h):
        raise IntegrationError(
            f"right-hand side or starting step is not finite at t = {t:.12g}", time=t
        )

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
        # after an accepted trial, its update is the next trial's base state
        y_new, err_norm = trial(t, h, err_norm <= 1.0)

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
