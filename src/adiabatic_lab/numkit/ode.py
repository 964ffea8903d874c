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
holds the step-size controller, written once; a trial-step kernel takes
each step, picked by the right-hand side. Both problems of this package
integrate one switched system, y' = -i (diag(E) + x e^{eps t} V) y, given
as a ``Ramp``; three kernels serve ``ode_evolve``:

- ``_two_level_kernel``, for a ``Ramp`` of the two-level shape,
  y' = -i [[0, lam v], [lam v, w]] y with real v and w, as in the
  two-state route (``twostate.evolve_two_state``);
- ``_ramp_kernel``, for any other ``Ramp`` (``nstate.evolve_nstate``, two
  levels included);
- ``_array_kernel``, for any other right-hand side callable and a state of
  any size. It is the oracle of the other two.

The right-hand side at an accepted update is the next trial's first stage,
evaluated when that trial starts.

The switch-on preamble, one for both problems. A ``Ramp`` is of the
two-level shape (``Ramp.two_level``) where it has two levels, the first
at energy 0, and a real V with a zero diagonal and equal off-diagonal
entries v; w is then the second energy. The shape picks the kernel, the
series bound and the step-budget rates below.

- *Where stepping starts* (``Ramp.stepping_start``). Two decades of the
  ramp before the end, t_end - ln(``STEPPED_GROWTH``) / eps, where the
  ramped coupling lam = x exp(eps t) is a hundredth of its value there:
  that leaves the stepped span 99% of every amplitude's growth, which
  goes as the coupling, and 99.99% of the divergent phase, which goes as
  its square. Where that falls before the floor, the coupling
  ``DEEPEST_START`` of the tracked level's smallest gap, and the end is
  after the floor, the start is the floor: deeper in the tail the
  tracked level's rotation holds the step, so at a slow rate two decades
  there can cost more steps than any run may take, and the closed form
  is exact there. Either start moves earlier, to the series bound, the
  largest coupling at which no term of the switch-on tail series can
  exceed 1: lam |v| = sqrt(2 eps |w|) for the two-level shape, whose
  terms fall by lam**2 v**2 / (k eps |w|) every two orders, at most
  (lam**2 v**2 / (2 eps |w|))**k / k! at order 2k (for the two-state
  model, lam = 2 sqrt(delta eps), which at eps = 1e-8 delta is 1e-4 of
  the gap 2 delta), and lam ||V||_2 = eps otherwise. Each time is found
  in log space, where the coupling over the gap cannot underflow; a
  start that is not a finite time, as at a subnormal eps, or that rounds
  to the end, as at |t_end| near 1e300, is refused.
- *Before that, in closed form.* ``Ramp.tail`` sums, as power series in
  the ramped coupling exact to rounding of their size, the solutions
  that tend to each basis state as the coupling switches off in the
  past, each in the frame where its level stands still. The two-state
  route starts from the tracked level's column; the N-state route writes
  its state from the basis start up to where stepping starts as the
  exact mix of all the columns.
- *Whether the run can finish.* ``ode_evolve`` refuses a ``Ramp`` run
  before its first step where an estimate of its step count exceeds
  ``MAX_STEPS``. The count grows with the angle the coupling turns by
  over the stepped span, x ||V||_2 (exp(eps t1) - exp(eps t0)) / eps
  (|v| in place of ||V||_2 for the two-level shape), and with the
  rotation max|E_k| (t1 - t0) of the frame being stepped, which sets
  the count deep in the tail at a slow rate, where the step is held near
  DOP853's stability limit. Measured rates, in steps per radian, for
  tol 1e-4 to 1e-12: for the two-level shape, at least 0.18 tol**-0.125
  on the angle (delta 1, x 0.05 to 2, eps 0.003125 to 0.25, t_end 0 and
  15) and 0.158 to 0.53 on the rotation (delta 1e-3 to 1e3; from two
  decades before the end at eps 1e-2 and 1e-3 times delta, x 1e-4 delta
  and t_end 0, 921 and 9,210 radians; from the floor at eps 1e-8 and
  1e-4 times delta, 1e3 and 1e4 radians); otherwise at least
  0.13 tol**-0.125 on the angle and 0.0095 tol**-0.125 on the rotation
  (N = 3 to 64, ``modelio.generate_nstate_model`` seeds 1 and 7, eps
  0.25 and 0.05, t_end from deep in the tail to 20). The estimate takes
  at most a third of each term's lowest rate,
  0.061 tol**-0.125 angle + 0.052 rotation for the two-level shape and
  tol**-0.125 (0.014 angle + 0.0031 rotation) otherwise, so a run that
  could finish is never refused. Where the coupling x exp(eps t1)
  overflows no estimate is made, and the run fails where it overflows; an
  estimate that overflows where the coupling does not, as at x = 1e308,
  is over the budget.

``_array_kernel`` keeps one stage matrix with y in row 0 and the stages
k1..k12 below it. The tableau ``_W`` has a leading column for y (1 in the
stage and update rows, 0 in the error rows); its other columns are scaled
by ``h`` in place once per step into a persistent buffer, so each stage
input is one ``dot`` of a pre-sliced buffer row against a pre-sliced head
of the stage matrix. One more ``dot`` gives the update and one the two
error vectors.

``_two_level_kernel`` writes the same sums out stage by stage on the four
real parts of the state as Python floats, whose arithmetic the
interpreter specializes (complex arithmetic it does not), and forms each
stage's derivative itself from one ``exp`` and a few products, with no
numpy call and no right-hand-side call per stage.

``_ramp_kernel`` keeps, in place of each stage k_j, the product of the
real generator ``[Re V; Im V; diag(E)]`` (no Im V rows for a real V) with
the stage input's (N, 2) float view. The factor -i, h and the ramped
coupling at each stage's time are folded into an expanded tableau, so a
stage is two dots, its input and its product, and no Python call; it
takes about 0.6 of the array kernel's time with the N-state right-hand
side at N = 8 to 64. Its 23 products per step (eleven stage inputs,
eleven generator products and the first stage after an accepted step)
are calls of bound ``ndarray.dot`` methods, built once per run: at these
sizes ``np.dot``'s array-function dispatch is over a quarter of each
call (``timeit`` at N = 8 with one BLAS thread on a 2-core Xeon, 0.63
against 0.46 us for a stage input and 0.58 against 0.41 us for a
generator product), and the method does the same arithmetic, so states
and step counts are the same bits.

The two-level and ramp kernels round differently from the array kernel,
so their step grids drift from its grid in the last bits: on the
switching problems here the step counts are equal and the end states
agree to within about 1e-14 (two-level) and 5e-14 (ramp, N up to 64).
The array and ramp kernels end a trial the same way
(``_stage_matrix_update``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, IntegrationError

__all__ = ["Ramp", "Trajectory", "ode_evolve"]

SAFETY = 0.9
GROWTH_MIN = 0.2
GROWTH_MAX = 5.0
# PI controller exponents for an 8th-order propagator
PI_ALPHA = 0.7 / 8.0
PI_BETA = 0.4 / 8.0
MAX_STEPS = 5_000_000
# smallest step, relative to the larger of |t| and the span
_H_FLOOR = 8.0 * float(np.finfo(float).eps)
# the start rule (see the module docstring): step while the ramped coupling
# grows by this factor to its value at the end, two decades of the ramp,
# but start no deeper in the tail than where the coupling is this share of
# the tracked level's smallest gap, unless the end itself is deeper
STEPPED_GROWTH = 100.0
DEEPEST_START = 1e-4

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


@dataclass(frozen=True, eq=False)
class Ramp:
    """The switched Schrodinger right-hand side
    y' = -i (diag(energies) + x exp(eps t) v) y, which ``ode_evolve`` steps
    on its own kernels. ``v`` may be real or complex; a complex one with a
    nonzero imaginary part adds Im v to the generator. A ``DomainError``
    unless the energies and ``v`` are of sizes N and N x N.

    ``generator`` is the real generator ``[Re v; Im v; diag(energies)]``
    (no Im v rows for a real v), and ``factors`` holds each block's factor,
    -i for Re v and diag(energies) and 1 for Im v. Called as a right-hand
    side, the ramp returns y' as the sum over blocks of the factor, times
    x exp(eps t) on the blocks of v, times the block's product with y.
    ``two_level`` says whether the ramp has the two-level shape of the
    module docstring.
    """

    energies: np.ndarray
    v: np.ndarray
    x: float
    eps: float
    generator: np.ndarray = field(init=False, repr=False)
    factors: np.ndarray = field(init=False, repr=False)
    two_level: bool = field(init=False, repr=False)

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        v = np.array(self.v)
        if e.ndim != 1 or v.shape != (e.size, e.size):
            raise DomainError(
                f"need N energies and an N x N v, got shapes {e.shape} and {v.shape}"
            )
        if np.iscomplexobj(v) and v.imag.any():
            g = np.concatenate((v.real, v.imag, np.diag(e)))
            factors = np.array((-1j, 1.0, -1j))
        else:
            g = np.concatenate((v.real, np.diag(e)))
            factors = np.array((-1j, -1j))
        two_level = bool(e.size == 2 and e[0] == 0.0 and len(factors) == 2
                         and v[0, 0] == v[1, 1] == 0.0 and v[0, 1] == v[1, 0])
        for array in (e, v, g, factors):
            array.flags.writeable = False
        for name, value in (("energies", e), ("v", v), ("x", float(self.x)),
                            ("eps", float(self.eps)), ("generator", g),
                            ("factors", factors), ("two_level", two_level)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _v_norm(self) -> float:
        """|v| for the two-level shape, the spectral norm ||v||_2 otherwise;
        computed once per ramp."""
        if self.two_level:
            return abs(float(self.v.real[0, 1]))
        return float(np.linalg.norm(self.v, 2))

    def stepping_start(self, t_end: float, tracked: int) -> float:
        """Where a run to ``t_end`` from the switch-on tail of level
        ``tracked`` starts stepping, by the start rule of the module
        docstring; a ``DomainError`` where that is not a finite time, as at
        a subnormal eps, or rounds to ``t_end``."""
        eps, log_x = self.eps, math.log(self.x)
        gaps = np.abs(self.energies - self.energies[tracked])
        gaps[tracked] = math.inf
        floor = (math.log(DEEPEST_START) + math.log(gaps.min()) - log_x) / eps
        t1 = t_end - math.log(STEPPED_GROWTH) / eps
        if t1 < floor < t_end:
            t1 = floor
        # the series bound; v = 0 sets none
        if self._v_norm:
            log_bound = (0.5 * (math.log(2.0 * eps) + math.log(abs(self.energies[1])))
                         if self.two_level else math.log(eps))
            t1 = min(t1, (log_bound - log_x - math.log(self._v_norm)) / eps)
        if math.isinf(t1):
            raise DomainError(f"switching rate eps = {eps:.6g} is too small: the start "
                              "of stepping is not a finite time; raise eps")
        if not t1 < t_end:
            raise DomainError(
                f"end time {t_end:.6g} is so far in the past that a start "
                "ln(100) / eps before it rounds to it; move the end time later"
            )
        return t1

    def tail(self, lam: float, tol: float) -> np.ndarray:
        """The switch-on tail solutions at the time where the ramped
        coupling x exp(eps t) is ``lam``: the N x N matrix S(lam) whose
        column l is level l's tail solution s_l(lam) = sum_k lam**k c_k, in
        the frame where level l stands still, y' = -i (diag(w) + lam v) y
        with w = energies - energies[l]: c_0 is the basis state e_l and
        c_k = -i v c_{k-1} / (k eps + i w). So exp(-i energies[l] t)
        s_l(x exp(eps t)) solves the switched equations and tends to the
        free basis state as the coupling switches off in the past; for a
        Hermitian v, S(lam) is unitary. For two levels, energies (0, 2 delta)
        and v = sigma_x, column 0 is the pair (a, exp(-2i delta t) c) of the
        two-level model.

        |k eps + i w_j| >= k eps, so term k of a column is at most
        (lam ||v|| / eps)**k / k! in norm: the terms past the first grow
        only where lam ||v|| / eps exceeds 1. A ``DomainError`` if an entry
        of one exceeds max(1, 2**53 tol), as their cancellation would then
        leave more than tol in the state. The sum stops after two terms in a
        row whose entries are all below rounding of its largest entry (two,
        as where v couples only levels of opposite parity, as sigma_x does,
        every other term can be far smaller than the next), so it is exact
        to rounding of its size.
        """
        limit = max(1.0, tol * 2.0**53)
        e = self.energies
        n = e.size
        den = 1j * (e[:, None] - e)
        # -i v c is the factor-weighted sum of the generator's v blocks
        # times c, taken by einsum in real arithmetic: a BLAS matrix product
        # of this size may wake BLAS threads, which on a busy machine can
        # cost more than the whole series
        blocks, factors = self.generator[:-n], self.factors[:-1, None, None]
        s = np.eye(n, dtype=complex)
        term = s
        small = 0
        for k in itertools.count(1):
            products = np.einsum("ij,jk->ik", blocks, term.view(float)).view(complex)
            term = lam * (factors * products.reshape(-1, n, n)).sum(0) / (k * self.eps + den)
            size = np.abs(term).max()
            if size > limit:
                raise DomainError(
                    f"the switch-on tail series at coupling {lam:.3g} has a term above "
                    f"{limit:.3g}: its cancellation leaves more than tol = {tol:.3g}; "
                    "raise eps or tol"
                )
            s += term
            small = small + 1 if size <= 2.0**-53 * np.abs(s).max() else 0
            if small == 2:
                return s

    def __call__(self, t, y):
        n = self.energies.size
        products = np.dot(self.generator, y.view(float).reshape(n, 2)).view(complex)
        # the ramped coupling on every block but the last, diag(E)
        factors = self.factors.copy()
        factors[:-1] *= self.x * math.exp(self.eps * t)
        return factors.dot(products.reshape(-1, n))


def _rms(v, scale) -> float:
    """Root mean square of ``|v| / scale``."""
    r = np.abs(v) / scale
    return math.sqrt(r.dot(r) / r.size)


def _initial_step(rhs, t0, t1, y0, f0, tol):
    """Hairer-style starting step estimate; NaN when the scaled size of the
    state overflows, as no step can then be sized.

    Where the scaled size of the derivative, or of its change over the
    probe step, overflows, as for a right-hand side within a few powers of
    1e10 of the top of the doubles, the estimate is made in the time k t
    and divided by k, with k the largest power of two not above the rate
    max |f0| / max(1, max |y0|); a rate of at most 1 leaves the NaN. In
    that time the rate is below 2, and scaling by a power of two is exact.
    Elsewhere the estimate is the plain one, in the time t."""
    span = t1 - t0
    with np.errstate(over="ignore", invalid="ignore"):
        scale = tol + tol * np.abs(y0)
        d0 = _rms(y0, scale)
        d1 = d2 = _rms(f0, scale)
        if d0 + d1 < math.inf:
            h0 = 1e-6 if d1 < 1e-5 or d0 < 1e-5 else 0.01 * d0 / d1
            h0 = min(h0, span)
            f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=complex)
            d2 = _rms(f1 - f0, scale) / h0
    rate = np.abs(f0).max() / max(1.0, np.abs(y0).max())
    k = math.ldexp(1.0, math.frexp(rate)[1] - 1)
    if max(d1, d2) == math.inf and k > 1:
        return _initial_step(
            lambda t, y: np.divide(rhs(t / k, y), k), k * t0, k * t1, y0, f0 / k, tol
        ) / k
    if not d0 + d1 < math.inf:
        return math.nan
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
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
    # the Gram matrix of the scaled error rows, whose diagonal is (n5, n3)
    gram = np.empty((2, 2))

    def update(ay):
        y_new = update_row.dot(k)
        ay_new = np.abs(y_new)
        scale = 1.0 + np.maximum(ay, ay_new)
        # a non-finite state is rejected; the mean of the scale cannot overflow
        if not scale.dot(mean) < math.inf:
            return y_new, ay_new, math.inf
        # the squared norms of complex rows are those of their float views
        q = (err_rows.dot(stages) / scale).view(float)
        q.dot(q.T, gram)
        # Python floats, which give NaN for inf / inf without a warning
        (n5, _), (_, n3) = gram.tolist()
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


def _ramp_kernel(ramp, y, f0, tol):
    """The trial step of ``_array_kernel`` for a ``Ramp``,
    y' = -i (diag(E) + x exp(eps t) V) y, with no right-hand-side call.

    ``g`` and ``factors`` are the ramp's generator, of m = 3 blocks or of
    m = 2 for a real V, and the blocks' factors (see ``Ramp``), so that
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
    Both, and the first stage after an accepted step, are bound
    ``ndarray.dot`` methods of the tableau rows and of ``g``, built once
    per run: ``np.dot`` would pass each of the 23 products of a step
    through numpy's array-function dispatch, over a quarter of a product's
    cost at N = 8, for the same arithmetic.

    Returns the trial step (see ``_array_kernel``); the derivative ``f0`` is
    not read, as the first stage is the product of ``g`` with y.
    """
    g, factors, x, eps = ramp.generator, ramp.factors, ramp.x, ramp.eps
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
    # each stage input: the bound dot of a row of hw, against the rows of k
    # it weights
    stage_rows = [(hw[i, : 1 + m * (i + 1)].dot, k[: 1 + m * (i + 1)], products[i + 1])
                  for i in range(11)]
    update = _stage_matrix_update(hw, k, tol)
    g_dot = g.dot
    ay = np.abs(y)
    y_new = ay_new = None

    def trial(t, h, advance):
        nonlocal ay, y_new, ay_new
        if advance:
            k[0] = y_new
            g_dot(y_real, first)
            ay = ay_new
        lam = np.exp(eps_c * h)
        lam *= h * x * math.exp(eps * t)
        ramp_scale[...] = lam[:, None]
        diag_scale.fill(h)
        np.multiply(w_h, column_scale, hw_scaled)
        for row_dot, head, product in stage_rows:
            row_dot(head, stage)
            g_dot(stage_real, product)
        y_new, ay_new, err_norm = update(ay)
        return y_new, err_norm

    g_dot(y_real, first)
    return trial


def _two_level_kernel(ramp, y, f0, tol):
    """The trial step of ``_array_kernel`` for the two-level shape
    (``Ramp.two_level``), written out stage by stage in real arithmetic on
    the four parts (Re a, Im a, Re c, Im c) of the state, as Python floats.

    Stage j's derivative, scaled by h, is k_a = -i g_j s_c and
    k_c = -i (g_j s_a + h w s_c) on the stage input (s_a, s_c), with
    g_j = h lam_j v. The ramped coupling lam_j v = x v exp(eps t)
    exp(eps c_j h) at the stage's time is formed first and only then scaled
    by h, so that it is inf wherever x v exp(eps t) overflows, however
    small h is: the stages there are not finite, and their update is
    rejected, as the array kernel's is. A modulus past the range of doubles
    reads as inf (``math.hypot``), so its update is rejected as a
    non-finite one is.

    Returns the trial step (see ``_array_kernel``); the derivative ``f0`` is
    not read, as each trial forms its first stage from y.
    """
    # eps times each stage's time as a fraction of the step
    ec2, ec3, ec4, ec5, ec6, ec7, ec8, ec9, ec10, ec11, ec12 = [
        ramp.eps * c for c in _C
    ]
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
    ) = [tuple(w.values()) for w in (*_STAGE_WEIGHTS, _B, _E5, _E3)]
    norm_scale = 1.0 / (tol * math.sqrt(2.0))
    inf = math.inf
    exp = math.exp
    hypot = math.hypot
    xv = ramp.x * float(ramp.v.real[0, 1])
    eps = ramp.eps
    w = float(ramp.energies[1])
    # the base state's parts and moduli, and the last update's
    yar, yai, ycr, yci = y.view(float).tolist()
    ma, mc = hypot(yar, yai), hypot(ycr, yci)
    nar = nai = ncr = nci = nma = nmc = None

    def trial(t, h, advance):
        nonlocal yar, yai, ycr, yci, ma, mc
        nonlocal nar, nai, ncr, nci, nma, nmc
        if advance:
            yar, yai, ycr, yci, ma, mc = nar, nai, ncr, nci, nma, nmc
        lam = xv * exp(eps * t)
        hw = h * w
        g = lam * h
        k1ar, k1ai = g * yci, -g * ycr
        k1cr, k1ci = g * yai + hw * yci, -(g * yar + hw * ycr)
        g = lam * exp(ec2 * h) * h
        sar = yar + w2_1 * k1ar
        sai = yai + w2_1 * k1ai
        scr = ycr + w2_1 * k1cr
        sci = yci + w2_1 * k1ci
        k2ar, k2ai = g * sci, -g * scr
        k2cr, k2ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec3 * h) * h
        sar = yar + w3_1 * k1ar + w3_2 * k2ar
        sai = yai + w3_1 * k1ai + w3_2 * k2ai
        scr = ycr + w3_1 * k1cr + w3_2 * k2cr
        sci = yci + w3_1 * k1ci + w3_2 * k2ci
        k3ar, k3ai = g * sci, -g * scr
        k3cr, k3ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec4 * h) * h
        sar = yar + w4_1 * k1ar + w4_3 * k3ar
        sai = yai + w4_1 * k1ai + w4_3 * k3ai
        scr = ycr + w4_1 * k1cr + w4_3 * k3cr
        sci = yci + w4_1 * k1ci + w4_3 * k3ci
        k4ar, k4ai = g * sci, -g * scr
        k4cr, k4ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec5 * h) * h
        sar = yar + w5_1 * k1ar + w5_3 * k3ar + w5_4 * k4ar
        sai = yai + w5_1 * k1ai + w5_3 * k3ai + w5_4 * k4ai
        scr = ycr + w5_1 * k1cr + w5_3 * k3cr + w5_4 * k4cr
        sci = yci + w5_1 * k1ci + w5_3 * k3ci + w5_4 * k4ci
        k5ar, k5ai = g * sci, -g * scr
        k5cr, k5ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec6 * h) * h
        sar = yar + w6_1 * k1ar + w6_4 * k4ar + w6_5 * k5ar
        sai = yai + w6_1 * k1ai + w6_4 * k4ai + w6_5 * k5ai
        scr = ycr + w6_1 * k1cr + w6_4 * k4cr + w6_5 * k5cr
        sci = yci + w6_1 * k1ci + w6_4 * k4ci + w6_5 * k5ci
        k6ar, k6ai = g * sci, -g * scr
        k6cr, k6ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec7 * h) * h
        sar = yar + w7_1 * k1ar + w7_4 * k4ar + w7_5 * k5ar + w7_6 * k6ar
        sai = yai + w7_1 * k1ai + w7_4 * k4ai + w7_5 * k5ai + w7_6 * k6ai
        scr = ycr + w7_1 * k1cr + w7_4 * k4cr + w7_5 * k5cr + w7_6 * k6cr
        sci = yci + w7_1 * k1ci + w7_4 * k4ci + w7_5 * k5ci + w7_6 * k6ci
        k7ar, k7ai = g * sci, -g * scr
        k7cr, k7ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec8 * h) * h
        sar = yar + w8_1 * k1ar + w8_4 * k4ar + w8_5 * k5ar + w8_6 * k6ar + w8_7 * k7ar
        sai = yai + w8_1 * k1ai + w8_4 * k4ai + w8_5 * k5ai + w8_6 * k6ai + w8_7 * k7ai
        scr = ycr + w8_1 * k1cr + w8_4 * k4cr + w8_5 * k5cr + w8_6 * k6cr + w8_7 * k7cr
        sci = yci + w8_1 * k1ci + w8_4 * k4ci + w8_5 * k5ci + w8_6 * k6ci + w8_7 * k7ci
        k8ar, k8ai = g * sci, -g * scr
        k8cr, k8ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec9 * h) * h
        sar = (yar + w9_1 * k1ar + w9_4 * k4ar + w9_5 * k5ar + w9_6 * k6ar + w9_7 * k7ar
               + w9_8 * k8ar)
        sai = (yai + w9_1 * k1ai + w9_4 * k4ai + w9_5 * k5ai + w9_6 * k6ai + w9_7 * k7ai
               + w9_8 * k8ai)
        scr = (ycr + w9_1 * k1cr + w9_4 * k4cr + w9_5 * k5cr + w9_6 * k6cr + w9_7 * k7cr
               + w9_8 * k8cr)
        sci = (yci + w9_1 * k1ci + w9_4 * k4ci + w9_5 * k5ci + w9_6 * k6ci + w9_7 * k7ci
               + w9_8 * k8ci)
        k9ar, k9ai = g * sci, -g * scr
        k9cr, k9ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec10 * h) * h
        sar = (yar + w10_1 * k1ar + w10_4 * k4ar + w10_5 * k5ar + w10_6 * k6ar
               + w10_7 * k7ar + w10_8 * k8ar + w10_9 * k9ar)
        sai = (yai + w10_1 * k1ai + w10_4 * k4ai + w10_5 * k5ai + w10_6 * k6ai
               + w10_7 * k7ai + w10_8 * k8ai + w10_9 * k9ai)
        scr = (ycr + w10_1 * k1cr + w10_4 * k4cr + w10_5 * k5cr + w10_6 * k6cr
               + w10_7 * k7cr + w10_8 * k8cr + w10_9 * k9cr)
        sci = (yci + w10_1 * k1ci + w10_4 * k4ci + w10_5 * k5ci + w10_6 * k6ci
               + w10_7 * k7ci + w10_8 * k8ci + w10_9 * k9ci)
        k10ar, k10ai = g * sci, -g * scr
        k10cr, k10ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec11 * h) * h
        sar = (yar + w11_1 * k1ar + w11_4 * k4ar + w11_5 * k5ar + w11_6 * k6ar
               + w11_7 * k7ar + w11_8 * k8ar + w11_9 * k9ar + w11_10 * k10ar)
        sai = (yai + w11_1 * k1ai + w11_4 * k4ai + w11_5 * k5ai + w11_6 * k6ai
               + w11_7 * k7ai + w11_8 * k8ai + w11_9 * k9ai + w11_10 * k10ai)
        scr = (ycr + w11_1 * k1cr + w11_4 * k4cr + w11_5 * k5cr + w11_6 * k6cr
               + w11_7 * k7cr + w11_8 * k8cr + w11_9 * k9cr + w11_10 * k10cr)
        sci = (yci + w11_1 * k1ci + w11_4 * k4ci + w11_5 * k5ci + w11_6 * k6ci
               + w11_7 * k7ci + w11_8 * k8ci + w11_9 * k9ci + w11_10 * k10ci)
        k11ar, k11ai = g * sci, -g * scr
        k11cr, k11ci = g * sai + hw * sci, -(g * sar + hw * scr)
        g = lam * exp(ec12 * h) * h
        sar = (yar + w12_1 * k1ar + w12_4 * k4ar + w12_5 * k5ar + w12_6 * k6ar
               + w12_7 * k7ar + w12_8 * k8ar + w12_9 * k9ar + w12_10 * k10ar
               + w12_11 * k11ar)
        sai = (yai + w12_1 * k1ai + w12_4 * k4ai + w12_5 * k5ai + w12_6 * k6ai
               + w12_7 * k7ai + w12_8 * k8ai + w12_9 * k9ai + w12_10 * k10ai
               + w12_11 * k11ai)
        scr = (ycr + w12_1 * k1cr + w12_4 * k4cr + w12_5 * k5cr + w12_6 * k6cr
               + w12_7 * k7cr + w12_8 * k8cr + w12_9 * k9cr + w12_10 * k10cr
               + w12_11 * k11cr)
        sci = (yci + w12_1 * k1ci + w12_4 * k4ci + w12_5 * k5ci + w12_6 * k6ci
               + w12_7 * k7ci + w12_8 * k8ci + w12_9 * k9ci + w12_10 * k10ci
               + w12_11 * k11ci)
        k12ar, k12ai = g * sci, -g * scr
        k12cr, k12ci = g * sai + hw * sci, -(g * sar + hw * scr)
        nar = (yar + b1 * k1ar + b6 * k6ar + b7 * k7ar + b8 * k8ar + b9 * k9ar
               + b10 * k10ar + b11 * k11ar + b12 * k12ar)
        nai = (yai + b1 * k1ai + b6 * k6ai + b7 * k7ai + b8 * k8ai + b9 * k9ai
               + b10 * k10ai + b11 * k11ai + b12 * k12ai)
        ncr = (ycr + b1 * k1cr + b6 * k6cr + b7 * k7cr + b8 * k8cr + b9 * k9cr
               + b10 * k10cr + b11 * k11cr + b12 * k12cr)
        nci = (yci + b1 * k1ci + b6 * k6ci + b7 * k7ci + b8 * k8ci + b9 * k9ci
               + b10 * k10ci + b11 * k11ci + b12 * k12ci)
        update = complex(nar, nai), complex(ncr, nci)
        nma, nmc = hypot(nar, nai), hypot(ncr, nci)
        # a non-finite state is rejected; the sum of two finite moduli can
        # overflow, so each is tested
        if not (nma < inf and nmc < inf):
            return update, inf
        sa = 1.0 + (nma if nma > ma else ma)
        sc = 1.0 + (nmc if nmc > mc else mc)
        e5ar = (p1 * k1ar + p6 * k6ar + p7 * k7ar + p8 * k8ar + p9 * k9ar + p10 * k10ar
                + p11 * k11ar + p12 * k12ar) / sa
        e5ai = (p1 * k1ai + p6 * k6ai + p7 * k7ai + p8 * k8ai + p9 * k9ai + p10 * k10ai
                + p11 * k11ai + p12 * k12ai) / sa
        e5cr = (p1 * k1cr + p6 * k6cr + p7 * k7cr + p8 * k8cr + p9 * k9cr + p10 * k10cr
                + p11 * k11cr + p12 * k12cr) / sc
        e5ci = (p1 * k1ci + p6 * k6ci + p7 * k7ci + p8 * k8ci + p9 * k9ci + p10 * k10ci
                + p11 * k11ci + p12 * k12ci) / sc
        e3ar = (q1 * k1ar + q6 * k6ar + q7 * k7ar + q8 * k8ar + q9 * k9ar + q10 * k10ar
                + q11 * k11ar + q12 * k12ar) / sa
        e3ai = (q1 * k1ai + q6 * k6ai + q7 * k7ai + q8 * k8ai + q9 * k9ai + q10 * k10ai
                + q11 * k11ai + q12 * k12ai) / sa
        e3cr = (q1 * k1cr + q6 * k6cr + q7 * k7cr + q8 * k8cr + q9 * k9cr + q10 * k10cr
                + q11 * k11cr + q12 * k12cr) / sc
        e3ci = (q1 * k1ci + q6 * k6ci + q7 * k7ci + q8 * k8ci + q9 * k9ci + q10 * k10ci
                + q11 * k11ci + q12 * k12ci) / sc
        n5 = e5ar * e5ar + e5ai * e5ai + e5cr * e5cr + e5ci * e5ci
        n3 = e3ar * e3ar + e3ai * e3ai + e3cr * e3cr + e3ci * e3ci
        # as in the array kernel: an infinite n5 gives NaN, which is rejected
        return update, n5 * norm_scale / math.sqrt(n5 + 0.01 * n3) if n5 else 0.0

    return trial


def _step_estimate(ramp, t0, t1, tol) -> float:
    """The up-front estimate of a ``Ramp`` run's step count from t0 to t1,
    by the shape's rates of the module docstring: NaN where the coupling
    x exp(eps t1) overflows, and inf where only the estimate does."""
    eps = ramp.eps
    try:
        end = math.exp(eps * t1)
    except OverflowError:
        return math.nan
    if math.isinf(ramp.x * end):
        return math.nan
    # the growth of exp(eps t) over the span, over eps
    growth = (end - math.exp(eps * t0)) / eps if eps else t1 - t0
    angle = ramp.x * ramp._v_norm * growth
    rotation = float(np.abs(ramp.energies).max()) * (t1 - t0)
    if ramp.two_level:
        return 0.061 * tol**-0.125 * angle + 0.052 * rotation
    return tol**-0.125 * (0.014 * angle + 0.0031 * rotation)


def ode_evolve(rhs, y0, t0: float, t1: float, tol: float) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from t0 to t1, recording every accepted step.

    ``rhs`` is a ``Ramp``, stepped on the two-level kernel where it has the
    two-level shape (``Ramp.two_level``) and on the ramp kernel otherwise,
    or any other callable, stepped on the array kernel. A callable must
    accept a float time and a complex state vector, which it must not
    modify, and return the complex derivative as an array or any sequence
    of complex numbers. The local error is controlled relative to
    ``tol``; for anti-Hermitian generators the state norm drifts by at most
    a small multiple of ``tol`` over moderate spans.

    A ``DomainError`` if ``y0`` does not hold one amplitude per level of a
    ``Ramp``. Raises IntegrationError (naming the time of failure) at t0 if
    ``rhs`` is a ``Ramp`` whose step estimate (see the module docstring)
    exceeds ``MAX_STEPS`` or if ``rhs`` is not finite there, and later if
    the step size underflows, which indicates stiffness or a singularity
    beyond the tolerance budget, or if more than ``MAX_STEPS`` steps are
    taken. A trial step that would stop short of t1 by less than the step
    floor is lengthened to end at t1.
    """
    if not -math.inf < t0 < t1 < math.inf:
        raise DomainError(f"need finite t0 < t1, got [{t0}, {t1}]")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    kernel = _array_kernel
    if isinstance(rhs, Ramp):
        if np.shape(y0) != rhs.energies.shape:
            raise DomainError(
                f"need N initial amplitudes for an N x N ramp, got shape "
                f"{np.shape(y0)} for N = {rhs.energies.size}"
            )
        steps = _step_estimate(rhs, t0, t1, tol)
        if steps > MAX_STEPS:
            raise IntegrationError(
                f"step budget exhausted before the start: about {steps:.3g} steps "
                f"from t = {t0:.6g} to {t1:.6g} exceed the budget of {MAX_STEPS}; "
                "raise tol or move the end earlier",
                time=t0,
            )
        kernel = _two_level_kernel if rhs.two_level else _ramp_kernel

    y = np.atleast_1d(np.asarray(y0, dtype=complex)).copy()
    t = float(t0)
    f0 = np.asarray(rhs(t, y), dtype=complex)
    trial = kernel(rhs, y, f0, tol)
    h = _initial_step(rhs, t0, t1, y, f0, tol) if np.all(np.isfinite(f0)) else math.nan
    if not math.isfinite(h):
        raise IntegrationError(
            f"right-hand side or starting step is not finite at t = {t:.12g}", time=t
        )
    span = abs(t1 - t0)
    # far from t = 0 the estimate can fall to the step floor, which grows
    # with |t|; a start at 100 times the floor leaves the controller room to
    # shrink it
    floor = _H_FLOOR * max(abs(t), span)
    if h <= floor:
        h = min(100 * floor, span)

    times = [t]
    states = [y]
    accepted = 0
    rejected = 0
    err_prev = 1e-4
    # no trial yet: NaN is neither accepted nor rejected
    err_norm = math.nan

    while t < t1:
        h = min(h, t1 - t)
        floor = _H_FLOOR * max(abs(t), span)
        # a trial that would leave less than the floor, which no next trial
        # could step, ends at t1; after a rejected trial it would be that
        # trial again, so the step shrinks toward the floor instead
        if t1 - t - h < floor and not err_norm > 1.0:
            h = t1 - t
        if not h > floor:
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
            # the last step lands on t1 itself, not a rounding away from it
            t = t1 if h == t1 - t else t + h
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
