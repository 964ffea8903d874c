import cmath
import itertools
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from adiabatic_lab import twostate
from adiabatic_lab.errors import DomainError, IntegrationError
from adiabatic_lab.numkit import Ramp, hermitian_eig, jet_mul, jet_recip, ode
from adiabatic_lab.twostate import (
    TwoStateModel,
    bessel_series_a,
    delta_e_closed,
    evolve_two_state,
    exact_eigensystem,
    gtilde_table,
    gtilde_values,
    limit_state,
    phase_series,
    phase_split,
)

# closed-form shift and normalization at delta=1, x=0.5
SHIFT = -0.11803398874989485  # 1 - sqrt(1.25)
NORM = 0.9732489894677302  # 1/sqrt(1 + SHIFT**2/0.25)
# adaptive quadrature of shift(u)/u over [0, 0.5] (scipy.integrate.quad,
# epsabs=1e-14); the live oracle below reproduces it
F_A = -0.06069287469097528

STD = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)


def quad_f_a(delta, x):
    """Independent route to the divergent-phase coefficient:
    integrate shift(u)/u from 0 to x."""
    val, _ = quad(
        lambda u: delta_e_closed(delta, u) / u, 0.0, x, epsabs=1e-14, epsrel=1e-14
    )
    return val


# ---------------------------------------------------------------------------
# model and exact eigensystem


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=0.0, delta=0.0, x=0.5, eps=0.25),
        dict(mu=0.0, delta=1.0, x=0.0, eps=0.25),
        dict(mu=0.0, delta=1.0, x=0.5, eps=0.0),
        dict(mu=0.0, delta=-1.0, x=0.5, eps=0.25),
    ],
)
def test_model_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        TwoStateModel(**kwargs)


def test_exact_eigensystem_closed_forms():
    es = exact_eigensystem(STD)
    assert es.delta_e == pytest.approx(SHIFT, abs=1e-15)
    assert es.e0 == pytest.approx(-1.1180339887498949, abs=1e-15)
    assert es.e1 == pytest.approx(1.1180339887498949, abs=1e-15)
    assert es.norm_n == pytest.approx(NORM, abs=1e-15)
    assert es.delta_e <= 0 and es.e0 < es.e1
    assert np.linalg.norm(es.psi0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(es.psi1) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(es.psi0, es.psi1)) < 1e-12


def test_exact_eigensystem_weak_coupling_limit():
    es = exact_eigensystem(TwoStateModel(mu=0.3, delta=1.0, x=1e-10, eps=0.25))
    np.testing.assert_allclose(es.psi0.real, [1.0, 0.0], atol=1e-9)
    assert es.e0 == pytest.approx(0.3 - 1.0, abs=1e-12)


@pytest.mark.parametrize("mu,delta,x", [(0.0, 1.0, 0.5), (0.7, 2.0, 1.3), (-1.0, 0.5, 2.0)])
def test_exact_eigensystem_against_eigensolver(mu, delta, x):
    m = TwoStateModel(mu=mu, delta=delta, x=x, eps=0.1)
    es = exact_eigensystem(m)
    w, v = hermitian_eig(m.hamiltonian())
    scale = np.linalg.norm(m.hamiltonian())
    np.testing.assert_allclose(w, [es.e0, es.e1], atol=1e-10 * scale)
    for vec, col in ((es.psi0, v[:, 0]), (es.psi1, v[:, 1])):
        assert abs(abs(np.vdot(vec, col)) - 1.0) < 1e-10


def test_exact_eigensystem_over_the_whole_double_range():
    # the ratio delta_e / x is formed in units of a power of two, so norm_n
    # and the eigenvectors keep their digits where delta and x are subnormal
    # or delta_e underflows (x / delta near 1e-300)
    rng = np.random.default_rng(25)
    pairs = [(5e-324, 5e-324), (1e-320, 5e-321), (1e-320, 3e-322), (1.0, 1e-300),
             (1e-10, 1e-310), (1e300, 1e10), (1.7e308, 5e-324)]
    for _ in range(500):
        d = float(2.0 ** rng.uniform(-1074, 1024))
        pairs.append((d, float(min(d * 2.0 ** rng.uniform(-1000, 10), 1.7e308))))
    pairs += [tuple(float(v) for v in 2.0 ** rng.uniform(-1074, 1024, 2)) for _ in range(500)]
    tiny = sys.float_info.min
    with mpmath.workprec(200):
        for d, x in pairs:
            if x == 0.0:
                continue
            es = exact_eigensystem(TwoStateModel(mu=0.0, delta=d, x=x, eps=1.0))
            dm, xm = mpmath.mpf(d), mpmath.mpf(x)
            ratio = -xm / (dm + mpmath.sqrt(dm * dm + xm * xm))
            norm = 1 / mpmath.sqrt(1 + ratio * ratio)
            assert abs(es.norm_n - float(norm)) <= 2 * math.ulp(float(norm)), (d, x)
            exact = [float(norm), float(norm * ratio), float(-norm * ratio), float(norm)]
            got = [es.psi0[0], es.psi0[1], es.psi1[0], es.psi1[1]]
            for g, ref in zip(got, exact):
                assert g.imag == 0.0
                # a subnormal ratio is right to the smallest normal double
                bound = 4 * math.ulp(ref) if abs(ref) >= tiny else tiny
                assert abs(g.real - ref) <= bound, (d, x)


# ---------------------------------------------------------------------------
# recursion coefficients


def test_gtilde_low_order_values():
    g = gtilde_values(0.0, 4)
    np.testing.assert_allclose(g, [-0.5, 0.125, -0.0625, 0.0390625], atol=1e-15)


# coefficient k of the rate r = eps / delta is i**k times coefficient k of
# s = i r, the variable of the real table
RATE = np.array([1, 1j, -1])


def test_gtilde_first_entry_and_slope():
    table = gtilde_table(3) * RATE
    assert abs(table[0, 0] - (-0.5)) < 1e-14
    assert table[0, 1] == pytest.approx(-0.25j, abs=1e-15)  # d/deps of -i/(2i+eps)
    assert np.abs(table[:, 0].imag).max() == 0.0


@pytest.mark.parametrize("order", [1, 2, 3, 50, 200])
def test_gtilde_table_column_k_is_i_to_the_k_times_real(order):
    # the recursion is real in s = i r, so coefficient k of r, which the
    # complex reference builds, is i**k times the real table's coefficient k
    ref = gtilde_table_loop(order)
    assert np.all(ref[:, 0].imag == 0.0)
    assert np.all(ref[:, 1].real == 0.0)
    assert np.all(ref[:, 2].imag == 0.0)
    table = gtilde_table(order)
    assert table.dtype == np.float64
    assert (np.abs(table * RATE - ref) / np.abs(ref)).max() <= 1e-13


def test_gtilde_table_entries_read_only():
    table = gtilde_table(4)
    assert table.shape == (4, 3)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # every table is a prefix of one process-wide store, and no caller can
    # make it writeable and change what later calls see
    gtilde_table(200)
    assert np.shares_memory(gtilde_table(150), gtilde_table(200))
    for order in (1, 150, 200):
        with pytest.raises(ValueError):
            gtilde_table(order).flags.writeable = True


def test_gtilde_table_after_other_orders_is_a_fresh_build(tmp_path):
    # entry n depends on n alone: after longer and shorter tables in this
    # process, order 200 is the same bits as a fresh interpreter's
    for order in (30, 1000, 7):
        gtilde_table(order)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; from adiabatic_lab.twostate import gtilde_table; "
        "sys.stdout.write(gtilde_table(200).tobytes().hex())"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert gtilde_table(200).tobytes().hex() == fresh.stdout


@pytest.mark.parametrize("order", [0, -1])
def test_gtilde_table_checks_order_against_a_long_store(order):
    gtilde_table(1000)
    with pytest.raises(DomainError, match=rf"order must be >= 1, got {order}$"):
        gtilde_table(order)


def test_gtilde_table_values_match_plain_recursion():
    # the jet table's value column against the scalar recursion at the
    # slow-switching limit
    np.testing.assert_allclose(
        gtilde_table(40)[:, 0], gtilde_values(0.0, 40), rtol=1e-13, atol=0
    )


def test_gtilde_slopes_match_finite_differences():
    h = 1e-5
    table = gtilde_table(8) * RATE
    fd = (gtilde_values(h, 8) - gtilde_values(-h, 8)) / (2 * h)
    np.testing.assert_allclose(table[:, 1], fd, atol=1e-8)


def test_gtilde_curvature_matches_finite_differences():
    h = 1e-3
    c2 = (gtilde_table(6) * RATE)[:, 2]
    fd = (gtilde_values(h, 6) - 2 * gtilde_values(0.0, 6) + gtilde_values(-h, 6)) / (
        h * h
    )
    np.testing.assert_allclose(2 * c2, fd, rtol=1e-4, atol=1e-10)


def gtilde_table_loop(order, jet_order=2, at_rate=0.0):
    """Reference table: two general jet products per order, the sum of
    products accumulated in order of m; jets of order ``jet_order`` in the
    rate r around ``at_rate``, where entry n's denominator is
    2i + (2n-1) r."""
    odd = 2 * np.arange(1, order + 1) - 1
    den = np.zeros((order, jet_order + 1), dtype=complex)
    den[:, 0] = 2j + odd * at_rate
    if jet_order:
        den[:, 1] = odd
    recip = jet_recip(den)
    entries = np.empty_like(den)
    entries[0] = -1j * recip[0]
    for n in range(2, order + 1):
        conv = jet_mul(entries[n - 2 :: -1], entries[: n - 1]).sum(axis=0)
        entries[n - 1] = 1j * jet_mul(conv, recip[n - 1])
    return entries


def gtilde_table_mp(order):
    """The jet table in 40-digit arithmetic, on (value, slope, half
    curvature) triples, rounded to doubles at the end."""
    with mpmath.workdps(40):
        r0 = 1 / mpmath.mpc(0, 2)

        def mul(a, b):
            return [
                a[0] * b[0],
                a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
            ]

        # -i / (2i + r) as a jet in r
        entries = [[-1j * r0, 1j * r0 * r0, -1j * r0 * r0 * r0]]
        for n in range(2, order + 1):
            # i / (2i + (2n-1) r) as a jet in r
            q = (2 * n - 1) * r0
            recip = [1j * r0, -1j * r0 * q, 1j * r0 * q * q]
            # the sum over m is symmetric under m -> n - m: twice the half
            # below n / 2, plus the middle product when n is even
            conv = [mpmath.mpc(0)] * 3
            for m in range(1, (n + 1) // 2):
                pair = mul(entries[n - m - 1], entries[m - 1])
                conv = [c + t for c, t in zip(conv, pair)]
            conv = [2 * c for c in conv]
            if n % 2 == 0:
                mid = entries[n // 2 - 1]
                conv = [c + t for c, t in zip(conv, mul(mid, mid))]
            entries.append(mul(conv, recip))
        return np.array([[complex(c) for c in e] for e in entries])


def test_gtilde_table_against_arbitrary_precision_recursion():
    ref = gtilde_table_mp(200)
    got = gtilde_table(200) * RATE
    assert (np.abs(got - ref) / np.abs(ref)).max() <= 5e-14


@settings(derandomize=True, max_examples=60, deadline=None)
@given(order=st.integers(1, 200))
def test_gtilde_table_matches_two_product_loop_property(order):
    ref = gtilde_table_loop(order)
    got = gtilde_table(order) * RATE
    assert (np.abs(got - ref) / np.abs(ref)).max() <= 1e-13
    np.testing.assert_array_equal(gtilde_table(order) * RATE, got)


@pytest.mark.parametrize("rate", [0.0, 0.05])
@pytest.mark.parametrize("jet_order", [0, 1, 2, 4, 8])
@pytest.mark.parametrize("order", [30, 200])
def test_one_recursion_at_any_jet_order_matches_the_complex_jet_reference(
    order, jet_order, rate
):
    # jets in s = i r around i * rate: coefficient k in the rate is i**k
    # times coefficient k in s; real at rate 0, complex otherwise
    rows = twostate._gtilde(order, jet_order, rate)
    assert rows.shape == (order, jet_order + 1)
    assert rows.dtype == (np.float64 if rate == 0.0 else np.complex128)
    assert not rows.flags.writeable
    ref = gtilde_table_loop(order, jet_order, rate)
    error = np.abs(rows * 1j ** np.arange(jet_order + 1) - ref)
    assert (error / np.abs(ref).max(axis=0)).max() <= 1e-13


@pytest.mark.parametrize("order", [1, 30, 200])
def test_table_and_values_are_the_one_recursion(order):
    # the table is the recursion at jet order 2 around 0, and the values are
    # its column 0 at jet order 0 around the rate: real at rate 0, complex
    # otherwise
    np.testing.assert_array_equal(gtilde_table(order), twostate._gtilde(order, 2, 0.0))
    for rate in (0.0, 0.05):
        np.testing.assert_array_equal(gtilde_values(rate, order),
                                      twostate._gtilde(order, 0, rate)[:, 0])
    assert gtilde_values(0.0, order).dtype == np.float64
    assert gtilde_values(0.05, order).dtype == np.complex128


@pytest.mark.parametrize("order", [0, -1])
def test_gtilde_values_refuse_an_order_below_one(order):
    with pytest.raises(DomainError, match=rf"order must be >= 1, got {order}$"):
        gtilde_values(0.05, order)


def test_gtilde_values_match_series_coefficients_of_closed_form():
    # coefficient of (x / delta)**(2n) in (delta - sqrt(delta**2 + x**2)) / delta
    # is -binom(1/2, n), computed in exact rational arithmetic
    g = gtilde_values(0.0, 10).real
    for n in range(1, 11):
        binom = Fraction(1)
        for k in range(n):
            binom *= Fraction(1, 2) - k
        binom /= math.factorial(n)
        assert g[n - 1] == pytest.approx(-float(binom), rel=1e-10)


# ---------------------------------------------------------------------------
# level-shift series


def test_delta_e_closed_values():
    assert delta_e_closed(1.0, 0.0) == 0.0
    assert delta_e_closed(3.0, 4.0) == pytest.approx(-2.0, abs=1e-15)  # 3 - 5
    assert delta_e_closed(1.0, 0.5) == pytest.approx(SHIFT, abs=1e-15)


@pytest.mark.parametrize(
    "d, x", [(1.0, 0.5), (3.0, 4.0), (0.7, 0.01), (2.5, 0.9), (1e-3, 7.0), (0.25, 300.0)]
)
def test_delta_e_closed_commutes_with_powers_of_two(d, x):
    # the closed form runs in units of a power of two, so scaling delta and
    # x by 2**k scales the shift by 2**k, bit for bit, also where x * x in
    # absolute units would overflow (3.0, 4.0 at k = 998) or underflow
    ref = delta_e_closed(d, x)
    for k in range(-1000, 1001, 37):
        scale = math.ldexp(1.0, k)
        assert delta_e_closed(scale * d, scale * x).hex() == (scale * ref).hex(), k


def test_delta_e_closed_over_the_whole_double_range():
    # delta and x log-uniform over every positive finite double, plus pairs
    # where x * x in absolute units overflows (x >> delta), where it is
    # normal but a power of two of delta alone would underflow it (1e100,
    # 1e-75), and where the denominator nears the largest double
    rng = np.random.default_rng(20)
    pairs = [(1e-300, 1.0), (1e-300, 1e10), (1e100, 1e-75), (2.0**1022.9, 2.0),
             (1.7e308, 1.7e308), (5e-324, 1.7e308), (1.7e308, 5e-324)]
    pairs += [tuple(float(v) for v in 2.0 ** rng.uniform(-1074, 1024, 2)) for _ in range(2000)]
    tiny = sys.float_info.min
    with mpmath.workprec(200):
        for d, x in pairs:
            value = delta_e_closed(d, x)
            dm, xm = mpmath.mpf(d), mpmath.mpf(x)
            exact = float(-xm * xm / (dm + mpmath.sqrt(dm * dm + xm * xm)))
            if abs(exact) >= tiny:
                assert abs(value - exact) <= 4 * math.ulp(exact), (d, x)
            else:
                assert abs(value - exact) <= 5e-324, (d, x)
            # where the unscaled form stays among normal doubles it is the
            # same bits
            square, denominator = x * x, d + math.hypot(d, x)
            normal = tiny <= square < math.inf and denominator < math.inf
            if normal and tiny <= square / denominator:
                assert value == -square / denominator, (d, x)


def test_phase_split_partial_sums_converge_to_closed_form():
    # the shift at order n is the series through the 2n-th power of x
    partial = np.array([phase_split(STD, n).delta_e_a for n in range(1, 31)])
    assert partial[-1] == pytest.approx(SHIFT, abs=1e-10)
    errors = np.abs(partial - delta_e_closed(1.0, 0.5))
    above_noise = errors > 1e-13
    assert np.all(np.diff(errors[above_noise]) < 0)  # monotone approach
    assert errors[above_noise].size >= 10
    assert partial[0] == pytest.approx(-0.5**2 / 2, abs=1e-15)  # leading term


def test_phase_split_shift_satisfies_quadratic():
    for delta, x in ((1.0, 0.5), (1.0, 0.8), (2.0, 1.2)):
        m = TwoStateModel(mu=0.0, delta=delta, x=x, eps=0.25)
        value = phase_split(m, 60).delta_e_a
        assert abs(value * value - 2 * delta * value - x * x) <= 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", [0.5, 0.9])
@pytest.mark.parametrize("delta", [0.001, 0.7, 1.3, 100.0])
def test_phase_split_scales_with_delta(delta, ratio):
    # the recursions run in units of delta; every result must come out in
    # absolute units at any delta, far from 1 included
    x = ratio * delta
    m = TwoStateModel(mu=0.0, delta=delta, x=x, eps=0.01 * delta)
    split = phase_split(m, 200)
    ref = delta_e_closed(delta, x)
    assert abs(split.delta_e_a - ref) <= 1e-14 * abs(ref)
    assert abs(math.exp(split.f_b) - exact_eigensystem(m).norm_n) <= 1e-14
    # the balance of the coupling derivatives is in units of delta
    assert split.rate_balance_residual <= 1e-14
    # quad_f_a's absolute tolerance, in units of delta
    f_a, _ = quad(
        lambda s: delta_e_closed(delta, s) / s, 0.0, x, epsabs=1e-14 * delta, epsrel=1e-14
    )
    assert abs(split.f_a - f_a) <= 1e-12 * abs(f_a)
    # the finite-rate phase function is f_a + eps * (i f_b + f_c) + O(eps**3);
    # its real part gives f_c to O((eps / delta)**2), 3.8e-5 relative here
    f = phase_series(m, 0.0, 200).value
    assert abs((f.real - split.f_a) / m.eps - split.f_c) <= 1e-3 * abs(split.f_c)


# ---------------------------------------------------------------------------
# divergent amplitude series


def test_bessel_first_term_closed_form():
    res = bessel_series_a(STD, -0.7)
    x, eps, delta, t = STD.x, STD.eps, STD.delta, -0.7
    expected = -((x * math.exp(eps * t)) ** 2 / eps) / (2 * (eps + 2j * delta))
    assert res.term_magnitudes[0] == pytest.approx(abs(expected), abs=1e-15)


def test_bessel_series_trivial_at_vanishing_coupling():
    m = TwoStateModel(mu=0.0, delta=1.0, x=1e-30, eps=0.25)
    res = bessel_series_a(m, 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-45)
    assert np.all(res.term_magnitudes < 1e-50)


def test_bessel_series_agrees_with_ode():
    traj = evolve_two_state(STD, 0.0, 1e-10)
    res = bessel_series_a(STD, 0.0)
    assert res.converged
    assert abs(res.value - traj.final_state[0]) < 1e-6


def test_bessel_series_overflow_flagged_not_raised():
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=1e-4)
    res = bessel_series_a(m, 0.0)
    assert not res.converged
    # stopped at the first term above 1e250, long before the terms decay
    assert res.term_magnitudes[-1] > 1e250
    assert np.all(res.term_magnitudes[:-1] <= 1e250)


@pytest.mark.filterwarnings("error")
def test_bessel_series_stops_at_a_term_that_is_not_finite():
    # the first term, about 2.2e199, is a float; the product that forms the
    # second overflows, so the sum stops with that one term, not converged
    m = TwoStateModel(mu=0.0, delta=1.0, x=1e100, eps=1.0)
    res = bessel_series_a(m, 0.0)
    assert not res.converged
    z = -0.25 * (m.x / m.eps) ** 2
    first = z / (1 - (0.5 - 1j * m.delta / m.eps))
    assert res.term_magnitudes.size == 1
    assert res.term_magnitudes[0] == pytest.approx(abs(first), rel=1e-15)
    assert res.value == pytest.approx(1.0 + first, rel=1e-15)


def test_bessel_series_cancellation_flagged():
    # the terms reach 2.6e12 before decaying below 1e-12: cancellation
    # leaves about 3e-4 of rounding in a value of order one, so the sum
    # has no trustworthy digits although its last term is tiny
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.002)
    res = bessel_series_a(m, 0.0)
    assert res.term_magnitudes[-1] <= 1e-12
    assert res.max_term > 1e12
    assert not res.converged


def test_bessel_series_ends_by_its_own_rule_without_a_cap():
    # past the peak the term ratio |z| / (k |k - nu|) falls toward 0, so the
    # uncapped sum stops at its target or at a gate: a term above 1e250 or
    # not finite (then the following term, computed here, is above 1e250)
    grid = itertools.product(
        (1e-3, 1.0, 1e3),
        (0.1, 0.5, 0.9, 2.0, 10.0, 100.0, 1000.0),
        (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0),
        (-50.0, 0.0, 5.0),
    )
    for delta, x, eps, t in grid:
        model = TwoStateModel(mu=0.0, delta=delta, x=x, eps=eps)
        s = x * math.exp(eps * t) / eps
        if not math.isfinite(0.25 * s * s):
            # no term can be formed (at eps 100, t 5): refused, not summed
            with pytest.raises(DomainError, match="overflows"):
                bessel_series_a(model, t)
            continue
        res = bessel_series_a(model, t)
        mags = res.term_magnitudes
        assert mags.size <= 2000
        k = mags.size + 1
        last = float(mags[-1]) if mags.size else 1.0
        following = last * (0.25 * s * s) / (k * abs(k - (0.5 - 1j * delta / eps)))
        at_target = mags.size > 0 and last <= 1e-12 * max(1.0, abs(res.value))
        at_gate = not res.converged and max(last, following) > 1e250
        assert at_target or at_gate, (delta, x, eps, t)


def test_bessel_divergence_locality():
    # halving the switching rate doubles the worst term while the ODE
    # amplitude stays bounded
    prev = None
    for eps in (0.5, 0.25, 0.125, 0.0625):
        m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
        worst = bessel_series_a(m, 0.0).term_magnitudes.max()
        if prev is not None:
            assert worst > prev
        prev = worst
        a0 = abs(evolve_two_state(m, 0.0, 1e-10).final_state[0])
        assert a0 <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# phase-function route


def test_phase_f_trivial_at_vanishing_coupling():
    m = TwoStateModel(mu=0.0, delta=1.0, x=1e-30, eps=0.25)
    assert abs(phase_series(m, 0.0, 10).value) < 1e-55


def test_phase_f_matches_bessel_series():
    a_rec = cmath.exp(-1j * phase_series(STD, 0.0, 30).value / STD.eps)
    res = bessel_series_a(STD, 0.0)
    assert abs(a_rec - res.value) < 1e-6


def test_phase_f_reconstruction_satisfies_amplitude_ode():
    # a'' + (2i*delta - eps) a' + x^2 e^{2 eps t} a = 0 under central differences
    h = 1e-4
    t = -0.4

    def a_of(tt):
        return cmath.exp(-1j * phase_series(STD, tt, 30).value / STD.eps)

    a_m, a_0, a_p = a_of(t - h), a_of(t), a_of(t + h)
    d1 = (a_p - a_m) / (2 * h)
    d2 = (a_p - 2 * a_0 + a_m) / (h * h)
    residual = d2 + (2j * STD.delta - STD.eps) * d1 + (
        STD.x**2 * math.exp(2 * STD.eps * t)
    ) * a_0
    assert abs(residual) < 1e-6


def test_three_way_agreement_grid():
    for x in (0.25, 0.5):
        for eps in (0.1, 0.25, 0.5):
            m = TwoStateModel(mu=0.0, delta=1.0, x=x, eps=eps)
            for t in (-2.0, -1.0, 0.0):
                a_ode = evolve_two_state(m, t, 1e-10).final_state[0]
                a_ser = bessel_series_a(m, t).value
                a_rec = cmath.exp(-1j * phase_series(m, t, 60).value / eps)
                assert abs(a_ode - a_ser) < 1e-6
                assert abs(a_ode - a_rec) < 1e-6
                assert abs(a_ser - a_rec) < 1e-6


# ---------------------------------------------------------------------------
# phase split


def test_phase_split_divergent_coefficient_against_quadrature():
    split = phase_split(STD, 30)
    assert split.f_a == pytest.approx(F_A, abs=1e-12)
    assert split.f_a == pytest.approx(quad_f_a(1.0, 0.5), abs=1e-10)


def test_phase_split_log_magnitude_matches_normalization():
    split = phase_split(STD, 30)
    assert math.exp(split.f_b) == pytest.approx(NORM, abs=1e-10)
    assert 0.0 < math.exp(split.f_b) <= 1.0
    assert split.delta_e_a == pytest.approx(SHIFT, abs=1e-10)


def test_phase_split_small_coupling_log_magnitude():
    # leading behavior -x**2/(8 delta**2)
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.01, eps=0.25)
    split = phase_split(m, 10)
    assert split.f_b == pytest.approx(-(0.01**2) / 8.0, rel=1e-3)


def test_phase_split_reality_residues():
    for x in (0.1, 0.3, 0.5, 0.7):
        split = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 40)
        assert split.max_imag_residue <= 1e-10


@pytest.mark.parametrize("x", [0.3009117289037436, 0.5582751372901797, 0.8653245874281548])
def test_phase_split_reality_residue_vanishes_at_order_200(x):
    # the high-order-phase benchmark's seed-1 couplings at delta 1
    split = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 200)
    assert split.max_imag_residue == 0.0


def test_phase_split_sums_are_correctly_rounded():
    # the shift, log-magnitude and divergent coefficient at order 200, where
    # truncation is far below an ulp, against 40-digit values: the closed
    # form, the log of the closed-form norm, and a quadrature of shift(u)/u
    xs = np.random.default_rng(23).uniform(0.2, 0.9, 60)
    worst = [0.0, 0.0, 0.0]
    with mpmath.workdps(40):
        for x in xs:
            m = TwoStateModel(mu=0.0, delta=1.0, x=float(x), eps=0.25)
            split = phase_split(m, 200)
            xm = mpmath.mpf(float(x))
            shift = 1 - mpmath.sqrt(1 + xm * xm)
            refs = (
                shift,
                -mpmath.log(1 + (shift / xm) ** 2) / 2,
                mpmath.quad(lambda u: (1 - mpmath.sqrt(1 + u * u)) / u, [0, xm]),
            )
            got = (split.delta_e_a, split.f_b, split.f_a)
            for i, (g, ref) in enumerate(zip(got, refs)):
                ulps = float(abs(g - ref)) / math.ulp(float(ref))
                worst[i] = max(worst[i], ulps)
    assert max(worst) <= 3.0, worst


def test_phase_split_converged_means_the_shift_is_right():
    # wherever the tail bound passes, the shift is within 1e-12 of the
    # closed form, rounding aside; the bound passes on most of the grid,
    # for every x from 0.2 to 0.9 at order 200, and not at x 0.95 and
    # order 30, where the shift is off by 3.7e-5
    verdicts = {}
    for x in [*np.linspace(0.01, 0.99, 50).tolist(), 0.95]:
        for order in (5, 10, 30, 60, 200):
            split = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), order)
            shift = delta_e_closed(1.0, x)
            if split.converged:
                assert abs(split.delta_e_a - shift) <= 2e-12 * abs(shift)
            verdicts[x, order] = split.converged
    assert verdicts[0.95, 30] is False
    assert all(verdicts[x, 200] for x, _ in verdicts if 0.2 <= x <= 0.9)
    assert 0.5 < np.mean(list(verdicts.values())) < 1.0


def test_phase_split_remainder_scales_linearly_with_rate():
    split_1 = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.2), 30)
    split_2 = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.1), 30)
    assert split_2.f_c != 0.0
    ratio = split_1.f_c / split_2.f_c
    assert 1.0 < ratio < 4.0  # linear within a factor of 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: delta_e_closed(0.0, 0.5), "delta must be > 0, got 0.0"),
        (lambda: delta_e_closed(1.0, -1.0), "x must be >= 0, got -1.0"),
        # (x / eps)**2 overflows before any term can be formed
        (lambda: bessel_series_a(TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=1e-160),
                                 0.0),
         "(x * exp(eps * t) / eps)**2 overflows at t = 0; raise eps or move t earlier"),
    ],
    ids=["closed-delta-zero", "closed-x-negative", "bessel-argument-overflow"],
)
def test_refusals(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_phase_split_domain():
    with pytest.raises(DomainError):
        phase_split(TwoStateModel(mu=0.0, delta=1.0, x=1.5, eps=0.25), 10)


# ---------------------------------------------------------------------------
# normalization identity


def test_fb_identity_on_grid():
    for x in (0.1, 0.3, 0.5, 0.7):
        res = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 40)
        assert res.normalization_residual <= 1e-8
        assert res.shift_quadratic_residual <= 1e-9
        assert res.rate_balance_residual <= 1e-6


def test_rate_balance_from_exact_derivatives():
    # the coupling derivatives are exact, so at order 200 only rounding is left
    for x in (0.1, 0.3, 0.5, 0.7):
        res = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 200)
        assert res.rate_balance_residual <= 1e-14


@pytest.mark.parametrize(
    "x", [0.5, 0.3009117289037436, 0.5582751372901797, 0.8653245874281548]
)
def test_split_residuals_commute_with_powers_of_two(x):
    # the residuals are in units of delta: scaling delta, x and eps by 2**k
    # leaves them the same bits
    ref = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 60)
    for k in range(-1000, 1001, 37):
        scale = math.ldexp(1.0, k)
        m = TwoStateModel(mu=0.0, delta=scale, x=scale * x, eps=scale * 0.25)
        split = phase_split(m, 60)
        for name in ("normalization_residual", "shift_quadratic_residual",
                     "rate_balance_residual"):
            assert getattr(split, name) == getattr(ref, name), (k, name)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "delta, x",
    [(1e300, 5e299), (1e-300, 5e-301), (2.0, 5e-324), (1e300, 1e-30)],
    ids=["huge", "tiny", "ratio-underflows", "ratio-underflows-at-huge-delta"],
)
def test_split_residuals_far_from_unit_delta(delta, x):
    # in absolute units the quadratic overflows at 1e300 and the balance
    # underflows at 1e-300; where x / delta underflows to 0 the split is
    # the x = 0 one
    split = phase_split(TwoStateModel(mu=0.0, delta=delta, x=x, eps=0.25), 60)
    assert 0.0 <= split.shift_quadratic_residual <= 1e-16
    assert 0.0 <= split.rate_balance_residual <= 1e-16


def test_fb_identity_weak_coupling():
    res = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=1e-6, eps=0.25), 10)
    assert math.exp(res.f_b) == pytest.approx(1.0, abs=1e-11)
    assert res.norm_n == pytest.approx(1.0, abs=1e-11)


def test_fb_identity_rejects_outside_radius():
    with pytest.raises(DomainError):
        phase_split(TwoStateModel(mu=0.0, delta=3.0, x=4.0, eps=0.25), 10)


def test_normalization_identity_across_grid():
    for x in (0.1, 0.3, 0.5, 0.7):
        split = phase_split(TwoStateModel(mu=0.0, delta=1.0, x=x, eps=0.25), 40)
        de = delta_e_closed(1.0, x)
        assert math.exp(split.f_b) * math.sqrt(1 + (de / x) ** 2) == pytest.approx(
            1.0, abs=1e-8
        )


# ---------------------------------------------------------------------------
# ODE evolution


def test_evolve_zero_generator_keeps_initial_state():
    # the x = 0 limit of the interaction-picture pair: frozen state
    from adiabatic_lab.numkit import ode_evolve

    rhs = lambda t, y: 0.0 * y
    traj = ode_evolve(rhs, np.array([1.0, 0.0], dtype=complex), -40.0, 0.0, 1e-10)
    np.testing.assert_allclose(traj.states, [[1.0, 0.0]] * traj.times.size)


def test_evolve_weak_coupling_stays_near_initial_state():
    m = TwoStateModel(mu=0.0, delta=1.0, x=1e-3, eps=0.25)
    traj = evolve_two_state(m, 0.0, 1e-10)
    assert abs(traj.final_state[0] - 1.0) < 1e-5  # depletion is O(x**2)
    assert abs(traj.final_state[1]) < 1e-3  # excitation is O(x)


def test_evolve_unitarity_throughout():
    traj = evolve_two_state(STD, 0.0, 1e-10)
    assert np.abs(traj.norms() - 1.0).max() <= 1e-8


def test_evolve_start_threshold_validation():
    # a run to a t_end whose coupling is below the start threshold starts
    # ln(100) / eps before it, where the coupling is 1e-2 of that at t_end
    traj = evolve_two_state(STD, -1e9, 1e-10)
    assert traj.times[0] == -1e9 - math.log(100.0) / STD.eps
    assert np.abs(traj.final_state - (1.0, 0.0)).max() <= 1e-12
    # so far from 0 that the start rounds to t_end itself, no run can start
    with pytest.raises(DomainError, match="so far in the past that a start"):
        evolve_two_state(STD, -1e300, 1e-10)


def test_evolve_rejects_ramp_overflow():
    # x * exp(eps * t_end) is not a float: math.exp overflows at 3000 * 0.25
    with pytest.raises(DomainError, match="overflows"):
        evolve_two_state(STD, 3000.0, 1e-10)


def test_phase_f_rejects_ramp_overflow():
    with pytest.raises(DomainError, match="overflows at t = 3000"):
        phase_series(STD, 3000.0)


def test_phase_f_rejects_ramp_square_overflow():
    # x * exp(eps * t) is about 1e163 here, a float; its square is not
    with pytest.raises(DomainError, match="squared .* overflows at t = 1500"):
        phase_series(STD, 1500.0)


@pytest.mark.filterwarnings("error")
def test_phase_f_rejects_overflowing_powers():
    # the squared ramp, about 3.5e216 here, is a float; its powers are not
    with pytest.raises(DomainError, match="f is not finite at t = 1000: .* order-30"):
        phase_series(STD, 1000.0)


def test_phase_series_converged_inside_its_reach():
    result = phase_series(STD, 0.0)
    assert result.converged is True


def test_phase_series_not_converged_past_its_reach():
    # the terms grow as (x / delta)**(2n) for x above the radius delta
    result = phase_series(TwoStateModel(mu=0.0, delta=1.0, x=1.5, eps=0.0625), 0.0)
    assert math.isfinite(abs(result.value))
    assert result.converged is False


def test_phase_series_convergence_needs_a_second_term():
    # one term shows no decay; a coupling switched off to 0 leaves no tail
    assert phase_series(STD, 0.0, 1).converged is False
    assert phase_series(STD, -5000.0).converged is True


@pytest.mark.parametrize(
    "eps, accepted", [(0.2, 96), (0.05, 291), (0.0125, 831), (0.003125, 2388)]
)
def test_evolve_step_counts_pinned(monkeypatch, eps, accepted):
    # the step-size controller's decisions, fixed on this grid; a budget of
    # four times the steps makes a wrong weight, whose error estimate
    # shrinks the step without end, fail fast
    monkeypatch.setattr(ode, "MAX_STEPS", 4 * accepted)
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    traj = evolve_two_state(m, 0.0, 1e-10)
    assert (traj.accepted_steps, traj.rejected_steps) == (accepted, 0)


def test_evolve_right_hand_side_calls_pinned(monkeypatch):
    # the counting wrapper hides the Ramp, so this pins the fallback that a
    # traced run takes: a wrapped Ramp steps the array kernel, with the
    # two-level kernel's steps, one call at the start, one to size the first
    # step, eleven per trial step and one per accepted step but the last
    # (first same as last)
    monkeypatch.setattr(ode, "MAX_STEPS", 4 * 96)
    calls = []

    def counting(rhs, *args):
        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        return ode.ode_evolve(counted, *args)

    monkeypatch.setattr(twostate, "ode_evolve", counting)
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.2)
    traj = evolve_two_state(m, 0.0, 1e-10)
    assert (traj.accepted_steps, traj.rejected_steps, len(calls)) == (96, 0, 1153)
    assert len(calls) == 1 + 12 * traj.accepted_steps + 11 * traj.rejected_steps


def test_evolve_final_amplitude_pinned():
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.05)
    a0 = complex(evolve_two_state(m, 0.0, 1e-10).final_state[0])
    ref = 0.340483320151229 + 0.9117481711828233j
    assert abs(a0 - ref) <= 1e-12 * abs(ref)


def test_evolve_amplitude_converges_to_normalization():
    errors = []
    for eps in (0.2, 0.1, 0.05):
        m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
        a0 = abs(evolve_two_state(m, 0.0, 1e-10).final_state[0])
        errors.append(abs(a0 - NORM))
    assert errors[0] > errors[1] > errors[2]


def test_evolve_component_ratio_approaches_eigenvector():
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.05)
    final = evolve_two_state(m, 0.0, 1e-10).final_state
    assert abs(final[1] / final[0]) == pytest.approx(abs(SHIFT) / 0.5, rel=1e-2)


@pytest.mark.parametrize("eps", [0.25, 0.1])
def test_evolve_step_estimate_stays_below_the_step_count(monkeypatch, eps):
    # the up-front estimate of the step budget check against the steps
    # taken, at the point where its rate was measured
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for t_end in (0.0, 15.0):
            traj = evolve_two_state(m, t_end, tol)
            steps = traj.accepted_steps + traj.rejected_steps
            monkeypatch.setattr(ode, "MAX_STEPS", 0)
            with pytest.raises(IntegrationError, match="before the start") as info:
                evolve_two_state(m, t_end, tol)
            estimate = float(re.search(r"about (\S+) steps", str(info.value))[1])
            assert 0 < estimate < steps
            # a budget the run fits is not refused
            monkeypatch.setattr(ode, "MAX_STEPS", steps)
            assert evolve_two_state(m, t_end, tol).accepted_steps == traj.accepted_steps
            monkeypatch.undo()


@pytest.mark.parametrize("tol", [1e-4, 1e-12])
def test_evolve_step_estimate_counts_the_tracked_level_rotation(monkeypatch, tol):
    # deep in the tail at a slow rate the tracked level's rotation
    # 2 delta (t_end - t0) sets the steps, about 0.16 per radian or more.
    # An end past the coupling 1e-4 of the gap 2 delta, t0, steps from t0:
    # t0 + 1e8 would take about 3.4e7 and is refused before the start;
    # t0 + 1e4 takes about 3,400. An end before t0 steps two decades of
    # the ramp, at eps 1e-3 and t_end 0 9,210 radians: about 1,550 steps
    # at tol 1e-4 and 2,470 at 1e-12. Each estimate stays below the count
    m = TwoStateModel(mu=0.0, delta=1.0, x=1e-4, eps=1e-8)
    # where the coupling is 1e-4 of the gap 2 delta
    t0 = math.log(2e-4 / m.x) / m.eps
    started = time.perf_counter()
    with pytest.raises(IntegrationError, match="before the start") as info:
        evolve_two_state(m, t0 + 1e8, tol)
    assert time.perf_counter() - started < 1.0
    assert info.value.time == pytest.approx(t0, rel=1e-13)
    for m, t_end in ((m, t0 + 1e4), (TwoStateModel(mu=0.0, delta=1.0, x=1e-4, eps=1e-3), 0.0)):
        traj = evolve_two_state(m, t_end, tol)
        steps = traj.accepted_steps + traj.rejected_steps
        monkeypatch.setattr(ode, "MAX_STEPS", 0)
        with pytest.raises(IntegrationError, match="before the start") as info:
            evolve_two_state(m, t_end, tol)
        monkeypatch.undo()
        estimate = float(re.search(r"about (\S+) steps", str(info.value))[1])
        assert steps / 6 <= estimate < steps


@pytest.mark.parametrize("t_end", [1e-17, 1e-15, 3e-15, 1e-14])
def test_evolve_ends_just_past_zero(t_end):
    # the last accepted step before the end stopped short of it by less
    # than the step floor, and the next trial underflowed; such a trial now
    # ends at t_end itself
    traj = evolve_two_state(STD, t_end, 1e-10)
    assert traj.times[-1] == t_end
    assert abs(traj.final_state[0] - evolve_two_state(STD, 0.0, 1e-10).final_state[0]) <= 1e-12


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_evolve_far_from_zero_starts_above_the_step_floor(tol):
    # t0 is about 6.9e10, where the step floor is 8 eps_machine |t0| =
    # 1.2e-4; at these tolerances the starting-step estimate is 1e-4, below
    # the floor. Tighter ones, 1e-8 to 1e-12, finish in 340 to 349 steps
    m = TwoStateModel(mu=0.0, delta=1e-3, x=1e-7, eps=1e-11)
    t0 = math.log(2e-4 * m.delta / m.x) / m.eps
    traj = evolve_two_state(m, t0 + 1e6, tol)
    assert traj.accepted_steps < 400
    assert abs(traj.norms()[-1] - 1.0) <= 100 * tol


@pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [1e-4, 0.5, 10.0])
@pytest.mark.parametrize("rate", [1e-8, 1e-4, 1e-2, 1.0])
def test_evolve_starts_at_two_decades_the_floor_or_the_series_bound(
    monkeypatch, rate, ratio, delta
):
    # over a grid of gaps, couplings, rates from 1e-8 delta to delta and
    # ends, one of them less than two decades past the floor (the coupling
    # 1e-4 of the gap): stepping starts two decades of the ramp before the
    # end, or at the floor where that is before the floor and the end after
    # it, and no later than where the coupling is 2 sqrt(delta eps). No term
    # of the tail series there exceeds 1 but by rounding: the start is
    # found in log space, which moves the coupling there by up to |eps t0|
    # ulps, and a tail summed with tol (1 + 1e-12) 2**-53 refuses a term
    # above 1 + 1e-12
    m = TwoStateModel(mu=0.0, delta=delta, x=ratio * delta, eps=rate * delta)
    monkeypatch.setattr(ode, "MAX_STEPS", math.inf)
    ramp = Ramp((0.0, 2.0 * delta), [[0.0, 1.0], [1.0, 0.0]], m.x, m.eps)
    bound = math.log(2.0 * math.sqrt(delta * m.eps) / m.x) / m.eps
    floor = math.log(2e-4 * delta / m.x) / m.eps
    in_band = math.log(2e-3 * delta / m.x) / m.eps
    for t_end in (-20.0 / m.eps, 0.0, 5.0 / m.eps, in_band):
        two_decades = t_end - math.log(100.0) / m.eps
        expected = floor if two_decades < floor < t_end else two_decades
        if t_end == in_band:
            assert expected == floor
        t0, _ = _ode_start(monkeypatch, m, t_end)
        monkeypatch.setattr(ode, "MAX_STEPS", math.inf)
        assert t0 == pytest.approx(min(expected, bound), rel=1e-13)
        ramp.tail(twostate.ramped_coupling(m.x, m.eps, t0), (1 + 1e-12) * 2.0**-53)


def _tracked_pair(m, lam):
    """The pair (a, exp(-2i delta t) c) where the ramped coupling is the
    mpmath number lam, at mpmath's working precision: a = 0F1(; 1 - nu; z),
    with nu = 1/2 - i delta / eps and z = -(lam / eps)**2 / 4, and the
    second component a' / (-i lam), with a' = 2 eps z 0F1(; 2 - nu; z) /
    (1 - nu)."""
    nu = mpmath.mpf(0.5) - 1j * mpmath.mpf(m.delta) / m.eps
    z = -((lam / m.eps) ** 2) / 4
    a = mpmath.hyp0f1(1 - nu, z)
    da = 2 * m.eps * z * mpmath.hyp0f1(2 - nu, z) / (1 - nu)
    return a, da / (-1j * lam)


def state_oracle(m, t):
    """The interaction-picture pair (a, c) at time t in 40-digit arithmetic,
    c = exp(2i delta t) times the tracked pair's second component, at
    lam = x exp(eps t)."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(m.x) * mpmath.exp(mpmath.mpf(m.eps) * t)
        a, c = _tracked_pair(m, lam)
        return complex(a), complex(c * mpmath.exp(2j * mpmath.mpf(m.delta) * t))


def a0_oracle(m):
    """a(0) from ``state_oracle``."""
    return state_oracle(m, 0)[0]


@pytest.mark.parametrize("eps", [0.25, 0.05, 0.0125])
def test_evolve_matches_arbitrary_precision_oracle(eps):
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    ref = a0_oracle(m)
    a0 = complex(evolve_two_state(m, 0.0, 1e-10).final_state[0])
    assert abs(a0 - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("t", [-2.0, 0.0, 3.0])
@pytest.mark.parametrize("eps", [0.2, 0.05, 0.0125, 0.003125])
def test_evolve_state_matches_arbitrary_precision_oracle(eps, t):
    # both components, within 1e-11 of the state: the switch-on start is
    # exact to rounding and the integration misses by well under tol
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    state = evolve_two_state(m, t, 1e-10).final_state
    assert np.abs(state - state_oracle(m, t)).max() <= 1e-11


class _Started(Exception):
    pass


def _ode_start(monkeypatch, m, t_end, tol=1e-10):
    """The time and state that ``evolve_two_state`` hands ``ode_evolve``,
    which is stopped there."""
    starts = []

    def started(ramp, y0, t0, *rest):
        starts.append((t0, y0))
        raise _Started

    monkeypatch.setattr(twostate, "ode_evolve", started)
    with pytest.raises(_Started):
        evolve_two_state(m, t_end, tol)
    monkeypatch.undo()
    ((t0, y0),) = starts
    return t0, y0


def _assert_tracked_pair(m, t0, y0):
    """Each component of ``y0`` within 4 ulps of the 40-digit pair at the
    coupling the integrator sees at ``t0``."""
    lam = twostate.ramped_coupling(m.x, m.eps, t0)
    with mpmath.workdps(40):
        ref = [complex(z) for z in _tracked_pair(m, mpmath.mpf(lam))]
    for got, want in zip(y0, ref):
        assert abs(got - want) <= 4 * math.ulp(abs(want))


@pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("eps", [1.0, 0.2, 0.003125])
def test_evolve_starts_from_the_exact_switch_on_state(monkeypatch, eps, ratio, delta):
    # the state the integrator is handed at t0, where the coupling is 1e-4
    # of the gap, for an end just after it, against the 40-digit pair at
    # the coupling it sees there: each component within 4 ulps
    m = TwoStateModel(mu=0.0, delta=delta, x=ratio * delta, eps=eps)
    t0, y0 = _ode_start(monkeypatch, m, math.log(2e-4 * delta / m.x) / eps + 1.0)
    assert twostate.ramped_coupling(m.x, eps, t0) == pytest.approx(2e-4 * delta, rel=1e-13)
    _assert_tracked_pair(m, t0, y0)


@pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("eps", [1.0, 0.2, 0.003125])
def test_evolve_starts_two_decades_before_an_early_end_from_the_exact_state(
    monkeypatch, eps, delta
):
    # an end where the coupling is 1e-5 of the gap, before the floor:
    # stepping starts two decades of the ramp before it, from the exact
    # state there
    m = TwoStateModel(mu=0.0, delta=delta, x=delta, eps=eps)
    t_end = math.log(2e-5 * delta / m.x) / eps
    t0, y0 = _ode_start(monkeypatch, m, t_end)
    assert t0 == t_end - math.log(100.0) / eps
    _assert_tracked_pair(m, t0, y0)


@pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("eps", [1.0, 0.2, 0.003125])
def test_evolve_starts_at_the_series_bound_from_the_exact_state(monkeypatch, eps, delta):
    # an end where the coupling is 1e4 times 2 sqrt(delta eps): stepping
    # starts earlier than two decades before it, where the coupling is
    # 2 sqrt(delta eps), from the exact state there
    m = TwoStateModel(mu=0.0, delta=delta, x=delta, eps=eps)
    bound = 2.0 * math.sqrt(delta * eps)
    t_end = math.log(1e4 * bound / m.x) / eps
    # the run is stopped at its start, so no step budget applies
    monkeypatch.setattr(ode, "MAX_STEPS", math.inf)
    t0, y0 = _ode_start(monkeypatch, m, t_end)
    assert t0 < t_end - math.log(100.0) / eps
    assert twostate.ramped_coupling(m.x, eps, t0) == pytest.approx(bound, rel=1e-12)
    _assert_tracked_pair(m, t0, y0)
    # column 0 of the tail matrix, bit for bit
    ramp = Ramp((0.0, 2.0 * delta), [[0.0, 1.0], [1.0, 0.0]], m.x, eps)
    lam = twostate.ramped_coupling(m.x, eps, t0)
    assert np.array_equal(y0, ramp.tail(lam, 1e-10)[:, 0])


@pytest.mark.parametrize("eps", [0.2, 0.05, 0.0125, 0.003125])
def test_evolve_does_not_depend_on_the_start_threshold(monkeypatch, eps):
    # the start is exact to rounding however early it is, so stepping four
    # or six decades of the ramp in place of two, with the floor as deep,
    # moves a(0) by integration error only
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    a0 = []
    for growth in (1e2, 1e4, 1e6):
        monkeypatch.setattr(ode, "STEPPED_GROWTH", growth)
        monkeypatch.setattr(ode, "DEEPEST_START", 1e-2 / growth)
        traj = evolve_two_state(m, 0.0, 1e-10)
        assert traj.times[0] == -math.log(growth) / eps
        a0.append(complex(traj.final_state[0]))
    assert max(abs(a - a0[0]) for a in a0[1:]) <= 1e-12


@pytest.mark.parametrize("eps", [0.4, 0.1, 0.025, 0.0125, 0.003125, 0.001, 0.0005])
def test_phase_recursion_amplitude_at_order_200_against_arbitrary_precision_oracle(eps):
    # exp(-i f / eps) from the finite-rate values of the one recursion
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    a0 = cmath.exp(-1j * phase_series(m, 0.0, 200).value / eps)
    assert abs(a0 - a0_oracle(m)) <= 2e-14


@pytest.mark.parametrize("eps", [0.25, 0.05, 0.0125, 0.003125])
def test_bessel_series_converged_flag_against_arbitrary_precision_oracle(eps):
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=eps)
    ref = a0_oracle(m)
    result = bessel_series_a(m, 0.0)
    error = abs(result.value - ref) / abs(ref)
    # at the slowest rate the terms peak near 4e7, and their cancellation
    # leaves an error near 1e-8
    assert result.converged is (eps > 0.003125)
    assert error <= 1e-12 if result.converged else error > 1e-12


# ---------------------------------------------------------------------------
# assembled limit state


def test_limit_state_is_exact_ground_state_at_t0():
    res = limit_state(STD, 0.0, 30)
    es = exact_eigensystem(STD)
    np.testing.assert_allclose(res.state, es.psi0, atol=1e-9)
    h = STD.hamiltonian()
    np.testing.assert_allclose(h @ res.state, es.e0 * res.state, atol=1e-8)


@pytest.mark.parametrize("delta, x", [(1e-320, 5e-321), (1.0, 1e-300)])
def test_limit_state_keeps_its_ratio_where_the_shift_underflows(delta, x):
    # the shift is subnormal at the first point and underflows to 0 at the
    # second; the ratio of components, formed in units of delta, is not
    m = TwoStateModel(mu=0.0, delta=delta, x=x, eps=0.25)
    state = limit_state(m, 0.0).state
    for got, want in zip(state, exact_eigensystem(m).psi0):
        assert abs(got - want) <= 4 * math.ulp(abs(want))


def test_limit_state_weak_coupling_phase_only():
    m = TwoStateModel(mu=0.5, delta=1.0, x=1e-5, eps=0.25)
    t = 2.0
    res = limit_state(m, t, 10)
    expected = cmath.exp(-1j * (m.mu - m.delta) * t) * np.array([1.0, 0.0])
    np.testing.assert_allclose(res.state, expected, atol=1e-4)


def test_limit_state_reports_divergent_coefficient():
    res = limit_state(STD, 0.0, 30)
    assert res.divergent_coefficient == pytest.approx(F_A, abs=1e-12)
    assert res.divergent_coefficient == pytest.approx(quad_f_a(1.0, 0.5), abs=1e-10)
    assert res.secular_phase == 0.0


def test_limit_state_secular_phase():
    res = limit_state(STD, 3.0, 30)
    assert res.secular_phase == pytest.approx(3.0 * SHIFT, abs=1e-9)
