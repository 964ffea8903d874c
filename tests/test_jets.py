import numpy as np
import pytest

from adiabatic_lab.errors import SingularJetError
from adiabatic_lab.numkit import jet_mul, jet_recip


def jet(*coeffs):
    return np.array(coeffs, dtype=complex)


def test_mul_truncates_at_order():
    # (1 + u)(1 - u) at K=1: the u**2 term is cut
    out = jet_mul(jet(1, 1), jet(1, -1))
    np.testing.assert_allclose(out, [1.0, 0.0])


def test_mul_order_zero_is_scalar_product():
    out = jet_mul(jet(2j), jet(0.5))
    np.testing.assert_allclose(out, [1j])


def test_mul_hand_expanded_product():
    # (1 + 2u + 3u^2)(4 + 5u) = 4 + 13u + 22u^2 + O(u^3)
    out = jet_mul(jet(1, 2, 3), jet(4, 5, 0))
    np.testing.assert_allclose(out, [4.0, 13.0, 22.0])


def test_recip_symbolic_expansion():
    # 1/(2i + u) = -i/2 + u/4 + O(u^2)
    out = jet_recip(jet(2j, 1))
    np.testing.assert_allclose(out, [-0.5j, 0.25], atol=1e-15)


def test_recip_of_unit_jet():
    out = jet_recip(jet(1, 0, 0, 0))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0])


def test_recip_constant_jet():
    out = jet_recip(jet(4, 0))
    np.testing.assert_allclose(out, [0.25, 0.0])


def test_recip_singular_leading_coefficient():
    with pytest.raises(SingularJetError):
        jet_recip(jet(0, 1, 1))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        jet_mul(jet(1, 1), jet(1, 1, 1))


def test_leading_axes_broadcast():
    # a table of jets times one jet, row by row
    table = np.array([[1, 1], [2, 0], [0, 3]], dtype=complex)
    factor = jet(2, -1)
    out = jet_mul(table, factor)
    assert out.shape == (3, 2)
    for row, expected in zip(table, out):
        np.testing.assert_array_equal(jet_mul(row, factor), expected)
    recip = jet_recip(table[:2])
    np.testing.assert_array_equal(recip[1], jet_recip(table[1]))
    with pytest.raises(SingularJetError):
        jet_recip(table)


def random_conditioned_jet(rng, order):
    """Random jet with |c_0| >= 0.1 and tail magnitudes at most 2|c_0|.

    The ratio bound matters: the unit-jet residual of a*recip(a) is limited
    by rounding of the final product, which grows with |c_k/c_0|**order for
    any implementation, so an unconditioned draw cannot meet a fixed
    absolute tolerance.
    """
    c0 = (0.1 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    tail = rng.normal(size=order) + 1j * rng.normal(size=order)
    tail = np.clip(np.abs(tail), 0, 2.0) * np.exp(1j * np.angle(tail)) * abs(c0)
    return np.concatenate([[c0], tail])


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_mul_recip_identity_random(order):
    rng = np.random.default_rng(100 + order)
    unit = np.zeros(order + 1)
    unit[0] = 1.0
    for _ in range(200):
        a = random_conditioned_jet(rng, order)
        out = jet_mul(a, jet_recip(a))
        np.testing.assert_allclose(out, unit, atol=1e-12)


def test_mul_associative_and_distributive_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        order = rng.integers(0, 5)
        a, b, c = (
            rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
            for _ in range(3)
        )
        left = jet_mul(jet_mul(a, b), c)
        right = jet_mul(a, jet_mul(b, c))
        np.testing.assert_allclose(left, right, atol=1e-12)
        dist_l = jet_mul(a, b + c)
        dist_r = jet_mul(a, b) + jet_mul(a, c)
        np.testing.assert_allclose(dist_l, dist_r, atol=1e-12)
