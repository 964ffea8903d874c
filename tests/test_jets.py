import math
from fractions import Fraction

import numpy as np
import pytest

from adiabatic_lab.errors import DomainError, SingularJetError
from adiabatic_lab.nstate import NStateModel, rs_recursion
from adiabatic_lab.numkit import HermitianMatrix, jet_mul, jet_recip, laurent_split
from adiabatic_lab.twostate import gtilde_table


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


def jet_mul_loop(a, b):
    """Reference product: one ``np.sum`` over the terms of each coefficient."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for k in range(a.shape[-1]):
        out[..., k] = np.sum(a[..., : k + 1] * b[..., k::-1], axis=-1)
    return out


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_mul_bit_identical_to_summed_loop(order):
    # the shapes the recursions pass: scalar jets, an (n, K+1) table times
    # one jet or another table, and the projector recursion's broadcast of
    # (n-1, 1, K+1) phase jets against (n-1, N, K+1) vector jets
    rng = np.random.default_rng(40 + order)
    k1 = order + 1
    shapes = [
        ((k1,), (k1,)),
        ((17, k1), (k1,)),
        ((17, k1), (17, k1)),
        ((29, 1, k1), (29, 8, k1)),
        ((5, 1, k1), (5, 64, k1)),
    ]
    for shape_a, shape_b in shapes:
        for _ in range(20):
            a = random_complex(rng, shape_a) * 10.0 ** rng.integers(-8, 8)
            b = random_complex(rng, shape_b)
            np.testing.assert_array_equal(jet_mul(a, b), jet_mul_loop(a, b))
            np.testing.assert_array_equal(jet_mul(b, a), jet_mul_loop(b, a))


# ---------------------------------------------------------------------------
# the Laurent split


def _exact_sum(values):
    """The sum of the doubles ``values``, correctly rounded, via fractions."""
    return float(sum(map(Fraction, values.tolist()), Fraction(0)))


@pytest.mark.parametrize("order", [1, 30, 200, 1000])
@pytest.mark.parametrize("u", [1e-200, 0.2, 0.5, 0.87, 0.999])
def test_laurent_split_two_state_columns_bit_identical(order, u):
    # the sums as phase_split formed them before it called laurent_split:
    # (u**(2n) * c) / (2n) and the shift u**(2n) * c, each by math.fsum
    table = gtilde_table(order)
    n = np.arange(1, order + 1)
    powers = u ** (2 * n)
    expected = [math.fsum(powers * table[:, k] / (2 * n)) for k in range(3)]
    sums, shift, terms = laurent_split(table, u, 2)
    assert sums == expected
    assert shift == math.fsum(powers * table[:, 0])
    assert np.array_equal(terms, powers[:, None] * table)
    assert all(type(value) is float for value in (*sums, shift))


def _bench_models(seed):
    """The many-level benchmark's models at ``seed``, drawn as it draws them
    from one generator: N = 8, 16, 32 and 64 levels with spacings in
    [1, 2), a real symmetric Gaussian V and the coupling at 5% of the first
    gap."""
    rng = np.random.default_rng(seed)
    models = []
    for levels in (8, 16, 32, 64):
        energies = np.concatenate([[0.0], np.cumsum(1.0 + rng.random(levels - 1))])
        upper = np.triu(rng.standard_normal((levels, levels)))
        v = upper + np.triu(upper, 1).T
        models.append(NStateModel(energies, HermitianMatrix(v), 0.05 * energies[1], 0.25))
    return models


def _complex_model(seed, levels):
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.5, 1.5, levels))
    a = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
    return NStateModel(energies, HermitianMatrix((a + a.conj().T) / 2), 0.1, 0.25)


@pytest.mark.parametrize(
    "model",
    [model for seed in (1, 7, 977) for model in _bench_models(seed)]
    + [_complex_model(seed, levels) for seed in (3, 11) for levels in (4, 8)],
)
def test_laurent_split_n_state_against_pairwise_sums(model):
    # correctly rounded, and within 5e-16 of the pairwise np.sum the N-state
    # split used before, on real and complex jets alike
    xi = rs_recursion(model, 30, 1)[0]
    n = np.arange(1, 31)
    powers = model.x**n
    pairwise = (
        np.sum(powers * xi[:, 0] / n), np.sum(powers * xi[:, 1] / n), np.sum(powers * xi[:, 0])
    )
    (g_a, g_b), shift, terms = laurent_split(xi, model.x, 1)
    for got, old in zip((g_a, g_b, shift), pairwise):
        assert abs(got - old) <= 5e-16 * abs(old)
    for got, column in zip((g_a, g_b, shift), (terms[:, 0] / n, terms[:, 1] / n, terms[:, 0])):
        assert complex(got) == complex(_exact_sum(column.real), _exact_sum(column.imag))
    assert isinstance(g_a, complex) is np.iscomplexobj(xi)


def test_laurent_split_refuses_the_first_non_finite_order():
    jets = np.ones((40, 2))
    jets[25, 1] = np.inf
    # lam**m first overflows at m = 31 (1e310); the inf at order 26 comes first
    with pytest.raises(DomainError, match="not finite from order 26 of 40: "):
        laurent_split(jets, 1e10, 1)
    with pytest.raises(DomainError, match="not finite from order 31 of 40: "):
        laurent_split(np.ones((40, 1)), 1e10, 1)
    # inf times a power that underflows to 0 is NaN, not finite either
    jets = np.ones((3, 1))
    jets[2, 0] = np.inf
    with pytest.raises(DomainError, match="not finite from order 3 of 3: "):
        laurent_split(jets, 1e-200, 1)


def test_laurent_split_refuses_finite_terms_that_sum_past_the_doubles():
    # 1e308 + 1e308 leaves the range of doubles: math.fsum raises
    # OverflowError, refused as the last order
    with pytest.raises(DomainError, match="not finite from order 2 of 2: "):
        laurent_split(np.full((2, 1), 1e308), 1.0, 1)
    with pytest.raises(DomainError, match="not finite from order 2 of 2: "):
        laurent_split(np.full((2, 1), 1e308j), 1.0, 1)
