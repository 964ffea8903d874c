import warnings

import numpy as np
import pytest

from adiabatic_lab.errors import DomainError
from adiabatic_lab.numkit import HermitianMatrix, hermitian_eig


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def test_diagonal_matrix():
    w, v = hermitian_eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-14)


def test_identity_degenerate():
    w, v = hermitian_eig(np.eye(4, dtype=complex))
    np.testing.assert_allclose(w, np.ones(4))
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-14)


def test_two_level_coupled_matrix():
    # mu=0, delta=1, x=0.5: brute-force roots of the characteristic
    # polynomial l**2 - (a+d) l + (ad - x**2)
    a, d, x = -1.0, 1.0, 0.5
    disc = np.sqrt((a + d) ** 2 - 4 * (a * d - x * x))
    roots = sorted([((a + d) - disc) / 2, ((a + d) + disc) / 2])
    m = np.array([[a, x], [x, d]], dtype=complex)
    w, v = hermitian_eig(m)
    np.testing.assert_allclose(w, roots, atol=1e-12)
    np.testing.assert_allclose(w, [-1.1180339887498949, 1.1180339887498949])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 64])
def test_random_reconstruction_and_residuals(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        m = random_hermitian(rng, n)
        scale = np.linalg.norm(m)
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) >= -1e-12 * scale)  # ascending
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-9 * scale
        for k in range(n):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale


@pytest.mark.parametrize("n", [2, 8, 64])
def test_exact_input_gives_the_validated_bits(n):
    # a real diagonal plus a real multiple of a validated matrix is exactly
    # Hermitian, so validating it again would keep it bit for bit
    rng = np.random.default_rng(n)
    h = np.diag(rng.normal(size=n)) + 0.37 * HermitianMatrix(random_hermitian(rng, n)).entries
    w, v = hermitian_eig(h)
    w_checked, v_checked = hermitian_eig(HermitianMatrix(h))
    assert np.array_equal(w, w_checked) and np.array_equal(v, v_checked)


def test_eigenvalues_real_for_complex_hermitian():
    rng = np.random.default_rng(99)
    m = random_hermitian(rng, 6)
    w, _ = hermitian_eig(m)
    assert w.dtype == np.float64


def test_rejects_non_hermitian():
    with pytest.raises(DomainError, match="not Hermitian"):
        HermitianMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(DomainError, match="square"):
        HermitianMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            hermitian_eig(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError, match="finite"):
            HermitianMatrix(np.array([[0.0, bad], [bad, 1.0]]))


def test_hermiticity_tolerance_boundary():
    m = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]], dtype=complex)
    HermitianMatrix(m)  # within 1e-12: accepted


def test_hermiticity_tolerance_scales_with_entries():
    # U diag U^H at entry scale 1e5 carries rounding drift well above 1e-12
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    m = (q * rng.uniform(-1e5, 1e5, 8)) @ q.conj().T
    assert np.abs(m - m.conj().T).max() > 1e-12
    HermitianMatrix(m)
    bad = m.copy()
    bad[0, 1] += 1e-6 * np.abs(m).max()
    with pytest.raises(DomainError, match="not Hermitian"):
        HermitianMatrix(bad)


def test_stores_the_hermitian_part_it_validated():
    # rounding drift at entry scale 1e5, and small entries that differ by
    # more than a factor 2, whose midpoint rounds differently from either side
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    m = (q * rng.uniform(-1e5, 1e5, 8)) @ q.conj().T
    m[0, 1], m[1, 0] = 3e-9 + 1e-10j, -7e-9 - 2e-10j
    stored = HermitianMatrix(m).entries
    assert np.array_equal(stored, stored.conj().T)
    np.testing.assert_allclose(stored, (m + m.conj().T) / 2, rtol=1e-15, atol=0)
    assert stored[0, 1] == pytest.approx(-2e-9 + 1.5e-10j, rel=1e-15)
    # an exactly Hermitian input is kept bit for bit
    assert np.array_equal(HermitianMatrix(stored).entries, stored)
