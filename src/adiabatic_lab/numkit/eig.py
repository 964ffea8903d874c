"""Dense Hermitian eigensolver: a validated Hermitian matrix type and LAPACK's
``eigh``.

The exact-diagonalization route shares no code with the series routes it
checks; LAPACK is as independent of them as any hand-written solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

__all__ = ["HermitianMatrix", "hermitian_eig", "immutable"]

# largest accepted max |A - A^H|, relative to max(1, max |A|)
HERMITICITY_TOL = 1e-12


def immutable(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` on an immutable buffer: no flag can make it writeable."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


def _require_finite(m):
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite numbers")


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Square complex matrix validated to be Hermitian on construction; it
    keeps the Hermitian part of what it validated, in entries that no flag
    can make writeable again."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"matrix must be square, got shape {m.shape}")
        _require_finite(m)
        drift = np.max(np.abs(m - m.conj().T), initial=0.0)
        limit = HERMITICITY_TOL * np.max(np.abs(m), initial=1.0)
        if drift > limit:
            raise DomainError(
                f"matrix is not Hermitian: max |A - A^H| = {drift:.3e} "
                f"exceeds {limit:.3g}"
            )
        # exactly Hermitian (sums commute), so a matrix built from it passes
        # this check at its own scale; halving cannot overflow as A + A^H can
        object.__setattr__(self, "entries", immutable(m / 2 + m.conj().T / 2))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and
    ascending and eigenvectors as orthonormal columns of a unitary matrix.
    A ``HermitianMatrix`` is taken as its entries. Any other square array is
    taken to be Hermitian already (``eigh`` reads its lower triangle) and
    is only checked to be finite: a real diagonal plus a real multiple of a
    ``HermitianMatrix``'s entries, as the exact route builds, is Hermitian
    by construction but can overflow.
    """
    if isinstance(m, HermitianMatrix):
        m = m.entries
    m = np.asarray(m, dtype=complex)
    _require_finite(m)
    return np.linalg.eigh(m)
