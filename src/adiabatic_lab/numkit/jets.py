"""Truncated Taylor-polynomial ("jet") arithmetic with complex coefficients.

The series recursions in this package need both the value of a coefficient
and its leading derivatives with respect to the switching rate. Carrying
them together through the arithmetic as a polynomial truncated at a fixed
order avoids symbolic differentiation entirely: coefficient ``k`` of a jet
is the k-th derivative at the expansion point divided by ``k!``.

A jet is any complex array whose last axis holds the coefficients
``c_0 .. c_K``; leading axes broadcast, so one call acts on a whole table
of jets.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularJetError

__all__ = ["jet_mul", "jet_recip"]


def jet_mul(a, b) -> np.ndarray:
    """Cauchy product truncated at the shared order."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"jet order mismatch: {a.shape[-1] - 1} vs {b.shape[-1] - 1}"
        )
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for k in range(a.shape[-1]):
        out[..., k] = np.sum(a[..., : k + 1] * b[..., k::-1], axis=-1)
    return out


def jet_recip(a) -> np.ndarray:
    """Multiplicative inverse: jet b with a*b = 1 up to the shared order.

    Raises SingularJetError when a leading coefficient vanishes, which in
    this package signals a vanishing energy denominator (degeneracy).
    """
    a = np.asarray(a, dtype=complex)
    c0 = a[..., 0]
    if np.any(c0 == 0):
        raise SingularJetError("jet reciprocal of zero leading coefficient")
    out = np.zeros_like(a)
    out[..., 0] = 1.0 / c0
    for k in range(1, a.shape[-1]):
        out[..., k] = -np.sum(a[..., 1 : k + 1] * out[..., k - 1 :: -1], axis=-1) / c0
    return out
