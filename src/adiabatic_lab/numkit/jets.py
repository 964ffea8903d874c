"""Truncated Taylor-polynomial ("jet") arithmetic with complex coefficients.

The series recursions in this package need both the value of a coefficient
and its leading derivatives with respect to the switching rate. Carrying
them together through the arithmetic as a polynomial truncated at a fixed
order avoids symbolic differentiation entirely: coefficient ``k`` of a jet
is the k-th derivative at the expansion point divided by ``k!``.

A jet is any complex array whose last axis holds the coefficients
``c_0 .. c_K``; leading axes broadcast, so one call acts on a whole table
of jets.

``laurent_split`` sums a table of such jets, one row per power of the
coupling, into the Laurent split of an accumulated phase; both models take
their split from it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..errors import DomainError, SingularJetError

__all__ = ["jet_mul", "jet_recip", "laurent_split"]


def jet_mul(a, b) -> np.ndarray:
    """Cauchy product truncated at the shared order.

    Coefficient k is ``sum_j a_j * b_{k-j}``, added in order of j: the
    order ``np.sum`` uses for up to three terms.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    size = a.shape[-1]
    if size != b.shape[-1]:
        raise ValueError(f"jet order mismatch: {size - 1} vs {b.shape[-1] - 1}")
    # outer[..., j, l] = a_j * b_l
    outer = a[..., :, None] * b[..., None, :]
    out = outer[..., 0, :].copy()
    for j in range(1, size):
        out[..., j:] += outer[..., j, : size - j]
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


def _fsum(values) -> float | complex:
    """Correctly rounded sum of a real or complex 1-d array, the real and
    imaginary parts apart."""
    if values.dtype.kind == "c":
        return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
    return math.fsum(values.tolist())


def laurent_split(jets, lam: float, step: int):
    """The Laurent split of an accumulated phase from a recursion's jets.

    Row n-1 of the ``(N, K + 1)`` array ``jets`` is the jet in the rate of
    the order-n coefficient c_n, which multiplies ``lam``**m, m = ``step`` *
    n. Returns ``(sums, shift, terms)``: ``terms`` is the array of
    lam**m c_{n,k}; ``sums[k]`` is the sum over n of (lam**m c_{n,k}) / m,
    so k = 0 is the coefficient divided by the rate, k = 1 the
    log-magnitude and k = 2 the rate remainder; ``shift`` is the sum of
    lam**m c_{n,0}, the secular shift. Each sum is a correctly rounded
    ``math.fsum``, float for real jets and complex otherwise. A
    ``DomainError`` names the first order whose term is not finite, or
    order N where finite terms sum past the range of doubles.
    """
    m = step * np.arange(1, len(jets) + 1)
    # a term that is not finite leaves its column's sum not finite, or
    # makes math.fsum raise, as finite terms that sum past the doubles do
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (lam**m)[:, None] * jets
        try:
            sums = [_fsum(terms[:, k] / m) for k in range(terms.shape[1])] + [_fsum(terms[:, 0])]
        except (OverflowError, ValueError):
            sums = [math.nan]
    if all(map(cmath.isfinite, sums)):
        return sums[:-1], sums[-1], terms
    bad = ~np.isfinite(terms).all(axis=1)
    first = int(np.argmax(bad)) + 1 if bad.any() else len(m)
    raise DomainError(f"phase-recursion terms are not finite from order {first} of {len(m)}: "
                      "the recursion or the powers of the coupling overflow; lower the order")
