"""Deterministic, implementation-independent random model generation.

The generator is splitmix64, chosen because it is a dozen lines of integer
arithmetic that any language can reproduce bit for bit. Draw order is part
of the file-format contract and documented in the README:

* uniforms map the top 53 bits of each 64-bit word to [0, 1),
* each Gaussian consumes exactly two words via the Box-Muller cosine branch,
* level spacings are drawn first (consecutive gaps in [gap, 2*gap)), then
  the perturbation entries row-major over the upper triangle including the
  diagonal, one Gaussian each, mirrored to the lower triangle.

Generated perturbations are real symmetric: that is the structure under
which the split of the accumulated phase has all-real coefficients (a
complex Hermitian perturbation adds a genuine constant phase).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["SplitMix64", "random_hermitian_model_arrays"]

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; seed is any non-negative integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal via Box-Muller (cosine branch, two words)."""
        u1 = ((self.next_u64() >> 11) + 0.5) * 2.0**-53  # strictly in (0, 1)
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def random_hermitian_model_arrays(seed: int, levels: int, gap: float, vscale: float):
    """Energies with enforced minimum gap and a symmetrized Gaussian
    perturbation matrix, drawn in the documented order.

    Returns ``(energies, v)`` with ``energies[0] = 0`` and consecutive
    spacings in ``[gap, 2*gap)``; ``v`` is real symmetric with
    N(0, vscale**2) entries.
    """
    if levels < 2:
        raise DomainError(f"need at least 2 levels, got {levels}")
    if not gap > 0:
        raise DomainError(f"gap must be > 0, got {gap}")
    rng = SplitMix64(seed)
    energies = np.zeros(levels)
    for k in range(1, levels):
        energies[k] = energies[k - 1] + gap * (1.0 + rng.uniform())
    v = np.zeros((levels, levels), dtype=complex)
    for i in range(levels):
        for j in range(i, levels):
            entry = vscale * rng.gaussian()
            v[i, j] = entry
            v[j, i] = entry
    return energies, v
