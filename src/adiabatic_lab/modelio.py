"""Model files: JSON in, validated models out, and seeded generation.

Files are human-writable JSON. Complex matrices are split into real and
imaginary parts (row-major nested lists) to avoid ad-hoc complex literals.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError
from .nstate import NStateModel
from .numkit import HermitianMatrix
from .rng import random_hermitian_model_arrays
from .twostate import TwoStateModel

__all__ = [
    "ModelFileError",
    "load_model",
    "model_to_dict",
    "save_model",
    "generate_nstate_model",
]


class ModelFileError(DomainError):
    """Model file is syntactically or semantically invalid."""


def _finite_number(value):
    # JSON admits NaN, Infinity and integers too large for a float; booleans
    # are ints to Python
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ModelFileError(f"{where}: missing required field '{key}'")
    value = mapping[key]
    if kind is float:
        if not _finite_number(value):
            raise ModelFileError(f"{where}: field '{key}' must be a finite number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ModelFileError(f"{where}: field '{key}' must be an integer")
        return value
    return value


def _array(raw, name, where):
    """Nested lists of finite JSON numbers as a float array."""

    def numeric(value):
        return all(map(numeric, value)) if isinstance(value, list) else _finite_number(value)

    if not numeric(raw):
        raise ModelFileError(f"{where}: field '{name}' must hold only finite numbers")
    try:
        return np.array(raw, dtype=float)
    except ValueError as exc:
        raise ModelFileError(f"{where}: field '{name}' is ragged: {exc}") from None


def _matrix(raw, name, where):
    arr = _array(raw, name, where)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelFileError(
            f"{where}: field '{name}' must be a square row-major matrix, "
            f"got shape {arr.shape}"
        )
    return arr


def _model_from_dict(data, where="model file"):
    if not isinstance(data, dict):
        raise ModelFileError(f"{where}: top level must be a JSON object")
    kind = data.get("kind")
    if kind == "two-state":
        return TwoStateModel(
            mu=_require(data, "mu", float, where),
            delta=_require(data, "delta", float, where),
            x=_require(data, "x", float, where),
            eps=_require(data, "eps", float, where),
        )
    if kind == "n-state":
        energies = _array(_require(data, "energies", list, where), "energies", where)
        v_real = _matrix(_require(data, "v_real", list, where), "v_real", where)
        v_imag = _matrix(_require(data, "v_imag", list, where), "v_imag", where)
        if v_real.shape != v_imag.shape:
            raise ModelFileError(
                f"{where}: v_real {v_real.shape} and v_imag {v_imag.shape} differ"
            )
        if v_real.shape[0] != energies.size:
            raise ModelFileError(
                f"{where}: {energies.size} energies but perturbation is "
                f"{v_real.shape[0]}x{v_real.shape[0]}"
            )
        return NStateModel(
            energies=energies,
            v=HermitianMatrix(v_real + 1j * v_imag),
            x=_require(data, "x", float, where),
            eps=_require(data, "eps", float, where),
            ground_index=(
                _require(data, "ground_index", int, where) if "ground_index" in data else 0
            ),
        )
    raise ModelFileError(
        f"{where}: field 'kind' must be 'two-state' or 'n-state', got {kind!r}"
    )


def load_model(path):
    """Parse and validate a model file; OSError propagates to the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return _model_from_dict(data, where=str(path))
    except ModelFileError:
        raise
    except DomainError as exc:
        raise ModelFileError(f"{path}: {exc}") from None


def model_to_dict(model) -> dict:
    if isinstance(model, TwoStateModel):
        return {
            "kind": "two-state",
            "mu": model.mu,
            "delta": model.delta,
            "x": model.x,
            "eps": model.eps,
        }
    if isinstance(model, NStateModel):
        v = model.v.entries
        return {
            "kind": "n-state",
            "energies": [float(e) for e in model.energies],
            "v_real": [[float(c.real) for c in row] for row in v],
            "v_imag": [[float(c.imag) for c in row] for row in v],
            "x": model.x,
            "eps": model.eps,
            "ground_index": model.ground_index,
        }
    raise TypeError(f"unsupported model type {type(model)!r}")


def save_model(model, path) -> None:
    """Write a model file; byte-identical output for identical models."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def generate_nstate_model(
    seed: int,
    levels: int,
    gap: float = 1.0,
    vscale: float = 1.0,
    x: float | None = None,
    eps: float = 0.25,
) -> NStateModel:
    """Seeded random model with documented draw order (see rng module).

    The default coupling is 5% of the smallest gap to the tracked level,
    comfortably inside the perturbative regime.
    """
    energies, v = random_hermitian_model_arrays(seed, levels, gap, vscale)
    if x is None:
        gaps = np.abs(energies - energies[0])
        gaps[0] = np.inf
        x = 0.05 * float(gaps.min())
    return NStateModel(
        energies=energies, v=HermitianMatrix(v), x=x, eps=eps, ground_index=0
    )
