"""Model files: JSON in, validated models out, and seeded generation.

Files are human-writable JSON. Complex matrices are split into real and
imaginary parts (row-major nested lists) to avoid ad-hoc complex literals.
This module checks JSON types only; the model types check the numbers
(finiteness, signs, shapes, sizes, Hermiticity).
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import DomainError
from .nstate import NStateModel
from .rng import random_hermitian_model_arrays
from .twostate import TwoStateModel

__all__ = [
    "ModelFileError",
    "load_model",
    "model_to_dict",
    "read_text",
    "save_model",
    "generate_nstate_model",
]


class ModelFileError(DomainError):
    """Model file is syntactically or semantically invalid."""


def _field(mapping, key, where):
    if key not in mapping:
        raise ModelFileError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _number(mapping, key, where):
    """A JSON int or float that fits in a double, as a float; NaN and
    Infinity are left to the model types."""
    value = _field(mapping, key, where)
    try:
        # the exact type, because a bool is an int to Python
        if type(value) in (int, float):
            return float(value)
    except OverflowError:
        pass
    raise ModelFileError(f"{where}: field '{key}' must be a finite number")


def _numbers(mapping, key, where):
    """A list, or a list of lists, of JSON ints and floats as a float array."""
    raw = _field(mapping, key, where)
    if isinstance(raw, list):
        rows = raw if all(isinstance(r, list) for r in raw) else [raw]
        try:
            # the exact types, because a bool is an int to Python; one
            # C-level pass over every entry
            if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
                return np.array(raw, dtype=float)
        except ValueError as exc:
            raise ModelFileError(f"{where}: field '{key}' is ragged: {exc}") from None
        except OverflowError:
            pass
    raise ModelFileError(f"{where}: field '{key}' must hold only finite numbers")


def _model_from_dict(data, where):
    if not isinstance(data, dict):
        raise ModelFileError(f"{where}: top level must be a JSON object")
    kind = data.get("kind")
    if kind == "two-state":
        return TwoStateModel(
            **{key: _number(data, key, where) for key in ("mu", "delta", "x", "eps")}
        )
    if kind == "n-state":
        energies = _numbers(data, "energies", where)
        v_real = _numbers(data, "v_real", where)
        v_imag = _numbers(data, "v_imag", where)
        # numpy would broadcast a mismatch away
        if v_real.shape != v_imag.shape:
            raise ModelFileError(
                f"{where}: v_real {v_real.shape} and v_imag {v_imag.shape} differ"
            )
        ground_index = data.get("ground_index", 0)
        if type(ground_index) is not int:
            raise ModelFileError(f"{where}: field 'ground_index' must be an integer")
        # 1j * inf warns; HermitianMatrix rejects the entry as not finite
        with np.errstate(invalid="ignore"):
            v = v_real + 1j * v_imag
        return NStateModel(
            energies=energies,
            v=v,
            x=_number(data, "x", where),
            eps=_number(data, "eps", where),
            ground_index=ground_index,
        )
    raise ModelFileError(
        f"{where}: field 'kind' must be 'two-state' or 'n-state', got {kind!r}"
    )


def read_text(fh, name):
    """All the text of the open text file ``fh``; bytes it cannot decode
    raise a ModelFileError that names the file as ``name``."""
    try:
        return fh.read()
    except UnicodeDecodeError as exc:
        raise ModelFileError(
            f"{name}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


# the last model loaded and the full text of its file; a load of the same
# text returns this model, which is frozen and holds read-only arrays
_last_load = (None, None)


def load_model(path):
    """Parse and validate a model file; OSError propagates to the caller.

    The process keeps one entry: the last model loaded with its file's
    full text. A file whose text equals that text returns the same model
    object, at the cost of one string comparison; any other text is parsed
    and validated, and replaces the entry only if it loads. The entry is
    keyed by content alone: a path or a modification time would miss a
    same-size rewrite within one timestamp tick. Two threads that load at
    once each get a valid model, and the last one to finish keeps the entry.
    """
    global _last_load
    with open(path, "r", encoding="utf-8") as fh:
        text = read_text(fh, path)
    last_text, last_model = _last_load
    if text == last_text:
        return last_model
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    try:
        model = _model_from_dict(data, where=str(path))
    except ModelFileError:
        raise
    except DomainError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    _last_load = (text, model)
    return model


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
    return NStateModel(energies=energies, v=v, x=x, eps=eps, ground_index=0)
