import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from adiabatic_lab import modelio, nstate, twostate  # noqa: E402

# the per-process stores, each a functools.lru_cache of size 1
STORES = (modelio._model_from_text, nstate._recursion, nstate._shift, twostate._table)


@pytest.fixture(autouse=True)
def empty_stores():
    """Empties the stores before each test, so no test reads what an earlier
    one left there; a test that names this fixture calls it to empty them
    again."""

    def empty():
        for store in STORES:
            store.cache_clear()

    empty()
    return empty
