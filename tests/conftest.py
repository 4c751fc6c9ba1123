import os
from pathlib import Path

import pytest

import weylstat as ws

# Interpreters the tests start (``python -m weylstat.cli``) import the package
# from src/ too, also when only pytest's ``pythonpath`` setting put it on the path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def systems():
    """Catalogs shared across the suite, keyed by descriptor string."""
    cache = {}

    def get(spec: str) -> ws.RootSystem:
        if spec not in cache:
            cache[spec] = ws.build(spec)
        return cache[spec]

    return get
