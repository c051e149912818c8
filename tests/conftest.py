import os
from pathlib import Path

import pytest

# The checkout's src first on PYTHONPATH, so every `python -m avgkernel` or
# `python -c` child a test starts imports this checkout's package, also
# when pytest runs without an install or a PYTHONPATH of its own.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """One shared rule cache so high orders are computed once per run."""
    return str(tmp_path_factory.mktemp("glq-cache"))
