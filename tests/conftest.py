import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexsets
from lexsets.embeddings import load_text_vectors

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

# The directory this suite imported ``lexsets`` from, so that a CLI child
# started in any working directory runs the same code.
PACKAGE_ROOT = Path(lexsets.__file__).resolve().parents[1]


def run_python(cwd, *args):
    """Run ``python <args>`` in ``cwd`` with this suite's ``lexsets`` importable; capture code and output."""
    pythonpath = [str(PACKAGE_ROOT)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def run_cli(cwd, *args):
    """Run ``python -m lexsets.cli`` in ``cwd`` and capture its exit code and output."""
    return run_python(cwd, "-m", "lexsets.cli", *args)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def toy_store():
    with open(DATA_DIR / "toy_vectors.txt", encoding="utf-8") as stream:
        return load_text_vectors(stream)


def store_from_text(text: str):
    return load_text_vectors(io.StringIO(text))
