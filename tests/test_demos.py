"""The demos run to completion and print exactly the text they always have.

Each demo runs in its own interpreter with this checkout's `src/` first on
the import path.  The sha256 of its standard output is pinned, so a change
that moves any figure, tangle or tree a demo prints shows up here; a change
meant to alter a demo's output updates its digest in the same commit.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "dataset_clusters.py":
        "7ff9178d250d391967e657dec391241e9ddd28d42ed3e7fd8d7e281f5be8f8c1",
    "kblocks_in_graphs.py":
        "808dadd4f1f6749f99b6044114ef248d7ecacc1abce39e23b71f158f9e211c79",
    "profiles_and_reduction.py":
        "038ee1f81f6a07b40cd27678673374809229fdf89b7f8e943848b36d552f2aac",
    "two_nested_separations.py":
        "aa8ba0a3643de3144f8e7dd0286be0128309fba66401330aab3ac71474265ece",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_output(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == \
        STDOUT_SHA256[name], run.stdout
