"""The demos run to completion and print exactly the text they always have,
and the README's library tour runs and names only what the library has.

Each demo runs in its own interpreter with this checkout's `src/` first on
the import path.  The sha256 of its standard output is pinned, so a change
that moves any figure, tangle or tree a demo prints shows up here; a change
meant to alter a demo's output updates its digest in the same commit.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tangleforge as tf

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


# words the library tour quotes that name no attribute: family kinds, CLI
# commands, formats, Python built-ins and the letters of its formulas
TOUR_WORDS = {"blocks", "cluster", "empty", "explicit", "profile", "certify",
              "sepsys", "system_ref", "frozenset", "list", "import_module",
              "members", "o", "s", "v", "x", "y", "z"}


def test_the_readme_library_tour_runs_and_names_what_exists(capsys):
    # The tour's Python blocks run in order over tests/fixtures/k4.edges,
    # and each name it quotes in backticks, or the last part of a dotted
    # one, is an attribute of a library module or of an object it made.
    text = (ROOT / "README.md").read_text()
    start = text.index("## Library tour")
    tour = text[start:text.index("\n## ", start + 1)]
    code = "".join(re.findall(r"```python\n(.*?)```", tour, re.S))
    assert 'open("graph.edges")' in code
    namespace = {}
    exec(code.replace('"graph.edges"', repr(str(ROOT / "tests" / "fixtures"
                                                  / "k4.edges"))), namespace)
    assert capsys.readouterr().out == "frozenset({0, 1, 2, 3})\n"
    report = namespace["report"]
    objects = [tf, *(sys.modules[f"tangleforge.{m}"] for m in (
        "system", "tree", "build", "oracle", "families", "grounds", "errors")),
        *(namespace[n] for n in ("system", "family", "tree", "trace")),
        namespace["system"].ground, report, report.levels[0],
        tf.LeafClass("tangle")]
    quoted = re.findall(r"`([^`\n]+)`", tour)
    names = {q.split(".")[-1] for q in quoted
             if re.fullmatch(r"\w+(\.\w+)*", q)} | \
        {m[1] for q in quoted if (m := re.match(r"(?:[\w.]*\.)?(\w+)\(", q))}
    assert "beta" in names and "is_structure_tree" in names  # it sees them
    assert sorted(name for name in names - TOUR_WORDS
                  if not any(hasattr(o, name) for o in objects)) == []
