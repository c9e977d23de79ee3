"""The CLI writes exactly the bytes it always has on the fixtures.

`build` (json), `tangles`, `certify --k 2` and `certify --k 2 --format dot`
run on each fixture input with its family.  The sha256 of each output and the exit code are pinned, so a
change that moves any byte of a report, tangle list or certificate shows up
here; a change meant to alter an output updates its digest in the same
commit.

A system with a ground is written as ``sepsys/v2``.  ``OUTPUT_SHA256`` pins
each output with every inlined sepsys/v2 system expanded by the tests' own
``expand_sepsys_v2`` into the sepsys/v1 it was written as before, and
``V2_SHA256`` the bytes written of the outputs that inline one.

``GRID_SHA256`` pins the `report/v2` of grids under ``blocks:3``, whose
caterpillar trees ask the family about label sets of hundreds of ids.
"""

import hashlib
import json

import pytest

import tangleforge as tf
from tangleforge.build import dump_report
from tangleforge.cli import main
from tangleforge.system import dump_json

from conftest import FIXTURES, expand_systems, grid_graph

INPUTS = {
    "k4/blocks3": ["--graph", "k4.edges", "--family", "blocks:3"],
    "p5/blocks3": ["--graph", "p5.edges", "--family", "blocks:3"],
    "two_k4/blocks3": ["--graph", "two_k4.edges", "--family", "blocks:3"],
    "six_similarity/cluster2": ["--similarity", "six_similarity.csv",
                                "--family", "cluster:2"],
    "six_similarity/cluster3": ["--similarity", "six_similarity.csv",
                                "--family", "cluster:3"],
    "mindsets/cluster3": ["--answers", "mindsets.csv", "--family", "cluster:3"],
}
COMMANDS = {"build": ["build"], "tangles": ["tangles"],
            "certify": ["certify", "--k", "2"],
            "certify-dot": ["certify", "--k", "2", "--format", "dot"]}

# (exit code, sha256 of the output) per "input command"
OUTPUT_SHA256 = {
    "k4/blocks3 build":
        (0, "160cd99b5720c2446415ff49e2df8b001714e81d46f0925e49cd2796ea05b3ba"),
    "k4/blocks3 tangles":
        (0, "f7d9b0a55f2c036a23a0276b111c185a237e3a35361c5dfc3911007681014fb8"),
    "k4/blocks3 certify":
        (0, "d881e3503c29670c17fad1f8b3623bd98bfc9d21a0ac1be3e84d8a247ed91bb9"),
    "k4/blocks3 certify-dot":
        (0, "d881e3503c29670c17fad1f8b3623bd98bfc9d21a0ac1be3e84d8a247ed91bb9"),
    "p5/blocks3 build":
        (0, "bfa62807ec615fcc0a8e68cc3f2e0b47d851d55aeeb58fb4a29a00f266946f5e"),
    "p5/blocks3 tangles":
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "p5/blocks3 certify":
        (1, "f7c963aae20c6c10fa41aed2a5525b1273d023a7d43db75264de2697b6b28e40"),
    "p5/blocks3 certify-dot":
        (1, "823d9b1fb38769286a872fc3eba644c10e10a45e84114062ad15fdf53c98d6a7"),
    "two_k4/blocks3 build":
        (0, "0f4288a8ebbc5454b8920e57d0087869b222d95ce3da5550a0b77fcc66685240"),
    "two_k4/blocks3 tangles":
        (0, "ff3d60d84846064c39575c2b6d9171d8c669fdb49ede9feeef91288213a384fb"),
    "two_k4/blocks3 certify":
        (0, "bcb4f4158c50ee85dee81f2a73b2de8fcfcbde102fd6f453bae6ad14bbf278fd"),
    "two_k4/blocks3 certify-dot":
        (0, "bcb4f4158c50ee85dee81f2a73b2de8fcfcbde102fd6f453bae6ad14bbf278fd"),
    "six_similarity/cluster2 build":
        (0, "fcdc4c366e204da6490fd5f5154625d930c11d886fab602d79d9272e2a024634"),
    "six_similarity/cluster2 tangles":
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "six_similarity/cluster2 certify":
        (0, "1cef15a625237aaece6c576f000763a931b33289f3ea8c617fe9a0f9924d05e9"),
    "six_similarity/cluster2 certify-dot":
        (0, "1cef15a625237aaece6c576f000763a931b33289f3ea8c617fe9a0f9924d05e9"),
    "six_similarity/cluster3 build":
        (0, "d0f042b304989583d98dc4e081701a1253db524b84655f600e1ea6002822f768"),
    "six_similarity/cluster3 tangles":
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "six_similarity/cluster3 certify":
        (0, "1cef15a625237aaece6c576f000763a931b33289f3ea8c617fe9a0f9924d05e9"),
    "six_similarity/cluster3 certify-dot":
        (0, "1cef15a625237aaece6c576f000763a931b33289f3ea8c617fe9a0f9924d05e9"),
    "mindsets/cluster3 build":
        (0, "931814c09e2d9ecbee819144132d6af03a161171c141b7bc832d81e8f95ede35"),
    "mindsets/cluster3 tangles":
        (0, "e53cb43a2937d3ac91ba5dffe2576317b69b09a5369bd4abd516d6129de92f73"),
    "mindsets/cluster3 certify":
        (0, "ca8961b019f9bbc5f4536c6d2c2aedd11b364ed0ecdc3bf58a80205af5404b49"),
    "mindsets/cluster3 certify-dot":
        (0, "ca8961b019f9bbc5f4536c6d2c2aedd11b364ed0ecdc3bf58a80205af5404b49"),
}


# the sha256 of the bytes written, where an output inlines a sepsys/v2 system
V2_SHA256 = {
    "k4/blocks3 build":
        "37a9d3d154f0e3634e0960b08475782b1e3f35bcd73cbed1e93d6df5099d8526",
    "mindsets/cluster3 build":
        "f8f0f3eca085b14842ec4188ff05c49f0ce1e2dcd66be4642e39945e7ca24211",
    "p5/blocks3 build":
        "6d0cb871e2efdbf162bd2f242eaf0b26424225fd1f0b887637775ba57e3225e7",
    "p5/blocks3 certify":
        "00f0d14a603e76fe1fcaf508006620e7bf60205d901ec3a82b39ed99433fc12e",
    "six_similarity/cluster2 build":
        "35f43d1fd58e9e7e066121f7b8979a56eb7a47d340248dd555c25631f1b39cc0",
    "six_similarity/cluster3 build":
        "1d01b53e9fb217480195c27976c5b31301a88ff7fe3e9a7557fc5a360a740359",
    "two_k4/blocks3 build":
        "7b0152d86248ebf813b75783f165911eb13d3ac64efe14069cc98a61fb00a815",
}


def expanded(data: bytes) -> bytes:
    """A JSON output as written with its sepsys/v2 systems expanded; a
    Graphviz output as it is."""
    if data.startswith(b"digraph"):
        return data
    return (dump_json(expand_systems(json.loads(data))) + "\n").encode()


def test_every_input_and_command_is_pinned():
    assert sorted(OUTPUT_SHA256) == sorted(f"{i} {c}" for i in INPUTS
                                           for c in COMMANDS)


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_command_writes_its_pinned_output(name, tmp_path):
    inp, command = name.split()
    args = [str(FIXTURES / a) if a.endswith((".edges", ".csv")) else a
            for a in INPUTS[inp]]
    out = tmp_path / "out"
    code = main([*COMMANDS[command], *args, "--out", str(out)])
    data = out.read_bytes()
    assert (code, hashlib.sha256(expanded(data)).hexdigest()) == \
        OUTPUT_SHA256[name]
    assert hashlib.sha256(data).hexdigest() == \
        V2_SHA256.get(name, OUTPUT_SHA256[name][1])
    assert (b'"sepsys/v2"' in data) == (name in V2_SHA256)


# the sha256 of report/v2 of the rows x cols grid under blocks:3
GRID_SHA256 = {
    (4, 5): "78cd26de8acacafcc807797cabe099ea0073b35215f0e19d673176b35b43921a",
    (5, 5): "eda0203ee4a2bd020dee0cebb0e68bb475bcfc572427e847d8763b55b47233f7",
}


@pytest.mark.parametrize("rows, cols", sorted(GRID_SHA256))
def test_grid_reports_keep_their_bytes(rows, cols):
    system = tf.graph_system(grid_graph(rows, cols), 3)
    report = tf.pipeline(system, tf.make_blocks(3, system))
    assert hashlib.sha256(dump_report(report).encode()).hexdigest() == \
        GRID_SHA256[rows, cols]
