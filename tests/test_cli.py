"""Command-line exit codes, file round-trips, and byte determinism."""

import argparse
import json
import sys

import pytest

import tangleforge as tf
from tangleforge.cli import main, make_parser

from conftest import FIXTURES, M3, faults_of, lattice_times_chain


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def standalone(report_text, name):
    """A top-level tree of a report/v2, with the report's system added as
    its ``system_ref``."""
    report = json.loads(report_text)
    return {**report[name], "system_ref": report["system"]}


def test_build_k4_reports_one_tangle(tmp_path):
    code, text = run(tmp_path, "build",
                     "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3")
    assert code == 0
    report = json.loads(text)
    assert report["format"] == "report/v2"
    assert len(report["tangles"]) == 1
    assert not any(level["f_tree"] for level in report["per_k"])


def test_build_p5_reports_an_all_forbidden_tree(tmp_path):
    code, text = run(tmp_path, "build",
                     "--graph", str(FIXTURES / "p5.edges"),
                     "--family", "blocks:3")
    assert code == 0
    report = json.loads(text)
    assert report["tangles"] == []
    assert report["per_k"][-1]["f_tree"]
    assert report["per_k"][-1]["certificates"]


def test_build_similarity_shows_cluster_tangles_per_level(tmp_path):
    code, text = run(tmp_path, "build",
                     "--similarity", str(FIXTURES / "six_similarity.csv"),
                     "--family", "cluster:3")
    assert code == 0
    report = json.loads(text)
    by_k = {lv["k"]: lv for lv in report["per_k"]}
    assert len(by_k[2.0]["tangles"]) == 2


def test_certify_exit_codes(tmp_path):
    code, _ = run(tmp_path, "certify",
                  "--graph", str(FIXTURES / "k4.edges"), "--family", "blocks:3")
    assert code == 0
    code, text = run(tmp_path, "certify",
                     "--graph", str(FIXTURES / "p5.edges"), "--family", "blocks:3")
    assert code == 1
    payload = json.loads(text)
    assert payload["tangle_exists"] is False
    assert payload["certificates"]


def test_certify_checks_its_tree_once(tmp_path, monkeypatch):
    # As in pipeline, the built tree is checked once; its tangles and its
    # reduction then take that verdict.  Every module binding the check is
    # watched.
    seen = []
    for name in ("tangleforge.tree", "tangleforge.build"):
        module = sys.modules[name]

        def counting(tree, family, _check=module.is_structure_tree):
            seen.append(tree)
            return _check(tree, family)

        monkeypatch.setattr(module, "is_structure_tree", counting)
    code, _ = run(tmp_path, "certify", "--graph", str(FIXTURES / "p5.edges"),
                  "--family", "blocks:3")
    assert code == 1
    assert len(seen) == 1


def test_certify_cluster_level_switch(tmp_path):
    code, text = run(tmp_path, "certify",
                     "--similarity", str(FIXTURES / "six_similarity.csv"),
                     "--family", "cluster:3", "--k", "2")
    assert code == 0
    assert len(json.loads(text)["tangles"]) == 2
    assert json.loads(text)["level"] == "2"  # as written on the command line
    code, _ = run(tmp_path, "certify",
                  "--similarity", str(FIXTURES / "six_similarity.csv"),
                  "--family", "cluster:3")
    assert code == 1


def test_validate_names_the_broken_axiom(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format": "sepsys/v1", "count": 2, "orders": [1, 1],
        "leq": [[0, 2], [2, 0], [3, 1], [1, 3]],
    }))
    code, text = run(tmp_path, "validate", "--system", str(bad))
    assert code == 2
    payload = json.loads(text)
    assert any(issue["axiom"] == "antisymmetry" for issue in payload["issues"])


def test_validate_names_a_failed_lattice_law(tmp_path):
    bad = tmp_path / "m3x2.json"
    bad.write_text(tf.dump_system(lattice_times_chain(*M3)))
    code, text = run(tmp_path, "validate", "--system", str(bad))
    assert code == 2
    payload = json.loads(text)
    assert [issue["axiom"] for issue in payload["issues"]] == ["distributivity"]


def test_validate_accepts_ground_inputs(tmp_path):
    code, text = run(tmp_path, "validate",
                     "--graph", str(FIXTURES / "k4.edges"), "--k", "3")
    assert code == 0 and json.loads(text)["ok"]


def test_tangles_subcommand(tmp_path):
    code, text = run(tmp_path, "tangles",
                     "--graph", str(FIXTURES / "two_k4.edges"),
                     "--family", "blocks:3")
    assert code == 0
    assert len(json.loads(text)) == 2


def test_oracle_subcommand_and_budget(tmp_path):
    code, text = run(tmp_path, "oracle",
                     "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3", "--budget", "16")
    assert code == 0 and len(json.loads(text)) == 1
    code, _ = run(tmp_path, "oracle",
                  "--graph", str(FIXTURES / "two_k4.edges"),
                  "--family", "blocks:3", "--budget", "4")
    assert code == 3


def test_a_graph_over_the_separation_limit_exits_3(tmp_path, capsys):
    # with no --k and no blocks family every separation of the path is
    # asked for; its separators alone outnumber the limit
    path = tmp_path / "path20.edges"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(19)))
    code, _ = run(tmp_path, "build", "--graph", str(path))
    assert code == 3
    assert "graph of 20 vertices has at least 6196 separations of order " \
        "below inf, over the limit of 4096" in capsys.readouterr().err


def test_answers_over_the_separation_limit_exit_3(tmp_path, capsys):
    # 14 persons answering 4,097 distinct questions, one per bit pattern of
    # the first 13 persons
    path = tmp_path / "answers.csv"
    path.write_text("".join(",".join(str(j >> i & 1) for j in range(4097)) + "\n"
                            for i in range(14)))
    code, _ = run(tmp_path, "build", "--answers", str(path))
    assert code == 3
    assert "ground of 14 points has 4097 separations, over the limit of " \
        "4096" in capsys.readouterr().err


def test_a_system_over_the_separation_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(OVER_THE_SEPARATION_LIMIT))
    code, _ = run(tmp_path, "build", "--system", str(path))
    assert code == 3
    assert "sepsys/v1 system has 4097 separations, over the limit of 4096" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "tangles", "certify"])
def test_a_build_over_the_node_cap_exits_3(command, tmp_path, capsys,
                                           monkeypatch):
    # with no family, 6 independent separations grow all 127 nodes
    monkeypatch.setattr(sys.modules["tangleforge.build"], "MAX_TREE_NODES", 50)
    path = tmp_path / "independent6.json"
    path.write_text(json.dumps(
        {"format": "sepsys/v1", "count": 6, "orders": [1.0] * 6}))
    code, _ = run(tmp_path, command, "--system", str(path))
    assert code == 3
    assert "tree grew to 51 nodes, over the limit of 50" \
        in capsys.readouterr().err


def test_restrict_reduce_round_trip_through_files(tmp_path):
    code, text = run(tmp_path, "build",
                     "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3")
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(standalone(text, "tree_full"), sort_keys=True))

    code, text = run(tmp_path, "restrict", "--tree", str(tree_path), "--k", "2")
    assert code == 0
    restricted = tf.tree.load_tree(text)
    assert tf.is_ordered(restricted)

    code, text = run(tmp_path, "reduce", "--tree", str(tree_path),
                     "--family", "blocks:3")
    assert code == 0
    payload = json.loads(text)
    reduced = tf.tree.tree_from_json_dict(payload["tree"])
    fam = tf.make_blocks(3, reduced.system)
    assert tf.is_structure_tree(reduced, fam)


def test_loaded_tree_passes_the_same_predicates(tmp_path):
    code, text = run(tmp_path, "build",
                     "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3")
    t = tf.tree.tree_from_json_dict(standalone(text, "tree_full"))
    fam = tf.make_blocks(3, t.system)
    assert tf.is_separation_tree(t)
    assert tf.is_structure_tree(t, fam)
    assert set(faults_of(t, fam).values()) == {None}


def test_export_dot(tmp_path):
    code, text = run(tmp_path, "build",
                     "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3")
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(standalone(text, "tree_reduced"),
                                    sort_keys=True))
    code, text = run(tmp_path, "export-dot", "--tree", str(tree_path),
                     "--family", "blocks:3")
    assert code == 0 and text.startswith("digraph")


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = main(["build", "--graph", str(FIXTURES / "p5.edges"),
                     "--family", "blocks:3", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_exactly_one_input_required(tmp_path):
    code = main(["build", "--family", "blocks:3",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_certify_with_the_empty_family_finds_a_tangle(tmp_path):
    system_path = tmp_path / "sys.json"
    system_path.write_text(json.dumps({
        "format": "sepsys/v1", "count": 2, "orders": [1.0, 2.0],
        "leq": [[2, 0], [1, 3]],
    }))
    code, text = run(tmp_path, "certify", "--system", str(system_path),
                     "--family", "empty")
    assert code == 0
    assert json.loads(text)["tangle_exists"] is True


def test_restrict_requires_a_threshold(tmp_path):
    code, text = run(tmp_path, "build",
                     "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3")
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(standalone(text, "tree_full")))
    assert main(["restrict", "--tree", str(tree_path)]) == 2


@pytest.mark.parametrize("command", [["restrict", "--k", "2"],
                                     ["reduce", "--family", "blocks:3"],
                                     ["export-dot", "--family", "blocks:3"]],
                         ids=lambda argv: argv[0])
def test_a_tree_cut_from_a_report_needs_a_system_ref(command, tmp_path, capsys):
    code, text = run(tmp_path, "build", "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3")
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(json.loads(text)["per_k"][-1]["tree"]))
    code, _ = run(tmp_path, *command, "--tree", str(tree_path))
    assert code == 2
    assert "lacks the field 'system_ref'" in capsys.readouterr().err


def test_certify_below_the_vertex_count_writes_no_degenerate_flag(tmp_path):
    # blocks:5 on k4 admits the degenerate (V, V) of order 4; below k = 3
    # the certificate tree's system holds no degenerate separation
    code, text = run(tmp_path, "certify", "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:5", "--k", "3")
    assert code == 1
    assert "allow_degenerate" not in json.loads(text)["certificate_tree"]["system_ref"]



K4 = str(FIXTURES / "k4.edges")
SIX = str(FIXTURES / "six_similarity.csv")
UNREAD_K = ("{} reads --k only as the order bound of a --graph ground "
            "without a blocks family")

# sepsys/v2 systems with a nested payload each: the 2-point full bipartition
# universe with its sets ground (ids 0..3 the sides {}, {0, 1}, {0}, {1}),
# one vertex separation of the path 0-1-2, and the universe's order alone
SETS = {"format": "sepsys/v2", "count": 2, "orders": [0.0, 1.0],
        "lattice": True, "distributive": True,
        "ground": {"kind": "sets", "size": 2, "sides": [[], [0, 1], [0], [1]]}}
GRAPH = {"format": "sepsys/v2", "count": 1, "orders": [1.0],
         "ground": {"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2]],
                    "sides": [[1, 2], [0, 1]]}}
ORDER = {"format": "sepsys/v2", "count": 2, "orders": [0.0, 1.0],
         "leq": [[0, 1], [0, 2], [0, 3], [2, 1], [3, 1]],
         "lattice": True, "distributive": True}
# ... and the universe and the path as sepsys/v1 wrote them: the order with
# the join and meet tables, and the path's ground as one side pair [A, B]
TABLES = {"format": "sepsys/v1", "count": 2, "orders": [0.0, 1.0],
          "leq": ORDER["leq"], "distributive": True,
          "universe": {"join": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 1],
                                [3, 1, 1, 3]],
                       "meet": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0],
                                [0, 3, 0, 3]]}}
GRAPH_V1 = {"format": "sepsys/v1", "count": 1, "orders": [1.0], "leq": [],
            "ground": {"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2]],
                       "sides": [[[0, 1], [1, 2]]]}}
V1_UNIVERSE = ("sepsys/v1 'universe' tables are no longer read: write the "
               "system as sepsys/v2, with \"lattice\": true in their place")
V1_GROUND = "sepsys/v1 'ground' is no longer read"


def edited(base, part, **fields):
    """JSON text of ``base`` with ``fields`` set in its ``part`` (None: the
    top level); a None value drops the field."""
    d = json.loads(json.dumps(base))
    target = d if part is None else d[part]
    for name, value in fields.items():
        if value is None:
            del target[name]
        else:
            target[name] = value
    return json.dumps(d)


OVER_THE_SEPARATION_LIMIT = {"format": "sepsys/v1", "count": 4097,
                             "orders": [1.0] * 4097}
SETS_BUILD = ["build", "--system", "{path}", "--family", "cluster:1"]
GRAPH_BUILD = ["build", "--system", "{path}", "--family", "blocks:2"]
RESTRICT = ["restrict", "--k", "1", "--tree", "{path}"]
EXPORT_DOT = ["export-dot", "--tree", "{path}"]


def tree_text(*nodes, root=0):
    """tree/v1 text over the one-separation GRAPH system with the given
    (id, parent, edge_label) nodes; by default the root split once."""
    nodes = nodes or ((0, None, None), (1, 0, 0), (2, 0, 1))
    return json.dumps({"format": "tree/v1", "root": root,
                       "nodes": [{"id": v, "parent": p, "edge_label": o}
                                 for v, p, o in nodes],
                       "system_ref": GRAPH})


SPLIT = ((0, None, None), (1, 0, 0))
DETACHED_CYCLE = (*SPLIT, (2, 0, 1), (3, 4, 0), (4, 3, 1))


@pytest.mark.parametrize("argv, name, text, cause", [
    pytest.param(["build", "--graph", K4, "--family", "blocks"], None, None, "'k'",
                 id="family-without-parameter"),
    pytest.param(["build", "--graph", K4, "--family", "blocks:x"], None, None,
                 "'k', got 'x'", id="family-parameter-not-an-integer"),
    pytest.param(["build", "--graph", K4, "--family", "{path}"], "family.json",
                 json.dumps({"format": "family/v1", "kind": "blocks"}), "'k'",
                 id="family-file-without-k"),
    pytest.param(["build", "--graph", "{path}"], "missing.edges", None, "missing.edges",
                 id="missing-graph-file"),
    pytest.param(["build", "--similarity", "{path}"], "sim.csv",
                 "0,1,1\n1,0,oops\n1,1,0\n", "row 1, column 2",
                 id="similarity-cell-not-a-number"),
    pytest.param(["build", "--answers", "{path}"], "answers.csv", "1,0\n0,1\nyes,0\n",
                 "row 2, column 0", id="answers-cell-not-a-number"),
    pytest.param(["build", "--system", "{path}"], "sys.json",
                 json.dumps({"format": "sepsys/v1", "count": 1,
                             "orders": [1.0], "leq": [[0]]}),
                 "leq pair [0]", id="leq-pair-of-one"),
    pytest.param(["build", "--system", "{path}"], "sys.json", "{not json",
                 "sys.json is not valid JSON", id="system-not-json"),
    pytest.param(["build", "--system", "{path}"], "sys.json",
                 json.dumps({"format": "sepsys/v1", "orders": []}), "'count'",
                 id="system-without-count"),
    pytest.param(["build", "--graph", K4, "--family", "{path}"], "family.json",
                 "[1]", "must be a JSON object", id="family-file-not-an-object"),
    pytest.param(["restrict", "--k", "1", "--tree", "{path}"], "tree.json",
                 "{not json", "tree.json is not valid JSON",
                 id="tree-not-json"),
    pytest.param(["build", "--graph", "{path}"], "bad.edges", "0 1\n0 a\n",
                 "line 2", id="edge-list-token-not-an-integer"),
    pytest.param(["build", "--graph", "{path}"], "bad.edges", "0 1\nabc\n",
                 "line 2", id="edge-list-vertex-count-not-an-integer"),
    # a sepsys/v1 'universe' is refused by its field, whatever its tables
    pytest.param(SETS_BUILD, "sys.json", edited(TABLES, None, universe={}),
                 V1_UNIVERSE, id="universe-without-join"),
    pytest.param(SETS_BUILD, "sys.json",
                 edited(TABLES, "universe", join=[[0, 1], [1]]),
                 V1_UNIVERSE, id="join-ragged"),
    pytest.param(SETS_BUILD, "sys.json", edited(TABLES, "universe", join="x"),
                 V1_UNIVERSE, id="join-not-a-table"),
    pytest.param(SETS_BUILD, "sys.json", json.dumps(TABLES), V1_UNIVERSE,
                 id="v1-universe"),
    pytest.param(GRAPH_BUILD, "sys.json", json.dumps(GRAPH_V1), V1_GROUND,
                 id="v1-ground"),
    pytest.param(SETS_BUILD, "sys.json",
                 edited(TABLES, None, universe=None, lattice=True),
                 "sepsys/v1 has no field 'lattice'", id="v1-lattice"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, None, leq=ORDER["leq"]),
                 "sepsys/v2 system holds both 'ground' and 'leq'",
                 id="v2-ground-and-leq"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, None, ground=None),
                 "sepsys/v2 system lacks the field 'ground' or 'leq'",
                 id="v2-neither-ground-nor-leq"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, "ground", size=None),
                 "sets ground lacks the field 'size'",
                 id="sets-ground-without-size"),
    pytest.param(GRAPH_BUILD, "sys.json", edited(GRAPH, "ground", edges=None),
                 "graph ground lacks the field 'edges'",
                 id="graph-ground-without-edges"),
    pytest.param(SETS_BUILD, "sys.json",
                 edited(SETS, "ground", sides=[[], ["a"], [0], [1]]),
                 "side ['a'] must list points", id="side-point-not-an-integer"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, "ground", sides=[[]]),
                 "has 1 sides for 4 oriented ids", id="one-side-for-two"),
    pytest.param(SETS_BUILD, "sys.json",
                 edited(SETS, "ground", sides=[[], [5], [0], [1]]),
                 "side [5] must list points of 0..1",
                 id="side-point-outside-the-ground"),
    pytest.param(SETS_BUILD, "sys.json", edited(ORDER, None, leq=5),
                 "'leq' must be a list", id="leq-not-a-list"),
    pytest.param(GRAPH_BUILD, "sys.json",
                 edited(GRAPH, "ground", edges=[[0, 1.5]]),
                 "edge [0, 1.5] must list 2 points of 0..2",
                 id="edge-vertex-not-an-integer"),
    pytest.param(["build", "--graph", K4, "--family", "blocks:3", "--k", "abc"],
                 None, None, "--k must be a number, got 'abc'",
                 id="build-k-not-a-number"),
    pytest.param(["tangles", "--graph", K4, "--k", "abc"], None, None,
                 "--k must be a number, got 'abc'", id="tangles-k-not-a-number"),
    pytest.param(["certify", "--graph", K4, "--family", "blocks:3", "--k", "abc"],
                 None, None, "--k must be a number, got 'abc'",
                 id="certify-k-not-a-number"),
    pytest.param(["build", "--graph", K4, "--family", "blocks:3", "--k", "nan"],
                 None, None, "--k must be a number, got 'nan'", id="build-k-nan"),
    pytest.param(["certify", "--graph", K4, "--family", "blocks:3", "--k", "NaN"],
                 None, None, "--k must be a number, got 'NaN'",
                 id="certify-k-nan"),
    pytest.param(SETS_BUILD, "sys.json",
                 edited(TABLES, "universe", join=[[0, 1, 2, 3], [1, 1, 1, 1],
                                                  [2, 1, 2, 1], [3, 1, 1, 1e30]]),
                 V1_UNIVERSE, id="join-beyond-int64"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, "ground", size=1e30),
                 "ground of size 1000000000000000019884624838656 (at most 65536)",
                 id="ground-size-beyond-the-limit"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, "ground", size=2.5),
                 "sets ground 'size' must be an integer, got 2.5",
                 id="ground-size-2.5"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, "ground", size="2"),
                 "sets ground 'size' must be an integer, got '2'",
                 id="ground-size-a-string"),
    pytest.param(GRAPH_BUILD, "sys.json", edited(GRAPH, "ground", n=4.0),
                 "graph ground 'n' must be an integer, got 4.0",
                 id="graph-ground-n-4.0"),
    pytest.param(["build", "--graph", "{path}"], "huge.edges",
                 "1000000000000\n0 1\n", "edge list of 1000000000000 "
                 "vertices; graphs are limited to 65536",
                 id="edge-list-vertex-count-beyond-the-limit"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT[:1], (1, 0, 7), (2, 0, 1)),
                 "node 1 has the edge label 7", id="restrict-label-7"),
    pytest.param(EXPORT_DOT, "tree.json", tree_text(*SPLIT[:1], (1, 0, 7), (2, 0, 1)),
                 "node 1 has the edge label 7", id="export-dot-label-7"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT, (2, 0, -1)),
                 "node 2 has the edge label -1", id="restrict-label-minus-1"),
    pytest.param(EXPORT_DOT, "tree.json", tree_text(*SPLIT, (2, 0, -1)),
                 "node 2 has the edge label -1", id="export-dot-label-minus-1"),
    pytest.param(RESTRICT, "tree.json", tree_text(*DETACHED_CYCLE),
                 "node 3 cannot be reached from root 0",
                 id="restrict-detached-cycle"),
    pytest.param(EXPORT_DOT, "tree.json", tree_text(*DETACHED_CYCLE),
                 "node 3 cannot be reached from root 0",
                 id="export-dot-detached-cycle"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT, (2, 0, 1), (3, None, 0)),
                 "node 3 cannot be reached from root 0", id="second-parentless-node"),
    pytest.param(RESTRICT, "tree.json", tree_text((0, None, 1), *SPLIT[1:]),
                 "root 0 carries the edge label 1", id="label-on-the-root"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT, (2, 0, None)),
                 "node 2 has no edge label", id="non-root-without-label"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT, (1, 0, 1)),
                 "tree/v1 node 1 appears twice", id="duplicate-node-id"),
    pytest.param(RESTRICT, "tree.json",
                 json.dumps({**json.loads(tree_text()), "system_ref": None}),
                 "tree/v1 'system_ref' must be a JSON object, got NoneType",
                 id="system-ref-null"),
    pytest.param(["oracle", "--graph", K4, "--family", "blocks:3", "--budget",
                  "-1"], None, None, "--budget must not be negative, got -1",
                 id="budget-negative"),
    # numbers that are not JSON integers are refused, not truncated
    pytest.param(SETS_BUILD, "sys.json",
                 edited(TABLES, "universe", join=[[0.5, 1, 2, 3], *TABLES[
                     "universe"]["join"][1:]]),
                 V1_UNIVERSE, id="join-entry-0.5"),
    pytest.param(SETS_BUILD, "sys.json",
                 edited(TABLES, "universe", meet=[["0", 0, 0, 0], *TABLES[
                     "universe"]["meet"][1:]]),
                 V1_UNIVERSE, id="meet-entry-a-string"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, None, count=2.5),
                 "'count' must be an integer", id="count-2.5"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, None, orders=[0.0, "1"]),
                 "'orders' a list of numbers", id="order-a-string"),
    pytest.param(SETS_BUILD, "sys.json", edited(ORDER, None, leq=[[0.25, "1"]]),
                 "leq pair [0.25, '1'] must hold integers",
                 id="leq-pair-of-non-integers"),
    pytest.param(SETS_BUILD, "sys.json", edited(SETS, None, distributive="false"),
                 "'distributive' must be true or false, got 'false'",
                 id="distributive-a-string"),
    pytest.param(GRAPH_BUILD, "sys.json",
                 edited(GRAPH, None, allow_degenerate="false"),
                 "'allow_degenerate' must be true or false, got 'false'",
                 id="allow-degenerate-a-string"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT, (2.5, 0, 1)),
                 "tree/v1 node id must be an integer, got 2.5",
                 id="node-id-2.5"),
    pytest.param(EXPORT_DOT, "tree.json", tree_text(*SPLIT, (2, 0, "1")),
                 "node 2 edge_label must be an integer, got '1'",
                 id="edge-label-a-string"),
    pytest.param(RESTRICT, "tree.json", tree_text(*SPLIT, (2, 0.0, 1)),
                 "node 2 parent must be an integer, got 0.0",
                 id="parent-0.0"),
    pytest.param(RESTRICT, "tree.json", tree_text(root=0.0),
                 "tree/v1 root must be an integer, got 0.0", id="root-0.0"),
    pytest.param(["build", "--graph", K4, "--family", "{path}"], "family.json",
                 json.dumps({"format": "family/v1", "kind": "blocks", "k": 2.5}),
                 "needs an integer 'k', got 2.5", id="family-file-k-2.5"),
    pytest.param(["build", "--similarity", str(FIXTURES / "six_similarity.csv"),
                  "--family", "{path}"], "family.json",
                 json.dumps({"format": "family/v1", "kind": "cluster", "n": "3"}),
                 "needs an integer 'n', got '3'", id="family-file-n-a-string"),
    # the KIND:PARAM form converts PARAM itself and names it as given
    pytest.param(["build", "--graph", K4, "--family", "blocks:2.5"], None, None,
                 "needs an integer 'k', got '2.5'", id="family-parameter-2.5"),
    # a parameter below 1 is refused by name, before any system is built
    # over it (blocks) or any leaf blamed for it (cluster)
    pytest.param(["build", "--graph", K4, "--family", "blocks:0"], None, None,
                 "needs 'k' of at least 1, got 0", id="family-parameter-k-0"),
    pytest.param(["build", "--graph", K4, "--family", "blocks:-3"], None, None,
                 "needs 'k' of at least 1, got -3", id="family-parameter-k-minus-3"),
    pytest.param(["build", "--similarity", SIX, "--family", "cluster:0"], None,
                 None, "needs 'n' of at least 1, got 0", id="family-parameter-n-0"),
    pytest.param(["build", "--similarity", SIX, "--family", "cluster:-1"], None,
                 None, "needs 'n' of at least 1, got -1",
                 id="family-parameter-n-minus-1"),
    # tangles, oracle and validate read --k only as the order bound of a
    # --graph ground without a blocks family; certify and restrict read one
    pytest.param(["tangles", "--similarity", SIX, "--family", "cluster:3",
                  "--k", "2"], None, None, UNREAD_K.format("tangles"),
                 id="tangles-k-on-a-similarity"),
    pytest.param(["tangles", "--similarity", SIX, "--family", "cluster:3",
                  "--k", "1.5"], None, None, UNREAD_K.format("tangles"),
                 id="tangles-k-1.5-on-a-similarity"),
    pytest.param(["tangles", "--graph", K4, "--family", "blocks:3", "--k", "1"],
                 None, None, UNREAD_K.format("tangles"),
                 id="tangles-k-with-blocks"),
    pytest.param(["tangles", "--answers", str(FIXTURES / "mindsets.csv"),
                  "--family", "cluster:3", "--k", "2"], None, None,
                 UNREAD_K.format("tangles"), id="tangles-k-on-answers"),
    pytest.param(["oracle", "--similarity", SIX, "--family", "cluster:3",
                  "--k", "2"], None, None, UNREAD_K.format("oracle"),
                 id="oracle-k-on-a-similarity"),
    pytest.param(["oracle", "--graph", K4, "--family", "blocks:3", "--k", "2"],
                 None, None, UNREAD_K.format("oracle"), id="oracle-k-with-blocks"),
    pytest.param(["validate", "--system", "{path}", "--k", "1"], "sys.json",
                 json.dumps(SETS), UNREAD_K.format("validate"),
                 id="validate-k-on-a-system"),
    pytest.param(["validate", "--graph", K4, "--family", "blocks:3", "--k", "2"],
                 None, None, UNREAD_K.format("validate"),
                 id="validate-k-with-blocks"),
    # validate, like build, reads exactly one ground
    pytest.param(["validate", "--system", "{path}", "--graph", K4], "sys.json",
                 json.dumps(SETS), "exactly one of --graph/--similarity/"
                 "--answers/--system is required", id="validate-system-and-graph"),
    pytest.param(["certify", "--graph", K4, "--family", "blocks:3", "--k", "2",
                  "--k", "3"], None, None, "certify reads one --k, got 2",
                 id="certify-two-k"),
    pytest.param(["certify", "--similarity", SIX, "--family", "cluster:3",
                  "--k", "2", "--k", "4", "--k", "6"], None, None,
                 "certify reads one --k, got 3", id="certify-three-k"),
    pytest.param(["restrict", "--k", "1", "--k", "2", "--tree", "{path}"],
                 "tree.json", tree_text(), "restrict reads one --k, got 2",
                 id="restrict-two-k"),
    # an output path that cannot be written is bad input too, not a certificate
    pytest.param(["build", "--graph", K4, "--family", "blocks:2", "--out", "{path}"],
                 "missing-directory/x.json", None,
                 "x.json: No such file or directory",
                 id="out-in-a-missing-directory"),
])
def test_bad_inputs_exit_2_with_a_named_cause(argv, name, text, cause,
                                              tmp_path, capsys):
    path = tmp_path / (name or "unused")
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "{path}" else a for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("text, cause", [
    pytest.param(edited(SETS, "ground", sides=[[], ["a"], [0], [1]]),
                 "side ['a'] must list points", id="side-point-not-an-integer"),
    # a sepsys/v1 'universe' is refused by its field, whatever its tables
    pytest.param(edited(TABLES, None, universe={}), V1_UNIVERSE,
                 id="universe-without-join"),
    pytest.param(edited(TABLES, "universe", meet=[[1e30] * 4] * 4),
                 V1_UNIVERSE, id="meet-beyond-int64"),
    pytest.param(edited(TABLES, "universe", meet=[[0, 0, 0, 0]] * 3),
                 V1_UNIVERSE, id="meet-of-three-rows"),
    pytest.param(edited(TABLES, "universe", join=[[0, 1, 2, 4], *TABLES[
        "universe"]["join"][1:]]), V1_UNIVERSE, id="join-entry-out-of-range"),
    pytest.param(edited(TABLES, "universe", meet=[[0, 0, 0, 0], [0, 1, 2, 3],
                                                  [0, 2, 2, 0], [0, 3, 3, 3]]),
                 V1_UNIVERSE, id="meet-not-the-mirror-of-join"),
    pytest.param(json.dumps(GRAPH_V1), V1_GROUND, id="v1-ground"),
    pytest.param(edited(TABLES, None, universe=None, lattice=True),
                 "sepsys/v1 has no field 'lattice'", id="v1-lattice"),
    pytest.param(edited(SETS, None, leq=ORDER["leq"]),
                 "sepsys/v2 system holds both 'ground' and 'leq'",
                 id="v2-ground-and-leq"),
    pytest.param(edited(SETS, None, ground=None),
                 "sepsys/v2 system lacks the field 'ground' or 'leq'",
                 id="v2-neither-ground-nor-leq"),
    pytest.param(json.dumps(OVER_THE_SEPARATION_LIMIT),
                 "4097 separations, over the limit of 4096",
                 id="over-the-separation-limit"),
])
def test_validate_reports_a_malformed_payload(text, cause, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(text)
    code, out = run(tmp_path, "validate", "--system", str(path))
    assert code == 2
    assert cause in json.loads(out)["issues"][0]


@pytest.mark.parametrize("base, argv", [
    (SETS, SETS_BUILD), (GRAPH, GRAPH_BUILD),
    (ORDER, ["build", "--system", "{path}", "--family", "strong-profile"])])
def test_the_unedited_payloads_build(base, argv, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(base))
    assert main([str(path) if a == "{path}" else a for a in argv]
                + ["--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("command", ["reduce", "restrict", "export-dot"])
def test_a_tree_over_a_v1_universe_exits_2_naming_the_field(command, tmp_path,
                                                            capsys):
    # a tree/v1 file whose system_ref is a sepsys/v1 table lattice, as such
    # files were written before
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({**json.loads(tree_text()),
                                "system_ref": TABLES}))
    extra = {"reduce": ["--family", "strong-profile"], "restrict": ["--k", "1"],
             "export-dot": []}[command]
    assert main([command, "--tree", str(path), *extra,
                 "--out", str(tmp_path / "out.json")]) == 2
    assert V1_UNIVERSE in capsys.readouterr().err


# -- the flags each command reads --------------------------------------------------

GROUND_FLAGS = ["--graph", "--similarity", "--answers", "--system", "--family",
                "--k", "--out"]
ROWS = {
    "validate": GROUND_FLAGS,
    "build": GROUND_FLAGS + ["--format"],
    "tangles": GROUND_FLAGS,
    "certify": GROUND_FLAGS + ["--format"],
    "oracle": GROUND_FLAGS + ["--budget"],
    "restrict": ["--tree", "--k", "--out"],
    "reduce": ["--tree", "--family", "--out"],
    "export-dot": ["--tree", "--family", "--out"],
}
UNREAD = [(command, flag) for command in ROWS
          for flag in sorted(set().union(*ROWS.values()) - set(ROWS[command]))]
# the values each unread flag is given: ones its reading commands accept,
# so that `tangles --format dot` and `export-dot --format json` are tried
VALUES = {"--format": ("json", "dot"), "--budget": ("1",), "--k": ("2",)}


def test_each_command_takes_exactly_the_flags_its_handler_reads():
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(ROWS)
    for command, parser in sub.choices.items():
        assert [o for a in parser._actions for o in a.option_strings
                if o not in ("-h", "--help")] == ROWS[command], command
    assert sum(map(len, ROWS.values())) == 47


@pytest.mark.parametrize("command, flag", UNREAD,
                         ids=[f"{c}{f}" for c, f in UNREAD])
def test_a_flag_the_command_does_not_read_exits_2(command, flag, capsys):
    needed = ["--tree", "tree.json"] if "--tree" in ROWS[command] else []
    for value in VALUES.get(flag, ("x",)):
        with pytest.raises(SystemExit) as stop:
            main([command, *needed, flag, value])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
