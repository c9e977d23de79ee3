"""report/v2: the system written once, each level's system rebuilt from k.

A report/v2 holds its system once, as ``system``; its trees are tree/v1
objects without ``system_ref``.  ``expand_to_v1`` turns a report/v2 dict
back into the report/v1 layout, which inlined a system into every tree, from
the dict alone.  ``write_v1`` is the report/v1 writer, kept here and nowhere
in the library, so that the two layouts can be compared byte for byte.
"""

import json

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.build import certificate_entry, dump_report, tangle_entry
from tangleforge.grounds import load_answers_csv, load_similarity_csv
from tangleforge.system import dump_json
from tangleforge.tree import tree_to_json_dict

from conftest import FIXTURES, load_nonrich_fixture, two_cluster_similarity


def write_v1(report) -> dict:
    """The report/v1 object of a pipeline run: every tree inlines its
    system as ``system_ref``."""
    def level_entry(lv):
        return {
            "k": lv.k,
            "tree": tree_to_json_dict(lv.reduced if lv.reduced is not None
                                      else lv.tree),
            "structure_ok": lv.structure_ok,
            "tangles": [tangle_entry(lv.tree.system, t) for t in lv.tangles],
            "f_tree": lv.f_tree,
            "certificates": [certificate_entry(lv.tree.system, *c)
                             for c in lv.certificates],
        }

    return {
        "format": "report/v1",
        "family": report.family.to_json_dict(),
        "tree_full": tree_to_json_dict(report.tree_full),
        "tree_reduced": tree_to_json_dict(report.tree_reduced),
        "reduction_steps": [list(s) for s in report.trace.steps],
        "tangles": [tangle_entry(report.system, t) for t in report.tangles],
        "certificates": [certificate_entry(report.system, *c)
                         for c in report.certificates],
        "per_k": [level_entry(lv) for lv in report.levels],
    }


def expand_to_v1(d: dict) -> dict:
    """The report/v1 object of a report/v2 dict: ``system`` inlined into
    both top-level trees, and its restriction below each level's k into
    that level's tree."""
    system = tf.from_json_dict(d["system"])
    out = {key: value for key, value in d.items() if key != "system"}
    out["format"] = "report/v1"
    for name in ("tree_full", "tree_reduced"):
        out[name] = {**d[name], "system_ref": d["system"]}
    out["per_k"] = [
        {**lv, "tree": {**lv["tree"], "system_ref": tf.to_json_dict(
            system.restrict_below(lv["k"]))}}
        for lv in d["per_k"]]
    return out


# -- inputs: the fixtures, as the CLI loads them, and the demos' inputs ---------


def _graph(name):
    return tf.Graph.from_edge_list((FIXTURES / name).read_text())


def _similarity(name):
    sim = load_similarity_csv((FIXTURES / name).read_text())
    return tf.bipartition_system(tf.full_bipartition_ground(len(sim), similarity=sim))


def _blocks(graph, k):
    system = tf.graph_system(graph, k)
    return system, tf.make_blocks(k, system)


def _graph_with(graph, make_family):
    system = tf.graph_system(graph, float("inf"))
    return system, make_family(system)


def _cluster(system, n):
    return system, tf.make_cluster(n, system)


def _demo_split_nobody_needs():
    strict = [(2, 0), (4, 0), (3, 4), (1, 3), (1, 5), (5, 2),
              (1, 4), (1, 0), (1, 2), (3, 0), (5, 0)]
    leq = np.eye(6, dtype=bool)
    for a, b in strict:
        leq[a, b] = True
    system = tf.SeparationSystem(leq, [1.0, 2.0, 2.0])
    return system, tf.make_explicit([{1}], system)


def _demo_nested_pair():
    leq = np.eye(4, dtype=bool)
    leq[2, 0] = leq[1, 3] = True
    return tf.SeparationSystem(leq, orders=[1.0, 2.0]), tf.make_empty()


def _demo_two_clusters():
    similarity = [[1.0 if (u < 3) == (v < 3) else 0.0 for v in range(6)]
                  for u in range(6)]
    return _cluster(tf.bipartition_system(
        tf.full_bipartition_ground(6, similarity)), 3)


def _demo_questionnaire():
    answers = [[1 if p in {0, 1, 2, 3} else 0, 1 if p in {0, 1, 2, 4} else 0,
                1 if p in {0, 1, 2} else 0] for p in range(8)]
    return _cluster(tf.questionnaire_system(answers), 3)


def _demo_universe3():
    system = tf.bipartition_system(tf.full_bipartition_ground(3))
    return system, tf.make_strong_profile(system)


def _mindsets():
    answers = load_answers_csv((FIXTURES / "mindsets.csv").read_text())
    return _cluster(tf.questionnaire_system(answers), 3)


INPUTS = {
    "k4/blocks3": lambda: _blocks(_graph("k4.edges"), 3),
    "p5/blocks3": lambda: _blocks(_graph("p5.edges"), 3),
    "two_k4/blocks3": lambda: _blocks(_graph("two_k4.edges"), 3),
    # k > |V|: the top system holds the degenerate (V, V), low levels do not
    "k4/blocks5": lambda: _blocks(_graph("k4.edges"), 5),
    "p5/blocks6": lambda: _blocks(_graph("p5.edges"), 6),
    "k4/tangle": lambda: _graph_with(_graph("k4.edges"), tf.make_graph_tangle),
    "k4/strong-profile": lambda: _graph_with(_graph("k4.edges"),
                                             tf.make_strong_profile),
    "six_similarity/cluster2": lambda: _cluster(_similarity("six_similarity.csv"), 2),
    "six_similarity/cluster3": lambda: _cluster(_similarity("six_similarity.csv"), 3),
    "mindsets/cluster3": _mindsets,
    "nonrich": load_nonrich_fixture,
    "two-cluster6/cluster3": lambda: _cluster(tf.bipartition_system(
        tf.full_bipartition_ground(6, similarity=two_cluster_similarity())), 3),
    # the demos' inputs; kblocks_in_graphs.py asks blocks:3 of the fixtures
    "demo/two-clusters": _demo_two_clusters,
    "demo/questionnaire": _demo_questionnaire,
    "demo/universe3/strong-profile": _demo_universe3,
    "demo/split-nobody-needs": _demo_split_nobody_needs,
    "demo/nested-pair": _demo_nested_pair,
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def report(request):
    return tf.pipeline(*INPUTS[request.param]())


def test_a_report_writes_its_system_once(report):
    d = tf.report_to_json_dict(report)
    assert d["format"] == "report/v2"
    assert d["system"] == tf.to_json_dict(report.system)
    trees = [d["tree_full"], d["tree_reduced"], *(lv["tree"] for lv in d["per_k"])]
    for tree in trees:
        assert sorted(tree) == ["format", "nodes", "root"]
        assert tree["format"] == "tree/v1"
    # sepsys/v2, with a ground or without; report/v2 keeps its format
    # string, since the inlined system names its own
    text = dump_report(report)
    assert text.count('"format": "sepsys/v2"') == 1
    assert text.count('"format": "sepsys/') == 1


def test_expanded_v2_has_the_bytes_of_v1(report):
    v2 = json.loads(dump_report(report))
    assert dump_json(expand_to_v1(v2)) == dump_json(write_v1(report))


def test_each_level_tree_loads_over_the_system_restricted_below_its_k(report):
    d = json.loads(dump_report(report))
    system = tf.from_json_dict(d["system"])
    family = tf.family_from_json(d["family"], system)
    for name in ("tree_full", "tree_reduced"):
        tree = tf.tree_from_json_dict(d[name], system)
        assert tree_to_json_dict(tree)["nodes"] == d[name]["nodes"]
    for entry in d["per_k"]:
        tree = tf.tree_from_json_dict(entry["tree"],
                                      system.restrict_below(entry["k"]))
        if entry["structure_ok"]:
            assert tf.is_structure_tree(tree, family)
            assert sorted(sorted(t) for t in tf.tangles(tree, family)) == \
                sorted(t["members"] for t in entry["tangles"])
