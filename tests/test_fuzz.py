"""Loader fuzz: every input gives a valid object or a TangleForgeError.

The CLI exits 2 on a TangleForgeError and 1 only for a certificate, so a
loader that lets any other exception through breaks the exit-code contract.
Inputs are small texts and JSON documents made by mutating small valid ones;
example counts are bounded and the examples derandomized, so a run is
reproducible and quick.
"""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tangleforge as tf
from tangleforge import grounds
from tangleforge.cli import main
from tangleforge.errors import TangleForgeError, ValidationError
from tangleforge.families import family_from_json
from tangleforge.oracle import vertex_separations_below
from tangleforge.system import from_json_dict, mask_of, to_json_dict, validate
from tangleforge.tree import (restrict, to_dot, tree_from_json_dict,
                              tree_to_json_dict)

from conftest import expand_sepsys_v2, separation_sides

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

# JSON values a field may be replaced with: out-of-range and wrong-typed
# numbers, strings, nulls and small containers.
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from([1e30, -1e30, 1.5, math.inf, -math.inf, math.nan, 10 ** 30]),
    st.text(max_size=3))
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


@st.composite
def mutated(draw, base):
    """``base`` with one to three fields replaced by other JSON values or
    dropped."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        *head, last = path
        target = doc
        for step in head:
            target = target[step]
        if draw(st.integers(0, 4)) == 0:
            del target[last]
        else:
            target[last] = draw(VALUES)
    return doc


def _path_graph(n):
    return tf.Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


GRAPH_SYSTEM = tf.graph_system(_path_graph(3), 2)
SETS_SYSTEM = tf.bipartition_system(tf.full_bipartition_ground(2))
# the 2-point universe's order, a lattice without a ground
ORDER_SYSTEM = tf.SeparationSystem(SETS_SYSTEM.leq, SETS_SYSTEM.orders,
                                   lattice=True, distributive=True)
SYSTEMS = [GRAPH_SYSTEM, SETS_SYSTEM, tf.graph_universe(_path_graph(2))]
# the systems as sepsys/v2, as they are written; as the sepsys/v1 they were
# written as before, with tables and grounds, which are refused; the order
# as the sepsys/v1 that is still read; and that one with a 'lattice', and a
# sepsys/v2 with both a ground and an order, which are refused
V2_DOCS = [to_json_dict(s) for s in [*SYSTEMS, ORDER_SYSTEM]]
V1_ORDER = {"format": "sepsys/v1", "count": 2, "orders": [0.0, 1.0],
            "leq": V2_DOCS[-1]["leq"]}
REFUSED_DOCS = {"universe": expand_sepsys_v2(V2_DOCS[-1]),
                "ground": expand_sepsys_v2(V2_DOCS[0]),
                "lattice": {**V1_ORDER, "lattice": True},
                "'ground' and 'leq'": {**V2_DOCS[1], "leq": V1_ORDER["leq"]}}
SYSTEM_DOCS = V2_DOCS + [expand_sepsys_v2(d) for d in V2_DOCS] + \
    [V1_ORDER, *REFUSED_DOCS.values()]
FAMILIES = [{"format": "family/v1", "kind": kind, "k": 2, "n": 1,
             "explicit_members": [[0], [1, 2]]}
            for kind in ("empty", "explicit", "blocks", "cluster", "profile",
                         "strong_profile", "graph_tangle")]
TREES = [tree_to_json_dict(tf.build(system, family))
         for system, family in ((GRAPH_SYSTEM, tf.make_blocks(2, GRAPH_SYSTEM)),
                                (SETS_SYSTEM, tf.make_cluster(1, SETS_SYSTEM)))]


def _loads_or_rejects(load, *args):
    """What ``load`` returns, or None when it rejects the input with a
    TangleForgeError; any other exception fails the test."""
    try:
        return load(*args)
    except TangleForgeError:
        return None


@FUZZ
@given(st.text(alphabet="0123456789 -#\ta\n", max_size=40))
def test_edge_lists_load_or_are_rejected(text):
    g = _loads_or_rejects(tf.Graph.from_edge_list, text)
    assert g is None or all(0 <= u < v < g.n for u, v in g.edges)
    if g is not None and g.n <= 6:
        for k in (1, 2, 3):
            assert separation_sides(tf.graph_system(g, k)) == \
                vertex_separations_below(g, k)


@FUZZ
@given(st.text(alphabet="01.,-e \"nai\r\n\x00x", max_size=30))
def test_csv_matrices_load_or_are_rejected(text):
    sim = _loads_or_rejects(grounds.load_similarity_csv, text)
    if sim is not None and len(sim) <= 4:
        ground = _loads_or_rejects(tf.full_bipartition_ground, len(sim), sim)
        _loads_or_rejects(tf.bipartition_system, ground)
    answers = _loads_or_rejects(grounds.load_answers_csv, text)
    if answers is not None:
        _loads_or_rejects(tf.questionnaire_system, answers)


@FUZZ
@given(st.sampled_from(SYSTEM_DOCS).flatmap(mutated))
def test_systems_load_or_are_rejected(doc):
    system = _loads_or_rejects(from_json_dict, doc)
    assert system is None or validate(system).ok
    # the CLI's validate command loads unchecked and reports the axioms
    unchecked = _loads_or_rejects(lambda d: from_json_dict(d, check=False), doc)
    if unchecked is not None:
        validate(unchecked)


def test_the_fuzzed_documents_hold_each_refusal():
    # the unmutated documents the fuzz starts from: each refused one names
    # its field, and the rest load
    for field, doc in REFUSED_DOCS.items():
        with pytest.raises(ValidationError, match=re.escape(field)):
            from_json_dict(doc)
    for doc in [*V2_DOCS, V1_ORDER]:
        assert validate(from_json_dict(doc)).ok
    missing = {k: v for k, v in V2_DOCS[-1].items() if k != "leq"}
    with pytest.raises(ValidationError, match="lacks the field 'ground' or "
                       "'leq'"):
        from_json_dict(missing)


@FUZZ
@given(st.sampled_from(V2_DOCS).flatmap(mutated))
def test_v2_systems_exit_0_2_or_3_in_the_cli(doc):
    # no traceback: a bad system is named (2) or over a budget (3)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "sys.json", str(Path(tmp) / "out")
        path.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(path), "--out", out]) in (0, 2)
        ground = doc.get("ground")
        graph = isinstance(ground, dict) and ground.get("kind") == "graph"
        family = "blocks:1" if graph else "cluster:1"
        assert main(["tangles", "--system", str(path), "--family", family,
                     "--out", out]) in (0, 2, 3)


@FUZZ
@given(st.sampled_from(FAMILIES).flatmap(mutated), st.sampled_from(SYSTEMS))
def test_families_load_or_are_rejected(doc, system):
    family = _loads_or_rejects(family_from_json, doc, system)
    if family is not None:
        _loads_or_rejects(family.forbidden_subset, system,
                          mask_of(range(0, system.n_oriented, 2)))


@FUZZ
@given(st.sampled_from(TREES).flatmap(mutated))
def test_trees_load_or_are_rejected_and_restrict_and_export(doc):
    tree = _loads_or_rejects(tree_from_json_dict, doc)
    if tree is None:
        return
    for k in (0, 1, 2, math.inf):
        _loads_or_rejects(restrict, tree, k)
    _loads_or_rejects(to_dot, tree)
    family = _loads_or_rejects(tf.make_blocks, 2, tree.system)
    if family is not None:
        _loads_or_rejects(to_dot, tree, family)
