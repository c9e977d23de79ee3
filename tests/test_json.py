"""The one JSON writer: ``system.dump_json(v)`` is
``json.dumps(v, sort_keys=True, indent=1)``, byte for byte.

Every JSON output of the library and the CLI goes through ``dump_json``, so
its bytes are the output contract; ``build.dump_report`` writes a report's
layout itself and ``dump_json`` its system, family and evidence.  The
generated values stress what the writer spells itself (string escapes,
float and integer spellings, bools beside integers, empty containers,
tuples, integer tables); the fixture payloads are the reports, trees and
systems the CLI writes.  Examples are derandomized, so a run is
reproducible.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tangleforge as tf
from tangleforge import grounds
from tangleforge.build import dump_report
from tangleforge.system import dump_json

from conftest import FIXTURES, load_nonrich_fixture

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

TEXTS = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", " ", "😀", "/"])
FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, math.inf,
     -math.inf, math.nan])
INTS = st.integers() | st.sampled_from([10 ** 40, -(10 ** 40), 2 ** 63, -1])
ROWS = st.lists(st.integers(-5, 2 ** 70), max_size=4)
LEAVES = st.none() | st.booleans() | INTS | FLOATS | TEXTS
VALUES = st.recursive(
    LEAVES | st.lists(INTS | st.booleans(), max_size=5) | st.lists(ROWS, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXTS, inner, max_size=4),
    max_leaves=12)


# lists of dicts sharing one key set, the shape of tree/v1 node rows: keys
# drawn once per list, each row's values ints or None
NODE_ROWS = st.lists(TEXTS, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries(
        {k: st.none() | INTS for k in keys}), min_size=1, max_size=5))


# tables of int rows with at least one empty row, as a ground's side may be
EMPTY_ROW_TABLES = st.tuples(st.lists(ROWS, max_size=3), st.lists(ROWS, max_size=3)
                             ).map(lambda halves: [*halves[0], [], *halves[1]])


def _stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@EXAMPLES
@given(VALUES)
def test_dump_json_matches_the_stdlib_encoder(value):
    assert dump_json(value) == _stdlib(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [[], [1]], [[1], []], [1, True], [True, 1], [[1, True]],
    [[1], [False]], (1, 2), ((1, 2), (3,)), [(1, 2)], {"a": [[0, -1], [2, 3]]},
    [1.0, 2], [None, 0], {"": {"": []}}, [-0.0, math.nan, math.inf, -math.inf],
])
def test_dump_json_spells_edge_cases_as_the_stdlib(value):
    assert dump_json(value) == _stdlib(value)


@pytest.mark.parametrize("value", [
    [[0, 1, 2], [3, 4, 5]],  # rectangular: one format for the table
    [[7]], [[1, 2], [3], [4, 5, 6]], [[1], [2, 3]],  # ragged
    [[1, 2], []], [[], [1, 2]], [[], []],  # an empty row
    [[1, True], [2, 3]], [[False, 0], [1, 1]], [[True], [False]],  # bools
    [[-1, -2], [0, -(2 ** 63)]], [[-5], [5]],  # negative
    [[2 ** 64, 1], [-(2 ** 70), 10 ** 30]], [[2 ** 200]],  # beyond 64 bits
    {"leq": [[0, 2], [1, 3]], "join": [[0, 1], [1, 1]]},
])
def test_integer_tables_are_spelled_as_the_stdlib(value):
    assert dump_json(value) == _stdlib(value)


@EXAMPLES
@given(EMPTY_ROW_TABLES)
def test_tables_with_empty_rows_are_spelled_as_the_stdlib(table):
    assert dump_json(table) == _stdlib(table)
    assert dump_json({"sides": table}) == _stdlib({"sides": table})


@EXAMPLES
@given(VALUES)
def test_dump_json_indents_below_a_given_line_start(value):
    assert dump_json(value, "\n   ") == _stdlib(value).replace("\n", "\n   ")


@EXAMPLES
@given(NODE_ROWS)
def test_rows_of_one_key_set_are_spelled_as_the_stdlib(rows):
    assert dump_json(rows) == _stdlib(rows)
    assert dump_json({"nodes": rows}) == _stdlib({"nodes": rows})


@pytest.mark.parametrize("value", [
    [{"id": 0, "parent": None, "edge_label": None},
     {"id": 1, "parent": 0, "edge_label": 3}],  # a tree/v1 node list
    [{"a": None}, {"a": None}],  # None alone
    [{"a": 1, "b": True}, {"a": 2, "b": 3}],  # a bool beside ints
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}],  # keys in another order
    [{"a": 1}, {"b": 2}], [{"a": 1}, {"a": 1, "b": 2}],  # other key sets
    [{}, {}], [{}, {"a": 1}], [{"a": 1}, {}],  # empty dicts
    [{"a": 1.0}, {"a": 2}], [{"a": "x"}], [{"a": [1]}],  # other values
    [{"%d": 1, "%%": None}],  # keys that look like formats
])
def test_dict_rows_are_spelled_as_the_stdlib(value):
    assert dump_json(value) == _stdlib(value)


@pytest.mark.parametrize("value", [
    {1: "a", 2: [3]}, {"x": {True: 1, False: 2}}, [{1.5: "b"}], {"z": [{2: [0]}]},
])
def test_values_the_writer_leaves_to_json_keep_its_bytes(value):
    # non-string keys are converted by json itself, at the depth they sit
    assert dump_json(value) == _stdlib(value)


def test_what_json_cannot_write_raises_as_in_json():
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json({"a": [1, {2, 3}]})


def _fixture_runs():
    graph = {name: tf.Graph.from_edge_list((FIXTURES / f"{name}.edges").read_text())
             for name in ("k4", "p5", "two_k4")}
    sim = grounds.load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    answers = grounds.load_answers_csv((FIXTURES / "mindsets.csv").read_text())
    similarity = tf.bipartition_system(
        tf.full_bipartition_ground(len(sim), similarity=sim))
    runs = [(name, tf.graph_system(g, 3), {"kind": "blocks", "k": 3})
            for name, g in graph.items()]
    runs += [("k4-tangle", tf.graph_system(graph["k4"], 3), {"kind": "graph_tangle"}),
             ("six-cluster-2", similarity, {"kind": "cluster", "n": 2}),
             ("six-strong-profile", similarity, {"kind": "strong_profile"}),
             ("mindsets-cluster-3", tf.questionnaire_system(answers),
              {"kind": "cluster", "n": 3})]
    runs = [(name, system, tf.family_from_json({"format": "family/v1", **spec},
                                               system))
            for name, system, spec in runs]
    return [pytest.param(system, family, id=name)
            for name, system, family in [*runs, ("nonrich", *load_nonrich_fixture())]]


@pytest.mark.parametrize("system, family", _fixture_runs())
def test_fixture_payloads_match_the_stdlib_encoder(system, family):
    report = tf.pipeline(system, family)
    # the report is written without dump_json: its text round-trips
    # through the stdlib's parser and encoder
    text = dump_report(report)
    assert _stdlib(tf.report_to_json_dict(report)) == text
    payloads = [tf.to_json_dict(system), tf.tree_to_json_dict(report.tree_full),
                tf.tree_to_json_dict(report.tree_reduced)]
    payloads += [tf.tree_to_json_dict(lv.tree) for lv in report.levels]
    for payload in payloads:
        assert dump_json(payload) == _stdlib(payload)
