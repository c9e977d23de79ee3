"""Graph and subset grounds: generation, orders, lattice laws, block duality."""

import importlib.util
import json
import math
import random
import re
import sys
from itertools import combinations

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.cli import main
from tangleforge.errors import (BudgetExceeded, DuplicateQuestionWarning,
                                NotATangle, NotComplementClosed,
                                ValidationError)
from tangleforge.oracle import (OracleBudget, all_kblocks, all_tangles,
                                vertex_separations_below)
from tangleforge.system import dump_system, load_system, mask_of, validate

from conftest import (FIXTURES, all_graphs_up_to_iso, expand_sepsys_v2,
                      grid_graph, looped_joins, separation_sides, side_pair,
                      v1_of)


def test_k4_low_order_separations_all_have_a_full_side(k4):
    s3 = tf.graph_system(k4, 3)
    assert s3.count == 11
    verts = frozenset(k4.vertices())
    for s in s3.seps():
        A, B = side_pair(s3.ground, 2 * s)
        assert verts in (A, B)
        assert len(A & B) < 3
    assert validate(s3).ok


def test_single_edge_graph_owns_one_zero_order_separation():
    k2 = tf.Graph.from_edges(2, [(0, 1)])
    s1 = tf.graph_system(k2, 1)
    assert s1.count == 1
    A, B = side_pair(s1.ground, 0)
    assert {A, B} == {frozenset(), frozenset({0, 1})}


def test_zero_threshold_gives_an_empty_system(p5):
    assert tf.graph_system(p5, 0).count == 0


def test_graph_universe_lattice_laws_and_submodularity():
    for n in (2, 3, 4):
        for g in all_graphs_up_to_iso(n):
            u = tf.graph_universe(g)
            assert validate(u).ok  # includes exhaustive lattice checking
            join, meet = looped_joins(u.leq)
            for a in u.all_oriented():
                for b in u.all_oriented():
                    j, m = join[a][b], meet[a][b]
                    assert u.order_of(j) + u.order_of(m) <= \
                        u.order_of(a) + u.order_of(b) + 1e-9


def test_back_maps_are_bijective(k4):
    s3 = tf.graph_universe(k4).restrict_below(3)
    up = s3.oriented_into(s3.top)
    assert len(set(up)) == s3.n_oriented
    assert all(0 <= o < s3.top.n_oriented for o in up)
    assert [o ^ 1 for o in up[::2]] == list(up[1::2])


def _random_graphs(n, count, seed):
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    return [tf.Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            for _ in range(count)]


@pytest.mark.parametrize("n", range(7))
def test_graph_systems_equal_their_universe_restricted_below_k(n):
    # Every graph up to five vertices and 25 random six-vertex graphs: the
    # directly built system is the one restricted out of the full universe.
    # Orders are integers of at most n, so k = n + 1 and k = inf select the
    # same separations and share one build.
    graphs = all_graphs_up_to_iso(n) if n < 6 else _random_graphs(6, 25, 6)
    for g in graphs:
        universe = tf.graph_universe(g)
        for k in [*range(n + 2), math.inf]:
            if k <= n + 1:
                got = tf.graph_system(g, k)
            want = universe.restrict_below(k)
            assert got.count == want.count
            assert got.orders == want.orders
            assert list(got.leq) == list(want.leq)
            assert got.has_universe() == want.has_universe()
            assert got.distributive == want.distributive
            assert got.ground == want.ground
            assert got.allow_degenerate == any(
                got.is_degenerate(s) for s in got.seps())


@pytest.mark.parametrize("n", range(8))
def test_the_oracle_separations_are_the_graph_system_sides(n):
    # The oracle's own tri-partition scan against the separator-first
    # generator behind graph_system, separation by separation in id order:
    # every graph up to five vertices, 25 random six-vertex graphs and 20
    # random seven-vertex ones.
    graphs = all_graphs_up_to_iso(n) if n < 6 else \
        _random_graphs(6, 25, 6) if n == 6 else _random_graphs(7, 20, 7)
    for g in graphs:
        for k in (1, 2, 3, math.inf):
            assert separation_sides(tf.graph_system(g, k)) == \
                vertex_separations_below(g, k)


def test_the_oracle_separations_of_larger_graphs(two_k4):
    for g in (grid_graph(3, 3), two_k4):
        assert separation_sides(tf.graph_system(g, 3)) == \
            vertex_separations_below(g, 3)
    assert tf.graph_system(grid_graph(4, 4), 3).count == 141


def test_graph_separations_stop_at_the_limit():
    limit = tf.grounds.MAX_SEPARATIONS
    # the edgeless 8-vertex universe holds (3^8 + 1) / 2 separations
    assert limit >= 3281
    # an edgeless graph's separations below 1 split its isolated vertices:
    # 2^12 of them on 13 vertices, 2^13 on 14
    edgeless = tf.Graph.from_edges(13, [])
    assert len(tf.grounds._graph_separations(edgeless, 1)) == limit
    with pytest.raises(BudgetExceeded, match=f"14 vertices has at least "
                       f"{limit + 1} separations of order below 1, over "
                       f"the limit of {limit}"):
        tf.graph_system(tf.Graph.from_edges(14, []), 1)
    # 1 + 20 + 190 + 1140 + 4845 separators of at most 4 vertices, each
    # giving one separation or more: the path's are never enumerated
    path = tf.Graph.from_edges(20, [(v, v + 1) for v in range(19)])
    with pytest.raises(BudgetExceeded, match="at least 6196 separations"):
        tf.graph_system(path, math.inf)
    assert tf.graph_system(path, 3).count == 688


def test_graph_systems_claim_a_lattice_whenever_their_sides_are_closed(two_k4):
    # the one order-0 separation of a path is closed under join and meet,
    # at any number of vertices
    for n in (6, 7, 12):
        path = tf.Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        assert tf.graph_system(path, 1).count == 1
        assert tf.graph_system(path, 1).has_universe()
    # eight vertices: the universe and the same separations built as a
    # graph system are one system
    built, universe = tf.graph_system(two_k4, math.inf), tf.graph_universe(two_k4)
    assert universe.has_universe() and universe.distributive
    assert built.has_universe() and built.distributive
    assert np.array_equal(built.leq, universe.leq)
    assert built.ground == universe.ground
    # below 3, the sides of two_k4 are not closed under union
    assert not tf.graph_system(two_k4, 3).has_universe()
    # the 2,048 splits of 12 isolated vertices, a Boolean lattice of 2^12
    # sides, of which only the single vertices are irreducible
    edgeless = tf.graph_system(tf.Graph.from_edges(12, []), 1)
    assert edgeless.count == 2048 and edgeless.has_universe()


def test_a_graph_system_of_seven_vertices_admits_profiles():
    # the 289 separations of the 7-vertex path are closed under union;
    # built with or without a bound, the system admits the profile families
    path7 = tf.Graph.from_edges(7, [(v, v + 1) for v in range(6)])
    built, universe = tf.graph_system(path7, math.inf), tf.graph_universe(path7)
    assert built.count == universe.count == 289
    assert (built.has_universe(), built.distributive) == \
        (universe.has_universe(), universe.distributive) == (True, True)
    for system in (built, universe):
        assert tf.make_profile(system).system is system
        assert tf.make_strong_profile(system).system is system
    assert dump_system(built) == dump_system(universe)


@pytest.mark.parametrize("width", [12, 20, 70])
def test_subset_lattice_keys_of_every_width(width):
    # the unions of four atoms spread over the width, repeated keys
    # included: closed under union, the least id wins
    atoms = [sum(1 << v for v in range(a, width, 4)) for a in range(4)]
    keys = [sum(atoms[i] for i in range(4) if bits >> i & 1)
            for bits in range(16)] + [atoms[0], 0]
    up = tf.grounds._subset_order(keys, width)
    ids = {}
    for i, key in enumerate(keys):
        ids.setdefault(key, i)
    assert up == subset_words(keys)[0]
    ground = tf.grounds.SideRealization(width, tuple(keys))
    system = tf.SeparationSystem(None, [0.0] * 9, ground=ground, check=False)
    assert ground.keys() == (keys, width)
    assert system.lattice_keys() == (keys, ids)
    assert tf.grounds._union_closed(keys, *subset_words(keys)) is True
    # without the top key, unions leave the keys: not closed
    assert tf.grounds._union_closed(keys[:-3], *subset_words(keys[:-3])) \
        is False


def test_ground_down_words_are_the_transposed_up_words(k4, p5):
    # a ground system reads ``down`` off ``up`` through the involution; it
    # must be the transpose, degenerate (V, V) included
    systems = [tf.graph_universe(g) for n in range(1, 5)
               for g in all_graphs_up_to_iso(n)]
    systems += [tf.graph_system(g, k) for g in (k4, p5) for k in (1, 2, 3)]
    systems += [tf.bipartition_system(tf.full_bipartition_ground(n))
                for n in range(1, 6)]
    for system in systems:
        n2 = system.n_oriented
        assert [mask_of(a for a in range(n2) if system.up[a] >> b & 1)
                for b in range(n2)] == list(system.down)


def _closed_by_pairs(keys):
    return all(a | b in keys for a in keys for b in keys)


def subset_words(keys):
    """The words of the keys' subset order, ``up`` and ``down``, by loops
    over every pair of keys."""
    return tuple(tuple(mask_of(b for b, y in enumerate(keys) if inside(x, y))
                       for x in keys)
                 for inside in (lambda x, y: x & ~y == 0,
                                lambda x, y: y & ~x == 0))


def _closed_by_the_cube(keys, width):
    """Closure decided over the cube of all 2^width points: a point is the
    union of the keys within it when each of its bits is in one of them,
    and the keys are closed exactly when every such point but the empty
    one is a key."""
    unions = {x for x in range(1, 1 << width)
              if all(any(k & ~x == 0 and k >> p & 1 for k in keys)
                     for p in range(width) if x >> p & 1)}
    return unions <= set(keys)


@pytest.mark.parametrize("width", range(5))
def test_the_cube_pass_decides_closure_as_the_pairs_do(width):
    # every family of keys of at most three bits, and a seeded sample of
    # those of four, decided three ways: by every pair, by the cube of
    # points, and by the library, which tries only the unions with a key
    # that has at most one key right below it
    rng = random.Random(width)
    points = 1 << width
    families = range(1 << points) if width <= 3 else \
        [rng.getrandbits(points) for _ in range(400)]
    for bits in families:
        keys = sorted(x for x in range(points) if bits >> x & 1)
        closed = _closed_by_pairs(keys)
        assert _closed_by_the_cube(keys, width) is closed, keys
        assert tf.grounds._union_closed(keys, *subset_words(keys)) is \
            closed, keys


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_block_tangle_correspondence_both_ways(n, k):
    for g in all_graphs_up_to_iso(n):
        system = tf.graph_system(g, k)
        fam = tf.make_blocks(k, system)
        tangles = all_tangles(system, fam, OracleBudget(max_separations=40))
        blocks = all_kblocks(g, k)
        got_blocks = sorted(sorted(tf.block_of_tangle(system, t)) for t in tangles)
        assert got_blocks == [sorted(b) for b in blocks]
        # conversely each block orients every separation towards itself
        for block in blocks:
            tau = set()
            for s in system.seps():
                side = [o for o in (2 * s, 2 * s + 1)
                        if block <= system.ground.side(o)]
                assert len(side) == 1
                tau.add(side[0])
            assert frozenset(tau) in tangles


def test_block_extraction_rejects_non_tangles(k4):
    s3 = tf.graph_system(k4, 3)
    with pytest.raises(NotATangle):
        tf.block_of_tangle(s3, frozenset({0}))


# -- bipartition systems -----------------------------------------------------


def test_two_point_full_ground_validates():
    sysb = tf.bipartition_system(tf.full_bipartition_ground(2))
    assert sysb.count == 2
    assert validate(sysb).ok
    assert not any(sysb.is_degenerate(s) for s in sysb.seps())


def test_uniform_similarity_order_is_the_product_of_side_sizes():
    sysb = tf.bipartition_system(tf.full_bipartition_ground(4))
    for s in sysb.seps():
        A = sysb.ground.side(2 * s)
        assert sysb.order(s) == len(A) * (4 - len(A))


def test_two_cluster_similarity_zeroes_the_cluster_cut(six_cluster_system):
    ground = six_cluster_system.ground
    cluster = next(s for s in six_cluster_system.seps()
                   if sorted(ground.side(2 * s)) in ([0, 1, 2], [3, 4, 5]))
    assert six_cluster_system.order(cluster) == 0.0


def test_cut_weights_equal_in_decimal_share_one_order_and_level():
    # side {0} cuts 0.1 + 0.2 and side {3} cuts 0.3; float addition in side
    # order would give 0.30000000000000004 and 0.3
    sim = [[0, 0.1, 0.2, 0],
           [0.1, 0, 0, 0],
           [0.2, 0, 0, 0.3],
           [0, 0, 0.3, 0]]
    sysb = tf.bipartition_system(tf.full_bipartition_ground(4, similarity=sim))
    order = {sysb.ground.side(o): sysb.order_of(o) for o in sysb.all_oriented()}
    assert order[frozenset({0})] == order[frozenset({3})] == 0.3
    report = tf.pipeline(sysb, tf.make_cluster(2, sysb))
    assert [lv.k for lv in report.levels].count(0.3) == 1


def test_unclosed_sides_are_rejected():
    with pytest.raises(NotComplementClosed):
        tf.bipartition_system(tf.BipartitionGround(3, (frozenset({0}),)))


def test_guardrail_on_full_grounds():
    with pytest.raises(ValidationError):
        tf.full_bipartition_ground(13)


def test_bipartition_separations_stop_at_the_limit(monkeypatch):
    # the largest full ground, 12 points, has 2^11 complement pairs
    assert tf.grounds.MAX_SEPARATIONS >= 2048
    # 14 persons answering 4,097 distinct questions: refused before the
    # order matrix is built
    answers = [[j >> i & 1 for j in range(4097)] for i in range(14)]
    with pytest.raises(BudgetExceeded, match="ground of 14 points has 4097 "
                       "separations, over the limit of 4096"):
        tf.questionnaire_system(answers)
    # a ground at the limit builds, one pair more is refused
    monkeypatch.setattr(tf.grounds, "MAX_SEPARATIONS", 8)
    assert tf.bipartition_system(tf.full_bipartition_ground(4)).count == 8
    with pytest.raises(BudgetExceeded, match="ground of 5 points has 16 "
                       "separations, over the limit of 8"):
        tf.bipartition_system(tf.full_bipartition_ground(5))


# -- questionnaires -----------------------------------------------------------


def test_single_question_single_separation():
    answers = [[1], [1], [1], [0], [0], [0]]
    sysq = tf.questionnaire_system(answers)
    assert sysq.count == 1
    assert sorted(sysq.ground.side(0)) in ([0, 1, 2], [3, 4, 5])


def test_duplicate_questions_collapse_with_warning():
    answers = [[1, 0], [1, 0], [0, 1]]  # second column is the complement
    with pytest.warns(DuplicateQuestionWarning):
        sysq = tf.questionnaire_system(answers)
    assert sysq.count == 1


@pytest.mark.parametrize("answers", [
    [[0.5, 1], [1, 0], [0, 1.9]], [[1, 2], [0, 1]], [["1", 0], [0, 1]],
    [[1, -1], [0, 1]]])
def test_answers_other_than_0_or_1_are_refused(answers):
    # the given values are checked, not their conversions: 0.5 and 1.9
    # are no answers, and not 0 and 1
    with pytest.raises(ValidationError, match="answers must be 0 or 1"):
        tf.questionnaire_system(answers)


def test_unanimous_question_gives_a_small_empty_side():
    answers = [[1, 1], [1, 0], [1, 0]]
    sysq = tf.questionnaire_system(answers)
    empty_sides = [o for o in sysq.all_oriented() if not sysq.ground.side(o)]
    assert empty_sides and all(sysq.is_small(o) for o in empty_sides)


def test_mindsets_fixture_has_two_cluster_tangles():
    answers = tf.grounds.load_answers_csv((FIXTURES / "mindsets.csv").read_text())
    sysq = tf.questionnaire_system(answers)
    assert sysq.count == 3
    c3 = tf.make_cluster(3, sysq)
    tangles = all_tangles(sysq, c3)
    cores = sorted(sorted(frozenset.intersection(
        *[sysq.ground.side(o) for o in t])) for t in tangles)
    assert cores == [[0, 1, 2], [5, 6, 7]]


def test_questionnaire_wider_than_a_machine_word_builds(tmp_path):
    # 70 persons: side bitmasks do not fit in 64 bits
    answers = [[int((i < 35) == (j < 2)) ^ int((7 * i + 3 * j) % 11 == 0)
                for j in range(4)] for i in range(70)]
    sysq = tf.questionnaire_system(answers)
    assert sysq.count == 4 and validate(sysq).ok
    c20 = tf.make_cluster(20, sysq)
    expected = all_tangles(sysq, c20)
    assert len(expected) == 2
    assert tf.tangles(tf.build(sysq, c20), c20) == expected
    path = tmp_path / "answers.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in answers))
    assert main(["build", "--answers", str(path), "--family", "cluster:20",
                 "--out", str(tmp_path / "out.json")]) == 0


def test_questionnaire_grounds_round_trip_up_to_the_point_limit(tmp_path):
    # what questionnaire_system builds, the sepsys/v1 loader reads back;
    # one person more is refused when the system is made
    limit = tf.grounds.MAX_GROUND_POINTS
    answers = [[int(i % 3 == 0), int(i < limit // 2)] for i in range(limit)]
    sysq = tf.questionnaire_system(answers)
    again = load_system(dump_system(sysq))
    assert again.ground == sysq.ground and again.count == sysq.count == 2
    with pytest.raises(ValidationError, match="limited to 65536 points"):
        tf.questionnaire_system(answers + [[0, 0]])
    path = tmp_path / "answers.csv"
    path.write_text("1\n" * (limit + 1))
    assert main(["build", "--answers", str(path),
                 "--out", str(tmp_path / "out.json")]) == 2


# -- grounds that realize nothing ---------------------------------------------------

# the path 0-1-2 with one separation of order 1, ({0, 1}, {1, 2}); and the
# 2-point full bipartition universe, ids 0..3 the sides {}, {0, 1}, {0}, {1},
# as sepsys/v1 held them: one side pair [A, B] or one forward side per
# separation, and the order as 'leq'
PATH = {"format": "sepsys/v1", "count": 1, "orders": [1.0], "leq": [],
        "ground": {"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2]],
                   "sides": [[[0, 1], [1, 2]]]}}
SETS = {"format": "sepsys/v1", "count": 2, "orders": [0.0, 1.0],
        "leq": [[0, 1], [0, 2], [0, 3], [2, 1], [3, 1]],
        "ground": {"kind": "sets", "size": 2, "sides": [[], [0]]}}
V1_GROUND = "sepsys/v1 'ground' is no longer read: write the system as " \
    "sepsys/v2, whose 'ground' holds the side of every oriented id"


def edited(base, **fields):
    d = json.loads(json.dumps(base))
    d.update(fields)
    return d


def path_sides(*pairs, orders=None, leq=()):
    """The path's sepsys/v1 with the given side pairs, or with no ``leq``
    its sepsys/v2: the sides B, A of each pair (A, B)."""
    ground = dict(PATH["ground"], sides=list(pairs))
    d = edited(PATH, count=len(pairs), orders=orders or [1.0] * len(pairs),
               leq=list(leq), ground=ground)
    if leq:
        return d
    del d["leq"]
    ground["sides"] = [side for a, b in pairs for side in (b, a)]
    return {**d, "format": "sepsys/v2", "ground": ground}


@pytest.mark.parametrize("d, cause", [
    pytest.param(path_sides([[0], [2]]), "graph ground side pair [[0], [2]] of "
                 "separation 0 (order 1) does not cover the vertices",
                 id="sides-not-covering"),
    pytest.param(path_sides([[0, 1], [2]], orders=[0.0]), "side pair [[0, 1], "
                 "[2]] of separation 0 (order 0) has the edge [1, 2] across",
                 id="edge-across"),
    pytest.param(path_sides([[0, 1], [1, 2]], orders=[2.0]), "separation 0 "
                 "(order 2) meets in 1 vertices", id="separator-not-the-order"),
    # a sepsys/v1 ground, whose 'leq' was compared with its sides, is
    # refused by its field, whatever its sides and order
    pytest.param(edited(PATH, count=2, orders=[1.0, 1.0], sides=[
        [[0, 1], [1, 2]], [[0], [0, 1, 2]]]), V1_GROUND,
                 id="graph-sides-ordered-unlike-leq"),
    pytest.param(path_sides([[0], [0, 1, 2]], [[0, 1], [1, 2]],
                            leq=[[0, 3], [2, 1]]), V1_GROUND,
                 id="graph-leq-unlike-the-sides"),
    pytest.param(edited(SETS, leq=[[0, 1], [0, 3], [2, 1]]), V1_GROUND,
                 id="sets-sides-ordered-unlike-leq"),
])
def test_ground_sides_that_realize_nothing_are_refused(d, cause, tmp_path,
                                                       capsys):
    with pytest.raises(ValidationError, match=re.escape(cause)):
        tf.from_json_dict(d, check=False)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(d))
    assert main(["validate", "--system", str(path)]) == 2
    assert cause in json.loads(capsys.readouterr().out)["issues"][0]
    kind = "blocks:1" if d["ground"]["kind"] == "graph" else "cluster:1"
    assert main(["tangles", "--system", str(path), "--family", kind]) == 2
    assert cause in capsys.readouterr().err


# sepsys/v2: the 2-point full bipartition universe, ids 0..3 the sides {},
# {0, 1}, {0}, {1}, and the path 0-1-2 with its separation ({0, 1}, {1, 2})
SETS_V2 = {"format": "sepsys/v2", "count": 2, "orders": [0.0, 1.0],
           "lattice": True, "distributive": True,
           "ground": {"kind": "sets", "size": 2,
                      "sides": [[], [0, 1], [0], [1]]}}
PATH_V2 = {"format": "sepsys/v2", "count": 1, "orders": [1.0],
           "ground": {"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2]],
                      "sides": [[1, 2], [0, 1]]}}


def v2_edited(base, orders=None, **ground):
    """A copy of ``base`` with ``ground`` fields and ``orders`` set."""
    d = json.loads(json.dumps(base))
    d["ground"].update(ground)
    if orders is not None:
        d["orders"] = orders
    return d


@pytest.mark.parametrize("d, cause", [
    pytest.param(v2_edited(SETS_V2, sides=[[], [0, 1], [0], [0]]),
                 "sets ground side [0] of separation 1 lacks its complement: "
                 "the other side is [0]", id="side-without-its-complement"),
    pytest.param(v2_edited(SETS_V2, sides=[[], [0, 1], [], [0, 1]]),
                 "duplicate side: 1+ has the side of 0+", id="duplicate-side"),
    pytest.param(v2_edited(PATH_V2, sides=[[2], [0]]),
                 "graph ground side pair [[0], [2]] of separation 0 (order 1) "
                 "does not cover the vertices", id="pair-not-covering"),
    pytest.param(v2_edited(PATH_V2, [0.0], sides=[[2], [0, 1]]),
                 "side pair [[0, 1], [2]] of separation 0 (order 0) has the "
                 "edge [1, 2] across", id="edge-across"),
    pytest.param(v2_edited(PATH_V2, [2.0]), "separation 0 (order 2) meets "
                 "in 1 vertices", id="separator-not-the-order"),
    pytest.param({**v2_edited(SETS_V2, size=3, sides=[[0], [1, 2], [1], [0, 2]]),
                  "orders": [1.0, 1.0]},
                 "lattice claimed, but 0+ and 0- have no join",
                 id="lattice-not-closed"),
    pytest.param({**SETS_V2, "orders": [0.0]},
                 "orders length does not match count", id="orders-length"),
    pytest.param(v2_edited(SETS_V2, sides=[[], [0, 1], [0]]),
                 "sets ground of size 2 (at most 65536) has 3 sides for 4 "
                 "oriented ids", id="a-side-short"),
    pytest.param({k: v for k, v in SETS_V2.items() if k != "ground"},
                 "sepsys/v2 system lacks the field 'ground'", id="no-ground"),
    pytest.param({**SETS_V2, "lattice": 1},
                 "sepsys/v2 'lattice' must be true or false, got 1",
                 id="lattice-not-a-bool"),
    pytest.param({**SETS_V2, "lattice": False}, "distributive flag without a "
                 "lattice", id="distributive-without-lattice"),
])
def test_v2_faults_are_named_and_exit_2(d, cause, tmp_path, capsys):
    with pytest.raises(ValidationError, match=re.escape(cause)):
        tf.from_json_dict(d)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(d))
    assert main(["validate", "--system", str(path)]) == 2
    issues = json.loads(capsys.readouterr().out)["issues"]
    assert cause in [i if isinstance(i, str) else i["detail"] for i in issues][0]
    kind = "blocks:1" if d.get("ground", {}).get("kind") == "graph" else "cluster:1"
    assert main(["tangles", "--system", str(path), "--family", kind]) == 2
    assert cause in capsys.readouterr().err


def counted_union_closed(monkeypatch) -> list:
    """The calls of ``_union_closed`` through both of its module bindings."""
    calls, real = [], importlib.import_module("tangleforge.system")._union_closed

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in ("tangleforge.system", "tangleforge.grounds"):
        monkeypatch.setattr(importlib.import_module(module), "_union_closed",
                            counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda k4: tf.bipartition_system(tf.full_bipartition_ground(6)),
    lambda k4: tf.graph_universe(k4),
    lambda k4: tf.from_json_dict(SETS_V2)],
    ids=["full-bipartition-6", "k4-universe", "loaded-claim"])
def test_a_ground_system_decides_its_union_closure_once(make, k4, monkeypatch):
    # the lattice claim, or the check of a loaded one, and validate read
    # one answer of the ground; a loaded claim over sides that are not
    # closed exits 2 (test_v2_faults_are_named_and_exit_2, lattice-not-closed)
    calls = counted_union_closed(monkeypatch)
    system = make(k4)
    assert system.has_universe() and validate(system).ok
    assert len(calls) == 1


@pytest.mark.parametrize("d", [SETS_V2, PATH_V2])
def test_the_unedited_v2_payloads_load(d):
    system = tf.from_json_dict(d)
    assert tf.to_json_dict(system) == d
    assert system.has_universe() == d.get("lattice", False)


def _benchmark_systems():
    """The system of every instance of the benchmark's workloads at seeds 1
    and 2."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", FIXTURES.parents[1] / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclass looks itself up there
    return {f"{name}/{seed}/{instance.name}": instance.make()[0]
            for name, make in workloads.WORKLOADS.items() for seed in (1, 2)
            for instance in make(seed)}


def _fixture_and_benchmark_systems():
    """The fixture graphs' systems and universes, the CSV grounds, and the
    system of every benchmark instance at seeds 1 and 2."""
    graphs = [tf.Graph.from_edge_list((FIXTURES / f"{name}.edges").read_text())
              for name in ("k4", "p5", "two_k4")]
    systems = {f"{g.n}/{i}/{k}": tf.graph_system(g, k)
               for i, g in enumerate(graphs) for k in (1, 2, 3, math.inf)}
    systems.update({f"universe{g.n}": tf.graph_universe(g) for g in graphs})
    sim = tf.grounds.load_similarity_csv(
        (FIXTURES / "six_similarity.csv").read_text())
    systems["six_similarity"] = tf.bipartition_system(
        tf.full_bipartition_ground(len(sim), similarity=sim))
    systems["mindsets"] = tf.questionnaire_system(tf.grounds.load_answers_csv(
        (FIXTURES / "mindsets.csv").read_text()))
    systems.update(_benchmark_systems())
    return systems


SYSTEMS = _fixture_and_benchmark_systems()


def test_fixture_and_benchmark_grounds_round_trip():
    assert sum(s.ground is not None for s in SYSTEMS.values()) > 100
    for name, system in SYSTEMS.items():
        text = dump_system(system)
        again = load_system(text)
        assert dump_system(again) == text, name
        assert again.ground == system.ground, name


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_expanded_v2_is_the_v1_of_the_tables(name):
    # the sides, or the order, alone give the sepsys/v1 written before from
    # leq, join and meet, and so does the system the sepsys/v2 loads as;
    # that sepsys/v1 is refused by its first field that is no longer read.
    # Levels are written from views, and equal the v1 of the carved level.
    system = SYSTEMS[name]
    d = tf.to_json_dict(system)
    flags = {"lattice": system.has_universe(),
             "distributive": system.has_universe(),
             "allow_degenerate": system.allow_degenerate}
    assert d["format"] == "sepsys/v2"
    assert sorted(d) == sorted(["format", "count", "orders",
                                "leq" if system.ground is None else "ground",
                                *(f for f, on in flags.items() if on)])
    v1 = expand_sepsys_v2(d)
    assert v1 == v1_of(system) == v1_of(tf.from_json_dict(d))
    refused = next((f for f in ("universe", "ground") if f in v1), None)
    if refused:
        with pytest.raises(ValidationError, match=f"sepsys/v1 '{refused}' "
                           ".*no longer read"):
            tf.from_json_dict(v1)
    else:
        assert dump_system(tf.from_json_dict(v1)) == dump_system(system)
    ks = sorted({system.order(s) for s in system.seps()})
    for k in ks[:2] + ks[-1:]:
        assert expand_sepsys_v2(tf.to_json_dict(system.view_below(k))) == \
            v1_of(system.restrict_below(k)), k


# -- loaders ---------------------------------------------------------------------


def test_edge_list_round_trip(two_k4):
    text = (FIXTURES / "two_k4.edges").read_text()
    g = tf.Graph.from_edge_list(text)
    assert g == two_k4


def test_edge_list_vertex_count_line():
    g = tf.Graph.from_edge_list("4\n0 1\n")
    assert g.n == 4 and g.edges == frozenset({(0, 1)})
    limit = tf.grounds.MAX_GROUND_POINTS
    assert tf.Graph.from_edge_list(f"{limit}\n0 1\n").n == limit
    for text in (f"{limit + 1}\n0 1\n", f"0 {limit}\n", "1000000000000\n0 1"):
        with pytest.raises(ValidationError, match=f"limited to {limit}"):
            tf.Graph.from_edge_list(text)


def test_loaders_reject_ragged_rows():
    with pytest.raises(ValidationError):
        tf.grounds.load_similarity_csv("1,0\n1\n")
    with pytest.raises(ValidationError):
        tf.grounds.load_answers_csv("1,0\n0\n")


def test_similarity_must_be_symmetric():
    ground = tf.BipartitionGround(
        2, (frozenset(), frozenset({0, 1}), frozenset({0}), frozenset({1})),
        similarity=[[0, 1], [2, 0]])
    with pytest.raises(ValidationError):
        tf.bipartition_system(ground)
    infinite = tf.BipartitionGround(2, ground.sides,
                                    similarity=[[0, math.inf], [math.inf, 0]])
    with pytest.raises(ValidationError):
        tf.bipartition_system(infinite)


def test_loops_and_bad_edges_rejected():
    with pytest.raises(ValidationError):
        tf.Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValidationError):
        tf.Graph.from_edge_list("0 3\n1 5\n0 0\n")
