"""The bitmask set operations against plain definitions on ``leq`` cells.

Each reference below reads the order one cell at a time, the way the
definitions are written, and shares no code with the masks the system
derives from ``leq``.  Inputs are the seeded random systems of the suite
and graph universes, which carry the degenerate separation (V, V).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangleforge as tf
from tangleforge.grounds import load_answers_csv, load_similarity_csv
from tangleforge.system import from_json_dict, ids_of, mask_of, to_json_dict

from conftest import (FIXTURES, all_graphs_up_to_iso, antichain_system,
                      load_nonrich_fixture, nested_pair_system,
                      random_relation_system, random_subset_system,
                      redundant_split_system, side_pair, trivial_top_system,
                      two_cluster_similarity)


def lt(system, a, b):
    return bool(system.leq[a, b]) and not bool(system.leq[b, a])


def canon(system, o):
    f, b = o & ~1, o | 1
    return f if system.leq[f, b] and system.leq[b, f] else o


def inconsistent_pair(system, members):
    ms = sorted(members)
    for i, x in enumerate(ms):
        for y in ms[i + 1:]:
            if x >> 1 != y >> 1 and system.leq[x, y ^ 1]:
                return (x, y)
    return None


def closure_raw(system, members):
    out = {canon(system, x) for x in members}
    for x in members:
        for y in system.all_oriented():
            if system.leq[x, y] and y >> 1 != x >> 1 and not system.leq[y, x]:
                out.add(canon(system, y))
    return frozenset(out)


def minimal_elements(system, members):
    return frozenset(x for x in members
                     if not any(lt(system, y, x) for y in members if y != x))


def orients_all(system, members):
    chosen = {}
    for x in members:
        if chosen.setdefault(x >> 1, canon(system, x)) != canon(system, x):
            return False
    return len(chosen) == system.count


def is_trivial(system, o):
    return any(r != o >> 1 and lt(system, 2 * r, o) and lt(system, 2 * r + 1, o)
               for r in system.seps())


def open_separations(system, members):
    oriented = {y >> 1 for y in closure_raw(system, members)}
    return sorted((s for s in system.seps() if s not in oriented),
                  key=lambda s: (system.orders[s], s))


def assert_mask_operations_match(system, rng, samples=12):
    ids = list(system.all_oriented())
    for o in ids:
        assert system.canon(o) == canon(system, o)
        assert system.is_trivial(o) == is_trivial(system, o)
    subsets = [frozenset(ids)]
    for _ in range(samples):
        size = int(rng.integers(0, min(5, len(ids)) + 1))
        subsets.append(frozenset(int(x) for x in rng.choice(ids, size, replace=False)))
    for members in subsets:
        m = mask_of(members)
        assert system.inconsistent_pair(m) == inconsistent_pair(system, members)
        assert system._closure_mask(m) == mask_of(closure_raw(system, members))
        assert system.minimal_elements(m) == \
            mask_of(minimal_elements(system, members))
        assert system.orients_all(m) == orients_all(system, members)
        want = open_separations(system, members)
        assert system.cheapest_open(system._closure_mask(m)) == \
            (want[0] if want else None)
    tau = frozenset(2 * s + int(rng.integers(0, 2)) for s in system.seps())
    assert system.orients_all(mask_of(tau)) and orients_all(system, tau)
    assert_cotrivial_identity(system)


def assert_cotrivial_identity(system):
    # What a tree node's closure verdict rests on: the union of ``_away``
    # over the closure of {o} is ``_away[o]``, plus o itself exactly when o
    # is co-trivial (its inverse trivial, read cell by cell).
    for o in system.all_oriented():
        union = 0
        for x in ids_of(system._requires[o]):
            union |= system._away[x]
        assert union == system._away[o] | is_trivial(system, o ^ 1) << o, o


@given(st.integers(0, 10_000), st.integers(1, 5))
@settings(max_examples=30, deadline=None, derandomize=True,
          database=None)
def test_mask_operations_on_random_subset_systems(seed, n):
    system = random_subset_system(seed, n_seps=n)
    assert_mask_operations_match(system, np.random.default_rng(seed))


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=30, deadline=None, derandomize=True,
          database=None)
def test_mask_operations_on_random_relation_systems(seed, n):
    system = random_relation_system(seed, n_seps=n)
    assert_mask_operations_match(system, np.random.default_rng(seed))


@pytest.mark.parametrize("n", [2, 3])
def test_mask_operations_on_graph_universes_with_a_degenerate_separation(n):
    for i, g in enumerate(all_graphs_up_to_iso(n)):
        universe = tf.graph_universe(g)
        assert any(universe.is_degenerate(s) for s in universe.seps())
        assert_mask_operations_match(universe, np.random.default_rng(i))


def test_mask_operations_on_a_four_vertex_path_universe():
    p4 = tf.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert_mask_operations_match(tf.graph_universe(p4),
                                 np.random.default_rng(4), samples=40)


def test_numpy_integer_ids_beyond_64_bits():
    system = antichain_system(40)
    ids = mask_of(np.array([3, 70, 71]))
    assert ids_of(system.minimal_elements(ids)) == [3, 70, 71]
    assert system.inconsistent_pair(ids) is None
    assert not system.orients_all(ids)


def test_cotrivial_identity_on_the_fixture_and_named_systems(k4, p5, two_k4):
    systems = [nested_pair_system(), antichain_system(3),
               redundant_split_system(), trivial_top_system(),
               load_nonrich_fixture()[0], *_graph_and_subset_systems(k4)]
    for g in (k4, p5):  # up to k > |V|, with the degenerate (V, V)
        systems += [tf.graph_system(g, k) for k in range(1, g.n + 2)]
    systems += [tf.graph_system(two_k4, k) for k in (1, 2, 3)]
    sim = load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    systems += [tf.bipartition_system(tf.full_bipartition_ground(6, similarity=sim)),
                tf.questionnaire_system(load_answers_csv(
                    (FIXTURES / "mindsets.csv").read_text()))]
    assert any(s.is_degenerate(r) for s in systems for r in s.seps())
    assert any(s.is_cotrivial(o) for s in systems for o in s.all_oriented())
    for system in systems:
        assert_cotrivial_identity(system)


def _graph_and_subset_systems(k4):
    answers = [[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    return [tf.graph_system(k4, 3), tf.graph_universe(k4),
            tf.bipartition_system(tf.full_bipartition_ground(
                6, similarity=two_cluster_similarity())),
            tf.questionnaire_system(answers)]


def test_side_views_match_the_json_sides_and_the_ground(k4):
    for system in _graph_and_subset_systems(k4):
        ground = system.ground
        d = to_json_dict(system)["ground"]
        again = from_json_dict(to_json_dict(system)).ground
        assert again == ground
        assert d["kind"] == ("sets" if ground.graph is None else "graph")
        for o in system.all_oriented():
            # sepsys/v2 lists the side of every oriented id
            side, other = frozenset(d["sides"][o]), frozenset(d["sides"][o ^ 1])
            assert ground.side(o) == side
            if ground.graph is not None:
                assert side_pair(ground, o) == (other, side)
                # a separation (A, B) = (other, side): the sides cover V
                # with no edge across
                A, B = other, side
                assert A | B == frozenset(k4.vertices())
                assert not any(k4.has_edge(u, v) for u in A - B for v in B - A)
                assert system.order_of(o) == len(A & B)
            else:
                assert other == frozenset(range(ground.size)) - side
        for a in system.all_oriented():
            for b in system.all_oriented():
                if ground.graph is None:
                    assert bool(system.leq[a, b]) == \
                        (ground.side(a) <= ground.side(b))
                else:
                    (A, B), (C, D) = side_pair(ground, a), side_pair(ground, b)
                    assert bool(system.leq[a, b]) == (A >= C and B <= D)
