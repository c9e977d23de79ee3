"""Pipeline levels as views of the top system.

``restrict`` gives a tree over ``system.view_below(k)``: the top system with
the separations of order below ``k`` live, in the top system's ids.  Each
test reads a view through ``local`` against the carved ``restrict_below(k)``,
which ``restrict_relabelled`` (conftest) builds the level over.
"""

import gc
import weakref

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.errors import SystemIsAView
from tangleforge.oracle import all_consistent_orientations, all_tangles
from tangleforge.system import ids_of, mask_of, to_json_dict, validate
from tangleforge.tree import dump_tree

from conftest import (FIXTURES, antichain_system, assert_level_matches_carved,
                      closed_under_pointwise_lowering, degenerate_pair_system,
                      load_nonrich_fixture, local_mask, nested_pair_system,
                      random_subset_system, redundant_split_family,
                      redundant_split_system, restrict_relabelled, split_leaf,
                      standardized_explicit, trivial_top_system,
                      two_cluster_similarity)


def _graph(name):
    return tf.Graph.from_edge_list((FIXTURES / name).read_text())


def _named():
    """(name, system, family, thresholds) of the named systems, two of them
    holding a degenerate separation that levels above its order keep, and
    one a member above an element of higher order."""
    six = tf.bipartition_system(
        tf.full_bipartition_ground(6, similarity=two_cluster_similarity()))
    bip4 = tf.bipartition_system(tf.full_bipartition_ground(4))
    k4_5 = tf.graph_system(_graph("k4.edges"), 5)
    trivial = trivial_top_system()
    redundant = redundant_split_system()
    nonrich, nonrich_family = load_nonrich_fixture()
    nested = nested_pair_system()
    out = [("nested-pair", nested, tf.make_empty(), None),
           ("nested-pair/explicit", nested, tf.make_explicit([[0]], nested),
            None),
           ("antichain", antichain_system(3, [1.0, 2.0, 3.0]),
            tf.make_empty(), None),
           ("redundant-split", redundant, redundant_split_family(redundant),
            None),
           ("trivial-top", trivial, standardized_explicit(trivial, 0), None),
           ("nonrich", nonrich, nonrich_family, None),
           ("six/cluster2", six, tf.make_cluster(2, six), None),
           ("six/cluster3", six, tf.make_cluster(3, six), None),
           ("bip4/strong-profile", bip4, tf.make_strong_profile(bip4), None),
           ("k4/blocks5", k4_5, tf.make_blocks(5, k4_5),
            [1.0, 3.0, 4.0, 4.5, float("inf")]),
           ("degenerate", degenerate_pair_system(), tf.make_empty(), None)]
    for name in ("k4", "p5", "two_k4"):
        system = tf.graph_system(_graph(f"{name}.edges"), 3)
        out += [(f"{name}/blocks3", system, tf.make_blocks(3, system), None),
                (f"{name}/tangle", system, tf.make_graph_tangle(system), None)]
    return out


NAMED = _named()


@pytest.mark.parametrize("name, system, family, thresholds", NAMED,
                         ids=[n[0] for n in NAMED])
def test_named_levels_stand_for_their_carved_systems(name, system, family,
                                                     thresholds):
    report = tf.pipeline(system, family, thresholds)
    assert report.levels
    for lv in report.levels:
        assert_level_matches_carved(report.tree_full, lv, family)


@pytest.mark.parametrize("name, system, family, thresholds", NAMED,
                         ids=[n[0] for n in NAMED])
def test_a_view_tree_writes_the_dot_of_its_carved_tree(name, system, family,
                                                       thresholds):
    # to_dot, like the JSON writers, writes a view's tree in local ids;
    # without a family too, and after reduction where the level allows one
    full = tf.build(system, family)
    for k in _levels(system):
        tree, carved = tf.restrict(full, k), restrict_relabelled(full, k)
        for fam in (None, family):
            assert tf.to_dot(tree, fam) == tf.to_dot(carved, fam)
        if tf.is_structure_tree(carved, family):
            assert tf.to_dot(tf.reduce(tree, family)[0], family) == \
                tf.to_dot(tf.reduce(carved, family)[0], family)


def test_some_level_keeps_a_degenerate_separation():
    kept = [lv.k for name, system, family, thresholds in NAMED
            for lv in tf.pipeline(system, family, thresholds).levels
            if lv.tree.system._degenerate & lv.tree.system.live]
    assert kept


def _levels(system):
    """Every threshold between the system's orders, and infinity."""
    return sorted({system.order(s) for s in system.seps()}) + [np.inf]


def assert_masks_match_carved(view, carved):
    """Each mask of the view, clipped to its live ids and read through
    ``local``, is the carved system's."""
    for name in ("up", "down", "_below", "_requires", "_away"):
        assert [local_mask(view, getattr(view, name)[o] & view.live)
                for o in view.all_oriented()] == \
            list(getattr(carved, name)), name
    for name in ("_even", "_degenerate"):
        assert local_mask(view, getattr(view, name) & view.live) == \
            getattr(carved, name), name
    assert [view.local(2 * s) // 2 for s in view._by_order] == \
        carved._by_order


@pytest.mark.parametrize("name, system, family, thresholds", NAMED,
                         ids=[n[0] for n in NAMED])
def test_a_view_shares_the_order_masks_of_its_base(name, system, family,
                                                   thresholds):
    # Only the forward ids are clipped to the live ids; a closure is
    # clipped where it is formed, and every reader of the order masks reads
    # them at live ids.
    for k in _levels(system):
        view = system.view_below(k)
        for table in ("up", "down", "_below", "_requires", "_away"):
            assert getattr(view, table) is getattr(system, table), table
        assert view._degenerate == system._degenerate


def cotrivial_through_a_high_separation():
    """Separation 0 (order 1) has both orientations of separation 1 (order
    2) strictly below its backward orientation 1: so 1 is trivial and 0
    co-trivial, but only through separation 1."""
    leq = np.eye(4, dtype=bool)
    for a, b in [(2, 1), (3, 1), (0, 2), (0, 3), (0, 1)]:
        leq[a, b] = True
    return tf.SeparationSystem(leq, [1.0, 2.0])


def test_a_label_cotrivial_only_above_k_is_not_cotrivial_in_the_level():
    # The level below 2 holds separation 0 alone, where 0 is not
    # co-trivial; a view that kept the top's _below and _even would still
    # see both orientations of separation 1 below 1 and call 0 co-trivial.
    system = cotrivial_through_a_high_separation()
    assert system.is_cotrivial(0) and system.trivial_orienteds() == [1]
    tree, (low, high) = split_leaf(tf.StructureTree.single_root(system), 0, 0)
    tree, _ = split_leaf(tree, high, 1)
    assert tree.consistency(low) == (True, False)
    level = tf.restrict(tree, 2)
    assert not level.system.is_cotrivial(0)
    assert level.system.trivial_orienteds() == []
    assert level.consistency(low) == (True, True)
    assert restrict_relabelled(tree, 2).consistency(low) == (True, True)
    fam = tf.make_empty()
    assert tf.tangles(level, fam) == [frozenset({0}), frozenset({1})]
    assert [sorted(t) for t in all_tangles(system.restrict_below(2), fam)] \
        == [[0], [1]]


@pytest.mark.parametrize("seed", range(6))
def test_a_view_of_a_view_ands_the_live_masks_over_the_top_system(seed):
    system = random_subset_system(seed, n_seps=5)
    tree = tf.build(system, standardized_explicit(system, seed))
    hi, lo = tf.restrict(tree, 3.0), tf.restrict(tree, 2.0)
    two_step = tf.restrict(hi, 2.0)
    view, direct = two_step.system, lo.system
    assert view.base is system and hi.system.base is system
    assert view.live == hi.system.live & direct.live == direct.live
    assert_masks_match_carved(view, system.restrict_below(2.0))
    assert {v: two_step.label(v) for v in two_step.nodes()} == \
        {v: lo.label(v) for v in lo.nodes()}
    assert dump_tree(two_step) == dump_tree(restrict_relabelled(tree, 2.0))


def test_a_dropped_system_is_freed_without_the_cyclic_collector():
    # a whole system is its own base without a reference to itself, and a
    # view holds its base
    gc.disable()
    try:
        system = tf.graph_system(_graph("k4.edges"), 3)
        dropped = weakref.ref(system)
        del system
        assert dropped() is None
        system = tf.graph_system(_graph("k4.edges"), 3)
        view, kept = system.view_below(2), weakref.ref(system)
        del system
        assert kept() is not None and view.base is kept()
        del view
        assert kept() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name, system, family, thresholds", NAMED,
                         ids=[n[0] for n in NAMED])
def test_whole_system_readers_answer_for_the_carved_system_or_refuse(
        name, system, family, thresholds):
    tree = tf.build(system, family)
    for k in _levels(system):
        view = tf.restrict(tree, k).system
        carved = system.restrict_below(k)
        # written as the carved system, bytes and all
        assert to_json_dict(view) == to_json_dict(carved)
        assert dump_tree(tf.restrict(tree, k)) == \
            dump_tree(restrict_relabelled(tree, k))
        assert to_json_dict(view.restrict_below(k)) == to_json_dict(carved)
        assert_masks_match_carved(view, carved)
        # enumerations list the live ids, which local numbers as the carved
        assert [view.local(o) for o in view.all_oriented()] == \
            list(carved.all_oriented())
        assert [view.local(2 * s) // 2 for s in view.seps()] == \
            list(carved.seps())
        assert [view.local(o) for o in view.trivial_orienteds()] == \
            carved.trivial_orienteds()
        ok, bad = tf.is_standard(family, view)
        assert (ok, [view.local(o) for o in bad]) == \
            tf.is_standard(family, carved)
        for o in view.all_oriented():
            assert local_mask(view, view.closure(1 << o)) == \
                carved.closure(1 << view.local(o))
        # whole-system checks refuse a view: the oracle never takes it
        with pytest.raises(SystemIsAView):
            validate(view)
        with pytest.raises(SystemIsAView):
            all_tangles(view, family)
        with pytest.raises(SystemIsAView):
            all_consistent_orientations(view)
        with pytest.raises(SystemIsAView):
            tf.is_rich(family, view)


@pytest.mark.parametrize("name, system, family, thresholds", NAMED,
                         ids=[n[0] for n in NAMED])
def test_a_view_is_closed_under_minimization_as_its_carved_system(
        name, system, family, thresholds):
    # The certifier lowers each member within the view's live ids.  It
    # tries every member of up to three elements, seconds a level above 16
    # separations, so larger levels are left out.
    checked = 0
    for k in _levels(system):
        view, carved = system.view_below(k), system.restrict_below(k)
        if carved.count > 16:
            continue
        ok, bad = tf.is_closed_under_minimization(family, view)
        assert (ok, [tuple(frozenset(map(view.local, m)) for m in pair)
                     for pair in bad]) == \
            tf.is_closed_under_minimization(family, carved)
        checked += 1
    assert checked


@pytest.mark.parametrize("name, system, family, thresholds", NAMED,
                         ids=[n[0] for n in NAMED])
def test_single_lowerings_decide_every_pointwise_lowering(
        name, system, family, thresholds):
    # The reference tries every pointwise lowering, seconds a level above 9
    # separations, so larger levels are left out.
    checked = 0
    for k in _levels(system):
        view, carved = system.view_below(k), system.restrict_below(k)
        if carved.count > 9:
            continue
        for level in (view, carved):
            assert tf.is_closed_under_minimization(family, level)[0] == \
                closed_under_pointwise_lowering(family, level)
        checked += 1
    assert checked


def test_a_family_bound_to_a_view_answers_queries_from_its_system():
    system = nested_pair_system()
    view = system.view_below(2)
    fam = tf.make_explicit([[1]], view)
    assert view.oriented_into(view) == tuple(range(system.n_oriented))
    assert fam.holds_member(view, mask_of([1]))
    assert fam.holds_member(system, mask_of([1, 2]))
    assert not fam.holds_member(view, mask_of([0]))
    assert ids_of(fam.critical_labels(view, mask_of([0, 1]))) == [1]
