"""Brute-force enumeration: the ground truth everything else is checked against."""

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.errors import BudgetExceeded
from tangleforge.oracle import (OracleBudget, all_consistent_orientations,
                                all_kblocks, all_tangles, is_efficient_in,
                                is_strongly_efficient_in, minimal_elements)
from tangleforge.system import ids_of, mask_of

from conftest import (all_graphs_up_to_iso, antichain_system,
                      random_subset_system, standardized_explicit)
from test_families import all_subsets, k4_universe_families, six_families


def test_empty_system_has_the_empty_orientation():
    empty = tf.SeparationSystem(np.zeros((0, 0), dtype=bool), [])
    assert all_consistent_orientations(empty) == [frozenset()]


def test_nested_pair_has_three(nested_pair):
    assert [sorted(t) for t in all_consistent_orientations(nested_pair)] == \
        [[0, 2], [0, 3], [1, 3]]


def test_two_incomparable_separations_have_four():
    assert len(all_consistent_orientations(antichain_system(2))) == 4


def test_lexicographic_output_order():
    sys3 = antichain_system(3)
    out = [tuple(sorted(t)) for t in all_consistent_orientations(sys3)]
    assert out == sorted(out)


def test_empty_family_keeps_every_orientation(nested_pair):
    fam = tf.make_empty()
    assert all_tangles(nested_pair, fam) == \
        all_consistent_orientations(nested_pair)


@pytest.mark.parametrize("seed", range(10))
def test_pruned_tangle_walk_matches_filtering(seed):
    """The forbidden-pruned enumeration must agree with filtering the plain one."""
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed + 1000)
    pruned = all_tangles(system, fam)
    filtered = [t for t in all_consistent_orientations(system)
                if fam.forbidden_subset(system, mask_of(t)) is None]
    assert pruned == filtered


@pytest.mark.parametrize("seed", range(3))
def test_the_walk_matches_an_unpruned_reference_for_every_kind(seed, k4):
    # The walk asks is_member of o with at most arity - 1 chosen ids, or
    # with all of them at unbounded arity; the reference asks it of every
    # subset of every consistent orientation, in the family's ids.
    families = six_families(seed)
    # cluster:2 leaves the 4-point universe no tangle, cluster:1 some; on
    # this graph a blocks member may need more than the new id and one other
    families.append(tf.make_cluster(1, families[1].system))
    graph = tf.graph_system(all_graphs_up_to_iso(4)[3], 2)
    families.append(tf.make_blocks(2, graph))
    cases = [(fam, fam.system) for fam in families]
    cases += [(fam, fam.system.restrict_below(2))
              for fam in k4_universe_families(k4)]
    pruned_some = set()
    for fam, system in cases:
        assert system.count <= 8
        up = system.oriented_into(fam.system)
        every = all_consistent_orientations(system)
        want = [tau for tau in every
                if not any(fam.is_member({up[x] for x in sub})
                           for sub in all_subsets(tau))]
        assert all_tangles(system, fam) == want, (fam.kind, system.count)
        if 0 < len(want) < len(every):
            pruned_some.add(fam.kind)
    # some orientations pruned and others kept, for each kind but the
    # seeded explicit family, which may forbid all or none
    assert pruned_some >= {"cluster", "profile", "strong_profile", "blocks",
                           "graph_tangle"}


def test_k4_block_family_counts(k4):
    s3 = tf.graph_system(k4, 3)
    assert len(all_tangles(s3, tf.make_blocks(3, s3))) == 1


def test_p5_has_no_block_tangles(p5):
    s3 = tf.graph_system(p5, 3)
    assert all_tangles(s3, tf.make_blocks(3, s3),
                       OracleBudget(max_separations=40)) == []


def test_budget_refuses_oversized_systems():
    system = random_subset_system(0, n_seps=5)
    with pytest.raises(BudgetExceeded):
        all_consistent_orientations(system, OracleBudget(max_separations=4))


def test_visit_budget_trips():
    system = antichain_system(8)
    with pytest.raises(BudgetExceeded):
        all_consistent_orientations(
            system, OracleBudget(max_separations=16, max_visits=10))


# -- minimality and eclipse ------------------------------------------------------


def test_minimal_elements_of_the_towards_pair(nested_pair):
    tau = frozenset({0, 3})
    assert minimal_elements(nested_pair, tau) == tau
    assert is_strongly_efficient_in(nested_pair, tau, tau)


def test_minimal_elements_of_a_chain_orientation(nested_pair):
    # 2 < 0, so only 2 is minimal in {0, 2}
    assert minimal_elements(nested_pair, frozenset({0, 2})) == {2}


def test_empty_set_is_efficient_anywhere(nested_pair):
    assert is_efficient_in(nested_pair, frozenset(), frozenset({0, 2}))


def test_equal_orders_split_weak_from_strict_eclipse():
    leq = np.eye(4, dtype=bool)
    leq[2, 0] = leq[1, 3] = True
    system = tf.SeparationSystem(leq, [2.0, 2.0])
    tau = frozenset({0, 2})
    assert is_efficient_in(system, tau, tau)  # no strict order drop
    assert not is_strongly_efficient_in(system, tau, tau)


@pytest.mark.parametrize("seed", range(12))
def test_injective_orders_collapse_the_two_efficiency_notions(seed):
    system = random_subset_system(seed, n_seps=4, orders="injective")
    for tau in all_consistent_orientations(system):
        subs = [frozenset()] + [tau - {x} for x in tau] + [tau]
        for sigma in subs:
            assert is_efficient_in(system, sigma, tau) == \
                is_strongly_efficient_in(system, sigma, tau)


# -- graph block ground truth -----------------------------------------------------


def test_k4_block_is_everything(k4):
    assert all_kblocks(k4, 3) == [frozenset(range(4))]


def test_p5_has_no_3_block(p5):
    assert all_kblocks(p5, 3) == []


def test_two_k4_blocks(two_k4):
    assert [sorted(b) for b in all_kblocks(two_k4, 3)] == \
        [[0, 1, 2, 3], [4, 5, 6, 7]]


@pytest.mark.parametrize("seed", range(6))
def test_growing_an_explicit_family_never_adds_tangles(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    bigger = tf.make_explicit([*map(ids_of, fam.members), [0]], system)
    before = all_tangles(system, fam)
    after = all_tangles(system, bigger)
    assert set(after) <= set(before)


@pytest.mark.parametrize("points", [2, 3, 4])
def test_strong_family_tangles_are_profile_tangles(points):
    universe = tf.bipartition_system(tf.full_bipartition_ground(points))
    p = tf.make_profile(universe)
    ps = tf.make_strong_profile(universe)
    with_p = set(all_tangles(universe, p))
    with_ps = set(all_tangles(universe, ps))
    assert with_ps <= with_p
