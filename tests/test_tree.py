"""Tree structure, leaf lookup/classification, the predicate ladder and the
oracle's tree checkers, restriction."""

import numpy as np
import pytest

import tangleforge as tf
import tangleforge.tree as tr
from tangleforge.errors import (LeafHasNoSep, NotAStructureTree, NotOrdered,
                                ValidationError)
from tangleforge.oracle import (TREE_PROPERTIES, all_tangles,
                                is_strongly_efficient_in)
from tangleforge.system import ids_of, mask_of

from conftest import (all_graphs_up_to_iso, depth, faults_of, is_ancestor,
                      leaf_of, local_tangles, nested_pair_system,
                      original_labels, random_relation_system,
                      random_subset_system, redundant_split_family,
                      redundant_split_system, replayed, split_leaf,
                      standardized_explicit, tree_shape)


@pytest.fixture(scope="module")
def nested_tree():
    system = nested_pair_system()
    fam = tf.make_empty()
    return system, fam, tf.build(system, fam)


# -- beta / s_of -------------------------------------------------------------


def test_beta_of_root_is_empty(nested_tree):
    _, _, t = nested_tree
    assert t.beta(t.root) == 0


def test_betas_of_the_nested_pair_tree(nested_tree):
    system, _, t = nested_tree
    betas = sorted(ids_of(t.beta(leaf)) for leaf in t.leaves())
    assert betas == [[0, 2], [0, 3], [1]]
    for leaf in t.leaves():
        assert t.beta(leaf).bit_count() == depth(t, leaf)


def test_s_of_errors_on_leaves(nested_tree):
    _, _, t = nested_tree
    with pytest.raises(LeafHasNoSep):
        t.s_of(t.leaves()[0])
    assert t.s_of(t.root) == 0


# -- leaf lookup ----------------------------------------------------------------


def test_backward_orientation_lands_on_the_shallow_leaf(nested_tree):
    _, _, t = nested_tree
    leaf = leaf_of(t, frozenset({1, 3}))
    assert ids_of(t.beta(leaf)) == [1]


@pytest.mark.parametrize("seed", range(8))
def test_every_orientation_chooses_exactly_one_leaf(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    from itertools import product
    for choice in product(*[system.orientations_of(s) for s in system.seps()]):
        tau = frozenset(choice)
        holders = [l for l in t.leaves() if not t.beta(l) & ~mask_of(tau)]
        assert len(holders) == 1


# -- classification ---------------------------------------------------------------


def test_every_leaf_of_the_nested_tree_is_a_tangle_leaf(nested_tree):
    system, fam, t = nested_tree
    for leaf in t.leaves():
        cls = tf.classify_leaf(t, leaf, fam)
        assert cls.kind == "tangle"
        assert cls.tangle == frozenset(ids_of(system.closure(t.beta(leaf))))


def test_empty_side_is_a_forbidden_leaf_under_agreement_one():
    sysb = tf.bipartition_system(tf.full_bipartition_ground(3))
    c1 = tf.make_cluster(1, sysb)
    t = tf.StructureTree.single_root(sysb)
    empty_side = next(o for o in sysb.all_oriented() if not sysb.ground.side(o))
    t, kids = split_leaf(t, t.root, empty_side // 2)
    leaf = next(c for c in kids if t.label(c) == empty_side)
    cls = tf.classify_leaf(t, leaf, c1)
    assert cls.kind == "forbidden" and cls.witness.members == {empty_side}


def test_partial_closures_stay_unresolved(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    t = tf.StructureTree.single_root(s3)
    assert tf.classify_leaf(t, t.root, fam).kind == "unresolved"


# -- predicate ladder ---------------------------------------------------------------


def failing(faults):
    """The properties the oracle's ``tree_faults`` finds broken."""
    return [name for name in TREE_PROPERTIES if faults[name] is not None]


def test_single_node_tree_passes_everything(nested_pair):
    t = tf.StructureTree.single_root(nested_pair)
    fam = tf.make_empty()
    assert tf.is_separation_tree(t)
    assert tf.is_consistent_tree(t)
    assert tf.is_ordered(t)
    # the root closes to the empty set, which orients nothing here
    assert not tf.is_structure_tree(t, fam)
    faults = faults_of(t, fam)
    assert failing(faults) == ["structure tree"]
    assert faults["structure tree"] == f"leaf {t.root} is not resolved"


def test_single_forbidden_root_is_an_f_tree():
    k2 = tf.Graph.from_edges(2, [(0, 1)])
    s = tf.graph_system(k2, 1)
    fam = tf.make_blocks(5, s)  # fewer than five vertices exist at all
    t = tf.build(s, fam)
    assert len(t) == 1
    assert tf.is_f_tree(t, fam)


def test_build_output_passes_the_ladder(nested_tree):
    system, fam, t = nested_tree
    assert tf.is_separation_tree(t)
    assert tf.is_consistent_tree(t)
    assert tf.is_ordered(t)
    assert tf.is_structure_tree(t, fam)
    assert not tf.is_f_tree(t, fam)
    assert failing(faults_of(t, fam)) == []


def test_reduction_keeps_structure_but_can_break_thorough_ordering():
    system = redundant_split_system()
    fam = redundant_split_family(system)
    t = tf.build(system, fam)
    red, _ = tf.reduce(t, fam)
    assert tf.is_structure_tree(red, fam)
    assert tf.is_ordered(red)
    faults = faults_of(red, fam)
    assert failing(faults) == ["thoroughly ordered"]  # the cheap split is gone
    assert faults["thoroughly ordered"] == \
        f"node {red.root} splits no cheapest open separation"


def test_repeated_separation_on_a_root_path_is_flagged(nested_pair):
    t = tr.StructureTree(
        nested_pair, 0,
        {0: None, 1: 0, 2: 0, 3: 1, 4: 1},
        {0: (1, 2), 1: (3, 4), 2: (), 3: (), 4: ()},
        {0: None, 1: 0, 2: 1, 3: 0, 4: 1})
    assert not tf.is_separation_tree(t)
    faults = faults_of(t, tf.make_empty())
    assert faults["separation tree"] == "node 1 splits no new separation"
    assert faults["structure tree"] == faults["separation tree"]


def test_labels_pointing_away_are_flagged(nested_pair):
    # 1 <= 3 = 2*: the labels 1 and 2 on the path to node 3 point away
    t = tr.StructureTree(
        nested_pair, 0,
        {0: None, 1: 0, 2: 0, 3: 1, 4: 1},
        {0: (1, 2), 1: (3, 4), 2: (), 3: (), 4: ()},
        {0: None, 1: 1, 2: 0, 3: 2, 4: 3})
    assert not tf.is_consistent_tree(t)
    faults = faults_of(t, tf.make_empty())
    assert failing(faults) == ["consistent", "thoroughly ordered",
                               "efficient", "structure tree"]
    assert faults["consistent"] == "labels on the path to 3 point away"
    assert faults["structure tree"] == faults["consistent"]


def test_an_eclipsed_label_is_flagged(nested_pair):
    # splitting order 2 first: leaf 3 keeps the label 3 above its label 1,
    # of order 1
    t = tr.StructureTree(
        nested_pair, 0,
        {0: None, 1: 0, 2: 0, 3: 1, 4: 1},
        {0: (1, 2), 1: (3, 4), 2: (), 3: (), 4: ()},
        {0: None, 1: 3, 2: 2, 3: 1, 4: 0})
    faults = faults_of(t, tf.make_empty())
    assert failing(faults) == ["ordered", "thoroughly ordered", "efficient"]
    assert faults["efficient"] == "label 3 at leaf 3 is eclipsed"


# -- tangle extraction -----------------------------------------------------------


def test_nested_tree_displays_all_three(nested_tree):
    system, fam, t = nested_tree
    assert [sorted(x) for x in tf.tangles(t, fam)] == [[0, 2], [0, 3], [1, 3]]


def test_f_tree_displays_nothing(p5):
    s3 = tf.graph_system(p5, 3)
    fam = tf.make_blocks(3, s3)
    t = tf.build(s3, fam)
    assert tf.is_f_tree(t, fam)
    assert tf.tangles(t, fam) == []


def test_tangles_requires_a_structure_tree(nested_pair):
    t = tf.StructureTree.single_root(nested_pair)
    with pytest.raises(NotAStructureTree):
        tf.tangles(t, tf.make_empty())


class CountingFamily:
    """A family that records every set it is asked about: ``asked`` whether
    it holds a member, ``witnessed`` for the member itself."""

    def __init__(self, family):
        self.family = family
        self.asked = []
        self.witnessed = []

    def holds_member(self, system, members):
        self.asked.append(members)
        return self.family.holds_member(system, members)

    def forbidden_subset(self, system, members):
        self.witnessed.append(members)
        return self.family.forbidden_subset(system, members)

    def __getattr__(self, name):
        return getattr(self.family, name)


CLASS_READERS = [tr.classify_all, tf.tangles, tf.is_f_tree, tf.certificates_of]


@pytest.mark.parametrize("first", CLASS_READERS,
                         ids=lambda f: f.__name__)
def test_a_classified_tree_makes_no_leaf_query_again(first, two_k4):
    system = tf.graph_system(two_k4, 3)
    fam = CountingFamily(tf.make_blocks(3, system))
    built = tf.build(system, fam)  # classified while it grew
    for tree, classified in ((built, True), (tf.restrict(built, 2), False)):
        betas = [tree.beta(leaf) for leaf in tree.leaves()]
        leaf_sets = set(betas) | {tree.system.closure(b) for b in betas
                                  if tree.system.is_consistent(b)}
        fam.asked.clear()
        fam.witnessed.clear()
        first(tree, fam)
        # the first reader classifies a tree not yet classified
        assert bool(leaf_sets & set(fam.asked)) is not classified
        fam.asked.clear()
        for again in CLASS_READERS:
            again(tree, fam)
        assert not leaf_sets & set(fam.asked)
        # a witness is built on its first read and kept with its class
        assert len(fam.witnessed) == len(set(fam.witnessed))


def test_leaf_classes_are_kept_per_family(two_k4):
    system = tf.graph_system(two_k4, 3)
    tree = tf.build(system, tf.make_blocks(3, system))
    for fam in (tf.make_blocks(3, system), tf.make_blocks(2, system)):
        assert tr.classify_all(tree, fam) == {
            leaf: tf.classify_leaf(tree, leaf, fam) for leaf in tree.leaves()}


def test_a_built_tree_keeps_the_classes_of_its_leaves_only(two_k4):
    # build classifies each node it makes, and a split drops the class of
    # the node it splits: 63 nodes on two_k4, of which 32 are leaves
    system = tf.graph_system(two_k4, 3)
    fam = tf.make_blocks(3, system)
    tree = tf.build(system, fam)
    memo = tree._classes[fam]
    assert sorted(memo) == tree.leaves() and (len(tree), len(memo)) == (63, 32)
    assert memo == {leaf: tf.classify_leaf(tree, leaf, fam)
                    for leaf in tree.leaves()}


def test_cluster_restriction_shows_the_two_clusters(six_cluster_system):
    fam = tf.make_cluster(3, six_cluster_system)
    t = tf.build(six_cluster_system, fam)
    r2 = tf.restrict(t, 2.0)
    pair = tf.tangles(r2, fam)
    assert len(pair) == 2
    ground = r2.system.ground
    cores = sorted(sorted(frozenset.intersection(*[ground.side(o) for o in tau]))
                   for tau in pair)
    assert cores == [[0, 1, 2], [3, 4, 5]]


# -- structural invariants ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_split_orientations_are_minimal_next_to_their_path(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    for v in t.non_leaves():
        beta = t.beta(v)
        s = t.s_of(v)
        for o in system.orientations_of(s):
            group = ids_of(beta | 1 << o)
            assert not any(system.lt(y, o) for y in group if y != o)
        closure = system.closure(beta)
        assert not closure >> 2 * s & 3


def test_size_bound(nested_tree):
    system, fam, t = nested_tree
    assert len(t.leaves()) <= 2 ** system.count
    assert len(t) < 2 ** (system.count + 1)


@pytest.mark.parametrize("seed", range(8))
def test_strongly_efficient_closure_subsets_live_on_the_path(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    for v in t.nodes():
        beta = t.beta(v)
        closure = system.closure(beta)
        # the union of the strongly efficient subsets of the closure, and so
        # each of them, lives inside the path labels
        survivors = mask_of(x for x in ids_of(closure) if
                            is_strongly_efficient_in(system, [x], ids_of(closure)))
        assert not survivors & ~beta or not system.is_consistent(closure)


# -- restriction -----------------------------------------------------------------


def test_restrict_identity_and_root_collapse(nested_tree):
    system, fam, t = nested_tree
    full = tf.restrict(t, float("inf"))
    assert tree_shape(full)[0] == tree_shape(t)[0]
    assert original_labels(full, system) == \
        {v: t.label(v) for v in t.nodes()}
    tiny = tf.restrict(t, 0.5)
    assert len(tiny) == 1 and tiny.leaves() == [t.root]


def test_restrict_requires_an_ordered_tree():
    system = redundant_split_system()
    # swap orders so the built tree orders break after hand edits
    t = tr.StructureTree(
        system, 0,
        {0: None, 1: 0, 2: 0, 3: 1, 4: 1},
        {0: (1, 2), 1: (3, 4), 2: (), 3: (), 4: ()},
        {0: None, 1: 2, 2: 3, 3: 0, 4: 1})
    with pytest.raises(NotOrdered):
        tf.restrict(t, 1.5)


def test_k4_restriction_matches_the_low_level_oracle(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    t = tf.build(s3, fam)
    r2 = tf.restrict(t, 2.0)
    assert tf.is_structure_tree(r2, fam)
    low = s3.restrict_below(2.0)
    want = sorted(sorted(x) for x in all_tangles(low, fam))
    assert local_tangles(r2.system, tf.tangles(r2, fam)) == want


@pytest.mark.parametrize("seed", range(6))
def test_restrictions_nest_and_commute_with_tangle_inclusion(seed):
    system = random_subset_system(seed, n_seps=5)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    if not tf.is_structure_tree(t, fam):
        return
    lo, hi = 2.0, 3.0
    two_step = tf.restrict(tf.restrict(t, hi), lo)
    one_step = tf.restrict(t, lo)
    assert tree_shape(two_step)[1].keys() == tree_shape(one_step)[1].keys()
    assert original_labels(two_step, system) == original_labels(one_step, system)
    # tangle hierarchy: the low-level leaf sits on the high-level leaf's path
    rt_hi, rt_lo = tf.restrict(t, hi), one_step
    if not (tf.is_structure_tree(rt_hi, fam) and tf.is_structure_tree(rt_lo, fam)):
        return
    # each level's tangles, read in local ids, are its carved system's, and
    # a tangle's elements map up through that system into the top one
    low_hi, low_lo = system.restrict_below(hi), system.restrict_below(lo)
    up_hi = low_hi.oriented_into(system)
    up_lo = low_lo.oriented_into(system)
    for rt, low in ((rt_hi, low_hi), (rt_lo, low_lo)):
        assert local_tangles(rt.system, tf.tangles(rt, fam)) == \
            sorted(sorted(x) for x in all_tangles(low, fam))
    local_hi, local_lo = rt_hi.system.local, rt_lo.system.local
    for tau_hi in tf.tangles(rt_hi, fam):
        tau_orig = {up_hi[local_hi(o)] for o in tau_hi}
        tau_lo = frozenset(o for o in rt_lo.system.all_oriented()
                           if up_lo[local_lo(o)] in tau_orig)
        if not rt_lo.system.orients_all(mask_of(tau_lo)):
            continue
        leaf_hi, leaf_lo = leaf_of(rt_hi, tau_hi), leaf_of(rt_lo, tau_lo)
        # both restrictions preserve node identities from the parent tree
        assert is_ancestor(t, leaf_lo, leaf_hi)


# -- serialization -----------------------------------------------------------------


def test_tree_json_round_trip(nested_tree):
    system, fam, t = nested_tree
    text = tf.tree.dump_tree(t)
    again = tf.tree.load_tree(text)
    assert tf.tree.dump_tree(again) == text
    assert tree_shape(again) == tree_shape(t)
    assert tf.is_structure_tree(again, tf.make_empty())


@pytest.mark.parametrize("node, field, value", [
    (1, "parent", 99), (1, "id", "x"), (0, "edge_label", [0])])
def test_tree_loader_names_a_malformed_node(nested_tree, node, field, value):
    _, _, t = nested_tree
    d = tf.tree_to_json_dict(t)
    d["nodes"][node][field] = value
    with pytest.raises(ValidationError):
        tf.tree_from_json_dict(d)


def test_dot_export_is_deterministic(nested_tree):
    system, fam, t = nested_tree
    a = tf.to_dot(t, fam)
    b = tf.to_dot(t, fam)
    assert a == b
    assert a.startswith("digraph")
    assert "palegreen" in a  # tangle leaves coloured


def test_reduced_block_tree_keeps_structure_and_efficiency(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    red, _ = tf.reduce(tf.build(s3, fam), fam)
    assert tf.is_structure_tree(red, fam)
    assert faults_of(red, fam)["efficient"] is None


# -- the edge rules against the ancestor-walk definitions ------------------------


def walked_separation_tree(tree) -> bool:
    """Each inner node splits one separation, and no ancestor splits it."""
    system = tree.system
    for v in tree.non_leaves():
        labels = [tree.label(c) for c in tree.children(v)]
        if len({o >> 1 for o in labels}) != 1 or len(labels) > 2 or \
                len(labels) != len({system.canon(o) for o in labels}):
            return False
        u = tree.parent(v)
        while u is not None:
            if tree.s_of(u) == tree.s_of(v):
                return False
            u = tree.parent(u)
    return True


def walked_consistent_tree(tree) -> bool:
    """No two labels on a root path point away from each other."""
    system = tree.system
    for v in tree.nodes():
        path = ids_of(tree.beta(v))
        if any(x >> 1 != y >> 1 and system.leq[y, x ^ 1]
               for x in path for y in path):
            return False
    return True


def walked_ordered(tree) -> bool:
    """No inner node splits a lower order than any inner ancestor."""
    order = tree.system.order
    for v in tree.non_leaves():
        u = tree.parent(v)
        while u is not None:
            if order(tree.s_of(u)) > order(tree.s_of(v)):
                return False
            u = tree.parent(u)
    return True


LADDER = [(tf.is_separation_tree, walked_separation_tree),
          (tf.is_consistent_tree, walked_consistent_tree),
          (tf.is_ordered, walked_ordered)]


def assert_ladder_matches_the_walks(tree):
    for rule, walk in LADDER:
        assert bool(rule(tree)) == walk(tree), (rule.__name__, tree_shape(tree))


def degenerate_graph_systems():
    """Graph systems with k > |V|, which hold the degenerate (V, V)."""
    out = []
    for g in [tf.Graph.from_edges(3, [(0, 1)]),
              tf.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
              tf.Graph.from_edges(4, [(0, 1), (2, 3)])]:
        system = tf.graph_system(g, g.n + 1)
        assert any(system.is_degenerate(s) for s in system.seps())
        out.append((system, tf.make_blocks(g.n + 1, system)))
    return out


@pytest.fixture(scope="module")
def ladder_pool():
    """(system, family) pairs: the conftest generators, small graphs and a
    clustering, and systems with a degenerate separation."""
    out = []
    for seed in range(12):
        for system in (random_relation_system(seed, n_seps=2 + seed % 4),
                       random_subset_system(seed, n_seps=2 + seed % 4)):
            out.append((system, standardized_explicit(system, seed + 500)))
            if tf.is_standard(tf.make_empty(), system)[0]:
                out.append((system, tf.make_empty()))
    for n in (3, 4):
        for g in all_graphs_up_to_iso(n):
            for k in (1, 2, 3):
                system = tf.graph_system(g, k)
                out.append((system, tf.make_blocks(k, system)))
    ground = tf.full_bipartition_ground(5)
    system = tf.bipartition_system(ground)
    out.append((system, tf.make_cluster(2, system)))
    system = redundant_split_system()
    out.append((system, redundant_split_family(system)))
    return out + degenerate_graph_systems()


def test_edge_rules_match_the_walks_on_built_reduced_and_restricted_trees(
        ladder_pool):
    contractions = levels = 0
    for system, fam in ladder_pool:
        tree = tf.build(system, fam)
        assert_ladder_matches_the_walks(tree)
        if tf.is_structure_tree(tree, fam):
            reduced, trace = tf.reduce(tree, fam)
            step_tree = tree
            for step in trace.steps:  # every intermediate of the replay
                step_tree = replayed(step_tree, [step])
                assert_ladder_matches_the_walks(step_tree)
            assert tree_shape(step_tree) == tree_shape(reduced)
            contractions += len(trace.steps)
        for k in sorted({system.order(s) for s in system.seps()}):
            level = tf.restrict(tree, k)
            assert_ladder_matches_the_walks(level)
            if tf.is_structure_tree(level, fam):
                reduced, _ = tf.reduce(level, fam)
                assert_ladder_matches_the_walks(reduced)
            levels += 1
    assert contractions >= 100 and levels >= 200  # the pool reaches them


def assert_node_values_match_the_system(tree, order):
    """Each node's derived values, read in ``order``, against the system's
    own set methods on its label mask."""
    system = tree.system
    for v in order:
        beta = tree.beta(v)
        closure = system._closure_mask(beta)
        away = 0
        for o in ids_of(beta):
            away |= system._away[o]
        assert tree._node(v)[1:3] == (tree.closure(v), away) == (closure, away)
        consistent = system.is_consistent(beta)
        assert consistent == (system.inconsistent_pair(beta) is None)
        assert tree.consistency(v) == (consistent, system.is_consistent(closure))
        if consistent:
            assert closure == system.closure(beta)


def test_node_values_match_the_system_on_built_reduced_and_restricted_trees(
        ladder_pool):
    contractions = levels = 0
    for system, fam in ladder_pool:
        tree = tf.build(system, fam)
        assert_node_values_match_the_system(tree, tree.nodes())
        if tf.is_structure_tree(tree, fam):
            _, trace = tf.reduce(tree, fam)
            step_tree = tree
            for step in trace.steps:  # read from the root down
                step_tree = replayed(step_tree, [step])
                assert_node_values_match_the_system(step_tree,
                                                    step_tree.nodes())
            contractions += len(trace.steps)
            # a loaded tree knows only its root; read from the leaves up
            loaded = tf.tree_from_json_dict(tf.tree_to_json_dict(tree), system)
            assert_node_values_match_the_system(loaded, loaded.nodes()[::-1])
        for k in sorted({system.order(s) for s in system.seps()}):
            level = tf.restrict(tree, k)  # deepest first: from the root down
            assert_node_values_match_the_system(level, level.nodes()[::-1])
            levels += 1
    assert contractions >= 100 and levels >= 200  # the pool reaches them


def test_level_f_tree_is_an_empty_tangle_list(ladder_pool):
    for system, fam in ladder_pool[::3]:
        for lv in tf.pipeline(system, fam).levels:
            if lv.structure_ok:
                assert lv.f_tree == bool(tf.is_f_tree(lv.reduced, fam))


def three_separation_system():
    """The nested pair (2 < 0, 1 < 3, so 1 and 2 point away from each
    other) and a third separation nested with neither; orders 1, 2, 3."""
    leq = np.eye(6, dtype=bool)
    leq[2, 0] = leq[1, 3] = True
    return tf.SeparationSystem(leq, [1.0, 2.0, 3.0])


def tree_of(system, edges):
    """A tree/v1 tree from (node, parent, label) triples, root 0."""
    return tf.tree_from_json_dict({
        "format": "tree/v1", "root": 0,
        "nodes": [{"id": 0, "parent": None, "edge_label": None}] +
                 [{"id": v, "parent": p, "edge_label": o} for v, p, o in edges],
        "system_ref": tf.to_json_dict(system)}, system)


def two_edges_apart(first, middle, last):
    """Root splits by ``first``; its first child by ``middle``; that
    child's first child by ``last``: each an (label, label) pair."""
    return [(1, 0, first[0]), (2, 0, first[1]),
            (3, 1, middle[0]), (4, 1, middle[1]),
            (5, 3, last[0]), (6, 3, last[1])]


def hand_made_trees():
    system = three_separation_system()
    deg_system = degenerate_graph_systems()[0][0]
    s = next(s for s in deg_system.seps() if deg_system.is_degenerate(s))
    t = next(t for t in deg_system.seps() if t != s)
    return {
        # separation 0 split at the root and again two edges below
        "split-twice": tree_of(system, two_edges_apart((0, 1), (4, 5), (0, 1))),
        # labels 1 and 2 point away from each other, two edges apart
        "away-two-edges-apart": tree_of(system, two_edges_apart(
            (1, 0), (4, 5), (2, 3))),
        "away-one-edge-apart": tree_of(system, [
            (1, 0, 1), (2, 0, 0), (3, 1, 2), (4, 1, 3)]),
        # order 3 at the root, 1 below it, 2 below that
        "order-drops-below-the-grandparent": tree_of(system, two_edges_apart(
            (4, 5), (0, 1), (2, 3))),
        "order-drops-at-the-grandchild": tree_of(system, two_edges_apart(
            (0, 1), (4, 5), (2, 3))),
        "ordered": tree_of(system, two_edges_apart((0, 1), (2, 3), (4, 5))),
        # the odd id of the degenerate separation, alone and under a split
        "degenerate-odd-id": tree_of(deg_system, [(1, 0, 2 * s + 1)]),
        "degenerate-odd-id-below": tree_of(deg_system, [
            (1, 0, 2 * t), (2, 0, 2 * t + 1), (3, 1, 2 * s + 1)]),
        "degenerate-both-ids": tree_of(deg_system, [
            (1, 0, 2 * s), (2, 0, 2 * s + 1)]),
        "degenerate-twice": tree_of(deg_system, [
            (1, 0, 2 * s + 1), (2, 1, 2 * t), (3, 1, 2 * t + 1),
            (4, 2, 2 * s)]),
    }


@pytest.mark.parametrize("name", sorted(hand_made_trees()))
def test_edge_rules_match_the_walks_on_hand_made_trees(name):
    assert_ladder_matches_the_walks(hand_made_trees()[name])


@pytest.mark.parametrize("name", sorted(hand_made_trees()))
def test_node_values_match_the_system_on_hand_made_trees(name):
    # inconsistent paths, repeated separations and the degenerate odd id
    tree = hand_made_trees()[name]
    assert_node_values_match_the_system(tree, tree.nodes()[::-1])


def test_hand_made_trees_break_the_rules_they_are_made_to_break():
    trees = hand_made_trees()
    for name in ("split-twice", "degenerate-both-ids", "degenerate-twice"):
        assert not tf.is_separation_tree(trees[name])
    for name in ("away-two-edges-apart", "away-one-edge-apart"):
        assert tf.is_separation_tree(trees[name])
        assert not tf.is_consistent_tree(trees[name])
    for name in ("order-drops-below-the-grandparent",
                 "order-drops-at-the-grandchild"):
        assert not tf.is_ordered(trees[name])
    assert tf.is_ordered(trees["ordered"])
    assert tf.is_consistent_tree(trees["ordered"])


@pytest.mark.parametrize("seed", range(40))
def test_edge_rules_match_the_walks_on_random_labellings(seed, ladder_pool):
    # any labels at all, so that the rules meet trees that break several
    # of them at once, in any node order
    rng = np.random.default_rng(seed)
    system, _ = ladder_pool[int(rng.integers(len(ladder_pool)))]
    if not system.count:
        return
    parent, label, nodes = {0: None}, {0: None}, [0]
    while len(nodes) < 9:
        v = nodes[int(rng.integers(len(nodes)))]
        if sum(p == v for p in parent.values()) < 2:
            w = int(rng.integers(100))
            if w not in parent:
                parent[w], label[w] = v, int(rng.integers(system.n_oriented))
                nodes.append(w)
    children = {v: tuple(sorted(w for w, p in parent.items() if p == v))
                for v in parent}
    tree = tr.StructureTree(system, 0, parent, children, label)
    assert_ladder_matches_the_walks(tree)
    assert_node_values_match_the_system(tree, tree.nodes())
