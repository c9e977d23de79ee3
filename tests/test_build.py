"""Construction, contraction, necessity, reduction, and the pipeline."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.build import dump_report
from tangleforge.errors import (NodeCapExceeded, NonStandardFamily,
                                NotAStructureTree)
from tangleforge.oracle import replay
from tangleforge.system import ids_of, mask_of

from conftest import (FIXTURES, antichain_system, degenerate_pair_system,
                      depth, faults_of, grid_graph, is_ancestor, leaf_of,
                      load_nonrich_fixture, necessary_for_leaf, necessary_node,
                      needed_by_definition, random_relation_system,
                      random_subset_system, redundant_split_family,
                      redundant_split_system, replayed, split_leaf,
                      standardized_explicit, tree_maps, tree_shape,
                      trivial_top_system, two_cluster_similarity)


# -- build -------------------------------------------------------------------


def test_empty_system_builds_a_single_tangle_root():
    empty = tf.SeparationSystem(np.zeros((0, 0), dtype=bool), [])
    fam = tf.make_empty()
    t = tf.build(empty, fam)
    assert len(t) == 1
    cls = tf.classify_leaf(t, t.root, fam)
    assert cls.kind == "tangle" and cls.tangle == frozenset()
    assert tf.tangles(t, fam) == [frozenset()]


def test_nested_pair_build_splits_the_cheap_separation_first(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    assert t.s_of(t.root) == 0  # order 1 before order 2
    assert [t.label(c) for c in t.children(t.root)] == [0, 1]  # forward first
    got = [sorted(x) for x in tf.tangles(t, fam)]
    assert got == [[0, 2], [0, 3], [1, 3]]
    shallow = [leaf for leaf in t.leaves() if depth(t, leaf) == 1]
    assert [ids_of(t.beta(v)) for v in shallow] == [[1]]


def test_k4_build_finds_the_single_block(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    t = tf.build(s3, fam)
    ts = tf.tangles(t, fam)
    assert len(ts) == 1
    assert tf.block_of_tangle(s3, ts[0]) == frozenset(range(4))


def test_non_standard_family_blocked_by_a_cotrivial_label():
    system = trivial_top_system()
    with pytest.raises(NonStandardFamily):
        tf.build(system, tf.make_empty())


def test_a_view_names_its_blocking_label_in_local_ids():
    # trivial_top_system behind a separation 0 of order 5, which is not
    # live below 3: the view's error names the carved level's label
    leq = np.eye(6, dtype=bool)
    for a, b in [(4, 2), (5, 2), (3, 5), (3, 4), (3, 2)]:
        leq[a, b] = True
    system = tf.SeparationSystem(leq, [5.0, 1.0, 2.0])
    messages = []
    for level in (system.view_below(3), system.restrict_below(3)):
        with pytest.raises(NonStandardFamily) as err:
            tf.build(level, tf.make_empty())
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "label 0-" in messages[0]


def test_non_rich_family_yields_an_unresolved_leaf_not_an_error():
    system, family = load_nonrich_fixture()
    t = tf.build(system, family)
    ok = tf.is_structure_tree(t, family)
    assert not ok and "neither" in (ok.why or "")


def test_build_is_deterministic(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    a = tf.build(s3, fam)
    b = tf.build(s3, fam)
    assert tf.tree.dump_tree(a) == tf.tree.dump_tree(b)


# -- contraction ------------------------------------------------------------------


def test_contracting_into_a_leaf_child_leaves_a_single_node(nested_pair):
    t = tf.StructureTree.single_root(nested_pair)
    t, kids = split_leaf(t, t.root, 0)
    t2 = replayed(t, [(t.root, kids[0])])
    assert len(t2) == 1 and t2.root == kids[0]
    assert t2.beta(t2.root) == 0


def test_contracting_the_root_keeps_only_the_deeper_split(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    deep_child = next(c for c in t.children(t.root) if not t.is_leaf(c))
    t2 = replayed(t, [(t.root, deep_child)])
    assert t2.root == deep_child
    assert t2.s_of(t2.root) == 1  # only the second separation is split now
    assert sorted(ids_of(t2.beta(l)) for l in t2.leaves()) == [[2], [3]]


def test_contraction_requires_a_parent_child_edge(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    with pytest.raises(ValueError, match="is not a child of"):
        replay(*tree_maps(t), [(t.leaves()[0], t.root)])


@pytest.mark.parametrize("seed", range(8))
def test_contraction_preserves_consistency_and_order(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    for v in t.non_leaves():
        for w in t.children(v):
            t2 = replayed(t, [(v, w)])
            assert tf.is_consistent_tree(t2)
            assert tf.is_ordered(t2)


# -- necessity ---------------------------------------------------------------------


def test_both_minimal_elements_are_necessary(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    leaf = leaf_of(t, frozenset({0, 3}))
    assert necessary_for_leaf(t, fam, 0, leaf)
    assert necessary_for_leaf(t, fam, 3, leaf)


def test_dominated_label_is_not_necessary(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    leaf = leaf_of(t, frozenset({0, 2}))
    # 2 < 0, so 0 is not minimal there
    assert not necessary_for_leaf(t, fam, 0, leaf)
    assert necessary_for_leaf(t, fam, 2, leaf)


def test_two_disjoint_witnesses_make_no_label_necessary():
    system = random_subset_system(3, n_seps=4)
    fam = tf.make_explicit([{0}, {2}], system)
    t = tf.StructureTree.single_root(system)
    t, kids = split_leaf(t, t.root, 0)
    fwd = next(c for c in kids if t.label(c) == 0)
    t, kids2 = split_leaf(t, fwd, 1)
    leaf = next(c for c in kids2 if t.label(c) == 2)
    assert tf.classify_leaf(t, leaf, fam).kind == "forbidden"
    for o in ids_of(t.beta(leaf)):
        assert not necessary_for_leaf(t, fam, o, leaf)


def test_leaves_are_vacuously_necessary(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    for leaf in t.leaves():
        assert necessary_node(t, fam, leaf)


def test_redundant_split_root_is_unnecessary():
    system = redundant_split_system()
    fam = redundant_split_family(system)
    t = tf.build(system, fam)
    assert not necessary_node(t, fam, t.root)
    for v in t.non_leaves():
        if v != t.root:
            assert necessary_node(t, fam, v)


# -- reduction ---------------------------------------------------------------------


def test_irreducible_tree_reduces_to_itself(nested_pair):
    fam = tf.make_empty()
    t = tf.build(nested_pair, fam)
    red, trace = tf.reduce(t, fam)
    assert trace.steps == []
    assert tree_shape(red) == tree_shape(t)


def test_redundant_split_is_contracted_away():
    system = redundant_split_system()
    fam = redundant_split_family(system)
    t = tf.build(system, fam)
    red, trace = tf.reduce(t, fam)
    assert len(trace.steps) == 1
    labels = {red.label(v) for v in red.nodes()} - {None}
    assert labels == {2, 3, 4, 5}  # the order-1 separation vanished
    assert [sorted(x) for x in tf.tangles(red, fam)] == \
        [sorted(x) for x in tf.tangles(t, fam)]
    assert tree_shape(replayed(t, trace.steps)) == tree_shape(red)


@pytest.mark.parametrize("seed", range(10))
def test_reduction_postconditions(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    if not tf.is_structure_tree(t, fam):
        return
    red, trace = tf.reduce(t, fam)
    # every node necessary
    for v in red.nodes():
        assert necessary_node(red, fam, v)
    # tangles preserved
    assert sorted(map(sorted, tf.tangles(red, fam))) == \
        sorted(map(sorted, tf.tangles(t, fam)))
    # surviving nodes keep their relative order
    for u in red.nodes():
        for v in red.nodes():
            assert is_ancestor(red, u, v) == is_ancestor(t, u, v)
    # surviving leaves were leaves before, with the same incoming edge
    for leaf in red.leaves():
        assert t.is_leaf(leaf)
        assert red.label(leaf) == t.label(leaf) or red.root == leaf
        before = tf.classify_leaf(t, leaf, fam).kind
        after = tf.classify_leaf(red, leaf, fam).kind
        assert (before == "forbidden") == (after == "forbidden")
    faults = faults_of(red, fam)
    assert faults["efficient"] is None
    assert tf.is_ordered(red) and faults["ordered"] is None


@pytest.mark.parametrize("seed", range(10))
def test_contraction_validity_matches_label_necessity(seed):
    """Contracting an edge keeps the structure property exactly when no leaf
    behind it needs its label."""
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    t = tf.build(system, fam)
    if not tf.is_structure_tree(t, fam):
        return
    for v in t.non_leaves():
        for w in t.children(v):
            o = t.label(w)
            needed = any(is_ancestor(t, w, leaf) and
                         necessary_for_leaf(t, fam, o, leaf)
                         for leaf in t.leaves())
            still_structure = bool(
                tf.is_structure_tree(replayed(t, [(v, w)]), fam))
            assert still_structure == (not needed)


def plain_reduce(tree, family):
    """Reduction as stated: each round classifies every leaf and contracts
    the first (node, child) pair, deepest node first, then least node, then
    first child, whose label no leaf behind the child needs."""
    steps = []
    while True:
        classes = {leaf: tf.classify_leaf(tree, leaf, family)
                   for leaf in tree.leaves()}
        target = next(
            ((v, w) for v in sorted(tree.nodes(),
                                    key=lambda u: (-depth(tree, u), u))
             for w in tree.children(v)
             if not any(is_ancestor(tree, w, leaf) and needed_by_definition(
                 tree, family, tree.label(w), leaf, classes[leaf])
                 for leaf in tree.leaves())),
            None)
        if target is None:
            return tree, steps
        tree = replayed(tree, [target])
        steps.append(target)


def _reference_instances():
    """The conftest random systems with a standard explicit family and, where
    it is standard, the empty one; the graph fixtures and the 2x3 grid under
    blocks:3."""
    out = []
    for seed in range(20):
        n = 2 + seed % 4
        for kind, system in (("subset", random_subset_system(seed, n_seps=n)),
                             ("relation", random_relation_system(seed, n_seps=n))):
            out.append(pytest.param(system, standardized_explicit(system, seed),
                                    id=f"{kind}{seed}/explicit"))
            if tf.is_standard(tf.make_empty(), system)[0]:
                out.append(pytest.param(system, tf.make_empty(),
                                        id=f"{kind}{seed}/empty"))
    graphs = {name: tf.Graph.from_edge_list(
        (FIXTURES / f"{name}.edges").read_text()) for name in ("k4", "p5", "two_k4")}
    # forbidden leaves here have several members, so a contraction can make
    # a label critical that was not before
    graphs["grid2x3"] = tf.Graph.from_edges(
        6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    for name, g in graphs.items():
        system = tf.graph_system(g, 3)
        out.append(pytest.param(system, tf.make_blocks(3, system),
                                id=f"{name}/blocks3"))
    return out


@pytest.mark.parametrize("system, fam", _reference_instances())
def test_reduce_matches_the_plain_reduction_at_every_level(system, fam):
    full = tf.build(system, fam)
    levels = [tf.restrict(full, k)
              for k in sorted({system.order(s) for s in system.seps()})]
    compared = 0
    for tree in [full, *levels]:
        if not tf.is_structure_tree(tree, fam):
            continue
        red, trace = tf.reduce(tree, fam)
        want, steps = plain_reduce(tree, fam)
        assert trace.steps == steps
        assert tree_shape(red) == tree_shape(want)
        for t in (tree, red):
            for leaf, cls in tf.tree.classify_all(t, fam).items():
                assert sys.modules["tangleforge.build"]._class_needs(
                    t.system, fam, cls, t.beta(leaf)) == mask_of(
                    o for o in t.system.all_oriented()
                    if needed_by_definition(t, fam, o, leaf, cls))
        compared += 1
    assert compared


def grown_by_split_leaf(system, family):
    """The construction rule with one persistent ``split_leaf`` per split."""
    tree = tf.StructureTree.single_root(system)
    pending = [tree.root]
    while pending:
        v = min(pending)
        pending.remove(v)
        if tf.classify_leaf(tree, v, family).kind == "unresolved":
            closure = system._closure_mask(tree.beta(v))
            candidates = sorted((s for s in system.seps()
                                 if not closure >> 2 * s & 3),
                                key=lambda s: (system.order(s), s))
            if candidates:
                tree, kids = split_leaf(tree, v, candidates[0])
                pending += kids
    return tree


@pytest.mark.parametrize("system, fam", [
    *_reference_instances(),
    pytest.param(antichain_system(12), tf.make_empty(), id="independent12/empty")])
def test_build_equals_the_tree_grown_by_split_leaf(system, fam):
    built, want = tf.build(system, fam), grown_by_split_leaf(system, fam)

    def nodes(t):
        return {v: (t.parent(v), t.children(v), t.label(v)) for v in t.nodes()}

    assert built.root == want.root and nodes(built) == nodes(want)
    for leaf in want.leaves():  # the classes kept while growing
        assert tf.tree.leaf_class(built, leaf, fam) == \
            tf.classify_leaf(want, leaf, fam)


def test_build_constructs_one_tree(monkeypatch):
    made = []
    init = tf.StructureTree.__init__

    def counting(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(tf.StructureTree, "__init__", counting)
    tree = tf.build(antichain_system(4), tf.make_empty())
    assert len(tree) == 31 and made == [tree]


def test_reduce_rejects_non_structure_trees(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    with pytest.raises(NotAStructureTree):
        tf.reduce(tf.StructureTree.single_root(s3), fam)


# -- pipeline ---------------------------------------------------------------------


def test_p5_pipeline_certifies_no_block(p5):
    s3 = tf.graph_system(p5, 3)
    fam = tf.make_blocks(3, s3)
    report = tf.pipeline(s3, fam)
    assert report.tangles == []
    top = report.levels[-1]
    assert tf.is_f_tree(report.tree_reduced, fam)
    assert report.certificates
    for leaf, witness in report.certificates:
        assert fam.is_member(witness.members)


def test_k4_pipeline_reports_one_tangle_and_no_global_certificate(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    report = tf.pipeline(s3, fam)
    assert len(report.tangles) == 1
    assert not tf.is_f_tree(report.tree_reduced, fam)
    assert not any(lv.f_tree for lv in report.levels)


def test_cluster_pipeline_shows_two_tangles_at_the_low_level(six_cluster_system):
    fam = tf.make_cluster(3, six_cluster_system)
    report = tf.pipeline(six_cluster_system, fam)
    assert report.tangles == []  # every orientation of everything is forbidden
    by_k = {lv.k: lv for lv in report.levels}
    assert set(by_k) == {0.0, 2.0, 4.0}
    assert len(by_k[2.0].tangles) == 2
    assert by_k[2.0].f_tree is False
    assert by_k[4.0].tangles == [] and by_k[4.0].f_tree


def test_one_pipeline_classifies_each_leaf_of_each_tree_once(two_k4,
                                                             monkeypatch):
    seen, trees = Counter(), []
    classify = tf.tree.classify_leaf

    def counting(tree, leaf, family, *member):
        trees.append(tree)  # kept alive, so no tree id is reused
        seen[id(tree), leaf] += 1
        return classify(tree, leaf, family, *member)

    monkeypatch.setattr(tf.tree, "classify_leaf", counting)
    system = tf.graph_system(two_k4, 3)
    report = tf.pipeline(system, tf.make_blocks(3, system))
    assert report.trace.steps and seen
    assert max(seen.values()) == 1


def _counting(monkeypatch, modules, name, seen):
    """Wrap ``name`` in each module that binds it; ``seen`` gets the
    arguments of every call."""
    for module in modules:
        fn = getattr(module, name)

        def run(*args, _fn=fn):
            seen.append(args)
            return _fn(*args)

        monkeypatch.setattr(module, name, run)


@pytest.mark.parametrize("system, fam", _reference_instances())
def test_one_pipeline_checks_the_full_tree_once_and_each_label_set_once(
        system, fam, monkeypatch):
    modules = (sys.modules["tangleforge.build"], sys.modules["tangleforge.tree"])
    checks, orders, needs = [], [], []
    _counting(monkeypatch, modules, "is_structure_tree", checks)
    _counting(monkeypatch, modules, "is_ordered", orders)
    _counting(monkeypatch, modules[:1], "_class_needs", needs)
    report = tf.pipeline(system, fam)
    assert [t for t, _ in checks] == [report.tree_full]
    assert [t for t, in orders] == [report.tree_full]
    masks = [beta for *_, beta in needs]
    assert len(masks) == len(set(masks))


@pytest.mark.parametrize("system, fam", [
    *_reference_instances(),
    pytest.param(*load_nonrich_fixture(), id="nonrich")])
def test_pipeline_levels_equal_the_checked_public_path(system, fam):
    report = tf.pipeline(system, fam)
    full = tf.build(system, fam)
    assert tree_shape(report.tree_full) == tree_shape(full)
    for lv in report.levels:
        tk = tf.restrict(full, lv.k)
        ok = bool(tf.is_structure_tree(tk, fam))
        assert lv.structure_ok == ok == bool(tf.is_structure_tree(lv.tree, fam))
        if not ok:
            assert (lv.reduced, lv.tangles, lv.certificates) == (None, [], [])
            continue
        reduced, _ = tf.reduce(tk, fam)
        assert tree_shape(lv.reduced) == tree_shape(reduced)
        assert lv.tangles == tf.tangles(reduced, fam)
        assert lv.certificates == tf.certificates_of(reduced, fam)


def test_reduce_asks_no_member_query_for_leaf_needs(monkeypatch):
    # A contraction carries the classes of the leaves below it, so inside
    # the reduction no leaf is classified and no witness is built.  The
    # family gives the critical labels of a leaf's label mask, and says
    # whether those labels hold a member themselves, which fixes them.
    build_module = sys.modules["tangleforge.build"]
    system = tf.graph_system(grid_graph(3, 3), 3)
    fam = tf.make_blocks(3, system)
    tree = tf.build(system, fam)
    stack, calls = [], []

    def inside(name, fn):
        def run(*args):
            stack.append(name)
            try:
                out = fn(*args)
            finally:
                stack.pop()
            if "_reduce" in stack:
                calls.append((name, args[-1], out))
            return out
        return run

    for name in ("holds_member", "forbidden_subset", "critical_labels"):
        monkeypatch.setattr(type(fam), name, inside(name, getattr(type(fam), name)))
    monkeypatch.setattr(tf.tree, "classify_leaf",
                        inside("classify_leaf", tf.tree.classify_leaf))
    monkeypatch.setattr(build_module, "_reduce",
                        inside("_reduce", build_module._reduce))
    _, trace = tf.reduce(tree, fam)
    leaf_masks, t = {tree.beta(leaf) for leaf in tree.leaves()}, tree
    for step in trace.steps:
        t = replayed(t, [step])
        leaf_masks |= {t.beta(leaf) for leaf in t.leaves()}
    assert trace.steps
    assert {name for name, _, _ in calls} == {"critical_labels", "holds_member"}
    for (name, mask, _), before in zip(calls, [None, *calls]):
        if name == "critical_labels":
            assert mask in leaf_masks
        else:
            assert before[0] == "critical_labels" and before[2] == mask


def _fixed_needs_instances():
    """The reference pool, grid 3x3 under blocks:3, and an 8-point
    two-cluster ground under cluster:2."""
    grid = tf.graph_system(grid_graph(3, 3), 3)
    sim = [[0.0 if u == v else float((u < 4) == (v < 4)) + u * v % 3 / 10
            for v in range(8)] for u in range(8)]
    eight = tf.bipartition_system(tf.full_bipartition_ground(8, sim))
    return [*_reference_instances(),
            pytest.param(grid, tf.make_blocks(3, grid), id="grid3x3/blocks3"),
            pytest.param(eight, tf.make_cluster(2, eight), id="eight/cluster2")]


@pytest.mark.parametrize("system, fam", _fixed_needs_instances())
def test_needs_kept_as_fixed_hold_after_every_contraction(system, fam):
    # The needs a reduction keeps for a fixed leaf, at any mask the leaf
    # has had, equal its needs asked afresh at its mask after each step.
    build_module = sys.modules["tangleforge.build"]
    full = tf.build(system, fam)
    levels = [tf.restrict(full, k)
              for k in sorted({system.order(s) for s in system.seps()})]
    checked = 0
    for tree in [full, *levels]:
        if not tf.is_structure_tree(tree, fam):
            continue
        needs = {}
        _, trace = build_module._reduce(tree, fam, needs)
        had = {leaf: {tree.beta(leaf)} for leaf in tree.leaves()}
        for step in trace.steps:
            tree = replayed(tree, [step])
            for leaf in tree.leaves():
                had[leaf].add(tree.beta(leaf))
                fresh = build_module._class_needs(
                    tree.system, fam, tf.classify_leaf(tree, leaf, fam),
                    tree.beta(leaf))
                for mask in had[leaf]:
                    kept, fixed = needs.get(mask, (None, False))
                    assert not fixed or kept == fresh
                    checked += fixed
    assert checked or fam.kind in ("explicit", "empty")


def test_a_contraction_can_grow_a_forbidden_leafs_needs():
    # On grid 2x3 under blocks:3 a contraction makes a label critical for
    # a forbidden leaf below it that was not before; that leaf's critical
    # labels held no member, so its needs were not fixed.
    build_module = sys.modules["tangleforge.build"]
    system = tf.graph_system(tf.Graph.from_edges(
        6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]), 3)
    fam = tf.make_blocks(3, system)
    tree = tf.build(system, fam)
    grown = []
    for step in tf.reduce(tree, fam)[1].steps:
        after = replayed(tree, [step])
        for leaf in after.leaves():
            cls = tf.classify_leaf(after, leaf, fam)
            if cls.kind == "forbidden":
                old, new = (build_module._class_needs(system, fam, cls, t.beta(leaf))
                            for t in (tree, after))
                assert not old & ~new  # needs only grow
                if new != old:
                    assert not fam.holds_member(system, old)
                    grown.append(leaf)
        tree = after
    assert grown


@pytest.mark.parametrize("side", [3, 4, 5, 6])
def test_pipeline_asks_each_leaf_its_critical_labels_at_most_once(
        monkeypatch, side):
    system = tf.graph_system(grid_graph(side, side), 3)
    fam = tf.make_blocks(3, system)
    asked = []
    critical = type(fam).critical_labels
    monkeypatch.setattr(type(fam), "critical_labels",
                        lambda *args: asked.append(args) or critical(*args))
    report = tf.pipeline(system, fam)
    assert 0 < len(asked) <= len(report.tree_full.leaves())


@pytest.fixture
def witnesses_made(monkeypatch):
    """The witnesses constructed while the fixture lives, in order."""
    families = sys.modules["tangleforge.families"]
    witness, made = families.Witness, []

    def counting(*args):
        made.append(witness(*args))
        return made[-1]

    monkeypatch.setattr(families, "Witness", counting)
    return made


def _blocks_and_cluster_instances():
    grid = tf.graph_system(grid_graph(3, 3), 3)
    six = tf.bipartition_system(tf.full_bipartition_ground(
        6, similarity=two_cluster_similarity()))
    return [pytest.param(grid, tf.make_blocks(3, grid), id="grid3x3/blocks3"),
            pytest.param(six, tf.make_cluster(3, six), id="six/cluster3")]


@pytest.mark.parametrize("system, fam", [
    *_reference_instances(), *_blocks_and_cluster_instances()])
def test_reduce_carries_exact_leaf_classes(system, fam):
    full = tf.build(system, fam)
    levels = [tf.restrict(full, k)
              for k in sorted({system.order(s) for s in system.seps()})]
    for tree in [full, *levels]:
        if not tf.is_structure_tree(tree, fam):
            continue
        red, trace = tf.reduce(tree, fam)
        assert tree_shape(replayed(tree, trace.steps)) == tree_shape(red)
        carried = red._classes[fam]
        for leaf in red.leaves():  # equal kinds, tangles and witnesses
            assert carried[leaf] == tf.classify_leaf(red, leaf, fam)


@pytest.mark.parametrize("system, fam", _blocks_and_cluster_instances())
def test_build_and_reduce_construct_no_witness(system, fam, witnesses_made):
    reduced, trace = tf.reduce(tf.build(system, fam), fam)
    assert trace.steps and not witnesses_made
    forbidden = [leaf for leaf, cls in tf.tree.classify_all(reduced, fam).items()
                 if cls.kind == "forbidden"]
    assert forbidden and not witnesses_made  # classes carry no witness
    certs = tf.certificates_of(reduced, fam)
    # one witness per forbidden leaf, built on read and kept with the class
    assert [w for _, w in certs] == witnesses_made
    assert len(witnesses_made) == len(forbidden)
    tf.certificates_of(reduced, fam)
    assert len(witnesses_made) == len(forbidden)


@pytest.mark.parametrize("system, fam", _blocks_and_cluster_instances())
def test_a_pipeline_constructs_the_witnesses_of_its_certificates(
        system, fam, witnesses_made):
    report = tf.pipeline(system, fam)
    # the level trees' certificates first, as pipeline() reads them, each
    # with its leaf's label mask; the trees of one pipeline share a class
    # per label mask, so each distinct mask's witness is built once
    certs = [(lv.reduced.beta(leaf), w)
             for lv in report.levels for leaf, w in lv.certificates]
    certs += [(report.tree_reduced.beta(leaf), w)
              for leaf, w in report.certificates]
    first = {}
    for mask, w in certs:
        first.setdefault(mask, w)
    assert certs and list(first.values()) == witnesses_made
    assert all(w is first[mask] for mask, w in certs)


def test_report_json_is_deterministic_and_wellformed(k4):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    a = dump_report(tf.pipeline(s3, fam))
    b = dump_report(tf.pipeline(s3, fam))
    assert a == b
    d = json.loads(a)
    assert d["format"] == "report/v2"
    assert {"system", "tree_full", "tree_reduced", "tangles", "certificates",
            "per_k"} <= d.keys()


def test_node_cap_guards_against_runaway_builds(k4, monkeypatch):
    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    monkeypatch.setattr(sys.modules["tangleforge.build"], "MAX_TREE_NODES", 3)
    with pytest.raises(NodeCapExceeded,
                       match="tree grew to 5 nodes, over the limit of 3"):
        tf.build(s3, fam)


def test_degenerate_separation_builds_a_one_child_split():
    system = degenerate_pair_system()
    fam = tf.make_empty()
    tree = tf.build(system, fam)
    assert len(tree.children(tree.root)) == 1  # one orientation exists
    assert tf.is_structure_tree(tree, fam)
    assert [sorted(t) for t in tf.tangles(tree, fam)] == [[0, 2]]


def _cluster_ground(points):
    """A two-cluster full bipartition ground under cluster:2."""
    half = points // 2
    sim = [[0.0 if u == v else float((u < half) == (v < half)) + u * v % 3 / 10
            for v in range(points)] for u in range(points)]
    system = tf.bipartition_system(tf.full_bipartition_ground(points, sim))
    return system, tf.make_cluster(2, system)


def test_level_classes_equal_a_fresh_classification():
    # pipeline() reads a level leaf's class off values of the full tree's
    # nodes; classify_leaf asks the family afresh on the level tree
    system, fam = _cluster_ground(8)
    kinds = Counter()
    for lv in tf.pipeline(system, fam).levels:
        for leaf in lv.tree.leaves():
            got = tf.tree.leaf_class(lv.tree, leaf, fam)
            assert got == tf.classify_leaf(lv.tree, leaf, fam)
            kinds[got.kind] += 1
    assert kinds["tangle"] and kinds["forbidden"]


def test_level_classification_asks_only_clipped_closures_of_leaves(monkeypatch):
    # every member query of the level classification is the closure of a
    # node clipped to a level at which that node is a leaf
    build_module = sys.modules["tangleforge.build"]
    system, fam = _cluster_ground(10)
    level_member, holds = build_module._level_member, type(fam).holds_member
    asked, inside = [], []

    def wrapped(tree, family, ks, views, least, v, i, mask):
        inside.append((tree, ks, views, v))
        try:
            return level_member(tree, family, ks, views, least, v, i, mask)
        finally:
            inside.pop()

    def counting(self, view, mask):
        if inside:
            asked.append((*inside[-1], view, mask))
        return holds(self, view, mask)

    monkeypatch.setattr(build_module, "_level_member", wrapped)
    monkeypatch.setattr(type(fam), "holds_member", counting)
    report = tf.pipeline(system, fam)
    leaf_at = {(lv.k, v) for lv in report.levels for v in lv.tree.leaves()}
    assert asked
    for tree, ks, views, v, view, mask in asked:
        assert (ks[views.index(view)], v) in leaf_at
        assert mask == tree.closure(v) & view.live
