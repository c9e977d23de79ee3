"""Forbidden families: membership, witnesses, and the theory-side certifiers."""

import json
from itertools import combinations

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.errors import GroundMismatch, MissingCapability
from tangleforge.grounds import load_similarity_csv
from tangleforge.oracle import all_tangles
from tangleforge.system import ids_of, mask_of
from conftest import (FIXTURES, M3, N5, all_graphs_up_to_iso,
                      antichain_system, closed_under_pointwise_lowering,
                      grid_graph, lattice_times_chain, load_nonrich_fixture,
                      nested_pair_system,
                      random_subset_system, side_pair, split_leaf,
                      standardized_explicit)


def all_subsets(ids, cap=None):
    """Every subset of ``ids`` with at most ``cap`` elements, all without one."""
    ids = list(ids)
    cap = len(ids) if cap is None else min(cap, len(ids))
    return [frozenset(c) for r in range(cap + 1) for c in combinations(ids, r)]


# -- forbidden_subset ---------------------------------------------------------


def test_empty_family_forbids_nothing(nested_pair):
    fam = tf.make_empty()
    assert fam.forbidden_subset(nested_pair, 0b1111) is None


def test_blocks_witness_on_k4_orientation_away_from_everything(k4):
    s3 = tf.graph_system(k4, 3)
    b3 = tf.make_blocks(3, s3)
    # orient some separation towards its small side and close up
    small = next(o for o in s3.all_oriented()
                 if s3.is_small(o) and len(s3.ground.side(o)) == 2)
    sigma = s3.closure(1 << small)
    w = b3.forbidden_subset(s3, sigma)
    assert w is not None
    meet = frozenset(k4.vertices())
    for o in w.members:
        meet &= s3.ground.side(o)
    assert len(meet) < 3
    assert sorted(meet) == w.evidence["big_side_intersection"]


def test_cluster_witness_is_the_agreeing_triple(six_cluster_system):
    sysc = six_cluster_system
    c3 = tf.make_cluster(3, sysc)
    ground = sysc.ground
    a = next(o for o in sysc.all_oriented()
             if sorted(ground.side(o)) == [2, 3, 4, 5])
    b = next(o for o in sysc.all_oriented()
             if sorted(ground.side(o)) == [0, 1, 2, 5])
    w = c3.forbidden_subset(sysc, mask_of({a, b}))
    assert w is not None and w.members <= {a, b}
    assert w.evidence["agreement_set"] == [2, 5]


def test_cluster_agreement_one_forbids_the_empty_side():
    sysb = tf.bipartition_system(tf.full_bipartition_ground(3))
    c1 = tf.make_cluster(1, sysb)
    empty_side = next(o for o in sysb.all_oriented() if not sysb.ground.side(o))
    w = c1.forbidden_subset(sysb, 1 << empty_side)
    assert w is not None and w.members == {empty_side}


def test_strong_profile_forbids_small_singletons():
    u = tf.bipartition_system(tf.full_bipartition_ground(3))
    ps = tf.make_strong_profile(u)
    small = [o for o in u.all_oriented() if u.is_small(o)]
    assert small
    for o in small:
        assert ps.is_member(frozenset({o}))
        w = ps.forbidden_subset(u, 1 << o)
        assert w is not None and w.members == {o}


def test_blocks_on_k4_leaves_only_the_block_orientation(k4):
    s3 = tf.graph_system(k4, 3)
    b3 = tf.make_blocks(3, s3)
    survivors = all_tangles(s3, b3)
    assert len(survivors) == 1
    assert tf.block_of_tangle(s3, survivors[0]) == frozenset(range(4))


def test_witness_choice_is_lexicographically_least(nested_pair):
    fam = tf.make_explicit([{0}, {0, 2}, {2}], nested_pair)
    w = fam.forbidden_subset(nested_pair, mask_of({0, 2}))
    assert sorted(w.members) == [0]


def test_ground_mismatch_is_detected(nested_pair):
    other = nested_pair_system()
    fam = tf.make_explicit([{0}], nested_pair)
    with pytest.raises(GroundMismatch):
        fam.forbidden_subset(other, 1 << 0)


def test_families_accept_descendant_systems(k4):
    s3 = tf.graph_system(k4, 3)
    b3 = tf.make_blocks(3, s3)
    s2 = s3.restrict_below(2)
    sigma = frozenset({o for o in s2.all_oriented()
                       if len(s2.ground.side(o)) <= 1})
    w = b3.forbidden_subset(s2, mask_of(sigma))
    assert w is not None and w.members <= sigma


def test_profile_needs_lattice_operations(nested_pair):
    with pytest.raises(MissingCapability):
        tf.make_profile(nested_pair)
    with pytest.raises(MissingCapability):
        tf.make_strong_profile(nested_pair)


def test_graph_tangle_family_on_k4(k4):
    s3 = tf.graph_system(k4, 3)
    t3 = tf.make_graph_tangle(s3)
    verts = frozenset(k4.vertices())
    towards_v = next(o for o in s3.all_oriented()
                     if side_pair(s3.ground, o)[0] == verts)
    assert t3.is_member(frozenset({towards_v}))
    tangles = all_tangles(s3, t3)
    assert len(tangles) == 1
    assert all(side_pair(s3.ground, o)[0] != verts for o in tangles[0])


@pytest.mark.parametrize("graph", ["k4", "p5"])
def test_graph_tangle_membership_is_a_cover(graph, request):
    # every one to three orientations, against the definition on vertex
    # sets: each vertex lies in a small side, each edge inside one
    g = request.getfixturevalue(graph)
    system = tf.graph_system(g, 3)
    fam = tf.make_graph_tangle(system)
    for size in (1, 2, 3):
        for members in combinations(system.all_oriented(), size):
            small = [side_pair(system.ground, o)[0] for o in members]
            cover = all(any(v in a for a in small) for v in g.vertices()) and \
                all(any({u, v} <= a for a in small) for u, v in g.edges)
            assert fam.is_member(frozenset(members)) == cover, members


# -- incremental scan agrees with the full one -------------------------------------


def six_families(seed):
    """One family of each kind, on small seeded systems."""
    system = random_subset_system(seed, n_seps=3, universe=4)
    ground = tf.BipartitionGround(
        4, tuple(frozenset(v for v in range(4) if (m >> v) & 1)
                 for m in range(16)))
    sysb = tf.bipartition_system(ground)
    sysg = tf.graph_system(all_graphs_up_to_iso(4)[6 + seed % 5], 2)
    return [standardized_explicit(system, seed),
            tf.make_cluster(2, sysb),
            tf.make_profile(sysb),
            tf.make_strong_profile(sysb),
            tf.make_blocks(2, sysg),
            tf.make_graph_tangle(sysg)]


# -- each family's search against is_member alone ---------------------------------
#
# Every family has its own search, so these references are written with
# is_member only.


def least_member(fam, members):
    """The lexicographically least is_member subset, by brute force over the
    subsets up to the family's arity.  A family without one (blocks) is
    closed under supersets, so its least member is a prefix of the sorted
    set: a member's prefix up to its largest element holds it and is no
    larger.  Above 12 ids only the prefixes are tried, which reaches a
    tree's sets; below, every subset."""
    ids = sorted(members)
    if fam.arity is None and len(ids) > 12:
        subsets = [ids[:i] for i in range(len(ids) + 1)]
    else:
        subsets = sorted(sorted(s) for s in all_subsets(ids, fam.arity))
    return next((frozenset(s) for s in subsets if fam.is_member(frozenset(s))),
                None)


def k4_universe_families(k4):
    """Families on the k4 graph universe, which holds the degenerate (V, V)."""
    u = tf.graph_universe(k4)
    assert any(u.is_degenerate(s) for s in u.seps())
    return [tf.make_profile(u), tf.make_strong_profile(u),
            tf.make_graph_tangle(u), tf.make_blocks(3, u)]


def search_against_is_member(fam, works, system=None):
    """Assert that each work's witness is its least member; return whether
    each work held one.  Works are sets of ``system``'s ids, the family's
    own by default, and are compared in the family's."""
    system = system or fam.system
    up = system.oriented_into(fam.system)
    seen = set()
    for work in works:
        want = least_member(fam, {up[x] for x in work})
        got = fam.forbidden_subset(system, mask_of(work))
        assert (got and frozenset(up[x] for x in got.members)) == want, \
            (fam.kind, system.count, sorted(work))
        seen.add(want is not None)
    return seen


@pytest.mark.parametrize("seed", range(3))
def test_the_search_matches_is_member(seed, k4):
    rng = np.random.default_rng(seed)
    held_at_a_level = set()
    for fam in six_families(seed) + k4_universe_families(k4):
        # asked in its own ids, and from a level system carved out of its
        # own, which the family answers through its id translation
        for system in (fam.system,
                       fam.system.restrict_below(max(fam.system.orders))):
            ids = sorted({system.canon(o) for o in system.all_oriented()})
            works = [frozenset(int(o) for o in rng.choice(
                         ids, int(rng.integers(0, min(6, len(ids)) + 1)),
                         replace=False))
                     for _ in range(40)]
            held = search_against_is_member(fam, works, system)
            if system is fam.system:
                # works with and without members
                assert held == {True, False}, fam.kind
            elif True in held:
                held_at_a_level.add(fam.kind)
    # an explicit family's members may all lie above the level
    assert held_at_a_level >= {"cluster", "profile", "strong_profile",
                               "blocks", "graph_tangle"}


def assert_the_arity_contract(fam, subsets):
    """No member among ``subsets`` has over ``arity`` ids, or, with arity
    None, each member's supersets by one id of the system are members."""
    system = fam.system
    ids = sorted({system.canon(o) for o in system.all_oriented()})
    members = [sub for sub in subsets if fam.is_member(sub)]
    assert members, fam.kind  # the check is not vacuous
    for sub in members:
        if fam.arity is None:
            assert all(fam.is_member(sub | {x}) for x in ids), \
                (fam.kind, sorted(sub))
        else:
            assert len(sub) <= fam.arity, (fam.kind, sorted(sub))


@pytest.mark.parametrize("seed", range(3))
def test_members_keep_the_arity_contract(seed, k4):
    # The oracle asks is_member of subsets up to the arity only, or of the
    # whole set when it is unbounded.  Every subset of the small systems;
    # the k4 universe has 31 canonical ids, so every subset of 6 random
    # works of 10 ids.
    for fam in six_families(seed):
        ids = {fam.system.canon(o) for o in fam.system.all_oriented()}
        assert_the_arity_contract(fam, all_subsets(ids))
    rng = np.random.default_rng(seed)
    for fam in k4_universe_families(k4):
        ids = sorted({fam.system.canon(o) for o in fam.system.all_oriented()})
        works = [[int(o) for o in rng.choice(ids, 10, replace=False)]
                 for _ in range(6)]
        assert_the_arity_contract(fam, {sub for work in works
                                        for sub in all_subsets(work)})


def twisted_boolean_system():
    """The subsets of {s, a, b} under inclusion, with the involution
    S -> {s, a, b} minus S with a and b swapped: a distributive lattice in
    which an element x below the join of inverses of x and y need not be
    below that of each z between x and y."""
    sets = [{"s", "b"}, {"b"}, {"s", "a", "b"}, set(), {"a"}, {"s", "a"},
            {"s"}, {"a", "b"}]
    leq = np.array([[p <= q for q in sets] for p in sets])
    return tf.SeparationSystem(leq, [1.0] * 4, lattice=True, distributive=True)


@pytest.mark.parametrize("system", [
    twisted_boolean_system(), lattice_times_chain(*M3),
    lattice_times_chain(*N5)], ids=["twisted-boolean", "M3x2", "N5x2"])
def test_the_profile_searches_match_is_member_on_every_work(system):
    # Every work of small lattices that are not set-separation universes,
    # where a pair's least member need not take the least bounded element:
    # in the twisted one the join of inverses of 0 and 4 is the top, 2, so
    # the pair makes {0, 4} and {0, 2, 4} of the work {0, 2, 4}, and the
    # second is least.
    ids = list(system.all_oriented())
    works = all_subsets(ids)
    for make in (tf.make_profile, tf.make_strong_profile):
        assert search_against_is_member(make(system), works) == {True, False}


def tree_set_instances():
    """(system, make_family, make_builder): a family and the family whose
    full tree over the system gives the works.  The profile family is not
    standard on the k4 universe, so it is asked about the strong-profile
    tree's sets there."""
    sim = load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    k4 = tf.graph_universe(tf.Graph.from_edge_list(
        (FIXTURES / "k4.edges").read_text()))
    out = []
    for name, system, make, builder in (
            ("universe5/strong-profile", tf.bipartition_system(
                tf.full_bipartition_ground(5)), tf.make_strong_profile,
             tf.make_strong_profile),
            ("six_similarity/cluster2", tf.bipartition_system(
                tf.full_bipartition_ground(6, similarity=sim)),
             lambda s: tf.make_cluster(2, s), lambda s: tf.make_cluster(2, s)),
            ("k4_universe/profile", k4, tf.make_profile, tf.make_strong_profile),
            ("k4_universe/graph-tangle", k4, tf.make_graph_tangle,
             tf.make_graph_tangle)):
        out.append(pytest.param(system, make, builder, id=name))
    return out


@pytest.mark.parametrize("system, make, builder", tree_set_instances())
def test_the_search_matches_is_member_on_tree_sets(system, make, builder):
    # The searches serve a tree's label sets and closures, which hold far
    # more ids than the random works above.
    tree = tf.build(system, builder(system))
    works = {frozenset(ids_of(m)) for v in tree.nodes()
             for m in (tree.beta(v), tree.closure(v))}
    fam = make(system)
    seen = search_against_is_member(fam, sorted(works, key=sorted))
    assert seen == {True, False}, fam.kind
    assert max(len(w) for w in works) >= 15


def test_a_leaf_witness_is_the_least_member_of_its_own_label_set():
    # the inner node's label set {5} is a member, and the leaf's {2, 5}
    # holds the lexicographically smaller member {2}
    system = antichain_system(3)
    fam = tf.make_explicit([{5}, {2}], system)
    tree, (_, inner) = split_leaf(tf.StructureTree.single_root(system), 0, 2)
    tree, (leaf, _) = split_leaf(tree, inner, 1)
    assert ids_of(tree.beta(inner)) == [5] and ids_of(tree.beta(leaf)) == [2, 5]
    assert tf.classify_leaf(tree, leaf, fam).witness.members == {2}


# -- critical labels against their definition ------------------------------------


def critical_by_definition(fam, system, beta):
    """The labels of ``beta`` whose removal leaves no member, one query each."""
    return mask_of(o for o in ids_of(beta)
                   if fam.forbidden_subset(system, beta & ~(1 << o)) is None)


def critical_instances():
    """(system, make_family) of each family kind with a forbidden leaf."""
    sim = load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    two_k4 = tf.Graph.from_edge_list((FIXTURES / "two_k4.edges").read_text())
    explicit = random_subset_system(3, n_seps=5)
    out = []
    for name, system, make in (
            ("grid3x3/blocks3", tf.graph_system(grid_graph(3, 3), 3),
             lambda s: tf.make_blocks(3, s)),
            ("grid4x4/blocks3", tf.graph_system(grid_graph(4, 4), 3),
             lambda s: tf.make_blocks(3, s)),
            ("six_similarity/cluster2", tf.bipartition_system(
                tf.full_bipartition_ground(6, similarity=sim)),
             lambda s: tf.make_cluster(2, s)),
            ("universe4/strong-profile", tf.bipartition_system(
                tf.full_bipartition_ground(4)), tf.make_strong_profile),
            ("subset3/explicit", explicit,
             lambda s: standardized_explicit(s, 3)),
            ("two_k4/graph-tangle", tf.graph_system(two_k4, 3),
             tf.make_graph_tangle)):
        out.append(pytest.param(system, make, id=name))
    return out


@pytest.mark.parametrize("system, make", critical_instances())
def test_critical_labels_match_their_definition(system, make):
    # A fresh family answers the definition, so no kept answer is shared.
    fam, ref = make(system), make(system)
    full = tf.build(system, fam)
    levels = [tf.restrict(full, k)
              for k in sorted({system.order(s) for s in system.seps()})]
    # a reduced tree's leaves have lost labels by contraction
    reduced = [tf.reduce(tree, fam)[0] for tree in [full, *levels]
               if tf.is_structure_tree(tree, fam)]
    assert reduced
    leaves = 0
    # a level tree's system is not the bound one
    for tree in [full, *levels, *reduced]:
        for leaf, cls in tf.tree.classify_all(tree, fam).items():
            if cls.kind != "forbidden":
                continue
            beta = tree.beta(leaf)
            assert fam.critical_labels(tree.system, beta) == \
                critical_by_definition(ref, tree.system, beta)
            leaves += 1
    assert leaves
    rng = np.random.default_rng(5)
    for sysx in (system, system.restrict_below(max(system.orders))):
        ids = [o for s in sysx.seps() for o in sysx.orientations_of(s)]
        held = 0
        for _ in range(60):
            size = int(rng.integers(1, min(8, len(ids)) + 1))
            beta = mask_of(int(o) for o in rng.choice(ids, size, replace=False))
            if ref.forbidden_subset(sysx, beta) is None:
                continue
            assert fam.critical_labels(sysx, beta) == \
                critical_by_definition(ref, sysx, beta)
            held += 1
        assert held


def blocks_depth_systems():
    """Grids 4x4 and 4x5 with their separations of order below 3, and every
    graph of up to 4 vertices with all its separations."""
    out = [pytest.param(tf.graph_system(grid_graph(r, c), 3), id=f"grid{r}x{c}")
           for r, c in ((4, 4), (4, 5))]
    out += [pytest.param(tf.graph_universe(g), id=f"graph{n}-{i}")
            for n in range(1, 5) for i, g in enumerate(all_graphs_up_to_iso(n))]
    return out


@pytest.mark.parametrize("system", blocks_depth_systems())
def test_blocks_answers_match_their_definitions_at_depth(system):
    # Random works from empty up to every id, with k from 1, where only
    # an empty big-side intersection is a member, to |V| + 1, where the
    # empty set is one.  The least member is the shortest prefix is_member
    # accepts, and critical labels are asked of works that hold one.
    rng = np.random.default_rng(system.count)
    ids = list(system.all_oriented())
    n = system.ground.size
    held = set()
    for k in range(1, n + 2):
        fam, ref = tf.make_blocks(k, system), tf.make_blocks(k, system)
        sizes = {0, len(ids), *(int(x) for x in rng.integers(0, len(ids), 6))}
        for size in sorted(sizes):
            work = sorted(int(o) for o in rng.choice(ids, size, replace=False))
            beta = mask_of(work)
            prefix = next((work[:i] for i in range(len(work) + 1)
                           if fam.is_member(work[:i])), None)
            assert fam._search(beta) == \
                (None if prefix is None else mask_of(prefix)), (k, work)
            held.add(prefix is not None)
            if prefix is not None:
                assert fam._critical(beta) == \
                    critical_by_definition(ref, system, beta), (k, work)
            if k > n:
                assert prefix == [] and fam._critical(beta) == 0
    assert held == {True, False}


def test_no_label_is_critical_when_the_empty_set_is_a_member():
    # blocks with k above |V|: every set of labels holds the empty member
    system = tf.graph_system(grid_graph(2, 3), 3)
    fam = tf.make_blocks(7, system)
    every = mask_of(system.all_oriented())
    assert fam.forbidden_subset(system, 0).members == frozenset()
    assert fam.critical_labels(system, every) == 0
    assert critical_by_definition(fam, system, every) == 0


# -- witness soundness ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["blocks", "cluster", "tangle"])
def test_witnesses_reverify_independently(kind, k4, six_cluster_system):
    if kind == "blocks":
        system = tf.graph_system(k4, 3)
        fam = tf.make_blocks(3, system)
    elif kind == "cluster":
        system = six_cluster_system
        fam = tf.make_cluster(3, system)
    else:
        system = tf.graph_system(k4, 3)
        fam = tf.make_graph_tangle(system)
    rng = np.random.default_rng(7)
    ids = sorted(system.all_oriented())
    for _ in range(40):
        size = int(rng.integers(1, 6))
        sigma = frozenset(int(x) for x in rng.choice(ids, size=size, replace=False))
        w = fam.forbidden_subset(system, mask_of(sigma))
        if w is None:
            continue
        assert w.members <= sigma
        assert fam.is_member(w.members)
        if kind == "blocks":
            meet = frozenset(system.ground.graph.vertices())
            for o in w.members:
                meet &= system.ground.side(o)
            assert len(meet) < 3
        elif kind == "cluster":
            agree = frozenset(range(system.ground.size))
            for o in w.members:
                agree &= system.ground.side(o)
            assert len(agree) < 3
        else:
            g = system.ground.graph
            verts, edges = set(), set()
            for o in w.members:
                A = side_pair(system.ground, o)[0]
                verts |= A
                edges |= {e for e in g.edges if A.issuperset(e)}
            assert verts == set(g.vertices()) and edges == set(g.edges)


def test_superset_closed_families_decide_by_the_whole_set(k4):
    s3 = tf.graph_system(k4, 3)
    b3 = tf.make_blocks(3, s3)
    rng = np.random.default_rng(3)
    ids = sorted(s3.all_oriented())
    for _ in range(25):
        sigma = frozenset(int(x) for x in
                          rng.choice(ids, size=6, replace=False))
        has_subset = b3.forbidden_subset(s3, mask_of(sigma)) is not None
        assert has_subset == b3.is_member(sigma)
        brute = any(b3.is_member(s) for s in all_subsets(sorted(sigma)))
        assert has_subset == brute


def test_cluster_subsets_up_to_arity_decide(six_cluster_system):
    c3 = tf.make_cluster(3, six_cluster_system)
    rng = np.random.default_rng(5)
    ids = sorted(six_cluster_system.all_oriented())
    for _ in range(15):
        sigma = frozenset(int(x) for x in
                          rng.choice(ids, size=5, replace=False))
        has_subset = c3.forbidden_subset(six_cluster_system,
                                         mask_of(sigma)) is not None
        brute = any(c3.is_member(s)
                    for s in all_subsets(sorted(sigma), cap=3) if s)
        assert has_subset == brute


# -- standard / closed-under-minimization / rich ------------------------------------


def test_empty_family_standard_only_without_trivial_elements():
    sysb = tf.bipartition_system(tf.full_bipartition_ground(3))
    ok, bad = tf.is_standard(tf.make_empty(), sysb)
    assert not ok and bad  # the full side is trivial here
    ok2, bad2 = tf.is_standard(tf.make_empty(), nested_pair_system())
    assert ok2 and not bad2


def test_blocks_family_is_standard_on_graph_levels():
    for n in (3, 4):
        for g in all_graphs_up_to_iso(n):
            for k in (2, 3):
                s = tf.graph_system(g, k)
                assert tf.is_standard(tf.make_blocks(k, s), s)[0]


def test_cluster_family_is_standard_on_nonempty_subset_systems(six_cluster_system):
    assert tf.is_standard(tf.make_cluster(3, six_cluster_system),
                          six_cluster_system)[0]


def test_blocks_closed_under_minimization_on_small_graphs():
    for g in all_graphs_up_to_iso(3):
        s = tf.graph_system(g, 2)
        if s.count == 0:
            continue
        assert tf.is_closed_under_minimization(tf.make_blocks(2, s), s)[0]


def test_strong_profile_closed_under_minimization():
    u = tf.bipartition_system(tf.full_bipartition_ground(3))
    assert tf.is_closed_under_minimization(tf.make_strong_profile(u), u)[0]


def test_explicit_family_with_a_missing_lowering_is_not_closed(nested_pair):
    fam = tf.make_explicit([{0}], nested_pair)  # 2 < 0 but {2} missing
    ok, bad = tf.is_closed_under_minimization(fam, nested_pair)
    assert not ok
    assert (frozenset({0}), frozenset({2})) in bad


@pytest.mark.parametrize("seed", range(10))
def test_single_lowerings_decide_every_pointwise_lowering(seed):
    # a closed family, and the same family without each of its members in
    # turn, which leaves it closed only when that member lowers no other
    system = random_subset_system(seed, n_seps=4)
    closed = standardized_explicit(system, seed)
    members = sorted(ids_of(k) for k in closed.members)
    families = [closed] + [tf.make_explicit(members[:i] + members[i + 1:], system)
                           for i in range(len(members))]
    verdicts = [tf.is_closed_under_minimization(fam, system)[0]
                for fam in families]
    assert verdicts == [closed_under_pointwise_lowering(fam, system)
                        for fam in families]
    assert verdicts[0] and not all(verdicts)


@pytest.mark.parametrize("seed", range(10))
def test_minimization_closed_families_are_rich(seed):
    system = random_subset_system(seed, n_seps=4)
    fam = standardized_explicit(system, seed)
    assert tf.is_closed_under_minimization(fam, system)[0]
    assert tf.is_rich(fam, system)[0]


def test_empty_family_is_rich(nested_pair):
    assert tf.is_rich(tf.make_empty(), nested_pair)[0]


def test_nonrich_fixture_detects_the_eclipsed_witness():
    system, family = load_nonrich_fixture()
    ok, bad = tf.is_rich(family, system)
    assert not ok
    assert frozenset({0, 2}) in set(bad)
    assert tf.is_standard(family, system)[0]  # nothing trivial here


# -- strong profiles coincide with regular profiles --------------------------------


from conftest import submodular_subsystems  # noqa: E402


@pytest.mark.parametrize("points", [2, 3, 4])
def test_regular_profiles_are_exactly_strong_profile_tangles(points):
    universe = tf.bipartition_system(tf.full_bipartition_ground(points))
    p = tf.make_profile(universe)
    ps = tf.make_strong_profile(universe)
    for system in submodular_subsystems(universe, 4):
        profiles = all_tangles(system, p)
        regular = sorted(sorted(t) for t in profiles
                         if not any(system.is_small(o) for o in t))
        strong = sorted(sorted(t) for t in all_tangles(system, ps))
        assert regular == strong


# -- JSON ---------------------------------------------------------------------


def test_family_json_round_trip(six_cluster_system):
    for fam in [tf.make_empty(),
                tf.make_cluster(3, six_cluster_system),
                tf.make_profile(six_cluster_system),
                tf.make_explicit([{0, 2}], six_cluster_system)]:
        text = json.dumps(fam.to_json_dict(), sort_keys=True)
        again = tf.family_from_json(json.loads(text), six_cluster_system)
        assert again.kind == fam.kind
        assert json.dumps(again.to_json_dict(), sort_keys=True) == text


# -- one answer per bound-id set ------------------------------------------------------


def workload_instances():
    """(system, make_family) of one instance of each benchmark workload:
    grid 3x3 under blocks:3, the six-point similarity fixture under
    cluster:2, the five-point full bipartition universe under strong
    profiles, and the house graph under blocks:2."""
    grid = tf.Graph.from_edges(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3)
                                   for c in range(2)] +
                               [(r * 3 + c, r * 3 + c + 3) for r in range(2)
                                for c in range(3)])
    house = tf.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4),
                                    (3, 4)])
    sim = load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    out = []
    for name, system, make in (
            ("grid3x3/blocks3", tf.graph_system(grid, 3),
             lambda s: tf.make_blocks(3, s)),
            ("six_similarity/cluster2", tf.bipartition_system(
                tf.full_bipartition_ground(6, similarity=sim)),
             lambda s: tf.make_cluster(2, s)),
            ("universe5/strong-profile", tf.bipartition_system(
                tf.full_bipartition_ground(5)), tf.make_strong_profile),
            ("house5/blocks2", tf.graph_system(house, 2),
             lambda s: tf.make_blocks(2, s))):
        out.append(pytest.param(system, make, id=name))
    return out


@pytest.mark.parametrize("system, make", workload_instances())
def test_one_pipeline_scans_each_bound_set_once(system, make, monkeypatch):
    fam = make(system)
    cls = type(fam)
    scans, queries = [], []
    search = cls._search

    def counting_search(self, work):
        scans.append(work)
        return search(self, work)

    def counting(query):
        def run(self, caller, mask):
            queries.append(mask)
            return query(self, caller, mask)
        return run

    monkeypatch.setattr(cls, "_search", counting_search)
    for name in ("holds_member", "forbidden_subset"):
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    tf.pipeline(system, fam)
    assert len(scans) == len(set(scans)) == len(fam._answers)
    assert len(scans) < len(queries)  # one scan per query without the memo


@pytest.mark.parametrize("system, make", workload_instances())
def test_kept_answers_match_a_fresh_family(system, make):
    fam = make(system)
    report = tf.pipeline(system, fam)
    trees = [report.tree_full, report.tree_reduced]
    trees += [t for lv in report.levels for t in (lv.tree, lv.reduced) if t]
    for tree in trees:
        for v in tree.nodes():
            beta = tree.beta(v)
            assert fam.forbidden_subset(tree.system, beta) == \
                make(system).forbidden_subset(tree.system, beta)
    assert fam._answers
    for work, found in fam._answers.items():  # masks of bound ids
        want = least_member(fam, ids_of(work))
        assert found == (None if want is None else mask_of(want)), ids_of(work)
