"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Every criterion is oracle-backed: expected values come from the brute-force
enumerators, never from the code paths under test.  Instance pools are shared
and deterministic.  Exhaustive sweeps over all orientations are limited to
systems with at most EXHAUSTIVE_SEPS separations; larger instances (the dense
graph levels) are exercised on every oracle tangle plus seeded samples, which
keeps the whole suite within a couple of minutes.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

import tangleforge as tf
from tangleforge.cli import main as cli_main
from tangleforge.oracle import (TREE_PROPERTIES, OracleBudget, all_kblocks,
                                all_tangles, is_efficient_in, replay,
                                tree_faults)
from tangleforge.system import ids_of, inverse, mask_of

from conftest import (FIXTURES, all_graphs_up_to_iso,
                      assert_level_matches_carved, faults_of, is_ancestor,
                      leaf_of, load_nonrich_fixture, local_tangles,
                      necessary_for_leaf, necessary_node, path_from_root,
                      random_relation_system, random_subset_system,
                      redundant_split_family, redundant_split_system,
                      standardized_explicit, submodular_subsystems, tree_maps)

EXHAUSTIVE_SEPS = 12
BIG_BUDGET = OracleBudget(max_separations=128)


@dataclass
class Instance:
    name: str
    system: object
    family: object


def _poset_instances():
    out = []
    for seed in range(30):
        n = 2 + seed % 4
        system = random_relation_system(seed, n_seps=n)
        fam = standardized_explicit(system, seed + 500)
        out.append(Instance(f"relposet{seed}/explicit", system, fam))
        if tf.is_standard(tf.make_empty(), system)[0]:
            out.append(Instance(f"relposet{seed}/empty", system, tf.make_empty()))
    for seed in range(30):
        n = 2 + seed % 4
        system = random_subset_system(seed, n_seps=n)
        fam = standardized_explicit(system, seed + 900)
        out.append(Instance(f"subposet{seed}/explicit", system, fam))
        if tf.is_standard(tf.make_empty(), system)[0]:
            out.append(Instance(f"subposet{seed}/empty", system, tf.make_empty()))
    return out


def _graph_instances():
    out = []
    for n in range(1, 6):
        for gi, g in enumerate(all_graphs_up_to_iso(n)):
            for k in (1, 2, 3):
                system = tf.graph_system(g, k)
                fam = tf.make_blocks(k, system)
                out.append(Instance(f"graph{n}-{gi}/blocks{k}", system, fam))
                if system.count and system.count <= 8:
                    fam2 = standardized_explicit(system, 31 * gi + k)
                    out.append(Instance(f"graph{n}-{gi}/explicit{k}",
                                        system, fam2))
    return out


def _bipartition_instances():
    out = []
    for points in (2, 3, 4):
        system = tf.bipartition_system(tf.full_bipartition_ground(points))
        for n in (1, 2):
            out.append(Instance(f"bip{points}/cluster{n}", system,
                                tf.make_cluster(n, system)))
        out.append(Instance(f"bip{points}/strong_profile", system,
                            tf.make_strong_profile(system)))
        out.append(Instance(f"bip{points}/explicit", system,
                            standardized_explicit(system, points)))
    rng = np.random.default_rng(42)
    for points in (5, 6):
        for trial in range(2):
            sides = set()
            while len(sides) < 12:
                mask = int(rng.integers(1, 2 ** points - 1))
                side = frozenset(v for v in range(points) if (mask >> v) & 1)
                sides.add(side)
                sides.add(frozenset(range(points)) - side)
            ground = tf.BipartitionGround(points, tuple(sorted(sides, key=sorted)))
            system = tf.bipartition_system(ground)
            out.append(Instance(f"bipr{points}-{trial}/cluster2", system,
                                tf.make_cluster(2, system)))
    return out


@pytest.fixture(scope="module")
def instances():
    return _poset_instances() + _graph_instances() + _bipartition_instances()


@pytest.fixture(scope="module")
def built(instances):
    """(instance, oracle tangles, built tree) for the whole pool."""
    out = []
    for inst in instances:
        want = all_tangles(inst.system, inst.family, BIG_BUDGET)
        tree = tf.build(inst.system, inst.family)
        out.append((inst, want, tree))
    return out


def _sample_orientations(system, tangles, seed, limit=40):
    if system.count <= EXHAUSTIVE_SEPS:
        return [frozenset(c) for c in
                product(*[system.orientations_of(s) for s in system.seps()])]
    rng = np.random.default_rng(seed)
    out = {t for t in tangles}
    for t in tangles:
        for o in sorted(t)[:5]:
            out.add((t - {o}) | {inverse(o)})
    while len(out) < limit:
        out.add(frozenset(int(rng.integers(0, 2)) + 2 * s
                          for s in system.seps()))
    return sorted(out, key=sorted)


def test_criterion_1_master_equivalence(built):
    """Tree-displayed tangles equal the brute-force tangle set exactly."""
    assert len(built) >= 200
    for inst, want, tree in built:
        got = tf.tangles(tree, inst.family)
        assert sorted(map(sorted, got)) == sorted(map(sorted, want)), inst.name
    print(f"\nACCEPTANCE criterion 1 PASS: exact tangle-set equality on "
          f"{len(built)} instances")


def test_criterion_2_predicate_ladder(built):
    """Every built tree has each tree property, read off its definition by
    the oracle, and the size bound; its reduction keeps every property but
    thorough ordering."""
    reduced_unthorough = 0
    for inst, _, tree in built:
        assert faults_of(tree, inst.family) == \
            dict.fromkeys(TREE_PROPERTIES), inst.name
        assert len(tree.leaves()) <= 2 ** inst.system.count, inst.name
        assert len(tree) < 2 ** (inst.system.count + 1), inst.name
        faults = faults_of(tf.reduce(tree, inst.family)[0], inst.family)
        reduced_unthorough += faults.pop("thoroughly ordered") is not None
        assert set(faults.values()) == {None}, inst.name
    assert reduced_unthorough  # reduction can drop a cheap split
    print(f"\nACCEPTANCE criterion 2 PASS: ladder and size bound on "
          f"{len(built)} trees, ladder but thorough order on their "
          f"reductions ({reduced_unthorough} not thoroughly ordered)")


def test_criterion_3_display_properties(built):
    """Leaf closures, inner-node invariants, unique leaves, and efficiency of
    the displayed label sets, on built and reduced trees."""
    exhaustive = 0
    for idx, (inst, want, tree) in enumerate(built):
        system, fam = inst.system, inst.family
        trees = [tree]
        red, _ = tf.reduce(tree, fam)
        trees.append(red)
        for t in trees:
            # (leaf closures) label sets free of the family close to tangles,
            # and every oracle tangle shows up that way
            closures = []
            for leaf in t.leaves():
                cls = tf.classify_leaf(t, leaf, fam)
                if fam.forbidden_subset(system, t.beta(leaf)) is None:
                    assert cls.kind == "tangle", inst.name
                    closures.append(cls.tangle)
            assert sorted(map(sorted, closures)) == \
                sorted(map(sorted, want)), inst.name
            # (inner nodes)
            for v in t.non_leaves():
                beta = t.beta(v)
                assert fam.forbidden_subset(system, beta) is None, inst.name
                s = t.s_of(v)
                closure = system.closure(beta)
                assert not closure >> 2 * s & 3
                for o in system.orientations_of(s):
                    assert not any(system.lt(y, o) for y in ids_of(beta)), \
                        inst.name
                anc_orders = [system.order(t.s_of(u))
                              for u in path_from_root(t, v) if not t.is_leaf(u)]
                assert system.order(s) == max(anc_orders), inst.name
        # (orientations) unique leaf, inclusion, and efficiency in the tree
        if system.count <= EXHAUSTIVE_SEPS:
            exhaustive += 1
        taus = _sample_orientations(system, want, seed=idx)
        want_set = {frozenset(t) for t in want}
        for tau in taus:
            if not system.orients_all(mask_of(tau)):
                continue
            leaf = leaf_of(tree, tau)  # the one leaf whose labels tau holds
            if not system.is_consistent(mask_of(tau)):
                continue
            beta = tree.beta(leaf)
            closure = system.closure(beta)
            assert not closure & ~mask_of(tau), inst.name
            assert is_efficient_in(system, ids_of(beta), tau), inst.name
            if tau in want_set:
                assert closure == mask_of(tau), inst.name
            else:
                witness = fam.forbidden_subset(system, beta)
                assert witness is not None, inst.name
                assert is_efficient_in(system, witness.members, tau)
                if beta.bit_count() <= 12:
                    subs = [frozenset()]
                    for x in ids_of(beta):
                        subs += [s | {x} for s in subs]
                    for sigma in subs:
                        if sigma and fam.is_member(
                                frozenset(system.oriented_into(
                                    fam.system or system)[o] for o in sigma)):
                            assert is_efficient_in(system, sigma, tau), inst.name
    print(f"\nACCEPTANCE criterion 3 PASS: display properties on "
          f"{len(built)} built+reduced trees "
          f"({exhaustive} with all orientations swept)")


def test_criterion_4_reduction(built):
    """Reduction invariants plus the contract-exactly-when-unneeded
    equivalence, across at least fifty trees."""
    checked = 0
    for inst, want, tree in built:
        if len(tree) > 33 or inst.system.count > 10:
            continue
        system, fam = inst.system, inst.family
        red, trace = tf.reduce(tree, fam)
        assert sorted(map(sorted, tf.tangles(red, fam))) == \
            sorted(map(sorted, want)), inst.name
        for v in red.nodes():
            assert necessary_node(red, fam, v), inst.name
        for u in red.nodes():
            for v in red.nodes():
                assert is_ancestor(red, u, v) == is_ancestor(tree, u, v)
        for leaf in red.leaves():
            assert tree.is_leaf(leaf)
            before = tf.classify_leaf(tree, leaf, fam).kind
            after = tf.classify_leaf(red, leaf, fam).kind
            assert (before == "forbidden") == (after == "forbidden")
        faults = faults_of(red, fam)
        assert faults["efficient"] is None and faults["ordered"] is None
        parent, label = tree_maps(tree)
        for v in tree.non_leaves():
            for w in tree.children(v):
                o = tree.label(w)
                needed = any(is_ancestor(tree, w, leaf) and
                             necessary_for_leaf(tree, fam, o, leaf)
                             for leaf in tree.leaves())
                contracted = replay(parent, label, [(v, w)])
                ok = tree_faults(system, fam, *contracted)["structure tree"]
                assert (ok is None) == (not needed), inst.name
        checked += 1
    assert checked >= 50
    print(f"\nACCEPTANCE criterion 4 PASS: reduction invariants and the "
          f"contraction equivalence on {checked} trees")


def test_criterion_5_restriction(built):
    """Restrictions of thoroughly ordered trees are structure trees of the
    restricted system with exactly its tangles; reducing first loses them."""
    levels = 0
    for inst, _, tree in built:
        system, fam = inst.system, inst.family
        for k in sorted({float(system.order(s)) for s in system.seps()}):
            rk = tf.restrict(tree, k)
            sub = system.restrict_below(k)
            assert tf.is_structure_tree(rk, fam), (inst.name, k)
            want = all_tangles(sub, fam, BIG_BUDGET)
            got = tf.tangles(rk, fam)
            assert local_tangles(rk.system, got) == \
                sorted(map(sorted, want)), (inst.name, k)
            levels += 1
    # negative: reduce first and the low-order tangle disappears
    system = redundant_split_system()
    fam = redundant_split_family(system)
    tree = tf.build(system, fam)
    red, _ = tf.reduce(tree, fam)
    assert not tf.is_structure_tree(tf.restrict(red, 2.0), fam)
    low = tf.restrict(tree, 2.0)
    assert tf.is_structure_tree(low, fam)
    assert [sorted(t) for t in tf.tangles(low, fam)] == [[0]]
    print(f"\nACCEPTANCE criterion 5 PASS: {levels} restriction levels match "
          f"the oracle; reduce-then-restrict counterexample reproduced")


def test_pipeline_levels_stand_for_their_carved_systems(instances):
    """Each level of pipeline() is a view of the system; read through local
    ids, it is node by node the level over restrict_below(k)."""
    levels = 0
    for inst in instances:
        report = tf.pipeline(inst.system, inst.family)
        for lv in report.levels:
            assert_level_matches_carved(report.tree_full, lv, inst.family)
            levels += 1
    assert levels >= 600


def test_criterion_6_block_duality(k4, p5, two_k4, tmp_path):
    """Blocks exist exactly when no all-forbidden tree does, and the
    command-line contract reflects it."""
    # oracle first
    assert all_kblocks(p5, 3) == []
    assert all_kblocks(k4, 3) == [frozenset(range(4))]
    assert [sorted(b) for b in all_kblocks(two_k4, 3)] == \
        [[0, 1, 2, 3], [4, 5, 6, 7]]

    s3 = tf.graph_system(p5, 3)
    fam = tf.make_blocks(3, s3)
    assert all_tangles(s3, fam, BIG_BUDGET) == []
    t = tf.build(s3, fam)
    assert tf.is_f_tree(t, fam)

    s3 = tf.graph_system(k4, 3)
    fam = tf.make_blocks(3, s3)
    want = all_tangles(s3, fam)
    assert len(want) == 1
    t = tf.build(s3, fam)
    got = tf.tangles(t, fam)
    assert got == want
    assert tf.block_of_tangle(s3, got[0]) == frozenset(range(4))

    s3 = tf.graph_system(two_k4, 3)
    fam = tf.make_blocks(3, s3)
    want = all_tangles(s3, fam, BIG_BUDGET)
    assert len(want) == 2
    t = tf.build(s3, fam)
    assert sorted(map(sorted, tf.tangles(t, fam))) == sorted(map(sorted, want))
    blocks = sorted(sorted(tf.block_of_tangle(s3, tau)) for tau in want)
    assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7]]

    out = tmp_path / "o.json"
    assert cli_main(["certify", "--graph", str(FIXTURES / "k4.edges"),
                     "--family", "blocks:3", "--out", str(out)]) == 0
    assert cli_main(["certify", "--graph", str(FIXTURES / "p5.edges"),
                     "--family", "blocks:3", "--out", str(out)]) == 1
    print("\nACCEPTANCE criterion 6 PASS: block duality on the three graph "
          "fixtures, exit codes 0/1 as contracted")


def test_criterion_7_richness(built):
    """Lowering-closed families are rich; with injective orders a successful
    construction forces richness; the committed non-rich fixture fails."""
    rich_checked = 0
    for inst, _, tree in built:
        if inst.system.count > 5:
            continue
        ok_min = tf.is_closed_under_minimization(inst.family, inst.system)[0]
        if ok_min:
            assert tf.is_rich(inst.family, inst.system)[0], inst.name
            rich_checked += 1
    assert rich_checked >= 40
    converse = 0
    for seed in range(25):
        system = random_subset_system(seed + 2000, n_seps=4, orders="injective")
        fam = standardized_explicit(system, seed + 3000)
        tree = tf.build(system, fam)
        faults = faults_of(tree, fam)
        if faults["structure tree"] is None and \
                faults["thoroughly ordered"] is None:
            assert tf.is_rich(fam, system)[0], seed
            converse += 1
    assert converse >= 20
    system, family = load_nonrich_fixture()
    assert len(set(list(system.orders))) == system.count  # injective
    ok, bad = tf.is_rich(family, system)
    assert not ok and frozenset({0, 2}) in set(bad)
    tree = tf.build(system, family)
    assert not tf.is_structure_tree(tree, family)
    print(f"\nACCEPTANCE criterion 7 PASS: {rich_checked} lowering-closed "
          f"families rich, {converse} injective-order converses, fixture red")


def test_criterion_8_profiles():
    """Regular profile tangles coincide with the strong family's tangles on
    every submodular subsystem of a small distributive subset universe, and
    the existence dichotomy holds on each."""
    systems = 0
    for points in (2, 3, 4):
        universe = tf.bipartition_system(tf.full_bipartition_ground(points))
        assert universe.distributive
        p = tf.make_profile(universe)
        ps = tf.make_strong_profile(universe)
        for system in submodular_subsystems(universe, 4):
            regular = sorted(sorted(t) for t in all_tangles(system, p)
                             if not any(system.is_small(o) for o in t))
            strong = sorted(sorted(t) for t in all_tangles(system, ps))
            assert regular == strong
            tree = tf.build(system, ps)
            assert tf.is_structure_tree(tree, ps)
            has_tangle = bool(tf.tangles(tree, ps))
            assert has_tangle == bool(strong)
            assert bool(tf.is_f_tree(tree, ps)) == (not has_tangle)
            systems += 1
    assert systems >= 40
    print(f"\nACCEPTANCE criterion 8 PASS: regular-profile equality and the "
          f"dichotomy on {systems} submodular subsystems")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical invocations write byte-identical files."""
    commands = [
        ["build", "--graph", str(FIXTURES / "two_k4.edges"),
         "--family", "blocks:3"],
        ["certify", "--similarity", str(FIXTURES / "six_similarity.csv"),
         "--family", "cluster:3", "--k", "2"],
        ["oracle", "--graph", str(FIXTURES / "k4.edges"),
         "--family", "blocks:3"],
        ["build", "--answers", str(FIXTURES / "mindsets.csv"),
         "--family", "cluster:3"],
    ]
    for i, argv in enumerate(commands):
        blobs = []
        for run in range(2):
            out = tmp_path / f"{i}-{run}.out"
            code = cli_main([*argv, "--out", str(out)])
            assert code in (0, 1)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], argv
    print("\nACCEPTANCE criterion 9 PASS: byte-identical outputs across "
          f"{len(commands)} repeated commands")
