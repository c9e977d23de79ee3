"""Shared fixtures and deterministic instance generators for the suite.

Two random-system generators are used throughout: one realizes separations
as subsets of a small ground set (valid by construction), the other repairs
a random relation into a closed order with a mirrored involution.  Both are
seeded, so every test run sees identical instances.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tangleforge as tf
import tangleforge.tree as tr
from tangleforge.oracle import minimal_elements, replay, tree_faults
from tangleforge.system import ids_of, inverse, mask_of

FIXTURES = Path(__file__).parent / "fixtures"


# -- tiny named systems -----------------------------------------------------


def nested_pair_system():
    """Two nested separations: 2 < 0 and 1 < 3, orders 1 and 2."""
    leq = np.eye(4, dtype=bool)
    leq[2, 0] = leq[1, 3] = True
    return tf.SeparationSystem(leq, [1.0, 2.0])


def antichain_system(n=2, orders=None):
    """n pairwise incomparable separations."""
    leq = np.eye(2 * n, dtype=bool)
    return tf.SeparationSystem(leq, orders if orders is not None else [1.0] * n)


def redundant_split_system():
    """Order-1 separation 0 whose forward orientation is above both 2 and 4,
    with 3 < 4 interlocking the two order-2 separations; splitting on it is
    never needed once the family forbids its backward orientation."""
    strict = [(2, 0), (4, 0), (3, 4), (1, 3), (1, 5), (5, 2),
              (1, 4), (1, 0), (1, 2), (3, 0), (5, 0)]
    leq = np.eye(6, dtype=bool)
    for a, b in strict:
        leq[a, b] = True
    return tf.SeparationSystem(leq, [1.0, 2.0, 2.0])


def redundant_split_family(system):
    return tf.make_explicit([{1}], system)


def trivial_top_system():
    """Orientation 0 sits above both orientations of the other separation,
    so 0 is trivial and 1 co-trivial; orders make 0's separation split first."""
    strict = [(2, 0), (3, 0), (1, 3), (1, 2), (1, 0)]
    leq = np.eye(4, dtype=bool)
    for a, b in strict:
        leq[a, b] = True
    return tf.SeparationSystem(leq, [1.0, 2.0])


def degenerate_pair_system():
    """A degenerate separation 0 of order 1 between the orientations of
    separation 1, of order 2: 3 <= 0 = 1 <= 2."""
    leq = np.eye(4, dtype=bool)
    for a, b in [(0, 1), (1, 0), (0, 2), (1, 2), (3, 0), (3, 1)]:
        leq[a, b] = True
    prev = None
    while prev is None or not np.array_equal(prev, leq):
        prev = leq
        leq = leq | ((leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0)
    return tf.SeparationSystem(leq, [1.0, 2.0], allow_degenerate=True)


def load_nonrich_fixture():
    system = tf.load_system((FIXTURES / "nonrich_system.json").read_text())
    family = tf.family_from_json(
        __import__("json").loads((FIXTURES / "nonrich_family.json").read_text()),
        system)
    return system, family


# -- random generators ---------------------------------------------------------


def random_subset_system(seed, n_seps=4, universe=5, orders="random"):
    """Separations realized as subsets of a small set, ordered by inclusion."""
    rng = np.random.default_rng(seed)
    full = (1 << universe) - 1
    sides = []
    used = set()
    while len(sides) < 2 * n_seps:
        mask = int(rng.integers(0, full + 1))
        comp = full ^ mask
        if mask in used or comp in used:
            continue
        used.update((mask, comp))
        sides.extend((mask, comp))
    n2 = len(sides)
    leq = np.zeros((n2, n2), dtype=bool)
    for i in range(n2):
        for j in range(n2):
            leq[i, j] = (sides[i] & ~sides[j]) == 0
    if orders == "random":
        ords = rng.integers(1, 4, size=n_seps).astype(float)
    elif orders == "injective":
        ords = rng.permutation(n_seps).astype(float) + 1.0
    else:
        ords = np.array(orders, dtype=float)
    return tf.SeparationSystem(leq, ords)


def random_relation_system(seed, n_seps=4, orders="random", attempts=60):
    """Random strict pairs, mirrored through the involution and transitively
    closed; retried until antisymmetric."""
    rng = np.random.default_rng(seed)
    n2 = 2 * n_seps
    for _ in range(attempts):
        leq = np.eye(n2, dtype=bool)
        n_pairs = int(rng.integers(1, max(2, n2)))
        for _ in range(n_pairs):
            a, b = rng.integers(0, n2, size=2)
            if a != b:
                leq[a, b] = True
                leq[b ^ 1, a ^ 1] = True
        prev = None
        while prev is None or not np.array_equal(prev, leq):
            prev = leq
            leq = leq | ((leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0)
        mutual = leq & leq.T
        np.fill_diagonal(mutual, False)
        if not mutual.any():
            if orders == "random":
                ords = rng.integers(1, 4, size=n_seps).astype(float)
            else:
                ords = rng.permutation(n_seps).astype(float) + 1.0
            return tf.SeparationSystem(leq, ords)
    return antichain_system(n_seps)


def minimization_closure(system, members):
    """All pointwise lowerings of the given member sets."""
    out = set(frozenset(m) for m in members)
    for m in list(out):
        downs = [[y for y in system.all_oriented() if system.leq[y, x]]
                 for x in sorted(m)]
        for choice in product(*downs):
            out.add(frozenset(choice))
    return out


def closed_under_pointwise_lowering(family, system):
    """The verdict of ``is_closed_under_minimization`` by its definition:
    every pointwise lowering, within the live elements, of every member up
    to the certifier's cap is a member."""
    def member(sub):
        return family.is_member(ids_of(family._ids_into(system, mask_of(sub))))

    ids = sorted(system.all_oriented())
    subs = (c for r in range(1, (family.arity or 3) + 1)
            for c in combinations(ids, r))
    return all(member(set(choice)) for sub in subs if member(sub)
               for choice in product(*(ids_of(system.down[x] & system.live)
                                       for x in sub)))


def standardized_explicit(system, seed):
    """A seeded explicit family made standard and closed under lowering."""
    rng = np.random.default_rng(seed)
    members = set()
    ids = list(system.all_oriented())
    for _ in range(int(rng.integers(1, 3))):
        size = int(rng.integers(1, min(4, len(ids) + 1)))
        pick = rng.choice(ids, size=size, replace=False)
        members.add(frozenset(int(x) for x in pick))
    for o in system.trivial_orienteds():
        members.add(frozenset({inverse(o)}))
    return tf.make_explicit(sorted(minimization_closure(system, members),
                                   key=sorted), system)


_GRAPH_CACHE = {}


def all_graphs_up_to_iso(n):
    """Non-isomorphic simple graphs on exactly n labelled-then-canonized
    vertices."""
    if n in _GRAPH_CACHE:
        return _GRAPH_CACHE[n]
    pairs = list(combinations(range(n), 2))
    perm_maps = []
    for perm in permutations(range(n)):
        perm_maps.append([pairs.index(tuple(sorted((perm[u], perm[v]))))
                          for u, v in pairs])
    seen = set()
    out = []
    for bits in range(2 ** len(pairs)):
        canon = min(sum(((bits >> i) & 1) << pm[i] for i in range(len(pairs)))
                    for pm in perm_maps)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(tf.Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (canon >> i) & 1]))
    _GRAPH_CACHE[n] = out
    return out


def grid_graph(rows, cols):
    """The rows x cols grid, vertex r * cols + c at row r and column c."""
    return tf.Graph.from_edges(
        rows * cols,
        [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols] +
        [(v, v + cols) for v in range((rows - 1) * cols)])


def separation_sides(system):
    """The (A, B) vertex sides of a graph system's non-degenerate
    separations, in id order: what `oracle.vertex_separations_below` lists
    for the same graph and bound."""
    return [side_pair(system.ground, 2 * s) for s in system.seps()
            if not system.is_degenerate(s)]


def side_pair(ground, o):
    """The (A, B) vertex sets of the separation a graph ground's oriented id
    ``o`` stands for: its inverse's side, then its own."""
    return ground.side(o ^ 1), ground.side(o)


# -- reference joins, by loops over the order ------------------------------------


def looped_joins(leq):
    """The join and the meet tables of a poset given as a (2n, 2n) matrix of
    truth values, as lists of rows: for two ids the least id among their
    common upper bounds that lie below every common upper bound, and the
    least id among their common lower bounds that lie above every common
    lower bound; -1 where there is none.  Read off the matrix alone, apart
    from the library's keys: by transitivity all that lies above a common
    upper bound c is a common upper bound, so c is the least exactly when
    as many ids lie above it as bound the pair (and dually for the meet)."""
    L = np.array(leq, dtype=bool).reshape(len(leq), len(leq))
    tables = []
    for beyond in (L, L.T):  # upper bounds, then lower bounds
        counts = beyond.sum(axis=1)
        table = []
        for row in beyond:
            common = row[None, :] & beyond  # [b, c]: c bounds a and b
            best = common & (counts[None, :] == common.sum(axis=1)[:, None])
            table.append(np.where(best.any(axis=1), best.argmax(axis=1),
                                  -1).tolist())
        tables.append(table)
    return tables


def order_matrix(d):
    """The (2n, 2n) truth matrix of a sepsys object's ``count`` and strict
    ``leq`` pairs."""
    leq = np.eye(2 * d["count"], dtype=bool)
    for a, b in d.get("leq", []):
        leq[a, b] = True
    return leq


# -- sepsys/v2 expanded into sepsys/v1 --------------------------------------------


def expand_sepsys_v2(d):
    """The sepsys/v1 dict of a sepsys/v2 dict, the format with tables that
    was written before, worked out by the tests alone.  Of a ground: a key
    per oriented id (a set's side, and (V - A, B) for a graph separation
    (A, B)), the strict subset order of the keys as ``leq``, and for a
    lattice the ids of the keys' unions and intersections as ``join`` and
    ``meet``, the least id for a repeated key.  Of an order: its ``leq``,
    and for a lattice ``looped_joins`` of it."""
    if "ground" not in d:
        out = {"format": "sepsys/v1", "count": d["count"],
               "orders": d["orders"], "leq": d["leq"]}
        if d.get("lattice"):
            join, meet = looped_joins(order_matrix(d))
            out["universe"] = {"join": join, "meet": meet}
            out["distributive"] = d["distributive"]
        if d.get("allow_degenerate"):
            out["allow_degenerate"] = True
        return out
    ground = d["ground"]
    sides = [frozenset(side) for side in ground["sides"]]
    forward = range(0, len(sides), 2)
    if ground["kind"] == "graph":
        points = frozenset(range(ground["n"]))
        keys = [(points - sides[o ^ 1], side) for o, side in enumerate(sides)]
        payload = {"kind": "graph", "n": ground["n"], "edges": ground["edges"],
                   "sides": [[sorted(sides[o + 1]), sorted(sides[o])]
                             for o in forward]}
    else:
        keys = [(frozenset(), side) for side in sides]  # pairs, as a graph's
        payload = {"kind": "sets", "size": ground["size"],
                   "sides": [sorted(sides[o]) for o in forward]}
    ids = {}
    for o, key in enumerate(keys):
        ids.setdefault(key, o)
    out = {"format": "sepsys/v1", "count": d["count"], "orders": d["orders"],
           "leq": [[a, b] for a, x in enumerate(keys) for b, y in enumerate(keys)
                   if a != b and x[0] <= y[0] and x[1] <= y[1]],
           "ground": payload}
    if d.get("lattice"):
        out["universe"] = {
            "join": [[ids[x[0] | y[0], x[1] | y[1]] for y in keys] for x in keys],
            "meet": [[ids[x[0] & y[0], x[1] & y[1]] for y in keys] for x in keys]}
        out["distributive"] = d["distributive"]
    if d.get("allow_degenerate"):
        out["allow_degenerate"] = True
    return out


def expand_systems(value):
    """``value`` with every sepsys/v2 object in it expanded into sepsys/v1."""
    if isinstance(value, dict):
        if value.get("format") == "sepsys/v2":
            return expand_sepsys_v2(value)
        return {key: expand_systems(item) for key, item in value.items()}
    if isinstance(value, list):
        return [expand_systems(item) for item in value]
    return value


def v1_of(system):
    """The sepsys/v1 dict of a whole system, read off its ``leq`` and, for
    a lattice, ``looped_joins`` of it: what the sepsys/v1 writer wrote of
    a system, with a ground in the per-separation layout of that format."""
    ground, n2 = system.ground, system.n_oriented
    out = {"format": "sepsys/v1", "count": system.count,
           "orders": list(system.orders),
           "leq": np.argwhere(np.array(system.leq, dtype=bool)
                              & ~np.eye(n2, dtype=bool)).tolist()}
    if system.has_universe():
        join, meet = looped_joins(system.leq)
        out["universe"] = {"join": join, "meet": meet}
        out["distributive"] = system.distributive
    if system.allow_degenerate:
        out["allow_degenerate"] = True
    if ground is not None and ground.graph is None:
        out["ground"] = {"kind": "sets", "size": ground.size,
                         "sides": [ids_of(m) for m in ground.sides[::2]]}
    elif ground is not None:
        out["ground"] = {"kind": "graph", "n": ground.size,
                         "edges": sorted([list(e) for e in ground.graph.edges]),
                         "sides": [[ids_of(a), ids_of(b)] for b, a in
                                   zip(ground.sides[::2], ground.sides[1::2])]}
    return out


# -- tree helpers ---------------------------------------------------------------


def tree_shape(tree):
    return (tree.root,
            {v: (tree.parent(v), tree.label(v)) for v in tree.nodes()})


def materialised(system):
    """The carved system a view stands for: ``restrict_below(k)`` of its
    base for a view ``view_below(k)``; a system stands for itself."""
    return system if system.base is system else \
        system.base.subsystem(system.seps())


def original_labels(tree, ancestor):
    """Node -> oriented id in the ancestor system, for comparing
    restrictions: each label read through ``local`` in the carved system
    its view stands for, and mapped up from there."""
    system = tree.system
    up = materialised(system).oriented_into(ancestor)
    return {v: (None if tree.label(v) is None else up[system.local(tree.label(v))])
            for v in tree.nodes()}


def local_tangles(system, found):
    """Sorted tangles, each in the local ids of the view ``system``."""
    return sorted(sorted(map(system.local, t)) for t in found)


def restrict_relabelled(tree, k):
    """The subtree of edges below order k over ``restrict_below(k)``, its
    labels carried into that system's ids: the carving restriction that
    ``restrict``'s views stand in for, kept as their reference."""
    sub = tree.system.restrict_below(k)
    label_map = {old: new
                 for new, old in enumerate(sub.oriented_into(tree.system))}
    keep, stack = set(), [tree.root]
    while stack:
        v = stack.pop()
        keep.add(v)
        stack += [c for c in tree.children(v)
                  if tree.system.order_of(tree.label(c)) < k]
    return tr.StructureTree(
        sub, tree.root, {v: tree.parent(v) for v in keep},
        {v: [c for c in tree.children(v) if c in keep] for v in keep},
        {v: None if tree.label(v) is None else label_map[tree.label(v)]
         for v in keep})


def local_mask(system, mask):
    """A mask of a view's ids in the local ids of the system it stands for."""
    return sum(1 << system.local(o) for o in tf.system.ids_of(mask))


def assert_level_matches_carved(tree_full, level, family):
    """A pipeline level, whose tree is a view tree, read through ``local``
    against ``restrict_relabelled`` of the full tree: node by node, its
    label mask, closure, consistency and leaf class; then the oracle's
    verdict on its tree properties, and its tangles, critical labels,
    reduction steps and the level's stored tangles and certificates."""
    ref = restrict_relabelled(tree_full, level.k)
    tree, view = level.tree, level.tree.system
    assert view.base is tree_full.system.base
    assert (tree.root, tree.nodes()) == (ref.root, ref.nodes())
    for v in ref.nodes():
        assert tree.parent(v) == ref.parent(v)
        assert v == tree.root or view.local(tree.label(v)) == ref.label(v)
        assert local_mask(view, tree.beta(v)) == ref.beta(v)
        assert local_mask(view, tree.closure(v)) == ref.closure(v)
        assert tree.consistency(v) == ref.consistency(v)
    for leaf in ref.leaves():
        got, want = (tr.leaf_class(t, leaf, family) for t in (tree, ref))
        assert got.kind == want.kind
        if got.kind == "tangle":
            assert sorted(map(view.local, got.tangle)) == sorted(want.tangle)
        if got.kind == "forbidden":
            assert sorted(map(view.local, got.witness.members)) == \
                sorted(want.witness.members)
            assert got.witness.evidence == want.witness.evidence
            assert local_mask(view, family.critical_labels(
                view, tree.beta(leaf))) == \
                family.critical_labels(ref.system, ref.beta(leaf))
    # the oracle's verdict on the carved level: a level of a built tree is
    # thoroughly ordered, and it is a structure tree where the pipeline
    # says so
    faults = faults_of(ref, carved_family(family, ref.system))
    assert faults["thoroughly ordered"] is None and faults["efficient"] is None
    assert (faults["structure tree"] is None) == level.structure_ok
    if not level.structure_ok:
        return
    reduced, trace = tf.reduce(ref, family)
    assert tf.reduce(tree, family)[1].steps == trace.steps
    assert level.reduced.nodes() == reduced.nodes()
    assert local_tangles(view, level.tangles) == \
        sorted(map(sorted, tf.tangles(reduced, family)))
    assert [(leaf, sorted(map(view.local, w.members)))
            for leaf, w in level.certificates] == \
        [(leaf, sorted(w.members))
         for leaf, w in tf.certificates_of(reduced, family)]


def split_leaf(tree, v, s):
    """A copy of the tree with the leaf v split on s, and the new children:
    construction's in-place split made persistent."""
    out = tr.StructureTree(tree.system, tree.root, tree._parent,
                           tree._children, tree._label)
    return out, out._split(v, s)


def tree_maps(tree):
    """The tree's plain ``parent`` and ``label`` maps, as the oracle reads
    a tree."""
    return ({v: tree.parent(v) for v in tree.nodes()},
            {v: tree.label(v) for v in tree.nodes()})


def faults_of(tree, family):
    """The oracle's ``tree_faults`` of a tree over a whole system."""
    return tree_faults(tree.system, family, *tree_maps(tree))


def carved_family(family, system):
    """``family``, bound to the top system of ``system``'s carving, asked
    in ``system``'s ids: what the oracle's checkers take."""
    up = system.oriented_into(family.system or system)
    return SimpleNamespace(system=system, arity=family.arity, is_member=(
        lambda ids: family.is_member([up[o] for o in ids])))


def replayed(tree, steps):
    """The tree after the contractions ``steps``, replayed by the oracle
    on plain maps and built again over the same system."""
    parent, label = replay(*tree_maps(tree), steps)
    children = {v: [c for c in sorted(parent) if parent[c] == v]
                for v in parent}
    root = next(v for v, p in parent.items() if p is None)
    return tr.StructureTree(tree.system, root, parent, children, label)


def leaf_of(tree, tau):
    """The one leaf whose labels the orientation ``tau`` holds."""
    [leaf] = [leaf for leaf in tree.leaves()
              if not tree.beta(leaf) & ~mask_of(tau)]
    return leaf


def path_from_root(tree, v):
    """The nodes from the root down to v, by a walk up parent links."""
    out = [v]
    while tree.parent(out[-1]) is not None:
        out.append(tree.parent(out[-1]))
    return out[::-1]


def depth(tree, v):
    return len(path_from_root(tree, v)) - 1


def is_ancestor(tree, u, v):
    """u lies on the root path of v (reflexively)."""
    return u in path_from_root(tree, v)


def needed_by_definition(tree, family, o, leaf, cls) -> bool:
    """Necessity read off the definition, asked of the family as it stands:
    a tangle leaf needs its minimal labels, a forbidden leaf the labels
    without which its labels hold no member."""
    beta = tree.beta(leaf)
    if cls.kind == "tangle":
        return o in minimal_elements(tree.system, ids_of(beta))
    assert cls.kind == "forbidden"
    return family.forbidden_subset(tree.system, beta & ~(1 << o)) is None


def necessary_for_leaf(tree, family, o, leaf):
    """Is the oriented separation needed to keep this leaf classified?"""
    return needed_by_definition(tree, family, o, leaf,
                                tf.classify_leaf(tree, leaf, family))


def necessary_node(tree, family, v):
    """Every child edge label is needed by some leaf behind it."""
    return all(any(necessary_for_leaf(tree, family, tree.label(w), leaf)
                   for leaf in tree.leaves() if is_ancestor(tree, w, leaf))
               for w in tree.children(v))


def two_cluster_similarity():
    return [[1.0 if (u < 3) == (v < 3) else 0.0 for v in range(6)]
            for u in range(6)]


def submodular_subsystems(universe, max_size):
    """Subsystems in which every pair keeps its join or meet, parent-linked."""
    out = []
    seps, (join, meet) = list(universe.seps()), looped_joins(universe.leq)
    for bits in range(1, 2 ** len(seps)):
        ids = [s for i, s in enumerate(seps) if (bits >> i) & 1]
        if len(ids) > max_size:
            continue
        keep = {o for s in ids for o in (2 * s, 2 * s + 1)}
        good = all(join[a][b] in keep or meet[a][b] in keep
                   for a in keep for b in keep)
        if good:
            out.append(universe.subsystem(ids))
    return out


def lattice_times_chain(elements, covers, star, distributive=True):
    """L x 2 with the involution (x, i) -> (x', 1 - i), claiming a
    lattice.  ``covers`` are pairs x < y of L generating its order;
    ``star`` maps x to x'."""
    below = {(x, x) for x in elements} | set(covers)
    while True:
        more = {(x, z) for x, y in below for w, z in below if y == w} - below
        if not more:
            break
        below |= more
    points = []
    for x in elements:
        for i in (0, 1):
            if (x, i) not in points:
                points += [(x, i), (star[x], 1 - i)]
    n2 = len(points)
    L = np.array([[(p[0], q[0]) in below and p[1] <= q[1] for q in points]
                  for p in points])
    return tf.SeparationSystem(L, [1.0] * (n2 // 2), lattice=True,
                               distributive=distributive, check=False)


# M3 and N5, the two smallest lattices that are not distributive, with
# order-reversing involutions
M3 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
      {"0": "1", "1": "0", "a": "a", "b": "b", "c": "c"})
N5 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("a", "b"), ("0", "c"), ("b", "1"), ("c", "1")],
      {"0": "1", "1": "0", "a": "b", "b": "a", "c": "c"})


@pytest.fixture(scope="session")
def nested_pair():
    return nested_pair_system()


@pytest.fixture(scope="session")
def k4():
    return tf.Graph.from_edges(4, combinations(range(4), 2))


@pytest.fixture(scope="session")
def p5():
    return tf.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="session")
def two_k4():
    edges = (list(combinations(range(4), 2))
             + [(u + 4, v + 4) for u, v in combinations(range(4), 2)]
             + [(3, 4)])
    return tf.Graph.from_edges(8, edges)


@pytest.fixture(scope="session")
def six_cluster_system():
    ground = tf.full_bipartition_ground(6, similarity=two_cluster_similarity())
    return tf.bipartition_system(ground)
