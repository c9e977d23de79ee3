"""Seeded instance sets of the four benchmark workloads.

An instance constructs its ground system and family with the same library
calls a CLI run makes; the benchmark times that construction as set-up and
repeats it for every query, so that no query sees a system an earlier query
touched.  The heavy reference instances of each workload are fixed.  The seed
renumbers the vertices or points of the others, or draws noise in tenths or
small random posets.  Different seeds then query different inputs at nearly
the same cost.  Independent random similarities would swing the cost of one
instance by more than the benchmark's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Callable

import numpy as np

import tangleforge as tf
from tangleforge.grounds import load_answers_csv, load_similarity_csv
from tangleforge.system import inverse

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class Instance:
    """One input of a workload and how to construct it."""

    name: str
    make: Callable[[], tuple]  # () -> (system, family), timed as set-up
    graph: tf.Graph | None = None  # graph ground, for the k-block check
    blocks_k: int | None = None


# -- inputs ------------------------------------------------------------------


def fixture_graph(name: str) -> tf.Graph:
    return tf.Graph.from_edge_list((FIXTURES / f"{name}.edges").read_text())


def grid_graph(rows: int, cols: int) -> tf.Graph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return tf.Graph.from_edges(rows * cols, edges)


def relabel_graph(g: tf.Graph, rng) -> tf.Graph:
    perm = [int(x) for x in rng.permutation(g.n)]
    return tf.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def relabel_matrix(mat, rng):
    perm = [int(x) for x in rng.permutation(len(mat))]
    return [[mat[perm[u]][perm[v]] for v in range(len(mat))]
            for u in range(len(mat))]


def two_cluster_similarity(points: int, rng):
    """1.0 inside the two halves, 0.0 across, plus noise in tenths.

    Tenths make mathematically equal cut weights sum to different floats,
    which the order thresholds of the pipeline then keep apart.
    """
    half = points // 2
    sim = [[0.0] * points for _ in range(points)]
    for u, v in combinations(range(points), 2):
        base = 1.0 if (u < half) == (v < half) else 0.0
        sim[u][v] = sim[v][u] = base + int(rng.integers(0, 3)) / 10
    return sim


def integer_similarity(points: int, rng):
    """Symmetric integer weights below 1000: cut weights add up exactly and
    are almost surely distinct."""
    sim = [[0.0] * points for _ in range(points)]
    for u, v in combinations(range(points), 2):
        sim[u][v] = sim[v][u] = float(rng.integers(0, 1000))
    return sim


def all_graphs(n: int) -> list[tf.Graph]:
    """One graph per isomorphism class on n vertices."""
    pairs = list(combinations(range(n), 2))
    maps = [[pairs.index(tuple(sorted((p[u], p[v])))) for u, v in pairs]
            for p in permutations(range(n))]
    seen, out = set(), []
    for bits in range(2 ** len(pairs)):
        canon = min(sum(((bits >> i) & 1) << m[i] for i in range(len(pairs)))
                    for m in maps)
        if canon not in seen:
            seen.add(canon)
            out.append(tf.Graph.from_edges(
                n, [pairs[i] for i in range(len(pairs)) if (canon >> i) & 1]))
    return out


def random_relation_poset(rng, n_seps: int, attempts: int = 60):
    """(leq, orders): random strict pairs mirrored through the involution and
    transitively closed, retried until antisymmetric."""
    n2 = 2 * n_seps
    for _ in range(attempts):
        leq = np.eye(n2, dtype=bool)
        for _ in range(int(rng.integers(1, max(2, n2)))):
            a, b = (int(x) for x in rng.integers(0, n2, size=2))
            if a != b:
                leq[a, b] = leq[b ^ 1, a ^ 1] = True
        while True:
            closed = leq | ((leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0)
            if np.array_equal(closed, leq):
                break
            leq = closed
        mutual = leq & leq.T
        np.fill_diagonal(mutual, False)
        if not mutual.any():
            return leq, rng.integers(1, 4, size=n_seps).astype(float)
    return np.eye(n2, dtype=bool), np.ones(n_seps)


def random_subset_poset(rng, n_seps: int, universe: int = 5):
    """(leq, orders): separations realized as complementary subset masks of
    a small set, ordered by inclusion."""
    full = (1 << universe) - 1
    sides, used = [], set()
    while len(sides) < 2 * n_seps:
        mask = int(rng.integers(0, full + 1))
        if mask in used or full ^ mask in used:
            continue
        used.update((mask, full ^ mask))
        sides.extend((mask, full ^ mask))
    leq = np.array([[(a & ~b) == 0 for b in sides] for a in sides], dtype=bool)
    return leq, rng.integers(1, 4, size=n_seps).astype(float)


def standard_explicit_members(system, rng) -> list[frozenset]:
    """A few random member sets plus the inverse singletons of trivial
    elements, closed under pointwise lowering: a standard, rich family."""
    ids = list(system.all_oriented())
    members = set()
    for _ in range(int(rng.integers(1, 3))):
        size = int(rng.integers(1, min(4, len(ids) + 1)))
        members.add(frozenset(int(x) for x in rng.choice(ids, size=size,
                                                          replace=False)))
    for o in system.trivial_orienteds():
        members.add(frozenset({inverse(o)}))
    closed = set(members)
    for m in members:
        downs = [[y for y in ids if system.leq[y, x]] for x in sorted(m)]
        closed.update(frozenset(c) for c in product(*downs))
    return sorted(closed, key=sorted)


# -- instance constructors ------------------------------------------------------


def graph_instance(name, g, k, family="blocks", members=None) -> Instance:
    def make():
        system = tf.graph_system(g, k)
        if family == "blocks":
            return system, tf.make_blocks(k, system)
        return system, tf.make_explicit(members, system)
    if family == "blocks":
        return Instance(name, make, graph=g, blocks_k=k)
    return Instance(name, make)


def bipartition_instance(name, points, similarity, family, param=None) -> Instance:
    def make():
        system = tf.bipartition_system(
            tf.full_bipartition_ground(points, similarity=similarity))
        return system, _family(family, param, system)
    return Instance(name, make)


def sides_instance(name, points, sides, family, param=None) -> Instance:
    def make():
        system = tf.bipartition_system(tf.BipartitionGround(points, sides))
        return system, _family(family, param, system)
    return Instance(name, make)


def questionnaire_instance(name, answers, n) -> Instance:
    def make():
        system = tf.questionnaire_system(answers)
        return system, tf.make_cluster(n, system)
    return Instance(name, make)


def poset_instance(name, leq, orders, members=None) -> Instance:
    def make():
        system = tf.SeparationSystem(leq, orders)
        if members is None:
            return system, tf.make_empty()
        return system, tf.make_explicit(members, system)
    return Instance(name, make)


def _family(kind, param, system):
    if kind == "cluster":
        return tf.make_cluster(param, system)
    if kind == "strong-profile":
        return tf.make_strong_profile(system)
    if kind == "explicit":
        return tf.make_explicit(param, system)
    raise ValueError(f"unknown family {kind!r}")


# -- the workloads ----------------------------------------------------------------


def blocks_grid(seed: int) -> list[Instance]:
    """blocks:3 on the graph fixtures, the fixed grid 3x3, and grids whose
    vertices the seed renumbers."""
    rng = np.random.default_rng([seed, 1])
    out = [graph_instance(name, fixture_graph(name), 3)
           for name in ("k4", "p5", "two_k4")]
    out.append(graph_instance("grid3x3", grid_graph(3, 3), 3))
    out.append(graph_instance("grid2x3/relabelled",
                              relabel_graph(grid_graph(2, 3), rng), 3))
    return out


# The 7-point reference similarity has fixed noise; no seed touches it.
_CLUSTER7 = two_cluster_similarity(7, np.random.default_rng(7))


def cluster_levels(seed: int) -> list[Instance]:
    """cluster:2 and cluster:3 on full-bipartition grounds with two-cluster
    similarities in tenths, plus the two CSV fixtures."""
    rng = np.random.default_rng([seed, 2])
    six = load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    answers = load_answers_csv((FIXTURES / "mindsets.csv").read_text())
    out = [questionnaire_instance("mindsets/cluster3", answers, 3)]
    for n in (2, 3):
        out.append(bipartition_instance(f"six_similarity/cluster{n}", 6, six,
                                        "cluster", n))
    for n in (2, 3):
        out.append(bipartition_instance(f"two-cluster7/cluster{n}", 7, _CLUSTER7,
                                        "cluster", n))
    sim6 = relabel_matrix(two_cluster_similarity(6, rng), rng)
    for n in (2, 3):
        out.append(bipartition_instance(f"two-cluster6/cluster{n}", 6, sim6,
                                        "cluster", n))
    return out


# Its 16 cut weights are distinct, so no order ties are left to the ids:
# renumbering the points moves ids but keeps the trees' shape and cost.
_PROFILE5 = integer_similarity(5, np.random.default_rng(12))


def profile_lattice(seed: int) -> list[Instance]:
    """strong-profile on full-bipartition universes of 5 points: the default
    |A||B| order, and a similarity with distinct cut weights whose points
    the seed renumbers."""
    rng = np.random.default_rng([seed, 3])
    return [bipartition_instance("universe5/size-order", 5, None,
                                 "strong-profile"),
            bipartition_instance("universe5/similarity/relabelled", 5,
                                 relabel_matrix(_PROFILE5, rng),
                                 "strong-profile")]


def small_sweep(seed: int) -> list[Instance]:
    """Most of the acceptance pool: random posets with explicit and empty
    families, every graph up to 4 vertices and two on 5 with blocks:1..3 and
    explicit families, small full and random bipartition grounds."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for kind, gen in (("relposet", random_relation_poset),
                      ("subposet", random_subset_poset)):
        for i in range(30):
            leq, orders = gen(rng, 2 + i % 4)
            system = tf.SeparationSystem(leq, orders)
            out.append(poset_instance(f"{kind}{i}/explicit", leq, orders,
                                      standard_explicit_members(system, rng)))
            if tf.is_standard(tf.make_empty(), system)[0]:
                out.append(poset_instance(f"{kind}{i}/empty", leq, orders))
    graphs = [(f"graph{n}-{gi}", g)
              for n in range(1, 5) for gi, g in enumerate(all_graphs(n))]
    graphs += [("cycle5", tf.Graph.from_edges(5, [(i, (i + 1) % 5)
                                                   for i in range(5)])),
               ("house5", tf.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3),
                                                  (3, 0), (2, 4), (3, 4)]))]
    for name, base in graphs:
        g = relabel_graph(base, rng)
        for k in (1, 2, 3):
            out.append(graph_instance(f"{name}/blocks{k}", g, k))
            system = tf.graph_system(g, k)
            if 0 < system.count <= 8:
                out.append(graph_instance(
                    f"{name}/explicit{k}", g, k, "explicit",
                    standard_explicit_members(system, rng)))
    for points in (2, 3, 4):
        universe = tf.bipartition_system(tf.full_bipartition_ground(points))
        for n in (1, 2):
            out.append(bipartition_instance(f"bip{points}/cluster{n}", points,
                                            None, "cluster", n))
        out.append(bipartition_instance(f"bip{points}/strong-profile", points,
                                        None, "strong-profile"))
        out.append(bipartition_instance(
            f"bip{points}/explicit", points, None, "explicit",
            standard_explicit_members(universe, rng)))
    for points in (5, 6):
        for trial in range(2):
            sides = set()
            while len(sides) < 12:
                mask = int(rng.integers(1, 2 ** points - 1))
                side = frozenset(v for v in range(points) if (mask >> v) & 1)
                sides.update((side, frozenset(range(points)) - side))
            out.append(sides_instance(f"bipr{points}-{trial}/cluster2", points,
                                      tuple(sorted(sides, key=sorted)),
                                      "cluster", 2))
    return out


WORKLOADS = {
    "blocks-grid": blocks_grid,
    "cluster-levels": cluster_levels,
    "profile-lattice": profile_lattice,
    "small-sweep": small_sweep,
}
