"""Output checks made apart from the tree machinery.

Expected tangles come from the brute-force `tangleforge.oracle` on each
level's system.  k-blocks come from networkx: two vertices are inseparable
below order k when they are adjacent or k internally disjoint paths join
them (Menger), and the k-blocks are the maximal cliques of at least k
vertices of that inseparability graph.  `oracle.all_kblocks` derives its
separations from the production generator, so it cannot serve here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import tangleforge as tf
from tangleforge import oracle
from tangleforge.build import dump_report

BUDGET = oracle.OracleBudget(max_separations=10**6, max_visits=10**8)


@dataclass
class Expected:
    """Oracle answers for one instance, made once per run before timing."""

    system: object
    family: object
    tangles: dict[float, list[list[int]]]  # threshold -> sorted tangles
    certify_ks: list[float]  # one threshold with a tangle, one without
    profiles: dict[float, set[frozenset]] = field(default_factory=dict)


def _sorted_tangles(found) -> list[list[int]]:
    return sorted(sorted(t) for t in found)


def expect(instance) -> Expected:
    system, family = instance.make()
    ks = sorted({float(system.order(s)) for s in system.seps()}) + [math.inf]
    tangles = {k: _sorted_tangles(oracle.all_tangles(system.restrict_below(k),
                                                     family, BUDGET))
               for k in ks}
    with_tangle = [k for k in ks if tangles[k]]
    without = [k for k in ks if not tangles[k]]
    certify_ks = sorted(max(group) for group in (with_tangle, without) if group)
    exp = Expected(system, family, tangles, certify_ks)
    if family.kind == "strong_profile":
        profile = tf.make_profile(system)
        exp.profiles = {k: set(map(frozenset, oracle.all_tangles(
            system.restrict_below(k), profile, BUDGET))) for k in ks}
    return exp


def check_build(exp: Expected, report, text: str) -> list[str]:
    """Level tangles equal the oracle's, a level is an f-tree exactly when
    it has no tangle, strong-profile tangles are profiles, and a second dump
    of the report is byte-identical."""
    errors = []
    if dump_report(report) + "\n" != text:
        errors.append("two dumps of one report differ")
    d = json.loads(text)
    levels = [(math.inf, d["tangles"], None)] + \
        [(lv["k"], lv["tangles"], lv) for lv in d["per_k"]]
    for k, entries, lv in levels:
        got = _sorted_tangles(e["members"] for e in entries)
        if got != exp.tangles[k]:
            errors.append(f"k={k}: tangles {got} != oracle {exp.tangles[k]}")
        if lv is not None and lv["f_tree"] != (not exp.tangles[k]):
            errors.append(f"k={k}: f_tree={lv['f_tree']} but oracle has "
                          f"{len(exp.tangles[k])} tangles")
        errors += _check_profiles(exp, k, got)
    return errors


def check_tangles(exp: Expected, text: str) -> list[str]:
    got = _sorted_tangles(e["members"] for e in json.loads(text))
    if got != exp.tangles[math.inf]:
        return [f"tangles {got} != oracle {exp.tangles[math.inf]}"]
    return _check_profiles(exp, math.inf, got)


def _check_profiles(exp: Expected, k, got) -> list[str]:
    if exp.family.kind != "strong_profile":
        return []
    stray = [t for t in got if frozenset(t) not in exp.profiles[k]]
    return [f"k={k}: strong-profile tangles {stray} are not profiles"] if stray else []


def check_certify(exp: Expected, k: float, code: int, text: str) -> list[str]:
    """Exit 0 with the oracle's tangles, or exit 1 with a tree whose every
    leaf carries a witness that lies on its path and is a family member."""
    want = exp.tangles[k]
    if code != (0 if want else 1):
        return [f"k={k}: exit {code} but oracle has {len(want)} tangles"]
    d = json.loads(text)
    if code == 0:
        got = _sorted_tangles(e["members"] for e in d["tangles"])
        return [] if got == want else [f"k={k}: tangles {got} != oracle {want}"]
    nodes = {n["id"]: n for n in d["certificate_tree"]["nodes"]}
    inner = {n["parent"] for n in nodes.values()}
    leaves = set(nodes) - inner
    witnesses = {c["leaf"]: c["witness"]["members"] for c in d["certificates"]}
    if set(witnesses) != leaves:
        return [f"k={k}: certificates cover {sorted(witnesses)}, "
                f"leaves are {sorted(leaves)}"]
    level = exp.system.restrict_below(k)
    fam = exp.family
    up = level.oriented_into(fam.system) if fam.system is not None else None
    errors = []
    for leaf, members in witnesses.items():
        path, v = set(), leaf
        while nodes[v]["parent"] is not None:
            path.add(nodes[v]["edge_label"])
            v = nodes[v]["parent"]
        bound = members if up is None else [up[o] for o in members]
        if not set(members) <= path or not fam.is_member(frozenset(bound)):
            errors.append(f"k={k}: witness {members} at leaf {leaf} is invalid")
    return errors


# -- k-blocks and the certify exit codes -------------------------------------------


def networkx_kblocks(graph: tf.Graph, k: int) -> list[frozenset]:
    import networkx as nx
    from networkx.algorithms.connectivity import local_node_connectivity

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    inseparable = nx.Graph()
    inseparable.add_nodes_from(g)
    for u, v in combinations(range(graph.n), 2):
        if g.has_edge(u, v) or local_node_connectivity(g, u, v) >= k:
            inseparable.add_edge(u, v)
    return sorted((frozenset(c) for c in nx.find_cliques(inseparable)
                   if len(c) >= k), key=sorted)


def check_blocks(instance, exp: Expected, tangles_text: str) -> list[str]:
    """The blocks of the displayed tangles are the networkx k-blocks."""
    found = [frozenset(e["members"]) for e in json.loads(tangles_text)]
    got = sorted((tf.block_of_tangle(exp.system, t) for t in found), key=sorted)
    want = networkx_kblocks(instance.graph, instance.blocks_k)
    if got != want:
        return [f"blocks {[sorted(b) for b in got]} != networkx "
                f"{[sorted(b) for b in want]}"]
    return []


def check_cli_certify(fixtures: Path, workdir: Path) -> list[str]:
    """`tangleforge certify` exits 1 exactly when a fixture graph has no
    3-block."""
    from tangleforge.cli import main

    errors = []
    for name in ("k4", "p5", "two_k4"):
        path = fixtures / f"{name}.edges"
        graph = tf.Graph.from_edge_list(path.read_text())
        want = 0 if networkx_kblocks(graph, 3) else 1
        code = main(["certify", "--graph", str(path), "--family", "blocks:3",
                     "--out", str(workdir / f"certify-{name}.json")])
        if code != want:
            errors.append(f"certify {name}: exit {code}, networkx says {want}")
    return errors
