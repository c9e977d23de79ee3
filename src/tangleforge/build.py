"""Tree construction, contraction, necessity, reduction, and the pipeline.

Construction grows a single root by repeatedly splitting an unresolved leaf
on a cheapest separation its closure leaves open.  A leaf needs the labels
that keep its class; reduction folds these needs up the tree and contracts
an edge whose label no leaf behind it needs until every node is necessary,
in one pass over a working copy that carries the leaves' classes through
each contraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .errors import (NodeCapExceeded, NonStandardFamily, NotAStructureTree,
                     NotOrdered)
from .families import ForbiddenFamily
from .system import (SeparationSystem, dump_json, fmt_oriented, ids_of,
                     mask_of, to_json_dict)
from .tree import (LeafClass, StructureTree, _leaves_resolve, _restrict,
                   _tangles, classify_all, is_ordered, is_structure_tree,
                   leaf_class, tree_nodes_to_json_dict)


MAX_TREE_NODES = 1_000_000  # n separations allow 2^(n+1) - 1 nodes


def build(system: SeparationSystem, family: ForbiddenFamily) -> StructureTree:
    """Grow a thoroughly ordered structure tree displaying every tangle.

    Every unresolved leaf, least id first, is split on a separation of
    minimum order among those its closure does not orient, until each leaf
    either closes to a tangle or its labels contain a forbidden member.  The
    one tree grows in place and keeps the leaf classes found on the way.
    When a leaf can no longer resolve because of a co-trivial label the
    family does not forbid, that is the family's fault and an error; a
    merely non-rich family yields a tree that fails the structure-tree check
    instead.  More than ``MAX_TREE_NODES`` nodes raise ``NodeCapExceeded``.
    """
    tree = StructureTree.single_root(system)
    pending = deque([tree.root])  # ascending: new ids exceed all others
    while pending:
        v = pending.popleft()
        if leaf_class(tree, v, family).kind != "unresolved":
            continue
        s = system.cheapest_open(tree.closure(v))
        if s is None:
            blockers = [o for o in ids_of(tree.beta(v)) if system.is_cotrivial(o)]
            if blockers:
                raise NonStandardFamily(
                    f"leaf cannot resolve: co-trivial label "
                    f"{fmt_oriented(system.local(blockers[0]))} is not "
                    "forbidden by the family")
            continue  # family not rich enough; post-checks will flag the tree
        pending.extend(tree._split(v, s))
        if len(tree) > MAX_TREE_NODES:
            raise NodeCapExceeded(f"tree grew to {len(tree)} nodes, over the "
                                  f"limit of {MAX_TREE_NODES}")
    return tree


def _class_needs(system, family, cls, beta: int) -> int:
    """What a resolved leaf of class ``cls`` and label mask ``beta`` needs:
    a tangle leaf its minimal labels; a forbidden leaf its critical labels,
    those whose removal leaves no member, which the family gives in one
    call of ``critical_labels``."""
    if cls.kind == "tangle":
        return system.minimal_elements(beta)
    return family.critical_labels(system, beta)


@dataclass
class ReductionTrace:
    """The contractions a reduction applied, in order."""

    steps: list[tuple[int, int]] = field(default_factory=list)


def reduce(tree: StructureTree, family: ForbiddenFamily):
    """Contract until every node is necessary; returns (tree, trace).

    Each step contracts the deepest, least-id edge whose label no leaf
    behind it needs.  The reduction is one pass over a working copy of the
    tree (see ``_reduce``); the reduced tree comes with its leaves' classes.
    """
    is_structure_tree(tree, family).require(NotAStructureTree)
    return _reduce(tree, family, {})


def _reduce(tree, family, needs):
    """Unchecked ``reduce``, with ``needs``, a leaf's needs by its label
    mask and whether they are fixed, shared by ``pipeline``.

    Non-leaves are scanned deepest first, then least id (on a separation
    tree a node's depth is the size of its label mask), once the needs
    folded up from below each child are final; the first child ``w`` whose
    label x its fold lacks gives the contraction ``(v, w)``.  Contracting
    drops ``v``'s other subtrees, moves ``w`` into ``v``'s place, and below
    ``w``, short of settled nodes, clears x from the masks and scans the
    non-leaves again; no other fold changes, and ``v``'s ancestors are not
    scanned yet.  No leaf below ``w`` needs x, so a tangle leaf's closure
    still holds x, required by a label below it, a forbidden leaf still
    holds a member, and each keeps its class.

    Needs only grow: a critical label l of a forbidden leaf's mask M stays
    critical in M \\ {x}, as M \\ {x, l} lies in M \\ {l}; a tangle leaf's
    minimal labels stay so, and as some t in M lies below x, so below all
    above x, no label becomes minimal.  Some are fixed: a critical label
    lies in every member inside M, so if the critical set C of M holds a
    member, C is that of every later mask, which holds C; a tangle leaf's
    are always fixed.  A fixed leaf is settled, as is a scanned node whose
    children all are: its fold cannot change, so no walk enters it.
    """
    system = tree.system
    parent, children = dict(tree._parent), dict(tree._children)
    label = dict(tree._label)
    mask = {v: tree.beta(v) for v in parent}
    classes = {v: leaf_class(tree, v, family)
               for v, kids in children.items() if not kids}
    heap = [(-mask[v].bit_count(), v) for v, kids in children.items() if kids]
    heapify(heap)
    fold, settled, root, trace = {}, set(), tree.root, ReductionTrace()
    while heap:
        v = heappop(heap)[1]
        folded = 0
        for w in children[v]:
            if children[w]:
                below = fold[w]
            else:
                if mask[w] not in needs:
                    need = _class_needs(system, family, classes[w], mask[w])
                    needs[mask[w]] = need, classes[w].kind == "tangle" or \
                        family.holds_member(system, need)
                below, fixed = needs[mask[w]]
                if fixed:
                    settled.add(w)
            if not below >> label[w] & 1:
                break
            folded |= below
        else:
            fold[v] = folded
            if settled.issuperset(children[v]):
                settled.add(v)
            continue
        trace.steps.append((v, w))
        stack = [c for c in children[v] if c != w]
        while stack:
            u = stack.pop()
            stack.extend(children.pop(u))
            del parent[u], label[u]
        gp = parent[w] = parent.pop(v)
        del children[v]
        keep = ~(1 << label[w])
        label[w] = label.pop(v)
        if gp is None:
            root = w
        else:
            children[gp] = tuple(w if c == v else c for c in children[gp])
        stack = [w]
        while stack:
            u = stack.pop()
            if u not in settled:
                mask[u] &= keep
                if children[u]:
                    heappush(heap, (-mask[u].bit_count(), u))
                    stack.extend(children[u])
    if not trace.steps:
        return tree, trace
    reduced = StructureTree(system, root, parent, children, label)
    memo = reduced._classes[family] = {}
    stack = [(root, 0)]  # each node with its final mask, stale below settled
    while stack:
        u, m = stack.pop()
        stack.extend((c, m | 1 << label[c]) for c in children[u])
        if u in classes:
            memo[u] = classes[u] if classes[u].kind == "tangle" else \
                LeafClass("forbidden", found=(family, system, m))
    return reduced, trace


# -- the full pipeline -----------------------------------------------------


@dataclass
class LevelReport:
    """One order threshold: the restricted tree and what it displays, in
    the ids of the report's system (the tree's system is a view of it)."""

    k: float
    tree: StructureTree
    reduced: StructureTree | None
    tangles: list[frozenset]
    f_tree: bool
    certificates: list[tuple[int, object]]  # (leaf, Witness)
    structure_ok: bool


@dataclass
class PipelineReport:
    system: SeparationSystem
    family: ForbiddenFamily
    tree_full: StructureTree
    tree_reduced: StructureTree
    trace: ReductionTrace
    tangles: list[frozenset]
    certificates: list[tuple[int, object]]
    levels: list[LevelReport]


def certificates_of(tree, family):
    return [(leaf, cls.witness)
            for leaf, cls in classify_all(tree, family).items()
            if cls.kind == "forbidden"]


def tangle_entry(system: SeparationSystem, tangle) -> dict:
    """Output form of a tangle: its members and its minimal elements, in
    the local ids of a view."""
    local = system.local
    return {"members": [local(o) for o in sorted(tangle)],
            "minimal": [local(o) for o in
                        ids_of(system.minimal_elements(mask_of(tangle)))]}


def certificate_entry(system: SeparationSystem, leaf: int, witness) -> dict:
    """Output form of a forbidden leaf and the member it contains, its
    members in the local ids of a view."""
    out = witness.to_json_dict()
    out["members"] = [system.local(o) for o in out["members"]]
    return {"leaf": leaf, "witness": out}


def pipeline(system: SeparationSystem, family: ForbiddenFamily,
             thresholds=None) -> PipelineReport:
    """Build, reduce, and restrict to every order threshold.

    Restrictions are always taken from the unreduced tree (reduction can
    hide lower-order tangles) and reduced afterwards, each independently,
    over a view of the system (``restrict``): no level builds a system.
    Default thresholds are the distinct order values of the system.

    The full tree is checked once, a level by its leaves, and reductions
    share one ``needs``; README, "Library tour", says why that is exact.
    """
    tree_full = build(system, family)
    full_ok = is_structure_tree(tree_full, family)
    needs = {}
    if full_ok:
        tree_reduced, trace = _reduce(tree_full, family, needs)
        tangle_list = _tangles(tree_reduced, family)
    else:
        tree_reduced, trace, tangle_list = tree_full, ReductionTrace(), []
    is_ordered(tree_full).require(NotOrdered)
    if thresholds is None:
        thresholds = sorted({float(system.order(s)) for s in system.seps()})
    levels = []
    for k in thresholds:
        tk = _restrict(tree_full, k)
        ok = (_leaves_resolve if full_ok else is_structure_tree)(tk, family)
        if ok:
            tkred, _ = _reduce(tk, family, needs)
            tl = _tangles(tkred, family)
            ftree = not tl  # a structure tree with no tangle leaf
            certs = certificates_of(tkred, family)
        else:
            tkred, tl, ftree, certs = None, [], False, []
        levels.append(LevelReport(k, tk, tkred, tl, ftree, certs, bool(ok)))
    return PipelineReport(
        system, family, tree_full, tree_reduced, trace,
        tangle_list, certificates_of(tree_reduced, family), levels)


def report_to_json_dict(report: PipelineReport) -> dict:
    """Canonical JSON for a pipeline run (format "report/v2"): the system
    once, and trees without ``system_ref``.  A level entry is written over
    ``system.restrict_below(k)``: its tree labels, tangles and witness
    members in that system's ids, which ``local`` gives for the view its
    level holds (witness evidence stays in the family's ids)."""
    def level_entry(lv: LevelReport):
        level = lv.tree.system
        return {
            "k": lv.k,
            "tree": tree_nodes_to_json_dict(lv.reduced if lv.reduced is not None
                                            else lv.tree),
            "structure_ok": lv.structure_ok,
            "tangles": [tangle_entry(level, t) for t in lv.tangles],
            "f_tree": lv.f_tree,
            "certificates": [certificate_entry(level, *c)
                             for c in lv.certificates],
        }

    return {
        "format": "report/v2",
        "system": to_json_dict(report.system),
        "family": report.family.to_json_dict(),
        "tree_full": tree_nodes_to_json_dict(report.tree_full),
        "tree_reduced": tree_nodes_to_json_dict(report.tree_reduced),
        "reduction_steps": [list(s) for s in report.trace.steps],
        "tangles": [tangle_entry(report.system, t) for t in report.tangles],
        "certificates": [certificate_entry(report.system, *c)
                         for c in report.certificates],
        "per_k": [level_entry(lv) for lv in report.levels],
    }


def dump_report(report: PipelineReport) -> str:
    return dump_json(report_to_json_dict(report))
