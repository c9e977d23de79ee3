"""Tree construction, contraction, necessity, reduction, and the pipeline.

Construction grows a single root by repeatedly splitting an unresolved leaf
on a cheapest separation its closure leaves open.  A leaf needs the labels
that keep its class; reduction folds these needs up the tree and contracts
an edge whose label no leaf behind it needs until every node is necessary,
in one pass over a working copy that carries the leaves' classes through
each contraction.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush

from .errors import (NodeCapExceeded, NonStandardFamily, NotAStructureTree,
                     NotOrdered)
from .families import ForbiddenFamily
from .system import (SeparationSystem, dump_json, fmt_oriented, ids_of,
                     mask_of, to_json_dict)
from .tree import (LeafClass, StructureTree, _restrict, _tangles, classify_all,
                   is_ordered, is_structure_tree, leaf_class)


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


def _reduce(tree, family, needs, forbidden=None):
    """Unchecked ``reduce``, with ``needs``, a leaf's needs by its label
    mask and whether they are fixed, and ``forbidden`` classes by mask,
    shared by ``pipeline``.

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
    system, forbidden = tree.system, {} if forbidden is None else forbidden
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
                forbidden.setdefault(m, LeafClass("forbidden",
                                                  found=(family, system, m)))
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


def _level_member(tree, family, ks, views, least, v, i, mask) -> bool:
    """Does ``mask``, the label mask or the clipped closure of ``v``, a
    leaf of level ``i`` (of the ascending thresholds ``ks``, over
    ``views``) and no forbidden node of the structure tree ``tree``, hold
    a member?  The label mask holds none.  A higher level's live mask holds
    a lower one's, so ``closure(v) & live`` grows with the level, and with
    it the member test, a set holding a member being in every superset.  So
    one bisection finds ``least[v]``, the first level with a member among
    those where ``v`` is a leaf: above its label's order (the most on its
    root path) up to its split's."""
    if mask == tree.beta(v):
        return False
    if v not in least:
        order, closure = tree.system.order, tree.closure(v)
        lo = 0 if v == tree.root else bisect_right(ks, order(tree.label(v) >> 1))
        hi = bisect_right(ks, order(tree.s_of(v))) if tree.children(v) else len(ks)
        least[v] = lo + bisect_left(range(lo, hi), True, key=lambda j: (
            family.holds_member(views[j], closure & views[j].live)))
    return least[v] <= i


def pipeline(system: SeparationSystem, family: ForbiddenFamily,
             thresholds=None) -> PipelineReport:
    """Build, reduce, and restrict to every order threshold.

    Restrictions are always taken from the unreduced tree (reduction can
    hide lower-order tangles) and reduced afterwards, each independently,
    over a view of the system (``restrict``): no level builds a system.
    Default thresholds are the distinct order values of the system.

    The full tree is checked once, a level by its leaves, and reductions
    share one ``needs``; README, "Library tour", says why that is exact.
    All trees share one forbidden ``LeafClass`` per label mask, so each
    mask's witness is built once.  A level leaf of a full structure tree
    is forbidden at every level or none: its labels are all live, and no
    inner node holds a member.  Any other is a tangle leaf exactly when its
    labels and clipped closure are consistent (co-triviality read in the
    view) and the closure orients every live separation and holds no
    member (``_level_member``).  That is a down-set of the levels where
    the node is a leaf: lower, the clipped closure is ANDed with a smaller
    live mask, so it meets no more away-unions or members and keeps its
    orientation of each live separation, and a view's ``_even``, which
    co-triviality reads, is smaller.
    """
    tree_full = build(system, family)
    full_ok = is_structure_tree(tree_full, family)
    needs, forbidden = {}, {}
    if full_ok:
        forbidden = {tree_full.beta(v): c for v, c in classify_all(
            tree_full, family).items() if c.kind == "forbidden"}
        tree_reduced, trace = _reduce(tree_full, family, needs, forbidden)
        tangle_list = _tangles(tree_reduced, family)
    else:
        tree_reduced, trace, tangle_list = tree_full, ReductionTrace(), []
    is_ordered(tree_full).require(NotOrdered)
    if thresholds is None:
        thresholds = sorted({float(system.order(s)) for s in system.seps()})
    ks = sorted(set(thresholds))
    views, at = [system.view_below(k) for k in ks], {k: i for i, k in enumerate(ks)}
    member, levels = partial(_level_member, tree_full, family, ks, views, {}), []
    for k in thresholds:
        tk = _restrict(tree_full, views[at[k]])
        if full_ok:  # then a level can fail is_structure_tree by its leaves only
            tk._classes[family] = {v: forbidden[tk.beta(v)] for v in tk.leaves()
                                   if tk.beta(v) in forbidden}
            ok = all(leaf_class(tk, v, family, partial(member, v, at[k])).kind !=
                     "unresolved" for v in tk.leaves())
        else:
            ok = is_structure_tree(tk, family)
        if ok:
            tkred, _ = _reduce(tk, family, needs, forbidden)
            tl = _tangles(tkred, family)
            ftree = not tl  # a structure tree with no tangle leaf
            certs = certificates_of(tkred, family)
        else:
            tkred, tl, ftree, certs = None, [], False, []
        levels.append(LevelReport(k, tk, tkred, tl, ftree, certs, bool(ok)))
    return PipelineReport(
        system, family, tree_full, tree_reduced, trace,
        tangle_list, certificates_of(tree_reduced, family), levels)


def _template(keys, nl: str) -> str:
    """The %-format of a JSON object at ``nl`` whose sorted keys are ``keys``."""
    return "{" + ",".join([nl + ' "' + k + '": %s' for k in keys]) + nl + "}"


def _list(items: list, nl: str) -> str:
    """``dump_json`` of a list at ``nl`` of ints, or of the entries' texts."""
    i = nl + " "
    return "[" + i + ("," + i).join(map(str, items)) + nl + "]" if items else "[]"


def _tree_text(tree: StructureTree, nl: str) -> str:
    """``dump_json(tree_nodes_to_json_dict(tree), nl)``, node rows by one %-format."""
    parent, label, local, root = tree._parent, tree._label, tree.system.local, tree.root
    rows = [_template(("edge_label", "id", "parent"), nl + "  ")] * len(parent)
    cells = [(local(label[v]), v, parent[v]) if v != root else ("null", v, "null")
             for v in sorted(parent)]
    return (_template(("format", "nodes", "root"), nl) % (
        '"tree/v1"', _list(rows, nl + " "), root)) % tuple([x for c in cells for x in c])


def _tangles_text(system: SeparationSystem, tangles, nl: str) -> str:
    cell, j = _template(("members", "minimal"), nl + " "), nl + "  "
    return _list([cell % (_list(e["members"], j), _list(e["minimal"], j))
                  for e in map(partial(tangle_entry, system), tangles)], nl)


def _certificates_text(system: SeparationSystem, certificates, nl: str,
                       memo: dict) -> str:
    """``memo`` holds the text of each witness's evidence and kind, by
    witness: in the family's ids, it is the same at every level.  ``local``
    is increasing, and the identity on a whole system."""
    cell, inner = _template(("leaf", "witness"), nl + " "), _template(
        ("evidence", "kind", "members"), nl + "  ")
    w, local, rows = nl + "   ", int if system.base is system else system.local, []
    for leaf, witness in certificates:
        if id(witness) not in memo:
            memo[id(witness)] = dump_json(witness.evidence, w), dump_json(witness.kind)
        rows.append(cell % (leaf, inner % (*memo[id(witness)], _list(
            sorted(map(local, witness.members)), w))))
    return _list(rows, nl)


def dump_report(report: PipelineReport) -> str:
    """Canonical JSON text for a pipeline run (format "report/v2"),
    ``json.dumps(d, sort_keys=True, indent=1)`` of the object ``d`` it
    parses to, written straight from the trees: the system once, and trees
    without ``system_ref``.  A level entry is written over
    ``system.restrict_below(k)``: its tree labels, tangles and witness
    members in that system's ids, which ``local`` gives for the view its
    level holds; a witness's evidence, in the family's ids, is rendered
    once and reused by every level that certifies with it."""
    nl, deep, evidence = "\n ", "\n   ", {}
    level = _template(("certificates", "f_tree", "k", "structure_ok", "tangles",
                       "tree"), "\n  ")
    per_k = [level % (
        _certificates_text(lv.tree.system, lv.certificates, deep, evidence),
        dump_json(lv.f_tree), dump_json(lv.k), dump_json(lv.structure_ok),
        _tangles_text(lv.tree.system, lv.tangles, deep),
        _tree_text(lv.reduced if lv.reduced is not None else lv.tree, deep))
        for lv in report.levels]
    return _template(("certificates", "family", "format", "per_k", "reduction_steps",
                      "system", "tangles", "tree_full", "tree_reduced"), "\n") % (
        _certificates_text(report.system, report.certificates, nl, {}),
        dump_json(report.family.to_json_dict(), nl), '"report/v2"',
        _list(per_k, nl), dump_json([list(s) for s in report.trace.steps], nl),
        dump_json(to_json_dict(report.system), nl),
        _tangles_text(report.system, report.tangles, nl),
        _tree_text(report.tree_full, nl), _tree_text(report.tree_reduced, nl))


def report_to_json_dict(report: PipelineReport) -> dict:
    """The object of a pipeline run's report/v2 text: its parse."""
    return json.loads(dump_report(report))
