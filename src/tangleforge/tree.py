"""Rooted trees with oriented-separation edge labels.

Construction grows a tree in place, before anyone else holds it; after that
a tree is not changed.  Each node keeps the label mask of its root path, and
each leaf its class per family.  The checks that the pipeline and the CLI
rely on (separation tree, consistent, ordered, structure tree, all leaves
forbidden) live here, together with restriction to a lower order threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import (LeafHasNoSep, MalformedTree, NotAStructureTree,
                     NotOrdered, ValidationError)
from .families import ForbiddenFamily, Witness
from .system import (dump_json, expect_int, expect_object, fmt_oriented,
                     from_json_dict, ids_of, mask_of, parse_json, sep_of,
                     to_json_dict)


class Check(NamedTuple):
    """Predicate result carrying the first violation found."""

    ok: bool
    why: str | None = None

    def __bool__(self):
        return self.ok

    def require(self, error):
        if not self.ok:
            raise error(self.why)


@dataclass(frozen=True, eq=False)
class LeafClass:
    """Classification of a leaf: tangle, forbidden, or neither yet.  A
    forbidden leaf's witness is found on first read."""

    kind: str  # "tangle" | "forbidden" | "unresolved"
    tangle: frozenset | None = None
    found: tuple | None = field(default=None, repr=False)  # family, system, mask

    @cached_property
    def witness(self) -> Witness | None:
        return self.found and self.found[0].forbidden_subset(*self.found[1:])

    def __eq__(self, other):
        if not isinstance(other, LeafClass):
            return NotImplemented
        return (self.kind, self.tangle, self.witness) == \
            (other.kind, other.tangle, other.witness)


class StructureTree:
    """Rooted tree, immutable once built; every non-root node stores its
    incoming label.  A node's values (see ``_node``) derive from its
    parent's on first read, so a copy pays nothing for them until asked."""

    __slots__ = ("system", "root", "_parent", "_children", "_label", "_state",
                 "_classes", "_next")

    def __init__(self, system, root, parent, children, label):
        self.system = system
        self.root = root
        self._parent = dict(parent)
        self._children = {v: tuple(c) for v, c in children.items()}
        self._label = dict(label)
        self._state = {root: (0, 0, 0, False)}
        self._classes: dict = {}  # family -> {leaf: LeafClass}
        self._next = max(self._parent) + 1  # the id the next split starts at

    @classmethod
    def single_root(cls, system) -> "StructureTree":
        return cls(system, 0, {0: None}, {0: ()}, {0: None})

    # -- structure accessors -------------------------------------------------

    def nodes(self) -> list[int]:
        return sorted(self._parent)

    def __len__(self):
        return len(self._parent)

    def parent(self, v):
        return self._parent[v]

    def children(self, v):
        return self._children[v]

    def label(self, v):
        """Label of the edge from the parent into v (None at the root)."""
        return self._label[v]

    def is_leaf(self, v) -> bool:
        return not self._children[v]

    def leaves(self) -> list[int]:
        return [v for v in self.nodes() if self.is_leaf(v)]

    def non_leaves(self) -> list[int]:
        return [v for v in self.nodes() if not self.is_leaf(v)]

    def _node(self, v) -> tuple[int, int, int, bool]:
        """v's label mask, closure mask, away-union and co-trivial flag,
        each its parent's plus one label, derived down on first read; the
        closure is clipped to the system's live ids."""
        state, path = self._state, []
        while v not in state:
            path.append(v)
            v = self._parent[v]
        node, system = state[v], self.system
        for u in reversed(path):
            beta, closure, away, cotrivial = node
            o = self._label[u]
            node = state[u] = (beta | 1 << o,
                               (closure | system._requires[o]) & system.live,
                               away | system._away[o],
                               cotrivial or system.is_cotrivial(o))
        return node

    def beta(self, v) -> int:
        """Mask of the edge labels on the path from the root to v."""
        return (self._state.get(v) or self._node(v))[0]

    def closure(self, v) -> int:
        """Mask of the closure of v's labels."""
        return self._node(v)[1]

    def consistency(self, v) -> tuple[bool, bool]:
        """Are v's labels, and is their closure, consistent?  (README,
        "Node values", says why the away-union decides both.)"""
        beta, closure, away, cotrivial = self._node(v)
        return not away & beta, not (away & closure or cotrivial)

    def s_of(self, v) -> int:
        """The separation split at a non-leaf."""
        cs = self._children[v]
        if not cs:
            raise LeafHasNoSep(f"node {v} is a leaf")
        return sep_of(self._label[cs[0]])

    # -- structural edits (persistent) ----------------------------------------

    def _split(self, v, s) -> tuple[int, ...]:
        """Attach children labelled with the orientations of s, forward
        first, to the leaf v; in place, for a tree no one else holds yet.

        The other leaves' classes stay valid, since a class depends only on
        the label set; v's is dropped, for v is a leaf no more."""
        if self._children[v]:
            raise MalformedTree(f"node {v} is not a leaf")
        for memo in self._classes.values():
            memo.pop(v, None)
        orients = self.system.orientations_of(s)
        kids = tuple(range(self._next, self._next + len(orients)))
        self._next += len(orients)
        self._children[v] = kids
        for c, o in zip(kids, orients):
            self._parent[c] = v
            self._children[c] = ()
            self._label[c] = o
        return kids


# -- derived data -----------------------------------------------------------


def classify_leaf(tree, leaf, family: ForbiddenFamily) -> LeafClass:
    """Tangle leaf, forbidden leaf, or unresolved.

    A tangle leaf closes to a consistent full orientation avoiding the family;
    a forbidden leaf's own label set contains a member.  Returning a third
    state instead of raising lets construction use this as its loop test.
    """
    system = tree.system
    closure = tree.closure(leaf)
    if all(tree.consistency(leaf)) and system.orients_all(closure) and \
            not family.holds_member(system, closure):
        return LeafClass("tangle", tangle=frozenset(ids_of(closure)))
    beta = tree.beta(leaf)
    if family.holds_member(system, beta):
        return LeafClass("forbidden", found=(family, system, beta))
    return LeafClass("unresolved")


def leaf_class(tree, leaf, family) -> LeafClass:
    """The leaf's class, classified once per tree and family: a class
    depends only on the leaf's label set, so it is kept on the tree."""
    memo = tree._classes.setdefault(family, {})
    if leaf not in memo:
        memo[leaf] = classify_leaf(tree, leaf, family)
    return memo[leaf]


def classify_all(tree, family) -> dict[int, LeafClass]:
    return {leaf: leaf_class(tree, leaf, family) for leaf in tree.leaves()}


def tangles(tree, family) -> list[frozenset[int]]:
    """Closures of the tangle leaves; the complete tangle list of the system."""
    is_structure_tree(tree, family).require(NotAStructureTree)
    return _tangles(tree, family)


def _tangles(tree, family) -> list[frozenset[int]]:
    """``tangles`` of a tree known to be a structure tree."""
    out = {tuple(sorted(cls.tangle)): cls.tangle
           for cls in classify_all(tree, family).values()
           if cls.kind == "tangle"}
    return [out[k] for k in sorted(out)]


# -- the predicate ladder -----------------------------------------------------


def is_separation_tree(tree) -> Check:
    """Each split's separation is new to its root path, so none repeats."""
    system = tree.system
    for v in tree.nodes():
        for c in tree.children(v):
            o = tree.label(c)
            if not (0 <= o < system.n_oriented):
                return Check(False, f"edge into {c} labelled with unknown id {o}")
        if tree.is_leaf(v):
            continue
        labels = [tree.label(c) for c in tree.children(v)]
        seps = {sep_of(o) for o in labels}
        if len(seps) != 1:
            return Check(False, f"node {v} splits more than one separation")
        if len(labels) != len({system.canon(o) for o in labels}):
            return Check(False, f"node {v} repeats an orientation on its edges")
        s = seps.pop()
        if tree.beta(v) >> 2 * s & 3:
            return Check(False, f"separation {s} split at {v} and above it")
    return Check(True)


def is_consistent_tree(tree) -> Check:
    """No two labels on a root path point away from each other."""
    for v in tree.nodes():
        if not tree.consistency(v)[0]:
            x, y = tree.system.inconsistent_pair(tree.beta(v))
            return Check(False, f"labels {fmt_oriented(x)}, {fmt_oriented(y)} "
                                f"on the path to {v} point away from each other")
    return Check(True)


def is_ordered(tree) -> Check:
    """Orders rise from each inner node's parent to it, so along every path."""
    order = tree.system.order
    for v in tree.non_leaves():
        u = tree.parent(v)
        if u is not None and order(tree.s_of(u)) > order(tree.s_of(v)):
            return Check(False, f"order drops from node {u} to its child {v}")
    return Check(True)


def is_structure_tree(tree, family) -> Check:
    for check in (is_separation_tree, is_consistent_tree):
        if not (found := check(tree)):
            return found
    for v in tree.non_leaves():
        if family.holds_member(tree.system, tree.beta(v)):
            return Check(False, f"inner node {v} has a forbidden label set")
    return _leaves_resolve(tree, family)


def _leaves_resolve(tree, family) -> Check:
    """Every leaf resolves: the one part of ``is_structure_tree`` that a
    restriction of a structure tree can fail."""
    for leaf in tree.leaves():
        if leaf_class(tree, leaf, family).kind == "unresolved":
            return Check(False, f"leaf {leaf} is neither a tangle leaf nor forbidden")
    return Check(True)


def is_f_tree(tree, family) -> Check:
    """A structure tree certifying non-existence: every leaf forbidden."""
    base = is_structure_tree(tree, family)
    if not base:
        return base
    for leaf in tree.leaves():
        if leaf_class(tree, leaf, family).kind != "forbidden":
            return Check(False, f"leaf {leaf} is a tangle leaf")
    return Check(True)


# -- restriction -----------------------------------------------------------


def restrict(tree, k: float) -> StructureTree:
    """The subtree of edges below order k, over the system's
    ``view_below(k)``: node ids and labels are kept."""
    is_ordered(tree).require(NotOrdered)
    return _restrict(tree, k)


def _restrict(tree, k: float) -> StructureTree:
    """``restrict`` of a tree known to be ordered."""
    view = tree.system.view_below(k)
    parent, children, label = {}, {}, {}
    stack = [tree.root]
    while stack:
        v = stack.pop()
        parent[v], label[v] = tree.parent(v), tree.label(v)
        children[v] = tuple(c for c in tree.children(v)
                            if view.live >> tree.label(c) & 1)
        stack.extend(children[v])
    return StructureTree(view, tree.root, parent, children, label)


# -- JSON (format "tree/v1") and DOT export -------------------------------------


def tree_nodes_to_json_dict(tree) -> dict:
    """The tree/v1 object without ``system_ref``, as a report/v2 holds it;
    a tree over a view has its labels in the view's local ids."""
    local = tree.system.local
    return {"format": "tree/v1", "root": tree.root,
            "nodes": [{"id": v, "parent": tree.parent(v),
                       "edge_label": None if v == tree.root else local(tree.label(v))}
                      for v in tree.nodes()]}


def tree_to_json_dict(tree) -> dict:
    """The standalone tree/v1 object, its system inlined as ``system_ref``
    (for a tree over a view, the system the view stands for)."""
    return {**tree_nodes_to_json_dict(tree), "system_ref": to_json_dict(tree.system)}


def tree_from_json_dict(d, system=None) -> StructureTree:
    """Load a tree/v1 object over ``system``, by default its ``system_ref``
    (which a tree in a report/v2 lacks): node ids unique, every node
    reachable from the root, and every non-root label an oriented id."""
    if expect_object(d, "tree/v1 tree").get("format") != "tree/v1":
        raise ValidationError(f"unsupported tree format {d.get('format')!r}")
    parent, label = {}, {}
    try:
        ref = d["system_ref"] if system is None else None
        for nd in d["nodes"]:
            v = expect_int(nd["id"], "tree/v1 node id")
            if v in parent:
                raise ValidationError(f"tree/v1 node {v} appears twice")
            parent[v], label[v] = (
                None if nd[f] is None else expect_int(nd[f], f"node {v} {f}")
                for f in ("parent", "edge_label"))
        root = expect_int(d["root"], "tree/v1 root")
    except KeyError as exc:
        raise ValidationError(f"tree/v1 tree lacks the field {exc}") from None
    except TypeError as exc:
        raise ValidationError(f"tree/v1 node or root malformed: {exc}") from None
    if system is None:
        system = from_json_dict(expect_object(ref, "tree/v1 'system_ref'"))
    if root not in parent or parent[root] is not None:
        raise ValidationError("root must be a node without parent")
    if label[root] is not None:
        raise ValidationError(f"root {root} carries the edge label {label[root]}")
    children = {v: [] for v in parent}
    for v, p in parent.items():
        if v == root:
            continue
        if label[v] is None:
            raise ValidationError(f"node {v} has no edge label")
        if not 0 <= label[v] < system.n_oriented:
            raise ValidationError(
                f"node {v} has the edge label {label[v]}, not an oriented id "
                f"of the system (0..{system.n_oriented - 1})")
        if p is not None:
            if p not in children:
                raise ValidationError(f"node {v} has the unknown parent {p}")
            children[p].append(v)
    # each node has one parent and the root none, so the walk ends
    reached, stack = set(), [root]
    while stack:
        v = stack.pop()
        reached.add(v)
        stack.extend(children[v])
    if len(reached) < len(parent):
        v = min(set(parent) - reached)
        raise ValidationError(f"node {v} cannot be reached from root {root}")
    children = {v: tuple(sorted(cs)) for v, cs in children.items()}
    return StructureTree(system, root, parent, children, label)


def dump_tree(tree) -> str:
    return dump_json(tree_to_json_dict(tree))


def load_tree(text: str, system=None) -> StructureTree:
    return tree_from_json_dict(parse_json(text, "tree/v1 text"), system)


def to_dot(tree, family=None) -> str:
    """Graphviz form: split separations with orders on inner nodes, leaves
    coloured by classification and annotated with minimal tangle elements or
    witness members.  A tree over a view is written in the view's local
    ids, as its JSON is."""
    system, local = tree.system, tree.system.local

    def names(ids) -> str:
        return ",".join(fmt_oriented(local(o)) for o in ids)

    lines = ["digraph structure_tree {", '  node [fontname="Helvetica"];']
    classes = classify_all(tree, family) if family is not None else {}
    for v in tree.nodes():
        if not tree.is_leaf(v):
            s = tree.s_of(v)
            lines.append(f'  n{v} [shape=circle label="s{local(2 * s) >> 1}'
                         f'\\n|s|={system.order(s):g}"];')
            continue
        cls = classes.get(v)
        if cls is None:
            lines.append(f'  n{v} [shape=box label="leaf {v}"];')
        elif cls.kind == "tangle":
            mins = ids_of(system.minimal_elements(mask_of(cls.tangle)))
            lines.append(
                f'  n{v} [shape=box style=filled fillcolor=palegreen '
                f'label="tangle {{{names(mins)}}}"];')
        elif cls.kind == "forbidden":
            lines.append(
                f'  n{v} [shape=box style=filled fillcolor=lightcoral '
                f'label="forbidden {{{names(sorted(cls.witness.members))}}}"];')
        else:
            lines.append(
                f'  n{v} [shape=box style=filled fillcolor=lightgray '
                f'label="unresolved"];')
    for v in tree.nodes():
        for c in tree.children(v):
            lines.append(f'  n{v} -> n{c} [label="{fmt_oriented(local(tree.label(c)))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
