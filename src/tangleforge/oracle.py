"""Independent brute-force ground truth.

Plain depth-first enumeration over separation ids, deliberately free of
cleverness: the tests check every structural result against it, so it must
be obviously correct.  Tangle enumeration prunes a branch once its partial
choice holds a forbidden member (sound: avoidance is inherited by subsets),
which a test cross-checks against filtering the unpruned walk.  ``is_rich``
enumerates every consistent orientation, so it is the oracle's too.
``tree_faults`` reads the paper's tree properties off their definitions,
and ``replay`` redoes a reduction's contractions, both on plain maps.

A family is asked nothing but ``is_member``, its definition, so that the
oracle shares no search with the tree it checks.  That rests on the arity
contract: no member has more than ``arity`` ids, and a family of unbounded
arity (``blocks``) is closed under supersets, so the whole set decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .errors import BudgetExceeded, GroundMismatch, SystemIsAView
from .families import EmptyFamily
from .system import SeparationSystem, inverse

DEFAULT_MAX_SEPARATIONS = 16
DEFAULT_MAX_VISITS = 2_000_000


@dataclass(frozen=True)
class OracleBudget:
    """Enumeration refuses inputs over budget instead of hanging."""

    max_separations: int = DEFAULT_MAX_SEPARATIONS
    max_visits: int = DEFAULT_MAX_VISITS


def _check_budget(system, budget):
    if system.base is not system:
        raise SystemIsAView("the oracle takes a whole system, such as a "
                            "view's restrict_below, not the view")
    b = budget or OracleBudget()
    if system.count > b.max_separations:
        raise BudgetExceeded(
            f"{system.count} separations exceed the oracle budget of "
            f"{b.max_separations}; raise OracleBudget.max_separations")
    return b


def all_consistent_orientations(system: SeparationSystem,
                                budget: OracleBudget | None = None):
    """Every full orientation passing the consistency check, in lexicographic
    order of chosen oriented ids."""
    return all_tangles(system, EmptyFamily(), budget)


def _has_member(family, up, fixed, rest) -> bool:
    """Is ``fixed`` plus some subset of ``rest`` a member of the family?
    ``up`` maps the ids of both into the family's."""
    fixed = [up[x] for x in fixed]
    rest = [up[x] for x in rest]
    if family.arity is None:
        return family.is_member(fixed + rest)
    return any(family.is_member(fixed + list(sub))
               for r in range(family.arity - len(fixed) + 1)
               for sub in combinations(rest, r))


def _into_family(system: SeparationSystem, family):
    """The map of ``system``'s oriented ids into the family's."""
    if family.system is None:
        return range(system.n_oriented)
    return system.oriented_into(family.system)


def all_tangles(system: SeparationSystem, family,
                budget: OracleBudget | None = None):
    """Consistent orientations with no subset in the family."""
    b = _check_budget(system, budget)
    if family.is_member([]):
        return []
    up = _into_family(system, family)
    out = []
    chosen: list[int] = []
    visits = 0

    def rec(s):
        nonlocal visits
        visits += 1
        if visits > b.max_visits:
            raise BudgetExceeded(f"enumeration visited more than {b.max_visits} nodes")
        if s == system.count:
            out.append(frozenset(chosen))
            return
        for o in system.orientations_of(s):
            if any(system.leq[o, inverse(c)] for c in chosen):
                continue
            # the chosen ids hold no member, so a new one holds o
            if _has_member(family, up, [o], chosen):
                continue
            chosen.append(o)
            rec(s + 1)
            chosen.pop()

    rec(0)
    return out


def minimal_elements(system: SeparationSystem, tau) -> frozenset[int]:
    """Elements of the set with nothing of the set strictly below them."""
    ms = sorted(tau)
    return frozenset(x for x in ms
                     if not any(system.lt(y, x) for y in ms if y != x))


def is_efficient_in(system: SeparationSystem, sigma, tau) -> bool:
    """No element of sigma is eclipsed by an element of tau: one strictly
    below it of lower order."""
    leq, order = system.leq, system.orders
    return not any(leq[y, x] and not leq[x, y] and order[y >> 1] < order[x >> 1]
                   for x in sigma for y in tau)


def is_strongly_efficient_in(system: SeparationSystem, sigma, tau) -> bool:
    """As efficiency, but eclipsing already at equal order."""
    leq, order = system.leq, system.orders
    return not any(leq[y, x] and not leq[x, y] and order[y >> 1] <= order[x >> 1]
                   for x in sigma for y in tau)


def is_rich(family, system: SeparationSystem,
            budget: OracleBudget | None = None):
    """Forbidden-containing consistent orientations must contain strongly
    efficient forbidden subsets: (ok, the orientations that do not)."""
    bad = []
    up = _into_family(system, family)
    for tau in all_consistent_orientations(system, budget):
        if not _has_member(family, up, [], tau):
            continue
        survivors = [x for x in sorted(tau)
                     if is_strongly_efficient_in(system, [x], tau)]
        if not _has_member(family, up, [], survivors):
            bad.append(tau)
    return (not bad, bad)


# -- tree properties, read off their definitions ---------------------------------

TREE_PROPERTIES = ("separation tree", "consistent", "ordered",
                   "thoroughly ordered", "efficient", "structure tree")


def replay(parent, label, steps):
    """The ``parent`` and ``label`` maps after the contractions ``steps``:
    for each (v, w), v's other subtrees go and w takes v's place and label."""
    parent, label = dict(parent), dict(label)
    for v, w in steps:
        if v not in parent or parent.get(w) != v:
            raise ValueError(f"{w} is not a child of {v}")
        gone = {v}
        while more := {u for u, p in parent.items() if p in gone} - gone - {w}:
            gone |= more
        parent[w], label[w] = parent[v], label[v]
        for u in gone:
            del parent[u], label[u]
    return parent, label


def tree_faults(system: SeparationSystem, family, parent, label) -> dict:
    """Per property in ``TREE_PROPERTIES``, the first failure of the tree of
    the maps ``parent`` (None at the root) and ``label``, or None.

    Read off the definitions, from ``leq``, the orders and ``is_member`` in
    the system's ids.  A node's labels lie on its root path; their closure
    adds each element strictly above one, of another separation.  Inner
    nodes split one separation new to their path, on distinct orientations,
    of least order among those the closure leaves open (thoroughly
    ordered), or at least of their parent's (ordered).  A structure tree is
    a consistent separation tree whose inner label sets hold no member and
    whose leaves' do, or close to an orientation of every separation that
    is consistent and holds none.
    """
    if family.system not in (None, system):
        raise GroundMismatch("the family answers in another system's ids")
    n, leq, order = system.n_oriented, system.leq, system.orders
    if any(p is not None and not 0 <= label[v] < n for v, p in parent.items()):
        return dict.fromkeys(TREE_PROPERTIES, "a label is no oriented id")
    kids = {v: sorted(c for c in parent if parent[c] == v) for v in parent}
    faults = {}
    fail = faults.setdefault  # keeps the first failure of each property

    def path(v):
        return [] if parent[v] is None else path(parent[v]) + [label[v]]

    @cache
    def above(x):
        return {y for y in range(n) if x >> 1 != y >> 1 and leq[x, y]
                and not leq[y, x]}

    def away(x, y):
        return x >> 1 != y >> 1 and (leq[x, y ^ 1] or leq[y, x ^ 1])

    def member(ids):
        return _has_member(family, range(n), [], sorted(ids))

    for v in sorted(parent):
        ids = path(v)
        c = set(ids).union(*map(above, ids))
        if any(away(ids[-1], y) for y in ids[:-1]):
            fail("consistent", f"labels on the path to {v} point away")
        if not kids[v]:
            for x in [x for x in ids if not is_efficient_in(system, [x], c)]:
                fail("efficient", f"label {x} at leaf {v} is eclipsed")
            # a consistent closure of a path of a separation tree holds
            # both orientations of a separation only where they coincide
            if not member(ids) and (member(c) or any(
                    away(x, y) for x in c for y in c)
                    or len({o >> 1 for o in c}) < system.count):
                fail("structure tree", f"leaf {v} is not resolved")
            continue
        split = [label[k] for k in kids[v]]
        s = split[0] >> 1
        if {o >> 1 for o in split} != {s} or len(set(split)) < len(split) \
                or len(split) > 1 and leq[2 * s, 2 * s + 1] and \
                leq[2 * s + 1, 2 * s] or s in {o >> 1 for o in ids}:
            fail("separation tree", f"node {v} splits no new separation")
        # the edge into v carries the separation its parent splits
        if ids and order[ids[-1] >> 1] > order[s]:
            fail("ordered", f"order drops from node {parent[v]} to {v}")
        if {2 * s, 2 * s + 1} & c or any(order[t] < order[s] for t in range(
                system.count) if not {2 * t, 2 * t + 1} & c):
            fail("thoroughly ordered", f"node {v} splits no cheapest open separation")
        if member(ids):
            fail("structure tree", f"inner node {v} has a forbidden label set")
    faults["structure tree"] = faults.get("separation tree") or \
        faults.get("consistent") or faults.get("structure tree")
    return {name: faults.get(name) for name in TREE_PROPERTIES}


# -- graph-side ground truth -----------------------------------------------


def vertex_separations_below(graph, k):
    """All unoriented (A, B) pairs of order below k, as frozenset pairs.

    Tries every assignment of each vertex to A only, to both sides or to B
    only, and keeps those with no edge between the two strict parts; the
    degenerate (V, V) is left out.
    """
    out = set()
    for assignment in product("ASB", repeat=graph.n):
        A = frozenset(v for v, side in enumerate(assignment) if side != "B")
        B = frozenset(v for v, side in enumerate(assignment) if side != "A")
        if A == B or len(A & B) >= k:
            continue
        if any(graph.has_edge(u, v) for u in A - B for v in B - A):
            continue
        out.add(frozenset((A, B)))
    return sorted((tuple(sorted(pair, key=sorted)) for pair in out),
                  key=lambda pair: [sorted(side) for side in pair])


def separable_pairs(graph, k) -> set[tuple[int, int]]:
    """Vertex pairs split to opposite strict sides by a separation of order
    below k."""
    out = set()
    for A, B in vertex_separations_below(graph, k):
        for u in A - B:
            for v in B - A:
                out.add((min(u, v), max(u, v)))
    return out


def all_kblocks(graph, k) -> list[frozenset[int]]:
    """Maximal sets of at least k vertices pairwise inseparable below order k.

    Exhaustive over vertex subsets; the reference point for the block-family
    correspondence tests.
    """
    sep = separable_pairs(graph, k)
    verts = list(graph.vertices())

    def inseparable(group):
        return all((min(u, v), max(u, v)) not in sep
                   for u, v in combinations(group, 2))

    candidates = [frozenset(c)
                  for r in range(k, graph.n + 1)
                  for c in combinations(verts, r)
                  if inseparable(c)]
    return sorted((c for c in candidates
                   if not any(c < d for d in candidates)),
                  key=sorted)
