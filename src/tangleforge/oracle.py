"""Independent brute-force ground truth.

Plain depth-first enumeration over separation ids with early consistency
pruning, deliberately free of cleverness: every structural property in the
test suite is checked against these functions, so they must be obviously
correct.  Tangle enumeration additionally prunes branches as soon as the
partial choice already contains a forbidden member (sound, because avoidance
is inherited by subsets); a test cross-checks the pruned walk against
filtering the unpruned one on small inputs.  The certifier ``is_rich``
enumerates every consistent orientation, so it is the oracle's too.

A family is asked nothing but ``is_member``, its definition, so that the
oracle shares no search with the tree it checks.  That rests on the arity
contract: no member has more than ``arity`` ids, and a family of unbounded
arity (``blocks``) is closed under supersets, so the whole set decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import BudgetExceeded, SystemIsAView
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
    """No element of sigma is eclipsed (strict order drop) by another element
    of tau."""
    for x in sorted(sigma):
        for y in sorted(tau):
            if y != x and system.lt(y, x) and system.order_of(y) < system.order_of(x):
                return False
    return True


def is_strongly_efficient_in(system: SeparationSystem, sigma, tau) -> bool:
    """As efficiency, but eclipsing already at equal order."""
    for x in sorted(sigma):
        for y in sorted(tau):
            if y != x and system.lt(y, x) and system.order_of(y) <= system.order_of(x):
                return False
    return True


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
