"""Independent brute-force ground truth.

Plain depth-first enumeration over separation ids with early consistency
pruning, deliberately free of cleverness: every structural property in the
test suite is checked against these functions, so they must be obviously
correct.  Tangle enumeration additionally prunes branches as soon as the
partial choice already contains a forbidden member (sound, because avoidance
is inherited by subsets); a test cross-checks the pruned walk against
filtering the unpruned one on small inputs.  The certifier ``is_rich``
enumerates every consistent orientation, so it is the oracle's too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import BudgetExceeded, SystemIsAView
from .families import EmptyFamily
from .system import SeparationSystem, inverse, mask_of

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


def all_tangles(system: SeparationSystem, family,
                budget: OracleBudget | None = None):
    """Consistent orientations with no subset in the family."""
    b = _check_budget(system, budget)
    if family.forbidden_subset(system, 0) is not None:
        return []
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
            if family.extends_member(system, mask_of(chosen), o):
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
    for tau in all_consistent_orientations(system, budget):
        if family.forbidden_subset(system, mask_of(tau)) is None:
            continue
        survivors = [x for x in sorted(tau)
                     if is_strongly_efficient_in(system, [x], tau)]
        if family.forbidden_subset(system, mask_of(survivors)) is None:
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
