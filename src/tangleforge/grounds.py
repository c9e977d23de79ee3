"""Concrete ground sets that realize separation systems.

Two kinds are provided: vertex separations of a finite graph, ordered by the
separator size, and bipartitions (or arbitrary complement-closed subset
families) of a finite point set, ordered by a similarity cut weight.  Each
generated system carries one realization, a side per oriented id, so that
forbidden families can look up the concrete sets behind every oriented id;
the system's order, lattice operations, validation and ``sepsys/v2`` form
are read off the same sides.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import (BudgetExceeded, DuplicateQuestionWarning,
                     MissingCapability, NotATangle, NotComplementClosed,
                     ValidationError)
from .system import (MAX_SEPARATIONS, SeparationSystem, _union_closed,
                     expect_object, ids_of, mask_of)

# A graph universe has up to (3^n + 1) / 2 separations; keep them on the desk.
MAX_UNIVERSE_VERTICES = 8
MAX_FULL_BIPARTITION_POINTS = 12
MAX_GROUND_POINTS = 1 << 16  # built or loaded; sides are point bitmasks


# -- graphs -------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple loopless undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValidationError(f"edge ({u}, {v}) out of range or unsorted")

    @classmethod
    def from_edges(cls, n, edges):
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @classmethod
    def from_edge_list(cls, text: str) -> "Graph":
        """Parse 'u v' lines (0-based); an optional single-integer line pins n."""
        edges = []
        n = 0
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) > 2:
                raise ValidationError(f"line {lineno}: expected 'u v', got {raw!r}")
            try:
                ends = [int(p) for p in parts]
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: vertices must be integers, got {raw!r}") from None
            if len(ends) == 1:
                n = max(n, ends[0])
                continue
            u, v = ends
            edges.append((u, v))
            n = max(n, u + 1, v + 1)
        if n > MAX_GROUND_POINTS:
            raise ValidationError(f"edge list of {n} vertices; graphs are "
                                  f"limited to {MAX_GROUND_POINTS}")
        return cls.from_edges(n, edges)

    def has_edge(self, u, v) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def vertices(self):
        return range(self.n)


@dataclass(frozen=True)
class SideRealization:
    """The ground of a graph or bipartition-style system: per oriented id,
    the side that grows along the order, a bitmask of ``size`` points.  A
    graph separation (A, B) has B as its side and A as its inverse's, and
    keeps its graph as ``graph``; a bipartition side's inverse is its
    complement, and ``graph`` is None."""

    size: int
    sides: tuple[int, ...]
    graph: Graph | None = None

    def side(self, o: int) -> frozenset:
        return frozenset(ids_of(self.sides[o]))

    def keys(self) -> tuple[list[int], int]:
        """Per oriented id a key, and their width in bits, whose subset
        order is the separations' order: a bipartition side itself, and
        for a graph separation (A, B) the pair (V - A, B), since (A, B) <=
        (C, D) iff A >= C and B <= D."""
        if self.graph is None:
            return list(self.sides), self.size
        full = (1 << self.size) - 1
        return [(full & ~self.sides[o ^ 1]) << self.size | b
                for o, b in enumerate(self.sides)], 2 * self.size

    @cached_property
    def order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``up`` and ``down``, the words of the keys' subset order, worked
        out once per ground.  The involution reverses it (b <= a iff a* <=
        b*, for sides without ``faults``), so ``down[a]`` is ``up[a*]`` with
        its bit pairs swapped."""
        up = _subset_order(*self.keys())
        even = ((1 << len(up)) - 1) // 3
        return up, tuple((w & even) << 1 | w >> 1 & even
                         for w in (up[a ^ 1] for a in range(len(up))))

    @cached_property
    def closed(self) -> bool:
        """Whether every union of two keys is again a key, decided once per
        ground: the constructor's lattice claim and ``validate`` share it."""
        return _union_closed(self.keys()[0], *self.order)

    def faults(self, orders):
        """A message per separation whose two sides are not inverse: a
        set's side and its complement, or a graph's (A, B) that covers V,
        has no edge between A - B and B - A, and meets in as many vertices
        as its order in ``orders`` says."""
        full, g = (1 << self.size) - 1, self.graph
        edges = sorted(g.edges) if g is not None else []
        for s in range(len(self.sides) // 2):
            b, a = self.sides[2 * s], self.sides[2 * s + 1]
            if g is None:
                if a != full & ~b:
                    yield (f"sets ground side {ids_of(b)} of separation {s} "
                           f"lacks its complement: the other side is {ids_of(a)}")
                continue
            a_only, b_only = a & ~b, b & ~a
            cut = next(([u, v] for u, v in edges if (
                a_only >> u & b_only >> v | b_only >> u & a_only >> v) & 1), None)
            fault = ("does not cover the vertices" if a | b != full else
                     f"has the edge {cut} across" if cut else
                     f"meets in {(a & b).bit_count()} vertices"
                     if (a & b).bit_count() != orders[s] else None)
            if fault:
                yield (f"graph ground side pair {[ids_of(a), ids_of(b)]} of "
                       f"separation {s} (order {orders[s]:g}) {fault}")

    def to_json_dict(self):
        """The sepsys/v2 ground: the side of every oriented id."""
        out = {"kind": "sets", "size": self.size} if self.graph is None else \
            {"kind": "graph", "n": self.size,
             "edges": sorted([list(e) for e in self.graph.edges])}
        out["sides"] = [ids_of(m) for m in self.sides]
        return out


def realization_of(system: SeparationSystem, what: str,
                   graph: bool = True) -> SideRealization:
    """The system's ground when it is a graph's, or with ``graph`` false a
    point set's; else ``what`` cannot run on the system."""
    ground = system.ground
    if ground is None or (ground.graph is None) == graph:
        raise MissingCapability(
            f"{what} needs a {'graph' if graph else 'subset'}-ground system")
    return ground


def realization_from_json(d: dict, orders) -> SideRealization:
    """The ground of a sepsys/v2 system with the given ``orders``: the side
    of every oriented id, each separation's two sides inverse
    (``SideRealization.faults``)."""
    kind = expect_object(d, "sepsys/v2 ground").get("kind")
    if kind not in ("graph", "sets"):
        raise ValidationError(f"unknown ground kind {kind!r}")
    field = "n" if kind == "graph" else "size"
    try:
        size = int(d[field])
        edges = list(d["edges"]) if kind == "graph" else []
        sides = list(d["sides"])
    except KeyError as exc:
        raise ValidationError(f"{kind} ground lacks the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{kind} ground is malformed: {exc}") from None
    if not 0 <= size <= MAX_GROUND_POINTS or len(sides) != 2 * len(orders):
        raise ValidationError(f"{kind} ground of size {size} (at most "
                              f"{MAX_GROUND_POINTS}) has {len(sides)} sides "
                              f"for {2 * len(orders)} oriented ids")
    if type(d[field]) is not int:  # after the bound, which names huge sizes
        raise ValidationError(
            f"{kind} ground '{field}' must be an integer, got {d[field]!r}")

    def points(value, what, length=None) -> list[int]:
        """``value`` when it lists points of the ground, ``length`` of them
        when given."""
        if not isinstance(value, list) or \
                any(type(p) is not int or not 0 <= p < size for p in value) or \
                length is not None and len(value) != length:
            raise ValidationError(
                f"{kind} ground {what} {value!r} must list "
                f"{f'{length} ' if length else ''}points of 0..{size - 1}")
        return value

    g = None if kind == "sets" else Graph.from_edges(
        size, [tuple(points(e, "edge", 2)) for e in edges])
    ground = SideRealization(
        size, tuple(mask_of(points(side, "side")) for side in sides), g)
    for fault in ground.faults(orders):
        raise ValidationError(fault)
    return ground


def _graph_separations(g: Graph, k: float) -> list[tuple[int, int]]:
    """All (A, B) vertex-mask pairs with A|B covering V, no edge between
    A - B and B - A, and |A&B| < k, one per unoriented separation.

    Separator first: for each S = A&B, smallest first, the components of
    G - S are found by a mask BFS, and each assignment of them to the two
    strict sides gives one separation; the first component's side is fixed,
    so each pair comes once.  The degenerate (V, V) has no component and is
    never produced.  A pair is written lesser side first and the list sorted
    on the (A, B) pair, sides compared as sorted vertex tuples.  More than
    ``MAX_SEPARATIONS`` raise BudgetExceeded: every S other than V
    gives at least one separation, so the separators are counted first.
    """
    sizes = [size for size in range(g.n) if size < k]
    separators = 0
    for size in sizes:
        separators += math.comb(g.n, size)
        if separators > MAX_SEPARATIONS:
            _too_many_separations(g, k, separators)
    adjacent = [0] * g.n
    for u, v in g.edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    full = (1 << g.n) - 1
    out = []
    for size in sizes:
        for separator in combinations(range(g.n), size):
            s = mask_of(separator)
            rest, components = full & ~s, []
            while rest:
                component = frontier = rest & -rest
                while frontier:
                    reach = 0
                    for v in ids_of(frontier):
                        reach |= adjacent[v]
                    frontier = reach & rest & ~component
                    component |= frontier
                components.append(component)
                rest &= ~component
            first, others = components[0], components[1:]
            for choice in range(1 << len(others)):
                a_only = first
                for i, component in enumerate(others):
                    if choice >> i & 1:
                        a_only |= component
                a, b = a_only | s, (full & ~a_only) | s
                out.append((a, b) if ids_of(a) < ids_of(b) else (b, a))
                if len(out) > MAX_SEPARATIONS:
                    _too_many_separations(g, k, len(out))
    return sorted(out, key=lambda pair: (ids_of(pair[0]), ids_of(pair[1])))


def _too_many_separations(g: Graph, k: float, count: int):
    raise BudgetExceeded(
        f"graph of {g.n} vertices has at least {count} separations of order "
        f"below {k}, over the limit of {MAX_SEPARATIONS}")


def _subset_order(keys: list[int], width: int) -> tuple[int, ...]:
    """Per id ``o`` the word of the ids whose ``width``-bit key holds key
    ``o``: with a column the ids whose key has a given bit, the AND of the
    columns that hold ``o``, equal columns counted once."""
    every, has = (1 << len(keys)) - 1, [0] * width
    for o, key in enumerate(keys):
        for j in ids_of(key):
            has[j] |= 1 << o
    up = [every] * len(keys)
    for column in set(has):
        for o in ids_of(column):
            up[o] &= column
    return tuple(up)


def graph_system(g: Graph, k: float) -> SeparationSystem:
    """The separations of order below ``k``, built directly from the graph,
    the degenerate (V, V) last when its order |V| is below ``k``.  The
    system offers join and meet whenever its sides are closed under them,
    and the lattice is then distributive."""
    full = (1 << g.n) - 1
    pairs = _graph_separations(g, k) + ([(full, full)] if g.n < k else [])
    # B of (A, B), then A
    ground = SideRealization(g.n, tuple(s for a, b in pairs for s in (b, a)), g)
    closed = ground.closed
    return SeparationSystem(
        None, [(a & b).bit_count() for a, b in pairs], lattice=closed,
        distributive=closed, ground=ground, allow_degenerate=g.n < k)


def graph_universe(g: Graph) -> SeparationSystem:
    """All separations of the graph, ``graph_system`` without a bound: a
    distributive lattice.

    Includes the one degenerate separation (V, V); lattice closure needs it.
    Order-bounded systems hold it only when its order |V| is below the bound.
    """
    if g.n > MAX_UNIVERSE_VERTICES:
        raise ValidationError(
            f"graph universe limited to {MAX_UNIVERSE_VERTICES} vertices, got {g.n}")
    return graph_system(g, math.inf)


# -- bipartitions and subset systems -------------------------------------------


@dataclass(frozen=True)
class BipartitionGround:
    """Chosen subset sides of a finite point set with a cut-weight order.

    ``sides`` must be complement-closed.  The order of a side A is the
    similarity weight cut by {A, complement}, or |A| * |complement| without
    a similarity.
    """

    size: int
    sides: tuple[frozenset, ...]
    similarity: tuple | None = None

    def full_set(self) -> frozenset:
        return frozenset(range(self.size))


def _cut_weight(side, size, scaled, scale):
    """Summed exactly, so cuts equal in decimal get one order value."""
    comp = [v for v in range(size) if v not in side]
    return sum(scaled[u][v] for u in side for v in comp) / scale


def bipartition_system(ground: BipartitionGround) -> SeparationSystem:
    """Subset order, complement involution, cut-weight orders."""
    if ground.size > MAX_GROUND_POINTS:
        raise ValidationError(f"bipartition ground limited to "
                              f"{MAX_GROUND_POINTS} points, got {ground.size}")
    full = ground.full_set()
    sideset = set(ground.sides)
    for A in ground.sides:
        if not A <= full:
            raise ValidationError(f"side {sorted(A)} not within the point set")
        if (full - A) not in sideset:
            raise NotComplementClosed(
                f"side {sorted(A)} present without its complement")
    sim = ground.similarity
    if sim is not None:
        sim = [list(map(float, row)) for row in sim]
        if len(sim) != ground.size or any(len(r) != ground.size for r in sim):
            raise ValidationError("similarity matrix shape does not match points")
        if any(sim[u][v] != sim[v][u] or not 0 <= sim[u][v] < math.inf
               for u in range(ground.size) for v in range(ground.size)):
            raise ValidationError("similarity must be symmetric nonnegative finite")
        # each entry at its shortest decimal form, as it was written, scaled
        # to integers; int / int division rounds once
        exact = [[Fraction(repr(x)) for x in row] for row in sim]
        scale = math.lcm(*(f.denominator for row in exact for f in row))
        scaled = [[int(f * scale) for f in row] for row in exact]
    # one unoriented separation per complement pair; forward side is the
    # lexicographically smaller one
    pairs = sorted({tuple(sorted((tuple(sorted(A)), tuple(sorted(full - A)))))
                    for A in ground.sides})
    if len(pairs) > MAX_SEPARATIONS:
        raise BudgetExceeded(
            f"ground of {ground.size} points has {len(pairs)} separations, "
            f"over the limit of {MAX_SEPARATIONS}")
    sides, orders = [], []
    for fa, fb in pairs:
        sides += [mask_of(fa), mask_of(fb)]
        if sim is not None:
            orders.append(_cut_weight(frozenset(fa), ground.size, scaled, scale))
        else:
            orders.append(float(len(fa) * len(fb)))
    realization = SideRealization(ground.size, tuple(sides))
    closed = realization.closed
    return SeparationSystem(None, orders, lattice=closed, distributive=closed,
                            ground=realization)


def full_bipartition_ground(size: int, similarity=None) -> BipartitionGround:
    """Every subset of the point set as a side (guardrailed)."""
    if size > MAX_FULL_BIPARTITION_POINTS:
        raise ValidationError(
            f"all-bipartitions ground limited to {MAX_FULL_BIPARTITION_POINTS} "
            f"points, got {size}; supply explicit sides instead")
    sides = tuple(frozenset(c)
                  for r in range(size + 1)
                  for c in combinations(range(size), r))
    return BipartitionGround(size, sides, similarity)


def questionnaire_system(answers) -> SeparationSystem:
    """One separation per question: yes-side versus no-side of the persons.

    ``answers`` is a persons x questions 0/1 matrix.  Questions inducing the
    same bipartition are collapsed with a warning.  Orders default to the
    uniform cut weight |A| * |B|.
    """
    rows = [list(row) for row in answers]
    if not rows:
        raise ValidationError("empty answer matrix")
    q = len(rows[0])
    if any(len(r) != q for r in rows):
        raise ValidationError("ragged answer matrix")
    if any(x not in (0, 1) for r in rows for x in r):
        raise ValidationError("answers must be 0 or 1")
    n = len(rows)
    full = frozenset(range(n))
    seen = {}
    for j in range(q):
        yes = frozenset(i for i in range(n) if rows[i][j] == 1)
        key = min(tuple(sorted(yes)), tuple(sorted(full - yes)))
        if key in seen:
            warnings.warn(
                f"question {j} duplicates question {seen[key]}; merged",
                DuplicateQuestionWarning, stacklevel=2)
            continue
        seen[key] = j
    sides = tuple(side for key in seen
                  for side in (frozenset(key), full - frozenset(key)))
    return bipartition_system(BipartitionGround(n, sides))


def block_of_tangle(system: SeparationSystem, tau) -> frozenset[int]:
    """Intersection of the big sides of a block-style graph tangle."""
    ground = realization_of(system, "block extraction")
    tau = mask_of(tau)
    if not system.orients_all(tau) or not system.is_consistent(tau):
        raise NotATangle("expected a consistent orientation of every separation")
    block = (1 << ground.size) - 1
    for o in ids_of(tau):
        block &= ground.sides[o]
    return frozenset(ids_of(block))


# -- CSV loaders ---------------------------------------------------------------


def _read_csv_matrix(text: str, parse) -> list[list]:
    """Rectangular CSV cells, each read with ``parse``."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ValidationError(f"unreadable CSV input: {exc}") from None
    if not rows:
        raise ValidationError("empty CSV input")
    width = len(rows[0])
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"ragged CSV row {i}: {len(row)} != {width}")
        cells = []
        for j, x in enumerate(row):
            try:
                cells.append(parse(x))
            except ValueError:
                raise ValidationError(
                    f"CSV row {i}, column {j}: cannot read {x!r} as "
                    f"{parse.__name__}") from None
        out.append(cells)
    return out


def load_similarity_csv(text: str):
    mat = _read_csv_matrix(text, float)
    if len(mat) != len(mat[0]):
        raise ValidationError("similarity matrix must be square")
    return mat


def load_answers_csv(text: str):
    return _read_csv_matrix(text, int)
