"""Forbidden-set families as witness-producing membership oracles.

A family never materializes its members: it answers "does this set contain a
member" (``holds_member``), and "show one" (``forbidden_subset``) only when
a witness is read.  Witness choice is deterministic (lexicographically
least by sorted oriented-id sequence) so golden files stay stable.

Each family states what a member is with ``is_member``, the definition the
tests re-check every witness against, and finds the least member inside a
set with its own search, ``_search``.  ``blocks`` (closed under supersets)
takes the shortest member prefix of the sorted set, read per vertex off the
labels that exclude it; ``explicit`` (a listed family) the least listed
member inside it; ``profile`` each pair x <= y of the set whose join of
inverses lies in it, and ``strong_profile`` each pair
with elements of the set below that join, completed by the least of them or
the least other than x, keeping the least; ``cluster`` walks x, then x with
each later y, then with each z after y, in the order of sorted ids, and
stops at the first sides that meet in fewer than n points, and
``graph_tangle`` walks the same on what each side leaves uncovered;
``empty`` has none.  The arity contract: no member has more than ``arity``
ids, and a family of unbounded arity (``blocks``) is closed under supersets
within its system.  The brute-force oracle and ``is_rich`` rest on it and
ask ``is_member`` alone, so that they share no search with the tree.

Queries are masks of oriented ids; a family keeps the answer of ``_search``
per mask of its bound system's ids for its lifetime, so the trees of one
pipeline, level trees included, scan each set once.  ``critical_labels``
gives the labels of a member-holding set whose removal leaves no member,
what reduction needs of a forbidden leaf: the base class tries the labels of
the kept answer against the kept answers of the smaller sets; ``blocks``
counts, per label, the vertices that only it excludes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import MissingCapability, ValidationError
from .grounds import realization_of
from .system import SeparationSystem, expect_object, ids_of, inverse, mask_of


@dataclass(frozen=True)
class Witness:
    """A member of the family found inside a queried set.

    ``evidence`` carries the family-specific proof data (intersection sets,
    bounding joins) so membership can be re-verified without re-running the
    scan that found it.
    """

    members: frozenset[int]
    kind: str
    evidence: dict

    def to_json_dict(self):
        return {
            "members": sorted(self.members),
            "kind": self.kind,
            "evidence": {k: v for k, v in sorted(self.evidence.items())},
        }


class ForbiddenFamily:
    """Base class: bound to a system, queried with masks of oriented ids.

    Subclasses define ``is_member`` and ``_search`` on the bound system's
    canonical ids; the public queries translate the caller's mask, unless
    the caller is the bound system or a view of it, and ask ``_search``.
    """

    kind = "abstract"
    # no member has more ids; None: unbounded, and closed under supersets
    arity: int | None = 3

    def __init__(self, system: SeparationSystem | None):
        self.system = system
        self._answers: dict[int, int | None] = {}  # _search's, by bound mask

    # -- mapping between the caller's system and the bound one ----------------

    def _ids_into(self, system: SeparationSystem, mask: int) -> int:
        """The caller's mask in the bound system's ids."""
        if self.system is None or system.base is self.system:
            return mask
        up = system.oriented_into(self.system)
        return sum(1 << up[x] for x in ids_of(mask))

    # -- family-specific hooks -------------------------------------------------

    def is_member(self, members) -> bool:
        """Direct definitional test against the bound system's ids."""
        raise NotImplementedError

    def evidence(self, members) -> dict:
        return {}

    def _search(self, work: int) -> int | None:
        """Mask of the lexicographically least member (by sorted ids) inside
        the mask ``work``, or None.  Each family enumerates its own members."""
        raise NotImplementedError

    def _answer(self, work: int) -> int | None:
        """``_search`` of the bound mask ``work``, kept once asked."""
        if work not in self._answers:
            self._answers[work] = self._search(work)
        return self._answers[work]

    def _critical(self, work: int) -> int:
        """The labels of ``work``, which holds a member, whose removal leaves
        none: each lies in every member, so only the kept answer's are tried."""
        hit = self._answer(work)
        return mask_of(b for b in ids_of(hit)
                       if self._answer(work & ~(1 << b)) is None)

    def _ids_back(self, system: SeparationSystem, mask: int, hit: int) -> int:
        """The caller's ids in ``mask`` whose bound ids lie in ``hit``."""
        if self.system is None or system.base is self.system:
            return hit
        up = system.oriented_into(self.system)
        return mask_of(x for x in ids_of(mask) if hit >> up[x] & 1)

    # -- public API --------------------------------------------------------------

    def forbidden_subset(self, system: SeparationSystem, mask: int) -> Witness | None:
        """Some member inside the set ``mask``, or None; deterministic choice."""
        hit = self._answer(self._ids_into(system, mask))
        if hit is None:
            return None
        ids = ids_of(hit)
        back = self._ids_back(system, mask, hit)
        return Witness(frozenset(ids if back == hit else ids_of(back)),
                       self.kind, self.evidence(ids))

    def holds_member(self, system: SeparationSystem, mask: int) -> bool:
        """Does the set ``mask`` contain a member?  No witness is built."""
        return self._answer(self._ids_into(system, mask)) is not None

    def critical_labels(self, system: SeparationSystem, mask: int) -> int:
        """The labels of ``mask`` whose removal leaves no member; ``mask``
        must hold a member."""
        return self._ids_back(system, mask,
                              self._critical(self._ids_into(system, mask)))

    def to_json_dict(self):
        """The family/v1 object: its kind, and the parameter of kinds with one."""
        field = PARAMETERS.get(self.kind)
        return {"format": "family/v1", "kind": self.kind,
                **({field: getattr(self, field)} if field else {})}


class EmptyFamily(ForbiddenFamily):
    kind = "empty"
    arity = 0

    def __init__(self):
        super().__init__(None)

    def is_member(self, members):
        return False

    def _search(self, work):
        return None


class ExplicitFamily(ForbiddenFamily):
    """A finite, explicitly listed family of member sets, kept as masks."""

    kind = "explicit"

    def __init__(self, members, system: SeparationSystem):
        super().__init__(system)
        members = [list(m) for m in members]
        bad = [o for m in members for o in m if not 0 <= o < system.n_oriented]
        if bad:
            raise ValidationError(f"member id {bad[0]} out of range")
        self.members = {mask_of(m) for m in members}
        self.arity = max((k.bit_count() for k in self.members), default=0)

    def is_member(self, members):
        return mask_of(members) in self.members

    def _search(self, work):
        # one pass over the listed members: the least inside the work
        return min((k for k in self.members if not k & ~work), key=ids_of,
                   default=None)

    def to_json_dict(self):
        return {**super().to_json_dict(),
                "explicit_members": sorted(ids_of(k) for k in self.members)}


def _meet(sides, members, out: int) -> int:
    """``out`` intersected with the side of every member."""
    for o in members:
        out &= sides[o]
    return out


class BlocksFamily(ForbiddenFamily):
    """Sets whose big-side intersection has fewer than k vertices.

    Superset-closed, so the least member inside a set is its shortest member
    prefix, and a label is critical exactly when the other labels' big sides
    still meet in k vertices.  Both are read off ``_excluders``, per vertex,
    in O(|V|) whatever the size of the set.
    """

    kind = "blocks"
    arity = None

    def __init__(self, k: int, system: SeparationSystem):
        ground = realization_of(system, "blocks family")
        super().__init__(system)
        self.k = int(k)
        self._all = (1 << ground.size) - 1
        self._big = ground.sides

    @cached_property
    def _excluders(self) -> list[int]:
        """Per vertex, the mask of the oriented ids whose big side misses it."""
        return [mask_of(o for o, side in enumerate(self._big) if not side >> v & 1)
                for v in range(self._all.bit_length())]

    def is_member(self, members):
        return _meet(self._big, members, self._all).bit_count() < self.k

    def evidence(self, members):
        return {"big_side_intersection":
                ids_of(_meet(self._big, members, self._all)), "k": self.k}

    def _search(self, work):
        # A prefix is a member once it excludes |V| - k + 1 vertices, and a
        # vertex is excluded from its least excluder in the work on: the
        # shortest member prefix ends at the m-th least of those labels.
        m = self._all.bit_length() - self.k + 1
        if m <= 0:
            return 0
        firsts = sorted(f & -f for e in self._excluders if (f := e & work))
        return work & (2 * firsts[m - 1] - 1) if len(firsts) >= m else None

    def _critical(self, work):
        # Removing a label gives back to the meet the vertices only it
        # excludes: ``only`` counts them per label, keyed by its bit.
        meet, only = 0, {}
        for e in self._excluders:
            f = e & work
            if not f:
                meet += 1
            elif not f & (f - 1):
                only[f] = only.get(f, 0) + 1
        return sum(f for f, n in only.items() if meet + n >= self.k)


def _least_small_meet(words, n, work) -> int | None:
    """Mask of the least set of one to three ids of the mask ``work`` whose
    ``words`` meet in fewer than ``n`` bits, or None.  x, then x with each
    later y, then with each z after y is the order of sorted id sequences,
    so the first hit is least."""
    ids = ids_of(work)
    for i, x in enumerate(ids):
        wx = words[x]
        if wx.bit_count() < n:
            return 1 << x
        for j in range(i + 1, len(ids)):
            wxy = wx & words[ids[j]]
            if wxy.bit_count() < n:
                return 1 << x | 1 << ids[j]
            for z in ids[j + 1:]:
                if (wxy & words[z]).bit_count() < n:
                    return 1 << x | 1 << ids[j] | 1 << z
    return None


class _SmallMeetFamily(ForbiddenFamily):
    """Sets of one to three ids whose ``_words`` meet, within the full mask
    ``_all``, in fewer than ``n`` bits."""

    def is_member(self, members):
        return 0 < len(members) <= 3 and \
            _meet(self._words, members, self._all).bit_count() < self.n

    def _search(self, work):
        return _least_small_meet(self._words, self.n, work)


class ClusterFamily(_SmallMeetFamily):
    """Triples of sides (repetition allowed) agreeing on fewer than n points."""

    kind = "cluster"

    def __init__(self, n: int, system: SeparationSystem):
        ground = realization_of(system, "cluster family", graph=False)
        super().__init__(system)
        self.n = int(n)
        self._all = (1 << ground.size) - 1
        self._words = ground.sides

    def evidence(self, members):
        return {"agreement_set": ids_of(_meet(self._words, members, self._all)),
                "n": self.n}


class ProfileFamily(ForbiddenFamily):
    """Pairs together with the join of their inverses."""

    kind = "profile"
    arity = 3

    def __init__(self, system: SeparationSystem):
        if not system.has_universe():
            raise MissingCapability(
                f"{self.kind.replace('_', '-')} family needs lattice operations")
        super().__init__(system)
        # the join of the inverses: the id of the union of their keys
        keys, ids = system.lattice_keys()
        inverse_keys = [keys[o ^ 1] for o in range(len(keys))]
        self._third = lambda x, y: ids[inverse_keys[x] | inverse_keys[y]]

    def _witness(self, members) -> dict | None:
        """Evidence that the set is a member, or None when it is not."""
        ms = sorted(members)
        if not 0 < len(ms) <= 3:
            return None
        canon = self.system.canon
        target = mask_of(canon(m) for m in ms)
        for x in ms:
            for y in ms:
                third = self._third(x, y)
                if 1 << canon(x) | 1 << canon(y) | 1 << canon(third) == target:
                    return {"pair": [x, y], "join_of_inverses": third}
        return None

    def is_member(self, members):
        return self._witness(members) is not None

    def evidence(self, members):
        return self._witness(members) or {}

    def _search(self, work):
        # A member is a pair x <= y with its join of inverses: the least of
        # those the work holds.
        ids, third = ids_of(work), self._third
        return min((1 << x | 1 << y | 1 << t for i, x in enumerate(ids)
                    for y in ids[i:] if work >> (t := third(x, y)) & 1),
                   key=ids_of, default=None)


class StrongProfileFamily(ProfileFamily):
    """Pairs with any element below the join of their inverses."""

    kind = "strong_profile"

    def _witness(self, members) -> dict | None:
        """Evidence that the set is a member, or None when it is not."""
        ms = sorted(members)
        if not 0 < len(ms) <= 3:
            return None
        canon, down = self.system.canon, self.system.down
        m = mask_of(ms)
        target = mask_of(canon(v) for v in ms)
        for x in ms:
            for y in ms:
                bound = self._third(x, y)
                pair = 1 << canon(x) | 1 << canon(y)
                for z in ids_of(down[bound] & m):
                    if pair | 1 << canon(z) == target:
                        return {"pair": [x, y], "bounded": z,
                                "join_of_inverses": bound}
        return None

    def _search(self, work):
        # A pair x <= y with any element below its join of inverses.  The
        # pair's least member takes the least such element, or the least
        # other than x, which is smaller when it lies between x and y.
        ids, third, down = ids_of(work), self._third, self.system.down
        return min((1 << x | 1 << y | z & -z for i, x in enumerate(ids)
                    for y in ids[i:] if (d := down[third(x, y)] & work)
                    for z in (d, d & ~(1 << x)) if z),
                   key=ids_of, default=None)


class GraphTangleFamily(_SmallMeetFamily):
    """Triples of small sides whose induced subgraphs cover the whole graph.

    A cover leaves no vertex and no edge out: the words of what each side
    leaves uncovered meet in nothing."""

    kind = "graph_tangle"
    n = 1

    def __init__(self, system: SeparationSystem):
        ground = realization_of(system, "graph-tangle family")
        super().__init__(system)
        edges = sorted(ground.graph.edges)
        # each small side, the inverse's, and the edges it induces as a
        # mask over ``edges``
        self._small = [ground.sides[o ^ 1] for o in range(len(ground.sides))]
        induced = [mask_of(i for i, (u, v) in enumerate(edges)
                           if a >> u & 1 and a >> v & 1) for a in self._small]
        # per side the vertices (above the edges) and edges it leaves out
        self._all = (1 << (ground.size + len(edges))) - 1
        self._words = [self._all & ~(a << len(edges) | e)
                       for a, e in zip(self._small, induced)]

    def evidence(self, members):
        return {"covering_sides": [ids_of(self._small[o])
                                   for o in sorted(members)]}


# -- constructors -----------------------------------------------------------

make_empty = EmptyFamily
make_explicit = ExplicitFamily
make_blocks = BlocksFamily
make_cluster = ClusterFamily
make_profile = ProfileFamily
make_strong_profile = StrongProfileFamily
make_graph_tangle = GraphTangleFamily

# the family class of each family/v1 kind
KINDS = {cls.kind: cls for cls in (EmptyFamily, ExplicitFamily, BlocksFamily,
                                   ClusterFamily, ProfileFamily,
                                   StrongProfileFamily, GraphTangleFamily)}
# family/v1 kinds that take an integer parameter, and its field name
PARAMETERS = {"blocks": "k", "cluster": "n"}


def family_parameter(d: dict) -> int | None:
    """The integer parameter of a family/v1 dict; None for kinds without one."""
    field = PARAMETERS.get(d.get("kind"))
    if field is None:
        return None
    if type(d.get(field)) is not int:
        raise ValidationError(f"family kind {d['kind']!r} needs an integer "
                              f"{field!r}, got {d.get(field)!r}")
    if d[field] < 1:
        raise ValidationError(f"family kind {d['kind']!r} needs {field!r} of "
                              f"at least 1, got {d[field]!r}")
    return d[field]


def family_from_json(d: dict, system: SeparationSystem) -> ForbiddenFamily:
    if expect_object(d, "family/v1 spec").get("format", "family/v1") != "family/v1":
        raise ValidationError(f"unsupported family format {d.get('format')!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f"unknown family kind {kind!r}")
    if kind == "empty":
        return EmptyFamily()
    if kind == "explicit":
        members = d.get("explicit_members", [])
        if not isinstance(members, list) or any(
                not isinstance(m, list) or any(type(o) is not int for o in m)
                for m in members):
            raise ValidationError("family/v1 'explicit_members' must list "
                                  f"lists of oriented ids, got {members!r}")
        return ExplicitFamily(members, system)
    param, cls = family_parameter(d), KINDS[kind]
    return cls(system) if param is None else cls(param, system)


# -- desk-scale certifiers -----------------------------------------------------
#
# These encode the theory-side conditions as testable artifacts.  They are
# exponential by design and never called during construction.


def is_standard(family: ForbiddenFamily, system: SeparationSystem):
    """Singletons of co-trivial orientations must be members.

    Returns (ok, counterexamples) where counterexamples lists trivial
    oriented ids whose inverse singleton is not in the family.
    """
    bad = [o for o in system.trivial_orienteds()
           if not family.is_member(ids_of(family._ids_into(system,
                                                           1 << inverse(o))))]
    return (not bad, bad)


def is_closed_under_minimization(family: ForbiddenFamily,
                                 system: SeparationSystem):
    """Every pointwise lowering of every (small) member is again a member.

    Members are enumerated up to the family's witness arity; unbounded
    families get a cap of 3, which keeps this a desk-scale spot check rather
    than a proof.  Only single lowerings, one element replaced by a smaller
    one, are tried: any pointwise lowering is a chain of them through sets
    no larger than the member (a slot lowered onto another slot's old value
    goes after that slot, and antisymmetry leaves no cycle).  A view lowers
    to its live elements only.
    """
    cap = family.arity or 3
    ids = sorted(system.all_oriented())
    bad = []
    for sub in sorted(c for r in range(1, cap + 1) for c in combinations(ids, r)):
        member = frozenset(sub)
        if not family.is_member(ids_of(family._ids_into(system, mask_of(sub)))):
            continue
        for x in sub:
            for y in ids_of(system.down[x] & system.live & ~(1 << x)):
                lowered = (member - {x}) | {y}
                if not family.is_member(
                        ids_of(family._ids_into(system, mask_of(lowered)))):
                    bad.append((member, lowered))
                    if len(bad) >= 5:
                        return (False, bad)
    return (not bad, bad)
