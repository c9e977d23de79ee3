"""Finite separation systems.

A system holds ``count`` unoriented separations.  Each separation ``s`` has two
orientations encoded as integers: ``2*s`` (forward) and ``2*s + 1`` (backward).
The involution flips the low bit.  The partial order is held as two words per
element, ``up`` and ``down``, precomputed and validated at load; desk-scale
sizes make the quadratic bits cheap and every comparison O(1).

A system with a ground (``grounds.SideRealization``: a side per oriented id)
takes its order from its sides, and is validated and written by its sides.
Any other system is given its order, and is written with it.  Both are
written as ``sepsys/v2``.  Either kind may claim a lattice, and stores no
table for it: each oriented id has a key whose subset order is the order (a
ground system's side keys, any other's ids not above it), and the join of
two ids is the id of the union of their keys, when that is a key.

Sets of oriented ids are Python-int bitmasks, bit ``o`` standing for oriented
id ``o``, from the system through trees and construction to the families;
frozensets are made only where a set leaves the library as a result.
``mask_of`` and ``ids_of`` convert: with ``2 <= 0``,
``ids_of(system.closure(mask_of({2})))`` is ``[0, 2]``.  The system derives
per-element masks (everything above, everything below, ...) from its order
words once, and every set operation reads them; ``leq`` is a read-only
``Order`` view of the words for per-cell reads.
"""

from __future__ import annotations

import json
import math
from copy import copy
from dataclasses import dataclass, field, replace
from itertools import chain, compress, takewhile
from json.encoder import encode_basestring_ascii
from operator import index

from .errors import (BudgetExceeded, GroundMismatch, InconsistentInput,
                     SystemIsAView, ValidationError)

# of a loaded system or one generated from a graph or bipartition ground:
# above the 3,281 of the edgeless 8-vertex universe and the 2,048 of a
# 12-point full bipartition; 4,096 separations give 2 x 8,192 order words
# of 8,192 bits, 16 MiB
MAX_SEPARATIONS = 1 << 12


def inverse(o: int) -> int:
    """The other orientation of the same separation."""
    return o ^ 1


def sep_of(o: int) -> int:
    """Unoriented separation id underlying an oriented id."""
    return o >> 1


def forward(s: int) -> int:
    return 2 * s


def backward(s: int) -> int:
    return 2 * s + 1


def mask_of(ids) -> int:
    """Bitmask with bit ``o`` set for each id ``o``."""
    m = 0
    for o in ids:
        m |= 1 << index(o)  # a fixed-width integer would shift in its width
    return m


def ids_of(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:  # highest bit first: clearing it needs no negated copy
        top = mask.bit_length() - 1
        out.append(top)
        mask -= 1 << top
    out.reverse()
    return out


def fmt_oriented(o: int) -> str:
    """Human-readable oriented id: separation index plus side marker."""
    return f"{sep_of(o)}{'+' if o % 2 == 0 else '-'}"


# per byte value its eight bits, lowest first, as truth values
_BITS = tuple(tuple(b >> i & 1 == 1 for i in range(8)) for b in range(256))


class Order:
    """The order as a read-only table over its words: ``leq[a, b]`` is
    whether ``a <= b``, bit ``b`` of ``up[a]`` (``down[b]`` then has bit
    ``a``), and ``leq[a]`` row ``a`` as a list, so that nested-list and
    array constructors read the order as its rows."""

    def __init__(self, up, down):
        self.up, self.down, self.size = up, down, len(up)

    def __len__(self):
        return self.size

    def __getitem__(self, key):
        if type(key) is tuple:
            a, b = map(index, key)
            return self.up[a] >> b & 1 == 1
        if not 0 <= index(key) < self.size:  # ends iteration
            raise IndexError(f"row {key} of an order of {self.size}")
        word = self.up[index(key)].to_bytes(-(-self.size // 8), "little")
        out = list(chain.from_iterable(map(_BITS.__getitem__, word)))
        del out[self.size:]
        return out

    @classmethod
    def of_rows(cls, rows) -> "Order":
        """The order given as a square matrix of truth values."""
        rows = list(rows)
        if len(rows) % 2 or any(len(row) != len(rows) for row in rows):
            raise ValueError(f"{len(rows)} rows of lengths "
                             f"{sorted(set(map(len, rows)))}")
        return cls(*(tuple(mask_of(compress(range(len(rows)), row))
                           for row in matrix) for matrix in (rows, zip(*rows))))


@dataclass
class ValidationIssue:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass
class ValidationReport:
    """Axioms checked and every violation found; empty issues means well-formed."""

    issues: list[ValidationIssue] = field(default_factory=list)
    checked: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok

    def add(self, code, detail):
        self.issues.append(ValidationIssue(code, detail))

    def summary(self) -> str:
        return "; ".join(str(i) for i in self.issues[:10]) or "ok"


class SeparationSystem:
    """A finite set of oriented separations with order, involution and orders.

    Parameters
    ----------
    leq : (2n, 2n) matrix of truth values (nested lists or tuples, an
        array, or another system's ``leq``); ``leq[a, b]`` means ``a <= b``.
        None for a system with a ground, whose order is the subset order
        of the sides' keys (``SideRealization.keys``); a system with a
        ground given any other ``leq`` is refused.
    orders : length-n reals; the order ``|s|`` attaches to the unoriented id.
    lattice : claim that the order is a lattice (validated): every two
        elements have a join, the id of the union of their keys
        (``lattice_keys``).
    distributive : claim that the lattice is distributive (validated).
    ground : optional realization (a ``SideRealization``: one side per
        oriented id) used by concrete forbidden families.
    allow_degenerate : admit separations whose two orientations coincide
        (both ids then alias one element; rejected by default).

    ``orders`` is held as a tuple of floats.  ``leq`` is an ``Order``, a
    read-only table over the words ``up`` and ``down``.

    ``up[a]`` and ``down[a]`` are the bitmasks of the elements above and
    below ``a`` (``a`` included).

    ``view_below`` gives a lower-order level as a view: its ``base`` (a
    whole system is its own ``base``, and stores no reference to itself,
    so that reference counting frees it) with only the ids in the mask ``live``
    present.  A view keeps the base's ids, and with them its ``count``,
    keys and ``top``.  It clips only the forward-id mask ``_even`` (which
    ``seps``, ``orients_all`` and co-triviality read) to ``live``; every
    other table is the base's.  A closure, an OR of ``_requires`` rows, is
    ANDed with ``live`` where it is formed; the readers of ``up``,
    ``down``, ``_below``, ``_away`` and ``_degenerate`` AND them with a live
    mask or read them at live ids only, where the order is induced.
    ``seps()`` and ``all_oriented()`` list its live ids, and ``local`` maps
    them to those of the carved ``restrict_below``.

    Carving (``subsystem``, ``restrict_below``) builds the system a view
    stands for, for the oracle; ``to_json_dict`` writes a view from the
    constructor's arguments of that system, ``_induced``.  A carved system
    keeps the system at the top of its carving as ``top`` and the
    map of its oriented ids into that one's (``oriented_into``); any other
    system has None for both.
    """

    def __init__(self, leq, orders, *, lattice=False, distributive=False,
                 ground=None, allow_degenerate=False, check=True):
        if ground is not None and leq is not None:
            raise ValidationError("a system with a ground takes its order "
                                  "from its sides: leq must be None")
        try:
            leq = Order(*ground.order) if ground is not None else \
                leq if isinstance(leq, Order) else Order.of_rows(leq)
            orders = tuple(map(float, orders))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("leq must be a square matrix of even side "
                                  f"and orders reals: {exc}") from None
        n2 = leq.size
        if len(orders) != n2 // 2:
            raise ValidationError(
                f"orders must have one entry per separation, got {len(orders)}")
        self.count = n2 // 2
        self.leq, self.up, self.down, self.orders = leq, leq.up, leq.down, orders
        self._lattice = bool(lattice)
        self.distributive = bool(distributive)
        self.ground = ground
        self.top = self._into_top = self._base = self._keys = None
        self.allow_degenerate = bool(allow_degenerate)
        self.live = (1 << n2) - 1
        self._even = ((1 << n2) - 1) // 3  # the forward id of every separation
        self._degenerate = mask_of(o for o in range(n2)
                                   if (self.up[o] & self.down[o]) >> (o ^ 1) & 1)
        self._canon = tuple(o & ~1 if self._degenerate >> o & 1 else o
                            for o in range(n2))
        self._below = tuple(d & ~u for u, d in zip(self.up, self.down))
        # What an element requires (itself, everything strictly above it of
        # another separation, canonical ids), and the elements of other
        # separations pointing away from it: y with x <= y*, i.e. y <= x*.
        self._requires = tuple(self._canon_mask(
            1 << o | self.up[o] & ~self.down[o] & ~(3 << (o & ~1)))
            for o in range(n2))
        self._away = tuple(self.down[o ^ 1] & ~(3 << (o & ~1)) for o in range(n2))
        self._by_order = sorted(self.seps(), key=lambda s: (orders[s], s))
        if check:
            report = validate(self)
            if not report.ok:
                raise ValidationError(
                    f"invalid separation system: {report.summary()}", report.issues)

    # -- basic structure ---------------------------------------------------

    @property
    def base(self) -> "SeparationSystem":
        """The system a view stands over; a whole system is its own."""
        return self if self._base is None else self._base

    @property
    def n_oriented(self) -> int:
        return 2 * self.count

    def all_oriented(self):
        return range(self.n_oriented) if self.base is self else ids_of(self.live)

    def seps(self):
        return range(self.count) if self.base is self else \
            [o >> 1 for o in ids_of(self._even)]

    def local(self, o: int) -> int:
        """The id of the live id ``o`` in the system a view stands for."""
        return o if self._base is None else (self.live & (1 << o) - 1).bit_count()

    def has_universe(self) -> bool:
        return self._lattice

    def lattice_keys(self) -> tuple[list[int], dict[int, int]]:
        """Per oriented id a key whose subset order is the order, and each
        key's id, the least for a repeated key: a ground system's
        ``SideRealization.keys``, any other's ids not above it, the
        complement of its ``up`` word.  The join of ``a`` and ``b`` is the
        id of ``keys[a] | keys[b]``, when that is a key.  Built once, by
        the base, and shared with its views."""
        base = self.base
        if base._keys is None:
            keys = base.ground.keys()[0] if base.ground is not None else \
                [base.live & ~w for w in base.up]
            base._keys = keys, dict(
                zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        return base._keys

    def order(self, s: int) -> float:
        return self.orders[s]

    def order_of(self, o: int) -> float:
        return self.orders[sep_of(o)]

    def lt(self, a: int, b: int) -> bool:
        return bool(self._below[b] >> a & 1)

    def is_degenerate(self, s: int) -> bool:
        return bool(self._degenerate >> forward(s) & 1)

    def canon(self, o: int) -> int:
        """Canonical id: the even one when the separation is degenerate."""
        return self._canon[o]

    def _canon_mask(self, mask: int) -> int:
        odd = mask & self._degenerate & ~self._even
        return mask & ~odd | odd >> 1

    def orientations_of(self, s: int) -> tuple[int, ...]:
        if self.is_degenerate(s):
            return (forward(s),)
        return (forward(s), backward(s))

    # -- element predicates ------------------------------------------------

    def is_small(self, o: int) -> bool:
        return bool(self.up[o] >> inverse(o) & 1)

    def is_trivial(self, o: int) -> bool:
        """Both orientations of some other separation lie strictly below ``o``."""
        below = self._below[o] & ~(3 << (o & ~1))
        return bool(below & below >> 1 & self._even)

    def is_cotrivial(self, o: int) -> bool:
        return self.is_trivial(inverse(o))

    def trivial_orienteds(self) -> list[int]:
        return [o for o in self.all_oriented() if self.is_trivial(o)]

    def is_nested(self, r: int, s: int) -> bool:
        if r == s:
            return True
        f, b = forward(r), backward(r)
        comparable = self.up[f] | self.down[f] | self.up[b] | self.down[b]
        return bool(comparable >> forward(s) & 3)

    # -- sets of oriented separations ---------------------------------------

    def inconsistent_pair(self, mask: int) -> tuple[int, int] | None:
        """Two elements of distinct separations pointing away from each other."""
        for x in ids_of(mask):
            later = self._away[x] & mask & -(2 << x)
            if later:
                return x, (later & -later).bit_length() - 1
        return None

    def is_consistent(self, mask: int) -> bool:
        return self.inconsistent_pair(mask) is None

    def _closure_mask(self, mask: int) -> int:
        # Upward requirement set: everything strictly above an element of a
        # distinct separation.  Works on any set; no consistency guard.
        out = 0
        for x in ids_of(mask):
            out |= self._requires[x]
        return out & self.live

    def closure(self, mask: int) -> int:
        """The input plus every separation it requires; input must be consistent."""
        pair = self.inconsistent_pair(mask)
        if pair is not None:
            raise InconsistentInput(
                f"closure of inconsistent set: {fmt_oriented(pair[0])} and "
                f"{fmt_oriented(pair[1])} point away from each other")
        return self._closure_mask(mask)

    def minimal_elements(self, mask: int) -> int:
        """Elements of the set with nothing of the set strictly below them."""
        out, rest = 0, mask
        while rest:
            low = rest & -rest
            if not self._below[low.bit_length() - 1] & mask:
                out |= low
            rest ^= low
        return out

    def cheapest_open(self, closure: int) -> int | None:
        """The cheapest separation, least id first, that the closure mask
        ``closure`` leaves unoriented, or None."""
        oriented = (closure | closure >> 1) & self._even
        return next((s for s in self._by_order if not oriented >> 2 * s & 1),
                    None)

    def orients_all(self, mask: int) -> bool:
        """One orientation per separation, every separation covered."""
        m = self._canon_mask(mask)
        fwd, bwd = m & self._even, m >> 1 & self._even
        return not fwd & bwd and fwd | bwd == self._even

    # -- derived systems -----------------------------------------------------

    def _induced(self, sep_ids, idx) -> dict:
        """The constructor's arguments for the system induced on the
        separations ``sep_ids``, of oriented ids ``idx``: a ground system's
        order comes from its sides, any other's is gathered from the words,
        or is its own ``leq`` when ``idx`` is every id in order.  A lattice
        stays one when it keeps the join of any two kept ids, that is when
        their keys stay closed under union."""
        out = {"orders": [self.orders[s] for s in sep_ids],
               "allow_degenerate": any(map(self.is_degenerate, sep_ids)),
               "ground": None, "leq": None}
        if self.ground is not None:
            out["ground"] = replace(
                self.ground, sides=tuple(self.ground.sides[o] for o in idx))
        elif idx == list(range(self.n_oriented)):
            out["leq"] = self.leq
        else:
            out["leq"] = Order.of_rows([[self.up[a] >> b & 1 for b in idx]
                                        for a in idx])
        lattice = self.has_universe()
        if lattice and len(sep_ids) < self.count:  # all: the same keys
            if self.ground is not None:
                lattice = out["ground"].closed
            else:
                keys = self.lattice_keys()[0]
                lattice = _union_closed([keys[o] for o in idx], out["leq"].up,
                                        out["leq"].down)
        out["lattice"], out["distributive"] = lattice, self.distributive and lattice
        return out

    def subsystem(self, sep_ids) -> "SeparationSystem":
        """The system induced on the given separations, mapped into the
        top system of this one's carving."""
        sep_ids = tuple(sep_ids)
        idx = [o for s in sep_ids for o in (forward(s), backward(s))]
        sub = SeparationSystem(check=False, **self._induced(sep_ids, idx))
        sub.top = self.top or self.base
        sub._into_top = tuple(idx) if self.top is None else \
            tuple(self._into_top[o] for o in idx)
        return sub

    def restrict_below(self, k: float) -> "SeparationSystem":
        """Subsystem of all separations of order strictly below ``k``."""
        keep = [s for s in self.seps() if self.orders[s] < k]
        return self.subsystem(keep)

    def view_below(self, k: float) -> "SeparationSystem":
        """``restrict_below(k)`` as a view: the base with the separations
        of order below ``k`` live and its forward ids ANDed with the live
        mask; it shares every table with the base.  The order is induced,
        so every mask query on live ids is the carved system's in the
        base's ids."""
        base = self.base
        keep = list(takewhile(lambda s: self.orders[s] < k, self._by_order))
        view = copy(base)
        view._base = base
        view.live = live = sum(3 << 2 * s for s in keep)
        view._even, view._by_order = base._even & live, keep
        return view

    def oriented_into(self, ancestor: "SeparationSystem") -> tuple[int, ...]:
        """Map of oriented ids into ``ancestor``'s: the identity when both
        share a base, the map kept at carving when ``ancestor`` is the top
        system this one was carved from."""
        if ancestor.base is self.base:
            return tuple(range(self.n_oriented))
        if ancestor.base is not self.top:
            raise GroundMismatch(
                "system does not descend from the family's system")
        return self._into_top


# -- validation --------------------------------------------------------------


def validate(system: SeparationSystem) -> ValidationReport:
    """Check every structural axiom; the report carries all violations found.
    A system with a ground has its sides checked in place of the order laws
    (``_validate_ground``); a lattice claim is checked on keys for both
    kinds (``_validate_lattice``)."""
    if system.base is not system:
        raise SystemIsAView("validate a view's base, or its restrict_below")
    rep = ValidationReport()
    bad = [s for s, x in enumerate(system.orders) if not math.isfinite(x)]
    if bad:
        rep.add("order-function", f"non-finite order at separations {bad}")
    rep.checked["order-function"] = "exhaustive"
    if system.ground is not None:
        _validate_ground(system, rep)
    else:
        _validate_order(system, rep)
    if system.has_universe():
        _validate_lattice(system, rep)
    elif system.distributive:
        rep.add("universe", "distributive flag without a lattice")
    return rep


def _validate_order(system, rep):
    """The poset laws and the order-reversing involution, on the words."""
    up, down, n2 = system.up, system.down, system.n_oriented
    bad = [o for o in range(n2) if not up[o] >> o & 1]
    if bad:
        rep.add("reflexivity", f"missing a <= a for oriented ids {bad}")
    rep.checked["reflexivity"] = "exhaustive"

    for a in range(n2):
        for b in ids_of(up[a] & down[a] & -(2 << a)):
            if sep_of(a) != sep_of(b):
                rep.add("antisymmetry",
                        f"{fmt_oriented(a)} <= {fmt_oriented(b)} and back")
            elif not system.allow_degenerate:
                rep.add("degenerate",
                        f"separation {sep_of(a)} has equal orientations "
                        "(pass allow_degenerate to admit)")
            elif (up[a], down[a]) != (up[b], down[b]):
                rep.add("degenerate",
                        f"degenerate separation {sep_of(a)} has diverging rows")
    rep.checked["antisymmetry"] = "exhaustive"

    for a in range(n2):
        reach = 0
        for c in ids_of(up[a]):
            reach |= up[c]
        if reach & ~up[a]:
            b = ids_of(reach & ~up[a])[0]
            rep.add("transitivity",
                    f"{fmt_oriented(a)} <= ... <= {fmt_oriented(b)} but not directly")
            break
    rep.checked["transitivity"] = "exhaustive"

    # b* <= a* puts b in the mirror of down[a*]: its bit pairs swapped
    even = system._even
    mirror = ((w & even) << 1 | w >> 1 & even
              for w in (down[a ^ 1] for a in range(n2)))
    wrong = next(((a, ((x ^ y) & -(x ^ y)).bit_length() - 1)
                  for a, (x, y) in enumerate(zip(up, mirror)) if x != y), None)
    if wrong:
        rep.add("involution", "a <= b disagrees with b* <= a* at "
                f"({fmt_oriented(wrong[0])}, {fmt_oriented(wrong[1])})")
    rep.checked["involution"] = "exhaustive"


def _validate_ground(system, rep):
    """The sides of a system with a ground: each separation's two sides are
    inverse and no two separations share a key.  The order, the keys'
    subset order, then satisfies the poset laws, and the keys' involution
    reverses it."""
    for fault in system.ground.faults(system.orders):
        rep.add("ground", fault)
    keys, ids = system.lattice_keys()
    for o, key in enumerate(keys):
        p = ids[key]
        if p == o ^ 1 and not system.allow_degenerate:
            rep.add("degenerate", f"separation {sep_of(o)} has equal "
                    "orientations (pass allow_degenerate to admit)")
        elif p not in (o, o ^ 1):
            rep.add("ground", f"duplicate side: {fmt_oriented(o)} has the "
                    f"side of {fmt_oriented(p)}")
    rep.checked["ground"] = "exhaustive"


def _validate_lattice(system, rep):
    """A lattice claim: in a finite poset two elements have a join exactly
    when the union of their keys is a key, so a lattice is a key set closed
    under union, and the join it derives is a least upper bound by
    construction.  Keys of a ground are sets, which then form a
    distributive lattice.  Any other system's ``distributive`` flag is
    checked by Birkhoff's criterion, in the one pass over pairs that also
    names a pair with no join; without that pass, ``_union_closed``
    decides (a ground's, kept as ``closed``), and a pair is sought only
    when it fails."""
    keys, ids = system.lattice_keys()
    rep.checked["universe"] = "exhaustive"
    if system.distributive:
        rep.checked["distributivity"] = \
            "skipped: not a lattice" if rep.issues else "exhaustive"
    birkhoff = system.ground is None and \
        rep.checked.get("distributivity") == "exhaustive"
    if not birkhoff and (system.ground.closed if system.ground is not None
                         else _union_closed(keys, system.up, system.down)):
        return
    # a finite lattice is distributive iff each join-irreducible j is
    # join-prime: j below x v y lies below x or below y.  j is
    # join-irreducible iff all strictly below j is one down-set.
    n2, down, canon = system.n_oriented, system.down, system._canon
    downs = set(down)
    irr = mask_of(j for j in range(n2) if canon[j] == j
                  and system._below[j] in downs)
    jd = [d & irr for d in down]
    wrong = None
    for x in range(n2):
        joins = [ids.get(keys[x] | key, -1) for key in keys[x + 1:]]
        if -1 in joins:
            y = x + 1 + joins.index(-1)
            rep.add("universe", f"lattice claimed, but {fmt_oriented(x)} and "
                    f"{fmt_oriented(y)} have no join")
            if system.distributive:
                rep.checked["distributivity"] = "skipped: not a lattice"
            return
        if birkhoff and wrong is None:
            y = next((y for y, v in enumerate(joins, x + 1)
                      if jd[v] != jd[x] | jd[y]), None)
            if y is not None:
                j = down[joins[y - x - 1]] & irr & ~(down[x] | down[y])
                wrong = j.bit_length() - 1, x, y
    if wrong:
        a, b, c = map(fmt_oriented, wrong)
        rep.add("distributivity", f"meet({a}, join({b}, {c})) != "
                f"join(meet({a}, {b}), meet({a}, {c}))")


def _union_closed(keys: list[int], up, down) -> bool:
    """Whether every union of two keys is again a key, given ``up`` and
    ``down``, the words of the keys' subset order.  A key right above two
    keys x and y is x | y when that is a key, and then, by induction on
    the keys below, has its union with every key when x and y have.  So
    the keys are closed exactly when each key with at most one key right
    below it has its union with every key; one that compares with every
    key has."""
    present, downs, every = set(keys), set(down), (1 << len(keys)) - 1
    for j, key in enumerate(keys):
        below = down[j] & ~up[j]
        if (not below or below in downs) and up[j] | down[j] != every and \
                any(key | k not in present for k in present):
            return False
    return True


# -- JSON (format "sepsys/v2"; "sepsys/v1" read) ------------------------------

# the fields refused in a sepsys/v1 object, and what sepsys/v2 has instead
_V1_REFUSED = {
    "universe": "'universe' tables are no longer read: write the system as "
                "sepsys/v2, with \"lattice\": true in their place",
    "ground": "'ground' is no longer read: write the system as sepsys/v2, "
              "whose 'ground' holds the side of every oriented id",
    "lattice": "has no field 'lattice': write the system as sepsys/v2 to "
               "claim a lattice",
}


def to_json_dict(system: SeparationSystem) -> dict:
    """Canonical ``sepsys/v2`` form, keys sorted on dump: ``count``,
    ``orders``, and a ground's sides as ``ground`` or any other order's
    strict pairs as ``leq``; ``lattice`` and ``distributive`` for a
    lattice, and ``allow_degenerate`` when a separation is degenerate.  A
    view is written as the system it stands for, in its local ids."""
    seps = list(system.seps())
    d = system._induced(seps, [o for s in seps for o in (2 * s, 2 * s + 1)])
    out = {"format": "sepsys/v2", "count": len(seps), "orders": d["orders"]}
    if d["ground"] is not None:
        out["ground"] = d["ground"].to_json_dict()
    else:
        out["leq"] = [[a, b] for a, word in enumerate(d["leq"].up)  # ascending
                      for b in ids_of(word & ~(1 << a))]
    if d["lattice"]:
        out["lattice"], out["distributive"] = True, d["distributive"]
    if d["allow_degenerate"]:
        out["allow_degenerate"] = True
    return out


def from_json_dict(d: dict, *, check: bool = True) -> SeparationSystem:
    """Load a sepsys/v2 object, or a sepsys/v1 object without a lattice or
    a ground.

    A sepsys/v2 object holds exactly one of ``ground`` and ``leq``.  A
    ground system is rebuilt by the code that builds ground systems: its
    order is the sides' subset order.  Any other lists its strict order
    pairs as ``leq``, which must already be transitively closed.
    ``lattice`` claims a lattice, checked on keys.  A sepsys/v1 object is
    read as ``count``, ``orders`` and ``leq``; its ``universe`` tables and
    ``ground`` are refused by name, as is a ``lattice``, which only
    sepsys/v2 has.  More than ``MAX_SEPARATIONS`` separations raise
    BudgetExceeded before the order words are built.
    """
    fmt = expect_object(d, "sepsys system").get("format", "sepsys/v1")
    if fmt not in ("sepsys/v1", "sepsys/v2"):
        raise ValidationError(f"unsupported system format {fmt!r}")
    if fmt == "sepsys/v1":
        for f, refusal in _V1_REFUSED.items():
            if f in d:
                raise ValidationError(f"sepsys/v1 {refusal}")
    elif ("ground" in d) == ("leq" in d):
        raise ValidationError(
            "sepsys/v2 system holds both 'ground' and 'leq': give exactly one"
            if "ground" in d else
            "sepsys/v2 system lacks the field 'ground' or 'leq'")
    try:
        count, orders = d["count"], d["orders"]
        if type(count) is not int or any(type(x) not in (int, float)
                                         for x in orders):
            raise TypeError
        orders = [float(x) for x in orders]
    except KeyError as exc:
        raise ValidationError(f"{fmt} system lacks the field {exc}") from None
    except (TypeError, OverflowError):
        raise ValidationError(f"{fmt} 'count' must be an integer and "
                              "'orders' a list of numbers") from None
    n2 = 2 * count
    if count < 0 or len(orders) != count:
        raise ValidationError("orders length does not match count")
    if count > MAX_SEPARATIONS:
        raise BudgetExceeded(f"{fmt} system has {count} separations, over "
                             f"the limit of {MAX_SEPARATIONS}")
    flags = {f: d.get(f, False)
             for f in ("lattice", "distributive", "allow_degenerate")}
    for f, value in flags.items():
        if type(value) is not bool:
            raise ValidationError(f"{fmt} {f!r} must be true or false, "
                                  f"got {value!r}")
    if "ground" in d:
        from .grounds import realization_from_json
        ground = realization_from_json(d["ground"], orders)
        return SeparationSystem(None, orders, ground=ground, check=check,
                                **flags)
    up, down = [1 << o for o in range(n2)], [1 << o for o in range(n2)]
    pairs = d.get("leq", [])
    if not isinstance(pairs, list):
        raise ValidationError(f"{fmt} 'leq' must be a list of pairs")
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"leq pair {pair} must have two entries")
        if any(type(v) is not int for v in pair):
            raise ValidationError(f"leq pair {pair} must hold integers")
        a, b = pair
        if not (0 <= a < n2 and 0 <= b < n2):
            raise ValidationError(f"leq pair {pair} out of range")
        up[a] |= 1 << b
        down[b] |= 1 << a
    return SeparationSystem(Order(tuple(up), tuple(down)), orders,
                            check=check, **flags)


def dump_system(system: SeparationSystem) -> str:
    return dump_json(to_json_dict(system))


def load_system(text: str, **kwargs) -> SeparationSystem:
    return from_json_dict(parse_json(text, "sepsys text"), **kwargs)


def parse_json(text: str, what: str):
    """The JSON value in ``text``; ``what`` names the input in the error."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def dump_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)`` without the pure-Python
    encoder: a join per container, one %-format per table of rows of
    ``type(v) is int`` ints, and an empty list, tuple or dict spelled
    directly."""
    def text(x, nl: str) -> str:
        t, inner = type(x), nl + " "
        if t is str:
            return encode_basestring_ascii(x)
        if t is int:
            return int.__repr__(x)
        if (t is list or t is tuple or t is dict) and not x:
            return "{}" if t is dict else "[]"
        if t is list or t is tuple:
            types = set(map(type, x))
            if types == {int}:
                items = map(int.__repr__, x)
            elif types == {list} and all(x) and \
                    set(map(type, chain.from_iterable(x))) == {int}:
                row, sep = inner + " ", "," + inner + " "
                cell = {n: "[" + row + sep.join(["%d"] * n) + inner + "]"
                        for n in set(map(len, x))}  # one per row length
                return ("[" + inner + ("," + inner).join([cell[len(r)] for r in x])
                        + nl + "]") % tuple(chain.from_iterable(x))
            else:
                items = [text(v, inner) for v in x]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if t is dict and all(type(k) is str for k in x):
            return "{" + inner + ("," + inner).join(
                [encode_basestring_ascii(k) + ": " + text(v, inner)
                 for k, v in sorted(x.items())]) + nl + "}"
        if t is float:
            return (float.__repr__(x) if -math.inf < x < math.inf else "NaN"
                    if x != x else "Infinity" if x > 0 else "-Infinity")
        if x is None or x is True or x is False:
            return "null" if x is None else "true" if x else "false"
        # the rest is json's text, re-indented: its strings hold no raw newline
        return json.dumps(x, sort_keys=True, indent=1).replace("\n", nl)

    return text(value, "\n")


def expect_object(d, what: str) -> dict:
    """``d`` itself when it is a JSON object; ``what`` names it otherwise."""
    if not isinstance(d, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def expect_int(value, what: str) -> int:
    """``value`` itself when it is a JSON integer; ``what`` names it otherwise."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value
