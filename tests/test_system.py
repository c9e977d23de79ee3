"""Separation-system structure: validation, predicates, closure, restriction."""

import json
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangleforge as tf
from tangleforge import grounds
from tangleforge.cli import main
from tangleforge.errors import (GroundMismatch, InconsistentInput,
                               ValidationError)
from tangleforge.oracle import all_consistent_orientations
from tangleforge.system import (backward, fmt_oriented, forward, ids_of,
                               inverse, mask_of, sep_of, validate)

from conftest import (FIXTURES, M3, N5, all_graphs_up_to_iso,
                      antichain_system, degenerate_pair_system,
                      expand_sepsys_v2, lattice_times_chain,
                      load_nonrich_fixture, looped_joins, nested_pair_system,
                      order_matrix, redundant_split_system,
                      random_relation_system, random_subset_system,
                      side_pair, submodular_subsystems,
                      trivial_top_system, two_cluster_similarity, v1_of)


def all_subsets(ids):
    out = [frozenset()]
    for x in ids:
        out += [s | {x} for s in out]
    return out


# -- validation ---------------------------------------------------------------


def test_nested_pair_validates_clean(nested_pair):
    assert validate(nested_pair).ok


def test_mutual_comparability_across_separations_is_rejected():
    leq = np.eye(4, dtype=bool)
    leq[0, 2] = leq[2, 0] = True
    with pytest.raises(ValidationError, match="antisymmetry"):
        tf.SeparationSystem(leq, [1.0, 1.0])


def test_broken_involution_is_rejected():
    leq = np.eye(4, dtype=bool)
    leq[0, 2] = True  # mirror pair 3 <= 1 missing
    with pytest.raises(ValidationError, match="involution"):
        tf.SeparationSystem(leq, [1.0, 1.0])


def test_missing_transitivity_is_rejected():
    d = {"format": "sepsys/v1", "count": 3, "orders": [1, 1, 1],
         "leq": [[0, 2], [3, 1], [2, 4], [5, 3]]}
    with pytest.raises(ValidationError, match="transitivity"):
        tf.from_json_dict(d)


def test_nan_orders_rejected():
    leq = np.eye(2, dtype=bool)
    with pytest.raises(ValidationError, match="order-function"):
        tf.SeparationSystem(leq, [float("nan")])


def test_negative_orders_are_legal():
    assert tf.SeparationSystem(np.eye(2, dtype=bool), [-3.5]).order(0) == -3.5


def test_degenerate_rejected_by_default_and_admitted_on_request():
    leq = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValidationError, match="degenerate"):
        tf.SeparationSystem(leq, [1.0])
    sysd = tf.SeparationSystem(leq, [1.0], allow_degenerate=True)
    assert sysd.is_degenerate(0)
    assert sysd.orientations_of(0) == (0,)


def test_a_system_with_a_ground_takes_no_leq(k4):
    # the order of a ground system comes from its sides alone: its own
    # order, as an Order or as rows, is refused all the same
    for system in (tf.graph_system(k4, 3),
                   tf.bipartition_system(tf.full_bipartition_ground(3))):
        for leq in (system.leq, list(system.leq)):
            with pytest.raises(ValidationError, match="takes its order from "
                               "its sides: leq must be None"):
                tf.SeparationSystem(leq, system.orders, ground=system.ground)


def test_validate_report_carries_all_failures():
    leq = np.eye(4, dtype=bool)
    leq[0, 2] = leq[2, 0] = True
    leq[1, 3] = leq[3, 1] = True
    sysb = tf.SeparationSystem(leq, [1.0, float("inf")], check=False)
    report = validate(sysb)
    codes = {i.code for i in report.issues}
    assert "antisymmetry" in codes and "order-function" in codes


# -- lattice laws against the cubic loops ----------------------------------------


def key_joins(system):
    """The join and the meet tables as the library derives them from
    ``lattice_keys``: the id of the union of two keys, -1 where that is no
    key, and the meet through the involution, (r v s)* = r* ^ s*, as a
    canonical id, a missing join read as a missing meet."""
    keys, ids = system.lattice_keys()
    join = [[ids.get(x | y, -1) for y in keys] for x in keys]
    mirror = [[-1 if v < 0 else system.canon(v ^ 1) for v in row]
              for row in join]
    return [join, [[mirror[a ^ 1][b ^ 1] for b in range(len(keys))]
                   for a in range(len(keys))]]


def looped_distributive(system):
    """meet(a, join(b, c)) == join(meet(a, b), meet(a, c)) on every triple,
    compared as canonical ids, with the looped join and meet."""
    canon = np.array(system._canon)
    J, M = map(np.array, looped_joins(system.leq))
    cJ, cM = canon[J], canon[M]
    return all(np.array_equal(cM[a].take(J), cJ.take(M[a], 0).take(M[a], 1))
               for a in system.all_oriented())


def assert_laws_match_the_loops(system):
    """A validated lattice claim against the loops: the joins and meets
    derived from keys are the looped least and greatest bounds, so only a
    flagged distributivity can fail, exactly when the loops find a failing
    triple."""
    report = validate(system)
    assert key_joins(system) == looped_joins(system.leq)
    if not system.distributive:
        assert "distributivity" not in report.checked
    else:
        assert report.checked["distributivity"] == "exhaustive"
        assert report.ok == looped_distributive(system)
        assert [i.code for i in report.issues] in ([], ["distributivity"])
    return report


def without_ground(system):
    """The system rebuilt from its order alone, claiming a lattice."""
    return tf.SeparationSystem(system.leq, system.orders, lattice=True,
                               distributive=system.distributive,
                               allow_degenerate=system.allow_degenerate,
                               check=False)


def planted_wrong(system, seed):
    """Join tables with one entry set to another element, and with the
    join of an incomparable pair raised to a larger upper bound: at most
    two tables, each unlike the looped join."""
    rng = np.random.default_rng(seed)
    n2 = system.n_oriented
    out = []
    J = np.array(looped_joins(system.leq)[0])
    join = J.copy()
    a, b = (int(x) for x in rng.integers(0, n2, size=2))
    others = [c for c in range(n2)
              if system.canon(c) != system.canon(join[a, b])]
    if others:
        join[a, b] = others[rng.integers(len(others))]
        out.append(join.tolist())
    L = np.array(system.leq)
    for a in range(n2):
        for b in range(a + 1, n2):
            above = [c for c in range(n2)
                     if L[J[a, b], c] and system.canon(c) != system.canon(J[a, b])]
            if not (L[a, b] or L[b, a]) and above:
                join = J.copy()
                join[a, b] = join[b, a] = above[0]
                return out + [join.tolist()]
    return out


V1_UNIVERSE = "sepsys/v1 'universe' tables are no longer read"


def assert_the_loader_refuses_the_join(system, join, tmp_path, capsys):
    """The sepsys/v1 of the system with ``join`` in place of its join, with
    its sides and without, exits 2 naming ``'universe'`` and its
    replacement ``"lattice"``: no sepsys/v1 table is read."""
    assert join != looped_joins(system.leq)[0]
    docs = [expand_sepsys_v2(tf.to_json_dict(without_ground(system)))]
    if system.ground is not None:
        docs.append(expand_sepsys_v2(tf.to_json_dict(system)))
    for d in docs:
        d["universe"]["join"] = join
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(d))
        assert main(["validate", "--system", str(path)]) == 2
        issues = json.loads(capsys.readouterr().out)["issues"]
        assert len(issues) == 1 and V1_UNIVERSE in issues[0]
        assert '"lattice": true' in issues[0]
        with pytest.raises(ValidationError, match=V1_UNIVERSE):
            tf.load_system(path.read_text(), check=False)


def fixture_universes():
    """Every system with a join table that the fixtures and the conftest
    generators make, and every graph universe of at most four vertices and
    of the 5-cycle (these hold the degenerate (V, V))."""
    sim = grounds.load_similarity_csv((FIXTURES / "six_similarity.csv").read_text())
    k4 = tf.Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u)])
    c5 = tf.Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    out = {
        "six_cluster": tf.bipartition_system(tf.full_bipartition_ground(
            6, similarity=two_cluster_similarity())),
        "six_similarity.csv": tf.bipartition_system(
            tf.full_bipartition_ground(len(sim), similarity=sim)),
        "k4_k5": tf.graph_system(k4, 5),
        "c5": tf.graph_universe(c5),
        "6-vertex_k7": tf.graph_system(tf.Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (2, 3)]), 7),
    }
    for points in range(1, 6):
        universe = tf.bipartition_system(tf.full_bipartition_ground(points))
        out[f"bipartitions_{points}"] = universe
    for i, sub in enumerate(submodular_subsystems(out["bipartitions_3"], 3)):
        if sub.has_universe():
            out[f"bipartitions_3_sub{i}"] = sub
    for n in range(1, 5):
        for i, g in enumerate(all_graphs_up_to_iso(n)):
            out[f"graph{n}_{i}"] = tf.graph_universe(g)
    return out


UNIVERSES = fixture_universes()


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_lattice_laws_match_the_cubic_loops(name, tmp_path, capsys):
    system = UNIVERSES[name]
    table = without_ground(system)
    # checked by its sides, and as an order whose lattice claim holds
    for each in (system, table):
        assert each.has_universe() and assert_laws_match_the_loops(each).ok
    assert key_joins(table) == key_joins(system)
    for wrong in planted_wrong(system, len(name)):
        assert_the_loader_refuses_the_join(system, wrong, tmp_path, capsys)


def key_meet(system):
    """The meet table as the ground keys' intersections, the least id
    winning for a repeated key: the reference the derived meet must match."""
    keys, _ = system.ground.keys()
    ids = {}
    for o, key in enumerate(keys):
        ids.setdefault(key, o)
    return np.array([[ids[x & y] for y in keys] for x in keys],
                    dtype=np.int64).reshape(len(keys), len(keys))


# with UNIVERSES, every graph universe of at most five vertices
WITH_FIVE_VERTICES = {**UNIVERSES, **{
    f"graph5_{i}": tf.graph_universe(g)
    for i, g in enumerate(all_graphs_up_to_iso(5))}}


@pytest.mark.parametrize("name", sorted(WITH_FIVE_VERTICES))
def test_the_derived_meet_is_the_key_intersection(name):
    system = WITH_FIVE_VERTICES[name]
    levels = [system.restrict_below(k)
              for k in sorted({system.order(s) for s in system.seps()})]
    for level in [system, *levels]:
        if level.has_universe():
            meet, n2 = key_joins(level)[1], level.n_oriented
            assert all(type(v) is int for row in meet for v in row), level.count
            assert np.array_equal(np.array(meet, dtype=np.int64).reshape(n2, n2),
                                  key_meet(level)), level.count


def integer_tables(system):
    """The attributes holding a table of integers: rows of integer
    ``array``s, or a two-dimensional integer ndarray."""
    return [name for name, value in vars(system).items()
            if isinstance(value, np.ndarray) and value.ndim == 2
            and value.dtype.kind in "iu"
            or isinstance(value, tuple) and value
            and all(isinstance(row, array) and row.typecode in "bBhHiIlLqQ"
                    for row in value)]


def test_a_ground_system_stores_no_integer_table():
    # a lattice derives its join from keys, with a ground or without
    c5 = tf.Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    for system in (tf.graph_universe(c5),
                   tf.bipartition_system(tf.full_bipartition_ground(4))):
        n2, table = system.n_oriented, without_ground(system)
        for each in (system, table):
            assert each.has_universe() and integer_tables(each) == []
            join = np.array(key_joins(each)[0])
            assert join.shape == (n2, n2) and join.dtype == np.int64
        assert key_joins(table) == key_joins(system)


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_a_planted_wrong_meet_is_refused_on_loading(name, tmp_path, capsys):
    # one meet entry of the old sepsys/v1 table file set to another
    # element, or out of range where every element is the entry's own: a
    # table is never read, and the file is refused by its field
    system = UNIVERSES[name]
    n2, d = system.n_oriented, expand_sepsys_v2(tf.to_json_dict(system))
    rng = np.random.default_rng(len(name))
    a, b = (int(x) for x in rng.integers(0, n2, size=2))
    meet = d["universe"]["meet"]
    others = [c for c in range(n2) if system.canon(c) != system.canon(meet[a][b])]
    meet[a][b] = others[rng.integers(len(others))] if others else n2
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(d))
    assert main(["validate", "--system", str(path)]) == 2
    issues = json.loads(capsys.readouterr().out)["issues"]
    assert V1_UNIVERSE in issues[0]
    with pytest.raises(ValidationError, match=V1_UNIVERSE):
        tf.load_system(path.read_text(), check=False)


def test_the_reference_universes_hold_degenerate_separations():
    degenerate = [name for name, system in UNIVERSES.items()
                  if any(system.is_degenerate(s) for s in system.seps())]
    assert "c5" in degenerate and "graph4_0" in degenerate


@pytest.mark.parametrize("lattice", [M3, N5], ids=["M3x2", "N5x2"])
def test_non_distributive_lattices_fail_only_distributivity(lattice):
    system = lattice_times_chain(*lattice)
    report = assert_laws_match_the_loops(system)
    assert [i.code for i in report.issues] == ["distributivity"]
    # an involutive lattice all the same
    assert validate(lattice_times_chain(*lattice, distributive=False)).ok


def test_a_join_entry_raised_above_the_join_is_not_least(tmp_path, capsys):
    system = tf.bipartition_system(tf.full_bipartition_ground(3))
    *_, raised = planted_wrong(system, 0)
    assert_the_loader_refuses_the_join(system, raised, tmp_path, capsys)


def test_a_table_lattice_is_validated_on_every_pair():
    system = without_ground(tf.bipartition_system(
        tf.full_bipartition_ground(9)))
    assert system.n_oriented == 512
    assert validate(system).ok
    assert validate(system).checked["universe"] == "exhaustive"
    assert validate(system).checked["distributivity"] == "exhaustive"
    # written without tables, and loaded with its claim checked again
    d = tf.to_json_dict(system)
    assert (d["format"], d["lattice"], d["distributive"]) == \
        ("sepsys/v2", True, True) and "universe" not in d
    again = tf.from_json_dict(d)
    assert again.has_universe() and again.up == system.up
    # the sepsys/v1 table file it was written as before is refused by its
    # field, its tables unread
    old = {**d, "format": "sepsys/v1", "universe": dict(zip(
        ("join", "meet"), key_joins(system)))}
    del old["lattice"]
    with pytest.raises(ValidationError, match=V1_UNIVERSE):
        tf.from_json_dict(old)


def test_a_lattice_claim_on_an_order_that_is_none_is_refused():
    # the two orientations of one separation have no upper bound; in the
    # bipartitions of 4 points without {0, 1} | {2, 3}, 1+ = {0} and
    # 5- = {1} have the upper bounds {0, 1, 2} and {0, 1, 3} but no least
    universe = tf.bipartition_system(tf.full_bipartition_ground(4))
    sub = universe.subsystem([s for s in universe.seps() if
                              universe.ground.sides[2 * s] not in (3, 12)])
    cases = [(np.eye(2, dtype=bool), [1.0], 0, 1),
             (sub.leq, sub.orders, 2, 11)]
    for leq, orders, a, b in cases:
        pair = f"{fmt_oriented(a)} and {fmt_oriented(b)} have no join"
        with pytest.raises(ValidationError, match=f"universe: lattice "
                           f"claimed, but {pair}".replace("+", r"\+")):
            tf.SeparationSystem(leq, orders, lattice=True)
        unchecked = tf.SeparationSystem(leq, orders, lattice=True,
                                        distributive=True, check=False)
        report = validate(unchecked)
        assert [i.code for i in report.issues] == ["universe"]
        # the pair has neither a join nor, mirrored, a meet of its inverses
        for join, meet in (key_joins(unchecked), looped_joins(leq)):
            assert join[a][b] == meet[a ^ 1][b ^ 1] == -1
        assert report.checked["distributivity"] == "skipped: not a lattice"


# -- systems without a ground, written and read --------------------------------


def systems_without_a_ground():
    """The conftest posets, seeded random ones, M3 x 2 and N5 x 2 with and
    without their distributivity claim, a full bipartition universe's
    order, and the sepsys/v1 fixture."""
    out = {"nested_pair": nested_pair_system(),
           "antichain3": antichain_system(3, [1.0, 2.0, 2.0]),
           "redundant_split": redundant_split_system(),
           "trivial_top": trivial_top_system(),
           "degenerate_pair": degenerate_pair_system(),
           "nonrich_system.json": load_nonrich_fixture()[0],
           "bipartitions_3/order": without_ground(
               tf.bipartition_system(tf.full_bipartition_ground(3)))}
    for seed in range(4):
        out[f"random_subset{seed}"] = random_subset_system(seed)
        out[f"random_relation{seed}"] = random_relation_system(seed)
    for name, lattice in (("M3x2", M3), ("N5x2", N5)):
        for flag in (True, False):
            out[f"{name}/distributive={flag}"] = lattice_times_chain(
                *lattice, distributive=flag)
    return out


GROUNDLESS = systems_without_a_ground()


@pytest.mark.parametrize("name", sorted(GROUNDLESS))
def test_a_system_without_a_ground_round_trips(name):
    system = GROUNDLESS[name]
    text = tf.dump_system(system)
    d = json.loads(text)
    assert d["format"] == "sepsys/v2" and "ground" not in d
    assert "universe" not in d and d.get("lattice", False) == system.has_universe()
    # unchecked: a distributivity claim on M3 x 2 is written as it is made
    again = tf.load_system(text, check=False)
    assert (again.up, again.down, again.orders) == \
        (system.up, system.down, system.orders)
    def flags(s):
        return s.has_universe(), s.distributive, s.allow_degenerate

    assert flags(again) == flags(system)
    assert looped_joins(again.leq) == looped_joins(system.leq)
    if system.has_universe():
        assert key_joins(again) == key_joins(system) == \
            looped_joins(system.leq)
    assert tf.dump_system(again) == text
    # the sepsys/v1 file the system was written as before, tables and all,
    # rebuilt from the new file: the same order, orders and joins
    old = expand_sepsys_v2(d)
    assert old == v1_of(system)
    assert [mask_of(np.flatnonzero(row)) for row in order_matrix(old)] == \
        list(system.up)
    assert old["orders"] == list(system.orders)
    if system.has_universe():
        assert [old["universe"]["join"], old["universe"]["meet"]] == \
            key_joins(again)


# -- element predicates ------------------------------------------------------


def test_small_and_trivial_in_subset_ground():
    # all bipartitions of a 3-point set: the empty side is small, the full
    # side is trivial as soon as any proper bipartition exists
    sys3 = tf.bipartition_system(tf.full_bipartition_ground(3))
    ground = sys3.ground
    empty_id = next(o for o in sys3.all_oriented() if not ground.side(o))
    full_id = inverse(empty_id)
    assert sys3.is_small(empty_id)
    assert not sys3.is_trivial(empty_id)
    assert sys3.is_trivial(full_id)
    assert sys3.is_cotrivial(empty_id)
    # brute-force cross-check of triviality over all witness pairs
    for o in sys3.all_oriented():
        expect = any(sep_of(x) != sep_of(o)
                     and sys3.lt(x, o) and sys3.lt(inverse(x), o)
                     for x in sys3.all_oriented())
        assert sys3.is_trivial(o) == expect


def test_antichain_has_no_trivial_elements():
    sys2 = antichain_system(2)
    assert not any(sys2.is_trivial(o) for o in sys2.all_oriented())


def test_small_graph_separations_have_full_first_side(k4):
    s3 = tf.graph_system(k4, 3)
    verts = frozenset(k4.vertices())
    for o in s3.all_oriented():
        A, B = side_pair(s3.ground, o)
        if A == verts:
            assert s3.is_small(o)


# -- consistency, closure, stars ------------------------------------------------


def test_towards_pointing_pair_is_consistent(nested_pair):
    assert nested_pair.is_consistent(mask_of({0, 3}))
    assert nested_pair.is_consistent(0)


def test_nested_pair_has_three_consistent_orientations(nested_pair):
    full = [{0, 2}, {0, 3}, {1, 2}, {1, 3}]
    ok = [sorted(t) for t in full if nested_pair.is_consistent(mask_of(t))]
    assert ok == [[0, 2], [0, 3], [1, 3]]


def test_closure_examples(nested_pair):
    assert nested_pair.closure(0) == 0
    assert ids_of(nested_pair.closure(mask_of({2}))) == [0, 2]
    assert ids_of(nested_pair.closure(mask_of({1}))) == [1, 3]


def test_closure_rejects_inconsistent_input(nested_pair):
    with pytest.raises(InconsistentInput):
        nested_pair.closure(mask_of({1, 2}))


@pytest.mark.parametrize("seed", range(12))
def test_closure_is_idempotent_and_a_requirement_fixed_point(seed):
    system = random_subset_system(seed, n_seps=4)
    ids = sorted(system.all_oriented())
    for members in all_subsets(ids):
        if not system.is_consistent(mask_of(members)):
            continue
        cl = system.closure(mask_of(members))
        if system.is_consistent(cl):
            assert system._closure_mask(cl) == cl
        # independent oracle: a separation is required when taking its inverse
        # instead breaks consistency
        base = {system.canon(x) for x in members}
        required = set(base)
        for y in ids:
            cy = system.canon(y)
            if cy not in required and \
                    not system.is_consistent(mask_of(members | {inverse(y)})):
                required.add(cy)
        assert mask_of(required) == cl
        if not any(system.is_cotrivial(o) for o in members):
            # iterating the requirement step adds nothing more
            grown = set(required)
            for y in ids:
                cy = system.canon(y)
                if cy not in grown and \
                        not system.is_consistent(mask_of(grown | {inverse(y)})):
                    grown.add(cy)
            assert mask_of(grown) == cl


@pytest.mark.parametrize("seed", range(8))
def test_closure_monotone_and_fixed_on_full_orientations(seed):
    system = random_subset_system(seed, n_seps=4)
    for tau in all_consistent_orientations(system):
        assert system.closure(mask_of(tau)) == mask_of(tau)
        subs = sorted(tau)
        for members in all_subsets(subs):
            assert not system.closure(mask_of(members)) & \
                ~system.closure(mask_of(tau))


@pytest.mark.parametrize("seed", range(8))
def test_closure_of_cotrivial_free_sets_stays_consistent(seed):
    system = random_relation_system(seed, n_seps=4)
    ids = sorted(system.all_oriented())
    for members in all_subsets(ids):
        if not system.is_consistent(mask_of(members)):
            continue
        if any(system.is_cotrivial(o) for o in members):
            continue
        cl = system.closure(mask_of(members))
        assert system.is_consistent(cl)
        fresh = ids_of(cl & ~mask_of(members))
        per_sep = {}
        for o in fresh:
            per_sep.setdefault(sep_of(o), set()).add(o)
        assert all(len(v) == 1 for v in per_sep.values())


@pytest.mark.parametrize("seed", range(8))
def test_consistent_orientations_never_contain_cotrivial_elements(seed):
    system = random_relation_system(seed, n_seps=4)
    for tau in all_consistent_orientations(system):
        assert not any(system.is_cotrivial(o) for o in tau)


def is_star(system, mask):
    """Distinct elements point towards each other: for x and a later y,
    y* <= x, that is x* <= y; both orientations of one separation only
    when one of them is small (they are comparable)."""
    if mask & system._degenerate:
        return False
    for x in ids_of(mask):
        pair = 3 << (x & ~1)
        allowed = system.up[x ^ 1] & ~pair | \
            (system.up[x] | system.down[x]) & pair
        if mask & -(2 << x) & ~allowed:
            return False
    return True


def test_star_examples(nested_pair):
    assert is_star(nested_pair, mask_of({0, 3}))  # pointing towards each other
    assert is_star(nested_pair, mask_of({0}))
    assert is_star(nested_pair, 0)


@pytest.mark.parametrize("seed", range(10))
def test_both_orientations_spoil_a_star_unless_comparable(seed):
    system = random_subset_system(seed, n_seps=3)
    for s in system.seps():
        members = {forward(s), backward(s)}
        comparable = system.leq[forward(s), backward(s)] or \
            system.leq[backward(s), forward(s)]
        if not comparable:
            assert not is_star(system, mask_of(members))


# -- towards / nested -----------------------------------------------------------


def points_towards(system, o, s):
    return bool(system.down[o] >> forward(s) & 3)


def test_points_towards_nested_pair(nested_pair):
    assert points_towards(nested_pair, 0, 1)  # 0 >= 2
    assert points_towards(nested_pair, inverse(1), 1)  # 1 points away from 1
    assert nested_pair.is_nested(0, 1)
    assert nested_pair.is_nested(0, 0)


def test_crossing_bipartitions_are_not_nested():
    ground = tf.BipartitionGround(
        4, (frozenset({0, 1}), frozenset({2, 3}),
            frozenset({0, 2}), frozenset({1, 3})))
    sysx = tf.bipartition_system(ground)
    assert not sysx.is_nested(0, 1)


# -- involution / orders ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_involution_is_an_order_reversing_bijection(seed):
    system = random_relation_system(seed, n_seps=4)
    for a in system.all_oriented():
        assert inverse(inverse(a)) == a
        assert system.order_of(a) == system.order_of(inverse(a))
        for b in system.all_oriented():
            assert system.leq[a, b] == system.leq[inverse(b), inverse(a)]


# -- restriction ----------------------------------------------------------------


def test_restrict_below_edges(nested_pair):
    assert nested_pair.restrict_below(0.5).count == 0
    full = nested_pair.restrict_below(float("inf"))
    assert full.count == 2 and full.oriented_into(nested_pair) == (0, 1, 2, 3)
    only_r = nested_pair.restrict_below(2)
    assert only_r.count == 1 and only_r.oriented_into(nested_pair) == (0, 1)


@pytest.mark.parametrize("n", range(1, 5))
def test_a_restriction_admits_degenerate_separations_only_when_it_keeps_one(n):
    # with k > |V| a graph system holds the degenerate (V, V), of order |V|
    for g in all_graphs_up_to_iso(n):
        system = tf.graph_system(g, n + 2)
        assert system.allow_degenerate
        for k in (n - 1, n, n + 0.5, n + 2, float("inf")):
            sub = system.restrict_below(k)
            kept = any(sub.is_degenerate(s) for s in sub.seps())
            assert kept == (k > n)
            assert sub.allow_degenerate == kept
            assert ("allow_degenerate" in tf.to_json_dict(sub)) == kept


@pytest.mark.parametrize("seed", range(6))
def test_restriction_composes_to_the_minimum_threshold(seed):
    system = random_subset_system(seed, n_seps=5)
    k1, k2 = 3.0, 2.0
    mid = system.restrict_below(k1)
    a, b = mid.restrict_below(k2), system.restrict_below(min(k1, k2))
    # the carving map is composed once, into the top system only
    assert a.top is b.top is system
    assert a.oriented_into(system) == b.oriented_into(system)
    with pytest.raises(GroundMismatch):
        a.oriented_into(mid)
    assert np.array_equal(a.leq, b.leq)
    assert np.array_equal(a.orders, b.orders)


# -- JSON -----------------------------------------------------------------------


def _matrix_forms(table):
    """One table as an array, nested lists, nested tuples of ints and the
    system's own read-only table."""
    a = np.array(table)
    return [a, a.tolist(), tuple(map(tuple, a.astype(int).tolist())), table]


@pytest.mark.parametrize("seed", range(4))
def test_the_constructor_reads_arrays_lists_and_tuples_alike(seed):
    # orders in 1..3, integers: numpy floats, ints and floats give one
    # system, written with float orders
    poset = random_relation_system(seed, n_seps=4)
    ints = [int(x) for x in poset.orders]
    built = [tf.SeparationSystem(leq, orders)
             for leq in _matrix_forms(poset.leq)
             for orders in (np.array(ints, dtype=float), ints,
                            [float(x) for x in ints])]
    universe = tf.bipartition_system(tf.full_bipartition_ground(3))
    lattices = [tf.SeparationSystem(leq, np.array(universe.orders),
                                    lattice=True, distributive=True)
                for leq in _matrix_forms(universe.leq)]
    for systems in (built, lattices):
        first = systems[0]
        assert all(type(x) is float for x in first.orders)
        for other in systems[1:]:
            assert (other.up, other.down, other.orders) == \
                (first.up, first.down, first.orders)
            assert tf.dump_system(other) == tf.dump_system(first)
    # integer orders are written as floats: 3 as 3.0
    assert tf.to_json_dict(built[1])["orders"] == [float(x) for x in ints]
    assert f'"orders": [\n  {ints[0]}.0,' in tf.dump_system(built[1])


@pytest.mark.parametrize("seed", range(6))
def test_json_round_trip_is_stable(seed):
    system = random_relation_system(seed, n_seps=4)
    text = tf.dump_system(system)
    again = tf.load_system(text)
    assert tf.dump_system(again) == text
    assert np.array_equal(system.leq, again.leq)
    assert np.array_equal(system.orders, again.orders)


def test_json_round_trip_keeps_universe_and_ground(six_cluster_system):
    text = tf.dump_system(six_cluster_system)
    again = tf.load_system(text)
    assert again.has_universe() and again.distributive
    assert again.ground.sides == six_cluster_system.ground.sides


@pytest.mark.parametrize("text", ["{not json", "[1]", '{"format": "sepsys/v1"}'])
def test_loaders_reject_malformed_json_with_a_validation_error(text):
    for load in (tf.load_system, tf.tree.load_tree):
        with pytest.raises(ValidationError):
            load(text)


def test_family_spec_must_be_a_json_object():
    with pytest.raises(ValidationError):
        tf.family_from_json([1], antichain_system())


# -- property tests ----------------------------------------------------------------


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=40, deadline=None, derandomize=True,
          database=None)
def test_random_subset_systems_always_validate(seed, n):
    assert validate(random_subset_system(seed, n_seps=n)).ok


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=40, deadline=None, derandomize=True,
          database=None)
def test_random_relation_systems_always_validate(seed, n):
    assert validate(random_relation_system(seed, n_seps=n)).ok
