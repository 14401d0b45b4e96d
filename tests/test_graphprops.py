import itertools
import math
import random
import warnings

import numpy as np
import pytest

from bfc import bits, graphprops
from bfc.combinatorial import deterministic_query_complexity
from bfc.graphprops import (
    _class_array,
    _vertex_maps,
    property_chain_report,
    apply_vertex_permutation,
    canonical_graph,
    edge_arity,
    enumerate_monotone_properties,
    is_graph_property,
    is_monotone,
    named_property,
    pair_list,
)
from bfc.tables import TruthTable, format_table, named_family


def test_pair_list_is_lexicographic():
    assert pair_list(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(pair_list(5)) == 10


def test_edge_arity():
    assert [edge_arity(n) for n in (2, 3, 4, 5)] == [1, 3, 6, 10]


def test_apply_permutation_identity_and_composition():
    rng = random.Random(11)
    n = 4
    for _ in range(50):
        mask = rng.randrange(1 << edge_arity(n))
        ident = tuple(range(n))
        assert apply_vertex_permutation(mask, n, ident) == mask
        sigma = tuple(rng.sample(range(n), n))
        tau = tuple(rng.sample(range(n), n))
        # acting by sigma then tau equals acting by the composite
        composite = tuple(tau[sigma[i]] for i in range(n))
        step = apply_vertex_permutation(apply_vertex_permutation(mask, n, sigma), n, tau)
        assert step == apply_vertex_permutation(mask, n, composite)


def test_canonical_graph_is_orbit_invariant():
    rng = random.Random(19)
    n = 4
    for _ in range(40):
        mask = rng.randrange(1 << edge_arity(n))
        canon = canonical_graph(mask, n)
        for _ in range(6):
            sigma = tuple(rng.sample(range(n), n))
            assert canonical_graph(apply_vertex_permutation(mask, n, sigma), n) == canon
        assert canonical_graph(canon, n) == canon
        assert canon <= mask  # canonical form is the orbit minimum


def test_graph_helpers_reject_bad_input():
    with pytest.raises(ValueError, match="not a permutation"):
        apply_vertex_permutation(3, 3, (0, 0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        apply_vertex_permutation(3, 3, (0, 1))
    for mask in (99, 8, -1):
        with pytest.raises(ValueError, match="outside"):
            apply_vertex_permutation(mask, 3, (0, 1, 2))
        with pytest.raises(ValueError, match="outside"):
            canonical_graph(mask, 3)
    assert canonical_graph(7, 3) == 7 and canonical_graph(0, 3) == 0


@pytest.mark.parametrize("n", [7, -1])
def test_canonical_graph_is_capped_before_building_maps(n):
    # 7! relabelings would be built and cached before answering
    cached = _vertex_maps.cache_info().currsize
    with pytest.raises(ValueError, match="TABLE_MAX_VERTICES"):
        canonical_graph(0, n)
    assert _vertex_maps.cache_info().currsize == cached


@pytest.mark.parametrize("n", [4, 5])
def test_relabel_maps_match_vertex_permutation(n):
    # gathering by the map of sigma^-1 relabels the graph by sigma
    rng = random.Random(40 + n)
    pair_masks = [(1 << i) | (1 << j) for i, j in pair_list(n)]
    masks = rng.sample(range(1 << edge_arity(n)), 40)
    perms = list(itertools.permutations(range(n)))
    inverses = [tuple(sorted(range(n), key=sigma.__getitem__)) for sigma in perms]
    maps = bits.relabel_maps(inverses, pair_masks)
    assert len(maps) == math.factorial(n)
    for sigma, bm in zip(perms, maps):
        got = bits.gather_bits(np.array(masks), bm).tolist()
        assert got == [apply_vertex_permutation(mask, n, sigma) for mask in masks]


def test_is_graph_property_accepts_isomorphism_invariants():
    assert is_graph_property(named_family("OR", 3), 3)  # has-edge on 3 vertices
    assert is_graph_property(named_family("AND", 6), 4)  # complete graph on 4 vertices
    assert is_graph_property(named_family("PARITY", 3), 3)  # parity of edge count


def test_is_graph_property_rejects_edge_asymmetric():
    # f = "edge {0,1} present" depends on a single labelled edge
    assert not is_graph_property(TruthTable(3, 0xAA), 3)
    with pytest.raises(ValueError):
        is_graph_property(named_family("OR", 4), 3)  # arity 4 != C(3,2)


def test_is_monotone():
    assert is_monotone(named_family("OR", 3))
    assert is_monotone(named_family("AND", 3))
    assert not is_monotone(named_family("PARITY", 2))
    assert is_monotone(TruthTable(2, 0b0000))  # constants are monotone


def test_enumeration_n3_exact_tables():
    props = enumerate_monotone_properties(3)
    assert [format_table(p.table) for p in props] == ["3:80", "3:E8", "3:FE"]
    # triangle, connectivity(=path-or-better), has-edge — in that order
    assert [deterministic_query_complexity(p.table) for p in props] == [3, 3, 3]


def test_enumeration_counts_frozen():
    assert len(enumerate_monotone_properties(3)) == 3
    assert len(enumerate_monotone_properties(4)) == 22
    assert len(enumerate_monotone_properties(5)) == 860


def test_enumeration_members_are_nontrivial_monotone_properties():
    for n in (3, 4):
        for p in enumerate_monotone_properties(n):
            t = p.table
            assert is_monotone(t)
            assert is_graph_property(t, n)
            assert t.table != 0 and t.table != (1 << t.size) - 1


def test_enumeration_against_bruteforce_filter_n4():
    # independent oracle: filter all arity-6 tables by the definition
    want = {p.table.table for p in enumerate_monotone_properties(4)}
    got = set()
    n, m = 4, 6
    perms = list(itertools.permutations(range(n)))
    index_maps = []
    for sigma in perms:
        index_maps.append(
            [apply_vertex_permutation(mask, n, sigma) for mask in range(1 << m)]
        )
    # walking all 2^64 tables is impossible; instead rebuild from class up-sets
    classes = sorted({canonical_graph(mask, n) for mask in range(1 << m)})
    members = {c: [] for c in classes}
    for mask in range(1 << m):
        members[canonical_graph(mask, n)].append(mask)
    supersets = {
        c: {canonical_graph(c | (1 << b), n) for b in range(m) if not (c >> b) & 1}
        for c in classes
    }
    for pick in range(1, 1 << len(classes)):
        chosen = {classes[i] for i in range(len(classes)) if (pick >> i) & 1}
        if all(supersets[c] <= chosen for c in chosen):
            if 0 in chosen:
                continue  # containing the empty graph means the constant 1
            table = 0
            for c in chosen:
                for mask in members[c]:
                    table |= 1 << mask
            got.add(table)
    assert got == want


def test_named_has_edge_is_or():
    for n in (3, 4, 5):
        p = named_property("has-edge", n)
        assert p.table == named_family("OR", edge_arity(n))


def test_named_connectivity_3():
    assert format_table(named_property("connectivity", 3).table) == "3:E8"


def test_named_contains_triangle_3():
    assert format_table(named_property("contains-triangle", 3).table) == "3:80"


def test_named_clique_matches_triangle():
    a = named_property("contains-clique", 4, clique_size=3)
    b = named_property("contains-triangle", 4)
    assert a.table == b.table


def test_named_min_degree_1_has_no_isolated_vertex():
    p = named_property("min-degree-1", 3)
    # on 3 vertices: needs at least 2 edges, and not the same vertex missing
    ones = [m for m in range(8) if (p.table.table >> m) & 1]
    assert ones == [3, 5, 6, 7]


def test_named_property_rejects_unknown():
    with pytest.raises(ValueError):
        named_property("girth-5", 4)
    with pytest.raises(ValueError):
        named_property("contains-clique", 3, clique_size=5)


@pytest.mark.parametrize("name", ["has-edge", "connectivity", "contains-triangle", "min-degree-1"])
def test_named_property_rejects_a_stray_clique_size(name):
    with pytest.raises(ValueError, match="clique size applies only to contains-clique"):
        named_property(name, 4, clique_size=4)


def _connected(mask, n_vertices, pairs):
    """Reference: depth-first search from vertex 0 over the edges of mask."""
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for k, (i, j) in enumerate(pairs):
            if (mask >> k) & 1:
                if i == v and j not in seen:
                    seen.add(j)
                    stack.append(j)
                elif j == v and i not in seen:
                    seen.add(i)
                    stack.append(i)
    return len(seen) == n_vertices


def _has_clique(mask, n_vertices, size, index):
    """Reference: scan every size-set of vertices for a full set of edges."""
    for group in itertools.combinations(range(n_vertices), size):
        if all((mask >> index[(a, b)]) & 1 for a, b in itertools.combinations(group, 2)):
            return True
    return False


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_named_properties_match_per_mask_predicates(n):
    # the array reductions against a predicate run graph by graph
    m = edge_arity(n)
    pairs = pair_list(n)
    index = {p: k for k, p in enumerate(pairs)}
    incident = [sum(1 << k for k, p in enumerate(pairs) if v in p) for v in range(n)]
    predicates = {
        ("has-edge", None): lambda mask: mask != 0,
        ("connectivity", None): lambda mask: _connected(mask, n, pairs),
        ("min-degree-1", None): lambda mask: all(mask & inc for inc in incident),
    }
    for size in range(2, n + 1):
        predicates["contains-clique", size] = (
            lambda mask, size=size: _has_clique(mask, n, size, index)
        )
    want = {
        key: TruthTable(m, sum(1 << mask for mask in range(1 << m) if pred(mask)))
        for key, pred in predicates.items()
    }
    if n >= 3:
        want["contains-triangle", None] = want["contains-clique", 3]
    for (name, size), table in want.items():
        assert named_property(name, n, clique_size=size).table == table, (name, size)


def test_chain_report_has_edge_4():
    r = property_chain_report(named_property("has-edge", 4))
    assert (r.deg2, r.deg, r.depth) == (6, 6, 6)
    assert abs(r.spectral - math.sqrt(6)) < 1e-9
    assert r.chain_ok


def test_chain_report_all_properties_small():
    for n in (3, 4):
        for p in enumerate_monotone_properties(n):
            r = property_chain_report(p)
            assert r.chain_ok, (n, p.property_id)
            assert r.spectral >= math.sqrt(r.deg) - 1e-6
            assert r.deg >= r.deg2


def test_evasiveness_small():
    # every nontrivial monotone graph property here has full decision depth
    for n in (3, 4):
        m = edge_arity(n)
        for p in enumerate_monotone_properties(n):
            assert deterministic_query_complexity(p.table) == m, p.property_id


def test_chain_report_at_depth_cap_gives_depth_10_and_no_warning():
    p = named_property("has-edge", 5)  # arity 10, the decision-depth cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = property_chain_report(p)
    assert r.depth == 10 and r.chain_ok


def test_chain_report_above_depth_cap_raises():
    p = named_property("has-edge", 6)  # arity 15
    with pytest.raises(ValueError, match="above cap 10"):
        property_chain_report(p)


@pytest.mark.parametrize("gap, ok", [(2e-6, False), (5e-7, True)])
def test_chain_reads_the_sweeps_huang_row_on_lambda_squared(monkeypatch, gap, ok):
    # deg = 4 and lambda^2 = 4 - gap: the sweep's deg<=lambda^2 row allows
    # 1e-6 on lambda^2, so 2e-6 fails although lambda is within 1e-6 of 2
    values = {"deg2": 4, "deg": 4, "lambda": math.sqrt(4 - gap), "D": 4}
    entries = {name: {"value": value} for name, value in values.items()}
    monkeypatch.setattr(graphprops, "measure", lambda *args, **kwargs: (entries, {}))
    assert property_chain_report(named_property("has-edge", 3)).chain_ok is ok


class _NoIteration(np.ndarray):
    def __iter__(self):
        raise AssertionError("the per-mask class array was walked in Python")


def test_enumeration_never_walks_the_class_array_in_python(monkeypatch):
    class_array = graphprops._class_array
    monkeypatch.setattr(
        graphprops, "_class_array", lambda n: class_array(n).view(_NoIteration)
    )
    assert len(enumerate_monotone_properties(5)) == 860


@pytest.mark.parametrize("n", [4, 5])
def test_enumeration_order_leaves_each_class_out_before_putting_it_in(n):
    # classes by edge count, then least member; the up-sets come in the
    # order of their membership vectors, a class left out before it is in
    classes = sorted(set(_class_array(n).tolist()), key=lambda c: (c.bit_count(), c))
    vectors = [
        tuple(p.table.value(c) for c in classes) for p in enumerate_monotone_properties(n)
    ]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_monotone_properties(6)


def _orbits(n):
    """Isomorphism classes of graphs on n vertices, by closing each mask
    under the adjacent transpositions."""
    label = {}
    swaps = [tuple(range(v)) + (v + 1, v) + tuple(range(v + 2, n)) for v in range(n - 1)]
    for mask in range(1 << edge_arity(n)):
        if mask in label:
            continue
        label[mask] = mask
        stack = [mask]
        while stack:
            g = stack.pop()
            for sigma in swaps:
                h = apply_vertex_permutation(g, n, sigma)
                if h not in label:
                    label[h] = mask
                    stack.append(h)
    return label


def test_every_table_on_two_vertices_is_a_graph_property():
    # swapping the two vertices fixes their only edge
    for t in range(4):
        assert is_graph_property(TruthTable(1, t), 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_graph_property_seeded_tables(n):
    rng = random.Random(100 + n)
    label = _orbits(n)
    m = edge_arity(n)
    for _ in range(5):
        on = {c for c in set(label.values()) if rng.random() < 0.5}
        t = sum(1 << mask for mask, c in label.items() if c in on)
        assert is_graph_property(TruthTable(m, t), n)
        # flipping one graph whose class has other members breaks invariance
        mask = rng.choice([x for x, c in label.items() if x != c])
        assert not is_graph_property(TruthTable(m, t ^ (1 << mask)), n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_check_agrees_with_the_full_orbit_check(n):
    # the transposition (0 1) and the n-cycle generate every relabeling
    rng = random.Random(200 + n)
    m = edge_arity(n)
    cls = _class_array(n)
    for _ in range(50):
        t = TruthTable(m, rng.getrandbits(1 << m))
        # half the tables are made invariant by reading them at the class
        if rng.random() < 0.5:
            t = TruthTable(m, bits.from_bit_array(t.to_bit_array()[cls]))
        vals = t.to_bit_array()
        assert is_graph_property(t, n) == bool(np.array_equal(vals[cls], vals))
