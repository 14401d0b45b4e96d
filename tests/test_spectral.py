"""Spectral sensitivity, the signed hypercube, and degree witnesses.

Closed forms used as oracles (all re-derivable by hand):
  - lambda(OR_n) = sqrt(n): G is a star K_{1,n}.
  - lambda(PARITY_n) = n: G is the whole n-cube.
  - lambda(EXACT1_n) = sqrt(3n-2): rows of the bipartite block B satisfy
    B B^T = (n-2) I + 2 J on the n weight-1 vertices.
  - lambda(x1 xor OR(x2..xn)) = 1 + sqrt(n-1): G is the Cartesian
    product of an edge with a star, so norms add.
"""

import math
import pickle
import random

import numpy as np
import pytest

from bfc import spectral
from bfc.algebraic import degree
from bfc.bits import from_bit_array, popcount_array
from bfc.graphprops import enumerate_monotone_properties
from bfc.spectral import (
    SensitivityGraph,
    SpectralConvergenceError,
    SignedHypercube,
    _Block,
    _perron,
    build_signed_hypercube,
    full_degree_witness,
    restrict_to_top_monomial,
    spectral_sensitivity,
    vector_to_csv,
    verify_signing,
)
from bfc.sweep import npn_canonical_array, sample_tables
from bfc.tables import PartialTruthTable, TruthTable, named_family, parse_table


def naive_lambda(f):
    size = 1 << f.arity
    a = np.zeros((size, size))
    for x in range(size):
        for i in range(f.arity):
            y = x ^ (1 << i)
            if f.value(x) != f.value(y):
                a[x, y] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def test_lambda_matches_naive_exhaustive_n3():
    for t in range(256):
        f = TruthTable(3, t)
        assert abs(spectral_sensitivity(f).value - naive_lambda(f)) < 1e-9


def test_lambda_or_star():
    for n in range(1, 17):
        f = named_family("OR", n)
        res = spectral_sensitivity(f)
        assert abs(res.value - math.sqrt(n)) < 1e-9
        assert res.residual < 1e-8


def test_lambda_parity_full_cube():
    for n in range(1, 11):
        assert abs(spectral_sensitivity(named_family("PARITY", n)).value - n) < 1e-9


def test_lambda_exact1_closed_form():
    for n in range(1, 9):
        f = named_family("EXACT1", n)
        assert abs(spectral_sensitivity(f).value - math.sqrt(3 * n - 2)) < 1e-9


def test_lambda_xor_or_closed_form():
    for n in range(2, 9):
        f = named_family("XOR-OR", n)
        want = 1 + math.sqrt(n - 1)
        assert abs(spectral_sensitivity(f).value - want) < 1e-9


def test_eigenvector_is_certifying():
    f = named_family("EXACT1", 4)
    res = spectral_sensitivity(f)
    g = SensitivityGraph(f)
    a = g.adjacency()
    v = res.vector
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert np.all(v >= 0)
    assert np.linalg.norm(a @ v - res.value * v) < 1e-9


def _random_table(n, seed):
    rng = np.random.default_rng(seed)
    return TruthTable(n, from_bit_array(rng.integers(0, 2, size=1 << n, dtype=np.uint8)))


@pytest.mark.parametrize(
    "f",
    [named_family(name, n) for name, n in [("OR", 6), ("EXACT1", 5), ("XOR-OR", 6), ("PARITY", 5)]]
    + [_random_table(8, 1), _random_table(10, 2)],
    ids=["OR_6", "EXACT1_5", "XOR-OR_6", "PARITY_5", "random_8", "random_10"],
)
def test_dense_and_lanczos_branches_agree(f, monkeypatch):
    g = SensitivityGraph(f)
    for comp in g.components():
        monkeypatch.setattr(spectral, "DENSE_MAX_VERTICES", comp.size)
        dense = _solve(g, comp)
        monkeypatch.setattr(spectral, "DENSE_MAX_VERTICES", comp.size - 1)
        lanczos = _solve(g, comp)
        assert abs(dense.value - lanczos.value) <= 1e-12
        assert np.abs(dense.vector - lanczos.vector).max() <= 1e-9
        for res in (dense, lanczos):
            assert res.vector.min() >= 0 and abs(np.linalg.norm(res.vector) - 1) < 1e-12
            assert res.residual <= 1e-9 * max(1.0, res.value)


def _partial_with_holes(n, seed):
    rng = np.random.default_rng(seed)
    domain = from_bit_array((rng.random(1 << n) < 0.8).astype(np.uint8))
    table = from_bit_array(rng.integers(0, 2, size=1 << n, dtype=np.uint8))
    return PartialTruthTable(n, table & domain, domain)


@pytest.mark.parametrize(
    "f",
    [
        named_family(name, n)
        for name, n in [("OR", 6), ("AND", 5), ("PARITY", 5), ("XOR-OR", 6), ("EXACT1", 5)]
    ]
    + [_partial_with_holes(7, 3), _random_table(8, 1), _random_table(10, 2)],
    ids=["OR_6", "AND_5", "PARITY_5", "XOR-OR_6", "EXACT1_5", "partial_7", "random_8", "random_10"],
)
@pytest.mark.parametrize("branch", ["dense", "lanczos"])
def test_gram_solve_matches_full_adjacency_eigh(f, branch, monkeypatch):
    # the parity-side Gram solve against a dense eigh of the whole
    # component adjacency; OR_6 is a star whose smaller side is the even
    # centre, AND_5 one whose smaller side is the odd centre 11111
    g = SensitivityGraph(f)
    sizes = []
    lanczos = spectral._lanczos

    def recording(apply, size):
        sizes.append(size)
        return lanczos(apply, size)

    monkeypatch.setattr(spectral, "_lanczos", recording)
    for comp in g.components():
        cap = comp.size if branch == "dense" else comp.size - 1
        monkeypatch.setattr(spectral, "DENSE_MAX_VERTICES", cap)
        w, vecs = np.linalg.eigh(g.adjacency(comp))
        oracle = np.abs(vecs[:, -1])
        res = _solve(g, comp)
        assert abs(res.value - w[-1]) <= 1e-12
        assert np.abs(res.vector - oracle).max() <= 1e-9
        assert res.vector.min() >= 0 and abs(np.linalg.norm(res.vector) - 1) < 1e-12
        assert res.residual <= 1e-9 * max(1.0, res.value)
        odd = int(np.count_nonzero(np.bitwise_count(comp) & 1))
        smaller = min(odd, comp.size - odd)
        assert sizes == ([] if branch == "dense" else [smaller])
        sizes.clear()


def _solve(g, comp):
    """The Perron pair of the block of the one component ``comp``."""
    [res] = _perron(_Block(g, comp))
    return res


def _matvec_perron(g, comp):
    # the Lanczos branch on the 2^n-wide matrix-free product
    small = np.bitwise_count(comp) & 1 == 1
    if 2 * np.count_nonzero(small) > comp.size:
        small = ~small
    s, t = comp[small], comp[~small]
    full = np.zeros(g.values.size)

    def gram(u):
        full[s] = u
        return g.matvec(g.matvec(full))[s]

    square, u, _ = spectral._lanczos(gram, s.size)
    value = math.sqrt(square)
    u = np.abs(u)
    full[s] = u
    v = np.empty(comp.size)
    v[small], v[~small] = u, g.matvec(full)[t] / value
    v /= np.linalg.norm(v)
    full[comp] = v
    return value, v, float(np.linalg.norm(g.matvec(full)[comp] - value * v))


@pytest.mark.parametrize(
    "f",
    [_random_table(10, 2), _random_table(11, 5), _partial_with_holes(7, 3)],
    ids=["random_10", "random_11", "partial_7"],
)
def test_neighbour_gathers_match_the_matvec_product_bit_for_bit(f, monkeypatch):
    # the gathers add each sum in the bit order of matvec, and the
    # undefined inputs of partial_7 leave sentinel entries in the index
    g = SensitivityGraph(f)
    for comp in g.components():
        monkeypatch.setattr(spectral, "DENSE_MAX_VERTICES", comp.size - 1)
        res = _solve(g, comp)
        value, vector, residual = _matvec_perron(g, comp)
        assert res.value == value and res.residual == residual
        assert np.array_equal(res.vector, vector)


def test_lanczos_basis_holds_only_the_steps_it_takes():
    # both components of this table have about 4,100 vertices and a
    # smaller side of about 2,050, and their solves stop after about 32
    # steps; a basis of LANCZOS_MAX_STEPS + 1 rows up front would alone
    # be twice the bound
    import tracemalloc

    f = _random_table(13, 4)
    tracemalloc.start()
    log = spectral_sensitivity(f).solves
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    side = max(s for _, s, method, _ in log if method == "lanczos")
    assert peak < (spectral.LANCZOS_MAX_STEPS + 1) * side * 8 / 2


def test_lanczos_products_never_touch_the_whole_cube(monkeypatch):
    f = _random_table(10, 2)
    value = spectral_sensitivity(f).value

    def refuse(self, u):
        raise AssertionError("2^n-wide product in the solver")

    monkeypatch.setattr(SensitivityGraph, "matvec", refuse)
    assert spectral_sensitivity(f).value == value


def test_spectrum_solves_name_each_component_solve(monkeypatch):
    steps = []
    lanczos = spectral._lanczos

    def recording(apply, size):
        calls = []

        def counted(u):
            calls.append(None)
            return apply(u)

        out = lanczos(counted, size)
        steps.append(len(calls))
        return out

    monkeypatch.setattr(spectral, "_lanczos", recording)
    f = _random_table(10, 2)
    spec = spectral_sensitivity(f)
    for k in range(len(spec.components)):  # also those that lambda skips
        spec.perron(k)
    log = spec.solves
    expected = []
    for comp in spec.graph.components():
        odd = int(np.count_nonzero(np.bitwise_count(comp) & 1))
        expected.append((comp.size, min(odd, comp.size - odd), "lanczos"))
    assert sorted(entry[:3] for entry in log) == sorted(expected)
    assert [k for *_, k in log] == steps and len(steps) == 2
    log = spectral_sensitivity(named_family("OR", 6)).solves
    assert log == [(7, 1, "dense", 0)] and len(steps) == 2
    spectral_sensitivity(f)  # another Spectrum's solves are its own
    assert len(log) == 1


def test_lambda_is_the_largest_component_value():
    # a random arity-10 table splits into two components above the dense cap
    f = _random_table(10, 2)
    g = SensitivityGraph(f)
    comps = g.components()
    assert len(comps) == 2 and min(c.size for c in comps) > spectral.DENSE_MAX_VERTICES
    values = [_solve(g, c).value for c in comps]
    res = spectral_sensitivity(f)
    assert res.value == max(values)
    top = comps[int(np.argmax(values))]
    full = np.zeros(1 << f.arity)
    full[g.domain_inputs] = res.vector
    assert np.flatnonzero(full).tolist() == top.tolist()
    assert res.residual <= 1e-9 * res.value


def test_component_ties_go_to_the_first_component():
    # x1 AND x2 at arity 3: the graph is two copies of the same path,
    # one per value of x3, so both components give the same eigenvalue
    f = TruthTable(3, 0b10001000)
    g = SensitivityGraph(f)
    first, second = g.components()
    assert _solve(g, first).value == _solve(g, second).value
    res = spectral_sensitivity(f)
    assert np.flatnonzero(res.vector).tolist() == first.tolist()


def test_lanczos_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 3)
    f = _random_table(10, 2)
    g = SensitivityGraph(f)
    with pytest.raises(SpectralConvergenceError) as err:
        _solve(g, g.components()[0])
    assert err.value.achieved_residual > spectral.RITZ_TOL


def test_iterative_handles_large_arity():
    # 8192 inputs, far above the dense cap, but the only component is
    # the 14-vertex star, so lambda is one small dense solve
    f = named_family("OR", 13)
    res = spectral_sensitivity(f)
    assert abs(res.value - math.sqrt(13)) < 1e-8


def test_convergence_error_survives_pickle():
    err = SpectralConvergenceError(1.0, 2.0)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SpectralConvergenceError
    assert str(back) == str(err)
    assert (back.achieved_value, back.achieved_residual) == (1.0, 2.0)


def test_lambda_constant_is_zero():
    for n in (0, 1, 4):
        res = spectral_sensitivity(TruthTable(n, 0))
        assert res.value == 0.0 and res.residual == 0.0
        assert res.vector.shape == (1 << n,) and np.allclose(res.vector, 2 ** (-n / 2))


def test_partial_function_domain_restriction():
    # OR_3 with the all-ones input removed: the star loses no edges
    full = named_family("OR", 3)
    p = PartialTruthTable(3, full.table & ~(1 << 7), (1 << 8) - 1 - (1 << 7))
    assert abs(spectral_sensitivity(p).value - math.sqrt(3)) < 1e-9
    # removing the centre 0 kills every edge
    q = PartialTruthTable(3, full.table & ~1 & 0xFE, 0xFE)
    assert spectral_sensitivity(q).value == 0.0


def test_sensitivity_graph_structure():
    g = SensitivityGraph(named_family("OR", 3))
    assert g.degrees.sum() // 2 == 3
    assert g.degrees.max() == 3
    assert g.degrees[0] == 3
    assert g.is_edge(0, 1) and g.is_edge(0, 2) and g.is_edge(0, 4)
    assert not g.is_edge(1, 2)  # both map to 1
    assert not g.is_edge(0, 3)  # distance 2
    assert g.is_edge(np.int64(0), np.int32(4)) and not g.is_edge(np.int64(1), np.uint8(2))
    with pytest.raises(TypeError):
        g.is_edge(0.0, 1)
    zeros, ones = g.sides()
    assert zeros == [0]
    assert len(ones) == 7


def test_signed_hypercube_b2_matrix():
    b = build_signed_hypercube(2).entries
    want = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, -1, 0],
        ]
    )
    assert np.array_equal(b, want)


@pytest.mark.parametrize("n", range(0, 11))
def test_signing_verifies_exactly(n):
    h = build_signed_hypercube(n)
    rep = verify_signing(h)
    assert rep.square_is_n_identity
    assert rep.trace_is_zero
    assert rep.support_is_hypercube
    assert rep.ok
    assert rep.offending_entry is None
    assert rep.plus_eigenspace_dim == (1 << n) // 2 if n else 1


def test_signing_catches_corruption():
    h = build_signed_hypercube(3)
    bad = h.entries.copy()
    bad[0, 1] = -bad[0, 1]
    rep = verify_signing(SignedHypercube(3, bad))
    assert not rep.square_is_n_identity
    assert rep.offending_entry is not None
    assert not rep.ok

    worse = h.entries.copy()
    worse[0, 3] = 1  # distance-2 support
    rep = verify_signing(SignedHypercube(3, worse))
    assert not rep.support_is_hypercube


def test_signing_rejects_entries_outside_minus_one_to_one():
    h = build_signed_hypercube(3)
    big = h.entries.copy()
    big[5, 4] = 2
    rep = verify_signing(SignedHypercube(3, big))
    assert not rep.square_is_n_identity and not rep.ok
    assert rep.offending_entry == (5, 4)
    assert rep.support_is_hypercube and rep.trace_is_zero


def test_signing_eigenvalues_split_evenly():
    # B^2 = nI and trace 0 force eigenvalues +-sqrt(n), half each
    b = build_signed_hypercube(4).entries.astype(float)
    w = np.linalg.eigvalsh(b)
    assert np.allclose(np.abs(w), 2.0, atol=1e-12)
    assert np.sum(w > 0) == 8


def test_witness_and3():
    w = full_degree_witness(named_family("AND", 3))
    assert w.ratio >= math.sqrt(3) - 1e-9
    assert np.all(w.vector >= 0)
    assert abs(np.linalg.norm(w.vector) - 1) < 1e-12


def test_witness_closed_form_basis_at_arity_11():
    from bfc.tables import parity_partition

    f = named_family("AND", 11)
    w = full_degree_witness(f)
    assert w.ratio >= math.sqrt(11) - 1e-9
    assert np.all(w.vector >= 0) and abs(np.linalg.norm(w.vector) - 1) < 1e-12
    v0, v1 = parity_partition(f)
    assert (w.majority_size, w.minority_size) == (1025, 1023)
    assert np.abs(w.vector[np.asarray(min(v0, v1, key=len))]).max() < 1e-9


def test_witness_parity_majority_is_everything():
    w = full_degree_witness(named_family("PARITY", 4))
    assert w.minority_size == 0
    assert w.majority_size == 16
    assert w.ratio >= 2 - 1e-9


def test_witness_vanishes_on_minority():
    from bfc.tables import parity_partition

    f = named_family("AND", 4)
    v0, v1 = parity_partition(f)
    minority = v0 if len(v0) < len(v1) else v1
    w = full_degree_witness(f)
    for x in minority:
        assert w.vector[x] < 1e-9
    assert w.ratio >= 2 - 1e-9


def test_witness_sampled_full_degree_functions():
    rng = np.random.default_rng(99)
    found = 0
    from bfc.algebraic import degree

    while found < 40:
        n = int(rng.integers(3, 6))
        f = TruthTable(n, int(rng.integers(0, 1 << (1 << n))))
        if degree(f) != n:
            continue
        found += 1
        w = full_degree_witness(f)
        assert w.ratio >= math.sqrt(n) - 1e-9


@pytest.mark.parametrize("family,n", [("AND", 10), ("OR", 11)])
def test_witness_ratio_is_sqrt_n_on_and_or(family, n):
    w = full_degree_witness(named_family(family, n))
    assert abs(w.ratio - math.sqrt(n)) < 1e-12


def test_witness_random_full_degree_arity_10():
    rng = random.Random(5)
    f = TruthTable(10, rng.getrandbits(1 << 10))
    while degree(f) != 10:
        f = TruthTable(10, rng.getrandbits(1 << 10))
    w = full_degree_witness(f)
    assert w.ratio >= math.sqrt(10) - 1e-12
    assert np.all(w.vector >= 0) and abs(np.linalg.norm(w.vector) - 1) < 1e-12


def test_witness_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        full_degree_witness(TruthTable(3, 0b11001100))  # f = x2, degree 1
    with pytest.raises(ValueError):
        full_degree_witness(TruthTable(3, 0))


def test_restrict_to_top_monomial():
    # x1 x2 + x3-free function: restriction keeps exactly the monomial's vars
    f = named_family("XOR-OR", 3)
    g = restrict_to_top_monomial(f)
    from bfc.algebraic import degree

    assert degree(g) == g.arity
    with pytest.raises(ValueError):
        restrict_to_top_monomial(TruthTable(2, 0b1111))


def test_vector_to_csv_shape():
    txt = vector_to_csv(np.array([0.5, 0.25]))
    lines = txt.strip().split("\n")
    assert lines[0] == "index,entry"
    assert lines[1].startswith("0,0.5")
    assert len(lines) == 3


def _graph_tables():
    """All arity-3 tables, then seeded partial tables at arity 4..6."""
    for t in range(256):
        yield TruthTable(3, t)
    rng = np.random.default_rng(2024)
    for n in (4, 5, 6):
        for _ in range(8):
            dom = (rng.random(1 << n) < 0.75).astype(np.uint8)
            val = rng.integers(0, 2, size=1 << n, dtype=np.uint8) & dom
            yield PartialTruthTable(n, from_bit_array(val), from_bit_array(dom))


def _searched_components(f):
    """The vertex sets of G_f's components with an edge, from the
    definition: a depth-first search from each input in ascending order
    over the distance-1 pairs that are both defined and differ in f."""
    n, size = f.arity, 1 << f.arity
    dom = getattr(f, "domain", (1 << size) - 1)
    defined = [(dom >> x) & 1 for x in range(size)]
    value = [(f.table >> x) & 1 for x in range(size)]

    def neighbours(x):
        flips = (x ^ (1 << i) for i in range(n))
        return [y for y in flips if defined[x] and defined[y] and value[x] != value[y]]

    seen: set[int] = set()
    comps = []
    for start in range(size):
        if start in seen or not neighbours(start):
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbours(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _brute_neighbours(f, rows, cols):
    """neighbours(rows, cols) from the definition: one loop per entry."""
    size = 1 << f.arity
    dom = getattr(f, "domain", (1 << size) - 1)
    want = [[len(cols)] * len(rows) for _ in range(f.arity)]
    for j, x in enumerate(rows):
        for i in range(f.arity):
            y = x ^ (1 << i)
            both = (dom >> x) & 1 and (dom >> y) & 1
            if both and (f.table >> x) & 1 != (f.table >> y) & 1 and y in cols:
                want[i][j] = list(cols).index(y)
    return want


def _neighbour_cases():
    rng = np.random.default_rng(31)
    dom = (rng.random(64) < 0.7).astype(np.uint8)
    val = rng.integers(0, 2, 64, dtype=np.uint8) & dom
    yield _random_table(6, seed=5)
    yield PartialTruthTable(6, from_bit_array(val), from_bit_array(dom))
    yield TruthTable(0, 0)
    yield TruthTable(0, 1)
    yield TruthTable(1, 0b10)  # x1: one edge
    yield named_family("OR", 3)


@pytest.mark.parametrize(
    "f", list(_neighbour_cases()), ids=["random_6", "partial_6", "zero_0", "one_0", "x1", "OR_3"]
)
@pytest.mark.parametrize("chunk", [spectral.GATHER_CHUNK, 3])
def test_neighbours_match_a_brute_force_loop(f, chunk, monkeypatch):
    # every pairing of whole, domain, component, side and random vertex
    # sets, most of which G_f's edges leave; chunk 3 runs the blocked build
    monkeypatch.setattr(spectral, "GATHER_CHUNK", chunk)
    g = SensitivityGraph(f)
    size = 1 << f.arity
    rng = np.random.default_rng(size)
    sets = [list(range(size)), g.domain_inputs, [], [size - 1]]
    sets += [sorted(rng.choice(size, k, replace=False).tolist()) for k in (1, size // 2)]
    for comp in g.components():
        odd = popcount_array(comp) & 1 == 1
        sets += [comp.tolist(), comp[odd].tolist(), comp[~odd].tolist()]
    for rows in sets:
        for cols in sets:
            nb = g.neighbours(rows, cols)
            assert nb.dtype == np.intp and nb.shape == (f.arity, len(rows))
            assert nb.tolist() == _brute_neighbours(f, rows, cols)


def test_neighbours_cost_no_cube_wide_map_and_survive_a_failed_call():
    # a table with thousands of small components builds one index per
    # component, so an index over a few vertices must not allocate 2^n
    import tracemalloc

    f = TruthTable(16, random.Random(16).getrandbits(1 << 16))
    g = SensitivityGraph(f)
    comp = g.components()[0][:16].tolist()
    tracemalloc.start()
    g.neighbours(comp, comp)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 << 10  # a 2^16 position map alone is 512 KiB
    small = named_family("XOR-OR", 4)
    g = SensitivityGraph(small)
    with pytest.raises(IndexError):
        g.neighbours([0, 99], list(range(16)))
    for cols in ([0, 1, 2, 3], [5, 9], list(range(16))):
        assert g.neighbours(range(16), cols).tolist() == _brute_neighbours(small, range(16), cols)


def test_graph_build_peaks_near_the_size_it_keeps():
    # the edges are built a row at a time, so the build holds no
    # (arity, 2^n) flip index: 8 MiB at arity 16, 168 MB at arity 20
    import tracemalloc

    f = TruthTable(16, random.Random(16).getrandbits(1 << 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = SensitivityGraph(f)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edges.shape == (16, 1 << 16)
    assert peak - base <= 1.5 * (kept - base)


def test_adjacency_of_a_set_that_the_edges_leave_is_zero():
    # every edge of OR_3 runs from 0, so none joins two of 1, 3, 5, 7
    g = SensitivityGraph(named_family("OR", 3))
    assert np.array_equal(g.adjacency([1, 3, 5, 7]), np.zeros((4, 4)))
    assert np.array_equal(g.adjacency([0, 3, 4]), [[0, 0, 1], [0, 0, 0], [1, 0, 0]])


def test_graph_core_matches_definition():
    rng = np.random.default_rng(7)
    for f in _graph_tables():
        n = f.arity
        size = 1 << n
        dom = getattr(f, "domain", (1 << size) - 1)
        defined = [x for x in range(size) if (dom >> x) & 1]

        def edge(x, y):  # for y = x ^ 2^i
            both = (dom >> x) & 1 and (dom >> y) & 1
            return bool(both) and (f.table >> x) & 1 != (f.table >> y) & 1

        g = SensitivityGraph(f)
        assert g.domain_inputs == defined
        degrees = [sum(edge(x, x ^ (1 << i)) for i in range(n)) for x in range(size)]
        assert g.degrees.tolist() == degrees
        pairs = [
            (x, x ^ (1 << i), i)
            for x in defined
            for i in range(n)
            if x < x ^ (1 << i) and edge(x, x ^ (1 << i))
        ]
        xs, ys, bit = g.pairs()
        assert list(zip(xs.tolist(), ys.tolist(), bit.tolist())) == pairs

        comps = _searched_components(f)
        assert [c.tolist() for c in g.components()] == comps

        a = np.array(
            [[1.0 if (x ^ y).bit_count() == 1 and edge(x, y) else 0.0 for y in defined] for x in defined]
        ).reshape(len(defined), len(defined))
        assert np.array_equal(g.adjacency(), a)
        for comp in comps:
            sub = [defined.index(x) for x in comp]
            assert np.array_equal(g.adjacency(comp), a[np.ix_(sub, sub)])

        # integer entries keep every sum exact, whatever its order
        u = np.zeros(size)
        u[defined] = rng.integers(-5, 6, size=len(defined))
        out = g.matvec(u)
        assert np.array_equal(out[defined], a @ u[defined])
        assert not out[[x for x in range(size) if x not in defined]].any()


def test_components_that_cannot_win_are_not_solved(monkeypatch):
    # G_f has components of 8, 2 and 3 vertices; the first has norm 2,
    # and the later ones have largest degrees 1 and 2, so neither can win
    f = parse_table("4:002F")
    graph = SensitivityGraph(f)
    comps = graph.components()
    assert [c.size for c in comps] == [8, 2, 3]
    solved = [_solve(graph, c) for c in comps]
    first = max(range(len(comps)), key=lambda k: (solved[k].value, -k))
    calls = []

    def counting(block):
        calls.append(block.comp.size)
        return _perron(block)

    monkeypatch.setattr(spectral, "_perron", counting)
    res = spectral_sensitivity(f)
    assert calls == [8]
    assert res.value == solved[first].value
    assert res.residual == solved[first].residual
    expected = np.zeros(16)
    expected[comps[first]] = solved[first].vector
    assert np.array_equal(res.vector, expected)


def _biased_table(n, p, seed):
    rng = np.random.default_rng(seed)
    return TruthTable(n, from_bit_array((rng.random(1 << n) < p).astype(np.uint8)))


def _cycle_before_tree():
    """A partial arity-9 table whose components both have norm 2, computed
    exactly: the 4-cycle x1 XOR x2 on inputs 0..3, and after it the tree
    D~5 (two adjacent centres with two leaves each) at 0b11 << 7.  The
    tree's row-sum bound is 5 against the cycle's 4, so lambda solves the
    tree first, and the cycle, whose largest degree equals that value,
    must still be solved to win the tie."""
    c1 = 0b11 << 7
    c2 = c1 ^ 1 << 2
    ones = [1, 2, c2, c1 ^ 1 << 3, c1 ^ 1 << 4]
    zeros = [0, 3, c1, c2 ^ 1 << 5, c2 ^ 1 << 6]
    return PartialTruthTable(9, sum(1 << x for x in ones), sum(1 << x for x in ones + zeros))


def _spectrum_corpus():
    """The 222 arity-4 NPN classes, the 4-vertex graph properties, seeded
    random and biased tables at arity 5..12, partial tables, and tables
    whose dummy variables make isomorphic components."""
    for rep in np.unique(npn_canonical_array(4)).tolist():
        yield TruthTable(4, rep)
    for prop in enumerate_monotone_properties(4):
        yield prop.table
    for n in range(5, 13):
        for p in (0.02, 0.1, 0.3, 0.5):
            yield _biased_table(n, p, seed=n)
    yield _partial_with_holes(7, 3)
    yield _partial_with_holes(9, 4)
    yield _cycle_before_tree()
    yield TruthTable(3, 0b10001000)  # x1 AND x2: two copies of one path
    yield parse_table("3:AA")  # x1: four single edges
    for seed in range(4):  # a random arity-4 table copied over 3 dummy variables
        low = np.random.default_rng(seed).integers(0, 2, size=16, dtype=np.uint8)
        yield TruthTable(7, from_bit_array(np.tile(low, 8)))


def test_spectrum_is_the_largest_component_value_bit_for_bit():
    # lambda solves in bound order and skips components that cannot win;
    # it must still pick what solving every component picks
    for f in _spectrum_corpus():
        g = SensitivityGraph(f)
        comps = g.components()
        spec = spectral_sensitivity(f)
        if not comps:
            assert spec.value == spec.residual == 0.0
            continue
        solved = [_solve(g, c) for c in comps]
        top = max(range(len(comps)), key=lambda k: (solved[k].value, -k))
        full = np.zeros(1 << f.arity)
        full[comps[top]] = solved[top].vector
        assert spec.value == solved[top].value, f
        assert spec.residual == solved[top].residual, f
        assert np.array_equal(spec.vector, full[g.domain_inputs]), f


def test_collatz_wielandt_bounds_hold_and_never_increase():
    for f in _spectrum_corpus():
        g = SensitivityGraph(f)
        for comp in g.components():
            odd = np.bitwise_count(comp) & 1 == 1
            if 2 * np.count_nonzero(odd) > comp.size:
                odd = ~odd
            b = g.adjacency(comp)[np.ix_(odd, ~odd)]
            square = np.linalg.eigvalsh(b @ b.T)[-1]
            bounds = list(spectral._collatz_wielandt(_Block(g, comp), math.inf))
            assert len(bounds) == spectral.CW_STEPS
            # eigh rounds the exact square of a component with constant
            # row sums (6 for 4:0666) up by an ulp or two; the skip rule's
            # BOUND_MARGIN of 1e-9 is far wider than this 1e-13
            assert min(bounds) * (1 + 1e-13) >= square, f
            assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:])), f


def test_collatz_wielandt_stops_once_no_bound_can_fall_below_the_floor():
    # the Rayleigh quotient at each step is at most lambda^2, so once it
    # reaches the floor no later bound falls below it: the stopped bounds
    # are a prefix of the full run and decide every skip the same way
    steps = full_steps = 0
    for f in _spectrum_corpus():
        g = SensitivityGraph(f)
        for comp in g.components():
            block = _Block(g, comp)
            full = list(spectral._collatz_wielandt(block, math.inf))
            square = full[-1]
            for floor in (0.5 * square, square * (1 - spectral.BOUND_MARGIN), 2 * square):
                bounds = list(spectral._collatz_wielandt(block, floor))
                assert bounds == full[: len(bounds)], f
                assert any(b < floor for b in bounds) == any(b < floor for b in full), f
                steps, full_steps = steps + len(bounds), full_steps + len(full)
    assert steps < full_steps


def test_lambda_prunes_components_that_cannot_win():
    log = [
        solve
        for table in sample_tables(8, 80, 11)
        for solve in spectral_sensitivity(TruthTable(8, table)).solves
    ]
    assert len(log) <= 95  # all 160 components before the bounds
    for f in (_random_table(10, 2), _random_table(13, 20040)):
        assert len(SensitivityGraph(f).components()) == 2
        log = spectral_sensitivity(f).solves
        assert len(log) == 1


def test_each_neighbour_index_is_built_once_per_spectrum(monkeypatch):
    # a random arity-9 table copied over a dummy top variable: G_f has
    # twin 271-vertex components, so the Collatz-Wielandt bound cannot
    # skip the second, and the solve must reuse the bound's two indices
    low = np.random.default_rng(3).integers(0, 2, size=512, dtype=np.uint8)
    f = TruthTable(10, from_bit_array(np.tile(low, 2)))
    calls = []
    neighbours = SensitivityGraph.neighbours

    def recording(self, rows, cols):
        calls.append((np.asarray(rows).tobytes(), np.asarray(cols).tobytes()))
        return neighbours(self, rows, cols)

    monkeypatch.setattr(SensitivityGraph, "neighbours", recording)
    log = spectral_sensitivity(f).solves
    assert [entry[:3] for entry in log] == [(271, 133, "lanczos")] * 2
    assert len(calls) == len(set(calls)) == 6


@pytest.mark.parametrize(
    "f",
    [_biased_table(n, p, seed=n) for n, p in ((12, 0.02), (13, 0.05), (14, 0.02), (14, 0.1))]
    + [_partial_with_holes(12, 5), TruthTable(0, 0), TruthTable(0, 1), TruthTable(1, 0b10)],
    ids=["biased_12", "biased_13", "biased_14", "biased_14_dense", "partial_12", "zero_0", "one_0", "x1"],
)
def test_components_match_a_depth_first_search(f):
    assert [c.tolist() for c in SensitivityGraph(f).components()] == _searched_components(f)
