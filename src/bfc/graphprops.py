"""Monotone graph properties on a few vertices.

A graph on ``n`` labelled vertices is encoded by the C(n,2) unordered
pairs in lexicographic order: pair number k (1-based) is input bit
k-1.  A graph property is a truth table over those bits invariant
under all vertex relabelings; a monotone one never flips from 1 to 0
when an edge is added.

The module checks both conditions, canonicalizes graphs as the least
edge mask over all n! relabelings (``bits.orbit_min`` over
``bits.relabel_maps``), enumerates every nontrivial monotone property
as an upward-closed set of isomorphism classes, and computes the
measure chain (parity degree, degree, spectral sensitivity, decision
depth) that underlies query lower bounds for such properties, judged
by the sweep's own check rows.
Invariance is checked on two generators of the relabelings, the
transposition (0 1) and the n-cycle, not on all n! of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bits
from .report import cap_reason, measure
from .sweep import check_holds
from .tables import TruthTable, format_table

ENUMERATION_MAX_VERTICES = 5
TABLE_MAX_VERTICES = 6
CHAIN_MEASURES = ("deg2", "deg", "lambda", "D")

CSV_HEADER = "n_vertices,property,deg2,deg,lambda,depth,chain_ok"


def edge_arity(n_vertices: int) -> int:
    return n_vertices * (n_vertices - 1) // 2


def pair_list(n_vertices: int) -> list[tuple[int, int]]:
    """Vertex pairs in bit order: bit k holds pair ``pair_list(n)[k]``."""
    return [(i, j) for i in range(n_vertices) for j in range(i + 1, n_vertices)]


def _pair_masks(n_vertices: int) -> list[int]:
    """Pair k as a two-vertex bitmask, the point set of edge bit k."""
    return [(1 << i) | (1 << j) for i, j in pair_list(n_vertices)]


@lru_cache(maxsize=None)
def _vertex_maps(n_vertices: int) -> tuple[tuple[int, ...], ...]:
    """All n! vertex relabelings as ``bits.gather_bits`` maps on edge masks."""
    return bits.relabel_maps(n_vertices, _pair_masks(n_vertices))


def _check_mask(mask: int, n_vertices: int) -> None:
    m = edge_arity(n_vertices)
    if not 0 <= mask < 1 << m:
        raise ValueError(f"edge mask {mask} is outside [0, 2^{m}) for {n_vertices} vertices")


def apply_vertex_permutation(mask: int, n_vertices: int, sigma: tuple[int, ...]) -> int:
    """Relabel the graph ``mask`` by the vertex permutation ``sigma``."""
    _check_mask(mask, n_vertices)
    if sorted(sigma) != list(range(n_vertices)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of range({n_vertices})")
    # out edge {sigma[i], sigma[j]} is in edge {i, j}: gather through sigma^-1
    sigma_inverse = tuple(sorted(range(n_vertices), key=lambda v: sigma[v]))
    return bits.gather_bits(mask, bits.relabel_maps([sigma_inverse], _pair_masks(n_vertices))[0])


def canonical_graph(mask: int, n_vertices: int) -> int:
    """Minimum edge mask over all vertex relabelings."""
    if not 0 <= n_vertices <= TABLE_MAX_VERTICES:
        raise ValueError(
            f"canonical graphs are capped at TABLE_MAX_VERTICES = {TABLE_MAX_VERTICES} vertices"
        )
    _check_mask(mask, n_vertices)
    return bits.orbit_min(mask, _vertex_maps(n_vertices))


def _class_array(n_vertices: int) -> np.ndarray:
    """canonical_graph for every mask at once."""
    xs = np.arange(1 << edge_arity(n_vertices), dtype=np.int64)
    return bits.orbit_min(xs, _vertex_maps(n_vertices))


def is_graph_property(f: TruthTable, n_vertices: int) -> bool:
    """True iff the table is invariant under every vertex relabeling.

    The transposition (0 1) and the n-cycle generate all permutations,
    so invariance under those two relabelings is enough.
    """
    m = edge_arity(n_vertices)
    if f.arity != m:
        raise ValueError(
            f"a property on {n_vertices} vertices needs arity {m}, got {f.arity}"
        )
    if n_vertices > TABLE_MAX_VERTICES:
        raise ValueError(f"graph property tables are capped at {TABLE_MAX_VERTICES} vertices")
    generators = [(1, 0) + tuple(range(2, n_vertices)), tuple(range(1, n_vertices)) + (0,)]
    xs = np.arange(1 << m, dtype=np.int64)
    vals = f.to_bit_array()
    maps = bits.relabel_maps(generators, _pair_masks(n_vertices))
    return all(np.array_equal(vals[bits.gather_bits(xs, g)], vals) for g in maps)


def is_monotone(f: TruthTable) -> bool:
    """True iff no single 0 -> 1 bit flip can decrease the value."""
    for i in range(f.arity):
        low_positions = bits.axis_mask(f.arity, i)
        t_low = f.table & low_positions
        t_high = (f.table >> (1 << i)) & low_positions
        if t_low & ~t_high:
            return False
    return True


@dataclass(frozen=True)
class GraphProperty:
    """A nontrivial monotone graph property."""

    n_vertices: int
    table: TruthTable
    name: str = ""

    @property
    def property_id(self) -> str:
        return self.name or format_table(self.table)


def _class_poset(n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Per edge mask, the index of its isomorphism class, classes taken in
    topological order (by edge count, then by least member); and per
    class, a boolean row marking the classes one edge below it."""
    classes, inverse = np.unique(_class_array(n_vertices), return_inverse=True)
    order = np.lexsort((classes, bits.popcount_array(classes)))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    topo, reps = position[inverse], classes[order]
    below = np.zeros((len(reps), len(reps)), dtype=bool)
    for j in range(edge_arity(n_vertices)):
        lower = np.flatnonzero((reps >> j) & 1 == 0)
        below[topo[reps[lower] | (1 << j)], lower] = True
    return topo, below


def enumerate_monotone_properties(n_vertices: int) -> list[GraphProperty]:
    """Every nontrivial monotone graph property on ``n_vertices`` vertices.

    Extends a list of up-sets of the isomorphism-class poset one class at
    a time, in topological order: a class with a class one edge below it
    in the up-set is forced in; any other class is first left out, then
    put in.  Every up-set but the empty one (all-0) and the full one
    (all-1, the one holding the empty graph) becomes a truth table.
    """
    if not 2 <= n_vertices <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"enumeration supports 2 <= n_vertices <= {ENUMERATION_MAX_VERTICES}")
    topo, below = _class_poset(n_vertices)
    upsets = np.zeros((1, len(below)), dtype=bool)
    for i, under in enumerate(below):
        free = ~(upsets & under).any(axis=1)
        copies = 1 + free
        upsets = np.repeat(upsets, copies, axis=0)
        upsets[:, i] = True
        upsets[(np.cumsum(copies) - copies)[free], i] = False
    upsets = upsets[upsets.any(axis=1) & ~upsets[:, 0]]
    return [
        GraphProperty(n_vertices, TruthTable(edge_arity(n_vertices), bits.from_bit_array(row)))
        for row in upsets[:, topo]
    ]


def _edge_masks(sets: np.ndarray, n_vertices: int, crossing: bool) -> np.ndarray:
    """Per vertex set S (a bitmask), the edge mask of the pairs with both
    ends in S, or with ``crossing`` the pairs with exactly one end in S."""
    out = np.zeros(len(sets), dtype=np.int64)
    for k, pair in enumerate(_pair_masks(n_vertices)):
        ends = sets & pair
        picked = (ends != 0) & (ends != pair) if crossing else ends == pair
        out |= picked.astype(np.int64) << k
    return out


def named_property(name: str, n_vertices: int, clique_size: int | None = None) -> GraphProperty:
    """Build a standard property by name.

    Names: ``has-edge``, ``connectivity``, ``contains-triangle``,
    ``contains-clique`` (requires ``clique_size``), ``min-degree-1``.
    Each is one reduction over all edge masks at once: a graph has
    minimum degree 1 iff its edges cross every single-vertex cut, is
    connected iff they cross every cut {S, V - S} with vertex 0 in S,
    and contains a k-clique iff they cover every pair inside some k-set.
    The result is validated for invariance, monotonicity, and
    nontriviality before being returned.
    """
    if not 2 <= n_vertices <= TABLE_MAX_VERTICES:
        raise ValueError(f"named properties support 2 <= n_vertices <= {TABLE_MAX_VERTICES}")
    if clique_size is not None and name != "contains-clique":
        raise ValueError(f"a clique size applies only to contains-clique, not {name!r}")
    m = edge_arity(n_vertices)
    xs = np.arange(1 << m, dtype=np.int64)[:, None]

    if name == "contains-triangle":
        name, clique_size = "contains-clique", 3
    if name == "has-edge":
        values = xs[:, 0] != 0
    elif name == "connectivity":
        cuts = _edge_masks(np.arange(1, (1 << n_vertices) - 1, 2), n_vertices, crossing=True)
        values = np.all((xs & cuts) != 0, axis=1)
    elif name == "contains-clique":
        if clique_size is None:
            raise ValueError("contains-clique requires a clique size (--clique-size)")
        if not 2 <= clique_size <= n_vertices:
            raise ValueError("contains-clique needs 2 <= clique_size <= n_vertices")
        sets = np.arange(1 << n_vertices)
        sets = sets[np.bitwise_count(sets) == clique_size]
        inside = _edge_masks(sets, n_vertices, crossing=False)
        values = np.any((xs & inside) == inside, axis=1)
    elif name == "min-degree-1":
        cuts = _edge_masks(1 << np.arange(n_vertices), n_vertices, crossing=True)
        values = np.all((xs & cuts) != 0, axis=1)
    else:
        raise ValueError(f"unknown property name {name!r}")

    table = TruthTable(m, bits.from_bit_array(values))
    if not is_graph_property(table, n_vertices):
        raise RuntimeError(f"{name}: table is not permutation-invariant")
    if not is_monotone(table):
        raise RuntimeError(f"{name}: table is not monotone")
    if table.value(0) != 0 or table.value((1 << m) - 1) != 1:
        raise ValueError(f"{name} is trivial on {n_vertices} vertices")
    display = name if name != "contains-clique" else f"contains-clique-{clique_size}"
    return GraphProperty(n_vertices, table, name=display)


@dataclass(frozen=True)
class PropertyChainReport:
    """Measure chain for one property: parity degree up to decision depth."""

    n_vertices: int
    property_id: str
    deg2: int
    deg: int
    spectral: float
    depth: int
    chain_ok: bool

    def to_csv_row(self) -> str:
        return (
            f"{self.n_vertices},{self.property_id},{self.deg2},{self.deg},"
            f"{self.spectral!r},{self.depth},{str(self.chain_ok).lower()}"
        )


def property_chain_report(p: GraphProperty) -> PropertyChainReport:
    """deg2 <= deg and deg <= lambda^2 for a monotone graph property.

    Both are the sweep's check rows, decided by its pass rule at
    ``sweep.DEFAULT_TOLERANCE``: ``deg2<=deg`` exactly, and Huang's
    ``deg<=lambda^2`` within 1e-6 on ``lambda^2``.  D is reported but
    not compared with ``lambda^2``: that inequality fails in general
    (PARITY has ``lambda^2 = n^2 > D = n``).  Above the decision-depth
    cap (arity 10, i.e. 5 vertices) it raises ValueError before
    measuring anything.
    """
    f = p.table
    reason = cap_reason("D", f.arity)
    if reason is not None:
        raise ValueError(f"D of property {p.property_id}: {reason}")
    entries, _ = measure(f, CHAIN_MEASURES)
    m = {name: entry["value"] for name, entry in entries.items()}
    return PropertyChainReport(
        n_vertices=p.n_vertices,
        property_id=p.property_id,
        deg2=m["deg2"],
        deg=m["deg"],
        spectral=m["lambda"],
        depth=m["D"],
        chain_ok=check_holds("deg2<=deg", m) and check_holds("deg<=lambda^2", m),
    )
