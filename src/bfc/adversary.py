"""Single-bit adversary certificates and their cross-checks.

Four equivalent ways to bound (and in fact compute) the spectral
sensitivity of a non-constant function, each with an explicit
certificate object and an independent feasibility verifier.  The
builders read one ``Spectrum`` (G_f and its Perron pairs); the
verifiers read only its ``SensitivityGraph``, never the solver's vector:

* the norm of the 0/1 bipartite block between the two preimages,
* edge weights induced by the principal eigenvector,
* vertex-times-bit weight schemes (a balanced closed form and the
  eigenvector-ratio optimum, built per connected component),
* a semidefinite pair: a primal feasible solution and a dual built
  from any feasible weight scheme.

Matrices are indexed by the defined inputs in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import SensitivityGraph, Spectrum
from .tables import PartialTruthTable, TruthTable

SUPPORT_EPS = 1e-12
FEAS_SLACK = 1e-9
VALUE_SLACK = 1e-6
PSD_SLACK = 1e-8
SDP_MAX_ARITY = 8


@dataclass(frozen=True)
class BipartiteBlock:
    """0/1 incidence of sensitive pairs, zeros side by ones side."""

    zero_inputs: tuple[int, ...]
    one_inputs: tuple[int, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class EdgeWeightScheme:
    """Symmetric nonnegative weights on sensitive distance-1 pairs."""

    arity: int
    weights: tuple[tuple[int, int, float], ...]  # (x, y, w) with x < y


@dataclass(frozen=True)
class VertexBitWeightScheme:
    """Weights w(x, i) on input/bit pairs; bits are 0-based."""

    arity: int
    weights: tuple[tuple[int, int, float], ...]  # (x, bit, w)
    note: str = ""

    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(x, i): w for x, i, w in self.weights}


@dataclass(frozen=True)
class SdpPrimal:
    domain: tuple[int, ...]
    z: np.ndarray
    delta: np.ndarray
    objective: float


@dataclass(frozen=True)
class SdpDual:
    domain: tuple[int, ...]
    alpha: float
    r_blocks: tuple[np.ndarray, ...]  # one PSD block per bit


def _require_nonconstant(g: SensitivityGraph, what: str) -> None:
    zeros, ones = g.sides()
    if not zeros or not ones:
        raise ValueError(f"{what} needs a non-constant function")


def _sdp_graph(spec: Spectrum, what: str) -> SensitivityGraph:
    g = spec.graph
    if g.arity > SDP_MAX_ARITY:
        raise ValueError(f"semidefinite certificates support arity <= {SDP_MAX_ARITY}")
    _require_nonconstant(g, what)
    return g


def bipartite_block(f: TruthTable | PartialTruthTable) -> BipartiteBlock:
    g = SensitivityGraph(f)
    zeros, ones = g.sides()
    side_pos = np.zeros(g.values.size, dtype=np.int64)
    side_pos[zeros] = np.arange(len(zeros))
    side_pos[ones] = np.arange(len(ones))
    xs, ys, _ = g.pairs()
    x_is_zero = ~g.values[xs]
    q = np.zeros((len(zeros), len(ones)))
    q[side_pos[np.where(x_is_zero, xs, ys)], side_pos[np.where(x_is_zero, ys, xs)]] = 1.0
    return BipartiteBlock(tuple(zeros), tuple(ones), q)


def bipartite_block_value(f: TruthTable | PartialTruthTable) -> float:
    """||Q|| over the full preimages; 0 for constant functions."""
    block = bipartite_block(f)
    if block.matrix.size == 0:
        return 0.0
    return float(np.linalg.svd(block.matrix, compute_uv=False)[0])


def edge_scheme_from_eigenvector(spec: Spectrum) -> tuple[EdgeWeightScheme, float]:
    """w(x, y) = v(x) v(y) on sensitive pairs, v the principal eigenvector.

    The certified value is the minimum over supported pairs of
    sqrt(wt(x) wt(y)) / w(x, y); with the exact eigenvector this ratio
    is the spectral sensitivity itself on every supported pair.
    """
    g = spec.graph
    _require_nonconstant(g, "the edge-weight scheme")
    v = np.zeros(g.values.size)
    v[g.domain_inputs] = spec.vector
    xs, ys, _ = g.pairs()
    vx, vy = v[xs], v[ys]
    keep = (vx > SUPPORT_EPS) & (vy > SUPPORT_EPS)
    if not keep.any():
        raise ValueError("principal eigenvector has empty support on the edges")
    xs, ys, w = xs[keep], ys[keep], vx[keep] * vy[keep]
    scheme = EdgeWeightScheme(g.arity, tuple(zip(xs.tolist(), ys.tolist(), w.tolist())))
    return scheme, edge_scheme_value(scheme)


def balanced_vertex_scheme(spec: Spectrum) -> tuple[VertexBitWeightScheme, float]:
    """The closed-form scheme: sqrt(s0/s1) on ones, sqrt(s1/s0) on zeros.

    Weights are placed on sensitive coordinates only; insensitive
    coordinates are zeroed (recorded in the scheme note).  The value is
    at most sqrt(s0 * s1).
    """
    g = spec.graph
    _require_nonconstant(g, "the balanced scheme")
    zeros, ones = g.sides()
    s0 = int(g.degrees[zeros].max())
    s1 = int(g.degrees[ones].max())
    entries: tuple = ()
    if s0 > 0 and s1 > 0:
        xs, ys, bit = g.pairs()
        # exactly one endpoint of a sensitive pair is a one-input
        w_one, w_zero = math.sqrt(s0 / s1), math.sqrt(s1 / s0)
        wx = np.where(g.values[xs], w_one, w_zero)
        wy = np.where(g.values[xs], w_zero, w_one)
        inputs = np.column_stack((xs, ys)).ravel().tolist()
        weights = np.column_stack((wx, wy)).ravel().tolist()
        entries = tuple(zip(inputs, np.repeat(bit, 2).tolist(), weights))
    scheme = VertexBitWeightScheme(
        g.arity, entries, note="insensitive coordinates carry zero weight"
    )
    return scheme, vertex_scheme_value(scheme)


def optimal_vertex_scheme(spec: Spectrum) -> tuple[VertexBitWeightScheme, float]:
    """w(x, i) = v(x^i) / v(x) from each component's principal eigenvector.

    Within a connected component the eigenvector is strictly positive,
    the products on sensitive pairs equal 1 exactly, and the row sums
    equal the component's spectral norm; the global value is therefore
    the spectral sensitivity itself.
    """
    g = spec.graph
    _require_nonconstant(g, "the eigenvector scheme")
    entries = []
    for k, comp in enumerate(spec.components):
        v = spec.perron(k).vector
        if v.min() <= 0.0:
            raise ArithmeticError(
                "component eigenvector has a zero entry; cannot form weight ratios"
            )
        # every neighbour of a component vertex lies in the component
        rows, bit = np.nonzero(g.edges[:, comp].T)
        cols = np.searchsorted(comp, comp[rows] ^ (1 << bit))
        ratios = v[cols] / v[rows]
        entries.extend(zip(comp[rows].tolist(), bit.tolist(), ratios.tolist()))
    scheme = VertexBitWeightScheme(
        g.arity, tuple(entries), note="per-component principal-eigenvector ratios"
    )
    value = vertex_scheme_value(scheme)
    if value > spec.value + VALUE_SLACK:
        raise ArithmeticError(
            f"scheme value {value:.12g} exceeds the spectral sensitivity {spec.value:.12g}"
        )
    return scheme, value


def vertex_scheme_value(scheme: VertexBitWeightScheme) -> float:
    sums: dict[int, float] = {}
    for x, _i, w in scheme.weights:
        sums[x] = sums.get(x, 0.0) + w
    return max(sums.values(), default=0.0)


def edge_scheme_value(scheme: EdgeWeightScheme) -> float:
    """min of sqrt(wt(x) wt(y)) / w(x, y) over the pairs with w > 0,
    where wt(x) sums the weights at x; 0 if no weight is positive."""
    cols = np.array(scheme.weights, dtype=float).reshape(-1, 3)
    xs, ys, w = cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64), cols[:, 2]
    # the builder's pairs run in ascending x, so each vertex's sum adds its
    # lower neighbours' weights first, as a running sum over the pairs would
    wt = np.zeros(1 << scheme.arity)
    np.add.at(wt, ys, w)
    np.add.at(wt, xs, w)
    keep = w > 0
    if not keep.any():
        return 0.0
    with np.errstate(invalid="ignore"):  # negative sums on an invalid scheme
        return float((np.sqrt(wt[xs[keep]] * wt[ys[keep]]) / w[keep]).min())


def verify_vertex_scheme(
    g: SensitivityGraph, scheme: VertexBitWeightScheme, slack: float = FEAS_SLACK
) -> tuple[bool, tuple[int, int] | None]:
    """Feasibility: every weight is finite and nonnegative, and
    w(x, i) w(y, i) >= 1 on every sensitive pair (y = x^i).

    Returns (ok, first offending (x, bit)): a bad weight, else the lower
    input of a violated pair.
    """
    for x, i, w in scheme.weights:
        if not (math.isfinite(w) and w >= 0.0):
            return False, (x, i)
    wm = scheme.weight_map()
    xs, ys, bit = g.pairs()
    for x, y, i in zip(xs.tolist(), ys.tolist(), bit.tolist()):
        if wm.get((x, i), 0.0) * wm.get((y, i), 0.0) < 1.0 - slack:
            return False, (x, i)
    return True, None


def verify_edge_scheme(
    g: SensitivityGraph, scheme: EdgeWeightScheme
) -> tuple[bool, tuple[int, int] | None]:
    """Support check: finite weights w >= 0, only on sensitive
    distance-1 pairs."""
    for x, y, w in scheme.weights:
        if not (math.isfinite(w) and w >= 0.0) or not g.is_edge(x, y):
            return False, (x, y)
    return True, None


def _bit_difference_masks(domain: tuple[int, ...], arity: int) -> list[np.ndarray]:
    idx = np.asarray(domain)
    return [((idx[:, None] ^ idx[None, :]) >> i) & 1 for i in range(arity)]


def _fits(g: SensitivityGraph, cert: SdpPrimal | SdpDual, blocks: list[np.ndarray]) -> bool:
    """True iff the certificate is labelled by g's domain and every
    block is a matrix over it."""
    side = len(g.domain_inputs)
    return cert.domain == tuple(g.domain_inputs) and all(
        np.shape(b) == (side, side) for b in blocks
    )


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def sdp_primal_certificate(spec: Spectrum) -> SdpPrimal:
    """Feasible primal pair (Z, Delta) with objective <Z, A> = lambda(f).

    Z = A o vv^T and Delta = I o vv^T for the unit principal eigenvector
    v; Delta - Z o D_i is positive semidefinite by the Schur product
    theorem because I - A o D_i is (a partial matching has eigenvalues
    in [-1, 1]).
    """
    g = _sdp_graph(spec, "the semidefinite primal")
    a = g.adjacency()
    v = spec.vector
    outer = np.outer(v, v)
    z = a * outer
    delta = np.diag(v * v)
    return SdpPrimal(
        domain=tuple(g.domain_inputs),
        z=z,
        delta=delta,
        objective=float(np.sum(z * a)),
    )


def verify_sdp_primal(g: SensitivityGraph, cert: SdpPrimal, slack: float = PSD_SLACK) -> bool:
    """Feasibility of (Z, Delta) over g's domain, and the claimed
    objective against <Z, A> recomputed from g's adjacency."""
    if not _fits(g, cert, [cert.z, cert.delta]):
        return False
    z, delta = cert.z, cert.delta
    if not (np.isfinite(z).all() and np.isfinite(delta).all() and math.isfinite(cert.objective)):
        return False
    a = g.adjacency()
    if abs(float(np.sum(z * a)) - cert.objective) > FEAS_SLACK:
        return False
    if not np.allclose(z, z.T, atol=1e-12):
        return False
    if z.min() < -1e-12:
        return False
    if np.any((z > 1e-12) & (a == 0.0)):
        return False
    if abs(np.trace(delta) - 1.0) > 1e-9:
        return False
    if np.any(np.diag(delta) < -1e-12):
        return False
    for d in _bit_difference_masks(cert.domain, g.arity):
        m = delta - z * d
        if _min_eig(m) < -slack * (1.0 + float(np.abs(m).max())):
            return False
    return True


def sdp_dual_certificate(spec: Spectrum, scheme: VertexBitWeightScheme) -> SdpDual:
    """Dual blocks R_i from a feasible vertex-bit scheme.

    R_i is the outer product of sqrt(w(., i)); the dual objective alpha
    is the largest weight row sum.  An infeasible scheme is rejected
    with the violated pair.
    """
    g = _sdp_graph(spec, "the semidefinite dual")
    ok, violated = verify_vertex_scheme(g, scheme)
    if not ok:
        raise ValueError(f"infeasible weight scheme at (input, bit) {violated}")
    dom = tuple(g.domain_inputs)
    wm = scheme.weight_map()
    blocks = []
    for i in range(g.arity):
        r = np.sqrt([wm.get((x, i), 0.0) for x in dom])
        blocks.append(np.outer(r, r))
    return SdpDual(domain=dom, alpha=vertex_scheme_value(scheme), r_blocks=tuple(blocks))


def verify_sdp_dual(g: SensitivityGraph, cert: SdpDual, slack: float = FEAS_SLACK) -> bool:
    """Feasibility of a finite alpha and PSD blocks R_i over g's domain:
    diagonal sums at most alpha and sum_i R_i o D_i covering A."""
    if len(cert.r_blocks) != g.arity or not _fits(g, cert, list(cert.r_blocks)):
        return False
    if not (math.isfinite(cert.alpha) and all(np.isfinite(r).all() for r in cert.r_blocks)):
        return False
    a = g.adjacency()
    diag_sum = np.zeros(len(cert.domain))
    cover = np.zeros_like(a)
    for i, (r, d) in enumerate(zip(cert.r_blocks, _bit_difference_masks(cert.domain, g.arity))):
        if _min_eig(r) < -PSD_SLACK * (1.0 + float(np.abs(r).max())):
            return False
        diag_sum += np.diag(r)
        cover += r * d
    if np.any(diag_sum > cert.alpha + slack):
        return False
    if np.any(cover < a - slack):
        return False
    return True


@dataclass(frozen=True)
class EquivalenceReport:
    values: dict[str, float] = field(default_factory=dict)
    max_discrepancy: float = 0.0
    verdicts: dict[str, bool] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.verdicts.values())


def verify_equivalences(f: TruthTable | PartialTruthTable) -> EquivalenceReport:
    """Compute all certificate values for one function and cross-check.

    Reported values: spectral sensitivity, the bipartite-block norm,
    the eigenvector edge scheme, the optimal vertex scheme, and the
    semidefinite primal objective and dual bound.  Verdicts hold the
    outcome of every feasibility verifier plus primal <= dual.
    """
    spec = Spectrum(f)
    edge_scheme, edge_value = edge_scheme_from_eigenvector(spec)
    vertex_scheme, vertex_value = optimal_vertex_scheme(spec)
    primal = sdp_primal_certificate(spec)
    dual = sdp_dual_certificate(spec, vertex_scheme)
    values = {
        "spectral": spec.value,
        "bipartite_block": bipartite_block_value(f),
        "edge_scheme": edge_value,
        "vertex_scheme": vertex_value,
        "sdp_primal": primal.objective,
        "sdp_dual": dual.alpha,
    }
    keys = list(values)
    max_disc = max(
        abs(values[a] - values[b]) for i, a in enumerate(keys) for b in keys[i + 1 :]
    )
    verdicts = {
        "edge_scheme_feasible": verify_edge_scheme(spec.graph, edge_scheme)[0],
        "vertex_scheme_feasible": verify_vertex_scheme(spec.graph, vertex_scheme)[0],
        "sdp_primal_feasible": verify_sdp_primal(spec.graph, primal),
        "sdp_dual_feasible": verify_sdp_dual(spec.graph, dual),
        "weak_duality": primal.objective <= dual.alpha + VALUE_SLACK,
    }
    return EquivalenceReport(values=values, max_discrepancy=max_disc, verdicts=verdicts)


def certificate_json(g: SensitivityGraph, cert) -> dict:
    """Serialize a certificate with its claimed value and verdict."""
    if isinstance(cert, EdgeWeightScheme):
        ok, _ = verify_edge_scheme(g, cert)
        return {
            "scheme": "edge-weights",
            "arity": cert.arity,
            "weights": [[x, y, w] for x, y, w in cert.weights],
            "claimed_value": edge_scheme_value(cert) if ok else None,
            "verdict": ok,
        }
    if isinstance(cert, VertexBitWeightScheme):
        ok, violated = verify_vertex_scheme(g, cert)
        return {
            "scheme": "vertex-bit-weights",
            "arity": cert.arity,
            "note": cert.note,
            "weights": [[x, i, w] for x, i, w in cert.weights],
            "claimed_value": vertex_scheme_value(cert),
            "verdict": ok,
            "violated_pair": list(violated) if violated else None,
        }
    if isinstance(cert, SdpPrimal):
        return {
            "scheme": "sdp-primal",
            "domain": list(cert.domain),
            "z": cert.z.tolist(),
            "delta": cert.delta.tolist(),
            "claimed_value": cert.objective,
            "verdict": verify_sdp_primal(g, cert),
        }
    if isinstance(cert, SdpDual):
        return {
            "scheme": "sdp-dual",
            "domain": list(cert.domain),
            "alpha": cert.alpha,
            "r_blocks": [r.tolist() for r in cert.r_blocks],
            "verdict": verify_sdp_dual(g, cert),
        }
    raise TypeError(f"unknown certificate type {type(cert).__name__}")
