"""Single-bit adversary certificates and their cross-checks.

Four equivalent ways to bound (and in fact compute) the spectral
sensitivity of a non-constant function, each with an explicit
certificate object and an independent feasibility verifier.  The
builders read a one-table ``Spectrum`` (its graph is G_f) and its
Perron pairs; the verifiers read only that ``SensitivityGraph``, never
the solver's vector:

* the norm of the 0/1 bipartite block between the two preimages,
* edge weights induced by the principal eigenvector,
* vertex-times-bit weight schemes (a balanced closed form and the
  eigenvector-ratio optimum, built per connected component),
* a semidefinite pair: a primal feasible solution and a dual built
  from any feasible weight scheme.

The semidefinite pair is stored in factored form, indexed by the
defined inputs in ascending order: the primal as its weights z on the
sensitive pairs and its diagonal delta, the dual as one nonnegative
vector r_i per bit with block R_i = r_i r_i^T.  Its verifiers check
closed forms over those factors, with no eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import SensitivityGraph, Spectrum, _zero_one, spectral_sensitivity
from .tables import PartialTruthTable, TruthTable

SUPPORT_EPS = 1e-12
FEAS_SLACK = 1e-9
VALUE_SLACK = 1e-6
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


@dataclass(frozen=True)
class SdpPrimal:
    """Z as its weights on the sensitive pairs and Delta as its diagonal."""

    domain: tuple[int, ...]
    z: tuple[tuple[int, int, float], ...]  # (x, y, Z_xy) with x < y
    delta: np.ndarray  # Delta_xx, indexed like domain
    objective: float


@dataclass(frozen=True)
class SdpDual:
    """The dual bound alpha and the factors of the blocks R_i = r_i r_i^T."""

    domain: tuple[int, ...]
    alpha: float
    r: np.ndarray  # (arity, len(domain)): row i is r_i


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
    q = _zero_one(g.neighbours(ones, zeros), len(zeros))
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
        nb = g.neighbours(comp, comp)  # a component vertex's neighbours all lie in it
        rows, bit = np.nonzero(nb.T < comp.size)
        ratios = v[nb[bit, rows]] / v[rows]
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


def _are_ids(*ids) -> bool:
    """Whether every id is an integer: a float is refused, not truncated."""
    return all(isinstance(i, (int, np.integer)) for i in ids)


def _columns(weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, second, weight) arrays of (int, int, float) triples."""
    cols = np.array(weights, dtype=float).reshape(-1, 3)
    return cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64), cols[:, 2]


def edge_scheme_value(scheme: EdgeWeightScheme) -> float:
    """min of sqrt(wt(x) wt(y)) / w(x, y) over the pairs with w > 0,
    where wt(x) sums the weights at x; 0 if no weight is positive."""
    xs, ys, w = _columns(scheme.weights)
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


def _short_pair(g: SensitivityGraph, w: np.ndarray) -> tuple[int, int] | None:
    """The first sensitive pair (x, bit) in ``g.pairs()`` order with
    w[bit, x] w[bit, x ^ 2^bit] < 1; None if every pair is covered.
    ``w`` is indexed by bit, then by input."""
    xs, ys, bit = g.pairs()
    short = np.flatnonzero(w[bit, xs] * w[bit, ys] < 1.0 - FEAS_SLACK)
    return (int(xs[short[0]]), int(bit[short[0]])) if short.size else None


def verify_vertex_scheme(
    g: SensitivityGraph, scheme: VertexBitWeightScheme
) -> tuple[bool, tuple[int, int] | None]:
    """Feasibility: the scheme has g's arity, every weight is finite,
    nonnegative and on an integer input and bit of g, and
    w(x, i) w(y, i) >= 1 on every sensitive pair (y = x^i).

    Returns (ok, first offending (x, bit)): a bad weight (every weight
    is bad under another arity), else the lower input of a violated pair.
    """
    xs, bit, w = _columns(scheme.weights)
    good = np.isfinite(w) & (w >= 0.0) & (xs >= 0) & (xs < g.values.size)
    good &= (bit >= 0) & (bit < g.arity) & (scheme.arity == g.arity)
    good &= np.array([_are_ids(x, i) for x, i, _ in scheme.weights], dtype=bool)
    if not good.all():
        x, i, _ = scheme.weights[int(np.argmin(good))]
        return False, (x, i)
    full = np.zeros((g.arity, g.values.size))
    full[bit, xs] = w
    violated = _short_pair(g, full)
    return violated is None, violated


def verify_edge_scheme(
    g: SensitivityGraph, scheme: EdgeWeightScheme
) -> tuple[bool, tuple[int, int] | None]:
    """Support check: the scheme has g's arity, and every weight is
    finite, nonnegative and on a sensitive pair of integer inputs."""
    for x, y, w in scheme.weights:
        weight_ok = scheme.arity == g.arity and math.isfinite(w) and w >= 0.0
        if not (weight_ok and _are_ids(x, y) and g.is_edge(x, y)):
            return False, (x, y)
    return True, None


def sdp_primal_certificate(spec: Spectrum) -> SdpPrimal:
    """Feasible primal pair (Z, Delta) with objective <Z, A> = lambda(f).

    Z = A o vv^T and Delta = I o vv^T for the unit principal eigenvector
    v: z(x, y) = v(x) v(y) on every sensitive pair, delta = v^2, and the
    objective counts each pair twice.  Each 2 x 2 block of Delta - Z o D_i
    is [[v(x)^2, -v(x) v(y)], [-v(x) v(y), v(y)^2]], which is PSD.
    """
    g = _sdp_graph(spec, "the semidefinite primal")
    v = np.zeros(g.values.size)
    v[g.domain_inputs] = spec.vector
    xs, ys, _ = g.pairs()
    z = v[xs] * v[ys]
    return SdpPrimal(
        domain=tuple(g.domain_inputs),
        z=tuple(zip(xs.tolist(), ys.tolist(), z.tolist())),
        delta=spec.vector * spec.vector,
        objective=2.0 * float(z.sum()),
    )


def verify_sdp_primal(g: SensitivityGraph, cert: SdpPrimal) -> bool:
    """Feasibility of (Z, Delta) over g's domain, and the claimed
    objective against <Z, A> = 2 sum z.

    ``verify_edge_scheme`` checks that z is finite, nonnegative and on
    G_f; each pair must appear once, as (x, y) with x < y.  Z o D_i is
    then a weighted matching along bit i, so Delta - Z o D_i is a sum of
    2 x 2 blocks [[delta_x, -z], [-z, delta_y]] and 1 x 1 blocks delta_x:
    it is PSD for every i exactly when delta >= 0 and
    z^2 <= delta_x delta_y on every pair.
    """
    delta = np.asarray(cert.delta, dtype=float)
    domain_ok = _are_ids(*cert.domain) and cert.domain == tuple(g.domain_inputs)
    if not domain_ok or delta.shape != (len(cert.domain),):
        return False
    if not verify_edge_scheme(g, EdgeWeightScheme(g.arity, cert.z))[0]:
        return False
    xs, ys, z = _columns(cert.z)
    if np.any(xs >= ys) or np.unique(xs * g.values.size + ys).size < z.size:
        return False
    if not (np.isfinite(delta).all() and math.isfinite(cert.objective)):
        return False
    if abs(2.0 * z.sum() - cert.objective) > FEAS_SLACK or abs(delta.sum() - 1.0) > FEAS_SLACK:
        return False
    d = np.zeros(g.values.size)
    d[g.domain_inputs] = delta
    return bool((delta >= 0.0).all() and (z * z <= d[xs] * d[ys] * (1.0 + FEAS_SLACK)).all())


def sdp_dual_certificate(spec: Spectrum, scheme: VertexBitWeightScheme) -> SdpDual:
    """Dual blocks R_i = r_i r_i^T from a feasible vertex-bit scheme.

    r_i = sqrt(w(., i)); the dual objective alpha is the largest weight
    row sum.  An infeasible scheme is rejected with the violated pair.
    """
    g = _sdp_graph(spec, "the semidefinite dual")
    ok, violated = verify_vertex_scheme(g, scheme)
    if not ok:
        raise ValueError(f"infeasible weight scheme at (input, bit) {violated}")
    xs, bit, w = _columns(scheme.weights)
    r = np.zeros((g.arity, g.values.size))
    r[bit, xs] = np.sqrt(w)
    return SdpDual(
        domain=tuple(g.domain_inputs),
        alpha=vertex_scheme_value(scheme),
        r=r[:, g.domain_inputs],
    )


def verify_sdp_dual(g: SensitivityGraph, cert: SdpDual) -> bool:
    """Feasibility of a finite alpha and the blocks R_i = r_i r_i^T over
    g's domain, each PSD as an outer product.

    r >= 0 makes sum_i R_i o D_i >= 0 = A off the edges; on the diagonal
    sum_i r_i(x)^2 <= alpha, and on every sensitive pair (x, x^i) the
    cover r_i(x) r_i(x^i) >= 1.
    """
    r = np.asarray(cert.r, dtype=float)
    domain_ok = _are_ids(*cert.domain) and cert.domain == tuple(g.domain_inputs)
    if not domain_ok or r.shape != (g.arity, len(cert.domain)):
        return False
    if not (math.isfinite(cert.alpha) and np.isfinite(r).all() and (r >= 0.0).all()):
        return False
    if np.any((r * r).sum(axis=0) > cert.alpha + FEAS_SLACK):
        return False
    w = np.zeros((g.arity, g.values.size))
    w[:, g.domain_inputs] = r
    return _short_pair(g, w) is None


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
    spec = spectral_sensitivity(f)
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
    """Serialize a certificate with its verdict and, where the verdict is
    true, its claimed value (null on a refused scheme)."""
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
            "claimed_value": vertex_scheme_value(cert) if ok else None,
            "verdict": ok,
            "violated_pair": list(violated) if violated else None,
        }
    if isinstance(cert, SdpPrimal):
        ok = verify_sdp_primal(g, cert)
        return {
            "scheme": "sdp-primal",
            "domain": list(cert.domain),
            "z": [[x, y, w] for x, y, w in cert.z],
            "delta": cert.delta.tolist(),
            "claimed_value": cert.objective if ok else None,
            "verdict": ok,
        }
    if isinstance(cert, SdpDual):
        return {
            "scheme": "sdp-dual",
            "domain": list(cert.domain),
            "alpha": cert.alpha,
            "r": cert.r.tolist(),
            "verdict": verify_sdp_dual(g, cert),
        }
    raise TypeError(f"unknown certificate type {type(cert).__name__}")
