"""Spectral sensitivity: the operator norm of the sensitivity graph.

The sensitivity graph G_f has the (defined) inputs as vertices and the
Hamming-distance-1 pairs on which f differs as edges.  Its adjacency
norm lambda(f) sits between sensitivity-type and degree-type measures;
this module computes it, builds the signed hypercube whose eigenvectors
certify deg(f) <= lambda(f)^2, and extracts those certifying vectors.

lambda is the largest top eigenvalue over the components of G_f; one
``Spectrum`` per function solves each component at most once by
``_perron``, in descending order of a free bound on its norm, and skips
a component that cannot win: by its largest degree, or by a
Collatz–Wielandt bound that falls below lambda^2 by a relative margin
far wider than any rounding, so the result is bit for bit that of
solving them all.  G_f is a subgraph of the hypercube, so a component
splits by input parity into two sides with every edge between them, and
lambda is the top singular value of the block B from the smaller side
to the other.  One ``_Block``, shared by the bounds and the solves,
holds B's two products for components of one side shape: dense up to
DENSE_MAX_VERTICES component vertices, gathers through neighbour
indices above, never 2^n wide.  ``spectral_sensitivities`` runs the
same loop over a stack of tables of one arity, on one union graph, so
that one batched dense ``eigh`` serves every component of a shape; each
table's lambda is bit for bit its ``Spectrum``'s.  The signed
hypercube's +sqrt(n) eigenspace is taken in closed form, with no
eigendecomposition.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bits
from .algebraic import degree, mobius_coefficients
from .tables import PartialTruthTable, Restriction, TruthTable, parity_partition, restrict

DENSE_MAX_VERTICES = 256
SIGNED_HYPERCUBE_MAX_N = 12
LANCZOS_MAX_STEPS = 500
RITZ_TOL = 1e-12
WITNESS_SLACK = 1e-9
GATHER_CHUNK = 1 << 14  # columns per block of a neighbour index build or gather
CW_STEPS = 8  # power steps of a component's Collatz–Wielandt bound
BOUND_MARGIN = 1e-9  # a bound must fall this far below lambda^2 to skip a component


class SpectralConvergenceError(RuntimeError):
    """Lanczos reached LANCZOS_MAX_STEPS with the Ritz residual still
    above RITZ_TOL * max(1, value), where value is the operator's top
    Ritz value (lambda^2 for a component's Gram operator)."""

    def __init__(self, achieved_value: float, achieved_residual: float):
        self.achieved_value = achieved_value
        self.achieved_residual = achieved_residual
        super().__init__(
            f"no convergence: value {achieved_value:.12g}, "
            f"residual {achieved_residual:.3g}"
        )

    def __reduce__(self):
        # BaseException pickles only the message; rebuild from both fields
        # so the error survives the trip out of a sweep worker.
        return type(self), (self.achieved_value, self.achieved_residual)


@dataclass(frozen=True)
class SpectralResult:
    """Norm, a nonnegative unit top eigenvector (domain-indexed), the
    verified residual ||A v - value * v||, and how it was solved: the
    size of the smaller parity side and the Lanczos steps (0 when dense)."""

    value: float
    vector: np.ndarray
    residual: float
    side: int
    steps: int


def _unpack(f: TruthTable | PartialTruthTable | np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(arity, values, defined), the last two flat bool arrays over the vertices."""
    if isinstance(f, np.ndarray):
        values = f.astype(bool).reshape(-1)
        return f.shape[1].bit_length() - 1, values, np.ones(values.size, dtype=bool)
    values = bits.to_bit_array(f.table, f.arity).astype(bool)
    if isinstance(f, PartialTruthTable):
        return f.arity, values, bits.to_bit_array(f.domain, f.arity).astype(bool)
    return f.arity, values, np.ones(values.size, dtype=bool)


class SensitivityGraph:
    """G_f over the defined inputs, built once as numpy arrays.

    ``edges[i, x]`` is True when (x, x ^ 2^i) is an edge, ``degrees[x]``
    counts the edges at x, and ``values`` / ``defined`` unpack the table
    and the domain.  Every other view (pairs, components, adjacency,
    matvec) is read off these arrays, every neighbour position off
    ``neighbours``.

    A ``(k, 2^n)`` array of 0/1 values in place of f stands for k total
    tables of arity n: the graph is the union of theirs, input x of
    table t being vertex ``t 2^n + x``.  A bit flip touches only the low
    n bits, so every edge stays inside its own table.
    """

    def __init__(self, f: TruthTable | PartialTruthTable | np.ndarray):
        self.arity, self.values, self.defined = _unpack(f)
        self._flips = (1 << np.arange(self.arity))[:, None]  # 2^i in row i
        flip = np.arange(self.values.size) ^ self._flips
        self.edges = (self.values != self.values[flip]) & self.defined & self.defined[flip]
        self.degrees = self.edges.sum(axis=0)
        self.domain_inputs = np.flatnonzero(self.defined).tolist()
        self._positions = np.zeros(self.values.size, dtype=np.intp)  # 0 between neighbours calls

    def is_edge(self, x: int, y: int) -> bool:
        """Whether (x, y) is an edge, for Python or numpy integers."""
        d = x ^ y
        size = self.values.size
        if not (0 <= x < size and 0 <= y < size) or d == 0 or d & (d - 1):
            return False
        return bool(self.edges[int(d).bit_length() - 1, x])

    def sides(self) -> tuple[list[int], list[int]]:
        """Defined inputs split by function value (zeros, ones)."""
        zeros = np.flatnonzero(self.defined & ~self.values).tolist()
        ones = np.flatnonzero(self.values).tolist()
        return zeros, ones

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge once as arrays (x, y, bit) with x < y = x ^ 2^bit,
        ordered by x, then bit."""
        up = self.edges.T.copy()  # up[x, i]: (x, x ^ 2^i) is an edge
        for i in range(self.arity):
            up.reshape(-1, 2, 1 << i, self.arity)[:, 1, :, i] = False  # keep x < x ^ 2^i
        xs, bit = np.divmod(np.flatnonzero(up), self.arity)
        ys = np.left_shift(1, bit)
        return xs, np.bitwise_xor(xs, ys, out=ys), bit

    def components(self, pairs: tuple[np.ndarray, ...] | None = None) -> list[np.ndarray]:
        """Vertex sets of the components with at least one edge, each
        ascending, ordered by least member.  ``pairs`` is ``self.pairs()``
        when the caller has it already.

        Every vertex starts as its own label.  A round hooks the larger
        label of each edge's two ends onto the smaller (``np.minimum.at``),
        then jumps pointers (label <- label[label]) until no label
        changes, and rounds repeat until every edge's ends share a label
        (two rounds on random tables).  A label only ever moves to a
        smaller vertex of the same component, so each component ends
        labelled by its least vertex.
        """
        order, cuts = self._component_order(pairs)
        return [order[a:b] for a, b in zip(cuts, cuts[1:])]

    def _component_order(self, pairs: tuple | None) -> tuple[np.ndarray, list[int]]:
        """The vertices of every component, one after the other in the
        order of ``components``, and where each component starts, then
        the end."""
        xs, ys = (self.pairs() if pairs is None else pairs)[:2]
        label = np.arange(self.values.size, dtype=np.int32)  # MAX_ARITY keeps inputs below 2^31
        while True:
            lx, ly = label[xs], label[ys]
            if (lx == ly).all():
                break
            hi = np.maximum(lx, ly)
            np.minimum.at(label, hi, np.minimum(lx, ly, out=lx))
            while not ((jumped := label[label]) == label).all():
                label = jumped
        active = np.flatnonzero(self.degrees)
        order = active[np.argsort(label[active], kind="stable")]
        if not order.size:
            return order, [0]
        return order, [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), order.size]

    def neighbours(self, rows: list[int] | np.ndarray, cols: list[int] | np.ndarray) -> np.ndarray:
        """The (arity, len(rows)) intp index whose entry [i, j] is the
        position in the vertices ``cols`` of rows[j] ^ 2^i when that pair
        is an edge, and len(cols), the zero pad of ``_gather``, when it is
        not or when that neighbour lies outside ``cols``.  It borrows the
        graph's position map (one graph per thread), so costs no 2^n term."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        nb, pos = np.zeros((self.arity, rows.size), dtype=np.intp), self._positions
        pos[cols] = np.arange(-cols.size, 0)  # position - len(cols); 0 outside cols
        try:
            for lo in range(0, rows.size, GATHER_CHUNK):
                part = rows[lo : lo + GATHER_CHUNK]
                hit = self.edges[:, part]
                np.copyto(nb[:, lo : lo + GATHER_CHUNK], pos[part ^ self._flips], where=hit)
        finally:
            pos[cols] = 0
        nb += cols.size
        return nb

    def adjacency(self, vertices: list[int] | np.ndarray | None = None) -> np.ndarray:
        """Dense adjacency over ``vertices`` (ascending; default: every
        defined input)."""
        if vertices is None:
            vertices = self.domain_inputs
            if len(vertices) > DENSE_MAX_VERTICES:
                raise ValueError(f"dense adjacency capped at {DENSE_MAX_VERTICES} vertices")
        return _zero_one(self.neighbours(vertices, vertices), len(vertices))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A u for u indexed by all 2^n inputs (zero outside the domain)."""
        y = np.zeros_like(u)
        for i, row in enumerate(self.edges):
            y += _axis_swap(u, i) * row
        return y


def _axis_swap(u: np.ndarray, axis: int) -> np.ndarray:
    """u[x ^ (1 << axis)] for every x."""
    return u.reshape(-1, 2, 1 << axis)[:, ::-1, :].reshape(u.shape)


def _zero_one(nb: np.ndarray, height: int, width: int | None = None) -> np.ndarray:
    """The C-contiguous (height, width) 0/1 matrix with a 1 at each non-pad
    [nb[i, j], j % width]; width defaults to nb.shape[1]."""
    width = nb.shape[1] if width is None else width
    m = np.zeros((height + 1, width))  # the last row takes the pad
    m[nb, np.arange(nb.shape[1]) % width] = 1.0
    return m[:height]


def _odd(graph: SensitivityGraph, vertices: np.ndarray) -> np.ndarray:
    """Whether each vertex's input has odd parity.  A stack's vertex
    t 2^n + x is input x of table t, so the bits of t are masked off.
    Counted in, a t of odd popcount would swap the two sides of each of
    its components; where they are equal in size, S would be the other
    side and the solve would take B^T B, which moves lambda in its last
    bits."""
    return np.bitwise_count(vertices & ((1 << graph.arity) - 1)) & 1 == 1


class _Block:
    """The blocks B of the components ``comps`` of ``graph``: one vertex
    array, or an (m, size) array of m components whose smaller parity
    sides have one size.

    Every edge flips one bit, so a component's adjacency is
    [[0, B], [B^T, 0]], with B running from the smaller parity side S
    (row j of ``s``, the mask ``small[j]`` over ``comp[j]``) to the other
    side T (row j of ``t``).  ``down(u) = B^T u`` (indexed like T) and
    ``up(w) = B w`` (indexed like S) take one row per component.  Up to
    DENSE_MAX_VERTICES component vertices they are batched products of
    the (m, |S|, |T|) 0/1 stack ``b`` read off ``graph.neighbours(T, S)``,
    row by row bit for bit those of one component; above that ``b`` is
    None and they gather through that index and its mirror
    ``graph.neighbours(S, T)``.
    """

    def __init__(self, graph: SensitivityGraph, comps: np.ndarray):
        comp = comps.reshape(-1, comps.shape[-1])
        small = _odd(graph, comp)
        small ^= (2 * small.sum(axis=1) > comp.shape[1])[:, None]
        s, t = comp[small].reshape(len(comp), -1), comp[~small].reshape(len(comp), -1)
        # kept for the block's life: freed before the solve, they fragment the heap
        self.graph, self.comp, self.small, self.s, self.t, self.b = graph, comp, small, s, t, None
        nb_t = graph.neighbours(t.ravel(), s.ravel())
        if comp.shape[1] <= DENSE_MAX_VERTICES:
            # row j of S sits at [j |S|, (j + 1) |S|) of s.ravel(), its neighbours too
            self.b = b = _zero_one(nb_t, s.size, t.shape[1]).reshape(*s.shape, t.shape[1])
            self.down = lambda u: np.matmul(u[:, None, :], b)[:, 0, :]
            self.up = lambda w: np.matmul(b, w[:, :, None])[:, :, 0]
        else:
            nb_s = graph.neighbours(s.ravel(), t.ravel())
            self.down = lambda u: _gather(nb_t, u.ravel()).reshape(t.shape)
            self.up = lambda w: _gather(nb_s, w.ravel()).reshape(s.shape)

    def take(self, rows: np.ndarray) -> _Block:
        """The block of the components ``rows`` alone."""
        return _Block(self.graph, self.comp[rows])

    def gram(self, u: np.ndarray) -> np.ndarray:
        """B B^T u, indexed like S."""
        return self.up(self.down(u))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, indexed like ``comp``."""
        av = np.empty_like(v)
        av[self.small] = self.up(v[~self.small].reshape(self.t.shape)).ravel()
        av[~self.small] = self.down(v[self.small].reshape(self.s.shape)).ravel()
        return av


def _collatz_wielandt(block: _Block, floor: float | np.ndarray) -> Iterator[np.ndarray]:
    """Yield upper bounds on the squares of the norms of ``block``'s
    components, one array per power step and at most CW_STEPS of them;
    ``floor`` is one float or one per component.  A component's bound
    reads inf once none can fall below its floor, and the steps stop
    when that holds for all.

    A square is the top eigenvalue of the Gram matrix G = B B^T that
    ``_perron`` solves.  G is nonnegative, so for every positive u it is
    at most max_x (G u)_x / u_x (Collatz–Wielandt).  Step k takes
    u = G^k 1 through ``block.gram``, which G's positive diagonal (the
    degrees) keeps positive; and G u <= c u gives G (G u) <= c G u, so
    no bound exceeds the one before.  The Rayleigh quotient u.G u / u.u
    is at most the square, so once it reaches the floor so does every
    later bound.
    """
    u = np.ones(block.s.shape)
    live = np.ones(len(u), dtype=bool)
    for _ in range(CW_STEPS):
        w = block.gram(u)
        yield np.where(live, (w / u).max(axis=1), np.inf)
        live &= np.vecdot(u, w) < floor * np.vecdot(u, u)
        if not live.any():
            return
        u = w


def _skipped(block: _Block, floors: list[float]) -> np.ndarray:
    """Whether one of each component's Collatz–Wielandt bounds falls below its floor."""
    floors = np.array(floors)
    skip = np.zeros(floors.size, dtype=bool)
    for bound in _collatz_wielandt(block, floors):
        skip |= bound < floors
        if skip.all():
            break
    return skip


def _component_gram(block: _Block, j: int, x: np.ndarray) -> np.ndarray:
    """B B^T x for component j of ``block`` alone, x indexed like its S."""
    u = np.zeros(block.s.shape)  # the other components read 0 and give 0
    u[j] = x
    return block.gram(u)[j]


def _perron(block: _Block) -> list[SpectralResult]:
    """The top eigenpair of each of ``block``'s components.

    Its value is the top singular value of B: the square and u are the
    top eigenpair of the Gram matrix B B^T, by one batched ``eigh`` of
    ``b @ b^T`` when the block is dense, else by ``_lanczos`` on the
    component's ``block.gram``.  The T half of the vector is
    B^T u / value.  Each vector is nonnegative, unit and indexed like its
    row of ``block.comp``; the residual ||A v - value v|| is recomputed
    from it.
    """
    if block.b is None:
        solves = [
            _lanczos(partial(_component_gram, block, j), block.s.shape[1])
            for j in range(len(block.s))
        ]
        squares = np.array([square for square, _, _ in solves])
        u, steps = np.array([vec for _, vec, _ in solves]), [k for _, _, k in solves]
    else:
        w, vecs = np.linalg.eigh(block.b @ block.b.transpose(0, 2, 1))
        squares, u, steps = w[:, -1], vecs[:, :, -1], [0] * len(w)
    values = np.sqrt(squares)
    u = np.abs(u)
    v = np.empty(block.comp.shape)
    v[block.small], v[~block.small] = u.ravel(), (block.down(u) / values[:, None]).ravel()
    v /= np.sqrt(np.vecdot(v, v))[:, None]  # each row's dot with itself, np.linalg.norm's sum
    r = block.apply(v) - values[:, None] * v
    residuals = np.sqrt(np.vecdot(r, r)).tolist()
    side = block.s.shape[1]
    return [
        SpectralResult(value, vector, residual, side, k)
        for value, vector, residual, k in zip(values.tolist(), v, residuals, steps)
    ]


def _gather(nb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i x[nb[i, j]] for every column j, with index x.size reading 0.

    The terms add in bit order, as ``SensitivityGraph.matvec`` adds
    them, and over column chunks of GATHER_CHUNK so that the gathered
    (arity, chunk) block stays small."""
    pad = np.append(x, 0.0)
    out = np.empty(nb.shape[1])
    for lo in range(0, nb.shape[1], GATHER_CHUNK):
        pad[nb[:, lo : lo + GATHER_CHUNK]].sum(axis=0, out=out[lo : lo + GATHER_CHUNK])
    return out


def _lanczos(apply, size: int) -> tuple[float, np.ndarray, int]:
    """(value, vector, steps): the top Ritz pair of the symmetric operator
    ``apply`` on R^size and the number of products ``apply`` it took.
    Lanczos from the uniform vector with full reorthogonalization,
    stopped once the Ritz residual is at most RITZ_TOL * max(1, value)."""
    cap = min(LANCZOS_MAX_STEPS, size)
    # solves mostly stop after a few dozen steps, so the basis doubles as
    # it fills rather than reserving all cap + 1 rows up front
    basis = np.empty((1, size))
    basis[0] = 1.0 / math.sqrt(size)
    alphas, betas = [], []
    for k in range(1, cap + 1):
        q = basis[:k]
        w = apply(q[-1])
        alphas.append(float(q[-1] @ w))
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            w -= q.T @ (q @ w)
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        value, ritz = float(theta[-1]), beta * abs(float(s[-1, -1]))
        if ritz <= RITZ_TOL * max(1.0, value):
            return value, s[:, -1] @ q, k
        betas.append(beta)
        if k == len(basis):
            grown = np.empty((min(2 * k, cap + 1), size))
            grown[:k] = basis
            basis = grown
        basis[k] = w / beta
    raise SpectralConvergenceError(value, ritz)


class TableSpectrum:
    """lambda of one table: ``value``, the ``residual`` of its Perron
    pair, its ``components`` and the Perron pairs solved, as ``_prune``
    leaves them."""

    def __init__(self):
        self.components: list[np.ndarray] = []
        self.value, self.residual, self._top = 0.0, 0.0, None
        self._solved: dict[int, SpectralResult] = {}

    @property
    def solves(self) -> list[tuple[int, int, str, int]]:
        """(vertices, side, "dense" or "lanczos", steps) per solved component, in solve order."""
        return [
            (r.vector.size, r.side, "lanczos" if r.steps else "dense", r.steps)
            for r in self._solved.values()
        ]


class Spectrum(TableSpectrum):
    """lambda(f) = ||A_{G_f}|| with a certifying eigenvector, read off one
    G_f (``graph``) and its ``components``; ``perron(k)`` solves
    component k at most once, also a component that lambda skipped.

    ``value`` is the largest component value (ties go to the first
    component), ``vector`` that component's Perron vector (indexed by
    the domain, zero elsewhere) and ``residual`` its residual.  A graph
    with no edges gives 0 and the uniform vector.  ``_prune`` finds them,
    as for one table of a stack.
    """

    def __init__(self, f: TruthTable | PartialTruthTable):
        super().__init__()
        self.graph = graph = SensitivityGraph(f)
        _prune(graph, [self])
        domain = np.asarray(graph.domain_inputs, dtype=np.int64)
        if self._top is None:
            self.vector = np.full(domain.size, 1.0 / math.sqrt(max(domain.size, 1)))
        else:
            self.vector = np.zeros(domain.size)
            top = self.components[self._top]
            self.vector[np.searchsorted(domain, top)] = self.perron(self._top).vector

    def perron(self, k: int) -> SpectralResult:
        """Component k's Perron pair, indexed like ``components[k]``."""
        if k not in self._solved:
            [self._solved[k]] = _perron(_Block(self.graph, self.components[k]))
        return self._solved[k]


def _components_and_bounds(graph: SensitivityGraph) -> tuple[list[np.ndarray], ...]:
    """``graph.components()`` and, per component, its largest row sum of
    A^2 over its vertices, its largest degree, the size of its smaller
    parity side and the table it lies in, from one ``pairs()`` that is
    freed on return."""
    xs, ys = graph.pairs()[:2]
    order, cuts = graph._component_order((xs, ys))
    if not order.size:
        return [], [], [], [], []
    size = graph.values.size
    rows = np.bincount(xs, graph.degrees[ys], size) + np.bincount(ys, graph.degrees[xs], size)
    starts, sizes = cuts[:-1], np.diff(cuts)
    odd = np.add.reduceat(_odd(graph, order), starts)
    return (
        [order[a:b] for a, b in zip(cuts, cuts[1:])],
        np.maximum.reduceat(rows[order], starts).tolist(),
        np.maximum.reduceat(graph.degrees[order], starts).tolist(),
        np.minimum(odd, sizes - odd).tolist(),
        (order[starts] >> graph.arity).tolist(),
    )


def _prune(graph: SensitivityGraph, tables: list[TableSpectrum]) -> None:
    """Fill in lambda of each of ``tables``, whose union is ``graph``.

    A table solves its components in descending order of their largest
    row sum of A^2, sum over y ~ x of deg(y), a bound on the norm squared
    read off the one ``pairs()`` that also gives the components; ties
    keep index order.  Once one is solved, a component is skipped when
    - its index is above the current top's and its largest degree, which
      bounds its norm, is at most ``value`` (ties stay with the top), or
    - its row-sum bound or one of its ``_collatz_wielandt`` bounds falls
      below value^2 (1 - BOUND_MARGIN).
    Both bounds hold for the exact norm.  Bounds and solves round by
    about 1e-12 relative, a thousandth of the margin, so a skipped
    component's ``_perron`` value would fall below ``value``: the result
    is bit for bit the largest ``_perron`` value over all components,
    ties to the lowest index, with that component's residual.

    Round r takes each table's r-th component in its order, so each
    table's floor and top come from its own earlier rounds, as when it
    is solved alone.  A round's candidates with one side shape share one
    ``_Block``, for their bounds and their solves; its products are row
    by row those of one component, so no result depends on the stack.
    """
    comps, bounds, peaks, sides, owners = _components_and_bounds(graph)
    queues, lo = [], 0  # a table's component k is component lo + k of the graph
    for t, count in zip(tables, np.bincount(owners, minlength=len(tables)).tolist()):
        t.components = comps[lo : lo + count]
        if count:
            queues.append((t, lo, sorted(range(count), key=lambda k: -bounds[lo + k])))
        lo += count
    r = 0
    while queues:
        groups, later = {}, []
        for t, lo, queue in queues:
            k = queue[r]
            floor = t.value * t.value * (1 - BOUND_MARGIN)
            if bounds[lo + k] < floor:
                continue  # and so does every later bound of this table
            if r + 1 < len(queue):
                later.append((t, lo, queue))
            if t._top is not None and k > t._top and peaks[lo + k] <= t.value:
                continue
            groups.setdefault((sides[lo + k], t.components[k].size), []).append((t, k, floor))
        for cands in groups.values():
            block = _Block(graph, np.array([t.components[k] for t, k, _ in cands]))
            # round 0 solves each table's first component, which sets its top
            if r and (skip := _skipped(block, [floor for _, _, floor in cands])).any():
                cands = [c for c, skipped in zip(cands, skip.tolist()) if not skipped]
                block = block.take(~skip) if cands else None
            for (t, k, _), res in zip(cands, _perron(block) if cands else []):
                t._solved[k] = res
                if t._top is None or (res.value, -k) > (t.value, -t._top):
                    t.value, t.residual, t._top = res.value, res.residual, k
            del block  # free its indices before the next block's are built
        queues, r = later, r + 1


def spectral_sensitivity(f: TruthTable | PartialTruthTable) -> Spectrum:
    """The ``Spectrum`` of f: lambda(f), its vector and G_f."""
    return Spectrum(f)


def spectral_sensitivities(values: np.ndarray) -> list[TableSpectrum]:
    """lambda of each row of a ``(k, 2^n)`` array of 0/1 values, each bit
    for bit ``Spectrum``'s of that table alone, from one union graph."""
    tables = [TableSpectrum() for _ in range(len(values))]
    _prune(SensitivityGraph(values), tables)
    return tables


@dataclass(frozen=True)
class SignedHypercube:
    """The recursive +/-1 signing of the n-cube whose square is n*I."""

    n: int
    entries: np.ndarray  # (2^n, 2^n) int32


def build_signed_hypercube(n: int) -> SignedHypercube:
    if not 0 <= n <= SIGNED_HYPERCUBE_MAX_N:
        raise ValueError(f"signed hypercube supports n <= {SIGNED_HYPERCUBE_MAX_N}")
    b = np.zeros((1, 1), dtype=np.int32)
    for _ in range(n):
        size = b.shape[0]
        eye = np.eye(size, dtype=np.int32)
        b = np.block([[b, eye], [eye, -b]])
    return SignedHypercube(n, b)


@dataclass(frozen=True)
class SigningReport:
    n: int
    square_is_n_identity: bool
    trace_is_zero: bool
    support_is_hypercube: bool
    offending_entry: tuple[int, int] | None
    plus_eigenspace_dim: int

    @property
    def ok(self) -> bool:
        return self.square_is_n_identity and self.trace_is_zero and self.support_is_hypercube


def verify_signing(h: SignedHypercube) -> SigningReport:
    """Exact checks: entries in {-1, 0, 1}, B^2 = n I, trace 0, support =
    cube edges.

    With entries in {-1, 0, 1} every partial sum of B^2 is an integer of
    size at most 2^n, so the float64 product is exact.  B^2 = n I
    together with trace 0 forces eigenvalues +/-sqrt(n) with
    multiplicity 2^(n-1) each, so the eigenspace dimension is reported
    without any floating-point eigendecomposition.
    """
    b = h.entries
    n = h.n
    size = 1 << n
    idx = np.arange(size)
    dist1 = bits.popcount_array(idx[:, None] ^ idx[None, :]) == 1
    support_ok = bool(np.array_equal(b != 0, dist1))
    bad = np.argwhere(~np.isin(b, (-1, 0, 1)))
    if bad.size == 0:
        square = b.astype(np.float64) @ b.astype(np.float64)
        bad = np.argwhere(square != n * np.eye(size))
    square_ok = bad.size == 0
    if square_ok and not support_ok:
        bad = np.argwhere((b != 0) != dist1)
    return SigningReport(
        n=n,
        square_is_n_identity=square_ok,
        trace_is_zero=bool(b.trace() == 0),
        support_is_hypercube=support_ok,
        offending_entry=(int(bad[0][0]), int(bad[0][1])) if bad.size else None,
        plus_eigenspace_dim=size // 2 if n >= 1 else 1,
    )


@dataclass(frozen=True)
class DegreeWitness:
    """A nonnegative vector certifying lambda(f) >= sqrt(arity)."""

    vector: np.ndarray
    ratio: float
    majority_size: int
    minority_size: int


def full_degree_witness(f: TruthTable) -> DegreeWitness:
    """For f of full degree, a vector v >= 0 with ||A_f v|| >= sqrt(n) ||v||.

    The inputs split by agreement with parity; full degree forces the
    split to be unbalanced.  Inside the larger side every cube edge is
    an edge of G_f, so a +sqrt(n) eigenvector of the signed hypercube
    that vanishes on the smaller side certifies the ratio after taking
    absolute values.
    """
    n = f.arity
    if n < 1 or n > SIGNED_HYPERCUBE_MAX_N:
        raise ValueError(f"witness construction supports 1 <= arity <= {SIGNED_HYPERCUBE_MAX_N}")
    if degree(f) != n:
        raise ValueError("witness construction needs a function of full degree")
    v0, v1 = parity_partition(f)
    if len(v0) == len(v1):
        raise ValueError("parity split is balanced; degree cannot be full")
    minority = np.asarray(v1 if len(v1) < len(v0) else v0, dtype=np.int64)

    # B_n = [[B', I], [I, -B']] with B'^2 = (n-1) I maps every
    # v = [[B' + sqrt(n) I], [I]] c to sqrt(n) v.  A minority input
    # half + j forces c_j = 0; the other minority rows are fewer than
    # the free columns, so Vh's last row is in their kernel.
    half = 1 << (n - 1)
    top = build_signed_hypercube(n - 1).entries + math.sqrt(n) * np.eye(half)
    free = np.setdiff1d(np.arange(half), minority[minority >= half] - half)
    rows = top[np.ix_(minority[minority < half], free)]
    c = np.zeros(half)
    if len(rows):
        c[free] = np.linalg.svd(rows)[2][-1]
    else:
        c[free[0]] = 1.0
    v = np.concatenate((top @ c, c))
    vprime = np.abs(v) / np.linalg.norm(v)

    ratio = float(np.linalg.norm(SensitivityGraph(f).matvec(vprime)))
    if ratio < math.sqrt(n) - WITNESS_SLACK:
        raise RuntimeError(
            f"witness ratio {ratio:.12g} fell below sqrt({n}) - {WITNESS_SLACK}"
        )
    return DegreeWitness(
        vector=vprime,
        ratio=ratio,
        majority_size=max(len(v0), len(v1)),
        minority_size=min(len(v0), len(v1)),
    )


def restrict_to_top_monomial(f: TruthTable) -> TruthTable:
    """Zero out every variable outside one maximum-degree monomial.

    The kept monomial is the smallest mask among those of maximum
    degree, so the choice is deterministic.  The result has full degree
    on its surviving variables.
    """
    if f.is_constant():
        raise ValueError("constant functions have no top monomial")
    coeffs = mobius_coefficients(f)
    nz = np.nonzero(coeffs)[0]
    pops = bits.popcount_array(nz)
    top = int(pops.max())
    mask = int(nz[pops == top].min())
    fixed = {i + 1: 0 for i in range(f.arity) if not (mask >> i) & 1}
    return restrict(f, Restriction.of(fixed))


def vector_to_csv(vec: np.ndarray) -> str:
    """Render a vector as ``index,entry`` CSV lines (with header)."""
    lines = ["index,entry"]
    for i, x in enumerate(np.asarray(vec).ravel()):
        lines.append(f"{i},{float(x)!r}")
    return "\n".join(lines) + "\n"
