"""Reference values for the benchmark's correctness checks.

Every measure is computed here from its definition, with numpy (and
scipy for the large sparse eigenproblem and the approximate-degree LP).
This module never imports ``bfc``: it shares no code with the program
it checks, only the truth-table text format ``n:HEX`` (bit ``x`` of the
hex integer is ``f(x)``, variable ``x_{i+1}`` is bit ``i`` of ``x``).

Functions take ``(n, f)`` with ``f`` a uint8 array of the 2^n values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

DENSE_MAX_VERTICES = 2048
LAMBDA_TOL = 1e-9  # absolute, scaled by max(1, lambda)
ADEG_EPSILON = 1.0 / 3.0
ADEG_FEASIBLE_TOL = 1e-7  # an LP counts as feasible if its worst violation is at most this
ADEG_INFEASIBLE_GAP = 1e-6  # and as infeasible only if its worst violation exceeds this


def parse_table(text: str) -> tuple[int, np.ndarray]:
    head, _, hexpart = text.strip().partition(":")
    n = int(head)
    value = int(hexpart, 16)
    if value >> (1 << n):
        raise ValueError(f"table {text!r} has bits beyond 2^{n} inputs")
    return n, table_bits(n, value)


def table_bits(n: int, value: int) -> np.ndarray:
    size = 1 << n
    raw = value.to_bytes(max(1, (size + 7) // 8), "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size].copy()


def format_table(n: int, f: np.ndarray) -> str:
    value = int.from_bytes(np.packbits(f.astype(np.uint8), bitorder="little").tobytes(), "little")
    return f"{n}:{value:0{max(1, ((1 << n) + 3) // 4)}X}"


def popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return np.array([bin(int(x)).count("1") for x in idx], dtype=np.int64)


def sensitive_edges(n: int, f: np.ndarray) -> np.ndarray:
    """(n, 2^n) bool: entry (i, x) says flipping variable i+1 at x flips f."""
    idx = np.arange(1 << n)
    return np.stack([f != f[idx ^ (1 << i)] for i in range(n)]) if n else np.zeros((0, 1), bool)


def sensitivity(n: int, f: np.ndarray) -> dict:
    """s, s0, s1 (0 when that side is empty, flagged undefined) and avg_s."""
    counts = sensitive_edges(n, f).sum(axis=0)
    zeros, ones = f == 0, f == 1
    return {
        "s": int(counts.max()),
        "s0": int(counts[zeros].max()) if zeros.any() else 0,
        "s1": int(counts[ones].max()) if ones.any() else 0,
        "s0_defined": bool(zeros.any()),
        "s1_defined": bool(ones.any()),
        "avg_s": Fraction(int(counts.sum()), 1 << n),
    }


def block_sensitivity(n: int, f: np.ndarray) -> int:
    """bs(f) = max over x of the most disjoint blocks B with f(x ^ B) != f(x).

    g[:, U] is, for every x at once, the largest number of disjoint
    sensitive blocks inside the variable set U: either U's lowest
    variable is in no block, or it lies in some sensitive block B <= U.
    """
    size = 1 << n
    idx = np.arange(size)
    sens = np.stack([f != f[idx ^ b] for b in range(size)], axis=1)  # (x, B)
    g = np.zeros((size, size), dtype=np.int16)
    for u in range(1, size):
        low = u & -u
        best = g[:, u ^ low].copy()
        rest = u ^ low
        sub = rest
        while True:
            b = sub | low
            np.maximum(best, np.where(sens[:, b], g[:, u ^ b] + 1, 0), out=best)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        g[:, u] = best
    return int(g[:, size - 1].max())


def _constant_on_subcubes(n: int, f: np.ndarray) -> np.ndarray:
    """(2^n, 2^n) bool: entry (S, x) says f is constant on {y : y & S == x & S}."""
    size = 1 << n
    idx = np.arange(size)
    pops = popcounts(n)
    out = np.zeros((size, size), dtype=bool)
    weights = f.astype(np.int64)
    for s in range(size):
        key = idx & s
        ones = np.bincount(key, weights=weights, minlength=size)[key]
        out[s] = (ones == 0) | (ones == 1 << (n - int(pops[s])))
    return out


def certificate_complexity(n: int, f: np.ndarray) -> int:
    """C(f) = max over x of the fewest variables whose values at x fix f."""
    const = _constant_on_subcubes(n, f)
    pops = popcounts(n)
    cert = np.where(const, pops[:, None], n + 1).min(axis=0)
    return int(cert.max())


def decision_depth(n: int, f: np.ndarray) -> int:
    """D(f): least depth of a decision tree computing f, by minimax over subcubes.

    depth[S][x] is the depth of the subcube fixing the variables in S to
    their values at x; subcubes with more fixed variables come first.
    """
    size = 1 << n
    idx = np.arange(size)
    const = _constant_on_subcubes(n, f)
    pops = popcounts(n)
    depth: dict[int, np.ndarray] = {}
    for s in sorted(range(size), key=lambda m: -int(pops[m])):
        best = np.full(size, n + 1, dtype=np.int64)
        for i in range(n):
            bit = 1 << i
            if s & bit:
                continue
            child = depth[s | bit]
            np.minimum(best, 1 + np.maximum(child[idx & ~bit], child[idx | bit]), out=best)
        depth[s] = np.where(const[s], 0, best)
    return int(depth[0][0])


def degree(n: int, f: np.ndarray) -> int:
    """deg(f): the largest |S| with a nonzero Fourier coefficient (exact integers)."""
    a = f.astype(np.int64)
    for i in range(n):
        a = a.reshape(-1, 2, 1 << i)
        a = np.concatenate([a[:, :1] + a[:, 1:], a[:, :1] - a[:, 1:]], axis=1)
    a = a.reshape(-1)
    nz = np.nonzero(a)[0]
    return int(popcounts(n)[nz].max()) if nz.size else 0


def degree_gf2(n: int, f: np.ndarray) -> int:
    """deg2(f): the largest |S| whose algebraic-normal-form coefficient
    XOR over x <= S of f(x) is 1."""
    a = f.astype(np.uint8).copy()
    for i in range(n):
        v = a.reshape(-1, 2, 1 << i)
        v[:, 1, :] ^= v[:, 0, :]
    nz = np.nonzero(a)[0]
    return int(popcounts(n)[nz].max()) if nz.size else 0


def adjacency_apply(n: int, f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for the adjacency matrix A of the sensitivity graph of f."""
    idx = np.arange(1 << n)
    sens = sensitive_edges(n, f)
    out = np.zeros(1 << n)
    for i in range(n):
        out += np.where(sens[i], v[idx ^ (1 << i)], 0.0)
    return out


def spectral_sensitivity(n: int, f: np.ndarray) -> float:
    """lambda(f): the spectral norm of the sensitivity-graph adjacency.

    The graph is bipartite (every edge joins a 0-input and a 1-input),
    so the spectrum is symmetric and the norm is the top eigenvalue.
    """
    size = 1 << n
    idx = np.arange(size)
    sens = sensitive_edges(n, f)
    rows = np.concatenate([idx[sens[i]] for i in range(n)]) if n else np.zeros(0, int)
    cols = np.concatenate([idx[sens[i]] ^ (1 << i) for i in range(n)]) if n else rows
    if rows.size == 0:
        return 0.0
    if size <= DENSE_MAX_VERTICES:
        a = np.zeros((size, size))
        a[rows, cols] = 1.0
        return float(np.linalg.eigvalsh(a)[-1])
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    a = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(size, size))
    v0 = np.ones(size)
    return float(eigsh(a, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)[0])


def lambda_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= LAMBDA_TOL * max(1.0, abs(reference))


def approximation_violation(n: int, f: np.ndarray, d: int, eps: float = ADEG_EPSILON) -> float:
    """Least t such that some polynomial p of degree <= d has p(x) in
    [-t, eps + t] where f(x) = 0 and in [1 - eps - t, 1 + t] where f(x) = 1.

    The approximant lies in [0, eps] / [1 - eps, 1] exactly when t <= 0.
    Written in the Fourier basis chi_S(x) = (-1)^{|S & x|}, |S| <= d,
    and solved by scipy's HiGHS.
    """
    from scipy.optimize import linprog

    if d < 0:
        return math.inf
    size = 1 << n
    pops = popcounts(n)
    sets = [s for s in range(size) if pops[s] <= d]
    idx = np.arange(size)
    chi = np.stack([1.0 - 2.0 * (pops[idx & s] & 1) for s in sets], axis=1)
    lo = np.where(f == 1, 1.0 - eps, 0.0)
    hi = np.where(f == 1, 1.0, eps)
    ones = np.ones((size, 1))
    a_ub = np.vstack([np.hstack([chi, -ones]), np.hstack([-chi, -ones])])
    b_ub = np.concatenate([hi, -lo])
    cost = np.zeros(len(sets) + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * len(sets) + [(-1.0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the degree-{d} LP: {res.message}")
    return float(res.fun)


def approximate_degree_holds(n: int, f: np.ndarray, claimed: int, eps: float = ADEG_EPSILON) -> bool:
    """True when the LP at ``claimed`` is feasible and at ``claimed - 1`` infeasible."""
    if not 0 <= claimed <= n:
        return False
    if approximation_violation(n, f, claimed, eps) > ADEG_FEASIBLE_TOL:
        return False
    return approximation_violation(n, f, claimed - 1, eps) > ADEG_INFEASIBLE_GAP


def graph_pairs(n_vertices: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n_vertices), 2))


def graph_property_table(name: str, n_vertices: int, clique_size: int | None = None) -> np.ndarray:
    """Truth table over edge masks (edge k = k-th pair) of a named property."""
    pairs = graph_pairs(n_vertices)
    m = len(pairs)

    def adjacency(mask: int) -> list[set[int]]:
        adj = [set() for _ in range(n_vertices)]
        for k, (i, j) in enumerate(pairs):
            if (mask >> k) & 1:
                adj[i].add(j)
                adj[j].add(i)
        return adj

    def connected(adj) -> bool:
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        return len(seen) == n_vertices

    def has_clique(adj, k: int) -> bool:
        return any(
            all(b in adj[a] for a, b in itertools.combinations(group, 2))
            for group in itertools.combinations(range(n_vertices), k)
        )

    tests = {
        "has-edge": lambda adj: any(adj),
        "connectivity": connected,
        "contains-triangle": lambda adj: has_clique(adj, 3),
        "contains-clique": lambda adj: has_clique(adj, clique_size),
        "min-degree-1": lambda adj: all(adj),
    }
    test = tests[name]
    return np.array([int(test(adjacency(mask))) for mask in range(1 << m)], dtype=np.uint8)


def is_monotone(n: int, f: np.ndarray) -> bool:
    idx = np.arange(1 << n)
    return all(bool(np.all(f <= f[idx | (1 << i)])) for i in range(n))


class Oracle:
    """Memoized reference values per table, so repeated rounds of the
    same inputs are checked at the cost of one."""

    def __init__(self):
        self._memo: dict[tuple[str, str], object] = {}

    def _get(self, measure: str, table: str, fn):
        key = (measure, table)
        if key not in self._memo:
            n, f = parse_table(table)
            self._memo[key] = fn(n, f)
        return self._memo[key]

    def sensitivity(self, table: str) -> dict:
        return self._get("sens", table, sensitivity)

    def bs(self, table: str) -> int:
        return self._get("bs", table, block_sensitivity)

    def C(self, table: str) -> int:
        return self._get("C", table, certificate_complexity)

    def D(self, table: str) -> int:
        return self._get("D", table, decision_depth)

    def deg(self, table: str) -> int:
        return self._get("deg", table, degree)

    def deg2(self, table: str) -> int:
        return self._get("deg2", table, degree_gf2)

    def lam(self, table: str) -> float:
        return self._get("lambda", table, spectral_sensitivity)

    def adeg_holds(self, table: str, claimed: int) -> bool:
        return self._get(
            f"adeg={claimed}", table, lambda n, f: approximate_degree_holds(n, f, claimed)
        )
