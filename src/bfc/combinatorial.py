"""Query-style complexity measures computed exactly from truth tables.

All measures here are integers obtained by exhaustive search:

* sensitivity s(f) with the per-side maxima s0, s1 and the average,
* block sensitivity bs(f) via maximum packings of minimal sensitive
  blocks,
* certificate complexity C(f) via ascending-cardinality subset search,
* deterministic decision-tree depth D(f) via a memoized minimax.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bits
from .spectral import SensitivityGraph
from .tables import TruthTable

BLOCK_MEASURE_MAX_ARITY = 12
DEPTH_MAX_ARITY = 10


@dataclass(frozen=True)
class LocalMeasure:
    """A per-input measure together with its maximum.

    ``argmax_input`` is the smallest input attaining the maximum.
    """

    per_input: tuple[int, ...]
    global_value: int
    argmax_input: int


@dataclass(frozen=True)
class SensitivityReport:
    local: LocalMeasure
    s0: int
    s1: int
    s0_defined: bool
    s1_defined: bool
    average: Fraction


def _local(per_input: list[int]) -> LocalMeasure:
    best = max(per_input) if per_input else 0
    return LocalMeasure(tuple(per_input), best, per_input.index(best) if per_input else 0)


def sensitivity(f: TruthTable) -> SensitivityReport:
    """Per-input sensitivity, the side maxima s0/s1, and the average.

    A side with an empty preimage reports 0 and is flagged undefined.
    """
    graph = SensitivityGraph(f)
    counts = graph.degrees
    ones = graph.values
    zeros = ~ones
    s0 = int(counts[zeros].max()) if zeros.any() else 0
    s1 = int(counts[ones].max()) if ones.any() else 0
    return SensitivityReport(
        local=_local(counts.tolist()),
        s0=s0,
        s1=s1,
        s0_defined=bool(zeros.any()),
        s1_defined=bool(ones.any()),
        average=Fraction(int(counts.sum()), f.size),
    )


def _max_disjoint_packing(blocks: list[int]) -> int:
    """Maximum number of pairwise-disjoint masks, exact branch and bound."""
    blocks = sorted(blocks, key=lambda b: (b.bit_count(), b))
    best = 0
    m = len(blocks)

    def go(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (m - idx) <= best:
            return
        for j in range(idx, m):
            b = blocks[j]
            if used & b == 0:
                go(j + 1, used | b, count + 1)

    go(0, 0, 0)
    return best


def block_sensitivity(f: TruthTable) -> LocalMeasure:
    """bs(f): per input, the largest family of disjoint sensitive blocks.

    Only minimal sensitive blocks matter for the packing, so the search
    keeps a block only when none of its proper sub-blocks is sensitive.
    """
    n, t = f.arity, f.table
    if n > BLOCK_MEASURE_MAX_ARITY:
        raise ValueError(f"block sensitivity supports arity <= {BLOCK_MEASURE_MAX_ARITY}")
    if n == 0:
        return _local([0])
    masks = sorted(range(1, 1 << n), key=lambda b: (b.bit_count(), b))
    flipped = {b: bits.xor_permute(t, n, b) for b in masks}
    sens = {b: t ^ flipped[b] for b in masks}
    per_input = []
    for x in range(f.size):
        minimal: list[int] = []
        for b in masks:
            if (sens[b] >> x) & 1 and not any(k & b == k for k in minimal):
                minimal.append(b)
        per_input.append(_max_disjoint_packing(minimal))
    return _local(per_input)


def certificate_complexity(f: TruthTable) -> LocalMeasure:
    """C(f): smallest set of variables whose values at x force f.

    For each input the subsets are scanned in ascending cardinality,
    starting at the local sensitivity (a lower bound), and the first
    certifying subset wins.
    """
    n, t = f.arity, f.table
    if n > BLOCK_MEASURE_MAX_ARITY:
        raise ValueError(
            f"certificate complexity supports arity <= {BLOCK_MEASURE_MAX_ARITY}"
        )
    if f.is_constant():
        return _local([0] * f.size)
    sens_counts = SensitivityGraph(f).degrees.tolist()
    by_card: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        by_card[s.bit_count()].append(s)
    full = (1 << n) - 1
    per_input = []
    for x in range(f.size):
        fx = (t >> x) & 1
        found = n
        start = max(1, sens_counts[x])
        for k in range(start, n + 1):
            hit = False
            for s in by_card[k]:
                base = x & s
                ok = True
                for u in bits.submasks(full ^ s):
                    if ((t >> (base | u)) & 1) != fx:
                        ok = False
                        break
                if ok:
                    hit = True
                    break
            if hit:
                found = k
                break
        per_input.append(found)
    return _local(per_input)


def deterministic_query_complexity(f: TruthTable) -> int:
    """D(f): optimal decision-tree depth by minimax over restrictions,
    memoized per call."""
    if f.arity > DEPTH_MAX_ARITY:
        raise ValueError(f"decision-tree depth supports arity <= {DEPTH_MAX_ARITY}")
    memo: dict[tuple[int, int], int] = {}

    def depth(n: int, t: int) -> int:
        if t == 0 or t == bits.table_mask(n):
            return 0
        key = (n, t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = n
        for i in range(n):
            lo = depth(n - 1, bits.restrict_axis(t, n, i, 0))
            hi = depth(n - 1, bits.restrict_axis(t, n, i, 1))
            cand = 1 + max(lo, hi)
            if cand < best:
                best = cand
            if best == 1:
                break
        memo[key] = best
        return best

    return depth(f.arity, f.table)
