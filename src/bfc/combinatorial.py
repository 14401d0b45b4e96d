"""Query-style complexity measures computed exactly from truth tables.

All measures here are integers obtained by exhaustive search:

* sensitivity s(f) with the per-side maxima s0, s1 and the average,
* block sensitivity bs(f) from one dynamic program over block masks,
  all inputs at once,
* certificate complexity C(f) and deterministic decision-tree depth
  D(f), both read from one table over the 3^n subcubes that marks
  where f is constant (monochromatic).

The engines stay exhaustive and take no shortcut.  ``report.measure``
calls the bs, C and D engines only where the bounds it already holds
differ: ``s <= bs <= C <= n`` gives bs = s when s = C and C = n when
s = n, and ``deg <= D <= n`` gives D = n when deg = n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import SensitivityGraph, _axis_swap
from .tables import TruthTable

BLOCK_MEASURE_MAX_ARITY = 12
PACK_CHUNK = 1 << 19
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


@functools.lru_cache(maxsize=BLOCK_MEASURE_MAX_ARITY + 1)
def _pack_levels(n: int) -> tuple:
    """Per popcount p: the masks m, m less its lowest bit (``drop``), the
    ``2^(p-1)`` sub-blocks b of m that hold that bit, and ``m ^ b``."""
    masks = np.arange(1 << n)
    weight = np.bitwise_count(masks)
    levels = []
    for p in range(1, n + 1):
        m = masks[weight == p]
        low = m & -m
        # the bit positions of m ^ low, ascending, one row per mask
        pos = np.nonzero((m ^ low)[:, None] >> np.arange(n) & 1)[1].reshape(len(m), p - 1)
        picks = np.arange(1 << (p - 1))[:, None] >> np.arange(p - 1) & 1
        blocks = low[:, None] | (picks << pos[:, None, :]).sum(axis=-1)
        levels.append((m, m ^ low, blocks, m[:, None] ^ blocks))
    return tuple(levels)


def block_sensitivity(f: TruthTable) -> LocalMeasure:
    """bs(f): per input, the largest family of disjoint sensitive blocks.

    Rows ``[2^i, 2^(i+1))`` of the block table ``f(x ^ b) != f(x)`` are
    rows ``[0, 2^i)`` with input axis i swapped.  ``pack[m, x]``, the
    most disjoint sensitive blocks of x inside the mask m, fills one
    popcount level at a time: the lowest bit of m is either left out
    (``pack[drop]``) or covered by a sensitive block b (``1 +
    pack[m ^ b]``).  Each level is one gather, cut into chunks of whole
    masks and about PACK_CHUNK entries.  bs(x) is ``pack[-1, x]``.
    """
    n, size = f.arity, f.size
    if n > BLOCK_MEASURE_MAX_ARITY:
        raise ValueError(f"block sensitivity supports arity <= {BLOCK_MEASURE_MAX_ARITY}")
    values = f.to_bit_array().astype(bool)
    sens = values[None, :]
    for i in range(n):
        sens = np.concatenate([sens, _axis_swap(sens, i)])
    sens = sens != values
    pack = np.zeros((size, size), dtype=np.int8)
    for masks, drop, blocks, rest in _pack_levels(n):
        step = max(1, PACK_CHUNK // (blocks.shape[1] * size))
        for lo in range(0, len(masks), step):
            rows = slice(lo, lo + step)
            gain = pack[rest[rows]]
            # an insensitive b adds 0: pack[m ^ b] <= pack[drop], as m ^ b is in drop
            gain += sens[blocks[rows]]
            pack[masks[rows]] = np.maximum(gain.max(axis=1), pack[drop[rows]])
    return _local(pack[-1].tolist())


def _digits(axis: int, lo: int, hi: int) -> tuple:
    """Index of the subcubes whose digit on `axis` lies in [lo, hi)."""
    return (slice(None),) * axis + (slice(lo, hi),)


def _monochromatic(f: TruthTable) -> np.ndarray:
    """The subcube table of f: a ``(3,) * n`` bool array, True where f is
    constant on the subcube.

    Digit 0 or 1 on an axis fixes that coordinate and digit 2 leaves it
    free.  Axis 0 is variable n, so the point slice ``[:2, ..., :2]``
    flattens in input order.  ``has0``/``has1`` (f takes the value 0/1
    somewhere on the subcube) start as the point values; each axis then
    gains a free slice, the OR of its 0-slice and 1-slice.
    """
    n = f.arity
    has1 = f.to_bit_array().astype(bool).reshape((2,) * n)
    has0 = ~has1
    for axis in range(n):
        has0 = np.concatenate([has0, has0.any(axis=axis, keepdims=True)], axis=axis)
        has1 = np.concatenate([has1, has1.any(axis=axis, keepdims=True)], axis=axis)
    return ~(has0 & has1)


def certificate_complexity(f: TruthTable) -> LocalMeasure:
    """C(f): smallest set of variables whose values at x force f.

    A monochromatic subcube certifies every input in it with its
    codimension; the other subcubes cost n.  A superset-min pass per
    axis (each fixed slice takes the min with the free slice) leaves on
    every point the cheapest monochromatic subcube containing it.
    """
    n = f.arity
    if n > BLOCK_MEASURE_MAX_ARITY:
        raise ValueError(
            f"certificate complexity supports arity <= {BLOCK_MEASURE_MAX_ARITY}"
        )
    mono = _monochromatic(f)
    codim = np.zeros(mono.shape, dtype=np.int8)
    for axis in range(n):
        codim[_digits(axis, 0, 2)] += 1
    cost = np.where(mono, codim, n).astype(np.int8)
    for axis in range(n):
        fixed = cost[_digits(axis, 0, 2)]
        np.minimum(fixed, cost[_digits(axis, 2, 3)], out=fixed)
    return _local(cost[(slice(0, 2),) * n].reshape(-1).tolist())


def deterministic_query_complexity(f: TruthTable) -> int:
    """D(f): optimal decision-tree depth, the value of the all-free subcube.

    Monochromatic subcubes have depth 0 and the rest start at n.  Each
    round lowers every subcube to ``1 + min over free axes of
    max(child0, child1)`` where that is smaller; after k rounds every
    subcube of dimension <= k is exact, and a round that changes nothing
    has reached the fixed point.
    """
    n = f.arity
    if n > DEPTH_MAX_ARITY:
        raise ValueError(f"decision-tree depth supports arity <= {DEPTH_MAX_ARITY}")
    mono = _monochromatic(f)
    depth = np.where(mono, 0, n).astype(np.int8)
    for _ in range(n):
        best = np.full_like(depth, n)
        for axis in range(n):
            free = best[_digits(axis, 2, 3)]
            children = np.maximum(depth[_digits(axis, 0, 1)], depth[_digits(axis, 1, 2)])
            np.minimum(free, children, out=free)
        relaxed = np.minimum(depth, best + 1)
        if np.array_equal(relaxed, depth):
            break
        depth = relaxed
    return int(depth[(2,) * n])
