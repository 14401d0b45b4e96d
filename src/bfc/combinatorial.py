"""Query-style complexity measures computed exactly from truth tables.

All measures here are integers obtained by exhaustive search:

* sensitivity s(f) with the per-side maxima s0, s1 and the average,
* block sensitivity bs(f) from one dynamic program over block masks,
  all inputs at once,
* certificate complexity C(f) and deterministic decision-tree depth
  D(f), both read from one table over the 3^n subcubes that marks
  where f is constant (monochromatic).

Each engine measures a stack of k tables of one arity at once, given
as a ``(k, 2^n)`` array of 0/1 values (s as the stack's union
``SensitivityGraph``, C and D as one ``monochromatic`` table of the
stack); the per-function engines are its one-table case.
The engines stay exhaustive and take no shortcut.
``report.measure_stack`` hands the bs, C and D engines only the tables
where the bounds it already holds differ: ``s <= bs <= C <= n`` gives
bs = s when s = C and C = n when s = n, and ``deg <= D <= n`` gives
D = n when deg = n.
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


def _local(per_input: np.ndarray) -> LocalMeasure:
    best = int(per_input.max())
    return LocalMeasure(tuple(per_input.tolist()), best, int(per_input.argmax()))


def sensitivities(graph: SensitivityGraph) -> list[SensitivityReport]:
    """``sensitivity`` of each table of a ``SensitivityGraph``, read off
    its degrees: one table's G_f or a stack's union graph."""
    counts = graph.degrees.reshape(-1, 1 << graph.arity)
    ones = graph.values.reshape(counts.shape)
    s0 = np.where(ones, 0, counts).max(axis=1).tolist()
    s1 = np.where(ones, counts, 0).max(axis=1).tolist()
    has0, has1 = (~ones.all(axis=1)).tolist(), ones.any(axis=1).tolist()
    return [
        SensitivityReport(
            local=_local(row),
            s0=s0[t],
            s1=s1[t],
            s0_defined=has0[t],
            s1_defined=has1[t],
            average=Fraction(total, counts.shape[1]),
        )
        for t, (row, total) in enumerate(zip(counts, counts.sum(axis=1).tolist()))
    ]


def sensitivity(f: TruthTable) -> SensitivityReport:
    """Per-input sensitivity, the side maxima s0/s1, and the average.

    A side with an empty preimage reports 0 and is flagged undefined.
    """
    return sensitivities(SensitivityGraph(f))[0]


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


def block_sensitivities(values: np.ndarray) -> np.ndarray:
    """bs(x) of each input of each row of a ``(k, 2^n)`` array of 0/1
    values, as a ``(k, 2^n)`` array.

    The k tables are one row of k 2^n columns, input x of table t in
    column t 2^n + x; a block flips only the low n bits, so every column
    stays inside its table.  Rows ``[2^i, 2^(i+1))`` of the block table
    ``f(x ^ b) != f(x)`` are rows ``[0, 2^i)`` with input axis i swapped.
    ``pack[m, x]``, the most disjoint sensitive blocks of x inside the
    mask m, fills one popcount level at a time: the lowest bit of m is
    either left out (``pack[drop]``) or covered by a sensitive block b
    (``1 + pack[m ^ b]``).  Each level is one gather, cut into chunks of
    whole masks and about PACK_CHUNK entries.  bs(x) is ``pack[-1, x]``.
    """
    n, size = values.shape[1].bit_length() - 1, values.size
    if n > BLOCK_MEASURE_MAX_ARITY:
        raise ValueError(f"block sensitivity supports arity <= {BLOCK_MEASURE_MAX_ARITY}")
    flat = values.astype(bool).reshape(-1)
    sens = flat[None, :]
    for i in range(n):
        sens = np.concatenate([sens, _axis_swap(sens, i)])
    sens = sens != flat
    pack = np.zeros((1 << n, size), dtype=np.int8)
    for masks, drop, blocks, rest in _pack_levels(n):
        step = max(1, PACK_CHUNK // (blocks.shape[1] * size))
        for lo in range(0, len(masks), step):
            rows = slice(lo, lo + step)
            gain = pack[rest[rows]]
            # an insensitive b adds 0: pack[m ^ b] <= pack[drop], as m ^ b is in drop
            gain += sens[blocks[rows]]
            pack[masks[rows]] = np.maximum(gain.max(axis=1), pack[drop[rows]])
    return pack[-1].reshape(values.shape)


def block_sensitivity(f: TruthTable) -> LocalMeasure:
    """bs(f): per input, the largest family of disjoint sensitive blocks
    (``block_sensitivities`` of the one table)."""
    return _local(block_sensitivities(f.to_bit_array()[None])[0])


def _digits(axis: int, lo: int, hi: int) -> tuple:
    """Index of the subcubes whose digit on `axis` lies in [lo, hi)."""
    return (slice(None),) * axis + (slice(lo, hi),)


def monochromatic(values: np.ndarray) -> np.ndarray:
    """The subcube tables of the rows of a ``(k, 2^n)`` array of 0/1
    values: a ``(k,) + (3,) * n`` bool array, True where the table is
    constant on the subcube.

    Axis 0 is the table.  On axis a >= 1, digit 0 or 1 fixes variable
    n + 1 - a and digit 2 leaves it free, so a table's point slice
    ``[:2, ..., :2]`` flattens in input order.  ``has0``/``has1`` (the
    table takes the value 0/1 somewhere on the subcube) start as the
    point values; each axis then gains a free slice, the OR of its
    0-slice and 1-slice.
    """
    n = values.shape[1].bit_length() - 1
    has1 = values.astype(bool).reshape((len(values),) + (2,) * n)
    has0 = ~has1
    for axis in range(1, n + 1):
        has0 = np.concatenate([has0, has0.any(axis=axis, keepdims=True)], axis=axis)
        has1 = np.concatenate([has1, has1.any(axis=axis, keepdims=True)], axis=axis)
    return ~(has0 & has1)


def certificate_costs(mono: np.ndarray) -> np.ndarray:
    """C(x) of each input of each table of a ``monochromatic`` stack, as
    a ``(k, 2^n)`` array: the smallest set of variables whose values at x
    force the table.

    A monochromatic subcube certifies every input in it with its
    codimension; the other subcubes cost n.  A superset-min pass per
    axis (each fixed slice takes the min with the free slice) leaves on
    every point the cheapest monochromatic subcube containing it.
    """
    n = mono.ndim - 1
    if n > BLOCK_MEASURE_MAX_ARITY:
        raise ValueError(
            f"certificate complexity supports arity <= {BLOCK_MEASURE_MAX_ARITY}"
        )
    codim = np.zeros(mono.shape[1:], dtype=np.int8)
    for axis in range(n):
        codim[_digits(axis, 0, 2)] += 1
    cost = np.where(mono, codim, n).astype(np.int8)
    for axis in range(1, n + 1):
        fixed = cost[_digits(axis, 0, 2)]
        np.minimum(fixed, cost[_digits(axis, 2, 3)], out=fixed)
    return cost[(slice(None),) + (slice(0, 2),) * n].reshape(len(mono), -1)


def certificate_complexity(f: TruthTable) -> LocalMeasure:
    """C(f): per input, the smallest set of variables whose values there
    force f (``certificate_costs`` of the one table)."""
    return _local(certificate_costs(monochromatic(f.to_bit_array()[None]))[0])


def decision_depths(mono: np.ndarray) -> np.ndarray:
    """D of each table of a ``monochromatic`` stack: the optimal
    decision-tree depth, the value of the all-free subcube.

    Monochromatic subcubes have depth 0 and the rest start at n.  Each
    round lowers every subcube to ``1 + min over free axes of
    max(child0, child1)`` where that is smaller; after j rounds every
    subcube of dimension <= j is exact, and a round that changes nothing
    has reached the fixed point of every table.
    """
    n = mono.ndim - 1
    if n > DEPTH_MAX_ARITY:
        raise ValueError(f"decision-tree depth supports arity <= {DEPTH_MAX_ARITY}")
    depth = np.where(mono, 0, n).astype(np.int8)
    for _ in range(n):
        best = np.full_like(depth, n)
        for axis in range(1, n + 1):
            free = best[_digits(axis, 2, 3)]
            children = np.maximum(depth[_digits(axis, 0, 1)], depth[_digits(axis, 1, 2)])
            np.minimum(free, children, out=free)
        relaxed = np.minimum(depth, best + 1)
        if np.array_equal(relaxed, depth):
            break
        depth = relaxed
    return depth[(slice(None),) + (2,) * n]


def deterministic_query_complexity(f: TruthTable) -> int:
    """D(f): optimal decision-tree depth (``decision_depths`` of the one table)."""
    return int(decision_depths(monochromatic(f.to_bit_array()[None]))[0])
