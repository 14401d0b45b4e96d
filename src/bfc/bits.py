"""Bit-level helpers for packed truth tables.

A function on n variables is stored as a Python int with bit x holding
f(x) for x in [0, 2^n).  Variable 1 is the least significant bit of the
input index, so flipping variable i maps index x to x ^ (1 << (i - 1)).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def table_mask(n: int) -> int:
    """All 2^n table positions set."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def axis_mask(n: int, axis: int) -> int:
    """Positions x in [0, 2^n) whose bit `axis` (0-based) is clear."""
    step = 1 << axis
    m = (1 << step) - 1
    width = 2 * step
    size = 1 << n
    while width < size:
        m |= m << width
        width *= 2
    return m & table_mask(n)


def gather_bits(keys: int | np.ndarray, index_map: Sequence[int]) -> int | np.ndarray:
    """Out bit k = key bit ``index_map[k]``, for an int or an integer
    array of packed keys at once."""
    out = keys & 0
    for k, p in enumerate(index_map):
        out |= ((keys >> p) & 1) << k
    return out


def relabel_maps(
    perms: int | Iterable[Sequence[int]], subsets: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """One ``gather_bits`` map per permutation pi of the points (an int n
    stands for all n! permutations of ``range(n)``), for keys whose bit
    k stands for the point set ``subsets[k]``, a bitmask: out bit k is
    the key bit of pi's image of that set.  Truth tables take
    ``subsets = range(2^n)``; graphs take one two-point mask per pair.
    """
    if isinstance(perms, int):
        perms = itertools.permutations(range(perms))
    subsets = list(subsets)
    index = {s: k for k, s in enumerate(subsets)}
    return tuple(
        tuple(index[sum(1 << p for i, p in enumerate(pi) if (s >> i) & 1)] for s in subsets)
        for pi in perms
    )


def orbit_min(keys: int | np.ndarray, maps: Iterable[Sequence[int]]) -> int | np.ndarray:
    """The least ``gather_bits(keys, m)`` over the maps, for an int or an
    integer array of keys (elementwise, in the array's dtype)."""
    images = (gather_bits(keys, m) for m in maps)
    if not isinstance(keys, np.ndarray):
        return min(images)
    best = next(images)
    for image in images:
        np.minimum(best, image, out=best)
    return best


def to_bit_rows(tables: Sequence[int], n: int) -> np.ndarray:
    """Unpack table ints of arity n into a ``(len(tables), 2^n)`` uint8
    array, one row per table."""
    size = 1 << n
    nbytes = (size + 7) >> 3
    raw = np.frombuffer(b"".join(t.to_bytes(nbytes, "little") for t in tables), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(tables), nbytes), axis=1, bitorder="little")[:, :size]


def to_bit_array(t: int, n: int) -> np.ndarray:
    """Unpack a table int into a uint8 array of length 2^n."""
    return to_bit_rows((t,), n)[0]


def from_bit_array(bits: np.ndarray) -> int:
    """Pack a 0/1 array (index = input) back into a table int."""
    raw = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(raw.tobytes(), "little")


def popcount_array(a: np.ndarray) -> np.ndarray:
    """Per-element popcount of a nonnegative integer array."""
    return np.bitwise_count(a.astype(np.uint64)).astype(np.int64)
