"""Inequality sweeps over whole function universes.

The suite checks every known comparison between the implemented
measures — sensitivity, block sensitivity, certificate complexity,
decision depth, real and parity degree, and spectral sensitivity — on
either every function of a fixed arity or a seeded random sample.
Violations are counted (there should never be one); for each
inequality the function with the smallest slack is recorded as a
witness.  Ratio pairs that are only conjectured to be bounded are
reported as observed maxima with witnesses, never asserted.

Both universes fold one weighted table list: each distinct measured
table once, weighted by the number of universe tables it stands for.
Every check and ratio is invariant under permuting inputs, complementing
inputs and complementing the output, so an exhaustive universe measures
each table's NPN class through its least member (from the orbit helper
that graph isomorphism classes use too, ``bits.orbit_min``); a sampled
universe measures each drawn table, a repeated draw once.  Float margins
and ratios are ranked on the ``report.TIE_GRID`` grid and ties go to the
least table, so eigenvalue rounding cannot pick the witness and the
weighted fold reports exactly what a per-table fold would.  Constant
tables are counted but named as a check's witness only when the universe
holds nothing else.

One function, ``_measure_all``, measures each distinct table once, as
one ``report.measure_stack`` stack per exhaustive universe or per work
chunk, in process or on a fork pool; the JSON sweep folds its
measurements once, in this process, and the CSV sweep writes its rows
from them.  Each check and ratio is written once, as one row of
``CHECKS`` or ``RATIOS``; both sweeps and
``graphprops.property_chain_report`` read those rows.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import time
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import bits
from .report import METHODS, measure_stack, on_grid, report_hash
from .tables import TruthTable, format_table

EXHAUSTIVE_MAX_N = 4
SAMPLED_MAX_N = 8
DEFAULT_TOLERANCE = 1e-6
SWEEP_MEASURES = ("s", "s0", "s1", "avg_s", "bs", "C", "D", "deg", "deg2", "lambda")

# Each check lhs <= rhs (margin rhs - lhs) and each reported ratio
# num / den (skipped where den is 0) is one row: its name, both sides as
# functions of a measure dict, and whether a side is a float (a float
# row passes within the tolerance and ranks on the grid).
CHECKS = (
    ("deg<=lambda^2", itemgetter("deg"), lambda m: m["lambda"] * m["lambda"], True),
    ("s<=lambda^2", itemgetter("s"), lambda m: m["lambda"] * m["lambda"], True),
    ("lambda<=s", itemgetter("lambda"), itemgetter("s"), True),
    ("lambda<=sqrt(s0*s1)", itemgetter("lambda"), lambda m: math.sqrt(m["s0"] * m["s1"]), True),
    ("avg_s<=lambda", itemgetter("avg_s"), itemgetter("lambda"), True),
    ("deg<=s0*s1", itemgetter("deg"), lambda m: m["s0"] * m["s1"], False),
    ("deg2<=deg", itemgetter("deg2"), itemgetter("deg"), False),
    ("s<=bs", itemgetter("s"), itemgetter("bs"), False),
    ("bs<=C", itemgetter("bs"), itemgetter("C"), False),
    ("C<=bs*s", itemgetter("C"), lambda m: m["bs"] * m["s"], False),
    ("D<=bs*C", itemgetter("D"), lambda m: m["bs"] * m["C"], False),
    ("D<=bs*deg", itemgetter("D"), lambda m: m["bs"] * m["deg"], False),
    ("deg<=D", itemgetter("deg"), itemgetter("D"), False),
)
RATIOS = (
    ("lambda/deg", itemgetter("lambda"), itemgetter("deg"), True),
    ("D/bs^2", itemgetter("D"), lambda m: m["bs"] ** 2, False),
    ("D/lambda^4", itemgetter("D"), lambda m: m["lambda"] ** 4, True),
    ("lambda/adeg", itemgetter("lambda"), lambda m: m.get("adeg", 0), True),
)
CHECK_NAMES = tuple(name for name, *_ in CHECKS)
FLOAT_CHECKS = frozenset(name for name, *_, is_float in CHECKS if is_float)
RATIO_NAMES = tuple(name for name, *_ in RATIOS)
FLOAT_RATIOS = frozenset(name for name, *_, is_float in RATIOS if is_float)


def _sides(rows: tuple, m: dict) -> Iterable[tuple[str, float, float]]:
    """(name, left side, right side) of each check or ratio row on ``m``."""
    return ((name, left(m), right(m)) for name, left, right, _ in rows)


def _check_margins(m: dict, rows: tuple = CHECKS) -> list[tuple[str, float, float, float]]:
    """(name, margin, lhs, rhs) per check row; margin >= 0 means satisfied."""
    return [(name, rhs - lhs, lhs, rhs) for name, lhs, rhs in _sides(rows, m)]


def _ratio_entries(m: dict) -> list[tuple[str, float, float, float]]:
    """(name, ratio, numerator, denominator) per row with a nonzero denominator."""
    return [
        (name, num / den, float(num), float(den)) for name, num, den in _sides(RATIOS, m) if den
    ]


def _passes(name: str, margin: float, tolerance: float) -> bool:
    return margin >= (-tolerance if name in FLOAT_CHECKS else 0)


def check_holds(name: str, m: dict) -> bool:
    """Whether ``m`` passes the check row ``name`` by ``_passes`` at ``DEFAULT_TOLERANCE``."""
    [(_, margin, _, _)] = _check_margins(m, tuple(row for row in CHECKS if row[0] == name))
    return _passes(name, margin, DEFAULT_TOLERANCE)


def _fold(totals: dict, table: int, m: dict, tolerance: float, weight: int = 1) -> None:
    """Fold the measures ``m`` of ``table`` into ``totals``, counted as
    ``weight`` tables that share them.

    Witness keys put constant tables (all margins 0) last, then rank by
    margin (float checks on the grid), then by table, and carry the
    chosen table's own values.
    """
    for name, margin, lhs, rhs in _check_margins(m):
        slot = totals["checks"][name]
        slot[0 if _passes(name, margin, tolerance) else 1] += weight
        rank = on_grid(margin) if name in FLOAT_CHECKS else margin
        key = (m["deg"] == 0, rank, table, margin, lhs, rhs)
        if slot[2] is None or key < slot[2]:
            slot[2] = key
    for name, ratio, num, den in _ratio_entries(m):
        rank = on_grid(ratio) if name in FLOAT_RATIOS else ratio
        key = (-rank, table, ratio, num, den)
        if totals["ratios"][name] is None or key < totals["ratios"][name]:
            totals["ratios"][name] = key


def _measure_chunk(args: tuple) -> list[tuple[dict, dict, tuple[int, int, int]]]:
    """Per table of one chunk, measured as one stack: its measures keyed
    by their report names, how ``bs``, ``C`` and ``D`` were obtained, and
    its ``adeg`` LP walk as (degrees decided, exact ones, pivots), all
    that ``run_sweep`` folds.  The rest of each record stays here."""
    n, tables, names = args
    out = []
    for entries, record in measure_stack(n, tables, names):
        values = {name: entry["value"] for name, entry in entries.items()}
        lp = record["adeg_lp"]
        walk = (lp["solves"], lp["exact"], sum(lp["pivots"].values()))
        out.append((values, record["methods"], walk))
    return out


def sample_tables(n: int, count: int, seed: int) -> list[int]:
    """``count`` truth tables of arity ``n`` from a seeded 64-bit generator."""
    rng = np.random.default_rng(seed)
    n_bytes = ((1 << n) + 7) // 8
    mask = (1 << (1 << n)) - 1
    out = []
    for _ in range(count):
        raw = rng.integers(0, 256, size=n_bytes, dtype=np.int64).astype(np.uint8)
        out.append(int.from_bytes(raw.tobytes(), "little") & mask)
    return out


def npn_canonical_array(n: int) -> np.ndarray:
    """Per table: the least table reachable by permuting variables,
    complementing inputs, and complementing the output.  Every such map
    is an input complementation followed by a permutation, so the least
    permuted table (``bits.orbit_min``) is read at each complementation."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"canonicalization supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    size = 1 << n
    full = (1 << size) - 1
    tt = np.arange(full + 1, dtype=np.uint16)  # tables of arity <= 4 fit in 16 bits
    pmin = bits.orbit_min(tt, bits.relabel_maps(n, range(size)))
    np.minimum(pmin, pmin[tt ^ full], out=pmin)
    canon = pmin.copy()
    bit = np.empty_like(tt)
    # table bits x with input i at 0; complementing input i swaps them
    # with the bits 2^i above
    lows = [bits.axis_mask(n, i) for i in range(n)]
    # step k complements the input of k's lowest set bit, so the steps
    # visit every complementation pattern once (Gray code)
    for k in range(1, size):
        i = (k & -k).bit_length() - 1
        np.bitwise_and(tt, lows[i], out=bit)
        bit <<= 1 << i
        tt >>= 1 << i
        tt &= lows[i]
        tt |= bit
        np.minimum(canon, pmin[tt], out=canon)
    return canon


@dataclass(frozen=True)
class SweepResult:
    universe: dict
    tolerance: float
    checks: list[dict]
    ratios: list[dict]
    violation_count: int
    elapsed_seconds: float
    diagnostics: dict

    @property
    def report_hash(self) -> str:
        return self.to_dict()["report_hash"]

    def to_dict(self) -> dict:
        """The report body and its hash, which skips ``timing`` and ``diagnostics``."""
        body = {
            "universe": self.universe,
            "tolerance": self.tolerance,
            "checks": self.checks,
            "ratios": self.ratios,
            "violation_count": self.violation_count,
            "diagnostics": self.diagnostics,
            "timing": {"elapsed_seconds": self.elapsed_seconds},
        }
        return {**body, "report_hash": report_hash(body)}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_threads(requested: int | None) -> int:
    """BFC_THREADS wins over the flag; 0 or None means one per usable CPU."""
    env = os.environ.get("BFC_THREADS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"BFC_THREADS must be an integer, got {env!r}") from None
    if not requested or requested < 1:
        return _usable_cpus()
    return requested


def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (the wheel's ``numpy.libs`` copy, the
    one numpy itself has loaded), or None where there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _pin_blas() -> None:
    """Pool initializer: one OpenBLAS thread per worker, so workers do
    not compete for the CPUs with each other's BLAS threads.  numpy has
    no call for this, so it goes through ctypes; a silent no-op where
    the library or its symbol is missing."""
    lib = _bundled_openblas()
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if setter is None:
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


def _chunks(items: list, threads: int) -> list[tuple]:
    pieces = min(threads * 4, len(items))
    step = (len(items) + pieces - 1) // pieces
    return [tuple(items[lo : lo + step]) for lo in range(0, len(items), step)]


def _universe(
    max_n: int, sample: int | None, seed: int, tolerance: float
) -> tuple[dict, range | list[int], np.ndarray]:
    """The universe block of a sweep, its tables in order, and per table
    the table measured in its place: the least member of its NPN class
    in an exhaustive universe, the table itself in a sampled one.
    ValueError beyond the arity caps, on a negative or non-finite
    tolerance, or on a negative seed."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if sample is None:
        if not 1 <= max_n <= EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive sweeps support 1 <= max_n <= {EXHAUSTIVE_MAX_N}")
        count = 1 << (1 << max_n)
        block = {"mode": "exhaustive", "arity": max_n, "function_count": count}
        return block, range(count), npn_canonical_array(max_n)
    if not 1 <= max_n <= SAMPLED_MAX_N:
        raise ValueError(f"sampled sweeps support 1 <= max_n <= {SAMPLED_MAX_N}")
    if sample < 1:
        raise ValueError("sample count must be positive")
    block = {"mode": "sampled", "arity": max_n, "function_count": sample, "seed": seed}
    tables = sample_tables(max_n, sample, seed)
    # object dtype keeps tables wider than 64 bits exact
    return block, tables, np.array(tables, dtype=object)


def _measure_all(universe: dict, tables: list, names: tuple, threads: int) -> Iterable[tuple]:
    """``_measure_chunk`` of each of ``tables``, in order.

    An exhaustive universe is one stack, measured in this process: on
    its few cheap NPN classes a pool cuts wall time but adds CPU time.
    A sampled universe is one stack per chunk, on up to ``threads``
    workers, never more than there are chunks or CPUs (a fork pool
    starts them all up front); with one worker each chunk is measured
    as the caller reaches it."""
    exhaustive = universe["mode"] == "exhaustive"
    specs = [tuple(tables)] if exhaustive else _chunks(tables, max(1, threads))
    jobs = [(universe["arity"], spec, names) for spec in specs]
    workers = 1 if exhaustive else min(threads, len(specs), _usable_cpus())
    if workers <= 1:
        return (m for chunk in map(_measure_chunk, jobs) for m in chunk)
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas) as pool:
        return [m for chunk in pool.map(_measure_chunk, jobs) for m in chunk]


def run_sweep(
    max_n: int = 3,
    sample: int | None = None,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    threads: int = 1,
) -> SweepResult:
    """Run the full inequality suite over one universe of functions.

    ``sample=None`` checks all 2^(2^max_n) tables of arity ``max_n``
    (max_n <= 4), measuring one representative per NPN class, ``adeg``
    included; otherwise ``sample`` seeded random tables of that arity
    (max_n <= 8), each distinct draw measured once.  ``_measure_all``
    measures them, and each measurement is folded once here, weighted by
    the universe tables it stands for.  Only exhaustive universes
    measure ``adeg`` and report the ``lambda/adeg`` ratio.
    """
    started = time.perf_counter()
    universe, _, measured = _universe(max_n, sample, seed, tolerance)
    reps, counts = np.unique(measured, return_counts=True)
    reps = reps.tolist()
    names = SWEEP_MEASURES + ("adeg",) if sample is None else SWEEP_MEASURES
    acc = {
        "checks": {name: [0, 0, None] for name in CHECK_NAMES},
        "ratios": {name: None for name in RATIO_NAMES},
        "methods": {name: dict.fromkeys(ways, 0) for name, ways in METHODS.items()},
        "adeg_lp": {"solves": 0, "exact": 0, "pivots": 0},
    }
    measurements = _measure_all(universe, reps, names, threads)
    for (values, methods, lp), table, weight in zip(measurements, reps, counts.tolist()):
        _fold(acc, table, values, tolerance, weight)
        for name, way in methods.items():
            acc["methods"][name][way] += 1
        for key, count in zip(("solves", "exact", "pivots"), lp):
            acc["adeg_lp"][key] += count

    checks = [
        {
            "name": name,
            "passes": passes,
            "failures": failures,
            "min_margin": margin,
            "witness": format_table(TruthTable(max_n, table)),
            "witness_lhs": lhs,
            "witness_rhs": rhs,
        }
        for name, (passes, failures, (*_, table, margin, lhs, rhs)) in acc["checks"].items()
    ]
    found = {name: key for name, key in acc["ratios"].items() if key is not None}
    extra = {"class_count": len(reps), "note": "evaluated on equivalence-class representatives"}
    ratios = [
        {
            "name": name,
            "max_ratio": ratio,
            "witness": format_table(TruthTable(max_n, table)),
            "numerator": num,
            "denominator": den,
            **(extra if name == "lambda/adeg" else {}),
        }
        for name, (_, table, ratio, num, den) in found.items()
    ]

    return SweepResult(
        universe=universe,
        tolerance=tolerance,
        checks=checks,
        ratios=ratios,
        violation_count=sum(c["failures"] for c in checks),
        elapsed_seconds=time.perf_counter() - started,
        diagnostics={
            "evaluated_functions": len(reps),
            "method": "npn-quotient" if sample is None else "per-table",
            "measure_methods": acc["methods"],
            "adeg_lp": acc["adeg_lp"],
        },
    )


def approx_degree_ratio(n: int) -> dict:
    """Max observed spectral-sensitivity / approximate-degree ratio at
    arity n: the ``lambda/adeg`` block of the exhaustive sweep, which
    measures one representative per NPN class (both quantities are
    invariant under permuting and complementing inputs and
    complementing the output)."""
    return next(r for r in run_sweep(n).ratios if r["name"] == "lambda/adeg")


def iter_csv_rows(
    max_n: int,
    sample: int | None = None,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    threads: int = 1,
):
    """One CSV row per (function, inequality), streamed in table order.

    Each table's cells come from the table measured in its place, by
    ``_measure_all`` as in ``run_sweep`` (without ``adeg``), so the
    ``pass`` column agrees with the JSON counts.
    """
    universe, tables, measured = _universe(max_n, sample, seed, tolerance)
    reps, place = np.unique(measured, return_inverse=True)
    cells = [
        [
            f"{name},{lhs!r},{rhs!r},{margin!r},{str(_passes(name, margin, tolerance)).lower()}"
            for name, margin, lhs, rhs in _check_margins(values)
        ]
        for values, *_ in _measure_all(universe, reps.tolist(), SWEEP_MEASURES, threads)
    ]
    yield "n,table,check,lhs,rhs,margin,pass"
    for table, i in zip(tables, place.tolist()):
        spec = format_table(TruthTable(max_n, table))
        for cell in cells[i]:
            yield f"{max_n},{spec},{cell}"
