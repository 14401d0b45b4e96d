import ctypes
import itertools
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from bfc import bits, lp, report, sweep
from bfc.report import report_hash
from bfc.spectral import SensitivityGraph
from bfc.sweep import (
    CHECK_NAMES,
    DEFAULT_TOLERANCE,
    EXHAUSTIVE_MAX_N,
    FLOAT_CHECKS,
    RATIO_NAMES,
    SAMPLED_MAX_N,
    SWEEP_MEASURES,
    _check_margins,
    _ratio_entries,
    approx_degree_ratio,
    iter_csv_rows,
    npn_canonical_array,
    resolve_threads,
    run_sweep,
)
from bfc.tables import TruthTable, format_table


def _by_name(entries):
    return {e["name"]: e for e in entries}


def test_exhaustive_n2_clean():
    r = run_sweep(max_n=2)
    assert r.violation_count == 0
    assert r.universe == {"mode": "exhaustive", "arity": 2, "function_count": 16}
    checks = _by_name(r.checks)
    assert set(checks) == set(CHECK_NAMES)
    for entry in checks.values():
        assert entry["failures"] == 0
        assert entry["passes"] == 16
        assert entry["witness"].startswith("2:")


def test_exhaustive_n3_clean_and_ratios():
    r = run_sweep(max_n=3)
    assert r.violation_count == 0
    assert r.universe["function_count"] == 256
    ratios = _by_name(r.ratios)
    assert set(ratios) == {"lambda/deg", "D/bs^2", "D/lambda^4", "lambda/adeg"}
    assert ratios["lambda/deg"]["max_ratio"] >= 1.0
    assert ratios["lambda/adeg"]["max_ratio"] == pytest.approx(2.0)
    assert ratios["lambda/adeg"]["witness"] == "3:17"
    assert ratios["lambda/adeg"]["class_count"] == 14


def test_report_hash_stable_across_runs():
    a = run_sweep(max_n=3)
    b = run_sweep(max_n=3)
    assert a.report_hash == b.report_hash


def test_report_hash_thread_invariant():
    a = run_sweep(max_n=3, threads=1)
    b = run_sweep(max_n=3, threads=2)
    assert a.report_hash == b.report_hash


def test_hash_excludes_timing():
    r = run_sweep(max_n=2)
    d = r.to_dict()
    assert "elapsed_seconds" in d["timing"]
    assert d["report_hash"] == r.report_hash


def test_sampled_mode_deterministic():
    a = run_sweep(max_n=6, sample=40, seed=9)
    b = run_sweep(max_n=6, sample=40, seed=9)
    c = run_sweep(max_n=6, sample=40, seed=10)
    assert a.report_hash == b.report_hash
    assert a.report_hash != c.report_hash
    assert a.universe == {
        "mode": "sampled",
        "arity": 6,
        "function_count": 40,
        "seed": 9,
    }
    assert a.violation_count == 0


def test_sampled_counts():
    r = run_sweep(max_n=5, sample=25, seed=1)
    for entry in r.checks:
        assert entry["passes"] + entry["failures"] == 25


def test_caps_enforced():
    with pytest.raises(ValueError):
        run_sweep(max_n=EXHAUSTIVE_MAX_N + 1)
    with pytest.raises(ValueError):
        run_sweep(max_n=SAMPLED_MAX_N + 1, sample=10)
    with pytest.raises(ValueError):
        run_sweep(max_n=3, sample=0)


def test_npn_class_counts_frozen():
    for n, count in ((1, 2), (2, 4), (3, 14), (4, 222)):
        assert len(np.unique(npn_canonical_array(n))) == count


def npn_reference(n):
    """Least table over every permutation, input complementation and
    output complementation, straight from the definition."""
    size = 1 << n
    full = (1 << size) - 1
    out = []
    for t in range(1 << size):
        best = t
        for pi in itertools.permutations(range(n)):
            for flips in range(size):
                g = 0
                for x in range(size):
                    y = sum(1 << pi[i] for i in range(n) if (x >> i) & 1) ^ flips
                    g |= ((t >> y) & 1) << x
                best = min(best, g, g ^ full)
        out.append(best)
    return out


def test_npn_canonical_matches_definition():
    for n in (1, 2, 3):
        assert npn_canonical_array(n).tolist() == npn_reference(n)


def test_npn_canonical_is_a_retraction():
    # every table maps to a representative, and representatives are fixed
    for n in (2, 3):
        canon = npn_canonical_array(n)
        assert len(canon) == 1 << (1 << n)
        reps = np.unique(canon)
        assert all(canon[int(r)] == r for r in reps)
        assert all(canon[int(canon[t])] == canon[t] for t in range(len(canon)))


def _relabel_inputs(tables, n, y_of_x):
    """Per table t, the table x -> t(y_of_x(x))."""
    out = np.zeros_like(tables)
    for x in range(1 << n):
        out |= ((tables >> y_of_x(x)) & 1) << x
    return out


def test_npn_canonical_n4_is_the_least_invariant_retraction():
    n = 4
    canon = npn_canonical_array(n)
    tables = np.arange(1 << 16, dtype=np.uint32)
    assert np.all(canon <= tables)
    assert np.array_equal(canon[canon], canon)
    swap12 = lambda x: (x & ~3) | ((x & 1) << 1) | ((x >> 1) & 1)
    cycle = lambda x: ((x << 1) | (x >> 3)) & 15
    flip1 = lambda x: x ^ 1
    for g in (swap12, cycle, flip1):
        assert np.array_equal(canon[_relabel_inputs(tables, n, g)], canon)
    assert np.array_equal(canon[tables ^ 0xFFFF], canon)


def test_relabel_maps_permute_truth_table_inputs():
    n = 3
    perms = list(itertools.permutations(range(n)))
    maps = bits.relabel_maps(n, range(1 << n))
    assert len(maps) == len(perms)
    for pi, m in zip(perms, maps):
        assert list(m) == [sum(1 << pi[i] for i in range(n) if (x >> i) & 1) for x in range(8)]
    tables = np.arange(256, dtype=np.uint16)
    least = bits.orbit_min(tables, maps)
    assert least.dtype == np.uint16
    assert least.tolist() == [bits.orbit_min(t, maps) for t in range(256)]


def test_approx_degree_ratio_n3():
    rep = approx_degree_ratio(3)
    assert rep["name"] == "lambda/adeg"
    assert rep["class_count"] == 14
    assert abs(rep["max_ratio"] - 2.0) < 1e-9
    assert rep["witness"] == "3:17"
    assert abs(rep["numerator"] - 2.0) < 1e-9
    assert rep["denominator"] == 1.0


def test_approx_degree_ratio_cap():
    with pytest.raises(ValueError):
        approx_degree_ratio(5)


def test_csv_rows_shape():
    rows = list(iter_csv_rows(2))
    assert rows[0] == "n,table,check,lhs,rhs,margin,pass"
    assert len(rows) == 1 + 16 * 13
    assert all(row.endswith(",true") for row in rows[1:])
    # spot-check one row: OR_2 has deg=2, lambda=sqrt(2)
    or_rows = [r for r in rows if r.startswith("2,2:E,deg<=lambda^2,")]
    assert len(or_rows) == 1
    parts = or_rows[0].split(",")
    assert parts[3] == "2"
    assert abs(float(parts[4]) - 2.0) < 1e-9


def test_csv_rows_sampled():
    rows = list(iter_csv_rows(5, sample=10, seed=3))
    assert len(rows) == 1 + 10 * 13
    again = list(iter_csv_rows(5, sample=10, seed=3))
    assert rows == again


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("BFC_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) >= 1
    assert resolve_threads(0) >= 1
    with pytest.raises(ValueError, match=r"^--threads must be >= 0, got -3$"):
        resolve_threads(-3)
    monkeypatch.setenv("BFC_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 5  # env var wins over the flag
    assert resolve_threads(-3) == 5
    monkeypatch.setenv("BFC_THREADS", "-3")
    with pytest.raises(ValueError, match=r"^BFC_THREADS must be >= 0, got -3$"):
        resolve_threads(2)
    monkeypatch.setenv("BFC_THREADS", "not-a-number")
    with pytest.raises(ValueError):
        resolve_threads(None)


def _values(n, table, names):
    """The measures ``names`` of one table, measured alone, keyed by their report names."""
    entries, _ = report.measure(TruthTable(n, table), names)
    return {name: entry["value"] for name, entry in entries.items()}


def per_table_report(n, tolerance=DEFAULT_TOLERANCE):
    """Exhaustive report body from measuring every table on its own.

    Float margins and the lambda/deg and D/lambda^4 ratios are ranked in
    units of 1e-9 and ties go to the least table; constant tables are
    never a check's witness.  The lambda/adeg ratio is folded here too,
    from ``adeg`` measured on every table, and counts the NPN classes."""

    def grid(x):
        return round(x / 1e-9)

    counts = {name: [0, 0] for name in CHECK_NAMES}
    worst, best = {}, {}
    for table in range(1 << (1 << n)):
        m = _values(n, table, SWEEP_MEASURES + ("adeg",))
        adeg = m.pop("adeg")
        for name, margin, lhs, rhs in _check_margins(m):
            is_float = name in FLOAT_CHECKS
            ok = margin >= (-tolerance if is_float else 0)
            counts[name][0 if ok else 1] += 1
            if m["deg"] == 0:
                continue
            rank = (grid(margin) if is_float else margin, table)
            if name not in worst or rank < worst[name][0]:
                worst[name] = (rank, margin, lhs, rhs)
        for name, ratio, num, den in _ratio_entries(m):
            rank = (-(ratio if name == "D/bs^2" else grid(ratio)), table)
            if name not in best or rank < best[name][0]:
                best[name] = (rank, ratio, num, den)
        if adeg > 0:
            ratio = m["lambda"] / adeg
            rank = (-grid(ratio), table)
            if "lambda/adeg" not in best or rank < best["lambda/adeg"][0]:
                best["lambda/adeg"] = (rank, ratio, m["lambda"], float(adeg))

    def spec(table):
        return format_table(TruthTable(n, table))

    checks = [
        {
            "name": name,
            "passes": counts[name][0],
            "failures": counts[name][1],
            "min_margin": worst[name][1],
            "witness": spec(worst[name][0][1]),
            "witness_lhs": worst[name][2],
            "witness_rhs": worst[name][3],
        }
        for name in CHECK_NAMES
    ]
    ratios = [
        {
            "name": name,
            "max_ratio": best[name][1],
            "witness": spec(best[name][0][1]),
            "numerator": best[name][2],
            "denominator": best[name][3],
        }
        for name in RATIO_NAMES
        if name in best
    ]
    ratios[-1]["class_count"] = len(np.unique(npn_canonical_array(n)))
    ratios[-1]["note"] = "evaluated on equivalence-class representatives"
    return {
        "universe": {"mode": "exhaustive", "arity": n, "function_count": 1 << (1 << n)},
        "tolerance": tolerance,
        "checks": checks,
        "ratios": ratios,
        "violation_count": sum(c["failures"] for c in checks),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_npn_quotient_equals_per_table_fold(n):
    expected = per_table_report(n)
    r = run_sweep(max_n=n)
    assert r.universe == expected["universe"]
    assert r.checks == expected["checks"]
    assert r.ratios == expected["ratios"]
    assert r.violation_count == expected["violation_count"]
    assert r.report_hash == report_hash(expected)


def test_float_witness_ties_go_to_least_table():
    # every float check is tight on some non-constant arity-3 table; the
    # least one wins the tie, and eigenvalue round-off must not displace it
    want = {
        "deg<=lambda^2": "3:01",  # AND_3 on the complemented inputs: lambda^2 = 3
        "s<=lambda^2": "3:01",
        "lambda<=s": "3:0F",  # a dictator: lambda = s = 1
        "lambda<=sqrt(s0*s1)": "3:01",
        "avg_s<=lambda": "3:0F",
    }
    for entry in run_sweep(max_n=3).checks:
        if entry["name"] in FLOAT_CHECKS:
            assert entry["witness"] == want[entry["name"]]
            assert abs(entry["min_margin"]) < 1e-9


def test_constants_are_never_check_witnesses():
    for entry in run_sweep(max_n=4).checks:
        assert entry["witness"] not in ("4:0000", "4:FFFF")
        assert entry["passes"] == 1 << 16
    # a universe of constants only still reports, naming the constant
    assert sweep.sample_tables(1, 1, 3) == [3]
    r = run_sweep(max_n=1, sample=1, seed=3)
    assert r.ratios == []
    for entry in r.checks:
        assert (entry["passes"], entry["failures"], entry["witness"]) == (1, 0, "1:3")
        assert entry["min_margin"] == 0


def test_sweep_diagnostics_block():
    # no arity-3 table has s < C; 7 of the 14 classes have s < 3 and 6 deg < 3
    assert run_sweep(max_n=3).diagnostics == {
        "evaluated_functions": 14,
        "method": "npn-quotient",
        "measure_methods": {
            "bs": {"s = C": 14, "engine": 0},
            "C": {"s = n": 7, "engine": 7},
            "D": {"deg = n": 8, "engine": 6},
        },
        "adeg_lp": {"solves": 21, "exact": 21, "pivots": 0},
    }
    assert run_sweep(max_n=3, sample=7, seed=1).diagnostics == {
        "evaluated_functions": 7,
        "method": "per-table",
        "measure_methods": {
            "bs": {"s = C": 7, "engine": 0},
            "C": {"s = n": 6, "engine": 1},
            "D": {"deg = n": 5, "engine": 2},
        },
        "adeg_lp": {"solves": 0, "exact": 0, "pivots": 0},
    }


def test_sweep_diagnostics_total_the_adeg_lps_over_chunks(monkeypatch):
    # every arity-3 degree is decided in integers, so take arity 4, where
    # 31 of the 437 reach the simplex; its 222 classes are measured in
    # four chunks
    real = lp.solve_lp
    pivots = []

    def counting(problem):
        result = real(problem)
        pivots.append(result.iterations)
        return result

    monkeypatch.setattr(lp, "solve_lp", counting)
    totals = run_sweep(max_n=4).diagnostics["adeg_lp"]
    assert totals == {"solves": 437, "exact": 437 - len(pivots), "pivots": sum(pivots)}
    assert (len(pivots), totals["pivots"]) == (31, 73)


def test_hash_ignores_diagnostics():
    r = run_sweep(max_n=2)
    body = r.to_dict()
    assert body["diagnostics"] == {
        "evaluated_functions": 4,
        "method": "npn-quotient",
        "measure_methods": {
            "bs": {"s = C": 4, "engine": 0},
            "C": {"s = n": 2, "engine": 2},
            "D": {"deg = n": 2, "engine": 2},
        },
        "adeg_lp": {"solves": 4, "exact": 4, "pivots": 0},
    }
    assert report_hash(body) == r.report_hash
    body["diagnostics"] = {"evaluated_functions": 16, "method": "per-table"}
    assert report_hash(body) == r.report_hash
    del body["diagnostics"]
    assert report_hash(body) == r.report_hash


def test_report_hash_thread_invariant_sampled():
    a = run_sweep(max_n=5, sample=24, seed=3, threads=1)
    b = run_sweep(max_n=5, sample=24, seed=3, threads=2)
    assert a.report_hash == b.report_hash


@pytest.fixture
def pools(monkeypatch):
    """(max_workers, initializer) of each pool the sweep opens; the pool
    maps in this process and forks nothing."""
    opened = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            opened.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    return opened


def test_pool_clamped_to_chunks_and_cpus(monkeypatch, pools):
    huge = 10**6
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    clamped = run_sweep(max_n=3, sample=8, seed=1, threads=huge)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 64)
    run_sweep(max_n=3, sample=8, seed=1, threads=huge)  # 8 distinct tables make 8 chunks
    run_sweep(max_n=3, sample=8, seed=1, threads=2)
    run_sweep(max_n=2, threads=huge)  # exhaustive sweeps never use the pool
    assert pools == [(3, sweep._pin_blas), (8, sweep._pin_blas), (2, sweep._pin_blas)]
    assert clamped.report_hash == run_sweep(max_n=3, sample=8, seed=1).report_hash


def test_csv_rows_are_measured_on_the_pool(monkeypatch, pools):
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 4)
    pooled = list(iter_csv_rows(5, sample=10, seed=3, threads=2))
    assert pooled == list(iter_csv_rows(5, sample=10, seed=3, threads=1))
    list(iter_csv_rows(2, threads=2))  # exhaustive sweeps never use the pool
    assert pools == [(2, sweep._pin_blas)]


def test_repeated_samples_are_measured_once_and_counted_per_draw(monkeypatch):
    draws = sweep.sample_tables(2, 8, 1)
    assert len(set(draws)) == 6
    real = report.spectral_sensitivities
    calls = []

    def counting(graph):
        rows = graph.values.reshape(-1, 1 << graph.arity)
        calls.extend(bits.from_bit_array(row) for row in rows)
        return real(graph)

    monkeypatch.setattr(report, "spectral_sensitivities", counting)
    result = run_sweep(max_n=2, sample=8, seed=1)
    assert sorted(calls) == sorted(set(draws))
    for entry in result.checks:
        assert entry["passes"] + entry["failures"] == 8
    assert result.diagnostics["evaluated_functions"] == 6


@pytest.mark.parametrize("kwargs", [{"max_n": 3}, {"max_n": 5, "sample": 10, "seed": 3}])
def test_each_measured_stack_builds_one_sensitivity_graph(monkeypatch, kwargs):
    # s and lambda read one union G_f per stack: one stack for the
    # exhaustive arity-3 sweep, four chunks for the sampled one
    init, built, stacks = SensitivityGraph.__init__, [], []
    real = sweep.measure_stack

    def counting_init(self, table):
        built.append(table)
        init(self, table)

    def counting_stack(n, tables, names):
        stacks.append(len(tables))
        return real(n, tables, names)

    monkeypatch.setattr(SensitivityGraph, "__init__", counting_init)
    monkeypatch.setattr(sweep, "measure_stack", counting_stack)
    run_sweep(**kwargs, threads=1)
    assert len(built) == len(stacks) == (1 if "sample" not in kwargs else 4)


def test_usable_cpus_bounded():
    assert 1 <= sweep._usable_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("tolerance", [DEFAULT_TOLERANCE, 0.0])
def test_csv_exhaustive_agrees_with_json_counts(tolerance):
    rows = list(iter_csv_rows(3, tolerance=tolerance))
    assert len(rows) == 1 + 256 * 13
    false_rows = {name: 0 for name in CHECK_NAMES}
    tables = []
    for row in rows[1:]:
        parts = row.split(",")
        tables.append(parts[1])
        if parts[-1] == "false":
            false_rows[parts[2]] += 1
    assert tables[::13] == [format_table(TruthTable(3, t)) for t in range(256)]
    result = run_sweep(max_n=3, tolerance=tolerance)
    assert false_rows == {c["name"]: c["failures"] for c in result.checks}


def test_csv_rejects_arity_beyond_caps():
    with pytest.raises(ValueError):
        next(iter_csv_rows(EXHAUSTIVE_MAX_N + 1))
    with pytest.raises(ValueError):
        next(iter_csv_rows(SAMPLED_MAX_N + 1, sample=3))


def test_exhaustive_sweep_measures_each_class_once(monkeypatch):
    real = report.spectral_sensitivities
    calls = []

    def counting(graph):
        rows = graph.values.reshape(-1, 1 << graph.arity)
        calls.extend(bits.from_bit_array(row) for row in rows)
        return real(graph)

    monkeypatch.setattr(report, "spectral_sensitivities", counting)
    result = run_sweep(max_n=3)
    reps = np.unique(npn_canonical_array(3)).tolist()
    assert sorted(calls) == reps
    assert _by_name(result.ratios)["lambda/adeg"]["class_count"] == len(reps)


def _blas_threads() -> int:
    getter = sweep._bundled_openblas().scipy_openblas_get_num_threads64_
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter()


def test_pool_workers_pin_blas_to_one_thread():
    lib = sweep._bundled_openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy's bundled OpenBLAS is not available")
    setter = lib.scipy_openblas_set_num_threads64_
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    before = _blas_threads()
    setter(2)  # a worker must not inherit the parent's count
    try:
        with ProcessPoolExecutor(max_workers=1, initializer=sweep._pin_blas) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == 1
    finally:
        setter(before)
