"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single PASS/FAIL line
(visible with ``pytest -v`` as the test verdict, and in captured output
on failure).  Budgets are wall-clock seconds on a laptop-class machine.
"""

import json
import math
import time

import numpy as np
import pytest

from bfc.algebraic import approximate_degree, approximation_problem, degree
from bfc.adversary import balanced_vertex_scheme, verify_equivalences
from bfc.cli import main
from bfc.combinatorial import deterministic_query_complexity, sensitivity
from bfc.graphprops import property_chain_report, edge_arity, enumerate_monotone_properties
from bfc.lp import solve_lp, verify_infeasibility_certificate, verify_point
from bfc.spectral import (
    build_signed_hypercube,
    full_degree_witness,
    spectral_sensitivity,
    verify_signing,
)
from bfc.sweep import run_sweep
from bfc.tables import TruthTable, named_family


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {tag}: {mark}{suffix}")


def test_criterion_1_exhaustive_inequality_sweep_n4():
    started = time.perf_counter()
    result = run_sweep(max_n=4, tolerance=1e-6, threads=0)
    elapsed = time.perf_counter() - started
    ok = (
        result.violation_count == 0
        and result.universe["function_count"] == 65536
        and elapsed <= 600.0
    )
    _verdict(
        "criterion-1 exhaustive sweep n=4",
        ok,
        f"{result.violation_count} violations in {elapsed:.1f}s",
    )
    assert result.violation_count == 0
    assert result.universe["function_count"] == 65536
    assert elapsed <= 600.0


def test_criterion_2_signed_hypercube_identities():
    started = time.perf_counter()
    reports = [verify_signing(build_signed_hypercube(n)) for n in range(11)]
    elapsed = time.perf_counter() - started
    ok = (
        all(r.square_is_n_identity for r in reports)
        and all(r.trace_is_zero for r in reports)
        and all(r.support_is_hypercube for r in reports)
        and elapsed <= 30.0
    )
    _verdict(
        "criterion-2 signed hypercube n<=10",
        ok,
        f"11 signings checked in {elapsed:.1f}s",
    )
    for r in reports:
        assert r.square_is_n_identity and r.trace_is_zero and r.support_is_hypercube, r
    assert elapsed <= 30.0


def test_criterion_3_full_degree_witness_ratios():
    rng = np.random.default_rng(161803)
    checked = 0
    worst = math.inf
    per_arity = {3: 167, 4: 167, 5: 166}
    for n, want in per_arity.items():
        size = 1 << n
        got = 0
        while got < want:
            f = TruthTable(n, int(rng.integers(0, 1 << size)))
            if degree(f) < n:
                continue
            w = full_degree_witness(f)
            slack = w.ratio - math.sqrt(n)
            worst = min(worst, slack)
            assert w.ratio >= math.sqrt(n) - 1e-9, (n, f, w.ratio)
            got += 1
            checked += 1
    ok = checked == 500 and worst >= -1e-9
    _verdict(
        "criterion-3 full-degree witnesses",
        ok,
        f"500 functions, worst slack {worst:.2e}",
    )
    assert ok


def test_criterion_4_adversary_equivalences():
    def check(f) -> float:
        rep = verify_equivalences(f)
        lam = rep.values["spectral"]
        assert abs(rep.values["bipartite_block"] - lam) <= 1e-7, f
        assert abs(rep.values["vertex_scheme"] - lam) <= 1e-5, f
        assert rep.values["sdp_primal"] <= rep.values["sdp_dual"] + 1e-5, f
        assert rep.all_ok, (f, rep.verdicts)
        return rep.max_discrepancy

    worst = 0.0
    count = 0
    for t in range(256):
        f = TruthTable(3, t)
        if f.is_constant():
            continue
        worst = max(worst, check(f))
        count += 1

    rng = np.random.default_rng(271828)
    for n in (4, 5):
        size = 1 << n
        sampled = 0
        while sampled < 500:
            f = TruthTable(n, int(rng.integers(0, 1 << size)))
            if f.is_constant():
                continue
            worst = max(worst, check(f))
            sampled += 1
            count += 1

    _verdict(
        "criterion-4 adversary equivalence",
        True,
        f"{count} functions, max discrepancy {worst:.2e}",
    )
    assert count == 254 + 1000


def test_criterion_5_named_family_regressions():
    clauses = {}

    worst_or = max(
        abs(spectral_sensitivity(named_family("OR", n)).value - math.sqrt(n))
        for n in range(1, 17)
    )
    clauses["or-lambda"] = worst_or <= 1e-9

    worst_parity = max(
        abs(spectral_sensitivity(named_family("PARITY", n)).value - n)
        for n in range(1, 11)
    )
    clauses["parity-lambda"] = worst_parity <= 1e-9

    xor_or_sides_ok = True
    xor_or_off = []  # (n, found, expected) wherever lambda misses 1 + sqrt(n-1)
    for n in range(2, 9):
        f = named_family("XOR-OR", n)
        rep = sensitivity(f)
        xor_or_sides_ok &= rep.s0 == n and rep.s1 == n
        lam = spectral_sensitivity(f).value
        want = 1 + math.sqrt(n - 1)
        if not abs(lam - want) <= 1e-9:
            xor_or_off.append((n, lam, want))
    clauses["xor-or-sides"] = xor_or_sides_ok
    # Flipping x1 always flips f, so every vertex has its x1 edge.  Flipping
    # x_j (j >= 2) flips f exactly when (x2..xn) moves between 0 and e_j, so
    # the vertices with (x2..xn) in {0, e_2, ..., e_n} form the Cartesian
    # product K2 x K_{1,n-1} and the rest is a perfect matching along x1.
    # Spectra of a Cartesian product add: lambda = 1 + sqrt(n-1), which is
    # strictly above the star lower bound sqrt(n) for every n >= 2.
    clauses["xor-or-lambda"] = not xor_or_off

    balanced_ok = True
    family_members = [named_family("OR", 4), named_family("AND", 4),
                      named_family("PARITY", 4), named_family("EXACT1", 4),
                      named_family("XOR-OR", 4), named_family("AND-OR", (2, 2)),
                      named_family("AND-OR", (3, 2)), named_family("AND-OR", (2, 3))]
    for f in family_members:
        rep = sensitivity(f)
        _, value = balanced_vertex_scheme(spectral_sensitivity(f))
        balanced_ok &= value <= math.sqrt(rep.s0 * rep.s1) + 1e-9
    clauses["balanced-scheme-bound"] = balanced_ok

    ok = all(clauses.values())
    _verdict(
        "criterion-5 named-family regressions",
        ok,
        ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in clauses.items()),
    )
    assert clauses["or-lambda"], f"worst OR gap {worst_or:.2e}"
    assert clauses["parity-lambda"], f"worst parity gap {worst_parity:.2e}"
    assert clauses["xor-or-sides"]
    assert clauses["balanced-scheme-bound"]
    assert clauses["xor-or-lambda"], "; ".join(
        f"lambda(x1 xor OR(x2..x{n})) = {found!r}, expected "
        f"1 + sqrt({n - 1}) = {expected!r}"
        for n, found, expected in xor_or_off
    )


def test_criterion_6_monotone_graph_property_chains():
    started = time.perf_counter()
    total = 0
    for n in (3, 4):
        props = enumerate_monotone_properties(n)
        for p in props:
            r = property_chain_report(p)
            assert r.chain_ok, (n, p.property_id)
            assert deterministic_query_complexity(p.table) == edge_arity(n), (
                n,
                p.property_id,
            )
            total += 1
    elapsed = time.perf_counter() - started
    ok = total == 25 and elapsed <= 300.0
    _verdict(
        "criterion-6 monotone graph properties",
        ok,
        f"{total} properties (3 + 22), all evasive, {elapsed:.1f}s",
    )
    assert total == 25
    assert elapsed <= 300.0


def test_criterion_7_approximate_degree_engine():
    eps = 1.0 / 3.0
    for t in range(256):
        f = TruthTable(3, t)
        d = approximate_degree(f)
        assert d <= degree(f), (t, d, degree(f))
        feasible = solve_lp(approximation_problem(f, d, eps))
        assert feasible.status == "optimal", (t, d, feasible.status)
        assert verify_point(approximation_problem(f, d, eps), feasible.point, tol=1e-7)
        if d > 0:
            below = solve_lp(approximation_problem(f, d - 1, eps))
            assert below.status == "infeasible", (t, d, below.status)
            assert verify_infeasibility_certificate(
                approximation_problem(f, d - 1, eps), below.certificate, tol=1e-7
            )
    _verdict(
        "criterion-7 approximate degree",
        True,
        "256 functions, optimality and infeasibility certificates re-verified",
    )


def test_criterion_8_ratio_report_emission(capsys):
    rc = main(["verify", "--max-n", "3", "--format", "json"])
    out = capsys.readouterr().out
    body = json.loads(out)
    ratios = {r["name"]: r for r in body["ratios"]}
    ok = (
        rc == 0
        and "lambda/deg" in ratios
        and "lambda/adeg" in ratios
        and all(r.get("witness") for r in ratios.values())
        and ratios["lambda/adeg"]["max_ratio"] == pytest.approx(2.0)
    )
    _verdict(
        "criterion-8 ratio report",
        ok,
        f"lambda/deg at {ratios['lambda/deg']['witness']}, "
        f"lambda/adeg at {ratios['lambda/adeg']['witness']}",
    )
    assert ok
