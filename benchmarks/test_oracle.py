"""Tests of the benchmark's oracle and checks, without bfc.

    python3 -m pytest benchmarks/test_oracle.py -q

The oracle is tested against closed forms; the checks are tested on
hand-built reports, including reports that are wrong by a little and
must be rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import check
import oracle as O
from workloads import family_table


def _fn(name: str, n: int):
    return O.parse_table(family_table(name, n))


@pytest.mark.parametrize("n", range(1, 9))
def test_or_lambda_is_sqrt_n(n):
    assert abs(O.spectral_sensitivity(*_fn("OR", n)) - math.sqrt(n)) <= 1e-9


@pytest.mark.parametrize("n", range(1, 9))
def test_parity_lambda_is_n(n):
    assert abs(O.spectral_sensitivity(*_fn("PARITY", n)) - n) <= 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_xor_or_lambda_is_one_plus_sqrt_n_minus_one(n):
    assert abs(O.spectral_sensitivity(*_fn("XOR-OR", n)) - (1 + math.sqrt(n - 1))) <= 1e-9


def test_large_graphs_use_the_sparse_solver_and_agree():
    # 2^12 inputs, above the dense cutoff: PARITY_12 has lambda = 12.
    n, f = _fn("PARITY", 12)
    assert abs(O.spectral_sensitivity(n, f) - 12) <= 1e-9
    n, f = _fn("OR", 13)
    assert abs(O.spectral_sensitivity(n, f) - math.sqrt(13)) <= 1e-9


@pytest.mark.parametrize("n", range(1, 6))
def test_parity_adeg_is_n(n):
    nn, f = _fn("PARITY", n)
    assert O.approximate_degree_holds(nn, f, n)
    assert not O.approximate_degree_holds(nn, f, n - 1)


def test_adeg_of_or3_is_two():
    # By symmetry a linear approximant may be taken as a + b|x|; then
    # a <= 1/3 and a + b >= 2/3 force a + 3b >= 2 - 2a > 1.
    n, f = _fn("OR", 3)
    assert O.approximate_degree_holds(n, f, 2)
    assert not O.approximate_degree_holds(n, f, 1)
    assert not O.approximate_degree_holds(n, f, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_or_measures_closed_forms(n):
    nn, f = _fn("OR", n)
    sens = O.sensitivity(nn, f)
    assert (sens["s"], sens["s0"], sens["s1"]) == (n, n, 1)
    assert O.block_sensitivity(nn, f) == n
    assert O.certificate_complexity(nn, f) == n
    assert O.decision_depth(nn, f) == n
    assert O.degree(nn, f) == n
    assert O.degree_gf2(nn, f) == n


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_measures_closed_forms(n):
    nn, f = _fn("PARITY", n)
    assert O.decision_depth(nn, f) == n
    assert O.degree(nn, f) == n
    assert O.degree_gf2(nn, f) == 1
    assert O.sensitivity(nn, f)["avg_s"] == n


def test_and_or_depth_and_certificate():
    # AND of 3 ORs of 2: a 1-certificate needs one set variable per block
    # (3), a 0-certificate one cleared block (2); D = 3 * 2.
    n, f = O.parse_table(family_table("AND-OR", 6, 2))
    assert O.decision_depth(n, f) == 6
    assert O.certificate_complexity(n, f) == 3
    assert O.block_sensitivity(n, f) == 3


def test_table_text_round_trip():
    for text in ("2:E", "3:E8", "4:5F02", "1:1", "0:1"):
        n, f = O.parse_table(text)
        assert O.format_table(n, f) == text


def _or3_report() -> dict:
    table = family_table("OR", 3)
    return {
        "function": {"arity": 3, "table": table, "family": "OR"},
        "measures": {
            "s": {"value": 3},
            "s0": {"value": 3, "defined": True},
            "s1": {"value": 1, "defined": True},
            "avg_s": {"value": 0.75, "fraction": "3/4"},
            "bs": {"value": 3},
            "C": {"value": 3},
            "D": {"value": 3},
            "deg": {"value": 3},
            "deg2": {"value": 3},
            "adeg": {"value": 2},
            "lambda": {"value": math.sqrt(3), "residual": 1e-16},
        },
    }


def _check_or3(report: dict) -> list[str]:
    op = {"table": report["function"]["table"], "certificates": False}
    return check.check_measures(op, report, O.Oracle())


def test_correct_report_passes():
    assert _check_or3(_or3_report()) == []


def test_lambda_off_by_1e_6_is_rejected():
    for delta in (1e-6, -1e-6):
        report = _or3_report()
        report["measures"]["lambda"]["value"] += delta
        assert any("lambda" in p for p in _check_or3(report))


@pytest.mark.parametrize("delta", (1, -1))
def test_adeg_off_by_one_is_rejected(delta):
    report = _or3_report()
    report["measures"]["adeg"]["value"] += delta
    assert any("adeg" in p for p in _check_or3(report))


@pytest.mark.parametrize("name", ("bs", "C", "D", "deg", "deg2", "s"))
def test_integer_measure_off_by_one_is_rejected(name):
    report = _or3_report()
    report["measures"][name]["value"] += 1
    assert any(name in p for p in _check_or3(report))


def test_skipped_measure_is_rejected_at_small_arity():
    report = _or3_report()
    report["measures"]["adeg"] = {"skipped": "arity 3 above cap 2"}
    assert any("adeg" in p for p in _check_or3(report))


def test_wrong_sweep_witness_is_rejected():
    table = "2:E"  # OR_2: deg 2, lambda sqrt(2)
    lam = math.sqrt(2)
    checks = []
    for name, (lhs_expr, rhs_expr) in check.CHECK_SIDES.items():
        lhs = check.quantity(O.Oracle(), table, lhs_expr)
        rhs = check.quantity(O.Oracle(), table, rhs_expr)
        checks.append(
            {"name": name, "passes": 16, "failures": 0, "witness": table,
             "witness_lhs": lhs, "witness_rhs": rhs, "min_margin": rhs - lhs}
        )
    ratios = []
    for name, (num_expr, den_expr) in check.RATIO_SIDES.items():
        num = check.quantity(O.Oracle(), table, num_expr)
        den = check.quantity(O.Oracle(), table, den_expr)
        ratios.append({"name": name, "max_ratio": num / den, "witness": table,
                       "numerator": num, "denominator": den})
    body = {"universe": {"arity": 2, "function_count": 16}, "violation_count": 0,
            "checks": checks, "ratios": ratios, "report_hash": "0" * 64}
    op = {"arity": 2, "function_count": 16}
    assert check.check_sweep(op, body, O.Oracle()) == []
    bad = json.loads(json.dumps(body))
    bad["checks"][0]["witness_rhs"] = lam * lam + 1e-6
    bad["checks"][0]["min_margin"] = bad["checks"][0]["witness_rhs"] - bad["checks"][0]["witness_lhs"]
    assert check.check_sweep(op, bad, O.Oracle())
    bad = json.loads(json.dumps(body))
    bad["violation_count"] = 1
    assert check.check_sweep(op, bad, O.Oracle())


def test_signing_check_rejects_a_wrong_sign():
    import base64

    n = 3
    b = np.zeros((1, 1), dtype=np.int64)
    for _ in range(n):
        eye = np.eye(b.shape[0], dtype=np.int64)
        b = np.block([[b, eye], [eye, -b]])
    out = {"ok": True, "square_is_n_identity": True, "trace_is_zero": True,
           "support_is_hypercube": True, "plus_eigenspace_dim": 4, "shape": [8, 8]}
    good = dict(out, entries_int8=base64.b64encode(b.astype(np.int8).tobytes()).decode())
    assert check.check_signing({"n": n}, good) == []
    b[0, 1] = -b[0, 1]
    b[1, 0] = -b[1, 0]
    bad = dict(out, entries_int8=base64.b64encode(b.astype(np.int8).tobytes()).decode())
    assert any("B^2" in p for p in check.check_signing({"n": n}, bad))


def _cli_outcome(stdout: str, exit_code: int = 0, stderr: str = "") -> dict:
    return {"error": None, "output": {"exit_code": exit_code, "stdout": stdout, "stderr": stderr}}


def test_malformed_report_fails_the_operation():
    op = {"kind": "cli", "check": "measures", "table": family_table("OR", 3), "certificates": False}
    report = _or3_report()
    del report["measures"]["avg_s"]["fraction"]
    problems, known_fault = check.check_outcome(op, _cli_outcome(json.dumps(report)), O.Oracle())
    assert problems and not known_fault


def test_only_the_named_fault_counts_as_known():
    op = {"kind": "cli", "check": "measures", "table": family_table("EXACT1", 3),
          "certificates": False, "known_fault": "iteration cap"}
    message = "bfc: error: iteration cap 50000 exceeded in phase 1\n"
    assert check.check_outcome(op, _cli_outcome("", 1, message), O.Oracle()) == ([], True)
    problems, known_fault = check.check_outcome(op, _cli_outcome("", 1, "bfc: error: other\n"), O.Oracle())
    assert problems and not known_fault
