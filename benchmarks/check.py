"""Correctness checks of bfc's outputs against the oracle.

``check_outcome`` returns the problems found in one operation's output
(an empty list means correct) and whether the operation ended in the
workload's one known fault.  Every expected value comes from
``oracle.py`` or from a property the method must have; none is a stored
copy of an earlier output.
"""

from __future__ import annotations

import base64
import json
import math
from fractions import Fraction

import numpy as np

import oracle as O

CHECK_SIDES = {
    "deg<=lambda^2": ("deg", "lambda^2"),
    "s<=lambda^2": ("s", "lambda^2"),
    "lambda<=s": ("lambda", "s"),
    "lambda<=sqrt(s0*s1)": ("lambda", "sqrt(s0*s1)"),
    "avg_s<=lambda": ("avg_s", "lambda"),
    "deg<=s0*s1": ("deg", "s0*s1"),
    "deg2<=deg": ("deg2", "deg"),
    "s<=bs": ("s", "bs"),
    "bs<=C": ("bs", "C"),
    "C<=bs*s": ("C", "bs*s"),
    "D<=bs*C": ("D", "bs*C"),
    "D<=bs*deg": ("D", "bs*deg"),
    "deg<=D": ("deg", "D"),
}
RATIO_SIDES = {
    "lambda/deg": ("lambda", "deg"),
    "D/bs^2": ("D", "bs^2"),
    "D/lambda^4": ("D", "lambda^4"),
}
NPN_CLASSES_ARITY4 = 222
VALUE_TOL = 1e-9  # witness sides and ratios, scaled by max(1, |value|)
CERT_VALUE_TOL = 1e-6  # certificate values against lambda
ALL_MEASURES = ("s", "s0", "s1", "avg_s", "bs", "C", "D", "deg", "deg2", "adeg", "lambda")
LARGE_ARITY_MEASURES = ("s", "s0", "s1", "avg_s", "deg", "deg2", "lambda")
FULL_REPORT_MAX_ARITY = 7
GRAPH_EDGE_ARITY = 10  # C(5, 2) edges on 5 vertices


def _close(value, reference, tol=VALUE_TOL) -> bool:
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and abs(value - reference) <= tol * max(1.0, abs(reference))
    )


def quantity(oracle: O.Oracle, table: str, expr: str) -> float:
    """The oracle's value of a check or ratio side, e.g. ``bs*C`` or ``lambda^4``."""
    sens = oracle.sensitivity
    base = {
        "s": lambda: sens(table)["s"],
        "avg_s": lambda: float(sens(table)["avg_s"]),
        "s0*s1": lambda: sens(table)["s0"] * sens(table)["s1"],
        "sqrt(s0*s1)": lambda: math.sqrt(sens(table)["s0"] * sens(table)["s1"]),
        "bs": lambda: oracle.bs(table),
        "C": lambda: oracle.C(table),
        "D": lambda: oracle.D(table),
        "deg": lambda: oracle.deg(table),
        "deg2": lambda: oracle.deg2(table),
        "lambda": lambda: oracle.lam(table),
    }
    if expr in base:
        return base[expr]()
    if expr.endswith("^2") or expr.endswith("^4"):
        return quantity(oracle, table, expr[:-2]) ** int(expr[-1])
    left, _, right = expr.partition("*")
    return quantity(oracle, table, left) * quantity(oracle, table, right)


def _json_output(outcome: dict, problems: list[str]) -> dict | None:
    out = outcome.get("output")
    if outcome.get("error") or out is None:
        problems.append(f"raised {outcome.get('error')}")
        return None
    if out["exit_code"] != 0:
        problems.append(f"exit code {out['exit_code']}: {out['stderr'].strip()[-300:]}")
        return None
    try:
        return json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_sweep(op: dict, body: dict, oracle: O.Oracle) -> list[str]:
    problems = []
    n, count = op["arity"], op["function_count"]
    universe = body.get("universe", {})
    if universe.get("arity") != n or universe.get("function_count") != count:
        problems.append(f"universe {universe} is not arity {n} with {count} functions")
    if body.get("violation_count") != 0:
        problems.append(f"violation_count {body.get('violation_count')} != 0")
    checks = {c["name"]: c for c in body.get("checks", [])}
    if set(checks) != set(CHECK_SIDES):
        problems.append(f"checks {sorted(checks)} are not the 13 expected")
    for name, c in checks.items():
        if name not in CHECK_SIDES:
            continue
        if c["passes"] + c["failures"] != count or c["failures"] != 0:
            problems.append(f"{name}: passes {c['passes']} + failures {c['failures']} != {count}")
        table = c["witness"]
        if not table.startswith(f"{n}:"):
            problems.append(f"{name}: witness {table} is not of arity {n}")
            continue
        lhs_expr, rhs_expr = CHECK_SIDES[name]
        lhs, rhs = quantity(oracle, table, lhs_expr), quantity(oracle, table, rhs_expr)
        if not (_close(c["witness_lhs"], lhs) and _close(c["witness_rhs"], rhs)):
            problems.append(
                f"{name} at {table}: reported {c['witness_lhs']!r} vs {c['witness_rhs']!r},"
                f" oracle {lhs!r} vs {rhs!r}"
            )
        if not _close(c["min_margin"], c["witness_rhs"] - c["witness_lhs"]):
            problems.append(f"{name}: min_margin is not rhs - lhs")
    ratios = {r["name"]: r for r in body.get("ratios", [])}
    expected = set(RATIO_SIDES) | ({"lambda/adeg"} if n == 4 and count == 1 << 16 else set())
    if set(ratios) != expected:
        problems.append(f"ratios {sorted(ratios)} != {sorted(expected)}")
    for name, r in ratios.items():
        table = r["witness"]
        if name == "lambda/adeg":
            if r.get("class_count") != NPN_CLASSES_ARITY4:
                problems.append(f"lambda/adeg class_count {r.get('class_count')} != 222")
            num = oracle.lam(table)
            den = r["denominator"]
            if not (den == int(den) and oracle.adeg_holds(table, int(den))):
                problems.append(f"lambda/adeg: adeg({table}) = {den} fails the LP check")
        elif name in RATIO_SIDES:
            num_expr, den_expr = RATIO_SIDES[name]
            num, den = quantity(oracle, table, num_expr), quantity(oracle, table, den_expr)
        else:
            continue
        if not (_close(r["numerator"], num) and _close(r["denominator"], den)):
            problems.append(
                f"{name} at {table}: reported {r['numerator']!r}/{r['denominator']!r},"
                f" oracle {num!r}/{den!r}"
            )
        elif not _close(r["max_ratio"], r["numerator"] / r["denominator"]):
            problems.append(f"{name}: max_ratio is not numerator / denominator")
    if not isinstance(body.get("report_hash"), str) or len(body["report_hash"]) != 64:
        problems.append("report_hash missing")
    return problems


def check_measures(op: dict, body: dict, oracle: O.Oracle) -> list[str]:
    problems = []
    table = body.get("function", {}).get("table")
    if table != op["table"]:
        return [f"report is for {table}, expected {op['table']}"]
    n = int(table.split(":")[0])
    m = body.get("measures", {})
    required = ALL_MEASURES if n <= FULL_REPORT_MAX_ARITY else LARGE_ARITY_MEASURES
    for name in required:
        if name not in m or "skipped" in m[name]:
            problems.append(f"{name} missing or skipped")
    sens = oracle.sensitivity(table)
    for name, entry in m.items():
        if "skipped" in entry:
            continue
        value = entry.get("value")
        if name in ("s", "s0", "s1"):
            ok = value == sens[name]
            if name != "s":
                ok = ok and entry.get("defined") == sens[f"{name}_defined"]
        elif name == "avg_s":
            ok = Fraction(entry["fraction"]) == sens["avg_s"] and value == float(sens["avg_s"])
        elif name in ("bs", "C", "D", "deg", "deg2"):
            ok = value == quantity(oracle, table, name)
        elif name == "adeg":
            ok = isinstance(value, int) and oracle.adeg_holds(table, value)
        elif name == "lambda":
            residual = entry.get("residual")
            ok = O.lambda_close(value, oracle.lam(table)) and (
                isinstance(residual, float) and 0 <= residual <= O.LAMBDA_TOL * max(1.0, value)
            )
        else:
            problems.append(f"unexpected measure {name}")
            continue
        if not ok:
            problems.append(f"{name} = {value!r} disagrees with the oracle at {table}")
    if op.get("certificates"):
        problems += _check_certificates(body.get("certificates"), table, oracle)
    return problems


def _check_certificates(certs, table: str, oracle: O.Oracle) -> list[str]:
    if not isinstance(certs, dict) or "skipped" in certs:
        return [f"certificates missing: {certs}"]
    problems = []
    names = {"edge_scheme", "vertex_scheme_balanced", "vertex_scheme_optimal", "sdp_primal", "sdp_dual"}
    if set(certs) != names:
        problems.append(f"certificates {sorted(certs)} != {sorted(names)}")
    lam = oracle.lam(table)
    sens = oracle.sensitivity(table)
    expected = {
        "edge_scheme": lam,
        "vertex_scheme_optimal": lam,
        "sdp_primal": lam,
        "sdp_dual": lam,
        "vertex_scheme_balanced": math.sqrt(sens["s0"] * sens["s1"]),
    }
    for name, cert in certs.items():
        if cert.get("verdict") is not True:
            problems.append(f"certificate {name}: verifier verdict {cert.get('verdict')!r}")
        value = cert.get("alpha") if name == "sdp_dual" else cert.get("claimed_value")
        if name in expected and not _close(value, expected[name], CERT_VALUE_TOL):
            problems.append(f"certificate {name}: value {value!r}, oracle {expected[name]!r}")
    return problems


def check_witness(op: dict, body: dict, oracle: O.Oracle) -> list[str]:
    problems = []
    table = body.get("restricted_table")
    if table != op["table"]:
        return [f"restricted to {table}, expected {op['table']}"]
    n, f = O.parse_table(table)
    v = np.asarray(body.get("vector", []), dtype=float)
    if body.get("arity") != n or v.shape != (1 << n,):
        return [f"vector of shape {v.shape} for arity {body.get('arity')}"]
    if oracle.deg(table) != n:
        problems.append(f"{table} is not of full degree")
    if v.min() < 0:
        problems.append("witness vector has a negative entry")
    if abs(float(np.linalg.norm(v)) - 1.0) > VALUE_TOL:
        problems.append(f"witness vector has norm {np.linalg.norm(v)!r}")
    ratio = float(np.linalg.norm(O.adjacency_apply(n, f, v)))
    if ratio < math.sqrt(n) - VALUE_TOL:
        problems.append(f"||A v|| = {ratio!r} < sqrt({n})")
    if not _close(body.get("ratio"), ratio):
        problems.append(f"reported ratio {body.get('ratio')!r}, oracle ||A v|| {ratio!r}")
    if body.get("majority_size", 0) + body.get("minority_size", 0) != 1 << n:
        problems.append("support split does not cover the cube")
    return problems


def check_signing(op: dict, out: dict) -> list[str]:
    problems = []
    n = op["n"]
    size = 1 << n
    if out["shape"] != [size, size]:
        return [f"signed hypercube of shape {out['shape']}"]
    b = np.frombuffer(base64.b64decode(out["entries_int8"]), dtype=np.int8).reshape(size, size)
    b = b.astype(np.int64)
    idx = np.arange(size)
    diff = idx[:, None] ^ idx[None, :]
    cube = (diff != 0) & ((diff & (diff - 1)) == 0)
    if not np.array_equal(b != 0, cube) or not np.all(np.abs(b[cube]) == 1):
        problems.append("entries are not a +-1 signing of the cube edges")
    if not np.array_equal(b @ b, n * np.eye(size, dtype=np.int64)):
        problems.append("B^2 != n I")
    if not (out["ok"] and out["square_is_n_identity"] and out["trace_is_zero"] and out["support_is_hypercube"]):
        problems.append(f"verify_signing verdicts {out}")
    if out["plus_eigenspace_dim"] != size // 2:
        problems.append(f"plus eigenspace dimension {out['plus_eigenspace_dim']} != {size // 2}")
    return problems


def _check_chain_row(row: dict, table: str, oracle: O.Oracle) -> list[str]:
    problems = []
    n, f = O.parse_table(table)
    if n != GRAPH_EDGE_ARITY or not O.is_monotone(n, f) or f[0] != 0 or f[-1] != 1:
        return [f"{table} is not a nontrivial monotone property on 5 vertices"]
    if row["depth"] != GRAPH_EDGE_ARITY:
        problems.append(f"{row['property']}: depth {row['depth']} != 10 (evasiveness)")
    if not row["deg2"] <= row["deg"]:
        problems.append(f"{row['property']}: deg2 {row['deg2']} > deg {row['deg']}")
    if not row["lambda"] >= math.sqrt(row["deg"]) - VALUE_TOL:
        problems.append(f"{row['property']}: lambda {row['lambda']!r} < sqrt(deg)")
    if row["chain_ok"] is not True:
        problems.append(f"{row['property']}: chain_ok is {row['chain_ok']!r}")
    want = {
        "deg2": oracle.deg2(table),
        "deg": oracle.deg(table),
        "depth": oracle.D(table),
    }
    for key, value in want.items():
        if row[key] != value:
            problems.append(f"{row['property']}: {key} {row[key]} != oracle {value}")
    if not O.lambda_close(row["lambda"], oracle.lam(table)):
        problems.append(f"{row['property']}: lambda {row['lambda']!r} != oracle {oracle.lam(table)!r}")
    return problems


def check_graphprops(op: dict, body: dict, oracle: O.Oracle) -> list[str]:
    rows = body.get("rows", [])
    if body.get("property_count") != 1 or len(rows) != 1:
        return [f"expected one row, got {body.get('property_count')}"]
    if not (body.get("all_chain_ok") is True and body.get("all_evasive") is True):
        return ["all_chain_ok / all_evasive not both true"]
    f = O.graph_property_table(op["property"], 5, op.get("clique_size"))
    return _check_chain_row(rows[0], O.format_table(GRAPH_EDGE_ARITY, f), oracle)


def check_graphprops_subset(op: dict, out: dict, oracle: O.Oracle) -> list[str]:
    problems = []
    if out["count"] != op["expected_count"]:
        problems.append(f"{out['count']} properties enumerated, expected {op['expected_count']}")
    if len(out["rows"]) != len(op["picks"]):
        problems.append(f"{len(out['rows'])} rows for {len(op['picks'])} picks")
    for row in out["rows"]:
        problems += _check_chain_row(row, row["table"], oracle)
    return problems


def check_lambda(op: dict, out: dict, oracle: O.Oracle) -> list[str]:
    ref = oracle.lam(op["table"])
    problems = []
    if not O.lambda_close(out["value"], ref):
        problems.append(f"lambda {out['value']!r} != oracle {ref!r}")
    if not 0 <= out["residual"] <= O.LAMBDA_TOL * max(1.0, ref):
        problems.append(f"residual {out['residual']!r} above the certified tolerance")
    return problems


def check_outcome(op: dict, outcome: dict, oracle: O.Oracle) -> tuple[list[str], bool]:
    """(problems, known_fault) for one operation's outcome."""
    fault = op.get("known_fault")
    out = outcome.get("output") or {}
    if fault and out.get("exit_code") == 1 and fault in out.get("stderr", ""):
        return [], True
    try:
        return _check(op, outcome, out, oracle), False
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], False


def _check(op: dict, outcome: dict, out: dict, oracle: O.Oracle) -> list[str]:
    problems: list[str] = []
    kind = op["kind"]
    if kind == "cli":
        body = _json_output(outcome, problems)
        if body is None:
            return problems
        checker = {
            "sweep": check_sweep,
            "measures": check_measures,
            "witness": check_witness,
            "graphprops": check_graphprops,
        }[op["check"]]
        return checker(op, body, oracle)
    if outcome.get("error"):
        return [f"raised {outcome['error']}"]
    if kind == "lambda":
        return check_lambda(op, out, oracle)
    if kind == "signing":
        return check_signing(op, out)
    if kind == "graphprops-subset":
        return check_graphprops_subset(op, out, oracle)
    return [f"unknown operation kind {kind!r}"]
