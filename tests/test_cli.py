import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bfc
from bfc.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strip_timing(blob):
    if isinstance(blob, dict):
        return {k: strip_timing(v) for k, v in blob.items() if k != "timing"}
    if isinstance(blob, list):
        return [strip_timing(v) for v in blob]
    return blob


def test_measures_or4_json(capsys):
    rc, out, _ = run_cli(capsys, "measures", "--family", "OR", "--n", "4", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    assert body["function"]["table"] == "4:FFFE"
    m = body["measures"]
    for name in ("D", "s", "bs", "C", "deg", "deg2"):
        assert m[name]["value"] == 4
    assert m["adeg"]["value"] == 2
    assert m["lambda"]["value"] == pytest.approx(2.0, abs=1e-9)
    assert m["s0"]["value"] == 4 and m["s1"]["value"] == 1
    assert m["avg_s"]["fraction"] == "1/2"


def test_measures_parity3_text(capsys):
    rc, out, _ = run_cli(capsys, "measures", "--family", "PARITY", "--n", "3", "--format", "text")
    assert rc == 0
    assert "D" in out and "lambda" in out
    # parity: every combinatorial measure is n, degree n, GF(2) degree 1
    assert " 3" in out and " 1" in out


def test_measures_table_positional(capsys):
    rc, out, _ = run_cli(capsys, "measures", "2:E", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    assert body["function"]["table"] == "2:E"
    assert body["measures"]["lambda"]["value"] == pytest.approx(math.sqrt(2))


def test_measures_json_is_byte_stable(capsys):
    rc1, out1, _ = run_cli(capsys, "measures", "--family", "EXACT1", "--n", "4", "--format", "json")
    rc2, out2, _ = run_cli(capsys, "measures", "--family", "EXACT1", "--n", "4", "--format", "json")
    assert rc1 == rc2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert strip_timing(a) == strip_timing(b)
    # and the serialized form differs only inside the timing block
    assert json.dumps(strip_timing(a), sort_keys=True) == json.dumps(
        strip_timing(b), sort_keys=True
    )


def test_measures_with_certificates(capsys):
    rc, out, _ = run_cli(
        capsys, "measures", "--family", "OR", "--n", "3", "--certificates", "--format", "json"
    )
    assert rc == 0
    body = json.loads(out)
    certs = body["certificates"]
    assert certs["edge_scheme"]["verdict"] is True
    assert certs["vertex_scheme_optimal"]["verdict"] is True
    assert certs["sdp_primal"]["verdict"] is True
    assert certs["sdp_dual"]["verdict"] is True
    assert certs["edge_scheme"]["claimed_value"] == pytest.approx(math.sqrt(3))


def test_measures_text_shows_every_certificate_value(capsys):
    rc, out, _ = run_cli(
        capsys, "measures", "--family", "OR", "--n", "3", "--certificates", "--format", "text"
    )
    assert rc == 0
    lines = [line for line in out.splitlines() if "certificate " in line]
    assert len(lines) == 5
    # sdp_dual carries alpha, not claimed_value; lambda(OR_3) = sqrt(3)
    assert all(" value 1.7320508" in line and line.endswith("verifier ok") for line in lines)


def test_measures_certificates_have_no_csv_form(capsys):
    rc, out, err = run_cli(capsys, "measures", "2:E", "--certificates", "--format", "csv")
    assert rc == 1 and out == ""
    assert "--certificates has no csv form" in err


def test_measures_rejects_conflicting_inputs(capsys):
    rc, _, err = run_cli(capsys, "measures", "2:E", "--family", "OR", "--n", "2")
    assert rc == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measures", "2:E", "--n", "5"], "--n and --l apply only to --family"),
        (["families", "--family", "OR", "--n", "3", "--l", "2"], "--l applies only to"),
        (["families", "--n", "3"], "--n and --l apply only to --family"),
    ],
)
def test_stray_function_flags_are_usage_errors(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    assert message in err


def test_measures_and_or_needs_l(capsys):
    rc, _, err = run_cli(capsys, "measures", "--family", "AND-OR", "--n", "4")
    assert rc == 1
    rc, out, _ = run_cli(
        capsys, "measures", "--family", "AND-OR", "--n", "4", "--l", "2", "--format", "json"
    )
    assert rc == 0
    body = json.loads(out)
    # AND of 4 OR-blocks on 2 variables each: 8 variables, s = max(4, 2)
    assert body["function"]["arity"] == 8
    assert body["measures"]["s"]["value"] == 4
    assert body["measures"]["s0"]["value"] == 2
    assert body["measures"]["s1"]["value"] == 4
    assert body["measures"]["adeg"]["value"] == 3


@pytest.mark.parametrize(
    "argv, adeg",
    [
        (["--family", "OR", "--n", "8"], 3),
        (["8:D23F0824128B2F330C5C7FD0A6A3A4506513270E269E0D37F2A74DE452E6B438"], 5),
    ],
)
def test_measures_adeg_at_arity_8(capsys, argv, adeg):
    # README promises adeg up to arity 8, so these must exit 0
    rc, out, err = run_cli(capsys, "measures", *argv, "--format", "json")
    assert rc == 0, err
    assert json.loads(out)["measures"]["adeg"]["value"] == adeg


def test_bad_table_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "measures", "9:00")
    assert rc == 1
    assert "hex digits" in err


def test_signed_hex_table_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "measures", "4:+FFF")
    assert rc == 1 and out == ""
    assert "bad hex digits" in err


def test_verify_clean_json(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    assert body["violation_count"] == 0
    assert body["universe"]["arity"] == 2
    assert len(body["checks"]) == 13
    assert body["report_hash"]


def test_verify_json_hash_matches_library(capsys):
    from bfc.sweep import run_sweep

    rc, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["report_hash"] == run_sweep(max_n=3).report_hash


def test_verify_zero_tolerance_reports_float_jitter(capsys):
    # tolerance 0 turns eigenvalue round-off into honest failures: exit 2.
    # Up to arity 2 every Gram matrix is 1 x 1 or 2 x 2 and lambda comes
    # out exact, so the jitter first shows at arity 3.
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--tolerance", "0", "--format", "json")
    assert rc == 2
    assert json.loads(out)["violation_count"] > 0


def test_verify_csv_stream(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,table,check,lhs,rhs,margin,pass"
    assert len(lines) == 1 + 16 * 13
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_sampled(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--max-n", "6", "--sample", "30", "--seed", "4", "--format", "json"
    )
    assert rc == 0
    body = json.loads(out)
    assert body["universe"] == {
        "mode": "sampled",
        "arity": 6,
        "function_count": 30,
        "seed": 4,
    }


def test_verify_cap_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "verify", "--max-n", "5")
    assert rc == 1
    assert "error" in err


def _no_measuring(*args, **kwargs):
    raise AssertionError("a function was measured")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_rejects_bad_tolerance(capsys, monkeypatch, fmt, tolerance):
    from bfc import sweep

    monkeypatch.setattr(sweep, "measure_stack", _no_measuring)
    rc, out, err = run_cli(
        capsys, "verify", "--max-n", "2", "--tolerance", tolerance, "--format", fmt
    )
    assert (rc, out) == (1, "")
    assert "tolerance must be finite and >= 0" in err


def test_verify_rejects_a_negative_seed(capsys, monkeypatch):
    from bfc import sweep

    monkeypatch.setattr(sweep, "measure_stack", _no_measuring)
    rc, out, err = run_cli(capsys, "verify", "--max-n", "2", "--sample", "3", "--seed", "-1")
    assert (rc, out) == (1, "")
    assert "seed must be >= 0, got -1" in err


def test_verify_help_says_exhaustive_sweeps_ignore_threads(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "exhaustive sweeps ignore it" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_rejects_non_integer_bfc_threads(capsys, monkeypatch, fmt):
    monkeypatch.setenv("BFC_THREADS", "two")
    rc, out, err = run_cli(capsys, "verify", "--max-n", "2", "--format", fmt)
    assert (rc, out) == (1, "")
    assert "BFC_THREADS must be an integer, got 'two'" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_rejects_a_negative_thread_count(capsys, monkeypatch, fmt):
    monkeypatch.delenv("BFC_THREADS", raising=False)
    rc, out, err = run_cli(capsys, "verify", "--max-n", "2", "--threads", "-3", "--format", fmt)
    assert (rc, out) == (1, "")
    assert "--threads must be >= 0, got -3" in err
    monkeypatch.setenv("BFC_THREADS", "-3")
    rc, out, err = run_cli(capsys, "verify", "--max-n", "2", "--format", fmt)
    assert (rc, out) == (1, "")
    assert "BFC_THREADS must be >= 0, got -3" in err


def test_witness_and3(capsys):
    rc, out, _ = run_cli(capsys, "witness", "--family", "AND", "--n", "3", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    assert body["arity"] == 3
    assert body["ratio"] >= math.sqrt(3) - 1e-9
    assert len(body["vector"]) == 8
    norm = math.fsum(v * v for v in body["vector"])
    assert norm == pytest.approx(1.0)


def test_witness_or4(capsys):
    rc, out, _ = run_cli(capsys, "witness", "--family", "OR", "--n", "4", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    # OR_4 already has full degree; no restriction happens
    assert body["arity"] == 4
    assert body["restricted_table"] == "4:FFFE"
    assert body["ratio"] >= 2 - 1e-9


def test_witness_parity4_support_split(capsys):
    rc, out, _ = run_cli(capsys, "witness", "--family", "PARITY", "--n", "4", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    assert body["ratio"] >= 2 - 1e-9
    assert body["minority_size"] == 0
    assert body["majority_size"] == 16


def test_witness_restricts_low_degree_table(capsys):
    # f = NOT x3 on 3 variables: top monomial is {x3}; restriction has arity 1
    rc, out, _ = run_cli(capsys, "witness", "3:0F", "--format", "json")
    assert rc == 0
    body = json.loads(out)
    assert body["arity"] == 1
    assert body["ratio"] >= 1 - 1e-12


def test_witness_text_format(capsys):
    rc, out, _ = run_cli(capsys, "witness", "3:0F", "--format", "text")
    assert rc == 0
    assert "certified ratio" in out
    assert "index,entry" in out


@pytest.mark.parametrize("family, n", [("OR", 4), ("AND", 2)])
def test_witness_text_prints_the_inequality_it_checked(capsys, family, n):
    # the ratio may fall short of sqrt(n) by rounding; the line must state
    # the bound the witness was checked against, and that bound must hold
    rc, out, _ = run_cli(capsys, "witness", "--family", family, "--n", str(n), "--format", "text")
    assert rc == 0
    line = next(x for x in out.splitlines() if x.startswith("certified ratio"))
    match = re.fullmatch(r"certified ratio (\S+) >= sqrt\((\d+)\)(?: - (\S+))?", line)
    assert match, line
    ratio, arity, slack = match.groups()
    assert float(ratio) >= math.sqrt(int(arity)) - float(slack or 0), line


def test_witness_constant_fails(capsys):
    rc, _, err = run_cli(capsys, "witness", "1:0")
    assert rc == 1
    assert "constant" in err


def test_graphprops_enumerate_n3(capsys):
    rc, out, _ = run_cli(capsys, "graphprops", "--n-vertices", "3", "--enumerate", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_vertices,property,deg2,deg,lambda,depth,chain_ok"
    assert len(lines) == 4
    assert all(line.endswith(",true") for line in lines[1:])
    assert lines[1].startswith("3,3:80,")


def test_graphprops_named_json(capsys):
    rc, out, _ = run_cli(
        capsys, "graphprops", "--n-vertices", "4", "--name", "has-edge",
        "--assert-evasive", "--format", "json",
    )
    assert rc == 0
    body = json.loads(out)
    assert body["all_chain_ok"] is True
    assert body["all_evasive"] is True
    row = body["rows"][0]
    assert row["deg"] == 6 and row["deg2"] == 6 and row["depth"] == 6
    assert row["lambda"] == pytest.approx(math.sqrt(6))


def test_graphprops_enumerate_evasive_n4(capsys):
    rc, out, _ = run_cli(
        capsys, "graphprops", "--n-vertices", "4", "--enumerate",
        "--assert-evasive", "--format", "json",
    )
    assert rc == 0
    body = json.loads(out)
    assert body["property_count"] == 22
    assert body["all_evasive"] is True


def test_graphprops_vertex_cap(capsys):
    rc, _, err = run_cli(capsys, "graphprops", "--n-vertices", "6", "--enumerate")
    assert rc == 1
    assert "error" in err


@pytest.mark.parametrize(
    "n, message", [("6", "arity 15 above cap 10"), ("7", "2 <= n_vertices <= 6")]
)
def test_graphprops_named_vertex_caps(capsys, n, message):
    # 6 vertices build a table but stop at D's arity cap; 7 build nothing
    rc, out, err = run_cli(capsys, "graphprops", "--n-vertices", n, "--name", "has-edge")
    assert rc == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("name", ["has-edge", "contains-triangle"])
def test_graphprops_clique_size_only_with_contains_clique(capsys, name):
    rc, out, err = run_cli(
        capsys, "graphprops", "--n-vertices", "4", "--name", name, "--clique-size", "4"
    )
    assert rc == 1 and out == ""
    assert "clique size applies only to contains-clique" in err


def test_graphprops_contains_clique_asks_for_its_size(capsys):
    rc, out, err = run_cli(capsys, "graphprops", "--n-vertices", "4", "--name", "contains-clique")
    assert rc == 1 and out == ""
    assert "contains-clique requires a clique size (--clique-size)" in err


def test_graphprops_enumerate_rejects_clique_size(capsys):
    rc, out, err = run_cli(
        capsys, "graphprops", "--n-vertices", "3", "--enumerate", "--clique-size", "3"
    )
    assert rc == 1 and out == ""
    assert "--clique-size applies only to --name contains-clique" in err


def test_families_listing(capsys):
    rc, out, _ = run_cli(capsys, "families")
    assert rc == 0
    names = out.split()
    assert names == ["OR", "AND", "PARITY", "AND-OR", "EXACT1", "XOR-OR"]


def test_families_print_table(capsys):
    rc, out, _ = run_cli(capsys, "families", "--family", "XOR-OR", "--n", "3")
    assert rc == 0
    # x1 XOR (x2 OR x3): ones at inputs 1, 2, 4, 6
    assert out.strip() == "XOR-OR: 3:56"


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_console_script_entry_point():
    # The child imports the same bfc as this test, installed or not.
    src = str(Path(bfc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bfc", "measures", "2:E", "--format", "csv"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("measure,value,exactness")


def test_a_reader_that_leaves_early_gets_no_traceback():
    # ``bfc verify ... | head -1``: the CSV outgrows the pipe buffer, so the
    # writer meets the closed pipe mid-stream and must exit 1 quietly
    src = str(Path(bfc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bfc", "verify", "--max-n", "3", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline().startswith("n,table,check")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_report_hash_ignores_the_blas_thread_count():
    # lambda may round differently under one and two BLAS threads; the
    # report hash must not
    src = str(Path(bfc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["verify", "--sample", "10", "--max-n", "8", "--seed", "0", "--threads", "1"]
    hashes = set()
    for blas in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "bfc", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas},
        )
        assert proc.returncode == 0, proc.stderr
        hashes.add(json.loads(proc.stdout)["report_hash"])
    assert len(hashes) == 1
