"""Run one round of a workload plan in this (fresh) interpreter.

Reads ``{"ops": [...], "setup_only": bool, "trace": bool}`` as JSON on
stdin, imports bfc from the checkout, builds the inputs, runs every
operation once in order, and prints one JSON line: set-up time, the
round's wall time, CPU time (this process plus the sweep's pool
workers), peak RSS, and each operation's raw output.  Nothing here
checks results; ``check.py`` does that in the parent, without bfc.

Usage (normally started by ``run.py``)::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/job.py < spec.json
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest reaped worker
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _prepare(op: dict, bfc) -> dict:
    """Parse the op's inputs into bfc objects (part of set-up)."""
    if op["kind"] == "lambda":
        return {"f": bfc.tables.parse_table(op["table"])}
    return {}


def _run_cli(bfc, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = bfc.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_op(op: dict, ready: dict, bfc):
    """Run one operation through bfc's public entry points; the returned
    raw objects are serialized after the clock stops."""
    kind = op["kind"]
    if kind == "cli":
        return _run_cli(bfc, op["argv"])
    if kind == "lambda":
        return bfc.spectral.spectral_sensitivity(ready["f"])
    if kind == "signing":
        h = bfc.spectral.build_signed_hypercube(op["n"])
        return h, bfc.spectral.verify_signing(h)
    if kind == "graphprops-subset":
        gp = bfc.graphprops
        props = gp.enumerate_monotone_properties(op["n_vertices"])
        ordered = sorted(props, key=lambda p: p.table.table)
        picks = [i for i in op["picks"] if i < len(ordered)]
        return len(props), [(ordered[i].table, gp.property_chain_report(ordered[i])) for i in picks]
    raise ValueError(f"unknown operation kind {kind!r}")


def _serialize(op: dict, raw, bfc) -> dict:
    kind = op["kind"]
    if kind == "cli":
        return raw
    if kind == "lambda":
        return {"value": raw.value, "residual": raw.residual}
    if kind == "signing":
        h, report = raw
        return {
            "ok": report.ok,
            "square_is_n_identity": report.square_is_n_identity,
            "trace_is_zero": report.trace_is_zero,
            "support_is_hypercube": report.support_is_hypercube,
            "plus_eigenspace_dim": report.plus_eigenspace_dim,
            "shape": list(h.entries.shape),
            "entries_int8": base64.b64encode(h.entries.astype("int8").tobytes()).decode(),
        }
    if kind == "graphprops-subset":
        count, rows = raw
        return {
            "count": count,
            "rows": [
                {
                    "table": bfc.tables.format_table(table),
                    "property": r.property_id,
                    "deg2": r.deg2,
                    "deg": r.deg,
                    "lambda": r.spectral,
                    "depth": r.depth,
                    "chain_ok": r.chain_ok,
                }
                for table, r in rows
            ],
        }
    raise ValueError(f"unknown operation kind {kind!r}")


def _span_cost(tracing, calls: int = 20000) -> float:
    """Seconds one tracing wrapper adds to a call, timed on a no-op."""
    probe = tracing.Tracer()

    def bare():
        return None

    wrapped = probe.wrap("probe", bare)
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main() -> int:
    spec = json.load(sys.stdin)
    started = time.perf_counter()
    import importlib

    bfc = importlib.import_module("bfc")
    for name in ("cli", "spectral", "graphprops", "tables"):
        importlib.import_module(f"bfc.{name}")
    ops = spec["ops"]
    ready = [_prepare(op, bfc) for op in ops]
    setup_s = time.perf_counter() - started
    result = {"setup_s": setup_s, "bfc_file": bfc.__file__}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return 0

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    raws = []
    for op, prep in zip(ops, ready):
        t0 = time.perf_counter()
        try:
            raw, error = _run_op(op, prep, bfc), None
        except Exception as exc:  # one failing operation must not end the round
            raw, error = None, f"{type(exc).__name__}: {exc}"
        raws.append((raw, error, time.perf_counter() - t0))
    run_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    peak = _peak_rss_mb()

    outcomes = []
    for op, (raw, error, seconds) in zip(ops, raws):
        entry = {"id": op["id"], "seconds": seconds, "error": error}
        if error is None:
            entry["output"] = _serialize(op, raw, bfc)
        outcomes.append(entry)
    result.update(run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak, outcomes=outcomes)
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = float(
            sum(len(o["output"]["stdout"]) for o in outcomes if "stdout" in o.get("output", {}))
        )
        layers["trace.run_s"] = run_s
        wrapper_s = layers["trace.spans"] * _span_cost(tracing)
        layers["trace.overhead_pct"] = 100.0 * wrapper_s / max(run_s - wrapper_s, 1e-9)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
