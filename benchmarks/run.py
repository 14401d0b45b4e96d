"""The bfc benchmark: one workload, timed in fresh interpreters and checked.

    python3 benchmarks/run.py --workload exhaustive-n4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is the checkout's own
``src/bfc``; there is nothing to build.  Each round of the workload runs
in a fresh interpreter (``job.py``) with BLAS pinned to one thread, and
rounds repeat until ``--seconds`` have passed (at least one).  Set-up
is measured in separate fresh interpreters too.  Every output is checked
against ``oracle.py``, which does not import bfc.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over rounds); with ``--trace 1`` the rounds run
with one sweep worker and wrapped functions (``tracer.py``), and the
metrics are per layer, plus the tracing overhead.  A record of every
round goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170
# BLAS left at its default thread count makes the same sweep take 2-5x
# longer from run to run; pin every BLAS flavour numpy may load.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    pass


def worker_count() -> int:
    """What ``nproc`` reports: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BFC_THREADS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(spec: dict) -> dict:
    """One fresh interpreter running ``job.py`` on ``spec``; its JSON result.

    The child leads its own process group, so that a round cut short
    takes its sweep workers with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        text=True,
        preexec_fn=os.setpgrp,  # run.py starts no threads, so this is safe
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(spec), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a round did not finish within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchmarkError(f"job.py exited {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    bfc_file = Path(result["bfc_file"]).resolve()
    if ROOT / "src" not in bfc_file.parents:
        raise BenchmarkError(f"bfc was imported from {bfc_file}, not from this checkout")
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that run_child's cleanup runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "bfc" / "__init__.py").is_file():
        print(f"no bfc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = worker_count()
    plan = workloads.build(args.workload, args.seed, nproc)
    traced_plan = workloads.build(args.workload, args.seed, 1)
    try:
        record = measure(args, plan, traced_plan)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    checker = oracle.Oracle()
    attempted = failed = 0
    problems: list[str] = []
    hashes = set()
    for rnd in record["rounds"]:
        ops = traced_plan if rnd["traced"] else plan
        for op, outcome in zip(ops, rnd["outcomes"]):
            attempted += 1
            found, known_fault = check.check_outcome(op, outcome, checker)
            outcome["problems"] = found
            if known_fault:
                failed += 1
            elif found:
                failed += 1
                problems += [f"{op['id']}: {p}" for p in found]
            if op.get("check") == "sweep" and not found:
                hashes.add(json.loads(outcome["output"]["stdout"])["report_hash"])
    if len(hashes) > 1:
        problems.append(f"report_hash differs between rounds and worker counts: {sorted(hashes)}")
    correct = not problems

    rounds = [r for r in record["rounds"] if r["traced"] == bool(args.trace)]
    if args.trace:
        metrics = {
            name: _metric(statistics.median(r["layers"][name] for r in rounds), unit)
            for name, (unit, _better) in LAYER_METRICS.items()
        }
    else:
        setups = record["setup_probes"] + [r["setup_s"] for r in rounds]
        metrics = {
            "run_s": _metric(statistics.median(r["run_s"] for r in rounds), "s"),
            "cpu_s": _metric(statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }

    save_record(args, record, problems, metrics)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def measure(args, plan: list[dict], traced_plan: list[dict]) -> dict:
    """Set-up probes, then whole rounds until ``args.seconds`` have passed.

    With tracing, the rounds are traced and use one sweep worker, so that
    every wrapped call happens in the traced process.  One untraced round
    with ``nproc`` workers follows; its sweeps must give the same
    report_hash as the one-worker rounds.
    """
    run_child({"ops": plan, "setup_only": True})  # warms the file cache; not counted
    probes = [run_child({"ops": plan, "setup_only": True})["setup_s"] for _ in range(SETUP_PROBES)]
    ops = traced_plan if args.trace else plan
    rounds = []
    started = time.monotonic()
    while not rounds or time.monotonic() - started < args.seconds:
        rnd = run_child({"ops": ops, "trace": bool(args.trace)})
        rnd["traced"] = bool(args.trace)
        rounds.append(rnd)
    if args.trace:
        rnd = run_child({"ops": plan, "trace": False})
        rnd["traced"] = False
        rounds.append(rnd)
    return {"setup_probes": probes, "rounds": rounds}


def save_record(args, record: dict, problems: list[str], metrics: dict) -> None:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for rnd in record["rounds"]:
        for outcome in rnd["outcomes"]:
            outcome.pop("output", None)  # raw outputs run to megabytes
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "workers": worker_count(),
                "metrics": metrics,
                "problems": problems,
                **record,
            },
            indent=1,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
