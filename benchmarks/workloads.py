"""The benchmark's workloads: seeded lists of operations on bfc.

A plan is a list of operations, each a JSON-ready dict with an ``id``,
a ``kind`` that ``job.py`` knows how to run, and what the checks need
to know about the expected answer.  Plans are built here, from the seed
alone, without importing ``bfc``; the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import numpy as np

from oracle import format_table, popcounts

SAMPLED_ARITY = 8
SAMPLED_COUNT = 80
GRAPH_VERTICES = 5
GRAPH_PROPERTY_COUNT = 860  # nontrivial monotone graph properties on 5 vertices
GRAPH_SUBSET = 3
ITERATIVE_TABLE_SEED = 20040
NAMED_PROPERTIES = (
    ("has-edge", None),
    ("connectivity", None),
    ("contains-triangle", None),
    ("contains-clique", 4),
    ("min-degree-1", None),
)

def random_table(rng: np.random.Generator, n: int) -> str:
    bits = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
    return format_table(n, bits)


def family_table(name: str, n: int, inner: int | None = None) -> str:
    """The named families of the README, built from their definitions."""
    idx = np.arange(1 << n)
    pops = popcounts(n)
    if name == "OR":
        f = idx != 0
    elif name == "AND":
        f = idx == (1 << n) - 1
    elif name == "PARITY":
        f = pops % 2 == 1
    elif name == "EXACT1":
        f = pops == 1
    elif name == "XOR-OR":
        f = (idx & 1).astype(bool) ^ (idx >> 1 != 0)
    elif name == "AND-OR":
        block = (1 << inner) - 1
        f = np.all([(idx >> (k * inner)) & block != 0 for k in range(n // inner)], axis=0)
    else:
        raise ValueError(f"unknown family {name!r}")
    return format_table(n, f.astype(np.uint8))


def _measures(op_id: str, argv: list[str], table: str, **extra) -> dict:
    return {"id": op_id, "kind": "cli", "check": "measures", "argv": argv, "table": table, **extra}


def _family_measures(name: str, n: int, certificates: bool, inner: int | None = None) -> dict:
    argv = ["measures", "--family", name, "--n", str(n // inner if inner else n)]
    if inner:
        argv += ["--l", str(inner)]
    if certificates:
        argv.append("--certificates")
    label = f"{name}({n // inner},{inner})" if inner else f"{name}_{n}"
    return _measures(
        f"measures {label}" + (" --certificates" if certificates else ""),
        argv,
        family_table(name, n, inner),
        certificates=certificates,
    )


def exhaustive_n4(seed: int, threads: int) -> list[dict]:
    """All 65536 arity-4 functions; the input set does not depend on the seed."""
    return [
        {
            "id": "verify --max-n 4",
            "kind": "cli",
            "check": "sweep",
            "argv": ["verify", "--max-n", "4", "--threads", str(threads)],
            "arity": 4,
            "function_count": 1 << 16,
        }
    ]


def sampled_n8(seed: int, threads: int) -> list[dict]:
    argv = ["verify", "--sample", str(SAMPLED_COUNT), "--max-n", str(SAMPLED_ARITY)]
    return [
        {
            "id": f"verify --sample {SAMPLED_COUNT} --max-n {SAMPLED_ARITY} --seed {seed}",
            "kind": "cli",
            "check": "sweep",
            "argv": argv + ["--seed", str(seed), "--threads", str(threads)],
            "arity": SAMPLED_ARITY,
            "function_count": SAMPLED_COUNT,
        }
    ]


def single_function(seed: int, threads: int) -> list[dict]:
    """One-function operations near the top of each engine's arity range."""
    rng = np.random.default_rng([seed, 7])
    ops = [
        _family_measures("OR", 6, certificates=True),
        _family_measures("XOR-OR", 6, certificates=True),
        _family_measures("PARITY", 6, certificates=True),
        _family_measures("AND-OR", 6, certificates=True, inner=2),
    ]
    for n in (5, 6):
        table = random_table(rng, n)
        ops.append(
            _measures(
                f"measures random_{n} --certificates",
                ["measures", table, "--certificates"],
                table,
                certificates=True,
            )
        )
    exact1 = _family_measures("EXACT1", 7, certificates=False)
    # Known fault: the simplex hits its iteration cap in phase 1 and the
    # command exits 1.  Counted as a failed operation until that is mended.
    exact1["known_fault"] = "iteration cap"
    ops.append(exact1)
    # The power iteration behind lambda above 4096 inputs takes 0.6 s to
    # over 11 s on different random arity-14 tables, so these two tables
    # come from a fixed generator seed, not from the workload seed.
    fixed = np.random.default_rng(ITERATIVE_TABLE_SEED)
    for n in (13, 14):
        table = random_table(fixed, n)
        ops.append(_measures(f"measures fixed random_{n}", ["measures", table], table, certificates=False))
    table = random_table(rng, 11)
    ops.append({"id": "spectral_sensitivity random_11", "kind": "lambda", "table": table})
    ops.append(
        {
            "id": "witness AND_10",
            "kind": "cli",
            "check": "witness",
            "argv": ["witness", "--family", "AND", "--n", "10", "--format", "json"],
            "table": family_table("AND", 10),
        }
    )
    ops.append({"id": "verify_signing n=9", "kind": "signing", "n": 9})
    for name, clique in NAMED_PROPERTIES:
        argv = ["graphprops", "--n-vertices", str(GRAPH_VERTICES), "--name", name]
        if clique:
            argv += ["--clique-size", str(clique)]
        ops.append(
            {
                "id": "graphprops " + " ".join(argv[1:]),
                "kind": "cli",
                "check": "graphprops",
                "argv": argv,
                "property": name,
                "clique_size": clique,
            }
        )
    picks = sorted(int(i) for i in rng.choice(GRAPH_PROPERTY_COUNT, GRAPH_SUBSET, replace=False))
    ops.append(
        {
            "id": f"property_chain_report enumerated {picks}",
            "kind": "graphprops-subset",
            "n_vertices": GRAPH_VERTICES,
            "picks": picks,
            "expected_count": GRAPH_PROPERTY_COUNT,
        }
    )
    return ops


PLANS = {
    "exhaustive-n4": exhaustive_n4,
    "sampled-n8": sampled_n8,
    "single-function": single_function,
}


def build(workload: str, seed: int, threads: int) -> list[dict]:
    """The plan of ``workload`` for ``seed``, with sweeps on ``threads`` workers."""
    return PLANS[workload](seed, threads)
