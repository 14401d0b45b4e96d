"""Machine-readable reports with stable serialization.

Reports are plain dictionaries rendered through one canonical JSON
encoder, so identical inputs produce byte-identical output except for
the timing and diagnostics blocks; a sha256 over the canonical form
(those blocks excluded, computed sweep floats on the ``TIE_GRID`` grid)
makes reruns comparable at a glance.
"""

from __future__ import annotations

import hashlib
import json
import time
from functools import cached_property

import numpy as np

from . import adversary, bits
from .algebraic import APPROX_DEGREE_MAX_ARITY, approximate_degree, degrees, gf2_degrees
from .combinatorial import (
    BLOCK_MEASURE_MAX_ARITY,
    DEPTH_MAX_ARITY,
    block_sensitivities,
    certificate_costs,
    decision_depths,
    monochromatic,
    sensitivities,
)
from .spectral import SensitivityGraph, spectral_sensitivities
from .tables import TruthTable, format_table

SPECTRAL_TAG = "tolerance(1e-09)"
VOLATILE_KEYS = ("timing", "diagnostics", "report_hash")
TIE_GRID = 1e-9  # computed sweep floats are ranked and hashed in units of this
GRID_KEYS = ("min_margin", "witness_lhs", "witness_rhs", "max_ratio", "numerator", "denominator")
MEASURE_NAMES = ("s", "s0", "s1", "avg_s", "bs", "C", "D", "deg", "deg2", "adeg", "lambda")
KNOWN_NAMES = MEASURE_NAMES + ("certificates",)
# Each engine's own arity cap; above it the measure is skipped.
MEASURE_CAPS = {
    "bs": BLOCK_MEASURE_MAX_ARITY,
    "C": BLOCK_MEASURE_MAX_ARITY,
    "D": DEPTH_MAX_ARITY,
    "adeg": APPROX_DEGREE_MAX_ARITY,
    "certificates": adversary.SDP_MAX_ARITY,
}
_SENSITIVITY_GROUP = ("s", "s0", "s1", "avg_s")  # one engine call gives all four
_ENGINE_ERRORS = (ValueError, ArithmeticError, RuntimeError)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def on_grid(value: float) -> int:
    return round(value / TIE_GRID)


def _hashable(obj):
    """``obj`` without the volatile keys, each float under a ``GRID_KEYS``
    key replaced by its grid rank."""
    if isinstance(obj, dict):
        return {
            k: on_grid(v) if k in GRID_KEYS and isinstance(v, float) else _hashable(v)
            for k, v in obj.items()
            if k not in VOLATILE_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [_hashable(v) for v in obj]
    return obj


def report_hash(body: dict) -> str:
    """sha256 of the canonical JSON, ignoring timing, diagnostics and
    embedded hashes, with computed sweep floats taken on the grid so
    that eigenvalue rounding cannot change it."""
    text = canonical_json(_hashable(body))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exact(value) -> dict:
    return {"value": value, "exactness": "exact"}


def cap_reason(name: str, n: int) -> str | None:
    """Why ``name`` is skipped at arity ``n``; None at or under its cap."""
    cap = MEASURE_CAPS.get(name)
    return f"arity {n} above cap {cap}" if cap is not None and n > cap else None


class _Stack:
    """k tables of arity n being measured for ``names``, and what each
    engine gave on them, every engine run at most once."""

    def __init__(self, n: int, tables: list[int], names):
        self.n, self.tables, self.names = n, tables, names
        self.functions = [TruthTable(n, t) for t in tables]  # refuses a bad arity or table
        self.values = bits.to_bit_rows(tables, n)
        self.memo: dict[str, object] = {}  # a plain dict, so that it says which engines ran

    @cached_property
    def graph(self) -> SensitivityGraph:
        """The union G_f that s and lambda read."""
        return SensitivityGraph(self.values)

    def run(self, engine: str, rows: np.ndarray | None = None):
        """The engine's result on the tables ``rows`` (a mask), on all of
        them for an engine that takes every table; every call of one
        engine passes the same rows."""
        if engine not in self.memo:
            self.memo[engine] = _ENGINES[engine](self, rows)
        return self.memo[engine]

    def subcubes(self, rows: np.ndarray) -> np.ndarray:
        """The ``monochromatic`` tables of the tables ``rows``, read off
        one build per stack that covers every table C or D runs on."""
        if "subcubes" not in self.memo:
            need = np.zeros(len(self.tables), dtype=bool)
            for key, askers in (("C", {"bs", "C"}), ("D", {"D"})):
                if askers & set(self.names) and cap_reason(key, self.n) is None:
                    need |= ~_bounds(key, self)[1]
            self.memo["subcubes"] = monochromatic(self.values[need]), np.cumsum(need) - 1
        mono, place = self.memo["subcubes"]
        return mono[place[rows]]


def _approximate_degrees(st: _Stack) -> list[tuple[int, list]]:
    """adeg of each table, one LP walk per table, each with the
    ``(degree, pivots, exact)`` triples of its walk."""
    walks = [[] for _ in st.tables]
    return [(approximate_degree(f, walk=walk), walk) for f, walk in zip(st.functions, walks)]


# the engine names are looked up at call time, so rebinding them in this
# module (as tracing and tests do) reaches every caller of measure_stack()
_ENGINES = {
    "sensitivity": lambda st, rows: sensitivities(st.graph),
    "s": lambda st, rows: np.array([r.local.global_value for r in st.run("sensitivity")]),
    "lambda": lambda st, rows: spectral_sensitivities(st.graph),
    "bs": lambda st, rows: block_sensitivities(st.values[rows]).max(axis=1),
    "C": lambda st, rows: certificate_costs(st.subcubes(rows)).max(axis=1),
    "D": lambda st, rows: decision_depths(st.subcubes(rows)),
    "deg": lambda st, rows: degrees(st.values),
    "deg2": lambda st, rows: gf2_degrees(st.values),
    "adeg": lambda st, rows: _approximate_degrees(st),
}
# How measure_stack() obtains bs, C and D: from the two bounds of a
# sandwich when they meet, otherwise from the exhaustive engine.
METHODS = {"bs": ("s = C", "engine"), "C": ("s = n", "engine"), "D": ("deg = n", "engine")}


def _bounds(key: str, st: _Stack) -> tuple[np.ndarray | int, np.ndarray]:
    """The upper bound of ``key``'s sandwich on each table, and where the
    lower bound meets it: ``deg <= D <= n`` and ``s <= bs <= C <= n``."""
    if key == "D":
        low, high = st.run("deg"), st.n
    else:
        low, high = st.run("s"), st.n if key == "C" else _sandwiched("C", st)[0]
    return high, low == high


def _sandwiched(key: str, st: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """``key``'s value on each table and whether its bounds met there:
    D = n where deg = n, C = n where s = n and bs = s where s = C.  The
    engine runs on the other tables."""
    high, met = _bounds(key, st)
    value = np.where(met, high, 0)
    if not met.all():
        value[~met] = st.run(key, ~met)
    return value, met


def _certificates(st: _Stack) -> dict:
    """Every adversary certificate of a one-table stack's ``Spectrum``,
    on that table's G_f, with its verifier's verdict; skipped for a
    constant function."""
    if st.functions[0].is_constant():
        return {"skipped": "constant function"}
    [spec] = st.run("lambda")
    edge_scheme, _ = adversary.edge_scheme_from_eigenvector(spec)
    balanced, _ = adversary.balanced_vertex_scheme(spec)
    optimal, _ = adversary.optimal_vertex_scheme(spec)
    certs = {
        "edge_scheme": edge_scheme,
        "vertex_scheme_balanced": balanced,
        "vertex_scheme_optimal": optimal,
        "sdp_primal": adversary.sdp_primal_certificate(spec),
        "sdp_dual": adversary.sdp_dual_certificate(spec, optimal),
    }
    return {name: adversary.certificate_json(spec.graph, cert) for name, cert in certs.items()}


def _engine_entries(key: str, st: _Stack, methods: list[dict]) -> list[dict[str, dict]]:
    """Per table, the entries one engine gives: the four sensitivity
    measures for ``"sensitivity"``, otherwise the measure ``key`` alone.
    The method of a sandwiched measure goes into ``methods``."""
    if key == "sensitivity":
        return [
            {
                "s": _exact(sens.local.global_value),
                "s0": {**_exact(sens.s0), "defined": sens.s0_defined},
                "s1": {**_exact(sens.s1), "defined": sens.s1_defined},
                "avg_s": {
                    "value": float(sens.average),
                    "fraction": f"{sens.average.numerator}/{sens.average.denominator}",
                    "exactness": "exact",
                },
            }
            for sens in st.run("sensitivity")
        ]
    if key == "lambda":
        return [
            {"lambda": {"value": sr.value, "exactness": SPECTRAL_TAG, "residual": sr.residual}}
            for sr in st.run("lambda")
        ]
    if key == "adeg":
        return [{key: _exact(adeg)} for adeg, _ in st.run(key)]
    if key == "certificates":
        return [{"certificates": _certificates(st)}]
    if key in METHODS:
        values, met = _sandwiched(key, st)
        for table_methods, ok in zip(methods, met.tolist()):
            table_methods[key] = METHODS[key][0 if ok else 1]
        return [{key: _exact(value)} for value in values.tolist()]
    return [{key: _exact(value)} for value in np.asarray(st.run(key)).tolist()]


def measure_stack(n: int, tables: list[int], names) -> list[tuple[dict[str, dict], dict]]:
    """``measure`` of each of the arity-n tables ``tables``, with each
    engine run once over the whole stack.

    Each entry is ``{"value", "exactness", ...}``, or ``{"skipped":
    reason}`` above the measure's ``MEASURE_CAPS`` arity.  The name
    ``"certificates"`` gives the adversary certificate block of one
    table instead.  Every engine runs at most once per call: s, lambda
    and the certificates read the stack's one ``SensitivityGraph``, and
    ``bs``, ``C`` and ``D`` read s, C and deg from the same memo as the
    entries of those names.  ``bs`` is s where s = C, ``C`` is n where
    s = n and ``D`` is n where deg = n, since ``s <= bs <= C <= n`` and
    ``deg <= D <= n``; only the tables where the bounds differ go to the
    exhaustive engine.  An unknown name, a table out of range for arity
    n, or certificates for several tables raise ``ValueError`` before
    any engine runs.  An engine error is re-raised with the measure and
    the table it fails on prefixed to its text: in a stack of several
    tables, the first one that fails when measured alone.

    Each table's record holds ``timing`` (seconds per engine call, over
    the whole stack), ``methods`` (a ``METHODS`` entry per sandwiched
    name), ``adeg_lp`` (``adeg``'s decided degrees, exact ones, and
    pivots by degree) and ``lambda_solves`` (the solves of the table's
    lambda, if it ran); no engine runs only to fill it.  ``adeg_lp`` is
    read off the table's ``approximate_degree`` walk, ``lambda_solves``
    off its ``Spectrum``, both from the memo.
    """
    for name in names:
        if name not in KNOWN_NAMES:
            raise ValueError(f"unknown measure {name!r}; known: {', '.join(KNOWN_NAMES)}")
    if "certificates" in names and len(tables) > 1:
        raise ValueError(f"certificates are measured for one table, not a stack of {len(tables)}")
    if not tables:
        return []
    st = _Stack(n, list(tables), names)
    got: list[dict[str, dict]] = [{} for _ in st.tables]
    methods: list[dict[str, str]] = [{} for _ in st.tables]
    timing: dict[str, float] = {}
    for name in names:
        reason = cap_reason(name, n)
        if reason is not None:
            for entries in got:
                entries[name] = {"skipped": reason}
        elif name not in got[0]:
            key = "sensitivity" if name in _SENSITIVITY_GROUP else name
            t0 = time.perf_counter()
            try:
                for entries, more in zip(got, _engine_entries(key, st, methods)):
                    entries.update(more)
            except _ENGINE_ERRORS as exc:
                if len(st.tables) == 1:
                    exc.args = (f"{name} of {format_table(st.functions[0])}: {exc}",)
                    raise
                for table in st.tables:  # the first table that fails alone raises, named
                    measure_stack(n, [table], names)
                exc.args = (f"{name} of a stack of {len(st.tables)} arity-{n} tables: {exc}",)
                raise
            timing[key] = time.perf_counter() - t0
    adeg = st.memo.get("adeg", [(None, [])] * len(st.tables))
    spectra = st.memo.get("lambda", [None] * len(st.tables))
    return [
        (
            {name: entries[name] for name in names},
            {
                "timing": dict(timing),
                "methods": table_methods,
                "adeg_lp": {
                    "solves": len(walk),
                    "exact": sum(exact for _, _, exact in walk),
                    "pivots": {str(d): p for d, p, _ in walk},
                },
                "lambda_solves": [
                    dict(zip(("vertices", "side", "method", "steps"), s))
                    for s in (spec.solves if spec is not None else [])
                ],
            },
        )
        for entries, table_methods, (_, walk), spec in zip(got, methods, adeg, spectra)
    ]


def measure(f: TruthTable, names) -> tuple[dict[str, dict], dict]:
    """The measures ``names`` of one function, in that order, and one
    diagnostics record of how they were obtained: ``measure_stack`` of
    the one table."""
    [(entries, record)] = measure_stack(f.arity, [f.table], names)
    return entries, record


def measure_report(
    f: TruthTable,
    family: str | None = None,
    include_certificates: bool = False,
) -> dict:
    """Every measure of one function, each tagged exact or tolerance.

    Measures whose engine cap is below the function's arity appear as
    ``{"skipped": reason}`` instead of failing the whole report.
    Certificates (optional) cover the adversary forms, are built from
    the ``Spectrum`` behind ``lambda`` and carry their own verifier
    verdicts.  The volatile ``timing`` and ``diagnostics`` blocks are
    ``measure``'s record: its timing, and the rest as it stands.
    """
    names = KNOWN_NAMES if include_certificates else MEASURE_NAMES
    measures, record = measure(f, names)
    certificates = measures.pop("certificates", None)
    body = {
        "function": {
            "arity": f.arity,
            "table": format_table(f),
            "family": family,
        },
        "measures": measures,
    }
    if include_certificates:
        body["certificates"] = certificates
    body["timing"] = record.pop("timing")
    body["diagnostics"] = record
    return body


def render_text(body: dict) -> str:
    """Aligned human-readable view of a measure report."""
    fn = body["function"]
    lines = [f"function {fn['table']}" + (f" ({fn['family']})" if fn["family"] else "")]
    width = max(len(k) for k in body["measures"])
    for name, entry in body["measures"].items():
        if "skipped" in entry:
            lines.append(f"  {name:<{width}}  skipped: {entry['skipped']}")
            continue
        extra = ""
        if "fraction" in entry:
            extra = f"  (= {entry['fraction']})"
        if entry.get("exactness", "").startswith("tolerance"):
            extra = f"  [{entry['exactness']}]"
        lines.append(f"  {name:<{width}}  {entry['value']}{extra}")
    if "certificates" in body:
        certs = body["certificates"]
        if "skipped" in certs:
            lines.append(f"  certificates skipped: {certs['skipped']}")
        else:
            for name, cert in certs.items():
                verdict = "ok" if cert.get("verdict") else "FAILED"
                value = cert.get("claimed_value", cert.get("alpha"))
                shown = f" value {value:.9g}" if isinstance(value, float) else ""
                lines.append(f"  certificate {name}:{shown} verifier {verdict}")
    return "\n".join(lines) + "\n"
