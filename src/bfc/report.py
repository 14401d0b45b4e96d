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

from . import adversary
from .algebraic import (
    APPROX_DEGREE_MAX_ARITY,
    approximate_degree,
    degree,
    degree_gf2,
    lp_solve_log,
)
from .combinatorial import (
    BLOCK_MEASURE_MAX_ARITY,
    DEPTH_MAX_ARITY,
    block_sensitivity,
    certificate_complexity,
    deterministic_query_complexity,
    sensitivity,
)
from .spectral import spectral_sensitivity
from .tables import TruthTable, format_table

SPECTRAL_TAG = "tolerance(1e-09)"
VOLATILE_KEYS = ("timing", "diagnostics", "report_hash")
TIE_GRID = 1e-9  # computed sweep floats are ranked and hashed in units of this
GRID_KEYS = ("min_margin", "witness_lhs", "witness_rhs", "max_ratio", "numerator", "denominator")
MEASURE_NAMES = ("s", "s0", "s1", "avg_s", "bs", "C", "D", "deg", "deg2", "adeg", "lambda")
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


# the engine names are looked up at call time, so rebinding them in this
# module (as tracing and tests do) reaches every caller of measure()
_ENGINES = {
    "sensitivity": lambda f: sensitivity(f),
    "lambda": lambda f: spectral_sensitivity(f),
    "bs": lambda f: block_sensitivity(f).global_value,
    "C": lambda f: certificate_complexity(f).global_value,
    "D": lambda f: deterministic_query_complexity(f),
    "deg": lambda f: degree(f),
    "deg2": lambda f: degree_gf2(f),
    "adeg": lambda f: approximate_degree(f),
}
# How measure() obtains bs, C and D: from the two bounds of a sandwich
# when they meet, otherwise from the exhaustive engine.
METHODS = {"bs": ("s = C", "engine"), "C": ("s = n", "engine"), "D": ("deg = n", "engine")}


def _certificates(f: TruthTable, run) -> dict:
    """Every adversary certificate of f's ``Spectrum`` with its verifier's
    verdict; skipped for a constant function."""
    if f.is_constant():
        return {"skipped": "constant function"}
    spec = run("lambda")
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


def _certificate_complexity(f: TruthTable, run) -> tuple[int, str]:
    """C(f) and its ``METHODS`` entry: n when s = n, since s <= C <= n,
    otherwise the engine's value."""
    if run("sensitivity").local.global_value == f.arity:
        return f.arity, "s = n"
    return run("C"), "engine"


def _engine_entries(f: TruthTable, key: str, run, methods: dict) -> dict[str, dict]:
    """The entries one engine call gives: the four sensitivity measures
    for ``"sensitivity"``, otherwise the measure ``key`` alone.
    ``run(engine)`` gives that engine's result on f; the method of a
    sandwiched measure goes into ``methods``."""
    if key == "sensitivity":
        sens = run("sensitivity")
        return {
            "s": _exact(sens.local.global_value),
            "s0": {**_exact(sens.s0), "defined": sens.s0_defined},
            "s1": {**_exact(sens.s1), "defined": sens.s1_defined},
            "avg_s": {
                "value": float(sens.average),
                "fraction": f"{sens.average.numerator}/{sens.average.denominator}",
                "exactness": "exact",
            },
        }
    if key == "lambda":
        sr = run("lambda")
        return {"lambda": {"value": sr.value, "exactness": SPECTRAL_TAG, "residual": sr.residual}}
    if key == "certificates":
        return {"certificates": _certificates(f, run)}
    if key == "bs":  # s <= bs <= C (Nisan)
        s = run("sensitivity").local.global_value
        c = _certificate_complexity(f, run)[0]
        value, methods[key] = (s, "s = C") if s == c else (run("bs"), "engine")
        return {key: _exact(value)}
    if key == "C":
        value, methods[key] = _certificate_complexity(f, run)
        return {key: _exact(value)}
    if key == "D":  # deg <= D <= n
        n = f.arity
        value, methods[key] = (n, "deg = n") if run("deg") == n else (run("D"), "engine")
        return {key: _exact(value)}
    return {key: _exact(run(key))}


def measure(f: TruthTable, names) -> tuple[dict[str, dict], dict]:
    """The measures ``names`` of one function, in that order, and one
    diagnostics record of how they were obtained.

    Each entry is ``{"value", "exactness", ...}``, or ``{"skipped":
    reason}`` above the measure's ``MEASURE_CAPS`` arity.  The name
    ``"certificates"`` gives the adversary certificate block instead.
    Every engine runs at most once per call: ``lambda`` and the
    certificates read one ``Spectrum``, and ``bs``, ``C`` and ``D`` read
    s, C and deg from the same memo as the entries of those names.
    ``bs`` is s when s = C, ``C`` is n when s = n and ``D`` is n when
    deg = n, since ``s <= bs <= C <= n`` and ``deg <= D <= n``; only
    where the bounds differ does the exhaustive engine run.  An engine
    error is re-raised with the measure and table prefixed to its text.

    The record holds ``timing`` (seconds per engine call), ``methods``
    (a ``METHODS`` entry per sandwiched name), ``adeg_lp`` (``adeg``'s
    decided degrees, exact ones, and pivots by degree) and ``lambda_solves``
    (``Spectrum.solves`` of the memo's ``Spectrum``, if one was built); no
    engine runs only to fill it.  An ``lp_solve_log`` opened here takes
    ``adeg``'s degrees, so one that a caller opens sees none of them.
    """
    got: dict[str, dict] = {}
    timing: dict[str, float] = {}
    methods: dict[str, str] = {}
    memo: dict[str, object] = {}  # a plain dict, so that it says whether lambda ran

    def run(engine: str):
        return memo[engine] if engine in memo else memo.setdefault(engine, _ENGINES[engine](f))

    with lp_solve_log() as solves:
        for name in names:
            reason = cap_reason(name, f.arity)
            if reason is not None:
                got[name] = {"skipped": reason}
            elif name not in got:
                key = "sensitivity" if name in _SENSITIVITY_GROUP else name
                t0 = time.perf_counter()
                try:
                    got.update(_engine_entries(f, key, run, methods))
                except _ENGINE_ERRORS as exc:
                    exc.args = (f"{name} of {format_table(f)}: {exc}",)
                    raise
                timing[key] = time.perf_counter() - t0
    solved = memo["lambda"].solves if "lambda" in memo else []
    return {name: got[name] for name in names}, {
        "timing": timing,
        "methods": methods,
        "adeg_lp": {
            "solves": len(solves),
            "exact": solves.exact,
            "pivots": {str(d): p for d, p in solves},
        },
        "lambda_solves": [dict(zip(("vertices", "side", "method", "steps"), s)) for s in solved],
    }


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
    names = MEASURE_NAMES + ("certificates",) if include_certificates else MEASURE_NAMES
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
