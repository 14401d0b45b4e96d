"""Machine-readable reports with stable serialization.

Reports are plain dictionaries rendered through one canonical JSON
encoder, so identical inputs produce byte-identical output except for
the timing and diagnostics blocks; a sha256 over the canonical form
(those blocks excluded) makes reruns comparable at a glance.
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
)
from .combinatorial import (
    BLOCK_MEASURE_MAX_ARITY,
    block_sensitivity,
    certificate_complexity,
    deterministic_query_complexity,
    sensitivity,
)
from .spectral import spectral_sensitivity
from .tables import TruthTable, format_table

REPORT_DEPTH_CAP = 10  # decision depth stays tractable well past the engine default
SPECTRAL_TAG = "tolerance(1e-09)"
VOLATILE_KEYS = ("timing", "diagnostics", "report_hash")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _without_keys(obj, keys: tuple[str, ...]):
    if isinstance(obj, dict):
        return {k: _without_keys(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, (list, tuple)):
        return [_without_keys(v, keys) for v in obj]
    return obj


def report_hash(body: dict) -> str:
    """sha256 of the canonical JSON, ignoring timing, diagnostics and
    embedded hashes."""
    text = canonical_json(_without_keys(body, VOLATILE_KEYS))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exact(value) -> dict:
    return {"value": value, "exactness": "exact"}


def measure_report(
    f: TruthTable,
    family: str | None = None,
    include_certificates: bool = False,
) -> dict:
    """Every measure of one function, each tagged exact or tolerance.

    Measures whose engine cap is below the function's arity appear as
    ``{"skipped": reason}`` instead of failing the whole report.
    Certificates (optional) cover the adversary forms and carry their
    own verifier verdicts.
    """
    n = f.arity
    timing: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timing[name] = time.perf_counter() - t0
        return out

    measures: dict[str, dict] = {}
    sens = timed("sensitivity", lambda: sensitivity(f))
    measures["s"] = _exact(sens.local.global_value)
    measures["s0"] = {**_exact(sens.s0), "defined": sens.s0_defined}
    measures["s1"] = {**_exact(sens.s1), "defined": sens.s1_defined}
    measures["avg_s"] = {
        "value": float(sens.average),
        "fraction": f"{sens.average.numerator}/{sens.average.denominator}",
        "exactness": "exact",
    }

    if n <= BLOCK_MEASURE_MAX_ARITY:
        measures["bs"] = _exact(
            timed("bs", lambda: block_sensitivity(f).global_value)
        )
        measures["C"] = _exact(
            timed("C", lambda: certificate_complexity(f).global_value)
        )
    else:
        reason = f"arity {n} above cap {BLOCK_MEASURE_MAX_ARITY}"
        measures["bs"] = {"skipped": reason}
        measures["C"] = {"skipped": reason}

    if n <= REPORT_DEPTH_CAP:
        measures["D"] = _exact(
            timed("D", lambda: deterministic_query_complexity(f, max_arity=n))
        )
    else:
        measures["D"] = {"skipped": f"arity {n} above cap {REPORT_DEPTH_CAP}"}

    measures["deg"] = _exact(timed("deg", lambda: degree(f)))
    measures["deg2"] = _exact(timed("deg2", lambda: degree_gf2(f)))

    if n <= APPROX_DEGREE_MAX_ARITY:
        measures["adeg"] = _exact(timed("adeg", lambda: approximate_degree(f)))
    else:
        measures["adeg"] = {
            "skipped": f"arity {n} above cap {APPROX_DEGREE_MAX_ARITY}"
        }

    sr = timed("lambda", lambda: spectral_sensitivity(f))
    measures["lambda"] = {
        "value": sr.value,
        "exactness": SPECTRAL_TAG,
        "residual": sr.residual,
    }

    body = {
        "function": {
            "arity": n,
            "table": format_table(f),
            "family": family,
        },
        "measures": measures,
    }

    if include_certificates:
        if f.is_constant():
            body["certificates"] = {"skipped": "constant function"}
        elif n > adversary.SDP_MAX_ARITY:
            body["certificates"] = {
                "skipped": f"arity {n} above cap {adversary.SDP_MAX_ARITY}"
            }
        else:

            def certs():
                edge_scheme, edge_value = adversary.edge_scheme_from_eigenvector(f)
                balanced, balanced_value = adversary.balanced_vertex_scheme(f)
                optimal, optimal_value = adversary.optimal_vertex_scheme(f)
                primal = adversary.sdp_primal_certificate(f)
                dual = adversary.sdp_dual_certificate(f, optimal)
                return {
                    "edge_scheme": {
                        **adversary.certificate_json(f, edge_scheme),
                        "claimed_value": edge_value,
                    },
                    "vertex_scheme_balanced": adversary.certificate_json(f, balanced),
                    "vertex_scheme_optimal": adversary.certificate_json(f, optimal),
                    "sdp_primal": adversary.certificate_json(f, primal),
                    "sdp_dual": adversary.certificate_json(f, dual),
                }

            body["certificates"] = timed("certificates", certs)

    body["timing"] = timing
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
                value = cert.get("claimed_value")
                shown = f" value {value:.9g}" if isinstance(value, float) else ""
                lines.append(f"  certificate {name}:{shown} verifier {verdict}")
    return "\n".join(lines) + "\n"
