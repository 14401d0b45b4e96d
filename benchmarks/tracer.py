"""Per-layer timing for the traced run, recorded from outside the program.

``install`` replaces bfc's public functions with timing wrappers: the
module attribute and every other binding of the same function object
(``sweep`` and ``report`` import measures by name, ``cli`` imports the
witness functions, the package re-exports everything).  Each wrapper
keeps a span stack, so a layer's self time is its inclusive time minus
the time of the wrapped calls made inside it.  ``tables`` and ``bits``
are left unwrapped: they are measured only through their callers.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (module, function or Class.method) -> span key.  Several functions may
# share a key; a key's inclusive time counts only its outermost call.
TARGETS = {
    ("bfc.sweep", "run_sweep"): "sweep.run",
    ("bfc.sweep", "npn_canonical_array"): "sweep.npn",
    ("bfc.sweep", "approx_degree_ratio"): "sweep.adeg_ratio",
    ("bfc.combinatorial", "sensitivity"): "combinatorial.s",
    ("bfc.combinatorial", "block_sensitivity"): "combinatorial.bs",
    ("bfc.combinatorial", "certificate_complexity"): "combinatorial.C",
    ("bfc.combinatorial", "deterministic_query_complexity"): "combinatorial.D",
    ("bfc.algebraic", "degree"): "algebraic.deg",
    ("bfc.algebraic", "degree_gf2"): "algebraic.deg",
    ("bfc.algebraic", "approximate_degree"): "algebraic.adeg",
    ("bfc.lp", "solve_lp"): "lp.solve",
    ("bfc.lp", "verify_point"): "lp.verify",
    ("bfc.lp", "verify_infeasibility_certificate"): "lp.verify",
    ("bfc.spectral", "spectral_sensitivity"): "spectral.lambda",
    ("bfc.spectral", "full_degree_witness"): "spectral.witness",
    ("bfc.spectral", "restrict_to_top_monomial"): "spectral.witness",
    ("bfc.spectral", "build_signed_hypercube"): "spectral.signing",
    ("bfc.spectral", "verify_signing"): "spectral.signing",
    ("bfc.spectral", "SensitivityGraph.__init__"): "spectral.graph_build",
    ("bfc.spectral", "SensitivityGraph.adjacency"): "spectral.graph_build",
    ("bfc.adversary", "edge_scheme_from_eigenvector"): "adversary.certificates",
    ("bfc.adversary", "balanced_vertex_scheme"): "adversary.certificates",
    ("bfc.adversary", "optimal_vertex_scheme"): "adversary.certificates",
    ("bfc.adversary", "sdp_primal_certificate"): "adversary.certificates",
    ("bfc.adversary", "sdp_dual_certificate"): "adversary.certificates",
    ("bfc.adversary", "verify_edge_scheme"): "adversary.verify",
    ("bfc.adversary", "verify_vertex_scheme"): "adversary.verify",
    ("bfc.adversary", "verify_sdp_primal"): "adversary.verify",
    ("bfc.adversary", "verify_sdp_dual"): "adversary.verify",
    ("bfc.adversary", "verify_equivalences"): "adversary.verify",
    ("bfc.graphprops", "enumerate_monotone_properties"): "graphprops.enumerate",
    ("bfc.graphprops", "named_property"): "graphprops.named",
    ("bfc.graphprops", "property_chain_report"): "graphprops.chain",
    ("bfc.report", "measure_report"): "report.measure",
    ("bfc.report", "report_hash"): "report.hash",
    ("bfc.cli", "main"): "cli.main",
}

SMALL_GRAPH_MAX_VERTICES = 256

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "sweep.measured_functions": ("count", "lower"),
    "sweep.npn_canonical_s": ("s", "lower"),
    "sweep.adeg_ratio_s": ("s", "lower"),
    "sweep.self_s": ("s", "lower"),
    "combinatorial.s_s": ("s", "lower"),
    "combinatorial.bs_s": ("s", "lower"),
    "combinatorial.C_s": ("s", "lower"),
    "combinatorial.D_s": ("s", "lower"),
    "algebraic.deg_s": ("s", "lower"),
    "algebraic.adeg_s": ("s", "lower"),
    "algebraic.adeg_calls": ("count", "lower"),
    "lp.solve_s": ("s", "lower"),
    "lp.solves": ("count", "lower"),
    "lp.pivots": ("count", "lower"),
    "lp.failed_solves": ("count", "lower"),
    "lp.verify_s": ("s", "lower"),
    "spectral.lambda_small_s": ("s", "lower"),
    "spectral.lambda_large_s": ("s", "lower"),
    "spectral.lambda_calls": ("count", "lower"),
    "spectral.residual_max": ("norm", "lower"),
    "spectral.witness_s": ("s", "lower"),
    "spectral.signing_s": ("s", "lower"),
    "spectral.graph_build_s": ("s", "lower"),
    "adversary.certificates_s": ("s", "lower"),
    "adversary.verify_s": ("s", "lower"),
    "graphprops.enumerate_s": ("s", "lower"),
    "graphprops.named_s": ("s", "lower"),
    "graphprops.chain_s": ("s", "lower"),
    "graphprops.properties": ("count", "higher"),
    "report.self_s": ("s", "lower"),
    "report.hash_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _defined_inputs(f) -> int:
    domain = getattr(f, "domain", None)
    return domain.bit_count() if domain is not None else 1 << f.arity


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [key, seconds spent in wrapped children]
        self.depth: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.observers = {
            "combinatorial.s": self._observe_sensitivity,
            "lp.solve": self._observe_lp,
            "spectral.lambda": self._observe_lambda,
        }

    def wrap(self, key: str, fn):
        stack, depth, calls = self.stack, self.depth, self.calls
        inclusive, exclusive = self.inclusive, self.exclusive
        observe = self.observers.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][1] += elapsed
                if not depth[key]:  # the outermost call of this key
                    inclusive[key] += elapsed
                exclusive[key] += elapsed - frame[1]
                calls[key] += 1
                if observe is not None:
                    observe(parent, args, result, elapsed)

        return wrapper

    def _observe_sensitivity(self, parent, args, result, elapsed) -> None:
        if parent == "sweep.run":
            self.values["sweep.measured_functions"] += 1

    def _observe_lp(self, parent, args, result, elapsed) -> None:
        if result is None:  # raised, e.g. on the iteration cap
            self.values["lp.failed_solves"] += 1
        else:
            self.values["lp.pivots"] += result.iterations

    def _observe_lambda(self, parent, args, result, elapsed) -> None:
        v = self.values
        large = _defined_inputs(args[0]) > SMALL_GRAPH_MAX_VERTICES
        v["spectral.lambda_large_s" if large else "spectral.lambda_small_s"] += elapsed
        if result is not None and math.isfinite(result.residual):
            v["spectral.residual_max"] = max(v["spectral.residual_max"], result.residual)

    def metrics(self) -> dict[str, float]:
        inc, exc, calls, v = self.inclusive, self.exclusive, self.calls, self.values
        out = {
            "sweep.measured_functions": v["sweep.measured_functions"],
            "sweep.npn_canonical_s": inc["sweep.npn"],
            "sweep.adeg_ratio_s": inc["sweep.adeg_ratio"],
            "sweep.self_s": exc["sweep.run"],
            "combinatorial.s_s": inc["combinatorial.s"],
            "combinatorial.bs_s": inc["combinatorial.bs"],
            "combinatorial.C_s": inc["combinatorial.C"],
            "combinatorial.D_s": inc["combinatorial.D"],
            "algebraic.deg_s": inc["algebraic.deg"],
            "algebraic.adeg_s": inc["algebraic.adeg"],
            "algebraic.adeg_calls": calls["algebraic.adeg"],
            "lp.solve_s": inc["lp.solve"],
            "lp.solves": calls["lp.solve"],
            "lp.pivots": v["lp.pivots"],
            "lp.failed_solves": v["lp.failed_solves"],
            "lp.verify_s": inc["lp.verify"],
            "spectral.lambda_small_s": v["spectral.lambda_small_s"],
            "spectral.lambda_large_s": v["spectral.lambda_large_s"],
            "spectral.lambda_calls": calls["spectral.lambda"],
            "spectral.residual_max": v["spectral.residual_max"],
            "spectral.witness_s": inc["spectral.witness"],
            "spectral.signing_s": inc["spectral.signing"],
            "spectral.graph_build_s": inc["spectral.graph_build"],
            "adversary.certificates_s": inc["adversary.certificates"],
            "adversary.verify_s": inc["adversary.verify"],
            "graphprops.enumerate_s": inc["graphprops.enumerate"],
            "graphprops.named_s": inc["graphprops.named"],
            "graphprops.chain_s": inc["graphprops.chain"],
            "graphprops.properties": calls["graphprops.chain"],
            "report.self_s": exc["report.measure"],
            "report.hash_s": inc["report.hash"],
            "cli.self_s": exc["cli.main"],
            "trace.spans": sum(calls.values()),
        }
        return {k: float(x) for k, x in out.items()}


def install(tracer: Tracer) -> int:
    """Wrap every target and rebind it wherever bfc's modules hold it.

    Returns the number of bindings replaced."""
    replaced = 0
    modules = [m for name, m in sys.modules.items() if name == "bfc" or name.startswith("bfc.")]
    for (module_name, qualname), key in TARGETS.items():
        owner = sys.modules[module_name]
        cls_name, _, attr = qualname.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(key, original)
        setattr(owner, attr, wrapped)
        replaced += 1
        if cls_name:
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
                    replaced += 1
    return replaced
