"""Exact complexity measures and spectral certificates for Boolean
functions given as truth tables.

The packed-table conventions live in :mod:`bfc.tables`; every measure
engine consumes those tables.  See the README for the measure
definitions and arity caps.
"""

from .adversary import (
    BipartiteBlock,
    EdgeWeightScheme,
    EquivalenceReport,
    SdpDual,
    SdpPrimal,
    VertexBitWeightScheme,
    balanced_vertex_scheme,
    bipartite_block,
    bipartite_block_value,
    certificate_json,
    edge_scheme_from_eigenvector,
    optimal_vertex_scheme,
    sdp_dual_certificate,
    sdp_primal_certificate,
    verify_edge_scheme,
    verify_equivalences,
    verify_sdp_dual,
    verify_sdp_primal,
    verify_vertex_scheme,
)
from .algebraic import (
    MultilinearExpansion,
    approximate_degree,
    degree,
    degree_gf2,
    gf2_coefficients,
    mobius_coefficients,
    multilinear_expansion,
)
from .combinatorial import (
    LocalMeasure,
    SensitivityReport,
    block_sensitivity,
    certificate_complexity,
    deterministic_query_complexity,
    sensitivity,
)
from .graphprops import (
    PropertyChainReport,
    GraphProperty,
    property_chain_report,
    canonical_graph,
    enumerate_monotone_properties,
    is_graph_property,
    is_monotone,
    named_property,
)
from .lp import (
    LpNumericalError,
    LpProblem,
    LpResult,
    solve_lp,
    verify_infeasibility_certificate,
    verify_point,
)
from .report import canonical_json, measure, measure_report, measure_stack, report_hash
from .spectral import (
    DegreeWitness,
    SensitivityGraph,
    SignedHypercube,
    SigningReport,
    SpectralConvergenceError,
    SpectralResult,
    Spectrum,
    build_signed_hypercube,
    full_degree_witness,
    restrict_to_top_monomial,
    spectral_sensitivity,
    verify_signing,
)
from .sweep import SweepResult, approx_degree_ratio, npn_canonical_array, run_sweep
from .tables import (
    PartialTruthTable,
    Restriction,
    TruthTable,
    compose,
    evaluate,
    format_table,
    named_family,
    parity_partition,
    parse_restriction,
    parse_table,
    restrict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
