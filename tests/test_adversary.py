import dataclasses
import json
import math

import numpy as np
import pytest

from bfc.adversary import (
    balanced_vertex_scheme,
    bipartite_block,
    bipartite_block_value,
    certificate_json,
    edge_scheme_from_eigenvector,
    edge_scheme_value,
    optimal_vertex_scheme,
    sdp_dual_certificate,
    sdp_primal_certificate,
    verify_edge_scheme,
    verify_equivalences,
    verify_sdp_dual,
    verify_sdp_primal,
    verify_vertex_scheme,
    vertex_scheme_value,
    EdgeWeightScheme,
    VertexBitWeightScheme,
)
from bfc import spectral
from bfc.bits import from_bit_array
from bfc.spectral import SensitivityGraph, spectral_sensitivity
from bfc.tables import PartialTruthTable, TruthTable, named_family


def test_bipartite_block_or3():
    blk = bipartite_block(named_family("OR", 3))
    assert blk.zero_inputs == (0,)
    assert blk.matrix.shape == (1, 7)
    assert blk.matrix.sum() == 3  # edges to the three weight-1 inputs
    assert abs(bipartite_block_value(named_family("OR", 3)) - math.sqrt(3)) < 1e-12


def test_bipartite_block_equals_lambda_exhaustive_n3():
    for t in range(1, 255):  # skip constants
        f = TruthTable(3, t)
        lam = spectral_sensitivity(f).value
        assert abs(bipartite_block_value(f) - lam) < 1e-7


def test_bipartite_block_constant_is_zero():
    assert bipartite_block_value(TruthTable(3, 0)) == 0.0


def test_block_norm_vs_signed_matrix_random_signs():
    # replacing entries by absolute values never shrinks the norm of a
    # matrix with nonnegative-pattern: ||Q|| >= ||Q o S|| for signs S
    rng = np.random.default_rng(5)
    f = named_family("EXACT1", 4)
    q = bipartite_block(f).matrix
    base = np.linalg.svd(q, compute_uv=False)[0]
    for _ in range(100):
        signs = rng.choice([-1.0, 1.0], size=q.shape)
        signed = np.linalg.svd(q * signs, compute_uv=False)[0]
        assert base >= signed - 1e-9


def test_edge_scheme_or3():
    spec = spectral_sensitivity(named_family("OR", 3))
    scheme, value = edge_scheme_from_eigenvector(spec)
    assert abs(value - math.sqrt(3)) < 1e-9
    ok, bad = verify_edge_scheme(spec.graph, scheme)
    assert ok and bad is None
    # all three star edges carry weight
    assert len(scheme.weights) == 3


def test_certificate_json_recomputes_the_edge_scheme_value():
    spec = spectral_sensitivity(named_family("OR", 3))
    scheme, value = edge_scheme_from_eigenvector(spec)
    blob = certificate_json(spec.graph, scheme)
    assert blob["claimed_value"] == value
    assert abs(blob["claimed_value"] - math.sqrt(3)) < 1e-9
    # doubling the weight c on the star edge (0, 1) keeps the support valid
    # and lowers that edge's ratio to sqrt(4c * 2c) / 2c = sqrt(2)
    (x, y, w), *rest = scheme.weights
    doubled = EdgeWeightScheme(3, ((x, y, 2 * w), *rest))
    blob = certificate_json(spec.graph, doubled)
    assert blob["verdict"] is True
    assert abs(blob["claimed_value"] - math.sqrt(2)) < 1e-9
    assert edge_scheme_value(EdgeWeightScheme(3, ())) == 0.0
    # a weight off the cube fails the support check and has no value
    blob = certificate_json(spec.graph, EdgeWeightScheme(3, ((1, 9, 0.5),)))
    assert blob["verdict"] is False and blob["claimed_value"] is None


def test_edge_scheme_value_is_lambda_sampled():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        for _ in range(30):
            t = int(rng.integers(1, (1 << (1 << n)) - 1))
            f = TruthTable(n, t)
            if f.is_constant():
                continue
            spec = spectral_sensitivity(f)
            lam = spec.value
            if lam == 0.0:
                continue
            _, value = edge_scheme_from_eigenvector(spec)
            assert abs(value - lam) < 1e-6


def test_edge_scheme_rejects_misplaced_weight():
    from bfc.adversary import EdgeWeightScheme

    f = named_family("OR", 3)
    bogus = EdgeWeightScheme(3, ((1, 2, 0.5),))  # not an edge of G_f
    ok, bad = verify_edge_scheme(SensitivityGraph(f), bogus)
    assert not ok and bad == (1, 2)


def test_balanced_scheme_or_n():
    # weights sqrt(s0/s1) on ones / sqrt(s1/s0) on zeros; value sqrt(s0*s1)
    for n in (2, 3, 4):
        spec = spectral_sensitivity(named_family("OR", n))
        scheme, value = balanced_vertex_scheme(spec)
        assert abs(value - math.sqrt(n)) < 1e-12
        ok, _ = verify_vertex_scheme(spec.graph, scheme)
        assert ok


def test_balanced_scheme_value_bound_exhaustive_n3():
    for t in range(1, 255):
        f = TruthTable(3, t)
        from bfc.combinatorial import sensitivity

        rep = sensitivity(f)
        spec = spectral_sensitivity(f)
        scheme, value = balanced_vertex_scheme(spec)
        assert value <= math.sqrt(rep.s0 * rep.s1) + 1e-9
        ok, violated = verify_vertex_scheme(spec.graph, scheme)
        assert ok, f"infeasible balanced scheme on {f}: {violated}"


def test_optimal_scheme_matches_lambda_exhaustive_n3():
    for t in range(1, 255):
        f = TruthTable(3, t)
        spec = spectral_sensitivity(f)
        lam = spec.value
        if lam == 0.0:
            continue
        scheme, value = optimal_vertex_scheme(spec)
        assert abs(value - lam) < 1e-9
        ok, violated = verify_vertex_scheme(spec.graph, scheme)
        assert ok, f"{f}: {violated}"


def test_optimal_scheme_on_disconnected_graph():
    # two independent XOR blocks: G_f is a disjoint union of 4-cycles
    from bfc.tables import compose

    f = compose(named_family("PARITY", 2), named_family("PARITY", 2))
    spec = spectral_sensitivity(f)
    scheme, value = optimal_vertex_scheme(spec)
    assert abs(value - spec.value) < 1e-9
    assert verify_vertex_scheme(spec.graph, scheme)[0]


def test_optimal_scheme_above_the_dense_cap(monkeypatch):
    rng = np.random.default_rng(2)
    f = TruthTable(10, from_bit_array(rng.integers(0, 2, size=1 << 10, dtype=np.uint8)))
    calls, sizes = [], []
    lanczos, perron = spectral._lanczos, spectral._perron

    def recording_lanczos(apply, size):
        calls.append(size)
        return lanczos(apply, size)

    def recording_perron(block):
        ran = len(calls)
        res = perron(block)
        if len(calls) > ran:
            sizes.append(block.comp.size)
        return res

    monkeypatch.setattr(spectral, "_lanczos", recording_lanczos)
    monkeypatch.setattr(spectral, "_perron", recording_perron)
    spec = spectral_sensitivity(f)
    scheme, value = optimal_vertex_scheme(spec)
    # every component is above the dense cap and was solved once, by
    # Lanczos; lambda solves in the order of its bounds, not by index
    comps = SensitivityGraph(f).components()
    assert sorted(sizes) == sorted(c.size for c in comps) and min(sizes) > spectral.DENSE_MAX_VERTICES
    assert verify_vertex_scheme(spec.graph, scheme)[0]
    assert abs(value - spec.value) <= 1e-9


def test_vertex_scheme_verifier_catches_infeasibility():
    f = named_family("OR", 2)
    bogus = VertexBitWeightScheme(2, ((0, 0, 0.1), (1, 0, 0.1)))
    ok, violated = verify_vertex_scheme(SensitivityGraph(f), bogus)
    assert not ok
    assert violated == (0, 0)


def test_sdp_primal_or3():
    spec = spectral_sensitivity(named_family("OR", 3))
    cert = sdp_primal_certificate(spec)
    assert abs(cert.objective - math.sqrt(3)) < 1e-9
    assert verify_sdp_primal(spec.graph, cert)
    assert abs(cert.delta.sum() - 1) < 1e-12


def test_sdp_primal_tampering_detected():
    spec = spectral_sensitivity(named_family("OR", 3))
    cert = sdp_primal_certificate(spec)
    bad = type(cert)(
        domain=cert.domain,
        z=tuple((x, y, 3.0 * w) for x, y, w in cert.z),  # breaks Delta - Z o D_i >= 0
        delta=cert.delta,
        objective=cert.objective,
    )
    assert not verify_sdp_primal(spec.graph, bad)
    # doubling Delta keeps z^2 <= delta_x delta_y but breaks trace(Delta) = 1
    assert not verify_sdp_primal(spec.graph, dataclasses.replace(cert, delta=2.0 * cert.delta))


def test_sdp_dual_from_optimal_scheme():
    spec = spectral_sensitivity(named_family("OR", 3))
    scheme, value = optimal_vertex_scheme(spec)
    dual = sdp_dual_certificate(spec, scheme)
    assert abs(dual.alpha - value) < 1e-12
    assert verify_sdp_dual(spec.graph, dual)


def test_sdp_dual_rejects_infeasible_scheme():
    spec = spectral_sensitivity(named_family("OR", 2))
    bogus = VertexBitWeightScheme(2, ((0, 0, 0.1),))
    with pytest.raises(ValueError):
        sdp_dual_certificate(spec, bogus)


def test_weak_duality_sampled_n4():
    rng = np.random.default_rng(23)
    for _ in range(50):
        f = TruthTable(4, int(rng.integers(1, 65535)))
        if f.is_constant():
            continue
        spec = spectral_sensitivity(f)
        primal = sdp_primal_certificate(spec)
        scheme, _ = optimal_vertex_scheme(spec)
        dual = sdp_dual_certificate(spec, scheme)
        assert primal.objective <= dual.alpha + 1e-5


def test_equivalence_report_parity3():
    rep = verify_equivalences(named_family("PARITY", 3))
    assert rep.all_ok
    assert rep.max_discrepancy < 1e-7
    assert abs(rep.values["spectral"] - 3) < 1e-9


def test_equivalence_report_exhaustive_n2():
    for t in range(1, 15):
        f = TruthTable(2, t)
        if f.is_constant():
            continue
        rep = verify_equivalences(f)
        assert rep.all_ok, (t, rep.verdicts)
        assert rep.max_discrepancy < 1e-7, (t, rep.values)


def test_partial_function_certificates():
    # OR_3 with the top input undefined
    dom = 0x7F
    p = PartialTruthTable(3, named_family("OR", 3).table & dom, dom)
    rep = verify_equivalences(p)
    assert rep.all_ok
    assert abs(rep.values["spectral"] - math.sqrt(3)) < 1e-9


def test_certificate_json_roundtrip_and_verdicts():
    spec = spectral_sensitivity(named_family("OR", 3))
    g = spec.graph
    scheme, value = optimal_vertex_scheme(spec)
    blob = certificate_json(g, scheme)
    parsed = json.loads(json.dumps(blob))
    assert parsed["scheme"] == "vertex-bit-weights"
    assert parsed["verdict"] is True
    assert parsed["violated_pair"] is None
    assert abs(parsed["claimed_value"] - value) < 1e-12

    edge, _ = edge_scheme_from_eigenvector(spec)
    assert certificate_json(g, edge)["verdict"] is True

    primal = sdp_primal_certificate(spec)
    blob = certificate_json(g, primal)
    assert blob["scheme"] == "sdp-primal"
    assert blob["verdict"] is True
    assert len(blob["z"]) == 3  # the three sensitive pairs of OR_3

    dual = sdp_dual_certificate(spec, scheme)
    blob = certificate_json(g, dual)
    assert blob["scheme"] == "sdp-dual"
    assert blob["verdict"] is True
    assert np.array(blob["r"]).shape == (3, 8)


def test_scheme_value_helper():
    s = VertexBitWeightScheme(2, ((0, 0, 1.5), (0, 1, 0.5), (3, 0, 1.0)))
    assert vertex_scheme_value(s) == 2.0


def test_vertex_scheme_verifier_rejects_negative_and_nonfinite_weights():
    # every product of two -1 weights is 1, so only the sign check can
    # refuse this scheme (lambda(OR_2) = sqrt(2), not -1)
    spec = spectral_sensitivity(named_family("OR", 2))
    negative = VertexBitWeightScheme(2, ((0, 0, -1.0), (0, 1, -1.0), (1, 0, -1.0), (2, 1, -1.0)))
    assert verify_vertex_scheme(spec.graph, negative) == (False, (0, 0))
    blob = certificate_json(spec.graph, negative)
    assert blob["verdict"] is False
    assert blob["violated_pair"] == [0, 0]
    for bad in (math.nan, math.inf):
        scheme = VertexBitWeightScheme(2, ((0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 1, bad)))
        assert verify_vertex_scheme(spec.graph, scheme) == (False, (2, 1))
    with pytest.raises(ValueError):
        sdp_dual_certificate(spec, negative)


def test_edge_scheme_verifier_rejects_nonfinite_weight():
    spec = spectral_sensitivity(named_family("OR", 2))
    scheme, _ = edge_scheme_from_eigenvector(spec)
    assert verify_edge_scheme(spec.graph, scheme) == (True, None)
    x, y, _w = scheme.weights[0]
    for bad in (math.nan, math.inf):
        tampered = EdgeWeightScheme(2, ((x, y, bad),) + scheme.weights[1:])
        assert verify_edge_scheme(spec.graph, tampered) == (False, (x, y))


def test_edge_verifiers_take_numpy_integer_ids_and_refuse_float_ids():
    spec = spectral_sensitivity(named_family("OR", 3))
    g = spec.graph
    scheme, _ = edge_scheme_from_eigenvector(spec)
    primal = sdp_primal_certificate(spec)
    for cast in (np.int64, np.int32):
        ids = tuple((cast(x), cast(y), w) for x, y, w in scheme.weights)
        assert verify_edge_scheme(g, EdgeWeightScheme(3, ids)) == (True, None)
        assert verify_sdp_primal(g, dataclasses.replace(primal, z=ids))
    x, y, w = scheme.weights[0]
    for bad in ((float(x), y, w), (x, y + 0.0, w)):
        floats = (bad,) + scheme.weights[1:]
        assert verify_edge_scheme(g, EdgeWeightScheme(3, floats)) == (False, bad[:2])
        assert not verify_sdp_primal(g, dataclasses.replace(primal, z=floats))
        assert certificate_json(g, EdgeWeightScheme(3, floats))["verdict"] is False


def test_sdp_verifiers_reject_wrong_size_certificate():
    or2 = spectral_sensitivity(named_family("OR", 2))
    or3 = SensitivityGraph(named_family("OR", 3))
    primal = sdp_primal_certificate(or2)
    dual = sdp_dual_certificate(or2, optimal_vertex_scheme(or2)[0])
    assert not verify_sdp_primal(or3, primal)
    assert not verify_sdp_dual(or3, dual)
    # right domain, wrong shape
    g = or2.graph
    assert not verify_sdp_primal(g, dataclasses.replace(primal, delta=primal.delta[:-1]))
    assert not verify_sdp_dual(g, dataclasses.replace(dual, r=dual.r[:-1]))
    assert not verify_sdp_dual(g, dataclasses.replace(dual, r=dual.r[:, :-1]))
    # the right domain relabelled as floats compares equal, and is refused
    floats = tuple(float(x) for x in primal.domain)
    assert not verify_sdp_primal(g, dataclasses.replace(primal, domain=floats))
    assert not verify_sdp_dual(g, dataclasses.replace(dual, domain=floats))
    numpy_ids = tuple(np.int64(x) for x in primal.domain)
    assert verify_sdp_primal(g, dataclasses.replace(primal, domain=numpy_ids))
    assert verify_sdp_dual(g, dataclasses.replace(dual, domain=numpy_ids))


def test_sdp_verifiers_check_the_certificate_domain():
    # NOT x3 without input 0 and without input 7: seven inputs each, and
    # the same adjacency in domain order
    p = PartialTruthTable(3, 0x0E, 0xFE)
    q = PartialTruthTable(3, 0x0F, 0x7F)
    for f, other in ((p, q), (q, p)):
        spec, g = spectral_sensitivity(f), SensitivityGraph(other)
        primal = sdp_primal_certificate(spec)
        dual = sdp_dual_certificate(spec, optimal_vertex_scheme(spec)[0])
        assert verify_sdp_primal(spec.graph, primal)
        assert verify_sdp_dual(spec.graph, dual)
        assert not verify_sdp_primal(g, primal)
        assert not verify_sdp_dual(g, dual)


def _or3_primal_and_dual():
    spec = spectral_sensitivity(named_family("OR", 3))
    primal = sdp_primal_certificate(spec)
    dual = sdp_dual_certificate(spec, optimal_vertex_scheme(spec)[0])
    return spec.graph, primal, dual


def test_sdp_primal_verifier_checks_the_claimed_objective():
    # (Z, Delta) stay feasible; only the claim is wrong: lambda(OR_3) = sqrt(3)
    g, primal, _ = _or3_primal_and_dual()
    inflated = dataclasses.replace(primal, objective=100.0)
    assert not verify_sdp_primal(g, inflated)
    blob = certificate_json(g, inflated)
    assert blob["claimed_value"] is None and blob["verdict"] is False


def test_sdp_primal_verifier_rejects_a_nan_delta_entry():
    g, primal, _ = _or3_primal_and_dual()
    for entry in (0, 1, 7):  # the centre, a leaf, and an input on no pair
        delta = primal.delta.copy()
        delta[entry] = math.nan
        assert not verify_sdp_primal(g, dataclasses.replace(primal, delta=delta))


def test_sdp_dual_verifier_rejects_a_nan_alpha():
    g, _, dual = _or3_primal_and_dual()
    assert not verify_sdp_dual(g, dataclasses.replace(dual, alpha=math.nan))


def test_sdp_dual_verifier_rejects_a_nan_block_entry():
    g, _, dual = _or3_primal_and_dual()
    for entry in ((0, 0), (1, 1)):
        r = dual.r.copy()
        r[entry] = math.nan
        assert not verify_sdp_dual(g, dataclasses.replace(dual, r=r))


def _with_z(primal, z):
    """``primal`` with the weights ``z`` and the objective they give."""
    return dataclasses.replace(primal, z=tuple(z), objective=2.0 * sum(w for _, _, w in z))


def test_sdp_primal_verifier_rejects_repeated_and_reversed_pairs():
    # halving a pair's weight into two entries keeps every sum and every
    # z^2 <= delta_x delta_y; only the pair check refuses it
    g, primal, _ = _or3_primal_and_dual()
    (x, y, w), *rest = primal.z
    assert verify_sdp_primal(g, _with_z(primal, primal.z))
    assert not verify_sdp_primal(g, _with_z(primal, [(x, y, w / 2), (x, y, w / 2), *rest]))
    assert not verify_sdp_primal(g, _with_z(primal, [(y, x, w / 2), (x, y, w / 2), *rest]))
    assert not verify_sdp_primal(g, _with_z(primal, [(y, x, w), *rest]))


def test_sdp_primal_verifier_rejects_a_pair_off_the_graph():
    # f(1) = f(3) = 1: a zero weight there changes no sum
    g, primal, _ = _or3_primal_and_dual()
    assert not verify_sdp_primal(g, _with_z(primal, [*primal.z, (1, 3, 0.0)]))


def test_sdp_primal_verifier_rejects_z_squared_just_above_the_diagonal_product():
    g, primal, _ = _or3_primal_and_dual()
    (x, y, w), *rest = primal.z
    pos = g.domain_inputs.index
    assert w * w <= primal.delta[pos(x)] * primal.delta[pos(y)] * (1 + 1e-12)
    assert verify_sdp_primal(g, _with_z(primal, [(x, y, w * (1 - 1e-6)), *rest]))
    assert not verify_sdp_primal(g, _with_z(primal, [(x, y, w * (1 + 1e-6)), *rest]))


def test_sdp_dual_verifier_rejects_a_negative_factor_entry():
    # input 7 of OR_3 is on no edge, so r_0(7) = -0.1 keeps every edge
    # product and diagonal sum, but R_0 o D_0 has r_0(7) r_0(0) < 0 at (7, 0)
    g, _, dual = _or3_primal_and_dual()
    assert dual.r[0, 7] == 0.0
    r = dual.r.copy()
    r[0, 7] = -0.1
    assert not verify_sdp_dual(g, dataclasses.replace(dual, r=r))


def test_sdp_certificates_are_factored():
    spec = spectral_sensitivity(named_family("PARITY", 6))
    primal = sdp_primal_certificate(spec)
    dual = sdp_dual_certificate(spec, optimal_vertex_scheme(spec)[0])
    assert len(primal.z) == 192 and primal.delta.shape == (64,)
    assert dual.r.shape == (6, 64)
    assert verify_sdp_primal(spec.graph, primal) and verify_sdp_dual(spec.graph, dual)
    assert abs(primal.objective - 6) < 1e-9 and abs(dual.alpha - 6) < 1e-9


def test_scheme_verifiers_reject_another_arity_and_weights_off_the_cube():
    spec = spectral_sensitivity(named_family("OR", 3))
    g = spec.graph
    stray = EdgeWeightScheme(1, ((0, 4, 0.5),))  # (0, 4) is an edge of G_f
    assert verify_edge_scheme(g, stray) == (False, (0, 4))
    blob = certificate_json(g, stray)
    assert blob["verdict"] is False and blob["claimed_value"] is None
    scheme, _ = optimal_vertex_scheme(spec)
    assert verify_vertex_scheme(g, scheme) == (True, None)
    narrow = dataclasses.replace(scheme, arity=2)
    assert verify_vertex_scheme(g, narrow) == (False, scheme.weights[0][:2])
    assert certificate_json(g, narrow)["violated_pair"] == list(scheme.weights[0][:2])
    for x, i in ((8, 0), (-1, 0), (1, 3)):  # no such input or bit at arity 3
        off = dataclasses.replace(scheme, weights=scheme.weights + ((x, i, 1.0),))
        assert verify_vertex_scheme(g, off) == (False, (x, i))
    # a refused scheme prints no value, not the 50.0 its weights would give
    off = dataclasses.replace(scheme, weights=scheme.weights + ((99, 0, 50.0),))
    assert vertex_scheme_value(off) == 50.0
    blob = certificate_json(g, off)
    assert (blob["verdict"], blob["claimed_value"], blob["violated_pair"]) == (False, None, [99, 0])
    # a float id is refused, not truncated onto input 0 or onto the bit below it
    spec2 = spectral_sensitivity(named_family("OR", 2))
    scheme2, _ = optimal_vertex_scheme(spec2)
    assert verify_vertex_scheme(spec2.graph, scheme2) == (True, None)
    halved = tuple((0.5 if x == 0 else x, i, w) for x, i, w in scheme2.weights)
    raised = tuple((x, i + 0.9, w) for x, i, w in scheme2.weights)
    for weights, first in ((halved, (0.5, 0)), (raised, (0, 0.9))):
        bad = dataclasses.replace(scheme2, weights=weights)
        assert verify_vertex_scheme(spec2.graph, bad) == (False, first)
        blob = certificate_json(spec2.graph, bad)
        assert (blob["verdict"], blob["claimed_value"]) == (False, None)
        assert blob["violated_pair"] == list(first)


def test_equivalences_build_one_graph_and_solve_each_component_once(monkeypatch):
    # the spectrum's graph and the bipartite_block reference are the only
    # two builds; every component's Perron pair is solved exactly once
    f = named_family("AND-OR", (3, 2))
    comps = len(SensitivityGraph(f).components())
    perron, init = spectral._perron, SensitivityGraph.__init__
    solved, built = [], []

    def counting_perron(block):
        solved.extend(block.comp[:, 0].tolist())  # one least vertex per component
        return perron(block)

    def counting_init(self, table):
        built.append(table)
        init(self, table)

    monkeypatch.setattr(spectral, "_perron", counting_perron)
    monkeypatch.setattr(SensitivityGraph, "__init__", counting_init)
    assert verify_equivalences(f).all_ok
    assert len(solved) == len(set(solved)) == comps == 7
    assert len(built) == 2
