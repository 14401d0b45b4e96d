"""The one measurement path: ``report.measure`` and its cap table."""

import copy

import pytest

from bfc import report, spectral
from bfc.adversary import sdp_primal_certificate
from bfc.algebraic import (
    APPROX_DEGREE_MAX_ARITY,
    DEFAULT_EPSILON,
    approximate_degree,
    approximation_problem,
    degree,
)
from bfc.combinatorial import (
    block_sensitivity,
    certificate_complexity,
    deterministic_query_complexity,
    sensitivity,
)
from bfc.lp import LpNumericalError, solve_lp
from bfc.report import MEASURE_CAPS, measure, measure_report, report_hash
from bfc.spectral import SensitivityGraph, spectral_sensitivity
from bfc.sweep import run_sweep, sample_tables
from bfc.tables import TruthTable, named_family, parse_table

ENGINES = {
    "bs": block_sensitivity,
    "C": certificate_complexity,
    "D": deterministic_query_complexity,
    "adeg": approximate_degree,
    "certificates": lambda f: sdp_primal_certificate(spectral_sensitivity(f)),
}


@pytest.mark.parametrize("name", sorted(MEASURE_CAPS))
def test_cap_table_skips_in_reports_and_raises_in_engines(name):
    cap = MEASURE_CAPS[name]
    f = named_family("OR", cap + 1)
    expected = {"skipped": f"arity {cap + 1} above cap {cap}"}
    if name == "certificates":
        assert measure_report(f, include_certificates=True)["certificates"] == expected
    else:
        entries, record = measure(f, [name])
        timing, methods = record["timing"], record["methods"]
        assert entries == {name: expected}
        assert timing == methods == {}
    with pytest.raises(ValueError, match=f"<= {cap}"):
        ENGINES[name](f)


def test_measure_computes_only_the_named_measures_in_order():
    f = parse_table("3:E8")  # majority
    entries, record = measure(f, ["lambda", "s1", "D"])
    timing, methods = record["timing"], record["methods"]
    assert list(entries) == ["lambda", "s1", "D"]
    assert entries["D"] == {"value": 3, "exactness": "exact"}
    assert entries["s1"] == {"value": 2, "exactness": "exact", "defined": True}
    assert entries["lambda"]["value"] == pytest.approx(2.0)
    assert set(timing) == {"lambda", "sensitivity", "D"}
    assert methods == {"D": "deg = n"}


def _failing_lp(*args, **kwargs):
    raise LpNumericalError("iteration cap 50000 exceeded")


def test_engine_error_names_measure_and_table(monkeypatch):
    monkeypatch.setattr(report, "approximate_degree", _failing_lp)
    with pytest.raises(LpNumericalError) as caught:
        measure(parse_table("3:E8"), ["s", "adeg"])
    assert str(caught.value) == "adeg of 3:E8: iteration cap 50000 exceeded"


def _failing_depth(mono):
    raise ValueError("depth engine failed")


def test_engine_error_in_sweep_worker_names_measure_and_table(monkeypatch):
    # only a table with deg < 3 reaches the D engine, and this sample holds some
    assert any(degree(TruthTable(3, t)) < 3 for t in sample_tables(3, 8, 0))
    # pool workers fork from this process, so they inherit the patch of
    # the stacked D engine, which each chunk's stack runs
    monkeypatch.setattr(report, "decision_depths", _failing_depth)
    with pytest.raises(ValueError, match=r"^D of 3:[0-9A-F]{2}: depth engine failed$"):
        run_sweep(max_n=3, sample=8, seed=0, threads=2)


COUNTED_ENGINES = (
    "sensitivities",
    "block_sensitivities",
    "certificate_costs",
    "decision_depths",
    "degrees",
)


def _count_engine_calls(monkeypatch) -> dict[str, int]:
    """The number of tables handed to each stacked engine, per engine."""
    calls = dict.fromkeys(COUNTED_ENGINES, 0)
    for name in COUNTED_ENGINES:
        real = getattr(report, name)

        def counted(stack, _name=name, _real=real):
            calls[_name] += len(stack)
            return _real(stack)

        monkeypatch.setattr(report, name, counted)
    return calls


SANDWICH_NAMES = ("s", "s0", "bs", "C", "D", "deg")


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("table", ["OR_8", "random_8"])
def test_bs_and_d_skip_their_engines_when_the_bounds_meet(monkeypatch, table, order):
    f = named_family("OR", 8) if table == "OR_8" else TruthTable(8, sample_tables(8, 1, 7)[0])
    assert sensitivity(f).local.global_value == 8 and degree(f) == 8
    want = {
        "bs": block_sensitivity(f).global_value,
        "C": certificate_complexity(f).global_value,
        "D": deterministic_query_complexity(f),
    }
    calls = _count_engine_calls(monkeypatch)
    entries, record = measure(f, SANDWICH_NAMES[::order])
    methods = record["methods"]
    assert {name: entries[name]["value"] for name in want} == want == {"bs": 8, "C": 8, "D": 8}
    assert methods == {"bs": "s = C", "C": "s = n", "D": "deg = n"}
    # s and deg feed both their own entries and the sandwiches, once each;
    # s = n closes C's sandwich, so no exhaustive engine runs
    assert calls == {
        "sensitivities": 1,
        "block_sensitivities": 0,
        "certificate_costs": 0,
        "decision_depths": 0,
        "degrees": 1,
    }


@pytest.mark.parametrize(
    "spec, engines, expected",
    [
        # the dictator x1: s = C = 1, but deg = 1 < 3
        (
            "3:AA",
            {"decision_depths": 1},
            {"bs": "s = C", "C": "engine", "D": "engine"},
        ),
        # s = 2 < bs = C = 3 and deg = 2 < D = 3
        (
            "4:1BD8",
            {"block_sensitivities": 1, "decision_depths": 1},
            {"bs": "engine", "C": "engine", "D": "engine"},
        ),
    ],
)
def test_an_open_sandwich_runs_its_engine_once(monkeypatch, spec, engines, expected):
    f = parse_table(spec)
    want = {
        "bs": block_sensitivity(f).global_value,
        "C": certificate_complexity(f).global_value,
        "D": deterministic_query_complexity(f),
    }
    calls = _count_engine_calls(monkeypatch)
    entries, record = measure(f, ("D", "bs", "deg", "C", "s"))
    methods = record["methods"]
    assert {name: entries[name]["value"] for name in want} == want
    assert methods == expected
    assert calls == {
        "sensitivities": 1,
        "block_sensitivities": 0,
        "certificate_costs": 1,
        "decision_depths": 0,
        "degrees": 1,
        **engines,
    }


def test_measures_diagnostics_name_the_methods_and_stay_out_of_the_hash():
    body = measure_report(parse_table("3:AA"))
    # deg = 1, so adeg decides one degree, 0, in integers
    # G_f is four disjoint edges; the first solve gives 1 = every degree
    assert body["diagnostics"] == {
        "methods": {"bs": "s = C", "C": "engine", "D": "engine"},
        "adeg_lp": {"solves": 1, "exact": 1, "pivots": {"0": 0}},
        "lambda_solves": [{"vertices": 2, "side": 1, "method": "dense", "steps": 0}],
    }
    digest = report_hash(body)
    body["diagnostics"] = {"methods": {"bs": "engine", "D": "deg = n"}}
    assert report_hash(body) == digest
    del body["diagnostics"]
    assert report_hash(body) == digest


@pytest.mark.parametrize("family, n", [("OR", 8), ("OR", 9), ("PARITY", 5)])
def test_measures_diagnostics_give_the_pivots_of_each_adeg_lp(family, n):
    f = named_family(family, n)
    lps = measure_report(f)["diagnostics"]["adeg_lp"]
    if n > APPROX_DEGREE_MAX_ARITY:
        assert lps == {"solves": 0, "exact": 0, "pivots": {}}
        return
    # the walk solves from deg - 1 down to the first infeasible degree
    top, adeg = degree(f), approximate_degree(f)
    walk = range(top - 1, max(adeg - 2, -1), -1)
    assert list(lps["pivots"]) == [str(d) for d in walk] and lps["solves"] == len(walk)
    for d in walk:
        got = solve_lp(approximation_problem(f, d, DEFAULT_EPSILON)).iterations
        assert lps["pivots"][str(d)] == got


def test_report_hash_takes_computed_sweep_floats_on_the_grid():
    body = run_sweep(max_n=2).to_dict()
    nudged = run_sweep(max_n=2).to_dict()
    for entry in nudged["checks"] + nudged["ratios"]:
        for key in report.GRID_KEYS:
            if isinstance(entry.get(key), float):
                entry[key] += 1e-13 * max(1.0, abs(entry[key]))
    assert nudged != body
    assert report.report_hash(nudged) == report.report_hash(body)
    # a step of the grid, or any change to the tolerance, moves the hash
    nudged["checks"][0]["min_margin"] += 2 * report.TIE_GRID
    assert report.report_hash(nudged) != report.report_hash(body)
    assert report.report_hash({**body, "tolerance": body["tolerance"] + 1e-13}) != report.report_hash(body)


@pytest.mark.parametrize("family, n", [("AND-OR", (3, 2)), ("XOR-OR", 6)])
def test_report_with_certificates_solves_each_component_once(monkeypatch, family, n):
    # lambda and the certificates share one Spectrum; the other build is
    # the sensitivity engine's own graph
    f = named_family(family, n)
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
    body = measure_report(f, include_certificates=True)
    assert all(cert["verdict"] for cert in body["certificates"].values())
    assert len(solved) == len(set(solved)) == comps
    assert len(built) == 2


def test_constant_function_skips_certificates():
    entries, _ = measure(TruthTable(3, 0), ["lambda", "certificates"])
    assert entries["certificates"] == {"skipped": "constant function"}
    assert entries["lambda"]["value"] == 0.0


def test_measure_returns_the_record_that_measure_report_prints(monkeypatch):
    records = []

    def recording(f, names):
        entries, record = measure(f, names)
        records.append(copy.deepcopy(record))
        return entries, record

    monkeypatch.setattr(report, "measure", recording)
    body = measure_report(named_family("OR", 6), include_certificates=True)
    assert records == [{"timing": body["timing"], **body["diagnostics"]}]
    assert body["diagnostics"]["lambda_solves"] == [
        {"vertices": 7, "side": 1, "method": "dense", "steps": 0}
    ]


def test_constant_function_asked_only_for_certificates_builds_no_spectrum(monkeypatch):
    def refuse(f):
        raise AssertionError("a Spectrum built only to fill the record")

    monkeypatch.setattr(report, "spectral_sensitivity", refuse)
    entries, record = measure(TruthTable(3, 0), ["certificates"])
    assert entries == {"certificates": {"skipped": "constant function"}}
    assert record["lambda_solves"] == []
    assert record["adeg_lp"] == {"solves": 0, "exact": 0, "pivots": {}}
