"""Structural checks on the package source.

Vertex relabelings and variable permutations both come from
``bits.relabel_maps``; a second module enumerating permutations would
be a second, hand-rolled map builder.  Likewise every eigensolver call
sits on the one spectral path, every Perron pair is solved behind one
``Spectrum``, every neighbour position comes from
``SensitivityGraph.neighbours``, one parity block per component makes
the one dense-or-gather choice, every LP starts from one least-squares
fit, every sweep table is measured on one path, each inequality is
written once, as one row of the sweep's check table that the graph
property chain reads too, one diagnostics record per measured function
is collected by ``report.measure_stack`` alone, the sandwich rules that
spare the exhaustive engines are written in ``report`` alone, and no
table is built by a Python loop over all 2^m inputs.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bfc"


def test_permutations_are_enumerated_only_in_bits():
    users = sorted(p.name for p in SRC.glob("*.py") if "permutations(" in p.read_text())
    assert users == ["bits.py"]


def test_eigensolvers_run_only_on_the_one_spectral_path():
    # spectral.py: the Gram solve and the Lanczos tridiagonal.  The SDP
    # verifiers check closed forms over the certificate's factors; a third
    # call would be a second, hand-rolled Perron path.
    calls = {}
    for p in SRC.glob("*.py"):
        text = p.read_text()
        count = text.count("eigh(") + text.count("eigvalsh(")
        if count:
            calls[p.name] = count
    assert calls == {"spectral.py": 2}


def test_one_spectrum_type_read_off_one_graph_per_stack():
    # stacked and single tables share ``Spectrum``, and a measured stack
    # builds the one union graph that s, lambda and the certificates read
    texts = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert [name for name, text in texts.items() if "TableSpectrum" in text] == []
    assert texts["report.py"].count("SensitivityGraph(") == 1


def test_perron_is_named_only_in_spectral():
    # other modules reach a component's Perron pair through
    # ``Spectrum.perron``, which solves it at most once
    users = sorted(p.name for p in SRC.glob("*.py") if "_perron" in p.read_text())
    assert users == ["spectral.py"]


def test_neighbour_positions_are_looked_up_only_in_spectral():
    # "where in this vertex set does x ^ 2^i sit?" has one answer,
    # ``SensitivityGraph.neighbours``.  A bit flip in another module's code
    # (bits.py's docstring names one) or a ``searchsorted`` into a
    # component would be a second, hand-rolled lookup.  The two searches
    # left find degree widths (algebraic.py) and the top component's place
    # in the domain (spectral.py).
    flip = re.compile(r"\^\s*\(?\s*1\s*<<")
    flips, searches = [], {}
    for p in sorted(SRC.glob("*.py")):
        text = p.read_text()
        code = text.replace(ast.get_docstring(ast.parse(text), clean=False) or "", "")
        if flip.search(code):
            flips.append(p.name)
        if text.count("searchsorted("):
            searches[p.name] = text.count("searchsorted(")
    assert flips == ["spectral.py"]
    assert searches == {"algebraic.py": 1, "spectral.py": 1}


def test_one_block_chooses_between_dense_and_gather_products():
    # ``_Block`` tests the component size against DENSE_MAX_VERTICES once,
    # and the bound and the solve both take its products; the other test
    # is ``adjacency``'s cap on a whole-domain matrix
    tests = []
    for outer in ast.parse((SRC / "spectral.py").read_text()).body:
        for inner in outer.body if isinstance(outer, ast.ClassDef) else [outer]:
            if not isinstance(inner, ast.FunctionDef):
                continue
            name = inner.name if inner is outer else f"{outer.name}.{inner.name}"
            tests += [
                name
                for node in ast.walk(inner)
                if isinstance(node, ast.Compare) and "DENSE_MAX_VERTICES" in ast.unparse(node)
            ]
    assert sorted(tests) == ["SensitivityGraph.adjacency", "_Block.__init__"]


def test_no_python_loop_over_every_mask():
    # ``for x in range(1 << m)`` or ``range(f.size)`` runs the interpreter
    # once per table entry; tables are built as numpy reductions over
    # ``np.arange``.
    loop = re.compile(r"\bfor\b[^\n]*\bin\s+range\(\s*(?:1\s*<<|\w+\.size\s*\))")
    users = sorted(p.name for p in SRC.glob("*.py") if loop.search(p.read_text()))
    assert users == []


def test_sweep_tables_are_measured_on_one_path():
    # the JSON and the CSV sweep both measure through ``_measure_all``,
    # whose chunks each make one stacked ``measure_stack`` call and whose
    # one pool runs them
    tree = ast.parse((SRC / "sweep.py").read_text())
    called = [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert called.count("measure_stack") == 1
    assert called.count("ProcessPoolExecutor") == 1


def test_sandwich_rules_are_written_only_in_report():
    # ``report.METHODS`` names the three sandwiches and ``report._sandwiched``
    # applies them; an engine or a sweep that skipped an engine on its
    # own bounds would be a second copy of the rules
    from bfc.report import METHODS

    rules = {bound for bound, _ in METHODS.values()}
    assert rules == {"s = C", "s = n", "deg = n"}
    spelled, defined = set(), set()
    for p in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Constant) and node.value in rules:
                spelled.add(p.name)
            if isinstance(node, ast.FunctionDef) and "sandwich" in node.name:
                defined.add(p.name)
    assert spelled == defined == {"report.py"}


def test_each_inequality_is_written_once():
    # a check's name sits in its one row of ``sweep.CHECKS`` beside its
    # formula; graphprops reads the rows and keeps no Huang comparison or
    # slack of its own
    from bfc.sweep import CHECK_NAMES

    tree = ast.parse((SRC / "sweep.py").read_text())
    literals = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert {name: literals.count(name) for name in CHECK_NAMES} == dict.fromkeys(CHECK_NAMES, 1)
    text = (SRC / "graphprops.py").read_text()
    assert "sqrt(" not in text
    assert "_SLACK" not in text


def test_lp_starts_from_one_lstsq_and_leaves_re_checks_to_callers():
    # re-checks at the caller's tolerance belong to the callers, so lp.py
    # calls neither public verifier; one lstsq computes the simplex's start
    tree = ast.parse((SRC / "lp.py").read_text())
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"verify_point", "verify_infeasibility_certificate"}
    counts = {p.name: p.read_text().count("lstsq(") for p in SRC.glob("*.py")}
    assert {name: c for name, c in counts.items() if c} == {"lp.py": 1}


def test_the_diagnostics_record_is_collected_only_by_measure():
    # ``report.measure_stack`` hands each table's ``approximate_degree``
    # its own walk list and reads lambda's solves off each table's
    # spectrum; an ambient log, or a second module collecting the walk,
    # would be a second way to collect the record
    texts = {p.name: p.read_text() for p in SRC.glob("*.py")}
    ambient = [name for name, text in texts.items() if "contextvars" in text or "ContextVar" in text]
    assert ambient == []
    users = sorted(name for name, text in texts.items() if re.search(r"\bwalk=", text))
    assert users == ["report.py"]
