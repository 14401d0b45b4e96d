"""The stacked measure: ``report.measure_stack`` over k tables of one
arity gives each table exactly what ``measure`` gives it alone."""

import numpy as np
import pytest

from bfc import bits, report
from bfc.report import MEASURE_NAMES, measure, measure_stack
from bfc.spectral import Spectrum, spectral_sensitivities
from bfc.sweep import SWEEP_MEASURES, npn_canonical_array, sample_tables
from bfc.tables import TruthTable
from test_spectral import _spectrum_corpus


def _without_timing(measured):
    """(entries, record) pairs with the record's timing dropped: the one
    part that is a clock reading, shared by the tables of a stack."""
    return [
        (entries, {k: v for k, v in record.items() if k != "timing"}) for entries, record in measured
    ]


def _alone(n, tables, names):
    return _without_timing(measure(TruthTable(n, t), names) for t in tables)


def _assert_stack_matches(n, tables, names):
    # dict equality compares lambda and its residual with ==, and the
    # record's lambda_solves is each table's Spectrum.solves
    assert _without_timing(measure_stack(n, tables, names)) == _alone(n, tables, names)


def _classes(n):
    return np.unique(npn_canonical_array(n)).tolist()


def test_stack_matches_each_arity_4_class_alone():
    _assert_stack_matches(4, _classes(4), MEASURE_NAMES)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_stack_matches_every_small_table_alone(n):
    # arity 0 holds only the two constants
    _assert_stack_matches(n, list(range(1 << (1 << n))), MEASURE_NAMES)


def test_stack_matches_sampled_arity_8_tables_alone():
    # adeg is one LP walk per table in a stack too; four walks stand for them
    tables = sample_tables(8, 80, 11)
    _assert_stack_matches(8, tables, SWEEP_MEASURES)
    _assert_stack_matches(8, tables[:4], MEASURE_NAMES)


def test_stack_matches_the_spectrum_corpus_alone():
    by_arity = {}
    for f in _spectrum_corpus():
        if isinstance(f, TruthTable):
            by_arity.setdefault(f.arity, []).append(f.table)
    assert sorted(by_arity) == list(range(3, 13))
    for n, tables in by_arity.items():
        _assert_stack_matches(n, tables, MEASURE_NAMES)
        stacked = spectral_sensitivities(bits.to_bit_rows(tables, n))
        for t, got in zip(tables, stacked):
            want = Spectrum(TruthTable(n, t))
            assert (got.value, got.residual, got.solves) == (want.value, want.residual, want.solves)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_any_split_of_the_stack_gives_the_same_results(seed):
    rng = np.random.default_rng(seed)
    for n, tables, names in [
        (4, _classes(4), MEASURE_NAMES),
        (7, sample_tables(7, 30, 5), SWEEP_MEASURES),
    ]:
        whole = _without_timing(measure_stack(n, tables, names))
        cuts = np.sort(rng.choice(np.arange(1, len(tables)), size=4, replace=False)).tolist()
        pieces = [tables[a:b] for a, b in zip([0, *cuts], [*cuts, len(tables)])]
        split = [m for piece in pieces for m in _without_timing(measure_stack(n, piece, names))]
        assert split == whole


def test_c_and_d_read_one_subcube_table_per_stack(monkeypatch):
    # C runs where s < 3 and D where deg < 3: on 3:AA (the dictator x1)
    # and the constant both, on majority 3:E8 only C, on 3:81 only D; OR_3
    # closes both sandwiches
    built, fed = [], {"certificate_costs": 0, "decision_depths": 0}
    real = report.monochromatic

    def counting(values):
        built.append(len(values))
        return real(values)

    monkeypatch.setattr(report, "monochromatic", counting)
    for name in fed:
        engine = getattr(report, name)

        def feeding(mono, _name=name, _engine=engine):
            fed[_name] += len(mono)
            return _engine(mono)

        monkeypatch.setattr(report, name, feeding)
    tables = [0xAA, 0xE8, 0xFE, 0x00, 0x81]
    measured = [entries for entries, _ in measure_stack(3, tables, ("C", "D"))]
    assert built == [4]
    assert fed == {"certificate_costs": 3, "decision_depths": 3}
    assert [m["C"]["value"] for m in measured] == [1, 2, 3, 0, 3]
    assert [m["D"]["value"] for m in measured] == [1, 3, 3, 0, 3]


def test_an_engine_error_names_the_table_it_fails_on_alone(monkeypatch):
    # the stacked engine fails on the whole stack; measured one by one,
    # only majority 3:E8 fails
    real = report.degrees

    def failing(values):
        if any(bits.from_bit_array(row) == 0xE8 for row in values):
            raise ArithmeticError("engine failed")
        return real(values)

    monkeypatch.setattr(report, "degrees", failing)
    with pytest.raises(ArithmeticError, match=r"^deg of 3:E8: engine failed$"):
        measure_stack(3, [0xFE, 0x1B, 0xE8, 0x16], ("s", "deg"))
    # a failure that no table repeats alone is named after the stack
    monkeypatch.setattr(report, "degrees", lambda values: failing(values) if len(values) > 1 else real(values))
    with pytest.raises(ArithmeticError, match=r"^deg of a stack of 2 arity-3 tables: engine failed$"):
        measure_stack(3, [0xFE, 0xE8], ("deg",))
