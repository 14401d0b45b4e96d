"""Degree engines against inclusion-exclusion and hand-built oracles."""

import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bfc import algebraic, lp
from bfc.algebraic import (
    DEFAULT_EPSILON,
    LP_CHECK_TOL,
    approximate_degree,
    approximation_problem,
    degree,
    degree_gf2,
    gf2_coefficients,
    mobius_coefficients,
    multilinear_expansion,
)
from bfc.sweep import npn_canonical_array
from bfc.tables import TruthTable, format_table, named_family, parse_table


def naive_mobius(f):
    # coefficient of monomial S: sum over T subseteq S of (-1)^{|S\T|} f(T)
    n = f.arity
    out = []
    for s in range(1 << n):
        acc = 0
        for t in range(1 << n):
            if t & ~s == 0:
                acc += (-1) ** (bin(s & ~t).count("1")) * f.value(t)
        out.append(acc)
    return out


def naive_gf2(f):
    n = f.arity
    out = []
    for s in range(1 << n):
        acc = 0
        for t in range(1 << n):
            if t & ~s == 0:
                acc ^= f.value(t)
        out.append(acc)
    return out


def test_mobius_exhaustive_n3():
    for t in range(256):
        f = TruthTable(3, t)
        assert list(mobius_coefficients(f)) == naive_mobius(f)


def test_gf2_exhaustive_n3():
    for t in range(256):
        f = TruthTable(3, t)
        assert list(gf2_coefficients(f)) == naive_gf2(f)


def test_expansion_evaluates_back_to_f():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5):
        t = int(rng.integers(0, 1 << (1 << n)))
        f = TruthTable(n, t)
        e = multilinear_expansion(f)
        for x in range(1 << n):
            assert e.evaluate(x) == f.value(x)


def test_degree_known_values():
    assert degree(named_family("OR", 4)) == 4
    assert degree(named_family("AND", 4)) == 4
    assert degree(named_family("PARITY", 5)) == 5
    assert degree(TruthTable(3, 0)) == 0
    assert degree(TruthTable(0, 1)) == 0
    # f = x2 embedded in 3 variables
    assert degree(TruthTable(3, 0b11001100)) == 1


def test_degree_gf2_known_values():
    assert degree_gf2(named_family("PARITY", 6)) == 1
    assert degree_gf2(named_family("OR", 2)) == 2  # x1 + x2 + x1 x2 over GF(2)
    assert degree_gf2(named_family("OR", 5)) == 5
    assert degree_gf2(named_family("AND", 5)) == 5
    assert degree_gf2(TruthTable(2, 0)) == 0


def test_degree_vs_parity_balance():
    # deg(f) < n exactly when f agrees with parity on half the inputs
    from bfc.tables import parity_partition

    for t in range(256):
        f = TruthTable(3, t)
        v0, v1 = parity_partition(f)
        assert (degree(f) < 3) == (len(v0) == len(v1))


def test_adeg_or2_is_one_with_explicit_polynomial():
    # p(x) = (1 + x1 + x2)/3 stays within 1/3 of OR_2 everywhere
    f = named_family("OR", 2)
    for x in range(4):
        p = (1 + (x & 1) + ((x >> 1) & 1)) / 3
        assert abs(p - f.value(x)) <= 1 / 3 + 1e-12
    assert approximate_degree(f) == 1


def test_adeg_parity2_needs_full_degree():
    # a + b + c >= 4/3 from the two mixed inputs, then a >= 1 contradicts a <= 1/3
    assert approximate_degree(named_family("PARITY", 2)) == 2


def test_adeg_frozen_family_values():
    assert approximate_degree(named_family("OR", 3)) == 2
    assert approximate_degree(named_family("OR", 4)) == 2
    assert approximate_degree(named_family("AND", 3)) == 2
    assert approximate_degree(named_family("PARITY", 4)) == 4
    assert approximate_degree(named_family("EXACT1", 3)) == 3


def test_adeg_at_most_degree_exhaustive_n3():
    for t in range(256):
        f = TruthTable(3, t)
        assert approximate_degree(f) <= degree(f)


def test_adeg_epsilon_monotone():
    f = named_family("OR", 4)
    loose = approximate_degree(f, epsilon=0.45)
    tight = approximate_degree(f, epsilon=0.05)
    assert loose <= approximate_degree(f) <= tight


def test_adeg_constant_and_validation():
    assert approximate_degree(TruthTable(3, 0)) == 0
    assert approximate_degree(TruthTable(2, 0b1111)) == 0
    with pytest.raises(ValueError):
        approximate_degree(named_family("OR", 2), epsilon=0.5)
    with pytest.raises(ValueError):
        approximate_degree(named_family("OR", 2), epsilon=0.0)
    with pytest.raises(ValueError):
        approximate_degree(named_family("OR", 9))


def test_parity_adeg_tracks_arity():
    for n in (1, 2, 3, 4, 5):
        assert approximate_degree(named_family("PARITY", n)) == n


def test_mobius_degree_matches_brute_force_fit():
    # brute-force least-squares multilinear fit has the same top monomials
    rng = np.random.default_rng(17)
    n = 4
    xs = np.array(list(itertools.product([0, 1], repeat=n)))
    design = np.ones((16, 16))
    for col, s in enumerate(range(16)):
        for i in range(n):
            if (s >> i) & 1:
                design[:, col] *= xs[:, n - 1 - i]  # column bit order differs, fix below
    # rebuild the design with the package's variable convention: x_i = bit i-1
    design = np.ones((16, 16))
    inputs = np.arange(16)
    for col in range(16):
        for i in range(n):
            if (col >> i) & 1:
                design[:, col] *= (inputs >> i) & 1
    for _ in range(10):
        t = int(rng.integers(0, 1 << 16))
        f = TruthTable(n, t)
        vals = np.array([f.value(x) for x in range(16)], dtype=float)
        coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
        got = mobius_coefficients(f)
        assert np.allclose(coeffs, got, atol=1e-8)


def _degree_of(columns, n):
    """The degree cap of arity-n lattice columns (an approximation LP's
    ``a``), read off their count: one per monomial of degree <= cap."""
    widths = list(itertools.accumulate(math.comb(n, j) for j in range(n + 1)))
    return widths.index(columns.shape[1])


def _adeg_up_walk(f, epsilon=DEFAULT_EPSILON):
    """adeg(f) as the least degree whose LP is feasible, searched upward
    from 0 with the bare solver verdicts."""
    for d in range(f.arity + 1):
        if lp.solve_lp(approximation_problem(f, d, epsilon)).status == "optimal":
            return d
    raise AssertionError("no feasible degree")


# the checks behind approximate_degree's verdicts: (module, name, kind);
# the exact ones take the lattice columns, the float ones the LP
RECHECKS = [
    (algebraic, "verify_exact_fit", "point"),
    (algebraic, "verify_exact_dual", "farkas"),
    (lp, "verify_point", "point"),
    (lp, "verify_infeasibility_certificate", "farkas"),
]


def _spied_adeg(monkeypatch, f, walk=None):
    """adeg(f) and every re-check behind it, in call order, as
    (kind, degree, exact, tol, passed); tol is None for an exact check.
    ``walk`` is handed on to approximate_degree."""
    checks = []

    def spy(module, name, kind):
        real = getattr(module, name)
        exact = module is algebraic

        def wrapped(*args):
            ok = real(*args)
            columns, tol = (args[0], None) if exact else (args[0].a, args[2])
            checks.append((kind, _degree_of(columns, f.arity), exact, tol, ok))
            return ok

        return wrapped

    with monkeypatch.context() as patch:
        for module, name, kind in RECHECKS:
            patch.setattr(module, name, spy(module, name, kind))
        d = approximate_degree(f, walk=walk)
    return d, checks


def _adeg_with_rechecks(monkeypatch, f):
    """adeg(f), asserting that every verdict passed its re-check, exact
    or at 1e-7, that the last point check is at adeg, and that a Farkas
    check ran at adeg - 1 when adeg > 0."""
    d, checks = _spied_adeg(monkeypatch, f)
    assert checks
    assert all(ok and (exact or tol == LP_CHECK_TOL) for _, _, exact, tol, ok in checks)
    points = [deg for kind, deg, _, _, _ in checks if kind == "point"]
    farkas = [deg for kind, deg, _, _, _ in checks if kind == "farkas"]
    assert points[-1] == d
    if d > 0:
        assert d - 1 in farkas
    return d


RANDOM_ARITY_8 = "8:D23F0824128B2F330C5C7FD0A6A3A4506513270E269E0D37F2A74DE452E6B438"


@pytest.mark.parametrize(
    "f, expected",
    [
        (named_family("OR", 8), 3),
        (named_family("PARITY", 8), 8),
        (named_family("EXACT1", 7), 5),
        (named_family("AND-OR", (4, 2)), 3),
        # random.Random(7).getrandbits(256); its degree-2 Farkas vector used
        # to fail the re-check. HiGHS: degree 4 infeasible, degree 5 feasible.
        (parse_table(RANDOM_ARITY_8), 5),
    ],
    ids=["OR_8", "PARITY_8", "EXACT1_7", "AND-OR_4_2", "random-8"],
)
def test_adeg_frozen_at_arity_7_and_8(monkeypatch, f, expected):
    assert _adeg_up_walk(f) == expected
    assert _adeg_with_rechecks(monkeypatch, f) == expected


def test_adeg_matches_the_up_walk_on_every_arity_4_class(monkeypatch):
    reps = np.unique(npn_canonical_array(4)).tolist()
    assert len(reps) == 222
    for rep in reps:
        f = TruthTable(4, rep)
        assert _adeg_with_rechecks(monkeypatch, f) == _adeg_up_walk(f), format_table(f)


def test_adeg_names_the_degree_of_a_solver_failure(monkeypatch):
    real = lp.solve_lp

    def failing(problem):
        if _degree_of(problem.a, 4) == 2:
            raise lp.LpNumericalError("iteration cap 50000 exceeded")
        return real(problem)

    monkeypatch.setattr(lp, "solve_lp", failing)
    with pytest.raises(
        lp.LpNumericalError, match=r"^iteration cap 50000 exceeded at degree 2$"
    ):
        approximate_degree(named_family("OR", 4))


def test_default_epsilon_is_exactly_one_third():
    # 4:0006 is x1 xor x2 where x3 = x4 = 0; its best error at degree 2 is
    # exactly 1/3, and the double nearest 1/3 lies a little below it
    f = TruthTable(4, 6)
    assert DEFAULT_EPSILON == Fraction(1, 3)
    assert approximate_degree(f) == 2
    assert approximate_degree(f, Fraction(1, 3)) == 2
    assert approximate_degree(f, epsilon=1 / 3) == 3


@pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.25, 0.3, 0.45])
def test_integer_walk_matches_the_lp_walk_at_other_epsilons(epsilon):
    # a float epsilon is read as its binary value p / 2^k, so p and q reach
    # 2^54 here; they meet the spectrum only in Python integers
    for rep in np.unique(npn_canonical_array(4)).tolist():
        f = TruthTable(4, rep)
        assert approximate_degree(f, epsilon) == _adeg_up_walk(f, epsilon), format_table(f)


def _float_start_verdict(f, d):
    """What the least-squares fit of the row midpoints settles at degree
    d, in floats: "feasible" when the fit passes ``verify_point``,
    "infeasible" when minus its residual passes
    ``verify_infeasibility_certificate``, else None."""
    p = approximation_problem(f, d, DEFAULT_EPSILON)
    mid = (p.lo + p.hi) / 2
    fit = np.linalg.lstsq(p.a, mid, rcond=None)[0]
    if lp.verify_point(p, fit, LP_CHECK_TOL):
        return "feasible"
    if lp.verify_infeasibility_certificate(p, p.a @ fit - mid, LP_CHECK_TOL):
        return "infeasible"
    return None


def _integer_verdicts(monkeypatch, f):
    """{degree: "feasible" | "infeasible" | None} over the degrees that
    approximate_degree decides: its integer verdict, None where the
    simplex decided."""
    walk = []
    _, checks = _spied_adeg(monkeypatch, f, walk)
    verdict = {"point": "feasible", "farkas": "infeasible"}
    exact = {deg: verdict[kind] for kind, deg, is_exact, _, _ in checks if is_exact}
    assert len(exact) == sum(e for _, _, e in walk) + 1  # and the top degree's own check
    return {d: exact.get(d) for d, _, _ in walk}


@pytest.mark.parametrize(
    "f",
    [
        named_family("OR", 8),
        named_family("PARITY", 8),
        named_family("EXACT1", 7),
        named_family("EXACT1", 8),
        named_family("AND-OR", (4, 2)),
        parse_table(RANDOM_ARITY_8),
        TruthTable(8, random.Random(800).getrandbits(256)),
    ],
    ids=["OR_8", "PARITY_8", "EXACT1_7", "EXACT1_8", "AND-OR_4_2", "random-8", "random-800"],
)
def test_integer_verdicts_agree_with_the_float_start_at_arity_7_and_8(monkeypatch, f):
    for d, verdict in _integer_verdicts(monkeypatch, f).items():
        assert verdict == _float_start_verdict(f, d), d


def test_integer_verdicts_agree_with_the_float_start_on_every_arity_4_lp(monkeypatch):
    # the integer tests decide the same 406 of the 437 LPs that the float
    # least-squares checks decide, the same way
    counts = collections.Counter()
    for rep in np.unique(npn_canonical_array(4)).tolist():
        f = TruthTable(4, rep)
        for d, verdict in _integer_verdicts(monkeypatch, f).items():
            assert verdict == _float_start_verdict(f, d), (format_table(f), d)
            counts[verdict] += 1
    assert counts == {"feasible": 185, "infeasible": 221, None: 31}


def test_exact_checks_hold_to_the_last_integer(monkeypatch):
    # OR_4 (adeg 2) has its degree-3 fit and its degree-1 dual polynomial
    # decided in integers; degree 2 goes to the simplex
    calls = {}
    for name in ("verify_exact_fit", "verify_exact_dual"):
        real = getattr(algebraic, name)

        def spy(*args, real=real, name=name):
            calls[name, _degree_of(args[0], 4)] = args
            return real(*args)

        monkeypatch.setattr(algebraic, name, spy)
    assert approximate_degree(named_family("OR", 4)) == 2
    monkeypatch.undo()
    assert set(calls) == {
        ("verify_exact_fit", 4),
        ("verify_exact_fit", 3),
        ("verify_exact_dual", 1),
    }
    # the fit's coefficients c are scaled by 2^n, and every row allows
    # |a c - 2^n f| <= 4 at eps = 1/3; this fit misses by 1 everywhere, so
    # its constant may move by 3 either way, and not by 4
    columns, values, fit, eps = calls["verify_exact_fit", 3]
    constant = np.arange(fit.size) == 0
    for step, ok in ((3, True), (-3, True), (4, False), (-4, False)):
        assert algebraic.verify_exact_fit(columns, values, fit + step * constant, eps) is ok
    # the dual polynomial's signed bound is 29 eps - 11 (times q), so it
    # certifies every eps below 11/29 and none from there up
    columns, values, u, eps = calls["verify_exact_dual", 1]
    assert algebraic.verify_exact_dual(columns, values, u, eps)
    assert algebraic.verify_exact_dual(columns, values, u, Fraction(11, 29) - Fraction(1, 10**30))
    assert not algebraic.verify_exact_dual(columns, values, u, Fraction(11, 29))
    assert not algebraic.verify_exact_dual(columns, values, -u, eps)
    nudged = u.copy()
    nudged[0] += 1  # no longer orthogonal to the constant monomial
    assert not algebraic.verify_exact_dual(columns, values, nudged, eps)
