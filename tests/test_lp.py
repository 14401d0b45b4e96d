import numpy as np
import pytest

import bfc.lp as lp_module
from bfc.lp import (
    LpProblem,
    canonical_rows,
    solve_lp,
    verify_infeasibility_certificate,
    verify_point,
)


def lp(objective, constraints, bounds=None):
    return LpProblem.of(objective, constraints, bounds)


def test_basic_maximization():
    # max x + y st x <= 2, y <= 3  -> 5 at (2, 3)
    p = lp([1, 1], [([1, 0], "<=", 2), ([0, 1], "<=", 3)])
    r = solve_lp(p)
    assert r.status == "optimal"
    assert abs(r.value - 5) < 1e-9
    assert np.allclose(r.point, [2, 3], atol=1e-9)
    assert verify_point(p, r.point)


def test_equality_negative_rhs_unbounded():
    # max x st x + y = -1, y <= 4: y has no lower bound so x is unbounded
    p = lp([1, 0], [([1, 1], "=", -1), ([0, 1], "<=", 4)])
    r = solve_lp(p)
    assert r.status == "unbounded"


def test_bounded_by_nonnegativity():
    # max x st x + y = -1, y >= -5  ->  x = 4
    p = lp([1, 0], [([1, 1], "=", -1), ([0, 1], ">=", -5)])
    r = solve_lp(p)
    assert r.status == "optimal"
    assert abs(r.value - 4) < 1e-9


def test_infeasible_with_farkas_certificate():
    # x >= 1 and x <= 0 cannot hold
    p = lp([1], [([1], ">=", 1), ([1], "<=", 0)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert r.certificate is not None
    assert verify_infeasibility_certificate(p, r.certificate)
    a, b = canonical_rows(p)
    y = r.certificate
    assert np.all(y >= -1e-9)
    assert np.allclose(y @ a, 0, atol=1e-7)
    assert float(y @ b) < 0


def test_infeasible_three_way():
    # x + y >= 4, x <= 1, y <= 1
    p = lp(
        [0, 0],
        [([1, 1], ">=", 4), ([1, 0], "<=", 1), ([0, 1], "<=", 1)],
    )
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate)


def test_unbounded():
    p = lp([1], [([1], ">=", 0)])
    assert solve_lp(p).status == "unbounded"


def test_degenerate_cycling_guard():
    # classic degenerate square: many redundant constraints through origin
    p = lp(
        [1, 1],
        [
            ([1, 0], "<=", 1),
            ([0, 1], "<=", 1),
            ([1, 1], "<=", 2),
            ([1, -1], "<=", 0),
            ([-1, 1], "<=", 0),
            ([1, 1], ">=", 0),
        ],
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert abs(r.value - 2) < 1e-9


def test_variable_bounds_rows():
    p = LpProblem.of([1], [], [(None, 7)])
    r = solve_lp(p)
    assert r.status == "optimal"
    assert abs(r.value - 7) < 1e-9
    p = LpProblem.of([-1], [], [(-3, None)])
    r = solve_lp(p)
    assert abs(r.value - 3) < 1e-9


def test_verify_point_rejects_violations():
    p = lp([1], [([1], "<=", 1)])
    assert verify_point(p, np.array([0.5]))
    assert not verify_point(p, np.array([2.0]))


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem.of([1], [([1, 2], "<=", 1)], [])  # width mismatch
    with pytest.raises(ValueError):
        LpProblem.of([1], [([1], "!!", 1)], [])
    with pytest.raises(ValueError):
        LpProblem.of([1, 1], [], [(0, 1)])  # one bound pair for two variables


def test_larger_random_lps_agree_with_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for trial in range(25):
        n, m = 4, 7
        a = rng.normal(size=(m, n)).round(3)
        b = (rng.normal(size=m) + 2).round(3)
        c = rng.normal(size=n).round(3)
        p = LpProblem.of(
            list(c),
            [(list(a[i]), "<=", float(b[i])) for i in range(m)],
            [(-10.0, 10.0)] * n,
        )
        r = solve_lp(p)
        ref = scipy.linprog(
            -c, A_ub=a, b_ub=b, bounds=[(-10, 10)] * n, method="highs"
        )
        assert r.status == "optimal"
        assert ref.status == 0
        assert abs(r.value - (-ref.fun)) < 1e-6, f"trial {trial}"


@pytest.mark.parametrize("stall_pivots", [lp_module.STALL_PIVOTS, 0])
def test_beale_cycling_lp_terminates(monkeypatch, stall_pivots):
    # Beale (1955): Dantzig's rule with the textbook lowest-index tie-break
    # cycles on this LP from the slack basis. Both the default pricing and
    # Bland's rule throughout (stall_pivots = 0) must reach 5/4 at (1, 0, 1, 0).
    monkeypatch.setattr(lp_module, "STALL_PIVOTS", stall_pivots)
    p = lp(
        [0.75, -20, 0.5, -6],
        [
            ([0.25, -8, -1, 9], "<=", 0),
            ([0.5, -12, -0.5, 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
        [(0, None)] * 4,
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert abs(r.value - 1.25) < 1e-9
    assert np.allclose(r.point, [1, 0, 1, 0], atol=1e-9)
    assert verify_point(p, r.point)


def test_ranged_row_expands_like_its_pair():
    rows = [([1, 2, 0], (0.5, 3.0)), ([0, -1, 4], (-2.0, -1.0))]
    ranged = lp([0, 0, 0], [(a, "range", lh) for a, lh in rows], [(None, 1), (-1, None), (None, None)])
    pair = lp(
        [0, 0, 0],
        [c for a, (lo, hi) in rows for c in ((a, ">=", lo), (a, "<=", hi))],
        [(None, 1), (-1, None), (None, None)],
    )
    a_r, b_r = canonical_rows(ranged)
    a_p, b_p = canonical_rows(pair)
    assert a_r.shape == (6, 3)
    assert np.array_equal(a_r, a_p)
    assert np.array_equal(b_r, b_p)


def test_infeasible_ranged_system_has_certificate():
    # x + y in [0, 1], x - y in [3, 4], y in [0, 2] and x <= 2: x - y <= 2
    p = lp(
        [0, 0],
        [([1, 1], "range", (0, 1)), ([1, -1], "range", (3, 4))],
        [(None, 2), (0, 2)],
    )
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate)


@pytest.mark.parametrize(
    "constraints, bounds",
    [
        ([([1, 1], "<=", 5)], [(None, None), (3, 2)]),  # inverted variable bound
        ([([1, 1], "range", (2, 1))], None),  # inverted row range
    ],
)
def test_inverted_bounds_have_certificates(constraints, bounds):
    p = lp([1, 0], constraints, bounds)
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate)


def test_ranged_free_lps_agree_with_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    statuses = set()
    for trial in range(60):
        n, m = int(rng.integers(2, 6)), int(rng.integers(3, 9))
        a = rng.normal(size=(m, n)).round(2)
        lo = rng.normal(size=m).round(2)
        hi = (lo + rng.uniform(-0.2, 1.5, size=m)).round(2)
        c = rng.normal(size=n).round(2) if trial % 3 else np.zeros(n)
        bounds = [(-5.0, 5.0) if j == 0 else (None, None) for j in range(n)]
        p = LpProblem.of(
            list(c), [(list(a[i]), "range", (lo[i], hi[i])) for i in range(m)], bounds
        )
        r = solve_lp(p)
        ref = scipy.linprog(
            -c,
            A_ub=np.vstack([a, -a]),
            b_ub=np.concatenate([hi, -lo]),
            bounds=[(-5, 5)] + [(None, None)] * (n - 1),
            method="highs",
        )
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert r.status == expected, f"trial {trial}"
        statuses.add(r.status)
        if r.status == "optimal":
            assert verify_point(p, r.point), f"trial {trial}"
            assert abs(r.value - (-ref.fun)) < 1e-6, f"trial {trial}"
        elif r.status == "infeasible":
            assert verify_infeasibility_certificate(p, r.certificate), f"trial {trial}"
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_problem_with_no_variables_gets_a_verified_verdict():
    # 0 >= 1 over no variables: the lone canonical row is 0 <= -1
    p = lp([], [((), ">=", 1)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate) is True
    assert verify_point(lp([], [((), "<=", 1)]), np.zeros(0))


def test_ranged_problem_matches_its_row_list():
    a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    lo, hi = np.array([0.0, 0.5, -1.0]), np.array([1.0, 2.0, 0.0])
    built = LpProblem.ranged(a, lo, hi)
    listed = lp([0, 0], [(row, "range", (l, h)) for row, l, h in zip(a.tolist(), lo, hi)])
    for x, y in zip(canonical_rows(built), canonical_rows(listed)):
        assert np.array_equal(x, y)
    r = solve_lp(built)
    assert r.status == "optimal"
    assert verify_point(listed, r.point)


def test_canonical_rows_are_expanded_once_per_problem():
    p = lp([1, 1], [([1, 2], "range", (0, 3))], [(0, None), (None, 1)])
    assert canonical_rows(p) is canonical_rows(p)
