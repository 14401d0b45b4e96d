import random

import numpy as np
import pytest

import bfc.lp as lp_module
from bfc.algebraic import (
    LP_CHECK_TOL,
    approximate_degree,
    approximation_problem,
    degree,
)
from bfc.lp import (
    VERIFY_TOL,
    LpProblem,
    solve_lp,
    verify_infeasibility_certificate,
    verify_point,
)
from bfc.sweep import npn_canonical_array
from bfc.tables import TruthTable, named_family


def lp(rows):
    """The problem lo <= a x <= hi over rows given as (a, lo, hi)."""
    a = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), -1)
    lo = np.array([r[1] for r in rows], dtype=float)
    hi = np.array([r[2] for r in rows], dtype=float)
    return LpProblem(a, lo, hi)


def signed_bound(p, u):
    """sum over u > 0 of u hi plus sum over u < 0 of u lo."""
    return float(u @ np.where(u > 0, p.hi, p.lo))


def canonical_farkas(p, u, tol=VERIFY_TOL):
    """A reference Farkas check over the A x <= b form, in which row i
    becomes -a_i x <= -lo_i and then a_i x <= hi_i, with each weight on
    the side its sign picks."""
    rows = np.stack([-p.a, p.a], axis=1).reshape(-1, p.a.shape[1])
    b = np.stack([-p.lo, p.hi], axis=1).reshape(-1)
    y = np.maximum(np.stack([-u, u], axis=1).reshape(-1), 0.0)
    if y.max(initial=0.0) <= 0:
        return False
    y = y / y.max()
    if np.abs(y @ rows).max(initial=0.0) > tol * max(1.0, np.abs(rows).max(initial=0.0)):
        return False
    return bool(y @ b < -tol * max(1.0, np.abs(b).max()))


def test_infeasible_with_farkas_certificate():
    # x in [1, 2] and x in [-1, 0] cannot both hold
    p = lp([([1], 1, 2), ([1], -1, 0)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert r.certificate is not None
    assert verify_infeasibility_certificate(p, r.certificate)
    u = r.certificate
    assert u.shape == (2,)
    assert np.allclose(u @ p.a, 0, atol=1e-7)
    assert signed_bound(p, u) < 0


def test_infeasible_three_way():
    # x + y in [4, 5], x in [-3, 1], y in [-3, 1]
    p = lp([([1, 1], 4, 5), ([1, 0], -3, 1), ([0, 1], -3, 1)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate)


def test_degenerate_cycling_guard():
    # classic degenerate square: five rows are tight at the only feasible
    # point (1, 1), two of them through the origin as well
    p = lp(
        [
            ([1, 0], 0, 1),
            ([0, 1], 0, 1),
            ([1, 1], 2, 3),
            ([1, -1], -1, 0),
            ([-1, 1], -1, 0),
        ]
    )
    r = solve_lp(p)
    assert r.status == "optimal"
    assert np.allclose(r.point, [1, 1], atol=1e-9)
    assert verify_point(p, r.point)


def test_verify_point_rejects_violations():
    p = lp([([1], 0, 1)])
    assert verify_point(p, np.array([0.5]))
    assert not verify_point(p, np.array([2.0]))
    assert not verify_point(p, np.array([-1.0]))


def test_larger_random_lps_agree_with_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    statuses = set()
    for trial in range(25):
        n, m = 8, 20
        a = rng.normal(size=(m, n)).round(3)
        # ranges around a random point, some of them missing it
        center = a @ rng.normal(size=n)
        lo = (center - rng.uniform(-0.3, 1.0, size=m)).round(3)
        hi = np.maximum(lo, (center + rng.uniform(-0.3, 1.0, size=m)).round(3))
        p = LpProblem(a, lo, hi)
        r = solve_lp(p)
        ref = scipy.linprog(
            np.zeros(n),
            A_ub=np.vstack([a, -a]),
            b_ub=np.concatenate([hi, -lo]),
            bounds=[(None, None)] * n,
            method="highs",
        )
        expected = {0: "optimal", 2: "infeasible"}[ref.status]
        assert r.status == expected, f"trial {trial}"
        statuses.add(r.status)
        if r.status == "optimal":
            assert verify_point(p, r.point), f"trial {trial}"
        else:
            assert verify_infeasibility_certificate(p, r.certificate), f"trial {trial}"
            assert canonical_farkas(p, r.certificate), f"trial {trial}"
    assert statuses == {"optimal", "infeasible"}


@pytest.mark.parametrize("stall_pivots", [lp_module.STALL_PIVOTS, 0])
def test_beale_cycling_lp_terminates(monkeypatch, stall_pivots):
    # Beale (1955): Dantzig's rule with the textbook lowest-index tie-break
    # cycles on this LP from the slack basis. Its optimum is 5/4, only at
    # (1, 0, 1, 0); here the objective is one more row, at least 5/4 (or
    # 5/4 + 1/1000, which no point reaches), the sign bounds are rows too,
    # and every range is cut to a finite box around that point. Both the
    # default pricing and Bland's rule throughout (stall_pivots = 0) must
    # decide both problems.
    monkeypatch.setattr(lp_module, "STALL_PIVOTS", stall_pivots)
    objective = [0.75, -20, 0.5, -6]
    rows = [
        ([0.25, -8, -1, 9], -10, 0),
        ([0.5, -12, -0.5, 3], -10, 0),
        ([0, 0, 1, 0], -10, 1),
    ] + [(list(e), 0, 10) for e in np.eye(4)]
    p = lp(rows + [(objective, 1.25, 10)])
    r = solve_lp(p)
    assert r.status == "optimal"
    assert np.allclose(r.point, [1, 0, 1, 0], atol=1e-9)
    assert verify_point(p, r.point)
    p = lp(rows + [(objective, 1.251, 10)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate)


def test_bland_path_gives_the_same_adeg_on_every_arity_4_class(monkeypatch):
    # STALL_PIVOTS = 0 prices by Bland's rule from the first pivot; every
    # verdict approximate_degree returns has passed its re-check.
    reps = np.unique(npn_canonical_array(4)).tolist()
    assert len(reps) == 222
    real = lp_module.solve_lp
    runs = {}
    for stall_pivots in (lp_module.STALL_PIVOTS, 0):
        pivots = []

        def counting(problem):
            result = real(problem)
            pivots.append(result.iterations)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "STALL_PIVOTS", stall_pivots)
            patch.setattr(lp_module, "solve_lp", counting)
            degrees = [approximate_degree(TruthTable(4, rep)) for rep in reps]
        runs[stall_pivots] = (degrees, sum(pivots))
    (default, default_pivots), (bland, bland_pivots) = runs.values()
    assert default == bland
    assert default_pivots != bland_pivots  # the two rules took different paths


@pytest.mark.parametrize(
    "family, n", [("OR", 4), ("PARITY", 6), ("EXACT1", 7), ("AND-OR", (4, 2)), ("random", 8)]
)
def test_full_degree_lp_is_feasible_at_the_start(family, n):
    # every monomial is a column, so the lattice is square and invertible:
    # the least-squares fit of the row midpoints meets every row exactly
    if family == "random":
        f = TruthTable(n, random.Random(800).getrandbits(1 << n))
    else:
        f = named_family(family, n)
    p = approximation_problem(f, f.arity, 1 / 3)
    r = solve_lp(p)
    assert (r.status, r.iterations) == ("optimal", 0)
    assert verify_point(p, r.point)


def test_arity_4_classes_take_few_pivots(monkeypatch):
    # a start at x = 0 takes 4,940 pivots over these 437 LPs, and the
    # simplex from the least-squares start 1,361, 1,288 of them on the
    # 221 infeasible LPs; integer Walsh arithmetic decides 406 of them
    # with none, and the 31 feasible LPs left reach the simplex
    real = lp_module.solve_lp
    solves = []

    def counting(problem):
        result = real(problem)
        solves.append((problem, result))
        return result

    monkeypatch.setattr(lp_module, "solve_lp", counting)
    walk = []
    for rep in np.unique(npn_canonical_array(4)).tolist():
        approximate_degree(TruthTable(4, rep), walk=walk)
    assert (len(walk), sum(exact for _, _, exact in walk)) == (437, 406)
    assert len(solves) == 31
    assert sum(r.iterations for _, r in solves) == 73
    for p, r in solves:
        assert r.status == "optimal"
        assert verify_point(p, r.point, LP_CHECK_TOL)


def test_or_8_at_degree_2_is_refuted_by_the_simplex():
    # among the README's arity-8 examples, the one infeasible LP whose
    # least-squares residual is no Farkas vector: the simplex decides it
    # from the same start
    p = approximation_problem(named_family("OR", 8), 2, 1 / 3)
    r = solve_lp(p)
    assert (r.status, r.iterations) == ("infeasible", 64)
    assert verify_infeasibility_certificate(p, r.certificate, LP_CHECK_TOL)


@pytest.mark.parametrize(
    "f, pivots",
    [
        (named_family("OR", 8), [0, 0, 0, 1, 101, 64]),
        (named_family("EXACT1", 8), [0, 0, 323, 0]),
        (TruthTable(8, random.Random(800).getrandbits(256)), [0, 0, 195, 0]),
    ],
    ids=["OR_8", "EXACT1_8", "random_8"],
)
def test_lps_that_reach_the_simplex_take_the_pivots_they_took_before(f, pivots):
    # the simplex starts at the same least-squares point as before the
    # start decided LPs on its own; the infeasible LPs of EXACT1_8 and of
    # the random table took 281 and 274 pivots there
    walk = []
    approximate_degree(f, walk=walk)
    assert [p for _, p, _ in walk] == pivots


def test_infeasible_ranged_system_has_certificate():
    # x + y in [0, 1], x - y in [3, 4], y in [0, 2] and x in [-9, 2]: x - y <= 2
    p = lp([([1, 1], 0, 1), ([1, -1], 3, 4), ([0, 1], 0, 2), ([1, 0], -9, 2)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate)


def test_inverted_row_range_is_refused():
    # lo > hi leaves a row no side for a signed weight to pick
    with pytest.raises(ValueError, match=r"^row 1 has lo > hi$"):
        lp([([1, 0], 0, 5), ([1, 1], 2, 1)])


def test_ranged_free_lps_agree_with_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    statuses = []
    for trial in range(60):
        n, m = int(rng.integers(2, 6)), int(rng.integers(3, 9))
        a = rng.normal(size=(m, n)).round(2)
        lo = rng.normal(size=m).round(2)
        hi = (lo + rng.uniform(-0.2, 1.5, size=m)).round(2)
        # x0 in [-5, 5] as one more row
        a = np.vstack([a, np.eye(n)[0]])
        lo, hi = np.append(lo, -5.0), np.append(hi, 5.0)
        if np.any(lo > hi):
            with pytest.raises(ValueError, match="has lo > hi"):
                LpProblem(a, lo, hi)
            statuses.append("refused")
            continue
        p = LpProblem(a, lo, hi)
        r = solve_lp(p)
        ref = scipy.linprog(
            np.zeros(n),
            A_ub=np.vstack([a, -a]),
            b_ub=np.concatenate([hi, -lo]),
            bounds=[(None, None)] * n,
            method="highs",
        )
        expected = {0: "optimal", 2: "infeasible"}[ref.status]
        assert r.status == expected, f"trial {trial}"
        statuses.append(r.status)
        if r.status == "optimal":
            assert verify_point(p, r.point), f"trial {trial}"
        else:
            assert verify_infeasibility_certificate(p, r.certificate), f"trial {trial}"
            assert canonical_farkas(p, r.certificate), f"trial {trial}"
    counts = {s: statuses.count(s) for s in set(statuses)}
    assert counts == {"refused": 29, "infeasible": 23, "optimal": 8}


def test_problem_with_no_variables_gets_a_verified_verdict():
    # 0 in [1, 2] over no variables: the row's lower side reads 1 <= 0
    p = lp([((), 1, 2)])
    r = solve_lp(p)
    assert r.status == "infeasible"
    assert verify_infeasibility_certificate(p, r.certificate) is True
    assert verify_point(lp([((), -1, 1)]), np.zeros(0))


def test_signed_check_agrees_with_the_canonical_form_on_arity_4_lps():
    # every certificate, and every LP's start residual, feasible LPs'
    # included, gets one verdict from both checks; the LPs are those of
    # approximate_degree's walks, from deg - 1 down to adeg - 1
    problems = []
    for rep in np.unique(npn_canonical_array(4)).tolist():
        f = TruthTable(4, rep)
        for d in range(degree(f) - 1, max(approximate_degree(f) - 2, -1), -1):
            problems.append(approximation_problem(f, d, 1 / 3))
    verdicts = []
    for p in problems:
        r = solve_lp(p)
        if r.status == "infeasible":
            assert canonical_farkas(p, r.certificate)
            assert verify_infeasibility_certificate(p, r.certificate)
        mid = (p.lo + p.hi) / 2
        residual = mid - p.a @ np.linalg.lstsq(p.a, mid, rcond=None)[0]
        verdict = canonical_farkas(p, -residual)
        assert verify_infeasibility_certificate(p, -residual) == verdict
        verdicts.append(verdict)
    assert len(verdicts) == 437 and sum(verdicts) == 221


@pytest.mark.parametrize(
    "f",
    [
        named_family("OR", 4),
        named_family("PARITY", 4),
        named_family("AND-OR", (2, 2)),
        named_family("EXACT1", 6),
        TruthTable(6, random.Random(6).getrandbits(64)),
    ],
    ids=["OR_4", "PARITY_4", "AND-OR_2_2", "EXACT1_6", "random_6"],
)
def test_adeg_certificate_is_a_dual_polynomial(f):
    # one value per input, orthogonal to every monomial of degree
    # < adeg, with a negative signed bound
    d = approximate_degree(f)
    p = approximation_problem(f, d - 1, 1 / 3)
    r = solve_lp(p)
    assert r.status == "infeasible"
    u = r.certificate
    assert u.shape == (1 << f.arity,)
    inputs = np.arange(1 << f.arity)
    for mask in range(1 << f.arity):
        if bin(mask).count("1") <= d - 1:
            monomial = ((inputs & mask) == mask).astype(float)
            assert abs(u @ monomial) <= 1e-9, mask
    assert signed_bound(p, u) < 0


def test_verifiers_refuse_malformed_input():
    p = lp([([1], 1, 2), ([1], -1, 0)])
    u = solve_lp(p).certificate
    assert verify_infeasibility_certificate(p, u)
    two_sided = np.maximum(np.stack([-u, u], axis=1).reshape(-1), 0.0)
    assert not verify_infeasibility_certificate(p, two_sided)
    for bad in (np.nan, np.inf, -np.inf):
        assert not verify_infeasibility_certificate(p, np.array([bad, -1.0]))
    assert not verify_infeasibility_certificate(p, np.zeros(2))
    assert not verify_infeasibility_certificate(p, None)
    q = lp([([1], 0, 1)])
    assert verify_point(q, np.array([0.5]))
    assert not verify_point(q, np.array([np.nan]))
    assert not verify_point(q, np.array([0.5, 0.5]))


def test_problem_refuses_an_array_that_is_not_2_d():
    with pytest.raises(ValueError, match=r"^a must be 2-D, got shape \(2,\)$"):
        LpProblem(np.ones(2), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("name", ["lo", "hi"])
def test_problem_refuses_a_range_of_the_wrong_shape(name):
    ranges = {"lo": np.zeros(2), "hi": np.ones(2)}
    ranges[name] = ranges[name][:1]
    with pytest.raises(ValueError, match=rf"^{name} must have shape \(2,\)$"):
        LpProblem(np.eye(2), ranges["lo"], ranges["hi"])


@pytest.mark.parametrize("name", ["a", "lo", "hi"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_problem_refuses_a_non_finite_entry(name, bad):
    data = {"a": np.eye(2), "lo": np.zeros(2), "hi": np.ones(2)}
    data[name] = data[name].copy()
    data[name].flat[1] = bad
    with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry$"):
        LpProblem(**data)
