"""A small dense feasibility solver with verifiable outcomes.

A problem is m ranged rows ``lo <= a x <= hi`` over free variables x,
with finite ranges and no objective: the solver only decides whether a
point exists.

The solver is a one-phase bounded-variable simplex on a dense
tableau, sized for this package's problems (hundreds of rows).  Row i
gets a logical variable s_i = a_i.x whose bounds are the row's range,
so a ranged row is one tableau row; the structural variables are free
and never split.  The start is the all-logical basis, so there are no
artificials, with x at x_ls, the least-squares fit of the row
midpoints ``(lo + hi) / 2``: a free nonbasic variable may sit at any
value, and an x_ls that meets every row within FEAS_TOL is the point,
with no pivot.  The simplex minimises the sum of the basic variables'
infeasibilities.  It prices by Dantzig's largest reduced cost with a
vectorised Harris ratio test, and after ``STALL_PIVOTS`` pivots in a
row that leave the infeasibility unchanged it switches to Bland's rule
(smallest eligible column, ties broken by smallest basic index), which
cannot cycle, until the infeasibility moves again.  Every simplex
verdict is taken on a basis refactorised from the original data (the
starting tableau is ``a`` itself, exact for it).

Every outcome can be re-checked from the original data:

* ``optimal`` (a feasible point was found) carries the point,
* ``infeasible`` carries a Farkas vector u, one signed weight per row:
  ``u_i > 0`` weights row i's upper side ``a_i x <= hi_i`` and
  ``u_i < 0`` its lower side, so ``u a = 0`` and
  ``sum_{u>0} u hi + sum_{u<0} u lo < 0``.  It comes from the simplex
  multipliers; for the approximation LP it is a dual polynomial, one
  value per input.

A row with ``lo > hi`` has no signed weight, so a problem refuses it,
as it refuses non-finite data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
VERIFY_TOL = 1e-7
STALL_PIVOTS = 50  # non-improving pivots in a row before Bland's rule
MAX_PIVOTS = 50000


class LpNumericalError(RuntimeError):
    """Raised when the simplex hits its pivot cap or a pivot degenerates."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Find x with ``lo <= a x <= hi``: ``a`` is m x n, ``lo`` and ``hi``
    hold the m rows' ranges, and every variable is free.  ValueError on
    a misshapen array, a non-finite entry, or a row with ``lo > hi``."""

    a: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if np.ndim(self.a) != 2:
            raise ValueError(f"a must be 2-D, got shape {np.shape(self.a)}")
        for name in ("lo", "hi"):
            if np.shape(getattr(self, name)) != np.shape(self.a)[:1]:
                raise ValueError(f"{name} must have shape {np.shape(self.a)[:1]}")
        for name in ("a", "lo", "hi"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a non-finite entry")
        if (self.lo > self.hi).any():
            raise ValueError(f"row {np.argmax(self.lo > self.hi)} has lo > hi")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" (feasible) | "infeasible"
    point: np.ndarray | None
    certificate: np.ndarray | None
    iterations: int


def _infeasibility(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """+1 above the upper bound, -1 below the lower one, else 0."""
    return (x > ub + FEAS_TOL).astype(float) - (x < lb - FEAS_TOL)


def _farkas(u: np.ndarray) -> np.ndarray:
    """A combination u of the logical variables s = A x that vanishes on
    x, as signed row weights: entries below 1e-14 zeroed, max |u| = 1."""
    u = np.where(np.abs(u) < 1e-14, 0.0, u)
    scale = np.abs(u).max(initial=0.0)
    return u / scale if scale > 0 else u


class _Simplex:
    """Compact tableau x_B = T x_N over the variables z = (x, s) with
    [A, -I] z = 0; ``basis`` labels rows, ``nonbasic`` labels columns."""

    def __init__(self, problem: LpProblem, start: np.ndarray):
        m, nv = problem.a.shape
        self.full = np.hstack([problem.a, -np.eye(m)])
        free = np.full(nv, np.inf)
        self.lo = np.concatenate([-free, problem.lo])
        self.hi = np.concatenate([free, problem.hi])
        self.basis = np.arange(nv, nv + m)
        self.nonbasic = np.arange(nv)
        self.tab = problem.a.copy()
        self.x_n = start
        self.iterations = 0
        self.fresh = True  # tableau refactorised since the last pivot

    def refactor(self) -> None:
        b = self.full[:, self.basis]
        self.tab = -np.linalg.solve(b, self.full[:, self.nonbasic])
        self.fresh = True

    def _pivot(self, r: int, q: int) -> None:
        tab = self.tab
        p = tab[r, q]
        if abs(p) <= PIVOT_TOL:
            raise LpNumericalError("degenerate pivot element")
        col = tab[:, q] / p
        row = tab[r].copy()
        tab -= np.outer(col, row)
        tab[:, q] = col
        tab[r] = -row / p
        tab[r, q] = 1.0 / p
        self.basis[r], self.nonbasic[q] = self.nonbasic[q], self.basis[r]
        self.fresh = False

    def run(self) -> bool:
        """Pivot until every basic variable is within its bounds (True)
        or no column can reduce the infeasibility (False)."""
        stall = 0
        while True:
            tab, x_n = self.tab, self.x_n
            x_b = tab @ x_n
            lb, ub = self.lo[self.basis], self.hi[self.basis]
            sign = _infeasibility(x_b, lb, ub)
            if not sign.any():
                if self.fresh:
                    return True
                self.refactor()
                continue
            d = -(sign @ tab)  # rate of -infeasibility per unit of x_N
            var_lo, var_hi = self.lo[self.nonbasic], self.hi[self.nonbasic]
            up = (d > FEAS_TOL) & (x_n < var_hi)
            eligible = up | ((d < -FEAS_TOL) & (x_n > var_lo))
            if not eligible.any():
                if self.fresh:
                    return False
                self.refactor()
                continue
            # an infeasible basic variable blocks where it turns
            # feasible, and never when it moves away
            rise_to = np.where(sign < 0, lb, np.where(sign > 0, np.inf, ub))
            fall_to = np.where(sign > 0, ub, np.where(sign < 0, -np.inf, lb))
            bland = stall >= STALL_PIVOTS
            if bland:
                q = int(np.flatnonzero(eligible)[np.argmin(self.nonbasic[eligible])])
            else:
                q = int(np.argmax(np.where(eligible, np.abs(d), 0.0)))
            alpha = tab[:, q] if up[q] else -tab[:, q]
            r, step, target = self._ratio(x_b, alpha, np.where(alpha > 0, rise_to, fall_to), bland)
            span = var_hi[q] - var_lo[q]
            if span <= step:
                r, step = None, span
            if step == np.inf:
                raise LpNumericalError("no basic variable blocks the entering column")
            self.iterations += 1
            if self.iterations > MAX_PIVOTS:
                raise LpNumericalError(f"iteration cap {MAX_PIVOTS} exceeded")
            stall = 0 if step * abs(d[q]) > FEAS_TOL else stall + 1
            if r is None:
                x_n[q] = var_hi[q] if up[q] else var_lo[q]
            else:
                self._pivot(r, q)
                x_n[q] = target

    def _ratio(self, x_b, alpha, target, bland):
        """Ratio test for x_B + t * alpha, t >= 0, each basic variable
        blocking at its ``target``: Harris's two passes (the largest
        pivot within the step allowed by bounds relaxed by FEAS_TOL), or
        under Bland the least basic index among the exact minima.
        Returns (row, step, bound), or (None, inf, None) if none blocks.
        """
        pivotable = np.abs(alpha) > PIVOT_TOL
        gap = target - x_b
        exact = np.where(pivotable, np.maximum(gap / alpha, 0.0), np.inf)
        relaxed = np.where(
            pivotable, np.maximum((gap + np.copysign(FEAS_TOL, alpha)) / alpha, 0.0), np.inf
        )
        theta = relaxed.min() if relaxed.size else np.inf
        if theta == np.inf:
            return None, np.inf, None
        if bland:
            ties = np.flatnonzero(exact <= exact.min() + 1e-12)
            r = int(ties[np.argmin(self.basis[ties])])
        else:
            r = int(np.argmax(np.where(exact <= theta, np.abs(alpha), 0.0)))
        return r, float(exact[r]), float(target[r])

    def point(self) -> np.ndarray:
        z = np.empty(self.full.shape[1])
        z[self.nonbasic] = self.x_n
        z[self.basis] = self.tab @ self.x_n
        return z[: self.nonbasic.size]

    def certificate(self) -> np.ndarray:
        """Farkas vector from the multipliers y = c_B B^-1, where c_B is
        the infeasibility sign of each basic variable: y [A, -I] is about
        (0, -y), a combination of the logical variables alone."""
        lb, ub = self.lo[self.basis], self.hi[self.basis]
        sign = _infeasibility(self.tab @ self.x_n, lb, ub)
        y = np.linalg.solve(self.full[:, self.basis].T, sign)
        return _farkas(-y)


def solve_lp(problem: LpProblem) -> LpResult:
    """Decide the problem by the simplex from the least-squares start;
    see the module docstring."""
    mid = (problem.lo + problem.hi) / 2
    sx = _Simplex(problem, np.linalg.lstsq(problem.a, mid, rcond=None)[0])
    # the ratio test divides by every entry of the pivot column, zeros too
    with np.errstate(divide="ignore", invalid="ignore"):
        if not sx.run():
            return LpResult("infeasible", None, sx.certificate(), sx.iterations)
    return LpResult("optimal", sx.point(), None, sx.iterations)


def verify_point(problem: LpProblem, point: np.ndarray, tol: float = VERIFY_TOL) -> bool:
    """Check a claimed-feasible point against both sides of every row."""
    point = np.asarray(point, dtype=float)
    if point.shape != (problem.a.shape[1],) or not np.isfinite(point).all():
        return False
    lhs, lo, hi = problem.a @ point, problem.lo, problem.hi
    meets_lo = lo - lhs <= tol * np.maximum(1.0, np.abs(lo))
    meets_hi = lhs - hi <= tol * np.maximum(1.0, np.abs(hi))
    return bool(np.all(meets_lo & meets_hi))


def verify_infeasibility_certificate(
    problem: LpProblem, u: np.ndarray, tol: float = VERIFY_TOL
) -> bool:
    """Check a Farkas vector of one signed weight per row: u a ~ 0 and
    its signed bound strictly negative."""
    if np.shape(u) != problem.lo.shape:
        return False
    u = np.asarray(u, dtype=float)
    scale = np.abs(u).max(initial=0.0)
    if not (np.isfinite(u).all() and scale > 0):
        return False
    u = u / scale
    # with no variables the rows are empty and only the bound is left to check
    data_scale = max(1.0, float(np.abs(problem.a).max(initial=0.0)))
    if np.abs(u @ problem.a).max(initial=0.0) > tol * data_scale:
        return False
    lo, hi = problem.lo, problem.hi
    return bool(u @ np.where(u > 0, hi, lo) < -tol * max(1.0, np.abs(lo).max(), np.abs(hi).max()))
