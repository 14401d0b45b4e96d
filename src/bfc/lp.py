"""A small dense linear-programming solver with verifiable outcomes.

Problems are stated as: maximize c.x subject to rows (a, rel, rhs) with
rel in {"<=", ">=", "=", "range"} and optional per-variable bounds.  A
"range" row takes rhs = (lo, hi) and means lo <= a.x <= hi; "=" means
lo == hi.  Variables are otherwise free.

The solver is a bounded-variable simplex on a dense tableau, sized for
this package's problems (hundreds of rows).  Row i gets a logical
variable s_i = a_i.x whose bounds are the row's range, so a two-sided
row is one tableau row, and every variable, structural or logical,
carries its own [lo, hi]; free columns are never split.  The start is
the all-logical basis, so there are no artificials.  Phase 1 minimises
the sum of the basic variables' infeasibilities; phase 2, run only for a
nonzero objective, maximises c.x.  Both price by Dantzig's largest
reduced cost with a vectorised Harris ratio test, and after a run of
pivots that leave the objective unchanged they switch to Bland's rule
(smallest eligible column, ties broken by smallest basic index), which
cannot cycle, until the objective moves again.  Each phase ends on a
basis refactorised from the original data.

Every outcome can be re-checked from the original data:

* ``optimal`` carries the primal point,
* ``infeasible`` carries a Farkas vector y >= 0 with yA = 0 and yb < 0
  over the canonical ``Ax <= b`` form, built from the phase-1
  multipliers,
* ``unbounded`` carries nothing (the statuses are mutually exclusive).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
VERIFY_TOL = 1e-7
STALL_PIVOTS = 50  # non-improving pivots in a row before Bland's rule

RELATIONS = ("<=", ">=", "=", "range")

# Canonical rows each relation expands to, in order: +1 is the upper
# side (a.x <= hi), -1 the lower side (-a.x <= -lo).
_SIDES = {"<=": (1,), ">=": (-1,), "=": (1, -1), "range": (-1, 1)}


class LpNumericalError(RuntimeError):
    """Raised when the simplex hits its iteration cap or a pivot degenerates."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize ``objective @ x`` over the variables z = (x, s = a x),
    each within its own [lo, hi].

    ``a`` is m x n, and ``lo`` / ``hi`` hold the n structural and then
    the m logical variables' bounds (infinite where absent).  ``sides``
    lists the canonical rows as (variable, side) pairs, side +1 the
    upper bound and -1 the lower one, in ``canonical_rows`` order.  The
    solver and both verifiers read these arrays, and the canonical rows
    are expanded at most once per problem.
    """

    objective: np.ndarray
    a: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sides: np.ndarray  # (k, 2) int

    @staticmethod
    def of(
        objective: Sequence[float],
        constraints: Sequence[tuple[Sequence[float], str, float | tuple[float, float]]],
        bounds: Sequence[tuple[float | None, float | None]] | None = None,
    ) -> "LpProblem":
        """The problem maximize c.x over rows (a, rel, rhs) and optional
        per-variable (lo, hi) bounds, None meaning unbounded."""
        obj = np.array(objective, dtype=float).reshape(-1)
        nv, m = obj.size, len(constraints)
        a = np.zeros((m, nv))
        lo = np.full(nv + m, -np.inf)
        hi = np.full(nv + m, np.inf)
        sides = []
        for i, (coeffs, rel, rhs) in enumerate(constraints):
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            if len(coeffs) != nv:
                raise ValueError("constraint length does not match objective length")
            a[i] = coeffs
            k = nv + i
            if rel == "range":
                lo[k], hi[k] = rhs
            else:
                if rel in ("<=", "="):
                    hi[k] = rhs
                if rel in (">=", "="):
                    lo[k] = rhs
            sides.extend((k, side) for side in _SIDES[rel])
        if bounds is not None:
            if len(bounds) != nv:
                raise ValueError("bounds length does not match objective length")
            for j, (b_lo, b_hi) in enumerate(bounds):
                if b_lo is not None:
                    lo[j] = b_lo
                    sides.append((j, -1))
                if b_hi is not None:
                    hi[j] = b_hi
                    sides.append((j, 1))
        return LpProblem(obj, a, lo, hi, np.array(sides, dtype=np.int64).reshape(-1, 2))

    @staticmethod
    def ranged(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> "LpProblem":
        """The feasibility problem lo <= a x <= hi, one ranged row per
        row of ``a``, over free variables."""
        m, nv = a.shape
        free = np.full(nv, np.inf)
        rows = np.repeat(np.arange(nv, nv + m), 2)
        sides = np.stack([rows, np.tile(_SIDES["range"], m)], axis=1)
        return LpProblem(
            np.zeros(nv),
            a,
            np.concatenate([-free, lo]),
            np.concatenate([free, hi]),
            sides,
        )

    @cached_property
    def canonical(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraints and bounds expanded into A x <= b."""
        nv = self.a.shape[1]
        if not len(self.sides):
            return np.zeros((0, nv)), np.zeros(0)
        k, side = self.sides[:, 0], self.sides[:, 1].astype(float)
        grad = np.vstack([np.eye(nv), self.a])  # row k: gradient of variable k in x
        rhs = np.where(side > 0, self.hi[k], self.lo[k])
        return side[:, None] * grad[k], side * rhs


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    point: np.ndarray | None
    certificate: np.ndarray | None
    iterations: int


def canonical_rows(problem: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Expand constraints and bounds into the canonical form A x <= b."""
    return problem.canonical


def _farkas(problem: LpProblem, v: np.ndarray) -> np.ndarray:
    """Canonical-row weights for a combination v of the variables that
    vanishes on {A x = s}: each variable's weight goes on its upper side
    where positive and on its lower side where negative."""
    k, side = problem.sides[:, 0], problem.sides[:, 1]
    y = np.maximum(side * v[k], 0.0)
    y = np.where(np.abs(y) < 1e-14, 0.0, y)
    scale = np.abs(y).max(initial=0.0)
    return y / scale if scale > 0 else y


class _Simplex:
    """Compact tableau x_B = T x_N over the variables z = (x, s) with
    [A, -I] z = 0; ``basis`` labels rows, ``nonbasic`` labels columns."""

    def __init__(self, problem: LpProblem, max_iter: int):
        m, nv = problem.a.shape
        self.problem = problem
        self.full = np.hstack([problem.a, -np.eye(m)])
        self.cost = np.concatenate([problem.objective, np.zeros(m)])
        self.lo, self.hi = problem.lo, problem.hi
        self.basis = np.arange(nv, nv + m)
        self.nonbasic = np.arange(nv)
        self.tab = problem.a.copy()
        lo, hi = self.lo[:nv], self.hi[:nv]
        self.x_n = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        self.max_iter = max_iter
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

    def run(self, phase: int) -> str:
        """Iterate one phase to "done", "unbounded" or (phase 1) "infeasible"."""
        stall = 0
        while True:
            tab, x_n = self.tab, self.x_n
            x_b = tab @ x_n
            lb, ub = self.lo[self.basis], self.hi[self.basis]
            if phase == 1:
                sign = self._infeasibility(x_b, lb, ub)
                if not sign.any():
                    if self.fresh:
                        return "done"
                    self.refactor()
                    continue
                d = -(sign @ tab)  # rate of -infeasibility per unit of x_N
                # an infeasible basic variable blocks where it turns
                # feasible, and never when it moves away
                rise_to = np.where(sign < 0, lb, np.where(sign > 0, np.inf, ub))
                fall_to = np.where(sign > 0, ub, np.where(sign < 0, -np.inf, lb))
            else:
                d = self.cost[self.nonbasic] + self.cost[self.basis] @ tab
                rise_to, fall_to = ub, lb
            var_lo, var_hi = self.lo[self.nonbasic], self.hi[self.nonbasic]
            up = (d > FEAS_TOL) & (x_n < var_hi)
            eligible = up | ((d < -FEAS_TOL) & (x_n > var_lo))
            if not eligible.any():
                if self.fresh:
                    return "infeasible" if phase == 1 else "done"
                self.refactor()
                continue
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
                if phase == 1:
                    raise LpNumericalError("phase-1 objective unbounded (cannot happen)")
                return "unbounded"
            self.iterations += 1
            if self.iterations > self.max_iter:
                raise LpNumericalError(f"iteration cap {self.max_iter} exceeded in phase {phase}")
            stall = 0 if step * abs(d[q]) > FEAS_TOL else stall + 1
            if r is None:
                x_n[q] = var_hi[q] if up[q] else var_lo[q]
            else:
                self._pivot(r, q)
                x_n[q] = target

    @staticmethod
    def _infeasibility(x_b: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """+1 above the upper bound, -1 below the lower one, else 0."""
        return (x_b > ub + FEAS_TOL).astype(float) - (x_b < lb - FEAS_TOL)

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

    def values(self) -> np.ndarray:
        z = np.empty(self.full.shape[1])
        z[self.nonbasic] = self.x_n
        z[self.basis] = self.tab @ self.x_n
        return z

    def certificate(self) -> np.ndarray:
        """Farkas vector from the phase-1 multipliers y = c_B B^-1, where
        c_B is the infeasibility sign of each basic variable."""
        lb, ub = self.lo[self.basis], self.hi[self.basis]
        sign = self._infeasibility(self.tab @ self.x_n, lb, ub)
        y = np.linalg.solve(self.full[:, self.basis].T, sign)
        return _farkas(self.problem, y @ self.full)


def solve_lp(problem: LpProblem, max_iter: int = 50000) -> LpResult:
    """Bounded-variable two-phase simplex; see the module docstring."""
    nv = problem.a.shape[1]
    c = problem.objective
    inverted = np.flatnonzero(problem.lo > problem.hi)
    if inverted.size:
        # lo > hi on one variable: its two canonical rows sum to 0 <= hi - lo < 0
        y = (problem.sides[:, 0] == inverted[0]).astype(float)
        return LpResult("infeasible", None, None, y, 0)

    sx = _Simplex(problem, max_iter)
    # the ratio test divides by every entry of the pivot column, zeros too
    with np.errstate(divide="ignore", invalid="ignore"):
        if sx.run(1) == "infeasible":
            return LpResult("infeasible", None, None, sx.certificate(), sx.iterations)
        if np.any(c != 0.0) and sx.run(2) == "unbounded":
            return LpResult("unbounded", None, None, None, sx.iterations)
    point = sx.values()[:nv]
    return LpResult("optimal", float(c @ point), point, None, sx.iterations)


def verify_point(problem: LpProblem, point: np.ndarray, tol: float = VERIFY_TOL) -> bool:
    """Check a claimed-feasible point against every canonical row."""
    a_rows, b_vec = problem.canonical
    if a_rows.shape[0] == 0:
        return True
    lhs = a_rows @ point
    slack = lhs - b_vec
    return bool(np.all(slack <= tol * np.maximum(1.0, np.abs(b_vec))))


def verify_infeasibility_certificate(
    problem: LpProblem, y: np.ndarray, tol: float = VERIFY_TOL
) -> bool:
    """Check a Farkas vector: y >= 0, yA ~ 0, and yb strictly negative."""
    a_rows, b_vec = problem.canonical
    if a_rows.shape[0] == 0 or y is None or len(y) != a_rows.shape[0]:
        return False
    y = np.asarray(y, dtype=float)
    scale = np.abs(y).max()
    if scale <= 0:
        return False
    y = y / scale
    if y.min() < -tol:
        return False
    combo = y @ a_rows
    # with no variables the rows are empty and only yb < 0 is left to check
    data_scale = max(1.0, float(np.abs(a_rows).max(initial=0.0)))
    if np.abs(combo).max(initial=0.0) > tol * data_scale:
        return False
    return bool(y @ b_vec < -tol * max(1.0, float(np.abs(b_vec).max())))
