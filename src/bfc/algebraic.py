"""Polynomial-degree measures: exact, over GF(2), and approximate.

The exact degree comes from the integer Mobius transform over the
subset lattice (the unique multilinear expansion on {0,1}^n), the GF(2)
degree from the same transform with XOR in place of subtraction, and
the approximate degree from a downward sequence of feasibility linear
programs, topped by the exact expansion, whose verdicts are re-checked
against their certificates.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from . import bits, lp
from .tables import TruthTable

DEGREE_MAX_ARITY = 20
APPROX_DEGREE_MAX_ARITY = 8
DEFAULT_EPSILON = 1.0 / 3.0
LP_CHECK_TOL = 1e-7
# (degree, pivots) of each LP that approximate_degree solves, appended
# while a ``lp_solve_log`` block is open in this context
_LP_LOG: contextvars.ContextVar[list | None] = contextvars.ContextVar("lp_log", default=None)


@dataclass(frozen=True)
class MultilinearExpansion:
    """Integer coefficients of the multilinear polynomial agreeing with f."""

    arity: int
    coefficients: tuple[tuple[int, int], ...]  # (monomial mask, coefficient)

    def evaluate(self, x: int) -> int:
        return sum(c for m, c in self.coefficients if m & x == m)


def mobius_coefficients(f: TruthTable) -> np.ndarray:
    """All 2^n multilinear coefficients as exact int64 values."""
    if f.arity > DEGREE_MAX_ARITY:
        raise ValueError(f"degree supports arity <= {DEGREE_MAX_ARITY}")
    a = f.to_bit_array().astype(np.int64)
    for i in range(f.arity):
        a = a.reshape(-1, 2, 1 << i)
        a[:, 1, :] -= a[:, 0, :]
        a = a.reshape(-1)
    return a


def multilinear_expansion(f: TruthTable) -> MultilinearExpansion:
    coeffs = mobius_coefficients(f)
    nz = [(int(m), int(c)) for m, c in enumerate(coeffs) if c != 0]
    return MultilinearExpansion(f.arity, tuple(nz))


def _top_popcount(coeffs: np.ndarray) -> int:
    """Largest popcount among the indices of nonzero coefficients (0 if none)."""
    nz = np.flatnonzero(coeffs)
    return int(bits.popcount_array(nz).max()) if nz.size else 0


def degree(f: TruthTable) -> int:
    """deg(f): top monomial size of the exact multilinear expansion."""
    return _top_popcount(mobius_coefficients(f))


def degree_gf2(f: TruthTable) -> int:
    """deg2(f): degree of the polynomial over GF(2)."""
    return _top_popcount(gf2_coefficients(f))


def gf2_coefficients(f: TruthTable) -> np.ndarray:
    """GF(2) monomial indicator vector (uint8 of length 2^n): the integer
    Mobius coefficients reduced mod 2."""
    return (mobius_coefficients(f) & 1).astype(np.uint8)


def _monomial_masks(n: int, max_degree: int) -> np.ndarray:
    """Monomials of degree <= max_degree, by degree and then by mask, so
    the monomials of any lower degree are a prefix."""
    masks = np.arange(1 << n)
    weights = bits.popcount_array(masks)
    order = np.lexsort((masks, weights))
    return masks[order][weights[order] <= max_degree]


def _lattice(n: int, masks: np.ndarray) -> np.ndarray:
    """The subset-lattice matrix: entry (x, j) is 1.0 when monomial
    ``masks[j]`` lies inside input x, i.e. is 1 at x."""
    inputs = np.arange(1 << n)[:, None]
    return ((inputs & masks) == masks).astype(float)


def _ranged_problem(columns: np.ndarray, values: np.ndarray, epsilon: float) -> lp.LpProblem:
    """One ranged row per input: [0, eps] where f is 0, [1-eps, 1] where
    f is 1, over the given lattice columns."""
    lo = np.where(values, 1.0 - epsilon, 0.0)
    hi = np.where(values, 1.0, epsilon)
    return lp.LpProblem(columns, lo, hi)


def approximation_problem(f: TruthTable, degree_cap: int, epsilon: float) -> lp.LpProblem:
    """Feasibility LP: is there a degree <= degree_cap polynomial q with
    q(x) in [0, eps] on f^-1(0) and in [1-eps, 1] on f^-1(1)?

    Each input is one ranged row. Over 0/1 inputs a monomial is 1
    exactly when its support lies inside the input, so the constraint
    matrix is the subset-lattice indicator.
    """
    lattice = _lattice(f.arity, _monomial_masks(f.arity, degree_cap))
    return _ranged_problem(lattice, f.to_bit_array().astype(bool), epsilon)


@contextlib.contextmanager
def lp_solve_log():
    """Yield a list that collects ``(degree, pivots)`` for every LP that
    ``approximate_degree`` solves inside the block, in solve order."""
    log: list[tuple[int, int]] = []
    token = _LP_LOG.set(log)
    try:
        yield log
    finally:
        _LP_LOG.reset(token)


def approximate_degree(f: TruthTable, epsilon: float = DEFAULT_EPSILON) -> int:
    """adeg(f): least degree admitting an epsilon-approximation.

    The exact multilinear expansion is an error-free approximation at
    deg(f), so the search starts there with that integer point and
    walks down, solving one LP per degree, to the first infeasible
    degree d; the answer is d + 1 (0 if every degree is feasible).
    Every verdict is validated before it is trusted: each feasible
    degree by its point re-checked within 1e-7, the infeasible one by
    its Farkas certificate, a dual polynomial: one signed value per
    input, orthogonal to every monomial of degree <= d.  Infeasibility
    at d implies it at every lower degree, so the answer carries both
    proofs.  Each degree's LP is a column prefix of one subset-lattice
    matrix.

    ``lp.solve_lp`` decides most of these LPs at its least-squares
    start, with no pivot: a feasible degree when the fit of the row
    midpoints is already an approximation, the infeasible degree when
    the fit's residual, the midpoints' component above degree d, is a
    Farkas vector.  The rest are decided by the simplex on a basis
    refactorised from the lattice.  The re-checks are the same for both.
    """
    if f.arity > APPROX_DEGREE_MAX_ARITY:
        raise ValueError(f"approximate degree supports arity <= {APPROX_DEGREE_MAX_ARITY}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    coeffs = mobius_coefficients(f)
    top = _top_popcount(coeffs)
    masks = _monomial_masks(f.arity, top)
    lattice = _lattice(f.arity, masks)
    values = f.to_bit_array().astype(bool)
    widths = np.searchsorted(bits.popcount_array(masks), np.arange(top + 1), side="right")
    problem = _ranged_problem(lattice, values, epsilon)
    if not lp.verify_point(problem, coeffs[masks].astype(float), LP_CHECK_TOL):
        raise lp.LpNumericalError(f"exact expansion at degree {top} failed the point re-check")
    for d in range(top - 1, -1, -1):
        problem = _ranged_problem(lattice[:, : widths[d]], values, epsilon)
        try:
            result = lp.solve_lp(problem)
        except lp.LpNumericalError as exc:
            raise lp.LpNumericalError(f"{exc} at degree {d}") from exc
        log = _LP_LOG.get()
        if log is not None:
            log.append((d, result.iterations))
        if result.status == "optimal":
            if not lp.verify_point(problem, result.point, LP_CHECK_TOL):
                raise lp.LpNumericalError(
                    f"feasible verdict at degree {d} failed the point re-check"
                )
            continue
        if result.status == "infeasible":
            if not lp.verify_infeasibility_certificate(
                problem, result.certificate, LP_CHECK_TOL
            ):
                raise lp.LpNumericalError(
                    f"infeasible verdict at degree {d} failed the certificate re-check"
                )
            return d + 1
        raise lp.LpNumericalError(f"unexpected LP status {result.status!r}")
    return 0
