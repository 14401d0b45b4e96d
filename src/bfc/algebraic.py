"""Polynomial-degree measures: exact, over GF(2), and approximate.

The exact degree comes from the integer Mobius transform over the
subset lattice (the unique multilinear expansion on {0,1}^n), the GF(2)
degree from the same transform with XOR in place of subtraction, and
the approximate degree from a downward walk over feasibility linear
programs, topped by the exact expansion.  Each degree of that walk is
decided in exact integers from f's Walsh spectrum where they settle it,
and by the simplex otherwise; every verdict is re-checked against its
certificate, in integers or within LP_CHECK_TOL.  The walk's record,
each degree with its pivots and whether the integers decided it, goes
to the list the caller hands ``approximate_degree``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import bits, lp
from .tables import TruthTable

APPROX_DEGREE_MAX_ARITY = 8
# exact: a float 1/3 is a little below it, and moves the ties whose
# best error is exactly 1/3
DEFAULT_EPSILON = Fraction(1, 3)
LP_CHECK_TOL = 1e-7


@dataclass(frozen=True)
class MultilinearExpansion:
    """Integer coefficients of the multilinear polynomial agreeing with f."""

    arity: int
    coefficients: tuple[tuple[int, int], ...]  # (monomial mask, coefficient)

    def evaluate(self, x: int) -> int:
        return sum(c for m, c in self.coefficients if m & x == m)


def _mobius(values: np.ndarray) -> np.ndarray:
    """The 2^n multilinear coefficients of each row of a ``(k, 2^n)``
    array of 0/1 values, as exact int64 rows."""
    a = values.astype(np.int64)
    for i in range(a.shape[1].bit_length() - 1):
        a = a.reshape(-1, 2, 1 << i)  # each row holds whole pairs of 2^i blocks
        a[:, 1, :] -= a[:, 0, :]
    return a.reshape(values.shape)


def mobius_coefficients(f: TruthTable) -> np.ndarray:
    """All 2^n multilinear coefficients as exact int64 values."""
    return _mobius(f.to_bit_array()[None])[0]


def multilinear_expansion(f: TruthTable) -> MultilinearExpansion:
    coeffs = mobius_coefficients(f)
    nz = [(int(m), int(c)) for m, c in enumerate(coeffs) if c != 0]
    return MultilinearExpansion(f.arity, tuple(nz))


def _top_popcounts(coeffs: np.ndarray) -> np.ndarray:
    """Per row, the largest popcount among the indices of nonzero coefficients (0 if none)."""
    weights = bits.popcount_array(np.arange(coeffs.shape[1]))
    return np.where(coeffs != 0, weights, 0).max(axis=1)


def degrees(values: np.ndarray) -> np.ndarray:
    """deg of each row of a ``(k, 2^n)`` array of 0/1 values."""
    return _top_popcounts(_mobius(values))


def gf2_degrees(values: np.ndarray) -> np.ndarray:
    """deg2 of each row of a ``(k, 2^n)`` array of 0/1 values."""
    return _top_popcounts(_mobius(values) & 1)


def degree(f: TruthTable) -> int:
    """deg(f): top monomial size of the exact multilinear expansion."""
    return int(degrees(f.to_bit_array()[None])[0])


def degree_gf2(f: TruthTable) -> int:
    """deg2(f): degree of the polynomial over GF(2)."""
    return int(gf2_degrees(f.to_bit_array()[None])[0])


def gf2_coefficients(f: TruthTable) -> np.ndarray:
    """GF(2) monomial indicator vector (uint8 of length 2^n): the integer
    Mobius coefficients reduced mod 2."""
    return (mobius_coefficients(f) & 1).astype(np.uint8)


@dataclass(frozen=True)
class _Monomials:
    """Read-only int64 tables over the 2^n monomials of one arity,
    ordered by degree and then by mask, so the monomials of any degree
    cap are a prefix of the columns."""

    degrees: np.ndarray  # each monomial's popcount
    starts: np.ndarray  # n + 2 entries: where each degree's columns start, then 2^n
    lattice: np.ndarray  # (x, j): 1 when monomial j's variables all lie in input x
    walsh: np.ndarray  # (x, k): the character (-1)^|x & mask k| of monomial k
    # walsh over one more 2^n rows, (j, k): the coefficient of monomial j in
    # character k, (-2)^|j| when j lies inside k; it maps a spectrum to its
    # values on the inputs and to its monomial coefficients at once
    expand: np.ndarray
    prefix: np.ndarray  # (k, d): 1 when monomial k has degree <= d

    def width(self, degree_cap: int) -> int:
        """How many monomials have degree <= degree_cap."""
        return int(self.starts[min(max(degree_cap + 1, 0), self.starts.size - 1)])


@lru_cache(maxsize=None)
def _monomials(n: int) -> _Monomials:
    masks = np.arange(1 << n)
    weights = bits.popcount_array(masks)
    order = np.lexsort((masks, weights))
    masks, degrees = masks[order], weights[order]
    overlap = np.arange(1 << n)[:, None] & masks
    lattice = (overlap == masks).astype(np.int64)
    walsh = 1 - 2 * (bits.popcount_array(overlap) & 1)
    expand = np.vstack([walsh, (-2) ** degrees[:, None] * lattice[masks].T])
    tables = _Monomials(
        degrees=degrees,
        starts=np.searchsorted(degrees, np.arange(n + 2)),
        lattice=lattice,
        walsh=expand[: 1 << n],
        expand=expand,
        prefix=(degrees[:, None] <= np.arange(n + 1)).astype(np.int64),
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _ranged_problem(
    columns: np.ndarray, values: np.ndarray, epsilon: float | Fraction
) -> lp.LpProblem:
    """One ranged row per input: [0, eps] where f is 0, [1-eps, 1] where
    f is 1, over the given lattice columns, in floats."""
    epsilon = float(epsilon)
    lo = np.where(values, 1.0 - epsilon, 0.0)
    hi = np.where(values, 1.0, epsilon)
    return lp.LpProblem(columns.astype(float), lo, hi)


def approximation_problem(
    f: TruthTable, degree_cap: int, epsilon: float | Fraction
) -> lp.LpProblem:
    """Feasibility LP: is there a degree <= degree_cap polynomial q with
    q(x) in [0, eps] on f^-1(0) and in [1-eps, 1] on f^-1(1)?

    Each input is one ranged row. Over 0/1 inputs a monomial is 1
    exactly when its support lies inside the input, so the constraint
    matrix is the subset-lattice indicator.
    """
    tables = _monomials(f.arity)
    columns = tables.lattice[:, : tables.width(degree_cap)]
    return _ranged_problem(columns, f.to_bit_array(), epsilon)


def verify_exact_fit(
    columns: np.ndarray, values: np.ndarray, coefficients: np.ndarray, epsilon: float | Fraction
) -> bool:
    """Exact point check for the approximation LP over the integer
    lattice ``columns`` (the first is the constant monomial) and the 0/1
    ``values`` of f on its 2^n inputs.

    The point is ``x = eps/2 e_0 + (1 - eps) c / 2^n`` for the int64
    monomial coefficients c.  Scaled by ``2q 2^n`` (eps = p/q) the point
    and the rows are integers, and row x reads
    ``lo_x <= p 2^n + 2(q - p) (a c)_x <= hi_x`` with ``lo_x = 2(q - p) 2^n f(x)``
    and ``hi_x = lo_x + 2p 2^n``, that is
    ``|2(q - p) ((a c)_x - 2^n f(x))| <= p 2^n``.  The int64 arrays never
    hold p or q: they meet only in Python integers.
    """
    (p, q), n = epsilon.as_integer_ratio(), values.size.bit_length() - 1
    miss = columns @ coefficients - (values.astype(np.int64, copy=False) << n)
    return 2 * (q - p) * int(np.abs(miss).max(initial=0)) <= p << n


def verify_exact_dual(
    columns: np.ndarray, values: np.ndarray, u: np.ndarray, epsilon: float | Fraction
) -> bool:
    """Exact Farkas check for the approximation LP over the integer
    lattice ``columns``: the int64 dual polynomial u, one signed weight
    per input, must satisfy ``u a = 0`` and, with the rows scaled by q
    (``lo_x = (q - p) f(x)``, ``hi_x = lo_x + p``),
    ``sum_{u>0} u hi + sum_{u<0} u lo = (q - p) u.f + p sum_{u>0} u < 0``."""
    if (u @ columns).any():
        return False
    p, q = epsilon.as_integer_ratio()
    return (q - p) * int(u @ values) + p * int(u[u > 0].sum()) < 0


def approximate_degree(
    f: TruthTable, epsilon: float | Fraction = DEFAULT_EPSILON, walk: list | None = None
) -> int:
    """adeg(f): least degree admitting an epsilon-approximation.

    The search starts at deg(f), where f itself is exact, and walks
    down to the first infeasible degree d; the answer is d + 1 (0 if
    every degree is feasible).  Infeasibility at d implies it at every
    lower degree.  epsilon is read exactly, as ``Fraction(epsilon)``
    (p/q): a float is its binary value.

    Each degree is first decided in integers.  The LP's row midpoints
    are ``eps/2 + (1 - eps) f``, so their least-squares fit over degree
    <= d is ``eps/2 + (1 - eps) f_{<=d}`` and its residual is
    ``(1 - eps) f_{>d}``: with ``T_d = 2^n f_{>d}``, an integer vector
    read off f's Walsh spectrum, the degree is
    * feasible when ``2(q - p) max|T_d| <= p 2^n`` (the fit meets every row),
    * infeasible when ``2(q - p) |T_d|_2^2 > p 2^n |T_d|_1`` (``-T_d``,
      orthogonal to every monomial of degree <= d, is a dual polynomial).
    Both verdicts are re-checked exactly on the lattice rows, by
    ``verify_exact_fit`` on the fit's monomial coefficients and
    ``verify_exact_dual`` on ``-T_d``.  A degree neither settles goes to
    ``lp.solve_lp`` on the float LP, whose point or Farkas vector is
    re-checked within LP_CHECK_TOL.

    A list passed as ``walk`` gets one ``(degree, pivots, exact)`` triple
    per degree decided below deg(f), in walk order: ``exact`` when the
    integers decided it, with 0 pivots.  It changes no verdict.
    """
    walk = [] if walk is None else walk
    if f.arity > APPROX_DEGREE_MAX_ARITY:
        raise ValueError(f"approximate degree supports arity <= {APPROX_DEGREE_MAX_ARITY}")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    eps = Fraction(epsilon)
    p, q, n = eps.numerator, eps.denominator, f.arity
    tables = _monomials(n)
    values = f.to_bit_array().astype(np.int64)
    spectrum = values @ tables.walsh  # 2^n times f's Fourier coefficients
    top = int(tables.degrees[np.flatnonzero(spectrum)].max(initial=0))
    # column d: 2^n f_{<=d}, the spectrum cut at degree d, as its values
    # on every input and as its monomial coefficients
    expanded = tables.expand @ (spectrum[:, None] * tables.prefix)
    low, fits = expanded[: 1 << n], expanded[1 << n :]
    tails = (values << n)[:, None] - low
    sizes = np.abs(tails)
    peak, l1 = sizes.max(axis=0).tolist(), sizes.sum(axis=0).tolist()
    l2 = (tails * tails).sum(axis=0).tolist()
    width = tables.width(top)
    if not verify_exact_fit(tables.lattice[:, :width], values, fits[:width, top], eps):
        raise ArithmeticError(f"the fit at degree {top} failed the exact point check")
    for d in range(top - 1, -1, -1):
        width = tables.width(d)
        columns = tables.lattice[:, :width]
        if 2 * (q - p) * peak[d] <= p << n:
            if not verify_exact_fit(columns, values, fits[:width, d], eps):
                raise ArithmeticError(f"feasible degree {d} failed the exact point check")
            walk.append((d, 0, True))
            continue
        if 2 * (q - p) * l2[d] > (p << n) * l1[d]:
            if not verify_exact_dual(columns, values, -tails[:, d], eps):
                raise ArithmeticError(f"infeasible degree {d} failed the exact Farkas check")
            walk.append((d, 0, True))
            return d + 1
        problem = _ranged_problem(columns, values, eps)
        try:
            result = lp.solve_lp(problem)
        except lp.LpNumericalError as exc:
            raise lp.LpNumericalError(f"{exc} at degree {d}") from exc
        walk.append((d, result.iterations, False))
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
