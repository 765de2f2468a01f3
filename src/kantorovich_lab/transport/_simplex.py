"""Dense-tableau primal simplex for small maximization LPs.

Solves ``max c.x  s.t.  A x <= b, x >= 0`` with ``b >= 0`` (slack basis is
feasible, so no phase 1).  Bland's rule guarantees finite termination on
degenerate instances.  No route of the package solves through it any more:
every optimum comes from the transportation simplex.  It stays only while the
benchmark's tracer (``perfbench/tracer.py``) still binds ``simplex_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9


def kernel_backend() -> str:
    """Name of the pivot kernel in use; the numpy loop is the only one."""
    return "python"


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    value: float
    iterations: int


def _pivot_loop(T: np.ndarray, basis: np.ndarray, n_total: int, tol: float, max_iter: int):
    """Run Bland-rule pivots in place on a dense tableau.

    ``T`` has one row per constraint plus a final reduced-cost row and one
    trailing RHS column; ``basis[i]`` is the variable occupying row ``i``.
    Returns the iteration count; raises if the LP is unbounded or the limit
    is reached.
    """
    m = T.shape[0] - 1
    rhs = n_total
    obj = T[m]
    for it in range(max_iter):
        # Bland: entering variable = smallest index with positive reduced cost
        enter = -1
        for j in range(n_total):
            if obj[j] > tol:
                enter = j
                break
        if enter < 0:
            return it

        col = T[:m, enter]
        leave = -1
        best_ratio = np.inf
        best_var = n_total + 1
        for i in range(m):
            a = col[i]
            if a > tol:
                ratio = T[i, rhs] / a
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < best_var):
                    best_ratio = ratio
                    best_var = basis[i]
                    leave = i
        if leave < 0:
            raise RuntimeError("internal error: LP unbounded")

        piv = T[leave, enter]
        T[leave, :] /= piv
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= factors[:, None] * T[leave, :][None, :]
        T[:, enter] = 0.0
        T[leave, enter] = 1.0
        basis[leave] = enter
    raise RuntimeError(f"internal error: simplex did not terminate in {max_iter} pivots")


def simplex_max(A, b, c, tol: float = PIVOT_TOL, max_iter: int = 200_000) -> SimplexResult:
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < -1e-9):
        raise ValueError("RHS must be nonnegative for the slack starting basis")
    # sub-tolerance dust from validated triangle inequalities
    b = np.maximum(b, 0.0)

    n_total = n + m
    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n] = A
    T[:m, n:n_total] = np.eye(m)
    T[:m, n_total] = b
    T[m, :n] = c
    basis = np.arange(n, n_total, dtype=np.int64)

    iters = _pivot_loop(T, basis, n_total, tol, max_iter)
    x = np.zeros(n_total)
    x[basis] = T[:m, n_total]
    return SimplexResult(x=x[:n], value=-T[m, n_total], iterations=iters)
