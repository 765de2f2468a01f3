"""Independent reference values from scipy's HiGHS LP solver.

Every seminorm and coupling value the benchmark checks is recomputed here from
the generated inputs, as a plain linear program that shares no code with the
package's own solvers.  HiGHS works with absolute tolerances and fails on
data at mass scale 1e-6 and below, so each problem is solved on data divided
by its largest weight and the optimum is multiplied back.

Each function returns ``[value, atol]``: ``atol`` is ``ZERO_FLOOR`` times the
problem's own scale (largest weight times largest distance), the level of the
solver's round-off, so that an optimum that is exactly zero can be matched.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

#: Round-off floor of a reference, relative to its problem's scale.
ZERO_FLOOR = 1e-12

_HIGHS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> float:
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options=_HIGHS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


def _lipschitz_rows(d: np.ndarray):
    """Rows f_i - f_j <= d_ij for every ordered pair i != j."""
    n = len(d)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    m = len(i)
    rows = np.repeat(np.arange(m), 2)
    cols = np.stack([i, j], axis=1).reshape(-1)
    vals = np.tile([1.0, -1.0], m)
    return coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr(), d[i, j]


def _floor(scale: float, d: np.ndarray) -> float:
    return ZERO_FLOOR * scale * max(1.0, float(d.max(initial=0.0)))


def bounded_value(d: np.ndarray, w: np.ndarray) -> list[float]:
    """sup of sum w_i f_i over 1-Lipschitz f with |f| <= 1 (the kr LP)."""
    supp = np.flatnonzero(w)
    if len(supp) == 0:
        return [0.0, 0.0]
    ws = w[supp]
    scale = float(np.abs(ws).max())
    sub = d[np.ix_(supp, supp)]
    A, b = _lipschitz_rows(sub)
    return [-scale * _solve(-ws / scale, A_ub=A, b_ub=b, bounds=(-1.0, 1.0)), _floor(scale, sub)]


def anchored_value(d: np.ndarray, w: np.ndarray, anchor: int) -> list[float]:
    """sup of sum w_i f_i over 1-Lipschitz f with f(anchor) = 0, plus |mass|."""
    idx = np.union1d(np.flatnonzero(w), [anchor])
    ws = w[idx]
    scale = float(np.abs(ws).max()) if len(idx) > 1 else 0.0
    mass = abs(math.fsum(w.tolist()))
    if scale == 0.0:
        return [mass, 0.0]
    local = int(np.searchsorted(idx, anchor))
    bounds = [(None, None)] * len(idx)
    bounds[local] = (0.0, 0.0)
    sub = d[np.ix_(idx, idx)]
    A, b = _lipschitz_rows(sub)
    value = -scale * _solve(-ws / scale, A_ub=A, b_ub=b, bounds=bounds) + mass
    return [value, _floor(scale, sub)]


def moment_value(d: np.ndarray, w: np.ndarray, anchor: int, q: float) -> list[float]:
    """Bounded value of the measure reweighted by 1 + d(., anchor)^q (the kq LP)."""
    return bounded_value(d, w * (1.0 + d[:, anchor] ** q))


def coupling_value(d: np.ndarray, a: np.ndarray, b: np.ndarray, q: float) -> list[float]:
    """(min sum s_ij d_ij^q over couplings of a and b)^(1/q) (the wq LP)."""
    rows = np.flatnonzero(a)
    cols = np.flatnonzero(b)
    ar = a[rows]
    bc = b[cols] * (math.fsum(ar.tolist()) / math.fsum(b[cols].tolist()))
    scale = float(max(ar.max(), bc.max()))
    r, s = len(rows), len(cols)
    cost = d[np.ix_(rows, cols)] ** q
    ii, jj = np.meshgrid(np.arange(r), np.arange(s), indexing="ij")
    var = (ii * s + jj).reshape(-1)
    A = coo_matrix(
        (np.ones(2 * r * s), (np.concatenate([ii.reshape(-1), r + jj.reshape(-1)]), np.tile(var, 2))),
        shape=(r + s, r * s),
    ).tocsr()
    rhs = np.concatenate([ar, bc]) / scale
    # one marginal constraint is redundant; HiGHS handles the rank deficiency
    total = scale * _solve(cost.reshape(-1), A_eq=A, b_eq=rhs, bounds=(0.0, None))
    return [max(total, 0.0) ** (1.0 / q), 0.0]
