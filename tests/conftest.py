import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from kantorovich_lab.measures import PseudometricSpace


def metric_closure(raw: np.ndarray) -> np.ndarray:
    """Shortest-path closure: turns any symmetric nonnegative matrix into a metric."""
    d = raw.copy()
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def random_space(rng, n, anchor=None, with_coords=False, lo=0.1, hi=4.0):
    raw = rng.uniform(lo, hi, size=(n, n))
    d = metric_closure((raw + raw.T) / 2.0)
    coords = rng.uniform(-3, 3, size=(n, 2)) if with_coords else None
    return PseudometricSpace(
        points=tuple(f"p{i}" for i in range(n)),
        metrics={"d": d},
        anchor=int(rng.integers(n)) if anchor is None else anchor,
        coords=coords,
    )


def random_degenerate_space(rng, n_classes, n_points, anchor=0):
    """Pseudometric whose null pairs form n_classes blocks."""
    raw = rng.uniform(0.5, 3.0, size=(n_classes, n_classes))
    D = metric_closure((raw + raw.T) / 2.0)
    assign = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, size=n_points - n_classes)]
    )
    rng.shuffle(assign)
    p = D[np.ix_(assign, assign)].copy()
    np.fill_diagonal(p, 0.0)
    space = PseudometricSpace(
        points=tuple(f"p{i}" for i in range(n_points)), metrics={"p": p}, anchor=anchor
    )
    return space, assign


def two_point_space(dist, anchor=0):
    return PseudometricSpace(
        points=("a", "b"),
        metrics={"d": np.array([[0.0, dist], [dist, 0.0]])},
        anchor=anchor,
    )


# Independent references from scipy's HiGHS LP solver.  HiGHS works with
# absolute tolerances, so each problem is solved on data divided by its
# largest weight and the optimum is multiplied back.

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _highs(c, **kw) -> float:
    res = linprog(c, method="highs", options=_HIGHS, **kw)
    assert res.status == 0, res.message
    return float(res.fun)


def _lipschitz_rows(d):
    n = len(d)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    m = len(i)
    A = coo_matrix(
        (np.tile([1.0, -1.0], m), (np.repeat(np.arange(m), 2), np.stack([i, j], 1).reshape(-1))),
        shape=(m, n),
    )
    return A.tocsr(), d[i, j]


def highs_seminorm(d, w, mode, anchor=0) -> float:
    """sup of sum w f over 1-Lipschitz f, |f| <= 1 or f(anchor) = 0 (no |mass| term)."""
    idx = np.flatnonzero(w) if mode == "bounded" else np.union1d(np.flatnonzero(w), [anchor])
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return 0.0
    bounds = (-1.0, 1.0)
    if mode == "anchored":
        bounds = [(None, None)] * len(idx)
        bounds[int(np.searchsorted(idx, anchor))] = (0.0, 0.0)
    A, b = _lipschitz_rows(d[np.ix_(idx, idx)])
    return -scale * _highs(-w[idx] / scale, A_ub=A, b_ub=b, bounds=bounds)


def highs_coupling_cost(C, a, b) -> float:
    """min sum s_ij C_ij over couplings of a and b."""
    r, s = C.shape
    scale = float(max(a.max(), b.max()))
    ii, jj = np.meshgrid(np.arange(r), np.arange(s), indexing="ij")
    var = (ii * s + jj).reshape(-1)
    A = coo_matrix(
        (np.ones(2 * r * s), (np.concatenate([ii.reshape(-1), r + jj.reshape(-1)]), np.tile(var, 2))),
        shape=(r + s, r * s),
    ).tocsr()
    rhs = np.concatenate([a, b]) / scale
    return scale * _highs(C.reshape(-1), A_eq=A, b_eq=rhs, bounds=(0.0, None))



@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
