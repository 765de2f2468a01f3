"""The transportation simplex's outputs, pinned byte for byte.

Each seeded problem below is solved and its ``(flows, u, v, cost,
iterations)`` hashed.  The digests were recorded from the solver before its
pivot loop, start tree and re-flow were reworked for speed; a change that
alters any pivot, flow, dual or cost bit fails here.  The problems cover the
shapes the package builds: Euclidean couplings below and above one pricing
block (8,192 cells), bounded and anchored seminorm problems on an integer
line (many tied costs), and single-row and single-column problems.
"""

import hashlib

import numpy as np
import pytest

from kantorovich_lab.transport._transportation import (
    PRICING_BLOCK_CELLS,
    seminorm_problem,
    solve_transportation,
)


def _euclidean(seed, r, s):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 1, size=(r, 2)), rng.uniform(0, 1, size=(s, 2))
    C = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    return rng.dirichlet(np.ones(r)), rng.dirichlet(np.ones(s)), C


def _integer_line(seed, mode):
    rng = np.random.default_rng(seed)
    n = 80
    x = rng.integers(0, 12, size=n).astype(float)
    w = rng.standard_normal(n) * (rng.random(n) > 0.2)
    prob = seminorm_problem(np.abs(x[:, None] - x[None, :]), w, mode, anchor=int(rng.integers(n)))
    return prob.a, prob.b, prob.C


def _one_row(seed, n):
    rng = np.random.default_rng(seed)
    return np.array([1.0]), rng.dirichlet(np.ones(n)), rng.uniform(0, 3, size=(1, n))


def _one_column(seed, n):
    a, b, C = _one_row(seed, n)
    return b, a, C.T.copy()


PROBLEMS = {
    "euclidean 12x14": lambda: _euclidean(1, 12, 14),
    "euclidean 64x64": lambda: _euclidean(2, 64, 64),
    "euclidean 100x100": lambda: _euclidean(3, 100, 100),
    "integer line, bounded": lambda: _integer_line(4, "bounded"),
    "integer line, anchored": lambda: _integer_line(5, "anchored"),
    "1 x 9": lambda: _one_row(6, 9),
    "9 x 1": lambda: _one_column(7, 9),
}

DIGESTS = {
    "euclidean 12x14": (15, "311b140e927ce3150b5a2f440779f15fca8653c4fa99777109b909bf29d13453"),
    "euclidean 64x64": (63, "490c11ed4e6449c6548c24a708e42485e75577050339719facc865f8438e37b7"),
    "euclidean 100x100": (167, "c451f2e9434d653e1ebfaec6531874b0d78c2c4a72f7c348da66b3ba4420c526"),
    "integer line, bounded": (8, "b587e6ec29defb99f9819d8a4c614fe8e68aabd37a8096f833a47fafcdfb114d"),
    "integer line, anchored": (16, "e39991b72c3008b3588787eb5b4f7abdf63a8511eaed9dae7e742433909bd49a"),
    "1 x 9": (1, "f30248002ab89095b15d5be74b9dbe007a5dc67ce774b0fee39ee2cf41e0035f"),
    "9 x 1": (1, "c10415cf147c024e0730c03d1e86494e3068ec1c3f9a55a23adc0ad514a821e7"),
}


def solution_digest(sol) -> str:
    h = hashlib.sha256()
    for part in (sol.flows, sol.u, sol.v, np.float64(sol.cost), np.int64(sol.iterations)):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def test_one_problem_spans_several_pricing_blocks():
    _, _, C = PROBLEMS["euclidean 100x100"]()
    assert C.size > PRICING_BLOCK_CELLS


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_solution_bytes_are_pinned(name):
    sol = solve_transportation(*PROBLEMS[name]())
    assert (sol.iterations, solution_digest(sol)) == DIGESTS[name]
