"""The least-cost starting basis of the transportation simplex.

The start must be a spanning tree of the bipartite row/column graph with
nonnegative flows on every shape and under every pattern of cost ties; the
simplex then needs far fewer pivots than from the northwest corner.  The
tie-heavy cases (integer line metrics, where many costs are equal and many
points coincide) are cross-checked against HiGHS at every mass scale.
"""

import math

import numpy as np
import pytest

from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import k_norm, kq_norm, kr_norm, wasserstein_q
from kantorovich_lab.transport._transportation import _least_cost_tree, solve_transportation

from conftest import highs_coupling_cost, highs_seminorm
from test_transport_highs import SCALES, assert_agrees


def assert_spanning_start(a, b, C):
    r, s = len(a), len(b)
    order, parent, eflow, ecost = _least_cost_tree(a, b, C)
    # every node but the root joins its parent, a node of the other side,
    # by the start cell that carries its edge's flow and cost
    assert sorted(order) == list(range(r + s)) and parent[order[0]] == -1
    place = {x: k for k, x in enumerate(order)}
    basis, flows = [], {}
    for x in order[1:]:
        assert (x < r) != (parent[x] < r)
        assert place[parent[x]] < place[x], "order is not parent first"
        cell = (x, parent[x] - r) if x < r else (parent[x], x - r)
        assert ecost[x] == C[cell]
        basis.append(cell)
        flows[cell] = eflow[x]
    assert len(basis) == r + s - 1
    assert len(set(basis)) == len(basis)
    comp = list(range(r + s))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for i, j in basis:
        ri, rj = find(i), find(r + j)
        assert ri != rj, "starting basis has a cycle"
        comp[ri] = rj
    assert min(flows.values()) >= 0.0
    rows, cols = np.zeros(r), np.zeros(s)
    for (i, j), f in flows.items():
        rows[i] += f
        cols[j] += f
    total = math.fsum(a.tolist())
    assert np.abs(rows - a).max() <= 1e-12 * total
    assert np.abs(cols - b).max() <= 1e-12 * total


def _marginals(rng, r, s):
    a = rng.random(r) + 0.1
    b = rng.random(s) + 0.1
    b *= a.sum() / b.sum()
    return a, b


@pytest.mark.parametrize("r,s", [(1, 1), (1, 5), (5, 1), (3, 4), (6, 2)])
def test_start_is_a_spanning_tree(r, s):
    rng = np.random.default_rng(10 * r + s)
    a, b = _marginals(rng, r, s)
    C = rng.uniform(0, 3, size=(r, s))
    assert_spanning_start(a, b, C)
    sol = solve_transportation(a, b, C)
    assert np.abs(sol.flows.sum(axis=1) - a).max() < 1e-12
    assert np.abs(sol.flows.sum(axis=0) - b).max() < 1e-12


@pytest.mark.parametrize("r,s", [(1, 1), (1, 4), (4, 1), (5, 7)])
def test_start_with_equal_costs(r, s):
    a, b = _marginals(np.random.default_rng(r + s), r, s)
    assert_spanning_start(a, b, np.ones((r, s)))


def test_start_on_line_metric_with_duplicate_points():
    x = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 5.0])
    C = np.abs(x[:, None] - x[None, :])
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert_spanning_start(*_marginals(rng, 8, 8), C)
        assert_spanning_start(*_marginals(rng, 5, 6), C[:5, 2:])
    # equal marginals: every partial sum ties without the perturbation
    assert_spanning_start(np.ones(8), np.ones(8), C)


def _integer_line_space(rng, n):
    x = rng.integers(0, 6, size=n).astype(float)
    return PseudometricSpace(
        points=tuple(f"p{i}" for i in range(n)),
        metrics={"d": np.abs(x[:, None] - x[None, :])},
        anchor=int(rng.integers(n)),
    )


@pytest.mark.parametrize("scale", SCALES)
def test_tie_heavy_line_matches_highs(scale):
    rng = np.random.default_rng(SCALES.index(scale))
    for n in (7, 24):
        space = _integer_line_space(rng, n)
        d = space.metric("d")
        dmax = max(1.0, float(d.max()))
        w = rng.integers(-3, 4, size=n).astype(float) * scale
        w[0] = scale
        mu = space.measure(w)

        value, witness = kr_norm(mu, "d")
        witness.validate(mu)
        assert_agrees(value, highs_seminorm(d, w, "bounded"), scale * 3 * dmax)
        value, witness = k_norm(mu, "d")
        witness.validate(mu)
        ref = highs_seminorm(d, w, "anchored", space.anchor) + abs(mu.total_mass)
        assert_agrees(value, ref, scale * 3 * dmax)
        dens = 1.0 + d[:, space.anchor]
        ref = highs_seminorm(d, w * dens, "bounded")
        value, witness = kq_norm(mu, "d", 1.0)
        witness.validate(mu)
        assert_agrees(value, ref, scale * 3 * float(dens.max()) * dmax)

        a = rng.integers(1, 4, size=n).astype(float) * scale
        p, nu = space.measure(a), space.measure(rng.permutation(a))
        value, coupling = wasserstein_q(p, nu, "d", 1.0)
        coupling.validate(p, nu)
        ref = highs_coupling_cost(d, p.weights, nu.weights * (p.total_mass / nu.total_mass))
        assert_agrees(value, ref, scale * 3 * dmax)


def test_fewer_pivots_than_the_northwest_start():
    # the northwest-corner start took 332 pivots on this instance
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(64, 2))
    C = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    a = rng.dirichlet(np.ones(64))
    b = rng.dirichlet(np.ones(64))
    assert solve_transportation(a, b, C).iterations < 200
