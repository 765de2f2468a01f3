"""Block-search pricing of the transportation simplex.

A problem of at most ``PRICING_BLOCK_CELLS`` cells is priced as one block,
which is Dantzig's rule, so its pivots are pinned.  A larger problem is priced
block by block; where its optimum is unique it must return the one-block
solve's flows, duals and cost byte for byte, and where the optimum is tied
(integer line metrics, many equal costs) every value is checked against HiGHS
and every certificate against its own ``validate``.
"""

import numpy as np
import pytest

from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import _transportation, k_norm, kr_norm, wasserstein_q
from kantorovich_lab.transport._transportation import PRICING_BLOCK_CELLS, solve_transportation

from conftest import highs_coupling_cost, highs_seminorm
from test_transport_highs import assert_agrees


def _euclidean_space(rng, n):
    x = rng.uniform(0, 1, size=(n, 2))
    return PseudometricSpace(
        points=tuple(f"p{i}" for i in range(n)),
        metrics={"d": np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))},
    )


def _integer_line_space(rng, n):
    x = rng.integers(0, 12, size=n).astype(float)
    return PseudometricSpace(
        points=tuple(f"p{i}" for i in range(n)),
        metrics={"d": np.abs(x[:, None] - x[None, :])},
        anchor=int(rng.integers(n)),
    )


def _same_bytes(x, y):
    return all(
        np.asarray(p).tobytes() == np.asarray(q).tobytes()
        for p, q in ((x.flows, y.flows), (x.u, y.u), (x.v, y.v), (x.cost, y.cost))
    )


def test_blocks_return_the_one_block_optimum(monkeypatch):
    rng = np.random.default_rng(3)
    n = 200
    x, y = rng.uniform(0, 1, size=(n, 2)), rng.uniform(0, 1, size=(n, 2))
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    rows = PRICING_BLOCK_CELLS // n
    assert -(-n // rows) == 5
    blocks = solve_transportation(a, b, C)
    monkeypatch.setattr(_transportation, "PRICING_BLOCK_CELLS", n * n)
    one = solve_transportation(a, b, C)
    assert blocks.iterations != one.iterations  # the two rules pivot differently
    assert _same_bytes(blocks, one)


def test_one_block_pivots_are_dantzig():
    # the 64 x 64 instance of test_fewer_pivots_than_the_northwest_start:
    # Dantzig's rule over the whole matrix takes 94 pivots from the least-cost start
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(64, 2))
    C = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    a = rng.dirichlet(np.ones(64))
    b = rng.dirichlet(np.ones(64))
    assert C.size <= PRICING_BLOCK_CELLS
    assert solve_transportation(a, b, C).iterations == 94


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
def test_tie_heavy_coupling_over_blocks_matches_highs(scale):
    rng = np.random.default_rng(7)
    n = 120
    space = _integer_line_space(rng, n)
    d = space.metric("d")
    a = rng.integers(1, 4, size=n).astype(float) * scale
    mu, nu = space.measure(a), space.measure(rng.permutation(a))
    assert n * n > PRICING_BLOCK_CELLS
    value, coupling = wasserstein_q(mu, nu, "d", 1.0)
    coupling.validate(mu, nu)
    ref = highs_coupling_cost(d, mu.weights, nu.weights)
    assert_agrees(value, ref, scale * 3 * float(d.max()))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
def test_tie_heavy_seminorms_over_blocks_match_highs(scale):
    rng = np.random.default_rng(11)
    n = 184
    space = _integer_line_space(rng, n)
    d = space.metric("d")
    w = rng.integers(1, 4, size=n).astype(float) * scale
    w[rng.permutation(n)[: n // 2]] *= -1.0
    mu = space.measure(w)
    # bounded and anchored problems: 93 x 93 cells at most, and more than one block
    assert (n // 2 + 1) ** 2 > PRICING_BLOCK_CELLS

    value, witness = kr_norm(mu, "d")
    witness.validate(mu)
    assert_agrees(value, highs_seminorm(d, w, "bounded"), scale * 3 * float(d.max()))
    value, witness = k_norm(mu, "d")
    witness.validate(mu)
    ref = highs_seminorm(d, w, "anchored", space.anchor) + abs(mu.total_mass)
    assert_agrees(value, ref, scale * 3 * float(d.max()))


def test_512_point_coupling_matches_highs():
    rng = np.random.default_rng(5)
    space = _euclidean_space(rng, 512)
    mu = space.measure(rng.dirichlet(np.ones(512)))
    nu = space.measure(rng.dirichlet(np.ones(512)))
    value, coupling = wasserstein_q(mu, nu, "d", 2.0)
    coupling.validate(mu, nu)
    ref = highs_coupling_cost(space.metric("d") ** 2, mu.weights, nu.weights)
    assert_agrees(value**2, ref, 2.0)
