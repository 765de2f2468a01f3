"""Closed-form references on trees and lines, exact in ``Fraction``.

On the path metric of a weighted tree rooted at the anchor, with T_e the
points below edge e of weight w_e:

- the anchored seminorm is k(mu) = sum_e w_e |mu(T_e)| + |mu(X)|, since a
  1-Lipschitz f with f(anchor) = 0 can change by up to w_e along each edge,
  edge by edge independently;
- the coupling metric at q = 1 is W1(mu, nu) = sum_e w_e |mu(T_e) - nu(T_e)|
  (Evans & Matsen 2012; Le et al. 2019).

On a line, the monotone coupling (the north-west corner rule on sorted
points) is optimal for |x - y|^q, q >= 1 (Santambrogio 2015, ch. 2); its cost
summed in ``Fraction`` over the solver's own float cost matrix is exact.

Edge weights, masses and positions are dyadic, so the tree metric built in
numpy and every reference are exact.  The line cases at q >= 3 are left out:
there the simplex stops on a tolerance relative to the largest cost, not to
the optimum, and can return a cost well above it.
"""

from fractions import Fraction

import numpy as np
import pytest

from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import k_norm, wasserstein_q
from kantorovich_lab.transport._transportation import power_costs

#: Relative distance allowed between a value and its exact reference.
REL = 1e-12
SIZES = (64, 128, 256, 512)


def random_tree(n: int, seed: int):
    """Parent array (node i's parent is uniform below i; node 0 is the root)
    and edge weights k/64, k in 1..64 (``w[i]`` is the edge above node i)."""
    rng = np.random.default_rng(seed)
    parent = np.array([-1] + [int(rng.integers(i)) for i in range(1, n)])
    w = rng.integers(1, 65, n) / 64.0
    w[0] = 0.0
    return parent, w


def tree_metric(parent: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(i, j) = depth i + depth j - 2 depth(lca), with the ancestor matrix
    A[i, k] = [k is an ancestor of i or i itself]: the common ancestors of i
    and j are the root's path to their lca, so depth(lca) = (A w) A^T.  Every
    sum is of multiples of 1/64, exact in a double."""
    n = len(parent)
    A = np.zeros((n, n))
    for i in range(n):
        if i:
            A[i] = A[parent[i]]
        A[i, i] = 1.0
    depth = A @ w
    return depth[:, None] + depth[None, :] - 2.0 * ((A * w) @ A.T)


def subtree_masses(parent: np.ndarray, masses: np.ndarray) -> list[Fraction]:
    """mu(T_i) for each node i, exactly: each node adds its subtree to its
    parent's, children first, since a parent's index is smaller."""
    below = [Fraction(float(m)) for m in masses]
    for i in range(len(parent) - 1, 0, -1):
        below[parent[i]] += below[i]
    return below


def dyadic_masses(rng, n: int, signed: bool) -> np.ndarray:
    """Masses k/128 with some atoms left empty."""
    lo = -128 if signed else 0
    m = rng.integers(lo, 129, n) / 128.0
    m[rng.random(n) < 0.2] = 0.0
    return m


def equal_mass_pair(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two nonnegative dyadic measures of one total: the lighter one takes
    the difference at atom 0."""
    mu, nu = dyadic_masses(rng, n, signed=False), dyadic_masses(rng, n, signed=False)
    gap = mu.sum() - nu.sum()
    (nu if gap > 0 else mu)[0] += abs(gap)
    return mu, nu


def space_of(d: np.ndarray) -> PseudometricSpace:
    return PseudometricSpace(points=tuple(f"p{i}" for i in range(len(d))), metrics={"d": d}, anchor=0)


def relative_gap(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact)) / max(float(abs(exact)), 1e-300)


@pytest.mark.parametrize("n", SIZES)
def test_k_norm_on_a_tree(n):
    parent, w = random_tree(n, seed=n)
    mu = dyadic_masses(np.random.default_rng(n + 1), n, signed=True)
    below = subtree_masses(parent, mu)
    exact = sum((Fraction(float(w[e])) * abs(below[e]) for e in range(1, n)), abs(below[0]))
    value, _ = k_norm(space_of(tree_metric(parent, w)).measure(mu), "d")
    assert relative_gap(value, exact) <= REL, (value, float(exact))


@pytest.mark.parametrize("n", SIZES)
def test_w1_on_a_tree(n):
    parent, w = random_tree(n, seed=n)
    mu, nu = equal_mass_pair(np.random.default_rng(n + 2), n)
    below_mu, below_nu = subtree_masses(parent, mu), subtree_masses(parent, nu)
    exact = sum(Fraction(float(w[e])) * abs(below_mu[e] - below_nu[e]) for e in range(1, n))
    space = space_of(tree_metric(parent, w))
    value, coupling = wasserstein_q(space.measure(mu), space.measure(nu), "d", 1.0)
    assert relative_gap(value, exact) <= REL, (value, float(exact))
    assert relative_gap(coupling.cost, exact) <= REL


def monotone_cost(x: np.ndarray, mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> Fraction:
    """The north-west corner rule on the points sorted along the line, its
    flows and the float costs taken exactly."""
    order = np.argsort(x, kind="stable")
    rows = [(i, Fraction(float(mu[i]))) for i in order if mu[i] > 0]
    cols = [(j, Fraction(float(nu[j]))) for j in order if nu[j] > 0]
    total, r, c = Fraction(0), 0, 0
    left_r, left_c = rows[0][1], cols[0][1]
    while r < len(rows) and c < len(cols):
        flow = min(left_r, left_c)
        total += flow * Fraction(float(cost[rows[r][0], cols[c][0]]))
        left_r -= flow
        left_c -= flow
        if left_r == 0:
            r += 1
            left_r = rows[r][1] if r < len(rows) else None
        if left_c == 0:
            c += 1
            left_c = cols[c][1] if c < len(cols) else None
    return total


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("n", (64, 256, 512))
def test_wq_on_a_line(n, q):
    rng = np.random.default_rng(10 * n + int(q))
    x = rng.choice(np.arange(-4096, 4096), size=n, replace=False) / 64.0
    mu, nu = equal_mass_pair(rng, n)
    d = np.abs(x[:, None] - x[None, :])
    exact = monotone_cost(x, mu, nu, power_costs(d, q))
    space = space_of(d)
    _, coupling = wasserstein_q(space.measure(mu), space.measure(nu), "d", q)
    assert relative_gap(coupling.cost, exact) <= REL, (coupling.cost, float(exact))
