"""Differential tests: every transport optimum against scipy's HiGHS LP solver.

The references (``conftest.highs_*``) are plain linear programs that share no
code with the package.  Values must agree to relative 1e-9 plus a round-off
floor of 1e-12 times the problem's scale (largest weight times largest
distance); every witness and coupling must pass its own ``validate``.  The
mass scale is the size of the signed measures' atoms and the total mass of
the coupled probability measures.
"""

import math

import numpy as np
import pytest

from kantorovich_lab.transport import brute_force_dual, k_norm, kq_norm, kr_norm, wasserstein_q

from conftest import highs_coupling_cost, highs_seminorm, random_space

REL_TOL = 1e-9
FLOOR = 1e-12
SCALES = (1e-15, 1e-12, 1e-8, 1e-2, 1.0, 1e3, 1e6)


def assert_agrees(value, reference, problem_scale):
    assert abs(value - reference) <= REL_TOL * abs(reference) + FLOOR * problem_scale, (
        value,
        reference,
    )


def _coupled_marginals(rng, n, scale):
    """Two probability vectors times ``scale`` with equal float totals."""
    a = rng.dirichlet(np.ones(n)) * scale
    b = rng.dirichlet(np.ones(n)) * scale
    b[-1] = math.fsum(a.tolist()) - math.fsum(b[:-1].tolist())
    assert b[-1] > 0
    return a, b


def _instances():
    """(scale, n, seed): a small support (with the oracle), a mid-size one and 128 atoms."""
    out = []
    for k, scale in enumerate(SCALES):
        rng = np.random.default_rng(1000 + k)
        for n in (int(rng.integers(2, 9)), int(rng.integers(9, 65)), 128):
            out.append((scale, n, 7 * k + n))
    return out


@pytest.mark.parametrize("scale,n,seed", _instances())
def test_matches_highs(scale, n, seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    d = space.metric("d")
    dmax = float(d.max())
    w = rng.uniform(-1, 1, size=n) * scale
    if 8 < n < 128:
        w[rng.random(n) < 0.2] = 0.0  # points off the support; n = 128 is all support
    mu = space.measure(w)
    wmax = float(np.abs(w).max())

    value, witness = kr_norm(mu, "d")
    witness.validate(mu)
    assert_agrees(value, highs_seminorm(d, w, "bounded"), wmax * max(1.0, dmax))

    value, witness = k_norm(mu, "d")
    witness.validate(mu)
    ref = highs_seminorm(d, w, "anchored", space.anchor) + abs(mu.total_mass)
    assert_agrees(value, ref, wmax * max(1.0, dmax))

    if n <= 8:
        assert_agrees(
            brute_force_dual(mu, "d", "bounded"), highs_seminorm(d, w, "bounded"), wmax * max(1.0, dmax)
        )
        assert_agrees(brute_force_dual(mu, "d", "anchored"), ref, wmax * max(1.0, dmax))

    for q in (1.0, 2.0):
        dens = 1.0 + d[:, space.anchor] ** q
        ref = highs_seminorm(d, w * dens, "bounded")
        assert_agrees(kq_norm(mu, "d", q), ref, wmax * float(dens.max()) * max(1.0, dmax))

    a, b = _coupled_marginals(rng, n, scale)
    p, nu = space.measure(a), space.measure(b)
    for q in (1.0, 2.0):
        value, coupling = wasserstein_q(p, nu, "d", q)
        coupling.validate(p, nu)
        cost = d**q
        rows, cols = np.flatnonzero(a), np.flatnonzero(b)
        ref = highs_coupling_cost(cost[np.ix_(rows, cols)], a[rows], b[cols] * (p.total_mass / nu.total_mass))
        assert_agrees(value**q, ref, float(max(a.max(), b.max())) * max(1.0, float(cost.max())))


def test_kq_nonnegative_measure_at_mass_scale_1e6():
    # the source perturbation fell below the round-off of the marginal sums,
    # and the northwest corner walked off the last column (IndexError)
    rng = np.random.default_rng(1)
    space = random_space(rng, 64)
    w = rng.random(64) * 1e6
    d = space.metric("d")
    dens = 1.0 + d[:, space.anchor] ** 2
    ref = highs_seminorm(d, w * dens, "bounded")
    assert_agrees(kq_norm(space.measure(w), "d", 2.0), ref, float((w * dens).max()) * float(d.max()))


def test_wq_at_mass_scale_1e_12():
    # an absolute perturbation of 1e-12 was as large as the masses themselves
    rng = np.random.default_rng(5)
    space = random_space(rng, 64)
    d = space.metric("d")
    a, b = _coupled_marginals(rng, 64, 1e-12)
    mu, nu = space.measure(a), space.measure(b)
    value, coupling = wasserstein_q(mu, nu, "d", 2.0)
    coupling.validate(mu, nu)
    ref = highs_coupling_cost(d**2, a, b * (mu.total_mass / nu.total_mass))
    assert_agrees(value**2, ref, float(max(a.max(), b.max())) * float((d**2).max()))


def test_validate_rejects_wrong_marginals_at_small_scale():
    space = random_space(np.random.default_rng(2), 3)
    mu = space.measure([1e-12, 2e-12, 0.0])
    nu = space.measure([0.0, 1e-12, 2e-12])
    _, coupling = wasserstein_q(mu, nu, "d", 1.0)
    coupling.validate(mu, nu)
    with pytest.raises(ValueError, match="marginals"):
        coupling.validate(mu * 2.0, nu * 2.0)
    _, witness = kr_norm(mu - nu, "d")
    witness.validate(mu - nu)
    with pytest.raises(ValueError, match="attain"):
        witness.validate((mu - nu) * 2.0)
