"""Exact equivariance of the seminorms and couplings under scaling by 2^k.

The solver divides the marginals by their largest entry, and a power of two
scales a float exactly (short of overflow and underflow), so 2^k mu poses the
same unit-scale problem as mu: ``kr``, ``k`` and ``kq`` scale by 2^k bit for
bit, and so do ``wq``'s coupling matrix and cost.  The check needs no
reference solver, so it holds at any support size.
"""

import functools

import numpy as np
import pytest

from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import k_norm, kq_norm, kr_norm, wasserstein_q

#: The number of points of each random planar space, one seed each.
SIZES = (8, 11, 17, 24, 32, 45, 64, 80, 99, 120, 141, 160)
POWERS = (-40, -7, 5, 20)


@functools.cache
def problem(n):
    """A random planar space of ``n`` points with a signed measure and two
    nonnegative ones of equal mass, some atoms of each left empty."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-4.0, 4.0, size=(n, 2))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    space = PseudometricSpace(points=tuple(f"p{i}" for i in range(n)), metrics={"d": d},
                              anchor=int(rng.integers(n)))
    signed, mu, nu = rng.standard_normal(n), rng.random(n), rng.random(n)
    for w in (signed, mu, nu):
        w[rng.random(n) < 0.25] = 0.0
    return space, signed, mu / mu.sum(), nu / nu.sum()


@functools.cache
def values(n, k):
    """``kr``, ``k`` and ``kq`` (q = 2) of the signed measure, and ``wq``'s
    coupling (q = 2) of the other two, all scaled by 2^k."""
    space, signed, mu, nu = problem(n)
    scaled = space.measure(2.0**k * signed)
    coupling = wasserstein_q(space.measure(2.0**k * mu), space.measure(2.0**k * nu), "d", 2.0)[1]
    return kr_norm(scaled, "d")[0], k_norm(scaled, "d")[0], kq_norm(scaled, "d", 2.0), coupling


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("n", SIZES)
def test_scaling_by_a_power_of_two_scales_every_value_exactly(n, k):
    *norms, coupling = values(n, 0)
    *scaled_norms, scaled = values(n, k)
    assert scaled_norms == [2.0**k * value for value in norms]
    assert np.array_equal(scaled.matrix, 2.0**k * coupling.matrix)
    assert scaled.cost == 2.0**k * coupling.cost
