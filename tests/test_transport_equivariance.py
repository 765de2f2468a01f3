"""Relations of the seminorms and couplings that need no reference solver,
so they hold at any support size.

Exact equivariance under scaling by 2^k: the solver divides the marginals by
their largest entry, and a power of two scales a float exactly (short of
overflow and underflow), so 2^k mu poses the same unit-scale problem as mu:
``kr``, ``k`` and ``kq`` scale by 2^k bit for bit, and so do ``wq``'s
coupling matrix and cost.

Relations that hold to rounding, each within 1e-12 of the bound on the value
that the data give (total variation times diameter, and so on): relabelling
the points leaves every value unchanged, ``wq(mu, mu) = 0``, and
``kr <= k``, since a bounded potential f splits into the anchored
f - f(x0) and the constant f(x0), with |f(x0)| <= 1.  Scaling the metric by
lambda scales ``wq`` and the anchored part of ``k`` (the integral of its
witness, without |mu(X)|) by lambda, since f is 1-Lipschitz for d exactly
when lambda f is for lambda d.
"""

import functools

import numpy as np
import pytest

from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import k_norm, kq_norm, kr_norm, wasserstein_q

#: The number of points of each random planar space, one seed each.
SIZES = (8, 11, 17, 24, 32, 45, 64, 80, 99, 120, 141, 160)
POWERS = (-40, -7, 5, 20)
#: Larger spaces for the exact scaling alone, two powers each, where the
#: transportation simplex takes many more pivots.
LARGE = tuple((n, k) for n in (512, 1024) for k in (-40, 20))


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
    return kr_norm(scaled, "d")[0], k_norm(scaled, "d")[0], kq_norm(scaled, "d", 2.0)[0], coupling


@pytest.mark.parametrize("n,k", [(n, k) for n in SIZES for k in POWERS] + list(LARGE))
def test_scaling_by_a_power_of_two_scales_every_value_exactly(n, k):
    *norms, coupling = values(n, 0)
    *scaled_norms, scaled = values(n, k)
    assert scaled_norms == [2.0**k * value for value in norms]
    assert np.array_equal(scaled.matrix, 2.0**k * coupling.matrix)
    assert scaled.cost == 2.0**k * coupling.cost


#: Rounding allowed, relative to the bound on each value.
REL = 1e-12


def bounds(space: PseudometricSpace, signed: np.ndarray) -> tuple[float, float, float, float]:
    """Upper bounds on ``kr``, ``k`` and ``kq`` (q = 2) of ``signed`` and on
    ``wq`` (q = 2) between two probability measures of ``space``."""
    mass, diameter = float(np.abs(signed).sum()), float(space.metric("d").max())
    return mass, mass * (1.0 + diameter), mass * (1.0 + diameter**2), diameter


def relabelled(n) -> tuple[PseudometricSpace, np.ndarray]:
    """``problem(n)``'s space with its points in a random order, the anchor
    moved along, and that order."""
    space, *_ = problem(n)
    order = np.random.default_rng(n + 1).permutation(n)
    return PseudometricSpace(points=tuple(space.points[i] for i in order),
                             metrics={"d": space.metric("d")[np.ix_(order, order)]},
                             anchor=int(np.flatnonzero(order == space.anchor)[0])), order


@pytest.mark.parametrize("n", SIZES)
def test_relabelling_the_points_leaves_every_value_unchanged(n):
    space, signed, mu, nu = problem(n)
    kr, k, kq, _ = values(n, 0)
    wq = wasserstein_q(space.measure(mu), space.measure(nu), "d", 2.0)[0]
    other, order = relabelled(n)
    moved = other.measure(signed[order])
    got = (kr_norm(moved, "d")[0], k_norm(moved, "d")[0], kq_norm(moved, "d", 2.0)[0],
           wasserstein_q(other.measure(mu[order]), other.measure(nu[order]), "d", 2.0)[0])
    for value, expected, bound in zip(got, (kr, k, kq, wq), bounds(space, signed)):
        assert abs(value - expected) <= REL * bound


@pytest.mark.parametrize("n", SIZES)
def test_a_measure_is_at_distance_zero_from_itself(n):
    space, signed, mu, nu = problem(n)
    for weights in (mu, nu):
        value, coupling = wasserstein_q(space.measure(weights), space.measure(weights), "d", 2.0)
        assert 0.0 <= value <= REL * bounds(space, signed)[3]
        coupling.validate(space.measure(weights), space.measure(weights))


@pytest.mark.parametrize("n", SIZES)
def test_the_bounded_seminorm_is_at_most_the_anchored_one(n):
    space, signed, *_ = problem(n)
    # the signed measure, and the same with its total mass taken off, so
    # that k has no |mu(X)| term to spare
    for weights in (signed, signed - signed.sum() / n):
        measure = space.measure(weights)
        assert kr_norm(measure, "d")[0] <= k_norm(measure, "d")[0] + REL * bounds(space, weights)[1]


#: Factors the metric is scaled by; not powers of two, so the values move by rounding.
LAMBDAS = (1e-3, 0.37, 3.0, 1e4)


@pytest.mark.parametrize("n", SIZES)
def test_scaling_the_metric_scales_wq_and_the_anchored_part_of_k(n):
    space, signed, mu, nu = problem(n)
    anchored = k_norm(space.measure(signed), "d")[1].achieved
    wq = wasserstein_q(space.measure(mu), space.measure(nu), "d", 2.0)[0]
    mass, diameter = float(np.abs(signed).sum()), float(space.metric("d").max())
    for lam in LAMBDAS:
        other = PseudometricSpace(points=space.points, metrics={"d": lam * space.metric("d")}, anchor=space.anchor)
        got = k_norm(other.measure(signed), "d")[1].achieved
        assert abs(got - lam * anchored) <= REL * lam * mass * diameter, lam
        got = wasserstein_q(other.measure(mu), other.measure(nu), "d", 2.0)[0]
        assert abs(got - lam * wq) <= REL * lam * diameter, lam
