"""Exact Kantorovich-type seminorms and coupling metrics for signed measures.

Every value is the optimum of a balanced transportation problem solved by one
network simplex (``_transportation``): the coupling metric directly, and each
seminorm as the sup of the integral over 1-Lipschitz potentials vanishing at
an absorbing node, the anchor (``k``) or a slack point at unit distance from
every point (``kr``, and ``kq`` on the moment weights).  A seminorm's value is
the integral of its witness, read off the duals by one c-transform.  An
exhaustive vertex-enumeration oracle cross-checks seminorms on small supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..measures import TRIANGLE_TOL, SignedMeasure
from ._transportation import absorbing_distances, moment_weights, power_costs
from ._transportation import seminorm_potential, seminorm_problem, solve_transportation
from ._trees import min_cost_vertex

__all__ = [
    "LipschitzWitness",
    "Coupling",
    "kr_norm",
    "k_norm",
    "wasserstein_q",
    "kq_norm",
    "brute_force_dual",
]

#: Feasibility tolerance for returned certificates.  Checks of masses and
#: integrals compare against ``WITNESS_TOL * min(1, scale)`` for the scale of
#: the data, so that a wrong answer cannot pass for being small.
WITNESS_TOL = 1e-9
#: Mass and Lipschitz checks never ask for less than this many units in the
#: last place of the total mass or of the largest |potential|: the inputs'
#: own rounding reaches about one.
ROUNDING_ULPS = 4

ORACLE_SUPPORT_MAX = 8


def _mass_tol(scale: float, total: float) -> float:
    """``WITNESS_TOL * min(1, scale)``, floored at ``ROUNDING_ULPS`` ulps of ``total``."""
    return max(WITNESS_TOL * min(1.0, scale), ROUNDING_ULPS * math.ulp(total))


@dataclass(frozen=True)
class LipschitzWitness:
    """Dual certificate: potential values attaining a seminorm value.

    ``achieved`` is the integral of the potential against the measure, or,
    with a moment exponent ``q``, against the moment-weighted measure
    (1 + d(., x0)^q) . mu; for the anchored mode the seminorm adds
    ``|mu(X)|`` on top of it.
    """

    metric_name: str
    values: np.ndarray
    achieved: float
    mode: str  # "bounded" | "anchored"
    q: float | None = None

    def validate(self, mu: SignedMeasure) -> None:
        f = self.values
        # comparisons with NaN are false, so a NaN witness would pass below
        if not (np.isfinite(f).all() and math.isfinite(self.achieved)):
            raise ValueError("witness is not finite")
        d = mu.space.metric(self.metric_name)
        # relative to the metric below 1, so a small metric cannot hide a
        # steep potential; never below the space's own triangle tolerance,
        # nor below the rounding of a bounded potential, which sits near 1
        # whatever the metric's scale
        dmax = float(np.abs(d).max(initial=0.0))
        fmax = float(np.abs(f).max(initial=0.0))
        lip_tol = max(WITNESS_TOL * min(1.0, dmax), TRIANGLE_TOL * dmax, ROUNDING_ULPS * math.ulp(fmax))
        gap = np.abs(f[:, None] - f[None, :]) - d
        if gap.max(initial=0.0) > lip_tol:
            raise ValueError(f"potential is not 1-Lipschitz (violation {gap.max():.3g})")
        if self.mode == "bounded":
            if np.abs(f).max(initial=0.0) > 1 + WITNESS_TOL:
                raise ValueError("potential exceeds the unit bound")
        elif self.mode == "anchored":
            if abs(f[mu.space.anchor]) > WITNESS_TOL:
                raise ValueError("potential does not vanish at the anchor")
        else:
            raise ValueError(f"unknown witness mode {self.mode!r}")
        weights = mu.weights
        if self.q is not None:
            weights = moment_weights(mu.space.anchor_distances(self.metric_name), weights, self.q)
        terms = f * weights
        integral = math.fsum(terms.tolist())
        scale = math.fsum(np.abs(terms).tolist())
        if abs(integral - self.achieved) > WITNESS_TOL * min(1.0, scale):
            raise ValueError("potential does not attain the reported value")


@dataclass(frozen=True)
class Coupling:
    """Nonnegative joint matrix with prescribed marginals attaining a q-cost."""

    metric_name: str
    q: float
    matrix: np.ndarray  # (n, n) on the full point set
    cost: float  # sum sigma_ij d_ij^q

    def validate(self, mu: SignedMeasure, nu: SignedMeasure) -> None:
        sig = self.matrix
        scale = max(float(np.abs(mu.weights).max()), float(np.abs(nu.weights).max()))
        mass_tol = _mass_tol(scale, max(abs(mu.total_mass), abs(nu.total_mass)))
        # at most the mass tolerance, so negative entries cannot pass for
        # round-off at a small mass scale
        if sig.min(initial=0.0) < -min(1e-12, mass_tol):
            raise ValueError("coupling has a negative entry")
        if np.abs(sig.sum(axis=1) - mu.weights).max() > mass_tol:
            raise ValueError("row marginals do not match")
        if np.abs(sig.sum(axis=0) - nu.weights).max() > mass_tol:
            raise ValueError("column marginals do not match")
        d = mu.space.metric(self.metric_name)
        cost = float((sig * d**self.q).sum()) if self.q != 1 else float((sig * d).sum())
        # comparisons with NaN are false, so a non-finite cost would pass below
        if not (math.isfinite(self.cost) and math.isfinite(cost)):
            raise ValueError("coupling cost is not finite")
        # relative to the recomputed cost below 1, so a small wrong cost fails
        size = abs(cost)
        if abs(cost - self.cost) > max(WITNESS_TOL * min(1.0, size), 1e-12 * size):
            raise ValueError("coupling cost mismatch")


def _seminorm_witness(
    mu: SignedMeasure, metric_name: str, mode: str, q: float | None = None
) -> tuple[float, LipschitzWitness]:
    """The integral of an optimal ``mode`` potential against mu, or against
    its moment weights for an exponent ``q``, and the potential as witness."""
    d = mu.space.metric(metric_name)
    w = mu.weights if q is None else moment_weights(mu.space.anchor_distances(metric_name), mu.weights, q)
    achieved, f = seminorm_potential(d, w, *absorbing_distances(d, mode, mu.space.anchor))
    return achieved, LipschitzWitness(metric_name, f, achieved, mode, q)


def kr_norm(mu: SignedMeasure, metric_name: str) -> tuple[float, LipschitzWitness]:
    """Bounded-Lipschitz seminorm: sup of the integral over 1-Lipschitz |f| <= 1."""
    return _seminorm_witness(mu, metric_name, "bounded")


def k_norm(mu: SignedMeasure, metric_name: str) -> tuple[float, LipschitzWitness]:
    """Anchored seminorm: sup over 1-Lipschitz f with f(x0) = 0, plus |mu(X)|."""
    achieved, witness = _seminorm_witness(mu, metric_name, "anchored")
    return achieved + abs(mu.total_mass), witness


def wasserstein_q(
    mu: SignedMeasure, nu: SignedMeasure, metric_name: str, q: float
) -> tuple[float, Coupling]:
    """q-coupling metric: (min coupling cost of d^q)^(1/q) with its coupling."""
    if not q >= 1:
        raise ValueError("q must be >= 1")
    mu._require_same_space(nu)
    if mu.weights.min(initial=0.0) < 0 or nu.weights.min(initial=0.0) < 0:
        raise ValueError("coupling metrics are defined for nonnegative measures")
    mass_mu = mu.total_mass
    mass_nu = nu.total_mass
    scale = max(float(mu.weights.max()), float(nu.weights.max()))
    if abs(mass_mu - mass_nu) > _mass_tol(scale, max(mass_mu, mass_nu)):
        raise ValueError(f"total masses differ by {abs(mass_mu - mass_nu):.3g}")
    if mass_mu <= 0:
        raise ValueError("total mass must be positive")

    d = mu.space.metric(metric_name)
    rows = np.flatnonzero(mu.weights)
    cols = np.flatnonzero(nu.weights)
    a = mu.weights[rows]
    b = nu.weights[cols] * (mass_mu / mass_nu)
    base = d[np.ix_(rows, cols)]
    cost_matrix = base if q == 1 else power_costs(base, q)
    sol = solve_transportation(a, b, cost_matrix)

    n = mu.space.n_points
    sigma = np.zeros((n, n))
    sigma[np.ix_(rows, cols)] = sol.flows
    value = max(sol.cost, 0.0) ** (1.0 / q)
    return value, Coupling(metric_name, float(q), sigma, sol.cost)


def kq_norm(mu: SignedMeasure, metric_name: str, q: float) -> tuple[float, LipschitzWitness]:
    """Moment-weighted seminorm: bounded seminorm of (1 + d(., x0)^q) . mu."""
    if not q >= 1:
        raise ValueError("q must be >= 1")
    return _seminorm_witness(mu, metric_name, "bounded", q)


def brute_force_dual(mu: SignedMeasure, metric_name: str, mode: str) -> float:
    """Oracle: the same optimum by enumerating every basic feasible solution.

    The bounded/anchored potential LP is re-expressed as a balanced
    transportation problem (surplus absorbed at unit cost by a slack location,
    or at true distance by the anchor), and the flows of every spanning tree
    of K_{p+1,m+1} (p positive, m negative atoms) are scanned without the
    simplex.  Supports are capped at 8 atoms: 4 + 4 give 390,625 trees.
    """
    supp = mu.support
    if len(supp) > ORACLE_SUPPORT_MAX:
        raise ValueError(f"oracle supports at most {ORACLE_SUPPORT_MAX} atoms, got {len(supp)}")
    d = mu.space.metric(metric_name)
    prob = seminorm_problem(d, mu.weights, *absorbing_distances(d, mode, mu.space.anchor))
    if prob is None:
        return 0.0
    value = min_cost_vertex(prob.a, prob.b, prob.C)
    return value + abs(mu.total_mass) if mode == "anchored" else value
