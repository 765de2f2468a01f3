"""Constructive counterexample artifacts.

Two constructions: a signed measure on basis atoms that lies in any weak
neighborhood of zero cut out by n test functions while its barycenter keeps
unit l1 norm, and the block rescaling schedule (boundaries, scale factors,
seminorm assignment) certifying summable tail masses and scaled tail
integrals for a uniformly integrable family.

The measure's weights are the last right singular vector of the n x (n+1)
test-value matrix scaled to max |entry| 1, with its first clearly nonzero
entry made positive and its l1 norm made 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import PseudometricSpace, SignedMeasure
from .reports import BLOCK, row_blocks


class ScheduleInfeasibleError(RuntimeError):
    def __init__(self, n: int, horizon: int):
        super().__init__(
            f"tail function {n} does not drop below 4^-{n} within the search horizon {horizon}"
        )
        self.n = n
        self.horizon = horizon


# ---------------------------------------------------------------------------
# Weak-null measures with unit barycenter norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class L1CounterexampleInstance:
    """Signed measure on n+1 basis atoms annihilating n test functions.

    ``F[i][j]`` holds the i-th test function at the j-th basis atom; ``c`` is
    the normalized annihilating weight vector, so the measure sum_j c_j d_{e_j}
    integrates every test function to zero while its barycenter sum_j c_j e_j
    has l1 norm exactly sum_j |c_j| = 1.
    """

    F: np.ndarray
    c: np.ndarray
    eps: float = 1e-6

    @property
    def n(self) -> int:
        return self.F.shape[0]

    def residuals(self) -> np.ndarray:
        return self.F @ self.c

    def barycenter_coordinates(self) -> np.ndarray:
        return self.c.copy()

    def signed_measure(self) -> SignedMeasure:
        k = len(self.c)
        metric = 2.0 * (1.0 - np.eye(k))
        space = PseudometricSpace(
            points=tuple(f"e{j + 1}" for j in range(k)),
            metrics={"l1": metric},
            anchor=0,
            coords=np.eye(k),
        )
        return space.measure(self.c)


def l1_counterexample(F, eps: float = 1e-6) -> L1CounterexampleInstance:
    """Canonical annihilating measure for an n x (n+1) test-value matrix."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n, k = F.shape
    if k != n + 1:
        raise ValueError(f"expected an n x (n+1) matrix, got {n} x {k}")
    if not np.all(np.isfinite(F)):
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(F).max())
    if scale == 0.0:
        c = np.zeros(k)
        c[0] = 1.0
        return L1CounterexampleInstance(F=F, c=c, eps=eps)
    # the reduced SVD drops the null direction: the last row of the full Vt
    c = np.linalg.svd(F / scale)[2][-1]
    for x in c:
        if abs(x) > 1e-12:
            if x < 0:
                c = -c
            break
    c = c / math.fsum(np.abs(c).tolist())
    return L1CounterexampleInstance(F=F, c=c, eps=eps)


def verify_counterexample(inst: L1CounterexampleInstance) -> dict:
    """Check neighborhood membership, normalization and barycenter norm.

    The instance's ``eps`` is absolute, because the weak neighbourhood it
    tests is: the measure is in it when ``max |F c| < eps`` for the
    instance's test-value matrix ``F``.  A matrix of scale 1e10 leaves a
    residual of about 1e-6 with a correct null vector, and the FAIL at
    ``eps = 1e-6`` is then right: the computed measure lies outside that
    neighbourhood.
    """
    eps = inst.eps
    residuals = inst.residuals()
    max_residual = float(np.abs(residuals).max()) if residuals.size else 0.0
    l1 = math.fsum(np.abs(inst.c).tolist())
    bary_l1 = math.fsum(np.abs(inst.barycenter_coordinates()).tolist())
    checks = {
        "neighborhood_membership": max_residual < eps,
        "normalization": abs(l1 - 1.0) <= 1e-12,
        "barycenter_unit_norm": abs(bary_l1 - 1.0) <= 1e-12,
    }
    return {
        "eps": eps,
        "max_residual": max_residual,
        "weight_l1_norm": l1,
        "barycenter": inst.barycenter_coordinates().tolist(),
        "barycenter_l1_norm": bary_l1,
        "checks": checks,
        "passed": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# Rescaling schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RescalingSchedule:
    """Block boundaries N_n with block-constant scale factors and seminorms.

    Indices k <= N_2 use scale 1 and the first seminorm; indices in
    (N_{n+1}, N_{n+2}] use scale 2^-n and the n-th seminorm.  Boundaries must
    grow faster than 2^n N_n.
    """

    boundaries: tuple[int, ...]  # N_1, N_2, ...
    horizon: int

    @property
    def depth(self) -> int:
        return len(self.boundaries)

    @property
    def max_index(self) -> int:
        return self.boundaries[-1]

    def validate(self) -> list[str]:
        problems = []
        N = self.boundaries
        if any(N[i + 1] <= N[i] for i in range(len(N) - 1)):
            problems.append("boundaries are not strictly increasing")
        for i in range(len(N) - 1):
            if not N[i + 1] > 2 ** (i + 1) * N[i]:
                problems.append(
                    f"boundary {i + 2} violates the doubling constraint: "
                    f"{N[i + 1]} <= 2^{i + 1} * {N[i]}"
                )
        return problems

    def blocks(self, ks: np.ndarray) -> np.ndarray:
        """Block number n >= 0 of each index of an array: block 0 is
        k <= N_2, block n is (N_{n+1}, N_{n+2}]."""
        if np.any(ks < 1) or np.any(ks > self.max_index):
            raise ValueError("index out of schedule coverage")
        # N[n] = N_{n+1}; block n covers N[n] < k <= N[n+1], and k <= N[1] is block 0
        return np.maximum(np.searchsorted(self.boundaries, ks, side="left") - 1, 0)


def rescaling_schedule(
    tails: Sequence[Callable[[float], float]],
    horizon: int = 10**5,
) -> RescalingSchedule:
    """Smallest boundaries with T_n(N_n) < 4^-n under the doubling constraint.

    ``tails[n-1]`` is the n-th family tail integral as a nonincreasing
    function of the radius; ``horizon`` bounds the search range above each
    doubling lower bound.
    """
    if not tails:
        raise ValueError("at least one tail function is required")
    boundaries: list[int] = []
    for n, T in enumerate(tails, start=1):
        lower = 1 if n == 1 else 2 ** (n - 1) * boundaries[-1] + 1
        threshold = 4.0 ** (-n)
        found = None
        for m in range(lower, lower + horizon):
            if T(float(m)) < threshold:
                found = m
                break
        if found is None:
            raise ScheduleInfeasibleError(n, horizon)
        boundaries.append(found)
    sched = RescalingSchedule(boundaries=tuple(boundaries), horizon=horizon)
    problems = sched.validate()
    if problems:  # pragma: no cover - construction satisfies the constraints
        raise RuntimeError("; ".join(problems))
    return sched


@dataclass(frozen=True)
class ScheduleCertificate:
    n: int
    tail_mass_sum: float
    tail_mass_bound: float
    scaled_integral_sup: float
    scaled_integral_bound: float

    @property
    def passed(self) -> bool:
        return (
            self.tail_mass_sum <= self.tail_mass_bound + 1e-12
            and self.scaled_integral_sup <= self.scaled_integral_bound + 1e-12
        )


@dataclass(frozen=True)
class ScheduleReport:
    horizon: int
    certificates: tuple[ScheduleCertificate, ...]
    invariant_violations: tuple[str, ...]
    passed: bool


def verify_schedule(
    sched: RescalingSchedule,
    family: Sequence,
    horizon: int | None = None,
    n_max: int | None = None,
) -> ScheduleReport:
    """Certify the block bounds realized by the schedule over a family.

    Family members expose vectorized ``tail_mass(n, thresholds)`` returning
    mu(p_n > t) and ``tail_integral(n, t)`` returning the integral of p_n over
    {p_n > t}.  For each n the certificate checks the summed tail masses
    beyond boundary n against 2^(1-n) and the sup of the scaled tail
    integrals over block n against 2^-n.  Blocks 1 to ``n_max`` are
    certified; ``n_max`` lies between 1 and one less than the number of
    boundaries, so a report always holds a certificate.
    """
    N = sched.boundaries
    if len(N) < 2:
        raise ValueError("a schedule of one boundary has no block to certify")
    if n_max is None:
        n_max = max(1, len(N) - 2)
    if not 1 <= n_max < len(N):
        raise ValueError(f"n_max = {n_max} is outside the certifiable blocks 1 to {len(N) - 1}")
    if horizon is None:
        horizon = min(sched.horizon, sched.max_index)
    if horizon > sched.max_index:
        raise ValueError(
            f"verification horizon {horizon} exceeds schedule coverage {sched.max_index}"
        )
    if horizon < 1:
        raise ValueError(f"verification horizon {horizon} holds no index to certify")
    violations = tuple(sched.validate())

    # each member's tail mass at every k: block n sums the suffix k > N_{n+1},
    # the slice [N_{n+1}:] since k starts at 1, and a pairwise sum's bits
    # depend on the whole slice, so these are the only arrays as long as the
    # horizon.  Every other step is elementwise or a max, so k is walked one
    # row block at a time, each seminorm index over its own cut of a block.
    tail_masses = [np.empty(horizon) for _ in family]
    for rows in row_blocks(horizon):
        ks = np.arange(rows.start + 1, rows.stop + 1)
        blocks = sched.blocks(ks)
        qidx = np.maximum(blocks, 1)
        thresholds = ks * np.ldexp(1.0, -blocks.astype(np.intc))
        cuts = [0, *((qidx[1:] != qidx[:-1]).nonzero()[0] + 1).tolist(), len(ks)]
        for member, per_k in zip(family, tail_masses):
            for lo, hi in zip(cuts, cuts[1:]):
                per_k[rows.start + lo : rows.start + hi] = member.tail_mass(int(qidx[lo]), thresholds[lo:hi])

    certificates = []
    for n in range(1, n_max + 1):
        mass_sum = 0.0
        for per_k in tail_masses:
            mass_sum = max(mass_sum, float(per_k[N[n] :].sum()))

        # a member's sup over block n is the np.max of its row blocks' maxima:
        # a NaN in any row block makes it NaN, which max() below skips, as it
        # skipped the NaN of one whole-block np.max
        sup_scaled = 0.0
        block_lo = N[n]
        block_hi = min(N[n + 1] if n + 1 < len(N) else horizon, horizon)
        alpha = 2.0 ** (-n)
        for member in family:
            tops = []
            for rows in row_blocks(block_hi - block_lo):
                bks = np.arange(block_lo + rows.start + 1, block_lo + rows.stop + 1)
                tops.append(np.max(member.tail_integral(n, bks * alpha) / alpha))
            if tops:
                sup_scaled = max(sup_scaled, float(np.max(tops)))
        certificates.append(
            ScheduleCertificate(
                n=n,
                tail_mass_sum=mass_sum,
                tail_mass_bound=2.0 ** (1 - n),
                scaled_integral_sup=sup_scaled,
                scaled_integral_bound=2.0 ** (-n),
            )
        )
    passed = not violations and all(c.passed for c in certificates)
    return ScheduleReport(
        horizon=horizon,
        certificates=tuple(certificates),
        invariant_violations=violations,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Tail families
# ---------------------------------------------------------------------------


class DiscreteTailMember:
    """Measure given by atom weights and per-seminorm atom values."""

    def __init__(self, weights, values):
        self.weights = np.abs(np.asarray(weights, dtype=float))
        self.values = np.atleast_2d(np.asarray(values, dtype=float))
        if self.values.shape[1] != len(self.weights):
            raise ValueError("one value per atom and seminorm is required")

    def _vals(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.values.shape[0]:
            raise ValueError(f"seminorm index {n} out of range")
        return self.values[n - 1]

    def tail_mass(self, n: int, thresholds) -> np.ndarray:
        return _atom_tail_sums(self.weights, self._vals(n), thresholds)

    def tail_integral(self, n: int, thresholds) -> np.ndarray:
        v = self._vals(n)
        return _atom_tail_sums(self.weights * v, v, thresholds)


def _atom_tail_sums(w: np.ndarray, v: np.ndarray, thresholds) -> np.ndarray:
    """sum_j w_j [v_j > t] at each threshold t, over blocks of at most
    ``BLOCK`` (threshold, atom) cells.  Each sum reads its own row of cells
    alone, so the blocks keep the bits of one whole (thresholds, atoms) pass."""
    t = np.atleast_1d(np.asarray(thresholds, dtype=float))
    out = np.empty(len(t))
    step = max(1, BLOCK // max(1, len(v)))
    for lo in range(0, len(t), step):
        out[lo : lo + step] = (w[None, :] * (v[None, :] > t[lo : lo + step, None])).sum(axis=1)
    return out


class GeometricTailMember:
    """Closed-form member: weight 2^-j at radius j for every seminorm index.

    Exact tails: mu(p > t) = 2^-floor(t), integral over {p > t} of p equals
    (floor(t) + 2) 2^-floor(t) for t >= 0.
    """

    def tail_mass(self, n: int, thresholds) -> np.ndarray:
        return _exp2_neg(_whole_radius(thresholds))

    def tail_integral(self, n: int, thresholds) -> np.ndarray:
        t = _whole_radius(thresholds)
        return (t + 2.0) * _exp2_neg(t)


def _whole_radius(thresholds) -> np.ndarray:
    return np.floor(np.maximum(np.atleast_1d(np.asarray(thresholds, dtype=float)), 0.0))


def _exp2_neg(t: np.ndarray) -> np.ndarray:
    """``2.0 ** -t`` for whole t >= 0, +inf or NaN, bit for bit, by setting
    the exponent: several times faster than the power on long arrays.  From
    t = 1075 on the power rounds to 0, as ``ldexp`` does there, and for a NaN
    it returns the NaN exponent itself."""
    e = -t
    out = np.ldexp(1.0, np.fmax(e, -1075.0).astype(np.intc))
    np.copyto(out, e, where=np.isnan(e))
    return out


def family_tail_functions(family: Sequence, depth: int) -> list[Callable[[float], float]]:
    """T_n(m) = sup over the family of the n-th tail integral at radius m."""

    def make(n: int) -> Callable[[float], float]:
        def T(m: float) -> float:
            return max(float(member.tail_integral(n, [m])[0]) for member in family)

        return T

    return [make(n) for n in range(1, depth + 1)]
