"""One-dimensional and product stable laws of order p in (1, 2].

The characteristic function is the skewed power-exponential form
exp(i t a - c |t|^p (1 - i b sign(t) tan(pi p / 2))); sampling uses the
trigonometric (Chambers-Mallows-Stuck) transform and is validated against
the characteristic function rather than trusted.  Orders p <= 1 are rejected
throughout (the tangent factor is singular at p = 1 and the convergence
results assume orders above some p1 > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reports import (
    BLOCK,
    CheckRecord,
    ConcentrationReport,
    barycenter_gap,
    bounded_sup,
    column_mean_std,
    column_means,
    half_width,
    max_z_check,
    mean_var,
    one_sided,
    reduce_each_law,
    row_blocks,
    row_norms,
    share,
    sorted_quantiles,
)
from .transport._transportation import absorbing_distances, moment_weights, seminorm_potential

DEFAULT_SAMPLES = 10**5
#: Block means behind a barycenter's half-width in the mean-convergence
#: experiment; each needs a draw, so ``n`` must be at least this many.
MEAN_BLOCKS = 16

#: Fixed grid where stable characteristic functions differ most.
CF_GRID = tuple(round(0.1 * k, 1) for k in range(1, 31))
#: Levels t of the empirical tails in ``stable_tail_check``, those of
#: ``np.geomspace(2.5, 25.0, 10)``.
TAIL_GRID = tuple(np.geomspace(2.5, 25.0, 10).tolist())
#: Slack of the tail-slope check: the fitted slope must be at most -p1 plus this.
SLOPE_MARGIN = 0.15
#: Quantile bins, so atoms, of each law's discretization in the
#: mean-convergence experiment.
QUANTILE_BINS = 64


@dataclass(frozen=True)
class StableSpec:
    """Stable law of order p with skew b, scale c, shift a, i.i.d. product dim."""

    p: float
    b: float = 0.0
    c: float = 1.0
    a: float = 0.0
    dim: int = 1

    def __post_init__(self):
        if not 1.0 + 1e-9 < self.p <= 2.0:
            raise ValueError("order p must lie in (1, 2]")
        if not -1.0 <= self.b <= 1.0:
            raise ValueError("skew b must lie in [-1, 1]")
        if not 0 < self.c < math.inf:
            raise ValueError("scale c must be positive and finite")
        if not math.isfinite(self.a):
            raise ValueError("shift a must be finite")
        if self.dim < 1:
            raise ValueError("dimension must be positive")


def stable_cf(t, spec: StableSpec):
    """Coordinate characteristic function at real t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    skew_factor = math.tan(math.pi * spec.p / 2.0)
    out = np.exp(
        1j * t * spec.a
        - spec.c * np.abs(t) ** spec.p * (1.0 - 1j * spec.b * np.sign(t) * skew_factor)
    )
    return complex(out) if out.ndim == 0 else out


def sample_stable(spec: StableSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. draws, shape (n, dim), via the trigonometric transform.

    The transform is

        a + c^(1/p) S sin(p (U + B)) / cos(U)^(1/p)
            * (cos(U - p (U + B)) / W)^((1 - p) / p),

    with U uniform on (-pi/2, pi/2) and W standard exponential, all of U
    drawn before W.  U is drawn whole; W is then drawn one block of rows
    (``row_blocks``) at a time, which continues the generator's stream as one
    whole draw would.  Each block is transformed on block-sized work arrays,
    in the order of the operations of that expression, and its result is
    written over its rows of U.  Every draw has the bits of the expression
    evaluated on whole arrays with a fresh array per step, and the only
    full-length array is U.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    p = spec.p
    zeta = spec.b * math.tan(math.pi * p / 2.0)
    B = math.atan(zeta) / p
    S = (1.0 + zeta * zeta) ** (1.0 / (2.0 * p))
    U = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(n, spec.dim))
    work = np.empty((4, min(n, BLOCK), spec.dim))
    for rows in row_blocks(n):
        u = U[rows]
        W, V, t, x = work[:, : len(u)]
        rng.standard_exponential(out=W)
        np.maximum(W, 1e-300, out=W)
        np.add(u, B, out=V)
        V *= p
        np.sin(V, out=x)
        np.cos(u, out=t)
        t **= 1.0 / p
        x /= t
        np.subtract(u, V, out=t)
        np.cos(t, out=t)
        t /= W
        t **= (1.0 - p) / p
        x *= S
        x *= t
        x *= spec.c ** (1.0 / p)
        np.add(x, spec.a, out=u)
    return U


def _cos_sin_moments(t: float, z: np.ndarray, tz: np.ndarray, wave: np.ndarray):
    """``mean_var`` of cos(t z) and of sin(t z), in that order; ``t z`` goes
    to ``tz``, overwritten by its sine, and its cosine to ``wave``, and each
    moment's deviations overwrite its array."""
    np.multiply(t, z, out=tz)
    return mean_var(np.cos(tz, out=wave), out=wave), mean_var(np.sin(tz, out=tz), out=tz)


def empirical_cf_gap(samples: np.ndarray, spec: StableSpec):
    """Per-point z-scores of the empirical vs exact characteristic function
    on ``CF_GRID``.

    Every grid point reuses two work arrays: ``t x``, overwritten by its
    sine, and its cosine; each moment's deviations overwrite its array.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    n = len(x)
    tx = np.empty(n)
    wave = np.empty(n)
    rows = []
    for t in CF_GRID:
        cf = stable_cf(t, spec)
        (mean_re, var_re), (mean_im, var_im) = _cos_sin_moments(t, x, tx, wave)
        hw_re = half_width(math.sqrt(var_re), n)
        hw_im = half_width(math.sqrt(var_im), n)
        z_re = abs(mean_re - cf.real) / max(hw_re / 3.0, 1e-300)
        z_im = abs(mean_im - cf.imag) / max(hw_im / 3.0, 1e-300)
        rows.append((float(t), mean_re, mean_im, cf.real, cf.imag, z_re, z_im))
    zmax = max(max(r[5], r[6]) for r in rows)
    return rows, zmax


def validate_sampler(spec: StableSpec, n: int = DEFAULT_SAMPLES, seed: int = 0) -> ConcentrationReport:
    """Empirical characteristic function match on ``CF_GRID``, at 3 SE."""
    samples = sample_stable(spec, n, seed)
    rows, zmax = empirical_cf_gap(samples[:, 0], spec)
    checks = [max_z_check("cf match (max z-score over grid)", zmax)]
    return ConcentrationReport(
        name="stable_cf",
        checks=tuple(checks),
        extras={"p": spec.p, "b": spec.b, "c": spec.c, "a": spec.a},
        curves={"cf": [(r[0], r[1], r[2], r[3], r[4]) for r in rows]},
    )


# ---------------------------------------------------------------------------
# Tail constants
# ---------------------------------------------------------------------------

K_CAP = 10**4


@dataclass(frozen=True)
class TailConstants:
    """Explicit constants assembling the power tail bound C t^-p1.

    delta in (2^-1/2, 1); k is minimal with (2^(1/2) delta)^k > 3; rho is the
    convergent product prod (1 + delta^n) truncated at relative error ~1e-13;
    beta = 2^(1/p) delta; the assembled coefficient 8 rho^p exp(8k) is held
    as its logarithm, which stays finite where the coefficient overflows.
    """

    delta: float
    p: float
    p1: float
    k: int
    rho: float
    beta: float
    log_coefficient: float

    def bound(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(self.log_coefficient - self.p1 * np.log(t))


def tail_constants(delta: float, p: float, p1: float | None = None) -> TailConstants:
    if not 2.0 ** (-0.5) < delta < 1.0:
        raise ValueError("delta must lie in (2^(-1/2), 1)")
    if not 1.0 < p <= 2.0:
        raise ValueError("order p must lie in (1, 2]")
    if p1 is None:
        p1 = p
    base = math.sqrt(2.0) * delta
    k = 1
    power = base
    while power <= 3.0:
        k += 1
        power *= base
        if k > K_CAP:
            raise ValueError(f"k exceeds the cap {K_CAP} (delta too close to 2^(-1/2))")
    log_rho = 0.0
    term = delta
    while term >= 1e-13:
        log_rho += math.log1p(term)
        term *= delta
    rho = math.exp(log_rho)
    log_coefficient = math.log(8.0) + p * log_rho + 8.0 * k
    return TailConstants(
        delta=delta,
        p=p,
        p1=float(p1),
        k=k,
        rho=rho,
        beta=2.0 ** (1.0 / p) * delta,
        log_coefficient=log_coefficient,
    )


def stable_tail_check(
    spec: StableSpec,
    p1: float,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    delta: float = 0.8,
) -> ConcentrationReport:
    """Power tail bound and log-log tail slope for a stable law.

    The seminorm |x_1| is rescaled so that 80% of its mass sits below 1 (so
    the sublevel fraction exceeds 3/4), then empirical tails on ``TAIL_GRID``
    are compared against C t^-p1 and the fitted slope is checked against -p1,
    within ``SLOPE_MARGIN`` (an order p below p1 violates the hypothesis; the
    slope check is then recorded as an expected failure).

    The seminorm values are sorted once, in place: the quantile is read off
    them (``sorted_quantiles``) and every count below or above a level is a
    binary search.  Rescaling by a positive number keeps them sorted.
    """
    if not p1 > 1:
        raise ValueError("p1 must exceed 1")
    u = np.ascontiguousarray(sample_stable(spec, n, seed)[:, 0])
    np.abs(u, out=u)
    u.sort()
    scale = float(sorted_quantiles(u, 0.8))
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("cannot rescale: the seminorm has no positive 80% quantile")
    u /= scale
    frac_below = share(np.searchsorted(u, 1.0, side="left"), n)[0]
    if not frac_below > 0.75:
        raise ValueError("rescaling failed to put 3/4 of the mass below 1")

    constants = tail_constants(delta, spec.p, p1)
    checks = []
    curve = []
    usable = []
    for t in TAIL_GRID:
        tail, hw = share(n - np.searchsorted(u, t, side="right"), n)
        bound = float(constants.bound(t))
        checks.append(one_sided(f"tail bound[t={t:.3g}]", tail, hw, bound))
        curve.append((float(t), tail, bound))
        if tail * n >= 25:
            usable.append((float(t), tail))
    # sub-power decay leaves fewer than 3 usable grid points: the slope reads
    # -inf, and the power bound holds vacuously
    slope = None
    if len(usable) >= 3:
        slope = float(
            np.polyfit(np.log([t for t, _ in usable]), np.log([v for _, v in usable]), 1)[0]
        )
    estimate = -math.inf if slope is None else slope
    checks.append(
        CheckRecord(
            name="tail slope",
            estimate=estimate,
            half_width=SLOPE_MARGIN,
            bound=-p1 + SLOPE_MARGIN,
            passed=estimate <= -p1 + SLOPE_MARGIN,
            expected_failure=p1 > spec.p + 1e-12,
        )
    )
    return ConcentrationReport(
        name="stable_tail",
        checks=tuple(checks),
        extras={
            "p": spec.p,
            "p1": p1,
            "delta": delta,
            "k": constants.k,
            "rho": constants.rho,
            "log_coefficient": constants.log_coefficient,
            "rescale": scale,
            "fraction_below_one": frac_below,
            "slope": slope,
        },
        curves={"tail": curve},
    )


def stability_identity_check(
    spec: StableSpec,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Two-sample test of the defining identity for a strictly stable law.

    For independent draws xi, eta, zeta, the law of alpha xi + beta eta must
    match the law of (alpha^p + beta^p)^(1/p) zeta; at alpha = beta = 1 that
    is xi + eta against 2^(1/p) zeta, compared through empirical
    characteristic functions on ``CF_GRID`` at 3 SE.

    ``z1 = xi + eta`` and ``z2 = 2^(1/p) zeta`` are formed in place over the
    draws of xi and zeta, and every grid point reuses two work arrays, as
    ``empirical_cf_gap`` does; each mean and variance has the bits of
    numpy's ``mean`` and ``var``.
    """
    if spec.a != 0.0 or spec.b != 0.0:
        raise ValueError("the two-sample identity check requires a = 0 and b = 0")
    ss = np.random.SeedSequence(seed)
    s1, s2, s3 = ss.spawn(3)
    z1 = np.ascontiguousarray(sample_stable(spec, n, s1)[:, 0])
    z1 += sample_stable(spec, n, s2)[:, 0]
    z2 = np.ascontiguousarray(sample_stable(spec, n, s3)[:, 0])
    z2 *= 2.0 ** (1.0 / spec.p)
    tz = np.empty(n)
    wave = np.empty(n)
    zmax = 0.0
    curve = []
    for t in CF_GRID:
        (re1, var_re1), (im1, var_im1) = _cos_sin_moments(t, z1, tz, wave)
        (re2, var_re2), (im2, var_im2) = _cos_sin_moments(t, z2, tz, wave)
        se_re = math.sqrt(var_re1 / n + var_re2 / n)
        se_im = math.sqrt(var_im1 / n + var_im2 / n)
        z_re = abs(re1 - re2) / max(se_re, 1e-300)
        z_im = abs(im1 - im2) / max(se_im, 1e-300)
        zmax = max(zmax, z_re, z_im)
        curve.append((float(t), re1, re2, z_re, z_im))
    checks = [max_z_check("two-sample cf distance (max z)", zmax)]
    return ConcentrationReport(
        name="stability_identity",
        checks=tuple(checks),
        extras={"coeffs": [1.0, 1.0], "p": spec.p},
        curves={"cf_pair": curve},
    )


# ---------------------------------------------------------------------------
# Mean convergence with discretized seminorm gaps
# ---------------------------------------------------------------------------


def _quantile_bins(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantile edges of a 1-D sample, each value's bin and each bin's count,
    from one sort.

    The edges are read off the sorted sample (``sorted_quantiles``), bit for
    bit ``np.quantile`` of it (a zero edge may carry the other sign, which
    compares equal).  A value's bin is
    ``clip(searchsorted(qs, v, "right") - 1, 0, bins - 1)``: the number of
    inner edges ``qs[1:bins]`` at or below it.  So the sorted sample falls
    into runs, bin k starting at the first value not below ``qs[k]`` (one
    binary search per inner edge), and the runs' bins are scattered back to
    the sample's order.  Any sort will do, ties in any order, because a
    value's bin depends only on the value.  The runs' lengths are the bins'
    counts, those of ``np.bincount(idx, minlength=bins)``.
    """
    n = len(values)
    order = np.argsort(values)
    ordered = values[order]
    qs = sorted_quantiles(ordered, np.linspace(0.0, 1.0, bins + 1))
    starts = np.searchsorted(ordered, qs[1:bins], side="left")
    del ordered
    counts = np.diff(starts, prepend=0, append=n)
    idx = np.empty(n, dtype=np.intp)
    idx[order] = np.repeat(np.arange(bins), counts)
    return qs, idx, counts


def _quantile_binned(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Quantile-bin a 1-D sample: (atom positions, probability weights, error).

    The error is the mean absolute within-bin deviation, the transport cost of
    snapping samples to their bin means; it shrinks as bins grow.  The bins
    and their counts come from one sort (``_quantile_bins``); sums and
    deviations are accumulated over the sample in its own order, so every
    in-bin sum adds its terms in the order they were drawn.
    """
    qs, idx, counts = _quantile_bins(values, bins)
    n = len(values)
    sums = np.bincount(idx, weights=values, minlength=bins)
    # an empty bin keeps its left quantile as atom, with weight 0
    atoms = np.where(counts > 0, sums / np.maximum(counts, 1), qs[:bins])
    weights = counts / n
    spread = np.take(atoms, idx)
    np.subtract(values, spread, out=spread)
    deviation = np.bincount(idx, weights=np.abs(spread, out=spread), minlength=bins)
    err = sum((deviation / n).tolist())
    return atoms, weights, err


def _binned_gap(
    x: tuple[np.ndarray, np.ndarray, float], y: tuple[np.ndarray, np.ndarray, float], q: float
) -> tuple[float, float]:
    """Moment-weighted seminorm gap between two 1-D samples, each binned by
    ``_quantile_binned``, and the sum of their binning errors."""
    ax, wx, ex = x
    ay, wy, ey = y
    pts = np.concatenate([[0.0], ax, ay])
    # |x_i - x_j| is a metric by construction, so the space is not validated;
    # this is kq_norm with the anchor at the origin
    d = np.abs(pts[:, None] - pts[None, :])
    moments = moment_weights(d[:, 0], np.concatenate([[0.0], wx, -wy]), q)
    return seminorm_potential(d, moments, *absorbing_distances(d, "bounded", 0))[0], ex + ey


def stable_mean_convergence_experiment(
    specs: Sequence[StableSpec],
    limit: StableSpec,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Moments, barycenters and discretized seminorm gaps along stable laws.

    p1 is the smallest order of the laws and the limit.  Power moments use
    the exponent r = (1 + p1) / 2, strictly between 1 and p1 (uniform
    boundedness of these is what drives barycenter convergence); barycenter
    noise scales are estimated from ``MEAN_BLOCKS`` block means because the
    variance is infinite below order 2.  Moment-weighted gaps with the same
    exponent q = r are reported on ``QUANTILE_BINS``-atom quantile
    discretizations for dim-1 specs.

    Each distinct law is drawn and reduced once per call, the limit first:
    a spec equal to the limit, or to an earlier spec, has the same seed and
    so the same draws, and reuses their moment, barycenter and binning.
    """
    p1 = min([s.p for s in specs] + [limit.p])
    r = q = (1.0 + p1) / 2.0
    if n < MEAN_BLOCKS:
        raise ValueError(f"n = {n} draws cannot fill {MEAN_BLOCKS} block means: n must be at least {MEAN_BLOCKS}")

    def block_hw(xs: np.ndarray) -> float:
        k = MEAN_BLOCKS
        means = xs[: (len(xs) // k) * k].reshape(k, -1, xs.shape[1]).mean(axis=1)
        return half_width(float(column_mean_std(means)[1].max()), k)

    def reduce(s: StableSpec, law_seed):
        """Moment, barycenter, its half-width and the binning of one law."""
        xs = sample_stable(s, n, law_seed)
        ax = np.abs(xs[:, 0]) if s.dim == 1 else row_norms(xs)
        ax **= r
        m_r = float(ax.mean())
        del ax
        bary = column_means(xs)
        binned = _quantile_binned(xs[:, 0], QUANTILE_BINS) if s.dim == 1 and limit.dim == 1 else None
        bary.setflags(write=False)
        if binned is not None:
            binned[0].setflags(write=False)
            binned[1].setflags(write=False)
        return m_r, bary, block_hw(xs), binned

    (_, limit_bary, limit_hw, limit_binned), reductions = reduce_each_law(
        reduce, limit, specs, seed
    )

    per_index = []
    kgaps = []
    for i, (m_r, bary, hw, binned) in enumerate(reductions):
        row = {
            "index": i,
            "barycenter": bary.tolist(),
            "barycenter_half_width": hw,
            f"moment[r={r:g}]": m_r,
        }
        if binned is not None:
            gap, bin_err = _binned_gap(binned, limit_binned, q)
            row[f"k_gap[q={q:g}]"] = gap
            row["binning_error"] = bin_err
            kgaps.append(gap)
        per_index.append(row)

    _, final_bary, final_hw, _ = reductions[-1]
    moments_bounded = bounded_sup(f"moments r={r:g} uniformly bounded", [m_r for m_r, *_ in reductions])
    checks = [
        moments_bounded,
        barycenter_gap("final barycenter gap vs limit", final_bary, limit_bary, final_hw + limit_hw),
    ]
    extras = {
        "p1": p1,
        "q": q,
        "r": r,
        "limit_barycenter": limit_bary.tolist(),
        "per_index": per_index,
        "moment_sup": moments_bounded.estimate,
    }
    if kgaps:
        extras["k_gaps"] = kgaps
    return ConcentrationReport(
        name="stable_mean_convergence",
        checks=tuple(checks),
        extras=extras,
    )
