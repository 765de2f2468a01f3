"""Samplers and Monte-Carlo checks for log-concave product/linear-image laws.

Built-in families (Gaussian, uniform box, uniform solid simplex, product
exponential) are known log-concave instances; log-concavity is assumed from
the family tag, not verified from samples.  Checks are one-sided at three
standard errors, with theorem-true inequalities expected to pass essentially
always; estimates are deterministic per seed with fixed reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .reports import (
    CheckRecord,
    ConcentrationReport,
    half_width,
    mean_std,
    one_sided,
    reduce_each_law,
    two_sided,
)

DEFAULT_SAMPLES = 10**5
SLOPE_SAMPLES = 10**6


@dataclass(frozen=True)
class LogConcaveSpec:
    """Tagged log-concave family with its parameters."""

    family: str
    dim: int
    mean: tuple[float, ...] | None = None
    cov: tuple[tuple[float, ...], ...] | None = None
    lo: tuple[float, ...] | None = None
    hi: tuple[float, ...] | None = None
    rates: tuple[float, ...] | None = None

    @staticmethod
    def gaussian(mean, cov) -> "LogConcaveSpec":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (len(mean), len(mean)):
            raise ValueError("covariance shape does not match the mean")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be positive semidefinite")
        return LogConcaveSpec(
            "gaussian", len(mean), mean=tuple(mean), cov=tuple(map(tuple, cov))
        )

    @staticmethod
    def uniform_box(lo, hi) -> "LogConcaveSpec":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box bounds must satisfy lo < hi coordinatewise")
        return LogConcaveSpec("uniform_box", len(lo), lo=tuple(lo), hi=tuple(hi))

    @staticmethod
    def uniform_simplex(dim: int) -> "LogConcaveSpec":
        if dim < 1:
            raise ValueError("dimension must be positive")
        return LogConcaveSpec("uniform_simplex", dim)

    @staticmethod
    def product_exponential(rates) -> "LogConcaveSpec":
        rates = np.atleast_1d(np.asarray(rates, dtype=float))
        if np.any(rates <= 0):
            raise ValueError("rates must be positive")
        return LogConcaveSpec("product_exponential", len(rates), rates=tuple(rates))


def sample(spec: LogConcaveSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. draws, shape (n, dim), deterministic per seed.

    The Gaussian and product-exponential draws shift or scale their
    standard draws in place; each entry sees the same single operation as in
    ``mean + z @ root.T`` and ``e / rates``, so the bits are those of the
    out-of-place expressions.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    if spec.family == "gaussian":
        mean = np.asarray(spec.mean)
        cov = np.asarray(spec.cov)
        vals, vecs = np.linalg.eigh(cov)
        root = vecs * np.sqrt(np.maximum(vals, 0.0))[None, :]
        z = rng.standard_normal((n, spec.dim))
        x = z @ root.T
        x += mean
        return x
    if spec.family == "uniform_box":
        lo = np.asarray(spec.lo)
        hi = np.asarray(spec.hi)
        return rng.uniform(lo, hi, size=(n, spec.dim))
    if spec.family == "uniform_simplex":
        # Dirichlet(1,...,1) on dim+1 coordinates projects to the solid simplex
        g = rng.standard_exponential((n, spec.dim + 1))
        return g[:, : spec.dim] / g.sum(axis=1, keepdims=True)
    if spec.family == "product_exponential":
        x = rng.standard_exponential((n, spec.dim))
        x /= np.asarray(spec.rates)
        return x
    raise ValueError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# Seminorm evaluators
# ---------------------------------------------------------------------------

def _l2(x: np.ndarray) -> np.ndarray:
    """Row norms with the bits of ``np.sqrt((x * x).sum(axis=1))``.

    Below 8 terms numpy's row sum adds the squares left to right, so one
    accumulator over the columns gives the same bits without the (n, dim)
    temporary; from 8 terms on its pairwise sum unrolls 8 ways and adds in
    another order, so the row sum itself is kept there.
    """
    dim = x.shape[1]
    if dim >= 8:
        return np.sqrt((x * x).sum(axis=1))
    acc = x[:, 0] * x[:, 0]
    for j in range(1, dim):
        acc += x[:, j] * x[:, j]
    return np.sqrt(acc, out=acc)


def _column_mean_std(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std with the bits of ``xs.mean(axis=0)`` and
    ``xs.std(axis=0)``.

    On a C-contiguous array with two or more columns numpy reduces axis 0
    row by row, so each column is summed strictly left to right: that is the
    last entry of ``np.cumsum`` of the column, which streams one column at a
    time instead of running an inner loop of length dim per row.  A single
    column is one contiguous vector, which numpy sums pairwise, as
    ``mean_std`` does.  Other layouts can reduce in another order and keep
    numpy's own reductions.
    """
    n, dim = xs.shape
    if dim == 1:
        m, s = mean_std(xs[:, 0])
        return np.array([m]), np.array([s])
    if not xs.flags.c_contiguous:
        return xs.mean(axis=0), xs.std(axis=0)
    means = np.empty(dim)
    stds = np.empty(dim)
    for j in range(dim):
        col = xs[:, j]
        means[j] = np.cumsum(col)[-1] / n
        d = col - means[j]
        d *= d
        stds[j] = np.sqrt(np.cumsum(d, out=d)[-1] / n)
    return means, stds


SEMINORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "abs": lambda x: np.abs(x[:, 0]),
    "l2": _l2,
    "sup": lambda x: np.abs(x).max(axis=1),
    "abs_sum": lambda x: np.abs(x.sum(axis=1)),
}


def seminorm(name_or_fn) -> Callable[[np.ndarray], np.ndarray]:
    if callable(name_or_fn):
        return name_or_fn
    try:
        return SEMINORMS[name_or_fn]
    except KeyError:
        raise KeyError(f"unknown seminorm {name_or_fn!r}; have {sorted(SEMINORMS)}") from None


# ---------------------------------------------------------------------------
# Concentration bound and checks
# ---------------------------------------------------------------------------


def borell_bound(theta: float, t: float) -> float:
    """Tail bound ((1 - theta)/theta)^(t/2) for an absolutely convex set of mass theta."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if t < 1:
        raise ValueError("the bound is stated for t >= 1")
    return ((1.0 - theta) / theta) ** (t / 2.0)


def _fraction(mask: np.ndarray) -> tuple[float, float]:
    n = len(mask)
    p = float(np.count_nonzero(mask)) / n
    return p, half_width(math.sqrt(p * (1.0 - p)), n)


def check_borell(
    spec: LogConcaveSpec,
    q,
    c: float,
    ts: Sequence[float],
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Empirical tails of a seminorm against the log-concave tail bound.

    The sublevel set {q < c} plays the absolutely convex set; its empirical
    mass must exceed 1/2 significantly, and the bound is evaluated at the
    conservative theta (estimate minus half-width).
    """
    qfn = seminorm(q)
    values = qfn(sample(spec, n, seed))
    theta, theta_hw = _fraction(values < c)
    if not theta > 0.5 + theta_hw:
        raise ValueError(f"set mass {theta:.4f} is not significantly above 1/2")
    theta_lo = theta - theta_hw
    checks = []
    curve = []
    for t in ts:
        tail, tail_hw = _fraction(values >= c * t)
        bound = borell_bound(theta_lo, t)
        checks.append(one_sided(f"tail[t={t:g}]", tail, tail_hw, bound))
        curve.append((float(t), tail, bound))
    return ConcentrationReport(
        name="borell",
        sample_count=n,
        seed=seed,
        checks=tuple(checks),
        extras={"theta": theta, "theta_half_width": theta_hw, "c": c},
        curves={"tail": curve},
    )


def exp_moment(samples: np.ndarray, q, kappa: float) -> tuple[float, float]:
    """Empirical mean of exp(kappa * q) with its half-width."""
    return _exp_moment(seminorm(q)(np.atleast_2d(samples)), kappa)


def _exp_moment(values: np.ndarray, kappa: float) -> tuple[float, float]:
    """``exp_moment`` from the seminorm values themselves."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    exponents = kappa * values
    top = float(exponents.max(initial=0.0))
    if top > 700.0:
        raise ValueError(
            f"kappa {kappa:g} overflows exp at observed seminorm scale {top / max(kappa, 1e-300):.3g}"
        )
    est, std = mean_std(np.exp(exponents, out=exponents))
    return est, half_width(std, len(values))


def _power_moment(values: np.ndarray, r: float) -> tuple[float, float]:
    """Mean of values**r with its half-width."""
    est, std = mean_std(values if r == 1 else values**r)
    return est, half_width(std, len(values))


@dataclass(frozen=True)
class KappaPolicy:
    """Exponent choice: half the divergence threshold over the sublevel scale.

    theta_target picks c as an empirical quantile of the limit law; kappa is
    then -ln(tau)/(2 c) for tau = ((1-theta)/theta)^(1/2).
    """

    theta_target: float = 0.75

    def choose(self, limit_values: np.ndarray) -> tuple[float, float, float]:
        c = float(np.quantile(limit_values, self.theta_target))
        if c <= 0:
            raise ValueError("sublevel scale must be positive")
        theta, hw = _fraction(limit_values < c)
        if theta <= 0.5:
            raise ValueError("kappa policy yields nonpositive kappa (theta <= 1/2)")
        tau = math.sqrt((1.0 - theta) / theta)
        kappa = -math.log(tau) / (2.0 * c)
        if kappa <= 0:
            raise ValueError("kappa policy yields nonpositive kappa")
        return kappa, c, theta


def mean_convergence_experiment(
    specs: Sequence[LogConcaveSpec],
    limit: LogConcaveSpec,
    qs: Mapping[str, object] | Sequence[str] = ("l2",),
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    kappa_policy: KappaPolicy = KappaPolicy(),
    rs: Sequence[float] = (1.0, 2.0),
) -> ConcentrationReport:
    """Exponential moments, power moments and barycenters along a sequence.

    Verifies that the final-index estimates agree with the limit law's within
    combined half-widths; reports the full per-index curves.  Each distinct
    law is drawn and reduced once per call, the limit first: a spec equal to
    the limit, or to an earlier spec, has the same seed and so the same
    draws, and reuses their moments, barycenter and half-width.
    """
    if isinstance(qs, Mapping):
        q_items = list(qs.items())
    else:
        q_items = [(str(name), name) for name in qs]
    q_fns = [(name, seminorm(fn)) for name, fn in q_items]
    kappas = {}

    def reduce(s: LogConcaveSpec, law_seed):
        """Moments, barycenter and its half-width of one law; the first law
        reduced, the limit, picks each seminorm's exponent."""
        xs = sample(s, n, law_seed)
        stats: dict[str, tuple[float, float]] = {}
        for name, fn in q_fns:
            values = fn(xs)
            if name not in kappas:
                kappa, c, theta = kappa_policy.choose(values)
                kappas[name] = {"kappa": kappa, "c": c, "theta": theta}
            stats[f"exp[{name}]"] = _exp_moment(values, kappas[name]["kappa"])
            for r in rs:
                stats[f"moment[{name},r={r:g}]"] = _power_moment(values, r)
        bary, std = _column_mean_std(xs)
        bary.setflags(write=False)
        return stats, bary, half_width(float(std.max()), n)

    (limit_stats, limit_bary, limit_bary_hw), reductions = reduce_each_law(
        reduce, limit, specs, seed
    )

    per_index = []
    final: dict[str, tuple[float, float]] = {}
    bary_gap_final = 0.0
    bary_hw_final = 0.0
    for i, (stats, bary, bary_hw) in enumerate(reductions):
        final.update(stats)
        per_index.append(
            {"index": i, **stats, "barycenter": bary.tolist(), "barycenter_half_width": bary_hw}
        )
        bary_gap_final = float(np.abs(bary - limit_bary).max())
        bary_hw_final = bary_hw

    checks = [
        two_sided(
            f"final {key} vs limit",
            est,
            hw + limit_stats[key][1],
            limit_stats[key][0],
        )
        for key, (est, hw) in sorted(final.items())
    ]
    checks.append(
        one_sided("final barycenter gap", bary_gap_final, 0.0, bary_hw_final + limit_bary_hw)
    )
    return ConcentrationReport(
        name="mean_convergence",
        sample_count=n,
        seed=seed,
        checks=tuple(checks),
        extras={
            "kappas": kappas,
            "limit": dict(limit_stats),
            "limit_barycenter": limit_bary.tolist(),
            "per_index": per_index,
        },
    )


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialSpec:
    """Polynomial as a coefficient map over exponent multi-indices."""

    degree: int
    terms: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        terms = {tuple(int(e) for e in k): float(v) for k, v in dict(self.terms).items()}
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if any(sum(k) > self.degree for k in terms):
            raise ValueError("a term exceeds the declared degree")
        if not any(sum(k) == self.degree and v != 0 for k, v in terms.items()):
            raise ValueError("no nonzero term of the declared degree")
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_1d_coeffs(coeffs: Sequence[float]) -> "PolynomialSpec":
        coeffs = [float(c) for c in coeffs]
        degree = max(i for i, c in enumerate(coeffs) if c != 0)
        return PolynomialSpec(degree, {(i,): c for i, c in enumerate(coeffs) if c != 0})

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for exps, coef in sorted(self.terms.items()):
            term = np.full(x.shape[0], coef)
            for axis, e in enumerate(exps):
                if e:
                    term = term * x[:, axis] ** e
            out = out + term
        return out


def small_value_check(
    spec: LogConcaveSpec,
    poly: PolynomialSpec,
    rs: Sequence[float] | None = None,
    n: int = SLOPE_SAMPLES,
    seed: int = 0,
    slope_tol: float = 0.1,
) -> ConcentrationReport:
    """Small-value scaling of a degree-d polynomial under a log-concave law.

    mu(|f| <= r) should scale like r^(1/d); the check fits the log-log slope
    over the grid and fits the single constant making
    mu(|f| <= r) ||f||_1^(1/d) <= c_hat d r^(1/d) tight.
    """
    if poly.degree < 1:
        raise ValueError("degree must be at least 1")
    values = poly(sample(spec, n, seed))
    l1 = float(np.abs(values).mean())
    if not l1 > 0:
        raise ValueError("polynomial has vanishing first absolute moment")
    mean, std = mean_std(values)
    if std < 1e-12 * max(1.0, abs(mean)):
        raise ValueError("polynomial is almost surely constant under this law")
    if rs is None:
        scale = float(np.quantile(np.abs(values), 0.5))
        rs = list(scale * np.geomspace(1e-3, 0.2, 10))
    d = poly.degree
    probs = []
    for r in rs:
        p, hw = _fraction(np.abs(values) <= r)
        probs.append((float(r), p, hw))
    usable = [(r, p) for r, p, _ in probs if p > 0]
    if len(usable) < 3:
        raise ValueError("grid too coarse: almost no mass at small values")
    logs_r = np.log([r for r, _ in usable])
    logs_p = np.log([p for _, p in usable])
    slope = float(np.polyfit(logs_r, logs_p, 1)[0])
    c_hat = max(p * l1 ** (1.0 / d) / (d * r ** (1.0 / d)) for r, p in usable)
    checks = [
        two_sided("log-log slope", slope, slope_tol, 1.0 / d),
    ]
    for r, p, hw in probs:
        checks.append(
            one_sided(f"small-value bound[r={r:.3g}]", p * l1 ** (1.0 / d), hw, c_hat * d * r ** (1.0 / d))
        )
    return ConcentrationReport(
        name="small_value",
        sample_count=n,
        seed=seed,
        checks=tuple(checks),
        extras={"degree": d, "l1_norm": l1, "fitted_constant": c_hat, "slope": slope},
        curves={"small_value": [(r, p, hw) for r, p, hw in probs]},
    )


def lp_equivalence_check(
    spec: LogConcaveSpec,
    polys: Sequence[PolynomialSpec],
    ps: Sequence[float] = (2.0, 4.0),
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Ratios ||f||_p / ||f||_1 over a polynomial family of bounded degree.

    The fitted constant per p is the family maximum; the verdict asserts all
    ratios are finite and bounded by it (uniformly over the family, not over
    degrees).
    """
    xs = sample(spec, n, seed)
    d = max(p.degree for p in polys)
    ratios: dict[float, list[float]] = {float(p): [] for p in ps}
    for poly in polys:
        values = np.abs(poly(xs))
        l1 = float(values.mean())
        if not l1 > 0:
            raise ValueError("a polynomial has vanishing first absolute moment")
        for p in ps:
            lp = float((values ** float(p)).mean()) ** (1.0 / float(p))
            ratios[float(p)].append(lp / l1)
    checks = []
    fitted = {}
    for p, vals in sorted(ratios.items()):
        c_hat = max(vals)
        fitted[f"C[p={p:g},d={d}]"] = c_hat
        ok = all(math.isfinite(v) for v in vals)
        checks.append(
            CheckRecord(
                name=f"ratios bounded[p={p:g}]",
                estimate=c_hat,
                half_width=0.0,
                bound=c_hat,
                passed=ok,
            )
        )
    return ConcentrationReport(
        name="lp_equivalence",
        sample_count=n,
        seed=seed,
        checks=tuple(checks),
        extras={"fitted_constants": fitted, "ratios": {f"{p:g}": v for p, v in ratios.items()}},
    )


def polynomial_density_experiment(
    specs: Sequence[LogConcaveSpec],
    densities: Sequence[PolynomialSpec],
    limit_barycenter: Sequence[float],
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Barycenters of polynomial-density perturbations along a sequence.

    Densities must be normalized (unit mean under their base law) and
    nonnegative on samples; barycenters use the ratio estimator.  Also
    reports the L2(mu_n) norms of the densities, whose uniform boundedness is
    the mechanism making the barycenters converge.
    """
    if len(specs) != len(densities):
        raise ValueError("one density per law is required")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(specs))
    limit_bary = np.asarray(limit_barycenter, dtype=float)
    per_index = []
    l2_norms = []
    final_gap = math.inf
    final_hw = 0.0
    for i, (spec, dens) in enumerate(zip(specs, densities)):
        xs = sample(spec, n, children[i])
        f = dens(xs)
        fmin = float(f.min())
        if fmin < -1e-9 * max(1.0, float(np.abs(f).max())):
            raise ValueError(f"density {i} is negative on samples ({fmin:.3g})")
        f = np.maximum(f, 0.0)
        mean_f, std_f = mean_std(f)
        hw_f = half_width(std_f, n)
        if abs(mean_f - 1.0) > hw_f + 1e-6:
            raise ValueError(f"density {i} is not normalized: mean {mean_f:.6f}")
        bary = (f[:, None] * xs).mean(axis=0) / mean_f
        var_proxy = (f[:, None] * (xs - bary[None, :])).std(axis=0).max()
        hw = half_width(float(var_proxy), n) / mean_f
        l2 = math.sqrt(float((f * f).mean()))
        l2_norms.append(l2)
        per_index.append(
            {
                "index": i,
                "barycenter": bary.tolist(),
                "half_width": hw,
                "density_mean": mean_f,
                "density_l2": l2,
            }
        )
        final_gap = float(np.abs(bary - limit_bary).max())
        final_hw = hw
    checks = [
        one_sided("final barycenter gap", final_gap, 0.0, final_hw),
        CheckRecord(
            name="density L2 norms bounded",
            estimate=max(l2_norms),
            half_width=0.0,
            bound=max(l2_norms),
            passed=all(math.isfinite(v) for v in l2_norms),
        ),
    ]
    return ConcentrationReport(
        name="polynomial_density",
        sample_count=n,
        seed=seed,
        checks=tuple(checks),
        extras={
            "per_index": per_index,
            "sup_density_l2": max(l2_norms),
            "limit_barycenter": limit_bary.tolist(),
        },
    )
