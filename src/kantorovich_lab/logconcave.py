"""Samplers and Monte-Carlo checks for log-concave product/linear-image laws.

Built-in families (Gaussian, uniform box, uniform solid simplex, product
exponential) are known log-concave instances; log-concavity is assumed from
the family tag, not verified from samples.  Checks are one-sided at three
standard errors, with theorem-true inequalities expected to pass essentially
always; estimates are deterministic per seed with fixed reduction order.

A seminorm, named by its key in ``SEMINORMS``, maps draws of shape
(n, dim) to n new values, each a function of its own row only, so that
applying it to blocks of rows (as ``check_borell`` does) gives the values of
applying it to all the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .reports import (
    BLOCK,
    ConcentrationReport,
    barycenter_gap,
    bounded_sup,
    column_mean_std,
    column_means,
    fraction,
    half_width,
    mean_var,
    one_sided,
    reduce_each_law,
    require_laws,
    row_blocks,
    row_norms,
    sorted_quantiles,
    two_sided,
)

DEFAULT_SAMPLES = 10**5
SLOPE_SAMPLES = 10**6
#: Mass of the limit law below the sublevel scale c that sets each exponent
#: of the mean-convergence experiment (``_choose_kappa``).
THETA_TARGET = 0.75
#: Half-width of the small-value check's log-log slope around 1/d.
SLOPE_TOL = 0.1
#: Orders r of the power moments in the mean-convergence experiment.
MOMENT_ORDERS = (1.0, 2.0)


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
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        # the tolerances scale with the covariance's largest entry
        scale = np.abs(cov).max()
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-10 * scale:
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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        return LogConcaveSpec("uniform_box", len(lo), lo=tuple(lo), hi=tuple(hi))

    @staticmethod
    def uniform_simplex(dim: int) -> "LogConcaveSpec":
        if dim < 1:
            raise ValueError("dimension must be positive")
        return LogConcaveSpec("uniform_simplex", dim)

    @staticmethod
    def product_exponential(rates) -> "LogConcaveSpec":
        rates = np.atleast_1d(np.asarray(rates, dtype=float))
        if not np.all((rates > 0) & np.isfinite(rates)):
            raise ValueError("rates must be positive and finite")
        return LogConcaveSpec("product_exponential", len(rates), rates=tuple(rates))


def sample(spec: LogConcaveSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. draws, shape (n, dim) and C-contiguous, deterministic per seed,
    filled one block of rows at a time (``_block_drawer``)."""
    draw = _block_drawer(spec, n, seed)
    x = np.empty((n, spec.dim))
    for rows in row_blocks(n):
        draw(x[rows])
    return x


def _block_drawer(spec: LogConcaveSpec, n: int, seed) -> Callable[[np.ndarray], None]:
    """``draw(x)`` fills a C-contiguous block ``x`` of at most ``BLOCK`` rows
    with the next rows of the n draws of ``spec``.

    numpy's generator fills an array in order, so blocks drawn one after
    another continue its stream as one (n, dim) draw would, and each entry
    sees the operations of ``mean + z @ root.T``, ``rng.uniform(lo, hi)``,
    ``g[:, :dim] / g.sum(axis=1)`` or ``e / rates``: over the slices of
    ``row_blocks(n)`` the blocks have the bits of those one-shot draws.
    ``z`` and ``g`` go to one reused block-sized array.

    The Gaussian block is multiplied by a C-contiguous copy of ``root.T``,
    with the bits of the transposed view for every block of two or more
    rows; a single row goes through gemv, whose bits differ between the two,
    and keeps the view.  The mean is added one column at a time, not by a
    broadcast add whose inner loop has only dim entries.  On a 32,768 x 2
    block (2-vCPU x86 host, OpenBLAS) these take 37 and 45 us against 144
    and 199 us.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    rows = min(n, BLOCK)
    dim = spec.dim
    if spec.family == "gaussian":
        mean = np.asarray(spec.mean)
        vals, vecs = np.linalg.eigh(np.asarray(spec.cov))
        root = vecs * np.sqrt(np.maximum(vals, 0.0))[None, :]
        root_t = np.ascontiguousarray(root.T)
        z = np.empty((rows, dim))

        def draw(x):
            np.matmul(rng.standard_normal(out=z[: len(x)]), root.T if len(x) == 1 else root_t, out=x)
            for j in range(dim):
                x[:, j] += mean[j]

    elif spec.family == "uniform_box":
        lo = np.asarray(spec.lo)
        hi = np.asarray(spec.hi)

        def draw(x):
            x[...] = rng.uniform(lo, hi, size=x.shape)

    elif spec.family == "uniform_simplex":
        # Dirichlet(1,...,1) on dim+1 coordinates projects to the solid simplex
        g = np.empty((rows, dim + 1))

        def draw(x):
            gx = rng.standard_exponential(out=g[: len(x)])
            np.divide(gx[:, :dim], gx.sum(axis=1, keepdims=True), out=x)

    elif spec.family == "product_exponential":
        rates = np.asarray(spec.rates)

        def draw(x):
            rng.standard_exponential(out=x)
            x /= rates

    else:
        raise ValueError(f"unknown family {spec.family!r}")
    return draw


# ---------------------------------------------------------------------------
# Seminorm evaluators
# ---------------------------------------------------------------------------

SEMINORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "abs": lambda x: np.abs(x[:, 0]),
    "l2": row_norms,
    "sup": lambda x: np.abs(x).max(axis=1),
    "abs_sum": lambda x: np.abs(x.sum(axis=1)),
}


def seminorm(name: str) -> Callable[[np.ndarray], np.ndarray]:
    try:
        return SEMINORMS[name]
    except KeyError:
        raise KeyError(f"unknown seminorm {name!r}; have {sorted(SEMINORMS)}") from None


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
    conservative theta (estimate minus half-width).  The draws are made and
    their seminorm taken one block of rows at a time, so only the seminorm
    values, those of ``q(sample(spec, n, seed))``, are held whole.
    """
    qfn = seminorm(q)
    draw = _block_drawer(spec, n, seed)
    block = np.empty((min(n, BLOCK), spec.dim))
    values = np.empty(n)
    for rows in row_blocks(n):
        x = block[: rows.stop - rows.start]
        draw(x)
        values[rows] = qfn(x)
    theta, theta_hw = fraction(values < c)
    if not theta > 0.5 + theta_hw:
        raise ValueError(f"set mass {theta:.4f} is not significantly above 1/2")
    theta_lo = theta - theta_hw
    checks = []
    curve = []
    for t in ts:
        tail, tail_hw = fraction(values >= c * t)
        bound = borell_bound(theta_lo, t)
        checks.append(one_sided(f"tail[t={t:g}]", tail, tail_hw, bound))
        curve.append((float(t), tail, bound))
    return ConcentrationReport(
        name="borell",
        checks=tuple(checks),
        extras={"theta": theta, "theta_half_width": theta_hw, "c": c},
        curves={"tail": curve},
    )


def _exp_moment(values: np.ndarray, kappa: float, work: np.ndarray | None = None) -> tuple[float, float]:
    """Empirical mean of exp(kappa * v) over the seminorm values v, with its
    half-width; the exponents go to ``work``, an array of len(values)
    entries, if one is given."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    exponents = np.multiply(kappa, values, out=work)
    top = float(exponents.max(initial=0.0))
    if top > 700.0:
        raise ValueError(
            f"kappa {kappa:g} overflows exp at observed seminorm scale {top / max(kappa, 1e-300):.3g}"
        )
    est, var = mean_var(np.exp(exponents, out=exponents), out=exponents)
    return est, half_width(math.sqrt(var), len(values))


def _power_moment(values: np.ndarray, r: float, work: np.ndarray | None = None) -> tuple[float, float]:
    """Mean of values**r for r = 1 or 2 (``MOMENT_ORDERS``) with its
    half-width; the squares, or for r = 1 the deviations, go to ``work`` if
    it is given.  ``np.square`` has the bits of ``values**2``."""
    if r == 1:
        est, var = mean_var(values, out=work)
    else:
        powers = np.square(values, out=work)
        est, var = mean_var(powers, out=powers)
    return est, half_width(math.sqrt(var), len(values))


def _choose_kappa(limit_values: np.ndarray, work: np.ndarray | None = None) -> tuple[float, float, float]:
    """Exponent choice, half the divergence threshold over the sublevel
    scale: kappa, c and theta.

    c is ``np.quantile(limit_values, THETA_TARGET)``, read off a sorted copy
    (``sorted_quantiles``), made in ``work`` if it is given: a zero c may
    carry the other sign, and is refused either way.  theta is the mass
    below c, and kappa is -ln(tau)/(2 c) for tau = ((1-theta)/theta)^(1/2).
    """
    ordered = np.empty_like(limit_values) if work is None else work
    ordered[...] = limit_values
    ordered.sort()
    c = float(sorted_quantiles(ordered, THETA_TARGET))
    if c <= 0:
        raise ValueError("sublevel scale must be positive")
    theta = fraction(limit_values < c)[0]
    if theta <= 0.5:
        raise ValueError("kappa policy yields nonpositive kappa (theta <= 1/2)")
    tau = math.sqrt((1.0 - theta) / theta)
    kappa = -math.log(tau) / (2.0 * c)
    if kappa <= 0:
        raise ValueError("kappa policy yields nonpositive kappa")
    return kappa, c, theta


def _values_over_draws(xs: np.ndarray, fns: Sequence[Callable]) -> tuple[list[np.ndarray], np.ndarray]:
    """Each seminorm of ``fns`` at the rows of the C-contiguous draws ``xs``,
    and an n-entry work array, written over the draws themselves.

    The values of ``fns[0]`` go to the first n entries of the draws' flat
    buffer, block by block: entry i belongs to row i // dim, a row already
    read.  In each block the other seminorms, each with its own array, read
    the rows before the values of ``fns[0]``, which may fall on the block's
    own rows, are written.  The work array is the next n entries when
    dim >= 2, and a new array when dim = 1.
    """
    n, dim = xs.shape
    flat = xs.reshape(-1)
    first = flat[:n]
    rest = [np.empty(n) for _ in fns[1:]]
    for rows in row_blocks(n):
        block = xs[rows]
        for fn, values in zip(fns[1:], rest):
            values[rows] = fn(block)
        first[rows] = fns[0](block)
    return [first, *rest], flat[n : 2 * n] if dim >= 2 else np.empty(n)


def mean_convergence_experiment(
    specs: Sequence[LogConcaveSpec],
    limit: LogConcaveSpec,
    qs: Sequence[str] = ("l2",),
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Exponential moments, power moments of ``MOMENT_ORDERS`` and
    barycenters along a sequence, for each seminorm named in ``qs``.

    Verifies that the final-index estimates agree with the limit law's within
    combined half-widths; reports the full per-index curves.  Each distinct
    law is drawn and reduced once per call, the limit first: a spec equal to
    the limit, or to an earlier spec, has the same seed and so the same
    draws, and reuses their moments, barycenter and half-width.
    """
    q_fns = [(name, seminorm(name)) for name in qs]
    kappas = {}

    def reduce(s: LogConcaveSpec, law_seed):
        """Moments, barycenter and its half-width of one law; the first law
        reduced, the limit, picks each seminorm's exponent.  The column
        statistics are taken first; then the seminorm values and the work
        array of the sort and the moments are written over the draws
        (``_values_over_draws``), so a law holds n * max(dim, 2) doubles, and
        n more for each seminorm after the first."""
        xs = sample(s, n, law_seed)
        bary, std = column_mean_std(xs)
        q_values, work = _values_over_draws(xs, [fn for _, fn in q_fns])
        stats: dict[str, tuple[float, float]] = {}
        for (name, _), values in zip(q_fns, q_values):
            if name not in kappas:
                kappa, c, theta = _choose_kappa(values, work)
                kappas[name] = {"kappa": kappa, "c": c, "theta": theta}
            stats[f"exp[{name}]"] = _exp_moment(values, kappas[name]["kappa"], work)
            for r in MOMENT_ORDERS:
                stats[f"moment[{name},r={r:g}]"] = _power_moment(values, r, work)
        bary.setflags(write=False)
        return stats, bary, half_width(float(std.max()), n)

    (limit_stats, limit_bary, limit_bary_hw), reductions = reduce_each_law(
        reduce, limit, specs, seed
    )

    per_index = [
        {"index": i, **stats, "barycenter": bary.tolist(), "barycenter_half_width": bary_hw}
        for i, (stats, bary, bary_hw) in enumerate(reductions)
    ]
    final_stats, final_bary, final_hw = reductions[-1]
    checks = [
        two_sided(
            f"final {key} vs limit",
            est,
            hw + limit_stats[key][1],
            limit_stats[key][0],
        )
        for key, (est, hw) in sorted(final_stats.items())
    ]
    checks.append(
        barycenter_gap("final barycenter gap", final_bary, limit_bary, final_hw + limit_bary_hw)
    )
    return ConcentrationReport(
        name="mean_convergence",
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
        terms = {tuple(k): float(v) for k, v in dict(self.terms).items()}
        for k in terms:
            if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool) and e >= 0 for e in k):
                raise ValueError(f"exponents must be nonnegative integers, got {list(k)}")
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
        if not any(coeffs):
            raise ValueError("coeffs_1d has no nonzero coefficient")
        degree = max(i for i, c in enumerate(coeffs) if c != 0)
        return PolynomialSpec(degree, {(i,): c for i, c in enumerate(coeffs) if c != 0})

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The polynomial at each row of ``x``, one row block at a time: each
        value reads its own row alone, so the block-sized terms keep the bits
        of whole-length ones."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        terms = sorted(self.terms.items())
        for rows in row_blocks(x.shape[0]):
            xb, ob = x[rows], out[rows]
            for exps, coef in terms:
                term = np.full(len(ob), coef)
                for axis, e in enumerate(exps):
                    if e:
                        term *= xb[:, axis] ** e
                ob += term
        return out


def small_value_check(
    spec: LogConcaveSpec,
    poly: PolynomialSpec,
    rs: Sequence[float] | None = None,
    n: int = SLOPE_SAMPLES,
    seed: int = 0,
) -> ConcentrationReport:
    """Small-value scaling of a degree-d polynomial under a log-concave law.

    mu(|f| <= r) should scale like r^(1/d); the check fits the log-log slope
    over the grid, which must lie within ``SLOPE_TOL`` of 1/d, and fits the
    single constant making mu(|f| <= r) ||f||_1^(1/d) <= c_hat d r^(1/d)
    tight.
    """
    if poly.degree < 1:
        raise ValueError("degree must be at least 1")
    values = poly(sample(spec, n, seed))
    mean, var = mean_var(values)
    size = np.abs(values, out=values)  # |f|: the signed values are not read again
    l1 = float(size.mean())
    if not l1 > 0:
        raise ValueError("polynomial has vanishing first absolute moment")
    if math.sqrt(var) < 1e-12 * max(1.0, abs(mean)):
        raise ValueError("polynomial is almost surely constant under this law")
    if rs is None:
        scale = float(np.quantile(size, 0.5))
        rs = list(scale * np.geomspace(1e-3, 0.2, 10))
    d = poly.degree
    probs = []
    for r in rs:
        p, hw = fraction(size <= r)
        probs.append((float(r), p, hw))
    usable = [(r, p) for r, p, _ in probs if p > 0]
    if len(usable) < 3:
        raise ValueError("grid too coarse: almost no mass at small values")
    logs_r = np.log([r for r, _ in usable])
    logs_p = np.log([p for _, p in usable])
    slope = float(np.polyfit(logs_r, logs_p, 1)[0])
    c_hat = max(p * l1 ** (1.0 / d) / (d * r ** (1.0 / d)) for r, p in usable)
    checks = [
        two_sided("log-log slope", slope, SLOPE_TOL, 1.0 / d),
    ]
    for r, p, hw in probs:
        checks.append(
            one_sided(f"small-value bound[r={r:.3g}]", p * l1 ** (1.0 / d), hw, c_hat * d * r ** (1.0 / d))
        )
    return ConcentrationReport(
        name="small_value",
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
        values = poly(xs)
        np.abs(values, out=values)
        l1 = float(values.mean())
        if not l1 > 0:
            raise ValueError("a polynomial has vanishing first absolute moment")
        for p in ps:
            lp = float((values ** float(p)).mean()) ** (1.0 / float(p))
            ratios[float(p)].append(lp / l1)
    checks = [bounded_sup(f"ratios bounded[p={p:g}]", vals) for p, vals in sorted(ratios.items())]
    fitted = {f"C[p={p:g},d={d}]": max(vals) for p, vals in sorted(ratios.items())}
    return ConcentrationReport(
        name="lp_equivalence",
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
    require_laws(specs)
    if len(specs) != len(densities):
        raise ValueError("one density per law is required")
    children = np.random.SeedSequence(seed).spawn(len(specs))
    limit_bary = np.asarray(limit_barycenter, dtype=float)

    def reduce(i: int, spec: LogConcaveSpec, dens: PolynomialSpec) -> tuple[np.ndarray, float, float, float]:
        """Barycenter, its half-width, and the density's mean and L2 norm
        under law i."""
        xs = sample(spec, n, children[i])
        f = dens(xs)
        fmin = float(f.min())
        if fmin < -1e-9 * max(1.0, float(np.abs(f).max())):
            raise ValueError(f"density {i} is negative on samples ({fmin:.3g})")
        np.maximum(f, 0.0, out=f)
        mean_f, var_f = mean_var(f)
        hw_f = half_width(math.sqrt(var_f), n)
        if abs(mean_f - 1.0) > hw_f + 1e-6:
            raise ValueError(f"density {i} is not normalized: mean {mean_f:.6f}")
        l2 = math.sqrt(float((f * f).mean()))
        # f x and then f (x - bary) in one buffer, whose column statistics
        # have the bits of .mean(axis=0) and .std(axis=0)
        weighted = np.multiply(f[:, None], xs)
        bary = column_means(weighted) / mean_f
        np.subtract(xs, bary[None, :], out=weighted)
        weighted *= f[:, None]
        var_proxy = column_mean_std(weighted)[1].max()
        return bary, half_width(float(var_proxy), n) / mean_f, mean_f, l2

    reductions = [reduce(i, spec, dens) for i, (spec, dens) in enumerate(zip(specs, densities))]
    per_index = [
        {"index": i, "barycenter": bary.tolist(), "half_width": hw, "density_mean": mean_f, "density_l2": l2}
        for i, (bary, hw, mean_f, l2) in enumerate(reductions)
    ]
    final_bary, final_hw, _, _ = reductions[-1]
    l2_bounded = bounded_sup("density L2 norms bounded", [l2 for _, _, _, l2 in reductions])
    checks = [barycenter_gap("final barycenter gap", final_bary, limit_bary, final_hw), l2_bounded]
    return ConcentrationReport(
        name="polynomial_density",
        checks=tuple(checks),
        extras={
            "per_index": per_index,
            "sup_density_l2": l2_bounded.estimate,
            "limit_barycenter": limit_bary.tolist(),
        },
    )
