"""The Monte-Carlo draws: in-place samplers and one draw per distinct law in
the mean-convergence experiments, each checked bit for bit against the plain
expressions."""

import math

import numpy as np
import pytest

from kantorovich_lab import logconcave, reports, stable
from kantorovich_lab.logconcave import (
    THETA_TARGET,
    LogConcaveSpec,
    PolynomialSpec,
    mean_convergence_experiment,
    seminorm,
)
from kantorovich_lab.reports import (
    CheckRecord,
    ConcentrationReport,
    column_mean_std,
    column_means,
    content_seed,
    half_width,
    one_sided,
    two_sided,
)
from kantorovich_lab.stable import (
    StableSpec,
    _binned_gap,
    _quantile_binned,
    sample_stable,
    stable_mean_convergence_experiment,
)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Samplers: reference copies of the out-of-place expressions
# ---------------------------------------------------------------------------


def _stable_reference(spec, n, seed):
    rng = np.random.default_rng(seed)
    p = spec.p
    zeta = spec.b * math.tan(math.pi * p / 2.0)
    B = math.atan(zeta) / p
    S = (1.0 + zeta * zeta) ** (1.0 / (2.0 * p))
    U = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(n, spec.dim))
    W = np.maximum(rng.standard_exponential((n, spec.dim)), 1e-300)
    core = np.sin(p * (U + B)) / np.cos(U) ** (1.0 / p)
    tail = (np.cos(U - p * (U + B)) / W) ** ((1.0 - p) / p)
    x = S * core * tail
    return spec.a + spec.c ** (1.0 / p) * x


def _logconcave_reference(spec, n, seed):
    rng = np.random.default_rng(seed)
    if spec.family == "gaussian":
        mean = np.asarray(spec.mean)
        vals, vecs = np.linalg.eigh(np.asarray(spec.cov))
        root = vecs * np.sqrt(np.maximum(vals, 0.0))[None, :]
        z = rng.standard_normal((n, spec.dim))
        return mean[None, :] + z @ root.T
    if spec.family == "uniform_simplex":
        g = rng.standard_exponential((n, spec.dim + 1))
        return g[:, : spec.dim] / g.sum(axis=1, keepdims=True)
    if spec.family == "product_exponential":
        return rng.standard_exponential((n, spec.dim)) / np.asarray(spec.rates)[None, :]
    raise AssertionError(spec.family)


class TestSamplers:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    @pytest.mark.parametrize("b", [0.0, -0.4, 1.0])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_stable_matches_expression(self, p, b, dim):
        spec = StableSpec(p=p, b=b, c=1.7, a=-0.3, dim=dim)
        for seed in (0, 11):
            assert _same_bits(sample_stable(spec, 5000, seed), _stable_reference(spec, 5000, seed))

    @pytest.mark.parametrize(
        "spec",
        [
            LogConcaveSpec.gaussian([0.5], [[2.0]]),
            LogConcaveSpec.gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]]),
            LogConcaveSpec.gaussian([1.0, -2.0, 0.25], [[1.0, 0.2, 0.0], [0.2, 0.7, 0.1], [0.0, 0.1, 0.4]]),
            LogConcaveSpec.product_exponential([2.0, 0.5, 3.0]),
            LogConcaveSpec.uniform_simplex(3),
        ],
        ids=lambda s: f"{s.family}-{s.dim}",
    )
    def test_logconcave_matches_expression(self, spec):
        for seed in (0, 11):
            out = logconcave.sample(spec, 5000, seed)
            ref = _logconcave_reference(spec, 5000, seed)
            assert _same_bits(out, ref)
            assert out.flags.c_contiguous == ref.flags.c_contiguous


# ---------------------------------------------------------------------------
# One draw per distinct law: reference copies of the experiments without memo
# ---------------------------------------------------------------------------


def _stable_experiment_reference(specs, limit, n, seed, bins=64, blocks=16):
    p1 = min([s.p for s in specs] + [limit.p])
    r = q = (1.0 + p1) / 2.0

    def spec_seed(s):
        return content_seed(seed, s.p, s.b, s.c, s.a, s.dim)

    def block_hw(xs):
        k = blocks
        means = xs[: (len(xs) // k) * k].reshape(k, -1, xs.shape[1]).mean(axis=1)
        return 3.0 * float(means.std(axis=0).max()) / math.sqrt(k)

    limit_samples = sample_stable(limit, n, spec_seed(limit))
    limit_bary = limit_samples.mean(axis=0)
    limit_hw = block_hw(limit_samples)
    limit_binned = _quantile_binned(limit_samples[:, 0], bins) if limit.dim == 1 else None
    per_index, kgaps = [], []
    moment_sup, final_gap, final_hw = 0.0, math.inf, 0.0
    for i, spec in enumerate(specs):
        xs = sample_stable(spec, n, spec_seed(spec))
        ax = np.abs(xs[:, 0]) if spec.dim == 1 else np.sqrt((xs * xs).sum(axis=1))
        m_r = float((ax**r).mean())
        moment_sup = max(moment_sup, m_r)
        bary = xs.mean(axis=0)
        hw = block_hw(xs)
        row = {
            "index": i,
            "barycenter": bary.tolist(),
            "barycenter_half_width": hw,
            f"moment[r={r:g}]": m_r,
        }
        if spec.dim == 1 and limit.dim == 1:
            gap, bin_err = _binned_gap(_quantile_binned(xs[:, 0], bins), limit_binned, q)
            row[f"k_gap[q={q:g}]"] = gap
            row["binning_error"] = bin_err
            kgaps.append(gap)
        per_index.append(row)
        final_gap = float(np.abs(bary - limit_bary).max())
        final_hw = hw
    checks = [
        CheckRecord(
            name=f"moments r={r:g} uniformly bounded",
            estimate=moment_sup,
            half_width=0.0,
            bound=moment_sup,
            passed=math.isfinite(moment_sup),
        ),
        one_sided("final barycenter gap vs limit", final_gap, 0.0, final_hw + limit_hw),
    ]
    extras = {
        "p1": p1,
        "q": q,
        "r": r,
        "limit_barycenter": limit_bary.tolist(),
        "per_index": per_index,
        "moment_sup": moment_sup,
    }
    if kgaps:
        extras["k_gaps"] = kgaps
    return ConcentrationReport(name="stable_mean_convergence", checks=tuple(checks), extras=extras)


def _choose_reference(values, theta_target=0.75):
    """``logconcave._choose_kappa`` with ``np.quantile`` of the values themselves."""
    c = float(np.quantile(values, theta_target))
    if c <= 0:
        raise ValueError("sublevel scale must be positive")
    theta = reports.fraction(values < c)[0]
    if theta <= 0.5:
        raise ValueError("kappa policy yields nonpositive kappa (theta <= 1/2)")
    kappa = -math.log(math.sqrt((1.0 - theta) / theta)) / (2.0 * c)
    if kappa <= 0:
        raise ValueError("kappa policy yields nonpositive kappa")
    return kappa, c, theta


def _mean_hw(v):
    return float(v.mean()), half_width(float(v.std()), len(v))


#: The orders r of the log-concave power moments.
RS = (1.0, 2.0)


def _moments_reference(values, kappa):
    """The exponential moment and the power moments, from the plain expressions."""
    return _mean_hw(np.exp(kappa * values)), [_mean_hw(values**r) for r in RS]


def _logconcave_experiment_reference(specs, limit, qs, n, seed):
    def spec_seed(s):
        return content_seed(seed, s.family, s.dim, s.mean, s.cov, s.lo, s.hi, s.rates)

    limit_samples = logconcave.sample(limit, n, spec_seed(limit))
    q_fns = [(name, seminorm(name)) for name in qs]
    kappas, limit_stats = {}, {}
    for name, fn in q_fns:
        values = fn(limit_samples)
        kappa, c, theta = _choose_reference(values)
        kappas[name] = {"kappa": kappa, "c": c, "theta": theta}
        limit_stats[f"exp[{name}]"], powers = _moments_reference(values, kappa)
        for r, moment in zip(RS, powers):
            limit_stats[f"moment[{name},r={r:g}]"] = moment
    limit_bary, limit_bary_hw = limit_samples.mean(axis=0), half_width(float(limit_samples.std(axis=0).max()), n)
    per_index, final = [], {}
    bary_gap_final = bary_hw_final = 0.0
    for i, spec in enumerate(specs):
        xs = logconcave.sample(spec, n, spec_seed(spec))
        row = {"index": i}
        for name, fn in q_fns:
            exp, powers = _moments_reference(fn(xs), kappas[name]["kappa"])
            row[f"exp[{name}]"] = final[f"exp[{name}]"] = exp
            for r, moment in zip(RS, powers):
                key = f"moment[{name},r={r:g}]"
                row[key] = final[key] = moment
        bary, bary_hw = xs.mean(axis=0), half_width(float(xs.std(axis=0).max()), n)
        row["barycenter"] = bary.tolist()
        row["barycenter_half_width"] = bary_hw
        per_index.append(row)
        bary_gap_final = float(np.abs(bary - limit_bary).max())
        bary_hw_final = bary_hw
    checks = [
        two_sided(f"final {key} vs limit", est, hw + limit_stats[key][1], limit_stats[key][0])
        for key, (est, hw) in sorted(final.items())
    ]
    checks.append(
        one_sided("final barycenter gap", bary_gap_final, 0.0, bary_hw_final + limit_bary_hw)
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


def _stable_sequence(limit, steps=4):
    """Laws moving to ``limit``, one repeated, one with b = -0.0, ending at it."""
    specs = [
        StableSpec(p=limit.p - 0.3 + 0.3 * k / steps, b=-0.0 if k == 0 else limit.b * k / steps,
                   c=limit.c + 0.5 * (1 - k / steps), a=limit.a + 0.5 * (1 - k / steps), dim=limit.dim)
        for k in range(steps + 1)
    ]
    return specs[:2] + [specs[1]] + specs[2:]


def _gaussian(shift, dim=2):
    return LogConcaveSpec.gaussian([shift] * dim, np.eye(dim) * (1.0 + shift))


def _counting(monkeypatch, module, name):
    """Replace the sampler ``module.name`` by one that records each law drawn."""
    drawn = []
    draw = getattr(module, name)

    def counted(spec, n, seed):
        drawn.append(spec)
        return draw(spec, n, seed)

    monkeypatch.setattr(module, name, counted)
    return drawn


class TestOneDrawPerLaw:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stable_report_matches_memo_free_loop(self, dim):
        limit = StableSpec(p=1.7, b=-0.2, c=1.0, a=0.0, dim=dim)
        for specs in (_stable_sequence(limit), [limit] * 3, [StableSpec(p=1.6, dim=dim)]):
            report = stable_mean_convergence_experiment(specs, limit, n=4000, seed=5)
            ref = _stable_experiment_reference(specs, limit, 4000, 5)
            assert repr(report) == repr(ref)

    def test_logconcave_report_matches_memo_free_loop(self):
        limit = _gaussian(0.0)
        seq = [_gaussian(0.5), _gaussian(0.25), _gaussian(0.25), _gaussian(0.0)]
        for specs in (seq, [limit] * 3, [LogConcaveSpec.product_exponential([1.0, 2.0])]):
            report = mean_convergence_experiment(specs, limit, qs=("l2", "abs"), n=4000, seed=5)
            ref = _logconcave_experiment_reference(specs, limit, ("l2", "abs"), 4000, 5)
            assert repr(report) == repr(ref)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [1000, reports.BLOCK + 1, 2 * reports.BLOCK + 3])
    def test_logconcave_values_over_the_draws(self, dim, n):
        """Each law's seminorm values and work array are written over its
        draws: one in-place seminorm, and three with their own arrays."""
        limit = _gaussian(0.0, dim)
        specs = [_gaussian(0.5, dim), LogConcaveSpec.product_exponential([1.0, 2.0, 0.5][:dim]), limit]
        for qs in (("l2",), ("abs", "sup", "l2", "abs_sum")):
            report = mean_convergence_experiment(specs, limit, qs=qs, n=n, seed=7)
            assert repr(report) == repr(_logconcave_experiment_reference(specs, limit, qs, n, 7))

    def test_stable_draw_counts(self, monkeypatch):
        drawn = _counting(monkeypatch, stable, "sample_stable")
        limit = StableSpec(p=1.7, b=-0.2)
        specs = [StableSpec(p=1.5), StableSpec(p=1.6), limit]
        stable_mean_convergence_experiment(specs, limit, n=2000, seed=1)
        assert len(drawn) == len(specs)
        drawn.clear()
        stable_mean_convergence_experiment([limit] * 5, limit, n=2000, seed=1)
        assert drawn == [limit]
        drawn.clear()
        # 0.0 == -0.0, but the two laws have different seeds
        stable_mean_convergence_experiment(
            [StableSpec(p=1.7, b=-0.0)], StableSpec(p=1.7, b=0.0), n=2000, seed=1
        )
        assert len(drawn) == 2

    def test_logconcave_draw_counts(self, monkeypatch):
        drawn = _counting(monkeypatch, logconcave, "sample")
        limit = _gaussian(0.0)
        specs = [_gaussian(0.5), _gaussian(0.25), limit]
        mean_convergence_experiment(specs, limit, n=2000, seed=1)
        assert len(drawn) == len(specs)
        drawn.clear()
        mean_convergence_experiment([limit] * 5, limit, n=2000, seed=1)
        assert drawn == [limit]
        drawn.clear()
        minus = LogConcaveSpec.gaussian([-0.0], [[1.0]])
        plus = LogConcaveSpec.gaussian([0.0], [[1.0]])
        assert minus == plus
        report = mean_convergence_experiment([minus], plus, qs=("abs",), n=2000, seed=1)
        assert len(drawn) == 2
        # distinct seeds give distinct draws, so the moments differ
        assert report.extras["per_index"][0]["exp[abs]"] != report.extras["limit"]["exp[abs]"]

    def test_reused_limit_arrays_are_read_only(self, monkeypatch):
        seen = []
        gap = stable._binned_gap

        def checked(x, y, q):
            seen.append((x, y))
            return gap(x, y, q)

        monkeypatch.setattr(stable, "_binned_gap", checked)
        limit = StableSpec(p=1.7)
        stable_mean_convergence_experiment([StableSpec(p=1.5), limit], limit, n=2000, seed=1)
        assert len(seen) == 2 and seen[1][0] is seen[1][1]
        for x, y in seen:
            for arr in (*x[:2], *y[:2]):
                with pytest.raises(ValueError):
                    arr[0] = 1.0


class TestSequenceRules:
    """The rules the three sequence experiments share through ``reports``:
    the refusal of an empty sequence, the row norms and column means of the
    stable draws, and the bounded-moments check."""

    def test_an_empty_sequence_is_refused_before_any_draw(self, monkeypatch):
        stable_drawn = _counting(monkeypatch, stable, "sample_stable")
        logconcave_drawn = _counting(monkeypatch, logconcave, "sample")
        with pytest.raises(ValueError, match="at least one law"):
            stable_mean_convergence_experiment([], StableSpec(p=1.5), n=100, seed=1)
        with pytest.raises(ValueError, match="at least one law"):
            mean_convergence_experiment([], _gaussian(0.0), n=100, seed=1)
        with pytest.raises(ValueError, match="at least one law"):
            logconcave.polynomial_density_experiment([], [], [0.0], n=100, seed=1)
        assert stable_drawn == logconcave_drawn == []

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_stable_reductions_have_the_bits_of_numpy(self, dim):
        """Barycenters, r-th moments and barycenter half-widths of dim >= 2
        laws are those of ``xs.mean(axis=0)``, ``np.sqrt((xs * xs).sum(axis=1))``
        and the ``.std(axis=0)`` of the block means."""
        limit = StableSpec(p=1.8, dim=dim)
        specs = [StableSpec(p=1.6, b=0.3, a=-1.0, dim=dim), limit]
        n = 2 * reports.BLOCK + 3
        report = stable_mean_convergence_experiment(specs, limit, n=n, seed=6)
        r = report.extras["r"]
        for law, row in zip(specs, report.extras["per_index"]):
            xs = sample_stable(law, n, content_seed(6, law.p, law.b, law.c, law.a, law.dim))
            assert _same_bits(np.array(row["barycenter"]), xs.mean(axis=0))
            moment = float((np.sqrt((xs * xs).sum(axis=1)) ** r).mean())
            assert _same_bits(np.float64(row[f"moment[r={r:g}]"]), np.float64(moment))
            k = stable.MEAN_BLOCKS
            block_means = xs[: (n // k) * k].reshape(k, -1, dim).mean(axis=1)
            assert row["barycenter_half_width"] == half_width(float(block_means.std(axis=0).max()), k)
        assert report.extras["limit_barycenter"] == report.extras["per_index"][-1]["barycenter"]

    def test_a_nan_moment_fails_the_bounded_moments_check(self, monkeypatch):
        """A running ``max(0.0, m)`` would drop the NaN and pass."""
        draw = stable.sample_stable

        def planted(spec, n, seed):
            xs = draw(spec, n, seed)
            if spec.p == 1.6:
                xs[0, 0] = math.nan
            return xs

        monkeypatch.setattr(stable, "sample_stable", planted)
        # at dim 2 no law is binned, so the NaN reaches only the reductions
        limit = StableSpec(p=1.8, dim=2)
        report = stable_mean_convergence_experiment([StableSpec(p=1.6, dim=2), limit], limit, n=2000, seed=1)
        check = report.check("moments r=1.3 uniformly bounded")
        assert check.verdict == "FAIL"
        assert math.isnan(report.extras["per_index"][0]["moment[r=1.3]"])


def test_content_seed_fields_are_those_spelled_by_hand():
    """``reports.reduce_each_law`` seeds a law by its spec's fields in
    declaration order; three copies spell that order by hand and would keep
    the old seeds if a field were added or moved."""
    import dataclasses

    copies = (
        "tests/test_montecarlo_draws.py lines 114 and 175 (the spec_seed helpers) "
        "and perfbench/generate.py line 334 (draws in _stable_gap_references)"
    )
    assert [f.name for f in dataclasses.fields(StableSpec)] == ["p", "b", "c", "a", "dim"], (
        f"StableSpec's fields changed: update the content_seed calls in {copies}"
    )
    assert [f.name for f in dataclasses.fields(LogConcaveSpec)] == [
        "family", "dim", "mean", "cov", "lo", "hi", "rates"
    ], f"LogConcaveSpec's fields changed: update the content_seed calls in {copies}"


# ---------------------------------------------------------------------------
# Row blocks: the samplers and reductions work one block of rows at a time
# ---------------------------------------------------------------------------

B = reports.BLOCK
BLOCK_SIZES = [1, B - 1, B, B + 1, 2 * B + 3]

ALL_FAMILIES = [
    LogConcaveSpec.gaussian([0.5], [[2.0]]),
    LogConcaveSpec.gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]]),
    LogConcaveSpec.gaussian([1.0, -2.0, 0.25], [[1.0, 0.2, 0.0], [0.2, 0.7, 0.1], [0.0, 0.1, 0.4]]),
    LogConcaveSpec.gaussian(np.linspace(-1.0, 1.0, 8), np.eye(8) + 0.25),
    LogConcaveSpec.uniform_box([0.0, -1.0, 2.0], [1.0, 3.0, 2.5]),
    LogConcaveSpec.product_exponential([2.0, 0.5, 3.0]),
    LogConcaveSpec.uniform_simplex(3),
]


def _any_family_reference(spec, n, seed):
    if spec.family == "uniform_box":
        return np.random.default_rng(seed).uniform(np.asarray(spec.lo), np.asarray(spec.hi), size=(n, spec.dim))
    return _logconcave_reference(spec, n, seed)


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1, 2 * B + 3])
    def test_row_blocks_cover_in_order(self, n):
        blocks = reports.row_blocks(n)
        covered = [i for rows in blocks for i in range(n)[rows]]
        assert covered == list(range(n))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(0 < size <= B for size in sizes)
        # a one-row block would multiply through gemv instead of gemm
        assert n == 1 or 1 not in sizes

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "spec",
        [StableSpec(p=1.5, b=0.3, c=1.7, a=-0.3), StableSpec(p=2.0, dim=2), StableSpec(p=1.2, b=-1.0, dim=3)],
        ids=lambda s: f"p{s.p}-dim{s.dim}",
    )
    def test_stable_matches_expression(self, spec, n):
        assert _same_bits(sample_stable(spec, n, 4), _stable_reference(spec, n, 4))

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: f"{s.family}-{s.dim}")
    def test_logconcave_matches_expression(self, spec, n):
        out = logconcave.sample(spec, n, 4)
        assert _same_bits(out, _any_family_reference(spec, n, 4))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9])
    def test_column_mean_std_matches_numpy(self, n, dim):
        xs = np.random.default_rng(n).standard_normal((n, dim)) * np.resize([1.0, 1e-8, 1e8], dim) + 3.0
        means, stds = column_mean_std(xs)
        assert _same_bits(means, xs.mean(axis=0))
        assert _same_bits(stds, xs.std(axis=0))
        assert _same_bits(column_means(xs), means)

    def test_column_sum_is_the_last_cumulative_sum(self):
        # numpy's mean starts its sum at 0.0, so a column of -0.0 alone is
        # where the two differ; the sum carried across blocks keeps its sign
        # (both parts of a column pair, and an odd last column alone)
        for dim in (2, 3):
            for planted in range(dim):
                xs = np.full((B + 5, dim), -0.0)
                xs[B + 2 :, planted] = [1e16, 1.0, -1e16]
                means, _ = column_mean_std(xs)
                assert _same_bits(column_means(xs), means)
                assert _same_bits(means, np.array([np.cumsum(xs[:, j])[-1] / len(xs) for j in range(dim)]))
                assert [str(means[j]) for j in range(dim) if j != planted] == ["-0.0"] * (dim - 1)

    @pytest.mark.parametrize("n", [B + 1, 2 * B + 3])
    @pytest.mark.parametrize("q", sorted(logconcave.SEMINORMS))
    def test_seminorms_match_the_whole_array(self, n, q):
        for spec in ALL_FAMILIES[2:4]:
            xs = logconcave.sample(spec, n, 2)
            whole = {
                "abs": np.abs(xs[:, 0]),
                "l2": np.sqrt((xs * xs).sum(axis=1)),
                "sup": np.abs(xs).max(axis=1),
                "abs_sum": np.abs(xs.sum(axis=1)),
            }[q]
            assert _same_bits(seminorm(q)(xs), whole)

    @pytest.mark.parametrize("n", [1, B + 1, 2 * B + 3])
    def test_borell_reads_the_sampled_seminorm(self, n):
        spec, c, ts = ALL_FAMILIES[2], 3.0, (1.0, 1.2, 2.0)
        if n == 1:
            with pytest.raises(ValueError, match="not significantly above 1/2"):
                logconcave.check_borell(spec, "l2", c, ts, n=n, seed=6)
            return
        report = logconcave.check_borell(spec, "l2", c, ts, n=n, seed=6)
        values = seminorm("l2")(logconcave.sample(spec, n, 6))
        assert report.extras["theta"] == np.count_nonzero(values < c) / n
        assert [row[1] for row in report.curves["tail"]] == [np.count_nonzero(values >= c * t) / n for t in ts]

    def test_borell_never_calls_the_whole_sampler(self, monkeypatch):
        drawn = _counting(monkeypatch, logconcave, "sample")
        logconcave.check_borell(ALL_FAMILIES[1], "l2", 4.0, (1.0,), n=2000, seed=1)
        assert drawn == []


@pytest.mark.parametrize("n", [1, 2, 3, B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("dim", range(1, 9))
def test_gaussian_matches_the_transposed_view_formula(dim, n):
    """The drawer multiplies by a contiguous copy of root.T (the view for a
    single row) and adds the mean column by column: the bits of
    ``mean + z @ root.T``."""
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    spec = LogConcaveSpec.gaussian(rng.uniform(-2.0, 2.0, dim), a @ a.T / dim + 0.1 * np.eye(dim))
    assert _same_bits(logconcave.sample(spec, n, 8), _logconcave_reference(spec, n, 8))


# ---------------------------------------------------------------------------
# Quantiles and counts read off a sorted sample, against numpy's own
# ---------------------------------------------------------------------------


def _same_but_zero_sign(got, ref):
    """Equal shapes, dtypes and values (NaN equal to NaN), and equal bits
    except a zero's sign."""
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape or got.dtype != ref.dtype or not np.array_equal(got, ref, equal_nan=True):
        return False
    return bool(np.all((got.view(np.uint64) == ref.view(np.uint64)) | (ref == 0) | np.isnan(ref)))


def _random_sample(rng, k):
    """An unsorted sample of 1 to 4000 values, of one of five kinds chosen by k."""
    n = int(np.exp(rng.uniform(0.0, np.log(4000.0))))
    kind = k % 5
    if kind == 0:
        return rng.standard_normal(n)
    if kind == 1:  # heavy ties, zeros of both signs among them
        return rng.integers(-3, 4, n) * rng.choice([-0.0, 0.0, 0.5, 1.0], n)
    if kind == 2:  # Cauchy tails, cubed
        return rng.standard_cauchy(n) ** 3
    if kind == 3:  # NaN sorts last
        x = rng.standard_normal(n)
        x[rng.integers(n, size=int(rng.integers(1, 3)))] = np.nan
        return x
    return np.full(n, rng.choice([-0.0, 0.0, 1.5]))


class TestSortedQuantiles:
    def test_numpy_linear_rule_on_random_samples(self):
        rng = np.random.default_rng(19)
        for k in range(2000):
            x = np.sort(_random_sample(rng, k))
            bins = int(rng.integers(1, 81))
            for q in (np.linspace(0.0, 1.0, bins + 1), float(rng.uniform()), 0.8, 0.0, 1.0, rng.uniform(size=3)):
                got = reports.sorted_quantiles(x, q)
                ref = np.quantile(x, q, method="linear")
                assert type(got) is type(ref)
                assert _same_but_zero_sign(got, ref), (k, len(x), q)

    @pytest.mark.parametrize(
        "x",
        [[2.5], [-0.0], [-0.0, 0.0], [0.0, -0.0], [-np.inf, 1.0], [1.0, np.inf], [-np.inf, np.inf],
         [np.inf, np.inf], [1.0, np.nan], [np.nan], [5e-324, 1.7976931348623157e308]],
    )
    def test_edge_samples(self, x):
        x = np.array(x)
        q = np.linspace(0.0, 1.0, 6)
        with np.errstate(invalid="ignore"):  # inf - inf, as in numpy's own _lerp
            for qq in (q, 0.8, 1.0):
                assert _same_but_zero_sign(reports.sorted_quantiles(x, qq), np.quantile(x, qq))

    @pytest.mark.parametrize("q", [1.5, -0.1, math.nan, np.array([0.0, 0.5, np.nextafter(1.0, 2.0)])])
    def test_levels_outside_0_1_are_refused_as_numpy_refuses_them(self, q):
        x = np.sort(np.random.default_rng(3).standard_normal(50))
        with pytest.raises(ValueError) as ref:
            np.quantile(x, q)
        with pytest.raises(ValueError) as got:
            reports.sorted_quantiles(x, q)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("bins", [1, 2, 3, 64, 80])
    def test_bins_follow_the_searchsorted_rule(self, bins):
        rng = np.random.default_rng(bins)
        for k in range(100):
            x = _random_sample(rng, k)
            qs, idx, counts = stable._quantile_bins(x, bins)
            assert _same_but_zero_sign(qs, np.quantile(x, np.linspace(0.0, 1.0, bins + 1)))
            assert idx.dtype == np.intp
            assert np.array_equal(idx, np.clip(np.searchsorted(qs, x, side="right") - 1, 0, bins - 1))
            assert _same_bits(counts, np.bincount(idx, minlength=bins))


def _kappa_samples():
    """Seminorm values on which the sorted copy and ``np.quantile`` might part."""
    rng = np.random.default_rng(23)
    ties = rng.permutation(np.repeat([0.5, 1.0, 2.0, 3.0], [300, 400, 200, 100]))
    zeros = rng.permutation(np.concatenate([rng.choice([-0.0, 0.0], 800), rng.uniform(0.0, 1.0, 200)]))
    few_inf = np.abs(rng.standard_normal(1001))
    few_inf[rng.integers(1001, size=50)] = np.inf
    many_inf = np.abs(rng.standard_normal(1000))
    many_inf[:400] = np.inf
    nan = np.abs(rng.standard_normal(1000))
    nan[17] = np.nan
    return {
        "ties": ties,
        "signed zeros": zeros,
        "all -0.0": np.full(1000, -0.0),
        "few inf": few_inf,
        "many inf": rng.permutation(many_inf),
        "nan": nan,
        "constant": np.ones(1000),
        "one value": np.array([2.0]),
        "normal": np.abs(rng.standard_normal(2 * reports.BLOCK + 3)),
    }


def _raised(fn):
    """``fn``'s result or ValueError with numpy's invalid-value warnings
    silenced, and whether it warns at all.  The warnings' texts are not
    compared: np.quantile's ``inf - inf`` is a scalar subtraction and the
    sorted copy's an array one, and numpy words the two differently."""
    with np.errstate(invalid="ignore"):
        try:
            outcome = repr(fn())
        except ValueError as exc:
            outcome = f"ValueError: {exc}"
    with np.errstate(invalid="raise"):
        try:
            fn()
            warns = False
        except FloatingPointError:
            warns = True
        except ValueError:
            warns = False
    return outcome, warns


@pytest.mark.parametrize("name", list(_kappa_samples()))
@pytest.mark.parametrize("theta", [THETA_TARGET, 0.4, 0.0, 1.0, 0.999, 1.5, math.nan])
def test_kappa_from_a_sorted_copy_is_numpys(name, theta, monkeypatch):
    """``_choose_kappa`` sorts a copy, in its work array if it is given, and
    reads c off it: the kappa, c and theta of ``np.quantile``, or its error.
    It reads ``THETA_TARGET`` when called, so the rule is checked at other
    levels too; one outside [0, 1] is refused as ``np.quantile`` refuses it."""
    monkeypatch.setattr(logconcave, "THETA_TARGET", theta)
    values = _kappa_samples()[name]
    original = values.copy()
    ref = _raised(lambda: _choose_reference(values, theta))
    assert _raised(lambda: logconcave._choose_kappa(values)) == ref
    assert _raised(lambda: logconcave._choose_kappa(values, np.empty_like(values))) == ref
    assert _same_bits(values, original)


def _poly_reference(poly, x):
    """``PolynomialSpec.__call__`` out of place."""
    out = np.zeros(x.shape[0])
    for exps, coef in sorted(poly.terms.items()):
        term = np.full(x.shape[0], coef)
        for axis, e in enumerate(exps):
            if e:
                term = term * x[:, axis] ** e
        out = out + term
    return out


def test_polynomial_accumulates_in_place():
    x = logconcave.sample(ALL_FAMILIES[2], 5000, 3)
    polys = [
        PolynomialSpec(3, {(3, 0, 0): 0.5, (1, 1, 0): -2.0, (0, 0, 2): 1.25, (0, 0, 0): 0.3, (1, 2, 0): 1e-3}),
        PolynomialSpec(1, {(0, 1, 0): 7.0}),
        PolynomialSpec(0, {(0, 0, 0): 2.5}),
    ]
    for poly in polys:
        assert _same_bits(poly(x), _poly_reference(poly, x))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_polynomial_density_reductions_keep_their_bits(dim):
    """The weighted draws share one buffer, reduced by ``column_means`` and
    ``column_mean_std``: the bits of the ``.mean(axis=0)`` and
    ``.std(axis=0)`` of the products."""
    specs = [_gaussian(0.0, dim), LogConcaveSpec.gaussian([0.5] * dim, np.eye(dim))]
    square = tuple(2 if j == 0 else 0 for j in range(dim))
    densities = [PolynomialSpec(2, {square: 1.0}), PolynomialSpec(2, {square: 1.0 / 1.25})]
    n = 2 * reports.BLOCK + 3
    report = logconcave.polynomial_density_experiment(specs, densities, [0.0] * dim, n=n, seed=4)
    children = np.random.SeedSequence(4).spawn(2)
    for row, spec, dens, child in zip(report.extras["per_index"], specs, densities, children):
        xs = logconcave.sample(spec, n, child)
        f = np.maximum(dens(xs), 0.0)
        mean_f = float(f.mean())
        bary = (f[:, None] * xs).mean(axis=0) / mean_f
        hw = half_width(float((f[:, None] * (xs - bary[None, :])).std(axis=0).max()), n) / mean_f
        ref = {"index": row["index"], "barycenter": bary.tolist(), "half_width": hw,
               "density_mean": mean_f, "density_l2": math.sqrt(float((f * f).mean()))}
        assert repr(row) == repr(ref)


def _tail_reference(spec, p1, n, seed, ts):
    """The rescale, the fraction below one and each level's (tail, half-width)
    of ``stable_tail_check``, from ``np.quantile`` and masks over the values
    in their drawn order."""
    u = np.abs(stable.sample_stable(spec, n, seed)[:, 0])
    scale = float(np.quantile(u, 0.8))
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("cannot rescale: the seminorm has no positive 80% quantile")
    u /= scale
    frac_below = reports.fraction(u < 1.0)[0]
    if not frac_below > 0.75:
        raise ValueError("rescaling failed to put 3/4 of the mass below 1")
    return scale, frac_below, [reports.fraction(u > t) for t in ts]


def _tail_fields(report, ts):
    tails = [report.check(f"tail bound[t={t:.3g}]") for t in ts]
    assert [row[1] for row in report.curves["tail"]] == [c.estimate for c in tails]
    return report.extras["rescale"], report.extras["fraction_below_one"], [(c.estimate, c.half_width) for c in tails]


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return f"ValueError: {exc}"


TAIL_TS = list(np.geomspace(2.5, 25.0, 10))
TAIL_SPEC = StableSpec(p=1.7, b=-0.2)


class TestTailCounts:
    @pytest.mark.parametrize("n", [1, 2, 10, 1000, B + 1, 2 * 10**5])
    @pytest.mark.parametrize("spec", [TAIL_SPEC, StableSpec(p=1.4, b=0.5, dim=2)], ids=["dim1", "dim2"])
    def test_report_matches_quantile_and_masks(self, spec, n):
        for seed in (0, 3, 11):
            got = _outcome(lambda: _tail_fields(stable.stable_tail_check(spec, p1=1.3, n=n, seed=seed), TAIL_TS))
            assert got == _outcome(lambda: _tail_reference(spec, 1.3, n, seed, TAIL_TS)), (n, seed)

    @pytest.mark.parametrize("plant", ["ties at every level", "infinity", "nan"])
    def test_planted_values(self, monkeypatch, plant):
        n = 5000
        rng = np.random.default_rng(2)
        # 76% below one, 10% exactly one (so the 80% quantile is 1.0) and the
        # rest on the levels themselves, of either sign
        x = np.concatenate([rng.uniform(-1.0, 1.0, 3800), np.full(500, -1.0), np.repeat(TAIL_TS, 70)])
        x[:7] = -0.0
        if plant == "infinity":
            x[-3:] = [np.inf, -np.inf, np.inf]
        if plant == "nan":
            x[17] = np.nan
        x = rng.permutation(x)[:, None] * rng.choice([-1.0, 1.0], (n, 1))
        monkeypatch.setattr(stable, "sample_stable", lambda spec, n, seed: x.copy())
        got = _outcome(lambda: _tail_fields(stable.stable_tail_check(TAIL_SPEC, p1=1.3, n=n), TAIL_TS))
        assert got == _outcome(lambda: _tail_reference(TAIL_SPEC, 1.3, n, 0, TAIL_TS))
        if plant == "nan":
            assert got.startswith("ValueError: cannot rescale")
        else:
            assert got[0] == 1.0


# ---------------------------------------------------------------------------
# Peak memory: each check holds its draws (or their seminorm) plus
# block-sized work arrays, in units of n doubles at n = 2e5
# ---------------------------------------------------------------------------

PEAK_N = 2 * 10**5


def _peak_in_n(run):
    import tracemalloc

    run(1000)  # first-call allocations are not the check's own
    tracemalloc.start()
    try:
        run(PEAK_N)
        return tracemalloc.get_traced_memory()[1] / (8 * PEAK_N)
    finally:
        tracemalloc.stop()


_G3 = ALL_FAMILIES[2]
_STABLE = StableSpec(p=1.7, b=-0.2)

#: The two-variable polynomial of the polynomial checks, degree 2.
_QUAD = PolynomialSpec(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 1): 0.3})

#: name -> (run at n, bound).  Measured, in the order below: 2.31, 1.66, 2.34
#: (the draws and the column pair's complex work block), 4.01, 3.00, 4.00,
#: 3.33, 4.00 and 5.33 n.  Before the row blocks: 6.04, 5.00, 5.00, 7.00,
#: 5.00 and 12.0 n for the first six (the tail check 2.00 n before its
#: in-place sort, the identity check 12.0 n before its in-place sums and
#: reused work arrays); the mean-convergence experiment 3.17 n before its
#: seminorm values and work array went over the draws, the polynomial checks
#: 5.00 n each before the polynomial went one row block at a time (and the
#: Lp check took |f| in place), and the polynomial-density experiment 7.04 n
#: before its one weighted buffer.
PEAKS = {
    "check_borell": (lambda n: logconcave.check_borell(_G3, "l2", 3.0, (1.0, 1.5, 2.0), n=n, seed=3), 2.6),
    "stable_tail_check": (lambda n: stable.stable_tail_check(_STABLE, p1=1.3, n=n, seed=3), 1.9),
    "mean_convergence_experiment": (
        lambda n: mean_convergence_experiment([_gaussian(0.5), _gaussian(0.0)], _gaussian(0.0), n=n, seed=3),
        2.45,
    ),
    "stable_mean_convergence_experiment": (
        lambda n: stable_mean_convergence_experiment([StableSpec(p=1.5), _STABLE], _STABLE, n=n, seed=3),
        4.4,
    ),
    "validate_sampler": (lambda n: stable.validate_sampler(_STABLE, n=n, seed=3), 3.3),
    "stability_identity_check": (lambda n: stable.stability_identity_check(StableSpec(p=1.7), n=n, seed=3), 4.3),
    "small_value_check": (lambda n: logconcave.small_value_check(_gaussian(0.0), _QUAD, n=n, seed=3), 3.4),
    "lp_equivalence_check": (lambda n: logconcave.lp_equivalence_check(_gaussian(0.0), [_QUAD], n=n, seed=3), 4.1),
    "polynomial_density_experiment": (
        lambda n: logconcave.polynomial_density_experiment(
            [_gaussian(0.0)] * 2, [PolynomialSpec(2, {(2, 0): 1.0})] * 2, [0.0, 0.0], n=n, seed=3
        ),
        5.45,
    ),
}


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_peak_memory_is_bounded(name):
    run, bound = PEAKS[name]
    peak = _peak_in_n(run)
    assert peak <= bound, f"{name} peaked at {peak:.2f} n doubles (bound {bound} n)"
