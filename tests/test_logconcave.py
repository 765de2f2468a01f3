import math

import numpy as np
import pytest
from scipy import integrate, stats

from kantorovich_lab.logconcave import (
    SEMINORMS,
    LogConcaveSpec,
    PolynomialSpec,
    _choose_kappa,
    _exp_moment,
    borell_bound,
    check_borell,
    lp_equivalence_check,
    mean_convergence_experiment,
    polynomial_density_experiment,
    sample,
    small_value_check,
)
from kantorovich_lab.reports import BLOCK, column_mean_std, column_means, row_norms

N = 10**5


class TestReductions:
    """The fast reductions against the numpy expressions they replace, bitwise."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_column_mean_std(self, dim):
        rng = np.random.default_rng(dim)
        xs = rng.standard_normal((10**5 + 1, dim)) * [3.0**j for j in range(dim)] + 1e3
        wide = rng.exponential(2.0, (50_001, dim + 2))
        layouts = (xs, xs[::2], wide[:, 1 : dim + 1], np.asfortranarray(xs), xs[:7])
        for x in layouts:
            means, stds = column_mean_std(x)
            assert np.array_equal(column_means(x), means)
            assert np.array_equal(means, x.mean(axis=0))
            assert np.array_equal(stds, x.std(axis=0))

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_l2(self, dim):
        assert SEMINORMS["l2"] is row_norms
        x = np.random.default_rng(dim).standard_normal((10**4, dim)) * 10.0**dim
        for layout in (x, x[::3], np.asfortranarray(x)):
            assert np.array_equal(SEMINORMS["l2"](layout), np.sqrt((layout * layout).sum(axis=1)))


class TestSamplers:
    def test_standard_normal_moments(self):
        xs = sample(LogConcaveSpec.gaussian([0.0], [[1.0]]), N, seed=1)[:, 0]
        assert abs(xs.mean()) <= 3.0 / math.sqrt(N)
        assert abs(xs.var() - 1.0) <= 3.0 * math.sqrt(2.0 / N)

    def test_gaussian_covariance(self):
        cov = [[2.0, 0.5], [0.5, 1.0]]
        xs = sample(LogConcaveSpec.gaussian([1.0, -1.0], cov), N, seed=2)
        emp = np.cov(xs.T)
        assert np.abs(emp - np.asarray(cov)).max() < 0.05
        assert np.abs(xs.mean(axis=0) - [1.0, -1.0]).max() < 0.02

    def test_box_support(self):
        xs = sample(LogConcaveSpec.uniform_box([0.0], [1.0]), 1000, seed=3)
        assert xs.min() >= 0.0 and xs.max() <= 1.0

    def test_simplex_support(self):
        xs = sample(LogConcaveSpec.uniform_simplex(3), 1000, seed=4)
        assert xs.min() >= 0.0
        assert np.all(xs.sum(axis=1) <= 1.0 + 1e-12)
        # uniform solid simplex in dim k has mean 1/(k+1) per coordinate
        assert np.abs(xs.mean(axis=0) - 0.25).max() < 0.02

    def test_exponential_rates(self):
        xs = sample(LogConcaveSpec.product_exponential([2.0, 0.5]), N, seed=5)
        assert abs(xs[:, 0].mean() - 0.5) < 0.02
        assert abs(xs[:, 1].mean() - 2.0) < 0.05

    def test_seed_determinism(self):
        spec = LogConcaveSpec.product_exponential([1.0])
        assert np.array_equal(sample(spec, 100, seed=9), sample(spec, 100, seed=9))

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            LogConcaveSpec.gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="lo < hi"):
            LogConcaveSpec.uniform_box([1.0], [0.5])
        with pytest.raises(ValueError, match="rates"):
            LogConcaveSpec.product_exponential([0.0])
        with pytest.raises(ValueError, match="sample count"):
            sample(LogConcaveSpec.uniform_simplex(1), 0, seed=0)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "mean, cov",
        [([math.nan], [[1.0]]), ([0.0, math.inf], np.eye(2)), ([0.0], [[math.nan]]),
         ([0.0, 0.0], [[1.0, math.inf], [math.inf, 1.0]])],
    )
    def test_gaussian_rejects_non_finite(self, mean, cov):
        with pytest.raises(ValueError, match="must be finite"):
            LogConcaveSpec.gaussian(mean, cov)

    def test_gaussian_symmetry_tolerance_scales_with_the_covariance(self):
        cov = 1e6 * np.array([[2.0, 0.3], [0.3, 1.0]])
        cov[0, 1] += 1e-9  # round-off at scale 1e6
        spec = LogConcaveSpec.gaussian([0.0, 0.0], cov)
        assert np.isfinite(sample(spec, 10, seed=0)).all()
        cov[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            LogConcaveSpec.gaussian([0.0, 0.0], cov)
        tiny = 1e-14 * np.array([[1.0, 0.0], [1e-3, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            LogConcaveSpec.gaussian([0.0, 0.0], tiny)

    def test_gaussian_psd_tolerance_scales_with_the_covariance(self):
        # eigenvalues a + b = 1e-14 and a - b = -1e-11: indefinite at scale 1e-14
        a = (1e-14 - 1e-11) / 2
        b = (1e-14 + 1e-11) / 2
        with pytest.raises(ValueError, match="positive semidefinite"):
            LogConcaveSpec.gaussian([0.0, 0.0], [[a, b], [b, a]])
        # round-off below zero at scale 1e6 is accepted
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        cov = vecs @ np.diag([2e6, -1e-6]) @ vecs.T
        cov = (cov + cov.T) / 2
        LogConcaveSpec.gaussian([0.0, 0.0], cov)
        with pytest.raises(ValueError, match="positive semidefinite"):
            LogConcaveSpec.gaussian([0.0, 0.0], vecs @ np.diag([2e6, -1.0]) @ vecs.T)

    @pytest.mark.parametrize(
        "lo, hi", [([math.nan], [1.0]), ([0.0], [math.nan]), ([-math.inf], [1.0]), ([0.0, 0.0], [1.0, math.inf])]
    )
    def test_box_rejects_non_finite(self, lo, hi):
        with pytest.raises(ValueError, match="box bounds"):
            LogConcaveSpec.uniform_box(lo, hi)

    @pytest.mark.parametrize("rates", [[math.nan], [1.0, math.inf], [-1.0], [0.0]])
    def test_rates_must_be_positive_and_finite(self, rates):
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            LogConcaveSpec.product_exponential(rates)


class TestBorell:
    def test_bound_values(self):
        assert borell_bound(0.6827, 2.0) == pytest.approx(0.46477, abs=1e-4)
        assert borell_bound(0.5, 7.3) == 1.0
        assert borell_bound(0.999, 40.0) < 1e-1
        with pytest.raises(ValueError, match="t >= 1"):
            borell_bound(0.7, 0.5)
        with pytest.raises(ValueError, match="theta"):
            borell_bound(1.0, 2.0)

    def test_gaussian_abs(self):
        report = check_borell(
            LogConcaveSpec.gaussian([0.0], [[1.0]]), "abs", 1.0, [1.0, 2.0, 4.0], n=N, seed=42
        )
        assert report.passed
        # normal-CDF oracle: theta = 2 Phi(1) - 1, tail at t=2 is 2 (1 - Phi(2))
        theta_true = 2.0 * stats.norm.cdf(1.0) - 1.0
        assert report.extras["theta"] == pytest.approx(theta_true, abs=0.005)
        tail = report.check("tail[t=2]")
        assert tail.estimate == pytest.approx(2.0 * (1.0 - stats.norm.cdf(2.0)), abs=0.003)
        assert tail.bound == pytest.approx(0.4647, abs=0.02)

    def test_bounded_support_tail_is_zero(self):
        report = check_borell(
            LogConcaveSpec.uniform_box([-1.0], [1.0]), "abs", 0.8, [2.0, 4.0], n=N, seed=43
        )
        assert report.passed
        assert report.check("tail[t=2]").estimate == 0.0

    def test_exponential_sum(self):
        report = check_borell(
            LogConcaveSpec.product_exponential([1.0, 1.0]),
            "abs_sum",
            2.7,
            [1.0, 2.0, 4.0],
            n=N,
            seed=44,
        )
        assert report.passed

    def test_simplex_family(self):
        report = check_borell(
            LogConcaveSpec.uniform_simplex(2), "l2", 0.65, [1.0, 1.5, 2.0], n=N, seed=46
        )
        assert report.passed

    def test_rejects_insignificant_mass(self):
        with pytest.raises(ValueError, match="above 1/2"):
            check_borell(
                LogConcaveSpec.gaussian([0.0], [[1.0]]), "abs", 0.6, [2.0], n=10**4, seed=45
            )


class TestExpMoment:
    def test_kappa_zero_exact(self):
        xs = sample(LogConcaveSpec.gaussian([0.0], [[1.0]]), 1000, seed=7)
        est, hw = _exp_moment(SEMINORMS["abs"](xs), 0.0)
        assert est == 1.0
        assert hw == 0.0

    def test_gaussian_quadrature_oracle(self):
        kappa = 0.5
        xs = sample(LogConcaveSpec.gaussian([0.0], [[1.0]]), N, seed=8)
        est, hw = _exp_moment(SEMINORMS["abs"](xs), kappa)
        oracle, _ = integrate.quad(
            lambda x: math.exp(kappa * abs(x)) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
            -12,
            12,
        )
        assert est == pytest.approx(oracle, abs=hw)

    def test_overflow_diagnostic(self):
        xs = sample(LogConcaveSpec.gaussian([0.0], [[1.0]]), 1000, seed=9)
        with pytest.raises(ValueError, match="overflow"):
            _exp_moment(SEMINORMS["abs"](xs), 1e4)

    def test_blow_up_near_divergence_threshold(self):
        # E exp(kappa x) = 1/(1 - kappa) for the unit exponential; the report
        # documents the blow-up as kappa approaches 1
        xs = sample(LogConcaveSpec.product_exponential([1.0]), 10**6, seed=10)
        est_half, hw_half = _exp_moment(SEMINORMS["abs"](xs), 0.5)
        assert est_half == pytest.approx(2.0, abs=3 * hw_half)
        est_sub, _ = _exp_moment(SEMINORMS["abs"](xs), 0.9)
        assert est_sub > 3.0 * est_half  # oracle: 10 vs 2

    def test_half_width_scales_as_root_n(self):
        # doubling n must shrink the half-width by ~sqrt(2)
        spec = LogConcaveSpec.gaussian([0.0], [[1.0]])
        _, hw_n = _exp_moment(SEMINORMS["abs"](sample(spec, 2 * 10**5, seed=12)), 0.3)
        _, hw_2n = _exp_moment(SEMINORMS["abs"](sample(spec, 4 * 10**5, seed=12)), 0.3)
        assert hw_2n == pytest.approx(hw_n / math.sqrt(2.0), rel=0.05)


class TestMeanConvergence:
    def test_gaussian_shift_sequence(self):
        specs = [LogConcaveSpec.gaussian([1.0 / n], [[1.0]]) for n in range(1, 129)]
        limit = LogConcaveSpec.gaussian([0.0], [[1.0]])
        report = mean_convergence_experiment(specs, limit, qs=["abs"], n=N, seed=11)
        assert report.passed
        # sampler accuracy per index: |mean - 1/n| within the half-width
        for i, row in enumerate(report.extras["per_index"]):
            target = 1.0 / (i + 1)
            assert abs(row["barycenter"][0] - target) <= 2.0 * row["barycenter_half_width"]
        # first absolute moment of the limit: sqrt(2/pi)
        est, hw = report.extras["limit"]["moment[abs,r=1]"]
        assert est == pytest.approx(math.sqrt(2.0 / math.pi), abs=hw)

    def test_uniform_box_exponential_moment(self):
        # exp-moment of uniform[0, 1 + 1/n] converges to (e^kappa - 1)/kappa
        specs = [LogConcaveSpec.uniform_box([0.0], [1.0 + 1.0 / n]) for n in range(1, 257)]
        limit = LogConcaveSpec.uniform_box([0.0], [1.0])
        report = mean_convergence_experiment(specs, limit, qs=["abs"], n=2 * 10**4, seed=12)
        assert report.passed
        kappa = report.extras["kappas"]["abs"]["kappa"]
        est, hw = report.extras["limit"]["exp[abs]"]
        assert est == pytest.approx((math.exp(kappa) - 1.0) / kappa, abs=3 * hw)

    def test_kappa_policy_rejects_flat_mass(self):
        with pytest.raises(ValueError, match="kappa"):
            _choose_kappa(np.ones(1000))


class TestSmallValue:
    def test_linear_slope(self):
        report = small_value_check(
            LogConcaveSpec.gaussian([0.0], [[1.0]]),
            PolynomialSpec.from_1d_coeffs([0.0, 1.0]),
            n=10**6,
            seed=101,
        )
        assert report.passed
        assert report.extras["slope"] == pytest.approx(1.0, abs=0.1)

    def test_quadratic_slope(self):
        report = small_value_check(
            LogConcaveSpec.gaussian([0.0], [[1.0]]),
            PolynomialSpec.from_1d_coeffs([0.0, 0.0, 1.0]),
            n=10**6,
            seed=102,
        )
        assert report.passed
        assert report.extras["slope"] == pytest.approx(0.5, abs=0.1)

    def test_degenerate_polynomial_rejected(self):
        # point-mass law makes a formally linear polynomial a.s. constant
        with pytest.raises(ValueError, match="constant"):
            small_value_check(
                LogConcaveSpec.gaussian([3.0], [[0.0]]),
                PolynomialSpec.from_1d_coeffs([0.0, 1.0]),
                n=1000,
                seed=4,
            )

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            small_value_check(
                LogConcaveSpec.gaussian([0.0], [[1.0]]),
                PolynomialSpec(0, {(0,): 2.0}),
                n=1000,
                seed=4,
            )


class TestLpEquivalence:
    def test_linear_ratio_oracle(self):
        # ||x||_2 / ||x||_1 under the standard normal: sqrt(pi/2)
        report = lp_equivalence_check(
            LogConcaveSpec.gaussian([0.0], [[1.0]]),
            [PolynomialSpec.from_1d_coeffs([0.0, 1.0])],
            ps=[2.0],
            n=N,
            seed=103,
        )
        ratio = report.extras["ratios"]["2"][0]
        assert ratio == pytest.approx(math.sqrt(math.pi / 2.0), abs=0.01)

    def test_constant_polynomial_ratios_are_one(self):
        report = lp_equivalence_check(
            LogConcaveSpec.gaussian([0.0], [[1.0]]),
            [PolynomialSpec(0, {(0,): 3.0})],
            ps=[2.0, 4.0],
            n=10**4,
            seed=104,
        )
        for vals in report.extras["ratios"].values():
            assert vals[0] == pytest.approx(1.0, abs=1e-12)

    def test_random_quadratic_family_uniformly_bounded(self, rng):
        polys = []
        for _ in range(12):
            a, b, c = rng.uniform(-2, 2, size=3)
            polys.append(PolynomialSpec(2, {(0,): a, (1,): b, (2,): c if c != 0 else 1.0}))
        report = lp_equivalence_check(
            LogConcaveSpec.gaussian([0.0], [[1.0]]), polys, ps=[2.0, 4.0], n=N, seed=105
        )
        assert report.passed
        # degree-2 Gaussian polynomials: hypercontractive-style cap with margin
        assert report.extras["fitted_constants"]["C[p=2,d=2]"] < 6.0
        assert report.extras["fitted_constants"]["C[p=4,d=2]"] < 30.0


class TestPolynomialDensity:
    def test_odd_moment_vanishes(self):
        # density x^2 under the standard normal: barycenter E[x^3] = 0
        report = polynomial_density_experiment(
            [LogConcaveSpec.gaussian([0.0], [[1.0]])],
            [PolynomialSpec.from_1d_coeffs([0.0, 0.0, 1.0])],
            limit_barycenter=[0.0],
            n=N,
            seed=106,
        )
        assert report.passed

    def test_shifted_moment_formula(self):
        # mu_n = N(m, 1), density x^2/(1+m^2): barycenter (m^3 + 3m)/(1 + m^2)
        ms = [1.0 / n for n in range(1, 17)]
        specs = [LogConcaveSpec.gaussian([m], [[1.0]]) for m in ms]
        densities = [
            PolynomialSpec.from_1d_coeffs([0.0, 0.0, 1.0 / (1.0 + m * m)]) for m in ms
        ]
        report = polynomial_density_experiment(
            specs, densities, limit_barycenter=[0.0], n=N, seed=107
        )
        for m, row in zip(ms, report.extras["per_index"]):
            target = (m**3 + 3 * m) / (1 + m * m)
            assert row["barycenter"][0] == pytest.approx(target, abs=3 * row["half_width"] + 1e-3)

    def test_unit_density_reduces_to_means(self):
        report = polynomial_density_experiment(
            [LogConcaveSpec.gaussian([0.25], [[1.0]])],
            [PolynomialSpec(0, {(0,): 1.0})],
            limit_barycenter=[0.25],
            n=N,
            seed=108,
        )
        assert report.passed
        assert report.extras["per_index"][0]["density_l2"] == 1.0

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            polynomial_density_experiment(
                [LogConcaveSpec.gaussian([0.0], [[1.0]])],
                [PolynomialSpec.from_1d_coeffs([0.0, 0.0, 7.0])],
                limit_barycenter=[0.0],
                n=10**4,
                seed=109,
            )


class TestPolynomialSpec:
    def test_exact_degree_required(self):
        with pytest.raises(ValueError, match="degree"):
            PolynomialSpec(2, {(1,): 1.0})

    def test_evaluation(self):
        poly = PolynomialSpec(2, {(0, 0): 1.0, (1, 1): 2.0, (2, 0): -1.0})
        x = np.array([[1.0, 2.0], [0.5, 0.0]])
        assert poly(x).tolist() == [1.0 + 4.0 - 1.0, 1.0 + 0.0 - 0.25]

    def test_1d_constructor(self):
        poly = PolynomialSpec.from_1d_coeffs([1.0, 0.0, 3.0])
        assert poly.degree == 2
        assert poly(np.array([[2.0]]))[0] == 13.0

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
    def test_row_blocks_keep_the_whole_length_bits(self, n):
        """One row block at a time, the values are those of whole-length
        terms, summed term by term in the same order."""
        poly = PolynomialSpec(3, {(3, 0): 1.5, (1, 1): -0.5, (0, 2): 0.3, (0, 1): 1e-3, (0, 0): 2.0})
        x = np.random.default_rng(n).standard_normal((n, 2)) * 10.0
        expected = np.zeros(n)
        for exps, coef in sorted(poly.terms.items()):
            term = np.full(n, coef)
            for axis, e in enumerate(exps):
                if e:
                    term *= x[:, axis] ** e
            expected += term
        assert poly(x).tobytes() == expected.tobytes()
