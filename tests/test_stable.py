import cmath
import math

import numpy as np
import pytest

from kantorovich_lab.measures import PseudometricSpace, SignedMeasure
from kantorovich_lab.stable import (
    MEAN_BLOCKS,
    StableSpec,
    _binned_gap,
    _quantile_binned,
    _quantile_bins,
    empirical_cf_gap,
    sample_stable,
    stability_identity_check,
    stable_cf,
    stable_mean_convergence_experiment,
    stable_tail_check,
    tail_constants,
    validate_sampler,
)
from kantorovich_lab.transport import kq_norm

N = 10**5


class TestCharacteristicFunction:
    def test_gaussian_reduction(self):
        spec = StableSpec(p=2.0, b=0.0, c=0.5, a=0.0)
        for t in (0.3, 1.0, 2.5):
            assert stable_cf(t, spec) == pytest.approx(cmath.exp(-0.5 * t * t), abs=1e-12)

    def test_at_zero(self):
        assert stable_cf(0.0, StableSpec(p=1.5, b=0.4, c=2.0, a=-1.0)) == 1.0 + 0.0j

    def test_modulus(self):
        spec = StableSpec(p=1.3, b=-0.6, c=0.8, a=0.7)
        for t in (-2.0, 0.5, 3.0):
            assert abs(stable_cf(t, spec)) == pytest.approx(
                math.exp(-0.8 * abs(t) ** 1.3), abs=1e-12
            )

    def test_conjugate_symmetry(self):
        spec = StableSpec(p=1.7, b=0.9, c=1.1, a=0.3)
        for t in (0.1, 1.0, 2.7):
            assert stable_cf(-t, spec) == pytest.approx(
                stable_cf(t, spec).conjugate(), abs=1e-14
            )

    def test_orders_at_or_below_one_rejected(self):
        for p in (1.0, 0.7, 2.1):
            with pytest.raises(ValueError, match="order p"):
                StableSpec(p=p)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="skew"):
            StableSpec(p=1.5, b=1.5)
        with pytest.raises(ValueError, match="scale"):
            StableSpec(p=1.5, c=0.0)

    @pytest.mark.parametrize(
        "field, value, match",
        [("a", math.nan, "shift a"), ("a", math.inf, "shift a"), ("a", -math.inf, "shift a"),
         ("c", math.inf, "scale c"), ("c", math.nan, "scale c"),
         ("b", math.nan, "skew"), ("p", math.nan, "order p")],
    )
    def test_non_finite_parameters_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            StableSpec(**{"p": 1.5, field: value})


class TestSampler:
    def test_gaussian_case_variance(self):
        xs = sample_stable(StableSpec(p=2.0, b=0.0, c=0.5, a=0.0), N, seed=9)
        assert abs(xs.var() - 1.0) <= 0.02
        assert abs(xs.mean()) <= 0.01

    def test_cf_match_on_grid(self):
        for p in (1.3, 1.5, 1.8, 2.0):
            report = validate_sampler(StableSpec(p=p), n=N, seed=2024)
            assert report.passed, f"cf mismatch at p={p}"

    def test_cf_at_one_point(self):
        # |cf(1)| = exp(-c) for the empirical cf within 3 SE
        spec = StableSpec(p=1.5, b=0.0, c=0.7, a=0.0)
        xs = sample_stable(spec, N, seed=13)[:, 0]
        rows, zmax = empirical_cf_gap(xs, spec, ts=[1.0])
        assert zmax <= 3.0

    def test_skewed_and_shifted(self):
        report = validate_sampler(StableSpec(p=1.6, b=0.8, c=1.3, a=-0.4), n=N, seed=77)
        assert report.passed

    def test_seed_determinism(self):
        spec = StableSpec(p=1.4, b=0.2)
        assert np.array_equal(sample_stable(spec, 500, seed=3), sample_stable(spec, 500, seed=3))

    def test_product_dimension(self):
        xs = sample_stable(StableSpec(p=1.8, dim=3), 100, seed=1)
        assert xs.shape == (100, 3)


class TestTailConstants:
    def test_delta_08(self):
        tc = tail_constants(0.8, 1.5)
        assert tc.k == 9
        assert (math.sqrt(2) * 0.8) ** tc.k > 3.0
        assert (math.sqrt(2) * 0.8) ** (tc.k - 1) <= 3.0
        assert tc.beta == pytest.approx(2 ** (1 / 1.5) * 0.8, abs=1e-12)

    def test_rho_against_series_oracle(self):
        # independent recompute: rho = exp(sum log(1 + delta^n)) by direct product
        for delta in (0.72, 0.8, 0.95):
            tc = tail_constants(delta, 2.0)
            prod = 1.0
            term = delta
            while term >= 1e-15:
                prod *= 1.0 + term
                term *= delta
            assert tc.rho == pytest.approx(prod, rel=1e-10)

    def test_monotone_in_delta(self):
        deltas = [0.72, 0.75, 0.8, 0.9]
        ks = [tail_constants(d, 1.5).k for d in deltas]
        rhos = [tail_constants(d, 1.5).rho for d in deltas]
        assert ks == sorted(ks, reverse=True)  # k grows as delta drops to 2^-1/2
        assert rhos == sorted(rhos)  # rho increases in delta

    def test_coefficient_assembly(self):
        tc = tail_constants(0.8, 1.5)
        assert tc.log_coefficient == pytest.approx(
            math.log(8.0) + 1.5 * math.log(tc.rho) + 8.0 * tc.k, abs=1e-9
        )
        assert tc.coefficient == pytest.approx(8.0 * tc.rho**1.5 * math.exp(72.0), rel=1e-9)

    def test_boundary_growth_reported_up_to_cap(self):
        tc = tail_constants(0.709, 2.0)  # close to 2^-1/2 ~ 0.70711
        assert tc.k > 100
        with pytest.raises(ValueError, match="cap"):
            tail_constants(0.7071068, 2.0)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="delta"):
            tail_constants(0.5, 1.5)
        with pytest.raises(ValueError, match="order"):
            tail_constants(0.8, 1.0)


class TestTailCheck:
    def test_heavy_tail_slope(self):
        report = stable_tail_check(StableSpec(p=1.5), p1=1.4, n=10**6, seed=31337)
        assert report.passed
        assert report.extras["slope"] == pytest.approx(-1.5, abs=0.15)
        assert report.extras["k"] == 9

    def test_gaussian_tail_beats_every_power(self):
        report = stable_tail_check(StableSpec(p=2.0), p1=1.9, n=2 * 10**5, seed=3)
        assert report.passed
        assert report.extras["slope"] is None

    def test_hypothesis_violation_recorded_as_expected_failure(self):
        report = stable_tail_check(StableSpec(p=1.3), p1=1.8, n=2 * 10**5, seed=5)
        slope_check = report.check("tail slope")
        assert not slope_check.passed
        assert slope_check.expected_failure
        assert report.passed  # expected failures do not fail the report

    def test_rescaling_puts_mass_below_one(self):
        report = stable_tail_check(StableSpec(p=1.5, c=37.0), p1=1.3, n=10**5, seed=8)
        assert report.extras["fraction_below_one"] > 0.75


class TestStabilityIdentity:
    def test_two_sample_cf_match(self):
        for p, seed in ((1.5, 11), (1.7, 12), (2.0, 13)):
            report = stability_identity_check(StableSpec(p=p), n=N, seed=seed)
            assert report.passed, f"identity mismatch at p={p}"

    def test_asymmetric_coefficients(self):
        report = stability_identity_check(
            StableSpec(p=1.6), n=N, seed=14, coeffs=(0.7, 1.2)
        )
        assert report.passed

    def test_requires_strict_stability(self):
        with pytest.raises(ValueError, match="a = 0 and b = 0"):
            stability_identity_check(StableSpec(p=1.5, a=1.0), n=100, seed=1)


def _quantile_binned_loop(values, bins):
    """Reference: one masked scan per bin."""
    qs = np.quantile(values, np.linspace(0.0, 1.0, bins + 1))
    idx = np.clip(np.searchsorted(qs, values, side="right") - 1, 0, bins - 1)
    atoms, weights, err = np.empty(bins), np.empty(bins), 0.0
    for b in range(bins):
        sel = values[idx == b]
        if len(sel) == 0:
            atoms[b], weights[b] = qs[b], 0.0
            continue
        atoms[b] = float(sel.mean())
        weights[b] = len(sel) / len(values)
        err += float(np.abs(sel - atoms[b]).sum()) / len(values)
    return atoms, weights, err


class TestQuantileBinning:
    def test_matches_masked_scans(self):
        rng = np.random.default_rng(3)
        # continuous draws, and ties that leave some bins empty
        for values in (rng.standard_cauchy(10**5), rng.integers(0, 5, size=1000).astype(float)):
            atoms, weights, err = _quantile_binned(values, 64)
            ref_atoms, ref_weights, ref_err = _quantile_binned_loop(values, 64)
            np.testing.assert_allclose(atoms, ref_atoms, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(weights, ref_weights)
            assert err == pytest.approx(ref_err, rel=1e-12)


def _quantile_binned_unsorted(values, bins):
    """Reference: quantiles and bin search over the sample in its own order."""
    qs = np.quantile(values, np.linspace(0.0, 1.0, bins + 1))
    idx = np.clip(np.searchsorted(qs, values, side="right") - 1, 0, bins - 1)
    n = len(values)
    counts = np.bincount(idx, minlength=bins)
    sums = np.bincount(idx, weights=values, minlength=bins)
    atoms = np.where(counts > 0, sums / np.maximum(counts, 1), qs[:bins])
    spread = values - atoms[idx]
    deviation = np.bincount(idx, weights=np.abs(spread, out=spread), minlength=bins)
    return qs, idx, atoms, counts / n, sum((deviation / n).tolist())


def _tie_heavy_samples():
    rng = np.random.default_rng(8)
    continuous = rng.standard_cauchy(64 * 100 + 1)  # every edge is a sample value
    return {
        "integers": rng.integers(-3, 4, size=5000).astype(float),
        "edges": continuous,
        "edge copies": rng.permutation(
            np.concatenate([continuous, np.quantile(continuous, np.linspace(0, 1, 65))])
        ),
        "constant": np.full(1000, 2.5),
        # a zero edge may take the other sign; array_equal counts -0.0 == 0.0
        "signed zeros": rng.choice([-0.0, 0.0, 1.0], size=3001),
        "fewer than bins": rng.standard_normal(10),
        "one value": np.array([4.0]),
    }


class TestOneSortBinning:
    @pytest.mark.parametrize("name", list(_tie_heavy_samples()))
    def test_matches_unsorted_search(self, name):
        values = _tie_heavy_samples()[name]
        ref_qs, ref_idx, ref_atoms, ref_weights, ref_err = _quantile_binned_unsorted(values, 64)
        qs, idx = _quantile_bins(values, 64)
        assert np.array_equal(qs, ref_qs)
        assert np.array_equal(idx, ref_idx)
        atoms, weights, err = _quantile_binned(values, 64)
        assert np.array_equal(atoms, ref_atoms)
        assert np.array_equal(weights, ref_weights)
        assert err == ref_err


class TestBinnedGap:
    def test_equals_kq_norm_on_the_validated_space(self):
        # the binned stable samples of the experiment, at several shifts
        for draw in range(20):
            q = (1.0, 1.5, 2.0, 3.0)[draw % 4]
            x = sample_stable(StableSpec(p=1.8, a=1.0 / (draw + 1)), 2000, seed=draw)[:, 0]
            y = sample_stable(StableSpec(p=1.8), 3000, seed=100 + draw)[:, 0]
            limit = _quantile_binned(y, 64)
            gap, err = _binned_gap(_quantile_binned(x, 64), limit, q)
            ax, wx, ex = _quantile_binned(x, 64)
            pts = np.concatenate([[0.0], ax, limit[0]])
            space = PseudometricSpace(
                points=tuple(f"b{i}" for i in range(len(pts))),
                metrics={"line": np.abs(pts[:, None] - pts[None, :])},
                anchor=0,
            )
            mu = SignedMeasure(space, np.concatenate([[0.0], wx, -limit[1]]))
            assert gap == kq_norm(mu, "line", q)
            assert err == ex + limit[2]


class TestMeanConvergence:
    def test_shift_sequence(self):
        specs = [StableSpec(p=1.8, a=1.0 / n) for n in range(1, 65)]
        limit = StableSpec(p=1.8, a=0.0)
        report = stable_mean_convergence_experiment(specs, limit, n=5 * 10**4, seed=21)
        # per-index sampler accuracy: the mean equals the shift for p > 1
        for i, row in enumerate(report.extras["per_index"]):
            target = 1.0 / (i + 1)
            assert abs(row["barycenter"][0] - target) <= 4 * row["barycenter_half_width"] + 0.02
        assert "k_gaps" in report.extras
        assert all(g >= 0 for g in report.extras["k_gaps"])
        assert all(math.isfinite(g) for g in report.extras["k_gaps"])
        assert report.extras["per_index"][0]["binning_error"] > 0

    def test_varying_orders_symmetric(self):
        specs = [StableSpec(p=min(2.0, 1.5 + 1.0 / n)) for n in range(1, 33)]
        limit = StableSpec(p=1.5)
        report = stable_mean_convergence_experiment(specs, limit, n=5 * 10**4, seed=22)
        assert report.passed

    def test_constant_sequence_gaps_are_zero(self):
        # identical laws share content-derived seeds, so gaps vanish exactly
        spec = StableSpec(p=1.7)
        report = stable_mean_convergence_experiment([spec, spec], spec, n=5 * 10**4, seed=23)
        assert report.passed
        assert max(report.extras["k_gaps"]) == 0.0
        gap_check = report.check("final barycenter gap vs limit")
        assert gap_check.estimate == 0.0

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            stable_mean_convergence_experiment(
                [StableSpec(p=1.5)], StableSpec(p=1.5), p1=1.7, n=100, seed=1
            )

    def test_q_range_enforced(self):
        with pytest.raises(ValueError, match="q must"):
            stable_mean_convergence_experiment(
                [StableSpec(p=1.5)], StableSpec(p=1.5), q=1.6, n=100, seed=1
            )

    @pytest.mark.parametrize("n", [1, 8, MEAN_BLOCKS - 1])
    def test_fewer_draws_than_block_means_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n = {n} draws cannot fill 16 block means: n must be at least 16$"):
            stable_mean_convergence_experiment([StableSpec(p=1.6)], StableSpec(p=2.0), n=n, seed=1)

    def test_one_draw_per_block_mean_is_finite(self):
        report = stable_mean_convergence_experiment([StableSpec(p=1.6)], StableSpec(p=2.0), n=MEAN_BLOCKS, seed=1)
        assert all(math.isfinite(c.estimate) and math.isfinite(c.bound) for c in report.checks)
        assert math.isfinite(report.extras["per_index"][0]["barycenter_half_width"])
