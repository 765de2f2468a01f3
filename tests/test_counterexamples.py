import functools
import json
import math

import numpy as np
import pytest

from kantorovich_lab import cli
from kantorovich_lab.counterexamples import (
    DiscreteTailMember,
    GeometricTailMember,
    L1CounterexampleInstance,
    RescalingSchedule,
    ScheduleInfeasibleError,
    family_tail_functions,
    l1_counterexample,
    rescaling_schedule,
    verify_counterexample,
    verify_schedule,
)
from kantorovich_lab.reports import BLOCK


class TestL1Counterexample:
    def test_one_test_function(self):
        inst = l1_counterexample([[2.0, 1.0]])
        assert np.allclose(np.abs(inst.c), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert inst.c[0] > 0  # canonical sign
        assert abs(inst.residuals()[0]) <= 1e-12
        report = verify_counterexample(inst)
        assert report["passed"]
        assert report["barycenter_l1_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_kernel_by_inspection(self):
        inst = l1_counterexample([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(inst.c, [0.0, 0.0, 1.0], atol=1e-12)

    def test_zero_matrix_canonical_choice(self):
        inst = l1_counterexample(np.zeros((3, 4)))
        assert inst.c.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="n x"):
            l1_counterexample(np.zeros((2, 2)))

    def test_perturbed_weights_fail_normalization(self):
        inst = l1_counterexample([[2.0, 1.0]])
        broken = L1CounterexampleInstance(
            F=inst.F, c=inst.c + np.array([1e-3, 0.0]), eps=inst.eps
        )
        report = verify_counterexample(broken)
        assert not report["checks"]["normalization"]
        assert not report["passed"]

    def test_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 11))
            F = rng.standard_normal((n, n + 1)) * rng.uniform(0.5, 3.0)
            inst = l1_counterexample(F, eps=float(rng.uniform(1e-6, 1.0)))
            report = verify_counterexample(inst)
            assert report["max_residual"] <= 1e-9
            assert abs(report["weight_l1_norm"] - 1.0) <= 1e-12
            assert abs(report["barycenter_l1_norm"] - 1.0) <= 1e-12
            assert report["passed"]

    def test_determinism(self, rng):
        F = rng.standard_normal((4, 5))
        a = l1_counterexample(F)
        b = l1_counterexample(F.copy())
        assert np.array_equal(a.c, b.c)


def _ill_conditioned(seed):
    """3 x 4 matrix with singular values 1, 1e-4 and 1e-8 and random singular vectors."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    return U @ np.diag([1.0, 1e-4, 1e-8]) @ V[:, :3].T


class TestIllConditioned:
    # squaring the condition number (a Gram matrix F^T F) left residuals of
    # 3e-6 to 2.8e-5 on these matrices, above the default epsilon
    @pytest.mark.parametrize("seed", range(5))
    def test_null_vector_is_accurate(self, seed):
        report = verify_counterexample(l1_counterexample(_ill_conditioned(seed)))
        assert report["passed"]
        assert report["max_residual"] <= 1e-12

    def test_cli_run_passes(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "counterexample",
                    "seed": 1,
                    "out": str(tmp_path / "out"),
                    "params": {"matrix": _ill_conditioned(0).tolist(), "epsilon": 1e-6},
                }
            )
        )
        assert cli.main(["counterexample", "--config", str(config)]) == 0


class TestRescalingSchedule:
    def test_geometric_boundaries(self):
        family = [GeometricTailMember()]
        tails = family_tail_functions(family, 8)
        assert tails[0](5.0) == pytest.approx(7.0 / 32.0, abs=1e-15)
        assert tails[0](4.0) == pytest.approx(6.0 / 16.0, abs=1e-15)
        sched = rescaling_schedule(tails, horizon=10**5)
        assert sched.boundaries[:6] == (5, 11, 45, 361, 5777, 184865)
        for i in range(len(sched.boundaries) - 1):
            assert sched.boundaries[i + 1] > 2 ** (i + 1) * sched.boundaries[i]

    def test_zero_tails_reduce_to_doubling_chain(self):
        tails = [lambda m: 0.0] * 5
        sched = rescaling_schedule(tails, horizon=100)
        assert sched.boundaries == (1, 3, 13, 105, 1681)

    def test_heavy_tail_infeasible(self):
        heavy = [lambda m: 1.0 / math.log(m + 2.0)] * 3
        with pytest.raises(ScheduleInfeasibleError) as err:
            rescaling_schedule(heavy, horizon=10**6)
        assert err.value.n == 2

    def test_block_assignment(self):
        sched = rescaling_schedule(family_tail_functions([GeometricTailMember()], 6), 10**5)
        # k <= N_2 is block 0, (N_2, N_3] block 1, (N_3, N_4] block 2
        assert sched.blocks(np.array([1, 11, 12, 46])).tolist() == [0, 0, 1, 2]

    def test_verify_certificates(self):
        family = [GeometricTailMember()]
        sched = rescaling_schedule(family_tail_functions(family, 8), 10**5)
        report = verify_schedule(sched, family, horizon=10**5, n_max=6)
        assert report.passed
        assert len(report.certificates) == 6
        for cert in report.certificates:
            assert cert.tail_mass_sum <= cert.tail_mass_bound + 1e-12
            assert cert.scaled_integral_sup <= cert.scaled_integral_bound + 1e-12

    def test_shrunken_boundary_reported(self):
        family = [GeometricTailMember()]
        bad = RescalingSchedule(boundaries=(5, 9, 45), horizon=100)  # 9 <= 2*5
        report = verify_schedule(bad, family, horizon=40, n_max=1)
        assert report.invariant_violations
        assert not report.passed

    def test_discrete_member_matches_closed_form(self):
        # truncated geometric atoms vs the exact closed forms
        js = np.arange(1, 61)
        member = DiscreteTailMember(2.0**-js, [js.astype(float)])
        exact = GeometricTailMember()
        for t in (0.0, 0.5, 1.0, 5.0, 6.5, 20.0):
            assert member.tail_mass(1, [t])[0] == pytest.approx(
                exact.tail_mass(1, [t])[0], abs=1e-12
            )
            assert member.tail_integral(1, [t])[0] == pytest.approx(
                exact.tail_integral(1, [t])[0], abs=1e-12
            )

    def test_geometric_tails_match_the_power_bit_for_bit(self):
        """The closed-form tails take 2 ** -t by setting the exponent; the
        values must be those of the power, across the subnormal range, where
        it rounds to 0 (from t = 1075 on), and at +inf and NaN thresholds."""
        t = np.array(
            [0.0, 0.5, 1.0, 52.0, 1022.0, 1023.0, 1073.0, 1074.0, 1074.9, 1075.0, 1076.0,
             1e300, np.inf, np.nan, -np.nan, -2.5, -np.inf]
        )
        member = GeometricTailMember()
        with np.errstate(invalid="ignore"):  # inf * 0 in the integral at t = +inf
            whole = np.floor(np.maximum(t, 0.0))
            expected_mass = 2.0 ** (-whole)
            expected_integral = (whole + 2.0) * 2.0 ** (-whole)
            mass = member.tail_mass(1, t)
            integral = member.tail_integral(1, t)
        assert mass.tobytes() == expected_mass.tobytes()
        assert integral.tobytes() == expected_integral.tobytes()

    def test_tail_mass_sums_match_per_block_scan(self):
        # reference: each block re-evaluates the tail masses of its own suffix
        sched = rescaling_schedule(family_tail_functions([GeometricTailMember()], 8), 10**5)
        rng = np.random.default_rng(4)
        family = [
            GeometricTailMember(),
            DiscreteTailMember(rng.uniform(0, 1, 40), rng.exponential(50.0, (8, 40))),
        ]
        horizon, n_max = 10**4, 6
        N = sched.boundaries
        ks = np.arange(1, horizon + 1)
        blocks = sched.blocks(ks)
        qidx = np.maximum(blocks, 1)
        thresholds = ks * 2.0 ** (-blocks.astype(float))
        expected = []
        for n in range(1, n_max + 1):
            mask = ks > N[n]
            mass_sum = 0.0
            for member in family:
                per_k = np.zeros(mask.sum())
                sel_q, sel_t = qidx[mask], thresholds[mask]
                for s in np.unique(sel_q):
                    per_k[sel_q == s] = member.tail_mass(int(s), sel_t[sel_q == s])
                mass_sum = max(mass_sum, float(per_k.sum()))
            expected.append(mass_sum)
        report = verify_schedule(sched, family, horizon=horizon, n_max=n_max)
        assert [c.tail_mass_sum for c in report.certificates] == expected
        assert expected[-1] == 0.0  # N_7 lies beyond the horizon: an empty suffix

    def test_empty_family_sums_are_zero(self):
        sched = rescaling_schedule(family_tail_functions([GeometricTailMember()], 6), 10**5)
        report = verify_schedule(sched, [], horizon=10**4, n_max=3)
        assert report.passed
        assert all(c.tail_mass_sum == 0.0 for c in report.certificates)

    def test_horizon_beyond_coverage_rejected(self):
        sched = RescalingSchedule(boundaries=(5, 11), horizon=100)
        with pytest.raises(ValueError, match="coverage"):
            verify_schedule(sched, [GeometricTailMember()], horizon=50)

    @pytest.mark.parametrize("depth, n_max", [(1, None), (1, 1), (2, 0), (2, 2), (2, 10**6), (8, 8)])
    def test_no_report_without_a_certificate_for_each_block(self, depth, n_max):
        family = [GeometricTailMember()]
        sched = rescaling_schedule(family_tail_functions(family, depth), 10**5)
        with pytest.raises(ValueError, match="certify|certifiable"):
            verify_schedule(sched, family, n_max=n_max)

    @pytest.mark.parametrize("depth, n_max", [(2, None), (2, 1), (8, 7)])
    def test_last_certifiable_block_is_certified(self, depth, n_max):
        family = [GeometricTailMember()]
        sched = rescaling_schedule(family_tail_functions(family, depth), 10**5)
        report = verify_schedule(sched, family, n_max=n_max)
        assert [c.n for c in report.certificates] == list(range(1, (n_max or 1) + 1))
        assert report.passed

    def test_determinism(self):
        t1 = rescaling_schedule(family_tail_functions([GeometricTailMember()], 7), 10**5)
        t2 = rescaling_schedule(family_tail_functions([GeometricTailMember()], 7), 10**5)
        assert t1 == t2


# ---------------------------------------------------------------------------
# The verifier walks the indices one row block at a time; the whole-array
# computation it replaced is kept here as the reference
# ---------------------------------------------------------------------------


def _whole_tail(member, kind: str, n: int, t: np.ndarray) -> np.ndarray:
    """A member's tail mass or integral over all thresholds at once, a
    discrete member's as one (thresholds, atoms) pass."""
    if not isinstance(member, DiscreteTailMember):
        return getattr(member, f"tail_{kind}")(n, t)
    v = member.values[n - 1]
    w = member.weights if kind == "mass" else member.weights * v
    return (w[None, :] * (v[None, :] > t[:, None])).sum(axis=1)


def _whole_array_certificates(sched, family, horizon, n_max):
    """(tail_mass_sum, scaled_integral_sup) of blocks 1 to ``n_max``, every
    array as long as the horizon; a NaN sum or sup is kept."""
    N = sched.boundaries
    ks = np.arange(1, horizon + 1)
    blocks = sched.blocks(ks)
    alphas = np.ldexp(1.0, -blocks.astype(np.intc))
    qidx = np.maximum(blocks, 1)
    thresholds = ks * alphas
    tail_masses = []
    cuts = [0, *((qidx[1:] != qidx[:-1]).nonzero()[0] + 1).tolist(), len(ks)]
    for member in family:
        per_k = np.zeros(len(ks))
        for lo, hi in zip(cuts, cuts[1:]):
            per_k[lo:hi] = _whole_tail(member, "mass", int(qidx[lo]), thresholds[lo:hi])
        tail_masses.append(per_k)
    certificates = []
    for n in range(1, n_max + 1):
        mass_sum = float(np.max([per_k[N[n] :].sum() for per_k in tail_masses], initial=0.0))
        sup_scaled = 0.0
        block_hi = min(N[n + 1] if n + 1 < len(N) else horizon, horizon)
        bks = np.arange(N[n] + 1, block_hi + 1)
        if len(bks):
            alpha = 2.0 ** (-n)
            sups = [np.max(_whole_tail(member, "integral", n, bks * alpha) / alpha) for member in family]
            sup_scaled = float(np.max(sups, initial=0.0))
        certificates.append((mass_sum.hex(), sup_scaled.hex()))
    return certificates


def _discrete(atoms: int) -> DiscreteTailMember:
    rng = np.random.default_rng(atoms)
    return DiscreteTailMember(rng.uniform(0.0, 1.0, atoms), rng.exponential(50.0, (8, atoms)))


class PlantedNaN(GeometricTailMember):
    """The geometric member with a NaN tail mass, or a NaN scaled tail
    integral, at the indices ``ks`` alone.  Index k of block n is evaluated
    at seminorm index n and threshold k 2^-n."""

    def __init__(self, sched, ks, kind):
        self.kind = kind
        self.planted = [(int(n), k * 2.0 ** -int(n)) for k, n in zip(ks, sched.blocks(np.array(ks)))]

    def _plant(self, kind, n, thresholds, out):
        if kind == self.kind:
            out[np.isin(thresholds, [t for m, t in self.planted if m == n])] = np.nan
        return out

    def tail_mass(self, n, thresholds):
        return self._plant("mass", n, thresholds, super().tail_mass(n, thresholds))

    def tail_integral(self, n, thresholds):
        return self._plant("integral", n, thresholds, super().tail_integral(n, thresholds))


class AllNaN:
    """A member whose tail masses and integrals are NaN at every threshold."""

    def tail_mass(self, n, thresholds):
        return np.full(len(thresholds), np.nan)

    def tail_integral(self, n, thresholds):
        return np.full(len(thresholds), np.nan)


FAMILIES = {
    "geometric": lambda: [GeometricTailMember()],
    **{f"{a} atoms": (lambda a=a: [_discrete(a)]) for a in (3, 9, 40)},
}
HORIZONS = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1, 10**5)


@functools.cache
def _case(family_name: str, horizon: int):
    family = FAMILIES[family_name]()
    sched = rescaling_schedule(family_tail_functions(family, 8), 10**5)
    return sched, family, _whole_array_certificates(sched, family, horizon, 6)


class TestStreamedVerifier:
    @pytest.mark.parametrize("n_max", range(1, 7))
    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("family_name", sorted(FAMILIES))
    def test_certificates_keep_their_bits(self, family_name, horizon, n_max):
        sched, family, expected = _case(family_name, horizon)
        report = verify_schedule(sched, family, horizon=horizon, n_max=n_max)
        got = [(c.tail_mass_sum.hex(), c.scaled_integral_sup.hex()) for c in report.certificates]
        assert got == expected[:n_max]

    @pytest.mark.parametrize("kind", ["mass", "integral"])
    @pytest.mark.parametrize("ks", [(5778,), (BLOCK,), (BLOCK + 1,), (5777 + BLOCK,), (5778 + BLOCK,), (10**5,),
                                    (12, 46, 2 * BLOCK + 7)])
    def test_a_nan_anywhere_gives_the_whole_array_certificate(self, ks, kind):
        """A NaN tail mass at index k spoils the sum of each block n with
        N_n < k, and a NaN scaled tail integral only the sup of k's block;
        every other sum and sup keeps the whole-array reference's bits.
        Index 5,778 opens block 4 of the geometric schedule, BLOCK and
        BLOCK + 1 end and open a row block of the tail masses, 5,777 + BLOCK
        and 5,778 + BLOCK one of block 4's sup, and 10^5 is the last index."""
        sched = rescaling_schedule(family_tail_functions([GeometricTailMember()], 8), 10**5)
        family = [PlantedNaN(sched, ks, kind), _discrete(9)]
        report = verify_schedule(sched, family, horizon=10**5, n_max=6)
        N, blocks = sched.boundaries, set(sched.blocks(np.array(ks)).tolist())
        spoiled = [(kind == "mass" and max(ks) > N[n], kind == "integral" and n in blocks) for n in range(1, 7)]
        assert [(math.isnan(c.tail_mass_sum), math.isnan(c.scaled_integral_sup)) for c in report.certificates] == spoiled
        got = [(c.tail_mass_sum.hex(), c.scaled_integral_sup.hex()) for c in report.certificates]
        assert got == _whole_array_certificates(sched, family, 10**5, 6)

    @pytest.mark.parametrize("first", [True, False])
    def test_a_member_with_nan_tails_fails_every_certificate(self, first):
        """A NaN sum or sup reaches its certificate, which fails, whether the
        member comes before or after a finite one.  Blocks 1 to 4 of the
        geometric schedule start below its horizon 10^5."""
        sched = rescaling_schedule(family_tail_functions([GeometricTailMember()], 8), 10**5)
        family = [GeometricTailMember(), AllNaN()]
        report = verify_schedule(sched, family[::-1] if first else family, n_max=4)
        assert len(report.certificates) == 4
        for c in report.certificates:
            assert math.isnan(c.tail_mass_sum) and math.isnan(c.scaled_integral_sup)
            assert not c.passed
        assert not report.passed

    def test_zero_horizon_refused(self):
        sched = rescaling_schedule(family_tail_functions([GeometricTailMember()], 4), 10**5)
        with pytest.raises(ValueError, match="no index"):
            verify_schedule(sched, [GeometricTailMember()], horizon=0)

    @pytest.mark.parametrize("family_name", ["geometric", "40 atoms"])
    def test_peak_memory_is_the_tail_masses_and_a_few_blocks(self, family_name):
        """At horizon 10^6 the verifier holds one tail mass per index and
        member, and block-sized work: the whole-array verifier held about a
        dozen horizon-long arrays, and a (k, atoms) mask per seminorm index."""
        import tracemalloc

        horizon = 10**6
        family = FAMILIES[family_name]()
        sched = rescaling_schedule(family_tail_functions(family, 8), 10**5)
        verify_schedule(sched, family, horizon=1000, n_max=6)  # first-call allocations
        tracemalloc.start()
        try:
            verify_schedule(sched, family, horizon=horizon, n_max=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * horizon * len(family) + 12 * 8 * BLOCK
        assert peak <= bound, f"peaked at {peak / 1e6:.2f} MB (bound {bound / 1e6:.2f} MB)"
