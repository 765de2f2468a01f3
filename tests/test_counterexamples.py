import math

import numpy as np
import pytest

from kantorovich_lab.counterexamples import (
    DiscreteTailMember,
    GeometricTailMember,
    L1CounterexampleInstance,
    RescalingSchedule,
    ScheduleInfeasibleError,
    _jacobi_smallest_direction,
    family_tail_functions,
    l1_counterexample,
    rescaling_schedule,
    verify_counterexample,
    verify_schedule,
)
from kantorovich_lab.measures import barycenter


class TestL1Counterexample:
    def test_one_test_function(self):
        inst = l1_counterexample([[2.0, 1.0]])
        assert np.allclose(np.abs(inst.c), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert inst.c[0] > 0  # canonical sign
        assert abs(inst.residuals()[0]) <= 1e-12
        report = verify_counterexample(inst, 1e-6)
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
        report = verify_counterexample(broken, 1e-6)
        assert not report["checks"]["normalization"]
        assert not report["passed"]

    def test_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 11))
            F = rng.standard_normal((n, n + 1)) * rng.uniform(0.5, 3.0)
            inst = l1_counterexample(F)
            report = verify_counterexample(inst, eps=float(rng.uniform(1e-6, 1.0)))
            assert report["max_residual"] <= 1e-9
            assert abs(report["weight_l1_norm"] - 1.0) <= 1e-12
            assert abs(report["barycenter_l1_norm"] - 1.0) <= 1e-12
            assert report["passed"]

    def test_measure_on_basis_atoms(self):
        inst = l1_counterexample([[2.0, 1.0]])
        mu = inst.signed_measure()
        assert np.abs(barycenter(mu)).sum() == pytest.approx(1.0, abs=1e-12)
        assert mu.space.metric("l1")[0, 1] == 2.0

    def test_determinism(self, rng):
        F = rng.standard_normal((4, 5))
        a = l1_counterexample(F)
        b = l1_counterexample(F.copy())
        assert np.array_equal(a.c, b.c)


def _jacobi_two_arrays(G, sweeps=60):
    """Reference: the one-sided Jacobi sweep with A and V as separate arrays."""
    A = np.array(G, dtype=float)
    m = A.shape[1]
    V = np.eye(m)
    scale = max(1.0, float(np.abs(A).max()))
    tol = 1e-15 * scale * scale
    for _ in range(sweeps):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = float(A[:, p] @ A[:, p])
                aqq = float(A[:, q] @ A[:, q])
                apq = float(A[:, p] @ A[:, q])
                if abs(apq) <= tol + 1e-300:
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                Ap = A[:, p].copy()
                Aq = A[:, q].copy()
                A[:, p] = c * Ap - s * Aq
                A[:, q] = s * Ap + c * Aq
                Vp = V[:, p].copy()
                Vq = V[:, q].copy()
                V[:, p] = c * Vp - s * Vq
                V[:, q] = s * Vp + c * Vq
        if not rotated:
            break
    norms = np.sqrt((A * A).sum(axis=0))
    return V[:, int(np.argmin(norms))]


class TestJacobiDirection:
    @pytest.mark.parametrize("kind", ["full rank", "rank deficient", "integer"])
    def test_matches_two_array_sweep_byte_for_byte(self, kind):
        rng = np.random.default_rng(["full rank", "rank deficient", "integer"].index(kind))
        for n in (1, 3, 40):
            F = rng.standard_normal((n, n + 1))
            if kind == "rank deficient" and n > 2:
                F[-1] = F[0] - 2.0 * F[1]  # null space of dimension 2
            elif kind == "integer":
                F = np.round(3 * F)
            Fs = F / max(1.0, float(np.abs(F).max()))
            G = Fs.T @ Fs
            assert _jacobi_smallest_direction(G).tobytes() == _jacobi_two_arrays(G).tobytes()


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
        assert sched.alpha_at(1) == 1.0
        assert sched.seminorm_index_at(1) == 1
        assert sched.alpha_at(11) == 1.0  # k <= N_2
        assert sched.alpha_at(12) == 0.5  # (N_2, N_3]
        assert sched.seminorm_index_at(12) == 1
        assert sched.alpha_at(46) == 0.25  # (N_3, N_4]
        assert sched.seminorm_index_at(46) == 2

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

    def test_determinism(self):
        t1 = rescaling_schedule(family_tail_functions([GeometricTailMember()], 7), 10**5)
        t2 = rescaling_schedule(family_tail_functions([GeometricTailMember()], 7), 10**5)
        assert t1 == t2
