import numpy as np
import pytest

from kantorovich_lab.convergence import (
    MeasureSequence,
    _family_sup,
    _tail_table,
    barycenter_convergence,
    check_tau_k_convergence,
    default_radii,
    lipschitz_dictionary,
    weak_gap,
)
from kantorovich_lab import measures
from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import k_norm, kq_norm, kr_norm

from conftest import random_space


def line_space(n_points, positions=None, anchor=0):
    pts = np.asarray(positions if positions is not None else np.arange(n_points), dtype=float)
    metric = np.abs(pts[:, None] - pts[None, :])
    return PseudometricSpace(
        points=tuple(f"x{k}" for k in range(len(pts))),
        metrics={"d": metric},
        anchor=anchor,
        coords=pts[:, None],
    )


def harmonic_pass_sequence(N=64):
    """(1 - 1/n) at the anchor plus n^-2 at distance n."""
    space = line_space(N + 1)
    limit = space.dirac(0)
    measures = []
    for n in range(1, N + 1):
        w = np.zeros(N + 1)
        w[0] = 1.0 - 1.0 / n
        w[n] = n**-2.0
        measures.append(space.measure(w))
    return MeasureSequence(space, tuple(measures), limit)


def harmonic_fail_sequence(N=64):
    """(1 - 1/n) at the anchor plus 1/n escaping at distance n."""
    space = line_space(N + 1)
    limit = space.dirac(0)
    measures = []
    for n in range(1, N + 1):
        w = np.zeros(N + 1)
        w[0] = 1.0 - 1.0 / n
        w[n] = 1.0 / n
        measures.append(space.measure(w))
    return MeasureSequence(space, tuple(measures), limit)


def geometric_sequence(N=64, escape="slow"):
    """Mass 2^-n (fail) or 4^-n (pass) escaping to distance 2^n."""
    positions = np.concatenate([[0.0], 2.0 ** np.arange(1, N + 1)])
    space = line_space(N + 1, positions)
    limit = space.dirac(0)
    measures = []
    for n in range(1, N + 1):
        w = np.zeros(N + 1)
        w[0] = 1.0 - 2.0**-n
        w[n] = 4.0**-n if escape == "fast" else 2.0**-n
        measures.append(space.measure(w))
    return MeasureSequence(space, tuple(measures), limit)


class TestWeakGap:
    def test_escaping_atoms_at_shrinking_distance(self):
        # atoms at distance 1/n from the anchor; test function min(d(., x0), 1)
        N = 16
        positions = np.concatenate([[0.0], 1.0 / np.arange(1, N + 1)])
        space = line_space(N + 1, positions)
        limit = space.dirac(0)
        measures = [space.dirac(n) for n in range(1, N + 1)]
        seq = MeasureSequence(space, tuple(measures), limit)
        f = np.minimum(space.anchor_distances("d"), 1.0)
        gaps = weak_gap(seq, {"f": f}, bound=1.0)
        for n, g in enumerate(gaps, start=1):
            assert g == pytest.approx(1.0 / n, abs=1e-15)

    def test_constant_sequence(self, rng):
        space = random_space(rng, 5)
        mu = space.measure(rng.random(5))
        seq = MeasureSequence(space, (mu, mu, mu), mu)
        gaps = weak_gap(seq, lipschitz_dictionary(space, "d"), bound=1.0)
        assert gaps == [0.0, 0.0, 0.0]

    def test_bump_reads_weight_difference(self):
        space = line_space(2, positions=[0.0, 5.0])
        limit = space.measure([0.0, 0.25])
        measures = [space.measure([0.0, 0.25 + 0.5 / n]) for n in range(1, 5)]
        seq = MeasureSequence(space, tuple(measures), limit)
        bump = np.array([0.0, 1.0])  # Lipschitz for d(.,x0) >= 1
        gaps = weak_gap(seq, {"bump": bump}, bound=1.0)
        for n, g in enumerate(gaps, start=1):
            assert g == pytest.approx(0.5 / n, abs=1e-15)

    def test_unbounded_test_values_rejected(self, rng):
        space = random_space(rng, 3)
        mu = space.measure(rng.random(3))
        seq = MeasureSequence(space, (mu,), mu)
        with pytest.raises(ValueError, match="bound"):
            weak_gap(seq, {"bad": np.array([0.0, 5.0, 0.0])}, bound=1.0)


def tail_sup(seq, radii, power=1.0):
    """Per radius, the sup over the family of the tail integral of p(., x0)^power."""
    tails = _tail_table(seq, "d", radii, power)
    return _family_sup(tails, len(tails))


class TestTailProfile:
    def test_anchor_family_vanishes(self):
        space = line_space(4)
        seq = MeasureSequence(space, (space.dirac(0),), space.dirac(0))
        assert tail_sup(seq, [0.5, 1.0, 2.0]) == [0.0, 0.0, 0.0]

    def test_escaping_unit_mass(self):
        seq = harmonic_fail_sequence(32)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in tail_sup(seq, [1, 2, 4, 8, 16, 32]))

    def test_integrable_escape(self):
        N = 64
        space = line_space(N + 1)
        measures = []
        for n in range(1, N + 1):
            w = np.zeros(N + 1)
            w[n] = n**-2.0
            measures.append(space.measure(w))
        seq = MeasureSequence(space, tuple(measures), space.dirac(0))
        # sup over n >= R of n * n^-2 = 1/ceil(R)
        assert tail_sup(seq, [1, 2, 4, 8]) == pytest.approx([1.0, 0.5, 0.25, 0.125], abs=1e-12)

    def test_monotone_and_scaling(self, rng):
        space = random_space(rng, 6)
        measures = tuple(space.measure(rng.uniform(-1, 1, size=6)) for _ in range(5))
        seq = MeasureSequence(space, measures, measures[0])
        radii = [0.5, 1.0, 2.0, 4.0]
        prof = tail_sup(seq, radii)
        assert all(prof[i] >= prof[i + 1] for i in range(len(radii) - 1))
        doubled = MeasureSequence(space, tuple(2.0 * m for m in measures), measures[0])
        assert np.allclose(tail_sup(doubled, radii), 2.0 * np.array(prof), atol=1e-12)

    def test_report_carries_the_profile_on_the_default_grid(self):
        # the q-th power of the anchor distance weighs the tails
        seq = geometric_sequence(32, "fast")
        for q in (1.0, 1.5):
            (rec,) = check_tau_k_convergence(seq, q=q).per_metric
            assert rec.tail.radii == tuple(default_radii(seq.space, "d"))
            assert list(rec.tail.values) == tail_sup(seq, rec.tail.radii, q)


class TestTauK:
    def test_constant_sequence_passes(self, rng):
        space = random_space(rng, 5)
        mu = space.measure(rng.random(5))
        seq = MeasureSequence(space, (mu, mu), mu)
        report = check_tau_k_convergence(seq)
        rec = report.per_metric[0]
        assert rec.verdict == "PASS"
        assert all(g == 0 for g in rec.kr_gaps)
        assert all(g == 0 for g in rec.k_gaps)

    def test_harmonic_pass_sequence_closed_forms(self):
        # gaps have closed forms: KR = min(n,2)/n^2 + 1/n - ...; check K-gap exactly
        seq = harmonic_pass_sequence(64)
        report = check_tau_k_convergence(seq)
        rec = report.per_metric[0]
        for n in (8, 64):
            expected_k = 2.0 / n - 1.0 / n**2  # n^-2 * n + |mass defect|
            assert rec.k_gaps[n - 1] == pytest.approx(expected_k, abs=1e-9)
        # at prefix resolution the tail has not cleared the tolerance yet
        assert rec.verdict == "UI_FAIL"

    def test_harmonic_fail_sequence_k_gap_sticks(self):
        seq = harmonic_fail_sequence(64)
        report = check_tau_k_convergence(seq)
        rec = report.per_metric[0]
        assert not rec.ui_holds
        # escaping unit product: (1/n) * d(x_n, x0) = 1 with zero mass defect
        for n in (4, 16, 64):
            assert rec.k_gaps[n - 1] == pytest.approx(1.0, abs=1e-9)
            assert rec.kr_gaps[n - 1] == pytest.approx(2.0 / n, abs=1e-9)
        assert rec.verdict == "UI_FAIL"

    def test_geometric_sequences_match_criterion(self):
        fast = check_tau_k_convergence(geometric_sequence(64, "fast"))
        rec = fast.per_metric[0]
        assert rec.verdict == "PASS"
        assert rec.k_gaps[-1] < 1e-6
        slow = check_tau_k_convergence(geometric_sequence(64, "slow"))
        rec = slow.per_metric[0]
        assert rec.verdict == "UI_FAIL"
        assert rec.kr_gaps[-1] < 1e-6
        assert min(rec.k_gaps) >= 0.9

    def test_q_version(self):
        seq = geometric_sequence(32, "fast")
        report = check_tau_k_convergence(seq, q=1.5)
        rec = report.per_metric[0]
        assert len(rec.k_gaps) == 32

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_last_k_witness_is_the_last_gaps(self, q):
        # k's witness at q = 1, kq's above: the certificate of the gap reported
        seq = harmonic_pass_sequence(16)
        delta = seq.measures[-1] - seq.limit
        (rec,) = check_tau_k_convergence(seq, q=q).per_metric
        gap, witness = k_norm(delta, "d") if q == 1 else kq_norm(delta, "d", q)
        assert rec.k_gaps[-1] == gap
        got = rec.last_k_witness
        assert (got.metric_name, got.achieved, got.mode, got.q) == ("d", witness.achieved, witness.mode, witness.q)
        assert got.values.tobytes() == witness.values.tobytes()
        got.validate(delta)

    def test_q_below_one_rejected(self):
        seq = harmonic_pass_sequence(4)
        with pytest.raises(ValueError, match="q must be"):
            check_tau_k_convergence(seq, q=0.5)

    def test_nan_q_rejected(self):
        with pytest.raises(ValueError, match="q must be"):
            check_tau_k_convergence(harmonic_pass_sequence(4), q=float("nan"))

    def test_limit_required(self, rng):
        space = random_space(rng, 3)
        seq = MeasureSequence(space, (space.dirac(0),), None)
        with pytest.raises(ValueError, match="declared limit"):
            check_tau_k_convergence(seq)

    def test_weak_and_kr_gaps_vanish_together_on_nonnegative_sequences(self, rng):
        # atom-separating Lipschitz dictionary: weak gaps and bounded-Lipschitz
        # gaps go small together (and stay large together) at prefix resolution
        space = random_space(rng, 5)
        tests = lipschitz_dictionary(space, "d")
        target = rng.random(5)
        convergent = tuple(
            space.measure(target + rng.random(5) * 4.0**-n) for n in range(1, 17)
        )
        divergent = tuple(
            space.measure(np.roll(target, n % 2) + 0.5) for n in range(1, 17)
        )
        for measures, expect_small in ((convergent, True), (divergent, False)):
            seq = MeasureSequence(space, measures, space.measure(target))
            wgap = weak_gap(seq, tests, bound=1.0)[-1]
            krgap = kr_norm(seq.measures[-1] - seq.require_limit(), "d")[0]
            assert (wgap < 1e-6) == expect_small
            assert (krgap < 1e-6) == expect_small


class TestBarycenterConvergence:
    def test_constant_sequence(self, rng):
        space = random_space(rng, 4, with_coords=True)
        w = rng.random(4)
        mu = space.measure(w)
        seq = MeasureSequence(space, (mu, mu), mu)
        report = barycenter_convergence(seq)
        assert report.bound_holds
        assert all(r.barycenter_gap == 0 for r in report.rows)

    def test_symmetric_pairs_have_zero_barycenters(self):
        # (1/2) at -a_n and (1/2) at a_n
        positions = np.array([0.0, -2.0, 2.0, -1.0, 1.0])
        space = line_space(5, positions)
        m1 = space.measure([0.0, 0.5, 0.5, 0.0, 0.0])
        m2 = space.measure([0.0, 0.0, 0.0, 0.5, 0.5])
        seq = MeasureSequence(space, (m1, m2), m2)
        for m in seq.measures:
            assert (m.weights @ space.coords).tolist() == [0.0]
        report = barycenter_convergence(seq)
        assert report.bound_holds

    def test_bound_on_escaping_sequence(self):
        seq = harmonic_pass_sequence(32)
        report = barycenter_convergence(seq)
        assert report.bound_holds
        # closed form: barycenter gap = n^-2 * n = 1/n; K-gap = 2/n - 1/n^2
        row = [r for r in report.rows if r.index == 7][0]
        assert row.barycenter_gap == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert row.k_gap == pytest.approx(2.0 / 8.0 - 1.0 / 64.0, abs=1e-9)

    def test_bound_with_mass_defect_and_shifted_anchor(self, rng):
        # nonzero anchor coordinates exercise the centering step
        space = PseudometricSpace(
            points=("a", "b", "c"),
            metrics={"d": np.abs(np.subtract.outer([5.0, 6, 9], [5.0, 6, 9]))},
            anchor=0,
            coords=np.array([[5.0], [6.0], [9.0]]),
        )
        for _ in range(20):
            w1 = rng.uniform(-1, 1, size=3)
            w2 = rng.uniform(-1, 1, size=3)
            seq = MeasureSequence(space, (space.measure(w1),), space.measure(w2))
            report = barycenter_convergence(seq)
            assert report.bound_holds

    def test_validates_only_the_coordinate_metrics(self, monkeypatch):
        seq = harmonic_pass_sequence(8)
        validated = []
        check = measures._validate_pseudometric

        def spy(name, p, n):
            validated.append(name)
            check(name, p, n)

        monkeypatch.setattr(measures, "_validate_pseudometric", spy)
        report = barycenter_convergence(seq)
        assert validated == ["coord0"]
        assert report.bound_holds

    def test_missing_coords_rejected(self, rng):
        space = random_space(rng, 3)
        seq = MeasureSequence(space, (space.dirac(0),), space.dirac(0))
        with pytest.raises(ValueError, match="coordinates"):
            barycenter_convergence(seq)
