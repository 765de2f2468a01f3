"""Acceptance suite: one check per criterion, printed as a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from kantorovich_lab import cli
from kantorovich_lab.convergence import MeasureSequence, barycenter_convergence, check_tau_k_convergence
from kantorovich_lab.counterexamples import (
    GeometricTailMember,
    family_tail_functions,
    l1_counterexample,
    rescaling_schedule,
    verify_counterexample,
    verify_schedule,
)
from kantorovich_lab.logconcave import (
    LogConcaveSpec,
    PolynomialSpec,
    borell_bound,
    check_borell,
    mean_convergence_experiment,
    small_value_check,
)
from kantorovich_lab.measures import PseudometricSpace, pushforward, quotient, total_variation
from kantorovich_lab.stable import (
    StableSpec,
    stability_identity_check,
    stable_tail_check,
    tail_constants,
    validate_sampler,
)
from kantorovich_lab.transport import brute_force_dual, k_norm, kr_norm, wasserstein_q

from conftest import random_degenerate_space, random_space


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS - {text}")


def random_signed(rng, space, zero_frac=0.2, scale=2.0):
    w = rng.uniform(-scale, scale, size=space.n_points)
    w[rng.random(space.n_points) < zero_frac] = 0.0
    return space.measure(w)


def test_01_lp_oracle_agreement():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        space = random_space(rng, n)
        mu = random_signed(rng, space)
        worst = max(worst, abs(kr_norm(mu, "d")[0] - brute_force_dual(mu, "d", "bounded")))
        worst = max(worst, abs(k_norm(mu, "d")[0] - brute_force_dual(mu, "d", "anchored")))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6
    assert elapsed < 10.0
    report(1, f"500 instances, worst LP-oracle gap {worst:.2e}, {elapsed:.2f}s")


def test_02_duality_q1():
    rng = np.random.default_rng(1002)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        space = random_space(rng, n)
        a = rng.random(n)
        a /= a.sum()
        b = rng.random(n)
        b /= b.sum()
        mu, nu = space.measure(a), space.measure(b)
        w1 = wasserstein_q(mu, nu, "d", 1.0)[0]
        kv = k_norm(mu - nu, "d")[0]
        worst = max(worst, abs(w1 - kv))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 5.0
    report(2, f"200 probability pairs, worst duality gap {worst:.2e}, {elapsed:.2f}s")


def test_03_quotient_isometry():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 9))
        space, _ = random_degenerate_space(rng, k, n)
        mu = space.measure(rng.uniform(-2, 2, size=n))
        qm = quotient(space, "p")
        worst = max(worst, abs(kr_norm(pushforward(mu, qm), "p")[0] - kr_norm(mu, "p")[0]))
    assert worst <= 1e-9
    report(3, f"200 degenerate instances, worst isometry gap {worst:.2e}")


def test_04_seminorm_axioms():
    rng = np.random.default_rng(1004)
    worst_h, worst_t, worst_tv = 0.0, 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        space = random_space(rng, n)
        mu = random_signed(rng, space)
        nu = random_signed(rng, space)
        c = float(rng.uniform(-2, 2))
        for norm in (kr_norm, k_norm):
            v_mu = norm(mu, "d")[0]
            v_nu = norm(nu, "d")[0]
            worst_h = max(worst_h, abs(norm(c * mu, "d")[0] - abs(c) * v_mu))
            worst_t = max(worst_t, norm(mu + nu, "d")[0] - v_mu - v_nu)
        worst_tv = max(worst_tv, kr_norm(mu, "d")[0] - total_variation(mu))
    assert worst_h <= 1e-12
    assert worst_t <= 1e-9
    assert worst_tv <= 1e-9
    report(4, f"1000 instances: homogeneity {worst_h:.1e}, triangle {worst_t:.1e}, TV {worst_tv:.1e}")


def _geometric_sequence(N, escape):
    positions = np.concatenate([[0.0], 2.0 ** np.arange(1, N + 1)])
    metric = np.abs(positions[:, None] - positions[None, :])
    space = PseudometricSpace(
        points=tuple(f"x{k}" for k in range(N + 1)),
        metrics={"d": metric},
        anchor=0,
        coords=positions[:, None],
    )
    measures = []
    for n in range(1, N + 1):
        w = np.zeros(N + 1)
        w[0] = 1.0 - 2.0**-n
        w[n] = 4.0**-n if escape == "fast" else 2.0**-n
        measures.append(space.measure(w))
    return MeasureSequence(space, tuple(measures), space.dirac(0))


def test_05_tau_k_criterion():
    passing = check_tau_k_convergence(_geometric_sequence(64, "fast")).per_metric[0]
    failing = check_tau_k_convergence(_geometric_sequence(64, "slow")).per_metric[0]
    assert passing.verdict == "PASS"
    assert passing.k_gaps[-1] < 1e-6
    assert passing.settled_from is not None and passing.settled_from + 1 <= 64
    assert failing.kr_gaps[-1] < 1e-6
    assert min(failing.k_gaps) >= 0.9
    assert failing.verdict == "UI_FAIL" and not failing.ui_holds
    report(
        5,
        "PASS sequence K-gap(64)={:.1e}; FAIL sequence KR-gap(64)={:.1e}, K-gap >= {:.2f}, UI failure recorded".format(
            passing.k_gaps[-1], failing.kr_gaps[-1], min(failing.k_gaps)
        ),
    )


def test_06_barycenter_bound():
    rng = np.random.default_rng(1006)
    checked = 0
    for seq in (_geometric_sequence(48, "fast"), _geometric_sequence(48, "slow")):
        rep = barycenter_convergence(seq)
        assert rep.bound_holds
        checked += len(rep.rows)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        space = random_space(rng, n, with_coords=True)
        measures = tuple(random_signed(rng, space) for _ in range(4))
        rep = barycenter_convergence(MeasureSequence(space, measures, random_signed(rng, space)))
        assert rep.bound_holds
        checked += len(rep.rows)
    report(6, f"{checked} barycenter/K-gap comparisons, bound held at 1e-9 in all")


def test_07_l1_counterexample():
    rng = np.random.default_rng(1007)
    worst_res, worst_norm, worst_bary = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        F = rng.standard_normal((n, n + 1)) * rng.uniform(0.5, 2.0)
        inst = l1_counterexample(F)
        rep = verify_counterexample(inst)
        assert rep["passed"]
        worst_res = max(worst_res, rep["max_residual"])
        worst_norm = max(worst_norm, abs(rep["weight_l1_norm"] - 1.0))
        worst_bary = max(worst_bary, abs(rep["barycenter_l1_norm"] - 1.0))
    assert worst_res <= 1e-9
    assert worst_norm <= 1e-12
    assert worst_bary <= 1e-12
    report(7, f"100 matrices: residual {worst_res:.1e}, norm dev {worst_norm:.1e}")


def test_08_rescaling_schedule():
    started = time.perf_counter()
    family = [GeometricTailMember()]
    tails = family_tail_functions(family, 8)
    sched = rescaling_schedule(tails, horizon=10**5)
    assert sched.boundaries[0] == 5
    for i in range(len(sched.boundaries) - 1):
        assert sched.boundaries[i + 1] > 2 ** (i + 1) * sched.boundaries[i]
    rep = verify_schedule(sched, family, horizon=10**5, n_max=6)
    assert rep.passed
    for cert in rep.certificates:
        assert cert.tail_mass_sum <= 2.0 ** (1 - cert.n) + 1e-12
        assert cert.scaled_integral_sup <= 2.0 ** (-cert.n) + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(8, f"N1={sched.boundaries[0]}, bounds certified for n<=6, {elapsed:.3f}s")


def test_09_borell():
    n = 10**5
    gauss = check_borell(
        LogConcaveSpec.gaussian([0.0], [[1.0]]), "abs", 1.0, [1.0, 2.0, 4.0], n=n, seed=1009
    )
    box = check_borell(
        LogConcaveSpec.uniform_box([-1.0], [1.0]), "abs", 0.8, [1.0, 2.0, 4.0], n=n, seed=1009
    )
    expo = check_borell(
        LogConcaveSpec.product_exponential([1.0, 1.0]),
        "abs_sum",
        2.7,
        [1.0, 2.0, 4.0],
        n=n,
        seed=1009,
    )
    assert gauss.passed and box.passed and expo.passed
    # normal-CDF oracle values
    theta_true = 2.0 * stats.norm.cdf(1.0) - 1.0
    tail_true = 2.0 * (1.0 - stats.norm.cdf(2.0))
    theta_hat = gauss.extras["theta"]
    tail_check = gauss.check("tail[t=2]")
    assert theta_hat == pytest.approx(theta_true, abs=3 * math.sqrt(0.25 / n))
    assert tail_check.estimate == pytest.approx(tail_true, abs=3 * math.sqrt(0.05 / n))
    assert borell_bound(0.6827, 2.0) == pytest.approx(0.4647, abs=1e-3)
    report(
        9,
        "three families pass at 3 SE; gaussian theta={:.4f}, tail(t=2)={:.4f} vs bound {:.4f}".format(
            theta_hat, tail_check.estimate, tail_check.bound
        ),
    )


def test_10_small_value_scaling():
    started = time.perf_counter()
    spec = LogConcaveSpec.gaussian([0.0], [[1.0]])
    lin = small_value_check(spec, PolynomialSpec.from_1d_coeffs([0.0, 1.0]), n=10**6, seed=1010)
    quad = small_value_check(
        spec, PolynomialSpec.from_1d_coeffs([0.0, 0.0, 1.0]), n=10**6, seed=1010
    )
    elapsed = time.perf_counter() - started
    assert lin.extras["slope"] == pytest.approx(1.0, abs=0.1)
    assert quad.extras["slope"] == pytest.approx(0.5, abs=0.1)
    assert elapsed < 30.0
    report(
        10,
        f"slopes {lin.extras['slope']:.3f} (target 1) and {quad.extras['slope']:.3f} (target 0.5), {elapsed:.1f}s",
    )


def test_11_logconcave_mean_convergence():
    n = 10**5
    specs = [LogConcaveSpec.gaussian([1.0 / k], [[1.0]]) for k in range(1, 65)]
    limit = LogConcaveSpec.gaussian([0.0], [[1.0]])
    rep = mean_convergence_experiment(specs, limit, qs=["abs"], n=n, seed=2025)
    worst_z = 0.0
    for i, row in enumerate(rep.extras["per_index"]):
        gap = abs(row["barycenter"][0] - 1.0 / (i + 1))
        assert gap <= row["barycenter_half_width"]  # 3 SE
        worst_z = max(worst_z, 3 * gap / row["barycenter_half_width"])
    est, hw = rep.extras["per_index"][-1]["moment[abs,r=1]"]
    target = math.sqrt(2.0 / math.pi)
    assert abs(est - target) <= hw + 3e-4  # residual shift drift at index 64
    report(
        11,
        f"|mean - 1/n| within 3 SE at all 64 indices (max z {worst_z:.2f}); final E|x|={est:.4f} vs sqrt(2/pi)={target:.4f}",
    )


def test_12_stable():
    zmaxes = {}
    for p in (1.3, 1.5, 1.8, 2.0):
        rep = validate_sampler(StableSpec(p=p), n=10**5, seed=2024)
        assert rep.passed
        zmaxes[p] = rep.checks[0].estimate
    tail = stable_tail_check(StableSpec(p=1.5), p1=1.5, n=10**6, seed=31337)
    slope = tail.extras["slope"]
    assert slope == pytest.approx(-1.5, abs=0.15)
    for p in (1.3, 1.5, 1.8, 2.0):
        assert tail_constants(0.8, p).k == 9
    ident = stability_identity_check(StableSpec(p=1.5), n=10**5, seed=42)
    assert ident.passed
    report(
        12,
        "cf z<=3 at p in {{1.3,1.5,1.8,2.0}} (max {:.2f}); tail slope {:.3f}; k=9; identity z={:.2f}".format(
            max(zmaxes.values()), slope, ident.checks[0].estimate
        ),
    )


def _strip_wall_clock(text: str) -> str:
    return re.sub(r'^\s*"wall_clock_s":.*\n', "", text, flags=re.M)


def test_13_determinism(tmp_path):
    measure_doc = {
        "points": ["a", "b"],
        "metrics": {"d": [["0", "3"], ["3", "0"]]},
        "anchor": 0,
        "weights": ["1", "-1"],
    }
    (tmp_path / "measure.json").write_text(json.dumps(measure_doc))
    seq_doc = dict(measure_doc)
    del seq_doc["weights"]
    seq_doc["weights_sequence"] = [["0.5", "0.5"], ["0.9", "0.1"], ["1", "0"]]
    seq_doc["limit_weights"] = ["1", "0"]
    (tmp_path / "seq.json").write_text(json.dumps(seq_doc))

    configs = [
        {"kind": "norms", "params": {"measure": "measure.json", "metric": "d", "ops": ["kr", "k", "kq", "oracle"], "q": 2.0}},
        {"kind": "convergence", "params": {"sequence": "seq.json", "q": 1.0, "barycenters": False}},
        {"kind": "counterexample", "params": {"matrix": [[2.0, 1.0]], "epsilon": 1e-6}},
        {"kind": "schedule", "params": {"family": "geometric", "depth": 8, "n_max": 6}},
        {
            "kind": "logconcave",
            "params": {
                "check": "borell",
                "spec": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
                "c": 1.0,
                "ts": [1.0, 2.0],
                "n": 20000,
            },
        },
        {"kind": "stable", "params": {"check": "cf", "spec": {"p": 1.5}, "n": 20000}},
    ]
    for config in configs:
        config["seed"] = 424242
        config["out"] = str(tmp_path / "out" / config["kind"])
        code1, _, path1 = cli.run(dict(config), base=tmp_path)
        code2, _, path2 = cli.run(dict(config), base=tmp_path)
        assert code1 == code2 == 0
        body1 = _strip_wall_clock(Path(path1).read_text())
        body2 = _strip_wall_clock(Path(path2).read_text())
        assert body1 == body2, f"report bytes differ for kind {config['kind']}"
    report(13, "all six experiment kinds re-ran byte-identically (wall clock excluded)")
