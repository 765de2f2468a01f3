import dataclasses
import itertools
import math

import numpy as np
import pytest

from kantorovich_lab.measures import TRIANGLE_TOL, PseudometricSpace, total_variation
from kantorovich_lab.measures import pushforward, quotient
from kantorovich_lab.transport import (
    WITNESS_TOL,
    Coupling,
    LipschitzWitness,
    brute_force_dual,
    k_norm,
    kq_norm,
    kr_norm,
    wasserstein_q,
)
from kantorovich_lab.transport._simplex import simplex_max
from kantorovich_lab.transport._transportation import absorbing_distances, seminorm_potential, solve_transportation
from kantorovich_lab.transport._trees import bipartite_tree_tensors

from conftest import (
    highs_coupling_cost,
    highs_seminorm,
    metric_closure,
    random_degenerate_space,
    random_space,
    two_point_space,
)


def random_signed(rng, space, zero_frac=0.2, scale=2.0):
    w = rng.uniform(-scale, scale, size=space.n_points)
    w[rng.random(space.n_points) < zero_frac] = 0.0
    return space.measure(w)


class TestKrNorm:
    def test_dirac_is_one(self, rng):
        for n in (1, 3, 6):
            space = random_space(rng, n)
            value, witness = kr_norm(space.dirac(0), "d")
            assert value == pytest.approx(1.0, abs=1e-12)
            witness.validate(space.dirac(0))

    def test_two_point_min_of_d_and_two(self):
        for d, expected in [(3.0, 2.0), (0.5, 0.5), (2.0, 2.0)]:
            mu = two_point_space(d).measure([1.0, -1.0])
            value, witness = kr_norm(mu, "d")
            assert value == pytest.approx(expected, abs=1e-12)
            witness.validate(mu)

    def test_zero_measure(self):
        mu = two_point_space(1.0).measure([0.0, 0.0])
        assert kr_norm(mu, "d")[0] == 0.0

    def test_tv_domination_and_equality_far_apart(self, rng):
        space = random_space(rng, 5, lo=2.0, hi=6.0)
        for _ in range(20):
            mu = random_signed(rng, space)
            value, _ = kr_norm(mu, "d")
            tv = total_variation(mu)
            assert value <= tv + 1e-9
            assert value == pytest.approx(tv, abs=1e-9)  # all distances >= 2

    def test_metric_monotonicity(self, rng):
        for _ in range(20):
            space1 = random_space(rng, 5)
            d2 = metric_closure(space1.metric("d") * rng.uniform(0.2, 1.0))
            space2 = PseudometricSpace(
                points=space1.points, metrics={"d": d2}, anchor=space1.anchor
            )
            w = rng.uniform(-2, 2, size=5)
            v_small = kr_norm(space2.measure(w), "d")[0]
            v_big = kr_norm(space1.measure(w), "d")[0]
            assert v_small <= v_big + 1e-9


class TestKNorm:
    def test_dirac_at_anchor(self, rng):
        space = random_space(rng, 4, anchor=2)
        value, witness = k_norm(space.dirac(2), "d")
        assert value == pytest.approx(1.0, abs=1e-12)
        witness.validate(space.dirac(2))

    def test_two_point_anchored(self):
        mu = two_point_space(3.0, anchor=0).measure([1.0, -1.0])
        value, witness = k_norm(mu, "d")
        assert value == pytest.approx(3.0, abs=1e-12)
        witness.validate(mu)
        assert witness.values[0] == 0.0

    def test_positive_homogeneity(self, rng):
        space = random_space(rng, 5)
        mu = random_signed(rng, space)
        assert k_norm(2 * mu, "d")[0] == pytest.approx(2 * k_norm(mu, "d")[0], abs=1e-9)


class TestWassersteinQ:
    def test_identical_measures(self, rng):
        space = random_space(rng, 5)
        w = rng.random(5)
        mu = space.measure(w)
        for q in (1.0, 2.0):
            value, coupling = wasserstein_q(mu, mu, "d", q)
            assert value == pytest.approx(0.0, abs=1e-12)
            coupling.validate(mu, mu)

    def test_two_diracs_any_q(self):
        space = two_point_space(1.7)
        mu, nu = space.dirac(0), space.dirac(1)
        for q in (1.0, 1.5, 2.0, 3.5):
            value, _ = wasserstein_q(mu, nu, "d", q)
            assert value == pytest.approx(1.7, abs=1e-12)

    def test_half_half_versus_point(self):
        space = two_point_space(2.0)
        mu = space.measure([0.5, 0.5])
        nu = space.measure([1.0, 0.0])
        value, coupling = wasserstein_q(mu, nu, "d", 2.0)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        coupling.validate(mu, nu)

    def test_rejections(self):
        space = two_point_space(1.0)
        with pytest.raises(ValueError, match="q must be"):
            wasserstein_q(space.dirac(0), space.dirac(1), "d", 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            wasserstein_q(space.measure([1.0, -0.5]), space.measure([0.5, 0.0]), "d", 1.0)
        with pytest.raises(ValueError, match="masses differ"):
            wasserstein_q(space.dirac(0), space.measure([0.5, 0.51]), "d", 1.0)
        with pytest.raises(ValueError, match="positive"):
            wasserstein_q(space.measure([0.0, 0.0]), space.measure([0.0, 0.0]), "d", 1.0)

    def test_moment_monotonicity(self, rng):
        for _ in range(20):
            space = random_space(rng, 6)
            a = rng.random(6)
            a /= a.sum()
            b = rng.random(6)
            b /= b.sum()
            mu, nu = space.measure(a), space.measure(b)
            values = [wasserstein_q(mu, nu, "d", q)[0] for q in (1.0, 1.5, 2.0, 3.0)]
            assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))

    def test_duality_q1(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            space = random_space(rng, n)
            a = rng.random(n)
            a /= a.sum()
            b = rng.random(n)
            b /= b.sum()
            mu, nu = space.measure(a), space.measure(b)
            w1 = wasserstein_q(mu, nu, "d", 1.0)[0]
            kd = k_norm(mu - nu, "d")[0]
            assert w1 == pytest.approx(kd, abs=1e-9)


class TestKqNorm:
    def test_dirac_at_anchor(self, rng):
        space = random_space(rng, 4, anchor=1)
        for q in (1.0, 2.0, 3.0):
            assert kq_norm(space.dirac(1), "d", q)[0] == pytest.approx(1.0, abs=1e-12)

    def test_reweighted_dirac(self):
        space = two_point_space(2.0, anchor=0)
        assert kq_norm(space.dirac(1), "d", 2.0)[0] == pytest.approx(5.0, abs=1e-12)

    def test_zero_measure(self):
        space = two_point_space(2.0)
        assert kq_norm(space.measure([0.0, 0.0]), "d", 1.5)[0] == 0.0

    def test_matches_reweighted_kr(self, rng):
        for _ in range(20):
            space = random_space(rng, 6)
            mu = random_signed(rng, space)
            q = float(rng.uniform(1.0, 3.0))
            dens = 1.0 + space.anchor_distances("d") ** q
            reweighted = space.measure(mu.weights * dens)
            assert kq_norm(mu, "d", q)[0] == pytest.approx(kr_norm(reweighted, "d")[0], abs=1e-9)

    def test_route_agrees_with_highs(self, rng):
        # kq is kr's route on the moment weights: its value agrees with an
        # independent LP, and its witness attains it on mu itself
        space = random_space(rng, 40)
        mu = space.measure(rng.uniform(-1, 1, size=40))
        for q in (1.0, 2.0):
            value, witness = kq_norm(mu, "d", q)
            dens = 1.0 + space.anchor_distances("d") ** q
            ref = highs_seminorm(space.metric("d"), mu.weights * dens, "bounded")
            assert value == pytest.approx(ref, abs=1e-9 * max(1.0, abs(ref)))
            assert (witness.mode, witness.q, witness.achieved) == ("bounded", q, value)
            witness.validate(mu)

    def test_witness_rejected_when_scaled_or_nan(self, rng):
        space = random_space(rng, 12)
        mu = random_signed(rng, space)
        _, witness = kq_norm(mu, "d", 2.0)
        witness.validate(mu)
        scaled = dataclasses.replace(witness, values=witness.values * 1.01)
        with pytest.raises(ValueError):
            scaled.validate(mu)
        values = witness.values.copy()
        values[0] = math.nan
        with pytest.raises(ValueError, match="^witness is not finite$"):
            dataclasses.replace(witness, values=values).validate(mu)
        # the same potential attains another value against the unweighted mu
        with pytest.raises(ValueError, match="does not attain"):
            dataclasses.replace(witness, q=None).validate(mu)

    def test_q_below_one_rejected(self):
        space = two_point_space(1.0)
        with pytest.raises(ValueError, match="q must be"):
            kq_norm(space.dirac(0), "d", 0.5)

    def test_nan_q_rejected(self):
        space = two_point_space(1.0)
        with pytest.raises(ValueError, match="q must be"):
            kq_norm(space.dirac(0), "d", math.nan)
        with pytest.raises(ValueError, match="q must be"):
            wasserstein_q(space.dirac(0), space.dirac(1), "d", math.nan)


class TestOracle:
    def test_matches_lp_on_two_points(self):
        for d in (0.5, 1.0, 3.0):
            mu = two_point_space(d).measure([1.0, -1.0])
            assert brute_force_dual(mu, "d", "bounded") == pytest.approx(
                kr_norm(mu, "d")[0], abs=1e-12
            )
            assert brute_force_dual(mu, "d", "anchored") == pytest.approx(
                k_norm(mu, "d")[0], abs=1e-12
            )

    def test_dirac(self, rng):
        space = random_space(rng, 3)
        assert brute_force_dual(space.dirac(0), "d", "bounded") == pytest.approx(1.0, abs=1e-12)

    def test_random_five_atoms(self, rng):
        for _ in range(50):
            space = random_space(rng, 5)
            mu = random_signed(rng, space, zero_frac=0.0)
            assert brute_force_dual(mu, "d", "bounded") == pytest.approx(
                kr_norm(mu, "d")[0], abs=1e-6
            )
            assert brute_force_dual(mu, "d", "anchored") == pytest.approx(
                k_norm(mu, "d")[0], abs=1e-6
            )

    def test_support_cap(self, rng):
        space = random_space(rng, 9)
        mu = space.measure(np.ones(9))
        with pytest.raises(ValueError, match="at most 8"):
            brute_force_dual(mu, "d", "bounded")

    def test_unknown_mode(self):
        mu = two_point_space(1.0).dirac(0)
        with pytest.raises(ValueError, match="unknown mode"):
            brute_force_dual(mu, "d", "primal")


class TestQuotientIsometry:
    def test_random_degenerate_instances(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 9))
            space, _ = random_degenerate_space(rng, k, n)
            mu = space.measure(rng.uniform(-2, 2, size=n))
            qm = quotient(space, "p")
            pushed = pushforward(mu, qm)
            assert kr_norm(pushed, "p")[0] == pytest.approx(kr_norm(mu, "p")[0], abs=1e-9)


class TestWitnesses:
    def test_witnesses_and_extension_on_sparse_support(self, rng):
        # zero-weight points force the extension step to cover the full space
        for _ in range(30):
            space = random_space(rng, 7)
            mu = random_signed(rng, space, zero_frac=0.5)
            value, witness = kr_norm(mu, "d")
            witness.validate(mu)
            assert witness.mode == "bounded"
            vk, wk = k_norm(mu, "d")
            wk.validate(mu)
            assert wk.values[space.anchor] == 0.0

    def test_coupling_invariants(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            space = random_space(rng, n)
            a = rng.random(n)
            a /= a.sum()
            b = rng.random(n)
            b /= b.sum()
            mu, nu = space.measure(a), space.measure(b)
            _, coupling = wasserstein_q(mu, nu, "d", float(rng.uniform(1, 3)))
            coupling.validate(mu, nu)

    def test_coupling_cost_checked_at_small_scale(self):
        space = random_space(np.random.default_rng(3), 4)
        mu = space.measure([4e-13, 3e-13, 2e-13, 1e-13])
        nu = space.measure([1e-13, 2e-13, 3e-13, 4e-13])
        _, coupling = wasserstein_q(mu, nu, "d", 1.0)
        coupling.validate(mu, nu)
        with pytest.raises(ValueError, match="cost"):
            dataclasses.replace(coupling, cost=2.0 * coupling.cost).validate(mu, nu)

    @pytest.mark.parametrize("mass", [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_negative_entries_checked_at_every_mass_scale(self, mass):
        # both marginals match and the cost is negative: only the sign check
        # can reject it, and at mass 1e-15 its entries of -1e-13 are not round-off
        space = two_point_space(1.0)
        mu = nu = space.measure([mass, mass])
        Coupling("d", 1.0, np.diag([mass, mass]), 0.0).validate(mu, nu)
        off = 100.0 * mass
        bad = np.array([[mass + off, -off], [-off, mass + off]])
        with pytest.raises(ValueError, match="negative entry"):
            Coupling("d", 1.0, bad, -2.0 * off).validate(mu, nu)

    def test_steep_witness_rejected_on_a_small_metric(self):
        # kr is 1e-12 here; this potential claims 980 times as much
        mu = two_point_space(1e-12).measure([1.0, -1.0])
        witness = LipschitzWitness("d", np.array([4.9e-10, -4.9e-10]), 9.8e-10, "bounded")
        with pytest.raises(ValueError, match="1-Lipschitz"):
            witness.validate(mu)

    @pytest.mark.parametrize(
        "dist, lip_tol", [(1e-12, TRIANGLE_TOL), (1.0, WITNESS_TOL), (1e6, TRIANGLE_TOL * 1e6)]
    )
    def test_lipschitz_tolerance_follows_the_metric_scale(self, dist, lip_tol):
        # an anchored potential steeper than d by `excess` on the one pair
        mu = two_point_space(dist).measure([1.0, -1.0])
        _, exact = k_norm(mu, "d")
        exact.validate(mu)
        assert exact.achieved == dist
        for factor, ok in ((0.5, True), (2.0, False)):
            excess = factor * lip_tol
            witness = LipschitzWitness("d", np.array([0.0, -(dist + excess)]), dist + excess, "anchored")
            if ok:
                witness.validate(mu)
            else:
                with pytest.raises(ValueError, match="1-Lipschitz"):
                    witness.validate(mu)


class TestSolvers:
    def test_simplex_known_lp(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5), value 14/5
        res = simplex_max(np.array([[1.0, 2.0], [3.0, 1.0]]), [4.0, 6.0], [1.0, 1.0])
        assert res.value == pytest.approx(2.8, abs=1e-12)
        assert np.allclose(res.x, [1.6, 1.2], atol=1e-12)

    def test_transportation_balanced(self, rng):
        for _ in range(20):
            r, s = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = rng.random(r) + 0.1
            b = rng.random(s) + 0.1
            b *= a.sum() / b.sum()
            C = rng.uniform(0, 3, size=(r, s))
            sol = solve_transportation(a, b, C)
            assert np.abs(sol.flows.sum(axis=1) - a).max() < 1e-9
            assert np.abs(sol.flows.sum(axis=0) - b).max() < 1e-9
            assert sol.flows.min() >= 0.0

    def test_tree_counts_match_formula(self):
        for r, s in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 2)]:
            eu, _, _ = bipartite_tree_tensors(r, s)
            assert eu.shape[0] == r ** (s - 1) * s ** (r - 1)

    def test_seminorm_route_matches_highs(self, rng):
        # one route for both modes: only the absorbing node's distances differ
        for _ in range(30):
            n = int(rng.integers(2, 9))
            space = random_space(rng, n)
            mu = random_signed(rng, space)
            d = space.metric("d")
            for mode in ("bounded", "anchored"):
                value, _ = seminorm_potential(d, mu.weights, *absorbing_distances(d, mode, space.anchor))
                assert value == pytest.approx(highs_seminorm(d, mu.weights, mode, space.anchor), abs=1e-9)


class TestScaleRobustness:
    def test_tiny_and_huge_scales(self):
        # mass scales spanning 1e-30 .. 1e6 with distances up to 2^40
        pts = np.array([0.0, 2.0**40])
        metric = np.abs(pts[:, None] - pts[None, :])
        space = PseudometricSpace(points=("x0", "far"), metrics={"d": metric}, anchor=0)
        for mass in (1e-30, 1e-9, 1.0, 1e6):
            mu = space.measure([0.0, mass])
            assert k_norm(mu, "d")[0] == pytest.approx(mass * 2.0**40 + mass, rel=1e-12)
            assert kr_norm(mu, "d")[0] == pytest.approx(mass, rel=1e-12)


def _euclidean_pair(seed, n=128, scale=1e6):
    """mu and nu with weights uniform in [0, scale) on n random planar points,
    nu rescaled to mu's mass: the totals agree only to about one ulp."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(n, 2))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    space = PseudometricSpace(
        points=tuple(f"p{i}" for i in range(n)), metrics={"d": d}, anchor=0, coords=x
    )
    a = rng.uniform(0, scale, n)
    b = rng.uniform(0, scale, n)
    b = b * (math.fsum(a.tolist()) / math.fsum(b.tolist()))
    return space.measure(a), space.measure(b)


class TestLargeTotalMass:
    # near 6.4e7 total mass one ulp is 7.45e-9, above an absolute 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_wq_validates_and_matches_highs(self, seed):
        mu, nu = _euclidean_pair(seed)
        d = mu.space.metric("d")
        for q in (1.0, 2.0):
            value, coupling = wasserstein_q(mu, nu, "d", q)
            coupling.validate(mu, nu)
            ref = highs_coupling_cost(d**q, mu.weights, nu.weights * (mu.total_mass / nu.total_mass))
            assert abs(value**q - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("rel", [1e-6, 1e-12])
    def test_moved_entry_rejected(self, rel):
        mu, nu = _euclidean_pair(0)
        _, coupling = wasserstein_q(mu, nu, "d", 1.0)
        shift = rel * mu.total_mass
        grown = coupling.matrix.copy()
        grown[3, 5] += shift
        with pytest.raises(ValueError, match="row marginals"):
            dataclasses.replace(coupling, matrix=grown).validate(mu, nu)
        i, j = np.unravel_index(np.argmax(coupling.matrix), coupling.matrix.shape)
        moved = coupling.matrix.copy()
        moved[i, j] -= shift
        moved[i, (j + 1) % mu.space.n_points] += shift
        with pytest.raises(ValueError, match="column marginals"):
            dataclasses.replace(coupling, matrix=moved).validate(mu, nu)

    def test_doubled_measure_rejected(self):
        mu, nu = _euclidean_pair(0)
        _, coupling = wasserstein_q(mu, nu, "d", 2.0)
        with pytest.raises(ValueError, match="marginals"):
            coupling.validate(mu * 2.0, nu * 2.0)
        with pytest.raises(ValueError, match="total masses differ"):
            wasserstein_q(mu, nu * 2.0, "d", 1.0)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    def test_smaller_totals_keep_their_tolerance(self, scale):
        # up to a total of about 2e6 the marginals are held to tol * min(1, scale)
        space = two_point_space(1.0)
        mu, nu = space.measure([scale, scale]), space.measure([0.5 * scale, 1.5 * scale])
        _, coupling = wasserstein_q(mu, nu, "d", 1.0)
        tol = WITNESS_TOL * min(1.0, scale)
        for factor, ok in ((0.5, True), (1.5, False)):
            off = coupling.matrix.copy()
            off[0, 0] += factor * tol
            check = dataclasses.replace(coupling, matrix=off)
            if ok:
                check.validate(mu, nu)
            else:
                with pytest.raises(ValueError, match="row marginals"):
                    check.validate(mu, nu)


def _spanning_cell_sets(r, s):
    """Every set of r + s - 1 cells of the r x s grid that joins all rows and
    columns into one component, found by a small union-find."""
    out = set()
    cells = [(i, j) for i in range(r) for j in range(s)]
    for combo in itertools.combinations(cells, r + s - 1):
        parent = list(range(r + s))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, j in combo:
            ri, rj = find(i), find(r + j)
            if ri == rj:
                break
            parent[ri] = rj
        else:
            out.add(frozenset(combo))
    return out


class TestTreeTable:
    @pytest.mark.parametrize("r,s", list(itertools.product(range(1, 5), repeat=2)))
    def test_tree_sets_match_union_find(self, r, s):
        eu, ev, _ = bipartite_tree_tensors(r, s)
        trees = [frozenset(zip(u, v)) for u, v in zip(eu.tolist(), ev.tolist())]
        assert len(trees) == len(set(trees)) == r ** (s - 1) * s ** (r - 1)
        assert set(trees) == _spanning_cell_sets(r, s)

    @pytest.mark.parametrize("r,s", [(5, 5), (6, 4), (7, 3), (8, 2), (9, 1), (4, 6), (1, 9)])
    def test_large_tables_are_distinct_spanning_trees(self, r, s):
        eu, ev, leaf_row = bipartite_tree_tensors(r, s)
        T = r ** (s - 1) * s ** (r - 1)
        assert eu.shape == ev.shape == leaf_row.shape == (T, r + s - 1)
        u = eu.astype(np.int64)
        v = ev.astype(np.int64)
        masks = np.bitwise_or.reduce(np.int64(1) << (u * s + v), axis=1)
        assert len(np.unique(masks)) == T
        # a leaf elimination: each removed leaf is new to the later edges and
        # its neighbour is among them, so the edges grow one tree backwards
        leaf = np.where(leaf_row, u, r + v)
        nbr = np.where(leaf_row, r + v, u)
        for k in range(r + s - 2):
            later = np.concatenate([u[:, k + 1:], r + v[:, k + 1:]], axis=1)
            assert not (later == leaf[:, k:k + 1]).any()
            assert (later == nbr[:, k:k + 1]).any(axis=1).all()
