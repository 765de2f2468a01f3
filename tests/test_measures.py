import json
import math

import numpy as np
import pytest

from kantorovich_lab import measures
from kantorovich_lab.measures import (
    PseudometricSpace,
    _matrix,
    measure_from_dict,
    pushforward,
    quotient,
    total_variation,
)

from conftest import measure_doc, random_space, two_point_space


class TestValidation:
    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_triangle_violation_rejected(self, scale):
        # the tolerance scales with the matrix, so a small metric's violation
        # is refused as a unit one's is
        bad = scale * np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            PseudometricSpace(points=("a", "b", "c"), metrics={"d": bad})

    def test_triangle_check_reports_first_worst_pair(self, rng):
        # all-triples reference: the global argmax of p - relay, row-major
        for n in (3, 9, 20, 33):
            raw = rng.uniform(0.5, 1.0, size=(n, n))
            bad = (raw + raw.T) / 2.0
            np.fill_diagonal(bad, 0.0)
            i, k = rng.choice(n, size=2, replace=False)
            bad[i, k] = bad[k, i] = 3.0
            relay = (bad[:, :, None] + bad[None, :, :]).min(axis=1)
            pair = np.unravel_index(int(np.argmax(bad - relay)), bad.shape)
            points = tuple(f"p{j}" for j in range(n))
            with pytest.raises(ValueError, match=rf"fails at pair \({pair[0]}, {pair[1]}\)"):
                PseudometricSpace(points=points, metrics={"d": bad})

    def test_line_metrics_at_large_scale_accepted(self, rng):
        # |x_i - x_j| is a metric; its relays round at the scale of the points
        for _ in range(20):
            x = rng.uniform(-1e4, 1e4, size=60)
            line = np.abs(x[:, None] - x[None, :])
            PseudometricSpace(points=tuple(f"p{j}" for j in range(60)), metrics={"d": line})

    def test_triangle_violation_relative_to_scale_rejected(self):
        for scale in (1.0, 1e4, 1e8):
            bad = scale * np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
            bad[0, 2] = bad[2, 0] = 2.0 * scale + 1e-9 * scale
            with pytest.raises(ValueError, match="triangle"):
                PseudometricSpace(points=("a", "b", "c"), metrics={"d": bad})

    def test_asymmetry_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            PseudometricSpace(points=("a", "b"), metrics={"d": bad})

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            PseudometricSpace(points=("a", "b"), metrics={"d": bad})

    def test_anchor_out_of_range(self):
        with pytest.raises(ValueError, match="anchor"):
            two_point_space(1.0, anchor=5)

    def test_unknown_metric(self):
        space = two_point_space(1.0)
        with pytest.raises(KeyError, match="unknown metric"):
            space.metric("nope")

    def test_weights_frozen(self):
        mu = two_point_space(1.0).measure([1.0, 2.0])
        with pytest.raises(ValueError):
            mu.weights[0] = 7.0


def _one_block_relay(p):
    """The relay matrix as one (n, n, n) broadcast: the reference for the tiles."""
    return (p[:, :, None] + p[None, :, :]).min(axis=1)


def _planar(rng, n):
    x = rng.uniform(-4.0, 4.0, size=(n, 2))
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))


def _metric(rng, n, kind):
    """A planar metric, exactly symmetric or not: ``asymmetric`` nudges each
    entry by under 2 ulps, far inside the tolerance; ``signed zeros`` repeats
    points and writes half of the zero distances as -0.0, so that the relay
    has ties between +0.0 and -0.0 sums."""
    if kind == "signed zeros":
        x = rng.uniform(-4.0, 4.0, size=(max(1, n // 3), 2))[rng.integers(0, max(1, n // 3), size=n)]
        p = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
        flip = np.triu(rng.random((n, n)) < 0.5) & (p == 0.0)
        p[flip | flip.T] = -0.0
        return p
    p = _planar(rng, n)
    if kind == "asymmetric":
        p *= 1.0 + rng.uniform(0.0, 4e-16, size=p.shape)
    return p


class TestTiledTriangleCheck:
    """The relay in row blocks and relay tiles, on one half when ``p`` is
    exactly symmetric, against the one-block formula."""

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "signed zeros"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 130])
    def test_relay_bits(self, rng, n, kind):
        p = _metric(rng, n, kind)
        if kind == "asymmetric" and n > 2:
            assert not np.array_equal(p, p.T)
        assert measures._relay(p).tobytes() == _one_block_relay(p).tobytes()

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("n", [9, 65, 130])
    def test_planted_violation_message_and_pair(self, rng, n, kind):
        for _ in range(4):
            bad = _metric(rng, n, kind)
            i, k = rng.choice(n, size=2, replace=False)
            bad[i, k] = bad[k, i] = 3.0 * bad.max()
            relay = _one_block_relay(bad)
            pair = np.unravel_index(int(np.argmax(bad - relay)), bad.shape)
            assert {int(pair[0]), int(pair[1])} == {int(i), int(k)}
            # p - relay is symmetric with p, so its first maximum is above the diagonal
            assert kind == "asymmetric" or pair[0] < pair[1]
            with pytest.raises(ValueError, match=rf"^metric 'd': triangle inequality fails at pair \({pair[0]}, {pair[1]}\)$"):
                measures._validate_pseudometric("d", bad, n)

    def test_ties_report_the_first_pair_row_major(self):
        # the discrete metric with two pairs at distance 3: each exceeds its relay by 1
        bad = 1.0 - np.eye(70)
        for i, k in ((66, 3), (5, 40)):
            bad[i, k] = bad[k, i] = 3.0
        with pytest.raises(ValueError, match=r"fails at pair \(3, 66\)$"):
            measures._validate_pseudometric("d", bad, 70)

    def test_peak_memory_is_o_n_squared(self, rng):
        import tracemalloc

        n = 512
        p = _planar(rng, n)
        measures._validate_pseudometric("d", p[:8, :8].copy(), 8)  # first-call allocations
        tracemalloc.start()
        try:
            measures._validate_pseudometric("d", p, n)
            peak = tracemalloc.get_traced_memory()[1] / (8 * n * n)
        finally:
            tracemalloc.stop()
        # measured 2.13 n^2 doubles; the (8, n, n) block of one row block
        # alone was 8 n^2, and its check peaked at 9.03 n^2
        assert peak < 2.5


class TestTotalVariation:
    def test_examples(self):
        space = two_point_space(3.0)
        assert total_variation(space.dirac(0)) == 1.0
        assert total_variation(space.measure([1.0, -1.0])) == 2.0
        assert total_variation(space.measure([2.0, -3.0])) == 5.0
        line = PseudometricSpace(
            points=("a", "b", "c"),
            metrics={"d": np.abs(np.subtract.outer([0.0, 1, 2], [0.0, 1, 2]))},
        )
        assert total_variation(line.measure([1.0, -1.0, 0.5])) == 2.5

    def test_positive_plus_negative_mass(self, rng):
        space = random_space(rng, 7)
        for _ in range(50):
            w = rng.uniform(-2, 2, size=7)
            assert total_variation(space.measure(w)) == pytest.approx(
                w[w > 0].sum() - w[w < 0].sum(), rel=1e-14
            )


class TestQuotient:
    def test_first_coordinate_pseudometric(self):
        # 4 planar points, 2 distinct first coordinates
        coords = np.array([[1.0, 5.0], [1.0, 7.0], [2.0, 0.0], [2.0, 3.0]])
        p = np.abs(coords[:, 0][:, None] - coords[:, 0][None, :])
        space = PseudometricSpace(
            points=("a", "b", "c", "d"), metrics={"x": p}, anchor=0, coords=coords
        )
        qm = quotient(space, "x")
        assert qm.n_classes == 2
        assert qm.classes == (0, 0, 1, 1)
        assert qm.quotient_space.metric("x")[0, 1] == 1.0

    def test_genuine_metric_identity(self, rng):
        space = random_space(rng, 5)
        qm = quotient(space, "d")
        assert qm.n_classes == 5
        assert qm.classes == tuple(range(5))
        assert np.array_equal(qm.quotient_space.metric("d"), space.metric("d"))

    def test_totally_degenerate(self):
        p = np.zeros((3, 3))
        space = PseudometricSpace(points=("a", "b", "c"), metrics={"p": p})
        qm = quotient(space, "p")
        assert qm.n_classes == 1

    def test_idempotent(self, rng):
        coords = rng.integers(0, 3, size=8).astype(float)
        p = np.abs(coords[:, None] - coords[None, :])
        space = PseudometricSpace(points=tuple("abcdefgh"), metrics={"p": p})
        qm = quotient(space, "p")
        again = quotient(qm.quotient_space, "p")
        assert again.n_classes == qm.n_classes
        assert again.classes == tuple(range(qm.n_classes))


class TestPushforward:
    def _coord_space(self):
        coords = np.array([[1.0, 5.0], [1.0, 7.0], [2.0, 0.0]])
        p = np.abs(coords[:, 0][:, None] - coords[:, 0][None, :])
        return PseudometricSpace(points=("a", "b", "c"), metrics={"x": p}, coords=coords)

    def test_dirac_image(self):
        space = self._coord_space()
        qm = quotient(space, "x")
        nu = pushforward(space.dirac(0), qm)
        assert nu.weights.tolist() == [1.0, 0.0]

    def test_atoms_collapse(self):
        space = self._coord_space()
        qm = quotient(space, "x")
        nu = pushforward(space.measure([1.0, -1.0, 0.0]), qm)
        assert nu.weights.tolist() == [0.0, 0.0]

    def test_fiber_sum(self):
        space = self._coord_space()
        qm = quotient(space, "x")
        nu = pushforward(space.measure([0.3, 0.7, 0.0]), qm)
        assert nu.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_distance_zero_atoms_stay_distinct(self):
        # signed cancellation must be explicit: only the quotient merges atoms
        p = np.zeros((2, 2))
        space = PseudometricSpace(points=("a", "b"), metrics={"p": p})
        mu = space.measure([1.0, -1.0])
        assert mu.weights.tolist() == [1.0, -1.0]
        assert total_variation(mu) == 2.0
        qm = quotient(space, "p")
        assert pushforward(mu, qm).weights.tolist() == [0.0]

    def test_mass_preserved_exactly_on_dyadic_weights(self, rng):
        # dyadic weights make every partial sum exact in binary floating point
        coords = rng.integers(0, 4, size=12).astype(float)
        p = np.abs(coords[:, None] - coords[None, :])
        space = PseudometricSpace(points=tuple(f"p{i}" for i in range(12)), metrics={"p": p})
        qm = quotient(space, "p")
        for _ in range(100):
            w = rng.integers(-(2**20), 2**20, size=12) / 2.0**20
            mu = space.measure(w)
            assert pushforward(mu, qm).total_mass == mu.total_mass


class TestFileFormat:
    def test_round_trip(self, rng):
        space = random_space(rng, 5, with_coords=True)
        w = rng.uniform(-1, 1, size=5)
        back = measure_from_dict(json.loads(json.dumps(measure_doc(space, w))))
        assert back.space.same_as(space)
        assert np.array_equal(back.weights, w)
        assert np.array_equal(back.space.coords, space.coords)

    def test_decimal_strings(self):
        doc = {
            "points": ["a", "b"],
            "metrics": {"d": [["0", "0.1"], ["0.1", "0"]]},
            "anchor": 1,
            "weights": ["0.25", "-1e-3"],
        }
        mu = measure_from_dict(doc)
        assert mu.weights.tolist() == [0.25, -0.001]
        assert mu.space.metric("d")[0, 1] == 0.1

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            measure_from_dict({"points": ["a"]})


def _file_doc():
    return {
        "points": ["a", "b", "c"],
        "metrics": {"d": [["0", "1.5", "2"], ["1.5", "0", "1"], ["2", "1", "0"]]},
        "anchor": 1,
        "coords": [["0", "0"], ["1.5", "0"], ["2", "1"]],
        "weights": ["0.5", "-0.25", "0.125"],
    }


def _message(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestParsing:
    @pytest.mark.parametrize("token", ["inf", "nan", "1e400", "-inf"])
    @pytest.mark.parametrize("field", ["metrics", "coords", "weights"])
    def test_non_finite_rejected(self, field, token):
        doc = _file_doc()
        if field == "metrics":
            doc["metrics"]["d"][2][0] = token
        elif field == "coords":
            doc["coords"][1][1] = token
        else:
            doc["weights"][2] = token
        with pytest.raises(ValueError) as info:
            measure_from_dict(doc)
        assert str(info.value) == f"non-finite number in measure file: {token!r}"

    def test_first_bad_entry_names_the_error(self):
        doc = _file_doc()
        doc["metrics"]["d"][0][2] = "inf"
        doc["metrics"]["d"][1][0] = "abc"
        assert _message(lambda: measure_from_dict(doc)) == (
            ValueError, "non-finite number in measure file: 'inf'"
        )
        doc["metrics"]["d"][0][2] = "abc"
        doc["metrics"]["d"][1][0] = "inf"
        assert _message(lambda: measure_from_dict(doc)) == (
            ValueError, "could not convert string to float: 'abc'"
        )

    def test_ragged_rows_rejected(self):
        doc = _file_doc()
        doc["metrics"]["d"][1] = ["1.5", "0"]
        with pytest.raises(ValueError, match="inhomogeneous"):
            measure_from_dict(doc)
        doc["coords"][2] = ["2"]
        doc["metrics"]["d"][1] = ["1.5", "0", "1"]
        with pytest.raises(ValueError, match="inhomogeneous"):
            measure_from_dict(doc)
        # a non-finite entry in a ragged matrix is named first, as entry by entry
        doc["coords"][0][0] = "nan"
        with pytest.raises(ValueError, match="non-finite number in measure file: 'nan'"):
            measure_from_dict(doc)

    def test_malformed_entries(self):
        doc = _file_doc()
        doc["metrics"]["d"][0][1] = None
        assert _message(lambda: measure_from_dict(doc))[1].startswith("malformed measure file: float()")
        doc = _file_doc()
        doc["weights"] = 5
        assert _message(lambda: measure_from_dict(doc)) == (
            ValueError, "malformed measure file: weights must be a list, got int"
        )

    def test_coords_not_rows_is_malformed(self):
        doc = {"points": ["a"], "metrics": {"d": [["0"]]}, "coords": 5, "weights": ["1"]}
        assert _message(lambda: measure_from_dict(doc)) == (
            ValueError, "malformed measure file: coords must be a list, got int"
        )

    @pytest.mark.parametrize(
        "edit, cause",
        [
            (lambda doc: doc.update(points=5), "points must be a list, got int"),
            (lambda doc: doc.update(points="abc"), "points must be a list, got str"),
            (lambda doc: doc.update(weights="0.5"), "weights must be a list, got str"),
            (lambda doc: doc.update(weights={"a": "1"}), "weights must be a list, got dict"),
            (lambda doc: doc["metrics"].update(d=5), "metrics.d must be a list, got int"),
            (lambda doc: doc["metrics"]["d"].__setitem__(1, 5), "metrics.d row 1 must be a list, got int"),
            (lambda doc: doc["metrics"]["d"].__setitem__(2, "201"), "metrics.d row 2 must be a list, got str"),
            (lambda doc: doc["coords"].__setitem__(0, None), "coords row 0 must be a list, got NoneType"),
        ],
    )
    def test_a_field_that_is_not_a_list_is_named(self, edit, cause):
        doc = _file_doc()
        edit(doc)
        assert _message(lambda: measure_from_dict(doc)) == (ValueError, f"malformed measure file: {cause}")

    def test_first_bad_row_or_entry_in_row_order_is_named(self):
        doc = _file_doc()
        doc["metrics"]["d"][0][1] = "abc"
        doc["metrics"]["d"][1] = 5
        assert _message(lambda: measure_from_dict(doc)) == (
            ValueError, "could not convert string to float: 'abc'"
        )
        doc["metrics"]["d"][0][1] = "1.5"
        doc["metrics"]["d"][2][0] = "abc"
        assert _message(lambda: measure_from_dict(doc)) == (
            ValueError, "malformed measure file: metrics.d row 1 must be a list, got int"
        )

    def test_doubles_equal_float_parse(self):
        reprs = [
            "5e-324", "4.9406564584124654e-324", "1e-320", "2.2250738585072009e-308",
            "2.2250738585072014e-308", "1.7976931348623157e308", "-0.0", "0.1",
            "123456789012345678901234567890", "1e22", "9007199254740993",
        ]
        n = len(reprs)
        doc = {
            "points": [f"p{i}" for i in range(n)],
            "metrics": {"d": [["0" if i == j else "5e-324" for j in range(n)] for i in range(n)]},
            "coords": [[r, "0"] for r in reprs],
            "weights": reprs,
        }
        mu = measure_from_dict(doc)
        expected = np.array([float(r) for r in reprs])
        assert mu.weights.tobytes() == expected.tobytes()
        assert mu.space.coords[:, 0].tobytes() == expected.tobytes()
        assert mu.space.metric("d")[0, 1] == 5e-324


class TestSpaceReuse:
    def test_same_space_reused(self):
        mu_doc = _file_doc()
        mu = measure_from_dict(mu_doc)
        doc = _file_doc()
        doc["weights"] = ["1", "2", "3"]
        nu = measure_from_dict(doc, (mu.space, mu_doc))
        assert nu.space is mu.space
        assert nu.weights.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "change", ["ulp", "coords", "anchor", "triangle", "points", "metric_name", "other text"]
    )
    def test_different_space_built_in_full(self, change):
        mu_doc = _file_doc()
        mu = measure_from_dict(mu_doc)
        doc = _file_doc()
        if change == "ulp":
            doc["metrics"]["d"][0][1] = repr(math.nextafter(1.5, 2.0))
        elif change == "coords":
            doc["coords"][2][1] = "1.25"
        elif change == "anchor":
            doc["anchor"] = 0
        elif change == "triangle":
            doc["metrics"]["d"][0][2] = doc["metrics"]["d"][2][0] = "3"
        elif change == "points":
            doc["points"][2] = "z"
        elif change == "metric_name":
            doc["metrics"] = {"e": doc["metrics"]["d"]}
        else:  # the same doubles, written differently
            doc["metrics"]["d"][0][1] = doc["metrics"]["d"][1][0] = "1.50"
        if change == "triangle":
            expected = _message(lambda: measure_from_dict(doc))
            assert "triangle inequality fails" in expected[1]
            assert _message(lambda: measure_from_dict(doc, (mu.space, mu_doc))) == expected
            return
        nu = measure_from_dict(doc, (mu.space, mu_doc))
        fresh = measure_from_dict(doc)
        assert nu.space is not mu.space
        assert nu.space.same_as(fresh.space) and nu.space.points == fresh.space.points
        assert np.array_equal(nu.space.coords, fresh.space.coords)
        assert nu.space.same_as(mu.space) == (change in ("coords", "other text"))


class TestSharedSpace:
    """``measure_from_dict(doc, (space, space_doc))``: a file repeating the
    raw space of ``space_doc`` parses only its weights; any other file is
    read as if alone."""

    def test_same_raw_space_parses_only_weights(self, monkeypatch):
        mu_doc = _file_doc()
        mu = measure_from_dict(mu_doc)
        doc = _file_doc()
        doc["weights"] = ["1", "2", "3"]
        parsed = []
        monkeypatch.setattr(measures, "_matrix", lambda rows, name: parsed.append(rows) or _matrix(rows, name))
        nu = measure_from_dict(doc, (mu.space, mu_doc))
        assert nu.space is mu.space
        assert parsed == [[doc["weights"]]]
        assert nu.weights.tobytes() == measure_from_dict(doc).weights.tobytes()

    @pytest.mark.parametrize(
        "change", ["ulp", "anchor", "missing anchor", "null coords", "points", "numeric points", "metric order"]
    )
    def test_other_space_takes_the_full_path(self, change):
        mu_doc = _file_doc()
        if change == "numeric points":
            mu_doc["points"] = [1, 2, 3]
        elif change == "metric order":
            mu_doc["metrics"]["e"] = mu_doc["metrics"]["d"]
        elif change == "null coords":
            del mu_doc["coords"]
        mu = measure_from_dict(mu_doc)
        doc = json.loads(json.dumps(mu_doc))
        if change == "ulp":
            doc["metrics"]["d"][0][1] = doc["metrics"]["d"][1][0] = repr(math.nextafter(1.5, 2.0))
        elif change == "anchor":
            doc["anchor"] = 0
        elif change == "missing anchor":
            mu_doc["anchor"] = doc["anchor"] = 0
            mu = measure_from_dict(mu_doc)
            del doc["anchor"]
        elif change == "null coords":
            doc["coords"] = None
        elif change == "points":
            doc["points"][2] = "z"
        elif change == "metric order":
            doc["metrics"] = {"e": doc["metrics"]["e"], "d": doc["metrics"]["d"]}
        else:  # equal under ==, but the point names differ
            doc["points"] = [1.0, 2.0, 3.0]
        nu = measure_from_dict(doc, (mu.space, mu_doc))
        fresh = measure_from_dict(doc)
        assert nu.space is not mu.space
        assert nu.space.points == fresh.space.points and nu.space.anchor == fresh.space.anchor
        assert nu.space.same_as(fresh.space) and list(nu.space.metrics) == list(fresh.space.metrics)

    @pytest.mark.parametrize("weights", [None, 5, ["1", "x", "2"], ["1", "inf", "2"], ["1", "2"]])
    def test_errors_as_in_full_parse(self, weights):
        mu_doc = _file_doc()
        mu = measure_from_dict(mu_doc)
        for doc in (_file_doc(), {**_file_doc(), "anchor": 0}):
            if weights is None:
                del doc["weights"]
            else:
                doc["weights"] = weights
            assert _message(lambda: measure_from_dict(doc, (mu.space, mu_doc))) == _message(
                lambda: measure_from_dict(doc)
            )
        assert _message(lambda: measure_from_dict([1], (mu.space, mu_doc))) == _message(
            lambda: measure_from_dict([1])
        )

    def test_null_anchor_is_not_a_missing_one(self):
        # the space's file leaves the anchor out (anchor 0) and the other file
        # sets it to null, which the full parse refuses
        mu_doc = _file_doc()
        del mu_doc["anchor"]
        mu = measure_from_dict(mu_doc)
        doc = {**mu_doc, "anchor": None}
        expected = _message(lambda: measure_from_dict(doc))
        assert expected[1].startswith("malformed measure file")
        assert _message(lambda: measure_from_dict(doc, (mu.space, mu_doc))) == expected


class TestArithmetic:
    def test_same_space_required(self, rng):
        a = random_space(rng, 3)
        b = random_space(rng, 3)
        with pytest.raises(ValueError, match="different spaces"):
            a.measure([1, 0, 0]) + b.measure([0, 1, 0])

    def test_operations(self):
        space = two_point_space(1.0)
        mu = space.measure([1.0, -2.0])
        assert (2 * mu).weights.tolist() == [2.0, -4.0]
        assert (-mu).weights.tolist() == [-1.0, 2.0]
        assert (mu - mu).weights.tolist() == [0.0, 0.0]
