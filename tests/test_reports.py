"""``dump_json`` writes exactly the bytes of the stdlib's indenting encoder
run on ``_plain(doc)``, the reference computed here."""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kantorovich_lab import cli, reports
from kantorovich_lab.measures import PseudometricSpace, SignedMeasure, measure_to_dict
from kantorovich_lab.reports import _plain, dump_json, mean_var


def reference(doc) -> bytes:
    text = json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")


def written(doc, path) -> bytes:
    dump_json(doc, path)
    return path.read_bytes()


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.0,
]
NON_FINITE = [math.inf, -math.inf, math.nan]
STRINGS = ["", '"', "\\", "\x00\x08\x0c\x1f\x7f", "\n\r\t", "é ü ✓", "😀", " ", "\ud800"]

floats = st.floats() | st.sampled_from(EDGE_FLOATS + NON_FINITE)
texts = st.text() | st.sampled_from(STRINGS)
ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
numpy_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
# a tolist() result follows the document's rules: an object array's dicts get
# str keys like any mapping's, and its numpy floats, finite or not, are written
# as Python floats are
raw_dicts = st.one_of(
    st.dictionaries(st.integers() | st.floats(), floats, max_size=4),
    st.dictionaries(st.booleans(), texts, max_size=2),
    st.dictionaries(st.none(), ints, max_size=1),
)
object_arrays = st.tuples(raw_dicts, floats.map(np.float64)).map(
    lambda t: np.array([t[0], None, t[1]], dtype=object)
)
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none())
leaves = st.one_of(
    st.none(), st.booleans(), ints, floats, texts, numpy_scalars, numpy_arrays, object_arrays,
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    st.lists(floats, min_size=1, max_size=8),
)
documents = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(keys, kids, max_size=5),
        st.dictionaries(keys, kids, max_size=5).map(types.MappingProxyType),
    ),
    max_leaves=30,
)


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reports") / "report.json"


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_bytes_match_stdlib_encoder(doc, report_path):
    assert written(doc, report_path) == reference(doc)


def test_edge_document(report_path):
    doc = {
        "floats": EDGE_FLOATS,
        "python_non_finite": NON_FINITE,
        "array": np.array(EDGE_FLOATS + NON_FINITE),
        "matrix": np.array([[math.inf, 1.0], [-0.0, math.nan]]),
        "scalars": [np.float64(math.inf), np.float32(0.1), np.int64(-7), np.bool_(True)],
        "ints": [10**40, -(10**40), 0, True, False, None],
        "empty": [[], {}, (), np.zeros(0), np.zeros((2, 0))],
        "tuple": (1.5, "x", (None,)),
        "strings": STRINGS,
        1: "int key",
        2.5: "float key",
        None: "None key",
        True: "bool key",
        "nested": {"a": {"b": {"c": [{"d": [1, 2.0, "3"]}]}}},
    }
    text = written(doc, report_path)
    assert text == reference(doc)
    # one rule at every depth: a non-finite float is a string, never a bare token
    assert b'"-inf",' in text
    assert b"Infinity" not in text and b"NaN" not in text


# ---------------------------------------------------------------------------
# The array path: a finite float64 ndarray of one or two dimensions is written
# straight from numpy; any other array goes through tolist()
# ---------------------------------------------------------------------------

ARRAY_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1.0, -3.5]
finite = st.floats(allow_nan=False, allow_infinity=False)
array_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)
finite_arrays = st.one_of(
    hnp.arrays(np.float64, array_shapes, elements=finite),  # dense
    hnp.arrays(np.float64, array_shapes, elements=finite, fill=st.just(0.0)),  # mostly zero
    hnp.arrays(np.float64, array_shapes, elements=st.sampled_from(ARRAY_FLOATS)),  # signed zeros, edges
)
#: Arrays at the top, in a mapping and in a list, at depths 0 to 2.
placed = [lambda a: a, lambda a: {"coupling": a, "z": [a]}, lambda a: [1, {"a": a}, a]]


@pytest.fixture
def array_path(monkeypatch):
    """The arrays that ``dump_json`` writes straight from numpy."""
    taken = []
    write = reports._float_array

    def spy(a, level, out):
        taken.append(a)
        write(a, level, out)

    monkeypatch.setattr(reports, "_float_array", spy)
    return taken


@settings(max_examples=300, deadline=None)
@given(a=finite_arrays, where=st.sampled_from(placed))
def test_array_path_bytes(a, where, report_path):
    assert written(where(a), report_path) == reference(where(a))


STRAIGHT = {
    "empty": np.zeros(0),
    "0x3": np.zeros((0, 3)),
    "3x0": np.zeros((3, 0)),
    "0x0": np.zeros((0, 0)),
    "one row": np.array([[0.5, -0.0, 0.0]]),
    "negative zero": np.array([-0.0]),
    "edges": np.array(ARRAY_FLOATS),
    "edges 2x5": np.array(ARRAY_FLOATS).reshape(2, 5),
    "mostly zero": np.eye(5)[::-1] * 1e-300,
    "strided": np.eye(4)[:, ::2],
    "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
}
OTHER = {
    "inf": np.array([1.0, math.inf]),
    "-inf": np.array([[0.0, -math.inf]]),
    "nan": np.array([[math.nan], [2.0]]),
    "float32": np.array([1.0, 2.0], dtype=np.float32),
    "int64": np.array([1, -2]),
    "bool": np.array([True, False]),
    "big-endian": np.array([[1.5]], dtype=">f8"),
    "0-d": np.array(2.5),
    "3-d": np.zeros((2, 1, 2)),
    "object": np.array([1.5, None], dtype=object),
    "subclass": np.ma.array([[1.5, 0.0]]),
}


@pytest.mark.parametrize("name", list(STRAIGHT))
@pytest.mark.parametrize("where", range(len(placed)))
def test_arrays_written_straight_from_numpy(name, where, array_path, report_path):
    a = STRAIGHT[name]
    doc = placed[where](a)
    assert written(doc, report_path) == reference(doc)
    assert array_path and all(b is a for b in array_path)


@pytest.mark.parametrize("name", list(OTHER))
def test_other_arrays_take_tolist(name, array_path, report_path):
    doc = {"a": OTHER[name], "b": [OTHER[name]]}
    assert written(doc, report_path) == reference(doc)
    assert array_path == []


def _no_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_numpy_non_finite_is_strict_json(report_path):
    doc = {
        "array": np.array([math.inf, -math.inf, math.nan, 1.5]),
        "matrix": np.array([[math.nan, 0.0], [-math.inf, math.inf]]),
        "scalars": [np.float64(math.inf), np.float32(-math.inf), np.float64(math.nan)],
        "zero_d": np.array(math.nan),
    }
    loaded = json.loads(written(doc, report_path), parse_constant=_no_constant)
    assert loaded == {
        "array": ["inf", "-inf", "nan", 1.5],
        "matrix": [["nan", 0.0], ["-inf", "inf"]],
        "scalars": ["inf", "-inf", "nan"],
        "zero_d": "nan",
    }


def test_unserializable_raises_like_stdlib(report_path):
    for doc in ({"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            dump_json(doc, report_path)


def test_norms_report_at_256_points(tmp_path):
    rng = np.random.default_rng(11)
    coords = rng.uniform(-4.0, 4.0, size=(256, 2))
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    space = PseudometricSpace(
        points=tuple(f"p{i}" for i in range(256)), metrics={"d": d}, anchor=3, coords=coords
    )
    a = rng.dirichlet(np.ones(256))
    b = rng.dirichlet(np.ones(256))
    b[-1] = math.fsum(a.tolist()) - math.fsum(b[:-1].tolist())
    for name, w in (("mu.json", a), ("nu.json", b)):
        (tmp_path / name).write_text(json.dumps(measure_to_dict(SignedMeasure(space, w))))
    config = {
        "kind": "norms",
        "seed": 1,
        "out": str(tmp_path / "out"),
        "params": {"measure": "mu.json", "other_measure": "nu.json", "metric": "d",
                   "ops": ["kq", "wq"], "q": 2},
    }
    code, report, path = cli.run(config, base=tmp_path)
    assert code == cli.EXIT_OK
    assert len(report["payload"]["coupling"]) == 256
    assert path.read_bytes() == reference(report)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 10**5 + 3])
def test_mean_std_has_numpy_bits(n):
    rng = np.random.default_rng(n)
    wide = rng.standard_cauchy((n, 3)) * 1e3 + 7.0
    for v in (
        rng.standard_normal(n) + 1e6,
        np.exp(rng.standard_normal(n) * 5.0),
        wide[:, 1],  # a strided view
        rng.standard_normal(n) < 0.3,  # a mask
    ):
        m, var = mean_var(v)
        assert np.array_equal([m, var, math.sqrt(var)], [float(v.mean()), float(v.var()), float(v.std())])
        w = np.array(v, dtype=float)
        expected = [float(w.mean()), float(w.var())]
        assert np.array_equal(mean_var(w, out=w), expected)


@pytest.mark.parametrize("bary, limit", [([0.0, 0.0], [0.0]), ([0.0], [0.0, 0.0]), ([[0.0, 0.0]], [0.0, 0.0])])
def test_barycenter_gap_refuses_two_shapes(bary, limit):
    """Unequal shapes would broadcast: a dim-2 barycenter minus a dim-1 limit
    compares each coordinate with the limit's one, and could pass."""
    with pytest.raises(ValueError, match="shape"):
        reports.barycenter_gap("gap", np.array(bary), np.array(limit), 1.0)


def test_barycenter_gap_of_one_shape():
    check = reports.barycenter_gap("gap", np.array([0.5, -1.0]), np.array([0.0, 0.0]), 1.0)
    assert (check.estimate, check.passed) == (1.0, True)
