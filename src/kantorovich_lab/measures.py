"""Finitely supported signed measures on finite pseudometric spaces.

A space is a finite point set carrying a named family of pseudometrics, a
distinguished anchor point and (optionally) numeric coordinates.  Measures
are real weight vectors over the points.  All objects are immutable after
construction and every operation is a pure function, so values can be shared
freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

#: Validation tolerance for the pseudometric axioms (user-supplied matrices),
#: relative to the matrix's largest entry ``max |p|``.
TRIANGLE_TOL = 1e-12
#: Rows and relay points per tile of the triangle-inequality check.  A tile
#: holds rows * relays * n doubles (4 MB at n = 1024), so it stays in cache
#: while its minimum over the relay points is taken.
TRIANGLE_BLOCK_ROWS = 8
TRIANGLE_TILE_RELAYS = 64


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _validate_pseudometric(name: str, p: np.ndarray, n: int) -> None:
    if p.shape != (n, n):
        raise ValueError(f"metric {name!r}: expected shape {(n, n)}, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"metric {name!r}: non-finite entries")
    # a distance of size s carries round-off of size s * eps
    tol = TRIANGLE_TOL * float(np.abs(p).max(initial=0.0))
    if np.any(np.abs(np.diagonal(p)) > tol):
        raise ValueError(f"metric {name!r}: nonzero diagonal")
    if np.any(np.abs(p - p.T) > tol):
        raise ValueError(f"metric {name!r}: not symmetric")
    if np.any(p < -tol):
        raise ValueError(f"metric {name!r}: negative entries")
    # p(i,k) <= min_j p(i,j) + p(j,k)
    relay = _relay(p)
    if np.any(p > relay + tol):
        i, k = np.unravel_index(int(np.argmax(p - relay)), p.shape)
        raise ValueError(f"metric {name!r}: triangle inequality fails at pair ({i}, {k})")


def _relay(p: np.ndarray) -> np.ndarray:
    """``min_j p[i, j] + p[j, k]`` for every pair (i, k), bit for bit
    ``(p[:, :, None] + p[None]).min(axis=1)`` in O(n^2) memory.

    Rows are taken in blocks and relay points in tiles, each tile's minimum
    folded into the block's with ``np.minimum``; the minimum of equal sums
    keeps the last, in tiles as in one reduction, so even signed zeros agree.
    For an exactly symmetric ``p`` the relay is symmetric too (the same sums,
    added the other way round), so a block computes only its columns from
    its first row on and takes the rest from the rows above it; a last block
    of one row is computed whole, since numpy would reduce a one-column tile
    along its contiguous axis in SIMD lanes, which may keep the other zero.
    """
    n = len(p)
    symmetric = np.array_equal(p.view(np.uint64), p.T.view(np.uint64))
    relay = np.empty_like(p)
    tiles = np.empty(TRIANGLE_BLOCK_ROWS * TRIANGLE_TILE_RELAYS * n)
    for lo in range(0, n, TRIANGLE_BLOCK_ROWS):
        hi = min(lo + TRIANGLE_BLOCK_ROWS, n)
        start = lo if symmetric and lo < n - 1 else 0
        relay[lo:hi, :start] = relay[:start, lo:hi].T
        block = relay[lo:hi, start:]
        for j in range(0, n, TRIANGLE_TILE_RELAYS):
            jh = min(j + TRIANGLE_TILE_RELAYS, n)
            tile = tiles[: (hi - lo) * (jh - j) * (n - start)].reshape(hi - lo, jh - j, n - start)
            np.add(p[lo:hi, j:jh, None], p[None, j:jh, start:], out=tile)
            if j:
                np.minimum(block, tile.min(axis=1), out=block)
            else:
                tile.min(axis=1, out=block)
    return relay


@dataclass(frozen=True)
class PseudometricSpace:
    """Finite point set with a named family of pseudometrics and an anchor."""

    points: tuple[str, ...]
    metrics: Mapping[str, np.ndarray]
    anchor: int = 0
    coords: np.ndarray | None = None

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if not points:
            raise ValueError("space needs at least one point")
        n = len(points)
        metrics = {str(k): _frozen(v) for k, v in dict(self.metrics).items()}
        if not metrics:
            raise ValueError("space needs at least one pseudometric")
        for name, p in metrics.items():
            _validate_pseudometric(name, p, n)
        if not 0 <= int(self.anchor) < n:
            raise ValueError(f"anchor index {self.anchor} out of range for {n} points")
        coords = None
        if self.coords is not None:
            coords = _frozen(np.atleast_2d(self.coords))
            if coords.shape[0] != n:
                raise ValueError("coords must provide one row per point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "anchor", int(self.anchor))
        object.__setattr__(self, "coords", coords)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def metric(self, name: str) -> np.ndarray:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(f"unknown metric {name!r}; have {sorted(self.metrics)}") from None

    def metric_names(self) -> tuple[str, ...]:
        return tuple(self.metrics)

    def anchor_distances(self, name: str) -> np.ndarray:
        """Vector of distances d(x_i, x0) under the named pseudometric."""
        return self.metric(name)[:, self.anchor]

    def same_as(self, other: "PseudometricSpace") -> bool:
        if self is other:
            return True
        return (
            self.points == other.points
            and self.anchor == other.anchor
            and set(self.metrics) == set(other.metrics)
            and all(np.array_equal(self.metrics[k], other.metrics[k]) for k in self.metrics)
        )

    def measure(self, weights: Sequence[float] | np.ndarray) -> "SignedMeasure":
        return SignedMeasure(self, np.asarray(weights, dtype=float))

    def dirac(self, index: int) -> "SignedMeasure":
        """Unit mass at the point of ``index``."""
        w = np.zeros(self.n_points)
        w[index] = 1.0
        return SignedMeasure(self, w)


@dataclass(frozen=True)
class SignedMeasure:
    """Finitely supported signed measure: one real weight per point."""

    space: PseudometricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.shape != (self.space.n_points,):
            raise ValueError(f"weights shape {w.shape} does not match {self.space.n_points} points")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights.tolist())

    @property
    def support(self) -> np.ndarray:
        return self.weights.nonzero()[0]

    def _require_same_space(self, other: "SignedMeasure") -> None:
        if not self.space.same_as(other.space):
            raise ValueError("measures live on different spaces")

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._require_same_space(other)
        return SignedMeasure(self.space, self.weights + other.weights)

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._require_same_space(other)
        return SignedMeasure(self.space, self.weights - other.weights)

    def __mul__(self, c: float) -> "SignedMeasure":
        return SignedMeasure(self.space, self.weights * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "SignedMeasure":
        return SignedMeasure(self.space, -self.weights)


@dataclass(frozen=True)
class QuotientMap:
    """Collapse of a pseudometric's null pairs to a genuine metric space.

    ``classes[i]`` is the equivalence class of point ``i`` (two points share a
    class iff their distance vanishes); ``quotient_space`` carries the induced
    metric on the classes under the same metric name.
    """

    source: PseudometricSpace
    metric_name: str
    classes: tuple[int, ...]
    quotient_space: PseudometricSpace

    @property
    def n_classes(self) -> int:
        return self.quotient_space.n_points


def total_variation(mu: SignedMeasure) -> float:
    return math.fsum(np.abs(mu.weights).tolist())


def quotient(space: PseudometricSpace, metric_name: str) -> QuotientMap:
    """Quotient by the null pairs of the named pseudometric.

    Classes are labelled in order of first occurrence, so the result is
    deterministic.  The induced matrix is well defined because vanishing
    distance is transitive under the triangle inequality.
    """
    p = space.metric(metric_name)
    n = space.n_points
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if p[i, j] <= TRIANGLE_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    labels: dict[int, int] = {}
    classes = []
    reps = []
    for i in range(n):
        r = find(i)
        if r not in labels:
            labels[r] = len(labels)
            reps.append(i)
        classes.append(labels[r])
    reps_arr = np.array(reps)

    induced = p[np.ix_(reps_arr, reps_arr)].copy()
    np.fill_diagonal(induced, 0.0)
    names = tuple("[%s]" % space.points[r] for r in reps)
    qspace = PseudometricSpace(
        points=names,
        metrics={metric_name: induced},
        anchor=classes[space.anchor],
    )
    return QuotientMap(space, metric_name, tuple(classes), qspace)


def pushforward(mu: SignedMeasure, qmap: QuotientMap) -> SignedMeasure:
    """Image measure under the quotient map: class weight = sum over its fiber."""
    if not mu.space.same_as(qmap.source):
        raise ValueError("measure does not live on the quotient's source space")
    k = qmap.n_classes
    cls = np.asarray(qmap.classes)
    out = np.array([math.fsum(mu.weights[cls == c].tolist()) for c in range(k)])
    return SignedMeasure(qmap.quotient_space, out)


# ---------------------------------------------------------------------------
# Measure file format (JSON).  Weights, matrices and coordinates are written
# as decimal strings so files parse to identical doubles on every platform.
# ---------------------------------------------------------------------------


def _num(x) -> float:
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number in measure file: {x!r}")
    return v


def _list(value, name: str):
    """``value`` if it is a list (or a tuple or array, from Python callers);
    anything else is a ``TypeError`` naming the field ``name``."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise TypeError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _matrix(rows, name: str) -> np.ndarray:
    """Rows of decimal strings as a float array; a non-finite entry is an error.

    Parses every entry in one flat pass when the rows are lists of equal
    length; on any failure the rows are parsed again one by one, so the error
    is the one the first bad row or entry in row order (or a ragged shape)
    raises.  ``name`` is the field's path in the file (``metrics.d``,
    ``coords``), named when it or one of its rows is not a list.
    """
    _list(rows, name)
    try:
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        if all(isinstance(row, (list, tuple, np.ndarray)) and len(row) == n_cols for row in rows):
            out = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float, n_rows * n_cols)
            if np.isfinite(out).all():
                return out.reshape(n_rows, n_cols) if n_rows else out
    except (TypeError, ValueError, KeyError, IndexError):
        pass
    return np.array([[_num(x) for x in _list(row, f"{name} row {i}")] for i, row in enumerate(rows)])


_MISSING = object()


def space_from_dict(
    doc: Mapping, reuse: tuple[PseudometricSpace, Mapping] | None = None
) -> PseudometricSpace:
    """Space of a measure file.

    ``reuse`` is a space and the file it was parsed from.  A file that
    repeats that file's metrics, anchor and coords (plain equality of the
    parsed JSON, a key left out differing from a null one) and its point
    names gets that space back, without parsing or validating them again.  A
    number equal to one of another type parses to the same double, or to a
    zero of the other sign, which the space's checks and solvers treat alike.
    Any other file is parsed and validated in full, even one that writes the
    same space in other text (``"1.50"`` for ``"1.5"``), so its errors are
    those of a file read alone.
    """
    try:
        points = tuple(str(p) for p in _list(doc["points"], "points"))
        if reuse is not None:
            space, space_doc = reuse
            if (
                points == space.points
                and all(doc.get(k, _MISSING) == space_doc.get(k, _MISSING) for k in ("metrics", "anchor", "coords"))
                and list(doc["metrics"]) == list(space.metrics)
            ):
                return space
        if not isinstance(doc["metrics"], Mapping):
            raise TypeError("metrics must be an object of named matrices")
        metrics = {str(name): _matrix(matrix, f"metrics.{name}") for name, matrix in doc["metrics"].items()}
        anchor = int(doc.get("anchor", 0))
        coords = None if doc.get("coords") is None else _matrix(doc["coords"], "coords")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed measure file: {exc}") from exc
    return PseudometricSpace(points=points, metrics=metrics, anchor=anchor, coords=coords)


def measure_from_dict(
    doc: Mapping, reuse: tuple[PseudometricSpace, Mapping] | None = None
) -> SignedMeasure:
    """Measure of a measure file; ``reuse`` as in ``space_from_dict``."""
    return _weights_on(space_from_dict(doc, reuse), doc)


def _weights_on(space: PseudometricSpace, doc: Mapping) -> SignedMeasure:
    try:
        weights = _matrix([_list(doc["weights"], "weights")], "weights")[0]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed measure file: {exc}") from exc
    return space.measure(weights)
