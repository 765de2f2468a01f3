"""Desk-scale convergence harnesses for sequences of signed measures.

Sequences stand in for nets as finite prefixes with a declared limit;
convergence verdicts mean "eventually below tolerance on the prefix".  The
harnesses cover weak gaps against a test-function dictionary, seminorm gaps
with the uniform-integrability tail criterion, sequential compactness by
nested bisection, the density/absolute-continuity lemma, and the barycenter
bound against anchored seminorm gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .measures import PseudometricSpace, SignedMeasure, total_variation
from .transport import LipschitzWitness, k_norm, kq_norm, kr_norm

#: Convergence tolerance for verdicts on finite prefixes.
GAP_TOL = 1e-7
#: Bisection in ``extract_convergent_subsequence`` stops at intervals this wide.
BISECTION_WIDTH = 1e-12


@dataclass(frozen=True)
class MeasureSequence:
    """Ordered measures on a common space, optionally with a declared limit."""

    space: PseudometricSpace
    measures: tuple[SignedMeasure, ...]
    limit: SignedMeasure | None = None

    def __post_init__(self):
        measures = tuple(self.measures)
        if not measures:
            raise ValueError("sequence must contain at least one measure")
        for m in measures:
            if not m.space.same_as(self.space):
                raise ValueError("all measures must live on the common space")
        if self.limit is not None and not self.limit.space.same_as(self.space):
            raise ValueError("declared limit lives on a different space")
        object.__setattr__(self, "measures", measures)

    def __len__(self) -> int:
        return len(self.measures)

    def require_limit(self) -> SignedMeasure:
        if self.limit is None:
            raise ValueError("sequence has no declared limit")
        return self.limit


@dataclass(frozen=True)
class TailProfile:
    """sup over the family of the anchored tail integrals, on a radius grid."""

    metric_name: str
    power: float
    radii: tuple[float, ...]
    values: tuple[float, ...]


def weak_gap(
    seq: MeasureSequence,
    tests: Mapping[str, np.ndarray],
    bound: float | None = None,
) -> list[float]:
    """Per-index sup over the dictionary of |integral against (mu_n - mu)|."""
    limit = seq.require_limit()
    arrs = {}
    for name, values in tests.items():
        v = np.asarray(values, dtype=float)
        if v.shape != (seq.space.n_points,):
            raise ValueError(f"test function {name!r} has wrong shape")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"test function {name!r} has non-finite values")
        if bound is not None and np.abs(v).max() > bound + 1e-12:
            raise ValueError(f"test function {name!r} exceeds the declared bound")
        arrs[name] = v
    gaps = []
    for m in seq.measures:
        delta = m.weights - limit.weights
        gaps.append(max(abs(float(v @ delta)) for v in arrs.values()))
    return gaps


def lipschitz_dictionary(space: PseudometricSpace, metric_name: str) -> dict[str, np.ndarray]:
    """Dictionary {min(p(., y)/r, 1)} over atoms y and dyadic r from 1/4 up
    to the largest distance, plus constants.

    Separates finitely supported measures and stays uniformly bounded by 1.
    """
    d = space.metric(metric_name)
    dmax = float(d.max())
    radii = [2.0**k for k in range(-2, max(1, int(np.ceil(np.log2(max(dmax, 1e-9))))) + 1)]
    tests: dict[str, np.ndarray] = {"const": np.ones(space.n_points)}
    for y in range(space.n_points):
        for r in radii:
            tests[f"bump[{space.points[y]},{r:g}]"] = np.minimum(d[:, y] / r, 1.0)
    return tests


def tail_profile(seq: MeasureSequence, metric_name: str, radii: Sequence[float]) -> TailProfile:
    """Exact sup over the family of the tail integral of p(., x0)."""
    radii, tails = _tail_table(seq, metric_name, radii, 1.0)
    return TailProfile(metric_name, 1.0, tuple(radii), tuple(_family_sup(tails, len(tails))))


def _tail_table(seq: MeasureSequence, metric_name: str, radii: Sequence[float], power: float):
    """The grid as floats, and the tail integral of p(., x0)^power over
    {p(., x0) >= r}: one row per measure, one column per radius r."""
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radius grid must be non-empty")
    dist = seq.space.anchor_distances(metric_name)
    weighted = dist**power
    masks = [dist >= r for r in radii]
    tails = []
    for m in seq.measures:
        mass = np.abs(m.weights)
        tails.append([math.fsum((weighted[mask] * mass[mask]).tolist()) for mask in masks])
    return radii, tails


def _family_sup(tails: list[list[float]], upto: int) -> list[float]:
    """Per radius, the sup of a tail table over its first ``upto`` measures."""
    return [max([0.0, *column[:upto]]) for column in zip(*tails)]


def _stabilized_radii(tails: list[list[float]], radii: Sequence[float]):
    """Radius stabilization on a tail table: the full prefix's sup at each
    radius, and the first radius where the sup is at most ``GAP_TOL`` over
    the half prefix and over the full prefix."""

    def clearing(values):
        return next((r for r, v in zip(radii, values) if v <= GAP_TOL), math.inf)

    full = _family_sup(tails, len(tails))
    return full, clearing(_family_sup(tails, max(1, len(tails) // 2))), clearing(full)


def default_radii(space: PseudometricSpace, metric_name: str) -> list[float]:
    """Dyadic grid up to the largest anchor distance, plus one radius beyond it."""
    dmax = float(space.anchor_distances(metric_name).max())
    if dmax <= 0:
        return [1.0]
    grid = [2.0**k for k in range(0, int(np.ceil(np.log2(dmax))))]
    return [r for r in grid if r < dmax] + [dmax, dmax * (1.0 + 1e-9)]


@dataclass(frozen=True)
class MetricConvergenceRecord:
    metric_name: str
    kr_gaps: tuple[float, ...]
    k_gaps: tuple[float, ...]
    tail: TailProfile
    ui_holds: bool
    settled_from: int | None
    verdict: str  # PASS | UI_FAIL | VIOLATION
    #: witness of the last gap of ``k_gaps``: k's (q = 1) or kq's (q > 1)
    last_k_witness: LipschitzWitness


@dataclass(frozen=True)
class TauKReport:
    q: float
    per_metric: tuple[MetricConvergenceRecord, ...]
    verdict: str


def _settled_index(gaps: Sequence[float]) -> int | None:
    """First index from which all later gaps stay below ``GAP_TOL``."""
    settled = None
    for i in range(len(gaps) - 1, -1, -1):
        if gaps[i] <= GAP_TOL:
            settled = i
        else:
            break
    return settled


def check_tau_k_convergence(
    seq: MeasureSequence,
    metric_names: Sequence[str] | None = None,
    q: float = 1.0,
) -> TauKReport:
    """Seminorm-gap convergence report with the uniform-integrability criterion.

    For each metric: bounded-Lipschitz gaps, anchored gaps (q = 1) or
    moment-weighted gaps (q > 1), and the tail profile of p(., x0)^q on
    ``default_radii``.  The integrability verdict uses radius stabilization
    on the prefix: the smallest grid radius clearing the profile must not
    grow from the half prefix to the full prefix (escaping families keep
    pushing it outward).  A
    metric PASSES when the tail stabilizes and the gaps settle below
    ``GAP_TOL``; tail failure is recorded as UI_FAIL (no convergence claim);
    a stable tail with non-settling gaps contradicts the criterion and is
    flagged VIOLATION.
    """
    if not q >= 1:
        raise ValueError("q must be >= 1")
    limit = seq.require_limit()
    names = tuple(metric_names) if metric_names is not None else seq.space.metric_names()
    records = []
    for name in names:
        grid, tails = _tail_table(seq, name, default_radii(seq.space, name), q)
        values, r_half, r_full = _stabilized_radii(tails, grid)
        profile = TailProfile(name, q, tuple(grid), tuple(values))
        ui = r_full <= r_half
        kr_gaps = []
        k_gaps = []
        for m in seq.measures:
            delta = m - limit
            kr_gaps.append(kr_norm(delta, name)[0])
            gap, witness = k_norm(delta, name) if q == 1 else kq_norm(delta, name, q)
            k_gaps.append(gap)
        settled = _settled_index(k_gaps)
        kr_settled = _settled_index(kr_gaps)
        converged = settled is not None and kr_settled is not None
        if ui and converged:
            verdict = "PASS"
        elif not ui:
            verdict = "UI_FAIL"
        else:
            verdict = "VIOLATION"
        records.append(
            MetricConvergenceRecord(
                metric_name=name,
                kr_gaps=tuple(kr_gaps),
                k_gaps=tuple(k_gaps),
                tail=profile,
                ui_holds=ui,
                settled_from=settled,
                verdict=verdict,
                last_k_witness=witness,
            )
        )
    overall = "PASS"
    if any(r.verdict == "VIOLATION" for r in records):
        overall = "VIOLATION"
    elif any(r.verdict == "UI_FAIL" for r in records):
        overall = "UI_FAIL"
    return TauKReport(q=q, per_metric=tuple(records), verdict=overall)


def extract_convergent_subsequence(
    seq: MeasureSequence,
    metric_name: str,
    tv_bound: float | None = None,
) -> tuple[tuple[int, ...], SignedMeasure]:
    """Coordinate-wise nested bisection keeping the majority half.

    Returns indices of a convergent subsequence (at prefix resolution) and the
    limit measure realized at its last index; the bounded-Lipschitz gap at
    that index is therefore exactly zero.
    """
    if tv_bound is not None:
        worst = max(total_variation(m) for m in seq.measures)
        if worst > tv_bound:
            raise ValueError(f"total variation {worst:.3g} exceeds the declared bound")
    indices = list(range(len(seq)))
    W = np.stack([m.weights for m in seq.measures])
    for c in range(W.shape[1]):
        lo = float(W[indices, c].min())
        hi = float(W[indices, c].max())
        while hi - lo > BISECTION_WIDTH and len(indices) > 1:
            mid = 0.5 * (lo + hi)
            lower = [i for i in indices if W[i, c] <= mid]
            upper = [i for i in indices if W[i, c] > mid]
            if len(lower) >= len(upper):
                indices, hi = lower, mid
            else:
                indices, lo = upper, mid
    limit = seq.measures[indices[-1]]
    return tuple(indices), limit


@dataclass(frozen=True)
class AbsoluteContinuityReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    violation: bool
    radius_full: float
    radius_half: float
    tail_radii: tuple[float, ...]
    tail_values: tuple[float, ...]


def check_ac_limit(
    mu_seq: MeasureSequence,
    densities: Sequence[np.ndarray],
    nu_limit: SignedMeasure,
) -> AbsoluteContinuityReport:
    """Density-limit absolute-continuity check.

    nu_n = f_n . mu_n atom-wise.  The hypothesis (the tail masses
    sup_n |nu_n|(|f_n| >= R) vanish for large R) is judged on the prefix by
    radius stabilization: the smallest radius pushing the sup below
    ``GAP_TOL`` must not grow from the half prefix to the full prefix.  The
    conclusion is checked on atoms: wherever the mu-limit vanishes the
    nu-limit must too.
    A violation is flagged only when the hypothesis holds and the conclusion
    fails.
    """
    mu_limit = mu_seq.require_limit()
    if len(densities) != len(mu_seq):
        raise ValueError("one density vector per measure is required")
    fs = [np.asarray(f, dtype=float) for f in densities]
    n = mu_seq.space.n_points
    for f in fs:
        if f.shape != (n,):
            raise ValueError("density support does not match the space")
    nu_weights = [f * m.weights for f, m in zip(fs, mu_seq.measures)]

    levels = np.unique(np.concatenate([np.abs(f) for f in fs]))
    radii = [float(r) for r in levels] + [float(levels[-1]) + 1.0]

    tails = []
    for f, nu in zip(fs, nu_weights):
        level, mass = np.abs(f), np.abs(nu)
        tails.append([math.fsum(mass[level >= r].tolist()) for r in radii])
    tail_values, r_half, r_full = _stabilized_radii(tails, radii)
    hypothesis = r_full <= r_half

    mu_zero = np.abs(mu_limit.weights) <= 1e-12
    conclusion = bool(np.all(np.abs(nu_limit.weights)[mu_zero] <= 1e-12))

    return AbsoluteContinuityReport(
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        violation=hypothesis and not conclusion,
        radius_full=r_full,
        radius_half=r_half,
        tail_radii=tuple(radii),
        tail_values=tuple(tail_values),
    )


@dataclass(frozen=True)
class BarycenterBoundRow:
    index: int
    seminorm: str
    barycenter_gap: float
    k_gap: float

    @property
    def bound_holds(self) -> bool:
        return self.barycenter_gap <= self.k_gap + 1e-9


@dataclass(frozen=True)
class BarycenterReport:
    rows: tuple[BarycenterBoundRow, ...]
    bound_holds: bool


def coordinate_seminorm_space(space: PseudometricSpace, coords: np.ndarray) -> PseudometricSpace:
    """``space``'s points and anchor with one pseudometric per coordinate of
    ``coords``, |x_c - y_c|; only the new metrics are validated."""
    metrics = {}
    for c in range(coords.shape[1]):
        col = coords[:, c]
        metrics[f"coord{c}"] = np.abs(col[:, None] - col[None, :])
    return PseudometricSpace(
        points=space.points, metrics=metrics, anchor=space.anchor, coords=coords
    )


def barycenter_convergence(seq: MeasureSequence) -> BarycenterReport:
    """Barycenter gaps against anchored seminorm gaps, coordinate by coordinate.

    Both sides are evaluated in anchor-centered coordinates, where coordinate
    functionals vanish at the anchor and the gap bound
    |m(mu_n - mu)_c| <= ||mu_n - mu||_{K, coord_c} applies.
    """
    limit = seq.require_limit()
    if seq.space.coords is None:
        raise ValueError("points carry no coordinates")
    centered = seq.space.coords - seq.space.coords[seq.space.anchor]
    aux = coordinate_seminorm_space(seq.space, centered)
    rows = []
    for idx, m in enumerate(seq.measures):
        delta_w = m.weights - limit.weights
        gap_vec = delta_w @ centered
        for c in range(centered.shape[1]):
            delta = SignedMeasure(aux, delta_w)
            kg = k_norm(delta, f"coord{c}")[0]
            rows.append(
                BarycenterBoundRow(
                    index=idx,
                    seminorm=f"coord{c}",
                    barycenter_gap=abs(float(gap_vec[c])),
                    k_gap=kg,
                )
            )
    return BarycenterReport(rows=tuple(rows), bound_holds=all(r.bound_holds for r in rows))
