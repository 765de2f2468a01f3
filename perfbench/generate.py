"""Generate one workload's input files, configs and reference answers.

    python3 perfbench/generate.py --workload NAME --seed N --dir DIR --src SRC

``SRC`` is the package's source directory (the montecarlo references rebuild
the program's draws with its sampler).  Writes measure/sequence/matrix files and ``jobs.json`` into DIR.  ``jobs.json``
holds the fixed config list of the workload, one small warm-up job per job
shape, and for every job the outcome it must produce: exit code, check
verdicts, and reference values from ``reference.py``.  The benchmark runs this
in a child process before anything is timed, so neither the generation nor the
HiGHS references (nor their memory) count towards the measured figures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

WORKLOADS = ("convergence_dense", "coupling_flow", "montecarlo")

#: Mass scales of the coupling_flow jobs.  The flow route has a known
#: mass-scale defect (ROADMAP item 1: absolute constants in the
#: transportation simplex): at 1e-12 and 1e-8 wq is wrong or raises on every
#: seed tried, and at 1e6 kq raises IndexError on about half of all instances.
#: 1e-6 and 1e-4 fail on some seeds and are left out (see README.md).
FLOW_SCALES = (1e-12, 1e-8, 1e-2, 1.0, 1e3, 1e6)


def known_defect(scale: float) -> bool:
    """Whether a flow-route job at this mass scale is in the known defect
    class: it is attempted, verified and counted as failed like any other
    job, but its failure does not make the run's ``correct`` flag false."""
    return scale <= 1e-8 or scale >= 1e6


def _dec(x) -> str:
    return repr(float(x))


def _space_doc(coords: np.ndarray, metrics: dict, anchor: int) -> dict:
    n = len(coords)
    return {
        "points": [f"x{i}" for i in range(n)],
        "coords": [[_dec(v) for v in row] for row in coords],
        "metrics": {name: [[_dec(v) for v in row] for row in m] for name, m in metrics.items()},
        "anchor": int(anchor),
    }


def _euclid(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _manhattan(coords: np.ndarray) -> np.ndarray:
    return np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=-1)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return path.name


def _all_pass(n_checks: int | None = None) -> dict:
    out = {"exit": 0, "verdicts": "PASS"}
    if n_checks is not None:
        out["n_checks"] = n_checks
    return out


# ---------------------------------------------------------------------------
# convergence_dense: dense Bland simplex (kr/k with witnesses) and the oracle
# ---------------------------------------------------------------------------

CONV_POINTS = 64
CONV_SEQUENCES = 3
CONV_MEASURES = 16
CONV_DIFF_ATOMS = 24
CONV_LIMIT_ATOMS = 16
NORMS_ATOMS = (3, 4)  # positive, negative atoms: oracle tree shape K_{4,5}
NORMS_JOBS = 3
CX_SHAPE = (40, 41)


def _norms_expect(d, w, anchor, ops) -> dict:
    values = {}
    if "kr" in ops:
        values["kr"] = reference.bounded_value(d, w)
    if "k" in ops:
        values["k"] = reference.anchored_value(d, w, anchor)
    if "oracle" in ops:
        values["oracle_bounded"] = reference.bounded_value(d, w)
    return {"exit": 0, "verdicts": "PASS", "values": values}


def _sequence(rng, n, metrics, coords, anchor, n_measures, diff_atoms, limit_atoms, decay=0.25):
    # The limit carries the point farthest from the anchor under each metric,
    # so every measure has mass there, the tail profile of the half prefix and
    # of the full prefix clear at the same radius, and the uniform-
    # integrability verdict is PASS by construction.
    far = {int(np.argmax(d[:, anchor])) for d in metrics.values()}
    rest = rng.permutation([i for i in range(n) if i not in far])[: limit_atoms - len(far)]
    limit = np.zeros(n)
    limit[sorted(far) + sorted(int(i) for i in rest)] = rng.dirichlet(np.ones(limit_atoms))
    rows = []
    for i in range(n_measures):
        nu = np.zeros(n)
        atoms = rng.choice(n, diff_atoms, replace=False)
        nu[atoms] = rng.standard_normal(diff_atoms)
        nu /= np.abs(nu).sum()
        rows.append(limit + decay**i * nu)
    doc = _space_doc(coords, metrics, anchor)
    doc["weights_sequence"] = [[_dec(v) for v in row] for row in rows]
    doc["limit_weights"] = [_dec(v) for v in limit]
    return doc, rows, limit


def _two_metric_space(rng, n):
    coords = rng.uniform(-4.0, 4.0, size=(n, 2))
    return coords, {"euclid": _euclid(coords), "manhattan": _manhattan(coords)}, int(rng.integers(n))


def _convergence_dense(rng, out: Path) -> tuple[list, list]:
    n = CONV_POINTS
    jobs = []

    for j in range(CONV_SEQUENCES):
        # each sequence on a space of its own, so a pass covers as many
        # independent instances as it has sequences
        coords, metrics, anchor = _two_metric_space(rng, n)
        verdicts = {f"tau_k[{name}]": "PASS" for name in metrics}
        verdicts["barycenter bound"] = "PASS"
        doc, rows, limit = _sequence(
            rng, n, metrics, coords, anchor, CONV_MEASURES, CONV_DIFF_ATOMS, CONV_LIMIT_ATOMS
        )
        deltas = [row - limit for row in rows]
        gaps = {
            name: {
                "kr": [reference.bounded_value(d, w) for w in deltas],
                "k": [reference.anchored_value(d, w, anchor) for w in deltas],
            }
            for name, d in metrics.items()
        }
        jobs.append({
            "name": f"convergence{j}",
            "config": {
                "kind": "convergence",
                "seed": int(rng.integers(2**32)),
                "params": {"sequence": _write(out / f"sequence{j}.json", doc), "q": 1.0,
                           "barycenters": True},
            },
            "expect": {"exit": 0, "verdicts": verdicts, "gaps": gaps},
        })

    n_pos, n_neg = NORMS_ATOMS
    for j in range(NORMS_JOBS):
        w = np.zeros(n)
        atoms = rng.choice(n, n_pos + n_neg, replace=False)
        w[atoms[:n_pos]] = rng.uniform(0.1, 1.0, n_pos)
        w[atoms[n_pos:]] = -rng.uniform(0.1, 1.0, n_neg)
        name = ("euclid", "manhattan")[j % 2]
        mdoc = _space_doc(coords, metrics, anchor)
        mdoc["weights"] = [_dec(v) for v in w]
        ops = ["kr", "k", "oracle"]
        jobs.append({
            "name": f"norms{j}",
            "config": {
                "kind": "norms",
                "seed": int(rng.integers(2**32)),
                "params": {"measure": _write(out / f"norms{j}.json", mdoc), "metric": name, "ops": ops},
            },
            "expect": _norms_expect(metrics[name], w, anchor, ops),
            "measure": f"norms{j}.json",
            "metric": name,
        })

    F = rng.standard_normal(CX_SHAPE)
    jobs.append({
        "name": "counterexample",
        "config": {
            "kind": "counterexample",
            "seed": int(rng.integers(2**32)),
            "params": {"matrix": _write(out / "matrix.json", F.tolist()), "epsilon": 1e-6},
        },
        "expect": {"exit": 0, "verdicts": "PASS", "n_checks": 3},
    })
    jobs.append({
        "name": "schedule",
        "config": {
            "kind": "schedule",
            "seed": int(rng.integers(2**32)),
            "params": {"family": "geometric", "depth": 8, "n_max": 6},
        },
        "expect": {"exit": 0, "verdicts": "PASS", "n_checks": 6},
    })

    # warm-up jobs: the same shapes on small inputs; the norms warm-up keeps
    # the 3/4 sign split so it builds the oracle's K_{4,5} tree table
    wn = 8
    wcoords = rng.uniform(-4.0, 4.0, size=(wn, 2))
    wmetrics = {"euclid": _euclid(wcoords), "manhattan": _manhattan(wcoords)}
    wdoc, _, _ = _sequence(rng, wn, wmetrics, wcoords, 0, 4, 4, 2, decay=1e-4)
    ww = np.zeros(wn)
    ww[:n_pos] = 0.5
    ww[n_pos:n_pos + n_neg] = -0.25
    wmdoc = _space_doc(wcoords, wmetrics, 0)
    wmdoc["weights"] = [_dec(v) for v in ww]
    warmups = [
        {"name": "warmup-convergence", "config": {
            "kind": "convergence", "seed": 1,
            "params": {"sequence": _write(out / "warm_sequence.json", wdoc), "q": 1.0, "barycenters": True}}},
        {"name": "warmup-norms", "config": {
            "kind": "norms", "seed": 1,
            "params": {"measure": _write(out / "warm_norms.json", wmdoc), "metric": "euclid",
                       "ops": ["kr", "k", "oracle"]}}},
        {"name": "warmup-counterexample", "config": {
            "kind": "counterexample", "seed": 1, "params": {"matrix": [[2.0, 1.0]], "epsilon": 1e-6}}},
        {"name": "warmup-schedule", "config": {
            "kind": "schedule", "seed": 1, "params": {"family": "geometric", "depth": 4, "n_max": 2}}},
    ]
    return jobs, warmups


# ---------------------------------------------------------------------------
# coupling_flow: parsing, large-space validation, transportation simplex
# ---------------------------------------------------------------------------

#: (support size, mass scale) of every job in a pass.  The mass-scale sweep
#: runs at n = 64, six jobs per scale except two at 1e6: there kq fails on
#: about half of all instances, a coin flip per instance, and the spread of
#: the failure count across seeds grows with the number of such jobs.  The
#: long n = 128 and n = 256 solves sit at scales whose outcome does not
#: depend on the seed, so they time the same code path on every seed.
FLOW_SCALE_JOBS = {1e6: 2}
FLOW_JOBS = tuple(
    (64, s) for rep in range(6) for s in FLOW_SCALES if rep < FLOW_SCALE_JOBS.get(s, 6)
) + ((128, 1e-2), (256, 1.0))
FLOW_Q = 2.0


def _flow_pair(rng, n, scale):
    coords = rng.uniform(-4.0, 4.0, size=(n, 2))
    d = _euclid(coords)
    anchor = int(rng.integers(n))
    a = scale * rng.dirichlet(np.ones(n))
    b = scale * rng.dirichlet(np.ones(n))
    # equal total masses (the coupling LP needs them within 1e-9)
    b[-1] = math.fsum(a.tolist()) - math.fsum(b[:-1].tolist())
    if b[-1] <= 0:
        raise RuntimeError("generated marginal is not positive")
    return coords, d, anchor, a, b


def _flow_job(rng, out: Path, tag: str, n: int, scale: float) -> dict:
    coords, d, anchor, a, b = _flow_pair(rng, n, scale)
    mu = _space_doc(coords, {"d": d}, anchor)
    mu["weights"] = [_dec(v) for v in a]
    nu = _space_doc(coords, {"d": d}, anchor)
    nu["weights"] = [_dec(v) for v in b]
    q = FLOW_Q
    return {
        "name": tag,
        "scale": scale,
        "known_defect": known_defect(scale),
        "config": {
            "kind": "norms",
            "seed": int(rng.integers(2**32)),
            "params": {
                "measure": _write(out / f"{tag}_mu.json", mu),
                "other_measure": _write(out / f"{tag}_nu.json", nu),
                "metric": "d",
                "ops": ["kq", "wq"],
                "q": q,
            },
        },
        "expect": {
            "exit": 0,
            "verdicts": "PASS",
            "values": {
                f"kq[q={q:g}]": reference.moment_value(d, a, anchor, q),
                f"wq[q={q:g}]": reference.coupling_value(d, a, b, q),
            },
        },
        "measure": f"{tag}_mu.json",
        "other_measure": f"{tag}_nu.json",
        "metric": "d",
    }


def _coupling_flow(rng, out: Path) -> tuple[list, list]:
    jobs = [_flow_job(rng, out, f"flow{n}-{j}", n, scale)
            for j, (n, scale) in enumerate(FLOW_JOBS)]
    # the warm-up is one job of the workload's single shape at its smallest
    # size, so set-up time is not dominated by the package import alone
    warm = _flow_job(rng, out, "warmup", 64, 1.0)
    warmups = [{"name": "warmup-norms", "config": warm["config"]}]
    return jobs, warmups


# ---------------------------------------------------------------------------
# montecarlo: sampling, quantile binning, many small line transport problems
# ---------------------------------------------------------------------------

MC_STABLE_SPECS = 16
MC_STABLE_N = 10**5
MC_BINS = 64  # the stable experiment's default
MC_LARGE_N = 10**6


def _gaussian(rng, dim):
    A = rng.standard_normal((dim, dim))
    cov = A @ A.T / dim + 0.2 * np.eye(dim)
    return {"family": "gaussian", "mean": rng.uniform(-1, 1, dim).tolist(), "cov": cov.tolist()}


def _stable_gap_references(specs, limit, seed, q):
    """HiGHS values of the discretized moment-weighted gaps the stable
    mean-convergence experiment reports, rebuilt from the same draws."""
    from kantorovich_lab.reports import content_seed
    from kantorovich_lab.stable import StableSpec, sample_stable

    def draws(doc):
        s = StableSpec(p=doc["p"], b=doc["b"], c=doc["c"], a=doc["a"], dim=1)
        return sample_stable(s, MC_STABLE_N, content_seed(seed, s.p, s.b, s.c, s.a, s.dim))[:, 0]

    def binned(values):
        qs = np.quantile(values, np.linspace(0.0, 1.0, MC_BINS + 1))
        idx = np.clip(np.searchsorted(qs, values, side="right") - 1, 0, MC_BINS - 1)
        atoms = np.empty(MC_BINS)
        weights = np.empty(MC_BINS)
        for b in range(MC_BINS):
            sel = values[idx == b]
            atoms[b] = float(sel.mean()) if len(sel) else qs[b]
            weights[b] = len(sel) / len(values)
        return atoms, weights

    ay, wy = binned(draws(limit))
    out = []
    for doc in specs:
        ax, wx = binned(draws(doc))
        pts = np.concatenate([[0.0], ax, ay])
        d = np.abs(pts[:, None] - pts[None, :])
        out.append(reference.moment_value(d, np.concatenate([[0.0], wx, -wy]), 0, q))
    return out


def _montecarlo(rng, out: Path) -> tuple[list, list]:
    jobs = []
    p_lim = float(rng.uniform(1.6, 1.9))
    b_lim = float(rng.uniform(-0.5, 0.5))
    limit = {"p": p_lim, "b": b_lim, "c": 1.0, "a": 0.0}
    specs = []
    for i in range(MC_STABLE_SPECS):
        t = 1.0 - i / (MC_STABLE_SPECS - 1)  # the last spec is the limit law itself
        specs.append({
            "p": p_lim - 0.3 * t,
            "b": b_lim * (1.0 - t),
            "c": 1.0 + 0.5 * t,
            "a": 0.5 * t,
        })
    seed = int(rng.integers(2**32))
    p1 = min(s["p"] for s in specs)
    q = (1.0 + p1) / 2.0
    jobs.append({
        "name": "stable-mean",
        "config": {
            "kind": "stable",
            "seed": seed,
            # params.spec is a placeholder: validate_config demands it for
            # every stable check except constants, mean_convergence included
            "params": {"check": "mean_convergence", "spec": {"p": p_lim}, "specs": specs,
                       "limit": limit, "n": MC_STABLE_N},
        },
        "expect": {"exit": 0, "verdicts": "PASS", "n_checks": 2,
                   "k_gaps": _stable_gap_references(specs, limit, seed, q)},
    })
    p = float(rng.uniform(1.55, 1.9))
    jobs.append({
        "name": "stable-tail",
        "config": {
            "kind": "stable",
            "seed": int(rng.integers(2**32)),
            "params": {"check": "tail", "spec": {"p": p, "b": float(rng.uniform(-0.5, 0.5))},
                       "p1": p - 0.4, "n": MC_LARGE_N},
        },
        "expect": _all_pass(),
    })
    spec = _gaussian(rng, 3)
    # sublevel scale at the 80% quantile, from draws independent of the program's
    probe = rng.multivariate_normal(spec["mean"], spec["cov"], size=10**5)
    c = float(np.quantile(np.sqrt((probe * probe).sum(axis=1)), 0.8))
    ts = [1.0, 1.5, 2.0, 3.0]
    jobs.append({
        "name": "logconcave-borell",
        "config": {
            "kind": "logconcave",
            "seed": int(rng.integers(2**32)),
            "params": {"check": "borell", "spec": spec, "q": "l2", "c": c, "ts": ts, "n": MC_LARGE_N},
        },
        "expect": _all_pass(len(ts)),
    })
    lim = _gaussian(rng, 2)
    seq = []
    for i in range(4):
        t = 1.0 - i / 3.0  # the last spec is the limit law itself
        seq.append({"family": "gaussian",
                    "mean": [m + 0.5 * t for m in lim["mean"]],
                    "cov": (np.asarray(lim["cov"]) * (1.0 + 0.5 * t)).tolist()})
    jobs.append({
        "name": "logconcave-mean",
        "config": {
            "kind": "logconcave",
            "seed": int(rng.integers(2**32)),
            "params": {"check": "mean_convergence", "specs": seq, "limit": lim, "qs": ["l2"],
                       "n": MC_LARGE_N},
        },
        "expect": _all_pass(),
    })

    # warm-up jobs: each shape at its full sample size (so sample buffers of
    # that size have been allocated once), with the sequences cut to two laws
    warmups = []
    for job in jobs:
        cfg = json.loads(json.dumps(job["config"]))
        if "specs" in cfg["params"]:
            cfg["params"]["specs"] = cfg["params"]["specs"][-2:]
        warmups.append({"name": f"warmup-{job['name']}", "config": cfg})
    return jobs, warmups


GENERATORS = {
    "convergence_dense": _convergence_dense,
    "coupling_flow": _coupling_flow,
    "montecarlo": _montecarlo,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    jobs, warmups = GENERATORS[workload](rng, out)
    for job in jobs + warmups:
        job["config"]["out"] = f"reports/{job['name']}"
    doc = {"workload": workload, "seed": seed, "jobs": jobs, "warmups": warmups}
    _write(out / "jobs.json", doc)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--src", required=True, type=Path, help="the package's source directory")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))
    generate(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
