"""Configuration-driven experiment runner.

One subcommand per experiment kind plus ``validate``; every run echoes its
config, dispatches to the owning module, writes a JSON report (and CSV curves
when present) named by the config hash, and exits 0/1/2/3 for success, check
failure, config parse error, input error.  Reports are append-only: an
existing file is never overwritten.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .convergence import (
    MeasureSequence,
    barycenter_convergence,
    check_tau_k_convergence,
    lipschitz_dictionary,
    weak_gap,
)
from .counterexamples import (
    DiscreteTailMember,
    GeometricTailMember,
    ScheduleInfeasibleError,
    family_tail_functions,
    l1_counterexample,
    rescaling_schedule,
    verify_counterexample,
    verify_schedule,
)
from .logconcave import (
    LogConcaveSpec,
    PolynomialSpec,
    check_borell,
    lp_equivalence_check,
    mean_convergence_experiment,
    polynomial_density_experiment,
    small_value_check,
)
from .measures import measure_from_dict, space_from_dict
from .reports import dump_json, write_curve_csv
from .stable import (
    StableSpec,
    stability_identity_check,
    stable_mean_convergence_experiment,
    stable_tail_check,
    tail_constants,
    validate_sampler,
)
from .transport import brute_force_dual, k_norm, kq_norm, kr_norm, wasserstein_q

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INPUT_ERROR = 3


class ConfigError(Exception):
    pass


class InputDataError(Exception):
    pass


def thread_limit() -> int:
    """Always 1: every run is serial.  Kept only because the benchmark's
    metadata records it; it goes with ``kernel_backend()`` and
    ``transport/_simplex.py`` in the next change to the benchmark."""
    return 1


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def validate_config(config) -> list[str]:
    """Diagnostics for a config document; empty means runnable."""
    diags: list[str] = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    kind = config.get("kind")
    if kind is None:
        diags.append("missing field: kind")
    elif not _known(kind, _RUNNERS):
        diags.append(f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    seed = config.get("seed")
    if seed is None:
        diags.append("missing field: seed")
    elif not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        diags.append("field seed must be an unsigned 64-bit integer")
    params = config.get("params")
    if params is None:
        diags.append("missing field: params")
    elif not isinstance(params, dict):
        diags.append("field params must be an object")
    elif _known(kind, _RUNNERS):
        diags.extend(f"{kind}: {d}" for d in _RUNNERS[kind].diagnose(params))
    return diags


def _known(name, table) -> bool:
    """Whether ``name`` is a key of ``table``; an unhashable name is not."""
    return isinstance(name, str) and name in table


def _missing(params, keys) -> list[str]:
    return [f"missing params.{key}" for key in keys if key not in params]


def _has_p(spec) -> bool:
    return isinstance(spec, dict) and "p" in spec


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _q_at_least_1(q) -> list[str]:
    # NaN fails q >= 1
    return [] if _real(q) and q >= 1 else ["params.q must be a real number >= 1"]


def _list_of(params, key, test, what) -> list[str]:
    """The diagnostic of an optional ``params[key]`` that is not a list of
    entries passing ``test``."""
    value = params.get(key, [])
    return [] if isinstance(value, list) and all(map(test, value)) else [f"params.{key} must be a list of {what}"]


class _Entry(NamedTuple):
    """One row of a dispatch table: what runs, and the diagnostics (without
    the kind's prefix) of what it needs from ``params``."""

    run: Callable
    diagnose: Callable[[dict], list[str]] = lambda params: []


def _load_json(path_or_doc, base: Path):
    if isinstance(path_or_doc, dict):
        return path_or_doc
    p = Path(path_or_doc)
    if not p.is_absolute():
        p = base / p
    try:
        with open(p, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputDataError(f"input file not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"input file is not valid JSON: {p}: {exc}") from exc


def _load_measure(doc, reuse=None):
    try:
        return measure_from_dict(doc, reuse)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Experiment dispatch: each kind, norms op and Monte-Carlo check is one key of
# a table.  An entry names its experiment functions in its body and never
# holds them, so whatever this module's globals hold when it runs is called,
# a tracer's wrapper included.
# ---------------------------------------------------------------------------

DEFAULT_OPS = ("kr", "k")


def _diagnose_norms(params):
    diags = []
    if "measure" not in params:
        diags.append("missing params.measure (path or inline document)")
    if "metric" not in params:
        diags.append("missing params.metric")
    ops = params.get("ops", DEFAULT_OPS)
    if not isinstance(ops, (list, tuple)):
        return diags + ["params.ops must be a list of op names"]
    bad = [op for op in ops if not _known(op, _NORM_OPS)]
    if bad:
        diags.append(f"unknown ops {bad}")
    runs = {_NORM_OPS.get(op) for op in ops if isinstance(op, str)}
    if runs & {_kq, _wq}:
        q = params.get("q")
        diags += ["missing params.q for kq/wq"] if q is None else _q_at_least_1(q)
    if _wq in runs and "other_measure" not in params:
        diags.append("missing params.other_measure for wq")
    return diags


def _witnessed(op, mu, metric, q, other):
    value, witness = globals()[f"{op}_norm"](mu, metric)
    witness.validate(mu)
    return {"name": op, "value": value, "verdict": "PASS"}, {f"{op}_witness": witness.values.tolist()}


def _kq(op, mu, metric, q, other):
    return {"name": f"{op}[q={q:g}]", "value": kq_norm(mu, metric, q), "verdict": "PASS"}, {}


def _wq(op, mu, metric, q, other):
    nu = other()
    value, coupling = wasserstein_q(mu, nu, metric, q)
    coupling.validate(mu, nu)
    return {"name": f"{op}[q={q:g}]", "value": value, "verdict": "PASS"}, {"coupling": coupling.matrix.tolist()}


def _oracle(op, mu, metric, q, other):
    return {"name": f"{op}_bounded", "value": brute_force_dual(mu, metric, "bounded"), "verdict": "PASS"}, {}


_NORM_OPS = {"kr": _witnessed, "k": _witnessed, "kq": _kq, "wq": _wq, "oracle": _oracle}


def _run_norms(params, seed, base):
    mu_doc = _load_json(params["measure"], base)
    mu = _load_measure(mu_doc)

    def other():
        # the other file usually repeats mu's space: parse and validate it once
        return _load_measure(_load_json(params["other_measure"], base), (mu.space, mu_doc))

    metric = params["metric"]
    q = float(params.get("q", 1.0))
    records = []
    payload = {}
    for op in params.get("ops", DEFAULT_OPS):
        record, entries = _NORM_OPS[op](op, mu, metric, q, other)
        records.append(record)
        payload.update(entries)
    return {"checks": records, "payload": payload, "passed": True}, {}


def _sequence_from_params(params, base) -> MeasureSequence:
    doc = _load_json(params["sequence"], base)
    try:
        space = space_from_dict(doc)
        seq_weights = doc["weights_sequence"]
        measures = tuple(space.measure([float(x) for x in row]) for row in seq_weights)
        limit = None
        if doc.get("limit_weights") is not None:
            limit = space.measure([float(x) for x in doc["limit_weights"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed sequence file: {exc}") from exc
    return MeasureSequence(space=space, measures=measures, limit=limit)


def _run_convergence(params, seed, base):
    seq = _sequence_from_params(params, base)
    q = float(params.get("q", 1.0))
    metrics = params.get("metrics")
    names = tuple(metrics) if metrics else seq.space.metric_names()
    report = check_tau_k_convergence(seq, metric_names=names, q=q)
    per_index = []
    for i in range(len(seq)):
        row = {"index": i}
        for rec in report.per_metric:
            row[rec.metric_name] = {"kr_gap": rec.kr_gaps[i], "k_gap": rec.k_gaps[i]}
        per_index.append(row)
    witnesses = []
    for rec in report.per_metric:
        witness = rec.last_k_witness  # None unless q = 1
        if witness is None:
            witness = k_norm(seq.measures[-1] - seq.require_limit(), rec.metric_name)[1]
        witnesses.append(
            {"metric": rec.metric_name, "index": len(seq) - 1, "potential": witness.values.tolist()}
        )
    out = {
        "verdict": report.verdict,
        "q": q,
        "per_index": per_index,
        "per_metric": [
            {
                "metric": rec.metric_name,
                "kr_gaps": list(rec.kr_gaps),
                "k_gaps": list(rec.k_gaps),
                "tail_radii": list(rec.tail.radii),
                "tail_values": list(rec.tail.values),
                "ui_holds": rec.ui_holds,
                "verdict": rec.verdict,
            }
            for rec in report.per_metric
        ],
        "tolerances": {"gap": report.tol},
        "witnesses": witnesses,
    }
    curves = {
        f"tail_{rec.metric_name}": (("radius", "tail"), list(zip(rec.tail.radii, rec.tail.values)))
        for rec in report.per_metric
    }
    checks = [{"name": f"tau_k[{rec.metric_name}]", "verdict": rec.verdict} for rec in report.per_metric]
    if params.get("weak_gap", False):
        name = report.per_metric[0].metric_name
        gaps = weak_gap(seq, lipschitz_dictionary(seq.space, name), bound=1.0)
        out["weak_gaps"] = gaps
    if params.get("barycenters", False):
        bary = barycenter_convergence(seq)
        out["barycenter_bound_holds"] = bary.bound_holds
        checks.append(
            {"name": "barycenter bound", "verdict": "PASS" if bary.bound_holds else "FAIL"}
        )
    passed = report.verdict != "VIOLATION" and all(c["verdict"] != "FAIL" for c in checks)
    return {"checks": checks, "payload": out, "passed": passed}, curves


def _run_counterexample(params, seed, base):
    matrix = params["matrix"]
    if isinstance(matrix, str):
        matrix = _load_json(matrix, base)
    eps = float(params.get("epsilon", 1e-6))
    try:
        inst = l1_counterexample(matrix, eps=eps)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc
    report = verify_counterexample(inst, eps)
    checks = [{"name": k, "verdict": "PASS" if ok else "FAIL"} for k, ok in report["checks"].items()]
    payload = dict(report)
    payload["c"] = inst.c.tolist()
    return {"checks": checks, "payload": payload, "passed": report["passed"]}, {}


def _schedule_family(params):
    fam = params["family"]
    if fam == "geometric":
        return [GeometricTailMember()]
    if isinstance(fam, dict) and "weights" in fam:
        return [DiscreteTailMember(fam["weights"], fam["values"])]
    if isinstance(fam, list):
        return [DiscreteTailMember(m["weights"], m["values"]) for m in fam]
    raise InputDataError(f"unrecognized schedule family {fam!r}")


def _one_check(name, passed, payload):
    """A result of one named check, without curves."""
    checks = [{"name": name, "verdict": "PASS" if passed else "FAIL"}]
    return {"checks": checks, "payload": payload, "passed": passed}, {}


def _sampled_tails(tail_docs):
    """Tail functions from sampled (radius, value) pairs, held constant
    between samples (nonincreasing step interpolation)."""
    by_n = {}
    for doc in tail_docs:
        samples = sorted((float(m), float(v)) for m, v in doc["samples"])
        by_n[int(doc["n"])] = samples

    def make(samples):
        def T(m: float) -> float:
            best = math.inf
            for radius, value in samples:
                if radius <= m:
                    best = value
                else:
                    break
            return best

        return T

    return [make(by_n[n]) for n in sorted(by_n)]


def _run_schedule(params, seed, base):
    # sampled tail functions: construct the schedule only, no certificates
    sampled = "tails" in params and "family" not in params
    if sampled:
        tails = _sampled_tails(params["tails"])
    else:
        family = _schedule_family(params)
        tails = family_tail_functions(family, int(params.get("depth", 8)))
    horizon = int(params.get("horizon", 10**5))
    try:
        sched = rescaling_schedule(tails, horizon=horizon)
    except ScheduleInfeasibleError as exc:
        return _one_check("schedule construction", False, {"error": str(exc), "infeasible_at": exc.n})
    if sampled:
        payload = {"boundaries": list(sched.boundaries), "certificates": "skipped (no family evaluators)"}
        return _one_check("schedule construction", True, payload)
    verify_h = int(params.get("verify_horizon", min(horizon, sched.max_index)))
    report = verify_schedule(sched, family, horizon=verify_h, n_max=params.get("n_max"))
    checks = [
        {
            "name": f"block {c.n}",
            "verdict": "PASS" if c.passed else "FAIL",
            "tail_mass_sum": c.tail_mass_sum,
            "tail_mass_bound": c.tail_mass_bound,
            "scaled_integral_sup": c.scaled_integral_sup,
            "scaled_integral_bound": c.scaled_integral_bound,
        }
        for c in report.certificates
    ]
    payload = {
        "boundaries": list(sched.boundaries),
        "invariant_violations": list(report.invariant_violations),
        "horizon": report.horizon,
    }
    return {"checks": checks, "payload": payload, "passed": report.passed}, {}


def _logconcave_spec(doc) -> LogConcaveSpec:
    fam = doc.get("family")
    try:
        if fam == "gaussian":
            return LogConcaveSpec.gaussian(doc["mean"], doc["cov"])
        if fam == "uniform_box":
            return LogConcaveSpec.uniform_box(doc["lo"], doc["hi"])
        if fam == "uniform_simplex":
            return LogConcaveSpec.uniform_simplex(int(doc["dim"]))
        if fam == "product_exponential":
            return LogConcaveSpec.product_exponential(doc["rates"])
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"bad log-concave spec: {exc}") from exc
    raise InputDataError(f"unknown log-concave family {fam!r}")


def _poly_from(doc) -> PolynomialSpec:
    if "coeffs_1d" in doc:
        return PolynomialSpec.from_1d_coeffs(doc["coeffs_1d"])
    return PolynomialSpec(int(doc["degree"]), {tuple(k): v for k, v in doc["terms"]})


def _report_to_result(report):
    checks = [
        {
            "name": c.name,
            "estimate": c.estimate,
            "half_width": c.half_width,
            "bound": c.bound,
            "verdict": ("EXPECTED_FAIL" if c.expected_failure and not c.passed else ("PASS" if c.passed else "FAIL")),
        }
        for c in report.checks
    ]
    curves = {
        name: (tuple(f"c{i}" for i in range(len(rows[0]))), rows) if rows else ((), rows)
        for name, rows in report.curves.items()
    }
    return (
        {
            "checks": checks,
            "payload": {"extras": report.extras, "name": report.name},
            "passed": report.passed,
        },
        curves,
    )


def _borell(params, n, seed):
    return check_borell(
        _logconcave_spec(params["spec"]),
        params.get("q", "abs"),
        float(params["c"]),
        [float(t) for t in params.get("ts", [1.0, 2.0, 4.0])],
        n=n,
        seed=seed,
    )


def _small_value(params, n, seed):
    spec = _logconcave_spec(params["spec"])
    rs = params.get("rs")
    return small_value_check(
        spec,
        _poly_from(params["poly"]),
        rs=[float(r) for r in rs] if rs else None,
        n=n,
        seed=seed,
    )


def _lp_equivalence(params, n, seed):
    spec = _logconcave_spec(params["spec"])
    polys = [_poly_from(d) for d in params["polys"]]
    return lp_equivalence_check(
        spec, polys, ps=[float(p) for p in params.get("ps", [2.0, 4.0])], n=n, seed=seed
    )


def _logconcave_sequence(params, n, seed):
    specs = [_logconcave_spec(d) for d in params["specs"]]
    limit = _logconcave_spec(params["limit"])
    return mean_convergence_experiment(
        specs, limit, qs=params.get("qs", ["l2"]), n=n, seed=seed
    )


def _polynomial_density(params, n, seed):
    specs = [_logconcave_spec(d) for d in params["specs"]]
    densities = [_poly_from(d) for d in params["densities"]]
    return polynomial_density_experiment(
        specs, densities, params["limit_barycenter"], n=n, seed=seed
    )


_LOGCONCAVE_CHECKS = {
    "borell": _Entry(_borell, lambda params: _list_of(params, "ts", _real, "real numbers")),
    "small_value": _Entry(_small_value),
    "lp_equivalence": _Entry(_lp_equivalence),
    "mean_convergence": _Entry(_logconcave_sequence),
    "polynomial_density": _Entry(_polynomial_density),
}


def _stable_spec(doc) -> StableSpec:
    try:
        return StableSpec(
            p=float(doc["p"]),
            b=float(doc.get("b", 0.0)),
            c=float(doc.get("c", 1.0)),
            a=float(doc.get("a", 0.0)),
            dim=int(doc.get("dim", 1)),
        )
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"bad stable spec: {exc}") from exc


def _needs_spec(params):
    return [] if _has_p(params.get("spec")) else ["missing params.spec.p"]


def _diagnose_stable_sequence(params):
    diags = []
    specs = params.get("specs")
    if not isinstance(specs, list) or not specs or not all(map(_has_p, specs)):
        diags.append("missing params.specs (a non-empty list of specs with p)")
    if not _has_p(params.get("limit")):
        diags.append("missing params.limit.p")
    return diags


def _cf(params, n, seed):
    return validate_sampler(_stable_spec(params["spec"]), n=n, seed=seed)


def _tail(params, n, seed):
    return stable_tail_check(
        _stable_spec(params["spec"]), p1=float(params["p1"]), n=n, seed=seed,
        delta=float(params.get("delta", 0.8)),
    )


def _constants(params, n, seed):
    """The closed-form constants: already a (result, curves) pair."""
    tc = tail_constants(float(params["delta"]), float(params["p"]))
    keys = ("delta", "p", "k", "rho", "beta", "log_coefficient")
    return _one_check("tail constants", True, {key: getattr(tc, key) for key in keys})


def _identity(params, n, seed):
    return stability_identity_check(_stable_spec(params["spec"]), n=n, seed=seed)


def _stable_sequence(params, n, seed):
    specs = [_stable_spec(d) for d in params["specs"]]
    limit = _stable_spec(params["limit"])
    return stable_mean_convergence_experiment(specs, limit, n=n, seed=seed)


_STABLE_CHECKS = {
    "cf": _Entry(_cf, _needs_spec),
    "tail": _Entry(_tail, lambda params: _needs_spec(params) or _missing(params, ("p1",))),
    "constants": _Entry(_constants, lambda params: _missing(params, ("delta", "p"))),
    "identity": _Entry(_identity, _needs_spec),
    "mean_convergence": _Entry(_stable_sequence, _diagnose_stable_sequence),
}


def _checks(table) -> _Entry:
    """A Monte-Carlo kind: ``params.check`` names the entry of ``table`` to run."""

    def run(params, seed, base):
        report = table[params["check"]].run(params, int(params.get("n", 10**5)), seed)
        return report if isinstance(report, tuple) else _report_to_result(report)

    def diagnose(params):
        check = params.get("check")
        return table[check].diagnose(params) if _known(check, table) else [f"unknown or missing check {check!r}"]

    return _Entry(run, diagnose)


_RUNNERS = {
    "norms": _Entry(_run_norms, _diagnose_norms),
    "convergence": _Entry(
        _run_convergence,
        lambda params: _missing(params, ("sequence",))
        + _q_at_least_1(params.get("q", 1.0))
        + _list_of(params, "metrics", lambda name: isinstance(name, str), "metric names"),
    ),
    "counterexample": _Entry(_run_counterexample, lambda params: _missing(params, ("matrix",))),
    "schedule": _Entry(
        _run_schedule,
        lambda params: [] if "family" in params or "tails" in params else ["missing params.family (or params.tails)"],
    ),
    "logconcave": _checks(_LOGCONCAVE_CHECKS),
    "stable": _checks(_STABLE_CHECKS),
}

KINDS = tuple(_RUNNERS)


def config_hash(config) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _fresh_path(directory: Path, stem: str, suffix: str) -> Path:
    """First free name of ``stem``, ``stem-2``, ... reserved by creating it
    exclusively, so concurrent runs never write to the same file."""
    k = 1
    path = directory / f"{stem}{suffix}"
    while True:
        try:
            open(path, "x").close()
            return path
        except FileExistsError:
            k += 1
            path = directory / f"{stem}-{k}{suffix}"


def run(config, base: Path | None = None) -> tuple[int, dict, Path | None]:
    """Execute a config document; returns (exit code, report, report path)."""
    base = base or Path.cwd()
    diags = validate_config(config)
    if diags:
        raise ConfigError("; ".join(diags))
    kind = config["kind"]
    seed = config["seed"]
    out_dir = Path(config.get("out", "reports"))
    if not out_dir.is_absolute():
        out_dir = base / out_dir

    started = time.perf_counter()
    result, curves = _RUNNERS[kind].run(config["params"], seed, base)
    wall = time.perf_counter() - started

    report = {
        "config": config,
        "tool_version": __version__,
        "kind": kind,
        "seed": seed,
        "checks": result["checks"],
        "payload": result["payload"],
        "overall_verdict": "PASS" if result["passed"] else "FAIL",
        "wall_clock_s": wall,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{kind}-{config_hash(config)}"
    path = _fresh_path(out_dir, stem, ".json")
    dump_json(report, path)
    for name, (header, rows) in curves.items():
        if rows:
            write_curve_csv(_fresh_path(out_dir, f"{stem}-{name}", ".csv"), header, rows)
    return (EXIT_OK if result["passed"] else EXIT_CHECK_FAILED), report, path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kantorovich-lab",
        description="Seminorm, convergence, counterexample and sampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS + ("validate",):
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        if kind != "validate":
            sp.add_argument("--seed", type=int, default=None, help="override the config seed")
            sp.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "validate":
        print(json.dumps(validate_config(config), indent=2))
        return EXIT_OK

    try:
        if isinstance(config, dict):  # run diagnoses anything else
            if config.get("kind") not in (None, args.command):
                raise ConfigError(f"config kind {config.get('kind')!r} does not match subcommand {args.command!r}")
            config["kind"] = args.command
            if args.seed is not None:
                config["seed"] = args.seed
            if args.out is not None:
                config["out"] = args.out
        code, report, path = run(config, base=Path(args.config).resolve().parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (InputDataError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    for check in report["checks"]:
        verdict = check.get("verdict", "PASS")
        print(f"{check['name']}: {verdict}")
    print(f"overall: {report['overall_verdict']} ({path})")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
