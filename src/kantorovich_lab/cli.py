"""Configuration-driven experiment runner.

One subcommand per experiment kind plus ``validate``; every run echoes its
config, dispatches to the owning module, writes a JSON report (and CSV curves
when present) named by the config hash, and exits 0/1/2/3 for success, check
failure, a config fault, a fault in an input document.  Reports are
append-only: an existing file is never overwritten.
"""

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import __version__
from .measures import measure_from_dict, space_from_dict
from .reports import dump_json, write_curve_csv
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
# Experiment modules.  ``norms`` calls only ``measures`` and ``transport``;
# each other kind calls one experiment module, which is loaded, and whose
# names below are bound into this module's globals, when the first config of
# the kind is validated or run.  A name already bound is never replaced, so a
# binding patched in earlier (a test's stub) stays.  ``__getattr__`` binds a
# name for a caller outside this module.
#
# Binding copies what the module holds at that moment.  A span tracer
# (``perfbench/tracer.py``) replaces a function at every binding it finds and
# puts the original back when it uninstalls, so a name first bound while a
# tracer was installed would keep the wrapper.  That cannot happen in the
# benchmark: its timed run installs no tracer, and its traced run, which
# installs one before the warm-up, reads each experiment module through the
# package's ``__getattr__``, which binds this module's names from it before
# the tracer patches anything.
# ---------------------------------------------------------------------------

_LAZY = {
    "convergence": ("MeasureSequence", "barycenter_convergence", "check_tau_k_convergence",
                    "lipschitz_dictionary", "weak_gap"),
    "counterexamples": ("DiscreteTailMember", "GeometricTailMember", "ScheduleInfeasibleError",
                        "family_tail_functions", "l1_counterexample", "rescaling_schedule",
                        "verify_counterexample", "verify_schedule"),
    "logconcave": ("SEMINORMS", "LogConcaveSpec", "PolynomialSpec", "check_borell", "lp_equivalence_check",
                   "mean_convergence_experiment", "polynomial_density_experiment", "small_value_check"),
    "stable": ("MEAN_BLOCKS", "StableSpec", "stability_identity_check", "stable_mean_convergence_experiment",
               "stable_tail_check", "tail_constants", "validate_sampler"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def _bind(module_name) -> None:
    """Bind the names of experiment module ``module_name`` that are not bound
    here yet, loading it if need be; any other name (``None`` for ``norms``)
    binds nothing."""
    bound = globals()
    missing = [name for name in _LAZY.get(module_name, ()) if name not in bound]
    if missing:
        module = importlib.import_module(f"{__package__}.{module_name}")
        bound.update((name, getattr(module, name)) for name in missing)


def __getattr__(name):
    """A lazily bound name, bound on first access (PEP 562)."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_OWNER[name])
    return globals()[name]


# ---------------------------------------------------------------------------
# Config schema.  A runner declares its ``params`` fields as its keyword-only
# parameters: the annotation names the field's type in ``_TYPES``, and the
# default, if any, is the field's default.  ``validate_config`` checks every
# field from these declarations, and a runner is called with the fields that
# ``params`` holds, read by their types.  Unknown keys are ignored.
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
    else:
        _bind(_MODULE_OF.get(kind))
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
        diags.extend(f"{kind}: {d}" for d in _diagnose(_RUNNERS[kind], params))
    return diags


def _known(name, table) -> bool:
    """Whether ``name`` is a key of ``table``; an unhashable name is not."""
    return isinstance(name, str) and name in table


def _real(value) -> bool:
    """A finite number; JSON's ``true`` and ``false`` are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is(*types):
    return lambda value: isinstance(value, types)


def _list_of(test):
    """The test of a non-empty list whose entries all pass ``test``."""
    return lambda value: isinstance(value, list) and len(value) > 0 and all(map(test, value))


def _has_p(spec) -> bool:
    return isinstance(spec, dict) and "p" in spec


class _Type(NamedTuple):
    """A field type: the test of a JSON value, the diagnostic of a value that
    fails it and that of a required field left out (each formatted with the
    field's name), and what the runner gets for a value that passes.  The
    diagnostic of a value that must be one of some ``names`` ends with them,
    read when it is formatted."""

    test: Callable[[object], bool]
    diagnostic: str
    read: Callable = lambda value: value
    missing: str = "missing params.{}"
    names: Callable[[], Iterable[str]] = tuple

    @property
    def wrong(self) -> str:
        return self.diagnostic + ", ".join(self.names())


def _seminorms():
    """logconcave's seminorm names; reading them loads logconcave."""
    _bind("logconcave")
    return SEMINORMS


def _seminorm(value) -> bool:
    return _known(value, _seminorms())


_LAWS = "missing params.{} (a non-empty list of specs with p)"

_TYPES = {
    "real": _Type(_real, "params.{} must be a real number", float),
    "q": _Type(lambda v: _real(v) and v >= 1, "params.{} must be a real number >= 1", float),
    "count": _Type(lambda v: _real(v) and v >= 1 and v % 1 == 0, "params.{} must be a positive integer", int),
    "reals": _Type(_list_of(_real), "params.{} must be a list of real numbers"),
    "flag": _Type(_is(bool), "params.{} must be true or false"),
    "name": _Type(_is(str), "params.{} must be a name"),
    "metrics": _Type(_list_of(_is(str)), "params.{} must be a list of metric names"),
    "ops": _Type(_list_of(lambda op: True), "params.{} must be a list of op names"),
    "seminorm": _Type(_seminorm, "params.{} must be one of ", names=_seminorms),
    "seminorms": _Type(_list_of(_seminorm), "params.{} must be a list of names from ", names=_seminorms),
    "doc": _Type(_is(str, dict), "params.{} must be a path or an object"),
    "object": _Type(_is(dict), "params.{} must be an object"),
    "objects": _Type(_list_of(_is(dict)), "params.{} must be a list of objects"),
    "matrix": _Type(lambda v: isinstance(v, str) or _list_of(_list_of(_real))(v),
                    "params.{} must be a path or a list of rows of real numbers"),
    "family": _Type(lambda v: v == "geometric" or isinstance(v, dict) or _list_of(lambda m: True)(v),
                    'params.{} must be "geometric", an object or a list'),
    "stable_law": _Type(_has_p, "missing params.{}.p", missing="missing params.{}.p"),
    "stable_laws": _Type(_list_of(_has_p), _LAWS, missing=_LAWS),
}


@functools.cache
def _fields(runner) -> tuple[inspect.Parameter, ...]:
    """The ``params`` fields ``runner`` declares: its keyword-only parameters."""
    return tuple(f for f in inspect.signature(runner).parameters.values() if f.kind is f.KEYWORD_ONLY)


def _diagnose(entry, params) -> list[str]:
    """What ``params`` lacks or holds wrongly for a runner or, through
    ``params.check``, for a table of checks, whose checks also take the draws."""
    runners = [entry]
    if isinstance(entry, dict):
        check = params.get("check")
        if not _known(check, entry):
            return [f"unknown or missing check {check!r}"]
        runners = [_draws, entry[check]]
    diags = []
    for field in (f for runner in runners for f in _fields(runner)):
        declared = _TYPES[field.annotation]
        if field.name in params:
            if not declared.test(params[field.name]):
                diags.append(declared.wrong.format(field.name))
        elif field.default is field.empty:
            diags.append(declared.missing.format(field.name))
    across = _ACROSS.get(runners[-1])
    if diags or across is None:
        return diags
    return across({name: value for runner in runners for name, value in _read(runner, params).items()})


def _read(runner, params) -> dict:
    """Each field of ``runner``: read by its type if ``params`` holds it, else its default."""
    return {f.name: _TYPES[f.annotation].read(params[f.name]) if f.name in params else f.default
            for f in _fields(runner)}


def _call(entry, params, seed, base):
    """Run a runner, or the check of a table that ``params.check`` names, on its fields."""
    if not isinstance(entry, dict):
        return entry(seed, base, **_read(entry, params))
    check = entry[params["check"]]
    report = check(_draws(**_read(_draws, params)), seed, **_read(check, params))
    return report if isinstance(report, tuple) else _report_to_result(report)


def _load_json(path_or_doc, base: Path):
    if isinstance(path_or_doc, dict):
        return path_or_doc
    p = Path(path_or_doc)
    if not p.is_absolute():
        p = base / p
    try:
        with open(p, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read input file {p}: {exc.strerror}") from exc
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
    return {"name": f"{op}[q={q:g}]", "value": value, "verdict": "PASS"}, {"coupling": coupling.matrix}


def _oracle(op, mu, metric, q, other):
    return {"name": f"{op}_bounded", "value": brute_force_dual(mu, metric, "bounded"), "verdict": "PASS"}, {}


_NORM_OPS = {"kr": _witnessed, "k": _witnessed, "kq": _kq, "wq": _wq, "oracle": _oracle}


def _run_norms(seed, base, *, measure: "doc", metric: "name", ops: "ops" = DEFAULT_OPS, q: "q" = None,
               other_measure: "doc" = None):
    mu_doc = _load_json(measure, base)
    mu = _load_measure(mu_doc)

    def other():
        # the other file usually repeats mu's space: parse and validate it once
        return _load_measure(_load_json(other_measure, base), (mu.space, mu_doc))

    records = []
    payload = {}
    for op in ops:
        record, entries = _NORM_OPS[op](op, mu, metric, q, other)
        records.append(record)
        payload.update(entries)
    return {"checks": records, "payload": payload, "passed": True}, {}


def _ops_need(fields) -> list[str]:
    """The rules tying ``norms`` ops to the other fields."""
    bad = [op for op in fields["ops"] if not _known(op, _NORM_OPS)]
    diags = [f"unknown ops {bad}"] if bad else []
    runs = {_NORM_OPS.get(op) for op in fields["ops"] if isinstance(op, str)}
    if runs & {_kq, _wq} and fields["q"] is None:
        diags.append("missing params.q for kq/wq")
    if _wq in runs and fields["other_measure"] is None:
        diags.append("missing params.other_measure for wq")
    return diags


def _sequence_from(path_or_doc, base) -> "MeasureSequence":
    doc = _load_json(path_or_doc, base)
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


def _run_convergence(seed, base, *, sequence: "doc", q: "q" = 1.0, metrics: "metrics" = None,
                     weak_gap: "flag" = False, barycenters: "flag" = False):
    seq = _sequence_from(sequence, base)
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
    if weak_gap:
        name = report.per_metric[0].metric_name
        # the field shadows the function, which is looked up as a global
        out["weak_gaps"] = globals()["weak_gap"](seq, lipschitz_dictionary(seq.space, name), bound=1.0)
    if barycenters:
        bary = barycenter_convergence(seq)
        out["barycenter_bound_holds"] = bary.bound_holds
        checks.append(
            {"name": "barycenter bound", "verdict": "PASS" if bary.bound_holds else "FAIL"}
        )
    passed = report.verdict != "VIOLATION" and all(c["verdict"] != "FAIL" for c in checks)
    return {"checks": checks, "payload": out, "passed": passed}, curves


def _run_counterexample(seed, base, *, matrix: "matrix", epsilon: "real" = 1e-6):
    if isinstance(matrix, str):
        matrix = _load_json(matrix, base)
    try:
        inst = l1_counterexample(matrix, eps=epsilon)
    except (TypeError, ValueError) as exc:  # a matrix file's contents
        raise InputDataError(str(exc)) from exc
    report = verify_counterexample(inst, epsilon)
    checks = [{"name": k, "verdict": "PASS" if ok else "FAIL"} for k, ok in report["checks"].items()]
    payload = dict(report)
    payload["c"] = inst.c.tolist()
    return {"checks": checks, "payload": payload, "passed": report["passed"]}, {}


def _schedule_family(family):
    if family == "geometric":
        return [GeometricTailMember()]
    members = family if isinstance(family, list) else [family]
    try:
        return [DiscreteTailMember(m["weights"], m["values"]) for m in members]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad schedule family member: {exc}") from exc


def _one_check(name, passed, payload):
    """A result of one named check, without curves."""
    checks = [{"name": name, "verdict": "PASS" if passed else "FAIL"}]
    return {"checks": checks, "payload": payload, "passed": passed}, {}


def _sampled_tails(tail_docs):
    """Tail functions from sampled (radius, value) pairs, held constant
    between samples (nonincreasing step interpolation)."""
    by_n = {}
    try:
        for doc in tail_docs:
            by_n[int(doc["n"])] = sorted((float(m), float(v)) for m, v in doc["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad tail samples: {exc}") from exc

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


def _run_schedule(seed, base, *, family: "family" = None, tails: "objects" = None, depth: "count" = 8,
                  horizon: "count" = 10**5, verify_horizon: "count" = None, n_max: "count" = None):
    # sampled tail functions: construct the schedule only, no certificates
    sampled = family is None
    if sampled:
        tails = _sampled_tails(tails)
    else:
        family = _schedule_family(family)
        tails = family_tail_functions(family, depth)
    try:
        sched = rescaling_schedule(tails, horizon=horizon)
    except ScheduleInfeasibleError as exc:
        return _one_check("schedule construction", False, {"error": str(exc), "infeasible_at": exc.n})
    if sampled:
        payload = {"boundaries": list(sched.boundaries), "certificates": "skipped (no family evaluators)"}
        return _one_check("schedule construction", True, payload)
    report = verify_schedule(sched, family, horizon=verify_horizon or min(horizon, sched.max_index), n_max=n_max)
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


def _family_or_tails(fields) -> list[str]:
    """A family or sampled tails; a family's certificates need a block to
    certify, and block n needs n + 1 boundaries, one per level of ``depth``."""
    if fields["family"] is None:
        return ["missing params.family (or params.tails)"] if fields["tails"] is None else []
    depth, n_max = fields["depth"], fields["n_max"]
    if depth < 2:
        return ["params.depth must be at least 2 for a family (a block to certify)"]
    if n_max is not None and n_max >= depth:
        return [f"params.n_max must be at most depth - 1 = {depth - 1} (the last block to certify)"]
    return []


def _draws(*, n: "count" = 10**5) -> int:
    """The field every Monte-Carlo check shares: the number of draws."""
    return n


def _integer(doc, key, default=None) -> int:
    """An inline spec's integer field: a JSON integer, not a boolean or a float."""
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _logconcave_spec(doc) -> "LogConcaveSpec":
    fam = doc.get("family")
    try:
        if fam == "gaussian":
            return LogConcaveSpec.gaussian(doc["mean"], doc["cov"])
        if fam == "uniform_box":
            return LogConcaveSpec.uniform_box(doc["lo"], doc["hi"])
        if fam == "uniform_simplex":
            return LogConcaveSpec.uniform_simplex(_integer(doc, "dim"))
        if fam == "product_exponential":
            return LogConcaveSpec.product_exponential(doc["rates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad log-concave spec: {exc}") from exc
    raise InputDataError(f"unknown log-concave family {fam!r}")


def _poly_from(doc) -> "PolynomialSpec":
    try:
        if "coeffs_1d" in doc:
            return PolynomialSpec.from_1d_coeffs(doc["coeffs_1d"])
        return PolynomialSpec(_integer(doc, "degree"), {tuple(k): v for k, v in doc["terms"]})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad polynomial: {exc}") from exc


def _report_to_result(report):
    """A Monte-Carlo report as a (result, curves) pair."""
    checks = [
        {"name": c.name, "estimate": c.estimate, "half_width": c.half_width, "bound": c.bound,
         "verdict": "EXPECTED_FAIL" if c.expected_failure and not c.passed else ("PASS" if c.passed else "FAIL")}
        for c in report.checks
    ]
    curves = {name: (tuple(f"c{i}" for i in range(len(rows[0]))) if rows else (), rows)
              for name, rows in report.curves.items()}
    result = {"checks": checks, "payload": {"extras": report.extras, "name": report.name}, "passed": report.passed}
    return result, curves


def _borell(n, seed, *, spec: "object", c: "real", q: "seminorm" = "abs", ts: "reals" = (1.0, 2.0, 4.0)):
    return check_borell(_logconcave_spec(spec), q, c, ts, n=n, seed=seed)


def _small_value(n, seed, *, spec: "object", poly: "object", rs: "reals" = None):
    return small_value_check(_logconcave_spec(spec), _poly_from(poly), rs=rs, n=n, seed=seed)


def _lp_equivalence(n, seed, *, spec: "object", polys: "objects", ps: "reals" = (2.0, 4.0)):
    return lp_equivalence_check(_logconcave_spec(spec), [_poly_from(d) for d in polys], ps=ps, n=n, seed=seed)


def _logconcave_sequence(n, seed, *, specs: "objects", limit: "object", qs: "seminorms" = ("l2",)):
    return mean_convergence_experiment(
        [_logconcave_spec(d) for d in specs], _logconcave_spec(limit), qs=qs, n=n, seed=seed
    )


def _polynomial_density(n, seed, *, specs: "objects", densities: "objects", limit_barycenter: "reals"):
    return polynomial_density_experiment(
        [_logconcave_spec(d) for d in specs], [_poly_from(d) for d in densities], limit_barycenter, n=n, seed=seed
    )


_LOGCONCAVE_CHECKS = {
    "borell": _borell,
    "small_value": _small_value,
    "lp_equivalence": _lp_equivalence,
    "mean_convergence": _logconcave_sequence,
    "polynomial_density": _polynomial_density,
}


def _stable_spec(doc) -> "StableSpec":
    try:
        return StableSpec(
            p=float(doc["p"]),
            b=float(doc.get("b", 0.0)),
            c=float(doc.get("c", 1.0)),
            a=float(doc.get("a", 0.0)),
            dim=_integer(doc, "dim", 1),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad stable spec: {exc}") from exc


def _cf(n, seed, *, spec: "stable_law"):
    return validate_sampler(_stable_spec(spec), n=n, seed=seed)


def _tail(n, seed, *, spec: "stable_law", p1: "real", delta: "real" = 0.8):
    return stable_tail_check(_stable_spec(spec), p1=p1, n=n, seed=seed, delta=delta)


def _constants(n, seed, *, delta: "real", p: "real"):
    """The closed-form constants: already a (result, curves) pair."""
    tc = tail_constants(delta, p)
    keys = ("delta", "p", "k", "rho", "beta", "log_coefficient")
    return _one_check("tail constants", True, {key: getattr(tc, key) for key in keys})


def _identity(n, seed, *, spec: "stable_law"):
    return stability_identity_check(_stable_spec(spec), n=n, seed=seed)


def _stable_sequence(n, seed, *, specs: "stable_laws", limit: "stable_law"):
    return stable_mean_convergence_experiment([_stable_spec(d) for d in specs], _stable_spec(limit), n=n, seed=seed)


def _a_draw_per_block(fields) -> list[str]:
    if fields["n"] < MEAN_BLOCKS:
        return [f"params.n must be at least {MEAN_BLOCKS} (one draw per block mean)"]
    return []


_STABLE_CHECKS = {
    "cf": _cf,
    "tail": _tail,
    "constants": _constants,
    "identity": _identity,
    "mean_convergence": _stable_sequence,
}

#: Each kind's runner, or the table of checks that ``params.check`` picks from.
_RUNNERS = {
    "norms": _run_norms,
    "convergence": _run_convergence,
    "counterexample": _run_counterexample,
    "schedule": _run_schedule,
    "logconcave": _LOGCONCAVE_CHECKS,
    "stable": _STABLE_CHECKS,
}

KINDS = tuple(_RUNNERS)

#: The experiment module each kind's runner calls; ``norms`` calls none.
_MODULE_OF = {"convergence": "convergence", "counterexample": "counterexamples", "schedule": "counterexamples",
              "logconcave": "logconcave", "stable": "stable"}

#: The rules that span fields, checked once every field passes its own test.
_ACROSS = {_run_norms: _ops_need, _run_schedule: _family_or_tails, _stable_sequence: _a_draw_per_block}


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
    result, curves = _call(_RUNNERS[kind], config["params"], seed, base)
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
        print(f"{check['name']}: {check.get('verdict', 'PASS')}")
    print(f"overall: {report['overall_verdict']} ({path})")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
