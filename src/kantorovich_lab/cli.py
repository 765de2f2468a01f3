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
import inspect
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import __version__, measures, reports, transport

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
    """A finite number; JSON's ``true`` and ``false`` are not numbers here,
    nor is an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
    from . import logconcave
    return logconcave.SEMINORMS


def _seminorm(value) -> bool:
    return _known(value, _seminorms())


_LAWS = "missing params.{} (a non-empty list of specs with p)"

_TYPES = {
    "real": _Type(_real, "params.{} must be a real number", float),
    "q": _Type(lambda v: _real(v) and v >= 1, "params.{} must be a real number >= 1", float),
    "above_one": _Type(lambda v: _real(v) and v > 1, "params.{} must be a real number > 1", float),
    "order": _Type(lambda v: _real(v) and 1 < v <= 2, "params.{} must be a real number in (1, 2]", float),
    "delta": _Type(lambda v: _real(v) and 2**-0.5 < v < 1, "params.{} must be a real number in (2^-1/2, 1)", float),
    "count": _Type(lambda v: _real(v) and v >= 1 and v % 1 == 0, "params.{} must be a positive integer", int),
    "reals": _Type(_list_of(_real), "params.{} must be a list of real numbers"),
    "positive_reals": _Type(_list_of(lambda v: _real(v) and v > 0), "params.{} must be a list of real numbers > 0"),
    "reals_from_one": _Type(_list_of(lambda v: _real(v) and v >= 1), "params.{} must be a list of real numbers >= 1"),
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
    """Run a runner, or the check of a table that ``params.check`` names, on
    its fields: its checks, its payload and its curves."""
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
        return measures.measure_from_dict(doc, reuse)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Experiment dispatch: each kind, norms op and Monte-Carlo check is one key of
# a table.  An entry reads its experiment functions off their defining module
# when it runs, and an experiment module loads at the first read, so a kind
# loads only the module it calls, and a function patched into its module (a
# tracer's wrapper, a test's stub) is the one called.
# ---------------------------------------------------------------------------

DEFAULT_OPS = ("kr", "k")


def _check(name, verdict, **fields) -> dict:
    """A check of a report: its name, its verdict (a truth value reads as
    PASS or FAIL) and any further fields."""
    if not isinstance(verdict, str):
        verdict = "PASS" if verdict else "FAIL"
    return {"name": name, "verdict": verdict, **fields}


def _witnessed(op, mu, metric, q, other):
    if op == "kq":
        name, (value, witness) = f"{op}[q={q:g}]", transport.kq_norm(mu, metric, q)
    else:
        name, (value, witness) = op, getattr(transport, f"{op}_norm")(mu, metric)
    witness.validate(mu)
    return _check(name, True, value=value), {f"{op}_witness": witness.values.tolist()}


def _wq(op, mu, metric, q, other):
    nu = other()
    value, coupling = transport.wasserstein_q(mu, nu, metric, q)
    coupling.validate(mu, nu)
    return _check(f"{op}[q={q:g}]", True, value=value), {"coupling": coupling.matrix}


def _oracle(op, mu, metric, q, other):
    value = transport.brute_force_dual(mu, metric, "bounded")
    return _check(f"{op}_bounded", True, value=value), {}


_NORM_OPS = {"kr": _witnessed, "k": _witnessed, "kq": _witnessed, "wq": _wq, "oracle": _oracle}


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
    return records, payload, {}


def _ops_need(fields) -> list[str]:
    """The rules tying ``norms`` ops to the other fields."""
    bad = [op for op in fields["ops"] if not _known(op, _NORM_OPS)]
    diags = [f"unknown ops {bad}"] if bad else []
    if any(op in ("kq", "wq") for op in fields["ops"]) and fields["q"] is None:
        diags.append("missing params.q for kq/wq")
    if "wq" in fields["ops"] and fields["other_measure"] is None:
        diags.append("missing params.other_measure for wq")
    return diags


def _sequence_from(path_or_doc, base) -> "convergence.MeasureSequence":
    from . import convergence
    doc = _load_json(path_or_doc, base)
    try:
        space = measures.space_from_dict(doc)
        seq_weights = doc["weights_sequence"]
        members = tuple(space.measure([float(x) for x in row]) for row in seq_weights)
        limit = None
        if doc.get("limit_weights") is not None:
            limit = space.measure([float(x) for x in doc["limit_weights"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed sequence file: {exc}") from exc
    return convergence.MeasureSequence(space=space, measures=members, limit=limit)


def _run_convergence(seed, base, *, sequence: "doc", q: "q" = 1.0, metrics: "metrics" = None,
                     weak_gap: "flag" = False, barycenters: "flag" = False):
    from . import convergence
    seq = _sequence_from(sequence, base)
    report = convergence.check_tau_k_convergence(seq, metric_names=metrics, q=q)
    per_index = []
    for i in range(len(seq)):
        row = {"index": i}
        for rec in report.per_metric:
            row[rec.metric_name] = {"kr_gap": rec.kr_gaps[i], "k_gap": rec.k_gaps[i]}
        per_index.append(row)
    witnesses = []
    for rec in report.per_metric:
        witnesses.append(
            {"metric": rec.metric_name, "index": len(seq) - 1, "potential": rec.last_k_witness.values.tolist()}
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
        "tolerances": {"gap": convergence.GAP_TOL},
        "witnesses": witnesses,
    }
    curves = {
        f"tail_{rec.metric_name}": (("radius", "tail"), list(zip(rec.tail.radii, rec.tail.values)))
        for rec in report.per_metric
    }
    checks = [_check(f"tau_k[{rec.metric_name}]", rec.verdict) for rec in report.per_metric]
    if weak_gap:
        name = report.per_metric[0].metric_name
        dictionary = convergence.lipschitz_dictionary(seq.space, name)
        out["weak_gaps"] = convergence.weak_gap(seq, dictionary, bound=1.0)
    if barycenters:
        bary = convergence.barycenter_convergence(seq)
        out["barycenter_bound_holds"] = bary.bound_holds
        checks.append(_check("barycenter bound", bary.bound_holds))
    return checks, out, curves


def _run_counterexample(seed, base, *, matrix: "matrix", epsilon: "real" = 1e-6):
    from . import counterexamples
    if isinstance(matrix, str):
        matrix = _load_json(matrix, base)
    try:
        inst = counterexamples.l1_counterexample(matrix, eps=epsilon)
    except (TypeError, ValueError) as exc:  # a matrix file's contents
        raise InputDataError(str(exc)) from exc
    report = counterexamples.verify_counterexample(inst)
    checks = [_check(k, ok) for k, ok in report["checks"].items()]
    payload = dict(report)
    payload["c"] = inst.c.tolist()
    return checks, payload, {}


def _schedule_family(family):
    from . import counterexamples
    if family == "geometric":
        return [counterexamples.GeometricTailMember()]
    members = family if isinstance(family, list) else [family]
    try:
        return [counterexamples.DiscreteTailMember(m["weights"], m["values"]) for m in members]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad schedule family member: {exc}") from exc


def _finite(x) -> float:
    """A sample's radius or value: a finite number, not a boolean."""
    value = float(x)
    if isinstance(x, bool) or not math.isfinite(value):
        raise ValueError(f"a sample must be a finite number, got {x!r}")
    return value


def _sampled_tails(tail_docs):
    """Tail functions from sampled (radius, value) pairs, held constant
    between samples (nonincreasing step interpolation).  The levels ``n`` are
    1..K, once each: the schedule reads level n's tail as the n-th.  A
    level's values are nonnegative and do not grow with the radius."""
    by_n = {}
    try:
        for doc in tail_docs:
            by_n[_integer(doc, "n")] = sorted((_finite(m), _finite(v)) for m, v in doc["samples"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputDataError(f"bad tail samples: {exc}") from exc
    levels = [doc["n"] for doc in tail_docs]
    if sorted(levels) != list(range(1, len(levels) + 1)):
        raise InputDataError(f"bad tail samples: levels n must be 1..{len(levels)}, once each, got {levels}")
    for n, samples in by_n.items():
        values = [value for _, value in samples]
        if any(value < 0 for value in values) or any(b > a for a, b in zip(values, values[1:])):
            raise InputDataError(f"bad tail samples: level {n}'s values must be nonnegative and nonincreasing")

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
    from . import counterexamples
    # sampled tail functions: construct the schedule only, no certificates
    sampled = family is None
    if sampled:
        tails = _sampled_tails(tails)
    else:
        family = _schedule_family(family)
        tails = counterexamples.family_tail_functions(family, depth)
    try:
        sched = counterexamples.rescaling_schedule(tails, horizon=horizon)
    except counterexamples.ScheduleInfeasibleError as exc:
        return [_check("schedule construction", False)], {"error": str(exc), "infeasible_at": exc.n}, {}
    if sampled:
        payload = {"boundaries": list(sched.boundaries), "certificates": "skipped (no family evaluators)"}
        return [_check("schedule construction", True)], payload, {}
    report = counterexamples.verify_schedule(sched, family, horizon=verify_horizon, n_max=n_max)
    checks = [
        _check(
            f"block {c.n}",
            c.passed,
            tail_mass_sum=c.tail_mass_sum,
            tail_mass_bound=c.tail_mass_bound,
            scaled_integral_sup=c.scaled_integral_sup,
            scaled_integral_bound=c.scaled_integral_bound,
        )
        for c in report.certificates
    ]
    payload = {
        "boundaries": list(sched.boundaries),
        "invariant_violations": list(report.invariant_violations),
        "horizon": report.horizon,
    }
    return checks, payload, {}


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


def _logconcave_spec(doc) -> "logconcave.LogConcaveSpec":
    from . import logconcave
    fam = doc.get("family")
    try:
        if fam == "gaussian":
            return logconcave.LogConcaveSpec.gaussian(doc["mean"], doc["cov"])
        if fam == "uniform_box":
            return logconcave.LogConcaveSpec.uniform_box(doc["lo"], doc["hi"])
        if fam == "uniform_simplex":
            return logconcave.LogConcaveSpec.uniform_simplex(_integer(doc, "dim"))
        if fam == "product_exponential":
            return logconcave.LogConcaveSpec.product_exponential(doc["rates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad log-concave spec: {exc}") from exc
    raise InputDataError(f"unknown log-concave family {fam!r}")


def _poly_from(doc, dim: int, name: str) -> "logconcave.PolynomialSpec":
    """The polynomial of ``doc``, checked before any draw to read only
    coordinates below its law's dimension ``dim``: a term reads coordinate
    i when its exponent i is nonzero, so trailing zero exponents read none."""
    from . import logconcave
    try:
        if "coeffs_1d" in doc:
            poly = logconcave.PolynomialSpec.from_1d_coeffs(doc["coeffs_1d"])
        else:
            poly = logconcave.PolynomialSpec(_integer(doc, "degree"), {tuple(k): v for k, v in doc["terms"]})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad polynomial: {exc}") from exc
    top = max((i for exps in poly.terms for i, e in enumerate(exps) if e), default=-1)
    if top >= dim:
        raise InputDataError(f"{name} reads coordinate {top}, but its law has dim {dim}")
    return poly


def _report_to_result(report):
    """A Monte-Carlo report as its checks, payload and curves."""
    checks = [_check(c.name, c.verdict, estimate=c.estimate, half_width=c.half_width, bound=c.bound)
              for c in report.checks]
    curves = {name: (tuple(f"c{i}" for i in range(len(rows[0]))) if rows else (), rows)
              for name, rows in report.curves.items()}
    return checks, {"extras": report.extras, "name": report.name}, curves


def _borell(n, seed, *, spec: "object", c: "real", q: "seminorm" = "abs", ts: "reals_from_one" = (1.0, 2.0, 4.0)):
    from . import logconcave
    return logconcave.check_borell(_logconcave_spec(spec), q, c, ts, n=n, seed=seed)


def _small_value(n, seed, *, spec: "object", poly: "object", rs: "positive_reals" = None):
    from . import logconcave
    law = _logconcave_spec(spec)
    return logconcave.small_value_check(law, _poly_from(poly, law.dim, "poly"), rs=rs, n=n, seed=seed)


def _lp_equivalence(n, seed, *, spec: "object", polys: "objects", ps: "reals_from_one" = (2.0, 4.0)):
    from . import logconcave
    law = _logconcave_spec(spec)
    return logconcave.lp_equivalence_check(
        law, [_poly_from(d, law.dim, f"polynomial {i}") for i, d in enumerate(polys)], ps=ps, n=n, seed=seed
    )


def _of_dim(laws, dim: int, limit: str):
    """The laws of a sequence, checked before any draw to be of the limit's
    dimension ``dim``: the barycenter of a law of another dimension would be
    broadcast against the limit's."""
    for i, law in enumerate(laws):
        if law.dim != dim:
            raise InputDataError(f"law {i} has dim {law.dim}, but {limit} has dim {dim}")
    return laws


def _logconcave_sequence(n, seed, *, specs: "objects", limit: "object", qs: "seminorms" = ("l2",)):
    from . import logconcave
    laws, limit = [_logconcave_spec(d) for d in specs], _logconcave_spec(limit)
    return logconcave.mean_convergence_experiment(
        _of_dim(laws, limit.dim, "the limit"), limit, qs=qs, n=n, seed=seed
    )


def _polynomial_density(n, seed, *, specs: "objects", densities: "objects", limit_barycenter: "reals"):
    from . import logconcave
    laws = _of_dim([_logconcave_spec(d) for d in specs], len(limit_barycenter), "limit_barycenter")
    polys = [_poly_from(d, len(limit_barycenter), f"density {i}") for i, d in enumerate(densities)]
    return logconcave.polynomial_density_experiment(laws, polys, limit_barycenter, n=n, seed=seed)


_LOGCONCAVE_CHECKS = {
    "borell": _borell,
    "small_value": _small_value,
    "lp_equivalence": _lp_equivalence,
    "mean_convergence": _logconcave_sequence,
    "polynomial_density": _polynomial_density,
}


def _stable_spec(doc) -> "stable.StableSpec":
    from . import stable
    try:
        return stable.StableSpec(
            p=float(doc["p"]),
            b=float(doc.get("b", 0.0)),
            c=float(doc.get("c", 1.0)),
            a=float(doc.get("a", 0.0)),
            dim=_integer(doc, "dim", 1),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad stable spec: {exc}") from exc


def _cf(n, seed, *, spec: "stable_law"):
    from . import stable
    return stable.validate_sampler(_stable_spec(spec), n=n, seed=seed)


def _tail(n, seed, *, spec: "stable_law", p1: "above_one", delta: "delta" = 0.8):
    from . import stable
    return stable.stable_tail_check(_stable_spec(spec), p1=p1, n=n, seed=seed, delta=delta)


def _constants(n, seed, *, delta: "delta", p: "order"):
    """The closed-form constants: already checks, a payload and curves."""
    from . import stable
    tc = stable.tail_constants(delta, p)
    keys = ("delta", "p", "k", "rho", "beta", "log_coefficient")
    return [_check("tail constants", True)], {key: getattr(tc, key) for key in keys}, {}


def _identity(n, seed, *, spec: "stable_law"):
    from . import stable
    return stable.stability_identity_check(_stable_spec(spec), n=n, seed=seed)


def _stable_sequence(n, seed, *, specs: "stable_laws", limit: "stable_law"):
    from . import stable
    laws, limit = [_stable_spec(d) for d in specs], _stable_spec(limit)
    return stable.stable_mean_convergence_experiment(
        _of_dim(laws, limit.dim, "the limit"), limit, n=n, seed=seed
    )


def _a_draw_per_block(fields) -> list[str]:
    from . import stable
    if fields["n"] < stable.MEAN_BLOCKS:
        return [f"params.n must be at least {stable.MEAN_BLOCKS} (one draw per block mean)"]
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
    checks, payload, curves = _call(_RUNNERS[kind], config["params"], seed, base)
    wall = time.perf_counter() - started
    # a run fails when a check FAILs or is a VIOLATION; UI_FAIL and EXPECTED_FAIL do not fail it
    passed = not any(check["verdict"] in ("FAIL", "VIOLATION") for check in checks)

    report = {
        "config": config,
        "tool_version": __version__,
        "kind": kind,
        "seed": seed,
        "checks": checks,
        "payload": payload,
        "overall_verdict": "PASS" if passed else "FAIL",
        "wall_clock_s": wall,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{kind}-{config_hash(config)}"
    path = _fresh_path(out_dir, stem, ".json")
    reports.dump_json(report, path)
    for name, (header, rows) in curves.items():
        if rows:
            reports.write_curve_csv(_fresh_path(out_dir, f"{stem}-{name}", ".csv"), header, rows)
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), report, path


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
        diags = validate_config(config)
        print(json.dumps(diags, indent=2))
        return EXIT_CONFIG_ERROR if diags else EXIT_OK

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
    except (InputDataError, ValueError, KeyError, MemoryError) as exc:  # MemoryError: n too large to hold
        print(f"input error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    for check in report["checks"]:
        print(f"{check['name']}: {check['verdict']}")
    print(f"overall: {report['overall_verdict']} ({path})")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
