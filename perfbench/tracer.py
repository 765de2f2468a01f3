"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every module-level binding of each traced function
in the loaded ``kantorovich_lab`` modules (``from ... import`` copies
included, found by identity) and the traced methods on their classes with a
wrapper that records a span: name, start, end, parent span, job id and thread.
``uninstall`` puts every original object back, so untraced passes run exactly
the program's own code.  Spans stay in memory; ``dump`` writes them out.

Count fields are read where the work is handed over: ``nodes`` is the summed
support size passed to a seminorm or coupling routine, ``pivots`` the
iteration count a solver returns, ``miss`` whether a tree-table lookup had to
build the table, and ``path`` the file a report writer produced (its size is
taken after the pass, outside every span).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter


def _support(mu) -> int:
    return int((mu.weights != 0).sum())


def _nodes_one(args, kwargs, result):
    return {"nodes": _support(args[0])}


def _nodes_two(args, kwargs, result):
    return {"nodes": _support(args[0]) + _support(args[1])}


def _pivots(args, kwargs, result):
    return {"pivots": int(result.iterations)}


def _path_arg(index):
    def count(args, kwargs, result):
        return {"path": str(args[index])}

    return count


def targets(pkg):
    """(span name, owner, attribute, counter) for every traced function.

    ``owner`` is a class for methods, else the module defining the function;
    functions are patched at every binding site, methods on their class.
    """
    m = pkg.measures
    t = pkg.transport
    conv, cx, st, lc, rep, cli = (
        pkg.convergence, pkg.counterexamples, pkg.stable, pkg.logconcave, pkg.reports, pkg.cli,
    )
    out = [
        ("measures.space", m.PseudometricSpace, "__post_init__", None),
        ("measures.load", m, "measure_from_dict", None),
        ("measures.load", m, "space_from_dict", None),
        ("transport.kr_norm", t, "kr_norm", _nodes_one),
        ("transport.k_norm", t, "k_norm", _nodes_one),
        ("transport.kq_norm", t, "kq_norm", _nodes_one),
        ("transport.wasserstein_q", t, "wasserstein_q", _nodes_two),
        ("transport.brute_force_dual", t, "brute_force_dual", _nodes_one),
        ("transport.validate", t.LipschitzWitness, "validate", None),
        ("transport.validate", t.Coupling, "validate", None),
        ("transport.simplex", t._simplex, "simplex_max", _pivots),
        ("transport.transportation", t._transportation, "solve_transportation", _pivots),
        ("transport.trees", t._trees, "min_cost_vertex", None),
        ("transport.trees", t._trees, "bipartite_tree_tensors", None),
        ("convergence.tau_k", conv, "check_tau_k_convergence", None),
        ("convergence.barycenter", conv, "barycenter_convergence", None),
        ("stable.sample", st, "sample_stable", None),
        ("logconcave.sample", lc, "sample", None),
        ("reports.dump", rep, "dump_json", _path_arg(1)),
        ("reports.dump", rep, "write_curve_csv", _path_arg(0)),
        ("cli.run", cli, "run", None),
    ]
    for fn in ("l1_counterexample", "verify_counterexample", "rescaling_schedule",
               "verify_schedule", "family_tail_functions"):
        out.append(("counterexamples", cx, fn, None))
    for fn in ("validate_sampler", "stable_tail_check", "stability_identity_check",
               "stable_mean_convergence_experiment", "tail_constants"):
        out.append(("stable.check", st, fn, None))
    for fn in ("check_borell", "small_value_check", "lp_equivalence_check",
               "mean_convergence_experiment", "polynomial_density_experiment"):
        out.append(("logconcave.check", lc, fn, None))
    return out


class Tracer:
    """In-memory span recorder; install/uninstall patch the loaded package."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter, tree_cache=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span hangs under the job's root span
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if not stack and threading.current_thread() is threading.main_thread():
                tracer._root = sid
                parent = None
            misses = tree_cache.cache_info().misses if tree_cache else 0
            rec = {"id": sid, "name": name, "parent": parent, "job": tracer.job,
                   "thread": threading.get_ident()}
            stack.append(sid)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["error"] = 1
                raise
            finally:
                rec["end"] = perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if counter is not None:
                rec.update(counter(args, kwargs, result))
            if tree_cache is not None:
                rec["miss"] = int(tree_cache.cache_info().misses > misses)
            return result

        return wrapper

    def install(self, pkg) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == pkg.__name__ or key.startswith(pkg.__name__ + "."))]
        for name, owner, attr, counter in targets(pkg):
            original = vars(owner)[attr]
            cache = original if hasattr(original, "cache_info") else None
            wrapper = self._wrap(name, original, counter, cache)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [mod for mod in modules if any(v is original for v in vars(mod).values())]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    @property
    def bindings(self) -> list[str]:
        return sorted(f"{getattr(site, '__name__', site)}.{key}" for site, key, _ in self._patches)

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
