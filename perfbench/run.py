"""The repository benchmark: closed-loop CLI workloads with verified outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload is a fixed list of generated configs run in-process through
``kantorovich_lab.cli.run`` by one client: the next config starts only when
the previous one returns.  Inputs and HiGHS reference answers are made from
the seed by ``generate.py`` in a child process before anything is timed.
Every output of every pass is verified (``verify.py``); a job that raises,
exits with an unexpected code, fails a certificate check or misses a
reference value counts as failed.  Job and set-up times are rescaled to a
fixed reference host speed by the probes of ``hostspeed.py``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object.  See README.md for the metric
definitions and the known defects the figures include.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = "kantorovich_lab"
WORKLOADS = ("convergence_dense", "coupling_flow", "montecarlo")

#: Set-up (fresh import plus warm-up) is repeated at least SETUP_MIN_REPS
#: times, and further up to SETUP_MAX_REPS while SETUP_BUDGET_S lasts.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 3.0
#: Timed passes made even when they outlast ``--seconds``.
MIN_PASSES = 2
GENERATE_TIMEOUT_S = 150
THREADS_ENV = "KANTOROVICH_LAB_THREADS"

WALL_CLOCK_LINE = re.compile(r'^\s*"wall_clock_s":.*\n', flags=re.M)

LAYER_COUNTS = {
    "measures.space": ("calls",),
    "transport.kr_norm": ("calls", "nodes", "errors"),
    "transport.k_norm": ("calls", "nodes", "errors"),
    "transport.kq_norm": ("calls", "nodes", "errors"),
    "transport.wasserstein_q": ("calls", "nodes", "errors"),
    "transport.brute_force_dual": ("calls", "nodes", "errors"),
    "transport.simplex": ("calls", "pivots"),
    "transport.transportation": ("calls", "pivots"),
    "stable.sample": ("calls",),
    "logconcave.sample": ("calls",),
    "reports.dump": ("calls", "bytes"),
}
SELF_TIME_LAYERS = (
    "measures.space", "measures.load",
    "transport.kr_norm", "transport.k_norm", "transport.kq_norm", "transport.wasserstein_q",
    "transport.brute_force_dual", "transport.validate", "transport.simplex",
    "transport.transportation", "transport.trees",
    "convergence.tau_k", "convergence.barycenter", "counterexamples",
    "stable.sample", "stable.check", "logconcave.sample", "logconcave.check",
    "reports.dump", "cli.run",
)
COUNT_UNITS = {"bytes": "bytes"}


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


def import_package():
    """Import the package afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]
    importlib.import_module(PKG + ".cli")
    return sys.modules[PKG]


def run_jobs(pkg, jobs, base: Path, tracer=None, label="", speed=None) -> list[dict]:
    """One closed-loop pass over ``jobs``; each outcome carries its wall
    ``seconds`` and, when ``speed`` probes the host between jobs, its
    ``scaled`` seconds at the reference host speed."""
    cli = pkg.cli
    outcomes = []
    if speed is not None:
        speed.probe()
    for job in jobs:
        if speed is not None:
            speed.maybe_probe()
        if tracer is not None:
            tracer.job = f"{label}:{job['name']}"
        started = time.perf_counter()
        try:
            code, _, path = cli.run(job["config"], base=base)
            outcome = {"code": code, "path": str(path)}
        except Exception as exc:  # a failed job is data, not a benchmark error
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        ended = time.perf_counter()
        outcome["seconds"] = ended - started
        outcome["span"] = (started, ended)
        outcomes.append(outcome)
    if tracer is not None:
        tracer.job = None
    if speed is not None:
        speed.probe()
        for outcome in outcomes:
            outcome["scaled"] = outcome["seconds"] / speed.slowdown(*outcome["span"])
    return outcomes


def clear_reports(base: Path) -> None:
    shutil.rmtree(base / "reports", ignore_errors=True)


def setup(warmups, base: Path, speed) -> tuple[float, float, object]:
    """Fresh package import plus one warm-up job per job shape, bracketed by
    host-speed probes.

    Returns (wall seconds, seconds at the reference host speed, package).
    """
    speed.probe()
    started = time.perf_counter()
    pkg = import_package()
    import_s = time.perf_counter() - started
    outcomes = run_jobs(pkg, warmups, base)
    ended = time.perf_counter()
    clear_reports(base)
    speed.probe()
    bad = [(w["name"], o) for w, o in zip(warmups, outcomes) if o.get("error") or o["code"] != 0]
    if bad:
        raise RuntimeError(f"warm-up job failed: {bad[0]}")
    seconds = import_s + sum(o["seconds"] for o in outcomes)
    return seconds, seconds / speed.slowdown(started, ended), pkg


class Pass:
    """A verified pass: per-job times at the reference host speed, the pass's
    wall time, and per-job failure reasons."""

    def __init__(self, jobs, outcomes, verifier):
        self.job_seconds = [o["scaled"] for o in outcomes]
        self.seconds = sum(self.job_seconds)
        self.wall_seconds = sum(o["seconds"] for o in outcomes)
        self.failures = {}
        self.unexpected = {}
        for job, outcome in zip(jobs, outcomes):
            reasons = verifier.check(job, outcome)
            if reasons:
                self.failures[job["name"]] = reasons
                if not job.get("known_defect"):
                    self.unexpected[job["name"]] = reasons


def verified_pass(pkg, jobs, base, verifier, speed, tracer=None, label="") -> Pass:
    if tracer is not None:
        tracer.install(pkg)
    try:
        outcomes = run_jobs(pkg, jobs, base, tracer, label, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(jobs, outcomes, verifier)


def batch_time(passes) -> float:
    """Time of one pass at the reference host speed, with each job at its
    median over ``passes``.

    A per-job median discards a job whose probes missed a change of host
    state, where the median of whole passes needs most passes to be clean.
    """
    per_job = zip(*(p.job_seconds for p in passes))
    return sum(statistics.median(samples) for samples in per_job)


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, when it can be read."""
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(pkg, args) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_backend": pkg.kernel_backend(),
        "blas_threads": blas_threads(),
        "thread_cap": pkg.cli.thread_limit(),
        "loop": "closed, one client, one process",
    }


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(doc, base: Path, args, log) -> tuple[dict, int, int, bool]:
    from hostspeed import SpeedTrack
    from verify import Verifier

    jobs, warmups = doc["jobs"], doc["warmups"]
    speed = SpeedTrack()
    setups, setups_wall = [], []
    while len(setups) < SETUP_MIN_REPS or (
            len(setups) < SETUP_MAX_REPS and sum(setups_wall) < SETUP_BUDGET_S):
        wall, scaled, pkg = setup(warmups, base, speed)
        setups_wall.append(wall)
        setups.append(scaled)
    verifier = Verifier(pkg, base)
    meta = metadata(pkg, args)

    passes = []
    budget_start = time.perf_counter()
    while True:
        passes.append(verified_pass(pkg, jobs, base, verifier, speed))
        clear_reports(base)
        spent = time.perf_counter() - budget_start
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = [p.seconds for p in passes]
    walls = [p.wall_seconds for p in passes]
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    unexpected = sum(len(p.unexpected) for p in passes)
    batch = batch_time(passes)
    q1, q3 = quartiles(times)
    metrics = {
        "batch_s": {"value": batch, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    log(f"metadata {json.dumps(meta, sort_keys=True)}")
    log(f"batch_s      {batch:.4f} s  (sum over {len(jobs)} jobs of each job's median over "
        f"{len(times)} passes, at the reference host speed)")
    log(f"pass time    median {statistics.median(times):.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, "
        f"{len(times)} passes: " + ", ".join(f"{t:.4f}" for t in times))
    log("pass wall    " + ", ".join(f"{t:.4f}" for t in walls) + " s")
    log(f"setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setups)}: "
        + ", ".join(f"{s:.4f}" for s in setups) + "; wall "
        + ", ".join(f"{s:.4f}" for s in setups_wall) + ")")
    log(f"host speed   {speed.summary()}")
    log(f"peak_rss_mb  {rss_mb:.1f} MB")
    log(f"fail_frac    {failed / attempted:.4f}  ({failed} of {attempted} jobs failed; "
        f"{failed - unexpected} in the known-defect class)")
    log(f"pass_frac    {metrics['pass_frac']['value']:.4f}")
    _log_failures(passes, log)
    return metrics, attempted, failed, unexpected == 0


def _log_failures(passes, log) -> None:
    seen = set()
    for p in passes:
        for name, reasons in p.failures.items():
            if name not in seen:
                seen.add(name)
                tag = "unexpected" if name in p.unexpected else "known defect"
                log(f"failed job {name} ({tag}): {reasons[0]}")


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, self_s) -> dict:
    out = {}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = (sum(self_s[s["id"]] for s in by_name.get(layer, ())), "s")
    for layer, counts in LAYER_COUNTS.items():
        group = by_name.get(layer, ())
        for count in counts:
            if count == "calls":
                value = len(group)
            elif count == "errors":
                value = sum(s.get("error", 0) for s in group)
            else:
                value = sum(s.get(count, 0) for s in group)
            out[f"{layer}.{count}"] = (value, COUNT_UNITS.get(count, "count"))
    return out


def report_bodies(spans) -> dict[str, str]:
    """Written file -> contents, with the report's wall clock line removed."""
    out = {}
    for s in spans:
        if "path" in s:
            with open(s["path"], "r", encoding="utf-8") as fh:
                out[s["path"]] = WALL_CLOCK_LINE.sub("", fh.read())
    return out


def traced_pass(pkg, jobs, base, verifier, speed, tracer, label):
    first = len(tracer.spans)
    p = verified_pass(pkg, jobs, base, verifier, speed, tracer, label)
    spans = tracer.spans[first:]
    bodies = report_bodies(spans)
    for s in spans:
        if "path" in s:
            s["bytes"] = len(bodies[s["path"]].encode("utf-8"))
    clear_reports(base)
    return p, spans, bodies


def traced_run(doc, base: Path, args, log) -> tuple[dict, int, int, bool]:
    from hostspeed import SpeedTrack
    from tracer import Tracer, self_times
    from verify import Verifier

    jobs, warmups = doc["jobs"], doc["warmups"]
    pkg = import_package()
    tracer = Tracer()
    tracer.install(pkg)
    log("traced bindings: " + ", ".join(tracer.bindings))
    try:
        run_jobs(pkg, warmups, base, tracer, "warmup")
    finally:
        tracer.uninstall()
    clear_reports(base)
    verifier = Verifier(pkg, base)
    meta = metadata(pkg, args)
    speed = SpeedTrack()

    # untraced passes give the overhead base; three traced passes follow
    plain = []
    budget_start = time.perf_counter()
    while True:
        plain.append(verified_pass(pkg, jobs, base, verifier, speed))
        clear_reports(base)
        spent = time.perf_counter() - budget_start
        if spent + 4 * spent / len(plain) > args.seconds:
            break
    pass_a, spans_a, bodies_a = traced_pass(pkg, jobs, base, verifier, speed, tracer, "A")
    pass_b, spans_b, bodies_b = traced_pass(pkg, jobs, base, verifier, speed, tracer, "B")
    nproc = os.cpu_count() or 1
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = str(nproc)
    try:
        pass_t, _, _ = traced_pass(pkg, jobs, base, verifier, speed, tracer, "T")
    finally:
        if saved is None:
            del os.environ[THREADS_ENV]
        else:
            os.environ[THREADS_ENV] = saved

    self_s = self_times(tracer.spans)
    layers_a = layer_metrics(spans_a, self_s)
    layers_b = layer_metrics(spans_b, self_s)
    counts_a = {k: v for k, v in layers_a.items() if not k.endswith("self_s")}
    counts_b = {k: v for k, v in layers_b.items() if not k.endswith("self_s")}
    deterministic = True
    if counts_a != counts_b:
        deterministic = False
        diff = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
        log(f"determinism check FAILED: counts differ between traced runs: {diff}")
    if list(bodies_a.values()) != list(bodies_b.values()):
        deterministic = False
        log("determinism check FAILED: report bodies differ between traced runs")
    if deterministic:
        log(f"determinism check passed: counts and {len(bodies_a)} written files repeat exactly")

    trees = [s for s in tracer.spans if s["name"] == "transport.trees" and s.get("miss")]
    plain_s = batch_time(plain)
    traced_s = batch_time([pass_a, pass_b])
    threads_s = batch_time([pass_t])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers_a.items()}
    metrics["transport.trees.build_s"] = {
        "value": sum(s["end"] - s["start"] for s in trees), "unit": "s"}
    metrics["trace_overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    metrics["trace_overhead_base_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace_batch_s"] = {"value": traced_s, "unit": "s"}
    metrics["cli.threads_speedup"] = {"value": traced_s / threads_s, "unit": "ratio"}
    metrics["cli.threads_cap1_s"] = {"value": traced_s, "unit": "s"}
    metrics["cli.threads_capN_s"] = {"value": threads_s, "unit": "s"}

    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    meta.update({"passes": {"untraced": len(plain), "traced": ["A", "B"], "threads": "T"},
                 "threads_cap_T": nproc})
    tracer.dump(trace_path, meta)

    passes = plain + [pass_a, pass_b, pass_t]
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    unexpected = sum(len(p.unexpected) for p in passes)
    log(f"metadata {json.dumps(meta, sort_keys=True)}")
    for name in sorted(metrics):
        m = metrics[name]
        log(f"{name:38s} {m['value']:.6g} {m['unit']}")
    log(f"trace_overhead_frac is traced batch {traced_s:.4f} s (passes A, B) over "
        f"untraced batch {plain_s:.4f} s ({len(plain)} passes) minus 1")
    log(f"cli.threads_speedup is {traced_s:.4f} s at cap 1 over {threads_s:.4f} s "
        f"at cap {nproc}")
    log(f"host speed: {speed.summary()}")
    log("no layer queues work (one client, one thread, closed loop): "
        "no wait-time metric applies")
    log(f"spans written to {trace_path.relative_to(ROOT)}")
    _log_failures(passes, log)
    return metrics, attempted, failed, unexpected == 0 and deterministic


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, work: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload, "--seed", str(seed),
         "--dir", str(work), "--src", str(SRC)],
        check=True, timeout=GENERATE_TIMEOUT_S, stdout=sys.stderr,
    )
    with open(work / "jobs.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Run every workload in its own process and print its metrics by name."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    for workload, result in rows:
        cells = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload:18s} {cells}  fail_frac {fail_frac:.6g} ratio "
              f"({result['failed']} of {result['attempted']} jobs)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kantorovich-lab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: package source {SRC / PKG} not found; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    lines = []
    try:
        doc = generate(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, correct = run(doc, work, args, lines.append)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
