"""The package and the CLI load an experiment module only when it is used.

``import kantorovich_lab`` loads ``measures``, ``reports`` and ``transport``;
``cli`` loads ``convergence``, ``counterexamples``, ``logconcave`` or
``stable`` when a runner of a kind that calls it first reads it.  Each test of
what is loaded runs in a fresh interpreter with ``PYTHONPATH=src``, since this
process has imported everything already.
"""

import ast
import builtins
import dis
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kantorovich_lab
from kantorovich_lab import cli

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ("convergence", "counterexamples", "logconcave", "stable")

#: Prints the experiment modules loaded so far as a JSON list.
LOADED = (
    "\nimport json as _json, sys as _sys\n"
    f"print(_json.dumps([m for m in {EXPERIMENTS!r} if 'kantorovich_lab.' + m in _sys.modules]))\n"
)


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python argv...`` in a new interpreter that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


def loaded_after(code: str, *args: str) -> list[str]:
    """The experiment modules loaded after ``code`` runs with ``args`` in a new interpreter."""
    done = fresh("-c", code + LOADED, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LINE = {
    "points": ["x0", "x1", "x2"],
    "metrics": {"d": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]},
    "anchor": 0,
}

#: One small config per kind and the experiment modules its run loads.
KIND_RUNS = {
    "norms": ({"measure": {**_LINE, "weights": ["0.5", "-0.25", "-0.25"]}, "metric": "d"}, []),
    "convergence": ({"sequence": {**_LINE, "weights_sequence": [["0.5", "0.5", "0"], ["1", "0", "0"]],
                                  "limit_weights": ["1", "0", "0"]}}, ["convergence"]),
    "counterexample": ({"matrix": [[2.0, 1.0]]}, ["counterexamples"]),
    "schedule": ({"tails": [{"n": 1, "samples": [[0, 1.0], [2, 0.01]]}], "horizon": 64}, ["counterexamples"]),
    "logconcave": ({"check": "borell", "spec": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
                    "c": 1.0, "ts": [1.0], "n": 2000}, ["logconcave"]),
    "stable": ({"check": "constants", "delta": 0.8, "p": 1.5}, ["stable"]),
}

RUN_ONE = """
import json, sys
from pathlib import Path
from kantorovich_lab import cli
code, _, _ = cli.run(json.loads(sys.argv[1]), base=Path(sys.argv[2]))
assert code == cli.EXIT_OK, code
"""


def test_kinds_are_covered():
    assert set(KIND_RUNS) == set(cli.KINDS)
    assert {module for _, modules in KIND_RUNS.values() for module in modules} == set(EXPERIMENTS)


def test_importing_the_cli_loads_no_experiment_module():
    assert loaded_after("import kantorovich_lab.cli") == []
    assert loaded_after("import kantorovich_lab") == []


@pytest.mark.parametrize("kind", list(KIND_RUNS))
def test_a_run_loads_only_its_own_module(tmp_path, kind):
    params, modules = KIND_RUNS[kind]
    config = {"kind": kind, "seed": 1, "params": params}
    assert loaded_after(RUN_ONE, json.dumps(config), str(tmp_path)) == modules


def test_a_stable_sequence_loads_only_stable(tmp_path):
    """The stable sequence experiment takes its row norms and column means
    from ``reports``, so it never loads ``logconcave``."""
    params = {"check": "mean_convergence", "specs": [{"p": 1.9, "dim": 2}, {"p": 1.8, "dim": 2}],
              "limit": {"p": 1.8, "dim": 2}, "n": 64}
    config = {"kind": "stable", "seed": 1, "params": params}
    assert loaded_after(RUN_ONE, json.dumps(config), str(tmp_path)) == ["stable"]


def test_the_module_entry_point_runs_norms(tmp_path):
    params, _ = KIND_RUNS["norms"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "norms", "seed": 1, "out": str(tmp_path / "out"), "params": params}))
    done = fresh("-m", "kantorovich_lab.cli", "norms", "--config", str(path))
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert done.stdout.startswith("kr: PASS\nk: PASS\noverall: PASS (")


def test_submodules_load_on_first_access():
    code = """
import kantorovich_lab as pkg
names = dir(pkg)
assert {"convergence", "counterexamples", "logconcave", "stable", "measures", "kr_norm"} <= set(names)
assert pkg.stable.StableSpec(p=1.5).p == 1.5
try:
    pkg.nothing
except AttributeError as exc:
    assert "nothing" in str(exc)
else:
    raise AssertionError("pkg.nothing resolved")
"""
    assert loaded_after(code) == ["stable"]


def test_a_traced_warm_up_leaves_the_originals_bound():
    """The benchmark's traced run installs its span tracer around the
    warm-up, uninstalls it, and installs it again for each traced pass.  The
    second install traces the experiment functions, and once it is
    uninstalled no module holds a tracer's wrapper.  A wrapper is told by its
    code: a ``functools`` cache carries ``__wrapped__`` too."""
    code = f"""
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import kantorovich_lab.cli
from tracer import Tracer
pkg = sys.modules["kantorovich_lab"]
cli = pkg.cli
tracer = Tracer()
wrapper = tracer._wrap("probe", len, None).__code__

def traced_pass():
    tracer.install(pkg)
    try:
        with tempfile.TemporaryDirectory() as base:
            for config in json.loads(sys.argv[1]):
                assert cli.run(config, base=Path(base))[0] == cli.EXIT_OK
    finally:
        tracer.uninstall()

traced_pass()
tracer.spans.clear()
traced_pass()
assert any(s["name"] == "stable.check" for s in tracer.spans)
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "kantorovich_lab":
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name]
        for owner in (module, *classes):
            leaked = [key for key, v in vars(owner).items() if getattr(v, "__code__", None) is wrapper]
            assert leaked == [], (name, owner, leaked)
"""
    configs = [{"kind": kind, "seed": 1, "params": params} for kind, (params, _) in KIND_RUNS.items()]
    assert loaded_after(code, json.dumps(configs)) == list(EXPERIMENTS)


def _module_reads(tree: ast.AST) -> list[tuple[str, str]]:
    """Each ``<module>.<name>`` read in ``tree`` whose ``<module>`` is a
    package module that ``from . import`` binds in it."""
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module is None for alias in node.names}
    modules = {name for name in imported if isinstance(getattr(kantorovich_lab, name), types.ModuleType)}
    return [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules]


def test_every_module_read_of_the_cli_exists():
    """Every ``<module>.<name>`` that ``cli`` reads is defined on that module."""
    reads = _module_reads(ast.parse(Path(cli.__file__).read_text()))
    assert {module for module, _ in reads} == {"measures", "reports", "transport", *EXPERIMENTS}
    missing = [f"{module}.{name}" for module, name in reads if not hasattr(getattr(kantorovich_lab, module), name)]
    assert missing == []


def _global_loads(code: types.CodeType):
    for ins in dis.get_instructions(code):
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            yield ins.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_loads(const)


def test_every_global_the_cli_reads_is_bound_once_its_modules_are():
    code = compile(Path(cli.__file__).read_text(), cli.__file__, "exec")
    unbound = {name for name in _global_loads(code) if name not in vars(cli) and not hasattr(builtins, name)}
    assert unbound == set()
