"""The package and the CLI load an experiment module only when it is used.

``import kantorovich_lab`` loads ``measures``, ``reports`` and ``transport``;
``cli`` loads ``convergence``, ``counterexamples``, ``logconcave`` or
``stable`` at the first config of a kind that calls it.  Each test of what is
loaded runs in a fresh interpreter with ``PYTHONPATH=src``, since this
process has imported everything already.
"""

import builtins
import dis
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    assert set(cli._MODULE_OF) == set(cli.KINDS) - {"norms"}
    assert set(cli._MODULE_OF.values()) == set(cli._LAZY) == set(EXPERIMENTS)


def test_importing_the_cli_loads_no_experiment_module():
    assert loaded_after("import kantorovich_lab.cli") == []
    assert loaded_after("import kantorovich_lab") == []


@pytest.mark.parametrize("kind", list(KIND_RUNS))
def test_a_run_loads_only_its_own_module(tmp_path, kind):
    params, modules = KIND_RUNS[kind]
    config = {"kind": kind, "seed": 1, "params": params}
    assert loaded_after(RUN_ONE, json.dumps(config), str(tmp_path)) == modules


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


def test_the_package_binds_the_cli_names_of_a_module_it_loads():
    code = """
import kantorovich_lab as pkg
import kantorovich_lab.cli as cli
assert "check_borell" not in vars(cli)
logconcave = pkg.logconcave
assert vars(cli)["check_borell"] is logconcave.check_borell
assert "stable_tail_check" not in vars(cli)
"""
    assert loaded_after(code) == ["logconcave"]


def test_a_name_bound_earlier_is_kept():
    code = """
import kantorovich_lab.cli as cli
cli.check_borell = stub = object()
assert cli.validate_config({"kind": "logconcave", "seed": 1, "params": {"check": "cf"}})
assert cli.check_borell is stub and cli.small_value_check is not None
"""
    assert loaded_after(code) == ["logconcave"]


def test_a_traced_warm_up_leaves_the_originals_bound():
    """The benchmark's tracer patches every binding it finds and uninstalls
    before the untraced passes; a kind first run under it must leave cli
    holding the experiment functions themselves, not the tracer's wrappers."""
    code = f"""
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import kantorovich_lab.cli
from tracer import Tracer
pkg = sys.modules["kantorovich_lab"]
cli = pkg.cli
tracer = Tracer()
tracer.install(pkg)
assert "kantorovich_lab.cli.stable_tail_check" in tracer.bindings
with tempfile.TemporaryDirectory() as base:
    for config in json.loads(sys.argv[1]):
        assert cli.run(config, base=Path(base))[0] == cli.EXIT_OK
tracer.uninstall()
assert any(s["name"] == "stable.check" for s in tracer.spans)
for module, names in cli._LAZY.items():
    for name in names:
        assert vars(cli)[name] is getattr(getattr(pkg, module), name), name
"""
    configs = [{"kind": kind, "seed": 1, "params": params} for kind, (params, _) in KIND_RUNS.items()]
    assert loaded_after(code, json.dumps(configs)) == list(EXPERIMENTS)


@pytest.mark.parametrize("module", EXPERIMENTS)
def test_every_lazily_bound_name_exists_in_its_module(module):
    owner = importlib.import_module(f"kantorovich_lab.{module}")
    assert [name for name in cli._LAZY[module] if not hasattr(owner, name)] == []


def _global_loads(code: types.CodeType):
    for ins in dis.get_instructions(code):
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            yield ins.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_loads(const)


def test_every_global_the_cli_reads_is_bound_once_its_modules_are():
    for module in EXPERIMENTS:
        cli._bind(module)
    code = compile(Path(cli.__file__).read_text(), cli.__file__, "exec")
    unbound = {name for name in _global_loads(code) if name not in vars(cli) and not hasattr(builtins, name)}
    assert unbound == set()
