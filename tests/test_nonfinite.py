"""Distances whose q-th power overflows must fail loudly, never as a NaN PASS.

Points at 0, 1e200 and 3e200 form a valid line metric, but with q = 2 the
costs ``d**q`` overflow.  ``kq`` and ``wq`` reject such a ``q`` before
computing the power, naming it and the largest distance; the solver rejects
non-finite data, and a coupling whose cost is not finite does not validate,
nor does a Lipschitz witness with a non-finite potential or value.
"""

import dataclasses
import json

import numpy as np
import pytest

from kantorovich_lab import cli
from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import LipschitzWitness, kq_norm, wasserstein_q
from kantorovich_lab.transport._transportation import solve_transportation

X = (0.0, 1e200, 3e200)
FINITE_ERROR = "^marginals and costs must be finite$"
OVERFLOW_ERROR = "^q = 2 overflows d\\*\\*q at the largest distance 3e\\+200$"


def overflowing_space():
    x = np.array(X)
    return PseudometricSpace(points=("a", "b", "c"), metrics={"d": np.abs(x[:, None] - x[None, :])})


@pytest.mark.parametrize("where", ["a", "b", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_rejects_non_finite_data(where, bad):
    data = {"a": np.array([0.5, 0.5]), "b": np.array([0.25, 0.75]), "C": np.array([[0.0, 1.0], [2.0, 0.5]])}
    data[where].flat[-1] = bad
    with pytest.raises(ValueError, match=FINITE_ERROR):
        solve_transportation(data["a"], data["b"], data["C"])


def test_overflowing_costs_raise():
    space = overflowing_space()
    mu, nu = space.measure([0.5, 0.5, 0.0]), space.measure([0.0, 0.5, 0.5])
    with pytest.raises(ValueError, match=OVERFLOW_ERROR):
        wasserstein_q(mu, nu, "d", 2.0)
    with pytest.raises(ValueError, match=OVERFLOW_ERROR):
        kq_norm(mu - nu, "d", 2.0)
    # q = 1 stays finite and is solved as before
    value, coupling = wasserstein_q(mu, nu, "d", 1.0)
    coupling.validate(mu, nu)
    assert value == 1.5e200


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_coupling_with_non_finite_cost_fails_validation():
    space = overflowing_space()
    mu, nu = space.measure([0.5, 0.5, 0.0]), space.measure([0.0, 0.5, 0.5])
    _, coupling = wasserstein_q(mu, nu, "d", 1.0)
    for cost in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^coupling cost is not finite$"):
            dataclasses.replace(coupling, cost=cost).validate(mu, nu)
    # a finite reported cost against a recomputed cost that overflows
    with pytest.raises(ValueError, match="^coupling cost is not finite$"):
        dataclasses.replace(coupling, q=2.0, cost=1.0).validate(mu, nu)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "mode, values, achieved",
    [
        ("bounded", [NAN, NAN], NAN),
        ("anchored", [0.0, NAN], 3.0),
        ("bounded", [1.0, -1.0], NAN),
        ("anchored", [0.0, -3.0], NAN),
        ("bounded", [INF, -INF], 2.0),
        ("anchored", [0.0, -INF], 3.0),
        ("bounded", [1.0, -1.0], INF),
        ("anchored", [0.0, -3.0], -INF),
    ],
)
def test_witness_with_non_finite_entries_fails_validation(mode, values, achieved):
    mu = PseudometricSpace(points=("a", "b"), metrics={"d": [[0.0, 3.0], [3.0, 0.0]]}).measure([1.0, -1.0])
    # the finite witnesses of the same shape validate
    LipschitzWitness("d", np.array([1.0, -1.0]), 2.0, "bounded").validate(mu)
    LipschitzWitness("d", np.array([0.0, -3.0]), 3.0, "anchored").validate(mu)
    with pytest.raises(ValueError, match="^witness is not finite$"):
        LipschitzWitness("d", np.array(values), achieved, mode).validate(mu)


def norms_run(tmp_path, op, xs, q) -> int:
    """Exit code of a ``norms`` run of ``op`` between two measures on the
    line metric of the points ``xs``; it must write nothing."""
    def doc(weights):
        d = [[repr(abs(x - y)) for y in xs] for x in xs]
        return {"points": ["a", "b", "c"], "metrics": {"d": d}, "weights": weights}

    (tmp_path / "mu.json").write_text(json.dumps(doc(["0.5", "0.5", "0"])))
    (tmp_path / "nu.json").write_text(json.dumps(doc(["0", "0.5", "0.5"])))
    config = {
        "kind": "norms",
        "seed": 1,
        "out": str(tmp_path / "out"),
        "params": {"measure": "mu.json", "other_measure": "nu.json", "metric": "d", "ops": [op], "q": q},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = cli.main(["norms", "--config", str(tmp_path / "c.json")])
    assert not list(tmp_path.glob("out/*"))
    return code


@pytest.mark.parametrize("op", ["wq", "kq"])
def test_cli_exits_3(tmp_path, capsys, op):
    assert norms_run(tmp_path, op, X, 2) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "input error: q = 2 overflows d**q at the largest distance 3e+200\n"


@pytest.mark.parametrize("op", ["wq", "kq"])
def test_q_whose_power_overflows_is_named(tmp_path, capsys, op):
    """2 ** 2000 overflows: one input error naming q and the largest distance,
    and no RuntimeWarning (an error under this suite's warning filters)."""
    assert norms_run(tmp_path, op, (0.0, 1.0, 2.0), 2000) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "input error: q = 2000 overflows d**q at the largest distance 2\n"
