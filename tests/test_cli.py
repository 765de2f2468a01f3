import copy
import hashlib
import importlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kantorovich_lab import cli, transport
from kantorovich_lab.convergence import MeasureSequence, check_tau_k_convergence
from kantorovich_lab.measures import measure_from_dict, space_from_dict


def write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


def two_point_measure_doc(dist=3.0, weights=("1", "-1")):
    d = repr(float(dist))
    return {
        "points": ["a", "b"],
        "metrics": {"d": [["0", d], [d, "0"]]},
        "anchor": 0,
        "weights": list(weights),
    }


def norms_config(tmp_path, **overrides):
    measure_path = write(tmp_path / "measure.json", two_point_measure_doc())
    config = {
        "kind": "norms",
        "seed": 7,
        "out": str(tmp_path / "out"),
        "params": {"measure": measure_path.name, "metric": "d", "ops": ["kr", "k", "oracle"]},
    }
    config.update(overrides)
    return write(tmp_path / "config.json", config)


def strip_wall_clock(text: str) -> str:
    return re.sub(r'^\s*"wall_clock_s":.*\n', "", text, flags=re.M)


def written_body(path: Path) -> str:
    """A written report without its wall clock and with its output directory,
    which the config names, spelled ``OUT``."""
    return strip_wall_clock(path.read_text()).replace(json.dumps(str(path.parent)), '"OUT"')


class TestValidate:
    def test_valid_config_has_no_diagnostics(self, tmp_path):
        path = norms_config(tmp_path)
        assert cli.validate_config(json.loads(path.read_text())) == []

    def test_missing_seed(self):
        diags = cli.validate_config({"kind": "norms", "params": {"measure": "m", "metric": "d"}})
        assert any("seed" in d for d in diags)

    def test_q_range_diagnostic(self):
        config = {
            "kind": "norms",
            "seed": 1,
            "params": {"measure": "m", "metric": "d", "ops": ["kq"], "q": 0.5},
        }
        diags = cli.validate_config(config)
        assert any(">= 1" in d for d in diags)

    def test_unknown_kind(self):
        assert any("unknown kind" in d for d in cli.validate_config({"kind": "nope", "seed": 1}))

    def test_stable_mean_convergence_needs_no_spec(self):
        params = {"check": "mean_convergence", "specs": [{"p": 1.5}, {"p": 1.8}], "limit": {"p": 2.0}}
        assert cli.validate_config({"kind": "stable", "seed": 1, "params": params}) == []

    @pytest.mark.parametrize(
        "params,diag",
        [
            ({"limit": {"p": 2.0}}, "stable: missing params.specs (a non-empty list of specs with p)"),
            ({"specs": {"p": 1.5}, "limit": {"p": 2.0}}, "stable: missing params.specs (a non-empty list of specs with p)"),
            ({"specs": [], "limit": {"p": 2.0}}, "stable: missing params.specs (a non-empty list of specs with p)"),
            ({"specs": [{"p": 1.5}, {"b": 0.0}], "limit": {"p": 2.0}},
             "stable: missing params.specs (a non-empty list of specs with p)"),
            ({"specs": [{"p": 1.5}]}, "stable: missing params.limit.p"),
            ({"specs": [{"p": 1.5}], "limit": {"c": 1.0}}, "stable: missing params.limit.p"),
        ],
    )
    def test_stable_mean_convergence_diagnoses_specs_and_limit(self, params, diag):
        params = {"check": "mean_convergence", "spec": {"p": 2.0}, **params}
        assert cli.validate_config({"kind": "stable", "seed": 1, "params": params}) == [diag]

    @pytest.mark.parametrize("check", ["cf", "tail", "identity"])
    def test_stable_single_law_checks_need_spec(self, check):
        diags = cli.validate_config({"kind": "stable", "seed": 1, "params": {"check": check}})
        assert diags == ["stable: missing params.spec.p"] + (["stable: missing params.p1"] if check == "tail" else [])

    @pytest.mark.parametrize(
        "params, diags",
        [
            ({"check": "tail", "spec": {"p": 1.8}}, ["stable: missing params.p1"]),
            ({"check": "constants", "p": 1.8}, ["stable: missing params.delta"]),
            ({"check": "constants", "delta": 0.8}, ["stable: missing params.p"]),
            ({"check": "constants"}, ["stable: missing params.delta", "stable: missing params.p"]),
        ],
    )
    def test_stable_missing_scalar_params_exit_2(self, tmp_path, capsys, params, diags):
        config = {"kind": "stable", "seed": 1, "out": str(tmp_path / "out"), "params": params}
        assert cli.validate_config(config) == diags
        path = write(tmp_path / "c.json", config)
        assert cli.main(["stable", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert all(d in err for d in diags)
        assert not (tmp_path / "out").exists()

    def test_stable_mean_convergence_without_spec_runs(self, tmp_path):
        config = write(
            tmp_path / "c.json",
            {
                "kind": "stable",
                "seed": 3,
                "out": str(tmp_path / "out"),
                "params": {"check": "mean_convergence", "specs": [{"p": 1.6}, {"p": 1.8}],
                           "limit": {"p": 2.0}, "n": 2000},
            },
        )
        assert cli.main(["stable", "--config", str(config)]) == cli.EXIT_OK
        assert len(list((tmp_path / "out").glob("stable-*.json"))) == 1

    def test_validate_subcommand_prints_diagnostics(self, tmp_path, capsys):
        # a config with diagnostics exits as a run of it would
        path = write(tmp_path / "c.json", {"kind": "norms", "seed": 1, "params": {}})
        code = cli.main(["validate", "--config", str(path)])
        assert code == cli.EXIT_CONFIG_ERROR
        out = json.loads(capsys.readouterr().out)
        assert any("measure" in d for d in out)

    def test_validate_subcommand_passes_a_runnable_config(self, tmp_path, capsys):
        code = cli.main(["validate", "--config", str(norms_config(tmp_path))])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == []


class TestRun:
    def test_norms_two_point(self, tmp_path, capsys):
        path = norms_config(tmp_path)
        code = cli.main(["norms", "--config", str(path)])
        assert code == 0
        report_path = next((tmp_path / "out").glob("norms-*.json"))
        report = json.loads(report_path.read_text())
        values = {c["name"]: c.get("value") for c in report["checks"]}
        assert values["kr"] == 2.0
        assert values["k"] == 3.0
        assert values["oracle_bounded"] == 2.0
        assert report["overall_verdict"] == "PASS"
        assert report["tool_version"]

    def test_counterexample_run(self, tmp_path):
        config = write(
            tmp_path / "c.json",
            {
                "kind": "counterexample",
                "seed": 1,
                "out": str(tmp_path / "out"),
                "params": {"matrix": [[2.0, 1.0]], "epsilon": 1e-6},
            },
        )
        code = cli.main(["counterexample", "--config", str(config)])
        assert code == 0
        report = json.loads(next((tmp_path / "out").glob("*.json")).read_text())
        assert report["payload"]["max_residual"] <= 1e-12
        assert report["payload"]["barycenter_l1_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_schedule_run(self, tmp_path):
        config = write(
            tmp_path / "c.json",
            {
                "kind": "schedule",
                "seed": 1,
                "out": str(tmp_path / "out"),
                "params": {"family": "geometric", "depth": 8, "n_max": 6},
            },
        )
        assert cli.main(["schedule", "--config", str(config)]) == 0
        report = json.loads(next((tmp_path / "out").glob("*.json")).read_text())
        assert report["payload"]["boundaries"][:3] == [5, 11, 45]

    def test_schedule_from_tail_samples(self, tmp_path):
        # sampled tail functions: schedule constructed, certificates skipped
        samples = [[m, (m + 2.0) * 2.0**-m] for m in range(1, 40)]
        config = write(
            tmp_path / "c.json",
            {
                "kind": "schedule",
                "seed": 1,
                "out": str(tmp_path / "out"),
                "params": {"tails": [{"n": 1, "samples": samples}, {"n": 2, "samples": samples}]},
            },
        )
        assert cli.main(["schedule", "--config", str(config)]) == 0
        report = json.loads(next((tmp_path / "out").glob("*.json")).read_text())
        assert report["payload"]["boundaries"][:2] == [5, 11]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["norms", "--config", str(bad)]) == cli.EXIT_CONFIG_ERROR
        assert not list(tmp_path.glob("out/*"))

    def test_malformed_coords_exits_3(self, tmp_path, capsys):
        doc = {"points": ["a"], "metrics": {"d": [["0"]]}, "coords": 5, "weights": ["1"]}
        measure_path = write(tmp_path / "measure.json", doc)
        config = write(
            tmp_path / "c.json",
            {
                "kind": "norms",
                "seed": 1,
                "out": str(tmp_path / "out"),
                "params": {"measure": measure_path.name, "metric": "d"},
            },
        )
        assert cli.main(["norms", "--config", str(config)]) == cli.EXIT_INPUT_ERROR
        assert "malformed measure file" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*"))

    def test_invalid_schema_exits_2(self, tmp_path):
        config = write(tmp_path / "c.json", {"kind": "norms", "seed": 1, "params": {}})
        assert cli.main(["norms", "--config", str(config)]) == cli.EXIT_CONFIG_ERROR

    def test_missing_input_exits_3(self, tmp_path):
        config = write(
            tmp_path / "c.json",
            {
                "kind": "norms",
                "seed": 1,
                "out": str(tmp_path / "out"),
                "params": {"measure": "absent.json", "metric": "d"},
            },
        )
        assert cli.main(["norms", "--config", str(config)]) == cli.EXIT_INPUT_ERROR

    def test_check_failure_exits_1(self, tmp_path):
        config = write(
            tmp_path / "c.json",
            {
                "kind": "schedule",
                "seed": 1,
                "out": str(tmp_path / "out"),
                "params": {"family": "geometric", "depth": 2, "horizon": 3},
            },
        )
        # horizon too small for the first threshold search
        assert cli.main(["schedule", "--config", str(config)]) == cli.EXIT_CHECK_FAILED

    def test_kind_mismatch_rejected(self, tmp_path):
        path = norms_config(tmp_path)
        assert cli.main(["schedule", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR

    def test_reports_are_append_only(self, tmp_path):
        path = norms_config(tmp_path)
        assert cli.main(["norms", "--config", str(path)]) == 0
        assert cli.main(["norms", "--config", str(path)]) == 0
        reports = sorted((tmp_path / "out").glob("norms-*.json"))
        assert len(reports) == 2

    def test_fresh_path_reserves_distinct_names(self, tmp_path):
        first = cli._fresh_path(tmp_path, "norms-x", ".json")
        second = cli._fresh_path(tmp_path, "norms-x", ".json")
        assert first != second
        assert first.exists() and second.exists()


def wq_run(tmp_path, change=None):
    """Run ``[kq, wq]`` on two files that carry the same 3-point space, but
    for ``change`` applied to the second."""
    def doc(weights):
        return {
            "points": ["a", "b", "c"],
            "metrics": {"d": [["0", "1.5", "2"], ["1.5", "0", "1"], ["2", "1", "0"]]},
            "anchor": 1,
            "coords": [["0", "0"], ["1.5", "0"], ["2", "1"]],
            "weights": weights,
        }

    nu = doc(["0.25", "0.25", "0.5"])
    if change == "ulp":
        nu["metrics"]["d"][0][1] = repr(math.nextafter(1.5, 2.0))
    elif change == "coords":
        nu["coords"][2][1] = "1.25"
    elif change == "anchor":
        nu["anchor"] = 0
    elif change == "triangle":
        nu["metrics"]["d"][0][2] = nu["metrics"]["d"][2][0] = "3"
    elif change == "other text":
        nu["metrics"]["d"][0][1] = nu["metrics"]["d"][1][0] = "1.50"
    tmp_path.mkdir(exist_ok=True)
    write(tmp_path / "mu.json", doc(["0.5", "0.25", "0.25"]))
    write(tmp_path / "nu.json", nu)
    config = {
        "kind": "norms",
        "seed": 3,
        "out": str(tmp_path / "out"),
        "params": {"measure": "mu.json", "other_measure": "nu.json", "metric": "d",
                   "ops": ["kq", "wq"], "q": 2},
    }
    return cli.run(config, base=tmp_path)


class TestOtherMeasure:
    def test_same_space_validated_once(self, tmp_path, monkeypatch):
        shared = []
        solve = transport.wasserstein_q

        def spy(mu, nu, *args):
            shared.append(nu.space is mu.space)
            return solve(mu, nu, *args)

        monkeypatch.setattr(transport, "wasserstein_q", spy)
        code, report, _ = wq_run(tmp_path)
        assert code == cli.EXIT_OK and shared == [True]
        assert report["checks"][1]["value"] == pytest.approx(math.sqrt(0.25 * 1.5**2 + 0.25 * 1.0**2))

    def test_same_space_in_other_text_built_in_full(self, tmp_path, monkeypatch):
        shared = []
        solve = transport.wasserstein_q

        def spy(mu, nu, *args):
            shared.append(nu.space is mu.space)
            return solve(mu, nu, *args)

        monkeypatch.setattr(transport, "wasserstein_q", spy)
        _, _, same = wq_run(tmp_path / "same")
        code, _, other = wq_run(tmp_path / "other", "other text")
        assert code == cli.EXIT_OK and shared == [True, False]
        assert written_body(other) == written_body(same)

    def test_coords_are_not_compared_by_wq(self, tmp_path):
        _, _, same = wq_run(tmp_path / "same")
        code, _, moved = wq_run(tmp_path / "moved", "coords")
        assert code == cli.EXIT_OK
        assert written_body(moved) == written_body(same)

    @pytest.mark.parametrize("change", ["ulp", "anchor"])
    def test_other_space_rejected(self, tmp_path, change):
        with pytest.raises(ValueError, match="^measures live on different spaces$"):
            wq_run(tmp_path, change)

    def test_other_space_validated(self, tmp_path):
        with pytest.raises(cli.InputDataError, match=r"^metric 'd': triangle inequality fails at pair \(0, 2\)$"):
            wq_run(tmp_path, "triangle")


class TestDeterminism:
    def test_identical_reports_modulo_wall_clock(self, tmp_path):
        config = write(
            tmp_path / "c.json",
            {
                "kind": "stable",
                "seed": 99,
                "out": str(tmp_path / "out"),
                "params": {"check": "cf", "spec": {"p": 1.5}, "n": 20000},
            },
        )
        assert cli.main(["stable", "--config", str(config)]) == 0
        assert cli.main(["stable", "--config", str(config)]) == 0
        a, b = sorted((tmp_path / "out").glob("stable-*.json"))
        assert strip_wall_clock(a.read_text()) == strip_wall_clock(b.read_text())

    def test_convergence_report_is_one_tau_k_check(self, tmp_path):
        seq_doc = {
            "points": ["x0", "x1", "x2"],
            "metrics": {
                "d": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
                "e": [["0", "2", "4"], ["2", "0", "2"], ["4", "2", "0"]],
            },
            "anchor": 0,
            "weights_sequence": [["0.5", "0.5", "0"], ["0.9", "0.1", "0"], ["1", "0", "0"]],
            "limit_weights": ["1", "0", "0"],
        }
        seq_path = write(tmp_path / "seq.json", seq_doc)
        config = write(
            tmp_path / "c.json",
            {
                "kind": "convergence",
                "seed": 5,
                "out": str(tmp_path / "out"),
                "params": {"sequence": seq_path.name, "q": 1.0},
            },
        )
        assert cli.main(["convergence", "--config", str(config)]) == 0
        payload = json.loads(next((tmp_path / "out").glob("convergence-*.json")).read_text())["payload"]

        space = space_from_dict(seq_doc)
        seq = MeasureSequence(
            space,
            tuple(space.measure([float(x) for x in row]) for row in seq_doc["weights_sequence"]),
            limit=space.measure([float(x) for x in seq_doc["limit_weights"]]),
        )
        expected = check_tau_k_convergence(seq, ["d", "e"], q=1.0)
        assert [m["metric"] for m in payload["per_metric"]] == ["d", "e"]
        for got, rec in zip(payload["per_metric"], expected.per_metric):
            assert got["metric"] == rec.metric_name
            assert got["kr_gaps"] == list(rec.kr_gaps)
            assert got["k_gaps"] == list(rec.k_gaps)
            assert got["verdict"] == rec.verdict
        assert payload["verdict"] == expected.verdict

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_convergence_witness_reuses_the_last_k_gap(self, tmp_path, monkeypatch, q):
        seq_doc = {
            "points": ["x0", "x1", "x2"],
            "metrics": {
                "d": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
                "e": [["0", "2", "4"], ["2", "0", "2"], ["4", "2", "0"]],
            },
            "anchor": 0,
            "weights_sequence": [["0.5", "0.5", "0"], ["0.9", "0", "0.1"]],
            "limit_weights": ["1", "0", "0"],
        }
        seq_path = write(tmp_path / "seq.json", seq_doc)
        config = {
            "kind": "convergence",
            "seed": 5,
            "out": str(tmp_path / "out"),
            "params": {"sequence": seq_path.name, "q": q},
        }
        calls = []
        k_norm = transport.k_norm

        def spy(mu, name):
            calls.append(name)
            return k_norm(mu, name)

        monkeypatch.setattr(transport, "k_norm", spy)
        code, report, _ = cli.run(config, base=tmp_path)
        assert code == cli.EXIT_OK and calls == []
        space = space_from_dict(seq_doc)
        delta = space.measure([0.9, 0.0, 0.1]) - space.measure([1.0, 0.0, 0.0])
        gaps = {rec["metric"]: rec["k_gaps"][-1] for rec in report["payload"]["per_metric"]}
        for got in report["payload"]["witnesses"]:
            assert got["index"] == 1
            gap, witness = k_norm(delta, got["metric"]) if q == 1 else transport.kq_norm(delta, got["metric"], q)
            assert got["potential"] == witness.values.tolist()
            assert gap == gaps[got["metric"]]
            achieved = gap - abs(delta.total_mass) if q == 1 else gap
            potential = np.array(got["potential"])
            transport.LipschitzWitness(got["metric"], potential, achieved, witness.mode, witness.q).validate(delta)

    def test_seed_override_changes_hash(self, tmp_path):
        path = norms_config(tmp_path)
        assert cli.main(["norms", "--config", str(path), "--seed", "8"]) == 0
        assert cli.main(["norms", "--config", str(path), "--seed", "9"]) == 0
        assert len(list((tmp_path / "out").glob("norms-*.json"))) == 2


_LINE = {
    "points": ["x0", "x1", "x2", "x3"],
    "metrics": {"d": [["0", "1", "2", "4"], ["1", "0", "1", "3"], ["2", "1", "0", "2"], ["4", "3", "2", "0"]]},
    "anchor": 0,
    "coords": [["0"], ["1"], ["2"], ["4"]],
}
_SIGNED = {**_LINE, "weights": ["0.5", "-0.25", "0", "-0.125"]}
_MU = {**_LINE, "weights": ["0.5", "0.25", "0", "0.25"]}
_NU = {**_LINE, "weights": ["0.25", "0.25", "0.5", "0"]}
_SEQUENCE = {
    **_LINE,
    "weights_sequence": [["0.5", "0.5", "0", "0"], ["0.875", "0", "0.125", "0"], ["1", "0", "0", "0"]],
    "limit_weights": ["1", "0", "0", "0"],
}
#: ``_SEQUENCE`` ending off its limit, so the last gap's witness is not zero
_SEQUENCE_OFF = {**_SEQUENCE,
                 "weights_sequence": [*_SEQUENCE["weights_sequence"][:2], ["0.999999999", "0", "0", "1e-9"]]}
_GAUSS = {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}
_X = {"coeffs_1d": [0.0, 1.0]}
_ONE = {"degree": 0, "terms": [[[0], 1.0]]}

#: One small config per kind, ``norms`` op and Monte-Carlo check, with the
#: exit code, the sha256 (first 16 hex digits) of the report without its
#: ``wall_clock_s`` line, and that of each curve file by curve name.
PINNED = {
    "norms[default]": (
        {"kind": "norms", "params": {"measure": _SIGNED, "metric": "d"}},
        0,
        {"report": "7fff0a6cd24a4d67"},
    ),
    "norms[kr]": (
        {"kind": "norms", "params": {"measure": _SIGNED, "metric": "d", "ops": ["kr"]}},
        0,
        {"report": "748b1d030bbd5612"},
    ),
    "norms[k]": (
        {"kind": "norms", "params": {"measure": _SIGNED, "metric": "d", "ops": ["k"]}},
        0,
        {"report": "0b3a7e1c32a9e5dd"},
    ),
    "norms[kq]": (
        {"kind": "norms", "params": {"measure": _SIGNED, "metric": "d", "ops": ["kq"], "q": 2.5}},
        0,
        {"report": "d529b8d79167e2bb"},
    ),
    "norms[wq]": (
        {"kind": "norms", "params": {"measure": _MU, "metric": "d", "ops": ["wq"], "q": 2, "other_measure": _NU}},
        0,
        {"report": "b5f7d74ca1015953"},
    ),
    "norms[oracle]": (
        {"kind": "norms", "params": {"measure": _SIGNED, "metric": "d", "ops": ["oracle"]}},
        0,
        {"report": "ef086a33cef5f877"},
    ),
    "convergence[q=1]": (
        {"kind": "convergence", "params": {"sequence": _SEQUENCE, "weak_gap": True, "barycenters": True}},
        0,
        {"report": "91a823349e73f284", "tail_d": "bcb5b86d4d56f5bc"},
    ),
    "convergence[q=2]": (
        {"kind": "convergence", "params": {"sequence": _SEQUENCE_OFF, "q": 2.0, "metrics": ["d"]}},
        0,
        {"report": "6e5e9b7d656e833a", "tail_d": "385cf8e4761d67f4"},
    ),
    "counterexample": (
        {"kind": "counterexample", "params": {"matrix": [[2.0, 1.0]], "epsilon": 1e-6}},
        0,
        {"report": "7a9653a3a868b336"},
    ),
    "schedule[family]": (
        {"kind": "schedule", "params": {"family": "geometric", "depth": 8, "n_max": 6}},
        0,
        {"report": "230fd1d53c698f0f"},
    ),
    "schedule[tails]": (
        {"kind": "schedule", "params": {"tails": [{"n": 1, "samples": [[0, 1.0], [2, 0.01]]},
                                                  {"n": 2, "samples": [[0, 1.0], [4, 0.001]]}], "horizon": 64}},
        0,
        {"report": "2a82b7b068e16c56"},
    ),
    "schedule[infeasible]": (
        {"kind": "schedule", "params": {"tails": [{"n": 1, "samples": [[0, 1.0], [2, 0.5]]}], "horizon": 64}},
        1,
        {"report": "7b2ad403cd7d3724"},
    ),
    "logconcave[borell]": (
        {"kind": "logconcave", "params": {"check": "borell", "spec": _GAUSS, "c": 1.0, "ts": [1.0, 2.0], "n": 5000}},
        0,
        {"report": "eababd6924d550b2", "tail": "66ff8fd3b4099c7b"},
    ),
    "logconcave[small_value]": (
        {"kind": "logconcave", "params": {"check": "small_value", "spec": _GAUSS, "poly": _X, "n": 5000}},
        0,
        {"report": "f02df836597d0ca7", "small_value": "c411411f2ce976be"},
    ),
    "logconcave[lp_equivalence]": (
        {"kind": "logconcave", "params": {"check": "lp_equivalence", "spec": _GAUSS,
                                          "polys": [_X, {"degree": 2, "terms": [[[0], 1.0], [[2], 1.0]]}],
                                          "n": 5000}},
        0,
        {"report": "e9f3e4c9b61e2d70"},
    ),
    "logconcave[mean_convergence]": (
        {"kind": "logconcave", "params": {"check": "mean_convergence",
                                          "specs": [{**_GAUSS, "mean": [0.5]}, _GAUSS],
                                          "limit": _GAUSS, "n": 5000}},
        0,
        {"report": "edf6ac4013631d4c"},
    ),
    "logconcave[polynomial_density]": (
        {"kind": "logconcave", "params": {"check": "polynomial_density", "specs": [{**_GAUSS, "mean": [0.25]}],
                                          "densities": [_ONE], "limit_barycenter": [0.25], "n": 5000}},
        0,
        {"report": "9db528d1cfc01979"},
    ),
    "stable[cf]": (
        {"kind": "stable", "params": {"check": "cf", "spec": {"p": 1.8}, "n": 5000}},
        0,
        {"report": "f9e98e2e7e0f148f", "cf": "12332e5ec1836c04"},
    ),
    "stable[tail]": (
        {"kind": "stable", "params": {"check": "tail", "spec": {"p": 1.5}, "p1": 1.4, "n": 5000}},
        0,
        {"report": "b411bc6855e1258a", "tail": "cd4518cc1b1bc700"},
    ),
    "stable[constants]": (
        {"kind": "stable", "params": {"check": "constants", "delta": 0.8, "p": 1.5}},
        0,
        {"report": "4058892a6cefd579"},
    ),
    "stable[identity]": (
        {"kind": "stable", "params": {"check": "identity", "spec": {"p": 1.5}, "n": 5000}},
        0,
        {"report": "cb490077aca61579", "cf_pair": "476f6d8fed2361a9"},
    ),
    "stable[mean_convergence]": (
        {"kind": "stable", "params": {"check": "mean_convergence", "specs": [{"p": 1.6}, {"p": 1.8}],
                                      "limit": {"p": 2.0}, "n": 2000}},
        0,
        {"report": "09699ae2a243d0ae"},
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_digests(config, tmp_path):
    """Exit code, report digest and curve digests of one ``cli.run``."""
    code, _, path = cli.run({"seed": 11, **copy.deepcopy(config)}, base=tmp_path)
    curves = {
        csv.name[len(path.stem) + 1 : -len(".csv")]: _sha(csv.read_text())
        for csv in sorted(path.parent.glob(f"{path.stem}-*.csv"))
    }
    return code, _sha(strip_wall_clock(path.read_text())), curves


def _certified(config) -> list[str]:
    """The certificates a report of ``config`` writes."""
    params = config["params"]
    if config["kind"] == "convergence":
        return [f"witnesses[{name}]" for name in params.get("metrics", params["sequence"]["metrics"])]
    if config["kind"] != "norms":
        return []
    names = {"kr": "kr_witness", "k": "k_witness", "kq": "kq_witness", "wq": "coupling"}
    return [names[op] for op in params.get("ops", cli.DEFAULT_OPS) if op in names]


def _moment_weighted(mu, metric, q):
    """mu weighted by (1 + d(., x0)^q), for a witness of kq to be validated
    as a plain bounded witness."""
    return mu.space.measure(mu.weights * (1.0 + mu.space.anchor_distances(metric) ** q))


def validate_certificates(config, report) -> list[str]:
    """Rebuild each certificate a written report holds and validate it
    against the report's own inputs: its measures, sequence and values.
    Returns the names of the certificates validated."""
    params, payload = config["params"], report["payload"]
    values = {check["name"]: check.get("value") for check in report["checks"]}
    done = []
    if config["kind"] == "convergence":
        doc = params["sequence"]
        space = space_from_dict(doc)
        limit = space.measure([float(x) for x in doc["limit_weights"]])
        q = payload["q"]
        gaps = {rec["metric"]: rec["k_gaps"] for rec in payload["per_metric"]}
        for wit in payload["witnesses"]:
            name, i = wit["metric"], wit["index"]
            delta = space.measure([float(x) for x in doc["weights_sequence"][i]]) - limit
            potential = np.array(wit["potential"])
            if q == 1:
                witness = transport.LipschitzWitness(name, potential, gaps[name][i] - abs(delta.total_mass), "anchored")
                witness.validate(delta)
            else:
                witness = transport.LipschitzWitness(name, potential, gaps[name][i], "bounded")
                witness.validate(_moment_weighted(delta, name, q))
            done.append(f"witnesses[{name}]")
        return done
    mu = measure_from_dict(params["measure"])
    metric = params["metric"]
    for key in payload:
        if key == "coupling":
            q = float(params["q"])
            nu = measure_from_dict(params["other_measure"])
            coupling = transport.Coupling(metric, q, np.array(payload[key]), values[f"wq[q={q:g}]"] ** q)
            coupling.validate(mu, nu)
        elif key == "kq_witness":
            q = float(params["q"])
            witness = transport.LipschitzWitness(metric, np.array(payload[key]), values[f"kq[q={q:g}]"], "bounded")
            witness.validate(_moment_weighted(mu, metric, q))
        elif key in ("kr_witness", "k_witness"):
            op = key[: -len("_witness")]
            achieved = values[op] - (abs(mu.total_mass) if op == "k" else 0.0)
            mode = "anchored" if op == "k" else "bounded"
            transport.LipschitzWitness(metric, np.array(payload[key]), achieved, mode).validate(mu)
        else:
            continue
        done.append(key)
    return done


class TestPinnedReports:
    """Every report and curve file of every kind, op and check, byte for byte."""

    @pytest.mark.parametrize("case", list(PINNED))
    def test_report_bytes(self, tmp_path, case):
        config, code, digests = PINNED[case]
        got_code, report, curves = run_digests(config, tmp_path)
        assert got_code == code
        assert {"report": report, **curves} == digests

    @pytest.mark.parametrize("case", [case for case, (config, _, _) in PINNED.items() if _certified(config)])
    def test_every_certificate_validates(self, tmp_path, case):
        config = {"seed": 11, **copy.deepcopy(PINNED[case][0])}
        _, _, path = cli.run(config, base=tmp_path)
        written = validate_certificates(config, json.loads(path.read_text()))
        assert sorted(written) == sorted(_certified(config))

    def test_pins_cover_every_kind_op_and_check(self):
        assert {case.split("[")[0] for case in PINNED} == set(cli.KINDS)
        covered = {(config["kind"], name) for config, _, _ in PINNED.values()
                   for name in config["params"].get("ops", [config["params"].get("check")])}
        assert {("norms", op) for op in cli._NORM_OPS} <= covered
        assert {("logconcave", check) for check in cli._LOGCONCAVE_CHECKS} <= covered
        assert {("stable", check) for check in cli._STABLE_CHECKS} <= covered


def _escaping(n):
    """Mass 1/k at distance k from the anchor, k = 1..n, and the limit at the
    anchor: the moment 1 never leaves, so uniform integrability fails."""
    far = {"points": [f"x{i}" for i in range(n + 1)],
           "metrics": {"d": [[str(abs(i - j)) for j in range(n + 1)] for i in range(n + 1)]}, "anchor": 0}
    rows = [[repr(1 - 1 / k)] + ["0"] * (k - 1) + [repr(1 / k)] + ["0"] * (n - k) for k in range(1, n + 1)]
    return {**far, "weights_sequence": rows, "limit_weights": ["1"] + ["0"] * n}


class TestVerdictRule:
    """A run fails, with exit 1, exactly when some check's verdict is FAIL or
    VIOLATION; an UI_FAIL or EXPECTED_FAIL check is recorded and the run passes."""

    @pytest.mark.parametrize(
        "config, verdict, code",
        [
            # an order p below p1 violates the hypothesis, so the failed slope is expected
            ({"kind": "stable", "params": {"check": "tail", "spec": {"p": 1.2}, "p1": 1.9, "n": 20000}},
             "EXPECTED_FAIL", cli.EXIT_OK),
            ({"kind": "convergence", "params": {"sequence": _escaping(16)}}, "UI_FAIL", cli.EXIT_OK),
            # a constant sequence on a bounded space cannot converge to another measure
            ({"kind": "convergence", "params": {"sequence": {
                **_LINE, "weights_sequence": [["1", "0", "0", "0"]] * 3, "limit_weights": ["0", "1", "0", "0"]}}},
             "VIOLATION", cli.EXIT_CHECK_FAILED),
            ({"kind": "counterexample", "params": {"matrix": [[3.0, 7.0]], "epsilon": 1e-20}},
             "FAIL", cli.EXIT_CHECK_FAILED),
        ],
        ids=["expected_fail", "ui_fail", "violation", "fail"],
    )
    def test_only_fail_and_violation_fail_the_run(self, tmp_path, capsys, config, verdict, code):
        path = write(tmp_path / "c.json", {**config, "seed": 3, "out": str(tmp_path / "out")})
        assert cli.main([config["kind"], "--config", str(path)]) == code
        report = json.loads(next((tmp_path / "out").glob("*.json")).read_text())
        verdicts = {check["verdict"] for check in report["checks"]}
        assert verdict in verdicts and verdicts <= {"PASS", verdict}
        assert report["overall_verdict"] == ("PASS" if code == cli.EXIT_OK else "FAIL")
        assert f": {verdict}\n" in capsys.readouterr().out


class Reached(Exception):
    pass


#: The module that defines each function a dispatch entry calls.
DEFINED_IN = {
    **dict.fromkeys(("kr_norm", "k_norm", "kq_norm", "wasserstein_q", "brute_force_dual"), "transport"),
    "measure_from_dict": "measures",
    **dict.fromkeys(("write_curve_csv", "dump_json"), "reports"),
    **dict.fromkeys(("check_tau_k_convergence", "weak_gap", "barycenter_convergence"), "convergence"),
    **dict.fromkeys(("l1_counterexample", "verify_counterexample", "family_tail_functions", "rescaling_schedule",
                     "verify_schedule"), "counterexamples"),
    **dict.fromkeys(("check_borell", "small_value_check", "lp_equivalence_check", "mean_convergence_experiment",
                     "polynomial_density_experiment"), "logconcave"),
    **dict.fromkeys(("validate_sampler", "stable_tail_check", "tail_constants", "stability_identity_check",
                     "stable_mean_convergence_experiment"), "stable"),
}


class TestDispatchLooksUpGlobals:
    """Each table entry reads the experiment function off its defining module
    when it runs, so a wrapper patched into that module (a span tracer's, a
    test's) is the one called."""

    @pytest.mark.parametrize(
        "case, name",
        [
            ("norms[kr]", "kr_norm"),
            ("norms[k]", "k_norm"),
            ("norms[kq]", "kq_norm"),
            ("norms[wq]", "wasserstein_q"),
            ("norms[oracle]", "brute_force_dual"),
            ("norms[wq]", "measure_from_dict"),
            ("convergence[q=1]", "check_tau_k_convergence"),
            ("convergence[q=1]", "weak_gap"),
            ("convergence[q=1]", "barycenter_convergence"),
            ("convergence[q=1]", "write_curve_csv"),
            ("counterexample", "l1_counterexample"),
            ("counterexample", "verify_counterexample"),
            ("counterexample", "dump_json"),
            ("schedule[family]", "family_tail_functions"),
            ("schedule[family]", "rescaling_schedule"),
            ("schedule[family]", "verify_schedule"),
            ("logconcave[borell]", "check_borell"),
            ("logconcave[small_value]", "small_value_check"),
            ("logconcave[lp_equivalence]", "lp_equivalence_check"),
            ("logconcave[mean_convergence]", "mean_convergence_experiment"),
            ("logconcave[polynomial_density]", "polynomial_density_experiment"),
            ("stable[cf]", "validate_sampler"),
            ("stable[tail]", "stable_tail_check"),
            ("stable[constants]", "tail_constants"),
            ("stable[identity]", "stability_identity_check"),
            ("stable[mean_convergence]", "stable_mean_convergence_experiment"),
        ],
    )
    def test_patched_binding_is_called(self, tmp_path, monkeypatch, case, name):
        def stub(*args, **kwargs):
            raise Reached(name)

        monkeypatch.setattr(importlib.import_module(f"kantorovich_lab.{DEFINED_IN[name]}"), name, stub)
        with pytest.raises(Reached):
            cli.run({"seed": 11, **copy.deepcopy(PINNED[case][0])}, base=tmp_path)


def _norms(**params):
    return {"kind": "norms", "seed": 1, "params": {"measure": "m.json", "metric": "d", **params}}


class TestMalformedConfigs:
    @pytest.mark.parametrize(
        "config, diags",
        [
            (_norms(ops=5), ["norms: params.ops must be a list of op names"]),
            (_norms(ops="k"), ["norms: params.ops must be a list of op names"]),
            (_norms(ops=["k", ["kq"], 3]), ["norms: unknown ops [['kq'], 3]"]),
            (_norms(ops=["kq"], q=True), ["norms: params.q must be a real number >= 1"]),
            (_norms(ops=["wq", "kq"]),
             ["norms: missing params.q for kq/wq", "norms: missing params.other_measure for wq"]),
            ({"kind": "convergence", "seed": 1, "params": {"sequence": "s.json", "q": True}},
             ["convergence: params.q must be a real number >= 1"]),
            ({"kind": "stable", "seed": 1, "params": {"check": ["cf"]}}, ["stable: unknown or missing check ['cf']"]),
            ({"kind": "logconcave", "seed": 1, "params": {"check": {"borell": 1}}},
             ["logconcave: unknown or missing check {'borell': 1}"]),
        ],
    )
    def test_diagnosed_and_exit_2(self, tmp_path, capsys, config, diags):
        assert cli.validate_config(config) == diags
        path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
        assert cli.main([config["kind"], "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {'; '.join(diags)}\n"
        assert not (tmp_path / "out").exists()

    def test_unhashable_kind_is_unknown(self):
        assert cli.validate_config({"kind": ["norms"], "seed": 1, "params": {}}) == [
            f"unknown kind ['norms']; expected one of {list(cli.KINDS)}"
        ]

    @pytest.mark.parametrize("doc", [[1], "norms", 3, None])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, doc):
        path = write(tmp_path / "c.json", doc)
        assert cli.main(["norms", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def _borell(**params):
    return {"kind": "logconcave", "seed": 1,
            "params": {"check": "borell", "spec": _GAUSS, "c": 1.0, "n": 1000, **params}}


def _small_value(**params):
    return {"kind": "logconcave", "seed": 1,
            "params": {"check": "small_value", "spec": _GAUSS, "poly": _X, "n": 1000, **params}}


class TestMalformedParams:
    """Parameters that used to pass silently or end in a traceback: each is
    diagnosed and exits 2, before anything is read or run."""

    @pytest.mark.parametrize(
        "config, diags",
        [
            (_norms(ops=["kq"], q=math.nan), ["norms: params.q must be a real number >= 1"]),
            (_norms(ops=["wq"], q=math.nan, other_measure="m.json"), ["norms: params.q must be a real number >= 1"]),
            ({"kind": "convergence", "seed": 1, "params": {"sequence": "s.json", "q": math.nan}},
             ["convergence: params.q must be a real number >= 1"]),
            ({"kind": "convergence", "seed": 1, "params": {"sequence": "s.json", "metrics": 5}},
             ["convergence: params.metrics must be a list of metric names"]),
            ({"kind": "convergence", "seed": 1, "params": {"sequence": "s.json", "metrics": "de"}},
             ["convergence: params.metrics must be a list of metric names"]),
            ({"kind": "convergence", "seed": 1, "params": {"sequence": "s.json", "metrics": ["d", 1]}},
             ["convergence: params.metrics must be a list of metric names"]),
            (_borell(ts=3), ["logconcave: params.ts must be a list of real numbers >= 1"]),
            (_borell(ts=[1.0, "2"]), ["logconcave: params.ts must be a list of real numbers >= 1"]),
            (_borell(ts=[1.0, None]), ["logconcave: params.ts must be a list of real numbers >= 1"]),
            # the bound is stated for t >= 1: refused before the draws, not after them
            (_borell(ts=[0.5, 2.0]), ["logconcave: params.ts must be a list of real numbers >= 1"]),
            # a radius <= 0 ended in a TypeError from the complex bound r ** 0.5 (degree 2),
            # FAILed the bound (degree 1, r < 0) or PASSed comparing 0 with 0 (r = 0)
            (_small_value(rs=[-1.0, 0.1, 0.2], poly={"coeffs_1d": [0.0, 0.0, 1.0]}),
             ["logconcave: params.rs must be a list of real numbers > 0"]),
            (_small_value(rs=[-1.0, 0.1, 0.2]), ["logconcave: params.rs must be a list of real numbers > 0"]),
            (_small_value(rs=[0.0, 0.1, 0.2]), ["logconcave: params.rs must be a list of real numbers > 0"]),
            # a JSON integer with no finite float is not a real number
            ({"kind": "stable", "seed": 1, "params": {"check": "constants", "delta": 10**400, "p": 1.8}},
             ["stable: params.delta must be a real number in (2^-1/2, 1)"]),
            # the ranges of the stable tail constants, checked before any draw
            ({"kind": "stable", "seed": 1, "params": {"check": "tail", "spec": {"p": 1.5}, "p1": 1.4, "delta": 0.5}},
             ["stable: params.delta must be a real number in (2^-1/2, 1)"]),
            ({"kind": "stable", "seed": 1, "params": {"check": "tail", "spec": {"p": 1.5}, "p1": 0.9}},
             ["stable: params.p1 must be a real number > 1"]),
            ({"kind": "stable", "seed": 1, "params": {"check": "constants", "delta": 0.8, "p": 2.5}},
             ["stable: params.p must be a real number in (1, 2]"]),
            (_norms(ops=["kq"], q=10**400), ["norms: params.q must be a real number >= 1"]),
            (_borell(n=10**400), ["logconcave: params.n must be a positive integer"]),
            (_borell(ts=[1.0, 10**400]), ["logconcave: params.ts must be a list of real numbers >= 1"]),
            ({"kind": "counterexample", "seed": 1, "params": {"matrix": [[2**1024, 1.0]]}},
             ["counterexample: params.matrix must be a path or a list of rows of real numbers"]),
        ],
    )
    def test_diagnosed_and_exit_2(self, tmp_path, capsys, config, diags):
        assert cli.validate_config(config) == diags
        path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
        assert cli.main([config["kind"], "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {'; '.join(diags)}\n"
        assert not (tmp_path / "out").exists()


def _stable_sequence(n):
    return {"kind": "stable", "seed": 1,
            "params": {"check": "mean_convergence", "specs": [{"p": 1.6}], "limit": {"p": 2.0}, "n": n}}


def _family(**params):
    return {"kind": "schedule", "seed": 1, "params": {"family": "geometric", **params}}


class TestNothingLeftUnchecked:
    """Configs that used to report a NaN bound, or PASS with a block or all
    blocks left uncertified: each exits 2 with one diagnostic."""

    @pytest.mark.parametrize(
        "config, diag",
        [
            (_stable_sequence(8), "stable: params.n must be at least 16 (one draw per block mean)"),
            (_stable_sequence(15), "stable: params.n must be at least 16 (one draw per block mean)"),
            (_family(depth=1), "schedule: params.depth must be at least 2 for a family (a block to certify)"),
            (_family(depth=1, n_max=1), "schedule: params.depth must be at least 2 for a family (a block to certify)"),
            (_family(depth=2, n_max=1000000),
             "schedule: params.n_max must be at most depth - 1 = 1 (the last block to certify)"),
            (_family(n_max=8), "schedule: params.n_max must be at most depth - 1 = 7 (the last block to certify)"),
        ],
    )
    def test_exit_2_with_one_diagnostic(self, tmp_path, capsys, config, diag):
        assert cli.validate_config(config) == [diag]
        path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
        assert cli.main([config["kind"], "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {diag}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, checks",
        [
            (_stable_sequence(16), ["moments r=1.3 uniformly bounded", "final barycenter gap vs limit"]),
            (_family(depth=2), ["block 1"]),
            (_family(depth=2, n_max=1), ["block 1"]),
            (_family(n_max=7), [f"block {n}" for n in range(1, 8)]),
        ],
    )
    def test_the_limits_run(self, tmp_path, config, checks):
        code, report, _ = cli.run(config, base=tmp_path)
        assert code == cli.EXIT_OK
        assert [c["name"] for c in report["checks"]] == checks
        assert all(math.isfinite(c.get("bound", 0.0)) for c in report["checks"])


class TestNonFiniteSpecs:
    """A spec with a non-finite parameter exits 3 with its cause, instead of
    running on NaN draws."""

    @pytest.mark.parametrize(
        "config, cause",
        [
            (_borell(spec={"family": "gaussian", "mean": [math.nan], "cov": [[1.0]]}),
             "bad log-concave spec: mean and covariance must be finite"),
            (_borell(spec={"family": "gaussian", "mean": [0.0], "cov": [[math.inf]]}),
             "bad log-concave spec: mean and covariance must be finite"),
            (_borell(spec={"family": "uniform_box", "lo": [math.nan], "hi": [1.0]}),
             "bad log-concave spec: box bounds must be finite"),
            (_borell(spec={"family": "product_exponential", "rates": [math.nan]}),
             "bad log-concave spec: rates must be positive and finite"),
            ({"kind": "stable", "seed": 1, "params": {"check": "cf", "spec": {"p": 1.5, "a": math.nan}}},
             "bad stable spec: shift a must be finite"),
            ({"kind": "stable", "seed": 1, "params": {"check": "cf", "spec": {"p": 1.5, "c": math.inf}}},
             "bad stable spec: scale c must be positive and finite"),
        ],
    )
    def test_exit_3_with_the_cause(self, tmp_path, capsys, config, cause):
        path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
        assert cli.main([config["kind"], "--config", str(path)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"input error: {cause}\n"
        assert not (tmp_path / "out").exists()


def test_a_borell_set_holding_every_draw_passes(tmp_path):
    """On [-1, 1] the set {|x| < 1.5} holds every draw: theta is 1, its
    bound on each tail 0, and each tail is 0."""
    config = _borell(spec={"family": "uniform_box", "lo": [-1.0], "hi": [1.0]}, c=1.5, ts=[2.0])
    path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
    assert cli.main(["logconcave", "--config", str(path)]) == cli.EXIT_OK
    (report,) = [json.loads(f.read_text()) for f in (tmp_path / "out").glob("logconcave-*.json")]
    assert [(c["name"], c["verdict"]) for c in report["checks"]] == [("tail[t=2]", "PASS")]


def test_a_draw_too_large_to_hold_is_an_input_error(tmp_path, capsys, monkeypatch):
    """numpy's MemoryError for n = 10^13 draws exits 3 with its message on one
    line; the sampler is stubbed, so no test tries the allocation."""
    from kantorovich_lab import stable

    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000, 1) and data type float64"

    def refuse(spec, n, seed):
        raise MemoryError(message)

    monkeypatch.setattr(stable, "sample_stable", refuse)
    config = {"kind": "stable", "seed": 1, "out": str(tmp_path / "out"),
              "params": {"check": "cf", "spec": {"p": 1.5}, "n": 10**13}}
    path = write(tmp_path / "c.json", config)
    assert cli.main(["stable", "--config", str(path)]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_readme_lists_the_dispatch_tables():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = " ".join(text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0].split())

    def names(pattern):
        return re.findall(r"`(\w+)`", re.search(pattern, section).group(1))

    assert names(r"Kinds: (.*?)\. ") == list(cli.KINDS)
    assert names(r"`norms` ops: (.*?) \(") == list(cli._NORM_OPS)
    assert list(cli.DEFAULT_OPS) == json.loads(re.search(r"`(\[[^]]*\])` when left out", section).group(1))
    assert names(r"`logconcave` checks: (.*?);") == list(cli._LOGCONCAVE_CHECKS)
    assert names(r"`stable` checks: (.*?);") == list(cli._STABLE_CHECKS)

    rows = re.findall(r"^\| `([\w.]+)` \| `(\w+)` \| `(\w+)` \| (.+?) \|$", text, flags=re.M)
    assert rows == [(entry, f.name, f.annotation, _shown(f.default)) for entry, f in DECLARED]
    types = re.search(r" Types: (.*?) Exit code 2 ", section).group(1)
    assert set(re.findall(r"`(\w+)`: ", types)) == set(cli._TYPES)


def test_readme_lists_the_fixed_constants():
    """Each row of README's "Fixed constants of the checks" names an attribute
    that exists, and a value written as numbers is that attribute's value."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n### Fixed constants of the checks\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| (.+?) \| .+ \|$", section, flags=re.M)
    assert ("logconcave", "MOMENT_ORDERS", "1.0, 2.0") in rows
    for module, name, shown in rows:
        value = getattr(importlib.import_module(f"kantorovich_lab.{module}"), name)
        try:
            numbers = tuple(float(number) for number in shown.split(", "))
        except ValueError:  # a grid or a rule, written in words
            continue
        assert (numbers if len(numbers) > 1 else numbers[0]) == value, f"{module}.{name}"


def _shown(default) -> str:
    """A declared default as README's table writes it."""
    if default is inspect.Parameter.empty:
        return "required"
    if default is None:
        return "optional"
    return f"`{json.dumps(list(default) if isinstance(default, tuple) else default)}`"


#: Every declared params field, in declaration order, by its entry's name:
#: a kind, or ``kind.check`` for a Monte-Carlo check; ``n`` is the kind's.
DECLARED = []
for _kind, _entry in cli._RUNNERS.items():
    if isinstance(_entry, dict):
        DECLARED += [(_kind, f) for f in cli._fields(cli._draws)]
        DECLARED += [(f"{_kind}.{check}", f) for check, runner in _entry.items() for f in cli._fields(runner)]
    else:
        DECLARED += [(_kind, f) for f in cli._fields(_entry)]


def _base(entry):
    """A runnable config of ``entry``, from the pinned ones."""
    kind, _, check = entry.partition(".")
    case = check and f"{kind}[{check}]"
    case = case or next(c for c in PINNED if c.split("[")[0] == kind)
    return {"seed": 1, **copy.deepcopy(PINNED[case][0])}


#: A value of a JSON type that each field type does not take.
WRONG_TYPE = {
    "real": "1", "q": "2", "count": "5", "reals": 1.0, "positive_reals": 0.5, "reals_from_one": 2.0, "flag": 1,
    "name": 5, "metrics": "d", "ops": "kr", "seminorm": 5, "seminorms": "l2", "doc": 5, "object": "x",
    "objects": {}, "matrix": 5, "family": 5, "stable_law": "p", "stable_laws": {"p": 1.5}, "delta": "0.8",
    "above_one": "2", "order": "1.5",
}
#: Values of the JSON type a field type takes, but outside it.
OUT_OF_RANGE = {
    "q": [0.5], "count": [1.7, 0, -3], "reals": [[1.0, "2"]], "positive_reals": [[0.5, 0.0], [-1.0, 0.5]],
    "reals_from_one": [[0.0], [-1.0], [0.5, 2.0]], "metrics": [["d", 1]], "seminorm": ["nope"],
    "seminorms": [["l2", "nope"]], "objects": [[{}, 5]],
    "matrix": [[[1.0], "x"], [[1.0, math.nan]]], "family": ["nope"], "stable_law": [{"b": 0.0}],
    "stable_laws": [[{"p": 1.5}, {"b": 0.0}]], "delta": [0.5, 0.7, 1.0], "above_one": [0.9, 1.0],
    "order": [1.0, 2.5],
}
NESTED = [[[1]]]
BAD_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "true": True, "empty list": [],
              "nested list": NESTED}
#: A flag takes true; a family is a list of members, whose contents are an
#: input document's (exit 3, as ``TestInputDocuments`` shows).
TAKEN = {("flag", "true"), ("family", "nested list")}


def _bad_cases():
    for entry, f in DECLARED:
        values = {"wrong type": WRONG_TYPE[f.annotation], **BAD_VALUES}
        values.update((f"out of range {i}", v) for i, v in enumerate(OUT_OF_RANGE.get(f.annotation, [])))
        for label, value in values.items():
            if (f.annotation, label) not in TAKEN:
                yield pytest.param(entry, f.name, value, id=f"{entry}.{f.name}-{label}")


class TestDeclaredFields:
    """Every declared field of every entry is checked before anything runs."""

    def test_every_field_type_is_declared(self):
        assert {f.annotation for _, f in DECLARED} == set(cli._TYPES) == set(WRONG_TYPE)

    @pytest.mark.parametrize("entry, name, value", _bad_cases())
    def test_bad_value_exits_2(self, tmp_path, capsys, entry, name, value):
        config = _base(entry)
        assert cli.validate_config(config) == []
        config["params"][name] = value
        kind = config["kind"]
        wrong = cli._TYPES[declared_type(entry, name)].wrong.format(name)
        diag = "unknown ops [[[1]]]" if (name, value) == ("ops", NESTED) else wrong
        assert cli.validate_config(config) == [f"{kind}: {diag}"]
        path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
        assert cli.main([kind, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {kind}: {diag}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "entry, name", [(entry, f.name) for entry, f in DECLARED if f.default is inspect.Parameter.empty]
    )
    def test_required_field_left_out_exits_2(self, tmp_path, capsys, entry, name):
        config = _base(entry)
        del config["params"][name]
        diag = f"{config['kind']}: {cli._TYPES[declared_type(entry, name)].missing.format(name)}"
        assert cli.validate_config(config) == [diag]
        path = write(tmp_path / "c.json", {**config, "out": str(tmp_path / "out")})
        assert cli.main([config["kind"], "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {diag}\n"
        assert not (tmp_path / "out").exists()

    def test_integral_float_counts_run(self, tmp_path):
        config = {"seed": 3, "kind": "stable", "params": {"check": "cf", "spec": {"p": 1.5}, "n": 2000}}
        assert cli.validate_config({**config, "params": {**config["params"], "n": 1e6}}) == []
        code, exact, _ = cli.run(copy.deepcopy(config), base=tmp_path / "int")
        config["params"]["n"] = 2e3
        code_f, integral, _ = cli.run(config, base=tmp_path / "float")
        assert code == code_f == cli.EXIT_OK
        assert integral["checks"] == exact["checks"] and integral["payload"] == exact["payload"]

    @pytest.mark.parametrize("entry", sorted({entry for entry, _ in DECLARED}))
    def test_unknown_keys_are_ignored(self, entry):
        config = _base(entry)
        config["params"].update(placeholder={"p": "x"}, notes=[math.nan])
        assert cli.validate_config(config) == []


def declared_type(entry, name) -> str:
    """The type that ``entry`` (or its kind) declares for field ``name``."""
    kind = entry.split(".")[0]
    return next(f.annotation for e, f in DECLARED if e in (entry, kind) and f.name == name)


_GAUSS2 = {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}


#: x0 x1, a polynomial that reads coordinate 1.
_X0X1 = {"degree": 2, "terms": [[[1, 1], 1.0]]}


class TestMismatchedDimensions:
    """A sequence whose laws differ in dimension from the limit exits 3 before
    any draw, instead of comparing barycenters coordinate by broadcast
    coordinate (a dim-2 law against a dim-1 limit used to PASS).  So does a
    polynomial that reads a coordinate its law does not have, instead of
    ending in an IndexError."""

    @pytest.mark.parametrize(
        "kind, params, cause",
        [
            ("stable", {"check": "mean_convergence", "specs": [{"p": 1.8, "dim": 2}], "limit": {"p": 1.8, "dim": 1},
                        "n": 4096},
             "law 0 has dim 2, but the limit has dim 1"),
            ("logconcave", {"check": "mean_convergence", "specs": [_GAUSS, _GAUSS2], "limit": _GAUSS, "n": 4096},
             "law 1 has dim 2, but the limit has dim 1"),
            ("logconcave", {"check": "polynomial_density", "specs": [_GAUSS2], "densities": [{"coeffs_1d": [1.0]}],
                            "limit_barycenter": [0.0], "n": 4096},
             "law 0 has dim 2, but limit_barycenter has dim 1"),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": _X0X1, "n": 4096},
             "poly reads coordinate 1, but its law has dim 1"),
            ("logconcave", {"check": "lp_equivalence", "spec": _GAUSS, "polys": [_X, _X0X1], "n": 4096},
             "polynomial 1 reads coordinate 1, but its law has dim 1"),
            ("logconcave", {"check": "polynomial_density", "specs": [_GAUSS2, _GAUSS2],
                            "densities": [_ONE, {"degree": 1, "terms": [[[0, 0, 1], 1.0]]}],
                            "limit_barycenter": [0.0, 0.0], "n": 4096},
             "density 1 reads coordinate 2, but its law has dim 2"),
        ],
    )
    def test_exit_3_before_any_draw(self, tmp_path, capsys, monkeypatch, kind, params, cause):
        from kantorovich_lab import logconcave, stable

        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the dimensions")

        monkeypatch.setattr(stable, "sample_stable", no_draw)
        monkeypatch.setattr(logconcave, "sample", no_draw)
        config = {"kind": kind, "seed": 5, "out": str(tmp_path / "out"), "params": params}
        assert cli.validate_config(config) == []
        path = write(tmp_path / "c.json", config)
        assert cli.main([kind, "--config", str(path)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"input error: {cause}\n"
        assert not (tmp_path / "out").exists()

    def test_trailing_zero_exponents_read_nothing(self, tmp_path):
        """A term may list more exponents than its law has coordinates when
        the extra ones are 0: x0 written as [1, 0] runs as [1] does."""
        runs = []
        for exps in ([1], [1, 0]):
            poly = {"degree": 1, "terms": [[exps, 1.0]]}
            params = {"check": "small_value", "spec": _GAUSS, "poly": poly, "n": 5000}
            code, report, _ = cli.run({"kind": "logconcave", "seed": 5, "params": params}, base=tmp_path / str(exps))
            assert code == cli.EXIT_OK
            runs.append((report["checks"], report["payload"]))
        assert runs[0] == runs[1]


class TestInputDocuments:
    """A fault inside an input document exits 3 with its cause, never with a
    traceback; the config's fields themselves are well-typed."""

    @pytest.mark.parametrize(
        "kind, params, cause",
        [
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"coeffs_1d": 5}}, "bad polynomial: "),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"degree": 1, "terms": 5}},
             "bad polynomial: "),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"terms": []}}, "bad polynomial: 'degree'"),
            ("logconcave", {"check": "borell", "spec": {"family": "uniform_simplex", "dim": [2]}, "c": 1.0},
             "bad log-concave spec: "),
            ("stable", {"check": "cf", "spec": {"p": 1.5, "dim": None}}, "bad stable spec: "),
            ("stable", {"check": "cf", "spec": {"p": [1]}}, "bad stable spec: "),
            ("stable", {"check": "mean_convergence", "specs": [{"p": "x"}], "limit": {"p": 2.0}}, "bad stable spec: "),
            ("schedule", {"tails": [{"n": 1, "samples": 5}]}, "bad tail samples: "),
            ("schedule", {"tails": [{"samples": []}]}, "bad tail samples: 'n'"),
            ("schedule", {"family": [5]}, "bad schedule family member: "),
            ("schedule", {"family": NESTED}, "bad schedule family member: "),
            ("schedule", {"family": {"weights": [1.0]}}, "bad schedule family member: 'values'"),
            ("norms", {"measure": {**two_point_measure_doc(), "metrics": 5}, "metric": "d"},
             "malformed measure file: metrics must be an object of named matrices"),
            ("norms", {"measure": ".", "metric": "d"}, "cannot read input file "),
            ("counterexample", {"matrix": "matrix.json"}, "float() argument must be"),
            # an integer field takes a JSON integer only, never a float or a boolean
            ("stable", {"check": "cf", "spec": {"p": 1.5, "dim": 1.5}},
             "bad stable spec: dim must be an integer, got 1.5\n"),
            ("stable", {"check": "cf", "spec": {"p": 1.5, "dim": True}},
             "bad stable spec: dim must be an integer, got True\n"),
            ("stable", {"check": "cf", "spec": {"p": 1.5, "dim": 1.0}},
             "bad stable spec: dim must be an integer, got 1.0\n"),
            ("logconcave", {"check": "borell", "spec": {"family": "uniform_simplex", "dim": 2.7}, "c": 1.0},
             "bad log-concave spec: dim must be an integer, got 2.7\n"),
            ("logconcave", {"check": "borell", "spec": {"family": "uniform_simplex", "dim": True}, "c": 1.0},
             "bad log-concave spec: dim must be an integer, got True\n"),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"degree": 1.5, "terms": []}},
             "bad polynomial: degree must be an integer, got 1.5\n"),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"degree": False, "terms": []}},
             "bad polynomial: degree must be an integer, got False\n"),
            # an exponent is a JSON integer >= 0: never negative, fractional or boolean
            ("logconcave", {"check": "lp_equivalence", "spec": _GAUSS2,
                            "polys": [{"degree": 1, "terms": [[[2, -1], 1.0]]}]},
             "bad polynomial: exponents must be nonnegative integers, got [2, -1]\n"),
            ("logconcave", {"check": "lp_equivalence", "spec": _GAUSS2,
                            "polys": [{"degree": 1, "terms": [[[1.5, 0.5], 1.0]]}]},
             "bad polynomial: exponents must be nonnegative integers, got [1.5, 0.5]\n"),
            ("logconcave", {"check": "lp_equivalence", "spec": _GAUSS2,
                            "polys": [{"degree": 1, "terms": [[[True], 1.0]]}]},
             "bad polynomial: exponents must be nonnegative integers, got [True]\n"),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"degree": 2, "terms": [[[2.0], 1.0]]}},
             "bad polynomial: exponents must be nonnegative integers, got [2.0]\n"),
            ("logconcave", {"check": "small_value", "spec": _GAUSS, "poly": {"coeffs_1d": [0.0, 0.0]}},
             "bad polynomial: coeffs_1d has no nonzero coefficient\n"),
            # a field that is not a list is named by its path in the measure file
            ("norms", {"measure": {**two_point_measure_doc(), "points": 5}, "metric": "d"},
             "malformed measure file: points must be a list, got int\n"),
            ("norms", {"measure": {**two_point_measure_doc(), "weights": 5}, "metric": "d"},
             "malformed measure file: weights must be a list, got int\n"),
            ("norms", {"measure": {**two_point_measure_doc(), "metrics": {"d": [["0", "3"], 5]}}, "metric": "d"},
             "malformed measure file: metrics.d row 1 must be a list, got int\n"),
            # a tail level is a JSON integer, its samples finite numbers, and the levels are 1..K once each
            ("schedule", {"tails": [{"n": 1.7, "samples": [[0, 1.0]]}]},
             "bad tail samples: n must be an integer, got 1.7\n"),
            ("schedule", {"tails": [{"n": True, "samples": [[0, 1.0]]}]},
             "bad tail samples: n must be an integer, got True\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[0, "nan"]]}]},
             "bad tail samples: a sample must be a finite number, got 'nan'\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[0, math.inf]]}]},
             "bad tail samples: a sample must be a finite number, got inf\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[True, 1.0]]}]},
             "bad tail samples: a sample must be a finite number, got True\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[10**400, 1.0]]}]},
             "bad tail samples: int too large to convert to float\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[0, 1.0]]}, {"n": 1, "samples": [[0, 0.5]]}]},
             "bad tail samples: levels n must be 1..2, once each, got [1, 1]\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[0, 1.0]]}, {"n": 3, "samples": [[0, 0.5]]}]},
             "bad tail samples: levels n must be 1..2, once each, got [1, 3]\n"),
            # a level's values are nonnegative and do not grow with the radius
            ("schedule", {"tails": [{"n": 1, "samples": [[0, 0.01], [2, 1.0]]}]},
             "bad tail samples: level 1's values must be nonnegative and nonincreasing\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[0, 1.0]]}, {"n": 2, "samples": [[0, -1.0]]}]},
             "bad tail samples: level 2's values must be nonnegative and nonincreasing\n"),
            ("schedule", {"tails": [{"n": 1, "samples": [[3, 0.5], [1, 0.25]]}]},
             "bad tail samples: level 1's values must be nonnegative and nonincreasing\n"),
        ],
    )
    def test_exit_3_with_the_cause(self, tmp_path, capsys, kind, params, cause):
        config = {"kind": kind, "seed": 1, "out": str(tmp_path / "out"), "params": params}
        assert cli.validate_config(config) == []
        write(tmp_path / "matrix.json", {"rows": [[2.0, 1.0]]})
        path = write(tmp_path / "c.json", config)
        assert cli.main([kind, "--config", str(path)]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {cause}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
