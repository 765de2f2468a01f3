import json
import math
import re
from pathlib import Path

import pytest

from kantorovich_lab import cli
from kantorovich_lab.convergence import MeasureSequence, check_tau_k_convergence
from kantorovich_lab.measures import space_from_dict


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
        assert diags == ["stable: missing params.spec.p"]

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
        path = write(tmp_path / "c.json", {"kind": "norms", "seed": 1, "params": {}})
        code = cli.main(["validate", "--config", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert any("measure" in d for d in out)


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
        solve = cli.wasserstein_q

        def spy(mu, nu, *args):
            shared.append(nu.space is mu.space)
            return solve(mu, nu, *args)

        monkeypatch.setattr(cli, "wasserstein_q", spy)
        code, report, _ = wq_run(tmp_path)
        assert code == cli.EXIT_OK and shared == [True]
        assert report["checks"][1]["value"] == pytest.approx(math.sqrt(0.25 * 1.5**2 + 0.25 * 1.0**2))

    def test_coords_are_not_compared_by_wq(self, tmp_path):
        _, same, _ = wq_run(tmp_path / "same")
        code, moved, _ = wq_run(tmp_path / "moved", "coords")
        assert code == cli.EXIT_OK
        assert moved["checks"] == same["checks"] and moved["payload"] == same["payload"]

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

    def test_seed_override_changes_hash(self, tmp_path):
        path = norms_config(tmp_path)
        assert cli.main(["norms", "--config", str(path), "--seed", "8"]) == 0
        assert cli.main(["norms", "--config", str(path), "--seed", "9"]) == 0
        assert len(list((tmp_path / "out").glob("norms-*.json"))) == 2
