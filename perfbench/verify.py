"""Per-job output checks: exit code, verdicts, reference values, certificates.

``Verifier.check`` returns the list of reasons a job failed; an empty list
means every output was verified.  Seminorm and coupling values must agree
with the HiGHS references of ``generate.py`` to ``REL_TOL``; every
witness and coupling in a report is rebuilt and passed through the package's
own ``LipschitzWitness.validate`` / ``Coupling.validate``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Relative agreement required between a program value and its reference.
REL_TOL = 1e-9


def agrees(value: float, reference) -> bool:
    """Agreement with a ``[value, atol]`` reference to relative ``REL_TOL``;
    ``atol`` is the reference's round-off floor (see reference.py)."""
    ref, atol = reference
    return abs(value - ref) <= REL_TOL * abs(ref) + atol


class Verifier:
    """Checks job outcomes against the expectations recorded at generation.

    Measures needed to validate certificates are loaded once, untimed, with
    the package's own file loader.
    """

    def __init__(self, pkg, base: Path):
        self.pkg = pkg
        self.base = base
        self._measures: dict[str, object] = {}

    def _measure(self, name: str):
        if name not in self._measures:
            with open(self.base / name, "r", encoding="utf-8") as fh:
                self._measures[name] = self.pkg.measures.measure_from_dict(json.load(fh))
        return self._measures[name]

    def _sequence(self, name: str):
        if name not in self._measures:
            with open(self.base / name, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            space = self.pkg.measures.space_from_dict(doc)
            limit = space.measure([float(x) for x in doc["limit_weights"]])
            self._measures[name] = [space.measure([float(x) for x in row]) - limit
                                    for row in doc["weights_sequence"]]
        return self._measures[name]

    def check(self, job: dict, outcome: dict) -> list[str]:
        if outcome.get("error"):
            return [f"raised {outcome['error']}"]
        expect = job["expect"]
        reasons = []
        if outcome["code"] != expect["exit"]:
            reasons.append(f"exit code {outcome['code']} != {expect['exit']}")
        with open(outcome["path"], "r", encoding="utf-8") as fh:
            report = json.load(fh)
        reasons += _verdicts(report, expect)
        records = {c["name"]: c for c in report["checks"]}
        for name, ref in expect.get("values", {}).items():
            rec = records.get(name)
            if rec is None:
                reasons.append(f"{name}: missing")
            elif not agrees(rec["value"], ref):
                reasons.append(f"{name}: {rec['value']!r} vs reference {ref!r}")
        kind = job["config"]["kind"]
        try:
            if kind == "norms":
                reasons += self._norms_certificates(job, report, records)
            elif kind == "convergence":
                reasons += self._convergence(job, report)
            elif kind == "counterexample":
                reasons += self._counterexample(job, report)
            elif kind == "stable" and "k_gaps" in expect:
                reasons += _values("k_gaps", report["payload"]["extras"].get("k_gaps", []),
                                   expect["k_gaps"])
        except (KeyError, TypeError, IndexError) as exc:
            reasons.append(f"report lacks an expected field: {exc!r}")
        return reasons

    def _norms_certificates(self, job, report, records) -> list[str]:
        t = self.pkg.transport
        params = job["config"]["params"]
        payload = report["payload"]
        mu = self._measure(job["measure"])
        metric = params["metric"]
        out = []
        for op, mode in (("kr", "bounded"), ("k", "anchored")):
            if op not in params["ops"]:
                continue
            value = records[op]["value"]
            achieved = value - abs(mu.total_mass) if mode == "anchored" else value
            f = np.asarray(payload[f"{op}_witness"], dtype=float)
            try:
                t.LipschitzWitness(metric, f, achieved, mode).validate(mu)
            except ValueError as exc:
                out.append(f"{op} witness rejected: {exc}")
        if "wq" in params["ops"]:
            q = float(params["q"])
            nu = self._measure(job["other_measure"])
            value = records[f"wq[q={q:g}]"]["value"]
            sigma = np.asarray(payload["coupling"], dtype=float)
            try:
                t.Coupling(metric, q, sigma, value**q).validate(mu, nu)
            except ValueError as exc:
                out.append(f"coupling rejected: {exc}")
        return out

    def _convergence(self, job, report) -> list[str]:
        t = self.pkg.transport
        payload = report["payload"]
        out = []
        for rec in payload["per_metric"]:
            ref = job["expect"]["gaps"][rec["metric"]]
            out += _values(f"kr_gaps[{rec['metric']}]", rec["kr_gaps"], ref["kr"])
            out += _values(f"k_gaps[{rec['metric']}]", rec["k_gaps"], ref["k"])
        deltas = self._sequence(job["config"]["params"]["sequence"])
        for wit in payload["witnesses"]:
            delta = deltas[wit["index"]]
            gap = job["expect"]["gaps"][wit["metric"]]["k"][wit["index"]]  # [value, atol]
            achieved = math.fsum((np.asarray(wit["potential"]) * delta.weights).tolist())
            if not agrees(achieved + abs(delta.total_mass), gap):
                out.append(f"witness[{wit['metric']}] attains {achieved!r}, not the reference gap")
            try:
                t.LipschitzWitness(wit["metric"], np.asarray(wit["potential"], dtype=float),
                                   achieved, "anchored").validate(delta)
            except ValueError as exc:
                out.append(f"witness[{wit['metric']}] rejected: {exc}")
        return out

    def _counterexample(self, job, report) -> list[str]:
        params = job["config"]["params"]
        with open(self.base / params["matrix"], "r", encoding="utf-8") as fh:
            F = np.asarray(json.load(fh), dtype=float)
        c = np.asarray(report["payload"]["c"], dtype=float)
        out = []
        if not float(np.abs(F @ c).max()) < params["epsilon"]:
            out.append("counterexample measure leaves the weak neighbourhood")
        if abs(math.fsum(np.abs(c).tolist()) - 1.0) > 1e-12:
            out.append("counterexample weights are not l1-normalized")
        return out


def _verdicts(report, expect) -> list[str]:
    checks = report["checks"]
    want = expect["verdicts"]
    out = []
    if isinstance(want, str):
        bad = [c["name"] for c in checks if c.get("verdict", "PASS") != want]
        if bad:
            out.append(f"verdicts not {want}: {bad[:3]}")
        if "n_checks" in expect and len(checks) != expect["n_checks"]:
            out.append(f"{len(checks)} checks, expected {expect['n_checks']}")
    else:
        got = {c["name"]: c.get("verdict", "PASS") for c in checks}
        if got != want:
            out.append(f"verdicts {got} != {want}")
    if report.get("overall_verdict") != ("PASS" if expect["exit"] == 0 else "FAIL"):
        out.append(f"overall verdict {report.get('overall_verdict')}")
    return out


def _values(label, got, ref) -> list[str]:
    if len(got) != len(ref):
        return [f"{label}: {len(got)} values, expected {len(ref)}"]
    bad = [i for i, (g, r) in enumerate(zip(got, ref)) if not agrees(g, r)]
    if bad:
        i = bad[0]
        return [f"{label}[{i}]: {got[i]!r} vs reference {ref[i]!r} ({len(bad)} off)"]
    return []
