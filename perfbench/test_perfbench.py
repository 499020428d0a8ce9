"""Tests of the benchmark itself, on small inputs.

Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from layertrace import LayerTracer, Wrap  # noqa: E402


@pytest.fixture(autouse=True)
def hermetic(monkeypatch, tmp_path):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


def _small(name, trace):
    ctx = W.Ctx(seed=5, seconds=0.01, trace=trace, sizes=W.SMALL)
    return W.WORKLOADS[name](ctx)


def test_benchmark_json_names_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == W.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == W.PER_LAYER
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, capsys):
    outcome = _small(name, trace=False)
    doc = run.report(outcome, W.END_TO_END, name)
    assert doc["correct"], outcome.checks
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == W.END_TO_END
    for value in doc["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0
    printed = capsys.readouterr().out
    for metric, unit in W.END_TO_END.items():
        assert "metric %s = " % metric in printed and unit in printed


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_run_restores_wraps_and_matches_untraced(name):
    before = {(w.owner, w.attr): vars(w.owner)[w.attr] for w in W.wrap_plan()}
    outcome = _small(name, trace=True)
    after = {(w.owner, w.attr): vars(w.owner)[w.attr] for w in W.wrap_plan()}
    assert all(after[key] is before[key] for key in before)
    assert "REPRO_PROFILE" not in os.environ
    checks = {n: ok for n, ok, _ in outcome.checks}
    assert checks["every wrapped function restored"]
    assert [ok for n, ok in checks.items() if "traced" in n and "equal" in n] == [
        True
    ]
    assert outcome.correct, outcome.checks
    doc = run.report(outcome, W.PER_LAYER, name)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == W.PER_LAYER
    m = outcome.metrics
    selfs = sum(
        v for k, v in m.items()
        if k.endswith(".self_s") and k != "core.select_self_s"
    )
    assert m["sim.step_self_s"] + selfs + m["other_s"] == pytest.approx(
        m["traced_wall_s"]
    )
    assert m["obs.bench_tracing_overhead"] != 0


def test_tracer_self_time_and_restore():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = vars(Box)["outer"], vars(Box)["inner"]
    tracer = LayerTracer()
    tracer.install([Wrap(Box, "outer", "a"), Wrap(Box, "inner", "b")])
    with tracer.span("root"):
        assert Box().outer() == 2
    tracer.restore()
    assert (vars(Box)["outer"], vars(Box)["inner"]) == original
    assert tracer.unrestored() == []
    assert tracer.count("Box.outer") == tracer.count("Box.inner") == 1
    outer_self = tracer.self_time("Box.outer")
    assert outer_self == pytest.approx(
        tracer.total("Box.outer") - tracer.total("Box.inner")
    )
    selfs = tracer.layer_self()
    assert selfs["a"] == pytest.approx(outer_self)
    assert selfs["b"] == pytest.approx(tracer.total("Box.inner"))
    assert [s["name"] for s in tracer.to_dict()["spans"]] == ["root"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_reads",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
