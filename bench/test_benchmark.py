"""Smoke test of the benchmark: every workload at minimal size in both modes,
the agreement of BENCHMARK.json with bench/spec.py, and the tracer's
install/uninstall.

Run from the repository root:

    python3 -m pytest bench/test_benchmark.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [p[:3] for p in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    table = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {row[0]: row[1] for row in table}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    printed = "\n".join(lines[:-1])
    for name, unit, *_ in table:
        assert f"{unit}" in printed and name in printed
    if not trace:
        assert "failed/attempted" in printed  # fail_ratio, next to its complement pass_ratio


def test_same_arguments_attempt_and_fail_the_same_ops():
    first, second = (json.loads(_run("verify_d2", 0).stdout.strip().splitlines()[-1]) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["attempted"] % 5 == 0  # whole cycles over the five families


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "verify_d2", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_every_binding_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracer import Tracer

    tracer = Tracer()
    namespaces = [tracer.pkg] + list(tracer.modules.values())
    before = [dict(vars(ns)) for ns in namespaces]
    originals = {id(orig) for orig, _ in tracer._wrappers.values()}
    tracer.install()
    try:
        for ns in namespaces:
            for attr, val in vars(ns).items():
                assert id(val) not in originals, f"{ns.__name__}.{attr} is still unwrapped"
        assert "sqrt" in tracer.modules["exprs"]._FUNCTIONS
        assert getattr(tracer.modules["exprs"]._FUNCTIONS["sqrt"], "_bench_traced", False)
        assert getattr(tracer.Jet.__mul__, "_bench_traced", False)
        assert tracer.Jet.__mul__ is tracer.Jet.__rmul__
    finally:
        tracer.uninstall()
    after = [dict(vars(ns)) for ns in namespaces]
    assert all(a == b for a, b in zip(after, before))
    assert not getattr(tracer.Jet.__mul__, "_bench_traced", False)
