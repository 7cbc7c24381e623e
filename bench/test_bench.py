"""Self-tests for the benchmark code: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402
from tracing import NO_PARENT, Tracer, self_times  # noqa: E402

BENCH = Path(__file__).resolve().parent


def tiny(name: str) -> harness.Workload:
    sizes = (3, 1, 2) if harness.WORKLOADS[name].calibrate else (4, 2, 2)
    return dataclasses.replace(harness.WORKLOADS[name], sizes=sizes, epochs=1)


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def traced(request):
    return request.param, run.run(request.param, 7, 0.0, True, workload=tiny(request.param))


def test_self_time_on_a_synthetic_tree():
    spans = [
        ["root", 0, 100, NO_PARENT, 0],
        ["a", 10, 30, 0, 0],
        ["b", 25, 50, 0, 0],  # overlaps a: the overlap counts once
        ["c", 90, 120, 0, 0],  # runs past its parent: only 90..100 counts
        ["a.child", 12, 20, 1, 0],
        ["other_root", 200, 210, NO_PARENT, 1],
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 30, 8, 10]


def test_close_ends_spans_left_open_inside():
    tracer = Tracer("w")
    outer = tracer.open("outer")
    tracer.open("inner")  # as if an exception skipped its close
    tracer.close(outer)
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    assert tracer.spans[1][3] == outer
    assert not tracer._stack


def test_smoke_run_emits_every_metric_with_its_unit(traced):
    name, record = traced
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(harness.PER_LAYER)
    assert set(record["end_to_end"]) == {k for k, _ in harness.END_TO_END}
    assert all(v > 0 for v in record["end_to_end"].values())


def test_counts_show_the_bypasses(traced):
    name, record = traced
    layers = record["per_layer"]
    assert (layers["nn.attention_calls"] == 0) == (name == "train_gru")
    assert (layers["nn.recurrent_step_calls"] == 0) == (name != "train_gru")
    assert (layers["geometry.dlt_calls"] == 0) == name.startswith("train_")
    assert layers["tensor.nodes_per_scene"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = run.run("train_full", 3, 0.0, False, workload=tiny("train_full"))["result"]
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(harness.END_TO_END)


def _attributes():
    import blindtrack

    out = {}
    for module in vars(blindtrack).values():
        if isinstance(module, types.ModuleType) and module.__name__.startswith("blindtrack."):
            for key, value in vars(module).items():
                out[(module.__name__, key)] = value
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in vars(value).items():
                        out[(module.__name__, key, attr)] = member
    return out


def test_traced_run_leaves_module_attributes_unchanged():
    before = _attributes()
    run.run("train_gru", 5, 0.0, True, workload=tiny("train_gru"))
    after = _attributes()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
