"""The benchmark's untraced cycle (bench/run.py) on a tiny copy of each
workload must run `correct`, with no failed operation, so a library change
that breaks the benchmark fails the tier-1 suite too."""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_untraced_cycle_is_correct(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)  # keep the run's files out of the checkout
    workload = harness.WORKLOADS[name]
    tiny = dataclasses.replace(workload, sizes=(3, 1, 2) if workload.calibrate else (4, 2, 2), epochs=1)
    result = run.run(name, 7, 0.0, False, workload=tiny)["result"]
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {metric for metric, _ in harness.END_TO_END}
