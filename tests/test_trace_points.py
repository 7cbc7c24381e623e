"""The benchmark's trace points (bench/harness.py) wrap package attributes
by name; each one must exist, and uninstalling must put back the exact
object that was there."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402


def test_every_trace_point_exists_and_is_restored():
    tracer = tracing.Tracer("guard")
    try:
        # span_calls looks each attribute up in vars(owner): a renamed or
        # removed one raises KeyError here
        harness.install_trace_points(tracer)
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original in installed:
            wrapper = vars(owner)[attr]
            assert wrapper is not original and wrapper.__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    wrapped = {(owner.__name__, attr) for owner, attr, _ in installed}
    assert {("blindtrack.pipeline", "estimator_features"), ("CameraEstimator", "__call__")} <= wrapped
