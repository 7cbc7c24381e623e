"""The benchmark's trace points (bench/harness.py) wrap package attributes
by name; each one must exist, and uninstalling must put back the exact
object that was there. The ones that span a transformer's sublayers and
the camera stage must also fire where the work is: once per attention and
layer norm of every block a forward runs, the camera stage on every
pipeline predict and loss, and neither on a model without them."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from blindtrack import nn, pipeline
from blindtrack.baselines import make_model
from blindtrack.tensor import Tensor

from test_pipeline import TINY, tiny_scenes

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


def submodules(module):
    yield module
    for value in vars(module).values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, nn.Module):
                yield from submodules(item)


@pytest.mark.parametrize("name, blocks", [("full", 2), ("two_stage:gru", 0)])
def test_sublayer_trace_points_fire_once_per_block(monkeypatch, name, blocks):
    """harness spans nn.MultiHeadSelfAttention.__call__ and
    nn.LayerNorm.__call__: a forward must call each module once."""
    calls = Counter()
    for owner in (nn.MultiHeadSelfAttention, nn.LayerNorm):
        original = owner.__call__

        def counted(self, *args, original=original):
            calls[id(self)] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, "__call__", counted)
    model = make_model(name, TINY, np.random.default_rng(0))
    model.loss_terms(tiny_scenes(2))
    found = [m for m in submodules(model) if isinstance(m, nn.TransformerBlock)]
    assert len(found) == blocks
    assert calls == Counter(id(m) for block in found for m in (block.norm_attn, block.attn, block.norm_ff))


@pytest.mark.parametrize("name, fires", [("full", True), ("two_stage:gru", False)])
def test_camera_trace_points_fire_on_the_camera_stage_alone(monkeypatch, name, fires):
    """harness spans pipeline.estimator_features and
    CameraEstimator.__call__: a full predict and a full loss_terms must
    call both, and a model without the camera stage neither."""
    calls = Counter()
    features, estimate = pipeline.estimator_features, pipeline.CameraEstimator.__call__
    monkeypatch.setattr(pipeline, "estimator_features", lambda scenes: calls.update(["features"]) or features(scenes))
    monkeypatch.setattr(
        pipeline.CameraEstimator, "__call__", lambda self, *args: calls.update(["estimator"]) or estimate(self, *args)
    )
    model = make_model(name, TINY, np.random.default_rng(0))
    for run in (model.predict, model.loss_terms):
        calls.clear()
        run(tiny_scenes(2))
        assert set(calls) == ({"features", "estimator"} if fires else set()), run.__name__


def test_a_transformer_block_adds_six_graph_nodes():
    """norm, attention, add, norm, feed-forward, add: the nodes harness
    counts in tensor.nodes_per_scene, besides the block's parameters."""
    rng = np.random.default_rng(11)
    block = nn.TransformerBlock(8, 2, rng)
    x = Tensor(rng.normal(size=(10, 8)), requires_grad=True)
    added = harness.graph_nodes(block(x, 5)) - harness.graph_nodes(x)
    assert added == 6 + len(block.parameters())


def test_a_second_predict_over_the_same_scenes_only_looks_cameras_up(monkeypatch):
    """The camera memo is keyed by the scene: a predict over scenes the
    model has seen enters the camera stage (pipeline.cpe) but averages no
    pairs (pipeline.cpe_features)."""
    calls = Counter()
    features, estimate = pipeline.estimator_features, pipeline.CameraEstimator.__call__
    monkeypatch.setattr(pipeline, "estimator_features", lambda scenes: calls.update(["features"]) or features(scenes))
    monkeypatch.setattr(
        pipeline.CameraEstimator, "__call__", lambda self, *args: calls.update(["estimator"]) or estimate(self, *args)
    )
    model = make_model("full", TINY, np.random.default_rng(0))
    scenes = tiny_scenes(2)
    model.predict(scenes)
    assert calls["features"] == 1
    calls.clear()
    model.predict(scenes)
    assert set(calls) == {"estimator"}
