"""The benchmark's workloads: blindtrack driven from one process through
the library calls the `simulate`, `train`, `calibrate` and `eval`
subcommands make.

A run repeats one cycle until its time budget is spent. A cycle is the
command-line workflow end to end, closed loop (each call starts when the
previous one returns):

    set-up    make_dataset + write_dataset, load_dataset, make_model
    train     [calibrate_scene per scene], train_model, save_checkpoint;
              after each epoch, one slice of the eval scenes is scored
    eval      load_checkpoint, restore_model, then evaluate_model for
              the method and both references, on every split

The eval scenes (every split) are cut into one slice per epoch, and each
slice is scored through the method list with the model as it stands after
that epoch: the same predict and score calls as `eval`, whose cost does
not depend on the weights. So eval is sampled between every two epochs,
not only at the end of a cycle, and every timing sees the same mix of
machine conditions over the whole run (see Phase.end_to_end). Each cycle
uses the same seeds, so its outputs must repeat bit for bit; that is one
of the output checks.

Package functions are always looked up as module attributes at call
time (`pipeline.train_model`, not a local name), so the wrappers that
tracing.Tracer installs see every call.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blindtrack import (
    baselines,
    checkpoint,
    config,
    dataset,
    experiments,
    geometry,
    metrics,
    nn,
    pipeline,
    simulator,
    tensor,
)
from blindtrack.errors import BlindtrackError
from blindtrack.simulator import NoiseModel, SimulatorConfig

from tracing import NO_PARENT, Tracer, self_times

MIN_CYCLES = 2  # the repeat checks need a second cycle
SPLITS = dataset.SPLIT_NAMES


@dataclass(frozen=True)
class Workload:
    """One benchmark input."""

    name: str
    sim: SimulatorConfig
    sizes: tuple[int, int, int]  # train, val, test scenes
    method: str
    epochs: int
    calibrate: bool = False

    def run_config(self, data_seed: int, train_seed: int) -> config.RunConfig:
        n_train, n_val, n_test = self.sizes
        cfg = config.RunConfig(
            data_seed=data_seed,
            train_seed=train_seed,
            n_train=n_train,
            n_val=n_val,
            n_test=n_test,
            sim=self.sim,
            epochs=self.epochs,
        )
        cfg.validate()
        return cfg


# The desk profile, except for a 96-scene test split: `test_sum_px` is a
# mean over test scenes, and its spread across workload seeds falls with
# their number (ten seeds of train_full: 0.18 of the median with 32 test
# scenes, 0.13 with 96).
DESK_SIZES = (64, 8, 96)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_full", SimulatorConfig(), DESK_SIZES, "full", epochs=4),
        Workload("train_gru", SimulatorConfig(), DESK_SIZES, "two_stage:gru", epochs=12),
        Workload(
            "long_arc",
            SimulatorConfig(t_obs=100, t_pred=100, camera_motion="arc", noise=NoiseModel.preset("hard")),
            (8, 2, 24),
            "full",
            epochs=2,
            calibrate=True,
        ),
    )
}

# (name, unit); every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("test_sum_px", "px"),
    ("eval_scenes_per_s", "scenes/s"),
)

PER_LAYER = (
    ("tensor.backward_ms.p50", "ms"),
    ("tensor.backward_ms.p90", "ms"),
    ("tensor.nodes_per_scene", "count"),
    ("nn.attention_ms", "ms"),
    ("nn.attention_calls", "count"),
    ("nn.recurrent_step_ms", "ms"),
    ("nn.recurrent_step_calls", "count"),
    ("nn.layer_norm_ms", "ms"),
    ("nn.adam_step_ms", "ms"),
    ("pipeline.step_ms.p50", "ms"),
    ("pipeline.step_ms.p90", "ms"),
    ("pipeline.validate_ms", "ms"),
    ("pipeline.mde_ms", "ms"),
    ("pipeline.cpe_features_ms", "ms"),
    ("pipeline.cpe_ms", "ms"),
    ("pipeline.projection_ms", "ms"),
    ("pipeline.predictor_ms", "ms"),
    ("baselines.two_stage_forward_ms", "ms"),
    ("baselines.reference_ms", "ms"),
    ("geometry.dlt_ms", "ms"),
    ("geometry.dlt_calls", "count"),
    ("simulator.scene_ms.p50", "ms"),
    ("simulator.scene_ms.p90", "ms"),
    ("simulator.tracks_per_scene", "count"),
    ("dataset.write_ms", "ms"),
    ("dataset.read_ms", "ms"),
    ("dataset.bytes_per_scene", "bytes"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("metrics.score_self_ms", "ms"),
    ("experiments.calibrate_ms.p50", "ms"),
    ("experiments.calibrate_ms.p90", "ms"),
    ("trace.overhead_pct", "%"),
)


def derive_seeds(seed: int) -> tuple[int, int]:
    """(data seed, train seed) from the workload seed. Scene seeds are
    data_seed + i, so both stay well inside the simulator's range."""
    data_seed, train_seed = np.random.SeedSequence([int(seed), 0xB1D]).generate_state(2) % 1_000_000
    return int(data_seed), int(train_seed)


def install_trace_points(tracer: Tracer) -> None:
    """Wrap each module's public entry points, on the attribute its caller
    looks up. Names are the span names the per-layer metrics read."""
    t = tracer
    t.span_calls(tensor.Tensor, "backward", "tensor.backward")
    t.span_calls(nn.MultiHeadSelfAttention, "__call__", "nn.attention")
    t.span_calls(nn.LayerNorm, "__call__", "nn.layer_norm")
    for cell in (nn.RNNCell, nn.GRUCell, nn.LSTMCell):
        t.span_calls(cell, "step", "nn.recurrent_step")
    t.step_boundaries(
        "pipeline.step",
        (pipeline.TrajectoryModel, "loss_terms", "pipeline.loss_terms"),
        (nn.Adam, "step", "nn.adam_step"),
    )
    t.span_calls(pipeline, "train_model", "pipeline.train_model")
    t.span_calls(pipeline, "evaluate_split", "pipeline.validate")
    t.span_calls(pipeline.TrajectoryModel, "predict", "pipeline.predict")
    t.span_calls(pipeline.SensorDenoiser, "__call__", "pipeline.mde")
    t.span_calls(pipeline, "estimator_features", "pipeline.cpe_features")
    t.span_calls(pipeline.CameraEstimator, "__call__", "pipeline.cpe")
    t.span_calls(pipeline, "project_rows", "pipeline.projection")
    t.span_calls(pipeline.FuturePixelPredictor, "__call__", "pipeline.predictor")
    t.span_calls(baselines.TwoStageBaseline, "forward", "baselines.two_stage_forward")
    t.span_calls(baselines.ConstVelocityOracle, "predict", "baselines.reference")
    t.span_calls(baselines.SmootherOracle, "predict", "baselines.reference")
    for owner in (geometry, experiments):
        t.span_calls(owner, "dlt_estimate", "geometry.dlt")
    t.span_calls(simulator, "make_scene", "simulator.scene")
    t.count_calls(simulator, "gen_track", "simulator.gen_track")
    t.span_calls(dataset, "write_dataset", "dataset.write")
    t.span_calls(dataset, "load_dataset", "dataset.read")
    t.span_calls(checkpoint, "save_checkpoint", "checkpoint.save")
    t.span_calls(checkpoint, "load_checkpoint", "checkpoint.load")
    for owner in (metrics, experiments):
        t.span_calls(owner, "score_scenes", "metrics.score")
    t.span_calls(experiments, "calibrate_scene", "experiments.calibrate")
    t.span_calls(experiments, "evaluate_model", "experiments.evaluate_model")


class _Recording:
    """Stands in for a model in `evaluate_model` and hashes every
    prediction it returns, in the order `score_scenes` asks for them."""

    def __init__(self, model, digest):
        self.name = model.name
        self._model = model
        self._digest = digest

    def predict(self, scene):
        out = self._model.predict(scene)
        for part in out:
            self._digest.update(np.ascontiguousarray(part).tobytes())
        return out


def graph_nodes(*roots: tensor.Tensor) -> int:
    """Distinct nodes reachable from the roots: the graph backward() walks."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def eval_slices(splits: dict, epochs: int) -> list[list]:
    """Every split's scenes, in order, cut into one slice per epoch."""
    scenes = [scene for name in SPLITS for scene in splits[name]]
    return [scenes[i * len(scenes) // epochs : (i + 1) * len(scenes) // epochs] for i in range(epochs)]


def splits_round_trip(manifest: dict, splits: dict) -> bool:
    """Re-serialize loaded scenes; each split must hash to the manifest's
    sha256 of the file that was written."""
    for name, info in manifest["splits"].items():
        text = "".join(dataset.canonical_json(dataset.scene_to_record(s)) + "\n" for s in splits[name])
        if hashlib.sha256(text.encode()).hexdigest() != info["sha256"]:
            return False
    return True


@dataclass
class Phase:
    """Samples from one pass of cycles, untraced or traced."""

    setup_s: list[float] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)
    eval_scenes: list[int] = field(default_factory=list)  # per eval sample
    eval_s: list[float] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    test_sum_px: float | None = None

    def samples(self) -> dict[str, list[float]]:
        return {
            "setup_s": self.setup_s,
            "epoch_s": self.epoch_s,
            "eval_scenes_per_s": [n / s for n, s in zip(self.eval_scenes, self.eval_s)],
        }

    def end_to_end(self) -> dict[str, float]:
        """setup_s is the median set-up. The other timings are totals over
        the run (total seconds per epoch, total scenes per total seconds):
        the host's speed flips between two levels, and a median then
        jumps with whichever level held the most samples, while a total
        moves only in proportion to the time spent at each."""
        out = {}
        if self.setup_s:
            out["setup_s"] = statistics.median(self.setup_s)
        if self.epoch_s:
            out["epoch_s"] = statistics.fmean(self.epoch_s)
        if self.eval_s:
            out["eval_scenes_per_s"] = sum(self.eval_scenes) / sum(self.eval_s)
        if self.test_sum_px is not None:
            out["test_sum_px"] = self.test_sum_px
        return out


FAILED = object()  # what Run.attempt returns for an operation that raised


class Run:
    """One benchmark run of one workload: counts operations and failed
    checks, and keeps the first value of every repeated output to compare
    later cycles (and the traced pass) against."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.data_seed, self.train_seed = derive_seeds(seed)
        self.cfg = workload.run_config(self.data_seed, self.train_seed)
        self.data_dir = workdir / "data"
        self.checkpoint_path = workdir / "checkpoint.ckpt"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: list[str] = []  # operation names by op id
        self.tracer: Tracer | None = None
        self.first: dict[str, object] = {}
        self.sizes: dict[str, float] = {}

    # bookkeeping ---------------------------------------------------------

    def _begin(self, what: str) -> None:
        self.attempted += 1
        self.ops.append(what)
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1

    def attempt(self, what: str, fn, *args, **kwargs):
        """Call fn as one counted operation. A blindtrack error fails the
        operation and returns FAILED; the run goes on."""
        self._begin(what)
        try:
            return fn(*args, **kwargs)
        except BlindtrackError as err:
            self.failed += 1
            self.problems.append(f"{what}: {type(err).__name__}: {err}")
            return FAILED

    def check(self, what: str, ok: bool) -> None:
        self._begin(f"check {what}")
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {what}")

    def same_as_first(self, key: str, value) -> None:
        """Keep the first value seen under key; later ones must equal it."""
        if key in self.first:
            self.check(f"{key} repeats", self.first[key] == value)
        else:
            self.first[key] = value

    # the steps of a cycle ------------------------------------------------

    def setup(self, phase: Phase):
        """`simulate`, then what `train` does before its first epoch: load
        the dataset (with the default, no validation) and build the model.
        Returns (manifest, splits, model), or None."""
        cfg = self.cfg
        method = self.workload.method
        start = time.perf_counter()
        splits = self.attempt(
            "make_dataset", simulator.make_dataset, cfg.sim, cfg.data_seed, cfg.n_train, cfg.n_val, cfg.n_test
        )
        if splits is FAILED:
            return None
        manifest = self.attempt("write_dataset", dataset.write_dataset, self.data_dir, splits, cfg.to_dict())
        loaded = self.attempt("load_dataset", dataset.load_dataset, self.data_dir)
        model = self.attempt(
            "make_model", baselines.make_model, method, cfg.model_config(), experiments.method_rng(self.train_seed, method)
        )
        end = time.perf_counter()
        if FAILED in (manifest, loaded, model):
            return None
        phase.setup_s.append(end - start)
        self.sizes["scenes"] = sum(len(s) for s in splits.values())
        self.sizes["dataset_bytes"] = sum((self.data_dir / i["file"]).stat().st_size for i in manifest["splits"].values())
        return manifest, loaded[1], model

    def calibrate(self, splits: dict) -> None:
        results = [
            self.attempt("calibrate_scene", experiments.calibrate_scene, scene)
            for name in SPLITS
            for scene in splits[name]
        ]
        ok = all(r is not FAILED and np.isfinite(r[2]) and np.isfinite(r[3]) for r in results)
        self.check("calibration errors finite", ok)
        self.same_as_first("calibration", results)

    def train(self, phase: Phase, model, splits: dict) -> bool:
        """What `train` does after loading: fit, then save the checkpoint.
        Between epochs, outside the epoch timings, score that epoch's eval
        slice. Returns whether training and saving succeeded."""
        tcfg = self.cfg.train_config()
        optimizer = nn.Adam(model.parameters(), lr=tcfg.lr)
        slices = eval_slices(splits, tcfg.epochs)
        epoch_start = time.perf_counter()

        def between_epochs(stats) -> None:
            nonlocal epoch_start
            phase.epoch_s.append(time.perf_counter() - epoch_start)
            if slices[stats.epoch]:
                self.evaluate(phase, model, {"slice": slices[stats.epoch]}, f"eval slice {stats.epoch}")
            epoch_start = time.perf_counter()

        result = self.attempt(
            "train_model",
            pipeline.train_model,
            model,
            splits["train"],
            splits["val"],
            tcfg,
            optimizer=optimizer,
            on_epoch=between_epochs,
        )
        if result is FAILED:
            return False
        losses = [v for s in result.history for v in (s.loss_denoise, s.loss_pred, s.val_sum) if v is not None]
        self.check("training losses finite", bool(losses) and bool(np.isfinite(losses).all()))
        saved = self.attempt(
            "save_checkpoint",
            checkpoint.save_checkpoint,
            self.checkpoint_path,
            model,
            optimizer,
            tcfg,
            config_hash=self.cfg.config_hash(),
            epoch=tcfg.epochs - 1,
            best_val_sum=result.best_val_sum,
        )
        if saved is FAILED:
            return False
        self.sizes["checkpoint_bytes"] = self.checkpoint_path.stat().st_size
        return True

    def restore(self, trained, splits: dict):
        """What `eval` does with the checkpoint. Returns the restored
        model, or None."""
        loaded = self.attempt("load_checkpoint", checkpoint.load_checkpoint, self.checkpoint_path)
        if loaded is FAILED:
            return None
        restored = self.attempt("restore_model", _restore, *loaded)
        if restored is FAILED:
            return None
        before = [(name, p.data.tobytes()) for name, p in trained.named_parameters()]
        after = [(name, p.data.tobytes()) for name, p in restored.named_parameters()]
        self.check("checkpoint restores parameters bit for bit", before == after)
        probe = splits["test"][0]
        self.check(
            "checkpoint round trip predicts identically",
            all(np.array_equal(a, b) for a, b in zip(trained.predict(probe), restored.predict(probe))),
        )
        return restored

    def evaluate(self, phase: Phase, model, groups: dict, key: str) -> list:
        """`eval` with its default method list, on each named group of
        scenes; one eval sample. The predictions must repeat under `key`
        in every cycle. Returns the reports."""
        scorers = [model, baselines.make_reference("const_velocity"), baselines.make_reference("smoother")]
        digest = hashlib.sha256()
        start = time.perf_counter()
        reports = [
            self.attempt(
                "evaluate_model",
                experiments.evaluate_model,
                _Recording(scorer, digest),
                scenes,
                name,
                self.cfg.config_hash(),
                self.train_seed,
            )
            for scorer in scorers
            for name, scenes in groups.items()
        ]
        phase.eval_s.append(time.perf_counter() - start)
        phase.eval_scenes.append(sum(len(scenes) for scenes in groups.values()))
        self.check(
            f"{key} errors finite and positive",
            all(r is not FAILED and np.isfinite(r.mse_sum) and r.mse_sum > 0 for r in reports),
        )
        self.same_as_first(f"{key} digest", digest.hexdigest())
        return reports

    def cycle(self, phase: Phase) -> None:
        start = time.perf_counter()
        made = self.setup(phase)
        if made is None:
            return
        manifest, splits, model = made
        if "manifest" not in self.first:
            self.check("dataset round trip matches manifest sha256", splits_round_trip(manifest, splits))
        self.same_as_first("manifest", manifest)
        if self.workload.calibrate:
            self.calibrate(splits)
        if not self.train(phase, model, splits):
            return
        restored = self.restore(model, splits)
        if restored is None:
            return
        reports = self.evaluate(phase, restored, {name: splits[name] for name in SPLITS}, "prediction")
        test = next((r for r in reports if r is not FAILED and r.split == "test" and r.method == restored.name), None)
        if test is not None:
            phase.test_sum_px = test.mse_sum
            self.same_as_first("test_sum_px", test.mse_sum)
        phase.cycle_s.append(time.perf_counter() - start)

    def measure(self, seconds: float) -> Phase:
        """Whole cycles for as long as the next one is expected to end
        within `seconds`; at least MIN_CYCLES, fewer only on failure."""
        phase = Phase()
        start = time.perf_counter()
        cycles = 0
        while True:
            self.cycle(phase)
            cycles += 1
            elapsed = time.perf_counter() - start
            if self.failed or (cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > seconds):
                return phase

    def loss_graph_nodes(self) -> int:
        """Nodes in one training loss graph, on the first train scene."""
        method = self.workload.method
        model = baselines.make_model(method, self.cfg.model_config(), experiments.method_rng(self.train_seed, method))
        scene = simulator.make_scene(self.cfg.sim, self.cfg.data_seed)
        return graph_nodes(*model.loss_terms(scene))


def _restore(header: dict, arrays: dict):
    """What `eval` does with a loaded checkpoint."""
    model = baselines.make_model(
        header["kind"], checkpoint.model_config_from_header(header), np.random.default_rng(0)
    )
    checkpoint.restore_model(model, header, arrays)
    return model


# per-layer metrics ----------------------------------------------------------


def layer_metrics(run: Run, tracer: Tracer, phase: Phase, nodes: int, untraced: Phase) -> dict[str, float]:
    """Per-layer numbers from the traced pass. Times are self times (a
    span's duration minus the part its traced children cover), except
    pipeline.step_ms and pipeline.validate_ms, which are whole durations.
    `*_calls` are calls per cycle. A layer a workload never enters reads 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def self_ms(name: str) -> list[float]:
        return [selfs[i] / 1e6 for i in by_name.get(name, ())]

    def wall_ms(name: str) -> list[float]:
        return [(spans[i][2] - spans[i][1]) / 1e6 for i in by_name.get(name, ())]

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    def p90(values: list[float]) -> float:
        return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else median(values)

    def per_cycle(name: str) -> float:
        return len(by_name.get(name, ())) / max(len(phase.cycle_s), 1)

    def per_scene(total: float, scenes: float) -> float:
        return total / scenes if scenes else 0.0

    scenes = run.sizes.get("scenes", 0)
    scored = sum(1 for s in spans if s[3] != NO_PARENT and spans[s[3]][0] == "metrics.score")
    reference = self_ms("baselines.reference")  # const_velocity and smoother, one span each per scene
    backward, step, scene, calibrate = (
        self_ms("tensor.backward"), wall_ms("pipeline.step"), self_ms("simulator.scene"), self_ms("experiments.calibrate")
    )
    untraced_cycle = statistics.fmean(untraced.cycle_s) if untraced.cycle_s else 0.0
    traced_cycle = statistics.fmean(phase.cycle_s) if phase.cycle_s else 0.0
    return {
        "tensor.backward_ms.p50": median(backward),
        "tensor.backward_ms.p90": p90(backward),
        "tensor.nodes_per_scene": nodes,
        "nn.attention_ms": median(self_ms("nn.attention")),
        "nn.attention_calls": per_cycle("nn.attention"),
        "nn.recurrent_step_ms": median(self_ms("nn.recurrent_step")),
        "nn.recurrent_step_calls": per_cycle("nn.recurrent_step"),
        "nn.layer_norm_ms": median(self_ms("nn.layer_norm")),
        "nn.adam_step_ms": median(self_ms("nn.adam_step")),
        "pipeline.step_ms.p50": median(step),
        "pipeline.step_ms.p90": p90(step),
        "pipeline.validate_ms": median(wall_ms("pipeline.validate")),
        "pipeline.mde_ms": median(self_ms("pipeline.mde")),
        "pipeline.cpe_features_ms": median(self_ms("pipeline.cpe_features")),
        "pipeline.cpe_ms": median(self_ms("pipeline.cpe")),
        "pipeline.projection_ms": median(self_ms("pipeline.projection")),
        "pipeline.predictor_ms": median(self_ms("pipeline.predictor")),
        "baselines.two_stage_forward_ms": median(self_ms("baselines.two_stage_forward")),
        "baselines.reference_ms": per_scene(sum(reference), len(reference) / 2),
        "geometry.dlt_ms": median(self_ms("geometry.dlt")),
        "geometry.dlt_calls": per_cycle("geometry.dlt"),
        "simulator.scene_ms.p50": median(scene),
        "simulator.scene_ms.p90": p90(scene),
        "simulator.tracks_per_scene": per_scene(tracer.counts["simulator.gen_track"], len(scene)),
        "dataset.write_ms": per_scene(median(self_ms("dataset.write")), scenes),
        "dataset.read_ms": per_scene(median(self_ms("dataset.read")), scenes),
        "dataset.bytes_per_scene": per_scene(run.sizes.get("dataset_bytes", 0), scenes),
        "checkpoint.save_ms": median(self_ms("checkpoint.save")),
        "checkpoint.load_ms": median(self_ms("checkpoint.load")),
        "checkpoint.bytes": run.sizes.get("checkpoint_bytes", 0),
        "metrics.score_self_ms": per_scene(sum(self_ms("metrics.score")), scored),
        "experiments.calibrate_ms.p50": median(calibrate),
        "experiments.calibrate_ms.p90": p90(calibrate),
        "trace.overhead_pct": 100.0 * (traced_cycle / untraced_cycle - 1.0) if untraced_cycle else 0.0,
    }
