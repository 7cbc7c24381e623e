"""Acceptance gate: ten checks with pinned tolerances, one line each.

Each test prints a single [PASS]/[FAIL] line (use -s to stream them).
Checks 6, 7, and 8 train real models and dominate the runtime; the
whole file is sized to finish on one desktop core.
"""

import copy
import time
from dataclasses import replace

import numpy as np
import pytest

import blindtrack.simulator as sim
from blindtrack import geometry
from blindtrack.baselines import SEQUENCE_KINDS, make_model
from blindtrack.cli import main
from blindtrack.config import ModelConfig, RunConfig
from blindtrack.experiments import (
    ABLATION_ROWS,
    evaluate_model,
    method_rng,
    median_sum,
    run_ablation,
    run_benchmark,
    train_method,
)
from blindtrack.metrics import mse_t, score_scenes
from blindtrack.pipeline import evaluate_split, project_rows
from blindtrack.simulator import NoiseModel, SimulatorConfig, make_dataset, make_split
from blindtrack.tensor import (
    Tensor,
    add,
    attention_block,
    attention_layer,
    clamp_away_from_zero,
    col_scale,
    concat_cols,
    concat_rows,
    div,
    exp,
    feed_forward,
    layer_norm,
    linear,
    matmul,
    mean_all,
    mean_rows,
    mse_loss,
    mul,
    recurrent_scan,
    relu,
    reshape,
    row_sum,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    square,
    sub,
    sum_all,
    tanh,
    tile_rows,
    transpose,
)
from util_grad import check_gradients


def gate(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {label}: {detail}")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def random_camera(rng) -> np.ndarray:
    mount = np.array([rng.uniform(*box) for box in geometry.POSE_BOX[:3]])
    aim = np.array([rng.uniform(*box) for box in geometry.POSE_BOX[3:]])
    return SimulatorConfig().intrinsics().matrix() @ geometry.look_at(mount, aim)


def arena_points(rng, count: int) -> np.ndarray:
    return np.column_stack(
        [
            rng.uniform(*sim.ARENA_X, count),
            rng.uniform(*sim.ARENA_Y, count),
            rng.uniform(0.2, 2.5, count),
        ]
    )


class TestCriterion01Gradients:
    def test_gradients(self):
        t0 = time.time()
        rng = np.random.default_rng(11)

        def mat(r, c):
            return Tensor(rng.uniform(-1.0, 1.0, (r, c)), requires_grad=True)

        worst_prim = 0.0
        target = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
        cases = [
            (lambda p: sum_all(add(p[0], p[1])), [mat(3, 4), mat(3, 4)]),
            (lambda p: sum_all(add(p[0], p[1])), [mat(3, 4), mat(1, 4)]),
            (lambda p: sum_all(sub(p[0], p[1])), [mat(3, 4), mat(3, 4)]),
            (lambda p: sum_all(mul(p[0], p[1])), [mat(3, 4), mat(3, 4)]),
            (lambda p: sum_all(div(p[0], clamp_away_from_zero(p[1], 0.3))), [mat(3, 4), mat(3, 4)]),
            (lambda p: sum_all(matmul(p[0], p[1])), [mat(3, 4), mat(4, 2)]),
            (lambda p: sum_all(square(transpose(p[0]))), [mat(3, 4)]),
            (lambda p: sum_all(exp(reshape(p[0], 2, 6))), [mat(3, 4)]),
            (lambda p: sum_all(tanh(slice_rows(p[0], 1, 3))), [mat(4, 3)]),
            (lambda p: sum_all(sigmoid(slice_cols(p[0], 1, 3))), [mat(3, 4)]),
            (lambda p: sum_all(relu(p[0])), [mat(3, 4)]),
            (lambda p: sum_all(concat_rows([p[0], p[1]])), [mat(2, 3), mat(4, 3)]),
            (lambda p: sum_all(square(concat_cols([p[0], p[1]]))), [mat(3, 2), mat(3, 3)]),
            (lambda p: mean_all(p[0]), [mat(5, 2)]),
            (lambda p: sum_all(square(row_sum(p[0]))), [mat(4, 3)]),
            (lambda p: sum_all(square(mean_rows(p[0], 4))), [mat(4, 3)]),
            (lambda p: sum_all(square(tile_rows(p[0], 5))), [mat(1, 4)]),
            (lambda p: sum_all(square(softmax_rows(p[0]))), [mat(3, 5)]),
            (lambda p: sum_all(layer_norm(p[0], p[1], p[2])), [mat(4, 6), mat(1, 6), mat(1, 6)]),
            (lambda p: sum_all(col_scale(p[0], np.array([0.5, -2.0, 3.0]))), [mat(4, 3)]),
            (lambda p: mse_loss(p[0], target), [mat(4, 3)]),
            (lambda p: sum_all(attention_block(p[0], p[1], p[2], 4)), [mat(4, 6), mat(4, 6), mat(4, 6)]),
        ]
        # one fused recurrent unroll per cell kind: 3 sequences of 2 steps,
        # a 2-wide state, one (wx, wh, b) whose column blocks are drawn per
        # gate group, as (wx, wh, b) in turn
        for kind, groups, width in (("rnn", 1, 2), ("gru", 3, 2), ("lstm", 1, 8)):
            x = mat(6, 3)
            drawn = [[m.data for m in (mat(3, width), mat(2, width), mat(1, width))] for _ in range(groups)]
            params = [x] + [Tensor(np.concatenate(blocks, axis=1), requires_grad=True) for blocks in zip(*drawn)]
            cases.append((lambda p, k=kind: sum_all(square(recurrent_scan(k, p[0], p[1:], 2))), params))
        # the fused transformer sublayers: 2 sequences of 2 rows, 2 heads.
        # The key bias adds the same score to every key of a row, which the
        # softmax cancels: its gradient is exactly zero, and a finite
        # difference of it measures only rounding, so it enters as a constant
        key_bias = Tensor(rng.uniform(-1.0, 1.0, (1, 4)))
        cases += [
            (lambda p: sum_all(square(linear(*p))), [mat(3, 4), mat(4, 2), mat(1, 2)]),
            (
                lambda p: sum_all(square(attention_layer(*p[:4], key_bias, *p[4:], 2, 2))),
                [mat(4, 4), mat(4, 4), mat(1, 4), mat(4, 4), mat(4, 4), mat(1, 4), mat(4, 4), mat(1, 4)],
            ),
            (lambda p: sum_all(square(feed_forward(*p))), [mat(3, 4), mat(4, 8), mat(1, 8), mat(8, 4), mat(1, 4)]),
        ]
        for build, params in cases:
            bound = (lambda b=build, p=params: b(p))
            worst_prim = max(worst_prim, check_gradients(bound, params, tol=1e-4))

        # end to end: every stage of a tiny pipeline in one loss
        cfg = ModelConfig(t_pred=2, width=8, layers=1, heads=2)
        scfg = SimulatorConfig(
            n_agents=3, t_obs=4, t_pred=2, noise=NoiseModel(kind="gps", gps_sigma=1.0)
        )
        scene = sim.make_scene(scfg, seed=3)
        model = make_model("full", cfg, np.random.default_rng(0))

        def loss():
            loss_d, loss_p = model.loss_terms(scene)
            return add(loss_d, loss_p)

        worst_e2e = check_gradients(loss, model.parameters(), tol=1e-3)
        elapsed = time.time() - t0
        ok = worst_prim < 1e-4 and worst_e2e < 1e-3 and elapsed < 60
        gate(
            1,
            "gradient checks",
            ok,
            f"primitives {worst_prim:.2e} < 1e-4, end-to-end {worst_e2e:.2e} < 1e-3, {elapsed:.1f}s < 60s",
        )


class TestCriterion02Projection:
    def test_projection_matches_geometry_and_rendering(self):
        worst_eq = 0.0
        worst_render = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            matrix = random_camera(rng)
            points = arena_points(rng, 12)
            direct = geometry.project_trajectory(matrix, points)
            rows = np.tile(matrix.reshape(1, 12), (len(points), 1))
            via_rows = project_rows(Tensor(rows), Tensor(points)).data
            worst_eq = max(worst_eq, np.abs(direct - via_rows).max())
            matrices = np.tile(matrix, (len(points), 1, 1))
            rendered, visible = sim.render_visual(points, matrices, sim.IMAGE_SIZE)
            if visible.any():
                dev = np.abs(rendered[visible] - direct[visible]).max()
                worst_render = max(worst_render, dev)
        ok = worst_eq < 1e-10 and worst_render <= 0.5
        gate(
            2,
            "projection equivalence",
            ok,
            f"pipeline vs geometry {worst_eq:.2e} < 1e-10, rendering {worst_render:.3f} <= 0.5 px, 100 draws",
        )


class TestCriterion03Calibration:
    def test_dlt_exact_and_noisy(self):
        t0 = time.time()
        worst_exact = 0.0
        noisy_errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            matrix = random_camera(rng)
            points = arena_points(rng, 50)
            exact_px = geometry.project_trajectory(matrix, points)
            recovered = geometry.dlt_estimate(points, exact_px)
            worst_exact = max(
                worst_exact, geometry.reprojection_error(recovered, points, exact_px)
            )
            noisy_px = exact_px + rng.normal(0.0, 0.5, exact_px.shape)
            recovered = geometry.dlt_estimate(points, noisy_px)
            noisy_errors.append(geometry.reprojection_error(recovered, points, exact_px))
        mean_noisy = float(np.mean(noisy_errors))
        elapsed = time.time() - t0
        ok = worst_exact < 1e-9 and mean_noisy < 1.0 and elapsed < 60
        gate(
            3,
            "camera recovery",
            ok,
            f"exact {worst_exact:.2e} < 1e-9, noisy mean {mean_noisy:.3f} < 1.0 px, "
            f"100 seeds, {elapsed:.1f}s < 60s",
        )


class TestCriterion04ScaleInvariance:
    def test_projection_scale_invariance(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            matrix = random_camera(rng)
            points = arena_points(rng, 10)
            base = geometry.project_trajectory(matrix, points)
            rows = np.tile(matrix.reshape(1, 12), (len(points), 1))
            for lam in (1e-3, 0.7, 1.0, 13.0, 1e4):
                scaled_direct = geometry.project_trajectory(lam * matrix, points)
                scaled_rows = project_rows(Tensor(lam * rows), Tensor(points)).data
                worst = max(worst, np.abs(scaled_direct - base).max())
                worst = max(worst, np.abs(scaled_rows - base).max())
        ok = worst < 1e-9
        gate(4, "scale invariance", ok, f"max pixel deviation {worst:.2e} < 1e-9 over 100 draws")


class TestCriterion05Blindness:
    def test_outputs_ignore_hidden_ground_truth(self):
        cfg = ModelConfig(t_pred=4, width=16, layers=1, heads=2)
        scfg = SimulatorConfig(n_agents=4, t_obs=8, t_pred=4, noise=NoiseModel.preset("default"))
        scenes = make_split(scfg, base_seed=400, count=20)
        methods = ["full", "direct:gru", "two_stage:lstm", "plus_vpd:rnn"]
        all_equal = True
        for scene in scenes:
            tampered = copy.deepcopy(scene)
            hidden = tampered.hidden
            tampered.pixel[hidden] = tampered.pixel[hidden] + 137.0
            tampered.world[hidden] = tampered.world[hidden] + 9.0
            tampered.visible[hidden] = ~tampered.visible[hidden]
            for name in methods:
                model = make_model(name, cfg, np.random.default_rng(scene.seed))
                visual_a, future_a = model.predict(scene)
                visual_b, future_b = model.predict(tampered)
                if not (np.array_equal(visual_a, visual_b) and np.array_equal(future_a, future_b)):
                    all_equal = False
        gate(
            5,
            "hidden-label blindness",
            all_equal,
            "outputs bitwise equal under hidden pixel/world/visibility tampering, "
            f"20 scenes x {len(methods)} methods",
        )


@pytest.mark.slow
class TestCriterion06CleanConvergence:
    def test_zero_noise_end_to_end(self):
        t0 = time.time()
        cfg = RunConfig()
        cfg = cfg.override(sim=replace(cfg.sim, noise=NoiseModel.preset("clean")), batch_size=4)
        splits = make_dataset(cfg.sim, cfg.data_seed, cfg.n_train, cfg.n_val, cfg.n_test)
        model, _ = train_method("full", {"train": splits["train"], "val": []}, cfg, train_seed=0)
        mse_d, mse_p = evaluate_split(model, splits["test"])
        elapsed = time.time() - t0
        ok = mse_d < 5.0 and mse_p < 15.0 and elapsed < 900
        gate(
            6,
            "zero-noise convergence",
            ok,
            f"held-out MSE-D {mse_d:.2f} < 5 px, MSE-P {mse_p:.2f} < 15 px, "
            f"{cfg.epochs} epochs on {cfg.n_train} scenes in {elapsed:.0f}s < 900s",
        )


BENCH = RunConfig(
    n_train=32,
    n_val=0,
    n_test=8,
    sim=SimulatorConfig(t_obs=12, t_pred=8, noise=NoiseModel(kind="gps", gps_sigma=2.0)),
    width=32,
    layers=1,
    heads=4,
    epochs=40,
    batch_size=8,
)
BENCH_SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def bench_splits():
    return make_dataset(BENCH.sim, BENCH.data_seed, BENCH.n_train, BENCH.n_val, BENCH.n_test)


@pytest.mark.slow
class TestCriterion07Benchmark:
    def test_pipeline_beats_sensor_only_baselines(self, bench_splits):
        t0 = time.time()
        methods = ["full", "direct:transformer"]
        methods += [f"plus_vpd:{k}" for k in SEQUENCE_KINDS]
        methods += [f"two_stage:{k}" for k in SEQUENCE_KINDS]
        reports = run_benchmark(bench_splits, BENCH, methods, BENCH_SEEDS)
        full = median_sum(reports, "full")
        direct = median_sum(reports, "direct:transformer")
        details = [f"full {full:.1f} < direct:transformer {direct:.1f}"]
        ok = full < direct
        for kind in SEQUENCE_KINDS:
            ours = median_sum(reports, f"plus_vpd:{kind}")
            base = median_sum(reports, f"two_stage:{kind}")
            details.append(f"plus_vpd:{kind} {ours:.1f} < two_stage:{kind} {base:.1f}")
            ok = ok and ours < base
        elapsed = time.time() - t0
        gate(
            7,
            "benchmark ordering",
            ok,
            "; ".join(details) + f" (median SUM over {len(BENCH_SEEDS)} seeds, {elapsed:.0f}s)",
        )


@pytest.mark.slow
class TestCriterion08Ablation:
    def test_every_stage_earns_its_place(self, bench_splits):
        t0 = time.time()
        reports = []
        for seed in BENCH_SEEDS:
            reports.extend(run_ablation(bench_splits, BENCH, seed=seed))
        full = median_sum(reports, "full")
        ok = True
        details = [f"full {full:.1f}"]
        for _, label in ABLATION_ROWS:
            if label == "full":
                continue
            value = median_sum(reports, label)
            details.append(f"{label} {value:.1f}")
            if value < full * 0.9:
                ok = False
        elapsed = time.time() - t0
        gate(
            8,
            "stage removals",
            ok,
            "; ".join(details)
            + f" (median over {len(BENCH_SEEDS)} seeds; no removal better than full by >10%, {elapsed:.0f}s)",
        )


class TestCriterion09Metrics:
    def test_error_arithmetic(self):
        pred = np.zeros((7, 2))
        truth = np.tile([3.0, 4.0], (7, 1))
        exact_five = mse_t(pred, truth)

        scfg = SimulatorConfig(n_agents=3, t_obs=6, t_pred=3, noise=NoiseModel.preset("default"))
        scenes = make_split(scfg, base_seed=900, count=5)

        def offset_predict(batch):
            pixels = np.stack([scene.pixel[scene.hidden] for scene in batch])
            t_obs = batch[0].t_obs
            return pixels[:, :t_obs] + np.array([3.0, 4.0]), pixels[:, t_obs:] + np.array([6.0, 8.0])

        report = score_scenes(offset_predict, scenes, "offset", "test")
        additive = abs(report.mse_sum - (report.mse_d + report.mse_p))
        ok = (
            exact_five == 5.0
            and report.mse_d == pytest.approx(5.0, abs=1e-9)
            and report.mse_p == pytest.approx(10.0, abs=1e-9)
            and additive <= 1e-9
        )
        gate(
            9,
            "metric arithmetic",
            ok,
            f"offset (3,4) scores {exact_five} == 5.0, SUM additivity {additive:.1e} <= 1e-9",
        )


class TestCriterion10Reproducibility:
    def test_workflow_artifacts_are_bit_identical(self, tmp_path):
        config = {
            "data_seed": 21,
            "train_seed": 4,
            "n_train": 8,
            "n_val": 2,
            "n_test": 2,
            "sim": {
                "n_agents": 4,
                "t_obs": 8,
                "t_pred": 4,
                "camera_motion": "static",
                "noise": {"kind": "combined", "gps_sigma": 1.0, "drift_step_sigma": 0.02},
                "image_size": [640, 480],
                "focal": 500.0,
            },
            "width": 16,
            "layers": 1,
            "heads": 2,
            "epochs": 4,
            "batch_size": 4,
            "lr": 1e-3,
        }
        import json

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        trees = []
        for tag in ("first", "second"):
            base = tmp_path / tag
            assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "data")]) == 0
            assert main(["train", "--dataset", str(base / "data"), "--out", str(base / "run")]) == 0
            assert main(
                [
                    "eval",
                    "--checkpoint",
                    str(base / "run" / "checkpoint.ckpt"),
                    "--dataset",
                    str(base / "data"),
                    "--out",
                    str(base / "eval.csv"),
                ]
            ) == 0
            trees.append(
                {
                    str(p.relative_to(base)): p.read_bytes()
                    for p in sorted(base.rglob("*"))
                    if p.is_file()
                }
            )
        same = set(trees[0]) == set(trees[1]) and all(
            trees[0][k] == trees[1][k] for k in trees[0]
        )
        n_files = len(trees[0])
        gate(
            10,
            "reproducibility",
            same,
            f"simulate/train/eval rerun: all {n_files} artifacts byte-identical",
        )
