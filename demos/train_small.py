"""Train the full pipeline on a small noisy dataset and compare it with
the classical references. A few minutes on one core; budgets are
deliberately small, accuracy is not the point of the demo."""

import argparse
import time
from dataclasses import replace

from blindtrack.baselines import make_reference
from blindtrack.config import RunConfig
from blindtrack.experiments import evaluate_model, method_rng, train_method
from blindtrack.metrics import reports_to_markdown
from blindtrack.simulator import NoiseModel, SimulatorConfig, make_dataset

parser = argparse.ArgumentParser()
parser.add_argument("--epochs", type=int, default=40)
parser.add_argument("--scenes", type=int, default=24)
parser.add_argument("--gps-sigma", type=float, default=2.0)
args = parser.parse_args()

cfg = RunConfig(
    n_train=args.scenes,
    n_val=4,
    n_test=8,
    sim=SimulatorConfig(t_obs=12, t_pred=8, noise=NoiseModel(gps_sigma=args.gps_sigma)),
    width=32,
    layers=2,
    epochs=args.epochs,
    batch_size=8,
)
splits = make_dataset(cfg.sim, cfg.data_seed, cfg.n_train, cfg.n_val, cfg.n_test)
print(f"{cfg.n_train} train / {cfg.n_val} val / {cfg.n_test} test scenes, gps sigma {args.gps_sigma}")

t0 = time.time()
model, result = train_method(
    "full",
    splits,
    cfg,
    train_seed=0,
    on_epoch=lambda s: s.epoch % 10 == 0
    and print(f"  epoch {s.epoch:3d} denoise {s.loss_denoise:.5f} pred {s.loss_pred:.5f}"),
)
print(f"trained in {time.time() - t0:.0f}s, best epoch {result.best_epoch}")

reports = [evaluate_model(model, splits["test"], "test")]
for name in ("const_velocity", "smoother"):
    reports.append(evaluate_model(make_reference(name), splits["test"], "test"))
print()
print(reports_to_markdown(reports, title="Small run vs references"))
print("MSE-D: mean pixel error of the denoised track; MSE-P: of the forecast.")
