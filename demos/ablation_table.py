"""Remove one pipeline stage at a time and retrain under the same budget.
Produces the stage-removal table; small budgets, so expect noisy numbers
but the full model should stay ahead overall."""

import argparse
import time
from dataclasses import replace

from blindtrack.config import RunConfig
from blindtrack.experiments import run_ablation
from blindtrack.metrics import reports_to_markdown
from blindtrack.simulator import NoiseModel, SimulatorConfig, make_dataset

parser = argparse.ArgumentParser()
parser.add_argument("--epochs", type=int, default=30)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

cfg = RunConfig(
    n_train=16,
    n_val=4,
    n_test=8,
    sim=SimulatorConfig(t_obs=12, t_pred=8, noise=NoiseModel(gps_sigma=2.0)),
    width=32,
    layers=1,
    epochs=args.epochs,
    batch_size=8,
)
splits = make_dataset(cfg.sim, cfg.data_seed, cfg.n_train, cfg.n_val, cfg.n_test)

t0 = time.time()
reports = run_ablation(
    splits,
    cfg,
    seed=args.seed,
    progress=lambda r: print(f"  {r.method:8s} SUM {r.mse_sum:8.2f}  ({time.time() - t0:5.1f}s)"),
)
print()
print(reports_to_markdown(reports, title="Stage removal"))
print("CPE: camera estimation; MDE: sensor denoising; VPP: projection; OPD: forecasting.")
