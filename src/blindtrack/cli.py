"""Command line front end.

Subcommands cover the whole workflow: simulate a dataset, train a model
on it, evaluate checkpoints against reference methods, run the ablation
table, sanity-check scenes with a classical calibration pass, import
external scene files, and merge result CSVs into a report.

Exit codes: 0 success, 2 bad config or usage, 3 I/O failure,
4 config-hash mismatch, 5 non-finite training loss or prediction,
6 not enough data, 7 schema violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .baselines import REFERENCE_METHODS, make_model, make_reference, method_names
from .checkpoint import (
    load_checkpoint,
    model_config_from_header,
    require_hash,
    restore_model,
    save_checkpoint,
    train_config_from_header,
)
from .config import RunConfig
from .dataset import SCENE_SCHEMA, load_dataset, read_manifest, read_scenes, write_dataset
from .errors import BlindtrackError, ConfigError, EmptyInput, HashMismatch, SchemaError
from .experiments import FLAG_THRESHOLD_PX, calibrate_scene, evaluate_model, method_rng, run_ablation
from .metrics import reports_from_csv, reports_to_csv, reports_to_markdown
from .nn import Adam
from .pipeline import history_to_csv, train_model
from .simulator import make_dataset

EXIT_USAGE = 2
EXIT_IO = 3


def _say(*parts) -> None:
    print(*parts)


def _run_config(path) -> RunConfig:
    return RunConfig.from_file(path) if path else RunConfig()


def _dataset_config(args, manifest: dict) -> tuple[RunConfig, str]:
    """Config to train with, pinned to the dataset. An explicit --config
    must hash to the same value the dataset was built from."""
    if args.config:
        cfg = RunConfig.from_file(args.config)
        if cfg.config_hash() != manifest["config_hash"]:
            raise HashMismatch(
                f"--config hashes to {cfg.config_hash()[:12]}, dataset was built "
                f"from {manifest['config_hash'][:12]}"
            )
    elif "imported_from" in manifest["config"]:
        raise ConfigError(
            f"dataset {args.dataset} was imported from one scene file "
            f"({manifest['config']['imported_from']}) and carries no run config to train with",
            field="config",
        )
    else:
        cfg = RunConfig.from_dict(manifest["config"])
    return cfg, manifest["config_hash"]


def _split(splits: dict, name: str) -> list:
    """The scenes of split `name`, which the dataset must hold."""
    if name not in splits:
        raise ConfigError(f"split {name!r} not in dataset", field="split")
    return splits[name]


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_simulate(args) -> int:
    cfg = _run_config(args.config)
    if args.seed is not None:
        cfg = cfg.override(data_seed=args.seed)
    cfg.validate()
    splits = make_dataset(cfg.sim, cfg.data_seed, cfg.n_train, cfg.n_val, cfg.n_test)
    manifest = write_dataset(args.out, splits, cfg.to_dict())
    counts = ", ".join(f"{name}={info['count']}" for name, info in manifest["splits"].items())
    _say(f"wrote {args.out} ({counts})")
    _say(f"config hash {manifest['config_hash']}")
    return 0


def cmd_train(args) -> int:
    manifest, splits = load_dataset(args.dataset)
    cfg, cfg_hash = _dataset_config(args, manifest)
    if args.seed is not None:
        cfg = cfg.override(train_seed=args.seed)
    model = make_model(args.method, cfg.model_config(), method_rng(cfg.train_seed, args.method))
    tcfg = cfg.train_config()
    optimizer = Adam(model.parameters(), lr=tcfg.lr)
    stride = max(1, tcfg.epochs // 10)

    def progress(stats):
        if stats.epoch % stride == 0 or stats.epoch == tcfg.epochs - 1:
            tail = f" val_sum={stats.val_sum:.3f}" if stats.val_sum is not None else ""
            _say(
                f"epoch {stats.epoch:4d} denoise={stats.loss_denoise:.5f} "
                f"pred={stats.loss_pred:.5f}{tail}"
            )

    result = train_model(
        model, splits["train"], splits.get("val", []), tcfg, optimizer=optimizer, on_epoch=progress
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out / "checkpoint.ckpt",
        model,
        optimizer,
        tcfg,
        config_hash=cfg_hash,
        epoch=result.best_epoch,
        best_val_sum=result.best_val_sum,
    )
    (out / "training_log.csv").write_text(history_to_csv(result.history))
    _say(f"trained {args.method} for {tcfg.epochs} epochs (best epoch {result.best_epoch})")
    _say(f"wrote {out / 'checkpoint.ckpt'} and {out / 'training_log.csv'}")
    return 0


def cmd_eval(args) -> int:
    header, arrays = load_checkpoint(args.checkpoint)
    manifest, splits = load_dataset(args.dataset)
    require_hash(header, manifest["config_hash"], "eval dataset")
    scenes = _split(splits, args.split)
    model = make_model(header["kind"], model_config_from_header(header), np.random.default_rng(0))
    seed = train_config_from_header(header).seed
    restore_model(model, header, arrays)
    default = [header["kind"], *REFERENCE_METHODS]
    names = default if args.methods is None else [s.strip() for s in args.methods.split(",") if s.strip()]
    if not names:
        raise ConfigError(f"--methods {args.methods!r} names no method; valid: {', '.join(default)}", field="methods")
    reports = []
    for name in names:
        if name == header["kind"]:
            scorer = model
        elif name in REFERENCE_METHODS:
            scorer = make_reference(name)
        else:
            raise ConfigError(f"method {name!r} not available here; valid: {', '.join(default)}", field="methods")
        reports.append(
            evaluate_model(scorer, scenes, args.split, manifest["config_hash"], seed)
        )
    _say(reports_to_markdown(reports, title=f"Evaluation on {args.split}"))
    if args.out:
        _write_text(args.out, reports_to_csv(reports))
        _say(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    manifest, splits = load_dataset(args.dataset)
    cfg, cfg_hash = _dataset_config(args, manifest)
    if args.seed is not None:
        cfg = cfg.override(train_seed=args.seed)
    _split(splits, args.split)  # before any training

    def progress(report):
        _say(f"{report.method}: MSE-D={report.mse_d:.2f} MSE-P={report.mse_p:.2f} SUM={report.mse_sum:.2f}")

    reports = run_ablation(splits, cfg, cfg.train_seed, cfg_hash, split=args.split, progress=progress)
    _say("")
    _say(reports_to_markdown(reports, title="Stage removal"))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.csv").write_text(reports_to_csv(reports))
        (out / "ablation.md").write_text(reports_to_markdown(reports, title="Stage removal"))
        _say(f"wrote {out / 'ablation.csv'} and {out / 'ablation.md'}")
    return 0


def cmd_calibrate(args) -> int:
    _, splits = load_dataset(args.dataset)
    scenes = _split(splits, args.split)
    if not scenes:
        raise EmptyInput(f"split {args.split!r} has no scenes")
    lines = ["scene,mode,n_points,mean_px,max_px,flagged"]
    flagged = 0
    for scene in scenes:
        mode, count, mean_px, max_px = calibrate_scene(scene)
        bad = mean_px > FLAG_THRESHOLD_PX
        flagged += bad
        lines.append(f"{scene.seed},{mode},{count},{mean_px!r},{max_px!r},{int(bad)}")
        _say(f"scene {scene.seed}: {mode}, {count} points, mean {mean_px:.4f} px, max {max_px:.4f} px")
    _say(f"flagged {flagged} of {len(scenes)} scenes (threshold {FLAG_THRESHOLD_PX} px)")
    if args.out:
        _write_text(args.out, "\n".join(lines) + "\n")
        _say(f"wrote {args.out}")
    return 0


def cmd_import(args) -> int:
    src = Path(args.input)
    if src.is_dir():  # read without the manifest's hashes: this is how an edited dataset is re-admitted
        manifest = read_manifest(src)
        splits = {name: read_scenes(src / info["file"]) for name, info in manifest["splits"].items()}
        config_dict = manifest["config"]
    else:
        splits = {args.split: read_scenes(src)}
        config_dict = {"imported_from": src.name, "schema": SCENE_SCHEMA}
    manifest = write_dataset(args.out, splits, config_dict)
    counts = ", ".join(f"{name}={info['count']}" for name, info in manifest["splits"].items())
    _say(f"imported into {args.out} ({counts})")
    return 0


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        try:
            reports.extend(reports_from_csv(Path(path).read_text(encoding="utf-8")))
        except UnicodeDecodeError as err:
            raise SchemaError(f"{path}: report CSV is not UTF-8 ({err})") from err
        except SchemaError as err:
            raise SchemaError(f"{path}: {err}", line=err.line, field=err.field) from None
    if not reports:
        raise EmptyInput("no report rows in the given files")
    text = reports_to_markdown(reports, title=args.title)
    _say(text)
    if args.out:
        _write_text(args.out, text)
        _say(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindtrack",
        description="Out-of-sight trajectory denoising and prediction toolkit.",
        epilog=(
            "exit codes: 0 ok, 2 config/usage, 3 i/o, 4 hash mismatch, "
            "5 non-finite loss, 6 not enough data, 7 schema violation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a dataset of synthetic scenes")
    sim.add_argument("--config", help="run config JSON (default: the built-in settings)")
    sim.add_argument("--seed", type=int, help="override the data seed")
    sim.add_argument("--out", required=True, help="output dataset directory")
    sim.set_defaults(run=cmd_simulate)

    train = sub.add_parser("train", help="train one method on a dataset")
    train.add_argument("--dataset", required=True, help="dataset directory from simulate")
    train.add_argument("--config", help="run config JSON; must hash-match the dataset")
    train.add_argument(
        "--method",
        default="full",
        help=f"one of: {', '.join(method_names())} (the references "
        f"{' and '.join(REFERENCE_METHODS)} need no training; eval scores them)",
    )
    train.add_argument("--seed", type=int, help="override the training seed")
    train.add_argument("--out", required=True, help="output directory for checkpoint and log")
    train.set_defaults(run=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint against reference methods")
    ev.add_argument("--checkpoint", required=True, help="checkpoint file from train")
    ev.add_argument("--dataset", required=True, help="dataset directory; must hash-match")
    ev.add_argument("--methods", help="comma list: the checkpoint method and/or references")
    ev.add_argument("--split", default="test", help="split to score (default test)")
    ev.add_argument("--out", help="also write the table as CSV")
    ev.set_defaults(run=cmd_eval)

    ab = sub.add_parser("ablate", help="train the full model and the stage-removal variants")
    ab.add_argument("--dataset", required=True, help="dataset directory from simulate")
    ab.add_argument("--config", help="run config JSON; must hash-match the dataset")
    ab.add_argument("--seed", type=int, help="override the training seed")
    ab.add_argument("--split", default="test", help="split to score (default test)")
    ab.add_argument("--out", help="directory for ablation.csv and ablation.md")
    ab.set_defaults(run=cmd_ablate)

    cal = sub.add_parser("calibrate", help="classical camera recovery check per scene")
    cal.add_argument("--dataset", required=True, help="dataset directory")
    cal.add_argument("--split", default="test", help="split to check (default test)")
    cal.add_argument("--out", help="write per-scene results as CSV")
    cal.set_defaults(run=cmd_calibrate)

    imp = sub.add_parser("import", help="check external or edited scenes and rebuild a dataset")
    imp.add_argument("input", help="scene JSONL file or dataset directory")
    imp.add_argument("--out", required=True, help="output dataset directory")
    imp.add_argument("--split", default="test", help="split for a single-file import")
    imp.set_defaults(run=cmd_import)

    rep = sub.add_parser("report", help="merge evaluation CSVs into one markdown table")
    rep.add_argument("inputs", nargs="+", help="CSV files from eval or ablate")
    rep.add_argument("--out", help="write the markdown here as well")
    rep.add_argument("--title", default="Evaluation", help="table heading")
    rep.set_defaults(run=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except BlindtrackError as err:  # each error the CLI reports carries its exit code
        if err.exit_code is None:
            raise
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
