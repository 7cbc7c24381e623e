"""Evaluation metrics and report containers.

The trajectory error is the mean Euclidean pixel distance per timestep.
Datasets are scored as the mean of per-scene errors over the denoising
window (observed span) and the prediction window separately; their sum is
the single ranking number used everywhere.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyInput, EmptyTrajectory, LengthMismatch, NonFiniteLoss, SchemaError
from .simulator import shape_groups


def track_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Mean Euclidean distance per track between two (B, T, 2) stacks of
    pixel tracks, (B,). Each entry is the bits mse_t gives its track."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 3 or pred.shape[2] != 2 or truth.ndim != 3 or truth.shape[2] != 2:
        raise LengthMismatch(f"pixel track stacks must be (B, T, 2), got {pred.shape} and {truth.shape}")
    if pred.shape[0] != truth.shape[0]:
        raise LengthMismatch(f"{pred.shape[0]} predicted tracks vs {truth.shape[0]} true tracks")
    if pred.shape[1] != truth.shape[1]:
        raise LengthMismatch(f"{pred.shape[1]} predicted steps vs {truth.shape[1]} true steps")
    if pred.shape[1] == 0:
        raise EmptyTrajectory("cannot score an empty trajectory")
    return np.linalg.norm(pred - truth, axis=2).mean(axis=1)


def mse_t(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance between two (T, 2) pixel tracks: track_errors
    of one track."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 2 or truth.ndim != 2:
        raise LengthMismatch(f"pixel tracks must be (T, 2), got {pred.shape} and {truth.shape}")
    return float(track_errors(pred[None], truth[None])[0])


@dataclass(frozen=True)
class EvalReport:
    """Scores for one method on one split."""

    method: str
    split: str
    n_scenes: int
    mse_d: float  # denoising window error, pixels
    mse_p: float  # prediction window error, pixels
    mse_sum: float  # mse_d + mse_p
    config_hash: str = ""
    seed: int = 0

    def validate(self) -> None:
        if self.n_scenes < 1:
            raise ValueError(f"{self.n_scenes} scenes in report for {self.method}")
        if not np.isfinite([self.mse_d, self.mse_p, self.mse_sum]).all():
            raise ValueError(f"non-finite error in report for {self.method}")
        if abs(self.mse_sum - (self.mse_d + self.mse_p)) > 1e-9:
            raise ValueError(
                f"sum {self.mse_sum} != {self.mse_d} + {self.mse_p} for {self.method}"
            )
        if self.mse_d < 0 or self.mse_p < 0:
            raise ValueError(f"negative error in report for {self.method}")


def score_scenes(predict, scenes, method: str, split: str, config_hash: str = "", seed: int = 0) -> EvalReport:
    """Score a method on a split: the mean over scenes of each scene's
    mse_t over the observed window (MSE-D) and the prediction window
    (MSE-P), taken by one track_errors pass per shape group and window.
    This is the one scorer; every report comes from it.

    predict(batch) takes a list of B scenes of one shape (Scene.shape)
    and returns their observed and future pixel tracks, (B, t_obs, 2) and
    (B, t_pred, 2). Scenes are sorted by seed and grouped by shape, and
    each group is one predict call, its scenes in seed order; a learned
    model cuts the group into its own forward passes
    (pipeline.TrajectoryModel.predict). Each scene's errors keep its place
    in seed order, so reports do not depend on input ordering. A scene
    whose error is NaN or inf (its prediction is, or overflows) raises
    NonFiniteLoss naming its seed.
    """
    if not scenes:
        raise EmptyInput(f"no scenes in split {split!r}")
    ordered = sorted(scenes, key=lambda s: s.seed)
    d_errors, p_errors = np.empty(len(ordered)), np.empty(len(ordered))
    for group in shape_groups(ordered):
        visual, future = predict([ordered[i] for i in group])
        if len(visual) != len(group) or len(future) != len(group):
            raise LengthMismatch(
                f"{method}: predicted {len(visual)} and {len(future)} tracks for {len(group)} scenes"
            )
        pixel = np.stack([ordered[i].pixel[ordered[i].hidden] for i in group])
        t_obs = ordered[group[0]].t_obs
        d_errors[group] = track_errors(visual, pixel[:, :t_obs])
        p_errors[group] = track_errors(future, pixel[:, t_obs:])
    bad = np.flatnonzero(~np.isfinite(d_errors + p_errors))
    if bad.size:
        raise NonFiniteLoss(f"{method}: non-finite pixel error on scene seed {ordered[bad[0]].seed}")
    mse_d = float(np.mean(d_errors))
    mse_p = float(np.mean(p_errors))
    report = EvalReport(
        method=method,
        split=split,
        n_scenes=len(scenes),
        mse_d=mse_d,
        mse_p=mse_p,
        mse_sum=mse_d + mse_p,
        config_hash=config_hash,
        seed=seed,
    )
    report.validate()
    return report


# each CSV column and how it parses; a file without the last two reads "" and 0
CSV_PARSERS = {"method": str, "split": str, "n_scenes": int, "mse_d": float, "mse_p": float, "mse_sum": float,
               "config_hash": str, "seed": int}
CSV_FIELDS = list(CSV_PARSERS)
CSV_DEFAULTS = {"config_hash": "", "seed": "0"}


def reports_to_csv(reports: list[EvalReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        row = asdict(report)
        for key in ("mse_d", "mse_p", "mse_sum"):
            row[key] = repr(row[key])
        writer.writerow(row)
    return buf.getvalue()


def reports_from_csv(text: str) -> list[EvalReport]:
    """Parse reports_to_csv's output. A missing column, a value that does
    not parse, or a row EvalReport.validate refuses raises SchemaError
    naming the line (and the column, where one is at fault)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:  # an empty file holds no reports
        return []
    missing = [c for c in CSV_FIELDS if c not in reader.fieldnames and c not in CSV_DEFAULTS]
    if missing:
        raise SchemaError(f"line 1: report CSV has no {missing[0]!r} column", line=1, field=missing[0])
    out = []
    for row in reader:
        values = {}
        for column, parse in CSV_PARSERS.items():
            raw = row.get(column, CSV_DEFAULTS.get(column))
            try:
                if raw is None:  # a row shorter than the header
                    raise ValueError
                values[column] = parse(raw)
            except ValueError:
                raise SchemaError(
                    f"line {reader.line_num}, column {column!r}: {raw!r} is not {parse.__name__}",
                    line=reader.line_num,
                    field=column,
                ) from None
        report = EvalReport(**values)
        try:
            report.validate()
        except ValueError as err:
            raise SchemaError(f"line {reader.line_num}: {err}", line=reader.line_num) from None
        out.append(report)
    return out


def reports_to_markdown(reports: list[EvalReport], title: str = "Evaluation") -> str:
    lines = [f"# {title}", ""]
    lines.append("| method | split | scenes | MSE-D | MSE-P | SUM | seed |")
    lines.append("|---|---|---|---|---|---|---|")
    for r in reports:
        lines.append(
            f"| {r.method} | {r.split} | {r.n_scenes} | {r.mse_d:.3f} | {r.mse_p:.3f} | "
            f"{r.mse_sum:.3f} | {r.seed} |"
        )
    lines.append("")
    return "\n".join(lines)
