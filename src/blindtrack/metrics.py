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


def mse_t(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance between two (T, 2) pixel tracks."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[1] != 2 or truth.ndim != 2 or truth.shape[1] != 2:
        raise LengthMismatch(f"pixel tracks must be (T, 2), got {pred.shape} and {truth.shape}")
    if pred.shape[0] != truth.shape[0]:
        raise LengthMismatch(f"{pred.shape[0]} predicted steps vs {truth.shape[0]} true steps")
    if pred.shape[0] == 0:
        raise EmptyTrajectory("cannot score an empty trajectory")
    return float(np.linalg.norm(pred - truth, axis=1).mean())


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


# observed rows (scenes x t_obs) per predict call when scoring (see
# score_scenes). Swept over the benchmark's three workloads on a 2-core
# x86-64 box (numpy 2.4, OpenBLAS 0.3.31), ms per scene with the camera
# memo warm: `full` at T = 20 is fastest at 320 rows, 16 scenes (0.83, vs
# 0.96 at 160 rows and 1.07 at 480); `full` at T = 100 at 320 rows, 3
# scenes (4.9, vs 5.2 at 200 and 6.6 at 400); two_stage:gru, which has no
# attention and runs each recurrent trunk as one fused scan, gains little
# past it (0.21 at 320, 0.20 at 640).
SCORE_ROWS = 320


def score_scenes(predict, scenes, method: str, split: str, config_hash: str = "", seed: int = 0) -> EvalReport:
    """Score a method on a split: the mean over scenes of each scene's
    mse_t over the observed window (MSE-D) and the prediction window
    (MSE-P). This is the one scorer; every report comes from it.

    predict(batch) takes a list of B scenes of one shape (Scene.shape)
    and returns their observed and future pixel tracks, (B, t_obs, 2) and
    (B, t_pred, 2). Scenes are sorted by seed, grouped by shape, and each
    group is cut into chunks of at most SCORE_ROWS observed rows, one
    predict call each, so a learned model scores a chunk as one
    row-stacked forward pass. Each scene's errors keep its place in seed
    order, so reports do not depend on input ordering. A scene whose
    error is NaN or inf (its prediction is, or overflows) raises
    NonFiniteLoss naming its seed.
    """
    if not scenes:
        raise EmptyInput(f"no scenes in split {split!r}")
    ordered = sorted(scenes, key=lambda s: s.seed)
    d_errors, p_errors = np.empty(len(ordered)), np.empty(len(ordered))
    for group in shape_groups(ordered):
        per_call = max(1, SCORE_ROWS // ordered[group[0]].t_obs)
        for start in range(0, len(group), per_call):
            chunk = group[start:start + per_call]
            visual, future = predict([ordered[i] for i in chunk])
            if len(visual) != len(chunk) or len(future) != len(chunk):
                raise LengthMismatch(
                    f"{method}: predicted {len(visual)} and {len(future)} tracks for {len(chunk)} scenes"
                )
            for i, denoised, ahead in zip(chunk, visual, future):
                scene = ordered[i]
                pixel = scene.out_of_sight().pixel
                d_errors[i] = mse_t(denoised, pixel[: scene.t_obs])
                p_errors[i] = mse_t(ahead, pixel[scene.t_obs:])
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
