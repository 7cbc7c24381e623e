"""End-to-end command line behavior: artifacts, determinism, exit codes.

Commands run in-process through main() so each case costs milliseconds
and the return value is the exit code the shell would see.
"""

import copy
import hashlib
import json
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from blindtrack.baselines import make_model
from blindtrack.checkpoint import (
    MAGIC,
    load_checkpoint,
    model_config_from_header,
    restore_model,
    save_checkpoint,
    train_config_from_header,
)
from blindtrack.cli import build_parser, main
from blindtrack.dataset import hash_of, read_manifest
from blindtrack.metrics import reports_from_csv
from blindtrack.nn import Adam, Linear

from test_checkpoint import rewrite_header
from test_dataset import hidden, put, repack, to_v1

TINY = {
    "data_seed": 7,
    "train_seed": 1,
    "n_train": 6,
    "n_val": 2,
    "n_test": 2,
    "sim": {
        "n_agents": 4,
        "t_obs": 8,
        "t_pred": 4,
        "camera_motion": "static",
        "noise": {"gps_sigma": 0.5, "drift_step_sigma": 0.0},
        "image_size": [640, 480],
        "focal": 500.0,
    },
    "width": 16,
    "layers": 1,
    "heads": 2,
    "epochs": 3,
    "batch_size": 4,
    "lr": 1e-3,
}


def write_config(path: Path, **changes) -> Path:
    raw = copy.deepcopy(TINY)
    for key, value in changes.items():
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target[part]
        target[parts[-1]] = value
    path.write_text(json.dumps(raw))
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def rehash(data: Path, split: str) -> None:
    """Record the split file's present sha256 in the dataset's manifest."""
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["splits"][split]["sha256"] = hashlib.sha256((data / f"{split}.jsonl").read_bytes()).hexdigest()
    (data / "manifest.json").write_text(json.dumps(manifest))


def edited_dataset(source: Path, out: Path, split: str, edit, rehashed: bool = True) -> Path:
    """A copy of a dataset whose split has edit applied to the record on
    line 2; when rehashed, the manifest records the edited file's sha256."""
    shutil.copytree(source, out)
    path = out / f"{split}.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    path.write_text("".join(text + "\n" for text in lines))
    if rehashed:
        rehash(out, split)
    return out


def fill_array(source: Path, dest: Path, value: float, name: str | None = None) -> str:
    """Copy a checkpoint with every entry of array `name` (by default the
    first array) set to value; returns the array's name."""
    blob = bytearray(source.read_bytes())
    (length,) = struct.unpack("<Q", blob[8:16])
    offset = 16 + length
    for entry in json.loads(blob[16 : 16 + length])["arrays"]:
        size = entry["rows"] * entry["cols"]
        if name in (None, entry["name"]):
            blob[offset : offset + 8 * size] = struct.pack(f"<{size}d", *[value] * size)
            dest.write_bytes(bytes(blob))
            return entry["name"]
        offset += 8 * size
    raise KeyError(name)


def write_arrays(path: Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a checkpoint of header whose arrays are exactly `arrays`, in order."""
    header = {**header, "arrays": [{"name": n, "rows": a.shape[0], "cols": a.shape[1]} for n, a in arrays.items()]}
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(a.astype("<f8").tobytes() for a in arrays.values())
    path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + body)


def _set(target, key, value):
    target[key] = value


def _model_with_n_in_max(header):
    """A header written while "model" held n_in_max and no focal."""
    del header["model"]["focal"]
    header["model"]["n_in_max"] = 8


# one-field edits of a scene record, each with the field the refusal names;
# NaN is the schema's null
EDITS = {
    "missing_agents": (lambda r: r.pop("agent_ids"), lambda r: "agent_ids"),
    "string_sensor_value": (lambda r: _set(r, "sensor", "1.5"), lambda r: "sensor"),  # not base64
    "t_obs_30": (lambda r: _set(r, "t_obs", 30), lambda r: "camera"),
    "null_world_value": (put("world", (0, 5, 1), np.nan), lambda r: "world"),
    "duplicate_agent_id": (lambda r: _set(r["agent_ids"], 1, r["agent_ids"][0]), lambda r: "agent_ids"),
    "camera_row_short": (lambda r: repack(r, "camera", lambda a: a[:-1]), lambda r: "camera"),  # 96 bytes short
    "null_hidden_pixel": (lambda r: put("pixel", (hidden(r), 3), np.nan)(r), lambda r: "pixel"),
    "ragged_sensor_rows": (lambda r: repack(r, "sensor", lambda a: a[:, 1:]), lambda r: "sensor"),  # a step short
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "tiny.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert main(["train", "--dataset", str(root / "data"), "--out", str(root / "run")]) == 0
    return root


class TestSimulate:
    def test_writes_manifest_and_splits(self, workdir):
        manifest = read_manifest(workdir / "data")
        assert {name: info["count"] for name, info in manifest["splits"].items()} == {
            "train": 6, "val": 2, "test": 2,
        }
        for info in manifest["splits"].values():
            assert (workdir / "data" / info["file"]).exists()

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        assert main(["simulate", "--config", str(workdir / "tiny.json"), "--out", str(tmp_path / "again")]) == 0
        assert tree_bytes(tmp_path / "again") == tree_bytes(workdir / "data")

    def test_seed_flag_changes_the_dataset(self, workdir, tmp_path):
        assert main(["simulate", "--config", str(workdir / "tiny.json"), "--seed", "99",
                     "--out", str(tmp_path / "other")]) == 0
        a = read_manifest(workdir / "data")
        b = read_manifest(tmp_path / "other")
        assert a["config_hash"] != b["config_hash"]
        assert a["splits"]["train"]["sha256"] != b["splits"]["train"]["sha256"]

    def test_missing_out_flag_is_usage_error(self, workdir):
        assert main(["simulate", "--config", str(workdir / "tiny.json")]) == 2

    def test_bad_config_value_is_usage_error(self, workdir, tmp_path):
        cfg = write_config(tmp_path / "bad.json", **{"sim.noise.gps_sigma": 50.0})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"epochs": "10"}, "'epochs' holds str"),
            ({"sim": {"t_obs": "4"}}, "'sim.t_obs' holds str"),
            ({"lr": None}, "'lr' holds NoneType"),
            ({"sim": {"noise": {"gps_sigma": "x"}}}, "'sim.noise.gps_sigma' holds str"),
            ({"sim": {"image_size": 5}}, "'sim.image_size' holds int"),
            # fields older versions wrote
            ({"profile": "desk"}, "unknown field 'profile'"),
            ({"pred_weight": 1.0}, "unknown field 'pred_weight'"),
            ({"sim": {"noise": {"kind": "gps", "gps_sigma": 2.0}}}, "unknown field 'sim.noise.kind'"),
        ],
        ids=["epochs_a_string", "t_obs_a_string", "lr_null", "gps_sigma_a_string", "image_size_an_int",
             "names_profile", "names_pred_weight", "names_noise_kind"],
    )
    def test_config_value_of_the_wrong_json_type_exits_2(self, tmp_path, capsys, raw, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_artifacts_written_and_pinned(self, workdir):
        header, _ = load_checkpoint(workdir / "run" / "checkpoint.ckpt")
        manifest = read_manifest(workdir / "data")
        assert header["config_hash"] == manifest["config_hash"]
        assert header["kind"] == "full"
        log = (workdir / "run" / "training_log.csv").read_text().strip().splitlines()
        assert log[0].startswith("epoch,") and len(log) == 1 + TINY["epochs"]

    def test_header_epoch_is_the_best_validation_epoch(self, tmp_path, capsys):
        # a run whose val_sum is lowest before its last epoch
        cfg = write_config(tmp_path / "tiny.json", epochs=4, lr=1e-2)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert main(["train", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "run")]) == 0
        printed = int(capsys.readouterr().out.split("(best epoch ")[1].split(")")[0])
        log = (tmp_path / "run" / "training_log.csv").read_text().strip().splitlines()[1:]
        val_sums = [float(line.split(",")[5]) for line in log]
        header, _ = load_checkpoint(tmp_path / "run" / "checkpoint.ckpt")
        assert header["epoch"] == printed == int(np.argmin(val_sums)) < len(log) - 1

    def test_mismatched_config_exits_4(self, workdir, tmp_path):
        cfg = write_config(tmp_path / "other.json", data_seed=99)
        assert main(["train", "--dataset", str(workdir / "data"), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 4

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["train", "--dataset", str(tmp_path / "nowhere"), "--out", str(tmp_path / "run")]) == 3

    @pytest.mark.parametrize("key, value", [("profile", "desk"), ("pred_weight", 1.0)])
    def test_dataset_of_an_older_config_exits_2(self, workdir, tmp_path, capsys, key, value):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"][key] = value
        manifest["config_hash"] = hash_of(manifest["config"])  # as the older version wrote it
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "run")]) == 2
        assert f"unknown field {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_dataset_whose_noise_names_a_kind_exits_2_and_still_evaluates(self, workdir, tmp_path, capsys):
        # the manifest an older version wrote while the noise named a kind,
        # and a checkpoint trained on it: eval never parses the config
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"]["sim"]["noise"]["kind"] = "gps"
        manifest["config_hash"] = hash_of(manifest["config"])
        (data / "manifest.json").write_text(json.dumps(manifest))
        for command in ("train", "ablate"):
            assert main([command, "--dataset", str(data), "--out", str(tmp_path / "run")]) == 2
            assert "unknown field 'sim.noise.kind'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        checkpoint = tmp_path / "older.ckpt"
        shutil.copy(workdir / "run" / "checkpoint.ckpt", checkpoint)
        rewrite_header(checkpoint, lambda header: header.update(config_hash=manifest["config_hash"]))
        assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(data)]) == 0

    def test_edited_manifest_config_exits_4_until_reimported(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"].update(epochs=1, lr=0.5)  # the config_hash is left as it was
        (data / "manifest.json").write_text(json.dumps(manifest))
        run = tmp_path / "run"
        for argv in (["train", "--out", str(run)], ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt")],
                     ["ablate", "--out", str(run)], ["calibrate", "--out", str(run / "cal.csv")]):
            assert main([*argv, "--dataset", str(data)]) == 4, argv
            err = capsys.readouterr().err
            assert f"{data / 'manifest.json'}: config hash" in err and "blindtrack import" in err
        assert not run.exists()
        assert main(["import", str(data), "--out", str(tmp_path / "fixed")]) == 0
        assert read_manifest(tmp_path / "fixed")["config_hash"] == hash_of(manifest["config"])
        assert main(["train", "--dataset", str(tmp_path / "fixed"), "--out", str(run)]) == 0
        assert "for 1 epochs" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_empty_training_split_exits_6_before_any_work(self, workdir, tmp_path, capsys, command):
        source = tmp_path / "source"
        shutil.copytree(workdir / "data", source)
        (source / "train.jsonl").write_bytes(b"")
        assert main(["import", str(source), "--out", str(tmp_path / "data")]) == 0
        assert "train=0" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main([command, "--dataset", str(tmp_path / "data"), "--out", str(out)]) == 6
        assert "error: no training scenes" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_exits_2(self, workdir, tmp_path, capsys):
        code = main(["train", "--dataset", str(workdir / "data"), "--method", "psychic",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "plus_vpd:transformer" in capsys.readouterr().err

    @pytest.mark.parametrize("reference", ["const_velocity", "smoother"])
    def test_a_reference_is_not_offered_for_training(self, workdir, tmp_path, capsys, reference):
        assert main(["train", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # as one line, however argparse wraps it
        offered = text.split("--method METHOD one of: ")[1].split(" (the references")[0]
        assert "no_predictor" in offered and reference not in offered and "need no training" in text
        code = main(["train", "--dataset", str(workdir / "data"), "--method", reference,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        listed = err.split("expected one of ")[1].split("]")[0]
        assert "'no_predictor'" in listed and reference not in listed and "need no training" in err
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_default_methods_and_csv(self, workdir, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        code = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(workdir / "data"), "--out", str(out)])
        assert code == 0
        assert "| full |" in capsys.readouterr().out
        reports = reports_from_csv(out.read_text())
        assert [r.method for r in reports] == ["full", "const_velocity", "smoother"]
        assert all(r.split == "test" and r.n_scenes == 2 for r in reports)
        for r in reports:
            assert r.mse_sum == pytest.approx(r.mse_d + r.mse_p)

    def test_unknown_method_exits_2_listing_valid(self, workdir, capsys):
        code = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(workdir / "data"), "--methods", "oracle9"])
        assert code == 2
        err = capsys.readouterr().err
        assert "full" in err and "const_velocity" in err and "smoother" in err

    @pytest.mark.parametrize("methods", [",", "", " , "])
    def test_empty_method_list_exits_2(self, workdir, tmp_path, capsys, methods):
        out = tmp_path / "eval.csv"
        code = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(workdir / "data"), "--methods", methods, "--out", str(out)])
        assert code == 2
        assert f"--methods {methods!r} names no method; valid: full, " in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_dataset_exits_4(self, workdir, tmp_path):
        cfg = write_config(tmp_path / "other.json", data_seed=99)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "other")]) == 0
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(tmp_path / "other")]) == 4

    def test_checkpoint_with_arrays_the_model_lacks_exits_7(self, workdir, tmp_path, capsys):
        header, arrays = load_checkpoint(workdir / "run" / "checkpoint.ckpt")
        model = make_model(header["kind"], model_config_from_header(header), np.random.default_rng(0))
        restore_model(model, header, arrays)
        model.legacy_stage = Linear(4, 12, np.random.default_rng(1))  # a stage this version lacks
        path = tmp_path / "legacy.ckpt"
        save_checkpoint(path, model, Adam(model.parameters()), train_config_from_header(header),
                        config_hash=header["config_hash"])
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data")]) == 7
        assert "legacy_stage.weight" in capsys.readouterr().err
        # the older format: the parameters, then Adam's moments of each
        path = tmp_path / "with_moments.ckpt"
        moments = {f"adam.{key}:{name}": np.zeros_like(a) for key in "mv" for name, a in arrays.items()}
        write_arrays(path, header, {**arrays, **moments})
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data")]) == 7
        err = capsys.readouterr().err
        # one short line: the count and the first three names, not all of them
        assert "does not have: adam.m:" in err and f"holds {len(moments)} parameters" in err
        assert err.count("\n") == 1 and len(err) < 300, err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda header: header["model"].update(dropout=0.1), "'dropout'"),
            # a header written before the method name alone named the model
            (lambda header: header["model"].update(use_denoiser=True), "'use_denoiser'"),
            (lambda header: header.pop("train"), "'train'"),
            (lambda header: header["arrays"][0].pop("rows"), "arrays[0]"),
            (lambda header: header.update(arrays=5), "'arrays' is not a list"),
            (lambda header: header["model"].update(width="x"), "field 'width' holds str"),
            (lambda header: header["arrays"][0].update(rows=-1), "arrays[0]"),
            (lambda header: header["arrays"][0].update(rows=2**40), "truncated array"),
            (_model_with_n_in_max, "missing field 'focal'"),
            (lambda header: header["model"].update(heads=0), "'model': heads must be >= 1, got 0"),
            (lambda header: header["model"].update(heads=3), "'model': width 16 not divisible by heads 3"),
            (lambda header: header["model"].update(width=0), "'model': width must be >= 1, got 0"),
            (lambda header: header["model"].update(width=-8), "'model': width must be >= 1, got -8"),
            (lambda header: header["model"].update(focal=0.0), "'model': focal must be finite and positive"),
            (lambda header: header["model"].update(focal=-1.0), "'model': focal must be finite and positive"),
            (lambda header: header["model"].update(focal=float("nan")), "'model': focal must be finite and positive"),
            (lambda header: header.update(train={}), "'train': missing field 'batch_size'"),
            (lambda header: header.update(train=[1]), "'train': missing field 'batch_size'"),
            (lambda header: header["train"].update(seed="abc"), "'train': field 'seed' holds str"),
            (lambda header: header["train"].update(batch_size=0), "'train': batch_size must be >= 1, got 0"),
            # a header written while the prediction loss had a weight
            (lambda header: header["train"].update(pred_weight=1.0), "'train': unknown field 'pred_weight'"),
        ],
        ids=["extra_model_field", "use_denoiser", "missing_train", "array_without_rows",
             "arrays_not_a_list", "width_not_an_int", "negative_rows", "rows_past_the_end", "n_in_max_no_focal",
             "heads_0", "heads_3_width_16", "width_0", "width_negative", "focal_0", "focal_negative", "focal_nan",
             "train_empty", "train_a_list", "seed_a_string", "batch_size_0", "train_names_pred_weight"],
    )
    def test_checkpoint_header_of_another_format_exits_7(self, workdir, tmp_path, capsys, edit, named):
        path = tmp_path / "edited.ckpt"
        shutil.copy(workdir / "run" / "checkpoint.ckpt", path)
        rewrite_header(path, edit)
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data")]) == 7
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, named",
        [("kind", "foo", "'kind' 'foo' names no trainable method"),
         ("kind", ["full"], "'kind' ['full'] names no trainable method"),
         ("kind", "smoother", "'kind' 'smoother' names no trainable method"),
         ("config_hash", 123, "'config_hash' must be a string, got 123"),
         ("config_hash", None, "'config_hash' must be a string, got None"),
         ("config_hash", [], "'config_hash' must be a string, got []")],
        ids=["kind_foo", "kind_a_list", "kind_a_reference", "hash_an_int", "hash_null", "hash_a_list"],
    )
    def test_checkpoint_header_kind_and_hash_are_checked_as_format(self, workdir, tmp_path, capsys, key, value, named):
        path = tmp_path / "edited.ckpt"
        shutil.copy(workdir / "run" / "checkpoint.ckpt", path)
        rewrite_header(path, lambda header: header.update({key: value}))
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data")]) == 7
        assert f"error: {path}: checkpoint header {named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, named",
        [(b"\xff\xfe{}", "not JSON"), (None, "truncated header")],
        ids=["not_utf8", "length_past_the_end"],
    )
    def test_checkpoint_header_bytes_exit_7(self, workdir, tmp_path, capsys, header, named):
        blob = (workdir / "run" / "checkpoint.ckpt").read_bytes()
        path = tmp_path / "edited.ckpt"
        if header is None:  # a length far beyond the file
            path.write_bytes(blob[:8] + struct.pack("<Q", 2**62) + blob[16:])
        else:
            path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header)
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data")]) == 7
        assert named in capsys.readouterr().err

    def test_scene_without_its_hidden_agent_exits_7(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        records = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()]
        for record in records:
            record["out_of_sight_id"] = 99
        (data / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        checkpoint = str(workdir / "run" / "checkpoint.ckpt")
        # the edited split no longer hashes to its manifest's sha256
        assert main(["eval", "--checkpoint", checkpoint, "--dataset", str(data)]) == 4
        assert "test.jsonl: sha256" in capsys.readouterr().err
        rehash(data, "test")
        assert main(["eval", "--checkpoint", checkpoint, "--dataset", str(data)]) == 7
        err = capsys.readouterr().err
        assert f"scene seed {records[0]['seed']}" in err and "out_of_sight_id 99" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("name", list(EDITS))
    def test_edited_scene_exits_7_naming_line_and_field(self, workdir, tmp_path, capsys, command, name):
        edit, named = EDITS[name]
        split = "train" if command == "train" else "test"
        data = edited_dataset(workdir / "data", tmp_path / "data", split, edit)
        record = json.loads((workdir / "data" / f"{split}.jsonl").read_text().splitlines()[1])
        if command == "train":
            argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "run")]
        else:
            argv = ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"), "--dataset", str(data)]
        assert main(argv) == 7
        assert f"{split}.jsonl: line 2, field '{named(record)}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_edited_split_exits_4_until_reimported(self, workdir, tmp_path, capsys):
        def nudge(record):
            repack(record, "sensor", lambda a: a.__setitem__((0, 0, 0), a[0, 0, 0] + 0.5))

        data = edited_dataset(workdir / "data", tmp_path / "data", "test", nudge, rehashed=False)
        checkpoint = str(workdir / "run" / "checkpoint.ckpt")
        assert main(["eval", "--checkpoint", checkpoint, "--dataset", str(data)]) == 4
        assert "blindtrack import" in capsys.readouterr().err
        assert main(["import", str(data), "--out", str(tmp_path / "fixed")]) == 0
        assert main(["eval", "--checkpoint", checkpoint, "--dataset", str(tmp_path / "fixed")]) == 0
        old, new = read_manifest(workdir / "data"), read_manifest(tmp_path / "fixed")
        assert new["config_hash"] == old["config_hash"]
        assert new["splits"]["test"]["sha256"] != old["splits"]["test"]["sha256"]
        assert new["splits"]["train"] == old["splits"]["train"]

    @pytest.mark.parametrize("argv", [["train", "--method", "full"], ["train", "--method", "two_stage:gru"], ["eval"]],
                             ids=["train_full", "train_two_stage_gru", "eval"])
    def test_scene_of_another_horizon_exits_7(self, workdir, tmp_path, capsys, argv):
        def shorten(record):  # one step less to predict, every array kept consistent
            repack(record, "camera", lambda a: a[:-1])
            repack(record, "world", lambda a: a[:, :-1])
            repack(record, "pixel", lambda a: a[:, :-1])
            record["t_pred"] -= 1

        split = "train" if argv[0] == "train" else "test"
        data = edited_dataset(workdir / "data", tmp_path / "data", split, shorten)
        seed = json.loads((data / f"{split}.jsonl").read_text().splitlines()[1])["seed"]
        if argv[0] == "train":
            argv = [*argv, "--dataset", str(data), "--out", str(tmp_path / "run")]
        else:
            argv = [*argv, "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"), "--dataset", str(data)]
        assert main(argv) == 7
        assert f"scene seed {seed} predicts 3 steps, the model 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "import"])
    def test_v1_record_exits_7_naming_both_schemas(self, workdir, tmp_path, capsys, command):
        split = "train" if command == "train" else "test"
        data = edited_dataset(workdir / "data", tmp_path / "data", split, to_v1)
        argv = {
            "train": ["train", "--dataset", str(data), "--out", str(tmp_path / "run")],
            "eval": ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"), "--dataset", str(data)],
            "import": ["import", str(data / "test.jsonl"), "--out", str(tmp_path / "run")],
        }[command]
        assert main(argv) == 7
        err = capsys.readouterr().err
        assert "line 2, field 'schema'" in err
        assert "'blindtrack-scene-v2'" in err and "'blindtrack-scene-v1'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda manifest: manifest.pop("config_hash"), "manifest needs str 'config_hash'"),
            (lambda manifest: manifest.update(config=5), "manifest needs dict 'config'"),
            (lambda manifest: manifest["splits"].pop("train"), "'splits' must name the file and sha256"),
            (lambda manifest: manifest["splits"].pop("test"), "'splits' must name the file and sha256"),
        ],
        ids=["no_config_hash", "config_not_an_object", "no_train_split", "no_test_split"],
    )
    def test_broken_manifest_exits_7(self, workdir, tmp_path, capsys, command, edit, named):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
        if command == "train":
            argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "run")]
        else:
            argv = ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"), "--dataset", str(data)]
        assert main(argv) == 7
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_checkpoint_array_holding_a_non_finite_value_exits_7(self, workdir, tmp_path, capsys, value):
        path = tmp_path / "edited.ckpt"
        first = fill_array(workdir / "run" / "checkpoint.ckpt", path, value)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data"), "--out", str(out)]) == 7
        assert f"array {first!r} holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_model_predicting_non_finite_pixels_exits_5(self, workdir, tmp_path, capsys):
        # finite weights so large that the forecast overflows
        path = tmp_path / "huge.ckpt"
        fill_array(workdir / "run" / "checkpoint.ckpt", path, 1e300, "predictor.head.weight")
        out = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(workdir / "data"), "--out", str(out)]) == 5
        assert "full: non-finite pixel error on scene seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_split_exits_2(self, workdir):
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(workdir / "data"), "--split", "holdout"]) == 2


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "argv, target, garble, code",
        [
            (["train", "--dataset", "{data}", "--out", "{run}"], "data/manifest.json", lambda b: b"\xff\xfe" + b, 7),
            (["train", "--dataset", "{data}", "--out", "{run}"], "data/manifest.json", lambda b: b[: len(b) // 2], 7),
            (["simulate", "--config", "{target}", "--out", "{run}"], "tiny.json", lambda b: b"\xff\xfe" + b, 2),
            (["report", "{target}"], "eval.csv", lambda b: b"\xff\xfe" + b, 7),
        ],
        ids=["manifest_not_utf8", "manifest_truncated", "config_not_utf8", "report_not_utf8"],
    )
    def test_file_that_is_not_utf8_or_whole_exits_naming_it(self, workdir, tmp_path, capsys, argv, target, garble, code):
        shutil.copytree(workdir / "data", tmp_path / "data")
        shutil.copy(workdir / "tiny.json", tmp_path / "tiny.json")
        (tmp_path / "eval.csv").write_text("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,2,1.0,2.0,3.0\n")
        path = tmp_path / target
        path.write_bytes(garble(path.read_bytes()))
        paths = {"data": tmp_path / "data", "run": tmp_path / "run", "target": path}
        assert main([arg.format(**paths) for arg in argv]) == code
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestCalibrate:
    def test_clean_static_recovers_exactly(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "clean.json", **{"sim.noise.gps_sigma": 0.0})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        out = tmp_path / "calib.csv"
        assert main(["calibrate", "--dataset", str(tmp_path / "data"), "--out", str(out)]) == 0
        assert "flagged 0 of 2 scenes" in capsys.readouterr().out
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for row in rows:
            assert row[1] == "static"
            assert float(row[3]) < 1e-6 and float(row[4]) < 1e-6
            assert row[5] == "0"

    def test_noisy_scenes_get_flagged(self, workdir, capsys):
        assert main(["calibrate", "--dataset", str(workdir / "data"), "--split", "train"]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith("flagged") and "of 6 scenes" in summary

    def test_clean_moving_camera_with_enough_agents(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "arc.json", **{
            "sim.noise.gps_sigma": 0.0, "sim.camera_motion": "arc", "sim.n_agents": 10,
        })
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert main(["calibrate", "--dataset", str(tmp_path / "data")]) == 0
        out = capsys.readouterr().out
        assert "moving" in out and "flagged 0 of 2 scenes" in out

    def test_moving_camera_with_too_few_agents_exits_6(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "arc.json", **{"sim.camera_motion": "arc"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert main(["calibrate", "--dataset", str(tmp_path / "data")]) == 6
        assert "need 6" in capsys.readouterr().err


class TestRig:
    def test_another_rig_trains_evaluates_and_ablates(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "wide.json", **{
            "sim.image_size": [1280, 960], "sim.focal": 1000.0, "sim.noise.gps_sigma": 0.0,
        })
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        for method in ("full", "plus_vpd:gru", "no_estimator"):
            run = tmp_path / method.replace(":", "_")
            assert main(["train", "--dataset", str(data), "--method", method, "--out", str(run)]) == 0
            header, _ = load_checkpoint(run / "checkpoint.ckpt")
            assert header["model"]["focal"] == 1000.0
            assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"), "--dataset", str(data)]) == 0
            assert f"| {method} |" in capsys.readouterr().out
        assert main(["ablate", "--dataset", str(data)]) == 0
        assert "w/o CPE" in capsys.readouterr().out


class TestImport:
    def test_dataset_reimport_is_byte_identical(self, workdir, tmp_path):
        assert main(["import", str(workdir / "data"), "--out", str(tmp_path / "copy")]) == 0
        assert tree_bytes(tmp_path / "copy") == tree_bytes(workdir / "data")

    def test_single_file_import_builds_a_dataset(self, workdir, tmp_path):
        assert main(["import", str(workdir / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "ds"), "--split", "test"]) == 0
        manifest = read_manifest(tmp_path / "ds")
        assert manifest["splits"]["test"]["count"] == 2
        assert manifest["splits"]["train"]["count"] == 0
        assert (tmp_path / "ds" / "test.jsonl").read_bytes() == (
            workdir / "data" / "test.jsonl"
        ).read_bytes()

    def test_single_file_import_can_be_neither_trained_nor_evaluated(self, workdir, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["import", str(workdir / "data" / "test.jsonl"), "--out", str(ds)]) == 0
        capsys.readouterr()
        assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "run")]) == 2
        assert "imported from one scene file (test.jsonl) and carries no run config" in capsys.readouterr().err
        assert main(["ablate", "--dataset", str(ds)]) == 2
        # the checkpoint was trained on a dataset of another config hash
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"), "--dataset", str(ds)]) == 4

    def test_invalid_record_exits_7_with_line(self, workdir, tmp_path, capsys):
        lines = (workdir / "data" / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["t_obs"] = -5
        broken = tmp_path / "broken.jsonl"
        broken.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        assert main(["import", str(broken), "--out", str(tmp_path / "ds")]) == 7
        assert "line 2" in capsys.readouterr().err

    def test_refusal_names_the_split_file(self, workdir, tmp_path, capsys):
        data = edited_dataset(workdir / "data", tmp_path / "data", "val", lambda r: _set(r, "sensor", "1.5"))
        assert main(["import", str(data), "--out", str(tmp_path / "ds")]) == 7
        assert f"{data / 'val.jsonl'}: line 2, field 'sensor': not base64" in capsys.readouterr().err

    def test_malformed_json_exits_7(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["import", str(bad), "--out", str(tmp_path / "ds")]) == 7


class TestReport:
    def test_merges_csv_files(self, workdir, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(workdir / "data"), "--methods", "full",
                     "--out", str(a)]) == 0
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--dataset", str(workdir / "data"), "--methods", "smoother",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        out_md = tmp_path / "report.md"
        assert main(["report", str(a), str(b), "--title", "Combined", "--out", str(out_md)]) == 0
        text = out_md.read_text()
        assert text.startswith("# Combined")
        assert "| full |" in text and "| smoother |" in text
        assert "| full |" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, named",
        [
            ("split,n_scenes,mse_d,mse_p,mse_sum\ntest,2,1.0,2.0,3.0\n", "line 1: report CSV has no 'method' column"),
            ("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,x,1.0,2.0,3.0\n", "line 2, column 'n_scenes'"),
            ("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,2,1.0,2.0,99.0\n", "line 2: sum 99.0 != 1.0 + 2.0"),
            ("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,2,-1.0,2.0,1.0\n", "line 2: negative error"),
            ("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,2,nan,nan,nan\n", "line 2: non-finite error"),
            ("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,-3,1.0,2.0,3.0\n", "line 2: -3 scenes"),
        ],
        ids=["no_method_column", "n_scenes_not_an_int", "sum_not_the_sum", "negative_error", "nan_errors",
             "negative_n_scenes"],
    )
    def test_malformed_csv_exits_7(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["report", str(path)]) == 7
        assert named in capsys.readouterr().err

    def test_malformed_csv_among_several_is_named(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,2,1.0,2.0,3.0\n")
        bad.write_text("method,split,n_scenes,mse_d,mse_p,mse_sum\nfull,test,x,1.0,2.0,3.0\n")
        assert main(["report", str(good), str(bad)]) == 7
        err = capsys.readouterr().err
        assert f"{bad}: line 2, column 'n_scenes'" in err and "good.csv" not in err

    def test_empty_input_exits_6(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("method,split,n_scenes,mse_d,mse_p,mse_sum,config_hash,seed\n")
        assert main(["report", str(empty)]) == 6


class TestDeterminism:
    def test_full_workflow_rerun_is_byte_identical(self, workdir, tmp_path):
        cfg = str(workdir / "tiny.json")
        for tag in ("one", "two"):
            base = tmp_path / tag
            assert main(["simulate", "--config", cfg, "--out", str(base / "data")]) == 0
            assert main(["train", "--dataset", str(base / "data"), "--out", str(base / "run")]) == 0
            assert main(["eval", "--checkpoint", str(base / "run" / "checkpoint.ckpt"),
                         "--dataset", str(base / "data"), "--out", str(base / "eval.csv")]) == 0
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ablate", "calibrate"])
    def test_missing_split_exits_2_before_any_work(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--dataset", str(workdir / "data"), "--split", "holdout", "--out", str(out)]) == 2
        assert "split 'holdout' not in dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "ablate"])
    def test_negative_seed_exits_2_naming_the_seed(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        source = ["--config", str(workdir / "tiny.json")] if command == "simulate" else ["--dataset", str(workdir / "data")]
        assert main([command, *source, "--seed", "-1", "--out", str(out)]) == 2
        named = "data_seed" if command == "simulate" else "train_seed"
        assert f"error: {named} must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_cli_block_parses(self):
        # every command line of README's CLI section, continuation lines
        # joined, must parse as written
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("blindtrack ")]
        parser = build_parser()
        commands = [parser.parse_args(shlex.split(line)[1:]).command for line in lines]
        assert set(commands) == {"simulate", "train", "eval", "ablate", "calibrate", "import", "report"}
