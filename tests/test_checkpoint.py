"""Checkpoints: exact round trips, byte determinism and corruption
guards."""

import copy
import hashlib
import json
import struct

import numpy as np
import pytest

from blindtrack import baselines as bl
from blindtrack import checkpoint as ck
from blindtrack import pipeline as pl
from blindtrack.config import TrainConfig
from blindtrack.errors import HashMismatch, SchemaError
from blindtrack.nn import Adam

from test_pipeline import TINY, tiny_scenes


def rewrite_header(path, edit):
    """Apply edit to a checkpoint file's JSON header in place, keeping
    its arrays."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + length])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + length :])


def small_trained_model(epochs=2, seed=0):
    scenes = tiny_scenes(4, noise="default")
    model = pl.VisionPipeline(TINY, np.random.default_rng(seed))
    tcfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-3, seed=seed)
    optimizer = Adam(model.parameters(), lr=tcfg.lr)
    pl.train_model(model, scenes, [], tcfg, optimizer=optimizer)
    return model, optimizer, tcfg, scenes


class TestRoundTrip:
    def test_save_load_restores_everything(self, tmp_path):
        model, optimizer, tcfg, _ = small_trained_model()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, model, optimizer, tcfg, config_hash="abc123", epoch=1)
        header, arrays = ck.load_checkpoint(path)
        assert header["kind"] == "full"
        assert header["config_hash"] == "abc123"
        assert ck.model_config_from_header(header) == TINY
        assert ck.train_config_from_header(header) == tcfg

        assert header["adam"] == {"t": optimizer.t, "lr": tcfg.lr}  # a record of the run
        assert list(arrays) == [name for name, _ in model.named_parameters()]

        rebuilt = bl.make_model(header["kind"], ck.model_config_from_header(header), np.random.default_rng(99))
        ck.restore_model(rebuilt, header, arrays)
        for (name, p), (_, q) in zip(model.named_parameters(), rebuilt.named_parameters()):
            assert np.array_equal(p.data, q.data), name

    def test_restore_lands_in_the_optimizers_store(self, tmp_path):
        model, optimizer, tcfg, _ = small_trained_model()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, model, optimizer, tcfg)
        header, arrays = ck.load_checkpoint(path)
        rebuilt = bl.make_model(header["kind"], ck.model_config_from_header(header), np.random.default_rng(99))
        held = Adam(rebuilt.parameters())
        ck.restore_model(rebuilt, header, arrays)
        assert np.array_equal(held.store, optimizer.store)
        assert all(np.shares_memory(p.data, held.store) for p in rebuilt.parameters())

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        model, optimizer, tcfg, _ = small_trained_model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.save_checkpoint(a, model, optimizer, tcfg, epoch=1)
        ck.save_checkpoint(b, model, optimizer, tcfg, epoch=1)
        assert a.read_bytes() == b.read_bytes()

    def test_untrained_checkpoint_keeps_its_sha256(self, tmp_path):
        # PCG64 draws only: the bytes do not depend on BLAS
        model = pl.VisionPipeline(TINY, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        tcfg = TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=0)
        ck.save_checkpoint(path, model, Adam(model.parameters(), lr=1e-3), tcfg, config_hash="abc123")
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "cddfc86175eea9093bcbc4d620674bd4b5bb2a6b5205fd847cdd78ab0322170b"
        )
        # the parameter blocks alone, as the first 40 arrays of the format
        # that also stored Adam's moments wrote them: no parameter byte moved
        (length,) = struct.unpack("<Q", blob[8:16])
        assert hashlib.sha256(blob[16 + length :]).hexdigest() == (
            "3afe2a1fe59297c4e3551443328dadc6617c74ed7a7d0f8ceffbeddb03cc0ed9"
        )


class TestGuards:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(SchemaError):
            ck.load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(ck.MAGIC + b"\x00" * 4)
        with pytest.raises(SchemaError, match="truncated header"):
            ck.load_checkpoint(path)

    def test_truncated_arrays_rejected(self, tmp_path):
        model, optimizer, tcfg, _ = small_trained_model()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, model, optimizer, tcfg)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(SchemaError, match="truncated"):
            ck.load_checkpoint(path)

    def test_hash_guard(self):
        with pytest.raises(HashMismatch):
            ck.require_hash({"config_hash": "aaa"}, "bbb", "eval")
        ck.require_hash({"config_hash": "aaa"}, "aaa", "eval")
        ck.require_hash({"config_hash": ""}, "bbb", "eval")

    def test_arrays_the_model_lacks_rejected(self, tmp_path):
        # a checkpoint of an architecture with one more stage, as an older
        # learned camera estimator would have stored under estimator.*
        model, optimizer, tcfg, _ = small_trained_model()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, model, optimizer, tcfg)
        header, arrays = ck.load_checkpoint(path)
        arrays["estimator.head.weight"] = np.zeros((8, 12))
        fresh = pl.VisionPipeline(TINY, np.random.default_rng(3))
        with pytest.raises(SchemaError, match="estimator.head.weight"):
            ck.restore_model(fresh, header, arrays)

    @pytest.mark.parametrize("section", ["model", "train"])
    def test_header_configs_must_name_exactly_the_fields(self, tmp_path, section):
        model, optimizer, tcfg, _ = small_trained_model()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, model, optimizer, tcfg)
        header, _ = ck.load_checkpoint(path)
        read = ck.model_config_from_header if section == "model" else ck.train_config_from_header
        extra = copy.deepcopy(header)
        extra[section]["use_denoiser"] = False
        with pytest.raises(SchemaError, match="unknown field 'use_denoiser'") as err:
            read(extra)
        assert err.value.field == f"{section}.use_denoiser"
        short = copy.deepcopy(header)
        dropped = sorted(short[section])[0]
        del short[section][dropped]
        with pytest.raises(SchemaError, match=f"missing field '{dropped}'"):
            read(short)

    @pytest.mark.parametrize("key", ["kind", "model", "train", "arrays"])
    def test_header_without_an_entry_rejected(self, tmp_path, key):
        model, optimizer, tcfg, _ = small_trained_model()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, model, optimizer, tcfg)
        rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(SchemaError, match=f"no '{key}'") as err:
            ck.load_checkpoint(path)
        assert err.value.field == key

    def test_optimizer_must_track_model(self, tmp_path):
        model, _, tcfg, _ = small_trained_model()
        other = Adam([pl.VisionPipeline(TINY, np.random.default_rng(5)).parameters()[0]])
        with pytest.raises(ValueError):
            ck.save_checkpoint(tmp_path / "x.ckpt", model, other, tcfg)
