"""Serialization: exact round trips, canonical bytes, schema validation
with line/field reporting, and manifest hashing."""

import copy
import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from blindtrack import dataset as ds
from blindtrack import geometry as geo
from blindtrack import simulator as sim
from blindtrack.errors import HashMismatch, SchemaError

from test_simulator import assert_scene_equal, small_config


@pytest.fixture(scope="module")
def scenes():
    cfg = small_config(noise=sim.NoiseModel.preset("hard"))
    return [sim.make_scene(cfg, seed) for seed in (0, 1, 2)]


@lru_cache(maxsize=1)
def masked_base_scene():
    """A scene with a rounded pixel at every step of every agent, in frame
    or not, for the round-trip property to mask."""
    scene = sim.make_scene(small_config(noise=sim.NoiseModel.preset("hard")), 4)
    for agent in scene.agents:
        agent.pixel = np.rint(geo.project_trajectory(scene.camera, agent.world))
        agent.visible = np.ones(scene.t_total, dtype=bool)
    return scene


class TestRoundTrip:
    def test_record_round_trip_exact(self, scenes):
        for scene in scenes:
            rebuilt = ds.record_to_scene(ds.scene_to_record(scene))
            assert_scene_equal(scene, rebuilt)

    def test_json_round_trip_exact(self, scenes):
        # float repr round-trips, so a parse/re-dump is the identity
        line = ds.canonical_json(ds.scene_to_record(scenes[0]))
        assert ds.canonical_json(json.loads(line)) == line

    def test_file_round_trip_byte_identical(self, scenes, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        ds.write_scenes(first, scenes)
        ds.write_scenes(second, ds.read_scenes(first))
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(arrays(bool, (4, 15)))
    def test_bytes_survive_a_round_trip_for_any_mask(self, masks):
        scene = copy.deepcopy(masked_base_scene())
        for agent, mask in zip(scene.agents, masks):
            if agent.agent_id == scene.out_of_sight_id:
                continue  # the schema needs the hidden agent's pixel at every step
            agent.visible = mask
            agent.pixel[~mask] = np.nan
        line = ds.canonical_json(ds.scene_to_record(scene))
        rebuilt = ds.record_to_scene(json.loads(line))
        assert ds.canonical_json(ds.scene_to_record(rebuilt)) == line
        assert_scene_equal(scene, rebuilt)

    def test_invisible_pixels_serialize_as_null(self, scenes):
        record = ds.scene_to_record(scenes[0])
        for agent_rec, agent in zip(record["agents"], scenes[0].agents):
            for entry, vis in zip(agent_rec["pixel"], agent.visible):
                assert (entry is None) == (not vis)


class TestValidation:
    def good(self, scenes):
        return ds.scene_to_record(scenes[0])

    def test_valid_record_passes(self, scenes):
        ds.record_to_scene(self.good(scenes), line=1)

    def test_missing_field(self, scenes):
        record = self.good(scenes)
        del record["camera"]
        with pytest.raises(SchemaError) as err:
            ds.record_to_scene(record, line=4)
        assert err.value.line == 4
        assert err.value.field == "camera"

    def test_visible_step_needs_pixel(self, scenes):
        record = self.good(scenes)
        record["agents"][0]["pixel"][0] = None
        record["agents"][0]["visible"][0] = True
        with pytest.raises(SchemaError, match="pixel"):
            ds.record_to_scene(record)

    def test_invisible_step_must_be_null(self, scenes):
        record = self.good(scenes)
        record["agents"][0]["visible"][2] = False
        if record["agents"][0]["pixel"][2] is None:
            record["agents"][0]["pixel"][2] = [1.0, 1.0]
        with pytest.raises(SchemaError, match="null"):
            ds.record_to_scene(record)

    def test_duplicate_agent_ids(self, scenes):
        record = self.good(scenes)
        record["agents"][1]["agent_id"] = record["agents"][0]["agent_id"]
        with pytest.raises(SchemaError, match="duplicate"):
            ds.record_to_scene(record)

    def test_hidden_agent_must_exist_and_be_renderable(self, scenes):
        record = self.good(scenes)
        record["out_of_sight_id"] = 99
        with pytest.raises(SchemaError, match="not among"):
            ds.record_to_scene(record)
        record = self.good(scenes)
        hidden = next(a for a in record["agents"] if a["agent_id"] == record["out_of_sight_id"])
        hidden["visible"][-1] = False
        hidden["pixel"][-1] = None
        with pytest.raises(SchemaError, match="ground-truth"):
            ds.record_to_scene(record)

    def test_bad_row_width(self, scenes):
        record = self.good(scenes)
        record["agents"][0]["world"][0] = [1.0, 2.0]
        with pytest.raises(SchemaError, match="world"):
            ds.record_to_scene(record)

    @pytest.mark.parametrize("ragged", ["row_widths", "row_counts"])
    def test_read_refuses_ragged_rows(self, scenes, ragged):
        # both edits keep the flat count of numbers, so only a shape check
        # tells them from a good record
        record = self.good(scenes)
        agents = record["agents"]
        if ragged == "row_widths":
            agents[0]["world"][0] = [1.0, 2.0, 3.0, 4.0]
            agents[0]["world"][1] = [1.0, 2.0]
        else:
            agents[0]["sensor"].append([0.0, 0.0, 0.0])
            agents[1]["sensor"].pop()
        with pytest.raises(SchemaError):
            ds.record_to_scene(record)

    @pytest.mark.parametrize(
        "edit, field, match",
        [
            (lambda r: r["agents"][0]["world"][0].__setitem__(0, True), "agents[0].world", "numbers"),
            (lambda r: r["agents"][0]["sensor"][2].__setitem__(1, float("nan")), "agents[0].sensor", "non-finite"),
            (lambda r: r["agents"][1]["world"][0].__setitem__(2, 10**400), "agents[1].world", "non-finite"),
            (lambda r: r["camera"][3].__setitem__(0, "0.5"), "camera", "numbers"),
            (lambda r: r["agents"][0]["visible"].__setitem__(0, 1), "agents[0].visible", "booleans"),
            (lambda r: r["agents"][0].__setitem__("agent_id", "7"), "agents[0].agent_id", "expected int, got str"),
            (lambda r: r["agents"][0].__setitem__("agent_id", True), "agents[0].agent_id", "expected int, got bool"),
            (lambda r: r["agents"][2].pop("visible"), "agents[2].visible", "missing"),
            (lambda r: r["agents"].__setitem__(1, [1, 2]), "agents[1]", "not an object"),
            (lambda r: r.__setitem__("agents", []), "agents", "empty"),
            (lambda r: r.__setitem__("image_size", [640, 0]), "image_size", "positive"),
            (lambda r: r.__setitem__("seed", -1), "seed", ">= 0"),
            (lambda r: r.__setitem__("t_pred", 0), "t_pred", ">= 1"),
        ],
        ids=["bool_number", "nan", "huge_int", "string_number", "int_flag", "string_id", "bool_id",
             "missing_agent_field", "agent_not_object", "no_agents", "zero_image_size", "negative_seed",
             "no_prediction_steps"],
    )
    def test_record_refusals_name_the_field(self, scenes, edit, field, match):
        record = self.good(scenes)
        edit(record)
        with pytest.raises(SchemaError, match=match) as err:
            ds.record_to_scene(record, line=3)
        assert (err.value.line, err.value.field) == (3, field)

    def test_record_that_is_not_an_object(self):
        with pytest.raises(SchemaError, match="not an object"):
            ds.record_to_scene([1, 2, 3], line=1)

    def test_wrong_schema_tag(self, scenes):
        record = self.good(scenes)
        record["schema"] = "something-else"
        with pytest.raises(SchemaError, match="schema"):
            ds.record_to_scene(record)

    def test_read_reports_line_numbers(self, scenes, tmp_path):
        path = tmp_path / "broken.jsonl"
        good_line = ds.canonical_json(ds.scene_to_record(scenes[0]))
        bad = json.loads(good_line)
        bad["agents"][0]["sensor"] = [[0.0, 0.0]]
        path.write_text(good_line + "\n" + ds.canonical_json(bad) + "\n")
        with pytest.raises(SchemaError) as err:
            ds.read_scenes(path)
        assert err.value.line == 2

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SchemaError, match="invalid JSON"):
            ds.read_scenes(path)

    def test_line_that_is_not_utf8(self, scenes, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(ds.canonical_json(ds.scene_to_record(scenes[0])).encode() + b"\n\xff\xfe\xfa\n")
        with pytest.raises(SchemaError, match="invalid JSON") as err:
            ds.read_scenes(path)
        assert err.value.line == 2


class TestManifest:
    def test_dataset_write_is_deterministic(self, tmp_path):
        cfg = small_config()
        config_dict = {"profile": "test", "seed": 5}
        out1, out2 = tmp_path / "one", tmp_path / "two"
        splits = sim.make_dataset(cfg, 5, 2, 1, 1)
        m1 = ds.write_dataset(out1, splits, config_dict)
        m2 = ds.write_dataset(out2, sim.make_dataset(cfg, 5, 2, 1, 1), config_dict)
        assert m1 == m2
        for name in ds.SPLIT_NAMES:
            assert (out1 / f"{name}.jsonl").read_bytes() == (out2 / f"{name}.jsonl").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_manifest_hashes_the_written_bytes(self, tmp_path):
        manifest = ds.write_dataset(tmp_path, sim.make_dataset(small_config(), 5, 2, 1, 0), {"x": 1})
        for name, info in manifest["splits"].items():
            assert info["sha256"] == hashlib.sha256((tmp_path / info["file"]).read_bytes()).hexdigest()
        assert manifest["splits"]["test"]["sha256"] == hashlib.sha256(b"").hexdigest()

    def test_load_dataset_round_trip(self, tmp_path):
        cfg = small_config()
        splits = sim.make_dataset(cfg, 3, 2, 1, 1)
        ds.write_dataset(tmp_path / "d", splits, {"x": 1})
        manifest, loaded = ds.load_dataset(tmp_path / "d")
        assert manifest["config_hash"] == ds.hash_of({"x": 1})
        for name in ds.SPLIT_NAMES:
            assert len(loaded[name]) == len(splits[name])
            for a, b in zip(splits[name], loaded[name]):
                assert_scene_equal(a, b)

    def test_load_refuses_a_split_that_does_not_match_its_sha256(self, tmp_path):
        ds.write_dataset(tmp_path, sim.make_dataset(small_config(), 3, 2, 1, 1), {"x": 1})
        path = tmp_path / "val.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"seed":', b'"seed": ', 1))  # same scene, other bytes
        with pytest.raises(HashMismatch, match="val.jsonl"):
            ds.load_dataset(tmp_path)
        assert len(ds.read_scenes(path)) == 1

    def test_manifest_must_give_each_split_a_file_and_sha256(self, tmp_path):
        ds.write_dataset(tmp_path, sim.make_dataset(small_config(), 3, 1, 0, 0), {"x": 1})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["splits"]["train"]["sha256"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="sha256"):
            ds.load_dataset(tmp_path)

    def test_config_hash_sensitive_to_values(self):
        assert ds.hash_of({"a": 1}) != ds.hash_of({"a": 2})
        assert ds.hash_of({"a": 1, "b": 2}) == ds.hash_of({"b": 2, "a": 1})
