"""Metrics: the per-timestep pixel distance, report aggregation, the
batched scorer against per-scene scoring, and CSV round trips."""

import numpy as np
import pytest

from blindtrack import baselines as bl
from blindtrack import metrics as mt
from blindtrack import pipeline as pl
from blindtrack import simulator as sim
from blindtrack.errors import EmptyInput, EmptyTrajectory, LengthMismatch

from test_pipeline import TINY, tiny_scenes
from test_simulator import small_config


class TestMseT:
    def test_three_four_five_fixture(self):
        # constant (3, 4) offset has Euclidean distance exactly 5
        truth = np.arange(20.0).reshape(10, 2)
        pred = truth + np.array([3.0, 4.0])
        assert mt.mse_t(pred, truth) == 5.0

    def test_zero_iff_identical(self):
        a = np.random.default_rng(0).normal(size=(6, 2))
        assert mt.mse_t(a, a) == 0.0
        assert mt.mse_t(a + 1e-3, a) > 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        assert mt.mse_t(a, b) == pytest.approx(mt.mse_t(b, a), abs=1e-15)

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        shift = np.array([17.0, -4.0])
        assert mt.mse_t(a + shift, b + shift) == pytest.approx(mt.mse_t(a, b), abs=1e-12)

    def test_shape_contracts(self):
        with pytest.raises(LengthMismatch):
            mt.mse_t(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(LengthMismatch):
            mt.mse_t(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(EmptyTrajectory):
            mt.mse_t(np.zeros((0, 2)), np.zeros((0, 2)))


class TestTrackErrors:
    def test_each_entry_is_its_tracks_mse_t(self):
        rng = np.random.default_rng(3)
        for batch, steps in [(1, 1), (3, 20), (16, 20), (3, 100)]:
            pred = rng.normal(scale=50.0, size=(batch, steps, 2))
            truth = rng.normal(scale=50.0, size=(batch, steps, 2))
            got = mt.track_errors(pred, truth)
            assert got.shape == (batch,)
            for b in range(batch):
                # the per-track formula mse_t had before it became track_errors' one-track case
                assert got[b] == float(np.linalg.norm(pred[b] - truth[b], axis=1).mean())
                assert got[b] == mt.mse_t(pred[b], truth[b])

    def test_shape_contracts(self):
        with pytest.raises(LengthMismatch):  # B differs
            mt.track_errors(np.zeros((2, 3, 2)), np.zeros((3, 3, 2)))
        with pytest.raises(LengthMismatch):  # T differs
            mt.track_errors(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))
        with pytest.raises(LengthMismatch):  # last axis is not 2
            mt.track_errors(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
        with pytest.raises(LengthMismatch):  # not a stack
            mt.track_errors(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(EmptyTrajectory):
            mt.track_errors(np.zeros((2, 0, 2)), np.zeros((2, 0, 2)))


class FixedOffsetMethod:
    """Predicts ground truth shifted by a constant; exact known scores."""

    name = "fixed_offset"

    def __init__(self, du, dv):
        self.offset = np.array([du, dv])

    def predict(self, scenes):
        pixels = np.stack([scene.pixel[scene.hidden] for scene in scenes])
        t_obs = scenes[0].t_obs
        return pixels[:, :t_obs] + self.offset, pixels[:, t_obs:] + self.offset


@pytest.fixture(scope="module")
def scenes():
    return [sim.make_scene(small_config(), seed) for seed in range(4)]


class TestReports:

    def test_known_offset_scores(self, scenes):
        method = FixedOffsetMethod(3.0, 4.0)
        report = mt.score_scenes(method.predict, scenes, "fixed_offset", "test")
        assert report.mse_d == pytest.approx(5.0, abs=1e-12)
        assert report.mse_p == pytest.approx(5.0, abs=1e-12)
        assert report.mse_sum == pytest.approx(10.0, abs=1e-12)
        assert report.n_scenes == 4

    def test_sum_is_component_sum(self, scenes):
        report = mt.score_scenes(FixedOffsetMethod(1.0, 0.0).predict, scenes, "m", "test")
        assert abs(report.mse_sum - (report.mse_d + report.mse_p)) < 1e-9

    def test_order_independent(self, scenes):
        method = FixedOffsetMethod(0.0, 2.0)
        a = mt.score_scenes(method.predict, scenes, "m", "test")
        b = mt.score_scenes(method.predict, list(reversed(scenes)), "m", "test")
        assert a == b

    def test_empty_split_rejected(self):
        with pytest.raises(EmptyInput):
            mt.score_scenes(lambda s: None, [], "m", "test")

    def test_validate_rejects_wrong_sum(self):
        bad = mt.EvalReport("m", "test", 1, 1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            bad.validate()

    def test_csv_round_trip_exact(self, scenes):
        reports = [
            mt.score_scenes(FixedOffsetMethod(3.0, 4.0).predict, scenes, "a", "test", "hash", 7),
            mt.score_scenes(FixedOffsetMethod(1.0, 1.0).predict, scenes, "b", "val", "hash", 8),
        ]
        text = mt.reports_to_csv(reports)
        assert mt.reports_from_csv(text) == reports

    def test_markdown_contains_rows(self, scenes):
        report = mt.score_scenes(FixedOffsetMethod(3.0, 4.0).predict, scenes, "m", "test")
        md = mt.reports_to_markdown([report])
        assert "| m | test |" in md and "5.000" in md


def per_scene_scores(predict_one, scenes):
    """The per-scene reference: one predict per scene, in seed order."""
    d_errors, p_errors = [], []
    for scene in sorted(scenes, key=lambda s: s.seed):
        visual, future = predict_one(scene)
        pixel = scene.pixel[scene.hidden]
        d_errors.append(mt.mse_t(visual, pixel[: scene.t_obs]))
        p_errors.append(mt.mse_t(future, pixel[scene.t_obs:]))
    return float(np.mean(d_errors)), float(np.mean(p_errors))


def chunked_report(predict, scenes, rows):
    """The scorer as it was when each chunk of at most `rows` observed rows
    of a shape group was one predict call: the reference score_scenes, one
    predict call per group, must equal bit for bit."""
    ordered = sorted(scenes, key=lambda s: s.seed)
    d_errors, p_errors = np.empty(len(ordered)), np.empty(len(ordered))
    for group in sim.shape_groups(ordered):
        t_obs = ordered[group[0]].t_obs
        per_call = max(1, rows // t_obs)
        for start in range(0, len(group), per_call):
            chunk = group[start:start + per_call]
            visual, future = predict([ordered[i] for i in chunk])
            pixel = np.stack([ordered[i].pixel[ordered[i].hidden] for i in chunk])
            d_errors[chunk] = mt.track_errors(visual, pixel[:, :t_obs])
            p_errors[chunk] = mt.track_errors(future, pixel[:, t_obs:])
    mse_d, mse_p = float(np.mean(d_errors)), float(np.mean(p_errors))
    return mt.EvalReport("m", "test", len(scenes), mse_d, mse_p, mse_d + mse_p)


@pytest.fixture(scope="module")
def mixed_scenes():
    """Nine scenes with observation windows of 6 and 5 steps, interleaved."""
    long = tiny_scenes(5, seed0=40, noise="default")
    short = tiny_scenes(4, seed0=60, noise="default", t_obs=5)
    return [long[0], short[0], long[1], long[2], short[1], short[2], long[3], short[3], long[4]]


class TestBatchedScoring:
    def test_one_predict_call_per_shape_group_in_seed_order(self, mixed_scenes):
        calls = []

        def predict(batch):
            calls.append([scene.seed for scene in batch])
            return FixedOffsetMethod(3.0, 4.0).predict(batch)

        report = mt.score_scenes(predict, mixed_scenes, "m", "test")
        assert report.mse_d == pytest.approx(5.0, abs=1e-12)
        long = sorted(scene.seed for scene in mixed_scenes if scene.t_obs == 6)
        short = sorted(scene.seed for scene in mixed_scenes if scene.t_obs == 5)
        assert calls == [long, short]

    def test_predict_cuts_forward_passes_within_the_row_budget(self, mixed_scenes, monkeypatch):
        monkeypatch.setattr(pl, "SCORE_ROWS", 18)
        model = bl.make_model("full", TINY, np.random.default_rng(20))
        forward, passes = model.forward, []

        def counting(batch):
            passes.append(batch)
            return forward(batch)

        model.forward = counting
        mt.score_scenes(model.predict, mixed_scenes, "full", "test")
        assert all(len({scene.shape for scene in batch}) == 1 for batch in passes)
        assert all(len(batch) * batch[0].t_obs <= 18 for batch in passes)
        # 5 scenes of 6 rows in passes of 3, then 4 of 5 rows in passes of 3:
        # the chunks the scorer cut when each chunk was one predict call
        assert [[scene.seed for scene in batch] for batch in passes] == [[40, 41, 42], [43, 44], [60, 61, 62], [63]]

    def test_input_order_does_not_matter(self, mixed_scenes):
        model = bl.make_model("full", TINY, np.random.default_rng(20))
        shuffled = [mixed_scenes[i] for i in np.random.default_rng(21).permutation(len(mixed_scenes))]
        reports = [
            mt.score_scenes(model.predict, order, "full", "test")
            for order in (mixed_scenes, list(reversed(mixed_scenes)), shuffled)
        ]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("name", ["full", "two_stage:gru", "direct:lstm"])
    def test_learned_methods_match_per_scene_scoring(self, mixed_scenes, name):
        model = bl.make_model(name, TINY, np.random.default_rng(22))
        report = mt.score_scenes(model.predict, mixed_scenes, name, "test")
        want_d, want_p = per_scene_scores(model.predict, mixed_scenes)
        assert report.mse_d == pytest.approx(want_d, rel=1e-12, abs=0)
        assert report.mse_p == pytest.approx(want_p, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", bl.REFERENCE_METHODS)
    def test_references_match_per_scene_scoring_bit_for_bit(self, mixed_scenes, name):
        reference = bl.make_reference(name)
        report = mt.score_scenes(reference.predict, mixed_scenes, name, "test")
        assert (report.mse_d, report.mse_p) == per_scene_scores(reference.predict, mixed_scenes)

    @pytest.mark.parametrize("name", ["full", "two_stage:gru", "direct:lstm"])
    def test_learned_reports_equal_the_chunked_scorers_bit_for_bit(self, mixed_scenes, monkeypatch, name):
        monkeypatch.setattr(pl, "SCORE_ROWS", 18)
        want = chunked_report(bl.make_model(name, TINY, np.random.default_rng(22)).predict, mixed_scenes, 18)
        got = mt.score_scenes(bl.make_model(name, TINY, np.random.default_rng(22)).predict, mixed_scenes, "m", "test")
        assert got == want

    @pytest.mark.parametrize("name", ["full", "two_stage:gru"])
    def test_budgets_that_leave_no_scene_alone_give_one_report(self, mixed_scenes, monkeypatch, name):
        # 20 rows cut the 6-step scenes 3 + 2 and keep the 5-step ones in one
        # pass; 1000 keep each group whole. A lone scene would change bits.
        model = bl.make_model(name, TINY, np.random.default_rng(22))
        reports = []
        for budget in (20, 1000):
            monkeypatch.setattr(pl, "SCORE_ROWS", budget)
            reports.append(mt.score_scenes(model.predict, mixed_scenes, name, "test"))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name", bl.REFERENCE_METHODS)
    def test_reference_reports_equal_the_chunked_scorers_bit_for_bit(self, mixed_scenes, name):
        reference = bl.make_reference(name)
        assert mt.score_scenes(reference.predict, mixed_scenes, "m", "test") == chunked_report(
            reference.predict, mixed_scenes, 18
        )

    def test_a_predict_that_drops_scenes_is_rejected(self, scenes):
        with pytest.raises(LengthMismatch):
            mt.score_scenes(lambda batch: FixedOffsetMethod(0.0, 0.0).predict(batch[1:]), scenes, "m", "test")
