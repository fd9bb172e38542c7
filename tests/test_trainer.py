import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amff import trainer
from amff.dataio import Dataset, read_feature_records, split_random, synth_generate
from amff.errors import AmffError, ConfigError, DataError, FormatError, NumericError
from amff.losses import total_loss
from amff.scoring import VARIANTS, init_model_params, model_backward, model_forward
from amff.tensor import make_rng
from amff.trainer import (
    ADAM_EPS,
    BETA1,
    BETA2,
    OptimizerState,
    TrainConfig,
    adamw_step,
    batch_objective,
    evaluate_model,
    load_checkpoint,
    params_checksum,
    run_trials,
    save_checkpoint,
    score_dataset,
    train,
)
from conftest import as_variant, fast_config, join_checkpoint, split_checkpoint

DATA = Path(__file__).parent / "data"


def _params(dim=6, seed=0, **variant):
    return init_model_params(dim, make_rng(seed), hidden_aff=4, hidden_head=4, **variant)


def _zero_grads(params):
    return params.zeros_like()


class TestAdamW:
    def test_zero_grads_no_decay_leaves_params(self):
        p = _params()
        before = {n: a.copy() for n, a in p.named_arrays()}
        adamw_step(p, _zero_grads(p), OptimizerState.zeros_like(p), lr=1e-3, weight_decay=0.0)
        for name, a in p.named_arrays():
            assert np.array_equal(a, before[name])

    def test_first_step_closed_form(self):
        p = _params()
        grads = _zero_grads(p)
        g = 0.37
        grads.head_v.b2[0] = g
        before = float(p.head_v.b2[0])
        adamw_step(p, grads, OptimizerState.zeros_like(p), lr=1e-2, weight_decay=0.0)
        # m_hat = g, v_hat = g^2 after bias correction at t=1
        expected = before - 1e-2 * g / (abs(g) + ADAM_EPS)
        assert float(p.head_v.b2[0]) == pytest.approx(expected, abs=1e-12)

    def test_decoupled_decay_shrinks_params(self):
        p = _params()
        before = {n: a.copy() for n, a in p.named_arrays()}
        adamw_step(p, _zero_grads(p), OptimizerState.zeros_like(p), lr=0.1, weight_decay=0.5)
        for name, a in p.named_arrays():
            assert np.allclose(a, before[name] * (1 - 0.1 * 0.5), atol=1e-15)

    def test_nonfinite_grads_abort(self):
        p = _params()
        grads = _zero_grads(p)
        grads.aff.w1[0, 0] = float("nan")
        with pytest.raises(NumericError, match="aff.w1"):
            adamw_step(p, grads, OptimizerState.zeros_like(p), lr=1e-3, weight_decay=0.0)

    def test_checksum_changes_iff_update_happens(self):
        p = _params()
        base = params_checksum(p)
        state = OptimizerState.zeros_like(p)
        adamw_step(p, _zero_grads(p), state, lr=1e-3, weight_decay=0.0)
        assert params_checksum(p) == base  # no grads, no decay
        adamw_step(p, _zero_grads(p), state, lr=1e-3, weight_decay=1e-2)
        assert params_checksum(p) != base  # decay active
        p2 = _params()
        grads = _zero_grads(p2)
        grads.head_a.b2[0] = 1.0
        adamw_step(p2, grads, OptimizerState.zeros_like(p2), lr=1e-3, weight_decay=0.0)
        assert params_checksum(p2) != base  # nonzero gradient

    def test_flat_update_equals_per_tensor_reference(self):
        rng = make_rng(30)
        p = _params()
        state = OptimizerState.zeros_like(p)
        ref = {n: a.copy() for n, a in p.named_arrays()}
        ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
        for t, lr in enumerate((1e-2, 1e-2, 3e-3, 1e-3, 1e-3, 5e-4), start=1):
            grads = _zero_grads(p)
            grads.flat[:] = rng.standard_normal(grads.flat.size)
            adamw_step(p, grads, state, lr=lr, weight_decay=0.05)
            # The update as it ran on one tensor at a time.
            bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for name, g in grads.named_arrays():
                m, v, q = ref_m[name], ref_v[name], ref[name]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                q *= 1.0 - lr * 0.05
                q -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        assert state.step == 6
        for got, want in ((p, ref), (state.m, ref_m), (state.v, ref_v)):
            for name, a in got.named_arrays():
                assert np.array_equal(a, want[name]), name


def _with_labels(dataset, rows, **columns):
    """The given rows of ``dataset`` with label columns (q_c, q_v, q_a) overwritten by value."""
    part = dataset.subset(list(rows))
    labels = part.labels.copy()
    for k, name in enumerate(("q_c", "q_v", "q_a")):
        if name in columns:
            labels[:, k] = columns[name]
    return Dataset(part.ids, part.generators, part.prompts, part.features, labels)


class TestTrain:
    def test_deterministic_reports(self, tiny_dataset):
        a = train(tiny_dataset, fast_config())
        b = train(tiny_dataset, fast_config())
        assert a.report_json() == b.report_json()
        assert params_checksum(a.params) == params_checksum(b.params)

    def test_loss_decreases_after_tiny_step(self, tiny_dataset):
        cfg = fast_config()
        params = init_model_params(tiny_dataset.dim, make_rng(0), hidden_aff=8, hidden_head=8)
        rows = range(8)
        features = tiny_dataset.features[rows]
        targets = np.column_stack(
            (tiny_dataset.labels[:8, 0], tiny_dataset.labels[:8, 1], np.full(8, np.nan))
        )

        def batch_loss(p):
            scores, cache = model_forward(features, p)
            return total_loss(scores, targets, (True, True, False)), cache

        bundle, cache = batch_loss(params)
        grads = model_backward(cache, params, bundle.grad)
        adamw_step(params, grads, OptimizerState.zeros_like(params), lr=1e-6, weight_decay=0.0)
        after, _ = batch_loss(params)
        assert after.total < bundle.total + 1e-12

    def test_patience_one_zero_lr_stops_after_two_epochs(self, tiny_dataset):
        cfg = fast_config(lr=0.0, weight_decay=0.0, early_stop_patience=1, max_epochs=50)
        outcome = train(tiny_dataset, cfg)
        assert outcome.last_epoch == 2
        assert outcome.stopping_reason == "early_stop"
        assert outcome.best_epoch == 1

    def test_best_epoch_never_after_last(self, tiny_dataset):
        outcome = train(tiny_dataset, fast_config(max_epochs=6))
        assert outcome.best_epoch <= outcome.last_epoch
        assert json.loads(outcome.report_json())["params_checksum"] == params_checksum(outcome.params)

    def test_lr_drop_applied(self, tiny_dataset):
        outcome = train(tiny_dataset, fast_config(max_epochs=4, lr_drop_epoch=3))
        lrs = [e.lr for e in outcome.history]
        assert lrs[:2] == [5e-4, 5e-4]
        assert lrs[2:] == [5e-5, 5e-5]

    def test_masked_task_is_skipped(self, tiny_dataset):
        stripped = _with_labels(tiny_dataset, range(len(tiny_dataset)), q_a=np.nan)
        outcome = train(stripped, fast_config(max_epochs=2))
        for stats in outcome.history:
            assert stats.loss_a == 0.0
            assert "authenticity" not in stats.val_srcc

    def test_consistency_only_with_singleton_tail_batch(self, tiny_dataset):
        # 19 samples, val 2, core 17: batch 16 + a singleton that the
        # pairwise loss cannot use and must be skipped, not fatal
        only_c = _with_labels(tiny_dataset, range(19), q_v=np.nan, q_a=np.nan)
        outcome = train(only_c, fast_config(max_epochs=2, val_fraction=0.1))
        assert outcome.last_epoch == 2
        for stats in outcome.history:
            assert stats.loss_v == 0.0 and stats.loss_a == 0.0

    def test_requires_some_labels(self, tiny_dataset):
        unlabeled = _with_labels(tiny_dataset, range(8), q_v=1.0, q_a=np.nan, q_c=np.nan)
        # one sample missing the label makes the task not fully present
        broken = Dataset(
            unlabeled.ids[:-1] + ["odd"],
            unlabeled.generators[:-1] + ["g"],
            unlabeled.prompts[:-1] + ["p"],
            np.concatenate([unlabeled.features[:-1], unlabeled.features[:1]]),
            np.concatenate([unlabeled.labels[:-1], np.full((1, 3), np.nan)]),
        )
        with pytest.raises(DataError):
            train(broken, fast_config())

    def test_zero_lr_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(early_stop_patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(similarity="dot")
        for field in ("hidden_aff", "hidden_head"):
            with pytest.raises(ConfigError, match="hidden sizes"):
                TrainConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field, value", [("batch_size", 2.5), ("max_epochs", 2.0), ("use_msi", "no"), ("seed", 1.5), ("lr", True)]
    )
    def test_mistyped_field_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError, match=f"TrainConfig: {field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["huge", "huge_negative", "unprintable"])
    def test_int_beyond_the_float_range_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError, match=f"^TrainConfig: {field} must be finite and >= 0, got an int beyond"):
            TrainConfig(**{field: value})

    def test_float_field_takes_an_int(self):
        assert TrainConfig(lr=1, weight_decay=0).lr == 1


class TestAblationVariantForward:
    def test_no_aff_equal_features_passes_through(self):
        from amff.scoring import mlp_forward

        rng = make_rng(20)
        params = _params(dim=8, seed=21, use_aff=False)
        f = rng.standard_normal(8)
        features = np.stack([rng.standard_normal(8), f, f, f])[None]
        scores, _ = model_forward(features, params)
        assert scores[0, 1] == pytest.approx(mlp_forward(params.head_v, f[None])[0][0, 0], abs=1e-12)

    def test_variants_differ_from_full(self, tiny_dataset):
        params = _params(dim=tiny_dataset.dim, seed=22)
        features = tiny_dataset.features[[0]]
        full, _ = model_forward(features, params)
        no_msi, _ = model_forward(features, as_variant(params, use_msi=False))
        assert full[0, 1] != no_msi[0, 1]  # scale features genuinely differ


class TestEvaluateModel:
    def test_metrics_computed_per_task(self, tiny_dataset):
        outcome = train(tiny_dataset, fast_config(max_epochs=3))
        result, scatter = evaluate_model(
            outcome.params, tiny_dataset, label_ranges=outcome.label_ranges
        )
        assert set(result.tasks) == {"consistency", "quality", "authenticity"}
        for task, tm in result.tasks.items():
            assert -1.0 <= tm.srcc <= 1.0
            assert tm.n == len(tiny_dataset)
            assert scatter[task].preds.shape == (len(tiny_dataset),)

    @pytest.mark.parametrize("labelled", [1, 4])
    def test_task_with_too_few_labels_is_refused(self, tiny_dataset, labelled):
        part = _with_labels(tiny_dataset, range(8), q_v=[1.0] * labelled + [np.nan] * (8 - labelled))
        with pytest.raises(DataError) as exc:
            evaluate_model(_params(dim=part.dim), part, label_ranges=None)
        assert str(exc.value) == (
            f"evaluate_model: quality has {labelled} labelled row(s); the metrics need at least 5"
        )

    def test_denormalization_restores_label_scale(self, tiny_dataset):
        outcome = train(tiny_dataset, fast_config(max_epochs=6))
        _, scatter = evaluate_model(
            outcome.params, tiny_dataset, label_ranges=outcome.label_ranges
        )
        lo, hi = outcome.label_ranges["quality"]
        preds = scatter["quality"].preds
        # trained predictions live near the label range, not near [0, 1]
        assert preds.mean() > 1.0 and lo <= preds.mean() <= hi + 1.0


class TestScoreDataset:
    @pytest.mark.parametrize("head, task", [("head_v", "quality"), ("head_a", "authenticity")])
    def test_non_finite_score_names_row_and_task(self, tiny_dataset, head, task):
        params = _params(dim=tiny_dataset.dim)
        getattr(params, head).b2[:] = np.inf
        with pytest.raises(NumericError, match=f"score_dataset: row 'synth-000000': non-finite {task} score"):
            trainer.score_dataset(params, tiny_dataset, label_ranges=tiny_dataset.label_ranges)


class TestFloat32Features:
    """The model scores and trains on a float32 block exactly as on its float64 widening."""

    @pytest.mark.parametrize("name, similarity, use_msi, use_aff", VARIANTS, ids=[v[0] for v in VARIANTS])
    def test_batch_objective(self, tiny_dataset, name, similarity, use_msi, use_aff):
        params = _params(dim=tiny_dataset.dim, similarity=similarity, use_msi=use_msi, use_aff=use_aff)
        block, targets, active = tiny_dataset.features[:16], tiny_dataset.labels[:16], np.ones(3, bool)
        assert block.dtype == np.float32
        narrow, grads = batch_objective(params, block, targets, active)
        wide, wide_grads = batch_objective(params, block.astype(np.float64), targets, active)
        assert narrow.total == wide.total
        assert grads.flat.tobytes() == wide_grads.flat.tobytes()

    def test_score_dataset(self, tiny_dataset):
        params, ds = _params(dim=tiny_dataset.dim), tiny_dataset
        wide = Dataset(ds.ids, ds.generators, ds.prompts, ds.features.astype(np.float64), ds.labels)
        narrow_scores, wide_scores = (score_dataset(params, d, label_ranges=ds.label_ranges) for d in (ds, wide))
        assert narrow_scores.tobytes() == wide_scores.tobytes()


class TestRunTrials:
    def test_one_split_per_seed_and_results_by_trial_then_config(self, tiny_dataset, monkeypatch):
        splits, trainings = [], []

        def split(dataset, seed):
            splits.append(seed)
            return split_random(dataset, 0.75, make_rng(seed))

        def recording_train(dataset, cfg):
            trainings.append((dataset.ids, cfg.seed, cfg.hidden_head))
            return train(dataset, cfg)

        monkeypatch.setattr(trainer, "train", recording_train)
        seeds = [3, 7]
        configs = [fast_config(max_epochs=2, seed=99), fast_config(max_epochs=2, seed=99, hidden_head=8)]
        results = run_trials(tiny_dataset, split, seeds, configs)

        assert splits == seeds
        train_ids = {seed: split_random(tiny_dataset, 0.75, make_rng(seed))[0].ids for seed in seeds}
        assert trainings == [(train_ids[seed], seed, cfg.hidden_head) for seed in seeds for cfg in configs]
        want = []
        for seed in seeds:
            train_set, test_set = split_random(tiny_dataset, 0.75, make_rng(seed))
            ckpts = [train(train_set, dataclasses.replace(cfg, seed=seed)) for cfg in configs]
            want.append([evaluate_model(c.params, test_set, label_ranges=c.label_ranges)[0] for c in ckpts])
        assert len({repr(r) for row in want for r in row}) == 4  # the order is observable
        assert results == want


class TestCheckpoint:
    def test_round_trip_exact(self, tiny_dataset, tmp_path):
        outcome = train(tiny_dataset, fast_config(max_epochs=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, outcome)
        ckpt = load_checkpoint(path)
        assert params_checksum(ckpt.params) == params_checksum(outcome.params)
        assert params_checksum(ckpt.final_params) == params_checksum(outcome.final_params)
        assert ckpt.opt_state.step == outcome.opt_state.step
        assert np.array_equal(ckpt.opt_state.m.flat, outcome.opt_state.m.flat)
        assert np.array_equal(ckpt.opt_state.v.flat, outcome.opt_state.v.flat)
        assert ckpt.config == outcome.config
        assert ckpt.label_ranges == outcome.label_ranges

    def test_resume_matches_straight_run(self, tiny_dataset, tmp_path):
        half = train(tiny_dataset, fast_config(max_epochs=3))
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, half)
        resumed = train(tiny_dataset, fast_config(max_epochs=6), resume_from=path)
        straight = train(tiny_dataset, fast_config(max_epochs=6))
        assert resumed.report_json() == straight.report_json()
        assert params_checksum(resumed.params) == params_checksum(straight.params)
        assert params_checksum(resumed.final_params) == params_checksum(straight.final_params)

    def test_resume_rejects_incompatible_config(self, tiny_dataset, tmp_path):
        half = train(tiny_dataset, fast_config(max_epochs=2))
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, half)
        with pytest.raises(ConfigError, match="seed"):
            train(tiny_dataset, fast_config(max_epochs=4, seed=99), resume_from=path)
        with pytest.raises(ConfigError, match="use_aff"):
            train(tiny_dataset, fast_config(max_epochs=4, use_aff=False), resume_from=path)

    def test_save_load_save_is_byte_identical(self, tiny_dataset, tmp_path):
        outcome = train(tiny_dataset, fast_config(max_epochs=3, use_msi=False, similarity="manhattan"))
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(first, outcome)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"lr": 0.0, "weight_decay": 0.0, "early_stop_patience": 1, "max_epochs": 50}, "early_stop"),
            ({"max_epochs": 3}, "max_epochs"),
        ],
        ids=["early_stop", "max_epochs"],
    )
    def test_loaded_report_equals_trained_report(self, tiny_dataset, tmp_path, overrides, reason):
        outcome = train(tiny_dataset, fast_config(**overrides))
        assert outcome.stopping_reason == reason
        save_checkpoint(tmp_path / "model.ckpt", outcome)
        assert load_checkpoint(tmp_path / "model.ckpt").report_json() == outcome.report_json()

    @pytest.mark.parametrize("variant", [{"use_aff": False}, {"use_msi": False}], ids=["no_aff", "no_msi"])
    def test_ablated_model_scores_the_same_after_loading(self, tiny_dataset, tmp_path, variant):
        outcome = train(tiny_dataset, fast_config(max_epochs=2, **variant))
        before = score_dataset(outcome.params, tiny_dataset, label_ranges=outcome.label_ranges)
        save_checkpoint(tmp_path / "model.ckpt", outcome)
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        after = score_dataset(loaded.params, tiny_dataset, label_ranges=loaded.label_ranges)
        assert np.array_equal(after, before)
        # The same weights run as the full model give other scores.
        full = as_variant(loaded.params, use_msi=True, use_aff=True)
        assert not np.allclose(score_dataset(full, tiny_dataset, label_ranges=loaded.label_ranges), before)

    def test_truncated_checkpoint_rejected(self, tiny_dataset, tmp_path):
        outcome = train(tiny_dataset, fast_config(max_epochs=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, outcome)
        path.write_bytes(path.read_bytes()[:-16])
        from amff.errors import FormatError

        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_loading_holds_no_copy_of_the_payload(self, tmp_path):
        cfg = fast_config(max_epochs=1, hidden_aff=256, hidden_head=256)
        ckpt = train(synth_generate(40, 128, 0.01, make_rng(3)), cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The four containers, and far less than a second copy of the file.
        assert peak < 4 * loaded.params.flat.nbytes + path.stat().st_size // 4, peak

    def test_resume_from_earlier_checkpoint_matches_pins(self):
        # parent_v1.ckpt and the losses and final-parameter scores in
        # parent_v1_resume.json were written by the implementation that kept
        # one optimizer moment array per tensor.
        dataset = read_feature_records(DATA / "parent_v1.amff")
        cfg = dataclasses.replace(load_checkpoint(DATA / "parent_v1.ckpt").config, max_epochs=5)
        outcome = train(dataset, cfg, resume_from=DATA / "parent_v1.ckpt")
        want = json.loads((DATA / "parent_v1_resume.json").read_text())
        losses = {str(e.epoch): e.loss_total for e in outcome.history if e.epoch >= 4}
        assert losses.keys() == want["loss_total"].keys()
        for epoch, loss in losses.items():
            assert abs(loss - want["loss_total"][epoch]) <= 1e-12 * abs(want["loss_total"][epoch]), epoch
        scores = score_dataset(outcome.final_params, dataset, label_ranges=outcome.label_ranges)
        pinned = np.array(want["final_preds"])
        assert np.all(np.abs(scores - pinned) <= 1e-12 * np.abs(pinned))

    def test_resume_refuses_a_dataset_with_other_label_ranges(self, tmp_path):
        # The heads learned labels normalized by the first dataset's ranges.
        first, other = (synth_generate(48, 16, 0.01, make_rng(seed)) for seed in (5, 6))
        assert first.label_ranges != other.label_ranges
        save_checkpoint(tmp_path / "half.ckpt", train(first, fast_config(max_epochs=2)))
        with pytest.raises(ConfigError, match="label ranges") as excinfo:
            train(other, fast_config(max_epochs=4), resume_from=tmp_path / "half.ckpt")
        assert str(first.label_ranges["quality"]) in str(excinfo.value)
        assert str(other.label_ranges["quality"]) in str(excinfo.value)

    def test_resume_refuses_counters_that_disagree_with_the_history(self, tmp_path):
        # parent_v1.ckpt holds epochs 1..3 with epoch 1 best.  Were the counters
        # trusted, resuming this file would train epochs 2..5 again after them.
        prefix, header, payload = split_checkpoint((DATA / "parent_v1.ckpt").read_bytes())
        header["best_epoch"], header["last_epoch"] = 3, 1
        path = tmp_path / "edited.ckpt"
        path.write_bytes(join_checkpoint(prefix, header, payload))
        dataset = read_feature_records(DATA / "parent_v1.amff")
        cfg = dataclasses.replace(load_checkpoint(DATA / "parent_v1.ckpt").config, max_epochs=5)
        with pytest.raises(FormatError, match="best_epoch: the file has 3, the loaded record saves 1"):
            train(dataset, cfg, resume_from=path)


# Arbitrary JSON values for header edits, NaN, infinities and huge integers included.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_SHAPES = st.lists(st.integers(-2, 40), max_size=3) | _JSON
_PARENT_CKPT = (DATA / "parent_v1.ckpt").read_bytes()


def _load_or_amff_error(path, data: bytes):
    """The checkpoint ``data`` holds, or None when loading it raises an AmffError."""
    path.write_bytes(data)
    try:
        return load_checkpoint(path)
    except AmffError:
        return None


class TestCheckpointFuzz:
    """Whatever a checkpoint holds, loading it succeeds or raises an AmffError."""

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(0, len(_PARENT_CKPT) - 1), st.integers(1, 255)),
                          min_size=1, max_size=4))
    def test_byte_flips(self, tmp_path_factory, flips):
        data = bytearray(_PARENT_CKPT)
        for pos, mask in flips:
            data[pos] ^= mask
        _load_or_amff_error(tmp_path_factory.getbasetemp() / "fuzz.ckpt", bytes(data))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_edits(self, tmp_path_factory, data):
        """An edited header that loads is the one the loaded record saves with, less the v1 leftovers."""
        prefix, header, payload = split_checkpoint(_PARENT_CKPT)
        section = data.draw(st.sampled_from(["tensors", "config", "label_ranges", "history", "top"]))
        if section == "tensors":
            k = data.draw(st.integers(0, len(header["tensors"]) - 1))
            header["tensors"][k]["shape"] = data.draw(_SHAPES)
        else:
            if section == "history":
                target = header["history"][data.draw(st.integers(0, len(header["history"]) - 1))]
            else:
                target = header if section == "top" else header[section]
            key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=3))
            if data.draw(st.booleans()):
                target[key] = data.draw(_JSON)
            else:
                target.pop(key, None)
        base = tmp_path_factory.getbasetemp()
        ckpt = _load_or_amff_error(base / "fuzz.ckpt", join_checkpoint(prefix, header, payload))
        if ckpt is None:
            return
        header.pop("rng_state", None)
        for name in ("lr_after_drop", "fidelity_label"):
            header["config"].pop(name, None)
        save_checkpoint(base / "resaved.ckpt", ckpt)
        assert (base / "resaved.ckpt").read_bytes() == join_checkpoint(prefix, header, payload)
