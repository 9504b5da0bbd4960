import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scsnet import autodiff as ad
from scsnet import mmd, models, training
from scsnet.datasets import (
    SplitSpec,
    SubjectDataset,
    TrialSet,
    balanced_upsample,
    batch_iter,
    load_trialset,
    make_splits,
    save_trialset,
    synth_multisubject,
)
from scsnet.mmd import layered_class_mmd, transfer_loss
from scsnet.models import (
    BaselineConfig,
    ModelParams,
    ScsnConfig,
    build_baseline,
    build_scsn,
    forward_infer,
    forward_train,
)
from scsnet.training import (
    AdamState,
    ComparisonRow,
    TrainConfig,
    TrainReport,
    adam_step,
    crop_pool,
    epoch_batch_seed,
    evaluate,
    negative_transfer_report,
    scsn_pools,
    train,
)
from scsnet.preprocessing import crop_trialset
from scsnet.training import _check_finite, _predict_crops

TINY_ARCH = dict(temporal_filters=4, temporal_kernel=9, pool_width=10, pool_stride=5,
                 common_fc_dims=(8, 8, 8), separate_fc_dims=(6, 6, 6))


def tiny_split(seed=1, n_subjects=3, shift=0.5, snr=5.0, trials=24, n_channels=4):
    data = synth_multisubject(n_subjects, 2, trials, n_channels, 64.0, 1.0, 2,
                              shift, snr, seed=seed)
    third = trials // 3
    return make_splits(data, SplitSpec("S01", third, (third, 2 * third), (2 * third, trials)))


def tiny_cfg(**over):
    base = dict(max_epochs=8, patience=8, batch_per_branch=8, win_s=1.0, overlap_s=0.5,
                dropout=0.5, seed=3, **TINY_ARCH)
    base.update(over)
    return TrainConfig(**base)


class TestAdam:
    def _single_param(self, value):
        params = ModelParams()
        params.add("w", ad.Tensor(np.asarray([value]), requires_grad=True), "model")
        return params

    def test_zero_gradient_no_move(self):
        params = self._single_param(1.23)
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(1)}, state, TrainConfig(lr=0.1))
        np.testing.assert_array_equal(params["w"].values, [1.23])

    def test_first_step_matches_hand_iteration(self):
        # f(w) = w^2 at w=1: g=2, m_hat=2, v_hat=4, step = lr * 2 / (2 + eps)
        params = self._single_param(1.0)
        state = AdamState(params)
        adam_step(params, {"w": np.asarray([2.0])}, state, TrainConfig(lr=0.1))
        expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        assert abs(params["w"].values[0] - expected) < 1e-15
        assert abs(params["w"].values[0] - 0.9) < 1e-7

    def test_deterministic_trajectories(self):
        runs = []
        for _ in range(2):
            params = self._single_param(0.7)
            state = AdamState(params)
            rng = np.random.default_rng(0)
            for _ in range(25):
                g = rng.normal(size=1)
                adam_step(params, {"w": g}, state, TrainConfig(lr=0.01))
            runs.append(params["w"].values.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_shape_mismatch(self):
        params = self._single_param(1.0)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros((2, 2))}, AdamState(params), TrainConfig())

    def test_refused_step_changes_nothing(self):
        # the bad gradient is the second parameter's: a step that updated as
        # it checked would already have moved the first
        params = ModelParams()
        params.add("a", ad.Tensor(np.array([1.0, -2.0]), requires_grad=True), "model")
        params.add("b", ad.Tensor(np.array([0.5, 0.25, 3.0]), requires_grad=True), "model")
        state = AdamState(params)
        adam_step(params, {"a": np.array([0.3, -0.1]), "b": np.ones(3)}, state,
                  TrainConfig(lr=0.1))
        before = [(t.values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                  for n, t in params.items()]
        with pytest.raises(ValueError, match="'b'"):
            adam_step(params, {"a": np.ones(2), "b": np.ones((3, 1))}, state,
                      TrainConfig(lr=0.1))
        assert state.t == 1
        assert [(t.values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                for n, t in params.items()] == before

    @staticmethod
    def _reference_step(values, m, v, t, grads, lr):
        """Out-of-place Adam, as one expression per array; returns new dicts."""
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        out_values, out_m, out_v = {}, {}, {}
        for name in values:
            g = grads.get(name)
            g = 0.0 if g is None else g
            out_m[name] = b1 * m[name] + (1 - b1) * g
            out_v[name] = b2 * v[name] + (1 - b2) * (g * g)
            m_hat = out_m[name] / (1 - b1 ** t)
            v_hat = out_v[name] / (1 - b2 ** t)
            out_values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
        return out_values, out_m, out_v

    @given(shapes=st.lists(st.lists(st.integers(1, 4), max_size=3), min_size=1, max_size=4),
           steps=st.integers(1, 30), lr=st.sampled_from([1e-3, 0.01, 0.5]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_in_place_update_matches_out_of_place_bytes(self, shapes, steps, lr, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams()
        for i, shape in enumerate(shapes):
            params.add(f"p{i}", ad.Tensor(rng.normal(size=shape), requires_grad=True), "model")
        state = AdamState(params)
        values = {n: t.values.copy() for n, t in params.items()}
        m = {n: np.zeros_like(v) for n, v in values.items()}
        v = {n: np.zeros_like(x) for n, x in values.items()}
        arrays = [t.values for _, t in params.items()]
        for t in range(1, steps + 1):
            # each gradient absent (None or no key) about one time in three
            grads = {}
            for name, value in values.items():
                draw = rng.integers(3)
                if draw == 1:
                    grads[name] = None
                elif draw == 2:
                    grads[name] = rng.normal(size=value.shape) * 10.0 ** rng.integers(-6, 3)
            adam_step(params, grads, state, TrainConfig(lr=lr))
            values, m, v = self._reference_step(values, m, v, t, grads, lr)
        assert state.t == steps
        for name, tensor in params.items():
            assert tensor.values.tobytes() == values[name].tobytes()
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()
        # in place: every parameter keeps the array it started with
        assert all(t.values is a for (_, t), a in zip(params.items(), arrays))


@pytest.mark.parametrize("field, value", [("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
                                          ("lam", -1.0), ("lam", float("nan")),
                                          ("lam", float("inf"))])
def test_train_config_rejects_bad_rates(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, -3])
def test_train_config_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
        TrainConfig(seed=seed)


@pytest.mark.parametrize("field, value", [("batch_per_branch", 2.5), ("max_epochs", 2.5),
                                          ("patience", True), ("seed", np.float64(1.0)),
                                          ("pool_width", 7.5), ("common_fc_dims", (8, 8.0, 8))])
def test_train_config_refuses_a_non_integer_size(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


def test_train_config_stores_numpy_integers_as_int():
    cfg = TrainConfig(max_epochs=np.int64(5), patience=np.int32(2), seed=np.uint8(3),
                      separate_fc_dims=[np.int16(4)] * 3)
    assert (cfg.max_epochs, cfg.patience, cfg.seed) == (5, 2, 3)
    assert type(cfg.max_epochs) is type(cfg.seed) is int
    assert cfg.separate_fc_dims == (4, 4, 4) and type(cfg.separate_fc_dims[0]) is int


class TestTrainBasics:
    def test_deterministic_given_seed(self):
        split = tiny_split()
        cfg = tiny_cfg(max_epochs=5, patience=5)
        m1, r1 = train("scsn", split, cfg)
        m2, r2 = train("scsn", split, cfg)
        assert r1.train_loss == r2.train_loss
        assert r1.val_accuracy == r2.val_accuracy
        for name in m1.params.names():
            np.testing.assert_array_equal(m1.params[name].values, m2.params[name].values)

    def test_epoch_budget_and_best_epoch(self):
        _, report = train("baseline", tiny_split(), tiny_cfg(), regime="single")
        assert report.epochs_run <= 8
        assert report.val_accuracy[report.best_epoch - 1] == max(report.val_accuracy)

    def test_early_stop_restores_best(self):
        split = tiny_split(seed=2)
        cfg = tiny_cfg(max_epochs=12, patience=3, seed=5)
        model, report = train("baseline", split, cfg, regime="single")
        crop_acc, _ = evaluate(model, None, split.val, cfg.win_s, cfg.overlap_s)
        assert crop_acc == max(report.val_accuracy)

    def test_one_snapshot_per_improving_epoch(self, monkeypatch):
        # the best parameters are copied after each epoch whose validation
        # accuracy beats every earlier one's, and never before epoch 1
        validations, snapshots = [], []
        real_predict, real_snapshot = training._predict_crops, ModelParams.snapshot

        def predict(*args, **kwargs):
            validations.append(args[2])
            return real_predict(*args, **kwargs)

        def snapshot(params):
            snapshots.append(len(validations))
            return real_snapshot(params)

        monkeypatch.setattr(training, "_predict_crops", predict)
        monkeypatch.setattr(ModelParams, "snapshot", snapshot)
        split = tiny_split(seed=2)
        _, report = train("baseline", split, tiny_cfg(max_epochs=12, patience=3, seed=5),
                          regime="single")
        acc = report.val_accuracy
        improving = [e for e in range(1, len(acc) + 1) if acc[e - 1] > max(acc[:e - 1], default=-1)]
        assert len(validations) == len(acc) + 1 and validations[-1] is split.test
        assert all(v is split.val for v in validations[:-1])
        assert len(improving) > 1 and snapshots == improving, (acc, snapshots)

    def test_scsn_single_regime_rejected(self):
        with pytest.raises(ValueError):
            train("scsn", tiny_split(), tiny_cfg(), regime="single")

    def test_empty_validation_rejected(self):
        # SplitSpec refuses an empty range, so only a hand-built Split has one
        split = tiny_split()
        split = replace(split, val=split.val.subset(slice(0)))
        with pytest.raises(ValueError, match="validation"):
            train("baseline", split, tiny_cfg(), regime="single")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train("mlp", tiny_split(), tiny_cfg())

    @pytest.mark.parametrize("kind", ["scsn", "baseline"])
    def test_source_trials_shorter_than_the_window_name_the_subject(self, kind):
        split = tiny_split()
        short = split.train["S02"]
        split.train["S02"] = replace(short, data=short.data[:, :, :32])  # 1 s crops at 64 Hz
        with pytest.raises(ValueError,
                           match="^subject 'S02': window exceeds the trial duration$"):
            train(kind, split, tiny_cfg(), regime="multi")

    def test_mmd_log_nonnegative(self):
        _, report = train("scsn_mmd", tiny_split(), tiny_cfg(max_epochs=4, patience=4, lam=1.0))
        assert all(v >= -1e-12 for v in report.train_mmd_loss)


class TestLambdaZeroEquivalence:
    def test_identical_trajectories(self):
        split = tiny_split(seed=4)
        cfg = tiny_cfg(max_epochs=6, patience=6, lam=0.0, seed=9)
        m_plain, r_plain = train("scsn", split, cfg)
        m_mmd, r_mmd = train("scsn_mmd", split, cfg)
        assert r_plain.train_loss == r_mmd.train_loss
        assert r_plain.train_mmd_loss == r_mmd.train_mmd_loss
        assert r_plain.val_accuracy == r_mmd.val_accuracy
        assert r_plain.test_crop_accuracy == r_mmd.test_crop_accuracy
        for name in m_plain.params.names():
            assert m_plain.params[name].values.tobytes() == m_mmd.params[name].values.tobytes()


class TestMmdLogMatchesRecomputation:
    def test_epoch_one_replication(self):
        split = tiny_split(seed=6)
        cfg = tiny_cfg(max_epochs=1, patience=1, lam=1.0, dropout=0.0, seed=11)
        _, report = train("scsn_mmd", split, cfg)

        # independent replay of the first epoch via the public pieces
        subjects, pools = scsn_pools(split, cfg)
        target_idx = subjects.index(split.target_subject)
        any_pool = pools[split.target_subject]
        base = BaselineConfig(
            n_channels=any_pool.trials[0].shape[1], n_samples=any_pool.width,
            n_classes=len(any_pool.class_names), temporal_filters=cfg.temporal_filters,
            temporal_kernel=cfg.temporal_kernel, pool_width=cfg.pool_width,
            pool_stride=cfg.pool_stride, dropout=cfg.dropout)
        model = build_scsn(ScsnConfig(base=base, n_subjects=len(subjects),
                                      target_index=target_idx,
                                      common_fc_dims=cfg.common_fc_dims,
                                      separate_fc_dims=cfg.separate_fc_dims), cfg.seed)
        state = AdamState(model.params)
        arrays = {s: (crop_rows(pools[s]), pools[s].label) for s in subjects}

        step_mmds = []
        for picks in batch_iter(pools, cfg.batch_per_branch, epoch_batch_seed(cfg.seed, 1)):
            batch = {i: (arrays[s][0][picks[s]], arrays[s][1][picks[s]])
                     for i, s in enumerate(subjects)}
            out = forward_train(model, batch)
            terms = [layered_class_mmd(out[target_idx][1], out[i][1],
                                       batch[target_idx][1], batch[i][1])
                     for i in range(len(subjects)) if i != target_idx]
            step_mmds.append(sum(t.item() for t in terms))
            ce = ad.scale(ad.add_n([ad.softmax_xent(out[i][0], batch[i][1])[0]
                                    for i in range(len(subjects))]), 1.0 / len(subjects))
            loss = transfer_loss(ce, terms, cfg.lam)
            loss.backward()
            adam_step(model.params, {n: t.grad for n, t in model.params.items()}, state, cfg)
            model.params.zero_grad()
        assert abs(report.train_mmd_loss[0] - float(np.mean(step_mmds))) < 1e-12


def trials_of(arrays):
    """The trials of several [trials, channels, samples] arrays, numbered
    across them in order."""
    return [trial for array in arrays for trial in array]


def crop_rows(pool, rows=slice(None)):
    """The crops `rows` of `pool`, copied one at a time: samples o:o + width
    of the trial numbered t across the pool's trial arrays."""
    trials = trials_of(pool.trials)
    return np.stack([trials[t][:, o:o + pool.width]
                     for t, o in zip(pool.trial[rows], pool.onset[rows])])


def labeled_trialset(n_trials, n_channels, n_samples, n_classes=2, fs=10.0, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n_trials) % n_classes)
    data = rng.normal(size=(n_trials, n_channels, n_samples)).astype(np.float32)
    return TrialSet(data, labels, "S", [f"c{i}" for i in range(n_channels)], fs,
                    [f"k{i}" for i in range(n_classes)])


class TestCropPool:
    """Index pools against the cropped TrialSets they replace, bit for bit.
    At 10 Hz a window of w samples every s samples is w/10 s overlapping
    the next by (w - s)/10 s."""

    @settings(max_examples=40, deadline=None)
    @given(n_trials=st.integers(1, 5), n_channels=st.integers(1, 3),
           width=st.integers(1, 12), extra=st.integers(0, 20), stride=st.integers(1, 6),
           n_picks=st.integers(1, 30), seed=st.integers(0, 2**16))
    @example(n_trials=3, n_channels=2, width=8, extra=0, stride=3, n_picks=5, seed=0)  # 1 crop
    @example(n_trials=2, n_channels=3, width=6, extra=12, stride=4, n_picks=9, seed=1)  # 4 crops
    @example(n_trials=4, n_channels=1, width=5, extra=11, stride=3, n_picks=20, seed=2)  # 11 % 3
    def test_batches_equal_cropped_trialset(self, n_trials, n_channels, width, extra, stride,
                                            n_picks, seed):
        assume(stride <= width)  # a wider stride is a negative overlap, which is refused
        ts = labeled_trialset(n_trials, n_channels, width + extra, seed=seed)
        win_s, overlap_s = width / 10.0, (width - stride) / 10.0
        pool = crop_pool([ts], win_s, overlap_s)
        crops = crop_trialset(ts, win_s, overlap_s)
        picks = np.random.default_rng(seed).integers(len(crops), size=n_picks)
        assert (len(pool), pool.width) == (len(crops), crops.n_samples)
        assert crop_rows(pool, picks).tobytes() == crops.data[picks].tobytes()
        np.testing.assert_array_equal(pool.label[picks], crops.label[picks])
        assert crop_rows(pool).tobytes() == crops.data.tobytes()
        np.testing.assert_array_equal(pool.label, crops.label)

    def test_sets_of_different_lengths_concatenate(self):
        # the sets' crops follow one another, read from each set's own array
        short, long = labeled_trialset(3, 2, 14, seed=3), labeled_trialset(2, 2, 23, seed=4)
        pool = crop_pool([short, long], 0.8, 0.5)
        assert len(pool.trials) == 2
        assert pool.trials[0] is short.data and pool.trials[1] is long.data
        crops = [crop_trialset(ts, 0.8, 0.5) for ts in (short, long)]
        want = np.concatenate([c.data for c in crops])
        assert crop_rows(pool).tobytes() == want.tobytes()
        np.testing.assert_array_equal(pool.label, np.concatenate([c.label for c in crops]))

    def test_allocates_only_its_index_arrays(self):
        sets = [labeled_trialset(6, 4, 400 + 20 * i, seed=i) for i in range(5)]
        tracemalloc.start()
        try:
            pool = crop_pool(sets, 30.0, 0.0)  # 30 s windows of 40-48 s trials: 1 crop each
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index_bytes = pool.trial.nbytes + pool.onset.nbytes + pool.label.nbytes
        assert len(pool) == 30 and index_bytes == 720
        # the smallest set's trials take 38,400 bytes; the rest of the peak is
        # the geometries, lists and other interpreter objects
        assert peak <= index_bytes + 16384, peak

    def test_mismatched_crop_widths_rejected(self):
        a, b = labeled_trialset(2, 1, 20), labeled_trialset(2, 1, 40, fs=20.0)
        with pytest.raises(ValueError, match="different widths"):
            crop_pool([a, b], 1.0, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(n_trials=st.integers(3, 9), n_classes=st.integers(1, 3), grow=st.integers(0, 15),
           seed=st.integers(0, 2**16))
    def test_upsampling_matches_balanced_upsample(self, n_trials, n_classes, grow, seed):
        ts = labeled_trialset(n_trials, 2, 13, n_classes=n_classes, seed=seed)
        crops = crop_trialset(ts, 0.5, 0.2)  # 3 crops per trial
        target = n_classes * int(np.bincount(crops.label).max()) + grow
        want = balanced_upsample(crops, target, np.random.SeedSequence(seed))
        got = crop_pool([ts], 0.5, 0.2).upsampled(target, np.random.SeedSequence(seed))
        assert crop_rows(got).tobytes() == want.data.tobytes()
        np.testing.assert_array_equal(got.label, want.label)


class TestStepsReadPoolTrials:
    """A step hands its pools' own trial arrays to the shallow block, with
    the picked rows' trials and onsets: no crop or span is copied."""

    @staticmethod
    def _reference_crops(split, cfg, subjects):
        # each branch pool's rows as a cropped TrialSet, upsampled as the pool is
        crops = {s: crop_trialset(split.train[s], cfg.win_s, cfg.overlap_s) for s in subjects}
        target_n = len(crops[split.target_subject])
        for j, s in enumerate(subjects):
            if len(crops[s]) < target_n:
                crops[s] = balanced_upsample(crops[s], target_n, training.upsample_seed(cfg.seed, j))
        return crops

    @staticmethod
    def _check_crops(x, trial, onset, want, rows):
        width = want.n_samples
        assert all(array.dtype == np.float32 for array in x)
        trials = trials_of(x)
        for r, row in enumerate(rows):
            assert trials[trial[r]][:, onset[r]:onset[r] + width].tobytes() \
                == want.data[row].tobytes()

    @staticmethod
    def _spy_batches(monkeypatch) -> list[dict]:
        seen = []
        real = training.forward_train

        def spy(model, batch, dropout_rng=None):
            seen.append(batch)
            return real(model, batch, dropout_rng=dropout_rng)

        monkeypatch.setattr(training, "forward_train", spy)
        return seen

    def test_scsn_steps_read_the_branch_trials(self, monkeypatch):
        # 0.5 s windows every 0.25 s of 1 s trials: 3 overlapping crops per trial
        split, cfg = tiny_split(), tiny_cfg(max_epochs=1, patience=1, win_s=0.5, overlap_s=0.25)
        seen = self._spy_batches(monkeypatch)
        train("scsn", split, cfg)
        subjects, pools = scsn_pools(split, cfg)
        want = self._reference_crops(split, cfg, subjects)
        picks = list(batch_iter(pools, cfg.batch_per_branch, epoch_batch_seed(cfg.seed, 1)))
        assert len(seen) == len(picks) > 1
        for batch, rows in zip(seen, picks):
            for i, s in enumerate(subjects):
                x, y, (trial, onset) = batch[i]
                assert len(x) == 1 and x[0] is split.train[s].data, s
                np.testing.assert_array_equal(y, want[s].label[rows[s]])
                self._check_crops(x, trial, onset, want[s], rows[s])

    def test_baseline_steps_read_the_pooled_trials(self, monkeypatch):
        split, cfg = tiny_split(), tiny_cfg(max_epochs=1, patience=1, win_s=0.5, overlap_s=0.25)
        seen = self._spy_batches(monkeypatch)
        train("baseline", split, cfg, regime="single")
        pool = crop_pool([split.train["S01"]], cfg.win_s, cfg.overlap_s)
        want = crop_trialset(split.train["S01"], cfg.win_s, cfg.overlap_s)
        picks = list(batch_iter({"pooled": pool}, cfg.batch_per_branch,
                                epoch_batch_seed(cfg.seed, 1)))
        assert len(seen) == len(picks) > 1
        for batch, rows in zip(seen, picks):
            assert list(batch) == [0]  # the baseline is the one branch 0
            x, y, (trial, onset) = batch[0]
            assert len(x) == 1 and x[0] is split.train["S01"].data
            np.testing.assert_array_equal(y, want.label[rows["pooled"]])
            self._check_crops(x, trial, onset, want, rows["pooled"])


class TestPoolsShareLoadedTrials:
    def test_source_pools_index_the_loaded_sessions(self, tmp_path):
        datasets = []
        for ds in synth_multisubject(3, 2, 12, 3, 64.0, 1.0, 2, 0.5, 5.0, seed=4):
            sessions = []
            for k, session in enumerate(ds.sessions):
                save_trialset(session, tmp_path / f"{ds.subject_id}_s{k}.tsc")
                sessions.append(load_trialset(tmp_path / f"{ds.subject_id}_s{k}.tsc"))
            datasets.append(SubjectDataset(ds.subject_id, sessions))
        loaded = datasets[1].sessions[0]
        assert loaded.data.shape == (12, 3, 64) and loaded.data.flags.c_contiguous
        split = make_splits(datasets, SplitSpec("S01", 4, (4, 8), (8, 12)))
        subjects, pools = scsn_pools(split, tiny_cfg(win_s=0.5, overlap_s=0.25))
        for s in subjects:
            assert np.shares_memory(pools[s].trials[0], split.train[s].data), s
            if s != "S01":
                assert split.train[s] is datasets[subjects.index(s)].sessions[0]
        # baseline-multi's one pool over every subject holds each one's array
        pooled = crop_pool([split.train[s] for s in subjects], 0.5, 0.25)
        assert len(pooled.trials) == len(subjects)
        for s, trials in zip(subjects, pooled.trials):
            assert np.shares_memory(trials, split.train[s].data), s


class TestMmdStepStructure:
    def test_one_multi_source_node_per_step(self, monkeypatch):
        calls = []
        real = training.multi_source_mmd

        def spy(branch_feats, branch_labels, target):
            out = real(branch_feats, branch_labels, target)
            calls.append((len(branch_feats), target, len(out[0]._parents)))
            return out

        def per_pair_op(*args, **kwargs):
            raise AssertionError("an SCSN-MMD step built a per-pair MMD node or a row gather")

        monkeypatch.setattr(training, "multi_source_mmd", spy)
        monkeypatch.setattr(mmd, "mmd2_biased", per_pair_op)
        monkeypatch.setattr(ad, "take_rows", per_pair_op)
        split, cfg = tiny_split(), tiny_cfg(max_epochs=1, patience=1, lam=1.0)
        _, pools = scsn_pools(split, cfg)
        steps = len(list(batch_iter(pools, cfg.batch_per_branch, epoch_batch_seed(cfg.seed, 1))))
        train("scsn_mmd", split, cfg)
        assert steps > 1
        assert calls == [(3, 0, 3)] * steps


class TestStepMemory:
    """Training keeps the trial arrays plus one step alive, nothing more."""

    def test_previous_step_graph_is_freed(self, monkeypatch):
        real = training.forward_train
        alive, survivors = [], []

        def spy(model, batch, dropout_rng=None):
            survivors.append(sum(ref() is not None for ref in alive))
            out = real(model, batch, dropout_rng=dropout_rng)
            alive[:] = [weakref.ref(t.values) for logits, feats in out.values()
                        for t in (logits, *feats)]
            return out

        monkeypatch.setattr(training, "forward_train", spy)
        train("scsn_mmd", tiny_split(), tiny_cfg(max_epochs=2, patience=2, lam=1.0))
        assert len(survivors) > 2
        assert not any(survivors), survivors

    def test_peak_bounded_by_trials_and_one_step(self):
        # 22 channels, 4 s trials at 100 Hz, 2 s crops every 0.1 s: 21 per trial
        data = synth_multisubject(3, 2, 16, 22, 100.0, 4.0, 4, 0.5, 5.0, seed=2)
        split = make_splits(data, SplitSpec("S01", 4, (4, 6), (6, 8)))
        cfg = tiny_cfg(max_epochs=1, patience=1, lam=1.0, win_s=2.0, overlap_s=1.9)
        trial_bytes = 4 * sum(ts.data.astype(np.float32).size for ts in split.train.values())

        tracemalloc.start()
        try:
            model, _ = train("scsn_mmd", split, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        # one step on a batch of the same shape: its batch, graph and gradients
        subjects, pools = scsn_pools(split, cfg)
        rows = np.arange(cfg.batch_per_branch)
        tracemalloc.start()
        try:
            batch = {i: (crop_rows(pools[s], rows).astype(np.float64), pools[s].label[rows])
                     for i, s in enumerate(subjects)}
            out = forward_train(model, batch, dropout_rng=np.random.default_rng(0))
            ce = ad.add_n([ad.softmax_xent(out[i][0], batch[i][1])[0] for i in batch])
            terms = [layered_class_mmd(out[0][1], out[i][1], batch[0][1], batch[i][1])
                     for i in (1, 2)]
            transfer_loss(ce, terms, 1.0).backward()
            step = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 1e6  # parameters, Adam moments, validation, interpreter objects
        assert peak <= trial_bytes + step + slack, (peak, trial_bytes, step)


class TestSeparableTask:
    def test_validation_accuracy_within_fifty_epochs(self):
        data = synth_multisubject(1, 2, 40, 4, 64.0, 1.0, 2, 0.0, 12.0, seed=13)
        split = make_splits(data, SplitSpec("S01", 10, (10, 30), (30, 40)))

        # linear oracle: least squares on per-channel variance features
        def variance_features(ts):
            x = ts.data.astype(np.float64)
            return np.concatenate([x.var(axis=2), np.ones((len(x), 1))], axis=1)

        train_x = variance_features(split.train["S01"])
        train_y = np.eye(2)[split.train["S01"].label]
        w, *_ = np.linalg.lstsq(train_x, train_y, rcond=None)
        val_pred = (variance_features(split.val) @ w).argmax(axis=1)
        assert np.mean(val_pred == split.val.label) == 1.0

        cfg = tiny_cfg(max_epochs=50, patience=50, seed=7)
        _, report = train("baseline", split, cfg, regime="single")
        assert max(report.val_accuracy) >= 0.95


class TestEvaluate:
    def _const_model(self, n_classes=4, n_samples=64):
        cfg = BaselineConfig(n_channels=2, n_samples=n_samples, n_classes=n_classes,
                             temporal_filters=2, temporal_kernel=5, pool_width=6,
                             pool_stride=4, dropout=0.0)
        model = build_baseline(cfg, seed=0)
        model.params["classifier.weight"].values[:] = 0.0
        model.params["classifier.bias"].values[:] = 0.0
        model.params["classifier.bias"].values[0] = 10.0  # always predicts class 0
        return model

    def _test_set(self, labels, fs=64.0, seconds=1.0, n_channels=2):
        rng = np.random.default_rng(0)
        n = int(fs * seconds)
        data = rng.normal(size=(len(labels), n_channels, n)).astype(np.float32)
        return TrialSet(data, labels, "S", [f"c{i}" for i in range(n_channels)], fs,
                        [f"k{i}" for i in range(4)])

    def test_constant_predictor_on_matching_labels(self):
        test = self._test_set([0] * 10)
        assert evaluate(self._const_model(), None, test, 1.0, 0.5) == (1.0, 1.0)

    def test_single_crop_accuracies_coincide(self):
        test = self._test_set([0, 1, 2, 3] * 5)
        crop_acc, trial_acc = evaluate(self._const_model(), None, test, 1.0, 0.5)
        assert crop_acc == trial_acc == 0.25

    def test_refuses_a_non_finite_trial_naming_it(self):
        # a NaN gives NaN probabilities, which argmax would read as class 0
        test = self._test_set([1, 2, 3, 0, 1, 2, 3, 0])
        for value in (np.nan, -np.inf):
            test.data[3, 1, 10] = value
            with pytest.raises(ValueError, match="^trial 3 holds non-finite samples$"):
                evaluate(self._const_model(), None, test, 1.0, 0.5)

    def test_uniform_random_predictor_near_chance(self, monkeypatch):
        rng = np.random.default_rng(42)

        def random_probs(model, x, branch=None, crop_stride=None):
            crops = (x.shape[-1] - model.cfg.n_samples) // crop_stride + 1
            return rng.dirichlet(np.ones(4), size=len(x) * crops)

        monkeypatch.setattr(training, "forward_infer", random_probs)
        test = self._test_set(list(np.random.default_rng(1).integers(4, size=100)),
                              fs=250.0, seconds=4.0)
        model = self._const_model(n_samples=500)
        crop_acc, _ = evaluate(model, None, test, 2.0, 1.9)  # 2100 crops
        assert abs(crop_acc - 0.25) <= 0.03

    def test_empty_test_rejected(self):
        test = self._test_set([0])
        empty = test.subset([])
        with pytest.raises(ValueError):
            evaluate(self._const_model(), None, empty, 1.0, 0.5)

    def test_tie_breaks_to_lowest_class(self, monkeypatch):
        def alternating(model, x, branch=None, crop_stride=None):
            out = np.zeros((2 * len(x), 4))  # 2 crops a trial
            out[0::2, 2] = out[1::2, 3] = 1.0  # alternate classes 2 and 3
            return out

        monkeypatch.setattr(training, "forward_infer", alternating)
        test = self._test_set([2, 2], fs=64.0, seconds=1.0)
        crop_acc, trial_acc = evaluate(self._const_model(n_samples=32), None, test, 0.5, 0.0)
        assert crop_acc == 0.5
        assert trial_acc == 1.0  # ties (one vote each for 2 and 3) resolve to class 2

    @pytest.mark.parametrize("win_s, overlap_s, width", [(1.04, 0.94, 104), (0.5, 0.4, 50),
                                                         (2.0, 1.9, 200)])
    def test_refuses_crops_of_another_width(self, win_s, overlap_s, width):
        # a 100-sample model at 100 Hz takes 1 s crops only
        test = self._test_set([0, 1, 2], fs=100.0, seconds=3.0)
        with pytest.raises(ValueError, match=f"crops are {width} samples wide, but the "
                                             "model's input is 100 samples"):
            evaluate(self._const_model(n_samples=100), None, test, win_s, overlap_s)


class TestDenseEvaluate:
    # 0.6 s crops every 0.07 s at 100 Hz: 60 samples every 7, 21 crops over
    # the first 200 of 205 samples
    FS, WIN, OVERLAP, SAMPLES, COVERED, CROPS = 100.0, 0.6, 0.53, 205, 200, 21

    def _model(self):
        base = BaselineConfig(n_channels=3, n_samples=60, n_classes=4, temporal_filters=4,
                              temporal_kernel=5, pool_width=10, pool_stride=4)
        return build_scsn(ScsnConfig(base=base, n_subjects=2, target_index=0,
                                     common_fc_dims=(8, 8, 8), separate_fc_dims=(6, 6, 6)),
                          seed=4)

    def _trials(self, n):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(n, 3, self.SAMPLES)).astype(np.float32)
        return TrialSet(data, np.arange(n) % 4, "S", ["a", "b", "c"], self.FS,
                        [f"k{i}" for i in range(4)])

    def test_matches_per_crop_predictions_across_chunks(self):
        model, test = self._model(), self._trials(30)
        assert 30 * self.CROPS > models._INFER_CHUNK
        dense = _predict_crops(model, 1, test, self.WIN, self.OVERLAP)
        crops = crop_trialset(test, self.WIN, self.OVERLAP).data  # trial-major
        probs = forward_infer(model, crops, 1, crop_stride=1)  # trials of one crop each
        per_crop = probs.argmax(axis=1).reshape(30, self.CROPS)
        assert dense.shape == (30, self.CROPS)
        np.testing.assert_array_equal(dense, per_crop)
        labels = test.label
        votes = np.array([np.bincount(v, minlength=4).argmax() for v in per_crop])
        assert evaluate(model, 1, test, self.WIN, self.OVERLAP) == \
            (float(np.mean(per_crop == labels[:, None])), float(np.mean(votes == labels)))

    def test_one_temporal_conv_per_chunk_of_whole_trials(self, monkeypatch):
        shapes = []
        real_conv = ad.conv_time

        def spy(x, kernels, stride=1):
            shapes.append(np.shape(x))
            return real_conv(x, kernels, stride)

        monkeypatch.setattr(ad, "conv_time", spy)
        # a bound of 5 trials' temporal-conv output (4 filters, 3 channels)
        monkeypatch.setattr(models, "_INFER_VALUES", 5 * 4 * 3 * (self.COVERED - 5 + 1))
        assert models._INFER_CHUNK // self.CROPS == 12
        evaluate(self._model(), 0, self._trials(30), self.WIN, self.OVERLAP)
        # the head's chunks of 12, 12 and 6 trials, each cut at 5 trials
        assert shapes == [(n, 3, self.COVERED) for n in (5, 5, 2, 5, 5, 2, 5, 1)]

    def test_peak_memory_stays_flat_in_the_trial_count(self):
        # the acceptance shape: 8 channels, 256 samples, one crop per trial
        base = BaselineConfig(n_channels=8, n_samples=256, n_classes=4, temporal_filters=16)
        cfg = ScsnConfig(base=base, n_subjects=2, target_index=0,
                         common_fc_dims=(48, 48, 48), separate_fc_dims=(24, 24, 24))
        model = build_scsn(cfg, seed=6)
        rng = np.random.default_rng(7)

        def peak(n: int) -> int:
            data = rng.normal(size=(n, 8, 256)).astype(np.float32)
            test = TrialSet(data, np.arange(n) % 4, "S", [f"c{i}" for i in range(8)], 128.0,
                            [f"k{i}" for i in range(4)])
            evaluate(model, 0, test, 2.0, 1.0)  # warm
            tracemalloc.start()
            try:
                evaluate(model, 0, test, 2.0, 1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # past the shallow block only the head's values grow with the trials:
        # the pooled features, its dense layers' outputs and the logits
        head = base.feature_dim + sum(cfg.common_fc_dims) + sum(cfg.separate_fc_dims) + 4
        assert 4 * 60 <= models._INFER_CHUNK  # one head chunk either way
        assert peak(4 * 60) - peak(60) <= 3 * 60 * 8 * head


class TestSplitDecode:
    """A one-trial decode at the paper geometry cuts its conv matmuls into
    column blocks (autodiff._SPLIT); at the acceptance geometry it does not."""

    PAPER = dict(channels=22, fs=250.0, samples=1000, win=2.0, overlap=1.9,
                 base=dict(n_samples=500))
    BENCH = dict(channels=8, fs=128.0, samples=256, win=2.0, overlap=1.0,
                 base=dict(n_samples=256, temporal_filters=16))

    @staticmethod
    def _decoder(shape, n_trials):
        base = BaselineConfig(n_channels=shape["channels"], n_classes=4, **shape["base"])
        model = build_scsn(ScsnConfig(base=base, n_subjects=2, target_index=0,
                                      common_fc_dims=(8, 8, 8), separate_fc_dims=(6, 6, 6)),
                           seed=2)
        rng = np.random.default_rng(3)
        data = rng.normal(size=(n_trials, shape["channels"], shape["samples"]))
        trials = TrialSet(data.astype(np.float32), np.arange(n_trials) % 4, "S",
                          [f"c{i}" for i in range(shape["channels"])], shape["fs"],
                          [f"k{i}" for i in range(4)])
        return model, trials

    @staticmethod
    def _spy_executor(monkeypatch) -> list:
        workers = []
        real_executor = ad._executor

        def executor(n):
            workers.append(n)
            return real_executor(n)

        monkeypatch.setattr(ad, "_executor", executor)
        return workers

    @pytest.mark.parametrize("size", [1, 2])
    def test_per_trial_decisions_are_the_whole_set_ones(self, monkeypatch, size):
        workers = self._spy_executor(monkeypatch)
        monkeypatch.setattr(ad, "_pool_size", lambda: size)
        shape = self.PAPER
        model, trials = self._decoder(shape, 7)
        whole = _predict_crops(model, 0, trials, shape["win"], shape["overlap"])
        assert whole.shape == (7, 21)
        for i in range(len(trials)):
            one = trials.subset([i])
            assert (_predict_crops(model, 0, one, shape["win"], shape["overlap"])
                    == whole[i]).all()
            assert evaluate(model, 0, one, shape["win"], shape["overlap"]) == \
                (float(np.mean(whole[i] == i % 4)),
                 float(np.bincount(whole[i], minlength=4).argmax() == i % 4))
        assert set(workers) == (set() if size == 1 else {2})

    def test_acceptance_shape_decode_never_reaches_the_pool(self, monkeypatch):
        workers = self._spy_executor(monkeypatch)
        monkeypatch.setattr(ad, "_pool_size", lambda: 2)
        for shape, pooled in ((self.BENCH, []), (self.PAPER, [2, 2])):
            model, trials = self._decoder(shape, 1)
            evaluate(model, 0, trials, shape["win"], shape["overlap"])
            assert workers == pooled
            workers.clear()


class TestNonFinite:
    # training refuses non-finite training trials before its first step; the
    # two tests below switch that check off to reach the step's own check of
    # the loss, which still stops a run that diverges
    def test_nan_training_data_aborts_with_epoch_and_step(self, monkeypatch):
        monkeypatch.setattr(training, "_check_finite_training", lambda split: None)
        split = tiny_split()
        split.train["S01"].data[:, 0, 3] = np.nan
        with pytest.raises(FloatingPointError, match="epoch 1, step 1: non-finite loss"):
            train("scsn", split, tiny_cfg())

    def test_nan_training_data_aborts_scsn_mmd_before_the_mmd(self, monkeypatch):
        # the MMD refuses non-finite features with a ValueError that names no
        # step; the step checks its cross-entropy first
        monkeypatch.setattr(training, "_check_finite_training", lambda split: None)
        split = tiny_split()
        split.train["S01"].data[:, 0, 3] = np.nan
        with pytest.raises(FloatingPointError, match="epoch 1, step 1: non-finite loss"):
            train("scsn_mmd", split, tiny_cfg(lam=1.0))

    @pytest.mark.parametrize("kind, regime", [("scsn", "multi"), ("scsn_mmd", "multi"),
                                              ("baseline", "multi")])
    @pytest.mark.parametrize("subject, session, trial", [("S02", 1, 5), ("S01", 1, 7),
                                                         ("S01", 2, 3)])
    def test_a_non_finite_trial_is_named_before_the_first_step(
            self, monkeypatch, kind, regime, subject, session, trial):
        # the target's training set is its first session then the first 8
        # (calibration) trials of its second
        data = synth_multisubject(3, 2, 24, 4, 64.0, 1.0, 2, 0.5, 5.0, seed=1)
        data[int(subject[1:]) - 1].sessions[session - 1].data[trial, 2, 40] = np.inf
        split = make_splits(data, SplitSpec("S01", 8, (8, 16), (16, 24)))
        steps = []
        monkeypatch.setattr(training, "_step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=f"^subject '{subject}' session {session}: "
                                             f"trial {trial} holds non-finite samples$"):
            train(kind, split, tiny_cfg(lam=1.0), regime=regime)
        assert steps == []

    def test_non_finite_gradient_named(self):
        params = ModelParams()
        params.add("w", ad.Tensor(np.ones(2), requires_grad=True), "model")
        params["w"].grad = np.array([0.5, np.inf])
        with pytest.raises(FloatingPointError, match="epoch 2, step 7: .*'w'"):
            _check_finite(0.25, params, 2, 7)
        params["w"].grad = np.array([0.5, 1.0])
        _check_finite(0.25, params, 2, 7)


class TestComparisonReport:
    def test_reference_delta(self):
        rows = [ComparisonRow("baseline", "single", "A01", 0.820),
                ComparisonRow("baseline", "multi", "A01", 0.734)]
        table = negative_transfer_report(rows)
        assert abs(table.delta("baseline", "A01") - (-0.086)) < 1e-12

    def test_model_gap(self):
        rows = [ComparisonRow("baseline", "multi", "A01", 0.734),
                ComparisonRow("scsn", "multi", "A01", 0.818)]
        table = negative_transfer_report(rows)
        gap = table.mean("scsn", "multi") - table.mean("baseline", "multi")
        assert abs(gap - 0.084) < 1e-12

    def test_identical_regimes_zero_delta(self):
        rows = [ComparisonRow("scsn", "single", "S01", 0.7),
                ComparisonRow("scsn", "multi", "S01", 0.7)]
        assert negative_transfer_report(rows).delta("scsn", "S01") == 0.0

    def test_missing_counterpart_marked_absent(self):
        table = negative_transfer_report([ComparisonRow("scsn", "multi", "S01", 0.8)])
        assert table.delta("scsn", "S01") is None
        csv = table.to_csv_text().splitlines()
        assert csv[1] == "scsn,S01,,0.800000,"
        assert "-" in table.to_text()

    def test_mean_rows(self):
        rows = [ComparisonRow("m", "single", "a", 0.6), ComparisonRow("m", "single", "b", 0.8),
                ComparisonRow("m", "multi", "a", 0.5), ComparisonRow("m", "multi", "b", 0.7)]
        table = negative_transfer_report(rows)
        assert abs(table.mean("m", "single") - 0.7) < 1e-12
        assert abs(table.mean_delta("m") - (-0.1)) < 1e-12

    def test_duplicate_rows_rejected(self):
        rows = [ComparisonRow("m", "single", "a", 0.6), ComparisonRow("m", "single", "a", 0.7)]
        with pytest.raises(ValueError):
            negative_transfer_report(rows)


def test_report_serialization_round_readable():
    split = tiny_split(seed=8)
    cfg = tiny_cfg(max_epochs=3, patience=3)
    _, report = train("scsn_mmd", split, cfg)
    csv = report.to_csv_text().splitlines()
    assert csv[0] == "epoch,train_loss,mmd_loss,val_acc"
    assert len(csv) == report.epochs_run + 1
    first = csv[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == report.train_loss[0]
    summary = report.to_summary_text()
    assert f"best_epoch={report.best_epoch}" in summary
    assert "wall_time" not in summary


def test_summary_refuses_a_field_that_would_not_read_back():
    report = TrainReport("scsn", "multi", "S01\u2028best_epoch=9", val_accuracy=[0.5])
    with pytest.raises(ValueError, match="field 'target_subject' may not hold a line break"):
        report.to_summary_text()
