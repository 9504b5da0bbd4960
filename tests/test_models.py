import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from scsnet import autodiff as ad
from scsnet import models
from scsnet.models import (
    BaselineConfig,
    ScsnConfig,
    build_baseline,
    build_scsn,
    forward_infer,
    forward_train,
    load_checkpoint,
    save_checkpoint,
)
from tests.conftest import scsn_mmd_grad_check

TINY = BaselineConfig(n_channels=2, n_samples=20, n_classes=2,
                      temporal_filters=3, temporal_kernel=5, pool_width=4,
                      pool_stride=3, dropout=0.0)


def tiny_scsn_cfg(n_subjects=2, dropout=0.0):
    base = BaselineConfig(n_channels=2, n_samples=20, n_classes=2,
                          temporal_filters=3, temporal_kernel=5, pool_width=4,
                          pool_stride=3, dropout=dropout)
    return ScsnConfig(base=base, n_subjects=n_subjects, target_index=0,
                      common_fc_dims=(6, 6, 6), separate_fc_dims=(4, 4, 4))


class TestBaselineBuild:
    def test_reference_config_classifier_input(self):
        cfg = BaselineConfig(n_channels=22, n_samples=500, n_classes=4)
        model = build_baseline(cfg, seed=0)
        assert cfg.feature_dim == 40 * 27 == 1080
        assert model.params["classifier.weight"].shape == (4, 1080)

    def test_same_seed_identical(self):
        a = build_baseline(TINY, seed=5)
        b = build_baseline(TINY, seed=5)
        for name in a.params.names():
            np.testing.assert_array_equal(a.params[name].values, b.params[name].values)

    def test_probabilities_sum_to_one(self):
        cfg = BaselineConfig(n_channels=3, n_samples=60, n_classes=4,
                             temporal_filters=4, temporal_kernel=7, pool_width=10,
                             pool_stride=5, dropout=0.0)
        model = build_baseline(cfg, seed=1)
        probs = forward_infer(model, np.random.default_rng(0).normal(size=(5, 3, 60)),
                              crop_stride=1)
        assert probs.shape == (5, 4)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)

    def test_infeasible_pool_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "pool width 10 exceeds the temporal-conv output (6 samples)")):
            BaselineConfig(n_channels=2, n_samples=30, n_classes=2,
                           temporal_kernel=25, pool_width=10, pool_stride=2)

    def test_zero_bias_glorot_bounds(self):
        model = build_baseline(TINY, seed=2)
        np.testing.assert_array_equal(model.params["classifier.bias"].values, 0.0)
        k = model.params["temporal.kernels"].values
        bound = np.sqrt(6.0 / (TINY.temporal_kernel + TINY.temporal_filters))
        assert np.all(np.abs(k) <= bound)

    @pytest.mark.parametrize("field, value", [("pool_width", 7.5), ("temporal_filters", 2.0),
                                              ("n_classes", True), ("pool_stride", "3")])
    def test_refuses_a_non_integer_size(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            BaselineConfig(**{"n_channels": 2, "n_samples": 100, "n_classes": 2, field: value})

    def test_numpy_integer_sizes_build_and_pool(self):
        cfg = BaselineConfig(n_channels=np.int64(2), n_samples=np.int32(100), n_classes=2,
                             temporal_filters=3, pool_width=np.int64(75), pool_stride=np.int8(15))
        assert type(cfg.pool_width) is type(cfg.n_channels) is int
        model = build_baseline(cfg, seed=0)
        x = np.random.default_rng(1).normal(size=(2, 2, 100))
        assert forward_infer(model, x, crop_stride=1).shape == (2, 2)
        assert ad.conv_log_power(x, model.params["temporal.kernels"],
                                 model.params["spatial.weights"], cfg.pool_width,
                                 cfg.pool_stride).shape == (2, 3, cfg.pooled_out)


class TestScsnBuild:
    def test_parameter_groups(self):
        model = build_scsn(tiny_scsn_cfg(n_subjects=5), seed=0)
        groups = model.params.groups()
        assert set(groups) == {"shared"} | {f"subject{i}" for i in range(5)}

    def test_branches_differ(self):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        a = model.params["subject0.temporal.kernels"].values
        b = model.params["subject1.temporal.kernels"].values
        assert not np.array_equal(a, b)

    def test_total_parameter_count(self):
        cfg = tiny_scsn_cfg(n_subjects=3)
        model = build_scsn(cfg, seed=0)
        base = cfg.base
        shallow = base.temporal_filters * base.temporal_kernel \
            + base.temporal_filters * base.temporal_filters * base.n_channels
        dims = [base.feature_dim, *cfg.common_fc_dims]
        shared = sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(3))
        dims = [cfg.common_fc_dims[-1], *cfg.separate_fc_dims]
        sep = sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(3))
        classifier = base.n_classes * cfg.separate_fc_dims[-1] + base.n_classes
        expected = shared + 3 * (shallow + sep + classifier)
        assert sum(t.size for _, t in model.params.items()) == expected


    def test_empty_shared_block_rejected(self):
        with pytest.raises(ValueError, match="common_fc_dims"):
            ScsnConfig(base=TINY, n_subjects=2, target_index=0, common_fc_dims=(),
                       separate_fc_dims=(4, 4, 4))


class TestForwardTrain:
    def _batch(self, model, rng, n=4):
        cfg = model.cfg.base
        return {i: (rng.normal(size=(n, cfg.n_channels, cfg.n_samples)),
                    rng.integers(cfg.n_classes, size=n))
                for i in range(model.cfg.n_subjects)}

    def test_feature_shapes(self):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        out = forward_train(model, self._batch(model, np.random.default_rng(0)))
        for logits, feats in out.values():
            assert logits.shape == (4, 2)
            assert [f.shape[1] for f in feats] == [4, 4, 4]
            assert len(feats) == 3

    def test_dropout_needs_a_rng(self, monkeypatch):
        # numpy raised an AttributeError on None.random inside ad.dropout
        model = build_scsn(tiny_scsn_cfg(dropout=0.5), seed=0)
        calls = []
        monkeypatch.setattr(ad, "conv_log_power_branches", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^dropout 0.5 needs a dropout_rng$"):
            forward_train(model, self._batch(model, np.random.default_rng(0)))
        assert calls == []

    def test_missing_subject_rejected(self):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        batch = self._batch(model, np.random.default_rng(0))
        del batch[1]
        with pytest.raises(ValueError, match="1"):
            forward_train(model, batch)

    @pytest.mark.parametrize("width", [99, 103])
    def test_refuses_crops_of_another_width(self, width):
        base = BaselineConfig(n_channels=2, n_samples=100, n_classes=2, temporal_filters=3)
        model = build_scsn(ScsnConfig(base=base, n_subjects=2, target_index=0,
                                      common_fc_dims=(4,), separate_fc_dims=(4, 4, 4)), seed=0)
        rng = np.random.default_rng(0)
        batch = {i: (rng.normal(size=(3, 2, width)), np.zeros(3, int)) for i in range(2)}
        with pytest.raises(ValueError, match=f"crops are {width} samples wide, but the "
                                             "model's input is 100 samples"):
            forward_train(model, batch)

    def test_refuses_a_crop_that_is_not_a_batch(self):
        # one [channels, n_samples] crop is a batch of one, [1, channels, n_samples]
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        batch = self._batch(model, np.random.default_rng(0), n=1)
        batch[1] = (batch[1][0][0], batch[1][1])
        with pytest.raises(ValueError, match="got 2-d"):
            forward_train(model, batch)

    def test_thirty_per_branch_prediction_count(self):
        cfg = tiny_scsn_cfg(n_subjects=5)
        model = build_scsn(cfg, seed=0)
        out = forward_train(model, self._batch(model, np.random.default_rng(1), n=30))
        assert sum(logits.shape[0] for logits, _ in out.values()) == 150

    def test_identical_branches_identical_logits(self):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        p = model.params
        for name in p.names():
            if name.startswith("subject1."):
                src = name.replace("subject1.", "subject0.")
                p[name].values = p[src].values.copy()
        x = np.random.default_rng(2).normal(size=(3, 2, 20))
        out = forward_train(model, {0: (x, np.zeros(3, int)), 1: (x, np.zeros(3, int))})
        np.testing.assert_array_equal(out[0][0].values, out[1][0].values)

    @pytest.mark.parametrize("kind", ["baseline", "scsn"])
    def test_one_fused_call_per_step(self, monkeypatch, kind):
        calls = []
        real_fused = ad.conv_log_power_branches

        def spy(branches, pool_width, pool_stride):
            calls.append(([(np.shape(x), kernels.shape, weights.shape, crops)
                           for x, kernels, weights, crops in branches], pool_width, pool_stride))
            return real_fused(branches, pool_width, pool_stride)

        def other_op(*args, **kwargs):
            raise AssertionError("training ran a per-branch op or an op of the five-op chain")

        monkeypatch.setattr(ad, "conv_log_power_branches", spy)
        for name in ("conv_log_power", "conv_time", "conv_space", "square", "mean_pool",
                     "log_clipped"):
            monkeypatch.setattr(ad, name, other_op)
        if kind == "baseline":  # the one branch 0
            model, n = build_baseline(TINY, seed=0), 1
        else:
            model, n = build_scsn(tiny_scsn_cfg(n_subjects=3), seed=0), 3
        rng = np.random.default_rng(3)
        forward_train(model, {i: (rng.normal(size=(4, 2, 20)), rng.integers(2, size=4))
                              for i in range(n)})
        assert calls == [([((4, 2, 20), (3, 5), (3, 3, 2), None)] * n, 4, 3)]


class TestForwardInfer:
    def test_zero_classifier_uniform(self):
        cfg = BaselineConfig(n_channels=2, n_samples=40, n_classes=4,
                             temporal_filters=3, temporal_kernel=5, pool_width=6,
                             pool_stride=4, dropout=0.0)
        model = build_baseline(cfg, seed=0)
        model.params["classifier.weight"].values[:] = 0.0
        probs = forward_infer(model, np.random.default_rng(0).normal(size=(6, 2, 40)),
                              crop_stride=1)
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_deterministic(self):
        model = build_scsn(tiny_scsn_cfg(), seed=3)
        x = np.random.default_rng(4).normal(size=(5, 2, 20))
        np.testing.assert_array_equal(forward_infer(model, x, 1, crop_stride=1),
                                      forward_infer(model, x, 1, crop_stride=1))

    def test_matches_training_mode_without_dropout(self):
        model = build_scsn(tiny_scsn_cfg(dropout=0.0), seed=5)
        x = np.random.default_rng(6).normal(size=(4, 2, 20))
        out = forward_train(model, {0: (x, np.zeros(4, int)), 1: (x, np.zeros(4, int))},
                            dropout_rng=np.random.default_rng(0))
        for branch, (logits, _) in out.items():
            shifted = logits.values - logits.values.max(axis=1, keepdims=True)
            expected = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            got = forward_infer(model, x, branch, crop_stride=1)
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_branch_out_of_range(self):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        with pytest.raises(ValueError):
            forward_infer(model, np.zeros((1, 2, 20)), 7, crop_stride=1)

    @pytest.mark.parametrize("branch", [True, np.bool_(True), 1.0, "1"],
                             ids=["bool", "numpy-bool", "float", "str"])
    def test_refuses_a_non_integer_branch(self, branch):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        x = np.random.default_rng(1).normal(size=(2, 2, 20))
        message = f"branch must be an integer, got {re.escape(repr(branch))}"
        with pytest.raises(TypeError, match=message):
            forward_infer(model, x, branch, crop_stride=1)
        np.testing.assert_array_equal(forward_infer(model, x, np.int64(1), crop_stride=1),
                                      forward_infer(model, x, 1, crop_stride=1))

    def test_crop_stride_is_required(self):
        model = build_baseline(TINY, seed=0)
        with pytest.raises(TypeError, match="crop_stride"):
            forward_infer(model, np.zeros((2, TINY.n_channels, TINY.n_samples)))

    @pytest.mark.parametrize("stride", [0, -5, 2.0, True, "7"],
                             ids=["zero", "negative", "float", "bool", "str"])
    def test_refuses_a_crop_stride_that_is_not_a_positive_integer(self, stride):
        model = build_baseline(TINY, seed=0)
        trials = np.zeros((2, TINY.n_channels, 36))
        with pytest.raises((TypeError, ValueError), match="^crop_stride must be"):
            forward_infer(model, trials, crop_stride=stride)

    @pytest.mark.parametrize("form, shape, bad, message", [
        # trials of one crop; trial 270 is in the second head chunk
        ("crops", (300, 2, 20), (270, 1, 4), "trial 270"),
        ("trials", (5, 2, 40), (3, 0, 39), "trial 3"),
    ])
    def test_refuses_non_finite_samples_naming_the_row(self, form, shape, bad, message):
        model = build_scsn(tiny_scsn_cfg(), seed=0)
        x = np.random.default_rng(2).normal(size=shape)
        stride = 4 if form == "trials" else 1
        for value in (np.nan, np.inf):
            x[bad] = value
            with pytest.raises(ValueError, match=f"^{message} holds non-finite samples$"):
                forward_infer(model, x, 1, crop_stride=stride)


class TestIsolation:
    def test_other_branch_mutation_is_invisible(self):
        model = build_scsn(tiny_scsn_cfg(n_subjects=3), seed=7)
        x = np.random.default_rng(8).normal(size=(4, 2, 20))
        before = forward_infer(model, x, 0, crop_stride=1)
        for name in model.params.names():
            if name.startswith(("subject1.", "subject2.")):
                model.params[name].values += 13.37
        after = forward_infer(model, x, 0, crop_stride=1)
        np.testing.assert_array_equal(before, after)

    def test_gradient_isolation(self):
        model = build_scsn(tiny_scsn_cfg(n_subjects=3), seed=9)
        rng = np.random.default_rng(10)
        batch = {i: (rng.normal(size=(3, 2, 20)), rng.integers(2, size=3)) for i in range(3)}
        out = forward_train(model, batch)
        loss, _ = ad.softmax_xent(out[1][0], batch[1][1])
        loss.backward()
        for name, tensor in model.params.items():
            group = model.params.group_of(name)
            if group in ("subject0", "subject2"):
                assert tensor.grad is None, name
            if group == "shared":
                assert tensor.grad is not None, name


def test_end_to_end_gradient_check_tiny_scsn():
    base = BaselineConfig(n_channels=2, n_samples=12, n_classes=2,
                          temporal_filters=2, temporal_kernel=3, pool_width=3,
                          pool_stride=2, dropout=0.0)
    cfg = ScsnConfig(base=base, n_subjects=2, target_index=0,
                     common_fc_dims=(3, 3, 3), separate_fc_dims=(2, 2, 2))
    model = build_scsn(cfg, seed=11)
    rng = np.random.default_rng(12)
    batch = {i: (rng.normal(size=(3, 2, 12)), np.array([0, 1, 0])) for i in range(2)}
    assert scsn_mmd_grad_check(model, batch) < 1e-4


def crops_of(trials, width, stride):
    """Every crop of every trial, trial-major, as a contiguous crop array."""
    crops = sliding_window_view(trials, width, axis=-1)[..., ::stride, :]
    return np.ascontiguousarray(np.moveaxis(crops, 2, 1)).reshape(-1, trials.shape[1], width)


# (name, crop width, crop stride, trial samples, pool width, pool stride)
DENSE_GEOMETRIES = [
    ("gcd5-paper-like", 100, 5, 200, 15, 15),
    ("coprime-gcd1", 60, 7, 200, 10, 4),
    ("single-crop", 60, 7, 60, 10, 4),
    ("longer-than-covered", 60, 10, 217, 10, 4),
    ("crop-stride-multiple-of-pool", 60, 8, 140, 10, 4),
]


class TestDenseCropInference:
    @pytest.mark.parametrize("kind", ["baseline", "scsn"])
    @pytest.mark.parametrize("geometry", DENSE_GEOMETRIES, ids=[g[0] for g in DENSE_GEOMETRIES])
    def test_matches_per_crop_probabilities(self, kind, geometry):
        _, width, stride, samples, pool_width, pool_stride = geometry
        base = BaselineConfig(n_channels=3, n_samples=width, n_classes=4, temporal_filters=4,
                              temporal_kernel=5, pool_width=pool_width,
                              pool_stride=pool_stride, dropout=0.5)
        if kind == "baseline":
            model, branch = build_baseline(base, seed=21), None
        else:
            model = build_scsn(ScsnConfig(base=base, n_subjects=3, target_index=1,
                                          common_fc_dims=(8, 8, 8),
                                          separate_fc_dims=(6, 6, 6)), seed=21)
            branch = 2
        trials = np.random.default_rng(22).normal(size=(3, 3, samples))
        dense = forward_infer(model, trials, branch, crop_stride=stride)
        crops = forward_infer(model, crops_of(trials, width, stride), branch, crop_stride=1)
        assert dense.shape == crops.shape == (3 * ((samples - width) // stride + 1), 4)
        np.testing.assert_allclose(dense, crops, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(dense.argmax(axis=1), crops.argmax(axis=1))

    def test_single_crop_runs_the_per_crop_ops(self, monkeypatch):
        model = build_baseline(TINY, seed=23)
        pools = []
        real_pool = ad.mean_pool

        def spy(x, width, stride):
            pools.append((width, stride))
            return real_pool(x, width, stride)

        monkeypatch.setattr(ad, "mean_pool", spy)
        trials = np.random.default_rng(24).normal(size=(2, 2, TINY.n_samples + 2))
        forward_infer(model, trials, crop_stride=3)
        assert pools == [(TINY.pool_width, TINY.pool_stride)]

    def test_whole_trial_input_must_be_batched(self):
        model = build_baseline(TINY, seed=25)
        with pytest.raises(ValueError, match="trials"):
            forward_infer(model, np.zeros((2, 40)), crop_stride=5)


class TestInferenceChunks:
    """The head takes chunks of whole trials of at most
    models._INFER_CHUNK crops, at least one trial each. The shallow block
    runs over chunks of those whose temporal-conv output stays within
    models._INFER_VALUES, at least one trial each; the probabilities do not
    depend on that chunk size."""

    BASE = BaselineConfig(n_channels=3, n_samples=60, n_classes=4, temporal_filters=4,
                          temporal_kernel=5, pool_width=10, pool_stride=4)

    @pytest.mark.parametrize("kind", ["baseline", "scsn"])
    @pytest.mark.parametrize("form", ["crops", "trials"])
    def test_bit_identical_at_any_bound(self, monkeypatch, kind, form):
        if kind == "baseline":
            model, branch = build_baseline(self.BASE, seed=26), None
        else:
            model = build_scsn(ScsnConfig(base=self.BASE, n_subjects=2, target_index=0,
                                          common_fc_dims=(8, 8, 8),
                                          separate_fc_dims=(6, 6, 6)), seed=26)
            branch = 1
        # 7 trials of 200 samples hold 21 crops each, 60 wide, one every 7;
        # the crops form is 7 trials of one crop
        samples, stride = (200, 7) if form == "trials" else (60, 1)
        x = np.random.default_rng(27).normal(size=(7, 3, samples)).astype(np.float32)
        per_trial = 4 * 3 * (samples - 5 + 1)
        assert 7 * per_trial <= models._INFER_VALUES  # one chunk at the default bound
        whole = forward_infer(model, x, branch, crop_stride=stride)

        chunks = []
        real_conv = ad.conv_time

        def spy(x, kernels, stride=1):
            chunks.append(len(x))
            return real_conv(x, kernels, stride)

        monkeypatch.setattr(ad, "conv_time", spy)
        for bound, sizes in ((1, [1] * 7), (3 * per_trial, [3, 3, 1])):
            monkeypatch.setattr(models, "_INFER_VALUES", bound)
            chunks.clear()
            np.testing.assert_array_equal(forward_infer(model, x, branch, crop_stride=stride),
                                          whole)
            assert chunks == sizes

    @pytest.mark.parametrize("kind", ["baseline", "scsn"])
    @pytest.mark.parametrize("shape, stride, per, sizes", [
        # 600 trials of one crop
        pytest.param((600, 3, 60), 1, 256, [256, 256, 88], id="crops"),
        # 21 crops a trial: 12 trials a chunk
        pytest.param((30, 3, 200), 7, 12, [252, 252, 126], id="trials"),
        # 300 crops a trial: one trial a chunk
        pytest.param((2, 3, 359), 1, 1, [300, 300], id="long-trials"),
    ])
    def test_head_takes_at_most_a_chunk_of_crops(self, monkeypatch, kind, shape, stride,
                                                  per, sizes):
        if kind == "baseline":
            model, branch = build_baseline(self.BASE, seed=28), None
        else:
            model = build_scsn(ScsnConfig(base=self.BASE, n_subjects=2, target_index=0,
                                          common_fc_dims=(8, 8, 8),
                                          separate_fc_dims=(6, 6, 6)), seed=28)
            branch = 1
        x = np.random.default_rng(29).normal(size=shape).astype(np.float32)
        heads = []
        real_head = model._head

        def spy(h, b):
            heads.append(len(h.values))
            return real_head(h, b)

        monkeypatch.setattr(model, "_head", spy)
        whole = forward_infer(model, x, branch, crop_stride=stride)
        assert heads == sizes and len(whole) == sum(sizes)
        assert max(sizes) <= models._INFER_CHUNK or per == 1
        # more than _INFER_CHUNK crops are the per-chunk calls' rows, bit for bit
        parts = [forward_infer(model, x[lo:lo + per], branch, crop_stride=stride)
                 for lo in range(0, len(x), per)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()


class TestCheckpoint:
    def test_baseline_round_trip(self, tmp_path):
        model = build_baseline(TINY, seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, meta={"note": "hello"})
        back, meta = load_checkpoint(path)
        assert meta == {"note": "hello"}
        assert back.cfg == model.cfg
        for name in model.params.names():
            np.testing.assert_array_equal(back.params[name].values,
                                          model.params[name].values)

    @pytest.mark.parametrize("key", ["", "a=b"])
    def test_refuses_a_meta_key_that_would_not_round_trip(self, tmp_path, key):
        # "meta.a=b=c" would load back as {"a": "b=c"}
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=f"meta key {key!r}"):
            save_checkpoint(build_baseline(TINY, seed=13), path, meta={key: "c"})
        assert not path.exists()

    @pytest.mark.parametrize("meta", [{"note": "a\rx=y"}, {"note\u2029x": "y"}])
    def test_refuses_a_meta_entry_that_would_not_read_back(self, tmp_path, meta):
        # {"note": "a\rx=y"} loaded back as {"note": "a"}
        path = tmp_path / "model.ckpt"
        name = re.escape(repr(f"meta.{next(iter(meta))}"))
        with pytest.raises(ValueError, match=f"field {name} may not hold a line break"):
            save_checkpoint(build_baseline(TINY, seed=13), path, meta=meta)
        assert not path.exists()

    def test_header_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_baseline(TINY, seed=13), path, meta={"note": "a"})
        path.write_bytes(path.read_bytes().replace(b"meta.note=a", b"meta.note=\xff"))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: header is not valid UTF-8"):
            load_checkpoint(path)

    def test_scsn_round_trip_bit_exact(self, tmp_path):
        # every config field away from its default and from the tiny config
        odd = ScsnConfig(base=BaselineConfig(n_channels=3, n_samples=24, n_classes=3,
                                             temporal_filters=2, temporal_kernel=6,
                                             pool_width=5, pool_stride=2, dropout=0.25),
                         n_subjects=3, target_index=2, common_fc_dims=(5, 7),
                         separate_fc_dims=(4, 3, 2))
        for cfg in (tiny_scsn_cfg(n_subjects=3), odd):
            model = build_scsn(cfg, seed=14)
            path = tmp_path / "model.ckpt"
            save_checkpoint(model, path, meta={"subjects": "S01,S02,S03", "target": "S02"})
            back, meta = load_checkpoint(path)
            assert meta["subjects"] == "S01,S02,S03"
            assert back.cfg == model.cfg
            for name in model.params.names():
                assert back.params[name].values.tobytes() == model.params[name].values.tobytes()
            x = np.random.default_rng(15).normal(size=(2, cfg.base.n_channels, cfg.base.n_samples))
            np.testing.assert_array_equal(forward_infer(back, x, 1, crop_stride=1),
                                          forward_infer(model, x, 1, crop_stride=1))

    def test_truncated_rejected(self, tmp_path):
        model = build_baseline(TINY, seed=16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @staticmethod
    def _blocks(model, blob):
        """The header and the parameter blocks of a saved checkpoint."""
        offset = blob.index(b"\n\n") + 2
        header, blocks = blob[:offset], []
        for _, tensor in model.params.items():
            end = blob.index(b"\n", offset) + 1 + 8 * tensor.size
            blocks.append(blob[offset:end])
            offset = end
        assert offset == len(blob)
        return header, blocks

    def test_blocks_follow_the_header_in_parameter_order(self, tmp_path):
        model = build_scsn(tiny_scsn_cfg(), seed=20)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        _, blocks = self._blocks(model, path.read_bytes())
        for (name, tensor), block in zip(model.params.items(), blocks, strict=True):
            shape = ",".join(str(d) for d in tensor.shape)
            line = f"param={name} shape={shape} group={model.params.group_of(name)}\n"
            assert block == line.encode() + tensor.values.astype("<f8").tobytes()

    @pytest.mark.parametrize("layout", ["another_group", "extra_key", "swapped_blocks",
                                        "trailing_bytes"])
    def test_refuses_a_layout_save_never_writes(self, tmp_path, layout):
        # the first three loaded silently while blocks were matched by name
        model = build_scsn(tiny_scsn_cfg(), seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, blocks = self._blocks(model, path.read_bytes())
        first = model.params.names()[0]
        assert blocks[0].startswith(f"param={first} shape=6,15 group=shared\n".encode())
        where = f"expected 'param={first} shape=6,15 group=shared' at byte {len(header)}"
        if layout == "another_group":
            blocks[0] = blocks[0].replace(b"group=shared", b"group=subject0", 1)
        elif layout == "extra_key":
            blocks[0] = blocks[0].replace(b"group=shared\n", b"group=shared dtype=f8\n", 1)
        elif layout == "swapped_blocks":
            # subject0's and subject1's blocks, of equal shapes, trade places
            half = (len(blocks) - 6) // 2
            blocks[6:] = blocks[6 + half:] + blocks[6:6 + half]
            at = len(header) + sum(len(b) for b in blocks[:6])
            where = ("expected 'param=subject0.temporal.kernels shape=3,5 group=subject0' "
                     f"at byte {at}")
        else:
            blocks.append(b"\0" * 8)
            where = f"bytes follow the last parameter block at byte {len(path.read_bytes())}"
        path.write_bytes(header + b"".join(blocks))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {where}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, message", [
        (b"checkpoint_version=1", b"checkpoint_version=2", "unsupported checkpoint_version '2'"),
        (b"\ntemporal_kernel=5", b"", "field temporal_kernel is missing"),
        (b"kind=baseline", b"kind=cnn", "unknown model kind 'cnn'"),
    ], ids=["version", "missing_field", "kind"])
    def test_header_refusals_name_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_baseline(TINY, seed=22), path)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, message", [
        (b"\ntemporal_filters=3\n", b"\ntemporal_filters=0\n",
         "temporal_filters must be positive"),
        (b"\ndropout=0.0\n", b"\ndropout=nan\n", "dropout must lie in [0, 1)"),
        (b"\npool_width=4\n", b"\npool_width=17\n",
         "pool width 17 exceeds the temporal-conv output (16 samples)"),
        (b"\ntarget_index=0\n", b"\ntarget_index=2\n", "target_index out of range"),
    ], ids=["temporal_filters", "dropout", "pool_width", "target_index"])
    def test_config_refusals_name_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_scsn(tiny_scsn_cfg(), seed=22), path)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", ["duplicate_block", "trailing_line", "header_value",
                                         "header_repeat"])
    def test_malformed_blocks_rejected(self, tmp_path, corrupt):
        model = build_baseline(TINY, seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        if corrupt == "duplicate_block":
            # the last block written again in place of the first: the block
            # count still matches param_count
            header, blocks = self._blocks(model, blob)
            blob = header + b"".join([blocks[-1]] + blocks[1:])
        elif corrupt == "header_value":
            blob = blob.replace(b"\ntemporal_filters=", b"\ntemporal_filters=x", 1)
        elif corrupt == "header_repeat":
            blob = blob.replace(b"\ntemporal_filters=", b"\ntemporal_filters=9\ntemporal_filters=",
                                1)
        else:
            blob += b"a=b\n"
        path.write_bytes(blob)
        match = {"header_value": "temporal_filters='x",
                 "header_repeat": "field temporal_filters is given twice"}.get(corrupt)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        model = build_baseline(TINY, seed=18)
        model.params["temporal.kernels"].values[1, 2] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match="temporal.kernels"):
            load_checkpoint(path)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_strict_prefix_rejected(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("prefix") / "model.ckpt"
        save_checkpoint(build_scsn(tiny_scsn_cfg(), seed=19), path, meta={"target": "S01"})
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(path)
