"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The negative-transfer benchmark (criteria 7 and 8) trains
13 models and dominates the runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from scsnet import autodiff as ad
from scsnet.cli import main as cli_main
from scsnet.datasets import Epoch, SplitSpec, SubjectDataset, TrialSet, make_splits
from scsnet.mmd import bandwidth_mean_l2, layered_class_mmd, mmd2_biased
from scsnet.models import BaselineConfig, ScsnConfig, build_scsn, forward_infer
from scsnet.preprocessing import bandpass_filter, crop_trials, notch_filter
from tests.conftest import BENCH_SEEDS, scsn_mmd_grad_check


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# ---------------------------------------------------------------------------


def _layer_op_cases(rng):
    """(name, loss_builder, wrt) factories over fresh random instances."""
    x2 = rng.normal(size=(1, 2, 12))  # data: conv_time has no input gradient
    k = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    yield "conv_time", (lambda: ad.tsum(ad.square(ad.conv_time(x2, k, 2)))), [k]

    x3 = ad.Tensor(rng.normal(size=(1, 3, 2, 5)), requires_grad=True)
    w3 = ad.Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    yield "conv_space", (lambda: ad.tsum(ad.square(ad.conv_space(x3, w3)))), [x3, w3]

    xp = ad.Tensor(rng.normal(size=(1, 2, 9)), requires_grad=True)
    yield "mean_pool", (lambda: ad.tsum(ad.square(ad.mean_pool(xp, 3, 2)))), [xp]

    xd = ad.Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    wd = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    bd = ad.Tensor(rng.normal(size=3), requires_grad=True)
    yield "dense", (lambda: ad.tsum(ad.square(ad.dense(xd, wd, bd)))), [xd, wd, bd]

    xs = ad.Tensor(rng.normal(size=4), requires_grad=True)
    yield "square", (lambda: ad.tsum(ad.square(xs))), [xs]

    xl = ad.Tensor(rng.uniform(0.1, 2.0, size=4), requires_grad=True)
    yield "log", (lambda: ad.tsum(ad.log_clipped(xl))), [xl]

    xt = ad.Tensor(rng.normal(size=4), requires_grad=True)
    yield "tanh", (lambda: ad.tsum(ad.tanh(xt))), [xt]

    xdr = ad.Tensor(rng.normal(size=6), requires_grad=True)
    mask_seed = int(rng.integers(1 << 31))
    yield "dropout", (lambda: ad.tsum(ad.square(
        ad.dropout(xdr, 0.5, np.random.default_rng(mask_seed))))), [xdr]

    xe = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    labels = rng.integers(4, size=3)
    yield "softmax_xent", (lambda: ad.softmax_xent(xe, labels)[0]), [xe]


def _scsn_mmd_loss_case(seed):
    base = BaselineConfig(n_channels=2, n_samples=12, n_classes=2,
                          temporal_filters=2, temporal_kernel=3, pool_width=3,
                          pool_stride=2, dropout=0.0)
    cfg = ScsnConfig(base=base, n_subjects=2, target_index=0,
                     common_fc_dims=(3, 3, 3), separate_fc_dims=(2, 2, 2))
    model = build_scsn(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    batch = {i: (rng.normal(size=(3, 2, 12)), np.array([0, 1, 0])) for i in range(2)}
    return model, batch


def test_criterion_1_gradient_suite():
    with criterion(1, "layer ops and the full SCSN-MMD loss pass finite-difference "
                      "gradient checks (rel err < 1e-4, eps 1e-5, >= 20 instances)"):
        started = time.perf_counter()
        worst = {}
        for instance in range(20):
            rng = np.random.default_rng(instance)
            for name, loss, wrt in _layer_op_cases(rng):
                err = ad.grad_check(loss, wrt, eps=1e-5)
                worst[name] = max(worst.get(name, 0.0), err)
            worst["scsn_mmd_loss"] = max(worst.get("scsn_mmd_loss", 0.0),
                                         scsn_mmd_grad_check(*_scsn_mmd_loss_case(instance)))
        elapsed = time.perf_counter() - started
        assert all(err < 1e-4 for err in worst.values()), worst
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_mmd_oracle_suite():
    def naive_mmd2(x, y, sigma2):
        k = lambda a, b: math.exp(-float(np.sum((a - b) ** 2)) / (2.0 * sigma2))
        m, n = len(x), len(y)
        return (sum(k(a, b) for a in x for b in x) / m ** 2
                + sum(k(a, b) for a in y for b in y) / n ** 2
                - 2.0 * sum(k(a, b) for a in x for b in y) / (m * n))

    with criterion(2, "mmd2_biased matches the naive oracle on 50 pairs within 1e-12; "
                      "self-distance, symmetry, and the closed form hold"):
        started = time.perf_counter()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=(rng.integers(2, 9), 3))
            y = rng.normal(size=(rng.integers(2, 9), 3)) + rng.normal()
            sigma2 = bandwidth_mean_l2(x, y)
            assert abs(mmd2_biased(x, y).item() - naive_mmd2(x, y, sigma2)) < 1e-12
            assert abs(mmd2_biased(x, y).item() - mmd2_biased(y, x).item()) <= 1e-12
            assert mmd2_biased(x, x.copy()).item() <= 1e-12
        got = mmd2_biased(np.array([[0.0, 0.0]]), np.array([[0.0, 2.0]])).item()
        assert abs(got - (2.0 - 2.0 * math.exp(-1.0))) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"MMD oracle suite took {elapsed:.1f}s"


def test_criterion_3_layer_weighting():
    with criterion(3, "layered_class_mmd with equal per-layer values m returns m "
                      "(weights 1/6 + 1/3 + 1/2 = 1) within 1e-12"):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(6, 4))
            y = rng.normal(size=(6, 4)) + rng.normal()
            labels = np.array([0, 0, 1, 1, 2, 2])
            per_layer = layered_class_mmd([x, x, x], [y, y, y], labels, labels.copy()).item()
            shared_value = np.mean([
                mmd2_biased(x[labels == c], y[labels == c]).item() for c in (0, 1, 2)])
            assert abs(per_layer - shared_value) < 1e-12


def _sessions(subject, sizes):
    sessions = [TrialSet(np.zeros((size, 1, 4), dtype=np.float32), np.arange(size) % 2,
                         subject, ["c0"], 100.0, ["a", "b"]) for size in sizes]
    return SubjectDataset(subject, sessions)


def test_criterion_4_split_exactness():
    with criterion(4, "competition-shaped split gives 1560/24/144 and the "
                      "online-shaped split gives 1900/60/140, exactly"):
        competition = [_sessions(f"A{i}", [288, 288]) for i in range(5)]
        split = make_splits(competition, SplitSpec("A0", 120, (120, 144), (144, 288)))
        assert (sum(len(ts) for ts in split.train.values()), len(split.val),
                len(split.test)) == (1560, 24, 144)

        online = [_sessions(f"P{i}", [300]) for i in range(5)] + [_sessions("pilot", [300, 300])]
        split = make_splits(online, SplitSpec("pilot", 100, (100, 160), (160, 300)))
        assert (sum(len(ts) for ts in split.train.values()), len(split.val),
                len(split.test)) == (1900, 60, 140)


def test_criterion_5_crop_arithmetic():
    with criterion(5, "2 s window / 1.9 s overlap at 250 Hz yields exactly 21 crops "
                      "from 4 s trials and 31 from 5 s trials"):
        four = Epoch(np.zeros((2, 1000), dtype=np.float32), 0, "S", 250.0)
        five = Epoch(np.zeros((2, 1250), dtype=np.float32), 0, "S", 250.0)
        assert len(crop_trials(four, 2.0, 1.9)) == 21
        assert len(crop_trials(five, 2.0, 1.9)) == 31


def test_criterion_6_filter_suite():
    with criterion(6, "notch drops a 50 Hz tone by >= 20 dB, a 10 Hz tone passes both "
                      "filters within 1 dB, and both filters are linear within 1e-9"):
        started = time.perf_counter()
        fs = 250.0
        t = np.arange(1000) / fs
        mid = slice(250, 750)
        rms = lambda s: np.sqrt(np.mean(s[..., mid] ** 2))

        tone50 = np.sin(2 * np.pi * 50.0 * t)[None]
        assert 20 * np.log10(rms(tone50) / rms(notch_filter(tone50, 50.0, fs))) >= 20.0

        tone10 = np.sin(2 * np.pi * 10.0 * t)[None]
        for out in (notch_filter(tone10, 50.0, fs), bandpass_filter(tone10, 1.0, 100.0, fs)):
            assert abs(20 * np.log10(rms(out) / rms(tone10))) <= 1.0

        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 1000)), rng.normal(size=(2, 1000))
        for filt in (lambda s: notch_filter(s, 50.0, fs),
                     lambda s: bandpass_filter(s, 1.0, 100.0, fs)):
            lhs = filt(3.0 * x - 0.5 * y)
            rhs = 3.0 * filt(x) - 0.5 * filt(y)
            assert np.max(np.abs(lhs - rhs)) < 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"filter suite took {elapsed:.1f}s"


def test_criterion_7_negative_transfer_trend(benchmark_runs):
    reports, elapsed = benchmark_runs
    with criterion(7, "on the synthetic benchmark the multi-subject baseline trails the "
                      "single-subject baseline by >= 3 points and SCSN recovers >= 3 "
                      "points over the multi-subject baseline (mean of 3 seeds)"):
        def mean_acc(kind, regime, lam):
            return float(np.mean([reports[(s, kind, regime, lam)].test_trial_accuracy
                                  for s in BENCH_SEEDS]))

        single = mean_acc("baseline", "single", 0.0)
        multi = mean_acc("baseline", "multi", 0.0)
        scsn = mean_acc("scsn", "multi", 0.0)
        print(f"\n  baseline-single={single:.3f} baseline-multi={multi:.3f} "
              f"scsn-multi={scsn:.3f} (runtime {elapsed:.0f}s)")
        assert single - multi >= 0.03, f"negative transfer gap {single - multi:.3f} < 0.03"
        assert scsn - multi >= 0.03, f"recovery gap {scsn - multi:.3f} < 0.03"
        assert elapsed < 1800.0, f"benchmark took {elapsed:.0f}s, budget is 30 min"


def test_criterion_8_scsn_mmd_consistency(benchmark_runs):
    reports, _ = benchmark_runs
    with criterion(8, "lam=0 SCSN-MMD reproduces the SCSN trajectory exactly; with lam=1 "
                      "the logged MMD is nonnegative and falls from epoch 1 to the best "
                      "epoch in >= 2 of 3 seeds"):
        plain = reports[(0, "scsn", "multi", 0.0)]
        twin = reports[(0, "scsn_mmd", "multi", 0.0)]
        assert twin.train_loss == plain.train_loss
        assert twin.train_mmd_loss == plain.train_mmd_loss
        assert twin.val_accuracy == plain.val_accuracy
        assert twin.test_crop_accuracy == plain.test_crop_accuracy

        falling = 0
        for seed in BENCH_SEEDS:
            run = reports[(seed, "scsn_mmd", "multi", 1.0)]
            assert all(v >= -1e-12 for v in run.train_mmd_loss)
            if run.best_epoch > 1 and \
                    run.train_mmd_loss[run.best_epoch - 1] < run.train_mmd_loss[0]:
                falling += 1
        assert falling >= 2, f"MMD fell in only {falling} of 3 seeds"


def test_criterion_9_target_branch_isolation():
    with criterion(9, "mutating non-target branch parameters leaves target-branch "
                      "inference bit-identical"):
        base = BaselineConfig(n_channels=3, n_samples=40, n_classes=3,
                              temporal_filters=4, temporal_kernel=7, pool_width=8,
                              pool_stride=5, dropout=0.5)
        cfg = ScsnConfig(base=base, n_subjects=4, target_index=1,
                         common_fc_dims=(8, 8, 8), separate_fc_dims=(5, 5, 5))
        model = build_scsn(cfg, seed=3)
        # whole trials of 60 samples, each holding five 40-sample crops, one every 5
        trials = np.random.default_rng(4).normal(size=(6, 3, 60))
        before = forward_infer(model, trials, branch=1, crop_stride=5)
        assert before.shape == (6 * 5, 3)
        rng = np.random.default_rng(5)
        for name in model.params.names():
            group = model.params.group_of(name)
            if group.startswith("subject") and group != "subject1":
                model.params[name].values += rng.normal(size=model.params[name].shape)
        after = forward_infer(model, trials, branch=1, crop_stride=5)
        assert np.array_equal(before, after)


def test_criterion_10_cli_reproducibility(tmp_path):
    with criterion(10, "rerunning CLI commands from their manifests reproduces "
                       "byte-identical outputs"):
        data = tmp_path / "data"
        synth = ["synth", "--subjects", "2", "--sessions", "2", "--trials", "12",
                 "--channels", "3", "--fs", "32", "--duration", "1.0", "--classes", "2",
                 "--shift", "0.6", "--snr", "5", "--seed", "21", "--out", str(data)]
        assert cli_main(synth) == 0

        run = tmp_path / "run"
        assert cli_main(["train", "--data", str(data), "--model", "scsn-mmd",
                         "--lambda", "0.5", "--target", "S01", "--calib", "4",
                         "--val", "4:8", "--test", "8:12", "--win", "1.0",
                         "--overlap", "0.5", "--batch", "4", "--epochs", "3",
                         "--patience", "3", "--temporal-filters", "2",
                         "--temporal-kernel", "5", "--pool-width", "4",
                         "--pool-stride", "3", "--common-dims", "4,4,4",
                         "--separate-dims", "3,3,3", "--seed", "2",
                         "--out", str(run)]) == 0

        for source, names in ((data, ["S01_s1.tsc", "S01_s2.tsc", "S02_s1.tsc",
                                      "S02_s2.tsc"]),
                              (run, ["model.ckpt", "report.csv", "summary.txt"])):
            fresh = tmp_path / f"fresh_{source.name}"
            assert cli_main(["rerun", str(source / "manifest.txt"),
                             "--out", str(fresh)]) == 0
            for name in names:
                assert (source / name).read_bytes() == (fresh / name).read_bytes(), name
