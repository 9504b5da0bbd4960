import time

import numpy as np
import pytest

from scsnet import autodiff as ad
from scsnet.datasets import SplitSpec, make_splits, synth_multisubject
from scsnet.mmd import (
    LAYER_WEIGHTS,
    bandwidth_mean_l2,
    layered_class_mmd,
    mmd2_biased,
    transfer_loss,
)
from scsnet.models import forward_train
from scsnet.training import TrainConfig, train

BENCH_SEEDS = (0, 1, 2)


def assert_rel_close(got, want, rtol=1e-12):
    """Max absolute deviation within rtol of the reference's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def frozen_bandwidth_mmd(t_feats, s_feats, t_labels, s_labels):
    """`layered_class_mmd` with each (layer, shared class) pair's bandwidth
    held at its value for these features: a function of target and source
    feature tensors built from one `mmd2_biased` node per pair. The MMD
    node's backward treats the bandwidth as a constant, so its gradient at
    these features is this function's, whose finite differences
    `grad_check` can take."""
    shared = sorted(set(t_labels.tolist()) & set(s_labels.tolist()))
    rows = [(np.flatnonzero(t_labels == c), np.flatnonzero(s_labels == c)) for c in shared]
    sigma2 = [[bandwidth_mean_l2(t.values[i], s.values[j]) for i, j in rows]
              for t, s in zip(t_feats, s_feats)]

    def mmd(t_feats, s_feats):
        return ad.add_n([ad.scale(ad.add_n([mmd2_biased(ad.take_rows(t, i),
                                                        ad.take_rows(s, j), v)
                                            for (i, j), v in zip(rows, layer)]),
                                  w / len(rows))
                         for w, t, s, layer in zip(LAYER_WEIGHTS, t_feats, s_feats, sigma2)])

    return mmd


def scsn_mmd_grad_check(model, batch, eps=1e-5):
    """`grad_check`'s error for a two-branch SCSN-MMD loss over every
    parameter: the mean cross-entropy plus the layered class MMD of branch
    1 against branch 0, lambda 1. The finite differences hold each MMD
    pair's bandwidth at its value here (`frozen_bandwidth_mmd`), and the
    gradient with the bandwidth rule must equal that loss's to 1e-12
    relative."""
    labels = (batch[0][1], batch[1][1])
    wrt = [model.params[n] for n in model.params.names()]

    def loss(mmd):
        out = forward_train(model, batch)
        ce = ad.scale(ad.add_n([ad.softmax_xent(out[i][0], batch[i][1])[0]
                                for i in range(2)]), 0.5)
        return transfer_loss(ce, [mmd(out[0][1], out[1][1])], 1.0)

    model.params.zero_grad()
    loss(lambda t, s: layered_class_mmd(t, s, *labels)).backward()
    got = np.concatenate([w.grad.ravel() for w in wrt])
    out = forward_train(model, batch)
    frozen = frozen_bandwidth_mmd(out[0][1], out[1][1], *labels)
    err = ad.grad_check(lambda: loss(frozen), wrt, eps=eps)  # leaves its gradient in wrt
    assert_rel_close(got, np.concatenate([w.grad.ravel() for w in wrt]))
    return err


# one crop per trial (window == duration) keeps the desk-scale budget small
BENCH_DATA = dict(n_subjects=5, n_sessions=2, n_trials=120, n_channels=8,
                  fs=128.0, duration_s=2.0, n_classes=4, shift_strength=0.7, snr=3.0)
BENCH_SPLIT = dict(calib_trials=40, val_range=(40, 60), test_range=(60, 120))


def bench_split(seed):
    data = synth_multisubject(seed=seed, **BENCH_DATA)
    return make_splits(data, SplitSpec(target_subject="S01", **BENCH_SPLIT))


def bench_config(seed, lam=0.0):
    return TrainConfig(batch_per_branch=30, win_s=2.0, overlap_s=1.0, seed=seed,
                       max_epochs=120, patience=15, lam=lam,
                       temporal_filters=16, temporal_kernel=25,
                       pool_width=75, pool_stride=15, dropout=0.5,
                       common_fc_dims=(48, 48, 48), separate_fc_dims=(24, 24, 24))


@pytest.fixture(scope="session")
def benchmark_runs():
    """Train the negative-transfer benchmark: three seeds of baseline
    (single + multi), SCSN, and SCSN-MMD (lam 1), plus the lam-0 twin of the
    seed-0 SCSN run. Returns ({key: TrainReport}, elapsed_seconds)."""
    reports = {}
    started = time.perf_counter()
    for seed in BENCH_SEEDS:
        split = bench_split(seed)
        for kind, regime, lam in (("baseline", "single", 0.0),
                                  ("baseline", "multi", 0.0),
                                  ("scsn", "multi", 0.0),
                                  ("scsn_mmd", "multi", 1.0)):
            _, report = train(kind, split, bench_config(seed, lam), regime=regime)
            reports[(seed, kind, regime, lam)] = report
    _, twin = train("scsn_mmd", bench_split(0), bench_config(0, 0.0))
    reports[(0, "scsn_mmd", "multi", 0.0)] = twin
    return reports, time.perf_counter() - started
