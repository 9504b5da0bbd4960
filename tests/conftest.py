import time

import numpy as np
import pytest

from scsnet.datasets import SplitSpec, make_splits, synth_multisubject
from scsnet.training import TrainConfig, train

BENCH_SEEDS = (0, 1, 2)


def assert_rel_close(got, want, rtol=1e-12):
    """Max absolute deviation within rtol of the reference's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


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
