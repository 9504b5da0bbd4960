"""Isolated per-op timings at the bench and paper shapes.

Reproduces the layer table of the ROADMAP "Baseline measurements": conv_time
(backward with respect to the kernels only, as the model's input needs no
gradient), conv_space, and square+pool+log forward with the pool backward,
each for one branch of 30 crops, plus one full 5-branch SCSN-MMD step
(forward, loss with lam=1, backward, Adam). Each figure is the median of a
few repeats after one warm-up call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import scsnet
from scsnet import autodiff as ad

KERNEL, POOL_WIDTH, POOL_STRIDE = 25, 75, 15
SHAPES = {
    "full": {
        "bench": dict(batch=30, channels=8, samples=256, filters=16,
                      common=(48, 48, 48), separate=(24, 24, 24), repeats=7, step_repeats=3),
        "paper": dict(batch=30, channels=22, samples=500, filters=40,
                      common=(128, 128, 128), separate=(64, 64, 64), repeats=3, step_repeats=2),
    },
    "tiny": {
        name: dict(batch=4, channels=3, samples=100, filters=2, common=(4, 4, 4),
                   separate=(3, 3, 3), repeats=1, step_repeats=1)
        for name in ("bench", "paper")
    },
}
SUBJECTS, CLASSES = 5, 4


def _median_ms(fn, repeats: int, warmup: bool = True) -> float:
    if warmup:
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _layer_ops(shape: dict, rng: np.random.Generator) -> dict[str, float]:
    b, c, t, f = shape["batch"], shape["channels"], shape["samples"], shape["filters"]
    reps = shape["repeats"]
    x = rng.normal(size=(b, c, t))
    kern = ad.Tensor(rng.normal(size=(f, KERNEL)) * 0.1, requires_grad=True)
    weights = ad.Tensor(rng.normal(size=(f, f, c)) * 0.1, requires_grad=True)

    h1 = ad.conv_time(x, kern)
    h2 = ad.conv_space(h1, weights)
    pooled = ad.mean_pool(ad.square(h2), POOL_WIDTH, POOL_STRIDE)
    g1, g2, gp = (np.ones(n.shape) for n in (h1, h2, pooled))
    return {
        "conv_time.fwd_ms": _median_ms(lambda: ad.conv_time(x, kern), reps),
        "conv_time.bwd_ms": _median_ms(lambda: h1._backward(g1), reps),
        "conv_space.fwd_ms": _median_ms(lambda: ad.conv_space(h1, weights), reps),
        "conv_space.bwd_ms": _median_ms(lambda: h2._backward(g2), reps),
        "square_pool_log.fwd_ms": _median_ms(lambda: ad.log_clipped(
            ad.mean_pool(ad.square(h2), POOL_WIDTH, POOL_STRIDE)), reps),
        "mean_pool.bwd_ms": _median_ms(lambda: pooled._backward(gp), reps),
    }


def _step_ms(shape: dict, rng: np.random.Generator) -> float:
    """One SCSN-MMD optimizer step as `scsnet.train` takes it."""
    base = scsnet.BaselineConfig(n_channels=shape["channels"], n_samples=shape["samples"],
                                 n_classes=CLASSES, temporal_filters=shape["filters"],
                                 temporal_kernel=KERNEL, pool_width=POOL_WIDTH,
                                 pool_stride=POOL_STRIDE, dropout=0.5)
    model = scsnet.build_scsn(scsnet.ScsnConfig(base=base, n_subjects=SUBJECTS, target_index=0,
                                                common_fc_dims=shape["common"],
                                                separate_fc_dims=shape["separate"]), seed=0)
    b = shape["batch"]
    batch = {i: (rng.normal(size=(b, shape["channels"], shape["samples"])),
                 np.arange(b) % CLASSES) for i in range(SUBJECTS)}
    cfg = scsnet.TrainConfig()
    state = scsnet.training.AdamState(model.params)
    drop_rng = np.random.default_rng(0)

    def step():
        out = scsnet.forward_train(model, batch, dropout_rng=drop_rng)
        ce = ad.scale(ad.add_n([ad.softmax_xent(out[i][0], batch[i][1])[0]
                                for i in range(SUBJECTS)]), 1.0 / SUBJECTS)
        terms = [scsnet.layered_class_mmd(out[0][1], out[i][1], batch[0][1], batch[i][1])
                 for i in range(1, SUBJECTS)]
        scsnet.transfer_loss(ce, terms, 1.0).backward()
        scsnet.adam_step(model.params, {n: t.grad for n, t in model.params.items()},
                         state, cfg)
        model.params.zero_grad()

    return _median_ms(step, shape["step_repeats"], warmup=False)


def run(size: str, seed: int) -> dict[str, float]:
    """Per-layer metric name -> value in ms."""
    rng = np.random.default_rng(seed)
    out = {}
    for shape_name, shape in SHAPES[size].items():
        for key, value in _layer_ops(shape, rng).items():
            op, _, stat = key.partition(".")
            out[f"autodiff.{op}.{shape_name}.{stat}"] = value
        out[f"training.scsn_mmd_step.{shape_name}.ms"] = _step_ms(shape, rng)
    return out
