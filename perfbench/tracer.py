"""Span tracer for the traced benchmark pass.

`Tracer.install()` replaces the public functions of the scsnet modules with
wrappers that record spans (name, start, end, parent) in memory. A function
is patched under every module attribute that refers to it, so a name that a
module imported from another (`scsnet.training.crop_trialset`,
`scsnet.cli.train`, `scsnet.mmd.take_rows`) is traced too. Autodiff ops also
wrap the `_backward` closure of the node they return, so backward time is
attributed per op. `Tracer.remove()` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Work counts (conv flops and bytes, crop and container bytes,
hashed bytes) are computed from the shapes and files the wrappers see.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import scsnet
from scsnet import autodiff, cli, datasets, mmd, models, preprocessing, training

MODULES = (scsnet, autodiff, datasets, mmd, models, preprocessing, training, cli)

POINTWISE = ("square", "log_clipped", "tanh", "dropout", "reshape", "take_rows",
             "add", "scale", "add_n", "tsum")

# (home module, function, span name, kind); kind "op" also times the
# backward closure as "<span>.bwd", "gen" times each step of a generator
TARGETS = (
    [(autodiff, name, f"autodiff.{name}", "op")
     for name in ("conv_time", "conv_space", "mean_pool", "dense", "softmax_xent")]
    + [(autodiff, name, "autodiff.pointwise", "op") for name in POINTWISE]
    + [
        (mmd, "layered_class_mmd", "mmd.layered_class_mmd", "call"),
        (mmd, "mmd2_biased", "mmd.mmd2_biased", "op"),
        (mmd, "bandwidth_mean_l2", "mmd.bandwidth", "call"),
        (mmd, "transfer_loss", "mmd.transfer_loss", "call"),
        (models, "forward_train", "models.forward_train", "call"),
        (models, "forward_infer", "models.forward_infer", "call"),
        (models, "save_checkpoint", "models.checkpoint", "call"),
        (models, "load_checkpoint", "models.checkpoint", "call"),
        (training, "train", "training.train", "call"),
        (training, "adam_step", "training.adam_step", "call"),
        (training, "evaluate", "training.evaluate", "call"),
        (datasets, "synth_multisubject", "datasets.synth", "call"),
        (datasets, "save_trialset", "datasets.container", "call"),
        (datasets, "load_trialset", "datasets.container", "call"),
        (datasets, "balanced_upsample", "datasets.balanced_upsample", "call"),
        (datasets, "batch_iter", "datasets.batch_iter", "gen"),
        (preprocessing, "notch_filter", "preprocessing.filter", "call"),
        (preprocessing, "bandpass_filter", "preprocessing.filter", "call"),
        (preprocessing, "crop_trials", "preprocessing.crop", "call"),
        (preprocessing, "crop_trialset", "preprocessing.crop", "call"),
        (cli, "write_manifest", "cli.manifest", "call"),
        (cli, "read_manifest", "cli.manifest", "call"),
        (cli, "sha256_file", "cli.hash", "call"),
    ]
    + [(cli, name, "cli.command", "call")
       for name in ("cmd_synth", "cmd_preprocess", "cmd_train", "cmd_eval", "cmd_report",
                    "cmd_rerun")]
)

BACKWARD_SPAN = "autodiff.backward"
F8 = 8  # bytes per float64


def _batched(shape: tuple[int, ...], ndim: int) -> tuple[int, ...]:
    return shape if len(shape) == ndim + 1 else (1,) + shape


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


class Tracer:
    """Records spans, call counts and work counters while installed."""

    EVALUATE_SPAN = "training.evaluate"

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0
        self._evaluate_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        if name == self.EVALUATE_SPAN:
            self._evaluate_depth += 1
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, name, start = self._stack.pop()
        if name == self.EVALUATE_SPAN:
            self._evaluate_depth -= 1
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((idx, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- wrappers ------------------------------------------------------------

    def _wrap_op(self, fn, name: str):
        count_work = getattr(self, f"_work_{fn.__name__}", None)
        timed = self.timed(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            node = out[0] if isinstance(out, tuple) else out
            if isinstance(node, autodiff.Tensor) and not any(node is a for a in args):
                self.counts["autodiff.nodes"] += 1
                if count_work is not None:
                    count_work(args, backward=False)
                if node._backward is not None:
                    node._backward = self._timed_backward(node._backward, f"{name}.bwd",
                                                          args, count_work)
            return out
        return wrapper

    def _timed_backward(self, closure, name: str, args, count_work):
        timed = self.timed(closure, name)
        if count_work is None:
            return timed

        def backward(gout):
            count_work(args, backward=True)
            return timed(gout)
        return backward

    def _wrap_gen(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = self.timed(fn, name)(*args, **kwargs)
            step = self.timed(functools.partial(next, it), name)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        return wrapper

    def _wrap_call(self, fn, name: str):
        timed = self.timed(fn, name)
        count = getattr(self, f"_count_{fn.__name__}", None)
        if count is None:
            return timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            count(*args)
            return out
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrap = {"op": self._wrap_op, "gen": self._wrap_gen, "call": self._wrap_call}
        try:
            for home, attr, name, kind in TARGETS:
                original = getattr(home, attr)
                wrapped = wrap[kind](original, name)
                for module in MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapped)
            original = autodiff.Tensor.backward
            self._patched.append((autodiff.Tensor, "backward", original))
            autodiff.Tensor.backward = self.timed(original, BACKWARD_SPAN)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- computed work counts ------------------------------------------------

    def _conv(self, flop: int, nbytes: int) -> None:
        self.counts["autodiff.conv.flop"] += flop
        self.counts["autodiff.conv.bytes"] += nbytes

    def _work_conv_time(self, args, backward: bool) -> None:
        x, kern = autodiff.as_tensor(args[0]), autodiff.as_tensor(args[1])
        b, c, t = _batched(x.shape, 2)
        f, k = kern.shape
        stride = args[2] if len(args) > 2 else 1
        tout = (t - k) // stride + 1
        macs = b * c * tout * f * k
        if not backward:
            self._conv(2 * macs, F8 * (b * c * t + f * k + b * f * c * tout))
            if self._evaluate_depth:
                self.counts["conv_time.windows_computed"] += b * tout
            return
        # the closure computes only the gradients its inputs need
        for needed in (kern.requires_grad, x.requires_grad):
            if needed:
                self._conv(2 * macs, F8 * (b * f * c * tout + b * c * t + f * k))

    def _work_conv_space(self, args, backward: bool) -> None:
        x, w = autodiff.as_tensor(args[0]), autodiff.as_tensor(args[1])
        b, f, c, t = _batched(x.shape, 3)
        o = w.shape[0]
        macs = b * o * f * c * t
        nbytes = F8 * (b * f * c * t + o * f * c + b * o * t)
        if not backward:
            self._conv(2 * macs, nbytes)
            return
        for needed in (w.requires_grad, x.requires_grad):
            if needed:
                self._conv(2 * macs, nbytes)

    def _count_evaluate(self, model, branch, test, win_s, overlap_s) -> None:
        # distinct conv windows a trial needs: its crops cover one span of
        # samples, and every window inside that span is needed exactly once
        base = model.cfg if model.kind == "baseline" else model.cfg.base
        width = round(win_s * test.fs)
        stride = round((win_s - overlap_s) * test.fs)
        n_crops = (test.n_samples - width) // stride + 1
        covered = (n_crops - 1) * stride + width
        self.counts["conv_time.windows_needed"] += \
            len(test) * (covered - base.temporal_kernel + 1)

    def _count_crop_trials(self, epoch, win_s, overlap_s) -> None:
        width = round(win_s * epoch.fs)
        stride = round((win_s - overlap_s) * epoch.fs)
        n_crops = (epoch.n_samples - width) // stride + 1
        self.counts["preprocessing.crop.bytes"] += \
            n_crops * epoch.n_channels * width * epoch.data.itemsize

    def _count_save_trialset(self, trial_set, path) -> None:
        self.counts["datasets.container.mb"] += _file_mb(path)

    def _count_load_trialset(self, path) -> None:
        self.counts["datasets.container.mb"] += _file_mb(path)

    def _count_sha256_file(self, path) -> None:
        self.counts["cli.hashed_mb"] += _file_mb(path)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every closed span."""
        if self._stack:
            raise RuntimeError("spans still open")
        child: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, name, start, end, _ in self.spans:
            out[name] += end - start - child[idx]
        return dict(out)

    def write(self, path) -> None:
        """Write the recorded spans, one tab-separated line each, by id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for idx, name, start, end, parent in sorted(self.spans):
                fh.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
