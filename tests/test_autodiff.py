import functools
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from scsnet import autodiff as ad
from tests.conftest import assert_rel_close


def naive_conv_time(x, kernels, stride):
    """Loop oracle: sliding dot product per (filter, channel)."""
    c, t = x.shape
    f, k = kernels.shape
    t_out = (t - k) // stride + 1
    out = np.zeros((f, c, t_out))
    for fi in range(f):
        for ci in range(c):
            for ti in range(t_out):
                out[fi, ci, ti] = np.dot(kernels[fi], x[ci, ti * stride:ti * stride + k])
    return out


def naive_conv_space(x, w):
    f, c, t = x.shape
    o = w.shape[0]
    out = np.zeros((o, t))
    for oi in range(o):
        for ti in range(t):
            out[oi, ti] = np.sum(w[oi] * x[:, :, ti])
    return out


def naive_mean_pool(x, width, stride):
    f, t = x.shape
    t_out = (t - width) // stride + 1
    out = np.zeros((f, t_out))
    for ti in range(t_out):
        out[:, ti] = x[:, ti * stride:ti * stride + width].mean(axis=1)
    return out


def tensordot_conv_time(xb, kernels, stride, g):
    """The tensordot formulas conv_time used before its per-sample matmul:
    (output, input gradient, kernel gradient) of a batched input for the
    output gradient g."""
    windows = sliding_window_view(xb, kernels.shape[1], axis=-1)[..., ::stride, :]
    out = np.ascontiguousarray(np.moveaxis(
        np.tensordot(windows, kernels, axes=([3], [1])), -1, 1))
    gk = np.tensordot(g, windows, axes=([0, 2, 3], [0, 1, 2]))
    gx = np.zeros_like(xb)
    ad._scatter_windows(gx, np.tensordot(g, kernels, axes=([1], [0])), stride)
    return out, gx, gk


def einsum_conv_space(xb, w, g):
    """The einsum formulas conv_space used before its matmuls: (output, input
    gradient, weight gradient) of a batched input for the output gradient g."""
    return (np.einsum("ofc,bfct->bot", w, xb, optimize=True),
            np.einsum("bot,ofc->bfct", g, w, optimize=True),
            np.einsum("bot,bfct->ofc", g, xb, optimize=True))


class TestConvTime:
    def test_identity_kernel(self):
        out = ad.conv_time(np.array([[[1., 2., 3., 4., 5.]]]), np.array([[1.]]), 1)
        np.testing.assert_array_equal(out.values, [[[[1, 2, 3, 4, 5]]]])

    def test_difference_kernel(self):
        out = ad.conv_time(np.array([[[1., 2., 3., 4.]]]), np.array([[1., -1.]]), 1)
        np.testing.assert_allclose(out.values, [[[[-1., -1., -1.]]]])

    def test_stride_shape(self):
        out = ad.conv_time(np.zeros((1, 1, 5)), np.zeros((1, 3)), 2)
        assert out.shape == (1, 1, 1, 2)

    def test_kernel_longer_than_signal(self):
        with pytest.raises(ValueError, match="kernel length 5 exceeds signal length 4"):
            ad.conv_time(np.zeros((1, 2, 4)), np.zeros((1, 5)), 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c, t = rng.integers(1, 5), rng.integers(4, 20)
            k = rng.integers(1, t + 1)
            s = rng.integers(1, 4)
            f = rng.integers(1, 4)
            x = rng.normal(size=(1, c, t))
            kern = rng.normal(size=(f, k))
            got = ad.conv_time(x, kern, int(s)).values
            np.testing.assert_allclose(got[0], naive_conv_time(x[0], kern, int(s)), atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2, 9))
        kern = rng.normal(size=(4, 3))
        batched = ad.conv_time(x, kern, 2).values
        for b in range(3):
            single = ad.conv_time(x[b:b + 1], kern, 2).values
            np.testing.assert_array_equal(batched[b:b + 1], single)

    @given(batch=st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
           k=st.integers(1, 8), stride=st.integers(1, 4), n_out=st.integers(1, 8),
           slack=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
    @example(batch=2, c=3, f=2, k=5, stride=3, n_out=4, slack=2, seed=0)     # stride > 1
    @example(batch=2, c=2, f=3, k=7, stride=1, n_out=1, slack=0, seed=1)     # k = T
    @example(batch=1, c=3, f=2, k=4, stride=2, n_out=5, slack=1, seed=2)     # batch 1, stride 2
    @example(batch=1, c=4, f=3, k=6, stride=1, n_out=6, slack=0, seed=3)     # batch 1
    @settings(max_examples=100, deadline=None)
    def test_matches_tensordot_formulas(self, batch, c, f, k, stride, n_out, slack, seed):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(batch, c, (n_out - 1) * stride + k + slack)),
                      requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(f, k)), requires_grad=True)
        out = ad.conv_time(x, kern, stride)
        gout = rng.normal(size=out.shape)
        got = (out.values, *out._backward(gout))
        want = tensordot_conv_time(x.values, kern.values, stride, gout)
        for g, w in zip(got, want):
            assert_rel_close(g, w)

    def test_peak_memory_is_output_plus_one_column_buffer(self):
        # the forward writes each sample's matmul into the output and stages
        # its windows in one reused [k, C, T'] buffer: nothing else of
        # output size is allocated
        rng = np.random.default_rng(5)
        b, c, t, f, k = 4, 8, 300, 16, 25
        x = rng.normal(size=(b, c, t))
        kern = ad.Tensor(rng.normal(size=(f, k)), requires_grad=True)
        t_out = t - k + 1
        out_bytes, cols_bytes = 8 * b * f * c * t_out, 8 * k * c * t_out
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.conv_time(x, kern)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == out_bytes
        assert peak <= out_bytes + cols_bytes + 16 * 1024

    @given(t=st.integers(1, 40), k=st.integers(1, 40), s=st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_shape_law(self, t, k, s):
        if k > t:
            with pytest.raises(ValueError):
                ad.conv_time(np.zeros((1, 1, t)), np.zeros((2, k)), s)
        else:
            out = ad.conv_time(np.zeros((1, 1, t)), np.zeros((2, k)), s)
            assert out.shape == (1, 2, 1, (t - k) // s + 1)


class TestConvSpace:
    def test_zero_weights(self):
        out = ad.conv_space(np.ones((1, 2, 3, 4)), np.zeros((1, 2, 3)))
        np.testing.assert_array_equal(out.values, np.zeros((1, 1, 4)))

    def test_per_timepoint_weighted_sum(self):
        x = np.array([[[[1., 1., 1.], [2., 2., 2.]]]])  # 1 filter, 2 channels, 3 samples
        w = np.array([[[1., 1.]]])
        out = ad.conv_space(x, w)
        np.testing.assert_allclose(out.values, [[[3., 3., 3.]]])

    def test_leading_extent(self):
        out = ad.conv_space(np.zeros((1, 2, 3, 5)), np.zeros((4, 2, 3)))
        assert out.shape == (1, 4, 5)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            ad.conv_space(np.zeros((1, 2, 3, 5)), np.zeros((4, 2, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 4, 6))
        w = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(ad.conv_space(x, w).values[0], naive_conv_space(x[0], w),
                                   atol=1e-12)

    def test_batched_matches_per_sample(self):
        # a one-trial decode and a whole-set evaluate chunk run the same
        # per-sample matmul, so they agree to the bit
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 5, 7))
        w = rng.normal(size=(2, 4, 5))
        batched = ad.conv_space(x, w).values
        for b in range(3):
            single = ad.conv_space(x[b:b + 1], w).values
            np.testing.assert_array_equal(batched[b:b + 1], single)

    @given(batch=st.integers(1, 3), f=st.integers(1, 5), c=st.integers(1, 5),
           o=st.integers(1, 5), t=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    @example(batch=1, f=3, c=4, o=2, t=6, seed=0)     # batch 1
    @example(batch=1, f=4, c=2, o=3, t=9, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_matches_einsum_formulas(self, batch, f, c, o, t, seed):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(batch, f, c, t)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(o, f, c)), requires_grad=True)
        out = ad.conv_space(x, w)
        gout = rng.normal(size=out.shape)
        got = (out.values, *out._backward(gout))
        for g, v in zip(got, einsum_conv_space(x.values, w.values, gout)):
            assert_rel_close(g, v)


class TestConvColumnBlocks:
    """conv_time's and conv_space's forward matmul of one sample, cut into
    column blocks from ad._SPLIT multiply-adds on: the same bytes at any
    worker count, and the values of one unsplit matmul."""

    PAPER = (22, 1000, 40, 25)  # channels, samples, filters, taps of a train-paper decode

    @staticmethod
    def _forward(x, kern, w):
        ct = ad.conv_time(x, kern, 1)
        return ct.values, ad.conv_space(ct, w).values

    @staticmethod
    def _unsplit(x, kern, w):
        """conv_time's and conv_space's outputs of a batched input from one
        kernel-bank matmul and one spatial matmul per sample."""
        (f, k), o = kern.shape, w.shape[0]
        b, c, t = x.shape
        t_out = t - k + 1
        cols = sliding_window_view(x, k, axis=-1).transpose(0, 3, 1, 2)  # [B, k, C, T']
        ct = np.stack([kern @ np.ascontiguousarray(cols[i]).reshape(k, c * t_out)
                       for i in range(b)]).reshape(b, f, c, t_out)
        cs = np.stack([w.reshape(o, f * c) @ ct[i].reshape(f * c, t_out) for i in range(b)])
        return ct, cs

    def _paper_operands(self, seed, samples=None):
        c, t, f, k = self.PAPER
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(1, c, samples or t)), rng.normal(size=(f, k)),
                rng.normal(size=(f, f, c)))

    @given(batch=st.integers(1, 3), c=st.integers(1, 9), t_out=st.integers(1, 40),
           f=st.integers(1, 5), k=st.integers(1, 7), o=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    @example(batch=2, c=9, t_out=17, f=3, k=5, o=2, seed=0)   # ragged channel and column blocks
    @example(batch=1, c=1, t_out=1, f=1, k=1, o=1, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_same_bytes_at_every_pool_size(self, batch, c, t_out, f, k, o, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, c, t_out + k - 1))
        kern, w = rng.normal(size=(f, k)), rng.normal(size=(o, f, c))
        results = []
        for size in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "_SPLIT", 1)  # every product is cut
                mp.setattr(ad, "_pool_size", lambda: size)
                results.append([a.tobytes() for a in self._forward(x, kern, w)])
        assert results[0] == results[1] == results[2]
        for got, want in zip(self._forward(x, kern, w), self._unsplit(x, kern, w)):
            assert_rel_close(got, want)

    def test_paper_decode_is_the_unsplit_matmul(self, monkeypatch):
        x, kern, w = self._paper_operands(0)
        c, t, f, k = self.PAPER
        t_out = t - k + 1
        assert f * k * c * t_out >= ad._SPLIT and w.shape[0] * f * c * t_out >= ad._SPLIT
        workers = []
        real_executor = ad._executor

        def executor(n):
            workers.append(n)
            return real_executor(n)

        monkeypatch.setattr(ad, "_executor", executor)
        want = [a.tobytes() for a in self._unsplit(x, kern, w)]
        for size in (1, 2):
            monkeypatch.setattr(ad, "_pool_size", lambda size=size: size)
            assert [a.tobytes() for a in self._forward(x, kern, w)] == want
        assert workers == [2, 2]  # one map per op at two workers, none inline

    def test_same_bytes_under_fast_thread_switching(self, monkeypatch):
        # more workers than cores and a thread switch every microsecond: a
        # block that wrote outside its own columns would change bytes
        x, kern, w = self._paper_operands(2)
        monkeypatch.setattr(ad, "_pool_size", lambda: 1)
        want = [a.tobytes() for a in self._forward(x, kern, w)]
        monkeypatch.setattr(ad, "_pool_size", lambda: 2 * (os.cpu_count() or 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert [a.tobytes() for a in self._forward(x, kern, w)] == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_each_column_once_and_a_block_error_raised(self, monkeypatch, size):
        # ad._run_items: every block runs once, results come back in block
        # order although the earlier blocks finish last, and a block's error
        # reaches the caller only once every block already running has
        # finished; no block starts after the error
        monkeypatch.setattr(ad, "_BLOCKS", 4)
        monkeypatch.setattr(ad, "_pool_size", lambda: size)
        bounds = ad._column_bounds(97, 8)
        assert bounds == [(0, 32), (32, 64), (64, 96), (96, 97)]
        seen, finished = [], []

        def fn(lo, hi, fail=None):
            seen.append((lo, hi))
            if lo == fail:
                raise ValueError(f"block {lo}:{hi}")
            time.sleep(5e-3 * (len(bounds) - bounds.index((lo, hi))))
            finished.append((lo, hi))
            return lo, hi

        assert ad._run_items(fn, bounds) == bounds
        assert sorted(seen) == sorted(finished) == bounds
        seen.clear()
        finished.clear()
        with pytest.raises(ValueError, match="block 32:64"):
            ad._run_items(functools.partial(fn, fail=32), bounds)
        # block 0:32 sleeps past the failure and still finishes; a third
        # thread may have taken 64:96 before the error, but 96:97 can only be
        # handed out after it
        started = sorted(seen)
        assert started == bounds[:2] + ([(64, 96)] if (64, 96) in seen else [])
        assert size >= 3 or len(started) == 2
        assert sorted(finished) == [b for b in started if b != (32, 64)]

    def test_a_late_worker_keeps_nothing_alive(self, monkeypatch):
        # a worker that starts after the last item finds the job emptied: it
        # holds neither fn, nor the array fn closes over, nor the results
        submitted = []

        class Executor:
            def submit(self, fn):
                submitted.append(fn)

        monkeypatch.setattr(ad, "_executor", lambda workers: Executor())
        monkeypatch.setattr(ad, "_pool_size", lambda: 2)
        ran = []

        def items_of(held):
            def fn(lo, hi):
                ran.append((lo, hi))
                return held[lo:hi] * 2.0
            return fn

        held = np.arange(4.0)
        held_ref, fn = weakref.ref(held), items_of(held)
        del held
        results = ad._run_items(fn, [(0, 2), (2, 4)])
        assert [r.tolist() for r in results] == [[0.0, 2.0], [4.0, 6.0]]
        result_ref = weakref.ref(results[0])
        del fn, results
        assert held_ref() is None and result_ref() is None
        assert len(submitted) == 1 and ran == [(0, 2), (2, 4)]
        submitted[0]()  # the late worker
        assert ran == [(0, 2), (2, 4)]

    def test_ragged_columns_agree_with_the_unsplit_matmul(self, monkeypatch):
        # T' = 979 is no multiple of 8: the last column block is ragged
        x, kern, w = self._paper_operands(1, samples=1003)
        monkeypatch.setattr(ad, "_pool_size", lambda: 2)
        for got, want in zip(self._forward(x, kern, w), self._unsplit(x, kern, w)):
            assert_rel_close(got, want)


def five_op_chain(x, kernels, weights, pool_width, pool_stride):
    """The ops conv_log_power fuses, one graph node each."""
    h = ad.conv_space(ad.conv_time(x, kernels, 1), weights)
    return ad.log_clipped(ad.mean_pool(ad.square(h), pool_width, pool_stride))


class TestConvTimeSpace:
    """conv_log_power: the fused temporal and spatial conv, with the square,
    mean pool and log that follow it in the shallow block."""

    @staticmethod
    def _grads(op, x, k, w, pool_width, pool_stride):
        for t in (k, w):
            t.zero_grad()
        out = op(x, k, w, pool_width, pool_stride)
        ad.tsum(ad.square(out)).backward()
        return out.values, k.grad, w.grad

    @given(batch=st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
           o=st.integers(1, 4), k=st.integers(1, 8), pool_width=st.integers(1, 10),
           pool_stride=st.integers(1, 6), slack=st.integers(0, 12), zero_crop=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(batch=3, c=2, f=3, o=2, k=5, pool_width=4, pool_stride=3, slack=7,
             zero_crop=False, seed=0)                                     # stride > 1
    @example(batch=2, c=3, f=2, o=3, k=4, pool_width=9, pool_stride=2, slack=0,
             zero_crop=False, seed=1)                                     # width == T'
    @example(batch=3, c=2, f=2, o=2, k=3, pool_width=3, pool_stride=2, slack=5,
             zero_crop=True, seed=2)                                      # pooled below the floor
    @example(batch=1, c=3, f=2, o=2, k=4, pool_width=5, pool_stride=2, slack=4,
             zero_crop=False, seed=3)                                     # batch 1
    @example(batch=2 * ad._CHUNK + 3, c=3, f=2, o=3, k=5, pool_width=4, pool_stride=3,
             slack=6, zero_crop=True, seed=4)                             # several chunks
    @settings(max_examples=60, deadline=None)
    def test_matches_five_op_chain(self, batch, c, f, o, k, pool_width, pool_stride, slack,
                                   zero_crop, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(batch, c, k - 1 + pool_width + slack))
        if zero_crop:
            values[0] = 0.0
        kern = ad.Tensor(rng.normal(size=(f, k)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(o, f, c)), requires_grad=True)
        want = self._grads(five_op_chain, values, kern, w, pool_width, pool_stride)
        got = self._grads(ad.conv_log_power, values, kern, w, pool_width, pool_stride)
        assert got[0].shape == (batch, o, slack // pool_stride + 1)
        for g, v in zip(got, want):
            assert_rel_close(g, v)
        if zero_crop:
            assert np.all(got[0][0] == np.log(ad.LOG_FLOOR))

    def test_empty_batch(self):
        x = np.zeros((0, 3, 11))
        k, w = ad.Tensor(np.ones((2, 4)), requires_grad=True), np.ones((3, 2, 3))
        out = ad.conv_log_power(x, k, w, 3, 2)
        assert out.shape == five_op_chain(x, k, w, 3, 2).shape == (0, 3, 3)
        ad.tsum(out).backward()
        assert not np.any(k.grad)

    def test_gradient_check(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 11))
        k = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)

        def loss():
            return ad.tsum(ad.square(ad.conv_log_power(x, k, w, 3, 2)))

        assert ad.grad_check(loss, [k, w], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("x_shape,k_shape,w_shape,pool", [
        ((1, 2, 4), (1, 5), (1, 1, 2), (1, 1)),
        ((2, 3, 9), (2, 3), (4, 2, 2), (1, 1)),
        ((1, 3, 9), (2, 3), (4, 3, 3), (1, 1)),
        ((1, 3, 9), (2, 3), (2, 3), (1, 1)),
        ((1, 3, 9), (2, 3), (4, 2, 3), (8, 1)),
        ((1, 3, 9), (2, 3), (4, 2, 3), (2, 0)),
        ((3, 9), (2, 3), (4, 2, 3), (1, 1)),
    ], ids=["kernel-longer-than-signal", "channel-extent", "filter-extent", "weights-not-3d",
            "pool-wider-than-conv-output", "pool-stride-zero", "one-crop-not-a-batch"])
    def test_rejects_what_the_chain_rejects(self, x_shape, k_shape, w_shape, pool):
        x, k, w = np.zeros(x_shape), np.zeros(k_shape), np.zeros(w_shape)
        with pytest.raises(ValueError) as chain:
            five_op_chain(x, k, w, *pool)
        with pytest.raises(ValueError) as fused:
            ad.conv_log_power(x, k, w, *pool)
        assert str(fused.value) == str(chain.value)


class TestKernelGradientBlocks:
    """conv_log_power's backward builds each segment's im2col, and takes its
    kernel-gradient GEMM, over blocks of at most ad._GRAD_COLS conv columns:
    against one unblocked GEMM per segment, and with scratch that does not
    grow with the segment."""

    C, F, O, K = 3, 2, 2, 5
    POOL = (10, 5)
    COLUMNS = [256, 257, 976, 4000]  # conv columns of one segment

    @classmethod
    def _operands(cls, n, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, cls.C, n + cls.K - 1))
        kern = ad.Tensor(rng.normal(size=(cls.F, cls.K)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(cls.O, cls.F, cls.C)), requires_grad=True)
        return x, kern, w

    @staticmethod
    def _unblocked(x, kern, w, pool_width, pool_stride):
        """Output, kernel and weight gradients of tsum(square(out)) for one
        crop row, its segment's effective-kernel gradient one GEMM over the
        whole [C * k, T'] im2col, in the op's order of operations."""
        (f, k), (o, _, c) = kern.shape, w.shape
        n = x.shape[-1] - k + 1
        cols = np.ascontiguousarray(
            sliding_window_view(x[0], k, axis=-1).transpose(0, 2, 1)).reshape(c * k, n)
        h = (w.transpose(0, 2, 1) @ kern).reshape(o, c * k) @ cols
        n_pool = (n - pool_width) // pool_stride + 1
        span = (n_pool - 1) * pool_stride + 1
        windows = sliding_window_view(h * h, pool_width, axis=-1)[:, :span:pool_stride]
        pooled = np.add.reduce(windows, axis=-1) / pool_width
        out = np.log(np.maximum(pooled, ad.LOG_FLOOR))
        g = 2.0 * out  # the gradient of tsum(square(out))
        nonzero = pooled > ad.LOG_FLOOR
        gp = np.where(nonzero, g / np.where(nonzero, pooled, 1.0), 0.0)
        pool = np.zeros((n_pool, n))
        rows = np.arange(n_pool)[:, None]
        pool[rows, rows * pool_stride + np.arange(pool_width)] = 1.0 / pool_width
        g_eff = np.zeros((o, c * k))
        g_eff += 2.0 * h * (gp @ pool) @ cols.T
        g_eff = g_eff.reshape(o, c, k)
        return (out[None], w.transpose(1, 0, 2).reshape(f, o * c) @ g_eff.reshape(o * c, k),
                (g_eff @ kern.T).transpose(0, 2, 1))

    @staticmethod
    def _grads(x, kern, w, pool, crops=None):
        kern.zero_grad()
        w.zero_grad()
        out = ad.conv_log_power(x, kern, w, *pool, crops)
        ad.tsum(ad.square(out)).backward()
        return out.values, kern.grad, w.grad

    @pytest.mark.parametrize("n", COLUMNS)
    def test_matches_one_unblocked_gemm(self, n):
        x, kern, w = self._operands(n)
        got = self._grads(x, kern, w, self.POOL)
        want = self._unblocked(x, kern.values, w.values, *self.POOL)
        assert got[0].tobytes() == want[0].tobytes()  # the forward is not blocked
        for g, v in zip(got[1:], want[1:]):
            if n <= ad._GRAD_COLS:  # one block: the very GEMM of the whole segment
                assert g.tobytes() == v.tobytes()
            else:
                assert_rel_close(g, v)

    @pytest.mark.parametrize("n", COLUMNS)
    def test_segment_of_several_onsets_matches_its_gathered_crops(self, n):
        # crops 200 samples wide, at most 150 apart, the last one ending the
        # trial, form one segment of n columns; gathered into rows, each crop
        # is its own unblocked segment
        x, kern, w = self._operands(n, seed=1)
        width = 200
        last = x.shape[-1] - width
        onset = np.append(np.arange(0, last, 150), last)
        crops = (np.zeros(len(onset), dtype=int), onset, width)
        gathered = np.stack([x[0, :, a:a + width] for a in onset])
        for g, v in zip(self._grads(x, kern, w, self.POOL, crops),
                        self._grads(gathered, kern, w, self.POOL)):
            assert_rel_close(g, v)

    @pytest.mark.parametrize("n", COLUMNS)
    def test_gradient_check(self, n):
        x, kern, w = self._operands(n, seed=2)

        def loss():
            return ad.tsum(ad.square(ad.conv_log_power(x, kern, w, *self.POOL)))

        assert ad.grad_check(loss, [kern, w], eps=1e-5) < 1e-4

    def test_backward_scratch_does_not_grow_with_the_trial(self, monkeypatch):
        # one train-paper-shaped trial of 21 crops, 500 samples wide, whose
        # windows chain into one segment of n conv columns; its backward's
        # traced peak, less the segment's [O, n] gradient at the conv
        # output, grows by less than one [C, k, _GRAD_COLS] block from 1,000
        # to 4,000 samples (a whole-segment im2col grows by 13 MB)
        c, f, k, o, width = 22, 40, 25, 40, 500
        monkeypatch.setattr(ad, "_pool_size", lambda: 1)
        rng = np.random.default_rng(3)
        kern = ad.Tensor(rng.normal(size=(f, k)), requires_grad=True)
        w = ad.Tensor(0.1 * rng.normal(size=(o, f, c)), requires_grad=True)
        scratch = {}
        for samples in (1000, 4000):
            x = rng.normal(size=(1, c, samples))
            onset = 15 * np.round(np.linspace(0, (samples - width) // 15, 21)).astype(int)
            out = ad.conv_log_power(x, kern, w, 75, 15, (np.zeros(21, dtype=int), onset, width))
            gout = np.ones(out.shape)
            n = onset[-1] + width - k + 1
            tracemalloc.start()
            try:
                out._backward(gout)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            scratch[samples] = peak - o * n * 8
        assert scratch[4000] - scratch[1000] < c * k * ad._GRAD_COLS * 8


class TestConvLogPowerOnsets:
    """conv_log_power on whole trials with per-crop onsets against the same
    op on the crops gathered into an array, one crop per row."""

    N_TRIALS, SAMPLES, WIDTH = 3, 40, 12

    @staticmethod
    def _run(values, crops):
        rng = np.random.default_rng(7)
        k = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        out = ad.conv_log_power(values, k, w, 4, 3, crops)
        ad.tsum(ad.square(out)).backward()
        return out.values, k.grad, w.grad

    @given(pairs=st.lists(st.tuples(st.integers(0, N_TRIALS - 1),
                                    st.integers(0, SAMPLES - WIDTH)),
                          min_size=1, max_size=2 * ad._CHUNK + 3),
           seed=st.integers(0, 2 ** 16))
    @example(pairs=[(1, 7)], seed=0)                                   # one crop
    @example(pairs=[(0, 4), (2, 0), (0, 4), (0, 4)], seed=1)           # duplicates
    @example(pairs=[(0, 10), (1, 2), (0, 3), (0, 6)], seed=2)          # overlapping, unsorted
    @example(pairs=[(2, 24), (2, 0), (2, 12)], seed=3)                 # touching
    @example(pairs=[(1, 20), (1, 0), (1, 3)], seed=4)                  # two segments of a trial
    @example(pairs=[(i % 3, 4 * i % 29) for i in range(ad._CHUNK - 1)], seed=5)
    @example(pairs=[(i % 2, 3 * i) for i in range(ad._CHUNK)], seed=6)
    @example(pairs=[(i % 3, 5 * i % 29) for i in range(2 * ad._CHUNK + 3)], seed=7)
    @settings(max_examples=60, deadline=None)
    def test_matches_gathered_crops(self, pairs, seed):
        values = np.random.default_rng(seed).normal(size=(self.N_TRIALS, 3, self.SAMPLES))
        trial, onset = (np.array(v) for v in zip(*pairs))
        gathered = np.stack([values[t, :, o:o + self.WIDTH] for t, o in pairs])
        got = self._run(values, (trial, onset, self.WIDTH))
        want = self._run(gathered, None)
        assert_rel_close(got[0], want[0])
        # a crop that overlaps or touches no other crop of its trial is
        # convolved by the very matmul its row gets
        alone = [not any(t == u and abs(o - p) <= self.WIDTH
                         for j, (u, p) in enumerate(pairs) if j != i)
                 for i, (t, o) in enumerate(pairs)]
        assert got[0][alone].tobytes() == want[0][alone].tobytes()
        assert_rel_close(got[1], want[1])
        assert_rel_close(got[2], want[2])

    @given(pairs=st.lists(st.tuples(st.integers(0, N_TRIALS - 1),
                                    st.integers(0, SAMPLES - WIDTH)),
                          min_size=1, max_size=2 * ad._CHUNK + 3),
           onsets=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(pairs=[(0, 10), (1, 2), (0, 3), (0, 6)], onsets=True, seed=0)
    @example(pairs=[(i % 3, 5 * i % 29) for i in range(2 * ad._CHUNK + 3)], onsets=True,
             seed=1)
    @example(pairs=[(2, 0)], onsets=False, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_reads_float32_data_as_its_float64_cast(self, pairs, onsets, seed):
        values = np.random.default_rng(seed).normal(
            size=(self.N_TRIALS, 3, self.SAMPLES)).astype(np.float32)
        trial, onset = (np.array(v) for v in zip(*pairs))
        if onsets:
            crops = (trial, onset, self.WIDTH)
        else:  # crop rows: the trials themselves, picked by `trial`
            values, crops = values[trial], None
        got = self._run(values, crops)
        want = self._run(values.astype(np.float64), crops)
        for g, v in zip(got, want):
            assert g.dtype == np.float64 and g.tobytes() == v.tobytes()
        k, w = np.zeros((2, 5)), np.zeros((3, 2, 3))
        with pytest.raises(ValueError, match="no input gradient"):
            ad.conv_log_power(ad.Tensor(values, requires_grad=True), k, w, 4, 3, crops)

    @given(sets=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10), st.booleans()),
                         min_size=2, max_size=3),
           n_crops=st.integers(1, 2 * ad._CHUNK + 3), seed=st.integers(0, 2 ** 16))
    @example(sets=[(2, 0, True), (1, 10, False), (3, 4, True)], n_crops=2 * ad._CHUNK + 3,
             seed=0)
    @example(sets=[(1, 3, False), (1, 0, True)], n_crops=1, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_several_trial_arrays_read_as_their_concatenation(self, sets, n_crops, seed):
        # arrays of (trials, WIDTH + extra samples, float32?) against the same
        # crops of one zero-padded float64 array holding them all, at 1 and 2
        # workers
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(n, 3, self.WIDTH + extra)).astype(
                      np.float32 if f32 else np.float64) for n, extra, f32 in sets]
        samples = np.repeat([a.shape[-1] for a in arrays], [len(a) for a in arrays])
        trial = rng.integers(len(samples), size=n_crops)
        onset = rng.integers(samples[trial] - self.WIDTH + 1)
        joined = np.zeros((len(samples), 3, samples.max()))
        for lo, a in zip(np.cumsum([0] + [len(a) for a in arrays]), arrays):
            joined[lo:lo + len(a), :, :a.shape[-1]] = a
        crops = (trial, onset, self.WIDTH)
        want = [v.tobytes() for v in self._run(joined, crops)]
        for size in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "_pool_size", lambda: size)
                assert [v.tobytes() for v in self._run(arrays, crops)] == want

    def test_refuses_a_crop_past_its_own_arrays_samples(self):
        arrays = (np.ones((2, 3, 40)), np.ones((2, 3, 20)))
        k, w = np.zeros((2, 5)), np.zeros((3, 2, 3))
        ad.conv_log_power(arrays, k, w, 4, 3, ([3, 1], [8, 28], 12))  # each ends its trial
        with pytest.raises(ValueError, match="outside the 20 samples"):
            ad.conv_log_power(arrays, k, w, 4, 3, ([1, 3], [28, 9], 12))
        with pytest.raises(ValueError, match="share their channel count"):
            ad.conv_log_power((arrays[0], np.ones((2, 2, 40))), k, w, 4, 3, ([0], [0], 12))
        with pytest.raises(ValueError, match="fewer than the crop width 12 samples"):
            ad.conv_log_power((arrays[0], np.ones((1, 3, 11))), k, w, 4, 3, ([0], [0], 12))

    @pytest.mark.parametrize("crops, message", [
        (([0], [0, 1], 12), "equal-length"),
        (([], [], 12), "non-empty"),
        (([0.0], [0], 12), "integer"),
        (([3], [0], 12), "trial index"),
        (([0], [-1], 12), "outside the 40 samples"),
        (([0], [29], 12), "outside the 40 samples"),
        (([0], [0], 0), "width"),
    ], ids=["lengths", "empty", "float-trial", "trial-range", "negative-onset", "past-the-end",
            "zero-width"])
    def test_rejects_bad_crops(self, crops, message):
        values = np.zeros((self.N_TRIALS, 3, self.SAMPLES))
        with pytest.raises(ValueError, match=message):
            ad.conv_log_power(values, np.zeros((2, 5)), np.zeros((3, 2, 3)), 4, 3, crops)


class TestConvLogPowerGrid:
    """conv_log_power on onsets that share a pool grid step g > 1 with the
    pool width and stride, so a segment of several crops sums its windows on
    that grid once: against the gathered crops, at every pool size."""

    SAMPLES, WIDTH = 70, 30

    @staticmethod
    def _run(values, crops, pool, size):
        rng = np.random.default_rng(8)
        k = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_pool_size", lambda: size)
            out = ad.conv_log_power(values, k, w, *pool, crops)
            ad.tsum(ad.square(out)).backward()
        return out.values, k.grad, w.grad

    # (pool width, pool stride, onset unit): g = 3, 5, and 2 or 4
    POOLS = [(6, 3, 3), (15, 5, 5), (8, 4, 2)]

    @pytest.mark.parametrize("pool_width, pool_stride, unit", POOLS,
                             ids=[f"pool{w}-{s}-onsets{u}" for w, s, u in POOLS])
    @given(pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, SAMPLES - WIDTH)),
                          min_size=1, max_size=2 * ad._CHUNK + 3),
           seed=st.integers(0, 2 ** 16))
    @example(pairs=[(0, 30), (0, 15), (1, 0), (0, 30), (0, 15)], seed=0)  # duplicates
    @example(pairs=[(2, 30), (2, 0), (2, 15)], seed=1)                  # overlapping, unsorted
    @example(pairs=[(1, 0), (1, 30), (0, 10)], seed=2)                  # touching
    @example(pairs=[(i % 3, (13 * i) % 41) for i in range(2 * ad._CHUNK + 3)], seed=3)
    @settings(max_examples=25, deadline=None)
    def test_matches_gathered_crops(self, pool_width, pool_stride, unit, pairs, seed):
        pairs = [(t, o - o % unit) for t, o in pairs]  # onsets on multiples of the unit
        values = np.random.default_rng(seed).normal(size=(3, 3, self.SAMPLES))
        trial, onset = (np.array(v) for v in zip(*pairs))
        crops = (trial, onset, self.WIDTH)
        pool = (pool_width, pool_stride)
        gathered = np.stack([values[t, :, o:o + self.WIDTH] for t, o in pairs])
        want = self._run(gathered, None, pool, 1)
        got = [self._run(values, crops, pool, size) for size in (1, 2, 3)]
        for g, v in zip(got[0], want):
            assert_rel_close(g, v)
        assert ([[a.tobytes() for a in run] for run in got[1:]]
                == 2 * [[a.tobytes() for a in got[0]]])


class TestConvLogPowerPool:
    """conv_log_power's chunks give the same bytes at any worker count, and
    the worker count follows the BLAS thread environment."""

    @given(batch=st.integers(1, 2 * ad._CHUNK + 3),
           zero_crop=st.booleans(), onsets=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(batch=ad._CHUNK - 1, zero_crop=False, onsets=False, seed=0)      # below
    @example(batch=ad._CHUNK, zero_crop=False, onsets=False, seed=1)          # one chunk
    @example(batch=2 * ad._CHUNK + 3, zero_crop=True, onsets=False, seed=2)   # ragged last chunk
    @example(batch=2 * ad._CHUNK + 3, zero_crop=False, onsets=False, seed=3)
    @example(batch=1, zero_crop=False, onsets=False, seed=4)                  # batch 1
    @example(batch=2 * ad._CHUNK + 3, zero_crop=True, onsets=True, seed=5)    # shared trials
    @example(batch=ad._CHUNK - 1, zero_crop=False, onsets=True, seed=6)
    @settings(max_examples=30, deadline=None)
    def test_same_bytes_at_every_pool_size(self, batch, zero_crop, onsets, seed):
        rng = np.random.default_rng(seed)
        crops = None
        if onsets:  # crops of 20 samples drawn from three 44-sample trials
            crops = (rng.integers(3, size=batch), rng.integers(25, size=batch), 20)
            values = rng.normal(size=(3, 3, 44))
            if zero_crop:
                values[crops[0][batch // 2]] = 0.0
        else:
            values = rng.normal(size=(batch, 3, 20))
            if zero_crop:
                values[batch // 2] = 0.0
        kern, w = rng.normal(size=(2, 5)), rng.normal(size=(3, 2, 3))
        results = []
        for size in (1, 2, 3):
            k, wt = ad.Tensor(kern, requires_grad=True), ad.Tensor(w, requires_grad=True)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "_pool_size", lambda: size)
                out = ad.conv_log_power(values, k, wt, 4, 3, crops)
                ad.tsum(ad.square(out)).backward()
            results.append([a.tobytes() for a in (out.values, k.grad, wt.grad)])
        assert results[0] == results[1] == results[2]

    def test_same_bytes_under_fast_thread_switching(self, monkeypatch):
        # more workers than cores and a thread switch every microsecond: a
        # chunk that wrote outside its own rows, or partial gradients summed
        # in completion order, would change bytes between repeats
        rng = np.random.default_rng(5)
        values = rng.normal(size=(5 * ad._CHUNK + 1, 3, 20))
        kern, w = rng.normal(size=(2, 5)), rng.normal(size=(3, 2, 3))

        def run():
            k, wt = ad.Tensor(kern, requires_grad=True), ad.Tensor(w, requires_grad=True)
            out = ad.conv_log_power(values, k, wt, 4, 3)
            ad.tsum(ad.square(out)).backward()
            return [a.tobytes() for a in (out.values, k.grad, wt.grad)]

        monkeypatch.setattr(ad, "_pool_size", lambda: 1)
        want = run()
        monkeypatch.setattr(ad, "_pool_size", lambda: 2 * (os.cpu_count() or 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert run() == want
        finally:
            sys.setswitchinterval(interval)

    def test_fold_takes_items_in_order_when_the_first_finishes_last(self, monkeypatch):
        # item 0 waits until items 1 and 2 have finished on other threads;
        # the fold still takes 0, 1, 2 in order, and when item 0 fails its
        # error is the one raised and nothing is folded
        monkeypatch.setattr(ad, "_pool_size", lambda: 3)

        def run(fail, finished, folded):
            later = {1: threading.Event(), 2: threading.Event()}

            def item(lo, hi):
                waited = lo != 0 or all(event.wait(30.0) for event in later.values())
                finished.append(lo)
                if lo in later:
                    later[lo].set()
                if lo in fail:
                    raise ValueError(f"item {lo} failed")
                return lo, waited

            return ad._run_items(item, [(0, 1), (1, 2), (2, 3)],
                                 lambda i, result: folded.append((i, result)))

        finished, folded = [], []
        assert run(set(), finished, folded) == [None] * 3
        assert finished[-1] == 0 and sorted(finished) == [0, 1, 2]
        assert folded == [(0, (0, True)), (1, (1, True)), (2, (2, True))]
        finished, folded = [], []
        with pytest.raises(ValueError, match="item 0 failed"):
            run({0, 2}, finished, folded)
        assert finished[-1] == 0 and sorted(finished) == [0, 1, 2] and folded == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_forked_child_runs_every_item(self, monkeypatch):
        # a child forked after the pool has started has none of its worker
        # threads: the calling thread must still run every item
        monkeypatch.setattr(ad, "_pool_size", lambda: 2)
        rng = np.random.default_rng(6)
        values = rng.normal(size=(3 * ad._CHUNK, 3, 20))
        kern, w = rng.normal(size=(2, 5)), rng.normal(size=(3, 2, 3))

        def run():
            k, wt = ad.Tensor(kern, requires_grad=True), ad.Tensor(w, requires_grad=True)
            out = ad.conv_log_power(values, k, wt, 4, 3)
            ad.tsum(ad.square(out)).backward()
            return [a.tobytes() for a in (out.values, k.grad, wt.grad)]

        want = run()  # starts the pool
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit: no pytest teardown
            code = 1
            try:
                code = 0 if run() == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child was still running its step after 60 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.mark.parametrize("env, pinned", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),   # empty reads as unset
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, False),
    ], ids=["unset", "openblas-1", "openblas-2-omp-1", "omp-1", "goto-1-omp-4",
            "openblas-empty-omp-1", "openblas-0-omp-2"])
    def test_pool_size_follows_blas_threads(self, monkeypatch, env, pinned):
        for name in self.BLAS_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert ad._pool_size() == (cores if pinned else 1)


class TestConvLogPowerBranches:
    """conv_log_power_branches: several branches as one node against each
    branch's own conv_log_power."""

    SAMPLES, WIDTH = 40, 12

    @classmethod
    def _branch(cls, rng, n, onsets, float32, zero_crop):
        """(x, kernel values, weight values, crops) of one branch of n crops
        with 3 channels, 2 filters of 5 taps and 3 outputs."""
        if onsets:  # crops of whole trials, some of them sharing samples
            x = rng.normal(size=(3, 3, cls.SAMPLES))
            crops = (rng.integers(3, size=n), rng.integers(cls.SAMPLES - cls.WIDTH + 1, size=n),
                     cls.WIDTH)
        else:
            x, crops = rng.normal(size=(n, 3, cls.WIDTH)), None
        if zero_crop:  # pooled below the log's floor
            x[0 if crops is None else crops[0][0]] = 0.0
        if float32:
            x = x.astype(np.float32)
        return x, rng.normal(size=(2, 5)), rng.normal(size=(3, 2, 3)), crops

    @staticmethod
    def _leaves(branch):
        x, kern, w, crops = branch
        return x, ad.Tensor(kern, requires_grad=True), ad.Tensor(w, requires_grad=True), crops

    @given(specs=st.lists(st.tuples(st.integers(1, 2 * ad._CHUNK + 3), st.booleans(),
                                    st.booleans(), st.booleans()),
                          min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 16))
    @example(specs=[(1, False, False, False)], seed=0)                      # one branch, one crop
    @example(specs=[(30, True, True, False), (1, True, False, False), (7, False, False, True),
                    (2 * ad._CHUNK + 3, True, False, True), (8, False, True, False)], seed=1)
    @example(specs=[(1, True, True, True), (1, False, False, False)], seed=2)
    @settings(max_examples=40, deadline=None)
    def test_node_is_the_per_branch_calls(self, specs, seed):
        rng = np.random.default_rng(seed)
        branches = [self._branch(rng, *spec) for spec in specs]
        want = []
        for branch in branches:
            x, k, w, crops = self._leaves(branch)
            out = ad.conv_log_power(x, k, w, 4, 3, crops)
            ad.tsum(ad.square(out)).backward()
            want.append([out.values.tobytes(), k.grad.tobytes(), w.grad.tobytes()])
        for size in (1, 2, 3):
            leaves = [self._leaves(branch) for branch in branches]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "_pool_size", lambda: size)
                outs = ad.conv_log_power_branches(leaves, 4, 3)
                ad.add_n([ad.tsum(ad.square(out)) for out in outs]).backward()
            node = outs[0] if len(outs) == 1 else outs[0]._parents[0]
            assert all(len(outs) == 1 or out._parents == (node,) for out in outs)
            assert node._parents == tuple(t for _, k, w, _ in leaves for t in (k, w))
            assert node.values.tobytes() == b"".join(v for v, _, _ in want)
            assert [[out.values.tobytes(), k.grad.tobytes(), w.grad.tobytes()]
                    for out, (_, k, w, _) in zip(outs, leaves)] == want

    def test_refuses_a_crop_that_is_not_a_batch(self):
        rng = np.random.default_rng(3)
        rows = self._branch(rng, 4, False, False, False)
        single = (rows[0][2], *rows[1:])  # [channels, time]: one crop, not a batch of one
        with pytest.raises(ValueError, match=r"expected \[batch, channels, time\] input, got 2-d"):
            ad.conv_log_power_branches([self._leaves(rows), self._leaves(single)], 4, 3)
        batch_of_one = (rows[0][2:3], *rows[1:])
        outs = ad.conv_log_power_branches([self._leaves(rows), self._leaves(batch_of_one)], 4, 3)
        assert outs[0].shape == (4, 3, 2) and outs[1].shape == (1, 3, 2)

    def test_branch_without_gradient_gets_none(self):
        # branch 0 is unused, branch 2 is used with a zero weight: neither
        # gets a gradient, and branch 1's is its own call's
        rng = np.random.default_rng(4)
        branches = [self._branch(rng, n, onsets, False, False)
                    for n, onsets in ((5, True), (9, False), (3, True))]
        leaves = [self._leaves(branch) for branch in branches]
        outs = ad.conv_log_power_branches(leaves, 4, 3)
        ad.add(ad.tsum(ad.square(outs[1])), ad.scale(ad.tsum(outs[2]), 0.0)).backward()
        x, k, w, crops = self._leaves(branches[1])
        ad.tsum(ad.square(ad.conv_log_power(x, k, w, 4, 3, crops))).backward()
        assert leaves[1][1].grad.tobytes() == k.grad.tobytes()
        assert leaves[1][2].grad.tobytes() == w.grad.tobytes()
        assert all(t.grad is None for i in (0, 2) for t in leaves[i][1:3])

    def test_refuses_branches_of_other_shapes(self):
        rng = np.random.default_rng(5)
        a, b = (self._leaves(self._branch(rng, 2, False, False, False)) for _ in range(2))
        with pytest.raises(ValueError, match="at least one branch"):
            ad.conv_log_power_branches([], 4, 3)
        other_kernels = (b[0], ad.Tensor(np.zeros((2, 4))), b[2], b[3])
        with pytest.raises(ValueError, match="share kernel and weight shapes"):
            ad.conv_log_power_branches([a, other_kernels], 4, 3)
        other_width = (b[0], b[1], b[2], ([0], [0], 11))
        with pytest.raises(ValueError, match="share kernel and weight shapes"):
            ad.conv_log_power_branches([a, other_width], 4, 3)


class TestMeanPool:
    def test_constant_input(self):
        out = ad.mean_pool(np.full((1, 2, 10), 3.5), 4, 2)
        np.testing.assert_allclose(out.values, np.full((1, 2, 4), 3.5))

    def test_window_means(self):
        out = ad.mean_pool(np.array([[[1., 2., 3., 4.]]]), 2, 2)
        np.testing.assert_allclose(out.values, [[[1.5, 3.5]]])

    def test_global_mean(self):
        x = np.arange(6, dtype=float)[None, None]
        out = ad.mean_pool(x, 6, 1)
        np.testing.assert_allclose(out.values, [[[2.5]]])

    def test_width_exceeds_time(self):
        with pytest.raises(ValueError, match="pool width 4 exceeds time extent 3"):
            ad.mean_pool(np.zeros((1, 1, 3)), 4, 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 3, 17))
        np.testing.assert_allclose(ad.mean_pool(x, 5, 3).values[0], naive_mean_pool(x[0], 5, 3),
                                   atol=1e-12)

    @given(width=st.integers(1, 30), stride=st.integers(1, 20), n_out=st.integers(1, 12),
           slack=st.integers(0, 3), batch=st.integers(1, 2), seed=st.integers(0, 2 ** 16))
    @example(width=4, stride=6, n_out=5, slack=2, batch=2, seed=0)    # width < stride
    @example(width=7, stride=3, n_out=6, slack=1, batch=1, seed=1)    # not a multiple
    @example(width=5, stride=1, n_out=9, slack=0, batch=2, seed=2)    # stride 1
    @settings(max_examples=150, deadline=None)
    def test_matrix_gradient_matches_scatter(self, width, stride, n_out, slack, batch, seed):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(batch, 3, (n_out - 1) * stride + width + slack)),
                      requires_grad=True)
        out = ad.mean_pool(x, width, stride)
        gout = rng.normal(size=out.shape)
        (got,) = out._backward(gout)
        want = np.zeros_like(x.values)
        spread = np.broadcast_to((gout / width)[..., None], gout.shape + (width,))
        ad._scatter_windows(want, spread, stride)
        assert_rel_close(got, want)


def loop_scatter_windows(target, windowed, stride):
    """The per-offset loop `_scatter_windows` replaces: one strided add per
    window column, in increasing offset."""
    n_out, width = windowed.shape[-2], windowed.shape[-1]
    for j in range(width):
        target[..., j:j + (n_out - 1) * stride + 1:stride] += windowed[..., j]


class TestScatterWindows:
    @given(width=st.integers(1, 30), stride=st.integers(1, 20), n_out=st.integers(1, 12),
           slack=st.integers(0, 3), lead=st.lists(st.integers(1, 3), max_size=2),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_offset_loop(self, width, stride, n_out, slack, lead, seed):
        # covers width < stride, width not a multiple of stride, and stride 1
        # (the conv_time input gradient)
        rng = np.random.default_rng(seed)
        windowed = rng.normal(size=(*lead, n_out, width))
        extent = (n_out - 1) * stride + width + slack
        want, got = np.zeros((*lead, extent)), np.zeros((*lead, extent))
        loop_scatter_windows(want, windowed, stride)
        ad._scatter_windows(got, windowed, stride)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width,stride", [(75, 15), (4, 6), (7, 3), (5, 1)])
    def test_pool_gradient_matches_offset_loop(self, width, stride):
        rng = np.random.default_rng(width * stride)
        x = ad.Tensor(rng.normal(size=(3, 2, 2 * width + 3 * stride)), requires_grad=True)
        out = ad.mean_pool(x, width, stride)
        gout = rng.normal(size=out.shape)
        (got,) = out._backward(gout)
        want = np.zeros_like(x.values)
        loop_scatter_windows(want, np.repeat((gout / width)[..., None], width, axis=-1), stride)
        assert_rel_close(got, want)


class TestWindowSums:
    """_window_sums against direct per-window sums, and _window_spread as
    its adjoint."""

    @given(g=st.integers(1, 6), w=st.integers(1, 20), slack=st.integers(0, 40),
           lead=st.lists(st.integers(1, 3), max_size=2), times=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(g=1, w=15, slack=30, lead=[2], times=False, seed=0)       # g = 1
    @example(g=5, w=15, slack=41, lead=[3], times=True, seed=1)        # the paper's pool 75
    @example(g=4, w=1, slack=13, lead=[2, 2], times=False, seed=2)     # width equal to stride
    @example(g=3, w=7, slack=0, lead=[], times=True, seed=3)           # a single window
    @example(g=2, w=8, slack=1, lead=[1], times=False, seed=4)         # one sample past the grid
    @settings(max_examples=200, deadline=None)
    def test_sums_and_adjoint(self, g, w, slack, lead, times, seed):
        rng = np.random.default_rng(seed)
        width, n = g * w, g * w + slack
        a = rng.normal(size=(*lead, n))
        sums = ad._window_sums(a, width, g)
        starts = range(0, n - width + 1, g)
        want = np.stack([a[..., m:m + width].sum(-1) for m in starts], axis=-1)
        assert_rel_close(sums, want)

        grid = rng.normal(size=sums.shape)
        spread = np.full(a.shape, np.nan)  # every sample must be written
        assert ad._window_spread(grid, width, g, spread, np.ones(a.shape)) is spread
        # <spread(G), a> = <G, sums(a)>, against the sum of the terms' sizes
        lhs, rhs = np.sum(spread * a), np.sum(grid * want)
        terms = np.sum(np.abs(grid) * ad._window_sums(np.abs(a), width, g))
        assert abs(lhs - rhs) <= 1e-12 * terms
        # each sample's gradient is the grid summed over the windows that hold it
        direct = np.zeros(a.shape)
        for m, start in enumerate(starts):
            direct[..., start:start + width] += grid[..., m:m + 1]
        assert_rel_close(spread, direct)
        if times:  # the spread, times a factor per sample
            scale = rng.normal(size=a.shape)
            scaled = ad._window_spread(grid, width, g, np.full(a.shape, np.nan), scale)
            assert scaled.tobytes() == (spread * scale).tobytes()


class TestDense:
    def test_identity(self):
        x = np.array([[1., 2., 3.]])
        out = ad.dense(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out.values, x)

    def test_hand_product(self):
        out = ad.dense(np.array([[1., 1.]]), np.array([[1., 2.], [3., 4.]]), np.zeros(2))
        np.testing.assert_allclose(out.values, [[3., 7.]])

    def test_zero_weights_give_bias(self):
        b = np.array([0.5, -0.5])
        out = ad.dense(np.ones((1, 3)), np.zeros((2, 3)), b)
        np.testing.assert_array_equal(out.values, [b])

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent mismatch"):
            ad.dense(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))


class TestSoftmaxXent:
    def test_uniform(self):
        loss, probs = ad.softmax_xent(np.zeros((1, 4)), [1])
        np.testing.assert_allclose(probs, [[0.25] * 4], atol=1e-15)
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_stabilized(self):
        loss, probs = ad.softmax_xent(np.array([[1000., 0.]]), [0])
        assert np.isfinite(loss.item())
        np.testing.assert_allclose(probs, [[1.0, 0.0]], atol=1e-12)

    def test_closed_form(self):
        loss, _ = ad.softmax_xent(np.array([[1., 2., 3.]]), [2])
        expected = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
        assert abs(loss.item() - expected) < 1e-12

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(scale=10, size=(1, rng.integers(2, 9)))
            _, probs = ad.softmax_xent(logits, [0])
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 6))
        _, p1 = ad.softmax_xent(logits, [3])
        _, p2 = ad.softmax_xent(logits + 123.456, [3])
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_xent(np.zeros((1, 3)), [3])

    def test_batch_mean(self):
        logits = np.array([[1., 2., 3.], [3., 2., 1.]])
        loss, probs = ad.softmax_xent(logits, np.array([2, 0]))
        l0, _ = ad.softmax_xent(logits[:1], [2])
        l1, _ = ad.softmax_xent(logits[1:], [0])
        assert abs(loss.item() - 0.5 * (l0.item() + l1.item())) < 1e-12
        assert probs.shape == (2, 3)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = ad.Tensor(np.array([1., 2., 3.]), requires_grad=True)
        ad.tsum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_sum_of_squares(self):
        w = ad.Tensor(np.array([1., 2.]), requires_grad=True)
        ad.tsum(ad.square(w)).backward()
        np.testing.assert_allclose(w.grad, [2., 4.])

    def test_backward_requires_scalar(self):
        w = ad.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.square(w).backward()

    def test_shared_parameter_accumulates(self):
        w = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ad.add(ad.tsum(ad.square(w)), ad.tsum(ad.square(w)))
        loss.backward()
        np.testing.assert_allclose(w.grad, [4., 8.])

    @staticmethod
    def _topological(root):
        order, seen, stack = [], set(), [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
        return order

    def _backward_keeping_every_grad(self, root):
        """Oracle: `backward` as it was before it kept gradients on leaves
        only, storing one on every node it reaches."""
        grads = {id(root): np.ones(())}
        for node in reversed(self._topological(root)):
            gout = grads.pop(id(node), None)
            if gout is None:
                continue
            node.grad = gout.copy() if node.grad is None else node.grad + gout
            if node._backward is not None:
                for parent, pgrad in zip(node._parents, node._backward(gout)):
                    if pgrad is not None and parent.requires_grad:
                        acc = grads.get(id(parent))
                        grads[id(parent)] = pgrad if acc is None else acc + pgrad

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 2, 20))  # data: conv_log_power has no input gradient
        k = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
        d = ad.Tensor(rng.normal(size=(2, 4 * 5)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        leaves = [k, w, d, b]

        def loss():
            h = ad.conv_log_power(x, k, w, 4, 3)
            logits = ad.dense(ad.reshape(h, (3, 20)), d, b)
            ce, _ = ad.softmax_xent(logits, np.array([0, 1, 1]))
            return ad.add(ce, ad.scale(ad.tsum(ad.square(k)), 0.1))  # k used twice

        self._backward_keeping_every_grad(loss())
        want = [t.grad for t in leaves]
        for t in leaves:
            t.zero_grad()
        root = loss()
        root.backward()
        interior = [n for n in self._topological(root) if n._backward is not None]
        assert len(interior) > 5
        assert all(n.grad is None for n in interior)
        for t, ref in zip(leaves, want):
            assert t.grad.tobytes() == ref.tobytes()

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(1, 2, 12)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)

        def loss():
            h = ad.conv_time(x, k, 1)
            h = ad.conv_space(h, w)
            h = ad.square(h)
            h = ad.mean_pool(h, 3, 2)
            return ad.tsum(h)

        assert ad.grad_check(loss, [x, k, w], eps=1e-5) < 1e-4


class TestGradCheck:
    def test_dense_layer(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)

        def loss():
            out, _ = ad.softmax_xent(ad.dense(x, w, b), [1])
            return out

        assert ad.grad_check(loss, [x, w, b], eps=1e-5) < 1e-4

    def test_conv_time_layer(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(1, 2, 10)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def loss():
            return ad.tsum(ad.square(ad.conv_time(x, k, 2)))

        assert ad.grad_check(loss, [x, k], eps=1e-5) < 1e-4

    def test_square_at_zero(self):
        x = ad.Tensor(np.zeros(3), requires_grad=True)
        ad.tsum(ad.square(x)).backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_rejects_nonscalar(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.square(x), [x])


class TestActivationsAndDropout:
    def test_log_clipped_floor(self):
        x = ad.Tensor(np.array([1e-9, 1.0]), requires_grad=True)
        out = ad.log_clipped(x)
        np.testing.assert_allclose(out.values, [math.log(1e-6), 0.0])
        ad.tsum(out).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_tanh_gradient(self):
        x = ad.Tensor(np.array([0.3, -0.7]), requires_grad=True)

        def loss():
            return ad.tsum(ad.tanh(x))

        assert ad.grad_check(loss, [x], eps=1e-5) < 1e-4

    def test_dropout_rate_zero_identity(self):
        x = ad.Tensor(np.arange(4.0), requires_grad=True)
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_dropout_mask_semantics(self):
        rng = np.random.default_rng(9)
        x = ad.Tensor(np.ones(1000), requires_grad=True)
        out = ad.dropout(x, 0.5, rng)
        vals = np.unique(out.values)
        assert set(vals).issubset({0.0, 2.0})
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, out.values)

    def test_dropout_gradient_fixed_mask(self):
        x = ad.Tensor(np.random.default_rng(10).normal(size=8), requires_grad=True)

        def loss():
            rng = np.random.default_rng(1234)
            return ad.tsum(ad.square(ad.dropout(x, 0.5, rng)))

        assert ad.grad_check(loss, [x], eps=1e-5) < 1e-4


@pytest.mark.parametrize("op, args, axes", [
    (ad.conv_time, (np.zeros((2, 9)), np.zeros((3, 4))), "batch, channels, time"),
    (ad.conv_space, (np.zeros((3, 2, 9)), np.zeros((4, 3, 2))),
     "batch, n_filters, channels, time"),
    (ad.mean_pool, (np.zeros((2, 9)), 3, 2), "batch, features, time"),
    (ad.dense, (np.zeros(5), np.zeros((3, 5)), np.zeros(3)), "batch, features"),
    (ad.softmax_xent, (np.zeros(3), [1]), "batch, classes"),
    (ad.conv_log_power, (np.zeros((2, 12)), np.zeros((3, 4)), np.zeros((4, 3, 2)), 3, 2),
     "batch, channels, time"),
], ids=["conv_time", "conv_space", "mean_pool", "dense", "softmax_xent", "conv_log_power"])
def test_ops_refuse_a_single_sample(op, args, axes):
    # one sample is a batch of one: the input without its batch axis is refused
    with pytest.raises(ValueError, match=rf"expected \[{axes}\] input, got {args[0].ndim}-d"):
        op(*args)
    op(args[0][None], *args[1:])


def test_add_refuses_a_python_scalar():
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.add(ad.Tensor(np.ones(3)), 1.0)


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 3, 30))
    k = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 4, 3))

    def run():
        h = ad.conv_time(x, k, 1)
        h = ad.conv_space(h, w)
        h = ad.mean_pool(ad.square(h), 5, 3)
        return ad.log_clipped(h).values

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)
