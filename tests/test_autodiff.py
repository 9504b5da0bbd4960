import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from scsnet import autodiff as ad


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


def assert_rel_close(got, want, rtol=1e-12):
    """Max absolute deviation within rtol of the reference's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


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
        out = ad.conv_time(np.array([[1., 2., 3., 4., 5.]]), np.array([[1.]]), 1)
        np.testing.assert_array_equal(out.values, [[[1, 2, 3, 4, 5]]])

    def test_difference_kernel(self):
        out = ad.conv_time(np.array([[1., 2., 3., 4.]]), np.array([[1., -1.]]), 1)
        np.testing.assert_allclose(out.values, [[[-1., -1., -1.]]])

    def test_stride_shape(self):
        out = ad.conv_time(np.zeros((1, 5)), np.zeros((1, 3)), 2)
        assert out.shape == (1, 1, 2)

    def test_kernel_longer_than_signal(self):
        with pytest.raises(ValueError):
            ad.conv_time(np.zeros((2, 4)), np.zeros((1, 5)), 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c, t = rng.integers(1, 5), rng.integers(4, 20)
            k = rng.integers(1, t + 1)
            s = rng.integers(1, 4)
            f = rng.integers(1, 4)
            x = rng.normal(size=(c, t))
            kern = rng.normal(size=(f, k))
            got = ad.conv_time(x, kern, int(s)).values
            np.testing.assert_allclose(got, naive_conv_time(x, kern, int(s)), atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2, 9))
        kern = rng.normal(size=(4, 3))
        batched = ad.conv_time(x, kern, 2).values
        for b in range(3):
            single = ad.conv_time(x[b], kern, 2).values
            np.testing.assert_array_equal(batched[b], single)

    @given(batch=st.none() | st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
           k=st.integers(1, 8), stride=st.integers(1, 4), n_out=st.integers(1, 8),
           slack=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
    @example(batch=2, c=3, f=2, k=5, stride=3, n_out=4, slack=2, seed=0)     # stride > 1
    @example(batch=2, c=2, f=3, k=7, stride=1, n_out=1, slack=0, seed=1)     # k = T
    @example(batch=None, c=3, f=2, k=4, stride=2, n_out=5, slack=1, seed=2)  # unbatched
    @example(batch=1, c=4, f=3, k=6, stride=1, n_out=6, slack=0, seed=3)     # batch 1
    @settings(max_examples=100, deadline=None)
    def test_matches_tensordot_formulas(self, batch, c, f, k, stride, n_out, slack, seed):
        rng = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        x = ad.Tensor(rng.normal(size=(*lead, c, (n_out - 1) * stride + k + slack)),
                      requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(f, k)), requires_grad=True)
        out = ad.conv_time(x, kern, stride)
        gout = rng.normal(size=out.shape)
        got = (out.values, *out._backward(gout))
        want = tensordot_conv_time(x.values.reshape(-1, c, x.shape[-1]), kern.values, stride,
                                   gout.reshape(-1, *out.shape[-3:]))
        for g, w in zip(got, want):
            assert_rel_close(g, w.reshape(g.shape))

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
                ad.conv_time(np.zeros((1, t)), np.zeros((2, k)), s)
        else:
            out = ad.conv_time(np.zeros((1, t)), np.zeros((2, k)), s)
            assert out.shape == (2, 1, (t - k) // s + 1)


class TestConvSpace:
    def test_zero_weights(self):
        out = ad.conv_space(np.ones((2, 3, 4)), np.zeros((1, 2, 3)))
        np.testing.assert_array_equal(out.values, np.zeros((1, 4)))

    def test_per_timepoint_weighted_sum(self):
        x = np.array([[[1., 1., 1.], [2., 2., 2.]]])  # 1 filter, 2 channels, 3 samples
        w = np.array([[[1., 1.]]])
        out = ad.conv_space(x, w)
        np.testing.assert_allclose(out.values, [[3., 3., 3.]])

    def test_leading_extent(self):
        out = ad.conv_space(np.zeros((2, 3, 5)), np.zeros((4, 2, 3)))
        assert out.shape == (4, 5)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            ad.conv_space(np.zeros((2, 3, 5)), np.zeros((4, 2, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 6))
        w = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(ad.conv_space(x, w).values, naive_conv_space(x, w), atol=1e-12)

    def test_batched_matches_per_sample(self):
        # a one-trial decode and a whole-set evaluate chunk run the same
        # per-sample matmul, so they agree to the bit
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 5, 7))
        w = rng.normal(size=(2, 4, 5))
        batched = ad.conv_space(x, w).values
        for b in range(3):
            single = ad.conv_space(x[b], w).values
            np.testing.assert_array_equal(batched[b], single)

    @given(batch=st.none() | st.integers(1, 3), f=st.integers(1, 5), c=st.integers(1, 5),
           o=st.integers(1, 5), t=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    @example(batch=None, f=3, c=4, o=2, t=6, seed=0)  # unbatched
    @example(batch=1, f=4, c=2, o=3, t=9, seed=1)     # batch 1
    @settings(max_examples=100, deadline=None)
    def test_matches_einsum_formulas(self, batch, f, c, o, t, seed):
        rng = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        x = ad.Tensor(rng.normal(size=(*lead, f, c, t)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(o, f, c)), requires_grad=True)
        out = ad.conv_space(x, w)
        gout = rng.normal(size=out.shape)
        got = (out.values, *out._backward(gout))
        want = einsum_conv_space(x.values.reshape(-1, f, c, t), w.values,
                                 gout.reshape(-1, o, t))
        for g, v in zip(got, want):
            assert_rel_close(g, v.reshape(g.shape))


def five_op_chain(x, kernels, weights, pool_width, pool_stride):
    """The ops conv_log_power fuses, one graph node each."""
    h = ad.conv_space(ad.conv_time(x, kernels, 1), weights)
    return ad.log_clipped(ad.mean_pool(ad.square(h), pool_width, pool_stride))


class TestConvTimeSpace:
    """conv_log_power: the fused temporal and spatial conv, with the square,
    mean pool and log that follow it in the shallow block."""

    @staticmethod
    def _grads(op, x, k, w, pool_width, pool_stride):
        for t in (x, k, w):
            t.zero_grad()
        out = op(x, k, w, pool_width, pool_stride)
        ad.tsum(ad.square(out)).backward()
        return out.values, x.grad, k.grad, w.grad

    @given(batch=st.none() | st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
           o=st.integers(1, 4), k=st.integers(1, 8), pool_width=st.integers(1, 10),
           pool_stride=st.integers(1, 6), slack=st.integers(0, 12), zero_crop=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(batch=3, c=2, f=3, o=2, k=5, pool_width=4, pool_stride=3, slack=7,
             zero_crop=False, seed=0)                                     # stride > 1
    @example(batch=2, c=3, f=2, o=3, k=4, pool_width=9, pool_stride=2, slack=0,
             zero_crop=False, seed=1)                                     # width == T'
    @example(batch=3, c=2, f=2, o=2, k=3, pool_width=3, pool_stride=2, slack=5,
             zero_crop=True, seed=2)                                      # pooled below the floor
    @example(batch=None, c=3, f=2, o=2, k=4, pool_width=5, pool_stride=2, slack=4,
             zero_crop=False, seed=3)                                     # unbatched
    @settings(max_examples=60, deadline=None)
    def test_matches_five_op_chain(self, batch, c, f, o, k, pool_width, pool_stride, slack,
                                   zero_crop, seed):
        rng = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        values = rng.normal(size=(*lead, c, k - 1 + pool_width + slack))
        first = () if batch is None else 0  # index of the first crop
        if zero_crop:
            values[first] = 0.0
        x = ad.Tensor(values, requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(f, k)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(o, f, c)), requires_grad=True)
        want = self._grads(five_op_chain, x, kern, w, pool_width, pool_stride)
        got = self._grads(ad.conv_log_power, x, kern, w, pool_width, pool_stride)
        assert got[0].shape == (*lead, o, slack // pool_stride + 1)
        for g, v in zip(got, want):
            assert_rel_close(g, v)
        if zero_crop:
            assert np.all(got[0][first] == np.log(ad.LOG_FLOOR))
            assert not np.any(got[1][first])

    def test_gradient_check(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.normal(size=(2, 3, 11)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)

        def loss():
            return ad.tsum(ad.square(ad.conv_log_power(x, k, w, 3, 2)))

        assert ad.grad_check(loss, [x, k, w], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("x_shape,k_shape,w_shape,pool", [
        ((2, 4), (1, 5), (1, 1, 2), (1, 1)),
        ((2, 3, 9), (2, 3), (4, 2, 2), (1, 1)),
        ((3, 9), (2, 3), (4, 3, 3), (1, 1)),
        ((3, 9), (2, 3), (2, 3), (1, 1)),
        ((3, 9), (2, 3), (4, 2, 3), (8, 1)),
        ((3, 9), (2, 3), (4, 2, 3), (2, 0)),
    ], ids=["kernel-longer-than-signal", "channel-extent", "filter-extent", "weights-not-3d",
            "pool-wider-than-conv-output", "pool-stride-zero"])
    def test_rejects_what_the_chain_rejects(self, x_shape, k_shape, w_shape, pool):
        x, k, w = np.zeros(x_shape), np.zeros(k_shape), np.zeros(w_shape)
        with pytest.raises(ValueError) as chain:
            five_op_chain(x, k, w, *pool)
        with pytest.raises(ValueError) as fused:
            ad.conv_log_power(x, k, w, *pool)
        assert str(fused.value) == str(chain.value)


class TestMeanPool:
    def test_constant_input(self):
        out = ad.mean_pool(np.full((2, 10), 3.5), 4, 2)
        np.testing.assert_allclose(out.values, np.full((2, 4), 3.5))

    def test_window_means(self):
        out = ad.mean_pool(np.array([[1., 2., 3., 4.]]), 2, 2)
        np.testing.assert_allclose(out.values, [[1.5, 3.5]])

    def test_global_mean(self):
        x = np.arange(6, dtype=float)[None]
        out = ad.mean_pool(x, 6, 1)
        np.testing.assert_allclose(out.values, [[2.5]])

    def test_width_exceeds_time(self):
        with pytest.raises(ValueError):
            ad.mean_pool(np.zeros((1, 3)), 4, 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 17))
        np.testing.assert_allclose(ad.mean_pool(x, 5, 3).values, naive_mean_pool(x, 5, 3), atol=1e-12)

    @given(width=st.integers(1, 30), stride=st.integers(1, 20), n_out=st.integers(1, 12),
           slack=st.integers(0, 3), batched=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(width=4, stride=6, n_out=5, slack=2, batched=True, seed=0)    # width < stride
    @example(width=7, stride=3, n_out=6, slack=1, batched=False, seed=1)   # not a multiple
    @example(width=5, stride=1, n_out=9, slack=0, batched=True, seed=2)    # stride 1
    @settings(max_examples=150, deadline=None)
    def test_matrix_gradient_matches_scatter(self, width, stride, n_out, slack, batched, seed):
        rng = np.random.default_rng(seed)
        lead = (2, 3) if batched else (3,)
        x = ad.Tensor(rng.normal(size=(*lead, (n_out - 1) * stride + width + slack)),
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


class TestDense:
    def test_identity(self):
        x = np.array([1., 2., 3.])
        out = ad.dense(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out.values, x)

    def test_hand_product(self):
        out = ad.dense(np.array([1., 1.]), np.array([[1., 2.], [3., 4.]]), np.zeros(2))
        np.testing.assert_allclose(out.values, [3., 7.])

    def test_zero_weights_give_bias(self):
        b = np.array([0.5, -0.5])
        out = ad.dense(np.ones(3), np.zeros((2, 3)), b)
        np.testing.assert_array_equal(out.values, b)

    def test_extent_mismatch(self):
        with pytest.raises(ValueError):
            ad.dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))


class TestSoftmaxXent:
    def test_uniform(self):
        loss, probs = ad.softmax_xent(np.zeros(4), 1)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-15)
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_stabilized(self):
        loss, probs = ad.softmax_xent(np.array([1000., 0.]), 0)
        assert np.isfinite(loss.item())
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_closed_form(self):
        loss, _ = ad.softmax_xent(np.array([1., 2., 3.]), 2)
        expected = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
        assert abs(loss.item() - expected) < 1e-12

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(scale=10, size=rng.integers(2, 9))
            _, probs = ad.softmax_xent(logits, 0)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=6)
        _, p1 = ad.softmax_xent(logits, 3)
        _, p2 = ad.softmax_xent(logits + 123.456, 3)
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_xent(np.zeros(3), 3)

    def test_batch_mean(self):
        logits = np.array([[1., 2., 3.], [3., 2., 1.]])
        loss, probs = ad.softmax_xent(logits, np.array([2, 0]))
        l0, _ = ad.softmax_xent(logits[0], 2)
        l1, _ = ad.softmax_xent(logits[1], 0)
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
        x = ad.Tensor(rng.normal(size=(3, 2, 20)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
        d = ad.Tensor(rng.normal(size=(2, 4 * 5)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        leaves = [x, k, w, d, b]

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
        x = ad.Tensor(rng.normal(size=(2, 12)), requires_grad=True)
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
        x = ad.Tensor(rng.normal(size=5), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)

        def loss():
            out, _ = ad.softmax_xent(ad.dense(x, w, b), 1)
            return out

        assert ad.grad_check(loss, [x, w, b], eps=1e-5) < 1e-4

    def test_conv_time_layer(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(2, 10)), requires_grad=True)
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
        out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_dropout_inference_identity(self):
        x = ad.Tensor(np.arange(4.0))
        assert ad.dropout(x, 0.5, training=False) is x

    def test_dropout_mask_semantics(self):
        rng = np.random.default_rng(9)
        x = ad.Tensor(np.ones(1000), requires_grad=True)
        out = ad.dropout(x, 0.5, rng, training=True)
        vals = np.unique(out.values)
        assert set(vals).issubset({0.0, 2.0})
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, out.values)

    def test_dropout_gradient_fixed_mask(self):
        x = ad.Tensor(np.random.default_rng(10).normal(size=8), requires_grad=True)

        def loss():
            rng = np.random.default_rng(1234)
            return ad.tsum(ad.square(ad.dropout(x, 0.5, rng, training=True)))

        assert ad.grad_check(loss, [x], eps=1e-5) < 1e-4


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 30))
    k = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 4, 3))

    def run():
        h = ad.conv_time(x, k, 1)
        h = ad.conv_space(h, w)
        h = ad.mean_pool(ad.square(h), 5, 3)
        return ad.log_clipped(h).values

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)
