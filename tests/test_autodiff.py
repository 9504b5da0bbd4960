import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert got.tobytes() == want.tobytes()


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
