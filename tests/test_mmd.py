import math

import numpy as np
import pytest

from scsnet import autodiff as ad
from scsnet.mmd import (
    LAYER_WEIGHTS,
    bandwidth_mean_l2,
    layered_class_mmd,
    mmd2_biased,
    transfer_loss,
)


def naive_mean_l2(x, y):
    """Double-loop oracle over unordered distinct pairs of the union."""
    pts = np.vstack([x, y])
    dists = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dists.append(np.linalg.norm(pts[i] - pts[j]))
    if not dists or np.mean(dists) == 0.0:
        return 1.0
    return float(np.mean(dists))


def naive_mmd2(x, y, sigma2):
    """Triple-sum oracle for the biased estimator."""
    def k(a, b):
        return math.exp(-np.sum((a - b) ** 2) / (2.0 * sigma2))

    m, n = len(x), len(y)
    xx = sum(k(a, b) for a in x for b in x) / m**2
    yy = sum(k(a, b) for a in y for b in y) / n**2
    xy = sum(k(a, b) for a in x for b in y) / (m * n)
    return xx + yy - 2.0 * xy


class TestBandwidth:
    def test_identical_points_fallback(self):
        x = np.array([[1.0, 2.0]])
        assert bandwidth_mean_l2(x, x) == 1.0

    def test_single_pair(self):
        assert bandwidth_mean_l2(np.array([[0.0, 0.0]]), np.array([[0.0, 2.0]])) == 2.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 3))
        assert abs(bandwidth_mean_l2(x, y) - naive_mean_l2(x, y)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bandwidth_mean_l2(np.zeros((2, 3)), np.zeros((2, 4)))


class TestMmd2Biased:
    def test_identical_multisets_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 4))
        assert abs(mmd2_biased(x, x.copy()).item()) <= 1e-12

    def test_single_pair_closed_form(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[0.0, 2.0]])
        # bandwidth rule gives sigma2 = 2, so MMD^2 = 2 - 2 exp(-4 / (2*2))
        got = mmd2_biased(x, y).item()
        assert abs(got - (2.0 - 2.0 * math.exp(-1.0))) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triple_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 3)) + 0.5
        sigma2 = bandwidth_mean_l2(x, y)
        got = mmd2_biased(x, y, sigma2).item()
        assert abs(got - naive_mmd2(x, y, sigma2)) < 1e-12
        # and via the batch-derived bandwidth path
        assert abs(mmd2_biased(x, y).item() - naive_mmd2(x, y, sigma2)) < 1e-12

    def test_given_sigma2_overrides_the_bandwidth_rule(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((6, 3))
        fixed = mmd2_biased(x, y, 2.0).item()
        assert abs(fixed - naive_mmd2(x, y, 2.0)) < 1e-12
        assert abs(fixed - naive_mmd2(x, y, bandwidth_mean_l2(x, y))) > 1e-3

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 2))
        y = rng.standard_normal((11, 2))
        assert abs(mmd2_biased(x, y).item() - mmd2_biased(y, x).item()) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.standard_normal((rng.integers(1, 8), 3))
            y = rng.standard_normal((rng.integers(1, 8), 3))
            assert mmd2_biased(x, y).item() >= -1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mmd2_biased(np.zeros((0, 3)), np.zeros((2, 3)))

    def test_monotone_in_mean_gap(self):
        rng = np.random.default_rng(4)
        means = []
        for gap in (0.0, 1.0, 2.0, 4.0):
            vals = []
            for _ in range(20):
                x = rng.standard_normal((30, 2))
                y = rng.standard_normal((30, 2)) + gap
                vals.append(mmd2_biased(x, y, 4.0).item())
            means.append(np.mean(vals))
        assert means[0] <= means[1] <= means[2] <= means[3]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        y = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)

        def loss():
            return mmd2_biased(x, y, 1.7)

        assert ad.grad_check(loss, [x, y], eps=1e-5) < 1e-4

    def test_gradient_with_batch_bandwidth(self):
        # the bandwidth recomputes from perturbed batches but carries no
        # gradient itself; the check stays within tolerance regardless
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((4, 2)) * 2.0, requires_grad=True)
        y = ad.Tensor(rng.standard_normal((4, 2)) + 1.0, requires_grad=True)
        sigma2 = bandwidth_mean_l2(x.values, y.values)

        def loss():
            return mmd2_biased(x, y, sigma2)

        assert ad.grad_check(loss, [x, y], eps=1e-5) < 1e-4


class TestLayeredClassMmd:
    def _three_layers(self, rng, rows, dims=(3, 4, 5)):
        return [rng.standard_normal((rows, d)) for d in dims]

    def test_equal_layer_values_pass_through(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 4)) + 1.0
        labels = np.zeros(6, dtype=int)
        got = layered_class_mmd([x, x, x], [y, y, y], labels, labels).item()
        want = mmd2_biased(x, y).item()
        assert abs(got - want) < 1e-12

    def test_identical_batches_zero(self):
        rng = np.random.default_rng(8)
        feats = self._three_layers(rng, 8)
        labels = np.array([0, 1, 0, 1, 2, 2, 0, 1])
        got = layered_class_mmd(feats, [f.copy() for f in feats], labels, labels.copy())
        assert abs(got.item()) <= 1e-12

    def _hand_composition(self, sigma2):
        rng = np.random.default_rng(9)
        t_labels = np.array([0, 0, 1, 1])
        s_labels = np.array([1, 0, 1, 0])
        t_feats = self._three_layers(rng, 4)
        s_feats = [f + 0.5 for f in self._three_layers(rng, 4)]
        got = layered_class_mmd(t_feats, s_feats, t_labels, s_labels, sigma2).item()

        weights = (1 / 6, 1 / 3, 1 / 2)
        assert LAYER_WEIGHTS == weights
        want = 0.0
        for w, tf, sf in zip(weights, t_feats, s_feats):
            per_class = []
            for c in (0, 1):
                per_class.append(
                    mmd2_biased(tf[t_labels == c], sf[s_labels == c], sigma2).item())
            want += w * np.mean(per_class)
        assert abs(got - want) < 1e-12

    def test_hand_composition(self):
        self._hand_composition(None)

    def test_hand_composition_with_given_sigma2(self):
        self._hand_composition(2.0)

    def test_no_shared_class_is_zero(self):
        rng = np.random.default_rng(10)
        t_feats = self._three_layers(rng, 3)
        s_feats = self._three_layers(rng, 3)
        got = layered_class_mmd(t_feats, s_feats, np.array([0, 0, 0]), np.array([1, 1, 1]))
        assert got.item() == 0.0

    def test_wrong_layer_count(self):
        rng = np.random.default_rng(11)
        feats = self._three_layers(rng, 3)
        with pytest.raises(ValueError):
            layered_class_mmd(feats[:2], feats[:2], np.zeros(3), np.zeros(3))

    def test_gradient_flows_to_features(self):
        rng = np.random.default_rng(13)
        t_feats = [ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(3)]
        s_feats = [ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(3)]
        t_labels = np.array([0, 1, 0, 1])
        s_labels = np.array([0, 0, 1, 1])

        def loss():
            return layered_class_mmd(t_feats, s_feats, t_labels, s_labels, 2.0)

        assert ad.grad_check(loss, t_feats + s_feats, eps=1e-5) < 1e-4


class TestTransferLoss:
    def test_lambda_zero_returns_classification_loss_exactly(self):
        lc = ad.Tensor(np.asarray(0.731))
        mmds = [ad.Tensor(np.asarray(0.2)), ad.Tensor(np.asarray(0.3))]
        assert transfer_loss(lc, mmds, 0.0).item() == lc.item()

    def test_arithmetic(self):
        lc = ad.Tensor(np.asarray(1.0))
        mmds = [ad.Tensor(np.asarray(0.2)), ad.Tensor(np.asarray(0.3))]
        assert abs(transfer_loss(lc, mmds, 1.0).item() - 1.5) < 1e-15

    def test_negative_lambda_rejected(self):
        for lam in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam"):
                transfer_loss(ad.Tensor(np.asarray(1.0)), [], lam)

    def test_gradient_through_both_terms(self):
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        y = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        logits = ad.Tensor(rng.standard_normal(3), requires_grad=True)

        def loss():
            lc, _ = ad.softmax_xent(logits, 1)
            return transfer_loss(lc, [mmd2_biased(x, y, 1.0)], 0.7)

        assert ad.grad_check(loss, [x, y, logits], eps=1e-5) < 1e-4


def test_config_validation():
    x = np.zeros((2, 3))
    labels = np.zeros(2)
    for sigma2 in (-2.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma2"):
            mmd2_biased(x, x + 1.0, sigma2)
        with pytest.raises(ValueError, match="sigma2"):
            layered_class_mmd([x] * 3, [x] * 3, labels, labels, sigma2)
