import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsnet import autodiff as ad
from scsnet.mmd import (
    LAYER_WEIGHTS,
    bandwidth_mean_l2,
    layered_class_mmd,
    mmd2_biased,
    multi_source_mmd,
    transfer_loss,
)
from tests.conftest import assert_rel_close


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

    def test_non_finite_rows_refused_naming_the_side(self):
        # a NaN distance used to fail `mean > 0` and fall back to 1.0
        with pytest.raises(ValueError, match="x feature set holds non-finite"):
            bandwidth_mean_l2([[0.0, 1.0], [np.nan, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="y feature set holds non-finite"):
            bandwidth_mean_l2([[0.0, 1.0]], [[1.0, np.inf]])


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

    @pytest.mark.parametrize("sigma2", [None, 1.0])
    def test_non_finite_rows_refused_naming_the_side(self, sigma2):
        bad = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="x feature set holds non-finite"):
            mmd2_biased(bad, [[1.0, 1.0]], sigma2)
        with pytest.raises(ValueError, match="y feature set holds non-finite"):
            mmd2_biased([[1.0, 1.0]], ad.Tensor([[0.0, -np.inf]]), sigma2)

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


    def test_non_integer_labels_refused(self):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="target labels must be a vector of integers"):
            layered_class_mmd([x] * 3, [x[:1]] * 3, [0.5, 1.0], [0])
        with pytest.raises(ValueError, match="source 1 labels must be a vector of integers"):
            layered_class_mmd([x] * 3, [x[:1]] * 3, [0, 1], [0.5])
        with pytest.raises(ValueError, match="labels must be a vector of integers"):
            layered_class_mmd([x] * 3, [x] * 3, [[0], [1]], [[0], [1]])

    def test_non_finite_features_refused_naming_the_side(self):
        rng = np.random.default_rng(15)
        t_feats = self._three_layers(rng, 3)
        s_feats = self._three_layers(rng, 3)
        s_feats[1][2, 0] = np.nan
        labels = np.array([0, 1, 0])
        with pytest.raises(ValueError, match="source 1 layer 1 feature set holds non-finite"):
            layered_class_mmd(t_feats, s_feats, labels, labels)
        with pytest.raises(ValueError, match="target layer 1 feature set holds non-finite"):
            layered_class_mmd(s_feats, t_feats, labels, labels)


def per_source_composition(branch_feats, branch_labels, target, sigma2=None):
    """The discrepancy as one `layered_class_mmd` per source built it before
    the multi-source node: per source and layer, the mean over shared classes
    of one mmd2_biased node between row gathers, weighted by the layer, then
    summed over the sources. Returns (total, {source: per-layer terms})."""
    t_labels = np.asarray(branch_labels[target])
    terms, parts = [], {}
    for s, (feats, labels) in enumerate(zip(branch_feats, branch_labels)):
        if s == target:
            continue
        labels = np.asarray(labels)
        shared = sorted(set(t_labels.tolist()) & set(labels.tolist()))
        if not shared:
            parts[s] = (0.0,) * len(LAYER_WEIGHTS)
            continue
        per_layer = []
        for t_f, s_f, w in zip(branch_feats[target], feats, LAYER_WEIGHTS):
            pairs = [mmd2_biased(ad.take_rows(t_f, np.flatnonzero(t_labels == c)),
                                 ad.take_rows(s_f, np.flatnonzero(labels == c)), sigma2)
                     for c in shared]
            per_layer.append(ad.scale(ad.scale(ad.add_n(pairs), 1.0 / len(pairs)), w))
        parts[s] = tuple(layer.item() for layer in per_layer)
        terms.append(ad.add_n(per_layer))
    total = ad.add_n(terms) if terms else ad.Tensor(np.asarray(0.0))
    return total, parts


def _value_and_grads(loss, feats):
    if loss.requires_grad:
        loss.backward()
    grads = [np.zeros(f.shape) if f.grad is None else f.grad for layers in feats for f in layers]
    return np.asarray(loss.item()), np.concatenate([g.ravel() for g in grads])


# branch labels (2-5 branches, classes 0-2) and a target index other than 0
branch_cases = st.integers(2, 5).flatmap(lambda b: st.tuples(
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6), min_size=b, max_size=b),
    st.integers(1, b - 1)))


class TestMultiSourceMmd:
    """One node per layer for every source equals the per-source composition."""

    @settings(max_examples=60, deadline=None)
    @given(case=branch_cases, seed=st.integers(0, 2**16),
           sigma2=st.sampled_from([None, 0.5, 3.0]), coincide=st.booleans())
    # source 2 shares no class with the target
    @example(case=([[0, 1], [0, 0, 1], [2, 2]], 1), seed=0, sigma2=None, coincide=False)
    # source 2 shares only some of the target's classes
    @example(case=([[0, 1, 2, 0], [0, 1, 1, 2], [1, 1, 3]], 1), seed=1, sigma2=None,
             coincide=False)
    # one row per class on both sides
    @example(case=([[0, 1, 2], [2, 1, 0], [1, 0, 2]], 2), seed=2, sigma2=None, coincide=False)
    # a given sigma2 for every pair
    @example(case=([[0, 1, 0, 1], [1, 1, 0], [0, 0, 1, 2], [2, 1]], 3), seed=3, sigma2=2.0,
             coincide=False)
    # every class-0 row coincides, so each class-0 pair takes the 1.0 fallback
    @example(case=([[0, 0, 1], [0, 0, 1, 1], [0, 1, 1]], 1), seed=4, sigma2=None, coincide=True)
    @example(case=([[0, 0], [0, 0, 0], [0]], 2), seed=5, sigma2=None, coincide=True)
    def test_matches_per_source_composition(self, case, seed, sigma2, coincide):
        labels, target = case
        rng = np.random.default_rng(seed)
        widths = (3, 1, 4)
        values = [[rng.normal(size=(len(v), d)) + rng.normal() for d in widths] for v in labels]
        if coincide:
            # zero rows: both paths then give exact zeros for these pairs
            for v, layers in zip(labels, values):
                for f in layers:
                    f[np.asarray(v) == 0] = 0.0

        def tensors():
            return [[ad.Tensor(f.copy(), requires_grad=True) for f in layers]
                    for layers in values]

        got_feats, want_feats = tensors(), tensors()
        got, parts = multi_source_mmd(got_feats, labels, target, sigma2)
        want, want_parts = per_source_composition(want_feats, labels, target, sigma2)
        got_value, got_grads = _value_and_grads(got, got_feats)
        want_value, want_grads = _value_and_grads(want, want_feats)
        assert_rel_close(got_value, want_value)
        assert_rel_close(got_grads, want_grads)
        assert sorted(parts) == sorted(want_parts) == [b for b in range(len(labels))
                                                       if b != target]
        assert_rel_close(np.array([parts[s] for s in sorted(parts)]),
                         np.array([want_parts[s] for s in sorted(parts)]))
        assert math.isclose(sum(map(sum, parts.values())), got.item(), rel_tol=1e-12)
        for s in parts:
            if not set(labels[s]) & set(labels[target]):
                assert all(f.grad is None for f in got_feats[s]), s

    def test_one_node_per_layer_over_every_branch(self):
        rng = np.random.default_rng(16)
        feats = [[ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True) for _ in range(3)]
                 for _ in range(4)]
        labels = [np.array([0, 1, 0, 1])] * 4
        loss, _ = multi_source_mmd(feats, labels, 2)
        assert len(loss._parents) == len(LAYER_WEIGHTS)
        for layer, node in enumerate(loss._parents):
            assert [id(p) for p in node._parents] == [id(f[layer]) for f in feats]

    def test_malformed_input_refused(self):
        x = np.zeros((2, 3))
        labels = np.array([0, 1])
        with pytest.raises(ValueError, match="one label vector per branch"):
            multi_source_mmd([[x] * 3] * 3, [labels] * 2, 1)
        with pytest.raises(ValueError, match="target index 3 outside 3 branches"):
            multi_source_mmd([[x] * 3] * 3, [labels] * 3, 3)
        with pytest.raises(ValueError, match="source 2 labels do not align"):
            multi_source_mmd([[x] * 3] * 3, [labels, labels, labels[:1]], 0)
        with pytest.raises(ValueError, match="layer 2 differs in width"):
            multi_source_mmd([[x] * 3, [x, x, np.zeros((2, 4))]], [labels] * 2, 0)
        with pytest.raises(ValueError, match="source 0 layer 0 feature set holds non-finite"):
            multi_source_mmd([[np.full((2, 3), np.inf), x, x], [x] * 3], [labels] * 2, 1)


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
