import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph import losses
from jcgraph.graph import Dataset, LabelSet, gen_sbm
from jcgraph.losses import (LOSS_KINDS, ClusterStats, _group_sum, ce_loss, cluster_stats, ic_loss,
                            jc_loss, jc_multilabel_loss, joint_forward,
                            joint_label, loss_fn, marginalize, mixup_loss,
                            predict_joint, scatter_cluster_grad)
from jcgraph.nn import ModelSpec, grad_check, init_params
from jcgraph.partition import ClusterAssignment, partition_metis_like
from jcgraph.trainer import TrainConfig, train, validate


def onehot(idx, c):
    m = np.zeros((len(idx), c))
    m[np.arange(len(idx)), idx] = 1.0
    return m


def clf(w, b):
    return {"clf_w": np.asarray(w, dtype=float), "clf_b": np.asarray(b, dtype=float)}


def assign_of(ids, m=None):
    ids = np.asarray(ids, dtype=np.int64)
    return ClusterAssignment(m or (ids.max() + 1), ids)


class TestClusterStats:
    def test_mean_of_two_onehot_labels(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = LabelSet(2, "s", onehot([0, 1], 2))
        st = cluster_stats(z, labels, np.array([0, 1]), assign_of([0, 0], m=1))
        np.testing.assert_allclose(st.ybar, [[0.5, 0.5]])

    def test_shared_embedding(self):
        v = np.array([2.0, -1.0, 0.5])
        z = np.tile(v, (3, 1))
        labels = LabelSet(2, "s", onehot([0, 1, 0], 2))
        st = cluster_stats(z, labels, np.arange(3), assign_of([0, 0, 0], m=1))
        np.testing.assert_allclose(st.zbar, [v])

    def test_empty_cluster_falls_back_to_global_means(self):
        z = np.array([[1.0], [3.0], [10.0]])
        labels = LabelSet(2, "s", onehot([0, 1, 0], 2))
        st = cluster_stats(z, labels, np.array([0, 1]), assign_of([0, 0, 1], m=2))
        assert st.counts.tolist() == [2, 0]
        np.testing.assert_allclose(st.zbar[1], [2.0])          # mean of labeled
        np.testing.assert_allclose(st.ybar[1], [0.5, 0.5])

    def test_labeled_nodes_only(self):
        z = np.array([[1.0], [100.0]])
        labels = LabelSet(2, "s", onehot([0, 1], 2))
        st = cluster_stats(z, labels, np.array([0]), assign_of([0, 0], m=1))
        np.testing.assert_allclose(st.zbar, [[1.0]])
        np.testing.assert_allclose(st.ybar, [[1.0, 0.0]])

    def test_empty_train_mask(self):
        labels = LabelSet(2, "s", onehot([0], 2))
        with pytest.raises(ValueError):
            cluster_stats(np.zeros((1, 2)), labels, np.array([], dtype=np.int64),
                          assign_of([0], m=1))


class TestGroupSum:
    """The bincount scatter adds in the order np.add.at does, bit for bit."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_add_at(self, seed):
        rng = np.random.default_rng(seed)
        rows, width, groups = (int(v) for v in rng.integers(1, [60, 9, 7]))
        index = rng.integers(0, groups, rows)
        values = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 9, (rows, width))
        values[rng.random(values.shape) < 0.1] = -0.0
        expect = np.zeros((groups, width))
        np.add.at(expect, index, values)
        assert _group_sum(index, values, groups).tobytes() == expect.tobytes()


class TestJointLabel:
    def test_worked_binary_case(self):
        t = joint_label([0.0, 1.0], [0.2, 0.8])
        np.testing.assert_allclose(t, [[0.0, 0.0], [0.2, 0.8]])
        assert t.sum() == pytest.approx(1.0)

    def test_matching_onehots(self):
        t = joint_label([0, 1, 0], [0, 1, 0])
        expect = np.zeros((3, 3))
        expect[1, 1] = 1.0
        np.testing.assert_allclose(t, expect)

    def test_transposed_order(self):
        t = joint_label([0.0, 1.0], [0.2, 0.8])
        np.testing.assert_allclose(np.outer([0.2, 0.8], [0.0, 1.0]), t.T)
        np.testing.assert_allclose(t.T, [[0.0, 0.2], [0.0, 0.8]])

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            joint_label([0.5, 0.5], [0.2, 0.8])  # y not one-hot
        with pytest.raises(ValueError):
            joint_label([0, 1], [0.5, 0.8])  # ybar not a distribution


class TestJointForward:
    def test_single_class(self):
        params = clf(np.zeros((4, 1)), [7.3])
        t = joint_forward(params, np.ones(2), np.ones(2))
        assert t.tolist() == [[1.0]]

    def test_zero_logits_uniform(self):
        params = clf(np.zeros((4, 4)), np.zeros(4))
        t = joint_forward(params, np.ones(2), np.zeros(2))
        np.testing.assert_allclose(t, np.full((2, 2), 0.25))

    def test_hand_softmax(self):
        b = np.log([1.0, 2.0, 3.0, 4.0])
        params = clf(np.zeros((4, 4)), b)
        t = joint_forward(params, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(t, [[0.1, 0.2], [0.3, 0.4]], rtol=1e-12)

    def test_dimension_mismatch(self):
        params = clf(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            joint_forward(params, np.zeros(3), np.zeros(2))


class TestMarginalize:
    def test_outer_product_recovers_y(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(1, 6))
            y = np.zeros(c)
            y[rng.integers(c)] = 1.0
            ybar = rng.dirichlet(np.ones(c))
            np.testing.assert_allclose(marginalize(np.outer(y, ybar)), y, atol=1e-12)

    def test_uniform(self):
        np.testing.assert_allclose(marginalize(np.full((2, 2), 0.25)), [0.5, 0.5])

    def test_row_sums(self):
        np.testing.assert_allclose(marginalize(np.array([[0.1, 0.2], [0.3, 0.4]])), [0.3, 0.7])

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            marginalize(np.array([[0.5, 0.2], [0.4, 0.4]]))


class TestJcLoss:
    def toy(self, ybar, y_idx=1, c=2, h=2):
        labels = LabelSet(c, "s", onehot([y_idx], c))
        z = np.array([[0.3, -0.2]])
        stats = ClusterStats(np.array([[0.1, 0.4]]), np.array([ybar], dtype=float),
                             np.array([3]), np.array([0]), np.array([0]))
        return z, labels, np.array([0]), stats

    def test_single_class_is_zero(self):
        labels = LabelSet(1, "s", np.ones((1, 1)))
        z = np.array([[0.5]])
        stats = ClusterStats(np.array([[0.2]]), np.ones((1, 1)), np.array([1]), np.array([0]),
                             np.array([0]))
        params = clf(np.ones((2, 1)), [0.0])
        r = jc_loss(params, z, labels, np.array([0]), stats)
        assert r.value == 0.0

    def test_uniform_prediction_hand_value(self):
        # target [[0,0],[0.2,0.8]] against uniform 0.25 in both streams:
        # loss = -2 (0.2 log .25 + 0.8 log .25) = 2 log 4
        z, labels, mask, stats = self.toy([0.2, 0.8])
        params = clf(np.zeros((4, 4)), np.zeros(4))
        r = jc_loss(params, z, labels, mask, stats)
        assert r.value == pytest.approx(2 * np.log(4.0), rel=1e-12)
        # for one node the bias gradient sums both streams' logit gradients,
        # p - t: [0.25, 0.25, 0.05, -0.55] + [0.25, 0.05, 0.25, -0.55]
        np.testing.assert_allclose(r.clf_grads["clf_b"], [0.5, 0.3, 0.3, -1.1])

    def test_singleton_cluster(self):
        # node alone in its cluster: target E_aa, loss = -2 log p_aa
        labels = LabelSet(2, "s", onehot([1], 2))
        z = np.array([[0.7, -0.1]])
        assign = assign_of([0], m=1)
        stats = cluster_stats(z, labels, np.array([0]), assign)
        rng = np.random.default_rng(4)
        params = clf(rng.normal(size=(4, 4)), rng.normal(size=4))
        r = jc_loss(params, z, labels, np.array([0]), stats)
        p = joint_forward(params, z[0], stats.zbar[0])
        assert r.value == pytest.approx(-2 * np.log(p[1, 1]), rel=1e-12)

    def test_symmetry_under_role_exchange(self):
        # recompute with the two streams' roles exchanged by hand: identical
        rng = np.random.default_rng(8)
        n, h, c = 5, 3, 3
        z = rng.normal(size=(n, h))
        labels = LabelSet(c, "s", onehot(rng.integers(0, c, n), c))
        assign = assign_of(rng.integers(0, 2, n), m=2)
        mask = np.arange(n)
        stats = cluster_stats(z, labels, mask, assign)
        w, b = rng.normal(size=(2 * h, c * c)), rng.normal(size=c * c)
        r = jc_loss(clf(w, b), z, labels, mask, stats)

        def softmax(l):
            e = np.exp(l - l.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        a = assign.assign[mask]
        zi, zc = z[mask], stats.zbar[a]
        y, yb = labels.matrix[mask], stats.ybar[a]
        # swapped presentation: stream one carries the cluster first
        p_sw1 = softmax(np.concatenate([zc, zi], 1) @ w + b)
        p_sw2 = softmax(np.concatenate([zi, zc], 1) @ w + b)
        t_sw1 = (yb[:, :, None] * y[:, None, :]).reshape(n, c * c)
        t_sw2 = (y[:, :, None] * yb[:, None, :]).reshape(n, c * c)
        mirrored = -((t_sw1 * np.log(p_sw1)).sum(1) + (t_sw2 * np.log(p_sw2)).sum(1)).mean()
        assert r.value == pytest.approx(mirrored, rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, h, c = 4, 2, 3
            z = rng.normal(size=(n, h))
            labels = LabelSet(c, "s", onehot(rng.integers(0, c, n), c))
            assign = assign_of(rng.integers(0, 2, n), m=2)
            stats = cluster_stats(z, labels, np.arange(n), assign)
            params = clf(rng.normal(size=(2 * h, c * c)), rng.normal(size=c * c))
            assert jc_loss(params, z, labels, np.arange(n), stats).value >= 0.0

    def test_predicted_tables_normalized(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(6, 3))
        labels = LabelSet(3, "s", onehot(rng.integers(0, 3, 6), 3))
        assign = assign_of(rng.integers(0, 2, 6), m=2)
        stats = cluster_stats(z, labels, np.arange(6), assign)
        params = clf(rng.normal(size=(6, 9)), rng.normal(size=9))
        probs = predict_joint(params, z, assign, stats)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-9)

    def test_multilabel_rejected(self):
        labels = LabelSet(2, "m", np.array([[1.0, 1.0]]))
        params = clf(np.zeros((4, 4)), np.zeros(4))
        stats = ClusterStats(np.zeros((1, 2)), np.full((1, 2), 0.5), np.array([1]), np.array([0]),
                             np.array([0]))
        with pytest.raises(ValueError):
            jc_loss(params, np.zeros((1, 2)), labels, np.array([0]), stats)


class TestCeLoss:
    def test_perfect_prediction_near_zero(self):
        z = onehot([0, 1], 2) * 50.0
        labels = LabelSet(2, "s", onehot([0, 1], 2))
        r = ce_loss(clf(np.eye(2), np.zeros(2)), z, labels, np.array([0, 1]))
        assert 0.0 <= r.value < 1e-10

    def test_uniform_prediction(self):
        labels = LabelSet(4, "s", onehot([2], 4))
        r = ce_loss(clf(np.zeros((3, 4)), np.zeros(4)), np.ones((1, 3)), labels, np.array([0]))
        assert r.value == pytest.approx(np.log(4.0), rel=1e-12)

    def test_hand_value(self):
        # softmax(log p) = p, so feeding log-probabilities through an identity
        # classifier reproduces the stated predictions exactly
        z = np.log([[0.7, 0.3], [0.1, 0.9]])
        labels = LabelSet(2, "s", onehot([0, 1], 2))
        r = ce_loss(clf(np.eye(2), np.zeros(2)), z, labels, np.array([0, 1]))
        assert r.value == pytest.approx(-(np.log(0.7) + np.log(0.9)) / 2, rel=1e-12)
        assert r.value == pytest.approx(0.23101772979827874)

    def test_multilabel_sigmoid(self):
        labels = LabelSet(2, "m", np.array([[1.0, 0.0]]))
        r = ce_loss(clf(np.zeros((2, 2)), np.zeros(2)), np.ones((1, 2)), labels, np.array([0]))
        assert r.value == pytest.approx(2 * np.log(2.0), rel=1e-12)


class TestIcLoss:
    def test_reduces_to_ce_with_zero_cluster_half(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 3))
        labels = LabelSet(2, "s", onehot([0, 1, 0, 1], 2))
        stats = ClusterStats(np.zeros((1, 3)), np.full((1, 2), 0.5), np.array([4]), np.arange(4),
                             np.zeros(4, dtype=np.int64))
        w_top = rng.normal(size=(3, 2))
        params_ic = clf(np.vstack([w_top, np.zeros((3, 2))]), np.zeros(2))
        params_ce = clf(w_top, np.zeros(2))
        r_ic = ic_loss(params_ic, z, labels, np.arange(4), stats)
        r_ce = ce_loss(params_ce, z, labels, np.arange(4))
        assert r_ic.value == r_ce.value

    def test_uniform_prediction(self):
        labels = LabelSet(2, "s", onehot([1], 2))
        stats = ClusterStats(np.ones((1, 2)), np.full((1, 2), 0.5), np.array([1]), np.array([0]),
                             np.array([0]))
        params = clf(np.zeros((4, 2)), np.zeros(2))
        r = ic_loss(params, np.ones((1, 2)), labels, np.array([0]), stats)
        assert r.value == pytest.approx(np.log(2.0), rel=1e-12)

    def test_hand_computed_concat_ce(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 2))
        labels = LabelSet(2, "s", onehot([0, 1, 1], 2))
        assign = assign_of([0, 1, 1], m=2)
        mask = np.arange(3)
        stats = cluster_stats(z, labels, mask, assign)
        w, b = rng.normal(size=(4, 2)), rng.normal(size=2)
        r = ic_loss(clf(w, b), z, labels, mask, stats)

        con = np.concatenate([z, stats.zbar[assign.assign]], axis=1)
        logits = con @ w + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        expect = -np.log(p[np.arange(3), [0, 1, 1]]).mean()
        assert r.value == pytest.approx(expect, rel=1e-12)


class TestMixupLoss:
    def setup_toy(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 2))
        labels = LabelSet(2, "s", onehot([0, 1, 0, 1], 2))
        assign = assign_of([0, 0, 1, 1], m=2)
        mask = np.arange(4)
        stats = cluster_stats(z, labels, mask, assign)
        params = clf(rng.normal(size=(2, 2)), rng.normal(size=2))
        return params, z, stats, labels, mask

    def test_beta_zero_equals_ce(self):
        params, z, stats, labels, mask = self.setup_toy()
        r0 = mixup_loss(params, z, labels, mask, stats, beta=0.0)
        rce = ce_loss(params, z, labels, mask)
        assert r0.value == rce.value

    def test_uniform_cluster_term(self):
        labels = LabelSet(2, "s", onehot([0, 1], 2))
        z = np.zeros((2, 3))
        assign = assign_of([0, 0], m=1)
        mask = np.arange(2)
        stats = cluster_stats(z, labels, mask, assign)  # ybar = [0.5, 0.5]
        params = clf(np.zeros((3, 2)), np.zeros(2))
        r = mixup_loss(params, z, labels, mask, stats, beta=1.0)
        rce = ce_loss(params, z, labels, mask)
        assert r.value - rce.value == pytest.approx(np.log(2.0), rel=1e-12)

    def test_beta_one_hand_computed(self):
        params, z, stats, labels, mask = self.setup_toy()
        r = mixup_loss(params, z, labels, mask, stats, beta=1.0)
        w, b = params["clf_w"], params["clf_b"]

        def soft_ce(logits, targets):
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return -(targets * np.log(p)).sum(axis=1).mean()

        expect = (soft_ce(z @ w + b, labels.matrix)
                  + soft_ce(stats.zbar @ w + b, stats.ybar))
        assert r.value == pytest.approx(expect, rel=1e-12)


class TestJcMultilabel:
    def test_reduces_to_binary_jc(self):
        rng = np.random.default_rng(6)
        n, h = 5, 2
        z = rng.normal(size=(n, h))
        y_bits = rng.integers(0, 2, n)
        multi = LabelSet(1, "m", y_bits.reshape(-1, 1).astype(float))
        single = LabelSet(2, "s", onehot(y_bits, 2))
        assign = assign_of(rng.integers(0, 2, n), m=2)
        mask = np.arange(n)
        params = clf(rng.normal(size=(2 * h, 4)), rng.normal(size=4))
        st_m = cluster_stats(z, multi, mask, assign)
        st_s = cluster_stats(z, single, mask, assign)
        r_m = jc_multilabel_loss(params, z, multi, mask, st_m)
        r_s = jc_loss(params, z, single, mask, st_s)
        assert r_m.value == pytest.approx(r_s.value, rel=1e-12)
        np.testing.assert_allclose(r_m.d_embeddings, r_s.d_embeddings, rtol=1e-12)

    def test_perfect_prediction_zero(self):
        # y = 1 and ybar = 1 for every task: the target is all mass at (1, 1)
        labels = LabelSet(2, "m", np.ones((2, 2)))
        z = np.ones((2, 1))
        assign = assign_of([0, 0], m=1)
        mask = np.arange(2)
        stats = cluster_stats(z, labels, mask, assign)
        b = np.array([0.0, 0.0, 0.0, 60.0] * 2)
        params = clf(np.zeros((2, 8)), b)
        r = jc_multilabel_loss(params, z, labels, mask, stats)
        assert r.value == pytest.approx(0.0, abs=1e-20)

    def test_two_task_hand_value(self):
        # one node, ybar = [0.5, 0.25], uniform predictions in both streams
        labels = LabelSet(2, "m", np.array([[1.0, 0.0]]))
        z = np.array([[0.4]])
        stats = ClusterStats(np.array([[0.2]]), np.array([[0.5, 0.25]]), np.array([2]), np.array([0]),
                             np.array([0]))
        params = clf(np.zeros((2, 8)), np.zeros(8))
        r = jc_multilabel_loss(params, z, labels, np.array([0]), stats)
        # each task's CE against the uniform 4-way table is -sum(t) log(1/4)
        # and every target table sums to 1, twice per task for the two streams
        assert r.value == pytest.approx(4 * np.log(4.0), rel=1e-12)

    def test_single_label_rejected(self):
        labels = LabelSet(2, "s", onehot([0], 2))
        params = clf(np.zeros((2, 8)), np.zeros(8))
        stats = ClusterStats(np.zeros((1, 1)), np.full((1, 2), 0.5), np.array([1]), np.array([0]),
                             np.array([0]))
        with pytest.raises(ValueError):
            jc_multilabel_loss(params, np.zeros((1, 1)), labels, np.array([0]), stats)


class TestClusterGradientFlow:
    def test_zbar_only_loss_matches_finite_differences(self, sbm12):
        # loss touching embeddings only through the cluster means, including a
        # deliberately unlabeled cluster to exercise the fallback path
        train = sbm12.masks.train
        ids = np.zeros(12, dtype=np.int64)
        ids[6:] = 1
        unlabeled = np.setdiff1d(np.arange(12), train)[:2]
        ids[unlabeled] = 2
        assign = ClusterAssignment(3, ids)
        assert np.bincount(assign.assign[train], minlength=3)[2] == 0

        def zbar_loss(params, z, data):
            st = cluster_stats(z, data.labels, train, assign)
            d_zbar = st.zbar.copy()
            d_emb = np.zeros_like(z)
            scatter_cluster_grad(d_zbar, st, d_emb)
            return 0.5 * float((st.zbar ** 2).sum()), d_emb, {}

        spec = ModelSpec("gcn", 1, 4, 3, 2, 0.0, "independent")
        assert grad_check(spec, zbar_loss, sbm12) < 1e-6

    @pytest.mark.parametrize("rows", ["half-train", "val"])
    @pytest.mark.parametrize("loss", ["jc", "ic", "mixup", "jc-multilabel"])
    def test_loss_mask_other_than_the_stats_rows(self, loss, rows):
        # the means average the train rows, the loss reads other rows: the
        # cluster-mean gradient must still reach the rows the means average
        data = gen_sbm(2, 12, 0.5, 0.1, 3, 0.5, seed=3)
        if loss == "jc-multilabel":
            data = Dataset(data.graph, data.features, LabelSet(2, "m", data.labels.matrix),
                           data.masks)
        assign = partition_metis_like(data.graph, 2, seed=0)
        mask = data.masks.train[::2] if rows == "half-train" else data.masks.val

        def fn(params, z, data):
            st = cluster_stats(z, data.labels, data.masks.train, assign)
            return loss_fn(loss)(params, z, data.labels, mask, st, beta=0.7)

        spec = ModelSpec("gcn", 1, 3, 3, 2, 0.0, LOSS_KINDS[loss].classifier)
        assert grad_check(spec, fn, data) < 1e-4

    def test_repeated_ids_rejected(self, sbm12):
        # d_emb[mask] += ... adds a repeated row's gradient once
        z = sbm12.features
        mask = np.concatenate([sbm12.masks.train, sbm12.masks.train[:2]])
        with pytest.raises(ValueError, match="repeats"):
            ce_loss(clf(np.zeros((3, 2)), np.zeros(2)), z, sbm12.labels, mask)
        with pytest.raises(ValueError, match="repeats"):
            cluster_stats(z, sbm12.labels, mask, assign_of(np.arange(12) % 2))


@pytest.mark.parametrize("kind", sorted(LOSS_KINDS))
def test_every_loss_kind_is_one_call(kind, sbm12, sbm12_multi, monkeypatch):
    """loss_fn(kind) is the module's <kind>_loss, every such loss has one
    signature, a cluster kind refuses to run without stats, and training
    calls the module attribute once per epoch: the call the benchmark's
    tracer wraps."""
    name = kind.replace("-", "_") + "_loss"
    assert loss_fn(kind) is getattr(losses, name)
    assert inspect.signature(loss_fn(kind)) == inspect.signature(ce_loss)

    data = sbm12 if "s" in LOSS_KINDS[kind].label_kinds else sbm12_multi
    cfg = TrainConfig("gcn", 1, 3, 0.0, loss=kind, clusters=2, epochs=2)
    params = init_params(validate(cfg, data), 0)
    z = np.random.default_rng(0).normal(size=(data.num_nodes, 3))
    if LOSS_KINDS[kind].needs_clusters:
        no_stats = f"^{re.escape(kind)} loss needs cluster stats"
        with pytest.raises(ValueError, match=no_stats):
            loss_fn(kind)(params, z, data.labels, data.masks.train)
        with pytest.raises(ValueError, match=no_stats):
            losses.eval_pass(kind, params, z, data.labels, [data.masks.train])

    calls = []
    original = getattr(losses, name)

    def counted(*args, **kwargs):
        calls.append(kind)
        return original(*args, **kwargs)
    monkeypatch.setattr(losses, name, counted)
    train(cfg, data)
    assert calls == [kind, kind]


# each contract check's exact message
@pytest.mark.parametrize("call,message", [
    (lambda: joint_forward(clf(np.zeros((4, 3)), np.zeros(3)), np.zeros(2), np.zeros(2)),
     "classifier does not produce a square joint table"),
    (lambda: marginalize(np.full((2, 3), 1 / 6)), "joint table must be square"),
    (lambda: loss_fn("bogus"), "unknown loss 'bogus'"),
    (lambda: mixup_loss(clf(np.zeros((2, 2)), np.zeros(2)), np.zeros((2, 2)),
                        LabelSet(2, "s", np.eye(2)), np.arange(2), beta=-0.5),
     "beta must be >= 0"),
])
def test_contract_messages(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message
