"""Properties of the value-only eval pass against the training losses."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph import losses
from jcgraph.graph import LabelSet, normalize_adjacency
from jcgraph.nn import ModelSpec, encoder_forward, init_params
from jcgraph.partition import ClusterAssignment
from jcgraph.trainer import LOSS_KINDS

from conftest import all_rows, rng_graph


def softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_probs(kind, params, z, ids, stats, label_kind):
    """The per-kind predictors the eval pass replaced, written out, on the
    rows whose embeddings are z and whose clusters are ids; the cluster kinds
    multiply the concatenation [z, zbar[ids]] by the whole classifier."""
    w, b = params["clf_w"], params["clf_b"]
    if kind in ("ce", "mixup"):
        return losses.predict_independent(params, z, label_kind)
    logits = np.concatenate([z, stats.zbar[ids]], axis=1) @ w + b
    if kind == "jc":
        c = int(round(np.sqrt(w.shape[1])))
        return softmax(logits).reshape(len(z), c, c).sum(axis=2)
    if kind == "ic":
        return softmax(logits)
    p = softmax(logits.reshape(len(z), -1, 4))
    return p[:, :, 2] + p[:, :, 3]


def random_case(seed, kind, multilabel):
    """A random small graph, its gcn embeddings, labels, masks and a partition
    with at least one cluster that holds no labeled node."""
    rng = np.random.default_rng(seed)
    n, c, m = int(rng.integers(8, 30)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
    graph = rng_graph(rng, n, 0.3)
    # 16 units: a logit GEMM over all n rows gives other bits than one over
    # the split rows for most of these head shapes (rarely so below ~16 units)
    spec = ModelSpec("gcn", 1, 16, 4, c, 0.0, LOSS_KINDS[kind][0])
    params = init_params(spec, seed)
    params["clf_b"] = rng.normal(size=params["clf_b"].shape)
    features = rng.normal(size=(n, 4))
    z, _ = encoder_forward(params, all_rows(spec, normalize_adjacency(graph), features))
    if multilabel:
        labels = LabelSet(c, "m", (rng.random((n, c)) < 0.4).astype(float))
    else:
        labels = LabelSet(c, "s", np.eye(c)[rng.integers(0, c, n)])
    order = rng.permutation(n)
    train = np.sort(order[:int(rng.integers(1, n // 2))])
    rest = order[train.size:]
    ids = rng.integers(0, m - 1, n)
    ids[rest[:int(rng.integers(1, rest.size + 1))]] = m - 1
    assign = ClusterAssignment(m, ids)
    others = [np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)) for _ in range(2)]
    return params, z, labels, train, others, assign


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(LOSS_KINDS)),
       multilabel=st.booleans(), beta=st.sampled_from([0.0, 0.5, 1.3]))
def test_eval_pass_matches_losses_and_predictors(seed, kind, multilabel, beta):
    multilabel = kind == "jc-multilabel" or (kind == "ce" and multilabel)
    params, z, labels, train, others, assign = random_case(seed, kind, multilabel)
    stats = losses.cluster_stats(z, labels, train, assign)
    assert (stats.counts == 0).any()
    if kind == "ce":
        assign, stats = None, None
    splits = [train, *others]
    probs, values = losses.eval_pass(kind, params, z, labels, splits, stats, beta)
    for mask, value in zip(splits, values):
        ref = losses.loss_fn(kind)(params, z, labels, mask, stats, beta=beta).value
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
    # predictions exist on the split rows only: one block per split. A
    # one-letter kind's logits are the predictor's one product, bit for bit;
    # a cluster kind sums its letters' products, another order of summation
    rows = np.unique(np.concatenate(splits))
    ids = None if assign is None else assign.assign[rows]
    expected = reference_probs(kind, params, z[rows], ids, stats, labels.kind)
    assert len(probs) == len(splits)
    for mask, p in zip(splits, probs):
        ref = expected[np.searchsorted(rows, mask)]
        if kind in ("ce", "mixup"):
            assert p.tobytes() == ref.tobytes()
        else:
            np.testing.assert_allclose(p, ref, rtol=1e-12, atol=0)


def test_eval_pass_gives_one_block_per_split(easy_sbm):
    # row i of a split's block is the split's i-th row, in the split's order
    spec = ModelSpec("mlp", 1, 4, 8, 4, 0.0, "independent")
    params = init_params(spec, 0)
    z, _ = encoder_forward(params, all_rows(spec, None, easy_sbm.features))
    splits = [np.array([5, 2, 9]), np.array([7]), np.array([2, 40, 3, 11])]
    probs, values = losses.eval_pass("ce", params, z, easy_sbm.labels, splits)
    assert [p.shape for p in probs] == [(3, 4), (1, 4), (4, 4)]
    assert len(values) == 3
    rows = np.unique(np.concatenate(splits))
    every = losses.predict_independent(params, z[rows])
    for mask, p in zip(splits, probs):
        assert p.tobytes() == every[np.searchsorted(rows, mask)].tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_jc_eval_pass_on_every_row_matches_predict_joint(seed):
    # the eval pass multiplies the node rows by both streams' halves of the
    # classifier side by side, predict_joint by the first half alone: a GEMM
    # of another width, so the bits can differ in the last place
    params, z, labels, train, others, assign = random_case(seed, "jc", False)
    stats = losses.cluster_stats(z, labels, train, assign)
    every = np.arange(len(z))
    probs, _ = losses.eval_pass("jc", params, z, labels, [train, every], stats)
    np.testing.assert_allclose(probs[1], losses.predict_joint(params, z, stats), rtol=0, atol=1e-12)


def test_eval_pass_rejects_empty_split(easy_sbm):
    spec = ModelSpec("mlp", 1, 4, 8, 4, 0.0, "independent")
    params = init_params(spec, 0)
    z = np.zeros((easy_sbm.num_nodes, 4))
    with pytest.raises(ValueError, match="empty"):
        losses.eval_pass("ce", params, z, easy_sbm.labels,
                         [easy_sbm.masks.train, np.array([], dtype=np.int64)])


@pytest.mark.parametrize("kind,multilabel", [
    ("jc", True), ("ic", True), ("mixup", True), ("jc-multilabel", False)])
def test_eval_pass_rejects_what_its_loss_rejects(kind, multilabel):
    params, z, labels, train, others, assign = random_case(0, kind, multilabel)
    stats = losses.cluster_stats(z, labels, train, assign)
    message = re.escape(f"{kind} loss does not support label kind {labels.kind!r}")
    with pytest.raises(ValueError, match=message):
        losses.loss_fn(kind)(params, z, labels, train, stats)
    with pytest.raises(ValueError, match=message):
        losses.eval_pass(kind, params, z, labels, [train, *others], stats)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_single_node_helpers_match_eval_pass(seed):
    """marginalize(joint_forward(...)) is jc's batched eval on one row; the
    bits can differ, since its logit GEMM has one row."""
    params, z, labels, train, others, assign = random_case(seed, "jc", False)
    stats = losses.cluster_stats(z, labels, train, assign)
    splits = [train, *others]
    probs, _ = losses.eval_pass("jc", params, z, labels, splits, stats)
    for mask, p in zip(splits, probs):
        for u, row in zip(mask, p):
            table = losses.joint_forward(params, z[u], stats.zbar[assign.assign[u]])
            np.testing.assert_allclose(losses.marginalize(table), row, rtol=0, atol=1e-12)
