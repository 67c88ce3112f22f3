"""What an epoch's heads and updates leave behind: their inputs as they were,
and no whole-table copy on top of the tables they need."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph import losses
from jcgraph.graph import LabelSet
from jcgraph.nn import adam_step, init_adam_state
from jcgraph.partition import ClusterAssignment
from jcgraph.trainer import LOSS_KINDS

from test_eval_pass import random_case


def digests(*values):
    """The bytes, dtype and shape of every array in values, by position;
    dicts and cluster stats by their arrays."""
    out = []
    for v in values:
        if isinstance(v, dict):
            out += [(k, *digests(a)) for k, a in sorted(v.items())]
        elif isinstance(v, losses.ClusterStats):
            out += digests(v.zbar, v.ybar, v.counts, v.rows, v.assign)
        elif v is not None:
            a = np.asarray(v)
            out.append((a.dtype.str, a.shape, a.tobytes()))
    return out


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(LOSS_KINDS)),
       multilabel=st.booleans(), beta=st.sampled_from([0.0, 0.7]), detach=st.booleans())
def test_heads_leave_their_inputs_as_they_were(seed, kind, multilabel, beta, detach):
    # the split rows of random_case, and every row in order, where the heads
    # read the embeddings and labels themselves instead of their row copies
    multilabel = kind == "jc-multilabel" or (kind == "ce" and multilabel)
    params, z, labels, train, others, assign = random_case(seed, kind, multilabel)
    stats = losses.cluster_stats(z, labels, train, assign)
    if kind == "ce":
        stats = None
    every = np.arange(len(z))
    inputs = (params, z, labels.matrix, train, *others, stats)
    before = digests(*inputs)
    for mask in (train, every):
        losses.loss_fn(kind)(params, z, labels, mask, stats, detach_cluster=detach, beta=beta)
        assert digests(*inputs) == before, f"{kind}_loss"
    for splits in ([train, *others], [every]):
        losses.eval_pass(kind, params, z, labels, splits, stats, beta)
        assert digests(*inputs) == before, "eval_pass"
    if LOSS_KINDS[kind].classifier == "independent":
        losses.predict_independent(params, z, labels.kind)
    elif kind == "jc":
        losses.predict_joint(params, z, stats)
    assert digests(*inputs) == before, "predict"


def test_softmax_turns_its_logits_into_the_probabilities():
    # in place, with the bits of exp(x - max) / sum built in new arrays; on
    # a table of groups of 4, as jc-multilabel's streams are
    x = np.random.default_rng(2).normal(size=(50, 7, 4)) * 30
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    p = losses._softmax(x)
    assert p is x and p.tobytes() == want.tobytes()


def textbook_adam(p, g, m, v, lr, wd, t):
    """One Adam step written as its formulas, with L2 added as g + wd·p:
    the bits adam_step must give."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    if wd:
        g = g + wd * p
    m = m * b1 + g * (1.0 - b1)
    v = v * b2 + (g * g) * (1.0 - b2)
    den = np.sqrt(v / (1.0 - b2 ** t)) + eps
    return p - (m / (1.0 - b1 ** t)) * lr / den, m, v


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), wd=st.sampled_from([0.0, 5e-4, 0.3]),
       t=st.integers(1, 50), missing=st.booleans())
def test_adam_gives_the_textbook_bits_and_leaves_the_gradients(seed, wd, t, missing):
    rng = np.random.default_rng(seed)
    params = {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=3)}
    grads = {"a": rng.normal(size=(5, 3))}
    if not missing:
        grads["b"] = rng.normal(size=3)
    state = {k: [rng.normal(size=p.shape) * 0.1, rng.random(p.shape) * 0.1]
             for k, p in params.items()}
    want = {k: textbook_adam(p, grads.get(k, 0.0), *state[k], 0.01, wd, t)
            for k, p in params.items()}
    before = digests(grads)
    adam_step(params, grads, state, lr=0.01, weight_decay=wd, t=t)
    assert digests(grads) == before
    for k, (p, m, v) in want.items():
        assert params[k].tobytes() == p.tobytes(), k
        assert state[k][0].tobytes() == m.tobytes() and state[k][1].tobytes() == v.tobytes(), k


def traced_peak(fn):
    """fn's traced allocation peak above what was allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_jc_eval_holds_no_whole_table_copy():
    # 2000 rows that are every row of the embeddings, c = 7: a c²-cell table
    # is 0.78 MB. The pass holds the node rows' product with both row halves
    # of the classifier (two tables) and each stream's logits (two more),
    # which become its probabilities in place, plus n x c work (0.3 table).
    # One more table, or a copy of the 2000 x 64 embeddings (1.3 tables),
    # passes the bound
    rng = np.random.default_rng(0)
    n, h, c, m = 2000, 64, 7, 5
    z = rng.normal(size=(n, h))
    labels = LabelSet(c, "s", np.eye(c)[rng.integers(0, c, n)])
    params = {"clf_w": rng.normal(size=(2 * h, c * c)) * 0.1, "clf_b": np.zeros(c * c)}
    splits = [np.arange(0, 200), np.arange(200, 700), np.arange(700, n)]
    stats = losses.cluster_stats(z, labels, splits[0], ClusterAssignment(m, rng.integers(0, m, n)))
    peak = traced_peak(lambda: losses.eval_pass("jc", params, z, labels, splits, stats))
    assert peak < 4.75 * n * c * c * 8


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_adam_updates_through_two_weight_sized_buffers(wd):
    # a Cora-sized first layer; a third buffer, such as g + wd·p built apart
    # from the denominator, passes the bound
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(1433, 64))}
    grads = {"w": rng.normal(size=(1433, 64))}
    state = init_adam_state(params)
    peak = traced_peak(lambda: adam_step(params, grads, state, lr=0.01, weight_decay=wd, t=1))
    assert peak < 2.5 * params["w"].nbytes


def test_increasing_mask_needs_no_sort_and_others_keep_the_check(sbm12, monkeypatch):
    # a strictly increasing mask, as every SplitMasks set is, is distinct by
    # its order; an unordered one is still sorted and checked for repeats
    clf = {"clf_w": np.zeros((3, 2)), "clf_b": np.zeros(2)}
    z, train = sbm12.features, sbm12.masks.train
    assert (np.diff(train) > 0).all()
    unordered = train[::-1]
    value = losses.ce_loss(clf, z, sbm12.labels, train).value
    losses.ce_loss(clf, z, sbm12.labels, unordered)

    def refused(*args, **kwargs):
        raise AssertionError("np.unique called")

    with monkeypatch.context() as patched:
        patched.setattr(np, "unique", refused)
        assert losses.ce_loss(clf, z, sbm12.labels, train).value == value
        with pytest.raises(AssertionError, match="np.unique called"):
            losses.ce_loss(clf, z, sbm12.labels, unordered)
    with pytest.raises(ValueError, match="^mask repeats a node id$"):
        losses.ce_loss(clf, z, sbm12.labels, np.r_[unordered, train[:1]])
