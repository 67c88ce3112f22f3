"""Cluster statistics, joint node-cluster tables, and the loss family.

The joint-cluster loss trains a classifier on the concatenated node and
cluster embeddings against the outer-product table of the node label and the
cluster mean label, plus a symmetric term with the two roles exchanged.
Inference marginalizes the predicted table over the cluster dimension.

All losses run through one training head that returns the value with analytic
gradients for the classifier and the embeddings, including the mean-pooling
flow through cluster means (1/L_m per labeled member); eval_pass is gradient-free.

No concatenation is built: con(z, zbar) @ W = z @ W_z + zbar @ W_c over W's
row halves. The node rows and the m cluster means each meet the halves side by
side once, jc's two streams share the products, and a cluster half is gathered
after its product; its gradient is summed per cluster before the transposed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graph import LabelSet
from .partition import ClusterAssignment

__all__ = [
    "PROB_FLOOR",
    "Loss",
    "LOSS_KINDS",
    "ClusterStats",
    "LossResult",
    "check_label_kind",
    "loss_fn",
    "cluster_stats",
    "joint_label",
    "joint_forward",
    "marginalize",
    "jc_loss",
    "ce_loss",
    "ic_loss",
    "mixup_loss",
    "jc_multilabel_loss",
    "predict_independent",
    "predict_joint",
    "eval_pass",
]

PROB_FLOOR = 1e-12


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: logits become the probabilities.
    Every caller passes logits it has just built and reads them no more."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    # scipy.special takes ~0.13 s to import and only multi-label sets need it
    from scipy.special import expit
    return expit(logits)


def _logp(p: np.ndarray) -> np.ndarray:
    q = np.maximum(p, PROB_FLOOR)
    return np.log(q, out=q)


@dataclass
class ClusterStats:
    """Per-cluster mean embedding and mean label over the labeled rows.

    counts[m] == 0 marks a cluster without labeled nodes whose rows hold the
    global labeled means instead. rows are the labeled rows of the embeddings
    that the means average, which the cluster-mean gradients flow back to;
    assign[u] is the cluster of embedding row u.
    """

    zbar: np.ndarray
    ybar: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    assign: np.ndarray


def _group_sum(index: np.ndarray, values: np.ndarray, groups: int) -> np.ndarray:
    """Rows of values summed per index, in row order (np.add.at onto zeros)."""
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=groups * width)
    return sums.reshape(groups, width)


def cluster_stats(embeddings: np.ndarray, labels: LabelSet, train_mask: np.ndarray,
                  assign: ClusterAssignment) -> ClusterStats:
    train_mask = _mask(train_mask)
    m = assign.num_clusters
    a = assign.assign[train_mask]
    counts = np.bincount(a, minlength=m)
    zbar = _group_sum(a, embeddings[train_mask], m)
    ybar = _group_sum(a, labels.matrix[train_mask], m)
    nz = counts > 0
    zbar[nz] /= counts[nz, None]
    ybar[nz] /= counts[nz, None]
    if (~nz).any():
        zbar[~nz] = embeddings[train_mask].mean(axis=0)
        ybar[~nz] = labels.matrix[train_mask].mean(axis=0)
    return ClusterStats(zbar, ybar, counts, train_mask, assign.assign)


def scatter_cluster_grad(d_zbar: np.ndarray, stats: ClusterStats, out: np.ndarray) -> None:
    """Distribute d(loss)/d(zbar) onto the labeled rows the means average
    (1/L_m per member of cluster m).

    Rows with counts == 0 are global-fallback means, so their gradient flows
    to every labeled row with weight 1/L.
    """
    rows, counts = stats.rows, stats.counts
    a = stats.assign[rows]
    out[rows] += d_zbar[a] / counts[a, None]
    fb = counts == 0
    if fb.any():
        out[rows] += d_zbar[fb].sum(axis=0) / rows.size


class LossResult(NamedTuple):
    value: float
    d_embeddings: np.ndarray
    clf_grads: dict


def joint_label(y: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """Outer product y ybar^T; rows index the node label, columns the cluster."""
    y = np.asarray(y, dtype=np.float64)
    ybar = np.asarray(ybar, dtype=np.float64)
    if not (np.isin(y, (0.0, 1.0)).all() and y.sum() == 1.0):
        raise ValueError("y must be one-hot")
    if (ybar < 0).any() or abs(ybar.sum() - 1.0) > 1e-9:
        raise ValueError("ybar must be a distribution")
    return _joint(y[None], ybar[None]).reshape(len(y), len(ybar))


def joint_forward(classifier: dict, z: np.ndarray, zbar: np.ndarray) -> np.ndarray:
    """Predicted c x c joint table: softmax over all c^2 logits of con(z, zbar),
    computed as jc's first stream computes it for one node."""
    w, b = _clf(classifier)
    c = int(round(np.sqrt(w.shape[1])))
    if c * c != w.shape[1]:
        raise ValueError("classifier does not produce a square joint table")
    z, zbar = np.atleast_2d(z), np.atleast_2d(zbar)
    dim = z.shape[1] + zbar.shape[1]
    if dim != w.shape[0]:
        raise ValueError(f"concatenated input has dim {dim}, classifier expects {w.shape[0]}")
    return _joint_probs(w, b, z, zbar, np.arange(len(zbar))).reshape(c, c)


def _joint_probs(w, b, z, zbar, index) -> np.ndarray:
    """jc's first stream over the node rows z, each next to zbar[index]."""
    logits, = _logits(LOSS_KINDS["jc"].streams[:1], {"z": (z, None, None), "c": (zbar, None, index)},
                      w, b)
    return _softmax(logits)


def marginalize(t: np.ndarray) -> np.ndarray:
    """Class distribution from a joint table: sum over the cluster dimension."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("joint table must be square")
    if (t < 0).any() or abs(t.sum() - 1.0) > 1e-9:
        raise ValueError("non-normalized table")
    return LOSS_KINDS["jc"].marginal(t.reshape(1, -1), len(t))[0]


def _clf(params: dict):
    return params["clf_w"], params["clf_b"]


def _label(u, v=None):
    return u


def _joint(u, v):
    """Outer-product tables u v^T, flattened to c^2 entries per row."""
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), -1)


def _joint_2x2(u, v):
    """One 2x2 table [1-u, u] x [1-v, v] per binary task, shape (rows, c, 4)."""
    return np.stack([(1 - u) * (1 - v), (1 - u) * v, u * (1 - v), u * v], axis=2)


class Loss(NamedTuple):
    """One loss kind: what the head, the trainer and the CLI decide by loss.

    classifier is the nn.CLASSIFIERS head it trains and label_kinds the label
    sets it accepts. Each stream is (input order, target builder, softmax group
    size). Order letters: z the node embedding, c its cluster mean, k the mean
    of a cluster with labeled nodes (its rows are clusters, not nodes). A group
    size of None is one softmax over the whole row, or per-class sigmoids on
    multi-label sets. The first stream is the node-order one that predictions
    come from; marginal(p, c) turns its probabilities into class probabilities.
    """

    classifier: str
    label_kinds: tuple
    streams: tuple
    marginal: Callable = lambda p, c: p

    @property
    def needs_clusters(self) -> bool:
        return any(ch in order for order, _, _ in self.streams for ch in "ck")


# jc marginalizes each c x c table over the cluster axis, jc-multilabel takes
# the two y_t = 1 entries of each task's 2x2 table
LOSS_KINDS = {
    "ce": Loss("independent", ("s", "m"), (("z", _label, None),)),
    "jc": Loss("joint", ("s",), (("zc", _joint, None), ("cz", _joint, None)),
               lambda p, c: p.reshape(len(p), -1, c).sum(axis=2)),
    "ic": Loss("in-context", ("s",), (("zc", _label, None),)),
    "mixup": Loss("independent", ("s",), (("z", _label, None), ("k", _label, None))),
    "jc-multilabel": Loss("joint-multilabel", ("m",),
                          (("zc", _joint_2x2, 4), ("cz", _joint_2x2, 4)),
                          lambda p, c: p[:, :, 2] + p[:, :, 3]),
}


def _mask(mask) -> np.ndarray:
    """A mask's node ids: a gradient scattered onto them adds once per id, so
    they must be distinct, as in every SplitMasks set."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty mask")
    # strictly increasing ids, as every SplitMasks set holds, are distinct
    if not (mask[1:] > mask[:-1]).all() and np.unique(mask).size != mask.size:
        raise ValueError("mask repeats a node id")
    return mask


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows], or a itself when rows are 0 .. len(a) - 1 in order: no copy."""
    if rows.size == len(a) and rows[0] == 0 and (np.diff(rows) == 1).all():
        return a
    return a[rows]


def _sources(kind, embeddings, labels, rows, stats) -> dict:
    """(inputs, labels, index) blocks by order letter; c and k only if kind reads them.

    z: the node rows, which are the caller's embeddings and labels themselves
    when rows are all of theirs, so nothing writes into them. c: every
    cluster mean, with the node rows' labels and clusters, the index that
    gathers a product of the means. k: the means of the clusters with
    labeled nodes, one row each.
    """
    src = {"z": (_take(embeddings, rows), _take(labels.matrix, rows), None)}
    if LOSS_KINDS[kind].needs_clusters:
        if stats is None:
            raise ValueError(f"{kind} loss needs cluster stats")
        a, nz = stats.assign[rows], stats.counts > 0
        src["c"] = (stats.zbar, stats.ybar[a], a)
        src["k"] = (stats.zbar[nz], stats.ybar[nz], None)
    return src


def _slots(streams) -> dict:
    """Each letter's positions in the streams' orders: the row blocks of the
    classifier that its inputs meet."""
    slots = {}
    for order, _, _ in streams:
        for j, ch in enumerate(order):
            slots.setdefault(ch, set()).add(j)
    return {ch: sorted(js) for ch, js in slots.items()}


def _side(blocks: list) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _logits(streams, src, w, b) -> list:
    """Each stream's logits over its node rows (or k's cluster rows).

    Over an order of L letters, con(x_1, .., x_L) @ w is the sum of x_j @ w_j.
    Each letter's inputs are multiplied once, by its blocks of w side by
    side, and the streams share the products; a cluster letter's product
    has one row per cluster and is gathered by its index afterwards. A
    one-letter order is the single product x @ w.
    """
    halves, prods = np.split(w, len(streams[0][0])), {}  # w_j multiplies letter j
    for ch, js in _slots(streams).items():
        block = src[ch][0] @ _side([halves[j] for j in js])
        prods.update(zip([(ch, j) for j in js], np.split(block, len(js), axis=1)))
    out = []
    for order, _, _ in streams:
        parts = [prods[ch, j] if src[ch][2] is None else prods[ch, j][src[ch][2]]
                 for j, ch in enumerate(order)]
        if len(order) == 1:  # a view of a product the streams share
            out.append(parts[0] + b)
            continue
        # zc or cz: the gathered c part is a new array, which the z part and b
        # add into; a sum of two terms has the same bits in either order
        c = order.index("c")
        parts[c] += parts[1 - c]
        parts[c] += b
        out.append(parts[c])
    return out


def _picked(order, target, p, y, src) -> np.ndarray:
    """Row sums of t * logp for one-hot node labels y, read only where t is
    nonzero: entry y of the node label, row y of a (node, cluster) table and
    column y of a (cluster, node) one, weighted by the cluster's mean label.
    logp is taken of the entries read only."""
    at = np.arange(len(y))
    if target is _label:
        return _logp(p[at, y])
    ybar = src["c"][1]
    table = p.reshape(len(y), ybar.shape[1], -1)
    return (ybar * _logp(table[at, y] if order[0] == "z" else table[at, :, y])).sum(axis=1)


def _forward(streams, src, w, b, multi, beta, y=None):
    """Run each stream over the src rows; multi marks a multi-label set.

    Returns (order, target table, probabilities) per stream, the node
    streams' per-row log-likelihoods summed, and the cluster stream's
    beta-weighted loss (None without one, or when beta is 0). With y, the
    class of each node row of a single-label set, the node streams build no
    target table (it is None) and read log p at its nonzero entries only.
    """
    streams = [s for s in streams if s[0] != "k" or beta != 0.0]
    outs, ll, cluster = [], None, None
    for (order, target, group), logits in zip(streams, _logits(streams, src, w, b)):
        sigmoid = multi and group is None
        if sigmoid:
            p = _sigmoid(logits)
        else:
            p = _softmax(logits if group is None else logits.reshape(len(logits), -1, group))
        if y is None or order == "k":
            t = target(*(src[ch][1] for ch in order))
            r = t * _logp(p) + (1.0 - t) * _logp(1.0 - p) if sigmoid else t * _logp(p)
            r = r.sum(axis=tuple(range(1, p.ndim)))
        else:
            t, r = None, _picked(order, target, p, y, src)
        if order == "k":
            cluster = beta * float(-r.mean())
        else:
            ll = r if ll is None else ll + r
        outs.append((order, t, p))
    return outs, ll, cluster


def _value(ll: np.ndarray, cluster: float | None) -> float:
    value = float(-ll.mean())
    return value if cluster is None else value + cluster


def _add(acc: dict, key: str, v: np.ndarray) -> None:
    acc[key] = acc[key] + v if key in acc else v


def check_label_kind(kind: str, labels: LabelSet) -> None:
    """Reject labels of a kind the named loss does not train on."""
    if labels.kind not in LOSS_KINDS[kind].label_kinds:
        raise ValueError(f"{kind} loss does not support label kind {labels.kind!r}")


def _head(kind, classifier, embeddings, labels, train_mask, stats, detach_cluster,
          beta) -> LossResult:
    """The training head behind every *_loss: value and analytic gradients.

    Node streams are summed per node and averaged over the mask; the cluster
    stream (mixup) is averaged over clusters with labeled nodes and weighted
    by beta. Each letter's gradient is taken once, through its blocks of the
    classifier side by side: a cluster letter's logit gradient is summed per
    cluster first, which gives the gradient of the means. It reaches the
    embeddings through the cluster means unless detach_cluster is set.
    """
    check_label_kind(kind, labels)
    w, b = _clf(classifier)
    mask = _mask(train_mask)
    src = _sources(kind, embeddings, labels, mask, stats)
    outs, ll, cluster = _forward(LOSS_KINDS[kind].streams, src, w, b, labels.multi, beta)
    acc = {}  # d(loss)/d(x_ch @ w_j) by (ch, j); then w_j's gradient by j, and b's
    for order, t, p in outs:
        dl = beta * (p - t) / len(p) if order == "k" else (p - t) / mask.size
        dl = dl.reshape(len(p), -1)
        for j, ch in enumerate(order):
            x, _, index = src[ch]
            _add(acc, (ch, j), dl if index is None else _group_sum(index, dl, len(x)))
        _add(acc, "clf_b", dl.sum(axis=0))

    halves, d_x = np.split(w, len(outs[0][0])), {}
    for ch, js in _slots(outs).items():
        g = _side([acc[ch, j] for j in js])
        if ch == "z" or not detach_cluster:
            d_x[ch] = g @ _side([halves[j] for j in js]).T
        for j, part in zip(js, np.split(src[ch][0].T @ g, len(js), axis=1)):
            _add(acc, j, part)
    d_emb = np.zeros_like(embeddings)
    d_emb[mask] += d_x["z"]
    if "c" in d_x or "k" in d_x:
        d_zbar = d_x["c"] if "c" in d_x else np.zeros_like(stats.zbar)
        if "k" in d_x:
            d_zbar[stats.counts > 0] += d_x["k"]
        scatter_cluster_grad(d_zbar, stats, d_emb)
    grads = {"clf_w": np.concatenate([acc[j] for j in range(len(halves))]), "clf_b": acc["clf_b"]}
    return LossResult(_value(ll, cluster), d_emb, grads)


def loss_fn(kind: str) -> Callable[..., LossResult]:
    """<kind>_loss, looked up on this module at each call, so a swapped module
    attribute is what runs. Every *_loss has ce_loss's signature; stats is
    cluster_stats' result, which a kind with cluster streams needs."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss {kind!r}")
    return globals()[kind.replace("-", "_") + "_loss"]


def ce_loss(classifier: dict, embeddings: np.ndarray, labels: LabelSet, train_mask: np.ndarray,
            stats: ClusterStats | None = None, *, detach_cluster=False, beta=0.0) -> LossResult:
    """Independent cross-entropy, mean over the mask.

    Multi-label sets use per-class sigmoid cross-entropy.
    """
    return _head("ce", classifier, embeddings, labels, train_mask, stats, detach_cluster, beta)


def jc_loss(classifier: dict, embeddings: np.ndarray, labels: LabelSet, train_mask: np.ndarray,
            stats: ClusterStats | None = None, *, detach_cluster=False, beta=0.0) -> LossResult:
    """Joint-cluster cross-entropy with its symmetric swapped-order term.

    Per node: target y ybar^T against softmax(g(con(z, zbar))) plus target
    ybar y^T against softmax(g(con(zbar, z))), averaged over the mask.
    """
    return _head("jc", classifier, embeddings, labels, train_mask, stats, detach_cluster, beta)


def ic_loss(classifier: dict, embeddings: np.ndarray, labels: LabelSet, train_mask: np.ndarray,
            stats: ClusterStats | None = None, *, detach_cluster=False, beta=0.0) -> LossResult:
    """In-context baseline: plain CE on c logits from con(z, zbar)."""
    return _head("ic", classifier, embeddings, labels, train_mask, stats, detach_cluster, beta)


def mixup_loss(classifier: dict, embeddings: np.ndarray, labels: LabelSet, train_mask: np.ndarray,
               stats: ClusterStats | None = None, *, detach_cluster=False, beta=0.0) -> LossResult:
    """CE on nodes plus beta times CE of the classifier on cluster means.

    The cluster term targets the soft mean label ybar and averages over
    clusters that contain labeled nodes. Only this loss reads beta.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return _head("mixup", classifier, embeddings, labels, train_mask, stats, detach_cluster, beta)


def jc_multilabel_loss(classifier: dict, embeddings: np.ndarray, labels: LabelSet,
                       train_mask: np.ndarray, stats: ClusterStats | None = None, *,
                       detach_cluster=False, beta=0.0) -> LossResult:
    """Joint-cluster loss for c binary tasks, one 2x2 joint table per task.

    Each task's 4 logits are softmaxed against the outer product of
    [1-y_t, y_t] and [1-ybar_t, ybar_t]; the symmetric swapped-order term is
    included as in the single-label loss. The classifier emits 4c logits.
    """
    return _head("jc-multilabel", classifier, embeddings, labels, train_mask, stats,
                 detach_cluster, beta)


def eval_pass(kind: str, classifier: dict, embeddings: np.ndarray, labels: LabelSet,
              splits: list, stats: ClusterStats | None = None,
              beta: float = 0.0) -> tuple[list[np.ndarray], list[float]]:
    """Class probabilities and the loss value on each split: one block per
    split, row i for the split's i-th row.

    The values equal <kind>_loss(...).value on each split, with no gradient
    work, and on a single-label set no target table. Every stream, its node
    products included, runs on the union of the split rows only, so the
    probabilities are the bits that the predictor formulas give on those
    rows; they can differ in the last bits from an all-nodes pass, whose
    products have another height.
    """
    check_label_kind(kind, labels)
    w, b = _clf(classifier)
    splits = [_mask(s) for s in splits]
    rows = np.unique(np.concatenate(splits))
    loss = LOSS_KINDS[kind]
    src = _sources(kind, embeddings, labels, rows, stats)
    y = None if labels.multi else src["z"][1].argmax(axis=1)
    outs, ll, cluster = _forward(loss.streams, src, w, b, labels.multi, beta, y)
    probs = loss.marginal(outs[0][2], labels.num_classes)
    at = [np.searchsorted(rows, s) for s in splits]
    return [probs[i] for i in at], [_value(ll[i], cluster) for i in at]


# ---------------------------------------------------------------------------
# prediction paths


def predict_independent(classifier: dict, embeddings: np.ndarray, kind: str = "s") -> np.ndarray:
    w, b = _clf(classifier)
    logits = embeddings @ w + b
    return {"s": _softmax, "m": _sigmoid}[kind](logits)


def predict_joint(classifier: dict, embeddings: np.ndarray, assign: ClusterAssignment,
                  stats: ClusterStats) -> np.ndarray:
    """Marginalized class distribution for every node from its own cluster."""
    w, b = _clf(classifier)
    c = int(round(np.sqrt(w.shape[1])))
    return LOSS_KINDS["jc"].marginal(_joint_probs(w, b, embeddings, stats.zbar, assign.assign), c)
