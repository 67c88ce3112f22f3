"""Dense building blocks: encoders (gcn, sgc, mlp), analytic backprop,
finite-difference gradient checking, Adam, and the checkpoint writer.

The architectures are small and fixed, so gradients are written per layer
instead of going through a general autodiff graph; grad_check is the safety
net. Dropout uses inverted scaling, applied to layer inputs in train mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Dataset, dense_features, normalize_adjacency, spmm

__all__ = [
    "NumericsError",
    "ModelSpec",
    "init_params",
    "RowPlan",
    "plan_rows",
    "encoder_forward",
    "model_backward",
    "grad_check",
    "init_adam_state",
    "adam_step",
    "save_checkpoint",
]

ENCODERS = ("gcn", "sgc", "mlp")
# classifier -> (input width in embeddings, output width for c classes)
CLASSIFIERS = {
    "independent": (1, lambda c: c),
    "in-context": (2, lambda c: c),
    "joint": (2, lambda c: c * c),
    "joint-multilabel": (2, lambda c: 4 * c),
}


class NumericsError(RuntimeError):
    """Non-finite values where finite ones are required."""


@dataclass(frozen=True)
class ModelSpec:
    """Encoder + classifier shape description. Its encoder keys come from a
    checked trainer.TrainConfig, so it checks only the classifier and dims."""

    encoder: str
    layers: int
    hidden: int
    in_dim: int
    num_classes: int
    dropout: float
    classifier: str

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.in_dim < 1 or self.num_classes < 1:
            raise ValueError("dims must be positive")

    @property
    def weight_layers(self) -> int:
        """Encoder layers with weights; sgc's linear map lives in the classifier."""
        return 0 if self.encoder == "sgc" else self.layers

    @property
    def embed_dim(self) -> int:
        return self.in_dim if self.encoder == "sgc" else self.hidden

    @property
    def uses_graph(self) -> bool:
        """Whether the encoder multiplies by the normalized adjacency."""
        return self.encoder in ("gcn", "sgc")

    @property
    def classifier_in_dim(self) -> int:
        return CLASSIFIERS[self.classifier][0] * self.embed_dim

    @property
    def classifier_out_dim(self) -> int:
        return CLASSIFIERS[self.classifier][1](self.num_classes)

    @property
    def num_params(self) -> int:
        """The scalars init_params draws, weights and biases, counted without
        a loop over the layers."""
        L, h = self.weight_layers, self.hidden
        enc = h * (self.in_dim + (L - 1) * h + (L if self.encoder == "mlp" else 0)) if L else 0
        return enc + (self.classifier_in_dim + 1) * self.classifier_out_dim


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights and zero biases, by name in a fixed order."""
    rng = np.random.default_rng(seed)
    t = {}
    for k in range(spec.weight_layers):
        fan_in = spec.in_dim if k == 0 else spec.hidden
        t[f"enc_w{k}"] = _glorot(rng, fan_in, spec.hidden)
        if spec.encoder == "mlp":
            t[f"enc_b{k}"] = np.zeros(spec.hidden)
    t["clf_w"] = _glorot(rng, spec.classifier_in_dim, spec.classifier_out_dim)
    t["clf_b"] = np.zeros(spec.classifier_out_dim)
    return t


@dataclass(frozen=True)
class RowPlan:
    """The rows each weight layer computes for a set of target rows, and the
    blocks a step multiplies: the one input of encoder_forward.

    With L = spec.weight_layers, rows[L] are the sorted target ids and
    rows[k-1] the Â-neighbourhood of rows[k] (the targets again for mlp). A
    step holds layer k's input, dropout mask and gradient as compact blocks of
    the rows[k] rows, and the embeddings as the block of the rows[L] rows.
    Layer k multiplies adj_rows[k], the rows[k+1] x rows[k] block of Â as
    scipy cuts it (adj[rows[k + 1]][:, rows[k]]: columns numbered by position
    in rows[k], each row's entries in Â's order), and its backward pass the
    transpose of that block; the entries a block drops meet only zero rows in
    a product over all rows.
    x is the feature table as plan_rows received it (dense, or CSR as
    load_dataset gives a large sparse table), and x_rows the rows[0] rows of
    layer 0's input: of x, or of Â^K X for sgc. Dropout draws over all of x
    and keeps the draws of the computed rows.
    """

    spec: ModelSpec
    rows: tuple
    adj_rows: tuple
    x_rows: np.ndarray | sp.csr_matrix
    x: np.ndarray | sp.csr_matrix


def plan_rows(spec: ModelSpec, adj: sp.csr_matrix | None, x: np.ndarray | sp.csr_matrix,
              *targets) -> tuple[RowPlan, ...]:
    """One plan per target set, each computing only what its target rows'
    embeddings read. The input is prepared once: layer 0 multiplies x in the
    form given, and sgc's plans cut their rows from one Â^K X, computed from
    x's dense form and dropped once they are cut."""
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ValueError(f"features have shape {x.shape}, spec.in_dim={spec.in_dim}")
    if spec.uses_graph and adj is None:
        raise ValueError(f"{spec.encoder} encoder requires a normalized adjacency")
    h = x
    if spec.encoder == "sgc":
        h = dense_features(x)
        for _ in range(spec.layers):
            h = spmm(adj, h)
        _check_finite(h)
    n, levels = x.shape[0], spec.weight_layers

    def row_set(ids):
        keep = np.zeros(n, dtype=bool)
        keep[ids] = True
        return np.flatnonzero(keep)

    plans = []
    for ids in targets:
        rows = [row_set(np.asarray(ids, dtype=np.int64))]
        for _ in range(levels):
            rows.insert(0, row_set(adj[rows[0]].indices) if spec.uses_graph else rows[0])
        adj_rows = ()
        if spec.uses_graph:
            adj_rows = tuple(adj[rows[k + 1]][:, rows[k]] for k in range(levels))
        plans.append(RowPlan(spec, tuple(rows), adj_rows, h[rows[0]], x))
    return tuple(plans)


@dataclass
class GradientTape:
    """Forward-pass cache, which no later step writes into, so every
    model_backward call on it gives the same gradients."""

    plan: RowPlan
    layers: list


# a gap between computed rows of fewer draws than this is drawn through: one
# advance() and one draw call cost about as much as drawing ~1k doubles
DRAW_THROUGH = 1024


def _draws_on_rows(rng, shape, rows, gap=DRAW_THROUGH):
    """rng.random(shape)[rows] for sorted distinct rows, drawing only the
    stretches that hold them and skipping the rest with PCG64.advance.

    A double takes one 64-bit step of the generator, so the values are the
    same bits as the full draw's, and rng is left where the full draw leaves
    it. Gaps shorter than gap draws are drawn through, so the stretches,
    counting gap draws for each, exceed the full draw by at most gap draws.
    """
    n, width = shape
    cut = np.flatnonzero((np.diff(rows) - 1) * width >= gap) + 1
    first, stop = rows[np.r_[0, cut]], rows[np.r_[cut - 1, -1]] + 1
    at = np.r_[0, np.cumsum(stop - first)]  # each stretch's offset in drawn
    drawn = np.empty((int(at[-1]), width))
    done = 0
    for lo, hi, o in zip(first.tolist(), stop.tolist(), at.tolist()):
        rng.bit_generator.advance((lo - done) * width)
        rng.random(out=drawn[o:o + hi - lo])
        done = hi
    rng.bit_generator.advance((n - done) * width)
    stretch = np.repeat(np.arange(first.size), np.diff(np.r_[0, cut, rows.size]))
    return drawn[rows - first[stretch] + at[stretch]]


def _dropout(rng, plan, inp, k, p):
    """Inverted dropout on layer k's compact input.

    Returns (input, mask); the mask is kept for the backward pass and is None
    at layer 0, whose input gets no gradient. A CSR input draws one value per
    stored entry of plan.x and cuts the draws to the computed rows as the
    input was cut: its rows' entries lie too close together for skipping to
    pay. A dense input draws one value per entry of an all-rows input, by the
    stretches that hold its computed rows. The input itself is left as it is.
    """
    if sp.issparse(inp):
        x = plan.x
        u = sp.csr_matrix((rng.random(x.nnz), x.indices, x.indptr), shape=x.shape)
        kept = u[plan.rows[0]].data >= p
        data = inp.data * kept / (1.0 - p)
        return sp.csr_matrix((data, inp.indices, inp.indptr), shape=inp.shape), None
    mask = _draws_on_rows(rng, (plan.x.shape[0], inp.shape[1]), plan.rows[k]) >= p
    return inp * mask / (1.0 - p), (mask if k > 0 else None)


def encoder_forward(params: dict, plan: RowPlan, train_mode: bool = False, seed: int = 0):
    """Run plan's encoder on its rows; returns (embeddings, tape).

    gcn: K rounds of z <- relu(A z W), no nonlinearity after the last round.
    mlp: K rounds of z <- relu(z W + b).
    sgc: no weight layer: plan.x_rows holds A^K x, and the classifier is the linear map.
    Dropout precedes every weight layer in train mode, so sgc runs none.

    Every layer runs on compact blocks of its plan rows; the embeddings are
    the block of plan.rows[-1], with no weight layer plan.x_rows: do not change it.
    """
    spec = plan.spec
    rng = np.random.default_rng(seed)
    drop = train_mode and spec.dropout > 0.0
    h = plan.x_rows
    caches = []
    for k in range(spec.weight_layers):
        w = params[f"enc_w{k}"]
        inp, mask = h, None
        if drop:
            inp, mask = _dropout(rng, plan, inp, k, spec.dropout)
        s = inp @ w  # gcn drops this product once aggregated
        if spec.encoder == "gcn":
            s = spmm(plan.adj_rows[k], s)
        else:
            s += params[f"enc_b{k}"]
        relu = spec.encoder == "mlp" or k < spec.weight_layers - 1
        h = np.maximum(s, 0.0, out=s) if relu else s
        caches.append({"inp": inp, "mask": mask, "out": h, "relu": relu, "k": k, "w": w})
    _check_finite(h)
    return h, GradientTape(plan, caches)


def _check_finite(z):
    if not np.isfinite(z).all():
        raise NumericsError("non-finite activations in encoder forward")


def model_backward(tape: GradientTape, loss_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of every encoder weight given d(loss)/d(embeddings),
    a block of encoder_forward's shape: none for a plan with no weight layer."""
    plan = tape.plan
    spec = plan.spec
    shape = (plan.rows[-1].size, spec.embed_dim)
    if np.shape(loss_grad) != shape:
        raise ValueError(f"loss gradient has shape {np.shape(loss_grad)}, the embeddings {shape}")
    d = np.array(loss_grad, dtype=np.float64)  # a copy, updated in place below
    grads = {}
    for cache in reversed(tape.layers):
        k = cache["k"]
        if cache["relu"]:
            np.multiply(d, cache["out"] > 0.0, out=d)
        if spec.encoder == "gcn":
            du = spmm(plan.adj_rows[k], d, transpose=True)
        else:
            du = d
            grads[f"enc_b{k}"] = d.sum(axis=0)
        grads[f"enc_w{k}"] = np.asarray(cache["inp"].T @ du)
        if k > 0:
            d = du @ cache["w"].T
            if cache["mask"] is not None:
                d = d * cache["mask"] / (1.0 - spec.dropout)
    return grads


def grad_check(spec: ModelSpec, loss_fn, data: Dataset) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params, embeddings, data) must return (loss, d_embeddings,
    classifier_grads), as a public loss's LossResult is. Dropout must be
    disabled and the model must have at most 500 scalars.
    """
    if spec.dropout != 0.0:
        raise ValueError("grad_check requires dropout disabled")
    if spec.num_params > 500:
        raise ValueError(f"model has {spec.num_params} scalars, grad_check caps at 500")
    eps = 1e-5  # each central difference's step either way
    params = init_params(spec, 0)

    adj = normalize_adjacency(data.graph) if spec.uses_graph else None
    plan, = plan_rows(spec, adj, data.features, np.arange(data.num_nodes))

    def forward_loss(p):
        z, _ = encoder_forward(p, plan)
        value = loss_fn(p, z, data)[0]
        if not np.isfinite(value):
            raise NumericsError("non-finite loss in grad_check")
        return value

    z, tape = encoder_forward(params, plan)
    _, d_emb, clf_grads = loss_fn(params, z, data)
    analytic = dict(clf_grads)
    analytic.update(model_backward(tape, d_emb))

    worst = 0.0
    for name in params:
        flat = params[name].reshape(-1)
        aflat = np.asarray(analytic.get(name, np.zeros_like(flat)), dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = forward_loss(params)
            flat[i] = orig - eps
            lo = forward_loss(params)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - fd) / max(abs(aflat[i]), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst


def init_adam_state(params: dict) -> dict:
    return {name: [np.zeros_like(v), np.zeros_like(v)] for name, v in params.items()}


def adam_step(params: dict, grads: dict, state: dict, *, lr: float,
              weight_decay: float = 0.0, t: int = 1):
    """One Adam update with L2 added to the gradient. t counts from 1. β₁, β₂
    and ε are Kingma & Ba's settings (arXiv:1412.6980), which every run uses."""
    if t < 1:
        raise ValueError("step count t starts at 1")
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(name, 0.0)  # no gradient: zero
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for {name}")
        if weight_decay:
            g = g + weight_decay * p
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params, state


def save_checkpoint(path, spec: ModelSpec, params: dict) -> None:
    """Write one uncompressed .npz archive, for np.load: a 0-d array
    'spec.<field>' for each ModelSpec field, in field order, then every
    parameter by name. numpy dates each zip entry 1980-01-01, so equal inputs
    give equal bytes."""
    entries = {f"spec.{key}": value for key, value in asdict(spec).items()}
    with open(path, "wb") as f:  # a file object keeps numpy from appending '.npz'
        np.savez(f, allow_pickle=False, **entries, **params)
