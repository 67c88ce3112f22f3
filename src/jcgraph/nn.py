"""Dense building blocks: encoders (gcn, sgc, mlp), analytic backprop,
finite-difference gradient checking, Adam, and checkpoint I/O.

The architectures are small and fixed, so gradients are written per layer
instead of going through a general autodiff graph; grad_check is the safety
net. Dropout uses inverted scaling, applied to layer inputs in train mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Dataset, NormAdj, normalize_adjacency, spmm

__all__ = [
    "NumericsError",
    "ModelSpec",
    "Params",
    "init_params",
    "RowPlan",
    "plan_rows",
    "encoder_forward",
    "model_backward",
    "grad_check",
    "init_adam_state",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

ENCODERS = ("gcn", "sgc", "mlp")
# classifier -> (input width in embeddings, output width for c classes)
CLASSIFIERS = {
    "independent": (1, lambda c: c),
    "in-context": (2, lambda c: c),
    "joint": (2, lambda c: c * c),
    "joint-multilabel": (2, lambda c: 4 * c),
}

# below this density the input feature matrix is multiplied in CSR form
SPARSE_DENSITY = 0.25
SPARSE_MIN_SIZE = 50_000


class NumericsError(RuntimeError):
    """Non-finite values where finite ones are required."""


@dataclass(frozen=True)
class ModelSpec:
    """Encoder + classifier shape description."""

    encoder: str
    layers: int
    hidden: int
    in_dim: int
    num_classes: int
    dropout: float = 0.0
    classifier: str = "independent"

    def __post_init__(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        min_layers = 0 if self.encoder == "sgc" else 1
        if self.layers < min_layers:
            raise ValueError(f"{self.encoder} needs at least {min_layers} layer(s)")
        if self.in_dim < 1 or self.num_classes < 1:
            raise ValueError("dims must be positive")
        if self.encoder != "sgc" and self.hidden < 1:
            raise ValueError("hidden dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

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


class Params:
    """Named parameter tensors in a fixed order."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}

    def __getitem__(self, name):
        return self.tensors[name]

    def __setitem__(self, name, value):
        self.tensors[name] = np.asarray(value, dtype=np.float64)

    def names(self):
        return list(self.tensors)

    def copy(self) -> "Params":
        return Params({k: v.copy() for k, v in self.tensors.items()})

    def num_scalars(self) -> int:
        return sum(v.size for v in self.tensors.values())

    def all_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.tensors.values())


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(spec: ModelSpec, seed: int) -> Params:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    t = {}
    # sgc has no encoder weights: its linear map lives in the classifier
    for k in range(0 if spec.encoder == "sgc" else spec.layers):
        fan_in = spec.in_dim if k == 0 else spec.hidden
        t[f"enc_w{k}"] = _glorot(rng, fan_in, spec.hidden)
        if spec.encoder == "mlp":
            t[f"enc_b{k}"] = np.zeros(spec.hidden)
    t["clf_w"] = _glorot(rng, spec.classifier_in_dim, spec.classifier_out_dim)
    t["clf_b"] = np.zeros(spec.classifier_out_dim)
    return Params(t)


def _csr_twin(x: np.ndarray):
    """x in the form layer 0 multiplies: CSR when large and sparse enough."""
    if x.size < SPARSE_MIN_SIZE:
        return x
    nonzero = x != 0
    if np.count_nonzero(nonzero) / x.size > SPARSE_DENSITY:
        return x
    # the entries of sp.csr_matrix(x), found in one pass over the flat matrix
    flat = np.flatnonzero(nonzero)
    n, d = x.shape
    indptr = np.searchsorted(flat, np.arange(n + 1) * d)
    return sp.csr_matrix((x.ravel()[flat], flat % d, indptr), shape=x.shape)


def _keep_rows(indptr: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indptr of a CSR matrix cut to the rows in keep, and its entries' positions."""
    counts = np.diff(indptr)
    cut = np.zeros_like(indptr)
    np.cumsum(np.where(keep, counts, 0), out=cut[1:])
    return cut, np.flatnonzero(np.repeat(keep, counts))


@dataclass(frozen=True)
class RowPlan:
    """The rows each encoder layer computes for a set of target rows.

    rows[L] are the targets and rows[k-1] the Â-neighbourhood of rows[k] (the
    targets again for mlp); None stands for every row. adj_rows[k] is Â with
    only the rows rows[k] stored, so a product with it is exact on those rows
    and zero elsewhere. x is the full input as layer 0 multiplies it (dense,
    or a CSR twin), x_rows its twin cut to rows[0] and x_pos the positions of
    x_rows' entries in x, which index the dropout mask drawn over all of x's
    entries. Dense inputs stay whole. sgc holds Â^K X for every row.
    """

    spec: ModelSpec
    adj: NormAdj | None
    x: np.ndarray | sp.csr_matrix
    sgc: np.ndarray | None
    rows: tuple
    adj_rows: tuple
    x_rows: np.ndarray | sp.csr_matrix
    x_pos: np.ndarray | None = None

    def restrict(self, targets) -> "RowPlan":
        """The plan that computes only what the target rows' embeddings read."""
        if self.spec.encoder == "sgc":
            return self
        n, levels = self.x.shape[0], self.spec.layers
        keep = np.zeros(n, dtype=bool)
        keep[np.asarray(targets, dtype=np.int64)] = True
        masks, adj_rows = [keep] * (levels + 1), [self.adj] * (levels + 1)
        for k in range(levels, -1, -1):
            if self.adj is not None and not masks[k].all():
                indptr, pos = _keep_rows(self.adj.indptr, masks[k])
                adj_rows[k] = NormAdj(n, indptr, self.adj.indices[pos], self.adj.values[pos])
                if k > 0:
                    masks[k - 1] = np.zeros(n, dtype=bool)
                    masks[k - 1][adj_rows[k].indices] = True
            elif k > 0:
                masks[k - 1] = masks[k]
        rows = tuple(None if m.all() else np.flatnonzero(m) for m in masks)
        x_rows, x_pos = self.x, None
        if sp.issparse(self.x) and rows[0] is not None:
            indptr, x_pos = _keep_rows(self.x.indptr, masks[0])
            x_rows = sp.csr_matrix((self.x.data[x_pos], self.x.indices[x_pos], indptr),
                                   shape=self.x.shape)
        return RowPlan(self.spec, self.adj, self.x, None, rows, tuple(adj_rows), x_rows, x_pos)


def plan_rows(spec: ModelSpec, adj: NormAdj | None, x: np.ndarray) -> RowPlan:
    """The plan that computes every row; restrict() cuts it to target rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ValueError(f"features have shape {x.shape}, spec.in_dim={spec.in_dim}")
    if spec.uses_graph and adj is None:
        raise ValueError(f"{spec.encoder} encoder requires a normalized adjacency")
    sgc = None
    if spec.encoder == "sgc":
        sgc = x
        for _ in range(spec.layers):
            sgc = spmm(adj, sgc)
        _check_finite(sgc)
    else:
        x = _csr_twin(x)
    levels = spec.layers + 1
    return RowPlan(spec, adj, x, sgc, (None,) * levels, (adj,) * levels, x)


def _on_rows(rows, fn, *arrays):
    """fn over the given rows of same-shape arrays, zeros elsewhere; all rows for None."""
    if rows is None:
        return fn(*arrays)
    out = np.zeros(arrays[0].shape)
    out[rows] = fn(*(a[rows] for a in arrays))
    return out


@dataclass
class GradientTape:
    """Forward-pass cache; consumed by exactly one model_backward call."""

    plan: RowPlan
    layers: list
    used: bool = False


def _dropout(rng, plan, inp, rows, p):
    """Inverted dropout on the computed rows; the mask is drawn at full size."""
    if sp.issparse(inp):
        mask = rng.random(plan.x.data.shape) >= p
        kept = mask if plan.x_pos is None else mask[plan.x_pos]
        data = inp.data * kept / (1.0 - p)
        return sp.csr_matrix((data, inp.indices, inp.indptr), shape=inp.shape), mask
    mask = rng.random(inp.shape) >= p
    return _on_rows(rows, lambda a, m: a * m / (1.0 - p), inp, mask), mask


def encoder_forward(spec: ModelSpec, params: Params, adj: NormAdj | None,
                    x: np.ndarray, train_mode: bool = False, seed: int = 0,
                    plan: RowPlan | None = None):
    """Run the encoder; returns (embeddings, tape).

    gcn: K rounds of z <- relu(A z W), no nonlinearity after the last round.
    sgc: A^K x, computed once per plan; the linear map lives in the classifier.
    mlp: K rounds of z <- relu(z W + b). Dropout precedes every linear layer
    in train mode.

    plan, built from this adj and x, limits the work to the rows its targets
    read; the embeddings are exact on the targets and zero on rows that were
    not computed. Without a plan every row is computed.
    """
    if plan is None:
        plan = plan_rows(spec, adj, x)
    if spec.encoder == "sgc":
        return plan.sgc, GradientTape(plan, [])

    rng = np.random.default_rng(seed)
    drop = train_mode and spec.dropout > 0.0
    h = plan.x_rows
    caches = []
    for k in range(spec.layers):
        w = params[f"enc_w{k}"]
        inp, mask, out = h, None, plan.rows[k + 1]
        if drop:
            inp, mask = _dropout(rng, plan, inp, plan.rows[k], spec.dropout)
        u = inp @ w
        if spec.encoder == "gcn":
            s = spmm(plan.adj_rows[k + 1], u)
        else:
            bias = params[f"enc_b{k}"]
            s = _on_rows(out, lambda a: a + bias, u)
        relu = spec.encoder == "mlp" or k < spec.layers - 1
        h = _on_rows(out, lambda a: np.maximum(a, 0.0), s) if relu else s
        caches.append({"inp": inp, "mask": mask, "pre": s, "relu": relu, "k": k, "w": w})
    _check_finite(h)
    return h, GradientTape(plan, caches)


def _check_finite(z):
    if not np.isfinite(z).all():
        raise NumericsError("non-finite activations in encoder forward")


def model_backward(tape: GradientTape, loss_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of every encoder parameter given d(loss)/d(embeddings).

    Rows of loss_grad outside the plan's targets are ignored.
    """
    if tape.used:
        raise RuntimeError("gradient tape already consumed")
    tape.used = True
    plan = tape.plan
    spec = plan.spec
    if spec.encoder == "sgc":
        return {}
    d = np.asarray(loss_grad, dtype=np.float64)
    if d.shape[1] != spec.embed_dim:
        raise ValueError(f"loss gradient has shape {d.shape}, embed dim is {spec.embed_dim}")
    d = _on_rows(plan.rows[-1], lambda a: a, d)
    grads = {}
    for cache in reversed(tape.layers):
        k = cache["k"]
        if cache["relu"]:
            d = _on_rows(plan.rows[k + 1], lambda a, pre: a * (pre > 0.0), d, cache["pre"])
        if spec.encoder == "gcn":
            du = spmm(plan.adj_rows[k], d)  # A is symmetric
        else:
            du = d
            grads[f"enc_b{k}"] = d.sum(axis=0)
        inp = cache["inp"]
        grads[f"enc_w{k}"] = (inp.T @ du) if not sp.issparse(inp) else np.asarray(inp.T @ du)
        if k > 0:
            d = du @ cache["w"].T
            if cache["mask"] is not None:
                d = _on_rows(plan.rows[k], lambda a, m: a * m / (1.0 - spec.dropout),
                             d, cache["mask"])
    return grads


def grad_check(spec: ModelSpec, loss_fn, data: Dataset, eps: float = 1e-5,
               adj: NormAdj | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params, embeddings, data) must return (loss, d_embeddings,
    classifier_grads). Dropout must be disabled and the model must have at
    most 500 scalars.
    """
    if spec.dropout != 0.0:
        raise ValueError("grad_check requires dropout disabled")
    if adj is None and spec.uses_graph:
        adj = normalize_adjacency(data.graph)
    params = init_params(spec, seed)
    if params.num_scalars() > 500:
        raise ValueError(f"model has {params.num_scalars()} scalars, grad_check caps at 500")

    plan = plan_rows(spec, adj, data.features)

    def forward_loss(p):
        z, _ = encoder_forward(spec, p, adj, data.features, train_mode=False, plan=plan)
        value = loss_fn(p, z, data)[0]
        if not np.isfinite(value):
            raise NumericsError("non-finite loss in grad_check")
        return value

    z, tape = encoder_forward(spec, params, adj, data.features, train_mode=False, plan=plan)
    _, d_emb, clf_grads = loss_fn(params, z, data)
    analytic = dict(clf_grads)
    analytic.update(model_backward(tape, d_emb))

    worst = 0.0
    for name in params.names():
        a = analytic.get(name)
        a = np.zeros_like(params[name]) if a is None else a
        flat = params[name].reshape(-1)
        aflat = np.asarray(a, dtype=np.float64).reshape(-1)
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


def init_adam_state(params: Params) -> dict:
    return {name: [np.zeros_like(v), np.zeros_like(v)] for name, v in params.tensors.items()}


def adam_step(params: Params, grads: dict, state: dict, *, lr: float,
              betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0,
              t: int = 1):
    """One Adam update with L2 added to the gradient. t counts from 1."""
    if t < 1:
        raise ValueError("step count t starts at 1")
    b1, b2 = betas
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.tensors.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
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


# ---------------------------------------------------------------------------
# checkpoint I/O: text header with the spec fields, then row-major tensors


# header lines after the magic line, in file order, with their parsers
CHECKPOINT_HEADER = (("encoder", str), ("layers", int), ("hidden", int), ("in_dim", int),
                     ("num_classes", int), ("dropout", float), ("classifier", str))


def save_checkpoint(path, spec: ModelSpec, params: Params) -> None:
    with open(Path(path), "w", newline="\n") as f:
        f.write("jcgraph-checkpoint 1\n")
        for key, _ in CHECKPOINT_HEADER:
            f.write(f"{key} {getattr(spec, key)}\n")
        for name, v in params.tensors.items():
            dims = " ".join(str(d) for d in v.shape)
            f.write(f"tensor {name} {v.ndim} {dims}\n")
            rows = v.reshape(v.shape[0], -1) if v.ndim == 2 else v.reshape(1, -1)
            for row in rows:
                f.write(" ".join(repr(float(x)) for x in row) + "\n")
        f.write("end\n")


def load_checkpoint(path) -> tuple[ModelSpec, Params]:
    """Read a checkpoint; a malformed or truncated file raises
    ValueError("{path}:{line}: ...")."""
    lines = Path(path).read_text().splitlines()

    def fail(i, msg):
        raise ValueError(f"{path}:{i + 1}: {msg}")

    def line(i):
        if i >= len(lines):
            fail(i, "truncated checkpoint")
        return lines[i]

    if line(0) != "jcgraph-checkpoint 1":
        fail(0, "not a checkpoint file")
    head = {}
    for i, (key, parse) in enumerate(CHECKPOINT_HEADER, start=1):
        found, _, val = line(i).partition(" ")
        if found != key:
            fail(i, f"expected header key {key!r}, got {lines[i]!r}")
        try:
            head[key] = parse(val)
        except ValueError:
            fail(i, f"bad value for {key}: {val!r}")
    try:
        spec = ModelSpec(**head)
    except ValueError as e:
        fail(1, f"bad model header: {e}")
    tensors = {}
    i = len(CHECKPOINT_HEADER) + 1
    while line(i) != "end":
        toks = lines[i].split()
        try:
            name, ndim = toks[1], int(toks[2])
            shape = tuple(int(t) for t in toks[3:])
        except (IndexError, ValueError):
            ndim, shape = -1, ()
        if toks[:1] != ["tensor"] or len(shape) != ndim or min(shape, default=0) < 0:
            fail(i, f"expected 'tensor <name> <ndim> <dims>', got {lines[i]!r}")
        nrows = shape[0] if ndim == 2 else 1
        width = int(np.prod(shape)) // nrows if nrows else 0
        vals = []
        for r in range(i + 1, i + 1 + nrows):
            toks = line(r).split()
            try:
                vals.append([float(t) for t in toks])
            except ValueError:
                fail(r, "bad tensor value")
            if len(vals[-1]) != width:
                fail(r, f"expected {width} values, got {len(vals[-1])}")
        tensors[name] = np.asarray(vals, dtype=np.float64).reshape(shape)
        i += 1 + nrows
    return spec, Params(tensors)
