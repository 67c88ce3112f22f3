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
    "encoder_forward",
    "model_backward",
    "grad_check",
    "init_adam_state",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

ENCODERS = ("gcn", "sgc", "mlp")
CLASSIFIERS = ("independent", "joint", "joint-multilabel", "in-context")

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
    def classifier_in_dim(self) -> int:
        if self.classifier == "independent":
            return self.embed_dim
        return 2 * self.embed_dim

    @property
    def classifier_out_dim(self) -> int:
        c = self.num_classes
        return {"independent": c, "in-context": c,
                "joint": c * c, "joint-multilabel": 4 * c}[self.classifier]


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
    if spec.encoder == "gcn":
        for k in range(spec.layers):
            fan_in = spec.in_dim if k == 0 else spec.hidden
            t[f"enc_w{k}"] = _glorot(rng, fan_in, spec.hidden)
    elif spec.encoder == "mlp":
        for k in range(spec.layers):
            fan_in = spec.in_dim if k == 0 else spec.hidden
            t[f"enc_w{k}"] = _glorot(rng, fan_in, spec.hidden)
            t[f"enc_b{k}"] = np.zeros(spec.hidden)
    t["clf_w"] = _glorot(rng, spec.classifier_in_dim, spec.classifier_out_dim)
    t["clf_b"] = np.zeros(spec.classifier_out_dim)
    return Params(t)


# dense feature matrices with many zeros get a cached CSR twin for fast matmul
_sparse_cache: dict[int, tuple[np.ndarray, sp.csr_matrix]] = {}


def _sparse_twin(x: np.ndarray) -> sp.csr_matrix | None:
    if x.size < SPARSE_MIN_SIZE:
        return None
    hit = _sparse_cache.get(id(x))
    if hit is not None and hit[0] is x:
        return hit[1]
    density = np.count_nonzero(x) / x.size
    if density > SPARSE_DENSITY:
        return None
    twin = sp.csr_matrix(x)
    if len(_sparse_cache) > 8:
        _sparse_cache.clear()
    _sparse_cache[id(x)] = (x, twin)
    return twin


@dataclass
class GradientTape:
    """Forward-pass cache; consumed by exactly one model_backward call."""

    spec: ModelSpec
    adj: NormAdj | None
    layers: list
    used: bool = False


def _dropout_dense(rng, x, p):
    mask = rng.random(x.shape) >= p
    return x * mask / (1.0 - p), mask


def _dropout_sparse(rng, x_csr, p):
    mask = rng.random(x_csr.data.shape) >= p
    data = x_csr.data * mask / (1.0 - p)
    dropped = sp.csr_matrix((data, x_csr.indices, x_csr.indptr), shape=x_csr.shape)
    return dropped, mask


def encoder_forward(spec: ModelSpec, params: Params, adj: NormAdj | None,
                    x: np.ndarray, train_mode: bool = False, seed: int = 0):
    """Run the encoder; returns (embeddings, tape).

    gcn: K rounds of z <- relu(A z W), no nonlinearity after the last round.
    sgc: A^K x, cached per (adj, x, K); the linear map lives in the classifier.
    mlp: K rounds of z <- relu(z W + b). Dropout precedes every linear layer
    in train mode.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ValueError(f"features have shape {x.shape}, spec.in_dim={spec.in_dim}")
    if spec.encoder in ("gcn", "sgc") and adj is None:
        raise ValueError(f"{spec.encoder} encoder requires a normalized adjacency")

    if spec.encoder == "sgc":
        key = (id(x), spec.layers)
        hit = adj._sgc_cache.get(key)
        if hit is None or hit[0] is not x:
            z = x
            for _ in range(spec.layers):
                z = spmm(adj, z)
            adj._sgc_cache[key] = (x, z)
        z = adj._sgc_cache[key][1]
        _check_finite(z)
        return z, GradientTape(spec, adj, [])

    rng = np.random.default_rng(seed)
    drop = train_mode and spec.dropout > 0.0
    h = x
    caches = []
    for k in range(spec.layers):
        w = params[f"enc_w{k}"]
        inp, mask = h, None
        if k == 0:
            twin = _sparse_twin(x)
            if twin is not None:
                inp = twin
        if drop:
            if sp.issparse(inp):
                inp, mask = _dropout_sparse(rng, inp, spec.dropout)
            else:
                inp, mask = _dropout_dense(rng, inp, spec.dropout)
        u = inp @ w
        if spec.encoder == "gcn":
            s = spmm(adj, u)
        else:
            s = u + params[f"enc_b{k}"]
        relu = spec.encoder == "mlp" or k < spec.layers - 1
        h = np.maximum(s, 0.0) if relu else s
        caches.append({"inp": inp, "mask": mask, "pre": s, "relu": relu, "k": k, "w": w})
    _check_finite(h)
    return h, GradientTape(spec, adj, caches)


def _check_finite(z):
    if not np.isfinite(z).all():
        raise NumericsError("non-finite activations in encoder forward")


def model_backward(tape: GradientTape, loss_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of every encoder parameter given d(loss)/d(embeddings)."""
    if tape.used:
        raise RuntimeError("gradient tape already consumed")
    tape.used = True
    spec = tape.spec
    if spec.encoder == "sgc":
        return {}
    d = np.asarray(loss_grad, dtype=np.float64)
    if d.shape[1] != spec.embed_dim:
        raise ValueError(f"loss gradient has shape {d.shape}, embed dim is {spec.embed_dim}")
    grads = {}
    for cache in reversed(tape.layers):
        k = cache["k"]
        ds = d * (cache["pre"] > 0.0) if cache["relu"] else d
        if spec.encoder == "gcn":
            du = spmm(tape.adj, ds)  # A is symmetric
        else:
            du = ds
            grads[f"enc_b{k}"] = ds.sum(axis=0)
        inp = cache["inp"]
        grads[f"enc_w{k}"] = (inp.T @ du) if not sp.issparse(inp) else np.asarray(inp.T @ du)
        if k > 0:
            d = du @ cache["w"].T
            if cache["mask"] is not None:
                d = d * cache["mask"] / (1.0 - spec.dropout)
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
    if adj is None and spec.encoder in ("gcn", "sgc"):
        adj = normalize_adjacency(data.graph)
    params = init_params(spec, seed)
    if params.num_scalars() > 500:
        raise ValueError(f"model has {params.num_scalars()} scalars, grad_check caps at 500")

    def forward_loss(p):
        z, _ = encoder_forward(spec, p, adj, data.features, train_mode=False)
        value = loss_fn(p, z, data)[0]
        if not np.isfinite(value):
            raise NumericsError("non-finite loss in grad_check")
        return value

    z, tape = encoder_forward(spec, params, adj, data.features, train_mode=False)
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
