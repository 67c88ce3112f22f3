"""Training orchestration: epoch loop, cluster refresh, checkpoint at best
validation score and evaluation.

Training is full batch. Cluster statistics are recomputed from the current
epoch's embeddings (gradients flow through them unless detach_cluster is
set), and from each evaluated model's embeddings for inference, always
over labeled nodes only. A training step computes only the embeddings of
the train rows and their receptive field, an eval those of every split, on
compact blocks of those rows: one nn.plan_rows call cuts both plans, for
every encoder. Labels, cluster ids and masks are cut to the embeddings'
rows once. Sparse products, dropout and element-wise steps give the bits of
a pass over every row; a dense product over fewer rows can differ from it in
the last bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .graph import Dataset, DatasetFormatError, normalize_adjacency
from .losses import LOSS_KINDS
from .metrics import accuracy, ece, f1_scores
from .nn import (ENCODERS, ModelSpec, NumericsError, adam_step, encoder_forward, init_adam_state,
                 init_params, model_backward, plan_rows)
from .partition import (ClusterAssignment, partition_kmeans, partition_metis_like,
                        partition_random, read_assignment)

__all__ = [
    "TrainConfig",
    "RunResult",
    "TrainingError",
    "train",
    "validate",
    "check_clusters",
    "config_echo",
    "write_result",
    "write_curves",
]

# partition method -> (data, m, seed, clusters_file) -> assignment. The
# partitioners are looked up at call time, so a swapped module attribute is
# what runs; "file" reads an assignment computed before.
PARTITION_METHODS = {
    "metis-like": lambda data, m, seed, path: partition_metis_like(data.graph, m, seed),
    "kmeans": lambda data, m, seed, path: partition_kmeans(data.features, m, seed),
    "random": lambda data, m, seed, path: partition_random(data.num_nodes, m, seed),
    "file": lambda data, m, seed, path: read_assignment(path),
}


class TrainingError(RuntimeError):
    """A failure once the first epoch starts, after every input check; its
    message names the epoch and, in a sweep, the ratio and seed."""


@dataclass
class TrainConfig:
    """Every run key but dataset and out, each field the config key of its
    name with its only default, checked here by every rule that reads no
    data. The model's shape is not a field: validate derives it from the
    encoder keys, the loss and the dataset, and checks the rules that do."""

    encoder: str = "gcn"
    layers: int = 2
    hidden: int = 64
    dropout: float = 0.5
    loss: str = "ce"
    partition: str = "metis-like"
    clusters: int = 1
    clusters_file: str | None = None
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 300
    eval_every: int = 1
    seed: int = 0
    detach_cluster: bool = False
    beta: float = 1.0

    def __post_init__(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        min_layers = 0 if self.encoder == "sgc" else 1
        if self.layers < min_layers:
            raise ValueError(f"layers must be >= {min_layers} for {self.encoder}, got {self.layers}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.partition not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.partition!r}")
        if self.partition == "file" and self.clusters_file is None:
            raise ValueError("partition method 'file' needs clusters_file")
        if self.partition != "file" and self.clusters_file is not None:
            raise ValueError(f"clusters_file is read by partition method 'file' only, "
                             f"got partition {self.partition!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for key in ("weight_decay", "beta"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {v}")
        for key in ("epochs", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass
class RunResult:
    best_val_epoch: int
    test_acc: float
    test_f1_micro: float
    test_f1_macro: float
    test_f1_weighted: float
    test_ece: float
    eval_epochs: list[int]
    train_loss: list[float]
    val_loss: list[float]
    test_loss: list[float]
    val_acc: list[float]
    # the wall-clock measurement, which a rerun changes, and the best-validation
    # parameter snapshot, which the .ckpt holds
    seconds_per_epoch: float = field(compare=False)
    params: dict[str, np.ndarray] = field(compare=False)


def validate(cfg: TrainConfig, data: Dataset) -> ModelSpec:
    """Reject a config that cannot run on data by the rules that read it
    (clusters <= n, the label kind, the masks, the model's size), before any
    work starts; the model spec of the run: the encoder keys, data's feature
    and class counts and the loss's classifier."""
    spec = ModelSpec(cfg.encoder, cfg.layers, cfg.hidden, data.features.shape[1],
                     data.labels.num_classes, cfg.dropout, LOSS_KINDS[cfg.loss].classifier)
    losses.check_label_kind(cfg.loss, data.labels)
    if data.masks.train.size == 0:
        raise ValueError("the dataset's train mask is empty")
    if data.masks.test.size == 0:
        raise ValueError("the dataset's test mask is empty")
    check_clusters(cfg.clusters, data)
    try:  # all the weights at once; numpy raises ValueError past its index range
        np.empty(spec.num_params)
    except (MemoryError, ValueError) as e:
        raise ValueError(f"hidden = {spec.hidden}, layers = {spec.layers}: the model's weights "
                         f"do not fit ({e})") from None
    return spec


def check_clusters(m: int, data: Dataset, key: str = "clusters") -> None:
    """Reject a cluster count outside 1 .. n, data's node count, naming it key.
    No method needs more clusters than nodes, and the cluster statistics size
    their tables by the count."""
    if not 1 <= m <= data.num_nodes:
        raise ValueError(f"{key} must be in 1 .. the dataset's {data.num_nodes} nodes, got {m}")


def make_partition(method: str, data: Dataset, m: int, seed: int,
                   clusters_file=None) -> ClusterAssignment:
    """data's nodes in m clusters by the named method: the one partition dispatch."""
    a = PARTITION_METHODS[method](data, m, seed, clusters_file)
    # only a file can cover another graph or declare another count
    if a.num_nodes != data.num_nodes:
        raise DatasetFormatError(clusters_file, 1, f"covers {a.num_nodes} nodes, "
                                                   f"dataset has {data.num_nodes}")
    if a.num_clusters != m:
        raise DatasetFormatError(clusters_file, 1, f"declares {a.num_clusters} clusters, "
                                                   f"config has clusters = {m}")
    return a


def _indicators(p, data, mask):
    """Predicted and true 0/1 class matrices of mask's rows, p their class
    probabilities: argmax one-hot rows, or p >= 0.5 for multi-label sets."""
    pred = p >= 0.5 if data.labels.multi else np.eye(p.shape[1], dtype=bool)[np.argmax(p, axis=1)]
    return pred, data.labels.matrix[mask]


def _split_score(p, data, mask) -> float:
    """Checkpoint metric: accuracy (single-label) or micro-F1 (multi-label)."""
    if data.labels.multi:
        return f1_scores(*_indicators(p, data, mask))[0]
    return accuracy(p, np.argmax(data.labels.matrix[mask], axis=1))


def _split_metrics(p, data, mask) -> dict:
    micro, macro, weighted = f1_scores(*_indicators(p, data, mask))
    if data.labels.multi:
        return {"acc": micro, "f1_micro": micro, "f1_macro": macro,
                "f1_weighted": weighted, "ece": float("nan")}
    y = np.argmax(data.labels.matrix[mask], axis=1)
    return {"acc": accuracy(p, y), "f1_micro": micro, "f1_macro": macro,
            "f1_weighted": weighted, "ece": ece(p, y)}


def train(cfg: TrainConfig, data: Dataset) -> RunResult:
    """Run the full training loop; the result carries the test metrics and
    the parameters of the best-validation checkpoint."""
    spec = validate(cfg, data)
    params = init_params(spec, cfg.seed)
    masks = data.masks
    val_mask = masks.val if masks.val.size else masks.train
    splits = [masks.train, val_mask, masks.test]
    adj = normalize_adjacency(data.graph) if spec.uses_graph else None
    assign = (make_partition(cfg.partition, data, cfg.clusters, cfg.seed, cfg.clusters_file)
              if LOSS_KINDS[cfg.loss].needs_clusters else None)
    # a step reads the train rows' embeddings, an eval those of every split
    train_plan, eval_plan = plan_rows(spec, adj, data.features, masks.train,
                                      np.concatenate(splits))

    def cut(plan, ids):
        """The labels of plan's target rows (the rows of its embeddings z),
        each mask in ids as positions among them, and the map from z to its
        cluster means over the first mask's rows (None without clusters)."""
        rows = plan.rows[-1]
        labels = replace(data.labels, matrix=data.labels.matrix[rows])
        at = [np.searchsorted(rows, mask) for mask in ids]
        a = None if assign is None else ClusterAssignment(assign.num_clusters, assign.assign[rows])
        return labels, at, lambda z: a and losses.cluster_stats(z, labels, at[0], a)

    train_labels, (train_rows,), train_stats = cut(train_plan, [masks.train])
    eval_labels, eval_splits, eval_stats = cut(eval_plan, splits)

    state = init_adam_state(params)
    curves = {"eval_epochs": [], "train_loss": [], "val_loss": [], "test_loss": [], "val_acc": []}
    # every run evaluates at least once and no score is NaN, so the first eval sets all four
    best_score, best_epoch, best_params, best_probs = -np.inf, 0, None, None

    def run_eval(epoch, current):
        """Predictions and the loss on each split: the one eval path."""
        nonlocal best_score, best_epoch, best_params, best_probs
        z = encoder_forward(current, eval_plan, train_mode=False)[0]  # the tape ends here
        (_, val_probs, test_probs), values = losses.eval_pass(cfg.loss, current, z, eval_labels,
                                                              eval_splits, eval_stats(z), cfg.beta)
        score = _split_score(val_probs, data, val_mask)
        for curve, v in zip(curves.values(), (epoch, *values, score)):
            curve.append(v)
        if score > best_score:
            best_params = {name: v.copy() for name, v in current.items()}
            best_score, best_epoch, best_probs = score, epoch, test_probs

    def step(epoch):
        """One Adam step on the train rows. The tape, embeddings and loss end
        before the update, the gradients when it returns, before the eval
        makes its own arrays."""
        z, tape = encoder_forward(params, train_plan, train_mode=True, seed=[cfg.seed, 1, epoch])
        res = losses.loss_fn(cfg.loss)(params, z, train_labels, train_rows, train_stats(z),
                                       detach_cluster=cfg.detach_cluster, beta=cfg.beta)
        if not np.isfinite(res.value):
            raise NumericsError("non-finite loss")
        grads = model_backward(tape, res.d_embeddings)
        grads.update(res.clf_grads)
        del z, tape, res
        adam_step(params, grads, state, lr=cfg.lr, weight_decay=cfg.weight_decay, t=epoch)

    t0 = time.perf_counter()
    if cfg.epochs == 0:
        run_eval(0, params)
    for epoch in range(1, cfg.epochs + 1):
        try:  # the finite checks find a failure, so numpy's float warnings stay quiet
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                step(epoch)
                if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                    run_eval(epoch, params)
        except (NumericsError, ValueError) as e:  # every input check ran before epoch 1
            raise TrainingError(f"{e} at epoch {epoch}") from e
    seconds = (time.perf_counter() - t0) / max(1, cfg.epochs)
    # the best epoch's predictions are those of the checkpointed parameters
    test = _split_metrics(best_probs, data, masks.test)
    return RunResult(best_val_epoch=best_epoch, seconds_per_epoch=seconds, params=best_params,
                     **curves, **{f"test_{k}": v for k, v in test.items()})


# ---------------------------------------------------------------------------
# result files: flat "key = value" text plus a curves CSV


# the run settings a .result file echoes, in file order
ECHO_KEYS = ("encoder", "layers", "hidden", "dropout", "classifier", "loss", "partition",
             "clusters", "lr", "weight_decay", "epochs", "eval_every", "seed",
             "detach_cluster", "beta")
# the test metrics a .result file reports, in file order
METRIC_KEYS = ("test_acc", "test_f1_micro", "test_f1_macro", "test_f1_weighted", "test_ece")


def config_echo(cfg: TrainConfig, spec: ModelSpec) -> dict[str, str]:
    """Each echoed setting by name, from the config or its spec: booleans in
    lower case, everything else as str gives it."""
    values = {**vars(spec), **vars(cfg)}
    return {k: str(values[k]).lower() if isinstance(values[k], bool) else str(values[k])
            for k in ECHO_KEYS}


def write_result(path, cfg: TrainConfig, spec: ModelSpec, result: RunResult) -> None:
    """Self-describing flat result file. Timing is deliberately excluded so
    identical seeded runs produce byte-identical files."""
    lines = [f"config.{k} = {v}" for k, v in config_echo(cfg, spec).items()]
    lines.append(f"best_val_epoch = {result.best_val_epoch}")
    for key in METRIC_KEYS:
        lines.append(f"{key} = {repr(float(getattr(result, key)))}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_curves(path, result: RunResult) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("epoch,train_loss,val_loss,test_loss,val_acc\n")
        for i, epoch in enumerate(result.eval_epochs):
            f.write(f"{epoch},{result.train_loss[i]!r},{result.val_loss[i]!r},"
                    f"{result.test_loss[i]!r},{result.val_acc[i]!r}\n")
