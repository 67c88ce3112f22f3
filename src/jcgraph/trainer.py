"""Training orchestration: epoch loop, cluster refresh, checkpoint at best
validation score, evaluation, and multi-seed aggregation.

Training is full batch. Cluster statistics are recomputed from the current
epoch's embeddings (gradients flow through them unless detach_cluster is
set), and from each evaluated model's embeddings for inference, always
over labeled nodes only. A training step computes only the embeddings of
the train rows and their receptive field, an eval those of every split
(see nn.RowPlan); the results are the same bits as computing every row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .graph import Dataset, normalize_adjacency
from .losses import LOSS_KINDS
from .metrics import PredictionBatch, accuracy, ece, f1_scores, multilabel_f1
from .nn import (ModelSpec, Params, RowPlan, adam_step, encoder_forward, init_adam_state,
                 init_params, model_backward, plan_rows)
from .partition import (ClusterAssignment, partition_kmeans, partition_metis_like,
                        partition_random, read_assignment)

__all__ = [
    "TrainConfig",
    "RunResult",
    "MultiSeedResult",
    "TrainingError",
    "train",
    "train_with_params",
    "evaluate",
    "multi_seed",
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
    def __init__(self, message, epoch=None, seed=None):
        self.epoch = epoch
        self.seed = seed
        super().__init__(message)


@dataclass
class TrainConfig:
    spec: ModelSpec
    loss: str = "ce"
    partition: str = "metis-like"
    num_clusters: int = 1
    clusters_file: str | None = None
    lr: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    weight_decay: float = 5e-4
    epochs: int = 300
    eval_every: int = 1
    seed: int = 0
    detach_cluster: bool = False
    beta: float = 1.0
    ece_bins: int = 10

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.partition not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.partition!r}")
        if self.partition == "file" and self.clusters_file is None:
            raise ValueError("partition method 'file' needs clusters_file")
        for key, b in zip(("adam_beta1", "adam_beta2"), self.betas):
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{key} must be in [0, 1), got {b}")
        for key in ("lr", "adam_eps"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{key} must be finite and > 0, got {v}")
        for key in ("weight_decay", "beta"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {v}")
        if LOSS_KINDS[self.loss].needs_clusters and self.num_clusters < 1:
            raise ValueError("cluster-based losses need num_clusters >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
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
    seconds_per_epoch: float


@dataclass
class MultiSeedResult:
    metrics: dict[str, tuple[float, float]]
    results: list


def _validate(cfg: TrainConfig, data: Dataset) -> None:
    clf = LOSS_KINDS[cfg.loss].classifier
    if cfg.spec.classifier != clf:
        raise ValueError(f"loss {cfg.loss!r} needs classifier {clf!r}, spec has {cfg.spec.classifier!r}")
    if data.labels.kind not in LOSS_KINDS[cfg.loss].label_kinds:
        raise ValueError(f"loss {cfg.loss!r} does not support label kind {data.labels.kind!r}")
    if cfg.spec.in_dim != data.features.shape[1]:
        raise ValueError("spec.in_dim does not match the dataset")
    if cfg.spec.num_classes != data.labels.num_classes:
        raise ValueError("spec.num_classes does not match the dataset")
    if data.masks.train.size == 0:
        raise ValueError("the dataset's train mask is empty")
    if data.masks.test.size == 0:
        raise ValueError("the dataset's test mask is empty")


def make_partition(method: str, data: Dataset, m: int, seed: int,
                   clusters_file=None) -> ClusterAssignment:
    """data's nodes in m clusters by the named method: the one partition dispatch."""
    a = PARTITION_METHODS[method](data, m, seed, clusters_file)
    if a.num_nodes != data.num_nodes:  # only a file can cover another graph
        raise ValueError(f"{clusters_file}: covers {a.num_nodes} nodes, dataset has {data.num_nodes}")
    return a


def _setup(cfg: TrainConfig, data: Dataset, assign: ClusterAssignment | None = None):
    """The all-rows plan and, if the loss reads clusters and none is given, the partition."""
    adj = normalize_adjacency(data.graph) if cfg.spec.uses_graph else None
    if assign is None and LOSS_KINDS[cfg.loss].needs_clusters:
        assign = make_partition(cfg.partition, data, cfg.num_clusters, cfg.seed,
                                cfg.clusters_file)
    return plan_rows(cfg.spec, adj, data.features), assign


def _loss_on(cfg, params, z, data, mask, assign, stats) -> losses.LossResult:
    """cfg.loss's public losses.*_loss, looked up on the module at each call."""
    if cfg.loss == "ce":
        return losses.ce_loss(params, z, data.labels, mask)
    if cfg.loss == "ic":
        return losses.ic_loss(params, z, stats, data.labels, mask, assign,
                              detach_cluster=cfg.detach_cluster)
    if cfg.loss == "mixup":
        return losses.mixup_loss(params, z, stats, data.labels, mask, assign,
                                 cfg.beta, detach_cluster=cfg.detach_cluster)
    joint = losses.jc_loss if cfg.loss == "jc" else losses.jc_multilabel_loss
    return joint(params, z, data.labels, mask, assign, stats, detach_cluster=cfg.detach_cluster)


def _eval_pass(cfg, params, plan: RowPlan, data, assign, splits, stats=None):
    """Predictions and the loss on each split: the one eval path.

    The plan's targets must cover the splits and the train rows. Predictions
    exist on the split rows only; every other row is NaN.
    """
    z, _ = encoder_forward(cfg.spec, params, plan.adj, data.features, train_mode=False,
                           plan=plan)
    if assign is not None and stats is None:
        stats = losses.cluster_stats(z, data.labels, data.masks.train, assign)
    return losses.eval_pass(cfg.loss, params, z, data.labels, splits, assign, stats, cfg.beta)


def _split_score(probs, data, mask) -> float:
    """Checkpoint metric: accuracy (single-label) or micro-F1 (multi-label)."""
    if data.labels.multi:
        micro, _, _ = multilabel_f1(probs[mask], data.labels.matrix[mask])
        return micro
    batch = PredictionBatch(probs[mask], data.labels.class_index()[mask], mask)
    return accuracy(batch)


def _split_metrics(probs, data, mask, ece_bins) -> dict:
    if data.labels.multi:
        micro, macro, weighted = multilabel_f1(probs[mask], data.labels.matrix[mask])
        return {"acc": micro, "f1_micro": micro, "f1_macro": macro,
                "f1_weighted": weighted, "ece": float("nan")}
    batch = PredictionBatch(probs[mask], data.labels.class_index()[mask], mask)
    micro, macro, weighted = f1_scores(batch)
    return {"acc": accuracy(batch), "f1_micro": micro, "f1_macro": macro,
            "f1_weighted": weighted, "ece": ece(batch, ece_bins)}


def train(cfg: TrainConfig, data: Dataset) -> RunResult:
    """Run the full training loop and return the checkpointed test metrics."""
    result, _ = train_with_params(cfg, data)
    return result


def train_with_params(cfg: TrainConfig, data: Dataset) -> tuple[RunResult, Params]:
    """Like train, but also returns the best-validation parameter snapshot."""
    _validate(cfg, data)
    spec = cfg.spec
    plan, assign = _setup(cfg, data)
    masks = data.masks
    val_mask = masks.val if masks.val.size else masks.train
    # a step reads the train rows' embeddings, an eval those of every split
    train_plan = plan.restrict(masks.train)
    eval_plan = plan.restrict(np.concatenate([masks.train, val_mask, masks.test]))

    params = init_params(spec, cfg.seed)
    state = init_adam_state(params)

    curves = {"eval_epochs": [], "train_loss": [], "val_loss": [], "test_loss": [], "val_acc": []}
    best_score, best_epoch, best_params, best_probs = -np.inf, 0, params.copy(), None

    def run_eval(epoch, current):
        nonlocal best_score, best_epoch, best_params, best_probs
        probs, values = _eval_pass(cfg, current, eval_plan, data, assign,
                                   [masks.train, val_mask, masks.test])
        score = _split_score(probs, data, val_mask)
        for curve, v in zip(curves.values(), (epoch, *values, score)):
            curve.append(v)
        if score > best_score:
            best_score, best_epoch, best_params, best_probs = score, epoch, current.copy(), probs

    t0 = time.perf_counter()
    if cfg.epochs == 0:
        run_eval(0, params)
    for epoch in range(1, cfg.epochs + 1):
        z, tape = encoder_forward(spec, params, plan.adj, data.features, train_mode=True,
                                  seed=[cfg.seed, 1, epoch], plan=train_plan)
        stats = (losses.cluster_stats(z, data.labels, masks.train, assign)
                 if assign is not None else None)
        res = _loss_on(cfg, params, z, data, masks.train, assign, stats)
        if not np.isfinite(res.value):
            raise TrainingError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        grads = model_backward(tape, res.d_embeddings)
        grads.update(res.clf_grads)
        adam_step(params, grads, state, lr=cfg.lr, betas=cfg.betas,
                  eps=cfg.adam_eps, weight_decay=cfg.weight_decay, t=epoch)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            run_eval(epoch, params)
    seconds = (time.perf_counter() - t0) / max(1, cfg.epochs)
    # the best epoch's predictions are those of the checkpointed parameters
    test = _split_metrics(best_probs, data, masks.test, cfg.ece_bins)

    result = RunResult(best_val_epoch=best_epoch, seconds_per_epoch=seconds, **curves,
                       **{f"test_{k}": v for k, v in test.items()})
    return result, best_params


def evaluate(params: Params, cfg: TrainConfig, data: Dataset,
             stats: losses.ClusterStats | None = None, split: np.ndarray | None = None,
             assign: ClusterAssignment | None = None) -> dict:
    """Metrics bundle (plus loss) for one split under the given parameters."""
    split = np.asarray(split if split is not None else data.masks.test, dtype=np.int64)
    if split.size == 0:
        raise ValueError("empty split")
    plan, assign = _setup(cfg, data, assign)
    plan = plan.restrict(np.concatenate([data.masks.train, split]))
    probs, (loss,) = _eval_pass(cfg, params, plan, data, assign, [split], stats)
    return {**_split_metrics(probs, data, split, cfg.ece_bins), "loss": loss}


METRIC_KEYS = ("test_acc", "test_f1_micro", "test_f1_macro", "test_f1_weighted", "test_ece")


def multi_seed(cfg: TrainConfig, data: Dataset, k: int) -> MultiSeedResult:
    """Run seeds cfg.seed .. cfg.seed+k-1; report mean and population std."""
    if k < 1:
        raise ValueError("k must be >= 1")
    results = []
    for s in range(cfg.seed, cfg.seed + k):
        try:
            results.append(train(replace(cfg, seed=s), data))
        except TrainingError as e:
            raise TrainingError(f"seed {s}: {e}", epoch=e.epoch, seed=s) from e
    metrics = {}
    for key in METRIC_KEYS:
        vals = np.asarray([getattr(r, key) for r in results], dtype=np.float64)
        metrics[key] = (float(vals.mean()), float(vals.std()))
    return MultiSeedResult(metrics, results)


# ---------------------------------------------------------------------------
# result files: flat "key = value" text plus a curves CSV


def config_echo(cfg: TrainConfig) -> dict[str, str]:
    spec = cfg.spec
    return {
        "encoder": spec.encoder,
        "layers": str(spec.layers),
        "hidden": str(spec.hidden),
        "dropout": repr(spec.dropout),
        "classifier": spec.classifier,
        "loss": cfg.loss,
        "partition": cfg.partition,
        "clusters": str(cfg.num_clusters),
        "lr": repr(cfg.lr),
        "weight_decay": repr(cfg.weight_decay),
        "epochs": str(cfg.epochs),
        "eval_every": str(cfg.eval_every),
        "seed": str(cfg.seed),
        "detach_cluster": str(cfg.detach_cluster).lower(),
        "beta": repr(cfg.beta),
    }


def write_result(path, cfg: TrainConfig, result: RunResult) -> None:
    """Self-describing flat result file. Timing is deliberately excluded so
    identical seeded runs produce byte-identical files."""
    lines = [f"config.{k} = {v}" for k, v in config_echo(cfg).items()]
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
