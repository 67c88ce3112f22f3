"""Structural perturbation harness: random fake-edge injection and the
clean-vs-poisoned retraining sweep comparing loss functions."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import Dataset, Graph
from .trainer import TrainConfig, TrainingError, make_partition, train, validate

__all__ = [
    "AttackSpec",
    "SweepRow",
    "check_ratios",
    "random_attack",
    "robustness_sweep",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class AttackSpec:
    """ratio = fake edges / real edges."""

    ratio: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio >= 0):
            raise ValueError(f"ratio must be finite and >= 0, got {self.ratio}")


def _fake_edge_count(g: Graph, spec: AttackSpec) -> int:
    """floor(ratio * m), checked against the number of non-adjacent pairs."""
    needed = int(spec.ratio * g.num_edges)
    capacity = g.num_nodes * (g.num_nodes - 1) // 2 - g.num_edges
    if needed > capacity:
        raise ValueError(f"graph too dense: {needed} fake edges requested at ratio {spec.ratio}, "
                         f"only {capacity} non-adjacent pairs exist")
    return needed


def check_ratios(g: Graph, ratios) -> list[float]:
    """The sweep's ratios, each one checked as random_attack on g would check it."""
    ratios = list(ratios)
    if not ratios:
        raise ValueError("no ratios given")
    for ratio in ratios:
        _fake_edge_count(g, AttackSpec(ratio))
    if ratios != sorted(ratios):
        raise ValueError("ratios must be sorted ascending")
    return ratios


def random_attack(g: Graph, spec: AttackSpec) -> Graph:
    """Inject floor(ratio * m) fake undirected edges between non-adjacent pairs.

    Original edges are kept untouched; sampling is uniform without
    replacement and deterministic for a fixed seed.
    """
    n = g.num_nodes
    needed = _fake_edge_count(g, spec)
    if needed == 0:
        return Graph(n, g.indptr.copy(), g.indices.copy())

    edges = g.edge_pairs() @ np.array([n, 1], dtype=np.int64)  # sorted keys u * n + v, u < v
    rng = np.random.default_rng(spec.seed)
    chosen = np.empty(0, dtype=np.int64)  # in draw order
    tries = 0
    cap_tries = 50 * needed + 10_000
    while chosen.size < needed and tries < cap_tries:
        # a batch (of at least 1024, so rare hits take few batches) draws the
        # stream of one-pair tries, u then v, and keeps its first new pairs
        k = min(max(needed - chosen.size, 1024), cap_tries - tries)
        tries += k
        u, v = rng.integers(n, size=2 * k).reshape(k, 2).T
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        keys = keys[(u != v) & ~np.isin(keys, edges) & ~np.isin(keys, chosen)]
        _, first = np.unique(keys, return_index=True)
        chosen = np.concatenate([chosen, keys[np.sort(first)][:needed - chosen.size]])
    if chosen.size < needed:
        # dense corner: sample the complement's sorted keys exactly; the graph
        # is near-complete here, so an n x n mask is smaller than its edges
        free = ~np.tri(n, dtype=bool).ravel()  # the pairs u < v
        free[np.concatenate([edges, chosen])] = False
        pool = np.flatnonzero(free)
        extra = rng.choice(pool.size, size=needed - chosen.size, replace=False)
        chosen = np.concatenate([chosen, pool[extra]])

    uniq = np.union1d(edges, chosen)
    return Graph.from_undirected_pairs(n, np.stack([uniq // n, uniq % n], axis=1))


@dataclass(frozen=True)
class SweepRow:
    ratio: float
    loss: str
    mean_acc: float
    std_acc: float
    seeds: int


def robustness_sweep(data: Dataset, ratios, cfg: TrainConfig, seeds: int) -> list[SweepRow]:
    """Poison, retrain cfg with the ce loss and with the jc loss from scratch,
    report test accuracy.

    For every (ratio, seed) cell the graph is re-poisoned with that seed and
    both losses are trained on the same poisoned graph. Every ratio, and both
    runs' configs on the clean graph (poisoning keeps the nodes), are checked
    before the first training, and so is a cluster file, which every jc run reads.
    """
    ratios = check_ratios(data.graph, ratios)
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    for loss in ("ce", "jc"):
        validate(replace(cfg, loss=loss), data)
    if cfg.partition == "file":
        make_partition("file", data, cfg.clusters, cfg.seed, cfg.clusters_file)
    rows = []
    for ratio in ratios:
        accs = {"ce": [], "jc": []}
        for s in range(seeds):
            poisoned = random_attack(data.graph, AttackSpec(ratio, seed=cfg.seed + s))
            pdata = Dataset(poisoned, data.features, data.labels, data.masks)
            for loss in accs:
                run = replace(cfg, loss=loss, seed=cfg.seed + s)
                try:  # the accuracy only, so no run's parameters outlive it
                    accs[loss].append(train(run, pdata).test_acc)
                except TrainingError as e:
                    raise TrainingError(f"ratio {ratio} seed {run.seed}: {e}",
                                        epoch=e.epoch, seed=run.seed) from e
        for loss, vals in accs.items():
            rows.append(SweepRow(ratio, loss, float(np.mean(vals)), float(np.std(vals)), seeds))
    return rows


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("ratio,loss,mean_acc,std_acc,seeds\n")
        for r in rows:
            f.write(f"{r.ratio!r},{r.loss},{r.mean_acc!r},{r.std_acc!r},{r.seeds}\n")
