"""Structural perturbation harness: random fake-edge injection and the
clean-vs-poisoned retraining sweep comparing loss functions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Dataset, Graph
from .trainer import RunResult, TrainConfig, TrainingError, make_partition, train, validate

__all__ = [
    "AttackSpec",
    "SweepRow",
    "check_ratios",
    "check_sweep",
    "random_attack",
    "robustness_sweep",
    "run_cell",
    "sweep_ratios",
    "write_sweep_csv",
]

LOSSES = ("ce", "jc")  # the losses a sweep compares, in the order each cell trains them


@dataclass(frozen=True)
class AttackSpec:
    """ratio = fake edges / real edges."""

    ratio: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio >= 0):
            raise ValueError(f"ratio must be finite and >= 0, got {self.ratio}")


def _fake_edge_count(g: Graph, spec: AttackSpec) -> int:
    """floor(ratio * m), checked against the number of non-adjacent pairs
    before the floor, as a finite ratio's product may overflow to inf."""
    wanted = spec.ratio * g.num_edges
    capacity = g.num_nodes * (g.num_nodes - 1) // 2 - g.num_edges
    if wanted >= capacity + 1:  # floor(wanted) > capacity; a float meets an int exactly
        raise ValueError(f"graph too dense: ratio {spec.ratio} x {g.num_edges} edges requests "
                         f"more fake edges than the {capacity} non-adjacent pairs")
    return int(wanted)


def sweep_ratios(ratios) -> list[float]:
    """The sweep's ratios by every rule that reads no graph: each one an
    AttackSpec ratio, strictly ascending, as a repeated ratio would train
    its runs twice."""
    ratios = list(ratios)
    if not ratios:
        raise ValueError("no ratios given")
    for ratio in ratios:
        AttackSpec(ratio)
    if ratios != sorted(set(ratios)):
        raise ValueError("ratios must be sorted ascending, each one once")
    return ratios


def check_ratios(g: Graph, ratios) -> None:
    """Each ratio's fake edges checked against g's non-adjacent pairs, as
    random_attack on g would check them."""
    for ratio in ratios:
        _fake_edge_count(g, AttackSpec(ratio))


def _found(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Which keys sorted_keys, a sorted array, holds: a binary search each,
    where np.isin would hash both arrays."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys


def random_attack(g: Graph, spec: AttackSpec) -> Graph:
    """Inject floor(ratio * m) fake undirected edges between non-adjacent pairs.

    Original edges are kept untouched; sampling is uniform without
    replacement and deterministic for a fixed seed.
    """
    n = g.num_nodes
    needed = _fake_edge_count(g, spec)
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
        keys = keys[(u != v) & ~_found(keys, edges) & ~_found(keys, np.sort(chosen))]
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

    uniq = np.sort(np.concatenate([edges, chosen]))  # disjoint, so their union
    return Graph.from_undirected_pairs(n, np.stack([uniq // n, uniq % n], axis=1))


@dataclass(frozen=True)
class SweepRow:
    """One loss at one ratio: the mean and population std of its runs' test
    accuracy, and the runs themselves, in seed order and without parameters."""

    ratio: float
    loss: str
    mean_acc: float
    std_acc: float
    seeds: int
    runs: list[RunResult] = field(compare=False)


def check_sweep(data: Dataset, ratios, cfg: TrainConfig, seeds: int) -> list[float]:
    """Every input rule of a sweep, before any work: the ratios (each one's
    fake edges counted on data's graph), the seed count, both runs' configs on
    the clean graph (poisoning keeps the nodes) and a cluster file, which
    every jc run reads. Returns the ratios as a list."""
    ratios = sweep_ratios(ratios)
    check_ratios(data.graph, ratios)
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    for loss in LOSSES:
        validate(replace(cfg, loss=loss), data)
    if cfg.partition == "file":
        make_partition("file", data, cfg.clusters, cfg.seed, cfg.clusters_file)
    return ratios


def run_cell(data: Dataset, cfg: TrainConfig, ratio: float, seed: int) -> tuple[RunResult, ...]:
    """Poison data's graph once with AttackSpec(ratio, seed) and train cfg on it with seed and
    each of LOSSES in turn, through this module's train: the results, without parameters."""
    pdata = replace(data, graph=random_attack(data.graph, AttackSpec(ratio, seed)))
    try:
        return tuple(replace(train(replace(cfg, loss=loss, seed=seed), pdata), params={})
                     for loss in LOSSES)
    except TrainingError as e:
        raise TrainingError(f"ratio {ratio} seed {seed}: {e}") from e


def robustness_sweep(data: Dataset, ratios, cfg: TrainConfig, seeds: int) -> list[SweepRow]:
    """Poison, retrain cfg with the ce loss and with the jc loss from scratch,
    report test accuracy: the one multi-seed loop. Ratio 0 poisons nothing, so
    its rows are the clean ce-vs-jc comparison over seeds. After check_sweep,
    run_cell runs each (ratio, seed) cell in that order, with seed cfg.seed + s."""
    ratios = check_sweep(data, ratios, cfg, seeds)
    cells = [run_cell(data, cfg, ratio, cfg.seed + s) for ratio in ratios for s in range(seeds)]
    rows = []
    for i, ratio in enumerate(ratios):
        for loss, kept in zip(LOSSES, map(list, zip(*cells[i * seeds:(i + 1) * seeds]))):
            accs = [r.test_acc for r in kept]
            rows.append(SweepRow(ratio, loss, float(np.mean(accs)), float(np.std(accs)), seeds, kept))
    return rows


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("ratio,loss,mean_acc,std_acc,seeds\n")
        for r in rows:
            f.write(f"{r.ratio!r},{r.loss},{r.mean_acc!r},{r.std_acc!r},{r.seeds}\n")
