"""The benchmark's workloads: which graph, which ``jcgraph`` command.

All three follow the paper's recipe (GCN 2x64, dropout 0.5, lr 0.01, weight
decay 5e-4, metis-like partition with m=5, eval every epoch). Epoch counts
are cut from the paper's 300 so that a run repeats its command within the
time budget, yet kept long enough that test accuracy does not swing with an
undertrained checkpoint. The per-epoch cost does not depend on the count.

- cora-jc: loss and eval dominate each epoch (jc_loss runs three times per
  eval, with full gradients that are thrown away); spmm and partition are
  light. A fused value-only eval head shows here.
- pubmed-jc: encoder and spmm kernels dominate each epoch and c=3 keeps the
  joint table tiny; set-up is text load plus metis. Vectorised set-up and
  kernel work show here, and it has the largest memory footprint.
- cora-attack: a ce/jc sweep over poisoned graphs. Normalise and partition
  recur on every training run while the features stay one object, so a cache
  or run context that outlives its graph shows up as changed accuracies. Its
  ce runs bypass every jc-only change.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import GraphSpec

GRAPHS = {
    # 2708 nodes, ~5.3k edges, 1433 binary features at ~1.3%, 7 classes
    "cora": GraphSpec(class_sizes=(351, 217, 418, 818, 426, 298, 180), edges=5300,
                      homophily=0.8, dim=1433, density=0.013, topic_share=0.2),
    # 19717 nodes, ~44k edges, 500 binary features at ~10%, 3 classes
    "pubmed": GraphSpec(class_sizes=(4103, 7739, 7875), edges=44300,
                        homophily=0.8, dim=500, density=0.10, topic_share=0.18),
}

RECIPE = {
    "encoder": "gcn",
    "layers": 2,
    "hidden": 64,
    "dropout": 0.5,
    "lr": 0.01,
    "weight_decay": 5e-4,
    "partition": "metis-like",
    "clusters": 5,
    "eval_every": 1,
    "loss": "jc",
}


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    command: str  # "train" or "attack"
    epochs: int
    ratios: tuple[float, ...] = ()
    attack_seeds: int = 0

    @property
    def runs_per_command(self) -> int:
        """Training runs one command performs; each is one benchmark operation."""
        if self.command == "train":
            return 1
        return 2 * len(self.ratios) * self.attack_seeds

    def config(self, seed: int) -> str:
        """The config file text; the workload seed is the training seed."""
        keys = dict(RECIPE, epochs=self.epochs, seed=seed)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def argv(self, config_path, dataset, out) -> list[str]:
        """jcgraph arguments; out is a path prefix inside the command's directory."""
        if self.command == "train":
            return ["train", str(config_path), "--dataset", str(dataset), "--out", str(out)]
        return ["attack", str(config_path), "--dataset", str(dataset),
                "--ratios", ",".join(map(repr, self.ratios)),
                "--seeds", str(self.attack_seeds), "--out", f"{out}.sweep.csv"]

    def outputs(self, out) -> list[str]:
        if self.command == "train":
            return [f"{out}.result", f"{out}.curves.csv", f"{out}.ckpt"]
        return [f"{out}.sweep.csv"]


WORKLOADS = {w.name: w for w in (
    Workload("cora-jc", "cora", "train", epochs=100),
    Workload("pubmed-jc", "pubmed", "train", epochs=40),
    Workload("cora-attack", "cora", "attack", epochs=40, ratios=(0.5, 1.0), attack_seeds=2),
)}
