"""Seeded synthetic graphs shaped like Cora and PubMed, written in the
four-file text format that ``jcgraph`` loads.

The sampler is a degree-corrected stochastic block model that costs O(m):
it draws an edge count for each block pair, samples that many endpoint pairs
(each endpoint weighted by a heavy-tailed degree propensity), then drops
self loops and duplicates. ``jcgraph.graph.gen_sbm`` draws a dense n x n
matrix, which does not fit in memory at PubMed size, and its fixtures must
stay byte-identical, so this sampler lives here and not in the package.

Features are sparse binary bag-of-words rows. Each class owns a block of
"topic" words; a node draws about ``density * dim`` words, each from its
class topic with probability ``topic_share`` and uniformly otherwise. Blocks
are the classes. The split is the Planetoid one: ``train_per_class`` labeled
nodes per class, then 500 validation and 1000 test nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# power-law exponent of the degree propensity, and its hard cap relative to
# the median node
DEGREE_EXPONENT = 4.0
MAX_PROPENSITY = 40.0


@dataclass(frozen=True)
class GraphSpec:
    class_sizes: tuple[int, ...]
    edges: int
    homophily: float
    dim: int
    density: float
    topic_share: float
    train_per_class: int = 20
    val: int = 500
    test: int = 1000


@dataclass
class Generated:
    labels: np.ndarray
    pairs: np.ndarray  # unique (u, v) with u < v, sorted
    features: np.ndarray  # uint8 0/1, shape (n, dim)
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.labels.size

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def stats(self) -> dict:
        same = self.labels[self.pairs[:, 0]] == self.labels[self.pairs[:, 1]]
        return {
            "nodes": self.num_nodes,
            "edges": int(self.pairs.shape[0]),
            "classes": self.num_classes,
            "feature_dim": int(self.features.shape[1]),
            "feature_density": float(self.features.mean()),
            "edge_homophily": float(same.mean()) if same.size else 0.0,
            "split": [int(self.train.size), int(self.val.size), int(self.test.size)],
        }


def generate(spec: GraphSpec, seed: int) -> Generated:
    rng = np.random.default_rng(seed)
    sizes = np.asarray(spec.class_sizes, dtype=np.int64)
    n, c = int(sizes.sum()), sizes.size
    labels = np.repeat(np.arange(c, dtype=np.int64), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])

    # heavy-tailed degree propensity, normalised within each block. The values
    # are fixed quantiles of a power law and only their order is random, so
    # every seed gives the same degree profile and partition cost varies less
    theta = (1.0 - (np.arange(n) + 0.5) / n) ** (-1.0 / (DEGREE_EXPONENT - 1.0))
    theta = rng.permutation(np.minimum(theta, MAX_PROPENSITY * np.median(theta)))
    cdf = []
    for b in range(c):
        w = np.cumsum(theta[starts[b]:starts[b + 1]])
        cdf.append(w / w[-1])

    def draw(block, k):
        return starts[block] + np.minimum(
            np.searchsorted(cdf[block], rng.random(k), side="right"), sizes[block] - 1)

    # expected edges per block pair: a homophily share inside blocks (by size),
    # the rest across blocks (by size product)
    inside = spec.homophily * spec.edges * sizes / n
    cross = np.outer(sizes, sizes).astype(np.float64)
    np.fill_diagonal(cross, 0.0)
    cross = np.triu(cross)
    cross *= (1.0 - spec.homophily) * spec.edges / cross.sum()
    chunks = []
    for a in range(c):
        for b in range(a, c):
            k = rng.poisson(inside[a] if a == b else cross[a, b])
            if k:
                chunks.append(np.stack([draw(a, k), draw(b, k)], axis=1))
    raw = np.concatenate(chunks)
    # like the Planetoid graphs, leave no node isolated: each one left out
    # gets an edge to a random node, of its own block with the homophily share
    lonely = np.setdiff1d(np.arange(n, dtype=np.int64), raw)
    own = rng.random(lonely.size) < spec.homophily
    other = np.where(own, labels[lonely], rng.integers(0, c, size=lonely.size))
    mates = starts[other] + (rng.random(lonely.size) * sizes[other]).astype(np.int64)
    raw = np.concatenate([raw, np.stack([lonely, mates], axis=1)])
    raw = raw[raw[:, 0] != raw[:, 1]]
    lo, hi = raw.min(axis=1), raw.max(axis=1)
    keys = np.unique(lo * np.int64(n) + hi)
    pairs = np.stack([keys // n, keys % n], axis=1)

    # bag-of-words features: each class owns a contiguous block of topic words
    topic = spec.dim // c
    words = rng.poisson(spec.density * spec.dim, size=n)
    rows = np.repeat(np.arange(n, dtype=np.int64), words)
    from_topic = rng.random(rows.size) < spec.topic_share
    cols = np.where(from_topic,
                    labels[rows] * topic + rng.integers(0, topic, size=rows.size),
                    rng.integers(0, spec.dim, size=rows.size))
    features = np.zeros((n, spec.dim), dtype=np.uint8)
    features[rows, cols] = 1

    train = np.concatenate([
        starts[b] + rng.choice(sizes[b], spec.train_per_class, replace=False)
        for b in range(c)])
    rest = np.setdiff1d(np.arange(n, dtype=np.int64), train)
    rest = rng.permutation(rest)
    val, test = rest[:spec.val], rest[spec.val:spec.val + spec.test]
    return Generated(labels, pairs, features, np.sort(train), np.sort(val), np.sort(test))


def _int_lines(a: np.ndarray) -> str:
    return "\n".join(" ".join(map(str, row)) for row in a.tolist())


def _binary_rows(x: np.ndarray) -> bytes:
    """Rows of '0'/'1' tokens separated by spaces, one row per line."""
    n, d = x.shape
    out = np.full((n, 2 * d), ord(" "), dtype=np.uint8)
    out[:, 0::2] = x + ord("0")
    out[:, -1] = ord("\n")
    return out.tobytes()


def write(g: Generated, root: Path) -> None:
    """Write graph.txt, features.txt, labels.txt and masks.txt under root."""
    root.mkdir(parents=True, exist_ok=True)
    n = g.num_nodes
    (root / "graph.txt").write_text(f"{n} {g.pairs.shape[0]}\n{_int_lines(g.pairs)}\n")
    with open(root / "features.txt", "wb") as f:
        f.write(f"{n} {g.features.shape[1]}\n".encode())
        f.write(_binary_rows(g.features))
    (root / "labels.txt").write_text(
        f"{n} {g.num_classes} s\n" + "\n".join(map(str, g.labels.tolist())) + "\n")
    (root / "masks.txt").write_text("".join(
        f"{name}:" + "".join(f" {i}" for i in idx.tolist()) + "\n"
        for name, idx in (("train", g.train), ("val", g.val), ("test", g.test))))
