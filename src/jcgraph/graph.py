"""Graph containers, adjacency normalization, dataset text I/O, SBM generator.

Graphs are undirected and stored in compressed (CSR-like) form: a flat array
of neighbor indices plus per-node offsets. Neighbor lists are sorted, every
edge is stored in both directions, and self loops are never stored (the
normalized adjacency adds its own diagonal). All dense numerics are float64,
all indices int64.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DatasetFormatError",
    "Graph",
    "NormAdj",
    "LabelSet",
    "SplitMasks",
    "Dataset",
    "normalize_adjacency",
    "spmm",
    "load_dataset",
    "write_dataset",
    "gen_sbm",
    "imbalance_ratio",
]


class DatasetFormatError(ValueError):
    """A dataset file is missing, inconsistent, or malformed."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        loc = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{loc}: {message}")


def _unique_undirected(num_nodes: int, pairs: np.ndarray) -> np.ndarray:
    """Normalize (u, v) pairs to u < v and drop duplicates. Returns (m, 2)."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique(lo * np.int64(num_nodes) + hi)
    return np.stack([keys // num_nodes, keys % num_nodes], axis=1)


class Graph:
    """Undirected graph over nodes 0..n-1 in compressed adjacency form."""

    __slots__ = ("num_nodes", "indptr", "indices")

    def __init__(self, num_nodes: int, indptr: np.ndarray, indices: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Graph":
        """Build from an iterable of (u, v) pairs; symmetrizes, dedups."""
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= num_nodes:
                raise ValueError("edge endpoint out of range")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise ValueError("self loops are not allowed")
        return cls.from_undirected_pairs(num_nodes, _unique_undirected(num_nodes, pairs))

    @classmethod
    def from_undirected_pairs(cls, num_nodes: int, uv: np.ndarray) -> "Graph":
        """Build from already-unique u < v pairs."""
        rows = np.concatenate([uv[:, 0], uv[:, 1]])
        cols = np.concatenate([uv[:, 1], uv[:, 0]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(rows, minlength=num_nodes))
        return cls(num_nodes, indptr, cols)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.indices.size // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as (m, 2) with u < v, sorted."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))
        keep = rows < self.indices
        return np.stack([rows[keep], self.indices[keep]], axis=1)

    def validate(self) -> None:
        """Assert the structural invariants; used by tests."""
        assert self.indptr.shape == (self.num_nodes + 1,)
        assert self.indptr[0] == 0 and (np.diff(self.indptr) >= 0).all()
        assert self.indptr[-1] == self.indices.size == 2 * self.num_edges
        for u in range(self.num_nodes):
            row = self.neighbors(u)
            assert (np.diff(row) > 0).all(), f"row {u} unsorted or duplicated"
            assert not (row == u).any(), f"self loop at {u}"
            for v in row:
                assert self.has_edge(int(v), u), f"asymmetric edge ({u},{v})"


class NormAdj:
    """Symmetrically normalized self-looped adjacency in CSR layout.

    Entry (u, v) is 1/sqrt((deg_u + 1)(deg_v + 1)) for every stored pair,
    diagonal included. Values are bitwise symmetric because each entry is a
    plain product of the two per-node scale factors.
    """

    __slots__ = ("num_nodes", "indptr", "indices", "values", "_csr", "_sgc_cache")

    def __init__(self, num_nodes, indptr, indices, values):
        self.num_nodes = int(num_nodes)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._csr = None
        self._sgc_cache = {}

    def csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.indices, self.indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._csr

    def dense(self) -> np.ndarray:
        return self.csr().toarray()


def normalize_adjacency(g: Graph) -> NormAdj:
    """Â = D̃^{-1/2} (A + I) D̃^{-1/2} with D̃ = D + I."""
    n = g.num_nodes
    deg = g.degrees()
    dinv = 1.0 / np.sqrt(deg.astype(np.float64) + 1.0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(deg + 1)
    # neighbor lists are sorted and hold no self loop, so one sort by
    # (row, col) puts each diagonal entry in its slot
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(diag, deg), diag])
    cols = np.concatenate([g.indices, diag])
    order = np.lexsort((cols, rows))
    rows, indices = rows[order], cols[order]
    values = dinv[rows] * dinv[indices]
    return NormAdj(n, indptr, indices, values)


def spmm(a: NormAdj, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product Â @ X."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected 2-d dense matrix, got shape {x.shape}")
    if x.shape[0] != a.num_nodes:
        raise ValueError(f"dimension mismatch: adj is {a.num_nodes}x{a.num_nodes}, x has {x.shape[0]} rows")
    return a.csr() @ x


@dataclass(frozen=True)
class LabelSet:
    """Node labels: one-hot rows (single-label, kind 's') or multi-hot ('m')."""

    num_classes: int
    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in ("s", "m"):
            raise ValueError(f"unknown label kind {self.kind!r}")

    def class_index(self) -> np.ndarray:
        if self.kind != "s":
            raise ValueError("class_index is only defined for single-label sets")
        return np.argmax(self.matrix, axis=1)


@dataclass(frozen=True)
class SplitMasks:
    """Disjoint train/val/test node-index sets, stored sorted."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Dataset:
    graph: Graph
    features: np.ndarray
    labels: LabelSet
    masks: SplitMasks
    duplicate_edges: int = 0

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DatasetFormatError(path, None, "missing file")
    return path.read_text().split("\n")


def _ints(path, lineno, line, expect=None):
    try:
        vals = [int(t) for t in line.split()]
    except ValueError:
        raise DatasetFormatError(path, lineno, f"expected integers, got {line!r}") from None
    if expect is not None and len(vals) != expect:
        raise DatasetFormatError(path, lineno, f"expected {expect} fields, got {len(vals)}")
    return vals


def _table(lines: list[str], dtype, shape: tuple[int, int]) -> np.ndarray | None:
    """Parse whitespace-separated rows in one C-level pass.

    Returns None when numpy rejects a token, warns, or the table does not
    have the expected shape (loadtxt skips blank lines). Callers then rerun
    their per-line parser, which accepts exactly what int()/float() accept
    and names the offending line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
    except (ValueError, Warning):
        return None
    return table if table.shape == shape else None


def _edge_lines(gpath, glines, n, m) -> np.ndarray:
    pairs = np.empty((m, 2), dtype=np.int64)
    for i in range(m):
        lineno = i + 2
        if lineno > len(glines) or not glines[lineno - 1].strip():
            raise DatasetFormatError(gpath, lineno, f"expected {m} edges, file ends early")
        u, v = _ints(gpath, lineno, glines[lineno - 1], expect=2)
        if u == v:
            raise DatasetFormatError(gpath, lineno, f"self loop {u} {v} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise DatasetFormatError(gpath, lineno, f"edge ({u},{v}) out of range for n={n}")
        pairs[i] = (u, v)
    return pairs


def _feature_lines(fpath, flines, n, d) -> np.ndarray:
    features = np.empty((n, d), dtype=np.float64)
    for i in range(n):
        lineno = i + 2
        if lineno > len(flines):
            raise DatasetFormatError(fpath, lineno, "file ends early")
        toks = flines[lineno - 1].split()
        if len(toks) != d:
            raise DatasetFormatError(fpath, lineno, f"expected {d} values, got {len(toks)}")
        try:
            features[i] = [float(t) for t in toks]
        except ValueError:
            raise DatasetFormatError(fpath, lineno, "non-numeric feature value") from None
    return features


def _label_lines(lpath, llines, n, c, kind) -> np.ndarray:
    """Class indices as (n, 1) for kind 's', 0/1 flags as (n, c) for 'm'."""
    width = 1 if kind == "s" else c
    table = np.empty((n, width), dtype=np.int64)
    for i in range(n):
        lineno = i + 2
        if lineno > len(llines):
            raise DatasetFormatError(lpath, lineno, "file ends early")
        vals = _ints(lpath, lineno, llines[lineno - 1], expect=width)
        if kind == "s" and not 0 <= vals[0] < c:
            raise DatasetFormatError(lpath, lineno, f"class index {vals[0]} out of range for c={c}")
        if kind == "m" and any(f not in (0, 1) for f in vals):
            raise DatasetFormatError(lpath, lineno, "non-binary label entries")
        table[i] = vals
    return table


def load_dataset(path) -> Dataset:
    """Load the four-file plain-text dataset directory.

    Errors carry the offending file and line number. Duplicate edges are
    dropped and counted in Dataset.duplicate_edges; self loops are rejected.
    Each table is parsed in one pass and checked with whole-array masks; the
    per-line parsers run only to locate an error or to accept a token numpy
    rejects (such as ``1_0``), so the result is the same either way.
    """
    root = Path(path)

    gpath = root / "graph.txt"
    glines = _read_lines(gpath)
    if not glines or not glines[0].strip():
        raise DatasetFormatError(gpath, 1, "missing 'n m' header")
    n, m = _ints(gpath, 1, glines[0], expect=2)
    if n < 1 or m < 0:
        raise DatasetFormatError(gpath, 1, f"bad header n={n} m={m}")
    pairs = _table(glines[1:m + 1], np.int64, (m, 2))
    if pairs is None or (pairs[:, 0] == pairs[:, 1]).any() or (pairs < 0).any() or (pairs >= n).any():
        pairs = _edge_lines(gpath, glines, n, m)
    uv = _unique_undirected(n, pairs)
    graph = Graph.from_undirected_pairs(n, uv)
    duplicates = m - uv.shape[0]

    fpath = root / "features.txt"
    flines = _read_lines(fpath)
    if not flines or not flines[0].strip():
        raise DatasetFormatError(fpath, 1, "missing 'n d' header")
    fn, d = _ints(fpath, 1, flines[0], expect=2)
    if fn != n:
        raise DatasetFormatError(fpath, 1, f"node count {fn} does not match graph.txt ({n})")
    if d < 1:
        raise DatasetFormatError(fpath, 1, f"bad feature dim {d}")
    features = _table(flines[1:n + 1], np.float64, (n, d))
    if features is None:
        features = _feature_lines(fpath, flines, n, d)
    if not np.isfinite(features).all():
        raise DatasetFormatError(fpath, None, "non-finite feature values")

    lpath = root / "labels.txt"
    llines = _read_lines(lpath)
    if not llines or not llines[0].strip():
        raise DatasetFormatError(lpath, 1, "missing 'n c kind' header")
    head = llines[0].split()
    if len(head) != 3:
        raise DatasetFormatError(lpath, 1, f"expected 'n c kind' header, got {llines[0]!r}")
    ln, c = _ints(lpath, 1, " ".join(head[:2]), expect=2)
    kind = head[2]
    if ln != n:
        raise DatasetFormatError(lpath, 1, f"node count {ln} does not match graph.txt ({n})")
    if kind not in ("s", "m"):
        raise DatasetFormatError(lpath, 1, f"label kind must be 's' or 'm', got {kind!r}")
    if c < 1:
        raise DatasetFormatError(lpath, 1, f"bad class count {c}")
    width, bound = (1, c) if kind == "s" else (c, 2)  # class index < c, or a 0/1 flag
    table = _table(llines[1:n + 1], np.int64, (n, width))
    if table is None or (table < 0).any() or (table >= bound).any():
        table = _label_lines(lpath, llines, n, c, kind)
    if kind == "s":
        matrix = np.zeros((n, c), dtype=np.float64)
        matrix[np.arange(n), table[:, 0]] = 1.0
    else:
        matrix = table.astype(np.float64)
    labels = LabelSet(c, kind, matrix)

    mpath = root / "masks.txt"
    mlines = _read_lines(mpath)
    masks = {}
    for idx, name in enumerate(("train", "val", "test")):
        lineno = idx + 1
        if lineno > len(mlines) or not mlines[lineno - 1].startswith(f"{name}:"):
            raise DatasetFormatError(mpath, lineno, f"expected line starting with '{name}:'")
        body = mlines[lineno - 1][len(name) + 1:]
        vals = _ints(mpath, lineno, body) if body.strip() else []
        arr = np.asarray(sorted(vals), dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise DatasetFormatError(mpath, lineno, f"{name} index out of range for n={n}")
        if np.unique(arr).size != arr.size:
            raise DatasetFormatError(mpath, lineno, f"duplicate index in {name} mask")
        masks[name] = arr
    if masks["train"].size == 0:
        raise DatasetFormatError(mpath, 1, "train mask is empty")
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        overlap = np.intersect1d(masks[a], masks[b])
        if overlap.size:
            raise DatasetFormatError(mpath, None, f"masks {a} and {b} overlap at node {overlap[0]}")

    return Dataset(graph, features, labels, SplitMasks(**masks), duplicate_edges=duplicates)


def _fmt(x: float) -> str:
    # repr of a python float is the shortest exact round-trip form
    return repr(float(x))


def write_dataset(path, ds: Dataset) -> None:
    """Write the four-file text format; load_dataset round-trips bit-exactly."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    uv = ds.graph.edge_pairs()
    with open(root / "graph.txt", "w", newline="\n") as f:
        f.write(f"{ds.num_nodes} {uv.shape[0]}\n")
        for u, v in uv:
            f.write(f"{u} {v}\n")

    with open(root / "features.txt", "w", newline="\n") as f:
        n, d = ds.features.shape
        f.write(f"{n} {d}\n")
        for row in ds.features:
            f.write(" ".join(_fmt(x) for x in row) + "\n")

    with open(root / "labels.txt", "w", newline="\n") as f:
        f.write(f"{ds.num_nodes} {ds.labels.num_classes} {ds.labels.kind}\n")
        if ds.labels.kind == "s":
            for k in ds.labels.class_index():
                f.write(f"{k}\n")
        else:
            for row in ds.labels.matrix:
                f.write(" ".join(str(int(x)) for x in row) + "\n")

    with open(root / "masks.txt", "w", newline="\n") as f:
        for name in ("train", "val", "test"):
            idx = getattr(ds.masks, name)
            f.write(f"{name}:" + "".join(f" {i}" for i in idx) + "\n")


def gen_sbm(blocks: int, nodes_per_block: int, p_in: float, p_out: float,
            feat_dim: int, feat_noise: float, seed: int) -> Dataset:
    """Stochastic block model dataset with block id as the node label.

    Features are a per-block Gaussian centroid plus feat_noise * N(0, 1).
    Masks are a 25/25/50 split stratified by block. Bit-reproducible for a
    fixed seed.
    """
    if blocks < 2 or nodes_per_block < 2:
        raise ValueError("need blocks >= 2 and nodes_per_block >= 2")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if feat_dim < 1:
        raise ValueError("feat_dim must be positive")
    rng = np.random.default_rng(seed)
    n = blocks * nodes_per_block
    block = np.arange(n, dtype=np.int64) // nodes_per_block

    centroids = rng.normal(size=(blocks, feat_dim))
    features = centroids[block] + feat_noise * rng.normal(size=(n, feat_dim))

    prob = np.where(block[:, None] == block[None, :], p_in, p_out)
    draw = rng.random((n, n))
    iu, ju = np.triu_indices(n, k=1)
    keep = draw[iu, ju] < prob[iu, ju]
    graph = Graph.from_undirected_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))

    matrix = np.zeros((n, blocks), dtype=np.float64)
    matrix[np.arange(n), block] = 1.0
    labels = LabelSet(blocks, "s", matrix)

    train, val, test = [], [], []
    n_tr = max(1, int(round(0.25 * nodes_per_block)))
    n_va = max(1, int(round(0.25 * nodes_per_block)))
    for b in range(blocks):
        ids = b * nodes_per_block + rng.permutation(nodes_per_block)
        train.extend(ids[:n_tr])
        val.extend(ids[n_tr:n_tr + n_va])
        test.extend(ids[n_tr + n_va:])
    masks = SplitMasks(
        np.asarray(sorted(train), dtype=np.int64),
        np.asarray(sorted(val), dtype=np.int64),
        np.asarray(sorted(test), dtype=np.int64),
    )
    return Dataset(graph, features, labels, masks)


def imbalance_ratio(labels: LabelSet, mask: np.ndarray) -> float:
    """min_i |T_i| / max_i |T_i| over classes present in the mask."""
    if labels.kind != "s":
        raise ValueError("imbalance_ratio is defined for single-label sets")
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty mask")
    counts = np.bincount(labels.class_index()[mask], minlength=labels.num_classes)
    present = counts[counts > 0]
    return float(present.min() / present.max())
