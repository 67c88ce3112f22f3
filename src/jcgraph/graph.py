"""Graph containers, adjacency normalization, dataset text I/O, SBM generator.

Graphs are undirected and stored in compressed (CSR-like) form: a flat array
of neighbor indices plus per-node offsets. Neighbor lists are sorted, every
edge is stored in both directions, and self loops are never stored (the
normalized adjacency adds its own diagonal). All dense numerics are float64,
all graph indices int64; Â is a scipy CSR matrix, and so is a large sparse
feature table.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DatasetFormatError",
    "Graph",
    "LabelSet",
    "SplitMasks",
    "Dataset",
    "SPARSE_DENSITY",
    "SPARSE_MIN_SIZE",
    "dense_features",
    "normalize_adjacency",
    "spmm",
    "read_lines",
    "read_table",
    "load_dataset",
    "write_dataset",
    "gen_sbm",
]


# a feature table of at least SPARSE_MIN_SIZE entries with at most
# SPARSE_DENSITY of them nonzero is loaded, and multiplied at layer 0, in CSR form
SPARSE_DENSITY = 0.25
SPARSE_MIN_SIZE = 50_000
# entries in each row block of a feature table that is read block by block
FEATURE_BLOCK = 1 << 18


class DatasetFormatError(ValueError):
    """An input file (dataset or cluster assignment) is missing, inconsistent,
    or malformed."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        loc = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{loc}: {message}")


class Graph:
    """Undirected graph over nodes 0..n-1 in compressed adjacency form."""

    __slots__ = ("num_nodes", "indptr", "indices")

    def __init__(self, num_nodes: int, indptr: np.ndarray, indices: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)

    @classmethod
    def from_undirected_pairs(cls, num_nodes: int, pairs) -> "Graph":
        """Build from (u, v) pairs of nodes u != v, an (m, 2) array or a list:
        a pair may come in either order and more than once, and is one edge."""
        uv = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([uv[:, 0], uv[:, 1]])
        cols = np.concatenate([uv[:, 1], uv[:, 0]])
        # scipy sums duplicate COO entries, which leaves each row's columns sorted
        # and unique; a bool sum is an "or", so no count of repeats sums to zero
        a = sp.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)),
                          shape=(num_nodes, num_nodes))
        return cls(num_nodes, a.indptr, a.indices)

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


def normalize_adjacency(g: Graph) -> sp.csr_matrix:
    """Â = D̃^{-1/2} (A + I) D̃^{-1/2} with D̃ = D + I, in CSR form.

    Entry (u, v) is 1/sqrt((deg_u + 1)(deg_v + 1)) for every stored pair,
    diagonal included, and each row's columns are sorted. Values are bitwise
    symmetric because each entry is a plain product of the two per-node scale
    factors.
    """
    n = g.num_nodes
    dinv = sp.diags(1.0 / np.sqrt(g.degrees() + 1.0), format="csr")
    pattern = sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    # entry (u, v) is 0 + (0 + dinv_u * 1.0) * dinv_v; the sums and the factor
    # 1.0 are exact, so it has the bits of dinv_u * dinv_v
    adj = dinv @ (pattern + sp.identity(n, format="csr")) @ dinv
    adj.sort_indices()
    return adj


def spmm(a: sp.csr_matrix, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Sparse-dense product Â @ X, or Âᵀ @ X with transpose set: that one
    multiplies scipy's CSC view a.T, which sums each output row's products in
    ascending column order from zero, as a CSR-stored Âᵀ does, so it gives
    the same bits."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected 2-d dense matrix, got shape {x.shape}")
    m = a.T if transpose else a
    if x.shape[0] != m.shape[1]:
        raise ValueError(f"dimension mismatch: {'Âᵀ' if transpose else 'Â'} is "
                         f"{m.shape[0]}x{m.shape[1]}, x has {x.shape[0]} rows")
    return m @ x


@dataclass(frozen=True)
class LabelSet:
    """Node labels: one-hot rows (single-label, kind 's') or multi-hot ('m')."""

    num_classes: int
    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in ("s", "m"):
            raise ValueError(f"unknown label kind {self.kind!r}")

    @property
    def multi(self) -> bool:
        """Multi-hot rows: each class is its own binary task."""
        return self.kind == "m"

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
    features: np.ndarray | sp.csr_matrix
    labels: LabelSet
    masks: SplitMasks
    duplicate_edges: int = 0

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


def dense_features(x: np.ndarray | sp.csr_matrix) -> np.ndarray:
    """A feature table as a dense array: a CSR table's stored entries with
    +0.0 in every other place."""
    return x.toarray() if sp.issparse(x) else x


def read_lines(path) -> list[str]:
    """A UTF-8 text file's lines, split at each newline."""
    return _decode(path, _read_bytes(path)).split("\n")


def _read_bytes(path) -> bytes:
    if not Path(path).is_file():
        raise DatasetFormatError(path, None, "missing file")
    return Path(path).read_bytes()


def _decode(path, raw: bytes) -> str:
    """A file's bytes decoded as Path.read_text decodes them."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as e:  # named at the line that holds the bad byte
        bad = f"byte {e.object[e.start]:#04x} is not {e.encoding} text ({e.reason})"
        raise DatasetFormatError(path, len(e.object[:e.start + 1].splitlines()), bad) from None


def _ints(path, lineno, line, expect=None):
    try:
        vals = [int(t) for t in line.split()]
    except ValueError:
        raise DatasetFormatError(path, lineno, f"expected integers, got {line!r}") from None
    if expect is not None and len(vals) != expect:
        raise DatasetFormatError(path, lineno, f"expected {expect} fields, got {len(vals)}")
    return vals


def _check_end(path, lines: list[str], last: int) -> None:
    """A file ends at line last (numbered from 1): each line after it is
    blank, or the first that is not raises DatasetFormatError at its line.
    Only the lines after line last are read."""
    for lineno, line in enumerate(lines[last:], start=last + 1):
        if line.strip():
            raise DatasetFormatError(path, lineno, f"expected only blank lines after line {last}")


def read_table(path, lines: list[str], start: int, count: int, dtype, width: int,
               rules=(), rows: range | None = None) -> np.ndarray:
    """Lines start .. start+count-1 (numbered from 1) of a file as a
    (count, width) table of dtype, np.int64 or np.float64; given rows, a
    range of row numbers, only those rows of the table, with errors that
    still speak of the whole table.

    Each rule is a pair (bad, message): bad(table) marks the entries or rows
    that break it, message(row) says how. One np.loadtxt pass parses the
    table and the rules check it as whole-array masks. Only when numpy
    rejects a token or warns, the shape is off (loadtxt skips blank lines) or
    a rule fails are the lines parsed one by one, accepting exactly what
    int()/float() accept, to raise DatasetFormatError at the first bad line.
    """
    rows = range(count) if rows is None else rows
    first = start + rows.start  # line number of the first row read
    size = rows.stop - rows.start  # len() fails past 2**63 - 1, a header's count need not
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines[first - 1:first - 1 + size], dtype=dtype, ndmin=2,
                               comments=None)
        if table.shape == (size, width) and not any(bad(table).any() for bad, _ in rules):
            return table
    except (ValueError, Warning):
        pass
    parse, noun = (int, "integers") if np.dtype(dtype).kind == "i" else (float, "numbers")
    for i, lineno in enumerate(range(first, first + size)):
        if lineno > len(lines):
            raise DatasetFormatError(path, lineno, f"expected {count} rows from line {start}, "
                                                   "file ends early")
        toks = lines[lineno - 1].split()
        if len(toks) != width:
            raise DatasetFormatError(path, lineno, f"expected {width} values, got {len(toks)}")
        row = np.empty(width, dtype=object)  # Python numbers, so a rule sees any int
        for j, tok in enumerate(toks):
            try:
                row[j] = parse(tok)
            except ValueError:
                raise DatasetFormatError(path, lineno, f"expected {noun}, got {tok!r}") from None
        for bad, message in rules:
            if bad(row[None]).any():
                raise DatasetFormatError(path, lineno, message(row))
        if i == 0:  # sized once a line has the width; a row past the file's end raises first
            table = np.empty((min(size, len(lines)), width), dtype=dtype)
        table[i] = row
    return table if size else np.empty((0, width), dtype=dtype)


class _NotDigits(Exception):
    """A features file is not laid out as one-digit tokens."""


def _digit_blocks(raw: bytes, n: int):
    """d and a reader of row blocks of a features file's bytes that are 'n d\\n'
    then n rows of d one-digit tokens, each followed by one space or, at the
    row's end, by '\\n'. A block reader returns the rows' digits as uint16
    and raises _NotDigits at a row that breaks the layout; so does this call
    for a header that is not two plain decimals or a body of the wrong size.

    The body is read as little-endian 16-bit tokens, a digit byte then its
    separator byte. A token less the one of '0' and its expected separator
    is 0-9 only for a digit followed by that separator: a byte below '0'
    wraps past 9, and any other separator moves the difference by a
    nonzero multiple of 256 (mod 2**16), far from 0-9 for every digit byte."""
    end = raw.find(b"\n")
    header = re.fullmatch(rb"(\d+) (\d+)", raw[:max(end, 0)])
    if header is None or int(header[1]) != n or int(header[2]) < 1:
        raise _NotDigits
    d = int(header[2])
    if len(raw) - end - 1 != n * 2 * d:
        raise _NotDigits
    tokens = np.frombuffer(raw, dtype="<u2", offset=end + 1).reshape(n, d)
    expect = np.full(d, ord("0") + (ord(" ") << 8), dtype=np.uint16)
    expect[-1] = ord("0") + (ord("\n") << 8)

    def block(rows: range) -> np.ndarray:
        digits = tokens[rows.start:rows.stop] - expect
        if digits.max() > 9:
            raise _NotDigits
        return digits
    return d, block


def _read_features(path, n: int) -> np.ndarray | sp.csr_matrix:
    """The n x d table of a features file with its 'n d' header, in the form
    layer 0 multiplies: CSR when it has at least SPARSE_MIN_SIZE entries and
    at most SPARSE_DENSITY of them are nonzero, dense otherwise. A CSR table
    stores the entries that are != 0, so it drops -0.0 entries.

    The file is read once, as bytes. A file of one-digit tokens in the exact
    layout _digit_blocks names gives its digits straight from the bytes; any
    other file (or one that breaks the layout at a later row) is decoded
    into lines as read_lines decodes it and read through read_table, with
    its errors. Both feed the same block loop, so a table has the same bits
    either way. Only a text table can hold inf or nan, and it is rejected.
    """
    raw = _read_bytes(path)
    try:
        d, block = _digit_blocks(raw, n)
        return _table_blocks(n, d, block)
    except _NotDigits:
        pass
    text = _decode(path, raw)
    del raw  # each whole-file buffer goes once the next holds the text, as in read_lines
    lines = text.split("\n")
    del text
    if not lines[0].strip():
        raise DatasetFormatError(path, 1, "missing 'n d' header")
    fn, d = _ints(path, 1, lines[0], expect=2)
    if fn != n:
        raise DatasetFormatError(path, 1, f"node count {fn} does not match graph.txt ({n})")
    if d < 1:
        raise DatasetFormatError(path, 1, f"bad feature dim {d}")
    table = _table_blocks(n, d, lambda rows: read_table(path, lines, 2, n, np.float64, d,
                                                        rows=rows))
    _check_end(path, lines, n + 1)
    values = table.data if sp.issparse(table) else table.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:  # named at the line of the first one in file order
        indptr = table.indptr if sp.issparse(table) else np.arange(n + 1) * d
        line = int(np.searchsorted(indptr, bad[0], side="right")) + 1
        raise DatasetFormatError(path, line, f"non-finite feature value {values[bad[0]]}")
    return table


def _nonzeros(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of a row block that are != 0 (so not -0.0), in row-major
    order: their values in x's dtype, their columns in the smallest integer
    type that holds them, and the end of each row's entries among them.
    numpy finds the nonzeros of a bool mask several times faster than those
    of any other dtype, so the scan runs over x != 0."""
    n, d = x.shape
    flat = x.ravel()
    at = np.flatnonzero(flat != 0)
    ends = np.searchsorted(at, np.arange(1, n + 1) * d)
    starts = np.repeat(np.arange(n) * d, np.diff(ends, prepend=0))
    return flat[at], (at - starts).astype(np.min_scalar_type(d - 1)), ends


def _table_blocks(n: int, d: int, block) -> np.ndarray | sp.csr_matrix:
    """The n x d float64 table whose rows block(rows) gives for a range of
    rows, CSR or dense as _read_features says.

    A large table is read in row blocks of about FEATURE_BLOCK entries, so a
    sparse table never exists as one dense array. Each block keeps only its
    _nonzeros, two bytes for each digit of a digit table and a narrow type
    for each column, and the CSR arrays are filled from them once the last
    block is read. Once the nonzeros read so far make the table dense, the
    blocks are dropped and the table is read again into one dense array,
    which keeps every bit.
    """
    if n * d < SPARSE_MIN_SIZE:
        return block(range(n)).astype(np.float64, copy=False)
    step = max(1, FEATURE_BLOCK // d)
    blocks = [range(lo, min(lo + step, n)) for lo in range(0, n, step)]
    parts, nnz = [], 0
    for rows in blocks:
        parts.append(_nonzeros(block(rows)))
        nnz += parts[-1][0].size
        if nnz / (n * d) > SPARSE_DENSITY:
            parts = None
            x = np.empty((n, d))
            for rows in blocks:
                x[rows.start:rows.stop] = block(rows)
            return x
    index = np.int32 if max(n, d, nnz) <= np.iinfo(np.int32).max else np.int64
    data, indices = np.empty(nnz), np.empty(nnz, dtype=index)
    indptr = np.zeros(n + 1, dtype=index)
    lo = 0
    for rows, (values, cols, ends) in zip(blocks, parts):
        data[lo:lo + values.size] = values
        indices[lo:lo + values.size] = cols
        indptr[rows.start + 1:rows.stop + 1] = lo + ends
        lo += values.size
    return sp.csr_matrix((data, indices, indptr), shape=(n, d))


def load_dataset(path) -> Dataset:
    """Load the four-file plain-text dataset directory.

    Errors carry the offending file and line number. Duplicate edges are
    dropped and counted in Dataset.duplicate_edges; self loops are rejected.
    Each table goes through read_table, so the result is the same whether
    numpy's one-pass parse or the per-line parser (which accepts tokens
    numpy rejects, such as ``1_0``) produced it.
    """
    root = Path(path)

    gpath = root / "graph.txt"
    glines = read_lines(gpath)
    if not glines[0].strip():
        raise DatasetFormatError(gpath, 1, "missing 'n m' header")
    n, m = _ints(gpath, 1, glines[0], expect=2)
    if n < 1 or m < 0:
        raise DatasetFormatError(gpath, 1, f"bad header n={n} m={m}")
    pairs = read_table(gpath, glines, 2, m, np.int64, 2, [
        (lambda t: t[:, 0] == t[:, 1], lambda r: f"self loop {r[0]} {r[1]} not allowed"),
        (lambda t: (t < 0) | (t >= n), lambda r: f"edge ({r[0]},{r[1]}) out of range for n={n}")])
    try:  # numpy raises ValueError for a size past its index range, scipy OverflowError
        graph = Graph.from_undirected_pairs(n, pairs)
    except (MemoryError, ValueError, OverflowError) as e:
        raise DatasetFormatError(gpath, 1, f"node count {n}: the graph does not fit ({e})") from None
    duplicates = m - graph.num_edges
    _check_end(gpath, glines, m + 1)

    features = _read_features(root / "features.txt", n)

    lpath = root / "labels.txt"
    llines = read_lines(lpath)
    if not llines[0].strip():
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
    if kind == "s":
        rule = (lambda t: (t < 0) | (t >= c), lambda r: f"class index {r[0]} out of range for c={c}")
    else:
        rule = (lambda t: (t != 0) & (t != 1), lambda r: "non-binary label entries")
    table = read_table(lpath, llines, 2, n, np.int64, 1 if kind == "s" else c, [rule])
    if kind == "s":
        try:  # numpy raises ValueError for a size past its index range
            matrix = np.zeros((n, c), dtype=np.float64)
        except (MemoryError, ValueError) as e:
            raise DatasetFormatError(lpath, 1, f"class count {c}: the labels do not fit ({e})") from None
        matrix[np.arange(n), table[:, 0]] = 1.0
    else:
        matrix = table.astype(np.float64)
    labels = LabelSet(c, kind, matrix)
    _check_end(lpath, llines, n + 1)

    mpath = root / "masks.txt"
    mlines = read_lines(mpath)
    masks = {}
    for idx, name in enumerate(("train", "val", "test")):
        lineno = idx + 1
        if lineno > len(mlines) or not mlines[lineno - 1].startswith(f"{name}:"):
            raise DatasetFormatError(mpath, lineno, f"expected line starting with '{name}:'")
        body = mlines[lineno - 1][len(name) + 1:]
        vals = sorted(_ints(mpath, lineno, body)) if body.strip() else []
        if vals and (vals[0] < 0 or vals[-1] >= n):  # before int64 could overflow
            raise DatasetFormatError(mpath, lineno, f"{name} index out of range for n={n}")
        arr = np.asarray(vals, dtype=np.int64)
        if (arr[1:] == arr[:-1]).any():  # sorted, so a repeat is next to its twin
            raise DatasetFormatError(mpath, lineno, f"duplicate index in {name} mask")
        masks[name] = arr
    if masks["train"].size == 0:
        raise DatasetFormatError(mpath, 1, "train mask is empty")
    for a, b, lineno in (("train", "val", 2), ("train", "test", 3), ("val", "test", 3)):
        overlap = np.intersect1d(masks[a], masks[b], assume_unique=True)
        if overlap.size:  # named at the later mask's line
            raise DatasetFormatError(mpath, lineno, f"masks {a} and {b} overlap at node {overlap[0]}")
    _check_end(mpath, mlines, 3)

    return Dataset(graph, features, labels, SplitMasks(**masks), duplicate_edges=duplicates)


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
        features = dense_features(ds.features)
        n, d = features.shape
        f.write(f"{n} {d}\n")
        # a table of the numbers 0 to 9 (no -0.0) is written in the one-digit
        # layout _read_features reads from the bytes; any other as the repr
        # of each python float, the shortest exact round-trip form
        digits = np.isin(features, np.arange(10)).all() and not np.signbit(features).any()
        token = (lambda x: str(int(x))) if digits else (lambda x: repr(float(x)))
        for row in features:
            f.write(" ".join(map(token, row)) + "\n")

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
    if not (np.isfinite(feat_noise) and feat_noise >= 0):
        raise ValueError(f"feat_noise must be finite and >= 0, got {feat_noise}")
    rng = np.random.default_rng(seed)
    n = blocks * nodes_per_block
    try:  # numpy raises ValueError for a size past its index range
        block = np.arange(n, dtype=np.int64) // nodes_per_block
    except (MemoryError, ValueError) as e:
        raise ValueError(f"blocks x nodes_per_block = {n} nodes do not fit ({e})") from None

    try:  # a table too large names feat_dim, before the edge draw can fail for n
        centroids = rng.normal(size=(blocks, feat_dim))
        with np.errstate(over="ignore"):  # the finite check below names an overflow
            features = centroids[block] + feat_noise * rng.normal(size=(n, feat_dim))
    except (MemoryError, ValueError) as e:
        raise ValueError(f"feat_dim = {feat_dim}: the {n} x {feat_dim} feature table "
                         f"does not fit ({e})") from None
    if not np.isfinite(features).all():
        raise ValueError(f"feat_noise = {feat_noise}: the features overflow to inf")

    try:  # the edge draw is one dense n x n array
        prob = np.where(block[:, None] == block[None, :], p_in, p_out)
        draw = rng.random((n, n))
        iu, ju = np.triu_indices(n, k=1)
        keep = draw[iu, ju] < prob[iu, ju]
    except MemoryError as e:
        raise ValueError(f"nodes_per_block = {nodes_per_block}: the n x n edge draw of n = {n} "
                         f"nodes does not fit ({e})") from None
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
