"""Graph partitioners: multilevel (METIS-like), feature K-means, random.

The multilevel scheme follows the classic recipe (Karypis & Kumar 1998):
coarsen by heavy-edge matching, partition the coarsest graph by greedy region
growing, then uncoarsen with one boundary Kernighan-Lin pass per level. Each
coarse graph is the contraction PᵀAP of the finer one's weighted adjacency A,
with P the 0/1 fine-to-coarse matrix, minus its diagonal. Ties are always
broken toward the lowest index so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import DatasetFormatError, Graph, _check_end, dense_features, read_lines, read_table

__all__ = [
    "ClusterAssignment",
    "CutStats",
    "partition_metis_like",
    "partition_random",
    "partition_kmeans",
    "edge_cut_stats",
    "read_assignment",
    "write_assignment",
]

BALANCE_TOLERANCE = 1.2
INIT_ATTEMPTS = 12


@dataclass(frozen=True)
class ClusterAssignment:
    """Node -> cluster map for num_clusters clusters."""

    num_clusters: int
    assign: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.assign, dtype=np.int64)
        object.__setattr__(self, "assign", a)
        if a.size and (a.min() < 0 or a.max() >= self.num_clusters):
            raise ValueError("cluster id out of range")

    @property
    def num_nodes(self) -> int:
        return self.assign.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assign, minlength=self.num_clusters)


@dataclass(frozen=True)
class CutStats:
    """Within/between cluster link counts over undirected edges."""

    within_links: int
    between_links: int

    @property
    def rate(self) -> float:
        if self.between_links == 0:
            return float("inf")
        return self.within_links / self.between_links


def edge_cut_stats(g: Graph, a: ClusterAssignment) -> CutStats:
    if a.num_nodes != g.num_nodes:
        raise ValueError(f"assignment covers {a.num_nodes} nodes, graph has {g.num_nodes}")
    between = _cut_weight(_base_level(g), a.assign)
    return CutStats(g.num_edges - between, between)


def partition_random(n: int, m: int, seed: int) -> ClusterAssignment:
    """Uniform i.i.d. cluster assignment."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return ClusterAssignment(m, rng.integers(0, m, size=n, dtype=np.int64))


def partition_kmeans(x: np.ndarray | sp.csr_matrix, m: int, seed: int,
                     max_iter: int = 100) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding on feature rows, dense or CSR.

    Empty clusters are repaired by stealing the point farthest from the
    largest cluster's centroid.
    """
    x = np.asarray(dense_features(x), dtype=np.float64)
    n = x.shape[0]
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        raise ValueError(f"m={m} exceeds {n} rows")
    rng = np.random.default_rng(seed)

    centroids = np.empty((m, x.shape[1]), dtype=np.float64)
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            k = int(rng.integers(n))
        else:
            k = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            k = min(k, n - 1)
        centroids[j] = x[k]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    dist = np.empty((n, m), dtype=np.float64)
    for _ in range(max_iter):
        for j in range(m):  # one n x d temporary at a time, not an n x m x d one
            dist[:, j] = ((x - centroids[j]) ** 2).sum(axis=1)
        new_assign = np.argmin(dist, axis=1).astype(np.int64)
        new_assign, centroids = _repair_empty(x, new_assign, centroids, m)
        if (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(m):
            members = np.flatnonzero(assign == j)
            if members.size:
                centroids[j] = x[members].mean(axis=0)
    return ClusterAssignment(m, assign)


def _repair_empty(x, assign, centroids, m):
    sizes = np.bincount(assign, minlength=m)
    for j in np.flatnonzero(sizes == 0):
        big = int(np.argmax(sizes))
        members = np.flatnonzero(assign == big)
        far = ((x[members] - centroids[big]) ** 2).sum(axis=1)
        steal = members[int(np.argmax(far))]
        assign[steal] = j
        centroids[j] = x[steal]
        sizes[big] -= 1
        sizes[j] += 1
    return assign, centroids


# ---------------------------------------------------------------------------
# multilevel partitioner


@dataclass
class _Level:
    """One graph in the coarsening hierarchy: int64 edge weights in CSR form,
    with sorted columns and no diagonal, and int64 node weights."""

    adj: sp.csr_matrix
    node_w: np.ndarray
    fine_to_coarse: np.ndarray | None = None  # map from the next finer level

    @property
    def n(self) -> int:
        return self.node_w.size

    @cached_property
    def lists(self) -> tuple[list, list, list, list]:
        """indptr, indices, edge weights and node_w as Python lists, for the
        per-vertex loops (indexing a list is far cheaper than a numpy scalar)."""
        return (self.adj.indptr.tolist(), self.adj.indices.tolist(), self.adj.data.tolist(),
                self.node_w.tolist())

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored edge; adj.indices holds its column."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.adj.indptr))


def _base_level(g: Graph) -> _Level:
    adj = sp.csr_matrix((np.ones(g.indices.size, dtype=np.int64), g.indices, g.indptr),
                        shape=(g.num_nodes, g.num_nodes))
    return _Level(adj, np.ones(g.num_nodes, dtype=np.int64))


def _heavy_edge_matching(lv: _Level, max_node_w: int) -> np.ndarray:
    """Match each node with its heaviest unmatched neighbor (lowest index ties)."""
    indptr, indices, eweights, node_w = lv.lists
    mate = [-1] * lv.n
    for u in range(lv.n):
        if mate[u] != -1:
            continue
        room = max_node_w - node_w[u]
        best, best_w = -1, 0
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if mate[v] != -1 or node_w[v] > room:
                continue
            if eweights[i] > best_w:
                best, best_w = v, eweights[i]
        if best >= 0:
            mate[u] = best
            mate[best] = u
        else:
            mate[u] = u
    return np.asarray(mate, dtype=np.int64)


def _coarsen(lv: _Level, mate: np.ndarray) -> _Level:
    """The contracted graph PᵀAP without its diagonal, the edges internal to a
    coarse node; P is the 0/1 fine-to-coarse matrix."""
    n = lv.n
    # coarse ids in order of each pair's lower end, as a first-seen scan gives
    reps, coarse_id = np.unique(np.minimum(np.arange(n, dtype=np.int64), mate), return_inverse=True)
    node_w = _sizes(lv, coarse_id, reps.size)  # a coarse node weighs its fine nodes
    p = sp.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), coarse_id)), shape=(n, reps.size))
    adj = p.T @ lv.adj @ p
    # a sparse difference stores no zero, so this drops the diagonal entries
    adj = (adj - sp.diags(adj.diagonal(), dtype=np.int64)).tocsr()
    adj.sort_indices()
    return _Level(adj, node_w, fine_to_coarse=coarse_id)


def _cut_weight(lv: _Level, part: np.ndarray) -> int:
    return int(lv.adj.data[part[lv.rows] != part[lv.adj.indices]].sum()) // 2


def _grow_regions(lv: _Level, m: int, cap: int, rng) -> np.ndarray:
    """Greedy graph growing: m seeded regions grown by max connectivity.

    Region size targets are jittered around the balanced share (within the
    tolerance envelope) so that restarts also explore legal unbalanced
    splits, whose cuts are sometimes strictly better. Each leftover vertex
    recounts its links from its edges: an (m+1)-column table kept current by
    each placement made partitioning 13% slower on a PubMed-sized graph.
    """
    n = lv.n
    indptr, indices, eweights, node_w = lv.lists
    part = np.full(n, -1, dtype=np.int64)
    size = [0] * m
    unassigned = n
    for j in range(m):
        free = np.flatnonzero(part == -1)
        remaining_w = int(lv.node_w[free].sum())
        target = -(-remaining_w // (m - j))  # ceil
        if m - j > 1:
            jittered = int(round(target * rng.uniform(0.6, 1.15)))
            lower = max(1, remaining_w - (m - j - 1) * cap)
            target = min(max(jittered, lower), cap)
        v = int(free[rng.integers(free.size)])  # the seed
        # connectivity of each unassigned vertex to region j, -1 once assigned
        conn = np.where(part == -1, 0, -1)
        while v >= 0:
            part[v] = j
            conn[v] = -1
            size[j] += node_w[v]
            unassigned -= 1
            s, e = indptr[v], indptr[v + 1]
            nbrs = lv.adj.indices[s:e]
            free_nbr = conn[nbrs] >= 0
            conn[nbrs[free_nbr]] += lv.adj.data[s:e][free_nbr]
            # -1 once the component is exhausted; later seeds pick the rest up
            v = -1
            if size[j] < target and unassigned > (m - j - 1):
                room = cap - size[j]
                # the unassigned vertex of largest conn, lowest index on ties
                # (argmax's first index), whose weight fits; a vertex that
                # does not fit gets conn 0 until a new link raises it
                while conn[x := int(conn.argmax())] > 0:
                    if node_w[x] <= room:
                        v = x
                        break
                    conn[x] = 0
    # leftovers: most-connected fitting cluster (lowest id on ties), else
    # the lightest
    part = part.tolist()
    for v in [u for u in range(n) if part[u] == -1]:
        links = [0] * m
        for i in range(indptr[v], indptr[v + 1]):
            c = part[indices[i]]
            if c >= 0:
                links[c] += eweights[i]
        best, best_w = -1, -1
        for c in range(m):
            if size[c] + node_w[v] <= cap and links[c] > best_w:
                best, best_w = c, links[c]
        if best < 0:
            best = size.index(min(size))
        part[v] = best
        size[best] += node_w[v]
    return np.asarray(part, dtype=np.int64)


def _sizes(lv: _Level, part: np.ndarray, m: int) -> np.ndarray:
    """size[c]: total node weight of cluster c. Its integer sums, as those of
    _link_table, are exact below 2**53 through bincount's float64 weights."""
    return np.bincount(part, weights=lv.node_w, minlength=m).astype(np.int64)


def _link_table(lv: _Level, part: np.ndarray, m: int) -> np.ndarray:
    """table[u, c]: total edge weight from u into cluster c, n x m."""
    return np.bincount(lv.rows * m + part[lv.adj.indices], weights=lv.adj.data,
                       minlength=lv.n * m).astype(np.int64).reshape(lv.n, m)


def _refine_pass(lv: _Level, part: np.ndarray, m: int, cap: int) -> int:
    """One boundary Kernighan-Lin sweep; only strictly positive gains move
    (lowest cluster id on ties). Updates part in place.

    A vertex is visited only if it had a positive-gain cluster at the start
    or a neighbour moved earlier in the sweep: any other vertex's links are
    unchanged at its turn, and no change in sizes makes a gain of zero or
    less positive. When no vertex has a positive gain toward a cluster it
    fits into at the start sizes, the sweep returns 0 before any visit.
    A visit recounts its vertex's links from its edges: a table kept current
    by each move was slower, by 10-20% as lists on a PubMed-sized graph and
    by 14% as numpy rows on a Cora-sized one.
    """
    size, table = _sizes(lv, part, m), _link_table(lv, part, m)
    positive = table > table[np.arange(lv.n), part][:, None]
    fits = (size <= cap - lv.node_w[:, None]) & (size[part] - lv.node_w >= 1)[:, None]
    movable = (positive & fits).any(axis=1)
    if not movable.any():
        return 0
    first = int(movable.argmax())
    visit = positive.any(axis=1).tolist()
    indptr, indices, eweights, node_w = lv.lists
    p, sz = part.tolist(), size.tolist()
    moved = 0
    for u in range(first, lv.n):
        own = p[u]
        if not visit[u] or sz[own] - node_w[u] < 1:
            continue
        s, e = indptr[u], indptr[u + 1]
        links = [0] * m
        for i in range(s, e):
            links[p[indices[i]]] += eweights[i]
        room, internal = cap - node_w[u], links[own]
        best_c, best_gain = -1, 0
        for c in range(m):
            # a cluster with no link to u, as every other one is for an
            # interior vertex, has gain -internal <= 0
            if c != own and sz[c] <= room and links[c] - internal > best_gain:
                best_c, best_gain = c, links[c] - internal
        if best_c >= 0:
            p[u] = best_c
            sz[own] -= node_w[u]
            sz[best_c] += node_w[u]
            moved += 1
            for i in range(s, e):
                visit[indices[i]] = True
    part[:] = p
    return moved


def _move_links(lv: _Level, links: list, u: int, frm: int, to: int) -> None:
    """Update the neighbours' link rows for u moving from cluster frm to to."""
    indptr, indices, eweights, _ = lv.lists
    for i in range(indptr[u], indptr[u + 1]):
        row = links[indices[i]]
        row[frm] -= eweights[i]
        row[to] += eweights[i]


def _swap_pass(lv: _Level, part: np.ndarray, m: int, cap: int) -> int:
    """Pairwise exchanges across cluster borders (classic KL); they reach
    plateaus that single moves cannot because sizes stay balanced.
    Updates part in place."""
    indptr, indices, eweights, node_w = lv.lists
    p, sz = part.tolist(), _sizes(lv, part, m).tolist()
    links = _link_table(lv, part, m).tolist()
    swapped = 0
    for u in range(lv.n):
        edge_w = dict(zip(indices[indptr[u]:indptr[u + 1]], eweights[indptr[u]:indptr[u + 1]]))
        for v in range(u + 1, lv.n):
            cu, cv = p[u], p[v]
            if cu == cv:
                continue
            if sz[cu] - node_w[u] + node_w[v] > cap:
                continue
            if sz[cv] - node_w[v] + node_w[u] > cap:
                continue
            ru, rv = links[u], links[v]
            gain = (ru[cv] - ru[cu]) + (rv[cu] - rv[cv]) - 2 * edge_w.get(v, 0)
            if gain <= 0:
                continue
            p[u], p[v] = cv, cu
            sz[cu] += node_w[v] - node_w[u]
            sz[cv] += node_w[u] - node_w[v]
            _move_links(lv, links, u, cu, cv)
            _move_links(lv, links, v, cv, cu)
            swapped += 1
    part[:] = p
    return swapped


def _fm_pass(lv: _Level, part: np.ndarray, m: int, cap: int) -> int:
    """Move-sequence refinement with rollback: every vertex moves at most
    once, the locally best allowed move is applied even at negative gain, and
    the sequence is then rolled back to its best prefix. Escapes plateaus
    that strictly-positive single moves cannot. Returns the gain kept;
    updates part in place."""
    n = lv.n
    node_w = lv.lists[3]
    p, sz = part.tolist(), _sizes(lv, part, m).tolist()
    links = _link_table(lv, part, m).tolist()
    locked = [False] * n
    history: list[tuple[int, int]] = []
    cum = best_cum = best_len = 0
    for _ in range(n):
        best = None  # (gain, u, target)
        for u in range(n):
            cu = p[u]
            if locked[u] or sz[cu] - node_w[u] < 1:
                continue
            row = links[u]
            for c in range(m):
                if row[c] <= 0 or c == cu or sz[c] + node_w[u] > cap:
                    continue
                g = row[c] - row[cu]
                if best is None or g > best[0]:
                    best = (g, u, c)
        if best is None:
            break
        g, u, c = best
        cu = p[u]
        p[u] = c
        sz[cu] -= node_w[u]
        sz[c] += node_w[u]
        locked[u] = True
        _move_links(lv, links, u, cu, c)
        cum += g
        history.append((u, cu))
        if cum > best_cum:
            best_cum, best_len = cum, len(history)
    for u, frm in history[best_len:]:
        p[u] = frm
    part[:] = p
    return best_cum


def _initial_partition(lv: _Level, m: int, cap: int, rng) -> np.ndarray:
    # the quadratic move-sequence and swap refinements only pay off (and only
    # stay cheap) on small coarsest graphs; larger ones settle for the linear
    # positive-gain sweeps
    thorough = lv.n <= 100
    attempts = INIT_ATTEMPTS if lv.n > 16 else 40
    best_part, best_cut = None, None
    for _ in range(attempts):
        part = _grow_regions(lv, m, cap, rng)
        for _ in range(10):
            moved = 0
            for _ in range(30):
                if _refine_pass(lv, part, m, cap) == 0:
                    break
                moved += 1
            if thorough:
                moved += _fm_pass(lv, part, m, cap)
                moved += _swap_pass(lv, part, m, cap)
            if moved == 0:
                break
        cut = _cut_weight(lv, part)
        if best_cut is None or cut < best_cut:
            best_part, best_cut = part.copy(), cut
    return best_part


def partition_metis_like(g: Graph, m: int, seed: int) -> ClusterAssignment:
    """Multilevel partition: coarsen by heavy-edge matching, partition the
    coarsest level, then project back up, refining once at each level."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > g.num_nodes:
        raise ValueError(f"m={m} exceeds {g.num_nodes} nodes")
    n = g.num_nodes
    if m == 1:
        return ClusterAssignment(1, np.zeros(n, dtype=np.int64))

    rng = np.random.default_rng(seed)
    cap = max(int(np.ceil(BALANCE_TOLERANCE * n / m)), 1)

    levels = [_base_level(g)]
    coarse_target = max(30 * m, 200)
    max_node_w = max(1, cap // 2)
    while levels[-1].n > coarse_target:
        mate = _heavy_edge_matching(levels[-1], max_node_w)
        # one coarse node per pair and per unmatched vertex
        if np.count_nonzero(mate >= np.arange(mate.size)) >= int(0.95 * levels[-1].n):
            break  # matching stalled
        levels.append(_coarsen(levels[-1], mate))

    part = _initial_partition(levels[-1], m, cap, rng)
    while len(levels) > 1:
        # a level is dropped, with its lists, once its part is projected
        part = part[levels.pop().fine_to_coarse]
        _refine_pass(levels[-1], part, m, cap)
    return ClusterAssignment(m, part)


# ---------------------------------------------------------------------------
# assignment file I/O (header "n m", then one cluster id per line)


def write_assignment(path, a: ClusterAssignment) -> None:
    with open(Path(path), "w", newline="\n") as f:
        f.write(f"{a.num_nodes} {a.num_clusters}\n")
        for c in a.assign:
            f.write(f"{c}\n")


def read_assignment(path) -> ClusterAssignment:
    """An 'n m' header with 1 <= m <= n, then n cluster ids below m, one per
    line, and nothing after them but blank lines; a malformed file raises
    DatasetFormatError naming the file and line."""
    lines = read_lines(path)
    try:
        n, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise DatasetFormatError(path, 1, f"expected an 'n m' header, got {lines[0]!r}") from None
    if not 1 <= m <= n:
        raise DatasetFormatError(path, 1, f"bad header n={n} m={m}: need 1 <= m <= n")
    ids = read_table(path, lines, 2, n, np.int64, 1, [
        (lambda t: (t < 0) | (t >= m), lambda r: f"cluster id {r[0]} out of range for m={m}")])
    _check_end(path, lines, n + 1)
    return ClusterAssignment(m, ids[:, 0])
