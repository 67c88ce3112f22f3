"""scipy assembles the graph, Â and every coarsening level with the bits of
the hand-written lexsort builders kept below as the reference."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcgraph import partition
from jcgraph.graph import Graph, gen_sbm, normalize_adjacency
from jcgraph.partition import _base_level, _heavy_edge_matching, partition_metis_like


def lexsort_graph(num_nodes, pairs):
    """Graph.from_undirected_pairs by sort and count: (indptr, indices). The
    pairs are first made u < v and unique."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(pairs.min(axis=1) * num_nodes + pairs.max(axis=1))
    uv = np.stack([keys // num_nodes, keys % num_nodes], axis=1)
    rows = np.concatenate([uv[:, 0], uv[:, 1]])
    cols = np.concatenate([uv[:, 1], uv[:, 0]])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=num_nodes))
    return indptr, cols


def lexsort_normalize(g):
    """normalize_adjacency by sort and count, one product per entry."""
    n = g.num_nodes
    deg = g.degrees()
    dinv = 1.0 / np.sqrt(deg.astype(np.float64) + 1.0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(deg + 1)
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(diag, deg), diag])
    cols = np.concatenate([g.indices, diag])
    order = np.lexsort((cols, rows))
    rows, indices = rows[order], cols[order]
    return sp.csr_matrix((dinv[rows] * dinv[indices], indices, indptr), shape=(n, n))


def lexsort_coarsen(indptr, indices, eweights, node_w, mate):
    """partition._coarsen by sort and group sums on plain weighted-CSR arrays:
    (indptr, indices, eweights, node_w, fine_to_coarse)."""
    n = node_w.size
    reps, coarse_id = np.unique(np.minimum(np.arange(n, dtype=np.int64), mate), return_inverse=True)
    nxt = reps.size
    node_w = np.bincount(coarse_id, weights=node_w, minlength=nxt).astype(np.int64)
    rows = coarse_id[np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))]
    cols = coarse_id[indices]
    keep = rows != cols
    rows, cols, ws = rows[keep], cols[keep], eweights[keep]
    order = np.lexsort((cols, rows))
    rows, cols, ws = rows[order], cols[order], ws[order]
    if rows.size:
        new_pair = np.ones(rows.size, dtype=bool)
        new_pair[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(new_pair) - 1
        ws = np.bincount(group, weights=ws).astype(np.int64)
        rows, cols = rows[new_pair], cols[new_pair]
    indptr = np.zeros(nxt + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=nxt))
    return indptr, cols, ws, node_w, coarse_id


def assert_level_matches(fine, mate, coarse):
    """coarse, which _coarsen built from fine and mate, holds the reference's
    arrays: the lists the per-vertex loops read, node weights and the map."""
    a = fine.adj
    indptr, indices, ws, node_w, f2c = lexsort_coarsen(a.indptr, a.indices, a.data,
                                                       fine.node_w, mate)
    assert coarse.adj.data.dtype == coarse.node_w.dtype == np.int64
    assert coarse.lists == (indptr.tolist(), indices.tolist(), ws.tolist(), node_w.tolist())
    assert coarse.fine_to_coarse.tobytes() == f2c.tobytes()


@st.composite
def graphs(draw):
    """n and pairs u != v in either order, a pair possibly drawn more than once."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=4 * n))
    return n, [(u, v) for u, v in pairs if u != v]


@settings(max_examples=150)
@given(case=graphs(), max_node_w=st.integers(2, 6))
@example(case=(1, []), max_node_w=2)  # one node
@example(case=(5, []), max_node_w=2)  # no edges
@example(case=(7, [(0, 1), (1, 2), (4, 5)]), max_node_w=3)  # isolated nodes 3 and 6
@example(case=(4, [(1, 0), (0, 1), (2, 3), (2, 3), (3, 2), (3, 2)]), max_node_w=2)  # repeats
def test_scipy_builders_match_lexsort_reference(case, max_node_w):
    n, pairs = case
    g = Graph.from_undirected_pairs(n, pairs)
    indptr, indices = lexsort_graph(n, pairs)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert g.indptr.tobytes() == indptr.tobytes() and g.indices.tobytes() == indices.tobytes()

    got, want = normalize_adjacency(g), lexsort_normalize(g)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    # coarsen until the matching stalls; later levels carry merged weights
    lv = _base_level(g)
    assert lv.lists == (g.indptr.tolist(), g.indices.tolist(), [1] * g.indices.size, [1] * n)
    while True:
        mate = _heavy_edge_matching(lv, max_node_w)
        coarse = partition._coarsen(lv, mate)
        assert_level_matches(lv, mate, coarse)
        if coarse.n == lv.n:
            break
        lv = coarse


@pytest.mark.parametrize("blocks,size,p_in,p_out,seed,m", [(4, 150, 0.05, 0.002, 1, 4),
                                                           (3, 300, 0.02, 0.001, 3, 6)])
def test_every_multilevel_level_matches_lexsort_reference(monkeypatch, blocks, size, p_in,
                                                          p_out, seed, m):
    coarsen, calls = partition._coarsen, []

    def recording(lv, mate):
        coarse = coarsen(lv, mate)
        calls.append((lv, mate, coarse))
        return coarse
    monkeypatch.setattr(partition, "_coarsen", recording)
    partition_metis_like(gen_sbm(blocks, size, p_in, p_out, 3, 0.5, seed=seed).graph, m, seed=0)
    assert len(calls) >= 2
    for fine, mate, coarse in calls:
        assert_level_matches(fine, mate, coarse)
