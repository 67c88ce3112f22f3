"""Region growth and the refinement sweep give the bits of the list-and-heap
versions kept below as the reference: the same part, sizes, return value
and random state after every call, on weighted levels like the coarse ones."""

import heapq

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph.partition import _grow_regions, _Level, _refine_pass


def reference_next_vertex(heap, part, conn, node_w, room) -> int:
    """Pop the unassigned vertex of largest conn, lowest index on ties, whose
    weight fits in room; vertices that do not fit get conn 0. -1 if none."""
    while heap:
        negc, v = heapq.heappop(heap)
        if part[v] != -1 or conn[v] != -negc:
            continue  # stale: v joined a region or its conn changed since
        if node_w[v] <= room:
            return v
        conn[v] = 0
    return -1


def reference_grow_regions(lv, m, cap, rng) -> np.ndarray:
    """partition._grow_regions with a heap of (-conn, vertex) entries that go
    stale once a vertex's conn moves."""
    n = lv.n
    indptr, indices, eweights, node_w = lv.lists
    part = [-1] * n
    size = [0] * m
    unassigned = n
    for j in range(m):
        free = np.flatnonzero(np.asarray(part) == -1)
        remaining_w = int(lv.node_w[free].sum())
        target = -(-remaining_w // (m - j))
        if m - j > 1:
            jittered = int(round(target * rng.uniform(0.6, 1.15)))
            lower = max(1, remaining_w - (m - j - 1) * cap)
            target = min(max(jittered, lower), cap)
        v = int(free[rng.integers(free.size)])
        conn = [0] * n
        heap = []
        while v >= 0:
            part[v] = j
            size[j] += node_w[v]
            unassigned -= 1
            for i in range(indptr[v], indptr[v + 1]):
                x = indices[i]
                if part[x] == -1:
                    conn[x] += eweights[i]
                    heapq.heappush(heap, (-conn[x], x))
            grow = size[j] < target and unassigned > (m - j - 1)
            v = reference_next_vertex(heap, part, conn, node_w, cap - size[j]) if grow else -1
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


def reference_refine_pass(lv, part, size, cap) -> int:
    """partition._refine_pass visiting every vertex in order."""
    indptr, indices, eweights, node_w = lv.lists
    p, sz = part.tolist(), size.tolist()
    m = len(sz)
    moved = 0
    for u in range(lv.n):
        s, e = indptr[u], indptr[u + 1]
        own = p[u]
        for i in range(s, e):
            if p[indices[i]] != own:
                break
        else:
            continue
        if sz[own] - node_w[u] < 1:
            continue
        links = [0] * m
        for i in range(s, e):
            links[p[indices[i]]] += eweights[i]
        room, internal = cap - node_w[u], links[own]
        best_c, best_gain = -1, 0
        for c in range(m):
            if c != own and sz[c] <= room and links[c] - internal > best_gain:
                best_c, best_gain = c, links[c] - internal
        if best_c >= 0:
            p[u] = best_c
            sz[own] -= node_w[u]
            sz[best_c] += node_w[u]
            moved += 1
    part[:] = p
    size[:] = sz
    return moved


@st.composite
def levels(draw):
    """(level, m, cap, seed): a weighted level with node weights 1-8, edge
    weights 1-5, some isolated vertices and up to two hubs, m from 2 to 6 and
    a cap from below the heaviest vertex to above a loose balance."""
    n = draw(st.integers(6, 48))
    m = draw(st.integers(2, 6))
    node_w = np.asarray(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)), dtype=np.int64)
    isolated = set(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(1, 5)), max_size=3 * n))
    for hub in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        pairs += [(hub, v, 1) for v in range(n) if v % 3 != hub % 3]
    pairs = [(u, v, w) for u, v, w in pairs if u != v and not {u, v} & isolated]
    u, v, w = np.asarray(pairs, dtype=np.int64).reshape(-1, 3).T
    adj = sp.csr_matrix((np.concatenate([w, w]),
                         (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))
    adj.sum_duplicates()
    adj.sort_indices()
    total = int(node_w.sum())
    cap = draw(st.integers(max(1, int(node_w.max()) - 2), -(-total * 13 // (10 * m)) + 2))
    return _Level(adj, node_w), m, cap, draw(st.integers(0, 2**32 - 1))


def assert_sweeps_match(lv, part, m, cap):
    """Sweep until nothing moves (at most 12 times), comparing each call."""
    size = np.bincount(part, weights=lv.node_w, minlength=m).astype(np.int64)
    ref_part, ref_size = part.copy(), size.copy()
    for _ in range(12):
        moved = _refine_pass(lv, part, size, cap)
        assert moved == reference_refine_pass(lv, ref_part, ref_size, cap)
        assert part.tobytes() == ref_part.tobytes() and size.tobytes() == ref_size.tobytes()
        if moved == 0:
            break


@settings(max_examples=300)
@given(case=levels())
def test_grow_and_refine_match_the_list_and_heap_reference(case):
    lv, m, cap, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second call starts from the state the first left
        part = _grow_regions(lv, m, cap, rng)
        assert part.tobytes() == reference_grow_regions(lv, m, cap, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_sweeps_match(lv, part, m, cap)
    # a random assignment has far more positive gains than a grown one
    assert_sweeps_match(lv, rng.integers(0, m, size=lv.n), m, cap)
