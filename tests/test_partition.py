import hashlib
import itertools
import re
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph import partition
from jcgraph.graph import Graph, gen_sbm, normalize_adjacency
from jcgraph.partition import (BALANCE_TOLERANCE, ClusterAssignment, CutStats, edge_cut_stats,
                               partition_kmeans, partition_metis_like, partition_random,
                               read_assignment, write_assignment)

from conftest import rng_graph


def two_triangle_bridge():
    return Graph.from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def brute_force_min_cut(g: Graph, cap: int) -> int:
    """Enumerate all balanced bipartitions (both sides within cap) and
    return the minimum edge cut. Oracle for the multilevel partitioner."""
    n = g.num_nodes
    pairs = g.edge_pairs()
    best = None
    for r in range(1, n // 2 + 1):
        if r > cap or n - r > cap:
            continue
        for side in itertools.combinations(range(n), r):
            s = np.zeros(n, dtype=bool)
            s[list(side)] = True
            cut = int((s[pairs[:, 0]] != s[pairs[:, 1]]).sum())
            if best is None or cut < best:
                best = cut
    return best


class TestMetisLike:
    def test_m1_all_zero(self):
        g = two_triangle_bridge()
        a = partition_metis_like(g, 1, seed=0)
        assert (a.assign == 0).all()
        assert edge_cut_stats(g, a).between_links == 0

    def test_bridge_graph_min_cut(self):
        g = two_triangle_bridge()
        # brute force over balanced bipartitions confirms the optimum is 1
        assert brute_force_min_cut(g, cap=4) == 1
        a = partition_metis_like(g, 2, seed=0)
        assert edge_cut_stats(g, a).between_links == 1
        assert set(a.assign[:3]) != set(a.assign[3:])

    def test_disjoint_cliques(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges]
        g = Graph.from_undirected_pairs(8, edges)
        assert brute_force_min_cut(g, cap=5) == 0
        a = partition_metis_like(g, 2, seed=0)
        assert edge_cut_stats(g, a).between_links == 0

    def test_within_1_25x_of_brute_force(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(4, 13))
            g = rng_graph(rng, n, float(rng.uniform(0.2, 0.7)))
            if g.num_edges == 0:
                continue
            cap = int(np.ceil(1.2 * n / 2))
            opt = brute_force_min_cut(g, cap)
            got = edge_cut_stats(g, partition_metis_like(g, 2, seed=1)).between_links
            assert got <= max(1.25 * opt, opt), f"n={n}: got {got}, optimum {opt}"
            checked += 1
        assert checked >= 25

    def test_small_bisections_are_optimal(self):
        # graphs of at most 100 nodes get move-sequence and swap refinement;
        # with the positive-gain sweeps alone, 4 of these 150 missed the optimum
        rng = np.random.default_rng(1)
        for _ in range(150):
            n = int(rng.integers(4, 15))
            g = rng_graph(rng, n, float(rng.uniform(0.2, 0.7)))
            cap = int(np.ceil(BALANCE_TOLERANCE * n / 2))
            got = edge_cut_stats(g, partition_metis_like(g, 2, seed=0)).between_links
            assert got == brute_force_min_cut(g, cap), f"n={n}"

    def test_balance_tolerance(self):
        ds = gen_sbm(5, 60, 0.1, 0.005, 3, 0.5, seed=3)
        for m in (3, 5, 7):
            a = partition_metis_like(ds.graph, m, seed=2)
            assert a.sizes().min() >= 1
            assert a.sizes().max() <= int(np.ceil(1.2 * 300 / m))

    def test_deterministic(self):
        ds = gen_sbm(4, 40, 0.2, 0.02, 3, 0.5, seed=5)
        a = partition_metis_like(ds.graph, 4, seed=9)
        b = partition_metis_like(ds.graph, 4, seed=9)
        assert (a.assign == b.assign).all()

    def test_refinement_cut_non_increasing(self, monkeypatch):
        # every sweep, in the initial partition and at each level on the way
        # up, lowers the cut if it moves a vertex and keeps it otherwise
        refine, sweeps = partition._refine_pass, []

        def spy(lv, part, size, cap):
            before = partition._cut_weight(lv, part)
            moved = refine(lv, part, size, cap)
            sweeps.append((lv.n, moved, before, partition._cut_weight(lv, part)))
            return moved
        monkeypatch.setattr(partition, "_refine_pass", spy)
        ds = gen_sbm(4, 120, 0.08, 0.003, 4, 0.5, seed=3)
        partition_metis_like(ds.graph, 4, seed=5)
        sizes = {n for n, *_ in sweeps}
        assert ds.num_nodes in sizes and len(sizes) >= 2  # coarsened, then refined at the top
        assert all(after < before if moved else after == before
                   for _, moved, before, after in sweeps)

    def test_beats_random_on_sbm(self):
        ds = gen_sbm(4, 60, 0.15, 0.01, 3, 0.5, seed=8)
        metis_rate = edge_cut_stats(ds.graph, partition_metis_like(ds.graph, 4, 0)).rate
        rand_rate = edge_cut_stats(ds.graph, partition_random(240, 4, 0)).rate
        assert metis_rate > 5 * rand_rate

    def test_bad_m(self):
        g = two_triangle_bridge()
        with pytest.raises(ValueError):
            partition_metis_like(g, 0, seed=0)
        with pytest.raises(ValueError):
            partition_metis_like(g, 7, seed=0)


class TestRandomPartition:
    def test_m1_all_zero(self):
        assert (partition_random(4, 1, seed=0).assign == 0).all()

    def test_expected_spread(self):
        # n=1000, m=10: each cluster lands in [50, 150] for these seeds
        for seed in range(5):
            sizes = partition_random(1000, 10, seed).sizes()
            assert sizes.min() >= 50 and sizes.max() <= 150

    def test_deterministic(self):
        a = partition_random(100, 7, seed=3)
        b = partition_random(100, 7, seed=3)
        assert (a.assign == b.assign).all()

    def test_small_n_flags_empty(self):
        a = partition_random(4, 4, seed=1)
        sizes = a.sizes()
        assert sizes.sum() == 4


class TestKmeans:
    def test_separated_blobs(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0, 0.1, (20, 2)), rng.normal(10, 0.1, (20, 2))])
        a = partition_kmeans(x, 2, seed=1)
        assert len(set(a.assign[:20])) == 1
        assert len(set(a.assign[20:])) == 1
        assert a.assign[0] != a.assign[20]

    def test_singletons_when_m_equals_n(self):
        x = np.arange(6, dtype=float).reshape(6, 1) * 10
        a = partition_kmeans(x, 6, seed=0)
        assert sorted(a.assign) == list(range(6))

    def test_identical_rows_terminate(self):
        x = np.ones((5, 3))
        a = partition_kmeans(x, 2, seed=0)
        assert a.sizes().sum() == 5
        assert a.sizes().min() >= 1  # repair fills the empty cluster

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        assert (partition_kmeans(x, 4, seed=5).assign == partition_kmeans(x, 4, seed=5).assign).all()

    def test_distances_hold_one_n_by_d_temporary(self):
        # each centroid's distances come from one n x d temporary; an n x m x d
        # broadcast of all m at once peaked at ~10x the rows here
        x = np.random.default_rng(0).normal(size=(2000, 100))
        tracemalloc.start()
        try:
            partition_kmeans(x, 10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes

    def test_bad_m(self):
        with pytest.raises(ValueError):
            partition_kmeans(np.ones((3, 2)), 0, seed=0)
        with pytest.raises(ValueError):
            partition_kmeans(np.ones((3, 2)), 4, seed=0)


class TestCutStats:
    def test_single_cluster(self):
        g = two_triangle_bridge()
        cs = edge_cut_stats(g, ClusterAssignment(1, np.zeros(6, dtype=np.int64)))
        assert cs == CutStats(7, 0)
        assert cs.rate == float("inf")

    def test_triangle_partition_by_hand(self):
        g = two_triangle_bridge()
        a = ClusterAssignment(2, np.array([0, 0, 0, 1, 1, 1]))
        cs = edge_cut_stats(g, a)
        assert (cs.within_links, cs.between_links) == (6, 1)
        assert cs.rate == 6.0

    def test_counts_partition_edge_total(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = rng_graph(rng, n, 0.3)
            m = int(rng.integers(1, 5))
            a = partition_random(n, m, seed=int(rng.integers(100)))
            cs = edge_cut_stats(g, a)
            assert cs.within_links + cs.between_links == g.num_edges

    def test_size_mismatch(self):
        g = two_triangle_bridge()
        with pytest.raises(ValueError):
            edge_cut_stats(g, ClusterAssignment(2, np.zeros(4, dtype=np.int64)))


class TestAssignmentFile:
    def test_roundtrip(self, tmp_path):
        a = partition_random(25, 4, seed=6)
        write_assignment(tmp_path / "a.txt", a)
        b = read_assignment(tmp_path / "a.txt")
        assert b.num_clusters == 4
        assert (a.assign == b.assign).all()

    def test_malformed(self, tmp_path):
        (tmp_path / "bad.txt").write_text("5 x\n0\n")
        with pytest.raises(ValueError):
            read_assignment(tmp_path / "bad.txt")

    @pytest.mark.parametrize("body,line,cid", [("3 2\n0\n-1\n1\n", 3, -1),
                                              ("3 2\n0\n1\n2\n", 4, 2)])
    def test_bad_cluster_id_names_file_and_line(self, tmp_path, body, line, cid):
        path = tmp_path / "a.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: cluster id {cid} out of range for m=2$"):
            read_assignment(path)


def multi_component_graph(rng, n, parts):
    """Random graph of `parts` dense-ish components over a shuffled node
    order, with about a tenth of the nodes left isolated."""
    order = rng.permutation(n)
    isolated = n // 10
    pairs = []
    for block in np.array_split(order[isolated:], parts):
        if block.size < 2:
            continue
        k = int(rng.integers(block.size, 4 * block.size))
        ends = block[rng.integers(0, block.size, size=(k, 2))]
        pairs.append(ends[ends[:, 0] != ends[:, 1]])
    return Graph.from_undirected_pairs(n, np.concatenate(pairs) if pairs else [])


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 500), m=st.integers(2, 6),
       parts=st.integers(1, 4))
def test_partition_covers_every_node_within_balance(seed, n, m, parts):
    rng = np.random.default_rng(seed)
    g = multi_component_graph(rng, n, parts)
    a = partition_metis_like(g, m, seed=int(rng.integers(100)))
    assert a.num_nodes == n
    assert ((a.assign >= 0) & (a.assign < m)).all()
    assert a.sizes().max() <= int(np.ceil(BALANCE_TOLERANCE * n / m))


def _sha256(*arrays):
    h = hashlib.sha256()
    for a, dtype in arrays:
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


# seeded block-model graphs: (blocks, nodes per block, p_in, p_out, seed). The
# 600-900 node ones are large enough to coarsen (coarse target 200); the small
# ones are partitioned as they are, on the thorough path for coarsest levels of
# at most 100 nodes (move-sequence and swap refinement)
GOLDEN_GRAPHS = {
    "sbm600": (4, 150, 0.05, 0.002, 1),
    "sbm800": (5, 160, 0.03, 0.003, 2),
    "sbm900": (3, 300, 0.02, 0.001, 3),
    "sbm60": (3, 20, 0.3, 0.05, 1),
    "sbm100": (4, 25, 0.2, 0.05, 2),
}

# SHA-256 of normalize_adjacency's indptr, indices, values (little-endian)
GOLDEN_NORM = {
    "sbm600": "edb266d245d54771b4003fc014cd40f301c4113c811e32028ced890435681787",
    "sbm800": "d35a71edc544258ac0a941e8a4bac5aea2c1b2943eb4f750fcad5ad19778dd9a",
    "sbm900": "bd0c58bb3fd19f16ae36b2bad79f403d9f9c47f2a1bdccbc5390f2baf579715d",
}

# SHA-256 of partition_metis_like's assignment (little-endian int64) by
# (graph, m, seed)
GOLDEN_PARTITION = {
    ("sbm600", 2, 0): "a80393121020714997b16fb0fb3a42ec113a3d0cd169609ca3c7c1421c95bb71",
    ("sbm600", 2, 5): "a80393121020714997b16fb0fb3a42ec113a3d0cd169609ca3c7c1421c95bb71",
    ("sbm600", 4, 0): "912b9b0fbfa3c409cc3ed6ebad99d5d082483d13cc578a5231856781484461d6",
    ("sbm600", 4, 5): "5efb56b1f00eea9b0204db3aceed3d0c3df01bea954fbc2b163c91cb6ee06224",
    ("sbm600", 6, 0): "45be4e97e4f51d25773d7f974e489b14e5458657716a33a96490e750d5e451d1",
    ("sbm600", 6, 5): "b86860787fe9599dde1609260aabe500e49f19fe5b05d074a74530553747aa83",
    ("sbm800", 2, 0): "1555e1cbd02e23f095697fcde9ee57c76797f08b0750d648f200ac4299d3ae4d",
    ("sbm800", 2, 5): "92f60073edc015dd9b9281768849218060b7971c9f9b2b2eeceef3a17fde4307",
    ("sbm800", 4, 0): "86c50e1d7a34c939604eb70bdf9518e957fb292d3764948dd2007ae2f3948c92",
    ("sbm800", 4, 5): "f080ffdad552eb2e59dcd5b166331f01653bac43fad9cb31df81d34a490895cd",
    ("sbm800", 6, 0): "d38804eb64944232c470dbd9ebc59bd0ae358e353ae47f2ed1a2132fc1225d76",
    ("sbm800", 6, 5): "7551b90dfaac9a25c570d162b6f712de8afb5bcdecdbf2db74dff10bd1de5c4d",
    ("sbm900", 2, 0): "697a22ae0e83dd14d7760e51b7351acff199e4dd4008c60a08478f14da148679",
    ("sbm900", 2, 5): "b922bae226e21cfca2d5d8bbf21a710a1348fd87ee5b235efca8d5453db048a3",
    ("sbm900", 4, 0): "463dd0a7c8b9a7fcdc15caf3469818d1aa85801fadb7922961ef9d01d24587e4",
    ("sbm900", 4, 5): "75054ea675ab3ebfd50d357973d4b897deb46f0b1c8eb1fcd125735f66c82944",
    ("sbm900", 6, 0): "f4311d9304fef1c946822cd77ea2efe0de7f5bb686f61f249e57e18a4722a266",
    ("sbm900", 6, 5): "62c8dc4303473f1f52aaf743bf9c32808012b1c2d1d09bc4c9d8c1d9c2af49ab",
}

# the same for the small graphs, whose only level is the coarsest one
GOLDEN_SMALL_PARTITION = {
    ("sbm60", 2, 0): "8091546d88af3d76945f0a77736fa7999ce6a91151b293043141b3ba3b146dad",
    ("sbm60", 2, 5): "4258930d51871c7f50788db1bec3d80ee29df63e70753995e34cc83d7e97f865",
    ("sbm60", 4, 0): "0cda75f1e7de0a0952691de4d25e31524af959cad428d5251c248fa93c2c3a7b",
    ("sbm60", 4, 5): "77990a176e1c65579b2358215e19abeea8aa317284ea515edbc8f0c8a657803e",
    ("sbm60", 6, 0): "8ba84ae9e718d53fed630ecafbf6c29761bf96fb4456e437b890091f9a95a344",
    ("sbm60", 6, 5): "68e83e79c8151be6a65ea734ef2af136ce9ed2b0ea857a3245582247891a41ee",
    ("sbm100", 2, 0): "926631a4457bd2e4b4f63022333d370a2e1eb151f32e71768f616a58f9ea7acf",
    ("sbm100", 2, 5): "b75650920bda8775172795c192881f19b843b1e69ac8f3a2c7005ad0ea03d86c",
    ("sbm100", 4, 0): "459aa13d3712f2fdff27d49fa7420832b491d9bf65f61d97b38435ae09ce6b8b",
    ("sbm100", 4, 5): "d7884ac94e87d6844a051c688c4ad2934f3db48ee85b966400b6dd94b320d138",
    ("sbm100", 6, 0): "9b501a26a2a91b83a4b2578cb028cc3da09bf5273a86add4da7131b42000a41d",
    ("sbm100", 6, 5): "f1494825530510046e0912fb29001b7d4249fe7cfe14c42ce60dd9c193ce2ebe",
}


def kept_levels(monkeypatch) -> list[int]:
    """A list that gains the node count of each coarsening level that
    partition_metis_like keeps, one under 0.95 of its finer level's nodes."""
    coarsen, kept = partition._coarsen, []

    def spy(lv, mate):
        coarse = coarsen(lv, mate)
        if coarse.n < int(0.95 * lv.n):
            kept.append(coarse.n)
        return coarse
    monkeypatch.setattr(partition, "_coarsen", spy)
    return kept


@pytest.fixture(scope="module")
def golden_graphs():
    return {name: gen_sbm(b, k, p_in, p_out, 3, 0.5, seed=seed).graph
            for name, (b, k, p_in, p_out, seed) in GOLDEN_GRAPHS.items()}


class TestGoldenFingerprints:
    """Byte identity of normalize and partition outputs across rewrites."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_NORM))
    def test_normalize_adjacency(self, golden_graphs, name):
        a = normalize_adjacency(golden_graphs[name])
        assert _sha256((a.indptr, "<i8"), (a.indices, "<i8"), (a.data, "<f8")) == GOLDEN_NORM[name]

    @pytest.mark.parametrize("name,m,seed", sorted(GOLDEN_PARTITION))
    def test_partition_metis_like(self, golden_graphs, monkeypatch, name, m, seed):
        kept = kept_levels(monkeypatch)
        assign = partition_metis_like(golden_graphs[name], m, seed)
        assert len(kept) >= 2  # the graph was coarsened at least twice
        assert _sha256((assign.assign, "<i8")) == GOLDEN_PARTITION[(name, m, seed)]

    @pytest.mark.parametrize("name,m,seed", sorted(GOLDEN_SMALL_PARTITION))
    def test_partition_metis_like_small(self, golden_graphs, monkeypatch, name, m, seed):
        g = golden_graphs[name]
        kept = kept_levels(monkeypatch)
        assign = partition_metis_like(g, m, seed)
        assert kept == [] and g.num_nodes <= 100  # one level, refined thoroughly
        assert _sha256((assign.assign, "<i8")) == GOLDEN_SMALL_PARTITION[(name, m, seed)]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# SHA-256 of partition_metis_like's assignment (little-endian int64) with
# partition seed 1 on the benchmark's graphs, by (graph, graph seed, m)
GOLDEN_BENCH_PARTITION = {
    ("cora", 1, 5): "7f4f733381ca5697351f50a415353f720912ca39b69c3eac26622eebab58488d",
    ("cora", 1, 7): "3c1a49f38febdb8acef5e1bdd7e9bb200156e053dc4bd3098298e1966c08c588",
    ("cora", 2, 5): "50d5747af864b39c47572c65c805331c59b3da57952b2b3c2248299b945d74c7",
    ("cora", 2, 7): "e8f074f93aba11b9fa44190f08a8d746bb560dbc48c74b10a26cdee3bffdf37c",
    ("cora", 3, 5): "fb97f8124624834c84edef8500ec51ee4140fd3dd2bed28e3b2af3763f379b42",
    ("cora", 3, 7): "3207d86a4fc54b0891c40f55d234cfe7d244b3496785a62d1d91a2e3fbb372c8",
    ("pubmed", 1, 5): "1af06d4b9778335e1c2f64ebde623f01a5b153313bbf214212aa7407f6376e96",
    ("pubmed", 1, 7): "19dbd1c7a237d87f821eb546b3959f52f306dcd544f58e9d3d26f25688162cda",
    ("pubmed", 2, 5): "219e649867ef79542fda3c7ca986e0210d9b1787f92a6ffe2d0f9613c8339cd7",
    ("pubmed", 2, 7): "b739b35b6079a3c6ce7b00a75eec19fa6ed8a9aec0ad0c6ea8c72886b05a6fb2",
    ("pubmed", 3, 5): "abc8f3e1396fe2d1c08954b91694dfd0c04de1ea48169c54663e933e7af7940e",
    ("pubmed", 3, 7): "79378dbb560bea6091811c698972c30bb65600ff3011059e81e4c3c05cdd9dc7",
}


@pytest.fixture(scope="module")
def bench_graph():
    """The graph perfbench generates for (name, seed), from gen.py and
    workloads.py run in memory, so nothing is written under perfbench/."""
    def load(name):
        path = PERFBENCH / f"{name}.py"
        module = sys.modules[name] = types.ModuleType(name)
        module.__file__ = str(path)
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
        return module
    with mock.patch.dict(sys.modules):  # workloads.py imports gen by name
        gen, workloads = load("gen"), load("workloads")

    def build(name, seed):
        g = gen.generate(workloads.GRAPHS[name], seed)
        return Graph.from_undirected_pairs(g.num_nodes, g.pairs)
    return build


@pytest.mark.parametrize("name,seed,m", sorted(GOLDEN_BENCH_PARTITION))
def test_partition_metis_like_on_benchmark_graphs(bench_graph, monkeypatch, name, seed, m):
    kept = kept_levels(monkeypatch)
    assign = partition_metis_like(bench_graph(name, seed), m, 1)
    assert _sha256((assign.assign, "<i8")) == GOLDEN_BENCH_PARTITION[(name, seed, m)]
    if name == "pubmed":  # matching stalls above the coarse target, on heavy vertices
        assert kept[-1] > max(30 * m, 200)


# each contract check's exact message
@pytest.mark.parametrize("call,message", [
    (lambda: ClusterAssignment(2, np.array([0, 2])), "cluster id out of range"),
    (lambda: ClusterAssignment(2, np.array([-1, 1])), "cluster id out of range"),
    (lambda: partition_random(5, 0, seed=0), "m must be >= 1"),
])
def test_contract_messages(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


# a, b = 0, 1 in clusters 0 and 1 each link only to the other's cluster (to
# p = 2 and q = 3), so swapping them gains 2; p, q, r = 4 and s = 5 are held
# to their own clusters by the weight-5 edges p-r and q-s, so no other swap
# gains. Each weight set has cluster weights 5 and 5, and the a-b swap takes
# one cluster to 7: first a's cluster (a light, b heavy), then b's.
@pytest.mark.parametrize("node_w", [[1, 3, 2, 1, 2, 1], [3, 1, 1, 2, 1, 2]])
def test_swap_that_would_break_the_cap_is_not_made(node_w):
    u = np.array([0, 1, 2, 3])
    v = np.array([3, 2, 4, 5])
    w = np.array([1, 1, 5, 5])
    adj = sp.csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(6, 6))
    adj.sort_indices()
    level = partition._Level(adj, np.asarray(node_w, dtype=np.int64))
    start = np.array([0, 1, 0, 1, 0, 1])
    part = start.copy()
    assert partition._swap_pass(level, part, 2, cap=6) == 0
    assert part.tolist() == start.tolist()
    # within a cap of 7 the same pass makes the swap
    assert partition._swap_pass(level, part, 2, cap=7) == 1
    assert part.tolist() == [1, 0, 0, 1, 0, 1]


def full_scan_matching(level, max_node_w):
    """Heavy-edge matching that scans every neighbour of each row: the
    heaviest free neighbour that fits, the first of equal weights."""
    indptr, indices, w = level.adj.indptr, level.adj.indices, level.adj.data
    mate = np.full(level.n, -1)
    for u in range(level.n):
        if mate[u] != -1:
            continue
        best, best_w = u, 0
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if mate[v] == -1 and level.node_w[v] <= max_node_w - level.node_w[u] and w[i] > best_w:
                best, best_w = v, w[i]
        mate[u], mate[best] = best, u
    return mate


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200), degree=st.floats(0.0, 12.0),
       max_w=st.integers(1, 6), top=st.integers(1, 9))
def test_matching_and_numbering_are_the_full_scans(seed, n, degree, max_w, top):
    # edge weights up to top (1: every edge carries its row's top weight, as
    # on the input graph), on a level with isolated and unmatchable nodes.
    # The early-stopping scan pairs as the full one does, and coarse nodes
    # are numbered in order of each pair's lower end, as a sort of them gives
    rng = np.random.default_rng(seed)
    u, v = rng.integers(n, size=(2, int(degree * n / 2)))
    u, v = u[u != v], v[u != v]
    w = rng.integers(1, top + 1, size=u.size)
    adj = sp.csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n), dtype=np.int64)
    adj.sort_indices()
    level = partition._Level(adj, rng.integers(1, 4, size=n, dtype=np.int64))
    mate = partition._heavy_edge_matching(level, max_w)
    assert mate.tolist() == full_scan_matching(level, max_w).tolist()
    _, want = np.unique(np.minimum(np.arange(n), mate), return_inverse=True)
    got = partition._coarsen(level, mate).fine_to_coarse
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def contracted_reference(level, coarse_id, size):
    """PᵀAP less its diagonal, for the 0/1 fine-to-coarse matrix P: the
    contraction as a product of sparse matrices."""
    n = level.n
    p = sp.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), coarse_id)), shape=(n, size))
    adj = p.T @ level.adj @ p
    adj = (adj - sp.diags(adj.diagonal(), dtype=np.int64)).tocsr()
    adj.sort_indices()
    return adj


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), degree=st.floats(0.0, 12.0),
       max_w=st.integers(1, 6))
def test_coarsen_is_the_contraction_product(seed, n, degree, max_w):
    # a random level with int64 edge and node weights, matched by heavy edges
    # under a random weight cap, so that some nodes stay unmatched
    rng = np.random.default_rng(seed)
    k = int(degree * n / 2)
    u, v = rng.integers(n, size=(2, k))
    u, v, w = u[u != v], v[u != v], rng.integers(1, 10, size=int((u != v).sum()))
    adj = sp.csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n), dtype=np.int64)
    adj.sort_indices()
    level = partition._Level(adj, rng.integers(1, 4, size=n, dtype=np.int64))
    mate = partition._heavy_edge_matching(level, max_w)
    coarse = partition._coarsen(level, mate)
    size = coarse.n
    want = contracted_reference(level, coarse.fine_to_coarse, size)
    for name in ("indptr", "indices", "data"):
        got, expect = getattr(coarse.adj, name), getattr(want, name)
        assert got.dtype == expect.dtype and np.array_equal(got, expect), name
    assert coarse.adj.data.dtype == np.int64
    rows = np.repeat(np.arange(size), np.diff(coarse.adj.indptr))
    assert not (rows == coarse.adj.indices).any()
    bounds = coarse.adj.indptr
    assert all((np.diff(coarse.adj.indices[s:e]) > 0).all()  # sorted, each column once
               for s, e in zip(bounds[:-1], bounds[1:]))
    assert coarse.node_w.sum() == level.node_w.sum()
