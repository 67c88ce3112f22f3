import numpy as np
import pytest
import scipy.sparse as sp

from jcgraph.graph import (DatasetFormatError, Graph, LabelSet, gen_sbm, load_dataset,
                           normalize_adjacency, spmm, write_dataset)

from conftest import rng_graph


def write_files(tmp_path, graph="2 1\n0 1\n", features="2 1\n0.5\n1.5\n",
                labels="2 2 s\n0\n1\n", masks="train: 0\nval:\ntest: 1\n"):
    (tmp_path / "graph.txt").write_text(graph)
    (tmp_path / "features.txt").write_text(features)
    (tmp_path / "labels.txt").write_text(labels)
    (tmp_path / "masks.txt").write_text(masks)
    return tmp_path


class TestLoadDataset:
    def test_two_node_edge(self, tmp_path):
        ds = load_dataset(write_files(tmp_path))
        assert list(ds.graph.neighbors(0)) == [1]
        assert list(ds.graph.neighbors(1)) == [0]
        assert ds.graph.num_edges == 1

    def test_duplicate_edge_symmetrized(self, tmp_path):
        ds = load_dataset(write_files(tmp_path, graph="2 2\n0 1\n1 0\n"))
        assert ds.graph.num_edges == 1
        assert ds.duplicate_edges == 1

    def test_missing_file(self, tmp_path):
        write_files(tmp_path)
        (tmp_path / "labels.txt").unlink()
        with pytest.raises(DatasetFormatError, match="labels.txt"):
            load_dataset(tmp_path)

    def test_self_loop_rejected_with_line(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"graph.txt:2"):
            load_dataset(write_files(tmp_path, graph="2 1\n1 1\n"))

    def test_inconsistent_node_count(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="does not match"):
            load_dataset(write_files(tmp_path, features="3 1\n0.0\n0.0\n0.0\n"))

    def test_non_binary_multilabel(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="non-binary"):
            load_dataset(write_files(tmp_path, labels="2 2 m\n1 0\n2 0\n"))

    def test_overlapping_masks(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="overlap"):
            load_dataset(write_files(tmp_path, masks="train: 0 1\nval:\ntest: 1\n"))

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = gen_sbm(3, 5, 0.9, 0.1, 4, 0.7, seed=11)
        write_dataset(tmp_path / "a", ds)
        back = load_dataset(tmp_path / "a")
        write_dataset(tmp_path / "b", back)
        for name in ("graph.txt", "features.txt", "labels.txt", "masks.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (back.features == ds.features).all()
        assert (back.labels.matrix == ds.labels.matrix).all()
        assert (back.graph.indices == ds.graph.indices).all()

    def test_roundtrip_multilabel(self, tmp_path, sbm12_multi):
        write_dataset(tmp_path / "m", sbm12_multi)
        back = load_dataset(tmp_path / "m")
        assert back.labels.kind == "m"
        assert (back.labels.matrix == sbm12_multi.labels.matrix).all()
        write_dataset(tmp_path / "m2", back)
        assert ((tmp_path / "m" / "labels.txt").read_bytes()
                == (tmp_path / "m2" / "labels.txt").read_bytes())


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = Graph.from_undirected_pairs(1, [])
        assert normalize_adjacency(g).toarray().tolist() == [[1.0]]

    def test_two_nodes_one_edge(self):
        g = Graph.from_undirected_pairs(2, [(0, 1)])
        np.testing.assert_allclose(normalize_adjacency(g).toarray(), np.full((2, 2), 0.5))

    def test_triangle(self):
        # hand computation: all degrees 2, so every entry is 1/3
        g = Graph.from_undirected_pairs(3, [(0, 1), (1, 2), (0, 2)])
        assert normalize_adjacency(g).toarray() == pytest.approx(np.full((3, 3), 1 / 3))

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng_graph(rng, int(rng.integers(2, 15)), 0.4)
            d = normalize_adjacency(g).toarray()
            assert (d == d.T).all()

    def test_row_sum_one_iff_equal_degrees(self):
        # regular graph: every row sums to exactly 1 (up to fp addition)
        g = Graph.from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert normalize_adjacency(g).toarray().sum(axis=1) == pytest.approx(np.ones(4))
        # star: the hub's neighbors have smaller degree, so its row exceeds 1
        star = Graph.from_undirected_pairs(5, [(0, i) for i in range(1, 5)])
        sums = normalize_adjacency(star).toarray().sum(axis=1)
        assert sums[0] > 1.0 and (sums[1:] < 1.0).all()


class TestSpmm:
    def test_identity_like(self):
        g = Graph.from_undirected_pairs(1, [])
        a = normalize_adjacency(g)
        x = np.array([[3.25]])
        assert (spmm(a, x) == x).all()

    def test_two_node_averaging(self):
        g = Graph.from_undirected_pairs(2, [(0, 1)])
        a = normalize_adjacency(g)
        np.testing.assert_allclose(spmm(a, np.array([[2.0], [4.0]])), [[3.0], [3.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            g = rng_graph(rng, n, 0.5) if n > 1 else Graph.from_undirected_pairs(1, [])
            a = normalize_adjacency(g)
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            np.testing.assert_allclose(spmm(a, x), a.toarray() @ x, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        g = Graph.from_undirected_pairs(2, [(0, 1)])
        with pytest.raises(ValueError, match="mismatch"):
            spmm(normalize_adjacency(g), np.zeros((3, 2)))

    def test_transpose_matches_the_stored_transpose(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r, c = (int(v) for v in rng.integers(1, 30, size=2))
            m = sp.random(r, c, density=rng.uniform(0.05, 0.6), format="csr", random_state=rng)
            m.sort_indices()
            back = sp.csr_matrix(m.T)  # the transpose stored in CSR form
            assert back.has_sorted_indices
            x = rng.normal(size=(r, int(rng.integers(1, 6))))
            assert spmm(m, x, transpose=True).tobytes() == (back @ x).tobytes()
            with pytest.raises(ValueError, match="mismatch"):
                spmm(m, np.zeros((r + 1, 2)), transpose=True)


class TestGenSbm:
    def test_disjoint_cliques(self):
        ds = gen_sbm(2, 5, 1.0, 0.0, 2, 0.1, seed=0)
        block = np.arange(10) // 5
        for u, v in ds.graph.edge_pairs():
            assert block[u] == block[v]
        assert ds.graph.num_edges == 2 * 10  # two 5-cliques

    def test_zero_noise_identical_features(self):
        ds = gen_sbm(2, 4, 0.9, 0.1, 3, 0.0, seed=0)
        for b in range(2):
            rows = ds.features[b * 4:(b + 1) * 4]
            assert (rows == rows[0]).all()

    def test_within_exceeds_between(self):
        ds = gen_sbm(4, 50, 0.2, 0.01, 8, 0.5, seed=9)
        block = np.arange(200) // 50
        uv = ds.graph.edge_pairs()
        within = int((block[uv[:, 0]] == block[uv[:, 1]]).sum())
        assert within > uv.shape[0] - within

    def test_bit_reproducible(self):
        a = gen_sbm(3, 6, 0.5, 0.05, 4, 0.3, seed=42)
        b = gen_sbm(3, 6, 0.5, 0.05, 4, 0.3, seed=42)
        assert (a.graph.indices == b.graph.indices).all()
        assert (a.features == b.features).all()
        assert (a.masks.train == b.masks.train).all()

    def test_masks_disjoint_and_stratified(self):
        ds = gen_sbm(4, 8, 0.9, 0.05, 2, 0.1, seed=1)
        m = ds.masks
        assert not set(m.train) & set(m.val)
        assert not set(m.train) & set(m.test)
        assert not set(m.val) & set(m.test)
        labels = ds.labels.class_index()
        assert len(set(labels[m.train])) == 4  # every block has a train node

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            gen_sbm(1, 5, 0.5, 0.1, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_sbm(2, 1, 0.5, 0.1, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_sbm(2, 5, 0.1, 0.5, 2, 0.1, seed=0)

    def test_graph_invariants(self):
        gen_sbm(3, 7, 0.6, 0.1, 2, 0.5, seed=13).graph.validate()


# each contract check's exact message
@pytest.mark.parametrize("call,message", [
    (lambda: spmm(sp.identity(3, format="csr"), np.zeros(3)),
     "expected 2-d dense matrix, got shape (3,)"),
    (lambda: LabelSet(2, "x", np.zeros((1, 2))), "unknown label kind 'x'"),
    (lambda: LabelSet(2, "m", np.ones((1, 2))).class_index(),
     "class_index is only defined for single-label sets"),
    (lambda: gen_sbm(2, 2, 0.5, 0.1, 0, 0.1, seed=0), "feat_dim must be positive"),
])
def test_contract_messages(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message
