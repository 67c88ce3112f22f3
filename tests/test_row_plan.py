"""A plan cut to target rows gives the same bits as the all-rows plan."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph.graph import Graph, normalize_adjacency
from jcgraph.nn import (ENCODERS, SPARSE_MIN_SIZE, ModelSpec, encoder_forward, init_params,
                        model_backward, plan_rows)


def random_case(seed, encoder, layers, dropout, twin):
    """A graph with isolated nodes, features, parameters and a target set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    iu, ju = np.triu_indices(n, k=1)
    isolated = rng.random(n) < 0.2
    keep = (rng.random(iu.size) < rng.choice([0.02, 0.1, 0.4])) & ~isolated[iu] & ~isolated[ju]
    graph = Graph.from_undirected_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))
    if twin:
        d = -(-SPARSE_MIN_SIZE // n)
        x = np.where(rng.random((n, d)) < 0.1, rng.normal(size=(n, d)), 0.0)
    else:
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
    spec = ModelSpec(encoder, layers, int(rng.integers(1, 6)), d, 2, dropout, "independent")
    params = init_params(spec, int(rng.integers(0, 1000)))
    for name in params.names():
        if name.startswith("enc_b"):
            params[name] = rng.normal(size=params[name].shape)
    targets = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    return rng, normalize_adjacency(graph), x, spec, params, targets


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), encoder=st.sampled_from(ENCODERS),
       layers=st.integers(1, 3), dropout=st.sampled_from([0.0, 0.5]), twin=st.booleans(),
       train_mode=st.booleans())
def test_cut_plan_matches_all_rows_bit_for_bit(seed, encoder, layers, dropout, twin, train_mode):
    rng, adj, x, spec, params, targets = random_case(seed, encoder, layers, dropout, twin)
    full = plan_rows(spec, adj, x)
    cut = full.restrict(targets)
    assert sp.issparse(full.x) == (twin and encoder != "sgc")

    z_all, tape_all = encoder_forward(spec, params, adj, x, train_mode, seed=3, plan=full)
    z_cut, tape_cut = encoder_forward(spec, params, adj, x, train_mode, seed=3, plan=cut)
    assert z_cut[targets].tobytes() == z_all[targets].tobytes()
    if encoder != "sgc":
        outside = np.ones(len(x), dtype=bool)
        outside[targets] = False
        assert (z_cut[outside] == 0.0).all()

    grad = np.zeros_like(z_all)
    grad[targets] = rng.normal(size=(targets.size, grad.shape[1]))
    noisy = grad + rng.normal(size=grad.shape) * (grad == 0.0)
    expect = model_backward(tape_all, grad)
    got = model_backward(tape_cut, noisy)  # rows outside the targets are ignored
    assert got.keys() == expect.keys()
    for name in expect:
        assert got[name].tobytes() == expect[name].tobytes(), name


def test_every_target_keeps_every_row(sbm12):
    spec = ModelSpec("gcn", 2, 4, 3, 2, 0.5, "independent")
    adj = normalize_adjacency(sbm12.graph)
    full = plan_rows(spec, adj, sbm12.features)
    cut = full.restrict(np.arange(sbm12.num_nodes))
    assert cut.rows == (None, None, None)
    assert all(a is adj for a in cut.adj_rows)


def test_rows_grow_by_one_hop_per_layer():
    # path 0-1-2-3-4: the target 0 reads {0, 1} one layer down, {0, 1, 2} two down
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    spec = ModelSpec("gcn", 2, 2, 1, 2, 0.0, "independent")
    cut = plan_rows(spec, normalize_adjacency(graph), np.ones((5, 1))).restrict([0])
    assert [r.tolist() for r in cut.rows] == [[0, 1, 2], [0, 1], [0]]
    assert [int(a.indices.size) for a in cut.adj_rows] == [8, 5, 2]
