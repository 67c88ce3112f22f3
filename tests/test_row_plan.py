"""A plan cut to target rows computes what the all-rows plan computes.

Rows, dropout masks and the dropout generator's state are the same bits.
Embeddings and gradients agree within 1e-12 of each tensor's largest value:
a dense product over compact rows can round in other last bits than one over
all rows.
"""

import contextlib
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jcgraph.nn as nn
from jcgraph.graph import SPARSE_MIN_SIZE, Graph, normalize_adjacency, spmm
from jcgraph.nn import (DRAW_THROUGH, ENCODERS, ModelSpec, _draws_on_rows, encoder_forward,
                        init_params, model_backward, plan_rows)

from conftest import all_rows, assert_within


def random_case(seed, encoder, layers, hidden, dropout, csr):
    """A graph with isolated nodes, features (CSR, sized as load_dataset's CSR
    tables, when csr is set), parameters and a target set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    iu, ju = np.triu_indices(n, k=1)
    isolated = rng.random(n) < 0.2
    keep = (rng.random(iu.size) < rng.choice([0.02, 0.1, 0.4])) & ~isolated[iu] & ~isolated[ju]
    graph = Graph.from_undirected_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))
    if csr:
        d = -(-SPARSE_MIN_SIZE // n)
        x = sp.csr_matrix(np.where(rng.random((n, d)) < 0.1, rng.normal(size=(n, d)), 0.0))
    else:
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
    spec = ModelSpec(encoder, layers, hidden, d, 2, dropout, "independent")
    params = init_params(spec, int(rng.integers(0, 1000)))
    for name in params:
        if name.startswith("enc_b"):
            params[name] = rng.normal(size=params[name].shape)
    targets = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    return rng, normalize_adjacency(graph), x, spec, params, targets


@contextlib.contextmanager
def generators():
    """Every generator np.random.default_rng makes inside the block."""
    made, real = [], np.random.default_rng

    def record(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", record):
        yield made


def forward(params, train_mode, plan):
    """Embeddings, tape and the end state of the forward pass's generator."""
    with generators() as made:
        z, tape = encoder_forward(params, plan, train_mode, seed=3)
    return z, tape, [g.bit_generator.state for g in made]


def dense(a):
    return a.toarray() if sp.issparse(a) else a


@settings(max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), encoder=st.sampled_from(ENCODERS),
       layers=st.integers(1, 3), hidden=st.sampled_from([1, 2, 3, 4, 5, 64]),
       dropout=st.sampled_from([0.0, 0.5]), csr=st.booleans(), train_mode=st.booleans())
# A hidden row of 64 units is 64 draws, so the dropout draw skips gaps of
# DRAW_THROUGH / 64 = 16 rows or more. In these cases every hidden layer's
# computed rows have such a gap: gcn (7 of 68 rows one layer down), gcn with
# 3 layers and CSR input (5 and 4 of 59 rows) and mlp (1 of 52) skip gaps in
# their last hidden layer.
@example(seed=0, encoder="gcn", layers=2, hidden=64, dropout=0.5, csr=False, train_mode=True)
@example(seed=83, encoder="gcn", layers=3, hidden=64, dropout=0.5, csr=True, train_mode=True)
@example(seed=90, encoder="mlp", layers=2, hidden=64, dropout=0.5, csr=False, train_mode=True)
def test_cut_plan_matches_all_rows(seed, encoder, layers, hidden, dropout, csr, train_mode):
    rng, adj, x, spec, params, targets = random_case(seed, encoder, layers, hidden, dropout, csr)
    full = all_rows(spec, adj, x)
    cut, = plan_rows(spec, adj, x, targets)
    # layer 0 multiplies x in the form given, and an sgc plan Â^K X of x's
    # dense form
    if encoder == "sgc":
        prepared = dense(x)
        for _ in range(layers):
            prepared = spmm(adj, prepared)
        assert full.x_rows.tobytes() == prepared.tobytes()
    else:
        assert sp.issparse(full.x_rows) == csr
        assert dense(full.x_rows).tobytes() == dense(x).tobytes()
    # rows[k-1] is the Â-neighbourhood of rows[k] for gcn, the targets for mlp;
    # sgc has no weight layer, so its only row set is the targets
    assert len(cut.rows) == spec.weight_layers + 1
    reach = adj.toarray() != 0.0
    for k in range(spec.weight_layers, 0, -1):
        above = cut.rows[k]
        below = np.flatnonzero(reach[above].any(axis=0)) if encoder == "gcn" else above
        assert cut.rows[k - 1].tobytes() == below.tobytes()

    z_all, tape_all, state_all = forward(params, train_mode, full)
    z_cut, tape_cut, state_cut = forward(params, train_mode, cut)
    assert state_cut == state_all
    # the embeddings are the block of the plan's targets, the sorted targets
    at = np.searchsorted(cut.rows[-1], targets)
    assert_within(z_cut[at], z_all[targets], name="embeddings")
    assert len(z_cut) == targets.size
    # dropout: the same mask bits on the computed rows, and at layer 0 the
    # same dropped input, since an element-wise step keeps its bits
    for k, (got, want) in enumerate(zip(tape_cut.layers, tape_all.layers)):
        if k == 0:
            assert dense(got["inp"]).tobytes() == dense(want["inp"])[cut.rows[0]].tobytes()
        assert (got["mask"] is None) == (want["mask"] is None)
        if got["mask"] is not None:
            assert got["mask"].tobytes() == want["mask"][cut.rows[k]].tobytes()

    grad = np.zeros_like(z_all)
    grad[targets] = rng.normal(size=(targets.size, grad.shape[1]))
    noisy = grad + rng.normal(size=grad.shape) * (grad == 0.0)
    expect = model_backward(tape_all, grad)
    noisy = noisy[cut.rows[-1]]  # the noise outside the targets is not in the block
    got = model_backward(tape_cut, noisy)
    assert got.keys() == expect.keys()
    for name in expect:
        assert_within(got[name], expect[name], name=name)

    # the same plan run again gives the same bits
    z_again, tape_again, state_again = forward(params, train_mode, cut)
    assert z_again.tobytes() == z_cut.tobytes() and state_again == state_cut
    again = model_backward(tape_again, noisy)
    for name in got:
        assert again[name].tobytes() == got[name].tobytes(), name


def test_every_target_keeps_every_row(sbm12):
    spec = ModelSpec("gcn", 2, 4, 3, 2, 0.5, "independent")
    adj = normalize_adjacency(sbm12.graph)
    every = np.arange(sbm12.num_nodes)
    for plan in (all_rows(spec, adj, sbm12.features),
                 *plan_rows(spec, adj, sbm12.features, every[::-1])):
        assert all(r.tobytes() == every.tobytes() for r in plan.rows)
        assert len(plan.adj_rows) == 2
        for a in plan.adj_rows:
            assert a.shape == adj.shape
            for name in ("indptr", "indices", "data"):
                assert getattr(a, name).tobytes() == getattr(adj, name).tobytes(), name


def test_one_call_propagates_sgc_once(sbm12, monkeypatch):
    # the plans of one call share the prepared input: K products of Â for
    # two target sets, not 2K
    spec = ModelSpec("sgc", 3, 1, 3, 2, 0.0, "independent")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return spmm(*args, **kwargs)
    monkeypatch.setattr(nn, "spmm", counted)
    a, b = plan_rows(spec, normalize_adjacency(sbm12.graph), sbm12.features, [0, 5], [1, 2, 7])
    assert calls == [(12, 12)] * 3
    assert [r.tolist() for r in a.rows + b.rows] == [[0, 5], [1, 2, 7]]
    full = all_rows(spec, normalize_adjacency(sbm12.graph), sbm12.features)
    for plan in (a, b):
        assert plan.x_rows.tobytes() == full.x_rows[plan.rows[0]].tobytes()


def test_rows_grow_by_one_hop_per_layer():
    # path 0-1-2-3-4: the target 0 reads {0, 1} one layer down, {0, 1, 2} two down
    graph = Graph.from_undirected_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    spec = ModelSpec("gcn", 2, 2, 1, 2, 0.0, "independent")
    cut, = plan_rows(spec, normalize_adjacency(graph), np.ones((5, 1)), [0])
    assert [r.tolist() for r in cut.rows] == [[0, 1, 2], [0, 1], [0]]
    # layer k multiplies the rows[k+1] x rows[k] block, its backward the transpose
    assert [(a.shape, int(a.indices.size)) for a in cut.adj_rows] == [((2, 3), 5), ((1, 2), 2)]
    whole = normalize_adjacency(graph).toarray()
    for k, a in enumerate(cut.adj_rows):
        assert (a.toarray() == whole[np.ix_(cut.rows[k + 1], cut.rows[k])]).all()
        d = np.arange(1.0, 2 * a.shape[0] + 1).reshape(a.shape[0], 2)
        back = spmm(a, d, transpose=True)
        assert back.shape == (a.shape[1], 2)
        np.testing.assert_allclose(back, whole[np.ix_(cut.rows[k], cut.rows[k + 1])] @ d,
                                   rtol=1e-15)


@st.composite
def row_sets(draw):
    n = draw(st.integers(1, 60))
    rows = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return n, np.array(sorted(rows), dtype=np.int64)


@settings(max_examples=200)
@given(case=row_sets(), width=st.integers(1, 8), gap=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(case=(1, np.array([0])), width=3, gap=DRAW_THROUGH, seed=0)  # single row
@example(case=(9, np.array([0, 8])), width=2, gap=4, seed=1)  # first and last rows
@example(case=(9, np.arange(9)), width=2, gap=1, seed=2)  # all rows, no gaps
@example(case=(9, np.array([2, 3, 4])), width=5, gap=1, seed=3)  # empty gaps
@example(case=(12, np.array([1, 5, 8])), width=1, gap=3, seed=4)  # gap 3 skipped, 2 drawn
@example(case=(12, np.array([1, 5, 8])), width=1, gap=4, seed=5)  # gaps 3 and 2 drawn
# two stretches of one draw each, with a skipped gap and a skipped tail:
# counting gap draws per stretch they make 1 + 2 + 1 + 2 = 6 draws, near the
# full draw's 9 and 8, and both are still drawn by stretches
@example(case=(9, np.array([0, 3])), width=1, gap=2, seed=6)
@example(case=(8, np.array([0, 3])), width=1, gap=2, seed=7)
def test_row_limited_draw_matches_the_full_draw(case, width, gap, seed):
    n, rows = case
    full_rng = np.random.default_rng(seed)
    full = full_rng.random((n, width))
    rng = np.random.default_rng(seed)
    got = _draws_on_rows(rng, (n, width), rows, gap)
    assert got.tobytes() == full[rows].tobytes()
    # the generator ends where the full draw leaves it, so the next draw agrees
    assert rng.bit_generator.state == full_rng.bit_generator.state
    assert rng.random(5).tobytes() == full_rng.random(5).tobytes()
