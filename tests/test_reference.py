"""A cut plan's embeddings and gradients against a plain numpy oracle.

The oracle runs the gcn and mlp encoders forward and backward with dense
matrices: Â from adj.toarray(), every row computed, no row plan. Dropout uses
the masks of the all-rows draw: layer 0 one uniform per entry of x (per
stored entry of a CSR input, in row-major order), then one per entry of each
n x hidden layer input, all from default_rng(seed). Each tensor must agree
within 1e-12 of its largest absolute value.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from jcgraph.graph import SPARSE_MIN_SIZE, Graph, normalize_adjacency
from jcgraph.nn import ModelSpec, encoder_forward, init_params, model_backward, plan_rows

from conftest import assert_within

SEED = 3


def keep_masks(spec, x, p, csr):
    """The keep masks of every layer's input, drawn over all rows."""
    rng = np.random.default_rng(SEED)
    n = len(x)
    if csr:  # a CSR input draws once per stored entry
        flat = np.zeros(x.size, dtype=bool)
        flat[np.flatnonzero(x)] = rng.random(np.count_nonzero(x)) >= p
        masks = [flat.reshape(x.shape)]
    else:
        masks = [rng.random(x.shape) >= p]
    return masks + [rng.random((n, spec.hidden)) >= p for _ in range(1, spec.layers)]


def oracle(spec, params, a, x, masks, p, d_out):
    """Embeddings of every row and the gradients of sum(d_out * embeddings)."""
    h, layers = x, []
    for k in range(spec.layers):
        inp = h if masks is None else h * masks[k] / (1.0 - p)
        pre = inp @ params[f"enc_w{k}"]
        s = a @ pre if spec.encoder == "gcn" else pre + params[f"enc_b{k}"]
        relu = spec.encoder == "mlp" or k < spec.layers - 1
        h = np.maximum(s, 0.0) if relu else s
        layers.append((inp, s, relu))
    grads, d = {}, d_out
    for k in range(spec.layers - 1, -1, -1):
        inp, s, relu = layers[k]
        if relu:
            d = d * (s > 0.0)
        du = a.T @ d if spec.encoder == "gcn" else d
        grads[f"enc_w{k}"] = inp.T @ du
        if spec.encoder == "mlp":
            grads[f"enc_b{k}"] = du.sum(axis=0)
        d = du @ params[f"enc_w{k}"].T
        if masks is not None:
            d = d * masks[k] / (1.0 - p)
    return h, grads


def case(seed, csr):
    """A graph with isolated nodes, features (sparse and sized as load_dataset's
    CSR tables when csr is set) and a target set of about a third."""
    rng = np.random.default_rng(seed)
    n = 60
    iu, ju = np.triu_indices(n, k=1)
    isolated = rng.random(n) < 0.1
    keep = (rng.random(iu.size) < 0.05) & ~isolated[iu] & ~isolated[ju]
    graph = Graph.from_undirected_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))
    d = -(-SPARSE_MIN_SIZE // n) if csr else 5
    x = rng.normal(size=(n, d))
    if csr:
        x = np.where(rng.random((n, d)) < 0.1, x, 0.0)
    targets = np.sort(rng.choice(n, size=20, replace=False))
    return rng, graph, x, targets


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("hidden", [1, 64])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("encoder", ["gcn", "mlp"])
def test_cut_plan_matches_the_dense_oracle(encoder, layers, hidden, dropout, csr):
    rng, graph, x, targets = case(layers * 10 + hidden, csr)
    spec = ModelSpec(encoder, layers, hidden, x.shape[1], 3, dropout, "independent")
    params = init_params(spec, 11)
    for name in params:
        if name.startswith("enc_b"):
            params[name] = rng.normal(size=params[name].shape)
    adj = normalize_adjacency(graph)
    features = sp.csr_matrix(x) if csr else x
    plan = plan_rows(spec, adj, features)
    assert plan.x is features  # layer 0 multiplies the form it is given
    cut = plan.restrict(targets)
    assert cut.rows[0].size < len(x)

    train_mode = dropout > 0.0
    z, tape = encoder_forward(params, cut, train_mode, seed=SEED)
    # the embeddings and their gradient are the block of the sorted targets
    d_out = np.zeros((len(x), z.shape[1]))
    d_out[targets] = rng.normal(size=(targets.size, z.shape[1]))
    grads = model_backward(tape, d_out[targets])

    masks = keep_masks(spec, x, dropout, csr) if train_mode else None
    z_ref, grads_ref = oracle(spec, params, adj.toarray(), x, masks, dropout, d_out)
    assert_within(z, z_ref[targets], name="embeddings")
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
        assert_within(grads[name], grads_ref[name], name=name)
