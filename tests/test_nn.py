import re

import numpy as np
import pytest

from jcgraph.graph import (SPARSE_DENSITY, SPARSE_MIN_SIZE, Dataset, Graph, LabelSet,
                           SplitMasks, normalize_adjacency, spmm)
from jcgraph.losses import ce_loss, cluster_stats, jc_loss
from jcgraph.nn import (CLASSIFIERS, ENCODERS, ModelSpec, NumericsError, adam_step,
                        encoder_forward, grad_check, init_adam_state, init_params,
                        model_backward, plan_rows, save_checkpoint)
from jcgraph.partition import partition_metis_like

from conftest import all_rows, rng_graph


def tiny_dataset(n=3, d=2, c=2, edges=((0, 1), (1, 2)), seed=0):
    rng = np.random.default_rng(seed)
    graph = Graph.from_undirected_pairs(n, list(edges))
    feats = rng.normal(size=(n, d))
    idx = rng.integers(0, c, size=n)
    idx[:c] = np.arange(c)  # every class present
    mat = np.zeros((n, c))
    mat[np.arange(n), idx] = 1.0
    masks = SplitMasks(np.arange(n), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    return Dataset(graph, feats, LabelSet(c, "s", mat), masks)


def ce_fn(params, z, data):
    return ce_loss(params, z, data.labels, data.masks.train)


class TestModelSpec:
    @pytest.mark.parametrize("encoder,layers", [(e, k) for e in ENCODERS for k in (0, 1, 2, 3)
                                                if k or e == "sgc"])
    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_num_params_counts_what_init_params_draws(self, encoder, layers, classifier):
        spec = ModelSpec(encoder, layers, 5, 7, 3, 0.0, classifier)
        assert spec.num_params == sum(v.size for v in init_params(spec, 0).values())


class TestEncoderForward:
    def test_sgc_zero_layers_is_identity(self, sbm12):
        spec = ModelSpec("sgc", 0, 1, 3, 2, 0.0, "independent")
        adj = normalize_adjacency(sbm12.graph)
        z, _ = encoder_forward(init_params(spec, 0), all_rows(spec, adj, sbm12.features))
        assert (z == sbm12.features).all()

    def test_mlp_identity_weights_is_relu(self):
        ds = tiny_dataset(n=4, d=3, edges=[(0, 1)])
        spec = ModelSpec("mlp", 1, 3, 3, 2, 0.0, "independent")
        params = init_params(spec, 0)
        params["enc_w0"] = np.eye(3)
        params["enc_b0"] = np.zeros(3)
        z, _ = encoder_forward(params, all_rows(spec, None, ds.features))
        assert (z == np.maximum(ds.features, 0.0)).all()

    def test_gcn_hand_example(self):
        # 2-node graph: A is all 0.5, X = [[2],[4]], W = [[1]] -> [[3],[3]]
        g = Graph.from_undirected_pairs(2, [(0, 1)])
        spec = ModelSpec("gcn", 1, 1, 1, 2, 0.0, "independent")
        params = init_params(spec, 0)
        params["enc_w0"] = np.array([[1.0]])
        z, _ = encoder_forward(params, all_rows(spec, normalize_adjacency(g), np.array([[2.0], [4.0]])))
        np.testing.assert_allclose(z, [[3.0], [3.0]])

    def test_sgc_equals_repeated_spmm(self, sbm12):
        adj = normalize_adjacency(sbm12.graph)
        for k in (1, 2, 3):
            spec = ModelSpec("sgc", k, 1, 3, 2, 0.0, "independent")
            z, _ = encoder_forward(init_params(spec, 0), all_rows(spec, adj, sbm12.features))
            expect = sbm12.features
            for _ in range(k):
                expect = spmm(adj, expect)
            assert (z == expect).all()

    def test_dropout_zero_train_equals_eval(self, sbm12):
        spec = ModelSpec("gcn", 2, 4, 3, 2, 0.0, "independent")
        params = init_params(spec, 1)
        adj = normalize_adjacency(sbm12.graph)
        plan = all_rows(spec, adj, sbm12.features)
        zt, _ = encoder_forward(params, plan, train_mode=True, seed=4)
        ze, _ = encoder_forward(params, plan, train_mode=False)
        assert (zt == ze).all()

    def test_deterministic_given_seed(self, sbm12):
        spec = ModelSpec("mlp", 2, 4, 3, 2, 0.5, "independent")
        params = init_params(spec, 1)
        plan = all_rows(spec, None, sbm12.features)
        a, _ = encoder_forward(params, plan, train_mode=True, seed=3)
        b, _ = encoder_forward(params, plan, train_mode=True, seed=3)
        c, _ = encoder_forward(params, plan, train_mode=True, seed=4)
        assert (a == b).all()
        assert not (a == c).all()

    def test_tape_keeps_what_each_layer_computed(self, easy_sbm):
        # no later step writes into an array the tape recorded: each entry's
        # out is relu(Â_k (inp @ w)) from its own inp, bit for bit
        spec = ModelSpec("gcn", 3, 16, 8, 4, 0.5, "independent")
        adj = normalize_adjacency(easy_sbm.graph)
        plan, = plan_rows(spec, adj, easy_sbm.features, easy_sbm.masks.train)
        _, tape = encoder_forward(init_params(spec, 0), plan, train_mode=True, seed=5)
        for k, entry in enumerate(tape.layers):
            s = spmm(plan.adj_rows[k], entry["inp"] @ entry["w"])
            if entry["relu"]:
                s = np.maximum(s, 0.0)
            assert entry["out"].tobytes() == s.tobytes(), f"layer {k}"

    def test_gcn_requires_adj(self, sbm12):
        spec = ModelSpec("gcn", 1, 4, 3, 2, 0.0, "independent")
        with pytest.raises(ValueError, match="adjacency"):
            plan_rows(spec, None, sbm12.features)

    def test_non_finite_activations(self, sbm12):
        spec = ModelSpec("mlp", 1, 4, 3, 2, 0.0, "independent")
        params = init_params(spec, 0)
        params["enc_w0"] = params["enc_w0"] * np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            encoder_forward(params, all_rows(spec, None, sbm12.features))


class TestFeatureMutation:
    """Features changed in place between two forward calls are read anew."""

    @pytest.mark.parametrize("encoder", ["gcn", "sgc"])
    def test_in_place_change_is_seen(self, encoder):
        rng = np.random.default_rng(0)
        n, d = 500, 120
        x = np.where(rng.random((n, d)) < 0.1, 1.0, 0.0)
        assert x.size >= SPARSE_MIN_SIZE and np.count_nonzero(x) / x.size <= SPARSE_DENSITY
        adj = normalize_adjacency(rng_graph(rng, n, 0.01))
        spec = ModelSpec(encoder, 2, 4, d, 2, 0.0, "independent")
        params = init_params(spec, 0)
        before, _ = encoder_forward(params, all_rows(spec, adj, x))
        x *= 3.0
        after, _ = encoder_forward(params, all_rows(spec, adj, x))
        fresh, _ = encoder_forward(params, all_rows(spec, adj, x.copy()))
        assert not (after == before).all()
        assert (after == fresh).all()


class TestModelBackward:
    def test_zero_loss_grad_gives_zero_param_grads(self, sbm12):
        spec = ModelSpec("gcn", 2, 4, 3, 2, 0.0, "independent")
        params = init_params(spec, 0)
        adj = normalize_adjacency(sbm12.graph)
        z, tape = encoder_forward(params, all_rows(spec, adj, sbm12.features))
        grads = model_backward(tape, np.zeros_like(z))
        assert all((g == 0).all() for g in grads.values())

    def test_sum_loss_gradient_by_hand(self):
        # edgeless graph: A = I, so a 1-layer gcn is a plain linear map and
        # d(sum Z)/dW = X^T 1
        ds = tiny_dataset(n=5, d=3, edges=[])
        spec = ModelSpec("gcn", 1, 2, 3, 2, 0.0, "independent")
        params = init_params(spec, 0)
        adj = normalize_adjacency(ds.graph)
        z, tape = encoder_forward(params, all_rows(spec, adj, ds.features))
        grads = model_backward(tape, np.ones_like(z))
        np.testing.assert_allclose(grads["enc_w0"], ds.features.T @ np.ones((5, 2)))

    @pytest.mark.parametrize("encoder", ["gcn", "mlp"])
    def test_tape_gives_the_same_gradients_twice(self, sbm12, encoder):
        # no step writes into a tape, so a second backward pass reads what the first did
        spec = ModelSpec(encoder, 2, 4, 3, 2, 0.5, "independent")
        plan = all_rows(spec, normalize_adjacency(sbm12.graph), sbm12.features)
        z, tape = encoder_forward(init_params(spec, 0), plan, train_mode=True, seed=3)
        d = np.random.default_rng(0).normal(size=z.shape)
        first, second = model_backward(tape, d), model_backward(tape, d)
        assert list(first) == list(second)
        assert all(first[k].tobytes() == second[k].tobytes() for k in first)

    @pytest.mark.parametrize("encoder", ["gcn", "sgc", "mlp"])
    def test_gradient_of_another_shape_rejected(self, sbm12, encoder):
        # the gradient is a block of the embeddings' shape: the targets' rows
        spec = ModelSpec(encoder, 2, 4, 3, 2, 0.0, "independent")
        cut, = plan_rows(spec, normalize_adjacency(sbm12.graph), sbm12.features, [1, 4, 7])
        z, _ = encoder_forward(init_params(spec, 0), cut)
        assert z.shape == (cut.rows[-1].size, spec.embed_dim) == (3, spec.embed_dim)
        for bad in ((sbm12.num_nodes + 1, spec.embed_dim), (z.shape[0] - 1, spec.embed_dim),
                    (z.shape[0], spec.embed_dim + 1), (z.size,)):
            _, tape = encoder_forward(init_params(spec, 0), cut)
            message = f"loss gradient has shape {bad}, the embeddings {z.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                model_backward(tape, np.zeros(bad))


class TestGradCheck:
    def test_linear_model_ce(self):
        ds = tiny_dataset(n=3, d=2)
        spec = ModelSpec("sgc", 1, 1, 2, 2, 0.0, "independent")
        assert grad_check(spec, ce_fn, ds) < 1e-5

    def test_gcn2_jc_on_sbm(self):
        from jcgraph.graph import gen_sbm
        ds = gen_sbm(2, 5, 0.8, 0.2, 3, 0.4, seed=3)
        assign = partition_metis_like(ds.graph, 2, seed=0)

        def jc_fn(params, z, data):
            st = cluster_stats(z, data.labels, data.masks.train, assign)
            return jc_loss(params, z, data.labels, data.masks.train, st)

        spec = ModelSpec("gcn", 2, 5, 3, 2, 0.0, "joint")
        assert grad_check(spec, jc_fn, ds) < 1e-4

    def test_constant_loss(self, sbm12):
        spec = ModelSpec("mlp", 1, 4, 3, 2, 0.0, "independent")

        def const_fn(params, z, data):
            return 1.0, np.zeros_like(z), {}

        assert grad_check(spec, const_fn, sbm12) == 0.0

    def test_rejects_dropout(self, sbm12):
        spec = ModelSpec("mlp", 1, 4, 3, 2, 0.5, "independent")
        with pytest.raises(ValueError, match="dropout"):
            grad_check(spec, ce_fn, sbm12)

    def test_rejects_large_models(self, sbm12):
        spec = ModelSpec("mlp", 3, 30, 3, 2, 0.0, "independent")
        with pytest.raises(ValueError, match="500"):
            grad_check(spec, ce_fn, sbm12)


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_adam_state(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1, t=1)
        assert (params["w"] == np.array([1.0, -2.0])).all()

    def test_first_step_hand_computed(self):
        # g=1 at t=1: m_hat = v_hat = 1, step = -lr / (1 + eps)
        params = {"w": np.array([0.0])}
        state = init_adam_state(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.1, t=1)
        np.testing.assert_allclose(params["w"], [-0.1 / (1 + 1e-8)], rtol=1e-15)

    def test_two_steps_match_replay_oracle(self):
        lr = 0.05
        g1, g2 = np.array([0.7]), np.array([-1.3])
        params = {"w": np.array([0.4])}
        state = init_adam_state(params)
        adam_step(params, {"w": g1}, state, lr=lr, t=1)
        adam_step(params, {"w": g2}, state, lr=lr, t=2)

        # independent replay of the textbook recursion at Kingma & Ba's settings
        b1, b2, eps = 0.9, 0.999, 1e-8
        w, m, v = 0.4, 0.0, 0.0
        for t, g in ((1, 0.7), (2, -1.3)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(params["w"], [w], rtol=1e-12)

    def test_weight_decay_pulls_to_zero(self):
        params = {"w": np.array([2.0])}
        state = init_adam_state(params)
        adam_step(params, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.1, t=1)
        assert params["w"][0] < 2.0

    def test_non_finite_gradients(self):
        params = {"w": np.array([1.0])}
        state = init_adam_state(params)
        with pytest.raises(NumericsError):
            adam_step(params, {"w": np.array([np.nan])}, state, lr=0.1, t=1)

    def test_bad_t(self):
        params = {"w": np.array([1.0])}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(1)}, init_adam_state(params), lr=0.1, t=0)


class TestCheckpoint:
    def test_exact_roundtrip(self, tmp_path):
        spec = ModelSpec("gcn", 2, 8, 5, 3, 0.5, "joint")
        params = init_params(spec, 123)
        save_checkpoint(tmp_path / "m.ckpt", spec, params)
        with np.load(tmp_path / "m.ckpt", allow_pickle=False) as archive:
            spec2 = ModelSpec(**{name[len("spec."):]: archive[name].item()
                                 for name in archive.files if name.startswith("spec.")})
            params2 = {name: archive[name] for name in archive.files
                       if not name.startswith("spec.")}
        assert spec2 == spec
        assert list(params2) == list(params)
        for name in params:
            assert (params2[name] == params[name]).all()


def nan_loss(params, z, data):
    return np.nan, np.zeros_like(z), {}


# each contract check's exact message
@pytest.mark.parametrize("call,error,message", [
    (lambda: ModelSpec("gcn", 2, 4, 3, 2, 0.0, "bogus"), ValueError,
     "unknown classifier 'bogus'"),
    (lambda: ModelSpec("gcn", 2, 4, 0, 2, 0.0, "independent"), ValueError,
     "dims must be positive"),
    (lambda: ModelSpec("gcn", 2, 4, 3, 2, 1.0, "independent"), ValueError,
     "dropout must be in [0, 1), got 1.0"),
    (lambda: plan_rows(ModelSpec("mlp", 1, 4, 3, 2, 0.0, "independent"), None,
                       np.zeros((5, 4)), np.arange(5)),
     ValueError, "features have shape (5, 4), spec.in_dim=3"),
    (lambda: grad_check(ModelSpec("mlp", 1, 2, 2, 2, 0.0, "independent"), nan_loss,
                        tiny_dataset()),
     NumericsError, "non-finite loss in grad_check"),
])
def test_contract_messages(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
