import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import jcgraph.losses as losses_mod
import jcgraph.trainer as train_mod
from jcgraph.attack import robustness_sweep
from jcgraph.cli import main
from jcgraph.graph import (Dataset, Graph, LabelSet, SplitMasks, gen_sbm, load_dataset,
                           normalize_adjacency, write_dataset)
from jcgraph.losses import LossResult, cluster_stats, eval_pass, jc_loss
from jcgraph.metrics import accuracy, ece, loss_gap
from jcgraph.nn import ModelSpec, encoder_forward, plan_rows
from jcgraph.partition import ClusterAssignment, partition_metis_like, write_assignment
from jcgraph.trainer import TrainConfig, TrainingError, train


def gcn_cfg(**kw):
    return TrainConfig(**{"hidden": 16, "epochs": 100, "clusters": 4, **kw})


class TestTrainLoop:
    def test_zero_epochs_runs_end_to_end(self, easy_sbm):
        r = train(gcn_cfg(epochs=0), easy_sbm)
        assert r.eval_epochs == [0]
        assert 0.0 <= r.test_acc <= 1.0

    def test_easy_sbm_ce_accuracy(self, easy_sbm):
        r = train(gcn_cfg(), easy_sbm)
        assert r.test_acc >= 0.95

    def test_easy_sbm_jc_accuracy(self, easy_sbm):
        r = train(gcn_cfg(loss="jc"), easy_sbm)
        assert r.test_acc >= 0.95

    def test_deterministic_rerun(self, easy_sbm):
        cfg = gcn_cfg(epochs=40)
        a, b = train(cfg, easy_sbm), train(cfg, easy_sbm)
        # == skips the wall-clock measurement and params
        assert a == b
        assert list(a.params) == list(b.params)
        assert all(a.params[k].tobytes() == b.params[k].tobytes() for k in a.params)

    def test_best_val_checkpoint_dominates_curve(self, easy_sbm):
        r = train(gcn_cfg(epochs=60), easy_sbm)
        best = r.val_acc[r.eval_epochs.index(r.best_val_epoch)]
        assert best >= max(r.val_acc)

    def test_train_loss_mostly_decreasing(self, easy_sbm):
        r = train(gcn_cfg(epochs=60), easy_sbm)
        diffs = np.diff(r.train_loss)
        assert (diffs <= 0).mean() >= 0.8

    def test_loss_gap_computable_from_curves(self, easy_sbm):
        r = train(gcn_cfg(epochs=30), easy_sbm)
        gap = loss_gap(r.train_loss, r.test_loss)
        assert gap.shape == (len(r.eval_epochs),)
        assert np.isfinite(gap).all()

    def test_eval_every_controls_curve_density(self, easy_sbm):
        r = train(gcn_cfg(epochs=10, eval_every=3), easy_sbm)
        assert r.eval_epochs == [3, 6, 9, 10]
        assert len(r.train_loss) == len(r.eval_epochs)

    def test_incompatible_label_kind(self, easy_sbm):
        with pytest.raises(ValueError, match="label kind"):
            train(TrainConfig(hidden=16, loss="jc-multilabel", clusters=4), easy_sbm)

    def test_label_kind_message_is_the_losses(self, sbm12_multi):
        # train's check is the loss's own: one rule, one message
        with pytest.raises(ValueError) as by_train:
            train(TrainConfig(hidden=4, loss="jc", clusters=2, epochs=1), sbm12_multi)
        with pytest.raises(ValueError) as by_loss:
            jc_loss({}, np.zeros((12, 4)), sbm12_multi.labels, sbm12_multi.masks.train)
        assert str(by_train.value) == str(by_loss.value) == (
            "jc loss does not support label kind 'm'")

    def test_unallocatable_hidden_fails_before_any_work(self, easy_sbm, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the work started before the model's size was checked")
        for name in ("normalize_adjacency", "make_partition", "plan_rows", "init_params"):
            monkeypatch.setattr(train_mod, name, never)
        # past 2**124 doubles: numpy's index range rejects the weights unallocated
        with pytest.raises(ValueError, match=r"^hidden = 4611686018427387904, layers = 2: the "
                                             r"model's weights do not fit \("):
            train(gcn_cfg(hidden=2**62, loss="jc", clusters=5), easy_sbm)

    def test_non_finite_loss_aborts_with_epoch(self, easy_sbm, monkeypatch):
        def bad_loss(params, z, labels, mask, stats=None, *, detach_cluster=False, beta=0.0):
            return LossResult(float("nan"), np.zeros_like(z),
                              {"clf_w": 0.0, "clf_b": 0.0})
        monkeypatch.setattr(train_mod.losses, "ce_loss", bad_loss)
        with pytest.raises(TrainingError, match="epoch 1"):
            train(gcn_cfg(epochs=5), easy_sbm)

    def test_empty_test_mask_rejected_before_any_work(self, easy_sbm, monkeypatch):
        masks = SplitMasks(easy_sbm.masks.train, easy_sbm.masks.val, np.array([], dtype=np.int64))
        data = Dataset(easy_sbm.graph, easy_sbm.features, easy_sbm.labels, masks)

        def never(*args, **kwargs):
            raise AssertionError("work started before the test mask was checked")
        for name in ("encoder_forward", "normalize_adjacency", "partition_metis_like"):
            monkeypatch.setattr(train_mod, name, never)
        with pytest.raises(ValueError, match="test mask is empty"):
            train(gcn_cfg(loss="jc"), data)

    def test_empty_train_mask_rejected_before_any_work(self, easy_sbm, monkeypatch):
        masks = SplitMasks(np.array([], dtype=np.int64), easy_sbm.masks.val, easy_sbm.masks.test)
        data = Dataset(easy_sbm.graph, easy_sbm.features, easy_sbm.labels, masks)
        calls = []
        for name in ("encoder_forward", "normalize_adjacency", "partition_metis_like"):
            monkeypatch.setattr(train_mod, name, lambda *a, _name=name, **kw: calls.append(_name))
        with pytest.raises(ValueError, match="train mask is empty"):
            train(gcn_cfg(loss="jc"), data)
        assert calls == []

    def test_clusters_from_file(self, easy_sbm, tmp_path):
        a = ClusterAssignment(4, np.arange(200, dtype=np.int64) % 4)
        write_assignment(tmp_path / "a.txt", a)
        cfg = gcn_cfg(loss="jc", partition="file",
                      clusters_file=str(tmp_path / "a.txt"), epochs=5)
        r = train(cfg, easy_sbm)
        assert len(r.eval_epochs) == 5

    def test_clusters_file_size_mismatch(self, easy_sbm, tmp_path):
        write_assignment(tmp_path / "a.txt", ClusterAssignment(2, np.zeros(5, dtype=np.int64)))
        cfg = gcn_cfg(loss="jc", partition="file",
                      clusters_file=str(tmp_path / "a.txt"), epochs=2)
        with pytest.raises(ValueError, match="covers"):
            train(cfg, easy_sbm)


class TestLossVariants:
    @pytest.mark.parametrize("loss", ["jc", "ic", "mixup"])
    def test_cluster_losses_learn_easy_sbm(self, easy_sbm, loss):
        r = train(gcn_cfg(loss=loss, epochs=80), easy_sbm)
        assert r.test_acc >= 0.9

    def test_multilabel_end_to_end(self, sbm12_multi):
        cfg = TrainConfig("mlp", 1, 8, 0.0, loss="jc-multilabel", epochs=40, clusters=2, seed=1)
        r = train(cfg, sbm12_multi)
        assert np.isnan(r.test_ece)  # single-label metric
        assert 0.0 <= r.test_f1_micro <= 1.0

    def test_detach_cluster_changes_training(self, easy_sbm):
        base = gcn_cfg(loss="jc", epochs=20, dropout=0.0)
        cfg_d = gcn_cfg(loss="jc", epochs=20, dropout=0.0, detach_cluster=True)
        a, b = train(base, easy_sbm), train(cfg_d, easy_sbm)
        assert a.train_loss != b.train_loss

    def test_mlp_jc_beats_ce_on_weak_features(self, hard_feature_sbm):
        # structure is strong but features are noisy: the cluster reference
        # signal carries the mlp far beyond plain cross-entropy
        cfg = TrainConfig("mlp", 2, 16, 0.5, epochs=150, clusters=4)
        ce, jc = robustness_sweep(hard_feature_sbm, [0.0], cfg, 3)
        assert jc.mean_acc >= ce.mean_acc + 0.15

    def test_degenerate_singleton_clusters_match_ce_argmax(self, tmp_path):
        # every node its own cluster on a separable toy: both objectives
        # recover the same (perfect) labeling after convergence
        data = gen_sbm(2, 12, 0.5, 0.05, 4, 0.2, seed=6)
        write_assignment(tmp_path / "self.txt",
                         ClusterAssignment(24, np.arange(24, dtype=np.int64)))
        cfg = TrainConfig("mlp", 1, 8, 0.0, epochs=250)
        r_ce = train(cfg, data)
        r_jc = train(replace(cfg, loss="jc", partition="file",
                             clusters_file=str(tmp_path / "self.txt"), clusters=24), data)
        assert r_ce.test_acc == 1.0
        assert r_jc.test_acc == 1.0


def test_checkpoint_reproduces_the_result(easy_sbm, tmp_path):
    # the .ckpt's spec is the run's, and its parameters, run through
    # training's eval by hand, give the test metrics of the .result bit for bit
    write_dataset(tmp_path / "data", easy_sbm)
    (tmp_path / "run.cfg").write_text(f"dataset = {tmp_path / 'data'}\nout = {tmp_path / 'run'}\n"
                                      "loss = jc\npartition = metis-like\nclusters = 4\n"
                                      "hidden = 16\nepochs = 30\nseed = 3\n")
    assert main(["train", str(tmp_path / "run.cfg")]) == 0
    data = load_dataset(tmp_path / "data")
    with np.load(tmp_path / "run.ckpt", allow_pickle=False) as archive:
        params = {name: archive[name] for name in archive.files}
    spec = ModelSpec(**{f.name: params.pop(f"spec.{f.name}").item() for f in fields(ModelSpec)})
    assert spec == train_mod.validate(TrainConfig(loss="jc", partition="metis-like", clusters=4,
                                                  hidden=16, epochs=30, seed=3), data)
    splits = [data.masks.train, data.masks.val, data.masks.test]
    cut, = plan_rows(spec, normalize_adjacency(data.graph), data.features, np.concatenate(splits))
    z, _ = encoder_forward(params, cut)
    # the embeddings are the block of the eval rows: labels, clusters and
    # masks are indexed by position in it
    rows = cut.rows[-1]
    at = [np.searchsorted(rows, s) for s in splits]
    labels = LabelSet(data.labels.num_classes, data.labels.kind, data.labels.matrix[rows])
    assign = partition_metis_like(data.graph, 4, 3)
    stats = cluster_stats(z, labels, at[0], ClusterAssignment(4, assign.assign[rows]))
    probs, _ = eval_pass("jc", params, z, labels, at, stats)
    p, y = probs[2], data.labels.class_index()[data.masks.test]
    result = (tmp_path / "run.result").read_text().splitlines()
    assert f"test_acc = {accuracy(p, y)!r}" in result
    assert f"test_ece = {ece(p, y)!r}" in result


def large_sparse_split(n=40_000, seed=0):
    """A ring with n // 2 random chords, 4 features and 3 classes, with
    20/20/40 split nodes: the splits' receptive fields are a few % of n."""
    rng = np.random.default_rng(seed)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = rng.integers(0, n, size=(n // 2, 2))
    pairs = np.concatenate([ring, chords[chords[:, 0] != chords[:, 1]]])
    labels = LabelSet(3, "s", np.eye(3)[rng.integers(0, 3, n)])
    split = rng.choice(n, size=80, replace=False)
    masks = SplitMasks(np.sort(split[:20]), np.sort(split[20:40]), np.sort(split[40:]))
    return Dataset(Graph.from_undirected_pairs(n, pairs), rng.normal(size=(n, 4)), labels, masks)


@pytest.mark.parametrize("loss", ["ce", "jc"])
@pytest.mark.parametrize("encoder", ["gcn", "mlp", "sgc"])
def test_no_epoch_allocates_an_n_row_array(monkeypatch, encoder, loss):
    # every epoch array is a block of its plan's rows: from the first train
    # step on, the traced peak stays far below one n x embed_dim array
    data = large_sparse_split()
    cfg = TrainConfig(encoder, loss=loss, partition="random", clusters=8, epochs=3)
    embed_dim = train_mod.validate(cfg, data).embed_dim
    inner, base = train_mod.encoder_forward, []

    def first_step_resets_peak(params, plan, train_mode=False, seed=0):
        if train_mode and not base:
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
        return inner(params, plan, train_mode, seed)
    monkeypatch.setattr(train_mod, "encoder_forward", first_step_resets_peak)
    tracemalloc.start()
    try:
        train(cfg, data)
        peak = tracemalloc.get_traced_memory()[1] - base[0]
    finally:
        tracemalloc.stop()
    assert peak < data.num_nodes * embed_dim * 8 / 4


@pytest.mark.parametrize("encoder", ["gcn", "mlp", "sgc"])
def test_train_cuts_both_plans_in_one_call(monkeypatch, easy_sbm, encoder):
    # one plan_rows call with the train rows and the split union, none with
    # every row: the splits here leave most nodes out
    masks = SplitMasks(easy_sbm.masks.train[:8], easy_sbm.masks.val[:8], easy_sbm.masks.test[:16])
    data = Dataset(easy_sbm.graph, easy_sbm.features, easy_sbm.labels, masks)
    calls = []

    def recorded(spec, adj, x, *targets):
        calls.append(targets)
        return plan_rows(spec, adj, x, *targets)
    monkeypatch.setattr(train_mod, "plan_rows", recorded)
    train(TrainConfig(encoder, hidden=16, loss="jc", clusters=4, epochs=2), data)
    (train_rows, eval_rows), = calls
    assert np.asarray(train_rows).tobytes() == masks.train.tobytes()
    assert sorted(eval_rows) == sorted(np.concatenate([masks.train, masks.val, masks.test]))


@pytest.mark.parametrize("encoder", ["gcn", "mlp", "sgc"])
def test_no_tape_outlives_its_pass(monkeypatch, easy_sbm, encoder):
    # the train step's tape and the eval's own are released before the eval
    # scores the splits, so neither adds to an epoch's peak memory
    inner_forward, inner_eval, tapes, dead = train_mod.encoder_forward, losses_mod.eval_pass, [], []

    def forward(*args, **kwargs):
        z, tape = inner_forward(*args, **kwargs)
        tapes.append(weakref.ref(tape))
        return z, tape

    def eval_pass(*args, **kwargs):
        dead.append([ref() is None for ref in tapes])
        return inner_eval(*args, **kwargs)
    monkeypatch.setattr(train_mod, "encoder_forward", forward)
    monkeypatch.setattr(losses_mod, "eval_pass", eval_pass)
    train(TrainConfig(encoder, hidden=16, loss="jc", clusters=4, epochs=3), easy_sbm)
    # each epoch adds a step's tape and an eval's
    assert dead == [[True] * 2 * epoch for epoch in (1, 2, 3)]
