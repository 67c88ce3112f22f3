import tracemalloc

import numpy as np
import pytest

import jcgraph.trainer as train_mod
from jcgraph.cli import main
from jcgraph.graph import (Dataset, Graph, LabelSet, SplitMasks, gen_sbm, load_dataset,
                           normalize_adjacency, write_dataset)
from jcgraph.losses import LossResult, cluster_stats, eval_pass
from jcgraph.metrics import accuracy, ece, loss_gap
from jcgraph.nn import ModelSpec, encoder_forward, load_checkpoint, plan_rows
from jcgraph.partition import ClusterAssignment, partition_metis_like, write_assignment
from jcgraph.trainer import TrainConfig, TrainingError, multi_seed, train


def gcn_cfg(data, loss="ce", **kw):
    classifier = train_mod.LOSS_KINDS[loss][0]
    spec = ModelSpec("gcn", 2, 16, data.features.shape[1], data.labels.num_classes,
                     kw.pop("dropout", 0.5), classifier)
    defaults = dict(loss=loss, epochs=100, seed=0, clusters=4)
    defaults.update(kw)
    return TrainConfig(spec=spec, **defaults)


class TestTrainLoop:
    def test_zero_epochs_runs_end_to_end(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm, epochs=0), easy_sbm)
        assert r.eval_epochs == [0]
        assert 0.0 <= r.test_acc <= 1.0

    def test_easy_sbm_ce_accuracy(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm), easy_sbm)
        assert r.test_acc >= 0.95

    def test_easy_sbm_jc_accuracy(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm, loss="jc"), easy_sbm)
        assert r.test_acc >= 0.95

    def test_deterministic_rerun(self, easy_sbm):
        cfg = gcn_cfg(easy_sbm, epochs=40)
        a, b = train(cfg, easy_sbm), train(cfg, easy_sbm)
        # bit-identical apart from the wall-clock measurement; == skips params
        b.seconds_per_epoch = a.seconds_per_epoch
        assert a == b
        assert list(a.params) == list(b.params)
        assert all(a.params[k].tobytes() == b.params[k].tobytes() for k in a.params)

    def test_best_val_checkpoint_dominates_curve(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm, epochs=60), easy_sbm)
        best = r.val_acc[r.eval_epochs.index(r.best_val_epoch)]
        assert best >= max(r.val_acc)

    def test_train_loss_mostly_decreasing(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm, epochs=60), easy_sbm)
        diffs = np.diff(r.train_loss)
        assert (diffs <= 0).mean() >= 0.8

    def test_loss_gap_computable_from_curves(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm, epochs=30), easy_sbm)
        gap = loss_gap(r.train_loss, r.test_loss)
        assert gap.shape == (len(r.eval_epochs),)
        assert np.isfinite(gap).all()

    def test_eval_every_controls_curve_density(self, easy_sbm):
        r = train(gcn_cfg(easy_sbm, epochs=10, eval_every=3), easy_sbm)
        assert r.eval_epochs == [3, 6, 9, 10]
        assert len(r.train_loss) == len(r.eval_epochs)

    def test_incompatible_loss_and_classifier(self, easy_sbm):
        spec = ModelSpec("gcn", 2, 16, 8, 4, 0.5, "independent")
        with pytest.raises(ValueError, match="classifier"):
            train(TrainConfig(spec=spec, loss="jc", clusters=4), easy_sbm)

    def test_incompatible_label_kind(self, easy_sbm):
        spec = ModelSpec("gcn", 2, 16, 8, 4, 0.5, "joint-multilabel")
        with pytest.raises(ValueError, match="label kind"):
            train(TrainConfig(spec=spec, loss="jc-multilabel", clusters=4), easy_sbm)

    def test_non_finite_loss_aborts_with_epoch(self, easy_sbm, monkeypatch):
        def bad_loss(params, z, labels, mask, stats=None, *, detach_cluster=False, beta=0.0):
            return LossResult(float("nan"), np.zeros_like(z),
                              {"clf_w": 0.0, "clf_b": 0.0})
        monkeypatch.setattr(train_mod.losses, "ce_loss", bad_loss)
        with pytest.raises(TrainingError, match="epoch 1"):
            train(gcn_cfg(easy_sbm, epochs=5), easy_sbm)

    def test_empty_test_mask_rejected_before_any_work(self, easy_sbm, monkeypatch):
        masks = SplitMasks(easy_sbm.masks.train, easy_sbm.masks.val, np.array([], dtype=np.int64))
        data = Dataset(easy_sbm.graph, easy_sbm.features, easy_sbm.labels, masks)

        def never(*args, **kwargs):
            raise AssertionError("work started before the test mask was checked")
        for name in ("encoder_forward", "normalize_adjacency", "partition_metis_like"):
            monkeypatch.setattr(train_mod, name, never)
        with pytest.raises(ValueError, match="test mask is empty"):
            train(gcn_cfg(data, loss="jc"), data)

    def test_empty_train_mask_rejected_before_any_work(self, easy_sbm, monkeypatch):
        masks = SplitMasks(np.array([], dtype=np.int64), easy_sbm.masks.val, easy_sbm.masks.test)
        data = Dataset(easy_sbm.graph, easy_sbm.features, easy_sbm.labels, masks)
        calls = []
        for name in ("encoder_forward", "normalize_adjacency", "partition_metis_like"):
            monkeypatch.setattr(train_mod, name, lambda *a, _name=name, **kw: calls.append(_name))
        with pytest.raises(ValueError, match="train mask is empty"):
            train(gcn_cfg(data, loss="jc"), data)
        assert calls == []

    def test_clusters_from_file(self, easy_sbm, tmp_path):
        a = ClusterAssignment(4, np.arange(200, dtype=np.int64) % 4)
        write_assignment(tmp_path / "a.txt", a)
        cfg = gcn_cfg(easy_sbm, loss="jc", partition="file",
                      clusters_file=str(tmp_path / "a.txt"), epochs=5)
        r = train(cfg, easy_sbm)
        assert len(r.eval_epochs) == 5

    def test_clusters_file_size_mismatch(self, easy_sbm, tmp_path):
        write_assignment(tmp_path / "a.txt", ClusterAssignment(2, np.zeros(5, dtype=np.int64)))
        cfg = gcn_cfg(easy_sbm, loss="jc", partition="file",
                      clusters_file=str(tmp_path / "a.txt"), epochs=2)
        with pytest.raises(ValueError, match="covers"):
            train(cfg, easy_sbm)


class TestLossVariants:
    @pytest.mark.parametrize("loss", ["jc", "ic", "mixup"])
    def test_cluster_losses_learn_easy_sbm(self, easy_sbm, loss):
        r = train(gcn_cfg(easy_sbm, loss=loss, epochs=80), easy_sbm)
        assert r.test_acc >= 0.9

    def test_multilabel_end_to_end(self, sbm12_multi):
        spec = ModelSpec("mlp", 1, 8, 3, 2, 0.0, "joint-multilabel")
        cfg = TrainConfig(spec=spec, loss="jc-multilabel", epochs=40,
                          clusters=2, seed=1)
        r = train(cfg, sbm12_multi)
        assert np.isnan(r.test_ece)  # single-label metric
        assert 0.0 <= r.test_f1_micro <= 1.0

    def test_detach_cluster_changes_training(self, easy_sbm):
        base = gcn_cfg(easy_sbm, loss="jc", epochs=20, dropout=0.0)
        cfg_d = gcn_cfg(easy_sbm, loss="jc", epochs=20, dropout=0.0, detach_cluster=True)
        a, b = train(base, easy_sbm), train(cfg_d, easy_sbm)
        assert a.train_loss != b.train_loss

    def test_mlp_jc_beats_ce_on_weak_features(self, hard_feature_sbm):
        # structure is strong but features are noisy: the cluster reference
        # signal carries the mlp far beyond plain cross-entropy
        def mlp_cfg(loss):
            classifier = train_mod.LOSS_KINDS[loss][0]
            spec = ModelSpec("mlp", 2, 16, 8, 4, 0.5, classifier)
            return TrainConfig(spec=spec, loss=loss, epochs=150, seed=0, clusters=4)

        ce = multi_seed(mlp_cfg("ce"), hard_feature_sbm, 3)
        jc = multi_seed(mlp_cfg("jc"), hard_feature_sbm, 3)
        assert jc.metrics["test_acc"][0] >= ce.metrics["test_acc"][0] + 0.15

    def test_degenerate_singleton_clusters_match_ce_argmax(self, tmp_path):
        # every node its own cluster on a separable toy: both objectives
        # recover the same (perfect) labeling after convergence
        data = gen_sbm(2, 12, 0.5, 0.05, 4, 0.2, seed=6)
        write_assignment(tmp_path / "self.txt",
                         ClusterAssignment(24, np.arange(24, dtype=np.int64)))
        spec_ce = ModelSpec("mlp", 1, 8, 4, 2, 0.0, "independent")
        spec_jc = ModelSpec("mlp", 1, 8, 4, 2, 0.0, "joint")
        r_ce = train(TrainConfig(spec=spec_ce, loss="ce", epochs=250, seed=0), data)
        r_jc = train(TrainConfig(spec=spec_jc, loss="jc", partition="file",
                                 clusters_file=str(tmp_path / "self.txt"),
                                 clusters=24, epochs=250, seed=0), data)
        assert r_ce.test_acc == 1.0
        assert r_jc.test_acc == 1.0


def test_checkpoint_reproduces_the_result(easy_sbm, tmp_path):
    # the .ckpt's parameters, run through training's eval by hand, give the
    # test metrics of the .result bit for bit
    write_dataset(tmp_path / "data", easy_sbm)
    (tmp_path / "run.cfg").write_text(f"dataset = {tmp_path / 'data'}\nout = {tmp_path / 'run'}\n"
                                      "loss = jc\npartition = metis-like\nclusters = 4\n"
                                      "hidden = 16\nepochs = 30\nseed = 3\n")
    assert main(["train", str(tmp_path / "run.cfg")]) == 0
    data = load_dataset(tmp_path / "data")
    spec, params = load_checkpoint(tmp_path / "run.ckpt")
    splits = [data.masks.train, data.masks.val, data.masks.test]
    plan = plan_rows(spec, normalize_adjacency(data.graph), data.features)
    cut = plan.restrict(np.concatenate(splits))
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
def test_no_epoch_allocates_an_n_row_array(monkeypatch, loss):
    # every epoch array is a block of its plan's rows: from the first train
    # step on, the traced peak stays far below one n x hidden array
    data = large_sparse_split()
    spec = ModelSpec("gcn", 2, 64, 4, 3, 0.5, train_mod.LOSS_KINDS[loss].classifier)
    inner, base = train_mod.encoder_forward, []

    def first_step_resets_peak(params, plan, train_mode=False, seed=0):
        if train_mode and not base:
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
        return inner(params, plan, train_mode, seed)
    monkeypatch.setattr(train_mod, "encoder_forward", first_step_resets_peak)
    tracemalloc.start()
    try:
        train(TrainConfig(spec=spec, loss=loss, partition="random", clusters=8, epochs=3), data)
        peak = tracemalloc.get_traced_memory()[1] - base[0]
    finally:
        tracemalloc.stop()
    assert peak < data.num_nodes * spec.hidden * 8 / 4


class TestMultiSeed:
    def test_single_seed_zero_std(self, easy_sbm):
        out = multi_seed(gcn_cfg(easy_sbm, epochs=10), easy_sbm, 1)
        assert out.metrics["test_acc"][1] == 0.0

    def test_repeat_identical(self, easy_sbm):
        cfg = gcn_cfg(easy_sbm, epochs=10)
        a = multi_seed(cfg, easy_sbm, 2)
        b = multi_seed(cfg, easy_sbm, 2)
        assert a.metrics == b.metrics

    def test_population_std(self, easy_sbm):
        out = multi_seed(gcn_cfg(easy_sbm, epochs=10), easy_sbm, 3)
        accs = [r.test_acc for r in out.results]
        assert out.metrics["test_acc"][1] == pytest.approx(np.std(accs))

    def test_k_must_be_positive(self, easy_sbm):
        with pytest.raises(ValueError):
            multi_seed(gcn_cfg(easy_sbm), easy_sbm, 0)

    def test_errors_tagged_with_seed(self, easy_sbm, monkeypatch):
        orig = train_mod.train

        def fail_on_seed_one(cfg, data):
            if cfg.seed == 1:
                raise TrainingError("non-finite loss at epoch 7", epoch=7)
            return orig(cfg, data)

        monkeypatch.setattr(train_mod, "train", fail_on_seed_one)
        with pytest.raises(TrainingError, match="seed 1"):
            multi_seed(gcn_cfg(easy_sbm, epochs=1), easy_sbm, 3)
