import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jcgraph.nn as nn_mod
from jcgraph.cli import main
from jcgraph.graph import load_dataset
from jcgraph.partition import read_assignment
from jcgraph.trainer import TrainingError, make_partition


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sbm"
    rc = main(["gen-sbm", "--blocks", "3", "--nodes-per-block", "20",
               "--p-in", "0.25", "--p-out", "0.02", "--feat-dim", "6",
               "--feat-noise", "0.5", "--seed", "4", "--out", str(out)])
    assert rc == 0
    return out


def forbid_load(monkeypatch):
    """Fail the test if the dataset loads: a key rule that reads no data runs first."""
    import jcgraph.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the dataset loaded before the config was checked")
    monkeypatch.setattr(cli_mod, "load_dataset", never)


def write_config(path, dataset, out, **kv):
    lines = [f"dataset = {dataset}", f"out = {out}"]
    lines += [f"{k} = {v}" for k, v in kv.items()]
    Path(path).write_text("\n".join(lines) + "\n")
    return path


class TestGenSbm:
    def test_output_loadable(self, sbm_dir):
        ds = load_dataset(sbm_dir)
        assert ds.num_nodes == 60

    def test_two_seeds_differ(self, tmp_path):
        for seed in ("1", "2"):
            assert main(["gen-sbm", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        a = (tmp_path / "1" / "graph.txt").read_bytes()
        b = (tmp_path / "2" / "graph.txt").read_bytes()
        assert a != b

    def test_bad_probabilities_exit_2(self, tmp_path, capsys):
        rc = main(["gen-sbm", "--p-in", "0.01", "--p-out", "0.2",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_failed_draw_makes_no_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["gen-sbm", "--p-in", "0.01", "--p-out", "0.2", "--out", "new/dir/x"])
        assert rc == 2
        assert capsys.readouterr().err == "error: need 0 <= p_out < p_in <= 1\n"
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1", "1e308"])
    def test_bad_feat_noise_exit_2(self, tmp_path, capsys, noise):
        rc = main(["gen-sbm", "--feat-noise", noise, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error: feat_noise" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    def test_unallocatable_draw_exit_2(self, tmp_path, monkeypatch, capsys):
        import jcgraph.graph as graph_mod
        rng = graph_mod.np.random.default_rng

        class NoRoom:  # draws the features, then fails as numpy does for a 400000 x 400000 draw
            def __init__(self, seed):
                self.normal = rng(seed).normal

            def random(self, size):
                raise MemoryError("Unable to allocate 1.16 TiB")
        monkeypatch.setattr(graph_mod.np.random, "default_rng", NoRoom)
        rc = main(["gen-sbm", "--nodes-per-block", "20", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: nodes_per_block = 20: the n x n edge draw of "
                                           "n = 80 nodes does not fit (Unable to allocate 1.16 "
                                           "TiB)\n")
        assert not (tmp_path / "x").exists()

    def test_unallocatable_features_exit_2(self, tmp_path, monkeypatch, capsys):
        import jcgraph.graph as graph_mod

        class NoRoom:  # what numpy raises for the 4 x 10^12 centroid draw
            def __init__(self, seed):
                pass

            def normal(self, size):
                raise MemoryError("Unable to allocate 29.1 TiB")
        monkeypatch.setattr(graph_mod.np.random, "default_rng", NoRoom)
        rc = main(["gen-sbm", "--feat-dim", "1000000000000", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: feat_dim = 1000000000000: the 200 x 1000000000000 "
                              "feature table does not fit (Unable to allocate")
        assert "nodes-per-block" not in err
        assert not (tmp_path / "x").exists()


class TestPartitionCmd:
    def test_two_clique_toy(self, tmp_path, capsys):
        # two disjoint cliques: metis-like finds the zero cut
        from jcgraph.graph import Dataset, Graph, LabelSet, SplitMasks, write_dataset
        import numpy as np
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges]
        g = Graph.from_undirected_pairs(8, edges)
        mat = np.zeros((8, 2))
        mat[np.arange(8), np.arange(8) // 4] = 1
        ds = Dataset(g, np.eye(8), LabelSet(2, "s", mat),
                     SplitMasks(np.arange(4), np.array([], int), np.arange(4, 8)))
        write_dataset(tmp_path / "toy", ds)
        rc = main(["partition", "--dataset", str(tmp_path / "toy"), "--clusters", "2",
                   "--seed", "0", "--out", str(tmp_path / "assign.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "between=0" in out
        assert (tmp_path / "assign.txt").read_text().splitlines()[0] == "8 2"

    def test_single_cluster_between_zero(self, sbm_dir, tmp_path, capsys):
        rc = main(["partition", "--dataset", str(sbm_dir), "--clusters", "1",
                   "--out", str(tmp_path / "a.txt")])
        assert rc == 0
        assert "between=0" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["metis-like", "kmeans", "random"])
    def test_method_matches_make_partition(self, sbm_dir, tmp_path, method):
        rc = main(["partition", "--dataset", str(sbm_dir), "--method", method,
                   "--clusters", "3", "--seed", "2", "--out", str(tmp_path / "a.txt")])
        assert rc == 0
        expected = make_partition(method, load_dataset(sbm_dir), 3, 2)
        written = read_assignment(tmp_path / "a.txt")
        assert written.num_clusters == expected.num_clusters
        assert (written.assign == expected.assign).all()

    def test_bad_m_exit_2(self, sbm_dir, tmp_path, capsys):
        # the dataset has 60 nodes, and no method makes more clusters than nodes
        for method, m in (("metis-like", "0"), ("metis-like", "100"),
                          ("random", "1000000000000")):
            rc = main(["partition", "--dataset", str(sbm_dir), "--method", method,
                       "--clusters", m, "--out", str(tmp_path / "a.txt")])
            assert rc == 2
            assert "error: --clusters" in capsys.readouterr().err
            assert not (tmp_path / "a.txt").exists()


class TestTrainCmd:
    def test_end_to_end_outputs(self, sbm_dir, tmp_path, capsys):
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "run",
                            loss="jc", clusters=3, epochs=20, hidden=8, seed=1)
        rc = main(["train", str(cfgf)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("test_acc=")
        assert "f1_micro=" in out and "ece=" in out
        result = (tmp_path / "run.result").read_text()
        assert "config.loss = jc" in result
        assert "test_acc = " in result
        curves = (tmp_path / "run.curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,train_loss,val_loss,test_loss,val_acc"
        assert len(curves) == 21
        assert (tmp_path / "run.ckpt").is_file()

    def test_flag_overrides_config(self, sbm_dir, tmp_path):
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "a",
                            epochs=50, hidden=8)
        rc = main(["train", str(cfgf), "--epochs", "3", "--out", str(tmp_path / "b")])
        assert rc == 0
        assert "config.epochs = 3" in (tmp_path / "b.result").read_text()

    def test_byte_identical_rerun(self, sbm_dir, tmp_path):
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r1",
                            loss="jc", clusters=3, epochs=10, hidden=8)
        assert main(["train", str(cfgf)]) == 0
        assert main(["train", str(cfgf), "--out", str(tmp_path / "r2")]) == 0
        for suffix in (".result", ".curves.csv", ".ckpt"):
            a = Path(f"{tmp_path}/r1{suffix}")
            b = Path(f"{tmp_path}/r2{suffix}")
            assert a.read_bytes() == b.read_bytes()

    def test_ce_vs_jc_config_delta(self, sbm_dir, tmp_path):
        for loss in ("ce", "jc"):
            cfgf = write_config(tmp_path / f"{loss}.cfg", sbm_dir, tmp_path / loss,
                                loss=loss, clusters=3, epochs=5, hidden=8)
            assert main(["train", str(cfgf)]) == 0
        a = (tmp_path / "ce.result").read_text()
        b = (tmp_path / "jc.result").read_text()
        a_keys = {l.split(" = ")[0] for l in a.splitlines()}
        b_keys = {l.split(" = ")[0] for l in b.splitlines()}
        assert a_keys == b_keys

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        cfgf = write_config(tmp_path / "run.cfg", tmp_path / "nowhere", tmp_path / "r")
        assert main(["train", str(cfgf)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, sbm_dir, tmp_path, capsys):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text(f"dataset = {sbm_dir}\nbogus_key = 1\n")
        assert main(["train", str(cfgf)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_duplicate_config_key_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys):
        import jcgraph.cli as cli_mod
        def never(*args, **kwargs):
            raise AssertionError("the dataset was loaded before the config was checked")
        monkeypatch.setattr(cli_mod, "load_dataset", never)
        cfgf = tmp_path / "dup.cfg"
        cfgf.write_text(f"loss = jc\ndataset = {sbm_dir}\nout = {tmp_path / 'r'}\nloss = ce\n")
        assert main(["train", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfgf}:4: duplicate key 'loss' (first set on line 1)" in err
        assert not (tmp_path / "r.result").exists()

    @pytest.mark.parametrize("flag,value", [("--epochs", "1.5"), ("--hidden", "x"),
                                            ("--lr", "fast"), ("--dropout", ""),
                                            ("--detach-cluster", "maybe")])
    def test_bad_flag_value_names_the_flag(self, sbm_dir, tmp_path, capsys, flag, value):
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", epochs=3, hidden=8)
        assert main(["train", str(cfgf), flag, value]) == 2
        assert f"error: bad value for {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "r.result").exists()

    @pytest.mark.parametrize("flag,value,key", [("--eval-every", "0", "eval_every"),
                                                ("--epochs", "-1", "epochs"),
                                                ("--lr", "-1", "lr"),
                                                ("--lr", "0", "lr"),
                                                ("--lr", "nan", "lr"),
                                                ("--weight-decay", "-1", "weight_decay"),
                                                ("--weight-decay", "nan", "weight_decay"),
                                                ("--beta", "nan", "beta"),
                                                ("--clusters", "0", "clusters"),
                                                ("--clusters", "100", "clusters"),
                                                ("--hidden", "0", "hidden"),
                                                ("--layers", "0", "layers"),
                                                ("--dropout", "1.0", "dropout")])
    def test_bad_epoch_counts_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys,
                                     flag, value, key):
        import jcgraph.attack as attack_mod

        def never(*args, **kwargs):
            raise AssertionError("train ran before the config was checked")
        monkeypatch.setattr(attack_mod, "train", never)
        if key != "clusters":  # the only rule here that reads the dataset: clusters <= n
            forbid_load(monkeypatch)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            clusters=3, epochs=3, hidden=8)
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for argv in (["train", str(cfgf)], ["attack", str(cfgf)] + sweep):
            assert main(argv + [flag, value]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and key in err
        assert not (tmp_path / "r.result").exists()
        assert not (tmp_path / "sweep.csv").exists()

    # a key's rule holds whether or not the run reads it: sgc has no hidden
    # layer, and ce reads no clusters
    @pytest.mark.parametrize("command,flags,message", [
        ("train", ["--encoder", "sgc", "--hidden", "-5"], "hidden must be >= 1, got -5"),
        ("attack", ["--encoder", "sgc", "--hidden", "-5"], "hidden must be >= 1, got -5"),
        ("train", ["--loss", "ce", "--clusters", "-3"],
         "clusters must be in 1 .. the dataset's 60 nodes, got -3"),
    ], ids=["train-sgc-hidden", "attack-sgc-hidden", "train-ce-clusters"])
    def test_key_the_run_does_not_read_is_checked_exit_2(self, sbm_dir, tmp_path, monkeypatch,
                                                         capsys, command, flags, message):
        import jcgraph.trainer as train_mod

        def never(*args, **kwargs):
            raise AssertionError("an epoch ran before the config was checked")
        monkeypatch.setattr(train_mod, "encoder_forward", never)
        if "--hidden" in flags:
            forbid_load(monkeypatch)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            clusters=3, epochs=3, hidden=8)
        out = tmp_path / ("sweep.csv" if command == "attack" else "r")
        assert main(_command(command, sbm_dir, cfgf, out) + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("key,message", [("encoder", "unknown encoder 'nosuch'"),
                                             ("loss", "unknown loss 'nosuch'"),
                                             ("partition", "unknown partition method 'nosuch'")])
    def test_unknown_name_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys, key, message):
        forbid_load(monkeypatch)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", epochs=3, hidden=8)
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for argv in (["train", str(cfgf)], ["attack", str(cfgf)] + sweep):
            assert main(argv + [f"--{key}", "nosuch"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_config_echo_lines(self, sbm_dir, tmp_path):
        # every echoed key away from its default; the text is that of the
        # implementation with one hand-written line per key
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", encoder="mlp",
                            layers=3, hidden=16, dropout=0.25, loss="ic", partition="random",
                            clusters=4, lr=0.02, weight_decay=1e-05, epochs=2, eval_every=2,
                            seed=3, detach_cluster="true", beta=2.5)
        assert main(["train", str(cfgf)]) == 0
        assert main(["train", str(write_config(tmp_path / "d.cfg", sbm_dir, tmp_path / "d")),
                     "--epochs", "0"]) == 0
        lines = (tmp_path / "r.result").read_text().splitlines()[:15]
        assert lines == [
            "config.encoder = mlp", "config.layers = 3", "config.hidden = 16",
            "config.dropout = 0.25", "config.classifier = in-context", "config.loss = ic",
            "config.partition = random", "config.clusters = 4", "config.lr = 0.02",
            "config.weight_decay = 1e-05", "config.epochs = 2", "config.eval_every = 2",
            "config.seed = 3", "config.detach_cluster = true", "config.beta = 2.5"]
        lines = (tmp_path / "d.result").read_text().splitlines()[:15]
        assert lines == [
            "config.encoder = gcn", "config.layers = 2", "config.hidden = 64",
            "config.dropout = 0.5", "config.classifier = independent", "config.loss = ce",
            "config.partition = metis-like", "config.clusters = 1", "config.lr = 0.01",
            "config.weight_decay = 0.0005", "config.epochs = 0", "config.eval_every = 1",
            "config.seed = 0", "config.detach_cluster = false", "config.beta = 1.0"]

    def test_bad_clusters_file_exit_2(self, sbm_dir, tmp_path, capsys):
        clusters = tmp_path / "a.txt"
        clusters.write_text("60 3\n" + "0\n" * 59 + "3\n")
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "new" / "r", loss="jc",
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        assert main(["train", str(cfgf)]) == 2
        assert f"error: {clusters}:61: cluster id 3 out of range" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("m", ["1000000000000", "0", "-1"])
    def test_clusters_file_with_m_outside_1_to_n_exit_2(self, sbm_dir, tmp_path, capsys, m):
        clusters = tmp_path / "a.txt"
        clusters.write_text(f"60 {m}\n" + "0\n" * 60)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        assert main(["train", str(cfgf)]) == 2
        assert capsys.readouterr().err == (f"error: {clusters}:1: bad header n=60 m={m}: "
                                           "need 1 <= m <= n\n")
        assert not (tmp_path / "r.result").exists()

    def test_random_clusters_above_n_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys):
        # the --clusters 100 row above covers metis-like
        import jcgraph.trainer as train_mod

        def never(*args, **kwargs):
            raise AssertionError("an epoch ran before the config was checked")
        monkeypatch.setattr(train_mod, "encoder_forward", never)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="random", clusters=1000000000000, epochs=3, hidden=8)
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for argv in (["train", str(cfgf)], ["attack", str(cfgf)] + sweep):
            assert main(argv) == 2
            assert capsys.readouterr().err == ("error: clusters must be in 1 .. the dataset's 60 "
                                               "nodes, got 1000000000000\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("hidden,layers,size", [
        (10**12, 2, None),
        (8, 2**63, None),
        (8, 2**40, (70368744177801, 70368744177675)),  # jc's model, and ce's for attack
    ], ids=["hidden", "layers-past-index-range", "layers-out-of-memory"])
    def test_unallocatable_model_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys, hidden,
                                        layers, size):
        # all of the model's weights must fit before the plan, any weight or any attack is built;
        # attack checks ce's run first
        import jcgraph.attack as attack_mod
        import jcgraph.trainer as train_mod

        def never(*args, **kwargs):
            raise AssertionError("the work started before the model's size was checked")
        for name in ("plan_rows", "init_params", "make_partition"):
            monkeypatch.setattr(train_mod, name, never)
        monkeypatch.setattr(attack_mod, "random_attack", never)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            clusters=3, epochs=3, hidden=hidden)
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for i, argv in enumerate((["train", str(cfgf)], ["attack", str(cfgf)] + sweep)):
            cause = ("Maximum allowed dimension exceeded" if size is None else
                     f"Unable to allocate 512. TiB for an array with shape ({size[i]},) and "
                     f"data type float64")
            assert main(argv + ["--layers", str(layers)]) == 2
            assert capsys.readouterr().err == (f"error: hidden = {hidden}, layers = {layers}: "
                                               f"the model's weights do not fit ({cause})\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_file_partition_without_clusters_file_exit_2(self, sbm_dir, tmp_path, capsys,
                                                         monkeypatch):
        forbid_load(monkeypatch)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters=3, epochs=3, hidden=8)
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for argv in (["train", str(cfgf)], ["attack", str(cfgf)] + sweep):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: partition method 'file' needs clusters_file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("partition", ["metis-like", "kmeans", "random"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_clusters_file_for_another_partition_exit_2(self, sbm_dir, tmp_path, monkeypatch,
                                                        capsys, partition, where):
        forbid_load(monkeypatch)
        missing = tmp_path / "nope.txt"
        extra = {"clusters_file": missing} if where == "config" else {}
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition=partition, clusters=3, epochs=3, hidden=8, **extra)
        flag = ["--clusters-file", str(missing)] if where == "flag" else []
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for argv in (["train", str(cfgf)], ["attack", str(cfgf)] + sweep):
            assert main(argv + flag) == 2
            err = capsys.readouterr().err
            assert err == ("error: clusters_file is read by partition method 'file' only, "
                           f"got partition {partition!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_runtime_failure_exit_1(self, sbm_dir, tmp_path, monkeypatch):
        import jcgraph.cli as cli_mod
        def boom(cfg, data):
            raise TrainingError("non-finite loss at epoch 3")
        monkeypatch.setattr(cli_mod, "train", boom)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r")
        assert main(["train", str(cfgf)]) == 1


class TestAttackCmd:
    def test_single_ratio_row_per_loss(self, sbm_dir, tmp_path):
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=5, hidden=8)
        rc = main(["attack", str(cfgf), "--ratios", "0", "--seeds", "1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + ce + jc

    def test_full_sweep_row_count(self, sbm_dir, tmp_path):
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=3, hidden=8)
        rc = main(["attack", str(cfgf), "--ratios", "0.2,0.4,0.6,0.8,1.0",
                   "--seeds", "1", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 11  # 5 ratios x 2 losses + header

    def test_byte_identical_rerun(self, sbm_dir, tmp_path):
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=3, hidden=8)
        args = ["attack", str(cfgf), "--ratios", "0.5", "--seeds", "2"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("ratios", ["0.1,inf", "0.1,nan", "0.1,1e9", "0.1,1e308", ",", "",
                                        "0.5,0.2", "0.5,0.5", "0.5,,1.0", "0.5,"])
    def test_bad_ratio_fails_before_training(self, sbm_dir, tmp_path, monkeypatch, capsys,
                                             ratios):
        import jcgraph.attack as attack_mod

        def never(*args, **kwargs):
            raise AssertionError("train ran before the ratios were checked")
        monkeypatch.setattr(attack_mod, "train", never)
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=3, hidden=8)
        rc = main(["attack", str(cfgf), "--ratios", ratios, "--seeds", "1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert "--ratios" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("ratios,message", [
        ("abc", "could not convert string to float: 'abc'"),
        ("0.5,0.2", "ratios must be sorted ascending, each one once")])
    def test_ratio_list_checked_before_the_load(self, sbm_dir, tmp_path, monkeypatch, capsys,
                                                ratios, message):
        import jcgraph.cli as cli_mod
        loads = []
        monkeypatch.setattr(cli_mod, "load_dataset", lambda *a, **k: loads.append(a))
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=3, hidden=8)
        rc = main(["attack", str(cfgf), "--ratios", ratios, "--seeds", "1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad --ratios value {ratios!r}: {message}\n"
        assert loads == []

    def test_bad_clusters_file_fails_before_training(self, sbm_dir, tmp_path, monkeypatch,
                                                     capsys):
        import jcgraph.attack as attack_mod

        def never(*args, **kwargs):
            raise AssertionError("train ran before the cluster file was read")
        monkeypatch.setattr(attack_mod, "train", never)
        bad = tmp_path / "bad.txt"
        bad.write_text("60 3\n0\n1\nx\n" + "0\n" * 57)
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r", partition="file",
                            clusters_file=bad, epochs=3, hidden=8)
        rc = main(["attack", str(cfgf), "--ratios", "0.5", "--seeds", "1",
                   "--out", str(tmp_path / "new" / "sweep.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:4: expected integers, got 'x'\n"
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("loss,message", [
        ("nosuch", "unknown loss 'nosuch'"),
        ("ic", "attack compares ce and jc: loss must be 'ce' or 'jc', got 'ic'")],
        ids=["nosuch", "ic"])
    def test_bad_loss_fails_before_training(self, sbm_dir, tmp_path, monkeypatch, capsys, loss,
                                            message):
        forbid_load(monkeypatch)
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=3, hidden=8)
        rc = main(["attack", str(cfgf), "--loss", loss, "--ratios", "0.5", "--seeds", "1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep.csv").exists()


# argparse reads the value of "--flag=--" as an empty list on every subcommand
@pytest.mark.parametrize("argv", [
    ["train", "cfg", "--lr=--"],
    ["train", "cfg", "--dataset=--"],
    ["partition", "--dataset", "DATA", "--clusters", "2", "--method=--", "--out", "a.txt"],
    ["gen-sbm", "--out=--"],
    ["attack", "cfg", "--ratios=--", "--seeds", "1", "--out", "sweep.csv"],
], ids=lambda argv: argv[0] + next(t for t in argv if t.endswith("=--"))[:-3])
def test_dash_dash_value_exit_2(sbm_dir, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "cfg", sbm_dir, tmp_path / "r", clusters=3, epochs=3, hidden=8)
    before = sorted(tmp_path.rglob("*"))
    rc = main([str(sbm_dir) if t == "DATA" else t for t in argv])
    flag = next(t for t in argv if t.endswith("=--"))[:-3]
    assert rc == 2
    assert f"error: {flag} needs a value" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # no output file


@pytest.mark.parametrize("argv", [
    ["train", "cfg"],
    ["attack", "cfg", "--ratios", "0.5", "--seeds", "1", "--out", "sweep.csv"],
    ["partition", "--dataset", "DATA", "--clusters", "2", "--out", "a.txt"],
    ["gen-sbm", "--out", "sbm"],
], ids=lambda argv: argv[0])
def test_negative_seed_exit_2(sbm_dir, tmp_path, monkeypatch, capsys, argv):
    forbid_load(monkeypatch)  # partition and gen-sbm stop before it too
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "cfg", sbm_dir, tmp_path / "r", clusters=3, epochs=3, hidden=8)
    before = sorted(tmp_path.rglob("*"))
    try:
        rc = main([str(sbm_dir) if t == "DATA" else t for t in argv] + ["--seed", "-1"])
    except SystemExit as e:  # partition and gen-sbm reject it while parsing flags
        rc = e.code
    assert rc == 2
    assert "error:" in (err := capsys.readouterr().err) and "seed" in err
    assert sorted(tmp_path.rglob("*")) == before  # no output file


def _command(name, sbm_dir, cfgf, out):
    return {"train": ["train", str(cfgf), "--out", str(out)],
            "attack": ["attack", str(cfgf), "--ratios", "0.5", "--seeds", "1", "--out", str(out)],
            "partition": ["partition", "--dataset", str(sbm_dir), "--clusters", "3",
                          "--out", str(out)],
            "gen-sbm": ["gen-sbm", "--out", str(out)]}[name]


def _stub_work(monkeypatch, out):
    """Replace each command's work by a stub that records whether out's
    directory exists, then stops the run with exit 1. gen-sbm's work is the
    write of its dataset, after the draw, whose failure leaves no directory."""
    import jcgraph.cli as cli_mod
    seen = []

    def stub(*args, **kwargs):
        seen.append(out.parent.is_dir())
        raise TrainingError("stopped")
    for name in ("train", "robustness_sweep", "make_partition", "write_dataset"):
        monkeypatch.setattr(cli_mod, name, stub)
    return seen


class TestOutBeforeWork:
    """Each command makes its output's directory before its work runs."""

    @pytest.mark.parametrize("command", ["train", "attack", "partition", "gen-sbm"])
    def test_missing_directory_made_first(self, sbm_dir, tmp_path, monkeypatch, command):
        out = tmp_path / "new" / "dir" / "out"
        seen = _stub_work(monkeypatch, out)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", clusters=3)
        assert main(_command(command, sbm_dir, cfgf, out)) == 1
        assert seen == [True]

    @pytest.mark.parametrize("command", ["train", "attack", "partition", "gen-sbm"])
    def test_directory_that_cannot_be_made_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys,
                                                  command):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        seen = _stub_work(monkeypatch, out)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", clusters=3)
        assert main(_command(command, sbm_dir, cfgf, out)) == 2
        assert "error: bad value for --out: " in capsys.readouterr().err
        assert seen == []

    @pytest.mark.parametrize("command", ["train", "attack", "partition", "gen-sbm"])
    def test_output_of_the_wrong_kind_exit_2_before_the_load(self, sbm_dir, tmp_path,
                                                             monkeypatch, capsys, command):
        import jcgraph.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the work started before --out was checked")
        for name in ("load_dataset", "gen_sbm"):
            monkeypatch.setattr(cli_mod, name, never)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", clusters=3)
        out = tmp_path / "out"
        # gen-sbm writes a directory, train three files named from its --out
        wrong = {"gen-sbm": out, "train": tmp_path / "out.ckpt"}.get(command, out)
        if command == "gen-sbm":
            wrong.write_text("")
        else:
            wrong.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(_command(command, sbm_dir, cfgf, out)) == 2
        kind = "a file" if command == "gen-sbm" else "a directory"
        assert capsys.readouterr().err == f"error: bad value for --out: {wrong} is {kind}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_attack_seeds_checked_before_the_load(self, sbm_dir, tmp_path, monkeypatch,
                                                  capsys, seeds):
        import jcgraph.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the dataset loaded before --seeds was checked")
        monkeypatch.setattr(cli_mod, "load_dataset", never)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", clusters=3)
        rc = main(["attack", str(cfgf), "--ratios", "0.5", "--seeds", seeds,
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert "error: bad value for --seeds: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "attack"])
def test_numerics_failure_names_its_run(sbm_dir, tmp_path, capsys, command):
    # lr 1e300 overflows the weights after the first step; the suite turns
    # any numpy warning into an error, so this also checks none is raised
    cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc", clusters=3,
                        epochs=3, hidden=8, lr="1e300", seed=4)
    out = tmp_path / ("sweep.csv" if command == "attack" else "r")
    assert main(_command(command, sbm_dir, cfgf, out)) == 1
    err = capsys.readouterr().err
    assert "runtime error: " in err and "at epoch 1" in err
    assert "warning" not in err.lower()
    if command == "attack":
        assert "ratio 0.5 seed 4: " in err


@pytest.mark.parametrize("command", ["train", "attack"])
def test_value_error_in_an_epoch_exits_1(sbm_dir, tmp_path, monkeypatch, capsys, command):
    # every input check runs before epoch 1, so a ValueError raised inside
    # the epoch loop is a program failure, not a bad input
    import jcgraph.trainer as train_mod
    adam = train_mod.adam_step

    def failing(*args, t, **kwargs):
        if t == 2:
            raise ValueError("injected fault")
        return adam(*args, t=t, **kwargs)
    monkeypatch.setattr(train_mod, "adam_step", failing)
    cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc", clusters=3,
                        epochs=3, hidden=8, seed=4)
    out = tmp_path / ("sweep.csv" if command == "attack" else "r")
    assert main(_command(command, sbm_dir, cfgf, out)) == 1
    run = "ratio 0.5 seed 4: " if command == "attack" else ""
    assert capsys.readouterr().err == f"runtime error: {run}injected fault at epoch 2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_cli_import_leaves_out_scipy_special():
    # scipy.special takes ~0.13 s to import; only multi-label sigmoids need it
    import jcgraph
    code = "import sys, jcgraph.cli; sys.exit('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(jcgraph.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestInputFileErrors:
    """A bad byte or an oversized count in an input file exits 2 naming file:line."""

    @pytest.mark.parametrize("where", ["config", "labels.txt", "clusters file"])
    def test_byte_that_is_not_utf8_exit_2(self, sbm_dir, tmp_path, capsys, where):
        data = tmp_path / "data"
        shutil.copytree(sbm_dir, data)
        clusters = tmp_path / "a.txt"
        clusters.write_text("60 3\n" + "0\n1\n2\n" * 20)
        cfgf = write_config(tmp_path / "run.cfg", data, tmp_path / "r", loss="jc", clusters=3,
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        path = {"config": cfgf, "labels.txt": data / "labels.txt", "clusters file": clusters}[where]
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        assert main(["train", str(cfgf)]) == 2
        assert capsys.readouterr().err == (f"error: {path}:3: byte 0xff is not utf-8 text "
                                           "(invalid start byte)\n")
        assert not (tmp_path / "r.result").exists()

    # the counts ask for more than 2**47 bytes, which no overcommit grants
    @pytest.mark.parametrize("name,header,message", [
        ("graph.txt", "100000000000000 0", "node count 100000000000000: the graph does not fit "
                                           "(Unable to allocate"),
        ("graph.txt", "9223372036854775807 0", "node count 9223372036854775807: the graph does "
                                               "not fit (Maximum allowed dimension exceeded)"),
        ("labels.txt", "60 1000000000000 s", "class count 1000000000000: the labels do not fit "
                                             "(Unable to allocate 437. TiB"),
    ])
    def test_oversized_header_count_exit_2(self, sbm_dir, tmp_path, capsys, name, header,
                                           message):
        data = tmp_path / "data"
        shutil.copytree(sbm_dir, data)
        lines = (data / name).read_text().split("\n")
        (data / name).write_text("\n".join([header] + lines[1:]))
        rc = main(["partition", "--dataset", str(data), "--clusters", "2",
                   "--out", str(tmp_path / "a.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {data / name}:1: {message}")
        assert not (tmp_path / "a.txt").exists()

    # a line past a table's declared rows (after a blank one) is named at its
    # line: an extra edge, feature row, label, mask line or cluster id
    @pytest.mark.parametrize("where", ["graph.txt", "features.txt", "labels.txt", "masks.txt",
                                       "clusters file"])
    def test_line_past_the_table_exit_2(self, sbm_dir, tmp_path, capsys, where):
        data = tmp_path / "data"
        shutil.copytree(sbm_dir, data)
        clusters = tmp_path / "a.txt"
        clusters.write_text("60 3\n" + "0\n1\n2\n" * 20)
        cfgf = write_config(tmp_path / "run.cfg", data, tmp_path / "r", loss="jc", clusters=3,
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        path = clusters if where == "clusters file" else data / where
        text = path.read_text()
        last = text.count("\n")
        path.write_text(text + "\n" + ("7" if where == "clusters file" else text.split("\n")[1])
                        + "\n")
        assert main(["train", str(cfgf)]) == 2
        assert capsys.readouterr().err == (f"error: {path}:{last + 2}: expected only blank "
                                           f"lines after line {last}\n")
        assert not list(tmp_path.glob("r.*"))

    # errors found once a whole file has parsed name the line that holds them
    @pytest.mark.parametrize("where", ["features.txt", "masks.txt train-val", "masks.txt val-test",
                                       "clusters file"])
    def test_error_found_after_the_parse_names_its_line_exit_2(self, sbm_dir, tmp_path, capsys,
                                                              where):
        data = tmp_path / "data"
        shutil.copytree(sbm_dir, data)
        clusters = tmp_path / "a.txt"
        clusters.write_text("5 3\n0\n1\n2\n0\n1\n")
        cfgf = write_config(tmp_path / "run.cfg", data, tmp_path / "r", loss="jc", clusters=3,
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        if where == "clusters file":
            message = f"{clusters}:1: covers 5 nodes, dataset has 60"
        elif where == "features.txt":
            # the first non-finite entry in file order: line 6, not line 9's nan
            lines = (data / where).read_text().split("\n")
            for lineno, col, token in ((9, 0, "nan"), (6, 4, "-inf")):
                toks = lines[lineno - 1].split()
                toks[col] = token
                lines[lineno - 1] = " ".join(toks)
            (data / where).write_text("\n".join(lines))
            message = f"{data / where}:6: non-finite feature value -inf"
        else:
            lines = (data / "masks.txt").read_text().split("\n")
            a, b = (0, 1) if where.endswith("train-val") else (1, 2)
            node = lines[a].split()[1]
            lines[b] += f" {node}"
            (data / "masks.txt").write_text("\n".join(lines))
            names = ("train", "val", "test")
            message = (f"{data / 'masks.txt'}:{b + 1}: masks {names[a]} and {names[b]} "
                       f"overlap at node {node}")
        assert main(["train", str(cfgf)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.result").exists()

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_cluster_count_other_than_clusters_exit_2(self, sbm_dir, tmp_path, monkeypatch,
                                                      capsys, command):
        # the run trains on the file's m, and the .result echoes clusters
        import jcgraph.attack as attack_mod
        import jcgraph.trainer as train_mod

        def never(*args, **kwargs):
            raise AssertionError("training started before the cluster file was checked")
        monkeypatch.setattr(train_mod, "encoder_forward", never)
        monkeypatch.setattr(attack_mod, "train", never)
        clusters = tmp_path / "a.txt"
        clusters.write_text("60 4\n" + "0\n1\n2\n3\n" * 15)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        out = tmp_path / ("sweep.csv" if command == "attack" else "r")
        assert main(_command(command, sbm_dir, cfgf, out)) == 2
        assert capsys.readouterr().err == (f"error: {clusters}:1: declares 4 clusters, "
                                           "config has clusters = 1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "run.cfg"]


def _exit_code(argv):
    """main's exit code, or argparse's where it rejects a flag."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


# an empty path names no file: as a config line or as a flag it exits 2
# naming its key or flag before any load, and writes nothing, neither in the
# working directory nor next to it
@pytest.mark.parametrize("argv,keys,message", [
    (["train", "run.cfg"], {"out": ""}, "run.cfg:6: bad value for out: expected a path, got ''"),
    (["train", "run.cfg"], {"dataset": ""},
     "run.cfg:1: bad value for dataset: expected a path, got ''"),
    (["train", "run.cfg"], {"partition": "file", "clusters_file": ""},
     "run.cfg:7: bad value for clusters_file: expected a path, got ''"),
    (["attack", "run.cfg", "--out", "sweep.csv"], {"out": ""},
     "run.cfg:6: bad value for out: expected a path, got ''"),
    (["train", "run.cfg", "--out", ""], {}, "argument --out: expected a path, got ''"),
    (["train", "run.cfg", "--dataset="], {}, "argument --dataset: expected a path, got ''"),
    (["train", "run.cfg", "--partition", "file", "--clusters-file", ""], {},
     "argument --clusters-file: expected a path, got ''"),
    (["attack", "run.cfg", "--out", ""], {}, "argument --out: expected a path, got ''"),
    (["attack", "run.cfg", "--out", "sweep.csv", "--dataset", ""], {},
     "argument --dataset: expected a path, got ''"),
    (["partition", "--dataset", "", "--clusters", "3", "--out", "a.txt"], {},
     "argument --dataset: expected a path, got ''"),
    (["partition", "--dataset", "DATA", "--clusters", "3", "--out", ""], {},
     "argument --out: expected a path, got ''"),
    (["gen-sbm", "--out", ""], {}, "argument --out: expected a path, got ''"),
    (["train", ""], {}, "argument config: expected a path, got ''"),
    (["attack", "", "--out", "sweep.csv"], {}, "argument config: expected a path, got ''"),
], ids=["train-cfg-out", "train-cfg-dataset", "train-cfg-clusters_file", "attack-cfg-out",
        "train-out", "train-dataset", "train-clusters-file", "attack-out", "attack-dataset",
        "partition-dataset", "partition-out", "gen-sbm-out", "train-config", "attack-config"])
def test_empty_path_exit_2_before_the_load(sbm_dir, tmp_path, monkeypatch, capsys, argv, keys,
                                           message):
    import jcgraph.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the work started before the empty path was rejected")
    for name in ("load_dataset", "gen_sbm"):
        monkeypatch.setattr(cli_mod, name, never)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = {"dataset": sbm_dir, "loss": "jc", "clusters": 3, "epochs": 2, "hidden": 8, **keys}
    (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    before = sorted(tmp_path.rglob("*"))
    assert _exit_code([str(sbm_dir) if t == "DATA" else t for t in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" if keys else err.endswith(f" error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


# input errors each named by their exact message: a config line, the config's
# dataset, a --seed flag and dataset lines
@pytest.mark.parametrize("config,argv,message", [
    ("dataset = DATA\nepochs\n", ["train", "e.txt"],
     "e.txt:2: expected 'key = value', got 'epochs'"),
    ("dataset = DATA\nepochs = x\n", ["train", "e.txt"],
     "e.txt:2: bad value for epochs: invalid literal for int() with base 10: 'x'"),
    ("out = r\n", ["train", "e.txt"],
     "no dataset path given (config key 'dataset' or --dataset)"),
    ("", ["partition", "--dataset", "DATA", "--clusters", "3", "--out", "a.txt", "--seed", "abc"],
     "jcgraph partition: error: argument --seed: expected a non-negative integer, got 'abc'"),
], ids=["line-without-equals", "bad-int", "no-dataset", "partition-seed"])
def test_config_and_flag_errors_exit_2(sbm_dir, tmp_path, monkeypatch, capsys, config, argv,
                                       message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.txt").write_text(config.replace("DATA", str(sbm_dir)))
    before = sorted(tmp_path.rglob("*"))
    assert _exit_code([str(sbm_dir) if t == "DATA" else t for t in argv]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{message}\n") if argv[0] == "partition" else err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("name,lineno,line,message", [
    ("graph.txt", 1, "60 x", "expected integers, got '60 x'"),
    ("graph.txt", 1, "60 1 2", "expected 2 fields, got 3"),
    ("masks.txt", 2, "val: 0 x 12", "expected integers, got ' 0 x 12'"),
    ("masks.txt", 2, f"val: 0 {2**63}", "val index out of range for n=60"),
])
def test_malformed_dataset_line_exit_2(sbm_dir, tmp_path, capsys, name, lineno, line, message):
    data = tmp_path / "data"
    shutil.copytree(sbm_dir, data)
    lines = (data / name).read_text().split("\n")
    lines[lineno - 1] = line
    (data / name).write_text("\n".join(lines))
    assert main(["partition", "--dataset", str(data), "--clusters", "3",
                 "--out", str(tmp_path / "a.txt")]) == 2
    assert capsys.readouterr().err == f"error: {data / name}:{lineno}: {message}\n"
    assert not (tmp_path / "a.txt").exists()


# ---------------------------------------------------------------------------
# one property over every CLI input: each example changes one config key,
# flag, ratio list or dataset line to a value from a pool of edge cases

POOL = ["", "nan", "inf", "-1", "0", "1e308", "1e309", str(2**63), "1_0", "٣", "١٠"]
RUN_KEYS = ["dataset", "out", "encoder", "layers", "hidden", "dropout", "loss", "partition",
            "clusters", "clusters_file", "lr", "weight_decay", "epochs", "eval_every", "seed",
            "detach_cluster", "beta"]
FLAGS = {
    "train": [f"--{k.replace('_', '-')}" for k in RUN_KEYS],
    "attack": [f"--{k.replace('_', '-')}" for k in RUN_KEYS if k != "out"]
              + ["--ratios", "--seeds", "--out"],
    "partition": ["--dataset", "--method", "--clusters", "--seed", "--out"],
    "gen-sbm": ["--blocks", "--nodes-per-block", "--p-in", "--p-out", "--feat-dim",
                "--feat-noise", "--seed", "--out"],
}
DATA_FILES = ["graph.txt", "features.txt", "labels.txt", "masks.txt"]
PATHS = ["dataset", "out", "clusters_file", "--dataset", "--out", "--clusters-file"]
# the epochs the test lets a command run, over all its trainings, and the
# products with Â that nn may make: sgc's propagation rounds, which run before
# epoch 1, and gcn's per step, which stay far below the cap within MAX_EPOCHS
MAX_EPOCHS = 60
MAX_ROUNDS = 2000


# the messages of the rules that read the data (step 4 of README's order),
# besides a failed load and a cluster file's: any other exit 2 loads nothing
DATA_RULES = re.compile(r"the dataset's \d+ nodes|the model's weights do not fit|graph too dense"
                        r"|does not support label kind|mask is empty")


class Capped(Exception):
    """The command would run more epochs or rounds than the test allows."""


@st.composite
def cli_cases(draw):
    """(command, kind, target, value, encoder): one change to a small valid
    command, whose config, if it has one, sets encoder."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    encoder = draw(st.sampled_from(nn_mod.ENCODERS))
    kinds = ["flag", "unknown"]
    if command in ("train", "attack"):
        kinds += ["key", "repeat"]
    if command != "gen-sbm":
        kinds += ["line", "missing"]
    if command == "attack":
        kinds += ["ratios"]
    kind = draw(st.sampled_from(kinds))
    value = draw(st.sampled_from(POOL))
    if kind in ("key", "repeat"):
        target = draw(st.sampled_from(RUN_KEYS))
    elif kind == "flag":
        target = draw(st.sampled_from(FLAGS[command]))
    elif kind == "line":
        target = (draw(st.sampled_from(DATA_FILES)), draw(st.integers(0, 3)),
                  draw(st.integers(0, 2)))
    elif kind == "missing":
        target = draw(st.sampled_from(
            (["config", "clusters_file"] if command in ("train", "attack") else [])
            + ["dataset"] + DATA_FILES))
    elif kind == "ratios":
        target = draw(st.integers(0, 2))
    else:
        target = None
    return command, kind, target, value, encoder


def _build(case, sbm_dir, root):
    """The argv of case in root, the outputs it names, and the names an
    exit-2 message may give: a key, a flag, a path or a file:line."""
    command, kind, target, value, encoder = case
    work, data = root / "work", root / "data"
    shutil.copytree(sbm_dir, data)
    work.mkdir()
    config = {"dataset": str(data), "out": "out/r", "encoder": encoder, "loss": "jc",
              "clusters": "3", "epochs": "2", "hidden": "8"}
    base = {"train": ["train", "run.cfg"],
            "attack": ["attack", "run.cfg", "--ratios", "0.5", "--seeds", "1",
                       "--out", "out/sweep.csv"],
            "partition": ["partition", "--dataset", str(data), "--clusters", "3",
                          "--out", "out/a.txt"],
            "gen-sbm": ["gen-sbm", "--blocks", "3", "--nodes-per-block", "20",
                        "--feat-dim", "6", "--out", "out/sbm"]}[command]
    argv, lines, names, patterns = list(base), [], [], []
    if kind in ("key", "repeat"):
        names = [target]
        if kind == "repeat":  # the key's line, then the key again
            lines = [f"{target} = {value}"]
            config.setdefault(target, value)
        else:
            config[target] = value
    elif kind == "flag":
        argv.append(f"{target}={value}")
        names = [target, target[2:].replace("-", "_")]
    elif kind == "unknown":
        if command in ("train", "attack"):
            lines, names = ["bogus_key = 1"], ["bogus_key"]
        else:
            argv, names = argv + ["--bogus-flag=1"], ["--bogus-flag"]
    elif kind == "ratios":
        ratios = ["0.25", "0.5"]
        ratios.insert(target, value)
        argv, names = argv + [f"--ratios={','.join(ratios)}"], ["--ratios"]
    elif kind == "missing":
        if target == "config":
            argv[1], names = "missing.cfg", ["missing.cfg"]
        elif target == "clusters_file":
            config.update(partition="file", clusters_file="missing.txt")
            names = [str(work / "missing.txt")]
        elif target == "dataset":
            config["dataset"] = str(root / "nowhere")
            argv = [str(root / "nowhere") if t == str(data) else t for t in argv]
            names = [str(root / "nowhere")]
        else:
            (data / target).unlink()
            names = [str(data / target)]
    else:  # a token of a dataset line, its header or a later line
        name, lineno, col = target
        path = data / name
        text = path.read_text().split("\n")
        i = min(lineno, len(text) - 2)
        tokens = text[i].split() or [""]
        tokens[min(col, len(tokens) - 1)] = value
        text[i] = " ".join(tokens)
        path.write_text("\n".join(text))
        patterns = [re.escape(str(path)) + r":\d+: "]
    if target in PATHS and value:  # a path value may be named as a path component
        patterns.append(rf"(^|[\s/]){re.escape(value)}[/:]")
    (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items())
                                  + "".join(f"{ln}\n" for ln in lines))
    # the outputs a run that exits 0 writes, at the path the case names
    out = argv[argv.index("--out") + 1] if "--out" in argv else config["out"]
    for t in argv:
        if t.startswith("--out="):
            out = t[len("--out="):]
    suffixes = {"train": [".result", ".curves.csv", ".ckpt"], "attack": [""],
                "partition": [""], "gen-sbm": [f"/{f}" for f in DATA_FILES]}[command]
    outputs = {work / f"{out}{s}" for s in suffixes}
    return argv, outputs, names, patterns


@settings(max_examples=500)
@given(case=cli_cases())
# a layers past allocation: sgc would only take longer, gcn and mlp exit 2
@example(case=("train", "key", "layers", str(2**63), "sgc"))
@example(case=("train", "key", "layers", str(2**63), "gcn"))
@example(case=("attack", "flag", "--layers", str(2**63), "mlp"))
# a cluster file is read before the output directory is made
@example(case=("train", "missing", "clusters_file", "", "gcn"))
@example(case=("attack", "missing", "clusters_file", "", "mlp"))
# finite values whose products overflow: the last ratio (an earlier one is
# unsorted) times the edge count, and the noise times a normal draw
@example(case=("attack", "ratios", 2, "1e308", "gcn"))
@example(case=("gen-sbm", "flag", "--feat-noise", "1e308", "gcn"))
def test_every_input_exits_0_or_names_what_is_wrong(sbm_dir, case):
    """Exit 0 with outputs only where the command names them; exit 2 naming
    the key, flag, file or file:line, with no new file or directory, no
    epoch run and, unless its rule reads the data, no load; exit 1 only for
    a numerics or training failure after an epoch. Nothing escapes main.
    Only sgc may reach a cap before epoch 1."""
    import jcgraph.cli as cli_mod
    import jcgraph.trainer as train_mod
    epochs, rounds, loads = [], [], []

    def counted_load(*args, **kwargs):
        loads.append("failed")
        data = load(*args, **kwargs)
        loads[-1] = "loaded"
        return data

    def counted_forward(*args, train_mode, **kwargs):
        if train_mode:
            epochs.append(1)
            if len(epochs) > MAX_EPOCHS:
                raise Capped
        return forward(*args, train_mode=train_mode, **kwargs)

    def counted_spmm(*args, **kwargs):
        rounds.append(1)
        if len(rounds) > MAX_ROUNDS:
            raise Capped
        return spmm(*args, **kwargs)

    forward, spmm, load = train_mod.encoder_forward, nn_mod.spmm, cli_mod.load_dataset
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "case"
        root.mkdir()
        argv, outputs, names, patterns = _build(case, sbm_dir, root)
        before = set(root.rglob("*"))
        err = io.StringIO()
        with mock.patch.object(train_mod, "encoder_forward", counted_forward), \
                mock.patch.object(nn_mod, "spmm", counted_spmm), \
                mock.patch.object(cli_mod, "load_dataset", counted_load), \
                contextlib.chdir(root / "work"), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = _exit_code(argv)
            except Capped:  # accepted: the run would only take longer
                rc = None
        new = set(root.rglob("*")) - before
        err = err.getvalue()
        assert {p for p in new if p.is_file()} == (outputs if rc == 0 else set()), err
        if rc is None:
            assert epochs or case[4] == "sgc", err
        elif rc == 1:
            assert epochs and err.startswith("runtime error: "), err
        elif rc != 0:
            assert rc == 2 and not epochs and not new, err
            assert "error: " in err
            if not ("failed" in loads or DATA_RULES.search(err)
                    or case[1:3] == ("missing", "clusters_file")):
                assert not loads, err
            assert (any(name in err for name in names)
                    or any(re.search(p, err) for p in patterns)), err


# a header count past int64, which numpy and scipy cannot size, is named at a
# line like any other bad count
@pytest.mark.parametrize("name,header,message", [
    ("graph.txt", f"{2**63} 142", f"1: node count {2**63}: the graph does not fit (Python int "
                                  "too large to convert to C long)"),
    ("graph.txt", f"60 {2**63}", "176: expected 2 values, got 0"),
    ("features.txt", f"60 {2**63}", f"2: expected {2**63} values, got 6"),
])
def test_header_count_past_int64_exit_2(sbm_dir, tmp_path, capsys, name, header, message):
    data = tmp_path / "data"
    shutil.copytree(sbm_dir, data)
    lines = (data / name).read_text().split("\n")
    (data / name).write_text("\n".join([header] + lines[1:]))
    assert main(["partition", "--dataset", str(data), "--clusters", "3",
                 "--out", str(tmp_path / "a.txt")]) == 2
    assert capsys.readouterr().err == f"error: {data / name}:{message}\n"
    assert not (tmp_path / "a.txt").exists()


@pytest.mark.parametrize("flag,message", [
    ("--blocks", f"blocks x nodes_per_block = {2**63 * 50} nodes do not fit (Maximum allowed size "
                 "exceeded)"),
    ("--nodes-per-block", f"blocks x nodes_per_block = {2**63 * 4} nodes do not fit (Maximum "
                          "allowed size exceeded)"),
    ("--feat-dim", f"feat_dim = {2**63}: the 200 x {2**63} feature table does not fit (Maximum "
                   "allowed dimension exceeded)"),
])
def test_gen_sbm_size_past_int64_exit_2(tmp_path, capsys, flag, message):
    assert main(["gen-sbm", flag, str(2**63), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()
