import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_feat_noise_exit_2(self, tmp_path, capsys, noise):
        rc = main(["gen-sbm", "--feat-noise", noise, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error: feat_noise" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    def test_unallocatable_draw_exit_2(self, tmp_path, monkeypatch, capsys):
        import jcgraph.cli as cli_mod

        def too_big(*args):  # what numpy raises for the 400000 x 400000 draw
            raise MemoryError("Unable to allocate 1.16 TiB")
        monkeypatch.setattr(cli_mod, "gen_sbm", too_big)
        rc = main(["gen-sbm", "--nodes-per-block", "100000", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for --nodes-per-block: ")
        assert "n = 400000 nodes" in err and "Unable to allocate" in err
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
                                                ("--adam-beta1", "1.0", "adam_beta1"),
                                                ("--adam-beta2", "1.5", "adam_beta2"),
                                                ("--lr", "-1", "lr"),
                                                ("--lr", "0", "lr"),
                                                ("--lr", "nan", "lr"),
                                                ("--adam-eps", "-1", "adam_eps"),
                                                ("--adam-eps", "inf", "adam_eps"),
                                                ("--weight-decay", "-1", "weight_decay"),
                                                ("--weight-decay", "nan", "weight_decay"),
                                                ("--beta", "nan", "beta"),
                                                ("--clusters", "0", "clusters"),
                                                ("--clusters", "100", "clusters"),
                                                ("--hidden", "0", "hidden"),
                                                ("--layers", "0", "layers")])
    def test_bad_epoch_counts_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys,
                                     flag, value, key):
        import jcgraph.attack as attack_mod

        def never(*args, **kwargs):
            raise AssertionError("train ran before the config was checked")
        monkeypatch.setattr(attack_mod, "train", never)
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
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            clusters=3, epochs=3, hidden=8)
        out = tmp_path / ("sweep.csv" if command == "attack" else "r")
        assert main(_command(command, sbm_dir, cfgf, out) + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("key,message", [("encoder", "unknown encoder 'nosuch'"),
                                             ("loss", "unknown loss 'nosuch'"),
                                             ("partition", "unknown partition method 'nosuch'")])
    def test_unknown_name_exit_2(self, sbm_dir, tmp_path, capsys, key, message):
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", epochs=3, hidden=8)
        assert main(["train", str(cfgf), f"--{key}", "nosuch"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_config_echo_lines(self, sbm_dir, tmp_path):
        # every echoed key away from its default; the text is that of the
        # implementation with one hand-written line per key
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", encoder="mlp",
                            layers=3, hidden=16, dropout=0.25, loss="ic", partition="random",
                            clusters=4, lr=0.02, weight_decay=1e-05, epochs=2, eval_every=2,
                            seed=3, detach_cluster="true", beta=2.5, adam_beta1=0.8,
                            adam_beta2=0.99, adam_eps=1e-07)
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
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        assert main(["train", str(cfgf)]) == 2
        assert f"error: {clusters}:61: cluster id 3 out of range" in capsys.readouterr().err
        assert not (tmp_path / "r.result").exists()

    def test_clusters_file_with_more_clusters_than_nodes_exit_2(self, sbm_dir, tmp_path,
                                                                capsys):
        clusters = tmp_path / "a.txt"
        clusters.write_text("60 1000000000000\n" + "0\n" * 60)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        assert main(["train", str(cfgf)]) == 2
        assert capsys.readouterr().err == (f"error: {clusters}:1: bad header n=60 "
                                           "m=1000000000000: need 0 <= n and m <= n\n")
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

    def test_unallocatable_weights_exit_2(self, sbm_dir, tmp_path, monkeypatch, capsys):
        import jcgraph.trainer as train_mod

        def no_room(spec, seed):  # what numpy raises for the 6 x 10^12 first weight
            raise MemoryError("Unable to allocate 43.7 TiB")
        monkeypatch.setattr(train_mod, "init_params", no_room)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            clusters=3, epochs=3, hidden=1000000000000)
        sweep = ["--ratios", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")]
        for argv in (["train", str(cfgf)], ["attack", str(cfgf)] + sweep):
            assert main(argv) == 2
            assert capsys.readouterr().err == ("error: hidden = 1000000000000: the model's "
                                               "weights do not fit (Unable to allocate 43.7 TiB)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_file_partition_without_clusters_file_exit_2(self, sbm_dir, tmp_path, capsys,
                                                         monkeypatch):
        import jcgraph.trainer as train_mod
        def never(*args, **kwargs):
            raise AssertionError("work started before the config was checked")
        for name in ("normalize_adjacency", "read_assignment"):
            monkeypatch.setattr(train_mod, name, never)
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters=3, epochs=3, hidden=8)
        assert main(["train", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "clusters_file" in err
        assert not (tmp_path / "r.result").exists()

    @pytest.mark.parametrize("partition", ["metis-like", "kmeans", "random"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_clusters_file_for_another_partition_exit_2(self, sbm_dir, tmp_path, monkeypatch,
                                                        capsys, partition, where):
        import jcgraph.trainer as train_mod

        def never(*args, **kwargs):
            raise AssertionError("an epoch ran before the config was checked")
        monkeypatch.setattr(train_mod, "encoder_forward", never)
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
            raise TrainingError("non-finite loss at epoch 3", epoch=3)
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

    @pytest.mark.parametrize("ratios", ["0.1,inf", "0.1,nan", "0.1,1e9", ",", ""])
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
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:4: expected integers, got 'x'\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("loss", ["nosuch", "ic"])
    def test_bad_loss_fails_before_training(self, sbm_dir, tmp_path, monkeypatch, capsys, loss):
        import jcgraph.attack as attack_mod

        def never(*args, **kwargs):
            raise AssertionError("train ran before the loss was checked")
        monkeypatch.setattr(attack_mod, "train", never)
        cfgf = write_config(tmp_path / "atk.cfg", sbm_dir, tmp_path / "r",
                            clusters=3, epochs=3, hidden=8)
        rc = main(["attack", str(cfgf), "--loss", loss, "--ratios", "0.5", "--seeds", "1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert "error:" in (err := capsys.readouterr().err) and "loss" in err
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
    directory exists, then stops the run with exit 1."""
    import jcgraph.cli as cli_mod
    seen = []

    def stub(*args, **kwargs):
        seen.append(out.parent.is_dir())
        raise TrainingError("stopped")
    for name in ("train", "robustness_sweep", "make_partition", "gen_sbm"):
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
