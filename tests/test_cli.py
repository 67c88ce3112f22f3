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


class TestPartitionCmd:
    def test_two_clique_toy(self, tmp_path, capsys):
        # two disjoint cliques: metis-like finds the zero cut
        from jcgraph.graph import Dataset, Graph, LabelSet, SplitMasks, write_dataset
        import numpy as np
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges]
        g = Graph.from_edges(8, edges)
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
        rc = main(["partition", "--dataset", str(sbm_dir), "--clusters", "100",
                   "--out", str(tmp_path / "a.txt")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


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
                                                ("--beta", "nan", "beta")])
    def test_bad_epoch_counts_exit_2(self, sbm_dir, tmp_path, capsys, flag, value, key):
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", epochs=3, hidden=8)
        assert main(["train", str(cfgf), flag, value]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not (tmp_path / "r.result").exists()

    def test_bad_clusters_file_exit_2(self, sbm_dir, tmp_path, capsys):
        clusters = tmp_path / "a.txt"
        clusters.write_text("60 3\n" + "0\n" * 59 + "3\n")
        cfgf = write_config(tmp_path / "run.cfg", sbm_dir, tmp_path / "r", loss="jc",
                            partition="file", clusters_file=clusters, epochs=3, hidden=8)
        assert main(["train", str(cfgf)]) == 2
        assert f"error: {clusters}:61: cluster id 3 out of range" in capsys.readouterr().err
        assert not (tmp_path / "r.result").exists()

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

    def test_runtime_failure_exit_1(self, sbm_dir, tmp_path, monkeypatch):
        import jcgraph.cli as cli_mod
        def boom(cfg, data):
            raise TrainingError("non-finite loss at epoch 3", epoch=3)
        monkeypatch.setattr(cli_mod, "train_with_params", boom)
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
