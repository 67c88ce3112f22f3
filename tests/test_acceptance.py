"""Acceptance suite. Each test prints one PASS/FAIL line (visible under -s).

Criterion 7 is hermetic and always runs. Criteria 1-6 and 8 replicate the
published citation-network numbers and therefore need the converted Cora and
PubMed datasets under data/ (or $JCGRAPH_DATA_DIR); they skip with an
explanation when the data is absent. README.md documents the converter. Their
bodies also run once, briefly, on small generated graphs, which checks that
every detail line is formed.
"""

import os
import re
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from jcgraph.attack import robustness_sweep
from jcgraph.cli import main as cli_main
from jcgraph.graph import gen_sbm, load_dataset, normalize_adjacency, spmm, write_dataset
from jcgraph.losses import cluster_stats, joint_forward, joint_label, loss_fn, marginalize
from jcgraph.metrics import loss_gap
from jcgraph.nn import ModelSpec, grad_check, init_params
from jcgraph.partition import (edge_cut_stats, partition_kmeans,
                               partition_metis_like)
from jcgraph.trainer import LOSS_KINDS, TrainConfig

from conftest import rng_graph
from test_partition import brute_force_min_cut

DATA_DIR = Path(os.environ.get("JCGRAPH_DATA_DIR", Path(__file__).resolve().parents[1] / "data"))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def load_or_skip(name: str, shape: tuple[int, int, int]):
    path = DATA_DIR / name
    if not (path / "graph.txt").is_file():
        pytest.skip(f"needs the converted {name} dataset at {path} "
                    f"(no network in this environment; see README.md, 'Citation datasets')")
    ds = load_dataset(path)
    got = (ds.num_nodes, ds.features.shape[1], ds.labels.num_classes)
    assert got == shape, f"{name}: expected (nodes, feats, classes)={shape}, got {got}"
    return ds


@pytest.fixture(scope="module")
def cora():
    return load_or_skip("cora", (2708, 1433, 7))


@pytest.fixture(scope="module")
def pubmed():
    return load_or_skip("pubmed", (19717, 500, 3))


def citation_cfg(encoder: str, epochs: int) -> TrainConfig:
    return TrainConfig(encoder, 2, 64, 0.5, partition="metis-like", clusters=5,
                       lr=0.01, weight_decay=5e-4, epochs=epochs, eval_every=1, seed=0)


# the published recipe: 300 epochs, 10 seeds (5 for the attack sweep)
EPOCHS, SEEDS, ATTACK_SEEDS = 300, 10, 5
ATTACK_RATIOS = [0.2, 0.4, 0.6, 0.8, 1.0]


def clean_rows(data, encoder: str, epochs: int, seeds: int):
    """The ce and jc rows of seeds 0 .. seeds-1 on the clean graph: the sweep's
    ratio 0, which poisons nothing."""
    return robustness_sweep(data, [0.0], citation_cfg(encoder, epochs), seeds)


# Each criterion's body returns its verdict and detail line. Criteria 4 and 8
# read the same PubMed runs, so their bodies take clean_rows' pair; criterion
# 6 trains nothing, so its body takes the data alone.

def criterion_1(cora, epochs: int, seeds: int):
    t0 = perf_counter()
    ce, jc = clean_rows(cora, "gcn", epochs, seeds)
    runtime = perf_counter() - t0
    ce_acc, jc_acc = 100 * ce.mean_acc, 100 * jc.mean_acc
    ok = (79.5 <= ce_acc <= 83.5 and 81.5 <= jc_acc <= 85.0
          and jc_acc - ce_acc >= 0.8 and runtime <= 300)
    return ok, (f"gcn ce={ce_acc:.2f} jc={jc_acc:.2f} "
                f"diff={jc_acc - ce_acc:+.2f} runtime={runtime:.0f}s")


def criterion_2(cora, epochs: int, seeds: int):
    ce, jc = clean_rows(cora, "mlp", epochs, seeds)
    diff = 100 * (jc.mean_acc - ce.mean_acc)
    return diff >= 5.0, f"mlp jc-ce={diff:+.2f} (needs >= +5.0)"


def criterion_3(cora, epochs: int, seeds: int):
    ce, jc = clean_rows(cora, "sgc", epochs, seeds)
    diff = 100 * (jc.mean_acc - ce.mean_acc)
    return diff >= 0.8, f"sgc jc-ce={diff:+.2f} (needs >= +0.8)"


def criterion_4(rows):
    ce_ece, jc_ece = (np.mean([r.test_ece for r in row.runs]) for row in rows)
    return jc_ece < ce_ece, f"pubmed ece ce={ce_ece:.4f} jc={jc_ece:.4f}"


def criterion_5(cora, epochs: int, seeds: int):
    rows = robustness_sweep(cora, ATTACK_RATIOS, citation_cfg("gcn", epochs), seeds)
    acc = {(r.ratio, r.loss): r.mean_acc for r in rows}
    wins = sum(acc[(r, "jc")] >= acc[(r, "ce")] for r in ATTACK_RATIOS)
    ok = acc[(1.0, "jc")] >= acc[(1.0, "ce")] and wins >= 4
    return ok, (f"attack ratio=1.0 ce={100 * acc[(1.0, 'ce')]:.2f} "
                f"jc={100 * acc[(1.0, 'jc')]:.2f}; jc wins {wins}/{len(ATTACK_RATIOS)} ratios")


def criterion_6(cora):
    metis = edge_cut_stats(cora.graph, partition_metis_like(cora.graph, 7, seed=0))
    km = edge_cut_stats(cora.graph, partition_kmeans(cora.features, 7, seed=0))
    ok = metis.rate >= 5.0 and metis.rate >= 3.0 * km.rate
    return ok, f"metis rate={metis.rate:.2f} kmeans rate={km.rate:.2f}"


def criterion_8(rows):
    ce, jc = rows
    wins = 0
    for rc, rj in zip(ce.runs, jc.runs):
        gap_ce = loss_gap(rc.train_loss, rc.test_loss)[-1]
        gap_jc = loss_gap(rj.train_loss, rj.test_loss)[-1]
        wins += gap_jc <= gap_ce
    seeds = len(ce.runs)  # at least 7 in 10
    return 10 * wins >= 7 * seeds, f"pubmed final-epoch gap: jc <= ce in {wins}/{seeds} seeds"


@pytest.fixture(scope="module")
def pubmed_runs(pubmed):
    return clean_rows(pubmed, "gcn", EPOCHS, SEEDS)


class TestCriteria:
    def test_criterion_1_cora_gcn_accuracy(self, cora):
        report(1, *criterion_1(cora, EPOCHS, SEEDS))

    def test_criterion_2_cora_mlp_gain(self, cora):
        report(2, *criterion_2(cora, EPOCHS, SEEDS))

    def test_criterion_3_cora_sgc_gain(self, cora):
        report(3, *criterion_3(cora, EPOCHS, SEEDS))

    def test_criterion_4_pubmed_calibration(self, pubmed_runs):
        report(4, *criterion_4(pubmed_runs))

    def test_criterion_5_cora_random_attack(self, cora):
        report(5, *criterion_5(cora, EPOCHS, ATTACK_SEEDS))

    def test_criterion_6_cora_partition_quality(self, cora):
        report(6, *criterion_6(cora))

    def test_criterion_8_pubmed_generalization_gap(self, pubmed_runs):
        report(8, *criterion_8(pubmed_runs))


# each body's detail line, its numbers as groups, on 2 seeds
DETAIL_FORMS = {
    1: r"gcn ce=(\S+) jc=(\S+) diff=(\S+) runtime=(\S+)s",
    2: r"mlp jc-ce=(\S+) \(needs >= \+5\.0\)",
    3: r"sgc jc-ce=(\S+) \(needs >= \+0\.8\)",
    4: r"pubmed ece ce=(\S+) jc=(\S+)",
    5: r"attack ratio=1\.0 ce=(\S+) jc=(\S+); jc wins (\S+)/5 ratios",
    6: r"metis rate=(\S+) kmeans rate=(\S+)",
    8: r"pubmed final-epoch gap: jc <= ce in (\S+)/2 seeds",
}


def test_criteria_bodies_on_generated_stand_ins():
    # every body once on small generated graphs, a few epochs and 2 seeds:
    # the lines are formed and their numbers finite; the verdicts are not
    # the paper's and are not checked
    cora = gen_sbm(7, 20, 0.3, 0.02, 16, 1.0, seed=5)
    pubmed = gen_sbm(3, 40, 0.2, 0.02, 8, 1.0, seed=6)
    epochs, seeds = 3, 2
    rows = clean_rows(pubmed, "gcn", epochs, seeds)
    outcomes = {1: criterion_1(cora, epochs, seeds), 2: criterion_2(cora, epochs, seeds),
                3: criterion_3(cora, epochs, seeds), 4: criterion_4(rows),
                5: criterion_5(cora, epochs, seeds), 6: criterion_6(cora), 8: criterion_8(rows)}
    for criterion, (ok, detail) in outcomes.items():
        assert ok in (True, False), criterion
        match = re.fullmatch(DETAIL_FORMS[criterion], detail)
        assert match, f"criterion {criterion}: {detail!r}"
        assert all(np.isfinite(float(v)) for v in match.groups()), f"criterion {criterion}: {detail!r}"


class TestCriterion7PropertySuite:
    """Hermetic property suite: no external data, bounded below 60 seconds."""

    def test_criterion_7(self, sbm12, sbm12_multi, tmp_path):
        t0 = perf_counter()
        worst_grad = self.check_grad_combos(sbm12, sbm12_multi)
        self.check_marginalize_exact()
        table_err = self.check_tables_normalized()
        spmm_err = self.check_spmm_oracle()
        worst_cut = self.check_partition_quality()
        self.check_byte_identical_runs(tmp_path)
        elapsed = perf_counter() - t0
        ok = elapsed < 60.0
        report(7, ok, f"grad<={worst_grad:.2e} tables<={table_err:.2e} "
                      f"spmm<={spmm_err:.2e} cut<={worst_cut:.2f}x "
                      f"determinism ok, {elapsed:.1f}s")

    def check_grad_combos(self, sbm12, sbm12_multi):
        assign = partition_metis_like(sbm12.graph, 2, seed=0)
        mask = sbm12.masks.train

        def closure(loss):
            def fn(params, z, data):
                st = cluster_stats(z, data.labels, mask, assign)
                return loss_fn(loss)(params, z, data.labels, mask, st, beta=0.7)
            return fn

        worst = 0.0
        for encoder in ("gcn", "sgc", "mlp"):
            for loss in ("ce", "jc", "ic", "mixup", "jc-multilabel"):
                data = sbm12_multi if loss == "jc-multilabel" else sbm12
                spec = ModelSpec(encoder, 2, 5, 3, 2, 0.0, LOSS_KINDS[loss][0])
                err = grad_check(spec, closure(loss), data)
                assert err < 1e-4, f"{encoder}+{loss}: grad error {err:.2e}"
                worst = max(worst, err)
        return worst

    def check_marginalize_exact(self):
        # dyadic cluster distributions make the row sums exactly representable
        rng = np.random.default_rng(17)
        for _ in range(1000):
            c = int(rng.integers(1, 8))
            y = np.zeros(c)
            y[rng.integers(c)] = 1.0
            ybar = rng.multinomial(1024, np.full(c, 1.0 / c)) / 1024.0
            out = marginalize(joint_label(y, ybar))
            assert (out == y).all(), f"marginalize not exact: {out} vs {y}"

    def check_tables_normalized(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(500):
            c = int(rng.integers(1, 6))
            h = int(rng.integers(1, 5))
            params = init_params(ModelSpec("mlp", 1, h, h, c, 0.0, "joint"), int(rng.integers(1000)))
            t = joint_forward(params, rng.normal(size=h), rng.normal(size=h))
            worst = max(worst, abs(t.sum() - 1.0))
            m = marginalize(t)
            worst = max(worst, abs(m.sum() - 1.0))
        assert worst <= 1e-9
        return worst

    def check_spmm_oracle(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 21))
            g = rng_graph(rng, n, float(rng.uniform(0.1, 0.8)))
            adj = normalize_adjacency(g)
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            diff = np.abs(spmm(adj, x) - adj.toarray() @ x).max()
            assert diff < 1e-12
            worst = max(worst, diff)
        return worst

    def check_partition_quality(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        checked = 0
        while checked < 25:
            n = int(rng.integers(4, 13))
            g = rng_graph(rng, n, float(rng.uniform(0.2, 0.7)))
            if g.num_edges == 0:
                continue
            cap = int(np.ceil(1.2 * n / 2))
            opt = brute_force_min_cut(g, cap)
            got = edge_cut_stats(g, partition_metis_like(g, 2, seed=2)).between_links
            assert got <= max(1.25 * opt, opt), f"cut {got} vs optimum {opt}"
            worst = max(worst, got / opt if opt else 1.0)
            checked += 1
        return worst

    def check_byte_identical_runs(self, tmp_path):
        data_dir = tmp_path / "sbm"
        write_dataset(data_dir, gen_sbm(3, 20, 0.25, 0.02, 6, 0.5, seed=4))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {data_dir}\nloss = jc\nclusters = 3\n"
                       "hidden = 8\nepochs = 15\nseed = 3\n")
        for stem in ("a", "b"):
            rc = cli_main(["train", str(cfg), "--out", str(tmp_path / stem)])
            assert rc == 0
        for suffix in (".result", ".curves.csv", ".ckpt"):
            assert ((tmp_path / f"a{suffix}").read_bytes()
                    == (tmp_path / f"b{suffix}").read_bytes()), f"{suffix} differs"
