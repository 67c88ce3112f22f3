from dataclasses import replace

import numpy as np
import pytest

import jcgraph.attack as attack_mod
from jcgraph.attack import (AttackSpec, SweepRow, check_sweep, random_attack, robustness_sweep,
                            run_cell, write_sweep_csv)
from jcgraph.graph import Graph
from jcgraph.trainer import TrainConfig, TrainingError, train

from conftest import rng_graph


def complete_graph(n):
    return Graph.from_undirected_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def one_pair_attack(g, spec):
    """random_attack as one pair per try, with a per-node complement in the
    dense corner: the reference for the batched draws. Also returns whether
    the dense corner ran."""
    n, needed = g.num_nodes, int(spec.ratio * g.num_edges)
    rng = np.random.default_rng(spec.seed)
    chosen = set()
    tries, cap_tries = 0, 50 * needed + 10_000
    while len(chosen) < needed and tries < cap_tries:
        tries += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if (u, v) in chosen or g.has_edge(u, v):
            continue
        chosen.add((u, v))
    dense = len(chosen) < needed
    if dense:
        pool = [(u, int(v)) for u in range(n)
                for v in np.setdiff1d(np.arange(u + 1, n), g.neighbors(u))
                if (u, int(v)) not in chosen]
        extra = rng.choice(len(pool), size=needed - len(chosen), replace=False)
        chosen.update(pool[i] for i in extra)
    pairs = np.concatenate([g.edge_pairs(), np.asarray(sorted(chosen), dtype=np.int64)])
    uniq = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return Graph.from_undirected_pairs(n, np.stack([uniq // n, uniq % n], axis=1)), dense


def assert_same_graph(a, b):
    assert a.num_nodes == b.num_nodes
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


class TestRandomAttack:
    def test_ratio_zero_identical(self, easy_sbm):
        # no fake edge is due at ratio 0, on an edgeless graph, or at a ratio
        # whose floor(ratio * m) is 0
        g = easy_sbm.graph
        edgeless = Graph(7, np.zeros(8, dtype=np.int64), np.empty(0, dtype=np.int64))
        for graph, ratio in [(g, 0.0), (edgeless, 0.0), (g, 0.9 / g.num_edges)]:
            out = random_attack(graph, AttackSpec(ratio, seed=1))
            assert out.num_nodes == graph.num_nodes
            assert np.array_equal(out.indptr, graph.indptr) and out.indptr.dtype == np.int64
            assert np.array_equal(out.indices, graph.indices) and out.indices.dtype == np.int64

    def test_edge_count_exact(self):
        rng = np.random.default_rng(0)
        g = rng_graph(rng, 40, 0.13)
        m = g.num_edges
        out = random_attack(g, AttackSpec(1.0, seed=2))
        assert out.num_edges == 2 * m

    def test_complete_graph_errors(self):
        g = complete_graph(6)
        with pytest.raises(ValueError, match="dense"):
            random_attack(g, AttackSpec(1.0, seed=0))

    def test_clean_graph_is_subgraph(self):
        rng = np.random.default_rng(3)
        g = rng_graph(rng, 30, 0.2)
        out = random_attack(g, AttackSpec(0.8, seed=5))
        clean = {tuple(e) for e in g.edge_pairs()}
        poisoned = {tuple(e) for e in out.edge_pairs()}
        assert clean <= poisoned
        assert out.num_nodes == g.num_nodes

    def test_degree_sum_increase(self):
        rng = np.random.default_rng(4)
        g = rng_graph(rng, 25, 0.3)
        added = int(0.5 * g.num_edges)
        out = random_attack(g, AttackSpec(0.5, seed=7))
        assert out.degrees().sum() - g.degrees().sum() == 2 * added

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        g = rng_graph(rng, 30, 0.2)
        a = random_attack(g, AttackSpec(0.7, seed=11))
        b = random_attack(g, AttackSpec(0.7, seed=11))
        assert (a.indices == b.indices).all()

    def test_fake_edges_valid(self):
        rng = np.random.default_rng(6)
        g = rng_graph(rng, 20, 0.25)
        out = random_attack(g, AttackSpec(1.0, seed=3))
        out.validate()

    # ratio 8.0 draws 4 batches: each later one tests its pairs against the
    # pairs that 2 or 3 earlier batches chose, in draw order
    @pytest.mark.parametrize("ratio", [0.3, 1.0, 2.5, 8.0])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batches_match_one_pair_tries(self, easy_sbm, monkeypatch, ratio, seed):
        spec = AttackSpec(ratio, seed=seed)
        expected, dense = one_pair_attack(easy_sbm.graph, spec)
        assert not dense
        found, lookups = attack_mod._found, []
        monkeypatch.setattr(attack_mod, "_found",
                            lambda keys, sorted_keys: lookups.append(keys) or found(keys, sorted_keys))
        assert_same_graph(random_attack(easy_sbm.graph, spec), expected)
        assert len(lookups) // 2 == {0.3: 1, 1.0: 2, 2.5: 2, 8.0: 4}[ratio]  # two per batch

    @pytest.mark.parametrize("n", [120, 200])
    @pytest.mark.parametrize("share", [0.9, 1.0])
    def test_dense_corner_matches_one_pair_tries(self, n, share):
        # each pair kept with p = 0.995: the tries find too few of the few
        # free pairs, so the complement is enumerated and sampled
        rng = np.random.default_rng(n)
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.995
        g = Graph.from_undirected_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))
        needed = int(share * (n * (n - 1) // 2 - g.num_edges))
        spec = AttackSpec((needed + 0.5) / g.num_edges, seed=1)
        expected, dense = one_pair_attack(g, spec)
        assert dense
        out = random_attack(g, spec)
        assert out.num_edges == g.num_edges + needed
        assert_same_graph(out, expected)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(-0.1)

    def test_overflowing_ratio_rejected_as_too_dense(self, easy_sbm):
        # 1e308 is finite, but its product with the edge count is inf
        g = easy_sbm.graph
        with pytest.raises(ValueError, match=r"^graph too dense: ratio 1e\+308 x "):
            random_attack(g, AttackSpec(1e308))
        with pytest.raises(ValueError, match="^graph too dense"):
            check_sweep(easy_sbm, [0.1, 1e308], SWEEP_CFG, seeds=1)

    def test_largest_ratio_that_fits_is_kept(self):
        # floor(ratio * m) equal to the free pairs passes; one pair more does not
        g = Graph.from_undirected_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # 6 free pairs
        assert random_attack(g, AttackSpec(1.74)).num_edges == 4 + 6  # floor(6.96)
        with pytest.raises(ValueError, match="dense"):
            random_attack(g, AttackSpec(1.75))


SWEEP_CFG = TrainConfig(hidden=16, partition="metis-like", clusters=4, epochs=60)


class TestRobustnessSweep:
    def test_ratio_zero_reproduces_clean_run(self, easy_sbm):
        rows = robustness_sweep(easy_sbm, [0.0], SWEEP_CFG, seeds=2)
        assert [(r.ratio, r.loss) for r in rows] == [(0.0, "ce"), (0.0, "jc")]
        for row in rows:
            clean = [train(replace(SWEEP_CFG, loss=row.loss, seed=s), easy_sbm) for s in (0, 1)]
            assert row.runs == clean
            assert row.mean_acc == np.mean([r.test_acc for r in clean])

    def test_single_seed_zero_std(self, easy_sbm):
        rows = robustness_sweep(easy_sbm, [0.0, 0.5], replace(SWEEP_CFG, epochs=10), seeds=1)
        assert [r.std_acc for r in rows] == [0.0] * 4

    def test_repeat_identical(self, easy_sbm, tmp_path):
        cfg = replace(SWEEP_CFG, epochs=10)
        a = robustness_sweep(easy_sbm, [0.0, 0.5], cfg, seeds=2)
        b = robustness_sweep(easy_sbm, [0.0, 0.5], cfg, seeds=2)
        assert a == b
        write_sweep_csv(tmp_path / "a.csv", a)
        write_sweep_csv(tmp_path / "b.csv", b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_population_std(self, easy_sbm):
        rows = robustness_sweep(easy_sbm, [0.0, 0.5], replace(SWEEP_CFG, epochs=10), seeds=3)
        for row in rows:
            accs = [r.test_acc for r in row.runs]
            assert len(accs) == row.seeds == 3
            assert row.mean_acc == np.mean(accs)
            assert row.std_acc == np.std(accs)

    def test_errors_tagged_with_ratio_and_seed(self, easy_sbm, monkeypatch):
        clean_edges = easy_sbm.graph.num_edges

        def fail_on_poisoned_seed_one(cfg, data):
            if cfg.seed == 1 and data.graph.num_edges > clean_edges:
                raise TrainingError("non-finite loss at epoch 7")
            return train(cfg, data)
        monkeypatch.setattr(attack_mod, "train", fail_on_poisoned_seed_one)
        with pytest.raises(TrainingError, match="^ratio 0.5 seed 1: non-finite loss at epoch 7$"):
            robustness_sweep(easy_sbm, [0.0, 0.5], replace(SWEEP_CFG, epochs=1), seeds=3)

    def test_train_called_per_run_in_grid_order(self, easy_sbm, monkeypatch):
        # a hook on the module's train attribute sees every run, in (ratio,
        # seed, ce then jc) order, and the rows keep those results
        ratios, m = [0.2, 0.5], easy_sbm.graph.num_edges
        calls, results = [], {}

        def recorded(cfg, data):
            result = train(cfg, data)
            assert result.params
            ratio = next(r for r in ratios if data.graph.num_edges == m + int(r * m))
            calls.append((ratio, cfg.seed, cfg.loss))
            results.setdefault((ratio, cfg.loss), []).append(result)
            return result
        monkeypatch.setattr(attack_mod, "train", recorded)
        rows = robustness_sweep(easy_sbm, ratios, replace(SWEEP_CFG, epochs=5, seed=3), seeds=2)
        assert calls == [(r, s, loss) for r in ratios for s in (3, 4) for loss in ("ce", "jc")]
        assert [(r.ratio, r.loss) for r in rows] == [(r, loss) for r in ratios for loss in ("ce", "jc")]
        for row in rows:
            assert row.runs == results[(row.ratio, row.loss)]
            assert all(run.params == {} for run in row.runs)

    def test_accuracy_degrades_with_noise(self, hard_feature_sbm):
        rows = robustness_sweep(hard_feature_sbm, [0.2, 1.0], SWEEP_CFG, seeds=2)
        acc = {(r.ratio, r.loss): r.mean_acc for r in rows}
        assert acc[(1.0, "ce")] <= acc[(0.2, "ce")]
        assert acc[(1.0, "jc")] <= acc[(0.2, "jc")]

    def test_oversized_model_rejected_before_any_attack(self, easy_sbm, monkeypatch):
        calls = []

        def spy(g, spec):
            calls.append(spec)
            return random_attack(g, spec)
        monkeypatch.setattr(attack_mod, "random_attack", spy)
        with pytest.raises(ValueError, match=r"^hidden = 4611686018427387904, layers = 2: the "
                                             r"model's weights do not fit \("):
            robustness_sweep(easy_sbm, [0.5], replace(SWEEP_CFG, hidden=2**62, loss="jc"), seeds=1)
        assert calls == []

    def test_unsorted_ratios_rejected(self, easy_sbm):
        # a repeated ratio would train its runs twice and give two equal rows
        for ratios in ([1.0, 0.2], [0.0, 0.5, 0.5, 1.0]):
            with pytest.raises(ValueError, match="sorted"):
                robustness_sweep(easy_sbm, ratios, SWEEP_CFG, seeds=1)

    def test_empty_ratios_rejected(self, easy_sbm):
        with pytest.raises(ValueError, match="no ratios"):
            robustness_sweep(easy_sbm, [], SWEEP_CFG, seeds=1)

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_seed_count_below_one_rejected(self, easy_sbm, monkeypatch, seeds):
        def never(*args, **kwargs):
            raise AssertionError("train ran before the seed count was checked")
        monkeypatch.setattr(attack_mod, "train", never)
        with pytest.raises(ValueError, match="^seeds must be >= 1$"):
            robustness_sweep(easy_sbm, [0.5], SWEEP_CFG, seeds=seeds)

    def test_clean_comparison_needs_a_seed(self, easy_sbm, monkeypatch):
        # ratio 0 alone is the clean ce-vs-jc comparison; zero seeds is refused there too
        def never(*args, **kwargs):
            raise AssertionError("train ran before the seed count was checked")
        monkeypatch.setattr(attack_mod, "train", never)
        with pytest.raises(ValueError, match="^seeds must be >= 1$"):
            robustness_sweep(easy_sbm, [0.0], SWEEP_CFG, seeds=0)

    def test_csv_layout(self, tmp_path):
        rows = [SweepRow(0.2, "ce", 0.5, 0.01, 2, []), SweepRow(0.2, "jc", 0.6, 0.02, 2, [])]
        write_sweep_csv(tmp_path / "s.csv", rows)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "ratio,loss,mean_acc,std_acc,seeds"
        assert len(lines) == 3


class TestRunCell:
    def test_one_poisoning_then_ce_and_jc_per_cell_in_grid_order(self, easy_sbm, monkeypatch):
        # spies on the module's random_attack and train: each (ratio, seed)
        # cell poisons once, then trains ce and jc with its seed on that graph
        events = []

        def poison(g, spec):
            events.append((("poison", spec.ratio, spec.seed), random_attack(g, spec)))
            return events[-1][1]

        def trained(cfg, data):
            events.append(((cfg.loss, cfg.seed), data.graph))
            return train(cfg, data)
        monkeypatch.setattr(attack_mod, "random_attack", poison)
        monkeypatch.setattr(attack_mod, "train", trained)
        ratios = [0.0, 0.5]
        robustness_sweep(easy_sbm, ratios, replace(SWEEP_CFG, epochs=3, seed=3), seeds=2)
        assert [step for step, _ in events] == [
            step for r in ratios for s in (3, 4) for step in (("poison", r, s), ("ce", s), ("jc", s))]
        for i in range(0, len(events), 3):
            poisoned = events[i][1]
            assert events[i + 1][1] is poisoned and events[i + 2][1] is poisoned

    def test_jc_failure_in_the_second_cell_names_it(self, easy_sbm, monkeypatch):
        calls = []

        def fail_fourth_run(cfg, data):
            calls.append((cfg.loss, cfg.seed))
            if len(calls) == 4:
                raise TrainingError("non-finite loss at epoch 2")
            return train(cfg, data)
        monkeypatch.setattr(attack_mod, "train", fail_fourth_run)
        with pytest.raises(TrainingError, match=r"^ratio 0\.2 seed 6: non-finite loss at epoch 2$"):
            robustness_sweep(easy_sbm, [0.2, 0.5], replace(SWEEP_CFG, epochs=2, seed=5), seeds=2)
        assert calls == [("ce", 5), ("jc", 5), ("ce", 6), ("jc", 6)]

    def test_sweep_rows_are_built_from_cells(self, easy_sbm):
        cfg, ratios, seeds = replace(SWEEP_CFG, epochs=5, seed=2), [0.0, 0.5], (2, 3)
        cells = {(r, s): run_cell(easy_sbm, cfg, r, s) for r in ratios for s in seeds}
        assert all(run.params == {} for cell in cells.values() for run in cell)
        expected = []
        for r in ratios:
            for j, loss in enumerate(("ce", "jc")):
                runs = [cells[(r, s)][j] for s in seeds]
                accs = [run.test_acc for run in runs]
                expected.append(SweepRow(r, loss, float(np.mean(accs)), float(np.std(accs)), 2, runs))
        rows = robustness_sweep(easy_sbm, ratios, cfg, seeds=2)
        assert rows == expected
        assert [row.runs for row in rows] == [row.runs for row in expected]
