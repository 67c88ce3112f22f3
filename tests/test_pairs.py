"""tools/pairs.py's statistics, and the committed BENCH_*.json files."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = BENCHMARK["end_to_end"]


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_pairs()


def line(attempted=2, failed=0, **values):
    """A run's final JSON line, parsed, as perfbench/run.py prints it."""
    units = {spec["name"]: spec["unit"] for spec in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def test_statistics_on_canned_lines():
    canned = [  # (base, change) setup_s and test_acc of five pairs
        ((0.40, 0.80), (0.38, 0.80)),
        ((0.42, 0.80), (0.42, 0.81)),
        ((0.44, 0.80), (0.41, 0.79)),
        ((0.39, 0.80), (0.40, 0.80)),
        ((0.50, 0.80), (0.37, 0.80)),
    ]
    runs = [{"first": "base" if i % 2 == 0 else "change",
             "base": line(setup_s=b[0], test_acc=b[1]),
             "change": line(setup_s=c[0], test_acc=c[1], failed=int(i == 4))}
            for i, (b, c) in enumerate(canned)]
    # a run without a metric leaves it out of its side and of the pair's win
    del runs[3]["change"]["metrics"]["setup_s"]
    stats = pairs.summarize(runs, END_TO_END)
    assert set(stats) == {spec["name"] for spec in END_TO_END}
    setup = stats["setup_s"]
    assert (setup["unit"], setup["better"], setup["pairs"]) == ("s", "lower", 4)
    # base 0.39 0.40 0.42 0.44 0.50: median 0.42, inclusive quartiles 0.40 and 0.44
    assert setup["base_median"] == pytest.approx(0.42)
    assert setup["base_iqr"] == pytest.approx(0.04)
    # change 0.37 0.38 0.41 0.42: median 0.395, quartiles 0.3775 and 0.4125
    assert setup["change_median"] == pytest.approx(0.395)
    assert setup["change_iqr"] == pytest.approx(0.035)
    assert (setup["change_wins"], setup["base_wins"]) == (3, 0)  # pair 1 is a tie
    # a base IQR of 0.04 is within the 0.25 bound of 0.42; the medians are too
    assert setup["verdict"] == "within bound"
    acc = stats["test_acc"]  # higher is better
    assert (acc["pairs"], acc["change_wins"], acc["base_wins"]) == (5, 1, 1)
    assert (acc["base_median"], acc["base_iqr"]) == (0.80, 0.0)
    assert acc["verdict"] == "within bound"
    # no run reports run_s
    assert stats["run_s"] == {"unit": "s", "better": "lower", "pairs": 0, "base_median": None,
                              "base_iqr": None, "change_median": None, "change_iqr": None,
                              "change_wins": 0, "base_wins": 0, "verdict": None}
    assert pairs.operations(runs) == {"base": {"attempted": 10, "failed": 0},
                                      "change": {"attempted": 10, "failed": 1}}


@pytest.mark.parametrize("spec,base,change,expected", [
    # lower is better, bound 0.25: base median 1.0
    ({"better": "lower", "bound": 0.25}, [0.9, 1.0, 1.1], [1.1, 1.2, 1.3], "within bound"),
    ({"better": "lower", "bound": 0.25}, [0.9, 1.0, 1.1], [1.2, 1.3, 1.4], "worse"),
    # an IQR of 0.5 is wider than the bound of 0.25: the medians cannot tell
    ({"better": "lower", "bound": 0.25}, [0.5, 1.0, 1.5], [2.0, 1.9, 0.4], "unresolved"),
    # unless every change run reads better than every base run
    ({"better": "lower", "bound": 0.25}, [0.5, 1.0, 1.5], [0.1, 0.2, 0.4], "better"),
    ({"better": "higher", "bound": 0.08}, [0.80, 0.80, 0.80], [0.70, 0.72, 0.80], "worse"),
    ({"better": "higher", "bound": 0.08}, [0.80, 0.80], [0.81], None),
])
def test_verdict(spec, base, change, expected):
    assert pairs.verdict(spec, base, change) == expected


def epoch_pairs(base, change):
    """Pairs of runs that report epoch_ms only, base[i] against change[i]."""
    return [{"first": pairs.SIDES[i % 2], "base": line(epoch_ms=b), "change": line(epoch_ms=c)}
            for i, (b, c) in enumerate(zip(base, change))]


BASE_MS = [25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0, 32.0, 33.0, 34.0]  # median 29.5, IQR 4.5


@pytest.mark.parametrize("change, wins, gap, met", [
    # every pair lower by 5.5: the gap of the medians exceeds the base IQR
    ([b - 5.5 for b in BASE_MS], 10, 5.5, True),
    # 8 of 10 pairs lower, below the 9 the rule asks for, though the gap is wide
    ([b - 10.0 for b in BASE_MS[:8]] + [b + 1.0 for b in BASE_MS[8:]], 8, 10.0, False),
    # 10 of 10 lower, but by 4.0, inside the base's 4.5 IQR
    ([b - 4.0 for b in BASE_MS], 10, 4.0, False),
])
def test_claim_rule_on_canned_pairs(change, wins, gap, met):
    entry = pairs.summarize(epoch_pairs(BASE_MS, change), END_TO_END)["epoch_ms"]
    assert pairs.claim("pubmed-jc", "epoch_ms", entry) == {
        "workload": "pubmed-jc", "metric": "epoch_ms", "pairs": 10, "change_wins": wins,
        "median_gap": pytest.approx(gap), "base_iqr": pytest.approx(4.5), "met": met}


def test_claim_gap_reads_in_the_better_direction():
    # test_acc is better higher: a change higher in every pair has a positive gap
    runs = [{"first": "base", "base": line(test_acc=0.80 + 0.001 * i),
             "change": line(test_acc=0.90 + 0.001 * i)} for i in range(10)]
    entry = pairs.summarize(runs, END_TO_END)["test_acc"]
    c = pairs.claim("cora-jc", "test_acc", entry)
    assert c["median_gap"] == pytest.approx(0.1) and c["met"]


@pytest.mark.parametrize("claim, wrong", [
    ("nope:epoch_ms", "unknown workload 'nope'"),
    ("pubmed-jc:epoch", "unknown metric 'epoch'"),
    ("pubmed-jc", "unknown metric ''"),
])
def test_unknown_claim_name_exits_2_before_any_extraction(tmp_path, capsys, claim, wrong):
    scratch = tmp_path / "scratch"
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--base", "HEAD", "--pr", "0", "--scratch", str(scratch), "--claim", claim])
    assert exit_info.value.code == 2
    assert wrong in capsys.readouterr().err
    assert not scratch.exists()


def test_main_writes_the_claim_of_the_named_workload(tmp_path, monkeypatch, capsys):
    # canned runs: the change is 5 ms faster on pubmed-jc only; the claim
    # must read pubmed-jc's pairs, not the last workload's
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "extract", lambda rev, scratch: (rev, Path(rev)))

    def run_once(copy, workload, seed, seconds):
        faster = 5.0 if (str(copy), workload) == ("change", "pubmed-jc") else 0.0
        return line(epoch_ms=20.0 + seed - faster), {"cpu": "canned"}
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--base", "base", "--change", "change", "--pr", "0",
                       "--scratch", str(tmp_path), "--claim", "pubmed-jc:epoch_ms"]) == 0
    doc = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert doc["claim"] == {"workload": "pubmed-jc", "metric": "epoch_ms", "pairs": 10,
                            "change_wins": 10, "median_gap": 5.0, "base_iqr": 4.5, "met": True}
    assert "claim pubmed-jc epoch_ms: change better in 10 of 10 pairs" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_file_parses_and_names_only_benchmark_metrics(path):
    doc = json.loads(path.read_text())
    names = {spec["name"] for spec in END_TO_END}
    assert doc["seconds"] == BENCHMARK["run_seconds"]
    assert list(doc["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    for result in doc["workloads"].values():
        assert len(result["pairs"]) == pairs.PAIRS
        assert set(result["end_to_end"]) == names
        for i, pair in enumerate(result["pairs"]):
            assert (pair["seed"], pair["first"]) == (i + 1, pairs.SIDES[i % 2])
            for side in pairs.SIDES:
                assert set(pair[side]["metrics"]) <= names
        # the summary is the one the pairs give
        assert result["end_to_end"] == pairs.summarize(result["pairs"], END_TO_END)
        assert result["operations"] == pairs.operations(result["pairs"])
    assert {"cpu", "nproc", "python", "numpy"} <= set(doc["machine"])
    if "claim" in doc:  # the claim is the one its workload's summary gives
        c = doc["claim"]
        entry = doc["workloads"][c["workload"]]["end_to_end"][c["metric"]]
        assert c == pairs.claim(c["workload"], c["metric"], entry)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="the checkout has no .git")
def test_extract_creates_a_missing_scratch_directory(tmp_path):
    scratch = tmp_path / "missing" / "nested"
    sha, copy = pairs.extract("HEAD", scratch)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert sha == head and copy.parent == scratch
    assert (copy / "tools" / "pairs.py").is_file()
