"""tools/pairs.py's statistics, and the committed BENCH_*.json files."""

import importlib.util
import json
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
