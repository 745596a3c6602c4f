"""tools/bench_pairs.py on two fake checkouts whose ``bench/run.py``
prints canned output in the real one's format."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

FAKE_RUN = '''\
import argparse, json, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
side = Path.cwd().name
with open(Path.cwd().parent / "log.txt", "a") as fh:
    fh.write(f"{side} {a.workload} {a.seed} {a.seconds} {a.trace}\\n")
seed = int(a.seed)
rss = {"parent": 86.0 + seed % 3, "change": 79.0 + seed % 2}[side]
rss += 10.0 * (seed == 13 and side == "change")   # one pair is worse
rate = {"parent": 3.0, "change": 3.0 + 0.1 * (seed % 2)}[side]
print("env " + json.dumps({"seed": seed, "side": side}))
print("failed_frac = 0/4 = 0")
print(f"ops = {4 + seed % 2} untraced, 0 traced; op_s_tail is p90.0")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "peak_rss_mb": {"value": rss, "unit": "MiB"},
    "ops_per_s": {"value": rate, "unit": "1/s"}}}))
'''


def fake_checkout(root: Path) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 20,
        "workloads": [{"name": "w-train"}, {"name": "w-sample"}],
        "end_to_end": [
            {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
             "bound": 0.1},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25}],
    }))
    return root


def test_pairs_alternate_sides_and_summarize(tmp_path):
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--seeds", "10-13", "--workloads", "w-train",
                             "--out", str(out)]) == 0
    log = (tmp_path / "log.txt").read_text().split("\n")[:-1]
    # one run per side and seed, the side that goes first alternating,
    # each with --seconds 20 --trace 0
    assert log == ["parent w-train 10 20 0", "change w-train 10 20 0",
                   "change w-train 11 20 0", "parent w-train 11 20 0",
                   "parent w-train 12 20 0", "change w-train 12 20 0",
                   "change w-train 13 20 0", "parent w-train 13 20 0"]
    report = json.loads(out.read_text())
    assert report["seeds"] == [10, 11, 12, 13]
    assert len(report["runs"]) == 8
    first = report["runs"][0]
    assert first == {"workload": "w-train", "seed": 10, "side": "parent",
                     "order": 0, "metrics": {"peak_rss_mb": 87.0,
                                             "ops_per_s": 3.0},
                     "failed": 0, "attempted": 4, "ops": 4,
                     "env": {"seed": 10, "side": "parent"}}
    summary = report["summary"]["w-train"]
    rss = summary["metrics"]["peak_rss_mb"]
    # parent 87, 88, 86, 87; change 79, 80, 79, 90
    assert rss["parent_median"] == 87.0
    assert rss["change_median"] == 79.5
    assert rss["parent_quartiles"] == [86.75, 87.25]
    assert rss["better_pairs"] == "3/4"
    rate = summary["metrics"]["ops_per_s"]
    assert rate["better_pairs"] == "2/4" and rate["better"] == "higher"
    assert summary["ops"] == {"parent": [4, 5, 4, 5], "change": [4, 5, 4, 5]}
    assert summary["failed"] == {"parent": 0, "change": 0}
    # the checkouts' bench/ is read, never written
    assert sorted(p.name for p in (parent / "bench").iterdir()) == ["run.py"]


def test_a_failing_run_ends_the_script(tmp_path):
    # the change fails at seed 2, its third run: the script ends, and the
    # report written after each finished run holds the first two runs and
    # the summary of their pair, and no temporary file is left
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change")
    run = change / "bench" / "run.py"
    run.write_text(FAKE_RUN.replace("seed = int(a.seed)\n",
                                    "seed = int(a.seed)\n"
                                    "if seed == 2:\n"
                                    "    raise SystemExit(2)\n"))
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit, match="exited 2"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--seeds", "1-2", "--workloads", "w-train",
                          "--out", str(out)])
    report = json.loads(out.read_text())
    assert [(r["seed"], r["side"]) for r in report["runs"]] == [
        (1, "parent"), (1, "change")]
    rss = report["summary"]["w-train"]["metrics"]["peak_rss_mb"]
    assert rss["better_pairs"] == "1/1" and rss["change_median"] == 80.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "change", "log.txt", "o.json", "parent"]


def test_seed_ranges():
    assert bench_pairs.parse_seeds("4101-4105") == [4101, 4102, 4103, 4104,
                                                   4105]
    assert bench_pairs.parse_seeds("7") == [7]


@pytest.mark.parametrize("text", ["5-3", "x", "3-x", "-3", "2--1", ""])
def test_a_bad_seed_range_exits_2_before_any_run(text, tmp_path, capsys):
    # an empty range, a non-integer bound or a negative seed
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change")
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as err:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--seeds", text, "--out", str(out)])
    assert err.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "log.txt").exists() and not out.exists()
