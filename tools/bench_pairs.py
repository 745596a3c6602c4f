"""Run the benchmark in alternating pairs on a parent checkout and a change.

    python3 tools/bench_pairs.py --parent ../parent --seeds 4201-4205 \\
        --workloads shapes16-train,shapes16-sample --out BENCH_15.json

For each workload and seed it runs the command of ``BENCHMARK.json`` with
``--workload W --seed S --seconds <run_seconds> --trace 0`` once in the
parent checkout and once in the change checkout (``--change``, by default
the one this script lives in), each from its own root, and alternates
which side goes first from one seed to the next. It edits neither
checkout; each run writes only its own ``.bench_out/``.

The output file holds every run (side, order, end-to-end metrics,
``failed`` and ``attempted``, ``ops``: the number of timed operations,
and the environment the run printed) and, per workload and metric, each
side's median, the parent's quartiles and the number of pairs in which
the change is better. It is rewritten whole after every finished run, so
a run that fails, which ends the script with its stderr, leaves the runs
before it and the summary of their complete pairs in the file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """The seeds A to B of ``A-B``, or the one seed of ``A``; a ValueError
    unless A and B are integers with 0 <= A <= B."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise ValueError(f"--seeds {text!r}: not A-B or A with integer "
                         "seeds") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"--seeds {text!r}: need 0 <= A <= B")
    return list(range(lo, hi + 1))


def parse_run(stdout: str) -> dict:
    """The metrics, failure counts, timed operations and environment of
    one ``bench/run.py --trace 0`` output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "ops": None,
        "env": None,
    }
    for line in lines:
        if line.startswith("env "):
            run["env"] = json.loads(line[len("env "):])
        elif line.startswith("ops = "):
            run["ops"] = int(line.split()[2])
    return run


def run_once(command, checkout: Path, workload: str, seed: int,
             seconds) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {' '.join(args)} exited "
                         f"{proc.returncode}")
    return parse_run(proc.stdout)


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list, spec: dict) -> dict:
    """Per workload and metric: each side's median, the parent's
    quartiles, and in how many of the pairs the change is better."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        metrics = {}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            better = sum((c < b) if lower else (c > b)
                         for b, c in zip(parent, change))
            metrics[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_quartiles": quartiles(parent),
                "better_pairs": f"{better}/{len(pairs)}",
            }
        summary[workload] = {
            "metrics": metrics,
            "ops": {side: [p[side]["ops"] for p in pairs] for side in SIDES},
            "failed": {side: sum(p[side]["failed"] for p in pairs)
                       for side in SIDES},
        }
    return summary


def write_report(path: Path, report: dict) -> None:
    """Write ``report`` to ``path`` whole: a temporary file beside it is
    moved over it, so a reader never sees a partial report."""
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(json.dumps(report, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the parent commit's checkout")
    parser.add_argument("--change", type=Path, default=CHECKOUT,
                        help="root of the changed checkout (default: this one)")
    parser.add_argument("--seeds", required=True, help="A-B, or one seed A")
    parser.add_argument("--workloads",
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as err:
        parser.error(str(err))
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    report = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": workloads,
        "runs": runs,
    }
    for workload in workloads:
        for j, seed in enumerate(seeds):
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(spec["command"], roots[side], workload, seed,
                               spec["run_seconds"])
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "order": position, **run})
                report["summary"] = summarize(runs, spec)
                write_report(args.out, report)
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps(run["metrics"]), flush=True)
    for workload, s in report["summary"].items():
        for name, m in s["metrics"].items():
            print(f"{workload} {name}: parent {m['parent_median']:.6g} -> "
                  f"change {m['change_median']:.6g} {m['unit']} "
                  f"(better in {m['better_pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
