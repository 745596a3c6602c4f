"""coopdiff benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload shapes16-train --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of a traced run instead. The
lines before it name every metric with its unit, the failed fraction and
the environment. Everything a run writes goes under ``.bench_out/``: the
run's artifacts into a temporary directory removed at exit, and the
result (plus, for a traced run, every span) into a JSON file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
OUT_DIR = Path(".bench_out")


def blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads(np)
    return info


def _openblas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "coopdiff").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "coopdiff").is_dir():
        print(f"error: no coopdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work_dir = Path(tmp).resolve()
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            with tracer.installed():
                run = workload(args.seed, args.seconds, work_dir, tracer)
        else:
            run = workload(args.seed, args.seconds, work_dir)

    _, tail_pct = workloads.tail(run.op_s)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "ops": len(run.op_s),
        "traced_ops": len(run.traced_ops),
        "op_s_tail_percentile": tail_pct,
        "failed_frac": run.failed / run.attempted,
        "setup_s": run.setup_s,
        "op_s": run.op_s,
        "traced_op_s": run.traced_op_s,
        "problems": run.problems,
        "info": run.info,
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer, run.traced_ops)
        metrics["trace.overhead_s"] = (statistics.median(run.traced_op_s)
                                       - statistics.median(run.op_s))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path)
    else:
        metrics = run.end_to_end()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 2
    report["metrics"] = metrics
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"failed_frac = {run.failed}/{run.attempted} = {report['failed_frac']:.4g}")
    print(f"ops = {len(run.op_s)} untraced, {len(run.traced_ops)} traced; "
          f"op_s_tail is p{tail_pct:.1f}")
    for key, value in sorted(run.info.items()):
        print(f"{key} = {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
