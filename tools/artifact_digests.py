"""Print the sha256 digest of every artifact of a set of ``coopdiff run``s.

Runs ``coopdiff run --config C --method m`` for each listed method, from
the ``src`` of the checkout this script lives in, under a temporary
``COOPDIFF_OUTPUT_ROOT``, and prints one ``sha256  method/file`` line per
file the runs wrote, sorted. Each method is then drawn once more with
``coopdiff sample`` (from the run's policies for a learned method), whose
output prints as ``sample/<method>.csv`` (``.pgm`` for shapes16). For a
shapes16 config it also runs ``train-score`` and ``train-classifier``,
whose checkpoints print as ``fits/score.npz`` and
``fits/classifier.npz``. Two checkouts that write
byte-identical artifacts print the same lines, so comparing them is a
``diff``:

    python3 tools/artifact_digests.py --config examples-configs/gmm2d.cfg \\
        --methods joint,controlwise,uncontrolled,cdps,poe > after.txt

``--set key=value`` (repeatable) replaces or adds a config key first, as
the benchmark's smoke configs do. A failed run ends the script with the
run's exit code and its stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LEARNED = ("joint", "controlwise")


def with_overrides(text: str, overrides: dict) -> str:
    """``text`` with each override's key line dropped and ``key = value``
    appended."""
    lines = [line for line in text.splitlines()
             if line.split("#", 1)[0].split("=", 1)[0].strip() not in overrides]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    return "\n".join(lines) + "\n"


def task_of(text: str) -> str:
    """The ``task`` a config text sets (the default is gmm2d)."""
    for line in text.splitlines():
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep and key.strip() == "task":
            return value.strip()
    return "gmm2d"


def digests(root: Path) -> list[str]:
    """``sha256  path`` for every file under ``root``, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}"
            for path in sorted(p for p in root.rglob("*") if p.is_file())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--methods", required=True,
                        help="comma-separated methods to run")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--set needs KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "runs"
        config = Path(args.config)
        if overrides:
            config = Path(tmp) / config.name
            config.write_text(with_overrides(Path(args.config).read_text(),
                                             overrides))
        env["COOPDIFF_OUTPUT_ROOT"] = str(root)
        methods = args.methods.split(",")
        verbs = [["run", "--config", str(config), "--method", method,
                  "--output-dir", method] for method in methods]
        # ``sample`` takes its method from the config, so each method
        # gets a config of its own
        ext = "pgm" if task_of(config.read_text()) == "shapes16" else "csv"
        for method in methods:
            own = Path(tmp) / f"sample-{method}.cfg"
            own.write_text(with_overrides(config.read_text(),
                                          {"method": method}))
            verbs.append(["sample", "--config", str(own), "--out",
                          str(root / "sample" / f"{method}.{ext}")])
            if method in LEARNED:
                verbs[-1] += ["--policies", str(root / method)]
        if ext == "pgm":
            verbs += [[verb, "--config", str(config), "--out",
                       str(root / "fits" / f"{name}.npz")]
                      for verb, name in (("train-score", "score"),
                                         ("train-classifier", "classifier"))]
        for verb in verbs:
            proc = subprocess.run([sys.executable, "-m", "coopdiff", *verb],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
