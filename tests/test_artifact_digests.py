"""tools/artifact_digests.py on tiny configs: the digests of two runs of
the same config agree, each method is also digested through ``sample``,
a shapes16 config also digests the two fits, and a joint shapes16 run
writes the same bytes at one and at two BLAS threads."""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import artifact_digests  # noqa: E402

GMM_TINY = """\
task = gmm2d
seed = 11
mask = halves
grid.steps = 10
soc.target = 2.0 -1.5
plan.updates = 2
plan.batch = 8
policy.hidden = 8
policy.gain_hidden = 4
eval_samples = 16
eval_chunk = 16
"""

SHAPES_TINY = """\
task = shapes16
num_agents = 2
mask = h-stripes
grid.steps = 4
grid.eps = 0.02
shapes.per_class = 8
score.hidden = 8
score.train_steps = 2
classifier.hidden = 8
classifier.max_steps = 1
classifier.target_accuracy = 0.01
eval_samples = 8
eval_chunk = 8
"""


def digest_lines(config, methods, tmp_path, monkeypatch, capsys):
    """The tool's output lines, with its temporary files under
    ``tmp_path``; it leaves none behind."""
    scratch = tmp_path / "tmp"
    scratch.mkdir(exist_ok=True)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert artifact_digests.main(["--config", str(config),
                                  "--methods", methods]) == 0
    assert list(scratch.iterdir()) == []
    return capsys.readouterr().out.splitlines()


def test_two_runs_of_a_config_print_the_same_digests(tmp_path, monkeypatch,
                                                     capsys):
    config = tmp_path / "gmm.cfg"
    config.write_text(GMM_TINY)
    first = digest_lines(config, "joint,uncontrolled", tmp_path, monkeypatch,
                         capsys)
    assert first == digest_lines(config, "joint,uncontrolled", tmp_path,
                                 monkeypatch, capsys)
    files = [line.split("  ", 1)[1] for line in first]
    assert "joint/policy_agent0.npz" in files
    assert "uncontrolled/metrics.csv" in files
    assert {"sample/joint.csv", "sample/uncontrolled.csv"} <= set(files)
    assert not any(f.startswith("fits/") for f in files)


def test_a_shapes16_config_also_digests_the_fits(tmp_path, monkeypatch,
                                                 capsys):
    config = tmp_path / "shapes.cfg"
    config.write_text(SHAPES_TINY)
    lines = digest_lines(config, "uncontrolled", tmp_path, monkeypatch, capsys)
    files = [line.split("  ", 1)[1] for line in lines]
    assert files == sorted(files)
    assert {"fits/score.npz", "fits/classifier.npz",
            "uncontrolled/metrics.csv", "sample/uncontrolled.pgm"} <= set(files)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)


# policy-sized first layers (128 hidden units over 3 x 256 + 16 inputs)
# at batch 16, on few score steps, shapes and updates: about 1.5 s a side
THREADS_SETTINGS = ("seed=3", "score.train_steps=30", "score.hidden=32",
                    "shapes.per_class=60", "grid.steps=6", "plan.updates=3",
                    "plan.batch=16", "policy.hidden=128", "eval_samples=32",
                    "eval_chunk=32")


def test_run_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the tool in a fresh process per thread count, since OpenBLAS reads
    # its thread count once, at import
    def digests(threads):
        scratch = tmp_path / f"threads-{threads}"
        scratch.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "TMPDIR": str(scratch), "PYTHONDONTWRITEBYTECODE": "1"}
        sets = [arg for kv in THREADS_SETTINGS for arg in ("--set", kv)]
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "artifact_digests.py"),
             "--config", str(ROOT / "bench" / "configs" / "shapes16.cfg"),
             "--methods", "joint", *sets],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert list(scratch.iterdir()) == []
        return out.stdout.splitlines()

    one = digests(1)
    assert len(one) == 11
    assert "joint/policy_agent0.npz" in {line.split("  ", 1)[1]
                                         for line in one}
    assert one == digests(2)
