"""tools/artifact_digests.py on tiny configs: the digests of two runs of
the same config agree, and a shapes16 config also digests the two fits."""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
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
    assert not any(f.startswith("fits/") for f in files)


def test_a_shapes16_config_also_digests_the_fits(tmp_path, monkeypatch,
                                                 capsys):
    config = tmp_path / "shapes.cfg"
    config.write_text(SHAPES_TINY)
    lines = digest_lines(config, "uncontrolled", tmp_path, monkeypatch, capsys)
    files = [line.split("  ", 1)[1] for line in lines]
    assert files == sorted(files)
    assert {"fits/score.npz", "fits/classifier.npz",
            "uncontrolled/metrics.csv"} <= set(files)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
