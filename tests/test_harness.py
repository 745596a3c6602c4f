"""Dataset generation, classifier training, configs, grid export, runs, CLI."""
import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coopdiff
from coopdiff import optimize, tape
from coopdiff.aggregation import make_mask
from coopdiff.checkpoint import load_checkpoint, save_checkpoint
from coopdiff.control import make_policy
from coopdiff.harness import (
    ConfigError,
    build_assets,
    generate_shapes,
    load_config,
    make_policies,
    normalized_text,
    parse_config_text,
    run_experiment,
    train_classifier,
    with_overrides,
)
from coopdiff.harness.classifier import (
    ClassifierTrainingError,
    accuracy,
    batch_loss,
)
from coopdiff.harness.gridio import (
    annotate_region,
    export_grid,
    quantize,
    read_pgm,
    tile_grid,
    write_pgm,
)
from coopdiff.harness.shapes import CLASS_NAMES, IMAGE_H, IMAGE_W, ShapesDataset
from coopdiff.harness.cli import main as cli_main
from coopdiff.nn import Mlp
from coopdiff.scores import MlpScore
from coopdiff.sde import derive_rng
import opgraphs as ops
from oracles import confusion_matrix, taped_classifier_loss


GMM_SMOKE = """
task = gmm2d
method = uncontrolled
seed = 11
mask = halves
grid.steps = 20
grid.eps = 0.001
soc.control_weight = 0.05
soc.running_scale = 0.1
soc.target = 2.0 -1.5
plan.updates = 6
plan.batch = 8
plan.lr = 0.04
policy.hidden = 16 16
policy.gain_hidden = 8
eval_samples = 96
eval_chunk = 64
output_dir = {out}
"""


# ---------------------------------------------------------------------------
# shapes dataset
# ---------------------------------------------------------------------------

def test_shapes_dataset_invariants():
    ds = generate_shapes(40, seed=3)
    assert ds.images.shape == (160, IMAGE_H * IMAGE_W)
    assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0
    counts = np.bincount(ds.labels, minlength=4)
    np.testing.assert_array_equal(counts, [40] * 4)
    overlap = set(ds.train_idx.tolist()) & set(ds.heldout_idx.tolist())
    assert not overlap
    assert len(ds.train_idx) + len(ds.heldout_idx) == 160


def test_shapes_dataset_deterministic():
    a = generate_shapes(20, seed=5)
    b = generate_shapes(20, seed=5)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_shapes(20, seed=6)
    assert not np.array_equal(a.images, c.images)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset():
    return generate_shapes(120, seed=9)


@pytest.fixture(scope="module")
def trained_classifier(small_dataset):
    return train_classifier(small_dataset, seed=9, max_steps=3000)


def test_classifier_reaches_heldout_target(small_dataset, trained_classifier):
    held = small_dataset.heldout()
    assert accuracy(trained_classifier, *held) >= 0.95


def test_label_permutation_permutes_confusion(small_dataset, trained_classifier):
    x, y = small_dataset.heldout()
    cm = confusion_matrix(trained_classifier, x, y)
    perm = np.array([2, 0, 3, 1])
    cm_perm = confusion_matrix(trained_classifier, x, perm[y])
    np.testing.assert_array_equal(cm_perm, cm[np.argsort(perm), :])


@pytest.mark.parametrize("rows", [16, 48])
def test_classifier_batch_loss_equals_its_tape_reference_bit_for_bit(
        rows, small_dataset, monkeypatch):
    # the array fit's step against the taped batch loss of the same
    # network: loss and every weight and bias gradient are bit-equal, for
    # a batch narrower than the 32-wide hidden layer (an OuterSum term
    # folded by tape.dense) and for a wider one
    model = Mlp([IMAGE_H * IMAGE_W, 32, 4], derive_rng(8, 0))
    x, y = small_dataset.train()
    pick = derive_rng(8, rows).integers(0, x.shape[0], size=rows)
    folds = []
    fold = tape.OuterSum.array
    monkeypatch.setattr(tape.OuterSum, "array",
                        lambda self: folds.append(self) or fold(self))
    loss, grads = batch_loss(model, x[pick], y[pick])
    assert bool(folds) == (rows < 32)
    ref = taped_classifier_loss(model, x[pick], y[pick])
    tape.backward(ref)
    assert loss == float(ref.value)
    assert len(grads) == len(model.params())
    for p, g in zip(model.params(), grads):
        assert type(g) is np.ndarray and np.array_equal(g, p.grad), p.name


def test_degenerate_dataset_fails_training():
    flat = np.zeros((200, IMAGE_H * IMAGE_W))
    labels = np.arange(200) % 4
    idx = np.arange(200)
    ds = ShapesDataset(images=flat, labels=labels, train_idx=idx[40:],
                       heldout_idx=idx[:40])
    with pytest.raises(ClassifierTrainingError) as err:
        train_classifier(ds, seed=0, max_steps=400)
    assert err.value.curve  # the failure carries the training curve


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_parse_and_normalise_round_trip():
    cfg = parse_config_text(GMM_SMOKE.format(out="x"))
    assert cfg.task == "gmm2d" and cfg.soc_target == (2.0, -1.5)
    again = parse_config_text(normalized_text(cfg))
    assert again == cfg


def test_config_unknown_key_is_reported_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("task = gmm2d\ngrid.stepz = 7\n")
    assert "line 2" in str(err.value) and "grid.stepz" in str(err.value)
    assert "grid.steps" in str(err.value)  # closest-match hint


def test_config_bad_values_and_duplicates():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("seed = eleven\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_text("task = mnist\n")
    with pytest.raises(ConfigError):
        parse_config_text("method = magic\n")
    with pytest.raises(ConfigError):
        parse_config_text("task = shapes16\nsoc.target_class = star\n")
    with pytest.raises(ConfigError):
        parse_config_text("method = poe\ntask = shapes16\n")


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GMM_SMOKE.format(out="y"))
    cfg = load_config(path)
    assert cfg.eval_samples == 96
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_output_root_env(tmp_path, monkeypatch):
    cfg = parse_config_text("task = gmm2d\noutput_dir = sub/run1\n")
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path / "root"))
    assert cfg.resolve_output_dir() == tmp_path / "root" / "sub" / "run1"


# ---------------------------------------------------------------------------
# grid export
# ---------------------------------------------------------------------------

def test_quantize_and_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = quantize(rng.uniform(-1.2, 1.2, size=(5, 7)))
    assert img.dtype == np.uint8
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_tile_grid_shapes():
    one = tile_grid(np.zeros((1, 4, 4), dtype=np.uint8), pad=1)
    assert one.shape == (6, 6)  # 1x1 grid
    grid64 = tile_grid(np.zeros((64, 4, 4), dtype=np.uint8), pad=1)
    assert grid64.shape == (8 * 4 + 9, 8 * 4 + 9)  # 8x8 grid


def test_export_grid_and_annotation(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1, 1, size=(9, IMAGE_H * IMAGE_W))
    path = tmp_path / "grid.pgm"
    export_grid(samples, path, (IMAGE_H, IMAGE_W))
    img = read_pgm(path)
    assert img.shape == (3 * IMAGE_H + 4, 3 * IMAGE_W + 4)

    agg = make_mask("h-stripes", 2, IMAGE_H * IMAGE_W,
                    image_hw=(IMAGE_H, IMAGE_W))
    tile = quantize(samples[0]).reshape(IMAGE_H, IMAGE_W)
    marked = annotate_region(tile, agg, 1)
    assert np.all(marked[8, :] == 255) and np.all(marked[15, :] == 255)


def test_read_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError):
        read_pgm(path)


# ---------------------------------------------------------------------------
# experiment runs (gmm2d is fast enough for unit coverage)
# ---------------------------------------------------------------------------

def test_uncontrolled_gmm2d_accuracy_is_class_prior(tmp_path, monkeypatch):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config_text(GMM_SMOKE.format(out="prior"))
    cfg = with_overrides(cfg, eval_samples=512, eval_chunk=256,
                         mask="identity", num_agents=1)
    report = run_experiment(cfg)
    assert abs(report.accuracy - 0.5) < 0.1  # two balanced modes


def test_run_emits_all_artifacts_and_is_reproducible(tmp_path, monkeypatch):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config_text(GMM_SMOKE.format(out="rep1"))
    cfg = with_overrides(cfg, method="joint")
    report = run_experiment(cfg)
    out = report.output_dir
    for name in ("config.txt", "metrics.csv", "curve.csv", "samples.csv",
                 "policy_agent0.npz", "policy_agent1.npz"):
        assert (out / name).exists(), name
    assert len(report.curve) == cfg.plan_updates

    again = run_experiment(with_overrides(cfg, output_dir="rep2"))
    assert (out / "metrics.csv").read_bytes() == \
        (again.output_dir / "metrics.csv").read_bytes()
    assert (out / "curve.csv").read_bytes() == \
        (again.output_dir / "curve.csv").read_bytes()
    assert (out / "samples.csv").read_bytes() == \
        (again.output_dir / "samples.csv").read_bytes()


def test_cdps_run_writes_header_only_curve(tmp_path, monkeypatch):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config_text(GMM_SMOKE.format(out="cdps"))
    cfg = with_overrides(cfg, method="cdps", eval_samples=32, eval_chunk=32)
    report = run_experiment(cfg)
    lines = (report.output_dir / "curve.csv").read_text().splitlines()
    assert lines == ["update,loss_u,loss_c,loss_psi,objective"]


def test_checkpoint_meta_counts_the_updates_applied(tmp_path, monkeypatch):
    # update 2 of 6 diverges and is skipped: five updates are applied
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    real = optimize.bptt_rollout

    def diverging(*args, update_index=0, **kwargs):
        if update_index == 2:
            raise optimize.DivergedRolloutError(step=0, agent=0)
        return real(*args, update_index=update_index, **kwargs)

    monkeypatch.setattr(optimize, "bptt_rollout", diverging)
    cfg = with_overrides(parse_config_text(GMM_SMOKE.format(out="skip")),
                         method="joint", plan_checkpoint_every=3,
                         eval_samples=32, eval_chunk=32)
    saved = []
    real_save = save_checkpoint

    def recording_save(path, tensors, meta=None):
        saved.append((Path(path).name, meta))
        real_save(path, tensors, meta)

    monkeypatch.setattr("coopdiff.harness.experiment.save_checkpoint",
                        recording_save)
    report = run_experiment(cfg)
    assert [point.update for point in report.curve] == [0, 1, 3, 4, 5]
    # none after the skipped update 2; the one after update 5 and the
    # final one both count five
    assert [meta["update"] for name, meta in saved
            if name == "policy_agent0.npz"] == [5, 5]
    _, meta = load_checkpoint(report.output_dir / "policy_agent0.npz")
    assert meta == {"update": 5}

    saved.clear()
    monkeypatch.setattr(optimize, "bptt_rollout", real)
    run_experiment(with_overrides(cfg, output_dir="noskip"))
    assert [meta["update"] for name, meta in saved
            if name == "policy_agent0.npz"] == [3, 6, 6]


SHAPES_TINY = """
task = shapes16
method = uncontrolled
num_agents = 2
mask = h-stripes
grid.steps = 4
grid.eps = 0.02
shapes.per_class = 8
score.hidden = 8
score.train_steps = 1
classifier.hidden = 8
classifier.max_steps = 1
classifier.target_accuracy = 0.01
"""


@pytest.mark.parametrize("source", ["trained", "loaded"])
def test_build_assets_returns_the_pretrained_networks_frozen(source, tmp_path):
    text = SHAPES_TINY
    if source == "loaded":
        dim = IMAGE_H * IMAGE_W
        score = MlpScore(dim, (8,), 16, derive_rng(0, 1))
        clf = Mlp([dim, 8, len(CLASS_NAMES)], derive_rng(0, 2),
                  name="classifier")
        save_checkpoint(tmp_path / "score.npz", score.state_dict())
        save_checkpoint(tmp_path / "clf.npz", clf.state_dict())
        text += (f"score.checkpoint = {tmp_path / 'score.npz'}\n"
                 f"classifier.checkpoint = {tmp_path / 'clf.npz'}\n")
    assets = build_assets(parse_config_text(text))
    pretrained = assets.score_fn.params() + assets.classifier.params()
    assert pretrained
    assert all(not p.requires_grad and p.grad is None for p in pretrained)
    # the cost still differentiates in its input, and only there
    y = tape.leaf(np.zeros((3, IMAGE_H * IMAGE_W)))
    tape.backward(ops.reduce_sum(assets.psi(y)))
    assert y.grad is not None and np.all(np.isfinite(y.grad))
    assert all(p.grad is None for p in pretrained)


def test_the_task_assets_keep_no_dataset():
    # the images train the score net and the classifier and are then
    # dropped: no run reads them again
    assets = build_assets(parse_config_text(SHAPES_TINY))
    assert not hasattr(assets, "dataset")


@pytest.mark.parametrize("key", ["score.checkpoint",
                                 "classifier.checkpoint"])
@pytest.mark.parametrize("bad", ["text", "bare-array", "empty",
                                 "wrong-widths", "non-finite"])
def test_a_foreign_pretrained_checkpoint_is_a_config_error(key, bad, tmp_path,
                                                           monkeypatch,
                                                           capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    path = tmp_path / "weights.npz"
    if bad == "text":
        path.write_text("not a checkpoint\n")
    elif bad == "bare-array":
        with open(path, "wb") as fh:
            np.save(fh, np.ones(3))
    elif bad == "empty":
        path.write_bytes(b"")
    elif bad == "wrong-widths":
        # the score net misses its tensors, the classifier's are 5 wide
        other = Mlp([IMAGE_H * IMAGE_W, 5, len(CLASS_NAMES)],
                    derive_rng(0, 2), name="classifier")
        save_checkpoint(path, other.state_dict())
    else:       # the configured widths, with one weight NaN
        dim = IMAGE_H * IMAGE_W
        net = (MlpScore(dim, (8,), 16, derive_rng(0, 1))
               if key == "score.checkpoint" else
               Mlp([dim, 8, len(CLASS_NAMES)], derive_rng(0, 2),
                   name="classifier"))
        state = net.state_dict()
        tensor = key.split(".")[0] + ".w1"
        state[tensor][3, 2] = np.nan
        save_checkpoint(path, state)
    text = SHAPES_TINY + f"{key} = {path}\n"
    with pytest.raises(ConfigError, match="does not fit the configured"):
        build_assets(parse_config_text(text))
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(text)
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if bad == "non-finite":
        assert f"tensor {tensor!r} holds non-finite values" in err
    assert not list(tmp_path.rglob("metrics.csv"))


def test_a_policy_checkpoint_with_a_nan_weight_exits_2(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    text = GMM_SMOKE.format(out="nan").replace("method = uncontrolled",
                                               "method = joint")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    for policy in make_policies(parse_config_text(text), 2):
        state = policy.state_dict()
        if policy.agent_index == 1:
            state["agent1.nn2.b1"][0] = np.nan
        save_checkpoint(tmp_path / "pols"
                        / f"policy_agent{policy.agent_index}.npz", state)
    assert cli_main(["sample", "--config", str(cfg_path), "--policies",
                     str(tmp_path / "pols")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'agent1.nn2.b1'" in err
    assert not list(tmp_path.rglob("samples.csv"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(GMM_SMOKE.format(out="cli"))
    assert cli_main(["run", "--config", str(cfg_path), "--method", "cdps"]) == 0
    out = capsys.readouterr().out
    assert "cdps on gmm2d" in out
    assert cli_main(["report", "--run", str(tmp_path / "cli")]) == 0
    assert "mean_psi" in capsys.readouterr().out


@pytest.mark.parametrize("content", [b"", b"method,task,seed\n",
                                     b"method,task\n\xff\xfe,gmm2d\n"],
                         ids=["empty", "header-only", "not-utf8"])
def test_cli_report_on_a_malformed_metrics_file_exits_4(content, tmp_path,
                                                        capsys):
    (tmp_path / "metrics.csv").write_bytes(content)
    assert cli_main(["report", "--run", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "not a metrics file" in err and len(err.splitlines()) == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("task = gmm2d\nbogus.key = 1\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"task = gmm2d\noutput_dir = caf\xe9\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_sample_gmm2d(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(GMM_SMOKE.format(out="smp"))
    out_file = tmp_path / "pts.csv"
    assert cli_main(["sample", "--config", str(cfg_path), "--count", "8",
                     "--out", str(out_file)]) == 0
    assert out_file.exists()
    assert len(out_file.read_text().splitlines()) == 9  # header + 8 rows


def test_cli_sample_learned_method_needs_policies(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        GMM_SMOKE.format(out="need") + "\n"  # method override below
    )
    assert cli_main(["sample", "--config", str(cfg_path)]) == 0  # uncontrolled ok
    cfg_path.write_text(GMM_SMOKE.format(out="need").replace(
        "method = uncontrolled", "method = joint"))
    assert cli_main(["sample", "--config", str(cfg_path)]) == 2
    assert "--policies" in capsys.readouterr().err


# each case edits GMM_SMOKE (old line -> new line) into an input the CLI
# must reject with exit 2 instead of a traceback
BAD_INPUTS = {
    "grid-eps-above-one": ("grid.eps = 0.001", "grid.eps = 1.5"),
    "image-mask-on-gmm2d": ("mask = halves", "mask = h-stripes"),
    "alpha-below-floor": ("grid.eps = 0.001",
                          "grid.eps = 0.001\nschedule.beta_max = 200"),
    "policy-checkpoint-mismatch": ("method = uncontrolled", "method = joint"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_2_without_traceback(case, tmp_path):
    old, new = BAD_INPUTS[case]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(GMM_SMOKE.format(out="bad").replace(old, new))
    argv = ["run"]
    if case == "policy-checkpoint-mismatch":
        # the config asks for policy.hidden = 16 16
        for i in range(2):
            policy = make_policy(2, i, derive_rng(0, i), hidden=(8,))
            save_checkpoint(tmp_path / "pols" / f"policy_agent{i}.npz",
                            policy.state_dict())
        argv = ["sample", "--policies", str(tmp_path / "pols")]
    env = dict(os.environ,
               PYTHONPATH=str(Path(coopdiff.__file__).resolve().parents[1]),
               COOPDIFF_OUTPUT_ROOT=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "coopdiff", *argv, "--config", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# config fuzzing
# ---------------------------------------------------------------------------

CONFIG_KEYS = [line.split(" = ")[0]
               for line in normalized_text(parse_config_text("")).splitlines()]

# values stay small: a valid size is built during validation (grid points,
# mask rows), so unbounded integers would only test the machine's memory
config_values = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "true", "no", "gmm2d", "shapes16", "joint", "poe",
                     "cdps", "halves", "h-stripes", "identity", "cross",
                     "linear", "16 16", "2.0 -1.5", "1e400", "-0", "nan",
                     "-nan", "NaN", "inf", "-inf", "Infinity", "1.0 nan"]),
    st.text(alphabet="0123456789.-e, xyz=#", max_size=3),
)
config_lines = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), config_values).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=12),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None)
@given(st.lists(config_lines, max_size=8))
def test_any_config_text_is_accepted_or_rejected_with_exit_2(fuzz_dir, lines):
    text = "\n".join(lines)
    try:
        config = parse_config_text(text)     # parsing and validation
    except ConfigError:
        pass
    else:
        # an accepted config holds finite numbers only
        for value in vars(config).values():
            for v in value if isinstance(value, tuple) else (value,):
                assert not isinstance(v, float) or math.isfinite(v)
        return
    path = fuzz_dir / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["run", "--config", str(path)])
    assert code == 2
    assert err.getvalue().startswith("config error: ")


FLOAT_KEYS = [key for key in CONFIG_KEYS
              if isinstance(getattr(parse_config_text(""),
                                    key.replace(".", "_")), float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_values_are_config_errors(value):
    assert "plan.lr" in FLOAT_KEYS and "gmm.component_var" in FLOAT_KEYS
    for key in [*FLOAT_KEYS, "soc.target"]:
        with pytest.raises(ConfigError, match="finite"):
            parse_config_text(f"{key} = {value}")


def config_with(text: str, lines: dict) -> str:
    """``text`` with its ``key = value`` lines for the keys of ``lines``
    replaced by those of ``lines``."""
    kept = [line for line in text.splitlines()
            if line.split(" = ")[0] not in lines]
    return "\n".join([*kept, *(f"{k} = {v}" for k, v in lines.items())]) + "\n"


@pytest.mark.parametrize("key, value", [
    ("policy.hidden", "-3"), ("policy.hidden", "16 0"),
    ("policy.gain_hidden", "0"), ("score.hidden", "0 8"),
    ("classifier.hidden", "-1"), ("policy.temb_width", "-2"),
    ("policy.temb_width", "3"), ("policy.temb_width", "0"),
    ("score.temb_width", "5"), ("gmm.component_var", "0"),
    ("score.batch", "0"), ("shapes.per_class", "0"),
    ("score.lr", "0"), ("score.lr", "-1e-3"), ("classifier.lr", "0"),
    ("classifier.target_accuracy", "0"),
    ("classifier.target_accuracy", "1.5"), ("seed", "-1"),
    ("score.train_steps", "0"), ("score.train_steps", "-3"),
    ("classifier.max_steps", "0"),
])
def test_bad_widths_and_mixture_variance_exit_2(key, value, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "widths.cfg"
    cfg_path.write_text(config_with(GMM_SMOKE.format(out="widths"), {
        "method": "joint", "plan.updates": 2, key: value}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not (tmp_path / "widths").exists()


@pytest.mark.parametrize("key, value, message", [
    ("plan.checkpoint_every", "-1", "must be >= 0, got -1"),
    ("plan.inner_steps", "0", "must be >= 1, got 0"),
    ("grid.steps", "1", "must be >= 2, got 1"),
    ("soc.seam_beta", "-1", "must be >= 0, got -1.0"),
])
def test_errors_of_the_plan_grid_and_cost_name_their_key(
        key, value, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "keyed.cfg"
    cfg_path.write_text(config_with(GMM_SMOKE.format(out="keyed"), {
        "method": "joint", "plan.updates": 2, key: value}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {key} {message}\n"


def test_empty_hidden_lists_are_allowed():
    config = parse_config_text("policy.hidden =\npolicy.gain_hidden =\n"
                               "score.hidden =\nclassifier.hidden =\n")
    assert config.policy_hidden == config.score_hidden == ()


def test_every_shipped_example_config_loads():
    # README's quick-start commands run these files, so a renamed or
    # retired key must fail here rather than in a first run
    examples = sorted((Path(__file__).resolve().parents[1]
                       / "examples-configs").glob("*.cfg"))
    assert {p.name for p in examples} >= {"gmm2d.cfg", "shapes16.cfg"}
    for path in examples:
        load_config(path)            # raises ConfigError on a bad key


@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-runs")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COOPDIFF_OUTPUT_ROOT", str(root))
        yield root


def numbers(*extra):
    return st.one_of(st.integers(-2, 4).map(str),
                     st.sampled_from(["0.0", "-1.0", "1e-9", "0.5", "3.0",
                                      "1e3", "1e300", *extra]))


# gmm2d runs of 1-3 updates on 2-4 step grids, with the numeric and
# network-width keys drawn from small and extreme values
RUN_KEYS = {
    "method": st.sampled_from(["joint", "controlwise", "cdps",
                               "uncontrolled", "poe"]),
    "num_agents": st.sampled_from(["1", "2", "3"]),
    "mask": st.sampled_from(["halves", "identity"]),
    "grid.steps": st.integers(1, 4).map(str),
    "grid.eps": numbers("0.001", "0.99"),
    "schedule.beta_min": numbers(),
    "schedule.beta_max": numbers("20.0"),
    "soc.control_weight": numbers(),
    "soc.running_scale": numbers(),
    "soc.running_ramp": st.sampled_from(["constant", "linear"]),
    "soc.target": st.sampled_from(["2.0 -1.5", "1e300 0", "0", "1 2 3"]),
    "plan.updates": st.integers(1, 3).map(str),
    "plan.outer_iters": st.integers(0, 2).map(str),
    "plan.inner_steps": st.integers(0, 2).map(str),
    "plan.batch": st.integers(0, 3).map(str),
    "plan.lr": numbers(),
    "plan.checkpoint_every": st.integers(-1, 2).map(str),
    "cdps.alpha_guid": numbers(),
    "policy.hidden": st.sampled_from(["", "0", "-1", "4", "4 3"]),
    "policy.gain_hidden": st.sampled_from(["", "0", "2"]),
    "policy.temb_width": st.integers(-2, 5).map(str),
    "policy.guidance_gain_init": numbers(),
    "gmm.separation": numbers(),
    "gmm.component_var": numbers(),
    "eval_samples": st.integers(0, 5).map(str),
    "eval_chunk": st.integers(0, 3).map(str),
    "seed": st.integers(-2, 4).map(str),
}


@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(sorted(RUN_KEYS)), st.just(None),
                       max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({k: RUN_KEYS[k] for k in keys})))
@example({"gmm.separation": "1e300", "plan.updates": "3", "grid.steps": "4"})
@example({"seed": "-1"})
def test_a_small_gmm2d_run_exits_0_2_or_3(run_root, drawn):
    lines = {"task": "gmm2d", "method": "joint", "grid.steps": "3",
             "plan.updates": "2", "plan.outer_iters": "1",
             "plan.inner_steps": "1", "plan.batch": "2",
             "policy.hidden": "4", "policy.gain_hidden": "2",
             "policy.temb_width": "2", "eval_samples": "4",
             "eval_chunk": "4", "output_dir": "fuzz", **drawn}
    path = run_root / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["run", "--config", str(path)])
    # a warning would print to stderr outside the test's capture
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3), lines
    if code:      # exactly one message line
        assert len(lines) == 1, lines
        assert lines[0].startswith(("config error: ", "diverged: ")), lines
