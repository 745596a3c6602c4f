"""MLP construction modes, time features, Adam, checkpoints and the
writes of every run file."""
import tracemalloc

import numpy as np
import pytest

from coopdiff import checkpoint, optim, tape
from coopdiff.checkpoint import load_checkpoint, save_checkpoint
from coopdiff.control import make_policy
from coopdiff.harness.config import parse_config_text, with_overrides
from coopdiff.harness.experiment import (
    new_score_net,
    policy_path,
    run_experiment,
    write_csv,
    write_samples,
)
from coopdiff.harness.gridio import export_grid
from coopdiff.harness.shapes import IMAGE_H, IMAGE_W
from coopdiff.nn import Mlp, time_features
from coopdiff.optim import AdamState, adam_step
from coopdiff.sde import (
    NoiseSchedule,
    derive_rng,
    make_time_grid,
    marginal_coeffs,
)
import opgraphs as ops
from untaped import adam_plain, forward_plain


def test_zero_final_gives_exact_zero_output():
    mlp = Mlp([3, 8, 2], derive_rng(0, 0), zero_final=True)
    x = derive_rng(0, 1).standard_normal((10, 3))
    assert np.all(mlp([x])[0] == 0.0)


def test_constant_final_bias_gives_exact_constant():
    mlp = Mlp([4, 8, 1], derive_rng(0, 2), zero_final=True, final_bias=-2.5)
    for seed in range(5):
        x = derive_rng(seed, 3).standard_normal((7, 4))
        assert np.all(mlp([x])[0] == -2.5)


def test_forward_matches_plain_duplicate():
    mlp = Mlp([5, 16, 16, 3], derive_rng(1, 0))
    x = derive_rng(1, 1).standard_normal((9, 5))
    np.testing.assert_allclose(mlp([x])[0], forward_plain(mlp, x), atol=1e-12)


def test_time_features_shapes_and_errors():
    f = time_features(0.5, 8)
    assert f.shape == (1, 8)            # one row, which a batch shares
    # bit-identical to the features of a per-row time
    assert np.array_equal(np.repeat(f, 3, axis=0),
                          time_features(np.full(3, 0.5), 8))
    f2 = time_features([0.1, 0.2, 0.3], 8)
    assert f2.shape == (3, 8)
    assert not np.array_equal(f2[0], f2[1])
    with pytest.raises(ValueError):
        time_features(0.5, 7)


@pytest.mark.parametrize("sizes", [(5, 4, 2), (5, 2)],
                         ids=["hidden", "no-hidden"])
def test_an_mlp_checks_its_input_parts(sizes):
    # the parts' widths add up to the first layer's rows, and each part
    # has the batch's rows or one row, which every row shares
    mlp = Mlp(sizes, derive_rng(1, 2))
    rng = derive_rng(1, 3)
    x = rng.standard_normal((3, 3))
    shared = time_features(0.5, 2)
    out = mlp([x, shared])[0]
    assert np.array_equal(out, mlp([x, np.repeat(shared, 3, axis=0)])[0])
    with pytest.raises(ValueError, match="do not fit"):
        mlp([x, time_features(0.5, 4)])             # 7 columns, not 5
    with pytest.raises(ValueError, match="do not fit"):
        mlp([x, time_features([0.1, 0.2], 2)])      # 2 rows, batch of 3


def test_memoised_time_features_and_coefficients_are_the_uncached_ones():
    # a float time hits the caches; a 0-d array or a per-row vector of the
    # same time takes the uncached path
    schedule = NoiseSchedule()
    for t in make_time_grid(80, 0.02).times:
        alpha, sigma = marginal_coeffs(schedule, float(t))
        assert (alpha, sigma) == marginal_coeffs(schedule, float(t))
        assert alpha == marginal_coeffs(schedule, np.asarray(t))[0]
        assert sigma == marginal_coeffs(schedule, np.asarray(t))[1]
        for width in (2, 16):
            feats = time_features(float(t), width)
            assert feats.shape == (1, width)
            assert np.array_equal(feats, time_features(np.asarray(t), width))
        for batch in (1, 2, 3, 16, 64, 256):
            per_row = marginal_coeffs(schedule, np.full(batch, t))
            assert np.all(per_row[0] == alpha) and np.all(per_row[1] == sigma)
            for width in (2, 16):
                assert np.array_equal(
                    np.broadcast_to(time_features(float(t), width),
                                    (batch, width)),
                    time_features(np.full(batch, t), width))
    row = time_features(0.5, 16)
    assert row is time_features(0.5, 16) and not row.flags.writeable
    with pytest.raises(ValueError):
        row[0, 0] = 1.0
    assert time_features(np.full(2, 0.5), 16).flags.writeable   # fresh
    with pytest.raises(ValueError):
        marginal_coeffs(schedule, 1.5)


@pytest.mark.parametrize("trained", ["none", "above-w0", "all"])
def test_an_mlp_node_keeps_its_activations_and_no_input_copy(trained):
    # an (8, 4096) input in two parts: the node keeps its output and hidden
    # activations (a few KB); a copy of the concatenated input would be
    # 256 KiB. "none" is a frozen net on a live input (the cdps state
    # gradient's case); "above-w0" a frozen first layer under trained
    # ones; "all" a policy
    rng = derive_rng(5, 0)
    mlp = Mlp([4096, 16, 8, 2], rng)
    frozen = {"none": mlp.params(), "above-w0": mlp.params()[:2],
              "all": []}[trained]
    tape.freeze(frozen)
    x = tape.leaf(rng.standard_normal((8, 2048)))
    c = rng.standard_normal((8, 2048))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ops.mlp_node(mlp, x, c)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.parents                  # recorded, so its VJP state is alive
    activations = 8 * (16 + 8 + 2) * 8  # bytes of the hidden and output rows
    assert kept < activations + 8 * 1024, kept
    ops.backward(ops.reduce_sum(out))
    assert x.grad.shape == x.value.shape


def test_adam_first_step_hand_computed():
    # constant gradient 1: m_hat = 1, v_hat = 1 -> step = -lr / (1 + eps)
    p = tape.leaf(np.array([0.0]))
    state = AdamState.for_params([p], lr=0.1)
    adam_step([p], [np.array([1.0])], state)
    expected = -0.1 / (1.0 + optim.EPS)
    np.testing.assert_allclose(p.value, [expected], rtol=1e-12)
    assert state.step == 1


def test_adam_is_the_textbook_update_bit_for_bit():
    rng = derive_rng(0, 5)
    start = rng.standard_normal((4, 3))
    grads = [rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-6, 2)
             for _ in range(20)]
    p = tape.leaf(start.copy())
    value = p.value
    state = AdamState.for_params([p], lr=3e-3)
    for g in grads:
        adam_step([p], [g], state)
    # each step writes into the parameter's one array
    assert p.value is value
    assert np.array_equal(value, adam_plain(start, grads, lr=3e-3))


def test_adam_keeps_float32_params_float32_bit_for_bit():
    # the float32 textbook update written out: every array stays float32,
    # and the step's Python-float constants act as float32 scalars
    rng = derive_rng(0, 6)
    start = rng.standard_normal((4, 3)).astype(np.float32)
    grads = [(rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-6, 2))
             .astype(np.float32) for _ in range(20)]
    p = tape.leaf(start)
    p.value = start.copy()          # a leaf is made float64; the fit rebinds
    state = AdamState.for_params([p], lr=3e-3)
    value = start
    m = np.zeros((4, 3), dtype=np.float32)
    v = np.zeros((4, 3), dtype=np.float32)
    for step, g in enumerate(grads, start=1):
        adam_step([p], [g], state)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_hat = m / (1.0 - 0.9 ** step)
        v_hat = v / (1.0 - 0.999 ** step)
        value = value - 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert value.dtype == np.float32
        assert p.value.dtype == np.float32
        assert state.m[0].dtype == state.v[0].dtype == np.float32
        assert np.array_equal(p.value, value), step


def test_adam_zero_gradient_keeps_params():
    p = tape.leaf(np.array([1.0, -2.0]))
    state = AdamState.for_params([p], lr=0.1)
    for _ in range(3):
        adam_step([p], [np.zeros(2)], state)
    np.testing.assert_array_equal(p.value, [1.0, -2.0])


def test_adam_lr_zero_keeps_params():
    p = tape.leaf(np.array([1.0]))
    state = AdamState.for_params([p], lr=0.0)
    adam_step([p], [np.array([5.0])], state)
    np.testing.assert_array_equal(p.value, [1.0])


def test_adam_shape_mismatch_raises():
    p = tape.leaf(np.ones(3))
    state = AdamState.for_params([p], lr=0.1)
    with pytest.raises(ValueError):
        adam_step([p], [np.ones(4)], state)


def test_adam_converges_on_quadratic():
    p = tape.leaf(np.array([5.0]))
    state = AdamState.for_params([p], lr=0.3)
    for _ in range(400):
        adam_step([p], [2.0 * p.value], state)  # d/dp p^2
    assert abs(float(p.value[0])) < 1e-3


def test_checkpoint_round_trip(tmp_path):
    mlp = Mlp([3, 6, 2], derive_rng(2, 0), name="net")
    path = tmp_path / "net.npz"
    save_checkpoint(path, mlp.state_dict(), meta={"hidden": [6]})
    tensors, meta = load_checkpoint(path)
    assert meta == {"hidden": [6]}
    clone = Mlp([3, 6, 2], derive_rng(99, 99), name="net")
    clone.load_state_dict(tensors)
    x = derive_rng(2, 1).standard_normal((4, 3))
    np.testing.assert_array_equal(mlp([x])[0], clone([x])[0])


def _write_run_file(path, v):
    """Write version ``v`` of the run or fit file ``path`` the way a run
    (config.txt, CSVs, grids, policies) or ``train-score`` writes it."""
    gmm = with_overrides(parse_config_text("task = gmm2d\n"), method="cdps",
                         seed=v, grid_steps=3, eval_samples=8, eval_chunk=8,
                         output_dir=str(path.parent))
    shapes = parse_config_text("task = shapes16\n")
    y = derive_rng(v, 0).uniform(-1.0, 1.0, (4, IMAGE_H * IMAGE_W))
    name = path.name
    if name == "config.txt":
        run_experiment(gmm)
    elif name == "metrics.csv":
        write_csv(path, ["method", "seed", "mean_psi"], [["cdps", v, y[0, 0]]])
    elif name == "curve.csv":
        write_csv(path, ["update", "loss_u"], [[k, y[0, k]] for k in range(3)])
    elif name == "samples.csv":
        write_samples(gmm, gmm.aggregator(), y[:, :2], path)
    elif name == "samples.pgm":
        write_samples(shapes, shapes.aggregator(), y, path)
    elif name == "agent0.pgm":
        export_grid(y, path, (IMAGE_H, IMAGE_W), agg=shapes.aggregator(),
                    agent=0)
    elif name == "policy_agent0.npz":
        save_checkpoint(policy_path(path.parent, 0), {"w": np.full(3, v)},
                        meta={"update": v})
    else:
        save_checkpoint(path, new_score_net(shapes).state_dict(),
                        meta={"seed": v})


class _FailingFile:
    """A file whose first write writes half its bytes, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(bytes(data)[:len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", [
    "policy_agent0.npz", "score.npz", "config.txt", "metrics.csv",
    "curve.csv", "samples.csv", "samples.pgm", "agent0.pgm"])
def test_a_failed_checkpoint_write_keeps_the_previous_one(name, tmp_path,
                                                         monkeypatch):
    # a write that fails partway (a killed run, a full disk) leaves the
    # last good file, a checkpoint or any other file of a run or a fit,
    # and no temporary file behind
    path = tmp_path / name
    _write_run_file(path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open",
                        lambda file, mode: _FailingFile(open(file, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        _write_run_file(path, 2)
    assert path.read_bytes() == before
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    np.savez(path, __format_version__=np.array([1, 1]), __meta__=np.str_("{}"))
    with pytest.raises(ValueError, match="bad version tag"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [None, "{not json", "[1]"],
                         ids=["missing", "not-json", "not-an-object"])
def test_checkpoint_rejects_bad_metadata(tmp_path, meta):
    # a version tag with no metadata, or metadata that is not a JSON
    # object, is not a checkpoint
    path = tmp_path / "meta.npz"
    payload = {"w": np.zeros(3), "__format_version__": np.int64(1)}
    if meta is not None:
        payload["__meta__"] = np.str_(meta)
    np.savez(path, **payload)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_raises(tmp_path):
    mlp = Mlp([3, 6, 2], derive_rng(2, 0), name="net")
    path = tmp_path / "net.npz"
    state = mlp.state_dict()
    state.pop("net.w0")
    save_checkpoint(path, state)
    with pytest.raises(KeyError):
        mlp.load_state_dict(load_checkpoint(path)[0])


@pytest.mark.parametrize("fault", ["missing", "misshapen", "non-finite"])
def test_a_failed_policy_load_writes_no_tensor(fault):
    # the faulty tensor is the policy's last (NN2's last bias), so a load
    # that wrote as it checked would have written every other one; the
    # policies are stacked, so a partial write would corrupt the stack
    policies = [make_policy(2, i, derive_rng(4, i), hidden=(8,),
                            gain_hidden=(4,)) for i in range(2)]
    Mlp.stack([p.nn1 for p in policies])
    Mlp.stack([p.nn2 for p in policies])
    leaves = [p for policy in policies for p in policy.params()]
    arrays = [p.value for p in leaves]
    before = [a.copy() for a in arrays]
    good = make_policy(2, 0, derive_rng(5, 0), hidden=(8,), gain_hidden=(4,),
                       guidance_gain_init=-1.0).state_dict()
    state = dict(good)
    if fault == "missing":
        del state["agent0.nn2.b1"]
    elif fault == "misshapen":
        state["agent0.nn2.b1"] = np.zeros(2)
    else:
        state["agent0.nn2.b1"] = np.full(1, np.nan)
    with pytest.raises(KeyError if fault == "missing" else ValueError):
        policies[0].load_state_dict(state)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    # a good load writes each tensor into the leaf's own array
    policies[0].load_state_dict(good)
    assert all(p.value is a for p, a in zip(leaves, arrays))
    for p, b in zip(leaves, before):
        expected = good[p.name] if p.name.startswith("agent0.") else b
        assert np.array_equal(p.value, expected), p.name


def test_checkpoint_shape_mismatch_raises(tmp_path):
    mlp = Mlp([3, 6, 2], derive_rng(2, 0), name="net")
    state = mlp.state_dict()
    state["net.w0"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mlp.load_state_dict(state)
