"""MLP construction modes, time features, Adam, checkpoints."""
import tracemalloc

import numpy as np
import pytest

from coopdiff import tape
from coopdiff.checkpoint import load_checkpoint, save_checkpoint
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
    assert np.all(mlp(x).value == 0.0)


def test_constant_final_bias_gives_exact_constant():
    mlp = Mlp([4, 8, 1], derive_rng(0, 2), zero_final=True, final_bias=-2.5)
    for seed in range(5):
        x = derive_rng(seed, 3).standard_normal((7, 4))
        assert np.all(mlp(x).value == -2.5)


def test_forward_matches_plain_duplicate():
    mlp = Mlp([5, 16, 16, 3], derive_rng(1, 0))
    x = derive_rng(1, 1).standard_normal((9, 5))
    np.testing.assert_allclose(mlp(x).value, forward_plain(mlp, x), atol=1e-12)


def test_time_features_shapes_and_errors():
    f = time_features(0.5, 8, batch=3)
    assert f.shape == (3, 8)
    assert np.array_equal(f[0], f[2])  # scalar t is shared
    # one shared row, bit-identical to the features of a per-row time
    assert np.array_equal(f, time_features(np.full(3, 0.5), 8, batch=3))
    f2 = time_features([0.1, 0.2, 0.3], 8, batch=3)
    assert f2.shape == (3, 8)
    assert not np.array_equal(f2[0], f2[1])
    with pytest.raises(ValueError):
        time_features(0.5, 7)
    with pytest.raises(ValueError):
        time_features([0.1, 0.2], 8, batch=3)


def test_memoised_time_features_and_coefficients_are_the_uncached_ones():
    # a float time hits the caches; a 0-d array or a per-row vector of the
    # same time takes the uncached path
    schedule = NoiseSchedule()
    for t in make_time_grid(80, 0.02).times:
        alpha, sigma = marginal_coeffs(schedule, float(t))
        assert (alpha, sigma) == marginal_coeffs(schedule, float(t))
        assert alpha == marginal_coeffs(schedule, np.asarray(t))[0]
        assert sigma == marginal_coeffs(schedule, np.asarray(t))[1]
        for batch in (1, 2, 3, 16, 64, 256):
            per_row = marginal_coeffs(schedule, np.full(batch, t))
            assert np.all(per_row[0] == alpha) and np.all(per_row[1] == sigma)
            for width in (2, 16):
                feats = time_features(float(t), width, batch=batch)
                assert feats.shape == (batch, width)
                assert np.array_equal(
                    feats, time_features(np.full(batch, t), width, batch=batch))
                assert np.array_equal(
                    feats, time_features(np.asarray(t), width, batch=batch))
    row = time_features(0.5, 16)
    assert row is time_features(0.5, 16) and not row.flags.writeable
    with pytest.raises(ValueError):
        row[0, 0] = 1.0
    assert time_features(0.5, 16, batch=2).flags.writeable   # a fresh copy
    with pytest.raises(ValueError):
        marginal_coeffs(schedule, 1.5)


@pytest.mark.parametrize("trained", ["none", "above-w0", "all"])
def test_an_mlp_node_keeps_its_activations_and_no_input_copy(trained):
    # an (8, 4096) input in two parts: the node keeps its output and hidden
    # activations (a few KB); a copy of the concatenated input would be
    # 256 KiB. "none" is the cdps score pullback (frozen net, state leaf);
    # "above-w0" a frozen first layer under trained ones; "all" a policy
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
        out = mlp(x, c)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.parents                  # recorded, so its VJP state is alive
    activations = 8 * (16 + 8 + 2) * 8  # bytes of the hidden and output rows
    assert kept < activations + 8 * 1024, kept
    tape.backward(ops.reduce_sum(out))
    assert x.grad.shape == x.value.shape


def test_adam_first_step_hand_computed():
    # constant gradient 1: m_hat = 1, v_hat = 1 -> step = -lr / (1 + eps)
    p = tape.leaf(np.array([0.0]))
    state = AdamState.for_params([p], lr=0.1)
    adam_step([p], [np.array([1.0])], state)
    expected = -0.1 / (1.0 + state.eps)
    np.testing.assert_allclose(p.value, [expected], rtol=1e-12)
    assert state.step == 1


def test_adam_is_the_textbook_update_bit_for_bit():
    rng = derive_rng(0, 5)
    start = rng.standard_normal((4, 3))
    grads = [rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-6, 2)
             for _ in range(20)]
    p = tape.leaf(start.copy())
    state = AdamState.for_params([p], lr=3e-3)
    held = []
    for g in grads:
        held.append(p.value)
        adam_step([p], [g], state)
    assert np.array_equal(p.value, adam_plain(start, grads, lr=3e-3))
    # each step rebinds the value: an array a graph holds is not changed
    assert np.array_equal(held[0], start)
    assert all(a is not b for a, b in zip(held, held[1:]))


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
    np.testing.assert_array_equal(mlp(x).value, clone(x).value)


def test_a_failed_checkpoint_write_keeps_the_previous_one(tmp_path,
                                                         monkeypatch):
    # a write that fails partway (a killed run, a full disk) leaves the
    # last good checkpoint loadable and no temporary file behind
    path = tmp_path / "policy_agent0.npz"
    save_checkpoint(path, {"w": np.ones(3)}, meta={"update": 1})

    def failing_savez(fh, **payload):
        fh.write(b"PK\x03\x04 a truncated archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": np.zeros(3)}, meta={"update": 2})
    tensors, meta = load_checkpoint(path)
    assert meta == {"update": 1}
    np.testing.assert_array_equal(tensors["w"], np.ones(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    np.savez(path, __format_version__=np.array([1, 1]), __meta__=np.str_("{}"))
    with pytest.raises(ValueError, match="bad version tag"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_raises(tmp_path):
    mlp = Mlp([3, 6, 2], derive_rng(2, 0), name="net")
    path = tmp_path / "net.npz"
    state = mlp.state_dict()
    state.pop("net.w0")
    save_checkpoint(path, state)
    with pytest.raises(KeyError):
        mlp.load_state_dict(load_checkpoint(path)[0])


def test_checkpoint_shape_mismatch_raises(tmp_path):
    mlp = Mlp([3, 6, 2], derive_rng(2, 0), name="net")
    state = mlp.state_dict()
    state["net.w0"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mlp.load_state_dict(state)
