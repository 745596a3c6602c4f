"""Cost terms: seam continuity, running cost, objective recomposition,
classifier cross-entropy, gradient checks."""
import numpy as np
import pytest

from coopdiff import tape
from coopdiff.aggregation import make_mask
from coopdiff.control import tweedie_guidance
from coopdiff.costs import (
    ClassifierNll,
    QuadraticWell,
    SeamAugmented,
    SocConfig,
    _nll,
    seam_loss,
    with_seam,
)
from coopdiff.nn import Mlp
from coopdiff.sde import derive_rng
import opgraphs as ops
from opgraphs import classifier_nll_ops, seam_loss_ops
from oracles import GaussianNll, ZeroCost, soc_objective, taped_cost

H = W = 8
DIM = H * W


def stripes(n=2):
    return make_mask("h-stripes", n, DIM, image_hw=(H, W))


def test_soc_config_validation():
    with pytest.raises(ValueError):
        SocConfig(control_weight=-1.0)
    with pytest.raises(ValueError):
        SocConfig(seam_beta=-0.1)
    with pytest.raises(ValueError):
        SocConfig(charbonnier_eps=0.0)
    with pytest.raises(ValueError):
        SocConfig(running_ramp="quadratic")
    cfg = SocConfig(control_weight=10.0)
    np.testing.assert_allclose(cfg.lambda_weights(4), [2.5] * 4)
    cfg = SocConfig(agent_weights=(1.0, 3.0))
    np.testing.assert_allclose(cfg.lambda_weights(2), [1.0, 3.0])
    with pytest.raises(ValueError):
        cfg.lambda_weights(3)


def test_seam_loss_zero_weights():
    cfg = SocConfig(seam_beta=0.0, seam_gamma=0.0)
    y = derive_rng(0, 0).standard_normal((3, DIM))
    assert np.all(seam_loss(y, stripes(), cfg).value == 0.0)


def test_seam_loss_constant_image_floor():
    # rho(0) = eps for every column and every seam pair, for both terms
    eps = 1e-3
    cfg = SocConfig(seam_beta=0.4, seam_gamma=0.7, charbonnier_eps=eps)
    agg = stripes(2)
    y = np.full((2, DIM), 0.37)
    expected = len(agg.seam_pairs) * (0.4 + 0.7) * eps * W
    np.testing.assert_allclose(
        seam_loss(y, agg, cfg).value, expected, rtol=1e-12
    )


def test_seam_loss_monotone_in_step_height():
    cfg = SocConfig(seam_beta=1.0, seam_gamma=0.5)
    agg = stripes(2)
    (rp, rq), = agg.seam_pairs
    losses = []
    for h in (0.0, 0.5, 1.0):
        img = np.zeros((H, W))
        img[rq:, :] = h  # step discontinuity exactly at the seam
        losses.append(seam_loss(img.reshape(1, -1), agg, cfg).value.item())
    assert losses[0] < losses[1] < losses[2]


def test_seam_loss_dimension_mismatch():
    cfg = SocConfig(seam_beta=1.0)
    with pytest.raises(ValueError):
        seam_loss(np.zeros((1, DIM + 1)), stripes(), cfg)
    flat = make_mask("halves", 2, DIM)
    with pytest.raises(ValueError):
        seam_loss(np.zeros((1, DIM)), flat, cfg)


def test_with_seam_only_when_active():
    cfg_off = SocConfig(seam_beta=0.0, seam_gamma=0.0)
    base = QuadraticWell(np.zeros(DIM))
    assert with_seam(base, stripes(), cfg_off) is base
    cfg_on = SocConfig(seam_beta=0.1)
    assert isinstance(with_seam(base, stripes(), cfg_on), SeamAugmented)


def running_cost(y0_hat, t, psi, cfg):
    """alpha_t * psi at the aggregated Tweedie estimate, as the rollout
    weighs each step's running cost."""
    return cfg.running_weight(t) * psi(tape.constant(y0_hat)).value.item()


def test_running_cost_cases():
    psi = QuadraticWell(np.array([1.0, 0.0]))
    y = np.array([[1.0, 2.0]])  # distance 2 -> psi = 4
    assert running_cost(y, 0.3, psi, SocConfig(running_scale=0.0)) == 0.0
    np.testing.assert_allclose(
        running_cost(np.array([[1.0, 0.0]]), 0.3, psi,
                     SocConfig(running_scale=1.0)), 0.0)
    np.testing.assert_allclose(
        running_cost(y, 0.3, psi, SocConfig(running_scale=1.0)),
        4.0, rtol=1e-14)
    # linear ramp scales by (1 - t)
    np.testing.assert_allclose(
        running_cost(y, 0.25, psi,
                     SocConfig(running_scale=2.0, running_ramp="linear")),
        2.0 * 0.75 * 4.0, rtol=1e-14)


def test_gaussian_nll_and_zero_cost():
    psi = GaussianNll(np.zeros(2), 1.0)
    val = psi(np.zeros((1, 2))).value.item()
    np.testing.assert_allclose(val, np.log(2 * np.pi), rtol=1e-12)
    assert np.all(ZeroCost()(np.ones((3, 2))).value == 0.0)
    # both are one node on their input, as the rollout's guidance needs
    value, grad = tweedie_guidance(ZeroCost(), np.ones((3, 2)))
    assert np.all(value == 0.0) and np.all(grad == 0.0)
    _, grad = tweedie_guidance(GaussianNll(np.ones(2), 0.5), np.zeros((1, 2)))
    np.testing.assert_allclose(grad, -2.0 * np.ones((1, 2)), rtol=1e-15)
    with pytest.raises(ValueError):
        GaussianNll(np.zeros(2), 0.0)


def test_classifier_nll_uniform_and_confident():
    logits = np.zeros((2, 5))
    out = _nll(logits, 3)[0]
    np.testing.assert_allclose(out, np.log(5.0), rtol=1e-12)
    confident = np.full((1, 5), -20.0)
    confident[0, 3] = 20.0
    assert _nll(confident, 3)[0].item() < 1e-8
    with pytest.raises(ValueError):
        _nll(logits, 5)
    with pytest.raises(ValueError):
        ClassifierNll(Mlp([4, 3], derive_rng(0, 0)), 3)


def test_soc_objective_hand_example():
    # single step, single agent, u = [1, 1], dt = 0.1, lambda = 10,
    # alpha = 0, psi = 0: J = 10 * ||u||^2 * dt = 2
    class Rec:
        times = np.array([1.0, 0.9])
        dts = np.array([0.1])
        batch = 1
        num_agents = 1
        controls = [[np.array([[1.0, 1.0]])]]
        y0_hats = [np.zeros((1, 2))]
        terminal_y = np.zeros((1, 2))

    cfg = SocConfig(control_weight=10.0, running_scale=0.0)
    value = soc_objective(Rec(), cfg, ZeroCost())
    np.testing.assert_allclose(value, 2.0, rtol=1e-14)


def test_soc_objective_empty_batch():
    class Rec:
        times = np.array([1.0, 0.9])
        dts = np.array([0.1])
        batch = 0
        num_agents = 1
        controls = []
        y0_hats = []
        terminal_y = np.zeros((0, 2))

    with pytest.raises(ValueError):
        soc_objective(Rec(), SocConfig(), ZeroCost())


def _fd_check(cost, y0, tol=1e-4):
    y = tape.leaf(y0)
    tape.backward(ops.reduce_sum(cost(y)))
    grad = y.grad
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(0)
    for idx in rng.choice(y0.size, size=min(12, y0.size), replace=False):
        yp, ym = y0.copy(), y0.copy()
        yp.reshape(-1)[idx] += h
        ym.reshape(-1)[idx] -= h
        with tape.no_grad():
            fd = (float(ops.reduce_sum(cost(tape.constant(yp))).value)
                  - float(ops.reduce_sum(cost(tape.constant(ym))).value)) / (2 * h)
        an = grad.reshape(-1)[idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < tol


def test_cost_gradients_match_finite_differences():
    rng = derive_rng(1, 0)
    y0 = rng.standard_normal((3, DIM))
    _fd_check(QuadraticWell(rng.standard_normal(DIM)), y0)
    _fd_check(GaussianNll(rng.standard_normal(DIM), 0.7), y0)
    cfg = SocConfig(seam_beta=0.3, seam_gamma=0.2)
    _fd_check(lambda y: seam_loss(y, stripes(), cfg), y0)
    clf = Mlp([DIM, 16, 4], derive_rng(1, 1))
    _fd_check(ClassifierNll(clf, 2), y0)
    _fd_check(with_seam(ClassifierNll(clf, 1), stripes(), cfg), y0)


def _full_fd(f, y0, h=1e-6):
    grad = np.zeros_like(y0)
    for i in range(y0.size):
        yp, ym = y0.copy(), y0.copy()
        yp.reshape(-1)[i] += h
        ym.reshape(-1)[i] -= h
        grad.reshape(-1)[i] = (f(yp) - f(ym)) / (2 * h)
    return grad


@pytest.mark.parametrize("agents", [2, 3, 8])
def test_seam_loss_is_one_node_with_the_closed_form_gradient(agents):
    # 8 agents on 8x8 are 1-row stripes: the seams touch both image
    # borders, and neighbouring seam pairs read and write the same rows
    agg = stripes(agents)
    if agents == 8:
        assert agg.seam_pairs[0] == (0, 1) and agg.seam_pairs[-1] == (6, 7)
    cfg = SocConfig(seam_beta=0.3, seam_gamma=0.7, charbonnier_eps=0.05)
    y0 = derive_rng(2, agents).standard_normal((3, DIM))
    y = tape.leaf(y0)
    out = seam_loss(y, agg, cfg)
    assert out.parents == (y,)
    weights = np.array([[1.0], [-2.0], [0.5]])
    tape.backward(ops.reduce_sum(ops.mul(out, weights)))

    def f(v):
        with tape.no_grad():
            return float((seam_loss(v, agg, cfg).value * weights).sum())

    fd = _full_fd(f, y0)
    np.testing.assert_allclose(y.grad, fd, rtol=1e-6, atol=1e-7)
    # the value repeats the per-op graph bit for bit, the gradient to
    # rounding
    ref_y = tape.leaf(y0)
    ref = seam_loss_ops(ref_y, agg, cfg)
    assert np.array_equal(out.value, ref.value)
    tape.backward(ops.reduce_sum(ops.mul(ref, weights)))
    np.testing.assert_allclose(y.grad, ref_y.grad, rtol=1e-12, atol=1e-15)


def test_classifier_nll_gradient_is_softmax_minus_onehot():
    lv = derive_rng(3, 0).standard_normal((6, 5)) * 4.0
    softmax = np.exp(lv - lv.max(axis=1, keepdims=True))
    softmax /= softmax.sum(axis=1, keepdims=True)
    # one label for every row, and one label per row
    for labels in (2, np.array([2, 0, 4, 4, 1, 3])):
        value, grad = _nll(lv, labels)
        assert value.shape == (6, 1)
        assert np.array_equal(value, classifier_nll_ops(lv, labels).value)
        onehot = np.eye(5)[np.broadcast_to(labels, (6,))]
        np.testing.assert_allclose(grad, softmax - onehot, rtol=0,
                                   atol=1e-15)
        # and the tape reference: one node whose VJP is that gradient
        logits = tape.leaf(lv)
        out = ops.classifier_nll(logits, labels)
        assert out.parents == (logits,)
        tape.backward(ops.reduce_sum(out))
        assert np.array_equal(logits.grad, grad)


@pytest.mark.parametrize("name", ["quadratic", "classifier", "classifier+seam"])
def test_each_cost_is_one_node_with_its_tape_references_gradient(name):
    # the terminal cost is one rowwise node on its input, so the guidance
    # reads grad psi from its one VJP; value and gradient against the
    # cost built from elementary ops and a taped classifier call
    rng = derive_rng(4, 0)
    clf = Mlp([DIM, 16, 4], derive_rng(4, 1))
    tape.freeze(clf.params())
    cfg = SocConfig(seam_beta=0.3, seam_gamma=0.2)
    psi = {"quadratic": QuadraticWell(rng.standard_normal(DIM)),
           "classifier": ClassifierNll(clf, 2),
           "classifier+seam": with_seam(ClassifierNll(clf, 1), stripes(),
                                        cfg)}[name]
    y0 = rng.standard_normal((5, DIM))
    y = tape.leaf(y0)
    node = psi(y)
    assert node.parents == (y,) and len(node.vjps) == 1
    value, grad = tweedie_guidance(psi, y0)
    ref_y = tape.leaf(y0)
    ref = taped_cost(psi)(ref_y)
    assert np.array_equal(value, ref.value)
    tape.backward(ops.reduce_sum(ref))
    np.testing.assert_allclose(grad, ref_y.grad, rtol=1e-12,
                               atol=1e-14 * np.abs(ref_y.grad).max())
