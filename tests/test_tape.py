"""The tape: ``coopdiff.tape.backward`` runs one fused node over leaves
and refuses any other graph; the reference engine of ``opgraphs`` gives
values that match untaped evaluation and gradients that match central
finite differences, and stopgrad cuts adjoints."""
import ast
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopdiff
from coopdiff import tape
from coopdiff.nn import Mlp, OuterSum, dense
from coopdiff.sde import derive_rng
import opgraphs as ops
from opgraphs import logsumexp
from untaped import backward_plain, forward_plain


def finite_diff(f, x, h=1e-5):
    """Central differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        xp = x.copy()
        xp.reshape(-1)[i] += h
        xm = x.copy()
        xm.reshape(-1)[i] -= h
        flat[i] = (f(xp) - f(xm)) / (2 * h)
    return grad


def value_and_grad(f, params):
    """Run ``f()``, backprop, return its value and the grads of ``params``
    (zeros where no gradient arrived)."""
    root = f()
    ops.backward(root)
    return root.value.item(), [
        p.grad if p.grad is not None else np.zeros_like(p.value) for p in params
    ]


def max_rel_err(a, b, floor=1e-8):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def test_value_matches_untaped_dot():
    w = tape.leaf(np.array([[3.0, 4.0]]))
    y = ops.reduce_sum(ops.mul(w, w))
    assert float(y.value) == 25.0


def test_value_matches_untaped_mlp():
    rng = derive_rng(0, 1)
    mlp = Mlp([3, 8, 2], rng)
    x = rng.standard_normal((5, 3))
    taped = ops.mlp_node(mlp, x).value
    plain = forward_plain(mlp, x)
    np.testing.assert_allclose(taped, plain, rtol=0, atol=1e-12)


def test_constant_program_is_the_constant():
    c = ops.constant(np.array([[7.5]]))
    assert float(ops.reduce_sum(c).value) == 7.5


def test_backward_quadratic():
    w = tape.leaf(np.array([3.0, 4.0]))
    y = ops.reduce_sum(ops.mul(w, w))
    ops.backward(y)
    np.testing.assert_allclose(w.grad, [6.0, 8.0])


def test_backward_gradient_of_constant_is_zero():
    w = tape.leaf(np.array([1.0, 2.0]))
    value, grads = value_and_grad(
        lambda: ops.reduce_sum(ops.constant(np.array([4.0]))), [w]
    )
    assert value == 4.0
    np.testing.assert_array_equal(grads[0], np.zeros(2))


def test_tape_backward_fills_the_leaves_of_one_fused_node():
    # the training objective's form: one fused node over distinct leaves;
    # its VJP's arrays become their .grad, as the reference engine's do,
    # and a frozen leaf is no parent
    w = tape.leaf(np.array([1.0, -2.0]))
    frozen = tape.leaf(np.ones(3))
    tape.freeze([frozen])
    b = tape.leaf(np.array([[3.0]]))
    gw, gb = np.array([0.5, 4.0]), np.array([[-1.0]])
    root = tape.fused(np.array(7.0), [w, frozen, b],
                      lambda g: (g * gw, None, g * gb))
    assert root.parents == (w, b)
    tape.backward(root)
    assert np.array_equal(w.grad, gw) and np.array_equal(b.grad, gb)
    assert frozen.grad is None
    ops.backward(root)
    assert np.array_equal(w.grad, gw) and np.array_equal(b.grad, gb)
    constant = tape.fused(np.array(1.0), [frozen], lambda g: (g,))
    assert constant.is_leaf
    tape.backward(constant)                  # requires no grad: a no-op
    assert frozen.grad is None


@pytest.mark.parametrize("graph", ["two-fused-nodes", "elementary-op",
                                   "leaf", "repeated-parent",
                                   "non-scalar"])
def test_tape_backward_raises_on_any_other_graph(graph):
    # only the reference engine walks these
    x = tape.leaf(np.array([2.0]))
    inner = tape.fused(x.value * 3.0, [x], lambda g: (g * 3.0,))
    root = {
        "two-fused-nodes": lambda: tape.fused(np.array(6.0), [inner],
                                              lambda g: (g * np.ones(1),)),
        "elementary-op": lambda: ops.reduce_sum(ops.mul(x, x)),
        "leaf": lambda: x,
        "repeated-parent": lambda: tape.fused(np.array(0.0), [x, x],
                                              lambda g: (g, g)),
        "non-scalar": lambda: tape.fused(np.zeros(2), [x], lambda g: (g,)),
    }[graph]()
    with pytest.raises(ValueError):
        tape.backward(root)
    assert x.grad is None
    if graph == "two-fused-nodes":
        ops.backward(root)
        np.testing.assert_array_equal(x.grad, [3.0])


def test_backward_requires_scalar_root():
    w = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ops.backward(ops.mul(w, w))


def test_mlp_gradient_matches_finite_differences():
    rng = derive_rng(0, 2)
    mlp = Mlp([2, 16, 16, 2], rng)
    x = rng.standard_normal((3, 2))
    target = rng.standard_normal((3, 2))

    def loss_node():
        resid = ops.sub(ops.mlp_node(mlp, x), ops.constant(target))
        return ops.reduce_sum(ops.mul(resid, resid))

    _, grads = value_and_grad(loss_node, mlp.params())
    for p, g in zip(mlp.params(), grads):
        orig = p.value.copy()

        def f(v, p=p):
            p.value = v
            out = float(loss_node().value)
            p.value = orig
            return out

        fd = finite_diff(f, orig)
        assert max_rel_err(fd, g) < 1e-4, p.name


def test_stopgrad_definition():
    w = tape.leaf(np.array([3.0]))
    y = ops.reduce_sum(ops.mul(w, ops.stopgrad(w)))
    ops.backward(y)
    np.testing.assert_allclose(w.grad, [3.0])  # not 6


def test_stopgrad_preserves_forward_value():
    x = ops.constant(np.array([1.0, -2.0]))
    np.testing.assert_array_equal(ops.stopgrad(x).value, x.value)


def test_no_grad_builds_parentless_nodes():
    w = tape.leaf(np.ones(3))
    with ops.no_grad():
        y = ops.mul(w, w)
    assert y.is_leaf
    with ops.no_grad():
        with ops.grad_enabled():
            z = ops.mul(w, w)
    assert not z.is_leaf


def test_gradients_are_deterministic():
    def run():
        rng = derive_rng(7, 3)
        mlp = Mlp([4, 12, 1], rng)
        x = rng.standard_normal((6, 4))
        _, grads = value_and_grad(
            lambda: ops.reduce_sum(ops.mlp_node(mlp, x)), mlp.params()
        )
        return grads

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)  # bit-identical


def test_broadcasting_add_bias_grad():
    x = tape.leaf(np.ones((4, 3)))
    b = tape.leaf(np.arange(3.0))
    y = ops.reduce_sum(ops.add(x, b))
    ops.backward(y)
    np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_gather_cols():
    a = tape.leaf(np.arange(12.0).reshape(3, 4))
    y = ops.reduce_sum(ops.gather_cols(a, [1, 3]))
    ops.backward(y)
    expected = np.zeros((3, 4))
    expected[:, [1, 3]] = 1.0
    np.testing.assert_array_equal(a.grad, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_elementwise_op_gradients_match_fd(rows, cols, seed):
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal((rows, cols))
    yv = rng.standard_normal((rows, cols))

    def build(v):
        x = tape.leaf(v)
        y = ops.constant(yv)
        expr = ops.add(ops.mul(ops.tanh(x), y), ops.exp(ops.scale(x, 0.3)))
        root = ops.reduce_sum(ops.mul(expr, expr))
        return x, root

    x, root = build(xv)
    ops.backward(root)
    fd = finite_diff(lambda v: float(build(v)[1].value), xv)
    assert max_rel_err(fd, x.grad) < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_logsumexp_gradient_matches_fd(rows, cols, seed):
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal((rows, cols)) * 3

    def build(v):
        x = tape.leaf(v)
        return x, ops.reduce_sum(logsumexp(x, axis=1, keepdims=True))

    x, root = build(xv)
    ops.backward(root)
    # closed-form row softmax: central differences carry ~1e-10 of
    # cancellation noise, too much next to softmax entries near 1e-7
    e = np.exp(xv - xv.max(axis=1, keepdims=True))
    softmax = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(x.grad, softmax, rtol=1e-12, atol=0)


def test_matmul_concat_sqrt_gradients_match_fd():
    rng = derive_rng(0, 4)
    av = rng.standard_normal((3, 4))
    bv = rng.standard_normal((4, 2))

    def build(a_in, b_in):
        a, b = tape.leaf(a_in), tape.leaf(b_in)
        prod = ops.matmul(a, b)
        cat = ops.concat([prod, ops.scale(prod, -0.5)], axis=1)
        root = ops.reduce_sum(
            ops.sqrt(ops.add(ops.mul(cat, cat), ops.constant(0.1)))
        )
        return a, b, root

    a, b, root = build(av, bv)
    ops.backward(root)
    fd_a = finite_diff(lambda v: float(build(v, bv)[2].value), av)
    fd_b = finite_diff(lambda v: float(build(av, v)[2].value), bv)
    assert max_rel_err(fd_a, a.grad) < 1e-4
    assert max_rel_err(fd_b, b.grad) < 1e-4


def test_backward_keeps_gradients_on_leaves_only():
    w = tape.leaf(np.array([1.5, -2.0]))
    x = tape.leaf(np.array([0.5, 3.0]))
    hidden = ops.tanh(ops.mul(w, x))
    root = ops.reduce_sum(ops.mul(hidden, hidden))
    ops.backward(root)
    assert hidden.grad is None and root.grad is None
    dh = 2.0 * np.tanh(w.value * x.value)
    dz = dh * (1.0 - np.tanh(w.value * x.value) ** 2)
    np.testing.assert_array_equal(w.grad, dz * x.value)
    np.testing.assert_array_equal(x.grad, dz * w.value)


def test_constant_and_frozen_leaves_get_no_vjp_and_no_grad():
    xv = derive_rng(8, 0).standard_normal((4, 3))

    def build(freeze):
        pretrained = Mlp([3, 6, 3], derive_rng(8, 1), name="pretrained")
        policy = Mlp([3, 5, 3], derive_rng(8, 2), name="policy")
        if freeze:
            tape.freeze(pretrained.params())
        x = ops.constant(xv)
        # pretrained(x) touches no node that requires grad once frozen
        out = ops.mlp_node(pretrained, ops.add(ops.mlp_node(pretrained, x),
                                               ops.mlp_node(policy, x)))
        root = ops.reduce_sum(ops.mul(out, out))
        ops.backward(root)
        return pretrained, policy, x, ops._toposort(root)

    pretrained, policy, x, graph = build(freeze=True)
    dead = [x, *pretrained.params()]
    assert all(n.grad is None for n in dead)
    in_graph = {id(n) for n in graph}
    assert not any(id(n) in in_graph for n in dead)  # no edge, so no VJP
    assert all(p.requires_grad for n in graph for p in n.parents)
    assert all(p.grad is not None for p in policy.params())

    live_pretrained, live_policy, live_x, live_graph = build(freeze=False)
    assert live_x.grad is None       # a constant stays one
    assert all(p.grad is not None for p in live_pretrained.params())
    assert sum(len(n.vjps) for n in graph) < sum(len(n.vjps) for n in live_graph)
    for frozen_run, live_run in zip(policy.params(), live_policy.params()):
        assert np.array_equal(frozen_run.grad, live_run.grad)  # bit-equal


def test_rowwise_node_takes_the_given_gradient_as_its_vjp():
    x = tape.leaf(np.arange(6.0).reshape(3, 2))
    grad = np.array([[1.0, -1.0], [0.5, 2.0], [3.0, 0.0]])
    node = ops.rowwise(x, np.ones((3, 1)), grad)
    weights = np.array([[2.0], [-1.0], [4.0]])
    ops.backward(ops.reduce_sum(ops.mul(node, weights)))
    np.testing.assert_array_equal(x.grad, weights * grad)
    with ops.no_grad():
        assert ops.rowwise(x, np.ones((3, 1)), grad).is_leaf


def test_mlp_call_is_one_fused_node_with_edges_only_into_live_inputs():
    rng = derive_rng(9, 0)
    mlp = Mlp([3, 7, 5, 2], rng)
    x = tape.leaf(rng.standard_normal((4, 3)))
    out = ops.mlp_node(mlp, x)
    assert out.parents == (x, *mlp.params()) and len(out.vjps) == 1
    root = ops.reduce_sum(out)
    assert len(ops._toposort(root)) == 2 + 1 + len(mlp.params())
    np.testing.assert_array_equal(out.value, forward_plain(mlp, x.value))

    assert (ops.mlp_node(mlp, ops.constant(x.value)).parents
            == tuple(mlp.params()))
    tape.freeze(mlp.params())
    assert ops.mlp_node(mlp, x).parents == (x,)   # no edge into frozen weights
    assert ops.mlp_node(mlp, ops.constant(x.value)).is_leaf
    tape.freeze([x])
    with ops.no_grad():
        assert ops.mlp_node(Mlp([3, 2], rng),
                            rng.standard_normal((4, 3))).is_leaf


@pytest.mark.parametrize("input_live", [True, False])
@pytest.mark.parametrize("frozen", [(), ("w0", "b0"), ("w1", "b2"),
                                    ("w0", "b0", "w1", "b1", "w2", "b2")])
def test_fused_mlp_gradients_match_plain_backprop_and_fd(frozen, input_live):
    rng = derive_rng(9, 1)
    mlp = Mlp([3, 6, 5, 2], rng, name="m")
    xv = rng.standard_normal((4, 3))
    weights = rng.standard_normal((4, 2))
    tape.freeze([p for p in mlp.params() if p.name[2:] in frozen])
    live = [p for p in mlp.params() if p.requires_grad]

    def loss(x):
        return ops.reduce_sum(ops.mul(ops.tanh(ops.mlp_node(mlp, x)),
                                      weights))

    x = tape.leaf(xv) if input_live else ops.constant(xv)
    root = loss(x)
    if not (live or input_live):
        assert root.is_leaf
        return
    ops.backward(root)
    g_out = weights * (1.0 - np.tanh(forward_plain(mlp, xv)) ** 2)
    g_in, plain = backward_plain(mlp, [xv], g_out)
    for p, ref in zip(mlp.params(), plain):
        if p.requires_grad:
            np.testing.assert_allclose(p.grad, ref, rtol=0, atol=1e-12)
            orig = p.value.copy()

            def f(v, p=p):
                p.value = v
                out = float(loss(ops.constant(xv)).value)
                p.value = orig
                return out

            assert max_rel_err(finite_diff(f, orig), p.grad) < 1e-4, p.name
        else:
            assert p.grad is None
    if input_live:
        np.testing.assert_allclose(x.grad, g_in, rtol=0, atol=1e-12)
        fd = finite_diff(lambda v: float(loss(ops.constant(v)).value), xv)
        assert max_rel_err(fd, x.grad) < 1e-4
    else:
        assert x.grad is None


def test_a_second_backward_through_a_fused_mlp_gives_the_same_gradients():
    # the fused VJP keeps no adjoint between calls: a second pass over the
    # same graph repeats the first bit for bit, and a pass from another
    # root over the same node sees only that root's adjoint
    rng = derive_rng(9, 2)
    mlp = Mlp([3, 8, 8, 2], rng)
    x = tape.leaf(rng.standard_normal((5, 3)))
    out = ops.mlp_node(mlp, x)
    leaves = [x, *mlp.params()]

    root = ops.reduce_sum(ops.mul(out, out))
    ops.backward(root)
    first = [n.grad for n in leaves]
    ops.backward(root)
    for n, g in zip(leaves, first):
        assert np.array_equal(n.grad, g)

    ops.backward(ops.scale(ops.reduce_sum(ops.mul(out, out)), 2.0))
    for n, g in zip(leaves, first):
        assert np.array_equal(n.grad, 2.0 * g)


def test_an_mlp_on_column_parts_is_the_sum_of_their_products():
    # a frozen net on leaf parts around a constant one-row part: the value
    # and the leaves' adjoints are the plain part-by-part MLP's, bit for
    # bit, the adjoints as slices of the full product g @ W0.T
    rng = derive_rng(9, 3)
    mlp = Mlp([7, 6, 2], rng)
    tape.freeze(mlp.params())
    a = tape.leaf(rng.standard_normal((4, 3)))
    c = rng.standard_normal((1, 2))             # a constant, shared row
    b = tape.leaf(rng.standard_normal((4, 2)))
    out = ops.mlp_node(mlp, a, c, b)
    assert out.parents == (a, b)
    assert np.array_equal(out.value, forward_plain(mlp, a.value, c, b.value))
    weights = rng.standard_normal((4, 2))
    ops.backward(ops.reduce_sum(ops.mul(out, weights)))
    g_in, _ = backward_plain(mlp, [a.value, c, b.value], weights)
    assert np.array_equal(a.grad, g_in[:, :3])
    assert np.array_equal(b.grad, g_in[:, 5:])


def test_a_trained_mlp_on_column_parts_has_the_plain_gradients():
    # trained weights on array, node, constant-node and shared-row parts:
    # the VJP fills the first-layer weight's gradient block from the parts
    # (the shared row repeated), which is then the plain backprop's, bit
    # for bit
    rng = derive_rng(9, 4)
    mlp = Mlp([9, 6, 5, 2], rng)
    a = tape.leaf(rng.standard_normal((4, 3)))
    c = rng.standard_normal((4, 2))                     # an array part
    k = ops.constant(rng.standard_normal((1, 1)))      # a shared row
    b = tape.leaf(rng.standard_normal((4, 3)))
    weights = rng.standard_normal((4, 2))
    out = ops.mlp_node(mlp, a, c, k, b)
    assert out.parents == (a, b, *mlp.params())
    parts = [a.value, c, k.value, b.value]
    assert np.array_equal(out.value, forward_plain(mlp, *parts))
    ops.backward(ops.reduce_sum(ops.mul(out, weights)))
    g_in, grads = backward_plain(mlp, parts, weights)
    for ref, p in zip(grads, mlp.params()):
        assert np.array_equal(ref, p.grad), p.name
    assert np.array_equal(a.grad, g_in[:, :3])
    assert np.array_equal(b.grad, g_in[:, 6:])


def test_adjoint_sums_leave_the_arrays_vjps_return_untouched():
    # three contributions into one leaf: the sum is formed in an array of
    # backward's own, never in the (here shared) arrays the VJP returned
    x = tape.leaf(np.arange(3.0))
    shared = np.full(3, 2.0)
    root = tape.fused(np.zeros(()), [x, x, x],
                      lambda g: (shared, shared, shared))
    ops.backward(root)
    np.testing.assert_array_equal(x.grad, [6.0, 6.0, 6.0])
    np.testing.assert_array_equal(shared, [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# lazy weight adjoints and the live-column input adjoint
# ---------------------------------------------------------------------------

def _recurrent_loss(mlp, x0, steps, per_op=False):
    """x_{k+1} = x_k + 0.05 * mlp(x_k) for ``steps`` steps, loss sum x_K^2:
    every weight is used at every step. ``per_op`` builds the same net
    from elementary ops, whose matmul VJP forms each step's ``a.T @ g``."""
    x = ops.constant(x0)
    for _ in range(steps):
        if per_op:
            h = x
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                h = ops.add(ops.matmul(h, w), b)
                if i < len(mlp.weights) - 1:
                    h = ops.tanh(h)
        else:
            h = ops.mlp_node(mlp, x)
        x = ops.add(x, ops.scale(h, 0.05))
    return ops.reduce_sum(ops.mul(x, x))


def test_a_weight_used_at_200_steps_gets_the_per_step_sum():
    # 3 rows per step and 8 or 3 columns: partial blocks fold every few
    # steps, and the sum differs from the per-step one in order only
    rng = derive_rng(9, 5)
    mlp = Mlp([3, 8, 3], rng)
    x0 = rng.standard_normal((3, 3))
    ops.backward(_recurrent_loss(mlp, x0, 200))
    lazy = [p.grad for p in mlp.params()]
    assert all(type(g) is np.ndarray for g in lazy)
    ops.backward(_recurrent_loss(mlp, x0, 200, per_op=True))
    for got, p in zip(lazy, mlp.params()):
        scale = np.abs(p.grad).max()
        assert np.abs(got - p.grad).max() <= 1e-14 * scale, p.name
    w = mlp.weights[0]
    orig = w.value.copy()

    def f(v):
        w.value = v
        out = float(_recurrent_loss(mlp, x0, 200).value)
        w.value = orig
        return out

    assert max_rel_err(finite_diff(f, orig), lazy[0]) < 1e-6


def test_a_second_backward_repeats_the_lazy_sums():
    rng = derive_rng(9, 6)
    mlp = Mlp([3, 8, 3], rng)
    root = _recurrent_loss(mlp, rng.standard_normal((3, 3)), 50)
    ops.backward(root)
    first = [p.grad for p in mlp.params()]
    ops.backward(root)
    for g, p in zip(first, mlp.params()):
        assert np.array_equal(g, p.grad), p.name


@pytest.mark.parametrize("rows", [3, 8, 40])
def test_a_single_use_weight_gets_exactly_a_T_g(rows):
    # fewer, as many and more rows than the weight has columns
    rng = derive_rng(9, 7)
    mlp = Mlp([5, 8], rng)
    x = rng.standard_normal((rows, 5))
    c = rng.standard_normal((rows, 8))
    ops.backward(ops.reduce_sum(ops.mul(ops.mlp_node(mlp, x), c)))
    assert np.array_equal(mlp.weights[0].grad, x.T @ c)
    assert np.array_equal(OuterSum((x,), c).array(), x.T @ c)


@pytest.mark.parametrize("kind", ["arrays", "lazy"])
def test_a_sum_of_adjoints_leaves_their_arrays_untouched(kind):
    # a key's contributions are all arrays (a bias) or all OuterSum terms
    # (a weight): either sum is right and writes into none of its terms
    rng = derive_rng(9, 8)
    terms = [(rng.standard_normal((4, 6)), rng.standard_normal((4, 5)))
             for _ in range(5)]
    dense = [rng.standard_normal((6, 5)) for _ in range(5)]
    copies = [a.copy() for pair in terms for a in pair] + [d.copy() for d in dense]
    w = tape.leaf(np.zeros((6, 5)))

    def vjp(g):
        if kind == "lazy":
            return tuple(OuterSum((a,), g) for a, g in terms)
        return tuple(dense)

    root = tape.fused(np.zeros(()), [w] * 5, vjp)
    ops.backward(root)
    ref = (sum(a.T @ g for a, g in terms) if kind == "lazy"
           else sum(dense))
    assert type(w.grad) is np.ndarray
    np.testing.assert_allclose(w.grad, ref, rtol=0,
                               atol=1e-14 * np.abs(ref).max())
    for orig, now in zip(copies, [a for pair in terms for a in pair] + dense):
        assert np.array_equal(orig, now)


def test_pending_rows_stay_below_the_weight_column_count():
    rng = derive_rng(9, 9)
    cols = 16
    acc = None
    ref = np.zeros((7, cols))
    for k in range(300):
        rows = int(rng.integers(1, 2 * cols))
        a, g = rng.standard_normal((rows, 7)), rng.standard_normal((rows, cols))
        ref += a.T @ g
        term = OuterSum((a,), g)
        if acc is None:
            acc = term
        else:
            acc.add(term)
        assert acc.rows < acc.cols == cols
        assert sum(g.shape[0] for _, g in acc.pairs) == acc.rows
    np.testing.assert_allclose(acc.array(), ref, rtol=0,
                               atol=1e-14 * np.abs(ref).max())
    assert acc.rows == 0 and not acc.pairs


@pytest.mark.parametrize("sizes, live", [
    ((3, 2, 4, 2, 3), (False, True, False, True, False)),
    ((256, 256, 256, 16), (True, True, False, False)),
], ids=["small", "policy-sized"])
def test_the_input_adjoint_over_live_columns_is_the_full_products_slice(
        sizes, live):
    # a constant part on either side of the live block (small), or the
    # policy's x, Y, guidance and time features: the live parts' adjoints
    # are bit-equal to slicing the full g @ W0.T
    rng = derive_rng(9, 10)
    mlp = Mlp([sum(sizes), 12, 5], rng)
    tape.freeze(mlp.params())
    rows = 16
    values = [rng.standard_normal((rows, n)) for n in sizes]
    parts = [tape.leaf(v) if keep else ops.constant(v)
             for v, keep in zip(values, live)]
    weights = rng.standard_normal((rows, 5))
    ops.backward(ops.reduce_sum(ops.mul(ops.mlp_node(mlp, *parts),
                                         weights)))
    whole, _ = backward_plain(mlp, values, weights)
    offsets = np.cumsum([0, *sizes])
    for i, part in enumerate(parts):
        if live[i]:
            assert np.array_equal(
                part.grad, whole[:, offsets[i]:offsets[i + 1]])
        else:
            assert part.grad is None


def test_terms_on_column_parts_fold_to_the_terms_on_their_concatenation():
    # one term, and blocks of many: filling the fold's block from the parts
    # gives the array concatenating them would, so the sums are bit-equal
    rng = derive_rng(9, 11)
    for steps in (1, 3, 20):
        terms = [([rng.standard_normal((4, n)) for n in (5, 1, 3)],
                  rng.standard_normal((4, 6))) for _ in range(steps)]
        lazy = OuterSum(*terms[0])
        whole = OuterSum((np.concatenate(terms[0][0], axis=1),),
                              terms[0][1])
        for parts, g in terms[1:]:
            lazy.add(OuterSum(parts, g))
            whole.add(OuterSum((np.concatenate(parts, axis=1),), g))
        assert np.array_equal(lazy.array(), whole.array())


def test_a_float32_sum_of_pending_terms_folds_to_float32():
    # five pending terms on three column parts each (20 rows, below the 32
    # columns): the fold's block takes the terms' dtype, so the sum is the
    # float32 product of the concatenations, not a float64 one
    rng = derive_rng(9, 12)
    terms = [([rng.standard_normal((4, n)).astype(np.float32)
               for n in (5, 1, 3)],
              rng.standard_normal((4, 32)).astype(np.float32))
             for _ in range(5)]
    lazy = OuterSum(*terms[0])
    for parts, g in terms[1:]:
        lazy.add(OuterSum(parts, g))
    assert lazy.rows == 20 and len(lazy.pairs) == 5
    a = np.concatenate([np.concatenate(parts, axis=1) for parts, _ in terms])
    g = np.concatenate([g for _, g in terms])
    out = dense(lazy)
    assert out.dtype == np.float32
    assert np.array_equal(out, a.T @ g)
    np.testing.assert_allclose(out, a.astype(np.float64).T @ g, rtol=1e-5,
                               atol=1e-5)



def _every_op_graph(x, w, mlp):
    """A scalar built with every elementary op, the test-side logsumexp op,
    a rowwise node and a fused Mlp call, from the leaves ``x`` (3, 4) and
    ``w`` (4, 2)."""
    h = ops.tanh(ops.matmul(x, w))                                # (3, 2)
    h = ops.add(ops.sub(ops.mul(h, h), h), 1.0)
    h = ops.concat([h, ops.neg(ops.scale(h, 0.5))], axis=1)       # (3, 4)
    norm = ops.add(ops.square_norm(x, axis=1, keepdims=True), 1.0)
    h = ops.add(h, ops.sqrt(ops.exp(ops.log(norm))))
    s = ops.stack([h, ops.reshape(ops.reshape(h, (4, 3)), (3, 4))])
    h = ops.add(ops.index(s, 1), ops.gather_cols(h, [0, 0, 3, 1]))
    h = ops.mlp_node(mlp, ops.add(h, logsumexp(h)), x)            # (3, 2)
    r = ops.rowwise(h, (h.value ** 2).sum(axis=1, keepdims=True),
                    2.0 * h.value)
    return ops.reduce_sum(ops.add(ops.gather_cols(h, [1]), r))


def _closure_objects(fn) -> list:
    """Everything ``fn`` keeps through its closure cells and defaults,
    lists, tuples and nested functions."""
    found, seen, stack = [], set(), [fn]
    while stack:
        v = stack.pop()
        found.append(v)
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, types.FunctionType) and id(v) not in seen:
            seen.add(id(v))
            stack.extend(c.cell_contents for c in v.__closure__ or ())
            stack.extend(v.__defaults__ or ())
    return found


def test_a_pullback_keeps_no_node_and_repeats_backwards_adjoints():
    # no VJP reads a node's value at backward time: the pullback of a
    # graph keeps the VJPs and no node (so no node value), and each call
    # gives the leaves the adjoints backward fills in, bit for bit
    rng = derive_rng(9, 12)
    x = tape.leaf(rng.standard_normal((3, 4)))
    w = tape.leaf(rng.standard_normal((4, 2)))
    mlp = Mlp([8, 5, 2], rng)
    root = _every_op_graph(x, w, mlp)
    leaves, vjp = ops.pullback(root)
    assert sorted(map(id, leaves)) == sorted(map(id, [x, w, *mlp.params()]))
    assert not any(isinstance(o, tape.Node) for o in _closure_objects(vjp))
    ops.backward(root)
    for _ in range(2):
        for leaf, g in zip(leaves, vjp(np.ones(()))):
            g = g.array() if isinstance(g, OuterSum) else g
            assert np.array_equal(g, leaf.grad), leaf.name


# ---------------------------------------------------------------------------
# who imports the tape
# ---------------------------------------------------------------------------

# the policy weights' modules and the training loop's: every other module
# of coopdiff runs on arrays
TAPE_IMPORTERS = {"nn", "optim", "control", "optimize", "harness/experiment"}


def tape_importers(package: Path) -> set:
    """The modules under ``package`` (as paths without ``.py``) whose
    ``import`` or ``from ... import`` statements reach ``coopdiff.tape``,
    relative imports resolved."""
    found = set()
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).with_suffix("").as_posix()
        where = ["coopdiff", *name.split("/")[:-1]]   # the module's package
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = where[:len(where) - node.level + 1] if node.level else []
                module = ".".join(base + (node.module.split(".")
                                          if node.module else []))
                targets = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            if any(t == "coopdiff.tape" or t.startswith("coopdiff.tape.")
                   for t in targets):
                found.add(name)
    return found


def test_only_the_training_modules_import_tape():
    found = tape_importers(Path(coopdiff.__file__).parent)
    assert found <= TAPE_IMPORTERS, sorted(found - TAPE_IMPORTERS)
    assert {"nn", "optimize"} <= found          # the parse sees them


def test_the_import_check_resolves_relative_and_absolute_imports(tmp_path):
    (tmp_path / "harness").mkdir()
    sources = {
        "a.py": "from . import tape\n",
        "b.py": "from .tape import Node\n",
        "harness/c.py": "from .. import tape\n",
        "harness/d.py": "from ..tape import leaf\n",
        "e.py": "import coopdiff.tape\n",
        "f.py": "from coopdiff import nn, tape\n",
        "g.py": "from . import nn\nfrom .nn import dense\n",
        "harness/h.py": "from .shapes import tape\n",
    }
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    assert tape_importers(tmp_path) == {"a", "b", "harness/c", "harness/d",
                                        "e", "f"}
