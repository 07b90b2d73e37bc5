import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    LoopAdamState,
    adam_loop,
    add_then_norm,
    dropout_mask_per_call,
    dropout_uniform,
    norm_out_of_place,
    numeric_grad,
    rel_err,
    tensor,
)
from tut import tensor as T
from tut.errors import DomainError, GraphReleasedError, ShapeError


def rng64(seed=0):
    return np.random.default_rng(seed)


def test_matmul_identity():
    eye = tensor(np.eye(2))
    out = T.matmul(eye, eye)
    np.testing.assert_allclose(out.data, np.eye(2))


def test_matmul_forced_example():
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tensor([[1.0], [1.0]])
    np.testing.assert_allclose(T.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = rng64(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def f(av, bv):
        return float(np.asarray((np.asarray(av) @ np.asarray(bv)).sum()))

    ta, tb = tensor(a, requires_grad=True), tensor(b, requires_grad=True)
    T.sum_all(T.matmul(ta, tb)).backward()
    assert rel_err(ta.grad, numeric_grad(f, [a, b], 0)) < 1e-6
    assert rel_err(tb.grad, numeric_grad(f, [a, b], 1)) < 1e-6


def test_softmax_uniform_and_stability():
    out = T.softmax_lastdim(tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3))
    big = T.softmax_lastdim(tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-12)


def test_softmax_nonfinite_raises():
    from tut.errors import NumericError

    with pytest.raises(NumericError):
        T.softmax_lastdim(tensor([np.nan, 0.0]))


def test_softmax_gradient():
    rng = rng64(2)
    x = rng.standard_normal(5)
    w = rng.standard_normal(5)  # weighted sum makes the gradient non-trivial

    def f(xv):
        e = np.exp(xv - xv.max())
        return float((w * (e / e.sum())).sum())

    tx = tensor(x, requires_grad=True)
    T.sum_all(T.mul(T.softmax_lastdim(tx), tensor(w))).backward()
    assert rel_err(tx.grad, numeric_grad(f, [x], 0)) < 1e-6


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(values):
    out = T.softmax_lastdim(tensor(np.array([values])))
    assert abs(out.data.sum() - 1.0) < 1e-6


def _no_residual(x):
    """A zero residual: instance_norm_temporal of x alone."""
    return tensor(np.zeros_like(x.data))


def test_instance_norm_constant_column_zeros():
    x = tensor(np.full((4, 2), 3.0))
    g = tensor(np.ones(2))
    b = tensor(np.zeros(2))
    out = T.instance_norm_temporal(x, g, b, eps=1e-5, residual=_no_residual(x))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_instance_norm_two_point_column():
    x = tensor([[1.0], [3.0]])
    gain, bias = tensor(np.ones(1)), tensor(np.zeros(1))
    out = T.instance_norm_temporal(x, gain, bias, residual=_no_residual(x))
    np.testing.assert_allclose(out.data[:, 0], [-1.0, 1.0], atol=1e-4)


def test_instance_norm_empty_raises():
    with pytest.raises(ShapeError):
        x, gain, bias = tensor(np.zeros((0, 2))), tensor(np.ones(2)), tensor(np.zeros(2))
        T.instance_norm_temporal(x, gain, bias, residual=_no_residual(x))


def test_instance_norm_gradient():
    rng = rng64(3)
    x = rng.standard_normal((6, 3))
    gain = rng.standard_normal(3)
    bias = rng.standard_normal(3)
    weights = rng.standard_normal((6, 3))

    def f(xv, gv, bv):
        mu = xv.mean(axis=0)
        var = xv.var(axis=0)
        xhat = (xv - mu) / np.sqrt(var + 1e-5)
        return float((weights * (xhat * gv + bv)).sum())

    tx = tensor(x, requires_grad=True)
    tg = tensor(gain, requires_grad=True)
    tb = tensor(bias, requires_grad=True)
    out = T.mul(T.instance_norm_temporal(tx, tg, tb, residual=_no_residual(tx)), tensor(weights))
    T.sum_all(out).backward()
    assert rel_err(tx.grad, numeric_grad(f, [x, gain, bias], 0)) < 1e-5
    assert rel_err(tg.grad, numeric_grad(f, [x, gain, bias], 1)) < 1e-5
    assert rel_err(tb.grad, numeric_grad(f, [x, gain, bias], 2)) < 1e-5


def test_dropout_p0_is_identity():
    x = tensor(np.arange(6.0).reshape(2, 3))
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_scales_and_masks():
    rng = np.random.default_rng(7)
    x = tensor(np.ones((200, 5)), requires_grad=True)
    out = T.dropout(x, 0.4, rng)
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.6)
    assert 0.45 < kept.mean() < 0.75
    T.sum_all(out).backward()
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6)
    np.testing.assert_allclose(x.grad[~kept], 0.0)


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [1 / 3, 0.3, 0.45, 0.7])  # f32(1 / 0.55) != f32(1) / f32(0.55)
@pytest.mark.parametrize(
    "shape,draw_axes", [((37, 11), None), ((9, 4, 13), (1, 0, 2)), ((5, 3, 7), (2, 0, 1))]
)
def test_dropout_matches_float64_uniform_oracle(bit_generator, dtype, p, shape, draw_axes):
    rng = rng64(17)
    data = rng.standard_normal(shape).astype(dtype)
    data[0] = -np.abs(data[0])  # dropped negatives give -0.0 on both sides
    g = rng.standard_normal(shape).astype(dtype)
    outs, grads, streams = [], [], []
    for op in (T.dropout, dropout_uniform):
        stream = np.random.Generator(bit_generator(5))
        x = T.Tensor(data.copy(), requires_grad=True)
        out = op(x, p, stream, draw_axes=draw_axes)
        out.backward(g)
        mask = T.Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        mask_out = op(mask, p, np.random.Generator(bit_generator(5)), draw_axes)
        mask_out.backward(np.ones_like(g))  # the gradient of ones is scale times the mask
        outs.append((out.data.dtype, out.data.tobytes()))
        grads.append((x.grad.dtype, x.grad.tobytes(), mask.grad.tobytes()))
        streams.append(stream.random(3).tobytes())  # both leave the stream at one place
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]
    assert streams[0] == streams[1]


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize(
    "shape,draw_axes", [((37, 11), None), ((9, 4, 13), (1, 0, 2)), ((5, 3, 7), (2, 0, 1))]
)
def test_dropout_mask_drawn_in_blocks_is_the_one_call_draw(monkeypatch, bit_generator, shape,
                                                            draw_axes):
    """Blocks of 7 words (several per mask, the last one short) keep the
    same elements as one draw of every word and leave the generator at the
    same word."""
    x = np.zeros(shape, dtype=np.float32)
    assert x.size <= T.DRAW_BLOCK  # one block: the one-call draw
    masks, nexts = [], []
    for block in (T.DRAW_BLOCK, 7):
        monkeypatch.setattr(T, "DRAW_BLOCK", block)
        rng = np.random.Generator(bit_generator(5))
        keep, _ = T._dropout_mask(x, 0.3, rng, draw_axes)
        masks.append(keep.tobytes())
        nexts.append(rng.bit_generator.random_raw(9).tobytes())
    assert masks[0] == masks[1]
    assert nexts[0] == nexts[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("draw_axes", [None, (1, 0, 2)])
def test_cached_dropout_constants_give_the_per_call_mask(dtype, draw_axes):
    """The threshold word, scale and permutation a mask reads from the cache
    give the keep mask, scale and next stream words of the per-call
    formula, on the call that fills the cache and on one that reads it; a
    head-major mask is C-contiguous, so each of its uses runs contiguous
    loops."""
    x = np.zeros((9, 4, 13), dtype=dtype)
    for p in (0.1, 0.2, 0.3, 0.4, 0.5):
        for _ in range(2):
            rng, oracle = (np.random.Generator(np.random.Philox(3)) for _ in range(2))
            keep, scale = T._dropout_mask(x, p, rng, draw_axes)
            want_keep, want_scale = dropout_mask_per_call(x, p, oracle, draw_axes)
            assert keep.shape == want_keep.shape and keep.tobytes() == want_keep.tobytes()
            assert scale.dtype == want_scale.dtype and scale.tobytes() == want_scale.tobytes()
            nexts = [r.bit_generator.random_raw(5).tobytes() for r in (rng, oracle)]
            assert nexts[0] == nexts[1]
            assert keep.flags.c_contiguous


def test_dropout_mask_never_holds_every_word():
    """A 2^18-element mask allocates its 1-byte keep array and at most two
    blocks of 64-bit words, not 2 MiB of words at once."""
    x = np.zeros((512, 512), dtype=np.float32)
    rng = np.random.Generator(np.random.Philox(5))
    tracemalloc.start()
    try:
        T._dropout_mask(x, 0.3, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.size + 2 * 8 * T.DRAW_BLOCK + 2**12, peak


def test_dropout_rejects_a_generator_with_other_doubles():
    x = tensor(np.ones((4, 3)), requires_grad=True)
    with pytest.raises(TypeError):
        T.dropout(x, 0.2, np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
def test_dropout_rate_outside_unit_interval_raises(p):
    x = tensor(np.ones((4, 3)), requires_grad=True)
    with pytest.raises(DomainError):
        T.dropout(x, p, np.random.default_rng(0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shared", [False, True])
def test_instance_norm_residual_matches_add_then_norm(dtype, shared):
    rng = rng64(23)
    arrays = [rng.standard_normal(s).astype(dtype) for s in ((13, 6), (13, 6), (6,), (6,))]
    g = rng.standard_normal((13, 6)).astype(dtype)
    results = []
    for op in (T.instance_norm_temporal, add_then_norm):
        x, res, gain, bias = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
        if shared:  # x + x: both operand gradients land on one node
            res = x
        out = op(x, gain, bias, 1e-5, residual=res)
        out.backward(g)
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in (x, res, gain, bias)])
        # a later contribution to one operand must not change the other's gradient
        assert shared or not np.shares_memory(x.grad, res.grad)
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_residual", [False, True])
def test_instance_norm_matches_out_of_place_oracle_bytes(dtype, with_residual):
    rng = rng64(25)
    for t in (1, 2, 29):
        arrays = [rng.standard_normal(s).astype(dtype) for s in ((t, 6), (t, 6), (6,), (6,))]
        g = rng.standard_normal((t, 6)).astype(dtype)
        results = []
        for op in (T.instance_norm_temporal, norm_out_of_place):
            x, r, gain, bias = (tensor(a, requires_grad=True) for a in arrays)
            out = op(x, gain, bias, 1e-5, residual=r if with_residual else _no_residual(x))
            out.backward(g)
            results.append([out.data, x.grad, gain.grad, bias.grad] + [r.grad] * with_residual)
        for a, b in zip(*results):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_family_in_place_forward_keeps_the_bytes(dtype):
    """The in-place chains give the out-of-place expressions' values and
    the gradients those values imply."""
    rng = rng64(24)
    t, c = 37, 19
    x = (rng.standard_normal((t, c)) * 4).astype(dtype)
    labels = rng.integers(0, c, t)
    g = rng.standard_normal((t, c)).astype(dtype)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    logp = shifted - np.log(e.sum(axis=-1, keepdims=True))
    probs_less_onehot = np.exp(logp)
    probs_less_onehot[np.arange(t), labels] -= 1.0
    ce = np.asarray(-logp[np.arange(t), labels].mean(), dtype=dtype)
    tx = [tensor(x, requires_grad=True) for _ in range(3)]
    probs = e / e.sum(axis=-1, keepdims=True)
    cases = (
        (T.softmax_lastdim(tx[0]), probs, g),
        (T.log_softmax_lastdim(tx[1]), logp, g),
        (T.cross_entropy_from_logits(tx[2], labels), ce, None),
    )
    for out, want, grad in cases:
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        out.backward(grad)
    want_grads = (
        probs * (g - (g * probs).sum(axis=-1, keepdims=True)),
        g - np.exp(logp) * g.sum(axis=-1, keepdims=True),
        probs_less_onehot * (np.ones((), dtype=dtype) / t),
    )
    for leaf, want in zip(tx, want_grads):
        assert leaf.grad.dtype == want.dtype and leaf.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", [T.mul, T.div])
@pytest.mark.parametrize("shapes", [((4, 3), (4, 3)), ((4, 3), (3,)), ((3,), (4, 3))])
def test_mul_div_compute_only_the_gradients_operands_need(op, shapes):
    """With one constant operand, the other's gradient has the bytes it has
    when both need one (the expressions the op always computed), and the
    constant's stays None."""
    rng = rng64(23)
    values = [rng.standard_normal(s) + 3.0 for s in shapes]  # divisors away from 0
    g = rng.standard_normal(np.broadcast_shapes(*shapes))
    both = [tensor(a, requires_grad=True) for a in values]
    op(*both).backward(g)
    for needs in (0, 1):
        xs = [tensor(a, requires_grad=i == needs) for i, a in enumerate(values)]
        op(*xs).backward(g)
        assert xs[needs].grad.tobytes() == both[needs].grad.tobytes()
        assert xs[1 - needs].grad is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scalar", [0.3, 1.0 / 7, 2, np.float64(0.1)])
def test_mul_by_a_python_scalar_has_the_bytes_of_numpys_scalar_product(dtype, scalar):
    """A scalar operand multiplies, forward and backward, as numpy multiplies
    an array of the tensor's dtype by a python float, 0-d tensors included."""
    rng = rng64(31)
    for shape in ((4, 3), ()):
        x = tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        g = rng.standard_normal(shape).astype(dtype)
        out = T.mul(x, scalar)
        out.backward(g)
        weak = float(scalar)
        assert out.data.dtype == dtype and out.data.tobytes() == (x.data * weak).tobytes()
        assert x.grad.dtype == dtype and x.grad.tobytes() == (g * weak).tobytes()


def test_gather_scatter_roundtrip_and_grads():
    rng = rng64(4)
    x = rng.standard_normal((5, 3))
    idx = np.array([0, 0, 2, 4])

    tx = tensor(x, requires_grad=True)
    out = T.gather_rows(tx, idx)
    np.testing.assert_allclose(out.data, x[idx])
    T.sum_all(out).backward()
    expected = np.zeros_like(x)
    np.add.at(expected, idx, 1.0)
    np.testing.assert_allclose(tx.grad, expected)

    ty = tensor(x[idx], requires_grad=True)
    scat = T.scatter_add_rows(ty, idx, 5)
    assert scat.data.shape == (5, 3)
    np.testing.assert_allclose(scat.data[1], 0.0)
    np.testing.assert_allclose(scat.data[0], x[0] * 2)
    T.sum_all(scat).backward()
    np.testing.assert_allclose(ty.grad, np.ones_like(ty.data))


def test_cross_entropy_examples():
    # probability one on the true class -> zero loss
    logits = tensor([[100.0, 0.0, 0.0]])
    assert float(T.cross_entropy_from_logits(logits, [0]).data) < 1e-6
    # uniform logits, C=4 -> log 4
    logits = tensor(np.zeros((2, 4)))
    np.testing.assert_allclose(
        float(T.cross_entropy_from_logits(logits, [1, 3]).data), np.log(4.0), atol=1e-12
    )


def test_cross_entropy_label_domain():
    with pytest.raises(DomainError):
        T.cross_entropy_from_logits(tensor(np.zeros((2, 3))), [0, 3])


def test_cross_entropy_gradient():
    rng = rng64(5)
    logits = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 1])

    def f(lv):
        shifted = lv - lv.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(4), labels].mean())

    tl = tensor(logits, requires_grad=True)
    T.cross_entropy_from_logits(tl, labels).backward()
    assert rel_err(tl.grad, numeric_grad(f, [logits], 0)) < 1e-6


def test_kl_examples():
    p = tensor([0.2, 0.3, 0.5])
    assert abs(float(T.kl_from_probs(p, p).data)) < 1e-12
    out = T.kl_from_probs(tensor([1.0, 0.0]), tensor([0.5, 0.5]))
    np.testing.assert_allclose(float(out.data), np.log(2.0))


def test_kl_domain_check():
    with pytest.raises(DomainError):
        T.kl_from_probs(tensor([1.2, -0.2]), tensor([0.5, 0.5]))


def test_kl_gradient_wrt_d():
    rng = rng64(6)
    p = np.array([0.0, 0.4, 0.6])
    d_raw = rng.random(3) + 0.1
    d = d_raw / d_raw.sum()

    def f(dv):
        return float(sum(pi * np.log(pi / di) for pi, di in zip(p, dv) if pi > 0))

    td = tensor(d, requires_grad=True)
    T.kl_from_probs(tensor(p), td).backward()
    assert rel_err(td.grad, numeric_grad(f, [d], 0)) < 1e-6


def test_wasserstein_matches_hand_value_and_grad():
    p = np.array([1.0, 0.0, 0.0])
    d = np.array([0.0, 0.0, 1.0])
    out = T.wasserstein1_from_probs(tensor(p), tensor(d))
    np.testing.assert_allclose(float(out.data), 2.0)  # move all mass two slots

    rng = rng64(8)
    pv = rng.random(5)
    pv /= pv.sum()
    dv = rng.random(5)
    dv /= dv.sum()

    def f(dx):
        return float(np.abs(np.cumsum(pv - dx)).sum())

    td = tensor(dv, requires_grad=True)
    T.wasserstein1_from_probs(tensor(pv), td).backward()
    assert rel_err(td.grad, numeric_grad(f, [dv], 0)) < 1e-6


def test_clip_relu_linear_gradients():
    rng = rng64(9)
    x = rng.standard_normal((4, 3)) * 3
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)

    def f(xv, wv, bv):
        h = np.clip(xv, -1.5, 1.5)
        h = np.maximum(h @ wv + bv, 0.0)
        return float(h.sum())

    tx = tensor(x, requires_grad=True)
    tw = tensor(w, requires_grad=True)
    tb = tensor(b, requires_grad=True)
    T.sum_all(T.relu(T.linear(T.clip(tx, -1.5, 1.5), tw, tb))).backward()
    for i, t in enumerate((tx, tw, tb)):
        assert rel_err(t.grad, numeric_grad(f, [x, w, b], i)) < 1e-6


def test_chain_rule_composition():
    rng = rng64(10)
    x = rng.standard_normal((3, 3))

    def f(xv):
        h = np.maximum(xv @ xv, 0.0)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        return float((e / e.sum(axis=-1, keepdims=True)).var() * 10.0)

    # composite: softmax(relu(x @ x)); variance via ops
    tx = tensor(x, requires_grad=True)
    s = T.softmax_lastdim(T.relu(T.matmul(tx, tx)))
    mean = T.mul(T.sum_all(s), 1.0 / s.data.size)
    centered = T.sub(s, mean)
    out = T.mul(T.mul(T.sum_all(T.mul(centered, centered)), 1.0 / s.data.size), 10.0)
    out.backward()
    assert rel_err(tx.grad, numeric_grad(f, [x], 0)) < 1e-5


def test_detach_blocks_gradient():
    x = tensor([2.0, 3.0], requires_grad=True)
    y = T.mul(x, 2.0)
    z = T.sum_all(T.mul(T.Tensor(y.data), x))
    z.backward()
    np.testing.assert_allclose(x.grad, y.data)  # only the non-detached path


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    x = tensor([[1.0, -2.0], [3.0, 4.0]], requires_grad=True)
    y = T.relu(T.matmul(x, x))
    loss = T.sum_all(T.mul(y, y))
    loss.backward()
    np.testing.assert_array_equal(x.grad, [[90.0, 60.0], [110.0, 250.0]])
    for node in (y, loss):
        assert node.grad is None and node._parents == ()


@pytest.mark.parametrize(
    "node_shape,seed_shape", [((3, 2), (2,)), ((2,), (1,)), ((), (1,)), ((2,), ())]
)
def test_a_seed_gradient_of_another_shape_raises_naming_both(node_shape, seed_shape):
    """A seed is not broadcast: a (2,) seed on a (3, 2) node used to give
    the leaf a (2,) gradient, and a (1,) seed on a (2,) node was spread
    silently. Nothing is accumulated before the error."""
    x = tensor(np.ones(node_shape), requires_grad=True)
    y = T.mul(x, 2.0)
    message = f"seed gradient {seed_shape} for a {node_shape} node"
    with pytest.raises(ShapeError, match=re.escape(message)):
        y.backward(np.ones(seed_shape))
    assert x.grad is None and y.grad is None
    y.backward(np.full(node_shape, 3.0))  # the graph is intact, and a seed of its shape runs
    np.testing.assert_array_equal(x.grad, np.full(node_shape, 6.0))


def _consumers_of(x, other, x_first, passed, ran):
    """One graph node per ``x_first`` flag, made in that order, that lists
    its parents as (x, other) or (other, x); node i records i when its
    backward runs and passes x ``passed[i]``."""
    def consumer(i):
        def backward(g):
            ran.append(i)
            T._accumulate(x, passed[i:i + 1])

        parents = (x, other) if x_first[i] else (other, x)
        return T._make(np.zeros(1, np.float32), parents, backward)

    return [consumer(i) for i in range(len(x_first))]


def test_a_node_sums_its_consumers_gradients_in_reverse_creation_order():
    """x feeds three consumers, made in the order 0, 1, 2, that pass it 1,
    1e8 and -1e8 in float32, whose sum depends on its order. Whatever order
    the root and each consumer list their parents in, backward runs the
    consumers 2, 1, 0, so x's gradient is (-1e8 + 1e8) + 1 = 1."""
    passed = np.array([1.0, 1e8, -1e8], dtype=np.float32)
    for root_order in itertools.permutations(range(3)):
        for x_first in itertools.product((True, False), repeat=3):
            x = tensor(np.zeros(1, np.float32), requires_grad=True)
            other = tensor(np.zeros(1, np.float32), requires_grad=True)
            ran = []
            consumers = _consumers_of(x, other, x_first, passed, ran)

            def backward(g, consumers=consumers):
                for consumer in consumers:
                    T._accumulate(consumer, g)

            parents = tuple(consumers[i] for i in root_order)
            T._make(np.zeros(1, np.float32), parents, backward).backward()
            assert ran == [2, 1, 0], (root_order, x_first)
            assert x.grad.tobytes() == np.float32([1.0]).tobytes(), (root_order, x_first)


def test_second_backward_through_a_released_node_raises():
    x = tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, 3.0)
    first = T.sum_all(y)
    second = T.sum_all(T.mul(y, y))  # shares y with the first graph
    first.backward()
    with pytest.raises(GraphReleasedError):
        second.backward()
    with pytest.raises(GraphReleasedError):
        first.backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])  # only the first backward landed


def test_no_grad_ops_return_bare_leaves():
    x = tensor([[1.0, -2.0], [3.0, 4.0]], requires_grad=True)
    with T.no_grad():
        y = T.sum_all(T.relu(T.matmul(x, x)))
    assert not y.requires_grad and y._parents == () and y._backward is None
    np.testing.assert_array_equal(y.data, np.maximum(x.data @ x.data, 0).sum())
    assert T.sum_all(x).requires_grad  # the graph is back after the block


def test_no_grad_restores_after_exception_and_nesting():
    x = tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside")
    assert T.mul(x, 2.0).requires_grad
    with T.no_grad():
        with T.no_grad():
            pass
        assert not T.mul(x, 2.0).requires_grad  # the inner exit keeps the outer block off
    assert T.mul(x, 2.0).requires_grad


def test_sum_axis_div_reshape_grads():
    rng = rng64(11)
    x = rng.standard_normal((4, 5)) + 3.0

    def f(xv):
        row = xv.sum(axis=1, keepdims=True)
        return float(((xv / row) ** 2).sum())

    tx = tensor(x, requires_grad=True)
    row = T.sum_axis(tx, axis=1, keepdims=True)
    norm = T.div(tx, row)
    T.sum_all(T.mul(norm, norm)).backward()
    assert rel_err(tx.grad, numeric_grad(f, [x], 0)) < 1e-6


def test_adam_zero_gradient_only_decays():
    p = tensor(np.array([2.0, -4.0]))
    state = T.AdamState({"p": p})
    T.adam_step(state, lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.01))


def test_adam_single_step_hand_value():
    p = tensor(np.array([1.0]))
    state = T.AdamState({"p": p})
    p.grad += 1.0
    T.adam_step(state, lr=0.001)
    # bias-corrected first step moves by ~lr regardless of gradient scale
    np.testing.assert_allclose(p.data, 1.0 - 0.001 * (1.0 / (1.0 + 1e-8)), atol=1e-12)


def test_adam_deterministic_repeat():
    def run():
        rng = np.random.default_rng(42)
        p = tensor(rng.standard_normal(8))
        state = T.AdamState({"p": p})
        for _ in range(25):
            p.grad += rng.standard_normal(8)
            T.adam_step(state, lr=0.01, weight_decay=1e-4)
        return p.data.tobytes()

    assert run() == run()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_arena_matches_per_tensor_loop(dtype, weight_decay):
    # "big" spans more than one block and the total is no block multiple;
    # "unused" never receives a gradient
    shapes = {"big": (T.ADAM_BLOCK + 77,), "w": (33, 7), "b": (7,), "unused": (5,), "s": ()}
    rng = rng64(21)
    init = {n: np.asarray(rng.standard_normal(s), dtype=dtype) for n, s in shapes.items()}
    fast = {n: T.Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
    slow = {n: T.Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
    fast_state, slow_state = T.AdamState(fast), LoopAdamState(slow)
    ends = np.cumsum([a.size for a in init.values()])
    spans = {n: slice(end - a.size, end) for (n, a), end in zip(init.items(), ends)}
    for step in range(25):
        grads = {n: np.asarray(rng.standard_normal(s), dtype=dtype) for n, s in shapes.items()}
        grads["unused"] = None
        for n, g in grads.items():
            if g is not None:
                fast[n].grad += g  # in place, as a backward pass accumulates
        T.adam_step(fast_state, lr=1e-2, weight_decay=weight_decay)
        adam_loop(slow, grads, slow_state, lr=1e-2, weight_decay=weight_decay)
        for n, span in spans.items():
            assert fast[n].data.tobytes() == slow[n].data.tobytes(), (step, n)
            assert fast_state.flat_m[span].tobytes() == slow_state.m[n].tobytes(), (step, n)
            assert fast_state.flat_v[span].tobytes() == slow_state.v[n].tobytes(), (step, n)
            for view, flat in ((fast[n].data, fast_state.flat), (fast[n].grad, fast_state.flat_grad)):
                assert view.dtype == dtype and np.shares_memory(view, flat), (step, n)
            assert not fast[n].grad.any()
    assert fast_state.step == slow_state.step == 25


def test_adam_arena_needs_one_dtype():
    params = {"a": tensor(np.zeros(2)), "b": tensor(np.zeros(2), dtype=np.float32)}
    with pytest.raises(TypeError):
        T.AdamState(params)


def test_linear_skips_unneeded_input_gradient():
    rng = rng64(11)
    x, w, b, g = (rng.standard_normal(s) for s in ((6, 4), (4, 5), (5,), (6, 5)))
    results = []
    for needs_grad in (True, False):
        tx = tensor(x, requires_grad=needs_grad)
        tw, tb = tensor(w, requires_grad=True), tensor(b, requires_grad=True)
        T.sum_all(T.mul(T.linear(tx, tw, tb), tensor(g))).backward()
        results.append((tx.grad, tw.grad.tobytes(), tb.grad.tobytes()))
    (x_grad, *with_x), (no_x_grad, *without_x) = results
    assert x_grad is not None and no_x_grad is None
    assert with_x == without_x


def test_seed_streams_split_and_repeat():
    a = T.SeedStreams(7)
    b = T.SeedStreams(7)
    draw_a = a.stream("stage0.enc1").random(4)
    draw_b = b.stream("stage0.enc1").random(4)
    np.testing.assert_array_equal(draw_a, draw_b)
    # a different site gives an unrelated stream, same site persists state
    other = a.stream("stage0.enc2").random(4)
    assert not np.allclose(draw_a, other)
    assert not np.allclose(a.stream("stage0.enc1").random(4), draw_a)


def test_forward_backward_determinism():
    def run():
        rng = np.random.default_rng(3)
        x = tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = tensor(rng.standard_normal((4, 4)), requires_grad=True)
        h = T.softmax_lastdim(T.relu(T.matmul(x, w)))
        out = T.sum_all(T.mul(h, h))
        out.backward()
        return (x.grad.tobytes(), w.grad.tobytes(), out.data.tobytes())

    assert run() == run()


# ---------------------------------------------------------------------------
# dtype discipline: float32 inputs give float32 values and float32 gradients


def _f32(rng, shape, low=None):
    arr = rng.random(shape) + low if low is not None else rng.standard_normal(shape)
    return T.Tensor(arr.astype(np.float32), requires_grad=True)


def _probs32(rng, shape):
    arr = rng.random(shape) + 0.1
    return T.Tensor((arr / arr.sum(axis=-1, keepdims=True)).astype(np.float32), requires_grad=True)


def _op_cases():
    """(name, build) pairs; build(rng) returns (output, leaves), covering
    every public op of tensor.py, its 0-d outputs and 0-d chains."""
    band = T.SlotLayout.build(np.arange(-1, 2), 5)
    full = T.SlotLayout.build(None, 6)
    stream = np.random.default_rng(1)

    def leaves(n, shape=(5, 4)):
        return lambda rng: [_f32(rng, shape) for _ in range(n)]

    cases = {
        "add": (leaves(2), lambda a, b: T.add(a, b)),
        "add.broadcast": (lambda r: [_f32(r, (5, 4)), _f32(r, (4,))], lambda a, b: T.add(a, b)),
        "sub": (leaves(2), lambda a, b: T.sub(a, b)),
        "mul": (leaves(2), lambda a, b: T.mul(a, b)),
        "mul.scalar": (leaves(1), lambda a: T.mul(a, 0.3)),
        "div": (lambda r: [_f32(r, (5, 4)), _f32(r, (5, 4), low=0.5)], lambda a, b: T.div(a, b)),
        "matmul": (lambda r: [_f32(r, (5, 4)), _f32(r, (4, 3))], lambda a, b: T.matmul(a, b)),
        "linear": (lambda r: [_f32(r, (5, 4)), _f32(r, (4, 6)), _f32(r, (6,))], T.linear),
        "relu": (leaves(1), T.relu),
        "clip": (leaves(1), lambda a: T.clip(a, -0.5, 0.5)),
        "transpose2d": (leaves(1), T.transpose2d),
        "reshape": (leaves(1), lambda a: T.reshape(a, (2, 10))),
        "slice_cols": (leaves(1), lambda a: T.slice_cols(a, 1, 3)),
        "slice_rows": (leaves(1), lambda a: T.slice_rows(a, 1, 4)),
        "concat_cols": (leaves(2), lambda a, b: T.concat_cols([a, b])),
        "gather_rows": (leaves(1), lambda a: T.gather_rows(a, [0, 2, 2])),
        "downsample_nearest": (leaves(1), T.downsample_nearest),
        "upsample_nearest": (leaves(1), lambda a: T.upsample_nearest(a, 9)),
        "scatter_add_rows": (leaves(1), lambda a: T.scatter_add_rows(a, [0, 1, 1, 3, 0], 4)),
        "sum_all": (leaves(1), T.sum_all),
        "sum_axis": (leaves(1), lambda a: T.sum_axis(a, 1, keepdims=True)),
        "mean_all": (leaves(1), T.mean_all),
        "softmax_lastdim": (leaves(1), T.softmax_lastdim),
        "log_softmax_lastdim": (leaves(1), T.log_softmax_lastdim),
        "instance_norm_temporal": (
            lambda r: [_f32(r, (5, 4)), _f32(r, (4,)), _f32(r, (4,))],
            lambda x, g, b: T.instance_norm_temporal(x, g, b, residual=_no_residual(x)),
        ),
        "instance_norm_temporal.residual": (
            lambda r: [_f32(r, (5, 4)), _f32(r, (5, 4)), _f32(r, (4,)), _f32(r, (4,))],
            lambda x, res, g, b: T.instance_norm_temporal(x, g, b, residual=res),
        ),
        "dropout": (leaves(1), lambda a: T.dropout(a, 0.5, stream)),
        "slot_project": (
            lambda r: [_f32(r, (5, 3)), _f32(r, (3, 12)), _f32(r, (8,))],
            lambda x, w, b: T.slot_project(x, w, b, band),
        ),
        "slot_project.keys": (
            lambda r: [_f32(r, (6, 3)), _f32(r, (6, 3)), _f32(r, (3, 12)), _f32(r, (8,))],
            lambda x, memory, w, b: T.slot_project(x, w, b, full, memory),
        ),
        "slot_softmax": (
            lambda r: [_f32(r, (band.padded_rows, 3, 4)), _f32(r, (3, 2))],
            lambda qkv, rpe: T.slot_softmax(qkv, band, 2, rpe),
        ),
        "slot_softmax.full": (
            lambda r: [_f32(r, (6, 3, 4))],
            lambda qkv: T.slot_softmax(qkv, full, 2),
        ),
        "slot_mix": (
            lambda r: [_probs32(r, (5, 2, 3)), _f32(r, (band.padded_rows, 3, 4))],
            lambda p, qkv: T.slot_mix(p, qkv, band),
        ),
        "slot_mix.dropout": (
            lambda r: [_probs32(r, (5, 2, 3)), _f32(r, (band.padded_rows, 3, 4))],
            lambda p, qkv: T.slot_mix(p, qkv, band, 0.5, stream),
        ),
        "slot_mix.full": (
            lambda r: [_probs32(r, (6, 2, 6)), _f32(r, (6, 3, 4))],
            lambda p, qkv: T.slot_mix(p, qkv, full),
        ),
        "ffn_block": (
            lambda r: [_f32(r, (5, 4)), _f32(r, (4, 6)), _f32(r, (6,)), _f32(r, (6, 3))],
            T.ffn_block,
        ),
        "ffn_block.dropout": (
            lambda r: [_f32(r, (5, 4)), _f32(r, (4, 6)), _f32(r, (6,)), _f32(r, (6, 3))],
            lambda *leaves: T.ffn_block(*leaves, 0.5, stream),
        ),
        "cross_entropy_from_logits": (
            leaves(1), lambda a: T.cross_entropy_from_logits(a, [0, 3, 1, 2, 0])
        ),
        "kl_from_probs": (lambda r: [_probs32(r, (5, 4)), _probs32(r, (5, 4))], T.kl_from_probs),
        "wasserstein1_from_probs": (
            lambda r: [_probs32(r, (5, 4)), _probs32(r, (5, 4))], T.wasserstein1_from_probs
        ),
        "0d.add": (leaves(2), lambda a, b: T.add(T.sum_all(a), T.sum_all(b))),
        "0d.mul.scalar": (leaves(1), lambda a: T.mul(T.sum_all(a), 0.5)),
        "0d.chain": (
            leaves(2), lambda a, b: T.add(T.mul(T.mean_all(a), 0.1), T.mean_all(T.mul(a, b)))
        ),
    }
    return cases


@pytest.mark.parametrize("name", list(_op_cases()))
def test_float32_stays_float32(name):
    make, op = _op_cases()[name]
    inputs = make(np.random.default_rng(5))
    out = op(*inputs)
    assert out.data.dtype == np.float32, f"{name} value is {out.data.dtype}"
    out.backward()
    for i, leaf in enumerate(inputs):
        assert leaf.grad is not None, f"{name} input {i} got no gradient"
        assert leaf.grad.dtype == np.float32, f"{name} input {i} gradient is {leaf.grad.dtype}"
