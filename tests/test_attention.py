import itertools

import numpy as np
import pytest

from _oracles import (
    attend_qkv,
    attention_loop,
    in_range_mask,
    logsparse_key_set,
    numeric_grad,
    rel_err,
    slot_mix_per_call,
    slot_softmax_per_call,
    tensor,
    valid_key_sets,
)
from tut import attention as A
from tut import net as N
from tut import tensor as T
from tut.errors import ConfigError, ShapeError


def cfg_for(pattern, window=3, heads=1, **kw):
    """``attend``'s settings, as keyword arguments."""
    return dict(pattern=pattern, window=window, heads=heads, **kw)


def rand_qkv(rng, t, d):
    return tuple(tensor(rng.standard_normal((t, d))) for _ in range(3))


def test_single_key_is_identity():
    rng = np.random.default_rng(0)
    q, k, v = rand_qkv(rng, 1, 4)
    out, probs = attend_qkv(q, k, v, **cfg_for("local", window=7, heads=2))
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)
    valid = in_range_mask(A.slot_layout("local", 1, 7).offsets, 1)
    np.testing.assert_allclose(probs.data[0, 0, valid[0]], [1.0])


def test_window_clamping_key_sets():
    rng = np.random.default_rng(1)
    q, k, v = rand_qkv(rng, 4, 2)
    _, probs = attend_qkv(q, k, v, **cfg_for("local", window=3))
    sets = valid_key_sets(probs, A.slot_layout("local", 4, 3))
    assert sets[0] == {0, 1}
    assert sets[2] == {1, 2, 3}


def test_local_matches_full_with_saturating_window():
    rng = np.random.default_rng(2)
    for trial in range(50):
        t = int(rng.integers(1, 33))
        d = int(rng.integers(1, 4)) * 2
        heads = int(rng.choice([1, 2]))
        q, k, v = rand_qkv(rng, t, d)
        w = 2 * t - 1 if t % 2 == 1 else 2 * t + 1  # odd, >= 2t-1
        local, _ = attend_qkv(q, k, v, **cfg_for("local", window=w, heads=heads))
        full, _ = attend_qkv(q, k, v, **cfg_for("full", heads=heads))
        assert np.max(np.abs(local.data - full.data)) < 1e-6


def test_full_attention_uniform_keys():
    rng = np.random.default_rng(3)
    t, d = 5, 4
    q = tensor(rng.standard_normal((t, d)))
    k = tensor(np.tile(rng.standard_normal((1, d)), (t, 1)))
    v = tensor(rng.standard_normal((t, d)))
    out, probs = attend_qkv(q, k, v, **cfg_for("full"))
    np.testing.assert_allclose(probs.data[:, 0], np.full((t, t), 1 / t), atol=1e-12)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (t, 1)), atol=1e-12)


def test_full_attention_kv_permutation_symmetry():
    rng = np.random.default_rng(4)
    q, k, v = rand_qkv(rng, 6, 4)
    out, _ = attend_qkv(q, k, v, **cfg_for("full", heads=2))
    perm = rng.permutation(6)
    out_p, _ = attend_qkv(
        q, tensor(k.data[perm]), tensor(v.data[perm]), **cfg_for("full", heads=2)
    )
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)


def test_kv_length_mismatch_raises():
    # K and V are one projection of the memory rows: a memory whose length
    # is not the queries' is refused before anything is read
    rng = np.random.default_rng(5)
    w, b = tensor(rng.standard_normal((2, 6))), tensor(np.zeros(4))
    layout = A.slot_layout("local", 4, 3)
    x, memory = (tensor(rng.standard_normal((rows, 2))) for rows in (4, 3))
    with pytest.raises(ShapeError, match="does not fit"):
        T.slot_project(x, w, b, layout, memory)


def test_logsparse_key_sets_match_enumeration():
    rng = np.random.default_rng(6)
    for t in range(1, 65):
        q, k, v = rand_qkv(rng, t, 2)
        _, probs = attend_qkv(q, k, v, **cfg_for("logsparse"))
        sets = valid_key_sets(probs, A.slot_layout("logsparse", t, 3))
        bound = 2 * int(np.ceil(np.log2(t))) + 1 if t > 1 else 1
        for i in range(t):
            assert sets[i] == logsparse_key_set(t, i)
            assert len(sets[i]) <= bound


def test_logsparse_t9_example_and_t1():
    rng = np.random.default_rng(7)
    q, k, v = rand_qkv(rng, 9, 2)
    _, probs = attend_qkv(q, k, v, **cfg_for("logsparse"))
    assert valid_key_sets(probs, A.slot_layout("logsparse", 9, 3))[4] == {4, 3, 5, 2, 6, 0, 8}
    q1, k1, v1 = rand_qkv(rng, 1, 2)
    out, _ = attend_qkv(q1, k1, v1, **cfg_for("logsparse"))
    np.testing.assert_allclose(out.data, v1.data, atol=1e-12)


def test_rows_sum_to_one_all_patterns():
    rng = np.random.default_rng(8)
    for pattern in ("full", "local", "logsparse"):
        q, k, v = rand_qkv(rng, 11, 4)
        _, probs = attend_qkv(q, k, v, **cfg_for(pattern, window=5, heads=2))
        offsets = A.slot_layout(pattern, 11, 5).offsets
        valid = True if offsets is None else in_range_mask(offsets, 11)[:, None, :]
        sums = np.where(valid, probs.data, 0.0).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)


def test_local_storage_bound():
    rng = np.random.default_rng(9)
    t, w, h = 40, 7, 2
    q, k, v = rand_qkv(rng, t, 4)
    _, probs = attend_qkv(q, k, v, **cfg_for("local", window=w, heads=h))
    assert probs.data.size == h * w * t
    assert probs.data.size <= h * w * t


def test_zero_rpe_table_leaves_scores_unchanged():
    rng = np.random.default_rng(10)
    q, k, v = rand_qkv(rng, 8, 4)
    cfg = cfg_for("local", window=5, heads=2)
    plain, _ = attend_qkv(q, k, v, **cfg)
    zero = tensor(np.zeros((5, 2)))
    with_rpe, _ = attend_qkv(q, k, v, **cfg, rpe=zero)
    np.testing.assert_allclose(plain.data, with_rpe.data, atol=1e-12)


def test_rpe_additivity_zero_projections():
    # with Q=K=0 the attention rows equal softmax of the rpe slice alone
    rng = np.random.default_rng(11)
    t, w, h = 9, 5, 2
    cfg = cfg_for("local", window=w, heads=h)
    q = tensor(np.zeros((t, 4)))
    k = tensor(np.zeros((t, 4)))
    v = tensor(rng.standard_normal((t, 4)))
    table = rng.standard_normal((w, h))
    _, probs = attend_qkv(q, k, v, **cfg, rpe=tensor(table))
    half = w // 2
    for i in range(half, t - half):  # full windows only
        for head in range(h):
            e = np.exp(table[:, head] - table[:, head].max())
            np.testing.assert_allclose(probs.data[i, head], e / e.sum(), atol=1e-10)


def test_rpe_wrong_shape_raises():
    rng = np.random.default_rng(12)
    q, k, v = rand_qkv(rng, 4, 4)
    with pytest.raises(ShapeError):
        attend_qkv(
            q, k, v, **cfg_for("local", window=5, heads=2), rpe=tensor(np.zeros((3, 2)))
        )


def test_relative_pe_requires_local():
    with pytest.raises(ConfigError, match="relative positional encoding requires the local"):
        N.ModelConfig(attention="full", pe_mode="relative", heads=2)


def test_config_validation():
    # ModelConfig holds the settings attend reads and checks them when built
    dims = dict(hidden_dim=8, hidden_dim_refine=8, pe_mode="none")
    with pytest.raises(ConfigError, match="window must be odd"):
        N.ModelConfig(window=4, **dims)
    with pytest.raises(ConfigError, match=r"heads \(3\) must divide model dim \(8\)"):
        N.ModelConfig(heads=3, **dims)
    # heads must divide the refinement stages' dim too
    with pytest.raises(ConfigError, match=r"model dim \(6\)"):
        N.ModelConfig(heads=4, hidden_dim=8, hidden_dim_refine=6, pe_mode="none")
    for key, value in (("attention", "dense"), ("pe_mode", "rotary"), ("rpe_share", "all")):
        with pytest.raises(ConfigError, match=f"unknown .*{value!r}"):
            N.ModelConfig(**{**dims, key: value})
    N.ModelConfig(window=5, heads=2, **dims)


@pytest.mark.parametrize("pattern", ["full", "local", "logsparse"])
def test_gradients_vs_finite_differences(pattern):
    rng = np.random.default_rng(13)
    t, d, w, h = 7, 4, 3, 2
    q0 = rng.standard_normal((t, d))
    k0 = rng.standard_normal((t, d))
    v0 = rng.standard_normal((t, d))
    weights = rng.standard_normal((t, d))
    cfg = cfg_for(pattern, window=w, heads=h)

    def f(qv, kv, vv):
        out, _ = attend_qkv(tensor(qv), tensor(kv), tensor(vv), **cfg)
        return float((out.data * weights).sum())

    tq = tensor(q0, requires_grad=True)
    tk = tensor(k0, requires_grad=True)
    tv = tensor(v0, requires_grad=True)
    out, _ = attend_qkv(tq, tk, tv, **cfg)
    T.sum_all(T.mul(out, tensor(weights))).backward()
    for i, ten in enumerate((tq, tk, tv)):
        assert rel_err(ten.grad, numeric_grad(f, [q0, k0, v0], i)) < 1e-4


def test_rpe_gradient_vs_finite_differences():
    rng = np.random.default_rng(14)
    t, d, w, h = 8, 4, 5, 2
    q0, k0, v0 = (rng.standard_normal((t, d)) for _ in range(3))
    table0 = rng.standard_normal((w, h)) * 0.1
    weights = rng.standard_normal((t, d))
    cfg = cfg_for("local", window=w, heads=h)

    def f(tab):
        out, _ = attend_qkv(
            tensor(q0), tensor(k0), tensor(v0), **cfg, rpe=tensor(tab)
        )
        return float((out.data * weights).sum())

    tt = tensor(table0, requires_grad=True)
    out, _ = attend_qkv(tensor(q0), tensor(k0), tensor(v0), **cfg, rpe=tt)
    T.sum_all(T.mul(out, tensor(weights))).backward()
    assert rel_err(tt.grad, numeric_grad(f, [table0], 0)) < 1e-4


def test_fused_local_matches_slotted_oracle():
    # every pattern's two slot nodes against the per-head loops, with and
    # without dropout, as self- and as cross-attention; the relative-position
    # table exists only under local
    rng = np.random.default_rng(17)
    flags = (False, True)
    cases = [("local", *c) for c in itertools.product((1, 2, 4), (1, 3, 11, 51), flags, flags)]
    cases += [(p, h, 1, False, drop) for p in ("full", "logsparse") for h in (1, 2, 4) for drop in flags]
    for n, (pattern, heads, w, use_rpe, drop) in enumerate(c for c in cases for _ in range(5)):
        t = 1 + n % 40
        d = heads * int(rng.integers(1, 4))
        cfg = cfg_for(pattern, window=w, heads=heads, dropout=0.5)
        arrays = [rng.standard_normal(shape) for shape in ((t, d), (t, d), (t, d), (w, heads))]
        weights = rng.standard_normal((t, d))
        results = []
        for fused in flags:
            leaves = [tensor(a, requires_grad=True) for a in arrays]
            rpe = leaves[3] if use_rpe else None
            stream = np.random.default_rng(n) if drop else None
            if fused:
                out, kept = attend_qkv(*leaves[:3], **cfg, rpe=rpe, rng=stream, cross=n % 2 == 0)
            else:
                out, kept = attention_loop(*leaves[:3], **cfg, rpe=rpe, rng=stream)
            T.sum_all(T.mul(out, tensor(weights))).backward()
            grads = [np.zeros_like(a) if x.grad is None else x.grad for a, x in zip(arrays, leaves)]
            if fused:
                probs = kept.data
            else:
                probs = np.stack([p.data for p in kept], axis=1)
            results.append((out.data, grads, probs))
        (out, grads, probs), (want_out, want_grads, want_probs) = results
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        for got, want in zip(grads + [probs], want_grads + [want_probs]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# (T, w, cross): self-attention, cross-attention to a memory of T rows,
# T < w, T = 1, a wide window, and T = 130, past BLAS's small-matrix sizes
SLOT_SHAPES = [
    (9, 5, False), (6, 5, True), (11, 5, True), (3, 7, False), (1, 5, False), (1, 3, True),
    (20, 51, False), (130, 11, False), (130, 11, True),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pattern", ["local", "logsparse", "full"])
@pytest.mark.parametrize("use_rpe", [False, True])
def test_slot_kernels_match_per_call_oracle_bytes(dtype, pattern, use_rpe):
    """The fused kernels (cached layout, in-place chain, window views of the
    projection buffer, dropout inside the mix) give the per-call kernels'
    probabilities, output and gradients byte for byte, with dropout off and
    on; a cross shape projects K|V from a memory leaf of its own."""
    rng = np.random.default_rng(18)
    heads, d_in = 2, 5
    dim = 3 * heads
    for (t, w, cross), drop in itertools.product(SLOT_SHAPES, (False, True)):
        layout = A.slot_layout(pattern, t, w)
        shapes = ((t, d_in), (t, d_in), (d_in, 3 * dim), (2 * dim,), (layout.slots, heads))
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        w_probs = tensor(rng.standard_normal((t, heads, layout.slots)).astype(dtype))
        w_out = tensor(rng.standard_normal((t, dim)).astype(dtype))
        results = []
        for softmax, mix in ((T.slot_softmax, T.slot_mix), (slot_softmax_per_call, slot_mix_per_call)):
            leaves = [tensor(a, requires_grad=True) for a in arrays]
            x, memory, weight, bias, rpe = leaves
            qkv = T.slot_project(x, weight, bias, layout, memory if cross else None)
            probs = softmax(qkv, layout, heads, rpe if use_rpe else None)
            out = mix(probs, qkv, layout, 0.5, np.random.default_rng(7) if drop else None)
            T.add(T.sum_all(T.mul(probs, w_probs)), T.sum_all(T.mul(out, w_out))).backward()
            grads = [leaf.grad for leaf in leaves]
            assert (memory.grad is None) != cross and (rpe.grad is None) != use_rpe
            results.append([probs.data, out.data] + [g for g in grads if g is not None])
        for a, b in zip(*results, strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slot_project_rows_are_the_linear_bytes_between_zero_rows(dtype):
    """The projection buffer holds x @ w + b, byte for byte as ``linear``
    gives it with b's Q and V blocks and a zero K block, in rows
    pad .. pad + T, and zeros in every other row; with a memory, its Q
    columns are x's and its K|V columns the memory's."""
    rng = np.random.default_rng(21)
    for pattern, (t, w, _) in itertools.product(("local", "logsparse", "full"), SLOT_SHAPES):
        layout = A.slot_layout(pattern, t, w)
        x, memory = (tensor(rng.standard_normal((t, 7)).astype(dtype)) for _ in range(2))
        weight, bias = (rng.standard_normal(s).astype(dtype) for s in ((7, 12), (8,)))
        qkv_bias = np.concatenate([bias[:4], np.zeros(4, dtype), bias[4:]])
        rows = slice(layout.pad, layout.pad + t)

        def linear(source, cols):
            return T.linear(source, tensor(weight[:, cols]), tensor(qkv_bias[cols])).data

        for source in (None, memory):
            buf = T.slot_project(x, tensor(weight), tensor(bias), layout, source).data
            assert buf.shape == (layout.padded_rows, 3, 4)
            got = buf[rows].reshape(t, -1)
            if source is None:
                assert got.tobytes() == linear(x, slice(None)).tobytes()
            else:
                assert got[:, :4].tobytes() == linear(x, slice(0, 4)).tobytes()
                assert got[:, 4:].tobytes() == linear(memory, slice(4, None)).tobytes()
            assert not buf[: rows.start].any() and not buf[rows.stop :].any()


@pytest.mark.parametrize("pattern", ["local", "full"])
def test_slot_kernels_reject_a_layout_built_for_other_lengths(pattern):
    rng = np.random.default_rng(20)
    x = tensor(rng.standard_normal((6, 3)))
    w, b = tensor(rng.standard_normal((3, 12))), tensor(rng.standard_normal(8))
    built = A.slot_layout(pattern, 6, 3)
    qkv = T.slot_project(x, w, b, built)
    for t in (5, 7):
        layout = A.slot_layout(pattern, t, 3)
        with pytest.raises(ShapeError, match="does not fit"):
            T.slot_project(x, w, b, layout)
        with pytest.raises(ShapeError, match="does not fit"):
            T.slot_project(x, w, b, built, tensor(rng.standard_normal((t, 3))))
        p = tensor(np.full((6, 2, layout.slots), 1.0 / layout.slots))
        with pytest.raises(ShapeError, match="does not fit"):
            T.slot_softmax(qkv, layout, 2)
        with pytest.raises(ShapeError, match="does not fit"):
            T.slot_mix(p, qkv, layout)


def test_slot_layout_is_shared_read_only_and_masks_only_edge_rows():
    layout = A.slot_layout("local", 10, 5)
    assert A.slot_layout("local", 10, 5) is layout
    assert layout.edges == (slice(0, 2), slice(8, 10))  # w//2 rows at each end
    for arr in (layout.offsets, *layout.masks[np.dtype(np.float32)]):
        with pytest.raises(ValueError):
            arr[...] = 0
    full = A.slot_layout("full", 9, 5)
    assert full.offsets is None and full.slots == 9
    assert full.edges == () and all(full.masks[np.dtype(dt)] == () for dt in (np.float32, np.float64))
    rng = np.random.default_rng(19)
    shapes = [(t, w) for t, w, _ in SLOT_SHAPES] + [(40, 11), (100, 51), (60, 3)]
    for pattern, (t, w), dtype in itertools.product(
        ("local", "logsparse"), shapes, (np.float32, np.float64)
    ):
        layout = A.slot_layout(pattern, t, w)
        scores = rng.standard_normal((t, 3, layout.slots)).astype(dtype)
        valid = in_range_mask(layout.offsets, t)
        want = scores + np.where(valid, dtype(0.0), dtype(T.MASK_VALUE))[:, None, :]
        for rows, mask in zip(layout.edges, layout.masks[np.dtype(dtype)]):
            scores[rows] += mask[:, None, :]
        assert scores.tobytes() == want.tobytes(), (pattern, t, w)


def test_attention_dropout_record_keeps_predrop_rows():
    rng = np.random.default_rng(15)
    q, k, v = rand_qkv(rng, 12, 4)
    cfg = cfg_for("local", window=5, heads=1, dropout=0.5)
    stream = np.random.default_rng(0)
    _, probs = attend_qkv(q, k, v, **cfg, rng=stream)
    valid = in_range_mask(A.slot_layout("local", 12, 5).offsets, 12)
    sums = np.where(valid, probs.data[:, 0], 0.0).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_cross_attention_lengths():
    # decoder-style call: Q from x, K and V from a memory of the same length,
    # as after upsampling
    rng = np.random.default_rng(16)
    x, memory = (tensor(rng.standard_normal((10, 3))) for _ in range(2))
    w, b = tensor(rng.standard_normal((3, 12))), tensor(rng.standard_normal(8))
    out, probs = A.attend(x, w, b, **cfg_for("local", window=3, heads=2), memory=memory)
    assert out.data.shape == (10, 4)
    assert probs.data.shape == (10, 2, A.slot_layout("local", 10, 3).slots)


def test_slot_count_formula():
    assert A.slot_layout("local", 100, 7).slots == 7
    assert A.slot_layout("full", 100, 7).slots == 100
    assert A.slot_layout("logsparse", 64, 7).slots == 13
    assert A.slot_layout("logsparse", 1, 7).slots == 1


def test_sinusoidal_encoding_shape_and_range():
    table = A.sinusoidal_encoding(20, 7)
    assert table.shape == (20, 7)
    assert np.max(np.abs(table)) <= 1.0
    assert not np.allclose(table[1], table[2])
