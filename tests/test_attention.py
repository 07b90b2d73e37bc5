import itertools

import numpy as np
import pytest

from _oracles import (
    attention_loop,
    in_range_mask,
    logsparse_key_set,
    numeric_grad,
    rel_err,
    slot_mix_per_call,
    slot_softmax_per_call,
    valid_key_sets,
)
from tut import attention as A
from tut import tensor as T
from tut.errors import ConfigError, ShapeError


def cfg_for(pattern, window=3, heads=1, **kw):
    return A.AttentionConfig(pattern=pattern, window=window, heads=heads, pe_mode="none", **kw)


def rand_qkv(rng, t, d, t_k=None):
    t_k = t if t_k is None else t_k
    return (
        T.tensor(rng.standard_normal((t, d))),
        T.tensor(rng.standard_normal((t_k, d))),
        T.tensor(rng.standard_normal((t_k, d))),
    )


def test_single_key_is_identity():
    rng = np.random.default_rng(0)
    q, k, v = rand_qkv(rng, 1, 4)
    out, record = A.attend(q, k, v, cfg_for("local", window=7, heads=2))
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)
    valid = in_range_mask(record.layout.offsets, 1, 1)
    np.testing.assert_allclose(record.probs.data[0, 0, valid[0]], [1.0])


def test_window_clamping_key_sets():
    rng = np.random.default_rng(1)
    q, k, v = rand_qkv(rng, 4, 2)
    _, record = A.attend(q, k, v, cfg_for("local", window=3))
    sets = valid_key_sets(record)
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
        local, _ = A.attend(q, k, v, cfg_for("local", window=w, heads=heads))
        full, _ = A.attend(q, k, v, cfg_for("full", heads=heads))
        assert np.max(np.abs(local.data - full.data)) < 1e-6


def test_full_attention_uniform_keys():
    rng = np.random.default_rng(3)
    t, d = 5, 4
    q = T.tensor(rng.standard_normal((t, d)))
    k = T.tensor(np.tile(rng.standard_normal((1, d)), (t, 1)))
    v = T.tensor(rng.standard_normal((t, d)))
    out, record = A.attend(q, k, v, cfg_for("full"))
    np.testing.assert_allclose(record.probs.data[:, 0], np.full((t, t), 1 / t), atol=1e-12)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (t, 1)), atol=1e-12)


def test_full_attention_kv_permutation_symmetry():
    rng = np.random.default_rng(4)
    q, k, v = rand_qkv(rng, 6, 4)
    out, _ = A.attend(q, k, v, cfg_for("full", heads=2))
    perm = rng.permutation(6)
    out_p, _ = A.attend(
        q, T.tensor(k.data[perm]), T.tensor(v.data[perm]), cfg_for("full", heads=2)
    )
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)


def test_kv_length_mismatch_raises():
    rng = np.random.default_rng(5)
    q = T.tensor(rng.standard_normal((4, 2)))
    k = T.tensor(rng.standard_normal((4, 2)))
    v = T.tensor(rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        A.attend(q, k, v, cfg_for("local"))


def test_logsparse_key_sets_match_enumeration():
    rng = np.random.default_rng(6)
    for t in range(1, 65):
        q, k, v = rand_qkv(rng, t, 2)
        _, record = A.attend(q, k, v, cfg_for("logsparse"))
        sets = valid_key_sets(record)
        bound = 2 * int(np.ceil(np.log2(t))) + 1 if t > 1 else 1
        for i in range(t):
            assert sets[i] == logsparse_key_set(t, i)
            assert len(sets[i]) <= bound


def test_logsparse_t9_example_and_t1():
    rng = np.random.default_rng(7)
    q, k, v = rand_qkv(rng, 9, 2)
    _, record = A.attend(q, k, v, cfg_for("logsparse"))
    assert valid_key_sets(record)[4] == {4, 3, 5, 2, 6, 0, 8}
    q1, k1, v1 = rand_qkv(rng, 1, 2)
    out, _ = A.attend(q1, k1, v1, cfg_for("logsparse"))
    np.testing.assert_allclose(out.data, v1.data, atol=1e-12)


def test_rows_sum_to_one_all_patterns():
    rng = np.random.default_rng(8)
    for pattern in ("full", "local", "logsparse"):
        q, k, v = rand_qkv(rng, 11, 4)
        _, record = A.attend(q, k, v, cfg_for(pattern, window=5, heads=2))
        offsets = record.layout.offsets
        valid = True if offsets is None else in_range_mask(offsets, 11, 11)[:, None, :]
        sums = np.where(valid, record.probs.data, 0.0).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)


def test_local_storage_bound():
    rng = np.random.default_rng(9)
    t, w, h = 40, 7, 2
    q, k, v = rand_qkv(rng, t, 4)
    _, record = A.attend(q, k, v, cfg_for("local", window=w, heads=h))
    assert record.probs.data.size == h * w * t
    assert record.probs.data.size <= h * w * t


def test_zero_rpe_table_leaves_scores_unchanged():
    rng = np.random.default_rng(10)
    q, k, v = rand_qkv(rng, 8, 4)
    cfg = cfg_for("local", window=5, heads=2)
    plain, _ = A.attend(q, k, v, cfg)
    zero = A.RpeTable("scale0", T.tensor(np.zeros((5, 2))))
    with_rpe, _ = A.attend(q, k, v, cfg, rpe=zero)
    np.testing.assert_allclose(plain.data, with_rpe.data, atol=1e-12)


def test_rpe_additivity_zero_projections():
    # with Q=K=0 the attention rows equal softmax of the rpe slice alone
    rng = np.random.default_rng(11)
    t, w, h = 9, 5, 2
    cfg = cfg_for("local", window=w, heads=h)
    q = T.tensor(np.zeros((t, 4)))
    k = T.tensor(np.zeros((t, 4)))
    v = T.tensor(rng.standard_normal((t, 4)))
    table = rng.standard_normal((w, h))
    _, record = A.attend(q, k, v, cfg, rpe=A.RpeTable("s", T.tensor(table)))
    half = w // 2
    for i in range(half, t - half):  # full windows only
        for head in range(h):
            e = np.exp(table[:, head] - table[:, head].max())
            np.testing.assert_allclose(record.probs.data[i, head], e / e.sum(), atol=1e-10)


def test_rpe_wrong_shape_raises():
    rng = np.random.default_rng(12)
    q, k, v = rand_qkv(rng, 4, 4)
    with pytest.raises(ShapeError):
        A.attend(
            q, k, v, cfg_for("local", window=5, heads=2), rpe=A.RpeTable("x", T.tensor(np.zeros((3, 2))))
        )


def test_relative_pe_requires_local():
    cfg = A.AttentionConfig(pattern="full", pe_mode="relative", heads=2)
    with pytest.raises(ConfigError):
        cfg.validate(4)


def test_config_validation():
    with pytest.raises(ConfigError):
        A.AttentionConfig(window=4).validate(8)
    with pytest.raises(ConfigError):
        A.AttentionConfig(heads=3).validate(8)
    A.AttentionConfig(window=5, heads=2, pe_mode="none").validate(8)


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
        out, _ = A.attend(T.tensor(qv), T.tensor(kv), T.tensor(vv), cfg)
        return float((out.data * weights).sum())

    tq = T.tensor(q0, requires_grad=True)
    tk = T.tensor(k0, requires_grad=True)
    tv = T.tensor(v0, requires_grad=True)
    out, _ = A.attend(tq, tk, tv, cfg)
    T.sum_all(T.mul(out, T.tensor(weights))).backward()
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
        out, _ = A.attend(
            T.tensor(q0), T.tensor(k0), T.tensor(v0), cfg, rpe=A.RpeTable("s", T.tensor(tab))
        )
        return float((out.data * weights).sum())

    tt = T.tensor(table0, requires_grad=True)
    out, _ = A.attend(T.tensor(q0), T.tensor(k0), T.tensor(v0), cfg, rpe=A.RpeTable("s", tt))
    T.sum_all(T.mul(out, T.tensor(weights))).backward()
    assert rel_err(tt.grad, numeric_grad(f, [table0], 0)) < 1e-4


def test_fused_local_matches_slotted_oracle():
    # every pattern's two slot nodes against the per-head loops, with and
    # without dropout; the relative-position table exists only under local
    rng = np.random.default_rng(17)
    flags = (False, True)
    cases = [("local", *c) for c in itertools.product((1, 2, 4), (1, 3, 11, 51), flags, flags)]
    cases += [(p, h, 1, False, drop) for p in ("full", "logsparse") for h in (1, 2, 4) for drop in flags]
    for n, (pattern, heads, w, use_rpe, drop) in enumerate(c for c in cases for _ in range(5)):
        t_q = 1 + n % 40
        # cross lengths keep t_k >= t_q - w//2, so every query row has a key in range
        t_k = t_q if n % 2 else int(rng.integers(max(1, t_q - w // 2), t_q + w // 2 + 4))
        d = heads * int(rng.integers(1, 4))
        cfg = cfg_for(pattern, window=w, heads=heads, dropout=0.5)
        arrays = [rng.standard_normal(shape) for shape in ((t_q, d), (t_k, d), (t_k, d), (w, heads))]
        weights = rng.standard_normal((t_q, d))
        results = []
        for attend in (A.attend, attention_loop):
            leaves = [T.tensor(a, requires_grad=True) for a in arrays]
            rpe = A.RpeTable("s", leaves[3]) if use_rpe else None
            stream = np.random.default_rng(n) if drop else None
            out, kept = attend(*leaves[:3], cfg, rpe=rpe, rng=stream, train=drop)
            T.sum_all(T.mul(out, T.tensor(weights))).backward()
            grads = [np.zeros_like(a) if x.grad is None else x.grad for a, x in zip(arrays, leaves)]
            if attend is A.attend:
                probs = kept.probs.data
            else:
                probs = np.stack([p.data for p in kept], axis=1)
            results.append((out.data, grads, probs))
        (out, grads, probs), (want_out, want_grads, want_probs) = results
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        for got, want in zip(grads + [probs], want_grads + [want_probs]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# (T_q, T_k, w): square, T_q < T_k, T_q > T_k, T < w, T = 1, a wide window
SLOT_SHAPES = [(9, 9, 5), (6, 11, 5), (11, 6, 5), (3, 3, 7), (1, 1, 5), (1, 4, 3), (20, 20, 51)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pattern", ["local", "logsparse", "full"])
@pytest.mark.parametrize("use_rpe", [False, True])
def test_slot_kernels_match_per_call_oracle_bytes(dtype, pattern, use_rpe):
    """The cached layout and the in-place chain give the per-call kernels'
    probabilities, output and gradients byte for byte."""
    rng = np.random.default_rng(18)
    heads = 2
    for t_q, t_k, w in SLOT_SHAPES:
        layout = A.slot_layout(pattern, t_q, t_k, w)
        shapes = ((t_q, 3 * heads), (t_k, 3 * heads), (t_k, 3 * heads), (layout.slots, heads))
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        w_probs = T.tensor(rng.standard_normal((t_q, heads, layout.slots)).astype(dtype))
        w_out = T.tensor(rng.standard_normal((t_q, 3 * heads)).astype(dtype))
        results = []
        for softmax, mix in ((T.slot_softmax, T.slot_mix), (slot_softmax_per_call, slot_mix_per_call)):
            leaves = [T.tensor(a, requires_grad=True) for a in arrays]
            probs = softmax(leaves[0], leaves[1], layout, heads, leaves[3] if use_rpe else None)
            out = mix(probs, leaves[2], layout)
            T.add(T.sum_all(T.mul(probs, w_probs)), T.sum_all(T.mul(out, w_out))).backward()
            results.append([probs.data, out.data] + [x.grad for x in leaves[: 3 + use_rpe]])
        for a, b in zip(*results):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pattern", ["local", "full"])
def test_slot_kernels_reject_a_layout_built_for_other_lengths(pattern):
    rng = np.random.default_rng(20)
    q, k, v = rand_qkv(rng, 6, 4)
    for t_q, t_k in ((5, 6), (6, 7)):
        layout = A.slot_layout(pattern, t_q, t_k, 3)
        with pytest.raises(ShapeError, match="does not fit"):
            T.slot_softmax(q, k, layout, 2)
        p = T.tensor(np.full((6, 2, layout.slots), 1.0 / layout.slots))
        with pytest.raises(ShapeError, match="does not fit"):
            T.slot_mix(p, v, layout)


def test_slot_layout_is_shared_read_only_and_masks_only_edge_rows():
    layout = A.slot_layout("local", 10, 10, 5)
    assert A.slot_layout("local", 10, 10, 5) is layout
    assert layout.edges == (slice(0, 2), slice(8, 10))  # w//2 rows at each end
    for arr in (layout.offsets, *layout.masks[np.dtype(np.float32)]):
        with pytest.raises(ValueError):
            arr[...] = 0
    full = A.slot_layout("full", 6, 9, 5)
    assert full.offsets is None and full.masks is None and full.slots == 9
    rng = np.random.default_rng(19)
    shapes = SLOT_SHAPES + [(40, 40, 11), (100, 100, 51), (64, 60, 3)]
    for pattern, (t_q, t_k, w), dtype in itertools.product(
        ("local", "logsparse"), shapes, (np.float32, np.float64)
    ):
        layout = A.slot_layout(pattern, t_q, t_k, w)
        scores = rng.standard_normal((t_q, 3, layout.slots)).astype(dtype)
        valid = in_range_mask(layout.offsets, t_q, t_k)
        want = scores + np.where(valid, dtype(0.0), dtype(T.MASK_VALUE))[:, None, :]
        for rows, mask in zip(layout.edges, layout.masks[np.dtype(dtype)]):
            scores[rows] += mask[:, None, :]
        assert scores.tobytes() == want.tobytes(), (pattern, t_q, t_k, w)


def test_attention_dropout_record_keeps_predrop_rows():
    rng = np.random.default_rng(15)
    q, k, v = rand_qkv(rng, 12, 4)
    cfg = cfg_for("local", window=5, heads=1)
    cfg.dropout = 0.5
    stream = np.random.default_rng(0)
    _, record = A.attend(q, k, v, cfg, rng=stream, train=True)
    valid = in_range_mask(record.layout.offsets, 12, 12)
    sums = np.where(valid, record.probs.data[:, 0], 0.0).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_cross_attention_lengths():
    # decoder-style call: queries and keys share length after upsampling
    rng = np.random.default_rng(16)
    q, k, v = rand_qkv(rng, 10, 4)
    out, record = A.attend(q, k, v, cfg_for("local", window=3, heads=2))
    assert out.data.shape == (10, 4)
    assert record.query_len == record.layout.key_len == 10


def test_slot_count_formula():
    assert A.slot_count("local", 100, 7) == 7
    assert A.slot_count("full", 100, 7) == 100
    assert A.slot_count("logsparse", 64, 7) == 13
    assert A.slot_count("logsparse", 1, 7) == 1


def test_sinusoidal_encoding_shape_and_range():
    table = A.sinusoidal_encoding(20, 7)
    assert table.shape == (20, 7)
    assert np.max(np.abs(table)) <= 1.0
    assert not np.allclose(table[1], table[2])
