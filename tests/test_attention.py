import itertools

import numpy as np
import pytest

from _oracles import logsparse_key_set, numeric_grad, rel_err
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
    out, record = A.local_attention(q, k, v, cfg_for("local", window=7, heads=2))
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)
    np.testing.assert_allclose(record.probs[0].data[0, record.valid[0]], [1.0])


def test_window_clamping_key_sets():
    rng = np.random.default_rng(1)
    q, k, v = rand_qkv(rng, 4, 2)
    _, record = A.local_attention(q, k, v, cfg_for("local", window=3))
    sets = record.valid_key_sets()
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
        local, _ = A.local_attention(q, k, v, cfg_for("local", window=w, heads=heads))
        full, _ = A.full_attention(q, k, v, cfg_for("full", heads=heads))
        assert np.max(np.abs(local.data - full.data)) < 1e-6


def test_full_attention_uniform_keys():
    rng = np.random.default_rng(3)
    t, d = 5, 4
    q = T.tensor(rng.standard_normal((t, d)))
    k = T.tensor(np.tile(rng.standard_normal((1, d)), (t, 1)))
    v = T.tensor(rng.standard_normal((t, d)))
    out, record = A.full_attention(q, k, v, cfg_for("full"))
    np.testing.assert_allclose(record.probs[0].data, np.full((t, t), 1 / t), atol=1e-12)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (t, 1)), atol=1e-12)


def test_full_attention_kv_permutation_symmetry():
    rng = np.random.default_rng(4)
    q, k, v = rand_qkv(rng, 6, 4)
    out, _ = A.full_attention(q, k, v, cfg_for("full", heads=2))
    perm = rng.permutation(6)
    out_p, _ = A.full_attention(
        q, T.tensor(k.data[perm]), T.tensor(v.data[perm]), cfg_for("full", heads=2)
    )
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)


def test_kv_length_mismatch_raises():
    rng = np.random.default_rng(5)
    q = T.tensor(rng.standard_normal((4, 2)))
    k = T.tensor(rng.standard_normal((4, 2)))
    v = T.tensor(rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        A.local_attention(q, k, v, cfg_for("local"))


def test_logsparse_key_sets_match_enumeration():
    rng = np.random.default_rng(6)
    for t in range(1, 65):
        q, k, v = rand_qkv(rng, t, 2)
        _, record = A.logsparse_attention(q, k, v, cfg_for("logsparse"))
        sets = record.valid_key_sets()
        bound = 2 * int(np.ceil(np.log2(t))) + 1 if t > 1 else 1
        for i in range(t):
            assert sets[i] == logsparse_key_set(t, i)
            assert len(sets[i]) <= bound


def test_logsparse_t9_example_and_t1():
    rng = np.random.default_rng(7)
    q, k, v = rand_qkv(rng, 9, 2)
    _, record = A.logsparse_attention(q, k, v, cfg_for("logsparse"))
    assert record.valid_key_sets()[4] == {4, 3, 5, 2, 6, 0, 8}
    q1, k1, v1 = rand_qkv(rng, 1, 2)
    out, _ = A.logsparse_attention(q1, k1, v1, cfg_for("logsparse"))
    np.testing.assert_allclose(out.data, v1.data, atol=1e-12)


def test_rows_sum_to_one_all_patterns():
    rng = np.random.default_rng(8)
    for pattern in ("full", "local", "logsparse"):
        q, k, v = rand_qkv(rng, 11, 4)
        _, record = A.attend(q, k, v, cfg_for(pattern, window=5, heads=2))
        for p in record.probs:
            sums = np.where(record.valid, p.data, 0.0).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-5)


def test_local_storage_bound():
    rng = np.random.default_rng(9)
    t, w, h = 40, 7, 2
    q, k, v = rand_qkv(rng, t, 4)
    _, record = A.local_attention(q, k, v, cfg_for("local", window=w, heads=h))
    assert record.entry_count == h * w * t
    assert record.entry_count <= h * w * t


def test_zero_rpe_table_leaves_scores_unchanged():
    rng = np.random.default_rng(10)
    q, k, v = rand_qkv(rng, 8, 4)
    cfg = cfg_for("local", window=5, heads=2)
    plain, _ = A.local_attention(q, k, v, cfg)
    zero = A.RpeTable("scale0", T.tensor(np.zeros((5, 2))))
    with_rpe, _ = A.local_attention(q, k, v, cfg, rpe=zero)
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
    _, record = A.local_attention(q, k, v, cfg, rpe=A.RpeTable("s", T.tensor(table)))
    half = w // 2
    for i in range(half, t - half):  # full windows only
        for head in range(h):
            e = np.exp(table[:, head] - table[:, head].max())
            np.testing.assert_allclose(record.probs[head].data[i], e / e.sum(), atol=1e-10)


def test_rpe_wrong_shape_raises():
    rng = np.random.default_rng(12)
    q, k, v = rand_qkv(rng, 4, 4)
    with pytest.raises(ShapeError):
        A.local_attention(
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
        out, _ = A.local_attention(
            T.tensor(q0), T.tensor(k0), T.tensor(v0), cfg, rpe=A.RpeTable("s", T.tensor(tab))
        )
        return float((out.data * weights).sum())

    tt = T.tensor(table0, requires_grad=True)
    out, _ = A.local_attention(T.tensor(q0), T.tensor(k0), T.tensor(v0), cfg, rpe=A.RpeTable("s", tt))
    T.sum_all(T.mul(out, T.tensor(weights))).backward()
    assert rel_err(tt.grad, numeric_grad(f, [table0], 0)) < 1e-4


def _slotted_local(q, k, v, cfg, rpe=None, rng=None, train=False):
    indices, valid = A.window_slots(q.data.shape[0], k.data.shape[0], cfg.window)
    return A._slotted_attention(q, k, v, cfg, indices, valid, "local", rpe, rng, train)


def test_fused_local_matches_slotted_oracle():
    rng = np.random.default_rng(17)
    combos = itertools.product((1, 2, 4), (1, 3, 11, 51), (False, True), (False, True))
    for n, (heads, w, use_rpe, drop) in enumerate(c for c in combos for _ in range(5)):
        t_q = 1 + n % 40
        # cross lengths keep t_k >= t_q - w//2, so every query row has a key in range
        t_k = t_q if n % 2 else int(rng.integers(max(1, t_q - w // 2), t_q + w // 2 + 4))
        d = heads * int(rng.integers(1, 4))
        cfg = cfg_for("local", window=w, heads=heads, dropout=0.5)
        arrays = [rng.standard_normal(shape) for shape in ((t_q, d), (t_k, d), (t_k, d), (w, heads))]
        weights = rng.standard_normal((t_q, d))
        results = []
        for attend in (A.local_attention, _slotted_local):
            leaves = [T.tensor(a, requires_grad=True) for a in arrays]
            rpe = A.RpeTable("s", leaves[3]) if use_rpe else None
            stream = np.random.default_rng(n) if drop else None
            out, record = attend(*leaves[:3], cfg, rpe=rpe, rng=stream, train=drop)
            T.sum_all(T.mul(out, T.tensor(weights))).backward()
            grads = [np.zeros_like(a) if x.grad is None else x.grad for a, x in zip(arrays, leaves)]
            results.append((out.data, grads, [p.data for p in record.probs]))
        (out, grads, probs), (want_out, want_grads, want_probs) = results
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        for got, want in zip(grads + probs, want_grads + want_probs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_attention_dropout_record_keeps_predrop_rows():
    rng = np.random.default_rng(15)
    q, k, v = rand_qkv(rng, 12, 4)
    cfg = cfg_for("local", window=5, heads=1)
    cfg.dropout = 0.5
    stream = np.random.default_rng(0)
    _, record = A.local_attention(q, k, v, cfg, rng=stream, train=True)
    sums = np.where(record.valid, record.probs[0].data, 0.0).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_cross_attention_lengths():
    # decoder-style call: queries and keys share length after upsampling
    rng = np.random.default_rng(16)
    q, k, v = rand_qkv(rng, 10, 4)
    out, record = A.local_attention(q, k, v, cfg_for("local", window=3, heads=2))
    assert out.data.shape == (10, 4)
    assert record.query_len == record.key_len == 10


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
