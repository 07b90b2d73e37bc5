import itertools
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    _fold_slots_per_call,
    _slot_rows_per_call,
    attend_qkv,
    attention_loop,
    in_range_mask,
    logsparse_key_set,
    numeric_grad,
    rel_err,
    slot_mix_per_call,
    slot_softmax_per_call,
    softmax_last_axis_max,
    tensor,
    valid_key_sets,
)
from tut import net as N
from tut import tensor as T
from tut.errors import ConfigError, NumericError, ShapeError


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
    valid = in_range_mask(T.slot_layout("local", 1, 7).offsets, 1)
    np.testing.assert_allclose(probs.data[0, 0, valid[0]], [1.0])


def test_window_clamping_key_sets():
    rng = np.random.default_rng(1)
    q, k, v = rand_qkv(rng, 4, 2)
    _, probs = attend_qkv(q, k, v, **cfg_for("local", window=3))
    sets = valid_key_sets(probs, T.slot_layout("local", 4, 3))
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
    layout = T.slot_layout("local", 4, 3)
    x, memory = (tensor(rng.standard_normal((rows, 2))) for rows in (4, 3))
    with pytest.raises(ShapeError, match="does not fit"):
        T.slot_project(x, w, b, layout, memory)


def test_logsparse_key_sets_match_enumeration():
    rng = np.random.default_rng(6)
    for t in range(1, 65):
        q, k, v = rand_qkv(rng, t, 2)
        _, probs = attend_qkv(q, k, v, **cfg_for("logsparse"))
        sets = valid_key_sets(probs, T.slot_layout("logsparse", t, 3))
        bound = 2 * int(np.ceil(np.log2(t))) + 1 if t > 1 else 1
        for i in range(t):
            assert sets[i] == logsparse_key_set(t, i)
            assert len(sets[i]) <= bound


def test_logsparse_t9_example_and_t1():
    rng = np.random.default_rng(7)
    q, k, v = rand_qkv(rng, 9, 2)
    _, probs = attend_qkv(q, k, v, **cfg_for("logsparse"))
    assert valid_key_sets(probs, T.slot_layout("logsparse", 9, 3))[4] == {4, 3, 5, 2, 6, 0, 8}
    q1, k1, v1 = rand_qkv(rng, 1, 2)
    out, _ = attend_qkv(q1, k1, v1, **cfg_for("logsparse"))
    np.testing.assert_allclose(out.data, v1.data, atol=1e-12)


def test_rows_sum_to_one_all_patterns():
    rng = np.random.default_rng(8)
    for pattern in ("full", "local", "logsparse"):
        q, k, v = rand_qkv(rng, 11, 4)
        _, probs = attend_qkv(q, k, v, **cfg_for(pattern, window=5, heads=2))
        offsets = T.slot_layout(pattern, 11, 5).offsets
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
        layout = T.slot_layout(pattern, t, w)
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


# every length a gtea layer attends over at w = 11, a 50salads-sized row of
# 51 slots, a 2-D (frames, classes) table, and rows one either side of
# ROW_MAX_SLOTS and as long as full attention's, which keep the last-axis max
SOFTMAX_SHAPES = [(t, 4, 11) for t in range(1, 161)] + [
    (1024, 4, 51),
    (37, 19),
    (7, 4, T.ROW_MAX_SLOTS),
    (7, 4, T.ROW_MAX_SLOTS + 1),
    (300, 4, 300),
]


def _tied_scores(rng, shape, dtype):
    """Scores in which every third row's max is a +0/-0 tie (+0 first or
    -0 first, alternating) and every fifth row masks its first half of
    slots with ``MASK_VALUE``."""
    a = (rng.standard_normal(shape) * 4).astype(dtype)
    rows = a.reshape(-1, shape[-1])
    tied = rows[::3]
    tied[:] = -np.abs(tied) - 1.0
    tied[::2, 0], tied[::2, -1] = 0.0, -0.0
    tied[1::2, 0], tied[1::2, -1] = -0.0, 0.0
    rows[1::5, : shape[-1] // 2] = T.MASK_VALUE
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_over_slot_major_planes_keeps_the_last_axis_bytes(dtype):
    """``softmax_lastdim`` takes each row's max over contiguous planes; its
    probabilities are those of the last-axis max byte for byte, on rows
    whose max is a +0/-0 tie and on rows with masked slots."""
    rng = np.random.default_rng(36)
    for shape in SOFTMAX_SHAPES:
        a = _tied_scores(rng, shape, dtype)
        got = T.softmax_lastdim(tensor(a)).data
        want = softmax_last_axis_max(a.copy())
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slot_softmax_keeps_the_last_axis_max_bytes(dtype, monkeypatch):
    """``slot_softmax`` gives the probabilities of the same chain with the
    last-axis row max, for every gtea length at w = 11 and a 50salads-sized
    band. Every third query row is zero, so its slots score +0 or -0 and
    its max is a tie; the edge rows mask their out-of-range slots."""
    rng = np.random.default_rng(37)
    heads, dim = 4, 8
    for t, w in [(t, 11) for t in range(1, 161)] + [(1024, 51)]:
        layout = T.slot_layout("local", t, w)
        buf = np.zeros((layout.padded_rows, 3, dim), dtype=dtype)
        rows = buf[layout.pad : layout.pad + t]
        rows[:] = rng.standard_normal(rows.shape)
        rows[::3, 0] = 0.0
        results = []
        for softmax in (T._softmax, softmax_last_axis_max):
            monkeypatch.setattr(T, "_softmax", softmax)
            results.append(T.slot_softmax(tensor(buf), layout, heads).data)
        assert results[0].tobytes() == results[1].tobytes(), t


@pytest.mark.parametrize("shape", [(6, 4, 11), (1024, 4, 51), (6, 4, 300)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_inf_softmax_row_still_raises(bad, shape):
    a = np.random.default_rng(38).standard_normal(shape)
    a[-2, 1, 3] = bad
    with pytest.raises(NumericError):
        T.softmax_lastdim(tensor(a))


def test_the_row_max_copies_a_block_not_the_scores():
    """A long video's slot-major copy is made ``ROW_MAX_BLOCK`` values at a
    time: the in-place softmax ``slot_softmax`` runs on (2000, 4, 51) scores
    allocates the row maxima, the row sums, one block and ufunc buffers, not
    a second copy of the scores."""
    a = np.random.default_rng(39).standard_normal((2000, 4, 51)).astype(np.float32)
    tracemalloc.start()
    try:
        T._softmax(a, out=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 4, peak  # about 0.16 MB; a copy of the scores is 1.6 MB


def test_a_full_attention_row_max_reads_the_last_axis():
    """A row longer than ``ROW_MAX_SLOTS`` (full attention's T slots) keeps
    the last-axis max: its row max allocates the maxima, not a slot-major
    block (a transposed copy of 2,000-slot rows cost 20x the last-axis max)."""
    a = np.random.default_rng(40).standard_normal((200, 4, 200)).astype(np.float32)
    tracemalloc.start()
    try:
        rowmax = T._row_max(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rowmax.tobytes() == a.max(axis=-1, keepdims=True).tobytes()
    assert peak < 4 * rowmax.nbytes, peak  # a slot-major block is 64 KiB


# (pattern, T, w): every T from 1 to 160 at w = 11 (T = 1, T < w and every
# length a gtea layer attends over), a narrow and a 50salads-sized band, and
# logsparse
FOLD_SHAPES = (
    [("local", t, 11) for t in range(1, 161)]
    + [("local", 9, 3), ("local", 1024, 51)]
    + [("logsparse", t, 11) for t in (1, 2, 5, 33, 130)]
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("start", ["zero", "nonzero"])
def test_fold_matches_one_shifted_slice_per_slot_bytes(dtype, start):
    """``_fold_slots`` adds into its (padded_rows, d) block of a buffer's
    gradient what the per-slot loop adds, byte for byte: the band's one
    strided matmul sums each row's slots in the loop's order from zero. The
    coefficients and rows hold -0.0, and the other two blocks are untouched."""
    rng = np.random.default_rng(23)
    heads, d_h = 4, 16
    for pattern, t, w in FOLD_SHAPES:
        layout = T.slot_layout(pattern, t, w)
        coeff = rng.standard_normal((t, heads, layout.slots)).astype(dtype)
        coeff[rng.random(coeff.shape) < 0.2] = -0.0
        # the rows are a view of one block of a (T, 3, d) array, as q3 is
        source = rng.standard_normal((t, 3, heads * d_h)).astype(dtype)
        source[rng.random(source.shape) < 0.2] = -0.0
        rows3 = source[:, 0].reshape(t, heads, d_h)
        shape = (layout.padded_rows, 3, heads * d_h)
        grad = np.zeros(shape, dtype)
        if start == "nonzero":
            grad[...] = rng.standard_normal(shape)
            grad[rng.random(shape) < 0.2] = -0.0
        want = grad.copy()
        want[:, 1] += _fold_slots_per_call(coeff, rows3, layout.offsets)
        T._fold_slots(coeff, rows3, layout, grad[:, 1])
        assert grad.tobytes() == want.tobytes(), (pattern, t, w)


def _byte_bounds(a):
    """First and one-past-last byte address an array's elements span."""
    start = a.__array_interface__["data"][0]
    steps = [(n - 1) * s for n, s in zip(a.shape, a.strides)]
    return start + sum(min(s, 0) for s in steps), start + sum(max(s, 0) for s in steps) + a.itemsize


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pattern", ["local", "logsparse"])
def test_window_reads_the_projection_buffer(dtype, pattern):
    """A window holds the per-call padded rows' slots. A band is a read-only
    view of the projection buffer's own memory, so the local band keeps no
    other copy; logsparse gathers its slots from such a view. numpy refuses
    a view that reaches past the buffer."""
    rng = np.random.default_rng(24)
    heads = 2
    for t, w, _ in SLOT_SHAPES:
        layout = T.slot_layout(pattern, t, w)
        x = tensor(rng.standard_normal((t, 5)).astype(dtype))
        weight = tensor(rng.standard_normal((5, 12)).astype(dtype))
        bias = tensor(rng.standard_normal(8).astype(dtype))
        qkv = T.slot_project(x, weight, bias, layout).data
        rows = slice(layout.pad, layout.pad + t)
        for block in (1, 2):
            window = T._window(qkv, block, heads, layout)
            want = _slot_rows_per_call(qkv[rows, block], heads, layout.offsets)
            assert window.dtype == want.dtype and window.tobytes() == want.tobytes()
            if pattern == "local":
                assert np.shares_memory(window, qkv) and not window.flags.writeable
                low, high = _byte_bounds(window)
                assert _byte_bounds(qkv)[0] <= low and high <= _byte_bounds(qkv)[1]
    row, blk, col = qkv.strides
    with pytest.raises(ValueError):  # one row past the buffer's end
        T._view(qkv, (layout.padded_rows + 1, 4), 2 * blk, (row, col))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slot_project_rows_are_the_linear_bytes_between_zero_rows(dtype):
    """The projection buffer holds x @ w + b, byte for byte as ``linear``
    gives it with b's Q and V blocks and a zero K block, in rows
    pad .. pad + T, and zeros in every other row; with a memory, its Q
    columns are x's and its K|V columns the memory's."""
    rng = np.random.default_rng(21)
    for pattern, (t, w, _) in itertools.product(("local", "logsparse", "full"), SLOT_SHAPES):
        layout = T.slot_layout(pattern, t, w)
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
    built = T.slot_layout(pattern, 6, 3)
    qkv = T.slot_project(x, w, b, built)
    for t in (5, 7):
        layout = T.slot_layout(pattern, t, 3)
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
    layout = T.slot_layout("local", 10, 5)
    assert T.slot_layout("local", 10, 5) is layout
    assert layout.edges == (slice(0, 2), slice(8, 10))  # w//2 rows at each end
    assert [t.dtype for t in layout.outside] == [np.dtype(bool)] * 2  # one table for every dtype
    for arr in (layout.offsets, *layout.outside):
        with pytest.raises(ValueError):
            arr[...] = 0
    full = T.slot_layout("full", 9, 5)
    assert full.offsets is None and full.slots == 9
    assert full.edges == () and full.outside == ()
    rng = np.random.default_rng(19)
    shapes = [(t, w) for t, w, _ in SLOT_SHAPES] + [(40, 11), (100, 51), (60, 3)]
    for pattern, (t, w), dtype in itertools.product(
        ("local", "logsparse"), shapes, (np.float32, np.float64)
    ):
        layout = T.slot_layout(pattern, t, w)
        scores = rng.standard_normal((t, 3, layout.slots)).astype(dtype)
        valid = in_range_mask(layout.offsets, t)
        want = scores + np.where(valid, dtype(0.0), dtype(T.MASK_VALUE))[:, None, :]
        # slot_softmax's fill writes what adding MASK_VALUE to any score of a
        # magnitude far below its rounding step would
        for rows, outside in zip(layout.edges, layout.outside):
            np.copyto(scores[rows], T.MASK_VALUE, where=outside[:, None, :])
        assert scores.tobytes() == want.tobytes(), (pattern, t, w)


def test_attention_dropout_record_keeps_predrop_rows():
    rng = np.random.default_rng(15)
    q, k, v = rand_qkv(rng, 12, 4)
    cfg = cfg_for("local", window=5, heads=1, dropout=0.5)
    stream = np.random.default_rng(0)
    _, probs = attend_qkv(q, k, v, **cfg, rng=stream)
    valid = in_range_mask(T.slot_layout("local", 12, 5).offsets, 12)
    sums = np.where(valid, probs.data[:, 0], 0.0).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_cross_attention_lengths():
    # decoder-style call: Q from x, K and V from a memory of the same length,
    # as after upsampling
    rng = np.random.default_rng(16)
    x, memory = (tensor(rng.standard_normal((10, 3))) for _ in range(2))
    w, b = tensor(rng.standard_normal((3, 12))), tensor(rng.standard_normal(8))
    out, probs = N.attend(x, w, b, **cfg_for("local", window=3, heads=2), memory=memory)
    assert out.data.shape == (10, 4)
    assert probs.data.shape == (10, 2, T.slot_layout("local", 10, 3).slots)


def test_slot_count_formula():
    assert T.slot_layout("local", 100, 7).slots == 7
    assert T.slot_layout("full", 100, 7).slots == 100
    assert T.slot_layout("logsparse", 64, 7).slots == 13
    assert T.slot_layout("logsparse", 1, 7).slots == 1


def test_sinusoidal_encoding_shape_and_range():
    table = N.sinusoidal_encoding(20, 7)
    assert table.shape == (20, 7)
    assert np.max(np.abs(table)) <= 1.0
    assert not np.allclose(table[1], table[2])
