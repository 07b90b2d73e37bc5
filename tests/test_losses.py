import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    attend_qkv,
    ba_loss_composed,
    extract_lad,
    kl_scalar,
    lad_rows,
    mean_boundary_kl,
    numeric_grad,
    rel_err,
    tensor,
    tmse_composed,
)
from tut import losses as L
from tut import net as N
from tut import tensor as T
from tut.errors import ConfigError, ShapeError
from tut.trainer import TrainConfig


def test_ce_uniform_and_perfect():
    perfect = tensor([[50.0, 0.0], [0.0, 50.0]])
    assert float(L.ce_loss(perfect, [0, 1]).data) < 1e-6
    uniform = tensor(np.zeros((3, 4)))
    np.testing.assert_allclose(float(L.ce_loss(uniform, [0, 1, 2]).data), np.log(4))


def test_tmse_constant_logits_zero():
    logits = tensor(np.tile([1.0, -2.0, 0.5], (6, 1)))
    assert float(L.tmse_loss(logits).data) == 0.0


def test_tmse_degenerate_video():
    assert float(L.tmse_loss(tensor(np.zeros((1, 3)))).data) == 0.0


def test_tmse_clamp_contributes_theta_squared():
    # one adjacent pair, |delta| = 10 on both classes of a 2-class problem
    logits = tensor(np.array([[0.0, 10.0], [10.0, 0.0]]))
    logp = T.log_softmax_lastdim(logits).data
    deltas = np.abs(logp[1] - logp[0])
    assert np.all(deltas > 4.0)
    out = float(L.tmse_loss(logits).data)
    np.testing.assert_allclose(out, 16.0)  # every term clamped at the default 4 contributes 16


def test_tmse_stop_gradient():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((5, 3))
    base_logp = None

    def logsm(x):
        s = x - x.max(axis=1, keepdims=True)
        return s - np.log(np.exp(s).sum(axis=1, keepdims=True))

    base_logp = logsm(base)

    def stopgrad_oracle(lv):
        # frame t-1 branch frozen at the base values
        delta = np.clip(logsm(lv)[1:] - base_logp[:-1], -4.0, 4.0)
        return float((delta**2).mean())

    def no_stopgrad(lv):
        delta = np.clip(logsm(lv)[1:] - logsm(lv)[:-1], -4.0, 4.0)
        return float((delta**2).mean())

    tl = tensor(base, requires_grad=True)
    L.tmse_loss(tl).backward()
    assert rel_err(tl.grad, numeric_grad(stopgrad_oracle, [base], 0)) < 1e-6
    # frame 0 only ever appears in the detached branch
    np.testing.assert_allclose(tl.grad[0], 0.0, atol=1e-15)
    assert np.abs(numeric_grad(no_stopgrad, [base], 0)[0]).max() > 1e-4


def _bytes_after_backward(loss_of, arrays, dtype):
    """The loss's dtype and bytes and each leaf's gradient bytes (None when it
    got none), after a backward seeded through a 0.37 weight, as
    ``total_loss`` weights a term."""
    leaves = [T.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    loss = loss_of(*leaves)
    T.mul(loss, 0.37).backward()
    grads = [None if leaf.grad is None else leaf.grad.tobytes() for leaf in leaves]
    return [loss.data.dtype, loss.data.tobytes()] + grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_smoothing_kernel_matches_the_composed_chain_bytes(dtype):
    """``tmse_loss``'s one node gives the bytes of the log-softmax, slice,
    subtract, clip, square, sum and scale nodes: the value and the logits'
    gradient, at 1 frame (a zero leaf), 2 frames, and with deltas past the
    clip and inside it."""
    rng = np.random.default_rng(11)
    for frames, spread in ((1, 1.0), (2, 1.0), (3, 6.0), (40, 3.0), (97, 0.5)):
        logits = rng.standard_normal((frames, 7)) * spread
        kernel, composed = (_bytes_after_backward(f, [logits], dtype) for f in (L.tmse_loss, tmse_composed))
        assert kernel == composed, frames
    assert float(L.tmse_loss(tensor(np.array([[0.0, 9.0], [9.0, 0.0]]))).data) == 16.0  # both clipped


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pattern", L.BA_PATTERNS)
@pytest.mark.parametrize("distance", L.BA_DISTANCES)
def test_boundary_kernel_matches_the_composed_layers_bytes(distance, pattern, dtype):
    """``ba_loss``'s one node per layer gives the bytes of the gather, sum,
    divide, distance, 1/T_q scale and add nodes: the value and the gradient
    of both layers' probabilities. The videos hold a frame that starts and
    ends a segment (read twice), a layer with no boundary frame while the
    other has some, and 1 frame (a zero leaf)."""
    rng = np.random.default_rng(12)
    cases = (
        (np.repeat([0, 1, 2, 0], [9, 1, 8, 12]), 5, 4),  # frame 9 is both (frame 4 at half length)
        (np.repeat([0, 1], [6, 2]), 5, 2),  # only the full-length layer reads a frame (5)
        (np.zeros(1, dtype=int), 3, 2),
    )
    for labels, window, heads in cases:
        lengths = ((len(labels) + 1) // 2, len(labels))
        targets = {n: L.boundary_targets(labels, n, window) for n in lengths}
        probs = [rng.random((n, heads, window if pattern == "local" else n)) + 0.05 for n in lengths]
        probs = [p / p.sum(axis=2, keepdims=True) for p in probs]
        got = [
            _bytes_after_backward(lambda *rec, f=f: f(rec, targets, distance, pattern, window), probs, dtype)
            for f in (L.ba_loss, ba_loss_composed)
        ]
        assert got[0] == got[1], (labels, [t[0] for t in targets.values()])
    assert [targets[n][0].size for n in lengths] == [0, 0]  # the 1-frame video read nothing


def test_derive_boundaries_examples():
    starts, ends = L.derive_boundaries(["A", "A", "B", "B"])
    np.testing.assert_array_equal(starts, [0, 2])
    np.testing.assert_array_equal(ends, [1, 3])
    starts, ends = L.derive_boundaries(["A"])
    np.testing.assert_array_equal(starts, [0])
    np.testing.assert_array_equal(ends, [0])
    starts, ends = L.derive_boundaries(["A", "B", "A"])
    np.testing.assert_array_equal(starts, [0, 1, 2])
    np.testing.assert_array_equal(ends, [0, 1, 2])


@given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_boundary_roundtrip(labels):
    labels = np.asarray(labels)
    starts, ends = L.derive_boundaries(labels)
    assert len(starts) == len(ends)
    rebuilt = np.empty_like(labels)
    for s, e in zip(starts, ends):
        assert s <= e
        rebuilt[s : e + 1] = labels[s]
    np.testing.assert_array_equal(rebuilt, labels)


def test_prior_examples():
    start = L.prior("start", 5)
    np.testing.assert_allclose(start, [0, 0, 1 / 3, 1 / 3, 1 / 3])
    end = L.prior("end", 5)
    np.testing.assert_allclose(end, [0.5, 0.5, 0, 0, 0])
    for w in range(3, 102, 2):
        assert abs(L.prior("start", w).sum() - 1.0) < 1e-12
        assert abs(L.prior("end", w).sum() - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        L.prior("end", 1)


def test_boundary_targets_examples():
    """Start frames, then end frames, each with a full window and its prior
    row; at ceil(T/2) rows frame t maps to t // 2, deduplicated."""
    w = 3
    start, end = L.prior("start", w), L.prior("end", w)
    labels = np.repeat([0, 1, 2], [4, 4, 3])  # starts 0 4 8, ends 3 7 10
    frames, priors = L.boundary_targets(labels, 11, w)
    np.testing.assert_array_equal(frames, [4, 8, 3, 7])
    np.testing.assert_array_equal(priors, [start, start, end, end])
    frames, priors = L.boundary_targets(labels, 6, w)  # starts 0 2 4, ends 1 3 5
    np.testing.assert_array_equal(frames, [2, 4, 1, 3])
    np.testing.assert_array_equal(priors, [start, start, end, end])
    frames, priors = L.boundary_targets(np.repeat([0, 1], 2), 2, w)  # both mapped sets {0, 1}
    assert frames.shape == (0,) and priors.shape == (0, w)
    with pytest.raises(ShapeError, match="attention length 5 not derivable from video length 11"):
        L.boundary_targets(labels, 5, w)


def local_probs(rows_per_head):
    """(T, heads, w) local-attention probabilities with the given
    post-softmax rows; rows_per_head: list of (T, w)."""
    return tensor(np.stack(rows_per_head, axis=1))


def test_extract_lad_single_and_averaged_heads():
    w, t = 3, 7
    rows = np.tile([0.2, 0.5, 0.3], (t, 1))
    probs = local_probs([rows])
    lad = extract_lad(probs, 3, "local", w)
    np.testing.assert_allclose(lad.data, [0.2, 0.5, 0.3])
    # identical heads average to themselves
    probs2 = local_probs([rows, rows])
    np.testing.assert_allclose(extract_lad(probs2, 3, "local", w).data, [0.2, 0.5, 0.3])
    # opposing one-hot heads -> renormalized average
    h1 = np.tile([1.0, 0.0, 0.0], (t, 1))
    h2 = np.tile([0.0, 0.0, 1.0], (t, 1))
    probs3 = local_probs([h1, h2])
    np.testing.assert_allclose(extract_lad(probs3, 3, "local", w).data, [0.5, 0.0, 0.5])
    # clipped-window frames signal skip
    assert extract_lad(probs, 0, "local", w) is None
    assert extract_lad(probs, t - 1, "local", w) is None


def test_extract_lad_from_full_record_slices_row():
    t, w = 6, 3
    rng = np.random.default_rng(1)
    probs = rng.random((t, 2, t))
    probs /= probs.sum(axis=2, keepdims=True)
    lad = extract_lad(tensor(probs), 2, "full", w)
    heads = probs[2, :, 1:4]  # each head renormalized over the window, then averaged
    np.testing.assert_allclose(lad.data, (heads / heads.sum(axis=1, keepdims=True)).mean(axis=0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("attention", ["local", "full"])
def test_lad_rows_renormalize_the_head_sum_as_the_head_average(attention, dtype):
    """The boundary read renormalizes the sum of its heads, where it once
    renormalized their average: the 1/heads scale cancels. At a power-of-two
    head count that scale is exact, so the rows, the kernel's KL term and
    the gradient reaching the probabilities are the same bytes as the
    averaged read's; at 3 or 6 heads (breakfast) they differ in rounding
    only."""
    t, w = 24, 5
    frames, priors = L.boundary_targets(np.repeat([0, 1, 2, 0], 6), t, w)
    rng = np.random.default_rng(9)
    for heads in (1, 2, 3, 4, 6, 8):
        raw = rng.random((t, heads, w if attention == "local" else t)).astype(dtype) + dtype(0.05)
        raw /= raw.sum(axis=2, keepdims=True)
        probs = T.Tensor(raw.copy(), requires_grad=True)
        kernel = T.boundary_divergence(probs, frames, priors, "kl", attention, w)
        kernel.backward()
        new = (lad_rows(tensor(raw), frames, attention, w).data, kernel.data, probs.grad)
        probs = T.Tensor(raw.copy(), requires_grad=True)
        lads = lad_rows(probs, frames, attention, w, averaged=True)
        kl = T.mul(T.kl_from_probs(tensor(priors.astype(dtype)), lads), 1.0 / t)
        kl.backward()
        old = (lads.data, kl.data, probs.grad)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype == dtype
            if heads in (3, 6):
                assert rel_err(a, b) <= 1e-6, (heads, rel_err(a, b))
            else:
                assert a.tobytes() == b.tobytes(), heads


def test_ba_loss_zero_when_lads_equal_priors():
    w, t = 5, 12
    labels = np.array([0] * 6 + [1] * 6)
    start_p = L.prior("start", w)
    end_p = L.prior("end", w)
    rows = np.tile(np.full(w, 1.0 / w), (t, 1))
    starts, ends = L.derive_boundaries(labels)
    for frame in starts:
        if 2 <= frame <= t - 3:
            rows[frame] = start_p
    for frame in ends:
        if 2 <= frame <= t - 3:
            rows[frame] = end_p
    probs = local_probs([rows])
    out = L.ba_loss((None, probs), {t: L.boundary_targets(labels, t, w)}, "kl", "local", window=w)
    np.testing.assert_allclose(float(out.data), 0.0, atol=1e-12)


def test_ba_loss_empty_window_range_is_zero():
    w = 9
    labels = np.array([0, 0, 1, 1])  # T=4 < w: no frame has a full window
    rows = np.random.default_rng(2).random((4, w))
    rows /= rows.sum(axis=1, keepdims=True)
    probs = local_probs([rows])
    out = L.ba_loss((None, probs), {4: L.boundary_targets(labels, 4, w)}, "kl", "local", w)
    assert float(out.data) == 0.0 and out._parents == ()  # a zero leaf


def test_ba_loss_matches_independent_kl_script():
    # frozen value from the plain-loop oracle for the documented example
    d_row = np.array([0.1, 0.1, 0.2, 0.3, 0.3])
    expected = kl_scalar([0, 0, 1 / 3, 1 / 3, 1 / 3], d_row)
    np.testing.assert_allclose(expected, 0.2405155516938811)

    w = 5
    t = 9
    labels = np.zeros(t, dtype=int)
    labels[4:] = 1  # start frame at 4 (in range), end frame at 3 (in range)
    rows = np.tile(np.full(w, 1.0 / w), (t, 1))
    rows[4] = d_row
    end_row = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
    rows[3] = end_row
    probs = local_probs([rows])
    targets = {t: L.boundary_targets(labels, t, w)}
    got = float(L.ba_loss((None, probs), targets, "kl", "local", w).data)
    # frames 0 and t-1 are boundaries too but have clipped windows; frame 3/4 count
    want = (expected + kl_scalar(L.prior("end", w), end_row)) / t
    np.testing.assert_allclose(got, want, rtol=1e-12)

    # 20 random cases, model probabilities vs the plain loop
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = int(rng.integers(w, 40))
        labels = rng.integers(0, 3, size=t)
        raw = rng.random((t, w)) + 0.05
        rows = raw / raw.sum(axis=1, keepdims=True)
        probs = local_probs([rows])
        targets = {t: L.boundary_targets(labels, t, w)}
        got = float(L.ba_loss((None, probs), targets, "kl", "local", w).data)
        expect = 0.0
        half = w // 2
        for variant, frames in zip(("start", "end"), L.derive_boundaries(labels)):
            p = L.prior(variant, w)
            for frame in frames:
                if half <= frame <= t - 1 - half:
                    expect += kl_scalar(p, rows[frame])
        np.testing.assert_allclose(got, expect / t, atol=1e-8)


def test_ba_loss_encoder_record_maps_to_half_resolution():
    w = 3
    t = 16
    labels = np.zeros(t, dtype=int)
    labels[8:] = 1  # start at 8, end at 7 -> mapped to 4 and 3 at half scale
    half_t = 8
    rng = np.random.default_rng(4)
    raw = rng.random((half_t, w)) + 0.1
    rows = raw / raw.sum(axis=1, keepdims=True)
    probs = local_probs([rows])
    targets = {half_t: L.boundary_targets(labels, half_t, w)}
    got = float(L.ba_loss((probs, None), targets, "kl", "local", w).data)
    # mapped starts {0, 4}, ends {3, 7}; frames 0 and 7 have clipped windows
    want = (
        kl_scalar(L.prior("start", w), rows[4])
        + kl_scalar(L.prior("end", w), rows[3])
    ) / half_t
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_ba_loss_refuses_a_model_it_cannot_read():
    """The pattern and window come from the model config, and each call
    checks them once, whatever probabilities it is given, even none."""
    w, t = 5, 12
    probs = local_probs([np.full((t, w), 1.0 / w)])
    targets = {t: L.boundary_targets(np.array([0] * 6 + [1] * 6), t, w)}
    with pytest.raises(ConfigError, match="boundary loss is undefined for the logsparse pattern"):
        L.ba_loss((probs, probs), targets, "kl", "logsparse", w)
    with pytest.raises(ConfigError, match="boundary loss needs a window >= 3, got 1"):
        L.ba_loss((None, None), targets, "kl", "local", 1)


@pytest.mark.parametrize("kind", ["kl", "js", "l2", "wasserstein"])
def test_ba_distances_nonnegative_and_zero_at_prior(kind):
    w, t = 5, 14
    labels = np.array([0] * 7 + [1] * 7)
    rng = np.random.default_rng(5)
    raw = rng.random((t, w)) + 0.02
    rows = raw / raw.sum(axis=1, keepdims=True)
    probs = local_probs([rows])
    targets = {t: L.boundary_targets(labels, t, w)}
    out = float(L.ba_loss((None, probs), targets, kind, "local", w).data)
    assert out >= 0.0
    if kind == "kl":
        aligned = rows.copy()
        starts, ends = L.derive_boundaries(labels)
        for f in starts:
            if 2 <= f <= t - 3:
                aligned[f] = L.prior("start", w)
        for f in ends:
            if 2 <= f <= t - 3:
                aligned[f] = L.prior("end", w)
        probs2 = local_probs([aligned])
        out2 = float(L.ba_loss((None, probs2), targets, kind, "local", w).data)
        np.testing.assert_allclose(out2, 0.0, atol=1e-12)


def test_ba_gradient_flows_into_attention_inputs():
    rng = np.random.default_rng(6)
    t, d, w = 12, 4, 3
    targets = {t: L.boundary_targets(np.array([0] * 6 + [1] * 6), t, w)}
    q0, k0, v0 = (rng.standard_normal((t, d)) for _ in range(3))

    def f(qv, kv, vv):
        _, probs = attend_qkv(tensor(qv), tensor(kv), tensor(vv), "local", w, 2)
        return float(L.ba_loss((None, probs), targets, "kl", "local", w).data)

    tq = tensor(q0, requires_grad=True)
    tk = tensor(k0, requires_grad=True)
    tv = tensor(v0, requires_grad=True)
    _, probs = attend_qkv(tq, tk, tv, "local", w, 2)
    L.ba_loss((None, probs), targets, "kl", "local", w).backward()
    assert rel_err(tq.grad, numeric_grad(f, [q0, k0, v0], 0)) < 1e-4
    assert rel_err(tk.grad, numeric_grad(f, [q0, k0, v0], 1)) < 1e-4
    assert tv.grad is None or np.allclose(tv.grad, 0.0)  # values never enter the probabilities


@pytest.mark.parametrize("distance", L.BA_DISTANCES)
def test_ba_loss_full_record_matches_local_record(distance):
    # a frame with a full window: each head's full attention renormalized over
    # the window is exactly its local softmax there, so both patterns give one
    # loss whatever the head count
    rng = np.random.default_rng(8)
    t, d, w = 16, 4, 5
    targets = {t: L.boundary_targets(np.array([0] * 5 + [1] * 6 + [2] * 5), t, w)}
    q0, k0, v0 = (rng.standard_normal((t, d)) for _ in range(3))
    for heads in (1, 2, 4):
        results = []
        for pattern in ("local", "full"):
            tq, tk = tensor(q0, requires_grad=True), tensor(k0, requires_grad=True)
            _, probs = attend_qkv(tq, tk, tensor(v0), pattern, w, heads)
            loss = L.ba_loss((None, probs), targets, distance, pattern, w)
            loss.backward()
            results.append((float(loss.data), tq.grad, tk.grad))
        (local, dq_local, dk_local), (full, dq_full, dk_full) = results
        assert local > 0.0
        np.testing.assert_allclose(full, local, rtol=0, atol=1e-12, err_msg=f"{heads} heads")
        np.testing.assert_allclose(dq_full, dq_local, rtol=0, atol=1e-12, err_msg=f"{heads} heads")
        np.testing.assert_allclose(dk_full, dk_local, rtol=0, atol=1e-12, err_msg=f"{heads} heads")


def test_total_loss_composition_and_scaling():
    cfg = dict(
        input_dim=4, num_classes=3, layers=1, window=3, heads=2,
        hidden_dim=8, hidden_dim_refine=8,
        input_dropout=0.0, ffn_dropout=0.0, attention_dropout=0.0,
        pe_mode="none", dtype="f64",
    )
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 4))
    labels = rng.integers(0, 3, size=10)

    single_cfg = N.ModelConfig(refinement_stages=0, **cfg)
    params = N.init_params(single_cfg, T.SeedStreams(0))
    out = N.model_forward(x, params, single_cfg)

    w_off = TrainConfig(smooth_weight=0.0, boundary_weight=0.0)
    total, parts = L.total_loss(out, labels, w_off, single_cfg)
    np.testing.assert_allclose(float(total.data), parts["ce"])

    w_beta0 = TrainConfig(smooth_weight=0.15, boundary_weight=0.0)
    total2, parts2 = L.total_loss(out, labels, w_beta0, single_cfg)
    np.testing.assert_allclose(float(total2.data), parts2["ce"] + 0.15 * parts2["tmse"])

    # perfect predictions with lambda = beta = 0 -> 0
    perfect = N.StageOutputs(
        logits=[tensor(np.eye(3)[labels] * 60.0)], records=[(None, None)]
    )
    total3, _ = L.total_loss(perfect, labels, w_off, single_cfg)
    assert float(total3.data) < 1e-6

    # M+1 identical stages scale the total by M+1
    stacked = N.StageOutputs(
        logits=[out.logits[0]] * 3,
        records=[out.records[0]] * 3,
    )
    weights_all = TrainConfig(smooth_weight=0.15, boundary_weight=0.02)
    one, _ = L.total_loss(out, labels, weights_all, single_cfg)
    three, _ = L.total_loss(stacked, labels, weights_all, single_cfg)
    np.testing.assert_allclose(float(three.data), 3 * float(one.data), rtol=1e-12)


def test_ce_drives_frame_accuracy():
    # near-zero CE forces argmax correctness on every frame
    labels = np.array([2, 0, 1, 1, 2])
    logits = np.full((5, 3), -3.0)
    logits[np.arange(5), labels] = 9.0
    lt = tensor(logits)
    assert float(L.ce_loss(lt, labels).data) < 1e-4
    np.testing.assert_array_equal(np.argmax(logits, axis=1), labels)


def test_mean_boundary_kl_diagnostic():
    w, t = 5, 16
    labels = np.array([0] * 8 + [1] * 8)
    rng = np.random.default_rng(8)
    raw = rng.random((t, w)) + 0.05
    rows = raw / raw.sum(axis=1, keepdims=True)
    probs = local_probs([rows])
    value = mean_boundary_kl(probs, labels, "local", w)
    expected = []
    for variant, frames in zip(("start", "end"), L.derive_boundaries(labels)):
        p = L.prior(variant, w)
        for f in frames:
            if 2 <= f <= t - 3:
                expected.append(kl_scalar(p, rows[f]))
    np.testing.assert_allclose(value, np.mean(expected))
    tiny = local_probs([rows[:3]])
    assert mean_boundary_kl(tiny, labels[:3], "local", w) is None
