"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete; the heavyweight training runs are shared across criteria.
"""

import itertools
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    attend_qkv,
    boundary_alignment,
    edit_score,
    edit_score_brute,
    evaluate,
    f1_brute,
    f1_overlap,
    kl_scalar,
    logsparse_key_set,
    numeric_grad,
    rel_err,
    tensor,
    valid_key_sets,
)
from tut import data as D
from tut import losses as L
from tut import net as N
from tut import tensor as T
from tut import trainer as TR
from tut.cli import main as cli_main
from tut.config import build_configs


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[C{criterion:02d}] {name}: {status}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale training runs (criteria 7 and 8)

DESK_SPEC = D.SynthSpec(
    num_classes=4, num_videos=8, min_len=128, max_len=256,
    feature_dim=16, noise=0.25, seed=7,
)

DESK_MODEL = dict(
    input_dim=16, num_classes=4, layers=3, refinement_stages=1,
    window=11, heads=2, hidden_dim=32, hidden_dim_refine=32,
    input_dropout=0.1, ffn_dropout=0.1, attention_dropout=0.0,
)

DESK_EPOCHS = 60


@pytest.fixture(scope="module")
def desk_runs():
    samples, _ = D.generate_synthetic(DESK_SPEC)
    runs = {}
    for beta in (0.02, 0.0):
        cfg = N.ModelConfig(**DESK_MODEL)
        train_cfg = TR.TrainConfig(
            epochs=DESK_EPOCHS, lr=1e-3, smooth_weight=0.15, boundary_weight=beta, seed=11
        )
        start = time.time()
        result = TR.train(samples, cfg, train_cfg)
        elapsed = time.time() - start
        rep, _ = TR.evaluate_model(result.params, cfg, samples)
        kl = boundary_alignment(result.params, cfg, samples)
        runs[beta] = dict(report=rep, kl=kl, elapsed=elapsed, result=result, cfg=cfg)
    return samples, runs


# ---------------------------------------------------------------------------


def test_c01_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(0)
    failures = []

    def check(name, fn, arrays, grads, tol=1e-4):
        for i, got in enumerate(grads):
            err = rel_err(got, numeric_grad(fn, arrays, i))
            if err >= tol:
                failures.append(f"{name}[{i}]: {err:.2e}")

    # matmul
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    ta, tb = tensor(a, requires_grad=True), tensor(b, requires_grad=True)
    T.sum_all(T.matmul(ta, tb)).backward()
    check("matmul", lambda av, bv: float((av @ bv).sum()), [a, b], [ta.grad, tb.grad])

    # softmax / log-softmax via weighted sums
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((4, 5))
    tx = tensor(x, requires_grad=True)
    T.sum_all(T.mul(T.softmax_lastdim(tx), tensor(w))).backward()

    def soft_f(xv):
        e = np.exp(xv - xv.max(axis=-1, keepdims=True))
        return float((w * (e / e.sum(axis=-1, keepdims=True))).sum())

    check("softmax", soft_f, [x], [tx.grad])

    tx2 = tensor(x, requires_grad=True)
    T.sum_all(T.mul(T.log_softmax_lastdim(tx2), tensor(w))).backward()

    def logsoft_f(xv):
        s = xv - xv.max(axis=-1, keepdims=True)
        return float((w * (s - np.log(np.exp(s).sum(axis=-1, keepdims=True)))).sum())

    check("log_softmax", logsoft_f, [x], [tx2.grad])

    # instance norm
    xn = rng.standard_normal((6, 3))
    gn, bn = rng.standard_normal(3), rng.standard_normal(3)
    wn = rng.standard_normal((6, 3))
    txn = tensor(xn, requires_grad=True)
    tgn = tensor(gn, requires_grad=True)
    tbn = tensor(bn, requires_grad=True)
    zero = tensor(np.zeros_like(xn))  # no residual
    T.sum_all(T.mul(T.instance_norm_temporal(txn, tgn, tbn, residual=zero), tensor(wn))).backward()

    def in_f(xv, gv, bv):
        xhat = (xv - xv.mean(axis=0)) / np.sqrt(xv.var(axis=0) + 1e-5)
        return float((wn * (xhat * gv + bv)).sum())

    check("instance_norm", in_f, [xn, gn, bn], [txn.grad, tgn.grad, tbn.grad])

    # instance norm of x + residual in one node (own draws: the rest of C01 keeps its inputs)
    rn = np.random.default_rng(1).standard_normal((6, 3))
    txn, trn, tgn, tbn = (tensor(a, requires_grad=True) for a in (xn, rn, gn, bn))
    T.sum_all(T.mul(T.instance_norm_temporal(txn, tgn, tbn, residual=trn), tensor(wn))).backward()
    check(
        "instance_norm.residual",
        lambda xv, rv, gv, bv: in_f(xv + rv, gv, bv),
        [xn, rn, gn, bn],
        [txn.grad, trn.grad, tgn.grad, tbn.grad],
    )

    # relu, clip, gather, scatter, div
    xr = rng.standard_normal((5, 4)) * 2
    txr = tensor(xr, requires_grad=True)
    T.sum_all(T.mul(T.relu(T.clip(txr, -1.0, 1.0)), tensor(xr))).backward()
    check(
        "relu.clip",
        lambda xv: float((np.maximum(np.clip(xv, -1, 1), 0) * xr).sum()),
        [xr],
        [txr.grad],
    )
    idx = np.array([0, 2, 2, 4])
    txg = tensor(xr, requires_grad=True)
    T.sum_all(T.mul(T.gather_rows(txg, idx), tensor(xr[idx]))).backward()
    check("gather_rows", lambda xv: float((xv[idx] * xr[idx]).sum()), [xr], [txg.grad])
    txl = tensor(xr, requires_grad=True)
    T.sum_all(T.mul(T.slice_rows(txl, 1, 4), tensor(xr[1:4]))).backward()
    check("slice_rows", lambda xv: float((xv[1:4] * xr[1:4]).sum()), [xr], [txl.grad])
    txs = tensor(xr[idx], requires_grad=True)
    T.sum_all(T.mul(T.scatter_add_rows(txs, idx, 5), tensor(xr))).backward()

    def scat_f(xv):
        out = np.zeros((5, 4))
        np.add.at(out, idx, xv)
        return float((out * xr).sum())

    check("scatter_add_rows", scat_f, [xr[idx]], [txs.grad])

    xd = rng.random((4, 3)) + 0.5
    wd = rng.standard_normal((4, 3))
    txd = tensor(xd, requires_grad=True)
    T.sum_all(T.mul(T.div(txd, T.sum_axis(txd, 1, keepdims=True)), tensor(wd))).backward()
    check(
        "div.sum_axis",
        lambda xv: float((wd * xv / xv.sum(axis=1, keepdims=True)).sum()),
        [xd],
        [txd.grad],
    )

    # cross-entropy, kl, wasserstein
    logits = rng.standard_normal((5, 3))
    labels = np.array([0, 1, 2, 1, 0])
    tl = tensor(logits, requires_grad=True)
    T.cross_entropy_from_logits(tl, labels).backward()

    def ce_f(lv):
        s = lv - lv.max(axis=1, keepdims=True)
        logp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(5), labels].mean())

    check("cross_entropy", ce_f, [logits], [tl.grad])

    p = np.array([0.0, 0.3, 0.7])
    d = rng.random(3) + 0.1
    d /= d.sum()
    td = tensor(d, requires_grad=True)
    T.kl_from_probs(tensor(p), td).backward()
    check("kl", lambda dv: kl_scalar(p, dv), [d], [td.grad])

    pv = rng.random(6)
    pv /= pv.sum()
    dv = rng.random(6)
    dv /= dv.sum()
    tdw = tensor(dv, requires_grad=True)
    T.wasserstein1_from_probs(tensor(pv), tdw).backward()
    check(
        "wasserstein", lambda x: float(np.abs(np.cumsum(pv - x)).sum()), [dv], [tdw.grad]
    )

    # dropout: gradient equals the drawn mask (piecewise linear given mask)
    stream = np.random.default_rng(5)
    xdr = rng.standard_normal((30, 4))
    txdr = tensor(xdr, requires_grad=True)
    out = T.dropout(txdr, 0.4, stream)
    T.sum_all(out).backward()
    mask = (out.data != 0).astype(float) / 0.6
    if rel_err(txdr.grad, mask) >= 1e-12:
        failures.append("dropout mask gradient")

    # attention patterns: attend projects Q from x and K|V from a memory of
    # the same length, as a decoder layer does
    q0, k0, _ = (rng.standard_normal((7, 4)) for _ in range(3))  # rng's later draws stay put
    wt = rng.standard_normal((7, 4))
    arng = np.random.default_rng(2)
    wq, bq = arng.standard_normal((4, 12)), arng.standard_normal(8)  # Q | K | V weights, Q | V bias
    for pattern in ("full", "local", "logsparse"):
        cfg = dict(pattern=pattern, window=3, heads=2)

        def att_f(xv, mv, wv, bv, cfg=cfg):
            out, _ = N.attend(tensor(xv), tensor(wv), tensor(bv), **cfg, memory=tensor(mv))
            return float((out.data * wt).sum())

        leaves = [tensor(a, requires_grad=True) for a in (q0, k0, wq, bq)]
        out, _ = N.attend(leaves[0], leaves[2], leaves[3], **cfg, memory=leaves[1])
        T.sum_all(T.mul(out, tensor(wt))).backward()
        check(f"attention.{pattern}", att_f, [a.data for a in leaves], [a.grad for a in leaves])

    # the slot kernels and the FFN node, in f64 and in f32 (whose gradients
    # are held to the f64 finite differences too), with dropout off and on;
    # their own streams leave the end-to-end model's draws below unchanged.
    # The local band, the unsorted logsparse offsets with gaps and full
    # attention each run self-attention and cross-attention to a memory leaf
    # of the same length (T=7), the decoder's node form.
    srng = np.random.default_rng(6)
    slot_cases = []
    for name, offsets, rpe in (
        ("local", T.slot_offsets("local", 7, 5), True),
        ("logsparse", np.array([0, -1, 1, -2, 2, -4, 4]), True),
        ("full", None, False),
    ):
        layout = T.SlotLayout.build(offsets, 7)
        for kind in ("self", "cross"):
            arrays = [srng.standard_normal(shape) for shape in ((7, 3), (7, 3), (3, 12), (8,))]
            if rpe:
                arrays.append(srng.standard_normal((layout.slots, 2)))
            weights = (srng.standard_normal((7, 2, layout.slots)), srng.standard_normal((7, 4)))
            slot_cases.append((f"{name}.{kind}", layout, weights, kind == "cross", arrays))

    def slot_loss(layout, weights, cross, leaves, drop):
        x, memory, w, b, *rpe = leaves
        qkv = T.slot_project(x, w, b, layout, memory if cross else None)
        probs = T.slot_softmax(qkv, layout, 2, *rpe)
        out = T.slot_mix(probs, qkv, layout, 0.3, np.random.default_rng(9) if drop else None)
        w_probs, w_out = (tensor(a.astype(x.dtype)) for a in weights)
        return T.add(T.sum_all(T.mul(probs, w_probs)), T.sum_all(T.mul(out, w_out)))

    frng = np.random.default_rng(7)
    ffn_arrays = [frng.standard_normal(s) for s in ((6, 3), (3, 5), (5,), (5, 4))]
    ffn_weights = frng.standard_normal((6, 4))

    def ffn_loss(leaves, drop):
        out = T.ffn_block(*leaves, 0.4, np.random.default_rng(10) if drop else None)
        return T.sum_all(T.mul(out, tensor(ffn_weights.astype(out.dtype))))

    node_cases = [
        (f"slot_nodes.{name}", arrays, lambda ls, drop, case=case: slot_loss(*case, ls, drop))
        for name, *case, arrays in slot_cases
    ] + [("ffn_block", ffn_arrays, ffn_loss)]
    for (name, arrays, loss_of), drop, dtype in itertools.product(
        node_cases, (False, True), (np.float64, np.float32)
    ):
        leaves = [T.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        loss_of(leaves, drop).backward()
        grads = [np.zeros_like(a) if t.grad is None else t.grad for a, t in zip(arrays, leaves)]
        check(
            f"{name}.drop={drop}.{np.dtype(dtype).name}",
            lambda *vals, f=loss_of, drop=drop: float(f([tensor(v) for v in vals], drop).data),
            arrays, grads,
        )

    # resampling, on its own stream too
    brng = np.random.default_rng(3)
    for name, resample, rows in (
        ("downsample_nearest", T.downsample_nearest, 4),
        ("upsample_nearest", lambda x: T.upsample_nearest(x, 13), 13),
    ):
        wr = brng.standard_normal((rows, 4))
        tr = tensor(q0, requires_grad=True)
        T.sum_all(T.mul(resample(tr), tensor(wr))).backward()
        check(name, lambda xv, f=resample, wr=wr: float((f(tensor(xv)).data * wr).sum()),
              [q0], [tr.grad])

    # fused dense layer; its own stream, like the slot kernels above
    lrng = np.random.default_rng(4)
    xl, wl, bl = lrng.standard_normal((5, 3)), lrng.standard_normal((3, 6)), lrng.standard_normal(6)
    wo = lrng.standard_normal((5, 6))
    tx, tw, tb = (tensor(a, requires_grad=True) for a in (xl, wl, bl))
    T.sum_all(T.mul(T.linear(tx, tw, tb), tensor(wo))).backward()
    check(
        "linear", lambda xv, wv, bv: float(((xv @ wv + bv) * wo).sum()),
        [xl, wl, bl], [tx.grad, tw.grad, tb.grad],
    )

    # the loss kernels, on their own stream. The smoothing loss's deltas
    # reach past the clip on some entries, and its oracle freezes the
    # detached t-1 branch. The boundary divergence reads, under local and
    # full attention, frame 4 twice (it starts and ends a segment); the
    # oracle renormalizes each full-attention head's window in plain numpy.
    def log_softmax_np(arr):
        s = arr - arr.max(axis=1, keepdims=True)
        return s - np.log(np.exp(s).sum(axis=1, keepdims=True))

    krng = np.random.default_rng(8)
    xs = krng.standard_normal((6, 4)) * 3
    prev = log_softmax_np(xs)[:-1]
    txs = tensor(xs, requires_grad=True)
    T.smoothing_from_logits(txs, L.TMSE_CLIP).backward()
    check(
        "smoothing_from_logits",
        lambda xv: float((np.clip(log_softmax_np(xv)[1:] - prev, -L.TMSE_CLIP, L.TMSE_CLIP) ** 2).mean()),
        [xs], [txs.grad],
    )
    frames_b, priors_b = L.boundary_targets(np.repeat([0, 1, 2], [4, 1, 4]), 9, 3)

    def boundary_np(pv, kind, pattern):
        lads = []
        for f in frames_b:
            win = pv[f]
            if pattern == "full":
                win = pv[f, :, f - 1 : f + 2] / pv[f, :, f - 1 : f + 2].sum(axis=1, keepdims=True)
            lads.append(win.sum(axis=0) / win.sum())
        out = 0.0
        for p_row, d_row in zip(priors_b, lads):
            mid = (p_row + d_row) / 2
            out += {
                "kl": lambda: kl_scalar(p_row, d_row),
                "js": lambda: (kl_scalar(p_row, mid) + kl_scalar(d_row, mid)) / 2,
                "l2": lambda: float(((p_row - d_row) ** 2).sum()),
                "wasserstein": lambda: float(np.abs(np.cumsum(p_row - d_row)).sum()),
            }[kind]()
        return out / pv.shape[0]

    for pattern, kind in itertools.product(L.BA_PATTERNS, L.BA_DISTANCES):
        pb = krng.random((9, 2, 3 if pattern == "local" else 9)) + 0.1
        pb /= pb.sum(axis=2, keepdims=True)
        tpb = tensor(pb, requires_grad=True)
        T.boundary_divergence(tpb, frames_b, priors_b, kind, pattern, 3).backward()
        check(
            f"boundary_divergence.{pattern}.{kind}",
            lambda pv, kind=kind, pattern=pattern: boundary_np(pv, kind, pattern),
            [pb], [tpb.grad],
        )

    # end-to-end tiny model: T=16, d=4, N=2, M=1, w=3, f64, dropout off,
    # full three-term loss, finite differences over every parameter. The
    # smoothing loss detaches the frame t-1 branch, so the FD oracle
    # evaluates the surrogate with that branch frozen at the base values
    # (the function the analytic gradient is defined for).
    cfg = N.ModelConfig(
        input_dim=4, num_classes=3, layers=2, refinement_stages=1, window=3, heads=2,
        hidden_dim=4, hidden_dim_refine=4,
        input_dropout=0.0, ffn_dropout=0.0, attention_dropout=0.0,
        pe_mode="relative", rpe_share="scale", dtype="f64",
    )
    params = N.init_params(cfg, T.SeedStreams(1))
    x = rng.standard_normal((16, 4))
    labels = np.array([0] * 5 + [1] * 6 + [2] * 5)
    loss_cfg = TR.TrainConfig(smooth_weight=0.15, boundary_weight=0.02)
    base_out = N.model_forward(x, params, cfg)
    frozen_prev = [log_softmax_np(lg.data)[:-1] for lg in base_out.logits]
    t = labels.shape[0]
    targets = {n: L.boundary_targets(labels, n, cfg.window) for n in (t, (t + 1) // 2)}

    def surrogate_loss(xv=None):
        out = N.model_forward(x if xv is None else xv, params, cfg)
        total = 0.0
        for s, logits in enumerate(out.logits):
            logp = log_softmax_np(logits.data)
            total += float(-logp[np.arange(t), labels].mean())
            delta = np.clip(logp[1:] - frozen_prev[s], -4.0, 4.0)
            total += 0.15 * float((delta**2).mean())
            total += 0.02 * float(
                L.ba_loss(out.records[s], targets, "kl", cfg.attention, cfg.window).data
            )
        return total

    loss, _ = L.total_loss(N.model_forward(x, params, cfg), labels, loss_cfg, cfg)
    loss.backward()
    analytic = {name: p.grad.copy() if p.grad is not None else None for name, p in params.items()}
    worst = 0.0
    for name in params:
        base = params[name].data.copy()

        def fd_f(arr, name=name, base=base):
            params[name].data = arr
            value = surrogate_loss()
            params[name].data = base
            return value

        want = numeric_grad(fd_f, [base.copy()], 0)
        got = analytic[name] if analytic[name] is not None else np.zeros_like(base)
        err = rel_err(got, want)
        worst = max(worst, err)
        if err >= 1e-4:
            failures.append(f"model param {name}: {err:.2e}")
        params[name].grad = None

    # input gradient too
    tx_in = T.Tensor(x.copy(), requires_grad=True)
    out = N.model_forward(tx_in, params, cfg)
    L.total_loss(out, labels, loss_cfg, cfg)[0].backward()
    err = rel_err(tx_in.grad, numeric_grad(lambda xv: surrogate_loss(xv), [x], 0))
    worst = max(worst, err)
    if err >= 1e-4:
        failures.append(f"model input: {err:.2e}")

    elapsed = time.time() - start
    ok = not failures and elapsed < 120
    report(
        1, "gradient suite", ok,
        f"worst end-to-end rel err {worst:.2e}, {elapsed:.1f}s" + (f"; {failures}" if failures else ""),
    )


def test_c02_attention_oracles():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(1, 33))
        d = 2 * int(rng.integers(1, 4))
        heads = int(rng.choice([1, 2]))
        q, k, v = (tensor(rng.standard_normal((t, d))) for _ in range(3))
        w = 2 * t - 1 if t % 2 == 1 else 2 * t + 1
        local, _ = attend_qkv(q, k, v, "local", w, heads)
        full, _ = attend_qkv(q, k, v, "full", w, heads)
        worst = max(worst, float(np.max(np.abs(local.data - full.data))))
    sets_ok = True
    for t in range(1, 65):
        q, k, v = (tensor(rng.standard_normal((t, 2))) for _ in range(3))
        _, probs = attend_qkv(q, k, v, "logsparse", 51, 1)
        for i, got in enumerate(valid_key_sets(probs, T.slot_layout("logsparse", t, 51))):
            if got != logsparse_key_set(t, i):
                sets_ok = False
    report(
        2, "attention oracles", worst < 1e-6 and sets_ok,
        f"max local-vs-full deviation {worst:.2e}, logsparse sets {'ok' if sets_ok else 'MISMATCH'}",
    )


def test_c03_complexity_contract():
    t, w, h, layers = 1024, 51, 4, 5

    def cell(arch, pattern):
        cfg = N.ModelConfig(
            architecture=arch, attention=pattern, layers=layers, refinement_stages=0,
            window=w, heads=h, hidden_dim=8, hidden_dim_refine=8,
            pe_mode="none", input_dim=4, num_classes=3,
        )
        return N.count_attention_entries(cfg, t)

    utrans_local = cell("utrans", "local")
    standard_local = cell("standard", "local")
    standard_full = cell("standard", "full")

    # closed forms derived independently: T is a power of two, so the
    # encoder attends at T/2..T/2^5 and the decoder back up at T/2^4..T
    enc_lengths = [t // 2**k for k in range(1, layers + 1)]
    dec_lengths = [t // 2**k for k in range(layers - 1, -1, -1)]
    expect_utrans_local = h * w * (sum(enc_lengths) + sum(dec_lengths))
    ok = (
        utrans_local < standard_local < standard_full
        and utrans_local == expect_utrans_local
        and standard_full == h * t * t * (2 * layers)
        and standard_local == h * w * t * (2 * layers)
        and h * w * sum(enc_lengths) <= h * w * 2 * t  # geometric series bound
        and h * w * sum(dec_lengths) <= h * w * 2 * t
    )
    report(
        3, "complexity contract", ok,
        f"utrans+local {utrans_local} < standard+local {standard_local} "
        f"< standard+full {standard_full}",
    )


RETAINED_KIB_PER_FRAME = 44  # gtea geometry at T=512; it measures 37.2


def test_c03_measured_retained_bytes():
    """The measured side of C03: the bytes a training forward and loss keep
    alive for backward grow linearly with T, so their per-frame figure stays
    flat from T=256 to T=512 (gtea geometry, narrow input, dropout on). At
    T=512 they stay under ``RETAINED_KIB_PER_FRAME``: each layer keeps 1-byte
    dropout masks and views of one padded Q/K/V buffer, where the layer
    composed of small nodes kept about 50 KiB per frame."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    params = N.init_params(model_cfg, T.SeedStreams(0))

    def retained(t: int) -> int:
        x = np.random.default_rng(t).standard_normal((t, 32)).astype(np.float32)
        labels = np.repeat(np.arange(5), t // 5 + 1)[:t]
        streams = T.SeedStreams(1)
        tracemalloc.start()
        try:
            out = N.model_forward(x, params, model_cfg, train=True, streams=streams)
            loss, _ = L.total_loss(out, labels, train_cfg, model_cfg)
            live = tracemalloc.get_traced_memory()[0]
            assert loss.requires_grad  # the graph was alive when measured
            return live
        finally:
            tracemalloc.stop()

    retained(64)  # warm-up: first-call caches are not graph
    per_frame = {t: retained(t) / t for t in (256, 512)}
    ratio = per_frame[512] / per_frame[256]
    report(
        3, "measured retained bytes",
        0.9 < ratio < 1.1 and per_frame[512] < RETAINED_KIB_PER_FRAME * 1024,
        f"{per_frame[256] / 1024:.1f} KiB/frame at T=256, {per_frame[512] / 1024:.1f} at T=512",
    )


def test_c04_loss_correctness():
    checks = []
    # clamp: |delta| > 4 contributes exactly theta^2 = 16
    logits = tensor(np.array([[0.0, 10.0], [10.0, 0.0]]))
    checks.append(abs(float(L.tmse_loss(logits).data) - 16.0) < 1e-9)

    # stop-gradient: frame 0 appears only in the detached branch
    base = np.random.default_rng(2).standard_normal((6, 3))
    tl = tensor(base, requires_grad=True)
    L.tmse_loss(tl).backward()
    checks.append(np.allclose(tl.grad[0], 0.0))

    checks.append(np.allclose(L.prior("start", 5), [0, 0, 1 / 3, 1 / 3, 1 / 3]))
    checks.append(np.allclose(L.prior("end", 5), [0.5, 0.5, 0, 0, 0]))

    # BA loss: zero at the prior, and equal to an independent KL script.
    # Segments of length >= 2 keep the start and end sets disjoint so one
    # attention row can actually match its prior.
    def segmented_labels(rng, t):
        labels = np.empty(t, dtype=int)
        pos, prev = 0, -1
        while pos < t:
            length = int(rng.integers(2, 7))
            if t - pos - length == 1:
                length += 1
            cls = int(rng.choice([c for c in range(3) if c != prev]))
            labels[pos : pos + length] = cls
            prev = cls
            pos += length
        return labels

    w = 5
    rng = np.random.default_rng(3)
    max_err = 0.0
    for _ in range(20):
        t = int(rng.integers(w, 60))
        labels = segmented_labels(rng, t)
        raw = rng.random((t, w)) + 0.05
        rows = raw / raw.sum(axis=1, keepdims=True)
        boundaries = list(zip(("start", "end"), L.derive_boundaries(labels)))
        targets = {t: L.boundary_targets(labels, t, w)}
        got = float(L.ba_loss((None, tensor(rows[:, None, :])), targets, "kl", "local", w).data)
        expect = 0.0
        for variant, frames in boundaries:
            p = L.prior(variant, w)
            for frame in frames:
                if w // 2 <= frame <= t - 1 - w // 2:
                    expect += kl_scalar(p, rows[frame])
        max_err = max(max_err, abs(got - expect / t))
        aligned = rows.copy()
        for variant, frames in boundaries:
            for frame in frames:
                if w // 2 <= frame <= t - 1 - w // 2:
                    aligned[frame] = L.prior(variant, w)
        zero = float(L.ba_loss((None, tensor(aligned[:, None, :])), targets, "kl", "local", w).data)
        checks.append(abs(zero) < 1e-12)
    checks.append(max_err < 1e-8)
    report(4, "loss correctness", all(checks), f"max BA-vs-script error {max_err:.2e}")


def test_c05_metric_oracles():
    rng = np.random.default_rng(4)
    max_edit_err = 0.0
    f1_mismatches = 0
    mono_ok = True
    for _ in range(10_000):
        lp = int(rng.integers(1, 7))
        lg = int(rng.integers(1, 7))
        pred = rng.integers(0, 3, size=lp).tolist()
        gt = rng.integers(0, 3, size=lg).tolist()
        max_edit_err = max(
            max_edit_err, abs(edit_score(pred, gt) - edit_score_brute(pred, gt))
        )
        prev = None
        for tau in (0.1, 0.25, 0.5):
            got = f1_overlap(pred, gt, tau)
            want, *_ = f1_brute(pred, gt, tau)
            if abs(got - want) > 1e-9:
                f1_mismatches += 1
            if prev is not None and got > prev + 1e-9:
                mono_ok = False
            prev = got
    # hand-worked examples
    hand_ok = (
        abs(edit_score(["A", "B", "C"], ["A", "C", "C"]) - 100 * 2 / 3) < 1e-9
        and f1_overlap(["A", "A", "B", "B", "C"], ["A", "A", "A", "B", "C"], 0.5) == 100.0
        and abs(f1_overlap(["A", "A", "B", "B", "C"], ["A", "A", "A", "B", "C"], 0.75) - 100 / 3) < 1e-9
    )
    ident = evaluate([0, 1, 1, 2], [0, 1, 1, 2])
    ident_ok = ident.acc == ident.edit == 100.0 and all(v == 100.0 for v in ident.f1.values())
    ok = max_edit_err < 1e-9 and f1_mismatches == 0 and mono_ok and hand_ok and ident_ok
    report(
        5, "metric oracles", ok,
        f"10k random pairs, edit err {max_edit_err:.1e}, f1 mismatches {f1_mismatches}",
    )


def test_c06_shape_architecture_suite():
    cfg = N.ModelConfig(
        input_dim=4, num_classes=5, layers=5, refinement_stages=2, window=5, heads=2,
        hidden_dim=8, hidden_dim_refine=8,
        input_dropout=0.0, ffn_dropout=0.0, attention_dropout=0.0, pe_mode="none",
    )
    params = N.init_params(cfg, T.SeedStreams(2))
    rng = np.random.default_rng(5)
    shapes_ok = True
    probs_ok = True
    for t in (33, 64, 100, 257):
        out = N.model_forward(rng.standard_normal((t, 4)), params, cfg)
        for logits in out.logits:
            shapes_ok &= logits.data.shape == (t, 5)
        for probs in map(T.softmax_lastdim, out.logits):
            probs_ok &= bool(np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-5))
            probs_ok &= bool(np.all(probs.data >= 0))
    # final prediction comes from the last refinement stage even when an
    # earlier stage is better
    labels = np.array([0, 1, 2, 3])
    perfect = np.eye(5)[labels] * 30.0
    wrong = np.roll(perfect, 1, axis=1)
    doctored = N.StageOutputs(
        logits=[tensor(perfect), tensor(wrong)], records=[]
    )
    last_stage_ok = bool(
        np.array_equal(N.final_prediction(doctored), np.argmax(wrong, axis=1))
    )
    report(
        6, "shape/architecture suite",
        shapes_ok and probs_ok and last_stage_ok,
        "lengths {33,64,100,257} restored, probability rows valid, last stage wins",
    )


def test_c07_desk_scale_learning(desk_runs):
    _, runs = desk_runs
    run = runs[0.02]
    rep = run["report"]
    ok = rep.acc >= 95.0 and rep.edit >= 85.0 and run["elapsed"] < 600
    report(
        7, "desk-scale learning", ok,
        f"acc {rep.acc:.2f} (>=95), edit {rep.edit:.2f} (>=85), "
        f"{DESK_EPOCHS} epochs in {run['elapsed']:.0f}s",
    )


def test_c08_boundary_loss_effect(desk_runs):
    _, runs = desk_runs
    on, off = runs[0.02], runs[0.0]
    f1_drop = off["report"].f1[0.5] - on["report"].f1[0.5]
    ok = f1_drop <= 2.0 and on["kl"] < off["kl"]
    report(
        8, "boundary-loss effect probe", ok,
        f"f1@50 drop {f1_drop:.2f} (<=2), boundary KL {on['kl']:.4f} < {off['kl']:.4f}",
    )


def test_c09_determinism(tmp_path):
    data_dir = tmp_path / "data"
    cli_main([
        "synth", "--out", str(data_dir), "--videos", "3", "--classes", "3",
        "--min-len", "36", "--max-len", "44", "--feature-dim", "8",
        "--noise", "0.2", "--seed", "13",
    ])
    flags = [
        "--seed", "17", "--epochs", "3", "--lr", "0.001",
        "--layers", "2", "--refinement-stages", "1", "--window", "5", "--heads", "2",
        "--hidden-dim", "16", "--hidden-dim-refine", "16", "--boundary-weight", "0.02",
    ]
    blobs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli_main(["train", "--data-root", str(data_dir), "--out", str(out), *flags]) == 0
        assert cli_main([
            "eval", "--data-root", str(data_dir), "--out", str(out / "eval"),
            "--checkpoint", str(out / "checkpoint.ckpt"),
        ]) == 0
        blobs.append(
            (
                (out / "checkpoint.ckpt").read_bytes(),
                (out / "eval" / "metrics.csv").read_bytes(),
                (out / "train_log.csv").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1]
    report(9, "determinism", ok, "checkpoint, metrics CSV, and train log byte-identical")


def test_c10_ablation_harness(tmp_path):
    data_dir = tmp_path / "data"
    cli_main([
        "synth", "--out", str(data_dir), "--videos", "2", "--classes", "3",
        "--min-len", "36", "--max-len", "44", "--feature-dim", "8",
        "--noise", "0.2", "--seed", "14",
    ])
    flags = [
        "--seed", "19", "--epochs", "1", "--lr", "0.001",
        "--layers", "2", "--refinement-stages", "0", "--window", "5", "--heads", "2",
        "--hidden-dim", "16", "--hidden-dim-refine", "16",
    ]
    arch_csv = tmp_path / "arch.csv"
    assert cli_main([
        "ablate", "--data-root", str(data_dir), "--out", str(arch_csv),
        "--axis", "arch-attention", *flags,
    ]) == 0
    pe_csv = tmp_path / "pe.csv"
    assert cli_main([
        "ablate", "--data-root", str(data_dir), "--out", str(pe_csv),
        "--axis", "positional-encoding", *flags,
    ]) == 0
    arch_rows = arch_csv.read_text().strip().splitlines()
    pe_rows = pe_csv.read_text().strip().splitlines()
    arch_cells = {tuple(line.split(",")[:2]) for line in arch_rows[1:]}
    expected_cells = {
        (a, p) for a in ("utrans", "standard") for p in ("full", "logsparse", "local")
    }
    pe_modes = [line.split(",")[2] for line in pe_rows[1:]]
    ok = (
        len(arch_rows) == 7
        and len(pe_rows) == 7
        and arch_cells == expected_cells
        and pe_modes == ["none", "sinusoidal", "learnable", "relative", "relative", "relative"]
        and all(line.split(",")[-1] == "ok" for line in arch_rows[1:])
    )
    report(10, "ablation harness", ok, "6-row architecture grid + 6-row positional grid")
