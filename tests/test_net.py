import dataclasses
import json
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import (
    current_layout,
    in_range_mask,
    layer_composed,
    model_composed,
    numeric_grad,
    parent_layout,
    rel_err,
    save_checkpoint_copying,
    tensor,
)
from tut import data as D
from tut import net as N
from tut import tensor as T
from tut.errors import CheckpointError, ConfigError, ShapeError


def tiny_cfg(**kw):
    base = dict(
        input_dim=4,
        num_classes=3,
        layers=2,
        refinement_stages=1,
        window=3,
        heads=2,
        hidden_dim=8,
        hidden_dim_refine=8,
        input_dropout=0.0,
        ffn_dropout=0.0,
        attention_dropout=0.0,
        pe_mode="relative",
        rpe_share="scale",
        dtype="f64",
    )
    base.update(kw)
    return N.ModelConfig(**base)


def build(cfg, seed=0):
    return N.init_params(cfg, T.SeedStreams(seed))


def record_every_attend(monkeypatch) -> list:
    """Patch ``net.attend`` to also append each call's key length and the
    probabilities it returned to the returned list, in call order."""
    calls = []
    real = N.attend

    def attend(x, *args, memory=None, **kwargs):
        out, probs = real(x, *args, memory=memory, **kwargs)
        calls.append(((x if memory is None else memory).data.shape[0], probs))
        return out, probs

    monkeypatch.setattr(N, "attend", attend)
    return calls


def test_downsample_examples():
    x = tensor(np.arange(8.0).reshape(4, 2))
    np.testing.assert_allclose(N.downsample_nearest(x).data, x.data[[0, 2]])
    x3 = tensor(np.arange(6.0).reshape(3, 2))
    np.testing.assert_allclose(N.downsample_nearest(x3).data, x3.data[[0, 2]])
    with pytest.raises(ShapeError):
        N.downsample_nearest(tensor(np.zeros((0, 2))))


def test_upsample_examples_and_roundtrip():
    x = tensor(np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(N.upsample_nearest(x, 4).data[:, 0], [1, 1, 2, 2])
    np.testing.assert_allclose(N.upsample_nearest(x, 3).data[:, 0], [1, 1, 2])
    with pytest.raises(ShapeError):
        N.upsample_nearest(x, 6)
    src = tensor(np.random.default_rng(0).standard_normal((5, 3)))
    round_trip = N.upsample_nearest(N.downsample_nearest(src), 5)
    np.testing.assert_allclose(round_trip.data[[0, 1]], np.tile(src.data[0], (2, 1)))
    np.testing.assert_allclose(round_trip.data[[2, 3]], np.tile(src.data[2], (2, 1)))


def test_upsample_gradient_counts():
    x0 = np.random.default_rng(1).standard_normal((3, 2))

    def f(xv):
        return float(xv[np.arange(5) // 2].sum())

    tx = tensor(x0, requires_grad=True)
    T.sum_all(N.upsample_nearest(tx, 5)).backward()
    assert rel_err(tx.grad, numeric_grad(f, [x0], 0)) < 1e-8
    np.testing.assert_allclose(tx.grad[:, 0], [2.0, 2.0, 1.0])


def test_encoder_halving_chain():
    cfg = tiny_cfg(layers=5, refinement_stages=0, input_dim=4)
    assert N.stage_attention_lengths(cfg, 64)[:5] == [32, 16, 8, 4, 2]
    std = tiny_cfg(architecture="standard", layers=5, refinement_stages=0)
    assert N.stage_attention_lengths(std, 64) == [64] * 10


def test_zero_weights_reduce_to_normalized_downsample():
    cfg = tiny_cfg(refinement_stages=0, pe_mode="none")
    params = build(cfg)
    prefix = "stage0.enc1"
    for leaf in ("qkv.w", "qkv.b", "ffn1.w", "ffn1.b", "ffn2.w"):
        params[f"{prefix}.{leaf}"].data[...] = 0.0
    rng = np.random.default_rng(2)
    h = tensor(rng.standard_normal((10, 8)))
    out, probs = N.encoder_layer(h, params, cfg, stage=0, layer=1)
    assert probs.data.shape[0] == 5
    down = N.downsample_nearest(h)
    normed = T.instance_norm_temporal(
        down, tensor(np.ones(8)), tensor(np.zeros(8)), N.NORM_EPS, residual=T.mul(down, 0.0)
    )
    np.testing.assert_allclose(out.data, normed.data, atol=1e-4)


def _plain_residual(monkeypatch):
    """Every norm node becomes the plain sum x + residual."""
    monkeypatch.setattr(N, "_norm", lambda params, name, x, residual: T.add(x, residual))


def test_decoder_constant_kv_is_convex_combination(monkeypatch):
    _plain_residual(monkeypatch)
    cfg = tiny_cfg(refinement_stages=0, pe_mode="none")
    params = build(cfg)
    prefix = "stage0.dec1"
    hidden = 8
    # V projection = identity, FFN off: layer output minus residual is the
    # attended value, which for constant K/V rows is that constant row
    params[f"{prefix}.qkv.w"].data[...] = 0.0
    params[f"{prefix}.qkv.w"].data[:, 2 * hidden :] = np.eye(hidden)
    params[f"{prefix}.qkv.b"].data[...] = 0.0
    params[f"{prefix}.ffn1.w"].data[...] = 0.0
    params[f"{prefix}.ffn2.w"].data[...] = 0.0
    params[f"{prefix}.ffn1.b"].data[...] = 0.0
    rng = np.random.default_rng(3)
    const_row = rng.standard_normal(hidden)
    peer = tensor(np.tile(const_row, (6, 1)))
    h_prev = tensor(rng.standard_normal((3, hidden)))
    out, probs = N.decoder_layer(h_prev, peer, params, cfg, stage=0, layer=1)
    h1 = N.upsample_nearest(h_prev, 6)
    np.testing.assert_allclose(out.data - h1.data, np.tile(const_row, (6, 1)), atol=1e-10)
    slots = T.slot_layout(cfg.attention, 6, cfg.window).slots
    assert probs.data.shape == (6, cfg.heads, slots)


def test_decoder_peer_pairing_lengths(monkeypatch):
    cfg = tiny_cfg(layers=5, refinement_stages=0, input_dim=4, window=3)
    params = build(cfg)
    x = np.random.default_rng(4).standard_normal((64, 4))
    calls = record_every_attend(monkeypatch)
    out = N.model_forward(x, params, cfg)
    # encoder layers attend after halving 64 -> 32,...,2; decoder
    # cross-attention walks back up 4,...,64 with the last peer = stage input
    lengths = [(probs.data.shape[0], key_len) for key_len, probs in calls]
    assert lengths[:5] == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]
    assert lengths[5:] == [(4, 4), (8, 8), (16, 16), (32, 32), (64, 64)]
    assert out.records[0][0] is calls[0][1] and out.records[0][1] is calls[-1][1]
    assert out.logits[0].data.shape == (64, 3)


@pytest.mark.parametrize("arch", ["utrans", "standard"])
def test_a_forward_only_pass_frees_each_skip_once_its_decoder_layer_has_read_it(arch, monkeypatch):
    """Under no_grad, every encoder output that an earlier decoder layer
    read as its skip is dead when the next decoder layer starts. A Tensor
    has ``__slots__``, so the check holds weak references to the arrays."""
    cfg = tiny_cfg(layers=4, refinement_stages=1, architecture=arch)
    params = build(cfg)
    read = []
    real = N.decoder_layer

    def decoder_layer(h_prev_dec, h_enc_peer, *args):
        assert all(ref() is None for ref in read)
        read.append(weakref.ref(h_enc_peer.data))
        return real(h_prev_dec, h_enc_peer, *args)

    monkeypatch.setattr(N, "decoder_layer", decoder_layer)
    with T.no_grad():
        N.model_forward(np.random.default_rng(5).standard_normal((32, 4)), params, cfg)
    assert len(read) == cfg.layers * cfg.num_stages


def test_training_records_are_the_nodes_attend_returned(monkeypatch):
    """Each stage's records in a training forward are the very probability
    nodes ``attend`` returned for encoder layer 1 and decoder layer N: the
    pre-dropout rows, in the graph the loss backpropagates through."""
    cfg = tiny_cfg(layers=3, refinement_stages=2, attention_dropout=0.3, dtype="f32")
    calls = record_every_attend(monkeypatch)
    x = np.random.default_rng(12).standard_normal((24, 4))
    out = N.model_forward(x, build(cfg), cfg, train=True, streams=T.SeedStreams(0))
    per_stage = 2 * cfg.layers
    assert len(calls) == per_stage * cfg.num_stages == per_stage * len(out.records)
    for s, (enc_first, dec_last) in enumerate(out.records):
        stage = [probs for _, probs in calls[s * per_stage : (s + 1) * per_stage]]
        assert enc_first is stage[0] and dec_last is stage[-1]
        for probs, t in ((enc_first, 12), (dec_last, 24)):
            assert probs.requires_grad and probs.data.shape == (t, cfg.heads, cfg.window)
            valid = in_range_mask(T.slot_layout("local", t, cfg.window).offsets, t)
            sums = np.where(valid[:, None, :], probs.data, 0.0).sum(axis=2)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)


@pytest.mark.parametrize("coder", ["enc", "dec"])
@pytest.mark.parametrize("pattern", ["local", "full", "logsparse"])
@pytest.mark.parametrize("arch", ["utrans", "standard"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_fused_layer_matches_the_composed_layer_bytes(dtype, arch, pattern, coder):
    """An encoder or decoder layer of the fused attention and FFN nodes gives
    the output, probabilities and every gradient of the same layer composed
    from small nodes, byte for byte: dropout off and on, and a sequence
    shorter than the window as well as a longer one. The composed layer
    holds a zero K bias and ``ffn2.b``, whose gradients are not compared."""
    cfg = tiny_cfg(
        architecture=arch, attention=pattern, dtype=dtype, window=11, layers=3,
        pe_mode="relative" if pattern == "local" else "none",
        attention_dropout=0.3, ffn_dropout=0.4,
    )
    rng = np.random.default_rng(22)
    for t, drop in ((5, False), (5, True), (23, False), (23, True)):
        t_out = (t + 1) // 2 if arch == "utrans" and coder == "enc" else t
        t_prev = (t + 1) // 2 if arch == "utrans" and coder == "dec" else t
        arrays = [rng.standard_normal((rows, 8)).astype(cfg.np_dtype) for rows in (t_prev, t)]
        w_out = T.Tensor(rng.standard_normal((t_out, 8)).astype(cfg.np_dtype))
        slots = T.slot_layout(pattern, t_out, cfg.window).slots
        w_probs = T.Tensor(rng.standard_normal((t_out, cfg.heads, slots)).astype(cfg.np_dtype))
        results = []
        for fused in (True, False):
            params = build(cfg) if fused else parent_layout(build(cfg))
            h_prev, peer = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
            streams = T.SeedStreams(3) if drop else None
            if fused and coder == "enc":
                out, probs = N.encoder_layer(h_prev, params, cfg, 0, 2, streams)
            elif fused:
                out, probs = N.decoder_layer(h_prev, peer, params, cfg, 0, 2, streams)
            else:
                out, probs = layer_composed(h_prev, params, cfg, 0, coder, 2, streams, peer)
            T.add(T.sum_all(T.mul(out, w_out)), T.sum_all(T.mul(probs, w_probs))).backward()
            grads = {name: p.grad for name, p in params.items()}
            grads = grads if fused else current_layout(grads)
            grads.update(h_prev=h_prev.grad, peer=peer.grad)
            results.append((out.data, probs.data, grads))
        (out, probs, grads), (want_out, want_probs, want_grads) = results
        assert out.dtype == want_out.dtype == cfg.np_dtype
        assert out.tobytes() == want_out.tobytes() and probs.tobytes() == want_probs.tobytes()
        assert {k for k, g in grads.items() if g is None} == {k for k, g in want_grads.items() if g is None}
        assert grads["h_prev"] is not None and (grads["peer"] is None) == (coder == "enc")
        for name, g in grads.items():
            assert g is None or g.tobytes() == want_grads[name].tobytes(), (t, drop, name)


@pytest.mark.parametrize("t", [33, 64, 100, 257])
def test_length_restoration_both_parities(t):
    cfg = tiny_cfg(layers=5, refinement_stages=1, window=5)
    params = build(cfg)
    out = N.model_forward(np.random.default_rng(5).standard_normal((t, 4)), params, cfg)
    for logits in out.logits:
        assert logits.data.shape == (t, 3)


def test_model_forward_stage_contracts():
    cfg = tiny_cfg(refinement_stages=3, window=3)
    params = build(cfg)
    t = 32
    out = N.model_forward(np.random.default_rng(6).standard_normal((t, 4)), params, cfg)
    assert len(out.logits) == 4
    for logits in out.logits:
        probs = T.softmax_lastdim(logits)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(np.isfinite(probs.data))
    labels = N.final_prediction(out)
    assert labels.shape == (t,)
    np.testing.assert_array_equal(labels, np.argmax(out.logits[-1].data, axis=1))


def test_single_stage_when_m0():
    cfg = tiny_cfg(refinement_stages=0)
    params = build(cfg)
    out = N.model_forward(np.random.default_rng(7).standard_normal((16, 4)), params, cfg)
    assert len(out.logits) == 1


def test_too_many_layers_error():
    cfg = tiny_cfg(layers=5)
    params = build(cfg)
    with pytest.raises(ConfigError):
        N.model_forward(np.zeros((31, 4)), params, cfg)


def test_standard_arm_keeps_lengths():
    cfg = tiny_cfg(architecture="standard", refinement_stages=0)
    params = build(cfg)
    out = N.model_forward(np.random.default_rng(8).standard_normal((9, 4)), params, cfg)
    assert out.logits[0].data.shape == (9, 3)
    assert out.records[0][0].data.shape[0] == 9


def test_deterministic_repeat_with_dropout():
    cfg = tiny_cfg(input_dropout=0.3, ffn_dropout=0.2, attention_dropout=0.1, dtype="f32")
    x = np.random.default_rng(9).standard_normal((20, 4))

    def run():
        params = build(cfg, seed=11)
        streams = T.SeedStreams(11)
        out = N.model_forward(x, params, cfg, train=True, streams=streams)
        return out.logits[-1].data.tobytes()

    assert run() == run()


@pytest.mark.parametrize("key", ["input_dropout", "ffn_dropout", "attention_dropout"])
@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
def test_dropout_rate_outside_unit_interval_is_a_config_error(key, rate):
    tiny_cfg(**{key: 0.99})
    with pytest.raises(ConfigError, match=key):
        tiny_cfg(**{key: rate})


def test_rpe_sharing_table_counts():
    # no-share: one table per layer per coder per stage
    cfg = tiny_cfg(rpe_share="none", layers=2, refinement_stages=1)
    names = [n for n in N.param_shapes(cfg) if ".rpe." in n or n.startswith("rpe.")]
    assert len(names) == 2 * 2 * 2  # stages x coders x layers

    cfg = tiny_cfg(rpe_share="stage", layers=2, refinement_stages=1)
    names = [n for n in N.param_shapes(cfg) if "rpe" in n]
    assert sorted(names) == ["stage0.rpe.w", "stage1.rpe.w"]

    cfg = tiny_cfg(rpe_share="scale", layers=2, refinement_stages=1)
    names = [n for n in N.param_shapes(cfg) if "rpe" in n]
    # exponents: enc 1,2; dec 1,0 -> tables for scales 0,1,2 shared everywhere
    assert sorted(names) == ["rpe.scale0.w", "rpe.scale1.w", "rpe.scale2.w"]
    assert N.rpe_param_name(cfg, 0, "enc", 1) == N.rpe_param_name(cfg, 1, "enc", 1)
    assert N.rpe_param_name(cfg, 0, "enc", 1) == N.rpe_param_name(cfg, 0, "dec", 1)


@pytest.mark.parametrize("share", N.RPE_SHARES)
def test_every_rpe_table_draws_one_init_whatever_its_sharing(share):
    """Each relative-position table draws U(+-1/sqrt(w)) from its own
    stream, as a weight does, so the sharing ablation does not also change
    how its tables start."""
    cfg = tiny_cfg(rpe_share=share, window=5)
    params = build(cfg, seed=4)
    streams = T.SeedStreams(4)
    tables = [n for n in params if ".rpe." in n or n.startswith("rpe.")]
    assert tables
    bound = 1.0 / np.sqrt(cfg.window)
    for name in tables:
        want = streams.stream(f"init:{name}").uniform(-bound, bound, (cfg.window, cfg.heads))
        assert params[name].data.tobytes() == want.tobytes(), name


def test_positional_modes_forward():
    x = np.random.default_rng(10).standard_normal((12, 4))
    for mode in ("none", "sinusoidal", "learnable"):
        cfg = tiny_cfg(pe_mode=mode, refinement_stages=0)
        out = N.model_forward(x, build(cfg), cfg)
        assert out.logits[0].data.shape == (12, 3)
    cfg = tiny_cfg(pe_mode="learnable", refinement_stages=0)
    longest = np.zeros((N.PE_MAX_LEN + 1, 4))
    with pytest.raises(ConfigError, match=f"sequence length {N.PE_MAX_LEN + 1}"):
        N.model_forward(longest, build(cfg), cfg)


def test_memory_accounting_matches_forward(monkeypatch):
    calls = record_every_attend(monkeypatch)
    for arch in ("utrans", "standard"):
        for pattern in ("local", "full", "logsparse"):
            cfg = tiny_cfg(
                architecture=arch, attention=pattern, pe_mode="none",
                layers=3, refinement_stages=1, window=5,
            )
            params = build(cfg)
            t = 41
            calls.clear()
            N.model_forward(np.random.default_rng(11).standard_normal((t, 4)), params, cfg)
            assert len(calls) == 2 * cfg.layers * cfg.num_stages
            entries = sum(probs.data.size for _, probs in calls)
            assert entries == N.count_attention_entries(cfg, t)


def test_memory_contract_ordering_t1024():
    def cfg_cell(arch, pattern):
        return tiny_cfg(
            architecture=arch, attention=pattern, pe_mode="none",
            layers=5, refinement_stages=0, window=51, heads=4,
        )

    t = 1024
    utrans_local = N.count_attention_entries(cfg_cell("utrans", "local"), t)
    standard_local = N.count_attention_entries(cfg_cell("standard", "local"), t)
    standard_full = N.count_attention_entries(cfg_cell("standard", "full"), t)
    assert utrans_local < standard_local < standard_full
    assert standard_full == 4 * t * t * 10
    assert standard_local == 4 * 51 * t * 10


def test_receptive_field_probe(monkeypatch):
    # the U-shaped arm spreads a frame-0 perturbation far beyond the window;
    # one standard layer stays inside it (norms off so the Jacobian support
    # reflects attention reach alone)
    _plain_residual(monkeypatch)
    t, d = 64, 4
    x = np.random.default_rng(12).standard_normal((t, d))

    def influence(cfg, params):
        base = N.model_forward(x, params, cfg).logits[0].data
        bumped = x.copy()
        bumped[0] += 1.0
        moved = N.model_forward(bumped, params, cfg).logits[0].data
        return np.abs(moved - base).max(axis=1)

    cfg_u = tiny_cfg(layers=3, refinement_stages=0, window=3, pe_mode="none")
    delta = influence(cfg_u, build(cfg_u, seed=3))
    assert np.nonzero(delta)[0].max() >= 12

    cfg_s = tiny_cfg(
        architecture="standard", layers=1, refinement_stages=0, window=3, pe_mode="none",
    )
    delta = influence(cfg_s, build(cfg_s, seed=3))
    assert np.nonzero(delta)[0].max() <= 2


def test_end_to_end_gradient_small():
    cfg = tiny_cfg(layers=1, refinement_stages=0, window=3, heads=2, pe_mode="relative")
    params = build(cfg, seed=5)
    x = np.random.default_rng(13).standard_normal((6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])

    def loss_for(name):
        def f(arr):
            saved = params[name].data
            params[name] = T.Tensor(arr, requires_grad=True)
            out = N.model_forward(x, params, cfg)
            value = float(T.cross_entropy_from_logits(out.logits[-1], labels).data)
            params[name] = T.Tensor(saved, requires_grad=True)
            return value

        return f

    out = N.model_forward(x, params, cfg)
    T.cross_entropy_from_logits(out.logits[-1], labels).backward()
    for name in ("stage0.proj.w", "stage0.enc1.qkv.w", "rpe.scale1.w", "stage0.cls.b"):
        got = params[name].grad
        want = numeric_grad(loss_for(name), [params[name].data.copy()], 0)
        assert rel_err(got, want) < 1e-4, name


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg(dtype="f32")
    params = build(cfg, seed=21)
    path = tmp_path / "model.ckpt"
    N.save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = N.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
    x = np.random.default_rng(14).standard_normal((16, 4))
    a = N.model_forward(x, params, cfg).logits[-1].data
    b = N.model_forward(x, loaded, cfg).logits[-1].data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("arch,pattern", [
    ("utrans", "local"), ("utrans", "full"), ("utrans", "logsparse"), ("standard", "local"),
])
def test_the_current_layout_gives_the_parent_layouts_logits(arch, pattern, tmp_path):
    """The layout with no K bias and no ``ffn2.b`` computes what the layout
    with them did: in f64, with every bias, norm gain and RPE table drawn
    away from its initial value and the two cancelled biases drawn too, the
    library's logits lie within 1e-12 of the composed model's on the parent
    layout. A checkpoint written in the parent layout loads with exactly
    those entries dropped and predicts the composed model's labels."""
    cfg = tiny_cfg(
        architecture=arch, attention=pattern, window=5,
        pe_mode="relative" if pattern == "local" else "none",
    )
    params = build(cfg, seed=3)
    rng = np.random.default_rng(31)
    for name, p in params.items():
        if name.endswith(".b") or ".norm" in name or "rpe" in name:
            p.data += rng.uniform(-0.5, 0.5, p.data.shape)
    old = parent_layout(params, rng)
    x = rng.standard_normal((24, cfg.input_dim))
    want = model_composed(x, old, cfg)
    got = N.model_forward(x, params, cfg).logits
    for stage_got, stage_want in zip(got, want, strict=True):
        np.testing.assert_allclose(stage_got.data, stage_want.data, rtol=0, atol=1e-12)

    path = tmp_path / "parent.ckpt"
    N.save_checkpoint(path, old, cfg)
    _, entries = N.read_manifest(path)
    loaded, loaded_cfg = N.load_checkpoint(path)
    assert loaded_cfg == cfg and list(loaded) == list(params)
    dropped = {name for name, *_ in entries} - set(loaded) - {"meta.config"}
    assert dropped == {name for name in old if name.endswith(".ffn2.b")}
    for name, p in loaded.items():
        assert p.data.tobytes() == params[name].data.tobytes(), name
    labels = N.final_prediction(N.model_forward(x, loaded, loaded_cfg))
    np.testing.assert_array_equal(labels, np.argmax(want[-1].data, axis=1))


@pytest.mark.parametrize("name,shape", [
    ("stage0.enc1.qkv.b", (8,)), ("stage0.enc1.qkv.b", (12,)), ("stage1.dec2.ffn2.b", (4,)),
])
def test_a_checkpoint_bias_of_another_shape_raises_naming_it(name, shape, tmp_path):
    """Only a parent-layout bias, as wide as its weight's columns, is
    dropped or cut; any other shape is refused, named."""
    cfg = tiny_cfg(dtype="f32")
    params = parent_layout(build(cfg))
    params[name] = T.Tensor(np.zeros(shape, dtype=np.float32))
    N.save_checkpoint(tmp_path / "bad.ckpt", params, cfg)
    with pytest.raises(CheckpointError, match=re.escape(f"unexpected tensor {name} {shape}")):
        N.load_checkpoint(tmp_path / "bad.ckpt")


# the config keys every checkpoint held before they were retired, at the
# values every run gave them: each FFN width is its stage's hidden width in
# OLD_CFG, whose two stage widths differ
OLD_CFG = dict(dtype="f32", hidden_dim=8, hidden_dim_refine=4)
OLD_CONFIG_KEYS = {"refine_input": "probs", "rpe_split_coders": False, "normalize": True,
                   "norm_eps": 1e-05, "pe_max_len": 4096, "ffn_dim": 8, "ffn_dim_refine": 4}


def _save_with_config_keys(path, params, cfg, monkeypatch, keys):
    """``save_checkpoint`` with ``keys`` added to the config JSON it writes."""
    with monkeypatch.context() as patch:
        patch.setattr(N, "asdict", lambda c: {**dataclasses.asdict(c), **keys})
        N.save_checkpoint(path, params, cfg)


def test_checkpoint_with_retired_keys_at_their_values_loads(tmp_path, monkeypatch):
    cfg = tiny_cfg(**OLD_CFG)
    params = build(cfg, seed=21)
    path = tmp_path / "old.ckpt"
    _save_with_config_keys(path, params, cfg, monkeypatch, OLD_CONFIG_KEYS)
    config, _ = N.read_manifest(path)
    assert {key: config[key] for key in OLD_CONFIG_KEYS} == OLD_CONFIG_KEYS
    loaded, loaded_cfg = N.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert not set(OLD_CONFIG_KEYS) & set(dataclasses.asdict(loaded_cfg))
    assert list(loaded) == list(params)
    for name, param in params.items():
        assert loaded[name].data.tobytes() == param.data.tobytes(), name


@pytest.mark.parametrize("key,value", [("normalize", False), ("refine_input", "logits"),
                                       ("rpe_split_coders", True), ("norm_eps", 1e-6),
                                       ("pe_max_len", 8), ("ffn_dim", 4), ("ffn_dim_refine", 8)])
def test_checkpoint_with_retired_key_at_another_value_raises(key, value, tmp_path, monkeypatch):
    cfg = tiny_cfg(**OLD_CFG)
    path = tmp_path / "old.ckpt"
    keys = {**OLD_CONFIG_KEYS, key: value}
    _save_with_config_keys(path, build(cfg), cfg, monkeypatch, keys)
    with pytest.raises(CheckpointError, match=re.escape(str(path))) as exc:
        N.load_checkpoint(path)
    assert repr(key) in str(exc.value)


def test_checkpoint_with_unknown_config_key_raises(tmp_path, monkeypatch):
    cfg = tiny_cfg(dtype="f32")
    path = tmp_path / "odd.ckpt"
    _save_with_config_keys(path, build(cfg), cfg, monkeypatch, {"layerz": 3})
    with pytest.raises(CheckpointError, match="invalid model config.*'layerz'"):
        N.load_checkpoint(path)


@pytest.mark.parametrize("key", ["hidden_dim", "hidden_dim_refine"])
def test_checkpoint_with_a_size_below_one_raises(key, tmp_path, monkeypatch):
    cfg = tiny_cfg(dtype="f32")
    path = tmp_path / "zero.ckpt"
    _save_with_config_keys(path, build(cfg), cfg, monkeypatch, {key: 0})
    with pytest.raises(CheckpointError, match=f"{key} must be >= 1"):
        N.load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = tiny_cfg(dtype="f32")
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    N.save_checkpoint(a, build(cfg, seed=33), cfg)
    N.save_checkpoint(b, build(cfg, seed=33), cfg)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("source", ["init", "arena", "loaded"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_checkpoint_writer_matches_the_copying_writer(source, dtype, tmp_path):
    """Writing each payload from its array's buffer lays out the bytes the
    copying writer did, whether the parameters are fresh arrays, views of
    Adam's arena or views of a loaded file's buffer."""
    cfg = tiny_cfg(dtype=dtype, pe_mode="learnable", hidden_dim_refine=4)
    params = build(cfg, seed=3)
    if source == "arena":
        arena = T.AdamState(params).flat
        assert all(p.data.base is arena for p in params.values())
    elif source == "loaded":
        save_checkpoint_copying(tmp_path / "first.ckpt", params, cfg)
        params, _ = N.load_checkpoint(tmp_path / "first.ckpt")
    N.save_checkpoint(tmp_path / "new.ckpt", params, cfg)
    save_checkpoint_copying(tmp_path / "old.ckpt", params, cfg)
    assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()


def test_parameter_names_follow_checkpoint_layout():
    cfg = tiny_cfg(layers=1, refinement_stages=1, rpe_share="none")
    names = set(N.param_shapes(cfg))
    for s in (0, 1):
        assert f"stage{s}.proj.w" in names and f"stage{s}.proj.b" in names
        assert f"stage{s}.cls.w" in names and f"stage{s}.cls.b" in names
        for coder in ("enc", "dec"):
            for leaf in ("qkv.w", "qkv.b", "norm1.w", "norm1.b", "ffn1.w", "ffn1.b",
                         "ffn2.w", "norm2.w", "norm2.b", "rpe.w"):
                assert f"stage{s}.{coder}1.{leaf}" in names
            assert f"stage{s}.{coder}1.ffn2.b" not in names
    assert len(names) == 2 * (4 + 2 * 10)


def test_refinement_stage_reads_previous_probabilities():
    x = np.random.default_rng(20).standard_normal((16, 4))
    cfg = tiny_cfg(refinement_stages=1)
    params = build(cfg, seed=8)
    out = N.model_forward(x, params, cfg)
    logits, _ = N.stage_forward(T.softmax_lastdim(out.logits[0]), params, cfg, stage=1)
    np.testing.assert_array_equal(out.logits[1].data, logits.data)
    fed_logits, _ = N.stage_forward(out.logits[0], params, cfg, stage=1)
    assert not np.allclose(out.logits[1].data, fed_logits.data)


@pytest.mark.parametrize("stages", [1, 2, 4])
@pytest.mark.parametrize("graph", [True, False])
def test_only_a_stage_that_feeds_another_takes_a_softmax(stages, graph, monkeypatch):
    cfg = tiny_cfg(refinement_stages=stages - 1)
    params = build(cfg)
    calls = []
    real = T.softmax_lastdim

    def softmax_lastdim(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(T, "softmax_lastdim", softmax_lastdim)
    x = np.random.default_rng(4).standard_normal((16, 4))
    if graph:
        N.model_forward(x, params, cfg)
    else:
        with T.no_grad():
            N.model_forward(x, params, cfg)
    assert len(calls) == stages - 1


# kept rows, in blocks of 64: fewer than one block, one block, 1-3 rows past
# a block boundary (a tail that joins the block before it), a tail of half a
# block (a block of its own) and one a row short of that
ROW_SOURCE_FRAMES = [40, 64, 65, 66, 67, 2 * 64 + 32, 3 * 64 + 31]


def _row_source_forwards(tmp_path, cfg, frames, stride, seed=9):
    """The forward-only logits of ``frames`` kept rows at ``stride``, over
    the whole strided array and over a ``VideoSample`` that reads its file."""
    params = build(cfg, seed=seed)
    rng = np.random.default_rng([frames, stride, cfg.input_dim])
    for p in params.values():  # no zero encoding table or bias: every term counts
        p.data += rng.uniform(-0.5, 0.5, p.data.shape)
    t = (frames - 1) * stride + 1  # the last kept row is the file's last row
    features = rng.standard_normal((t, cfg.input_dim)).astype(np.float32)
    path = tmp_path / "x.feat"
    D.write_features(path, features)
    labels = np.zeros(frames, dtype=np.int64)
    source = D.VideoSample("x", None, labels, stride=stride, path=path,
                           file_shape=(t, cfg.input_dim))
    assert source.shape == (frames, cfg.input_dim)
    with T.no_grad():
        whole = N.model_forward(features[::stride], params, cfg)
        blocks = N.model_forward(source, params, cfg)
    return whole.logits, blocks.logits


@pytest.mark.parametrize("frames", ROW_SOURCE_FRAMES)
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("pe_mode", N.PE_MODES)
def test_row_source_forward_is_byte_equal_to_the_whole_array(
    tmp_path, monkeypatch, pe_mode, dtype, stride, frames
):
    """A forward-only pass over a file-backed ``VideoSample``, which stage 0
    projects block by block, gives every stage's logits byte for byte as the
    pass over the whole strided array."""
    cfg = tiny_cfg(input_dim=24, pe_mode=pe_mode, dtype=dtype)
    monkeypatch.setattr(N, "BLOCK_MACS", 64 * 24 * 8)  # blocks of 64 rows
    whole, blocks = _row_source_forwards(tmp_path, cfg, frames, stride)
    assert len(blocks) == cfg.num_stages
    for got, want in zip(blocks, whole):
        assert got.data.dtype == want.data.dtype == cfg.np_dtype
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("input_dim,hidden,frames", [(512, 8, 1100), (2048, 32, 1100)])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_row_source_blocks_are_byte_equal_at_wide_inputs(
    tmp_path, input_dim, hidden, frames, dtype
):
    """At the block size the model picks, wide inputs too: a thin
    projection (512 x 8) takes a block of the whole video, where blocks of
    128 rows would each be a product small enough for another BLAS kernel."""
    cfg = tiny_cfg(input_dim=input_dim, hidden_dim=hidden, hidden_dim_refine=8, dtype=dtype)
    whole, blocks = _row_source_forwards(tmp_path, cfg, frames, stride=2)
    for got, want in zip(blocks, whole):
        assert got.data.tobytes() == want.data.tobytes()


def test_a_row_source_needs_no_grad_and_the_model_width(tmp_path):
    """Training keeps the whole array, since the projection's backward reads
    it; and a source of another width is refused before it is read."""
    cfg = tiny_cfg()
    params = build(cfg)
    path = tmp_path / "x.feat"
    D.write_features(path, np.zeros((16, 5), dtype=np.float32))
    source = D.VideoSample("x", None, np.zeros(16, dtype=np.int64), path=path,
                           file_shape=(16, 5))
    with pytest.raises(TypeError, match="no_grad"):
        N.model_forward(source, params, cfg)
    with T.no_grad(), pytest.raises(ShapeError, match=re.escape("(16, 5) x (4, 8)")):
        N.model_forward(source, params, cfg)


def test_large_shape_contract():
    # M=3 refinement stages on a long sequence: four logit tensors, T x C
    cfg = tiny_cfg(
        layers=5, refinement_stages=3, window=5, num_classes=17, input_dim=8,
        hidden_dim=8, hidden_dim_refine=8, dtype="f32",
    )
    params = build(cfg)
    out = N.model_forward(np.random.default_rng(21).standard_normal((512, 8)), params, cfg)
    assert len(out.logits) == 4
    assert all(lg.data.shape == (512, 17) for lg in out.logits)
    for logits in out.logits[:-1]:  # refinement inputs are probability rows
        np.testing.assert_allclose(T.softmax_lastdim(logits).data.sum(axis=1), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# damaged checkpoints fail with CheckpointError naming the file


def _saved_checkpoint(path):
    cfg = tiny_cfg(dtype="f32")
    params = build(cfg, seed=5)
    N.save_checkpoint(path, params, cfg)
    return params


@pytest.mark.parametrize("keep", [10, 40, 200, 5000, -100])
def test_truncated_checkpoint_raises_checkpoint_error(tmp_path, keep):
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path)
    raw = path.read_bytes()
    assert len(raw) > 5000
    path.write_bytes(raw[:keep])
    for reader in (N.read_manifest, N.load_checkpoint):
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            reader(path)


def test_unknown_dtype_code_and_bad_config_raise_checkpoint_error(tmp_path):
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path)
    raw = path.read_bytes()
    _, entries = N.read_manifest(path)
    name = entries[0][0].encode()
    code_at = raw.index(name) + len(name)  # the entry's dtype code follows its name
    path.write_bytes(raw[:code_at] + b"\x09" + raw[code_at + 1 :])
    with pytest.raises(CheckpointError, match="dtype"):
        N.read_manifest(path)
    config_at = entries[0][3]
    path.write_bytes(raw[:config_at] + b"\xff" + raw[config_at + 1 :])
    with pytest.raises(CheckpointError, match="config"):
        N.read_manifest(path)


@pytest.mark.parametrize("name", ["stage0.cls.b", "meta.config"])
def test_a_checkpoint_that_names_an_entry_twice_raises_naming_it(name, tmp_path):
    """A second copy of a tensor would silently replace the first, and a
    second config would be ignored: both are refused, naming the entry."""
    path = tmp_path / "model.ckpt"
    cfg = tiny_cfg(dtype="f32")
    params = build(cfg, seed=5)
    if name == "meta.config":
        blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
        second = T.Tensor(np.frombuffer(blob, dtype=np.uint8))
    else:
        second = T.Tensor(np.full_like(params[name].data, 5.0))
    pairs = [*params.items(), (name, second)]  # save_checkpoint reads only params.items()
    N.save_checkpoint(path, SimpleNamespace(items=lambda: pairs), cfg)
    message = f"{path}: entry {name} is listed twice"
    for reader in (N.read_manifest, N.load_checkpoint):
        with pytest.raises(CheckpointError, match=re.escape(message)):
            reader(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_a_checkpoint_holding_a_non_finite_value_raises_naming_the_tensor(value, dtype, tmp_path):
    """A NaN or an infinity in a weight is refused at load, naming the file
    and the tensor, where it used to reach the forward pass and be blamed on
    the features; the first, a middle and the last tensor are each found."""
    cfg = tiny_cfg(dtype=dtype)
    params = build(cfg, seed=5)
    names = list(params)
    for name, at in ((names[0], 0), (names[len(names) // 2], -1), (names[-1], 1)):
        data = params[name].data.copy()
        data.reshape(-1)[at] = value
        damaged = {**params, name: T.Tensor(data)}
        path = tmp_path / f"{name}.ckpt"
        N.save_checkpoint(path, damaged, cfg)
        message = f"{path}: tensor {name} holds {value}"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            N.load_checkpoint(path)
        N.read_manifest(path)  # the manifest reader does not read values


class _CountedReads:
    """A file whose read and readinto calls are appended to ``calls``."""

    def __init__(self, fh, calls):
        self.fh, self.calls = fh, calls

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        attr = getattr(self.fh, name)
        if name not in ("read", "readinto"):
            return attr

        def counted(*args):
            self.calls.append(name)
            return attr(*args)

        return counted


def test_load_checkpoint_reads_the_file_once(tmp_path, monkeypatch):
    """One open; the manifest comes from one read and the payloads from one
    readinto, where parsing field by field made about five reads per entry."""
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path)
    opened, reads = [], []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return _CountedReads(open(*args, **kwargs), reads)

    monkeypatch.setattr(N, "open", counting_open, raising=False)
    N.load_checkpoint(path)
    assert len(opened) == 1
    assert reads == ["read", "readinto"]


def test_a_manifest_longer_than_one_read_loads_the_same(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    params = _saved_checkpoint(path)
    monkeypatch.setattr(N, "_MANIFEST_READ", 16)  # the magic, then a read per few fields
    loaded, _ = N.load_checkpoint(path)
    assert set(loaded) == set(params)
    for name, p in params.items():
        assert loaded[name].data.tobytes() == p.data.tobytes()
    for keep in (30, 300):  # a cut inside the manifest still names the file
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: manifest truncated")):
            N.load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_loaded_parameters_are_aligned_views_of_one_buffer(tmp_path, dtype):
    """input_dropout = 0.5^k is k + 2 bytes long in the config, so the first
    tensor payload sits at every file offset residue mod 8."""
    residues = set()
    for k in range(1, 9):
        cfg = tiny_cfg(dtype=dtype, input_dropout=0.5**k)
        params = build(cfg, seed=k)
        path = tmp_path / f"model{k}.ckpt"
        N.save_checkpoint(path, params, cfg)
        _, entries = N.read_manifest(path)
        residues.add(entries[1][3] % 8)
        loaded, _ = N.load_checkpoint(path)
        first = next(iter(loaded.values())).data
        buffer = first.base
        assert buffer is not None and buffer.dtype == np.uint8
        assert first.__array_interface__["data"][0] % 64 == 0
        for name, p in params.items():
            data = loaded[name].data
            assert data.base is buffer and data.flags.c_contiguous and data.flags.aligned
            assert data.__array_interface__["data"][0] % data.itemsize == 0
            assert data.dtype == p.data.dtype and data.tobytes() == p.data.tobytes()
    assert residues == set(range(8))


def test_load_checkpoint_holds_the_payload_once(tmp_path):
    cfg = tiny_cfg(dtype="f32", hidden_dim=64, hidden_dim_refine=64)
    path = tmp_path / "model.ckpt"
    N.save_checkpoint(path, build(cfg), cfg)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        N.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 400_000
    assert peak < size + 100_000  # the file's bytes and nothing of their size besides


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_checkpoint_loads_identically_or_raises(tmp_path, data):
    """A truncation anywhere, or a byte flip anywhere the reader parses (magic,
    manifest and config), loads the same tensors or raises CheckpointError.
    Tensor payloads carry no checksum, so flips inside them are not drawn."""
    path = tmp_path / "model.ckpt"
    params = _saved_checkpoint(path)
    raw = path.read_bytes()
    _, entries = N.read_manifest(path)
    parsed_end = min(offset for name, _, _, offset in entries if name != "meta.config")
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        at = data.draw(st.integers(0, parsed_end - 1), label="at")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path.write_bytes(damaged)
    try:
        loaded, _ = N.load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
        return
    assert len(damaged) == len(raw)
    assert set(loaded) == set(params)
    for name, p in params.items():
        assert loaded[name].data.dtype == p.data.dtype
        np.testing.assert_array_equal(loaded[name].data, p.data)
