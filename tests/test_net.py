import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import numeric_grad, rel_err
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
        ffn_dim=8,
        ffn_dim_refine=8,
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
    """Patch ``net.attend`` to also append each call's AttentionRecord to the
    returned list, in call order."""
    records = []
    real = N.attend

    def attend(*args, **kwargs):
        out, record = real(*args, **kwargs)
        records.append(record)
        return out, record

    monkeypatch.setattr(N, "attend", attend)
    return records


def test_downsample_examples():
    x = T.tensor(np.arange(8.0).reshape(4, 2))
    np.testing.assert_allclose(N.downsample_nearest(x).data, x.data[[0, 2]])
    x3 = T.tensor(np.arange(6.0).reshape(3, 2))
    np.testing.assert_allclose(N.downsample_nearest(x3).data, x3.data[[0, 2]])
    with pytest.raises(ShapeError):
        N.downsample_nearest(T.tensor(np.zeros((0, 2))))


def test_upsample_examples_and_roundtrip():
    x = T.tensor(np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(N.upsample_nearest(x, 4).data[:, 0], [1, 1, 2, 2])
    np.testing.assert_allclose(N.upsample_nearest(x, 3).data[:, 0], [1, 1, 2])
    with pytest.raises(ShapeError):
        N.upsample_nearest(x, 6)
    src = T.tensor(np.random.default_rng(0).standard_normal((5, 3)))
    round_trip = N.upsample_nearest(N.downsample_nearest(src), 5)
    np.testing.assert_allclose(round_trip.data[[0, 1]], np.tile(src.data[0], (2, 1)))
    np.testing.assert_allclose(round_trip.data[[2, 3]], np.tile(src.data[2], (2, 1)))


def test_upsample_gradient_counts():
    x0 = np.random.default_rng(1).standard_normal((3, 2))

    def f(xv):
        return float(xv[np.arange(5) // 2].sum())

    tx = T.tensor(x0, requires_grad=True)
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
    for leaf in ("qkv.w", "qkv.b", "ffn1.w", "ffn1.b", "ffn2.w", "ffn2.b"):
        params[f"{prefix}.{leaf}"].data[...] = 0.0
    rng = np.random.default_rng(2)
    h = T.tensor(rng.standard_normal((10, 8)))
    out, record = N.encoder_layer(h, params, cfg, stage=0, layer=1)
    assert record.query_len == 5
    down = N.downsample_nearest(h)
    normed = T.instance_norm_temporal(
        down, T.tensor(np.ones(8)), T.tensor(np.zeros(8)), cfg.norm_eps
    )
    np.testing.assert_allclose(out.data, normed.data, atol=1e-4)


def test_decoder_constant_kv_is_convex_combination():
    cfg = tiny_cfg(refinement_stages=0, normalize=False, pe_mode="none")
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
    params[f"{prefix}.ffn2.b"].data[...] = 0.0
    rng = np.random.default_rng(3)
    const_row = rng.standard_normal(hidden)
    peer = T.tensor(np.tile(const_row, (6, 1)))
    h_prev = T.tensor(rng.standard_normal((3, hidden)))
    out, record = N.decoder_layer(h_prev, peer, params, cfg, stage=0, layer=1)
    h1 = N.upsample_nearest(h_prev, 6)
    np.testing.assert_allclose(out.data - h1.data, np.tile(const_row, (6, 1)), atol=1e-10)
    assert record.layout.key_len == 6


def test_decoder_peer_pairing_lengths(monkeypatch):
    cfg = tiny_cfg(layers=5, refinement_stages=0, input_dim=4, window=3)
    params = build(cfg)
    x = np.random.default_rng(4).standard_normal((64, 4))
    records = record_every_attend(monkeypatch)
    out = N.model_forward(x, params, cfg)
    # encoder layers attend after halving 64 -> 32,...,2; decoder
    # cross-attention walks back up 4,...,64 with the last peer = stage input
    lengths = [(r.probs.data.shape[0], r.layout.key_len) for r in records]
    assert lengths[:5] == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]
    assert lengths[5:] == [(4, 4), (8, 8), (16, 16), (32, 32), (64, 64)]
    assert out.records[0][0] is records[0] and out.records[0][1] is records[-1]
    assert out.logits[0].data.shape == (64, 3)


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
    for probs in out.probs:
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
    assert out.records[0][0].query_len == 9


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
    tiny_cfg(**{key: 0.99}).validate()
    with pytest.raises(ConfigError, match=key):
        tiny_cfg(**{key: rate}).validate()


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

    cfg = tiny_cfg(rpe_share="scale", rpe_split_coders=True, layers=2, refinement_stages=0)
    names = sorted(n for n in N.param_shapes(cfg) if "rpe" in n)
    assert names == [
        "rpe.dec.scale0.w",
        "rpe.dec.scale1.w",
        "rpe.enc.scale1.w",
        "rpe.enc.scale2.w",
    ]


def test_positional_modes_forward():
    x = np.random.default_rng(10).standard_normal((12, 4))
    for mode in ("none", "sinusoidal", "learnable"):
        cfg = tiny_cfg(pe_mode=mode, refinement_stages=0)
        out = N.model_forward(x, build(cfg), cfg)
        assert out.logits[0].data.shape == (12, 3)
    cfg = tiny_cfg(pe_mode="learnable", pe_max_len=8, refinement_stages=0)
    with pytest.raises(ConfigError):
        N.model_forward(x, build(cfg), cfg)


def test_memory_accounting_matches_forward(monkeypatch):
    records = record_every_attend(monkeypatch)
    for arch in ("utrans", "standard"):
        for pattern in ("local", "full", "logsparse"):
            cfg = tiny_cfg(
                architecture=arch, attention=pattern, pe_mode="none",
                layers=3, refinement_stages=1, window=5,
            )
            params = build(cfg)
            t = 41
            records.clear()
            N.model_forward(np.random.default_rng(11).standard_normal((t, 4)), params, cfg)
            assert len(records) == 2 * cfg.layers * cfg.num_stages
            entries = sum(r.probs.data.size for r in records)
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


def test_receptive_field_probe():
    # the U-shaped arm spreads a frame-0 perturbation far beyond the window;
    # one standard layer stays inside it (norms off so the Jacobian support
    # reflects attention reach alone)
    t, d = 64, 4
    x = np.random.default_rng(12).standard_normal((t, d))

    def influence(cfg, params):
        base = N.model_forward(x, params, cfg).logits[0].data
        bumped = x.copy()
        bumped[0] += 1.0
        moved = N.model_forward(bumped, params, cfg).logits[0].data
        return np.abs(moved - base).max(axis=1)

    cfg_u = tiny_cfg(
        layers=3, refinement_stages=0, window=3, normalize=False, pe_mode="none"
    )
    delta = influence(cfg_u, build(cfg_u, seed=3))
    assert np.nonzero(delta)[0].max() >= 12

    cfg_s = tiny_cfg(
        architecture="standard", layers=1, refinement_stages=0, window=3,
        normalize=False, pe_mode="none",
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


def test_checkpoint_config_mismatch(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    N.save_checkpoint(path, build(cfg), cfg)
    other = tiny_cfg(window=5)
    with pytest.raises(CheckpointError):
        N.load_checkpoint(path, expected_cfg=other)
    with pytest.raises(CheckpointError):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        N.load_checkpoint(bad)


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = tiny_cfg(dtype="f32")
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    N.save_checkpoint(a, build(cfg, seed=33), cfg)
    N.save_checkpoint(b, build(cfg, seed=33), cfg)
    assert a.read_bytes() == b.read_bytes()


def test_parameter_names_follow_checkpoint_layout():
    cfg = tiny_cfg(layers=1, refinement_stages=1, rpe_share="none")
    names = set(N.param_shapes(cfg))
    for s in (0, 1):
        assert f"stage{s}.proj.w" in names and f"stage{s}.proj.b" in names
        assert f"stage{s}.cls.w" in names and f"stage{s}.cls.b" in names
        for coder in ("enc", "dec"):
            for leaf in ("qkv.w", "qkv.b", "norm1.w", "norm1.b", "ffn1.w", "ffn1.b",
                         "ffn2.w", "ffn2.b", "norm2.w", "norm2.b", "rpe.w"):
                assert f"stage{s}.{coder}1.{leaf}" in names
    assert len(names) == 2 * (4 + 2 * 11)


def test_refine_input_logits_switch():
    x = np.random.default_rng(20).standard_normal((16, 4))
    cfg_probs = tiny_cfg(refinement_stages=1)
    params = build(cfg_probs, seed=8)
    out_probs = N.model_forward(x, params, cfg_probs)
    import dataclasses

    cfg_logits = dataclasses.replace(cfg_probs, refine_input="logits")
    out_logits = N.model_forward(x, params, cfg_logits)
    # stage 0 identical, refinement differs once fed raw logits
    np.testing.assert_array_equal(out_probs.logits[0].data, out_logits.logits[0].data)
    assert not np.allclose(out_probs.logits[1].data, out_logits.logits[1].data)


def test_large_shape_contract():
    # M=3 refinement stages on a long sequence: four logit tensors, T x C
    cfg = tiny_cfg(
        layers=5, refinement_stages=3, window=5, num_classes=17, input_dim=8,
        hidden_dim=8, hidden_dim_refine=8, ffn_dim=8, ffn_dim_refine=8, dtype="f32",
    )
    params = build(cfg)
    out = N.model_forward(np.random.default_rng(21).standard_normal((512, 8)), params, cfg)
    assert len(out.logits) == 4
    assert all(lg.data.shape == (512, 17) for lg in out.logits)
    for probs in out.probs[:-1]:  # refinement inputs are probability rows
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-5)


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


def test_load_checkpoint_reads_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(N, "open", counting_open, raising=False)
    N.load_checkpoint(path)
    assert len(opened) == 1


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_loaded_parameters_are_aligned_views_of_one_buffer(tmp_path, dtype):
    """pe_max_len = 10^k lengthens the config by one byte per k, so the first
    tensor payload sits at every file offset residue mod 8."""
    residues = set()
    for k in range(1, 9):
        cfg = tiny_cfg(dtype=dtype, pe_max_len=10**k)
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
    cfg = tiny_cfg(dtype="f32", hidden_dim=64, hidden_dim_refine=64, ffn_dim=64, ffn_dim_refine=64)
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
