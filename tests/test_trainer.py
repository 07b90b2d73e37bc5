import csv
import dataclasses
import gc
import io
import re
import shutil
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    LoopAdamState,
    adam_loop,
    add_then_norm,
    backward_keep_graph,
    boundary_alignment,
    dropout_uniform,
    norm_out_of_place,
    resample_temporal,
    slot_mix_per_call,
    slot_softmax_per_call,
)
from tut import data as D
from tut import losses as L
from tut import net as N
from tut import tensor as T
from tut import trainer as TR
from tut.config import PRESETS, SECTIONS, DataConfig, build_configs, field_table, format_config
from tut.errors import ConfigError, DatasetError, TrainingDiverged
from tut.losses import BA_DISTANCES
from tut.tensor import AdamState


def tiny_model(**kw):
    base = dict(
        input_dim=8,
        num_classes=3,
        layers=2,
        refinement_stages=1,
        window=5,
        heads=2,
        hidden_dim=16,
        hidden_dim_refine=16,
        input_dropout=0.1,
        ffn_dropout=0.1,
        attention_dropout=0.0,
    )
    base.update(kw)
    return N.ModelConfig(**base)


def tiny_dataset(videos=3, seed=0, noise=0.15):
    spec = D.SynthSpec(
        num_classes=3, num_videos=videos, min_len=32, max_len=48,
        feature_dim=8, noise=noise, seed=seed,
    )
    return D.generate_synthetic(spec)


def count_calls(monkeypatch, *names) -> dict[str, int]:
    """Patch each named ``trainer`` function to count its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, real=getattr(TR, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(TR, name, counted)
    return counts


def test_lr_rule_scripted_trace():
    state = TR.TrainState(lr=1.0)
    # increases at epochs 3, 5, 7 -> halve after epoch 7, counter resets
    trace = [5.0, 4.0, 4.5, 3.0, 3.5, 2.0, 2.5, 1.0]
    lrs = []
    for loss in trace:
        TR.apply_lr_rule(state, loss)
        lrs.append(state.lr)
        assert 0 <= state.increase_count < 3
    assert lrs == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5]
    # lr never increases
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_train_loss_trends_down():
    samples, mapping = tiny_dataset(noise=0.0)
    cfg = tiny_model()
    result = TR.train(samples, cfg, TR.TrainConfig(epochs=20, lr=1e-3, seed=4))
    assert result.log_rows[19]["total"] < result.log_rows[0]["total"]
    assert len(result.log_rows) == 20


def test_train_deterministic_bytes(tmp_path):
    samples, _ = tiny_dataset()
    cfg = tiny_model()

    def run(path):
        result = TR.train(samples, cfg, TR.TrainConfig(epochs=2, lr=1e-3, seed=9))
        N.save_checkpoint(path, result.params, cfg)
        return TR.log_csv(result.log_rows)

    log_a = run(tmp_path / "a.ckpt")
    log_b = run(tmp_path / "b.ckpt")
    assert log_a == log_b
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_roundtrip_same_report(tmp_path):
    samples, _ = tiny_dataset()
    cfg = tiny_model()
    result = TR.train(samples, cfg, TR.TrainConfig(epochs=3, lr=1e-3, seed=2))
    direct, _ = TR.evaluate_model(result.params, cfg, samples)
    path = tmp_path / "m.ckpt"
    N.save_checkpoint(path, result.params, cfg)
    loaded, _ = TR.evaluate_model(*N.load_checkpoint(path), samples)
    assert direct.acc == loaded.acc
    assert direct.edit == loaded.edit
    assert direct.f1 == loaded.f1
    assert set(loaded.f1) == {0.1, 0.25, 0.5}


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_predict_without_graph_matches_graph_forward(dtype):
    samples, _ = tiny_dataset(videos=1)
    cfg = tiny_model(dtype=dtype)
    params = N.init_params(cfg, T.SeedStreams(5))
    features = samples[0].features
    with_graph = N.model_forward(features, params, cfg, train=False)
    assert with_graph.logits[-1]._parents  # the reference forward does build a graph
    with T.no_grad():
        bare = N.model_forward(features, params, cfg, train=False)
    # without a graph there is no loss to read the attention records
    assert all(r is not None for pair in with_graph.records for r in pair)
    assert bare.records == [(None, None)] * cfg.num_stages
    assert len(bare.logits) == cfg.num_stages
    graph_probs = [T.softmax_lastdim(logits) for logits in with_graph.logits]
    with T.no_grad():
        bare_probs = [T.softmax_lastdim(logits) for logits in bare.logits]
    for ref, out in zip(with_graph.logits + graph_probs, bare.logits + bare_probs):
        assert out.data.dtype == cfg.np_dtype
        assert out.data.tobytes() == ref.data.tobytes()
        assert not out.requires_grad and out._parents == ()
    labels = TR.predict_sample(params, cfg, samples[0])
    assert labels.tobytes() == N.final_prediction(with_graph).tobytes()


def test_eval_during_training_leaves_training_unchanged():
    samples, _ = tiny_dataset(videos=2)
    cfg = tiny_model()
    plain = TR.train(samples, cfg, TR.TrainConfig(epochs=3, lr=1e-3, seed=14))
    watched = TR.train(
        samples, cfg, TR.TrainConfig(epochs=3, lr=1e-3, seed=14, eval_every=1)
    )
    assert watched.best_epoch is not None
    assert TR.log_csv(watched.log_rows) == TR.log_csv(plain.log_rows)
    for name, p in plain.params.items():
        assert watched.params[name].data.tobytes() == p.data.tobytes()


def test_checkpoint_every_writes_rolling_checkpoints(tmp_path):
    samples, _ = tiny_dataset(videos=2)
    cfg = tiny_model()
    result = TR.train(
        samples, cfg, TR.TrainConfig(epochs=4, lr=1e-3, seed=15, checkpoint_every=2),
        checkpoint_dir=tmp_path,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch0002.ckpt", "epoch0004.ckpt"]
    loaded, loaded_cfg = N.load_checkpoint(tmp_path / "epoch0004.ckpt")
    assert loaded_cfg == cfg
    assert set(loaded) == set(result.params)
    for name, p in result.params.items():
        assert loaded[name].data.dtype == p.data.dtype
        assert loaded[name].data.tobytes() == p.data.tobytes()


def test_predict_recovers_labels_after_overfit():
    samples, _ = tiny_dataset(videos=1, noise=0.0)
    cfg = tiny_model(refinement_stages=0, input_dropout=0.0, ffn_dropout=0.0)
    result = TR.train(
        samples, cfg, TR.TrainConfig(epochs=80, lr=3e-3, smooth_weight=0.0, seed=3)
    )
    from tut.losses import ce_loss
    from tut.net import model_forward

    out = model_forward(samples[0].features, result.params, cfg)
    assert float(ce_loss(out.logits[-1], samples[0].labels).data) < 0.05
    pred = TR.predict_sample(result.params, cfg, samples[0])
    np.testing.assert_array_equal(pred, samples[0].labels)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_training_divergence_names_video():
    samples, _ = tiny_dataset(videos=2)
    cfg = tiny_model()
    with pytest.raises(TrainingDiverged, match="synth00"):
        TR.train(samples, cfg, TR.TrainConfig(epochs=12, lr=1e6, seed=1))


def test_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        TR.train([], tiny_model(), TR.TrainConfig(seed=0))


def test_predict_upsamples_to_source_rate():
    samples, _ = tiny_dataset(videos=1)
    half = resample_temporal(samples[0], 2)
    cfg = tiny_model()
    result = TR.train([half], cfg, TR.TrainConfig(epochs=1, lr=1e-3, seed=5))
    up = TR.restore_source_rate(TR.predict_sample(result.params, cfg, half), half)
    assert up.shape[0] == samples[0].num_frames


def test_upsample_uses_the_load_stride(monkeypatch):
    # 10 source frames at stride 4 keep frames 0, 4, 8; the length ratio
    # rounds to 3, but each prediction must cover 4 source frames
    source = D.VideoSample("v", np.zeros((10, 8), dtype=np.float32), np.zeros(10, dtype=int))
    strided = resample_temporal(source, 4)
    assert strided.num_frames == 3
    monkeypatch.setattr(TR, "final_prediction", lambda outputs: np.array([0, 1, 2]))
    cfg = tiny_model(layers=1, refinement_stages=0)
    params = N.init_params(cfg, T.SeedStreams(0))
    up = TR.restore_source_rate(TR.predict_sample(params, cfg, strided), strided)
    np.testing.assert_array_equal(up, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2])


def test_boundary_alignment_probe():
    samples, _ = tiny_dataset()
    cfg = tiny_model()
    result = TR.train(samples, cfg, TR.TrainConfig(epochs=1, lr=1e-3, seed=6))
    value = boundary_alignment(result.params, cfg, samples)
    assert value is not None and value > 0


def test_segments_csv_format():
    csv_text = TR.segments_csv([0, 0, 1], D.ClassMapping(["a", "b"]))
    assert csv_text.splitlines() == ["class,start,end", "a,0,1", "b,2,2"]


def test_a_class_name_holding_a_comma_is_one_csv_field():
    """``segments/*.csv`` and ``metrics.csv`` are written by one CSV writer,
    so a class named ``pour,milk`` is quoted and every row reads as 3 fields."""
    csv_text = TR.segments_csv([0, 0, 1, 0], D.ClassMapping(["pour,milk", "b"]))
    assert list(csv.reader(io.StringIO(csv_text))) == [
        ["class", "start", "end"], ["pour,milk", "0", "1"], ["b", "2", "2"], ["pour,milk", "3", "3"]
    ]


def test_ablate_arch_attention_grid():
    samples, mapping = tiny_dataset(videos=2)
    cfg = tiny_model(pe_mode="none")
    train_cfg = TR.TrainConfig(epochs=1, lr=1e-3, seed=7)
    rows = TR.ablate("arch-attention", samples, cfg, train_cfg)
    assert len(rows) == 6
    assert {(r["architecture"], r["attention"]) for r in rows} == {
        (a, p) for a in ("utrans", "standard") for p in ("full", "local", "logsparse")
    }
    assert all(r["status"] == "ok" for r in rows)
    cell = {(r["architecture"], r["attention"]): r["entries"] for r in rows}
    assert cell[("utrans", "local")] < cell[("standard", "local")] < cell[("standard", "full")]
    csv_text = TR.ablate_csv(rows)
    assert csv_text.splitlines()[0].startswith("architecture,attention,")
    assert len(csv_text.strip().splitlines()) == 7


def test_ablate_pe_and_badistance_grids():
    samples, _ = tiny_dataset(videos=2)
    train_cfg = TR.TrainConfig(epochs=1, lr=1e-3, seed=8)
    pe_rows = TR.ablate("positional-encoding", samples, tiny_model(), train_cfg)
    assert len(pe_rows) == 6
    assert [r["pe_mode"] for r in pe_rows] == [
        "none", "sinusoidal", "learnable", "relative", "relative", "relative"
    ]
    assert [r["rpe_share"] for r in pe_rows[3:]] == ["none", "stage", "scale"]

    ba_rows = TR.ablate("ba-distance", samples, tiny_model(), train_cfg)
    assert len(ba_rows) == 4
    assert all(r["beta"] == 0.02 for r in ba_rows)
    assert all(r["status"] == "ok" for r in ba_rows)


def test_ablate_skips_unsupported_cell():
    samples, _ = tiny_dataset(videos=1)
    cfg = tiny_model(attention="logsparse", pe_mode="none")
    train_cfg = TR.TrainConfig(epochs=1, lr=1e-3, seed=9, boundary_weight=0.02)
    rows = TR.ablate("beta", samples, cfg, train_cfg, values=[0.0, 0.02])
    assert rows[0]["status"] == "ok"  # beta 0 trains fine
    assert rows[1]["status"].startswith("skipped")


def test_logsparse_with_boundary_loss_is_refused_whatever_the_video():
    """The boundary loss reads local windows, which logsparse attention has
    not. Training refuses the pair before it builds the model, even where no
    boundary frame has a full window (here w = 51 on 32-48 frames), and
    ablate skips the cell with that reason."""
    samples, _ = tiny_dataset(videos=1)
    cfg = tiny_model(attention="logsparse", pe_mode="none", window=51)
    train_cfg = TR.TrainConfig(epochs=1, lr=1e-3, seed=9, boundary_weight=0.02)
    with pytest.raises(ConfigError, match="boundary loss is undefined for the logsparse pattern"):
        TR.train(samples, cfg, train_cfg)
    row = TR.ablate("beta", samples, cfg, train_cfg, values=[0.02])[0]
    assert row["status"] == "skipped: boundary loss is undefined for the logsparse pattern"
    assert row["entries"] > 0


def test_ablate_skips_a_cell_the_boundary_loss_cannot_read_before_building_it(monkeypatch):
    """The two logsparse cells of a boundary-weighted arch-attention grid
    are skipped before their models are built or run: only the four cells
    that train build a model, and each runs 2 training and 2 eval forwards."""
    samples, _ = tiny_dataset(videos=2)
    calls = count_calls(monkeypatch, "init_params", "model_forward")
    train_cfg = TR.TrainConfig(epochs=1, boundary_weight=0.1)
    rows = TR.ablate("arch-attention", samples, tiny_model(pe_mode="none"), train_cfg)
    skipped = "skipped: boundary loss is undefined for the logsparse pattern"
    assert [r["status"] for r in rows] == ["ok", skipped, "ok"] * 2
    assert calls == {"init_params": 4, "model_forward": 16}


@pytest.mark.parametrize(
    "overrides,frames,message",
    [
        ({}, 3, "too many layers for sequence length: T=3 < 2^2"),
        ({"architecture": "standard"}, 0, "sequence length 0: the model needs at least 1 frame"),
        ({"pe_mode": "learnable"}, N.PE_MAX_LEN + 1,
         f"sequence length {N.PE_MAX_LEN + 1} exceeds the learnable encoding's {N.PE_MAX_LEN} rows"),
    ],
    ids=["utrans-short", "empty", "learnable-long"],
)
def test_a_video_the_model_cannot_take_is_named_before_any_work(
    monkeypatch, overrides, frames, message
):
    """``train`` checks every video's length before it builds the model, and
    ``predict_sample`` before its forward; each names the video (its id, for
    a held sample) and runs nothing."""
    samples, _ = tiny_dataset(videos=2)
    cfg = tiny_model(**overrides)
    odd = D.VideoSample("odd", np.zeros((frames, 8), np.float32), np.zeros(frames, int))
    params = N.init_params(cfg, T.SeedStreams(0))
    calls = count_calls(monkeypatch, "init_params", "model_forward")
    want = "^" + re.escape(f"odd: {message}") + "$"
    with pytest.raises(ConfigError, match=want):
        TR.train([*samples, odd], cfg, TR.TrainConfig(epochs=1))
    with pytest.raises(ConfigError, match=want):
        TR.predict_sample(params, cfg, odd)
    assert calls == {"init_params": 0, "model_forward": 0}


def test_ablate_cell_that_cannot_be_built_is_skipped_with_no_entry_count():
    """A grid value its config refuses skips that cell with the config's
    reason, and no entry count, since no model of it exists."""
    samples, _ = tiny_dataset(videos=1)
    train_cfg = TR.TrainConfig(epochs=1, lr=1e-3, seed=9)
    rows = TR.ablate("heads", samples, tiny_model(), train_cfg, values=[2, 3])
    assert rows[0]["status"] == "ok" and rows[0]["entries"] > 0
    assert rows[1]["status"] == "skipped: heads (3) must divide model dim (16)"
    assert (rows[1]["heads"], rows[1]["entries"], rows[1]["acc"]) == (3, "", "")
    beta = TR.ablate("beta", samples, tiny_model(), train_cfg, values=[float("nan")])[0]
    assert beta["status"].startswith("skipped: boundary_weight must be finite")
    assert beta["entries"] == ""


@pytest.mark.parametrize("cls,key,value", [
    (N.ModelConfig, "hidden_dim", 0), (N.ModelConfig, "input_dim", 0),
    (N.ModelConfig, "window", 4), (TR.TrainConfig, "lr", float("nan")),
    (TR.TrainConfig, "epochs", 0), (DataConfig, "sample_rate", 0),
])
def test_configs_check_themselves_when_built_and_are_frozen(cls, key, value):
    """An out-of-range value makes no config, built directly or through
    ``replace``, and a built config takes no assignment."""
    with pytest.raises(ConfigError, match=key):
        cls(**{key: value})
    with pytest.raises(ConfigError, match=key):
        replace(cls(), **{key: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cls(), key, value)


def test_predict_refuses_features_of_another_width(tmp_path):
    """The model reads ``input_dim`` features a frame; a sample of another
    width fails naming its file (or its id, when it holds its features)."""
    samples, mapping = tiny_dataset(videos=1)
    D.write_dataset(tmp_path, samples, mapping)
    loaded, _ = D.load_dataset(tmp_path, "splits/all.bundle")
    cfg = tiny_model(input_dim=6)
    params = N.init_params(cfg, T.SeedStreams(0))
    with pytest.raises(DatasetError) as exc:
        TR.predict_sample(params, cfg, loaded[0])
    assert str(exc.value) == f"{loaded[0].path}: features are 8 wide, the model takes 6"
    with pytest.raises(DatasetError, match="synth000: features are 8 wide, the model takes 6"):
        TR.predict_sample(params, cfg, samples[0])


def test_presets_match_documented_values():
    assert PRESETS["50salads"]["train"]["boundary_weight"] == 0.02
    assert PRESETS["gtea"]["train"]["boundary_weight"] == 0.1
    assert PRESETS["breakfast"]["train"]["boundary_weight"] == 0.005
    model, train, data = build_configs(preset="50salads")
    assert (model.window, model.layers, model.refinement_stages, model.heads) == (51, 5, 3, 4)
    assert (model.hidden_dim, model.hidden_dim_refine) == (128, 64)
    assert (train.lr, train.weight_decay) == (5e-4, 1e-5)
    assert train.smooth_weight == 0.15
    assert data.sample_rate == 2
    model, train, _ = build_configs(preset="gtea")
    assert (model.layers, model.window, model.hidden_dim, model.heads) == (4, 11, 64, 4)
    assert model.input_dropout == 0.5
    model, train, _ = build_configs(preset="breakfast")
    assert (model.window, model.hidden_dim, model.heads) == (25, 192, 6)
    assert train.lr == 2e-4 and train.weight_decay == 5e-5


def test_config_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[model]\nwindow = 7\nheads = 1\n\n[train]\nlr = 0.01\n\n[data]\nsample_rate = 2\n"
    )
    model, train, data = build_configs(
        preset="gtea", config_file=cfg_file, overrides={"heads": "2", "epochs": "5"}
    )
    assert model.window == 7  # file beats preset (11)
    assert model.heads == 2  # flag beats file (1)
    assert train.lr == 0.01 and train.epochs == 5
    assert data.sample_rate == 2
    with pytest.raises(ConfigError):
        build_configs(overrides={"not_a_key": 1})
    with pytest.raises(ConfigError):
        build_configs(preset="unknown")
    bad = tmp_path / "bad.cfg"
    bad.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        build_configs(config_file=bad)
    for rate in ("0", "-3"):
        with pytest.raises(ConfigError, match="sample_rate"):
            build_configs(overrides={"sample_rate": rate})


def _away_from_default(key, default) -> dict:
    """Overrides that set ``key`` away from ``default`` and still build a
    config: free text becomes a string holding ``;``, ``=``, ``%`` and
    ``[``, and a key with a fixed set of values takes another of them (a
    pattern other than local with no relative encoding)."""
    choices = {
        "architecture": N.ARCHITECTURES, "attention": N.PATTERNS, "pe_mode": N.PE_MODES,
        "rpe_share": N.RPE_SHARES, "dtype": ("f32", "f64"), "boundary_distance": BA_DISTANCES,
    }
    if key in choices:
        other = next(value for value in choices[key] if value != default)
        return {key: other, **({"pe_mode": "none"} if key == "attention" else {})}
    if isinstance(default, str):
        return {key: f"{key};x = %(y)s [z]"}
    if key in ("heads", "hidden_dim", "hidden_dim_refine"):  # heads divide both dims
        return {key: 2 * default}
    return {key: default + (2 if isinstance(default, int) else 1 / 3)}


@pytest.mark.parametrize("preset", [None, *PRESETS])
def test_every_key_reads_back_from_its_formatted_config(preset, tmp_path):
    """Each key set away from its default, a string holding ``;``, ``=``,
    ``%`` and ``[`` included, comes back unchanged from ``format_config``'s
    file."""
    table = field_table()
    defaults = build_configs(preset)
    for key, section in table.items():
        default = getattr(defaults[list(SECTIONS).index(section)], key)
        overrides = _away_from_default(key, default)
        configs = build_configs(preset, overrides={k: str(v) for k, v in overrides.items()})
        assert getattr(configs[list(SECTIONS).index(section)], key) != default, key
        path = tmp_path / f"{key}.cfg"
        path.write_text(format_config(*configs))
        assert build_configs(config_file=path) == configs, key


def test_value_that_would_not_read_back_is_refused(tmp_path):
    for value in ("runs ;old", "runs\t;old", ";old", " runs", "runs ", "runs\nold", "runs\rold"):
        with pytest.raises(ConfigError, match="--data-root"):
            build_configs(overrides={"root": value})
    path = tmp_path / "run.cfg"
    path.write_text("[data]\nroot = runs\n  old\n")  # a continuation line reads as a line break
    with pytest.raises(ConfigError, match=r"run\.cfg: \[data\] root"):
        build_configs(config_file=path)


def test_a_refused_value_names_the_source_that_set_it(tmp_path):
    """A value a config refuses is prefixed with where it came from: the
    file and key or the flag; for a check on two keys, the source of the
    one set last (a flag over a file over a preset)."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\nlr = nan\n[model]\nheads = 5\n")
    cases = [
        ({"config_file": bad, "overrides": {"heads": "4"}},
         f"{bad}: [train] lr: lr must be finite and > 0, got nan", ("lr",)),
        ({"preset": "gtea", "overrides": {"heads": "3"}},
         "--heads: heads (3) must divide model dim (64)", ("heads", "hidden_dim")),
        ({"preset": "gtea", "overrides": {"hidden_dim": "66"}},
         "--hidden-dim: heads (4) must divide model dim (66)", ("heads", "hidden_dim")),
        ({"preset": "gtea", "overrides": {"lr": "1e-3", "hidden_dim": "10", "heads": "5"}},
         "--heads: heads (5) must divide model dim (64)", ("heads", "hidden_dim_refine")),
        ({"overrides": {"sample_rate": "0"}},
         "--sample-rate: sample_rate must be >= 1, got 0", ("sample_rate",)),
        ({"overrides": {"attention": "full"}},
         "--attention: relative positional encoding requires the local pattern",
         ("pe_mode", "attention")),
    ]
    for kwargs, message, keys in cases:
        with pytest.raises(ConfigError) as exc:
            build_configs(**kwargs)
        assert str(exc.value) == message and exc.value.keys == keys
    bad.write_text("[model]\nheads = 5\n")
    with pytest.raises(ConfigError, match=re.escape(f"{bad}: [model] heads: heads (5)")):
        build_configs("gtea", config_file=bad)


def test_adam_state_lives_across_epochs():
    samples, _ = tiny_dataset(videos=1)
    cfg = tiny_model()
    result = TR.train(samples, cfg, TR.TrainConfig(epochs=3, lr=1e-3, seed=10))
    assert isinstance(result.state.adam, AdamState)
    assert result.state.adam.step == 3  # one step per video per epoch


def test_adam_state_binds_gradients_to_the_arena_before_any_backward():
    """``AdamState`` hands every parameter a zeroed gradient view, so the
    first backward accumulates into the arena like every later one; after a
    gtea-shaped ``train`` step each gradient is still that view."""
    params, _ = gtea_step()
    state = AdamState(params)
    for name, p in params.items():
        assert np.shares_memory(p.data, state.flat), name
        assert np.shares_memory(p.grad, state.flat_grad) and not p.grad.any(), name
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    train_cfg = replace(train_cfg, epochs=1)
    spec = D.SynthSpec(
        num_classes=5, num_videos=1, min_len=48, max_len=48, feature_dim=32, noise=0.3, seed=2
    )
    samples, _ = D.generate_synthetic(spec)
    result = TR.train(samples, model_cfg, train_cfg)
    arena = result.state.adam
    assert arena.step == 1
    for name, p in result.params.items():
        assert np.shares_memory(p.grad, arena.flat_grad), name


def test_keep_best_tracks_best_epoch():
    samples, _ = tiny_dataset(videos=2, noise=0.0)
    cfg = tiny_model()
    result = TR.train(
        samples, cfg,
        TR.TrainConfig(epochs=6, lr=1e-3, seed=12, eval_every=2),
    )
    assert result.best_epoch in (2, 4, 6)
    assert result.best_params is not None and result.best_acc is not None
    # the rolling-best snapshot is detached from the live parameters
    live = result.params["stage0.proj.w"].data
    best = result.best_params["stage0.proj.w"].data
    assert best.base is None or best.base is not live


def test_keep_best_off_by_default():
    samples, _ = tiny_dataset(videos=1)
    result = TR.train(samples, tiny_model(), TR.TrainConfig(epochs=1, lr=1e-3, seed=13))
    assert result.best_params is None


def test_float32_train_step_keeps_float32():
    """A gtea-shaped f32 step (all three loss terms) yields an f32 loss and
    f32 gradients on every parameter."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    rng = np.random.default_rng(4)
    features = rng.standard_normal((72, 32)).astype(np.float32)
    labels = np.repeat([0, 3, 1, 4, 2, 0], 12)
    streams = T.SeedStreams(0)
    params = N.init_params(model_cfg, streams)
    outputs = N.model_forward(features, params, model_cfg, train=True, streams=streams)
    loss, _ = TR.total_loss(outputs, labels, train_cfg, model_cfg)
    assert loss.data.dtype == np.float32
    loss.backward()
    wrong = {n: str(p.grad.dtype) for n, p in params.items() if p.grad.dtype != np.float32}
    assert not wrong


def gtea_step(dtype="f32", frames=72, input_dim=32, num_classes=5, preset="gtea"):
    """Params and a forward of a gtea-preset (or ``preset``) step: all three
    loss terms and every dropout on. Each call draws the same params and
    masks."""
    model_cfg, train_cfg, _ = build_configs(preset, None, {})
    model_cfg = replace(model_cfg, input_dim=input_dim, num_classes=num_classes, dtype=dtype)
    features = np.random.default_rng(4).standard_normal((frames, input_dim))
    labels = np.repeat(np.arange(frames // 12 + 1) % num_classes, 12)[:frames]
    streams = T.SeedStreams(0)
    params = N.init_params(model_cfg, streams)

    def forward():
        outputs = N.model_forward(features, params, model_cfg, train=True, streams=streams)
        loss, parts = TR.total_loss(outputs, labels, train_cfg, model_cfg)
        assert all(parts[term] > 0 for term in ("ce", "tmse", "ba"))
        return outputs, loss

    return params, forward


def test_a_step_builds_the_boundary_targets_once_per_attention_length(monkeypatch):
    """A gtea step's 4 stages read 8 attention layers at 2 lengths, T = 72
    and ceil(T/2); ``total_loss`` builds each length's targets once."""
    lengths = []

    def counted(labels, query_len, window, real=L.boundary_targets):
        lengths.append(query_len)
        return real(labels, query_len, window)

    monkeypatch.setattr(L, "boundary_targets", counted)
    _, forward = gtea_step()
    forward()
    assert sorted(lengths) == [36, 72]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_backward_matches_the_keep_graph_oracle_and_releases_interior_nodes(dtype):
    """Leaf gradients are byte-equal to the backward that kept the graph,
    and every interior node ends with no gradient."""
    grads, interior_grads = [], []
    for run_backward in (backward_keep_graph, T.Tensor.backward):
        params, forward = gtea_step(dtype)
        _, loss = forward()
        interior = T._graph(loss)
        run_backward(loss)
        grads.append({name: p.grad for name, p in params.items()})
        interior_grads.append([n.grad for n in interior])
    (kept, released), (kept_interior, released_interior) = grads, interior_grads
    assert all(g is not None for g in kept_interior)
    assert all(g is None for g in released_interior)
    for name, g in kept.items():
        assert g.dtype == released[name].dtype and g.tobytes() == released[name].tobytes(), name


def test_backward_frees_the_graph_as_it_runs():
    """tracemalloc on a gtea step at T=160 (d_in=2048), taken as the trainer
    takes it: the params' gradients already live in the arena and the step's
    outputs and loss are still referenced. Backward peaks at most 10% above
    the forward graph's bytes and leaves at most 5% of them live."""
    params, forward = gtea_step(frames=160, input_dim=2048, num_classes=11)
    state = AdamState(params)
    _, loss = forward()
    loss.backward()
    T.adam_step(state, lr=1e-4)
    del loss
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outputs, loss = forward()
        graph = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        live, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert graph > 4 * 2**20
    assert peak <= 1.1 * graph, (peak, graph)
    assert live <= 0.05 * graph, (live, graph)


def _op_counts(root: T.Tensor) -> Counter:
    """The graph nodes under root, counted by the tensor op that built them."""
    return Counter(
        node._backward.__qualname__.split(".")[0] for node in T._graph(root)
    )


def test_a_gtea_step_is_341_nodes_and_every_layer_7():
    """A gtea-preset training forward plus loss builds 341 graph nodes, of
    which 8 are ``linear`` (each stage's projection and classifier), 15
    ``add`` (a stage's boundary term starts from its first layer's term, not
    from a zero leaf) and 24 ``mul`` (the boundary read renormalizes the sum
    of its heads, with no 1/heads scale). A 50salads step at T=120, where
    both boundary layers hold a frame with a full 51-slot window, is 397. An
    encoder and a decoder layer are the same 7 nodes: the resample,
    ``slot_project``, ``slot_softmax``, ``slot_mix``, two norms and
    ``ffn_block``; a decoder's Q is a block of its projection node."""
    _, forward = gtea_step()
    _, loss = forward()
    ops = _op_counts(loss)
    assert (sum(ops.values()), ops["linear"], ops["add"], ops["mul"]) == (341, 8, 15, 24), ops
    _, forward = gtea_step(frames=120, preset="50salads")
    _, loss = forward()
    ops = _op_counts(loss)
    assert (sum(ops.values()), ops["linear"], ops["add"], ops["mul"]) == (397, 8, 15, 24), ops
    model_cfg, _, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    params = N.init_params(model_cfg, T.SeedStreams(0))
    rng = np.random.default_rng(0)
    h_enc, h_dec = (
        T.Tensor(rng.standard_normal((rows, 64)).astype(np.float32), requires_grad=True)
        for rows in (24, 12)
    )
    enc, _ = N.encoder_layer(h_enc, params, model_cfg, 0, 1, T.SeedStreams(1))
    dec, _ = N.decoder_layer(h_dec, h_enc, params, model_cfg, 0, 1, T.SeedStreams(1))
    layer = Counter(slot_project=1, slot_softmax=1, slot_mix=1, instance_norm_temporal=2, ffn_block=1)
    assert _op_counts(enc) == layer + Counter(downsample_nearest=1)
    assert _op_counts(dec) == layer + Counter(upsample_nearest=1)


def test_logsparse_slot_kernels_keep_no_window_copy():
    """tracemalloc of a gtea-preset training forward plus loss at T=128:
    a logsparse model's graph retains under 1.5x a local one's. Its slot
    kernels read the key and value windows through the projection buffer
    again in backward; a kept (T, heads, d_h, S) copy of each, S = 15 slots
    here, made it about 3x."""

    def retained(pattern: str) -> int:
        pe_mode = "relative" if pattern == "local" else "none"
        overrides = {"attention": pattern, "pe_mode": pe_mode, "boundary_weight": 0.0}
        model_cfg, train_cfg, _ = build_configs("gtea", None, overrides)
        model_cfg = replace(model_cfg, input_dim=64, num_classes=5)
        params = N.init_params(model_cfg, T.SeedStreams(0))
        x = np.random.default_rng(2).standard_normal((128, 64)).astype(np.float32)
        labels = np.repeat(np.arange(5), 26)[:128]
        tracemalloc.start()
        try:
            out = N.model_forward(x, params, model_cfg, train=True, streams=T.SeedStreams(1))
            loss, _ = TR.total_loss(out, labels, train_cfg, model_cfg)
            assert loss.requires_grad
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    retained("local")  # warm-up: first-call caches are not graph
    local, logsparse = retained("local"), retained("logsparse")
    assert logsparse < 1.5 * local, (logsparse, local)


def test_arena_adam_trains_like_the_per_tensor_loop(monkeypatch):
    """A gtea-shaped f32 run gives the same bytes with the per-tensor Adam
    loop and fresh gradients every step."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    train_cfg = replace(train_cfg, epochs=2)
    spec = D.SynthSpec(
        num_classes=5, num_videos=3, min_len=48, max_len=96, feature_dim=32, noise=0.3, seed=2
    )
    samples, _ = D.generate_synthetic(spec)
    arena = TR.train(samples, model_cfg, train_cfg)

    def loop_then_clear(state, **kwargs):
        params = state.params
        adam_loop(params, {name: p.grad for name, p in params.items()}, state, **kwargs)
        for p in params.values():
            p.grad = None

    monkeypatch.setattr(TR, "AdamState", LoopAdamState)
    monkeypatch.setattr(TR, "adam_step", loop_then_clear)
    loop = TR.train(samples, model_cfg, train_cfg)
    assert TR.log_csv(arena.log_rows) == TR.log_csv(loop.log_rows)
    assert arena.log_rows == loop.log_rows
    for name, p in loop.params.items():
        assert arena.params[name].data.tobytes() == p.data.tobytes(), name


def _assert_gtea_run_unchanged_by(monkeypatch, replacements):
    """A gtea-shaped f32 run writes the same log rows and parameter bytes
    with the ``tensor`` functions swapped for ``replacements``."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    train_cfg = replace(train_cfg, epochs=2)
    spec = D.SynthSpec(
        num_classes=5, num_videos=3, min_len=48, max_len=96, feature_dim=32, noise=0.3, seed=4
    )
    samples, _ = D.generate_synthetic(spec)
    fast = TR.train(samples, model_cfg, train_cfg)
    for name, fn in replacements.items():
        monkeypatch.setattr(T, name, fn)
    oracle = TR.train(samples, model_cfg, train_cfg)
    assert fast.log_rows == oracle.log_rows
    for name, p in oracle.params.items():
        assert fast.params[name].data.tobytes() == p.data.tobytes(), name


def test_lean_graph_trains_like_the_uniform_dropout_and_add_then_norm_nodes(monkeypatch):
    """The same bytes with the float64-uniform dropout and a separate add
    node before each norm."""
    _assert_gtea_run_unchanged_by(
        monkeypatch, {"dropout": dropout_uniform, "instance_norm_temporal": add_then_norm}
    )


def test_cached_layout_trains_like_the_per_call_slot_kernels_and_norm(monkeypatch):
    """The same bytes with slot kernels that rebuild their masks per call
    and a norm that computes out of place."""
    _assert_gtea_run_unchanged_by(monkeypatch, {
        "slot_softmax": slot_softmax_per_call,
        "slot_mix": slot_mix_per_call,
        "instance_norm_temporal": norm_out_of_place,
    })


def _held_copy(sample):
    """The same sample with its features read once and held."""
    return D.VideoSample(
        sample.video_id, sample.load_features(), sample.labels,
        source_len=sample.source_len, stride=sample.stride,
    )


@pytest.mark.parametrize("stride", [1, 2])
def test_file_backed_samples_train_like_held_samples(tmp_path, stride):
    """A gtea-preset f32 run (all three loss terms, dropout on, best-epoch
    evaluation each epoch) on samples that read their file at every step
    gives the bytes of the same run on the features held in memory."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg = replace(model_cfg, input_dim=32, num_classes=5)
    assert model_cfg.dtype == "f32" and model_cfg.input_dropout > 0 and model_cfg.ffn_dropout > 0
    assert train_cfg.smooth_weight > 0 and train_cfg.boundary_weight > 0
    train_cfg = replace(train_cfg, epochs=2, eval_every=1)
    spec = D.SynthSpec(
        num_classes=5, num_videos=3, min_len=48, max_len=96, feature_dim=32, noise=0.3, seed=6
    )
    D.write_dataset(tmp_path, *D.generate_synthetic(spec))
    loaded, _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=stride)
    assert all(s.features is None for s in loaded)
    held = [_held_copy(s) for s in loaded]
    from_files = TR.train(loaded, model_cfg, train_cfg)
    in_memory = TR.train(held, model_cfg, train_cfg)
    assert from_files.log_rows == in_memory.log_rows
    assert from_files.best_epoch == in_memory.best_epoch
    for got, want in ((from_files.params, in_memory.params),
                      (from_files.best_params, in_memory.best_params)):
        for name, p in want.items():
            assert got[name].data.tobytes() == p.data.tobytes(), name


def test_a_loaded_split_is_held_one_video_at_a_time(tmp_path):
    """tracemalloc over load_dataset plus one training epoch, and over
    load_dataset plus one evaluate_model pass, on eleven file-backed videos
    with wide features: each peaks within half a video's features of the
    same run on the largest video alone (listed twice, so Adam's state
    exists at its second step as at the later steps of a longer epoch), and
    below the sum of the videos' features."""
    dim, lengths = 4096, list(range(48, 129, 8))
    names = ["a", "b", "c"]
    write_toy_dataset_lengths(tmp_path, lengths, dim, names)
    cfg = tiny_model(input_dim=dim, num_classes=len(names))
    train_cfg = TR.TrainConfig(epochs=1, lr=1e-3, seed=2)
    params = N.init_params(cfg, T.SeedStreams(3))
    largest = 4 * dim * max(lengths)

    def peaks(split):
        out = []
        for run in (
            lambda samples: TR.train(samples, cfg, train_cfg),
            lambda samples: TR.evaluate_model(params, cfg, samples),
        ):
            gc.collect()
            tracemalloc.start()
            try:
                samples, _ = D.load_dataset(tmp_path, split)
                run(samples)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del samples
        return out

    total = 4 * dim * sum(lengths)
    for alone, every in zip(peaks("splits/largest.bundle"), peaks("splits/all.bundle")):
        assert every <= alone + largest // 2, (every, alone, largest)
        assert every < total, (every, total)


def test_predict_never_holds_a_videos_whole_feature_matrix(tmp_path):
    """tracemalloc over one predict_sample of a file-backed video at T = 2,000
    and d_in = 2,048 (15.6 MiB of features), projected to the 50salads
    preset's 128 hidden units: stage 0 projects the rows as they are read,
    so it peaks at least 10 MiB below a forward of the whole array, with
    every stage's logits byte-equal to that forward's."""
    dim, frames = 2048, 2000
    write_toy_dataset_lengths(tmp_path, [frames], dim, ["a", "b", "c"])
    (sample,), _ = D.load_dataset(tmp_path, "splits/all.bundle")
    cfg = tiny_model(input_dim=dim, hidden_dim=128)
    params = N.init_params(cfg, T.SeedStreams(3))

    def traced(run):
        gc.collect()
        tracemalloc.start()
        try:
            with T.no_grad():
                out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = traced(lambda: N.model_forward(sample.load_features(), params, cfg))
    blocks, _ = traced(lambda: N.model_forward(sample, params, cfg))
    labels, peak = traced(lambda: TR.predict_sample(params, cfg, sample))
    assert whole_peak - peak >= 10 * 2**20, (whole_peak, peak)
    assert labels.tobytes() == N.final_prediction(whole).tobytes()
    for got, want in zip(blocks.logits, whole.logits):
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("pe_mode", ["relative", "sinusoidal", "learnable"])
def test_predict_on_a_held_sample_gives_the_whole_array_labels(monkeypatch, pe_mode, dtype):
    """A held sample is a row source too: predict_sample projects its array
    block by block (8 rows here) and gives the labels of a forward over the
    whole array byte for byte, from logits byte-equal to that forward's."""
    cfg = tiny_model(pe_mode=pe_mode, dtype=dtype)
    monkeypatch.setattr(N, "BLOCK_MACS", 8 * cfg.input_dim * cfg.hidden_dim)
    params = N.init_params(cfg, T.SeedStreams(4))
    rng = np.random.default_rng(4)
    for p in params.values():  # no zero encoding table or bias: every term counts
        p.data += rng.uniform(-0.5, 0.5, p.data.shape)
    samples, _ = tiny_dataset(videos=3)
    for sample in samples:
        with T.no_grad():
            whole = N.model_forward(sample.features, params, cfg)
            blocks = N.model_forward(sample, params, cfg)
        labels = TR.predict_sample(params, cfg, sample)
        assert labels.tobytes() == N.final_prediction(whole).tobytes()
        for got, want in zip(blocks.logits, whole.logits):
            assert got.data.tobytes() == want.data.tobytes()


def write_toy_dataset_lengths(root, lengths, dim, names):
    """Videos v0, v1, ... of the given lengths cycling through ``names``;
    split ``all`` lists them all and ``largest`` the longest one twice, the
    second time as a copy under its own id."""
    for sub in ("groundTruth", "features", "splits"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    (root / "mapping.txt").write_text("".join(f"{i} {n}\n" for i, n in enumerate(names)))
    rng = np.random.default_rng(0)
    for v, t in enumerate(lengths):
        D.write_features(root / "features" / f"v{v}.feat",
                         rng.standard_normal((t, dim)).astype(np.float32))
        (root / "groundTruth" / f"v{v}.txt").write_text(
            "".join(names[(f // 16) % len(names)] + "\n" for f in range(t))
        )
    (root / "splits" / "all.bundle").write_text("".join(f"v{v}\n" for v in range(len(lengths))))
    longest = f"v{lengths.index(max(lengths))}"
    for sub, suffix in (("features", ".feat"), ("groundTruth", ".txt")):
        shutil.copyfile(root / sub / f"{longest}{suffix}", root / sub / f"{longest}copy{suffix}")
    (root / "splits" / "largest.bundle").write_text(f"{longest}\n{longest}copy\n")
