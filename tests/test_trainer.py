import gc
import tracemalloc

import numpy as np
import pytest

from _oracles import (
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
from tut import net as N
from tut import tensor as T
from tut import trainer as TR
from tut.config import PRESETS, build_configs
from tut.errors import ConfigError, TrainingDiverged
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
        ffn_dim=16,
        ffn_dim_refine=16,
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


def test_lr_rule_scripted_trace():
    state = TR.TrainState(lr=1.0)
    # increases at epochs 3, 5, 7 -> halve after epoch 7, counter resets
    trace = [5.0, 4.0, 4.5, 3.0, 3.5, 2.0, 2.5, 1.0]
    lrs = []
    for loss in trace:
        TR.apply_lr_rule(state, loss, factor=0.5, patience=3)
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
    assert result.state.epoch == 20


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
    loaded, _ = TR.evaluate_run(path, samples)
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
    assert len(bare.logits) == len(bare.probs) == cfg.num_stages
    for ref, out in zip(with_graph.logits + with_graph.probs, bare.logits + bare.probs):
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
        samples, cfg, TR.TrainConfig(epochs=3, lr=1e-3, seed=14, keep_best=True, eval_every=1)
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
    half = resample_temporal(samples[0], 30.0, 15.0)
    cfg = tiny_model()
    result = TR.train([half], cfg, TR.TrainConfig(epochs=1, lr=1e-3, seed=5))
    up = TR.predict_sample(result.params, cfg, half, upsample=True)
    assert up.shape[0] == samples[0].num_frames


def test_upsample_uses_the_load_stride(monkeypatch):
    # 10 source frames at stride 4 keep frames 0, 4, 8; the length ratio
    # rounds to 3, but each prediction must cover 4 source frames
    source = D.VideoSample("v", np.zeros((10, 8), dtype=np.float32), np.zeros(10, dtype=int))
    strided = resample_temporal(source, 60.0, 15.0)
    assert strided.num_frames == 3
    monkeypatch.setattr(TR, "final_prediction", lambda outputs: np.array([0, 1, 2]))
    cfg = tiny_model(layers=1, refinement_stages=0)
    params = N.init_params(cfg, T.SeedStreams(0))
    up = TR.predict_sample(params, cfg, strided, upsample=True)
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


def test_presets_match_documented_values():
    assert PRESETS["50salads"]["train"]["boundary_weight"] == 0.02
    assert PRESETS["gtea"]["train"]["boundary_weight"] == 0.1
    assert PRESETS["breakfast"]["train"]["boundary_weight"] == 0.005
    model, train, data = build_configs(preset="50salads")
    assert (model.window, model.layers, model.refinement_stages, model.heads) == (51, 5, 3, 4)
    assert (model.hidden_dim, model.hidden_dim_refine) == (128, 64)
    assert (train.lr, train.weight_decay) == (5e-4, 1e-5)
    assert train.smooth_weight == 0.15 and train.smooth_clip == 4.0
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


def test_adam_state_lives_across_epochs():
    samples, _ = tiny_dataset(videos=1)
    cfg = tiny_model()
    result = TR.train(samples, cfg, TR.TrainConfig(epochs=3, lr=1e-3, seed=10))
    assert isinstance(result.state.adam, AdamState)
    assert result.state.adam.step == 3  # one step per video per epoch


def test_keep_best_tracks_best_epoch():
    samples, _ = tiny_dataset(videos=2, noise=0.0)
    cfg = tiny_model()
    result = TR.train(
        samples, cfg,
        TR.TrainConfig(epochs=6, lr=1e-3, seed=12, keep_best=True, eval_every=2),
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
    model_cfg.input_dim, model_cfg.num_classes = 32, 5
    rng = np.random.default_rng(4)
    features = rng.standard_normal((72, 32)).astype(np.float32)
    labels = np.repeat([0, 3, 1, 4, 2, 0], 12)
    streams = T.SeedStreams(0)
    params = N.init_params(model_cfg, streams)
    outputs = N.model_forward(features, params, model_cfg, train=True, streams=streams)
    loss, _ = TR.total_loss(outputs, labels, train_cfg.loss_weights(), model_cfg.window)
    assert loss.data.dtype == np.float32
    loss.backward()
    wrong = {n: str(p.grad.dtype) for n, p in params.items() if p.grad.dtype != np.float32}
    assert not wrong


def gtea_step(dtype="f32", frames=72, input_dim=32, num_classes=5):
    """Params and a forward of a gtea-preset step: all three loss terms and
    every dropout on. Each call draws the same params and masks."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg.input_dim, model_cfg.num_classes, model_cfg.dtype = input_dim, num_classes, dtype
    features = np.random.default_rng(4).standard_normal((frames, input_dim))
    labels = np.repeat(np.arange(frames // 12 + 1) % num_classes, 12)[:frames]
    streams = T.SeedStreams(0)
    params = N.init_params(model_cfg, streams)

    def forward():
        outputs = N.model_forward(features, params, model_cfg, train=True, streams=streams)
        loss, parts = TR.total_loss(outputs, labels, train_cfg.loss_weights(), model_cfg.window)
        assert all(parts[term] > 0 for term in ("ce", "tmse", "ba"))
        return outputs, loss

    return params, forward


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_backward_matches_the_keep_graph_oracle_and_releases_interior_nodes(dtype):
    """Leaf gradients are byte-equal to the backward that kept the graph,
    and every interior node ends with no gradient."""
    grads, interior_grads = [], []
    for run_backward in (backward_keep_graph, T.Tensor.backward):
        params, forward = gtea_step(dtype)
        _, loss = forward()
        interior = [n for n in T._toposort(loss) if n._backward is not None]
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
    state = AdamState()
    _, loss = forward()
    loss.backward()
    T.adam_step(params, {name: p.grad for name, p in params.items()}, state, lr=1e-4)
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


def test_arena_adam_trains_like_the_per_tensor_loop(monkeypatch):
    """A gtea-shaped f32 run gives the same bytes with the per-tensor Adam
    loop and fresh gradients every step."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg.input_dim, model_cfg.num_classes = 32, 5
    train_cfg.epochs = 2
    spec = D.SynthSpec(
        num_classes=5, num_videos=3, min_len=48, max_len=96, feature_dim=32, noise=0.3, seed=2
    )
    samples, _ = D.generate_synthetic(spec)
    arena = TR.train(samples, model_cfg, train_cfg)

    def loop_then_clear(params, grads, state, **kwargs):
        adam_loop(params, grads, state, **kwargs)
        for p in params.values():
            p.grad = None

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
    model_cfg.input_dim, model_cfg.num_classes = 32, 5
    train_cfg.epochs = 2
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
        sample.video_id, sample.load_features(), sample.labels, fps=sample.fps,
        source_len=sample.source_len, stride=sample.stride,
    )


@pytest.mark.parametrize("stride", [1, 2])
def test_file_backed_samples_train_like_held_samples(tmp_path, stride):
    """A gtea-preset f32 run (all three loss terms, dropout on, best-epoch
    evaluation each epoch) on samples that read their file at every step
    gives the bytes of the same run on the features held in memory."""
    model_cfg, train_cfg, _ = build_configs("gtea", None, {})
    model_cfg.input_dim, model_cfg.num_classes = 32, 5
    assert model_cfg.dtype == "f32" and model_cfg.input_dropout > 0 and model_cfg.ffn_dropout > 0
    assert train_cfg.smooth_weight > 0 and train_cfg.boundary_weight > 0
    train_cfg.epochs, train_cfg.keep_best, train_cfg.eval_every = 2, True, 1
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


def write_toy_dataset_lengths(root, lengths, dim, names):
    """Videos v0, v1, ... of the given lengths cycling through ``names``;
    split ``all`` lists them all and ``largest`` the longest one twice."""
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
    (root / "splits" / "largest.bundle").write_text(f"{longest}\n{longest}\n")
