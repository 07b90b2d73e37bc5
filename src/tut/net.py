"""The segmentation model: per-stage projection -> halving encoder ->
restoring decoder -> classifier, composed into one generation stage plus M
refinement stages. A "standard" arm without temporal resampling is kept as
an ablation baseline.

Parameter names follow the checkpoint layout
``stage{s}.{enc|dec}{l}.{qkv|ffn1|ffn2|norm1|norm2|rpe}.{w|b}`` plus
``stage{s}.proj.*`` / ``stage{s}.cls.*``; shared relative-position tables
live under ``stage{s}.rpe.w`` (stage-shared) or ``rpe.scale{e}.w``
(scale-shared).

A checkpoint is a magic, a manifest and the payloads back to back.
``load_checkpoint`` parses the manifest from the open file and reads every
payload into one buffer, so each parameter is an aligned, C-contiguous
view of it and the file's bytes are held once.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .attention import (
    AttentionConfig,
    AttentionRecord,
    RpeTable,
    attend,
    sinusoidal_encoding,
    slot_count,
)
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import SeedStreams, Tensor, downsample_nearest, upsample_nearest

ARCHITECTURES = ("utrans", "standard")


@dataclass
class ModelConfig:
    input_dim: int = 16
    num_classes: int = 4
    architecture: str = "utrans"
    attention: str = "local"
    layers: int = 5  # N, encoder depth == decoder depth
    refinement_stages: int = 3  # M
    window: int = 51
    heads: int = 4
    hidden_dim: int = 128
    hidden_dim_refine: int = 64
    ffn_dim: int = 128
    ffn_dim_refine: int = 64
    input_dropout: float = 0.4
    ffn_dropout: float = 0.3
    attention_dropout: float = 0.2
    pe_mode: str = "relative"
    rpe_share: str = "scale"
    rpe_split_coders: bool = False
    pe_max_len: int = 4096
    refine_input: str = "probs"  # previous-stage probabilities or raw logits
    normalize: bool = True
    norm_eps: float = 1e-5
    dtype: str = "f32"

    def validate(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.refine_input not in ("probs", "logits"):
            raise ConfigError(f"unknown refine_input {self.refine_input!r}")
        if self.layers < 1 or self.refinement_stages < 0:
            raise ConfigError("layers must be >= 1 and refinement_stages >= 0")
        if min(self.input_dim, self.num_classes, self.hidden_dim, self.hidden_dim_refine) < 1:
            raise ConfigError("all dimensions must be positive")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        for key in ("input_dropout", "ffn_dropout", "attention_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        for stage_dim in (self.hidden_dim, self.hidden_dim_refine):
            self.attention_config().validate(stage_dim)

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(
            pattern=self.attention,
            window=self.window,
            heads=self.heads,
            dropout=self.attention_dropout,
            pe_mode=self.pe_mode,
            rpe_share=self.rpe_share,
            rpe_split_coders=self.rpe_split_coders,
        )

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64

    def stage_dims(self, stage: int) -> tuple[int, int, int]:
        """(input dim, hidden dim, ffn inner dim) of one stage."""
        if stage == 0:
            return self.input_dim, self.hidden_dim, self.ffn_dim
        return self.num_classes, self.hidden_dim_refine, self.ffn_dim_refine

    @property
    def num_stages(self) -> int:
        return self.refinement_stages + 1


@dataclass
class StageOutputs:
    """Per-stage frame logits/probabilities plus what the losses need.

    A forward under ``tensor.no_grad`` builds no loss, so each stage's
    records are (None, None) there."""

    logits: list[Tensor]
    probs: list[Tensor]
    # (encoder first, decoder last)
    records: list[tuple[AttentionRecord | None, AttentionRecord | None]]


def final_prediction(outputs: StageOutputs) -> np.ndarray:
    """Frame labels from the last refinement stage's logits."""
    return np.argmax(outputs.logits[-1].data, axis=1)


# ---------------------------------------------------------------------------
# parameters


def _scale_exponent(cfg: ModelConfig, coder: str, layer: int) -> int:
    if cfg.architecture != "utrans":
        return 0
    return layer if coder == "enc" else cfg.layers - layer


def rpe_param_name(cfg: ModelConfig, stage: int, coder: str, layer: int) -> str | None:
    """Which table a layer resolves to under the active sharing strategy."""
    if cfg.pe_mode != "relative":
        return None
    if cfg.rpe_share == "none":
        return f"stage{stage}.{coder}{layer}.rpe.w"
    if cfg.rpe_share == "stage":
        return f"stage{stage}.rpe.w"
    exponent = _scale_exponent(cfg, coder, layer)
    if cfg.rpe_split_coders:
        return f"rpe.{coder}.scale{exponent}.w"
    return f"rpe.scale{exponent}.w"


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable tensor, in checkpoint order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for s in range(cfg.num_stages):
        in_dim, hidden, ffn = cfg.stage_dims(s)
        if cfg.pe_mode == "learnable":
            shapes[f"stage{s}.ape.w"] = (cfg.pe_max_len, in_dim)
        shapes[f"stage{s}.proj.w"] = (in_dim, hidden)
        shapes[f"stage{s}.proj.b"] = (hidden,)
        for coder in ("enc", "dec"):
            for l in range(1, cfg.layers + 1):
                prefix = f"stage{s}.{coder}{l}"
                shapes[f"{prefix}.qkv.w"] = (hidden, 3 * hidden)
                shapes[f"{prefix}.qkv.b"] = (3 * hidden,)
                shapes[f"{prefix}.norm1.w"] = (hidden,)
                shapes[f"{prefix}.norm1.b"] = (hidden,)
                shapes[f"{prefix}.ffn1.w"] = (hidden, ffn)
                shapes[f"{prefix}.ffn1.b"] = (ffn,)
                shapes[f"{prefix}.ffn2.w"] = (ffn, hidden)
                shapes[f"{prefix}.ffn2.b"] = (hidden,)
                shapes[f"{prefix}.norm2.w"] = (hidden,)
                shapes[f"{prefix}.norm2.b"] = (hidden,)
                rpe_name = rpe_param_name(cfg, s, coder, l)
                if rpe_name is not None and rpe_name not in shapes:
                    shapes[rpe_name] = (cfg.window, cfg.heads)
        shapes[f"stage{s}.cls.w"] = (hidden, cfg.num_classes)
        shapes[f"stage{s}.cls.b"] = (cfg.num_classes,)
    return shapes


def init_params(cfg: ModelConfig, streams: SeedStreams) -> dict[str, Tensor]:
    """Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)); gains 1; the rest 0.

    Each parameter draws from its own named stream, so changing the layer
    count or stage count never reshuffles the other parameters' draws.
    """
    cfg.validate()
    dtype = cfg.np_dtype
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        kind = name.rsplit(".", 2)[-2]
        if kind == "rpe" or kind == "ape":
            data = np.zeros(shape, dtype=dtype)
        elif kind in ("norm1", "norm2"):
            data = np.ones(shape, dtype=dtype) if leaf == "w" else np.zeros(shape, dtype=dtype)
        elif leaf == "b":
            data = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            data = streams.stream(f"init:{name}").uniform(-bound, bound, shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# layers


def _norm(params, cfg: ModelConfig, name: str, x: Tensor, residual: Tensor) -> Tensor:
    """x + residual, instance-normalized in one node when ``normalize`` is on."""
    if not cfg.normalize:
        return T.add(x, residual)
    return T.instance_norm_temporal(
        x, params[f"{name}.w"], params[f"{name}.b"], cfg.norm_eps, residual=residual
    )


def _ffn(params, cfg: ModelConfig, prefix: str, x: Tensor, train, streams) -> Tensor:
    h = T.relu(T.linear(x, params[f"{prefix}.ffn1.w"], params[f"{prefix}.ffn1.b"]))
    if streams is not None:
        h = T.dropout(h, cfg.ffn_dropout, streams.stream(f"dropout:{prefix}.ffn"), train)
    return T.linear(h, params[f"{prefix}.ffn2.w"], params[f"{prefix}.ffn2.b"])


def _rpe_for(params, cfg: ModelConfig, stage: int, coder: str, layer: int) -> RpeTable | None:
    name = rpe_param_name(cfg, stage, coder, layer)
    if name is None:
        return None
    return RpeTable(key=name[: -len(".w")], weights=params[name])


def encoder_layer(
    h_prev: Tensor,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    stage: int,
    layer: int,
    train: bool = False,
    streams: SeedStreams | None = None,
) -> tuple[Tensor, AttentionRecord | None]:
    """Downsample, windowed self-attention, norm, FFN, norm."""
    if h_prev.data.shape[0] < 1:
        raise ConfigError("too many layers for sequence length")
    prefix = f"stage{stage}.enc{layer}"
    _, hidden, _ = cfg.stage_dims(stage)
    h1 = downsample_nearest(h_prev) if cfg.architecture == "utrans" else h_prev
    qkv = T.linear(h1, params[f"{prefix}.qkv.w"], params[f"{prefix}.qkv.b"])
    q, k, v = (T.slice_cols(qkv, i * hidden, (i + 1) * hidden) for i in range(3))
    rng = streams.stream(f"dropout:{prefix}.attn") if streams is not None else None
    attn, record = attend(
        q, k, v, cfg.attention_config(), rpe=_rpe_for(params, cfg, stage, "enc", layer),
        rng=rng, train=train,
    )
    h2 = _norm(params, cfg, f"{prefix}.norm1", attn, h1)
    out = _norm(params, cfg, f"{prefix}.norm2", _ffn(params, cfg, prefix, h2, train, streams), h2)
    return out, record


def decoder_layer(
    h_prev_dec: Tensor,
    h_enc_peer: Tensor,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    stage: int,
    layer: int,
    train: bool = False,
    streams: SeedStreams | None = None,
) -> tuple[Tensor, AttentionRecord | None]:
    """Upsample, cross-attention (Q from the decoder path, K/V from the
    same-resolution encoder output), norm, FFN, norm."""
    prefix = f"stage{stage}.dec{layer}"
    _, hidden, _ = cfg.stage_dims(stage)
    target_len = h_enc_peer.data.shape[0]
    h1 = upsample_nearest(h_prev_dec, target_len) if cfg.architecture == "utrans" else h_prev_dec
    if h1.data.shape[0] != target_len:
        raise ShapeError(
            f"decoder length {h1.data.shape[0]} does not match encoder peer {target_len}"
        )
    w, b = params[f"{prefix}.qkv.w"], params[f"{prefix}.qkv.b"]
    q = T.linear(h1, w, b, cols=(0, hidden))
    kv = T.linear(h_enc_peer, w, b, cols=(hidden, 3 * hidden))
    k, v = T.slice_cols(kv, 0, hidden), T.slice_cols(kv, hidden, 2 * hidden)
    rng = streams.stream(f"dropout:{prefix}.attn") if streams is not None else None
    attn, record = attend(
        q, k, v, cfg.attention_config(), rpe=_rpe_for(params, cfg, stage, "dec", layer),
        rng=rng, train=train,
    )
    h2 = _norm(params, cfg, f"{prefix}.norm1", attn, h1)
    out = _norm(params, cfg, f"{prefix}.norm2", _ffn(params, cfg, prefix, h2, train, streams), h2)
    return out, record


def _positional_input(params, cfg: ModelConfig, stage: int, x: Tensor) -> Tensor:
    t, in_dim = x.data.shape
    if cfg.pe_mode == "sinusoidal":
        return T.add(x, Tensor(sinusoidal_encoding(t, in_dim, dtype=x.data.dtype)))
    if cfg.pe_mode == "learnable":
        if t > cfg.pe_max_len:
            raise ConfigError(f"sequence length {t} exceeds pe_max_len {cfg.pe_max_len}")
        return T.add(x, T.slice_rows(params[f"stage{stage}.ape.w"], 0, t))
    return x


def stage_forward(
    x: Tensor,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    stage: int,
    train: bool = False,
    streams: SeedStreams | None = None,
):
    """One projection -> encoder -> decoder -> classifier pass; returns the
    logits, the probabilities and the (encoder first, decoder last) records."""
    t = x.data.shape[0]
    if cfg.architecture == "utrans" and t < 2**cfg.layers:
        raise ConfigError(
            f"too many layers for sequence length: T={t} < 2^{cfg.layers}"
        )
    x = _positional_input(params, cfg, stage, x)
    if streams is not None:
        x = T.dropout(x, cfg.input_dropout, streams.stream(f"dropout:stage{stage}.input"), train)
    h = T.linear(x, params[f"stage{stage}.proj.w"], params[f"stage{stage}.proj.b"])

    enc_outputs = [h]
    enc_first = None
    for layer in range(1, cfg.layers + 1):
        h, record = encoder_layer(h, params, cfg, stage, layer, train, streams)
        enc_outputs.append(h)
        if layer == 1:
            enc_first = record

    d = enc_outputs[-1]
    dec_last = None
    for layer in range(1, cfg.layers + 1):
        peer = enc_outputs[cfg.layers - layer]
        d, dec_last = decoder_layer(d, peer, params, cfg, stage, layer, train, streams)

    logits = T.linear(d, params[f"stage{stage}.cls.w"], params[f"stage{stage}.cls.b"])
    probs = T.softmax_lastdim(logits)
    return logits, probs, (enc_first, dec_last)


def model_forward(
    x,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    train: bool = False,
    streams: SeedStreams | None = None,
) -> StageOutputs:
    """Run the generation stage plus every refinement stage.

    Stage 0 consumes the projected input features; stage s > 0 consumes the
    previous stage's softmax probabilities (or logits, per config).
    """
    if not isinstance(x, Tensor):
        x = Tensor(np.ascontiguousarray(x, dtype=cfg.np_dtype))
    elif x.data.dtype != cfg.np_dtype:
        x = Tensor(x.data.astype(cfg.np_dtype), requires_grad=x.requires_grad)
    out = StageOutputs(logits=[], probs=[], records=[])
    stage_in = x
    for stage in range(cfg.num_stages):
        logits, probs, records = stage_forward(stage_in, params, cfg, stage, train, streams)
        out.logits.append(logits)
        out.probs.append(probs)
        out.records.append(records)
        stage_in = probs if cfg.refine_input == "probs" else logits
    return out


# ---------------------------------------------------------------------------
# attention-memory accounting


def stage_attention_lengths(cfg: ModelConfig, t: int) -> list[int]:
    """Sequence length at which each attention layer of one stage operates."""
    if cfg.architecture != "utrans":
        return [t] * (2 * cfg.layers)
    chain = [t]
    for _ in range(cfg.layers):
        chain.append((chain[-1] + 1) // 2)
    enc = chain[1:]  # layer l attends after its downsample
    dec = [chain[cfg.layers - l] for l in range(1, cfg.layers + 1)]
    return enc + dec


def count_attention_entries(cfg: ModelConfig, t: int) -> int:
    """Retained score entries of a full forward pass (all stages, all layers)."""
    per_stage = sum(
        cfg.heads * length * slot_count(cfg.attention, length, cfg.window)
        for length in stage_attention_lengths(cfg, t)
    )
    return per_stage * cfg.num_stages


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"TUTCKPT1"
_PAYLOAD_ALIGN = 64  # bytes; a cache line, and a multiple of every dtype's size
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def _pack_manifest(entries: list[tuple[str, np.ndarray]]) -> tuple[bytes, list[bytes]]:
    header = struct.pack("<I", len(entries))
    records = []
    payloads = []
    for name, arr in entries:
        name_b = name.encode()
        records.append(
            (name_b, _DTYPE_CODES[arr.dtype], arr.shape, arr.tobytes(order="C"))
        )
    manifest_len = len(CHECKPOINT_MAGIC) + 4
    for name_b, _, shape, _ in records:
        manifest_len += 2 + len(name_b) + 1 + 1 + 8 * len(shape) + 8
    offset = manifest_len
    blob = bytearray(header)
    for name_b, code, shape, payload in records:
        blob += struct.pack("<H", len(name_b)) + name_b
        blob += struct.pack("<BB", code, len(shape))
        blob += b"".join(struct.pack("<Q", dim) for dim in shape)
        blob += struct.pack("<Q", offset)
        payloads.append(payload)
        offset += len(payload)
    return bytes(blob), payloads


def save_checkpoint(path, params: dict[str, Tensor], cfg: ModelConfig):
    """Versioned binary container: magic, manifest, little-endian payloads."""
    config_blob = np.frombuffer(json.dumps(asdict(cfg), sort_keys=True).encode(), dtype=np.uint8)
    entries = [("meta.config", config_blob)]
    entries += [(name, np.ascontiguousarray(p.data)) for name, p in params.items()]
    manifest, payloads = _pack_manifest(entries)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(manifest)
        for payload in payloads:
            fh.write(payload)


def _read_checkpoint(path) -> tuple[dict, list[tuple[str, np.dtype, tuple, int]], list[np.ndarray]]:
    """Open a checkpoint once, check its structure and read its payloads.

    Every entry must have a known dtype code, and the payloads must follow
    the manifest back to back, in entry order, up to the end of the file
    (so a truncated, padded or mis-pointing file is rejected). The payloads
    are read into one buffer, placed so that the first payload wider than a
    byte starts on a ``_PAYLOAD_ALIGN`` boundary: tensors of one dtype then
    all sit aligned. Returns the config, the (name, dtype, shape, offset)
    entries and, in entry order, each payload as a C-contiguous view of that
    buffer.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(fmt: str) -> tuple:
            want = struct.calcsize(fmt)
            chunk = fh.read(want)
            if len(chunk) < want:
                raise CheckpointError(f"{path}: manifest truncated at byte {size}")
            return struct.unpack(fmt, chunk)

        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (count,) = take("<I")
        entries = []
        for _ in range(count):
            (name_len,) = take("<H")
            try:
                name = take(f"<{name_len}s")[0].decode()
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name is not UTF-8") from None
            code, rank = take("<BB")
            shape = tuple(int(d) for d in take(f"<{rank}Q"))
            (offset,) = take("<Q")
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{path}: entry {name} has unknown dtype code {code}")
            entries.append((name, _CODE_DTYPES[code], shape, offset))
        start = end = fh.tell()
        for name, dtype, shape, offset in entries:
            nbytes = dtype.itemsize * math.prod(shape)
            if offset != end or offset + nbytes > size:
                raise CheckpointError(f"{path}: entry {name} lies outside the file's payload")
            end += nbytes
        if end != size:
            raise CheckpointError(f"{path}: {size - end} bytes after the last entry")
        first = next((e[3] for e in entries if e[1].itemsize > 1), start)
        buf = np.empty(size - start + _PAYLOAD_ALIGN, dtype=np.uint8)
        pad = -(buf.__array_interface__["data"][0] + first - start) % _PAYLOAD_ALIGN
        if fh.readinto(memoryview(buf)[pad : pad + size - start]) != size - start:
            raise CheckpointError(f"{path}: file shrank while it was read")
    payloads = []
    for _, dtype, shape, offset in entries:
        at = pad + offset - start
        payloads.append(buf[at : at + dtype.itemsize * math.prod(shape)].view(dtype).reshape(shape))
    config_at = next((i for i, e in enumerate(entries) if e[0] == "meta.config"), None)
    if config_at is None:
        raise CheckpointError(f"{path}: missing config entry")
    try:
        config = json.loads(payloads[config_at].tobytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(f"{path}: config is not UTF-8 JSON") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    return config, entries, payloads


def read_manifest(path) -> tuple[dict, list[tuple[str, np.dtype, tuple, int]]]:
    """Parse a checkpoint's config and (name, dtype, shape, offset) entries."""
    config, entries, _ = _read_checkpoint(path)
    return config, entries


def load_checkpoint(path, expected_cfg: ModelConfig | None = None):
    """Rebuild (params, config); shapes are validated against the config.

    Each parameter's data is a view into the one buffer the file was read
    into, not a copy of its own."""
    config_dict, entries, payloads = _read_checkpoint(path)
    try:
        cfg = ModelConfig(**config_dict)
        cfg.validate()
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid model config: {exc}") from None
    if expected_cfg is not None and asdict(expected_cfg) != asdict(cfg):
        raise CheckpointError(f"{path}: config does not match the requested model config")
    expected = param_shapes(cfg)
    params: dict[str, Tensor] = {}
    for (name, _, shape, _), data in zip(entries, payloads):
        if name == "meta.config":
            continue
        if name not in expected or expected[name] != shape:
            raise CheckpointError(f"{path}: unexpected tensor {name} {shape}")
        params[name] = Tensor(data, requires_grad=True)
    missing = sorted(set(expected) - set(params))
    if missing:
        raise CheckpointError(f"{path}: checkpoint missing tensors: {missing[:4]}...")
    return params, cfg
