"""The segmentation model: per-stage projection -> halving encoder ->
restoring decoder -> classifier, composed into one generation stage plus M
refinement stages. A "standard" arm without temporal resampling is kept as
an ablation baseline. Every layer attends through ``attend``, the
``tensor`` slot kernels over its pattern's ``tensor.slot_layout``.

Parameter names follow the checkpoint layout
``stage{s}.{enc|dec}{l}.{qkv|ffn1|ffn2|norm1|norm2|rpe}.{w|b}`` plus
``stage{s}.proj.*`` / ``stage{s}.cls.*``; shared relative-position tables
live under ``stage{s}.rpe.w`` (stage-shared) or ``rpe.scale{e}.w``
(scale-shared). ``qkv.b`` holds the Q and V biases, and ``ffn2`` no bias:
the model cancels the rest (``tensor.slot_project``, ``tensor.ffn_block``).

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
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import PATTERNS, SeedStreams, Tensor, downsample_nearest, slot_layout, upsample_nearest

ARCHITECTURES = ("utrans", "standard")
PE_MODES = ("none", "sinusoidal", "learnable", "relative")
RPE_SHARES = ("none", "stage", "scale")
NORM_EPS = 1e-5  # instance norm's variance floor
# multiply-adds per block when stage 0 projects a row source (128 rows of the
# 50salads preset's 2,048 x 128 projection): few BLAS calls, and each on the
# kernel the whole product takes, since OpenBLAS sums products of up to 10^6
# multiply-adds with a small-matrix kernel that rounds differently
BLOCK_MACS = 1 << 25
PE_MAX_LEN = 4096  # rows of a learnable positional encoding: the longest sequence it takes


@dataclass(frozen=True)
class ModelConfig:
    """Model geometry, attention and dropout settings; frozen, and a value
    out of range raises ``ConfigError`` when it is built. ``input_dim`` and
    ``num_classes`` come from the split. Each encoder and decoder layer is
    attention plus an FFN as wide as its stage's hidden dim (``hidden_dim``,
    then ``hidden_dim_refine`` in each refinement stage)."""

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
    input_dropout: float = 0.4
    ffn_dropout: float = 0.3
    attention_dropout: float = 0.2
    pe_mode: str = "relative"
    rpe_share: str = "scale"
    dtype: str = "f32"

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}", ("architecture",))
        if self.layers < 1 or self.refinement_stages < 0:
            raise ConfigError(
                "layers must be >= 1 and refinement_stages >= 0", ("layers", "refinement_stages")
            )
        for key in ("input_dim", "num_classes", "hidden_dim", "hidden_dim_refine"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}", (key,))
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"unknown dtype {self.dtype!r}", ("dtype",))
        for key in ("input_dropout", "ffn_dropout", "attention_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {getattr(self, key)}", (key,))
        if self.attention not in PATTERNS:
            raise ConfigError(f"unknown attention pattern {self.attention!r}", ("attention",))
        if self.pe_mode not in PE_MODES:
            raise ConfigError(f"unknown pe_mode {self.pe_mode!r}", ("pe_mode",))
        if self.rpe_share not in RPE_SHARES:
            raise ConfigError(f"unknown rpe_share {self.rpe_share!r}", ("rpe_share",))
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and >= 1, got {self.window}", ("window",))
        for key in ("hidden_dim", "hidden_dim_refine"):
            stage_dim = getattr(self, key)
            if self.heads < 1 or stage_dim % self.heads != 0:
                raise ConfigError(
                    f"heads ({self.heads}) must divide model dim ({stage_dim})", ("heads", key)
                )
        if self.pe_mode == "relative" and self.attention != "local":
            raise ConfigError(
                "relative positional encoding requires the local pattern", ("pe_mode", "attention")
            )

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64

    def stage_dims(self, stage: int) -> tuple[int, int]:
        """(input dim, hidden dim) of one stage; its FFN is hidden dim wide too."""
        if stage == 0:
            return self.input_dim, self.hidden_dim
        return self.num_classes, self.hidden_dim_refine

    @property
    def num_stages(self) -> int:
        return self.refinement_stages + 1


@dataclass
class StageOutputs:
    """Per-stage frame logits plus what the losses need: the probability
    nodes ``attend`` returned for encoder layer 1 and decoder layer N.
    A forward under ``tensor.no_grad`` builds no loss, so each stage's
    records are (None, None) there."""

    logits: list[Tensor]
    # (encoder first, decoder last)
    records: list[tuple[Tensor | None, Tensor | None]]


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
    return f"rpe.scale{_scale_exponent(cfg, coder, layer)}.w"


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable tensor, in checkpoint order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for s in range(cfg.num_stages):
        in_dim, hidden = cfg.stage_dims(s)
        if cfg.pe_mode == "learnable":
            shapes[f"stage{s}.ape.w"] = (PE_MAX_LEN, in_dim)
        shapes[f"stage{s}.proj.w"] = (in_dim, hidden)
        shapes[f"stage{s}.proj.b"] = (hidden,)
        for coder in ("enc", "dec"):
            for l in range(1, cfg.layers + 1):
                prefix = f"stage{s}.{coder}{l}"
                shapes[f"{prefix}.qkv.w"] = (hidden, 3 * hidden)
                shapes[f"{prefix}.qkv.b"] = (2 * hidden,)  # Q | V
                shapes[f"{prefix}.norm1.w"] = (hidden,)
                shapes[f"{prefix}.norm1.b"] = (hidden,)
                shapes[f"{prefix}.ffn1.w"] = (hidden, hidden)
                shapes[f"{prefix}.ffn1.b"] = (hidden,)
                shapes[f"{prefix}.ffn2.w"] = (hidden, hidden)
                shapes[f"{prefix}.norm2.w"] = (hidden,)
                shapes[f"{prefix}.norm2.b"] = (hidden,)
                rpe_name = rpe_param_name(cfg, s, coder, l)
                if rpe_name is not None and rpe_name not in shapes:
                    shapes[rpe_name] = (cfg.window, cfg.heads)
        shapes[f"stage{s}.cls.w"] = (hidden, cfg.num_classes)
        shapes[f"stage{s}.cls.b"] = (cfg.num_classes,)
    return shapes


def init_params(cfg: ModelConfig, streams: SeedStreams) -> dict[str, Tensor]:
    """Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), every relative-position
    table among them (fan_in w, whichever way it is shared); gains 1; the
    rest 0.

    Each parameter draws from its own named stream, so changing the layer
    count or stage count never reshuffles the other parameters' draws.
    """
    dtype = cfg.np_dtype
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        kind = name.rsplit(".", 2)[-2]
        if kind == "ape":
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


def _norm(params, name: str, x: Tensor, residual: Tensor) -> Tensor:
    """x + residual, instance-normalized in one node."""
    return T.instance_norm_temporal(
        x, params[f"{name}.w"], params[f"{name}.b"], NORM_EPS, residual=residual
    )


def attend(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    pattern: str,
    window: int,
    heads: int,
    dropout: float = 0.0,
    rpe: Tensor | None = None,
    rng: np.random.Generator | None = None,
    memory: Tensor | None = None,
) -> tuple[Tensor, Tensor | None]:
    """``heads``-head attention under ``pattern`` from the rows of ``x`` to
    as many rows of ``memory``, or of x itself when it is None: the
    ``slot_project`` -> ``slot_softmax`` -> ``slot_mix`` chain of the
    shape's cached ``tensor.slot_layout``.

    ``weight`` (d_in, 3d) projects Q from x and K and V from the key rows,
    and ``bias`` (2d,) holds the Q and V biases (see ``slot_project``).
    Returns the (T, d) output and the (T, heads, S) pre-dropout
    probabilities, whose in-range slots of each row sum to 1 (slot j of row
    i reads key i + offsets[j], or key j for full attention), for the
    boundary loss to read; with no graph being built there is no loss, so
    they are None and freed with the projection buffer before the layer's
    FFN runs. Attention dropout at rate ``dropout`` draws from ``rng`` and
    applies only when one is given.

    Local rows see keys in [i - w//2, i + w//2], clamped: the softmax
    normalizes over in-range slots only, and row j - i + w//2 of the
    (w, heads) relative-position table ``rpe`` is added to the score
    first. w >= 2T - 1 gives the same output as full attention.
    """
    layout = slot_layout(pattern, x.data.shape[0], window)
    qkv = T.slot_project(x, weight, bias, layout, memory)
    probs = T.slot_softmax(qkv, layout, heads, rpe)
    return T.slot_mix(probs, qkv, layout, dropout, rng), probs if T.grad_enabled() else None


def _layer(
    h1: Tensor, memory: Tensor | None, params: dict[str, Tensor], cfg: ModelConfig, stage: int,
    coder: str, layer: int, streams: SeedStreams | None,
) -> tuple[Tensor, Tensor | None]:
    """Attention from the rows of h1 to those of ``memory`` (h1's own when
    it is None), norm, FFN, norm."""
    prefix = f"stage{stage}.{coder}{layer}"
    drops = ("attn", "ffn") if streams is not None else ()
    rng = {k: streams.stream(f"dropout:{prefix}.{k}") for k in drops}
    rpe = rpe_param_name(cfg, stage, coder, layer)
    attn, probs = attend(
        h1, params[f"{prefix}.qkv.w"], params[f"{prefix}.qkv.b"], cfg.attention, cfg.window,
        cfg.heads, cfg.attention_dropout, rpe=params[rpe] if rpe else None, rng=rng.get("attn"),
        memory=memory,
    )
    h2 = _norm(params, f"{prefix}.norm1", attn, h1)
    ffn = T.ffn_block(
        h2, params[f"{prefix}.ffn1.w"], params[f"{prefix}.ffn1.b"], params[f"{prefix}.ffn2.w"],
        cfg.ffn_dropout, rng.get("ffn"),
    )
    return _norm(params, f"{prefix}.norm2", ffn, h2), probs


def encoder_layer(
    h_prev: Tensor,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    stage: int,
    layer: int,
    streams: SeedStreams | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Downsample, windowed self-attention, norm, FFN, norm."""
    h1 = downsample_nearest(h_prev) if cfg.architecture == "utrans" else h_prev
    return _layer(h1, None, params, cfg, stage, "enc", layer, streams)


def decoder_layer(
    h_prev_dec: Tensor,
    h_enc_peer: Tensor,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    stage: int,
    layer: int,
    streams: SeedStreams | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Upsample to the peer's length, cross-attention (Q from the decoder
    path, K/V from the same-resolution encoder output), norm, FFN, norm."""
    target_len = h_enc_peer.data.shape[0]
    h1 = upsample_nearest(h_prev_dec, target_len) if cfg.architecture == "utrans" else h_prev_dec
    return _layer(h1, h_enc_peer, params, cfg, stage, "dec", layer, streams)


def sinusoidal_encoding(length: int, dim: int, dtype=np.float64, start: int = 0) -> np.ndarray:
    """Rows ``start`` to ``start + length`` of the fixed sin/cos position
    table, shape (length, dim); each row depends only on its position."""
    pos = np.arange(start, start + length, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freq = np.exp(-math.log(10000.0) * (2.0 * np.arange(half) / dim))[None, :]
    angles = pos * freq
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, : dim // 2]
    return table.astype(dtype)


def _input_projection(params, cfg: ModelConfig, stage: int, x: Tensor, streams, start=0) -> Tensor:
    """Positional encoding, input dropout and the projection to the stage's
    hidden width; ``x`` holds the sequence's rows from ``start`` on."""
    t, in_dim = x.data.shape
    if cfg.pe_mode == "sinusoidal":
        x = T.add(x, Tensor(sinusoidal_encoding(t, in_dim, dtype=x.data.dtype, start=start)))
    elif cfg.pe_mode == "learnable":
        x = T.add(x, T.slice_rows(params[f"stage{stage}.ape.w"], start, start + t))
    if streams is not None:
        x = T.dropout(x, cfg.input_dropout, streams.stream(f"dropout:stage{stage}.input"))
    return T.linear(x, params[f"stage{stage}.proj.w"], params[f"stage{stage}.proj.b"])


def _project_blocks(params, cfg: ModelConfig, stage: int, source) -> Tensor:
    """``_input_projection`` of a row source, block by block, with no graph
    and no dropout: each ``(start, rows)`` block, in the model dtype, fills
    rows start..stop of the (T, hidden) output, so the (T, input_dim) input
    never exists whole. A block of ``BLOCK_MACS`` (at least half that for a
    tail) keeps the product's sums in the whole product's order, so every
    element is the whole-array path's."""
    t, in_dim = source.shape
    w, b = params[f"stage{stage}.proj.w"].data, params[f"stage{stage}.proj.b"].data
    if in_dim != w.shape[0]:
        raise ShapeError(f"linear: {tuple(source.shape)} x {w.shape} + {b.shape}")
    h = np.empty((t, w.shape[1]), dtype=cfg.np_dtype)
    for start, rows in source.blocks(-(-BLOCK_MACS // w.size)):
        x = Tensor(rows.astype(cfg.np_dtype, copy=False))
        h[start : start + len(rows)] = _input_projection(params, cfg, stage, x, None, start).data
    return Tensor(h)


def check_length(cfg: ModelConfig, t: int):
    """Refuse a sequence length the model cannot take: none is empty, a
    U-transformer halves it once per layer, and a learnable encoding has
    ``PE_MAX_LEN`` rows."""
    if t < 1:
        raise ConfigError("sequence length 0: the model needs at least 1 frame")
    if cfg.architecture == "utrans" and t < 2**cfg.layers:
        raise ConfigError(f"too many layers for sequence length: T={t} < 2^{cfg.layers}")
    if cfg.pe_mode == "learnable" and t > PE_MAX_LEN:
        raise ConfigError(f"sequence length {t} exceeds the learnable encoding's {PE_MAX_LEN} rows")


def stage_forward(
    x,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    stage: int,
    streams: SeedStreams | None = None,
):
    """One projection -> encoder -> decoder -> classifier pass on a Tensor
    or (stage 0, under ``no_grad``) a row source; returns the logits and the
    (encoder first, decoder last) attention probabilities."""
    check_length(cfg, x.shape[0])
    if isinstance(x, Tensor):
        h = _input_projection(params, cfg, stage, x, streams)
    else:
        h = _project_blocks(params, cfg, stage, x)

    enc_outputs = [h]
    enc_first = None
    for layer in range(1, cfg.layers + 1):
        h, probs = encoder_layer(h, params, cfg, stage, layer, streams)
        enc_outputs.append(h)
        if layer == 1:
            enc_first = probs

    # The skips are a stack: each is popped into the one decoder layer that
    # reads it, so under no_grad it is freed when that layer returns.
    h = enc_outputs.pop()
    dec_last = None
    for layer in range(1, cfg.layers + 1):
        h, dec_last = decoder_layer(h, enc_outputs.pop(), params, cfg, stage, layer, streams)

    logits = T.linear(h, params[f"stage{stage}.cls.w"], params[f"stage{stage}.cls.b"])
    return logits, (enc_first, dec_last)


def model_forward(
    x,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    train: bool = False,
    streams: SeedStreams | None = None,
) -> StageOutputs:
    """Run the generation stage plus every refinement stage.

    Stage 0 consumes the projected input features; stage s > 0 consumes the
    softmax probabilities of stage s - 1, so the last stage's are never
    computed. Dropout draws from ``streams`` only when ``train``: every
    layer below drops out iff it is given streams, so this is the one place
    that decides.

    ``x`` is the (T, input_dim) features: an array, a Tensor of the model
    dtype, or, under ``tensor.no_grad``, a row source such as a
    ``data.VideoSample``: ``x.shape == (T, input_dim)``, and
    ``x.blocks(size)`` yields ``(start, rows)`` in row order, ``size`` rows
    at a time and never fewer than ``size // 2`` unless T is. Stage 0
    projects a row source as it is read, so the whole matrix is never held,
    and every logit is byte-equal to the whole array's. Training needs the
    array, since the projection's backward reads it, so a row source raises
    ``TypeError`` while grad is enabled.
    """
    if hasattr(x, "blocks"):
        if T.grad_enabled():
            raise TypeError("a row source is read only under no_grad; training needs the array")
    elif not isinstance(x, Tensor):
        x = Tensor(np.ascontiguousarray(x, dtype=cfg.np_dtype))
    out = StageOutputs(logits=[], records=[])
    streams = streams if train else None
    stage_in = x
    for stage in range(cfg.num_stages):
        if stage:
            stage_in = T.softmax_lastdim(out.logits[-1])
        logits, records = stage_forward(stage_in, params, cfg, stage, streams)
        out.logits.append(logits)
        out.records.append(records)
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
        cfg.heads * length * slot_layout(cfg.attention, length, cfg.window).slots
        for length in stage_attention_lengths(cfg, t)
    )
    return per_stage * cfg.num_stages


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"TUTCKPT1"
_PAYLOAD_ALIGN = 64  # bytes; a cache line, and a multiple of every dtype's size
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_MANIFEST_READ = 1 << 16  # bytes per read while the manifest is parsed


def save_checkpoint(path, params: dict[str, Tensor], cfg: ModelConfig):
    """Versioned binary container: magic, manifest, little-endian payloads.

    The manifest is built once, and each payload is written from its
    array's own buffer."""
    config_blob = np.frombuffer(json.dumps(asdict(cfg), sort_keys=True).encode(), dtype=np.uint8)
    entries = [(b"meta.config", config_blob)]
    entries += [(name.encode(), np.ascontiguousarray(p.data)) for name, p in params.items()]
    # per entry: name length, name, dtype code, rank, dims, payload offset
    formats = [f"<H{len(name)}sBB{arr.ndim}QQ" for name, arr in entries]
    offset = len(CHECKPOINT_MAGIC) + struct.calcsize("<I") + sum(map(struct.calcsize, formats))
    manifest = bytearray(CHECKPOINT_MAGIC + struct.pack("<I", len(entries)))
    for fmt, (name, arr) in zip(formats, entries):
        manifest += struct.pack(
            fmt, len(name), name, _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape, offset
        )
        offset += arr.nbytes
    with open(path, "wb") as fh:
        fh.write(manifest)
        for _, arr in entries:
            fh.write(arr.data)


def _read_checkpoint(path) -> tuple[dict, list[tuple[str, np.dtype, tuple, int]], list[np.ndarray]]:
    """Open a checkpoint once, check its structure and read its payloads.

    The manifest is parsed with ``struct.unpack_from`` from one read of the
    file's first ``_MANIFEST_READ`` bytes (read on if it runs longer). Every
    entry must have a name no other entry has and a known dtype code, and
    the payloads must follow the manifest back to back, in entry order, up
    to the end of the file (so a truncated, padded or mis-pointing file is
    rejected). The payloads are then read with one ``readinto`` into one
    buffer, placed so that the first payload wider than a byte starts on a
    ``_PAYLOAD_ALIGN`` boundary: tensors of one dtype then all sit aligned. Returns the config, the
    (name, dtype, shape, offset) entries and, in entry order, each payload
    as a C-contiguous view of that buffer.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_MANIFEST_READ)
        if head[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        pos = len(CHECKPOINT_MAGIC)

        def take(fmt: str) -> tuple:
            nonlocal head, pos
            at, pos = pos, pos + struct.calcsize(fmt)
            while len(head) < pos:
                more = fh.read(max(_MANIFEST_READ, pos - len(head)))
                if not more:
                    raise CheckpointError(f"{path}: manifest truncated at byte {size}")
                head += more
            return struct.unpack_from(fmt, head, at)

        (count,) = take("<I")
        entries = []
        names = set()
        for _ in range(count):
            # per entry: name length, then name, dtype code and rank, then dims and offset
            (name_len,) = take("<H")
            name, code, rank = take(f"<{name_len}sBB")
            *shape, offset = take(f"<{rank + 1}Q")
            try:
                name = name.decode()
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name is not UTF-8") from None
            if name in names:
                raise CheckpointError(f"{path}: entry {name} is listed twice")
            names.add(name)
            shape = tuple(shape)
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{path}: entry {name} has unknown dtype code {code}")
            entries.append((name, _CODE_DTYPES[code], shape, offset))
        start = end = pos
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
        fh.seek(start)
        if fh.readinto(memoryview(buf)[pad : pad + size - start]) != size - start:
            raise CheckpointError(f"{path}: file shrank while it was read")
    payloads = [
        np.ndarray(shape, dtype, buf, pad + offset - start) for _, dtype, shape, offset in entries
    ]
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


# config keys that earlier checkpoints hold, each at the one value every run
# gave it, as read off the rest of the config
RETIRED_KEYS = {
    "refine_input": lambda cfg: "probs",
    "rpe_split_coders": lambda cfg: False,
    "normalize": lambda cfg: True,
    "norm_eps": lambda cfg: NORM_EPS,
    "pe_max_len": lambda cfg: PE_MAX_LEN,
    "ffn_dim": lambda cfg: cfg.hidden_dim,  # each FFN was its stage's hidden width
    "ffn_dim_refine": lambda cfg: cfg.hidden_dim_refine,
}


def load_checkpoint(path):
    """Rebuild (params, config); shapes are validated against the config.

    A retired config key is dropped when it holds its one value; any other
    value raises ``CheckpointError`` naming it. An earlier layout's biases
    that the model cancels are dropped too (see the loop). Each parameter's
    data is otherwise a view into the one buffer the file was read into."""
    config_dict, entries, payloads = _read_checkpoint(path)
    retired = {key: config_dict.pop(key) for key in RETIRED_KEYS if key in config_dict}
    try:
        cfg = ModelConfig(**config_dict)
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid model config: {exc}") from None
    for key, found in retired.items():
        value = RETIRED_KEYS[key](cfg)
        if found != value:
            raise CheckpointError(f"{path}: retired config key {key!r} is {found!r}, not {value!r}")
    expected = param_shapes(cfg)
    params: dict[str, Tensor] = {}
    for (name, *_), data in zip(entries, payloads):
        if name == "meta.config":
            continue
        weight = expected.get(name[:-1] + "w")
        # an earlier layout's ffn2.b is dropped, and its (3h,) qkv.b loses the K third
        if weight and name.endswith((".ffn2.b", ".qkv.b")) and data.shape == weight[1:]:
            if name.endswith(".ffn2.b"):
                continue
            data = np.concatenate(np.split(data, 3)[::2])
        if expected.get(name) != data.shape:
            raise CheckpointError(f"{path}: unexpected tensor {name} {data.shape}")
        params[name] = Tensor(data, requires_grad=True)
    missing = sorted(set(expected) - set(params))
    if missing:
        raise CheckpointError(f"{path}: checkpoint missing tensors: {missing[:4]}...")
    return params, cfg
