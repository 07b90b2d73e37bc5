"""Outside-in instrumentation of the ``tut`` package.

Everything here wraps module attributes that callers look up at call time
(``tut.tensor.<op>``, ``tut.net.attend``, ``tut.trainer.model_forward``,
...); nothing under ``src/`` is edited.

``Hooks`` is the untraced instrumentation: three wrappers that fire once
per training step (or once per eval forward) to mark step boundaries, read
the logged loss and stop a time-bounded run. ``Tracer`` adds layer spans,
per-node backward-closure timing and node counts for the traced run.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

perf = time.perf_counter


class StopRun(Exception):
    """Raised from the step hook once the run has measured enough."""


def _patch(module, attr: str, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))


class Hooks:
    """Step boundaries, per-step loss and frames, and the stop rule.

    ``should_stop(steps)`` is consulted after every optimizer step; the
    first ``model_forward`` call marks the end of set-up.
    """

    def __init__(self, tut, should_stop=None, on_step_end=None):
        self.first_forward_at: float | None = None  # time.monotonic()
        self.step_start: float | None = None
        self.step_seconds: list[float] = []
        self.step_frames: list[int] = []
        self.losses: list[float] = []
        self.forward_frames = 0
        self.should_stop = should_stop
        self.on_step_end = on_step_end
        _patch(tut.trainer, "model_forward", self._wrap_forward)
        _patch(tut.trainer, "total_loss", self._wrap_loss)
        _patch(tut.trainer, "adam_step", self._wrap_adam)

    def _wrap_forward(self, original):
        def model_forward(x, *args, **kwargs):
            if self.first_forward_at is None:
                self.first_forward_at = time.monotonic()
            if self.step_start is None:
                self.step_start = perf()
            self.forward_frames = int(x.shape[0])
            return original(x, *args, **kwargs)

        return model_forward

    def _wrap_loss(self, original):
        def total_loss(*args, **kwargs):
            loss, parts = original(*args, **kwargs)
            self.losses.append(float(parts["total"]))
            return loss, parts

        return total_loss

    def _wrap_adam(self, original):
        def adam_step(*args, **kwargs):
            result = original(*args, **kwargs)
            now = perf()
            self.step_seconds.append(now - self.step_start)
            self.step_frames.append(self.forward_frames)
            self.step_start = now
            if self.on_step_end is not None:
                self.on_step_end()
            if self.should_stop is not None and self.should_stop(len(self.step_seconds)):
                raise StopRun
            return result

        return adam_step


# tut.tensor functions that build graph nodes; composites (linear, mean_all)
# are wrapped too, but a node is attributed to the innermost op that made it.
TENSOR_OPS = (
    "add", "sub", "mul", "div", "matmul", "relu", "clip", "transpose2d", "reshape",
    "slice_cols", "concat_cols", "gather_rows", "scatter_add_rows", "sum_all", "sum_axis",
    "mean_all", "softmax_lastdim", "log_softmax_lastdim", "instance_norm_temporal",
    "dropout", "linear", "cross_entropy_from_logits", "kl_from_probs",
    "wasserstein1_from_probs",
)

# (module, attribute, span name): the layer boundaries of the traced run.
LAYER_SPANS = (
    ("trainer", "model_forward", "net.forward"),
    ("net", "encoder_layer", "net.layer"),
    ("net", "decoder_layer", "net.layer"),
    ("net", "attend", "attention"),
    ("net", "downsample_nearest", "net.resample"),
    ("net", "upsample_nearest", "net.resample"),
    ("trainer", "total_loss", "losses.total"),
    ("losses", "ce_loss", "losses.ce"),
    ("losses", "tmse_loss", "losses.tmse"),
    ("losses", "ba_loss", "losses.ba"),
    ("trainer", "adam_step", "tensor.adam"),
    ("trainer", "init_params", "net.init_params"),
    ("trainer", "load_checkpoint", "net.load_checkpoint"),
    ("cli", "load_checkpoint", "net.load_checkpoint"),
    ("trainer", "save_checkpoint", "net.save_checkpoint"),
    ("cli", "save_checkpoint", "net.save_checkpoint"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "read_features", "data.read_features"),
    ("metrics", "evaluate_corpus", "metrics.evaluate_corpus"),
    ("cli", "render_timeline", "viz.render_timeline"),
)


# spans whose per-call durations are kept (set-up and once-per-video work)
PER_CALL = {
    "net.init_params", "net.load_checkpoint", "net.save_checkpoint", "data.load_dataset",
    "metrics.evaluate_corpus", "viz.render_timeline",
}


class Tracer:
    """Layer spans, node tags and backward-closure timing.

    Each span adds its duration and self time (duration minus its child
    spans) into the current operation's accumulator; ``end_op`` closes an
    operation (a training step or one eval command). Nodes returned by an
    op wrapper are tagged with the op's name and the innermost open span,
    and their backward closure is timed under both tags.
    """

    def __init__(self, tut):
        self.tut = tut
        self.stack: list[list] = []  # [span id, name, start, child seconds]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op index)
        self.next_id = 0
        self.ops: list[dict] = []
        self.cur: dict = defaultdict(float)
        self.calls: dict[str, list[float]] = defaultdict(list)  # per-call durations
        self.feature_bytes = 0
        self.memory_probe = False
        self.retained: list[tuple[int, int]] = []  # (frames, live bytes)
        self._probe_frames = 0
        for mod, attr, name in LAYER_SPANS:
            _patch(getattr(tut, mod), attr, lambda f, n=name: self._span(f, n))
        for op in TENSOR_OPS:
            _patch(tut.tensor, op, lambda f, n=op: self._op(f, n))
        # norm is both an op and a span: net's layer self time excludes it
        _patch(tut.tensor, "instance_norm_temporal", lambda f: self._span(f, "net.norm"))
        _patch(tut.tensor.Tensor, "backward", self._wrap_backward)
        _patch(tut.trainer, "model_forward", self._wrap_forward_probe)

    # -- spans ---------------------------------------------------------
    def _span(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            frame = [span_id, name, perf(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if name == "data.read_features":
                    self.feature_bytes += result.nbytes
                return result
            finally:
                end = perf()
                self.stack.pop()
                duration = end - frame[2]
                self.cur["span:" + name] += duration
                self.cur["self:" + name] += duration - frame[3]
                self.cur["calls:" + name] += 1
                if name in PER_CALL:
                    self.calls[name].append(duration)
                if self.stack:
                    self.stack[-1][3] += duration
                self.spans.append((span_id, parent, name, frame[2], end, len(self.ops)))

        return wrapper

    # -- nodes ---------------------------------------------------------
    def _op(self, fn, op: str):
        tensor_cls = self.tut.tensor.Tensor

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            closure = getattr(out, "_backward", None) if isinstance(out, tensor_cls) else None
            if closure is not None and not getattr(closure, "traced", False):
                scope = self.stack[-1][1] if self.stack else "none"
                cur = self.cur
                cur["nodes"] += 1
                cur["nodes:" + scope] += 1
                cur["bytes:" + scope] += out.data.nbytes
                out._backward = self._timed(closure, "bwd:" + op, "bwdscope:" + scope)
            return out

        return wrapper

    def _timed(self, closure, op_key: str, scope_key: str):
        def timed(g):
            start = perf()
            closure(g)
            dt = perf() - start
            cur = self.cur
            cur[op_key] += dt
            cur[scope_key] += dt
            cur["bwd_closures"] += dt

        timed.traced = True
        return timed

    # -- memory probe --------------------------------------------------
    def _wrap_forward_probe(self, original):
        def model_forward(x, *args, **kwargs):
            if not self.memory_probe:
                return original(x, *args, **kwargs)
            tracemalloc.start()
            self._probe_frames = int(x.shape[0])
            out = original(x, *args, **kwargs)
            if not kwargs.get("train", False):  # eval: the graph the result keeps alive
                self._record_retained()
            return out

        return model_forward

    def _record_retained(self):
        if tracemalloc.is_tracing():
            self.retained.append((self._probe_frames, tracemalloc.get_traced_memory()[0]))
            tracemalloc.stop()

    def _wrap_backward(self, original):
        tracer = self

        def backward(self_tensor, grad=None):
            if tracer.memory_probe:  # forward + loss bytes still live now
                tracer._record_retained()
            return original(self_tensor, grad)

        return self._span(backward, "tensor.backward")

    # -- operations ----------------------------------------------------
    def end_op(self):
        self.ops.append(dict(self.cur))
        self.cur = defaultdict(float)


def op_metrics(acc: dict) -> dict[str, float]:
    """Per-layer figures of one operation from its accumulator."""
    get = lambda key: acc.get(key, 0.0)  # noqa: E731
    backward = get("span:tensor.backward")
    out = {
        "tensor.nodes_per_step": get("nodes"),
        "tensor.backward_s": backward,
        "tensor.bwd_dispatch_s": backward - get("bwd_closures"),
        "tensor.adam_s": get("span:tensor.adam"),
        "attention.fwd_s": get("span:attention"),
        "attention.bwd_s": get("bwdscope:attention"),
        "attention.nodes": get("nodes:attention"),
        "attention.out_mib": get("bytes:attention") / 2**20,
        "net.forward_s": get("span:net.forward"),
        "net.forward_calls_per_video": get("calls:net.forward"),
        "net.resample.fwd_s": get("span:net.resample"),
        "net.resample.bwd_s": get("bwdscope:net.resample"),
        "net.layer_other.fwd_s": get("self:net.layer"),
        "net.checkpoint_loads": get("calls:net.load_checkpoint"),
    }
    for op in ("gather_rows", "mul", "sum_axis", "reshape", "matmul", "slice_cols",
               "instance_norm_temporal", "softmax_lastdim"):
        out[f"tensor.bwd.{op}_s"] = get("bwd:" + op)
    for term in ("ce", "tmse", "ba"):
        out[f"losses.{term}.fwd_s"] = get(f"span:losses.{term}")
        out[f"losses.{term}.bwd_s"] = get(f"bwdscope:losses.{term}")
    out["losses.total_s"] = get("span:losses.total")
    return out
