"""Spans around the library's layers, recorded by rebinding their public names.

Each wrapper records a span: its name, start, end and the span it ran inside.
Spans stay in memory and are written out when the run ends.  Work counts are
computed from operand shapes at the same boundaries, so they repeat exactly:
matmul FLOPs and weight bytes read, and graph nodes and bytes at ``backward``.

Per-layer metrics are taken over the requests of the traced phase (a training
step, an evaluation batch or a forecast, as stamped by the workload's
``UnitClock``): a ``*_ms`` layer time is the median over requests of the time
that layer took within one request, and a count is likewise per request.
Layers that run once per phase or per set-up (validation, checkpoint load,
data synthesis) report the median over their calls instead.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from patchformer import attention, cli, data, model, params, tensor, training

from rebind import rebound

# Layers inside the model that forward_series calls itself; what remains of
# forward_series is the decoder-input build, the flatten and the head.
_MODEL_LEVEL = {
    "embedding.patch_embed",
    "model.encoder_layer",
    "model.decoder_layer",
    "tensor.dropout",
}
_FORWARD = ("model.forward_batch", "model.forward")
# Library calls that hold a whole run of requests (training steps, batches).
_HOLDERS = ["training.train", "training.evaluate"]
_STEP_PARTS = _FORWARD + ("training.loss", "tensor.backward", "training.adam")

# metric name -> (unit, how it is computed)
PER_LAYER = {
    "training.forward_ms": ("ms", "forward_batch or forward, per request"),
    "training.loss_ms": ("ms", "mse_loss, per request"),
    "training.adam_ms": ("ms", "adam_step, per request"),
    "training.batch_ms": ("ms", "request minus forward, loss, backward and Adam"),
    "training.validate_s": ("s", "evaluate called by train, per call"),
    "training.evaluate_s": ("s", "evaluate called by the client, per call"),
    "training.repeat_last_s": ("s", "repeat_last_report, per call"),
    "tensor.backward_ms_p50": ("ms", "Tensor.backward, median over calls"),
    "tensor.backward_ms_p90": ("ms", "Tensor.backward, 90th percentile over calls"),
    "tensor.graph_nodes": ("count", "recorded op nodes reachable from the loss"),
    "tensor.graph_mb": ("MB", "output bytes of those nodes"),
    "tensor.matmul_ms": ("ms", "forward matmul, per request"),
    "tensor.softmax_ms": ("ms", "forward softmax, per request"),
    "tensor.dropout_ms": ("ms", "forward dropout, per request"),
    "tensor.matmul_calls": ("count", "forward matmul calls, per request"),
    "tensor.matmul_gflop": ("GFLOP", "2*m*k*n over forward matmuls, per request"),
    "tensor.matmul_weight_mb": ("MB", "parameter operand bytes, per request"),
    "model.encoder_layer_ms": ("ms", "encoder_layer, per request"),
    "model.decoder_layer_ms": ("ms", "decoder_layer, per request"),
    "model.layer_norm_ms": ("ms", "layer_norm, per request"),
    "model.ffn_ms": ("ms", "feed_forward, per request"),
    "model.head_ms": ("ms", "forward_series minus the model layers under it"),
    "model.forward_series_calls": ("count", "forward_series calls, per request"),
    "model.build_s": ("s", "PatchformerModel.build, per call"),
    "model.load_checkpoint_s": ("s", "load_checkpoint, per call"),
    "attention.self_attn_ms": ("ms", "multi_head_attention on one input, per request"),
    "attention.cross_attn_ms": ("ms", "multi_head_attention on two inputs, per request"),
    "embedding.patch_embed_ms": ("ms", "patch_embed, per request"),
    "data.make_windows_ms": ("ms", "make_windows, per call"),
    "data.synth_s": ("s", "generate_synthetic_multienergy, per call"),
    "data.load_csv_s": ("s", "load_csv, per call"),
    "data.scale_ms": ("ms", "Scaler.transform or inverse, per call"),
    "params.state_dict_ms": ("ms", "ParameterStore.state_dict, per call"),
    "cli.prepare_data_s": ("s", "prepare_data, per call"),
    "trace.overhead_pct": ("%", "traced request p50 over untraced, minus 100"),
    "trace.coverage_pct": ("%", "share of request time inside library spans"),
}

# per-request inclusive time: metric -> span names
_PER_REQUEST_MS = {
    "training.forward_ms": _FORWARD,
    "training.loss_ms": ("training.loss",),
    "training.adam_ms": ("training.adam",),
    "tensor.matmul_ms": ("tensor.matmul",),
    "tensor.softmax_ms": ("tensor.softmax",),
    "tensor.dropout_ms": ("tensor.dropout",),
    "model.encoder_layer_ms": ("model.encoder_layer",),
    "model.decoder_layer_ms": ("model.decoder_layer",),
    "model.layer_norm_ms": ("model.layer_norm",),
    "model.ffn_ms": ("model.ffn",),
    "attention.self_attn_ms": ("attention.self_attn",),
    "attention.cross_attn_ms": ("attention.cross_attn",),
    "embedding.patch_embed_ms": ("embedding.patch_embed",),
}

# per-call duration: metric -> (span name, scale to the metric's unit)
_PER_CALL = {
    "training.repeat_last_s": ("training.repeat_last", 1.0),
    "model.build_s": ("model.build", 1.0),
    "model.load_checkpoint_s": ("model.load_checkpoint", 1.0),
    "data.make_windows_ms": ("data.make_windows", 1e3),
    "data.synth_s": ("data.synth", 1.0),
    "data.load_csv_s": ("data.load_csv", 1.0),
    "data.scale_ms": ("data.scale", 1e3),
    "params.state_dict_ms": ("params.state_dict", 1e3),
    "cli.prepare_data_s": ("cli.prepare_data", 1.0),
}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _graph_size(loss: tensor.Tensor) -> tuple[int, int]:
    """Recorded op nodes reachable from ``loss`` and the bytes of their outputs."""
    seen: set[int] = set()
    stack = [loss]
    nodes = nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            nodes += 1
            nbytes += node.data.nbytes
        stack.extend(node._parents)
    return nodes, nbytes


def _is_parameter(t) -> bool:
    return isinstance(t, tensor.Tensor) and t.requires_grad and t._vjp is None


class Tracer:
    """Records spans in flat lists; ``installed()`` rebinds the library names."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[int, tuple[float, float]] = {}
        self._stack: list[int] = []

    def span(self, name, fn, args, kwargs, work=None):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        if work is not None:
            self.work[idx] = work
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    # -- wrappers --------------------------------------------------------

    def _plain(self, name):
        def factory(fn):
            def traced(*args, **kwargs):
                return self.span(name, fn, args, kwargs)

            return traced

        return factory

    def _attention(self, fn):
        def traced(x_q, x_kv, *args, **kwargs):
            name = "attention.self_attn" if x_q is x_kv else "attention.cross_attn"
            return self.span(name, fn, (x_q, x_kv) + args, kwargs)

        return traced

    def _matmul(self, fn):
        def traced(a, b):
            work = None
            if a.ndim >= 2 and b.ndim >= 2:
                batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                flops = 2.0 * math.prod(batch) * a.shape[-2] * a.shape[-1] * b.shape[-1]
                weight = sum(t.data.nbytes for t in (a, b) if _is_parameter(t))
                work = (flops, float(weight))
            return self.span("tensor.matmul", fn, (a, b), {}, work)

        return traced

    def _backward(self, fn):
        def traced(loss):
            nodes, nbytes = _graph_size(loss)
            return self.span("tensor.backward", fn, (loss,), {}, (float(nodes), float(nbytes)))

        return traced

    def installed(self):
        p = self._plain
        return rebound([
            (cli, "prepare_data", p("cli.prepare_data")),
            (cli, "generate_synthetic_multienergy", p("data.synth")),
            (cli, "load_csv", p("data.load_csv")),
            (data, "load_csv", p("data.load_csv")),
            (data.Scaler, "transform", p("data.scale")),
            (data.Scaler, "inverse", p("data.scale")),
            (training, "make_windows", p("data.make_windows")),
            (training, "train", p("training.train")),
            (training, "evaluate", p("training.evaluate")),
            (training, "repeat_last_report", p("training.repeat_last")),
            (training, "mse_loss", p("training.loss")),
            (training, "adam_step", p("training.adam")),
            (params.ParameterStore, "state_dict", p("params.state_dict")),
            (params.ParameterStore, "zero_grads", p("params.zero_grads")),
            (model.PatchformerModel, "build", p("model.build")),
            (model, "load_checkpoint", p("model.load_checkpoint")),
            (model.PatchformerModel, "forward", p("model.forward")),
            (model.PatchformerModel, "forward_batch", p("model.forward_batch")),
            (model.PatchformerModel, "forward_series", p("model.forward_series")),
            (model, "patch_embed", p("embedding.patch_embed")),
            (model, "encoder_layer", p("model.encoder_layer")),
            (model, "decoder_layer", p("model.decoder_layer")),
            (model, "layer_norm", p("model.layer_norm")),
            (model, "feed_forward", p("model.ffn")),
            (model, "multi_head_attention", self._attention),
            (model, "dropout", p("tensor.dropout")),
            (attention, "dropout", p("tensor.dropout")),
            (attention, "softmax_lastdim", p("tensor.softmax")),
            (tensor, "matmul", self._matmul),
            (tensor.Tensor, "backward", self._backward),
        ])

    # -- analysis --------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def request_of(self, clock) -> np.ndarray:
        """Index of the request each span started in, or -1 outside every request."""
        starts = np.asarray(self.starts)
        pos = np.searchsorted(np.asarray(clock.ends), starts, side="left")
        inside = pos < len(clock.ends)
        req_starts = np.asarray(clock.starts + [math.inf])
        inside &= starts >= req_starts[np.minimum(pos, len(clock.ends))]
        return np.where(inside, pos, -1)

    def _parent_names(self) -> np.ndarray:
        names = np.asarray(self.names, dtype=object)
        parents = np.asarray(self.parents, dtype=int)
        return np.where(parents >= 0, names[np.maximum(parents, 0)], "")

    def _top_level(self) -> np.ndarray:
        """Spans opened by the client, or by the call that holds the requests."""
        parents = np.asarray(self.parents, dtype=int)
        holder = np.isin(self.names, _HOLDERS)
        return ((parents < 0) & ~holder) | np.isin(self._parent_names(), _HOLDERS)

    def metrics(self, clock, untraced_p50_ms: float) -> dict[str, float]:
        """Every per-layer metric over the requests stamped on ``clock``."""
        names = np.asarray(self.names, dtype=object)
        parents = np.asarray(self.parents, dtype=int)
        dur = self.durations()
        req = self.request_of(clock)
        n_req = len(clock.ends)
        req_ms = np.asarray(clock.durations_ms())

        def per_request(select: np.ndarray, values: np.ndarray) -> np.ndarray:
            mask = select & (req >= 0)
            return np.bincount(req[mask], weights=values[mask], minlength=n_req)

        def is_any(span_names) -> np.ndarray:
            return np.isin(names, list(span_names))

        out: dict[str, float] = {}
        for metric, span_names in _PER_REQUEST_MS.items():
            out[metric] = _median(per_request(is_any(span_names), dur * 1e3))

        parts_ms = per_request(is_any(_STEP_PARTS), dur * 1e3)
        out["training.batch_ms"] = _median(req_ms - parts_ms) if n_req else 0.0

        parent_names = self._parent_names()
        evaluate = names == "training.evaluate"
        out["training.validate_s"] = _median(dur[evaluate & (parent_names == "training.train")])
        out["training.evaluate_s"] = _median(dur[evaluate & (parents < 0)])
        for metric, (span_name, scale) in _PER_CALL.items():
            out[metric] = _median(dur[names == span_name] * scale)

        backward = (names == "tensor.backward") & (req >= 0)
        back_ms = dur[backward] * 1e3
        out["tensor.backward_ms_p50"] = _median(back_ms)
        out["tensor.backward_ms_p90"] = float(np.percentile(back_ms, 90)) if back_ms.size else 0.0
        graph = [self.work[i] for i in np.flatnonzero(backward)]
        out["tensor.graph_nodes"] = _median([g[0] for g in graph])
        out["tensor.graph_mb"] = _median([g[1] / 1e6 for g in graph])

        matmul = names == "tensor.matmul"
        flops = np.zeros(len(names))
        weight = np.zeros(len(names))
        for i in np.flatnonzero(matmul):
            flops[i], weight[i] = self.work.get(i, (0.0, 0.0))
        out["tensor.matmul_calls"] = _median(per_request(matmul, np.ones(len(names))))
        out["tensor.matmul_gflop"] = _median(per_request(matmul, flops / 1e9))
        out["tensor.matmul_weight_mb"] = _median(per_request(matmul, weight / 1e6))

        series = names == "model.forward_series"
        out["model.forward_series_calls"] = _median(per_request(series, np.ones(len(names))))
        under_series = np.isin(parent_names, ["model.forward_series"]) & is_any(_MODEL_LEVEL)
        head = np.where(series, dur, 0.0)
        np.subtract.at(head, parents[under_series], dur[under_series])
        out["model.head_ms"] = _median(per_request(series, head * 1e3))

        covered = per_request(self._top_level(), dur * 1e3)
        total = req_ms.sum()
        out["trace.coverage_pct"] = 100.0 * covered.sum() / total if total > 0 else 0.0
        traced_p50 = _median(req_ms)
        out["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50_ms - 1.0)
        return out

    def dump(self, path) -> None:
        """Write every span as ``[name, start_s, end_s, parent]`` rows."""
        t0 = min(self.starts) if self.starts else 0.0
        rows = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
