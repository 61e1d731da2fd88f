"""Encoder-decoder forecaster over patch tokens, channels folded into the batch.

Every channel of a multivariate series runs through the same weights, so the
channels of a window are folded into the batch axis and forecast in one pass:
the encoder ingests the patch tokens of the lookback window, the decoder
ingests the tokens of the second half of the lookback followed by a zero
placeholder for the horizon, and a flattening linear head maps the decoder
output to all ``pred_len`` steps at once.  Channels never mix, because every
op treats each series row on its own: layer norm over the series' own (Z, D)
block, softmax per row, and matmul rows that are independent of one another.
The series stay numpy arrays until the patch projection: the decoder input
and the patch grids are data preparation, so the graph starts at the weights.

Normalisation follows the residual sums: each sublayer output, after
dropout, is added to its input and the sum is normalised over both the patch
and feature axes, with a learnable per-feature scale and shift.  The dropout
mask, the sum and the norm of a sublayer record one fused ``layer_norm``
node; only the two embedding dropouts stay ``dropout`` nodes.

A forward trains exactly when it is given an ``rng``: it then draws dropout
masks at ``ModelConfig.dropout`` from that stream, in a fixed order.  With
``rng=None`` it evaluates and draws nothing.  An evaluation under ``no_grad``
keeps no graph, so it runs in near-equal blocks of at most ``EVAL_ROWS``
series rows, which bounds the memory its temporaries take.  Rows never mix,
so the result is the one-pass result up to the GEMM kernel a BLAS picks for
a block's row count: bitwise at the benchmark shapes, otherwise equal to
rounding.  Grad-mode passes run all rows at once, so training records one
graph per step.

A checkpoint holds the weights, the model config, the z-scaler fitted on the
training split and the channel names, since a model forecasts only the
scaled channels it was trained on.  ``load_checkpoint`` refuses a file that
lacks any of them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .attention import AttentionParams, multi_head_attention
from .data import Scaler
from .embedding import EmbeddingParams, compute_patch_count, patch_embed
from .errors import ConfigError, DataError, ShapeError
from .params import ParameterStore, Rng
from .tensor import Tensor, dropout, dropout_mask, grad_enabled, linear, no_grad
from .tensor import layer_norm as fused_layer_norm

__all__ = [
    "ModelConfig",
    "LayerNormParams",
    "layer_norm",
    "FeedForwardParams",
    "feed_forward",
    "EncoderLayerParams",
    "encoder_layer",
    "DecoderLayerParams",
    "decoder_layer",
    "PatchformerModel",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = 1
LAYER_NORM_EPS = 1e-5
# Most series rows per block of an evaluation forward under ``no_grad``.  At
# D=64 a 32-row block peaks at 4.4 MB of temporaries (tracemalloc), about one
# 4 MiB L2; 64 rows took 8.8 MB.  Measured on the bench's eval_rolling
# workload, 64-row blocks score 4-7% more windows/s, as half as many blocks
# pay the per-op call overhead, for 4.7 MB more peak RSS; 32 keeps the memory.
EVAL_ROWS = 32


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; ``seed`` pins the initial weights."""

    seq_len: int
    pred_len: int
    n_channels: int
    patch_len: int = 16
    stride: int = 8
    d_model: int = 512
    n_heads: int = 8
    d_ff: int | None = None
    n_encoder_layers: int = 2
    n_decoder_layers: int = 1
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.seq_len < 1 or self.pred_len < 1 or self.n_channels < 1:
            raise ConfigError(
                f"seq_len, pred_len and n_channels must be positive, got "
                f"{self.seq_len}, {self.pred_len}, {self.n_channels}"
            )
        if self.n_encoder_layers < 1 or self.n_decoder_layers < 1:
            raise ConfigError("the model needs at least one encoder and one decoder layer")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model {self.d_model} must be a positive multiple of n_heads {self.n_heads}"
            )
        if self.d_ff is not None and self.d_ff < 1:
            raise ConfigError(f"d_ff must be positive, got {self.d_ff}")
        if self.patch_len < 1 or not 1 <= self.stride <= self.patch_len:
            raise ConfigError(
                f"need 1 <= stride <= patch_len, got stride {self.stride} "
                f"and patch_len {self.patch_len}"
            )
        if self.seq_len < self.patch_len:
            raise ConfigError(
                f"seq_len {self.seq_len} is shorter than patch_len {self.patch_len}"
            )
        if self.decoder_len < self.patch_len:
            raise ConfigError(
                f"decoder input of length {self.decoder_len} "
                f"(seq_len // 2 + pred_len) is shorter than patch_len {self.patch_len}"
            )

    @property
    def label_len(self) -> int:
        return self.seq_len // 2

    @property
    def decoder_len(self) -> int:
        return self.label_len + self.pred_len

    @property
    def ffn_width(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model


@dataclass
class LayerNormParams:
    gamma: Tensor  # (d_model,)
    beta: Tensor  # (d_model,)
    eps: float

    @classmethod
    def build(
        cls, store: ParameterStore, prefix: str, d_model: int, eps: float = LAYER_NORM_EPS
    ) -> "LayerNormParams":
        return cls(
            gamma=store.ones(f"{prefix}.gamma", (d_model,)),
            beta=store.zeros(f"{prefix}.beta", (d_model,)),
            eps=eps,
        )


def layer_norm(
    x: Tensor, p: LayerNormParams, sub: Tensor | None = None, rate: float = 0.0,
    rng: Rng | None = None,
) -> Tensor:
    """Normalise ``x + dropout(sub)`` per token block, over its patch and feature axes.

    For a (..., Z, D) input the mean and population standard deviation are
    taken over the trailing Z * D entries, then a per-feature affine applies.
    Given a residual branch ``sub`` and an ``rng``, its dropout mask at
    ``rate`` is drawn here, as ``dropout(sub, rate, rng)`` draws it, and the
    mask, the sum and the norm run as one graph node.
    """
    keep = None
    if sub is not None and rng is not None and rate != 0.0:
        keep = dropout_mask(sub.shape, rate, rng)
    return fused_layer_norm(x, p.gamma, p.beta, p.eps, sub, keep)


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def build(
        cls, store: ParameterStore, prefix: str, d_model: int, d_ff: int
    ) -> "FeedForwardParams":
        return cls(
            w1=store.weight(f"{prefix}.w1", (d_model, d_ff)),
            b1=store.zeros(f"{prefix}.b1", (d_ff,)),
            w2=store.weight(f"{prefix}.w2", (d_ff, d_model)),
            b2=store.zeros(f"{prefix}.b2", (d_model,)),
        )


def feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    return linear(linear(x, p.w1, p.b1).relu(), p.w2, p.b2)


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    norm1: LayerNormParams
    ffn: FeedForwardParams
    norm2: LayerNormParams

    @classmethod
    def build(cls, store: ParameterStore, prefix: str, cfg: ModelConfig) -> "EncoderLayerParams":
        return cls(
            attn=AttentionParams.build(store, f"{prefix}.self_attn", cfg.d_model, cfg.n_heads),
            norm1=LayerNormParams.build(store, f"{prefix}.norm1", cfg.d_model),
            ffn=FeedForwardParams.build(store, f"{prefix}.ffn", cfg.d_model, cfg.ffn_width),
            norm2=LayerNormParams.build(store, f"{prefix}.norm2", cfg.d_model),
        )


def encoder_layer(
    x: Tensor, p: EncoderLayerParams, rate: float = 0.0, rng: Rng | None = None
) -> Tensor:
    attended = multi_head_attention(x, x, p.attn, rate, rng)
    x = layer_norm(x, p.norm1, attended, rate, rng)
    return layer_norm(x, p.norm2, feed_forward(x, p.ffn), rate, rng)


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    norm1: LayerNormParams
    cross_attn: AttentionParams
    norm2: LayerNormParams
    ffn: FeedForwardParams
    norm3: LayerNormParams

    @classmethod
    def build(cls, store: ParameterStore, prefix: str, cfg: ModelConfig) -> "DecoderLayerParams":
        return cls(
            self_attn=AttentionParams.build(store, f"{prefix}.self_attn", cfg.d_model, cfg.n_heads),
            norm1=LayerNormParams.build(store, f"{prefix}.norm1", cfg.d_model),
            cross_attn=AttentionParams.build(store, f"{prefix}.cross_attn", cfg.d_model, cfg.n_heads),
            norm2=LayerNormParams.build(store, f"{prefix}.norm2", cfg.d_model),
            ffn=FeedForwardParams.build(store, f"{prefix}.ffn", cfg.d_model, cfg.ffn_width),
            norm3=LayerNormParams.build(store, f"{prefix}.norm3", cfg.d_model),
        )


def decoder_layer(
    x: Tensor, memory: Tensor, p: DecoderLayerParams, rate: float = 0.0, rng: Rng | None = None
) -> Tensor:
    attended = multi_head_attention(x, x, p.self_attn, rate, rng)
    x = layer_norm(x, p.norm1, attended, rate, rng)
    crossed = multi_head_attention(x, memory, p.cross_attn, rate, rng)
    x = layer_norm(x, p.norm2, crossed, rate, rng)
    return layer_norm(x, p.norm3, feed_forward(x, p.ffn), rate, rng)


class PatchformerModel:
    """The full forecaster: shared embedding, encoder stack, decoder stack, head."""

    def __init__(self, cfg: ModelConfig, store: ParameterStore):
        self.cfg = cfg
        self.store = store
        self.z_encoder = compute_patch_count(cfg.seq_len, cfg.patch_len, cfg.stride)
        self.z_decoder = compute_patch_count(cfg.decoder_len, cfg.patch_len, cfg.stride)
        self.embedding = EmbeddingParams.build(
            store, "embed", cfg.patch_len, cfg.stride, cfg.d_model,
            max(self.z_encoder, self.z_decoder),
        )
        self.encoder_layers = [
            EncoderLayerParams.build(store, f"encoder.{i}", cfg)
            for i in range(cfg.n_encoder_layers)
        ]
        self.decoder_layers = [
            DecoderLayerParams.build(store, f"decoder.{i}", cfg)
            for i in range(cfg.n_decoder_layers)
        ]
        self.head_weight = store.weight(
            "head.weight", (self.z_decoder * cfg.d_model, cfg.pred_len)
        )
        store.seal()

    @classmethod
    def build(cls, cfg: ModelConfig, state: dict | None = None) -> "PatchformerModel":
        """Weights drawn from ``cfg.seed``, or popped out of ``state``, which ends up empty."""
        return cls(cfg, ParameterStore(cfg.seed, state))

    @property
    def n_params(self) -> int:
        return self.store.total_size()

    def decoder_series(self, x: np.ndarray) -> np.ndarray:
        """Second half of the lookback followed by zeros for the horizon."""
        cfg = self.cfg
        label = x[..., cfg.seq_len - cfg.label_len :]
        return np.concatenate([label, np.zeros(x.shape[:-1] + (cfg.pred_len,))], axis=-1)

    def forward_series(self, x: np.ndarray, rng: Rng | None = None) -> Tensor:
        """Forecast a batch of single-channel series: (B, seq_len) -> (B, pred_len).

        Trains with dropout masks drawn from ``rng``; evaluates when it is None.
        An evaluation under ``no_grad`` runs in near-equal blocks of at most
        ``EVAL_ROWS`` rows.  Every row is computed on its own, but a BLAS may
        pick another GEMM kernel for a block's row count than for the whole
        batch, one that sums the head's long inner dimension in another order.
        The result is therefore that of one pass to rounding, and bitwise
        where block and batch land on the same kernel, as at the benchmark
        shapes.  Near-equal blocks leave no short tail block, the case most
        likely to land on a small-matrix kernel.
        """
        x = _as_array(x, "forward_series")
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != self.cfg.seq_len:
            raise ShapeError(
                f"forward_series expects a non-empty (batch, {self.cfg.seq_len}) array, "
                f"got shape {x.shape}"
            )
        if rng is None and not grad_enabled():
            parts = np.array_split(x, -(-len(x) // EVAL_ROWS))
            return Tensor(np.concatenate([self._series_pass(part, None).data for part in parts]))
        return self._series_pass(x, rng)

    def _series_pass(self, x: np.ndarray, rng: Rng | None) -> Tensor:
        """The forward of ``forward_series`` over all rows of ``x`` at once."""
        rate = self.cfg.dropout
        memory = dropout(patch_embed(x, self.embedding), rate, rng)
        for layer in self.encoder_layers:
            memory = encoder_layer(memory, layer, rate, rng)

        decoded = dropout(patch_embed(self.decoder_series(x), self.embedding), rate, rng)
        for layer in self.decoder_layers:
            decoded = decoder_layer(decoded, memory, layer, rate, rng)

        flat = decoded.reshape(x.shape[0], self.z_decoder * self.cfg.d_model)
        return linear(flat, self.head_weight)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forecast one multivariate window: (seq_len, C) -> (pred_len, C).

        Evaluation only.  The C channels form the batch of one
        ``forward_series`` pass, the same fold ``forward_batch`` makes.  Each
        series row is computed on its own, so permuting input channels
        permutes the output bit for bit.
        """
        x = _as_array(x, "forward")
        if x.ndim != 2 or x.shape != (self.cfg.seq_len, self.cfg.n_channels):
            raise ShapeError(
                f"forward expects shape ({self.cfg.seq_len}, {self.cfg.n_channels}), "
                f"got {x.shape}"
            )
        with no_grad():
            out = self.forward_series(np.ascontiguousarray(x.T))
        return np.ascontiguousarray(out.data.T)

    def forward_batch(self, x: np.ndarray, rng: Rng | None = None) -> Tensor:
        """Forecast a batch of windows: (B, seq_len, C) -> Tensor (B, pred_len, C).

        Channels are folded into the batch axis and run in one pass, which
        keeps the graph small and the matmuls large.  Trains with dropout
        masks drawn from ``rng``; evaluates when it is None.
        """
        x = _as_array(x, "forward_batch")
        if x.ndim != 3 or x.shape[1] != self.cfg.seq_len or x.shape[2] != self.cfg.n_channels:
            raise ShapeError(
                f"forward_batch expects (B, {self.cfg.seq_len}, {self.cfg.n_channels}), "
                f"got {x.shape}"
            )
        b, seq_len, c = x.shape
        folded = np.ascontiguousarray(np.transpose(x, (0, 2, 1))).reshape(b * c, seq_len)
        out = self.forward_series(folded, rng)
        return out.reshape(b, c, self.cfg.pred_len).transpose((0, 2, 1))


def _as_array(x, caller: str) -> np.ndarray:
    """``x`` as a float64 array; a ``Tensor`` is refused, since forwards take raw series."""
    if isinstance(x, Tensor):
        raise ShapeError(f"{caller} takes a numpy array of series values, got a Tensor")
    return np.asarray(x, dtype=np.float64)


@dataclass
class Checkpoint:
    """A model restored from disk plus the scaler and channel names saved with it."""

    model: PatchformerModel
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    channel_names: list[str]
    extra: dict

    def scaler(self) -> Scaler:
        """The z-scaler fitted on the training split the weights were trained on."""
        return Scaler(mean=self.scaler_mean, std=self.scaler_std)


def _check_channel_state(path, n_channels, channel_names, scaler_mean, scaler_std) -> None:
    """Channel names must be strings, and names and scaler arrays one per channel."""
    if not isinstance(channel_names, list) or not all(
        isinstance(name, str) for name in channel_names
    ):
        raise DataError(f"{path}: channel names must be a list of strings, got {channel_names!r}")
    if len(channel_names) != n_channels:
        raise DataError(
            f"{path}: {len(channel_names)} channel names for a "
            f"{n_channels}-channel model"
        )
    for label, stat in (("mean", scaler_mean), ("std", scaler_std)):
        if np.shape(stat) != (n_channels,):
            raise DataError(
                f"{path}: scaler {label} has shape {np.shape(stat)}, expected "
                f"({n_channels},) for a {n_channels}-channel model"
            )


def save_checkpoint(
    model: PatchformerModel,
    path,
    scaler_mean: np.ndarray,
    scaler_std: np.ndarray,
    channel_names: list[str],
    extra: dict | None = None,
) -> Path:
    """Write weights, config, scaler state and channel names to one ``.npz`` container.

    Channel names and scaler arrays that do not match the model's channel
    count raise ``DataError`` here, the same check ``load_checkpoint`` makes.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = Path(str(path) + ".npz")
    _check_channel_state(path, model.cfg.n_channels, channel_names, scaler_mean, scaler_std)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.cfg),
        "channel_names": channel_names,
        "extra": extra or {},
    }
    arrays: dict[str, np.ndarray] = {
        f"param.{name}": tensor.data for name, tensor in model.store.items()
    }
    arrays["meta"] = np.array(json.dumps(meta))
    arrays["scaler.mean"] = np.asarray(scaler_mean, dtype=np.float64)
    arrays["scaler.std"] = np.asarray(scaler_std, dtype=np.float64)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


# Keys that older format-1 files carry, with the one value each ever held:
# head widths now follow d_model and n_heads, and layer norm uses
# LAYER_NORM_EPS.  Any other value describes a model this code cannot build.
_RETIRED_KEYS = {"d_v": None, "d_k": None, "layer_norm_eps": LAYER_NORM_EPS}


def _config_from_meta(path: Path, config: dict) -> ModelConfig:
    """The ``ModelConfig`` a checkpoint records; ``DataError`` names a bad key or value."""
    for key, only in _RETIRED_KEYS.items():
        value = config.pop(key, only)
        if value != only:
            raise DataError(f"{path}: unsupported {key}={value!r}; this version builds {only!r}")
    kinds = {f.name: f.type for f in fields(ModelConfig)}
    accepts = {"int": int, "int | None": (int, type(None)), "float": (int, float)}
    for key, value in config.items():
        kind = kinds.get(key, "not a ModelConfig field")
        if isinstance(value, bool) or not isinstance(value, accepts.get(kind, ())):
            raise DataError(f"{path}: bad model config entry {key}={value!r} ({kind})")
    try:
        return ModelConfig(**config)
    except TypeError as exc:  # a required key is missing
        raise DataError(f"{path}: incomplete model config: {exc}") from None
    except ConfigError as exc:  # a value out of range
        raise DataError(f"{path}: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a model bit for bit from ``save_checkpoint`` output, drawing nothing.

    A file without both scaler arrays, or without one string name per
    channel, is a ``DataError`` naming it.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint file not found: {path}")
    with np.load(path, allow_pickle=False) as bundle:
        if "meta" not in bundle:
            raise DataError(f"{path} is not a model checkpoint (no meta entry)")
        meta = json.loads(str(bundle["meta"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise DataError(
                f"unsupported checkpoint format {meta.get('format')!r} in {path}"
            )
        state = {
            key[len("param.") :]: bundle[key] for key in bundle.files if key.startswith("param.")
        }
        if "scaler.mean" not in bundle or "scaler.std" not in bundle:
            raise DataError(f"{path}: no scaler state (needs scaler.mean and scaler.std)")
        scaler_mean = bundle["scaler.mean"]
        scaler_std = bundle["scaler.std"]
    cfg = _config_from_meta(path, dict(meta["config"]))
    channel_names = meta.get("channel_names")
    _check_channel_state(path, cfg.n_channels, channel_names, scaler_mean, scaler_std)
    try:
        model = PatchformerModel.build(cfg, state)
    except (ConfigError, ShapeError) as exc:  # arrays or seed this model cannot take
        raise DataError(f"{path}: {exc}") from None
    return Checkpoint(
        model=model,
        scaler_mean=scaler_mean,
        scaler_std=scaler_std,
        channel_names=channel_names,
        extra=meta.get("extra", {}),
    )
