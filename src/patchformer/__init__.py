"""Patch-based encoder-decoder forecasting on a self-contained autodiff core."""

from .attention import AttentionParams, multi_head_attention
from .data import (
    Scaler,
    SyntheticSpec,
    TimeSeriesTable,
    chronological_split,
    generate_synthetic_multienergy,
    load_csv,
    make_windows,
    save_csv,
)
from .embedding import EmbeddingParams, compute_patch_count, patch_embed, patch_grid
from .errors import (
    CapacityError,
    ConfigError,
    ConstantChannelWarning,
    DataError,
    DeterminismError,
    NumericsError,
    PatchformerError,
    ShapeError,
    TrainingError,
)
from .gradcheck import GradCheckReport, ParamCheck, finite_diff_check
from .model import (
    Checkpoint,
    ModelConfig,
    PatchformerModel,
    feed_forward,
    layer_norm,
    load_checkpoint,
    save_checkpoint,
)
from .params import ParameterStore, Rng
from .tensor import Tensor, dropout, no_grad
from .training import (
    AdamState,
    MetricReport,
    TraceRow,
    TrainConfig,
    TrainResult,
    adam_step,
    average_reports,
    evaluate,
    mae_metric,
    mse_loss,
    mse_metric,
    repeat_last_report,
    train,
    write_loss_trace,
)

__version__ = "0.1.0"
