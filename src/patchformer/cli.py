"""Command-line surface: train, evaluate, forecast, gradcheck, synth, sweep.

Configuration precedence is dataclass defaults, then a flat KEY=VALUE config
file, then explicit command-line flags.  Every run writes a manifest with the
fully resolved configuration it read and the package version, so a run can be
reproduced from its output directory alone; ``evaluate`` adds each
checkpoint's model configuration.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numerical failure (divergence, failed gradient check, non-finite values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Scaler,
    SyntheticSpec,
    TimeSeriesTable,
    _stamp_parser,
    chronological_split,
    generate_synthetic_multienergy,
    load_csv,
    save_csv,
    write_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DeterminismError,
    NumericsError,
    PatchformerError,
    ShapeError,
    TrainingError,
)
from .gradcheck import finite_diff_check
from .model import (
    ModelConfig,
    PatchformerModel,
    load_checkpoint,
    read_model_config,
    save_checkpoint,
)
from .params import Rng
from .training import (
    MetricReport,
    TrainConfig,
    TrainResult,
    average_reports,
    evaluate,
    mse_loss,
    repeat_last_report,
    train,
    write_loss_trace,
)

__all__ = [
    "RunConfig",
    "ResultsTable",
    "resolve_config",
    "run_train",
    "run_lookback_sweep",
    "run_protocol_comparison",
    "main",
]

ENV_OUT_DIR = "PATCHFORMER_OUTDIR"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MODES = ("multivariate", "univariate", "all_at_once")
SPLIT_RATIOS = (0.7, 0.1, 0.2)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one run; defaults follow the reference recipe."""

    data: str | None = None
    channels: tuple[str, ...] | None = None
    synth_length: int = 5000
    synth_channels: int = 5
    synth_seed: int = 0
    synth_noise_std: float = 0.1
    seq_len: int = 96
    pred_len: int = 96
    patch_len: int = 16
    stride: int = 8
    d_model: int = 512
    n_heads: int = 8
    d_ff: int | None = None
    e_layers: int = 2
    d_layers: int = 1
    dropout: float = 0.1
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 0
    mode: str = "multivariate"
    out_dir: str = "runs"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def model_config(self, n_channels: int) -> ModelConfig:
        return ModelConfig(
            seq_len=self.seq_len,
            pred_len=self.pred_len,
            n_channels=n_channels,
            patch_len=self.patch_len,
            stride=self.stride,
            d_model=self.d_model,
            n_heads=self.n_heads,
            d_ff=self.d_ff,
            n_encoder_layers=self.e_layers,
            n_decoder_layers=self.d_layers,
            dropout=self.dropout,
            seed=self.seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, lr=self.lr, seed=self.seed
        )

    def synth_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            length=self.synth_length,
            channels=self.synth_channels,
            seed=self.synth_seed,
            noise_std=self.synth_noise_std,
        )


# Parsers of the RunConfig annotations that are not plain strings.
_PARSERS = {"int": int, "int | None": int, "float": float}


def _coerce_field(name: str, raw: str):
    """Parse one config-file value into the type RunConfig declares for it."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    if name not in kinds:
        raise ConfigError(f"unknown config key {name!r}")
    raw = raw.strip()
    if name == "channels":
        return tuple(part.strip() for part in raw.split(",") if part.strip()) or None
    if kinds[name] == "int | None" and raw.lower() in ("", "none"):
        return None
    try:
        return _PARSERS.get(kinds[name], str)(raw)
    except ValueError:
        raise ConfigError(f"config key {name!r} expects a number, got {raw!r}") from None


def _read_config_file(path: str) -> dict:
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"config file not found: {file}")
    values = {}
    for line_no, line in enumerate(file.read_text(encoding="utf-8").splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{file} line {line_no}: expected KEY=VALUE, got {text!r}")
        key, _, value = text.partition("=")
        values[key.strip()] = _coerce_field(key.strip(), value)
    return values


def resolve_config(
    cli_values: dict, config_path: str | None = None, base: dict | None = None
) -> RunConfig:
    """Apply precedence: dataclass defaults, then config file, then flags.

    ``base`` overrides the dataclass defaults before the file is read; the
    gradcheck subcommand uses it to start from a deliberately tiny model, and
    evaluate to tell lengths it was given from lengths nobody set.
    """
    known = {f.name for f in fields(RunConfig)}
    merged: dict = dict(base) if base else {}
    if config_path:
        merged.update(_read_config_file(config_path))
    for key, value in cli_values.items():
        if key in known and value is not None:
            merged[key] = value
    if "channels" in merged and isinstance(merged["channels"], str):
        merged["channels"] = _coerce_field("channels", merged["channels"])
    if "out_dir" not in merged:
        merged["out_dir"] = os.environ.get(ENV_OUT_DIR, "runs")
    return RunConfig(**merged)


class ResultsTable:
    """MSE/MAE rows keyed by (dataset, model, pred_len, mode): each added once, kept sorted."""

    COLUMNS = ("dataset", "model", "pred_len", "mode", "mse", "mae")

    def __init__(self):
        self._rows: dict[tuple[str, str, int, str], tuple[float, float]] = {}

    def add(self, dataset: str, model: str, pred_len: int, mode: str, report: MetricReport):
        key = (str(dataset), str(model), int(pred_len), str(mode))
        if key in self._rows:
            raise ConfigError(f"two runs share the results row {key}; use separate --out-dirs")
        self._rows[key] = (float(report.mse), float(report.mae))

    def rows(self) -> list[tuple[str, str, int, str, float, float]]:
        return [key + value for key, value in sorted(self._rows.items())]

    def write(self, out_dir) -> None:
        """Write ``results.csv`` and its rendered twin ``results.txt`` into ``out_dir``."""
        out_dir = Path(out_dir)
        write_csv(out_dir / "results.csv", self.COLUMNS, self.rows())
        (out_dir / "results.txt").write_text(self.render_text(), encoding="utf-8")

    def render_text(self) -> str:
        rows = [
            (r[0], r[1], str(r[2]), r[3], f"{r[4]:.6f}", f"{r[5]:.6f}") for r in self.rows()
        ]
        table = [self.COLUMNS, *rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(self.COLUMNS))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


@dataclass
class PreparedData:
    """Everything a training or evaluation run needs, already scaled."""

    dataset_name: str
    channel_names: list[str]
    scaler: Scaler
    train: TimeSeriesTable
    val: TimeSeriesTable
    test: TimeSeriesTable


def _load_table(cfg: RunConfig) -> tuple[str, TimeSeriesTable]:
    if cfg.data is not None:
        return Path(cfg.data).stem, load_csv(cfg.data)
    return "synthetic", generate_synthetic_multienergy(cfg.synth_spec())


def _check_mode(mode: str, n_channels: int) -> None:
    """Refuse a mode that a table or checkpoint of ``n_channels`` channels cannot serve."""
    if mode == "univariate" and n_channels != 1:
        raise ConfigError(f"univariate mode needs exactly one channel, got {n_channels}")
    if mode == "all_at_once" and n_channels < 2:
        raise ConfigError(f"all_at_once mode needs two or more channels, got {n_channels}")


def prepare_data(cfg: RunConfig) -> PreparedData:
    """Load or synthesize, narrow channels per mode, split, and scale."""
    name, table = _load_table(cfg)
    if cfg.channels is not None:
        table = table.select_channels(list(cfg.channels))
    _check_mode(cfg.mode, table.n_channels)
    min_len = cfg.seq_len + cfg.pred_len
    train_raw, val_raw, test_raw = chronological_split(table, SPLIT_RATIOS, min_len=min_len)
    scaler = Scaler.fit(train_raw.values, channel_names=train_raw.channel_names)
    return PreparedData(
        dataset_name=name,
        channel_names=list(table.channel_names),
        scaler=scaler,
        train=scaler.transform_table(train_raw),
        val=scaler.transform_table(val_raw),
        test=scaler.transform_table(test_raw),
    )


def write_manifest(command: str, out_dir: Path, config: dict, **extra) -> Path:
    """Make ``out_dir`` and write its ``manifest.json``: command, version, settings, ``extra``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": command, "version": __version__, "config": config, **extra}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


@dataclass
class TrainOutputs:
    """Artifacts of one training run, for callers and for the CLI printer."""

    result: TrainResult
    model: PatchformerModel
    data: PreparedData
    test_report: MetricReport
    baseline_report: MetricReport
    best_checkpoint_path: Path


def _score_test(
    results: ResultsTable, dataset: str, mode: str, model: PatchformerModel,
    test: TimeSeriesTable, checkpoint: Path | str,
) -> tuple[MetricReport, MetricReport]:
    """Score ``model`` and the repeat-last baseline on ``test``; add both rows to ``results``.

    A non-finite score is a ``NumericsError`` naming ``checkpoint``, the file
    ``model`` was saved to or loaded from, and adds no row.
    """
    report = evaluate(model, test)
    if not np.isfinite([report.mse, report.mae]).all():
        raise NumericsError(
            f"checkpoint {checkpoint} scores test mse {report.mse}, mae {report.mae}"
        )
    baseline = repeat_last_report(test, model.cfg.seq_len, model.cfg.pred_len)
    results.add(dataset, "patchformer", model.cfg.pred_len, mode, report)
    results.add(dataset, "repeat_last", model.cfg.pred_len, mode, baseline)
    return report, baseline


def run_train(cfg: RunConfig) -> TrainOutputs:
    """Full training pipeline; the returned model holds the best-val weights."""
    train_cfg = cfg.train_config()
    prepared = prepare_data(cfg)
    model = PatchformerModel.build(cfg.model_config(len(prepared.channel_names)))
    out_dir = Path(cfg.out_dir)
    write_manifest("train", out_dir, asdict(cfg), seed=cfg.seed, dataset=prepared.dataset_name)

    result = train(model, prepared.train, prepared.val, train_cfg)

    write_loss_trace(result.trace, out_dir / "loss_trace.csv")
    saved_with = dict(
        scaler_mean=prepared.scaler.mean, scaler_std=prepared.scaler.std,
        channel_names=prepared.channel_names,
        extra={"dataset": prepared.dataset_name, "best_epoch": result.best_epoch},
    )
    # ``train`` leaves the model holding its final weights.
    save_checkpoint(model, out_dir / "model.npz", **saved_with)
    model = PatchformerModel.build(model.cfg, dict(result.best_state))
    best_checkpoint_path = save_checkpoint(model, out_dir / "model_best.npz", **saved_with)

    results = ResultsTable()
    test_report, baseline = _score_test(
        results, prepared.dataset_name, cfg.mode, model, prepared.test, best_checkpoint_path
    )
    results.write(out_dir)
    return TrainOutputs(
        result=result,
        model=model,
        data=prepared,
        test_report=test_report,
        baseline_report=baseline,
        best_checkpoint_path=best_checkpoint_path,
    )


def run_lookback_sweep(
    cfg: RunConfig, lookbacks: list[int], pred_lens: list[int]
) -> ResultsTable:
    """Train one model per (lookback, horizon) pair at a fixed seed."""
    if not lookbacks or not pred_lens:
        raise ConfigError("sweep needs at least one lookback and one pred_len")
    for name, values in (("lookbacks", lookbacks), ("pred_lens", pred_lens)):
        if len(set(values)) != len(values):
            raise ConfigError(f"sweep {name} names a value twice: {values}")
    out_dir = Path(cfg.out_dir)
    write_manifest(
        "sweep", out_dir, asdict(cfg), seed=cfg.seed,
        kind="lookback", lookbacks=lookbacks, pred_lens=pred_lens,
    )
    results = ResultsTable()
    for pred_len in pred_lens:
        for lookback in lookbacks:
            entry = replace(
                cfg,
                seq_len=lookback,
                pred_len=pred_len,
                out_dir=str(out_dir / f"I{lookback}_O{pred_len}"),
            )
            outputs = run_train(entry)
            dataset = outputs.data.dataset_name
            results.add(dataset, f"patchformer_I{lookback}", pred_len, cfg.mode, outputs.test_report)
            results.add(dataset, f"repeat_last_I{lookback}", pred_len, cfg.mode, outputs.baseline_report)
    results.write(out_dir)
    return results


def run_protocol_comparison(cfg: RunConfig, subset: tuple[str, ...]) -> ResultsTable:
    """Score one multi-channel model against averaged single-channel models.

    The all-at-once row trains a single model on the named subset and scores
    all its channels simultaneously; the average row trains one univariate
    model per channel and takes the arithmetic mean of their metrics.
    """
    if len(subset) < 2:
        raise ConfigError(f"protocol comparison needs two or more channels, got {subset}")
    out_dir = Path(cfg.out_dir)
    write_manifest(
        "sweep", out_dir, asdict(cfg), seed=cfg.seed, kind="protocol", subset=list(subset)
    )
    results = ResultsTable()

    joint_cfg = replace(
        cfg, channels=subset, mode="all_at_once", out_dir=str(out_dir / "all_at_once")
    )
    joint = run_train(joint_cfg)
    dataset = joint.data.dataset_name
    results.add(dataset, "patchformer", cfg.pred_len, "all_at_once", joint.test_report)
    results.add(dataset, "repeat_last", cfg.pred_len, "all_at_once", joint.baseline_report)

    single_reports = []
    single_baselines = []
    for name in subset:
        single_cfg = replace(
            cfg, channels=(name,), mode="univariate", out_dir=str(out_dir / f"single_{name}")
        )
        single = run_train(single_cfg)
        single_reports.append(single.test_report)
        single_baselines.append(single.baseline_report)
        results.add(dataset, "patchformer", cfg.pred_len, f"univariate:{name}", single.test_report)
    results.add(dataset, "patchformer", cfg.pred_len, "average", average_reports(single_reports))
    results.add(dataset, "repeat_last", cfg.pred_len, "average", average_reports(single_baselines))
    results.write(out_dir)
    return results


# -- subcommand handlers -------------------------------------------------------


def _cli_config(args: argparse.Namespace) -> RunConfig:
    return resolve_config(vars(args), getattr(args, "config", None))


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _cli_config(args)
    started = time.time()
    outputs = run_train(cfg)
    last = outputs.result.trace[-1]
    print(
        f"trained {cfg.epochs} epochs in {time.time() - started:.1f}s; "
        f"best epoch {outputs.result.best_epoch} "
        f"(val mse {outputs.result.trace[outputs.result.best_epoch].val_mse:.6f})"
    )
    print(f"final train mse {last.train_mse:.6f}  val mse {last.val_mse:.6f}")
    print(
        f"test mse {outputs.test_report.mse:.6f}  mae {outputs.test_report.mae:.6f}  "
        f"(repeat-last baseline mse {outputs.baseline_report.mse:.6f})"
    )
    print(f"artifacts in {cfg.out_dir}")
    return EXIT_OK


# The RunConfig fields evaluate reads; each checkpoint fixes its own model.
_EVALUATE_FIELDS = (
    "data", "synth_length", "synth_channels", "synth_seed", "synth_noise_std", "mode", "out_dir",
)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = resolve_config(vars(args), args.config, base={"seq_len": None, "pred_len": None})
    name, source = _load_table(cfg)
    # Every checkpoint is checked from its meta entry before any is scored.
    row_of: dict[int, str] = {}
    for checkpoint_path in args.checkpoint:
        model_cfg = read_model_config(checkpoint_path)
        for field_name in ("seq_len", "pred_len"):
            wanted = getattr(cfg, field_name)
            have = getattr(model_cfg, field_name)
            if wanted is not None and wanted != have:
                raise ConfigError(
                    f"checkpoint {checkpoint_path} was trained with "
                    f"{field_name}={have}, not {wanted}"
                )
        try:
            _check_mode(cfg.mode, model_cfg.n_channels)
        except ConfigError as exc:
            raise ConfigError(f"checkpoint {checkpoint_path}: {exc}") from None
        if model_cfg.pred_len in row_of:
            raise ConfigError(
                f"checkpoints {row_of[model_cfg.pred_len]} and {checkpoint_path} share the "
                f"results rows of pred_len={model_cfg.pred_len}; use separate --out-dirs"
            )
        row_of[model_cfg.pred_len] = checkpoint_path
    results = ResultsTable()
    evaluated = []
    for checkpoint_path in args.checkpoint:
        bundle = load_checkpoint(checkpoint_path)
        model = bundle.model
        table = source.select_channels(bundle.channel_names)
        min_len = model.cfg.seq_len + model.cfg.pred_len
        _, _, test_raw = chronological_split(table, SPLIT_RATIOS, min_len=min_len)
        test = bundle.scaler().transform_table(test_raw)
        report, baseline = _score_test(results, name, cfg.mode, model, test, checkpoint_path)
        evaluated.append({"path": checkpoint_path, "model": asdict(model.cfg)})
        print(
            f"{checkpoint_path}: test mse {report.mse:.6f}  mae {report.mae:.6f}  "
            f"(baseline mse {baseline.mse:.6f})"
        )
    config = {key: getattr(cfg, key) for key in _EVALUATE_FIELDS}
    write_manifest("evaluate", Path(cfg.out_dir), config, checkpoints=evaluated)
    results.write(cfg.out_dir)
    print(f"results in {cfg.out_dir}")
    return EXIT_OK


def _extrapolate_stamps(stamps: list[str], count: int) -> list[str]:
    """Continue the observed sampling interval past the last timestamp.

    Stamps are read the way ``load_csv`` reads them, as ISO-8601 datetimes or
    integers, and the new ones are written in the layout of the last stamp,
    so a forecast file loads again.
    """
    if len(stamps) < 2:
        raise DataError("need at least two timestamps to infer the sampling interval")
    parse = _stamp_parser(stamps[-1])
    try:
        previous, last = parse(stamps[-2]), parse(stamps[-1])
        increasing = last > previous
    except (TypeError, ValueError):  # no parser, two kinds, or naive against aware
        increasing = False
    if not increasing:
        raise DataError(
            f"cannot infer a sampling interval from timestamps "
            f"{stamps[-2]!r}, {stamps[-1]!r}"
        )
    moments = [last + (last - previous) * (i + 1) for i in range(count)]
    if parse is int:
        return [str(m) for m in moments]
    return _iso_like(stamps[-1], last, moments)


def _iso_like(example: str, moment: datetime, moments: list[datetime]) -> list[str]:
    """Write ``moments`` in the ISO-8601 layout that ``example`` uses for ``moment``.

    The separator and the precision follow ``example``; when that layout
    cannot express every moment exactly, the full ``isoformat`` is used.
    """
    day = moment.date().isoformat()
    sep = example[len(day)] if example.startswith(day) and len(example) > len(day) else "T"
    layouts = [lambda m: m.date().isoformat()] + [
        lambda m, spec=spec: m.isoformat(sep, spec)
        for spec in ("hours", "minutes", "seconds", "milliseconds", "microseconds")
    ]
    render = next((r for r in layouts if r(moment) == example), lambda m: m.isoformat(sep))
    texts = [render(m) for m in moments]
    if any(datetime.fromisoformat(text) != m for text, m in zip(texts, moments)):
        texts = [m.isoformat(sep) for m in moments]
    return texts


def cmd_forecast(args: argparse.Namespace) -> int:
    bundle = load_checkpoint(args.checkpoint)
    model = bundle.model
    window = load_csv(args.window)
    if window.channel_names != bundle.channel_names:
        raise DataError(
            f"window channels {window.channel_names} do not match the "
            f"checkpoint's {bundle.channel_names}"
        )
    if window.n_steps != model.cfg.seq_len:
        raise ShapeError(
            f"forecast window must have exactly {model.cfg.seq_len} rows, "
            f"got {window.n_steps}"
        )
    scaler = bundle.scaler()
    scaled = scaler.transform(window.values)
    prediction = scaler.inverse(model.forward(scaled))
    if not np.isfinite(prediction).all():
        raise NumericsError(f"checkpoint {args.checkpoint} forecasts non-finite values")
    stamps = _extrapolate_stamps(window.timestamps, model.cfg.pred_len)
    out_table = TimeSeriesTable(
        timestamps=stamps, values=prediction, channel_names=window.channel_names
    )
    out_path = Path(args.out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(out_table, out_path)
    print(f"wrote {model.cfg.pred_len}-step forecast to {out_path}")
    return EXIT_OK


GRADCHECK_DEFAULTS = {
    "seq_len": 16,
    "pred_len": 8,
    "patch_len": 4,
    "stride": 2,
    "d_model": 8,
    "n_heads": 2,
    "d_ff": 16,
    "e_layers": 1,
    "d_layers": 1,
    "dropout": 0.0,
}


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = resolve_config(vars(args), args.config, base=GRADCHECK_DEFAULTS)
    model_cfg = cfg.model_config(args.gradcheck_channels)
    if cfg.dropout != 0.0:
        raise ConfigError("gradient checking requires dropout 0 (deterministic loss)")
    model = PatchformerModel.build(model_cfg)
    if model.n_params > args.max_elements:
        raise ConfigError(
            f"model has {model.n_params} parameters; gradcheck is capped at "
            f"{args.max_elements} (shrink the configuration or raise --max-elements)"
        )
    rng = Rng(cfg.seed).child(3)
    x = rng.normal(0.0, 1.0, (1, model_cfg.seq_len, model_cfg.n_channels))
    y = rng.normal(0.0, 1.0, (1, model_cfg.pred_len, model_cfg.n_channels))

    def loss_fn():
        return mse_loss(model.forward_batch(x), y)

    corrupt = model.store.names()[0] if args.corrupt_gradient else None
    report = finite_diff_check(
        loss_fn, model.store, eps=args.eps, tol=args.tol, corrupt=corrupt
    )
    for line in report.format_lines():
        print(line)
    if not report.passed:
        offenders = [c.name for c in report.checks if c.max_rel_err > report.tol]
        print(f"failed parameters: {', '.join(offenders)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _cli_config(args)
    table = generate_synthetic_multienergy(cfg.synth_spec())
    out_path = Path(args.out_file) if args.out_file else Path(cfg.out_dir) / "synthetic.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(table, out_path)
    print(f"wrote {table.n_steps} rows x {table.n_channels} channels to {out_path}")
    return EXIT_OK


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _cli_config(args)
    if args.kind == "lookback":
        lookbacks = _parse_int_list(args.lookbacks, "--lookbacks")
        pred_lens = _parse_int_list(args.pred_lens, "--pred-lens")
        results = run_lookback_sweep(cfg, lookbacks, pred_lens)
    else:
        subset = cfg.channels if cfg.channels is not None else ("electricity", "gas", "ghg")
        results = run_protocol_comparison(cfg, subset)
    print(results.render_text(), end="")
    print(f"results in {cfg.out_dir}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract.

    A numeric flag takes the next word as its value even when that word
    starts with ``-``: ``--lr -inf`` parses as ``--lr=-inf`` does, so the
    value reaches its own check.  Plain argparse reads ``-inf`` as a flag.
    """

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for word in sys.argv[1:] if args is None else args:
            action = self._option_string_actions.get(joined[-1]) if joined else None
            if (
                action is not None and action.type in (int, float)
                and word.startswith("-") and word not in self._option_string_actions
            ):
                joined[-1] = f"{joined[-1]}={word}"
            else:
                joined.append(word)
        return super().parse_known_args(joined, namespace)


# Run flags by help section.  Each sets the RunConfig field of its name and
# parses its value as that field's type; --config names a file of them.
_RUN_FLAGS = {
    "general": ("--config", "--out-dir", "--seed"),
    "data": (
        "--data", "--channels", "--synth-length", "--synth-channels", "--synth-seed",
        "--synth-noise-std",
    ),
    "model": (
        "--seq-len", "--pred-len", "--patch-len", "--stride", "--d-model", "--n-heads",
        "--d-ff", "--e-layers", "--d-layers", "--dropout",
    ),
    "training": ("--epochs", "--batch-size", "--lr", "--mode"),
}
_FLAG_HELP = {
    "--config": "flat KEY=VALUE config file",
    "--out-dir": "output directory",
    "--data": "CSV dataset path (default: synthetic)",
    "--channels": "comma-separated channel subset",
}


def _add_run_flags(parser: argparse.ArgumentParser, *picks: str) -> None:
    """Register the run flags named in ``picks``, one by one or by section, and no others."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    for title, section in _RUN_FLAGS.items():
        chosen = [flag for flag in section if title in picks or flag in picks]
        group = parser if title == "general" else parser.add_argument_group(title)
        for flag in chosen:
            dest = flag[2:].replace("-", "_")
            group.add_argument(
                flag, type=_PARSERS.get(kinds.get(dest)), help=_FLAG_HELP.get(flag),
                choices=MODES if dest == "mode" else None,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patchformer", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoints")
    _add_run_flags(p_train, *_RUN_FLAGS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score checkpoints on the test split")
    # The checkpoint fixes the model and its channels; the flags pick the data
    # and check the checkpoints' lengths.
    _add_run_flags(
        p_eval, "--config", "--seq-len", "--pred-len",
        *("--" + key.replace("_", "-") for key in _EVALUATE_FIELDS),
    )
    p_eval.add_argument(
        "--checkpoint", action="append", required=True, help="checkpoint file (repeatable)"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_fc = sub.add_parser("forecast", help="forecast one lookback window from a CSV")
    p_fc.add_argument("--checkpoint", required=True)
    p_fc.add_argument("--window", required=True, help="CSV with exactly seq_len rows")
    p_fc.add_argument("--out-file", required=True, help="where to write the forecast CSV")
    p_fc.set_defaults(func=cmd_forecast)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of the whole model")
    _add_run_flags(p_gc, "--config", "--seed", "model")
    p_gc.add_argument("--gradcheck-channels", type=int, default=2, help="series channels")
    p_gc.add_argument("--eps", type=float, default=1e-4)
    p_gc.add_argument("--tol", type=float, default=1e-4)
    p_gc.add_argument("--max-elements", type=int, default=20000)
    p_gc.add_argument(
        "--corrupt-gradient", action="store_true",
        help="negative control: corrupt one gradient and expect failure",
    )
    p_gc.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="write a synthetic multi-energy CSV")
    _add_run_flags(
        p_synth, "--config", "--out-dir", "--synth-length", "--synth-channels", "--synth-seed",
        "--synth-noise-std",
    )
    p_synth.add_argument("--out-file", help="CSV path (default <out-dir>/synthetic.csv)")
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="lookback grid or protocol comparison")
    _add_run_flags(p_sweep, *_RUN_FLAGS)
    p_sweep.add_argument("--kind", choices=("lookback", "protocol"), default="lookback")
    p_sweep.add_argument("--lookbacks", default="24,48,96,192,336")
    p_sweep.add_argument("--pred-lens", default="96,720")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericsError, DeterminismError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PatchformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
