"""Tables, scaling, splits, forecasting windows, and a synthetic energy feed.

The on-disk format is a plain UTF-8 CSV with a header row whose first column
is ``date``; every other column is one numeric channel.  Timestamps must be
strictly increasing and no cell may be empty or non-numeric; violations are
reported with the offending row and column rather than silently patched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .params import Rng

__all__ = [
    "TimeSeriesTable",
    "load_csv",
    "save_csv",
    "chronological_split",
    "Scaler",
    "fit_scaler",
    "apply_scaler",
    "invert_scaler",
    "WindowSample",
    "make_windows",
    "build_decoder_input",
    "SyntheticSpec",
    "generate_synthetic_multienergy",
    "BASE_CHANNELS",
]


@dataclass
class TimeSeriesTable:
    """A dense multivariate series: (T, C) float values with row timestamps."""

    timestamps: list[str]
    values: np.ndarray
    channel_names: list[str]
    target_channel: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"table values must be 2-d, got shape {self.values.shape}")
        if len(self.timestamps) != self.values.shape[0]:
            raise DataError(
                f"{len(self.timestamps)} timestamps for {self.values.shape[0]} rows"
            )
        if len(self.channel_names) != self.values.shape[1]:
            raise DataError(
                f"{len(self.channel_names)} channel names for "
                f"{self.values.shape[1]} columns"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise DataError(f"duplicate channel names: {self.channel_names}")
        if self.target_channel is not None and self.target_channel not in self.channel_names:
            raise ConfigError(
                f"target channel {self.target_channel!r} not in {self.channel_names}"
            )

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel_index(self, name: str) -> int:
        try:
            return self.channel_names.index(name)
        except ValueError:
            raise ConfigError(
                f"unknown channel {name!r}; available: {self.channel_names}"
            ) from None

    def select_channels(self, names: list[str]) -> "TimeSeriesTable":
        idx = [self.channel_index(n) for n in names]
        target = self.target_channel if self.target_channel in names else None
        return TimeSeriesTable(
            timestamps=list(self.timestamps),
            values=self.values[:, idx].copy(),
            channel_names=list(names),
            target_channel=target,
        )

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesTable":
        return TimeSeriesTable(
            timestamps=self.timestamps[start:stop],
            values=self.values[start:stop].copy(),
            channel_names=list(self.channel_names),
            target_channel=self.target_channel,
        )


def load_csv(path) -> TimeSeriesTable:
    """Read a ``date`` + channels CSV, validating order and completeness.

    Timestamps are kept as strings.  Each is parsed once, as an ISO-8601
    datetime or else an integer, and the parsed values must increase
    strictly.  The first stamp fixes the kind; a later stamp of another kind
    is an error.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        if not header or header[0].strip().lower() != "date":
            raise DataError(
                f"{path}: first column must be 'date', got {header[:1] or 'nothing'}"
            )
        channel_names = [h.strip() for h in header[1:]]
        if not channel_names:
            raise DataError(f"{path}: no value columns after 'date'")

        timestamps: list[str] = []
        rows: list[list[float]] = []
        parse = previous = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            stamp = row[0].strip()
            if not stamp:
                raise DataError(f"{path} line {line_no}: empty timestamp")
            if parse is None:
                parse = _stamp_parser(stamp)
                if parse is None:
                    raise DataError(
                        f"{path} line {line_no}: timestamp {stamp!r} is neither "
                        f"an ISO-8601 datetime nor an integer"
                    )
            try:
                moment = parse(stamp)
                ordered = previous is None or moment > previous
            except (ValueError, TypeError):
                raise DataError(
                    f"{path} line {line_no}: timestamp {stamp!r} is not of the same "
                    f"kind as the first one, {timestamps[0]!r}"
                ) from None
            if not ordered:
                raise DataError(
                    f"{path} line {line_no}: timestamp {stamp!r} does not "
                    f"increase over {timestamps[-1]!r}"
                )
            previous = moment
            parsed = []
            for name, cell in zip(channel_names, row[1:]):
                text = cell.strip()
                if not text:
                    raise DataError(
                        f"{path} line {line_no}: missing value in column {name!r}"
                    )
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"{path} line {line_no}: non-numeric value {text!r} "
                        f"in column {name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path} line {line_no}: non-finite value in column {name!r}"
                    )
                parsed.append(value)
            timestamps.append(stamp)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TimeSeriesTable(
        timestamps=timestamps, values=np.array(rows), channel_names=channel_names
    )


def _stamp_parser(stamp: str):
    """``datetime.fromisoformat`` or ``int``, whichever reads ``stamp``; else None."""
    for parse in (datetime.fromisoformat, int):
        try:
            parse(stamp)
        except ValueError:
            continue
        return parse
    return None


def save_csv(table: TimeSeriesTable, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + table.channel_names)
        for stamp, row in zip(table.timestamps, table.values):
            writer.writerow([stamp] + [repr(v) for v in row.tolist()])
    return path


def chronological_split(
    table: TimeSeriesTable,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    min_len: int | None = None,
) -> tuple[TimeSeriesTable, TimeSeriesTable, TimeSeriesTable]:
    """Cut the table into contiguous train/val/test segments, in time order."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be 3 non-negatives summing to 1, got {ratios}")
    t = table.n_steps
    n_train = int(t * ratios[0])
    n_val = int(t * ratios[1])
    bounds = (0, n_train, n_train + n_val, t)
    parts = tuple(table.slice_rows(a, b) for a, b in zip(bounds, bounds[1:]))
    if min_len is not None:
        for name, part in zip(("train", "val", "test"), parts):
            if part.n_steps < min_len:
                raise DataError(
                    f"{name} split has {part.n_steps} rows, needs at least {min_len} "
                    f"to cut one lookback-plus-horizon window"
                )
    return parts


@dataclass
class Scaler:
    """Per-channel z-score transform with statistics frozen at fit time."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray, floor: float = 1e-8) -> "Scaler":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ShapeError(f"scaler fit needs a non-empty (T, C) array, got {values.shape}")
        mean = values.mean(axis=0)
        std = np.maximum(values.std(axis=0), floor)
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean

    def transform_table(self, table: TimeSeriesTable) -> TimeSeriesTable:
        return TimeSeriesTable(
            timestamps=list(table.timestamps),
            values=self.transform(table.values),
            channel_names=list(table.channel_names),
            target_channel=table.target_channel,
        )

    def inverse_table(self, table: TimeSeriesTable) -> TimeSeriesTable:
        return TimeSeriesTable(
            timestamps=list(table.timestamps),
            values=self.inverse(table.values),
            channel_names=list(table.channel_names),
            target_channel=table.target_channel,
        )


def fit_scaler(train_table: TimeSeriesTable) -> Scaler:
    """Per-channel z-score statistics from the training split only."""
    return Scaler.fit(train_table.values)


def apply_scaler(table: TimeSeriesTable, scaler: Scaler) -> TimeSeriesTable:
    return scaler.transform_table(table)


def invert_scaler(table: TimeSeriesTable, scaler: Scaler) -> TimeSeriesTable:
    return scaler.inverse_table(table)


@dataclass
class WindowSample:
    """One training example: a lookback window and the horizon that follows it."""

    enc_input: np.ndarray  # (seq_len, C)
    target: np.ndarray  # (pred_len, C)
    origin: int  # row index of the first lookback step

    @property
    def last_value(self) -> np.ndarray:
        return self.enc_input[-1]

    @property
    def dec_known(self) -> np.ndarray:
        """The second half of the lookback, the part the decoder sees as given."""
        seq_len = self.enc_input.shape[0]
        return self.enc_input[seq_len - seq_len // 2 :]


def make_windows(table: TimeSeriesTable, seq_len: int, pred_len: int) -> list[WindowSample]:
    """Every stride-1 window fully inside the table, ordered by origin."""
    if seq_len < 1 or pred_len < 1:
        raise ConfigError(f"seq_len and pred_len must be positive, got {seq_len}, {pred_len}")
    total = seq_len + pred_len
    if table.n_steps < total:
        raise DataError(
            f"table with {table.n_steps} rows cannot fit a window of "
            f"{seq_len} lookback + {pred_len} horizon steps"
        )
    values = table.values
    return [
        WindowSample(
            enc_input=values[start : start + seq_len],
            target=values[start + seq_len : start + total],
            origin=start,
        )
        for start in range(table.n_steps - total + 1)
    ]


def build_decoder_input(enc_input: np.ndarray, pred_len: int) -> np.ndarray:
    """Known half of the lookback plus zero placeholders, per channel.

    Mirrors what the model assembles internally; exposed so the construction
    can be inspected and tested against the in-graph version.
    """
    enc_input = np.asarray(enc_input, dtype=np.float64)
    if enc_input.ndim != 2:
        raise ShapeError(f"decoder input builder expects (seq_len, C), got {enc_input.shape}")
    seq_len, channels = enc_input.shape
    label = enc_input[seq_len - seq_len // 2 :]
    return np.concatenate([label, np.zeros((pred_len, channels))], axis=0)


BASE_CHANNELS = ("electricity", "gas", "heat", "renewables", "ghg")

# ghg is a fixed mix of the two combustion channels plus its own noise.
_GHG_MIX = {"electricity": 0.6, "gas": 0.35}


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the generated multi-energy table.

    Channels beyond the five named ones are auxiliary consumption series
    whose amplitude, phase, and trend vary deterministically with the channel
    index, so the same spec always yields the same table.
    """

    length: int = 49415
    channels: int = 19
    seed: int = 0
    daily_amp: float = 1.0
    weekly_amp: float = 0.3
    trend_slope: float = 1e-4
    noise_std: float = 0.1
    start_hour: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError(f"length must be positive, got {self.length}")
        if self.channels < 1:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be non-negative, got {self.noise_std}")


def _channel_wave(spec: SyntheticSpec, index: int, t: np.ndarray) -> np.ndarray:
    """Noise-free profile of one channel: two sinusoids plus a linear trend."""
    amp = spec.daily_amp * (1.0 + 0.1 * index)
    phase = 2.0 * np.pi * index / 7.0
    daily = amp * np.sin(2.0 * np.pi * t / 24.0 + phase)
    weekly = spec.weekly_amp * np.sin(2.0 * np.pi * t / 168.0 + 0.5 * phase)
    trend = spec.trend_slope * (1.0 + 0.05 * index) * t
    return daily + weekly + trend


def generate_synthetic_multienergy(spec: SyntheticSpec) -> TimeSeriesTable:
    """An hourly multi-channel energy table with coupled emissions.

    The first five channels are electricity, gas, heat, renewables, and ghg;
    ghg is a fixed linear combination of electricity and gas plus noise, so a
    model can exploit cross-channel structure.  Remaining channels are
    auxiliary series named ``aux00``, ``aux01``, ...
    """
    names = list(BASE_CHANNELS[: min(spec.channels, len(BASE_CHANNELS))])
    names += [f"aux{i:02d}" for i in range(spec.channels - len(names))]

    t = np.arange(spec.length, dtype=np.float64) + spec.start_hour
    rng = Rng(spec.seed).child(7)
    clean: dict[str, np.ndarray] = {}
    columns: list[np.ndarray] = []
    for index, name in enumerate(names):
        if name == "ghg":
            wave = sum(_GHG_MIX[src] * clean[src] for src in _GHG_MIX)
        else:
            wave = _channel_wave(spec, index, t)
        clean[name] = wave
        noise = rng.normal(0.0, spec.noise_std, t.shape) if spec.noise_std > 0 else 0.0
        columns.append(wave + noise)

    epoch = datetime(2020, 1, 1)
    stamps = [
        (epoch + timedelta(hours=spec.start_hour + step)).strftime("%Y-%m-%d %H:%M:%S")
        for step in range(spec.length)
    ]
    return TimeSeriesTable(
        timestamps=stamps, values=np.stack(columns, axis=1), channel_names=names
    )
