"""Tables, scaling, splits, forecasting windows, and a synthetic energy feed.

The on-disk format is a plain UTF-8 CSV with a header row whose first column
is ``date``; every other column is one numeric channel.  Timestamps must be
strictly increasing and no cell may be empty or non-numeric; violations are
reported with the offending row and column rather than silently patched.

``Scaler`` is the one z-score transform: ``Scaler.fit`` on the training
split, then ``transform``/``inverse`` on arrays or ``transform_table`` on a
table.  ``make_windows`` cuts a table into every stride-1 forecasting window
as one read-only (N, seq_len + pred_len, C) view of its values; window i
starts at row i, and callers index it by origin instead of building one
object per window.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConstantChannelWarning, DataError, ShapeError
from .params import Rng

__all__ = [
    "TimeSeriesTable",
    "load_csv",
    "save_csv",
    "write_csv",
    "chronological_split",
    "Scaler",
    "make_windows",
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
        return TimeSeriesTable(
            timestamps=list(self.timestamps),
            values=self.values[:, idx].copy(),
            channel_names=list(names),
        )

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesTable":
        return TimeSeriesTable(
            timestamps=self.timestamps[start:stop],
            values=self.values[start:stop].copy(),
            channel_names=list(self.channel_names),
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


def write_csv(path, header, rows) -> Path:
    """The one CSV writer: ``header``, then ``rows``; a float is written as its exact ``repr``."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def save_csv(table: TimeSeriesTable, path) -> Path:
    rows = ([stamp, *row.tolist()] for stamp, row in zip(table.timestamps, table.values))
    return write_csv(path, ["date", *table.channel_names], rows)


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
    def fit(cls, values: np.ndarray, channel_names: list[str] | None = None) -> "Scaler":
        """Mean and population std per channel of a (T, C) array.

        A channel whose std is below 1e-8 times max(1, |mean|) is flat:
        it keeps std 1.0, so it is centred but not scaled, and a
        ``ConstantChannelWarning`` names it.  Dividing later values by the
        tiny std would blow them up.  The floor grows with |mean| because
        rounding alone gives a constant channel of large values a std of
        about 1e-16 |mean|.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ShapeError(f"scaler fit needs a non-empty (T, C) array, got {values.shape}")
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        flat = std < 1e-8 * np.maximum(np.abs(mean), 1.0)
        for index in np.flatnonzero(flat):
            name = channel_names[index] if channel_names is not None else None
            warnings.warn(ConstantChannelWarning(int(index), name), stacklevel=2)
        return cls(mean=mean, std=np.where(flat, 1.0, std))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean

    def transform_table(self, table: TimeSeriesTable) -> TimeSeriesTable:
        return TimeSeriesTable(
            timestamps=list(table.timestamps),
            values=self.transform(table.values),
            channel_names=list(table.channel_names),
        )


def make_windows(table: TimeSeriesTable, seq_len: int, pred_len: int) -> np.ndarray:
    """Every stride-1 window fully inside the table, as one read-only view.

    The result is (N, seq_len + pred_len, C) with N = T - seq_len - pred_len + 1;
    window i starts at row i, its first ``seq_len`` rows are the lookback and
    the rest the horizon.  No value is copied.
    """
    if seq_len < 1 or pred_len < 1:
        raise ConfigError(f"seq_len and pred_len must be positive, got {seq_len}, {pred_len}")
    total = seq_len + pred_len
    if table.n_steps < total:
        raise DataError(
            f"table with {table.n_steps} rows cannot fit a window of "
            f"{seq_len} lookback + {pred_len} horizon steps"
        )
    windows = np.lib.stride_tricks.sliding_window_view(table.values, total, axis=0)
    return windows.transpose(0, 2, 1)


BASE_CHANNELS = ("electricity", "gas", "heat", "renewables", "ghg")

# ghg is a fixed mix of the two combustion channels plus its own noise.
_GHG_MIX = {"electricity": 0.6, "gas": 0.35}


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, seed and noise of the generated multi-energy table.

    Channels beyond the five named ones are auxiliary consumption series
    whose amplitude, phase, and trend vary deterministically with the channel
    index, so the same spec always yields the same table.
    """

    length: int = 49415
    channels: int = 19
    seed: int = 0
    noise_std: float = 0.1

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError(f"length must be positive, got {self.length}")
        if self.channels < 1:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and non-negative, got {self.noise_std}")


def _channel_wave(index: int, t: np.ndarray) -> np.ndarray:
    """Noise-free profile of one channel: two sinusoids plus a linear trend."""
    amp = 1.0 + 0.1 * index
    phase = 2.0 * np.pi * index / 7.0
    daily = amp * np.sin(2.0 * np.pi * t / 24.0 + phase)
    weekly = 0.3 * np.sin(2.0 * np.pi * t / 168.0 + 0.5 * phase)
    trend = 1e-4 * (1.0 + 0.05 * index) * t
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

    t = np.arange(spec.length, dtype=np.float64)
    rng = Rng(spec.seed).child(7)
    clean: dict[str, np.ndarray] = {}
    columns: list[np.ndarray] = []
    for index, name in enumerate(names):
        if name == "ghg":
            wave = sum(_GHG_MIX[src] * clean[src] for src in _GHG_MIX)
        else:
            wave = _channel_wave(index, t)
        clean[name] = wave
        noise = rng.normal(0.0, spec.noise_std, t.shape) if spec.noise_std > 0 else 0.0
        columns.append(wave + noise)

    epoch = datetime(2020, 1, 1)
    stamps = [
        (epoch + timedelta(hours=step)).strftime("%Y-%m-%d %H:%M:%S")
        for step in range(spec.length)
    ]
    return TimeSeriesTable(
        timestamps=stamps, values=np.stack(columns, axis=1), channel_names=names
    )
