"""Tests for CSV IO, splitting, scaling, windowing, and the synthetic generator."""

import numpy as np
import pytest

from patchformer import (
    ConstantChannelWarning,
    Scaler,
    SyntheticSpec,
    TimeSeriesTable,
    chronological_split,
    generate_synthetic_multienergy,
    load_csv,
    make_windows,
    save_csv,
)
from patchformer.data import BASE_CHANNELS, _channel_wave
from patchformer.errors import ConfigError, DataError


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = (
    "date,a,b\n"
    "2021-01-01 00:00:00,1.0,10.0\n"
    "2021-01-01 01:00:00,2.0,20.0\n"
    "2021-01-01 02:00:00,3.0,30.0\n"
)


# -- CSV loading ----------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    table = load_csv(write_csv(tmp_path, GOOD_CSV))
    assert table.channel_names == ["a", "b"]
    assert table.n_steps == 3
    assert table.values.tolist() == [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]
    assert table.timestamps[0] == "2021-01-01 00:00:00"


def test_load_csv_seven_channels(tmp_path):
    header = "date," + ",".join(f"c{i}" for i in range(7))
    rows = [f"2021-01-0{d},{','.join(str(d * 10 + i) for i in range(7))}" for d in (1, 2, 3)]
    table = load_csv(write_csv(tmp_path, header + "\n" + "\n".join(rows) + "\n"))
    assert table.n_channels == 7
    assert table.values.shape == (3, 7)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataError, match="empty"):
        load_csv(write_csv(tmp_path, ""))


def test_load_csv_requires_date_header(tmp_path):
    with pytest.raises(DataError, match="date"):
        load_csv(write_csv(tmp_path, "time,a\n1,2\n"))


def test_load_csv_field_count_names_line(tmp_path):
    bad = "date,a,b\n2021-01-01,1.0\n"
    with pytest.raises(DataError, match="line 2"):
        load_csv(write_csv(tmp_path, bad))


def test_load_csv_non_numeric_names_line_and_column(tmp_path):
    bad = "date,a,b\n2021-01-01,1.0,x\n"
    with pytest.raises(DataError, match=r"line 2.*column 'b'"):
        load_csv(write_csv(tmp_path, bad))


def test_load_csv_rejects_non_finite(tmp_path):
    bad = "date,a\n2021-01-01,nan\n"
    with pytest.raises(DataError, match="non-finite"):
        load_csv(write_csv(tmp_path, bad))


def test_load_csv_rejects_unordered_timestamps(tmp_path):
    bad = "date,a\n2021-01-02,1.0\n2021-01-01,2.0\n"
    with pytest.raises(DataError, match="increase"):
        load_csv(write_csv(tmp_path, bad))


def test_load_csv_orders_integer_timestamps_by_value(tmp_path):
    text = "date,a\n" + "".join(f"{i},{float(i)}\n" for i in range(1, 13))
    table = load_csv(write_csv(tmp_path, text))
    assert table.timestamps == [str(i) for i in range(1, 13)]
    with pytest.raises(DataError, match="line 3: timestamp '9' does not increase"):
        load_csv(write_csv(tmp_path, "date,a\n10,1.0\n9,2.0\n"))


def test_load_csv_orders_iso_timestamps_by_time(tmp_path):
    text = "date,a\n2021-01-01T09:00:00,1.0\n2021-01-01 10:00:00,2.0\n"
    assert load_csv(write_csv(tmp_path, text)).n_steps == 2


@pytest.mark.parametrize(
    "stamps",
    [
        ("2021-01-01", "12"),
        ("11", "2021-01-01"),
        ("2021-01-01T00:00:00+00:00", "2021-01-01T01:00:00"),
    ],
)
def test_load_csv_rejects_mixed_timestamp_kinds(tmp_path, stamps):
    text = "date,a\n" + "".join(f"{stamp},1.0\n" for stamp in stamps)
    with pytest.raises(DataError, match="line 3: .* same kind"):
        load_csv(write_csv(tmp_path, text))


def test_load_csv_rejects_unparseable_timestamp(tmp_path):
    with pytest.raises(DataError, match="line 2: .* neither"):
        load_csv(write_csv(tmp_path, "date,a\nmonday,1.0\ntuesday,2.0\n"))


def test_csv_round_trip_is_exact(tmp_path):
    values = np.array([[0.1, 1 / 3], [np.pi, 2e-17]])
    table = TimeSeriesTable(
        timestamps=["2021-01-01", "2021-01-02"], values=values, channel_names=["a", "b"]
    )
    loaded = load_csv(save_csv(table, tmp_path / "rt.csv"))
    np.testing.assert_array_equal(loaded.values, values)
    assert loaded.timestamps == table.timestamps


# -- table helpers ---------------------------------------------------------------


def test_select_channels_and_index(tmp_path):
    table = load_csv(write_csv(tmp_path, GOOD_CSV))
    narrowed = table.select_channels(["b"])
    assert narrowed.channel_names == ["b"]
    assert narrowed.values.tolist() == [[10.0], [20.0], [30.0]]
    assert table.channel_index("b") == 1
    with pytest.raises(ConfigError):
        table.channel_index("zzz")
    with pytest.raises(ConfigError):
        table.select_channels(["a", "zzz"])


def test_table_rejects_mismatched_lengths():
    with pytest.raises(DataError):
        TimeSeriesTable(
            timestamps=["a"], values=np.ones((2, 1)), channel_names=["x"]
        )
    with pytest.raises(DataError):
        TimeSeriesTable(
            timestamps=["a", "b"], values=np.ones((2, 2)), channel_names=["x", "x"]
        )


# -- splits ----------------------------------------------------------------------


def make_table(t=100, c=2):
    values = np.arange(t * c, dtype=np.float64).reshape(t, c)
    stamps = [f"{i:06d}" for i in range(t)]
    return TimeSeriesTable(timestamps=stamps, values=values, channel_names=[f"c{i}" for i in range(c)])


def test_split_ratios_and_partition():
    table = make_table(100)
    train, val, test = chronological_split(table)
    assert (train.n_steps, val.n_steps, test.n_steps) == (70, 10, 20)
    rebuilt = np.concatenate([train.values, val.values, test.values])
    np.testing.assert_array_equal(rebuilt, table.values)
    assert train.timestamps[-1] < val.timestamps[0] < test.timestamps[0]


def test_split_min_len_guard():
    with pytest.raises(DataError, match="val split"):
        chronological_split(make_table(100), min_len=11)


def test_split_rejects_bad_ratios():
    with pytest.raises(ConfigError):
        chronological_split(make_table(100), ratios=(0.5, 0.2, 0.2))


# -- scaling ---------------------------------------------------------------------


def test_scaler_oracle():
    scaler = Scaler.fit(np.array([[2.0], [4.0]]))
    assert scaler.mean.tolist() == [3.0]
    assert scaler.std.tolist() == [1.0]
    np.testing.assert_array_equal(
        scaler.transform(np.array([[2.0], [4.0]])), [[-1.0], [1.0]]
    )


def test_scaler_survives_constant_channel():
    with pytest.warns(ConstantChannelWarning, match="channel 0 is constant"):
        scaler = Scaler.fit(np.full((5, 1), 42.0))
    out = scaler.transform(np.full((5, 1), 42.0))
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, np.zeros((5, 1)))


@pytest.mark.parametrize("level", [3.0, 987654321.123])
def test_scaler_centres_flat_channel_without_scaling(rng_np, level):
    values = np.stack([np.full(1000, level), rng_np.normal(size=1000)], axis=1)
    table = TimeSeriesTable(
        timestamps=[str(i) for i in range(1000)], values=values, channel_names=["flat", "live"]
    )
    with pytest.warns(ConstantChannelWarning, match=r"channel 0 \('flat'\)") as caught:
        scaler = Scaler.fit(table.values, channel_names=table.channel_names)
    assert [(w.message.index, w.message.name) for w in caught] == [(0, "flat")]
    assert scaler.std[0] == 1.0
    # the fit mean of a level near 1e9 carries rounding error of about 1e-5
    later = scaler.transform(np.array([[level + 0.5, 0.0]]))[0, 0]
    np.testing.assert_allclose(later, 0.5, atol=1e-4)
    with pytest.warns(ConstantChannelWarning, match="channel 0 is constant"):
        Scaler.fit(values)


def test_scaler_round_trip(rng_np):
    values = rng_np.normal(loc=5.0, scale=3.0, size=(50, 4))
    scaler = Scaler.fit(values)
    np.testing.assert_allclose(scaler.inverse(scaler.transform(values)), values, atol=1e-9)


def test_scaler_is_per_channel(rng_np):
    values = np.stack([rng_np.normal(0, 1, 100), rng_np.normal(100, 9, 100)], axis=1)
    scaled = Scaler.fit(values).transform(values)
    np.testing.assert_allclose(scaled.mean(axis=0), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(scaled.std(axis=0), [1.0, 1.0], atol=1e-9)


# -- windows ---------------------------------------------------------------------


def test_make_windows_count_and_content():
    table = make_table(10, 1)
    windows = make_windows(table, seq_len=4, pred_len=2)
    assert windows.shape == (5, 6, 1)
    first = windows[0]
    np.testing.assert_array_equal(first[:4], table.values[0:4])
    np.testing.assert_array_equal(first[4:], table.values[4:6])
    # window i starts at row i, so the last one starts at row 4
    last = windows[-1]
    np.testing.assert_array_equal(last, table.values[4:10])
    np.testing.assert_array_equal(last[4:], table.values[8:10])


def test_make_windows_exact_fit_gives_one():
    windows = make_windows(make_table(6, 1), seq_len=4, pred_len=2)
    assert len(windows) == 1


def test_make_windows_too_short_raises():
    with pytest.raises(DataError):
        make_windows(make_table(5, 1), seq_len=4, pred_len=2)


def test_window_helpers():
    """The windows are a read-only view of the table; row seq_len - 1 is the last input."""
    table = make_table(10, 2)
    windows = make_windows(table, seq_len=4, pred_len=2)
    np.testing.assert_array_equal(windows[0, 3], table.values[3])
    assert np.shares_memory(windows, table.values)
    assert not windows.flags.writeable
    with pytest.raises(ValueError):
        windows[0, 0, 0] = 1.0


# -- synthetic generator ----------------------------------------------------------


def test_synthetic_default_shape():
    table = generate_synthetic_multienergy(SyntheticSpec())
    assert table.values.shape == (49415, 19)
    assert table.channel_names[:5] == list(BASE_CHANNELS)
    assert table.channel_names[5] == "aux00"
    assert table.channel_names[-1] == "aux13"
    assert table.timestamps[0] == "2020-01-01 00:00:00"
    assert table.timestamps[25] == "2020-01-02 01:00:00"
    assert np.all(np.isfinite(table.values))


def test_synthetic_is_deterministic():
    spec = SyntheticSpec(length=500, channels=6, seed=9)
    a = generate_synthetic_multienergy(spec)
    b = generate_synthetic_multienergy(spec)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.timestamps == b.timestamps


def test_synthetic_seeds_differ():
    a = generate_synthetic_multienergy(SyntheticSpec(length=200, channels=3, seed=0))
    b = generate_synthetic_multienergy(SyntheticSpec(length=200, channels=3, seed=1))
    assert not np.array_equal(a.values, b.values)


def test_synthetic_noise_free_matches_closed_form():
    spec = SyntheticSpec(length=300, channels=4, seed=0, noise_std=0.0)
    table = generate_synthetic_multienergy(spec)
    t = np.arange(300, dtype=np.float64)
    for index in range(4):
        np.testing.assert_array_equal(table.values[:, index], _channel_wave(index, t))


def test_synthetic_ghg_is_mix_of_combustion_channels():
    spec = SyntheticSpec(length=300, channels=5, seed=0, noise_std=0.0)
    table = generate_synthetic_multienergy(spec)
    elec = table.values[:, table.channel_index("electricity")]
    gas = table.values[:, table.channel_index("gas")]
    ghg = table.values[:, table.channel_index("ghg")]
    np.testing.assert_allclose(ghg, 0.6 * elec + 0.35 * gas, atol=1e-12)


def test_synthetic_noise_level_is_respected():
    quiet = SyntheticSpec(length=2000, channels=1, seed=3, noise_std=0.0)
    loud = SyntheticSpec(length=2000, channels=1, seed=3, noise_std=0.5)
    clean = generate_synthetic_multienergy(quiet).values[:, 0]
    noisy = generate_synthetic_multienergy(loud).values[:, 0]
    residual = noisy - clean
    assert abs(residual.std() - 0.5) < 0.05
    assert abs(residual.mean()) < 0.05


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(length=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(channels=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(noise_std=-1.0)
