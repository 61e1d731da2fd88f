"""End-to-end tests of the command-line surface and its exit-code contract."""

import argparse
import csv
import json
import re
import shlex
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from patchformer import (
    MetricReport,
    ModelConfig,
    PatchformerModel,
    load_checkpoint,
    save_checkpoint,
)
from patchformer import cli
from patchformer.cli import (
    ResultsTable,
    RunConfig,
    build_parser,
    main,
    resolve_config,
    run_lookback_sweep,
    run_train,
)
from patchformer.data import load_csv, save_csv
from patchformer.errors import ConfigError, DataError

TINY_FLAGS = [
    "--seq-len", "32", "--pred-len", "8", "--patch-len", "8", "--stride", "4",
    "--d-model", "16", "--n-heads", "2", "--d-ff", "32",
    "--epochs", "2", "--batch-size", "16", "--lr", "1e-3",
]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One shared synth -> train round so later tests can reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_csv = root / "data.csv"
    assert main([
        "synth", "--synth-length", "400", "--synth-channels", "3",
        "--out-dir", str(root), "--out-file", str(data_csv),
    ]) == 0
    run_dir = root / "run"
    assert main([
        "train", "--data", str(data_csv), *TINY_FLAGS, "--out-dir", str(run_dir),
    ]) == 0
    return {"root": root, "data": data_csv, "run": run_dir}


# -- configuration resolution ------------------------------------------------------


def test_default_config_matches_reference_recipe():
    cfg = resolve_config({})
    assert (cfg.seq_len, cfg.pred_len) == (96, 96)
    assert (cfg.patch_len, cfg.stride) == (16, 8)
    assert (cfg.d_model, cfg.n_heads) == (512, 8)
    assert (cfg.e_layers, cfg.d_layers) == (2, 1)
    assert cfg.d_ff is None  # expands to 4 * d_model inside the model
    assert cfg.dropout == 0.1
    assert (cfg.epochs, cfg.batch_size, cfg.lr) == (10, 32, 1e-4)
    assert cfg.mode == "multivariate"


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\n\nseq_len=48\nd_model=64\nchannels=a, b\n")
    only_file = resolve_config({}, str(cfg_file))
    assert only_file.seq_len == 48
    assert only_file.d_model == 64
    assert only_file.channels == ("a", "b")
    flag_wins = resolve_config({"d_model": 128, "seq_len": None}, str(cfg_file))
    assert flag_wins.d_model == 128
    assert flag_wins.seq_len == 48


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("learning_rate=0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        resolve_config({}, str(cfg_file))


def test_config_file_rejects_bad_value(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    for key in ("epochs", "d_ff"):
        cfg_file.write_text(f"{key}=ten\n")
        with pytest.raises(ConfigError, match=key):
            resolve_config({}, str(cfg_file))


def subcommand_dests(name: str) -> set[str]:
    """Destinations of every option the named subcommand registers, minus ``help``."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {action.dest for action in sub.choices[name]._actions} - {"help"}


def test_train_flags_are_run_config_fields():
    """Every train flag sets one RunConfig field and every field has a flag.

    ``--config`` names a file of the same fields, so it is the one extra.
    """
    assert subcommand_dests("train") - {"config"} == {f.name for f in fields(RunConfig)}


def test_missing_config_file_is_usage_error():
    assert main(["train", "--config", "/nonexistent.cfg"]) == 1


def test_out_dir_env_fallback(monkeypatch):
    monkeypatch.setenv("PATCHFORMER_OUTDIR", "/tmp/elsewhere")
    assert resolve_config({}).out_dir == "/tmp/elsewhere"
    assert resolve_config({"out_dir": "/tmp/explicit"}).out_dir == "/tmp/explicit"
    monkeypatch.delenv("PATCHFORMER_OUTDIR")
    assert resolve_config({}).out_dir == "runs"


def test_invalid_mode_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"mode": "bivariate"})


# -- results table ------------------------------------------------------------------


def report(mse, mae):
    return MetricReport(mse=mse, mae=mae, n_windows=1, n_points=1)


def read_results(path) -> list[tuple[str, str, int, str, float, float]]:
    """The rows of a ``results.csv``, typed as ``ResultsTable.rows`` gives them."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = csv.reader(fh)
    assert tuple(header) == ResultsTable.COLUMNS
    return [(d, m, int(o), mode, float(mse), float(mae)) for d, m, o, mode, mse, mae in body]


def test_results_table_round_trip(tmp_path):
    table = ResultsTable()
    table.add("synthetic", "patchformer", 96, "multivariate", report(1 / 3, 0.25))
    table.add("synthetic", "repeat_last", 96, "multivariate", report(2.0, 1.0))
    table.write(tmp_path)
    loaded = read_results(tmp_path / "results.csv")
    assert loaded == table.rows()
    assert loaded[0][4] == 1 / 3  # repr round-trips exactly
    assert (tmp_path / "results.txt").read_text() == table.render_text()


def test_results_table_refuses_a_repeated_key():
    table = ResultsTable()
    table.add("d", "m", 96, "multivariate", report(1.0, 1.0))
    with pytest.raises(ConfigError, match="separate --out-dirs"):
        table.add("d", "m", 96, "multivariate", report(2.0, 2.0))
    assert table.rows() == [("d", "m", 96, "multivariate", 1.0, 1.0)]


def test_results_table_rows_are_sorted():
    table = ResultsTable()
    table.add("d", "m", 720, "a", report(1.0, 1.0))
    table.add("d", "m", 96, "a", report(1.0, 1.0))
    table.add("a", "m", 96, "a", report(1.0, 1.0))
    keys = [(r[0], r[2]) for r in table.rows()]
    assert keys == [("a", 96), ("d", 96), ("d", 720)]


def test_results_table_render_alignment():
    table = ResultsTable()
    table.add("synthetic", "patchformer", 96, "multivariate", report(1.5, 0.5))
    text = table.render_text()
    lines = text.splitlines()
    assert lines[0].startswith("dataset")
    assert set(lines[1]) <= {"-", " "}
    assert "1.500000" in lines[2]


# -- train artifacts ----------------------------------------------------------------


def test_train_writes_expected_artifacts(cli_run):
    run = cli_run["run"]
    for name in ("manifest.json", "loss_trace.csv", "model.npz", "model_best.npz",
                 "results.csv", "results.txt"):
        assert (run / name).exists(), name


def test_manifest_contains_resolved_config(cli_run):
    manifest = json.loads((cli_run["run"] / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["version"]
    cfg = manifest["config"]
    assert cfg["seq_len"] == 32
    assert cfg["d_model"] == 16
    assert cfg["data"] == str(cli_run["data"])
    assert cfg["out_dir"] == str(cli_run["run"])


def test_loss_trace_has_train_and_val_rows(cli_run):
    rows = (cli_run["run"] / "loss_trace.csv").read_text().splitlines()
    assert rows[0] == "epoch,split,mse,mae"
    assert len(rows) == 1 + 2 * 2  # two epochs, train + val each


def test_results_csv_contains_model_and_baseline(cli_run):
    models = {row[1] for row in read_results(cli_run["run"] / "results.csv")}
    assert models == {"patchformer", "repeat_last"}


def test_checkpoint_stores_scaler_and_channels(cli_run):
    bundle = load_checkpoint(cli_run["run"] / "model_best.npz")
    assert bundle.channel_names == ["electricity", "gas", "heat"]
    assert bundle.scaler_mean.shape == (3,)
    assert bundle.model.cfg.seq_len == 32


def test_run_train_keeps_best_state_whole(tmp_path):
    """Building the best model from ``best_state`` must not empty the returned dict."""
    cfg = RunConfig(
        synth_length=400, synth_channels=2, seq_len=32, pred_len=8, patch_len=8, stride=4,
        d_model=16, n_heads=2, d_ff=32, epochs=2, batch_size=16, lr=1e-3,
        out_dir=str(tmp_path),
    )
    out = run_train(cfg)
    assert list(out.result.best_state) == out.model.store.names()
    for name, tensor in out.model.store.items():
        np.testing.assert_array_equal(out.result.best_state[name], tensor.data)


# -- evaluate / forecast --------------------------------------------------------------


def test_evaluate_reproduces_training_metrics(cli_run, tmp_path):
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--out-dir", str(out),
    ])
    assert code == 0
    assert read_results(out / "results.csv") == read_results(cli_run["run"] / "results.csv")


def save_untrained(cli_run, path, pred_len, d_model=16, d_ff=32):
    """An untrained checkpoint over the shared run's three channels."""
    cfg = ModelConfig(
        seq_len=32, pred_len=pred_len, n_channels=3, patch_len=8, stride=4, d_model=d_model,
        n_heads=2, d_ff=d_ff,
    )
    return save_checkpoint(
        PatchformerModel.build(cfg), path, scaler_mean=np.zeros(3), scaler_std=np.ones(3),
        channel_names=load_csv(cli_run["data"]).channel_names,
    )


def test_evaluate_accepts_multiple_checkpoints(cli_run, tmp_path):
    other = save_untrained(cli_run, tmp_path / "o4.npz", pred_len=4)
    out = tmp_path / "eval2"
    code = main([
        "evaluate",
        "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--checkpoint", str(other),
        "--data", str(cli_run["data"]), "--out-dir", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["checkpoints"]) == 2
    rows = read_results(out / "results.csv")
    assert [(row[1], row[2]) for row in rows] == [
        ("patchformer", 4), ("patchformer", 8), ("repeat_last", 4), ("repeat_last", 8),
    ]
    assert [row for row in rows if row[2] == 8] == read_results(cli_run["run"] / "results.csv")


def test_evaluate_refuses_checkpoints_that_share_a_results_row(cli_run, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main([
        "evaluate",
        "--checkpoint", str(cli_run["run"] / "model.npz"),
        "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--out-dir", str(out),
    ])
    assert code == 1
    assert "separate --out-dirs" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_a_mode_the_checkpoint_cannot_serve(cli_run, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--mode", "univariate", "--out-dir", str(out),
    ])
    assert code == 1
    assert "univariate mode needs exactly one channel, got 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["shared-row", "mode", "pred-len"])
def test_evaluate_checks_every_checkpoint_before_scoring_any(cli_run, tmp_path, capsys, case):
    """The second checkpoint is refused from its meta: nothing is scored, and the error names it."""
    run = cli_run["run"]
    if case == "shared-row":
        paths, flags = [run / "model.npz", run / "model_best.npz"], []
    elif case == "mode":
        cfg = ModelConfig(
            seq_len=32, pred_len=4, n_channels=1, patch_len=8, stride=4, d_model=16, n_heads=2,
            d_ff=32,
        )
        single = save_checkpoint(
            PatchformerModel.build(cfg), tmp_path / "one.npz", scaler_mean=np.zeros(1),
            scaler_std=np.ones(1), channel_names=load_csv(cli_run["data"]).channel_names[:1],
        )
        paths, flags = [single, run / "model_best.npz"], ["--mode", "univariate"]
    else:
        narrow = save_untrained(cli_run, tmp_path / "o4.npz", pred_len=4)
        paths, flags = [narrow, run / "model_best.npz"], ["--pred-len", "4"]
    out = tmp_path / "eval"
    checkpoints = [arg for path in paths for arg in ("--checkpoint", str(path))]
    code = main([
        "evaluate", *checkpoints, "--data", str(cli_run["data"]), "--out-dir", str(out), *flags,
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "test mse" not in captured.out
    assert str(paths[1]) in captured.err
    if case == "shared-row":
        assert str(paths[0]) in captured.err
    assert not out.exists()


def test_evaluate_manifest_records_each_checkpoint_model(cli_run, tmp_path):
    narrow = save_untrained(cli_run, tmp_path / "d8.npz", pred_len=4, d_model=8, d_ff=16)
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--checkpoint", str(narrow),
        "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--out-dir", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [entry["model"]["d_model"] for entry in manifest["checkpoints"]] == [8, 16]
    assert manifest["checkpoints"][0]["path"] == str(narrow)
    assert manifest["config"]["data"] == str(cli_run["data"])
    assert "d_model" not in manifest["config"]
    assert sorted(row[2] for row in read_results(out / "results.csv")) == [4, 4, 8, 8]


def test_evaluate_rejects_incompatible_geometry(cli_run, tmp_path):
    code = main([
        "evaluate", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--seq-len", "64",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 1


@pytest.mark.parametrize(
    "lines, code",
    # a file shared with train may carry keys that evaluate does not read
    [("seq_len=64", 1), ("pred_len=16", 1), ("seq_len=32\npred_len=8\nd_model=999", 0)],
    ids=["seq_len", "pred_len", "matching"],
)
def test_evaluate_checks_config_file_lengths(cli_run, tmp_path, lines, code):
    cfg_file = tmp_path / "eval.cfg"
    cfg_file.write_text(lines + "\n")
    assert main([
        "evaluate", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--config", str(cfg_file),
        "--out-dir", str(tmp_path / "x"),
    ]) == code


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--d-model", "999"), ("--n-heads", "7"), ("--patch-len", "4"), ("--epochs", "50"),
        ("--lr", "5"), ("--batch-size", "3"), ("--seed", "3"), ("--channels", "gas"),
    ],
)
def test_evaluate_refuses_flags_it_never_reads(cli_run, tmp_path, flag, value):
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--data", str(cli_run["data"]), "--out-dir", str(out), flag, value,
    ])
    assert code == 1
    assert not out.exists()


def test_forecast_reports_bad_checkpoint_config_as_data_error(cli_run, tmp_path, capsys):
    table = load_csv(cli_run["data"])
    window_csv = tmp_path / "window.csv"
    save_csv(table.slice_rows(0, 32), window_csv)
    for key, value in (("bogus", 1), ("seq_len", "32")):
        ckpt = tmp_path / "edited.npz"
        shutil.copy(cli_run["run"] / "model_best.npz", ckpt)
        with np.load(ckpt) as bundle:
            arrays = dict(bundle)
        meta = json.loads(str(arrays["meta"]))
        meta["config"][key] = value
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(ckpt, **arrays)
        code = main([
            "forecast", "--checkpoint", str(ckpt), "--window", str(window_csv),
            "--out-file", str(tmp_path / "forecast.csv"),
        ])
        assert code == 2
        assert f"{key}={value!r}" in capsys.readouterr().err


def test_forecast_round_trip(cli_run, tmp_path):
    table = load_csv(cli_run["data"])
    window_csv = tmp_path / "window.csv"
    save_csv(table.slice_rows(table.n_steps - 32, table.n_steps), window_csv)
    out_csv = tmp_path / "forecast.csv"
    code = main([
        "forecast", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--window", str(window_csv), "--out-file", str(out_csv),
    ])
    assert code == 0
    forecast = load_csv(out_csv)
    assert forecast.n_steps == 8
    assert forecast.channel_names == table.channel_names
    assert np.all(np.isfinite(forecast.values))
    # hourly stamps continue the source interval
    last_in = table.timestamps[-1]
    assert forecast.timestamps[0] > last_in
    assert forecast.timestamps[0].endswith(":00:00")


def test_forecast_rejects_wrong_window_length(cli_run, tmp_path):
    table = load_csv(cli_run["data"])
    window_csv = tmp_path / "short.csv"
    save_csv(table.slice_rows(0, 20), window_csv)
    code = main([
        "forecast", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--window", str(window_csv), "--out-file", str(tmp_path / "f.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize(
    "names",
    [["electricity", "gas", "steam"], ["gas", "electricity", "heat"]],
    ids=["renamed", "reordered"],
)
def test_forecast_window_with_other_channels_is_a_data_error(cli_run, tmp_path, capsys, names):
    """The fault is in the window file, so it exits 2 as ``evaluate`` does."""
    from patchformer.data import TimeSeriesTable, save_csv

    window = load_csv(cli_run["data"]).slice_rows(0, 32)
    window_csv = tmp_path / "window.csv"
    save_csv(TimeSeriesTable(window.timestamps, window.values, names), window_csv)
    code = main([
        "forecast", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--window", str(window_csv), "--out-file", str(tmp_path / "f.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"data error: window channels {names}")
    assert not (tmp_path / "f.csv").exists()


def test_forecast_extrapolates_integer_stamps(cli_run, tmp_path):
    from patchformer.cli import _extrapolate_stamps

    stamps = _extrapolate_stamps(["10", "20"], 3)
    assert stamps == ["30", "40", "50"]
    hourly = _extrapolate_stamps(
        ["2020-01-01 22:00:00", "2020-01-01 23:00:00"], 2
    )
    assert hourly == ["2020-01-02 00:00:00", "2020-01-02 01:00:00"]
    with pytest.raises(DataError):
        _extrapolate_stamps(["only-one"], 2)
    with pytest.raises(DataError):
        _extrapolate_stamps(["glove", "hat"], 2)


@pytest.mark.parametrize("layout", ["%Y-%m-%d %H:%M", "%Y-%m-%dT%H:%M:%S+00:00"])
def test_forecast_accepts_every_loadable_stamp_layout(cli_run, tmp_path, layout):
    from datetime import datetime, timedelta

    from patchformer.data import TimeSeriesTable, save_csv

    table = load_csv(cli_run["data"])
    window = table.slice_rows(table.n_steps - 32, table.n_steps)
    start = datetime(2021, 1, 1)
    stamps = [(start + timedelta(hours=i)).strftime(layout) for i in range(40)]
    window_csv = tmp_path / "window.csv"
    save_csv(
        TimeSeriesTable(
            timestamps=stamps[:32], values=window.values, channel_names=window.channel_names
        ),
        window_csv,
    )
    out_csv = tmp_path / "forecast.csv"
    assert main([
        "forecast", "--checkpoint", str(cli_run["run"] / "model_best.npz"),
        "--window", str(window_csv), "--out-file", str(out_csv),
    ]) == 0
    assert load_csv(out_csv).timestamps == stamps[32:]


# -- gradcheck / sweep ----------------------------------------------------------------


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "head.weight" in out


def test_cli_gradcheck_corrupt_control_fails(capsys):
    assert main(["gradcheck", "--corrupt-gradient"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_gradcheck_caps_model_size():
    assert main(["gradcheck", "--d-model", "512"]) == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--epochs", "50"), ("--lr", "5"), ("--batch-size", "3"), ("--mode", "univariate"),
        ("--data", "absent.csv"), ("--synth-length", "10"), ("--out-dir", "elsewhere"),
    ],
)
def test_cli_gradcheck_refuses_flags_it_never_reads(flag, value, capsys):
    assert main(["gradcheck", flag, value]) == 1
    assert "PASS" not in capsys.readouterr().out


def test_cli_gradcheck_reads_seed_and_config(tmp_path, capsys):
    cfg_file = tmp_path / "gc.cfg"
    cfg_file.write_text("d_model=4\n")
    assert main(["gradcheck", "--seed", "5", "--config", str(cfg_file)]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value", [("--seed", "99"), ("--data", "absent.csv"), ("--channels", "gas")]
)
def test_synth_refuses_flags_it_never_reads(flag, value, tmp_path):
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--synth-length", "50", "--out-file", str(out_csv), flag, value]) == 1
    assert not out_csv.exists()


def test_cli_sweep_lookback(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--kind", "lookback", "--lookbacks", "16,32", "--pred-lens", "8",
        "--synth-length", "400", "--synth-channels", "2",
        "--patch-len", "8", "--stride", "4", "--d-model", "16", "--n-heads", "2",
        "--d-ff", "32", "--epochs", "1", "--batch-size", "16",
        "--out-dir", str(out),
    ])
    assert code == 0
    models = {row[1] for row in read_results(out / "results.csv")}
    assert models == {
        "patchformer_I16", "patchformer_I32", "repeat_last_I16", "repeat_last_I32",
    }


@pytest.mark.parametrize(
    "lookbacks, pred_lens", [("16,16", "8"), ("16", "8,4,8")], ids=["lookbacks", "pred-lens"]
)
def test_cli_sweep_refuses_a_repeated_grid_value(lookbacks, pred_lens, tmp_path, capsys):
    """A repeated value would train one entry twice into one directory; nothing trains."""
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--kind", "lookback", "--lookbacks", lookbacks, "--pred-lens", pred_lens,
        "--synth-length", "400", "--synth-channels", "2",
        "--patch-len", "8", "--stride", "4", "--d-model", "16", "--n-heads", "2",
        "--d-ff", "32", "--epochs", "1", "--batch-size", "16",
        "--out-dir", str(out),
    ])
    assert code == 1
    assert "names a value twice" in capsys.readouterr().err
    assert not out.exists()


def test_lookback_sweep_refuses_a_repeated_grid_value_before_training(tmp_path, monkeypatch):
    """The library call refuses a repeat itself: nothing trains and nothing is written."""

    def no_training(cfg):
        raise AssertionError(f"trained into {cfg.out_dir}")

    monkeypatch.setattr(cli, "run_train", no_training)
    out = tmp_path / "sweep"
    cfg = resolve_config({"out_dir": str(out)})
    for lookbacks, pred_lens in (([16, 16], [8]), ([16], [8, 8])):
        with pytest.raises(ConfigError, match="names a value twice"):
            run_lookback_sweep(cfg, lookbacks, pred_lens)
    assert not out.exists()


def test_readme_command_lines_parse():
    """Every ``patchformer`` line of README's ``sh`` blocks parses; nothing runs.

    A flag that is renamed or removed without the README following fails
    here.  The count catches a block that stops being read as ``sh``.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("patchformer ")
    ]
    assert len(commands) == 8
    for words in commands:
        build_parser().parse_args(words[1:])


# -- exit codes -----------------------------------------------------------------------


def test_exit_code_missing_dataset(tmp_path):
    code = main(["train", "--data", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_exit_code_usage_error():
    assert main(["train", "--seq-len", "0"]) == 1


def test_exit_code_unknown_flag():
    assert main(["train", "--bogus-flag", "1"]) == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["train", "--lr", "nan"], "learning rate"),
        (["train", "--d-ff", "0"], "d_ff must be positive"),
        (["synth", "--synth-length", "50", "--synth-noise-std", "nan"], "noise_std"),
    ],
    ids=["lr-nan", "d-ff-0", "noise-std-nan"],
)
def test_exit_code_out_of_range_value(argv, named, cli_run, tmp_path, capsys):
    data = ["--data", str(cli_run["data"]), *TINY_FLAGS] if argv[0] == "train" else []
    out = str(tmp_path / "out")
    assert main([argv[0], *data, *argv[1:], "--out-dir", out]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, config_line",
    [
        ("train", ["--seed", "-1"], None),
        ("train", ["--synth-seed", "-1"], None),
        ("train", [], "seed=-1"),
        ("gradcheck", ["--seed", "-1"], None),
        ("synth", ["--synth-seed", "-1"], None),
    ],
    ids=["train-seed", "train-synth-seed", "config-file-seed", "gradcheck-seed", "synth-seed"],
)
def test_negative_seed_is_a_usage_error(command, flags, config_line, tmp_path, capsys):
    if config_line is not None:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config_line + "\n")
        flags = [*flags, "--config", str(cfg_file)]
    sized = {
        "train": [*TINY_FLAGS, "--synth-length", "400", "--synth-channels", "2"],
        "synth": ["--synth-length", "50"],
    }
    out = [] if command == "gradcheck" else ["--out-dir", str(tmp_path / "out")]
    assert main([command, *sized.get(command, []), *flags, *out]) == 1
    assert "non-negative" in capsys.readouterr().err


# Every numeric RunConfig field, each set from a small valid seeded run that
# trains in well under a second; the table sends each hostile value in alone.
NUMERIC_BASE = {
    "synth_length": 400, "synth_channels": 2, "synth_seed": 0, "synth_noise_std": 0.1,
    "seq_len": 16, "pred_len": 8, "patch_len": 4, "stride": 2, "d_model": 8, "n_heads": 2,
    "d_ff": 16, "e_layers": 1, "d_layers": 1, "dropout": 0.0, "epochs": 1,
    "batch_size": 32, "lr": 1e-3, "seed": 0,
}
HOSTILE_VALUES = ("nan", "inf", "-inf", "0", "-1")
# The only hostile values a run accepts, as the README lists them: a zero learning
# rate, dropout, noise or seed.
VALID_ZEROS = {("lr", "0"), ("dropout", "0"), ("synth_noise_std", "0"),
               ("seed", "0"), ("synth_seed", "0")}


def test_every_numeric_setting_refuses_nan_inf_zero_and_negative(tmp_path, capsys):
    """Each value is sent as ``--flag=value``, as ``--flag value`` and as a config line.

    The space form must reach the same check as the ``=`` form, with the
    same message, even for a value that starts with ``-``.
    """
    numeric = {f.name for f in fields(RunConfig) if f.type in ("int", "int | None", "float")}
    assert numeric == set(NUMERIC_BASE)
    cfg_file = tmp_path / "run.cfg"
    refused = accepted = 0
    for name in NUMERIC_BASE:
        base = {k: v for k, v in NUMERIC_BASE.items() if k != name}
        base_flags = [f"--{k.replace('_', '-')}={v}" for k, v in base.items()]
        for value in HOSTILE_VALUES:
            flag = f"--{name.replace('_', '-')}"
            cfg_file.write_text(f"{name}={value}\n")
            entries = {
                "flag": [f"{flag}={value}"],
                "space form": [flag, value],
                "config line": ["--config", str(cfg_file)],
            }
            messages = {}
            for entry, extra in entries.items():
                case = f"{name}={value} by {entry}"
                argv = ["train", *base_flags, *extra, "--out-dir", str(tmp_path / "out")]
                if (name, value) not in VALID_ZEROS:
                    assert main(argv) == 1, case
                    messages[entry] = capsys.readouterr().err
                    assert messages[entry].startswith("error: "), case
                    refused += 1
                    continue
                args = build_parser().parse_args(argv)
                cfg = resolve_config(vars(args), args.config)
                assert getattr(cfg, name) == 0, case
                cfg.train_config(), cfg.model_config(n_channels=2), cfg.synth_spec()
                accepted += 1
            assert messages.get("space form") == messages.get("flag"), f"{name}={value}"
    assert (refused, accepted) == (3 * (5 * 18 - 5), 3 * 5)
    assert not (tmp_path / "out").exists()


def _head_as_text(arrays):
    arrays["param.head.weight"] = arrays["param.head.weight"].astype(str)


def _edit_meta(edit):
    def edit_arrays(arrays):
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))

    return edit_arrays


@pytest.mark.parametrize(
    "edit",
    [
        lambda arrays: arrays.pop("param.head.weight"),
        lambda arrays: arrays.update({"param.extra": np.zeros(3)}),
        lambda arrays: arrays.update({"param.head.weight": np.zeros((2, 2))}),
        _head_as_text,
        _edit_meta(lambda meta: meta["config"].update(seed=-1)),
        _edit_meta(lambda meta: meta["config"].update(d_model=float("nan"))),
    ],
    ids=["missing", "surplus", "wrong-shape", "text", "negative-seed", "nan-d-model"],
)
def test_forecast_reports_an_unbuildable_checkpoint_as_data_error(
    edit, cli_run, tmp_path, capsys
):
    ckpt = tmp_path / "edited.npz"
    with np.load(cli_run["run"] / "model_best.npz") as bundle:
        arrays = dict(bundle)
    edit(arrays)
    np.savez(ckpt, **arrays)
    code = main([
        "forecast", "--checkpoint", str(ckpt), "--window", str(cli_run["data"]),
        "--out-file", str(tmp_path / "forecast.csv"),
    ])
    assert code == 2
    assert f"data error: {ckpt}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"), ("--eps", "-1"),
        ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
    ],
)
def test_cli_gradcheck_refuses_a_bad_eps_or_tol(flag, value, capsys):
    assert main(["gradcheck", flag, value]) == 1
    assert "must be finite and positive" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_divergence(tmp_path, cli_run):
    code = main([
        "train", "--data", str(cli_run["data"]), *TINY_FLAGS,
        "--lr", "1e100", "--out-dir", str(tmp_path / "div"),
    ])
    assert code == 3
    # the manifest lands before training starts, so failed runs stay inspectable
    assert (tmp_path / "div" / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_non_finite_validation(tmp_path, capsys):
    """A step so large that validation is NaN while no batch loss was is a numerical failure."""
    code = main([
        "train", "--synth-length", "300", "--synth-channels", "2", "--seq-len", "16",
        "--pred-len", "8", "--patch-len", "4", "--stride", "2", "--d-model", "8",
        "--n-heads", "2", "--d-ff", "16", "--e-layers", "1", "--d-layers", "1",
        "--epochs", "1", "--batch-size", "256", "--lr", "1e300",
        "--out-dir", str(tmp_path / "nan"),
    ])
    assert code == 3
    assert "validation MSE is nan after epoch 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda arrays: (arrays.pop("scaler.mean"), arrays.pop("scaler.std")),
        lambda arrays: arrays.pop("scaler.std"),
        _edit_meta(lambda meta: meta.pop("channel_names")),
        _edit_meta(lambda meta: meta.update(channel_names=["electricity", "gas"])),
    ],
    ids=["no-scaler", "no-scaler-std", "no-channel-names", "two-channel-names"],
)
def test_a_checkpoint_without_its_scaler_or_channel_names_is_a_data_error(
    command, edit, cli_run, tmp_path, capsys
):
    ckpt = tmp_path / "edited.npz"
    with np.load(cli_run["run"] / "model_best.npz") as bundle:
        arrays = dict(bundle)
    edit(arrays)
    np.savez(ckpt, **arrays)
    source = ["--data", str(cli_run["data"]), "--out-dir", str(tmp_path / "eval")]
    if command == "forecast":
        source = ["--window", str(cli_run["data"]), "--out-file", str(tmp_path / "f.csv")]
    assert main([command, "--checkpoint", str(ckpt), *source]) == 2
    assert f"data error: {ckpt}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
def test_a_checkpoint_that_forecasts_nan_is_refused_before_anything_is_written(
    command, cli_run, tmp_path, capsys
):
    """One NaN head weight loads, but no NaN forecast or score leaves the command."""
    ckpt = tmp_path / "nan.npz"
    with np.load(cli_run["run"] / "model_best.npz") as bundle:
        arrays = dict(bundle)
    arrays["param.head.weight"][0, 0] = np.nan
    np.savez(ckpt, **arrays)
    out = tmp_path / "out"
    source = ["--data", str(cli_run["data"]), "--out-dir", str(out)]
    if command == "forecast":
        window_csv = tmp_path / "window.csv"
        save_csv(load_csv(cli_run["data"]).slice_rows(0, 32), window_csv)
        source = ["--window", str(window_csv), "--out-file", str(out / "forecast.csv")]
    assert main([command, "--checkpoint", str(ckpt), *source]) == 3
    assert f"numerical failure: checkpoint {ckpt} " in capsys.readouterr().err
    assert not out.exists()
