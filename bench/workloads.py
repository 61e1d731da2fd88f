"""The three benchmark workloads, each a single closed-loop client of the library.

Every workload has the same shape:

- ``make_inputs`` turns the workload seed into the files and arrays the
  program is given (untimed);
- ``setup`` is what a user pays before the first request: loading or
  synthesising data, splitting, scaling, building or loading the model;
- ``timed`` sends one request after another, each only after the previous one
  returned, stamps each request on a ``UnitClock`` and checks every output;
  ``between``, when given, runs after each request, outside its time;
- ``setup_repeats`` and ``setup_every`` say how often run.py times the set-up
  before and after the timed phase, and after how many requests during it.

A request is one training step on ``train_desk``, one evaluation batch on
``eval_rolling`` and one forecast on ``forecast_ref``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from patchformer import cli, data, model, training
from patchformer.params import Rng

from rebind import rebound

@dataclass(frozen=True)
class Size:
    """Model and data sizes; FULL is the benchmark, TINY the self-test."""

    seq_len: int
    pred_len: int
    patch_len: int
    stride: int
    n_heads: int
    e_layers: int
    d_layers: int
    desk_d_model: int
    desk_d_ff: int
    desk_rows: int
    desk_channels: int
    desk_lr: float
    eval_rows: int
    eval_channels: int
    ref_d_model: int
    ref_d_ff: int
    ref_channels: int
    ref_rows: int
    ref_windows: int


FULL = Size(
    seq_len=96, pred_len=96, patch_len=16, stride=8, n_heads=8, e_layers=2, d_layers=1,
    desk_d_model=64, desk_d_ff=128, desk_rows=5000, desk_channels=5, desk_lr=1e-4,
    eval_rows=5000, eval_channels=19,
    ref_d_model=512, ref_d_ff=2048, ref_channels=7, ref_rows=2000, ref_windows=16,
)

# The tests/conftest.py model (seq 16, pred 8, D=8); the higher learning rate
# lets one epoch beat the repeat-last baseline at this size.
TINY = Size(
    seq_len=16, pred_len=8, patch_len=4, stride=2, n_heads=2, e_layers=1, d_layers=1,
    desk_d_model=8, desk_d_ff=16, desk_rows=1200, desk_channels=5, desk_lr=3e-3,
    eval_rows=400, eval_channels=19,
    ref_d_model=8, ref_d_ff=16, ref_channels=7, ref_rows=200, ref_windows=4,
)

SIZES = {"full": FULL, "tiny": TINY}


class Checks:
    """Counts output checks as attempted or failed and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class UnitClock:
    """Start and end of every request, stamped from outside the library.

    ``begin`` marks where the next request starts; ``end`` closes it and
    starts the following one, so back-to-back requests inside one library
    call (training steps, evaluation batches) tile the call without gaps.
    ``between``, when given, is called after each request; its time is left
    out of the requests and added up in ``paused_s``.
    """

    def __init__(self, between=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.between = between
        self.paused_s = 0.0
        self._mark = 0.0

    def begin(self) -> None:
        self._mark = time.perf_counter()

    def end(self) -> None:
        now = time.perf_counter()
        self.starts.append(self._mark)
        self.ends.append(now)
        if self.between is not None:
            self.between()
            paused_until = time.perf_counter()
            self.paused_s += paused_until - now
            now = paused_until
        self._mark = now

    def durations_ms(self) -> list[float]:
        return [(e - s) * 1e3 for s, e in zip(self.starts, self.ends)]


def _end_after(clock: UnitClock):
    """Wrap a library function so each return closes a request on ``clock``."""

    def factory(fn):
        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            clock.end()
            return out

        return stamped

    return factory


def _model_config(s: Size, n_channels: int, d_model: int, d_ff: int) -> model.ModelConfig:
    return model.ModelConfig(
        seq_len=s.seq_len, pred_len=s.pred_len, n_channels=n_channels,
        patch_len=s.patch_len, stride=s.stride, d_model=d_model, n_heads=s.n_heads,
        d_ff=d_ff, n_encoder_layers=s.e_layers, n_decoder_layers=s.d_layers, seed=0,
    )


@dataclass
class Timed:
    """What one timed phase measured, before set-up time and memory are added."""

    windows_per_s: float
    clock: UnitClock
    scaled_mse: float
    phase_s: float


class TrainDesk:
    """One epoch of ``training.train`` on the desk recipe of the acceptance suite."""

    name = "train_desk"
    setup_repeats = 10
    setup_every = 2

    def __init__(self, size: Size, corrupt: bool = False):
        self.size = size
        self.corrupt = corrupt

    def make_inputs(self, seed: int, workdir) -> None:
        s = self.size
        self.cfg = cli.RunConfig(
            synth_length=s.desk_rows, synth_channels=s.desk_channels, synth_seed=seed,
            seq_len=s.seq_len, pred_len=s.pred_len, patch_len=s.patch_len, stride=s.stride,
            d_model=s.desk_d_model, n_heads=s.n_heads, d_ff=s.desk_d_ff,
            e_layers=s.e_layers, d_layers=s.d_layers, epochs=1, lr=s.desk_lr, seed=0,
        )

    def setup(self):
        prepared = cli.prepare_data(self.cfg)
        net = model.PatchformerModel.build(self.cfg.model_config(len(prepared.channel_names)))
        return prepared, net

    def timed(self, state, seconds: float, checks: Checks, between=None) -> Timed:
        # The recipe fixes the work at one epoch (about 30 s on 2 cores), and
        # ``seconds`` never cuts it short, so the validation MSE stays a
        # deterministic function of the seed.
        prepared, net = state
        s = self.size
        baseline = training.repeat_last_report(prepared.val, s.seq_len, s.pred_len).mse
        clock = UnitClock(between)
        losses: list[float] = []

        def record_loss(fn):
            def recorded(pred, target):
                loss = fn(pred, target)
                losses.append(float(loss.data))
                return loss

            return recorded

        hooks = [(training, "adam_step", _end_after(clock)), (training, "mse_loss", record_loss)]
        with rebound(hooks):
            start = time.perf_counter()
            clock.begin()
            result = training.train(net, prepared.train, prepared.val, self.cfg.train_config())
            phase = time.perf_counter() - start - clock.paused_s
        n_windows = prepared.train.n_steps - s.seq_len - s.pred_len + 1
        row = result.trace[-1]
        for step, loss in enumerate(losses):
            checks.check(math.isfinite(loss), f"batch loss {loss!r} at step {step}")
        checks.check(
            len(clock.ends) == math.ceil(n_windows / self.cfg.batch_size),
            f"{len(clock.ends)} steps for {n_windows} windows",
        )
        checks.check(
            math.isfinite(row.train_mse) and math.isfinite(row.val_mse),
            f"epoch metrics not finite: {row}",
        )
        checks.check(
            row.val_mse < baseline,
            f"validation MSE {row.val_mse!r} not below repeat-last {baseline!r}",
        )
        return Timed(n_windows / phase, clock, row.val_mse, phase)


class EvalRolling:
    """The ``patchformer evaluate`` path: checkpoint and CSV in, rolling test MSE out."""

    name = "eval_rolling"
    setup_repeats = 5
    setup_every = 2

    def __init__(self, size: Size, corrupt: bool = False):
        self.size = size
        self.corrupt = corrupt

    def make_inputs(self, seed: int, workdir) -> None:
        s = self.size
        table = data.generate_synthetic_multienergy(
            data.SyntheticSpec(length=s.eval_rows, channels=s.eval_channels, seed=seed)
        )
        self.csv_path = data.save_csv(table, workdir / "eval.csv")
        cfg = _model_config(s, s.eval_channels, s.desk_d_model, s.desk_d_ff)
        train_raw, _, _ = data.chronological_split(table, cli.SPLIT_RATIOS)
        scaler = data.Scaler.fit(train_raw.values)
        self.ckpt_path = model.save_checkpoint(
            model.PatchformerModel.build(cfg), workdir / "eval.npz",
            scaler.mean, scaler.std, table.channel_names,
        )

    def setup(self):
        bundle = model.load_checkpoint(self.ckpt_path)
        table = data.load_csv(self.csv_path).select_channels(bundle.channel_names)
        net = bundle.model
        _, _, test_raw = data.chronological_split(
            table, cli.SPLIT_RATIOS, min_len=net.cfg.seq_len + net.cfg.pred_len
        )
        scaler = data.Scaler(mean=bundle.scaler_mean, std=bundle.scaler_std)
        return net, scaler.transform_table(test_raw)

    def timed(self, state, seconds: float, checks: Checks, between=None) -> Timed:
        net, test = state
        s = self.size
        expected = test.n_steps - s.seq_len - s.pred_len + 1
        clock = UnitClock(between)
        mses: list[float] = []
        start = time.perf_counter()
        with rebound([(model.PatchformerModel, "forward_batch", _end_after(clock))]):
            while not mses or time.perf_counter() - start - clock.paused_s < seconds:
                clock.begin()
                report = training.evaluate(net, test)
                baseline = training.repeat_last_report(test, s.seq_len, s.pred_len)
                mses.append(report.mse)
                checks.check(
                    report.n_windows == expected,
                    f"evaluated {report.n_windows} windows, expected {expected}",
                )
                checks.check(
                    all(map(math.isfinite, (report.mse, report.mae, baseline.mse, baseline.mae))),
                    f"non-finite metrics {report} / {baseline}",
                )
        phase = time.perf_counter() - start - clock.paused_s
        checks.check(len(set(mses)) == 1, f"evaluation not repeatable: {set(mses)}")
        return Timed(len(mses) * expected / phase, clock, mses[0], phase)


class ForecastRef:
    """The ``patchformer forecast`` path at the reference size, one window per request."""

    name = "forecast_ref"
    # A set-up holds a second 26M-parameter model, so none run between
    # forecasts, where they would raise the peak memory.  Each takes about a
    # second, so six of them already span several of the host's phases.
    setup_repeats = 3
    setup_every = 0

    def __init__(self, size: Size, corrupt: bool = False):
        self.size = size
        self.corrupt = corrupt

    def make_inputs(self, seed: int, workdir) -> None:
        s = self.size
        table = data.generate_synthetic_multienergy(
            data.SyntheticSpec(length=s.ref_rows, channels=s.ref_channels, seed=seed)
        )
        self.cfg = _model_config(s, s.ref_channels, s.ref_d_model, s.ref_d_ff)
        train_raw, _, test_raw = data.chronological_split(table, cli.SPLIT_RATIOS)
        self.scaler = data.Scaler.fit(train_raw.values)
        self.channel_names = table.channel_names
        total = s.seq_len + s.pred_len
        rng = Rng(seed).child(11)
        origins = rng.integers(0, test_raw.n_steps - total + 1, (s.ref_windows,))
        self.windows = [test_raw.values[o : o + s.seq_len] for o in origins]
        self.truths = [test_raw.values[o + s.seq_len : o + total] for o in origins]
        self.perm = rng.permutation(s.ref_channels)
        self.ckpt_path = workdir / "ref.npz"

    def setup(self):
        net = model.PatchformerModel.build(self.cfg)
        model.save_checkpoint(
            net, self.ckpt_path, self.scaler.mean, self.scaler.std, self.channel_names
        )
        del net
        bundle = model.load_checkpoint(self.ckpt_path)
        return bundle.model, data.Scaler(mean=bundle.scaler_mean, std=bundle.scaler_std)

    def timed(self, state, seconds: float, checks: Checks, between=None) -> Timed:
        net, scaler = state
        s = self.size
        # Criterion 5 outside the timed loop: permuting the input channels
        # permutes the output bit for bit.
        window = scaler.transform(self.windows[0])
        checks.check(
            np.array_equal(net.forward(window)[:, self.perm], net.forward(window[:, self.perm])),
            "channel permutation does not permute the forecast bit for bit",
        )
        clock = UnitClock(between)
        errors: list[float] = []
        n = len(self.windows)
        start = time.perf_counter()
        while len(clock.ends) < n or time.perf_counter() - start - clock.paused_s < seconds:
            i = len(clock.ends)
            clock.begin()
            scaled = scaler.transform(self.windows[i % n])
            forecast = scaler.inverse(net.forward(scaled))
            clock.end()
            if i < n:
                diff = scaler.transform(forecast) - scaler.transform(self.truths[i])
                errors.append(float(np.mean(diff * diff)))
            if self.corrupt and i == 0:
                forecast = forecast.copy()
                forecast[0, 0] = np.nan
            checks.check(
                forecast.shape == (s.pred_len, s.ref_channels) and bool(np.isfinite(forecast).all()),
                f"forecast {i} has shape {forecast.shape} or non-finite values",
            )
        phase = time.perf_counter() - start - clock.paused_s
        return Timed(len(clock.ends) / phase, clock, float(np.mean(errors)), phase)


WORKLOADS = {w.name: w for w in (TrainDesk, EvalRolling, ForecastRef)}

