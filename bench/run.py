"""Seeded benchmark of the patchformer library, one workload per run.

    python3 bench/run.py --workload train_desk --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``train_desk`` trains the desk recipe for one
epoch, ``eval_rolling`` scores a checkpoint over every stride-1 test window,
``forecast_ref`` forecasts single windows at the reference size D=512.

With ``--trace 0`` the run prints the end-to-end metrics of an untraced run.
With ``--trace 1`` it runs the timed phase twice, each from a fresh set-up,
first untraced and then with every layer traced (spans.py), and prints the
per-layer metrics; the spans go to ``bench/out``.  Both modes check every
output and count each check as attempted or failed.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
library source is missing next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# The traced training steps plus validation must match the untraced epoch
# within this share.
ACCOUNTING_TOLERANCE = 0.10

# metric name -> (unit, what it measures on each workload)
END_TO_END = {
    "setup_s": ("s", "set-up, fastest or median: data, split, scaling, model build or load"),
    "peak_rss_mb": ("MB", "process high-water resident memory"),
    "windows_per_s": ("1/s", "windows trained, evaluated or forecast per second"),
    "request_ms_p50": ("ms", "median request: train step, eval batch, forecast"),
    "request_ms_p90": ("ms", "90th percentile request; eval_rolling has only about 39 batches"),
    "scaled_mse": ("1", "scaled MSE: validation, test, or forecast windows"),
}


def _git_commit() -> str | None:
    """The commit of the checkout, or None when it is not the top of a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment_stamp(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(wl, repeats: int):
    """Run the workload's set-up ``repeats`` times; return the last state and times."""
    times = []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - start)
    return state, times


def plain_run(wl, args, checks) -> tuple[dict, dict]:
    # On a shared host, Python code runs up to 1.7x slower in phases of
    # seconds, and set-up is mostly Python.  So set-up is timed in a burst
    # before the timed phase, after every ``setup_every`` requests during it
    # (left out of the request times) and in a burst after it.  When samples
    # span the run like this, nearly every run has a fast phase, and the
    # fastest set-up, the one least slowed by other work, is steadiest.  A
    # workload that takes only a few long set-ups, before and after, would
    # report whether one of them hit a fast phase; it reports the median.
    state, setup_times = _set_up(wl, wl.setup_repeats)
    between = None
    if wl.setup_every:
        requests = 0

        def between():
            nonlocal requests
            requests += 1
            if requests % wl.setup_every == 0:
                setup_times.extend(_set_up(wl, 1)[1])

    timed = wl.timed(state, args.seconds, checks, between)
    peak_rss_mb = _peak_rss_mb()
    state = None
    setup_times += _set_up(wl, wl.setup_repeats)[1]
    req = timed.clock.durations_ms()
    values = {
        "setup_s": min(setup_times) if wl.setup_every else float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mb,
        "windows_per_s": timed.windows_per_s,
        "request_ms_p50": float(np.median(req)),
        "request_ms_p90": float(np.percentile(req, 90)),
        "scaled_mse": timed.scaled_mse,
    }
    samples = {
        "setup_times_s": [round(t, 6) for t in setup_times],
        "requests": len(req),
        "phase_s": timed.phase_s,
    }
    return values, samples


def traced_run(wl, args, checks, out_dir: Path) -> tuple[dict, dict]:
    from spans import Tracer

    state, _ = _set_up(wl, 1)
    plain = wl.timed(state, args.seconds, checks)
    tracer = Tracer()
    with tracer.installed():
        state, _ = _set_up(wl, wl.setup_repeats)
        traced = wl.timed(state, args.seconds, checks)
    state = None
    checks.check(
        traced.scaled_mse == plain.scaled_mse,
        f"tracing changed the result: {traced.scaled_mse!r} != {plain.scaled_mse!r}",
    )
    values = tracer.metrics(traced.clock, float(np.median(plain.clock.durations_ms())))
    samples = {"requests": len(traced.clock.ends), "spans": len(tracer.names)}
    if wl.name == "train_desk":
        # The traced steps plus the traced validation against the untraced
        # epoch: what tracing adds to the epoch, not whether spans miss time.
        accounted = sum(traced.clock.durations_ms()) / 1e3 + values["training.validate_s"]
        share = accounted / plain.phase_s - 1.0
        samples.update(accounted_s=accounted, untraced_epoch_s=plain.phase_s)
        print(f"accounting: {accounted:.3f} s traced vs "
              f"{plain.phase_s:.3f} s untraced epoch ({100 * share:+.2f}%)")
        # A tiny-size epoch lasts a fraction of a second, too short for two
        # timings of it to agree within the tolerance, so only the benchmark
        # size is held to it.
        if args.size == "full":
            checks.check(
                abs(share) <= ACCOUNTING_TOLERANCE,
                f"traced steps and validation take {accounted:.3f} s against a {plain.phase_s:.3f} s epoch",
            )
    tracer.dump(out_dir / f"{wl.name}-seed{args.seed}-spans.json")
    return values, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_desk", "eval_rolling", "forecast_ref"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the tests/conftest.py model, for the self-test")
    parser.add_argument("--corrupt-forecast", action="store_true",
                        help="negative control: corrupt the first forecast_ref output")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "patchformer" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from patchformer.errors import PatchformerError

    from spans import PER_LAYER

    stamp = environment_stamp(args)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.corrupt_forecast)
    checks = workloads.Checks()
    work = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    values, samples = None, {}
    try:
        wl.make_inputs(args.seed, work)
        if args.trace:
            values, samples = traced_run(wl, args, checks, out_dir)
        else:
            values, samples = plain_run(wl, args, checks)
    except PatchformerError as exc:
        # A refused input or a diverged run is a failed operation, reported
        # like any other failed check rather than as a crash.
        checks.check(False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    if values is not None:
        metrics = {name: {"value": values[name], "unit": table[name][0]} for name in table}
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    brief = {k: len(v) if isinstance(v, list) else v for k, v in samples.items()}
    print("samples " + json.dumps(brief, sort_keys=True))
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = {"stamp": stamp, "samples": samples, "failures": checks.failures, **result}
    mode = "trace" if args.trace else "e2e"
    (out_dir / f"{args.workload}-seed{args.seed}-{mode}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
