"""Self-test of the benchmark at the tests/conftest.py model size, in seconds.

    python3 bench/selftest.py

It runs bench/run.py on every workload at ``--size tiny`` and checks that

- every metric registered in BENCHMARK.json is printed with its unit, in the
  untraced and in the traced run;
- a non-default seed passes every output check with no failed operation;
- a deliberately corrupted forecast is counted as failed (negative control).

Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train_desk", "eval_rolling", "forecast_ref")


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple[int, dict]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--size", "tiny", "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for seed, trace in ((0, 0), (0, 1), (7, 0)):
            label = f"{workload} seed {seed} trace {trace}"
            code, result = run(workload, seed, trace)
            printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            expect(printed == wanted[trace], f"{label}: every registered metric with its unit")
            expect(
                code == 0 and result.get("correct") is True and result.get("failed") == 0
                and result.get("attempted", 0) >= 1,
                f"{label}: all output checks pass ({result.get('attempted')} attempted)",
            )

    code, result = run("forecast_ref", 3, 0, "--corrupt-forecast")
    expect(
        code == 1 and result.get("correct") is False and result.get("failed") == 1,
        f"corrupted forecast counted as failed ({result.get('failed')} failed)",
    )
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
