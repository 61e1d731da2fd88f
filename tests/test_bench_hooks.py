"""The benchmark tracer must still find every library name it rebinds.

``bench/spans.py`` times a run by rebinding public names of the library
(module globals and class attributes).  Deleting or renaming one of them
breaks only traced benchmark runs, so this test installs and removes the
tracer once, in well under a second.
"""

import importlib
from pathlib import Path

from patchformer import attention, training

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    originals = {
        (training, "evaluate"): vars(training)["evaluate"],
        (attention, "softmax_lastdim"): vars(attention)["softmax_lastdim"],
    }
    with spans.Tracer().installed():
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn
