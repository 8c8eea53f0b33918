"""The benchmark's tracer must still find every name it patches in the library.

``perfbench/tracing.py`` looks each traced and counted function up by module
and attribute when it installs, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    names = [(mod, attr) for mod, attr, _ in tracing.TRACED + tracing.COUNTED]
    originals = {key: getattr(importlib.import_module(key[0]), key[1]) for key in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(importlib.import_module(mod), attr) is not original, f"{mod}.{attr}"
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(importlib.import_module(mod), attr) is original, f"{mod}.{attr}"
