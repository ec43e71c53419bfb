"""The benchmark's traced call sites exist in the library.

``perfbench/layers.py`` wraps call sites by module attribute name; a
refactor that renames one would otherwise surface only when the benchmark
runs.  This reads ``perfbench/`` and changes nothing there.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_probe_site_is_a_callable_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    probes = layers.probes()
    assert probes
    missing = [f"{getattr(p.module, '__name__', p.module)}.{p.attr}" for p in probes
               if not callable(getattr(p.module, p.attr, None))]
    assert missing == []
