"""The benchmark's traced call sites exist in the library and still report.

``perfbench/layers.py`` wraps call sites by module attribute name and reads
filter results such as ``last_report``; a refactor that renames one would
otherwise surface only when the benchmark runs.  This reads ``perfbench/``
and changes nothing there.
"""

import importlib
import json
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


def test_traced_multimap_run_reads_every_filter_metric(monkeypatch, tmp_path):
    # a tiny traced localize-multimap run: the filter results the benchmark
    # reads (``last_report`` counts, ``dim``, the wrapped call sites) must
    # still give every per-layer metric, with the run correct
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    outcome, facts = workloads.run("localize-multimap", seed=7, seconds=0.5, trace=True,
                                   workroot=tmp_path, tiny=True)
    assert outcome.correct, outcome.problems
    assert outcome.attempted > 0 and outcome.failed == 0
    assert facts["restored"]
    assert set(outcome.metrics) == {m["name"] for m in spec["per_layer"]}
