"""Spans recorded from the benchmark's own files around calls into mapvins.

Nothing inside ``mapvins`` is edited: a traced run replaces module attributes
at the call sites (``mapvins.harness.propagate``, ``mapvins.initializer.
vote_yaw``, ...) with thin wrappers and puts the originals back when it ends.
Each span stores its name, start, end, parent span and the counts read from
the call's arguments and result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of work."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.span_id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span; ``counter(args, kwargs, result)`` adds counts."""
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.counts["raised"] = 1
            raise
        finally:
            self.end(span)
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result

    # -- aggregation ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> np.ndarray:
        return np.array([s.end - s.start for s in self.named(name)])

    def self_times(self, name: str) -> np.ndarray:
        """Span duration minus the time its direct child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        return np.array([(s.end - s.start) - child_time.get(s.span_id, 0.0)
                         for s in self.named(name)])

    def count_values(self, name: str, key: str) -> np.ndarray:
        return np.array([s.counts[key] for s in self.named(name) if key in s.counts],
                        dtype=float)


@dataclass(frozen=True)
class Probe:
    """One call site to wrap: ``module.attr`` recorded as span ``name``."""

    module: object
    attr: str
    name: str
    counter: object = None


class Patched:
    """Install wrappers for a list of probes; always restore the originals."""

    def __init__(self, probes, wrap):
        self.probes = list(probes)
        self.wrap = wrap
        self.originals: list[tuple[object, str, object]] = []

    def __enter__(self):
        for probe in self.probes:
            # static lookup keeps a classmethod's descriptor, so the exact
            # original object goes back on exit
            original = inspect.getattr_static(probe.module, probe.attr)
            self.originals.append((probe.module, probe.attr, original))
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(probe, original.__func__))
            else:
                replacement = self.wrap(probe, original)
            setattr(probe.module, probe.attr, replacement)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        return False

    def restored(self) -> bool:
        return all(inspect.getattr_static(m, a) is orig
                   for m, a, orig in self.originals)


def span_wrapper(tracer: Tracer):
    """Wrap factory for :class:`Patched`: each call becomes one span."""

    def wrap(probe: Probe, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(probe.name, original, *args,
                               counter=probe.counter, **kwargs)
        return traced

    return wrap


class FrameClock:
    """The untraced run's only instrument: one timestamp per frame.

    ``run_localization`` calls ``clone_and_marginalize`` exactly once per
    camera frame; the clock records ``perf_counter()`` at that call, so the
    gap between two stamps is one full frame cycle (clone, tracking, map
    matching, pose readout, then IMU propagation up to the next frame).
    """

    def __init__(self, harness_module):
        self.stamps: list[float] = []
        self._patch = Patched([Probe(harness_module, "clone_and_marginalize",
                                     "frame")], self._wrap)

    def _wrap(self, probe, original):
        stamps = self.stamps

        def stamped(state, frame):
            stamps.append(time.perf_counter())
            return original(state, frame)
        return stamped

    def __enter__(self):
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)

    def restored(self) -> bool:
        return self._patch.restored()

    def take(self) -> np.ndarray:
        """Frame-cycle durations (s) since the last take; clears the stamps."""
        gaps = np.diff(np.array(self.stamps))
        self.stamps.clear()
        return gaps
