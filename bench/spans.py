"""Spans around plenax's public functions, recorded from outside the package.

instrument() replaces each traced function in every plenax module namespace
that holds it, so calls made through cli, presets or the package root are
caught as well as direct ones, and puts the originals back on exit. A span
records name, start, end and parent; a layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counters: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times_ms(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its children's durations.

    Children run inside their parent on one thread and never overlap each
    other, so the time they cover is the sum of their durations.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    return [1e3 * (s.end - s.start - c) for s, c in zip(spans, child_s)]


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-name totals for one iteration: <name>.ms (self), .calls, counters."""
    out: dict[str, float] = {}
    for s, self_ms in zip(spans, self_times_ms(spans)):
        out[f"{s.name}.ms"] = out.get(f"{s.name}.ms", 0.0) + self_ms
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        for key, value in s.counters.items():
            name = f"{s.name}.{key}"
            if key.endswith("peak_mb"):
                out[name] = max(out.get(name, 0.0), value)
            else:
                out[name] = out.get(name, 0.0) + value
    return out


# Counters taken at the span boundary, from the call's arguments and result.
def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / MB}


def _block_match_cells(args, kwargs, result):
    left, params = args[0], args[2]
    return {"mcells": left.shape[0] * left.shape[1] * (2 * params.max_disparity + 1) / 1e6}


def _check_counts(args, kwargs, result):
    return {"checks": len(result), "checks_failed": sum(not o.passed for o in result)}


_ALLOC = "alloc"  # marker: record the peak of traced Python/numpy allocations

TRACED = {
    "configio": {"load_config": None},
    "optics": {"derive_focus_state": None},
    "raymodel": {"build_virtual_camera_array": None, "triangulate": None},
    "oracle": {
        "parse_scene": None,
        "render_synthetic_scene": _ALLOC,
        "simulate_virtual_cameras": None,
    },
    "lightfield": {
        "read_pgm": _file_mb,
        "write_pgm": _file_mb,
        "decode": None,
        "extract_all_views": _ALLOC,
        "extract_view": None,
    },
    "disparity": {
        "block_match": _block_match_cells,
        "write_map_csv": _file_mb,
        "read_map_csv": _file_mb,
        "to_graymap": None,
    },
    "presets": {"run_factory_checks": _check_counts, "run_consistency_checks": _check_counts},
}


def _wrap(tracer: Tracer, name: str, fn, measure):
    if measure is _ALLOC:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record.counters["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()

    elif measure is not None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                record.counters.update(measure(args, kwargs, result))
                return result

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced plenax function through tracer while active."""
    import plenax

    modules = [plenax] + [
        m for n, m in sys.modules.items() if n.startswith("plenax.") and m is not None
    ]
    replaced = []
    try:
        for module_name, functions in TRACED.items():
            module = sys.modules[f"plenax.{module_name}"]
            for fn_name, measure in functions.items():
                original = getattr(module, fn_name)
                wrapper = _wrap(tracer, f"{module_name}.{fn_name}", original, measure)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            replaced.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(replaced):
            setattr(m, attr, original)
