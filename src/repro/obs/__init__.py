"""Structured tracing, metrics, and run telemetry (``repro.obs``).

The observability layer every other subsystem leans on: the campaign
runner, the adaptive MC engine, the link/relay/coverage simulators and
the CLI all emit spans and counters through the module-level functions
here. Counts live in one place, the active :class:`MetricsRegistry`;
a tracer writes its counter deltas into the trace. With no tracer or
registry installed (the default) every call is a single branch on a
process global — simulation hot paths pay effectively nothing (see the
overhead guard in ``tests/test_obs.py``).

Quick use::

    from repro import obs

    with obs.use_tracer(obs.Tracer()) as tracer:
        with obs.span("my.phase", n=3) as sp:
            obs.counter("my.events", 3)
            sp.set(outcome="ok")
    print(obs.summary_table(tracer.summary()))

Persisted traces are per-process JSONL files merged by the parent (see
:mod:`repro.obs.writer`), rendered by ``repro trace report`` (see
:mod:`repro.obs.report`).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import metrics
from repro.obs import live
from repro.obs.live import STATUS_FILE, StatusBoard
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots
from repro.obs.report import (aggregate, summary_table, trace_report_lines)
from repro.obs.tracer import (NULL_SPAN, NullSpan, Span, StopWatch, Tracer)
from repro.obs.writer import (MERGED_TRACE_FILE, TraceWriter,
                              merge_trace_dir, part_path, read_trace,
                              reset_trace_dir)

__all__ = [
    "Histogram",
    "MERGED_TRACE_FILE",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "STATUS_FILE",
    "Span",
    "StatusBoard",
    "StopWatch",
    "TraceWriter",
    "Tracer",
    "aggregate",
    "counter",
    "current_tracer",
    "enabled",
    "event",
    "live",
    "merge_snapshots",
    "merge_trace_dir",
    "metrics",
    "part_path",
    "read_trace",
    "reset_trace_dir",
    "set_tracer",
    "span",
    "summary_table",
    "timed",
    "trace_report_lines",
    "use_tracer",
]

#: The process-wide active tracer; ``None`` means tracing is off.
_TRACER = None


def current_tracer():
    """The active :class:`Tracer`, or ``None`` when tracing is off."""
    return _TRACER


def enabled():
    """True when a tracer is installed (lets callers skip attr prep)."""
    return _TRACER is not None


def set_tracer(tracer):
    """Install ``tracer`` and its registry process-wide (``None``
    disables tracing and leaves the active registry in place)."""
    global _TRACER
    _TRACER = tracer
    if tracer is not None:
        metrics.set_registry(tracer.registry)
    return tracer


@contextmanager
def use_tracer(tracer):
    """Install ``tracer`` and its registry for the block, then restore
    both and flush.

    The idiom for scoped tracing — a traced CLI run, a campaign worker
    adopting its per-process tracer — because it guarantees the
    previous tracer (usually ``None``) and registry come back even on
    error, and that buffered events hit the writer before control
    returns. ``use_tracer(None)`` leaves the active registry counting.
    """
    global _TRACER
    previous, registry = _TRACER, metrics.current_registry()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        _TRACER = previous
        metrics.set_registry(registry)
        if tracer is not None:
            tracer.flush()


def span(name, **attrs):
    """Open a span on the active tracer (shared no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def counter(name, n=1):
    """Add ``n`` to counter ``name`` in the active registry (the one
    counting call; a single branch when none is installed)."""
    registry = metrics._REGISTRY
    if registry is not None:
        registry.count(name, n)


def event(name, duration_s=0.0, **attrs):
    """Record a pre-measured span on the active tracer (see Tracer.event)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, duration_s, **attrs)


def timed():
    """A :class:`StopWatch` — the repo's one wall-time measuring tool."""
    return StopWatch()

