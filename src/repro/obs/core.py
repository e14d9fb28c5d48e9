"""Spans, counters, gauges, histograms, and the recording stack.

A :class:`Recording` owns one span tree plus counter/gauge/histogram
tables.  Recordings nest (a stats-collecting ``equivalent`` drives two
``contains`` calls whose spans all land in the outer recording) and are
thread-local, so concurrent recordings never interleave.  The
module-global ``_ENABLED`` flag short-circuits every instrumentation call
when no recording exists anywhere — the "no-op fast path" that keeps
instrumented hot loops at full speed in ordinary test runs.

Trace identity (second-generation layer): every recording carries a
``trace_id`` and allocates dense ``span_id``\\ s; each span records its
``parent_id`` and a wall-clock ``start_ts`` (epoch seconds) next to its
monotonic duration.  Wall-clock anchoring is what lets
:mod:`repro.obs.traceout` merge span trees from *different processes*
(batch coordinator + forked workers share the system clock) onto one
Chrome trace-event timeline.
"""

from __future__ import annotations

import os
import threading
import time

from .histogram import Histogram

__all__ = [
    "NULL_SPAN",
    "Recording",
    "Span",
    "active",
    "count",
    "disable",
    "enable",
    "gauge",
    "is_enabled",
    "note",
    "observe",
    "record",
    "span",
]

_ENABLED = False  # True iff at least one Recording is live (any thread).
_live_recordings = 0
_lock = threading.Lock()
_local = threading.local()


def _thread_stack() -> list["Recording"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def is_enabled() -> bool:
    """True iff some recording is live (instrumentation is not a no-op)."""
    return _ENABLED


def active() -> "Recording | None":
    """The innermost recording of the current thread, or None."""
    if not _ENABLED:
        return None
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


class Span:
    """One timed section.  Use as a context manager, or drive
    :meth:`start`/:meth:`finish` manually for loop-carried spans (the
    bounded engine opens one span per candidate-tree size this way)."""

    __slots__ = ("name", "attrs", "children", "duration_s", "span_id",
                 "parent_id", "start_ts", "_recording", "_t0")

    def __init__(self, recording: "Recording", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.duration_s: float | None = None
        self.span_id = recording._alloc_span_id()
        self.parent_id: int | None = None
        self.start_ts: float | None = None
        self._recording = recording
        self._t0: float | None = None

    def start(self) -> "Span":
        stack = self._recording._span_stack
        if stack:
            parent = stack[-1]
            parent.children.append(self)
            self.parent_id = parent.span_id
            stack.append(self)
        self.start_ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def finish(self) -> None:
        if self._t0 is None or self.duration_s is not None:
            return
        self.duration_s = time.perf_counter() - self._t0
        stack = self._recording._span_stack
        if self not in stack:
            # Already unwound — an exception escaped an enclosing span, whose
            # exit popped this one as "abandoned".  A late finish() (typical
            # for loop-carried spans closed from a generator's ``finally``)
            # must leave the stack alone: popping here would evict *live*
            # spans and corrupt the timings of every later span in this
            # recording.
            return
        while len(stack) > 1 and stack.pop() is not self:
            pass  # unwind spans abandoned by an exception

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. items processed)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.finish()

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "duration_s": self.duration_s,
                      "id": self.span_id, "parent": self.parent_id}
        if self.start_ts is not None:
            data["start_ts"] = self.start_ts
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data


class _NullSpan:
    """Shared do-nothing span handed out while instrumentation is off."""

    __slots__ = ()

    def start(self) -> "_NullSpan":
        return self

    def finish(self) -> None:
        return None

    def annotate(self, **attrs) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class Recording:
    """Collects one run's spans and metrics; usable as a context manager.

    The recording's lifetime brackets a *root span* named after it; spans,
    counters, gauges, and notes issued anywhere down the call stack (same
    thread) accumulate here until :meth:`stop`.
    """

    _trace_seq = 0
    _trace_lock = threading.Lock()

    def __init__(self, name: str, **meta):
        self.name = name
        self.meta: dict = dict(meta)
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        with Recording._trace_lock:
            Recording._trace_seq += 1
            sequence = Recording._trace_seq
        #: Stable-ish trace identity: unique within a process run, and
        #: distinguishable across processes (forked workers embed their pid).
        self.trace_id = f"{os.getpid():x}-{sequence:x}"
        self._span_seq = 0
        self.root = Span(self, name, {})
        self._span_stack: list[Span] = []
        self._live = False

    def _alloc_span_id(self) -> int:
        span_id = self._span_seq
        self._span_seq += 1
        return span_id

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "Recording":
        global _ENABLED, _live_recordings
        if self._live:
            raise RuntimeError(f"recording {self.name!r} already started")
        self._live = True
        _thread_stack().append(self)
        with _lock:
            _live_recordings += 1
            _ENABLED = True
        # Root span bypasses Span.start: there is no parent to attach to.
        self._span_stack.append(self.root)
        self.root.start_ts = time.time()
        self.root._t0 = time.perf_counter()
        return self

    def stop(self) -> "Recording":
        global _ENABLED, _live_recordings
        if not self._live:
            return self
        while len(self._span_stack) > 1:
            self._span_stack[-1].finish()
        self.root.duration_s = time.perf_counter() - self.root._t0
        self._span_stack.clear()
        self._live = False
        stack = _thread_stack()
        if self in stack:
            stack.remove(self)
        with _lock:
            _live_recordings -= 1
            _ENABLED = _live_recordings > 0
        return self

    def __enter__(self) -> "Recording":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- metrics

    def note(self, key: str, value) -> None:
        """Record a run-level fact (engine chosen, verdict, input sizes)."""
        self.meta[key] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to the named histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def to_run_record(self):
        """Freeze this recording into a :class:`~repro.obs.RunRecord`."""
        from .runrecord import RunRecord

        duration = self.root.duration_s
        if duration is None and self.root._t0 is not None:
            duration = time.perf_counter() - self.root._t0
        return RunRecord(
            name=self.name,
            duration_s=duration if duration is not None else 0.0,
            meta=dict(self.meta),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={name: histogram.to_dict()
                        for name, histogram in self.histograms.items()},
            spans=self.root.to_dict(),
            trace_id=self.trace_id,
        )


# --------------------------------------------------------------- module API


def record(name: str, **meta) -> Recording:
    """A fresh recording, ready for ``with record("satisfiable") as rec:``."""
    return Recording(name, **meta)


def span(name: str, **attrs):
    """A timed span under the active recording; NULL_SPAN when disabled."""
    if not _ENABLED:
        return NULL_SPAN
    recording = active()
    if recording is None:
        return NULL_SPAN
    return Span(recording, name, attrs)


def count(name: str, amount: int = 1) -> None:
    """Increment a named counter on the active recording (no-op otherwise)."""
    if not _ENABLED:
        return
    recording = active()
    if recording is not None:
        counters = recording.counters
        counters[name] = counters.get(name, 0) + amount


def gauge(name: str, value: float) -> None:
    """Set a named gauge on the active recording (last write wins)."""
    if not _ENABLED:
        return
    recording = active()
    if recording is not None:
        recording.gauges[name] = value


def note(key: str, value) -> None:
    """Attach a run-level fact to the active recording (no-op otherwise)."""
    if not _ENABLED:
        return
    recording = active()
    if recording is not None:
        recording.meta[key] = value


def observe(name: str, value: float) -> None:
    """Add one observation to the named histogram on the active recording
    (no-op otherwise).  Use for latency/size distributions — per-problem
    wall time, queue waits, saturation-round cost — where a counter's sum
    or a gauge's last value would hide the tail."""
    if not _ENABLED:
        return
    recording = active()
    if recording is not None:
        recording.observe(name, value)


_ambient: Recording | None = None


def enable(name: str = "ambient") -> Recording:
    """Start an ambient recording on this thread (idempotent).  Used by
    harnesses that want metrics without scoping every call site."""
    global _ambient
    if _ambient is None:
        _ambient = Recording(name).start()
    return _ambient


def disable() -> "Recording | None":
    """Stop the ambient recording (if any) and return it."""
    global _ambient
    recording = _ambient
    if recording is not None:
        recording.stop()
        _ambient = None
    return recording


def _after_fork_in_child() -> None:
    # A forked worker starts with no recordings: the forking thread's live
    # ones belong to the parent, and a lock another parent thread held at
    # fork time would deadlock the child's first recording.
    global _ENABLED, _live_recordings, _lock, _local, _ambient
    _ENABLED = False
    _live_recordings = 0
    _lock = threading.Lock()
    _local = threading.local()
    _ambient = None
    Recording._trace_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)
