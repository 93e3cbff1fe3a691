"""Span tracing from outside the program, for the per-layer run.

The benchmark wraps the public entry points of each layer (source read,
operator ``process``, state-store access and commit, WAL writes,
``os.fsync``, sink ``add_batch``, progress and flight-recorder
bookkeeping, the epoch itself) with spans: name, start, end, parent.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' durations minus what their child spans cover,
so the self times of all layers inside an epoch add up to the epoch.

State-store ``get``/``put``/``remove``/``contains``/``pop_expired`` run
tens of thousands of times per epoch.  Recording each as a span would
cost more memory and time than the access itself, so they are folded
into their parent span as counted child time: the parent's self time
still excludes them, and ``state.access_s`` sums them.

Nothing here enables the program's own metrics or tracing: those switch
on extra per-epoch bookkeeping inside the engine, which the end-to-end
numbers must not include.
"""

from __future__ import annotations

import json
import os
import threading
import time

#: Span layer for each wrapped (module, class, method); the class name
#: is appended for operators, so each operator type has its own layer.
SPANNED = (
    ("repro.streaming.microbatch", "MicrobatchEngine", "run_epoch", "microbatch"),
    ("repro.sources.kafka", "KafkaSource", "get_batch", "sources"),
    ("repro.streaming.state", "StateStore", "commit_all", "state.commit"),
    ("repro.streaming.state", "StateStore", "restore_all", "state.restore"),
    ("repro.streaming.wal", "WriteAheadLog", "write_offsets", "wal.write"),
    ("repro.streaming.wal", "WriteAheadLog", "write_commit", "wal.write"),
    ("repro.sinks.memory", "MemorySink", "add_batch", "sinks.add_batch"),
    ("repro.observability.flightrec", "FlightRecorder", "record_epoch",
     "observability.record"),
    ("repro.streaming.progress", "ProgressReporter", "record",
     "observability.record"),
)

#: Operator classes whose ``process`` gets its own layer.  Pass-through
#: operators (scan, watermark tracking) are left unwrapped, so their
#: small cost lands in the self time of the operator above them.
OPERATORS = ("StatelessOp", "StreamStaticJoinOp", "StatefulAggregateOp")

#: Per-key state accesses, folded into the parent span (see module doc).
STATE_ACCESS = ("get", "put", "remove", "contains", "pop_expired")


class Tracer:
    """In-memory span recorder for one thread (the engine's)."""

    def __init__(self):
        #: One list per span: [layer, start, end, parent, folded_s, phase].
        self.spans = []
        self.counts = {"get": 0, "put": 0, "remove": 0, "contains": 0,
                       "pop_expired": 0, "fsync": 0}
        self.commit_bytes = 0
        self.rows_in = 0
        self.rows_out = 0
        #: ``<checkpoint>/state`` of the traced query (for commit bytes).
        self.state_dir = None
        #: Spans are kept only while a phase is set (restarts, measured
        #: phase); warm-up and the catch-up check run untraced.
        self.phase = None
        self._stack = []
        self._thread = threading.get_ident()
        self._patched = []

    def begin(self, phase) -> None:
        """Record spans under ``phase`` from now on (None pauses).
        Counters restart with the measured phase, so they cover it alone."""
        self.phase = phase
        if phase == "measure":
            self.counts = dict.fromkeys(self.counts, 0)
            self.commit_bytes = self.rows_in = self.rows_out = 0

    # -- recording ------------------------------------------------------
    def _recording(self) -> bool:
        return self.phase is not None and threading.get_ident() == self._thread

    def _span(self, layer, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [layer, time.perf_counter(), 0.0, parent, 0.0, tracer.phase]
            spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result, span)
            return result

        return wrapper

    def _folded(self, kind, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer.counts[kind] += 1
                stack = tracer._stack
                if stack:
                    tracer.spans[stack[-1]][4] += elapsed

        return wrapper

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` undoes it."""
        import importlib

        from repro.streaming import operators, state

        for module, cls_name, method, layer in SPANNED:
            cls = getattr(importlib.import_module(module), cls_name)
            after = None
            if (cls_name, method) == ("MicrobatchEngine", "run_epoch"):
                after = self._mark_idle
            elif (cls_name, method) == ("KafkaSource", "get_batch"):
                after = self._count_read
            elif (cls_name, method) == ("StateStore", "commit_all"):
                after = self._count_commit_bytes
            self._patch(cls, method,
                        self._span(layer, cls.__dict__[method], after))
        for name in OPERATORS:
            cls = getattr(operators, name)
            self._patch(cls, "process", self._span(
                f"operators.{name}", cls.__dict__["process"],
                self._count_root_rows))
        for method in STATE_ACCESS:
            self._patch(state.OperatorStateHandle, method, self._folded(
                method, state.OperatorStateHandle.__dict__[method]))
        self._patch(os, "fsync", self._span("storage.fsync", os.fsync,
                                            self._count_fsync))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- counters attached to spans -------------------------------------
    def _mark_idle(self, _args, progress, span) -> None:
        # A poll that found no new data is not an epoch.
        if progress is None:
            span[0] = "microbatch.idle"

    def _count_read(self, _args, batch, _span) -> None:
        self.rows_in += batch.num_rows

    def _count_fsync(self, _args, _result, _span) -> None:
        self.counts["fsync"] += 1

    def _count_root_rows(self, _args, batch, span) -> None:
        # The plan root is the operator whose parent span is the epoch.
        if span[3] >= 0 and self.spans[span[3]][0] == "microbatch":
            self.rows_out += batch.num_rows

    def _count_commit_bytes(self, args, _reports, _span) -> None:
        # The store writes <state>/<operator>/<version>.<kind>.json.
        version = args[1]
        for op_dir in os.scandir(self.state_dir):
            for kind in ("delta", "snapshot"):
                path = os.path.join(op_dir.path, f"{version:010d}.{kind}.json")
                if os.path.exists(path):
                    self.commit_bytes += os.path.getsize(path)

    # -- derivation -----------------------------------------------------
    def self_times(self, phase: str) -> dict:
        """Layer -> summed self time over spans recorded in ``phase``."""
        covered = [span[4] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        totals = {}
        for span, child in zip(self.spans, covered):
            if span[5] != phase:
                continue
            totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1] - child)
        return totals

    def durations(self, layer: str, phase: str) -> list:
        return [span[2] - span[1] for span in self.spans
                if span[0] == layer and span[5] == phase]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (layer, start, end, parent, folded, phase) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": layer, "start": start,
                                    "end": end, "parent": parent,
                                    "folded_s": folded, "phase": phase}) + "\n")
