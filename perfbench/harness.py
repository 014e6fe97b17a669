"""Call accounting, oracle bookkeeping and span tracing for the benchmark.

Every public call a workload makes goes through ``Recorder.call``: it counts
the attempt, catches and records an exception as a failed operation, and,
when tracing, wraps the call in a span.  ``Recorder.check`` compares an
output with its oracle after the call returns, outside the call's span; a
miss marks that operation failed and the run as incorrect.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def layer_of(key: str) -> str:
    """``module.function`` part of an operation key such as
    ``lindblad.evolve_master.n80``."""
    return ".".join(key.split(".")[:2])


class Recorder:
    """Per-run tallies; spans are kept only while ``tracing`` is set."""

    def __init__(self):
        self.calls = Counter()
        self.failed = Counter()
        self.wrong_outputs = 0
        self.errors: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        self.tracing = False
        # one entry per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span nested in the open one; nothing is recorded when not tracing."""
        idx = self._open(name) if self.tracing else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    # -- operations --------------------------------------------------------
    def call(self, key: str, fn, *args, **kwargs):
        """Run one public call; returns its output, or None if it raised."""
        self.calls[key] += 1
        with self.span(key):
            try:
                return fn(*args, **kwargs)
            except Exception as err:  # the loop goes on; the failure is counted
                self.failed[key] += 1
                self.errors.setdefault(key, f"{type(err).__name__}: {err}")
                return None

    def check(self, key: str, **errors) -> None:
        """Each keyword is ``name=(error, tolerance)``; the operation passes
        when every error is finite and at most its tolerance."""
        misses = {name: (float(err), tol) for name, (err, tol) in errors.items()
                  if not (math.isfinite(float(err)) and float(err) <= tol)}
        if misses:
            self.failed[key] += 1
            self.wrong_outputs += 1
            self.errors.setdefault(key, "oracle miss: " + ", ".join(
                f"{n}={e:.3e} > {t:.1e}" for n, (e, t) in misses.items()))

    def count(self, key: str, value) -> None:
        """Deterministic count derived from inputs or outputs (not a time)."""
        self.counts[key] = value


def self_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Sum of self time per span name over ``spans[first:]``: each span's
    duration minus the part of it covered by its direct children."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans[first:], start=first):
        out[name] += (end - start) - child_time[i]
    return dict(out)
