"""In-memory span recorder for the benchmark's calls into the library.

A span is one call, recorded as ``[id, parent, group, op, name, start_ns,
end_ns]``.  ``group`` is the round index, or ``-1 - k`` for the k-th
set-up; ``op`` is the id shared by every span of one op.  Spans are kept in
a list and only written out by the caller when the run ends.  When the
recorder is disabled, ``call`` is a plain function call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        self.group = 0
        self.op = 0
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [sid, parent, self.group, self.op, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[5] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[6] = time.perf_counter_ns()
            self._stack.pop()

    def self_seconds(self) -> dict[int, dict[str, float]]:
        """Per group, the self time of each span name: its spans' durations
        minus the time their direct children cover."""
        child = defaultdict(int)
        for _, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for sid, _, group, _, name, start, end in self.spans:
            out[group][name] += (end - start - child[sid]) * 1e-9
        return out

    def dump(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "group", "op", "name", "start_ns", "end_ns"]
        with open(path, "w") as fh:
            json.dump({**header, "fields": fields, "spans": self.spans}, fh)
