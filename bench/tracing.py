"""Span tracing around the package's public functions, installed from
outside the package.

A Tracer keeps spans in memory as (name, start_ns, end_ns, parent, op)
tuples and writes them once, at the end of a run. Wrappers are set on the
attribute a caller actually looks up (for example
`blindtrack.experiments.dlt_estimate`, not only the `geometry` original)
and every wrapper is removed again by `uninstall`, so an untraced run
executes the package's own function objects.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

NO_PARENT = -1


class Tracer:
    """In-memory span recorder.

    Spans nest by call order: a span opened while another is open is its
    child. `op` is the benchmark operation that was current when the span
    opened, so spans can be grouped per operation or per workload phase.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close span `index` and any span still open inside it (an
        exception can leave an inner span open)."""
        now = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    # wrappers ------------------------------------------------------------

    def _set(self, owner, attr: str, replacement) -> None:
        # vars() gives the raw function for class attributes, so restoring
        # puts back exactly the object that was there
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def span_calls(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call of owner.attr."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        self._set(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without opening a span (for cheap,
        frequent calls whose time belongs to their caller)."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self._set(owner, attr, counted)

    def step_boundaries(self, name: str, first: tuple, last: tuple) -> None:
        """A span `name` that opens at the first call of `first` after the
        previous one closed, and closes when `last` returns: one training
        minibatch, from its first loss to the end of the optimizer step.
        `first` and `last` are (owner, attribute, span name) and keep their
        own spans inside it."""
        first_owner, first_attr, first_name = first
        last_owner, last_attr, last_name = last
        first_fn = vars(first_owner)[first_attr]
        last_fn = vars(last_owner)[last_attr]

        @functools.wraps(first_fn)
        def opening(*args, **kwargs):
            if not any(self.spans[i][0] == name for i in self._stack):
                self.open(name)
            index = self.open(first_name)
            try:
                return first_fn(*args, **kwargs)
            finally:
                self.close(index)

        @functools.wraps(last_fn)
        def closing(*args, **kwargs):
            index = self.open(last_name)
            try:
                return last_fn(*args, **kwargs)
            finally:
                self.close(index)
                if self._stack and self.spans[self._stack[-1]][0] == name:
                    self.close(self._stack[-1])

        self._set(first_owner, first_attr, opening)
        self._set(last_owner, last_attr, closing)

    def uninstall(self) -> None:
        """Put back every replaced attribute, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # output --------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "workload": self.workload,
                            "op": op,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def self_times(spans: list) -> list[int]:
    """Self time of each span in ns: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    counted once, and any part of a child outside the parent is ignored)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out
