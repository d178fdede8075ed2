"""Spans recorded from outside the program, around the calls into each layer.

Each target is patched at the name its callers look up (for example
``lvmforge.ingest.parse_lvm``, which the .lvm import handler calls, or
``Store.put_measurement`` on the class), so the program itself is not
changed.  A span holds its name, start, end and the index of the span that
called it; every span opened while one benchmark operation runs carries
that operation's id.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


def _rows(record) -> int:
    """Value rows plus series points of a MeasurementRecord."""
    return (sum(len(values) for values in record.values.values())
            + sum(len(series.points) for series in record.series))


def _points(record) -> int:
    return sum(len(series.points) for series in record.series)


# counters: (positional args, result) -> {count name: amount}
_COUNTERS: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "lvm.parse_lvm": lambda args, result: {"bytes_in": len(args[0])},
    "ingest.map_lvm_to_record": lambda args, result: {"points": _points(result)},
    "store.put_measurement": lambda args, result: {"rows_written": _rows(args[1])},
    "store.get_measurement": lambda args, result: {"rows_read": _rows(result)},
    "store.query": lambda args, result: {"rows_returned": len(result)},
    "export.export_csv": lambda args, result: {"bytes_out": len(result)},
    "export.export_xml": lambda args, result: {"bytes_out": len(result)},
    "cli.run": lambda args, result: {"nonzero_exits": int(result != 0)},
}

# (span name, module, attribute path as the callers look it up)
TARGETS = (
    ("lvm.parse_lvm", "lvmforge.ingest", "parse_lvm"),
    ("lvm.serialize_lvm", "lvmforge.cli", "serialize_lvm"),
    ("model.make_typed", "lvmforge.ingest", "make_typed"),
    ("model.make_typed", "lvmforge.store", "make_typed"),
    ("model.render_canonical", "lvmforge.store", "render_canonical"),
    ("model.render_canonical", "lvmforge.export", "render_canonical"),
    ("model.render_canonical", "lvmforge.cli", "render_canonical"),
    ("ingest.map_lvm_to_record", "lvmforge.ingest", "map_lvm_to_record"),
    ("ingest.Registry.from_store", "lvmforge.ingest", "Registry.from_store"),
    ("ingest.import_file", "lvmforge.ingest", "import_file"),
    ("ingest.import_file", "lvmforge.cli", "import_file"),
    ("store.init_schema", "lvmforge.store", "init_schema"),
    ("store.put_measurement", "lvmforge.store", "Store.put_measurement"),
    ("store.get_measurement", "lvmforge.store", "Store.get_measurement"),
    ("store.query", "lvmforge.store", "Store.query"),
    ("store.update_value", "lvmforge.store", "Store.update_value"),
    ("store.delete_measurement", "lvmforge.store", "Store.delete_measurement"),
    ("export.export_csv", "lvmforge.export", "export_csv"),
    ("export.export_xml", "lvmforge.export", "export_xml"),
    ("analysis.step_response_from_series", "lvmforge.analysis", "step_response_from_series"),
    ("analysis.estimate_time_constant", "lvmforge.analysis", "estimate_time_constant"),
    ("analysis.nonlinearity_error", "lvmforge.analysis", "nonlinearity_error"),
    ("analysis.synth_first_order", "lvmforge.analysis", "synth_first_order"),
    ("analysis.gen_lvm", "lvmforge.analysis", "gen_lvm"),
    ("cli.run", "lvmforge.cli", "run"),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index of the calling span in Tracer.spans, -1 for a root
    start_ns: int
    end_ns: int = 0
    error: bool = False
    counts: Optional[dict[str, int]] = None


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_kind: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def op(self, name: str, kind: str):
        """Root span of one benchmark operation; its callees share its id."""
        self._op += 1
        self.op_kind[self._op] = kind
        index = len(self.spans)
        span = Span(name, self._op, -1, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._op, stack[-1] if stack else -1,
                        time.perf_counter_ns())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def layers(self, kind: Optional[str] = None) -> dict[str, LayerStats]:
        """Per span name: calls, total and self time, errors and counts, over
        all operations or those of one kind.

        Self time is a span's duration minus the durations of the spans it
        called directly.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        stats: dict[str, LayerStats] = {}
        for index, span in enumerate(self.spans):
            if kind is not None and self.op_kind[span.op] != kind:
                continue
            entry = stats.setdefault(span.name, LayerStats())
            duration = span.end_ns - span.start_ns
            entry.calls += 1
            entry.total_ns += duration
            entry.self_ns += duration - child_ns[index]
            entry.errors += span.error
            for key, amount in (span.counts or {}).items():
                entry.counts[key] = entry.counts.get(key, 0) + amount
        return stats

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "op": span.op, "kind": self.op_kind[span.op],
                    "parent": span.parent, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "error": span.error, "counts": span.counts,
                }) + "\n")
