"""Outside-in instrumentation of ``tifcsim``.

The library carries no instrumentation of its own. ``patched`` swaps the
named functions and methods for wrappers, in every ``tifcsim`` module that
holds them (so ``from .x import f`` copies are caught too), and restores
the originals on exit. ``Tracer`` records one span per wrapped call in
memory: name, start, end, parent span and operation id.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

# (metric name, module, qualified attribute). The metric prefix is the layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("labels.join", "labels", "Label.join"),
    ("labels.lift_to_timing", "labels", "Label.lift_to_timing"),
    ("labels.declassify", "labels", "Label.declassify"),
    ("labels.flows_to", "labels", "Label.flows_to"),
    ("labels.pace_down", "labels", "Label.pace_down"),
    ("labels.new", "labels", "Label.__init__"),
    ("labels.str", "labels", "Label.__str__"),
    ("labels.parse", "labels", "Label.parse"),
    ("monitor.check_send", "monitor", "check_send"),
    ("monitor.decide", "monitor", "Monitor.decide"),
    ("monitor.apply_receive", "monitor", "apply_receive"),
    ("kernel.schedule", "kernel", "Engine.schedule"),
    ("kernel.dispatch", "kernel", "Engine.run_until"),
    ("kernel.emit", "kernel", "Engine.emit"),
    ("kernel.to_json", "kernel", "TraceRecord.to_json"),
    ("kernel.from_json", "kernel", "TraceRecord.from_json"),
    ("entities.gateway.handle", "entities", "Gateway.handle"),
    ("entities.core.handle", "entities", "ComputeCore.handle"),
    ("entities.scheduler.handle", "entities", "Scheduler.handle"),
    ("entities.pacer.handle", "entities", "Pacer.handle"),
    ("scenarios.wire", "scenarios", "wire"),
    ("scenarios.validate", "scenarios", "ScenarioConfig.validate"),
    ("scenarios.run_paired", "scenarios", "run_paired"),
    ("scenarios.boundary_records", "scenarios", "boundary_records"),
    ("scenarios.render_schedule", "scenarios", "render_schedule"),
    ("leakage.run_trial", "leakage", "run_trial"),
    ("leakage.build_config", "leakage", "build_config"),
    ("leakage.decode_from_releases", "leakage", "decode_from_releases"),
    ("cli.load_scenario", "cli", "load_scenario"),
    ("cli.main", "cli", "main"),
)

# Calls whose arguments are recorded, so the share of repeated inputs (the
# ceiling for a memo or an intern table) can be measured where the work is.
KEYED = {
    "monitor.check_send": lambda args: args,
    "labels.str": lambda args: args[0],
    "labels.parse": lambda args: args[1],
}

Wrap = Callable[[str, Callable], Callable]


def _tifcsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "tifcsim" or n.startswith("tifcsim."))]


@contextlib.contextmanager
def patched(targets: Sequence[Tuple[str, str, str]], wrap: Wrap) -> Iterator[None]:
    """Replace each ``(name, module, qualname)`` target by
    ``wrap(name, original)`` until exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, module, qualname in targets:
            owner = sys.modules[f"tifcsim.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(wrap(name, raw.__func__))
                else:
                    new = wrap(name, raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
            else:
                raw = getattr(owner, qualname)
                new = wrap(name, raw)
                for mod in _tifcsim_modules():
                    if getattr(mod, qualname, None) is raw:
                        undo.append((mod, qualname, raw))
                        setattr(mod, qualname, new)
        yield
    finally:
        for obj, attr, raw in reversed(undo):
            setattr(obj, attr, raw)


class Tracer:
    """In-memory spans for the wrapped calls of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = [t[0] for t in TARGETS]
        # One tuple per span: (op id, parent index or -1, name index,
        # start ns, end ns). End is filled in when the call returns.
        self.spans: List[list] = []
        self.keys: Dict[str, List[object]] = defaultdict(list)
        self.op = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        index = self.names.index(name)
        keyed = KEYED.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed is not None:
                self.keys[name].append((self.op, keyed(args)))
            span = [self.op, stack[-1] if stack else -1, index, clock(), 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        with patched(TARGETS, self.wrap):
            yield

    def per_op(self, ops: int) -> Dict[str, float]:
        """``<name>.calls`` and ``<name>.self_ms`` per operation, where self
        time is a span's duration minus what its child spans cover, plus
        ``<name>.repeat_ratio`` for the keyed calls."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[4] - span[3]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, span in enumerate(self.spans):
            calls[span[2]] += 1
            self_ns[span[2]] += span[4] - span[3] - child[i]
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / ops
            out[f"{name}.self_ms"] = self_ns[i] / 1e6 / ops
        for name in KEYED:
            seen, repeats = set(), 0
            for key in self.keys[name]:
                repeats += key in seen
                seen.add(key)
            total = len(self.keys[name])
            out[f"{name}.repeat_ratio"] = repeats / total if total else 0.0
        return out

    def write(self, path) -> None:
        """Spans as JSON lines ``[op, parent, name, start_ns, end_ns]``; a
        span's id is its line number, counted from 0 after the header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
