"""Deterministic virtual-time discrete-event engine.

Time is a non-negative integer tick count. An event is a call of an added
entity's method, ``handler(engine, *args)``, at ``(time, phase, seq)``, the
total order of execution; ``seq`` is assigned at scheduling time, so a run
is a pure function of its initial schedule: identical configuration gives
byte-identical traces on every platform.

At equal time, the phase of an entity's class fixes the tie order: arrivals
land first, then pacers fire, then cores run. Every event is an arrival or a
clock tick, and a clock ticks only while its group holds work; a delivery
runs inside the tick that releases it.

Events of one ``(time, phase)`` on distinct entities commute: in any order
that keeps each entity's own events in ``seq`` order, every gateway sees the
same records and every entity emits the same multiset of records.

A record has five fields, a label on every record, string detail values and
one canonical JSONL line, ``json.dumps(obj, sort_keys=True, separators=(",",
":"))``. A slice is one tick and writes one ``SliceStart`` record; the
monitor writes the delivery it allows, or the denial with its residual.
"""

from __future__ import annotations

import heapq
import json
from enum import Enum, IntEnum
from itertools import count
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple

from .labels import Label


class SimError(Exception):
    """Base for simulation failures."""


class SchedulingError(SimError):
    """Scheduling into the past, or a handler not of an added entity."""


class ConfigError(SimError):
    """Invalid scenario or entity configuration."""


class MonitorFault(SimError):
    """A denied flow under fatal monitor mode, with the denial record."""

    def __init__(self, message: str, record: "TraceRecord"):
        super().__init__(message)
        self.record = record


class Phase(IntEnum):
    ARRIVAL = 0
    PACER = 1
    CORE = 2


class TraceKind(str, Enum):
    JOB_ARRIVE = "JobArrive"
    SLICE_START = "SliceStart"
    JOB_COMPLETE = "JobComplete"
    MSG_SEND = "MsgSend"
    MSG_RECV = "MsgRecv"
    PACER_RELEASE = "PacerRelease"
    MONITOR_DENY = "MonitorDeny"
    LABEL_CHANGE = "LabelChange"


_KINDS = {kind.value: kind for kind in TraceKind}
_KIND_JSON = {kind: f',"kind":{_quote(kind.value)},"label":' for kind in TraceKind}
# ``from_json`` strips JSON whitespace, then one scanner call must consume
# the rest: exactly the lines ``json.loads`` accepts, without its regexes.
_scan = json.JSONDecoder().raw_decode


class TraceRecord(NamedTuple):
    """One observable event, immutable; the unit of every assertion and diff.
    ``t >= 0``; every record has a ``label``; ``detail`` maps strings to
    strings; ``to_json`` writes the canonical line."""

    t: int
    kind: TraceKind
    entity: str
    label: Label
    detail: Mapping[str, str] = MappingProxyType({})

    def to_json(self) -> str:
        detail = ",".join([f"{_quote(k)}:{_quote(v)}" for k, v in sorted(self.detail.items())])
        return (f'{{"detail":{{{detail}}},"entity":{_quote(self.entity)}'
                f'{_KIND_JSON[self.kind]}{_quote(str(self.label))},"t":{self.t}}}')

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        """Inverse of ``to_json``; ValueError, quoting ``line``, if it is not a record."""
        try:
            text = line.strip(" \t\n\r")
            obj, end = _scan(text)
            t, kind, entity, label, detail = (obj["t"], _KINDS[obj["kind"]], obj["entity"],
                                              obj["label"], obj["detail"])
            if (end == len(text) and len(obj) == 5 and type(t) is int and t >= 0
                    and type(entity) is str and type(label) is str and type(detail) is dict
                    and all(type(v) is str for v in detail.values())):
                return cls(t, kind, entity, Label.parse(label), detail)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"not a trace record: {line!r}") from exc
        raise ValueError(f"not a trace record: {line!r}")


class Entity:
    """Base for simulated nodes: state machines whose methods are events."""

    phase: Phase

    def __init__(self, entity_id: str):
        self.id = entity_id


class Engine:
    """Single-threaded event loop; ``trace`` keeps every emitted record in order."""

    def __init__(self):
        # Heap of (time, phase, seq, handler, args); seq is unique, so the
        # order never reaches the last two fields.
        self._queue: List[tuple] = []
        self._seq = count()
        self._now = 0
        self._entities: Dict[str, Entity] = {}
        self.trace: List[TraceRecord] = []

    @property
    def now(self) -> int:
        return self._now

    def add(self, entity: Entity) -> Entity:
        if entity.id in self._entities:
            raise SchedulingError(f"duplicate entity id {entity.id!r}")
        self._entities[entity.id] = entity
        return entity

    def entity(self, entity_id: str) -> Entity:
        return self._entities[entity_id]

    def schedule(self, time: int, handler: Callable[..., object], *args: object) -> None:
        """Call ``handler(engine, *args)`` at ``time``, in its entity's
        phase. ``handler`` is a bound method of an added entity."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time} before current t={self._now}"
            )
        try:
            target = handler.__self__
            added = self._entities.get(target.id) is target
        except AttributeError:  # a plain function, or a method of a non-entity
            added = False
        if not added:
            raise SchedulingError(f"{handler!r} is not a method of an added entity")
        heapq.heappush(self._queue, (time, target.phase, next(self._seq), handler, args))

    def emit(self, kind: TraceKind, entity: str, label: Label, **detail: str) -> TraceRecord:
        """Append and return a record at now; ``detail`` is this call's own dict."""
        record = TraceRecord(self._now, kind, entity, label, detail)
        self.trace.append(record)
        return record

    def run_until(self, t_end: int) -> List[TraceRecord]:
        """Execute every event with time <= t_end; clock ends at t_end.
        Returns ``trace`` itself, not a copy."""
        while self._queue and self._queue[0][0] <= t_end:
            self._now, _, _, handler, args = heapq.heappop(self._queue)
            handler(self, *args)
        self._now = max(self._now, t_end)
        return self.trace


def trace_to_jsonl(records) -> str:
    """The canonical lines of ``records``, each ending in a newline."""
    return "".join(record.to_json() + "\n" for record in records)


def trace_from_jsonl(text: str) -> List[TraceRecord]:
    """Records of the lines of ``text`` that are not JSON whitespace alone;
    ValueError on any other. Lines end at ``\\n`` only: JSON strings may hold
    U+2028, U+2029 and U+0085 raw, which ``str.splitlines`` would split on."""
    return [TraceRecord.from_json(line) for line in text.split("\n") if line.strip(" \t\r")]
