"""Deterministic virtual-time discrete-event engine.

Time is a non-negative integer tick count. Events execute in total order
``(time, phase, seq)`` where ``seq`` is assigned at scheduling time, so a
run is a pure function of its initial schedule: identical configuration
gives byte-identical traces on every platform.

At equal time, phases fix the tie order: arrivals land first, then pacers
fire, then schedulers decide, then cores run, then gateways deliver.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import count
from typing import Dict, List, Mapping, Optional

from .labels import Label

# The canonical JSONL form of a record, built once: sorted keys, no spaces.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class SimError(Exception):
    """Base for simulation failures."""


class SchedulingError(SimError):
    """Scheduling into the past or onto an unknown entity."""


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
    SCHEDULER = 2
    CORE = 3
    GATEWAY = 4


class TraceKind(str, Enum):
    JOB_ARRIVE = "JobArrive"
    SLICE_START = "SliceStart"
    SLICE_END = "SliceEnd"
    JOB_COMPLETE = "JobComplete"
    MSG_SEND = "MsgSend"
    MSG_RECV = "MsgRecv"
    PACER_RELEASE = "PacerRelease"
    MONITOR_ALLOW = "MonitorAllow"
    MONITOR_DENY = "MonitorDeny"
    LABEL_CHANGE = "LabelChange"


@dataclass(frozen=True)
class TraceRecord:
    """One observable event; the unit of every assertion and diff."""

    t: int
    kind: TraceKind
    entity: str
    label: Optional[Label] = None
    detail: Mapping[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "t": self.t,
            "kind": self.kind.value,
            "entity": self.entity,
            "label": str(self.label) if self.label is not None else None,
            "detail": dict(self.detail),
        }
        return _ENCODER.encode(obj)

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        obj = json.loads(line)
        label = Label.parse(obj["label"]) if obj.get("label") else None
        return cls(
            t=obj["t"],
            kind=TraceKind(obj["kind"]),
            entity=obj["entity"],
            label=label,
            detail=obj.get("detail", {}),
        )


class Entity:
    """Base for simulated nodes; state machines driven by kernel events."""

    phase: Phase = Phase.GATEWAY

    def __init__(self, entity_id: str):
        self.id = entity_id

    def handle(self, sim: "Engine", payload: tuple) -> None:
        raise NotImplementedError


class Engine:
    """Single-threaded event loop; ``trace`` keeps every emitted record in order."""

    def __init__(self):
        # Heap of (time, phase, seq, target id, payload); seq is unique, so
        # the order never reaches the last two fields.
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

    def schedule(
        self,
        time: int,
        target: Entity,
        payload: tuple,
        phase: Optional[Phase] = None,
    ) -> None:
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time} before current t={self._now}"
            )
        if target.id not in self._entities:
            raise SchedulingError(f"unknown entity {target.id!r}")
        heapq.heappush(self._queue, (time, phase if phase is not None else target.phase,
                                     next(self._seq), target.id, payload))

    def emit(
        self,
        kind: TraceKind,
        entity: str,
        label: Optional[Label] = None,
        **detail: str,
    ) -> TraceRecord:
        record = TraceRecord(
            t=self._now,
            kind=kind,
            entity=entity,
            label=label,
            detail={k: str(v) for k, v in detail.items()},
        )
        self.trace.append(record)
        return record

    def run_until(self, t_end: int) -> List[TraceRecord]:
        """Execute every event with time <= t_end; clock ends at t_end.
        Returns ``trace`` itself, not a copy."""
        while self._queue and self._queue[0][0] <= t_end:
            self._now, _, _, target, payload = heapq.heappop(self._queue)
            self._entities[target].handle(self, payload)
        self._now = max(self._now, t_end)
        return self.trace


def trace_to_jsonl(records) -> str:
    return "".join(record.to_json() + "\n" for record in records)


def trace_from_jsonl(text: str) -> List[TraceRecord]:
    return [TraceRecord.from_json(line) for line in text.splitlines() if line.strip()]
