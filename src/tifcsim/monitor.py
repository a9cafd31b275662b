"""Reference monitor: flow checks, receive-side tainting, decision records.

A send is allowed iff the destination label covers every tag of the source
label that the held capabilities leave (``Label.uncovered``); what is still
uncovered is the residual a denial records. The one receive rule is
timing-only: scheduler control joins into a job's label only in its lifted
(pure-timing) form, so control can taint when a job runs but never what it
computes.

``Monitor.send`` is the one checked send between entities; only the
customer-facing gateway egress decides with capabilities of its own.

``check_send`` is pure over immutable, hashable values and a run asks it
the same few questions every tick, so it is memoized in a bounded cache of
``CHECK_CACHE_SIZE`` entries: each distinct flow is decided once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Tuple

from .kernel import Engine, Entity, MonitorFault, TraceKind
from .labels import EMPTY_CAPS, CapabilitySet, Label


# Entries in the ``check_send`` memo; a constant, so memory stays bounded.
CHECK_CACHE_SIZE = 1024


class MonitorMode(Enum):
    RECORD_AND_DROP = "record"
    FATAL = "fatal"


@dataclass(frozen=True)
class FlowDecision:
    effective: Label
    residual: Tuple[str, ...]

    @property
    def allowed(self) -> bool:
        return not self.residual


@functools.lru_cache(maxsize=CHECK_CACHE_SIZE)
def check_send(src_label: Label, caps: CapabilitySet, dst_label: Label) -> FlowDecision:
    """Decide one flow; total function, never raises. The residual names
    the uncovered tags, sorted: ``U`` for content, ``U:f`` for timing."""
    effective = src_label.declassify(caps)
    content, timing = effective.uncovered(dst_label)
    if not content and not timing:
        return FlowDecision(effective, ())
    blocked = [*content, *(f"{u}:{f}" for u, f in timing.items())]
    return FlowDecision(effective, tuple(sorted(blocked)))


def apply_receive(receiver: Label, msg_label: Label) -> Label:
    """Receiver's label after accepting a timing-only message."""
    return receiver.join(msg_label.lift_to_timing())


class Monitor:
    """Records every decision into the trace, which is the audit log."""

    def __init__(self, mode: MonitorMode = MonitorMode.RECORD_AND_DROP):
        self.mode = mode

    def decide(
        self,
        sim: Engine,
        at: str,
        src: str,
        dst: str,
        src_label: Label,
        caps: CapabilitySet,
        dst_label: Label,
        **detail: str,
    ) -> FlowDecision:
        """Check src->dst and emit a MonitorAllow/MonitorDeny record at
        ``at`` (the enforcing entity). Fatal mode raises on deny."""
        decision = check_send(src_label, caps, dst_label)
        kind = TraceKind.MONITOR_ALLOW if decision.allowed else TraceKind.MONITOR_DENY
        record = sim.emit(
            kind,
            at,
            label=src_label,
            src=src,
            dst=dst,
            dst_label=str(dst_label),
            effective=str(decision.effective),
            residual=",".join(decision.residual),
            **detail,
        )
        if not decision.allowed and self.mode is MonitorMode.FATAL:
            raise MonitorFault(f"flow denied at {at}: {record.detail['residual']}", record)
        return decision

    def send(self, sim: Engine, src: Entity, dst: Entity, label: Label, msg: str,
             sent: Optional[Mapping[str, object]] = None,
             received: Optional[Mapping[str, object]] = None) -> FlowDecision:
        """Mediate one message: MsgSend at ``src``, the decision at ``dst``
        against ``dst.clearance`` with no capabilities, and MsgRecv at
        ``dst`` when allowed. ``sent`` and ``received`` add detail to the
        two records; the caller delivers the message on allow."""
        sim.emit(TraceKind.MSG_SEND, src.id, label=label, msg=msg, to=dst.id,
                 **(sent or {}))
        decision = self.decide(sim, at=dst.id, src=src.id, dst=dst.id, src_label=label,
                               caps=EMPTY_CAPS, dst_label=dst.clearance, msg=msg)
        if decision.allowed:
            sim.emit(TraceKind.MSG_RECV, dst.id, label=label, msg=msg,
                     **(received or {}))
        return decision
