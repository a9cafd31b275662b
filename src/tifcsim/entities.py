"""The simulated cloud: jobs, gateways, compute cores, schedulers, pacers.

Each entity is a state machine driven by kernel events. Per tick, the event
phases give a fixed interaction order: job arrivals land at gateways, pacers
fire, the scheduler decides, the core runs one timeslice, gateways deliver.

Cores execute jobs deterministically: a job's result payload is a pure
function of its input bits, independent of when and how its slices were
interleaved. Only completion *timing* can carry other users' information,
which is what the labels track.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional, Sequence, Union

from .kernel import ConfigError, Engine, Entity, Phase, SimError, TraceKind
from .labels import EMPTY_CAPS, INFINITY, CapabilitySet, Frequency, Label
from .monitor import FlowDecision, Monitor, apply_receive


def result_payload(payload_bits: str) -> str:
    """Deterministic digest standing in for an arbitrary computation.

    Depends on the job's input bits only, never on execution timing.
    """
    return hashlib.sha256(b"result:" + payload_bits.encode("ascii")).hexdigest()[:16]


def check_process_label(label: Label) -> Label:
    """Runnable processes must carry unbounded timing taint for every
    content tag (control flow can encode any content bit into timing)."""
    for user in label.content:
        if label.timing.get(user) != INFINITY:
            raise SimError(
                f"process label {label} lacks unbounded timing tag for {user!r}"
            )
    return label


def pacer_period(freq: Frequency) -> int:
    """Ticks between a pacer's releases. A pacer fires on whole ticks, so
    its frequency must be 1/k."""
    if freq.is_infinite or freq.numerator != 1:
        raise ConfigError(
            f"pacer frequency must be 1/k for a whole number of ticks, got {freq}"
        )
    return freq.denominator


def check_bits(bits: str, name: str = "payload") -> str:
    if not isinstance(bits, str) or bits.strip("01"):
        raise ConfigError(f"{name} must be a bit string, got {bits!r}")
    return bits


@dataclass(frozen=True)
class JobSpec:
    """A customer's job request: what arrives at the owner's gateway."""

    owner: str
    work: int
    payload: str = ""
    arrival: int = 0


@dataclass
class Job:
    """One compute job: an owner, a slice budget, and secret payload bits."""

    job_id: str
    owner: str
    work: int
    payload_bits: str
    label: Label
    remaining: int = field(init=False)

    def __post_init__(self) -> None:
        if self.work < 1:
            raise ConfigError(f"job {self.job_id}: work must be >= 1")
        check_bits(self.payload_bits)
        check_process_label(self.label)
        self.remaining = self.work


@dataclass(frozen=True)
class Message:
    payload: str
    label: Label
    msg_id: str
    owner: str


def max_label(users: Iterable[str]) -> Label:
    """All users' content and unbounded timing taint."""
    users = list(users)
    return Label(users, {u: INFINITY for u in users})


class Gateway(Entity):
    """Per-customer boundary node.

    Stamps incoming requests with the owner's full taint and decides, with
    its declassification capabilities, whether results may leave toward the
    customer (who accepts only their own taint).
    """

    phase = Phase.GATEWAY

    def __init__(self, owner: str, monitor: Monitor, caps: CapabilitySet = EMPTY_CAPS):
        super().__init__(f"gw_{owner}")
        self.owner = owner
        self.monitor = monitor
        self.caps = caps
        self.stamp = Label((owner,), {owner: INFINITY})
        self.core: Optional["ComputeCore"] = None

    def handle(self, sim: Engine, payload: tuple) -> None:
        if payload[0] == "arrive":
            self.ingress(sim, payload[1], payload[2])
        elif payload[0] == "result":
            self.egress(sim, payload[1])

    def ingress(self, sim: Engine, spec: JobSpec, job_id: str) -> Job:
        """Stamp the owner's job and send it to the core's slot."""
        if spec.owner != self.owner:
            raise ConfigError(f"{self.id} cannot accept a request from {spec.owner!r}")
        assert self.core is not None, "gateway not wired to a core"
        if spec.owner not in self.core.slots:
            raise ConfigError(f"{self.core.id} has no slot for {spec.owner!r}")
        job = Job(job_id, spec.owner, spec.work, spec.payload, self.stamp)
        sim.emit(TraceKind.JOB_ARRIVE, self.id, label=job.label,
                 job=job.job_id, owner=job.owner, work=job.work)
        if self.monitor.send(sim, self, self.core, job.label, f"job_{job_id}",
                             received={"owner": job.owner}).allowed:
            self.core.slots[job.owner].append(job)
        return job

    def egress(self, sim: Engine, msg: Message) -> FlowDecision:
        decision = self.monitor.decide(
            sim, at=self.id, src=self.id, dst=f"user_{self.owner}",
            src_label=msg.label, caps=self.caps,
            dst_label=self.stamp, msg=msg.msg_id,
        )
        if decision.allowed:
            sim.emit(TraceKind.MSG_RECV, self.id, label=msg.label,
                     msg=msg.msg_id, to=self.owner, payload=msg.payload)
        return decision


class ComputeCore(Entity):
    """A core with isolated per-customer job queues ("slots").

    Runs at most one job slice per tick: its own fixed user when private,
    otherwise whichever user the scheduler's control message named for the
    current tick. Control messages are timing-only: they taint every live
    job's timing, never its content.

    Each job is tainted once. A slot changes only by ``append`` (a job
    arrives) and ``popleft`` (a job completes), so the jobs already joined
    with the current control label form a prefix of the slot, whose length
    ``_tainted`` keeps; joining the same label again would change nothing.
    A control label other than the last one resets every prefix to empty,
    so all queued jobs are re-tainted with it.
    """

    phase = Phase.CORE

    def __init__(
        self,
        entity_id: str,
        users: Sequence[str],
        monitor: Monitor,
        fixed_user: Optional[str] = None,
    ):
        super().__init__(entity_id)
        self.users = tuple(users)
        self.monitor = monitor
        self.fixed_user = fixed_user
        self.slots: Dict[str, Deque[Job]] = {u: deque() for u in self.users}
        # Demand derives from every user's jobs: the core's full label.
        self.clearance = self.demand_label = max_label(self.users)
        self.routes: Dict[str, Union["Pacer", Gateway]] = {}
        self._last_slice_tick = -1
        self._ctrl_label: Optional[Label] = None
        self._tainted: Dict[str, int] = dict.fromkeys(self.users, 0)

    def taint_jobs(self, sim: Engine, ctrl_label: Label) -> None:
        """Join a control message's label into every queued job's timing
        that has not been joined with it yet, in slot then queue order."""
        if ctrl_label != self._ctrl_label:
            self._ctrl_label = ctrl_label
            self._tainted = dict.fromkeys(self.users, 0)
        for user, queue in self.slots.items():
            for i in range(self._tainted[user], len(queue)):
                job = queue[i]
                tainted = apply_receive(job.label, ctrl_label)
                if tainted != job.label:
                    job.label = check_process_label(tainted)
                    sim.emit(TraceKind.LABEL_CHANGE, self.id, label=job.label,
                             job=job.job_id, owner=job.owner)
            self._tainted[user] = len(queue)

    def handle(self, sim: Engine, payload: tuple) -> None:
        """``("slice", user)``: run one slice of ``user``'s work. A private
        core re-arms its own slice for the next tick."""
        if payload[0] != "slice":
            return
        self.run_slice(sim, payload[1])
        if self.fixed_user is not None:
            sim.schedule(sim.now + 1, self, payload)

    def run_slice(self, sim: Engine, user: str) -> None:
        if user not in self.slots:
            raise ConfigError(f"{self.id} has no slot for {user!r}")
        if self._last_slice_tick == sim.now:
            return
        self._last_slice_tick = sim.now
        queue = self.slots[user]
        if not queue:
            return
        job = queue[0]
        sim.emit(TraceKind.SLICE_START, self.id, label=job.label,
                 job=job.job_id, owner=user, remaining=job.remaining)
        job.remaining -= 1
        sim.emit(TraceKind.SLICE_END, self.id, label=job.label,
                 job=job.job_id, owner=user, remaining=job.remaining)
        if job.remaining == 0:
            queue.popleft()
            self._tainted[user] = max(self._tainted[user] - 1, 0)
            digest = result_payload(job.payload_bits)
            sim.emit(TraceKind.JOB_COMPLETE, self.id, label=job.label,
                     job=job.job_id, owner=user, result=digest)
            self._send_result(sim, Message(digest, job.label, f"res_{job.job_id}", user))

    def _send_result(self, sim: Engine, msg: Message) -> None:
        target = self.routes[msg.owner]
        if isinstance(target, Pacer):
            if self.monitor.send(sim, self, target, msg.label, msg.msg_id,
                                 received={"queued": len(target.queue) + 1}).allowed:
                target.queue.append(msg)
        else:
            # Gateway route: the egress decision is the guard.
            sim.emit(TraceKind.MSG_SEND, self.id, label=msg.label,
                     msg=msg.msg_id, to=target.id)
            sim.schedule(sim.now, target, ("result", msg))


class Pacer(Entity):
    """FIFO queue whose output releases at most one message per clock tick.

    The clock fires at each positive multiple of the period; a release
    downgrades the message's timing tags to the pacer's frequency. Between
    ticks nothing leaves, so the queue's observable emptiness carries at
    most one bit per period.
    """

    phase = Phase.PACER

    def __init__(
        self,
        owner: str,
        freq: Frequency,
        users: Sequence[str],
        downstream: Gateway,
    ):
        super().__init__(f"pacer_{owner}")
        self.owner = owner
        self.freq = freq
        self.period = pacer_period(freq)
        self.downstream = downstream
        self.clearance = Label((owner,), {u: INFINITY for u in users})
        self.queue: Deque[Message] = deque()

    def handle(self, sim: Engine, payload: tuple) -> None:
        """On each clock tick, release the head message, if any, with
        downgraded timing tags."""
        if payload[0] != "tick":
            return
        if self.queue:
            msg = self.queue.popleft()
            released = dataclasses.replace(msg, label=msg.label.pace_down(self.freq))
            sim.emit(TraceKind.PACER_RELEASE, self.id, label=released.label,
                     msg=released.msg_id, queued=len(self.queue))
            sim.schedule(sim.now, self.downstream, ("result", released))
        sim.schedule(sim.now + self.period, self, ("tick",))


def offer_demand(sim: Engine, monitor: Monitor, core: ComputeCore,
                 scheduler: "Scheduler") -> FlowDecision:
    """Attempt the core -> scheduler demand flow through the monitor.

    Demand derives from every customer's job state, so the message carries
    all users' taint; an empty-labeled scheduler must be denied it.
    """
    return monitor.send(sim, core, scheduler, core.demand_label, f"demand@{sim.now}")


class Scheduler(Entity):
    """Base: ticks every tick, names a user, commands the core."""

    phase = Phase.SCHEDULER

    def __init__(self, entity_id: str, core: ComputeCore, monitor: Monitor,
                 label: Label):
        super().__init__(entity_id)
        self.core = core
        self.monitor = monitor
        self.label = label
        self.clearance = label

    def decide(self, sim: Engine) -> Optional[str]:
        raise NotImplementedError

    def handle(self, sim: Engine, payload: tuple) -> None:
        if payload[0] != "tick":
            return
        user = self.decide(sim)
        if user is not None:
            self.send_control(sim, user)
        sim.schedule(sim.now + 1, self, ("tick",))

    def send_control(self, sim: Engine, user: str) -> None:
        """Tell the core whose slice this tick is; the control message
        taints the core's jobs with this scheduler's timing."""
        named = {"user": user}
        if self.monitor.send(sim, self, self.core, self.label, f"ctl@{sim.now}",
                             sent=named, received=named).allowed:
            self.core.taint_jobs(sim, self.label)
            sim.schedule(sim.now, self.core, ("slice", user))


class ReservationScheduler(Scheduler):
    """Fixed rotation, blind to demand; empty label by construction.

    The rotation grants slices whether or not the user has work, so the
    slice-owner sequence is a pure function of time.
    """

    def __init__(self, core: ComputeCore, monitor: Monitor,
                 rotation: Sequence[str]):
        super().__init__("sched", core, monitor, Label())
        if not rotation:
            raise ConfigError("reservation rotation must be non-empty")
        self.rotation = tuple(rotation)

    def decide(self, sim: Engine) -> Optional[str]:
        return self.rotation[sim.now % len(self.rotation)]


class DemandScheduler(Scheduler):
    """Work-conserving: runs the first user in its fixed order with queued
    work. Carries every user's content and timing taint, which is what
    permits it to see demand at all."""

    def __init__(self, core: ComputeCore, monitor: Monitor,
                 order: Sequence[str]):
        super().__init__("sched", core, monitor, max_label(core.users))
        if not order:
            raise ConfigError("scheduler order must be non-empty")
        self.order = tuple(order)

    def decide(self, sim: Engine) -> Optional[str]:
        if not offer_demand(sim, self.monitor, self.core, self).allowed:
            return None
        return next((u for u in self.order if self.core.slots[u]), None)
