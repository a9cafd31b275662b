"""The simulated cloud: jobs, gateways, compute cores, schedulers, pacers.

Each entity is a state machine whose methods run as kernel events or are
called from one. Per tick, the event phases give a fixed interaction order:
job arrivals land at gateways (``Gateway.ingress``), pacers fire, then the
scheduler or the private cores run slices. The tick that releases a result,
a pacer's or an unpaced core's, delivers it (``Gateway.handle``).

Each group that ticks has one ``Clock``: the private cores, the pacers, and
the scheduler as a group of one. A tick is one event that calls every
member in wiring order. Clocks advance to the next event, not tick by tick:
a clock ticks at t if and only if its group holds work at t. Every clock
starts asleep; an arriving job or a queued result wakes it, and a tick
re-arms it only while a member still holds work after that tick.

Config input is validated once, by ``scenarios.ScenarioConfig.validate``;
the entities trust what ``scenarios.wire`` builds from it.

Cores execute jobs deterministically: a job's result payload is a pure
function of its input bits, independent of when and how its slices were
interleaved. Only completion *timing* can carry other users' information,
which is what the labels track.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Sequence, Tuple, Union

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
        check_process_label(self.label)
        self.remaining = self.work


@dataclass(frozen=True)
class Message:
    payload: str
    label: Label
    msg_id: str


class Clock(Entity):
    """One clock for a group of entities in one phase.

    It ticks on the multiples of ``period``, and each tick is one event
    that calls every member's ``handle`` with that member's arguments, in
    wiring order. ``members`` pairs each member with those arguments, and
    the clock links each member back as its ``clock``. A ``handle``
    returns whether its member still holds work after its tick. The clock
    starts asleep, re-arms for its next tick while any member holds work,
    and otherwise sleeps until ``wake``. So it ticks exactly while its
    group holds work; an idle tick would write no record but a demand
    offer or a reservation control message.
    """

    def __init__(self, entity_id: str, members: Sequence[Tuple[Entity, tuple]],
                 period: int = 1):
        super().__init__(entity_id)
        self.members = tuple(members)
        self.phase = self.members[0][0].phase
        self.period = period
        self.asleep = True
        for member, _ in self.members:
            member.clock = self

    def next_tick(self, now: int) -> int:
        """The first tick of this clock after ``now``."""
        return now - now % self.period + self.period

    def handle(self, sim: Engine) -> None:
        busy = False
        for member, args in self.members:
            if member.handle(sim, *args):
                busy = True
        if busy:
            sim.schedule(self.next_tick(sim.now), self.handle)
        else:
            self.asleep = True

    def wake(self, sim: Engine, time: int) -> None:
        """Re-arm this clock at ``time`` if it sleeps."""
        if self.asleep:
            self.asleep = False
            sim.schedule(time, self.handle)


class Gateway(Entity):
    """Per-customer boundary node.

    Stamps incoming requests with the owner's full taint and decides, with
    its declassification capabilities, whether results may leave toward the
    customer (who accepts only their own taint).
    """

    phase = Phase.ARRIVAL
    core: "ComputeCore"

    def __init__(self, owner: str, monitor: Monitor, caps: CapabilitySet = EMPTY_CAPS):
        super().__init__(f"gw_{owner}")
        self.owner = owner
        self.monitor = monitor
        self.caps = caps
        self.stamp = Label((owner,), {owner: INFINITY})

    def ingress(self, sim: Engine, spec: JobSpec, job_id: str) -> Job:
        """Stamp the owner's job, send it to the core's slot and wake the
        core's clock, whose tick at this time runs after every arrival."""
        job = Job(job_id, spec.owner, spec.work, spec.payload, self.stamp)
        sim.emit(TraceKind.JOB_ARRIVE, self.id, label=job.label,
                 job=job.job_id, owner=job.owner, work=str(job.work))
        if self.monitor.send(sim, self, self.core, job.label, f"job_{job_id}",
                             received={"owner": job.owner}).allowed:
            self.core.slots[job.owner].append(job)
            self.core.clock.wake(sim, sim.now)
        return job

    def handle(self, sim: Engine, msg: Message) -> FlowDecision:
        return self.monitor.decide(
            sim, at=self.id, src=self.id, dst=f"user_{self.owner}",
            src_label=msg.label, caps=self.caps, dst_label=self.stamp,
            msg=msg.msg_id, to=self.owner, payload=msg.payload,
        )


class ComputeCore(Entity):
    """A core with isolated per-customer job queues ("slots").

    Runs at most one job slice per tick, the one its clock or scheduler
    names: the private cores' clock calls ``handle`` with the core's own
    user, a shared core's scheduler with the user its control message
    named. Control messages are timing-only: they taint every live job's
    timing, never its content. ``clock`` is the clock whose ticks run its
    slices, which an arriving job wakes: the private cores' clock, or the
    scheduler's when shared.

    Each job is tainted once. A slot changes only by ``append`` (a job
    arrives) and ``popleft`` (a job completes), so the jobs already joined
    with the current control label form a prefix of the slot, whose length
    ``_tainted`` keeps; joining the same label again would change nothing.
    A control label other than the last one resets every prefix to empty,
    so all queued jobs are re-tainted with it.
    """

    phase = Phase.CORE
    clock: Clock

    def __init__(self, entity_id: str, users: Sequence[str], monitor: Monitor):
        super().__init__(entity_id)
        self.users = tuple(users)
        self.monitor = monitor
        self.slots: Dict[str, Deque[Job]] = {u: deque() for u in self.users}
        # Demand derives from every user's jobs: the core's full label.
        self.clearance = Label(self.users, {u: INFINITY for u in self.users})
        self.routes: Dict[str, Union["Pacer", Gateway]] = {}
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

    def handle(self, sim: Engine, user: str) -> bool:
        """Run one slice of ``user``'s work, if ``user`` has a job, and write
        its one ``SliceStart``, whose ``remaining`` is the work left before
        it; whether ``user`` still has one queued, which keeps the private
        cores' clock ticking."""
        queue = self.slots[user]
        if not queue:
            return False
        job = queue[0]
        sim.emit(TraceKind.SLICE_START, self.id, label=job.label,
                 job=job.job_id, owner=user, remaining=str(job.remaining))
        job.remaining -= 1
        if job.remaining == 0:
            queue.popleft()
            self._tainted[user] = max(self._tainted[user] - 1, 0)
            digest = result_payload(job.payload_bits)
            sim.emit(TraceKind.JOB_COMPLETE, self.id, label=job.label,
                     job=job.job_id, owner=user, result=digest)
            self._send_result(sim, user, Message(digest, job.label, f"res_{job.job_id}"))
        return bool(queue)

    def _send_result(self, sim: Engine, user: str, msg: Message) -> None:
        target = self.routes[user]
        if isinstance(target, Pacer):
            if self.monitor.send(sim, self, target, msg.label, msg.msg_id,
                                 received={"queued": str(len(target.queue) + 1)}).allowed:
                target.queue.append(msg)
                target.clock.wake(sim, target.clock.next_tick(sim.now))
        else:
            # Gateway route: the egress decision is the guard.
            sim.emit(TraceKind.MSG_SEND, self.id, label=msg.label,
                     msg=msg.msg_id, to=target.id)
            target.handle(sim, msg)


class Pacer(Entity):
    """FIFO queue whose output releases at most one message per clock tick.

    The pacers share one clock, which ticks on positive multiples of the
    period ``pacer_period(freq)``, and only while a pacer holds a message;
    a message queued while it sleeps wakes it for the next multiple. A
    release downgrades the message's timing tags to the pacer's frequency.
    Between ticks nothing leaves, so the queue's observable emptiness
    carries at most one bit per period.
    """

    phase = Phase.PACER
    clock: Clock

    def __init__(
        self,
        owner: str,
        freq: Frequency,
        users: Sequence[str],
        downstream: Gateway,
    ):
        super().__init__(f"pacer_{owner}")
        self.freq = freq
        self.downstream = downstream
        self.clearance = Label((owner,), {u: INFINITY for u in users})
        self.queue: Deque[Message] = deque()

    def handle(self, sim: Engine) -> bool:
        """On each clock tick, release the head message, if any, with
        downgraded timing tags; whether a message is still queued."""
        if self.queue:
            msg = self.queue.popleft()
            released = Message(msg.payload, msg.label.pace_down(self.freq), msg.msg_id)
            sim.emit(TraceKind.PACER_RELEASE, self.id, label=released.label,
                     msg=released.msg_id, queued=str(len(self.queue)))
            self.downstream.handle(sim, released)
        return bool(self.queue)


def offer_demand(sim: Engine, monitor: Monitor, core: ComputeCore,
                 scheduler: "Scheduler") -> FlowDecision:
    """Attempt the core -> scheduler demand flow through the monitor.

    Demand derives from every customer's job state, so the message carries
    all users' taint; an empty-labeled scheduler must be denied it.
    """
    return monitor.send(sim, core, scheduler, core.clearance, f"demand@{sim.now}")


class Scheduler(Entity):
    """Base: each tick names a user, or none, and commands the core.

    Its clock, a group of one, is also its core's clock, and ticks exactly
    while the core holds a job: ``Gateway.ingress`` wakes it, and it
    sleeps after the tick that runs the core's last slice.
    """

    phase = Phase.CORE

    def __init__(self, entity_id: str, core: ComputeCore, monitor: Monitor,
                 clearance: Label):
        super().__init__(entity_id)
        self.core = core
        self.monitor = monitor
        self.clearance = clearance

    def decide(self, sim: Engine) -> Optional[str]:
        raise NotImplementedError

    def handle(self, sim: Engine) -> bool:
        """Name this tick's user, if any, to the core, which runs that
        user's slice; whether the core still holds a job after that slice."""
        user = self.decide(sim)
        if user is not None:
            self.send_control(sim, user)
        return any(self.core.slots.values())

    def send_control(self, sim: Engine, user: str) -> None:
        """Tell the core whose slice this tick is and run it; the control
        message taints the core's jobs with this scheduler's timing."""
        named = {"user": user}
        if self.monitor.send(sim, self, self.core, self.clearance, f"ctl@{sim.now}",
                             sent=named, received=named).allowed:
            self.core.taint_jobs(sim, self.clearance)
            self.core.handle(sim, user)


class ReservationScheduler(Scheduler):
    """Fixed rotation, blind to demand; empty label by construction.

    The rotation grants slices whether or not the user has work:
    ``decide`` reads only the time, so the user named at any tick is
    ``rotation[t % n]``. Its clock sleeps while the core is idle, where a
    control message would carry the empty label to no job and run no
    slice, so sleeping drops only those idle ``ctl@t`` records.
    """

    def __init__(self, core: ComputeCore, monitor: Monitor,
                 rotation: Sequence[str]):
        super().__init__("sched", core, monitor, Label())
        self.rotation = tuple(rotation)

    def decide(self, sim: Engine) -> Optional[str]:
        return self.rotation[sim.now % len(self.rotation)]


class DemandScheduler(Scheduler):
    """Work-conserving: runs the first user in its fixed order with queued
    work, and sleeps once the core has none. Carries every user's content
    and timing taint, which is what permits it to see demand at all."""

    def __init__(self, core: ComputeCore, monitor: Monitor,
                 order: Sequence[str]):
        super().__init__("sched", core, monitor, core.clearance)
        self.order = tuple(order)

    def decide(self, sim: Engine) -> Optional[str]:
        if not offer_demand(sim, self.monitor, self.core, self).allowed:
            return None
        return next((u for u in self.order if self.core.slots[u]), None)
