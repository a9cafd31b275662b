"""Reference model that pins the verdicts the benchmark checks.

It re-derives, from the generated JSON configs alone and without importing
``tifcsim``, what every customer sees at their gateway: one slice per core
per tick, demand order or fixed rotation on a shared core, FIFO pacers that
release one result per period, results labelled with the owner's content
and either the owner's or (after demand-scheduler control) every user's
timing taint, capped at the pacer frequency. On top of the deliveries it
re-derives the paired-run diffs and ``passed``, and the covert-channel
harness's threshold decode and rate test.

A delivery is ``(t, msg, label, payload)``. The ``sent_at`` detail is left
out on purpose: it is the unpaced completion tick, a known leak that a
later fix removes, and removing it must not read as a benchmark failure.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Delivery = Tuple[int, str, str, str]


def result_digest(bits: str) -> str:
    return hashlib.sha256(b"result:" + bits.encode("ascii")).hexdigest()[:16]


def _period(freq: str) -> int:
    num, _, den = freq.partition("/")
    if num != "1" or not den.isdigit():
        raise ValueError(f"pacer frequency must be 1/k, got {freq!r}")
    return int(den)


def _pacer(cfg: Mapping) -> Tuple[Optional[int], Optional[int]]:
    """``(period, first tick)`` of the config's pacers, or ``(None, None)``."""
    if not cfg.get("pacer"):
        return None, None
    period = _period(cfg["pacer"]["f"])
    first = cfg["pacer"].get("first_tick")
    return period, period if first is None else first


def _label(owner: str, tainted_by: Sequence[str], period: Optional[int]) -> str:
    freq = "inf" if period is None else f"1/{period}"
    timing = ",".join(f"{u}:{freq}" for u in sorted(tainted_by))
    return "{" + owner + "/" + timing + "}"


def deliveries(cfg: Mapping) -> Dict[str, List[Delivery]]:
    """Gateway deliveries by user, for the users who get any, for one
    scenario config object."""
    users = list(cfg["users"])
    horizon = cfg["horizon"]
    private = cfg.get("cores", "shared") == "private"
    sched = cfg.get("scheduler")
    period, first = _pacer(cfg)
    # Demand-scheduler control carries every user's taint into each queued
    # job; reservation control carries none; private cores get no control.
    demand = sched is not None and sched["kind"] == "demand"

    arrivals: Dict[int, list] = {}
    counters = {u: 0 for u in users}
    for spec in cfg["jobs"]:
        owner = spec["owner"]
        msg = f"res_{owner}{counters[owner]}"
        counters[owner] += 1
        job = [spec["work"], msg, result_digest(spec.get("payload", ""))]
        arrivals.setdefault(spec.get("arrival", 0), []).append((owner, job))

    slots = {u: deque() for u in users}
    paced = {u: deque() for u in users}
    out: Dict[str, List[Delivery]] = {u: [] for u in users}
    for t in range(horizon + 1):
        for owner, job in arrivals.get(t, ()):
            slots[owner].append(job)
        if period is not None and t >= first and (t - first) % period == 0:
            for u in users:
                if paced[u]:
                    out[u].append((t,) + paced[u].popleft())
        if private:
            runners = users
        elif sched["kind"] == "reservation":
            rotation = sched["users"]
            runners = [rotation[t % len(rotation)]]
        else:
            runners = [next((u for u in sched["users"] if slots[u]), None)]
        for u in runners:
            if u is None or not slots[u]:
                continue
            job = slots[u][0]
            job[0] -= 1
            if job[0]:
                continue
            slots[u].popleft()
            label = _label(u, users if demand else (u,), period)
            result = (job[1], label, job[2])
            if period is None:
                out[u].append((t,) + result)
            else:
                paced[u].append(result)
    return {u: d for u, d in out.items() if d}


def paired(cfg: Mapping, short_work: int, long_work: int) -> dict:
    """Pinned verdict of ``run_paired(cfg, short_work, long_work)``."""
    observer, vary = cfg["users"][0], cfg["users"][1]

    def with_work(work: int) -> dict:
        jobs = [dict(j, work=work) if j["owner"] == vary else j for j in cfg["jobs"]]
        return deliveries(dict(cfg, jobs=jobs))

    short, long_ = with_work(short_work), with_work(long_work)
    a, b = short.get(observer, []), long_.get(observer, [])
    pairs = ((i, a[i] if i < len(a) else None, b[i] if i < len(b) else None)
             for i in range(max(len(a), len(b))))
    diff = [d for d in pairs if d[1] != d[2]]
    first_job = f"res_{observer}0"
    passed = all(any(d[1] == first_job for d in view) for view in (a, b))
    if cfg.get("cores") == "private" or cfg["scheduler"]["kind"] == "reservation":
        passed = passed and not diff
    period, first = _pacer(cfg)
    if period is not None:
        passed = passed and all((d[0] - first) % period == 0 for d in a + b)
    return {"short": short, "long": long_, "diff": diff, "passed": passed}


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def leakage(exp: Mapping) -> dict:
    """Pinned verdict of ``measure()`` on one experiment config object:
    per trial ``(decoded, elapsed, valid)``, plus ``all_pass``."""
    period = _period(exp.get("f", "1/5"))
    short, long_ = exp.get("short", 1), exp.get("long", 3)
    probe = exp.get("probe", 1)
    frame = exp.get("frame") or period
    is_paced = exp.get("paced", True)
    horizon = exp.get("horizon", 2048)
    bound = Fraction(1, period)

    def latency(sender_work: int) -> int:
        completion = sender_work + probe - 1
        return period * (completion // period + 1) if is_paced else completion

    threshold = (latency(short) + latency(long_)) / 2
    max_latency = frame + 2 * period
    trials, all_pass = [], True
    for k in range(exp.get("trials", 10)):
        rng = random.Random(exp.get("seed", 1) + k)
        bits = "".join("1" if rng.random() < 0.5 else "0"
                       for _ in range(exp.get("message_len", 64)))
        jobs = []
        for i, bit in enumerate(bits):
            jobs.append({"owner": "A", "work": probe, "payload": format(i % 256, "08b"),
                         "arrival": i * frame})
            jobs.append({"owner": "B", "work": long_ if bit == "1" else short,
                         "payload": bit, "arrival": i * frame})
        cfg = {"users": ["A", "B"], "cores": "shared", "horizon": horizon, "jobs": jobs,
               "scheduler": {"kind": "demand", "users": ["B", "A"]},
               "pacer": {"f": f"1/{period}"} if is_paced else None}
        seen = {msg: t for t, msg, _, _ in deliveries(cfg).get("A", ())}
        ticks = [seen.get(f"res_A{i}") for i in range(len(bits))]
        decoded = []
        for i, tick in enumerate(ticks):
            lat = None if tick is None else tick - i * frame
            if lat is None or lat < 0 or lat > max_latency:
                decoded = None
                break
            decoded.append("1" if lat >= threshold else "0")
        if decoded is None:
            trials.append(("", 0, False))
            continue
        decoded = "".join(decoded)
        errors = sum(x != y for x, y in zip(bits, decoded))
        elapsed = max(ticks)
        h2c = Fraction(1) if errors == 0 else Fraction(1.0 - _binary_entropy(errors / len(bits)))
        rate = Fraction(len(bits) - errors) * h2c / elapsed if elapsed > 0 else Fraction(0)
        all_pass = all_pass and max(rate, Fraction(0)) <= bound
        trials.append((decoded, elapsed, True))
    return {"trials": trials, "all_pass": all_pass}
