"""Independent reference implementations used as test oracles.

These re-code the flow rule and lattice structure directly from their
definitions, without calling the library's algebra operations, so that
agreement between the two is evidence rather than tautology.
"""

from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

from tifcsim.labels import Capability, Frequency, INFINITY, Label, ZERO


def oracle_leq(a: Label, b: Label) -> bool:
    """Direct re-statement of the flow order."""
    for tag in a.content:
        if tag not in b.content:
            return False
    for user, freq in a.timing.items():
        if user not in b.timing:
            return False
        if b.timing[user] < freq:
            return False
    return True


def _cap_strength(caps: Iterable[Capability], user: str) -> Optional[Frequency]:
    best: Optional[Frequency] = None
    for cap in caps:
        if cap.user != user:
            continue
        if best is None or cap.limit > best:
            best = cap.limit
    return best


def _cap_removes_content(caps: Iterable[Capability], user: str) -> bool:
    for cap in caps:
        if cap.user != user:
            continue
        if cap.limit.is_infinite:
            return True
    return False


def oracle_flow_allowed(src: Label, caps: Sequence[Capability], dst: Label) -> bool:
    """Tag-by-tag evaluation of the send rule: every source tag must either
    be dominated by the destination or be declassifiable by a held
    capability (a full-strength timing declassifier counts as content)."""
    for tag in src.content:
        if tag in dst.content:
            continue
        if not _cap_removes_content(caps, tag):
            return False
    for user, freq in src.timing.items():
        bound = dst.timing.get(user)
        if bound is not None and bound >= freq:
            continue
        strength = _cap_strength(caps, user)
        if strength is None or strength < freq:
            return False
    return True


def oracle_residual(src: Label, caps: Sequence[Capability],
                    dst: Label) -> Tuple[Label, Tuple[str, ...]]:
    """Tag-by-tag evaluation of a decision's leftovers: the effective label
    (the source tags no held capability strips) and the sorted names of its
    tags the destination does not dominate, ``U`` for content and ``U:f``
    for timing."""
    content = [tag for tag in src.content if not _cap_removes_content(caps, tag)]
    timing = {}
    for user, freq in src.timing.items():
        strength = _cap_strength(caps, user)
        if strength is None or strength < freq:
            timing[user] = freq
    residual = [tag for tag in content if tag not in dst.content]
    for user, freq in timing.items():
        bound = dst.timing.get(user)
        if bound is None or bound < freq:
            residual.append(f"{user}:{freq}")
    return Label(content, timing), tuple(sorted(residual))


def all_labels(users: Sequence[str], freqs: Sequence[Frequency]) -> List[Label]:
    """Every label over ``users`` whose timing entries come from ``freqs``
    (each user may also be absent from either component)."""
    labels = []
    for mask in range(1 << len(users)):
        content = [u for i, u in enumerate(users) if mask >> i & 1]
        for combo in product([None, *freqs], repeat=len(users)):
            timing = {u: f for u, f in zip(users, combo) if f is not None}
            labels.append(Label(content, timing))
    return labels


def lub_by_enumeration(a: Label, b: Label, universe: Sequence[Label]) -> Optional[Label]:
    """Unique minimal upper bound of ``a`` and ``b`` within ``universe``."""
    ubs = [c for c in universe if oracle_leq(a, c) and oracle_leq(b, c)]
    minimal = [
        c for c in ubs
        if not any(d != c and oracle_leq(d, c) for d in ubs)
    ]
    if len(minimal) != 1:
        return None
    return minimal[0]


FREQ_POOL = (
    ZERO,
    Frequency(1, 5),
    Frequency(1, 2),
    Frequency(1),
    Frequency(2),
    Frequency(7, 3),
    INFINITY,
)


def random_label(rng, users: Sequence[str], freq_pool=FREQ_POOL) -> Label:
    content = [u for u in users if rng.random() < 0.5]
    timing = {}
    for u in users:
        if rng.random() < 0.6:
            timing[u] = freq_pool[rng.randrange(len(freq_pool))]
    return Label(content, timing)


def random_caps(rng, users: Sequence[str], freq_pool=FREQ_POOL) -> List[Capability]:
    caps = []
    for u in users:
        roll = rng.random()
        if roll < 0.25:
            caps.append(Capability(u))
        elif roll < 0.6:
            caps.append(Capability(u, freq_pool[rng.randrange(len(freq_pool))]))
    return caps
