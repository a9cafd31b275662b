"""Label algebra for rate-bounded timing information flow control.

A label pairs a set of *content tags* (which users' bits may be mixed into
an object's state) with a map of *timing tags* (which users' information may
leak through the timing of events on the object, and at what maximum rate).
Rates are exact rationals in bits per simulated tick, with a distinguished
infinity for "unbounded"; all comparisons are exact, never floating point.

A bound *covers* a tag when it holds the same content tag, or a timing
entry for the same user at an equal or higher frequency. ``Label.uncovered``
states this one rule; the flow order and declassification are read off it.
Every bound is a label: a ``CapabilitySet`` is the label of what its
capabilities may strip, each user's largest limit as timing and the users
whose limit is infinite as content.

The flow order, join, declassification and the pacing downgrade defined here
are pure functions over immutable values, safe to share freely. Because
they are pure, work on a label is done once per fact: a label computes its
``str`` once per instance, and ``Label.parse`` and ``Label.pace_down`` are
each memoized in a bounded cache of ``CACHE_SIZE`` entries, so repeated text
parses once and each label is paced down once per rate.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple, Union


class LabelParseError(ValueError):
    """Malformed label/frequency/capability text; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.total_ordering
@dataclass(frozen=True)
class Frequency:
    """Exact information rate in bits per simulated tick.

    Stored in lowest terms; ``denominator == 0`` encodes the single
    canonical infinity ``1/0`` (numerator forced to 1). The order is total
    with infinity greatest; cross-multiplication gives it, infinity included.
    """

    numerator: int
    denominator: int = 1

    def __post_init__(self) -> None:
        num, den = self.numerator, self.denominator
        if type(num) is not int or type(den) is not int:
            raise ValueError("frequency parts must be integers")
        if den == 0:
            object.__setattr__(self, "numerator", 1)
            return
        if den < 0 or num < 0:
            raise ValueError("frequency must be non-negative with positive denominator")
        g = math.gcd(num, den)
        if g > 1:
            object.__setattr__(self, "numerator", num // g)
            object.__setattr__(self, "denominator", den // g)

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def as_fraction(self):
        from fractions import Fraction

        if self.is_infinite:
            raise ValueError("infinite frequency has no finite value")
        return Fraction(self.numerator, self.denominator)

    def __lt__(self, other: "Frequency") -> bool:
        if not isinstance(other, Frequency):
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self) -> str:
        return f"Frequency({self})"

    @classmethod
    def parse(cls, text: str, offset: int = 0) -> "Frequency":
        """Parse ``inf``, a decimal integer, or ``NUM/DEN``; digits are ASCII."""
        if text == "inf":
            return INFINITY
        m = re.fullmatch(r"([0-9]+)(?:/([0-9]+))?", text)
        if not m:
            raise LabelParseError(f"bad frequency {text!r}", offset)
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise LabelParseError("zero denominator", offset)
        return cls(num, den)


INFINITY = Frequency(1, 0)
ZERO = Frequency(0)

# Entries in each of the ``Label.parse`` and ``Label.pace_down`` memos; a
# constant, so memory stays bounded.
CACHE_SIZE = 1024

# Tag ids must stay clear of the label grammar's punctuation.
TAG_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_tag(tag: str) -> str:
    if not isinstance(tag, str) or not TAG_RE.match(tag):
        raise ValueError(f"bad user tag {tag!r}: need [A-Za-z0-9_]+")
    return tag


class Label:
    """Immutable pair of content-tag set and per-user timing-tag map.

    At most one timing entry per user; constructing with duplicates keeps
    the maximum frequency, so taint never silently shrinks.
    """

    __slots__ = ("_content", "_timing", "_hash", "_str")

    def __init__(
        self,
        content: Iterable[str] = (),
        timing: Union[Mapping[str, Frequency], Iterable[Tuple[str, Frequency]]] = (),
    ):
        self._content = frozenset(_check_tag(t) for t in content)
        merged: dict = {}
        items = timing.items() if isinstance(timing, Mapping) else timing
        for user, freq in items:
            _check_tag(user)
            if not isinstance(freq, Frequency):
                raise ValueError(f"timing entry for {user!r} is not a Frequency")
            if user not in merged or merged[user] < freq:
                merged[user] = freq
        self._timing = dict(sorted(merged.items()))
        self._hash = hash((self._content, tuple(self._timing.items())))
        self._str = None

    @property
    def content(self) -> frozenset:
        return self._content

    @property
    def timing(self) -> Mapping[str, Frequency]:
        return MappingProxyType(self._timing)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Label):
            return NotImplemented
        return (self._hash == other._hash and self._content == other._content
                and self._timing == other._timing)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Label.parse({str(self)!r})"

    # -- the flow order and its join --------------------------------------

    def uncovered(self, bound: "Label") -> Tuple[frozenset, dict]:
        """Tags of ``self`` that ``bound`` does not cover, as ``(content,
        timing)``: content outside ``bound``'s content, timing entries above
        ``bound``'s frequency for the user. A destination's label and a
        ``CapabilitySet`` are both such a bound."""
        limits = bound._timing
        timing = {u: f for u, f in self._timing.items() if u not in limits or limits[u] < f}
        return self._content - bound._content, timing

    def flows_to(self, other: "Label") -> bool:
        """True iff ``self`` may move to ``other``: nothing is uncovered."""
        return not any(self.uncovered(other))

    def join(self, other: "Label") -> "Label":
        """Least upper bound: content union, pointwise max of timing."""
        timing = dict(self._timing)
        for user, freq in other._timing.items():
            if user not in timing or timing[user] < freq:
                timing[user] = freq
        return Label(self._content | other._content, timing)

    # -- transforms --------------------------------------------------------

    def lift_to_timing(self) -> "Label":
        """Convert to pure timing taint: content tags become unbounded
        timing tags, existing timing entries are kept (pointwise max)."""
        timing = dict(self._timing)
        for user in self._content:
            timing[user] = INFINITY
        return Label((), timing)

    @functools.lru_cache(maxsize=CACHE_SIZE)
    def pace_down(self, limit: Frequency) -> "Label":
        """Cap every timing entry at ``limit`` (the pacer downgrade).

        Content is unchanged. ``limit`` must be finite: a pacer has a real
        tick rate.
        """
        if limit.is_infinite:
            raise ValueError("pacer frequency must be finite")
        timing = {u: (limit if limit < f else f) for u, f in self._timing.items()}
        return Label(self._content, timing)

    def declassify(self, caps: "CapabilitySet") -> "Label":
        """Smallest label reachable with ``caps``: the tags they do not cover."""
        return Label(*self.uncovered(caps))

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if self._str is None:
            content = ",".join(sorted(self._content)) or "-"
            timing = ",".join(f"{u}:{f}" for u, f in self._timing.items()) or "-"
            self._str = "{" + content + "/" + timing + "}"
        return self._str

    @classmethod
    @functools.lru_cache(maxsize=CACHE_SIZE)
    def parse(cls, text: str) -> "Label":
        """Inverse of ``str``: only the canonical spelling parses (sorted
        tags, each once, frequencies in lowest terms). Raises
        LabelParseError with a position."""
        if not text or text[0] != "{":
            raise LabelParseError("expected '{'", 0)
        if text[-1] != "}":
            raise LabelParseError("expected '}'", max(len(text) - 1, 0))
        body = text[1:-1]
        content_part, sep, timing_part = body.partition("/")
        if not sep:
            raise LabelParseError("expected '/' separator", 1)
        content = []
        pos = 1
        if content_part != "-":
            for piece in content_part.split(","):
                if not TAG_RE.match(piece):
                    raise LabelParseError(f"bad content tag {piece!r}", pos)
                content.append(piece)
                pos += len(piece) + 1
        timing = []
        pos = 2 + len(content_part)
        if timing_part != "-":
            for piece in timing_part.split(","):
                user, sep, freq_text = piece.partition(":")
                if not sep or not TAG_RE.match(user):
                    raise LabelParseError(f"bad timing tag {piece!r}", pos)
                timing.append((user, Frequency.parse(freq_text, pos + len(user) + 1)))
                pos += len(piece) + 1
        label = cls(content, timing)
        canonical = str(label)
        if canonical != text:
            # Each ends at its only '}', so neither is a prefix of the other.
            pos = next(i for i, (a, b) in enumerate(zip(text, canonical)) if a != b)
            raise LabelParseError(f"not the canonical spelling {canonical!r}", pos)
        return label


EMPTY_LABEL = Label()


@dataclass(frozen=True)
class Capability:
    """Authority to strip one user's tags before a flow.

    It covers the user's timing tags with frequency at most ``limit``; at
    the default ``limit = inf``, written ``U-``, it covers the content tag
    too. ``U-:inf`` is the same value and prints as ``U-``.
    """

    user: str
    limit: Frequency = INFINITY

    def __post_init__(self) -> None:
        _check_tag(self.user)
        if not isinstance(self.limit, Frequency):
            raise ValueError(f"capability limit for {self.user!r} is not a Frequency")

    def __str__(self) -> str:
        if self.limit.is_infinite:
            return f"{self.user}-"
        return f"{self.user}-:{self.limit}"

    @classmethod
    def parse(cls, text: str) -> "Capability":
        m = re.fullmatch(r"([A-Za-z0-9_]+)-(?::(.+))?", text)
        if not m:
            raise LabelParseError(f"bad capability {text!r}", 0)
        limit = Frequency.parse(m.group(2), len(m.group(1)) + 2) if m.group(2) else INFINITY
        return cls(m.group(1), limit)


class CapabilitySet(Label):
    """A set of capabilities, stored as the label of what it may strip.

    Each user's largest limit is a timing entry, and each user whose limit
    is infinite is a content tag, so it covers tags the way a label does:
    ``CapabilitySet([Capability("A"), Capability("B", Frequency(1, 5))])``
    equals ``Label.parse("{A/A:inf,B:1/5}")``.
    """

    __slots__ = ()

    def __init__(self, caps: Iterable[Capability] = ()):
        limits = [(cap.user, cap.limit) for cap in caps]
        super().__init__((u for u, f in limits if f.is_infinite), limits)


EMPTY_CAPS = CapabilitySet()
