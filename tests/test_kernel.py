import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tifcsim.kernel import (
    Engine,
    Entity,
    Phase,
    SchedulingError,
    TraceKind,
    TraceRecord,
    trace_from_jsonl,
    trace_to_jsonl,
)
from tifcsim.labels import Label

LABEL = Label.parse("{A/A:inf}")

class Probe(Entity):
    """Records its activations and optionally re-schedules."""

    phase = Phase.CORE

    def __init__(self, entity_id, plan=None):
        super().__init__(entity_id)
        self.seen = []
        self.plan = plan or {}

    def handle(self, sim, *args):
        self.seen.append((sim.now, args))
        sim.emit(TraceKind.MSG_RECV, self.id, LABEL, msg=str(args[0]))
        for delay, next_args in self.plan.get(args[0], ()):
            sim.schedule(sim.now + delay, self.handle, *next_args)


def test_same_time_runs_in_seq_order():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(3, p.handle, "first")
    sim.schedule(3, p.handle, "second")
    sim.run_until(5)
    assert [x[1][0] for x in p.seen] == ["first", "second"]


def test_phases_break_ties_before_seq():
    # One probe class per phase, scheduled at one tick in reverse phase order.
    assert list(Phase) == [Phase.ARRIVAL, Phase.PACER, Phase.CORE]
    sim = Engine()
    probes = [sim.add(type(f"{phase.name}Probe", (Probe,), {"phase": phase})(phase.name))
              for phase in reversed(Phase)]
    for p in probes:
        sim.schedule(1, p.handle, p.id)
    assert [r.entity for r in sim.run_until(1)] == ["ARRIVAL", "PACER", "CORE"]


def test_schedule_into_past_is_fatal():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(2, p.handle, "x")
    sim.run_until(4)
    with pytest.raises(SchedulingError):
        sim.schedule(1, p.handle, "y")


def test_unknown_entity_rejected():
    sim = Engine()
    p = sim.add(Probe("p"))
    # never added; the second shares the id of an added entity
    for stranger in (Probe("ghost"), Probe("p")):
        with pytest.raises(SchedulingError):
            sim.schedule(0, stranger.handle, "x")
    assert sim.run_until(5) == [] and p.seen == []


def test_handler_arguments_arrive_as_scheduled():
    sim = Engine()
    p = sim.add(Probe("p"))
    spec = object()
    sim.schedule(0, p.handle, "a", spec, None)
    sim.schedule(1, p.handle, "b")
    sim.run_until(1)
    assert p.seen == [(0, ("a", spec, None)), (1, ("b",))]
    assert p.seen[0][1][1] is spec


@pytest.mark.parametrize("handler", [
    lambda sim: None,
    print,
    Probe.handle,  # unbound: no entity to run on
], ids=["lambda", "builtin", "unbound-method"])
def test_non_method_handler_rejected_at_schedule_time(handler):
    sim = Engine()
    sim.add(Probe("p"))
    with pytest.raises(SchedulingError):
        sim.schedule(0, handler, "x")
    assert sim.run_until(5) == []


def test_duplicate_entity_rejected():
    sim = Engine()
    sim.add(Probe("p"))
    with pytest.raises(SchedulingError):
        sim.add(Probe("p"))


def test_empty_queue_gives_empty_trace():
    sim = Engine()
    assert sim.run_until(100) == []
    assert sim.now == 100


def test_run_until_idempotent_at_same_horizon():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(1, p.handle, "x")
    first = sim.run_until(10)
    second = sim.run_until(10)
    assert first == second
    assert len(p.seen) == 1


def test_schedule_during_run_is_deterministic():
    def make():
        sim = Engine()
        p = sim.add(Probe("p", plan={
            "seed": ((0, ("child-a",)), (2, ("child-b",))),
            "child-a": ((1, ("grandchild",)),),
        }))
        sim.schedule(0, p.handle, "seed")
        return trace_to_jsonl(sim.run_until(10))

    assert make() == make()


def test_no_time_regression_during_run():
    sim = Engine()
    p = sim.add(Probe("p", plan={"seed": ((0, ("a",)), (3, ("b",)), (1, ("c",)))}))
    sim.schedule(0, p.handle, "seed")
    trace = sim.run_until(10)
    times = [r.t for r in trace]
    assert times == sorted(times)


def test_record_json_roundtrip():
    rec = TraceRecord(5, TraceKind.PACER_RELEASE, "pacer_A",
                      label=Label.parse("{A/A:1/5}"), detail={"msg": "res_A0"})
    line = rec.to_json()
    assert TraceRecord.from_json(line) == rec
    obj = json.loads(line)
    assert obj["kind"] == "PacerRelease"
    assert obj["label"] == "{A/A:1/5}"


def test_records_are_immutable():
    rec = TraceRecord(0, TraceKind.MSG_SEND, "core", LABEL)
    with pytest.raises(AttributeError):
        rec.t = 1
    assert rec.detail == {}
    with pytest.raises(TypeError):
        rec.detail["msg"] = "x"  # the default detail is shared, so read-only
    assert TraceRecord.from_json(rec.to_json()).detail == {}


# Any text, with lone surrogates, control characters, quotes and backslashes.
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
LABELS = st.sampled_from([*map(Label.parse, ("{-/-}", "{A/A:inf}", "{A,B/A:1/5,B:inf}"))])


@given(t=st.integers(min_value=0), kind=st.sampled_from(TraceKind), entity=TEXT, label=LABELS,
       detail=st.dictionaries(TEXT, TEXT, max_size=4))
@example(t=0, kind=TraceKind.MSG_SEND, entity='"\\', label=Label.parse("{-/-}"),
         detail={"\ud800": "\x00\x1f\u00e9\U0001f600", '"': "\\"})
def test_to_json_is_sorted_compact_json_dumps(t, kind, entity, label, detail):
    rec = TraceRecord(t, kind, entity, label, detail)
    obj = {"t": t, "kind": kind.value, "entity": entity,
           "label": str(label), "detail": detail}
    assert rec.to_json() == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert TraceRecord.from_json(rec.to_json()) == rec


VALID = {"detail": {"msg": "m"}, "entity": "core", "kind": "MsgSend", "label": "{A/A:inf}", "t": 3}


def planted(**changes):
    """``VALID`` with ``changes`` applied; a key set to ``...`` is dropped."""
    obj = {k: v for k, v in {**VALID, **changes}.items() if v is not ...}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("line", [
    planted(t=1.5), planted(t="3"), planted(t=True), planted(t=-7),
    planted(kind="Nope"), planted(kind=4), planted(kind="SliceEnd"),
    planted(kind="MonitorAllow"),
    planted(entity=5), planted(entity=None),
    planted(label=None), planted(label=5), planted(label=["{A/A:inf}"]), planted(label="{A"),
    planted(label="{-/A:\u0661/\u0665}"), planted(label="{B,A/-}"),
    planted(detail={"work": 4}), planted(detail=["m"]), planted(detail=None),
    "[1, 2]", '"core"', "null", "{not json",
    planted(detail=...), planted(label=...), planted(t=...), planted(extra="x"),
    planted() + " x", planted() + planted(), "\ufeff" + planted(), "\x0b" + planted(),
], ids=["t-float", "t-str", "t-bool", "t-negative", "kind-unknown", "kind-int",
        "kind-slice-end", "kind-monitor-allow", "entity-int", "entity-null", "label-null", "label-int", "label-list", "label-unparsable", "label-non-ascii-digits",
        "label-not-canonical", "detail-int-value", "detail-list", "detail-null", "list",
        "string", "null", "not-json",
        "no-detail", "no-label", "no-t", "extra-key",
        "trailing-text", "two-records", "leading-bom", "leading-vertical-tab"])
def test_from_json_rejects_lines_outside_the_schema(line):
    assert TraceRecord.from_json(planted()).to_json() == planted()
    with pytest.raises(ValueError, match="not a trace record") as err:
        TraceRecord.from_json(line)
    assert repr(line) in str(err.value)
    with pytest.raises(ValueError):
        trace_from_jsonl(planted() + "\n" + line + "\n")


def test_json_whitespace_around_a_record_is_ignored():
    rec = TraceRecord.from_json(planted())
    assert TraceRecord.from_json(" " + planted() + "\t\r") == rec
    plain = planted() + "\n" + planted(t=4) + "\n"
    assert trace_from_jsonl(plain.replace("\n", "\r\n")) == trace_from_jsonl(plain)


def test_lines_of_json_whitespace_are_skipped():
    text = "\n \t\r\n" + planted() + "\n\r\n\t\n \n"
    assert trace_from_jsonl(text) == [TraceRecord.from_json(planted())]


# Whitespace to ``str.strip`` but not to JSON.
@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"],
                         ids=lambda c: f"U+{ord(c):04X}")
def test_a_line_of_other_whitespace_is_not_blank(blank):
    for line in (blank, " " + blank + "\r"):
        with pytest.raises(ValueError, match="not a trace record"):
            trace_from_jsonl(planted() + "\n" + line + "\n")


def loads_reference(line, rec):
    """What ``from_json(line)`` should give, by ``json.loads``: ``rec`` if
    the line decodes to ``rec``'s object, else None (rejected)."""
    try:
        return rec if json.loads(line) == json.loads(rec.to_json()) else None
    except ValueError:
        return None


# Whitespace JSON skips, whitespace it does not, and text that is not JSON.
AFFIX = st.text(st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\ufeff",
                                 "\u2028", "x", "}", "{", ",", "0", '"']), max_size=4)


@given(t=st.integers(min_value=0), kind=st.sampled_from(TraceKind), entity=TEXT, label=LABELS,
       detail=st.dictionaries(TEXT, TEXT, max_size=2), prefix=AFFIX, suffix=AFFIX)
@example(t=3, kind=TraceKind.MSG_SEND, entity="core", label=LABEL, detail={},
         prefix=" \t", suffix="\r\n")
@example(t=3, kind=TraceKind.MSG_SEND, entity="core", label=LABEL, detail={},
         prefix="", suffix=" x")
def test_from_json_accepts_exactly_what_json_loads_accepts(t, kind, entity, label, detail,
                                                          prefix, suffix):
    rec = TraceRecord(t, kind, entity, label, detail)
    line = prefix + rec.to_json() + suffix
    expected = loads_reference(line, rec)
    if expected is None:
        with pytest.raises(ValueError, match="not a trace record"):
            TraceRecord.from_json(line)
    else:
        assert TraceRecord.from_json(line) == expected


def test_emit_keeps_its_detail_in_a_dict_of_its_own():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(0, p.handle, "x")
    sim.run_until(0)
    d = {"job": "A0", "remaining": "3", "owner": "A"}
    rec = sim.emit(TraceKind.SLICE_START, "core", LABEL, **d)
    assert rec == TraceRecord(0, TraceKind.SLICE_START, "core", LABEL, d)
    assert sim.trace[-1] is rec
    d["job"] = "B1"
    assert rec.detail["job"] == "A0" and rec.detail is not d


def test_jsonl_helpers_roundtrip():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(0, p.handle, "x")
    trace = sim.run_until(1)
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_jsonl_lines_end_at_newline_only(sep):
    # JSON allows these raw inside a string; str.splitlines would split there.
    rec = TraceRecord(0, TraceKind.MSG_RECV, "gw_A", LABEL, {"payload": f"a{sep}b"})
    raw = json.dumps({"detail": dict(rec.detail), "entity": rec.entity, "kind": rec.kind.value,
                      "label": str(LABEL), "t": 0}, ensure_ascii=False)
    assert sep in raw
    assert trace_from_jsonl(raw + "\n" + raw) == [rec, rec]
    assert trace_from_jsonl(trace_to_jsonl([rec])) == [rec]


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*.jsonl")),
                         ids=lambda path: path.stem)
def test_goldens_roundtrip_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert trace_to_jsonl(trace_from_jsonl(text)) == text
