"""The memoized label work: ``check_send``, ``apply_receive``,
``Label.parse`` and ``Label.pace_down`` keep bounded caches, and a cache,
warm or cold, never changes a decision, a label or a trace."""

import random
from pathlib import Path
from unittest import mock

import pytest

from tifcsim.kernel import trace_to_jsonl
from tifcsim.labels import INFINITY, CapabilitySet, Frequency, Label
from tifcsim.leakage import CovertExperiment, build_config
from tifcsim.monitor import apply_receive, check_send
from tifcsim.scenarios import build_scenario, run_scenario, wire

from reference import random_caps, random_label

DATA = Path(__file__).parent / "data"
TRIPLES = 5_000
GOLDEN_KINDS = ("dedicated", "reservation", "statmux")


def distinct_triples(n, seed=12):
    rng = random.Random(seed)
    triples = set()
    while len(triples) < n:
        triples.add((random_label(rng, "ABCDE"),
                     CapabilitySet(random_caps(rng, "ABCDE")),
                     random_label(rng, "ABCDE")))
    return sorted(triples, key=lambda t: tuple(map(str, t)))


def test_check_send_cache_is_bounded_and_agrees_with_the_uncached_rule():
    check_send.cache_clear()
    for src, caps, dst in distinct_triples(TRIPLES):
        assert check_send(src, caps, dst) == check_send.__wrapped__(src, caps, dst)
    info = check_send.cache_info()
    assert info.misses == TRIPLES
    assert info.currsize <= info.maxsize < TRIPLES


def test_apply_receive_cache_is_bounded_and_agrees_with_the_uncached_rule():
    apply_receive.cache_clear()
    pairs = sorted({(src, dst) for src, _, dst in distinct_triples(TRIPLES)},
                   key=lambda p: tuple(map(str, p)))
    for receiver, msg_label in pairs:
        assert apply_receive(receiver, msg_label) == \
            apply_receive.__wrapped__(receiver, msg_label)
    info = apply_receive.cache_info()
    assert info.misses == len(pairs)
    assert info.currsize <= info.maxsize < len(pairs)


def test_pace_down_cache_is_bounded_and_agrees_with_the_uncached_rule():
    Label.pace_down.cache_clear()
    rates = [Frequency(1, k) for k in (1, 2, 3, 5)]
    pairs = sorted({(label, rate) for triple in distinct_triples(TRIPLES)
                    for label in (triple[0], triple[2]) for rate in rates},
                   key=lambda p: tuple(map(str, p)))
    for label, rate in pairs:
        assert label.pace_down(rate) == Label.pace_down.__wrapped__(label, rate)
    info = Label.pace_down.cache_info()
    assert info.misses == len(pairs)
    assert info.currsize <= info.maxsize < len(pairs)


def test_parse_cache_is_bounded_and_agrees_with_the_label():
    Label.parse.cache_clear()
    texts = {str(label) for triple in distinct_triples(TRIPLES)
             for label in (triple[0], triple[2])}
    assert len(texts) > TRIPLES // 2
    for text in sorted(texts):
        assert str(Label.parse(text)) == text
    info = Label.parse.cache_info()
    assert info.currsize <= info.maxsize < len(texts)


def test_label_str_is_computed_once_and_equality_ignores_the_cache():
    label = Label(("A",), {"A": INFINITY, "B": Frequency(1, 5)})
    assert str(label) is str(label)
    fresh = Label(label.content, label.timing)  # its string not computed yet
    assert fresh == label and hash(fresh) == hash(label)
    assert Label.parse(str(label)) is Label.parse(str(fresh))


@pytest.mark.parametrize("kind", GOLDEN_KINDS)
def test_golden_trace_is_the_same_with_cold_and_warm_caches(kind):
    cfg = build_scenario(kind, freq=Frequency(1, 5))
    for memo in (check_send, apply_receive, Label.parse, Label.pace_down):
        memo.cache_clear()
    cold = trace_to_jsonl(run_scenario(cfg).trace)
    warm = trace_to_jsonl(run_scenario(cfg).trace)
    assert check_send.cache_info().hits > 0
    assert cold == warm == (DATA / f"{kind}.jsonl").read_text(encoding="utf-8")


WARM_CONFIGS = [*(build_scenario(kind, freq=Frequency(1, 5)) for kind in GOLDEN_KINDS),
                build_config(CovertExperiment(), CovertExperiment().message_for(1))]


@pytest.mark.parametrize("cfg", WARM_CONFIGS, ids=[*GOLDEN_KINDS, "leakage-trial"])
def test_a_warm_run_builds_no_label(cfg):
    run_scenario(cfg)  # warms every memo with this config's label facts
    engine, _ = wire(cfg)
    built = []
    init = Label.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(Label, "__init__", counted):
        engine.run_until(cfg.horizon)
    assert engine.trace
    assert len(built) == 0
