"""The memoized label work: ``check_send`` and ``Label.parse`` keep bounded
caches, and a cache, warm or cold, never changes a decision or a trace."""

import random
from pathlib import Path

import pytest

from tifcsim.kernel import trace_to_jsonl
from tifcsim.labels import INFINITY, CapabilitySet, Frequency, Label
from tifcsim.monitor import check_send
from tifcsim.scenarios import build_scenario, run_scenario

from reference import random_caps, random_label

DATA = Path(__file__).parent / "data"
TRIPLES = 5_000


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


@pytest.mark.parametrize("kind", ["dedicated", "reservation", "statmux"])
def test_golden_trace_is_the_same_with_cold_and_warm_caches(kind):
    cfg = build_scenario(kind, freq=Frequency(1, 5))
    check_send.cache_clear()
    Label.parse.cache_clear()
    cold = trace_to_jsonl(run_scenario(cfg).trace)
    warm = trace_to_jsonl(run_scenario(cfg).trace)
    assert check_send.cache_info().hits > 0
    assert cold == warm == (DATA / f"{kind}.jsonl").read_text(encoding="utf-8")
