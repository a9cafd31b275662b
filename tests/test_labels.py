import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tifcsim.labels import (
    EMPTY_CAPS,
    EMPTY_LABEL,
    INFINITY,
    ZERO,
    Capability,
    CapabilitySet,
    Frequency,
    Label,
    LabelParseError,
)

from reference import FREQ_POOL, all_labels, lub_by_enumeration, oracle_leq, random_label

F15 = Frequency(1, 5)
A_INF = Label(("A",), {"A": INFINITY})


# -- Frequency ---------------------------------------------------------------


def test_frequency_ordering_total_with_infinity_greatest():
    assert ZERO < Frequency(1, 5) < Frequency(1) < Frequency(2) < INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY == Frequency(1, 0)
    assert max(ZERO, INFINITY) is INFINITY


def test_frequency_order_matches_fractions_over_pool():
    from fractions import Fraction

    def key(f):
        return (1, 0) if f.denominator == 0 else (0, Fraction(f.numerator, f.denominator))

    for a in FREQ_POOL:
        for b in FREQ_POOL:
            assert (a < b) == (key(a) < key(b)), (a, b)


def test_frequency_lowest_terms():
    assert Frequency(2, 10) == Frequency(1, 5)
    assert Frequency(2, 10).numerator == 1
    assert str(Frequency(6, 3)) == "2"


def test_frequency_rejects_negative():
    with pytest.raises(ValueError):
        Frequency(-1, 2)
    with pytest.raises(ValueError):
        Frequency(1, -2)


@pytest.mark.parametrize("num,den", [(True, 5), (1, True), (False, 1), (1.0, 5), (1, 5.0)])
def test_frequency_rejects_non_int_parts(num, den):
    with pytest.raises(ValueError):
        Frequency(num, den)


@pytest.mark.parametrize("text", ["inf", "0", "3", "1/5", "7/3"])
def test_frequency_parse_roundtrip(text):
    assert str(Frequency.parse(text)) == text


def test_frequency_parse_errors():
    for bad in ["", "-1", "1/0", "1.5", "a"]:
        with pytest.raises(LabelParseError):
            Frequency.parse(bad)


def test_frequency_as_fraction():
    from fractions import Fraction

    assert Frequency(7, 3).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        INFINITY.as_fraction()


# -- Label construction --------------------------------------------------------


def test_label_merges_duplicate_timing_by_max():
    lab = Label((), [("A", Frequency(1)), ("A", Frequency(2))])
    assert lab.timing["A"] == Frequency(2)


def test_label_rejects_bad_tags():
    with pytest.raises(ValueError):
        Label(("",))
    with pytest.raises(ValueError):
        Label(("a/b",))
    with pytest.raises(ValueError):
        Label((), {"A": 3})  # not a Frequency


def test_label_value_semantics():
    assert Label(("A",)) == Label(("A",))
    assert hash(Label(("A",))) == hash(Label(("A",)))
    assert Label(("A",)) != Label(("B",))


# -- flow order -----------------------------------------------------------------


def test_flows_to_subset_case():
    assert A_INF.flows_to(Label.parse("{A/A:inf,B:1/5}"))


def test_flows_to_denied_to_empty():
    assert not Label.parse("{A/A:inf,B:1/5}").flows_to(EMPTY_LABEL)


def test_flows_to_timing_frequency_order():
    # frozen from the order definition: 1 <= 2 bits/tick
    assert Label.parse("{-/A:1}").flows_to(Label.parse("{-/A:2}"))
    assert not Label.parse("{-/A:2}").flows_to(Label.parse("{-/A:1}"))


def test_partial_order_laws_exhaustive_small_lattice():
    universe = all_labels(("A", "B"), (ZERO, Frequency(1), INFINITY))
    for a in universe:
        assert a.flows_to(a)
    for a in universe:
        for b in universe:
            if a.flows_to(b) and b.flows_to(a):
                assert a == b
            assert a.flows_to(b) == oracle_leq(a, b)


# -- join -------------------------------------------------------------------------


def test_join_composite_taint():
    assert A_INF.join(Label((), {"B": F15})) == Label.parse("{A/A:inf,B:1/5}")


def test_join_identity():
    lab = Label.parse("{A,B/A:inf,C:1/2}")
    assert lab.join(EMPTY_LABEL) == lab
    assert EMPTY_LABEL.join(lab) == lab


def test_join_pointwise_max():
    # frozen from brute-force LUB search on the finite lattice
    assert Label.parse("{-/A:1}").join(Label.parse("{-/A:2}")) == Label.parse("{-/A:2}")


def test_join_is_least_upper_bound_exhaustive():
    freqs = (ZERO, Frequency(1), INFINITY)
    universe = all_labels(("A", "B"), freqs)
    for a in universe:
        for b in universe:
            j = a.join(b)
            assert lub_by_enumeration(a, b, universe) == j


def test_join_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (random_label(rng, "ABC") for _ in range(3))
        assert a.join(b) == b.join(a)
        assert a.join(a) == a
        assert a.join(b).join(c) == a.join(b.join(c))
        assert a.flows_to(a.join(b))
        assert b.flows_to(a.join(b))


# -- declassify -------------------------------------------------------------------


def test_declassify_full():
    caps = CapabilitySet([Capability("A"), Capability("B", F15)])
    assert Label.parse("{A/A:inf,B:1/5}").declassify(caps) == EMPTY_LABEL


def test_declassify_capability_too_weak():
    caps = CapabilitySet([Capability("B", Frequency(1, 10))])
    lab = Label.parse("{A/A:inf,B:1/5}")
    assert lab.declassify(caps) == lab


def test_declassify_empty_label_fixed_point():
    caps = CapabilitySet([Capability("A"), Capability("B")])
    assert EMPTY_LABEL.declassify(caps) == EMPTY_LABEL


def test_declassify_shrinks_and_monotone_in_caps():
    rng = random.Random(21)
    for _ in range(300):
        lab = random_label(rng, "ABC")
        few = CapabilitySet([Capability("A", F15)])
        more = CapabilitySet([Capability("A", F15), Capability("B")])
        assert lab.declassify(few).flows_to(lab)
        assert lab.declassify(more).flows_to(lab.declassify(few))


def test_max_strength_timing_equals_content_declassifier():
    rng = random.Random(5)
    timing_inf = CapabilitySet([Capability("A", INFINITY)])
    content = CapabilitySet([Capability("A")])
    for _ in range(500):
        lab = random_label(rng, "ABC")
        assert lab.declassify(timing_inf) == lab.declassify(content)


def test_capability_explicit_use():
    lab = Label.parse("{A,B/A:inf,B:inf}")

    def apply(cap):
        return lab.declassify(CapabilitySet([cap]))

    assert apply(Capability("A")) == Label.parse("{B/B:inf}")
    assert apply(Capability("A", INFINITY)) == Label.parse("{B/B:inf}")
    assert apply(Capability("A", F15)) == lab  # too weak for A:inf


def test_capability_set_redundancy_removal():
    caps = CapabilitySet([
        Capability("A", F15),
        Capability("A"),
        Capability("B", Frequency(1)),
        Capability("B", Frequency(2)),
        Capability("C", Frequency(2)),
        Capability("C", F15),
    ])
    # Each user's largest limit, and content for the unbounded user: the
    # set is the label of what it may strip.
    assert caps == Label.parse("{A/A:inf,B:2,C:2}")
    assert str(caps) == "{A/A:inf,B:2,C:2}"


def test_capability_parse_roundtrip():
    for text in ["A-", "B-:1/5"]:
        assert str(Capability.parse(text)) == text
    with pytest.raises(LabelParseError):
        Capability.parse("A")


def test_capability_has_one_encoding():
    assert Capability.parse("C-:inf") == Capability("C") == Capability("C", INFINITY)
    assert str(Capability.parse("C-:inf")) == "C-"
    assert CapabilitySet([Capability("C", INFINITY)]) == CapabilitySet([Capability("C")])


@pytest.mark.parametrize("limit", [None, 0.2, 1, "1/5"])
def test_capability_rejects_non_frequency_limit(limit):
    with pytest.raises(ValueError):
        Capability("A", limit)


# -- pacing downgrade ----------------------------------------------------------------


def test_pace_down_caps_unbounded_tags():
    lab = Label.parse("{A/A:inf,B:inf}")
    assert lab.pace_down(F15) == Label.parse("{A/A:1/5,B:1/5}")


def test_pace_down_empty_fixed_point():
    assert EMPTY_LABEL.pace_down(F15) == EMPTY_LABEL


def test_pace_down_leaves_slower_tags():
    assert Label.parse("{-/A:1}").pace_down(Frequency(2)) == Label.parse("{-/A:1}")


def test_pace_down_rejects_infinite_rate():
    with pytest.raises(ValueError):
        A_INF.pace_down(INFINITY)


def test_pace_down_idempotent_shrinking_monotone():
    rng = random.Random(13)
    for _ in range(300):
        lab = random_label(rng, "ABC")
        assert lab.pace_down(F15).pace_down(F15) == lab.pace_down(F15)
        assert lab.pace_down(F15).flows_to(lab)
        assert lab.pace_down(F15).flows_to(lab.pace_down(Frequency(1, 2)))


# -- lift to timing ---------------------------------------------------------------------


def test_lift_scheduler_label():
    assert Label.parse("{A,B/A:inf,B:inf}").lift_to_timing() == Label.parse("{-/A:inf,B:inf}")


def test_lift_empty():
    assert EMPTY_LABEL.lift_to_timing() == EMPTY_LABEL


def test_lift_content_becomes_unbounded_timing():
    assert Label.parse("{A/B:1/5}").lift_to_timing() == Label.parse("{-/A:inf,B:1/5}")


def test_lift_idempotent_monotone():
    rng = random.Random(29)
    for _ in range(300):
        a = random_label(rng, "ABC")
        b = a.join(random_label(rng, "ABC"))
        assert a.lift_to_timing().lift_to_timing() == a.lift_to_timing()
        assert a.lift_to_timing().flows_to(b.lift_to_timing())


# -- text form -----------------------------------------------------------------------------


def test_canonical_text_fixed_grammar():
    lab = Label(("A",), {"A": INFINITY, "B": Frequency(1)})
    assert str(lab) == "{A/A:inf,B:1}"
    assert str(EMPTY_LABEL) == "{-/-}"


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("A/B}", 0),
        ("{A|B}", 1),
        ("{A/B}", 3),        # timing tag without frequency
        ("{A/B:}", 5),
        ("{A/B:x}", 5),
        ("{A,/-}", 3),
        # only the canonical spelling parses: sorted, each tag once, lowest terms
        ("{A/B:1/5,A:inf}", 3),
        ("{A/A:10/50}", 6),
        ("{B,A/-}", 1),
        ("{A,A/-}", 2),
        ("{-/A:01}", 5),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(LabelParseError) as err:
        Label.parse(text)
    assert err.value.position == pos


@settings(max_examples=300)
@given(
    content=st.frozensets(st.sampled_from(["A", "B", "C", "carol_2"])),
    timing=st.dictionaries(
        st.sampled_from(["A", "B", "C", "carol_2"]),
        st.one_of(
            st.just(INFINITY),
            st.builds(Frequency, st.integers(0, 9), st.integers(1, 9)),
        ),
    ),
)
def test_text_roundtrip_property(content, timing):
    lab = Label(content, timing)
    assert Label.parse(str(lab)) == lab


def test_text_roundtrip_ten_thousand_random_labels():
    rng = random.Random(404)
    for _ in range(10_000):
        lab = random_label(rng, ("A", "B", "C"))
        assert Label.parse(str(lab)) == lab
