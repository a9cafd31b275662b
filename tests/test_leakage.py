import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from tifcsim.kernel import ConfigError, TraceKind
from tifcsim.labels import Frequency
from tifcsim.leakage import (
    CovertExperiment,
    Framing,
    binary_entropy,
    build_config,
    decode_from_releases,
    empirical_mi,
    measure,
    model_latency,
    run_trial,
    straddle_experiment,
)
from tifcsim.scenarios import JobSpec, build_scenario, run_scenario

F15 = Frequency(1, 5)
F110 = Frequency(1, 10)


# -- encoding -----------------------------------------------------------------


def test_encode_empty_bitstring_gives_no_jobs():
    assert build_config(CovertExperiment(), "").jobs == ()


def test_encode_short_then_long():
    exp = CovertExperiment(short_work=2, long_work=7, frame_ticks=10)
    jobs = build_config(exp, "01").jobs
    # per frame, the receiver's one-slice probe and then the sender's job
    assert [(j.owner, j.work, j.arrival) for j in jobs] == [
        ("A", 1, 0), ("B", 2, 0), ("A", 1, 10), ("B", 7, 10)]


def test_experiment_validation():
    with pytest.raises(ConfigError):
        CovertExperiment(short_work=3, long_work=3)
    with pytest.raises(ConfigError, match="short must be less than long"):
        CovertExperiment(short_work=3, long_work=1)  # would decode every bit inverted
    with pytest.raises(ConfigError):
        CovertExperiment(freq=Frequency(2, 3))
    with pytest.raises(ConfigError):
        CovertExperiment(frame_ticks=7)  # not a whole number of periods
    with pytest.raises(ConfigError):
        CovertExperiment(horizon=100)  # too short for 64 frames
    with pytest.raises(ConfigError):
        CovertExperiment(topology="mesh")


def test_messages_differ_per_seed_but_are_reproducible():
    exp = CovertExperiment()
    assert exp.message_for(1) == exp.message_for(1)
    assert exp.message_for(1) != exp.message_for(2)
    assert len(exp.message_for(1)) == 64


# -- decoding ------------------------------------------------------------------


def test_decode_thresholds_latency():
    framing = Framing(frame_ticks=5, frames=3, threshold=2.0, max_latency=15)
    assert decode_from_releases([1, 8, 13], framing) == "011"


def test_decode_missing_delivery_marked_invalid():
    framing = Framing(frame_ticks=5, frames=2, threshold=2.0, max_latency=15)
    assert decode_from_releases([1, None], framing) is None


def test_decode_wrong_frame_count_marked_invalid():
    framing = Framing(frame_ticks=5, frames=3, threshold=2.0, max_latency=15)
    assert decode_from_releases([1], framing) is None


def test_decode_out_of_range_latency_marked_invalid():
    framing = Framing(frame_ticks=5, frames=2, threshold=2.0, max_latency=6)
    assert decode_from_releases([1, 40], framing) is None
    assert decode_from_releases([1, 9], framing) == "01"  # latency 4, in range


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_empirical_mi_bounds():
    perfect = [("0", 1), ("1", 3)] * 50
    noise = [("0", 1), ("1", 1)] * 50
    assert empirical_mi(perfect) == pytest.approx(1.0)
    assert empirical_mi(noise) == pytest.approx(0.0)
    assert empirical_mi([]) == 0.0


# -- latency model --------------------------------------------------------------


def test_model_latencies_default_profile():
    exp = CovertExperiment()
    # paced: both symbols complete inside one period, released at its end
    assert model_latency(exp, exp.short_work) == 5
    assert model_latency(exp, exp.long_work) == 5
    unpaced = dataclasses.replace(exp, paced=False)
    assert model_latency(unpaced, 1) == 1
    assert model_latency(unpaced, 3) == 3


def test_model_latencies_straddle_profile():
    exp = straddle_experiment()
    assert model_latency(exp, exp.short_work) == 5
    assert model_latency(exp, exp.long_work) == 10


def test_straddle_horizon_default_only_when_absent():
    assert straddle_experiment().horizon == 2 * 5 * 70 + 5 + 1
    assert straddle_experiment(horizon=None).horizon == 2 * 5 * 70 + 5 + 1
    assert straddle_experiment(freq=F110).horizon == 2 * 10 * 70 + 10 + 1
    assert straddle_experiment(horizon=900).horizon == 900
    with pytest.raises(ConfigError):
        straddle_experiment(horizon=0)


def test_model_latency_dedicated_ignores_sender():
    exp = CovertExperiment(topology="dedicated", paced=False)
    assert model_latency(exp, 1) == model_latency(exp, 3) == 0


# -- end-to-end trials ------------------------------------------------------------


def test_unpaced_shared_channel_is_wide_open():
    exp = CovertExperiment(paced=False, trials=1, seed=42)
    trial = run_trial(exp, 42)
    assert trial.valid
    assert trial.ber == 0.0
    assert trial.decoded == trial.sent


def test_paced_trial_stays_at_or_below_bound():
    exp = CovertExperiment(trials=1, seed=42)
    trial = run_trial(exp, 42)
    assert trial.achieved_rate <= exp.bound


def test_straddle_carries_information_under_the_bound():
    exp = straddle_experiment(trials=1, seed=7)
    trial = run_trial(exp, 7)
    assert trial.valid and trial.ber == 0.0
    assert Fraction(0) < trial.achieved_rate <= exp.bound
    # about one bit per two periods
    assert abs(float(trial.achieved_rate) - 0.1) < 0.01


def test_halving_frequency_halves_the_straddle_rate():
    fast = run_trial(straddle_experiment(freq=F15, seed=3), 3)
    slow = run_trial(straddle_experiment(freq=F110, seed=3), 3)
    assert fast.ber == slow.ber == 0.0
    ratio = float(slow.achieved_rate / fast.achieved_rate)
    assert abs(ratio - 0.5) < 0.02


def test_dedicated_topology_has_no_channel():
    exp = CovertExperiment(topology="dedicated", paced=False, trials=10, seed=5)
    report = measure(exp)
    assert [t.seed for t in report.trials] == list(range(5, 15))
    for trial in report.trials:
        assert trial.valid
        assert 0.25 < trial.ber < 0.75
        assert trial.achieved_rate < exp.bound / 4
        assert trial.mi_rate == pytest.approx(0.0, abs=1e-9)
    assert report.all_pass


def test_paced_release_count_bounded_by_horizon_over_period():
    exp = CovertExperiment(trials=1, seed=9)
    cfg = build_config(exp, exp.message_for(9))
    run = run_scenario(cfg)
    releases = [r for r in run.trace if r.kind is TraceKind.PACER_RELEASE
                and r.entity == "pacer_A"]
    assert len(releases) <= math.ceil(cfg.horizon / exp.period)
    assert all(r.t % exp.period == 0 for r in releases)


def test_measure_aggregates_trials():
    exp = CovertExperiment(trials=3, seed=50)
    report = measure(exp)
    assert len(report.trials) == 3
    assert [t.seed for t in report.trials] == [50, 51, 52]
    assert report.all_pass
    csv = report.csv_text()
    assert csv.splitlines()[0] == "seed,ber,achieved_rate,bound,pass"
    assert len(csv.splitlines()) == 4
    obj = report.to_json_obj()
    assert obj["all_pass"] is True and len(obj["trials"]) == 3


def test_ablation_exceeds_bound_for_every_seed():
    exp = CovertExperiment(paced=False, trials=3, seed=50)
    report = measure(exp)
    assert all(t.achieved_rate > exp.bound for t in report.trials)
    assert not report.all_pass


# -- leak bound by enumeration --------------------------------------------------
# No decoder: run every sender schedule and count what the receiver can tell
# apart. In each of three five-tick frames, A sends a one-slice probe and each
# sender sends no job or one job from the alphabet, and the senders come first
# in a shared core's order. A's view is every record at A's gateway. With |V|
# distinct views, A learns at most log2 |V| bits of the senders' schedules,
# which a pacer caps at one bit per pacer tick, T * f, however many senders
# collude.

FRAME, FRAMES, T = 5, 3, 25


def distinct_views(kind, senders=("B",), alphabet=(None, 1, 3, 6), **options):
    users = (*senders, "A")
    views = set()
    for works in itertools.product(alphabet, repeat=FRAMES * len(senders)):
        jobs = []
        for i in range(FRAMES):
            jobs.append(JobSpec("A", 1, arrival=i * FRAME))
            frame = works[i * len(senders):(i + 1) * len(senders)]
            jobs += [JobSpec(s, w, arrival=i * FRAME)
                     for s, w in zip(senders, frame) if w is not None]
        cfg = build_scenario(kind, users=users, jobs=jobs, horizon=T, **options)
        views.add(tuple(r.to_json() for r in run_scenario(cfg).trace
                        if r.entity == "gw_A"))
    return len(views)


def test_enumerated_views_bound_the_leak_without_a_decoder():
    budget = T * F15.as_fraction()  # pacer ticks in [0, T]
    assert distinct_views("dedicated") == 1
    assert distinct_views("reservation") == 1
    paced = distinct_views("statmux", freq=F15)
    assert 1 < paced and math.log2(paced) <= budget
    unpaced = distinct_views("statmux", freq=F15, pacer_present=False)
    assert math.log2(unpaced) > budget


def test_colluding_senders_share_one_pacer_budget():
    # B and C each hold a grant at A's gateway, so the labels allow 2 * T * f
    # bits; the pacer still releases at most once per tick, so A's view
    # carries at most T * f bits, the bound of a single sender.
    budget = T * F15.as_fraction()
    colluders = {"senders": ("B", "C"), "alphabet": (None, 1, 3)}
    paced = distinct_views("statmux", freq=F15, **colluders)
    assert paced == 8 and math.log2(paced) <= budget
    unpaced = distinct_views("statmux", freq=F15, pacer_present=False, **colluders)
    assert unpaced == 212 and math.log2(unpaced) > budget
