"""Moments-only streams and the reservoir that rides on top of them.

``Moments`` is the Welford core; ``RunningStat`` adds reservoir
sampling to it.  The collector keeps a reservoir only on the streams
whose percentiles ``as_dict()`` reports.
"""

import random

import pytest

from repro.metrics.collector import MessageKind, MetricsCollector
from repro.metrics.stats import RESERVOIR_CAPACITY, Moments, RunningStat

MOMENT_FIELDS = ("count", "mean", "variance", "minimum", "maximum", "total")


def _stream(n, seed=7):
    rng = random.Random(seed)
    return [rng.choice((rng.random() * 1e3, rng.randrange(60), -rng.random()))
            for _ in range(n)]


def _moments(stat):
    return tuple(getattr(stat, name) for name in MOMENT_FIELDS)


@pytest.mark.parametrize("n", [0, 1, 2, 17, RESERVOIR_CAPACITY + 500])
def test_moments_and_running_stat_agree_bit_for_bit(n):
    xs = _stream(n)
    plain, sampled = Moments(), RunningStat()
    for x in xs:
        plain.add(x)
        sampled.add(x)
    batched_plain, batched_sampled = Moments(), RunningStat()
    batched_plain.add_many(xs[: n // 2])
    batched_plain.add_many(iter(xs[n // 2:]))
    batched_sampled.add_many(xs[: n // 2])
    batched_sampled.add_many(iter(xs[n // 2:]))
    expected = _moments(plain)
    for other in (sampled, batched_plain, batched_sampled):
        # repr round-trips floats exactly: bit-identical, inf included
        assert repr(_moments(other)) == repr(expected)


def test_batched_sampling_keeps_the_reservoir_of_repeated_adds():
    xs = _stream(3 * RESERVOIR_CAPACITY)
    one, many = RunningStat(), RunningStat()
    for x in xs:
        one.add(x)
    many.add_many(xs[:100])
    many.add_many(xs[100:])
    assert one._reservoir == many._reservoir
    assert one.quantiles() == many.quantiles()


def test_moments_merge_matches_running_stat_merge():
    xs, ys = _stream(300, seed=1), _stream(900, seed=2)
    a, b = Moments(), Moments()
    ra, rb = RunningStat(), RunningStat()
    a.extend(xs)
    b.extend(ys)
    ra.extend(xs)
    rb.extend(ys)
    assert repr(_moments(a.merge(b))) == repr(_moments(ra.merge(rb)))
    empty = Moments()
    assert repr(_moments(empty.merge(a))) == repr(_moments(a))
    assert a.merge(Moments()) is a


def test_moments_keep_no_samples():
    m = Moments()
    m.add_many(range(5000))
    assert not hasattr(m, "_reservoir")
    assert not hasattr(m, "__dict__")
    assert not hasattr(m, "percentile")


def test_percentile_reporting_streams_still_sample():
    c = MetricsCollector()
    reported = {
        "activation_delays": ("p95_activation_delay_ms", "p99_activation_delay_ms"),
        "fetch_rtts": ("p95_fetch_rtt_ms",),
        "visibility_lags": ("p50_visibility_ms", "p95_visibility_ms",
                            "p99_visibility_ms"),
    }
    for name in reported:
        assert type(getattr(c, name)) is RunningStat, name
    c.start_measuring()
    for x in (1.0, 2.0, 3.0, 10.0):
        c.record_activation_delay(x)
        c.record_fetch_rtt(x)
        c.record_visibility(x)
    out = c.as_dict()
    for name, keys in reported.items():
        assert len(getattr(c, name)._reservoir) == 4
        for key in keys:
            assert out[key] > 1.0, key


def test_size_streams_keep_moments_only():
    c = MetricsCollector()
    assert type(c.log_sizes) is Moments
    assert type(c.dest_list_sizes) is Moments
    for kind in MessageKind:
        assert type(c.tally(kind).measured) is Moments
    c.start_measuring()
    c.record_log_size(4)
    c.record_dest_lists([1, 2, 3])
    c.record_message(MessageKind.SM, 100)
    out = c.as_dict()
    assert out["mean_log_size"] == 4.0 and out["max_log_size"] == 4.0
    assert out["mean_dest_list_size"] == 2.0 and out["max_dest_list_size"] == 3.0
    assert out["SM_count"] == 1 and out["SM_bytes"] == 100.0
