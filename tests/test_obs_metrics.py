"""Metrics layer: typed registry, exports, deterministic histogram merge."""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics


@pytest.fixture
def registry():
    """A fresh registry installed as the process global."""
    fresh = metrics.MetricsRegistry()
    previous = metrics.set_registry(fresh)
    yield fresh
    metrics.set_registry(previous)


def test_counter_gauge_histogram_basics(registry):
    metrics.inc("hits")
    metrics.inc("hits", 4)
    metrics.set_gauge("rate", 2.5)
    metrics.observe("seconds", 0.01)
    metrics.observe("seconds", 0.02)

    assert registry.counter("hits").value == 5
    assert registry.gauge("rate").value == 2.5
    hist = registry.histogram("seconds")
    assert hist.count == 2
    assert hist.sum == pytest.approx(0.03)
    assert hist.min == 0.01 and hist.max == 0.02


def test_kind_mismatch_raises(registry):
    metrics.inc("x")
    with pytest.raises(TypeError, match="is a counter, not a gauge"):
        registry.gauge("x")
    # The counter and histogram getters return an existing metric of
    # their own kind from one lookup, and still refuse the other kind.
    metrics.observe("h", 1.0)
    assert registry.counter("x") is registry.counter("x")
    assert registry.histogram("h") is registry.histogram("h")
    with pytest.raises(TypeError, match="is a counter, not a histogram"):
        metrics.observe("x", 1.0)
    with pytest.raises(TypeError, match="is a histogram, not a counter"):
        metrics.inc("h")


def test_snapshot_and_json_round_trip(registry):
    metrics.inc("c", 3)
    metrics.set_gauge("g", 1.5)
    metrics.observe("h", 2.0)
    snap = json.loads(registry.to_json())
    assert snap["c"] == {"type": "counter", "value": 3}
    assert snap["g"] == {"type": "gauge", "value": 1.5}
    assert snap["h"]["type"] == "histogram"
    assert snap["h"]["count"] == 1
    assert sum(snap["h"]["buckets"].values()) == 1


def test_prometheus_export_format(registry):
    metrics.inc("store.get.miss", 2)
    metrics.set_gauge("flows.per_sec", 100.0)
    metrics.observe("stage.seconds", 0.5)
    text = registry.to_prometheus()
    assert "# TYPE repro_store_get_miss counter" in text
    assert "repro_store_get_miss 2" in text
    assert "repro_flows_per_sec 100" in text
    assert "# TYPE repro_stage_seconds histogram" in text
    assert 'repro_stage_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_stage_seconds_count 1" in text
    # buckets are cumulative: the occupied 0.5-ish bucket reports 1
    bucket_lines = [l for l in text.splitlines() if "_bucket" in l]
    assert all(l.endswith(" 1") for l in bucket_lines)


def test_histogram_bucket_boundaries():
    hist = metrics.Histogram(bounds=(1.0, 10.0))
    for value in (0.5, 1.0, 1.5, 10.0, 11.0):
        hist.observe(value)
    # <=1.0 catches 0.5 and 1.0; <=10.0 catches 1.5 and 10.0; +Inf the rest
    assert hist.counts == [2, 2, 1]


def _loop_bucket(bounds, value):
    """The bucket search ``Histogram`` used before it bisected."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bucket_of(value):
    hist = metrics.Histogram()
    hist.observe(value)
    return hist.counts.index(1)


def test_histogram_buckets_match_loop():
    bounds = metrics.HISTOGRAM_BOUNDS
    assert _bucket_of(math.nan) == len(bounds)  # +Inf, as before
    probes = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]
    for bound in bounds:
        probes += [bound, math.nextafter(bound, -math.inf),
                   math.nextafter(bound, math.inf)]
    # Log-uniform from below the first bound to above the last.
    probes += (10.0 ** np.random.default_rng(0).uniform(-9, 6, 5000)).tolist()
    for value in probes:
        assert _bucket_of(value) == _loop_bucket(bounds, value), value


def test_histogram_merge_requires_matching_bounds():
    a = metrics.Histogram(bounds=(1.0, 2.0))
    b = metrics.Histogram(bounds=(1.0, 3.0))
    with pytest.raises(ValueError, match="different bounds"):
        a.merge(b)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(min_value=1e-9, max_value=1e5,
                      allow_nan=False, allow_infinity=False),
            max_size=20,
        ),
        min_size=2,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_histogram_merge_is_order_deterministic(chunks, rnd):
    """Merging per-chunk histograms in any order yields identical buckets.

    This is the property that lets worker processes record privately and
    the supervisor fold results in completion order: bucket counts and
    count/min/max are integer/extremal math (exact under reordering);
    only ``sum`` is floating-point, so it is compared approximately.
    """
    def fold(order):
        total = metrics.Histogram()
        for chunk in order:
            part = metrics.Histogram()
            for value in chunk:
                part.observe(value)
            total.merge(part)
        return total

    forward = fold(chunks)
    shuffled = list(chunks)
    rnd.shuffle(shuffled)
    reordered = fold(shuffled)

    assert forward.counts == reordered.counts
    assert forward.count == reordered.count
    assert forward.min == reordered.min
    assert forward.max == reordered.max
    assert math.isclose(forward.sum, reordered.sum,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_warn_event_counts_and_logs(registry, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.obs.events"):
        metrics.warn_event("store.degraded", "store degraded", dir="/tmp/x")
        metrics.warn_event("store.degraded", "store degraded again")
    assert registry.counter("events.warn.store.degraded").value == 2
    assert "store degraded [store.degraded dir=/tmp/x]" in caplog.text
    assert "store degraded again [store.degraded]" in caplog.text


def test_warn_event_routes_through_caller_logger(registry, caplog):
    log = logging.getLogger("repro.engine.store")
    with caplog.at_level(logging.WARNING, logger="repro.engine.store"):
        metrics.warn_event("store.cache_dir_unusable", "memory-only", logger=log)
    assert caplog.records[0].name == "repro.engine.store"
    assert registry.counter("events.warn.store.cache_dir_unusable").value == 1
