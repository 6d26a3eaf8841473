"""Tracing layer: span trees, serialisation, no-op cost."""

from __future__ import annotations

import time

import pytest

from repro.obs import trace


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed as the process global."""
    fresh = trace.Tracer(enabled=True)
    previous = trace.set_tracer(fresh)
    yield fresh
    trace.set_tracer(previous)


def test_nesting_builds_a_tree(tracer):
    with trace.span("outer"):
        with trace.span("inner-a", k=1):
            pass
        with trace.span("inner-b"):
            with trace.span("leaf"):
                pass

    assert len(tracer.roots) == 1
    outer = tracer.roots[0]
    assert outer.name == "outer"
    assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
    assert outer.children[0].attrs == {"k": 1}
    assert [c.name for c in outer.children[1].children] == ["leaf"]
    assert outer.wall >= sum(c.wall for c in outer.children)


def test_span_set_attaches_attrs(tracer):
    with trace.span("op") as sp:
        sp.set(outcome="hit", n=3)
    assert tracer.roots[0].attrs == {"outcome": "hit", "n": 3}


def test_to_dict_serialises_the_tree(tracer):
    with trace.span("root", a=1):
        with trace.span("child"):
            pass
    original = tracer.roots[0]
    data = original.to_dict()
    assert data["name"] == "root"
    assert data["attrs"] == {"a": 1}
    assert data["wall"] == original.wall
    assert data["cpu"] == original.cpu
    assert [c["name"] for c in data["children"]] == ["child"]


def test_disabled_tracer_returns_shared_noop_handle():
    fresh = trace.Tracer(enabled=False)
    previous = trace.set_tracer(fresh)
    try:
        first = trace.span("anything", k=1)
        second = trace.span("other")
        assert first is second  # one shared stateless handle, no allocation
        with first as sp:
            sp.set(ignored=True)
        assert fresh.roots == []
    finally:
        trace.set_tracer(previous)


def test_coverage_is_child_wall_over_root_wall():
    span_dict = {
        "name": "root", "wall": 2.0, "cpu": 0.0, "attrs": {},
        "children": [
            {"name": "a", "wall": 1.0, "cpu": 0.0, "attrs": {}, "children": []},
            {"name": "b", "wall": 0.5, "cpu": 0.0, "attrs": {},
             # grandchildren must NOT double-count
             "children": [{"name": "c", "wall": 0.4, "cpu": 0.0,
                           "attrs": {}, "children": []}]},
        ],
    }
    assert trace.coverage(span_dict) == pytest.approx(0.75)
    # zero-duration root counts as fully covered by convention
    assert trace.coverage({"name": "r", "wall": 0.0, "cpu": 0.0,
                           "attrs": {}, "children": []}) == 1.0


def test_enable_disable_toggle_global():
    previous = trace.set_tracer(trace.Tracer(enabled=False))
    try:
        assert not trace.enabled()
        trace.enable()
        assert trace.enabled()
        trace.disable()
        assert not trace.enabled()
    finally:
        trace.set_tracer(previous)


def test_disabled_span_cost_is_tiny():
    """The disabled fast path must stay an attribute check, not setup work.

    Bounds the per-call cost at 2µs — ~50x the observed cost on CI-class
    hardware, while an accidental allocation-per-call regression is
    comfortably above it.
    """
    previous = trace.set_tracer(trace.Tracer(enabled=False))
    try:
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            with trace.span("hot"):
                pass
        per_call = (time.perf_counter() - start) / n
    finally:
        trace.set_tracer(previous)
    assert per_call < 2e-6
