"""One property across detection modes.

Every way the repo computes a detector verdict — batch ``detect``, the
out-of-core ``detect_chunked`` fold, ``merge_all`` over an arbitrary
split of the log, the stream's day fold, and the readable reference
implementations — must agree bit for bit on the same flow log.  The
logs span several days, cluster start times around hour and day
boundaries (so positional cuts land mid-hour and mid-day), repeat
sources, destinations and timestamps densely, and carry payload-bearing
SMTP deliveries so the spam detector has something to flag.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import folds
from repro.detect.scan import ScanAggregates, ScanDetector, ScanDetectorConfig
from repro.detect.spam import SpamAggregates, SpamDetector, SpamDetectorConfig
from repro.detect.trw import TRWDetector
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags

#: Low thresholds so the tiny generated logs actually exercise flagging.
SCAN = ScanDetectorConfig(min_targets=3, min_failed_fraction=0.5)
SPAM = SpamDetectorConfig(min_messages=3, min_daily_rate=1.5, max_size_cv=0.6)

_FIRST_DAY = 10
_DAY = 86_400.0


@st.composite
def flow_logs(draw):
    """Time-sorted logs over days 10-12, clustered at hour boundaries."""
    n = draw(st.integers(min_value=0, max_value=150))

    def column(strategy):
        return np.asarray(draw(st.lists(strategy, min_size=n, max_size=n)))

    sources = column(st.integers(min_value=1, max_value=5))
    dsts = column(st.integers(min_value=1000, max_value=1009))
    days = column(st.integers(min_value=0, max_value=2))
    # Hours either side of midnight and one mid-day boundary, jittered
    # a few seconds across the boundary itself.
    hours = column(st.sampled_from([0, 1, 12, 23]))
    jitter = column(st.integers(min_value=-2, max_value=2))
    smtp = column(st.booleans())
    acked = column(st.booleans())
    tcp = column(st.integers(min_value=0, max_value=5))  # 0 -> UDP
    # 150 octets over 3 packets carry 30 payload bytes: below the
    # payload-bearing floor, so not a mail delivery.
    octets = column(st.sampled_from([150, 156, 600, 1200]))

    start = (
        (_FIRST_DAY + days.astype(np.float64)) * _DAY
        + hours.astype(np.float64) * 3600.0
        + jitter.astype(np.float64)
    )
    # A stable time sort keeps the drawn order among equal timestamps,
    # so the TRW tie-break on log position is exercised too.
    order = np.argsort(start, kind="stable")
    return _log(
        sources[order], dsts[order], smtp[order], acked[order],
        start[order], octets=octets[order], tcp=tcp[order] > 0,
    )


def _log(sources, dsts, smtp, acked, start, octets, tcp):
    n = len(start)
    return FlowLog(
        src_addr=np.asarray(sources, dtype=np.uint32),
        dst_addr=np.asarray(dsts, dtype=np.uint32),
        src_port=np.full(n, 40000, dtype=np.uint16),
        dst_port=np.where(smtp, 25, 445).astype(np.uint16),
        protocol=np.where(tcp, Protocol.TCP, Protocol.UDP).astype(np.uint8),
        packets=np.full(n, 3, dtype=np.uint32),
        octets=np.asarray(octets, dtype=np.uint64),
        tcp_flags=np.where(
            acked, int(TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH),
            int(TCPFlags.SYN),
        ).astype(np.uint8),
        start_time=np.asarray(start, dtype=np.float64),
        end_time=np.asarray(start, dtype=np.float64) + 1.0,
    )


@st.composite
def cases(draw):
    flows = draw(flow_logs())
    n = len(flows)
    # Positional cuts; repeats (and cuts at 0 or n) make empty chunks.
    cuts = sorted(
        draw(st.lists(st.integers(min_value=0, max_value=n), max_size=8))
    )
    # An interleaved split: each flow goes to one of up to four parts.
    label = st.integers(min_value=0, max_value=3)
    labels = np.asarray(
        draw(st.lists(label, min_size=n, max_size=n)), dtype=np.int64
    )
    return flows, cuts, labels


def _chunks(flows, cuts):
    bounds = [0, *cuts, len(flows)]
    positions = np.arange(len(flows))
    return [
        flows.select((positions >= lo) & (positions < hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _interleaved(flows, labels):
    return [flows.select(labels == part) for part in range(4)]


def _days(flows):
    if len(flows) == 0:
        return []
    first = int(flows.start_time.min() // _DAY)
    last = int(flows.start_time.max() // _DAY)
    return [folds.slice_day(flows, day) for day in range(first, last + 1)]


def _assert_same(verdict, whole, mode):
    assert verdict.dtype == np.uint32, mode
    assert np.array_equal(verdict, whole), mode


def _assert_same_aggregate(merged, whole):
    for field in dataclasses.fields(whole):
        a, b = getattr(merged, field.name), getattr(whole, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _check_every_mode(flows, cuts, labels):
    """Assert every mode agrees; returns the scan, spam and TRW verdicts."""
    chunks = _chunks(flows, cuts)
    interleaved = _interleaved(flows, labels)
    days = _days(flows)

    # Scan: batch, chunked, interleaved merge, per-day union, reference.
    scan = ScanDetector(SCAN)
    scanners = scan.detect(flows)
    assert scanners.dtype == np.uint32, "scan detect"
    _assert_same(scan.detect_chunked(chunks), scanners, "scan chunked")
    merged = ScanAggregates.merge_all(
        ScanAggregates.from_flows(part) for part in interleaved
    )
    _assert_same_aggregate(merged, ScanAggregates.from_flows(flows))
    _assert_same(merged.flagged(SCAN), scanners, "scan merge_all")
    per_day = np.asarray([], dtype=np.uint32)
    for day in days:
        per_day = np.union1d(per_day, scan.detect(day))
    _assert_same(per_day, scanners, "scan day fold")
    _assert_same(scan.detect_reference(flows), scanners, "scan reference")

    # Spam: batch, chunked, interleaved merge, running day fold.
    spam = SpamDetector(SPAM)
    spammers = spam.detect(flows)
    assert spammers.dtype == np.uint32, "spam detect"
    _assert_same(spam.detect_chunked(chunks), spammers, "spam chunked")
    whole = SpamAggregates.from_flows(flows)
    merged = SpamAggregates.merge_all(
        SpamAggregates.from_flows(part) for part in interleaved
    )
    _assert_same_aggregate(merged, whole)
    _assert_same(merged.flagged(SPAM), spammers, "spam merge_all")
    running = SpamAggregates.empty()
    for day in days:
        running = SpamAggregates.merge_all(
            [running, SpamAggregates.from_flows(day)]
        )
    _assert_same_aggregate(running, whole)
    _assert_same(running.flagged(SPAM), spammers, "spam day fold")

    # TRW: batch, chunked, and the sequential reference walk.
    trw = TRWDetector()
    walkers = trw.detect(flows)
    assert walkers.dtype == np.uint32, "trw detect"
    _assert_same(trw.detect_chunked(chunks), walkers, "trw chunked")
    reference = sorted(
        source
        for source, state in trw.walk_reference(flows).items()
        if state.verdict == "scanner"
    )
    assert walkers.tolist() == reference, "trw reference"
    return scanners, spammers, walkers


@settings(max_examples=150, deadline=None)
@given(cases())
def test_every_detection_mode_agrees(case):
    _check_every_mode(*case)


def test_every_mode_agrees_on_a_flagging_log():
    """The same checks on a log where every detector flags someone:
    across midnight, source 1 sends unanswered SYNs to ten destinations
    and source 2 delivers twelve equal-size mails."""
    n = 24
    start = (_FIRST_DAY + 1) * _DAY - 6.0 + np.arange(n, dtype=np.float64)
    smtp = np.arange(n) % 2 == 1
    flows = _log(
        sources=np.where(smtp, 2, 1),
        dsts=1000 + np.arange(n) // 2 % 10,
        smtp=smtp,
        acked=smtp,
        start=start,
        octets=np.full(n, 600),
        tcp=np.ones(n, dtype=bool),
    )
    cuts = [0, 5, 5, 11, 17]  # an empty chunk, cuts before and after midnight
    labels = np.arange(n) % 3
    scanners, spammers, walkers = _check_every_mode(flows, cuts, labels)
    assert scanners.tolist() == [1]
    assert spammers.tolist() == [2]
    assert walkers.tolist() == [1]
