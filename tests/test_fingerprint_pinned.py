"""Pinned fingerprints and artifact checksums of the default worlds.

These constants are the bit-identity contract of the AS-substrate
refactor: every new config knob is a fingerprint *addendum* (omitted
from the canonical form at its default) and every new random draw is
gated on a non-default value, so the default and small worlds — their
cache keys AND their simulated artifacts — are byte-for-byte what they
were before the refactor.  If one of these assertions fails, a change
has silently invalidated every pre-existing artifact cache; either gate
the new behaviour properly or (last resort) bump STORE_FORMAT_VERSION
and re-pin with a written justification here.
"""

import hashlib

import numpy as np

from repro.core.scenario import ScenarioConfig
from repro.engine.store import STORE_FORMAT_VERSION
from repro.scenarios import get_pack
from repro.sim.timeline import PAPER_WINDOWS
from repro.stream import StreamConfig
from repro.stream.checkpoint import stream_fingerprint

#: The paper-scale default config, pinned before the AS refactor.
DEFAULT_FINGERPRINT = "21f6941dea4a3dc3c4d479fef99ac558"

#: ScenarioConfig.small(), pinned before the AS refactor.
SMALL_FINGERPRINT = "f9262b582a13ca3d4a188a4c9e4b28d0"

#: sha256 over the small scenario's reports (sorted tags, raw address
#: bytes) — proves the *simulated data*, not just the cache key, is
#: unchanged.
SMALL_REPORTS_CHECKSUM = (
    "ad1f234d830248662e3644a3ff92e6269a8c508c4f2b9bf03d61ece87da1c66b"
)

#: The default stream config over the default world: the namespace of
#: its day checkpoints.  It embeds the §7 class weights, so moving where
#: those are defined must not change their value or order.
DEFAULT_STREAM_FINGERPRINT = "914cd7e273e3df8a295d64edd35bef57"


def test_default_fingerprint_pinned():
    assert ScenarioConfig().fingerprint() == DEFAULT_FINGERPRINT


def test_small_fingerprint_pinned():
    assert ScenarioConfig.small().fingerprint() == SMALL_FINGERPRINT


def test_default_stream_fingerprint_pinned():
    config = StreamConfig(window=PAPER_WINDOWS.OCTOBER)
    assert (
        stream_fingerprint(config, ScenarioConfig().fingerprint())
        == DEFAULT_STREAM_FINGERPRINT
    )


def test_small_reports_checksum_pinned(small_scenario):
    digest = hashlib.sha256()
    for tag in sorted(small_scenario.reports):
        addresses = small_scenario.reports[tag].addresses
        digest.update(tag.encode())
        digest.update(np.ascontiguousarray(addresses).tobytes())
    assert digest.hexdigest() == SMALL_REPORTS_CHECKSUM


def test_paper_default_pack_is_the_default_world():
    # The identity pack must not re-key the default world's cache.
    assert get_pack("paper-default").build().fingerprint() == DEFAULT_FINGERPRINT
    assert (
        get_pack("paper-default").build(small=True).fingerprint()
        == SMALL_FINGERPRINT
    )


def test_store_format_version_unchanged():
    # The AS refactor adds no codec or layout changes; existing caches
    # must stay readable.  Bump only with a layout change that cannot be
    # expressed as a fingerprint addendum, and re-pin the constants
    # above when you do.
    assert STORE_FORMAT_VERSION == 3


def test_addendum_fields_omitted_at_default():
    # The mechanism behind the pins: a config differing from the default
    # only in addendum fields *at their defaults* fingerprints the same.
    from dataclasses import replace

    config = ScenarioConfig()
    same = replace(config, bot_feed_dark_from_day=-1, bot_feed_stale_days=0)
    assert same.fingerprint() == DEFAULT_FINGERPRINT
    changed = replace(config, bot_feed_dark_from_day=280, bot_feed_stale_days=5)
    assert changed.fingerprint() != DEFAULT_FINGERPRINT
