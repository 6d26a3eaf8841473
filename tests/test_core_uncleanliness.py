"""Unit tests for the §7 multidimensional metric (repro.core.uncleanliness)."""

import numpy as np
import pytest

from repro.core.report import Report
from repro.core.uncleanliness import (
    DEFAULT_WEIGHTS,
    BlockScores,
    UncleanlinessScorer,
    block_jaccard,
)
from repro.ipspace.cidr import CIDRBlock


def report(tag, addrs):
    return Report.from_addresses(tag, addrs)


@pytest.fixture
def reports():
    return {
        "bots": report("bot", ["50.0.1.1", "50.0.1.2", "50.0.1.3", "50.0.2.1"]),
        "scanning": report("scan", ["50.0.1.9", "60.0.0.1"]),
        "phishing": report("phish", ["70.0.0.1"]),
    }


class TestScorer:
    def test_scores_in_unit_interval(self, reports):
        scores = UncleanlinessScorer().score(reports)
        assert (scores.scores >= 0).all()
        assert (scores.scores <= 1).all()

    def test_multi_evidence_outranks_single(self, reports):
        scores = UncleanlinessScorer().score(reports)
        # 50.0.1.0/24 has bots AND scanners; 70.0.0.0/24 has one phish.
        assert scores.score_of("50.0.1.77") > scores.score_of("70.0.0.99")

    def test_more_addresses_score_higher(self, reports):
        scores = UncleanlinessScorer().score(reports)
        assert scores.score_of("50.0.1.1") > scores.score_of("50.0.2.1")

    def test_section7_formula(self, reports):
        # 50.0.1.0/24: three bots (weight 1), one scanner (weight 0.8),
        # no phishing — a noisy-OR of saturating 1 - exp(-count / 4).
        scores = UncleanlinessScorer().score(reports)
        expected = 1.0 - np.exp(-3 / 4) * (1.0 - 0.8 * (1.0 - np.exp(-1 / 4)))
        assert scores.score_of("50.0.1.1") == pytest.approx(expected, rel=1e-12)

    def test_unseen_block_scores_zero(self, reports):
        scores = UncleanlinessScorer().score(reports)
        assert scores.score_of("99.99.99.99") == 0.0

    def test_dimensions_of(self, reports):
        scores = UncleanlinessScorer().score(reports)
        dims = scores.dimensions_of("50.0.1.200")
        assert dims["bots"] == 3
        assert dims["scanning"] == 1
        assert dims["phishing"] == 0

    def test_dimensions_of_unseen(self, reports):
        scores = UncleanlinessScorer().score(reports)
        assert set(scores.dimensions_of("99.0.0.1").values()) == {0}

    def test_top_ranked_by_score(self, reports):
        scores = UncleanlinessScorer().score(reports)
        top = scores.top(2)
        assert top[0]["score"] >= top[1]["score"]
        assert top[0]["block"] == "50.0.1.0/24"

    def test_blocklist_threshold(self, reports):
        scores = UncleanlinessScorer().score(reports)
        everything = scores.blocklist(0.0)
        assert len(everything) == len(scores)
        strict = scores.blocklist(scores.score_of("50.0.1.1"))
        assert CIDRBlock.parse("50.0.1.0/24") in strict
        assert len(strict) < len(everything)

    def test_prefix_length_respected(self, reports):
        scores = UncleanlinessScorer(prefix_len=16).score(reports)
        # At /16, 50.0.1.x and 50.0.2.x collapse into one block.
        assert scores.dimensions_of("50.0.9.9")["bots"] == 4

    def test_unknown_class_rejected(self, reports):
        scorer = UncleanlinessScorer(weights={"bots": 1.0})
        with pytest.raises(ValueError):
            scorer.score(reports)

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            UncleanlinessScorer().score({})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            UncleanlinessScorer(weights={"bots": -1.0})

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            UncleanlinessScorer(prefix_len=40)

    def test_zero_weight_class_contributes_nothing(self, reports):
        weights = {"bots": 1.0, "scanning": 0.0, "phishing": 0.0}
        scores = UncleanlinessScorer(weights=weights).score(reports)
        assert scores.score_of("70.0.0.1") == 0.0
        assert scores.score_of("50.0.1.1") > 0.0


class TestFromCounts:
    def test_union_scatter_and_noisy_or(self):
        per_class = {
            "bots": (np.array([10, 30], dtype=np.uint32), np.array([2, 1])),
            "spam": (np.array([20, 30], dtype=np.uint32), np.array([4, 8])),
        }
        scores = BlockScores.from_counts(32, per_class, DEFAULT_WEIGHTS)
        assert scores.blocks.tolist() == [10, 20, 30]
        assert scores.class_counts["bots"].tolist() == [2, 0, 1]
        assert scores.class_counts["spam"].tolist() == [0, 4, 8]
        bots = 1.0 - np.exp(-np.array([2, 0, 1]) / 4.0)
        spam = 1.0 - np.exp(-np.array([0, 4, 8]) / 4.0)
        expected = 1.0 - (1.0 - bots) * (1.0 - 0.8 * spam)
        np.testing.assert_allclose(scores.scores, expected, rtol=1e-12)

    def test_empty_classes_give_empty_table(self):
        empty = (np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int64))
        scores = BlockScores.from_counts(24, {"bots": empty}, DEFAULT_WEIGHTS)
        assert len(scores) == 0
        assert scores.score_of("1.2.3.4") == 0.0

    def test_default_weights_are_read_only(self):
        with pytest.raises(TypeError):
            DEFAULT_WEIGHTS["bots"] = 0.0


class TestBlockJaccard:
    def test_identical_reports(self):
        r = report("r", ["50.0.1.1", "50.0.2.1"])
        assert block_jaccard(r, r, 24) == 1.0

    def test_disjoint_reports(self):
        a = report("a", ["50.0.1.1"])
        b = report("b", ["60.0.1.1"])
        assert block_jaccard(a, b, 24) == 0.0

    def test_partial_overlap(self):
        a = report("a", ["50.0.1.1", "50.0.2.1"])
        b = report("b", ["50.0.1.200", "60.0.0.1"])
        assert block_jaccard(a, b, 24) == pytest.approx(1 / 3)

    def test_empty_reports(self):
        a = report("a", [])
        assert block_jaccard(a, a, 24) == 0.0

    def test_coarser_prefix_cannot_reduce_similarity_of_subsets(self):
        a = report("a", ["50.0.1.1", "50.0.2.1"])
        b = report("b", ["50.0.1.200"])
        assert block_jaccard(a, b, 16) >= block_jaccard(a, b, 24)
