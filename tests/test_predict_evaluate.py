"""Predictor-generic evaluation: legacy equivalence, shared nulls,
worker invariance, codec roundtrips, and the facade's evaluation cache.
"""

import numpy as np
import pytest

from repro import api
from repro.core.blocking import blocking_test
from repro.core.prediction import prediction_test
from repro.predict import (
    compare_predictors,
    evaluate_predictor,
    make_predictor,
)
from repro.predict.evaluate import EvaluationCodec


SUBSETS = 40


def _rng(scenario):
    return np.random.default_rng(scenario.config.seed ^ 0xC1D)


@pytest.fixture
def fitted_uncleanliness(small_scenario):
    return make_predictor("uncleanliness").fit(
        {"bot-test": small_scenario.report("bot-test")}
    )


class TestLegacyEquivalence:
    def test_prediction_matches_legacy_exactly(
        self, small_scenario, fitted_uncleanliness
    ):
        """The adapted paper model through evaluate_predictor reproduces
        the legacy §5 numbers bit-for-bit — observed intersections,
        exceedance fractions, control summaries, and labels."""
        evaluation = evaluate_predictor(
            fitted_uncleanliness,
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            subsets=SUBSETS,
        )
        legacy = prediction_test(
            small_scenario.report("bot-test"),
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            subsets=SUBSETS,
        )
        assert evaluation.prediction.observed == legacy.observed
        assert evaluation.prediction.exceedance == legacy.exceedance
        assert evaluation.prediction.past_tag == legacy.past_tag
        assert evaluation.prediction.present_tag == legacy.present_tag
        for n in legacy.control:
            assert evaluation.prediction.control[n] == legacy.control[n]

    def test_blocking_matches_scenario_table3(
        self, small_scenario, fitted_uncleanliness
    ):
        evaluation = evaluate_predictor(
            fitted_uncleanliness,
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            partition=small_scenario.partition,
            subsets=SUBSETS,
        )
        expected = blocking_test(
            small_scenario.partition, small_scenario.report("bot-test")
        )
        assert evaluation.blocking.table3() == expected.table3()

    def test_roc_present_and_sane(self, small_scenario, fitted_uncleanliness):
        evaluation = evaluate_predictor(
            fitted_uncleanliness,
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            partition=small_scenario.partition,
            subsets=SUBSETS,
        )
        auc = evaluation.roc_auc()
        assert auc is not None
        assert 0.5 < auc <= 1.0  # better than coin-flip on its own feed


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self, small_scenario):
        models = [
            make_predictor(name).fit(
                {"bot-test": small_scenario.report("bot-test")}
            )
            for name in ("uncleanliness", "recommender", "graphcluster")
        ]
        return compare_predictors(
            models,
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            partition=small_scenario.partition,
            subsets=SUBSETS,
        )

    def test_all_models_evaluated(self, comparison):
        assert comparison.names() == [
            "uncleanliness", "recommender", "graphcluster",
        ]
        for evaluation in comparison.evaluations:
            assert evaluation.roc_auc() is not None
            assert evaluation.blocking is not None

    def test_uncleanliness_row_equals_standalone(
        self, small_scenario, comparison, fitted_uncleanliness
    ):
        """The shared Monte-Carlo null changes nothing: the baseline's
        row in a comparison equals its standalone evaluation."""
        standalone = evaluate_predictor(
            fitted_uncleanliness,
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            partition=small_scenario.partition,
            subsets=SUBSETS,
        )
        row = comparison.evaluation("uncleanliness")
        assert row.prediction.observed == standalone.prediction.observed
        assert row.prediction.exceedance == standalone.prediction.exceedance
        assert row.blocking.table3() == standalone.blocking.table3()
        assert row.roc_auc() == standalone.roc_auc()

    def test_models_genuinely_differ(self, comparison):
        prints = {ev.predictor_fingerprint for ev in comparison.evaluations}
        assert len(prints) == 3
        aucs = [ev.roc_auc() for ev in comparison.evaluations]
        assert len(set(aucs)) > 1  # rivals do not collapse to one curve

    def test_manifest_carries_fingerprints(self, comparison):
        manifest = comparison.manifest()
        assert [p["name"] for p in manifest["predictors"]] == (
            comparison.names()
        )
        for entry in manifest["predictors"]:
            assert len(entry["fingerprint"]) == 32
            assert entry["roc_auc"] is not None

    def test_rejects_unfitted_and_duplicate_models(self, small_scenario):
        with pytest.raises(ValueError, match="fitted"):
            compare_predictors(
                [make_predictor("uncleanliness")],
                small_scenario.report("bot"),
                small_scenario.report("control"),
                _rng(small_scenario),
                subsets=SUBSETS,
            )
        fitted = make_predictor("uncleanliness").fit(
            {"bot-test": small_scenario.report("bot-test")}
        )
        with pytest.raises(ValueError, match="duplicate"):
            compare_predictors(
                [fitted, fitted],
                small_scenario.report("bot"),
                small_scenario.report("control"),
                _rng(small_scenario),
                subsets=SUBSETS,
            )


class TestEvaluationCodec:
    def test_roundtrip(self, small_scenario, fitted_uncleanliness):
        evaluation = evaluate_predictor(
            fitted_uncleanliness,
            small_scenario.report("bot"),
            small_scenario.report("control"),
            _rng(small_scenario),
            partition=small_scenario.partition,
            subsets=SUBSETS,
        )
        codec = EvaluationCodec()
        arrays, meta = codec.to_payload(evaluation)
        decoded = codec.from_payload(arrays, meta)
        assert decoded.predictor_name == evaluation.predictor_name
        assert decoded.predictor_fingerprint == (
            evaluation.predictor_fingerprint
        )
        assert decoded.prediction.observed == evaluation.prediction.observed
        assert decoded.prediction.exceedance == (
            evaluation.prediction.exceedance
        )
        for n in evaluation.prediction.control:
            assert decoded.prediction.control[n] == (
                evaluation.prediction.control[n]
            )
        assert decoded.blocking.table3() == evaluation.blocking.table3()
        assert decoded.roc_auc() == evaluation.roc_auc()


class TestFacadeCache:
    def test_two_predictors_never_collide(self, small_scenario):
        """Fingerprint-keyed caching: rival models over one scenario get
        distinct entries even with identical scenario and knobs."""
        run = api.run_scenario(small=True)
        baseline = api.evaluate(
            run, "uncleanliness", subsets=SUBSETS
        )
        rival = api.evaluate(run, "recommender", subsets=SUBSETS)
        assert baseline is not rival
        assert baseline.observed != rival.observed
        # Re-asking returns each model's own cached result.
        assert api.evaluate(run, "uncleanliness", subsets=SUBSETS) is baseline
        assert api.evaluate(run, "recommender", subsets=SUBSETS) is rival

    def test_params_split_cache_entries(self, small_scenario):
        run = api.run_scenario(small=True)
        defaults = api.evaluate(run, "graphcluster", subsets=SUBSETS)
        tuned = api.evaluate(
            run, "graphcluster", params={"merge_gap": 4}, subsets=SUBSETS
        )
        assert defaults is not tuned

    def test_live_rng_bypasses_cache(self, small_scenario):
        run = api.run_scenario(small=True)
        first = api.evaluate(
            run, subsets=SUBSETS, rng=np.random.default_rng(7)
        )
        second = api.evaluate(
            run, subsets=SUBSETS, rng=np.random.default_rng(7)
        )
        assert first is not second
        assert first.observed == second.observed  # same stream, same result

    def test_metric_all_persists_to_store(self, small_scenario):
        from repro.engine.store import default_store

        run = api.run_scenario(small=True)
        evaluation = api.evaluate(
            run, metric="all", subsets=SUBSETS, seed=424242
        )
        api.clear_scenario_cache()  # drop the in-memory evaluation cache
        again = api.evaluate(
            api.run_scenario(small=True), metric="all", subsets=SUBSETS,
            seed=424242,
        )
        assert again.prediction.observed == evaluation.prediction.observed
        assert again.roc_auc() == evaluation.roc_auc()

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            api.evaluate(metric="nonsense")

    def test_compare_defaults_to_registry(self, small_scenario):
        run = api.run_scenario(small=True)
        result = api.compare(run, subsets=SUBSETS)
        assert result.names() == [
            "uncleanliness", "recommender", "graphcluster",
        ]
        assert api.compare(run, subsets=SUBSETS) is result  # cached

    def test_compare_params_for_unknown_model_rejected(self, small_scenario):
        run = api.run_scenario(small=True)
        with pytest.raises(ValueError, match="not in the comparison"):
            api.compare(
                run,
                ["uncleanliness"],
                params={"recommender": {"blend": 0.2}},
                subsets=SUBSETS,
            )
