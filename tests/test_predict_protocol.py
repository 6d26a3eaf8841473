"""Protocol conformance of every registered predictor.

One parametrized suite over the registry: determinism, fingerprint
stability, ranking/score consistency, fitted-state discipline.  A model
added to the registry later is covered here automatically.
"""

import numpy as np
import pytest

from repro.core.uncleanliness import BlockScores
from repro.predict import (
    BasePredictor,
    NotFittedError,
    Predictor,
    list_predictors,
    make_predictor,
    register_predictor,
)
from repro.predict.registry import _REGISTRY, DEFAULT_PREDICTORS


def _training(scenario):
    return {
        "bot-test": scenario.report("bot-test"),
        "spam": scenario.report("spam"),
    }


@pytest.fixture(params=sorted(list_predictors()))
def model_name(request):
    return request.param


@pytest.fixture
def fitted(model_name, small_scenario):
    return make_predictor(model_name).fit(_training(small_scenario))


class TestRegistry:
    def test_builtins_registered(self):
        assert set(DEFAULT_PREDICTORS) <= set(list_predictors())
        assert list_predictors() == sorted(list_predictors())

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="uncleanliness"):
            make_predictor("no-such-model")

    def test_constructor_params_forwarded(self):
        model = make_predictor("graphcluster", tau=2.0, merge_gap=3)
        assert model.tau == 2.0
        assert model.merge_gap == 3

    def test_reregistration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_predictor(
                "uncleanliness", lambda **kw: make_predictor("uncleanliness")
            )

    def test_registration_roundtrip(self):
        name = "test-only-model"
        register_predictor(name, lambda **kw: make_predictor("graphcluster"))
        try:
            assert name in list_predictors()
            assert isinstance(make_predictor(name), BasePredictor)
        finally:
            _REGISTRY.pop(name, None)


class TestConformance:
    def test_satisfies_protocol(self, fitted):
        assert isinstance(fitted, Predictor)
        assert isinstance(fitted.name, str) and fitted.name

    def test_unfitted_raises(self, model_name):
        model = make_predictor(model_name)
        assert not model.fitted
        with pytest.raises(NotFittedError):
            model.score_blocks(24)
        with pytest.raises(NotFittedError):
            model.rank()

    def test_unfitted_fingerprint_differs_from_fitted(
        self, model_name, small_scenario
    ):
        model = make_predictor(model_name)
        unfitted = model.fingerprint()
        fitted = model.fit(_training(small_scenario)).fingerprint()
        assert unfitted != fitted

    def test_fit_returns_self_and_sets_state(self, model_name, small_scenario):
        model = make_predictor(model_name)
        assert model.fit(_training(small_scenario)) is model
        assert model.fitted
        assert set(model.training) == {"bot-test", "spam"}
        assert model.training_cardinality == len(
            np.union1d(
                small_scenario.report("bot-test").addresses,
                small_scenario.report("spam").addresses,
            )
        )

    def test_fit_rejects_empty_and_non_reports(self, model_name):
        model = make_predictor(model_name)
        with pytest.raises(ValueError):
            model.fit({})
        with pytest.raises(TypeError):
            model.fit({"x": np.arange(4, dtype=np.uint32)})

    def test_ranking_shape(self, fitted):
        for prefix_len in (16, 24, 32):
            ranking = fitted.score_blocks(prefix_len)
            assert isinstance(ranking, BlockScores)
            assert ranking.prefix_len == prefix_len
            assert ranking.blocks.dtype == np.uint32
            assert (np.diff(ranking.blocks.astype(np.int64)) > 0).all()
            assert (ranking.scores >= 0.0).all()
            assert (ranking.scores <= 1.0).all()

    def test_invalid_prefix_rejected(self, fitted):
        with pytest.raises(ValueError):
            fitted.score_blocks(33)
        with pytest.raises(ValueError):
            fitted.score_blocks(-1)

    def test_deterministic_across_instances(self, model_name, small_scenario):
        first = make_predictor(model_name).fit(_training(small_scenario))
        second = make_predictor(model_name).fit(_training(small_scenario))
        for prefix_len in (20, 24, 28):
            a = first.score_blocks(prefix_len)
            b = second.score_blocks(prefix_len)
            np.testing.assert_array_equal(a.blocks, b.blocks)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_fit_order_irrelevant(self, model_name, small_scenario):
        training = _training(small_scenario)
        reversed_training = dict(reversed(list(training.items())))
        a = make_predictor(model_name).fit(training).score_blocks(24)
        b = make_predictor(model_name).fit(reversed_training).score_blocks(24)
        np.testing.assert_array_equal(a.blocks, b.blocks)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_fingerprint_stable_and_refit_invariant(
        self, model_name, small_scenario
    ):
        training = _training(small_scenario)
        model = make_predictor(model_name).fit(training)
        fp = model.fingerprint()
        assert fp == model.fingerprint()
        assert fp == make_predictor(model_name).fit(training).fingerprint()

    def test_fingerprint_tracks_training(self, model_name, small_scenario):
        base = make_predictor(model_name).fit(_training(small_scenario))
        other = make_predictor(model_name).fit(
            {"bot-test": small_scenario.report("bot-test")}
        )
        assert base.fingerprint() != other.fingerprint()

    def test_fingerprints_distinct_across_models(self, small_scenario):
        training = _training(small_scenario)
        prints = {
            name: make_predictor(name).fit(training).fingerprint()
            for name in list_predictors()
        }
        assert len(set(prints.values())) == len(prints)

    def test_rank_consistent_with_scores(self, fitted):
        ranking = fitted.score_blocks(24)
        ranked = fitted.rank(24)
        np.testing.assert_array_equal(ranked, ranking.ranked_blocks())
        scores = ranking.scores_of(ranked)
        assert (np.diff(scores) <= 1e-12).all()  # descending by score
        top3 = fitted.rank(24, count=3)
        np.testing.assert_array_equal(top3, ranked[:3])

    def test_refit_clears_ranking_cache(self, model_name, small_scenario):
        model = make_predictor(model_name).fit(_training(small_scenario))
        before = model.score_blocks(24)
        model.fit({"spam": small_scenario.report("spam")})
        after = model.score_blocks(24)
        assert not (
            before.blocks.shape == after.blocks.shape
            and (before.blocks == after.blocks).all()
            and (before.scores == after.scores).all()
        )


class TestBlockRanking:
    """The score table a predictor ranks by: validation, lookups and
    the total ranking order."""

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BlockScores(
                prefix_len=24,
                class_counts={},
                blocks=np.array([512, 256], dtype=np.uint32),
                scores=np.array([0.5, 0.5]),
            )

    def test_rejects_misaligned_arrays(self):
        with pytest.raises(ValueError):
            BlockScores(
                prefix_len=24,
                class_counts={},
                blocks=np.array([256], dtype=np.uint32),
                scores=np.array([0.5, 0.1]),
            )

    def test_lookup_defaults_to_zero(self):
        ranking = BlockScores(
            prefix_len=24,
            class_counts={},
            blocks=np.array([0x0A000000], dtype=np.uint32),
            scores=np.array([0.7]),
        )
        assert ranking.score_of("10.0.0.99") == 0.7
        assert ranking.score_of("11.0.0.1") == 0.0
        looked = ranking.scores_of(
            np.array([0x0A000001, 0x0B000001], dtype=np.uint32)
        )
        np.testing.assert_allclose(looked, [0.7, 0.0])

    def test_total_order_breaks_ties_by_block(self):
        ranking = BlockScores(
            prefix_len=24,
            class_counts={},
            blocks=np.array([256, 512, 768], dtype=np.uint32),
            scores=np.array([0.5, 0.9, 0.5]),
        )
        np.testing.assert_array_equal(
            ranking.ranked_blocks(), [512, 256, 768]
        )

    def test_blocklist_threshold_inclusive(self):
        ranking = BlockScores(
            prefix_len=24,
            class_counts={},
            blocks=np.array([256, 512], dtype=np.uint32),
            scores=np.array([0.5, 0.4]),
        )
        assert [str(b) for b in ranking.blocklist(0.5)] == ["0.0.1.0/24"]
