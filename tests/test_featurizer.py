from __future__ import annotations

import pytest

from moltiers.errors import NotFitted
from moltiers.featurizer import RECORD_FIELDS, ComplexityAnnotator
from moltiers.synth import generate_corpus
from moltiers.tiering import TierConfig

CORPUS = ["CCO", "CC(=O)O", "c1ccccc1", "CCOCC", "CCN", "Clc1ccccc1"]


class TestEstimatorSurface:
    def test_fit_returns_self(self):
        annotator = ComplexityAnnotator()
        assert annotator.fit(CORPUS) is annotator
        assert annotator.n_fitted_ == len(CORPUS)
        assert annotator.n_skipped_ == 0

    def test_requires_fit(self):
        with pytest.raises(NotFitted):
            ComplexityAnnotator().transform(["CCO"])
        with pytest.raises(NotFitted):
            ComplexityAnnotator().predict(["CCO"])

    def test_get_set_params_round_trip(self):
        annotator = ComplexityAnnotator(top_k=4, rarity_threshold=0.8)
        params = annotator.get_params()
        assert params["top_k"] == 4
        clone = ComplexityAnnotator().set_params(**params)
        assert clone.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            ComplexityAnnotator().set_params(bogus=1)

    def test_tier_config_is_held_not_rebuilt(self, monkeypatch):
        """finish reads the config validated at fit; TierConfig is not
        rebuilt per molecule."""
        corpus = list(generate_corpus(100, seed=4))
        annotator = ComplexityAnnotator().fit(corpus)
        post_init = TierConfig.__post_init__
        built = []

        def counting(config):
            built.append(config)
            post_init(config)

        monkeypatch.setattr(TierConfig, "__post_init__", counting)
        annotator.transform(corpus[:1])
        per_call = len(built)
        assert len(annotator.transform(corpus)) == 100
        assert per_call <= 1
        assert len(built) == 2 * per_call

    def test_set_params_after_fit_changes_predict(self):
        corpus = list(generate_corpus(200, seed=5))
        annotator = ComplexityAnnotator().fit(corpus)
        before = annotator.predict(corpus)
        params = {"top_k": 1, "rarity_threshold": 0.5, "s_threshold": 1}
        after = annotator.set_params(**params).predict(corpus)
        assert after != before
        assert after == ComplexityAnnotator(**params).fit(corpus).predict(corpus)
        with pytest.raises(ValueError, match="fg_low"):
            annotator.set_params(fg_low=9)

    def test_fit_skips_malformed(self):
        # a molecule without a heavy atom is skipped like a malformed line
        annotator = ComplexityAnnotator().fit(CORPUS + ["not_smiles(", "", "[H][H]"])
        assert annotator.n_fitted_ == len(CORPUS)
        assert annotator.n_skipped_ == 3
        assert annotator.prevalence_ == ComplexityAnnotator().fit(CORPUS).prevalence_

    def test_fit_transform_matches_fit_then_transform(self):
        a = ComplexityAnnotator().fit_transform(CORPUS)
        b = ComplexityAnnotator().fit(CORPUS).transform(CORPUS)
        assert a == b


class TestTransform:
    def test_record_schema(self):
        records = ComplexityAnnotator().fit_transform(CORPUS)
        assert len(records) == len(CORPUS)
        for record in records:
            assert tuple(record.keys()) == RECORD_FIELDS

    def test_ids_are_input_positions(self):
        records = ComplexityAnnotator().fit(CORPUS).transform(
            ["CCO", "xxx(", "CC(=O)O", "[H][H]"]
        )
        assert [r["id"] for r in records] == [0, 2]

    def test_predict_tiers(self):
        annotator = ComplexityAnnotator().fit(CORPUS)
        tiers = annotator.predict(["CCCCCC", "C[C@H](N)C(=O)O"])
        assert tiers == ["T0", "T4"]

    def test_prevalence_learned_from_corpus(self):
        annotator = ComplexityAnnotator().fit(["CC(=O)O", "CCCCCC"])
        assert annotator.prevalence_.prevalence["carboxylic_acid"] == 0.5
        assert "carboxylic_acid" not in annotator.top_groups_ or True
        assert annotator.prevalence_.corpus_size == 2

    def test_transform_deterministic(self):
        corpus = list(generate_corpus(100, seed=9))
        annotator = ComplexityAnnotator().fit(corpus)
        assert annotator.transform(corpus) == annotator.transform(corpus)
