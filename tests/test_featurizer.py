from __future__ import annotations

import copy
import gc
import io
import pickle
import random
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

import moltiers.featurizer as featurizer
import moltiers.smiles as smiles_module
from moltiers.errors import NotFitted
from moltiers.featurizer import RECORD_FIELDS, ComplexityAnnotator, record_to_dict
from moltiers.fgroups import FGLibrary, default_library, top_k_groups
from moltiers.graph import perceive_aromaticity
from moltiers.pipeline import run_annotate
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
        validate = TierConfig._validate
        built = []

        def counting(config):
            built.append(config)
            validate(config)

        monkeypatch.setattr(TierConfig, "_validate", counting)
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
        # the three groups at 0.5, then the ties at 0 broken by name
        assert annotator.top_groups_ == frozenset(
            top_k_groups(annotator.prevalence_, 6))
        assert {"carboxylic_acid", "carbonyl", "hydroxyl"} <= annotator.top_groups_
        assert annotator.prevalence_.corpus_size == 2

    def test_transform_deterministic(self):
        corpus = list(generate_corpus(100, seed=9))
        annotator = ComplexityAnnotator().fit(corpus)
        assert annotator.transform(corpus) == annotator.transform(corpus)


class TestDescribeWork:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every graph constructed.  ``MolecularGraph.__init__`` takes the
        arrays it is handed and sums no valence: only the parser's loop and
        an aromaticity promotion fill them."""
        built = Counter()
        real_init = smiles_module.MolecularGraph.__init__

        def counting(graph, *args, **kwargs):
            built["MolecularGraph"] += 1
            real_init(graph, *args, **kwargs)

        monkeypatch.setattr(smiles_module.MolecularGraph, "__init__", counting)
        return built

    def test_valences_summed_once_per_molecule(self, built):
        # the parse loop sums the valences into the arrays that the valence
        # check, the hydrogen count and every descriptor read: describe
        # builds the parser's graph, and a second one only for a promoted
        # Kekulé ring; the package holds no atom or bond class
        assert not hasattr(smiles_module, "Atom")
        assert not hasattr(smiles_module, "Bond")
        annotator = ComplexityAnnotator()
        organic = 0
        for smiles in generate_corpus(200, seed=3):
            parsed = smiles_module.parse_smiles(smiles)
            promoted = perceive_aromaticity(parsed) is not parsed
            built.clear()
            annotator.describe(smiles)
            assert built == Counter({"MolecularGraph": 1 + promoted}), smiles
            organic += "[" not in smiles
        assert organic > 100

    def test_promoted_ring_sums_its_aromatic_bonds_again(self, built):
        # aromaticity perception gives the Kekulé ring new orders and
        # valence sums in which its aromatic bonds count one where the
        # double bonds counted two, in the one graph the promotion builds
        graph = smiles_module.parse_smiles("C1=CC=CC=C1O")
        written = smiles_module.parse_smiles("c1ccccc1O")
        assert graph.valence == [3, 3, 3, 3, 3, 4, 1]
        perceived = perceive_aromaticity(graph)
        assert perceived.valence == written.valence == [2] * 5 + [3, 1]
        assert perceived.aromatic == written.aromatic
        assert perceived.orders == written.orders
        built.clear()
        core = ComplexityAnnotator().describe("C1=CC=CC=C1O")
        assert built == Counter({"MolecularGraph": 2})
        assert core.counts == ComplexityAnnotator().describe("c1ccccc1O").counts
        assert core == ComplexityAnnotator().describe("c1ccccc1O")


def uncached(annotator: ComplexityAnnotator, smiles: list[str]) -> list[dict]:
    """transform's answer, built from describe and finish with no cache."""
    out = []
    for i, text in enumerate(smiles):
        try:
            core = annotator.describe(text)
        except featurizer.UNANNOTATABLE:
            continue
        out.append(record_to_dict(i, text.strip(), *annotator.finish(core)))
    return out


@pytest.fixture
def described(monkeypatch):
    """The library of each descriptor_core call made by the annotator."""
    calls = []
    real = featurizer.descriptor_core

    def counting(graph, library=None):
        calls.append(library)
        return real(graph, library)

    monkeypatch.setattr(featurizer, "descriptor_core", counting)
    return calls


def cache_size(annotator: ComplexityAnnotator) -> int:
    """Molecules in the annotator's describe cache."""
    cache = getattr(annotator, "_cache", None)
    return 0 if cache is None else cache.cache_info().currsize


class TestDescribeCache:
    def test_each_distinct_molecule_described_once(self, described):
        annotator = ComplexityAnnotator().fit(CORPUS)
        described.clear()
        requests = ["CCO", " CCO\n", "c1ccccc1", "CCO", "c1ccccc1\t", "CCN"]
        records = annotator.transform(requests)
        assert len(described) == 3
        assert [r["smiles"] for r in records] == [s.strip() for s in requests]
        assert annotator.predict(requests) == [r["tier"] for r in records]
        assert annotator.annotate_one(" CCN ")[1].tier == records[-1]["tier"]
        assert len(described) == 3

    def test_equal_group_sets_share_one_object(self):
        annotator = ComplexityAnnotator().fit(CORPUS)
        # describe builds a new set per molecule; the cache keeps one
        assert annotator.describe("CCO").fg_names is not \
            annotator.describe("CCCO").fg_names
        ethanol, _ = annotator.annotate_one("CCO")
        propanol, _ = annotator.annotate_one("CCCO")
        assert ethanol.fg_names and ethanol.fg_names == propanol.fg_names
        assert ethanol.fg_names is propanol.fg_names

    def test_records_equal_uncached_reference(self):
        corpus = list(generate_corpus(150, seed=11))
        requests = corpus + corpus[::3] + [" " + s for s in corpus[::7]]
        annotator = ComplexityAnnotator().fit(corpus)
        assert annotator.transform(requests) == uncached(annotator, requests)
        other = ComplexityAnnotator().fit(generate_corpus(150, seed=12))
        annotator.set_prevalence(other.prevalence_)
        assert annotator.transform(requests) == uncached(annotator, requests)
        annotator.set_params(top_k=3)
        assert annotator.transform(requests) == uncached(annotator, requests)
        assert annotator.predict(requests) == [
            r["tier"] for r in uncached(annotator, requests)
        ]

    def test_library_change_drops_cached_cores(self, described):
        corpus = list(generate_corpus(120, seed=13))
        annotator = ComplexityAnnotator().fit(corpus)
        annotator.transform(corpus)
        small = FGLibrary(default_library().patterns[:15])
        annotator.set_params(library=small)
        described.clear()
        records = annotator.transform(corpus)
        assert len(described) == len(set(corpus))
        assert all(library is small for library in described)
        assert records == uncached(annotator, corpus)
        names = set(small.names())
        assert all(set(r["fg_names"]) <= names for r in records)
        assert any(r["n_fg"] for r in records)

    def test_bound_evicts_least_recently_used(self, monkeypatch, described):
        monkeypatch.setattr(featurizer, "DESCRIBE_CACHE_SIZE", 4)
        annotator = ComplexityAnnotator().fit(CORPUS)
        described.clear()
        first, *rest = CORPUS
        annotator.transform(CORPUS[:4])
        annotator.transform([first])  # first becomes the youngest entry
        annotator.transform(CORPUS[4:])
        assert len(described) == 6
        assert cache_size(annotator) == 4
        # CORPUS[1] and CORPUS[2] were evicted, not the refreshed first
        annotator.transform([CORPUS[3], first, *CORPUS[4:]])
        assert len(described) == 6
        annotator.transform([CORPUS[1]])  # evicts CORPUS[3], now the oldest
        assert len(described) == 7
        annotator.transform([first, *CORPUS[4:], CORPUS[1]])
        assert len(described) == 7
        annotator.transform([CORPUS[3]])
        assert len(described) == 8
        assert cache_size(annotator) == 4

    def test_unannotatable_input_is_skipped_and_not_cached(self, described):
        annotator = ComplexityAnnotator().fit(CORPUS)
        described.clear()
        bad = ["xxx(", "[H][H]", " ", "C1CC"]
        for _ in range(3):
            assert annotator.transform(bad) == []
        assert cache_size(annotator) == 0
        assert len(described) == 3  # only [H][H] parses, each time

    def test_pipeline_leaves_cache_empty(self):
        corpus = list(generate_corpus(60, seed=14))
        annotator = ComplexityAnnotator().fit(corpus)
        run_annotate(enumerate(corpus), annotator, io.StringIO(), workers=1)
        assert cache_size(annotator) == 0

    def test_warm_annotator_pickles_and_deepcopies(self):
        corpus = list(generate_corpus(80, seed=15))
        annotator = ComplexityAnnotator().fit(corpus)
        expected = annotator.transform(corpus)
        for clone in (pickle.loads(pickle.dumps(annotator)), copy.deepcopy(annotator)):
            assert cache_size(clone) == 0
            assert clone.get_params() == annotator.get_params()
            assert clone.transform(corpus) == expected

    def test_transform_leaves_no_cyclic_garbage(self):
        corpus = list(generate_corpus(200, seed=3))
        annotator = ComplexityAnnotator().fit(corpus)
        gc.collect()
        gc.disable()
        try:
            for smiles in corpus:
                annotator.transform([smiles])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_threads_share_a_cache(self, monkeypatch):
        # one-atom molecules describe fast and a bound below the working set
        # evicts often, so threads keep evicting entries that others have
        # just looked up: a lookup in two steps (get, then move_to_end) or
        # an eviction that iterates the cache raises here
        monkeypatch.setattr(featurizer, "DESCRIBE_CACHE_SIZE", 2)
        molecules = ["C", "N", "O"]
        annotator = ComplexityAnnotator().fit(molecules)
        expected = {m: uncached(annotator, [m]) for m in molecules}
        errors: list[BaseException] = []
        wrong: list[str] = []

        def client(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(10000):
                    smiles = rng.choice(molecules)
                    if annotator.transform([smiles]) != expected[smiles]:
                        wrong.append(smiles)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == []
        annotator.transform(molecules[:1])
        assert cache_size(annotator) == 2


def assert_answers_uncached(annotator: ComplexityAnnotator, requests: list[str]):
    """transform, predict and annotate_one equal the cache-free reference."""
    expected = uncached(annotator, requests)
    assert annotator.transform(requests) == expected
    valid = [s for s in requests if s.strip() in {r["smiles"] for r in expected}]
    assert annotator.predict(valid) == [r["tier"] for r in expected]
    for text in valid:
        assert annotator.annotate_one(text) == annotator.finish(annotator.describe(text))


# each changes the fitted state, and with it some answers to REQUESTS
STATE_CHANGES = {
    "set_prevalence": lambda a: a.set_prevalence(
        ComplexityAnnotator().fit(generate_corpus(150, seed=12)).prevalence_),
    "top_k": lambda a: a.set_params(top_k=3),
    "rarity_threshold": lambda a: a.set_params(rarity_threshold=0.5),
    "refit": lambda a: a.fit(generate_corpus(150, seed=16)),
    "library": lambda a: a.set_params(
        library=FGLibrary(default_library().patterns[:15])),
}
FIT_CORPUS = list(generate_corpus(150, seed=11))
REQUESTS = FIT_CORPUS + FIT_CORPUS[::3] + [" " + s for s in FIT_CORPUS[::7]]


@pytest.fixture
def finishes(monkeypatch):
    """The core of each record the annotator finished."""
    calls = []
    real = featurizer.finish_record

    def counting(core, table):
        calls.append(core)
        return real(core, table)

    monkeypatch.setattr(featurizer, "finish_record", counting)
    return calls


class TestFinishedEntries:
    @pytest.mark.parametrize("change", list(STATE_CHANGES))
    def test_answers_follow_the_fitted_state(self, change):
        annotator = ComplexityAnnotator().fit(FIT_CORPUS)
        before = uncached(annotator, REQUESTS)
        assert_answers_uncached(annotator, REQUESTS)
        STATE_CHANGES[change](annotator)
        # the change moves some answers, so a held answer would show
        assert uncached(annotator, REQUESTS) != before
        assert_answers_uncached(annotator, REQUESTS)
        assert_answers_uncached(annotator, REQUESTS)

    def test_each_molecule_finished_once_per_fitted_state(self, finishes):
        annotator = ComplexityAnnotator().fit(FIT_CORPUS)
        distinct = len({s.strip() for s in REQUESTS})
        for _ in range(2):
            annotator.transform(REQUESTS)
            annotator.predict(REQUESTS)
            for text in REQUESTS[:20]:
                annotator.annotate_one(text)
            assert len(finishes) == distinct
        for k, change in enumerate(("set_prevalence", "top_k", "rarity_threshold",
                                    "refit"), 2):
            STATE_CHANGES[change](annotator)
            annotator.predict(REQUESTS)
            annotator.transform(REQUESTS)
            assert len(finishes) == k * distinct
        # set_params with unchanged values is still a new fitted state
        annotator.set_params(top_k=3)
        annotator.transform(REQUESTS[:1])
        assert len(finishes) == 5 * distinct + 1

    def test_mutating_an_answer_changes_no_later_answer(self):
        annotator = ComplexityAnnotator().fit(FIT_CORPUS)
        requests = [s for s in FIT_CORPUS if len(annotator.describe(s).fg_names) > 1]
        expected = uncached(annotator, requests)
        for row in annotator.transform(requests):
            row["fg_names"].append("zz_extra")
            row["fg_names"].sort(reverse=True)
            row["tier"] = "T9"
            row["rarity"] = -1.0
            del row["mw"]
            row["extra"] = 1
            row["id"] = -1
            row["smiles"] = "zz"
        for text in requests:
            record, _ = annotator.annotate_one(text)
            with pytest.raises(AttributeError):
                record.rarity = -1.0
            with pytest.raises(AttributeError):
                record.fg_names = frozenset({"zz_extra"})
        assert annotator.transform(requests) == expected
        assert_answers_uncached(annotator, requests)

    def test_bytes_per_entry_stay_bounded(self):
        # an entry holds its record row and little else: on Python 3.11 a
        # row takes 464 B and an entry ~950 B over these molecules (~910 B
        # over 5,000, as the interned group-name sets spread over more
        # entries), and the DescriptorCore kept beside the row would make
        # it ~1,300 B; the bound counts the row at the interpreter's own
        # dict size, which is larger on 3.10
        molecules = list(dict.fromkeys(generate_corpus(3000, seed=21)))[:2000]
        assert len(molecules) == 2000
        annotator = ComplexityAnnotator().fit(molecules[:200])
        row_bytes = sys.getsizeof(annotator.transform(molecules[:1])[0])
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            annotator.transform(molecules)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        added = cache_size(annotator) - 1
        assert added == len(molecules) - 1
        assert (after - before) / added <= row_bytes + 540

    def test_threads_see_one_whole_state_per_call(self):
        # one thread switches between two tables while eight serve requests:
        # every call answers wholly under one table, never a mix of a held
        # answer and a new one, and once the switching ends, under the last
        molecules = list(dict.fromkeys(generate_corpus(40, seed=17)))
        tables = [ComplexityAnnotator().fit(generate_corpus(150, seed=seed)).prevalence_
                  for seed in (18, 19)]
        annotator = ComplexityAnnotator().fit(molecules)
        references = []
        for table in tables:
            annotator.set_prevalence(table)
            references.append({r["smiles"]: r for r in uncached(annotator, molecules)})
        assert references[0] != references[1]
        stop = threading.Event()
        errors: list[BaseException] = []
        wrong: list[list[str]] = []

        def switcher() -> None:
            k = 0
            while not stop.is_set():
                k += 1
                annotator.set_prevalence(tables[k % 2])

        def client(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    batch = rng.sample(molecules, 4)
                    answer = annotator.transform(batch)
                    if not any(answer == [dict(ref[s], id=i) for i, s in enumerate(batch)]
                               for ref in references):
                        wrong.append(batch)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            switching = threading.Thread(target=switcher)
            switching.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stop.set()
            switching.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*threads, switching])
        assert errors == []
        assert wrong == []
        annotator.set_prevalence(tables[0])
        assert annotator.transform(molecules) == uncached(annotator, molecules)
