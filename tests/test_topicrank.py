import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_ranker_rows, _features
from kbmine import topicrank
from kbmine.corpus import Document
from kbmine.nertag import Mention
from kbmine.topicrank import (
    CandidateStore,
    GbdtConfig,
    GbdtModel,
    auc,
    compute_features,
    normalize_key,
    rerank_and_filter,
    score_topic,
    shortlist,
    train_gbdt,
)


def mention(surface, etype="product", from_title=False):
    return Mention(
        surface=surface,
        entity_type=etype,
        from_title=from_title,
    )


def doc(doc_id="d1"):
    return Document(doc_id, "T", "B", "u1", 0)


class TestNormalizeKey:
    def test_fold_and_strip(self):
        assert normalize_key("  Topic Cards. ") == "topic cards"

    def test_casefold(self):
        assert normalize_key("NLP") == "nlp"

    def test_pure_punctuation_rejected(self):
        with pytest.raises(ValueError):
            normalize_key("...")

    def test_idempotent(self):
        for s in ["  Topic Cards. ", "NLP", "state-of-the-art", "A  B   C"]:
            assert normalize_key(normalize_key(s)) == normalize_key(s)


class TestAccumulate:
    def test_counts_one_doc(self):
        store = CandidateStore()
        ms = [
            mention("Contoso", from_title=True),
            mention("Contoso"),
            mention("contoso"),
        ]
        store.accumulate(ms, doc())
        c = store.candidates["contoso||product"]
        assert (c.ner_frequency, c.document_frequency, c.title_frequency) == (3, 1, 1)

    def test_idempotent_per_doc(self):
        store = CandidateStore()
        store.accumulate([mention("Contoso")], doc())
        store.accumulate([mention("Contoso")], doc())
        assert store.candidates["contoso||product"].ner_frequency == 1

    def test_order_independent(self):
        d1, d2 = doc("d1"), doc("d2")
        m1 = [mention("Contoso"), mention("Fabrikam")]
        m2 = [mention("Contoso")]
        a, b = CandidateStore(), CandidateStore()
        a.accumulate(m1, d1)
        a.accumulate(m2, d2)
        b.accumulate(m2, d2)
        b.accumulate(m1, d1)
        assert a.snapshot() == b.snapshot()

    def test_type_qualified_keys(self):
        store = CandidateStore()
        store.accumulate(
            [mention("Amazon", "organization"), mention("Amazon", "location")], doc()
        )
        assert set(store.candidates) == {"amazon||organization", "amazon||location"}

    def test_counter_invariants_hold(self):
        rng = np.random.default_rng(0)
        store = CandidateStore()
        surfaces = ["Alpha", "Beta", "Gamma"]
        for i in range(20):
            ms = [
                mention(surfaces[int(rng.integers(3))], from_title=bool(rng.integers(2)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            store.accumulate(ms, doc(f"d{i}"))
            for c in store.candidates.values():
                assert c.ner_frequency >= c.document_frequency >= 1
                assert c.title_frequency <= c.ner_frequency

    def test_remove_doc_restores_state(self):
        store = CandidateStore()
        store.accumulate([mention("Contoso")], doc("d1"))
        before = store.snapshot()
        store.accumulate(
            [mention("Contoso"), mention("Other")], doc("d2")
        )
        store.remove_doc("d2")
        assert store.snapshot() == before

    def test_empty_surface_mention_rejected_silently(self):
        store = CandidateStore()
        store.accumulate([mention("...")], doc())
        assert store.candidates == {}


class TestShortlist:
    def build(self, freqs):
        store = CandidateStore()
        for i, (name, freq) in enumerate(freqs):
            ms = [mention(name) for _ in range(freq)]
            store.accumulate(ms, doc(f"d{i}"))
        return store

    def test_top_n_by_frequency(self):
        store = self.build([("alpha", 5), ("beta", 2), ("gamma", 9)])
        assert shortlist(store, 2) == ["gamma||product", "alpha||product"]

    def test_n_larger_than_store(self):
        store = self.build([("alpha", 1)])
        assert shortlist(store, 10) == ["alpha||product"]

    def test_tie_broken_lexicographically(self):
        store = self.build([("zeta", 4), ("alpha", 4)])
        assert shortlist(store, 2) == ["alpha||product", "zeta||product"]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            shortlist(CandidateStore(), 0)


class TestComputeFeatures:
    def test_hand_ratios(self):
        f = _features(10, 5, 2)
        assert (f.ner_per_doc, f.title_per_doc, f.title_per_ner) == (2.0, 0.4, 0.2)

    def test_degenerate_single(self):
        f = _features(1, 1, 0)
        assert (f.ner_per_doc, f.title_per_doc, f.title_per_ner) == (1.0, 0.0, 0.0)

    def test_company_signature_low_ratio(self):
        f = _features(1000, 1000, 0)
        assert f.ner_per_doc == 1.0

    def test_from_candidate(self):
        store = CandidateStore()
        store.accumulate([mention("X"), mention("X", from_title=True)], doc())
        f = compute_features(store.candidates["x||product"])
        assert f.ner_freq == 2 and f.doc_freq == 1 and f.title_freq == 1


class TestGbdt:
    def test_separable_fixture_auc(self):
        rows = make_ranker_rows(200, seed=1)
        model = train_gbdt(rows, GbdtConfig(num_trees=50))
        scores = [score_topic(model, f) for f, _ in rows]
        labels = [y for _, y in rows]
        assert auc(scores, labels) >= 0.95

    def test_zero_trees_predicts_prior(self):
        rows = make_ranker_rows(100, seed=2)
        model = train_gbdt(rows, GbdtConfig(num_trees=0))
        prior = np.mean([y for _, y in rows])
        for f, _ in rows[:10]:
            assert abs(score_topic(model, f) - prior) < 1e-12

    def test_deterministic(self):
        rows = make_ranker_rows(100, seed=3)
        m1 = train_gbdt(rows, GbdtConfig(num_trees=10, seed=5))
        m2 = train_gbdt(rows, GbdtConfig(num_trees=10, seed=5))
        assert m1.trees == m2.trees

    def test_single_class_rejected(self):
        rows = [(f, 1) for f, _ in make_ranker_rows(20, seed=4)]
        with pytest.raises(ValueError):
            train_gbdt(rows)

    def test_scores_in_unit_interval(self):
        rows = make_ranker_rows(100, seed=6)
        model = train_gbdt(rows, GbdtConfig(num_trees=30))
        for f, _ in rows:
            assert 0.0 <= score_topic(model, f) <= 1.0

    def test_low_ratio_scores_below_high_ratio(self, fixture_ranker):
        low = _features(1000, 1000, 0)
        high = _features(100, 40, 10)
        assert score_topic(fixture_ranker, low) < score_topic(fixture_ranker, high)

    def test_positive_leaf_tree_never_lowers_scores(self):
        rows = make_ranker_rows(60, seed=7)
        model = train_gbdt(rows, GbdtConfig(num_trees=5))
        boosted = GbdtModel(
            trees=model.trees + [{"value": 0.7}],
            learning_rate=model.learning_rate,
            base_score=model.base_score,
        )
        for f, _ in rows:
            assert score_topic(boosted, f) >= score_topic(model, f)

    def test_save_load_round_trip(self, fixture_ranker, tmp_path):
        path = tmp_path / "gbdt.json"
        fixture_ranker.save(path)
        loaded = GbdtModel.load(path)
        for f, _ in make_ranker_rows(20, seed=8):
            assert score_topic(loaded, f) == score_topic(fixture_ranker, f)
        loaded.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"learning_rate": NaN, "base_score": 0.0, "trees": []}', "learning_rate is nan"),
            ('{"learning_rate": 0.1, "base_score": Infinity, "trees": []}', "base_score is inf"),
            ('{"learning_rate": 0.1, "base_score": 0.0, "trees": [{"value": -1e999}]}',
             "value is -inf"),
            ('{"learning_rate": 0.1, "base_score": 0.0, "trees": [{"feature": 0, '
             '"threshold": NaN, "left": {"value": 0}, "right": {"value": 1}}]}',
             "threshold is nan"),
            ('{"learning_rate": 0.1, "base_score": 0.0, "trees": [7]}',
             "record is not a JSON object"),
        ],
        ids=["nan_learning_rate", "infinite_base_score", "infinite_value", "nan_threshold",
             "node_not_an_object"],
    )
    def test_load_rejects_non_finite_numbers(self, tmp_path, text, reason):
        path = tmp_path / "gbdt.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            GbdtModel.load(path)
        assert str(exc.value).startswith(f"ranker model {path}: {reason}")

    def test_deep_tree_is_checked_without_recursion(self):
        leaf = {"value": 0.5}
        tree = leaf
        for _ in range(5_000):  # past the default recursion limit of 1,000
            tree = {"feature": 0, "threshold": 1.0, "left": tree, "right": {"value": 0.0}}
        topicrank._check_node(tree)
        leaf["value"] = "x"
        with pytest.raises(ValueError, match="value is 'x', not a finite number"):
            topicrank._check_node(tree)


class TestRerankAndFilter:
    def build_store(self):
        store = CandidateStore()
        # good topic: 3 mentions/doc over 4 docs; noise: 1 mention/doc over 8 docs
        for i in range(4):
            store.accumulate(
                [mention("Falcon") for _ in range(3)], doc(f"g{i}")
            )
        for i in range(8):
            store.accumulate([mention("Company")], doc(f"n{i}"))
        return store

    def test_permutation_when_unfiltered(self, fixture_ranker):
        store = self.build_store()
        keys = shortlist(store, 10)
        ranked = rerank_and_filter(keys, store, fixture_ranker, None, 0.0)
        assert sorted(ranked.keys()) == sorted(keys)
        scores = [s for _, s in ranked.entries]
        assert scores == sorted(scores, reverse=True)

    def test_noise_topic_filtered(self, fixture_ranker):
        store = self.build_store()
        keys = shortlist(store, 10)
        ranked = rerank_and_filter(keys, store, fixture_ranker, None, 0.5)
        assert "falcon||product" in ranked.keys()
        assert "company||product" not in ranked.keys()

    def test_empty_shortlist(self, fixture_ranker):
        ranked = rerank_and_filter([], CandidateStore(), fixture_ranker)
        assert ranked.entries == []


class TestAuc:
    def test_half_from_pair_enumeration(self):
        # pairs: (0.9 vs 0.8) win, (0.3 vs 0.8) loss -> 0.5
        assert auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        # 3-decimal resolution so the affine transform cannot collapse
        # distinct scores through rounding
        st.lists(
            st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 3)),
            min_size=4,
            max_size=20,
        ),
        st.data(),
    )
    def test_invariant_under_increasing_transform(self, scores, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            return
        transformed = [3.0 * s + 1.0 for s in scores]
        assert abs(auc(scores, labels) - auc(transformed, labels)) < 1e-12
        exp = list(np.exp(np.array(scores) / 5.0))
        assert abs(auc(scores, labels) - auc(exp, labels)) < 1e-12


class TestBaselineComparison:
    def test_gbdt_beats_frequency_baseline(self):
        train = make_ranker_rows(300, seed=10)
        valid = make_ranker_rows(200, seed=11)
        model = train_gbdt(train, GbdtConfig(num_trees=60))
        labels = [y for _, y in valid]
        gbdt_auc = auc([score_topic(model, f) for f, _ in valid], labels)
        baseline_auc = auc([f.ner_freq for f, _ in valid], labels)
        assert gbdt_auc > baseline_auc + 0.1


# one document's mentions: (surface, entity type, from_title); the surfaces
# include case variants, one with the key separator inside it and one that
# normalizes to empty
_mentions = st.lists(
    st.tuples(
        st.sampled_from(["Contoso", "contoso", "Fabrikam", "A||B", "..."]),
        st.sampled_from(["product", "organization"]),
        st.booleans(),
    ),
    max_size=5,
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("accumulate"), st.integers(0, 4), _mentions),
        st.tuples(st.just("remove"), st.integers(0, 4), st.none()),
    ),
    max_size=25,
)


class TestLedgerRebuild:
    @settings(max_examples=100, deadline=None)
    @given(_ops)
    def test_rebuilt_store_matches_incremental_and_fresh(self, ops):
        store = CandidateStore()
        surviving = {}  # doc_id -> the mentions its live contribution came from
        for op, i, spec in ops:
            doc_id = f"d{i}"
            if op == "accumulate":
                ms = [mention(s, t, from_title=f) for s, t, f in spec]
                store.accumulate(ms, doc(doc_id))
                surviving.setdefault(doc_id, ms)
            else:
                assert store.remove_doc(doc_id) == (surviving.pop(doc_id, None) is not None)
        assert CandidateStore.from_ledger(store.ledger).snapshot() == store.snapshot()
        assert store.ledger == {d: topicrank.contribution(ms) for d, ms in surviving.items()}
        fresh = CandidateStore()
        for doc_id, ms in surviving.items():
            fresh.accumulate(ms, doc(doc_id))
        assert fresh.snapshot() == store.snapshot()
        assert sorted(store.ledger) == sorted(surviving)



class TestLabelFile:
    def test_reads_keys_and_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("key,label\n\ncontoso||product,1\na, b||organization, 0\n")
        assert topicrank.load_label_file(path) == {
            "contoso||product": 1,
            "a, b||organization": 0,
        }

    @pytest.mark.parametrize("line", ["x||product,abc", "x||product,2", "x||product,", "1"])
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "labels.csv"
        path.write_text(f"contoso||product,1\n{line}\n")
        with pytest.raises(ValueError) as exc:
            topicrank.load_label_file(path)
        assert str(exc.value) == (
            f"label file {path} line 2: {line!r} is not 'key,label' with label 0 or 1"
        )
