import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_rows_tagger,
    brute_force_decode,
    dense_viterbi_decode,
    dense_weights,
    greedy_decode,
    loop_extract_mentions,
    loop_is_valid_sequence,
    make_tagger_training_data,
)
from kbmine import nertag
from kbmine.corpus import Sentence, tokenize
from kbmine.nertag import (
    LabeledSentence,
    LabelSet,
    TrainConfig,
    extract_mentions,
    featurize,
    focal_loss,
    hash_features,
    score_tokens,
    train_tagger,
    viterbi_decode,
)

TWO_TYPES = ("person", "creative_work")


class TestLabelSet:
    def test_default_size(self):
        ls = LabelSet()
        assert len(ls) == 17
        assert len(ls.entity_types) == 8

    def test_round_trip(self):
        ls = LabelSet(TWO_TYPES)
        for i, lab in enumerate(ls.labels):
            assert ls.index(lab) == i

    def test_inside_needs_matching_begin(self):
        ls = LabelSet(TWO_TYPES)
        b_per, i_per = ls.index("B-person"), ls.index("I-person")
        i_wrk = ls.index("I-creative_work")
        assert ls.transition_ok(b_per, i_per)
        assert ls.transition_ok(i_per, i_per)
        assert not ls.transition_ok(b_per, i_wrk)
        assert not ls.transition_ok(ls.index("O"), i_per)
        assert not ls.transition_ok(None, i_per)

    @pytest.mark.parametrize("types", [nertag.DEFAULT_ENTITY_TYPES, TWO_TYPES])
    def test_cached_masks_follow_transition_ok(self, types):
        ls = LabelSet(types)
        assert ls.start_mask == tuple(ls.transition_ok(None, c) for c in range(len(ls)))
        for c in range(len(ls)):
            for p in range(len(ls)):
                assert ls.transition_mask[p, c] == ls.transition_ok(p, c)
        # (c, the labels c may follow) for exactly the labels not every label may follow
        assert ls.allowed_prevs == tuple(
            (c, tuple(p for p in range(len(ls)) if ls.transition_ok(p, c)))
            for c in range(len(ls))
            if not all(ls.transition_ok(p, c) for p in range(len(ls)))
        )
        assert [c for c, _ in ls.allowed_prevs] == [ls.index(f"I-{t}") for t in types]
        with pytest.raises(ValueError):
            ls.transition_mask[0, 0] = ls.transition_mask[0, 0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=8))
    def test_is_valid_sequence_matches_transition_ok(self, seq):
        ls = LabelSet(TWO_TYPES)
        expected = all(ls.transition_ok(p, c) for p, c in zip([None, *seq], seq))
        assert ls.is_valid_sequence(seq) == expected


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        probs = np.array([0.5, 0.3, 0.2])
        loss, _ = focal_loss(probs, 0, 0.0)
        assert abs(loss - (-math.log(0.5))) < 1e-12

    def test_certain_prediction_zero_loss(self):
        loss, grad = focal_loss(np.array([1.0, 0.0]), 0, 1.6)
        assert loss == 0.0
        assert np.all(np.isfinite(grad))

    def test_reference_value(self):
        # (1-0.5)^1.6 * (-ln 0.5) evaluated directly
        expected = (0.5**1.6) * math.log(2.0)
        loss, _ = focal_loss(np.array([0.5, 0.5]), 0, 1.6)
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.22866) < 1e-4

    def test_zero_gold_probability_clamped(self):
        loss, grad = focal_loss(np.array([0.0, 1.0]), 0, 1.6)
        assert np.isfinite(loss) and loss > 0
        assert np.all(np.isfinite(grad))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([0.5, 0.5]), 0, -1.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([0.5, 0.4]), 0, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.6, 2.5])
    def test_gradient_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(42)
        for _ in range(25):
            z = rng.normal(scale=2.0, size=6)
            gold = int(rng.integers(6))

            def loss_of(zv):
                e = np.exp(zv - zv.max())
                return focal_loss(e / e.sum(), gold, gamma)[0]

            e = np.exp(z - z.max())
            _, grad = focal_loss(e / e.sum(), gold, gamma)
            h = 1e-6
            fd = np.zeros_like(z)
            for k in range(6):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd[k] = (loss_of(zp) - loss_of(zm)) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)


class TestFeaturize:
    def test_shape_collapsed(self):
        feats = featurize(0, ["NLP"])
        assert "shape=X" in feats

    def test_first_token_sentinel(self):
        feats = featurize(0, ["Turing", "Test"])
        assert "prev=<s>" in feats

    def test_suffix_feature(self):
        feats = featurize(0, ["Turing"])
        assert "suf3=ing" in feats

    def test_title_flag(self):
        assert "title" in featurize(0, ["Plan"], from_title=True)
        assert "title" not in featurize(0, ["Plan"], from_title=False)


class TestTrainTagger:
    def test_separable_fixture_accuracy(self, fixture_tagger):
        data = make_tagger_training_data()
        correct = total = 0
        for sent in data:
            (scores,) = score_tokens(fixture_tagger, [(sent.tokens, sent.from_title)])
            pred = viterbi_decode(scores, fixture_tagger.labelset)
            for p, gold in zip(pred, sent.labels):
                total += 1
                correct += fixture_tagger.labelset.label(p) == gold
        assert correct / total >= 0.95

    def test_focal_gamma_helps_entity_recall(self):
        # imbalanced fixture: ~1% entity tokens
        data = []
        filler = "the meeting covered routine updates and assorted logistics".split()
        for i in range(40):
            data.append(LabeledSentence(list(filler), ["O"] * len(filler)))
        for name in ("Aster", "Briar"):
            data.append(
                LabeledSentence(
                    ["we", "met", name, "today"], ["O", "O", "B-person", "O"]
                )
            )

        def entity_recall(gamma):
            cfg = TrainConfig(gamma=gamma, epochs=3, learning_rate=0.2, seed=1, hash_dim=1 << 14)
            model = train_tagger(data, cfg)
            hit = total = 0
            for sent in data:
                (scores,) = score_tokens(model, [(sent.tokens, False)])
                pred = viterbi_decode(scores, model.labelset)
                for p, gold in zip(pred, sent.labels):
                    if gold != "O":
                        total += 1
                        hit += model.labelset.label(p) == gold
            return hit / total

        assert entity_recall(1.6) >= entity_recall(0.0)

    def test_same_seed_bit_identical(self):
        data = make_tagger_training_data()[:20]
        cfg = TrainConfig(epochs=2, seed=7, hash_dim=1 << 14)
        m1 = train_tagger(data, cfg)
        m2 = train_tagger(data, cfg)
        assert np.array_equal(m1.rows, m2.rows)
        assert np.array_equal(m1.weights, m2.weights)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_tagger([])

    def test_invalid_gold_rejected(self):
        bad = LabeledSentence(["x"], ["I-person"])
        with pytest.raises(ValueError):
            train_tagger([bad])

    def test_weights_equal_hashed_featurize_reference(self):
        data = make_tagger_training_data()
        data += [LabeledSentence(s.tokens, s.labels, from_title=True) for s in data[:10]]
        cfg = TrainConfig(gamma=1.6, epochs=2, learning_rate=0.5, seed=3, hash_dim=1 << 10)
        labelset = LabelSet()
        examples = [
            (
                hash_features(featurize(i, s.tokens, s.from_title), cfg.hash_dim),
                labelset.index(lab),
            )
            for s in data
            for i, lab in enumerate(s.labels)
        ]
        weights = np.zeros((cfg.hash_dim, len(labelset)))
        rng = np.random.default_rng(cfg.seed)
        order = np.arange(len(examples))
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            for ex in order:
                idx, gold = examples[ex]
                probs = np.exp(nertag._log_softmax(weights[idx].sum(axis=0)))
                _, grad = focal_loss(probs, gold, cfg.gamma)
                weights[idx] -= cfg.learning_rate * grad
        assert dense_weights(train_tagger(data, cfg)).tobytes() == weights.tobytes()


class TestScoreTokens:
    def test_zero_weights_uniform(self):
        model = all_rows_tagger(np.zeros((64, 17)), LabelSet())
        (scores,) = score_tokens(model, [(["a", "b"], False)])
        assert np.allclose(scores, math.log(1 / 17))

    def test_rows_normalize(self, fixture_tagger):
        (scores,) = score_tokens(fixture_tagger, [(["Contoso", "Falcon", "shipped"], False)])
        logsum = np.log(np.exp(scores).sum(axis=1))
        assert np.all(np.abs(logsum) < 1e-6)

    def test_trained_model_argmax(self, fixture_tagger):
        tokens = "the team shipped Contoso Falcon last week".split()
        (scores,) = score_tokens(fixture_tagger, [(tokens, False)])
        lab = fixture_tagger.labelset.label(int(np.argmax(scores[3])))
        assert lab == "B-product"

    @staticmethod
    def reference_scores(dense, tokens, from_title=False):
        """Per-token scores of a dense (hash_dim, n_labels) weight matrix."""
        rows = []
        for i in range(len(tokens)):
            idx = hash_features(featurize(i, tokens, from_title), len(dense))
            rows.append(nertag._log_softmax(dense[idx].sum(axis=0)))
        return np.vstack(rows)

    def test_feature_ids_match_featurize(self):
        """Each token's row numbers below the zero row are its hashed
        featurize ids in ascending order, in one array over a document of
        title and body sentences."""
        model = all_rows_tagger(np.zeros((1 << 16, 17)), LabelSet())
        zero = len(model.weights)
        sentences = [
            (sent.tokens, from_title)
            for sent in make_tagger_training_data()
            for from_title in (False, True)
        ]
        expected = [
            hash_features(featurize(i, tokens, from_title), 1 << 16).tolist()
            for tokens, from_title in sentences
            for i in range(len(tokens))
        ]
        ids = model.feature_ids(sentences)
        assert ids.shape == (len(expected), nertag.FEATURE_WIDTH)
        assert [[r for r in row if r != zero] for row in ids.tolist()] == expected

    @settings(max_examples=200, deadline=None)
    @given(
        hash_dim=st.integers(5, 13),
        n_labels=st.sampled_from([1, 5, 17]),
        seed=st.integers(0, 2**32 - 1),
        tokens=st.lists(
            st.one_of(
                st.sampled_from(
                    ["Contoso", "contoso", "CONTOSO", "<s>", "</s>", "a", "NLP", "x-9"]
                ),
                st.text(alphabet="aAbZ9-</s>", min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=10,
        ),
        from_title=st.booleans(),
    )
    def test_fast_scorer_equals_reference_bitwise(
        self, hash_dim, n_labels, seed, tokens, from_title
    ):
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=rng.uniform(0.01, 100), size=(hash_dim, n_labels))
        model = nertag.TaggerModel.from_dense(weights, LabelSet())
        expected = self.reference_scores(weights, tokens, from_title).tobytes()
        assert score_tokens(model, [(tokens, from_title)])[0].tobytes() == expected
        # the second call reads every id from the memo
        assert score_tokens(model, [(tokens, from_title)])[0].tobytes() == expected

    def test_models_with_different_hash_dim_score_independently(self):
        tokens = "the team shipped Contoso Falcon last week".split()
        rng = np.random.default_rng(0)
        small, large = rng.normal(size=(7, 17)), rng.normal(size=(11, 17))
        models = {len(w): nertag.TaggerModel.from_dense(w, LabelSet()) for w in (small, large)}
        for dense in (small, large, small, large):
            model = models[len(dense)]
            expected = self.reference_scores(dense, tokens)
            assert score_tokens(model, [(tokens, False)])[0].tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        hash_dim=st.integers(5, 13),
        n_labels=st.sampled_from([1, 5, 17]),
        seed=st.integers(0, 2**32 - 1),
        sentences=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(
                        st.sampled_from(["Contoso", "contoso", "Falcon", "a", "NLP", "x-9"]),
                        st.text(alphabet="aAbZ9-</s>", min_size=1, max_size=5),
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_document_scores_equal_per_token_reference(
        self, hash_dim, n_labels, seed, sentences
    ):
        """One call over a document's sentences gives each sentence the rows
        the per-token reference gives it, bitwise, whatever the mix of title
        and body sentences and of token id counts across them."""
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=rng.uniform(0.01, 100), size=(hash_dim, n_labels))
        model = nertag.TaggerModel.from_dense(weights, LabelSet())
        out = score_tokens(model, sentences)
        assert len(out) == len(sentences)
        for scores, (tokens, from_title) in zip(out, sentences):
            assert scores.tobytes() == self.reference_scores(weights, tokens, from_title).tobytes()

    def test_document_scores_are_views_of_one_array(self, fixture_tagger):
        sentences = [(["Contoso", "Falcon"], True), (["it", "shipped", "today"], False)]
        first, second = score_tokens(fixture_tagger, sentences)
        assert first.shape == (2, 17) and second.shape == (3, 17)
        assert first.base is not None and first.base is second.base

    def test_empty_sentence_rejected_and_empty_document_scores_nothing(self, fixture_tagger):
        with pytest.raises(ValueError, match="no tokens to score"):
            score_tokens(fixture_tagger, [(["a"], False), ([], False)])
        assert score_tokens(fixture_tagger, []) == []

    def test_memo_stays_bounded_and_unsaved(self, monkeypatch, tmp_path):
        monkeypatch.setattr(nertag, "_MEMO_LIMIT", 8)
        weights = np.random.default_rng(1).normal(size=(13, 17))
        model = nertag.TaggerModel.from_dense(weights, LabelSet())
        words = [f"w{i}" for i in range(30)]
        for start in range(0, 30, 6):
            tokens = words[start : start + 12]
            (scores,) = score_tokens(model, [(tokens, False)])
            assert len(model._word_ids) <= 8
            assert len(model._context_ids) <= 8
            assert scores.tobytes() == self.reference_scores(weights, tokens).tobytes()
        model.save(tmp_path / "tagger.npz")
        with np.load(tmp_path / "tagger.npz") as saved:
            assert set(saved.files) == {"rows", "weights", "entity_types", "hash_dim"}

    @settings(max_examples=200, deadline=None)
    @given(
        hash_dim=st.integers(5, 64),
        n_labels=st.sampled_from([1, 5, 17]),
        seed=st.integers(0, 2**32 - 1),
        stored_share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        sentences=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(
                        st.sampled_from(["Contoso", "contoso", "Falcon", "a", "NLP", "x-9"]),
                        st.text(alphabet="aAbZ9-</s>", min_size=1, max_size=5),
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_compact_scores_equal_dense_reference(
        self, hash_dim, n_labels, seed, stored_share, sentences
    ):
        """A model that stores only the nonzero rows of a sparse matrix
        scores each token bitwise as the dense matrix does, including the
        tokens none of whose ids has a stored row."""
        rng = np.random.default_rng(seed)
        dense = rng.normal(scale=rng.uniform(0.01, 100), size=(hash_dim, n_labels))
        dense[rng.random(hash_dim) >= stored_share] = 0.0
        model = nertag.TaggerModel.from_dense(dense, LabelSet())
        assert model.rows.tolist() == [r for r in range(hash_dim) if dense[r].any()]
        assert model.weights.tobytes() == dense[model.rows].tobytes()
        for _ in range(2):  # the second pass reads every row number from the memo
            out = score_tokens(model, sentences)
            for scores, (tokens, from_title) in zip(out, sentences):
                expected = self.reference_scores(dense, tokens, from_title)
                assert scores.tobytes() == expected.tobytes()

    def test_token_without_stored_rows_scores_uniform(self):
        tokens = ["Contoso", "shipped"]
        dense = np.zeros((1 << 16, 17))
        dense[nertag._feature_id("w=contoso", 1 << 16)] = np.arange(17.0)
        model = nertag.TaggerModel.from_dense(dense, LabelSet())
        assert model.feature_ids([(tokens, False)]).tolist() == [[0] + [1] * 11, [1] * 12]
        (scores,) = score_tokens(model, [(tokens, False)])
        assert scores.tobytes() == self.reference_scores(dense, tokens).tobytes()
        assert np.all(scores[1] == scores[1, 0]) and not np.all(scores[0] == scores[0, 0])


class TestViterbi:
    def test_start_constraint(self):
        ls = LabelSet(("person",))
        scores = np.array([[0.1, 0.9, 2.0]])  # O, B-per, I-per
        assert viterbi_decode(scores, ls) == [ls.index("B-person")]

    def test_figure_two_scenario(self):
        # greedy argmax picks an invalid B-per / I-wrk / I-wrk sequence; the
        # valid max-sum path is B-wrk I-wrk I-wrk
        ls = LabelSet(TWO_TYPES)
        n = len(ls)
        scores = np.full((3, n), -2.0)
        scores[:, ls.index("O")] = 0.05
        scores[0, ls.index("B-person")] = 0.9
        scores[0, ls.index("B-creative_work")] = 0.85
        scores[1, ls.index("I-creative_work")] = 0.9
        scores[2, ls.index("I-creative_work")] = 0.9
        raw = [int(i) for i in np.argmax(scores, axis=1)]
        assert [ls.label(i) for i in raw] == ["B-person", "I-creative_work", "I-creative_work"]
        assert not ls.is_valid_sequence(raw)
        decoded = [ls.label(i) for i in viterbi_decode(scores, ls)]
        assert decoded == ["B-creative_work", "I-creative_work", "I-creative_work"]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        ls = LabelSet(TWO_TYPES)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            scores = rng.normal(size=(n, len(ls)))
            assert viterbi_decode(scores, ls) == brute_force_decode(scores, TWO_TYPES)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_validity_and_dominance_property(self, data):
        ls = LabelSet()
        n = data.draw(st.integers(1, 12))
        flat = data.draw(
            st.lists(
                st.floats(-100, 100, allow_nan=False),
                min_size=n * len(ls),
                max_size=n * len(ls),
            )
        )
        scores = np.array(flat).reshape(n, len(ls))
        path = viterbi_decode(scores, ls)
        greedy = greedy_decode(scores, ls)
        assert ls.is_valid_sequence(path)
        assert ls.is_valid_sequence(greedy)
        v = sum(scores[t, path[t]] for t in range(n))
        g = sum(scores[t, greedy[t]] for t in range(n))
        assert v >= g - 1e-9

    @pytest.mark.parametrize("types", [("person",), TWO_TYPES, nertag.DEFAULT_ENTITY_TYPES])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_dense_decoder(self, types, data):
        """The structured decoder gives the dense (prev, cur) decoder's path,
        ties included: integer scores force them."""
        ls = LabelSet(types)
        n = data.draw(st.integers(1, 10))
        elements = data.draw(st.sampled_from([st.floats(-50, 50), st.integers(-1, 1)]))
        values = data.draw(st.lists(elements, min_size=n * len(ls), max_size=n * len(ls)))
        scores = np.array(values, dtype=np.float64).reshape(n, len(ls))
        assert viterbi_decode(scores, ls) == dense_viterbi_decode(scores, ls)

    def test_near_neg_inf_scores_give_a_valid_path(self):
        """A disallowed O -> I-wrk step adds NEG_INF to O's 0 and ties the
        allowed B-wrk -> I-wrk step at -1e30; the dense decoder took O on
        the tie and returned a path extract_mentions rejects."""
        ls = LabelSet(("wrk",))
        scores = np.array([[0.0, -1e30, -1e30], [-2e30, -2e30, 0.0]])
        assert dense_viterbi_decode(scores, ls) == [ls.index("O"), ls.index("I-wrk")]
        path = viterbi_decode(scores, ls)
        assert path == [ls.index("B-wrk"), ls.index("I-wrk")]
        assert [m.surface for m in extract_mentions(["a", "b"], path, ls)] == ["a b"]

    @pytest.mark.parametrize("types", [("wrk",), TWO_TYPES, nertag.DEFAULT_ENTITY_TYPES])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_path_is_valid_with_scores_near_neg_inf(self, types, data):
        ls = LabelSet(types)
        n = data.draw(st.integers(1, 8))
        values = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from([-1e30, -2e30, -1e30 + 1e14, -3e30, 0.0, 1.0]),
                    st.floats(-1e31, -1e29),
                    st.floats(-10, 10),
                ),
                min_size=n * len(ls),
                max_size=n * len(ls),
            )
        )
        scores = np.array(values).reshape(n, len(ls))
        assert ls.is_valid_sequence(viterbi_decode(scores, ls))

    def test_scores_must_match_the_label_set(self):
        ls = LabelSet(TWO_TYPES)
        with pytest.raises(ValueError, match="need at least one token"):
            viterbi_decode(np.zeros((0, len(ls))), ls)
        with pytest.raises(ValueError, match="3 columns, not 5 labels"):
            viterbi_decode(np.zeros((2, 3)), ls)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        ls = LabelSet(TWO_TYPES)
        for _ in range(50):
            scores = rng.normal(size=(6, len(ls)))
            assert viterbi_decode(scores, ls) == viterbi_decode(scores + 13.7, ls)


def _document(data, ls: LabelSet) -> list[np.ndarray]:
    """1-4 sentences of 1-8 tokens each, as views of one score array like
    score_tokens returns, drawn from ties, rounding ties, integers and
    values near NEG_INF; sometimes the first token of a later sentence
    scores I-t highest after a sentence that ends on B-t."""
    lengths = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    n = sum(lengths)
    elements = data.draw(
        st.sampled_from(
            [
                st.floats(-50, 50),
                st.integers(-1, 1),
                st.sampled_from([1e16, 0.9, 1.0, 0.0, -5.0, 2.0**53, 2.0]),
                st.one_of(
                    st.sampled_from([-1e30, -2e30, -1e30 + 1e14, -3e30, 0.0, 1.0]),
                    st.floats(-1e31, -1e29),
                    st.floats(-10, 10),
                ),
            ]
        )
    )
    values = data.draw(st.lists(elements, min_size=n * len(ls), max_size=n * len(ls)))
    scores = np.array(values, dtype=np.float64).reshape(n, len(ls))
    ends = np.cumsum(lengths).tolist()
    if len(lengths) > 1 and data.draw(st.booleans()):
        t = data.draw(st.sampled_from(ls.entity_types))
        scores[ends[0] - 1, ls.index(f"B-{t}")] = 100.0
        scores[ends[0], ls.index(f"I-{t}")] = 100.0
    return [scores[a:b] for a, b in zip([0, *ends], ends)]


class TestDecode:
    @pytest.mark.parametrize("types", [("wrk",), TWO_TYPES, nertag.DEFAULT_ENTITY_TYPES])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_viterbi_per_sentence(self, types, data):
        ls = LabelSet(types)
        document = _document(data, ls)
        assert nertag.decode(document, ls) == [viterbi_decode(s, ls) for s in document]

    def test_rounding_tie_goes_to_viterbi(self):
        """The argmax path O, B is BIO-valid, but 1e16 + 0.9 and 1e16 + 1.0
        round to one sum, and Viterbi takes the smaller ordinal, O."""
        ls = LabelSet(("wrk",))
        scores = np.array([[1e16, 0.0, -5.0], [0.9, 1.0, -5.0]])
        o, b = ls.index("O"), ls.index("B-wrk")
        assert scores.argmax(axis=1).tolist() == [o, b]
        assert ls.is_valid_sequence([o, b])
        assert viterbi_decode(scores, ls) == [o, o]
        assert nertag.decode([scores], ls) == [[o, o]]

    def test_viterbi_runs_only_where_the_argmax_path_is_not_exact(self, monkeypatch):
        """A sentence that opens on I-t, one with an I-t after O, and one
        I-t opening a sentence after B-t all go to viterbi_decode; valid
        argmax paths do not."""
        ls = LabelSet(TWO_TYPES)
        calls = []
        viterbi = nertag.viterbi_decode

        def counted(scores, labelset):
            calls.append(len(scores))
            return viterbi(scores, labelset)

        monkeypatch.setattr(nertag, "viterbi_decode", counted)

        def sentence(*labels):
            scores = np.full((len(labels), len(ls)), -3.0)
            scores[np.arange(len(labels)), [ls.index(lab) for lab in labels]] = -0.1
            return scores

        document = [
            sentence("B-person", "I-person", "O"),
            sentence("I-person"),
            sentence("O", "O", "I-person", "O"),
            sentence("O", "B-creative_work"),
            sentence("I-creative_work", "I-creative_work"),
            sentence("O", "B-person", "I-person", "I-person", "O"),
        ]
        assert nertag.decode(document, ls) == [viterbi(s, ls) for s in document]
        assert calls == [1, 4, 2]

    def test_empty_document_and_bad_shapes(self):
        ls = LabelSet(TWO_TYPES)
        assert nertag.decode([], ls) == []
        with pytest.raises(ValueError, match="need at least one token"):
            nertag.decode([np.zeros((2, len(ls))), np.zeros((0, len(ls)))], ls)
        with pytest.raises(ValueError, match=r"shape \(2, 3\), not \(tokens, 5\)"):
            nertag.decode([np.zeros((2, 3))], ls)


class TestGreedy:
    def test_invalid_run_repaired_to_O(self):
        ls = LabelSet(TWO_TYPES)
        scores = np.full((3, len(ls)), -5.0)
        scores[0, ls.index("B-person")] = 1.0
        scores[1, ls.index("I-creative_work")] = 1.0
        scores[2, ls.index("I-creative_work")] = 1.0
        out = [ls.label(i) for i in greedy_decode(scores, ls)]
        assert out == ["B-person", "O", "O"]

    def test_valid_argmax_unchanged(self):
        ls = LabelSet(TWO_TYPES)
        scores = np.full((2, len(ls)), -5.0)
        scores[0, ls.index("B-person")] = 1.0
        scores[1, ls.index("I-person")] = 1.0
        out = [ls.label(i) for i in greedy_decode(scores, ls)]
        assert out == ["B-person", "I-person"]

    def test_leading_inside_run_repaired(self):
        ls = LabelSet(TWO_TYPES)
        scores = np.full((2, len(ls)), -5.0)
        scores[0, ls.index("I-person")] = 1.0
        scores[1, ls.index("I-person")] = 1.0
        assert [ls.label(i) for i in greedy_decode(scores, ls)] == ["O", "O"]


class TestExtractMentions:
    def toks(self, text):
        return tokenize(Sentence("d1", 0, text))

    def test_simple_mention(self):
        ls = LabelSet(("person",))
        tokens = self.toks("Alan Turing proposed")
        labels = [ls.index(l) for l in ("B-person", "I-person", "O")]
        mentions = extract_mentions(tokens, labels, ls)
        assert len(mentions) == 1
        m = mentions[0]
        assert m.surface == "Alan Turing"
        assert m.entity_type == "person"
        assert m == nertag.Mention(surface="Alan Turing", entity_type="person", from_title=False)

    def test_all_outside(self):
        ls = LabelSet(("person",))
        tokens = self.toks("nothing here")
        assert extract_mentions(tokens, [0, 0], ls) == []

    def test_adjacent_begins_are_two_mentions(self):
        ls = LabelSet(("organization",))
        tokens = self.toks("Contoso Fabrikam")
        b = ls.index("B-organization")
        mentions = extract_mentions(tokens, [b, b], ls)
        assert [m.surface for m in mentions] == ["Contoso", "Fabrikam"]

    def test_invalid_sequence_rejected(self):
        ls = LabelSet(("person",))
        tokens = self.toks("x y")
        with pytest.raises(ValueError):
            extract_mentions(tokens, [0, ls.index("I-person")], ls)


class TestLabelTables:
    @pytest.mark.parametrize("types", [nertag.DEFAULT_ENTITY_TYPES, TWO_TYPES])
    def test_tables_follow_label_methods(self, types):
        ls = LabelSet(types)
        L = range(len(ls))
        assert ls.begin_type == tuple(ls.entity_type_of(c) if ls.is_begin(c) else None for c in L)
        assert ls.inside == tuple(ls.is_inside(c) for c in L)
        assert ls._transitions == [[bool(ls.transition_mask[p, c]) for c in L] for p in L]

    @settings(max_examples=300, deadline=None)
    @given(
        types=st.sampled_from([nertag.DEFAULT_ENTITY_TYPES, TWO_TYPES]),
        data=st.data(),
        repair=st.booleans(),
        from_title=st.booleans(),
    )
    def test_equal_to_label_method_loops(self, types, data, repair, from_title):
        """Random label sequences, valid and invalid: the table loops give
        the reference loops' answer, mentions or ValueError message."""
        ls = LabelSet(types)
        labels = data.draw(st.lists(st.integers(0, len(ls) - 1), max_size=12))
        if repair:  # an I-t that may not follow its predecessor becomes B-t
            for t, cur in enumerate(labels):
                prev = labels[t - 1] if t else None
                if not ls.transition_ok(prev, cur):
                    labels[t] = ls.index("B-" + ls.entity_type_of(cur))
            assert ls.is_valid_sequence(labels)
        tokens = [f"w{t}" for t in range(len(labels))]
        assert ls.is_valid_sequence(labels) == loop_is_valid_sequence(ls, labels)
        try:
            expected = loop_extract_mentions(tokens, labels, ls, from_title)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                extract_mentions(tokens, labels, ls, from_title)
            assert str(got.value) == str(exc)
        else:
            assert extract_mentions(tokens, labels, ls, from_title) == expected


class TestModelPersistence:
    def test_save_load_round_trip(self, fixture_tagger, tmp_path):
        path = tmp_path / "tagger.npz"
        fixture_tagger.save(path)
        loaded = nertag.TaggerModel.load(path)
        assert np.array_equal(loaded.rows, fixture_tagger.rows)
        assert np.array_equal(loaded.weights, fixture_tagger.weights)
        assert loaded.labelset.labels == fixture_tagger.labelset.labels
        assert loaded.hash_dim == fixture_tagger.hash_dim

    def test_file_with_gamma_loads_and_scores_the_same(self, fixture_tagger, tmp_path):
        """A tagger file of the earlier format also holds the training gamma,
        which scoring never read."""
        new, old = tmp_path / "new.npz", tmp_path / "old.npz"
        fixture_tagger.save(new)
        np.savez(
            old,
            weights=dense_weights(fixture_tagger),
            entity_types=np.array(fixture_tagger.labelset.entity_types),
            gamma=1.6,
            hash_dim=fixture_tagger.hash_dim,
        )
        sentences = [("the team shipped Contoso Falcon last week".split(), False)]
        (expected,) = score_tokens(nertag.TaggerModel.load(new), sentences)
        (scores,) = score_tokens(nertag.TaggerModel.load(old), sentences)
        assert scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("gamma", [None, 1.6], ids=["without_gamma", "with_gamma"])
    def test_dense_file_loads_as_its_compact_save(self, fixture_tagger, tmp_path, gamma):
        """A dense tagger file, as saved before models stored only their
        nonzero rows, loads as the model its compact save holds and scores
        every sentence bitwise the same."""
        new, old = tmp_path / "new.npz", tmp_path / "old.npz"
        fixture_tagger.save(new)
        extra = {} if gamma is None else {"gamma": gamma}
        np.savez(
            old,
            weights=dense_weights(fixture_tagger),
            entity_types=np.array(fixture_tagger.labelset.entity_types),
            hash_dim=fixture_tagger.hash_dim,
            **extra,
        )
        compact, dense = nertag.TaggerModel.load(new), nertag.TaggerModel.load(old)
        assert dense.rows.tolist() == compact.rows.tolist()
        assert dense.weights.tobytes() == compact.weights.tobytes()
        assert dense.hash_dim == compact.hash_dim
        sentences = [(s.tokens, s.from_title) for s in make_tagger_training_data()]
        sentences += [(["Unseen", "zzyzx", "words"], True)]
        for got, want in zip(score_tokens(dense, sentences), score_tokens(compact, sentences)):
            assert got.tobytes() == want.tobytes()

    def test_saved_file_is_under_one_percent_of_dense(self, fixture_tagger, tmp_path):
        compact, dense = tmp_path / "compact.npz", tmp_path / "dense.npz"
        fixture_tagger.save(compact)
        np.savez(
            dense,
            weights=dense_weights(fixture_tagger),
            entity_types=np.array(fixture_tagger.labelset.entity_types),
            hash_dim=fixture_tagger.hash_dim,
        )
        assert compact.stat().st_size < 0.01 * dense.stat().st_size


GOOD_SCORE_ROW = {
    "doc_id": "d1",
    "sentence_index": 0,
    "labels": ["O", "B-product", "I-product"],
    "scores": [[0.1, 0.2, 0.3]],
}


class TestExternalScores:
    def test_load_external_scores(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        row = {
            "doc_id": "d1",
            "sentence_index": 0,
            "labels": ["O", "B-person", "I-person"],
            "scores": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
        }
        path.write_text(json.dumps(row) + "\n")
        table = nertag.load_external_scores(path, 3)
        assert table[("d1", 0)].shape == (2, 3)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "record is not a JSON object"),
            ({"doc_id": "d2", "scores": [[0.1, 0.2, 0.3]]}, "missing keys: sentence_index"),
            ({**GOOD_SCORE_ROW, "sentence_index": "1"}, "sentence_index is not an integer"),
            ({**GOOD_SCORE_ROW, "scores": [0.1, 0.2, 0.3]}, "not a 2-D numeric array"),
            ({**GOOD_SCORE_ROW, "scores": [["a", "b", "c"]]}, "not a 2-D numeric array"),
            ({**GOOD_SCORE_ROW, "scores": [[0.1, 0.2, 0.3], [0.4]]}, "inhomogeneous shape"),
            ({**GOOD_SCORE_ROW, "scores": [[0.1, float("nan"), 0.3]]}, "NaN or infinite"),
            ({**GOOD_SCORE_ROW, "scores": [[float("-inf"), 0.2, 0.3]]}, "NaN or infinite"),
            ('{"doc_id": "d1", "sentence_index": 1, "scores": [[1e999, 0, 0]]}',
             "NaN or infinite"),
        ],
        ids=[
            "invalid_json", "not_an_object", "missing_key", "text_sentence_index",
            "scores_1d", "scores_text", "scores_ragged", "scores_nan", "scores_minus_infinity",
            "scores_overflowing_float",
        ],
    )
    def test_bad_line_raises_with_line_number(self, tmp_path, row, reason):
        path = tmp_path / "scores.jsonl"
        line = row if isinstance(row, str) else json.dumps(row)
        path.write_text(json.dumps(GOOD_SCORE_ROW) + "\n" + line + "\n")
        with pytest.raises(ValueError) as exc:
            nertag.load_external_scores(path, 3)
        assert str(exc.value).startswith("score file line 2: ")
        assert reason in str(exc.value)

    @pytest.mark.parametrize(
        "doc_id, reason",
        [
            (77, None),
            (None, "doc_id is None, not a string or an integer"),
            (True, "doc_id is True, not a string or an integer"),
            (1.5, "doc_id is 1.5, not a string or an integer"),
        ],
        ids=["int", "null", "bool", "float"],
    )
    def test_doc_id_follows_the_corpus_rule(self, tmp_path, doc_id, reason):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            json.dumps(GOOD_SCORE_ROW) + "\n" + json.dumps({**GOOD_SCORE_ROW, "doc_id": doc_id})
            + "\n"
        )
        if reason is None:
            assert sorted(nertag.load_external_scores(path, 3)) == [("77", 0), ("d1", 0)]
            return
        with pytest.raises(ValueError) as exc:
            nertag.load_external_scores(path, 3)
        assert str(exc.value) == f"score file line 2: {reason}"

    def test_models_load_rejects_row_width(self, tmp_path):
        from kbmine.pipeline import Models, PipelineConfig

        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps(GOOD_SCORE_ROW) + "\n")
        models = Models.load(PipelineConfig(score_file=str(path), entity_types=("product",)))
        assert models.external_scores[("d1", 0)].shape == (1, 3)
        wide = Models.load(PipelineConfig(score_file=str(path), entity_types=("product", "person")))
        with pytest.raises(ValueError, match="score file line 1: .*3 columns, not 5 labels"):
            wide.external_scores
