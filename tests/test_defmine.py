import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import binary_rows, eval_rule_baseline, make_definition_rows, prf1
from kbmine import defmine
from kbmine.corpus import Document, read_word_list, split_sentences
from kbmine.defmine import (
    DEFAULT_PATTERNS,
    ClassifierConfig,
    DefinitionCategory,
    DefinitionPattern,
    RuleClassifier,
    extract_topic,
    load_negative_words,
    mine_definitions,
    opinion_filter,
    train_sentence_classifier,
)

STATISTICS = (
    "Statistics is a branch of mathematics dealing with data collection, "
    "organization, analysis, interpretation, and presentation."
)
REFERENTIAL = (
    "This method is used to identifying a hyperplane which separates a "
    "positive class from the negative class."
)
PERSONAL = (
    "Tom is a Data Scientist at Acme Corporation working on natural "
    "language processing."
)
CATERPILLAR = "The Caterpillar 797B is the biggest car I've ever seen."


@pytest.fixture(scope="module")
def lexicon():
    return load_negative_words()


class TestRuleClassifier:
    def setup_method(self):
        self.clf = RuleClassifier()

    def test_sufficient_example(self):
        assert self.clf.classify(STATISTICS)[0] is DefinitionCategory.SUFFICIENT

    def test_referential_example(self):
        assert self.clf.classify(REFERENTIAL)[0] is DefinitionCategory.REFERENTIAL

    def test_personal_example(self):
        assert self.clf.classify(PERSONAL)[0] is DefinitionCategory.PERSONAL

    def test_opinion_is_non_definition(self):
        assert self.clf.classify(CATERPILLAR)[0] is DefinitionCategory.NON_DEFINITION

    def test_exactly_one_category(self):
        for text in [STATISTICS, REFERENTIAL, PERSONAL, CATERPILLAR, "", "word"]:
            cat, conf = self.clf.classify(text)
            assert isinstance(cat, DefinitionCategory)
            assert 0.0 <= conf <= 1.0


class TestExtractTopic:
    def test_statistics_example(self):
        topic, desc, _ = extract_topic(STATISTICS)
        assert topic == "Statistics"
        assert desc.startswith("branch of mathematics dealing with data collection")

    def test_pronoun_guard(self):
        assert extract_topic("It is defined as a metric.") is None

    def test_no_connective(self):
        assert extract_topic("No connective here.") is None

    def test_determiner_stripped(self):
        topic, _, _ = extract_topic("The Atlas Engine is a rendering component.")
        assert topic == "Atlas Engine"

    def test_priority_order(self):
        # "is defined as" outranks "is a" even though both connectives occur
        text = "Entropy is a word that is defined as disorder."
        patterns = (
            DefinitionPattern("{topic} is defined as {description}", 0),
            DefinitionPattern("{topic} is a {description}", 1),
        )
        topic, desc, _ = extract_topic(text, patterns)
        assert desc == "disorder."

    def test_bad_template_rejected(self):
        with pytest.raises(ValueError):
            DefinitionPattern("no slots at all", 0).connective


BAD_PATTERNS = [
    ("{topic} {description}", 0),
    ("{topic} is a", 0),
    ("is a {description}", 0),
    (None, 0),
    ("{topic} is a {description}", "1"),
    ("{topic} is a {description}", True),
]


@pytest.mark.parametrize(
    "template, priority",
    BAD_PATTERNS,
    ids=[
        "blank_connective", "no_description", "no_topic", "not_a_string",
        "text_priority", "bool_priority",
    ],
)
def test_bad_pattern_rejected_when_built(template, priority):
    with pytest.raises(ValueError):
        DefinitionPattern(template, priority)


# connectives with regex metacharacters and non-word edges, beside the defaults
CONNECTIVES = [p.connective for p in DEFAULT_PATTERNS] + [
    "is known as", "a.k.a.", "(see)", "c++ is", "= ", "is", "IS A",
]
WORDS = [
    "Falcon", "Atlas", "is", "IS", "Is", "a", "an", "An", "defined", "as", "known",
    "refers", "refer", "to", "means", "stands", "for", "a.k.a.", "(see)", "c++",
    "=", ",", ".", "isa", "island", "meanwhile", "the",
]


def _search_loop(text, patterns):
    """The reference: one re.search per pattern, in priority order."""
    for pat in sorted(patterns, key=lambda p: p.priority):
        m = re.search(rf"\b{re.escape(pat.connective)}\b", text, re.IGNORECASE)
        if m:
            return pat, m.start(), m.end()
    return None


class TestFindConnective:
    @settings(max_examples=300, deadline=None)
    @given(
        text=st.one_of(
            st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
            st.text(max_size=30),
        ),
        picks=st.lists(
            st.tuples(st.sampled_from(CONNECTIVES), st.integers(0, 3)), min_size=1, max_size=8
        ),
        seed=st.integers(0, 2**16),
    )
    def test_equals_search_loop(self, text, picks, seed):
        patterns = [DefinitionPattern(f"{{topic}} {c} {{description}}", p) for c, p in picks]
        random.Random(seed).shuffle(patterns)
        patterns = tuple(patterns)
        hit = defmine._find_connective(text, patterns)
        ref = _search_loop(text, patterns)
        assert hit == ref
        assert hit is None or hit[0] is ref[0]

    def test_mining_builds_no_regex(self, lexicon, monkeypatch):
        custom = DEFAULT_PATTERNS + (
            DefinitionPattern("{topic} is known as {description}", len(DEFAULT_PATTERNS)),
        )
        doc = Document(
            "d1", "Contoso Falcon",
            "Contoso Falcon is known as the telemetry service. Atlas Engine is a build tool. "
            "We met on Monday. Entropy means disorder.",
            "u1", 0,
        )
        sentences = split_sentences(doc)
        calls = []
        for name in ("escape", "search", "compile"):
            original = getattr(re, name)
            monkeypatch.setattr(
                re, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        records = mine_definitions(sentences, RuleClassifier(custom), custom, lexicon)
        records += mine_definitions(sentences, RuleClassifier(), DEFAULT_PATTERNS, lexicon)
        monkeypatch.undo()
        assert calls == []
        assert len(records) == 5


# letters that IGNORECASE folds onto ASCII ones: long s, dotless i, dotted
# capital I, Kelvin sign
FOLDING_WORDS = ["iſ", "ıs", "İS", "\u212anown", "ſtands", "meanſ", "referſ"]
FOLDING_CONNECTIVES = ["ſtands for", "ıs a", "\u212anown as", "iſ defined as"]


class _CountingRegex:
    """A pattern's regex that counts its searches."""

    def __init__(self, regex, calls):
        self.regex, self.calls = regex, calls

    def search(self, text):
        self.calls.append(self.regex.pattern)
        return self.regex.search(text)


class TestConnectivePrecheck:
    @pytest.mark.parametrize("text", ["Falcon iſ a tool", "Falcon ıs a tool"])
    def test_folding_letter_in_text_still_matches(self, text):
        pat, start, end = defmine._find_connective(text, DEFAULT_PATTERNS)
        assert pat.connective == "is a" and (start, end) == (7, 11)
        assert extract_topic(text)[:2] == ("Falcon", "tool")

    def test_folding_letter_in_connective_still_matches(self):
        pattern = DefinitionPattern("{topic} ſtands for {description}", 0)
        assert defmine._find_connective("X stands for Y", (pattern,)) == (pattern, 2, 12)

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.lists(st.sampled_from(WORDS + FOLDING_WORDS), max_size=12).map(" ".join),
        picks=st.lists(
            st.tuples(st.sampled_from(CONNECTIVES + FOLDING_CONNECTIVES), st.integers(0, 3)),
            min_size=1, max_size=8,
        ),
    )
    def test_equals_search_loop_with_folding_letters(self, text, picks):
        patterns = tuple(DefinitionPattern(f"{{topic}} {c} {{description}}", p) for c, p in picks)
        assert defmine._find_connective(text, patterns) == _search_loop(text, patterns)

    def test_ascii_sentence_without_connective_runs_no_regex(self):
        calls = []
        patterns = []
        for pat in DEFAULT_PATTERNS:
            pat = DefinitionPattern(pat.template, pat.priority)
            object.__setattr__(pat, "regex", _CountingRegex(pat.regex, calls))
            patterns.append(pat)
        patterns = tuple(patterns)
        for text in ("We met the island team on Monday.", "This IS Orion."):
            assert defmine._find_connective(text, patterns) is None
        assert calls == []
        # only the patterns whose connective the lowered text holds are searched
        hit = defmine._find_connective("Atlas Means it IS A tool.", patterns)
        assert hit[0].connective == "is a"
        assert calls == [r"\bis\ a\b"]


class TestOpinionFilter:
    def test_caterpillar_dropped(self, lexicon):
        keep, reason = opinion_filter(CATERPILLAR, lexicon)
        assert not keep and reason == "biggest"

    def test_neutral_kept(self, lexicon):
        assert opinion_filter("Statistics is a branch of mathematics.", lexicon) == (
            True,
            None,
        )

    def test_empty_kept(self, lexicon):
        assert opinion_filter("", lexicon) == (True, None)

    def test_custom_lexicon_files(self, tmp_path):
        neg = tmp_path / "neg.txt"
        neg.write_text("dire\n")
        lex = load_negative_words(neg)
        assert opinion_filter("a dire outcome", lex)[0] is False
        assert opinion_filter("the biggest win", lex)[0] is True

    def test_lexicon_files_are_word_lists(self, tmp_path):
        neg = tmp_path / "neg.txt"
        neg.write_text("; opinion words\n# negative\n\n  Dire \n")
        lex = load_negative_words(neg)
        assert lex == {"dire"}
        assert lex == read_word_list(neg)


class TestLinearClassifier:
    def test_holdout_accuracy(self):
        rows = make_definition_rows(500, seed=0)
        train, test = rows[:400], rows[400:]
        model = train_sentence_classifier(train, ClassifierConfig(seed=0))
        correct = sum(model.classify(t)[0] is c for t, c in test)
        assert correct / len(test) >= 0.8

    def test_single_category_rejected(self):
        rows = [("a b c", DefinitionCategory.SUFFICIENT)] * 5
        with pytest.raises(ValueError):
            train_sentence_classifier(rows)

    def test_deterministic(self):
        rows = make_definition_rows(100, seed=1)
        cfg = ClassifierConfig(seed=9, epochs=3)
        m1 = train_sentence_classifier(rows, cfg)
        m2 = train_sentence_classifier(rows, cfg)
        assert np.array_equal(m1.weights, m2.weights)

    def test_save_load(self, tmp_path):
        rows = make_definition_rows(100, seed=2)
        model = train_sentence_classifier(rows, ClassifierConfig(epochs=3))
        model.save(tmp_path / "clf.npz")
        loaded = defmine.LinearClassifier.load(tmp_path / "clf.npz")
        for t, _ in rows[:10]:
            assert loaded.classify(t) == model.classify(t)

    @staticmethod
    def save_dense(model, path):
        """Save model as classifier files were saved before they stored only
        their nonzero rows: the whole (hash_dim, 5) matrix."""
        dense = np.zeros((model.hash_dim, len(defmine.CATEGORIES)))
        dense[model.rows] = model.weights
        np.savez(path, weights=dense, hash_dim=model.hash_dim)

    def test_dense_file_loads_as_its_compact_save(self, tmp_path):
        rows = make_definition_rows(200, seed=4)
        model = train_sentence_classifier(rows, ClassifierConfig(epochs=3))
        new, old = tmp_path / "new.npz", tmp_path / "old.npz"
        model.save(new)
        self.save_dense(model, old)
        compact, dense = defmine.LinearClassifier.load(new), defmine.LinearClassifier.load(old)
        assert dense.rows.tolist() == compact.rows.tolist()
        assert dense.weights.tobytes() == compact.weights.tobytes()
        assert dense.hash_dim == compact.hash_dim
        texts = [t for t, _ in rows] + ["Unseen zzyzx words.", " ".join(t for t, _ in rows[:50])]
        for text in texts:
            assert dense.classify(text) == compact.classify(text)

    def test_saved_file_is_under_one_percent_of_dense(self, tmp_path):
        model = train_sentence_classifier(make_definition_rows(500, seed=0))
        compact, dense = tmp_path / "compact.npz", tmp_path / "dense.npz"
        model.save(compact)
        self.save_dense(model, dense)
        assert compact.stat().st_size < 0.01 * dense.stat().st_size


class TestMineDefinitions:
    def make_doc(self, body, doc_id="d1"):
        return Document(doc_id, "", body, "u1", 0)

    def test_statistics_record(self, lexicon):
        doc = self.make_doc(STATISTICS)
        records = mine_definitions(
            split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.topic_key == "statistics"
        assert rec.doc_id == "d1"

    def test_one_connective_search_per_step(self, lexicon, monkeypatch):
        doc = self.make_doc(
            "Contoso Falcon is a cloud platform. Atlas Engine refers to a build tool. "
            "We met on Monday."
        )
        calls = []
        search = defmine._find_connective
        monkeypatch.setattr(
            defmine, "_find_connective", lambda *args: calls.append(args) or search(*args)
        )
        records = mine_definitions(
            split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon
        )
        # one search per sentence to extract a topic, one per sentence with a
        # topic to classify it
        assert len(calls) == 5
        assert [r.to_dict() for r in records] == [
            {
                "topic_key": "contoso falcon",
                "sentence_text": "Contoso Falcon is a cloud platform.",
                "sentence_index": 0,
                "confidence": 1.0,
            },
            {
                "topic_key": "atlas engine",
                "sentence_text": "Atlas Engine refers to a build tool.",
                "sentence_index": 1,
                "confidence": 1.0,
            },
        ]
        assert {r.doc_id for r in records} == {"d1"}

    def test_classifier_sees_only_sentences_with_a_topic(self, lexicon):
        sentences = split_sentences(
            self.make_doc("Contoso Falcon is a cloud platform. We met on Monday. It is a tool.")
        )
        seen = []

        class Spy(RuleClassifier):
            def classify(self, text):
                seen.append(text)
                return super().classify(text)

        records = mine_definitions(sentences, Spy(), DEFAULT_PATTERNS, lexicon)
        assert seen == ["Contoso Falcon is a cloud platform."]
        assert records == mine_definitions(sentences, RuleClassifier(), DEFAULT_PATTERNS, lexicon)
        assert [r.topic_key for r in records] == ["contoso falcon"]

    def test_opinion_hard_negative_dropped(self, lexicon):
        doc = self.make_doc(CATERPILLAR)
        assert mine_definitions(
            split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon
        ) == []

    def test_empty_doc(self, lexicon):
        doc = self.make_doc("")
        assert mine_definitions(
            split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon
        ) == []

    def test_record_count_bounded_by_sentences(self, lexicon):
        body = f"{STATISTICS} Nothing else here. {PERSONAL}"
        doc = self.make_doc(body)
        records = mine_definitions(
            split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon
        )
        assert len(records) <= 3

    def test_removing_pattern_never_adds_records(self, lexicon):
        doc = self.make_doc(f"{STATISTICS} Entropy means disorder.")
        sentences = split_sentences(doc)
        full = mine_definitions(sentences, RuleClassifier(), DEFAULT_PATTERNS, lexicon)
        reduced_patterns = tuple(p for p in DEFAULT_PATTERNS if p.connective != "means")
        reduced = mine_definitions(sentences, RuleClassifier(), reduced_patterns, lexicon)
        assert len(reduced) <= len(full)

    def test_no_emitted_record_contains_negative_word(self, lexicon):
        body = " ".join(
            [STATISTICS, CATERPILLAR, "Telemetry is defined as the worst process ever."]
        )
        sentences = split_sentences(self.make_doc(body))
        records = mine_definitions(sentences, RuleClassifier(), DEFAULT_PATTERNS, lexicon)
        for rec in records:
            keep, _ = opinion_filter(rec.sentence_text, lexicon)
            assert keep

    def test_deterministic(self, lexicon):
        doc = self.make_doc(f"{STATISTICS} {PERSONAL}")
        a = mine_definitions(split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon)
        b = mine_definitions(split_sentences(doc), RuleClassifier(), DEFAULT_PATTERNS, lexicon)
        assert a == b


class TestEvalRuleBaseline:
    def test_all_correct(self):
        rows = [(STATISTICS, 1), (REFERENTIAL, 0), (CATERPILLAR, 0)]
        f1, p, r = eval_rule_baseline(rows)
        assert f1 == 1.0

    def test_hand_counts(self):
        # 2 TP, 3 FP, 2 FN -> P=0.4 R=0.5 F1~0.444
        assert prf1([1, 1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 1, 1]) == pytest.approx(
            (4 / 9, 0.4, 0.5)
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            eval_rule_baseline([(STATISTICS, 1)])

    def test_rule_below_trained_classifier(self):
        rows = make_definition_rows(500, seed=3)
        train, test = rows[:400], rows[400:]
        model = train_sentence_classifier(train, ClassifierConfig(seed=0))
        test_binary = binary_rows(test)
        rule_f1, _, _ = eval_rule_baseline(test_binary)
        preds = [
            1 if model.classify(t)[0] is DefinitionCategory.SUFFICIENT else 0
            for t, _ in test_binary
        ]
        trained_f1, _, _ = prf1(preds, [y for _, y in test_binary])
        assert rule_f1 < trained_f1


class TestPatternFile:
    def test_load_patterns(self, tmp_path):
        import json

        path = tmp_path / "patterns.json"
        path.write_text(
            json.dumps(
                [
                    {"template": "{topic} is called {description}", "priority": 0},
                    {"template": "{topic} denotes {description}", "priority": 1},
                ]
            )
        )
        pats = defmine.load_patterns(path)
        assert [p.connective for p in pats] == ["is called", "denotes"]
        topic, desc, _ = extract_topic("Foo denotes a bar.", pats)
        assert (topic, desc) == ("Foo", "a bar.")

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{not json", "Expecting property name"),
            (json.dumps({"template": "{topic} is {description}"}), "not a JSON list"),
            (json.dumps(["{topic} is {description}"]), "entry 0: record is not a JSON object"),
            (
                json.dumps([{"template": "{topic} is a {description}", "priority": 0},
                            {"template": "{topic} is known as {description}"}]),
                "entry 1: missing or unknown keys: priority",
            ),
            (
                json.dumps([{"template": "{topic} is {description}", "priority": 0,
                             "weight": 2}]),
                "entry 0: missing or unknown keys: weight",
            ),
            (
                json.dumps([{"template": "{topic} {description}", "priority": 0}]),
                "entry 0: bad pattern template",
            ),
            (
                json.dumps([{"template": "{topic} is {description}", "priority": "0"}]),
                "entry 0: pattern priority is not an integer",
            ),
        ],
        ids=[
            "invalid_json", "not_a_list", "entry_not_object", "missing_priority",
            "unknown_key", "no_connective", "text_priority",
        ],
    )
    def test_bad_pattern_file_names_file_and_entry(self, tmp_path, content, reason):
        path = tmp_path / "patterns.json"
        path.write_text(content)
        with pytest.raises(ValueError) as exc:
            defmine.load_patterns(path)
        message = str(exc.value)
        assert message.startswith(f"pattern file {path}: ") and reason in message
        assert "\n" not in message
