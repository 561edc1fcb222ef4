import json

import pytest
from hypothesis import given, strategies as st

from kbmine import corpus
from kbmine.corpus import Document, IngestError, Sentence


def make_doc(body, title="", doc_id="d1"):
    return Document(doc_id=doc_id, title=title, body=body, author_id="u1", timestamp=0)


class TestIngest:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id":"d1","title":"T","body":"B","author_id":"u1","timestamp":0}\n'
        )
        docs, errors = corpus.ingest_jsonl(path)
        assert errors == []
        assert docs == [Document("d1", "T", "B", "u1", 0.0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        docs, errors = corpus.ingest_jsonl(path)
        assert docs == [] and errors == []

    def test_good_plus_malformed_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id":"d1","title":"T","body":"B","author_id":"u1","timestamp":0}\n'
            "{not json}\n"
        )
        docs, errors = corpus.ingest_jsonl(path)
        assert len(docs) == 1
        assert len(errors) == 1
        assert errors[0].line_number == 2

    def test_missing_key_is_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id":"d1","title":"T"}\n')
        docs, errors = corpus.ingest_jsonl(path)
        assert docs == []
        assert "body" in errors[0].reason

    def test_later_record_supersedes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            {"doc_id": "d1", "title": "old", "body": "B", "author_id": "u1", "timestamp": 0},
            {"doc_id": "d1", "title": "new", "body": "B", "author_id": "u1", "timestamp": 1},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        docs, _ = corpus.ingest_jsonl(path)
        assert len(docs) == 1
        assert docs[0].title == "new"

    @pytest.mark.parametrize(
        "doc_id, expected",
        [
            ("d1", "d1"),
            (77, "77"),
            (None, "doc_id is None, not a string or an integer"),
            (True, "doc_id is True, not a string or an integer"),
            (1.5, "doc_id is 1.5, not a string or an integer"),
            ("", "doc_id is empty"),
        ],
        ids=["string", "integer", "null", "bool", "float", "empty"],
    )
    def test_doc_id_rule(self, tmp_path, doc_id, expected):
        path = tmp_path / "c.jsonl"
        record = {"doc_id": doc_id, "title": "T", "body": "B", "author_id": "u1", "timestamp": 0}
        path.write_text(json.dumps(record) + "\n")
        docs, errors = corpus.ingest_jsonl(path)
        assert [d.doc_id for d in docs] + [e.reason for e in errors] == [expected]

    def test_ingest_twice_identical(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id":"d1","title":"T","body":"B","author_id":"u1","timestamp":0}\n'
        )
        assert corpus.ingest_jsonl(path) == corpus.ingest_jsonl(path)


class TestSplitSentences:
    def test_abbreviation_does_not_split(self):
        doc = make_doc("Dr. Smith arrived. He left.")
        texts = [s.text for s in corpus.split_sentences(doc)]
        assert texts == ["Dr. Smith arrived.", "He left."]

    def test_title_only(self):
        doc = make_doc("", title="Plan")
        sents = corpus.split_sentences(doc)
        assert len(sents) == 1
        assert sents[0].text == "Plan" and sents[0].from_title and sents[0].index == 0

    def test_three_terminators(self):
        doc = make_doc("A! B? C.")
        assert [s.text for s in corpus.split_sentences(doc)] == ["A!", "B?", "C."]

    def test_blank_line_splits(self):
        doc = make_doc("First paragraph\n\nSecond paragraph")
        assert [s.text for s in corpus.split_sentences(doc)] == [
            "First paragraph",
            "Second paragraph",
        ]

    def test_single_capital_letter_abbreviation(self):
        doc = make_doc("John F. Kennedy spoke.")
        assert [s.text for s in corpus.split_sentences(doc)] == ["John F. Kennedy spoke."]

    def test_configurable_abbreviations(self):
        doc = make_doc("See fig. 3. Then stop.")
        default = corpus.split_sentences(doc)
        custom = corpus.split_sentences(doc, abbreviations=frozenset({"fig"}))
        assert len(default) == 3
        assert [s.text for s in custom] == ["See fig. 3.", "Then stop."]

    def test_empty_everything(self):
        assert corpus.split_sentences(make_doc("")) == []

    def test_spans_match_body(self):
        doc = make_doc("  One two. Three!  \n\nFour. ", title=" Heading ")
        for s in corpus.split_sentences(doc):
            source = doc.title if s.from_title else doc.body
            assert source[s.start : s.end] == s.text

    def test_indices_strictly_increasing(self):
        doc = make_doc("A. B. C.", title="T")
        sents = corpus.split_sentences(doc)
        assert [s.index for s in sents] == list(range(len(sents)))

    def test_determinism(self):
        doc = make_doc("Alpha beta. Gamma delta! Epsilon?")
        assert corpus.split_sentences(doc) == corpus.split_sentences(doc)


class TestWordList:
    def test_one_reader_for_every_word_list(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\n; comment too\n\n  Dr.  \nE.G\nvs\n")
        assert corpus.read_word_list(path) == {"dr.", "e.g", "vs"}
        assert corpus.load_abbreviations(path) == frozenset({"dr", "e.g", "vs"})


class TestTokenize:
    def make_sentence(self, text):
        return Sentence("d1", 0, 0, len(text), text)

    def test_plain_words(self):
        toks = corpus.tokenize(self.make_sentence("Turing Test"))
        assert [t.surface for t in toks] == ["Turing", "Test"]

    def test_punctuation_detached(self):
        toks = corpus.tokenize(self.make_sentence("(Turing Test)"))
        assert [t.surface for t in toks] == ["(", "Turing", "Test", ")"]

    def test_internal_hyphens_kept(self):
        toks = corpus.tokenize(self.make_sentence("state-of-the-art"))
        assert [t.surface for t in toks] == ["state-of-the-art"]

    def test_apostrophes_kept(self):
        toks = corpus.tokenize(self.make_sentence("don't stop"))
        assert [t.surface for t in toks] == ["don't", "stop"]

    def test_round_trip_spans(self):
        sent = self.make_sentence('He said: "wait, state-of-the-art?!"')
        for tok in corpus.tokenize(sent):
            assert sent.text[tok.start : tok.end] == tok.surface

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_round_trip_property(self, text):
        sent = Sentence("d", 0, 0, len(text), text)
        toks = corpus.tokenize(sent)
        for tok in toks:
            assert sent.text[tok.start : tok.end] == tok.surface
        assert [t.word_index for t in toks] == list(range(len(toks)))
        # deterministic
        assert corpus.tokenize(sent) == toks
