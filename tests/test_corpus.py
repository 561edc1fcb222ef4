import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import loop_split_sentences
from kbmine import cli, corpus
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
            ("d\ud800", "doc_id holds a lone surrogate, which UTF-8 cannot encode"),
        ],
        ids=["string", "integer", "null", "bool", "float", "empty", "lone_surrogate"],
    )
    def test_doc_id_rule(self, tmp_path, doc_id, expected):
        path = tmp_path / "c.jsonl"
        record = {"doc_id": doc_id, "title": "T", "body": "B", "author_id": "u1", "timestamp": 0}
        path.write_text(json.dumps(record) + "\n")
        docs, errors = corpus.ingest_jsonl(path)
        assert [d.doc_id for d in docs] + [e.reason for e in errors] == [expected]

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ({"title": None}, "title is None, not a string"),
            ({"body": 7}, "body is 7, not a string"),
            ({"author_id": None}, "author_id is None, not a string"),
            ({"author_id": 7}, "author_id is 7, not a string"),
            ({"deleted": "false"}, "deleted is 'false', not a bool"),
            ({"deleted": 0}, "deleted is 0, not a bool"),
            ({"timestamp": True}, "timestamp is not a finite number"),
            ({"body": "B\udfff"}, "body holds a lone surrogate, which UTF-8 cannot encode"),
        ],
        ids=["null_title", "number_body", "null_author", "number_author", "text_deleted",
             "number_deleted", "bool_timestamp", "lone_surrogate_body"],
    )
    def test_document_fields_follow_the_input_rule(self, tmp_path, edit, reason):
        """Text fields are strings, deleted is a bool, and a timestamp is
        never a bool: nothing is coerced into a value the line does not hold."""
        good = {"doc_id": "d1", "title": "T", "body": "B", "author_id": "u1", "timestamp": 0}
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({**good, **edit}) + "\n"
            + json.dumps({**good, "doc_id": "d2", "deleted": True, "timestamp": "7.5"}) + "\n"
        )
        docs, errors = corpus.ingest_jsonl(path)
        assert [(d.doc_id, d.deleted, d.timestamp) for d in docs] == [("d2", True, 7.5)]
        assert errors == [IngestError(1, reason)]

    @pytest.mark.parametrize(
        "timestamp",
        ['"nan"', '"inf"', "1e999", "NaN", "-Infinity", "1" + "0" * 400, '"x"', "null"],
        ids=["text_nan", "text_inf", "overflowing_float", "nan", "minus_infinity",
             "overflowing_int", "text", "null"],
    )
    def test_timestamp_must_be_a_finite_number(self, tmp_path, capsys, timestamp):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id":"d1","title":"T","body":"B","author_id":"u1","timestamp":%s}\n'
            '{"doc_id":"d2","title":"T","body":"B","author_id":"u1","timestamp":"7.5"}\n'
            % timestamp
        )
        docs, errors = corpus.ingest_jsonl(path)
        assert [(d.doc_id, d.timestamp) for d in docs] == [("d2", 7.5)]
        assert errors == [IngestError(1, "timestamp is not a finite number")]
        assert cli.main(["ingest", "--corpus", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr() == (
            "1 documents, 1 errors\n", "line 1: timestamp is not a finite number\n"
        )

    def test_line_that_is_not_utf8_is_reported_and_skipped(self, tmp_path, capsys):
        """A bad byte fails its own line only, named by number, and CRLF
        line ends read as LF ones do."""
        path = tmp_path / "c.jsonl"
        record = '{"doc_id":"d%d","title":"T","body":"%s","author_id":"u1","timestamp":0}'
        path.write_bytes(
            (record % (1, "B") + "\n").encode()
            + (record % (2, "B") + "\r\n").encode().replace(b'"B"', b'"B\xff"')
            + (record % (3, "caf\u00e9") + "\r\n").encode("utf-8")
        )
        docs, errors = corpus.ingest_jsonl(path)
        assert [(d.doc_id, d.body) for d in docs] == [("d1", "B"), ("d3", "caf\u00e9")]
        assert errors == [IngestError(2, "line is not valid UTF-8")]
        assert cli.main(["ingest", "--corpus", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr() == (
            "2 documents, 1 errors\n", "line 2: line is not valid UTF-8\n"
        )

    def test_ingest_twice_identical(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"doc_id":"d1","title":"T","body":"B","author_id":"u1","timestamp":0}\n'
        )
        assert corpus.ingest_jsonl(path) == corpus.ingest_jsonl(path)


class TestInputRule:
    @pytest.mark.parametrize(
        "value, kind, expected",
        [
            (1, int, True),
            (1, float, True),
            (10**400, float, True),
            (1.5, float, True),
            (1.5, int, False),
            (True, int, False),
            (False, float, False),
            (True, bool, True),
            (float("nan"), float, False),
            (float("inf"), float, False),
            (float("-inf"), float, False),
            ("1", int, False),
            ("x", str, True),
            (None, str, False),
        ],
        ids=[
            "int_int", "int_float", "huge_int_float", "float_float", "float_int", "bool_int",
            "bool_float", "bool_bool", "nan_float", "inf_float", "minus_inf_float", "text_int",
            "text_str", "null_str",
        ],
    )
    def test_has_type(self, value, kind, expected):
        assert corpus.has_type(value, kind) is expected

    @pytest.mark.parametrize(
        "obj, exact, reason",
        [
            ([1], False, "record is not a JSON object"),
            ("a", True, "record is not a JSON object"),
            ({"b": 1}, False, "missing keys: a, c"),
            ({"a": 1, "c": 2, "d": 3}, False, None),
            ({"a": 1, "d": 3}, True, "missing or unknown keys: c, d"),
            ({"c": 1, "a": 2}, True, None),
        ],
        ids=["list", "text", "missing", "extra_allowed", "missing_and_unknown", "exact"],
    )
    def test_check_record(self, obj, exact, reason):
        if reason is None:
            assert corpus.check_record(obj, ("a", "c"), exact=exact) is obj
        else:
            with pytest.raises(ValueError, match=f"^{reason}$"):
                corpus.check_record(obj, ("a", "c"), exact=exact)


# pieces of bodies for the splitter: terminators, the blank-line
# whitespace and blank lines, abbreviations (default and custom), a single
# capital, '_' and non-ASCII letters
_SPLIT_PIECES = (
    ".", "!", "?", "\n", "\t", "\r", " ", "\n\n", "\n \n", "\n\r\n", "\n\t\r \n", "\n.\n",
    "..", "_", "e.g", "i.e.", "Dr", "dr", "F", "x", "fig", "word", "42", "é", "ßtraße",
    "Ωmega", "日本",
)


class TestSplitSentences:
    @settings(max_examples=400, deadline=None)
    @given(
        body=st.lists(
            st.one_of(st.sampled_from(_SPLIT_PIECES), st.text(".!?\n\t\r _aF1é", max_size=3)),
            max_size=30,
        ).map("".join),
        title=st.sampled_from(["", " \n\t", "Plan", "  Padded\ttitle \r\n"]),
        abbreviations=st.sampled_from(
            [corpus.DEFAULT_ABBREVIATIONS, frozenset({"fig", "word", "x"}), frozenset()]
        ),
    )
    def test_equals_reference_loop(self, body, title, abbreviations):
        doc = make_doc(body, title=title)
        assert corpus.split_sentences(doc, abbreviations) == loop_split_sentences(
            doc, abbreviations
        )

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

    def test_texts_are_stripped_substrings_in_order(self):
        doc = make_doc("  One two. Three!  \n\nFour. ", title=" Heading ")
        sents = corpus.split_sentences(doc)
        assert [s.text for s in sents] == ["Heading", "One two.", "Three!", "Four."]
        pos = {True: 0, False: 0}  # from_title -> where the next text may start
        for s in sents:
            source = doc.title if s.from_title else doc.body
            assert s.text and s.text == s.text.strip()
            pos[s.from_title] = source.index(s.text, pos[s.from_title]) + len(s.text)

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

    def test_line_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"dire\nbad\xff\n")
        with pytest.raises(ValueError) as exc:
            corpus.read_word_list(path)
        assert str(exc.value) == f"word list {path} line 2: line is not valid UTF-8"


def peel_loop_tokenize(text):
    """The per-chunk loop tokenize ran before its regex, surfaces only: the
    reference tokenize must equal."""
    tokens = []
    for chunk in text.split():
        hi = len(chunk)
        lead_end = 0
        while lead_end < hi and not chunk[lead_end].isalnum():
            lead_end += 1
        if lead_end == hi:
            tokens.append(chunk)  # all-punctuation chunk stays whole
            continue
        trail_start = hi
        while trail_start > lead_end and not chunk[trail_start - 1].isalnum():
            trail_start -= 1
        tokens += list(chunk[:lead_end])
        tokens.append(chunk[lead_end:trail_start])
        tokens += list(chunk[trail_start:])
    return tokens


# text mixing underscores, apostrophes, hyphens, tabs, newlines, non-ASCII
# letters and digits and all-punctuation chunks, or any text at all
_MIXED = "ab Z9_'-.,()\t\n#é²中١!?\""
_TOKENIZER_TEXT = st.one_of(
    st.lists(
        st.one_of(
            st.text(alphabet="_'-.,()#!?\"", min_size=1, max_size=4),
            st.text(alphabet=_MIXED, max_size=12),
        ),
        max_size=8,
    ).map(" ".join),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60),
)


class TestTokenize:
    def make_sentence(self, text):
        return Sentence("d1", 0, text)

    def test_plain_words(self):
        toks = corpus.tokenize(self.make_sentence("Turing Test"))
        assert toks == ["Turing", "Test"]

    def test_punctuation_detached(self):
        toks = corpus.tokenize(self.make_sentence("(Turing Test)"))
        assert toks == ["(", "Turing", "Test", ")"]

    def test_internal_hyphens_kept(self):
        toks = corpus.tokenize(self.make_sentence("state-of-the-art"))
        assert toks == ["state-of-the-art"]

    def test_apostrophes_kept(self):
        toks = corpus.tokenize(self.make_sentence("don't stop"))
        assert toks == ["don't", "stop"]

    def test_punctuation_peeled_one_character_each(self):
        toks = corpus.tokenize(self.make_sentence('He said: "wait, state-of-the-art?!" -- _x_'))
        assert toks == [
            "He", "said", ":", '"', "wait", ",", "state-of-the-art", "?", "!", '"', "--",
            "_", "x", "_",
        ]

    @given(_TOKENIZER_TEXT)
    def test_matches_peel_loop(self, text):
        assert corpus.tokenize(self.make_sentence(text)) == peel_loop_tokenize(text)

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_round_trip_property(self, text):
        toks = corpus.tokenize(self.make_sentence(text))
        assert "".join(toks) == "".join(text.split())
        chunks = set(text.split())
        for tok in toks:
            # a token without an alphanumeric character is one peeled
            # character or a whole chunk of punctuation
            assert any(ch.isalnum() for ch in tok) or len(tok) == 1 or tok in chunks
        assert corpus.tokenize(self.make_sentence(text)) == toks  # deterministic
