"""Corpus ingestion, sentence segmentation and tokenization.

Everything here is pure and deterministic so documents can be processed
in parallel without coordination.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


DEFAULT_ABBREVIATIONS = frozenset(
    {"dr", "mr", "mrs", "ms", "prof", "inc", "corp", "etc", "e.g", "i.e", "vs"}
)

REQUIRED_KEYS = ("doc_id", "title", "body", "author_id", "timestamp")

# split_sentences' boundaries: a terminator, or a blank line
_BOUNDARY_RE = re.compile(r"[.!?]|\n[ \t\r]*\n")

# tokenize's rule; the alternatives, in order: a whitespace chunk of
# punctuation only; a run from an alphanumeric character to the last one
# of its chunk; one punctuation character. [^\W_] matches exactly the
# characters for which str.isalnum() is true.
_TOKEN_RE = re.compile(r"(?<!\S)(?:(?!\s)[\W_])+(?!\S)|[^\W_](?:\S*[^\W_])?|(?!\s)[\W_]")


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str
    author_id: str
    timestamp: float
    deleted: bool = False


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    index: int
    text: str
    from_title: bool = False


@dataclass(frozen=True)
class IngestError:
    line_number: int
    reason: str


def has_type(value, kind: type) -> bool:
    """The scalar rule of every input: isinstance, where an int also counts
    as a float, a bool counts as neither, and a float must be finite. An
    int is never passed to math.isfinite, which overflows on a huge one."""
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, kind):
        return kind is not float or math.isfinite(value)
    return kind is float and isinstance(value, int)


def check_record(obj, keys, exact: bool = False) -> dict:
    """The record rule of every input: obj is a JSON object holding every
    key of keys and, if exact, no other; returns obj, or raises ValueError
    saying what is wrong."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    if exact:
        wrong = sorted(obj.keys() ^ keys)
        if wrong:
            raise ValueError(f"missing or unknown keys: {', '.join(wrong)}")
    else:
        missing = [k for k in keys if k not in obj]
        if missing:
            raise ValueError(f"missing keys: {', '.join(missing)}")
    return obj


def parse_doc_id(value) -> str:
    """The doc-id rule of every input record: a non-empty string, or an
    integer read as its decimal string, so 77 and "77" name one document."""
    if not (has_type(value, str) or has_type(value, int)):
        raise ValueError(f"doc_id is {value!r}, not a string or an integer")
    if value == "":
        raise ValueError("doc_id is empty")
    return _encodable(str(value), "doc_id")


def _text(obj: dict, key: str) -> str:
    """obj[key] if it is an encodable string by has_type; else ValueError."""
    if not has_type(obj[key], str):
        raise ValueError(f"{key} is {obj[key]!r}, not a string")
    return _encodable(obj[key], key)


def _encodable(text: str, key: str) -> str:
    """text if UTF-8 can encode it, else ValueError: a JSON escape such as
    "\\ud800" decodes to a lone surrogate. isascii() is O(1), so ASCII is free."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{key} holds a lone surrogate, which UTF-8 cannot encode") from None
    return text


def parse_source(obj: dict) -> tuple[str, str, float]:
    """(doc_id, author_id, timestamp) of a record that has those keys, by
    the rules of every document record; ValueError says what is wrong. A
    timestamp is a number or a numeric string, never a bool."""
    value = obj["timestamp"]
    try:
        ts = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # overflow: an int past float range
        ts = None
    if not has_type(ts, float):
        raise ValueError("timestamp is not a finite number")
    if ts < 0:
        raise ValueError("timestamp is negative")
    return parse_doc_id(obj["doc_id"]), _text(obj, "author_id"), ts


def parse_document(obj) -> Document:
    """Validate one JSON-decoded document record; ValueError says what is wrong."""
    check_record(obj, REQUIRED_KEYS)
    doc_id, author_id, ts = parse_source(obj)
    deleted = obj.get("deleted", False)
    if not has_type(deleted, bool):
        raise ValueError(f"deleted is {deleted!r}, not a bool")
    return Document(
        doc_id=doc_id,
        title=_text(obj, "title"),
        body=_text(obj, "body"),
        author_id=author_id,
        timestamp=ts,
        deleted=deleted,
    )


def decode_json(text: str):
    """json.loads(text), where a value nested past the recursion limit
    raises ValueError, as other invalid JSON does, not RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def read_json(path: str | Path):
    """decode_json of a UTF-8 file's text; a file that is not UTF-8 raises
    ValueError giving the offset of its first bad byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8 at byte {exc.start}") from None
    return decode_json(text)


def _parse_lines(path: str | Path, parse, decode) -> Iterator[tuple[int, object, str | None]]:
    """The one line loop: (line number, parse(decode(line)), None) for each
    non-blank line, in file order, or (line number, None, reason) for a line
    that is not valid UTF-8 (surrogateescape reads a bad byte as a lone
    surrogate, which UTF-8 cannot encode) or that decode or parse rejects
    with ValueError (json.JSONDecodeError is one)."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ValueError("line is not valid UTF-8") from None
                yield lineno, parse(decode(line)), None
            except json.JSONDecodeError as exc:
                yield lineno, None, f"invalid JSON: {exc.msg}"
            except ValueError as exc:
                yield lineno, None, str(exc)


def read_records(path: str | Path, parse, what: str, decode=decode_json) -> Iterator:
    """parse(decode(line)) for each non-blank line of a file, in file order;
    decode is decode_json for a JSONL file. A line that decode or parse
    rejects with ValueError raises ValueError '<what> line N: <reason>';
    records before it have already been yielded."""
    for lineno, item, reason in _parse_lines(path, parse, decode):
        if reason is not None:
            raise ValueError(f"{what} line {lineno}: {reason}")
        yield item


def read_corpus(path: str | Path) -> Iterator[tuple[int, Document | None, str | None]]:
    """The one corpus reader, lazy: (line number, Document, None) for each valid
    record in file order, or (line number, None, reason) for a bad line."""
    return _parse_lines(path, parse_document, decode_json)


def ingest_jsonl(path: str | Path) -> tuple[list[Document], list[IngestError]]:
    """Load a corpus file. A malformed line or invalid record becomes an
    IngestError and the load continues past it; a later record with the
    same doc_id supersedes an earlier one (the document keeps its original
    position)."""
    docs: dict[str, Document] = {}
    errors: list[IngestError] = []
    for lineno, doc, reason in read_corpus(path):
        if reason is None:
            docs[doc.doc_id] = doc
        else:
            errors.append(IngestError(lineno, reason))
    return list(docs.values()), errors


def read_word_list(path) -> set[str]:
    """The one word-list format: one entry per line, stripped and
    lowercased; blank lines and lines starting with '#' or ';' are skipped."""
    entries = read_records(path, str.strip, f"word list {path}", decode=str)
    return {word.lower() for word in entries if not word.startswith(("#", ";"))}


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Abbreviation list file: a word list (see read_word_list) whose
    entries may end in '.'."""
    return frozenset(word.rstrip(".") for word in read_word_list(path))


def _is_abbreviation(body: str, dot_pos: int, abbreviations: frozenset[str]) -> bool:
    """True if the '.' at dot_pos ends an abbreviation rather than a sentence."""
    i = dot_pos
    while i > 0 and (body[i - 1].isalnum() or body[i - 1] == "."):
        i -= 1
    word = body[i:dot_pos].rstrip(".")
    if not word:
        return False
    if len(word) == 1 and word.isupper():
        return True
    return word.lower() in abbreviations


def split_sentences(
    doc: Document,
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
) -> list[Sentence]:
    """Split a document into sentences.

    A sentence ends after each '.', '!' or '?' and at each blank line (two
    newlines with only spaces, tabs or carriage returns between them); a
    '.' that ends an abbreviation does not end one. The text after the last
    boundary is the last sentence. The title, when present, becomes the
    first sentence with from_title=True. Each sentence's text is stripped,
    so a blank line's whitespace falls to neither side, and an empty one
    is dropped.
    """
    sentences: list[Sentence] = []
    title = doc.title.strip()
    if title:
        sentences.append(Sentence(doc.doc_id, 0, title, from_title=True))

    body = doc.body
    ends = [
        m.end()
        for m in _BOUNDARY_RE.finditer(body)
        if not (m.group() == "." and _is_abbreviation(body, m.start(), abbreviations))
    ]
    prev = 0
    for end in (*ends, len(body)):
        text = body[prev:end].strip()
        if text:
            sentences.append(Sentence(doc.doc_id, len(sentences), text))
        prev = end
    return sentences


def tokenize(sentence: Sentence) -> list[str]:
    """Whitespace chunks with leading and trailing punctuation peeled off
    one character per token. Internal hyphens and apostrophes stay
    attached, and a chunk of punctuation only stays whole. Punctuation is
    any character for which str.isalnum() is false.
    """
    return _TOKEN_RE.findall(sentence.text)
