"""Corpus ingestion, sentence segmentation and tokenization.

Everything here is pure and deterministic so documents can be processed
in parallel without coordination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


DEFAULT_ABBREVIATIONS = frozenset(
    {"dr", "mr", "mrs", "ms", "prof", "inc", "corp", "etc", "e.g", "i.e", "vs"}
)

REQUIRED_KEYS = ("doc_id", "title", "body", "author_id", "timestamp")

_TERMINATORS = {".", "!", "?"}


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
    start: int
    end: int
    text: str
    from_title: bool = False


@dataclass(frozen=True)
class Token:
    word_index: int
    start: int
    end: int
    surface: str


@dataclass(frozen=True)
class IngestError:
    line_number: int
    reason: str


def parse_doc_id(value) -> str:
    """The doc-id rule of every input record: a non-empty string, or an
    integer read as its decimal string, so 77 and "77" name one document."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"doc_id is {value!r}, not a string or an integer")
    if value == "":
        raise ValueError("doc_id is empty")
    return str(value)


def parse_source(obj: dict) -> tuple[str, str, float]:
    """(doc_id, author_id, timestamp) of a record that has those keys, by
    the rules of every document record; ValueError says what is wrong."""
    try:
        ts = float(obj["timestamp"])
    except (TypeError, ValueError):
        raise ValueError("timestamp is not numeric") from None
    if ts < 0:
        raise ValueError("timestamp is negative")
    return parse_doc_id(obj["doc_id"]), str(obj["author_id"]), ts


def parse_document(obj) -> Document:
    """Validate one JSON-decoded document record; ValueError says what is wrong."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    missing = [k for k in REQUIRED_KEYS if k not in obj]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    doc_id, author_id, ts = parse_source(obj)
    return Document(
        doc_id=doc_id,
        title=str(obj["title"]),
        body=str(obj["body"]),
        author_id=author_id,
        timestamp=ts,
        deleted=bool(obj.get("deleted", False)),
    )


def _parse_lines(path: str | Path, parse) -> Iterator[tuple[int, object, str | None]]:
    """The one JSONL line loop: (line number, parse(record), None) for each
    non-blank line, in file order, or (line number, None, reason) for a line
    that is not JSON or whose record parse rejects with ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, parse(json.loads(line)), None
            except json.JSONDecodeError as exc:
                yield lineno, None, f"invalid JSON: {exc.msg}"
            except ValueError as exc:
                yield lineno, None, str(exc)


def read_records(path: str | Path, parse, what: str) -> Iterator:
    """parse(record) for each non-blank line of a JSONL file, in file order.
    A line that is not JSON, or whose record parse rejects with ValueError,
    raises ValueError '<what> line N: <reason>'; records before it have
    already been yielded."""
    for lineno, item, reason in _parse_lines(path, parse):
        if reason is not None:
            raise ValueError(f"{what} line {lineno}: {reason}")
        yield item


def read_jsonl(path: str | Path) -> Iterator[Document | IngestError]:
    """Stream documents from a JSONL file in file order.

    Malformed lines and invalid records become IngestError records; the
    stream continues past them.
    """
    for lineno, doc, reason in _parse_lines(path, parse_document):
        yield doc if reason is None else IngestError(lineno, reason)


def ingest_jsonl(path: str | Path) -> tuple[list[Document], list[IngestError]]:
    """Load a corpus file; a later record with the same doc_id supersedes
    an earlier one (the document keeps its original position)."""
    docs: dict[str, Document] = {}
    errors: list[IngestError] = []
    for item in read_jsonl(path):
        if isinstance(item, IngestError):
            errors.append(item)
        else:
            docs[item.doc_id] = item
    return list(docs.values()), errors


def read_word_list(path) -> set[str]:
    """The one word-list format: one entry per line, stripped and
    lowercased; blank lines and lines starting with '#' or ';' are skipped."""
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith(("#", ";")):
                words.add(word.lower())
    return words


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

    Terminators are '.', '!', '?' and a blank line; a '.' that ends an
    abbreviation does not split. The title, when present, becomes the
    first sentence with from_title=True (its span indexes the title text).
    """
    sentences: list[Sentence] = []
    title = doc.title.strip()
    if title:
        start = doc.title.index(title)
        sentences.append(
            Sentence(doc.doc_id, 0, start, start + len(title), title, from_title=True)
        )

    body = doc.body
    n = len(body)
    seg_start = 0
    i = 0
    boundaries: list[int] = []  # exclusive end of each segment
    while i < n:
        ch = body[i]
        if ch in _TERMINATORS:
            if ch == "." and _is_abbreviation(body, i, abbreviations):
                i += 1
                continue
            boundaries.append(i + 1)
            seg_start = i + 1
            i += 1
        elif ch == "\n":
            j = i + 1
            while j < n and body[j] in " \t\r":
                j += 1
            if j < n and body[j] == "\n":
                boundaries.append(i)
                seg_start = j + 1
                i = j + 1
            else:
                i += 1
        else:
            i += 1
    if seg_start < n:
        boundaries.append(n)

    prev = 0
    for end in boundaries:
        raw = body[prev:end]
        stripped = raw.strip()
        if stripped:
            lead = len(raw) - len(raw.lstrip())
            trail = len(raw) - len(raw.rstrip())
            s = prev + lead
            e = end - trail
            sentences.append(
                Sentence(doc.doc_id, len(sentences), s, e, body[s:e], from_title=False)
            )
        prev = end
    return sentences


def _is_punct(ch: str) -> bool:
    return not ch.isalnum()


def tokenize(sentence: Sentence) -> list[Token]:
    """Whitespace tokenization with leading/trailing punctuation detached
    as individual tokens. Internal hyphens and apostrophes stay attached.
    """
    tokens: list[Token] = []
    text = sentence.text
    pos = 0
    for chunk in text.split():
        start = text.index(chunk, pos)
        pos = start + len(chunk)
        lo, hi = 0, len(chunk)
        # peel leading punctuation, one char per token
        lead_end = lo
        while lead_end < hi and _is_punct(chunk[lead_end]):
            lead_end += 1
        if lead_end == hi:
            # all-punctuation chunk stays whole
            tokens.append(Token(len(tokens), start, start + len(chunk), chunk))
            continue
        trail_start = hi
        while trail_start > lead_end and _is_punct(chunk[trail_start - 1]):
            trail_start -= 1
        for k in range(lo, lead_end):
            tokens.append(Token(len(tokens), start + k, start + k + 1, chunk[k]))
        core = chunk[lead_end:trail_start]
        tokens.append(
            Token(len(tokens), start + lead_end, start + trail_start, core)
        )
        for k in range(trail_start, hi):
            tokens.append(Token(len(tokens), start + k, start + k + 1, chunk[k]))
    return tokens
