"""Definition mining: sentence classification, pattern extraction and
opinion filtering, composed over one document's sentences by mine_definitions.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from enum import Enum
from importlib import resources
from operator import attrgetter
from pathlib import Path

import numpy as np

from .corpus import Sentence, check_record, has_type, read_json, read_records, read_word_list
# split_sentences is unused here, but bench/tracing.py patches this binding
from .corpus import split_sentences  # noqa: F401
from .nertag import TrainConfig, fit_hashed, hash_features, read_npz, read_weights
from .topicrank import normalize_key


class DefinitionCategory(Enum):
    SUFFICIENT = "Sufficient"
    INFORMATIONAL = "Informational"
    REFERENTIAL = "Referential"
    PERSONAL = "Personal"
    NON_DEFINITION = "NonDefinition"


CATEGORIES = tuple(DefinitionCategory)

DETERMINERS = {"a", "an", "the"}
PRONOUNS = {"it", "this", "that", "these", "those", "he", "she", "they", "we", "i", "you"}
REFERENTIAL_SUBJECTS = {"it", "this", "that", "these"}

OCCUPATION_CUES = {
    "accountant", "administrator", "analyst", "architect", "assistant",
    "ceo", "consultant", "coordinator", "cto", "designer", "developer",
    "director", "doctor", "editor", "engineer", "founder", "intern",
    "lawyer", "lead", "manager", "nurse", "officer", "president",
    "professor", "researcher", "scientist", "specialist", "student",
    "teacher", "writer",
}


@dataclass(frozen=True)
class DefinitionPattern:
    """A "{topic} <connective> {description}" template. The connective and
    its whole-word, case-insensitive regex are parsed once, when the pattern
    is built; a template without a connective between the two slots raises
    ValueError then."""

    template: str
    priority: int
    connective: str = field(init=False, compare=False, repr=False)
    regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not has_type(self.template, str):
            raise ValueError(f"pattern template is not a string: {self.template!r}")
        if not has_type(self.priority, int):
            raise ValueError(f"pattern priority is not an integer: {self.priority!r}")
        m = re.match(r"\{topic\}\s*(.+?)\s*\{description\}", self.template)
        connective = m.group(1) if m else ""
        if not connective.strip():
            raise ValueError(f"bad pattern template: {self.template!r}")
        object.__setattr__(self, "connective", connective)
        object.__setattr__(
            self, "regex", re.compile(rf"\b{re.escape(connective)}\b", re.IGNORECASE)
        )


DEFAULT_PATTERNS = tuple(
    DefinitionPattern(f"{{topic}} {conn} {{description}}", i)
    for i, conn in enumerate(
        ["is defined as", "is a", "is an", "refers to", "refer to", "means", "stands for"]
    )
)


_BY_PRIORITY = attrgetter("priority")


def _find_connective(text: str, patterns) -> tuple[DefinitionPattern, int, int] | None:
    """First pattern (by priority) whose connective occurs; returns the
    pattern and the [start, end) of the connective match. IGNORECASE folds
    an ASCII letter onto ASCII letters only, so where the text and the
    connective are both ASCII, a regex match needs the lowered connective in
    the lowered text, and a pattern without it is skipped unsearched."""
    lowered = text.lower() if text.isascii() else None
    for pat in sorted(patterns, key=_BY_PRIORITY):
        if lowered is not None and pat.connective.isascii():
            if pat.connective.lower() not in lowered:
                continue
        m = pat.regex.search(text)
        if m:
            return pat, m.start(), m.end()
    return None


def extract_topic(
    text: str, patterns=DEFAULT_PATTERNS
) -> tuple[str, str, DefinitionPattern] | None:
    """(topic surface, description, pattern) from the first matching
    pattern, or None."""
    return _topic_at(text, _find_connective(text, patterns))


def _topic_at(text: str, hit) -> tuple[str, str, DefinitionPattern] | None:
    """extract_topic for a _find_connective result already in hand."""
    if hit is None:
        return None
    pattern, start, end = hit
    topic = text[:start].strip()
    words = topic.split()
    while words and words[0].lower() in DETERMINERS:
        words = words[1:]
    topic = " ".join(words).strip(" ,;:\"'()")
    if not topic or topic.lower() in PRONOUNS:
        return None
    description = text[end:].strip()
    if not description:
        return None
    return topic, description, pattern


def load_negative_words(path=None) -> frozenset[str]:
    """The opinion filter's negative word list at path, or the packaged one."""
    if path is None:
        path = resources.files("kbmine") / "data" / "negative_words.txt"
    return frozenset(read_word_list(path))


_WORD_RE = re.compile(r"[a-z0-9']+")


def opinion_filter(text: str, negative: frozenset[str]) -> tuple[bool, str | None]:
    """(keep, reason): drop when any token is in the negative word set; the
    reason is the first matching word."""
    for word in _WORD_RE.findall(text.lower()):
        if word in negative:
            return False, word
    return True, None


# ---------------------------------------------------------------------------
# Sentence classification
# ---------------------------------------------------------------------------


class RuleClassifier:
    """Pattern-and-heuristic classifier; cannot tell Informational from
    Sufficient (mirrors the binary evaluation of the rule baseline)."""

    def __init__(self, patterns=DEFAULT_PATTERNS):
        self.patterns = patterns

    def classify(self, text: str) -> tuple[DefinitionCategory, float]:
        words = text.split()
        if not words:
            return DefinitionCategory.NON_DEFINITION, 0.5
        first = words[0].strip(" ,\"'()").lower()
        if first in REFERENTIAL_SUBJECTS:
            return DefinitionCategory.REFERENTIAL, 1.0

        hit = _find_connective(text, self.patterns)
        if hit is None:
            return DefinitionCategory.NON_DEFINITION, 0.5
        pat, start, end = hit
        subject = text[:start].split()
        if not subject or subject[-1].lower() in PRONOUNS:
            return DefinitionCategory.NON_DEFINITION, 0.5

        if (
            len(subject) == 1
            and subject[0][:1].isupper()
            and pat.connective in ("is a", "is an")
        ):
            head = text[end:].split()[:4]
            if any(w.strip(" ,.").lower() in OCCUPATION_CUES for w in head):
                return DefinitionCategory.PERSONAL, 1.0

        if _topic_at(text, hit) is None:
            return DefinitionCategory.NON_DEFINITION, 0.5
        return DefinitionCategory.SUFFICIENT, 1.0


def _ngram_features(text: str) -> list[str]:
    words = _WORD_RE.findall(text.lower())
    feats = [f"u={w}" for w in words]
    feats += [f"b={a}_{b}" for a, b in zip(words, words[1:])]
    feats.append("bias")
    return feats


@dataclass
class ClassifierConfig:
    epochs: int = 20
    learning_rate: float = 0.2
    seed: int = 0
    hash_dim: int = 1 << 16


class LinearClassifier:
    """Multinomial logistic regression over hashed uni/bigram features,
    stored as nertag.TaggerModel is: the nonzero rows of (hash_dim, 5) weights."""

    def __init__(self, rows: np.ndarray, weights: np.ndarray, hash_dim: int):
        self.rows = rows  # (n_rows,) strictly increasing ints in [0, hash_dim)
        self.weights = weights  # (n_rows, 5)
        self.hash_dim = hash_dim

    def classify(self, text: str) -> tuple[DefinitionCategory, float]:
        # the stored rows of text's ids, in ascending id order, sum bitwise as
        # the dense rows do: a zero row adds +0.0, and trained weights hold no -0.0
        ids = hash_features(_ngram_features(text), self.hash_dim)
        pos = np.searchsorted(self.rows, ids)
        inside = pos < len(self.rows)
        pos, ids = pos[inside], ids[inside]
        logits = self.weights[pos[self.rows[pos] == ids]].sum(axis=0)
        z = logits - logits.max()
        probs = np.exp(z) / np.exp(z).sum()
        k = int(np.argmax(probs))
        return CATEGORIES[k], float(probs[k])

    def save(self, path: str | Path) -> None:
        np.savez(path, rows=self.rows, weights=self.weights, hash_dim=self.hash_dim)

    @classmethod
    def load(cls, path: str | Path) -> "LinearClassifier":
        """ValueError names the file and what is wrong with it (see nertag.read_weights)."""
        what = "classifier model"
        data = read_npz(path, ("weights", "hash_dim"), what)
        return cls(*read_weights(path, data, len(CATEGORIES), what), data["hash_dim"])


def train_sentence_classifier(
    rows: list[tuple[str, DefinitionCategory]], config: ClassifierConfig | None = None
) -> LinearClassifier:
    """nertag.fit_hashed on cross-entropy, its focal loss at gamma 0, over
    each row's hashed uni/bigram features. Deterministic per seed."""
    if not rows:
        raise ValueError("no training rows")
    if len({cat for _, cat in rows}) < 2:
        raise ValueError("need at least two categories in training data")
    config = config or ClassifierConfig()
    examples = [
        (hash_features(_ngram_features(text), config.hash_dim), CATEGORIES.index(cat))
        for text, cat in rows
    ]
    sgd = TrainConfig(gamma=0.0, **asdict(config))
    stored, weights, _ = fit_hashed(examples, len(CATEGORIES), sgd)
    return LinearClassifier(stored, weights, config.hash_dim)


# ---------------------------------------------------------------------------
# Per-document pipeline
# ---------------------------------------------------------------------------


# a saved definition's keys, in the order to_dict writes them, and their kinds
_SAVED_KINDS = {"topic_key": str, "sentence_text": str, "sentence_index": int, "confidence": float}


@dataclass(frozen=True)
class DefinitionRecord:
    """A Sufficient, opinion-free definition sentence of one document. Its
    saved form leaves out doc_id: the state line that holds it names the
    document."""

    topic_key: str
    sentence_text: str
    doc_id: str
    sentence_index: int
    confidence: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _SAVED_KINDS}

    @classmethod
    def from_dict(cls, d, doc_id: str) -> "DefinitionRecord":
        """Inverse of to_dict for a definition of doc_id; ValueError says
        what is wrong with a bad record."""
        for name, value in check_record(d, _SAVED_KINDS, exact=True).items():
            if not has_type(value, _SAVED_KINDS[name]):
                raise ValueError(f"wrong type for {name}: {value!r}")
        return cls(doc_id=doc_id, **d)


def mine_definitions(
    sentences: list[Sentence], classifier, patterns, negative: frozenset[str]
) -> list[DefinitionRecord]:
    """One document's sentences -> extract topic -> classify (keep
    Sufficient) -> opinion filter. Both of the first two checks are pure and
    must pass, so extracting first only spares the classifier every sentence
    without a topic."""
    records = []
    for sentence in sentences:
        extracted = extract_topic(sentence.text, patterns)
        if extracted is None:
            continue
        category, confidence = classifier.classify(sentence.text)
        if category is not DefinitionCategory.SUFFICIENT:
            continue
        keep, _ = opinion_filter(sentence.text, negative)
        if not keep:
            continue
        try:
            key = normalize_key(extracted[0])  # the topic surface
        except ValueError:
            continue
        records.append(
            DefinitionRecord(
                topic_key=key,
                sentence_text=sentence.text,
                doc_id=sentence.doc_id,
                sentence_index=sentence.index,
                confidence=confidence,
            )
        )
    return records


def load_patterns(path: str | Path) -> tuple[DefinitionPattern, ...]:
    """Pattern file: JSON list of {template, priority}. ValueError names the
    file and the first entry or key that is wrong."""
    try:
        items = read_json(path)
        if not isinstance(items, list):
            raise ValueError("not a JSON list")
        return tuple(_pattern_entry(i, item) for i, item in enumerate(items))
    except ValueError as exc:  # invalid JSON included
        raise ValueError(f"pattern file {path}: {exc}") from None


def _pattern_entry(i: int, item) -> DefinitionPattern:
    try:
        check_record(item, ("template", "priority"), exact=True)
        return DefinitionPattern(item["template"], item["priority"])
    except ValueError as exc:
        raise ValueError(f"entry {i}: {exc}") from None


def load_training_csv(path: str | Path) -> list[tuple[str, DefinitionCategory]]:
    """Classifier training data: CSV 'category,text' (text may contain
    commas). A row with an unknown category raises ValueError naming the
    file and the line."""
    def parse(line: str) -> tuple[str, DefinitionCategory]:
        cat, _, text = line.rstrip("\n").partition(",")
        return text, DefinitionCategory(cat)

    return list(read_records(path, parse, f"classifier data {path}", decode=str))
