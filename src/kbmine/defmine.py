"""Definition mining: sentence classification, pattern extraction and
opinion filtering, composed over one document's sentences by mine_definitions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

# split_sentences is unused here, but bench/tracing.py patches this binding
from .corpus import Sentence, read_word_list, split_sentences  # noqa: F401
from .nertag import check_weights, hash_features, read_npz
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
        if not isinstance(self.template, str):
            raise ValueError(f"pattern template is not a string: {self.template!r}")
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise ValueError(f"pattern priority is not an integer: {self.priority!r}")
        m = re.match(r"\{topic\}\s*(.+?)\s*\{description\}", self.template)
        connective = m.group(1) if m else ""
        if not connective.strip():
            raise ValueError(f"bad pattern template: {self.template!r}")
        object.__setattr__(self, "connective", connective)
        object.__setattr__(
            self, "regex", re.compile(rf"\b{re.escape(connective)}\b", re.IGNORECASE)
        )

    @property
    def pattern_id(self) -> str:
        return self.connective.replace(" ", "_")


DEFAULT_PATTERNS = tuple(
    DefinitionPattern(f"{{topic}} {conn} {{description}}", i)
    for i, conn in enumerate(
        ["is defined as", "is a", "is an", "refers to", "refer to", "means", "stands for"]
    )
)


def _find_connective(text: str, patterns) -> tuple[DefinitionPattern, int, int] | None:
    """First pattern (by priority) whose connective occurs; returns the
    pattern and the [start, end) of the connective match."""
    for pat in sorted(patterns, key=lambda p: p.priority):
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


class OpinionLexicon:
    def __init__(self, negative: set[str], positive: set[str]):
        self.negative = {w.lower() for w in negative}
        self.positive = {w.lower() for w in positive}
        overlap = self.negative & self.positive
        if overlap:
            raise ValueError(f"lexicon sets overlap: {sorted(overlap)[:5]}")

    @classmethod
    def load(cls, negative_path=None, positive_path=None) -> "OpinionLexicon":
        if negative_path is None or positive_path is None:
            data = resources.files("kbmine") / "data"
            negative_path = negative_path or data / "negative_words.txt"
            positive_path = positive_path or data / "positive_words.txt"
        return cls(read_word_list(negative_path), read_word_list(positive_path))


_WORD_RE = re.compile(r"[a-z0-9']+")


def opinion_filter(text: str, lexicon: OpinionLexicon) -> tuple[bool, str | None]:
    """(keep, reason): drop when any token hits the negative set; the reason
    is the first matching word."""
    for word in _WORD_RE.findall(text.lower()):
        if word in lexicon.negative:
            return False, word
    return True, None


# ---------------------------------------------------------------------------
# Sentence classification
# ---------------------------------------------------------------------------


class RuleClassifier:
    """Pattern-and-heuristic classifier; cannot tell Informational from
    Sufficient (mirrors the binary evaluation of the rule baseline)."""

    kind = "rule-based"

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
    """Multinomial logistic regression over hashed uni/bigram features."""

    kind = "linear"

    def __init__(self, weights: np.ndarray, hash_dim: int):
        self.weights = weights  # (hash_dim, 5)
        self.hash_dim = hash_dim

    def _logits(self, text: str) -> np.ndarray:
        return self.weights[hash_features(_ngram_features(text), self.hash_dim)].sum(axis=0)

    def classify(self, text: str) -> tuple[DefinitionCategory, float]:
        logits = self._logits(text)
        z = logits - logits.max()
        probs = np.exp(z) / np.exp(z).sum()
        k = int(np.argmax(probs))
        return CATEGORIES[k], float(probs[k])

    def save(self, path: str | Path) -> None:
        np.savez(path, weights=self.weights, hash_dim=self.hash_dim)

    @classmethod
    def load(cls, path: str | Path) -> "LinearClassifier":
        """ValueError names the file and what is wrong with it."""
        data = read_npz(path, ("weights", "hash_dim"), "classifier model")
        shape = (data["hash_dim"], len(CATEGORIES))
        check_weights(path, data["weights"], shape, "classifier model")
        return cls(weights=data["weights"], hash_dim=data["hash_dim"])


def train_sentence_classifier(
    rows: list[tuple[str, DefinitionCategory]], config: ClassifierConfig | None = None
) -> LinearClassifier:
    if not rows:
        raise ValueError("no training rows")
    if len({cat for _, cat in rows}) < 2:
        raise ValueError("need at least two categories in training data")
    config = config or ClassifierConfig()
    cat_index = {c: i for i, c in enumerate(CATEGORIES)}
    rng = np.random.default_rng(config.seed)

    examples = [
        (hash_features(_ngram_features(text), config.hash_dim), cat_index[cat])
        for text, cat in rows
    ]

    weights = np.zeros((config.hash_dim, len(CATEGORIES)))
    order = np.arange(len(examples))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for ex in order:
            idx, gold = examples[ex]
            logits = weights[idx].sum(axis=0)
            z = logits - logits.max()
            probs = np.exp(z) / np.exp(z).sum()
            grad = probs.copy()
            grad[gold] -= 1.0
            weights[idx] -= config.learning_rate * grad
    return LinearClassifier(weights, config.hash_dim)


# ---------------------------------------------------------------------------
# Per-document pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefinitionRecord:
    topic_key: str
    topic_surface: str
    sentence_text: str
    doc_id: str
    sentence_index: int
    category: DefinitionCategory
    pattern_id: str
    confidence: float

    def to_dict(self) -> dict:
        return {
            "topic_key": self.topic_key,
            "topic_surface": self.topic_surface,
            "sentence_text": self.sentence_text,
            "doc_id": self.doc_id,
            "sentence_index": self.sentence_index,
            "category": self.category.value,
            "pattern_id": self.pattern_id,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, d) -> "DefinitionRecord":
        """Inverse of to_dict; ValueError says what is wrong with a bad record."""
        if not isinstance(d, dict):
            raise ValueError("record is not a JSON object")
        wrong = sorted(d.keys() ^ cls.__dataclass_fields__.keys())
        if wrong:
            raise ValueError(f"missing or unknown keys: {', '.join(wrong)}")
        types = {"sentence_index": (int,), "confidence": (int, float)}
        for name, value in d.items():
            if name != "category" and type(value) not in types.get(name, (str,)):
                raise ValueError(f"wrong type for {name}: {value!r}")
        return cls(**{**d, "category": DefinitionCategory(d["category"])})


def mine_definitions(
    sentences: list[Sentence],
    classifier,
    patterns=DEFAULT_PATTERNS,
    lexicon: OpinionLexicon | None = None,
) -> list[DefinitionRecord]:
    """One document's sentences -> extract topic -> classify (keep
    Sufficient) -> opinion filter. Both of the first two checks are pure and
    must pass, so extracting first only spares the classifier every sentence
    without a topic."""
    lexicon = lexicon or OpinionLexicon.load()
    records = []
    for sentence in sentences:
        extracted = extract_topic(sentence.text, patterns)
        if extracted is None:
            continue
        category, confidence = classifier.classify(sentence.text)
        if category is not DefinitionCategory.SUFFICIENT:
            continue
        topic_surface, _, pattern = extracted
        keep, _ = opinion_filter(sentence.text, lexicon)
        if not keep:
            continue
        try:
            key = normalize_key(topic_surface)
        except ValueError:
            continue
        records.append(
            DefinitionRecord(
                topic_key=key,
                topic_surface=topic_surface,
                sentence_text=sentence.text,
                doc_id=sentence.doc_id,
                sentence_index=sentence.index,
                category=category,
                pattern_id=pattern.pattern_id,
                confidence=confidence,
            )
        )
    return records


def eval_rule_baseline(rows: list[tuple[str, int]]) -> tuple[float, float, float]:
    """(F1, precision, recall) of the rule classifier treating
    Sufficient-vs-others as the binary task."""
    labels = [lab for _, lab in rows]
    if set(labels) != {0, 1}:
        raise ValueError("need both binary labels present")
    clf = RuleClassifier()
    preds = [int(clf.classify(text)[0] is DefinitionCategory.SUFFICIENT) for text, _ in rows]
    return prf1(preds, labels)


def prf1(preds: list[int], labels: list[int]) -> tuple[float, float, float]:
    """Binary (F1, precision, recall) helper for classifier comparisons."""
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f1, precision, recall


def load_patterns(path: str | Path) -> tuple[DefinitionPattern, ...]:
    """Pattern file: JSON list of {template, priority}. ValueError names the
    file and the first entry or key that is wrong."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            items = json.load(fh)
        if not isinstance(items, list):
            raise ValueError("not a JSON list")
        return tuple(_pattern_entry(i, item) for i, item in enumerate(items))
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"pattern file {path}: {exc}") from None


def _pattern_entry(i: int, item) -> DefinitionPattern:
    if not isinstance(item, dict):
        raise ValueError(f"entry {i} is not a JSON object")
    wrong = sorted(item.keys() ^ {"template", "priority"})
    if wrong:
        raise ValueError(f"entry {i} has missing or unknown keys: {', '.join(wrong)}")
    try:
        return DefinitionPattern(item["template"], item["priority"])
    except ValueError as exc:
        raise ValueError(f"entry {i}: {exc}") from None


def load_training_csv(path: str | Path) -> list[tuple[str, DefinitionCategory]]:
    """Classifier training data: CSV 'category,text' (text may contain
    commas). A row with an unknown category raises ValueError naming the
    file and the line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cat, _, text = line.partition(",")
            try:
                rows.append((text, DefinitionCategory(cat)))
            except ValueError as exc:
                raise ValueError(f"classifier data {path} line {lineno}: {exc}") from None
    return rows
