"""Token tagging over the BIO label set.

A hashed-feature softmax classifier scores every token against the label
set; Viterbi decoding then finds the highest-scoring *valid* BIO path.
The decoder and loss are scorer-agnostic: score matrices may also come
from an external file (see load_external_scores).
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import parse_doc_id, read_records

DEFAULT_ENTITY_TYPES = (
    "person",
    "organization",
    "location",
    "product",
    "project",
    "field_of_study",
    "creative_work",
    "event",
)

NEG_INF = -1e30


class LabelSet:
    """O plus B-t/I-t per entity type, with a stable ordinal mapping.

    Immutable. The transition masks are built once from transition_ok and
    are read-only: transition_mask[p, c] is True where label c may follow
    label p, start_mask[c] where c may open a sentence, and transition_scores
    and start_scores are the same masks as additive 0/NEG_INF arrays.
    """

    def __init__(self, entity_types=DEFAULT_ENTITY_TYPES):
        self.entity_types = tuple(entity_types)
        labels = ["O"]
        for t in self.entity_types:
            labels.append(f"B-{t}")
            labels.append(f"I-{t}")
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}
        L = len(labels)
        self.transition_mask = _read_only(
            np.array([[self.transition_ok(p, c) for c in range(L)] for p in range(L)], dtype=bool)
        )
        self.start_mask = _read_only(
            np.array([self.transition_ok(None, c) for c in range(L)], dtype=bool)
        )
        self.transition_scores = _read_only(np.where(self.transition_mask, 0.0, NEG_INF))
        self.start_scores = _read_only(np.where(self.start_mask, 0.0, NEG_INF))

    def __len__(self):
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def label(self, ordinal: int) -> str:
        return self.labels[ordinal]

    def entity_type_of(self, ordinal: int) -> str | None:
        lab = self.labels[ordinal]
        return None if lab == "O" else lab[2:]

    def is_begin(self, ordinal: int) -> bool:
        return self.labels[ordinal].startswith("B-")

    def is_inside(self, ordinal: int) -> bool:
        return self.labels[ordinal].startswith("I-")

    def transition_ok(self, prev: int | None, cur: int) -> bool:
        """Strict BIO: I-t only directly after B-t or I-t (start counts as O)."""
        if not self.is_inside(cur):
            return True
        if prev is None:
            return False
        if not (self.is_begin(prev) or self.is_inside(prev)):
            return False
        return self.entity_type_of(prev) == self.entity_type_of(cur)

    def is_valid_sequence(self, ordinals) -> bool:
        prev = None
        for cur in ordinals:
            if not (self.start_mask[cur] if prev is None else self.transition_mask[prev, cur]):
                return False
            prev = cur
        return True


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def focal_loss(probs: np.ndarray, gold: int, gamma: float) -> tuple[float, np.ndarray]:
    """Focal loss on the gold-class probability with gradient w.r.t. logits.

    loss = -(1-p)^gamma * log(p). gamma=0 reduces to cross-entropy.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    probs = np.asarray(probs, dtype=np.float64)
    if abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError("probs must sum to 1")
    p = float(probs[gold])
    p = max(p, 1e-12)
    one_minus = max(1.0 - p, 0.0)
    loss = -(one_minus**gamma) * np.log(p)
    # d loss / d p, with the gamma=0 and p->1 corner cases kept finite
    if gamma == 0.0:
        dldp = -1.0 / p
    elif one_minus == 0.0:
        dldp = 0.0  # both terms vanish at p=1 for gamma > 0
    else:
        dldp = gamma * (one_minus ** (gamma - 1.0)) * np.log(p) - (one_minus**gamma) / p
    # dp/dz_k = p * (delta_k,gold - probs_k)
    grad = dldp * p * (-probs)
    grad[gold] += dldp * p
    return float(loss), grad


@dataclass
class LabeledSentence:
    tokens: list[str]
    labels: list[str]
    from_title: bool = False

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels must align")


def word_shape(word: str) -> str:
    shape = []
    for ch in word:
        if ch.isupper():
            c = "X"
        elif ch.islower():
            c = "x"
        elif ch.isdigit():
            c = "9"
        else:
            c = ch
        if not shape or shape[-1] != c:
            shape.append(c)
    return "".join(shape)


_BIAS = "bias"
_TITLE = "title"


def featurize(index: int, tokens: list[str], from_title: bool = False) -> list[str]:
    """Sparse feature strings for one token position."""
    prev = tokens[index - 1].lower() if index > 0 else "<s>"
    nxt = tokens[index + 1].lower() if index + 1 < len(tokens) else "</s>"
    feats = [_BIAS, *_word_features(tokens[index])]
    feats += [_context_features(prev)[0], _context_features(nxt)[1]]
    if from_title:
        feats.append(_TITLE)
    return feats


def _word_features(word: str) -> list[str]:
    """The features of a token that depend on its own word only."""
    lower = word.lower()
    feats = [f"w={lower}", f"shape={word_shape(word)}"]
    for k in (1, 2, 3):
        if len(word) >= k:
            feats.append(f"pre{k}={lower[:k]}")
            feats.append(f"suf{k}={lower[-k:]}")
    return feats


def _context_features(lower: str) -> tuple[str, str]:
    """The features a lowercased word gives its right neighbour (prev=)
    and its left neighbour (next=)."""
    return f"prev={lower}", f"next={lower}"


def _feature_id(feature: str, dim: int) -> int:
    return zlib.crc32(feature.encode("utf-8")) % dim


def _feature_ids(feats, dim: int) -> tuple[int, ...]:
    return tuple(_feature_id(f, dim) for f in feats)


def hash_features(feats: list[str], dim: int) -> np.ndarray:
    return np.array(sorted(set(_feature_ids(feats, dim))))


# Entries each TaggerModel memo may hold before it is cleared.
_MEMO_LIMIT = 1 << 16


@dataclass
class TaggerModel:
    weights: np.ndarray  # (hash_dim, n_labels)
    labelset: LabelSet
    gamma: float
    hash_dim: int
    # hashed-id memos, never saved: word -> sorted ids of its word features,
    # lowercased word -> (its prev= id, its next= id)
    _word_ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _context_ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def feature_ids(self, tokens: list[str], from_title: bool = False) -> list[tuple[int, ...]]:
        """Per token, the sorted unique ids of hash_features(featurize(...))."""
        dim = self.hash_dim
        word_ids, context_ids = self._word_ids, self._context_ids
        fixed = [_feature_id(_BIAS, dim)]
        if from_title:
            fixed.append(_feature_id(_TITLE, dim))
        context = []
        for lower in ("<s>", *(t.lower() for t in tokens), "</s>"):
            ids = context_ids.get(lower)
            if ids is None:
                if len(context_ids) >= _MEMO_LIMIT:
                    context_ids.clear()
                ids = context_ids[lower] = _feature_ids(_context_features(lower), dim)
            context.append(ids)
        out = []
        for i, word in enumerate(tokens):
            ids = word_ids.get(word)
            if ids is None:
                if len(word_ids) >= _MEMO_LIMIT:
                    word_ids.clear()
                ids = word_ids[word] = tuple(sorted(set(_feature_ids(_word_features(word), dim))))
            out.append(tuple(sorted({*ids, *fixed, context[i][0], context[i + 2][1]})))
        return out

    def save(self, path: str | Path) -> None:
        np.savez(
            path,
            weights=self.weights,
            entity_types=np.array(self.labelset.entity_types),
            gamma=self.gamma,
            hash_dim=self.hash_dim,
        )

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        """ValueError names the file and what is wrong with it."""
        data = read_npz(path, ("weights", "entity_types", "gamma", "hash_dim"), "tagger model")
        labelset = LabelSet(tuple(str(t) for t in data["entity_types"]))
        check_weights(path, data["weights"], (data["hash_dim"], len(labelset)), "tagger model")
        return cls(
            weights=data["weights"],
            labelset=labelset,
            gamma=data["gamma"],
            hash_dim=data["hash_dim"],
        )


# scalar keys of model files -> (dtype kinds, least value, Python type, what it must be)
_NPZ_SCALARS = {
    "hash_dim": ("iu", 1, int, "an integer >= 1"),
    "gamma": ("iuf", -np.inf, float, "a number"),
}


def read_npz(path: str | Path, keys: tuple[str, ...], what: str) -> dict:
    """The named arrays of an .npz model file, read without pickle, with
    hash_dim and gamma as Python scalars; ValueError names the file and the
    first missing key or the scalar that is not one."""
    try:
        # np.load leaks the file it opens when a zip is truncated; this one closes
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            missing = [k for k in keys if k not in data.files]
            if missing:
                raise ValueError(f"missing key {missing[0]!r}")
            out = {k: data[k] for k in keys}
        for key in _NPZ_SCALARS.keys() & out.keys():
            kinds, least, cast, rule = _NPZ_SCALARS[key]
            value = out[key]
            if value.ndim != 0 or value.dtype.kind not in kinds or not value >= least:
                raise ValueError(f"{key} is not {rule}")
            out[key] = cast(value)
        return out
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def check_weights(path: str | Path, weights: np.ndarray, shape: tuple, what: str) -> None:
    """ValueError unless a loaded weight matrix has the shape its other keys give."""
    if weights.shape != shape:
        raise ValueError(f"{what} {path}: weights have shape {weights.shape}, not {shape}")


@dataclass
class TrainConfig:
    gamma: float = 1.6
    epochs: int = 10
    learning_rate: float = 0.5
    seed: int = 0
    hash_dim: int = 1 << 18


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


def read_tagger_data(
    path: str | Path, entity_types=DEFAULT_ENTITY_TYPES
) -> list[LabeledSentence]:
    """Tagger training data: JSONL of {"tokens": [...], "labels": [...]}
    rows, two equally long lists of strings, the labels a BIO-valid sequence
    of the label set. A bad row raises ValueError naming the file and line."""
    labelset = LabelSet(entity_types)

    def parse(obj) -> LabeledSentence:
        if not isinstance(obj, dict):
            raise ValueError("record is not a JSON object")
        missing = [k for k in ("tokens", "labels") if k not in obj]
        if missing:
            raise ValueError(f"missing keys: {', '.join(missing)}")
        for key in ("tokens", "labels"):
            if not (isinstance(obj[key], list) and all(isinstance(x, str) for x in obj[key])):
                raise ValueError(f"{key} is not a list of strings")
        unknown = [lab for lab in obj["labels"] if lab not in labelset.labels]
        if unknown:
            raise ValueError(f"label {unknown[0]!r} is not in the label set")
        if not labelset.is_valid_sequence([labelset.index(lab) for lab in obj["labels"]]):
            raise ValueError(f"labels are not a BIO-valid sequence: {obj['labels']}")
        return LabeledSentence(obj["tokens"], obj["labels"])

    return list(read_records(path, parse, f"tagger data {path}"))


def train_tagger(
    data: list[LabeledSentence],
    config: TrainConfig | None = None,
    entity_types=DEFAULT_ENTITY_TYPES,
) -> TaggerModel:
    """SGD on per-token focal loss over hashed features. Deterministic per seed."""
    if not data:
        raise ValueError("training data is empty")
    config = config or TrainConfig()
    labelset = LabelSet(entity_types)
    for sent in data:
        ordinals = [labelset.index(lab) for lab in sent.labels]
        if not labelset.is_valid_sequence(ordinals):
            raise ValueError(f"gold sequence is not BIO-valid: {sent.labels}")

    weights = np.zeros((config.hash_dim, len(labelset)))
    model = TaggerModel(weights, labelset, config.gamma, config.hash_dim)
    rng = np.random.default_rng(config.seed)

    examples = []
    for sent in data:
        for ids, label in zip(model.feature_ids(sent.tokens, sent.from_title), sent.labels):
            examples.append((np.array(ids), labelset.index(label)))

    order = np.arange(len(examples))
    final_loss = 0.0
    for _ in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for ex in order:
            idx, gold = examples[ex]
            logits = weights[idx].sum(axis=0)
            probs = np.exp(_log_softmax(logits))
            loss, grad = focal_loss(probs, gold, config.gamma)
            total += loss
            weights[idx] -= config.learning_rate * grad
        final_loss = total / len(examples)

    model.final_training_loss = final_loss
    return model


def augment(
    data: list[LabeledSentence],
    mode: str,
    entity_bank: dict[str, list[str]] | None = None,
    seed: int = 0,
) -> list[LabeledSentence]:
    """Double the dataset: lowercase copies, or entity-replaced copies."""
    if mode == "lowercase":
        extra = [
            LabeledSentence([t.lower() for t in s.tokens], list(s.labels), s.from_title)
            for s in data
        ]
        return list(data) + extra
    if mode != "entity_replace":
        raise ValueError(f"unknown augmentation mode: {mode}")

    entity_bank = entity_bank or {}
    # fail fast on any type missing from the bank
    for sent in data:
        for lab in sent.labels:
            if lab.startswith("B-") and not entity_bank.get(lab[2:]):
                raise ValueError(f"entity bank has no entries for type '{lab[2:]}'")

    rng = np.random.default_rng(seed)
    extra = []
    for sent in data:
        tokens: list[str] = []
        labels: list[str] = []
        i = 0
        while i < len(sent.tokens):
            lab = sent.labels[i]
            if lab.startswith("B-"):
                etype = lab[2:]
                j = i + 1
                while j < len(sent.tokens) and sent.labels[j] == f"I-{etype}":
                    j += 1
                bank = entity_bank[etype]
                choice = bank[int(rng.integers(len(bank)))]
                repl = choice.split()
                tokens.extend(repl)
                labels.append(f"B-{etype}")
                labels.extend([f"I-{etype}"] * (len(repl) - 1))
                i = j
            else:
                tokens.append(sent.tokens[i])
                labels.append(lab)
                i += 1
        extra.append(LabeledSentence(tokens, labels, sent.from_title))
    return list(data) + extra


def score_tokens(model: TaggerModel, tokens: list[str], from_title: bool = False) -> np.ndarray:
    """Log-softmax score matrix, one row per token.

    Bitwise equal to _log_softmax(weights[hash_features(featurize(i, ...))]
    .sum(axis=0)) per token: the gather for the tokens with k ids is one
    (g, k, L) array summed over k, which adds rows in the same order as the
    per-token (k, L) sum. np.add.reduceat over the flat gather does not.
    """
    if not tokens:
        raise ValueError("no tokens to score")
    ids = model.feature_ids(tokens, from_title)
    by_count: dict[int, list[int]] = {}
    for i, token_ids in enumerate(ids):
        by_count.setdefault(len(token_ids), []).append(i)
    logits = np.empty((len(tokens), model.weights.shape[1]))
    for rows in by_count.values():
        logits[rows] = model.weights[np.array([ids[i] for i in rows])].sum(axis=1)
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def viterbi_decode(scores: np.ndarray, labelset: LabelSet) -> list[int]:
    """Max-sum valid BIO path. Ties break toward the smallest label ordinal
    at the latest position where candidate paths differ."""
    scores = np.asarray(scores, dtype=np.float64)
    n, _ = scores.shape
    if n < 1:
        raise ValueError("need at least one token")
    trans = labelset.transition_scores

    dp = labelset.start_scores + scores[0]
    back = []
    for t in range(1, n):
        cand = dp[:, None] + trans  # (prev, cur)
        # argmax picks the smallest prev ordinal on ties
        back.append(cand.argmax(axis=0).tolist())
        dp = cand.max(axis=0) + scores[t]
    last = int(np.argmax(dp))
    path = [last]
    for row in reversed(back):
        last = row[last]
        path.append(last)
    path.reverse()
    return path


def greedy_decode(scores: np.ndarray, labelset: LabelSet) -> list[int]:
    """Per-token argmax with invalid I-runs repaired to O (the baseline)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] < 1:
        raise ValueError("need at least one token")
    raw = np.argmax(scores, axis=1).tolist()
    out: list[int] = []
    prev: int | None = None
    o = labelset.index("O")
    for cur in raw:
        ok = labelset.start_mask[cur] if prev is None else labelset.transition_mask[prev, cur]
        if not ok:
            cur = o
        out.append(cur)
        prev = cur
    return out


@dataclass(frozen=True)
class Mention:
    doc_id: str
    sentence_index: int
    token_start: int
    token_end: int  # exclusive
    char_start: int
    char_end: int
    surface: str
    entity_type: str
    score: float
    from_title: bool = False


def extract_mentions(
    tokens,
    labels: list[int],
    labelset: LabelSet,
    doc_id: str = "",
    sentence_index: int = 0,
    scores: np.ndarray | None = None,
    from_title: bool = False,
) -> list[Mention]:
    """One Mention per maximal B-t (I-t)* run. tokens are corpus.Token."""
    if len(labels) != len(tokens):
        raise ValueError("labels and tokens must align")
    if not labelset.is_valid_sequence(labels):
        raise ValueError("label sequence is not BIO-valid")
    mentions = []
    i = 0
    while i < len(labels):
        if labelset.is_begin(labels[i]):
            etype = labelset.entity_type_of(labels[i])
            j = i + 1
            while j < len(labels) and labelset.is_inside(labels[j]):
                j += 1
            span_tokens = tokens[i:j]
            score = 0.0
            if scores is not None:
                score = float(sum(scores[t, labels[t]] for t in range(i, j)))
            mentions.append(
                Mention(
                    doc_id=doc_id,
                    sentence_index=sentence_index,
                    token_start=i,
                    token_end=j,
                    char_start=span_tokens[0].start,
                    char_end=span_tokens[-1].end,
                    surface=" ".join(t.surface for t in span_tokens),
                    entity_type=etype,
                    score=score,
                    from_title=from_title,
                )
            )
            i = j
        else:
            i += 1
    return mentions


def load_external_scores(
    path: str | Path, n_labels: int
) -> dict[tuple[str, int], np.ndarray]:
    """Scorer bypass: JSONL of {doc_id, sentence_index, labels, scores},
    scores being tokens x n_labels. A bad line raises ValueError naming its
    line number."""
    return dict(read_records(path, lambda obj: _parse_score_row(obj, n_labels), "score file"))


def _parse_score_row(obj, n_labels: int) -> tuple[tuple[str, int], np.ndarray]:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    missing = [k for k in ("doc_id", "sentence_index", "scores") if k not in obj]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    if type(obj["sentence_index"]) is not int:
        raise ValueError("sentence_index is not an integer")
    scores = np.asarray(obj["scores"])  # ragged rows raise ValueError here
    if scores.ndim != 2 or scores.dtype.kind not in "iuf":
        raise ValueError("scores is not a 2-D numeric array")
    if scores.shape[1] != n_labels:
        raise ValueError(f"scores rows have {scores.shape[1]} columns, not {n_labels} labels")
    key = parse_doc_id(obj["doc_id"]), obj["sentence_index"]
    return key, scores.astype(np.float64, copy=False)
