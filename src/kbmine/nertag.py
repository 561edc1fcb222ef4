"""Token tagging over the BIO label set.

A hashed-feature softmax classifier scores every token of a document against
the label set in one pass; decoding then finds each sentence's
highest-scoring *valid* BIO path. Viterbi takes at each step the best
allowed previous label of every label; decode runs it only for the
sentences whose per-token argmax path is not provably its answer (see
decode). The decoder and loss are scorer-agnostic: score matrices may also
come from an external file (see load_external_scores).

Hashing makes the weight matrix sparse: training touches only the rows of
the features its data holds. A model therefore stores just those rows, as
their sorted hash ids plus the rows themselves, and a feature whose id has
no stored row adds nothing to a score, as its all-zero dense row would.
Every token has at most FEATURE_WIDTH features, so a document's row numbers
are one fixed-width array, sorted per token, in which the zero row (one
past the stored rows) stands for each missing id and each repeat.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .corpus import _encodable, check_record, has_type, parse_doc_id, read_records

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

# joins a topic's normalized surface and its entity type in a candidate key
KEY_SEP = "||"


class LabelSet:
    """O plus B-t/I-t per entity type, with a stable ordinal mapping.

    Immutable. The transition masks are built once from transition_ok and
    are read-only: transition_mask[p, c] is True where label c may follow
    label p, and start_mask[c] where c may open a sentence. allowed_prevs
    holds (c, the labels c may follow) for each label c that not every
    label may follow: the I-t labels. For the per-token loops, begin_type[c]
    is the type of a B-t label c (None for the rest), inside[c] is
    is_inside(c), and _transitions is transition_mask as nested lists.

    The one entity-type rule: each type is a non-empty string, named once,
    without KEY_SEP and not starting with "|", so a candidate key, whose
    surface ends in a letter or digit, splits back into its surface and type
    at its last KEY_SEP; ValueError otherwise.
    """

    def __init__(self, entity_types=DEFAULT_ENTITY_TYPES):
        self.entity_types = tuple(entity_types)
        if not all(
            isinstance(t, str) and t and KEY_SEP not in t and t[0] != "|"
            for t in self.entity_types
        ) or len(set(self.entity_types)) < len(self.entity_types):
            raise ValueError(
                f"entity_types must be distinct, non-empty strings without {KEY_SEP!r} "
                f"that do not start with '|', not {list(self.entity_types)!r}"
            )
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
        self.start_mask = tuple(self.transition_ok(None, c) for c in range(L))
        self.allowed_prevs = tuple(
            (c, tuple(np.flatnonzero(column).tolist()))
            for c, column in enumerate(self.transition_mask.T)
            if not column.all()
        )
        self.begin_type = tuple(lab[2:] if lab.startswith("B-") else None for lab in labels)
        self.inside = tuple(self.is_inside(c) for c in range(L))
        self._transitions = self.transition_mask.tolist()

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
            if not (self.start_mask[cur] if prev is None else self._transitions[prev][cur]):
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


def remember(memo: dict, key, value, limit: int):
    """memo[key] = value, clearing memo first when it holds limit entries;
    returns value."""
    if len(memo) >= limit:
        memo.clear()
    memo[key] = value
    return value


# Row numbers per token in TaggerModel.feature_ids: up to 8 word features,
# prev=, next=, bias and title.
FEATURE_WIDTH = 12
_WORD_WIDTH = 8


@dataclass
class TaggerModel:
    """Stored rows of a (hash_dim, n_labels) weight matrix, all others zero:
    rows holds their sorted hash ids and weights[r] the row of hash id
    rows[r]. A trained or loaded model stores its nonzero rows only."""

    rows: np.ndarray  # (n_rows,) strictly increasing ints in [0, hash_dim)
    weights: np.ndarray  # (n_rows, n_labels)
    labelset: LabelSet
    hash_dim: int
    # row-number memos, never saved, each id without a stored row given as
    # the zero row len(weights): word -> the rows of its word features,
    # padded to _WORD_WIDTH with the zero row; lowercased word -> (its prev=
    # row, its next= row)
    _word_ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _context_ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (bias row, title row), the title row being the zero row when from_title
    # is False; indexed by from_title
    _fixed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bias, title = self._row_numbers(_feature_ids((_BIAS, _TITLE), self.hash_dim))
        self._fixed = ((bias, len(self.weights)), (bias, title))

    @classmethod
    def from_dense(cls, weights: np.ndarray, labelset: LabelSet) -> "TaggerModel":
        """The model that stores the nonzero rows of a dense weight matrix."""
        return cls(*nonzero_rows(weights), labelset, len(weights))

    @cached_property
    def _padded_weights(self) -> np.ndarray:
        """weights plus the zero row, row number len(weights)."""
        return np.vstack([self.weights, np.zeros((1, self.weights.shape[1]))])

    def _row_numbers(self, ids) -> tuple[int, ...]:
        """Each id's row number, or the zero row where it has no stored row."""
        rows, zero = self.rows, len(self.weights)
        pos = np.searchsorted(rows, ids).tolist()
        return tuple(p if p < zero and rows[p] == i else zero for p, i in zip(pos, ids))

    def _word_rows(self, word: str) -> tuple[int, ...]:
        """word's memo entry, made on a miss."""
        rows = self._row_numbers(_feature_ids(_word_features(word), self.hash_dim))
        rows += (len(self.weights),) * (_WORD_WIDTH - len(rows))
        return remember(self._word_ids, word, rows, _MEMO_LIMIT)

    def _context_rows(self, lower: str) -> tuple[int, int]:
        """lower's memo entry, made on a miss."""
        rows = self._row_numbers(_feature_ids(_context_features(lower), self.hash_dim))
        return remember(self._context_ids, lower, rows, _MEMO_LIMIT)

    def feature_ids(self, sentences: list[tuple[list[str], bool]]) -> np.ndarray:
        """(n_tokens, FEATURE_WIDTH) row numbers of a document's sentences,
        given as (tokens, from_title) pairs: per token, the stored rows of
        the ids of hash_features(featurize(...)) in ascending order, with
        the zero row len(weights) in place of every repeat and of every id
        that has no stored row."""
        word_ids, context_ids = self._word_ids, self._context_ids
        flat: list[int] = []
        for tokens, from_title in sentences:
            fixed = self._fixed[from_title]
            context = [
                context_ids.get(lower) or self._context_rows(lower)
                for lower in ("<s>", *(t.lower() for t in tokens), "</s>")
            ]
            # a token's prev= row is its left neighbour's, its next= row its right one's
            for word, (prev, _), (_, nxt) in zip(tokens, context, context[2:]):
                flat += word_ids.get(word) or self._word_rows(word)
                flat += (prev, nxt, *fixed)
        out = np.fromiter(flat, np.intp, len(flat)).reshape(-1, FEATURE_WIDTH)
        out.sort(axis=1)
        out[:, 1:][out[:, 1:] == out[:, :-1]] = len(self.weights)
        return out

    def save(self, path: str | Path) -> None:
        types = np.array(self.labelset.entity_types)
        np.savez(path, rows=self.rows, weights=self.weights, entity_types=types,
                 hash_dim=self.hash_dim)

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        """ValueError names the file and what is wrong with it (see read_weights)."""
        what = "tagger model"
        data = read_npz(path, ("weights", "entity_types", "hash_dim"), what)
        types = data["entity_types"]
        try:
            if types.ndim != 1:
                raise ValueError(f"entity_types have shape {types.shape}, not a list")
            labelset = LabelSet(types.tolist())
        except ValueError as exc:
            raise ValueError(f"{what} {path}: {exc}") from None
        return cls(*read_weights(path, data, len(labelset), what), labelset, data["hash_dim"])


def nonzero_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, weights[rows]), rows the ascending numbers of weights' nonzero rows."""
    rows = np.flatnonzero(weights.any(axis=1))
    return rows, weights[rows]


def read_npz(path: str | Path, keys: tuple[str, ...], what: str) -> dict:
    """The named arrays of an .npz model file, read without pickle, and its
    rows if it holds them. keys include hash_dim, which comes back as a
    Python int; ValueError names the file and the first missing key, or a
    hash_dim that is not an int >= 1."""
    try:
        # np.load leaks the file it opens when a zip is truncated; this one closes
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            missing = [k for k in keys if k not in data.files]
            if missing:
                raise ValueError(f"missing key {missing[0]!r}")
            out = {k: data[k] for k in (*keys, "rows") if k in data.files}
        hash_dim = out["hash_dim"].item() if out["hash_dim"].ndim == 0 else None
        if not (has_type(hash_dim, int) and hash_dim >= 1):
            raise ValueError("hash_dim is not an integer >= 1")
        out["hash_dim"] = hash_dim
        return out
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def read_weights(path: str | Path, data: dict, width: int, what: str) -> tuple:
    """(rows, weights) of a model file's read_npz data: ValueError names the
    file unless rows are strictly increasing ints in [0, hash_dim) and
    weights their (len(rows), width) finite numbers. A file without rows,
    as saved before, holds the dense (hash_dim, width) matrix: it loads as
    its nonzero_rows, which score bitwise as the dense matrix does."""
    weights, hash_dim, rows = data["weights"], data["hash_dim"], data.get("rows")
    if rows is not None and not (
        rows.ndim == 1
        and rows.dtype.kind in "iu"
        and (rows.size == 0 or (rows[0] >= 0 and rows[-1] < hash_dim))
        and not (rows[1:] <= rows[:-1]).any()
    ):
        raise ValueError(
            f"{what} {path}: rows are not strictly increasing integers in [0, {hash_dim})"
        )
    shape = (hash_dim if rows is None else len(rows), width)
    if weights.shape != shape:
        raise ValueError(f"{what} {path}: weights have shape {weights.shape}, not {shape}")
    if weights.dtype.kind not in "iuf":
        raise ValueError(f"{what} {path}: weights are not numbers")
    # a finite sum has finite terms; only a sum that overflows needs the full test
    if not (math.isfinite(weights.sum()) or np.isfinite(weights).all()):
        raise ValueError(f"{what} {path}: weights hold a NaN or infinite value")
    return nonzero_rows(weights) if rows is None else (rows, weights)


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
        check_record(obj, ("tokens", "labels"))
        for key in ("tokens", "labels"):
            if not (isinstance(obj[key], list) and all(isinstance(x, str) for x in obj[key])):
                raise ValueError(f"{key} is not a list of strings")
        for token in obj["tokens"]:
            _encodable(token, "tokens")
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
    """fit_hashed on per-token focal loss over hashed features. Deterministic per seed."""
    if not data:
        raise ValueError("training data is empty")
    config = config or TrainConfig()
    labelset = LabelSet(entity_types)
    for sent in data:
        ordinals = [labelset.index(lab) for lab in sent.labels]
        if not labelset.is_valid_sequence(ordinals):
            raise ValueError(f"gold sequence is not BIO-valid: {sent.labels}")

    # a model that stores every row numbers them by hash id; only len(dense) is read
    dense = np.zeros((config.hash_dim, len(labelset)))
    model = TaggerModel(np.arange(config.hash_dim), dense, labelset, config.hash_dim)

    # a token's stored ids are the entries below the zero row, hash_dim here
    ids = model.feature_ids([(sent.tokens, sent.from_title) for sent in data])
    labels = [labelset.index(label) for sent in data for label in sent.labels]
    examples = [(row[row < config.hash_dim], gold) for row, gold in zip(ids, labels)]

    rows, weights, final_loss = fit_hashed(examples, len(labelset), config)
    model = TaggerModel(rows, weights, labelset, config.hash_dim)
    model.final_training_loss = final_loss
    return model


def fit_hashed(examples: list, width: int, config: TrainConfig) -> tuple:
    """The one training loop of a hashed-weights model: per-example SGD on
    the focal loss (cross-entropy at gamma 0) of a softmax over the summed
    rows of the example's ascending hash ids, over (ids, gold column)
    examples in a new shuffle each epoch. Returns the trained (hash_dim,
    width) matrix's nonzero_rows and the last epoch's mean loss."""
    weights = np.zeros((config.hash_dim, width))
    rng = np.random.default_rng(config.seed)
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
    return (*nonzero_rows(weights), final_loss)


def score_tokens(
    model: TaggerModel, sentences: list[tuple[list[str], bool]]
) -> list[np.ndarray]:
    """Log-softmax score matrices of a document's tokenized sentences, given
    as (tokens, from_title) pairs: one matrix per sentence, one row per
    token, each a view of one array scored in one pass.

    Bitwise equal to _log_softmax(dense[hash_features(featurize(i, ...))]
    .sum(axis=0)) per token, dense being the matrix whose nonzero rows the
    model stores: feature_ids gives each token FEATURE_WIDTH row numbers,
    its stored rows in ascending order with the zero row in place of each
    repeat and each id without a stored row, and the gather is one
    (FEATURE_WIDTH, tokens, L) array summed over its first axis: NumPy adds
    its FEATURE_WIDTH (tokens, L) slices one after another, so it adds each
    token's stored rows in the same order as the per-token sum.
    The zero rows add +0.0, which changes no sum of weights that hold no
    -0.0, as trained weights never do. np.add.reduceat over a flat gather
    does not keep the order.
    """
    if not all(tokens for tokens, _ in sentences):
        raise ValueError("no tokens to score")
    logits = model._padded_weights.take(model.feature_ids(sentences).T, axis=0).sum(axis=0)
    z = logits - logits.max(axis=1, keepdims=True)
    scores = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    ends = list(accumulate(len(tokens) for tokens, _ in sentences))
    return [scores[start:end] for start, end in zip([0, *ends], ends)]


def viterbi_decode(scores: np.ndarray, labelset: LabelSet) -> list[int]:
    """Max-sum valid BIO path. Ties break toward the smallest label ordinal
    at the latest position where candidate paths differ.

    A label that may not open a sentence starts at -inf, and a label of
    allowed_prevs takes its best previous label among the ones it may
    follow, so the path is BIO-valid whatever the (finite) scores."""
    scores = np.asarray(scores, dtype=np.float64)
    n, width = scores.shape
    if n < 1:
        raise ValueError("need at least one token")
    if width != len(labelset):
        raise ValueError(f"scores have {width} columns, not {len(labelset)} labels")
    rows = scores.tolist()
    allowed_prevs = labelset.allowed_prevs
    dp = [s if ok else -math.inf for s, ok in zip(rows[0], labelset.start_mask)]
    back = []
    for row in rows[1:]:
        # every label may follow the best label, except those of allowed_prevs
        top = max(dp)
        arg = dp.index(top)  # the smallest ordinal on ties
        ptr = [arg] * width
        nxt = [top + s for s in row]
        for cur, prevs in allowed_prevs:
            arg = prevs[0]
            top = dp[arg]
            for p in prevs:
                if dp[p] > top:
                    arg, top = p, dp[p]
            ptr[cur] = arg
            nxt[cur] = top + row[cur]
        back.append(ptr)
        dp = nxt
    last = dp.index(max(dp))
    path = [last]
    for ptr in reversed(back):
        last = ptr[last]
        path.append(last)
    path.reverse()
    return path


def decode(sentence_scores: list[np.ndarray], labelset: LabelSet) -> list[list[int]]:
    """viterbi_decode's path of each of a document's sentence score
    matrices, checked for all of them in one pass over the stacked rows.

    A sentence whose per-token argmax path g may open a sentence and makes
    only allowed transitions takes g, as long as no rounding tie could move
    Viterbi's first-max choices: with prefix[t] the scores of g summed in
    the decoder's order, (prefix[t - 1] + scores[t]).argmax() must be g[t]
    at every t >= 1. Float addition is monotone, so Viterbi's best score at
    t is then prefix[t], reached first at g[t], and its back pointers follow
    g. Every other sentence goes to viterbi_decode.
    """
    lengths = [len(scores) for scores in sentence_scores]
    if not lengths:
        return []
    if min(lengths) < 1:
        raise ValueError("need at least one token")
    scores = np.concatenate(sentence_scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != len(labelset):
        raise ValueError(f"scores have shape {scores.shape}, not (tokens, {len(labelset)})")
    ends = list(accumulate(lengths))
    starts = [0, *ends[:-1]]
    g = scores.argmax(axis=1)
    best = scores[np.arange(len(g)), g].tolist()
    prefix = np.fromiter(
        chain.from_iterable(accumulate(best[a:b]) for a, b in zip(starts, ends)),
        np.float64,
        len(best),
    )
    # pair t joins tokens t and t + 1, so a sentence's pairs are a .. b - 2
    # and a failed pair across two sentences fails neither
    failed = ~labelset.transition_mask[g[:-1], g[1:]]
    failed |= (prefix[:-1, None] + scores[1:]).argmax(axis=1) != g[1:]
    failed = np.flatnonzero(failed).tolist()
    g = g.tolist()
    paths = []
    for a, b, sentence in zip(starts, ends, sentence_scores):
        i = bisect_left(failed, a)
        if labelset.start_mask[g[a]] and not (i < len(failed) and failed[i] < b - 1):
            paths.append(g[a:b])
        else:
            paths.append(viterbi_decode(sentence, labelset))
    return paths


@dataclass(frozen=True)
class Mention:
    surface: str
    entity_type: str
    from_title: bool = False


def extract_mentions(
    tokens: list[str],
    labels: list[int],
    labelset: LabelSet,
    from_title: bool = False,
) -> list[Mention]:
    """One Mention per maximal B-t (I-t)* run; its surface is the run's
    tokens joined by single spaces."""
    if len(labels) != len(tokens):
        raise ValueError("labels and tokens must align")
    if not labelset.is_valid_sequence(labels):
        raise ValueError("label sequence is not BIO-valid")
    begin_type, inside = labelset.begin_type, labelset.inside
    mentions = []
    i, n = 0, len(labels)
    while i < n:
        etype = begin_type[labels[i]]
        if etype is None:
            i += 1
            continue
        j = i + 1
        while j < n and inside[labels[j]]:
            j += 1
        mentions.append(Mention(" ".join(tokens[i:j]), etype, from_title))
        i = j
    return mentions


def load_external_scores(
    path: str | Path, n_labels: int
) -> dict[tuple[str, int], np.ndarray]:
    """Scorer bypass: JSONL of {doc_id, sentence_index, labels, scores},
    scores being tokens x n_labels finite numbers; a label the scorer rules
    out is a large negative number, as NEG_INF is. A bad line raises
    ValueError naming its line number."""
    return dict(read_records(path, lambda obj: _parse_score_row(obj, n_labels), "score file"))


def _parse_score_row(obj, n_labels: int) -> tuple[tuple[str, int], np.ndarray]:
    check_record(obj, ("doc_id", "sentence_index", "scores"))
    if not has_type(obj["sentence_index"], int):
        raise ValueError("sentence_index is not an integer")
    scores = np.asarray(obj["scores"])  # ragged rows raise ValueError here
    if scores.ndim != 2 or scores.dtype.kind not in "iuf":
        raise ValueError("scores is not a 2-D numeric array")
    if scores.shape[1] != n_labels:
        raise ValueError(f"scores rows have {scores.shape[1]} columns, not {n_labels} labels")
    scores = scores.astype(np.float64, copy=False)
    # a finite sum has finite terms; only a sum that overflows needs the full test
    if not (math.isfinite(scores.sum()) or np.isfinite(scores).all()):
        raise ValueError("scores hold a NaN or infinite value")
    return (parse_doc_id(obj["doc_id"]), obj["sentence_index"]), scores
