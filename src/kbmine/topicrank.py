"""Topic candidate aggregation, shortlisting and GBDT reranking.

Candidates are keyed by normalized surface plus entity type so that
e.g. an organization and a location sharing a name stay separate until
conflation. The store's only state is a per-document contribution ledger,
so deleting a document drops one entry and is exact; the candidates are
aggregated from the ledger when they are read.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nertag import Mention

KEY_SEP = "||"


def normalize_key(surface: str) -> str:
    """Case-fold, collapse whitespace, strip edge punctuation."""
    if not surface:
        raise ValueError("empty surface")
    s = " ".join(surface.casefold().split())
    start, end = 0, len(s)
    while start < end and not s[start].isalnum():
        start += 1
    while end > start and not s[end - 1].isalnum():
        end -= 1
    s = s[start:end]
    if not s:
        raise ValueError(f"surface normalizes to empty: {surface!r}")
    return s


def candidate_key(surface: str, entity_type: str) -> str:
    return f"{normalize_key(surface)}{KEY_SEP}{entity_type}"


def contribution(mentions: list[Mention]) -> dict[str, dict]:
    """One document's ledger entry: per candidate key, its title-mention
    count and surface counts, keys in first-mention order. The key's mention
    count is the sum of its surface counts (see mention_count)."""
    contrib: dict[str, dict] = {}
    for m in mentions:
        try:
            key = candidate_key(m.surface, m.entity_type)
        except ValueError:
            continue  # surface normalizes to empty: reject the mention
        c = contrib.setdefault(key, {"titles": 0, "surfaces": {}})
        if m.from_title:
            c["titles"] += 1
        c["surfaces"][m.surface] = c["surfaces"].get(m.surface, 0) + 1
    return contrib


def mention_count(entry: dict) -> int:
    """How often one document mentions a key: the sum of the surface counts
    of its ledger entry for that key."""
    return sum(entry["surfaces"].values())


@dataclass
class TopicCandidate:
    key: str
    norm_surface: str
    entity_type: str
    ner_frequency: int = 0
    document_frequency: int = 0
    title_frequency: int = 0
    doc_ids: set[str] = field(default_factory=set)
    surface_counts: Counter = field(default_factory=Counter)

    @property
    def display_name(self) -> str:
        # most frequent original surface, ties by lexicographic order
        best_count = max(self.surface_counts.values())
        return min(s for s, c in self.surface_counts.items() if c == best_count)


@dataclass
class RankFeatures:
    ner_freq: float
    doc_freq: float
    title_freq: float
    ner_per_doc: float
    title_per_doc: float
    title_per_ner: float
    log_ner: float
    log_doc: float
    log_title: float

    NAMES = (
        "ner_freq",
        "doc_freq",
        "title_freq",
        "ner_per_doc",
        "title_per_doc",
        "title_per_ner",
        "log_ner",
        "log_doc",
        "log_title",
    )

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in self.NAMES], dtype=np.float64)


def compute_features(candidate: TopicCandidate) -> RankFeatures:
    ner = candidate.ner_frequency
    doc = candidate.document_frequency
    title = candidate.title_frequency
    if doc < 1 or ner < doc or title > ner:
        raise ValueError(f"candidate counters violate invariants: {candidate.key}")
    return RankFeatures(
        ner_freq=float(ner),
        doc_freq=float(doc),
        title_freq=float(title),
        ner_per_doc=ner / doc,
        title_per_doc=title / doc,
        title_per_ner=title / ner,
        log_ner=math.log1p(ner),
        log_doc=math.log1p(doc),
        log_title=math.log1p(title),
    )


class CandidateStore:
    """Single-writer per-document ledger of topic contributions.

    The ledger is the only state: every accumulated document has an entry
    (empty if it yielded no mentions), and deleting a document drops its
    entry. The candidates are aggregated from the ledger on the first read
    after a change, so writes never touch them.
    """

    def __init__(self):
        # doc_id -> key -> {"titles": n, "surfaces": {surface: n}}
        self.ledger: dict[str, dict[str, dict]] = {}
        self._candidates: dict[str, TopicCandidate] | None = None

    @classmethod
    def from_ledger(cls, ledger: dict[str, dict[str, dict]]) -> "CandidateStore":
        """A store that adopts the given ledger."""
        store = cls()
        store.ledger = ledger
        return store

    @property
    def candidates(self) -> dict[str, TopicCandidate]:
        """The topic candidates the live ledger adds up to."""
        if self._candidates is None:
            self._candidates = {}
            for doc_id, contrib in self.ledger.items():
                self._apply(doc_id, contrib)
        return self._candidates

    def accumulate(self, mentions: list[Mention], doc) -> None:
        """Idempotent per doc_id: a redelivered document is a no-op."""
        if doc.doc_id in self.ledger:
            return
        self.ledger[doc.doc_id] = contribution(mentions)
        self._candidates = None

    def remove_doc(self, doc_id: str) -> bool:
        """Exact inverse of accumulate for one document."""
        if self.ledger.pop(doc_id, None) is None:
            return False
        self._candidates = None
        return True

    def _apply(self, doc_id: str, contrib: dict[str, dict]) -> None:
        """Add one document's contribution to the candidates."""
        for key, c in contrib.items():
            cand = self._candidates.get(key)
            if cand is None:
                # the type never contains KEY_SEP; the surface may
                norm, _, entity_type = key.rpartition(KEY_SEP)
                cand = TopicCandidate(key=key, norm_surface=norm, entity_type=entity_type)
                self._candidates[key] = cand
            cand.ner_frequency += mention_count(c)
            cand.title_frequency += c["titles"]
            cand.document_frequency += 1
            cand.doc_ids.add(doc_id)
            cand.surface_counts.update(c["surfaces"])

    def snapshot(self) -> dict:
        """Canonical view of all counters, suitable for equality checks."""
        out = {}
        for key in sorted(self.candidates):
            c = self.candidates[key]
            out[key] = {
                "key": c.key,
                "norm_surface": c.norm_surface,
                "entity_type": c.entity_type,
                "ner_frequency": c.ner_frequency,
                "document_frequency": c.document_frequency,
                "title_frequency": c.title_frequency,
                "doc_ids": sorted(c.doc_ids),
                "surface_counts": dict(sorted(c.surface_counts.items())),
            }
        return out


def shortlist(store: CandidateStore, n: int) -> list[str]:
    """Top-N keys by NER frequency; ties go lexicographically by key."""
    if n < 1:
        raise ValueError("N must be >= 1")
    ordered = sorted(store.candidates.values(), key=lambda c: (-c.ner_frequency, c.key))
    return [c.key for c in ordered[:n]]


# ---------------------------------------------------------------------------
# Gradient boosted trees (binary logistic)
# ---------------------------------------------------------------------------


@dataclass
class GbdtConfig:
    num_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf_count: int = 5
    seed: int = 0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=0.0):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value

    @property
    def is_leaf(self):
        return self.left is None

    def predict_one(self, x):
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def to_dict(self):
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; ValueError names the first bad or missing key."""
        if not isinstance(d, dict):
            raise ValueError("tree node is not a JSON object")
        node = cls()
        if "value" in d:
            node.value = _number(d, "value")
            return node
        feature = d.get("feature")
        if not (type(feature) is int and 0 <= feature < len(RankFeatures.NAMES)):
            raise ValueError(f"tree node feature is {feature!r}, not a feature index")
        node.feature = feature
        node.threshold = _number(d, "threshold")
        node.left = cls.from_dict(d.get("left"))
        node.right = cls.from_dict(d.get("right"))
        return node


def _number(d: dict, key: str) -> float:
    """d[key] if it is an int or a float (a bool is neither); else ValueError."""
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} is {value!r}, not a number")
    return value


def _best_split(X, g, h, rows, min_leaf):
    """Max-gain axis-aligned split; gain in the usual second-order form."""
    G, H = g[rows].sum(), h[rows].sum()
    base = G * G / (H + 1e-12)
    best = (0.0, -1, 0.0)  # gain, feature, threshold
    for f in range(X.shape[1]):
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sg = g[rows][order]
        sh = h[rows][order]
        cg = np.cumsum(sg)
        ch = np.cumsum(sh)
        for i in range(min_leaf - 1, len(rows) - min_leaf):
            if sv[i] == sv[i + 1]:
                continue
            gl, hl = cg[i], ch[i]
            gr, hr = G - gl, H - hl
            gain = gl * gl / (hl + 1e-12) + gr * gr / (hr + 1e-12) - base
            if gain > best[0] + 1e-12:
                best = (gain, f, (sv[i] + sv[i + 1]) / 2.0)
    return best


def _build_tree(X, g, h, rows, depth, max_depth, min_leaf):
    node = _TreeNode()
    gsum, hsum = g[rows].sum(), h[rows].sum()
    node.value = gsum / (hsum + 1e-12)
    if depth >= max_depth or len(rows) < 2 * min_leaf:
        return node
    gain, f, thr = _best_split(X, g, h, rows, min_leaf)
    if f < 0:
        return node
    mask = X[rows, f] <= thr
    node.feature = f
    node.threshold = thr
    node.left = _build_tree(X, g, h, rows[mask], depth + 1, max_depth, min_leaf)
    node.right = _build_tree(X, g, h, rows[~mask], depth + 1, max_depth, min_leaf)
    return node


@dataclass
class GbdtModel:
    trees: list
    learning_rate: float
    base_score: float  # prior log-odds

    def raw_score(self, x: np.ndarray) -> float:
        return self.base_score + self.learning_rate * sum(
            t.predict_one(x) for t in self.trees
        )

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "learning_rate": self.learning_rate,
                    "base_score": self.base_score,
                    "trees": [t.to_dict() for t in self.trees],
                },
                fh,
            )

    @classmethod
    def load(cls, path: str | Path) -> "GbdtModel":
        """ValueError names the file and the first bad or missing key."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
            if not isinstance(d, dict):
                raise ValueError("not a JSON object")
            learning_rate, base_score = _number(d, "learning_rate"), _number(d, "base_score")
            if not isinstance(d.get("trees"), list):
                raise ValueError("key 'trees' is missing or not a list")
            trees = [_TreeNode.from_dict(t) for t in d["trees"]]
            return cls(trees=trees, learning_rate=learning_rate, base_score=base_score)
        except ValueError as exc:  # json.JSONDecodeError included
            raise ValueError(f"ranker model {path}: {exc}") from None


def train_gbdt(
    rows: list[tuple[RankFeatures, int]], config: GbdtConfig | None = None
) -> GbdtModel:
    """Boosted logistic regression: each tree fits the negative gradient
    of log-loss with Newton leaf values."""
    config = config or GbdtConfig()
    if not rows:
        raise ValueError("no training rows")
    y = np.array([lab for _, lab in rows], dtype=np.float64)
    if len(set(y.tolist())) < 2:
        raise ValueError("training data must contain both classes")
    X = np.vstack([f.to_vector() for f, _ in rows])

    p0 = y.mean()
    base = math.log(p0 / (1.0 - p0))
    raw = np.full(len(y), base)
    trees = []
    all_rows = np.arange(len(y))
    for _ in range(config.num_trees):
        p = _sigmoid(raw)
        g = y - p  # negative gradient of log-loss
        h = p * (1.0 - p)
        tree = _build_tree(X, g, h, all_rows, 0, config.max_depth, config.min_leaf_count)
        trees.append(tree)
        raw = raw + config.learning_rate * np.array(
            [tree.predict_one(x) for x in X]
        )
    return GbdtModel(trees=trees, learning_rate=config.learning_rate, base_score=base)


def score_topic(model: GbdtModel, features: RankFeatures) -> float:
    return float(_sigmoid(model.raw_score(features.to_vector())))


@dataclass
class RankedTopicList:
    entries: list[tuple[str, float]]  # (candidate key, classifier score)

    def keys(self) -> list[str]:
        return [k for k, _ in self.entries]


def rerank_and_filter(
    keys: list[str],
    store: CandidateStore,
    model: GbdtModel,
    top_k: int | None = None,
    min_score: float = 0.0,
) -> RankedTopicList:
    scored = []
    for key in keys:
        cand = store.candidates[key]
        s = score_topic(model, compute_features(cand))
        if s >= min_score:
            scored.append((key, s))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    if top_k is not None:
        scored = scored[:top_k]
    return RankedTopicList(entries=scored)


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def load_label_file(path: str | Path) -> dict[str, int]:
    """Ranker training labels: CSV 'key,label' lines, each label 0 or 1, with
    an optional 'key,...' header. ValueError names the file and the line."""
    labels: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.lower().startswith("key,"):
                continue
            key, _, lab = line.rpartition(",")
            if not key or lab.strip() not in ("0", "1"):
                raise ValueError(
                    f"label file {path} line {lineno}: {line!r} is not 'key,label' "
                    "with label 0 or 1"
                )
            labels[key] = int(lab)
    return labels
