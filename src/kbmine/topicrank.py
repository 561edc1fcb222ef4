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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import check_record, has_type, read_json, read_records
from .nertag import KEY_SEP, Mention


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

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)


# the ranker's feature order: a tree node's feature index points into it
FEATURE_NAMES = tuple(f.name for f in fields(RankFeatures))


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
            for contrib in self.ledger.values():
                self._apply(contrib)
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

    def _apply(self, contrib: dict[str, dict]) -> None:
        """Add one document's contribution to the candidates."""
        for key, c in contrib.items():
            cand = self._candidates.get(key)
            if cand is None:
                # LabelSet keeps KEY_SEP out of the type; the surface may hold it
                norm, _, entity_type = key.rpartition(KEY_SEP)
                cand = TopicCandidate(key=key, norm_surface=norm, entity_type=entity_type)
                self._candidates[key] = cand
            cand.ner_frequency += mention_count(c)
            cand.title_frequency += c["titles"]
            cand.document_frequency += 1
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
    seed: int = 0  # unread: training draws no random numbers; kept for callers that set it


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _leaf_value(node: dict, x) -> float:
    """The value of the leaf that x reaches from node."""
    while "value" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def _check_node(root) -> None:
    """ValueError names the first bad or missing key, in preorder, of a
    saved tree's nodes. A stack, not recursion, walks the tree, so a deep
    one cannot pass the recursion limit."""
    stack = [root]
    while stack:
        node = check_record(stack.pop(), ())
        if "value" in node:
            _number(node, "value")
            continue
        feature = node.get("feature")
        if not (has_type(feature, int) and 0 <= feature < len(FEATURE_NAMES)):
            raise ValueError(f"tree node feature is {feature!r}, not a feature index")
        _number(node, "threshold")
        stack += (node.get("right"), node.get("left"))


def _number(d: dict, key: str) -> float:
    """d[key] if it is a finite number by corpus.has_type; else ValueError."""
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    if not has_type(d[key], float):
        raise ValueError(f"{key} is {d[key]!r}, not a finite number")
    return d[key]


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


def _build_tree(X, g, h, rows, depth, max_depth, min_leaf) -> dict:
    """A tree in the form GbdtModel.save writes: a leaf is {"value": v}, an
    inner node {"feature", "threshold", "left", "right"}."""
    if depth < max_depth and len(rows) >= 2 * min_leaf:
        _, f, thr = _best_split(X, g, h, rows, min_leaf)
        if f >= 0:
            mask = X[rows, f] <= thr
            return {
                "feature": f,
                "threshold": thr,
                "left": _build_tree(X, g, h, rows[mask], depth + 1, max_depth, min_leaf),
                "right": _build_tree(X, g, h, rows[~mask], depth + 1, max_depth, min_leaf),
            }
    return {"value": g[rows].sum() / (h[rows].sum() + 1e-12)}


@dataclass
class GbdtModel:
    trees: list[dict]  # each the root node _build_tree returns
    learning_rate: float
    base_score: float  # prior log-odds

    def raw_score(self, x: np.ndarray) -> float:
        return self.base_score + self.learning_rate * sum(
            _leaf_value(t, x) for t in self.trees
        )

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "learning_rate": self.learning_rate,
                    "base_score": self.base_score,
                    "trees": self.trees,
                },
                fh,
            )

    @classmethod
    def load(cls, path: str | Path) -> "GbdtModel":
        """ValueError names the file and the first bad or missing key."""
        try:
            d = check_record(read_json(path), ())
            learning_rate, base_score = _number(d, "learning_rate"), _number(d, "base_score")
            if not isinstance(d.get("trees"), list):
                raise ValueError("key 'trees' is missing or not a list")
            for tree in d["trees"]:
                _check_node(tree)
            return cls(trees=d["trees"], learning_rate=learning_rate, base_score=base_score)
        except ValueError as exc:  # invalid JSON included
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
        raw = raw + config.learning_rate * np.array([_leaf_value(tree, x) for x in X])
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

    def parse(line: str) -> tuple[str, int] | None:
        line = line.strip()
        if line.lower().startswith("key,"):
            return None
        key, _, lab = line.rpartition(",")
        if not key or lab.strip() not in ("0", "1"):
            raise ValueError(f"{line!r} is not 'key,label' with label 0 or 1")
        return key, int(lab)

    return dict(filter(None, read_records(path, parse, f"label file {path}", decode=str)))
