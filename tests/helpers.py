"""Shared fixtures: the reference sentence splitter, brute-force and dense
decoding oracles, the reference BIO loops and ledger-entry parser, the
greedy decoding and rule-classifier baselines, synthetic training data, and
the planted-topic corpus used by the end-to-end tests."""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from kbmine import cardbuild, corpus, defmine, nertag, topicrank
from kbmine.defmine import DefinitionCategory

# ---------------------------------------------------------------------------
# Dense <-> CSC
# ---------------------------------------------------------------------------


def csc_of(dense) -> cardbuild.CscMatrix:
    """The nonzero entries of a dense array as a CscMatrix, the entries
    scipy.sparse.csc_matrix(dense) stores."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return cardbuild.CscMatrix.from_coo(dense[rows, cols], rows, cols, dense.shape)


def dense_of(m: cardbuild.CscMatrix) -> np.ndarray:
    out = np.zeros(m.shape)
    for j in range(m.shape[1]):
        rows, values = m.column(j)
        out[rows, j] = values
    return out


# ---------------------------------------------------------------------------
# Reference sentence splitter
# ---------------------------------------------------------------------------


def loop_split_sentences(
    doc: corpus.Document,
    abbreviations: frozenset[str] = corpus.DEFAULT_ABBREVIATIONS,
) -> list[corpus.Sentence]:
    """The character loop corpus.split_sentences replaced, kept as its
    reference. Terminators are '.', '!', '?' and a blank line; a '.' that
    ends an abbreviation does not split. The title, when present, becomes
    the first sentence with from_title=True. Each sentence's text is
    stripped."""
    sentences: list[corpus.Sentence] = []
    title = doc.title.strip()
    if title:
        sentences.append(corpus.Sentence(doc.doc_id, 0, title, from_title=True))

    body = doc.body
    n = len(body)
    seg_start = 0
    i = 0
    boundaries: list[int] = []  # exclusive end of each segment
    while i < n:
        ch = body[i]
        if ch in ".!?":
            if ch == "." and corpus._is_abbreviation(body, i, abbreviations):
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
        text = body[prev:end].strip()
        if text:
            sentences.append(corpus.Sentence(doc.doc_id, len(sentences), text))
        prev = end
    return sentences


# ---------------------------------------------------------------------------
# Brute-force Viterbi oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _valid_sequences(n: int, entity_types: tuple) -> np.ndarray:
    """All BIO-valid label sequences of length n, as an (S, n) int array."""
    labelset = nertag.LabelSet(entity_types)
    L = len(labelset)
    seqs = [[c] for c in range(L) if labelset.transition_ok(None, c)]
    for _ in range(n - 1):
        seqs = [s + [c] for s in seqs for c in range(L) if labelset.transition_ok(s[-1], c)]
    return np.array(seqs, dtype=np.int64)


def brute_force_decode(scores: np.ndarray, entity_types: tuple) -> list[int]:
    """Exhaustive max over valid sequences; ties resolved by the smallest
    ordinal at the latest differing position (reversed-lex minimum)."""
    n = scores.shape[0]
    seqs = _valid_sequences(n, entity_types)
    totals = scores[np.arange(n), seqs].sum(axis=1)
    best = totals.max()
    winners = seqs[totals == best]
    return list(min(map(tuple, winners), key=lambda s: s[::-1]))


def dense_viterbi_decode(scores: np.ndarray, labelset: nertag.LabelSet) -> list[int]:
    """The decoder nertag.viterbi_decode replaced: a full (prev, cur) step
    over additive 0/NEG_INF transition scores, argmax taking the smallest
    ordinal on ties. Equal to the structured decoder wherever no score is
    near NEG_INF; near it, a disallowed candidate can win a tie."""
    scores = np.asarray(scores, dtype=np.float64)
    trans = np.where(labelset.transition_mask, 0.0, nertag.NEG_INF)
    dp = np.where(labelset.start_mask, 0.0, nertag.NEG_INF) + scores[0]
    back = []
    for t in range(1, scores.shape[0]):
        cand = dp[:, None] + trans  # (prev, cur)
        back.append(cand.argmax(axis=0).tolist())
        dp = cand.max(axis=0) + scores[t]
    last = int(np.argmax(dp))
    path = [last]
    for row in reversed(back):
        last = row[last]
        path.append(last)
    path.reverse()
    return path


def greedy_decode(scores: np.ndarray, labelset: nertag.LabelSet) -> list[int]:
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


# ---------------------------------------------------------------------------
# Reference BIO loops
# ---------------------------------------------------------------------------


def loop_is_valid_sequence(labelset: nertag.LabelSet, ordinals) -> bool:
    """The reference for LabelSet.is_valid_sequence: the start mask, then
    the numpy transition mask at each step."""
    prev = None
    for cur in ordinals:
        if not (labelset.start_mask[cur] if prev is None else labelset.transition_mask[prev, cur]):
            return False
        prev = cur
    return True


def loop_extract_mentions(
    tokens: list[str], labels: list[int], labelset: nertag.LabelSet, from_title: bool = False
) -> list[nertag.Mention]:
    """The reference for nertag.extract_mentions: the label methods asked
    at each token."""
    if len(labels) != len(tokens):
        raise ValueError("labels and tokens must align")
    if not loop_is_valid_sequence(labelset, labels):
        raise ValueError("label sequence is not BIO-valid")
    mentions = []
    i = 0
    while i < len(labels):
        if labelset.is_begin(labels[i]):
            etype = labelset.entity_type_of(labels[i])
            j = i + 1
            while j < len(labels) and labelset.is_inside(labels[j]):
                j += 1
            mentions.append(nertag.Mention(" ".join(tokens[i:j]), etype, from_title))
            i = j
        else:
            i += 1
    return mentions


# ---------------------------------------------------------------------------
# Reference ledger-entry parser
# ---------------------------------------------------------------------------


def has_type_parse_ledger(contrib) -> dict[str, dict]:
    """The reference for pipeline._parse_ledger: corpus.has_type on each
    value, an all() over the surfaces, then topicrank.mention_count for the
    titles bound."""
    if not isinstance(contrib, dict):
        raise ValueError("ledger is not an object")
    ledger = {}
    for key, c in contrib.items():
        surfaces = c.get("surfaces") if isinstance(c, dict) else None
        if not (
            isinstance(surfaces, dict)
            and surfaces
            and len(c) == 2
            and corpus.has_type(c.get("titles"), int)
            and all(
                isinstance(s, str) and corpus.has_type(m, int) and m >= 1
                for s, m in surfaces.items()
            )
            and 0 <= c["titles"] <= topicrank.mention_count(c)
        ):
            raise ValueError(
                f"ledger entry for {key!r} needs a non-empty surfaces mapping str to "
                "int >= 1, int titles from 0 to the sum of those counts, and no other key"
            )
        ledger[key] = {"titles": c["titles"], "surfaces": dict(surfaces)}
    return ledger


# ---------------------------------------------------------------------------
# Tagger fixtures
# ---------------------------------------------------------------------------

PLANTED_TOPICS = [
    ("Contoso Falcon", "product"),
    ("Project Aurora", "project"),
    ("Fabrikam Cloud", "product"),
    ("Quantum Mesh", "project"),
    ("Atlas Engine", "product"),
    ("Nimbus Gateway", "product"),
    ("Orion Lab", "organization"),
    ("Vertex Studio", "organization"),
    ("Helios Platform", "product"),
    ("Zephyr Toolkit", "product"),
]

_CONTEXTS = [
    ("the team shipped", "last week"),
    ("we migrated", "to the new cluster"),
    ("engineers debugged", "during the outage"),
    ("the report covers", "in detail"),
    ("customers adopted", "this quarter"),
    ("we benchmarked", "against the baseline"),
    ("the demo featured", "on stage"),
    ("ops monitored", "overnight"),
]

_FILLERS = [
    "the quarterly review went smoothly for everyone involved",
    "please update the spreadsheet before the meeting tomorrow",
    "lunch will be served in the main cafeteria at noon",
    "remember to submit your timesheet by friday afternoon",
    "the printer on the third floor is working again",
]


def make_tagger_training_data(topics=PLANTED_TOPICS) -> list[nertag.LabeledSentence]:
    """Lexicon-separable labeled sentences covering every planted topic in
    every context template, plus entity-free filler."""
    data = []
    for name, etype in topics:
        parts = name.split()
        ent_labels = [f"B-{etype}"] + [f"I-{etype}"] * (len(parts) - 1)
        for before, after in _CONTEXTS:
            tokens = before.split() + parts + after.split()
            labels = ["O"] * len(before.split()) + ent_labels + ["O"] * len(after.split())
            data.append(nertag.LabeledSentence(tokens, labels))
    for filler in _FILLERS:
        tokens = filler.split()
        data.append(nertag.LabeledSentence(tokens, ["O"] * len(tokens)))
    return data


def train_fixture_tagger(seed: int = 0) -> nertag.TaggerModel:
    config = nertag.TrainConfig(gamma=1.6, epochs=8, learning_rate=0.5, seed=seed, hash_dim=1 << 16)
    return nertag.train_tagger(make_tagger_training_data(), config)


def dense_weights(model: nertag.TaggerModel) -> np.ndarray:
    """The (hash_dim, n_labels) matrix whose nonzero rows the model stores."""
    dense = np.zeros((model.hash_dim, model.weights.shape[1]))
    dense[model.rows] = model.weights
    return dense


def all_rows_tagger(weights: np.ndarray, labelset: nertag.LabelSet) -> nertag.TaggerModel:
    """A tagger that stores every row of a dense matrix, zero or not, so its
    row numbers are the hash ids."""
    return nertag.TaggerModel(np.arange(len(weights)), weights, labelset, len(weights))


# ---------------------------------------------------------------------------
# Ranker fixture: quality depends on mentions-per-document, not frequency
# ---------------------------------------------------------------------------


def _features(ner: int, doc: int, title: int) -> np.ndarray:
    """The ranker row of a candidate with these counters."""
    return topicrank.compute_features(topicrank.TopicCandidate(
        key="k", norm_surface="k", entity_type="product",
        ner_frequency=ner, document_frequency=doc, title_frequency=title,
    ))


def make_ranker_rows(n: int = 400, seed: int = 0):
    """Good topics: >= 2 mentions per document. Noise: ~1 per document but
    with comparable or larger raw frequency, so frequency alone cannot
    separate the classes."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n // 2):
        doc = int(rng.integers(5, 30))
        ratio = rng.uniform(2.0, 4.0)
        ner = max(doc, int(round(doc * ratio)))
        title = int(rng.integers(0, max(1, doc // 2)))
        rows.append((_features(ner, doc, title), 1))
    for _ in range(n // 2):
        doc = int(rng.integers(20, 120))
        ratio = rng.uniform(1.0, 1.1)
        ner = max(doc, int(round(doc * ratio)))
        title = int(rng.integers(0, 2))
        rows.append((_features(ner, doc, title), 0))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def train_fixture_ranker(seed: int = 0) -> topicrank.GbdtModel:
    rows = make_ranker_rows(seed=seed)
    return topicrank.train_gbdt(rows, topicrank.GbdtConfig(seed=seed))


# ---------------------------------------------------------------------------
# Definition classifier fixture
# ---------------------------------------------------------------------------

_DEF_TOPICS = [
    "Statistics", "Telemetry", "Kubernetes", "Cartography", "Entropy",
    "Photosynthesis", "Cryptography", "Thermodynamics", "Linguistics", "Topology",
]
_DEF_DESCRIPTIONS = [
    "branch of mathematics dealing with data collection and analysis",
    "automated process of recording measurements from remote equipment",
    "system for orchestrating containerized workloads across machines",
    "discipline concerned with producing accurate maps of terrain",
    "measure of disorder used across physics and information theory",
]
_PEOPLE = ["Alice", "Bob", "Carol", "Dave", "Erin"]
_JOBS = ["data scientist", "software engineer", "program manager", "research analyst"]
_OPINION_BITS = [
    "the biggest waste of time I have ever seen",
    "a terrible mess that nobody wants to maintain",
    "the worst tool our team has ever adopted",
    "an awful experience from start to finish",
]


def make_definition_rows(n: int = 500, seed: int = 0):
    """Templated (text, category) rows covering all five categories,
    including opinionated hard negatives that fool the rule baseline."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        kind = int(rng.integers(0, 5))
        topic = _DEF_TOPICS[int(rng.integers(len(_DEF_TOPICS)))]
        desc = _DEF_DESCRIPTIONS[int(rng.integers(len(_DEF_DESCRIPTIONS)))]
        if kind == 0:
            text = f"{topic} is defined as the {desc}."
            cat = DefinitionCategory.SUFFICIENT
        elif kind == 1:
            text = f"{topic} is a field of study."
            cat = DefinitionCategory.INFORMATIONAL
        elif kind == 2:
            text = f"This is a method that relies on the {desc}."
            cat = DefinitionCategory.REFERENTIAL
        elif kind == 3:
            person = _PEOPLE[int(rng.integers(len(_PEOPLE)))]
            job = _JOBS[int(rng.integers(len(_JOBS)))]
            text = f"{person} is a {job} at Acme Corporation."
            cat = DefinitionCategory.PERSONAL
        else:
            opinion = _OPINION_BITS[int(rng.integers(len(_OPINION_BITS)))]
            text = f"The {topic} rollout is {opinion}."
            cat = DefinitionCategory.NON_DEFINITION
        rows.append((text, cat))
    return rows


def binary_rows(rows):
    return [(t, 1 if c is DefinitionCategory.SUFFICIENT else 0) for t, c in rows]


def eval_rule_baseline(rows: list[tuple[str, int]]) -> tuple[float, float, float]:
    """(F1, precision, recall) of the rule classifier treating
    Sufficient-vs-others as the binary task."""
    labels = [lab for _, lab in rows]
    if set(labels) != {0, 1}:
        raise ValueError("need both binary labels present")
    clf = defmine.RuleClassifier()
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


# ---------------------------------------------------------------------------
# Planted corpus
# ---------------------------------------------------------------------------

PLANTED_DEFINITIONS = {
    "Contoso Falcon": "Contoso Falcon is defined as the telemetry ingestion service for cloud workloads.",
    "Project Aurora": "Project Aurora is defined as the initiative to unify search across internal portals.",
    "Atlas Engine": "Atlas Engine is defined as the rendering component behind the mapping dashboard.",
    "Orion Lab": "Orion Lab is defined as the research group that prototypes storage hardware.",
    "Helios Platform": "Helios Platform is defined as the hosting layer for partner integrations.",
}

AUTHORS = ["u_ada", "u_brin", "u_chen", "u_dara"]


def make_planted_corpus(path, n_docs: int = 200, seed: int = 0):
    """Write a JSONL corpus of n_docs documents over the planted topics.

    Each document covers one topic (mentioned in the title and twice in
    the body), is written by the author owning that topic, and carries a
    doc-unique marker sentence so deletion compliance is checkable.
    Definition sentences are planted in one document per defined topic.
    Returns {"definition_docs": {topic name: doc_id}}.
    """
    rng = np.random.default_rng(seed)
    definition_docs = {}
    pending_defs = dict(PLANTED_DEFINITIONS)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            topic, _ = PLANTED_TOPICS[i % len(PLANTED_TOPICS)]
            author = AUTHORS[(i % len(PLANTED_TOPICS)) % len(AUTHORS)]
            before1, after1 = _CONTEXTS[int(rng.integers(len(_CONTEXTS)))]
            before2, after2 = _CONTEXTS[int(rng.integers(len(_CONTEXTS)))]
            filler = _FILLERS[int(rng.integers(len(_FILLERS)))]
            sentences = [
                f"{before1.capitalize()} {topic} {after1}.",
                f"{filler} under ticket number {9000 + i}.",
                f"{before2.capitalize()} {topic} {after2}.",
            ]
            doc_id = f"doc{i:04d}"
            if topic in pending_defs and i >= len(PLANTED_TOPICS):
                sentences.append(pending_defs.pop(topic))
                definition_docs[topic] = doc_id
            record = {
                "doc_id": doc_id,
                "title": f"{topic} notes",
                "body": " ".join(sentences),
                "author_id": author,
                "timestamp": 1_600_000_000 + i * 3600,
            }
            fh.write(json.dumps(record) + "\n")
    assert not pending_defs, "corpus too small to place all definitions"
    return {"definition_docs": definition_docs}
