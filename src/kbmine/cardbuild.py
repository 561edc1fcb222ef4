"""Topic card construction: BM25 topic-document matrix, batched
randomized SVD embeddings, relatedness, conflation and card assembly.

The matrix is a small in-repo CSC (CscMatrix). Its products sum each
output entry sequentially, columns ascending and rows ascending within a
column, which is the order of SciPy's csc kernels, so the factors are
bitwise-equal to SciPy-backed ones; a test holds them to that while SciPy is
installed. The SVD streams the matrix by windows of document columns, which
are views. One bound, _working_bytes, accounts for its memory: the SVD runs
at the largest batch (up to SvdConfig.batch_size) whose bound fits the memory
budget, and a test checks that bound against what tracemalloc sees NumPy
allocate.

Card assembly stays off O(K*D) Python loops: each related list is a partial
top-k over one score vector, the rerank signals are asked for the recalled
documents only, and conflation decides just the pairs at or above tau, from
the relatedness matrix it already holds.

Conflation is star linkage under a name-only guard: in canonical order,
each key no group has taken takes the untaken keys related to it at tau or
more whose names merge_guard matches with its own, so no chain of aliases
joins two topics whose names do not match.
"""

from __future__ import annotations

import json
import logging
import math
import re
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topicrank import normalize_key

logger = logging.getLogger(__name__)


BM25_K1 = 1.2
BM25_B = 0.75


def bm25_weight(tf: int, dl: int, avgdl: float, df: int, n_docs: int) -> float:
    """idf * tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)) with the nonnegative
    log idf variant idf = ln(1 + (N-df+0.5)/(df+0.5))."""
    if tf < 1 or df < 1 or n_docs < df or dl < 1 or avgdl <= 0:
        raise ValueError("invalid BM25 inputs")
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
    return idf * tf * (BM25_K1 + 1.0) / denom


@dataclass(frozen=True, eq=False)
class CscMatrix:
    """A compressed sparse column matrix. Column j holds the values
    data[indptr[j]:indptr[j + 1]] at the rows in the same slice of indices,
    rows ascending, and no position twice.

    Each product adds every output entry's terms one at a time, from 0.0,
    columns ascending and rows ascending within a column: the order of
    SciPy's csc_matvecs and csr_matvecs, so the results equal SciPy's bit
    for bit. np.bincount adds its weights in input order, which is that
    order; np.add.reduceat is not sequential and differs in the last bit.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_coo(cls, data, rows, cols, shape: tuple[int, int]) -> "CscMatrix":
        """The matrix holding data[k] at (rows[k], cols[k])."""
        data = np.asarray(data, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        n_rows, n_cols = shape
        if data.ndim != 1 or not data.shape == rows.shape == cols.shape:
            raise ValueError("data, rows and cols must be 1-D and equally long")
        if data.size and not (
            0 <= rows.min() and rows.max() < n_rows and 0 <= cols.min() and cols.max() < n_cols
        ):
            raise ValueError(f"an entry lies outside the shape {shape}")
        # rows ascending within each column, as SciPy's COO -> CSC sorts them:
        # the products add in this order
        order = np.lexsort((rows, cols))
        rows, cols = rows[order], cols[order]
        if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
            raise ValueError("an entry position repeats")
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
        return cls(indptr, rows, data[order], (n_rows, n_cols))

    @property
    def nnz(self) -> int:
        return self.data.size

    def columns(self, start: int, stop: int) -> "CscMatrix":
        """Columns start up to stop (clamped to the shape); indices and data
        are views into this matrix's."""
        stop = min(stop, self.shape[1])
        lo, hi = self.indptr[start], self.indptr[stop]
        return CscMatrix(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (self.shape[0], stop - start),
        )

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values) of column j's entries, rows ascending."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def transpose(self) -> "CscMatrix":
        """The transpose, as a new CscMatrix: its column i is row i of this
        matrix, so column() reads rows."""
        return CscMatrix.from_coo(self.data, self._column_ids(), self.indices, self.shape[::-1])

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """self @ X for a dense X."""
        return _sum_products(self.data, self.indices, self._column_ids(), X, self.shape[0])

    def tmatmul(self, Q: np.ndarray) -> np.ndarray:
        """self.T @ Q for a dense Q. Q.T @ self is tmatmul(Q).T, bit for
        bit, since SciPy computes that product as this one transposed."""
        return _sum_products(self.data, self._column_ids(), self.indices, Q, self.shape[1])

    def _column_ids(self) -> np.ndarray:
        """The column of each stored entry."""
        return np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))


def _sum_products(data, into, take, X: np.ndarray, n: int) -> np.ndarray:
    """out[i, c] = the sum, in entry order, of data[k] * X[take[k], c] over
    the entries k with into[k] == i. One output column at a time, so the
    temporaries are a few arrays of one value per entry."""
    out = np.empty((n, X.shape[1]))
    for c in range(X.shape[1]):
        out[:, c] = np.bincount(into, weights=data * X[take, c], minlength=n)
    return out


@dataclass
class SparseTopicDocMatrix:
    matrix: CscMatrix  # topics x docs
    topic_keys: list[str]
    doc_ids: list[str]

    @property
    def n_topics(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[1]


def build_matrix(topic_keys: list[str], doc_stats: dict[str, dict]) -> SparseTopicDocMatrix:
    """BM25 matrix over the given topics and documents.

    doc_stats maps doc_id -> {"length": tokens, "tf": {topic_key: count}}.
    Topics absent from every document are dropped with a warning.
    """
    doc_ids = sorted(doc_stats)
    n_docs = len(doc_ids)
    avgdl = (
        sum(max(1, doc_stats[d]["length"]) for d in doc_ids) / n_docs if n_docs else 0.0
    )
    df = {k: 0 for k in topic_keys}
    for d in doc_ids:
        for k in doc_stats[d]["tf"]:
            if k in df:
                df[k] += 1
    kept = [k for k in topic_keys if df[k] >= 1]
    for k in topic_keys:
        if df[k] == 0:
            logger.warning("topic %r absent from corpus, excluded from matrix", k)

    topic_index = {k: i for i, k in enumerate(kept)}
    rows, cols, vals = [], [], []
    for j, d in enumerate(doc_ids):
        stats = doc_stats[d]
        dl = max(1, stats["length"])
        for k, tf in stats["tf"].items():
            i = topic_index.get(k)
            if i is None or tf < 1:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(bm25_weight(tf, dl, avgdl, df[k], n_docs))
    matrix = CscMatrix.from_coo(vals, rows, cols, (len(kept), n_docs))
    return SparseTopicDocMatrix(matrix=matrix, topic_keys=kept, doc_ids=doc_ids)


# ---------------------------------------------------------------------------
# Batched randomized SVD
# ---------------------------------------------------------------------------


@dataclass
class SvdConfig:
    rank: int = 32
    oversampling: int = 8
    power_iterations: int = 1
    batch_size: int = 1024  # the largest batch; the memory budget may pick a smaller one
    memory_budget: int = 512 * 1024 * 1024
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1 or self.oversampling < 0 or self.power_iterations < 0:
            raise ValueError("invalid SVD config")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class MemoryBudgetError(RuntimeError):
    """The budget is below what batch size 1 needs, the least any batch
    size can; minimum is that need."""

    def __init__(self, budget: int, minimum: int):
        super().__init__(
            f"memory budget {budget} bytes too small; "
            f"minimum feasible budget is {minimum} bytes"
        )
        self.budget = budget
        self.minimum = minimum


# Bytes of Python objects (column window objects, the per-column generators
# in _omega_block, array headers) that tracemalloc sees on top of the arrays
# counted in _working_bytes.
_PY_OVERHEAD = 16 * 1024


def _working_bytes(M: CscMatrix, l: int, r: int, batch: int, q: int) -> int:
    """Most bytes batched_randomized_svd holds at once: the maximum over its
    phases of the arrays live in that phase. Buffers NumPy takes outside
    Python's allocators (LAPACK workspace) are not counted."""
    n_topics, n_docs = M.shape
    nnz = int(np.diff(M.indptr[np.r_[0:n_docs:batch, n_docs]]).max())
    # a batch: its window (a view but for its own indptr), a batch x l block
    # and one product's temporaries: the column id of each nonzero with the
    # arange and diff it is built from, then, for one output column at a
    # time, the gathered factors, their weights and the bincount of those
    per_batch = (
        8 * (batch + 1) + 8 * batch * l + 8 * (2 * batch + 3 * nnz + max(n_topics, batch))
    )
    tl = 8 * n_topics * l
    # sketch and power iterations: Y, Q, a batch and its topics x l product
    sketch = (3 if q else 2) * tl + per_batch
    # QR of Y: Y, its copy, the new Q, tau, and R with triu's temporaries
    qr = 3 * tl + 8 * (2 * l * l + 3 * l) + l * l
    # pass 2 and eigh: Q, C, and a batch with Bb Bb^T or eigh's outputs
    gram = tl + 8 * (3 * l * l + 3 * l) + per_batch
    # pass 3: Q, C, eigenvectors, U, V, and a batch with its batch x r block
    docs = tl + 8 * ((n_topics + n_docs) * r + 2 * l * l + batch * r) + per_batch
    return max(sketch, qr, gram, docs) + _PY_OVERHEAD


def _omega_block(seed: int, cols: range, l: int) -> np.ndarray:
    """Gaussian test block, seeded per document column so results do not
    depend on the batch size."""
    block = np.empty((len(cols), l))
    for row, j in enumerate(cols):
        block[row] = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(j,))
        ).standard_normal(l)
    return block


def batched_randomized_svd(
    matrix: SparseTopicDocMatrix, config: SvdConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Randomized SVD (Halko, Martinsson & Tropp, arXiv:0909.4061) of the
    topic-document matrix, streamed by batches of document columns.

    Returns (topic_vectors, doc_vectors, singular_values, working_bytes):
    topic vector_i = U_i * sqrt(sigma) and doc vector_j = V_j * sqrt(sigma)
    at the configured rank, and the _working_bytes bound of the batch size
    used, checked against the memory budget before anything was allocated.
    That batch is the largest one up to config.batch_size whose bound fits
    the budget; the factors do not depend on it.
    """
    M = matrix.matrix
    n_topics, n_docs = M.shape
    r = config.rank
    l = r + config.oversampling
    if l > min(n_topics, n_docs):
        raise ValueError("rank + oversampling exceeds matrix dimensions")
    q = config.power_iterations

    # The bound is not monotone in the batch size (the densest window of
    # columns moves as the windows change), so scan down from the cap. It is
    # least at batch 1: every window holds whole columns, so no batch's
    # densest window has fewer nonzeros than the densest single column.
    for batch in range(min(config.batch_size, n_docs), 0, -1):
        working = _working_bytes(M, l, r, batch, q)
        if working <= config.memory_budget:
            break
    else:
        raise MemoryBudgetError(config.memory_budget, working)

    def accumulate(out, term):
        # out += term(first column, column window); each window dies with its batch
        for start in range(0, n_docs, batch):
            out += term(start, M.columns(start, start + batch))
        return out

    def sketch(start, Mb):
        return Mb @ _omega_block(config.seed, range(start, start + Mb.shape[1]), l)

    def gram(_, Mb):
        Bb = Mb.tmatmul(Q).T  # Q^T Mb
        return Bb @ Bb.T

    # sketch Y = M @ Omega, then q power iterations Y = M M^T Q
    Y = accumulate(np.zeros((n_topics, l)), sketch)
    for _ in range(q):
        Q = np.linalg.qr(Y)[0]
        Y[:] = 0.0
        accumulate(Y, lambda _, Mb: Mb @ Mb.tmatmul(Q))
        del Q
    Q = np.linalg.qr(Y)[0]
    del Y

    # pass 2: accumulate C = (Q^T M)(Q^T M)^T batch-wise; B itself is too
    # wide to materialize, so the small eigenproblem of C stands in for the
    # dense SVD of B.
    C = accumulate(np.zeros((l, l)), gram)

    evals, W = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1][:r]
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    W = W[:, order]
    U = Q @ W

    # pass 3: doc-side factor V = B^T W batch-wise, divided by sigma below
    V = np.zeros((n_docs, r))
    for start in range(0, n_docs, batch):
        V[start : start + batch] = M.columns(start, start + batch).tmatmul(Q) @ W
    del Q

    # scale column by column: in-place ufuncs on 1-D views allocate nothing
    for k, s in enumerate(sigma):
        U[:, k] *= np.sqrt(s)
        if s > 1e-12:
            V[:, k] /= s
            V[:, k] *= np.sqrt(s)
        else:
            V[:, k] = 0.0
    return U, V, sigma, working


# ---------------------------------------------------------------------------
# Embedding space
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingSpace:
    topic_keys: list[str]
    topic_vectors: np.ndarray
    doc_ids: list[str]
    doc_vectors: np.ndarray
    user_ids: list[str]
    user_vectors: np.ndarray
    topic_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.topic_index = {k: i for i, k in enumerate(self.topic_keys)}

    def topic_vector(self, key: str) -> np.ndarray:
        return self.topic_vectors[self.topic_index[key]]


def user_embedding(doc_indices: list[int], doc_vectors: np.ndarray) -> np.ndarray:
    """Mean of the vectors of the documents the user authored."""
    if not doc_indices:
        raise ValueError("user has no embedded documents")
    return doc_vectors[np.asarray(doc_indices)].mean(axis=0)


def build_user_vectors(
    authorship: dict[str, list[str]], doc_ids: list[str], doc_vectors: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """authorship maps user_id -> authored doc_ids; users with no embedded
    documents are omitted from the space entirely."""
    doc_index = {d: i for i, d in enumerate(doc_ids)}
    users, rows = [], []
    for user in sorted(authorship):
        idx = [doc_index[d] for d in authorship[user] if d in doc_index]
        if idx:
            users.append(user)
            rows.append(user_embedding(idx, doc_vectors))
    vectors = np.vstack(rows) if rows else np.zeros((0, doc_vectors.shape[1]))
    return users, vectors


def top_k_related(
    query_key: str, space: EmbeddingSpace, kind: str, k: int
) -> list[tuple[str, float]]:
    """K most related ids of the given kind, descending, ties by id.
    The query topic never appears in its own related-topic list.

    A partial sort: np.partition finds the k-th largest score, and only the
    ids scoring at least that much (ties at the cut included) are sorted."""
    qv = space.topic_vector(query_key)
    if kind == "topic":
        ids, vectors = space.topic_keys, space.topic_vectors
    elif kind == "doc":
        ids, vectors = space.doc_ids, space.doc_vectors
    elif kind == "user":
        ids, vectors = space.user_ids, space.user_vectors
    else:
        raise ValueError(f"unknown kind: {kind}")
    if k <= 0 or len(ids) == 0:
        return []
    scores = vectors @ qv
    keep = np.ones(len(ids), dtype=bool)
    if kind == "topic":
        keep[space.topic_index[query_key]] = False
    n = int(np.count_nonzero(keep))
    if k < n:
        kth = np.partition(scores[keep], n - k)[n - k]
        keep &= scores >= kth
    top = np.flatnonzero(keep)
    pairs = sorted(
        zip([ids[i] for i in top.tolist()], scores[top].tolist()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return pairs[:k]


RERANK_WEIGHTS = {"bm25": 1.0, "title": 0.5, "recency": 0.2}


def rerank_related_docs(
    candidates: list[tuple[str, float]], signals: dict[str, dict]
) -> list[tuple[str, float]]:
    """Rerank embedding-recalled documents by BM25, title presence and
    recency. Stable: equal sort keys keep the embedding order."""
    if not candidates:
        raise ValueError("no candidate documents")
    bm25s = [signals[d].get("bm25", 0.0) for d, _ in candidates]
    stamps = [signals[d].get("timestamp", 0.0) for d, _ in candidates]
    max_bm25 = max(bm25s) or 1.0
    lo, hi = min(stamps), max(stamps)
    span = (hi - lo) or 1.0
    scored = []
    for (doc_id, _), bm, ts in zip(candidates, bm25s, stamps):
        s = (
            RERANK_WEIGHTS["bm25"] * bm / max_bm25
            + RERANK_WEIGHTS["title"] * (1.0 if signals[doc_id].get("title") else 0.0)
            + RERANK_WEIGHTS["recency"] * (ts - lo) / span
        )
        scored.append((doc_id, s))
    scored.sort(key=lambda kv: -kv[1])  # stable, preserves input order on ties
    return scored


# ---------------------------------------------------------------------------
# Acronyms and conflation
# ---------------------------------------------------------------------------

_ACRO_RE = re.compile(r"\(([A-Z]{2,6})\)")


def extract_acronym_aliases(sentences) -> list[tuple[str, str]]:
    """'Long Form (ACRO)' pairs where each acronym letter matches the
    initial of a preceding capitalized word, in order."""
    pairs = {}  # insertion-ordered set
    for text in sentences:
        for m in _ACRO_RE.finditer(text):
            acro = m.group(1)
            prefix_words = re.findall(r"[A-Za-z][\w'-]*", text[: m.start()])
            if len(prefix_words) < len(acro):
                continue
            tail = prefix_words[-len(acro) :]
            if all(w[0].isupper() and w[0] == c for w, c in zip(tail, acro)):
                pairs[(" ".join(tail), acro)] = None
    return list(pairs)


def trigram_jaccard(a: str, b: str) -> float:
    def grams(s):
        s = f"  {s} "
        return set(zip(s, s[1:], s[2:]))

    ga, gb = grams(a), grams(b)  # never empty: each holds its padding
    shared = len(ga & gb)
    return shared / (len(ga) + len(gb) - shared)


TAU_RATIO = 0.6  # tau, as a fraction of the max observed relatedness
TRIGRAM_THRESHOLD = 0.5


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def merge_guard(cand_a, cand_b, acronym_pairs: set[tuple[str, str]]) -> bool:
    """Whether two topic names may name one topic: an acronym pair; the
    same word set, or one string once spaces and hyphens are dropped
    ("data lake", "data-lake"); or the words each has and the other lacks,
    joined, at a trigram Jaccard of TRIGRAM_THRESHOLD or more ("falcon",
    "falcons", but not "arbor gateway", "harbor gateway")."""
    na, nb = cand_a.norm_surface, cand_b.norm_surface
    if (na, nb) in acronym_pairs or (nb, na) in acronym_pairs:
        return True
    wa, wb = na.split(), nb.split()
    if set(wa) == set(wb) or "".join(wa).replace("-", "") == "".join(wb).replace("-", ""):
        return True
    # if one side has no words of its own, the two share no trigram
    only_a = " ".join([w for w in wa if w not in wb])
    only_b = " ".join([w for w in wb if w not in wa])
    return trigram_jaccard(only_a, only_b) >= TRIGRAM_THRESHOLD


def conflate_all(
    keys: list[str],
    candidates: dict[str, "object"],
    space: EmbeddingSpace,
    acronym_pairs: list[tuple[str, str]],
) -> dict[str, list[str]]:
    """Star linkage; returns canonical key -> sorted alias keys.

    The keys go in canonical order, highest NER frequency first, ties by
    key. Each key no group has taken becomes a canonical and takes every
    untaken key whose relatedness to it (on normalized vectors) is at least
    tau, TAU_RATIO times the largest relatedness between distinct topics,
    and that passes merge_guard against it. An alias is checked against its
    canonical only, so A~B and B~C do not chain A to C."""
    keys = sorted(
        (k for k in keys if k in space.topic_index),
        key=lambda k: (-candidates[k].ner_frequency, k),
    )
    if len(keys) < 2:
        return {k: [] for k in keys}

    # normalize pair surfaces the same way candidate keys are
    norm_pairs = {
        (normalize_key(long_form), normalize_key(acro)) for long_form, acro in acronym_pairs
    }

    vecs = np.vstack([_unit(space.topic_vector(k)) for k in keys])
    rel = vecs @ vecs.T
    np.fill_diagonal(rel, -np.inf)
    tau = TAU_RATIO * float(rel.max())

    result: dict[str, list[str]] = {}
    taken = np.zeros(len(keys), dtype=bool)
    for i, key in enumerate(keys):
        if taken[i]:
            continue
        # every key before i is a canonical or taken, so look after it
        near = np.flatnonzero((rel[i, i + 1 :] >= tau) & ~taken[i + 1 :]) + (i + 1)
        cand = candidates[key]
        aliases = [j for j in near.tolist() if merge_guard(cand, candidates[keys[j]], norm_pairs)]
        taken[aliases] = True
        result[key] = sorted(keys[j] for j in aliases)
    return result


# ---------------------------------------------------------------------------
# Cards
# ---------------------------------------------------------------------------


@dataclass
class TopicCard:
    key: str
    display_name: str
    entity_type: str
    alternate_names: list[str]
    definitions: list[str]
    related_topics: list[tuple[str, float]]
    related_docs: list[tuple[str, float]]
    related_people: list[tuple[str, float]]

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "display_name": self.display_name,
            "entity_type": self.entity_type,
            "alternate_names": self.alternate_names,
            "definitions": self.definitions,
            "related_topics": [[k, s] for k, s in self.related_topics],
            "related_docs": [[d, s] for d, s in self.related_docs],
            "related_people": [[u, s] for u, s in self.related_people],
        }


MAX_DEFINITIONS = 3
RECALL_FACTOR = 3  # documents recalled by embedding per related-doc slot, before the rerank


def build_card(
    candidate,
    definitions: list,
    aliases: list[str],
    acronyms: list[str],
    space: EmbeddingSpace,
    k: int,
    doc_signals: Callable[[list[str]], dict[str, dict]],
) -> TopicCard:
    """Assemble one topic card from ranked data and the embedding space.
    doc_signals maps the doc ids the embedding recalls to their rerank
    signals; it is asked for those documents only."""
    defs = sorted(definitions, key=lambda r: (-r.confidence, r.doc_id, r.sentence_index))
    def_texts = [r.sentence_text for r in defs[:MAX_DEFINITIONS]]

    related_topics = top_k_related(candidate.key, space, "topic", k)
    related_people = top_k_related(candidate.key, space, "user", k)
    doc_candidates = top_k_related(candidate.key, space, "doc", k * RECALL_FACTOR)
    related_docs = []
    if doc_candidates:
        signals = doc_signals([d for d, _ in doc_candidates])
        related_docs = rerank_related_docs(doc_candidates, signals)[:k]

    alt = sorted(set(aliases) | set(acronyms))
    return TopicCard(
        key=candidate.key,
        display_name=candidate.display_name,
        entity_type=candidate.entity_type,
        alternate_names=alt,
        definitions=def_texts,
        related_topics=related_topics,
        related_docs=related_docs,
        related_people=related_people,
    )


# ---------------------------------------------------------------------------
# Embedding export
# ---------------------------------------------------------------------------

_MAGIC = b"KBEM"


def write_embeddings(path: str | Path, ids: list[str], matrix: np.ndarray, kind: str) -> None:
    """Binary: magic, kind (16 bytes padded ascii), n and d as LE uint64,
    then row-major LE float64; JSON row index written alongside."""
    path = Path(path)
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    n, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(kind.encode("ascii")[:16].ljust(16, b"\0"))
        fh.write(struct.pack("<QQ", n, d))
        fh.write(matrix.tobytes())
    index = {ids[i]: i for i in range(n)}
    with open(path.with_suffix(path.suffix + ".index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True)


def read_embeddings(path: str | Path) -> tuple[list[str], np.ndarray, str]:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not an embedding file")
        kind = fh.read(16).rstrip(b"\0").decode("ascii")
        n, d = struct.unpack("<QQ", fh.read(16))
        matrix = np.frombuffer(fh.read(n * d * 8), dtype="<f8").reshape(n, d)
    with open(path.with_suffix(path.suffix + ".index.json"), "r", encoding="utf-8") as fh:
        index = json.load(fh)
    return sorted(index, key=index.get), matrix.copy(), kind
