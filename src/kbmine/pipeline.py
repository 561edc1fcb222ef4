"""End-to-end orchestration: semi-streaming updates and deletions, batch
runs (an update from an empty state), ranking refresh and KB export.

Deletion is exact: every fact in the state belongs to one document, in that
document's one frozen DocRecord. The record keeps only what a rebuild reads,
each fact once: the doc_id, author and timestamp, the token length, the
topic-counter contribution (title-mention and surface counts per topic key),
the acronym pairs and the definitions. The document's title and body are
read by extract alone and are not kept in the record; the state's sentence
memo holds the texts of at most 4,096 short sentences in memory for the
state's life and never saves them. A saved state line is that record as
written by DocRecord.to_line, and the topic candidates are derived from the
records' contributions. An upsert runs extract to completion and then swaps
the new record in, so a failed extraction leaves the state as it was.
Removing a document drops its record and restores the state a batch run on
the reduced corpus would produce, and no deleted text survives in exports.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import shutil
import sys
import time
import typing
import urllib.parse
from dataclasses import dataclass, asdict
from pathlib import Path

from . import cardbuild, corpus, defmine, nertag, topicrank

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A bad config file or setting, as opposed to bad input data."""


class StageError(RuntimeError):
    """The SVD's MemoryBudgetError: the one failure neither bad input nor a bug."""

    def __init__(self, cause: Exception):
        super().__init__(f"stage 'build' failed: {cause}")


@dataclass
class PipelineConfig:
    corpus_path: str = ""
    output_dir: str = "kb_out"
    tagger_model: str = ""            # trained TaggerModel (.npz)
    score_file: str = ""              # external scorer bypass (JSONL)
    ranker_model: str = ""            # trained GbdtModel (.json)
    def_classifier: str = ""          # trained LinearClassifier (.npz); rule-based if empty
    patterns_file: str = ""
    negative_lexicon: str = ""
    abbreviations_file: str = ""
    entity_types: tuple = nertag.DEFAULT_ENTITY_TYPES
    shortlist_n: int = 1000
    final_top_k: int = 100
    min_topic_score: float = 0.0
    card_k: int = 5
    svd_rank: int = 16
    svd_oversampling: int = 8
    memory_budget: int = 512 * 1024 * 1024  # also picks the SVD batch size
    seed: int = 0

    def __post_init__(self):
        """Every construction path checks each field against its declared
        type by corpus.has_type (an int passes as a float, a bool as neither,
        a float must be finite) and the range and cross-field rules;
        ConfigError names the first bad field."""
        if isinstance(self.entity_types, list):
            self.entity_types = tuple(self.entity_types)
        for name, hint in _CONFIG_TYPES.items():
            value = getattr(self, name)
            if not corpus.has_type(value, hint):
                kind = {tuple: "list", float: "finite float"}.get(hint, hint.__name__)
                raise ConfigError(f"{name} must be {kind}, not {value!r}")
        try:
            nertag.LabelSet(self.entity_types)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, least in _CONFIG_MINIMA.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, not {getattr(self, name)!r}")
        if self.shortlist_n < self.final_top_k:
            raise ConfigError("shortlist_n must be >= final_top_k")

    @classmethod
    def from_file(cls, path: str | Path | None, **overrides) -> "PipelineConfig":
        """The config a JSON file (or, with path None, the defaults) gives
        once the overrides that are not None replace its values."""
        data = {}
        if path is not None:
            try:
                data = corpus.read_json(path)
            except OSError as exc:  # names the file
                raise ConfigError(str(exc)) from None
            except ValueError as exc:
                raise ConfigError(f"config file {path}: {exc}") from None
            if not isinstance(data, dict):
                raise ConfigError("config file does not hold a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# field name -> the type its declaration gives
_CONFIG_TYPES = typing.get_type_hints(PipelineConfig)
# count field -> the least value it may take
_CONFIG_MINIMA = {
    "shortlist_n": 1, "final_top_k": 1, "card_k": 1, "svd_rank": 1, "memory_budget": 1,
    "svd_oversampling": 0,
}


@dataclass
class Models:
    """The model bundle shared by batch and streaming paths. Each input is
    read and checked on its first use, once per bundle, so a command reads
    only the files it uses: export and refresh the ranker, update all but
    the ranker, mine all. A bad file fails that first use; after it, each
    attribute is a plain instance-dict lookup."""

    config: PipelineConfig

    @classmethod
    def load(cls, config: PipelineConfig) -> "Models":
        """The bundle for config; reads no file."""
        if not (config.score_file or config.tagger_model):
            raise ConfigError("config needs either tagger_model or score_file")
        return cls(config)

    @functools.cached_property
    def external_scores(self) -> dict | None:
        """The score file's matrices; None if the tagger scores instead."""
        if not self.config.score_file:
            return None
        return nertag.load_external_scores(self.config.score_file, len(self.labelset))

    @functools.cached_property
    def tagger(self) -> nertag.TaggerModel | None:
        """None when a score file is configured: it takes the tagger's place."""
        if self.config.score_file:
            return None
        return nertag.TaggerModel.load(self.config.tagger_model)

    @functools.cached_property
    def labelset(self) -> nertag.LabelSet:
        if self.config.score_file:
            return nertag.LabelSet(self.config.entity_types)
        return self.tagger.labelset

    @functools.cached_property
    def ranker(self) -> topicrank.GbdtModel | None:
        path = self.config.ranker_model
        return topicrank.GbdtModel.load(path) if path else None

    @functools.cached_property
    def patterns(self) -> tuple:
        path = self.config.patterns_file
        return defmine.load_patterns(path) if path else defmine.DEFAULT_PATTERNS

    @functools.cached_property
    def classifier(self):
        # the rule classifier and the extractor read one pattern tuple
        path = self.config.def_classifier
        if path:
            return defmine.LinearClassifier.load(path)
        return defmine.RuleClassifier(self.patterns)

    @functools.cached_property
    def lexicon(self) -> defmine.OpinionLexicon:
        return defmine.OpinionLexicon.load(self.config.negative_lexicon or None)

    @functools.cached_property
    def abbreviations(self) -> frozenset:
        path = self.config.abbreviations_file
        return corpus.load_abbreviations(path) if path else corpus.DEFAULT_ABBREVIATIONS


@dataclass(frozen=True)
class UpdateEvent:
    kind: str  # "upsert" | "delete"
    document: corpus.Document | None = None
    doc_id: str | None = None

    def __post_init__(self):
        if self.kind == "upsert" and self.document is None:
            raise ValueError("upsert event needs a document")
        if self.kind == "delete" and not self.doc_id:
            raise ValueError("delete event needs a doc_id")
        if self.kind not in ("upsert", "delete"):
            raise ValueError(f"unknown event kind: {self.kind}")


STATE_FILE = "documents.jsonl"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True, slots=True)
class DocRecord:
    """Everything the state knows about one live document, and the state
    line that saves it.

    A loaded record's ledger entries are shared: PipelineState.load gives
    equal entries of different documents one dict. So no code writes to an
    entry; an upsert's record gets fresh ones from topicrank.contribution."""

    doc_id: str
    author_id: str
    timestamp: float
    length: int  # token count, at least 1
    ledger: dict[str, dict]  # topic key -> {"titles": n, "surfaces": {surface: n}}
    acronyms: tuple[tuple[str, str], ...]  # (long form, acronym)
    definitions: tuple[defmine.DefinitionRecord, ...]

    def to_line(self) -> str:
        """The state line: one JSON object with the STATE_KEYS fields."""
        line = {k: getattr(self, k) for k in STATE_KEYS}
        line["definitions"] = [r.to_dict() for r in self.definitions]
        return json.dumps(line)

    @classmethod
    def from_line(cls, obj, seen=(), entries: dict | None = None) -> "DocRecord":
        """Inverse of to_line on a decoded line; ValueError names the first
        value that is not of the kind to_line writes, or a doc_id in seen.
        entries is _parse_ledger's table of shared ledger entries."""
        corpus.check_record(obj, STATE_KEYS, exact=True)
        doc_id, author_id, timestamp = corpus.parse_source(obj)
        if doc_id in seen:
            raise ValueError(f"doc_id {doc_id!r} is on an earlier line too")
        if not (corpus.has_type(obj["length"], int) and obj["length"] >= 1):
            raise ValueError(f"length is {obj['length']!r}, not an int >= 1")
        ledger = _parse_ledger(obj["ledger"], entries)
        if not isinstance(obj["acronyms"], list):
            raise ValueError("acronyms is not a list")
        pairs = tuple(_acronym_pair(p) for p in obj["acronyms"])
        if not isinstance(obj["definitions"], list):
            raise ValueError("definitions is not a list")
        records = tuple(defmine.DefinitionRecord.from_dict(d, doc_id) for d in obj["definitions"])
        return cls(doc_id, author_id, timestamp, obj["length"], ledger, pairs, records)


# the state line's keys, in the order to_line writes them
STATE_KEYS = tuple(DocRecord.__dataclass_fields__)


# Entries a state's sentence memo may hold before it is cleared, and the
# longest sentence, in characters, that it keeps. Titles, templates and
# boilerplate are short; the two bounds cap the text the memo holds at 1 Mi
# characters, whatever the corpus's sentence lengths.
_SENTENCE_MEMO_LIMIT = 4096
_MEMO_SENTENCE_CHARS = 256


def extract(doc: corpus.Document, models: Models, memo: dict | None = None) -> DocRecord:
    """The document's record; reads no state and writes none. The only
    reader of document text: one sentence split feeds the tagger, the
    definition miner and the acronym extractor. memo maps a sentence's
    (from_title, text) to its tagged token count and mentions, filled by
    _tag; None tags every distinct sentence of the document. A score-file
    matrix whose row count is not its sentence's token count raises
    ValueError naming the document and sentence."""
    sentences = corpus.split_sentences(doc, models.abbreviations)
    if models.external_scores is None:
        length, mentions = _tag(sentences, models, {} if memo is None else memo)
    else:
        length, mentions = _tag_from_scores(doc.doc_id, sentences, models)
    return DocRecord(
        doc_id=doc.doc_id,
        author_id=doc.author_id,
        timestamp=doc.timestamp,
        length=max(1, length),
        ledger=topicrank.contribution(mentions),
        acronyms=tuple(cardbuild.extract_acronym_aliases(s.text for s in sentences)),
        definitions=tuple(
            defmine.mine_definitions(sentences, models.classifier, models.patterns, models.lexicon)
        ),
    )


def _tag(sentences: list[corpus.Sentence], models: Models, memo: dict) -> tuple[int, list]:
    """The sentences' token count and mentions, in sentence order. A
    sentence's (token count, mentions) is looked up in memo by (from_title,
    text), which fix both; the distinct misses that have tokens are scored
    in one nertag.score_tokens call and decoded by _mentions, and each miss
    of at most _MEMO_SENTENCE_CHARS characters is remembered, at most
    _SENTENCE_MEMO_LIMIT entries."""
    keys = [(sent.from_title, sent.text) for sent in sentences]
    found = {}  # key -> (token count, mentions); memo may be cleared part way
    misses = {}  # key -> tokens of each distinct miss
    for sent, key in zip(sentences, keys):
        if key in found or key in misses:
            continue
        hit = memo.get(key)
        if hit is None:
            misses[key] = corpus.tokenize(sent)
        else:
            found[key] = hit
    scored = [(tokens, key[0]) for key, tokens in misses.items() if tokens]
    tagged = iter(())  # a document whose sentences all hit scores nothing
    if scored:
        doc_scores = nertag.score_tokens(models.tagger, scored)
        tagged = iter(_mentions(scored, doc_scores, models.labelset))
    for key, tokens in misses.items():
        found[key] = (len(tokens), tuple(next(tagged)) if tokens else ())
        if len(key[1]) <= _MEMO_SENTENCE_CHARS:
            nertag.remember(memo, key, found[key], _SENTENCE_MEMO_LIMIT)
    results = [found[key] for key in keys]
    return sum(n for n, _ in results), [m for _, mentions in results for m in mentions]


def _tag_from_scores(
    doc_id: str, sentences: list[corpus.Sentence], models: Models
) -> tuple[int, list]:
    """The sentences' token count and the mentions the score file's
    matrices give, keyed by (doc_id, sentence index); a sentence the file
    does not score has none."""
    tokenized = [(sent, tokens) for sent in sentences if (tokens := corpus.tokenize(sent))]
    scored, doc_scores = [], []
    for sent, tokens in tokenized:
        scores = models.external_scores.get((doc_id, sent.index))
        if scores is None:
            continue
        if len(scores) != len(tokens):
            raise ValueError(
                f"doc_id {doc_id!r} sentence_index {sent.index}: the score file "
                f"gives {len(scores)} rows for its {len(tokens)} tokens"
            )
        scored.append((tokens, sent.from_title))
        doc_scores.append(scores)
    mentions = [m for each in _mentions(scored, doc_scores, models.labelset) for m in each]
    return sum(len(tokens) for _, tokens in tokenized), mentions


def _mentions(
    scored: list[tuple[list[str], bool]], doc_scores: list, labelset: nertag.LabelSet
) -> list[list[nertag.Mention]]:
    """Each (tokens, from_title) sentence's mentions, its score matrix in
    doc_scores; one nertag.decode call decodes them all."""
    return [
        nertag.extract_mentions(tokens, labels, labelset, from_title=from_title)
        for (tokens, from_title), labels in zip(scored, nertag.decode(doc_scores, labelset))
    ]


class PipelineState:
    """Everything needed to serve updates and rebuild the KB: one DocRecord
    per live document, keyed by doc_id. The state also holds extract's
    sentence memo, which belongs to the Models of its last upsert, starts
    empty, and is never saved."""

    def __init__(self):
        self.documents: dict[str, DocRecord] = {}
        self._memo_models: Models | None = None
        self._sentence_memo: dict = {}

    @functools.cached_property
    def store(self) -> topicrank.CandidateStore:
        """The candidate store over the records' ledger entries, built on
        the first read after a write; each write below drops it."""
        return topicrank.CandidateStore.from_ledger(
            {doc_id: rec.ledger for doc_id, rec in self.documents.items()}
        )

    def process_document(self, doc: corpus.Document, models: Models) -> None:
        """Upsert: extract runs to completion before the record is swapped
        in, so a failed extraction leaves the state as it was. Another
        Models than the last upsert's starts a new sentence memo."""
        if models is not self._memo_models:
            self._memo_models, self._sentence_memo = models, {}
        self.documents[doc.doc_id] = extract(doc, models, self._sentence_memo)
        self.__dict__.pop("store", None)

    def remove_document(self, doc_id: str) -> bool:
        self.__dict__.pop("store", None)
        return self.documents.pop(doc_id, None) is not None

    def acronym_pairs(self) -> list[tuple[str, str]]:
        """Every document's acronym pairs in doc-id order, first occurrence
        kept: the list one pass over the whole live corpus would give."""
        return list(dict.fromkeys(p for _, r in sorted(self.documents.items()) for p in r.acronyms))

    # -- persistence ---------------------------------------------------------

    def save(self, state_dir: str | Path) -> None:
        """Replace STATE_FILE in state_dir (made if missing) with the records'
        to_line, sorted by doc_id: write and fsync STATE_FILE.tmp, os.replace
        it, then fsync state_dir. A crash leaves the old file or the new one."""
        state_dir = Path(state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        tmp = state_dir / (STATE_FILE + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(rec.to_line() + "\n" for _, rec in sorted(self.documents.items()))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, state_dir / STATE_FILE)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        fd = os.open(state_dir, os.O_RDONLY)  # the rename is durable once its directory is
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @classmethod
    def load(cls, state_dir: str | Path) -> "PipelineState":
        state = cls()
        # read_records is lazy: each record is added before the next line is parsed
        # one table per load: equal ledger entries are one shared dict
        parse = functools.partial(DocRecord.from_line, seen=state.documents, entries={})
        path = Path(state_dir) / STATE_FILE
        for rec in corpus.read_records(path, parse, f"corrupt state: {STATE_FILE}"):
            state.documents[rec.doc_id] = rec
        return state


def _parse_ledger(contrib, entries: dict | None = None) -> dict[str, dict]:
    """A saved ledger, each entry checked to be of the kind
    topicrank.contribution builds. json.loads shares equal strings within
    one line only, so each topic key and surface is interned to share it
    across the lines that repeat it, and the literal field names are shared
    constants, as in contribution's entries. One loop checks and interns
    each surface and sums the counts; on a decoded JSON value,
    `type(v) is int` is corpus.has_type(v, int), as a bool or float is never
    of type int.

    entries hash-conses the entries: it maps an entry's signature, the flat
    tuple (key, titles, surface, count, surface, count, ...) in file order,
    to the first entry parsed with it, and an equal entry parsed later is
    that same dict, so only a new entry builds its surfaces dict and checks
    its key: a normalized surface (topicrank.normalize_key), KEY_SEP and a
    non-empty entity type, as topicrank.candidate_key builds it. The
    signature holds the interned strings and the counts of its entry, so
    the table adds one tuple per distinct entry and no copy of a string.
    One table passed for every line of a file makes equal entries one
    object, which must never be written to; without a table nothing is
    shared."""
    if not isinstance(contrib, dict):
        raise ValueError("ledger is not an object")
    if entries is None:
        entries = {}  # the signature holds the key, unique in one ledger: nothing is shared
    ledger = {}
    for key, c in contrib.items():
        surfaces = c.get("surfaces") if type(c) is dict and len(c) == 2 else None
        total, flat = 0, []  # total stays 0 unless every count is an int >= 1
        if type(surfaces) is dict:
            for s, n in surfaces.items():
                if type(s) is not str or type(n) is not int or n < 1:
                    total = 0
                    break
                total += n
                flat += (sys.intern(s), n)
        titles = c.get("titles") if total else None
        if not (type(titles) is int and 0 <= titles <= total):
            raise ValueError(
                f"ledger entry for {key!r} needs a non-empty surfaces mapping str to "
                "int >= 1, int titles from 0 to the sum of those counts, and no other key"
            )
        key = sys.intern(key)
        signature = (key, titles, *flat)
        entry = entries.get(signature)
        if entry is None:
            surface, _, entity_type = key.rpartition(nertag.KEY_SEP)
            if not entity_type or _normal_form(surface) != surface:
                raise ValueError(f"ledger key {key!r} is not a normalized surface, "
                                 f"{nertag.KEY_SEP!r} and an entity type")
            pairs = iter(flat)  # zip(pairs, pairs) yields (surface, count)
            entry = entries[signature] = {"titles": titles, "surfaces": dict(zip(pairs, pairs))}
        ledger[key] = entry
    return ledger


def _acronym_pair(pair) -> tuple[str, str]:
    """A saved [long form, acronym] pair as the tuple the build uses: two
    strings that each normalize, as extraction's pairs do."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, str) and _normal_form(x) for x in pair)):
        raise ValueError(f"bad acronym pair: {pair!r}")
    return pair[0], pair[1]


def _normal_form(surface: str) -> str | None:
    """topicrank.normalize_key(surface), or None if it normalizes to empty."""
    try:
        return topicrank.normalize_key(surface)
    except ValueError:
        return None


def apply_update(state: PipelineState, event: UpdateEvent, models: Models) -> bool:
    """Apply one event; False if it changed nothing: a delete, or an upsert
    marked deleted, of an unknown doc_id. An upsert marked deleted removes."""
    if event.kind == "delete":
        if not state.remove_document(event.doc_id):
            logger.warning("delete of unknown doc_id %r ignored", event.doc_id)
            return False
    elif event.document.deleted:
        return state.remove_document(event.document.doc_id)
    else:
        state.process_document(event.document, models)
    return True


def rank_refresh(state: PipelineState, config: PipelineConfig, models: Models):
    """Shortlist + rerank on current counters, no document reprocessing."""
    keys = topicrank.shortlist(state.store, config.shortlist_n)
    if models.ranker is None:
        # no ranker model: fall back to NER-frequency order with score 1.0
        return topicrank.RankedTopicList(entries=[(k, 1.0) for k in keys[: config.final_top_k]])
    return topicrank.rerank_and_filter(
        keys, state.store, models.ranker, config.final_top_k, config.min_topic_score
    )


@dataclass
class KnowledgeBase:
    cards: list[cardbuild.TopicCard]
    manifest: dict
    space: cardbuild.EmbeddingSpace | None = None


def _doc_tf_stats(state: PipelineState) -> dict[str, dict]:
    return {
        doc_id: {
            "length": rec.length,
            "tf": {key: topicrank.mention_count(c) for key, c in rec.ledger.items()},
        }
        for doc_id, rec in state.documents.items()
    }


def build_knowledge_base(
    state: PipelineState, config: PipelineConfig, models: Models
) -> KnowledgeBase:
    """Ranking through card assembly on the current state."""
    ranked = rank_refresh(state, config, models)
    config_hash, snapshot_id = config.config_hash(), _corpus_snapshot_id(state)
    manifest = {
        "run_id": hashlib.sha256((config_hash + snapshot_id).encode()).hexdigest()[:16],
        "config_hash": config_hash,
        "corpus_snapshot_id": snapshot_id,
        "n_documents": len(state.documents),
        "n_topics": len(ranked.entries),
        "timestamp": time.time(),
    }
    if not ranked.entries:
        return KnowledgeBase(cards=[], manifest=manifest)

    matrix = cardbuild.build_matrix(ranked.keys(), _doc_tf_stats(state))

    # clamp the sketch size to what the matrix supports
    limit = min(matrix.n_topics, matrix.n_docs)
    rank = max(1, min(config.svd_rank, limit))
    oversampling = min(config.svd_oversampling, limit - rank)
    svd_config = cardbuild.SvdConfig(
        rank=rank, oversampling=oversampling, memory_budget=config.memory_budget, seed=config.seed
    )
    try:
        topic_vecs, doc_vecs, _, peak = cardbuild.batched_randomized_svd(matrix, svd_config)
    except cardbuild.MemoryBudgetError as exc:
        raise StageError(exc) from exc
    manifest["svd_peak_bytes"] = peak

    authorship: dict[str, list[str]] = {}
    for doc_id in matrix.doc_ids:
        authorship.setdefault(state.documents[doc_id].author_id, []).append(doc_id)
    user_ids, user_vecs = cardbuild.build_user_vectors(
        authorship, matrix.doc_ids, doc_vecs
    )
    space = cardbuild.EmbeddingSpace(
        topic_keys=list(matrix.topic_keys),
        topic_vectors=topic_vecs,
        doc_ids=list(matrix.doc_ids),
        doc_vectors=doc_vecs,
        user_ids=user_ids,
        user_vectors=user_vecs,
    )

    acronym_pairs = state.acronym_pairs()
    conflation = cardbuild.conflate_all(
        matrix.topic_keys, state.store.candidates, space, acronym_pairs
    )

    definitions_by_key: dict[str, list] = {}
    for record in state.documents.values():
        for definition in record.definitions:
            definitions_by_key.setdefault(definition.topic_key, []).append(definition)

    acro_by_norm: dict[str, list[str]] = {}
    for long_form, acro in acronym_pairs:
        acro_by_norm.setdefault(topicrank.normalize_key(long_form), []).append(acro)

    by_topic = matrix.matrix.transpose()  # column i is topic i's row
    timestamps = {doc_id: rec.timestamp for doc_id, rec in state.documents.items()}
    cards = []
    for canonical in sorted(conflation):
        cand = state.store.candidates[canonical]
        alias_keys = conflation[canonical]
        aliases = [state.store.candidates[k].display_name for k in alias_keys]
        norm_surfaces = {cand.norm_surface} | {
            state.store.candidates[k].norm_surface for k in alias_keys
        }
        defs = []
        for ns in norm_surfaces:
            defs.extend(definitions_by_key.get(ns, []))
        acronyms = []
        for ns in sorted(norm_surfaces):
            acronyms.extend(acro_by_norm.get(ns, []))

        # the documents in the topic's BM25 column: each has the topic in its ledger
        docs, weights = by_topic.column(space.topic_index[canonical])
        topic_docs = {
            doc_id: (w, state.documents[doc_id].ledger[canonical]["titles"] > 0)
            for doc_id, w in zip((matrix.doc_ids[j] for j in docs), weights)
        }
        cards.append(
            cardbuild.build_card(
                cand,
                defs,
                aliases,
                acronyms,
                space,
                config.card_k,
                topic_docs,
                timestamps,
            )
        )
    return KnowledgeBase(cards=cards, manifest=manifest, space=space)


def _corpus_snapshot_id(state: PipelineState) -> str:
    h = hashlib.sha256()
    for doc_id, rec in sorted(state.documents.items()):
        h.update(f"{doc_id}\x00{rec.timestamp}\x00{rec.length}\x00".encode())
    return h.hexdigest()[:16]


def run_full(config: PipelineConfig) -> tuple[PipelineState, KnowledgeBase]:
    """Batch run: an update from an empty state. Each valid corpus record
    is applied as an upsert, in file order, so a later record with the same
    doc_id replaces an earlier one and a record marked deleted removes its
    document; a bad line is logged and skipped. Then ranking, embeddings
    and cards. Each record is dropped once it is applied."""
    models = Models.load(config)
    state = PipelineState()
    for lineno, doc, reason in corpus.read_corpus(config.corpus_path):
        if reason is None:
            apply_update(state, UpdateEvent("upsert", document=doc), models)
        else:
            logger.warning("corpus line %d skipped: %s", lineno, reason)
    return state, build_knowledge_base(state, config, models)


def mine_corpus(config: PipelineConfig, state_dir: str | Path | None = None) -> KnowledgeBase:
    """kbmine mine: run_full, then save the state to state_dir, if given,
    and export the KB. check_output_dir refuses the paths before any work."""
    check_output_dir(config.output_dir, state_dir)
    state, kb = run_full(config)
    if state_dir:
        state.save(state_dir)
    export_kb(kb, config.output_dir)
    return kb


def update_state(state_dir: str | Path, events_path: str | Path, models: Models,
                 on_event=None) -> int:
    """kbmine update: apply each event to the saved state, in file order,
    then save it; returns the event count. A missing or unreadable state
    fails before any event, and a bad event line before the save. After each
    event, on_event(event, changed, seconds): apply_update's result and wall
    time."""
    state = PipelineState.load(state_dir)
    n = 0
    for n, event in enumerate(read_events(events_path), 1):
        start = time.perf_counter()
        changed = apply_update(state, event, models)
        if on_event is not None:
            on_event(event, changed, time.perf_counter() - start)
    state.save(state_dir)
    return n


def export_state(state_dir: str | Path, config: PipelineConfig, models: Models) -> KnowledgeBase:
    """kbmine export: build the KB from the saved state and export it.
    check_output_dir refuses the paths before the state is read."""
    check_output_dir(config.output_dir, state_dir)
    kb = build_knowledge_base(PipelineState.load(state_dir), config, models)
    export_kb(kb, config.output_dir)
    return kb


def read_events(path: str | Path):
    """JSONL event stream: {"kind": "upsert", "document": {...}} or
    {"kind": "delete", "doc_id": "..."}. A bad line raises ValueError
    naming its line number; events before it have already been yielded."""
    return corpus.read_records(path, _parse_event, "events")


def _parse_event(obj) -> UpdateEvent:
    kind = corpus.check_record(obj, ()).get("kind")
    required = {"upsert": "document", "delete": "doc_id"}.get(kind)
    if required is None:
        raise ValueError(f"unknown event kind: {kind!r}")
    corpus.check_record(obj, (required,))
    if kind == "upsert":
        return UpdateEvent(kind, document=corpus.parse_document(obj["document"]))
    return UpdateEvent(kind, doc_id=corpus.parse_doc_id(obj["doc_id"]))


def _siblings(out_dir: Path) -> tuple[Path, Path]:
    """<out>.staging and <out>.old, which _write_dir_atomically replaces."""
    return out_dir.parent / (out_dir.name + ".staging"), out_dir.parent / (out_dir.name + ".old")


def check_output_dir(out_dir: str | Path, state_dir: str | Path | None = None) -> None:
    """ValueError if out_dir, a KB directory that export_kb swaps out whole,
    is the working directory or holds it; or if out_dir, or the
    <out>.staging or <out>.old that the swap also replaces, exists and is
    not a directory, or is a non-empty directory without MANIFEST_FILE: it
    is then no earlier export, and replacing it would lose what it holds.
    With state_dir, first if the two overlap (the swap would take a state in
    out_dir along, and a KB at <state>/STATE_FILE.tmp fails every later
    save), and last if state_dir exists and is not a directory. Callers
    check before any work whose result goes there."""
    if state_dir:
        out, state = Path(out_dir).resolve(), Path(state_dir).resolve()
        if out == state or out in state.parents or state in out.parents:
            raise ValueError(f"output directory {out_dir} and state directory {state_dir} overlap")
    out_dir = Path(out_dir)
    resolved, cwd = out_dir.resolve(), Path.cwd().resolve()
    if resolved == cwd or resolved in cwd.parents:
        raise ValueError(f"{out_dir} is the working directory or holds it")
    for path in (out_dir, *_siblings(out_dir)):
        if path.exists() and not path.is_dir():
            raise ValueError(f"{path} exists and is not a directory")
        if path.is_dir() and not (path / MANIFEST_FILE).is_file() and any(path.iterdir()):
            raise ValueError(
                f"{path} is not empty and has no {MANIFEST_FILE}, so it is not replaced"
            )
    if state_dir and Path(state_dir).exists() and not Path(state_dir).is_dir():
        raise ValueError(f"{state_dir} exists and is not a directory")


def _write_dir_atomically(out_dir: Path, write) -> None:
    """Call write(staging), which writes MANIFEST_FILE first, on a fresh
    sibling directory, then swap it in for out_dir: a failed write leaves no
    partial output and the old tree as it was, and a rewrite replaces the
    old tree. check_output_dir runs before anything is written."""
    check_output_dir(out_dir)
    staging, trash = _siblings(out_dir)
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        write(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if out_dir.exists():
        if trash.exists():
            shutil.rmtree(trash)
        out_dir.rename(trash)
    staging.rename(out_dir)
    # also when there was no out_dir: a crash between the two renames leaves <out>.old
    if trash.exists():
        shutil.rmtree(trash)


def export_kb(kb: KnowledgeBase, out_dir: str | Path) -> None:
    """Write the manifest, one JSON file per card and the embedding files
    atomically (see _write_dir_atomically), each JSON file in one json.dumps
    (json.dump or indent runs the pure-Python encoder). The manifest goes
    first: a crash leaves a staging directory the next export replaces."""

    def write(staging: Path) -> None:
        card_index = {}
        for card in kb.cards:
            fname = urllib.parse.quote(card.key, safe="") + ".json"
            if len(fname) > 255:  # the usual file-name limit, in bytes; quote gives ASCII
                # a quoted key holds %7C%7C (KEY_SEP): a digest name is never a quoted one
                fname = hashlib.sha256(card.key.encode()).hexdigest() + ".json"
            card_index[card.key] = f"cards/{fname}"
        with open(staging / MANIFEST_FILE, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**kb.manifest, "cards": card_index}, sort_keys=True))
        (staging / "cards").mkdir()
        for card in kb.cards:
            with open(staging / card_index[card.key], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(card.to_dict(), sort_keys=True))
        if kb.space is not None:
            cardbuild.write_embeddings(
                staging / "topics.emb", kb.space.topic_keys, kb.space.topic_vectors, "topic"
            )
            cardbuild.write_embeddings(
                staging / "docs.emb", kb.space.doc_ids, kb.space.doc_vectors, "doc"
            )
            cardbuild.write_embeddings(
                staging / "users.emb", kb.space.user_ids, kb.space.user_vectors, "user"
            )

    _write_dir_atomically(Path(out_dir), write)
