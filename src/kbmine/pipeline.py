"""End-to-end orchestration: batch runs, semi-streaming updates and
deletions, ranking refresh, and knowledge-base export.

Deletion is exact: every fact in the state belongs to one document, in that
document's one frozen DocRecord. The record keeps only what a rebuild reads,
each fact once: the doc_id, author and timestamp, the token length, the
topic-counter contribution (title-mention and surface counts per topic key),
the acronym pairs and the definitions. The document's title and body are
read by extract alone and are not kept. A saved state line is that record as
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
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


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
            except (OSError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
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
    """Loaded model bundle shared by batch and streaming paths."""

    tagger: nertag.TaggerModel | None
    external_scores: dict | None
    labelset: nertag.LabelSet
    ranker: topicrank.GbdtModel | None
    classifier: object
    patterns: tuple
    lexicon: defmine.OpinionLexicon
    abbreviations: frozenset

    @classmethod
    def load(cls, config: PipelineConfig) -> "Models":
        tagger = None
        external = None
        if config.score_file:
            labelset = nertag.LabelSet(config.entity_types)
            external = nertag.load_external_scores(config.score_file, len(labelset))
        elif config.tagger_model:
            tagger = nertag.TaggerModel.load(config.tagger_model)
            labelset = tagger.labelset
        else:
            raise ConfigError("config needs either tagger_model or score_file")
        ranker = (
            topicrank.GbdtModel.load(config.ranker_model) if config.ranker_model else None
        )
        patterns = (
            defmine.load_patterns(config.patterns_file)
            if config.patterns_file
            else defmine.DEFAULT_PATTERNS
        )
        # the rule classifier and the extractor read one pattern tuple
        classifier = (
            defmine.LinearClassifier.load(config.def_classifier)
            if config.def_classifier
            else defmine.RuleClassifier(patterns)
        )
        lexicon = defmine.OpinionLexicon.load(config.negative_lexicon or None)
        abbreviations = (
            corpus.load_abbreviations(config.abbreviations_file)
            if config.abbreviations_file
            else corpus.DEFAULT_ABBREVIATIONS
        )
        return cls(
            tagger=tagger,
            external_scores=external,
            labelset=labelset,
            ranker=ranker,
            classifier=classifier,
            patterns=patterns,
            lexicon=lexicon,
            abbreviations=abbreviations,
        )


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
    line that saves it."""

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
    def from_line(cls, obj, seen=()) -> "DocRecord":
        """Inverse of to_line on a decoded line; ValueError names the first
        value that is not of the kind to_line writes, or a doc_id in seen."""
        corpus.check_record(obj, STATE_KEYS, exact=True)
        doc_id, author_id, timestamp = corpus.parse_source(obj)
        if doc_id in seen:
            raise ValueError(f"doc_id {doc_id!r} is on an earlier line too")
        if not (corpus.has_type(obj["length"], int) and obj["length"] >= 1):
            raise ValueError(f"length is {obj['length']!r}, not an int >= 1")
        ledger = _parse_ledger(obj["ledger"])
        if not isinstance(obj["acronyms"], list):
            raise ValueError("acronyms is not a list")
        pairs = tuple(_acronym_pair(p) for p in obj["acronyms"])
        if not isinstance(obj["definitions"], list):
            raise ValueError("definitions is not a list")
        records = tuple(defmine.DefinitionRecord.from_dict(d, doc_id) for d in obj["definitions"])
        return cls(doc_id, author_id, timestamp, obj["length"], ledger, pairs, records)


# the state line's keys, in the order to_line writes them
STATE_KEYS = tuple(DocRecord.__dataclass_fields__)


def extract(doc: corpus.Document, models: Models) -> DocRecord:
    """The document's record; reads no state and writes none. The only
    reader of document text: one sentence split feeds the tagger, the
    definition miner and the acronym extractor. The tagger scores all the
    document's tokenized sentences in one call; each is decoded alone."""
    sentences = corpus.split_sentences(doc, models.abbreviations)
    tokenized = [(sent, tokens) for sent in sentences if (tokens := corpus.tokenize(sent))]
    if models.external_scores is None:
        doc_scores = nertag.score_tokens(
            models.tagger, [(tokens, sent.from_title) for sent, tokens in tokenized]
        )
    else:
        doc_scores = [models.external_scores.get((doc.doc_id, sent.index)) for sent, _ in tokenized]
    mentions: list[nertag.Mention] = []
    for (sent, tokens), scores in zip(tokenized, doc_scores):
        if scores is None:
            continue
        labels = nertag.viterbi_decode(scores, models.labelset)
        mentions += nertag.extract_mentions(
            tokens, labels, models.labelset, from_title=sent.from_title
        )
    return DocRecord(
        doc_id=doc.doc_id,
        author_id=doc.author_id,
        timestamp=doc.timestamp,
        length=max(1, sum(len(tokens) for _, tokens in tokenized)),
        ledger=topicrank.contribution(mentions),
        acronyms=tuple(cardbuild.extract_acronym_aliases(s.text for s in sentences)),
        definitions=tuple(
            defmine.mine_definitions(sentences, models.classifier, models.patterns, models.lexicon)
        ),
    )


class PipelineState:
    """Everything needed to serve updates and rebuild the KB: one DocRecord
    per live document, keyed by doc_id."""

    def __init__(self):
        self.documents: dict[str, DocRecord] = {}

    @functools.cached_property
    def store(self) -> topicrank.CandidateStore:
        """The candidate store over the records' ledger entries, built on
        the first read after a write; each write below drops it."""
        return topicrank.CandidateStore.from_ledger(
            {doc_id: rec.ledger for doc_id, rec in self.documents.items()}
        )

    def process_document(self, doc: corpus.Document, models: Models) -> None:
        """Upsert: extract runs to completion before the record is swapped
        in, so a failed extraction leaves the state as it was."""
        self.documents[doc.doc_id] = extract(doc, models)
        self.__dict__.pop("store", None)

    def remove_document(self, doc_id: str) -> bool:
        self.__dict__.pop("store", None)
        return self.documents.pop(doc_id, None) is not None

    def acronym_pairs(self) -> list[tuple[str, str]]:
        """Every document's acronym pairs in doc-id order, first occurrence
        kept: the list one pass over the whole live corpus would give."""
        return list(dict.fromkeys(p for _, r in sorted(self.documents.items()) for p in r.acronyms))

    # -- persistence ---------------------------------------------------------
    # A state directory holds one file, STATE_FILE: each live document's
    # DocRecord.to_line, sorted by doc_id. The topic candidates are not
    # saved; the store derives them from the ledger entries.

    def save(self, state_dir: str | Path) -> None:
        def write(staging: Path) -> None:
            with open(staging / STATE_FILE, "w", encoding="utf-8") as fh:
                fh.writelines(rec.to_line() + "\n" for _, rec in sorted(self.documents.items()))

        _write_dir_atomically(Path(state_dir), STATE_FILE, write)

    @classmethod
    def load(cls, state_dir: str | Path) -> "PipelineState":
        state = cls()
        # read_records is lazy: each record is added before the next line is parsed
        parse = functools.partial(DocRecord.from_line, seen=state.documents)
        path = Path(state_dir) / STATE_FILE
        for rec in corpus.read_records(path, parse, f"corrupt state: {STATE_FILE}"):
            state.documents[rec.doc_id] = rec
        return state


def _parse_ledger(contrib) -> dict[str, dict]:
    """A saved ledger entry, checked to be of the kind topicrank.contribution
    builds. json.loads shares equal strings within one line only, so each
    topic key and surface is interned to share it across the lines that
    repeat it, and the literal field names are shared constants, as in
    contribution's entries."""
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
        ledger[sys.intern(key)] = {
            "titles": c["titles"],
            "surfaces": {sys.intern(s): n for s, n in surfaces.items()},
        }
    return ledger


def _acronym_pair(pair) -> tuple[str, str]:
    """A saved [long form, acronym] pair as the tuple the build uses."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
        raise ValueError(f"bad acronym pair: {pair!r}")
    return pair[0], pair[1]


def apply_update(state: PipelineState, event: UpdateEvent, models: Models) -> PipelineState:
    """Apply one event. An upsert of a document marked deleted removes that
    document, as a batch run skips a corpus record marked deleted."""
    if event.kind == "delete":
        if not state.remove_document(event.doc_id):
            logger.warning("delete of unknown doc_id %r ignored", event.doc_id)
    elif event.document.deleted:
        state.remove_document(event.document.doc_id)
    else:
        state.process_document(event.document, models)
    return state


def rank_refresh(state: PipelineState, config: PipelineConfig, models: Models):
    """Shortlist + rerank on current counters, no document reprocessing."""
    if not state.store.candidates:
        return topicrank.RankedTopicList(entries=[])
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
    if not ranked.entries or not state.documents:
        return KnowledgeBase(cards=[], manifest=manifest)

    matrix = cardbuild.build_matrix(ranked.keys(), _doc_tf_stats(state))
    if matrix.n_topics == 0 or matrix.n_docs == 0:
        return KnowledgeBase(cards=[], manifest=manifest)

    # clamp the sketch size to what the matrix supports
    limit = min(matrix.n_topics, matrix.n_docs)
    rank = max(1, min(config.svd_rank, limit))
    oversampling = min(config.svd_oversampling, limit - rank)
    svd_config = cardbuild.SvdConfig(
        rank=rank, oversampling=oversampling, memory_budget=config.memory_budget, seed=config.seed
    )
    topic_vecs, doc_vecs, _, peak = cardbuild.batched_randomized_svd(matrix, svd_config)
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

        docs, weights = by_topic.column(space.topic_index[canonical])
        bm25_by_doc = dict(zip((matrix.doc_ids[j] for j in docs), weights))
        cards.append(
            cardbuild.build_card(
                cand,
                defs,
                aliases,
                acronyms,
                space,
                config.card_k,
                functools.partial(_doc_signals, state, canonical, bm25_by_doc),
            )
        )
    return KnowledgeBase(cards=cards, manifest=manifest, space=space)


def _doc_signals(
    state: PipelineState, key: str, bm25_by_doc: dict, doc_ids: list[str]
) -> dict[str, dict]:
    """Rerank signals of the given documents on key's card: its BM25 weight
    there, whether it names key in a title, and the document's timestamp."""
    return {
        doc_id: {
            "bm25": bm25_by_doc.get(doc_id, 0.0),
            "title": state.documents[doc_id].ledger.get(key, {}).get("titles", 0) > 0,
            "timestamp": state.documents[doc_id].timestamp,
        }
        for doc_id in doc_ids
    }


def _corpus_snapshot_id(state: PipelineState) -> str:
    h = hashlib.sha256()
    for doc_id, rec in sorted(state.documents.items()):
        h.update(f"{doc_id}\x00{rec.timestamp}\x00{rec.length}\x00".encode())
    return h.hexdigest()[:16]


def run_full(config: PipelineConfig) -> tuple[PipelineState, KnowledgeBase]:
    """Batch run: ingest, per-document extraction, ranking, embeddings, cards."""
    try:
        models = Models.load(config)
    except Exception as exc:
        raise StageError("load_models", exc) from exc
    state = PipelineState()
    try:
        docs, errors = corpus.ingest_jsonl(config.corpus_path)
        for err in errors:
            logger.warning("corpus line %d skipped: %s", err.line_number, err.reason)
    except OSError as exc:
        raise StageError("ingest", exc) from exc
    try:
        for doc in docs:
            if not doc.deleted:
                state.process_document(doc, models)
    except Exception as exc:
        raise StageError("extract", exc) from exc
    try:
        kb = build_knowledge_base(state, config, models)
    except Exception as exc:
        raise StageError("build", exc) from exc
    return state, kb


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


def check_output_dir(out_dir: str | Path, marker: str) -> None:
    """ValueError if out_dir, where a directory is to be written whole, is
    the working directory or holds it; or if out_dir, or the <out>.staging
    or <out>.old that the write also replaces, exists and is not a
    directory, or is a non-empty directory without marker, the file its
    writer writes: it is then no earlier output, and replacing it would lose
    what it holds. Callers check before any work whose result goes there."""
    out_dir = Path(out_dir)
    resolved, cwd = out_dir.resolve(), Path.cwd().resolve()
    if resolved == cwd or resolved in cwd.parents:
        raise ValueError(f"{out_dir} is the working directory or holds it")
    for path in (out_dir, *_siblings(out_dir)):
        if path.exists() and not path.is_dir():
            raise ValueError(f"{path} exists and is not a directory")
        if path.is_dir() and not (path / marker).is_file() and any(path.iterdir()):
            raise ValueError(f"{path} is not empty and has no {marker}, so it is not replaced")


def _write_dir_atomically(out_dir: Path, marker: str, write) -> None:
    """Call write(staging), which writes marker, on a fresh sibling
    directory, then swap it in for out_dir: a failed write leaves no partial
    output and the old tree as it was, and a rewrite replaces the old tree.
    check_output_dir runs before anything is written."""
    check_output_dir(out_dir, marker)
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
        shutil.rmtree(trash)
    else:
        staging.rename(out_dir)


def export_kb(kb: KnowledgeBase, out_dir: str | Path) -> None:
    """Write manifest, one JSON file per card, and the embedding files,
    atomically (see _write_dir_atomically); the directory is the result."""

    def write(staging: Path) -> None:
        cards_dir = staging / "cards"
        cards_dir.mkdir()
        card_index = {}
        for card in kb.cards:
            fname = urllib.parse.quote(card.key, safe="") + ".json"
            if len(fname) > 255:  # the usual file-name limit, in bytes; quote gives ASCII
                # a quoted key holds %7C%7C (KEY_SEP): a digest name is never a quoted one
                fname = hashlib.sha256(card.key.encode()).hexdigest() + ".json"
            card_index[card.key] = f"cards/{fname}"
            with open(cards_dir / fname, "w", encoding="utf-8") as fh:
                json.dump(card.to_dict(), fh, sort_keys=True, indent=1)
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
        manifest = dict(kb.manifest)
        manifest["cards"] = card_index
        with open(staging / MANIFEST_FILE, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)

    _write_dir_atomically(Path(out_dir), MANIFEST_FILE, write)
