"""Seeded input generators owned by the benchmark.

Every input a workload reads is made here from the workload seed: the
planted corpus, the fixture-model training data, the update event stream,
and the wide card-phase corpus with its external score table. Nothing is
imported from the test suite, so editing a test cannot change a workload,
and nothing here imports kbmine: the inputs do not depend on the program
under test. Changing this file changes every workload; treat it as frozen.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Planted corpus (update_replay)
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

PLANTED_DEFINITIONS = {
    "Contoso Falcon": "Contoso Falcon is defined as the telemetry ingestion service for cloud workloads.",
    "Project Aurora": "Project Aurora is defined as the initiative to unify search across internal portals.",
    "Atlas Engine": "Atlas Engine is defined as the rendering component behind the mapping dashboard.",
    "Orion Lab": "Orion Lab is defined as the research group that prototypes storage hardware.",
    "Helios Platform": "Helios Platform is defined as the hosting layer for partner integrations.",
}

AUTHORS = ["u_ada", "u_brin", "u_chen", "u_dara"]

CONTEXTS = [
    ("the team shipped", "last week"),
    ("we migrated", "to the new cluster"),
    ("engineers debugged", "during the outage"),
    ("the report covers", "in detail"),
    ("customers adopted", "this quarter"),
    ("we benchmarked", "against the baseline"),
    ("the demo featured", "on stage"),
    ("ops monitored", "overnight"),
]

FILLERS = [
    "the quarterly review went smoothly for everyone involved",
    "please update the spreadsheet before the meeting tomorrow",
    "lunch will be served in the main cafeteria at noon",
    "remember to submit your timesheet by friday afternoon",
    "the printer on the third floor is working again",
]

TICKET_BASE = 9000
TIME_BASE = 1_600_000_000


def doc_id(i: int) -> str:
    return f"doc{i:05d}"


def ticket_marker(i: int) -> str:
    return f"ticket number {TICKET_BASE + i}"


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def planted_doc(i: int, rng: np.random.Generator, definition: str | None = None) -> dict:
    """Document i covers planted topic i % 10: once in the title, twice in
    the body, with a doc-unique ticket marker sentence in between."""
    topic, _ = PLANTED_TOPICS[i % len(PLANTED_TOPICS)]
    author = AUTHORS[(i % len(PLANTED_TOPICS)) % len(AUTHORS)]
    before1, after1 = CONTEXTS[int(rng.integers(len(CONTEXTS)))]
    before2, after2 = CONTEXTS[int(rng.integers(len(CONTEXTS)))]
    filler = FILLERS[int(rng.integers(len(FILLERS)))]
    sentences = [
        f"{before1.capitalize()} {topic} {after1}.",
        f"{filler} under {ticket_marker(i)}.",
        f"{before2.capitalize()} {topic} {after2}.",
    ]
    if definition is not None:
        sentences.append(definition)
    return {
        "doc_id": doc_id(i),
        "title": f"{topic} notes",
        "body": " ".join(sentences),
        "author_id": author,
        "timestamp": TIME_BASE + i * 3600,
    }


def planted_corpus(n_docs: int, seed: int) -> tuple[list[dict], dict[str, str]]:
    """n_docs planted documents and {defined topic name: doc_id}. Each
    definition sentence sits in one document, after the first ten."""
    rng = np.random.default_rng([seed, 1])
    pending = dict(PLANTED_DEFINITIONS)
    definition_docs = {}
    docs = []
    for i in range(n_docs):
        topic, _ = PLANTED_TOPICS[i % len(PLANTED_TOPICS)]
        definition = None
        if topic in pending and i >= len(PLANTED_TOPICS):
            definition = pending.pop(topic)
            definition_docs[topic] = doc_id(i)
        docs.append(planted_doc(i, rng, definition))
    if pending:
        raise ValueError("corpus too small to place all definitions")
    return docs, definition_docs


# ---------------------------------------------------------------------------
# Fixture model training data
# ---------------------------------------------------------------------------


def tagger_training_rows() -> list[tuple[list[str], list[str]]]:
    """(tokens, BIO labels) covering every planted topic in every context,
    plus entity-free filler."""
    rows = []
    for name, etype in PLANTED_TOPICS:
        parts = name.split()
        ent = [f"B-{etype}"] + [f"I-{etype}"] * (len(parts) - 1)
        for before, after in CONTEXTS:
            b, a = before.split(), after.split()
            rows.append((b + parts + a, ["O"] * len(b) + ent + ["O"] * len(a)))
    for filler in FILLERS:
        tokens = filler.split()
        rows.append((tokens, ["O"] * len(tokens)))
    return rows


def ranker_training_rows(seed: int, n: int = 400) -> list[tuple[tuple[int, int, int], int]]:
    """((ner, doc, title) counts, label). Good topics have >= 2 mentions per
    document; noise has ~1 per document but as large a raw frequency."""
    rng = np.random.default_rng([seed, 2])
    rows = []
    for _ in range(n // 2):
        doc = int(rng.integers(5, 30))
        ner = max(doc, int(round(doc * rng.uniform(2.0, 4.0))))
        title = int(rng.integers(0, max(1, doc // 2)))
        rows.append(((ner, doc, title), 1))
    for _ in range(n // 2):
        doc = int(rng.integers(20, 120))
        ner = max(doc, int(round(doc * rng.uniform(1.0, 1.1))))
        title = int(rng.integers(0, 2))
        rows.append(((ner, doc, title), 0))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


# ---------------------------------------------------------------------------
# Update event stream (update_replay)
# ---------------------------------------------------------------------------


NEW_SHARE, EDIT_SHARE = 0.6, 0.3  # the rest of the events are deletes
DEFINITION_DELETES = 3  # of the five planted-definition documents
DEFINITION_EDITS = 1    # the rest are never touched, so one definition survives


def update_events(
    base_docs: list[dict], definition_docs: dict[str, str], n_events: int, seed: int
) -> tuple[list[dict], dict]:
    """Events against the corpus base_docs, in a seeded order: new
    documents, re-upserts of live ids with edited bodies, and deletes of
    live ids. The first DEFINITION_DELETES deletes and the first
    DEFINITION_EDITS edits hit planted-definition documents; no other event
    touches one. Returns (events, outcome) where outcome holds the final
    live corpus, the ids deleted for good and the ids re-upserted with an
    edited body."""
    rng = np.random.default_rng([seed, 3])
    n_new = round(n_events * NEW_SHARE)
    n_edit = round(n_events * EDIT_SHARE)
    n_del = n_events - n_new - n_edit
    kinds = np.array(["new"] * n_new + ["edit"] * n_edit + ["delete"] * n_del)
    kinds = kinds[rng.permutation(len(kinds))]

    live = {d["doc_id"]: d for d in base_docs}
    live_order = [d["doc_id"] for d in base_docs]  # ids ever live, for seeded picks
    definition_ids = sorted(definition_docs.values())
    forced = {
        "delete": definition_ids[:DEFINITION_DELETES],
        "edit": definition_ids[DEFINITION_DELETES : DEFINITION_DELETES + DEFINITION_EDITS],
    }
    protected = set(definition_ids)
    next_index = len(base_docs)
    events = []
    deleted: list[str] = []
    edited: set[str] = set()
    for kind in kinds:
        if kind == "new":
            doc = planted_doc(next_index, rng)
            next_index += 1
            live[doc["doc_id"]] = doc
            live_order.append(doc["doc_id"])
            events.append({"kind": "upsert", "document": doc})
            continue
        if forced[kind]:
            target = forced[kind].pop(0)
        else:
            while True:
                target = live_order[int(rng.integers(len(live_order)))]
                if target in live and target not in protected:
                    break
        if kind == "edit":
            idx = int(live[target]["doc_id"].removeprefix("doc"))
            doc = planted_doc(idx, rng)
            doc["timestamp"] = live[target]["timestamp"] + 60
            live[target] = doc
            edited.add(target)
            events.append({"kind": "upsert", "document": doc})
        else:
            del live[target]
            deleted.append(target)
            events.append({"kind": "delete", "doc_id": target})
    final = [live[i] for i in live_order if i in live]
    return events, {"final_docs": final, "deleted": deleted, "edited": sorted(edited)}


# ---------------------------------------------------------------------------
# Wide card-phase corpus (export_wide)
# ---------------------------------------------------------------------------

BRAND_WORDS = [
    "Acme", "Apex", "Arbor", "Argus", "Aspen", "Beacon", "Birch", "Cedar",
    "Cinder", "Cobalt", "Comet", "Coral", "Crane", "Delta", "Ember", "Falcon",
    "Fjord", "Garnet", "Glacier", "Granite", "Harbor", "Hazel", "Indigo",
    "Juniper", "Kestrel", "Lumen", "Maple", "Meridian", "Nova", "Onyx",
    "Opal", "Osprey", "Pebble", "Pinnacle", "Quartz", "Raven", "Sable",
    "Sequoia", "Sierra", "Solstice", "Sparrow", "Summit", "Tundra", "Umber",
    "Vanguard", "Willow", "Yarrow", "Zenith",
]

HEAD_WORDS = [
    "Analytics", "Beam", "Bridge", "Broker", "Cache", "Catalog", "Console",
    "Core", "Dashboard", "Designer", "Engine", "Exchange", "Forge", "Gateway",
    "Grid", "Hub", "Index", "Insight", "Ledger", "Link", "Monitor", "Notebook",
    "Orchestrator", "Pipeline", "Portal", "Pulse", "Relay", "Scheduler",
    "Sentinel", "Shield", "Signal", "Stack", "Studio", "Suite", "Sync",
    "Tracker", "Vault", "Vision", "Workbench", "Works",
]

WIDE_TEMPLATES = [
    ("we reviewed", "and", "then", "with", "and", "for the launch"),
    ("the sync covered", "plus", "and", "beside", "and", "in depth"),
    ("notes mention", "and", "after", "near", "plus", "this sprint"),
    ("ops compared", "with", "and", "then", "and", "overnight"),
]

WIDE_ENTITY_TYPE = "product"
# label ordinals of LabelSet(("product",)): O, B-product, I-product
_O, _B, _I = 0, 1, 2


def wide_topics(n_topics: int, seed: int) -> list[str]:
    """n_topics distinct 'Brand Head' names drawn uniformly by seed from
    the product of the two word lists."""
    total = len(BRAND_WORDS) * len(HEAD_WORDS)
    if n_topics > total:
        raise ValueError("not enough distinct two-word names")
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(total, size=n_topics, replace=False)
    return [
        f"{BRAND_WORDS[p // len(HEAD_WORDS)]} {HEAD_WORDS[p % len(HEAD_WORDS)]}"
        for p in picks
    ]


def _score_rows(labels: list[int]) -> list[list[float]]:
    rows = []
    for lab in labels:
        row = [-6.0, -6.0, -6.0]
        row[lab] = -0.01
        rows.append(row)
    return rows


def wide_corpus(
    n_topics: int, n_docs: int, n_authors: int, per_doc: int, zipf_s: float, seed: int
) -> tuple[list[dict], list[dict]]:
    """Short documents, each naming per_doc distinct topics in one body
    sentence. The first ceil(n_topics / per_doc) documents cover every
    topic once; the rest draw topics with Zipf(zipf_s) popularity.

    Returns (documents, score records). Score records give
    the body sentence (index 1; index 0 is the title) one row per token of
    the body as the corpus tokenizer splits it: whitespace words plus the
    detached final period. Titles carry no score record, so they are not
    tagged."""
    if per_doc != 5:
        raise ValueError("the sentence templates hold exactly five topics")
    topics = wide_topics(n_topics, seed)
    rng = np.random.default_rng([seed, 5])
    weights = np.array([1.0 / (r + 1) ** zipf_s for r in range(n_topics)])
    weights /= weights.sum()
    popularity = rng.permutation(n_topics)  # topic index at each Zipf rank
    cover = rng.permutation(n_topics)
    n_cover = math.ceil(n_topics / per_doc)
    if n_docs < n_cover:
        raise ValueError("too few documents to cover every topic")

    docs, scores = [], []
    for i in range(n_docs):
        if i < n_cover:
            chosen = list(cover[i * per_doc : (i + 1) * per_doc])
            while len(chosen) < per_doc:  # last covering doc tops up by popularity
                extra = int(popularity[rng.choice(n_topics, p=weights)])
                if extra not in chosen:
                    chosen.append(extra)
        else:
            chosen = list(popularity[rng.choice(n_topics, size=per_doc, replace=False, p=weights)])
        template = WIDE_TEMPLATES[int(rng.integers(len(WIDE_TEMPLATES)))]
        words: list[str] = []
        labels: list[int] = []
        lead = template[0].split()
        words += [lead[0].capitalize()] + lead[1:]
        labels += [_O] * len(lead)
        for slot, t in enumerate(chosen):
            parts = topics[int(t)].split()
            words += parts
            labels += [_B] + [_I] * (len(parts) - 1)
            joiner = template[slot + 1].split()
            words += joiner
            labels += [_O] * len(joiner)
        body = " ".join(words) + "."
        labels.append(_O)  # the detached period
        did = f"w{i:05d}"
        docs.append(
            {
                "doc_id": did,
                "title": f"Sync {i % 97} notes",
                "body": body,
                "author_id": f"u{int(rng.integers(n_authors)):03d}",
                "timestamp": TIME_BASE + i * 600,
            }
        )
        scores.append(
            {
                "doc_id": did,
                "sentence_index": 1,
                "labels": labels,
                "scores": _score_rows(labels),
            }
        )
    return docs, scores
