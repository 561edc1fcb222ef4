import builtins
import copy
import hashlib
import io
import json
import logging
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import urllib.parse
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kbmine import cardbuild, cli, corpus, defmine, nertag, pipeline, topicrank
from kbmine.corpus import Document
from kbmine.pipeline import (
    KnowledgeBase,
    Models,
    PipelineConfig,
    PipelineState,
    StageError,
    UpdateEvent,
    apply_update,
    build_knowledge_base,
    export_kb,
    rank_refresh,
    read_events,
    run_full,
)


@pytest.fixture(scope="module")
def config(planted_corpus, fixture_models_dir):
    path, _ = planted_corpus
    return PipelineConfig(
        corpus_path=str(path),
        tagger_model=str(fixture_models_dir / "tagger.npz"),
        ranker_model=str(fixture_models_dir / "ranker.json"),
        final_top_k=50,
        min_topic_score=0.5,
        svd_rank=8,
        svd_oversampling=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def models(config):
    return Models.load(config)


@pytest.fixture(scope="module")
def full_run(config):
    return run_full(config)


def make_doc(doc_id, topic, body_extra="", author="u_ada", ts=0.0):
    body = f"The team shipped {topic} last week. We migrated {topic} to prod."
    if body_extra:
        body += " " + body_extra
    return Document(doc_id, f"{topic} notes", body, author, ts)


def _saved_docs():
    """The two documents of _saved_state; d1 holds one definition."""
    return [
        make_doc(
            "d1",
            "Contoso Falcon",
            body_extra="Contoso Falcon is defined as the telemetry ingestion service.",
        ),
        make_doc("d2", "Atlas Engine"),
    ]


def _saved_state(models, state_dir):
    """Save a state of the _saved_docs; returns state_dir."""
    state = PipelineState()
    for doc in _saved_docs():
        state.process_document(doc, models)
    state.save(state_dir)
    return state_dir


def _tree_bytes(root):
    """{relative path: content} of every file under root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def _edit_state(state_dir, edit):
    """Call edit on {doc_id: decoded line} of a saved state, then write the
    lines back in their order."""
    path = Path(state_dir) / pipeline.STATE_FILE
    lines = {}
    for text in path.read_text().splitlines():
        line = json.loads(text)
        lines[line["doc_id"]] = line
    edit(lines)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines.values()))


def _ledger_with_mentions(rec) -> dict:
    """A record's ledger entry as earlier formats saved it, with each key's
    mention count stored beside its title and surface counts."""
    return {k: {"mentions": sum(c["surfaces"].values()), **c} for k, c in rec.ledger.items()}


def _eight_key_definition(rec, doc_id: str) -> dict:
    """A saved definition as earlier formats wrote it, with the document's
    doc_id, the topic surface, the category and the pattern id."""
    surface, _, pattern = defmine.extract_topic(rec.sentence_text)
    return {
        "topic_key": rec.topic_key,
        "topic_surface": surface,
        "sentence_text": rec.sentence_text,
        "doc_id": doc_id,
        "sentence_index": rec.sentence_index,
        "category": "Sufficient",
        "pattern_id": pattern.connective.replace(" ", "_"),
        "confidence": rec.confidence,
    }


def _first_contribution(lines: dict) -> dict:
    """The first topic contribution in d1's ledger entry."""
    return next(iter(lines["d1"]["ledger"].values()))


class TestConfig:
    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corpus_path": "a.jsonl", "final_top_k": 7}))
        cfg = PipelineConfig.from_file(path, seed=3)
        assert (cfg.corpus_path, cfg.final_top_k, cfg.seed) == ("a.jsonl", 7, 3)

    def test_none_override_ignored(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"final_top_k": 7}))
        assert PipelineConfig.from_file(path, seed=None).seed == 0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"no_such_knob": 1}))
        with pytest.raises(ValueError, match="no_such_knob"):
            PipelineConfig.from_file(path)

    def test_shortlist_must_cover_top_k(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"shortlist_n": 5, "final_top_k": 10}))
        with pytest.raises(ValueError):
            PipelineConfig.from_file(path)

    def test_json_types_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"min_topic_score": 1, "entity_types": ["product"]}))
        cfg = PipelineConfig.from_file(path)
        assert cfg.min_topic_score == 1
        assert cfg.entity_types == ("product",)

    @pytest.mark.parametrize(
        "data",
        [{"card_k": "5"}, {"seed": False}, {"entity_types": ["product", 3]}, {"shortlist_n": 1}],
        ids=["text_int", "bool_int", "non_string_type", "shortlist_below_top_k"],
    )
    def test_direct_construction_is_checked(self, data):
        with pytest.raises(pipeline.ConfigError):
            PipelineConfig(**data)

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            ("shortlist_n", 0, ">= 1"),
            ("final_top_k", -3, ">= 1"),
            ("card_k", -1, ">= 1"),
            ("card_k", 0, ">= 1"),
            ("svd_rank", 0, ">= 1"),
            ("memory_budget", 0, ">= 1"),
            ("svd_oversampling", -2, ">= 0"),
            ("min_topic_score", float("nan"), "finite float"),
            ("min_topic_score", float("-inf"), "finite float"),
        ],
        ids=[
            "shortlist_n_zero", "final_top_k_negative", "card_k_negative", "card_k_zero",
            "svd_rank_zero", "memory_budget_zero", "svd_oversampling_negative",
            "min_topic_score_nan", "min_topic_score_minus_inf",
        ],
    )
    def test_out_of_range_count_is_rejected(self, name, value, rule):
        with pytest.raises(pipeline.ConfigError, match=f"^{name} must be {rule}, not "):
            PipelineConfig(**{name: value})

    def test_range_edges_are_accepted(self):
        cfg = PipelineConfig(
            shortlist_n=1, final_top_k=1, card_k=1, svd_rank=1, memory_budget=1,
            svd_oversampling=0, min_topic_score=-1.5,
        )
        assert (cfg.card_k, cfg.svd_oversampling) == (1, 0)

    def test_hash_stable_and_sensitive(self, config):
        assert config.config_hash() == config.config_hash()
        other = PipelineConfig(**{**config.__dict__, "seed": 99})
        assert other.config_hash() != config.config_hash()


class TestModels:
    def test_rule_classifier_reads_the_loaded_patterns(self, config, tmp_path):
        path = tmp_path / "patterns.json"
        path.write_text(json.dumps([{"template": "{topic} is known as {description}",
                                     "priority": 0}]))
        loaded = Models.load(replace(config, patterns_file=str(path)))
        assert loaded.classifier.patterns is loaded.patterns
        assert [p.connective for p in loaded.patterns] == ["is known as"]

    def test_load_opens_no_file(self, config, tmp_path, monkeypatch):
        """Models.load checks the config only; each input is read on its
        first use."""
        opened = []
        for owner, name in [
            (nertag, "load_external_scores"), (nertag.TaggerModel, "load"),
            (topicrank.GbdtModel, "load"), (defmine.LinearClassifier, "load"),
            (defmine, "load_patterns"), (defmine.OpinionLexicon, "load"),
            (corpus, "load_abbreviations"), (np, "load"), (builtins, "open"), (io, "open"),
        ]:
            label = f"{owner.__name__}.{name}"
            monkeypatch.setattr(
                owner, name, lambda *args, label=label, **kwargs: opened.append(label)
            )
        files = {key: str(tmp_path / key) for key in (
            "tagger_model", "score_file", "ranker_model", "def_classifier", "patterns_file",
            "negative_lexicon", "abbreviations_file",
        )}
        loaded = Models.load(replace(config, **files))
        assert opened == []
        loaded.ranker
        assert opened == ["GbdtModel.load"]

    @pytest.mark.parametrize("scorer", ["tagger_model", "score_file"])
    def test_upserts_read_each_input_once(self, config, tmp_path, monkeypatch, scorer):
        """A delete reads no model; three upserts through one bundle read
        the tagger or the score file once, and never the ranker."""
        calls = []

        for owner, name in [
            (nertag, "load_external_scores"), (nertag.TaggerModel, "load"),
            (topicrank.GbdtModel, "load"),
        ]:
            label, real = f"{owner.__name__}.{name}", getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, label=label, real=real: (
                calls.append(label) or real(*args)
            ))
        cfg = config
        if scorer == "score_file":
            scores = tmp_path / "scores.jsonl"
            scores.write_text("")
            cfg = replace(config, score_file=str(scores))
        bundle = Models.load(cfg)
        state = PipelineState()
        apply_update(state, UpdateEvent("delete", doc_id="d0"), bundle)
        assert calls == []
        for i, topic in enumerate(["Atlas Engine", "Contoso Falcon", "Atlas Engine"]):
            apply_update(state, UpdateEvent("upsert", document=make_doc(f"d{i}", topic)), bundle)
        assert calls == [{"tagger_model": "TaggerModel.load",
                          "score_file": "kbmine.nertag.load_external_scores"}[scorer]]


class TestRunFull:
    def test_empty_corpus(self, tmp_path, fixture_models_dir):
        corpus_path = tmp_path / "empty.jsonl"
        corpus_path.write_text("")
        cfg = PipelineConfig(
            corpus_path=str(corpus_path),
            tagger_model=str(fixture_models_dir / "tagger.npz"),
        )
        state, kb = run_full(cfg)
        assert kb.cards == []
        assert kb.manifest["n_documents"] == 0
        for key in ("run_id", "config_hash", "corpus_snapshot_id", "timestamp"):
            assert key in kb.manifest

    def test_planted_topics_recovered(self, full_run):
        from helpers import PLANTED_TOPICS
        from kbmine.topicrank import candidate_key

        state, kb = full_run
        card_keys = {c.key for c in kb.cards}
        alt_names = {a for c in kb.cards for a in c.alternate_names}
        for name, etype in PLANTED_TOPICS:
            key = candidate_key(name, etype)
            assert key in state.store.candidates
            assert key in card_keys or name in alt_names

    def test_co_occurring_names_sharing_a_word_stay_two_cards(self, tmp_path):
        """'Arbor Gateway' and 'Harbor Gateway' occur in the same documents,
        so their relatedness is the largest, and their names share a word
        and most trigrams; they are still two products, with a card each."""
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(
            json.dumps(asdict(Document(f"d{i}", "Notes", "Arbor Gateway and Harbor Gateway",
                                       "u1", float(i)))) + "\n"
            for i in range(3)
        ))
        # sentence 1 is the body: B I O B I over labels O, B-product, I-product
        o, b, i = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({"doc_id": f"d{n}", "sentence_index": 1, "scores": [b, i, o, b, i]})
            + "\n"
            for n in range(3)
        ))
        _, kb = run_full(PipelineConfig(
            corpus_path=str(corpus_path), score_file=str(scores), entity_types=("product",),
        ))
        assert [(c.key, c.alternate_names) for c in kb.cards] == [
            ("arbor gateway||product", []),
            ("harbor gateway||product", []),
        ]

    def test_related_docs_match_exhaustive_signals(self, config, full_run):
        # the rerank inputs of every document, each given explicitly, from
        # the state's ledgers and the corpus, and a full sort in place of
        # the partial top-k
        state, kb = full_run
        space = kb.space
        ingested = {doc.doc_id: doc for doc in corpus.ingest_jsonl(config.corpus_path)[0]}
        timestamps = {d: ingested[d].timestamp for d in state.documents}
        doc_stats = {
            d: {
                "length": rec.length,
                "tf": {key: sum(c["surfaces"].values()) for key, c in rec.ledger.items()},
            }
            for d, rec in state.documents.items()
        }
        matrix = cardbuild.build_matrix(space.topic_keys, doc_stats)
        by_topic = matrix.matrix.transpose()
        assert len(kb.cards) > 1
        for card in kb.cards:
            docs, weights = by_topic.column(space.topic_index[card.key])
            bm25_by_doc = dict(zip((matrix.doc_ids[j] for j in docs), weights))
            topic_docs = {
                d: (bm25_by_doc.get(d, 0.0), rec.ledger.get(card.key, {}).get("titles", 0) > 0)
                for d, rec in state.documents.items()
            }
            q = space.topic_vector(card.key)
            recalled = sorted(
                ((d, float(v @ q)) for d, v in zip(space.doc_ids, space.doc_vectors)),
                key=lambda kv: (-kv[1], kv[0]),
            )[: config.card_k * cardbuild.RECALL_FACTOR]
            expected = cardbuild.rerank_related_docs(recalled, topic_docs, timestamps)
            assert card.related_docs == expected[: config.card_k]

    def test_named_minimum_budget_suffices(self, config):
        with pytest.raises(StageError) as exc:
            run_full(replace(config, memory_budget=1000))
        err = exc.value.__cause__
        assert isinstance(err, cardbuild.MemoryBudgetError)
        assert str(err) == (
            f"memory budget 1000 bytes too small; minimum feasible budget is {err.minimum} bytes"
        )
        # the default config at exactly that budget runs, at a batch that fits it
        _, kb = run_full(replace(config, memory_budget=err.minimum))
        assert kb.cards
        assert kb.manifest["svd_peak_bytes"] <= err.minimum

    def test_keeps_no_earlier_document_alive(self, config, monkeypatch):
        """run_full reads the corpus one record at a time: when a document is
        extracted, no earlier document is still alive."""
        extract, earlier = pipeline.extract, []

        def watched(doc, models, memo):
            assert [ref for ref in earlier if ref() is not None] == []
            earlier.append(weakref.ref(doc))
            return extract(doc, models, memo)

        monkeypatch.setattr(pipeline, "extract", watched)
        state, _ = run_full(config)
        assert len(earlier) == len(state.documents) > 1

    def test_missing_models_is_config_error(self, tmp_path):
        cfg = PipelineConfig(corpus_path=str(tmp_path / "x.jsonl"))
        with pytest.raises(pipeline.ConfigError) as exc:
            run_full(cfg)
        assert str(exc.value) == "config needs either tagger_model or score_file"

    @pytest.mark.parametrize("key", ["corpus_path", "tagger_model"])
    def test_missing_input_exits_2(self, key, config, tmp_path, capsys):
        """A corpus or model path that cannot be read is bad input, as under
        update and export: run_full passes the OSError through, and mine
        exits 2 with one error line and writes nothing."""
        missing = str(tmp_path / "missing")
        cfg = replace(config, output_dir=str(tmp_path / "kb"), **{key: missing})
        with pytest.raises(FileNotFoundError):
            run_full(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        rc = cli.main(["mine", "--config", str(cfg_path), "--state", str(tmp_path / "state")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: [Errno 2] No such file or directory: ") and missing in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestDeterminism:
    def test_exports_identical_except_manifest_timestamp(self, config, tmp_path):
        _, kb1 = run_full(config)
        _, kb2 = run_full(config)
        out1, out2 = tmp_path / "kb1", tmp_path / "kb2"
        export_kb(kb1, out1)
        export_kb(kb2, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            a, b = (out1 / rel).read_bytes(), (out2 / rel).read_bytes()
            if rel.name == "manifest.json":
                m1, m2 = json.loads(a), json.loads(b)
                m1.pop("timestamp"), m2.pop("timestamp")
                assert m1 == m2
            else:
                assert a == b


class TestUpdates:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            UpdateEvent(kind="upsert")
        with pytest.raises(ValueError):
            UpdateEvent(kind="delete")
        with pytest.raises(ValueError):
            UpdateEvent(kind="rename", doc_id="d1")

    def test_upsert_then_delete_is_noop(self, models):
        state = PipelineState()
        state.process_document(make_doc("base", "Contoso Falcon"), models)
        before = state.store.snapshot()
        apply_update(
            state, UpdateEvent(kind="upsert", document=make_doc("d9", "Atlas Engine")), models
        )
        apply_update(state, UpdateEvent(kind="delete", doc_id="d9"), models)
        assert state.store.snapshot() == before
        assert "d9" not in state.documents

    def test_delete_last_doc_drops_candidate(self, models):
        state = PipelineState()
        state.process_document(make_doc("d1", "Atlas Engine"), models)
        assert "atlas engine||product" in state.store.candidates
        apply_update(state, UpdateEvent(kind="delete", doc_id="d1"), models)
        assert "atlas engine||product" not in state.store.candidates

    def test_upsert_same_doc_idempotent(self, models):
        state = PipelineState()
        doc = make_doc("d1", "Contoso Falcon")
        state.process_document(doc, models)
        snap = state.store.snapshot()
        apply_update(state, UpdateEvent(kind="upsert", document=doc), models)
        assert state.store.snapshot() == snap

    def test_upsert_replaces_old_version(self, models):
        state = PipelineState()
        state.process_document(make_doc("d1", "Contoso Falcon"), models)
        apply_update(
            state, UpdateEvent(kind="upsert", document=make_doc("d1", "Atlas Engine")), models
        )
        assert "contoso falcon||product" not in state.store.candidates
        assert "atlas engine||product" in state.store.candidates

    def test_apply_update_never_builds_candidates(self, models, tmp_path, monkeypatch):
        state_dir = _saved_state(models, tmp_path / "state")
        state = PipelineState.load(state_dir)

        def boom(self, doc_id, contrib):
            raise AssertionError("candidates aggregated during an update")

        monkeypatch.setattr(pipeline.topicrank.CandidateStore, "_apply", boom)
        upserted = [make_doc("d3", "Quantum Mesh"), make_doc("d1", "Atlas Engine")]
        for event in [
            *(UpdateEvent(kind="upsert", document=doc) for doc in upserted),
            UpdateEvent(kind="delete", doc_id="d2"),
            UpdateEvent(kind="delete", doc_id="ghost"),
        ]:
            apply_update(state, event, models)
        state.save(state_dir)
        monkeypatch.undo()
        fresh = PipelineState()
        for doc in sorted(upserted, key=lambda d: d.doc_id):
            fresh.process_document(doc, models)
        assert state.store.snapshot() == fresh.store.snapshot()
        assert PipelineState.load(state_dir).store.snapshot() == fresh.store.snapshot()

    def test_failed_upsert_leaves_state_unchanged(self, models, tmp_path, monkeypatch):
        state_dir = _saved_state(models, tmp_path / "state")
        state = PipelineState.load(state_dir)
        records, snapshot = dict(state.documents), state.store.snapshot()
        before = _tree_bytes(state_dir)

        def boom(*args, **kwargs):
            raise RuntimeError("mining failed")

        monkeypatch.setattr(pipeline.defmine, "mine_definitions", boom)
        with pytest.raises(RuntimeError, match="mining failed"):
            apply_update(
                state, UpdateEvent(kind="upsert", document=make_doc("d1", "Atlas Engine")), models
            )
        monkeypatch.undo()
        assert state.documents == records
        assert state.store.snapshot() == snapshot
        state.save(state_dir)
        assert _tree_bytes(state_dir) == before

    def test_delete_unknown_doc_warns(self, models, caplog):
        state = PipelineState()
        with caplog.at_level(logging.WARNING, logger="kbmine.pipeline"):
            apply_update(state, UpdateEvent(kind="delete", doc_id="ghost"), models)
        assert any("ghost" in rec.getMessage() for rec in caplog.records)

    def test_delete_definition_doc_removes_definition(self, models):
        state = PipelineState()
        state.process_document(make_doc("plain", "Contoso Falcon"), models)
        state.process_document(
            make_doc(
                "defdoc",
                "Contoso Falcon",
                body_extra="Contoso Falcon is defined as the telemetry ingestion service.",
            ),
            models,
        )
        assert any(
            r.topic_key == "contoso falcon" for r in state.documents["defdoc"].definitions
        )
        apply_update(state, UpdateEvent(kind="delete", doc_id="defdoc"), models)
        assert all(
            r.topic_key != "contoso falcon"
            for rec in state.documents.values()
            for r in rec.definitions
        )

    def test_read_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "upsert",
                    "document": {
                        "doc_id": "d1",
                        "title": "T",
                        "body": "B",
                        "author_id": "u1",
                        "timestamp": 1,
                    },
                }
            )
            + "\n"
            + json.dumps({"kind": "delete", "doc_id": "d1"})
            + "\n"
        )
        events = list(read_events(path))
        assert events[0].kind == "upsert" and events[0].document.doc_id == "d1"
        assert events[1].kind == "delete" and events[1].doc_id == "d1"


class TestUpdateState:
    def _write_events(self, path, events):
        path.write_text("".join(
            (e if isinstance(e, str) else json.dumps(e)) + "\n" for e in events
        ))
        return path

    def test_on_event_sees_every_event_in_file_order(self, models, tmp_path):
        """on_event gets each event in file order, whether it changed the
        state (False only for a delete, or a deleted-marked upsert, of a
        never-added id) and apply_update's wall time; the count is returned."""
        state_dir = _saved_state(models, tmp_path / "state")
        events = [
            {"kind": "upsert", "document": asdict(make_doc("d3", "Quantum Mesh"))},
            {"kind": "delete", "doc_id": "ghost"},
            {"kind": "upsert", "document": asdict(replace(make_doc("ghost2", "Atlas Engine"),
                                                          deleted=True))},
            {"kind": "delete", "doc_id": "d2"},
            {"kind": "upsert", "document": asdict(replace(make_doc("d1", "Contoso Falcon"),
                                                          deleted=True))},
            {"kind": "upsert", "document": asdict(make_doc("d1", "Atlas Engine"))},
        ]
        path = self._write_events(tmp_path / "events.jsonl", events)
        seen = []
        n = pipeline.update_state(state_dir, path, models,
                                  on_event=lambda *args: seen.append(args))
        assert n == len(events) == len(seen)
        assert [(e.kind, e.doc_id or e.document.doc_id) for e, _, _ in seen] == [
            ("upsert", "d3"), ("delete", "ghost"), ("upsert", "ghost2"),
            ("delete", "d2"), ("upsert", "d1"), ("upsert", "d1"),
        ]
        assert [changed for _, changed, _ in seen] == [True, False, False, True, True, True]
        assert all(seconds >= 0 for _, _, seconds in seen)
        assert sorted(PipelineState.load(state_dir).documents) == ["d1", "d3"]

    def test_no_hook_and_no_events(self, models, tmp_path):
        state_dir = _saved_state(models, tmp_path / "state")
        path = self._write_events(tmp_path / "events.jsonl", [])
        assert pipeline.update_state(state_dir, path, models) == 0
        assert sorted(PipelineState.load(state_dir).documents) == ["d1", "d2"]

    @pytest.mark.parametrize("bad_line", [1, 2, 4])
    def test_bad_line_saves_nothing(self, models, tmp_path, bad_line):
        """With a bad line N, the state file keeps its bytes and on_event saw
        exactly the N-1 events before it."""
        state_dir = _saved_state(models, tmp_path / "state")
        before = _tree_bytes(state_dir)
        events = [
            {"kind": "delete", "doc_id": "d1"},
            {"kind": "upsert", "document": asdict(make_doc("d3", "Quantum Mesh"))},
            {"kind": "delete", "doc_id": "d2"},
            {"kind": "delete", "doc_id": "d3"},
        ]
        events[bad_line - 1] = "{not json"
        path = self._write_events(tmp_path / "events.jsonl", events)
        seen = []
        with pytest.raises(ValueError, match=f"line {bad_line}"):
            pipeline.update_state(state_dir, path, models,
                                  on_event=lambda *args: seen.append(args))
        assert len(seen) == bad_line - 1
        assert _tree_bytes(state_dir) == before


def _replay_doc(i: int, variant: int) -> Document:
    """Document d<i> in one of a few versions: a planted topic, sometimes
    with a definition or an acronym pair, by one of two authors."""
    from helpers import PLANTED_DEFINITIONS

    topic = ["Contoso Falcon", "Atlas Engine", "Fabrikam Cloud"][variant % 3]
    extra = ["", PLANTED_DEFINITIONS.get(topic, ""), "Managed Virtual Testbed (MVT) hosts it."]
    return make_doc(f"d{i}", topic, extra[variant // 3], author=f"u{variant % 2}", ts=variant / 2)


# the replay property test's documents (doc index -> version), mined first,
# and its events over d0-d3 and the never-added d4
_replay_docs = st.dictionaries(st.integers(0, 3), st.integers(0, 8), max_size=3)
_replay_ops = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), st.integers(0, 3), st.integers(0, 8), st.booleans()),
        st.tuples(st.just("delete"), st.integers(0, 4)),
        st.tuples(st.just("again")),
    ),
    max_size=10,
)


class TestIncrementalEquivalence:
    def test_event_replay_matches_batch(self, config, models, full_run):
        from kbmine import corpus

        batch_state, _ = full_run
        docs, _ = corpus.ingest_jsonl(config.corpus_path)
        streamed = PipelineState()
        for doc in docs:
            apply_update(streamed, UpdateEvent(kind="upsert", document=doc), models)
        assert streamed.store.snapshot() == batch_state.store.snapshot()
        assert streamed.documents == batch_state.documents
        r1 = rank_refresh(streamed, config, models)
        r2 = rank_refresh(batch_state, config, models)
        assert r1.entries == r2.entries

    def test_deleted_upsert_replay_matches_batch(self, config, models, tmp_path):
        # a record marked deleted drops a live document, is a no-op for an
        # unknown one, and a later live record brings its document back; a
        # later record with another body replaces an earlier one, and a bad
        # line is skipped
        records = [
            make_doc("d1", "Contoso Falcon"),
            make_doc("d2", "Atlas Engine"),
            make_doc("d4", "Quantum Mesh"),
            replace(make_doc("d1", "Contoso Falcon"), deleted=True),
            replace(make_doc("d3", "Quantum Mesh"), deleted=True),
            replace(make_doc("d2", "Atlas Engine"), deleted=True),
            make_doc("d2", "Atlas Engine", ts=5.0),
            make_doc("d4", "Contoso Falcon", body_extra="Contoso Falcon ships.", ts=6.0),
        ]
        lines = [json.dumps(asdict(d)) for d in records]
        lines.insert(3, "{not json")
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        batch_state, _ = run_full(replace(config, corpus_path=str(path)))
        streamed = PipelineState()
        for doc in records:
            apply_update(streamed, UpdateEvent(kind="upsert", document=doc), models)
        assert sorted(streamed.documents) == sorted(batch_state.documents) == ["d2", "d4"]
        assert "contoso falcon||product" in streamed.documents["d4"].ledger
        assert streamed.documents == batch_state.documents
        assert streamed.store.snapshot() == batch_state.store.snapshot()
        streamed.save(tmp_path / "streamed")
        batch_state.save(tmp_path / "batch")
        assert _tree_bytes(tmp_path / "streamed") == _tree_bytes(tmp_path / "batch")

    @settings(max_examples=50, deadline=None)
    @given(_replay_docs, _replay_ops)
    def test_replay_equals_batch_on_random_streams(self, config, models, initial, ops):
        """mine, then update with a random event stream, then export gives
        the saved state and exported files, bytes for bytes (the manifest
        without its timestamp), that mine gives on the final corpus. The
        stream re-delivers documents, edits them, deletes unknown ids,
        upserts records marked deleted and deletes ids to add them again."""
        mined = [_replay_doc(i, v) for i, v in initial.items()]
        events = []
        for op in ops:
            if op[0] == "upsert":
                _, i, variant, deleted = op
                doc = replace(_replay_doc(i, variant), deleted=deleted)
                events.append(UpdateEvent(kind="upsert", document=doc))
            elif op[0] == "delete":
                events.append(UpdateEvent(kind="delete", doc_id=f"d{op[1]}"))
            elif any(e.kind == "upsert" for e in events):  # re-deliver the last upsert
                events.append(next(e for e in reversed(events) if e.kind == "upsert"))
        # the final corpus: each live document once, in the order of its last upsert
        live = {doc.doc_id: doc for doc in mined}
        for event in events:
            doc_id = event.doc_id or event.document.doc_id
            live.pop(doc_id, None)
            if event.kind == "upsert" and not event.document.deleted:
                live[doc_id] = event.document

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            # one config for every command, as one config file would give
            cfg = replace(config, corpus_path=str(tmp / "corpus.jsonl"), min_topic_score=0.0)

            def mine(docs, name):
                Path(cfg.corpus_path).write_text(
                    "".join(json.dumps(asdict(d)) + "\n" for d in docs)
                )
                state, kb = run_full(cfg)
                state.save(tmp / name / "state")
                export_kb(kb, tmp / name / "kb")

            mine(mined, "replay")
            state = PipelineState.load(tmp / "replay" / "state")
            for event in events:
                apply_update(state, event, models)
            state.save(tmp / "replay" / "state")
            state = PipelineState.load(tmp / "replay" / "state")
            export_kb(build_knowledge_base(state, cfg, models), tmp / "replay" / "kb")
            mine(live.values(), "batch")
            replayed, batch = (_tree_bytes(tmp / name) for name in ("replay", "batch"))
        for tree in (replayed, batch):
            manifest = json.loads(tree["kb/manifest.json"])
            del manifest["timestamp"]
            tree["kb/manifest.json"] = manifest
        assert replayed.keys() == batch.keys()
        for name in replayed:
            assert replayed[name] == batch[name], name


# sentences for the acronym property test: pairs repeated across documents
# and within one, a pair in the title, and a parenthesized capital run that
# is not an acronym of the words before it
_ACRONYM_SENTENCES = [
    "Managed Virtual Testbed (MVT) hosts the demo.",
    "We moved the Managed Virtual Testbed (MVT) cluster.",
    "Fabrikam Cloud Services (FCS) went live.",
    "The Fabrikam Cloud (FC) team met.",
    "Atlas Engine runs nightly.",
    "See Contoso Falcon (CF) and Managed Virtual Testbed (MVT) notes.",
    "Lowercase words (XYZ) do not pair.",
]
_acronym_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.integers(0, 4),
            st.sampled_from(["", "Nimbus Gateway (NG) notes", "Fabrikam Cloud (FC)"]),
            st.lists(st.sampled_from(_ACRONYM_SENTENCES), max_size=3),
        ),
        st.tuples(st.just("delete"), st.integers(0, 4), st.none(), st.none()),
    ),
    max_size=12,
)

# upsert/delete events for the state round-trip property test: documents
# with topics, definitions, acronym pairs, non-ASCII text and float times
_state_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.integers(0, 4),
            st.sampled_from(["", "Atlas Engine notes", "Café Nimbus (CN) notes"]),
            st.lists(
                st.sampled_from(
                    [
                        *_ACRONYM_SENTENCES[:3],
                        "Contoso Falcon is defined as the telemetry ingestion service.",
                        "The team shipped Atlas Engine last week.",
                        "We migrated Contoso Falcon to prod.",
                    ]
                ),
                max_size=3,
            ),
            st.floats(0, 2e9, allow_nan=False),
        ),
        st.tuples(st.just("delete"), st.integers(0, 4), st.none(), st.none(), st.none()),
    ),
    max_size=10,
)


def _fresh_acronym_pairs(live):
    """The acronym pairs of one pass over a fresh split of the live
    documents, given as {doc_id: Document}."""
    return cardbuild.extract_acronym_aliases(
        s.text for doc_id in sorted(live) for s in corpus.split_sentences(live[doc_id])
    )


class TestSplitOnce:
    ACRONYM_DOCS = (
        make_doc("d0", "Contoso Falcon"),
        make_doc("d1", "Atlas Engine"),
        make_doc("d2", "Quantum Mesh"),
        make_doc("d3", "Contoso Falcon", body_extra="Contoso Falcon (CF) handles telemetry."),
    )

    def acronym_state(self, models):
        state = PipelineState()
        for doc in self.ACRONYM_DOCS:
            state.process_document(doc, models)
        return state

    def test_upserts_split_once_and_build_never(self, config, models, monkeypatch):
        calls = []
        real = corpus.split_sentences

        def counting(*args, **kwargs):
            calls.append(args[0].doc_id)
            return real(*args, **kwargs)

        monkeypatch.setattr(corpus, "split_sentences", counting)
        monkeypatch.setattr(pipeline.defmine, "split_sentences", counting)
        state = self.acronym_state(models)
        assert calls == ["d0", "d1", "d2", "d3"]

        used = []
        conflate_all = cardbuild.conflate_all

        def capture(keys, candidates, space, acronym_pairs):
            used.append(list(acronym_pairs))
            return conflate_all(keys, candidates, space, acronym_pairs)

        monkeypatch.setattr(cardbuild, "conflate_all", capture)
        cfg = PipelineConfig(**{**config.__dict__, "min_topic_score": 0.0})
        kb = build_knowledge_base(state, cfg, models)
        assert kb.cards
        assert calls == ["d0", "d1", "d2", "d3"]
        monkeypatch.undo()
        live = {doc.doc_id: doc for doc in self.ACRONYM_DOCS}
        assert sorted(state.documents) == sorted(live)
        assert used == [_fresh_acronym_pairs(live)] == [[("Contoso Falcon", "CF")]]

    @settings(max_examples=100, deadline=None)
    @given(_acronym_ops)
    def test_stored_pairs_match_fresh_split(self, models, ops):
        state, live = PipelineState(), {}
        for kind, i, title, sentences in ops:
            if kind == "upsert":
                live[f"d{i}"] = Document(f"d{i}", title, " ".join(sentences), "u1", 0.0)
                state.process_document(live[f"d{i}"], models)
            else:
                live.pop(f"d{i}", None)
                state.remove_document(f"d{i}")
            assert sorted(state.documents) == sorted(live)
            assert state.acronym_pairs() == _fresh_acronym_pairs(live)
        for doc_id, rec in state.documents.items():
            fresh = cardbuild.extract_acronym_aliases(
                s.text for s in corpus.split_sentences(live[doc_id])
            )
            assert list(rec.acronyms) == fresh

    def test_deleting_only_defining_doc_drops_acronym(self, config, models):
        cfg = PipelineConfig(**{**config.__dict__, "min_topic_score": 0.0})
        state = self.acronym_state(models)
        kb = build_knowledge_base(state, cfg, models)
        assert "CF" in {a for c in kb.cards for a in c.alternate_names}
        apply_update(state, UpdateEvent(kind="delete", doc_id="d3"), models)
        kb = build_knowledge_base(state, cfg, models)
        assert "contoso falcon||product" in {c.key for c in kb.cards}
        assert "CF" not in {a for c in kb.cards for a in c.alternate_names}


class TestSentenceMemo:
    """A state tags each distinct (from_title, text) sentence once; the
    records it keeps equal extract's without a memo."""

    CASES = {
        # the second document holds the first's body sentence twice
        "repeat": [
            Document("d1", "Notes", "Contoso Falcon shipped today.", "u1", 0.0),
            Document("d2", "Notes", "Contoso Falcon shipped today. Contoso Falcon shipped today.",
                     "u1", 0.0),
        ],
        # one text as the first document's title and the second's body
        "title_and_body": [
            Document("d1", "Contoso Falcon shipped today", "Notes follow.", "u1", 0.0),
            Document("d2", "Notes", "Contoso Falcon shipped today", "u1", 0.0),
        ],
        "no_tokens": [make_doc("d1", "Contoso Falcon"), make_doc("d2", "Atlas Engine")],
        # three distinct sentences each, against a limit of two
        "limit_mid_document": [make_doc("d1", "Contoso Falcon"), make_doc("d2", "Atlas Engine")],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_warm_memo_records_equal_fresh_extract(self, models, monkeypatch, case):
        docs = self.CASES[case]
        plain = [pipeline.extract(doc, models) for doc in docs]
        if case == "no_tokens":  # split_sentences never gives one; extract still takes it
            split = corpus.split_sentences

            def with_empty(doc, *args):
                sentences = split(doc, *args)
                return [*sentences[:1], corpus.Sentence(doc.doc_id, len(sentences), ""),
                        *sentences[1:]]

            monkeypatch.setattr(corpus, "split_sentences", with_empty)
        fresh = [pipeline.extract(doc, models) for doc in docs]
        assert all(rec.ledger for rec in fresh)
        assert fresh == plain  # a sentence without tokens adds no token and no mention
        if case == "limit_mid_document":
            monkeypatch.setattr(pipeline, "_SENTENCE_MEMO_LIMIT", 2)
        state = PipelineState()
        for _ in range(2):  # the second pass finds its sentences in the memo
            for doc, expected in zip(docs, fresh):
                state.process_document(doc, models)
                assert state.documents[doc.doc_id] == expected
                assert len(state._sentence_memo) <= pipeline._SENTENCE_MEMO_LIMIT
        if case == "repeat":
            once, twice = (rec.ledger["contoso falcon||product"] for rec in fresh)
            assert topicrank.mention_count(twice) == 2 * topicrank.mention_count(once)
        if case == "title_and_body":
            assert [rec.ledger["contoso falcon||product"]["titles"] for rec in fresh] == [1, 0]

    def test_each_models_gets_its_own_taggers_mentions(self, config, models, tmp_path):
        """A state upserting with two Models in turn tags with each one's
        tagger: the memo starts anew whenever the Models changes."""
        tagger = models.tagger
        weights = np.zeros_like(tagger.weights)
        weights[:, tagger.labelset.index("O")] = 1.0  # every stored feature votes O
        path = tmp_path / "silent.npz"
        nertag.TaggerModel(tagger.rows, weights, tagger.labelset, tagger.hash_dim).save(path)
        silent = Models.load(replace(config, tagger_model=str(path)))
        doc = make_doc("d1", "Contoso Falcon")
        assert pipeline.extract(doc, models).ledger and not pipeline.extract(doc, silent).ledger
        state = PipelineState()
        for each in (models, silent, models, silent):
            state.process_document(doc, each)
            assert state.documents["d1"] == pipeline.extract(doc, each)

    def test_memo_is_bounded_and_changes_no_saved_byte(self, config, models, tmp_path,
                                                        monkeypatch):
        """The planted corpus repeats sentences across documents; a state
        that upserts it twice, its memo held to 64 entries, saves the bytes
        of records extracted one by one without a memo."""
        docs, _ = corpus.ingest_jsonl(config.corpus_path)
        fresh = PipelineState()
        for doc in docs:
            fresh.documents[doc.doc_id] = pipeline.extract(doc, models)
        fresh.save(tmp_path / "fresh")
        monkeypatch.setattr(pipeline, "_SENTENCE_MEMO_LIMIT", 64)
        state, sizes = PipelineState(), []
        for _ in range(2):
            for doc in docs:
                apply_update(state, UpdateEvent(kind="upsert", document=doc), models)
                sizes.append(len(state._sentence_memo))
        assert max(sizes) == 64
        state.save(tmp_path / "memo")
        assert (
            (tmp_path / "memo" / pipeline.STATE_FILE).read_bytes()
            == (tmp_path / "fresh" / pipeline.STATE_FILE).read_bytes()
        )
        assert PipelineState.load(tmp_path / "memo")._sentence_memo == {}

    def test_long_sentences_are_not_kept(self, models):
        """A body with no sentence break is one sentence. A state keeps no
        sentence longer than _MEMO_SENTENCE_CHARS, so upserting 100 such
        bodies of 10 KB each retains less than their 1 MB of text; a memo
        that kept them all would retain about 3.8 MB."""
        phrase = "the team shipped Contoso Falcon last week and"
        docs = [
            Document(f"d{i}", "Notes", " ".join(f"{phrase} {i} {j}" for j in range(200)),
                     "u1", 0.0)
            for i in range(100)
        ]
        state = PipelineState()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for doc in docs:
                state.process_document(doc, models)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert sum(len(doc.body) for doc in docs) > 1_000_000
        assert list(state._sentence_memo) == [(True, "Notes")]
        assert retained < 1_000_000
        assert state.documents["d7"] == pipeline.extract(docs[7], models)


class TestRankRefresh:
    def test_empty_state(self, config, models):
        ranked = rank_refresh(PipelineState(), config, models)
        assert ranked.entries == []

    def test_no_ranker_falls_back_to_frequency(self, config, models):
        state = PipelineState()
        for i in range(3):
            state.process_document(make_doc(f"d{i}", "Atlas Engine"), models)
        state.process_document(make_doc("d9", "Quantum Mesh"), models)
        bare = Models.load(replace(config, ranker_model=""))
        ranked = rank_refresh(state, config, bare)
        assert ranked.entries[0][0] == "atlas engine||product"
        assert all(s == 1.0 for _, s in ranked.entries)

    def test_scores_sorted_and_filtered(self, config, models, full_run):
        state, _ = full_run
        ranked = rank_refresh(state, config, models)
        scores = [s for _, s in ranked.entries]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= config.min_topic_score for s in scores)


# JSON values for a saved ledger: right and wrong count kinds (bools, 1.0,
# counts of 0 and below), empty or non-mapping surfaces, extra keys, and
# entries or ledgers that are no object at all
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.sampled_from([0.0, 1.0, 2.5]),
    st.text(max_size=2),
)
_ledger_count = st.one_of(
    st.integers(-1, 4), st.booleans(), st.sampled_from([1.0, 2.0]), _json_scalar
)
_ledger_surfaces = st.one_of(
    st.dictionaries(st.sampled_from(["Falcon", "falcon", "Atlas"]), _ledger_count, max_size=3),
    _json_scalar,
    st.lists(_json_scalar, max_size=2),
)


@st.composite
def _valid_ledger_entry(draw):
    surfaces = draw(st.dictionaries(st.sampled_from(["Falcon", "falcon", "Atlas"]),
                                    st.integers(1, 3), min_size=1, max_size=3))
    return {"titles": draw(st.integers(0, sum(surfaces.values()))), "surfaces": surfaces}


@st.composite
def _near_valid_ledger_entry(draw):
    """A valid entry with one count, the titles or the keys made wrong."""
    entry = draw(_valid_ledger_entry())
    bad = draw(st.sampled_from([0, -1, True, False, 1.0, None, "1"]))
    where = draw(st.sampled_from(["surface", "titles", "titles_above", "extra", "empty"]))
    if where == "surface":
        entry["surfaces"][draw(st.sampled_from(sorted(entry["surfaces"])))] = bad
    elif where == "titles":
        entry["titles"] = bad
    elif where == "titles_above":
        entry["titles"] = sum(entry["surfaces"].values()) + 1
    elif where == "extra":
        entry["extra"] = bad
    else:
        entry["surfaces"] = {}
    return entry


_ledger_entry = st.one_of(
    _valid_ledger_entry(),
    _near_valid_ledger_entry(),
    st.fixed_dictionaries(
        {"surfaces": _ledger_surfaces},
        optional={"titles": st.one_of(st.integers(0, 5), _ledger_count), "extra": _json_scalar},
    ),
    _json_scalar,
    st.lists(_json_scalar, max_size=2),
)
_ledger_json = st.one_of(
    st.dictionaries(st.sampled_from(["falcon||product", "atlas||product"]), _valid_ledger_entry(),
                    max_size=2),
    st.dictionaries(st.sampled_from(["falcon||product", "atlas||product"]), _ledger_entry,
                    max_size=2),
    _json_scalar,
)


class TestParseLedger:
    @settings(max_examples=500, deadline=None)
    @given(_ledger_json)
    def test_equals_has_type_parse(self, value):
        from helpers import has_type_parse_ledger

        value = json.loads(json.dumps(value))  # the values json.loads yields
        try:
            expected = has_type_parse_ledger(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                pipeline._parse_ledger(value)
            assert str(got.value) == str(exc)
        else:
            parsed = pipeline._parse_ledger(value)
            assert parsed == expected
            assert json.dumps(parsed) == json.dumps(expected)  # 1 and 1.0 differ here

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.text(), st.text(" |.-aB\u00df\u0130\u2163")),
        st.one_of(st.text(min_size=1), st.text("|a ", min_size=1)),
    )
    def test_every_key_extraction_builds_passes_the_key_check(self, surface, entity_type):
        """No saved state is refused for its keys: a key candidate_key builds
        from a surface that normalizes and an entity type LabelSet accepts
        loads, and splits back into that surface's normal form and type."""
        try:
            nertag.LabelSet([entity_type])
            key = topicrank.candidate_key(surface, entity_type)
        except ValueError:
            assume(False)
        ledger = pipeline._parse_ledger({key: {"titles": 0, "surfaces": {surface: 1}}})
        assert list(ledger) == [key]
        assert key.rpartition(nertag.KEY_SEP)[::2] == (topicrank.normalize_key(surface), entity_type)

    def test_repeated_strings_are_interned_across_lines(self):
        lines = [
            '{"falcon||product": {"titles": 1, "surfaces": {"Falcon": 2, "falcon": 1}}}',
            '{"falcon||product": {"titles": 0, "surfaces": {"falcon": 3}}}',
        ]
        first, second = (pipeline._parse_ledger(json.loads(line)) for line in lines)
        (k1,), (k2,) = first, second
        assert k1 == k2 and k1 is k2
        s1 = [s for s in first[k1]["surfaces"] if s == "falcon"][0]
        s2 = [s for s in second[k2]["surfaces"] if s == "falcon"][0]
        assert s1 is s2

    def test_table_shares_equal_entries(self):
        lines = [
            '{"falcon||product": {"titles": 1, "surfaces": {"Falcon": 2, "falcon": 1}},'
            ' "atlas||product": {"titles": 0, "surfaces": {"Atlas": 1}}}',
            '{"falcon||product": {"titles": 1, "surfaces": {"Falcon": 2, "falcon": 1}},'
            ' "vega||product": {"titles": 0, "surfaces": {"Atlas": 1}}}',
            # the same counts with the surfaces in another order, and other titles
            '{"falcon||product": {"titles": 1, "surfaces": {"falcon": 1, "Falcon": 2}},'
            ' "atlas||product": {"titles": 1, "surfaces": {"Atlas": 1}}}',
        ]
        entries = {}
        first, second, third = (
            pipeline._parse_ledger(json.loads(line), entries) for line in lines
        )
        for line, parsed in zip(lines, (first, second, third)):
            assert parsed == pipeline._parse_ledger(json.loads(line))
            assert json.dumps(parsed) == json.dumps(pipeline._parse_ledger(json.loads(line)))
        assert first["falcon||product"] is second["falcon||product"]
        # a different key, surfaces in another order or other titles: not shared
        assert second["vega||product"] is not first["atlas||product"]
        assert third["falcon||product"] is not first["falcon||product"]
        assert third["atlas||product"] is not first["atlas||product"]
        assert len(entries) == 5
        # the table holds flat signatures of the parsed strings themselves, no copy
        held = {
            id(s) for parsed in (first, second, third) for k, e in parsed.items()
            for s in (k, *e["surfaces"])
        }
        assert all(type(x) in (str, int) for sig in entries for x in sig)
        assert {id(x) for sig in entries for x in sig if type(x) is str} <= held


class TestStatePersistence:
    def test_load_shares_equal_ledger_entries(self, full_run, tmp_path):
        state, _ = full_run
        state.save(tmp_path / "state")
        loaded = PipelineState.load(tmp_path / "state")
        entries = [e for rec in loaded.documents.values() for e in rec.ledger.items()]
        by_signature = {}
        for key, entry in entries:
            signature = (key, entry["titles"], *entry["surfaces"].items())
            assert by_signature.setdefault(signature, entry) is entry
        assert len(by_signature) < len(entries)  # some entries repeat
        assert len({id(e) for _, e in entries}) == len(by_signature)
        assert loaded.documents == state.documents

    def test_shared_entries_are_never_written(self, config, models, full_run, tmp_path):
        """Upserts, deletes, ranking, the build, export and save leave every
        loaded ledger entry as it was loaded."""
        state, _ = full_run
        state.save(tmp_path / "state")
        loaded = PipelineState.load(tmp_path / "state")
        entries = [e for rec in loaded.documents.values() for e in rec.ledger.values()]
        at_load = copy.deepcopy(entries)
        first, second, *_ = sorted(loaded.documents)
        for event in [
            UpdateEvent(kind="upsert", document=make_doc(first, "Contoso Falcon")),
            UpdateEvent(kind="upsert", document=make_doc("new", "Atlas Engine")),
            UpdateEvent(kind="delete", doc_id=second),
        ]:
            apply_update(loaded, event, models)
        rank_refresh(loaded, config, models)
        kb = build_knowledge_base(loaded, config, models)
        assert kb.cards
        export_kb(kb, tmp_path / "kb")
        loaded.save(tmp_path / "again")
        assert entries == at_load

    def test_load_shares_repeated_strings(self, models, tmp_path):
        state = PipelineState()
        for doc_id in ("d1", "d2"):
            state.process_document(make_doc(doc_id, "Contoso Falcon"), models)
        state.save(tmp_path / "state")
        records = PipelineState.load(tmp_path / "state").documents
        ledger = {doc_id: rec.ledger for doc_id, rec in records.items()}
        shared = ledger["d1"].keys() & ledger["d2"].keys()
        assert shared
        for key in shared:
            (k1,) = [k for k in ledger["d1"] if k == key]
            (k2,) = [k for k in ledger["d2"] if k == key]
            assert k1 is k2
            s1, s2 = ledger["d1"][key]["surfaces"], ledger["d2"][key]["surfaces"]
            for surface in s1.keys() & s2.keys():
                assert [s for s in s1 if s == surface][0] is [s for s in s2 if s == surface][0]

    def test_round_trip(self, models, tmp_path):
        state = PipelineState()
        state.process_document(
            make_doc(
                "d1",
                "Contoso Falcon",
                body_extra="Contoso Falcon is defined as the telemetry service.",
                ts=5.0,
            ),
            models,
        )
        state.process_document(
            make_doc(
                "d2", "Atlas Engine", body_extra="Atlas Engine (AE) runs builds.", author="u_brin"
            ),
            models,
        )
        state.save(tmp_path / "state")
        loaded = PipelineState.load(tmp_path / "state")
        assert loaded.documents == state.documents
        assert loaded.store.snapshot() == state.store.snapshot()
        assert {d: rec.acronyms for d, rec in loaded.documents.items()} == {
            "d1": (),
            "d2": (("Atlas Engine", "AE"),),
        }
        assert [p.name for p in (tmp_path / "state").iterdir()] == ["documents.jsonl"]
        # ledger is functional after reload
        loaded.remove_document("d1")
        state.remove_document("d1")
        assert loaded.store.snapshot() == state.store.snapshot()

    def test_ledger_missing_a_document_is_corrupt(self, models, tmp_path):
        state_dir = _saved_state(models, tmp_path / "state")
        _edit_state(state_dir, lambda lines: lines["d2"].pop("ledger"))
        with pytest.raises(
            ValueError,
            match="^corrupt state: documents.jsonl line 2: missing or unknown keys: ledger$",
        ):
            PipelineState.load(state_dir)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line.pop("acronyms"),
            lambda line: line.update(acronyms={"Atlas Engine": "AE"}),
            lambda line: line.update(acronyms=[["Atlas Engine"]]),
            lambda line: line.update(acronyms=["AE"]),
            lambda line: line.update(acronyms=[["...", "AE"]]),
            lambda line: line.update(acronyms=[["Atlas Engine", "()"]]),
        ],
        ids=["missing", "not_a_list", "short_pair", "not_a_pair",
             "long_form_normalizes_to_empty", "acronym_normalizes_to_empty"],
    )
    def test_bad_acronyms_are_corrupt(self, models, tmp_path, edit):
        state_dir = _saved_state(models, tmp_path / "state")
        _edit_state(state_dir, lambda lines: edit(lines["d2"]))
        with pytest.raises(ValueError, match="^corrupt state: documents.jsonl line 2: "):
            PipelineState.load(state_dir)

    @pytest.mark.parametrize("key", ["ledger", "length"], ids=["ledger", "doc_length"])
    def test_ledger_value_not_an_object_is_corrupt(self, models, tmp_path, key):
        state_dir = _saved_state(models, tmp_path / "state")
        _edit_state(state_dir, lambda lines: lines["d1"].update({key: []}))
        with pytest.raises(ValueError, match=f"^corrupt state: documents.jsonl line 1: {key} is "):
            PipelineState.load(state_dir)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines["d1"].update(ledger=5),
            lambda lines: _first_contribution(lines).update(surfaces={}),
            lambda lines: _first_contribution(lines).update(titles=1.0),
            lambda lines: _first_contribution(lines).update(titles=True),
            lambda lines: _first_contribution(lines).update(mentions=2),
            lambda lines: _first_contribution(lines).update(titles=9),
            lambda lines: _first_contribution(lines).update(surfaces=["Atlas Engine"]),
            lambda lines: _first_contribution(lines).update(surfaces={"Atlas Engine": "1"}),
            lambda lines: _first_contribution(lines).update(extra=1),
            lambda lines: lines["d2"]["ledger"].update(x=7),
            lambda lines: lines["d1"].update(length="ten"),
            lambda lines: lines["d1"].update(length=0),
            lambda lines: lines["d1"].update(length=True),
            lambda lines: lines["d1"].update(length=12.0),
            *(
                lambda lines, key=key: lines["d2"]["ledger"].update(
                    {key: {"titles": 0, "surfaces": {"Contoso Falcon": 1}}}
                )
                for key in ["Not Normalized", "contoso falcon||", "Contoso Falcon||product",
                            "contoso  falcon||product", " contoso falcon||product", "||product",
                            "...||product"]
            ),
        ],
        ids=[
            "entry_not_object",
            "surfaces_empty",
            "titles_float",
            "titles_bool",
            "entry_mentions_key",
            "titles_above_mentions",
            "surfaces_list",
            "surface_count_str",
            "entry_extra_key",
            "contribution_not_object",
            "doc_length_str",
            "doc_length_zero",
            "doc_length_bool",
            "doc_length_float",
            "key_without_key_sep",
            "key_type_empty",
            "key_upper_case",
            "key_two_spaces",
            "key_edge_space",
            "key_surface_empty",
            "key_surface_normalizes_to_empty",
        ],
    )
    def test_ledger_contents_are_checked(self, config, models, tmp_path, capsys, edit):
        state_dir = _saved_state(models, tmp_path / "state")
        _edit_state(state_dir, edit)
        with pytest.raises(ValueError, match=r"^corrupt state: documents.jsonl line [12]: "):
            PipelineState.load(state_dir)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"tagger_model": config.tagger_model, "ranker_model": config.ranker_model})
        )
        capsys.readouterr()
        rc = cli.main(["refresh", "--config", str(cfg_path), "--state", str(state_dir)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(r"error: corrupt state: documents.jsonl line [12]: ", err)

    def test_saved_definition_has_four_keys(self, models, tmp_path):
        state_dir = _saved_state(models, tmp_path / "state")
        lines = [json.loads(t) for t in (state_dir / pipeline.STATE_FILE).read_text().splitlines()]
        saved = [d for line in lines for d in line["definitions"]]
        assert saved  # d1 holds one
        for d in saved:
            assert list(d) == ["topic_key", "sentence_text", "sentence_index", "confidence"]
        loaded = PipelineState.load(state_dir)
        assert [r.doc_id for r in loaded.documents["d1"].definitions] == ["d1"]

    def test_definition_naming_a_document_is_corrupt(self, models, tmp_path):
        """The line names the document; a definition that names one too is
        not of the saved format."""
        state_dir = _saved_state(models, tmp_path / "state")
        _edit_state(state_dir, lambda lines: lines["d1"]["definitions"][0].update(doc_id="ghost"))
        with pytest.raises(
            ValueError,
            match="^corrupt state: documents.jsonl line 1: missing or unknown keys: doc_id$",
        ):
            PipelineState.load(state_dir)

    def test_duplicate_doc_id_is_corrupt(self, models, tmp_path):
        state_dir = _saved_state(models, tmp_path / "state")
        path = state_dir / pipeline.STATE_FILE
        first = path.read_text().splitlines()[0]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(first + "\n")
        with pytest.raises(
            ValueError,
            match="^corrupt state: documents.jsonl line 3: doc_id 'd1' is on an earlier line too$",
        ):
            PipelineState.load(state_dir)

    @settings(max_examples=40, deadline=None)
    @given(_state_ops)
    def test_round_trip_after_random_events(self, models, ops):
        state = PipelineState()
        for kind, i, title, sentences, ts in ops:
            if kind == "upsert":
                doc = Document(f"d{i}", title, " ".join(sentences), f"u{i % 2}", ts)
                apply_update(state, UpdateEvent(kind="upsert", document=doc), models)
            else:
                apply_update(state, UpdateEvent(kind="delete", doc_id=f"d{i}"), models)
        with tempfile.TemporaryDirectory() as tmp:
            state.save(Path(tmp) / "state")
            loaded = PipelineState.load(Path(tmp) / "state")
            loaded.save(Path(tmp) / "again")
            saved, resaved = (
                (Path(tmp) / name / pipeline.STATE_FILE).read_bytes() for name in ("state", "again")
            )
        assert loaded.documents == state.documents
        assert loaded.store.snapshot() == state.store.snapshot()
        assert resaved == saved

    @settings(max_examples=40, deadline=None)
    @given(_state_ops)
    def test_saved_state_holds_no_document_text(self, models, ops):
        state, texts = PipelineState(), []
        for n, (kind, i, title, sentences, ts) in enumerate(ops):
            if kind == "upsert":
                # a closing sentence of its own makes each body a string that
                # no single stored definition sentence equals
                body = " ".join([*sentences, f"Event {n} closes the note."])
                texts += [t for t in (title, body) if t]
                doc = Document(f"d{i}", title, body, f"u{i % 2}", ts)
                apply_update(state, UpdateEvent(kind="upsert", document=doc), models)
            else:
                apply_update(state, UpdateEvent(kind="delete", doc_id=f"d{i}"), models)
        with tempfile.TemporaryDirectory() as tmp:
            state.save(Path(tmp) / "state")
            saved = (Path(tmp) / "state" / pipeline.STATE_FILE).read_text(encoding="utf-8")
            loaded = PipelineState.load(Path(tmp) / "state")
        for text in texts:
            assert text not in saved and json.dumps(text)[1:-1] not in saved
        for line in map(json.loads, saved.splitlines()):
            assert tuple(line) == pipeline.STATE_KEYS == (
                "doc_id", "author_id", "timestamp", "length", "ledger", "acronyms", "definitions"
            )
            assert all(list(c) == ["titles", "surfaces"] for c in line["ledger"].values())
        for rec in state.documents.values():
            assert not any(isinstance(getattr(rec, k), Document) for k in pipeline.STATE_KEYS)
        for current in (state, loaded):
            for cand in current.store.candidates.values():
                assert cand.ner_frequency == sum(cand.surface_counts.values())

    def test_failed_save_leaves_old_state(self, models, tmp_path, monkeypatch):
        state = PipelineState()
        # d1 has a definition, so the patched to_dict below is reached
        state.process_document(
            make_doc(
                "d1",
                "Contoso Falcon",
                body_extra="Contoso Falcon is defined as the telemetry ingestion service.",
            ),
            models,
        )
        state.save(tmp_path / "state")
        before = _tree_bytes(tmp_path / "state")
        state.process_document(make_doc("d2", "Atlas Engine"), models)

        def boom(self):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.defmine.DefinitionRecord, "to_dict", boom)
        with pytest.raises(OSError):
            state.save(tmp_path / "state")
        monkeypatch.undo()
        assert _tree_bytes(tmp_path / "state") == before
        assert sorted(PipelineState.load(tmp_path / "state").documents) == ["d1"]
        assert [p.name for p in (tmp_path / "state").iterdir()] == [pipeline.STATE_FILE]

    def test_save_fsyncs_the_file_before_the_replace_and_the_directory_after(
        self, models, tmp_path, monkeypatch
    ):
        state_dir = _saved_state(models, tmp_path / "state")
        state = PipelineState.load(state_dir)
        state.remove_document("d2")
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            st_ = os.fstat(fd)
            calls.append(("fsync", "dir" if stat.S_ISDIR(st_.st_mode) else "file", st_.st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        state.save(state_dir)
        monkeypatch.undo()
        assert calls == [
            ("fsync", "file", (state_dir / pipeline.STATE_FILE).stat().st_ino),
            ("replace", pipeline.STATE_FILE + ".tmp", pipeline.STATE_FILE),
            ("fsync", "dir", state_dir.stat().st_ino),
        ]
        assert sorted(PipelineState.load(state_dir).documents) == ["d1"]


class TestExport:
    def test_layout(self, full_run, tmp_path):
        _, kb = full_run
        out = tmp_path / "kb"
        assert export_kb(kb, out) is None
        assert (out / "manifest.json").exists()
        for name in ("topics.emb", "docs.emb", "users.emb"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cards"]) == len(kb.cards)
        for rel in manifest["cards"].values():
            assert (out / rel).exists()

    def test_json_files_are_one_sorted_dumps(self, full_run, tmp_path):
        _, kb = full_run
        out = tmp_path / "kb"
        export_kb(kb, out)
        text = (out / "manifest.json").read_text(encoding="utf-8")
        index = json.loads(text)["cards"]
        assert text == json.dumps({**kb.manifest, "cards": index}, sort_keys=True)
        for card in kb.cards:
            text = (out / index[card.key]).read_text(encoding="utf-8")
            assert text == json.dumps(card.to_dict(), sort_keys=True)

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
    def test_export_runs_only_the_c_encoder(self, full_run, tmp_path, monkeypatch):
        # json.dump, and json.dumps with indent, take the pure-Python encoder
        def boom(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder")

        _, kb = full_run
        monkeypatch.setattr(json.encoder, "_make_iterencode", boom)
        export_kb(kb, tmp_path / "kb")
        assert (tmp_path / "kb" / "topics.emb.index.json").exists()

    def test_card_key_urlencoding_round_trip(self, models, config, tmp_path):
        state = PipelineState()
        for i in range(2):
            state.process_document(
                Document(
                    f"d{i}",
                    "A/B notes",
                    "The team shipped A/B last week. We migrated A/B to prod.",
                    "u1",
                    float(i),
                ),
                models,
            )
        cfg = PipelineConfig(**{**config.__dict__, "min_topic_score": 0.0})
        kb = build_knowledge_base(state, cfg, models)
        out = tmp_path / "kb"
        export_kb(kb, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for key, rel in manifest["cards"].items():
            fname = Path(rel).name
            assert "/" not in fname[: -len(".json")]
            assert urllib.parse.unquote(fname[: -len(".json")]) == key
            assert json.loads((out / rel).read_text())["key"] == key

    def test_re_export_replaces_old_tree(self, full_run, tmp_path):
        _, kb = full_run
        out = tmp_path / "kb"
        export_kb(kb, out)
        stale = out / "cards" / "stale.json"
        stale.write_text("{}")
        export_kb(kb, out)
        assert not stale.exists()
        assert (out / "manifest.json").exists()

    def test_export_removes_old_tree_left_without_out(self, full_run, tmp_path):
        """A crash between the two renames leaves <out>.old and no <out>;
        the next export writes <out> and removes the old tree."""
        _, kb = full_run
        out, old = tmp_path / "kb", tmp_path / "kb.old"
        export_kb(kb, old)
        assert not out.exists()
        export_kb(kb, out)
        assert (out / "manifest.json").is_file()
        assert not old.exists()

    def test_failed_export_leaves_no_partial_output(self, full_run, tmp_path, monkeypatch):
        _, kb = full_run
        out = tmp_path / "kb"
        export_kb(kb, out)
        before = sorted(p.relative_to(out) for p in out.rglob("*"))

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.cardbuild, "write_embeddings", boom)
        with pytest.raises(OSError):
            export_kb(kb, tmp_path / "kb2")
        assert not (tmp_path / "kb2").exists()
        assert not (tmp_path / "kb2.staging").exists()
        # previous export untouched
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before

    def test_empty_kb_exports_manifest_only(self, tmp_path):
        kb = KnowledgeBase(cards=[], manifest={"n_documents": 0})
        out = tmp_path / "kb"
        export_kb(kb, out)
        assert (out / "manifest.json").exists()
        assert list((out / "cards").iterdir()) == []


class TestCli:
    def test_import_loads_no_scipy(self):
        # a fresh process, since this one may have imported SciPy already
        src = Path(pipeline.__file__).resolve().parents[1]
        code = (
            "import sys, kbmine.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def write_config(self, tmp_path, config, **extra):
        cfg = {
            "corpus_path": config.corpus_path,
            "tagger_model": config.tagger_model,
            "ranker_model": config.ranker_model,
            "final_top_k": 50,
            "min_topic_score": 0.5,
            "svd_rank": 8,
            "svd_oversampling": 2,
        }
        cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def _two_doc_corpus(self, tmp_path, extra=""):
        """d0 on Contoso Falcon (plus `extra` in its body) and d1 on Atlas Engine."""
        corpus_path = tmp_path / "corpus.jsonl"
        with open(corpus_path, "w", encoding="utf-8") as fh:
            for i, topic in enumerate(["Contoso Falcon", "Atlas Engine"]):
                doc = make_doc(f"d{i}", topic, body_extra=extra if i == 0 else "")
                fh.write(json.dumps(asdict(doc)) + "\n")
        return corpus_path

    def test_mine_and_refresh(self, config, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "kb"))
        state_dir = tmp_path / "state"
        rc = cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "kb" / "manifest.json").exists()
        rc = cli.main(["refresh", "--config", str(cfg_path), "--state", str(state_dir)])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "contoso falcon||product" in out

    def test_update_subcommand(self, config, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "kb"))
        state_dir = tmp_path / "state"
        assert cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"kind": "delete", "doc_id": "doc0000"}) + "\n")
        rc = cli.main(
            ["update", "--config", str(cfg_path), "--state", str(state_dir),
             "--events", str(events)]
        )
        assert rc == cli.EXIT_OK
        assert "applied 1 events" in capsys.readouterr().out
        state = PipelineState.load(state_dir)
        assert "doc0000" not in state.documents

    @pytest.mark.parametrize(
        "bad_line, reason",
        [
            ("{not json", "invalid JSON"),
            (json.dumps({"kind": "purge", "doc_id": "d0"}), "unknown event kind: 'purge'"),
            (
                json.dumps(
                    {"kind": "upsert",
                     "document": {"doc_id": "d9", "title": "T", "author_id": "u1",
                                  "timestamp": 1}}
                ),
                "missing keys: body",
            ),
            (
                json.dumps(
                    {"kind": "upsert",
                     "document": {"doc_id": "d9", "title": "T", "body": "B",
                                  "author_id": "u1", "timestamp": -5}}
                ),
                "timestamp is negative",
            ),
            (
                json.dumps({"kind": "delete", "doc_id": None}),
                "doc_id is None, not a string or an integer",
            ),
            *(
                (
                    '{"kind": "upsert", "document": {"doc_id": "d9", "title": "T", "body": "B", '
                    f'"author_id": "u1", "timestamp": {timestamp}}}}}',
                    "timestamp is not a finite number",
                )
                for timestamp in ('"nan"', '"inf"', "1e999", "NaN", "1" + "0" * 400, "true")
            ),
            *(
                (
                    json.dumps(
                        {"kind": "upsert",
                         "document": {"doc_id": "d9", "title": "T", "body": "B",
                                      "author_id": "u1", "timestamp": 1, **edit}}
                    ),
                    reason,
                )
                for edit, reason in [
                    ({"title": None}, "title is None, not a string"),
                    ({"author_id": 7}, "author_id is 7, not a string"),
                    ({"deleted": "false"}, "deleted is 'false', not a bool"),
                    ({"doc_id": "d9\ud800"},
                     "doc_id holds a lone surrogate, which UTF-8 cannot encode"),
                ]
            ),
        ],
        ids=[
            "invalid_json", "unknown_kind", "missing_field", "negative_timestamp",
            "null_doc_id", "text_nan_timestamp", "text_inf_timestamp",
            "overflowing_float_timestamp", "nan_timestamp", "overflowing_int_timestamp",
            "bool_timestamp", "null_title", "number_author", "text_deleted",
            "lone_surrogate_doc_id",
        ],
    )
    def test_bad_event_exits_2_and_keeps_state(
        self, config, tmp_path, capsys, bad_line, reason
    ):
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        state_dir = tmp_path / "state"
        assert cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        before = _tree_bytes(state_dir)
        events = tmp_path / "events.jsonl"
        # a good event first: it must not be saved either
        events.write_text(json.dumps({"kind": "delete", "doc_id": "d1"}) + "\n" + bad_line + "\n")
        capsys.readouterr()
        rc = cli.main(
            ["update", "--config", str(cfg_path), "--state", str(state_dir),
             "--events", str(events)]
        )
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 2" in err and reason in err
        assert "config error" not in err
        assert _tree_bytes(state_dir) == before

    def test_event_line_that_is_not_utf8_exits_2_and_keeps_state(
        self, config, tmp_path, capsys
    ):
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        state_dir = tmp_path / "state"
        assert cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        before = _tree_bytes(state_dir)
        events = tmp_path / "events.jsonl"
        events.write_bytes(
            json.dumps({"kind": "delete", "doc_id": "d1"}).encode() + b"\n"
            + json.dumps({"kind": "delete", "doc_id": "d2"}).encode().replace(b"d2", b"d\xff")
            + b"\n"
        )
        capsys.readouterr()
        rc = cli.main(
            ["update", "--config", str(cfg_path), "--state", str(state_dir),
             "--events", str(events)]
        )
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: events line 2: line is not valid UTF-8\n"
        assert _tree_bytes(state_dir) == before

    @pytest.mark.parametrize("n_rows", [5, 7])
    def test_misaligned_score_matrix_names_its_sentence(self, tmp_path, capsys, n_rows):
        """A score-file matrix with more or fewer rows than its sentence has
        tokens: update exits 2 with one line naming the document, the
        sentence and both counts, and keeps the state."""
        body = "We shipped Contoso Falcon today."  # 6 tokens, sentence 1
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(json.dumps(asdict(Document("d0", "Notes", body, "u1", 1.0))) + "\n")
        o, b, i = [-0.01, -6.0, -6.0], [-6.0, -0.01, -6.0], [-6.0, -6.0, -0.01]
        good = [o, o, b, i, o, o]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({"doc_id": doc_id, "sentence_index": 1, "scores": rows}) + "\n"
            for doc_id, rows in [("d0", good), ("d9", (good + [o])[:n_rows])]
        ))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus_path": str(corpus_path), "score_file": str(scores),
            "entity_types": ["product"], "output_dir": str(tmp_path / "kb"),
        }))
        state_dir = tmp_path / "state"
        assert cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        before = _tree_bytes(state_dir)
        events = tmp_path / "events.jsonl"
        doc = {"doc_id": "d9", "title": "Notes", "body": body, "author_id": "u1", "timestamp": 2}
        events.write_text(json.dumps({"kind": "upsert", "document": doc}) + "\n")
        capsys.readouterr()
        rc = cli.main(
            ["update", "--config", str(cfg_path), "--state", str(state_dir),
             "--events", str(events)]
        )
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"error: doc_id 'd9' sentence_index 1: the score file gives {n_rows} rows "
            "for its 6 tokens\n"
        )
        assert _tree_bytes(state_dir) == before

    @pytest.mark.parametrize("bad", ["misaligned_scores", "corrupt_tagger", "corrupt_ranker"])
    def test_mine_bad_model_input_exits_2(self, tmp_path, capsys, bad):
        """mine reads the score file and tagger in extract and the ranker in
        build, on first use: bad input there exits 2 with one line naming the
        document or the file, as update does, and writes nothing."""
        body = "We shipped the Contoso Falcon today."  # 7 tokens, sentence 1
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(json.dumps(asdict(Document("d0", "Notes", body, "u1", 1.0))) + "\n")
        o, b, i = [-0.01, -6.0, -6.0], [-6.0, -0.01, -6.0], [-6.0, -6.0, -0.01]
        rows = [o, o, o, b, i, o, o][:5 if bad == "misaligned_scores" else 7]
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({"doc_id": "d0", "sentence_index": 1, "scores": rows}) + "\n")
        model = tmp_path / "model"
        model.write_text(json.dumps({"trees": []}) if bad == "corrupt_ranker" else "not an archive")
        cfg = {"corpus_path": str(corpus_path), "entity_types": ["product"],
               "output_dir": str(tmp_path / "kb"), "score_file": str(scores)}
        if bad == "corrupt_tagger":
            cfg = {**cfg, "score_file": "", "tagger_model": str(model)}
        elif bad == "corrupt_ranker":
            cfg["ranker_model"] = str(model)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["mine", "--config", str(cfg_path), "--state", str(tmp_path / "state")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith({
            "misaligned_scores": "error: doc_id 'd0' sentence_index 1: the score file gives "
                                 "5 rows for its 7 tokens\n",
            "corrupt_tagger": f"error: tagger model {model}: ",
            "corrupt_ranker": f"error: ranker model {model}: missing key 'learning_rate'\n",
        }[bad])
        assert not (tmp_path / "kb").exists() and not (tmp_path / "state").exists()

    def test_mine_extracts_superseded_records(self, tmp_path, capsys):
        """mine applies each record as an upsert, a superseded one too: a
        first record of d0 whose score rows do not fit its tokens fails mine
        with exit 2 naming the document and sentence, though a later record
        of d0 fits them, and nothing is written."""
        o, b, i = [-0.01, -6.0, -6.0], [-6.0, -0.01, -6.0], [-6.0, -6.0, -0.01]
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps(
            {"doc_id": "d0", "sentence_index": 1, "scores": [o, o, b, i, o, o]}
        ) + "\n")
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(
            json.dumps(asdict(Document("d0", "Notes", body, "u1", ts))) + "\n"
            for body, ts in [("We shipped the Contoso Falcon today.", 1.0),  # 7 tokens
                             ("We shipped Contoso Falcon today.", 2.0)]  # 6 tokens
        ))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus_path": str(corpus_path), "score_file": str(scores),
            "entity_types": ["product"], "output_dir": str(tmp_path / "kb"),
        }))
        rc = cli.main(["mine", "--config", str(cfg_path), "--state", str(tmp_path / "state")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: doc_id 'd0' sentence_index 1: the score file gives 6 rows for its 7 tokens\n"
        )
        assert not (tmp_path / "kb").exists() and not (tmp_path / "state").exists()

    def test_export_and_refresh_read_only_the_ranker(self, config, full_run, tmp_path, capsys):
        """export and refresh read no score, tagger, classifier or pattern
        file: with those files gone they write the same cards, embeddings and
        ranking as with good files there."""
        state_dir = tmp_path / "state"
        full_run[0].save(state_dir)
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        files = {key: inputs / name for key, name in [
            ("tagger_model", "tagger.npz"), ("score_file", "scores.jsonl"),
            ("def_classifier", "classifier.npz"), ("patterns_file", "patterns.json"),
        ]}
        shutil.copy(config.tagger_model, files["tagger_model"])
        width = len(nertag.LabelSet(config.entity_types))
        files["score_file"].write_text(
            json.dumps({"doc_id": "d1", "sentence_index": 0, "scores": [[0.0] * width]}) + "\n"
        )
        np.savez(files["def_classifier"], weights=np.zeros((8, 5)), hash_dim=8)
        files["patterns_file"].write_text(
            json.dumps([{"template": "{topic} is known as {description}", "priority": 0}])
        )
        cfg_path = self.write_config(
            tmp_path, config, output_dir=str(tmp_path / "kb"),
            **{key: str(path) for key, path in files.items()},
        )
        # the files are good
        good = Models.load(PipelineConfig.from_file(cfg_path))
        assert good.external_scores and good.patterns and good.classifier.weights.shape == (0, 5)
        assert good.classifier.hash_dim == 8
        assert nertag.TaggerModel.load(files["tagger_model"]).labelset

        def run():
            capsys.readouterr()
            for command in ("export", "refresh"):
                argv = [command, "--config", str(cfg_path), "--state", str(state_dir)]
                assert cli.main(argv) == cli.EXIT_OK
            tree = _tree_bytes(tmp_path / "kb")
            manifest = json.loads(tree.pop(pipeline.MANIFEST_FILE))
            del manifest["timestamp"]
            return tree, manifest, capsys.readouterr()

        with_files = run()
        shutil.rmtree(inputs)
        without = run()
        assert len(with_files[0]) > 10 and "topics.emb" in with_files[0]
        assert without == with_files

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda rec: {**rec, "sentence": "x"}, "missing or unknown keys: sentence"),
            (lambda rec: {k: v for k, v in rec.items() if k != "confidence"},
             "missing or unknown keys: confidence"),
            (lambda rec: [rec], "record is not a JSON object"),
            (lambda rec: {**rec, "confidence": "high"}, "wrong type for confidence: 'high'"),
            (lambda rec: {**rec, "sentence_index": "0"}, "wrong type for sentence_index: '0'"),
            (lambda rec: {**rec, "sentence_text": None}, "wrong type for sentence_text: None"),
            (lambda rec: {**rec, "confidence": float("nan")}, "wrong type for confidence: nan"),
        ],
        ids=[
            "unknown_key", "missing_key", "not_an_object",
            "text_confidence", "text_sentence_index", "null_sentence_text", "nan_confidence",
        ],
    )
    def test_malformed_definition_exits_2(self, config, models, tmp_path, capsys, edit, reason):
        state_dir = _saved_state(models, tmp_path / "state")
        path = state_dir / pipeline.STATE_FILE
        d1, d2 = path.read_text().splitlines()
        line = json.loads(d1)
        line["definitions"] = [edit(line["definitions"][0])]
        path.write_text("\n" + json.dumps(line) + "\n" + d2 + "\n")
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "kb"))
        capsys.readouterr()
        rc = cli.main(["export", "--config", str(cfg_path), "--state", str(state_dir)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: corrupt state: documents.jsonl line 2: ")
        assert reason in err
        assert not (tmp_path / "kb").exists()

    @staticmethod
    def _three_file_state(saved, docs, old):
        """The three-file layout: documents.jsonl with the corpus fields
        only, ledger.json and definitions.jsonl."""
        with open(old / "documents.jsonl", "w", encoding="utf-8") as fh:
            for doc_id in saved.documents:
                fields = {k: getattr(docs[doc_id], k) for k in corpus.REQUIRED_KEYS}
                fh.write(json.dumps(fields) + "\n")
        (old / "ledger.json").write_text(json.dumps({
            "ledger": {d: _ledger_with_mentions(rec) for d, rec in saved.documents.items()},
            "doc_length": {d: rec.length for d, rec in saved.documents.items()},
            "acronyms": {d: rec.acronyms for d, rec in saved.documents.items()},
        }))
        (old / "definitions.jsonl").write_text("".join(
            json.dumps(_eight_key_definition(r, doc_id)) + "\n"
            for doc_id, rec in saved.documents.items()
            for r in rec.definitions
        ))

    @staticmethod
    def _text_line_state(saved, docs, old):
        """One line per document that also holds its title and body, with
        ledger entries that also hold a mention count."""
        with open(old / "documents.jsonl", "w", encoding="utf-8") as fh:
            for doc_id, rec in saved.documents.items():
                line = {k: getattr(docs[doc_id], k) for k in corpus.REQUIRED_KEYS}
                line["length"] = rec.length
                line["ledger"] = _ledger_with_mentions(rec)
                line["acronyms"] = rec.acronyms
                line["definitions"] = [_eight_key_definition(r, doc_id) for r in rec.definitions]
                fh.write(json.dumps(line) + "\n")

    @staticmethod
    def _eight_key_definition_state(saved, docs, old):
        """Today's lines, but with definitions as the format before this one
        saved them: eight keys, the line's doc_id among them."""
        with open(old / "documents.jsonl", "w", encoding="utf-8") as fh:
            for doc_id, rec in saved.documents.items():
                line = json.loads(rec.to_line())
                line["definitions"] = [_eight_key_definition(r, doc_id) for r in rec.definitions]
                fh.write(json.dumps(line) + "\n")

    @pytest.mark.parametrize(
        "layout, wrong_keys",
        [
            ("_three_file_state", "acronyms, body, definitions, ledger, length, title"),
            ("_text_line_state", "body, title"),
            ("_eight_key_definition_state", "category, doc_id, pattern_id, topic_surface"),
        ],
        ids=["three_files", "line_with_text", "eight_key_definitions"],
    )
    def test_parent_format_state_exits_2(
        self, config, models, tmp_path, capsys, layout, wrong_keys
    ):
        """A directory in an earlier layout fails to load on its first line."""
        saved = PipelineState.load(_saved_state(models, tmp_path / "saved"))
        docs = {doc.doc_id: doc for doc in _saved_docs()}
        assert sorted(saved.documents) == sorted(docs)
        old = tmp_path / "old_state"
        old.mkdir()
        getattr(self, layout)(saved, docs, old)
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "kb"))
        capsys.readouterr()
        rc = cli.main(["export", "--config", str(cfg_path), "--state", str(old)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: corrupt state: documents.jsonl line 1: missing or unknown keys: {wrong_keys}\n"
        )
        assert not (tmp_path / "kb").exists()

    def test_train_ranker_bad_label_exits_2(self, models, tmp_path, capsys):
        """A label of 2 used to train a model with an infinite base score and
        save it before failing."""
        state_dir = _saved_state(models, tmp_path / "state")
        labels = tmp_path / "labels.csv"
        labels.write_text("key,label\ncontoso falcon||product,1\natlas engine||product,2\n")
        model_path = tmp_path / "ranker.json"
        capsys.readouterr()
        rc = cli.main(
            ["train-ranker", "--state", str(state_dir), "--labels", str(labels),
             "--model", str(model_path)]
        )
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: label file {labels} line 3: 'atlas engine||product,2' "
            "is not 'key,label' with label 0 or 1\n"
        )
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train-tagger", "--data", "rows.jsonl", "--model", "model.npz"],
            ["train-defclassifier", "--data", "rows.csv", "--model", "model.npz"],
            ["train-ranker", "--state", "state", "--labels", "labels.csv", "--model", "m.json"],
        ],
        ids=["train_tagger", "train_defclassifier", "train_ranker"],
    )
    def test_unread_config_flag_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--config", str(tmp_path / "no_such.json")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_patterns_file_can_add_a_connective(self, config, tmp_path):
        sentence = "Contoso Falcon is known as the telemetry ingestion service."
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps(
            [{"template": p.template, "priority": p.priority} for p in defmine.DEFAULT_PATTERNS]
            + [{"template": "{topic} is known as {description}", "priority": 7}]
        ))
        cfg_path = self.write_config(
            tmp_path, config,
            corpus_path=str(self._two_doc_corpus(tmp_path, sentence)),
            output_dir=str(tmp_path / "kb"), patterns_file=str(patterns), min_topic_score=0.0,
        )
        assert cli.main(["mine", "--config", str(cfg_path)]) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "kb" / "manifest.json").read_text())
        card_path = tmp_path / "kb" / manifest["cards"]["contoso falcon||product"]
        assert json.loads(card_path.read_text())["definitions"] == [sentence]

    def test_delete_event_reads_doc_id_as_ingest_does(self, config, tmp_path, caplog):
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        state_dir = tmp_path / "state"
        assert cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        doc = {**asdict(make_doc("x", "Atlas Engine")), "doc_id": 77}
        events = tmp_path / "events.jsonl"
        events.write_text(
            json.dumps({"kind": "upsert", "document": doc}) + "\n"
            + json.dumps({"kind": "delete", "doc_id": 77}) + "\n"
        )
        with caplog.at_level(logging.WARNING, logger="kbmine.pipeline"):
            rc = cli.main(
                ["update", "--config", str(cfg_path), "--state", str(state_dir),
                 "--events", str(events)]
            )
        assert rc == cli.EXIT_OK
        assert not caplog.records
        assert sorted(PipelineState.load(state_dir).documents) == ["d0", "d1"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("final_top_k", "50"),
            ("card_k", "5"),
            ("seed", True),
            ("min_topic_score", "high"),
            ("entity_types", "product"),
            ("entity_types", ["x||y"]),
            ("entity_types", ["product", "product"]),
            ("entity_types", [""]),
            ("corpus_path", 7),
            ("entity_types", ["|x"]),  # its keys would split as type "x"
        ],
    )
    def test_config_type_error_exits_2(self, config, tmp_path, capsys, key, value):
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "kb"))
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), key: value}))
        rc = cli.main(["mine", "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: {key} must be ")
        assert not (tmp_path / "kb").exists()

    # keys PipelineConfig no longer has, with the values they used to default to
    REMOVED_KEYS = {
        "svd_batch_size": 1024,
        "svd_power_iterations": 1,
        "bm25_k1": 1.2,
        "bm25_b": 0.75,
        "conflation_tau": None,
        "positive_lexicon": "",
    }

    @pytest.mark.parametrize("key", list(REMOVED_KEYS))
    def test_removed_key_exits_2(self, config, tmp_path, capsys, key):
        cfg_path = self.write_config(
            tmp_path, config, output_dir=str(tmp_path / "kb"), **{key: self.REMOVED_KEYS[key]}
        )
        rc = cli.main(["mine", "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: unknown config keys: [{key!r}]\n"
        assert not (tmp_path / "kb").exists()

    def test_negative_top_n_exits_2(self, config, models, tmp_path, capsys):
        state_dir = _saved_state(models, tmp_path / "state")
        cfg_path = self.write_config(tmp_path, config)
        capsys.readouterr()
        rc = cli.main(
            ["refresh", "--config", str(cfg_path), "--state", str(state_dir), "--top-n", "-3"]
        )
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: final_top_k must be >= 1, not -3\n")

    def test_flags_without_config_file_are_checked(self, config, capsys):
        rc = cli.main(["mine", "--corpus", config.corpus_path, "--top-n", "5000"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: shortlist_n must be >= final_top_k\n"

    @pytest.mark.parametrize(
        "command, key, write, reason",
        [
            (
                "update", "tagger_model",
                lambda p: np.savez(p, weights=np.zeros((4, 3)), gamma=1.6, hash_dim=4),
                "missing key 'entity_types'",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, weights=np.zeros((4, 3)), entity_types=np.array(["product"]),
                                   gamma=1.6, hash_dim=64),
                "weights have shape (4, 3), not (64, 3)",
            ),
            (
                "update", "tagger_model",
                lambda p: p.write_text("not an archive"),
                "tagger model ",
            ),
            (
                "update", "tagger_model",
                lambda p: p.write_bytes(b"PK\x03\x04" + bytes(40)),
                "tagger model ",
            ),
            (
                "refresh", "ranker_model",
                lambda p: p.write_text(json.dumps({"trees": []})),
                "missing key 'learning_rate'",
            ),
            (
                "refresh", "ranker_model",
                lambda p: p.write_text(json.dumps(
                    {"learning_rate": 0.1, "base_score": 0.0,
                     "trees": [{"feature": "ner_freq", "threshold": 1.0}]}
                )),
                "tree node feature is 'ner_freq', not a feature index",
            ),
            (
                "refresh", "ranker_model",
                lambda p: p.write_text('{"learning_rate": NaN, "base_score": 0.0, "trees": []}'),
                "learning_rate is nan, not a finite number",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, weights=np.zeros((4, 3)), entity_types=np.array(["product"]),
                                   gamma=1.6, hash_dim=np.array([4, 4])),
                "hash_dim is not an integer >= 1",
            ),
            (
                "update", "def_classifier",
                lambda p: np.savez(p, weights=np.zeros((8, 5))),
                "missing key 'hash_dim'",
            ),
            (
                "update", "def_classifier",
                lambda p: np.savez(p, weights=np.zeros((0, 5)), hash_dim=0),
                "hash_dim is not an integer >= 1",
            ),
            (
                "update", "def_classifier",
                lambda p: np.savez(p, weights=np.zeros((8, 5)), hash_dim=8.0),
                "hash_dim is not an integer >= 1",
            ),
            (
                "update", "patterns_file",
                lambda p: p.write_text(json.dumps([{"template": "{topic} is {description}"}])),
                "entry 0: missing or unknown keys: priority",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, weights=np.full((4, 3), np.nan),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "weights hold a NaN or infinite value",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([1, 3]), weights=np.array([[0, np.inf, 0]] * 2),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "weights hold a NaN or infinite value",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0]), weights=np.array([["a", "b", "c"]]),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "weights are not numbers",
            ),
            (
                "update", "def_classifier",
                lambda p: np.savez(p, weights=np.full((8, 5), -np.inf), hash_dim=8),
                "weights hold a NaN or infinite value",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([3, 1]), weights=np.zeros((2, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "rows are not strictly increasing integers in [0, 4)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([1, 1]), weights=np.zeros((2, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "rows are not strictly increasing integers in [0, 4)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([-1, 2]), weights=np.zeros((2, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "rows are not strictly increasing integers in [0, 4)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([2, 4]), weights=np.zeros((2, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "rows are not strictly increasing integers in [0, 4)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0.0, 1.0]), weights=np.zeros((2, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "rows are not strictly increasing integers in [0, 4)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([[0, 1]]), weights=np.zeros((2, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "rows are not strictly increasing integers in [0, 4)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0, 1]), weights=np.zeros((4, 3)),
                                   entity_types=np.array(["product"]), hash_dim=4),
                "weights have shape (4, 3), not (2, 3)",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0]), weights=np.zeros((1, 3)),
                                   entity_types=np.array(["x||y"]), hash_dim=4),
                "entity_types must be distinct, non-empty strings without '||'",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0]), weights=np.zeros((1, 5)),
                                   entity_types=np.array(["a", "a"]), hash_dim=4),
                "entity_types must be distinct, non-empty strings without '||'",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0]), weights=np.zeros((1, 3)),
                                   entity_types=np.array([""]), hash_dim=4),
                "entity_types must be distinct, non-empty strings without '||'",
            ),
            (
                "update", "tagger_model",
                lambda p: np.savez(p, rows=np.array([0]), weights=np.zeros((1, 3)),
                                   entity_types=np.array("product"), hash_dim=4),
                "entity_types have shape (), not a list",
            ),
            (
                "update", "def_classifier",
                lambda p: np.savez(p, rows=np.array([5, 2]), weights=np.zeros((2, 5)),
                                   hash_dim=8),
                "rows are not strictly increasing integers in [0, 8)",
            ),
            (
                "update", "def_classifier",
                lambda p: np.savez(p, rows=np.array([2, 5]), weights=np.zeros((3, 5)),
                                   hash_dim=8),
                "weights have shape (3, 5), not (2, 5)",
            ),
        ],
        ids=[
            "tagger_without_entity_types", "tagger_weights_shape", "tagger_not_npz",
            "tagger_truncated_zip", "ranker_without_learning_rate", "ranker_bad_feature",
            "ranker_nan_learning_rate", "tagger_hash_dim_not_scalar",
            "classifier_without_hash_dim",
            "classifier_hash_dim_zero", "classifier_hash_dim_float",
            "pattern_without_priority", "tagger_nan_weight", "tagger_compact_infinite_weight",
            "tagger_text_weights", "classifier_infinite_weight", "tagger_rows_decreasing",
            "tagger_rows_repeated", "tagger_rows_negative", "tagger_rows_past_hash_dim",
            "tagger_rows_float", "tagger_rows_2d", "tagger_compact_weights_shape",
            "tagger_type_with_key_sep", "tagger_type_repeated", "tagger_type_empty",
            "tagger_types_not_a_list", "classifier_rows_decreasing",
            "classifier_compact_weights_shape",
        ],
    )
    def test_bad_model_file_exits_2(
        self, config, models, tmp_path, capsys, command, key, write, reason
    ):
        state_dir = _saved_state(models, tmp_path / "state")
        model_path = tmp_path / ("model.json" if key in ("ranker_model", "patterns_file")
                                 else "model.npz")
        write(model_path)
        cfg_path = self.write_config(
            tmp_path, config, output_dir=str(tmp_path / "kb"), **{key: str(model_path)}
        )
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"kind": "upsert", "document": asdict(make_doc(
            "d3", "Atlas Engine", body_extra="Atlas Engine is a build tool."))}) + "\n")
        before = _tree_bytes(state_dir)
        capsys.readouterr()
        rc = cli.main(
            [command, "--config", str(cfg_path), "--state", str(state_dir)]
            + (["--events", str(events)] if command == "update" else [])
        )
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(model_path) in err and reason in err
        assert _tree_bytes(state_dir) == before
        assert not (tmp_path / "kb").exists()

    @pytest.mark.parametrize(
        "command, flag, kind",
        [
            ("update", "--events", "dir"),
            ("update", "--state", "file"),
            ("train-tagger", "--data", "dir"),
            ("mine", "--out", "file"),
            ("mine", "--state", "file"),
        ],
        ids=["update_events_dir", "update_state_file", "train_tagger_data_dir",
             "mine_out_file", "mine_state_file"],
    )
    def test_unusable_path_exits_2(self, config, models, tmp_path, capsys, command, flag, kind):
        """An input path that cannot be read, or an output directory path that
        names a file, exits 2 with one line and leaves that file as it was."""
        bad = tmp_path / "bad"
        if kind == "dir":
            bad.mkdir()
        else:
            bad.write_text("keep me\n")
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"kind": "delete", "doc_id": "d1"}) + "\n")
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        args = {
            "update": lambda: {"--config": cfg_path, "--events": events,
                               "--state": _saved_state(models, tmp_path / "state")},
            "train-tagger": lambda: {"--model": tmp_path / "tagger.npz"},
            "mine": lambda: {"--config": cfg_path, "--state": tmp_path / "mine_state"},
        }[command]()
        args[flag] = bad
        capsys.readouterr()
        rc = cli.main([command, *(str(x) for item in args.items() for x in item)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(bad) in err
        if kind == "file":
            assert bad.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.glob("bad*")) == ["bad"]
        # mine refuses the path before the batch runs: it saves no state
        assert not (tmp_path / "mine_state").exists()

    @pytest.mark.parametrize(
        "command, flag, marker",
        [
            ("mine", "--out", pipeline.MANIFEST_FILE),
            ("export", "--out", pipeline.MANIFEST_FILE),
        ],
        ids=["mine_out", "export_out"],
    )
    def test_directory_of_other_files_is_not_replaced(
        self, config, models, tmp_path, capsys, monkeypatch, command, flag, marker
    ):
        """Writing a KB replaces its whole directory, so a non-empty
        directory without the file that writer writes is refused with one
        line before any work, and every file in it survives."""
        data = tmp_path / "data"
        data.mkdir()
        corpus_path = self._two_doc_corpus(data)
        (data / "notes.txt").write_text("keep me\n")
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(corpus_path), output_dir=str(tmp_path / "kb")
        )
        args = {"--config": cfg_path, flag: data}
        if command == "export":
            args["--state"] = _saved_state(models, tmp_path / "state")
        work = []
        for name in ("run_full", "build_knowledge_base"):
            monkeypatch.setattr(pipeline, name, lambda *a: work.append(a))
        before = _tree_bytes(data)
        capsys.readouterr()
        rc = cli.main([command, *(str(x) for item in args.items() for x in item)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {data} is not empty and has no {marker}, so it is not replaced\n"
        )
        assert work == []
        assert _tree_bytes(data) == before
        assert sorted(p.name for p in tmp_path.glob("data*")) == ["data"]

    def test_export_killed_mid_write_is_replaced_by_the_next(self, config, models, tmp_path):
        """An export killed while it writes its cards leaves <out>.staging
        behind; the next export to that --out replaces it and exits 0."""
        state_dir = _saved_state(models, tmp_path / "state")
        cfg_path = self.write_config(tmp_path, config, min_topic_score=0.0)
        out = tmp_path / "kb"
        args = ["export", "--config", str(cfg_path), "--state", str(state_dir), "--out", str(out)]
        # SIGKILL on the second card, as a crash or an OOM kill would end it
        code = (
            "import os, signal, sys\n"
            "from kbmine import cardbuild, cli\n"
            "to_dict, cards = cardbuild.TopicCard.to_dict, []\n"
            "def killing_to_dict(card):\n"
            "    cards.append(card)\n"
            "    if len(cards) == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return to_dict(card)\n"
            "cardbuild.TopicCard.to_dict = killing_to_dict\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = Path(pipeline.__file__).resolve().parents[1]
        child = subprocess.run(
            [sys.executable, "-c", code, *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
        )
        assert child.returncode == -signal.SIGKILL
        assert (tmp_path / "kb.staging").is_dir()
        assert not out.exists()
        assert cli.main(args) == cli.EXIT_OK
        assert not (tmp_path / "kb.staging").exists()
        manifest = json.loads((out / pipeline.MANIFEST_FILE).read_text())
        assert len(manifest["cards"]) >= 2
        for rel in manifest["cards"].values():
            assert (out / rel).is_file()

    @pytest.mark.parametrize("kill_at", ["mid_write", "after_replace"])
    def test_update_killed_mid_save_leaves_a_state_the_next_update_reads(
        self, config, models, tmp_path, kill_at
    ):
        """An update killed while it writes documents.jsonl.tmp leaves the old
        documents.jsonl byte for byte; one killed after the replace, before
        the directory fsync, leaves the new one. Either way the next update
        exits 0 and removes the leftover temporary file, and no <state>.old
        or <state>.staging ever exists."""
        state_dir = _saved_state(models, tmp_path / "state")
        before = (state_dir / pipeline.STATE_FILE).read_bytes()
        cfg_path = self.write_config(tmp_path, config)
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(
            {"kind": "upsert", "document": asdict(make_doc("d3", "Atlas Engine"))}
        ) + "\n")
        args = ["update", "--config", str(cfg_path), "--state", str(state_dir),
                "--events", str(events)]
        # SIGKILL, as a crash or an OOM kill would end it: on the second
        # record written, or right after the replace
        hook = {
            "mid_write": (
                "to_line, records = pipeline.DocRecord.to_line, []\n"
                "def killing_to_line(rec):\n"
                "    records.append(rec)\n"
                "    if len(records) == 2:\n"
                "        os.kill(os.getpid(), signal.SIGKILL)\n"
                "    return to_line(rec)\n"
                "pipeline.DocRecord.to_line = killing_to_line\n"
            ),
            "after_replace": (
                "replace = os.replace\n"
                "def killing_replace(src, dst):\n"
                "    replace(src, dst)\n"
                "    os.kill(os.getpid(), signal.SIGKILL)\n"
                "os.replace = killing_replace\n"
            ),
        }[kill_at]
        code = (
            "import os, signal, sys\n"
            "from kbmine import cli, pipeline\n"
            + hook
            + "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = Path(pipeline.__file__).resolve().parents[1]
        child = subprocess.run(
            [sys.executable, "-c", code, *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
        )
        assert child.returncode == -signal.SIGKILL
        assert [p.name for p in tmp_path.glob("state*")] == ["state"]
        if kill_at == "mid_write":
            assert (state_dir / pipeline.STATE_FILE).read_bytes() == before
            assert (state_dir / (pipeline.STATE_FILE + ".tmp")).is_file()
            expected = ["d1", "d2"]
        else:
            expected = ["d1", "d2", "d3"]
        assert sorted(PipelineState.load(state_dir).documents) == expected
        events.write_text(json.dumps({"kind": "delete", "doc_id": "d1"}) + "\n")
        assert cli.main(args) == cli.EXIT_OK
        assert sorted(PipelineState.load(state_dir).documents) == expected[1:]
        assert [p.name for p in state_dir.iterdir()] == [pipeline.STATE_FILE]
        assert [p.name for p in tmp_path.glob("state*")] == ["state"]

    @pytest.mark.parametrize("state_arg", ["data", "."], ids=["other_files", "working_directory"])
    def test_state_is_written_into_a_directory_of_other_files(
        self, config, tmp_path, monkeypatch, state_arg
    ):
        """A save replaces only documents.jsonl, so mine and update write it
        into a --state directory that holds other files, or is the working
        directory, and leave every other file there byte for byte."""
        data = tmp_path / "data"
        (data / "sub").mkdir(parents=True)
        (data / "notes.txt").write_bytes(b"keep me\n")
        (data / "sub" / pipeline.STATE_FILE).write_bytes(b"not this state\n")
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"kind": "delete", "doc_id": "d1"}) + "\n")
        monkeypatch.chdir(data if state_arg == "." else tmp_path)
        before = _tree_bytes(data)
        flags = ["--config", str(cfg_path), "--state", state_arg]
        assert cli.main(["mine", *flags]) == cli.EXIT_OK
        assert sorted(PipelineState.load(data).documents) == ["d0", "d1"]
        assert cli.main(["update", *flags, "--events", str(events)]) == cli.EXIT_OK
        assert sorted(PipelineState.load(data).documents) == ["d0"]
        after = _tree_bytes(data)
        assert after.pop(pipeline.STATE_FILE)
        assert after == before
        assert [p.name for p in tmp_path.glob("data*")] == ["data"]

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda line: line["ledger"].update(
                {"Not Normalized": {"titles": 0, "surfaces": {"Not Normalized": 1}}}),
             "ledger key 'Not Normalized' is not a normalized surface, '||' and an entity type"),
            (lambda line: line.update(acronyms=[["...", "CF"]]),
             "bad acronym pair: ['...', 'CF']"),
            (lambda line: line.update(doc_id="d2\ud800"),
             "doc_id holds a lone surrogate, which UTF-8 cannot encode"),
        ],
        ids=["ledger_key_without_type", "acronym_long_form_normalizes_to_empty",
             "lone_surrogate_doc_id"],
    )
    def test_state_no_extraction_writes_exits_2_on_load(
        self, config, models, tmp_path, capsys, edit, reason
    ):
        """A ledger key, an acronym pair or a doc_id that no extraction
        writes is a corrupt state line: export exits 2 naming the file and
        line before it builds anything."""
        state_dir = _saved_state(models, tmp_path / "state")
        _edit_state(state_dir, lambda lines: edit(lines["d2"]))
        cfg_path = self.write_config(
            tmp_path, config, output_dir=str(tmp_path / "kb"), min_topic_score=0.0
        )
        capsys.readouterr()
        rc = cli.main(["export", "--config", str(cfg_path), "--state", str(state_dir)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: corrupt state: documents.jsonl line 2: {reason}\n"
        )
        assert not (tmp_path / "kb").exists()

    @pytest.mark.parametrize("suffix, kind", [(".staging", "dir"), (".old", "file")])
    @pytest.mark.parametrize(
        "command, flag, marker",
        [
            ("mine", "--out", pipeline.MANIFEST_FILE),
            ("export", "--out", pipeline.MANIFEST_FILE),
        ],
        ids=["mine_out", "export_out"],
    )
    def test_sibling_of_other_files_is_not_replaced(
        self, config, models, tmp_path, capsys, monkeypatch, command, flag, marker, suffix, kind
    ):
        """A KB write replaces <out>.staging and <out>.old as well as <out>,
        so either one that holds something other than an earlier output is
        refused with one line before any work, and its file survives."""
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        args = {"--config": cfg_path}
        if command == "export":
            args["--state"] = _saved_state(models, tmp_path / "state")
        target = tmp_path / "out"
        args[flag] = target
        sibling = tmp_path / (target.name + suffix)
        if kind == "dir":
            sibling.mkdir()
            kept = sibling / "notes.txt"
        else:
            kept = sibling
        kept.write_bytes(b"keep me\n")
        work = []
        for name in ("run_full", "build_knowledge_base"):
            monkeypatch.setattr(pipeline, name, lambda *a: work.append(a))
        before = _tree_bytes(tmp_path)
        capsys.readouterr()
        rc = cli.main([command, *(str(x) for item in args.items() for x in item)])
        assert rc == cli.EXIT_CONFIG
        reason = (
            f"is not empty and has no {marker}, so it is not replaced"
            if kind == "dir" else "exists and is not a directory"
        )
        assert capsys.readouterr().err == f"error: {sibling} {reason}\n"
        assert work == []
        assert kept.read_bytes() == b"keep me\n"
        assert _tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("path", [".", ".."])
    @pytest.mark.parametrize(
        "command, flag",
        [("mine", "--out"), ("export", "--out")],
        ids=["mine_out", "export_out"],
    )
    def test_working_directory_is_not_replaced(
        self, config, models, tmp_path, capsys, monkeypatch, command, flag, path
    ):
        """An output path that is the working directory, or holds it, cannot
        be swapped out: refused with one line before any work, leaving no
        staging directory behind."""
        here = tmp_path / "work" / "here"
        here.mkdir(parents=True)
        (here / "notes.txt").write_text("keep me\n")
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / "kb"),
        )
        args = {"--config": cfg_path}
        if command == "export":
            args["--state"] = _saved_state(models, tmp_path / "state")
        args[flag] = path
        work = []
        for name in ("run_full", "build_knowledge_base"):
            monkeypatch.setattr(pipeline, name, lambda *a: work.append(a))
        monkeypatch.chdir(here)
        before = _tree_bytes(tmp_path)
        capsys.readouterr()
        rc = cli.main([command, *(str(x) for item in args.items() for x in item)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path} is the working directory or holds it\n"
        assert work == []
        assert _tree_bytes(tmp_path) == before

    def test_export_refuses_out_file_before_building(
        self, config, models, tmp_path, capsys, monkeypatch
    ):
        """An --out that names a file is refused before the knowledge base
        is built, as mine refuses it before the batch runs."""
        state_dir = _saved_state(models, tmp_path / "state")
        bad = tmp_path / "bad"
        bad.write_text("keep me\n")
        cfg_path = self.write_config(tmp_path, config)
        built = []
        monkeypatch.setattr(pipeline, "build_knowledge_base", lambda *a: built.append(a))
        capsys.readouterr()
        rc = cli.main(
            ["export", "--config", str(cfg_path), "--state", str(state_dir), "--out", str(bad)]
        )
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {bad} exists and is not a directory\n"
        assert built == []
        assert bad.read_text() == "keep me\n"

    @pytest.mark.parametrize(
        "command, out, state",
        [
            ("mine", "shared", "shared"),
            ("mine", "run/kb", "run"),
            ("mine", "run/documents.jsonl.tmp", "run"),
            ("mine", "run", "run/state"),
            ("export", "shared", "shared"),
            ("export", "run/kb", "run"),
            ("export", "run/documents.jsonl.tmp", "run"),
            ("export", "run", "run/state"),
        ],
        ids=["mine_same", "mine_out_in_state", "mine_out_at_state_tmp", "mine_state_in_out",
             "export_same", "export_out_in_state", "export_out_at_state_tmp",
             "export_state_in_out"],
    )
    def test_overlapping_out_and_state_exit_2(
        self, config, models, tmp_path, capsys, command, out, state
    ):
        """An output directory that is the state directory, holds it or sits
        in it is refused with one line before any work (writing the KB swaps
        in a whole new tree, which would take a state in it along; a KB at
        <state>/documents.jsonl.tmp would fail every later save), and the
        saved state stays as it was."""
        cfg_path = self.write_config(
            tmp_path, config, corpus_path=str(self._two_doc_corpus(tmp_path)),
            output_dir=str(tmp_path / out),
        )
        state_dir = tmp_path / state
        if command == "export":
            _saved_state(models, tmp_path / "saved")
            state_dir.parent.mkdir(exist_ok=True)
            (tmp_path / "saved").rename(state_dir)
        before = _tree_bytes(tmp_path)
        capsys.readouterr()
        rc = cli.main([command, "--config", str(cfg_path), "--state", str(state_dir)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: output directory ") and err.endswith(" overlap\n")
        assert _tree_bytes(tmp_path) == before
        if command == "export":
            assert pipeline.PipelineState.load(state_dir).documents

    def test_sibling_out_and_state_with_a_common_prefix_are_apart(self, config, tmp_path):
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "run_kb"))
        state_dir = tmp_path / "run"
        assert cli.main(["mine", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        assert cli.main(["export", "--config", str(cfg_path), "--state", str(state_dir)]) == 0
        assert (tmp_path / "run_kb" / "manifest.json").exists()
        assert (state_dir / pipeline.STATE_FILE).exists()

    @pytest.mark.parametrize(
        "path_kind", ["corpus", "events", "state", "score_file", "ranker", "patterns", "config"]
    )
    def test_deeply_nested_json_is_bad_input(
        self, config, models, tmp_path, capsys, path_kind
    ):
        """JSON nested past the recursion limit is invalid JSON like any
        other: exit 2 with one line, and ingest skips the line."""
        bad = tmp_path / "deep.json"
        if path_kind == "ranker":  # a tree 2,000 levels deep
            node = '{"feature": 0, "threshold": 0.0, "right": {"value": 0.0}, "left": '
            bad.write_text('{"learning_rate": 0.1, "base_score": 0.0, "trees": ['
                           + node * 2_000 + '{"value": 0.0}' + "}" * 2_000 + "]}")
        else:
            bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        state_dir = _saved_state(models, tmp_path / "state")
        if path_kind == "state":
            shutil.copy(bad, state_dir / pipeline.STATE_FILE)
        field = {"score_file": "score_file", "ranker": "ranker_model",
                 "patterns": "patterns_file"}.get(path_kind)
        cfg_path = self.write_config(
            tmp_path, config, output_dir=str(tmp_path / "kb"),
            **({field: str(bad)} if field else {}),
        )
        # export reads neither the score file nor the patterns: an upsert does
        upsert = tmp_path / "upsert.jsonl"
        upsert.write_text(json.dumps({"kind": "upsert", "document": asdict(make_doc(
            "d3", "Atlas Engine"))}) + "\n")
        update = ["update", "--config", cfg_path, "--state", state_dir, "--events"]
        argv = {
            "corpus": ["ingest", "--corpus", bad],
            "events": update + [bad],
            "score_file": update + [upsert],
            "patterns": update + [upsert],
            "config": ["export", "--config", bad, "--state", state_dir],
        }.get(path_kind, ["export", "--config", cfg_path, "--state", state_dir])
        capsys.readouterr()
        rc = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid JSON: nested too deeply" in err
        if path_kind == "corpus":
            assert rc == cli.EXIT_OK and err.startswith("line 1: ")
        else:
            assert rc == cli.EXIT_CONFIG
            assert err.startswith("config error: " if path_kind == "config" else "error: ")
        assert not (tmp_path / "kb").exists()

    @pytest.mark.parametrize("path_kind", ["config", "patterns", "ranker"])
    def test_json_file_that_is_not_utf8_is_bad_input(
        self, config, models, tmp_path, capsys, path_kind
    ):
        """A JSON file holding a byte that is not UTF-8 exits 2 with one
        line naming the file and the byte's offset."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"learning_rate": \xff}')
        state_dir = _saved_state(models, tmp_path / "state")
        field = {"ranker": "ranker_model", "patterns": "patterns_file"}.get(path_kind)
        cfg_path = self.write_config(
            tmp_path, config, output_dir=str(tmp_path / "kb"),
            **({field: str(bad)} if field else {}),
        )
        # export does not read the patterns: an upsert does
        upsert = tmp_path / "upsert.jsonl"
        upsert.write_text(json.dumps({"kind": "upsert", "document": asdict(make_doc(
            "d3", "Atlas Engine"))}) + "\n")
        argv = {
            "config": ["export", "--config", bad, "--state", state_dir],
            "patterns": ["update", "--config", cfg_path, "--state", state_dir,
                         "--events", upsert],
            "ranker": ["export", "--config", cfg_path, "--state", state_dir],
        }[path_kind]
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}: not valid UTF-8 at byte 18\n" in err and "codec" not in err
        assert err.startswith("config error: " if path_kind == "config" else "error: ")
        assert not (tmp_path / "kb").exists()

    def test_long_card_key_exports_under_a_digest_name(self, tmp_path, capsys):
        """A 40-character CJK topic quotes to a 382-byte file name, past the
        usual 255-byte limit; its card is named by the key's sha256 instead."""
        topic = "知识库" * 13 + "图"
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(
            json.dumps(asdict(Document(f"d{i}", "Notes", topic, "u1", float(i)))) + "\n"
            for i in range(2)
        ), encoding="utf-8")
        # sentence 0 is the title and 1 the body: one token, tagged B-product
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({"doc_id": f"d{i}", "sentence_index": 1, "scores": [[0.0, 1.0, 0.0]]})
            + "\n"
            for i in range(2)
        ))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus_path": str(corpus_path), "score_file": str(scores),
            "entity_types": ["product"], "output_dir": str(tmp_path / "kb"),
        }))
        assert cli.main(["mine", "--config", str(cfg_path)]) == cli.EXIT_OK
        key = f"{topic}||product"
        manifest = json.loads((tmp_path / "kb" / "manifest.json").read_text())
        assert len(urllib.parse.quote(key, safe="") + ".json") > 255
        assert manifest["cards"] == {key: f"cards/{hashlib.sha256(key.encode()).hexdigest()}.json"}
        card = json.loads((tmp_path / "kb" / manifest["cards"][key]).read_text())
        assert card["key"] == key and card["display_name"] == topic

    def test_export_below_memory_budget_exits_3(self, config, models, tmp_path, capsys):
        state_dir = _saved_state(models, tmp_path / "state")
        cfg_path = self.write_config(tmp_path, config, output_dir=str(tmp_path / "kb"))
        capsys.readouterr()
        rc = cli.main(
            ["export", "--config", str(cfg_path), "--state", str(state_dir),
             "--mem-budget", "1000"]
        )
        assert rc == cli.EXIT_STAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: stage 'build' failed: memory budget 1000 bytes too small")
        assert int(re.search(r"minimum feasible budget is (\d+) bytes", err).group(1)) > 1000
        assert not (tmp_path / "kb").exists()

    @pytest.mark.parametrize(
        "text, reason",
        [(None, "No such file or directory"), ("{not json", "Expecting property name")],
        ids=["missing", "invalid_json"],
    )
    def test_bad_config_file_says_config_error(self, tmp_path, capsys, text, reason):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["mine", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err

    def test_ingest_reports_counts(self, config, capsys):
        rc = cli.main(["ingest", "--corpus", config.corpus_path])
        assert rc == cli.EXIT_OK
        assert "200 documents, 0 errors" in capsys.readouterr().out

    def test_ingest_counts_live_documents(self, tmp_path, capsys):
        """A document whose last record is marked deleted is not counted,
        as mine keeps no document for it."""
        path = tmp_path / "corpus.jsonl"
        records = [make_doc("d1", "Atlas Engine"), make_doc("d2", "Contoso Falcon"),
                   replace(make_doc("d1", "Atlas Engine"), deleted=True)]
        path.write_text("".join(json.dumps(asdict(doc)) + "\n" for doc in records))
        assert cli.main(["ingest", "--corpus", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "1 documents, 0 errors\n"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        assert cli.main(["mine", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_models_exits_2(self, tmp_path, capsys):
        # no tagger model and no score file: a config error, as under update and export
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corpus_path": str(tmp_path / "c.jsonl")}))
        assert cli.main(["mine", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_train_defclassifier(self, tmp_path):
        from helpers import make_definition_rows

        rows = make_definition_rows(100, seed=0)
        data = tmp_path / "rows.csv"
        with open(data, "w", encoding="utf-8") as fh:
            for text, cat in rows:
                fh.write(f"{cat.value},{text}\n")
        model_path = tmp_path / "clf.npz"
        rc = cli.main(
            ["train-defclassifier", "--data", str(data), "--model", str(model_path)]
        )
        assert rc == cli.EXIT_OK
        assert model_path.exists()

    def test_train_defclassifier_reports_stored_rows(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        data.write_text("Sufficient,Statistics is a branch of mathematics.\n"
                        "Personal,Alice is a nurse at Acme.\n")
        model_path = tmp_path / "clf.npz"
        rc = cli.main(["train-defclassifier", "--data", str(data), "--model", str(model_path)])
        assert rc == cli.EXIT_OK
        model = defmine.LinearClassifier.load(model_path)
        assert 0 < len(model.rows) < model.hash_dim
        assert capsys.readouterr().out == (
            f"trained on 2 sentences, stored {len(model.rows)} of {model.hash_dim} weight rows\n"
        )

    def test_train_defclassifier_bad_category_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        data.write_text("Sufficient,Statistics is a branch of mathematics.\n\nBogus,Foo.\n")
        model_path = tmp_path / "clf.npz"
        rc = cli.main(["train-defclassifier", "--data", str(data), "--model", str(model_path)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: classifier data {data} line 3: 'Bogus' is not a valid DefinitionCategory\n"
        )
        assert not model_path.exists()

    def test_train_tagger_reads_every_row(self, tmp_path, capsys):
        from helpers import make_tagger_training_data

        rows = make_tagger_training_data()
        data = tmp_path / "tagged.jsonl"
        data.write_text("".join(
            json.dumps({"tokens": r.tokens, "labels": r.labels}) + "\n\n" for r in rows
        ))
        assert nertag.read_tagger_data(data) == rows
        model_path = tmp_path / "tagger.npz"
        rc = cli.main(
            ["train-tagger", "--data", str(data), "--model", str(model_path), "--epochs", "1"]
        )
        assert rc == cli.EXIT_OK
        model = nertag.TaggerModel.load(model_path)
        assert model.hash_dim == nertag.TrainConfig().hash_dim
        out = capsys.readouterr().out
        assert f"trained on {len(rows)} sentences" in out
        assert out.endswith(f", stored {len(model.rows)} of {model.hash_dim} weight rows\n")
        assert 0 < len(model.rows) < model.hash_dim

    @pytest.mark.parametrize(
        "row, reason",
        [
            ({"tokens": ["Ada"]}, "missing keys: labels"),
            (["Ada", "B-person"], "record is not a JSON object"),
            ({"tokens": "Ada", "labels": ["B-person"]}, "tokens is not a list of strings"),
            ({"tokens": ["Ada"], "labels": ["B-wizard"]}, "label 'B-wizard' is not in the label set"),
            ({"tokens": ["Ada"], "labels": ["I-person"]}, "labels are not a BIO-valid sequence"),
            ({"tokens": ["Ada", "Lovelace"], "labels": ["B-person"]}, "tokens and labels must align"),
            ("{not json", "invalid JSON"),
            ({"tokens": ["a\ud800"], "labels": ["O"]}, "tokens holds a lone surrogate"),
        ],
        ids=[
            "missing_labels", "list_row", "text_tokens", "unknown_label", "bio_invalid",
            "misaligned", "invalid_json", "lone_surrogate_token",
        ],
    )
    def test_bad_tagger_data_exits_2(self, tmp_path, capsys, row, reason):
        data = tmp_path / "tagged.jsonl"
        good = {"tokens": ["Ada", "shipped", "it"], "labels": ["B-person", "O", "O"]}
        line = row if isinstance(row, str) else json.dumps(row)
        data.write_text(json.dumps(good) + "\n\n" + line + "\n")
        model_path = tmp_path / "tagger.npz"
        rc = cli.main(["train-tagger", "--data", str(data), "--model", str(model_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: tagger data {data} line 3: ") and reason in err
        assert not model_path.exists()
