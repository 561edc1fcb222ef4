"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print;
each criterion is also a hard assertion, so a plain pytest run fails loudly.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    AUTHORS,
    PLANTED_DEFINITIONS,
    PLANTED_TOPICS,
    binary_rows,
    brute_force_decode,
    csc_of,
    dense_of,
    eval_rule_baseline,
    greedy_decode,
    make_definition_rows,
    make_ranker_rows,
    prf1,
)
from kbmine import cardbuild, corpus, defmine, nertag, pipeline, topicrank


def report(num, name, checks):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = f"  (failed: {', '.join(failed)})" if failed else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert not failed, f"criterion {num} ({name}) failed checks: {failed}"


def test_criterion_1_viterbi_optimality():
    rng = np.random.default_rng(0)
    types = ("person", "creative_work")
    labelset = nertag.LabelSet(types)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        scores = rng.normal(size=(n, len(labelset)))
        if nertag.viterbi_decode(scores, labelset) != brute_force_decode(scores, types):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "Viterbi exactly matches brute force on 1000 matrices",
        [
            ("exact match on all 1000 matrices", mismatches == 0),
            ("runtime < 5 s", elapsed < 5.0),
        ],
    )


def test_criterion_2_viterbi_validity_and_dominance():
    labelset = nertag.LabelSet(nertag.DEFAULT_ENTITY_TYPES)
    assert len(labelset) == 17
    rng = np.random.default_rng(1)
    valid = True
    dominant = True
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        scores = rng.normal(size=(n, 17))
        path = nertag.viterbi_decode(scores, labelset)
        valid = valid and labelset.is_valid_sequence(path)
        greedy = greedy_decode(scores, labelset)
        v = float(scores[np.arange(n), path].sum())
        g = float(scores[np.arange(n), greedy].sum())
        dominant = dominant and v >= g - 1e-12

    # constructed scenario: raw per-token argmax is BIO-invalid (O, I, I);
    # the decoder must return the valid B-wrk I-wrk I-wrk path instead
    wrk = nertag.LabelSet(("wrk",))
    b, i = wrk.index("B-wrk"), wrk.index("I-wrk")
    o = wrk.index("O")
    scores = np.array(
        [
            [1.0, 0.9, -5.0],
            [0.0, -1.0, 2.0],
            [0.0, -1.0, 2.0],
        ]
    )
    raw = [int(k) for k in scores.argmax(axis=1)]
    path = nertag.viterbi_decode(scores, wrk)
    report(
        2,
        "Viterbi validity and dominance over greedy on 10000 matrices",
        [
            ("all outputs BIO-valid", valid),
            ("path score >= greedy-repaired score", dominant),
            ("scenario: raw argmax is invalid", raw == [o, i, i] and not wrk.is_valid_sequence(raw)),
            ("scenario: decoder returns B-wrk I-wrk I-wrk", path == [b, i, i]),
        ],
    )


def test_criterion_3_focal_loss():
    rng = np.random.default_rng(2)

    ce_matches = True
    for _ in range(50):
        z = rng.normal(size=5)
        p = np.exp(z - z.max())
        p /= p.sum()
        gold = int(rng.integers(5))
        loss, grad = nertag.focal_loss(p, gold, 0.0)
        ce_matches = ce_matches and abs(loss - (-math.log(p[gold]))) < 1e-12
        onehot = np.eye(5)[gold]
        ce_matches = ce_matches and np.abs(grad - (p - onehot)).max() < 1e-12

    grads_match = True
    eps = 1e-6
    for _ in range(100):
        k = int(rng.integers(3, 9))
        z = rng.normal(size=k)
        gold = int(rng.integers(k))
        gamma = float(rng.uniform(0.0, 3.0))

        def loss_of(zz):
            e = np.exp(zz - zz.max())
            return nertag.focal_loss(e / e.sum(), gold, gamma)[0]

        e = np.exp(z - z.max())
        _, grad = nertag.focal_loss(e / e.sum(), gold, gamma)
        fd = np.zeros(k)
        for j in range(k):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            fd[j] = (loss_of(zp) - loss_of(zm)) / (2 * eps)
        denom = max(np.abs(fd).max(), 1e-8)
        grads_match = grads_match and np.abs(grad - fd).max() / denom < 1e-5

    value, _ = nertag.focal_loss(np.array([0.5, 0.5]), 0, 1.6)
    report(
        3,
        "focal loss: CE limit, analytic gradient, closed-form value",
        [
            ("gamma=0 equals cross-entropy to 1e-12", ce_matches),
            ("gradient matches central differences (1e-5 rel)", grads_match),
            ("gamma=1.6, p=0.5 -> 0.22866 +/- 1e-4", abs(value - 0.22866) < 1e-4),
        ],
    )


def test_criterion_4_randomized_svd():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(500, 8)) @ rng.normal(size=(8, 5000))
    m = cardbuild.SparseTopicDocMatrix(
        csc_of(A),
        [f"t{i}" for i in range(500)],
        [f"d{j}" for j in range(5000)],
    )
    start = time.perf_counter()
    cfg64 = cardbuild.SvdConfig(
        rank=8, oversampling=4, power_iterations=1, batch_size=64, seed=0
    )
    tv, dv, sig, peak = cardbuild.batched_randomized_svd(m, cfg64)
    rel_err = np.linalg.norm(A - tv @ dv.T) / np.linalg.norm(A)
    cfg_full = cardbuild.SvdConfig(
        rank=8, oversampling=4, power_iterations=1, batch_size=5000, seed=0
    )
    tv2, dv2, sig2, _ = cardbuild.batched_randomized_svd(m, cfg_full)
    elapsed = time.perf_counter() - start
    invariance = max(
        float(np.abs(tv - tv2).max()),
        float(np.abs(dv - dv2).max()),
        float(np.abs(sig - sig2).max()),
    )
    report(
        4,
        "batched randomized SVD: recovery, batch invariance, memory, runtime",
        [
            ("rank-8 relative Frobenius error <= 1e-6", rel_err <= 1e-6),
            ("batch 64 vs full within 1e-8", invariance <= 1e-8),
            # peak is the SVD's up-front working-bytes bound; test_cardbuild's
            # test_working_bytes_bound_tracemalloc checks it against tracemalloc
            ("peak accounted bytes within budget", 0 < peak <= cfg64.memory_budget),
            ("runtime < 30 s", elapsed < 30.0),
        ],
    )


def test_criterion_5_bm25():
    worked = cardbuild.bm25_weight(2, 10, 10.0, 1, 10)

    doc_stats = {
        "d1": {"length": 10, "tf": {"alpha": 2, "gamma": 1}},
        "d2": {"length": 20, "tf": {"alpha": 1, "beta": 3}},
        "d3": {"length": 15, "tf": {"gamma": 2}},
    }

    def hand(tf, dl, df):
        idf = math.log(1.0 + (3 - df + 0.5) / (df + 0.5))
        return idf * tf * 2.2 / (tf + 1.2 * (1.0 - 0.75 + 0.75 * dl / 15.0))

    m = cardbuild.build_matrix(["alpha", "beta", "gamma"], doc_stats)
    dense = dense_of(m.matrix)
    expected = np.zeros((3, 3))
    cells = [
        ("alpha", "d1", hand(2, 10, 2)),
        ("alpha", "d2", hand(1, 20, 2)),
        ("beta", "d2", hand(3, 20, 1)),
        ("gamma", "d1", hand(1, 10, 2)),
        ("gamma", "d3", hand(2, 15, 2)),
    ]
    for t, d, v in cells:
        expected[m.topic_keys.index(t), m.doc_ids.index(d)] = v
    report(
        5,
        "BM25 matches hand-computed oracle",
        [
            ("3-doc oracle table within 1e-9", bool(np.abs(dense - expected).max() <= 1e-9)),
            ("worked example 2.7396 +/- 1e-3", abs(worked - 2.7396) <= 1e-3),
        ],
    )


def test_criterion_6_ranker_direction(fixture_ranker):
    train = make_ranker_rows(300, seed=20)
    valid = make_ranker_rows(200, seed=21)
    model = topicrank.train_gbdt(train, topicrank.GbdtConfig(num_trees=60))
    labels = [y for _, y in valid]
    gbdt_auc = topicrank.auc([topicrank.score_topic(model, f) for f, _ in valid], labels)
    base_auc = topicrank.auc([f[topicrank.FEATURE_NAMES.index("ner_freq")] for f, _ in valid], labels)

    # "Company"-signature candidate: very frequent, but ~1 mention per document
    store = topicrank.CandidateStore()
    for i in range(4):
        ms = [
            topicrank_mention("Falcon", f"g{i}") for _ in range(3)
        ]
        store.accumulate(ms, corpus.Document(f"g{i}", "T", "B", "u", 0))
    for i in range(60):
        store.accumulate(
            [topicrank_mention("Company", f"n{i}")], corpus.Document(f"n{i}", "T", "B", "u", 0)
        )
    keys = topicrank.shortlist(store, 10)
    ranked = topicrank.rerank_and_filter(keys, store, fixture_ranker, None, 0.5)
    report(
        6,
        "GBDT beats frequency baseline; company-signature candidate filtered",
        [
            ("validation AUC exceeds ner_frequency baseline by >= 0.1", gbdt_auc >= base_auc + 0.1),
            ("quality topic survives the score filter", "falcon||product" in ranked.keys()),
            ("company-signature candidate filtered", "company||product" not in ranked.keys()),
        ],
    )


def topicrank_mention(surface, doc_id):
    return nertag.Mention(
        surface=surface,
        entity_type="product",
        from_title=False,
    )


def test_criterion_7_definition_pipeline():
    clf = defmine.RuleClassifier()
    statistics = (
        "Statistics is a branch of mathematics dealing with data collection, "
        "organization, analysis, interpretation, and presentation."
    )
    referential = (
        "This method is used to identifying a hyperplane which separates a "
        "positive class from the negative class."
    )
    personal = (
        "Tom is a Data Scientist at Acme Corporation working on natural "
        "language processing."
    )
    caterpillar = "The Caterpillar 797B is the biggest car I've ever seen."
    lexicon = defmine.load_negative_words()
    keep, reason = defmine.opinion_filter(caterpillar, lexicon)

    rows = make_definition_rows(500, seed=30)
    train, test = rows[:400], rows[400:]
    model = defmine.train_sentence_classifier(train, defmine.ClassifierConfig(seed=0))
    test_binary = binary_rows(test)
    rule_f1, _, _ = eval_rule_baseline(test_binary)
    preds = [
        1 if model.classify(t)[0] is defmine.DefinitionCategory.SUFFICIENT else 0
        for t, _ in test_binary
    ]
    trained_f1, _, _ = prf1(preds, [y for _, y in test_binary])
    report(
        7,
        "definition categories, opinion filter, rule < trained F1",
        [
            (
                "Statistics sentence -> Sufficient",
                clf.classify(statistics)[0] is defmine.DefinitionCategory.SUFFICIENT,
            ),
            (
                "This-method sentence -> Referential",
                clf.classify(referential)[0] is defmine.DefinitionCategory.REFERENTIAL,
            ),
            (
                "Tom sentence -> Personal",
                clf.classify(personal)[0] is defmine.DefinitionCategory.PERSONAL,
            ),
            ("Caterpillar sentence removed by opinion filter", not keep and reason == "biggest"),
            ("rule-baseline F1 strictly below trained F1", rule_f1 < trained_f1),
        ],
    )


@pytest.fixture(scope="module")
def e2e_config(planted_corpus, fixture_models_dir):
    path, _ = planted_corpus
    return pipeline.PipelineConfig(
        corpus_path=str(path),
        tagger_model=str(fixture_models_dir / "tagger.npz"),
        ranker_model=str(fixture_models_dir / "ranker.json"),
        final_top_k=50,
        min_topic_score=0.5,
        card_k=5,
        svd_rank=8,
        svd_oversampling=2,
        seed=0,
    )


def test_criterion_8_end_to_end(planted_corpus, e2e_config):
    _, meta = planted_corpus
    start = time.perf_counter()
    state, kb = pipeline.run_full(e2e_config)
    elapsed = time.perf_counter() - start

    cards_by_key = {c.key: c for c in kb.cards}
    alt_names = {a for c in kb.cards for a in c.alternate_names}
    found = 0
    for name, etype in PLANTED_TOPICS:
        key = topicrank.candidate_key(name, etype)
        if key in cards_by_key or name in alt_names:
            found += 1

    defs_ok = True
    for (name, etype) in PLANTED_TOPICS:
        if name not in PLANTED_DEFINITIONS:
            continue
        key = topicrank.candidate_key(name, etype)
        card = cards_by_key.get(key)
        defs_ok = defs_ok and card is not None and PLANTED_DEFINITIONS[name] in card.definitions

    # topic index t is owned by author t % 4
    people_ok = True
    for a_idx, author in enumerate(AUTHORS):
        owned = [
            topicrank.candidate_key(name, etype)
            for t, (name, etype) in enumerate(PLANTED_TOPICS)
            if t % len(AUTHORS) == a_idx
        ]
        people_ok = people_ok and any(
            author in [u for u, _ in cards_by_key[k].related_people]
            for k in owned
            if k in cards_by_key
        )

    report(
        8,
        "end-to-end planted corpus: topics, definitions, people, runtime",
        [
            ("at least 9 of 10 planted topics in the KB", found >= 9),
            ("all planted definitions on the correct cards", defs_ok),
            ("every author in related_people of one of their topics", people_ok),
            ("full run < 60 s", elapsed < 60.0),
        ],
    )


def test_criterion_9_incremental_equivalence_and_compliance(
    planted_corpus, e2e_config, tmp_path
):
    corpus_path, meta = planted_corpus
    models = pipeline.Models.load(e2e_config)
    docs, _ = corpus.ingest_jsonl(corpus_path)

    # replay the whole corpus as upserts
    state = pipeline.PipelineState()
    for doc in docs:
        pipeline.apply_update(
            state, pipeline.UpdateEvent(kind="upsert", document=doc), models
        )

    # delete 20 documents, including at least two with planted definitions
    def_docs = sorted(meta["definition_docs"].values())[:2]
    others = [d.doc_id for d in docs if d.doc_id not in def_docs][:18]
    deleted = def_docs + others
    for doc_id in deleted:
        pipeline.apply_update(
            state, pipeline.UpdateEvent(kind="delete", doc_id=doc_id), models
        )

    # fresh batch run on the reduced corpus
    reduced_path = tmp_path / "reduced.jsonl"
    with open(corpus_path, "r", encoding="utf-8") as src, open(
        reduced_path, "w", encoding="utf-8"
    ) as dst:
        for line in src:
            if json.loads(line)["doc_id"] not in deleted:
                dst.write(line)
    reduced_cfg = pipeline.PipelineConfig(
        **{**e2e_config.__dict__, "corpus_path": str(reduced_path)}
    )
    fresh_state, _ = pipeline.run_full(reduced_cfg)

    counters_equal = state.store.snapshot() == fresh_state.store.snapshot()
    ranking_equal = (
        pipeline.rank_refresh(state, e2e_config, models).entries
        == pipeline.rank_refresh(fresh_state, reduced_cfg, models).entries
    )

    # export from the streamed state and scan every file for deleted text
    kb = pipeline.build_knowledge_base(state, e2e_config, models)
    out = tmp_path / "kb"
    pipeline.export_kb(kb, out)
    blob = b"".join(p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file())
    forbidden = [doc_id.encode() for doc_id in deleted]
    for doc_id in deleted:
        idx = int(doc_id.removeprefix("doc"))
        forbidden.append(f"ticket number {9000 + idx}".encode())
        for topic, ddoc in meta["definition_docs"].items():
            if ddoc == doc_id:
                forbidden.append(PLANTED_DEFINITIONS[topic].encode())
    leaked = [f.decode() for f in forbidden if f in blob]

    report(
        9,
        "incremental equivalence after 20 deletions; no deleted text exported",
        [
            ("candidate counters identical to fresh reduced run", counters_equal),
            ("ranked topic list identical to fresh reduced run", ranking_equal),
            ("no exported file contains deleted text", leaked == []),
        ],
    )
