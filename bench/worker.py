"""Child-process side of the benchmark: everything that imports kbmine.

    python3 bench/worker.py prepare|setup|measure spec.json

It runs with its working directory set to one workload's work directory,
so every path the pipeline sees (and hashes into config_hash and run_id)
is the same fixed relative name on every run. `prepare` builds the
artifacts the program under test produces (fixture models, starting
states, reference runs), untimed. `setup` times `import kbmine` plus
`Models.load` in a fresh process. `measure` loads the models once, then
repeats the workload's CLI path until --seconds of timed work is done,
timing a fixed reference kernel before each untraced iteration, checks
the outputs, and writes measure.json.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _kbmine():
    sys.path.insert(0, str(ROOT / "src"))
    import kbmine.pipeline  # noqa: F401  (imports every layer)

    return sys.modules["kbmine"]


def make_config(pipeline, workload: str, sizes: dict, corpus_path: str = "final.jsonl"):
    if workload == "export_wide":
        return pipeline.PipelineConfig(
            corpus_path="wide.jsonl",
            output_dir="kb",
            score_file="scores.jsonl",
            entity_types=("product",),
            shortlist_n=sizes["topics"],
            final_top_k=sizes["topics"],
            card_k=5,
            seed=0,
        )
    return pipeline.PipelineConfig(
        corpus_path=corpus_path,
        output_dir="kb",
        tagger_model="tagger.npz",
        ranker_model="ranker.json",
        final_top_k=50,
        min_topic_score=0.5,
        card_k=5,
        svd_rank=8,
        svd_oversampling=2,
        seed=0,
    )


def _read_jsonl(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# prepare: program-produced artifacts, rebuilt by the commit under test
# ---------------------------------------------------------------------------


def prepare(spec: dict) -> None:
    kb = _kbmine()
    pipeline, nertag, topicrank = kb.pipeline, kb.nertag, kb.topicrank
    workload, seed, sizes = spec["workload"], spec["seed"], spec["sizes"]
    cfg = make_config(pipeline, workload, sizes)
    if workload == "export_wide":
        models = pipeline.Models.load(cfg)
        docs, errors = kb.corpus.ingest_jsonl(cfg.corpus_path)
        if errors:
            raise ValueError(f"wide corpus has {len(errors)} bad lines")
        state = pipeline.PipelineState()
        for doc in docs:
            pipeline.apply_update(state, pipeline.UpdateEvent(kind="upsert", document=doc), models)
        state.save("state")
        return

    rows = [nertag.LabeledSentence(t, lab) for t, lab in _read_jsonl("tagger_rows.jsonl")]
    tagger = nertag.train_tagger(
        rows,
        nertag.TrainConfig(gamma=1.6, epochs=8, learning_rate=0.5, seed=seed, hash_dim=1 << 16),
    )
    tagger.save(cfg.tagger_model)
    ranker_rows = []
    for (ner, doc, title), label in _read_jsonl("ranker_rows.jsonl"):
        cand = topicrank.TopicCandidate(
            key="k", norm_surface="k", entity_type="product",
            ner_frequency=ner, document_frequency=doc, title_frequency=title,
        )
        ranker_rows.append((topicrank.compute_features(cand), label))
    topicrank.train_gbdt(ranker_rows, topicrank.GbdtConfig(seed=seed)).save(cfg.ranker_model)

    state, _ = pipeline.run_full(make_config(pipeline, workload, sizes, "corpus.jsonl"))
    state.save("state_start")
    state, kbase = pipeline.run_full(cfg)  # reference: batch run of the final corpus
    state.save("ref_state")
    pipeline.export_kb(kbase, "ref_kb")


# ---------------------------------------------------------------------------
# setup: import plus model load in a fresh process
# ---------------------------------------------------------------------------


def setup(spec: dict) -> None:
    start = time.perf_counter()
    kb = _kbmine()
    kb.pipeline.Models.load(make_config(kb.pipeline, spec["workload"], spec["sizes"]))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


# ---------------------------------------------------------------------------
# measure: the timed CLI paths
# ---------------------------------------------------------------------------


REF_SHARE = 0.15  # reference kernel time per iteration, as a share of its wall time


def reference_work(budget_s: float) -> tuple[float, int]:
    """Run units of a fixed piece of work, shaped like kbmine's hot paths
    but independent of kbmine, until budget_s has passed (at least one);
    return (seconds, units). A unit is Viterbi decoding of short sequences
    with small NumPy arrays plus string keys counted in a dict. wall_rel
    divides wall time by the time per unit, so that the speed swings of a
    shared CPU cancel out. Frozen: changing it changes every wall_rel."""
    import numpy as np

    rng = np.random.default_rng(0)
    emissions = rng.standard_normal((800, 9, 5))
    transitions = rng.standard_normal((5, 5))
    counts: dict[str, int] = {}
    units = 0
    start = time.perf_counter()
    while units == 0 or time.perf_counter() - start < budget_s:
        for seq in emissions:
            score = seq[0].copy()
            back = []
            for step in seq[1:]:
                cand = score[:, None] + transitions
                back.append(cand.argmax(axis=0))
                score = cand.max(axis=0) + step
            path = [int(score.argmax())]
            for pointers in reversed(back):
                path.append(int(pointers[path[-1]]))
            for w in range(12):
                key = f"w={w}|lab={path[w % len(path)]}"
                counts[key] = counts.get(key, 0) + 1
        units += 1
    return time.perf_counter() - start, units


def run_update(kb, cfg, models) -> dict:
    """kbmine update, then kbmine export: state load -> read_events /
    apply_update -> save; state load -> build_knowledge_base -> export_kb."""
    pipeline = kb.pipeline
    start = time.perf_counter()
    state = pipeline.PipelineState.load("state")
    latencies, n_events, failed = [], 0, 0
    apply_start = time.perf_counter()
    for event in pipeline.read_events("events.jsonl"):
        if event.kind == "delete" and event.doc_id not in state.documents:
            failed += 1
        t = time.perf_counter()
        pipeline.apply_update(state, event, models)
        if event.kind == "upsert":
            latencies.append(time.perf_counter() - t)
        n_events += 1
    apply_s = time.perf_counter() - apply_start
    state.save("state")
    state = pipeline.PipelineState.load("state")
    kbase = pipeline.build_knowledge_base(state, cfg, models)
    pipeline.export_kb(kbase, "kb")
    return {
        "wall_s": time.perf_counter() - start,
        "state": state,
        "kb": kbase,
        "events": n_events,
        "failed_events": failed,
        "apply_s": apply_s,
        "upsert_latencies": latencies,
    }


def run_export(kb, cfg, models) -> dict:
    """kbmine export: state load -> build_knowledge_base -> export_kb."""
    pipeline = kb.pipeline
    start = time.perf_counter()
    state = pipeline.PipelineState.load("state")
    kbase = pipeline.build_knowledge_base(state, cfg, models)
    pipeline.export_kb(kbase, "kb")
    return {"wall_s": time.perf_counter() - start, "state": state, "kb": kbase}


RUNNERS = {"update_replay": run_update, "export_wide": run_export}


def reset(workload: str) -> None:
    """Untimed: every iteration starts from the same files."""
    for d in ("kb", "kb.staging", "kb.old"):
        shutil.rmtree(d, ignore_errors=True)
    if workload == "update_replay":
        shutil.rmtree("state", ignore_errors=True)
        shutil.copytree("state_start", "state")


def tree_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def output_digest(out_dir: str) -> str:
    """sha256 over every exported file (cards, embeddings, indexes,
    manifest) by relative path; the manifest's timestamp is left out."""
    h = hashlib.sha256()
    root = Path(out_dir)
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        rel = p.relative_to(root).as_posix()
        data = p.read_bytes()
        if rel == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timestamp", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def load_cards(out_dir: str) -> tuple[dict, dict]:
    root = Path(out_dir)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    cards = {}
    for key, rel in manifest["cards"].items():
        cards[key] = json.loads((root / rel).read_text(encoding="utf-8"))
    return manifest, cards


def _descending(pairs) -> bool:
    scores = [s for _, s in pairs]
    return all(a >= b for a, b in zip(scores, scores[1:]))


def export_checks(kb, out_dir: str, card_k: int) -> list[tuple[str, bool]]:
    """Structure every export must have, whatever the workload."""
    manifest, cards = load_cards(out_dir)
    files = {p.name for p in (Path(out_dir) / "cards").iterdir()}
    lists_ok = self_ok = True
    for key, card in cards.items():
        for field in ("related_topics", "related_docs", "related_people"):
            pairs = card[field]
            lists_ok = lists_ok and len(pairs) <= card_k and _descending(pairs)
        self_ok = self_ok and key not in [k for k, _ in card["related_topics"]]
    shapes_ok = True
    dims = set()
    for name, expect in (
        ("topics.emb", manifest["n_topics"]),
        ("docs.emb", manifest["n_documents"]),
        ("users.emb", None),
    ):
        ids, matrix, _ = kb.cardbuild.read_embeddings(Path(out_dir) / name)
        dims.add(matrix.shape[1])
        shapes_ok = shapes_ok and matrix.shape[0] == len(ids) == len(set(ids))
        shapes_ok = shapes_ok and None not in ids and (expect is None or len(ids) == expect)
    return [
        ("every card file listed in the manifest", len(files) == len(cards)),
        ("related lists sorted, at most card_k long", lists_ok),
        ("no card relates to itself", self_ok),
        ("embeddings read back with the manifest's shapes", shapes_ok and len(dims) == 1),
    ]


def planted_checks(kb, out_dir: str, expected: dict) -> list[tuple[str, bool]]:
    """Planted topics, definitions and authors, as acceptance criterion 8.
    Only definitions whose document no delete or edit event touched are
    expected; the others are in expected["forbidden"]."""
    _, cards = load_cards(out_dir)
    key = kb.topicrank.candidate_key
    alt = {a for c in cards.values() for a in c["alternate_names"]}
    topics = expected["planted_topics"]
    found = sum(1 for name, etype in topics if key(name, etype) in cards or name in alt)
    etypes = dict(topics)
    defs_ok = all(
        key(name, etypes[name]) in cards
        and text in cards[key(name, etypes[name])]["definitions"]
        for name, text in expected["definitions"].items()
    )
    authors = expected["authors"]
    people_ok = all(
        any(
            author in [u for u, _ in cards[key(name, etype)]["related_people"]]
            for t, (name, etype) in enumerate(topics)
            if t % len(authors) == a and key(name, etype) in cards
        )
        for a, author in enumerate(authors)
    )
    return [
        ("at least 9 of 10 planted topics have cards", found >= 9),
        ("surviving planted definitions on the right cards", defs_ok),
        ("every author related to one of their topics", people_ok),
    ]


def _same_files(a: str, b: str) -> bool:
    def listing(root):
        root = Path(root)
        return {
            p.relative_to(root).as_posix(): p
            for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }

    la, lb = listing(a), listing(b)
    return la.keys() == lb.keys() and all(la[k].read_bytes() == lb[k].read_bytes() for k in la)


def update_checks(kb, state, out_dir: str, expected: dict) -> list[tuple[str, bool]]:
    """Replay equals the batch run of the final corpus; deleted text is gone."""
    ref = kb.pipeline.PipelineState.load("ref_state")
    ref_manifest, _ = load_cards("ref_kb")
    manifest, _ = load_cards(out_dir)
    for m in (ref_manifest, manifest):
        m.pop("timestamp", None)
    blob = b"".join(p.read_bytes() for p in sorted(Path(out_dir).rglob("*")) if p.is_file())
    leaked = [s for s in expected["forbidden"] if s.encode() in blob]
    return [
        ("live documents are the expected final corpus",
         sorted(state.documents) == sorted(expected["final_ids"])),
        ("store snapshot equals the batch run's", state.store.snapshot() == ref.store.snapshot()),
        ("cards and embeddings byte-identical to the batch run's", _same_files(out_dir, "ref_kb")),
        ("manifest equals the batch run's, timestamp aside", manifest == ref_manifest),
        ("no deleted id or marker, no removed definition exported", not leaked),
    ]


def wide_checks(kb, state, cfg, models, out_dir: str) -> list[tuple[str, bool]]:
    """Every ranked topic is a card or an alias of exactly one card."""
    _, cards = load_cards(out_dir)
    ranked = kb.pipeline.rank_refresh(state, cfg, models).keys()
    aliased = {}
    for card in cards.values():
        for name in card["alternate_names"]:
            aliased[name] = aliased.get(name, 0) + 1
    covered = all(
        k in cards or aliased.get(state.store.candidates[k].display_name, 0) == 1
        for k in ranked
    )
    return [
        ("ranked topics all present", len(ranked) == cfg.final_top_k),
        ("every ranked topic is a card or an alias of one card", covered),
    ]


def measure(spec: dict) -> None:
    from tracing import Tracer

    start = time.perf_counter()
    kb = _kbmine()
    workload, seconds, traced_run = spec["workload"], spec["seconds"], spec["trace"]
    cfg = make_config(kb.pipeline, workload, spec["sizes"])
    models = kb.pipeline.Models.load(cfg)
    setup_s = time.perf_counter() - start

    runner = RUNNERS[workload]
    tracer = Tracer(kb) if traced_run else None
    iterations, digests, latencies = [], [], []
    attempted = failed = 0
    timed = 0.0
    rec = None
    while True:
        traced = traced_run and len(iterations) % 2 == 1  # untraced first, then alternate
        run_id = f"{workload}-{spec['seed']}-{len(iterations)}"
        rec = None  # drop the previous iteration's state before the next one
        reset(workload)
        gc.collect()
        if not traced:
            last = [it["wall_s"] for it in iterations if not it["traced"]][-1:]
            ref_s, ref_units = reference_work(REF_SHARE * sum(last))
        if traced:
            tracer.install(run_id)
        try:
            rec = runner(kb, cfg, models)
        finally:
            if traced:
                tracer.uninstall()
        timed += rec["wall_s"]
        live = len(rec["state"].documents)
        it = {"traced": traced, "wall_s": rec["wall_s"]}
        if not traced:
            it.update(ref_s=ref_s, ref_units=ref_units)
        if "events" in rec:
            it["events_per_s"] = rec["events"] / rec["apply_s"]
            attempted += rec["events"]
            failed += rec["failed_events"]
            if not traced:
                latencies.extend(rec["upsert_latencies"])
        else:
            attempted += live
            failed += max(0, spec["expected_docs"] - live)
        if traced:
            it["layers"] = layer_metrics(tracer, run_id, rec)
        iterations.append(it)
        digests.append(output_digest("kb"))
        if timed >= seconds and (not traced_run or len(iterations) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = spec["expected"]
    checks = export_checks(kb, "kb", cfg.card_k)
    checks.append(("same output digest on every iteration", len(set(digests)) == 1))
    if workload == "update_replay":
        checks += update_checks(kb, rec["state"], "kb", expected)
        checks += planted_checks(kb, "kb", expected)
    else:
        checks += wide_checks(kb, rec["state"], cfg, models, "kb")
    attempted += len(checks)
    failed += sum(1 for _, ok in checks if not ok)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "iterations": iterations,
        "checks": checks,
        "digest": digests[-1],
        "attempted": attempted,
        "failed": failed,
        "n_cards": len(rec["kb"].cards),
        "n_topics": rec["kb"].manifest["n_topics"],
        "env": environment(),
    }
    if latencies:
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        result["upsert_ms"] = {"p50": q[49] * 1e3, "p99": q[98] * 1e3, "n": len(latencies)}
    if tracer is not None:
        tracer.write(Path(spec["spans_path"]))
    with open("measure.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def layer_metrics(tracer, run_id: str, rec: dict) -> dict:
    state, kbase, counts = rec["state"], rec["kb"], tracer.counts
    live = max(1, len(state.documents))
    out = tracer.layer_times(run_id)
    out.update(
        {
            "corpus.split_calls_per_doc": counts["corpus.split_sentences"] / live,
            "nertag.sentences": counts["nertag.viterbi_decode"],
            "nertag.tokens": counts["tokens"],
            "nertag.mentions": counts["mentions"],
            "defmine.definitions": counts["definitions"],
            "topicrank.candidates": len(state.store.candidates),
            "topicrank.filtered": counts["shortlisted"] - counts["ranked"],
            "cardbuild.topk_calls": counts["cardbuild.top_k_related"],
            "cardbuild.cards": len(kbase.cards),
            "cardbuild.merged_topics": kbase.manifest["n_topics"] - len(kbase.cards),
            "cardbuild.matrix_nnz": counts["matrix_nnz"],
            "cardbuild.svd_peak_bytes": kbase.manifest.get("svd_peak_bytes", 0),
            "pipeline.state_bytes_per_doc": tree_bytes("state") / live,
            "pipeline.export_bytes": tree_bytes("kb"),
        }
    )
    return out


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, if it is one."""
    import ctypes

    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas_threads = _blas_threads(numpy)
    except OSError:
        blas_threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    with open(sys.argv[2], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    {"prepare": prepare, "setup": setup, "measure": measure}[mode](spec)
