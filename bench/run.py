"""kbmine benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload update_replay --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory, never from an installed copy. Workloads
(closed loop, one client, one single-threaded process):

  update_replay  kbmine update + kbmine export: 1000 upsert/delete events
                 against the saved state of a 1000-doc planted corpus, fixture
                 tagger and GBDT ranker: extraction plus ledger removal and
                 state load/save.
  export_wide    kbmine export of a state with 1000 distinct topics over
                 3000 short docs, external tag scores, no ranker: card
                 assembly dominates and extraction does not run.

Each invocation generates its inputs from --seed (bench/gen.py), builds
the program-produced artifacts untimed in a child process, runs the
workload's CLI path in one fresh process until --seconds of timed work is
done and checks its outputs, and times set-up (import kbmine +
Models.load) in fresh processes before and after that one. --trace 1 alternates untraced and traced
iterations and reports per-layer metrics from the traced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics traced). The lines
before it give every metric with its unit and sample count, the checks,
the output digest, the environment and the workload sizes. Full reports
and trace spans go to bench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DEADLINE_S = 170.0  # whole invocation, below the 180 s limit
# fresh processes timing import + Models.load, half before and half after
# the measuring process (which times it once more), so that the median
# samples the machine over the whole run
SETUP_PROBES = 4

WORKLOADS = {
    "update_replay": {"docs": 1000, "events": 1000},
    "export_wide": {"topics": 1000, "docs": 3000, "authors": 60, "topics_per_doc": 5, "zipf": 0.8},
}

# setup_s: median over fresh processes of import kbmine + Models.load.
# wall_rel: wall_s divided by ref_s, i.e. the workload's time in units of a
#   fixed reference kernel (worker.reference_work) run in the same process
#   for REF_SHARE of each untraced iteration's time, just before it. On a
#   shared 2-vCPU VM the CPU's speed drifts by 30-50% within minutes, so raw
#   times of runs a few minutes apart disagree by more than a useful bound;
#   the kernel slows with the workload, and the ratio agrees far better.
# peak_rss_mb: ru_maxrss of the measuring process after its last iteration.
END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "x", "peak_rss_mb": "MB"}

# Printed beside the end-to-end metrics, not gated:
# wall_s: mean untraced iteration time from the first input read to the
#   exported directory in place (timed seconds over iterations; the mean,
#   not the median, since iteration times swing by +-25% and the run-long
#   average is the steadier figure).
# ref_s: mean time of one unit of the reference kernel, run for a share of
#   each untraced iteration's time just before it.
RAW_UNITS = {"wall_s": "s", "ref_s": "s"}

# Every *_s below is a sum of span self times (bench/tracing.py names the
# spans behind each). Counts are per traced iteration. split_calls_per_doc
# divides split_sentences calls by the live documents at the end; filtered
# is shortlisted topics that did not make the ranked list; merged_topics is
# ranked topics minus cards; state_bytes_per_doc is the state directory
# size over live documents. events_per_s (read-and-apply phase) and the
# upsert latency percentiles (apply_update per upsert, pooled over
# iterations) come from untraced iterations. overhead_s is the traced minus
# the untraced mean wall_s of the same run.
PER_LAYER_UNITS = {
    "corpus.split_s": "s",
    "corpus.split_calls_per_doc": "count",
    "corpus.tokenize_s": "s",
    "corpus.ingest_s": "s",
    "nertag.score_s": "s",
    "nertag.viterbi_s": "s",
    "nertag.extract_s": "s",
    "nertag.sentences": "count",
    "nertag.tokens": "count",
    "nertag.mentions": "count",
    "defmine.mine_s": "s",
    "defmine.definitions": "count",
    "pipeline.extract_self_s": "s",
    "topicrank.accumulate_s": "s",
    "topicrank.remove_s": "s",
    "topicrank.candidates": "count",
    "topicrank.rank_s": "s",
    "topicrank.filtered": "count",
    "pipeline.build_self_s": "s",
    "cardbuild.topk_s": "s",
    "cardbuild.topk_calls": "count",
    "cardbuild.card_s": "s",
    "cardbuild.rerank_s": "s",
    "cardbuild.cards": "count",
    "cardbuild.conflate_s": "s",
    "cardbuild.merged_topics": "count",
    "cardbuild.matrix_s": "s",
    "cardbuild.matrix_nnz": "count",
    "cardbuild.svd_s": "s",
    "cardbuild.svd_peak_bytes": "bytes",
    "cardbuild.acronym_s": "s",
    "cardbuild.users_s": "s",
    "pipeline.state_load_s": "s",
    "pipeline.state_save_s": "s",
    "pipeline.state_bytes_per_doc": "bytes",
    "pipeline.export_s": "s",
    "pipeline.export_bytes": "bytes",
    "pipeline.events_per_s": "1/s",
    "pipeline.upsert_p50_ms": "ms",
    "pipeline.upsert_p99_ms": "ms",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def write_inputs(workload: str, seed: int, sizes: dict, work: Path) -> dict:
    """Generate the workload's inputs into work/; returns what the checks
    expect, and the number of documents each iteration should ingest."""
    if workload == "export_wide":
        docs, scores = gen.wide_corpus(
            sizes["topics"], sizes["docs"], sizes["authors"], sizes["topics_per_doc"],
            sizes["zipf"], seed,
        )
        gen.write_jsonl(work / "wide.jsonl", docs)
        gen.write_jsonl(work / "scores.jsonl", scores)
        return {"expected": {}, "expected_docs": len(docs)}

    docs, definition_docs = gen.planted_corpus(sizes["docs"], seed)
    gen.write_jsonl(work / "corpus.jsonl", docs)
    gen.write_jsonl(work / "tagger_rows.jsonl", gen.tagger_training_rows())
    gen.write_jsonl(work / "ranker_rows.jsonl", gen.ranker_training_rows(seed))
    events, outcome = gen.update_events(docs, definition_docs, sizes["events"], seed)
    gen.write_jsonl(work / "events.jsonl", events)
    gen.write_jsonl(work / "final.jsonl", outcome["final_docs"])
    forbidden = []
    for doc_id in outcome["deleted"]:
        forbidden += [doc_id, gen.ticket_marker(int(doc_id.removeprefix("doc")))]
    # a deleted or edited definition document takes its definition with it
    touched = set(outcome["deleted"]) | set(outcome["edited"])
    kept = {}
    for topic, doc_id in definition_docs.items():
        if doc_id in touched:
            forbidden.append(gen.PLANTED_DEFINITIONS[topic])
        else:
            kept[topic] = gen.PLANTED_DEFINITIONS[topic]
    expected = {
        "final_ids": [d["doc_id"] for d in outcome["final_docs"]],
        "forbidden": forbidden,
        "planted_topics": gen.PLANTED_TOPICS,
        "definitions": kept,
        "authors": gen.AUTHORS,
    }
    return {"expected": expected, "expected_docs": len(outcome["final_docs"])}


def child(mode: str, spec: dict, work: Path, start: float) -> str:
    """Run bench/worker.py in a fresh process inside work/; return stdout."""
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    remaining = DEADLINE_S - (time.monotonic() - start)
    if remaining <= 0:
        raise BenchError(f"out of time before {mode}")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, "spec.json"],
            cwd=work, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() kills and waits for the child
        raise BenchError(f"{mode} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return proc.stdout


def setup_probe(spec: dict, work: Path, start: float) -> float:
    return json.loads(child("setup", spec, work, start))["setup_s"]


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(m: dict, setup: list[float]) -> dict:
    """Every metric this run measured: name -> (value, unit, sample count).
    End-to-end metrics come from untraced iterations only, per-layer
    times and counts from traced ones."""
    plain = [it for it in m["iterations"] if not it["traced"]]
    traced = [it for it in m["iterations"] if it["traced"]]
    wall = statistics.mean([it["wall_s"] for it in plain])
    ref = sum(it["ref_s"] for it in plain) / sum(it["ref_units"] for it in plain)
    out = {
        "setup_s": (median(setup), len(setup)),
        "wall_rel": (wall / ref, len(plain)),
        "wall_s": (wall, len(plain)),
        "ref_s": (ref, sum(it["ref_units"] for it in plain)),
    }
    if not traced:  # a traced process holds its spans, so its RSS is not the program's
        out["peak_rss_mb"] = (m["peak_rss_mb"], 1)
    for name in traced[0]["layers"] if traced else ():
        out[name] = (median([it["layers"][name] for it in traced]), len(traced))
    rates = [it["events_per_s"] for it in plain if "events_per_s" in it]
    out["pipeline.events_per_s"] = (median(rates), len(rates))
    ups = m.get("upsert_ms", {"p50": 0.0, "p99": 0.0, "n": 0})
    out["pipeline.upsert_p50_ms"] = (ups["p50"], ups["n"])
    out["pipeline.upsert_p99_ms"] = (ups["p99"], ups["n"])
    if traced:
        out["trace.overhead_s"] = (
            statistics.mean([it["wall_s"] for it in traced]) - wall, min(len(traced), len(plain))
        )
    units = {**END_TO_END_UNITS, **RAW_UNITS, **PER_LAYER_UNITS}
    return {k: (v, units[k], n) for k, (v, n) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    start = time.monotonic()
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "kbmine" / "__init__.py").is_file():
        print(f"error: no kbmine package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sizes = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        spec = {"workload": args.workload, "seed": args.seed, "sizes": sizes}
        spec.update(write_inputs(args.workload, args.seed, sizes, work))
        child("prepare", spec, work, start)
        setup = [setup_probe(spec, work, start) for _ in range(SETUP_PROBES // 2)]
        child("measure", {
            **spec, "seconds": args.seconds, "trace": args.trace,
            "spans_path": str(results / f"{tag}.spans.jsonl"),
        }, work, start)
        m = json.loads((work / "measure.json").read_text(encoding="utf-8"))
        setup += [setup_probe(spec, work, start) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(m["setup_s"])

    metrics = summarize(m, setup)
    reported = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    merged = m["n_topics"] - m["n_cards"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "env": m["env"],
        "iterations": m["iterations"],
        "checks": m["checks"],
        "digest": m["digest"],
        "cards": m["n_cards"],
        "ranked_topics": m["n_topics"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"kbmine bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env    " + json.dumps(m["env"], sort_keys=True))
    print("sizes  " + json.dumps(sizes, sort_keys=True))
    for name, ok in m["checks"]:
        print(f"check  {'ok  ' if ok else 'FAIL'} {name}")
    print(f"verdict {'correct' if m['failed'] == 0 else 'INCORRECT'}: "
          f"{m['failed']} of {m['attempted']} operations failed "
          f"(error_rate {m['failed'] / m['attempted']:.6f}; docs, events and checks)")
    print(f"digest sha256:{m['digest']}")
    print(f"cards  {m['n_cards']} cards from {m['n_topics']} ranked topics, "
          f"{merged} merged into other cards by conflation")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name:<28} {value:>16.6f} {unit:<6} n={n}")
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items() if k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
