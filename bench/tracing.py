"""Span tracing around kbmine's public functions, from outside the program.

A Tracer patches each traced function in every namespace that binds it
(module attribute, class attribute, or a name imported by another module),
records one span per call (name, start, end, parent, run id) in memory,
and restores the originals when it is uninstalled. Per-layer metrics are
sums of span self times: a span's duration minus the time its direct
children cover. Calls in the traced code are single-threaded and nested,
so direct children never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, owner attribute or None, function name): span name is
# "<module>.<function>", or "<module>.<Owner>.<function>" for methods.
# Each entry lists every namespace that binds the function.
TRACED = [
    ("corpus", None, "ingest_jsonl"),
    ("corpus", None, "split_sentences"),
    ("defmine", None, "split_sentences"),  # bound by name in defmine
    ("corpus", None, "tokenize"),
    ("nertag", None, "score_tokens"),
    ("nertag", None, "viterbi_decode"),
    ("nertag", None, "extract_mentions"),
    ("defmine", None, "mine_definitions"),
    ("topicrank", "CandidateStore", "accumulate"),
    ("topicrank", "CandidateStore", "remove_doc"),
    ("topicrank", None, "shortlist"),
    ("topicrank", None, "rerank_and_filter"),
    ("cardbuild", None, "build_matrix"),
    ("cardbuild", None, "batched_randomized_svd"),
    ("cardbuild", None, "build_user_vectors"),
    ("cardbuild", None, "extract_acronym_aliases"),
    ("cardbuild", None, "conflate_all"),
    ("cardbuild", None, "build_card"),
    ("cardbuild", None, "top_k_related"),
    ("cardbuild", None, "rerank_related_docs"),
    ("pipeline", None, "run_full"),
    ("pipeline", None, "apply_update"),
    ("pipeline", None, "rank_refresh"),
    ("pipeline", None, "build_knowledge_base"),
    ("pipeline", None, "export_kb"),
    ("pipeline", "PipelineState", "process_document"),
    ("pipeline", "PipelineState", "remove_document"),
    ("pipeline", "PipelineState", "save"),
    ("pipeline", "PipelineState", "load"),
]

# the module that defines a function bound by name elsewhere
_DEFINED_IN = {("defmine", "split_sentences"): "corpus"}

# per-layer time metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "corpus.split_s": ["corpus.split_sentences"],
    "corpus.tokenize_s": ["corpus.tokenize"],
    "corpus.ingest_s": ["corpus.ingest_jsonl"],
    "nertag.score_s": ["nertag.score_tokens"],
    "nertag.viterbi_s": ["nertag.viterbi_decode"],
    "nertag.extract_s": ["nertag.extract_mentions"],
    "defmine.mine_s": ["defmine.mine_definitions"],
    "pipeline.extract_self_s": ["pipeline.PipelineState.process_document"],
    "topicrank.accumulate_s": ["topicrank.CandidateStore.accumulate"],
    "topicrank.remove_s": ["topicrank.CandidateStore.remove_doc"],
    "topicrank.rank_s": [
        "pipeline.rank_refresh", "topicrank.shortlist", "topicrank.rerank_and_filter",
    ],
    "pipeline.build_self_s": ["pipeline.build_knowledge_base"],
    "cardbuild.matrix_s": ["cardbuild.build_matrix"],
    "cardbuild.svd_s": ["cardbuild.batched_randomized_svd"],
    "cardbuild.users_s": ["cardbuild.build_user_vectors"],
    "cardbuild.acronym_s": ["cardbuild.extract_acronym_aliases"],
    "cardbuild.conflate_s": ["cardbuild.conflate_all"],
    "cardbuild.card_s": ["cardbuild.build_card"],
    "cardbuild.topk_s": ["cardbuild.top_k_related"],
    "cardbuild.rerank_s": ["cardbuild.rerank_related_docs"],
    "pipeline.state_load_s": ["pipeline.PipelineState.load"],
    "pipeline.state_save_s": ["pipeline.PipelineState.save"],
    "pipeline.export_s": ["pipeline.export_kb"],
}


def _span_name(module: str, owner: str | None, func: str) -> str:
    module = _DEFINED_IN.get((module, func), module)
    return f"{module}.{owner}.{func}" if owner else f"{module}.{func}"


class Tracer:
    """Records spans while installed; install() and uninstall() patch and
    restore the traced functions."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            self.counts[name] += 1
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self, run_id: str) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        self.counts = Counter()  # call and item counts of this run only
        for module, owner, func in TRACED:
            ns = getattr(self.package, module)
            if owner:
                ns = getattr(ns, owner)
            raw = ns.__dict__[func] if owner else getattr(ns, func)
            name = _span_name(module, owner, func)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((ns, func, raw))
            setattr(ns, func, patched)

    def uninstall(self) -> None:
        while self._saved:
            ns, func, raw = self._saved.pop()
            setattr(ns, func, raw)

    def self_times(self, run_id: str) -> dict[str, float]:
        """Self time per span name, over the spans of one run."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                out[name] += (end - start) - child_time.get(idx, 0.0)
        return out

    def layer_times(self, run_id: str) -> dict[str, float]:
        selfs = self.self_times(run_id)
        return {
            metric: sum(selfs.get(n, 0.0) for n in names)
            for metric, names in SELF_TIME_METRICS.items()
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "run": rid}
                    )
                    + "\n"
                )


def _count_len(key: str):
    def count(counts: Counter, result) -> None:
        counts[key] += len(result)

    return count


def _count_ranked(counts: Counter, result) -> None:
    counts["ranked"] += len(result.entries)


def _count_matrix(counts: Counter, result) -> None:
    counts["matrix_nnz"] += result.matrix.nnz


_COUNTERS = {
    "nertag.viterbi_decode": _count_len("tokens"),
    "nertag.extract_mentions": _count_len("mentions"),
    "defmine.mine_definitions": _count_len("definitions"),
    "topicrank.shortlist": _count_len("shortlisted"),
    "pipeline.rank_refresh": _count_ranked,
    "cardbuild.build_matrix": _count_matrix,
}
