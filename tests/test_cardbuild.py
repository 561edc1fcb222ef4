import functools
import importlib.util
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import csc_of, dense_of
from kbmine import cardbuild
from kbmine.cardbuild import (
    CscMatrix,
    EmbeddingSpace,
    MemoryBudgetError,
    SparseTopicDocMatrix,
    SvdConfig,
    batched_randomized_svd,
    bm25_weight,
    build_matrix,
    build_user_vectors,
    conflate_all,
    extract_acronym_aliases,
    read_embeddings,
    rerank_related_docs,
    top_k_related,
    trigram_jaccard,
    user_embedding,
    write_embeddings,
)
from kbmine.topicrank import TopicCandidate, normalize_key

# bench/gen.py's word lists: export_wide's topics are "Brand Head" names
_GEN_SPEC = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py"
)
BENCH_GEN = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(BENCH_GEN)


def sparse(arr, prefix=("t", "d")):
    arr = np.asarray(arr, dtype=np.float64)
    return SparseTopicDocMatrix(
        csc_of(arr),
        [f"{prefix[0]}{i}" for i in range(arr.shape[0])],
        [f"{prefix[1]}{j}" for j in range(arr.shape[1])],
    )


def random_sparse(n_topics, n_docs, seed=0):
    """Topics x docs matrix with 3-5 nonzeros per document column."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(3, 6, size=n_docs)
    rows = np.concatenate([rng.choice(n_topics, c, replace=False) for c in counts])
    cols = np.repeat(np.arange(n_docs), counts)
    return SparseTopicDocMatrix(
        CscMatrix.from_coo(rng.random(len(rows)) + 0.1, rows, cols, (n_topics, n_docs)),
        [f"t{i}" for i in range(n_topics)],
        [f"d{j}" for j in range(n_docs)],
    )


def traced_svd(m, cfg):
    """(returned working bytes, tracemalloc peak) of an SVD run with the
    budget set to exactly those bytes. A first, untraced run gives the bytes
    and fills the interpreter's one-time caches (CPython's object
    freelists), which are not the SVD's working memory."""
    working = batched_randomized_svd(m, cfg)[3]
    exact = replace(cfg, memory_budget=working)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert batched_randomized_svd(m, exact)[3] == working
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return working, peak


def svd_run(m, cfg):
    """(factors, returned working bytes, batch size used) of an SVD run. The
    batch used is the column count of the first column window."""
    widths = []
    real = CscMatrix.columns

    def spy(self, start, stop):
        window = real(self, start, stop)
        widths.append(window.shape[1])
        return window

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CscMatrix, "columns", spy)
        tv, dv, sig, working = batched_randomized_svd(m, cfg)
    return (tv, dv, sig), working, widths[0]


def scanned_batch(m, cfg):
    """The largest batch up to the cap whose _working_bytes fits the budget,
    found by trying each one; None if not even batch 1 fits."""
    l = cfg.rank + cfg.oversampling
    for batch in range(min(cfg.batch_size, m.n_docs), 0, -1):
        need = cardbuild._working_bytes(m.matrix, l, cfg.rank, batch, cfg.power_iterations)
        if need <= cfg.memory_budget:
            return batch
    return None


# n_topics, n_docs, rank, oversampling, batch_size, power_iterations
SVD_GRID = [
    (60, 300, 5, 3, 32, 1),
    (1000, 3000, 16, 2, 1024, 1),
    (5000, 200, 16, 8, 64, 1),  # tall
    (2000, 500, 10, 5, 100, 2),  # tall
    (100, 600, 8, 4, 1, 1),  # wide, batch 1
    (100, 1000, 4, 1, 7, 0),  # wide
    (300, 2000, 16, 8, 2000, 0),  # single batch
    (800, 800, 20, 10, 800, 1),  # single batch
    (400, 1500, 8, 4, 256, 2),
]


class TestBm25:
    def test_worked_example(self):
        w = bm25_weight(2, 10, 10.0, 1, 10)
        assert w == pytest.approx(2.7396, abs=1e-3)
        # decomposition: idf = ln(1 + 9.5/1.5), tf part = 4.4/3.2
        assert w == pytest.approx(math.log(1 + 9.5 / 1.5) * (4.4 / 3.2), abs=1e-12)

    def test_idf_positive_when_term_everywhere(self):
        w = bm25_weight(1, 10, 10.0, 10, 10)
        assert 0 < w < 0.1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bm25_weight(0, 10, 10.0, 1, 10)
        with pytest.raises(ValueError):
            bm25_weight(1, 10, 10.0, 5, 4)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


class TestCscMatrix:
    @staticmethod
    def random_entries(rng, n_rows, n_cols):
        """COO entries, shuffled, of a random matrix with empty columns, a
        fully dense block and stored -0.0 values."""
        dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.3)
        dense[:, rng.random(n_cols) < 0.2] = 0.0
        r0, c0 = rng.integers(0, n_rows), rng.integers(0, n_cols)
        dense[r0 : r0 + 4, c0 : c0 + 4] = rng.normal(size=dense[r0 : r0 + 4, c0 : c0 + 4].shape)
        rows, cols = np.nonzero(dense)
        data = np.where(rng.random(len(rows)) < 0.1, -0.0, dense[rows, cols])
        order = rng.permutation(len(rows))
        return data[order], rows[order], cols[order]

    def test_products_equal_scipy_bitwise(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(11)
        for _ in range(150):
            n_rows, n_cols = (int(x) for x in rng.integers(1, 50, size=2))
            data, rows, cols = self.random_entries(rng, n_rows, n_cols)
            m = CscMatrix.from_coo(data, rows, cols, (n_rows, n_cols))
            ref = sp.csc_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
            assert np.array_equal(m.indptr, ref.indptr)
            assert np.array_equal(m.indices, ref.indices)
            assert np.array_equal(_bits(m.data), _bits(ref.data))
            l = int(rng.integers(1, 10))
            X = rng.normal(size=(n_cols, l))
            Q = rng.normal(size=(n_rows, l))
            start, stop = sorted(int(x) for x in rng.integers(0, n_cols + 1, size=2))
            window, ref_window = m.columns(start, stop), ref[:, start:stop]
            Xb = rng.normal(size=(stop - start, l))
            for got, want in [
                (m @ X, ref @ X),
                (m.tmatmul(Q), ref.T @ Q),
                (m.tmatmul(Q).T, Q.T @ ref),
                (window @ Xb, ref_window @ Xb),
                (window.tmatmul(Q), ref_window.T @ Q),
            ]:
                assert np.array_equal(_bits(got), _bits(want))
            by_row, ref_rows = m.transpose(), ref.tocsr()
            for i in range(n_rows):
                cols_i, values_i = by_row.column(i)
                want = ref_rows.getrow(i)
                assert np.array_equal(cols_i, want.indices)
                assert np.array_equal(_bits(values_i), _bits(want.data))

    def test_window_shares_the_entries(self):
        m = csc_of(np.arange(12.0).reshape(3, 4))
        window = m.columns(1, 10)
        assert window.shape == (3, 3) and window.nnz == 9
        assert np.shares_memory(window.data, m.data)
        assert np.shares_memory(window.indices, m.indices)
        assert np.array_equal(dense_of(window), np.arange(12.0).reshape(3, 4)[:, 1:])

    def test_from_coo_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="repeats"):
            CscMatrix.from_coo([1.0, 2.0], [0, 0], [1, 1], (2, 2))
        with pytest.raises(ValueError, match="outside"):
            CscMatrix.from_coo([1.0], [2], [0], (2, 2))
        with pytest.raises(ValueError, match="outside"):
            CscMatrix.from_coo([1.0], [0], [-1], (2, 2))
        with pytest.raises(ValueError, match="equally long"):
            CscMatrix.from_coo([1.0], [0, 1], [0], (2, 2))
        empty = CscMatrix.from_coo([], [], [], (2, 3))
        assert empty.nnz == 0 and list(empty.indptr) == [0, 0, 0, 0]
        assert np.array_equal(empty @ np.ones((3, 2)), np.zeros((2, 2)))


class TestBuildMatrix:
    DOC_STATS = {
        "d1": {"length": 10, "tf": {"alpha": 2, "gamma": 1}},
        "d2": {"length": 20, "tf": {"alpha": 1, "beta": 3}},
        "d3": {"length": 15, "tf": {"gamma": 2}},
    }

    @staticmethod
    def hand_bm25(tf, dl, df):
        # independent literal evaluation for the 3-doc toy corpus
        n, avgdl, k1, b = 3, 15.0, 1.2, 0.75
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))

    def test_matches_hand_table(self):
        m = build_matrix(["alpha", "beta", "gamma"], self.DOC_STATS)
        dense = dense_of(m.matrix)
        expected = np.zeros((3, 3))
        expected[m.topic_keys.index("alpha"), m.doc_ids.index("d1")] = self.hand_bm25(2, 10, 2)
        expected[m.topic_keys.index("alpha"), m.doc_ids.index("d2")] = self.hand_bm25(1, 20, 2)
        expected[m.topic_keys.index("beta"), m.doc_ids.index("d2")] = self.hand_bm25(3, 20, 1)
        expected[m.topic_keys.index("gamma"), m.doc_ids.index("d1")] = self.hand_bm25(1, 10, 2)
        expected[m.topic_keys.index("gamma"), m.doc_ids.index("d3")] = self.hand_bm25(2, 15, 2)
        assert np.allclose(dense, expected, atol=1e-9)

    def test_diagonal_structure(self):
        stats = {
            "d1": {"length": 5, "tf": {"a": 1}},
            "d2": {"length": 5, "tf": {"b": 1}},
        }
        m = build_matrix(["a", "b"], stats)
        assert m.matrix.nnz == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_are_bm25_weight_bitwise(self, seed, caplog):
        """Against the per-entry loop: df counts the documents listing a key
        whatever its tf, tf-0 entries are left out, and absent topics warn in
        topic order."""
        import logging

        rng = np.random.default_rng(seed)
        topics = [f"t{i}" for i in range(15)]
        vocab = topics + ["other"]  # "other" is no topic
        stats = {
            f"d{j:02d}": {
                "length": int(rng.integers(0, 60)),
                "tf": {
                    str(k): int(rng.integers(0, 5))
                    for k in rng.choice(vocab, int(rng.integers(0, 7)), replace=False)
                },
            }
            for j in rng.permutation(int(rng.integers(1, 40)))
        }
        keys = [str(k) for k in rng.permutation(topics)] + ["ghost"]
        with caplog.at_level(logging.WARNING, logger="kbmine.cardbuild"):
            m = build_matrix(keys, stats)

        doc_ids = sorted(stats)
        n = len(doc_ids)
        avgdl = sum(max(1, stats[d]["length"]) for d in doc_ids) / n
        df = {k: sum(k in stats[d]["tf"] for d in doc_ids) for k in keys}
        kept = [k for k in keys if df[k] >= 1]
        rows, cols, vals = [], [], []
        for j, d in enumerate(doc_ids):
            for k, tf in stats[d]["tf"].items():
                if k in kept and tf >= 1:
                    rows.append(kept.index(k))
                    cols.append(j)
                    vals.append(bm25_weight(tf, max(1, stats[d]["length"]), avgdl, df[k], n))
        ref = CscMatrix.from_coo(vals, rows, cols, (len(kept), n))
        assert m.topic_keys == kept and m.doc_ids == doc_ids
        assert m.matrix.data.tobytes() == ref.data.tobytes()
        assert np.array_equal(m.matrix.indices, ref.indices)
        assert np.array_equal(m.matrix.indptr, ref.indptr)
        absent = [k for k in keys if df[k] == 0]
        assert "ghost" in absent
        assert [r.args[0] for r in caplog.records] == absent

    def test_absent_topic_excluded_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="kbmine.cardbuild"):
            m = build_matrix(["alpha", "ghost"], self.DOC_STATS)
        assert "ghost" not in m.topic_keys
        assert any("ghost" in rec.message for rec in caplog.records)


class TestBatchedSvd:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(50, 1)) @ rng.normal(size=(1, 200))
        m = sparse(A)
        tv, dv, sig, _ = batched_randomized_svd(
            m, SvdConfig(rank=1, oversampling=4, power_iterations=1, batch_size=37, seed=0)
        )
        err = np.linalg.norm(A - tv @ dv.T) / np.linalg.norm(A)
        assert err <= 1e-10

    def test_identity_singular_values(self):
        m = sparse(np.eye(20))
        _, _, sig, _ = batched_randomized_svd(
            m, SvdConfig(rank=20, oversampling=0, power_iterations=1, batch_size=7, seed=1)
        )
        assert np.allclose(sig, 1.0, atol=1e-10)
        assert np.all(np.diff(sig) <= 1e-12)

    def test_exact_rank_recovery_vs_dense_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(120, 8)) @ rng.normal(size=(8, 600))
        m = sparse(A)
        tv, dv, sig, _ = batched_randomized_svd(
            m, SvdConfig(rank=8, oversampling=4, power_iterations=1, batch_size=64, seed=3)
        )
        err = np.linalg.norm(A - tv @ dv.T) / np.linalg.norm(A)
        assert err <= 1e-6
        oracle = np.linalg.svd(A, compute_uv=False)[:8]
        assert np.allclose(sig, oracle, rtol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "shape",
        # matrix seed, topics, rank, docs and the two batch sizes; the second
        # is acceptance criterion 4's matrix
        [(4, 80, 6, 400, (64, 400)), (3, 500, 8, 5000, (64, 5000))],
        ids=lambda s: f"{s[1]}x{s[3]}",
    )
    def test_batch_invariance(self, shape, seed):
        matrix_seed, n_topics, rank, n_docs, batches = shape
        rng = np.random.default_rng(matrix_seed)
        m = sparse(rng.normal(size=(n_topics, rank)) @ rng.normal(size=(rank, n_docs)))
        small, full = (
            batched_randomized_svd(
                m, SvdConfig(rank=rank, oversampling=4, batch_size=b, seed=seed)
            )[:3]
            for b in batches
        )
        for a, b in zip(small, full):
            assert np.abs(a - b).max() <= 1e-8

    @pytest.mark.parametrize("batch", [1, 7, 300])
    def test_one_gaussian_stream_in_document_order(self, batch, monkeypatch):
        real = np.random.default_rng
        seeds, draws = [], []

        class Recorder:
            def __init__(self, seed):
                seeds.append(seed)
                self.rng = real(seed)

            def standard_normal(self, size):
                draws.append(self.rng.standard_normal(size))
                return draws[-1]

        m = random_sparse(60, 300)
        cfg = SvdConfig(rank=5, oversampling=3, batch_size=batch, seed=11)
        monkeypatch.setattr(cardbuild.np.random, "default_rng", Recorder)
        batched_randomized_svd(m, cfg)
        assert seeds == [11]
        assert [d.shape[0] for d in draws] == [min(batch, 300 - s) for s in range(0, 300, batch)]
        assert np.array_equal(np.concatenate(draws), real(11).standard_normal((300, 8)))

    def test_largest_entry_of_each_topic_factor_is_positive(self):
        for seed in range(10):
            tv = batched_randomized_svd(
                random_sparse(100, 600, seed=seed), SvdConfig(rank=8, seed=seed)
            )[0]
            assert np.all(tv.max(axis=0) >= -tv.min(axis=0))

    def test_general_matrix_near_best_rank_r(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(100, 300))
        m = sparse(A)
        r = 10
        tv, dv, _, _ = batched_randomized_svd(
            m, SvdConfig(rank=r, oversampling=8, power_iterations=2, batch_size=50, seed=7)
        )
        err = np.linalg.norm(A - tv @ dv.T)
        s = np.linalg.svd(A, compute_uv=False)
        best = math.sqrt(float((s[r:] ** 2).sum()))
        assert err <= 1.05 * best

    def test_peak_within_budget(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 300))
        m = sparse(A)
        cfg = SvdConfig(rank=5, oversampling=3, power_iterations=1, batch_size=32, seed=9)
        working, peak = traced_svd(m, cfg)
        assert 0 < peak <= working <= 2 * peak
        assert working <= cfg.memory_budget

    @pytest.mark.parametrize("shape", SVD_GRID, ids=lambda s: "x".join(map(str, s)))
    def test_working_bytes_bound_tracemalloc(self, shape):
        n_topics, n_docs, rank, oversampling, batch, q = shape
        m = random_sparse(n_topics, n_docs)
        cfg = SvdConfig(
            rank=rank, oversampling=oversampling, power_iterations=q, batch_size=batch
        )
        working, peak = traced_svd(m, cfg)
        assert peak <= working <= 2 * peak
        # one byte less: a smaller batch within the budget, or batch 1 does not fit
        tighter = replace(cfg, memory_budget=working - 1)
        minimum = cardbuild._working_bytes(m.matrix, rank + oversampling, rank, 1, q)
        if minimum > working - 1:
            with pytest.raises(MemoryBudgetError) as exc:
                batched_randomized_svd(m, tighter)
            assert exc.value.minimum == minimum
        else:
            _, used, used_batch = svd_run(m, tighter)
            assert used <= working - 1
            assert used_batch < min(batch, n_docs)

    @pytest.mark.parametrize(
        "shape",
        [SVD_GRID[i] for i in (0, 2, 3, 5, 8)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_budget_picks_the_largest_fitting_batch(self, shape):
        n_topics, n_docs, rank, oversampling, batch, q = shape
        m = random_sparse(n_topics, n_docs)
        cfg = SvdConfig(
            rank=rank, oversampling=oversampling, power_iterations=q, batch_size=batch
        )
        factors, at_cap, cap_batch = svd_run(m, cfg)
        assert cap_batch == min(batch, n_docs)
        minimum = cardbuild._working_bytes(m.matrix, rank + oversampling, rank, 1, q)
        assert minimum <= at_cap
        for budget in (at_cap - 1, (minimum + at_cap) // 2, minimum):
            tighter = replace(cfg, memory_budget=budget)
            got, used, used_batch = svd_run(m, tighter)
            assert used <= budget
            assert used_batch == scanned_batch(m, tighter)
            for a, b in zip(got, factors):
                assert np.abs(a - b).max() <= 1e-8

    def test_smaller_batch_can_need_more(self):
        # columns 2 and 3 are dense: batch 2 holds both in one window, batch 3 splits them
        dense = np.zeros((400, 6))
        for j, nnz in enumerate([1, 1, 200, 200, 1, 1]):
            dense[:nnz, j] = 1.0 + j
        m = sparse(dense)
        need = {b: cardbuild._working_bytes(m.matrix, 3, 2, b, 1) for b in (1, 2, 3)}
        assert need[1] < need[3] < need[2]
        cfg = SvdConfig(rank=2, oversampling=1, batch_size=3, memory_budget=need[3])
        _, used, used_batch = svd_run(m, cfg)
        assert (used, used_batch) == (need[3], 3)

    def test_budget_too_small_reports_minimum(self):
        m = sparse(np.eye(40))
        cfg = SvdConfig(rank=4, oversampling=2, batch_size=8, memory_budget=100)
        with pytest.raises(MemoryBudgetError) as exc:
            batched_randomized_svd(m, cfg)
        assert exc.value.minimum > 100
        assert "minimum feasible" in str(exc.value)

    def test_oversized_sketch_rejected(self):
        m = sparse(np.eye(5))
        with pytest.raises(ValueError):
            batched_randomized_svd(m, SvdConfig(rank=5, oversampling=3))


class TestEmbeddings:
    def test_single_doc_user(self):
        dv = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(user_embedding([1], dv), dv[1])

    def test_symmetric_docs_cancel(self):
        dv = np.array([[1.0, -2.0], [-1.0, 2.0]])
        assert np.allclose(user_embedding([0, 1], dv), 0.0)

    def test_mean_of_three(self):
        dv = np.array([[1.0, 0.0], [0.0, 3.0], [2.0, 3.0]])
        assert np.allclose(user_embedding([0, 1, 2], dv), [1.0, 2.0], atol=1e-12)

    def test_empty_user_rejected(self):
        with pytest.raises(ValueError):
            user_embedding([], np.zeros((2, 2)))

    def test_authorless_user_omitted(self):
        users, vecs = build_user_vectors(
            {"u1": ["d0"], "u2": ["missing"]}, ["d0"], np.ones((1, 2))
        )
        assert users == ["u1"]
        assert vecs.shape == (1, 2)


def make_space():
    tv = np.array(
        [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.0]]
    )
    dv = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    uv = np.array([[1.0, 0.0], [0.0, 1.0]])
    return EmbeddingSpace(
        topic_keys=[f"t{i}" for i in range(5)],
        topic_vectors=tv,
        doc_ids=[f"d{j}" for j in range(3)],
        doc_vectors=dv,
        user_ids=["u0", "u1"],
        user_vectors=uv,
    )


def related_score(a, b) -> float:
    """The relatedness top_k_related reports from topic a to topic b."""
    vectors = np.array([a, b], dtype=np.float64)
    d = vectors.shape[1]
    space = EmbeddingSpace(
        topic_keys=["a", "b"],
        topic_vectors=vectors,
        doc_ids=[],
        doc_vectors=np.zeros((0, d)),
        user_ids=[],
        user_vectors=np.zeros((0, d)),
    )
    [(key, score)] = top_k_related("a", space, "topic", 1)
    assert key == "b"
    return score


class TestRelatedness:
    """Relatedness, the score of every related-item list, is the dot product
    of two embeddings."""

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert related_score(a, b) == related_score(b, a)

    def test_orthogonal_zero(self):
        assert related_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert related_score([1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_bilinearity(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert related_score(2.5 * a, b) == pytest.approx(2.5 * related_score(a, b))

    def test_dimension_mismatch(self):
        space = replace(make_space(), doc_vectors=np.ones((3, 3)))
        with pytest.raises(ValueError):
            top_k_related("t0", space, "doc", 2)


class TestTopKRelated:
    def test_zero_k(self):
        assert top_k_related("t0", make_space(), "topic", 0) == []

    def test_matches_exhaustive_sort(self):
        space = make_space()
        got = top_k_related("t0", space, "topic", 4)
        q = space.topic_vector("t0")
        brute = sorted(
            (
                (k, float(space.topic_vector(k) @ q))
                for k in space.topic_keys
                if k != "t0"
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert got == brute[:4]

    def test_self_excluded(self):
        for k in range(1, 5):
            assert "t0" not in [t for t, _ in top_k_related("t0", make_space(), "topic", k)]

    def test_user_kind(self):
        got = top_k_related("t0", make_space(), "user", 2)
        assert got[0][0] == "u0"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tie_heavy_matches_oracle(self, data):
        # 1-d vectors over 2-4 integer levels: scores are exact products of
        # levels, so most of them tie, at the k-th place too
        levels = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True))

        def block(prefix, min_size):
            n = data.draw(st.integers(min_size, 10))
            ids = [f"{prefix}{i}" for i in data.draw(st.permutations(range(n)))]
            values = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
            return ids, np.array(values, dtype=np.float64).reshape(n, 1)

        topic_keys, topic_vectors = block("t", 1)
        doc_ids, doc_vectors = block("d", 0)
        user_ids, user_vectors = block("u", 0)
        space = EmbeddingSpace(
            topic_keys=topic_keys,
            topic_vectors=topic_vectors,
            doc_ids=doc_ids,
            doc_vectors=doc_vectors,
            user_ids=user_ids,
            user_vectors=user_vectors,
        )
        query = data.draw(st.sampled_from(topic_keys))
        kind = data.draw(st.sampled_from(["topic", "doc", "user"]))
        ids, vectors = {
            "topic": (topic_keys, topic_vectors),
            "doc": (doc_ids, doc_vectors),
            "user": (user_ids, user_vectors),
        }[kind]
        k = data.draw(st.integers(0, len(ids) + 2))
        q = space.topic_vector(query)
        oracle = sorted(
            (
                (i, float(v @ q))
                for i, v in zip(ids, vectors)
                if not (kind == "topic" and i == query)
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )[:k]
        assert top_k_related(query, space, kind, k) == oracle


class TestRerankRelatedDocs:
    def test_title_flag_wins(self):
        cands = [("d1", 0.9), ("d2", 0.9)]
        topic_docs = {"d1": (1.0, False), "d2": (1.0, True)}
        out = rerank_related_docs(cands, topic_docs, {"d1": 0.0, "d2": 0.0})
        assert out[0][0] == "d2"

    def test_single_candidate(self):
        out = rerank_related_docs([("d1", 0.5)], {}, {"d1": 3.0})
        assert out == [("d1", 0.0)]

    def test_stable_on_equal_signals(self):
        cands = [("a", 0.9), ("b", 0.8), ("c", 0.7)]
        topic_docs = {d: (1.0, False) for d, _ in cands}
        out = rerank_related_docs(cands, topic_docs, {d: 5.0 for d, _ in cands})
        assert [d for d, _ in out] == ["a", "b", "c"]

    def test_outside_the_column_is_zero_weight_no_title(self):
        """A recalled document that lacks the topic scores as weight 0 and
        no title mention; the weights scale by the largest recalled one."""
        cands = [("out", 0.9), ("in", 0.8)]
        out = rerank_related_docs(cands, {"in": (2.0, True)}, {"out": 10.0, "in": 0.0})
        assert out == [("in", 1.0 + 0.5), ("out", 0.2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rerank_related_docs([], {}, {})


class TestAcronyms:
    def test_basic_pair(self):
        pairs = extract_acronym_aliases(["Managed Virtual Testbed (MVT) launched."])
        assert pairs == [("Managed Virtual Testbed", "MVT")]

    def test_non_acronym_parenthetical(self):
        assert extract_acronym_aliases(["result (see the appendix below)"]) == []

    def test_who(self):
        pairs = extract_acronym_aliases(["the World Health Organization (WHO) said"])
        assert pairs == [("World Health Organization", "WHO")]

    def test_initials_must_match(self):
        assert extract_acronym_aliases(["Big Data Platform (XYZ)"]) == []

    def test_lowercase_words_rejected(self):
        assert extract_acronym_aliases(["the big data platform (BDP)"]) == []


def make_candidate(key, norm, freq=5):
    return TopicCandidate(
        key=key,
        norm_surface=norm,
        entity_type="product",
        ner_frequency=freq,
        document_frequency=1,
        title_frequency=0,
    )


# words for names that share, repeat, hyphenate and pluralize them
_GUARD_WORDS = ["data", "lake", "lakes", "data-lake", "datalake", "falcon", "falcons", "mvt"]


def merge_guard(cand_a, cand_b, acronym_pairs) -> bool:
    """conflate_all's name guard on two candidates."""
    a, b = (cardbuild._name(c.norm_surface) for c in (cand_a, cand_b))
    return cardbuild._names_merge(a, b, acronym_pairs, cardbuild._trigrams)


def reference_guard(na: str, nb: str, norm_pairs) -> bool:
    """The name guard written out on two normalized surfaces: an acronym
    pair, the same word set, one string once spaces and hyphens are
    dropped, or the words each has and the other lacks at a trigram Jaccard
    of TRIGRAM_THRESHOLD or more."""
    wa, wb = na.split(), nb.split()
    only_a = " ".join(w for w in wa if w not in wb)
    only_b = " ".join(w for w in wb if w not in wa)
    return (
        (na, nb) in norm_pairs
        or (nb, na) in norm_pairs
        or set(wa) == set(wb)
        or na.replace(" ", "").replace("-", "") == nb.replace(" ", "").replace("-", "")
        or (
            only_a != ""
            and only_b != ""
            and trigram_jaccard(only_a, only_b) >= cardbuild.TRIGRAM_THRESHOLD
        )
    )


class TestConflation:
    def conflation_space(self):
        tv = np.array(
            [
                [1.0, 0.0, 0.0],   # long form
                [0.98, 0.05, 0.0], # acronym, nearly same direction
                [0.95, 0.1, 0.05], # related but dissimilar names
                [0.0, 0.0, 1.0],   # unrelated
            ]
        )
        keys = [
            "managed virtual testbed||product",
            "mvt||product",
            "fabrikam cloud||product",
            "zebra||product",
        ]
        return EmbeddingSpace(
            topic_keys=keys,
            topic_vectors=tv,
            doc_ids=[],
            doc_vectors=np.zeros((0, 3)),
            user_ids=[],
            user_vectors=np.zeros((0, 3)),
        )

    def candidates(self):
        return {
            "managed virtual testbed||product": make_candidate(
                "managed virtual testbed||product", "managed virtual testbed", freq=10
            ),
            "mvt||product": make_candidate("mvt||product", "mvt", freq=3),
            "fabrikam cloud||product": make_candidate(
                "fabrikam cloud||product", "fabrikam cloud", freq=5
            ),
            "zebra||product": make_candidate("zebra||product", "zebra", freq=2),
        }

    def test_acronym_pair_merges(self):
        cands = self.candidates()
        lf, acro = cands["managed virtual testbed||product"], cands["mvt||product"]
        assert merge_guard(lf, acro, {("managed virtual testbed", "mvt")})
        assert merge_guard(acro, lf, {("managed virtual testbed", "mvt")})
        assert not merge_guard(lf, acro, set())

    def test_high_relatedness_without_checks_stays_separate(self):
        space = self.conflation_space()
        cands = self.candidates()
        keys = ["managed virtual testbed||product", "fabrikam cloud||product"]
        a, b = space.topic_vectors[0], space.topic_vectors[2]
        assert a @ b / (np.linalg.norm(a) * np.linalg.norm(b)) > 0.99
        assert not merge_guard(cands[keys[0]], cands[keys[1]], set())
        assert conflate_all(keys, cands, space, []) == {keys[0]: [], keys[1]: []}

    def test_below_threshold_stays_separate(self):
        space = self.conflation_space()
        cands = self.candidates()
        pairs = [("Managed Virtual Testbed", "Zebra")]
        lf, zebra = cands["managed virtual testbed||product"], cands["zebra||product"]
        assert merge_guard(lf, zebra, {("managed virtual testbed", "zebra")})
        # the guard passes, but zebra's relatedness to every topic is below tau
        groups = conflate_all(list(cands), cands, space, pairs)
        assert groups["zebra||product"] == []
        assert "zebra||product" not in groups["managed virtual testbed||product"]

    def test_conflate_all_partition(self):
        space = self.conflation_space()
        cands = self.candidates()
        groups = conflate_all(
            list(cands),
            cands,
            space,
            [("Managed Virtual Testbed", "MVT")],
        )
        # every key appears exactly once across canonicals and aliases
        seen = list(groups) + [a for aliases in groups.values() for a in aliases]
        assert sorted(seen) == sorted(cands)
        assert groups["managed virtual testbed||product"] == ["mvt||product"]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tau_ratio", [None, 0.5])  # None: the module's TAU_RATIO
    def test_conflate_all_matches_nested_loop(self, seed, tau_ratio, monkeypatch):
        if tau_ratio is not None:
            monkeypatch.setattr(cardbuild, "TAU_RATIO", tau_ratio)
        rng = np.random.default_rng(seed)
        n = 30
        # a few directions with jitter, so many pairs clear tau; one- and
        # two-word surfaces over a few words with plural, hyphen and
        # acronym variants among them, so every branch of the guard passes
        centers = rng.standard_normal((4, 3))
        vectors = centers[rng.integers(0, 4, n)] + 0.3 * rng.standard_normal((n, 3))
        keys = [f"k{i:02d}||product" for i in rng.permutation(n)]
        words = ["abc", "abcs", "cab", "ab-c", "bca", "zed"]
        cands = {
            k: make_candidate(
                k,
                " ".join(rng.choice(words, int(rng.integers(1, 3)))),
                freq=int(rng.integers(1, 4)),
            )
            for k in keys
        }
        pairs = [("Abc", "CAB"), ("Bca", "ZED")]  # normalize to surfaces drawn above
        space = EmbeddingSpace(
            topic_keys=keys,
            topic_vectors=vectors,
            doc_ids=[],
            doc_vectors=np.zeros((0, 3)),
            user_ids=[],
            user_vectors=np.zeros((0, 3)),
        )

        # reference: star linkage by a plain loop over every key in
        # canonical order, with the guard written out
        units = np.vstack([v / np.linalg.norm(v) for v in vectors])
        rel = units @ units.T
        off_diagonal = rel[~np.eye(n, dtype=bool)]
        threshold = cardbuild.TAU_RATIO * float(off_diagonal.max())
        norm_pairs = {(normalize_key(lf), normalize_key(a)) for lf, a in pairs}
        index = {k: i for i, k in enumerate(keys)}

        order = sorted(keys, key=lambda k: (-cands[k].ner_frequency, k))
        expected = {}
        grouped = set()
        for a in order:
            if a in grouped:
                continue
            grouped.add(a)
            expected[a] = []
            for b in order:
                if (
                    b not in grouped
                    and rel[index[a], index[b]] >= threshold
                    and reference_guard(cands[a].norm_surface, cands[b].norm_surface, norm_pairs)
                ):
                    grouped.add(b)
                    expected[a].append(b)
            expected[a].sort()

        assert any(expected.values())  # some pairs merge
        assert conflate_all(keys, cands, space, pairs) == expected
        # the same from 16-row blocks, so the walk crosses a block boundary
        monkeypatch.setattr(cardbuild, "REL_BLOCK_ENTRIES", n * cardbuild.REL_BLOCK_ALIGN)
        assert cardbuild.relatedness_blocks(n) == [(0, 16), (16, n)]
        assert conflate_all(keys, cands, space, pairs) == expected

    @pytest.mark.parametrize("n", [2, 17, 33, 255, 256, 257, 1000, 1009, 2000, 4097, 10000])
    def test_relatedness_blocks_tile_the_rows(self, n):
        blocks = cardbuild.relatedness_blocks(n)
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == n
        align = cardbuild.REL_BLOCK_ALIGN
        rows = max(cardbuild.REL_BLOCK_ENTRIES // n // align * align, align)
        assert all(b - a == rows for a, b in blocks[:-1])
        # the rest, or the last block with a 1-row rest joined to it
        assert 2 <= blocks[-1][1] - blocks[-1][0] <= rows + 1
        assert (len(blocks) == 1) == (n <= 256)

    @pytest.mark.parametrize(
        "n, d, rows",
        [
            (1000, 16, None),  # export_wide's topic vectors: 64-row blocks
            (2000, 32, None),
            (512, 8, None),
            (40, 16, 16),
            (33, 3, 16),  # 16-row blocks, then a 1-row rest: one block of 17
            (1009, 16, 16),
            (961, 16, None),  # 64-row blocks with a 1-row rest
        ],
    )
    def test_blocks_match_whole_product(self, n, d, rows, monkeypatch):
        """The stacked blocks are the whole product bitwise where n is a
        multiple of 8. For other n, NumPy's whole product is a syrk, which
        rounds a few entries differently from any gemm: there they agree
        within the dot products' rounding error bound."""
        if rows is not None:
            monkeypatch.setattr(cardbuild, "REL_BLOCK_ENTRIES", n * rows)
        rng = np.random.default_rng(n + d)
        vecs = rng.standard_normal((n, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        whole = vecs @ vecs.T
        blocks = cardbuild.relatedness_blocks(n)
        assert len(blocks) > 1
        stacked = np.vstack([vecs[a:b] @ vecs.T for a, b in blocks])
        if n % 8 == 0:
            assert stacked.tobytes() == whole.tobytes()
        else:
            # each is within d units of roundoff of the exact sum of d terms
            # whose magnitudes sum to 1 at most
            assert np.abs(stacked - whole).max() <= d * np.finfo(np.float64).eps

    def test_conflate_all_memory_is_linear(self):
        """At K=2000 the dense relatedness alone is 32 MB; conflation's
        traced peak stays below 8 MB."""
        n, d = 2000, 32
        rng = np.random.default_rng(0)
        keys = [f"topic {i:04d}||product" for i in range(n)]
        cands = {k: make_candidate(k, k.split("||")[0]) for k in keys}
        space = EmbeddingSpace(
            topic_keys=keys,
            topic_vectors=rng.standard_normal((n, d)),
            doc_ids=[],
            doc_vectors=np.zeros((0, d)),
            user_ids=[],
            user_vectors=np.zeros((0, d)),
        )
        conflate_all(keys, cands, space, [])  # fills one-time caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            conflate_all(keys, cands, space, [])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_aliases_do_not_chain(self):
        """A~B (an acronym pair) and B~C (a plural) pass the guard and A~C
        does not. A union-find closure made one group of the three; star
        linkage lets the canonical A take B, and C stays alone."""
        keys = ["managed virtual testbed||product", "mvt||product", "mvts||product"]
        cands = {
            k: make_candidate(k, k.split("||")[0], freq=freq) for k, freq in zip(keys, (9, 5, 3))
        }
        a, b, c = (cands[k] for k in keys)
        pairs = {("managed virtual testbed", "mvt")}
        assert merge_guard(a, b, pairs) and merge_guard(b, c, pairs)
        assert not merge_guard(a, c, pairs)
        space = EmbeddingSpace(
            topic_keys=keys,
            topic_vectors=np.ones((3, 2)),  # every pair at the largest relatedness
            doc_ids=[],
            doc_vectors=np.zeros((0, 2)),
            user_ids=[],
            user_vectors=np.zeros((0, 2)),
        )
        groups = conflate_all(keys, cands, space, [("Managed Virtual Testbed", "MVT")])
        assert groups == {keys[0]: [keys[1]], keys[2]: []}

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(BENCH_GEN.BRAND_WORDS),
        st.sampled_from(BENCH_GEN.BRAND_WORDS),
        st.sampled_from(BENCH_GEN.HEAD_WORDS),
        st.sampled_from(BENCH_GEN.HEAD_WORDS),
        st.booleans(),
    )
    def test_names_sharing_a_word_never_merge(self, brand_a, brand_b, head_a, head_b, share_head):
        """Two distinct 'Brand Head' names that share their head or their
        brand are two topics."""
        if share_head:
            head_b = head_a
        else:
            brand_b = brand_a
        name_a, name_b = f"{brand_a} {head_a}", f"{brand_b} {head_b}"
        assume(name_a != name_b)
        a, b = (make_candidate(n, normalize_key(n)) for n in (name_a, name_b))
        assert not merge_guard(a, b, set())

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(BENCH_GEN.BRAND_WORDS),
        st.sampled_from(BENCH_GEN.HEAD_WORDS),
        st.sampled_from(["upper", "lower", "plural", "hyphen", "acronym"]),
    )
    def test_variants_of_a_name_always_merge(self, brand, head, variant):
        """Case, plural, hyphen-for-space and acronym variants of one name
        name the same topic."""
        name = f"{brand} {head}"
        other = {
            "upper": name.upper(),
            "lower": name.lower(),
            "plural": f"{name}s",
            "hyphen": f"{brand}-{head}",
            "acronym": brand[0] + head[0],
        }[variant]
        pairs = {(normalize_key(name), normalize_key(brand[0] + head[0]))}
        a, b = (make_candidate(n, normalize_key(n)) for n in (name, other))
        assert merge_guard(a, b, pairs) and merge_guard(b, a, pairs)

    def test_trigram_jaccard(self):
        assert trigram_jaccard("abc", "abc") == 1.0
        assert trigram_jaccard("abc", "xyz") == 0.0

    @staticmethod
    def assert_names_merge_is_reference(surfaces, pairs):
        """_names_merge, with trigram sets cached as conflate_all has them,
        decides every ordered pair of surfaces as reference_guard does."""
        names = [cardbuild._name(s) for s in surfaces]
        grams = functools.cache(cardbuild._trigrams)
        for a, name_a in zip(surfaces, names):
            for b, name_b in zip(surfaces, names):
                merges = cardbuild._names_merge(name_a, name_b, pairs, grams)
                assert merges == reference_guard(a, b, pairs), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(_GUARD_WORDS), max_size=3),
            min_size=2,
            max_size=5,
        ),
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
    )
    def test_names_merge_equals_reference(self, names, pair_ids):
        """Names over a few words, some repeated or shared, single-spaced as
        normalize_key makes every key, with acronym pairs among them."""
        surfaces = [" ".join(words) for words in names]
        pairs = {(surfaces[i], surfaces[j]) for i, j in pair_ids if max(i, j) < len(surfaces)}
        self.assert_names_merge_is_reference(surfaces, pairs)

    def test_names_merge_branches(self):
        surfaces = ["data-lake", "data lake", "data lakes", "falcon", "falcons", "mvt",
                    "managed virtual testbed", "arbor gateway", "harbor gateway"]
        pairs = {("managed virtual testbed", "mvt")}
        self.assert_names_merge_is_reference(surfaces, pairs)
        names = [cardbuild._name(s) for s in surfaces]

        def merges(i, j):
            return cardbuild._names_merge(names[i], names[j], pairs, cardbuild._trigrams)

        assert merges(0, 1)  # the same once spaces and hyphens are dropped
        assert merges(3, 4)  # no word shared: the Jaccard of the whole names
        assert merges(5, 6) and merges(6, 5)  # an acronym pair
        assert not merges(7, 8)  # a shared word: the Jaccard of the words not shared

    def test_names_merge_on_double_spaced_keys_from_a_state_file(self, tmp_path):
        """A saved key's surface must be normalized, so a state file whose
        keys hold two spaces in a row fails to load: _names_merge, which
        reads single-spaced names, never sees such a name."""
        from kbmine import pipeline

        keys = ["data  lake", "data lake", "data-lake", "lake  data", "falcon  works",
                "falcons works", "falcons"]
        line = {
            "doc_id": "d1", "author_id": "u1", "timestamp": 0.0, "length": 5,
            "ledger": {f"{k}||product": {"titles": 0, "surfaces": {k: 1}} for k in keys},
            "acronyms": [], "definitions": [],
        }
        (tmp_path / pipeline.STATE_FILE).write_text(json.dumps(line) + "\n")
        with pytest.raises(
            ValueError,
            match=r"^corrupt state: documents.jsonl line 1: ledger key 'data  lake\|\|product' ",
        ):
            pipeline.PipelineState.load(tmp_path)


class TestEmbeddingExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(4, 3))
        ids = ["a", "b", "c", "d"]
        path = tmp_path / "topics.emb"
        write_embeddings(path, ids, mat, "topic")
        rids, rmat, kind = read_embeddings(path)
        assert rids == ids
        assert kind == "topic"
        assert np.array_equal(rmat, mat)
