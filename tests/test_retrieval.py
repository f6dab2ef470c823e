import re
import struct
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from featkit import retrieval
from featkit.errors import (
    DegenerateImage,
    DimMismatch,
    EmptyInput,
    MalformedFile,
)
from featkit.extractors import FileBackedExtractor, ToyPixelExtractor
from featkit.features import (
    FeatureMatrix,
    PixelGrid,
    Rect,
    fmt_float,
    load_features,
)
from featkit.preprocess import PcaWhitenModel
from featkit.retrieval import (
    RetrievalIndex,
    SpatialSearchConfig,
    build_index,
    extract_patches,
    level_rects,
    load_index,
    patch_count,
    patch_grid,
    query_distance,
    query_patch_vectors,
    save_index,
    search,
)
from oracles import (
    coverage_bitmap,
    min_distance_oracle,
    query_distance_broadcast,
    query_distance_oracle,
)

DATA = Path(__file__).parent / "data"


def _upsample_bilinear(coarse, size):
    cells = coarse.shape[0]
    t = np.arange(size) * (cells - 1) / (size - 1)
    i0 = np.floor(t).astype(int)
    i1 = np.minimum(i0 + 1, cells - 1)
    f = t - i0
    return (
        coarse[np.ix_(i0, i0)] * np.outer(1 - f, 1 - f)
        + coarse[np.ix_(i0, i1)] * np.outer(1 - f, f)
        + coarse[np.ix_(i1, i0)] * np.outer(f, 1 - f)
        + coarse[np.ix_(i1, i1)] * np.outer(f, f)
    )


def _texture(rng, size=48):
    """Distinct smooth random texture in [0, 1].

    Two octaves of bilinearly upsampled noise: per-image structure
    survives mean-pooling, and the correlation length exceeds the patch
    misalignment that spatial search has to tolerate.
    """
    img = _upsample_bilinear(rng.random((6, 6)), size)
    img = img + 0.35 * _upsample_bilinear(rng.random((11, 11)), size)
    lo, hi = img.min(), img.max()
    return PixelGrid((img - lo) / (hi - lo))


def _toy_corpus(rng, n=6, size=48):
    return [(f"ref{i:02d}", _texture(rng, size)) for i in range(n)]


def _small_config(h_r=4, h_q=3):
    return SpatialSearchConfig(h_r=h_r, h_q=h_q, pca_dim=500)


def _build(references, config, binding):
    """build_index over the patches ``binding`` extracts for the (id,
    image) pairs ``references``."""
    rects, raw = extract_patches(binding, references, config.h_r)
    return build_index([ref_id for ref_id, _ in references], rects, raw,
                       config)


def _search(index, image, binding, top_k):
    """search with the query patches ``binding`` extracts from ``image``."""
    _, raw = extract_patches(binding, [("q", image)], index.config.h_q)
    return search(index, raw, top_k=top_k)


class TestPatchGrid:
    def test_level_one_full_image(self):
        assert patch_grid(77, 41, 1) == [Rect(0, 0, 77, 41)]

    def test_level_two_300(self):
        rects = patch_grid(300, 300, 2)
        assert [(r.x, r.y) for r in rects] == [
            (0, 0), (100, 0), (0, 100), (100, 100)
        ]
        assert all(r.w == 200 and r.h == 200 for r in rects)

    def test_level_three_300(self):
        rects = patch_grid(300, 300, 3)
        assert len(rects) == 9
        assert sorted({r.x for r in rects}) == [0, 75, 150]
        assert all(r.w == 150 for r in rects)

    def test_counts_and_bounds(self):
        for w, h in ((64, 64), (37, 53), (11, 64)):
            for level in range(1, 5):
                rects = patch_grid(w, h, level)
                assert len(rects) == level * level
                assert all(r.within(w, h) for r in rects)

    def test_union_covers_image(self):
        for w in range(5, 65, 7):
            for h in range(5, 65, 11):
                for level in range(1, 5):
                    bitmap = coverage_bitmap(patch_grid(w, h, level), w, h)
                    assert bitmap.all()

    def test_total_patch_count(self):
        assert patch_count(4) == 30
        assert patch_count(3) == 14
        assert len(level_rects(100, 100, 4)) == 30

    def test_degenerate(self):
        with pytest.raises(DegenerateImage):
            patch_grid(1, 1, 9)


class TestDistances:
    def test_identical_patch_distance_zero(self, rng):
        refs = rng.normal(size=(30, 8))
        assert query_distance(refs[17:18], refs) == 0.0
        refs = rng.normal(size=(30, 500)).astype(np.float32)
        assert query_distance(refs[:14], refs) == 0.0
        assert query_distance(refs[[3, 3, 29]], refs) == 0.0

    def test_single_patch_plain_l2(self, rng):
        q = rng.normal(size=(1, 5))
        r = rng.normal(size=(1, 5))
        expected = float(np.linalg.norm(q[0] - r[0]))
        assert query_distance(q, r) == pytest.approx(expected)

    def test_matches_bruteforce(self, rng):
        for _ in range(50):
            q = rng.normal(size=6)
            refs = rng.normal(size=(30, 6))
            assert query_distance(q[None, :], refs) == pytest.approx(
                min_distance_oracle(q, refs), abs=1e-9
            )

    def test_query_distance_bruteforce_30x14(self, rng):
        for _ in range(25):
            q = rng.normal(size=(14, 6))
            refs = rng.normal(size=(30, 6))
            assert query_distance(q, refs) == pytest.approx(
                query_distance_oracle(q, refs), abs=1e-9
            )

    def test_adding_reference_patch_never_increases(self, rng):
        q = rng.normal(size=(5, 4))
        refs = rng.normal(size=(10, 4))
        base = query_distance(q, refs)
        grown = query_distance(q, np.vstack([refs, rng.normal(size=(1, 4))]))
        assert grown <= base + 1e-15

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            query_distance(rng.normal(size=(3, 4)), rng.normal(size=(5, 6)))

    def test_empty_query_rejected(self, rng):
        with pytest.raises(EmptyInput):
            query_distance(np.zeros((0, 4)), rng.normal(size=(5, 4)))


def _near_tie_case(rng, m, n, dim):
    """float32 patches with exact and one-ulp near ties on both sides.

    Reference patch 1 duplicates patch 0 and patch 2 sits one float32
    ulp from it; each query patch copies a reference patch, copies one
    and moves a component by one ulp, or is random.
    """
    r = (rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 30.0])
         ).astype(np.float32)
    if n >= 3:
        r[1] = r[0]
        r[2] = r[0]
        j = rng.integers(dim)
        r[2, j] = np.nextafter(r[2, j], np.float32(np.inf))
    q = rng.normal(size=(m, dim)).astype(np.float32) * r.std()
    for i in range(m):
        kind = rng.integers(3)
        if kind < 2:
            q[i] = r[rng.integers(min(n, 3))
                     if rng.random() < 0.5 else rng.integers(n)]
        if kind == 1:
            j = rng.integers(dim)
            q[i, j] = np.nextafter(q[i, j], np.float32(-np.inf))
    return q, r


class TestPrunedDistanceIsBitExact:
    """``query_distance`` against the broadcast form, compared with ==."""

    def test_seeded_shapes(self):
        rng = np.random.default_rng(20140307)
        for trial in range(600):
            m = int(rng.integers(1, 20))
            n = int(rng.integers(1, 35))
            dim = int(rng.choice([1, 3, 8, 12, 64, 500]))
            q, r = _near_tie_case(rng, m, n, dim)
            assert query_distance(q, r) == query_distance_broadcast(q, r), (
                trial, m, n, dim
            )

    def test_float64_inputs(self, rng):
        for _ in range(50):
            q = rng.normal(size=(14, 40))
            r = np.vstack([q[:5] + 1e-13, rng.normal(size=(25, 40))])
            assert query_distance(q, r) == query_distance_broadcast(q, r)

    def test_nan_propagates_like_broadcast(self, rng):
        q = rng.normal(size=(4, 6))
        r = rng.normal(size=(9, 6))
        r[5, 2] = np.nan
        assert np.isnan(query_distance(q, r))
        assert np.isnan(query_distance_broadcast(q, r))

    def test_stacked_references(self):
        """A (C, P, k) stack gives each reference's own distance: stacks
        hold duplicated references, the query's own patches and a
        one-ulp twin of another reference."""
        rng = np.random.default_rng(20141019)
        for trial in range(300):
            m = int(rng.integers(1, 20))
            p = int(rng.integers(1, 35))
            dim = int(rng.choice([1, 3, 8, 12, 64, 500]))
            c = int(rng.integers(1, 8))
            q, r0 = _near_tie_case(rng, m, p, dim)
            stack = np.stack([r0] + [
                _near_tie_case(rng, m, p, dim)[1] for _ in range(c - 1)
            ])
            stack[rng.integers(c)] = r0  # duplicated reference
            if p >= m:
                stack[rng.integers(c), :m] = q  # self-match
            twin = stack[rng.integers(c)].copy()
            i = rng.integers(twin.size)
            twin.flat[i] = np.nextafter(twin.flat[i], np.float32(np.inf))
            stack = np.concatenate([stack, twin[None]])
            got = query_distance(q, stack)
            assert got.shape == (c + 1,)
            for j, ref in enumerate(stack):
                assert got[j] == query_distance_broadcast(q, ref), (
                    trial, j, m, p, dim
                )
                assert got[j] == query_distance(q, ref)

    def test_stacked_nan_stays_in_its_reference(self, rng):
        q = rng.normal(size=(4, 6))
        stack = rng.normal(size=(3, 9, 6))
        stack[1, 5, 2] = np.nan
        got = query_distance(q, stack)
        assert np.isnan(got[1])
        for j in (0, 2):
            assert got[j] == query_distance_broadcast(q, stack[j])


class TestBuildIndex:
    """build_index fits the chain on the raw patch rows it is given and
    checks them first."""

    @staticmethod
    def _raw(rng, n_refs, h_r=2, dim=6):
        return rng.normal(size=(n_refs * patch_count(h_r), dim))

    @pytest.mark.parametrize("rows", [9, 11, 0])
    def test_row_count_must_match_ids_and_h_r(self, rng, rows):
        raw = rng.normal(size=(rows, 6))
        with pytest.raises(DimMismatch):
            build_index(["r0", "r1"], [(), ()], raw, _small_config(h_r=2))
        with pytest.raises(DimMismatch):
            build_index(["r0", "r1"], [(), ()], raw.ravel(),
                        _small_config(h_r=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_value(self, rng, bad, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fit before the checks")

        monkeypatch.setattr(retrieval, "retrieval_pipeline_fit", no_fit)
        raw = self._raw(rng, 3)
        raw[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            build_index(["r0", "r1", "r2"], [()] * 3, raw,
                        _small_config(h_r=2))

    def test_patch_counts_and_dims(self, rng):
        corpus = _toy_corpus(rng, n=4)
        toy = ToyPixelExtractor(4)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        assert len(index.ids) == 4
        assert index.vectors.shape == (4, 30, index.model.k)
        assert index.vectors.dtype == np.float32
        for rects in index.rects:
            assert len(rects) == 30

    def test_deterministic_bytes(self, rng, tmp_path):
        corpus = _toy_corpus(rng, n=3)
        toy = ToyPixelExtractor(3)
        with pytest.warns(UserWarning):
            a = _build(corpus, _small_config(), toy)
        with pytest.warns(UserWarning):
            b = _build(corpus, _small_config(), toy)
        pa, pb = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(a, pa)
        save_index(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_needs_two_references(self, rng):
        with pytest.raises(EmptyInput):
            _build(_toy_corpus(rng, n=1), _small_config(),
                   ToyPixelExtractor(3))

    def test_single_level_is_whole_image_retrieval(self, rng):
        corpus = _toy_corpus(rng, n=4)
        toy = ToyPixelExtractor(3)
        cfg = _small_config(h_r=1, h_q=1)
        with pytest.warns(UserWarning):
            index = _build(corpus, cfg, toy)
        assert index.vectors.shape[1] == 1
        for rects, (rid, grid) in zip(index.rects, corpus):
            assert rects == (Rect(0, 0, grid.width, grid.height),)

    def test_entry_vectors_unit_length_before_power(self, rng):
        # undo the signed square: sqrt(|v|) recovers the unit vector
        # (float32 storage loosens the check to ~1e-6)
        corpus = _toy_corpus(rng, n=4)
        toy = ToyPixelExtractor(4)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        pre = np.sqrt(np.abs(index.vectors.astype(np.float64)))
        norms = np.linalg.norm(pre, axis=2)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_file_backed_patches(self, rng):
        n_patches = patch_count(2)
        ids, rows = [], []
        for r in range(3):
            for k in range(n_patches):
                ids.append(f"ref{r}#{k}")
                rows.append(rng.normal(size=9))
        store = FeatureMatrix(tuple(ids), np.stack(rows))
        binding = FileBackedExtractor(store)
        refs = [(f"ref{r}", None) for r in range(3)]
        with pytest.warns(UserWarning):
            index = _build(refs, _small_config(h_r=2, h_q=1), binding)
        assert index.vectors.shape[:2] == (3, n_patches)
        assert index.rects == ((),) * 3
        # the same rows given directly build the same index
        with pytest.warns(UserWarning):
            direct = build_index([r for r, _ in refs], index.rects,
                                 store.values, index.config)
        assert np.array_equal(direct.vectors, index.vectors)


class TestSearch:
    def test_self_query_distance_zero_and_first(self, rng):
        corpus = _toy_corpus(rng, n=5)
        toy = ToyPixelExtractor(4)
        cfg = _small_config(h_r=3, h_q=3)
        with pytest.warns(UserWarning):
            index = _build(corpus, cfg, toy)
        # same grids on both sides: every query patch exists verbatim
        ranked = _search(index, corpus[2][1], toy, top_k=5)
        assert ranked[0][0] == "ref02"
        assert ranked[0][1] == 0.0

    def test_top_k_clamps_to_corpus(self, rng):
        corpus = _toy_corpus(rng, n=4)
        toy = ToyPixelExtractor(3)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        ranked = _search(index, corpus[0][1], toy, top_k=50)
        assert len(ranked) == 4

    def test_distances_sorted_ascending(self, rng):
        corpus = _toy_corpus(rng, n=6)
        toy = ToyPixelExtractor(3)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        ranked = _search(index, corpus[1][1], toy, top_k=6)
        dists = [d for _, d in ranked]
        assert dists == sorted(dists)

    def test_ranking_invariant_under_increasing_transform(self, rng):
        corpus = _toy_corpus(rng, n=6)
        toy = ToyPixelExtractor(3)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        ranked = _search(index, corpus[1][1], toy, top_k=6)
        ids = [rid for rid, _ in ranked]
        for f in (lambda d: 3 * d + 1, np.exp, lambda d: d ** 3):
            transformed = sorted(
                (float(f(d)), rid) for rid, d in ranked
            )
            assert [rid for _, rid in transformed] == ids

    def test_crop_queries_rank_source_first(self, rng):
        corpus = _toy_corpus(rng, n=8, size=48)
        toy = ToyPixelExtractor(4)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        for rid, grid in corpus:
            crop = grid.intensities[8:40, 8:40]
            ranked = _search(index, PixelGrid(crop), toy, top_k=1)
            assert ranked[0][0] == rid


def _file_backed_index(rng, n_refs, h_r=2, h_q=2, dim=12, pca_dim=8):
    """Index over random raw patches; ref ``r1`` duplicates ``r0``."""
    n_patches = patch_count(h_r)
    raw = {f"r{i}": rng.normal(size=(n_patches, dim)) for i in range(n_refs)}
    raw["r1"] = raw["r0"].copy()
    cfg = SpatialSearchConfig(h_r=h_r, h_q=h_q, pca_dim=pca_dim)
    index = build_index(list(raw), [()] * n_refs,
                        np.vstack(list(raw.values())), cfg)
    return index, raw


def _near_twins(rng, index, count):
    """Copies of random references with one component moved one float32
    ulp."""
    twins = []
    for t in range(count):
        vecs = index.vectors[rng.integers(len(index.ids))].copy()
        i, j = rng.integers(vecs.shape[0]), rng.integers(vecs.shape[1])
        vecs[i, j] = np.nextafter(vecs[i, j], np.float32(np.inf))
        twins.append(vecs)
    return RetrievalIndex(
        index.ids + tuple(f"t{t}" for t in range(count)),
        index.rects + ((),) * count,
        np.concatenate([index.vectors, np.stack(twins)]),
        index.model, index.config,
    )


def _brute_force(index, q):
    scored = sorted(
        (query_distance_oracle(q, vecs), ref_id)
        for ref_id, vecs in zip(index.ids, index.vectors)
    )
    return [(ref_id, dist) for dist, ref_id in scored]


class TestSearchEqualsBruteForce:
    def test_randomized_rankings(self):
        rng = np.random.default_rng(20140306)
        for trial in range(12):
            base, raw = _file_backed_index(rng, n_refs=int(rng.integers(4, 9)))
            index = _near_twins(rng, base, count=4)
            n = len(index.ids)
            src = f"r{rng.integers(2, n - 4)}"
            queries = [
                raw[src][::-1].copy(),  # self-match
                raw["r0"] + 0.1 * rng.normal(size=raw["r0"].shape),
                rng.normal(size=(patch_count(2), 12)),
            ]
            for raw_q in queries:
                q = query_patch_vectors(index, raw_q)
                expected = _brute_force(index, q)
                for top_k in (1, 2, 3, 5, n - 1, n, n + 3):
                    got = search(index, raw_q, top_k=top_k)
                    want = expected[:top_k]
                    assert [r for r, _ in got] == [r for r, _ in want]
                    for (_, dg), (_, dw) in zip(got, want):
                        assert abs(dg - dw) <= 1e-12
            assert search(index, queries[0], top_k=1) == [(src, 0.0)]

    def test_one_product_without_query_distance(self, rng, monkeypatch):
        """search scores from its own product: no second distance call."""
        index, raw = _file_backed_index(rng, n_refs=8)

        def refused(*args):
            raise AssertionError("search called query_distance")

        q = query_patch_vectors(index, raw["r3"])
        expected = sorted(
            ((ref_id, query_distance_broadcast(q, vecs))
             for ref_id, vecs in zip(index.ids, index.vectors)),
            key=lambda kv: (kv[1], kv[0]))
        monkeypatch.setattr(retrieval, "query_distance", refused)
        for top_k in (1, 3, 8):
            assert search(index, raw["r3"], top_k=top_k) == expected[:top_k]
        assert expected[0] == ("r3", 0.0)

    def test_duplicate_references_tie_in_id_order(self, rng):
        index, raw = _file_backed_index(rng, n_refs=5)
        ranked = search(index, raw["r0"], top_k=5)
        assert [r for r, _ in ranked[:2]] == ["r0", "r1"]
        assert ranked[0][1] == ranked[1][1] == 0.0

    def test_near_ties_inside_rounding_bound_rank_exactly(self, rng):
        index, raw = _file_backed_index(rng, n_refs=6)
        index = _near_twins(rng, index, count=6)
        raw_q = rng.normal(size=(patch_count(2), 12))
        q = query_patch_vectors(index, raw_q)
        exact = {ref_id: query_distance(q, vecs)
                 for ref_id, vecs in zip(index.ids, index.vectors)}
        gaps = sorted(np.diff(sorted(exact.values())))
        assert 0.0 < gaps[sum(g == 0.0 for g in gaps)] < 1e-6
        ranked = search(index, raw_q, top_k=len(exact))
        assert ranked == sorted(exact.items(), key=lambda kv: (kv[1], kv[0]))


class TestChainBlocks:
    @pytest.mark.parametrize("h_r, h_q", [(3, 1), (2, 3), (4, 3)])
    def test_query_zero_padded_to_whole_reference_blocks(self, rng,
                                                         monkeypatch,
                                                         h_r, h_q):
        """build_index and search hand the chain (N, patch_count(h_r), d)
        stacks; a query's holds its raw rows first and zeros after."""
        stacks = []
        real = retrieval.retrieval_pipeline_apply

        def recorded(model, power, v):
            stacks.append(np.array(v))
            return real(model, power, v)

        monkeypatch.setattr(retrieval, "retrieval_pipeline_apply", recorded)
        index, _ = _file_backed_index(rng, n_refs=4, h_r=h_r, h_q=h_q)
        p, m = patch_count(h_r), patch_count(h_q)
        assert [s.shape for s in stacks] == [(4, p, 12)]
        query = rng.normal(size=(m, 12))
        search(index, query, top_k=2)
        assert len(stacks) == 2 and stacks[1].shape == (-(-m // p), p, 12)
        rows = stacks[1].reshape(-1, 12)
        assert np.array_equal(rows[:m], query)
        assert not rows[m:].any()


class TestSearchRejectsBadQueries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query(self, rng, bad):
        index, _ = _file_backed_index(rng, n_refs=4, h_q=1)
        query = rng.normal(size=(1, 12))
        query[0, 3] = bad
        with pytest.raises(ValueError):
            search(index, query)

    def test_patch_count_must_match_h_q(self, rng):
        index, raw = _file_backed_index(rng, n_refs=4, h_q=1)
        with pytest.raises(DimMismatch):
            search(index, rng.normal(size=(7, 12)))
        with pytest.raises(DimMismatch):
            search(index, raw["r2"])
        rows = rng.normal(size=(5, 12))
        with pytest.raises(DimMismatch):
            search(index, rows)
        at_h_q_2 = replace(index, config=replace(index.config, h_q=2))
        assert len(search(at_h_q_2, rows, top_k=3)) == 3
        with pytest.raises(DimMismatch):
            search(index, rng.normal(size=(1, 1, 12)))

    @pytest.mark.parametrize("top_k, message", [
        (1.5, "not an integer"), (2.0, "not an integer"),
        (True, "not an integer"), (0, "at least 1"), (-1, "at least 1"),
    ])
    def test_top_k_is_a_whole_number(self, rng, top_k, message):
        index, raw = _file_backed_index(rng, n_refs=4, h_q=1)
        with pytest.raises(ValueError, match=f"top_k.*{message}"):
            search(index, raw["r2"][:1], top_k=top_k)

    def test_wrong_width_query(self, rng):
        index, _ = _file_backed_index(rng, n_refs=4, h_q=1)
        with pytest.raises(DimMismatch):
            search(index, rng.normal(size=(1, 11)))


class TestReferenceIds:
    """Reference ids follow the feature id rule, as OTIDX1 and the
    ranking TSV need."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("ids", [
        ("a\nb", "c"), ("a\rb", "c"), ("a\tb", "c"), ("", "c"), ("a", "a"),
    ])
    def test_bad_ids_rejected_by_build_index(self, rng, ids):
        corpus = [(ref_id, _texture(rng)) for ref_id in ids]
        with pytest.raises(ValueError, match="reference id"):
            _build(corpus, _small_config(), ToyPixelExtractor(3))


class TestIndexPersistence:
    def test_roundtrip_bit_exact_rankings(self, rng, tmp_path):
        corpus = _toy_corpus(rng, n=5)
        toy = ToyPixelExtractor(4)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        p = tmp_path / "c.idx"
        save_index(index, p)
        back = load_index(p)
        assert back.config == index.config
        assert back.ids == index.ids
        assert back.rects == index.rects
        assert np.array_equal(back.vectors, index.vectors)
        query = corpus[3][1]
        assert _search(back, query, toy, top_k=5) == _search(
            index, query, toy, top_k=5
        )

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.idx"
        p.write_bytes(b"NOTIDX\n")
        with pytest.raises(MalformedFile):
            load_index(p)

    def test_truncated(self, rng, tmp_path):
        corpus = _toy_corpus(rng, n=3)
        toy = ToyPixelExtractor(3)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        p = tmp_path / "c.idx"
        save_index(index, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-9])
        with pytest.raises(MalformedFile):
            load_index(p)

    def test_trailing_garbage(self, rng, tmp_path):
        corpus = _toy_corpus(rng, n=3)
        toy = ToyPixelExtractor(3)
        with pytest.warns(UserWarning):
            index = _build(corpus, _small_config(), toy)
        p = tmp_path / "c.idx"
        save_index(index, p)
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(MalformedFile):
            load_index(p)


def test_entry_validation(rng):
    index, _ = _file_backed_index(rng, n_refs=3)
    one_rect = ((Rect(0, 0, 1, 1),), (), ())
    bare_rect = (Rect(0, 0, 1, 1), (), ())
    for rects in (one_rect, bare_rect):
        with pytest.raises(ValueError):
            RetrievalIndex(index.ids, rects, index.vectors, index.model,
                           index.config)


def test_vectors_beyond_float32_refused_without_warning():
    model = PcaWhitenModel(np.zeros(2), [[1.0, 0.0]], [1.0], 1e-10)
    config = SpatialSearchConfig(h_r=1, h_q=1, pca_dim=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite patch vector"):
            RetrievalIndex(("a", "b"), ((), ()), np.full((2, 1, 1), 1e300),
                           model, config)


@pytest.mark.parametrize("bad", [
    (0, 0, 1, 1), Rect(0.5, 0, 1, 1), Rect(2**33, 0, 1, 1),
], ids=["tuple", "float", "beyond-u32"])
def test_rect_otidx1_cannot_store_rejected(rng, bad):
    index, _ = _file_backed_index(rng, n_refs=3)
    patches = index.vectors.shape[1]
    rects = ((Rect(0, 0, 1, 1),) * (patches - 1) + (bad,), (), ())
    with pytest.raises(ValueError, match=r"below 2\*\*32"):
        RetrievalIndex(index.ids, rects, index.vectors, index.model,
                       index.config)


def _self_match_setup(binding_kind, h_r, dim, rng):
    """(references, binding) with five references of ``dim``-d patches."""
    n_refs, n_patches = 5, patch_count(h_r)
    if binding_kind == "toy":
        grid = int(round(dim ** 0.5))
        return _toy_corpus(rng, n=n_refs, size=64), ToyPixelExtractor(grid)
    scale = rng.choice([1e-3, 1.0, 1e3], size=(n_refs * n_patches, 1))
    values = rng.normal(size=(n_refs * n_patches, dim)) * scale
    ids = [f"ref{i}#{k}" for i in range(n_refs) for k in range(n_patches)]
    store = FeatureMatrix(tuple(ids), values)
    return [(f"ref{i}", None) for i in range(n_refs)], \
        FileBackedExtractor(store)


class TestSelfMatchExactlyZero:
    """The index projects each reference's patches with one product over
    a block of patch_count(h_r) rows, and a query's patch j sits at row
    j mod patch_count(h_r) of its own blocks (the last zero-padded).  A
    query made of a reference's raw rows therefore reproduces that
    reference's stored vectors bit for bit and ranks it first at 0.0.
    With h_q > h_r the query repeats the reference's rows in order, so
    the patches past patch_count(h_r) land in the padded block.  The toy
    extractor gives d = g * g: 9, 64 and 784 stand in for 12, 64, 768.
    """

    @pytest.mark.parametrize("binding_kind, dim", [
        ("file", 12), ("file", 64), ("file", 768),
        ("toy", 9), ("toy", 64), ("toy", 784),
    ])
    @pytest.mark.parametrize("h_r, h_q", [(3, 2), (2, 2), (2, 3), (3, 1)])
    def test_reference_rows_as_query(self, binding_kind, dim, h_r, h_q):
        rng = np.random.default_rng(1000 * h_r + 100 * h_q + dim)
        refs, binding = _self_match_setup(binding_kind, h_r, dim, rng)
        cfg = SpatialSearchConfig(h_r=h_r, h_q=h_q, pca_dim=500)
        with pytest.warns(UserWarning):
            index = _build(refs, cfg, binding)
        tile = np.arange(patch_count(h_q)) % patch_count(h_r)
        _, raws = extract_patches(binding, refs, h_r)
        for (ref_id, image), raw in zip(refs, np.split(raws, len(refs))):
            assert search(index, raw[tile], top_k=1) == [(ref_id, 0.0)]
            if binding_kind == "toy" and h_q <= h_r:
                assert _search(index, image, binding, top_k=1) == [
                    (ref_id, 0.0)
                ]


class TestOtidx1Fixture:
    """A small OTIDX1 index committed with its queries and ranking.

    ``tests/data/otidx1_small.idx`` holds 4 references x 5 patches
    (h_r = h_q = 2) of seeded 12-d rows with the chain at k = 8;
    ``otidx1_small_queries.tsv`` holds the raw rows of three queries (a
    copy of ref2, ref0 plus noise, random rows) and
    ``otidx1_small_ranking.tsv`` their top-4 rankings.  All three were
    written by ``save_index``, ``save_features`` and ``search`` before
    the per-image block product, and are never regenerated: they pin the
    legacy format and the rankings it must keep giving.
    """

    def test_load_then_search_reproduces_ranking(self):
        index = load_index(DATA / "otidx1_small.idx")
        rows = load_features(DATA / "otidx1_small_queries.tsv")
        queries = {}
        for rep_id, row in zip(rows.ids, rows.values):
            queries.setdefault(rep_id.rpartition("#")[0], []).append(row)
        lines = [
            f"{qid}\t{rank}\t{ref_id}\t{fmt_float(dist)}"
            for qid, raw in queries.items()
            for rank, (ref_id, dist) in enumerate(
                search(index, np.stack(raw), top_k=4), 1
            )
        ]
        expected = (DATA / "otidx1_small_ranking.tsv").read_text()
        assert "\n".join(lines) + "\n" == expected
        assert lines[0] == "q0\t1\tref2\t0.0"

    def test_load_then_save_reproduces_bytes(self, tmp_path):
        p = tmp_path / "again.idx"
        save_index(load_index(DATA / "otidx1_small.idx"), p)
        assert p.read_bytes() == (DATA / "otidx1_small.idx").read_bytes()

    @staticmethod
    def _assert_query_fails(tmp_path, index_path) -> None:
        """``featkit query`` on the fixture's three queries exits 2 and
        writes no ranking file."""
        from featkit.cli import main as cli_main

        manifest = tmp_path / "queries.tsv"
        manifest.write_text("q0\tx\nq1\tx\nq2\tx\n")
        out = tmp_path / "ranking.tsv"
        assert cli_main([
            "query", "--index", str(index_path), "--queries", str(manifest),
            "--extractor", "file",
            "--features", str(DATA / "otidx1_small_queries.tsv"),
            "--top-k", "4", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_non_finite_vector_rejected_by_library_and_cli(self, tmp_path,
                                                           capsys):
        blob = bytearray((DATA / "otidx1_small.idx").read_bytes())
        blob[-4:] = np.float32(np.nan).astype("<f4").tobytes()
        bad = tmp_path / "nan.idx"
        bad.write_bytes(bytes(blob))
        with pytest.raises(MalformedFile, match="non-finite"):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)
        assert "non-finite" in capsys.readouterr().err

    @staticmethod
    def _split(blob: bytes):
        """(config line end, chain text lines, offset after the chain)."""
        off = blob.index(b"\n", len(b"OTIDX1\n")) + 1
        (mlen,) = struct.unpack_from("<I", blob, off)
        text = blob[off + 4 : off + 4 + mlen].decode("utf-8")
        return off, text.split("\n"), off + 4 + mlen

    @pytest.mark.parametrize("line, cell, value", [
        (None, 3, "nan"),  # config line: power
        (None, 4, "inf"),  # config line: epsilon
        (1, 2, "nan"),     # chain size line: epsilon
        (2, 0, "nan"),     # mean
        (3, 0, "nan"),     # first component row
        (3, 1, "-inf"),    # first component row
        (11, 0, "inf"),    # eigenvalues (k = 8)
    ])
    def test_non_finite_chain_rejected_by_library_and_cli(
            self, tmp_path, line, cell, value):
        blob = (DATA / "otidx1_small.idx").read_bytes()
        off, lines, end = self._split(blob)
        head = blob[:off]
        if line is None:
            cfg = blob[len(b"OTIDX1\n") : off - 1].decode().split("\t")
            cfg[cell] = value
            head = b"OTIDX1\n" + "\t".join(cfg).encode() + b"\n"
        else:
            cells = lines[line].split("\t")
            cells[cell] = value
            lines[line] = "\t".join(cells)
        text = "\n".join(lines).encode()
        bad = tmp_path / "bad.idx"
        bad.write_bytes(head + struct.pack("<I", len(text)) + text
                        + blob[end:])
        with pytest.raises(MalformedFile):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", 0.5),  # against the chain's 1e-10
        ("pca_dim", 7),    # below the chain's k = 8
    ])
    def test_config_disagreeing_with_chain_rejected_by_library_and_cli(
            self, tmp_path, capsys, field, value):
        blob = (DATA / "otidx1_small.idx").read_bytes()
        off = self._split(blob)[0]
        cfg = blob[len(b"OTIDX1\n") : off - 1].decode().split("\t")
        cfg[[f.name for f in fields(SpatialSearchConfig)].index(field)] = (
            str(value))
        bad = tmp_path / "disagree.idx"
        bad.write_bytes(b"OTIDX1\n" + "\t".join(cfg).encode() + b"\n"
                        + blob[off:])
        with pytest.raises(MalformedFile, match="disagrees") as err:
            load_index(bad)
        assert str(bad) in str(err.value)
        self._assert_query_fails(tmp_path, bad)
        assert "disagrees" in capsys.readouterr().err
        index = load_index(DATA / "otidx1_small.idx")
        with pytest.raises(ValueError, match="disagrees"):
            RetrievalIndex(index.ids, index.rects, index.vectors, index.model,
                           replace(index.config, **{field: value}))

    def test_content_after_chain_rejected_by_library_and_cli(self,
                                                            tmp_path):
        blob = (DATA / "otidx1_small.idx").read_bytes()
        off, lines, end = self._split(blob)
        text = ("\n".join(lines) + "not a number\n").encode()
        bad = tmp_path / "tail.idx"
        bad.write_bytes(blob[:off] + struct.pack("<I", len(text)) + text
                        + blob[end:])
        with pytest.raises(MalformedFile, match="end the model"):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)

    @pytest.mark.parametrize("ref_id", [b"", b"r\t0", b"r\r0", b"ref1"])
    def test_bad_reference_id_rejected_by_library_and_cli(self, tmp_path,
                                                          ref_id):
        blob = (DATA / "otidx1_small.idx").read_bytes()
        _, _, end = self._split(blob)
        start = end + 4  # the first id, "ref0"
        bad = tmp_path / "id.idx"
        bad.write_bytes(blob[:start] + ref_id
                        + blob[blob.index(b"\n", start):])
        with pytest.raises(MalformedFile, match="reference id"):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)

    @pytest.mark.parametrize("where", ["chain", "id"])
    def test_undecodable_text_rejected_by_library_and_cli(self, tmp_path,
                                                          where):
        blob = bytearray((DATA / "otidx1_small.idx").read_bytes())
        off, _, end = self._split(bytes(blob))
        blob[off + 4 + 5 if where == "chain" else end + 4] = 0xFF
        bad = tmp_path / "utf8.idx"
        bad.write_bytes(bytes(blob))
        with pytest.raises(MalformedFile, match=re.escape(f"{bad}: 'utf-8'")):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)

    def test_zero_sized_rect_rejected_by_library_and_cli(self, tmp_path,
                                                         capsys):
        blob = (DATA / "otidx1_small.idx").read_bytes()
        _, _, end = self._split(blob)
        pos = blob.index(b"\n", end + 4) + 1  # the first rect count, 0
        rects = [(0, 0, 4, 4)] * 5
        rects[2] = (0, 0, 0, 4)
        bad = tmp_path / "rect.idx"
        bad.write_bytes(
            blob[:pos] + struct.pack("<I", 5)
            + b"".join(struct.pack("<IIII", *r) for r in rects)
            + blob[pos + 4:]
        )
        message = "rect sides must be positive"
        with pytest.raises(MalformedFile,
                           match=re.escape(f"{bad}: {message}")):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_references_rejected(self, tmp_path, count):
        blob = (DATA / "otidx1_small.idx").read_bytes()
        _, _, end = self._split(blob)
        pos = end + 4
        for _ in range(count):
            pos = blob.index(b"\n", pos) + 1
            (n_rects,) = struct.unpack_from("<I", blob, pos)
            pos += 4 + 16 * n_rects
            n, k = struct.unpack_from("<II", blob, pos)
            pos += 8 + 4 * n * k
        bad = tmp_path / "few.idx"
        bad.write_bytes(blob[:end] + struct.pack("<I", count)
                        + blob[end + 4 : pos])
        with pytest.raises(MalformedFile, match="two references"):
            load_index(bad)
        self._assert_query_fails(tmp_path, bad)
