"""Multi-level spatial-search instance retrieval.

Each image yields i**2 equally sized, overlapping patches at level i
(level 1 is the whole image); a reference indexed at ``h_r`` levels
carries sum(i**2, i=1..h_r) patches.  Patch features are pushed through
the fitted processing chain and stored as float32.  The query-to-
reference distance is the mean, over query patches, of the minimum L2
distance to any reference patch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateImage,
    DimMismatch,
    EmptyInput,
    MalformedFile,
)
from .extractors import TransformPlan
from .features import (
    FeatureMatrix,
    Rect,
    check_ids,
    fmt_float,
    iround,
    smallest_enclosing_square,
)
from .preprocess import (
    PcaWhitenModel,
    PipelineConfig,
    dump_pca_model_text,
    parse_pca_model_text,
    retrieval_pipeline_apply,
    retrieval_pipeline_fit,
)

INDEX_MAGIC = b"OTIDX1\n"


@dataclass(frozen=True)
class SpatialSearchConfig:
    h_r: int = 4
    h_q: int = 3
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if self.h_r < 1 or self.h_q < 1:
            raise ValueError("h_r and h_q must be at least 1")


@dataclass(frozen=True)
class RetrievalIndex:
    """N references: their ids, the source rects of each one's P =
    patch_count(h_r) patches (empty when the binding has no image
    geometry) and all processed patch vectors as one (N, P, k) float32
    block, reference after reference."""

    ids: tuple
    rects: tuple
    vectors: np.ndarray
    model: PcaWhitenModel
    config: SpatialSearchConfig

    def __post_init__(self):
        ids, rects = tuple(self.ids), tuple(map(tuple, self.rects))
        check_ids(ids, "reference id")
        if len(ids) < 2:
            raise ValueError("an index needs at least two references")
        v = np.ascontiguousarray(self.vectors, dtype=np.float32)
        expected = (len(ids), patch_count(self.config.h_r), self.model.k)
        if v.shape != expected:
            raise ValueError(f"patch block {v.shape}, expected {expected}")
        finite = np.isfinite(v).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"reference {ids[np.argmin(finite)]!r} has a "
                             "non-finite patch vector")
        if len(rects) != len(ids) or any(
                r and len(r) != expected[1] for r in rects):
            raise ValueError("rect count does not match patch count")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rects", rects)
        object.__setattr__(self, "vectors", v)

    @cached_property
    def patch_matrix(self):
        """The patch block as one (N * P, k) float64 matrix with its
        squared row norms; built on first use."""
        refs = self.vectors.reshape(-1, self.model.k).astype(np.float64)
        return refs, np.einsum("ij,ij->i", refs, refs)


def patch_count(levels: int) -> int:
    return sum(i * i for i in range(1, levels + 1))


def patch_grid(width: int, height: int, level: int) -> list:
    """The i**2 overlapping same-size patches of level ``level``.

    Patch side is round(2L / (i + 1)) per axis and the i positions per
    axis run evenly from 0 to L - side, giving roughly 50% overlap and
    full coverage; level 1 is the whole image.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    side_w = iround(width * 2.0 / (level + 1))
    side_h = iround(height * 2.0 / (level + 1))
    if side_w < 1 or side_h < 1:
        raise DegenerateImage(
            f"level {level} patches collapse on a {width}x{height} image"
        )
    if level == 1:
        return [Rect(0, 0, side_w, side_h)]
    xs = [iround(t * (width - side_w) / (level - 1)) for t in range(level)]
    ys = [iround(t * (height - side_h) / (level - 1)) for t in range(level)]
    return [Rect(x, y, side_w, side_h) for y in ys for x in xs]


def level_rects(width: int, height: int, levels: int) -> list:
    out = []
    for i in range(1, levels + 1):
        out.extend(patch_grid(width, height, i))
    return out


def extract_patches(binding, images, levels: int):
    """The rects of each (id, image) pair's patches (none when the binding
    has no image geometry), and all their raw patches as one
    (images * patch_count(levels), dim) block, image after image, from
    one ``binding.extract_batch`` call of ``image_id#k`` requests."""
    if levels < 1:
        raise ValueError("patch levels must be at least 1")
    rects, requests = [], []
    for image_id, image in images:
        size = binding.image_size(image)
        if size is None:
            rects.append(())
            plans = [TransformPlan()] * patch_count(levels)
        else:
            rects.append(tuple(level_rects(*size, levels)))
            plans = [TransformPlan(crop=smallest_enclosing_square(r, *size))
                     for r in rects[-1]]
        requests += [(f"{image_id}#{k}", image, plan)
                     for k, plan in enumerate(plans)]
    return rects, binding.extract_batch(requests)


def build_index(references, config: SpatialSearchConfig, binding
                ) -> RetrievalIndex:
    """Extract all reference patches, fit the chain on them, store both.

    ``references`` is a sequence of (id, image) pairs, with images as the
    binding takes them (see :mod:`featkit.extractors`).
    """
    refs = list(references)
    if len(refs) < 2:
        raise EmptyInput("index construction needs at least two references")
    per_ref = patch_count(config.h_r)
    rects, raw = extract_patches(binding, refs, config.h_r)
    model = retrieval_pipeline_fit(raw, config.pipeline)
    processed = retrieval_pipeline_apply(model, config.pipeline, raw,
                                         block=per_ref)
    return RetrievalIndex(tuple(ref_id for ref_id, _ in refs), rects,
                          processed.reshape(len(refs), per_ref, -1),
                          model, config)


def query_distance(query_vecs, ref_vectors):
    """Mean over query patches of the min distance to a reference.

    ``ref_vectors`` is one reference's (P, k) patches, giving a float,
    or a stack of C references (C, P, k), giving a (C,) array.  Each
    distance equals, bit for bit, the brute-force form that takes every
    pair distance as ``sqrt(sum((q_i - r_j)**2))`` and reduces with min,
    then mean.  One matrix product gives every approximate pair distance
    (``|q|^2 + |r|^2 - 2 q.r``, clamped at zero); only the pairs within
    twice a rounding bound of their query patch's approximate minimum
    over that reference get the exact form, with the same reductions.
    """
    q = np.asarray(query_vecs, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] < 1:
        raise EmptyInput("need at least one query patch")
    r = np.asarray(ref_vectors, dtype=np.float64)
    if r.ndim not in (2, 3) or q.shape[1] != r.shape[-1]:
        raise DimMismatch(
            f"query patches {q.shape} vs reference patches {r.shape}"
        )
    c, p, dim = (1, *r.shape) if r.ndim == 2 else r.shape
    m = q.shape[0]
    flat = r.reshape(c * p, dim)
    q_sq = np.einsum("ij,ij->i", q, q)
    r_sq = np.einsum("ij,ij->i", flat, flat)
    approx = q_sq[:, None] + r_sq[None, :] - 2.0 * (q @ flat.T)
    np.sqrt(np.maximum(approx, 0.0, out=approx), out=approx)
    # (C, m, P): reference, query patch, reference patch
    approx = approx.reshape(m, c, p).transpose(1, 0, 2)
    # Pair bound, per reference.  Let u be the unit roundoff and M =
    # max|q_i| + max|r_j| over the query's and that reference's patches,
    # so M bounds every |q_i - r_j| and |q_i| + |r_j|.  Each
    # approximate squared distance sums three length-dim dot products
    # with two additions, so it is within (dim + 2) u M^2 of the true
    # one (to first order); its clamped, rounded root is within
    # sqrt((dim + 2) u) M + u M of the true distance, as |sqrt a -
    # sqrt b| <= sqrt|a - b|.  The exact form rounds each difference,
    # square, partial sum and root: within (dim + 3) u M.  delta doubles
    # the sum of both to cover higher-order rounding.  With every
    # approximate distance within delta of its exact value, the pair
    # with the smallest exact value scores at most its patch's
    # approximate minimum plus 2 delta, so it is kept.  NaN compares
    # false and keeps its pair, so a NaN propagates as in brute force.
    u = np.finfo(np.float64).eps / 2.0
    big_m = np.sqrt(q_sq.max()) + np.sqrt(r_sq.reshape(c, p).max(axis=1))
    delta = 2.0 * big_m * (np.sqrt((dim + 2) * u) + (dim + 4) * u)
    keep = ~(approx > approx.min(axis=2, keepdims=True)
             + 2.0 * delta[:, None, None])
    ci, qi, pj = np.nonzero(keep)
    exact = np.sqrt(((q[qi] - flat[ci * p + pj]) ** 2).sum(axis=1))
    starts = np.searchsorted(ci * m + qi, np.arange(c * m))
    dists = np.minimum.reduceat(exact, starts).reshape(c, m).mean(axis=1)
    return float(dists[0]) if r.ndim == 2 else dists


def query_patch_vectors(index: RetrievalIndex, query, binding,
                        h_q: int | None = None) -> np.ndarray:
    """Processed query patch vectors (float32, like the index side).

    A raw patch matrix (ndarray or FeatureMatrix) must hold exactly
    ``patch_count(h_q)`` finite rows.
    """
    levels = h_q if h_q is not None else index.config.h_q
    if levels < 1:
        raise ValueError("h_q must be at least 1")
    if isinstance(query, FeatureMatrix):
        query = query.values
    if isinstance(query, np.ndarray):
        raw = np.atleast_2d(np.asarray(query, dtype=np.float64))
        if raw.shape[0] != patch_count(levels):
            raise DimMismatch(
                f"query has {raw.shape[0]} patch rows, h_q={levels} "
                f"needs {patch_count(levels)}"
            )
    else:
        _, raw = extract_patches(binding, [("q", query)], levels)
    if not np.all(np.isfinite(raw)):
        raise ValueError("query patch features must be finite")
    processed = retrieval_pipeline_apply(
        index.model, index.config.pipeline, raw,
        block=patch_count(index.config.h_r),
    )
    return processed.astype(np.float32)


def search(index: RetrievalIndex, query, binding=None, *,
           h_q: int | None = None, top_k: int = 10) -> list:
    """Rank references by ascending distance to the query.

    ``query`` may be an image (extracted through ``binding``) or an
    already-extracted raw patch matrix.  Returns at most ``top_k``
    (reference id, distance) pairs; ties order by reference id.

    One GEMM over ``index.patch_matrix`` gives every patch-to-patch
    squared distance as |q|^2 + |r|^2 - 2 q.r, and from it an
    approximate score per reference.  Only the references that can
    still reach the top ``top_k`` are re-ranked, by one stacked
    :func:`query_distance` call, so the result equals brute force
    exactly.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    q = query_patch_vectors(index, query, binding, h_q)
    n_refs = len(index.ids)
    refs, ref_sq = index.patch_matrix
    q64 = q.astype(np.float64)
    q_sq = np.einsum("ij,ij->i", q64, q64)
    sq = q_sq[:, None] + ref_sq[None, :] - 2.0 * (q64 @ refs.T)
    np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    m, dim = q.shape
    approx = sq.reshape(m, n_refs, -1).min(axis=2).mean(axis=0)
    # Candidate bound.  Let u be the unit roundoff and M = max|q_i| +
    # max|r_j|.  Each squared distance above is within (dim + 2) u M^2
    # of the true one (to first order), so its clamped root is within
    # sqrt((dim + 2) u) M of the true distance, as |sqrt a - sqrt b| <=
    # sqrt|a - b|; the roots, min and mean add at most (m + 2) u M.  The
    # exact re-rank is off by at most (dim + m + 3) u M.  delta doubles
    # both terms to cover higher-order rounding.  With every approximate
    # score within delta of its exact one, a reference in the exact top
    # k, ties included, scores at most the k-th smallest approximate
    # score plus 2 delta, so the candidates contain the exact result.
    u = np.finfo(np.float64).eps / 2.0
    big_m = float(np.sqrt(q_sq.max()) + np.sqrt(ref_sq.max()))
    delta = 2.0 * big_m * (np.sqrt((dim + 2) * u) + (dim + 2 * m + 5) * u)
    keep = min(top_k, n_refs)
    kth = np.partition(approx, keep - 1)[keep - 1]
    candidates = np.flatnonzero(approx <= kth + 2.0 * delta)
    dists = query_distance(q, index.vectors[candidates])
    scored = sorted(zip(dists.tolist(), (index.ids[i] for i in candidates)))
    return [(ref_id, dist) for dist, ref_id in scored[:top_k]]


def save_index(index: RetrievalIndex, path) -> None:
    """Binary container; reload reproduces rankings bit-exactly."""
    cfg = index.config
    pl = cfg.pipeline
    model_bytes = dump_pca_model_text(index.model).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        cfg_line = (
            f"{cfg.h_r}\t{cfg.h_q}\t{pl.pca_dim}\t{fmt_float(pl.power)}\t"
            f"{fmt_float(pl.epsilon)}\n"
        )
        fh.write(cfg_line.encode("utf-8"))
        fh.write(struct.pack("<I", len(model_bytes)))
        fh.write(model_bytes)
        fh.write(struct.pack("<I", len(index.ids)))
        shape = struct.pack("<II", *index.vectors.shape[1:])
        for ref_id, rects, block in zip(index.ids, index.rects,
                                        index.vectors):
            fh.write(ref_id.encode("utf-8") + b"\n")
            fh.write(struct.pack("<I", len(rects)))
            for r in rects:
                fh.write(struct.pack("<IIII", r.x, r.y, r.w, r.h))
            fh.write(shape)
            fh.write(block.astype("<f4").tobytes(order="C"))


def load_index(path) -> RetrievalIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(INDEX_MAGIC):
        raise MalformedFile(f"{path}: bad index magic")
    off = len(INDEX_MAGIC)
    nl = blob.find(b"\n", off)
    if nl < 0:
        raise MalformedFile(f"{path}: missing config line")
    try:
        h_r_s, h_q_s, dim_s, pow_s, eps_s = (
            blob[off:nl].decode("utf-8").split("\t")
        )
        config = SpatialSearchConfig(
            int(h_r_s), int(h_q_s),
            PipelineConfig(int(dim_s), float(pow_s), float(eps_s)),
        )
    except (ValueError, UnicodeDecodeError):
        raise MalformedFile(f"{path}: bad config line") from None
    off = nl + 1

    def _u32(pos):
        if pos + 4 > len(blob):
            raise MalformedFile(f"{path}: truncated index")
        return struct.unpack_from("<I", blob, pos)[0], pos + 4

    mlen, off = _u32(off)
    if off + mlen > len(blob):
        raise MalformedFile(f"{path}: truncated model block")
    view = memoryview(blob)
    ids, rects, blocks = [], [], []
    try:
        text = blob[off : off + mlen].decode("utf-8")
        model = parse_pca_model_text(text, path)
        expected = (patch_count(config.h_r), model.k)
        n_refs, off = _u32(off + mlen)
        for _ in range(n_refs):
            nl = blob.find(b"\n", off)
            if nl < 0:
                raise MalformedFile(f"{path}: truncated reference id")
            ids.append(blob[off:nl].decode("utf-8"))
            n_rects, off = _u32(nl + 1)
            if off + 16 * n_rects > len(blob):
                raise MalformedFile(f"{path}: truncated rect block")
            rects.append(tuple(
                Rect(*struct.unpack_from("<IIII", blob, off + 16 * j))
                for j in range(n_rects)
            ))
            n, off = _u32(off + 16 * n_rects)
            k, off = _u32(off)
            if (n, k) != expected:
                raise ValueError(f"reference {ids[-1]!r} has {(n, k)} patch "
                                 f"vectors, expected {expected}")
            blocks.append(view[off : off + n * k * 4])
            off += n * k * 4
            if off > len(blob):
                raise MalformedFile(f"{path}: truncated vector block")
        if off != len(blob):
            raise MalformedFile(f"{path}: trailing bytes")
        vectors = np.frombuffer(b"".join(blocks), dtype="<f4")
        return RetrievalIndex(tuple(ids), tuple(rects),
                              vectors.reshape(-1, *expected), model, config)
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
