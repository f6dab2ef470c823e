"""Multi-level spatial-search instance retrieval.

Each image yields i**2 equally sized, overlapping patches at level i
(level 1 is the whole image); a reference indexed at ``h_r`` levels
carries sum(i**2, i=1..h_r) patches.  Patch features are pushed through
the fitted processing chain and stored as float32.  The query-to-
reference distance is the mean, over query patches, of the minimum L2
distance to any reference patch.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .augment import plan_representation_id
from .errors import (
    DegenerateImage,
    DimMismatch,
    EmptyInput,
    MalformedFile,
)
from .extractors import TransformPlan
from .features import (
    BinaryReader,
    Rect,
    check_ids,
    first_nonfinite_row,
    fmt_float,
    iround,
    smallest_enclosing_square,
)
from .preprocess import (
    PcaWhitenModel,
    check_count,
    check_power_epsilon,
    dump_pca_model_text,
    parse_pca_model_text,
    retrieval_pipeline_apply,
    retrieval_pipeline_fit,
)

INDEX_MAGIC = b"OTIDX1\n"


@dataclass(frozen=True)
class SpatialSearchConfig:
    """An OTIDX1 config line: patch levels, then the chain's values."""

    h_r: int = 4
    h_q: int = 3
    pca_dim: int = 500
    power: float = 2.0
    epsilon: float = 1e-10

    def __post_init__(self):
        check_count("h_r and h_q", self.h_r, self.h_q)
        check_count("pca_dim", self.pca_dim)
        check_power_epsilon(self.power, self.epsilon)
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class RetrievalIndex:
    """N references: their ids, the source rects of each one's P =
    patch_count(h_r) patches (empty when the binding has no image
    geometry) and all processed patch vectors as one (N, P, k) float32
    block, reference after reference.  The chain must be the one the
    config fits: the config's epsilon and at most ``pca_dim`` columns."""

    ids: tuple
    rects: tuple
    vectors: np.ndarray
    model: PcaWhitenModel
    config: SpatialSearchConfig

    def __post_init__(self):
        ids = tuple(self.ids)
        try:
            rects = tuple(map(tuple, self.rects))
        except TypeError:
            raise ValueError("rects must be rect sequences") from None
        check_ids(ids, "reference id")
        if len(ids) < 2:
            raise ValueError("an index needs at least two references")
        if not (self.model.epsilon == self.config.epsilon
                and self.model.k <= self.config.pca_dim):
            raise ValueError("config pca_dim or epsilon disagrees with the "
                             "chain")
        # A value beyond float32's range casts to inf, refused below.
        with np.errstate(over="ignore"):
            v = np.ascontiguousarray(self.vectors, dtype=np.float32)
        expected = (len(ids), patch_count(self.config.h_r), self.model.k)
        if v.shape != expected:
            raise ValueError(f"patch block {v.shape}, expected {expected}")
        bad = first_nonfinite_row(v.reshape(len(ids), -1))
        if bad is not None:
            raise ValueError(f"reference {ids[bad]!r} has a non-finite "
                             "patch vector")
        if len(rects) != len(ids) or any(
                r and len(r) != expected[1] for r in rects):
            raise ValueError("rect count does not match patch count")
        for r in itertools.chain.from_iterable(rects):
            # OTIDX1 stores each rect as four u32 fields.
            if not (isinstance(r, Rect) and all(
                    isinstance(v, int) and v < 2**32
                    for v in (r.x, r.y, r.w, r.h))):
                raise ValueError(f"rect {r!r} is not a Rect of integers "
                                 "below 2**32")
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
    return levels * (levels + 1) * (2 * levels + 1) // 6


def patch_grid(width: int, height: int, level: int) -> list:
    """The i**2 overlapping same-size patches of level ``level``.

    Patch side is round(2L / (i + 1)) per axis and the i positions per
    axis run evenly from 0 to L - side, giving roughly 50% overlap and
    full coverage; level 1 is the whole image.
    """
    check_count("level", level)
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
    check_count("patch levels", levels)
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
        requests += [(plan_representation_id(image_id, k), image, plan)
                     for k, plan in enumerate(plans)]
    return rects, binding.extract_batch(requests)


def build_index(ids, rects, raw, config: SpatialSearchConfig
                ) -> RetrievalIndex:
    """Fit the chain on the references' raw patch rows and store the
    processed patches.

    ``raw`` holds patch_count(h_r) rows per id, reference after
    reference, and ``rects`` each reference's source rects (empty when
    the binding has no image geometry), as :func:`extract_patches` gives
    them.
    """
    ids = tuple(ids)
    if len(ids) < 2:
        raise EmptyInput("index construction needs at least two references")
    per_ref = patch_count(config.h_r)
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] != len(ids) * per_ref:
        raise DimMismatch(f"raw patch block {raw.shape}, expected "
                          f"{len(ids)} x {per_ref} rows")
    bad = first_nonfinite_row(raw)
    if bad is not None:
        raise ValueError(f"reference {ids[bad // per_ref]!r} has a "
                         "non-finite patch value")
    model = retrieval_pipeline_fit(raw, config.pca_dim, config.epsilon)
    vectors = _chain_patches(model, config, raw).reshape(len(ids), per_ref, -1)
    return RetrievalIndex(ids, rects, vectors, model, config)


def _chain_patches(model: PcaWhitenModel, config: SpatialSearchConfig,
                   raw: np.ndarray) -> np.ndarray:
    """The chain over raw patch rows (n, d) in blocks of patch_count(h_r)
    rows, the last zero-padded.  A query's patch j sits where its
    reference twin sat, so a self-match reads exactly 0.0; pad values
    never reach the real rows' bits."""
    n, d = raw.shape
    p = patch_count(config.h_r)
    if n % p:
        raw = np.concatenate([raw, np.zeros((p - n % p, d))])
    out = retrieval_pipeline_apply(model, config.power, raw.reshape(-1, p, d))
    return out.reshape(-1, model.k)[:n]


def _patch_scores(q, flat, flat_sq, p, top_k=None):
    """Positions and distances of the references in the (C * P, dim)
    patch matrix ``flat`` (squared row norms ``flat_sq``) from the query
    patches ``q``: all C, or with ``top_k`` those that can still reach
    the top ``top_k``.  Each distance equals, bit for bit, the brute-
    force min over ``sqrt(sum((q_i - r_j)**2))``, then mean."""
    m, dim = q.shape
    q_sq = np.einsum("ij,ij->i", q, q)
    approx = q_sq[:, None] + flat_sq[None, :] - 2.0 * (q @ flat.T)
    np.sqrt(np.maximum(approx, 0.0, out=approx), out=approx)
    # (m, C, P): query patch, reference, reference patch
    approx = approx.reshape(m, -1, p)
    # One bound for both stages.  Let u be the unit roundoff and M =
    # max|q_i| + max|r_j|, which bounds every |q_i - r_j| and |q_i| +
    # |r_j|.  An approximate squared distance (three length-dim dot
    # products, two additions) is within (dim + 2) u M^2 of the true one
    # to first order, so its clamped, rounded root is within sqrt((dim +
    # 2) u) M + u M of the true distance, as |sqrt a - sqrt b| <= sqrt|a
    # - b|.  The exact form is within (dim + 3) u M.  The mean adds (m +
    # 1) u M to an approximate score and m u M to an exact one, so the
    # scores differ by at most sqrt((dim + 2) u) M + (dim + 2m + 5) u M,
    # which covers a pair's (dim + 4) u M term as m >= 1; delta doubles
    # it for higher-order rounding.  So a reference in the exact top k,
    # ties included, scores at most the k-th approximate score plus 2
    # delta, and a patch's exact nearest pair at most its approximate
    # minimum plus 2 delta.  NaN compares false and keeps its pair.
    u = np.finfo(np.float64).eps / 2.0
    big_m = np.sqrt(q_sq.max()) + np.sqrt(flat_sq.max(initial=0.0))
    delta = 2.0 * big_m * (np.sqrt((dim + 2) * u) + (dim + 2 * m + 5) * u)
    refs = np.arange(approx.shape[1])
    if top_k is not None:
        scores = approx.min(axis=2).mean(axis=0)
        k = min(top_k, len(refs)) - 1
        kth = np.partition(scores, k)[k]
        refs = np.flatnonzero(scores <= kth + 2.0 * delta)
        approx = approx[:, refs]
    approx = approx.transpose(1, 0, 2)
    keep = ~(approx > approx.min(axis=2, keepdims=True) + 2.0 * delta)
    ci, qi, pj = np.nonzero(keep)
    exact = np.sqrt(((q[qi] - flat[refs[ci] * p + pj]) ** 2).sum(axis=1))
    starts = np.searchsorted(ci * m + qi, np.arange(len(refs) * m))
    dists = np.minimum.reduceat(exact, starts).reshape(-1, m).mean(axis=1)
    return refs, dists


def query_distance(query_vecs, ref_vectors):
    """Mean over query patches of the min distance to a reference: a
    float for one reference's (P, k) patches, a (C,) array for a (C, P,
    k) stack, scored as :func:`search` scores, equal to brute force."""
    q = np.asarray(query_vecs, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] < 1:
        raise EmptyInput("need at least one query patch")
    r = np.asarray(ref_vectors, dtype=np.float64)
    if r.ndim not in (2, 3) or q.shape[1] != r.shape[-1]:
        raise DimMismatch(
            f"query patches {q.shape} vs reference patches {r.shape}"
        )
    flat = r.reshape(-1, r.shape[-1])
    _, dists = _patch_scores(q, flat, np.einsum("ij,ij->i", flat, flat),
                             r.shape[-2])
    return float(dists[0]) if r.ndim == 2 else dists


def query_patch_vectors(index: RetrievalIndex, raw) -> np.ndarray:
    """One query's processed patch vectors (float32, like the index
    side) from its raw patch rows: exactly ``patch_count(h_q)`` finite
    rows."""
    rows = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    need = patch_count(index.config.h_q)
    if rows.ndim != 2 or rows.shape[0] != need:
        raise DimMismatch(f"query patch rows {rows.shape}, "
                          f"h_q={index.config.h_q} needs {need}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("query patch features must be finite")
    return _chain_patches(index.model, index.config, rows).astype(np.float32)


def search(index: RetrievalIndex, raw, *, top_k: int = 10) -> list:
    """Rank references by ascending distance to one query, given as its
    raw patch rows (see :func:`query_patch_vectors`).  Returns at most
    ``top_k`` (reference id, distance) pairs; ties order by reference id.

    One product over ``index.patch_matrix`` gives every approximate
    patch distance; the references that can still reach the top
    ``top_k`` are scored exactly from it, as brute force scores them.
    """
    check_count("top_k", top_k)
    q = query_patch_vectors(index, raw).astype(np.float64)
    candidates, dists = _patch_scores(q, *index.patch_matrix,
                                      index.vectors.shape[1], top_k)
    scored = sorted(zip(dists.tolist(), (index.ids[i] for i in candidates)))
    return [(ref_id, dist) for dist, ref_id in scored[:top_k]]


def save_index(index: RetrievalIndex, path) -> None:
    """Binary container; reload reproduces rankings bit-exactly."""
    cfg = index.config
    model_bytes = dump_pca_model_text(index.model).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        cfg_line = (
            f"{cfg.h_r}\t{cfg.h_q}\t{cfg.pca_dim}\t{fmt_float(cfg.power)}\t"
            f"{fmt_float(cfg.epsilon)}\n"
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
        reader = BinaryReader(path, fh, INDEX_MAGIC)
        try:
            (cfg,) = reader.lines("config line", 1)
            h_r, h_q, dim, power, eps = cfg.split("\t")
            config = SpatialSearchConfig(int(h_r), int(h_q), int(dim),
                                         float(power), float(eps))
        except ValueError:
            raise MalformedFile(f"{path}: bad config line") from None
        try:
            (mlen,) = reader.values("model length", "<u4", 1).tolist()
            text = str(reader.values("model block", np.uint8, mlen), "utf-8")
            model = parse_pca_model_text(text, path)
            expected = (patch_count(config.h_r), model.k)
            (n_refs,) = reader.values("reference count", "<u4", 1).tolist()
            vectors = reader.empty("vector block", "<f4", n_refs, *expected)
            ids, rects = [], []
            for block in vectors:
                ids += reader.lines("reference id", 1)
                (n_rects,) = reader.values("rect count", "<u4", 1).tolist()
                corners = reader.values("rect block", "<u4", n_rects, 4)
                rects.append(tuple(Rect(*r) for r in corners.tolist()))
                shape = tuple(reader.values("vector shape", "<u4", 2).tolist())
                if shape != expected:
                    raise ValueError(f"reference {ids[-1]!r} has {shape} "
                                     f"patch vectors, expected {expected}")
                reader.into("vector block", block)
            reader.end()
            return RetrievalIndex(ids, rects, vectors, model, config)
        except ValueError as exc:
            raise MalformedFile(f"{path}: {exc}") from exc
