"""Geometric augmentation planning and test-time response pooling.

Plans are :class:`TransformPlan` geometry (see :mod:`featkit.extractors`);
pixel resampling is the extractor's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .errors import DegenerateImage, EmptyInput
from .extractors import TransformPlan
from .features import FeatureMatrix, Rect, iround


@dataclass(frozen=True)
class AugmentConfig:
    rotation_angles: tuple = (20.0, -20.0)
    crop_area_fraction: float = 4.0 / 9.0

    def __post_init__(self):
        if len(self.rotation_angles) != 2:
            raise ValueError("expected exactly two rotation angles")
        if not 0.0 < self.crop_area_fraction <= 1.0:
            raise ValueError("crop_area_fraction must be in (0, 1]")


def crop_rects(width: int, height: int, fraction: float) -> list:
    """Four corner crops plus a centred one, each covering ``fraction``
    of the image area (side scale sqrt(fraction) per axis, rounded)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    s = math.sqrt(fraction)
    cw, ch = iround(s * width), iround(s * height)
    if cw < 1 or ch < 1:
        raise DegenerateImage(
            f"{width}x{height} crop at fraction {fraction} collapses"
        )
    dx, dy = width - cw, height - ch
    return [
        Rect(0, 0, cw, ch),
        Rect(dx, 0, cw, ch),
        Rect(0, dy, cw, ch),
        Rect(dx, dy, cw, ch),
        Rect(dx // 2, dy // 2, cw, ch),
    ]


def augmentation_plans(width: int, height: int,
                       cfg: AugmentConfig = AugmentConfig()) -> list:
    """The 16-representation recipe: original, 5 crops, 2 rotations,
    then the mirrored copy of each, in that order."""
    base = [TransformPlan()]
    base += [TransformPlan(crop=r) for r in
             crop_rects(width, height, cfg.crop_area_fraction)]
    base += [TransformPlan(rotation_degrees=a) for a in cfg.rotation_angles]
    return base + [p.mirror_toggled() for p in base]


def positive_mirror_plans() -> list:
    """Identity plus its mirror, for positive-set doubling."""
    return [TransformPlan(), TransformPlan(mirrored=True)]


def quadrant_rects(width: int, height: int) -> list:
    """Exact 2x2 tiling; left/top tiles take the extra pixel when odd."""
    if width < 2 or height < 2:
        raise DegenerateImage(
            f"{width}x{height} image cannot be split into quadrants"
        )
    lw, th = (width + 1) // 2, (height + 1) // 2
    rw, bh = width - lw, height - th
    return [
        Rect(0, 0, lw, th),
        Rect(lw, 0, rw, th),
        Rect(0, th, lw, bh),
        Rect(lw, th, rw, bh),
    ]


def negative_expansion_plans(width: int, height: int) -> list:
    """Identity, mirror, the four quadrants, and the mirrored quadrants."""
    quads = [TransformPlan(crop=r) for r in quadrant_rects(width, height)]
    return (
        [TransformPlan(), TransformPlan(mirrored=True)]
        + quads
        + [p.mirror_toggled() for p in quads]
    )


def pool_responses(scores, mode: str = "sum"):
    """Fuse per-representation decision values into one score.

    ``scores`` holds one value per representation, or an (r, M) block
    of r representations by M models, pooled per column into (M,).
    Each column is pooled as a contiguous run, so a block column gets
    the bits of the same values pooled on their own.
    """
    if not isinstance(scores, np.ndarray):
        scores = list(scores)
    vals = np.asarray(scores, dtype=np.float64)
    if vals.size == 0:
        raise EmptyInput("no responses to pool")
    cols = np.ascontiguousarray(vals.T)
    if mode == "sum":
        pooled = cols.sum(axis=-1)
    elif mode == "max":
        pooled = cols.max(axis=-1)
    else:
        raise ValueError(f"unknown pooling mode {mode!r}")
    return float(pooled) if vals.ndim == 1 else pooled


def plan_representation_id(sample_id: str, plan_index: int) -> str:
    """Key under which a (sample, plan) feature row is stored or looked up."""
    return f"{sample_id}#{plan_index}"


def representation_groups(ids) -> dict:
    """Row indices of ``ids`` under their sample id, the inverse of
    :func:`plan_representation_id`; an id that does not end in ``#`` and
    ASCII digits is its own group."""
    groups: dict = {}
    for i, rep_id in enumerate(ids):
        base, sep, k = rep_id.rpartition("#")
        key = base if sep and k.isascii() and k.isdigit() else rep_id
        groups.setdefault(key, []).append(i)
    return groups


def augment_training_set(binding, samples, plans, labels):
    """Expand samples through plans into L2-normalized training rows.

    ``samples`` is a sequence of (id, image) pairs, with images as the
    binding takes them (see :mod:`featkit.extractors`); file-backed
    lookups use ``id#plan_index`` keys.  Every row comes from one
    ``extract_batch`` call.  Returns the augmented matrix plus the
    row-id -> label mapping; rows are ordered sample-major then by plan
    index.
    """
    if not plans:
        raise EmptyInput("no transform plans")
    requests = []
    out_labels = {}
    for sid, image in samples:
        if sid not in labels:
            raise ValueError(f"sample {sid!r} has no label")
        for k, plan in enumerate(plans):
            rep_id = plan_representation_id(sid, k)
            requests.append((rep_id, image, plan))
            out_labels[rep_id] = labels[sid]
    rows = binding.extract_batch(requests)
    ids = tuple(rep_id for rep_id, _, _ in requests)
    return FeatureMatrix(ids, preprocess._unit_rows(rows)), out_labels
