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


def pool_responses(values, groups, mode: str = "sum") -> np.ndarray:
    """Pool the rows of ``values`` (n, ...) into one per group, (G, ...).

    ``groups`` numbers each row's group 0..G-1, as from
    :func:`representation_groups`.  Each group is pooled from its own
    rows, taken in row order, with the bits of pooling them alone; only
    one group's rows are copied at a time.
    """
    if mode not in ("sum", "max"):
        raise ValueError(f"unknown pooling mode {mode!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] == 0:
        raise EmptyInput("no responses to pool")
    if len(groups) != values.shape[0]:
        raise ValueError(f"{len(groups)} groups for {values.shape[0]} rows")
    order = np.argsort(groups, kind="stable")
    runs = np.split(order, np.cumsum(np.bincount(groups))[:-1])
    return np.stack([getattr(values[rows], mode)(axis=0) for rows in runs])


def plan_representation_id(sample_id: str, plan_index: int) -> str:
    """Key under which a (sample, plan) feature row is stored or looked up."""
    return f"{sample_id}#{plan_index}"


def representation_groups(ids) -> tuple:
    """The sample ids of ``ids`` in first-appearance order and each row's
    group index, the inverse of :func:`plan_representation_id`; an id
    that does not end in ``#`` and ASCII digits is its own group.
    ValueError names two ids read as one: a plain id equal to another's
    sample id, or two spellings of one view (``a#7`` and ``a#07``)."""
    views, groups = {}, []
    for rep_id in ids:
        base, sep, k = rep_id.rpartition("#")
        if not (sep and k.isascii() and k.isdigit()):
            base, k = rep_id, None
        view = k and (k.lstrip("0") or "0")
        g, named = views.setdefault(base, (len(views), {}))
        clash = (next(iter(named.values()), None) if view is None
                 else named.get(None, named.get(view)))
        if clash is not None:
            raise ValueError(
                f"ambiguous representation ids {clash!r} and {rep_id!r}")
        named[view] = rep_id
        groups.append(g)
    return tuple(views), np.asarray(groups, dtype=np.intp)


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
