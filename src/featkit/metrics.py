"""Evaluation metrics: PR curve, average precision, confusion accuracy,
and recall at top k.

Score ties are always resolved by original sample order, so every metric
is deterministic for a fixed input ordering.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptyClassRow,
    EmptyInput,
    EmptyRelevantSet,
    NoPositives,
    UnknownLabel,
)
from .features import fmt_float


def _ranked_labels(scores, labels) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError("scores and labels must be equal-length 1-D")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not y.any():
        raise NoPositives("no positive labels")
    order = np.argsort(-s, kind="stable")
    return y[order]


def pr_curve(scores, labels) -> list:
    """(recall, precision) points, one per positive hit in rank order."""
    ranked = _ranked_labels(scores, labels)
    n_pos = int(ranked.sum())
    hits = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    pos = np.flatnonzero(ranked)
    return [
        (hits[i] / n_pos, hits[i] / ranks[i]) for i in pos
    ]


def average_precision(scores, labels, mode: str = "all_points") -> float:
    """AP of a ranking.

    ``all_points`` averages precision at every positive's rank;
    ``eleven_point`` averages the max precision at recall >= r for
    r in {0.0, 0.1, ..., 1.0}.
    """
    if mode not in ("all_points", "eleven_point"):
        raise ValueError(f"unknown AP mode {mode!r}")
    points = pr_curve(scores, labels)
    if mode == "all_points":
        # sequential accumulation, matching the defining prefix formula
        precisions = [float(p) for _, p in points]
        return sum(precisions) / len(precisions)
    total = 0.0
    for t in np.arange(0.0, 1.05, 0.1):
        candidates = [p for r, p in points if r >= t - 1e-12]
        total += max(candidates) if candidates else 0.0
    return total / 11.0


def mean_ap(per_class_ap) -> float:
    vals = np.asarray(list(per_class_ap), dtype=np.float64)
    if vals.size == 0:
        raise EmptyInput("no per-class AP values")
    if np.any(vals < 0) or np.any(vals > 1):
        raise ValueError("AP values must lie in [0, 1]")
    return float(vals.mean())


def confusion(preds, truth, classes) -> np.ndarray:
    """K x K count matrix; rows are true classes, columns predictions."""
    preds = list(preds)
    truth = list(truth)
    if len(preds) != len(truth):
        raise ValueError("prediction/truth length mismatch")
    index = {c: i for i, c in enumerate(classes)}
    if len(index) != len(list(classes)):
        raise ValueError("duplicate class names")
    m = np.zeros((len(index), len(index)), dtype=np.int64)
    for p, t in zip(preds, truth):
        if t not in index:
            raise UnknownLabel(f"true label {t!r} not in class list")
        if p not in index:
            raise UnknownLabel(f"predicted label {p!r} not in class list")
        m[index[t], index[p]] += 1
    return m


def mean_diag_accuracy(matrix) -> float:
    """Unweighted mean of per-class recall (normalized diagonal)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("confusion matrix must be square")
    row_sums = m.sum(axis=1)
    if np.any(row_sums == 0):
        empty = int(np.flatnonzero(row_sums == 0)[0])
        raise EmptyClassRow(f"class row {empty} has no samples")
    return float((np.diag(m) / row_sums).mean())


def recall_at_k(ranking, relevant, k: int, *, query_id=None,
                exclude_query: bool = True) -> float:
    """Fraction of relevant ids appearing in the top k of ``ranking``.

    When ``query_id`` is given and ``exclude_query`` is on, a
    self-matching query is removed from both the ranking and the
    relevant set before counting.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ranking = list(ranking)
    rel = set(relevant)
    if query_id is not None and exclude_query:
        ranking = [r for r in ranking if r != query_id]
        rel.discard(query_id)
    if not rel:
        raise EmptyRelevantSet("relevant set is empty")
    top = set(ranking[:k])
    return len(top & rel) / len(rel)


def render_report(class_rows=None, summary_rows=None) -> str:
    lines = []
    for name, value in class_rows or []:
        lines.append(f"{name}\t{fmt_float(value)}")
    for name, value in summary_rows or []:
        lines.append(f"{name}\t{fmt_float(value)}")
    return "\n".join(lines) + "\n" if lines else ""
