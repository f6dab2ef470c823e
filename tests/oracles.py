"""Independent oracles used by the test suite.

Every oracle here recomputes its answer by a different route than the
library code (brute-force enumeration, plain-Python loops, or a
first-order method), so agreement is meaningful.

Running this module regenerates ``_frozen.py``, which pins the
subgradient-oracle objectives used by the acceptance suite:

    python tests/oracles.py
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SVM_INSTANCE_SEED = 20260801
SVM_ORACLE_STEPS = 1_000_000


# --------------------------------------------------------------------
# SVM instances and the projected-subgradient oracle
# --------------------------------------------------------------------


@dataclass(frozen=True)
class SvmInstance:
    x: np.ndarray
    y: np.ndarray
    C: float
    bias: bool

    @property
    def x_solver(self) -> np.ndarray:
        """Raw features; the solver appends its own bias column."""
        return self.x

    @property
    def x_augmented(self) -> np.ndarray:
        """Features as the objective sees them (bias column appended)."""
        if not self.bias:
            return self.x
        return np.hstack([self.x, np.ones((self.x.shape[0], 1))])


def make_svm_instances(count: int = 25, seed: int = SVM_INSTANCE_SEED):
    """Deterministic batch of small hinge-loss problems.

    n <= 30, d <= 5, C cycling over {0.1, 1, 5}, bias alternating.
    """
    rng = np.random.default_rng(seed)
    cs = [0.1, 1.0, 5.0]
    out = []
    for t in range(count):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 6))
        c = cs[t % 3]
        bias = bool(t % 2)
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        x[y > 0] += rng.normal(size=d) * 0.8
        out.append(SvmInstance(x=x, y=y, C=c, bias=bias))
    return out


def hinge_objective(w, x, y, c) -> float:
    margins = y * (x @ w)
    return 0.5 * float(w @ w) + c * float(
        np.maximum(0.0, 1.0 - margins).sum()
    )


def svm_subgradient_oracle(x, y, c, steps=SVM_ORACLE_STEPS) -> float:
    """Best objective reached by projected subgradient descent.

    Full-batch subgradient steps with the 1/t schedule for the
    1-strongly-convex objective, projected onto the ball that must
    contain the optimum (||w*||^2 <= 2 f(0) = 2 C n).  The minimum
    objective over all iterates is a valid upper bound on the optimum
    and converges to it.  ``x`` must already carry any bias column.
    """
    n, d = x.shape
    w = np.zeros(d)
    radius = math.sqrt(2.0 * c * n)
    best = c * n
    for t in range(steps):
        margins = y * (x @ w)
        viol = margins < 1.0
        obj = 0.5 * float(w @ w) + c * float(np.sum(1.0 - margins[viol]))
        if obj < best:
            best = obj
        if viol.any():
            g = w - c * (y[viol] @ x[viol])
        else:
            g = w.copy()
        w = w - g / (t + 1.0)
        nrm = float(np.linalg.norm(w))
        if nrm > radius:
            w *= radius / nrm
    return best


def svm_subgradient_oracle_batch(instances, steps=SVM_ORACLE_STEPS):
    """Run the oracle on many instances at once (padded tensors).

    Identical per-instance mathematics to the scalar oracle up to
    summation order; exists so regeneration stays fast.
    """
    b = len(instances)
    mats = [inst.x_augmented for inst in instances]
    n_max = max(m.shape[0] for m in mats)
    d_max = max(m.shape[1] for m in mats)
    x = np.zeros((b, n_max, d_max))
    y = np.zeros((b, n_max))
    mask = np.zeros((b, n_max))
    c = np.asarray([inst.C for inst in instances])
    for i, (m, inst) in enumerate(zip(mats, instances)):
        n, d = m.shape
        x[i, :n, :d] = m
        y[i, :n] = inst.y
        mask[i, :n] = 1.0
    radius = np.sqrt(2.0 * c * mask.sum(axis=1))
    w = np.zeros((b, d_max))
    best = c * mask.sum(axis=1)
    for t in range(steps):
        margins = y * np.einsum("bnd,bd->bn", x, w)
        hinge = np.maximum(0.0, 1.0 - margins) * mask
        obj = 0.5 * (w * w).sum(axis=1) + c * hinge.sum(axis=1)
        np.minimum(best, obj, out=best)
        active = (margins < 1.0) & (mask > 0.0)
        g = w - c[:, None] * np.einsum("bn,bnd->bd", active * y, x)
        w -= g / (t + 1.0)
        norms = np.linalg.norm(w, axis=1)
        safe = np.maximum(norms, 1e-300)
        scale = np.where(norms > radius, radius / safe, 1.0)
        w *= scale[:, None]
    return best.tolist()


def dual_cd_reference(x, y, c, bias, tol=1e-8, max_epochs=10000, seed=0):
    """Unshrunk dual coordinate descent: every coordinate, every epoch.

    The solver's loop before shrinking, kept as the reference that the
    shrinking solver must agree with.  Same seeded visiting order, same
    duality-gap stop test.  Returns ``(w, objective, epochs)``; ``w``
    carries the bias weight last when ``bias`` is set.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if bias:
        xa = np.hstack([xa, np.ones((xa.shape[0], 1))])
    n = xa.shape[0]
    xy = xa * ya[:, None]
    qdiag = np.einsum("ij,ij->i", xy, xy)
    w = np.zeros(xa.shape[1])
    alpha = np.zeros(n)
    rng = np.random.default_rng(seed)
    epochs = 0
    for epochs in range(1, max_epochs + 1):
        max_pg = 0.0
        for i in rng.permutation(n):
            row = xy[i]
            g = float(row @ w) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= c:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                max_pg = max(max_pg, abs(pg))
                if qdiag[i] > 0.0:
                    new = min(max(a - g / qdiag[i], 0.0), c)
                else:
                    new = c if g < 0.0 else 0.0
                if new != a:
                    alpha[i] = new
                    w += (new - a) * row
        if max_pg < 1e-12:
            break
        margins = xy @ w
        primal = 0.5 * float(w @ w) + c * float(
            np.maximum(0.0, 1.0 - margins).sum()
        )
        dual_bound = float(alpha.sum()) - 0.5 * float(w @ w)
        if primal - dual_bound <= tol * (1.0 + abs(primal)):
            break
    return w, hinge_objective(w, xa, ya, c), epochs


# --------------------------------------------------------------------
# Ranking-metric oracles (plain Python, quadratic-time)
# --------------------------------------------------------------------


def ranked_order(scores):
    """Descending score order; ties keep original sample order."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def ap_prefix_oracle(scores, labels) -> float:
    """all_points AP by re-counting hits at every positive rank."""
    order = ranked_order(list(scores))
    precisions = []
    for rank, idx in enumerate(order, 1):
        if labels[idx]:
            hits = sum(1 for j in order[:rank] if labels[j])
            precisions.append(hits / rank)
    if not precisions:
        raise ValueError("oracle needs at least one positive label")
    return sum(precisions) / len(precisions)


def pr_points_oracle(scores, labels):
    order = ranked_order(list(scores))
    n_pos = sum(bool(v) for v in labels)
    points = []
    hits = 0
    for rank, idx in enumerate(order, 1):
        if labels[idx]:
            hits += 1
            points.append((hits / n_pos, hits / rank))
    return points


def recall_at_k_oracle(ranking, relevant, k) -> float:
    hits = sum(1 for r in list(ranking)[:k] if r in set(relevant))
    return hits / len(set(relevant))


# --------------------------------------------------------------------
# Spatial-search oracles
# --------------------------------------------------------------------


def min_distance_oracle(query_vec, ref_vecs) -> float:
    best = math.inf
    for row in ref_vecs:
        s = 0.0
        for a, b in zip(query_vec, row):
            s += (float(a) - float(b)) ** 2
        best = min(best, math.sqrt(s))
    return best


def query_distance_oracle(query_vecs, ref_vecs) -> float:
    total = 0.0
    count = 0
    for q in query_vecs:
        total += min_distance_oracle(q, ref_vecs)
        count += 1
    return total / count


def query_distance_broadcast(query_vecs, ref_vecs) -> float:
    """Every pair distance by broadcasting, then min and mean.

    The form ``retrieval.query_distance`` had before it pruned pairs; its
    reductions fix the bits that the pruned form must reproduce.
    """
    q = np.asarray(query_vecs, dtype=np.float64)
    r = np.asarray(ref_vecs, dtype=np.float64)
    d = np.sqrt(((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).mean())


# --------------------------------------------------------------------
# Geometry oracles
# --------------------------------------------------------------------


def smallest_square_oracle(rect, width, height):
    """Brute-force minimal in-bounds square containing ``rect``.

    Returns None when no in-bounds square can contain the rectangle.
    """
    for side in range(max(rect.w, rect.h), min(width, height) + 1):
        for y in range(0, height - side + 1):
            for x in range(0, width - side + 1):
                if (
                    x <= rect.x
                    and y <= rect.y
                    and rect.x + rect.w <= x + side
                    and rect.y + rect.h <= y + side
                ):
                    return side
    return None


def coverage_bitmap(rects, width, height) -> np.ndarray:
    canvas = np.zeros((height, width), dtype=bool)
    for r in rects:
        canvas[r.y : r.y + r.h, r.x : r.x + r.w] = True
    return canvas


# --------------------------------------------------------------------
# Classification oracles
# --------------------------------------------------------------------


def nearest_centroid_predict(train_x, train_labels, test_x):
    labels = sorted(set(train_labels))
    cents = {
        c: np.mean(
            [x for x, l in zip(train_x, train_labels) if l == c], axis=0
        )
        for c in labels
    }
    out = []
    for x in test_x:
        best = min(labels, key=lambda c: float(np.linalg.norm(x - cents[c])))
        out.append(best)
    return out


def ovo_vote_oracle(classes, pair_scores):
    """Exhaustive tally with the documented tie-breaks."""
    votes = {c: 0 for c in range(len(classes))}
    margin = {c: 0.0 for c in range(len(classes))}
    for (i, j), s in pair_scores.items():
        winner = i if s >= 0 else j
        votes[winner] += 1
        margin[winner] += abs(s)
    ranked = sorted(
        votes, key=lambda c: (-votes[c], -margin[c], c)
    )
    return classes[ranked[0]]


def pooled_scores_oracle(model, ids, x, mode):
    """Every view's score of every binary model, exact in rationals, then
    pooled per image in plain Python (``sum`` or ``max``).

    Rows group under the id before a final ``#`` and ASCII digits, or
    under their own id.  Returns ``(bases, views, scores, scale)``: the
    images in first-appearance order, their view counts, each pooled
    score rounded once to a float, and ``sum_v |w|.|x_v| + n_views |b|``
    per image and model, against which a float computation's error is
    bounded.
    """
    from fractions import Fraction

    images = {}
    for rep_id, row in zip(ids, x):
        base, sep, k = rep_id.rpartition("#")
        key = base if sep and k.isascii() and k.isdigit() else rep_id
        images.setdefault(key, []).append([Fraction(v) for v in row])
    scores, scale = [], []
    for views in images.values():
        s_row, a_row = [], []
        for m in model.models.values():
            w = [Fraction(v) for v in m.w]
            b = w.pop() if m.bias else Fraction(0)
            per_view = [sum(wj * xj for wj, xj in zip(w, xv)) + b
                        for xv in views]
            s_row.append(float(sum(per_view) if mode == "sum"
                               else max(per_view)))
            a_row.append(float(sum(abs(wj * xj) for xv in views
                                   for wj, xj in zip(w, xv))
                               + len(views) * abs(b)))
        scores.append(s_row)
        scale.append(a_row)
    views = np.array([len(v) for v in images.values()])
    return list(images), views, np.array(scores), np.array(scale)


# --------------------------------------------------------------------
# PCAW1 component text
# --------------------------------------------------------------------


def fixed_decimal_rows_oracle(components) -> str:
    """Component rows of a grid chain as PCAW1 text, one Python
    ``'%.15f'`` format per value, tab-joined, each row ending in a
    newline: the bytes ``dump_pca_model_text`` must write for them."""
    rows = np.asarray(components, dtype=np.float64)
    fmt = "\t".join(["%.15f"] * rows.shape[1])
    return "".join(fmt % tuple(row) + "\n" for row in rows.tolist())


# --------------------------------------------------------------------
# The retrieval chain, row by row
# --------------------------------------------------------------------


def _stacked_unit_rows(a):
    norms = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0])
    return a / np.where(norms == 0.0, 1.0, norms)


def stacked_chain_oracle(model, power, rows):
    """L2 -> PCA-whitening -> L2 -> signed power over the rows of
    ``rows``, each step a stacked per-row product: one dot product per
    row for each norm and ``np.matmul(components, (u - mean)[:, :, None])``
    for the projection, so no row's bits depend on another row."""
    u = _stacked_unit_rows(np.asarray(rows, dtype=np.float64))
    z = np.matmul(model.components, (u - model.mean)[:, :, None])[:, :, 0]
    z = _stacked_unit_rows(z / np.sqrt(model.eigenvalues + model.epsilon))
    return np.sign(z) * np.abs(z) ** power


def blocked_chain_oracle(model, power, blocks):
    """The chain over an (N, P, d) stack of blocks in a Python loop: each
    block's rows scaled to unit length by one dot product per row, then
    projected by one ``(block - mean) @ components.T`` product per block,
    as a loop over blocks of P rows does it."""
    scale = np.sqrt(model.eigenvalues + model.epsilon)
    out = []
    for block in np.asarray(blocks, dtype=np.float64):
        z = (_stacked_unit_rows(block) - model.mean) @ model.components.T
        out.append(_stacked_unit_rows(z / scale))
    z = np.stack(out)
    return np.sign(z) * np.abs(z) ** power


# --------------------------------------------------------------------
# TSV feature parsing
# --------------------------------------------------------------------


def tsv_features_oracle(path):
    """Read a TSV feature file line by line, one ``float()`` per value.

    Returns ``(ids, rows)`` or raises ``MalformedFile`` with the text the
    feature loader gives for the first bad line.
    """
    from featkit.errors import MalformedFile

    ids, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise MalformedFile(f"{path}:{lineno}: expected id and values")
            try:
                row = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
            if rows and len(row) != len(rows[0]):
                raise MalformedFile(
                    f"{path}:{lineno}: ragged row "
                    f"({len(row)} != {len(rows[0])})"
                )
            ids.append(parts[0])
            rows.append(row)
    if not ids:
        raise MalformedFile(f"{path}: empty feature file")
    return ids, rows


def _regenerate() -> None:
    import time
    from pathlib import Path

    instances = make_svm_instances()
    t0 = time.perf_counter()
    values = svm_subgradient_oracle_batch(instances)
    elapsed = time.perf_counter() - t0
    lines = [
        '"""Frozen oracle values; regenerate with `python tests/oracles.py`.',
        "",
        f"Projected-subgradient objectives after {SVM_ORACLE_STEPS} steps on",
        f"the {len(instances)} instances of make_svm_instances()",
        f"(seed {SVM_INSTANCE_SEED}); generation took {elapsed:.1f}s.",
        '"""',
        "",
        "SVM_ORACLE_OBJECTIVES = [",
    ]
    lines += [f"    {v!r}," for v in values]
    lines += ["]", ""]
    out = Path(__file__).with_name("_frozen.py")
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} in {elapsed:.1f}s")


if __name__ == "__main__":
    _regenerate()
