"""Linear SVM with hinge loss, plus one-vs-all and one-vs-one multiclass.

The binary solver minimizes

    0.5 * ||w||^2 + C * sum_i max(0, 1 - y_i * w.x_i)

by coordinate-wise optimization of the dual (one box-constrained
quadratic per sample) while maintaining the primal vector
w = sum_i alpha_i y_i x_i.  Coordinates are visited in a freshly
shuffled order every epoch, drawn from a seeded generator, so training
is deterministic for a fixed seed.  Coordinates pinned at a bound are
shrunk out of the visiting order, while the duality-gap stop test
always runs over every sample.  After an epoch, a new set of free
duals (strictly between 0 and C) whose solve fits a flop budget takes
one Newton step, the finish of an active-set method (Scheinberg, JMLR
2006): a linear solve over the free rows, then an exact line search
towards the clipped Newton point.  The step is kept only when it
raises the dual, so the stop test alone still certifies the result.  An
optional bias is realised as an appended constant-1 feature, which
keeps the objective in the exact form above.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceWarning,
    DimMismatch,
    MalformedFile,
    SingleClassData,
    SkippedClassWarning,
)
from .features import (
    FeatureMatrix,
    check_ids,
    first_nonfinite_row,
    float64_array,
    fmt_float,
    fmt_row,
    open_text,
    parse_rows,
)
from .preprocess import FLOAT_MAX, check_count

MODEL_MAGIC = "OTSVM1"

# A free-set step is tried only when its Gram product and LU solve,
# 2|F|^2 cols + 2|F|^3 / 3 flops, are at most this many times the flops
# of the epochs since the last step tried: 2 (visits + n) cols each, for
# the coordinate products and the duality-gap product.  Steps then cost
# at most this multiple of the epochs, and a free set that stays put is
# tried once enough epochs have passed.  Sizes only, so the choice is
# deterministic.
STEP_FLOP_MULTIPLE = 32

# Cross-validated trade-off presets, per dataset family.
C_PRESETS = {
    "voc2007": 0.2,
    "mit67": 2.0,
    "birds": 2.0,
    "flowers": 2.0,
    "h3d": 0.2,
    "uiucatt": 0.2,
    "voc2007_companion": 5.0,
}


@dataclass(frozen=True)
class SolverConfig:
    C: float
    tol: float = 1e-8
    max_epochs: int = 10000
    bias: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.C <= FLOAT_MAX and 0 < self.tol <= FLOAT_MAX):
            raise ValueError("C, tol must be positive and finite")
        check_count("max_epochs", self.max_epochs)
        check_count("seed", self.seed, least=0)


@dataclass(frozen=True)
class SolverStats:
    """How one binary solve ended: epochs run, coordinate visits (one
    dot product each), the final duality gap, whether the stop test
    passed before ``max_epochs`` ran out, and the free-set steps kept
    and tried."""

    epochs: int
    visits: int
    gap: float
    converged: bool
    free_set_steps: int = 0
    free_set_tries: int = 0


@dataclass(frozen=True)
class BinaryModel:
    """Trained weight vector; last component is the bias weight if any."""

    w: np.ndarray
    C_used: float
    objective_value: float
    bias: bool
    # Set by train_binary; not part of the model, never saved.
    stats: SolverStats | None = field(default=None, compare=False)

    def __post_init__(self):
        w = float64_array(self.w, "a weight")
        if not (w.ndim == 1 and w.size > self.bias and np.isfinite(w).all()
                and 0 < self.C_used <= FLOAT_MAX
                and abs(self.objective_value) <= FLOAT_MAX):
            raise ValueError("weights must be one finite vector over at "
                             "least one feature, the objective finite and "
                             "C positive and finite")
        object.__setattr__(self, "w", w)
        for name in ("C_used", "objective_value"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def input_dim(self) -> int:
        return self.w.size - 1 if self.bias else self.w.size


@dataclass(frozen=True)
class MulticlassModel:
    """One-vs-all ('ova') or one-vs-one ('ovo') bundle of binary models.

    ``models`` is keyed by class index for ova and by an (i, j) index
    pair with i < j for ovo, where the lower-indexed class is the +1
    side of the pair's binary problem.
    """

    strategy: str
    classes: tuple
    models: dict
    bias: bool

    def __post_init__(self):
        if self.strategy not in ("ova", "ovo"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        k = len(self.classes)
        if k < 2:
            raise ValueError("need at least two classes")
        check_ids(self.classes, "class name")
        keys = set(self.models)
        if self.strategy == "ova" and not (keys and keys <= set(range(k))):
            raise ValueError(f"one-vs-all needs 1 to {k} models keyed by "
                             "class index")
        pairs = set(itertools.combinations(range(k), 2))
        if self.strategy == "ovo" and keys != pairs:
            raise ValueError(f"one-vs-one needs {len(pairs)} models keyed by "
                             f"(i, j), 0 <= i < j < {k}")
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer))
               for key in keys
               for i in (key if self.strategy == "ovo" else (key,))):
            raise ValueError("model keys must be integer class indices")
        models = self.models.values()
        if any(m.bias != self.bias for m in models):
            raise ValueError("a binary model's bias differs from the bundle's")
        if len({m.w.size for m in models}) > 1:
            raise ValueError("binary models differ in weight size")

    @property
    def input_dim(self) -> int:
        return next(iter(self.models.values())).input_dim


def _as_xy(x, y):
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 2 or ya.shape != (xa.shape[0],):
        raise DimMismatch(
            f"expected (n, d) features with n labels, got {xa.shape} "
            f"and {ya.shape}"
        )
    if not np.all(np.abs(ya) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if first_nonfinite_row(xa) is not None:
        raise ValueError("feature values must be finite")
    return xa, ya


def objective(w, x, y, C: float) -> float:
    """Regularized hinge objective of ``w`` on already-augmented data."""
    xa, ya = _as_xy(x, y)
    wa = np.asarray(w, dtype=np.float64)
    if wa.shape != (xa.shape[1],):
        raise DimMismatch(
            f"w has dim {wa.shape}, features have dim {xa.shape[1]}"
        )
    margins = ya * (xa @ wa)
    return float(0.5 * wa @ wa + C * np.maximum(0.0, 1.0 - margins).sum())


def _augment_bias(xa: np.ndarray) -> np.ndarray:
    return np.hstack([xa, np.ones((xa.shape[0], 1))])


def _primal_dual(xa, ya, w, alpha, c):
    """Hinge objective of ``w`` and the dual ``sum(alpha) - 0.5|w|^2``."""
    ww = float(w @ w)
    margins = ya * (xa @ w)
    primal = 0.5 * ww + c * float(np.maximum(0.0, 1.0 - margins).sum())
    return primal, math.fsum(alpha) - 0.5 * ww


def _free_set_step(z, alpha_f, w, c):
    """Raise the dual along the free duals' clipped Newton direction.

    ``z`` holds the signed rows ``y_i x_i`` of the free duals
    ``alpha_f``; every other dual is held.  The free optimum is
    ``alpha_f + delta`` where ``(z z^T) delta = 1 - z w``, solved by
    ``np.linalg.solve``, or by ``lstsq`` (the minimum-norm solution)
    when rows repeat or the solve finds the Gram singular.  Clipping
    that point to the box gives a direction ``d``; the step length
    ``t = clip((sum d - w.dw) / |dw|^2, 0, 1)`` maximizes the concave
    dual on the segment, so the dual never falls.  Returns the new free
    duals and ``w``, or None when ``z`` has more distinct rows than
    columns and the Gram must be singular.
    """
    distinct = len({row.tobytes() for row in z})
    if distinct > z.shape[1]:
        return None
    gram = z @ z.T
    r = 1.0 - z @ w
    delta = None
    if distinct == len(z):
        try:
            delta = np.linalg.solve(gram, r)
        except np.linalg.LinAlgError:
            pass
    if delta is None:
        delta = np.linalg.lstsq(gram, r, rcond=None)[0]
    target = np.clip(alpha_f + delta, 0.0, c)
    d = target - alpha_f
    dw = d @ z
    num, dd = float(d.sum()) - float(w @ dw), float(dw @ dw)
    t = 0.0 if num <= 0.0 else 1.0 if num >= dd else num / dd
    new = target if t == 1.0 else np.clip(alpha_f + t * d, 0.0, c)
    return new, w + t * dw


def train_binary(x, y, cfg: SolverConfig) -> BinaryModel:
    """Solve the binary problem to within ``cfg.tol`` of the optimum.

    Convergence is certified by the duality gap: training stops once
    the hinge objective of the maintained primal vector exceeds the
    dual lower bound by at most ``tol * (1 + |objective|)``, so the
    returned objective is within that margin of the global optimum.
    The gap is computed over all rows after every epoch.

    Epochs visit only an active set of coordinates (the shrinking of
    Hsieh et al., ICML 2008).  A coordinate at alpha = 0 whose gradient
    exceeds the previous epoch's largest projected gradient, or at
    alpha = C with a gradient below the previous epoch's smallest, is
    presumed to stay at its bound and leaves the set.  When every
    projected gradient in the set is below 1e-12 while the gap is still
    open, all coordinates return and the thresholds are cleared; on an
    epoch that visited every coordinate this instead ends the solve.

    After every epoch whose gap test fails, the free set F (duals
    strictly between 0 and C) takes a Newton step when it is non-empty,
    has not been tried before, and its Gram product and LU solve,
    ``2|F|^2 cols + 2|F|^3 / 3`` flops, are at most
    ``STEP_FLOP_MULTIPLE`` times the ``2 (visits + n) cols`` flops of
    the epochs since the last step tried.  The budget uses sizes only,
    so it is deterministic.  The step (:func:`_free_set_step`) holds the
    other duals and is skipped when F has more distinct rows than there
    are columns.  It solves the free rows' Gram by ``np.linalg.solve``,
    or by ``lstsq`` when rows repeat or the Gram is singular, and moves
    towards the clipped Newton point by the step length that maximizes
    the dual on that segment.  The result is kept only if the dual
    ``sum(alpha) - 0.5|w|^2`` rises; the same gap test then runs again
    over all rows.  A rejected step changes nothing, so the certificate
    does not depend on the step.

    A :class:`ConvergenceWarning` is emitted when ``cfg.max_epochs``
    runs out with the gap still open.  ``stats`` on the returned model
    records epochs, coordinate visits, the final gap, convergence and
    the free-set steps kept and tried.
    """
    xa, ya = _as_xy(x, y)
    if np.all(ya == ya[0]):
        raise SingleClassData("training data contains a single class")
    if cfg.bias:
        xa = _augment_bias(xa)
    n, cols = xa.shape
    # Python floats, prebuilt row views and ndarray.dot (no ufunc
    # dispatch, same BLAS ddot as ``@``) keep the per-coordinate step
    # cheap.  Labels are +-1, so y_i * (x_i . w) and (delta * y_i) * x_i
    # have the bits of the same products over y_i x_i.
    rows = list(xa)
    ys = ya.tolist()
    qdiag = np.einsum("ij,ij->i", xa, xa).tolist()
    c = float(cfg.C)

    w = np.zeros(cols)
    alpha = [0.0] * n
    rng = np.random.default_rng(cfg.seed)
    active = np.arange(n)
    pg_hi, pg_lo = math.inf, -math.inf
    visits = steps = tries = 0
    converged = False
    tried = set()
    work = 0
    for epochs in range(1, cfg.max_epochs + 1):
        full = len(active) == n
        work += 2 * (len(active) + n) * cols
        hi, lo = -math.inf, math.inf
        kept = []
        for i in rng.permutation(active).tolist():
            row = rows[i]
            g = ys[i] * float(row.dot(w)) - 1.0
            a = alpha[i]
            if a <= 0.0:
                if g > pg_hi:
                    continue
                pg = min(g, 0.0)
            elif a >= c:
                if g < pg_lo:
                    continue
                pg = max(g, 0.0)
            else:
                pg = g
            kept.append(i)
            if pg > hi:
                hi = pg
            if pg < lo:
                lo = pg
            if pg != 0.0:
                if qdiag[i] > 0.0:
                    new = min(max(a - g / qdiag[i], 0.0), c)
                else:
                    # Zero sample: hinge is constant, dual linear in alpha.
                    new = c if g < 0.0 else 0.0
                if new != a:
                    alpha[i] = new
                    w += (new - a) * ys[i] * row
        visits += len(active)
        active = np.array(kept, dtype=np.intp)
        primal, dual = _primal_dual(xa, ya, w, alpha, c)
        if primal - dual > cfg.tol * (1.0 + abs(primal)):
            # Each distinct free set is tried once, within the budget.
            al = np.array(alpha)
            free = np.flatnonzero((al > 0.0) & (al < c))
            key = free.tobytes()
            f = free.size
            if (f and key not in tried and 2 * f * f * cols + 2 * f**3 / 3
                    <= STEP_FLOP_MULTIPLE * work):
                tried.add(key)
                step = _free_set_step(xa[free] * ya[free, None], al[free],
                                      w, c)
                if step is not None:
                    tries += 1
                    work = 0
                    al[free], w_f = step
                    p_f, d_f = _primal_dual(xa, ya, w_f, al, c)
                    if d_f > dual:
                        alpha, w, primal, dual = al.tolist(), w_f, p_f, d_f
                        steps += 1
                        # The epoch's projected gradients predate the
                        # step, so they cannot end the solve.
                        full = False
        gap = primal - dual
        if gap <= cfg.tol * (1.0 + abs(primal)):
            converged = True
            break
        # A shrunk coordinate has projected gradient 0, so on a full
        # epoch this bounds every coordinate's.
        if max(hi, -lo) < 1e-12:
            if full:
                converged = True
                break
            active = np.arange(n)
            pg_hi, pg_lo = math.inf, -math.inf
            continue
        # A threshold on the wrong side of 0 would shrink coordinates
        # that still violate their bound, so it is cleared instead.
        pg_hi = hi if hi > 0.0 else math.inf
        pg_lo = lo if lo < 0.0 else -math.inf
    if not converged:
        warnings.warn(
            f"solver stopped after {epochs} epochs with duality gap "
            f"{gap:.3g} above tolerance",
            ConvergenceWarning,
            stacklevel=2,
        )
    return BinaryModel(
        w=w, C_used=c, objective_value=primal, bias=cfg.bias,
        stats=SolverStats(epochs, visits, gap, converged, steps, tries),
    )


def decision(model, x):
    """Raw linear scores w.x (+ bias weight when enabled).

    ``model`` is a :class:`BinaryModel`, or a :class:`MulticlassModel`
    whose binary models are stacked in sorted key order; ``x`` is one
    vector (d,) or rows (n, d).  All scores come from one product
    ``x @ W.T + b``.  A binary model gives a float for one vector and
    (n,) for rows; a multiclass model gives (M,) or (n, M).
    """
    if isinstance(model, MulticlassModel):
        w = np.stack([model.models[key].w for key in sorted(model.models)])
    else:
        w = model.w[None, :]
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != model.input_dim:
        raise DimMismatch(
            f"vector dim {a.shape} does not match model dim "
            f"{model.input_dim}"
        )
    rows = np.atleast_2d(a)
    if model.bias:
        scores = rows @ w[:, :-1].T + w[:, -1]
    else:
        scores = rows @ w.T
    if isinstance(model, BinaryModel):
        scores = scores[:, 0]
        return float(scores[0]) if a.ndim == 1 else scores
    return scores[0] if a.ndim == 1 else scores


def _label_sets(labels) -> dict:
    out = {}
    for fid, val in labels.items():
        if isinstance(val, (set, frozenset, list, tuple)):
            out[fid] = frozenset(val)
        else:
            out[fid] = frozenset([val])
    return out


def _ordered_rows(features: FeatureMatrix, labels: dict):
    missing = [fid for fid in features.ids if fid not in labels]
    if missing:
        raise ValueError(f"unlabeled feature ids, e.g. {missing[0]!r}")
    return features.values, [labels[fid] for fid in features.ids]


def train_one_vs_all(features: FeatureMatrix, labels, cfg: SolverConfig
                     ) -> MulticlassModel:
    """One binary model per class: members vs everything else.

    Multi-label samples are positives for every class they carry.
    Degenerate subproblems (a class with no positives or no negatives
    among the rows) are skipped with a :class:`SkippedClassWarning`.
    """
    sets = _label_sets(labels)
    x, row_labels = _ordered_rows(features, sets)
    classes = tuple(sorted({c for s in row_labels for c in s}))
    if len(classes) < 2:
        raise SingleClassData("one-vs-all needs at least two classes")
    models = {}
    for ci, cls in enumerate(classes):
        y = np.asarray(
            [1.0 if cls in s else -1.0 for s in row_labels]
        )
        try:
            models[ci] = train_binary(x, y, cfg)
        except SingleClassData:
            warnings.warn(
                f"class {cls!r} has a degenerate subproblem; skipped",
                SkippedClassWarning,
                stacklevel=2,
            )
    if not models:
        raise SingleClassData("every class has a degenerate subproblem")
    return MulticlassModel("ova", classes, models, cfg.bias)


def train_one_vs_one(features: FeatureMatrix, labels, cfg: SolverConfig
                     ) -> MulticlassModel:
    """K(K-1)/2 pairwise models over single-label data."""
    sets = _label_sets(labels)
    for fid, s in sets.items():
        if len(s) != 1:
            raise ValueError(
                f"one-vs-one needs single-label data; id {fid!r} has "
                f"{len(s)} labels"
            )
    x, row_labels = _ordered_rows(features, sets)
    flat = [next(iter(s)) for s in row_labels]
    classes = tuple(sorted(set(flat)))
    if len(classes) < 2:
        raise SingleClassData("one-vs-one needs at least two classes")
    index = {c: i for i, c in enumerate(classes)}
    row_idx = np.asarray([index[c] for c in flat])
    models = {}
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            mask = (row_idx == i) | (row_idx == j)
            y = np.where(row_idx[mask] == i, 1.0, -1.0)
            models[(i, j)] = train_binary(x[mask], y, cfg)
    return MulticlassModel("ovo", classes, models, cfg.bias)


def predict_ovo_from_scores(model: MulticlassModel, scores):
    """Vote with precomputed decision values; one label per image.

    ``scores`` is an (images, pairs) block whose columns follow the
    sorted pair keys; one image is a one-row block.  Each pair model
    votes for its predicted side (a zero score counts for the +1 side,
    i.e. the lower-indexed class).  Ties on votes are broken by the
    larger sum of absolute winning margins, then by class order.  The
    pairs are tallied in key order, so each image's margin sums have the
    bits of a tally over that image alone.
    """
    if model.strategy != "ovo":
        raise ValueError("vote prediction requires a one-vs-one model")
    keys = sorted(model.models)
    block = np.asarray(scores, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != len(keys):
        raise DimMismatch(
            f"expected (images, {len(keys)}) pair scores, got {block.shape}"
        )
    shape = (block.shape[0], len(model.classes))
    votes = np.zeros(shape, dtype=np.int64)
    margin = np.zeros(shape)
    rows = np.arange(shape[0])
    for col, (i, j) in enumerate(keys):
        s = block[:, col]
        winner = np.where(s >= 0.0, i, j)
        votes[rows, winner] += 1
        margin[rows, winner] += np.abs(s)
    tied = votes == votes.max(axis=1, keepdims=True)
    margin[~tied] = -np.inf
    best = margin == margin.max(axis=1, keepdims=True)
    return [model.classes[c] for c in best.argmax(axis=1).tolist()]


def format_model_key(strategy: str, key) -> str:
    return str(key) if strategy == "ova" else f"{key[0]},{key[1]}"


def save_model(model: MulticlassModel, path) -> None:
    """Text persistence; weights keep full round-trip precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(
            f"{model.strategy}\t{len(model.classes)}\t"
            f"{1 if model.bias else 0}\n"
        )
        for cls in model.classes:
            fh.write(cls + "\n")
        for key in sorted(model.models):
            m = model.models[key]
            fields = [
                format_model_key(model.strategy, key),
                fmt_float(m.C_used),
                fmt_float(m.objective_value),
                fmt_row(m.w),
            ]
            fh.write("\t".join(fields) + "\n")


def load_model(path) -> MulticlassModel:
    """Read an OTSVM1 file; each model line's ``C``, objective and weights
    are one row of :func:`~featkit.features.parse_rows`."""
    with open_text(path) as fh:
        lines = enumerate((ln.rstrip("\n") for ln in fh), 1)
        head = [line for _, line in itertools.islice(lines, 2)]
        if not head or head[0] != MODEL_MAGIC:
            raise MalformedFile(f"{path}: bad model header")
        try:
            strategy, k_s, bias_s = head[1].split("\t")
            k, bias = int(k_s), bool(int(bias_s))
        except (IndexError, ValueError):
            raise MalformedFile(f"{path}: bad strategy line") from None
        if strategy not in ("ova", "ovo") or k < 2:
            raise MalformedFile(f"{path}: bad strategy line")
        classes = tuple(line for _, line in itertools.islice(lines, k))
        if len(classes) < k:
            raise MalformedFile(f"{path}: truncated class list")
        # Split as they are read, so the file's text is held once.
        records = [(lineno, *line.partition("\t"))
                   for lineno, line in lines if line]
    if not records:
        raise MalformedFile(f"{path}: no model lines")
    linenos, keys, _, bodies = zip(*records)
    rows = parse_rows(path, bodies, linenos)
    if rows.shape[1] < 3:
        raise MalformedFile(f"{path}:{linenos[0]}: truncated model line")
    models = {}
    for key_s, row, lineno in zip(keys, rows, linenos):
        try:
            key = (int(key_s) if strategy == "ova"
                   else tuple(map(int, key_s.split(","))))
            if key in models:
                raise ValueError("duplicate key")
            models[key] = BinaryModel(row[2:], float(row[0]), float(row[1]),
                                      bias)
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: model {key_s!r}: {exc}"
                                ) from exc
    try:
        return MulticlassModel(strategy, classes, models, bias)
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
