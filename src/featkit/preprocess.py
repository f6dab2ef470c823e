"""Vector normalization and the PCA-whitening feature chain.

The retrieval-side processing of a raw descriptor v is

    l2_normalize -> PCA projection -> whitening -> l2_normalize
    -> signed power transform

fitted once on a reference corpus and then applied to any vector of the
same input dimension, in blocks its caller forms: a vector or a row is
a block of one, an (N, P, d) stack N blocks of P rows.  Covariance uses
the population (1/n) convention throughout, which is what the whitening
identity-covariance checks assume.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClampedDimensionWarning,
    DimMismatch,
    FeatkitError,
    MalformedFile,
    RankDeficientWarning,
)
from .features import float64_array, fmt_float, fmt_row, open_text, parse_rows

PCAW_MAGIC = "PCAW1"

# Decimals of the grid that fitted components are rounded to (see pca_fit).
COMPONENT_DECIMALS = 15
# A Python float, so an int beyond float64's range compares exactly with it.
FLOAT_MAX = float(np.finfo(np.float64).max)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` (n, d) scaled to unit length; zero rows pass.

    Row norms come from one dot product per row, stacked into one call,
    so a row's bits do not depend on the rows beside it.
    """
    norms = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0])
    return a / np.where(norms == 0.0, 1.0, norms)


def l2_normalize(v) -> np.ndarray:
    """Scale to unit Euclidean length; the zero vector passes unchanged."""
    a = np.asarray(v, dtype=np.float64)
    return _unit_rows(a.reshape(1, -1)).reshape(a.shape)


def signed_power(v, p: float) -> np.ndarray:
    """Component-wise sign(x) * |x|**p; p=1 is the identity."""
    check_power_epsilon(p)
    a = np.asarray(v, dtype=np.float64)
    return np.sign(a) * np.abs(a) ** p


def check_power_epsilon(*values: float) -> None:
    """Reject a chain power or epsilon that is not positive and finite."""
    if not all(0 < v <= FLOAT_MAX for v in values):
        raise ValueError("power and epsilon must be positive and finite")


def check_count(what: str, *values, least: int = 1) -> None:
    """Reject a count (patch levels, a dimension, a result count, an
    epoch limit or a seed) that is not an ``int`` of at least ``least``;
    a ``bool`` is not a count."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{what}: {v!r} is not an integer")
        if v < least:
            raise ValueError(f"{what} must be at least {least}")


@dataclass(frozen=True)
class PcaWhitenModel:
    """Mean, principal directions, and eigenvalues of a fitted basis.

    ``components`` rows are ordered by non-increasing eigenvalue.
    :func:`pca_fit` gives orthonormal rows, with each row's
    largest-magnitude entry positive so fits are reproducible; the
    constructor checks neither property.
    """

    mean: np.ndarray        # (dim_in,)
    components: np.ndarray  # (k, dim_in)
    eigenvalues: np.ndarray  # (k,) non-negative, non-increasing
    epsilon: float

    def __post_init__(self):
        mean, comps, eigs = (float64_array(a, "a model value") for a in
                             (self.mean, self.components, self.eigenvalues))
        if mean.ndim != 1 or comps.ndim != 2 or eigs.ndim != 1:
            raise ValueError("bad model array shapes")
        if comps.shape != (eigs.size, mean.size):
            raise ValueError("components shape inconsistent with mean/eigs")
        if eigs.size < 1 or eigs.size > mean.size:
            raise ValueError("need 1 <= k <= dim_in components")
        if not all(np.isfinite(a).all() for a in (mean, comps, eigs)):
            raise ValueError("model values must be finite")
        if np.any(eigs < 0) or np.any(np.diff(eigs) > 0):
            raise ValueError("eigenvalues must be non-negative, sorted")
        if not 0 < self.epsilon <= FLOAT_MAX:
            raise ValueError("epsilon must be positive and finite")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def k(self) -> int:
        return self.eigenvalues.size

    @property
    def dim_in(self) -> int:
        return self.mean.size


def pca_fit(x, k: int, epsilon: float) -> PcaWhitenModel:
    """Fit the top-k principal directions of ``x`` (rows are samples).

    Requires n >= 2 and k <= min(n - 1, d).  If fewer than k eigenvalues
    exceed ``epsilon`` the model is truncated to the usable count and a
    :class:`RankDeficientWarning` is emitted.

    After the sign convention, the components are rounded to the nearest
    multiple of 1e-15 (``COMPONENT_DECIMALS``).  This moves each value by
    half the grid step plus the double's own rounding (under 6e-16), far
    below the float32 precision of stored patch vectors, and it exists
    for the text format: a value of this grid in [-1, 1] has at most 15
    significant digits, so :func:`dump_pca_model_text` writes it exactly
    as 15 fixed decimals built by digit arithmetic (at 500 x 768, 0.05 s
    against 0.48 s for the shortest round-trip text of an off-grid basis),
    and :func:`~featkit.features.parse_rows` reads it in one call.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("pca_fit needs a 2-D matrix with n >= 2 rows")
    n, d = a.shape
    check_count("k", k)
    if k > min(n - 1, d):
        raise ValueError(f"k={k} outside valid range 1..{min(n - 1, d)} "
                         f"for {n}x{d} data")
    mean = a.mean(axis=0)
    centered = a - mean
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    eigs = np.clip(evals[order], 0.0, None)
    comps = evecs[:, order].T.copy()
    peaks = comps[np.arange(comps.shape[0]), np.argmax(np.abs(comps), axis=1)]
    comps[peaks < 0] *= -1.0
    comps = np.round(comps, COMPONENT_DECIMALS)
    usable = int(np.count_nonzero(eigs > epsilon))
    if usable < k:
        if usable == 0:
            raise FeatkitError(
                "all eigenvalues below epsilon; data has no usable variance"
            )
        warnings.warn(
            f"only {usable} of {k} eigenvalues exceed epsilon; "
            f"model truncated",
            RankDeficientWarning,
            stacklevel=2,
        )
        eigs, comps = eigs[:usable], comps[:usable]
    return PcaWhitenModel(mean, comps, eigs, epsilon)


def pca_whiten_apply(model: PcaWhitenModel, v) -> np.ndarray:
    """Project onto the fitted basis and scale to unit variance per axis.

    ``v`` is one vector (d,), rows (n, d) or blocks (N, P, d), projected
    by one ``(v - mean) @ components.T`` product, one (P, d) product per
    block.  So a row's bits depend on its position in its block, the
    block shape and the BLAS, not on the other rows.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.ndim not in (1, 2, 3) or a.shape[-1] != model.dim_in:
        raise DimMismatch(
            f"vector dim {a.shape} does not match model dim {model.dim_in}"
        )
    out = (a - model.mean) @ model.components.T
    out /= np.sqrt(model.eigenvalues + model.epsilon)
    return out


def retrieval_pipeline_fit(x, pca_dim: int, epsilon: float
                           ) -> PcaWhitenModel:
    """Fit the chain's basis on the rows of ``x`` scaled to unit length,
    by the same :func:`_unit_rows` that :func:`retrieval_pipeline_apply`
    scales its input with.

    ``pca_dim`` is a whole number, clamped to min(n - 1, d) with a
    warning, so small corpora still fit.
    """
    check_count("pca_dim", pca_dim)
    check_power_epsilon(epsilon)
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("pipeline fit needs a 2-D matrix with n >= 2 rows")
    n, d = a.shape
    k = min(pca_dim, n - 1, d)
    if k < pca_dim:
        warnings.warn(
            f"pca_dim {pca_dim} clamped to {k} for {n}x{d} data",
            ClampedDimensionWarning,
            stacklevel=2,
        )
    return pca_fit(_unit_rows(a), k, epsilon)


def retrieval_pipeline_apply(model: PcaWhitenModel, power: float, v
                             ) -> np.ndarray:
    """Full chain for one vector (d,), rows (n, d) or blocks (N, P, d),
    with ``model.k`` in place of ``d``; a vector or a row is a block of
    one.  Whole blocks of about 2**20 values at a time are scaled and
    projected, so no input-sized copy is made.  A row's bits depend on its
    position in its block, the block shape and the BLAS, not other rows.
    """
    check_power_epsilon(power)
    a = np.asarray(v, dtype=np.float64)
    if a.ndim not in (1, 2, 3) or a.shape[-1] != model.dim_in:
        raise DimMismatch(
            f"vector dim {a.shape} does not match model dim {model.dim_in}"
        )
    blocks = a.reshape(-1, 1, a.shape[-1]) if a.ndim < 3 else a
    n, p, d = blocks.shape
    z = np.empty((n, p, model.k))
    step = max(1, (1 << 20) // max(1, p * d))
    for start in range(0, n, step):
        u = _unit_rows(blocks[start : start + step].reshape(-1, d))
        z[start : start + step] = pca_whiten_apply(model, u.reshape(-1, p, d))
    out = signed_power(_unit_rows(z.reshape(-1, model.k)), power)
    return out.reshape(*a.shape[:-1], model.k)


def _grid_rows_text(comps: np.ndarray) -> str | None:
    """``'%.15f'`` text of the rows of ``comps``, each ending in a newline,
    or ``None`` when a value is not a multiple of 1e-15 in [-1, 1].

    A grid value is the double nearest ``m / 1e15`` for the integer
    ``m = rint(|c| * 1e15) <= 1e15``, less than half a decimal step away,
    so its 15-decimal text is the digits of ``m``.  Each value gets one
    column of a ``(19, N)`` byte buffer: sign, integer digit, point, 15
    fraction digits and a separator.  The digits come from the two 8-digit
    int32 halves of ``m``, a whole row per step; the buffer is then
    transposed once and the sign slots of values without ``signbit``
    (``-0.0`` keeps its ``-``) are dropped.
    """
    mag = np.abs(comps)
    if mag.max() > 1.0:
        return None
    m = np.rint(mag * 1e15)
    if not np.array_equal(m / 1e15, mag):
        return None
    n = comps.size
    buf = np.empty((19, n), np.uint8)
    buf[0] = ord("-")
    buf[2] = ord(".")
    buf[18] = ord("\t")
    buf[18, comps.shape[1] - 1 :: comps.shape[1]] = ord("\n")
    m = m.astype(np.int64).ravel()
    hi = m // 10**8
    quot, scratch = np.empty(n, np.int32), np.empty(n, np.int32)
    for slots, half in (((1, *range(3, 10)), hi), (range(10, 18),
                                                   m - hi * 10**8)):
        half = half.astype(np.int32)
        for slot in reversed(slots):
            np.floor_divide(half, 10, out=quot)
            np.multiply(quot, 10, out=scratch)
            np.subtract(half, scratch, out=scratch)
            np.add(scratch, ord("0"), out=buf[slot], casting="unsafe")
            half, quot = quot, half  # the quotient holds the digits left
    keep = np.ones((n, 19), bool)
    keep[:, 0] = np.signbit(comps).ravel()
    return str(np.ascontiguousarray(buf.T)[keep], "ascii")


def dump_pca_model_text(model: PcaWhitenModel) -> str:
    """Text serialization; floats keep full round-trip precision.

    When every component lies on the grid of :func:`pca_fit` (multiples
    of 1e-15 in [-1, 1], as in every fitted chain), the component rows are
    written with 15 fixed decimals.  Such a value is
    the double nearest its 15-decimal text, so that text reads back to the
    same bits.  The rows are built by digit arithmetic on whole arrays,
    byte for byte the text of one ``'%.15f'`` per value, in 0.05 s
    against 0.18 s for that per-value format at 500 x 768, and 0.39 s
    against 0.84 s at 500 x 4096 (2 cores).  Any other model, such as one
    fitted before the grid or built by hand, keeps :func:`fmt_row` for
    every row.
    """
    head = [
        PCAW_MAGIC,
        f"{model.k}\t{model.dim_in}\t{fmt_float(model.epsilon)}",
        fmt_row(model.mean),
    ]
    comps = _grid_rows_text(model.components)
    if comps is None:
        comps = "".join(fmt_row(row) + "\n" for row in model.components)
    return ("\n".join(head) + "\n" + comps + fmt_row(model.eigenvalues)
            + "\n")


def parse_pca_model_text(text: str, source="<text>") -> PcaWhitenModel:
    """Read the text of :func:`dump_pca_model_text`.

    The mean and component rows, then the eigenvalue row, are parsed by
    :func:`~featkit.features.parse_rows`, so each value reads exactly as
    ``float()`` reads it and a bad row raises :class:`MalformedFile`
    naming ``source`` and its line, counted from the ``PCAW1`` line.  The
    eigenvalue row and its newline end the text.
    """
    lines = text.split("\n")
    if not lines or lines[0] != PCAW_MAGIC:
        raise MalformedFile(f"{source}: bad model header")
    try:
        k_s, d_s, eps_s = lines[1].split("\t")
        k, d, eps = int(k_s), int(d_s), float(eps_s)
    except (IndexError, ValueError):
        raise MalformedFile(f"{source}: bad model size line") from None
    if k < 1 or d < 1:
        raise MalformedFile(f"{source}: bad model size line")
    if len(lines) < 4 + k:
        raise MalformedFile(f"{source}: truncated model")
    if lines[4 + k :] != [""]:
        raise MalformedFile(f"{source}: the eigenvalue row must end the "
                            "model with one newline")
    block = parse_rows(source, lines[2 : 3 + k], range(3, 4 + k), d)
    eigs = parse_rows(source, lines[3 + k : 4 + k], [4 + k], k)[0]
    try:
        return PcaWhitenModel(block[0], block[1:], eigs, eps)
    except ValueError as exc:
        raise MalformedFile(f"{source}: {exc}") from exc


def save_pca_model(model: PcaWhitenModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_pca_model_text(model))


def load_pca_model(path) -> PcaWhitenModel:
    with open_text(path) as fh:
        return parse_pca_model_text(fh.read(), path)
