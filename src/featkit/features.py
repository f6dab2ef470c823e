"""Feature and image data model plus file ingestion/persistence.

File formats handled here:

* TSV features: one ``id<TAB>v1<TAB>v2<TAB>...`` row per vector, decimal
  floats read by :func:`parse_rows` (as are OTSVM1, PCAW1 and score
  tables), UTF-8, no header.
* Binary features (``FVEC1``): magic bytes ``FVEC1\\n``, u32-LE row count,
  u32-LE dimension, row-major IEEE-754 float32 LE payload, then one UTF-8
  newline-terminated id line per row.
* Labels: ``id<TAB>label`` per line; repeated ids accumulate a label set.
* Images: minimal grayscale PGM (P2/P5) reader, intensities in [0, 1].
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, MalformedFile, RegionOutOfBounds

FVEC_MAGIC = b"FVEC1\n"


def fmt_float(x: float) -> str:
    """Shortest decimal text that round-trips the float exactly."""
    return repr(float(x))


def fmt_row(values) -> str:
    """Tab-joined :func:`fmt_float` text of each value, in one pass."""
    return "\t".join(map(repr, np.asarray(values, np.float64).tolist()))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle, top-left origin."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect origin must be non-negative, got {self}")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect sides must be positive, got {self}")

    def within(self, width: int, height: int) -> bool:
        return self.x + self.w <= width and self.y + self.h <= height

    def require_within(self, width: int, height: int) -> None:
        if not self.within(width, height):
            raise RegionOutOfBounds(
                f"rect {self} exceeds {width}x{height} image bounds"
            )


def float64_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array; a Python int beyond float64's range
    is a ValueError naming ``what``, not an OverflowError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} beyond float64's range") from None


def iround(x: float) -> int:
    """Round half away from zero (positive arguments only)."""
    return int(math.floor(x + 0.5))


def smallest_enclosing_square(rect: Rect, width: int, height: int) -> Rect:
    """Smallest square containing ``rect``, kept inside the image.

    The square is centred on the rectangle, then shifted to stay in bounds.
    It shrinks only when the image's short side is smaller than the square,
    in which case containment is impossible and best-effort overlap is kept.
    """
    rect.require_within(width, height)
    side = max(rect.w, rect.h)
    side = min(side, width, height)
    x = rect.x + (rect.w - side) // 2
    y = rect.y + (rect.h - side) // 2
    x = min(max(x, 0), width - side)
    y = min(max(y, 0), height - side)
    return Rect(x, y, side, side)


@dataclass(frozen=True)
class PixelGrid:
    """Grayscale image with intensities in [0, 1], row-major."""

    intensities: np.ndarray  # (height, width) float64

    def __post_init__(self):
        a = float64_array(self.intensities, "an intensity")
        if a.ndim != 2 or a.size == 0:
            raise ValueError("intensities must be a non-empty 2-D array")
        if not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() > 1.0:
            raise ValueError("intensities must be finite and within [0, 1]")
        object.__setattr__(self, "intensities", a)

    @property
    def width(self) -> int:
        return self.intensities.shape[1]

    @property
    def height(self) -> int:
        return self.intensities.shape[0]

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "PixelGrid":
        a = np.asarray(values, dtype=np.float64)
        if a.size != width * height:
            raise ValueError(
                f"expected {width * height} intensities, got {a.size}"
            )
        return cls(a.reshape(height, width))


def first_nonfinite_row(a: np.ndarray):
    """Index of the first row of the 2-D ``a`` that holds a NaN or an
    infinity, or None.  Rows are checked in blocks of about 2**20
    values, so no ``a``-sized mask is built."""
    step = max(1, (1 << 20) // max(1, a.shape[1]))
    for start in range(0, a.shape[0], step):
        finite = np.isfinite(a[start:start + step]).all(axis=1)
        if not finite.all():
            return start + int(np.argmin(finite))
    return None


def check_ids(ids: tuple, what: str) -> None:
    """Raise ValueError unless ids are unique non-empty strings free of
    tabs, line breaks (the separators) and lone surrogates (not UTF-8)."""
    for i in ids:
        if (not (isinstance(i, str) and i)
                or "\t" in i or "\n" in i or "\r" in i):
            raise ValueError(f"invalid {what} {i!r}")
    try:
        "".join(ids).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"a {what} holds a lone surrogate") from None
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {what}s")


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense feature rows keyed by unique string ids.

    Treated as immutable after construction; safe to share across threads.
    """

    ids: tuple
    values: np.ndarray  # (n, dim) float64

    def __post_init__(self):
        ids = tuple(self.ids)
        a = float64_array(self.values, "a feature value")
        if a.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if len(ids) != a.shape[0]:
            raise ValueError(
                f"{len(ids)} ids for {a.shape[0]} rows"
            )
        if a.shape[0] > 0 and a.shape[1] < 1:
            raise ValueError("feature dimension must be at least 1")
        check_ids(ids, "feature id")
        if first_nonfinite_row(a) is not None:
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def load_features(path, fmt: str = "tsv") -> FeatureMatrix:
    """Read a feature matrix from ``path`` in ``tsv`` or ``binary`` format."""
    if fmt == "tsv":
        return _load_tsv(path)
    if fmt == "binary":
        return _load_binary(path)
    raise ValueError(f"unknown feature format {fmt!r}")


def save_features(matrix: FeatureMatrix, path, fmt: str = "tsv") -> None:
    """Write ``matrix`` so that :func:`load_features` can read it back.

    The binary format stores float32 payloads; matrices whose values are
    float32-representable round-trip bit-exactly.  A value beyond
    float32's finite range raises ValueError before the file is opened.
    """
    if matrix.n == 0:
        raise EmptyInput("refusing to write an empty feature matrix")
    if fmt == "tsv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for fid, row in zip(matrix.ids, matrix.values):
                fh.write(f"{fid}\t{fmt_row(row)}\n")
    elif fmt == "binary":
        with np.errstate(over="ignore"):
            values = matrix.values.astype("<f4")
        bad = first_nonfinite_row(values)
        if bad is not None:
            raise ValueError(f"feature row {matrix.ids[bad]!r} holds a value "
                             "beyond float32's finite range")
        with open(path, "wb") as fh:
            fh.write(FVEC_MAGIC)
            fh.write(struct.pack("<II", matrix.n, matrix.dim))
            fh.write(values.tobytes(order="C"))
            for fid in matrix.ids:
                fh.write(fid.encode("utf-8") + b"\n")
    else:
        raise ValueError(f"unknown feature format {fmt!r}")


@contextmanager
def open_text(path):
    """``path`` opened for reading as UTF-8 text with universal newlines.

    A byte that is not UTF-8 raises :class:`MalformedFile` naming the
    path and the line, counted as the text reader counts them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise MalformedFile(f"{path}:{lineno}: {bad}") from None
        raise MalformedFile(f"{path}: {exc}") from None


def _tsv_records(path, what, maxsplit=-1):
    """Yield ``(lineno, fields)`` for each line of a UTF-8 tab-separated
    text file that is non-empty once ``\\n`` and ``\\r`` are stripped.

    ``lineno`` counts from 1 and includes skipped empty lines; ``fields``
    is the line split on tabs at most ``maxsplit`` times.  A file with no
    such line raises :class:`MalformedFile` naming ``what``.
    """
    empty = True
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if line:
                empty = False
                yield lineno, line.split("\t", maxsplit)
    if empty:
        raise MalformedFile(f"{path}: empty {what}")


# ASCII separators that numpy strips around a number as whitespace while
# ``float()`` rejects them.
_NUMPY_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def parse_rows(path, bodies, linenos, width=None) -> np.ndarray:
    """The float64 rows of tab-separated decimal text: ``bodies[i]`` is
    the text of line ``linenos[i]`` of ``path``.  Every decimal reader of
    featkit's text formats parses its numbers here.

    Each value reads exactly as ``float()`` reads it.  One ``np.loadtxt``
    call parses every body; it rounds decimal text as ``float()`` does.
    When it rejects the bodies (a ragged row, a bad value, or a spelling
    only ``float()`` takes, such as ``1_000``), a body holds text the two
    read differently, or the rows are not ``width`` values wide,
    :func:`_float_rows` parses them instead and raises the ``path:line``
    error of the first bad row.  ``bodies`` must not be empty.
    """
    # loadtxt skips an empty body, where float("") fails.
    if all(bodies) and not any(
        c in body for body in bodies for c in _NUMPY_ONLY_SPACE
    ):
        try:
            values = np.loadtxt(bodies, delimiter="\t", comments=None,
                                ndmin=2)
            if width in (None, values.shape[1]):
                return values
        except ValueError:
            pass
    return _float_rows(path, bodies, linenos, width)


def _float_rows(path, bodies, linenos, width=None) -> np.ndarray:
    """Parse tab-separated row bodies with one ``float()`` per value."""
    rows = []
    for body, lineno in zip(bodies, linenos):
        try:
            row = [float(p) for p in body.split("\t")]
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
        width = width or len(row)
        if len(row) != width:
            raise MalformedFile(
                f"{path}:{lineno}: ragged row ({len(row)} != {width})"
            )
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def _load_tsv(path) -> FeatureMatrix:
    """Read TSV features through :func:`parse_rows`."""
    ids, bodies, linenos = [], [], []
    for lineno, parts in _tsv_records(path, "feature file", maxsplit=1):
        if len(parts) < 2:
            _float_rows(path, bodies, linenos)  # an earlier bad row wins
            raise MalformedFile(f"{path}:{lineno}: expected id and values")
        ids.append(parts[0])
        bodies.append(parts[1])
        linenos.append(lineno)
    return _build_matrix(path, ids, parse_rows(path, bodies, linenos))


class BinaryReader:
    """Front-to-back reads of an open binary file after its ``magic``: a
    read past the end raises ``MalformedFile("<path>: truncated <part>")``
    and sizes are checked against the bytes left before allocating."""

    def __init__(self, path, fh, magic: bytes):
        self.path, self._fh = path, fh
        if fh.read(len(magic)) != magic:
            raise MalformedFile(f"{path}: bad magic bytes")
        self._left = os.fstat(fh.fileno()).st_size - len(magic)

    def empty(self, part, dtype, *shape) -> np.ndarray:
        """A new array of ``shape`` that the bytes left can fill."""
        if math.prod(shape) * np.dtype(dtype).itemsize > self._left:
            raise MalformedFile(f"{self.path}: truncated {part}")
        return np.empty(shape, dtype)

    def values(self, part, dtype, *shape) -> np.ndarray:
        """The next values of ``dtype``, as a new array of ``shape``."""
        return self.into(part, self.empty(part, dtype, *shape))

    def into(self, part, out: np.ndarray) -> np.ndarray:
        """Fill the C-contiguous array ``out`` from the next bytes."""
        self._left -= out.nbytes
        if self._fh.readinto(out) != out.nbytes:
            raise MalformedFile(f"{self.path}: truncated {part}")
        return out

    def lines(self, part, count: int) -> list:
        """The next ``count`` >= 1 UTF-8 lines, without their newlines."""
        raw = list(itertools.islice(self._fh, count))
        self._left -= sum(map(len, raw))
        if len(raw) < count or not raw[-1].endswith(b"\n"):
            raise MalformedFile(f"{self.path}: truncated {part}")
        try:
            return b"".join(raw)[:-1].decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{self.path}: {exc}") from None

    def end(self) -> None:
        if self._fh.read(1):
            raise MalformedFile(f"{self.path}: trailing bytes")


def _load_binary(path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        reader = BinaryReader(path, fh, FVEC_MAGIC)
        n, d = reader.values("header", "<u4", 2).tolist()
        if n == 0 or d == 0:
            raise MalformedFile(
                f"{path}: empty matrix rejected (n={n}, d={d})")
        payload = reader.values("payload", "<f4", n, d)
        ids = reader.lines("id line", n)
        reader.end()
    with np.errstate(invalid="ignore"):  # a signalling NaN is rejected
        return _build_matrix(path, ids, payload.astype(np.float64))


def _build_matrix(path, ids, values) -> FeatureMatrix:
    try:
        return FeatureMatrix(tuple(ids), values)
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def load_labels(path) -> dict:
    """Read ``id<TAB>label`` lines into an id -> set-of-labels mapping."""
    labels: dict = {}
    for lineno, parts in _tsv_records(path, "label file"):
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise MalformedFile(f"{path}:{lineno}: expected 'id<TAB>label'")
        labels.setdefault(parts[0], set()).add(parts[1])
    return labels


def single_labels(labels: dict) -> dict:
    """Collapse id -> label sets to single labels, or fail loudly."""
    out = {}
    for fid, val in labels.items():
        if len(val) != 1:
            raise ValueError(f"id {fid!r} carries {len(val)} labels; "
                             "expected one")
        out[fid] = next(iter(val))
    return out


def load_pgm(path) -> PixelGrid:
    """Minimal grayscale PGM loader (P2 ASCII and P5 single-byte binary)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        magic, rest = blob.split(None, 1)
    except ValueError:
        raise MalformedFile(f"{path}: not a PGM file") from None
    if magic not in (b"P2", b"P5"):
        raise MalformedFile(f"{path}: unsupported PGM magic {magic!r}")

    # Header tokens may be interleaved with '#' comment lines.
    tokens = []
    pos = 0
    while len(tokens) < 3:
        while pos < len(rest) and rest[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(rest):
            raise MalformedFile(f"{path}: truncated PGM header")
        if rest[pos : pos + 1] == b"#":
            nl = rest.find(b"\n", pos)
            pos = len(rest) if nl < 0 else nl + 1
            continue
        end = pos
        while end < len(rest) and not rest[end : end + 1].isspace():
            end += 1
        tokens.append(rest[pos:end])
        pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise MalformedFile(f"{path}: non-numeric PGM header") from None
    if width < 1 or height < 1 or maxval < 1:
        raise MalformedFile(f"{path}: degenerate PGM header")

    if magic == b"P5":
        if maxval > 255:
            raise MalformedFile(f"{path}: only single-byte P5 supported")
        data = rest[pos + 1 : pos + 1 + width * height]
        if len(data) != width * height:
            raise MalformedFile(f"{path}: truncated P5 payload")
        pixels = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
    else:
        try:
            pixels = np.asarray(
                [int(t) for t in rest[pos:].split()], dtype=np.float64
            )
        except ValueError:
            raise MalformedFile(f"{path}: non-numeric P2 payload") from None
        if pixels.size != width * height:
            raise MalformedFile(f"{path}: P2 payload size mismatch")
    if pixels.size and pixels.max() > maxval:
        raise MalformedFile(f"{path}: sample exceeds maxval")
    return PixelGrid.from_flat(width, height, pixels / maxval)
