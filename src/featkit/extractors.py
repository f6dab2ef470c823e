"""Pluggable feature-extraction boundary.

Every binding has two methods.  ``extract_batch(requests) -> ndarray``
is its one entry point: each request is a ``(rep_id, image,
TransformPlan)`` tuple and yields one row, in request order; an empty
batch is a ``ValueError``.  ``image_size(image)`` gives the geometry
callers plan against (None when the binding has none).

* :class:`ToyPixelExtractor` pools a region of a :class:`PixelGrid` into a
  g x g grid of mean cell intensities (dimension g**2).
* :class:`FileBackedExtractor` is a pure lookup into a loaded
  :class:`FeatureMatrix`, keyed by ``rep_id``; images and plans are
  ignored.
* :class:`ExternalProcessExtractor` serves a whole batch with one session
  of the line protocol: request ``id<TAB>image_path<TAB>x,y,w,h``, reply
  ``id<TAB>v1,v2,...`` (comma-separated decimals), one reply per request
  in any order.  The requests come as a file on stdin, so the process
  may reply per line or after EOF; it must exit 0 once it has answered.
  An extractor that sends no complete reply line for
  :data:`REPLY_TIMEOUT_S` seconds (from the session start or its last
  one), or does not exit within that time after its last, is killed.
  Rotation/mirror geometry is appended to the region field as
  ``;rot=<deg>;mir=<0|1>``.  Its images are ``(path, width, height)``.
"""

from __future__ import annotations

import math
import os
import select
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExtractorFailure, ProtocolViolation, UnknownId
from .features import FeatureMatrix, PixelGrid, Rect


@dataclass(frozen=True)
class TransformPlan:
    """Crop (None means full image), rotation in degrees CCW, mirror flag.

    Geometry only: rotate the image in place, crop in that frame, then
    mirror the cropped patch.  Pixel resampling is the extractor's job.
    """

    crop: Rect | None = None
    rotation_degrees: float = 0.0
    mirrored: bool = False

    def __post_init__(self):
        if not -180.0 < self.rotation_degrees <= 180.0:
            raise ValueError("rotation must lie in (-180, 180] degrees")

    def mirror_toggled(self) -> "TransformPlan":
        return replace(self, mirrored=not self.mirrored)


def serialize_plan(plan: TransformPlan, width: int, height: int) -> str:
    """Protocol region field for a plan, e.g. ``0,0,64,64;rot=20.0;mir=1``:
    the crop (the whole ``width`` x ``height`` image when None), then
    the geometry suffix when the plan rotates or mirrors."""
    r = plan.crop if plan.crop is not None else Rect(0, 0, width, height)
    field = f"{r.x},{r.y},{r.w},{r.h}"
    if plan.rotation_degrees != 0.0 or plan.mirrored:
        field += (f";rot={plan.rotation_degrees!r};"
                  f"mir={1 if plan.mirrored else 0}")
    return field


def rotate_nearest(image: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate counterclockwise about the image centre.

    Nearest-neighbour sampling; out-of-frame sources clamp to the edge
    (edge replication).  Output shape equals input shape.
    """
    if degrees == 0.0:
        return image
    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dx, dy = xs - cx, ys - cy
    # Inverse mapping of a CCW rotation (y axis points down).
    src_x = cos_t * dx - sin_t * dy + cx
    src_y = sin_t * dx + cos_t * dy + cy
    src_x = np.clip(np.rint(src_x).astype(np.intp), 0, w - 1)
    src_y = np.clip(np.rint(src_y).astype(np.intp), 0, h - 1)
    return image[src_y, src_x]


def _cell_bounds(length: int, cells: int, j: int) -> tuple:
    # Cells partition [0, length) when length >= cells; for smaller
    # regions neighbouring cells share pixels so no cell is ever empty.
    start = min(j * length // cells, length - 1)
    stop = max((j + 1) * length // cells, start + 1)
    return start, stop


def _batch(requests) -> list:
    reqs = list(requests)
    if not reqs:
        raise ValueError("no requests in extraction batch")
    return reqs


class ToyPixelExtractor:
    """Deterministic g x g mean-intensity pooling over pixel regions."""

    def __init__(self, grid_cells: int):
        if grid_cells < 1:
            raise ValueError("grid_cells must be at least 1")
        self.grid_cells = grid_cells

    def image_size(self, image) -> tuple:
        if not isinstance(image, PixelGrid):
            raise ExtractorFailure(
                "toy extractor requires a PixelGrid image"
            )
        return image.width, image.height

    def extract_batch(self, requests) -> np.ndarray:
        reqs = _batch(requests)
        return np.stack([self._pool(image, plan) for _, image, plan in reqs])

    def _pool(self, image, plan: TransformPlan) -> np.ndarray:
        w, h = self.image_size(image)
        rect = plan.crop if plan.crop is not None else Rect(0, 0, w, h)
        rect.require_within(w, h)
        pixels = rotate_nearest(image.intensities, plan.rotation_degrees)
        patch = pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
        if plan.mirrored:
            patch = patch[:, ::-1]
        g = self.grid_cells
        out = np.empty(g * g, dtype=np.float64)
        for r in range(g):
            y0, y1 = _cell_bounds(rect.h, g, r)
            for c in range(g):
                x0, x1 = _cell_bounds(rect.w, g, c)
                out[r * g + c] = patch[y0:y1, x0:x1].mean()
        return out


class FileBackedExtractor:
    """Pure lookup of precomputed vectors by representation id."""

    def __init__(self, matrix: FeatureMatrix):
        self.matrix = matrix
        self._rows = {fid: i for i, fid in enumerate(matrix.ids)}

    def image_size(self, image) -> None:
        """None: vectors are keyed by id, so there is no geometry."""
        return None

    def extract_batch(self, requests) -> np.ndarray:
        rows = []
        for rep_id, _, _ in _batch(requests):
            try:
                rows.append(self._rows[rep_id])
            except KeyError:
                raise UnknownId(
                    f"no stored vector for id {rep_id!r}"
                ) from None
        return self.matrix.values[rows]


class ExternalProcessExtractor:
    """Line-protocol client around an external command.

    Images are ``(path, width, height)`` tuples: the dimensions resolve a
    full-image plan (``crop`` None) on this side.
    """

    def __init__(self, command: str):
        if not command.strip():
            raise ValueError("external extractor command is empty")
        self.command = command

    def image_size(self, image) -> tuple:
        if not (isinstance(image, tuple) and len(image) == 3):
            raise ExtractorFailure(
                "external extraction needs (path, width, height) images"
            )
        return image[1:]

    def extract_batch(self, requests) -> np.ndarray:
        wire = [
            (rep_id, image[0], serialize_plan(plan, *self.image_size(image)))
            for rep_id, image, plan in _batch(requests)
        ]
        return run_protocol(self.command, wire).values


# Longest wait, in seconds, for the next complete reply line or for the
# exit after the last one; an extractor silent for longer is killed.
REPLY_TIMEOUT_S = 300.0


def _timed_lines(stdout):
    """Yield the lines read from the pipe ``stdout``, without their
    newlines, then what follows the last newline at EOF.  Raises
    TimeoutError when no complete line comes within
    :data:`REPLY_TIMEOUT_S` seconds of the start or of the last one."""
    poller = select.poll()
    poller.register(stdout, select.POLLIN)
    tail = bytearray()
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    while poller.poll(max(0.0, deadline - time.monotonic()) * 1000):
        chunk = os.read(stdout.fileno(), 1 << 16)
        if not chunk:
            yield tail
            return
        tail += chunk
        if b"\n" in chunk:
            *lines, tail = tail.split(b"\n")
            yield from lines
            deadline = time.monotonic() + REPLY_TIMEOUT_S
    raise TimeoutError


def _read_replies(lines, slot: dict):
    """Parse reply lines as they arrive into rows ordered by ``slot``.

    Raises on the first malformed, unrequested, duplicate, wrong-width
    or non-finite reply.  Returns the rows (None if no reply came) and
    the mask of requests answered.
    """
    rows = None
    got = np.zeros(len(slot), dtype=bool)
    for raw in lines:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise ExtractorFailure(f"malformed reply line {line!r}")
        rid, payload = parts
        i = slot.get(rid)
        if i is None:
            raise ProtocolViolation(f"reply for unrequested id {rid!r}")
        if got[i]:
            raise ProtocolViolation(f"duplicate reply for id {rid!r}")
        try:
            vec = [float(p) for p in payload.split(",")]
        except ValueError:
            raise ExtractorFailure(
                f"malformed reply vector for id {rid!r}"
            ) from None
        if rows is None:
            rows = np.empty((len(slot), len(vec)), dtype=np.float64)
        elif len(vec) != rows.shape[1]:
            raise ProtocolViolation(
                f"reply dimension {len(vec)} for id {rid!r} differs from "
                f"{rows.shape[1]}"
            )
        rows[i] = vec
        if not np.all(np.isfinite(rows[i])):
            raise ProtocolViolation("non-finite value in extractor reply")
        got[i] = True
    return rows, got


def run_protocol(command: str, requests) -> FeatureMatrix:
    """Run one protocol session; ``requests`` are (id, path, region)
    tuples, ``region`` a field as :func:`serialize_plan` writes it.

    The request lines (UTF-8) are written to a temporary file that the
    extractor reads as its stdin, so it may reply per line or after EOF.
    Replies are parsed in the calling thread as they arrive, so no reply
    text is buffered; they are matched by id and returned in request
    order.  The extractor is killed and reaped on any failure,
    interrupts included, and when it sends no complete reply line, or
    does not exit after its last one, within :data:`REPLY_TIMEOUT_S`
    seconds.
    """
    requests = list(requests)
    ids = [rid for rid, _, _ in requests]
    if not ids:
        raise ValueError("no requests for protocol session")
    slot = {rid: i for i, rid in enumerate(ids)}
    if len(slot) != len(ids):
        raise ValueError("duplicate request id in protocol session")

    with tempfile.TemporaryFile() as inp, tempfile.TemporaryFile() as err:
        inp.write("".join(f"{rid}\t{path}\t{region}\n"
                          for rid, path, region in requests).encode("utf-8"))
        inp.seek(0)
        try:
            proc = subprocess.Popen(shlex.split(command), stdin=inp,
                                    stdout=subprocess.PIPE, stderr=err)
        except OSError as exc:
            raise ExtractorFailure(f"cannot start extractor: {exc}") from exc
        try:
            rows, got = _read_replies(_timed_lines(proc.stdout), slot)
            status = proc.wait(REPLY_TIMEOUT_S)
        except (TimeoutError, subprocess.TimeoutExpired):
            raise ExtractorFailure(
                f"extractor sent no reply line for {REPLY_TIMEOUT_S:g} s "
                "and was killed"
            ) from None
        finally:
            proc.kill()  # no-op once the process has been reaped
            proc.wait()
            proc.stdout.close()
        if status != 0:
            err.seek(0)
            tail = err.read().decode("utf-8", "replace").strip()
            detail = tail.splitlines()[-1] if tail else ""
            raise ExtractorFailure(
                f"extractor exited with status {status}: {detail}"
            )
    if not got.all():
        missing = ids[int(np.argmin(got))]
        raise ProtocolViolation(f"missing reply for id {missing!r}")
    return FeatureMatrix(tuple(ids), rows)
