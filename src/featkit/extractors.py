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
* :class:`ExternalProcessExtractor` serves a batch over the line
  protocol: request ``id<TAB>image_path<TAB>x,y,w,h``, reply
  ``id<TAB>v1,v2,...`` (comma-separated decimals), one reply per request
  in any order.  The batch is split by whole images into up to one
  session (extractor process) per usable core, the CPU affinity mask;
  the sessions run at once and are read in one ``poll`` loop, with no
  thread.  Each session's requests come as a file on its stdin, so the
  process may reply per line or after EOF; it must answer only those
  requests and exit 0 once it has.  A session that sends no complete
  reply line for :data:`REPLY_TIMEOUT_S` seconds (from its start or its
  last one), or does not exit within that time after its last, is
  killed, and every other session with it.  Rotation/mirror geometry is
  appended to the region field as ``;rot=<deg>;mir=<0|1>``.  Its images
  are ``(path, width, height)``.
"""

from __future__ import annotations

import contextlib
import itertools
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


# Longest wait, in seconds, for a session's next complete reply line or
# for its exit after its last; a session silent for longer is killed.
REPLY_TIMEOUT_S = 300.0

# How often, in seconds, a session whose stdout has reached EOF is
# checked for its exit while the other sessions are read.
_EXIT_POLL_S = 0.005


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity mask, where
    the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shards(requests, n: int) -> list:
    """Request indices in at most ``n`` shards of whole images.

    The requests are grouped by image path in first-appearance order, and
    the groups are dealt into min(n, images) contiguous shards of about
    equal request counts.  Each shard lists its requests in request
    order.
    """
    groups = {}
    for i, (_, path, _) in enumerate(requests):
        groups.setdefault(path, []).append(i)
    groups = list(groups.values())
    n = min(n, len(groups))
    ends = list(itertools.accumulate(map(len, groups)))
    cuts = [0]
    for k in range(1, n):
        # The cut nearest k/n of the requests that leaves a group for
        # each shard still to come.
        target = k * len(requests) / n
        cuts.append(min(range(cuts[-1] + 1, len(groups) - n + k + 1),
                        key=lambda c: abs(ends[c - 1] - target)))
    cuts.append(len(groups))
    return [sorted(itertools.chain.from_iterable(groups[a:b]))
            for a, b in zip(cuts, cuts[1:])]


def _timed_lines(procs):
    """Yield ``(k, line)`` for each line read from ``procs[k]``'s stdout
    pipe, without its newline, and at the pipe's EOF what follows its
    last newline; then reap ``procs[k]`` once it exits, reading the
    other pipes meanwhile.  Stops once a process exits with a non-zero
    status.

    Every session has its own deadline: TimeoutError when an open pipe
    sends no complete line within :data:`REPLY_TIMEOUT_S` seconds of the
    start or of its last one, or when a process does not exit within
    that time of its EOF.
    """
    poller = select.poll()
    session = {}
    for k, proc in enumerate(procs):
        poller.register(proc.stdout, select.POLLIN)
        session[proc.stdout.fileno()] = k
    tails = {fd: bytearray() for fd in session}
    deadlines = dict.fromkeys(session, time.monotonic() + REPLY_TIMEOUT_S)
    exits = {}  # exit deadline of each session past its EOF
    while True:
        now = time.monotonic()
        for k, t in list(exits.items()):
            if procs[k].poll() is not None:
                del exits[k]
                if procs[k].returncode:
                    return
            elif t <= now:
                raise TimeoutError
        if not (deadlines or exits):
            return
        wait = min([*deadlines.values(), *exits.values()]) - now
        if exits:
            wait = min(wait, _EXIT_POLL_S)
        ready = {fd for fd, _ in poller.poll(max(0.0, wait) * 1000)}
        now = time.monotonic()
        if any(t <= now for fd, t in deadlines.items() if fd not in ready):
            raise TimeoutError
        for fd in ready:
            k = session[fd]
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                poller.unregister(fd)
                del deadlines[fd]
                exits[k] = now + REPLY_TIMEOUT_S
                yield k, tails[fd]
                continue
            tails[fd] += chunk
            if b"\n" in chunk:
                *lines, tails[fd] = tails[fd].split(b"\n")
                for line in lines:
                    yield k, line
                deadlines[fd] = time.monotonic() + REPLY_TIMEOUT_S


def _read_replies(lines, slots):
    """Parse ``(k, line)`` replies as they arrive into rows in request
    order; ``slots[k]`` maps each id sent to session k to its request
    index.

    Raises on the first malformed, unrequested, duplicate, wrong-width
    or non-finite reply; a reply names an unrequested id when its
    session was not sent that id.  Returns the rows (None if no reply
    came) and the mask of requests answered.
    """
    rows = None
    got = np.zeros(sum(map(len, slots)), dtype=bool)
    for k, raw in lines:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise ExtractorFailure(f"malformed reply line {line!r}")
        rid, payload = parts
        i = slots[k].get(rid)
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
            rows = np.empty((len(got), len(vec)), dtype=np.float64)
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
    """Serve one batch of ``requests``, (id, path, region) tuples with
    ``region`` a field as :func:`serialize_plan` writes it.

    The batch is split by whole images (:func:`_shards`) into one
    session per usable core at most.  Each session is one extractor
    process whose stdin is a temporary file of its request lines
    (UTF-8), so it may reply per line or after EOF.  The replies of
    every session are parsed in the calling thread as they arrive, so no
    reply text is buffered; they are matched by id and returned in
    request order.  Every session is killed and reaped on any failure,
    interrupts included, and when one sends no complete reply line, or
    does not exit after its last one, within :data:`REPLY_TIMEOUT_S`
    seconds.  A non-zero exit is reported for the first failing session
    in shard order.
    """
    requests = list(requests)
    ids = [rid for rid, _, _ in requests]
    if not ids:
        raise ValueError("no requests for protocol session")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate request id in protocol session")
    shards = _shards(requests, _usable_cores())
    slots = [{ids[i]: i for i in shard} for shard in shards]
    argv = shlex.split(command)
    procs, errs = [], []
    with contextlib.ExitStack() as files:
        try:
            for shard in shards:
                inp = files.enter_context(tempfile.TemporaryFile())
                errs.append(files.enter_context(tempfile.TemporaryFile()))
                inp.write("".join(
                    "{}\t{}\t{}\n".format(*requests[i]) for i in shard
                ).encode("utf-8"))
                inp.seek(0)
                try:
                    procs.append(subprocess.Popen(
                        argv, stdin=inp,
                        stdout=subprocess.PIPE, stderr=errs[-1]))
                except OSError as exc:
                    raise ExtractorFailure(
                        f"cannot start extractor: {exc}") from exc
            rows, got = _read_replies(_timed_lines(procs), slots)
            failed = [(p.returncode, err)
                      for p, err in zip(procs, errs) if p.poll()]
        except TimeoutError:
            raise ExtractorFailure(
                f"extractor sent no reply line for {REPLY_TIMEOUT_S:g} s "
                "and was killed"
            ) from None
        finally:
            for proc in procs:
                proc.kill()  # no-op once the process has been reaped
                proc.wait()
                proc.stdout.close()
        if failed:
            status, err = failed[0]
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
