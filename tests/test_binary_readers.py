"""FVEC1 and OTIDX1 under corrupt bytes: every mutant is rejected as
``MalformedFile`` naming the path or loads and round-trips, no size
field allocates more than its file holds, and the CLI reports a bad
file in one line."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import featkit
from featkit.errors import MalformedFile
from featkit.features import load_features, save_features
from featkit.retrieval import load_index, save_index
from mutants import check_cli_rejects, run_cli, sweep

DATA = Path(__file__).parent / "data"
FIXTURE = (DATA / "otidx1_small.idx").read_bytes()


def _fvec1_blob(seed=5) -> bytes:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(5, 3)).astype(np.float32).astype(np.float64)
    blob = b"FVEC1\n" + struct.pack("<II", 5, 3)
    blob += values.astype("<f4").tobytes()
    return blob + b"".join(f"r{i}\n".encode() for i in range(5))


def _load_fvec1(path):
    return load_features(path, "binary")


def _save_fvec1(matrix, path):
    save_features(matrix, path, "binary")


def _same_matrix(a, b) -> bool:
    return a.ids == b.ids and np.array_equal(a.values, b.values)


def _same_index(a, b) -> bool:
    return (a.ids == b.ids and a.rects == b.rects and a.config == b.config
            and np.array_equal(a.vectors, b.vectors)
            and a.model.epsilon == b.model.epsilon
            and all(np.array_equal(getattr(a.model, f), getattr(b.model, f))
                    for f in ("mean", "components", "eigenvalues")))


def _otidx1_fields(blob: bytes) -> list:
    """The byte positions of an OTIDX1 file's header and per-reference
    fields: everything but the chain text and the patch vectors."""
    pos = blob.index(b"\n", len(b"OTIDX1\n")) + 1
    (mlen,) = struct.unpack_from("<I", blob, pos)
    fields = list(range(pos + 4))
    pos += 4 + mlen
    (n_refs,) = struct.unpack_from("<I", blob, pos)
    fields += range(pos, pos + 4)
    pos += 4
    for _ in range(n_refs):
        start = pos
        pos = blob.index(b"\n", pos) + 1
        (n_rects,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + 16 * n_rects
        n, k = struct.unpack_from("<II", blob, pos)
        pos += 8
        fields += range(start, pos)
        pos += 4 * n * k
    assert pos == len(blob)
    return fields


def _reference_count_at(blob: bytes) -> int:
    pos = blob.index(b"\n", len(b"OTIDX1\n")) + 1
    return pos + 4 + struct.unpack_from("<I", blob, pos)[0]


class TestMutationSweep:
    def test_fvec1_every_byte(self, tmp_path):
        blob = _fvec1_blob()
        rejected, loaded = sweep(tmp_path / "m.fvec", blob, _load_fvec1,
                                 _save_fvec1, _same_matrix,
                                 range(len(blob)))
        assert rejected and loaded

    def test_otidx1_fixture_fields_and_sampled_bytes(self, tmp_path):
        assert len(FIXTURE) == 3098
        rejected, loaded = sweep(tmp_path / "m.idx", FIXTURE, load_index,
                                 save_index, _same_index,
                                 _otidx1_fields(FIXTURE), others=300,
                                 seed=17)
        assert rejected and loaded


def _assert_truncated_in_bounds(path, load, part):
    """``load(path)`` raises ``<path>: truncated <part>`` without
    allocating more than the file holds."""
    tracemalloc.start()
    try:
        with pytest.raises(MalformedFile) as err:
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: truncated {part}"
    assert peak < 1 << 20


class TestSizeFields:
    """Each size field, set past the end of its file, is a truncation
    found before anything of that size is allocated."""

    @pytest.mark.parametrize("n, d", [
        (0xFFFFFFFF, 3), (5, 0xFFFFFFFF), (0xFFFFFFFF, 0xFFFFFFFF),
        (7, 3),
    ])
    def test_fvec1_rows_and_dimension(self, tmp_path, n, d):
        blob = _fvec1_blob()
        path = tmp_path / "big.fvec"
        path.write_bytes(blob[:6] + struct.pack("<II", n, d) + blob[14:])
        _assert_truncated_in_bounds(path, _load_fvec1, "payload")

    def test_otidx1_model_length(self, tmp_path):
        pos = FIXTURE.index(b"\n", len(b"OTIDX1\n")) + 1
        path = tmp_path / "model.idx"
        path.write_bytes(FIXTURE[:pos] + struct.pack("<I", 0xFFFFFFFF)
                         + FIXTURE[pos + 4:])
        _assert_truncated_in_bounds(path, load_index, "model block")

    @pytest.mark.parametrize("count", [5, 0x80000001, 0xFFFFFFFF])
    def test_otidx1_reference_count(self, tmp_path, count):
        pos = _reference_count_at(FIXTURE)
        path = tmp_path / "refs.idx"
        path.write_bytes(FIXTURE[:pos] + struct.pack("<I", count)
                         + FIXTURE[pos + 4:])
        _assert_truncated_in_bounds(path, load_index, "vector block")

    @pytest.mark.parametrize("count", [0x80000001, 0x10000001, 0xFFFFFFFF])
    def test_otidx1_rect_count(self, tmp_path, count):
        # The first reference's rect count, 0 in the fixture; 16 * count
        # wraps to 16 in 32 bits for 0x10000001 and 0x80000001.
        pos = FIXTURE.index(b"\n", _reference_count_at(FIXTURE) + 4) + 1
        path = tmp_path / "rects.idx"
        path.write_bytes(FIXTURE[:pos] + struct.pack("<I", count)
                         + FIXTURE[pos + 4:])
        _assert_truncated_in_bounds(path, load_index, "rect block")

    def test_otidx1_patch_levels(self, tmp_path):
        # h_r = 10**12 levels means about 3e35 patches per reference.
        end = FIXTURE.index(b"\n", len(b"OTIDX1\n"))
        cfg = FIXTURE[len(b"OTIDX1\n"):end].split(b"\t")
        path = tmp_path / "levels.idx"
        path.write_bytes(b"OTIDX1\n" + b"\t".join([b"1" + b"0" * 12, *cfg[1:]])
                         + FIXTURE[end:])
        _assert_truncated_in_bounds(path, load_index, "vector block")

    def test_fvec1_trailing_bytes_and_missing_id(self, tmp_path):
        blob = _fvec1_blob()
        path = tmp_path / "m.fvec"
        path.write_bytes(blob + b"r5\n")
        with pytest.raises(MalformedFile, match="trailing bytes"):
            _load_fvec1(path)
        path.write_bytes(blob[:-3])
        with pytest.raises(MalformedFile, match="truncated id line"):
            _load_fvec1(path)


def _fvec1_mutant(kind: str) -> bytes:
    blob = bytearray(_fvec1_blob())
    if kind == "snan":
        blob[14:18] = struct.pack("<I", 0x7F800001)
    elif kind == "rows":
        blob[6:10] = struct.pack("<I", 0xFFFFFFFF)
    elif kind == "id":
        blob[-2] = 0x80
    else:
        blob += b"\x00" * 4
    return bytes(blob)


def _otidx1_mutant(kind: str) -> bytes:
    pos = _reference_count_at(FIXTURE)
    if kind == "refs":
        return (FIXTURE[:pos] + struct.pack("<I", 0x80000001)
                + FIXTURE[pos + 4:])
    if kind == "id":
        return FIXTURE[:pos + 4] + b"\xff" + FIXTURE[pos + 5:]
    if kind == "cut":
        return FIXTURE[:-5]
    return FIXTURE + b"x"


class TestCliBadBinaryInput:
    """A bad FVEC1 or OTIDX1 file exits 2 with one ``featkit:`` line
    naming it, no warning and no output file."""

    @pytest.mark.parametrize("kind", ["snan", "rows", "id", "tail"])
    def test_preprocess_fit(self, tmp_path, kind):
        path, out = tmp_path / "bad.fvec", tmp_path / "chain.pcaw"
        path.write_bytes(_fvec1_mutant(kind))
        check_cli_rejects(path, out, run_cli([
            "preprocess-fit", "--features", path, "--format", "binary",
            "--pca-dim", "2", "--out", out]))

    @pytest.mark.parametrize("kind", ["refs", "id", "cut", "tail"])
    def test_query(self, tmp_path, kind):
        path, out = tmp_path / "bad.idx", tmp_path / "ranking.tsv"
        path.write_bytes(_otidx1_mutant(kind))
        manifest = tmp_path / "queries.tsv"
        manifest.write_text("q0\tx\n")
        check_cli_rejects(path, out, run_cli([
            "query", "--index", path, "--queries", manifest,
            "--extractor", "file",
            "--features", DATA / "otidx1_small_queries.tsv",
            "--out", out]))

    def test_signalling_nan_prints_no_warning(self, tmp_path):
        """In a process of its own, where numpy's warnings would reach
        stderr."""
        path, out = tmp_path / "snan.fvec", tmp_path / "chain.pcaw"
        path.write_bytes(_fvec1_mutant("snan"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(featkit.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "featkit.cli", "preprocess-fit",
             "--features", str(path), "--format", "binary",
             "--pca-dim", "2", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"featkit: {path}: feature values must be finite\n")
        assert not out.exists()
