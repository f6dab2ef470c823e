"""Seeded input generators for the featkit benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and a work directory,
writes the files the CLI commands read, and returns a ``Inputs`` record
holding the file paths plus the in-memory arrays the output checks need.
The same seed always gives byte-identical files.  The generators write
FVEC1, TSV and PGM themselves, so they do not depend on featkit.
"""

from __future__ import annotations

import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
VIEWS = 16          # representations per image (the augmentation recipe)
REF_LEVELS = 4      # reference patches: 1 + 4 + 9 + 16 = 30
QUERY_LEVELS = 3    # query patches: 1 + 4 + 9 = 14
REF_PATCHES = 30
QUERY_PATCHES = 14


@dataclass
class Inputs:
    files: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def write_fvec(path: Path, ids, values: np.ndarray) -> None:
    """FVEC1: magic, u32 n, u32 d, float32 LE rows, one id line per row."""
    with open(path, "wb") as fh:
        fh.write(b"FVEC1\n")
        fh.write(struct.pack("<II", *values.shape))
        fh.write(values.astype("<f4").tobytes(order="C"))
        fh.write("".join(f"{i}\n" for i in ids).encode("utf-8"))


def write_tsv_features(path: Path, ids, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for fid, row in zip(ids, values.tolist()):
            fh.write(fid + "\t" + "\t".join(map(repr, row)) + "\n")


def write_pairs(path: Path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{a}\t{b}\n" for a, b in pairs)


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(pixels.astype(np.uint8).tobytes(order="C"))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalized rows, rounded to float32 as FVEC1 stores them."""
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(np.float32).astype(np.float64)


def _image_views(rng, centre: np.ndarray, image_noise: float,
                 view_noise: float) -> np.ndarray:
    """Sixteen views of one image: a shared image offset plus per-view noise."""
    d = centre.size
    base = centre + image_noise * rng.standard_normal(d) / np.sqrt(d)
    views = base + view_noise * rng.standard_normal((VIEWS, d)) / np.sqrt(d)
    return _unit_rows(views)


def classification(rng, work: Path, *, multi_label: bool, n_classes: int,
                   dim: int, n_train: int, n_test: int, fmt: str,
                   image_noise: float, view_noise: float,
                   second_label_share: float = 0.3) -> Inputs:
    """Train and test sets of 16-view images over ``n_classes`` classes.

    Each class has a random unit mean, orthogonal to the others; an image
    sums the means of its labels.  With ``multi_label`` a share
    ``second_label_share`` of the images, chosen at random, carries a
    second label.
    """
    # Orthonormal class means: every seed has the same class geometry.
    means = np.linalg.qr(rng.standard_normal((dim, n_classes)))[0].T
    classes = [f"c{j}" for j in range(n_classes)]
    out = Inputs()
    for split, n_img in (("train", n_train), ("test", n_test)):
        ids, rows, labels = [], [], []
        n_second = round(second_label_share * n_img) if multi_label else 0
        second = set(rng.choice(n_img, size=n_second, replace=False).tolist())
        for i in range(n_img):
            img = f"{split}{i:05d}"
            first = i % n_classes
            labs = [first]
            if i in second:
                labs.append(int((first + rng.integers(1, n_classes))
                                % n_classes))
            rows.append(_image_views(rng, means[labs].sum(axis=0),
                                     image_noise, view_noise))
            ids.extend(f"{img}#{v}" for v in range(VIEWS))
            labels.extend((img, classes[j]) for j in sorted(labs))
        values = np.vstack(rows)
        feat = work / f"{split}.{'fvec' if fmt == 'binary' else 'tsv'}"
        if fmt == "binary":
            write_fvec(feat, ids, values)
        else:
            write_tsv_features(feat, ids, values)
        lab = work / f"{split}-labels.tsv"
        write_pairs(lab, labels)
        out.files[f"{split}_features"] = feat
        out.files[f"{split}_labels"] = lab
        out.data[f"{split}_ids"] = ids
        out.data[f"{split}_values"] = values
        out.data[f"{split}_labels"] = labels
    out.data["classes"] = classes
    return out


def _retrieval_layout(rng, n_objects: int, refs_per_object: int,
                      n_queries: int, duplicate_share: float):
    """Reference ids and objects, plus query -> (object, duplicated ref)."""
    refs = [(f"r{o:03d}{j}", o) for o in range(n_objects)
            for j in range(refs_per_object)]
    n_dup = int(round(duplicate_share * n_queries))
    dup_refs = rng.choice(len(refs), size=n_dup, replace=False)
    queries = []
    for qi in range(n_queries):
        if qi < n_dup:
            rid, obj = refs[int(dup_refs[qi])]
            queries.append((f"q{qi:03d}", obj, rid))
        else:
            queries.append((f"q{qi:03d}", int(rng.integers(n_objects)), None))
    relevant = [(qid, rid) for qid, obj, _ in queries
                for rid, o in refs if o == obj]
    return refs, queries, relevant


def retrieval_fvec(rng, work: Path, *, n_objects: int, refs_per_object: int,
                   n_queries: int, dim: int, noise: float,
                   duplicate_share: float = 0.25) -> Inputs:
    """Precomputed patch features for references and queries (FVEC1).

    Patch j of every view of an object is that object's patch prototype j
    plus noise; a query's 14 patches are the prototypes of the first three
    levels.  A quarter of the queries reuse a reference's own first 14
    patch rows, so their best match is a self-match at distance 0.
    """
    refs, queries, relevant = _retrieval_layout(
        rng, n_objects, refs_per_object, n_queries, duplicate_share)
    protos = rng.standard_normal((n_objects, REF_PATCHES, dim))

    def views(obj, count):
        x = protos[obj, :count] + noise * rng.standard_normal((count, dim))
        return _unit_rows(np.abs(x))

    ref_raw = {rid: views(o, REF_PATCHES) for rid, o in refs}
    query_raw = {
        qid: (ref_raw[dup][:QUERY_PATCHES] if dup else
              views(o, QUERY_PATCHES))
        for qid, o, dup in queries
    }
    out = Inputs()
    ref_ids = [f"{rid}#{k}" for rid, _ in refs for k in range(REF_PATCHES)]
    write_fvec(work / "refs.fvec", ref_ids,
               np.vstack([ref_raw[rid] for rid, _ in refs]))
    q_ids = [f"{qid}#{k}" for qid, _, _ in queries
             for k in range(QUERY_PATCHES)]
    write_fvec(work / "queries.fvec", q_ids,
               np.vstack([query_raw[qid] for qid, _, _ in queries]))
    write_pairs(work / "refs.tsv", [(rid, "-") for rid, _ in refs])
    write_pairs(work / "queries.tsv", [(qid, "-") for qid, _, _ in queries])
    write_pairs(work / "relevant.tsv", relevant)
    out.files.update(
        ref_features=work / "refs.fvec", query_features=work / "queries.fvec",
        refs=work / "refs.tsv", queries=work / "queries.tsv",
        relevant=work / "relevant.tsv",
    )
    out.data.update(ref_ids=[rid for rid, _ in refs], ref_raw=ref_raw,
                    query_ids=[q for q, _, _ in queries], query_raw=query_raw,
                    duplicates={q: d for q, _, d in queries if d},
                    relevant=relevant)
    return out


def _smooth_image(rng, side: int) -> np.ndarray:
    """A random 8x8 pattern upsampled to ``side`` x ``side`` in [0, 1]."""
    coarse = rng.random((8, 8))
    reps = side // 8
    return np.kron(coarse, np.ones((reps, reps)))


def retrieval_external(rng, work: Path, *, n_objects: int,
                       refs_per_object: int, n_queries: int, side: int,
                       noise: float, max_shift: int,
                       duplicate_share: float = 0.25) -> Inputs:
    """PGM images plus a copy of the line-protocol extractor program.

    Each image is its object's pattern, cyclically shifted by up to
    ``max_shift`` pixels per axis, plus pixel noise.
    A quarter of the queries name a reference's own PGM file, so their
    best match is a self-match at distance 0.
    """
    refs, queries, relevant = _retrieval_layout(
        rng, n_objects, refs_per_object, n_queries, duplicate_share)
    protos = [_smooth_image(rng, side) for _ in range(n_objects)]
    img_dir = work / "images"
    img_dir.mkdir()

    def draw(name, obj):
        shift = rng.integers(-max_shift, max_shift + 1, size=2)
        x = np.roll(protos[obj], tuple(shift), axis=(0, 1))
        x = x + noise * rng.standard_normal((side, side))
        path = img_dir / f"{name}.pgm"
        write_pgm(path, np.clip(np.rint(255 * x), 0, 255))
        return path

    ref_paths = {rid: draw(rid, o) for rid, o in refs}
    query_paths = {
        qid: ref_paths[dup] if dup else draw(qid, o)
        for qid, o, dup in queries
    }
    extractor = work / "extractor.py"
    shutil.copyfile(HERE / "extractor.py", extractor)
    write_pairs(work / "refs.tsv",
                [(rid, f"{ref_paths[rid]}\t{side}\t{side}")
                 for rid, _ in refs])
    write_pairs(work / "queries.tsv",
                [(qid, f"{query_paths[qid]}\t{side}\t{side}")
                 for qid, _, _ in queries])
    write_pairs(work / "relevant.tsv", relevant)
    out = Inputs()
    out.files.update(refs=work / "refs.tsv", queries=work / "queries.tsv",
                     relevant=work / "relevant.tsv", extractor=extractor)
    out.data.update(ref_ids=[rid for rid, _ in refs], ref_paths=ref_paths,
                    query_ids=[q for q, _, _ in queries],
                    query_paths=query_paths,
                    duplicates={q: d for q, _, d in queries if d},
                    relevant=relevant, side=side)
    return out
