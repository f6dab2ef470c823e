"""Probe featkit at the paper's scale on seeded paper-shaped rows.

Five modes, each run from a source tree:

    python tools/paper_scale.py --rows 20000
    python tools/paper_scale.py --refs 1000
    python tools/paper_scale.py --ovo-classes 67
    python tools/paper_scale.py --cli-refs 150
    python tools/paper_scale.py --cli-rows 4000

``--rows`` trains one-vs-all SVMs.  The rows mimic the paper's training
sets: each image has 16 views, the views are unit-norm 4096-d vectors
around the image's class mean, and the class means are orthonormal.  One
binary model per class is trained over all rows, as VOC 2007 trains one
per class.  There are 4 classes, C is the VOC 2007 preset and the seed is
0.  It prints tab-separated lines: the input shape and size, the RSS
before training, then one ``model`` line per class (epochs, coordinate
visits, free-set steps tried and kept, solve seconds, converged flag,
final duality gap) and the process's peak RSS.  Nothing is written to
disk.

``--refs`` builds a spatial-search index, as the paper's instance
retrieval does: each reference has 30 patches (4 levels) of 4096-d rows
around its own mean, and the chain reduces them to 500 dimensions.  It
times the chain fit, the apply over the (refs, 30, 4096) stack of
per-reference blocks, ``save_index`` to a temporary file,
``load_index``, the float64 copy of the loaded patch block that search
uses, and a few searches, each query being 14 (3 levels) of a
reference's own patches.  It prints tab-separated lines:
the input shape and size, the RSS before the fit, each stage's seconds,
the index bytes, how many searches ranked their own reference first at
distance 0.0, and the process's peak RSS.

``--ovo-classes K`` times a K-class one-vs-one model, as MIT-67 (K = 67)
trains one per class pair: K(K-1)/2 binary models of 4096 seeded normal
weights plus a bias weight.  It times ``save_model`` to a temporary file
and ``load_model``, then ``featkit predict --pooling sum``'s scoring of
MIT-67's test shape, 20 images per class of 16 unit-norm views each:
grouping the view ids, then each path scoring, pooling and voting every
image.  The pooled path is predict's (each image's views summed, one
product with the bias weight times 16); the per-view path scores every
view and sums each image's scores, as predict did before pooling first.
It prints tab-separated lines: the class, pair-model and image counts,
each stage's seconds, the file bytes, whether the loaded weights equal
the saved ones bit for bit, whether both paths vote every image alike,
the largest pooled-score difference in units of
``u * (sum_v |w|.|x_v| + 16 |b|)``, and the process's peak RSS.

``--cli-refs N`` and ``--cli-rows N`` run the ``featkit`` commands
themselves, each as a child process, on seeded FVEC1 files written to a
temporary directory.  ``--cli-refs`` writes the ``--refs`` patches of N
references and the first 14 patches of a few of them as queries, then
runs ``featkit index --extractor file`` and ``featkit query``, and
counts the queries that ranked their own reference first at distance
0.0.  ``--cli-rows`` writes the ``--rows`` rows as 16 views ``id#0`` to
``id#15`` per image with one label per image, then runs ``featkit train
--augment --strategy ova``.  Each command prints three lines: its exit
code, wall seconds and peak RSS in MiB, the ``ru_maxrss`` that ``wait4``
reports for it.  The probe frees its arrays before the first command
and starts each one from a small ``python -S`` helper, because a child
forked from a large process counts that process's pages in its own
``ru_maxrss``.  It byte-compiles ``src/featkit`` first, so that no
command's figures include compiling featkit, even in a tree without
``__pycache__`` or under ``PYTHONDONTWRITEBYTECODE=1``.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from featkit.augment import (  # noqa: E402
    pool_responses,
    representation_groups,
)
from featkit.features import FeatureMatrix, save_features  # noqa: E402
from featkit.preprocess import (  # noqa: E402
    retrieval_pipeline_apply,
    retrieval_pipeline_fit,
)
from featkit.retrieval import (  # noqa: E402
    RetrievalIndex,
    SpatialSearchConfig,
    load_index,
    patch_count,
    save_index,
    search,
)
from featkit.svm import (  # noqa: E402
    BinaryModel,
    C_PRESETS,
    MulticlassModel,
    SolverConfig,
    decision,
    load_model,
    predict_ovo_from_scores,
    save_model,
    train_binary,
)

VIEWS = 16
CLASSES = 4
TEST_IMAGES_PER_CLASS = 20  # MIT-67's test split
DIM = 4096
SEARCHES = 5


def paper_rows(seed: int, images: int):
    """(images * 16, 4096) unit rows and the class index of each row."""
    rng = np.random.default_rng(seed)
    means = np.linalg.qr(rng.standard_normal((DIM, CLASSES)))[0].T
    x = np.empty((images * VIEWS, DIM))
    labels = np.arange(images) % CLASSES
    for i, cls in enumerate(labels.tolist()):
        base = means[cls] + rng.standard_normal(DIM) / DIM**0.5
        views = base + 4.0 * rng.standard_normal((VIEWS, DIM)) / DIM**0.5
        x[i * VIEWS:(i + 1) * VIEWS] = views / np.linalg.norm(
            views, axis=1, keepdims=True
        )
    return x, np.repeat(labels, VIEWS)


def paper_patches(seed: int, refs: int, patches: int) -> np.ndarray:
    """(refs * patches, DIM) rows, each reference's patches around its own
    random mean."""
    rng = np.random.default_rng(seed)
    x = np.empty((refs * patches, DIM))
    for i in range(refs):
        x[i * patches:(i + 1) * patches] = (
            rng.standard_normal(DIM) + rng.standard_normal((patches, DIM))
        )
    return x


def _rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _train(rows: int) -> None:
    x, labels = paper_rows(0, rows // VIEWS)
    cfg = SolverConfig(C=C_PRESETS["voc2007"])
    print(f"rows\t{x.shape[0]}\ndim\t{x.shape[1]}")
    print(f"input_mb\t{x.nbytes / 2**20:.1f}")
    print(f"peak_rss_before_train_mb\t{_rss_mb():.1f}")
    print("model\tclass\tepochs\tvisits\tsteps_tried\tsteps_kept\t"
          "solve_s\tconverged\tgap")
    for cls in range(CLASSES):
        y = np.where(labels == cls, 1.0, -1.0)
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st = train_binary(x, y, cfg).stats
        solve_s = time.perf_counter() - t0
        print(f"model\t{cls}\t{st.epochs}\t{st.visits}\t"
              f"{st.free_set_tries}\t{st.free_set_steps}\t{solve_s:.2f}\t"
              f"{int(st.converged)}\t{st.gap:.3g}", flush=True)


def _timed(name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    print(f"{name}_s\t{time.perf_counter() - t0:.3f}", flush=True)
    return out


def _index(refs: int) -> None:
    config = SpatialSearchConfig()
    per_ref = patch_count(config.h_r)
    x = paper_patches(0, refs, per_ref)
    print(f"refs\t{refs}\npatches\t{x.shape[0]}\ndim\t{x.shape[1]}")
    print(f"input_mb\t{x.nbytes / 2**20:.1f}")
    print(f"peak_rss_before_fit_mb\t{_rss_mb():.1f}", flush=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = _timed("fit", retrieval_pipeline_fit, x, config.pca_dim,
                       config.epsilon)
    processed = _timed("apply", retrieval_pipeline_apply, model,
                       config.power, x.reshape(refs, per_ref, -1))
    index = RetrievalIndex(
        tuple(f"r{i}" for i in range(refs)), ((),) * refs, processed,
        model, config,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "paper.idx"
        _timed("save_index", save_index, index, path)
        print(f"index_bytes\t{path.stat().st_size}")
        loaded = _timed("load_index", load_index, path)
    queries = np.linspace(0, refs - 1, min(SEARCHES, refs)).astype(int)
    q_rows = patch_count(config.h_q)
    _timed("patch_matrix", lambda: loaded.patch_matrix)
    hits = 0
    t0 = time.perf_counter()
    for i in queries.tolist():
        raw = x[i * per_ref:i * per_ref + q_rows]
        [(top_id, dist)] = search(loaded, raw, top_k=1)
        hits += top_id == f"r{i}" and dist == 0.0
    print(f"search_ms_per_query\t"
          f"{(time.perf_counter() - t0) / queries.size * 1e3:.2f}")
    print(f"self_matches\t{hits}/{queries.size}")


def _ovo_model(classes: int) -> None:
    rng = np.random.default_rng(0)
    pairs = list(itertools.combinations(range(classes), 2))
    models = {
        key: BinaryModel(rng.standard_normal(DIM + 1), C_PRESETS["mit67"],
                         float(rng.random()), True)
        for key in pairs
    }
    model = MulticlassModel("ovo", tuple(f"c{i}" for i in range(classes)),
                            models, True)
    print(f"classes\t{classes}\npair_models\t{len(pairs)}\ndim\t{DIM}",
          flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ovo.tsvm"
        _timed("save_model", save_model, model, path)
        print(f"model_bytes\t{path.stat().st_size}")
        loaded = _timed("load_model", load_model, path)
    same = all(np.array_equal(loaded.models[key].w, m.w)
               for key, m in models.items())
    print(f"weights_round_trip\t{int(same)}")
    del models, model
    _predict(loaded, TEST_IMAGES_PER_CLASS * classes)


def _per_view_path(model, x):
    """Every view scored, then each image's 16 scores summed per pair as
    one contiguous run, as predict pooled before it summed rows; then the
    vote.  Returns the labels and the pooled scores."""
    scores = decision(model, x)
    pooled = np.stack([
        np.ascontiguousarray(scores[i:i + VIEWS].T).sum(axis=-1)
        for i in range(0, len(scores), VIEWS)
    ])
    return predict_ovo_from_scores(model, pooled), pooled


def _pooled_path(model, x, groups):
    """predict --pooling sum: one product over each image's summed views
    with the bias weight times its view count, then the vote."""
    pooled = decision(model, pool_responses(x, groups, "sum"),
                      np.bincount(groups))
    return predict_ovo_from_scores(model, pooled), pooled


def _predict(model, images: int) -> None:
    rng = np.random.default_rng(1)
    x = rng.standard_normal((images * VIEWS, DIM))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    ids = [f"img{i}#{v}" for i in range(images) for v in range(VIEWS)]
    print(f"images\t{images}\nviews\t{x.shape[0]}", flush=True)
    _, groups = _timed("representation_groups", representation_groups, ids)
    labels, pooled = _timed("predict_pooled", _pooled_path, model, x, groups)
    want, per_view = _timed("predict_per_view", _per_view_path, model, x)
    print(f"labels_agree\t{int(labels == want)}")
    w = np.abs(np.stack([m.w for m in model.models.values()]))
    abs_sums = pool_responses(np.abs(x, out=x), groups, "sum")
    scale = abs_sums @ w[:, :-1].T + VIEWS * w[:, -1]
    diff = np.abs(pooled - per_view) / (np.finfo(float).eps / 2 * scale)
    print(f"max_score_diff_u\t{diff.max():.2f}")


# Run as ``python -S -c SPAWN command...``: starts the command and
# prints its exit code, wall seconds and wait4 ru_maxrss (KiB).
SPAWN = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - t0,
      usage.ru_maxrss)
"""


def _featkit(command: str, *args) -> None:
    """Run ``featkit command args...`` from the spawn helper and print
    its exit code, wall seconds and peak RSS."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", SPAWN, sys.executable, "-m",
         "featkit.cli", command, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE,
        text=True, check=True,
    ).stdout
    code, wall_s, rss_kib = out.split()
    print(f"{command}_exit\t{code}\n{command}_s\t{float(wall_s):.2f}\n"
          f"{command}_peak_rss_mb\t{int(rss_kib) / 1024:.1f}", flush=True)


def _write_fvec1(path: Path, ids, x) -> None:
    save_features(FeatureMatrix(tuple(ids), x), path, "binary")
    print(f"{path.stem}_mb\t{path.stat().st_size / 2**20:.1f}")


def _write_cli_refs(tmp: Path, refs: int, queries) -> None:
    config = SpatialSearchConfig()
    per_ref, q_rows = patch_count(config.h_r), patch_count(config.h_q)
    x = paper_patches(0, refs, per_ref)
    print(f"refs\t{refs}\npatches\t{x.shape[0]}\ndim\t{x.shape[1]}")
    _write_fvec1(tmp / "patches.fvec",
                 (f"r{i}#{k}" for i in range(refs) for k in range(per_ref)), x)
    _write_fvec1(tmp / "queries.fvec",
                 (f"r{i}#{k}" for i in queries for k in range(q_rows)),
                 np.vstack([x[i * per_ref:i * per_ref + q_rows]
                            for i in queries]))
    (tmp / "refs.tsv").write_text("".join(f"r{i}\tx\n" for i in range(refs)))
    (tmp / "queries.tsv").write_text("".join(f"r{i}\tx\n" for i in queries))


def _cli_index(refs: int) -> None:
    queries = np.linspace(0, refs - 1, min(SEARCHES, refs)).astype(int)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_cli_refs(tmp, refs, queries.tolist())
        _featkit("index", "--images", tmp / "refs.tsv", "--extractor", "file",
                 "--features", tmp / "patches.fvec", "--format", "binary",
                 "--out", tmp / "corpus.idx")
        _featkit("query", "--index", tmp / "corpus.idx", "--queries",
                 tmp / "queries.tsv", "--extractor", "file", "--features",
                 tmp / "queries.fvec", "--format", "binary", "--top-k", "1",
                 "--out", tmp / "ranking.tsv")
        ranking = tmp / "ranking.tsv"
        lines = ranking.read_text().splitlines() if ranking.exists() else []
    hits = sum(q == ref and dist == "0.0"
               for q, _, ref, dist in (line.split("\t") for line in lines))
    print(f"self_matches\t{hits}/{queries.size}")


def _write_cli_rows(tmp: Path, rows: int) -> None:
    images = rows // VIEWS
    x, labels = paper_rows(0, images)
    print(f"rows\t{x.shape[0]}\ndim\t{x.shape[1]}")
    _write_fvec1(tmp / "rows.fvec",
                 (f"s{i}#{v}" for i in range(images) for v in range(VIEWS)), x)
    (tmp / "labels.tsv").write_text("".join(
        f"s{i}\tc{cls}\n" for i, cls in enumerate(labels[::VIEWS].tolist())))


def _cli_train(rows: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_cli_rows(tmp, rows)
        _featkit("train", "--features", tmp / "rows.fvec", "--format",
                 "binary", "--labels", tmp / "labels.tsv", "--strategy", "ova",
                 "--augment", "--preset", "voc2007", "--model-out",
                 tmp / "model.tsvm")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rows", type=int,
                      help="training rows, a multiple of 16")
    mode.add_argument("--refs", type=int,
                      help="index references, at least 2")
    mode.add_argument("--ovo-classes", type=int,
                      help="one-vs-one model classes, at least 2")
    mode.add_argument("--cli-refs", type=int,
                      help="references for featkit index and query, at "
                      "least 2")
    mode.add_argument("--cli-rows", type=int,
                      help="rows for featkit train --augment, a multiple "
                      "of 16")
    args = p.parse_args(argv)
    for rows in (args.rows, args.cli_rows):
        if rows is not None and (rows < VIEWS * CLASSES or rows % VIEWS):
            p.error(f"rows must be a multiple of 16, at least "
                    f"{VIEWS * CLASSES}")
    for refs in (args.refs, args.cli_refs):
        if refs is not None and refs < 2:
            p.error("references must be at least 2")
    if args.cli_rows is not None or args.cli_refs is not None:
        compileall.compile_dir(Path(SRC) / "featkit", quiet=1)
    if args.rows is not None:
        _train(args.rows)
    elif args.refs is not None:
        _index(args.refs)
    elif args.cli_rows is not None:
        _cli_train(args.cli_rows)
    elif args.cli_refs is not None:
        _cli_index(args.cli_refs)
    else:
        if args.ovo_classes < 2:
            p.error("--ovo-classes must be at least 2")
        _ovo_model(args.ovo_classes)
    print(f"peak_rss_mb\t{_rss_mb():.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
