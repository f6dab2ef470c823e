"""Probe featkit at the paper's scale on seeded paper-shaped rows.

Two modes, each run from a source tree:

    python tools/paper_scale.py --rows 20000
    python tools/paper_scale.py --refs 1000

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
times the chain fit, the per-reference block apply, ``save_index`` to a
temporary file, ``load_index``, the float64 copy of the loaded patch
block that search uses, and a few searches, each query being 14 (3
levels) of a reference's own patches.  It prints tab-separated lines:
the input shape and size, the RSS before the fit, each stage's seconds,
the index bytes, how many searches ranked their own reference first at
distance 0.0, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
from featkit.svm import C_PRESETS, SolverConfig, train_binary  # noqa: E402

VIEWS = 16
CLASSES = 4
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
    cfg = config.pipeline
    per_ref = patch_count(config.h_r)
    x = paper_patches(0, refs, per_ref)
    print(f"refs\t{refs}\npatches\t{x.shape[0]}\ndim\t{x.shape[1]}")
    print(f"input_mb\t{x.nbytes / 2**20:.1f}")
    print(f"peak_rss_before_fit_mb\t{_rss_mb():.1f}", flush=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = _timed("fit", retrieval_pipeline_fit, x, cfg)
    processed = _timed("apply", retrieval_pipeline_apply, model, cfg, x,
                       block=per_ref)
    index = RetrievalIndex(
        tuple(f"r{i}" for i in range(refs)), ((),) * refs,
        processed.reshape(refs, per_ref, -1),
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rows", type=int,
                      help="training rows, a multiple of 16")
    mode.add_argument("--refs", type=int,
                      help="index references, at least 2")
    args = p.parse_args(argv)
    if args.rows is not None:
        if args.rows < VIEWS * CLASSES or args.rows % VIEWS:
            p.error(f"--rows must be a multiple of 16, at least "
                    f"{VIEWS * CLASSES}")
        _train(args.rows)
    else:
        if args.refs < 2:
            p.error("--refs must be at least 2")
        _index(args.refs)
    print(f"peak_rss_mb\t{_rss_mb():.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
