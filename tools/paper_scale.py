"""Train one-vs-all SVMs on seeded paper-shaped rows and report the solver.

The rows mimic the paper's training sets: each image has 16 views, the
views are unit-norm 4096-d vectors around the image's class mean, and the
class means are orthonormal.  One binary model per class is trained over
all rows, as VOC 2007 trains one per class.  Run from a source tree:

    python tools/paper_scale.py --rows 20000

There are 4 classes, C is the VOC 2007 preset and the seed is 0.  It
prints tab-separated lines: the input shape and size, the RSS before
training, then one ``model`` line per class (epochs, coordinate visits,
free-set steps tried and kept, solve seconds, converged flag, final
duality gap) and the process's peak RSS.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from featkit.svm import C_PRESETS, SolverConfig, train_binary  # noqa: E402

VIEWS = 16
CLASSES = 4
DIM = 4096


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


def _rss_mb(kb: int) -> float:
    return kb / 1024.0  # Linux reports ru_maxrss in KiB


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rows", type=int, required=True,
                   help="training rows, a multiple of 16")
    args = p.parse_args(argv)
    if args.rows < VIEWS * CLASSES or args.rows % VIEWS:
        p.error(f"--rows must be a multiple of 16, at least {VIEWS * CLASSES}")

    x, labels = paper_rows(0, args.rows // VIEWS)
    cfg = SolverConfig(C=C_PRESETS["voc2007"])
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rows\t{x.shape[0]}\ndim\t{x.shape[1]}")
    print(f"input_mb\t{x.nbytes / 2**20:.1f}")
    print(f"peak_rss_before_train_mb\t{_rss_mb(usage):.1f}")
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
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_mb\t{_rss_mb(usage):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
