"""Writers for the label and PGM formats that tests build inputs with.

featkit only reads these two formats (``features.load_labels`` and
``features.load_pgm``); no command writes them.
"""

import numpy as np


def save_labels(labels: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for fid, val in labels.items():
            vals = sorted(val) if isinstance(val, (set, frozenset)) else [val]
            for v in vals:
                fh.write(f"{fid}\t{v}\n")


def save_pgm(grid, path, maxval: int = 255) -> None:
    if not 1 <= maxval <= 255:
        raise ValueError("maxval must be in [1, 255]")
    data = np.rint(grid.intensities * maxval).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (grid.width, grid.height, maxval))
        fh.write(data.tobytes(order="C"))
