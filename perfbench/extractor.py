"""Line-protocol feature extractor used by the retrieve-external workload.

Reads ``id<TAB>pgm_path<TAB>x,y,w,h`` requests from stdin until EOF and
answers ``id<TAB>v1,...,v64`` lines: the mean intensity of each cell of
an 8 x 8 grid over the region.  Standard library only, deterministic, and
each image is read once per session, so a session costs little more
than interpreter start.  The output checks import ``region_features`` to
recompute the same vectors.
"""

import sys

GRID = 8


def read_pgm(path):
    """(width, height, pixels) of a ``P5\\nW H\\n255\\n`` PGM file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(payload) != w * h:
        raise ValueError(f"{path}: expected an 8-bit P5 PGM")
    return w, h, payload


def integral_image(width, height, pixels):
    """(width + 1) x (height + 1) prefix sums, row-major."""
    stride = width + 1
    table = [0] * (stride * (height + 1))
    for y in range(height):
        run = 0
        row = pixels[y * width : (y + 1) * width]
        base = (y + 1) * stride
        above = y * stride
        for x, v in enumerate(row):
            run += v
            table[base + x + 1] = table[above + x + 1] + run
    return table


def _bounds(length, j):
    start = min(j * length // GRID, length - 1)
    return start, max((j + 1) * length // GRID, start + 1)


def region_features(width, table, x, y, w, h):
    """Mean intensity in [0, 1] of each of the GRID x GRID region cells."""
    stride = width + 1
    out = []
    for r in range(GRID):
        y0, y1 = _bounds(h, r)
        for c in range(GRID):
            x0, x1 = _bounds(w, c)
            a, b = (y + y0) * stride, (y + y1) * stride
            s = (table[b + x + x1] - table[b + x + x0]
                 - table[a + x + x1] + table[a + x + x0])
            out.append(s / (255.0 * (y1 - y0) * (x1 - x0)))
    return out


def main():
    tables = {}
    out = []
    for line in sys.stdin:
        line = line.rstrip("\n")
        if not line:
            continue
        rid, path, region = line.split("\t")
        if path not in tables:
            w, h, pixels = read_pgm(path)
            tables[path] = (w, integral_image(w, h, pixels))
        width, table = tables[path]
        x, y, w, h = (int(v) for v in region.split(";")[0].split(","))
        vec = region_features(width, table, x, y, w, h)
        out.append(rid + "\t" + ",".join(map(repr, vec)) + "\n")
    sys.stdout.write("".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
