"""Line-protocol extractor stub for tests.

Reads ``id<TAB>path<TAB>region`` requests from stdin until EOF and
answers ``id<TAB>v1,v2,...`` lines.  The first argument picks a mode:

    fixed       every reply is the same 4-vector
    derive      reply derives deterministically from (path, region)
    reverse     like derive, but replies arrive in reverse order
    omit-first  swallow the first request (protocol violation)
    mixed-dims  alternate 4- and 5-dimensional replies
    crash       exit 3 without replying
    malformed-then-hang
                print a malformed line, then sleep 60 s without reading
    reply-then-hang N
                read every request, answer the first N like derive, then
                sleep 60 s with stdout open
"""

import sys
import time
import zlib


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "fixed"
    if mode == "crash":
        return 3
    if mode == "malformed-then-hang":
        print("not a reply line", flush=True)
        time.sleep(60)
        return 0
    replies = int(sys.argv[2]) if mode == "reply-then-hang" else None
    first = True
    out = []
    for line in sys.stdin:
        line = line.rstrip("\n")
        if not line:
            continue
        rid, path, region = line.split("\t")
        if mode == "omit-first" and first:
            first = False
            continue
        if mode == "fixed":
            vec = [1.0, 2.0, 3.0, 4.0]
        elif mode == "mixed-dims":
            vec = [1.0] * (4 if first else 5)
            first = False
        else:
            h = zlib.crc32(f"{path}|{region}".encode("utf-8"))
            vec = [((h >> (8 * i)) & 0xFF) / 255.0 for i in range(4)]
        out.append(rid + "\t" + ",".join(repr(v) for v in vec) + "\n")
    if mode == "reverse":
        out.reverse()
    sys.stdout.write("".join(out[:replies]))
    sys.stdout.flush()
    if replies is not None:
        time.sleep(60)
    return 0


if __name__ == "__main__":
    sys.exit(main())
