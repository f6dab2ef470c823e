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

The modes below serve a batch split over several sessions:

    rendezvous DIR
                create a marker file in DIR, wait until DIR holds a
                second one (another session's) for at most 10 s, then
                answer like derive; exit 4 if none comes
    crash-if PATH
                a session sent image PATH exits 3; any other sleeps 60 s
                without replying
    hang-if PATH
                a session sent image PATH sleeps 60 s without replying;
                any other answers like derive, one line each 0.2 s
    also-reply ID
                answer like derive, plus a reply for ID when the session
                was not sent ID
    linger DIR  answer with each derive vector repeated to 4096 values.
                A session sent image ``linger`` replies, closes its
                stdout, leaves DIR/closed, then waits for DIR/done for at
                most 10 s and exits 0, or 4 if none comes.  Any other
                session waits for DIR/closed as long, replies (more than
                a pipe buffer in all) and then leaves DIR/done
"""

import os
import sys
import time
import zlib


def derive(path, region):
    h = zlib.crc32(f"{path}|{region}".encode("utf-8"))
    return [((h >> (8 * i)) & 0xFF) / 255.0 for i in range(4)]


def reply(rid, vec):
    return rid + "\t" + ",".join(repr(v) for v in vec) + "\n"


def rendezvous(folder) -> bool:
    open(os.path.join(folder, str(os.getpid())), "w").close()
    for _ in range(200):
        if len(os.listdir(folder)) >= 2:
            return True
        time.sleep(0.05)
    return False


def wait_for(path) -> bool:
    for _ in range(200):
        if os.path.exists(path):
            return True
        time.sleep(0.05)
    return False


def linger(requests, folder) -> int:
    out = "".join(reply(rid, derive(path, region) * 1024)
                  for rid, path, region in requests)
    if "linger" in {path for _, path, _ in requests}:
        sys.stdout.write(out)
        sys.stdout.flush()
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        open(os.path.join(folder, "closed"), "w").close()
        return 0 if wait_for(os.path.join(folder, "done")) else 4
    if not wait_for(os.path.join(folder, "closed")):
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    open(os.path.join(folder, "done"), "w").close()
    return 0


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "fixed"
    arg = sys.argv[2] if len(sys.argv) > 2 else None
    if mode == "crash":
        return 3
    if mode == "malformed-then-hang":
        print("not a reply line", flush=True)
        time.sleep(60)
        return 0
    requests = [line.rstrip("\n").split("\t") for line in sys.stdin
                if line.rstrip("\n")]
    paths = {path for _, path, _ in requests}
    if mode == "linger":
        return linger(requests, arg)
    if mode == "crash-if" and arg in paths:
        sys.stderr.write(f"crashed on {arg}\n")
        return 3
    if mode == "crash-if" or (mode == "hang-if" and arg in paths):
        time.sleep(60)
        return 0
    if mode == "rendezvous" and not rendezvous(arg):
        sys.stderr.write("no other session came\n")
        return 4
    replies = int(arg) if mode == "reply-then-hang" else None
    first = True
    out = []
    for rid, path, region in requests:
        if mode == "omit-first" and first:
            first = False
            continue
        if mode == "fixed":
            vec = [1.0, 2.0, 3.0, 4.0]
        elif mode == "mixed-dims":
            vec = [1.0] * (4 if first else 5)
            first = False
        else:
            vec = derive(path, region)
        out.append(reply(rid, vec))
    if mode == "also-reply" and arg not in {rid for rid, _, _ in requests}:
        out.append(reply(arg, [0.0] * 4))
    if mode == "reverse":
        out.reverse()
    if mode == "hang-if":
        for line in out:
            sys.stdout.write(line)
            sys.stdout.flush()
            time.sleep(0.2)
        return 0
    sys.stdout.write("".join(out[:replies]))
    sys.stdout.flush()
    if replies is not None:
        time.sleep(60)
    return 0


if __name__ == "__main__":
    sys.exit(main())
