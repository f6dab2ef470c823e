"""featkit benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a featkit source tree.  The command generates the
workload's inputs from the seed, then runs the workload's CLI commands
(``train``/``predict``/``evaluate`` or ``index``/``query``/``evaluate``),
each as its own child process, one at a time, in a closed loop with one
client, for at least ``S`` seconds.  BLAS keeps its default thread count.
Every output is checked against an oracle that shares no code with
featkit (``checks.py``) and must be byte-identical across repeats.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` every second repeat runs through ``tracing.py`` and it
reports the per-layer metrics instead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines before it print each metric under the name
it has on the workload (for example ``train_rows_per_s`` for
``build_items_per_s``) and record the machine.

Inputs and outputs live in ``.perfbench-work/`` under the source tree
and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import extractor
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
HARD_STOP_S = 100.0      # start no repeat after this, whatever --seconds says
DEADLINE_S = 170.0       # kill any child still running this long after start
SETUP_WARMUP = 2         # discarded probes: bytecode compile, page cache
SETUP_PROBES = 4         # measured probes before the loop, plus one a repeat
SEARCH_SAMPLES = 100     # traced searches needed for a p90 with 10 beyond
TOP_K = 10
RECALL_K = 4
C_PRESETS = {"voc2007": 0.2, "mit67": 2.0}

# Inputs per workload.  The shapes follow the paper (16 views per image,
# 30 reference and 14 query patches, PCA to 500, OVA and OVO); counts and
# dimensions are cut so one repeat takes a few seconds on 2 cores.
SIZES = {
    "classify-ova": dict(n_classes=8, dim=512, n_train=32, n_test=100,
                         image_noise=2.0, view_noise=6.0),
    "classify-ovo": dict(n_classes=8, dim=128, n_train=16, n_test=300,
                         image_noise=1.0, view_noise=4.0),
    "retrieve-fvec": dict(n_objects=20, refs_per_object=3, n_queries=32,
                          dim=768, noise=1.0),
    "retrieve-external": dict(n_objects=20, refs_per_object=3, n_queries=30,
                              side=64, noise=0.3, max_shift=1),
}


@dataclass
class Step:
    name: str
    args: list
    outputs: list


class Failure(Exception):
    """A featkit command failed or its output changed between repeats."""


# --- workloads -----------------------------------------------------------

class Classify:
    """train --augment, predict (sum pooling), evaluate, over 16-view rows."""

    build, serve, searches = "train", "predict", 0

    def __init__(self, name: str):
        self.name = name
        self.ova = name == "classify-ova"
        self.fmt = "binary" if self.ova else "tsv"
        self.preset = "voc2007" if self.ova else "mit67"
        self.summary = "mAP" if self.ova else "accuracy"
        self.aliases = {"build_items_per_s": "train_rows_per_s",
                        "serve_items_per_s": "predict_rows_per_s",
                        "quality": "map" if self.ova else "accuracy"}

    def generate(self, rng, work: Path):
        self.inp = gen.classification(rng, work, multi_label=self.ova,
                                      fmt=self.fmt, **SIZES[self.name])
        self.build_items = len(self.inp.data["train_ids"])
        self.serve_items = len(self.inp.data["test_ids"])

    def steps(self, out: Path) -> list:
        f = self.inp.files
        model, report = out / "model.tsvm", out / "train-report.tsv"
        pred, evaluation = out / "predict.tsv", out / "eval.tsv"
        fmt = ["--format", self.fmt]
        return [
            Step("train", ["train", "--features", f["train_features"], *fmt,
                           "--labels", f["train_labels"], "--strategy",
                           "ova" if self.ova else "ovo", "--preset",
                           self.preset, "--augment", "--model-out", model,
                           "--report", report], [model, report]),
            Step("predict", ["predict", "--model", model, "--features",
                             f["test_features"], *fmt, "--pooling", "sum",
                             "--out", pred], [pred]),
            Step("evaluate", ["evaluate", "ap" if self.ova else "accuracy",
                              "--scores" if self.ova else "--predictions",
                              pred, "--truth", f["test_labels"], "--out",
                              evaluation], [evaluation]),
        ]

    def check(self, step: str, outs: dict) -> list:
        d = self.inp.data
        model = checks.parse_model(outs["train"][0])
        if step == "train":
            x = d["train_values"]
            x = x / np.linalg.norm(x, axis=1, keepdims=True)
            labels = {}
            for img, cls in d["train_labels"]:
                labels.setdefault(img, set()).add(cls)
            return checks.check_model(
                model, d["classes"], x,
                [labels[i.rpartition("#")[0]] for i in d["train_ids"]],
                "ova" if self.ova else "ovo", C_PRESETS[self.preset])
        pred = outs["predict"][0]
        if step == "predict" and self.ova:
            return checks.check_ova_scores(pred, model, d["test_values"],
                                           d["test_ids"])
        if step == "predict":
            return checks.check_ovo_predictions(pred, model, d["test_values"],
                                                d["test_ids"])
        if self.ova:
            return checks.check_map(outs["evaluate"][0], pred,
                                    d["test_labels"])
        return checks.check_accuracy(outs["evaluate"][0], pred,
                                     d["test_labels"])

    def mutants(self, outs: dict) -> list:
        """Broken predict outputs the checks must reject."""
        lines = outs["predict"][0].split("\n")
        if self.ova:
            cells = lines[1].split("\t")
            v = float(cells[1])
            cells[1] = repr(v + 1e-6 * (1.0 + abs(v)))
            lines[1] = "\t".join(cells)
            return [("perturbed OVA score", "predict", "\n".join(lines))]
        base, label = lines[0].split("\t")
        other = next(c for c in self.inp.data["classes"] if c != label)
        lines[0] = f"{base}\t{other}"
        return [("flipped OVO label", "predict", "\n".join(lines))]


class Retrieve:
    """index, query (top 10), evaluate recall@4, over spatial-search patches."""

    build, serve = "index", "query"
    summary = f"recall@{RECALL_K}"
    aliases = {"build_items_per_s": "index_patches_per_s",
               "serve_items_per_s": "queries_per_s",
               "quality": f"recall_at_{RECALL_K}"}

    def __init__(self, name: str):
        self.name = name
        self.external = name == "retrieve-external"

    def generate(self, rng, work: Path):
        make = gen.retrieval_external if self.external else gen.retrieval_fvec
        self.inp = make(rng, work, **SIZES[self.name])
        d = self.inp.data
        self.build_items = len(d["ref_ids"]) * gen.REF_PATCHES
        self.serve_items = self.searches = len(d["query_ids"])
        self.ref_rects = None
        if self.external:
            self._extract_external()

    def _extract_external(self):
        """Raw patch vectors the extractor program returns, computed here."""
        d = self.inp.data
        side = d["side"]
        rects = checks.level_rects(side, side, gen.REF_LEVELS)
        q_rects = checks.level_rects(side, side, gen.QUERY_LEVELS)
        self.ref_rects = {r: rects for r in d["ref_ids"]}

        def raw(path, rects):
            w, h, pixels = extractor.read_pgm(path)
            table = extractor.integral_image(w, h, pixels)
            return np.asarray([
                extractor.region_features(
                    w, table, *checks.enclosing_square(r, w, h))
                for r in rects])

        d["ref_raw"] = {r: raw(d["ref_paths"][r], rects)
                        for r in d["ref_ids"]}
        d["query_raw"] = {q: raw(d["query_paths"][q], q_rects)
                          for q in d["query_ids"]}

    def steps(self, out: Path) -> list:
        f = self.inp.files
        if self.external:
            command = shlex.join([sys.executable, "-S", str(f["extractor"])])
            ref_ext = query_ext = ["--extractor", "external", "--command",
                                   command]
        else:
            ref_ext = ["--extractor", "file", "--features",
                       f["ref_features"], "--format", "binary"]
            query_ext = ["--extractor", "file", "--features",
                         f["query_features"], "--format", "binary"]
        idx, ranking, evaluation = (out / "corpus.idx", out / "ranking.tsv",
                                    out / "eval.tsv")
        return [
            Step("index", ["index", "--images", f["refs"], *ref_ext,
                           "--pca-dim", "500", "--out", idx], [idx]),
            Step("query", ["query", "--index", idx, "--queries",
                           f["queries"], *query_ext, "--top-k", str(TOP_K),
                           "--out", ranking], [ranking]),
            Step("evaluate", ["evaluate", "recall", "--ranking", ranking,
                              "--relevant", f["relevant"], "--k",
                              str(RECALL_K), "--out", evaluation],
                 [evaluation]),
        ]

    def check(self, step: str, outs: dict) -> list:
        d = self.inp.data
        if step == "evaluate":
            return checks.check_recall(
                outs["evaluate"][0], checks.parse_ranking(outs["query"][0]),
                d["relevant"], RECALL_K)
        index = checks.parse_index(outs["index"][0])
        if step == "index":
            return checks.check_index(index, d["ref_ids"], d["ref_raw"],
                                      self.ref_rects)
        return checks.check_ranking(outs["query"][0], index, d["query_ids"],
                                    d["query_raw"], d["duplicates"], TOP_K)

    def mutants(self, outs: dict) -> list:
        """A perturbed distance and two swapped ranks, both in query output,
        at a query whose first match is a self-match."""
        lines = outs["query"][0].rstrip("\n").split("\n")
        dup = next(iter(self.inp.data["duplicates"]))
        first = next(i for i, ln in enumerate(lines)
                     if ln.startswith(dup + "\t"))
        perturbed = list(lines)
        q, rank, rid, dist = perturbed[first + 1].split("\t")
        perturbed[first + 1] = f"{q}\t{rank}\t{rid}\t{float(dist) + 1e-4!r}"
        swapped = list(lines)
        a, b = swapped[first].split("\t"), swapped[first + 1].split("\t")
        swapped[first] = "\t".join(a[:2] + b[2:])
        swapped[first + 1] = "\t".join(b[:2] + a[2:])
        return [("perturbed distance", "query", "\n".join(perturbed) + "\n"),
                ("swapped rank", "query", "\n".join(swapped) + "\n")]


WORKLOADS = {
    "classify-ova": Classify, "classify-ovo": Classify,
    "retrieve-fvec": Retrieve, "retrieve-external": Retrieve,
}


# --- running featkit -----------------------------------------------------

class Runner:
    """Starts featkit children one at a time and keeps the tallies."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def featkit(self, args, trace_out=None, run_id="") -> tuple:
        """Run one featkit command: (exit code, wall s, peak RSS MB, stdout)."""
        if trace_out is None:
            argv = [sys.executable, "-m", "featkit.cli", *args]
        else:
            argv = [sys.executable, HERE / "tracing.py", trace_out, run_id,
                    *args]
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(self.deadline - t0, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            tail = err_path.read_text(errors="replace").strip()[-300:]
            raise Failure(f"{args[0]} exited {proc.returncode}: {tail}")
        return wall, usage.ru_maxrss * 1024 / 1e6, out_path.read_bytes()

    def setup_probe(self) -> float:
        """Fresh process: import featkit, parse a command, print one plan."""
        x, y, w, h = checks.level_rects(64, 64, 1)[0]
        wall, _, out = self.featkit(
            ["plans", "--width", "64", "--height", "64", "--kind", "patches",
             "--level", "1"])
        if out != f"0\t{x},{y},{w},{h}\n".encode():
            self.failed += 1
            raise Failure(f"setup probe printed {out[:80]!r}")
        return wall

    def verify(self, wl, outs: dict) -> bool:
        """Check the first repeat's outputs, then the checks themselves:
        every broken output in ``wl.mutants`` must be rejected."""
        for step in outs:
            self.attempted += 1
            errors = _checked(wl, step, outs)
            self.failed += bool(errors)
            self.errors += [f"{step}: {e}" for e in errors]
        for label, step, text in wl.mutants(outs):
            self.attempted += 1
            if not _checked(wl, step, {**outs, step: [text] + outs[step][1:]}):
                self.failed += 1
                self.errors.append(f"self-test: {label} was accepted")
        return self.failed == 0


def _checked(wl, step: str, outs: dict) -> list:
    """A check's errors; an output the check cannot even parse fails it."""
    try:
        return wl.check(step, outs)
    except Exception as exc:  # noqa: BLE001 - any parse error is a failure
        return [f"unreadable output: {exc!r}"]


def machine() -> dict:
    """nproc, CPU model, Python, numpy and BLAS versions, BLAS threads."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*"))[:1]:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


# --- the measured loop ---------------------------------------------------

def one_repeat(runner: Runner, steps, i: int, traced: bool, first: dict
               ) -> dict:
    """Run every step once; outputs must match the first repeat's bytes."""
    rep = {"wall": {}, "rss": 0.0, "traces": []}
    trace_out = str(runner.work / "trace") if traced else None
    t0 = time.perf_counter()
    for step in steps:
        wall, rss, _ = runner.featkit(step.args, trace_out, f"{i}/{step.name}")
        blobs = [Path(p).read_bytes() for p in step.outputs]
        texts = [b if p.suffix == ".idx" else b.decode()
                 for b, p in zip(blobs, step.outputs)]
        if first.setdefault(step.name, texts) != texts:
            runner.failed += 1
            raise Failure(f"{step.name} output changed in repeat {i}")
        rep["wall"][step.name] = wall
        rep["rss"] = max(rep["rss"], rss)
        if traced:
            rep["traces"].append(tracing.load(trace_out))
    rep["total"] = time.perf_counter() - t0
    return rep


def run(wl, seed: int, seconds: float, trace: bool, work: Path):
    """Generate, warm up, loop for ``seconds``; return (runner, repeats,
    setup probe times, first repeat's outputs)."""
    deadline = time.perf_counter() + DEADLINE_S
    wl.generate(np.random.default_rng(seed), work)
    (work / "out").mkdir()
    steps = wl.steps(work / "out")
    runner = Runner(work, deadline)
    first = {}
    reps = {"untraced": [], "traced": []}
    setup = []
    # Traced runs keep going until the search percentiles have samples.
    need = SEARCH_SAMPLES if wl.searches else 1
    try:
        for _ in range(SETUP_WARMUP):
            runner.setup_probe()
        setup += [runner.setup_probe() for _ in range(SETUP_PROBES)]
        t_loop = time.perf_counter()
        for i in itertools.count():
            traced = trace and i % 2 == 1
            setup.append(runner.setup_probe())
            reps["traced" if traced else "untraced"].append(
                one_repeat(runner, steps, i, traced, first))
            if i == 0 and not runner.verify(wl, first):
                break
            elapsed = time.perf_counter() - t_loop
            have = len(reps["traced"]) * (wl.searches or 1)
            if (elapsed >= HARD_STOP_S and i >= 1) or (
                    elapsed >= seconds and i + 1 >= MIN_REPEATS
                    and (not trace or have >= need)):
                break
    except Failure as exc:
        runner.errors.append(str(exc))
    return runner, reps, setup, first


def slow_quartile(times) -> float:
    """Upper quartile of a run's timings of one thing.

    The 2-vCPU machine the benchmark was built on runs at a steady base
    speed with bursts, 5-20 s long, up to 1.6 times faster.  A run's
    median follows whichever speed held most of the run; its upper
    quartile stays at base speed unless bursts cover three quarters of
    the run, so it is the steadiest figure across runs.
    """
    return statistics.quantiles(list(times), n=4, method="inclusive")[2]


def end_to_end(wl, reps: list, setup: list, first: dict) -> dict:
    """Per-run figures: upper quartiles of the run's repeat and set-up
    times (so rates at their lower quartile), median peak RSS."""
    slow = slow_quartile
    return {
        "setup_s": slow(setup),
        "build_items_per_s": wl.build_items / slow(r["wall"][wl.build]
                                                   for r in reps),
        "serve_items_per_s": wl.serve_items / slow(r["wall"][wl.serve]
                                                   for r in reps),
        "workload_s": slow(r["total"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss"] for r in reps),
        "quality": checks.summary(first["evaluate"][0], wl.summary),
    }


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(reps: dict) -> dict:
    """Medians over traced repeats; percentiles pool every traced span."""
    traced = [tracing.summarize(r["traces"]) for r in reps["traced"]]
    values = {k: statistics.median(t[k] for t in traced)
              for k in traced[0] if k not in ("durations", "absent")}
    values["absent"] = traced[0]["absent"]
    pooled = {}
    for t in traced:
        for name, durs in t["durations"].items():
            pooled.setdefault(name, []).extend(durs)
    search_ms = [1e3 * d for d in pooled.get("retrieval.search", [])]
    values["svm.solve_s_per_model_p50"] = _percentile(
        pooled.get("svm.train_binary", []), 50)
    values["retrieval.search_ms_p50"] = _percentile(search_ms, 50)
    values["retrieval.search_ms_p90"] = _percentile(search_ms, 90)
    values["trace.overhead_ratio"] = (
        statistics.median(r["total"] for r in reps["traced"])
        / statistics.median(r["total"] for r in reps["untraced"]))
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "featkit" / "cli.py").is_file():
        print(f"perfbench: no featkit source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload](args.workload)
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        runner, reps, setup, first = run(wl, args.seed, args.seconds,
                                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    correct = runner.failed == 0
    metrics, n = {}, len(reps["traced" if args.trace else "untraced"])
    if correct:
        values = (layer_metrics(reps) if args.trace else
                  end_to_end(wl, reps["untraced"], setup, first))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} measured repeats, closed loop, 1 client")
    for k, m in metrics.items():
        label = wl.aliases.get(k, k)
        note = f"  [{k}]" if label != k else ""
        print(f"  {label:<34} {m['value']:<14.6g} {m['unit']:<6} "
              f"n={len(setup) if k == 'setup_s' else n}{note}")
    if metrics and args.trace:
        print(f"  absent: {', '.join(values['absent']) or 'none'}")
    print(f"  error_rate {runner.failed}/{runner.attempted}")
    for e in runner.errors:
        print(f"  error: {e}")
    print("machine " + json.dumps(machine()))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
