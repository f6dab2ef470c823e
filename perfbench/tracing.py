"""Traced featkit CLI run, and the per-layer metrics drawn from its spans.

Run as a script, this replaces the public functions listed in ``TARGETS``
with timing wrappers at every featkit module attribute that holds them
(so names a module imported from another are covered too), runs
``featkit.cli.main`` on the remaining arguments, and writes the spans at
exit::

    python tracing.py OUT RUN_ID featkit-args...

Spans are kept in memory as (index, name, parent, start, end) rows and
written to ``OUT.npy``; the run id, span names, counters and any target
that no longer exists go to ``OUT.json``.  A missing target is reported
as absent, not raised.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import numpy as np

ROOT_SPAN = "cli.main"
TARGETS = (
    "svm.train_binary", "svm.decision", "svm.predict_ovo_from_scores",
    "svm.save_model", "svm.load_model",
    "augment.augment_training_set", "augment.pool_responses",
    "features.load_features",
    "preprocess.retrieval_pipeline_fit", "preprocess.retrieval_pipeline_apply",
    "retrieval.build_index", "retrieval.search", "retrieval.query_distance",
    "retrieval.save_index", "retrieval.load_index",
    "extractors.run_protocol", "extractors.FileBackedExtractor.extract",
    "metrics.average_precision", "metrics.mean_ap", "metrics.confusion",
    "metrics.mean_diag_accuracy", "metrics.recall_at_k",
    "metrics.render_report",
)
LAYERS = ("cli", "svm", "augment", "features", "preprocess", "retrieval",
          "extractors", "metrics")


def _size(path):
    return os.path.getsize(path)


# Counters read from a call's arguments and result: name -> (key, fn)...
COUNTERS = {
    "features.load_features": (("features.bytes", lambda a, r: _size(a[0])),
                               ("features.rows", lambda a, r: r.n)),
    "augment.augment_training_set": (("augment.rows", lambda a, r: r[0].n),),
    "preprocess.retrieval_pipeline_fit": (("preprocess.k", lambda a, r: r.k),),
    "extractors.run_protocol": (("extractors.requests", lambda a, r: r.n),),
    "retrieval.save_index": (("retrieval.index_bytes",
                              lambda a, r: _size(a[1])),),
}


class Recorder:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.names = [ROOT_SPAN]
        self.rows = []
        self.stack = [-1]
        self.ids = itertools.count()
        self.counters = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hooks = COUNTERS.get(name, ())
        rows, stack, ids, clock = self.rows, self.stack, self.ids, \
            time.perf_counter

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rows.append((idx, name_id, parent, t0, t1))
            for key, count in hooks:
                self.counters[key] = self.counters.get(key, 0) + count(
                    args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list:
        """Wrap every target; return the names that do not exist."""
        import featkit.cli  # noqa: F401 - loads featkit and its submodules
        modules = [m for n, m in sys.modules.items()
                   if n == "featkit" or n.startswith("featkit.")]
        absent = []
        for name in TARGETS:
            module, _, attr = name.partition(".")
            owner = sys.modules.get(f"featkit.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                absent.append(name)
                continue
            traced = self.wrap(name, original)
            if path:
                setattr(owner, leaf, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        return absent

    def run(self, argv) -> int:
        from featkit import cli

        idx = next(self.ids)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return cli.main(argv)
        finally:
            self.rows.append((idx, 0, -1, t0, time.perf_counter()))
            self.stack.pop()

    def write(self, out: str, run_id: str, absent: list) -> None:
        np.save(out + ".npy", np.asarray(self.rows, dtype=np.float64))
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "names": self.names,
                       "counters": self.counters, "absent": absent}, fh)


def load(out: str) -> dict:
    with open(out + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["spans"] = np.load(out + ".npy").reshape(-1, 5)
    os.remove(out + ".json")
    os.remove(out + ".npy")
    return meta


def summarize(traces: list) -> dict:
    """Per-layer totals of the traced commands of one workload iteration.

    Returns name -> number, plus ``"durations"`` (span name -> list of
    seconds) for percentiles pooled over iterations and ``"absent"``, the
    targets that no longer exist.
    """
    time_by = {}
    calls = {}
    durations = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    counters = {}
    for tr in traces:
        spans = tr["spans"][np.argsort(tr["spans"][:, 0])]
        names = tr["names"]
        idx, name_id, parent = (spans[:, i].astype(np.int64)
                                for i in range(3))
        dur = spans[:, 4] - spans[:, 3]
        if idx.size and not np.array_equal(idx, np.arange(idx.size)):
            raise ValueError(f"{tr['run_id']}: span indices are not dense")
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=idx.size)
        own = dur - child
        for nid in np.unique(name_id):
            name = names[nid]
            sel = name_id == nid
            time_by[name] = time_by.get(name, 0.0) + float(dur[sel].sum())
            calls[name] = calls.get(name, 0) + int(sel.sum())
            durations.setdefault(name, []).extend(dur[sel].tolist())
            self_by_layer[name.split(".")[0]] += float(own[sel].sum())
        for key, value in tr["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def t(name):
        return time_by.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    sessions = n("extractors.run_protocol")
    fits = n("preprocess.retrieval_pipeline_fit")
    load_s = t("features.load_features")
    out = {
        "svm.solve_s": t("svm.train_binary"),
        "svm.models": n("svm.train_binary"),
        "svm.decision_calls": n("svm.decision"),
        "svm.decision_s": t("svm.decision"),
        "svm.vote_s": t("svm.predict_ovo_from_scores"),
        "svm.model_save_s": t("svm.save_model"),
        "svm.model_load_s": t("svm.load_model"),
        "augment.pool_calls": n("augment.pool_responses"),
        "augment.pool_s": t("augment.pool_responses"),
        "augment.expand_s": t("augment.augment_training_set"),
        "augment.expand_rows": counters.get("augment.rows", 0),
        "features.load_s": load_s,
        "features.load_rows": counters.get("features.rows", 0),
        "features.load_mb_per_s": (counters.get("features.bytes", 0) / 1e6
                                   / load_s if load_s else 0.0),
        "preprocess.fit_s": t("preprocess.retrieval_pipeline_fit"),
        "preprocess.k_used": (counters.get("preprocess.k", 0) / fits
                              if fits else 0.0),
        "preprocess.apply_calls": n("preprocess.retrieval_pipeline_apply"),
        "preprocess.apply_s": t("preprocess.retrieval_pipeline_apply"),
        "retrieval.distance_calls": n("retrieval.query_distance"),
        "retrieval.distance_s": t("retrieval.query_distance"),
        "retrieval.build_s": t("retrieval.build_index"),
        "retrieval.index_save_s": t("retrieval.save_index"),
        "retrieval.index_load_s": t("retrieval.load_index"),
        "retrieval.index_bytes": counters.get("retrieval.index_bytes", 0),
        "extractors.sessions": sessions,
        "extractors.session_s": t("extractors.run_protocol"),
        "extractors.requests_per_session": (
            counters.get("extractors.requests", 0) / sessions
            if sessions else 0.0),
        "extractors.lookup_calls": n("extractors.FileBackedExtractor.extract"),
        "extractors.lookup_s": t("extractors.FileBackedExtractor.extract"),
        "metrics.evaluate_s": sum(v for k, v in time_by.items()
                                  if k.startswith("metrics.")),
    }
    out.update({f"{layer}.self_s": v for layer, v in self_by_layer.items()})
    out["durations"] = durations
    out["absent"] = sorted({name for tr in traces for name in tr["absent"]})
    return out


def main(argv) -> int:
    out, run_id, *cli_args = argv
    rec = Recorder()
    absent = rec.install()
    try:
        return rec.run(cli_args)
    finally:
        rec.write(out, run_id, absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
