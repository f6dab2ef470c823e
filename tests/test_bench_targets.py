"""The benchmark's tracer finds every featkit function it times and
reads the results it counts.

``perfbench/tracing.py`` wraps the module attributes named in its
``TARGETS`` and reports a missing one as absent, so its per-layer
metrics read 0 without an error.  This loads the tracer by path, without
installing its recorder, checks that each target still resolves, and
applies its ``COUNTERS`` hooks for an extractor session to a real one.
"""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

from conftest import stub_command
from featkit import svm
from featkit.errors import SkippedClassWarning
from featkit.extractors import run_protocol
from featkit.features import FeatureMatrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Targets with no featkit function behind them.  The CLI looks vectors up
# through ``FileBackedExtractor.extract_batch``, and the single-request
# ``extract`` the tracer wraps no longer exists.
KNOWN_DEAD = {"extractors.FileBackedExtractor.extract"}


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _resolves(name: str) -> bool:
    module, _, attr = name.partition(".")
    owner = importlib.import_module(f"featkit.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_traced_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    unresolved = {name for name in targets if not _resolves(name)}
    assert unresolved == KNOWN_DEAD & set(targets)


def test_session_counters_read_a_real_session():
    hooks = _tracing().COUNTERS["extractors.run_protocol"]
    assert hooks
    args = (stub_command("fixed"), [("a", "img", "0,0,1,1")])
    result = run_protocol(*args)
    for key, count in hooks:
        assert count(args, result) == 1, key


def _solver_spans(monkeypatch, train, features, labels):
    """Spans the tracer records for ``svm.train_binary`` in one
    multiclass train, its wrapper set at every featkit module attribute
    that holds the solver, as the tracer installs it."""
    recorder = _tracing().Recorder()
    original = svm.train_binary
    traced = recorder.wrap("svm.train_binary", original)
    for name, mod in list(sys.modules.items()):
        if name == "featkit" or name.startswith("featkit."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, traced)
    train(features, labels, svm.SolverConfig(C=1.0))
    name_id = recorder.names.index("svm.train_binary")
    return [row for row in recorder.rows if row[1] == name_id]


def test_solver_traced_once_per_binary_model(rng, monkeypatch):
    """``svm.solve_s``, ``svm.models`` and ``svm.solve_s_per_model_p50``
    read these spans: one per class in one-vs-all, the skipped class
    included, and one per pair in one-vs-one."""
    ids = tuple(f"s{i}" for i in range(12))
    features = FeatureMatrix(ids, rng.normal(size=(12, 3)))
    # Every row carries "all", so that class has no negatives.
    multi = {fid: {"all", "abcd"[i % 4]} for i, fid in enumerate(ids)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SkippedClassWarning)
        spans = _solver_spans(monkeypatch, svm.train_one_vs_all, features,
                              multi)
    assert len(spans) == 5
    single = {fid: "abcd"[i % 4] for i, fid in enumerate(ids)}
    spans = _solver_spans(monkeypatch, svm.train_one_vs_one, features, single)
    assert len(spans) == 6
