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
from pathlib import Path

from conftest import stub_command
from featkit.extractors import run_protocol

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
