"""Byte mutants of a saved file, and one sweep that holds a reader to
the rule every featkit reader keeps: a mutant either raises
:class:`MalformedFile` whose message names the path, or loads into an
object that saves and loads back equal.  A mutant given to the CLI must
exit 2 with one ``featkit:`` line naming it."""

import warnings
from contextlib import redirect_stderr
from io import StringIO

import numpy as np

from featkit.cli import main
from featkit.errors import MalformedFile

REPLACEMENTS = (0x00, 0xFF, 0x0A, 0x09, 0x80)
TAILS = (b"x", b"\n", b"\x00" * 4)


def mutants(blob: bytes, positions, others: int = 0, seed: int = 0):
    """Yield ``(label, mutant)``: every truncation of ``blob``; each of
    ``REPLACEMENTS`` at every byte of ``positions`` and of ``others``
    seeded positions outside them, where it differs from the original;
    and ``blob`` with each of ``TAILS`` appended."""
    for end in range(len(blob)):
        yield f"truncated to {end} bytes", blob[:end]
    rest = np.setdiff1d(np.arange(len(blob)), list(positions))
    picked = np.random.default_rng(seed).choice(
        rest, min(others, rest.size), replace=False)
    for pos in sorted({*positions, *picked.tolist()}):
        for byte in REPLACEMENTS:
            if blob[pos] != byte:
                yield (f"byte {pos} set to {byte:#04x}",
                       blob[:pos] + bytes([byte]) + blob[pos + 1:])
    for tail in TAILS:
        yield f"{tail!r} appended", blob + tail


def sweep(path, blob: bytes, load, save, same, positions, others=0,
          seed=0):
    """Write each of ``mutants(blob, ...)`` to ``path`` and load it.

    A rejected mutant must raise :class:`MalformedFile` naming ``path``;
    a loaded one must give ``same(obj, load(save(obj)))``.  Any other
    exception or any warning fails, naming the mutant.  Returns the
    counts of rejected and loaded mutants.
    """
    again = path.with_name(f"again-{path.name}")
    rejected = loaded = 0
    for label, mutant in mutants(blob, positions, others, seed):
        path.write_bytes(mutant)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                obj = load(path)
        except MalformedFile as exc:
            assert str(path) in str(exc), f"{label}: {exc}"
            rejected += 1
            continue
        except Exception as exc:  # noqa: BLE001 - name the mutant
            raise AssertionError(f"{label}: {exc!r}") from exc
        save(obj, again)
        assert same(obj, load(again)), label
        loaded += 1
    return rejected, loaded


def run_cli(argv):
    """(exit code, stderr lines, warnings) of one in-process command."""
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines(), caught


def check_cli_rejects(path, out, result) -> None:
    """``result`` of :func:`run_cli` is exit 2 with one ``featkit:``
    line naming ``path``, no warning, and no ``out`` file written."""
    code, lines, caught = result
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("featkit: ")
    assert str(path) in lines[0]
    assert not caught
    assert not out.exists()
