"""Smoke tests of the paper-scale probe's five modes at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "paper_scale.py"


def _probe():
    spec = importlib.util.spec_from_file_location("_paper_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_every_model(capsys):
    assert _probe().main(["--rows", "96"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    fields = {r[0]: r[1:] for r in rows if r[0] != "model"}
    assert fields["rows"] == ["96"] and fields["dim"] == ["4096"]
    assert float(fields["peak_rss_mb"][0]) >= float(
        fields["peak_rss_before_train_mb"][0]
    )
    header, *models = [r[1:] for r in rows if r[0] == "model"]
    assert header[:3] == ["class", "epochs", "visits"]
    assert [m[0] for m in models] == ["0", "1", "2", "3"]
    for m in models:
        stats = dict(zip(header, m))
        assert stats["converged"] == "1"
        assert int(stats["visits"]) > 0
        assert int(stats["steps_kept"]) <= int(stats["steps_tried"])


def test_rows_must_be_whole_images():
    with pytest.raises(SystemExit) as exc:
        _probe().main(["--rows", "50"])
    assert exc.value.code == 2


def test_index_mode_reports_every_stage(capsys):
    probe = _probe()
    probe.DIM = 32  # the chain's eigh at 4096-d would dominate the suite
    assert probe.main(["--refs", "3"]) == 0
    fields = dict(line.split("\t")
                  for line in capsys.readouterr().out.splitlines())
    assert (fields["refs"], fields["patches"], fields["dim"]) == (
        "3", "90", "32")
    for stage in ("fit", "apply", "save_index", "load_index",
                  "patch_matrix"):
        assert float(fields[f"{stage}_s"]) >= 0.0
    assert int(fields["index_bytes"]) > 3 * 30 * 32 * 4
    assert float(fields["search_ms_per_query"]) >= 0.0
    assert fields["self_matches"] == "3/3"
    assert float(fields["peak_rss_mb"]) >= float(
        fields["peak_rss_before_fit_mb"]
    )


def test_refs_must_be_at_least_two():
    with pytest.raises(SystemExit) as exc:
        _probe().main(["--refs", "1"])
    assert exc.value.code == 2


def test_ovo_mode_times_the_model_text(capsys):
    probe = _probe()
    probe.DIM = 16  # 4096-d weights would only slow the suite
    assert probe.main(["--ovo-classes", "4"]) == 0
    fields = dict(line.split("\t")
                  for line in capsys.readouterr().out.splitlines())
    assert (fields["classes"], fields["pair_models"], fields["dim"]) == (
        "4", "6", "16")
    for stage in ("save_model", "load_model"):
        assert float(fields[f"{stage}_s"]) >= 0.0
    assert int(fields["model_bytes"]) > 6 * 17 * 10
    assert fields["weights_round_trip"] == "1"
    assert float(fields["peak_rss_mb"]) > 0.0


def test_ovo_classes_must_be_at_least_two():
    with pytest.raises(SystemExit) as exc:
        _probe().main(["--ovo-classes", "1"])
    assert exc.value.code == 2


def test_cli_refs_mode_runs_index_and_query(capsys):
    probe = _probe()
    probe.DIM = 32  # as in the library index mode
    assert probe.main(["--cli-refs", "3"]) == 0
    fields = dict(line.split("\t")
                  for line in capsys.readouterr().out.splitlines())
    assert (fields["refs"], fields["patches"], fields["dim"]) == (
        "3", "90", "32")
    assert float(fields["patches_mb"]) >= 0.0
    for command in ("index", "query"):
        assert fields[f"{command}_exit"] == "0"
        assert float(fields[f"{command}_s"]) > 0.0
        assert float(fields[f"{command}_peak_rss_mb"]) > 0.0
    assert fields["self_matches"] == "3/3"


def test_cli_rows_mode_runs_train(capsys):
    probe = _probe()
    probe.DIM = 16
    assert probe.main(["--cli-rows", "64"]) == 0
    fields = dict(line.split("\t")
                  for line in capsys.readouterr().out.splitlines())
    assert (fields["rows"], fields["dim"]) == ("64", "16")
    assert fields["train_exit"] == "0"
    assert float(fields["train_s"]) > 0.0
    assert float(fields["train_peak_rss_mb"]) > 0.0


@pytest.mark.parametrize("argv", [["--cli-refs", "1"], ["--cli-rows", "40"]])
def test_cli_modes_check_their_size(argv):
    with pytest.raises(SystemExit) as exc:
        _probe().main(argv)
    assert exc.value.code == 2
