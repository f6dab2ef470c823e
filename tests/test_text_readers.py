"""PCAW1, OTSVM1, TSV features, labels and rankings under corrupt
bytes: every mutant is rejected as ``MalformedFile`` naming the path or
loads and round-trips, and the CLI reports a bad text file in one
line."""

import math
from pathlib import Path

import numpy as np
import pytest

from featkit.cli import _read_ranking
from featkit.features import (
    FeatureMatrix,
    load_features,
    load_labels,
    save_features,
)
from featkit.preprocess import load_pca_model, save_pca_model
from featkit.svm import BinaryModel, MulticlassModel, load_model, save_model
from mutants import check_cli_rejects, run_cli, sweep
from writers import save_labels

DATA = Path(__file__).parent / "data"
PCAW1 = (DATA / "pcaw1_grid_small.pcaw").read_bytes()
RANKING = (DATA / "otidx1_small_ranking.tsv").read_bytes()


def _structure(blob: bytes, head_lines: int = 2) -> list:
    """The positions of every tab and newline and of each byte of the
    first ``head_lines`` lines."""
    head = 0
    for _ in range(head_lines):
        head = blob.index(b"\n", head) + 1
    return sorted({*range(head), *(i for i, b in enumerate(blob)
                                   if b in b"\t\n")})


def _save_bytes(save, obj, path) -> bytes:
    save(obj, path)
    return path.read_bytes()


def _otsvm1_model(strategy: str, seed: int = 3) -> MulticlassModel:
    """A seeded 3-class model of 3-d weights plus a bias: one-vs-one, or
    one-vs-all with class ``b`` skipped."""
    rng = np.random.default_rng(seed)
    keys = [(0, 1), (0, 2), (1, 2)] if strategy == "ovo" else [0, 2]
    models = {key: BinaryModel(rng.normal(size=4), 2.0, float(rng.random()),
                               True) for key in keys}
    return MulticlassModel(strategy, ("a", "b", "c"), models, True)


def _same_model(a, b) -> bool:
    return ((a.strategy, a.classes, a.bias, sorted(a.models))
            == (b.strategy, b.classes, b.bias, sorted(b.models))
            and all(np.array_equal(m.w, b.models[key].w)
                    and (m.C_used, m.objective_value)
                    == (b.models[key].C_used, b.models[key].objective_value)
                    for key, m in a.models.items()))


def _same_chain(a, b) -> bool:
    return a.epsilon == b.epsilon and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("mean", "components", "eigenvalues"))


def _features() -> FeatureMatrix:
    rng = np.random.default_rng(11)
    return FeatureMatrix(("a", "b#0", "c d"), rng.normal(size=(3, 3)))


def _same_matrix(a, b) -> bool:
    return a.ids == b.ids and np.array_equal(a.values, b.values)


LABELS = {"a": {"x", "y"}, "b": "x", "c d": "z"}


def _load_ranking(path):
    """:func:`_read_ranking`, holding a ranking it loads to the file rule:
    every rank in ASCII digits, every distance finite and at least 0."""
    rankings = _read_ranking(path)
    for line in path.read_text(encoding="utf-8").split("\n"):
        if line:
            _, rank, _, distance = line.split("\t")
            assert rank.isascii() and rank.isdigit(), line
            assert math.isfinite(float(distance)), line
            assert float(distance) >= 0.0, line
    return rankings


def _save_ranking(rankings, path):
    path.write_text("".join(
        f"{q}\t{rank}\t{ref}\t0.0\n"
        for q, refs in rankings.items() for rank, ref in enumerate(refs, 1)
    ), encoding="utf-8")


class TestMutationSweep:
    def test_pcaw1_fixture_structure_and_sampled_bytes(self, tmp_path):
        assert len(PCAW1) == 2198
        rejected, loaded = sweep(tmp_path / "m.pcaw", PCAW1, load_pca_model,
                                 save_pca_model, _same_chain,
                                 _structure(PCAW1), others=200, seed=23)
        assert rejected and not loaded

    @pytest.mark.parametrize("strategy", ["ovo", "ova"])
    def test_otsvm1_every_byte(self, tmp_path, strategy):
        blob = _save_bytes(save_model, _otsvm1_model(strategy),
                           tmp_path / "seed.tsvm")
        rejected, loaded = sweep(tmp_path / "m.tsvm", blob, load_model,
                                 save_model, _same_model, range(len(blob)))
        assert rejected and loaded

    def test_tsv_features_every_byte(self, tmp_path):
        blob = _save_bytes(save_features, _features(), tmp_path / "seed.tsv")
        rejected, loaded = sweep(tmp_path / "m.tsv", blob, load_features,
                                 save_features, _same_matrix,
                                 range(len(blob)))
        assert rejected and loaded

    def test_labels_every_byte(self, tmp_path):
        blob = _save_bytes(save_labels, LABELS, tmp_path / "seed.tsv")
        rejected, loaded = sweep(tmp_path / "m.tsv", blob, load_labels,
                                 save_labels, dict.__eq__, range(len(blob)))
        assert rejected and loaded

    def test_ranking_fixture_every_byte(self, tmp_path):
        rejected, loaded = sweep(tmp_path / "m.tsv", RANKING, _load_ranking,
                                 _save_ranking, dict.__eq__,
                                 range(len(RANKING)))
        assert rejected and loaded


def _mutant(blob: bytes, kind: str) -> bytes:
    """A cut last line, a bad byte in the second line, or a bad tail."""
    if kind == "cut":
        return blob[:blob.rindex(b"\t")]
    if kind == "byte":
        pos = blob.index(b"\n") + 1
        return blob[:pos] + b"\x80" + blob[pos + 1:]
    return blob + b"x\n"


class TestCliBadTextInput:
    """A bad OTSVM1, PCAW1 or TSV feature file exits 2 with one
    ``featkit:`` line naming it, no warning and no output file."""

    KINDS = ["cut", "byte", "tail"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_model(self, tmp_path, kind):
        model, feats = tmp_path / "bad.tsvm", tmp_path / "feats.tsv"
        blob = _save_bytes(save_model, _otsvm1_model("ova"), model)
        model.write_bytes(_mutant(blob, kind))
        save_features(_features(), feats)
        out = tmp_path / "scores.tsv"
        check_cli_rejects(model, out, run_cli([
            "predict", "--model", model, "--features", feats, "--out", out]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_preprocess_apply_model(self, tmp_path, kind):
        chain, feats = tmp_path / "bad.pcaw", tmp_path / "feats.tsv"
        chain.write_bytes(_mutant(PCAW1, kind))
        save_features(FeatureMatrix(("q",), np.ones((1, 12))), feats)
        out = tmp_path / "processed.tsv"
        check_cli_rejects(chain, out, run_cli([
            "preprocess-apply", "--model", chain, "--features", feats,
            "--out", out]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_features(self, tmp_path, kind):
        feats, labels = tmp_path / "bad.tsv", tmp_path / "labels.tsv"
        blob = _save_bytes(save_features, _features(), feats)
        feats.write_bytes(_mutant(blob, kind))
        save_labels({"a": "x", "b#0": "y", "c d": "x"}, labels)
        out = tmp_path / "m.tsvm"
        check_cli_rejects(feats, out, run_cli([
            "train", "--features", feats, "--labels", labels,
            "--strategy", "ovo", "--C", "1", "--model-out", out]))
