import numpy as np
import pytest
from oracles import dual_cd_reference

from conftest import sixteen_view_rows, stub_command
from featkit import metrics, svm
from featkit.cli import main
from featkit.features import (
    FeatureMatrix,
    PixelGrid,
    save_features,
)
from writers import save_labels, save_pgm


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def blob_data(rng, tmp_path):
    """Three separable classes in feature space, TSV + labels on disk."""
    centers = rng.normal(size=(3, 5)) * 3.0
    ids, rows, labels = [], [], {}
    for ci, cls in enumerate(("ant", "bee", "cat")):
        for t in range(8):
            fid = f"{cls}{t}"
            ids.append(fid)
            rows.append(centers[ci] + rng.normal(size=5) * 0.2)
            labels[fid] = cls
    matrix = FeatureMatrix(tuple(ids), np.stack(rows))
    fpath = tmp_path / "feats.tsv"
    lpath = tmp_path / "labels.tsv"
    save_features(matrix, fpath, "tsv")
    save_labels(labels, lpath)
    return matrix, labels, fpath, lpath


@pytest.fixture
def pgm_corpus(rng, tmp_path):
    """Textured PGM references plus center-crop queries, with manifests."""
    from test_retrieval import _texture

    refs_dir = tmp_path / "imgs"
    refs_dir.mkdir()
    ref_lines, query_lines = [], []
    for i in range(6):
        grid = _texture(rng, 48)
        rp = refs_dir / f"ref{i}.pgm"
        save_pgm(grid, rp)
        ref_lines.append(f"ref{i}\t{rp}")
        qp = refs_dir / f"q{i}.pgm"
        save_pgm(PixelGrid(grid.intensities[8:40, 8:40]), qp)
        query_lines.append(f"q{i}\t{qp}")
    refs_manifest = tmp_path / "refs.tsv"
    refs_manifest.write_text("\n".join(ref_lines) + "\n")
    queries_manifest = tmp_path / "queries.tsv"
    queries_manifest.write_text("\n".join(query_lines) + "\n")
    return refs_manifest, queries_manifest


class TestTrainPredict:
    def test_ovo_train_and_predict_roundtrip(self, blob_data, tmp_path):
        matrix, labels, fpath, lpath = blob_data
        model_path = tmp_path / "m.tsvm"
        report_path = tmp_path / "train.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo", "--C", "1.0",
            "--model-out", model_path, "--report", report_path,
        ) == 0
        model = svm.load_model(model_path)
        assert len(model.models) == 3  # 3 classes -> 3 pairs
        report = report_path.read_text()
        assert "strategy\tovo" in report
        assert report.count("objective\t") == 3

        preds_path = tmp_path / "preds.tsv"
        assert run(
            "predict", "--model", model_path, "--features", fpath,
            "--out", preds_path,
        ) == 0
        lines = preds_path.read_text().splitlines()
        assert len(lines) == matrix.n
        correct = sum(
            1 for ln in lines
            if labels[ln.split("\t")[0]] == ln.split("\t")[1]
        )
        assert correct == matrix.n

        eval_path = tmp_path / "eval.tsv"
        assert run(
            "evaluate", "accuracy", "--predictions", preds_path,
            "--truth", lpath, "--out", eval_path,
        ) == 0
        rows = dict(
            ln.split("\t") for ln in eval_path.read_text().splitlines()
        )
        assert rows["accuracy"] == "1.0"

    def test_preset_c_recorded(self, blob_data, tmp_path):
        _, _, fpath, lpath = blob_data
        model_path = tmp_path / "m.tsvm"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo", "--preset", "voc2007",
            "--model-out", model_path,
        ) == 0
        model = svm.load_model(model_path)
        assert all(m.C_used == 0.2 for m in model.models.values())

    def test_ova_scores_table(self, blob_data, tmp_path):
        _, labels, fpath, lpath = blob_data
        model_path = tmp_path / "m.tsvm"
        scores_path = tmp_path / "scores.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0", "--model-out", model_path,
        ) == 0
        assert run(
            "predict", "--model", model_path, "--features", fpath,
            "--out", scores_path,
        ) == 0
        lines = scores_path.read_text().splitlines()
        assert lines[0].split("\t") == ["id", "ant", "bee", "cat"]
        assert len(lines) == 25

    def test_class_on_every_row_is_skipped(self, blob_data, tmp_path):
        _, labels, fpath, _ = blob_data
        lpath = tmp_path / "labels_x.tsv"
        save_labels({fid: {cls, "x"} for fid, cls in labels.items()}, lpath)
        model_path = tmp_path / "m.tsvm"
        report_path = tmp_path / "train.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0",
            "--model-out", model_path, "--report", report_path,
        ) == 0
        assert ("skipped\tclass 'x' has a degenerate subproblem; skipped"
                in report_path.read_text().splitlines())
        model = svm.load_model(model_path)
        assert model.classes.index("x") not in model.models
        scores_path = tmp_path / "scores.tsv"
        assert run(
            "predict", "--model", model_path, "--features", fpath,
            "--out", scores_path,
        ) == 0
        header = scores_path.read_text().splitlines()[0]
        assert header.split("\t") == ["id", "ant", "bee", "cat"]

    def test_augmented_training_row_count(self, rng, tmp_path):
        ids, rows, labels = [], [], {}
        for ci, cls in enumerate(("a", "b")):
            for t in range(3):
                base = f"{cls}{t}"
                labels[base] = cls
                for k in range(16):
                    ids.append(f"{base}#{k}")
                    rows.append(
                        rng.normal(size=4) + (3.0 if ci else -3.0)
                    )
        fpath = tmp_path / "aug.tsv"
        lpath = tmp_path / "labels.tsv"
        save_features(FeatureMatrix(tuple(ids), np.stack(rows)), fpath)
        save_labels(labels, lpath)
        model_path = tmp_path / "m.tsvm"
        report_path = tmp_path / "r.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo", "--C", "1.0", "--augment",
            "--model-out", model_path, "--report", report_path,
        ) == 0
        report = report_path.read_text()
        assert "augmented_per_source\t16" in report
        assert "rows\t96" in report  # 6 sources x 16 representations

    def test_pooled_prediction_over_representations(self, rng, tmp_path):
        # train on plain rows, predict on 16-representation groups
        ids, rows, labels = [], [], {}
        for ci, cls in enumerate(("a", "b")):
            for t in range(6):
                fid = f"{cls}{t}"
                ids.append(fid)
                rows.append(rng.normal(size=3) + (2.5 if ci else -2.5))
                labels[fid] = cls
        fpath = tmp_path / "train.tsv"
        lpath = tmp_path / "labels.tsv"
        save_features(FeatureMatrix(tuple(ids), np.stack(rows)), fpath)
        save_labels(labels, lpath)
        model_path = tmp_path / "m.tsvm"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo", "--C", "1.0", "--model-out", model_path,
        ) == 0
        rep_ids, rep_rows = [], []
        for k in range(16):
            rep_ids.append(f"probe#{k}")
            rep_rows.append(rng.normal(size=3) + 2.5)
        rpath = tmp_path / "reps.tsv"
        save_features(FeatureMatrix(tuple(rep_ids), np.stack(rep_rows)),
                      rpath)
        out = tmp_path / "preds.tsv"
        for pooling in ("sum", "max"):
            assert run(
                "predict", "--model", model_path, "--features", rpath,
                "--pooling", pooling, "--out", out,
            ) == 0
            assert out.read_text() == "probe\tb\n"

    def test_representation_suffix_is_ascii_digits(self, blob_data,
                                                   tmp_path):
        """Only ``#`` and ASCII digits mark a representation row: ``a#²``
        and ``b#٣`` are ids of their own, as ``c#x`` is."""
        matrix, _, fpath, lpath = blob_data
        model_path = tmp_path / "m.tsvm"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0", "--model-out", model_path,
        ) == 0
        ids = ("a#0", "a#1", "a#\u00b2", "b#\u0663", "c#x", "d#07")
        rpath = tmp_path / "reps.tsv"
        save_features(FeatureMatrix(ids, matrix.values[:6]), rpath)
        out = tmp_path / "scores.tsv"
        assert run("predict", "--model", model_path, "--features", rpath,
                   "--out", out) == 0
        rows = [ln.split("\t")[0] for ln in
                out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows == ["a", "a#\u00b2", "b#\u0663", "c#x", "d"]

    def test_failed_model_write_leaves_no_file(self, blob_data, tmp_path,
                                               monkeypatch, capsys):
        _, _, fpath, lpath = blob_data

        def disk_full(model, path):
            with open(path, "w") as fh:
                fh.write("OTSVM1\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(svm, "save_model", disk_full)
        model_path = tmp_path / "m.tsvm"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo", "--C", "1.0", "--model-out", model_path,
        ) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "feats.tsv", "labels.tsv"]

    def test_binary_feature_format(self, blob_data, tmp_path):
        matrix, _, _, lpath = blob_data
        bpath = tmp_path / "feats.fvec"
        save_features(matrix, bpath, "binary")
        model_path = tmp_path / "m.tsvm"
        preds_path = tmp_path / "p.tsv"
        assert run(
            "train", "--features", bpath, "--format", "binary",
            "--labels", lpath, "--strategy", "ovo", "--C", "1.0",
            "--model-out", model_path,
        ) == 0
        assert run(
            "predict", "--model", model_path, "--features", bpath,
            "--format", "binary", "--out", preds_path,
        ) == 0
        assert len(preds_path.read_text().splitlines()) == matrix.n

    def test_bad_inputs_exit_2(self, blob_data, tmp_path):
        _, _, fpath, lpath = blob_data
        assert run(
            "train", "--features", tmp_path / "missing.tsv",
            "--labels", lpath, "--strategy", "ovo", "--C", "1",
            "--model-out", tmp_path / "m.tsvm",
        ) == 2
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo",
            "--model-out", tmp_path / "m.tsvm",
        ) == 2  # neither --C nor --preset
        for flag, value in (("--C", "nan"), ("--C", "inf"), ("--tol", "nan"),
                            ("--tol", "inf")):
            args = {"--C": "1", flag: value}
            assert run(
                "train", "--features", fpath, "--labels", lpath,
                "--strategy", "ovo", "--model-out", tmp_path / "m.tsvm",
                *[t for kv in args.items() for t in kv],
            ) == 2

    def test_solver_lines_in_report(self, blob_data, tmp_path):
        _, _, fpath, lpath = blob_data
        report_path = tmp_path / "train.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ovo", "--C", "1.0",
            "--model-out", tmp_path / "m.tsvm", "--report", report_path,
        ) == 0
        rows = [ln.split("\t") for ln in report_path.read_text().splitlines()]
        objective = {r[1]: float(r[2]) for r in rows if r[0] == "objective"}
        solver = [r for r in rows if r[0] == "solver"]
        assert [r[1] for r in solver] == ["0,1", "0,2", "1,2"]
        for _, key, epochs, visits, gap, converged in solver:
            assert int(epochs) >= 1
            assert 1 <= int(visits) <= int(epochs) * 16
            assert float(gap) <= 1e-8 * (1.0 + abs(objective[key]))
            assert converged == "1"
        assert not any(r[0] == "unconverged" for r in rows)

    def test_unconverged_model_reported(self, blob_data, tmp_path, capsys):
        _, _, fpath, lpath = blob_data
        report_path = tmp_path / "train.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0", "--max-epochs", "1",
            "--model-out", tmp_path / "m.tsvm", "--report", report_path,
        ) == 0
        rows = [ln.split("\t") for ln in report_path.read_text().splitlines()]
        solver = {r[1]: r for r in rows if r[0] == "solver"}
        unconverged = [r for r in rows if r[0] == "unconverged"]
        assert [r[1] for r in unconverged] == ["0", "1", "2"]
        for _, key, gap in unconverged:
            assert solver[key][2:] == ["1", "24", gap, "0"]
            assert float(gap) > 0.0
        assert capsys.readouterr().err.count("did not converge") == 3

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-1", "seed must be at least 0"),
        ("--max-epochs", "0", "max_epochs must be at least 1"),
    ])
    def test_solver_counts_checked_before_loading(self, tmp_path, capsys,
                                                  option, value, message):
        assert run(
            "train", "--features", tmp_path / "absent.tsv",
            "--labels", tmp_path / "absent-labels.tsv", "--strategy", "ova",
            "--C", "1.0", option, value, "--model-out", tmp_path / "m.tsvm",
        ) == 2
        assert capsys.readouterr().err == f"featkit: {message}\n"

    def test_free_set_step_lines_follow_solver_lines(self, blob_data,
                                                     tmp_path):
        _, _, fpath, lpath = blob_data
        report_path = tmp_path / "train.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0",
            "--model-out", tmp_path / "m.tsvm", "--report", report_path,
        ) == 0
        rows = [ln.split("\t") for ln in report_path.read_text().splitlines()]
        kinds = [r[0] for r in rows]
        steps = [r for r in rows if r[0] == "free_set_steps"]
        assert [r[1] for r in steps] == ["0", "1", "2"]
        assert all(int(r[2]) >= 0 and len(r) == 3 for r in steps)
        first = kinds.index("free_set_steps")
        assert kinds[first - 3:first + 3] == ["solver"] * 3 + [
            "free_set_steps"] * 3

    @pytest.mark.parametrize("strategy", ["ova", "ovo"])
    def test_augmented_models_converge_to_reference(self, tmp_path,
                                                    strategy):
        ids, x, image_labels = sixteen_view_rows(11, 4, 3, 32)
        fpath, lpath = tmp_path / "feats.tsv", tmp_path / "labels.tsv"
        save_features(FeatureMatrix(tuple(ids), x), fpath)
        save_labels(image_labels, lpath)
        report_path = tmp_path / "train.tsv"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", strategy, "--C", "2", "--augment",
            "--model-out", tmp_path / "m.tsvm", "--report", report_path,
        ) == 0
        rows = [ln.split("\t") for ln in report_path.read_text().splitlines()]
        objective = {r[1]: float(r[2]) for r in rows if r[0] == "objective"}
        solver = {r[1]: r[2:] for r in rows if r[0] == "solver"}
        assert len(solver) == (4 if strategy == "ova" else 6)
        # Rows are already unit-norm, so augmentation changes them only
        # by rounding.
        row_class = np.repeat(
            [int(image_labels[i.partition("#")[0]][1:]) for i in ids[::16]],
            16,
        )
        tol = 1e-8
        for key, (_, _, gap, converged) in solver.items():
            obj = objective[key]
            assert converged == "1"
            assert float(gap) <= tol * (1.0 + abs(obj))
            if strategy == "ova":
                mask = np.ones(len(ids), dtype=bool)
                y = np.where(row_class == int(key), 1.0, -1.0)
            else:
                i, j = map(int, key.split(","))
                mask = (row_class == i) | (row_class == j)
                y = np.where(row_class[mask] == i, 1.0, -1.0)
            _, ref, _ = dual_cd_reference(x[mask], y, 2.0, True, tol=tol)
            assert abs(obj - ref) <= 2 * tol * (1.0 + abs(obj))

    @pytest.mark.parametrize("field,value", [(3, "nan"), (1, "-1")])
    def test_predict_rejects_bad_model_values(self, blob_data, tmp_path,
                                              field, value):
        _, _, fpath, lpath = blob_data
        model_path = tmp_path / "m.tsvm"
        assert run(
            "train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0", "--model-out", model_path,
        ) == 0
        lines = model_path.read_text().splitlines()
        cells = lines[-1].split("\t")
        cells[field] = value
        lines[-1] = "\t".join(cells)
        model_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "scores.tsv"
        assert run(
            "predict", "--model", model_path, "--features", fpath,
            "--out", out,
        ) == 2
        assert not out.exists()


class TestEvaluate:
    def test_ap_report_matches_library(self, blob_data, tmp_path):
        matrix, labels, fpath, lpath = blob_data
        model_path = tmp_path / "m.tsvm"
        scores_path = tmp_path / "scores.tsv"
        report_path = tmp_path / "eval.tsv"
        run("train", "--features", fpath, "--labels", lpath,
            "--strategy", "ova", "--C", "1.0", "--model-out", model_path)
        run("predict", "--model", model_path, "--features", fpath,
            "--out", scores_path)
        assert run(
            "evaluate", "ap", "--scores", scores_path, "--truth", lpath,
            "--out", report_path,
        ) == 0
        rows = dict(
            ln.split("\t") for ln in report_path.read_text().splitlines()
        )
        model = svm.load_model(model_path)
        aps = []
        for ci, cls in enumerate(model.classes):
            scores = [
                svm.decision(model.models[ci], row) for row in matrix.values
            ]
            truth = [labels[fid] == cls for fid in matrix.ids]
            ap = metrics.average_precision(scores, truth)
            aps.append(ap)
            assert float(rows[cls]) == ap
        assert float(rows["mAP"]) == metrics.mean_ap(aps)
        assert rows["mAP"] == "1.0"  # separable blobs

    def test_accuracy_report(self, tmp_path):
        preds = tmp_path / "preds.tsv"
        truth = tmp_path / "truth.tsv"
        preds.write_text("a\tx\nb\tx\nc\ty\n")
        truth.write_text("a\tx\nb\ty\nc\ty\n")
        report = tmp_path / "eval.tsv"
        assert run(
            "evaluate", "accuracy", "--predictions", preds,
            "--truth", truth, "--out", report,
        ) == 0
        rows = dict(
            ln.split("\t") for ln in report.read_text().splitlines()
        )
        assert float(rows["accuracy"]) == 0.75  # (1.0 + 0.5) / 2

    def test_id_mismatch_exit_2(self, tmp_path):
        preds = tmp_path / "preds.tsv"
        truth = tmp_path / "truth.tsv"
        preds.write_text("a\tx\n")
        truth.write_text("b\tx\n")
        assert run(
            "evaluate", "accuracy", "--predictions", preds,
            "--truth", truth, "--out", tmp_path / "r.tsv",
        ) == 2

    def test_recall_report(self, tmp_path):
        ranking = tmp_path / "rank.tsv"
        ranking.write_text(
            "q1\t1\tr1\t0.1\nq1\t2\tr2\t0.2\nq1\t3\tr3\t0.3\n"
            "q2\t1\tr9\t0.1\nq2\t2\tr2\t0.5\n"
        )
        relevant = tmp_path / "rel.tsv"
        relevant.write_text("q1\tr1\nq1\tr2\nq2\tr2\n")
        report = tmp_path / "eval.tsv"
        assert run(
            "evaluate", "recall", "--ranking", ranking,
            "--relevant", relevant, "--k", "2", "--out", report,
        ) == 0
        rows = dict(
            ln.split("\t") for ln in report.read_text().splitlines()
        )
        assert float(rows["q1"]) == 1.0
        assert float(rows["q2"]) == 1.0
        assert float(rows["recall@2"]) == 1.0

    def test_recall_accepts_rank_gaps(self, tmp_path):
        # ranks need not be contiguous; one reference may serve two queries
        ranking = tmp_path / "rank.tsv"
        ranking.write_text("q1\t5\tr2\t0.5\nq1\t2\tr1\t0.1\n"
                           "q2\t3\tr1\t0.3\n")
        relevant = tmp_path / "rel.tsv"
        relevant.write_text("q1\tr1\nq2\tr1\n")
        report = tmp_path / "eval.tsv"
        assert run(
            "evaluate", "recall", "--ranking", ranking,
            "--relevant", relevant, "--k", "1", "--out", report,
        ) == 0
        assert report.read_text().splitlines()[-1] == "recall@1\t1.0"

    @pytest.mark.parametrize("metric, missing, given", [
        ("ap", "scores", "truth"), ("ap", "truth", "scores"),
        ("accuracy", "predictions", "truth"),
        ("accuracy", "truth", "predictions"),
        ("recall", "ranking", "relevant"), ("recall", "relevant", "ranking"),
    ])
    def test_missing_input_exit_2(self, tmp_path, capsys, metric, missing,
                                  given):
        path = tmp_path / f"{given}.tsv"
        path.write_text("a\tx\n")
        argv = ["evaluate", metric, f"--{given}", path]
        report = tmp_path / "eval.tsv"
        assert run(*argv, "--out", report) == 2
        assert f"--{missing}" in capsys.readouterr().err
        assert not report.exists()


class TestIndexQuery:
    def test_index_query_crop_provenance(self, pgm_corpus, tmp_path):
        refs_manifest, queries_manifest = pgm_corpus
        index_path = tmp_path / "c.idx"
        assert run(
            "index", "--images", refs_manifest, "--extractor", "toy",
            "--grid", "4", "--out", index_path,
        ) == 0
        ranking_path = tmp_path / "rank.tsv"
        assert run(
            "query", "--index", index_path, "--queries", queries_manifest,
            "--extractor", "toy", "--grid", "4", "--top-k", "3",
            "--out", ranking_path,
        ) == 0
        lines = ranking_path.read_text().splitlines()
        assert len(lines) == 18  # 6 queries x top 3
        top1 = {
            ln.split("\t")[0]: ln.split("\t")[2]
            for ln in lines
            if ln.split("\t")[1] == "1"
        }
        assert top1 == {f"q{i}": f"ref{i}" for i in range(6)}

    def test_defaults_recorded_in_index(self, pgm_corpus, tmp_path):
        from featkit.retrieval import load_index

        refs_manifest, _ = pgm_corpus
        index_path = tmp_path / "c.idx"
        assert run(
            "index", "--images", refs_manifest, "--extractor", "toy",
            "--grid", "4", "--out", index_path,
        ) == 0
        index = load_index(index_path)
        assert index.config.h_r == 4 and index.config.h_q == 3
        assert index.config.pca_dim == 500
        assert index.config.power == 2.0
        assert index.config.epsilon == index.model.epsilon == 1e-10

    def test_chain_options_recorded_in_index(self, pgm_corpus, tmp_path):
        from featkit.retrieval import SpatialSearchConfig, load_index

        refs_manifest, _ = pgm_corpus
        index_path = tmp_path / "c.idx"
        assert run(
            "index", "--images", refs_manifest, "--extractor", "toy",
            "--grid", "4", "--pca-dim", "8", "--power", "1.5",
            "--epsilon", "1e-6", "--out", index_path,
        ) == 0
        index = load_index(index_path)
        assert index.config == SpatialSearchConfig(4, 3, 8, 1.5, 1e-6)
        assert index.model.epsilon == 1e-6

    def test_grid_inferred_from_index(self, pgm_corpus, tmp_path):
        refs_manifest, queries_manifest = pgm_corpus
        index_path = tmp_path / "c.idx"
        run("index", "--images", refs_manifest, "--extractor", "toy",
            "--grid", "4", "--out", index_path)
        out = tmp_path / "rank.tsv"
        assert run(
            "query", "--index", index_path, "--queries", queries_manifest,
            "--extractor", "toy", "--top-k", "1", "--out", out,
        ) == 0

    def test_query_levels_override(self, pgm_corpus, tmp_path):
        """``query --h-q`` ranks each query by its patches at that many
        levels, as search does on the index at that h_q."""
        from dataclasses import replace

        from featkit.errors import DimMismatch
        from featkit.extractors import ToyPixelExtractor
        from featkit.features import load_pgm
        from featkit.retrieval import extract_patches, load_index, search

        refs_manifest, queries_manifest = pgm_corpus
        index_path, out = tmp_path / "c.idx", tmp_path / "rank.tsv"
        assert run("index", "--images", refs_manifest, "--extractor", "toy",
                   "--grid", "4", "--out", index_path) == 0
        assert run(
            "query", "--index", index_path, "--queries", queries_manifest,
            "--extractor", "toy", "--grid", "4", "--h-q", "2",
            "--top-k", "3", "--out", out,
        ) == 0
        index = load_index(index_path)
        at_2 = replace(index, config=replace(index.config, h_q=2))
        expected = []
        for line in queries_manifest.read_text().splitlines():
            qid, path = line.split("\t")
            _, raw = extract_patches(ToyPixelExtractor(4),
                                     [(qid, load_pgm(path))], 2)
            expected += [f"{qid}\t{rank}\t{ref}\t{dist!r}" for rank, (
                ref, dist) in enumerate(search(at_2, raw, top_k=3), 1)]
        assert out.read_text().splitlines() == expected
        with pytest.raises(DimMismatch):
            search(index, raw, top_k=3)

    def test_external_extractor_via_stub(self, tmp_path):
        manifest = tmp_path / "refs.tsv"
        manifest.write_text(
            "r0\timg0.x\t40\t40\nr1\timg1.x\t40\t40\nr2\timg2.x\t40\t40\n"
        )
        index_path = tmp_path / "c.idx"
        assert run(
            "index", "--images", manifest, "--extractor", "external",
            "--command", stub_command("derive"),
            "--h-r", "2", "--h-q", "2", "--out", index_path,
        ) == 0
        out = tmp_path / "rank.tsv"
        assert run(
            "query", "--index", index_path, "--queries", manifest,
            "--extractor", "external", "--command", stub_command("derive"),
            "--top-k", "1", "--out", out,
        ) == 0
        # queries are the references themselves: each ranks itself first
        for ln in out.read_text().splitlines():
            q, rank, ref, dist = ln.split("\t")
            assert q == ref and float(dist) == 0.0


class TestExtractorSessions:
    """One external extractor session per index or query command."""

    @pytest.fixture
    def external_corpus(self, tmp_path, popen_starts):
        refs = tmp_path / "refs.tsv"
        refs.write_text(
            "r0\timg0.x\t40\t40\nr1\timg1.x\t40\t40\n"
            "r2\timg2.x\t36\t44\nr3\timg3.x\t40\t40\n"
        )
        queries = tmp_path / "queries.tsv"
        queries.write_text(
            "q0\timg2.x\t36\t44\nq1\tother.x\t30\t30\n"
            "q2\timg0.x\t40\t40\n"
        )
        index_path = tmp_path / "c.idx"
        assert run(
            "index", "--images", refs, "--extractor", "external",
            "--command", stub_command("derive"),
            "--h-r", "2", "--h-q", "2", "--out", index_path,
        ) == 0
        return index_path, queries

    def test_index_starts_one_session(self, external_corpus, popen_starts):
        assert len(popen_starts) == 1

    def test_query_starts_one_session(self, external_corpus, popen_starts,
                                      tmp_path):
        index_path, queries = external_corpus
        del popen_starts[:]
        out = tmp_path / "rank.tsv"
        assert run(
            "query", "--index", index_path, "--queries", queries,
            "--extractor", "external", "--command", stub_command("derive"),
            "--top-k", "3", "--out", out,
        ) == 0
        assert len(popen_starts) == 1

    def test_query_ranking_equals_per_query_sessions(self, external_corpus,
                                                     tmp_path):
        from featkit.extractors import (
            TransformPlan,
            run_protocol,
            serialize_plan,
        )
        from featkit.features import smallest_enclosing_square
        from featkit.retrieval import level_rects, load_index, search

        index_path, queries = external_corpus
        out = tmp_path / "rank.tsv"
        assert run(
            "query", "--index", index_path, "--queries", queries,
            "--extractor", "external", "--command", stub_command("derive"),
            "--top-k", "3", "--out", out,
        ) == 0
        index = load_index(index_path)
        expected = []
        for line in queries.read_text().splitlines():
            qid, path, w, h = line.split("\t")
            w, h = int(w), int(h)
            wire = [
                (f"{qid}#{k}", path,
                 serialize_plan(
                     TransformPlan(smallest_enclosing_square(r, w, h)), w, h))
                for k, r in enumerate(level_rects(w, h, 2))
            ]
            raw = run_protocol(stub_command("derive"), wire).values
            for rank, (ref, dist) in enumerate(search(index, raw, top_k=3),
                                               1):
                expected.append(f"{qid}\t{rank}\t{ref}\t{dist!r}")
        assert out.read_text().splitlines() == expected


class TestPreprocessCommands:
    def test_fit_then_apply(self, rng, tmp_path):
        matrix = FeatureMatrix(
            tuple(f"v{i}" for i in range(12)), rng.normal(size=(12, 6))
        )
        fpath = tmp_path / "feats.tsv"
        save_features(matrix, fpath)
        model_path = tmp_path / "m.pcaw"
        assert run(
            "preprocess-fit", "--features", fpath, "--pca-dim", "4",
            "--out", model_path,
        ) == 0
        out_path = tmp_path / "proc.tsv"
        assert run(
            "preprocess-apply", "--model", model_path, "--features", fpath,
            "--out", out_path,
        ) == 0
        from featkit.features import load_features
        from featkit.preprocess import (
            load_pca_model,
            retrieval_pipeline_apply,
        )

        processed = load_features(out_path)
        assert processed.dim == 4
        model = load_pca_model(model_path)
        for fid, row in zip(matrix.ids, matrix.values):
            direct = retrieval_pipeline_apply(model, 2.0, row)
            assert np.array_equal(
                processed.values[processed.ids.index(fid)], direct
            )


    @pytest.mark.parametrize("tail", ["garbage\n", "extra-row", "\n"],
                             ids=["line", "extra-row", "blank-line"])
    def test_apply_rejects_content_after_model(self, rng, tmp_path, capsys,
                                               tail):
        fpath = tmp_path / "feats.tsv"
        save_features(FeatureMatrix(tuple(f"v{i}" for i in range(12)),
                                    rng.normal(size=(12, 6))), fpath)
        model_path = tmp_path / "m.pcaw"
        assert run("preprocess-fit", "--features", fpath, "--pca-dim", "4",
                   "--out", model_path) == 0
        text = model_path.read_text()
        if tail == "extra-row":
            tail = text.split("\n")[-2] + "\n"
        model_path.write_text(text + tail)
        out_path = tmp_path / "proc.tsv"
        assert run("preprocess-apply", "--model", model_path, "--features",
                   fpath, "--out", out_path) == 2
        assert not out_path.exists()
        assert "end the model" in capsys.readouterr().err

    def test_chain_options_reach_fit_and_apply(self, rng, tmp_path):
        from featkit.features import load_features
        from featkit.preprocess import (
            load_pca_model,
            retrieval_pipeline_apply,
        )

        fpath = tmp_path / "feats.tsv"
        save_features(FeatureMatrix(tuple(f"v{i}" for i in range(12)),
                                    rng.normal(size=(12, 6))), fpath)
        model_path = tmp_path / "m.pcaw"
        assert run("preprocess-fit", "--features", fpath, "--pca-dim", "3",
                   "--epsilon", "1e-6", "--out", model_path) == 0
        model = load_pca_model(model_path)
        assert (model.k, model.epsilon) == (3, 1e-6)
        out_path = tmp_path / "proc.tsv"
        assert run("preprocess-apply", "--model", model_path, "--features",
                   fpath, "--power", "1.5", "--out", out_path) == 0
        rows = load_features(fpath).values
        assert np.array_equal(load_features(out_path).values,
                              retrieval_pipeline_apply(model, 1.5, rows))


class TestPlans:
    def test_stdout_table(self, capsys):
        assert run("plans", "--width", "300", "--height", "300") == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 16
        assert out[0] == "0\t0,0,300,300"
        assert out[1] == "1\t0,0,200,200"
        assert out[8] == "8\t0,0,300,300;rot=0.0;mir=1"

    def test_patch_kind(self, capsys):
        assert run(
            "plans", "--width", "300", "--height", "300",
            "--kind", "patches", "--level", "2",
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "0\t0,0,200,200",
            "1\t100,0,200,200",
            "2\t0,100,200,200",
            "3\t100,100,200,200",
        ]

    def test_negative_kind_writes_file(self, tmp_path):
        out = tmp_path / "plans.tsv"
        assert run(
            "plans", "--width", "200", "--height", "100",
            "--kind", "negative", "--out", out,
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        assert lines[1] == "1\t0,0,200,100;rot=0.0;mir=1"


@pytest.mark.parametrize("argv, config, fields", [
    (["index", "--images", "m", "--out", "o"], "SpatialSearchConfig",
     {"h_r": "h_r", "h_q": "h_q", "pca_dim": "pca_dim", "power": "power",
      "epsilon": "epsilon"}),
    (["preprocess-fit", "--features", "f", "--out", "o"],
     "SpatialSearchConfig", {"pca_dim": "pca_dim", "epsilon": "epsilon"}),
    (["preprocess-apply", "--model", "m", "--features", "f", "--out", "o"],
     "SpatialSearchConfig", {"power": "power"}),
    (["train", "--features", "f", "--labels", "l", "--strategy", "ova",
      "--model-out", "o"], "SolverConfig",
     {"tol": "tol", "max_epochs": "max_epochs", "seed": "seed"}),
    (["plans", "--width", "4", "--height", "4"], "AugmentConfig",
     {"fraction": "crop_area_fraction", "angles": "rotation_angles"}),
], ids=["index", "preprocess-fit", "preprocess-apply", "train", "plans"])
def test_option_defaults_are_config_defaults(argv, config, fields):
    import featkit
    from featkit.cli import build_parser

    args = build_parser().parse_args(argv)
    defaults = getattr(featkit, config)
    for option, field in fields.items():
        assert getattr(args, option) == getattr(defaults, field), option


def test_internal_error_exits_3(monkeypatch, tmp_path):
    import featkit.cli as cli_mod

    def boom(args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "_cmd_plans", boom)
    parser = cli_mod.build_parser()
    args = parser.parse_args(["plans", "--width", "4", "--height", "4"])
    args.func = boom
    monkeypatch.setattr(
        cli_mod.argparse.ArgumentParser, "parse_args",
        lambda self, argv=None: args,
    )
    assert cli_mod.main(["plans", "--width", "4", "--height", "4"]) == 3


_TRAIN = ("train", "--features", "feats.tsv", "--labels", "labels.tsv",
          "--strategy", "ovo", "--C", "1", "--model-out", "model.tsvm")
_RECALL = ("evaluate", "recall", "--ranking", "rank.tsv",
           "--relevant", "rel.tsv", "--k", "1", "--out", "eval.tsv")
_VALID_INPUTS = {
    "feats.tsv": "a\t1.0\t2.0\nb\t3.0\t4.0\n",
    "labels.tsv": "a\tx\nb\ty\n",
    "rank.tsv": "q1\t1\tr1\t0.1\n",
    "rel.tsv": "q1\tr1\n",
}


@pytest.mark.parametrize("argv, name, text, lineno", [
    pytest.param(_RECALL, "rank.tsv", "q1\t1\tr1\t0.1\n\nq1\tx\tr2\t0.2\n",
                 3, id="ranking-rank-not-int"),
    pytest.param(_RECALL, "rank.tsv", "q1\t1\tr1\t0.1\nq1\t2\tr1\t0.1\n",
                 2, id="ranking-repeated-reference"),
    pytest.param(_RECALL, "rank.tsv", "q1\t2\tr1\t0.1\nq1\t2\tr2\t0.2\n",
                 2, id="ranking-repeated-rank"),
    pytest.param(_RECALL, "rank.tsv", "q1\t0\tr1\t0.1\n", 1,
                 id="ranking-rank-zero"),
    pytest.param(_RECALL, "rank.tsv", "q1\t1\tr1\t0.1\nq1\t-2\tr2\t0.2\n",
                 2, id="ranking-rank-negative"),
    *(pytest.param(_RECALL, "rank.tsv",
                   f"q1\t1\tr1\t0.1\nq1\t{rank}\tr2\t0.2\n", 2,
                   id=f"ranking-rank-{rank!r}")
      for rank in ("+2", " 2", "1_0", "\u0662")),
    *(pytest.param(_RECALL, "rank.tsv",
                   f"q1\t1\tr1\t0.1\n\nq1\t2\tr2\t{d}\n", 3,
                   id=f"ranking-distance-{d!r}")
      for d in ("abc", "nan", "-1.0", "inf", "")),
    pytest.param(("evaluate", "ap", "--scores", "scores.tsv", "--truth",
                  "labels.tsv", "--out", "eval.tsv"),
                 "scores.tsv", "id\tx\ty\na\t0.1\t0.2\nb\t0.3\n", 3,
                 id="scores-ragged-row"),
    pytest.param(("evaluate", "ap", "--scores", "scores.tsv", "--truth",
                  "labels.tsv", "--out", "eval.tsv"),
                 "scores.tsv", "id\tx\na\t0.9\na\t0.1\nb\t0.5\n", 3,
                 id="scores-duplicate-id"),
    pytest.param(("evaluate", "ap", "--scores", "scores.tsv", "--truth",
                  "labels.tsv", "--out", "eval.tsv"),
                 "scores.tsv", "id\tx\na\t0.9\n\nb\tnan\n", 4,
                 id="scores-non-finite"),
    pytest.param(("evaluate", "accuracy", "--predictions", "preds.tsv",
                  "--truth", "labels.tsv", "--out", "eval.tsv"),
                 "preds.tsv", "a\tx\na\ty\n", 2,
                 id="predictions-duplicate-id"),
    pytest.param(_RECALL, "rel.tsv", "q1\tr1\nq1\t\n", 2,
                 id="relevant-empty-id"),
    pytest.param(("index", "--images", "refs.tsv", "--grid", "2",
                  "--out", "corpus.idx"),
                 "refs.tsv", "\nr0\ta.pgm\t5\n", 2, id="manifest-three-fields"),
    *(pytest.param(("index", "--images", "refs.tsv", "--grid", "2",
                    "--out", "corpus.idx"),
                   "refs.tsv", f"r0\ta.pgm\t16\t16\nr1\ta.pgm\t{w}\t16\n", 2,
                   id=f"manifest-width-{w!r}")
      for w in ("1_6", "\u0661\u0666", "+16", "-16")),
    pytest.param(_TRAIN, "labels.tsv", "a\tx\r\n\r\nb\r\n", 3,
                 id="labels-one-field"),
    pytest.param(_TRAIN, "feats.tsv", "a\t1.0\t2.0\nb\t3.0\n", 2,
                 id="features-ragged-row"),
    pytest.param(_TRAIN, "feats.tsv", "a\t1.0\t2.0\n\nb\t3.0\t1e\n", 3,
                 id="features-non-numeric"),
])
def test_malformed_line_exit_2_names_path_and_line(
    tmp_path, capsys, argv, name, text, lineno
):
    for fname, content in {**_VALID_INPUTS, name: text}.items():
        (tmp_path / fname).write_text(content, encoding="utf-8", newline="")
    # every argument with a dot names a file under tmp_path
    args =[str(tmp_path / a) if "." in a else a for a in argv]
    assert main(args) == 2
    assert f"{tmp_path / name}:{lineno}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, target, lineno", [
    ("predict", "model.tsvm", 4),          # an OTSVM1 class line
    ("predict", "feats.tsv", 7),           # a TSV feature id
    ("preprocess-apply", "feats.tsv", 7),
    ("preprocess-apply", "chain.pcaw", 2),  # the PCAW1 size line
])
def test_undecodable_byte_exit_2_names_path_and_line(
    blob_data, tmp_path, capsys, command, target, lineno
):
    _, _, fpath, lpath = blob_data
    model, chain = tmp_path / "model.tsvm", tmp_path / "chain.pcaw"
    assert run("train", "--features", fpath, "--labels", lpath,
               "--strategy", "ovo", "--C", "1", "--model-out", model) == 0
    assert run("preprocess-fit", "--features", fpath, "--pca-dim", "3",
               "--out", chain) == 0
    path = tmp_path / target
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:1] + b"\xff" + lines[lineno - 1]
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out.tsv"
    source = ["--model", model if command == "predict" else chain]
    capsys.readouterr()
    assert run(command, *source, "--features", fpath, "--out", out) == 2
    assert f"{path}:{lineno}: 'utf-8' codec can't decode byte 0xff" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_train_ova_with_every_class_skipped_exits_2(tmp_path, capsys):
    feats, labels = tmp_path / "f.tsv", tmp_path / "l.tsv"
    feats.write_text("a\t1.0\t0.0\nb\t0.0\t1.0\n")
    labels.write_text("a\tx\na\ty\nb\tx\nb\ty\n")
    model = tmp_path / "m.tsvm"
    assert run("train", "--features", feats, "--labels", labels,
               "--strategy", "ova", "--C", "1", "--model-out", model) == 2
    assert "every class has a degenerate subproblem" in capsys.readouterr().err
    assert not model.exists()


class TestDeterminism:
    def test_all_commands_byte_identical_on_rerun(
        self, blob_data, pgm_corpus, tmp_path
    ):
        _, _, fpath, lpath = blob_data
        refs_manifest, queries_manifest = pgm_corpus

        def round_trip(tag):
            d = tmp_path / tag
            d.mkdir()
            model = d / "m.tsvm"
            report = d / "train.tsv"
            preds = d / "preds.tsv"
            run("train", "--features", fpath, "--labels", lpath,
                "--strategy", "ovo", "--C", "1.0", "--seed", "42",
                "--model-out", model, "--report", report)
            run("predict", "--model", model, "--features", fpath,
                "--out", preds)
            evalr = d / "eval.tsv"
            run("evaluate", "accuracy", "--predictions", preds,
                "--truth", lpath, "--out", evalr)
            index = d / "c.idx"
            run("index", "--images", refs_manifest, "--extractor", "toy",
                "--grid", "4", "--out", index)
            rank = d / "rank.tsv"
            run("query", "--index", index, "--queries", queries_manifest,
                "--extractor", "toy", "--top-k", "4", "--out", rank)
            pcaw = d / "m.pcaw"
            run("preprocess-fit", "--features", fpath, "--pca-dim", "3",
                "--out", pcaw)
            proc = d / "proc.tsv"
            run("preprocess-apply", "--model", pcaw, "--features", fpath,
                "--out", proc)
            return [model, report, preds, evalr, index, rank, pcaw, proc]

        first = round_trip("run1")
        second = round_trip("run2")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name
