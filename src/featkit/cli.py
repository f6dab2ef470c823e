"""Command-line surface: train, predict, evaluate, index, query,
preprocess-fit, preprocess-apply, plans.

Exit codes: 0 success, 2 usage or input error, 3 internal failure.
All output files are written atomically (temp + rename) and are
byte-deterministic for identical inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import augment, metrics, retrieval, svm
from .errors import (
    DimMismatch,
    FeatkitError,
    MalformedFile,
    SkippedClassWarning,
)
from .extractors import (
    ExternalProcessExtractor,
    FileBackedExtractor,
    ToyPixelExtractor,
    TransformPlan,
    serialize_plan,
)
from .features import (
    FeatureMatrix,
    _tsv_records,
    fmt_float,
    fmt_row,
    load_features,
    load_labels,
    load_pgm,
    parse_rows,
    save_features,
    single_labels,
)
from .preprocess import (
    load_pca_model,
    retrieval_pipeline_apply,
    retrieval_pipeline_fit,
    save_pca_model,
)

# Nominal canvas for plan construction when only plan indices matter
# (file-backed augmentation never evaluates the geometry).
_NOMINAL_CANVAS = (300, 300)


def _atomic_write(path, write_fn) -> None:
    tmp = f"{path}.tmp~"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def _write_text(path, text: str) -> None:
    def _w(p):
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    _atomic_write(path, _w)


def _whole(path, lineno, text: str, what: str) -> int:
    """``text`` read as a whole number written in ASCII digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise MalformedFile(f"{path}:{lineno}: {what} {text!r} is not a whole "
                        "number in ASCII digits")


def _load_manifest(path):
    rows = []
    seen = set()
    for lineno, parts in _tsv_records(path, "manifest"):
        if len(parts) not in (2, 4) or not parts[0]:
            raise MalformedFile(
                f"{path}:{lineno}: expected 'id<TAB>path"
                "[<TAB>width<TAB>height]'"
            )
        if parts[0] in seen:
            raise MalformedFile(
                f"{path}:{lineno}: duplicate id {parts[0]!r}"
            )
        seen.add(parts[0])
        size = [_whole(path, lineno, v, "image size") for v in parts[2:]]
        rows.append((parts[0], parts[1], *(size or (None, None))))
    return rows


def _resolve_c(args) -> float:
    if args.preset is not None and args.C is not None:
        raise ValueError("give either --C or --preset, not both")
    if args.preset is not None:
        return svm.C_PRESETS[args.preset]
    if args.C is not None:
        if not (math.isfinite(args.C) and args.C > 0):
            raise ValueError("--C must be positive and finite")
        return args.C
    raise ValueError("one of --C or --preset is required")


def _cmd_train(args) -> int:
    c = _resolve_c(args)
    cfg = svm.SolverConfig(
        C=c,
        tol=args.tol,
        max_epochs=args.max_epochs,
        bias=not args.no_bias,
        seed=args.seed,
    )
    matrix = load_features(args.features, args.format)
    labels = load_labels(args.labels)
    report_lines = [f"strategy\t{args.strategy}"]

    if args.augment:
        plans = augment.augmentation_plans(*_NOMINAL_CANVAS)
        samples = [(bid, None) for bid in labels]
        # Only the call holds the binding, so the loaded rows are freed
        # once the augmented rows replace them.
        matrix, labels = augment.augment_training_set(
            FileBackedExtractor(matrix), samples, plans, labels
        )
        report_lines.append(f"augmented_per_source\t{len(plans)}")

    # Warnings are recorded, not printed: skipped classes go to the
    # report, and unconverged models (read from each model's solver
    # stats, which carry its key) go to the report and to stderr.
    skipped = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.strategy == "ova":
            model = svm.train_one_vs_all(matrix, labels, cfg)
        else:
            model = svm.train_one_vs_one(matrix, labels, cfg)
    for w in caught:
        if issubclass(w.category, SkippedClassWarning):
            skipped.append(str(w.message))

    report_lines.append(f"classes\t{len(model.classes)}")
    report_lines.append(f"rows\t{matrix.n}")
    report_lines.append(f"C\t{fmt_float(c)}")
    keyed = [(svm.format_model_key(model.strategy, key), m)
             for key, m in model.models.items()]
    for key_s, m in keyed:
        report_lines.append(
            f"objective\t{key_s}\t{fmt_float(m.objective_value)}"
        )
    for msg in skipped:
        report_lines.append(f"skipped\t{msg}")
    for key_s, m in keyed:
        st = m.stats
        report_lines.append(
            f"solver\t{key_s}\t{st.epochs}\t{st.visits}\t"
            f"{fmt_float(st.gap)}\t{int(st.converged)}"
        )
    for key_s, m in keyed:
        report_lines.append(
            f"free_set_steps\t{key_s}\t{m.stats.free_set_steps}"
        )
    for key_s, m in keyed:
        st = m.stats
        if not st.converged:
            report_lines.append(f"unconverged\t{key_s}\t{fmt_float(st.gap)}")
            print(
                f"featkit: model {key_s} did not converge in "
                f"{st.epochs} epochs (duality gap {st.gap:.3g})",
                file=sys.stderr,
            )

    _atomic_write(args.model_out, lambda p: svm.save_model(model, p))
    if args.report:
        _write_text(args.report, "\n".join(report_lines) + "\n")
    return 0


def _cmd_predict(args) -> int:
    model = svm.load_model(args.model)
    matrix = load_features(args.features, args.format)
    if matrix.dim != model.input_dim:
        raise DimMismatch(
            f"feature dim {matrix.dim} does not match model dim "
            f"{model.input_dim}"
        )
    bases, groups = augment.representation_groups(matrix.ids)
    if args.pooling == "sum":
        pooled = svm.decision(
            model, augment.pool_responses(matrix.values, groups, "sum"),
            np.bincount(groups))
    else:
        pooled = augment.pool_responses(
            svm.decision(model, matrix.values), groups, args.pooling)
    if model.strategy == "ovo":
        head, cells = [], svm.predict_ovo_from_scores(model, pooled)
    else:
        head = ["\t".join(["id"] + [model.classes[ci] for ci in model.models])]
        cells = map(fmt_row, pooled)
    lines = head + [f"{base}\t{cell}" for base, cell in zip(bases, cells)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _read_scores(path):
    records = _tsv_records(path, "score file", maxsplit=1)
    lineno, header = next(records)
    if header[0] != "id" or len(header) < 2:
        raise MalformedFile(
            f"{path}:{lineno}: expected 'id<TAB>class...' header"
        )
    classes = header[1].split("\t")
    ids, bodies, linenos = {}, [], []
    for lineno, parts in records:
        if parts[0] in ids:
            raise MalformedFile(f"{path}:{lineno}: duplicate id {parts[0]!r}")
        ids[parts[0]] = None
        bodies.append(parts[1] if len(parts) > 1 else "")
        linenos.append(lineno)
    if not ids:
        raise MalformedFile(f"{path}: no score rows")
    scores = parse_rows(path, bodies, linenos, len(classes))
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if bad.size:
        raise MalformedFile(f"{path}:{linenos[bad[0]]}: scores must be finite")
    return classes, list(ids), scores


def _read_predictions(path):
    preds = {}
    for lineno, parts in _tsv_records(path, "prediction file"):
        if len(parts) != 2:
            raise MalformedFile(f"{path}:{lineno}: expected 'id<TAB>label'")
        if parts[0] in preds:
            raise MalformedFile(
                f"{path}:{lineno}: duplicate id {parts[0]!r}"
            )
        preds[parts[0]] = parts[1]
    return preds


def _require_same_ids(a, b, what: str) -> None:
    if set(a) != set(b):
        off = sorted(set(a) ^ set(b))[0]
        raise ValueError(f"{what} ids do not align (first mismatch {off!r})")


def _cmd_evaluate(args) -> int:
    inputs = {"ap": ("scores", "truth"), "accuracy": ("predictions", "truth"),
              "recall": ("ranking", "relevant")}[args.metric]
    for name in inputs:
        if getattr(args, name) is None:
            raise ValueError(f"evaluate {args.metric} needs --{name}")
    class_rows, summary_rows = [], []
    if args.metric == "ap":
        classes, ids, scores = _read_scores(args.scores)
        truth = load_labels(args.truth)
        _require_same_ids(ids, truth, "score/truth")
        aps = []
        for j, cls in enumerate(classes):
            labels = [cls in truth[i] for i in ids]
            if not any(labels):
                print(
                    f"featkit: class {cls!r} has no positives; skipped",
                    file=sys.stderr,
                )
                continue
            ap = metrics.average_precision(scores[:, j], labels, args.mode)
            class_rows.append((cls, ap))
            aps.append(ap)
        summary_rows.append(("mAP", metrics.mean_ap(aps)))
    elif args.metric == "accuracy":
        preds = _read_predictions(args.predictions)
        truth = single_labels(load_labels(args.truth))
        _require_same_ids(preds, truth, "prediction/truth")
        ids = sorted(truth)
        classes = sorted(set(truth.values()))
        m = metrics.confusion(
            [preds[i] for i in ids], [truth[i] for i in ids], classes
        )
        row_sums = m.sum(axis=1)
        for ci, cls in enumerate(classes):
            class_rows.append((cls, m[ci, ci] / row_sums[ci]))
        summary_rows.append(("accuracy", metrics.mean_diag_accuracy(m)))
    else:
        rankings = _read_ranking(args.ranking)
        relevant = load_labels(args.relevant)
        _require_same_ids(rankings, relevant, "ranking/relevant")
        vals = []
        for qid in rankings:
            r = metrics.recall_at_k(
                rankings[qid],
                relevant[qid],
                args.k,
                query_id=qid,
                exclude_query=not args.include_self,
            )
            class_rows.append((qid, r))
            vals.append(r)
        summary_rows.append(
            (f"recall@{args.k}", float(np.mean(vals)))
        )
    _write_text(
        args.out, metrics.render_report(class_rows, summary_rows)
    )
    return 0


def _read_ranking(path):
    """Each query's references in rank order.  Ranks are whole numbers
    from 1, no query repeats a rank or a reference, and every distance
    is finite and at least 0."""
    out: dict = {}
    distances, linenos = [], []
    for lineno, parts in _tsv_records(path, "ranking file"):
        if len(parts) != 4:
            raise MalformedFile(
                f"{path}:{lineno}: expected "
                "'query<TAB>rank<TAB>ref<TAB>distance'"
            )
        rank = _whole(path, lineno, parts[1], "rank")
        if rank < 1:
            raise MalformedFile(f"{path}:{lineno}: rank must be at least 1")
        qid, ref = parts[0], parts[2]
        ranks, refs = out.setdefault(qid, ({}, set()))
        if rank in ranks or ref in refs:
            what = f"rank {rank}" if rank in ranks else f"reference {ref!r}"
            raise MalformedFile(
                f"{path}:{lineno}: query {qid!r} lists {what} twice"
            )
        ranks[rank] = ref
        refs.add(ref)
        distances.append(parts[3])
        linenos.append(lineno)
    dist = parse_rows(path, distances, linenos, 1)[:, 0]
    bad = np.flatnonzero(~(np.isfinite(dist) & (dist >= 0.0)))
    if bad.size:
        raise MalformedFile(f"{path}:{linenos[bad[0]]}: distance must be "
                            "finite and at least 0")
    return {
        q: [ranks[r] for r in sorted(ranks)] for q, (ranks, _) in out.items()
    }


def _make_binding(args, need_dim: int | None = None):
    """The binding ``args`` select, and how it takes a manifest row as an
    image: ``to_image(id, path, width, height)``."""
    if args.extractor == "toy":
        grid = args.grid
        if grid is None:
            if need_dim is None:
                raise ValueError("--grid is required for the toy extractor")
            grid = math.isqrt(need_dim)
            if grid * grid != need_dim:
                raise ValueError(
                    f"cannot infer --grid from dimension {need_dim}"
                )
        return ToyPixelExtractor(grid), lambda rid, path, w, h: load_pgm(path)
    if args.extractor == "external":
        if not args.command:
            raise ValueError("--command is required for external extraction")
        return ExternalProcessExtractor(args.command), _sized_path
    if not args.features:
        raise ValueError("--features is required for file-backed extraction")
    matrix = load_features(args.features, args.format)
    return FileBackedExtractor(matrix), lambda rid, path, w, h: None


def _sized_path(rid, path, w, h):
    if w is None or h is None:
        raise ValueError(
            f"manifest entry {rid!r} needs width/height columns "
            "for external extraction"
        )
    return path, w, h


def _extract_manifest(args, manifest, levels: int, need_dim=None):
    """The ids of ``manifest``'s images, their patch rects and their raw
    patch rows at ``levels`` levels.  The binding, with any features it
    loaded, is freed on return."""
    binding, to_image = _make_binding(args, need_dim)
    images = [(rid, to_image(rid, img, w, h))
              for rid, img, w, h in _load_manifest(manifest)]
    rects, raw = retrieval.extract_patches(binding, images, levels)
    return [rid for rid, _ in images], rects, raw


def _cmd_index(args) -> int:
    config = retrieval.SpatialSearchConfig(
        h_r=args.h_r, h_q=args.h_q, pca_dim=args.pca_dim, power=args.power,
        epsilon=args.epsilon,
    )
    index = retrieval.build_index(
        *_extract_manifest(args, args.images, config.h_r), config)
    _atomic_write(args.out, lambda p: retrieval.save_index(index, p))
    return 0


def _cmd_query(args) -> int:
    index = retrieval.load_index(args.index)
    if args.h_q is not None:
        index = replace(index, config=replace(index.config, h_q=args.h_q))
    qids, _, raw = _extract_manifest(args, args.queries, index.config.h_q,
                                     need_dim=index.model.dim_in)
    lines = []
    for qid, block in zip(qids, np.split(raw, len(qids))):
        ranked = retrieval.search(index, block, top_k=args.top_k)
        for rank, (ref_id, dist) in enumerate(ranked, 1):
            lines.append(f"{qid}\t{rank}\t{ref_id}\t{fmt_float(dist)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_preprocess_fit(args) -> int:
    matrix = load_features(args.features, args.format)
    model = retrieval_pipeline_fit(matrix.values, args.pca_dim, args.epsilon)
    _atomic_write(args.out, lambda p: save_pca_model(model, p))
    return 0


def _cmd_preprocess_apply(args) -> int:
    model = load_pca_model(args.model)
    matrix = load_features(args.features, args.format)
    out = FeatureMatrix(
        matrix.ids, retrieval_pipeline_apply(model, args.power, matrix.values)
    )
    _atomic_write(
        args.out, lambda p: save_features(out, p, args.out_format)
    )
    return 0


def _cmd_plans(args) -> int:
    w, h = args.width, args.height
    if args.kind == "augment":
        cfg = augment.AugmentConfig(
            rotation_angles=tuple(args.angles),
            crop_area_fraction=args.fraction,
        )
        plans = augment.augmentation_plans(w, h, cfg)
    elif args.kind == "positive":
        plans = augment.positive_mirror_plans()
    elif args.kind == "negative":
        plans = augment.negative_expansion_plans(w, h)
    elif args.kind == "crops":
        plans = [
            TransformPlan(crop=r)
            for r in augment.crop_rects(w, h, args.fraction)
        ]
    else:
        plans = [
            TransformPlan(crop=r)
            for r in retrieval.patch_grid(w, h, args.level)
        ]
    lines = [
        f"{k}\t{serialize_plan(p, w, h)}"
        for k, p in enumerate(plans)
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _add_feature_args(p) -> None:
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument(
        "--format", choices=("tsv", "binary"), default="tsv",
        help="feature file format",
    )


def _add_extractor_args(p) -> None:
    p.add_argument(
        "--extractor", choices=("toy", "external", "file"), default="toy"
    )
    p.add_argument("--grid", type=int, help="toy extractor cells per axis")
    p.add_argument("--command", help="external extractor command line")
    p.add_argument("--features", help="file-backed patch features")
    p.add_argument(
        "--format", choices=("tsv", "binary"), default="tsv"
    )


def _add_config_args(p, config_cls, *fields) -> None:
    """One option per named field of ``config_cls``, taking the field's
    default and its type: ``max_epochs`` becomes ``--max-epochs``."""
    for name in fields:
        default = getattr(config_cls, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featkit",
        description="Feature-vector classification and retrieval toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a multiclass linear SVM")
    _add_feature_args(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--strategy", choices=("ova", "ovo"), required=True)
    p.add_argument("--C", type=float, dest="C")
    p.add_argument("--preset", choices=sorted(svm.C_PRESETS))
    p.add_argument(
        "--augment", action="store_true",
        help="features hold id#0..id#15 representation rows",
    )
    p.add_argument("--no-bias", action="store_true")
    _add_config_args(p, svm.SolverConfig, "tol", "max_epochs", "seed")
    p.add_argument("--model-out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="classify feature rows")
    p.add_argument("--model", required=True)
    _add_feature_args(p)
    p.add_argument("--pooling", choices=("sum", "max"), default="sum")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions or rankings")
    p.add_argument("metric", choices=("ap", "accuracy", "recall"))
    p.add_argument("--scores")
    p.add_argument("--predictions")
    p.add_argument("--ranking")
    p.add_argument("--relevant")
    p.add_argument("--truth")
    p.add_argument(
        "--mode", choices=("all_points", "eleven_point"),
        default="all_points",
    )
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--include-self", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("index", help="build a retrieval index")
    p.add_argument("--images", required=True, help="reference manifest TSV")
    _add_extractor_args(p)
    _add_config_args(p, retrieval.SpatialSearchConfig, "h_r", "h_q",
                     "pca_dim", "power", "epsilon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("query", help="rank references for query images")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="query manifest TSV")
    _add_extractor_args(p)
    p.add_argument("--h-q", type=int, help="override query levels")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "preprocess-fit", help="fit the feature-processing chain"
    )
    _add_feature_args(p)
    _add_config_args(p, retrieval.SpatialSearchConfig, "pca_dim", "epsilon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess_fit)

    p = sub.add_parser(
        "preprocess-apply", help="run vectors through a fitted chain"
    )
    p.add_argument("--model", required=True)
    _add_feature_args(p)
    _add_config_args(p, retrieval.SpatialSearchConfig, "power")
    p.add_argument(
        "--out-format", choices=("tsv", "binary"), default="tsv"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess_apply)

    p = sub.add_parser("plans", help="dump augmentation geometry as TSV")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=("augment", "positive", "negative", "crops", "patches"),
        default="augment",
    )
    p.add_argument("--fraction", type=float,
                   default=augment.AugmentConfig.crop_area_fraction)
    p.add_argument(
        "--angles", type=float, nargs=2,
        default=augment.AugmentConfig.rotation_angles, metavar=("A1", "A2"),
    )
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plans)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FeatkitError, OSError, ValueError, KeyError) as exc:
        print(f"featkit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"featkit: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
