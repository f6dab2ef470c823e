"""Output checks that share no code with featkit.

Each check parses a featkit output file itself and recomputes it from the
generated inputs with plain numpy: scores with one matrix product plus
pooling, one-vs-one votes from those scores, the retrieval chain and the
brute-force query distance.  A check returns a list of error strings;
an empty list means the output is correct.

Tolerances, fixed before measuring:

* ``SCORE_RTOL``: pooled decision values may differ from the oracle's
  matrix product by this relative amount (the per-row dot products sum
  in another order);
* ``DIST_ATOL``: a ranked distance may differ from the brute-force
  distance by this much, and two references whose oracle distances lie
  within it may swap ranks;
* ``METRIC_ATOL``: evaluate reports are recomputed from the checked
  scores, predictions and rankings, and may differ by this much.

A self-match, a query whose patches are a reference's own, must be
ranked first at a distance that reads exactly ``0.0``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

SCORE_RTOL = 1e-9
DIST_ATOL = 1e-6
METRIC_ATOL = 1e-12


# --- OTSVM1 models and predictions -------------------------------------

def parse_model(text: str) -> dict:
    """OTSVM1: magic, strategy/k/bias line, k class lines, model lines."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "OTSVM1":
        raise ValueError("bad OTSVM1 magic")
    strategy, k, bias = lines[1].split("\t")
    k = int(k)
    keys, c, obj, rows = [], [], [], []
    for line in lines[2 + k :]:
        key, c_used, objective, *w = line.split("\t")
        keys.append(tuple(map(int, key.split(","))))
        c.append(float(c_used))
        obj.append(float(objective))
        rows.append([float(v) for v in w])
    w = np.asarray(rows)
    if bias == "1":
        w, b = w[:, :-1], w[:, -1]
    else:
        b = np.zeros(len(keys))
    return dict(strategy=strategy, classes=lines[2 : 2 + k], keys=keys,
                C=c, objective=obj, W=w, b=b)


def check_model(model: dict, classes, x, row_labels, strategy: str,
                c: float) -> list:
    """Expected classes and binary models, the preset C, and each stored
    objective equal to the hinge objective of its weights on the rows."""
    k = len(classes)
    keys = ([(i,) for i in range(k)] if strategy == "ova" else
            [(i, j) for i in range(k) for j in range(i + 1, k)])
    if (model["strategy"], model["classes"], model["keys"]) != (
            strategy, list(classes), keys):
        return ["model classes or binary models are not the expected set"]
    for m, key in enumerate(keys):
        pos = np.asarray([classes[key[0]] in s for s in row_labels])
        rows = (np.ones_like(pos) if strategy == "ova" else
                pos | np.asarray([classes[key[1]] in s for s in row_labels]))
        y = np.where(pos[rows], 1.0, -1.0)
        w, b = model["W"][m], model["b"][m]
        want = 0.5 * (w @ w + b * b) + c * float(
            np.maximum(0.0, 1.0 - y * (x[rows] @ w + b)).sum())
        got = model["objective"][m]
        if model["C"][m] != c or abs(got - want) > 1e-9 * (1.0 + want):
            return [f"model {key}: C {model['C'][m]!r}, objective {got!r}; "
                    f"expected C {c!r}, objective {want!r}"]
    return []


def _groups(ids):
    """Base ids in first-seen order and each row's group index."""
    bases, index = [], {}
    for fid in ids:
        base = fid.rpartition("#")[0]
        if base not in index:
            index[base] = len(bases)
            bases.append(base)
    return bases, np.asarray([index[f.rpartition("#")[0]] for f in ids])


def pooled_scores(model: dict, x: np.ndarray, ids) -> tuple:
    """Sum-pooled decision values, one row per base id: (bases, S)."""
    bases, group = _groups(ids)
    rows = x @ model["W"].T + model["b"]
    pooled = np.zeros((len(bases), rows.shape[1]))
    np.add.at(pooled, group, rows)
    return bases, pooled


def check_ova_scores(text: str, model: dict, x, ids) -> list:
    bases, want = pooled_scores(model, x, ids)
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    errors = []
    if header != ["id"] + [model["classes"][k[0]] for k in model["keys"]]:
        errors.append("scores header does not list the model's classes")
    got_ids = [ln.split("\t", 1)[0] for ln in lines[1:]]
    if got_ids != bases:
        return errors + ["score rows are not the test ids in input order"]
    got = np.asarray([[float(v) for v in ln.split("\t")[1:]]
                      for ln in lines[1:]])
    scale = np.abs(x) @ np.abs(model["W"]).T + np.abs(model["b"])
    bound = np.zeros_like(want)
    np.add.at(bound, _groups(ids)[1], scale)
    bad = np.abs(got - want) > SCORE_RTOL * (1.0 + bound)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        errors.append(f"{bases[r]} class {header[c + 1]}: score "
                      f"{float(got[r, c])!r} != oracle {float(want[r, c])!r}")
    return errors


def ovo_labels(model: dict, pooled: np.ndarray) -> tuple:
    """Voted labels and, per row, whether a pair score or a margin
    tie-break is too close to call at ``SCORE_RTOL``."""
    k = len(model["classes"])
    labels, unsure = [], []
    for row in pooled:
        votes, margin = np.zeros(k, dtype=int), np.zeros(k)
        for (i, j), s in zip(model["keys"], row):
            win = i if s >= 0.0 else j
            votes[win] += 1
            margin[win] += abs(s)
        best = np.flatnonzero(votes == votes.max())
        top = margin[best].max()
        close = np.abs(margin[best] - top) <= SCORE_RTOL * (1.0 + top)
        best = best[margin[best] == top]
        labels.append(model["classes"][int(best[0])])
        unsure.append(bool(np.any(np.abs(row) < SCORE_RTOL)
                           or close.sum() > 1))
    return labels, unsure


def check_ovo_predictions(text: str, model: dict, x, ids) -> list:
    bases, pooled = pooled_scores(model, x, ids)
    want, unsure = ovo_labels(model, pooled)
    got = [ln.split("\t") for ln in text.rstrip("\n").split("\n")]
    if [g[0] for g in got] != bases:
        return ["prediction rows are not the test ids in input order"]
    for (base, label), w, u in zip(got, want, unsure):
        if label != w and not u:
            return [f"{base}: predicted {label!r}, oracle votes {w!r}"]
    return []


# --- evaluate reports ---------------------------------------------------

def summary(text: str, name: str) -> float:
    for line in text.rstrip("\n").split("\n"):
        key, _, value = line.partition("\t")
        if key == name:
            return float(value)
    raise ValueError(f"report has no {name!r} line")


def _check_summary(text: str, name: str, want: float) -> list:
    got = summary(text, name)
    if abs(got - want) > METRIC_ATOL:
        return [f"{name} {got!r} != recomputed {want!r}"]
    return []


def check_map(report: str, scores_text: str, truth) -> list:
    """All-points AP per class over the checked scores, ties by row order."""
    lines = scores_text.rstrip("\n").split("\n")
    classes = lines[0].split("\t")[1:]
    ids = [ln.split("\t", 1)[0] for ln in lines[1:]]
    scores = np.asarray([[float(v) for v in ln.split("\t")[1:]]
                         for ln in lines[1:]])
    labels = {}
    for img, cls in truth:
        labels.setdefault(img, set()).add(cls)
    aps = []
    for j, cls in enumerate(classes):
        pos = np.asarray([cls in labels[i] for i in ids])
        if not pos.any():
            continue
        ranked = pos[np.argsort(-scores[:, j], kind="stable")]
        hits = np.cumsum(ranked)
        ranks = np.arange(1, ranked.size + 1)
        aps.append(float(np.mean(hits[ranked] / ranks[ranked])))
    return _check_summary(report, "mAP", float(np.mean(aps)))


def check_accuracy(report: str, preds_text: str, truth) -> list:
    """Mean over classes of the share of each class predicted correctly."""
    preds = dict(ln.split("\t") for ln in preds_text.rstrip("\n").split("\n"))
    per_class = {}
    for img, cls in truth:
        per_class.setdefault(cls, []).append(preds[img] == cls)
    want = float(np.mean([np.mean(v) for _, v in sorted(per_class.items())]))
    return _check_summary(report, "accuracy", want)


def check_recall(report: str, ranking: dict, relevant, k: int) -> list:
    rel = {}
    for qid, rid in relevant:
        rel.setdefault(qid, set()).add(rid)
    vals = [len(set(ranking[q][0][:k]) & rel[q]) / len(rel[q])
            for q in ranking]
    return _check_summary(report, f"recall@{k}", float(np.mean(vals)))


# --- OTIDX1 index and rankings ------------------------------------------

def parse_index(blob: bytes) -> dict:
    """OTIDX1: config line, PCAW1 text block, then per-reference patches."""
    if not blob.startswith(b"OTIDX1\n"):
        raise ValueError("bad OTIDX1 magic")
    off = 7
    nl = blob.index(b"\n", off)
    h_r, h_q, pca_dim, power, eps = blob[off:nl].decode().split("\t")
    off = nl + 1
    (mlen,) = struct.unpack_from("<I", blob, off)
    text = blob[off + 4 : off + 4 + mlen].decode().rstrip("\n").split("\n")
    off += 4 + mlen
    if text[0] != "PCAW1":
        raise ValueError("bad PCAW1 magic")
    k, d, model_eps = text[1].split("\t")
    k = int(k)
    rows = [np.asarray([float(v) for v in ln.split("\t")])
            for ln in text[2 : 4 + k]]
    (n_refs,) = struct.unpack_from("<I", blob, off)
    off += 4
    refs = []
    for _ in range(n_refs):
        nl = blob.index(b"\n", off)
        rid = blob[off:nl].decode()
        off = nl + 1
        (n_rects,) = struct.unpack_from("<I", blob, off)
        rects = [struct.unpack_from("<IIII", blob, off + 4 + 16 * i)
                 for i in range(n_rects)]
        off += 4 + 16 * n_rects
        n, kk = struct.unpack_from("<II", blob, off)
        vecs = np.frombuffer(blob, "<f4", n * kk, off + 8).reshape(n, kk)
        off += 8 + 4 * n * kk
        refs.append((rid, rects, vecs.astype(np.float64)))
    if off != len(blob):
        raise ValueError("trailing bytes after the last reference")
    return dict(h_r=int(h_r), h_q=int(h_q), pca_dim=int(pca_dim),
                power=float(power), mean=rows[0], comps=np.vstack(rows[1:-1]),
                eigs=rows[-1], eps=float(model_eps), refs=refs)


def _unit(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(n == 0.0, 1.0, n)


def chain(index: dict, raw: np.ndarray) -> np.ndarray:
    """L2 -> PCA -> whiten -> L2 -> signed power, on rows; float32 out."""
    z = (_unit(raw) - index["mean"]) @ index["comps"].T
    z = _unit(z / np.sqrt(index["eigs"] + index["eps"]))
    return (np.sign(z) * np.abs(z) ** index["power"]).astype(np.float32)


def check_index(index: dict, ref_ids, ref_raw: dict, ref_rects=None
                ) -> list:
    """Reference order, the fitted chain and every stored patch vector."""
    errors = []
    if [r[0] for r in index["refs"]] != list(ref_ids):
        return ["index references are not the manifest in order"]
    if ref_rects is not None and any(
            [tuple(r) for r in rects] != ref_rects[rid]
            for rid, rects, _ in index["refs"]):
        errors.append("stored patch rects differ from the patch grid")
    x = _unit(np.vstack([ref_raw[r] for r in ref_ids]))
    n, d = x.shape
    k = index["eigs"].size
    if k != min(index["pca_dim"], n - 1, d):
        errors.append(f"chain keeps {k} dimensions, expected "
                      f"{min(index['pca_dim'], n - 1, d)}")
    cov = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / n
    top = np.linalg.eigvalsh(cov)[::-1][:k]
    scale = 1e-8 * max(float(top[0]), 1e-300)
    c = index["comps"]
    if (np.abs(index["mean"] - x.mean(axis=0)).max() > 1e-12
            or np.abs(c @ c.T - np.eye(k)).max() > 1e-8
            or np.abs(c @ cov @ c.T - np.diag(index["eigs"])).max() > scale
            or np.abs(index["eigs"] - top).max() > scale):
        errors.append("chain is not the top-k eigenbasis of the references")
    for rid, _, vecs in index["refs"]:
        if np.abs(vecs - chain(index, ref_raw[rid])).max() > DIST_ATOL:
            errors.append(f"{rid}: stored patch vectors differ from the chain")
            break
    return errors


def oracle_distances(index: dict, raw: np.ndarray) -> list:
    """Mean over query patches of the min L2 distance, per reference."""
    q = chain(index, raw).astype(np.float64)
    out = []
    for _, _, r in index["refs"]:
        d = np.sqrt(((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))
        out.append(float(d.min(axis=1).mean()))
    return out


def parse_ranking(text: str) -> dict:
    """query -> ([ref ids in rank order], [distance texts])."""
    out = {}
    for line in text.rstrip("\n").split("\n"):
        qid, rank, rid, dist = line.split("\t")
        ids, dists = out.setdefault(qid, ([], []))
        if int(rank) != len(ids) + 1:
            raise ValueError(f"{qid}: rank {rank} out of sequence")
        ids.append(rid)
        dists.append(dist)
    return out


def check_ranking(text: str, index: dict, query_ids, query_raw: dict,
                  duplicates: dict, top_k: int) -> list:
    ranking = parse_ranking(text)
    if list(ranking) != list(query_ids):
        return ["ranked queries are not the manifest in order"]
    ref_ids = [r[0] for r in index["refs"]]
    pos = {rid: i for i, rid in enumerate(ref_ids)}
    for qid in query_ids:
        ids, texts = ranking[qid]
        dists = [float(t) for t in texts]
        oracle = oracle_distances(index, query_raw[qid])
        want = sorted(range(len(ref_ids)), key=lambda i: (oracle[i],
                                                          ref_ids[i]))
        want = [ref_ids[i] for i in want[:top_k]]
        if len(ids) != len(want) or len(set(ids)) != len(ids):
            return [f"{qid}: {len(ids)} ranked references, expected "
                    f"{len(want)} distinct"]
        for rank, (rid, dist, w) in enumerate(zip(ids, dists, want), 1):
            if rid not in pos:
                return [f"{qid}: unknown reference {rid!r}"]
            if abs(dist - oracle[pos[rid]]) > DIST_ATOL:
                return [f"{qid} rank {rank}: distance {dist!r} != oracle "
                        f"{oracle[pos[rid]]!r}"]
            if rid != w and abs(oracle[pos[rid]] - oracle[pos[w]]) > DIST_ATOL:
                return [f"{qid} rank {rank}: {rid} where the oracle ranks {w}"]
        for a, b, da, db in zip(ids, ids[1:], dists, dists[1:]):
            if da > db or (da == db and a > b):
                return [f"{qid}: {a} and {b} out of order"]
        if qid in duplicates and (ids[0] != duplicates[qid]
                                  or texts[0] != "0.0"):
            return [f"{qid}: self-match {duplicates[qid]} not first at "
                    f"distance 0.0 (got {ids[0]} at {texts[0]})"]
    return []


# --- patch geometry, restated from the method description ---------------

def _iround(x: float) -> int:
    return int(math.floor(x + 0.5))


def level_rects(width: int, height: int, levels: int) -> list:
    """Level i holds i*i same-size patches of side round(2L/(i+1)),
    evenly spaced from 0 to L - side on each axis."""
    out = []
    for i in range(1, levels + 1):
        sw, sh = _iround(width * 2 / (i + 1)), _iround(height * 2 / (i + 1))
        if i == 1:
            out.append((0, 0, sw, sh))
            continue
        xs = [_iround(t * (width - sw) / (i - 1)) for t in range(i)]
        ys = [_iround(t * (height - sh) / (i - 1)) for t in range(i)]
        out.extend((x, y, sw, sh) for y in ys for x in xs)
    return out


def enclosing_square(rect, width: int, height: int) -> tuple:
    """Smallest square around ``rect``, centred, then shifted inside."""
    x, y, w, h = rect
    side = min(max(w, h), width, height)
    x = min(max(x + (w - side) // 2, 0), width - side)
    y = min(max(y + (h - side) // 2, 0), height - side)
    return (x, y, side, side)
