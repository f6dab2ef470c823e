"""Writers write only what their readers read back equal.

For each format, every object its constructor accepts is either written
and read back equal, or refused by the writer with ``ValueError`` before
the file is opened.  No writer raises anything else, and none warns.
The properties run under the suite's derandomized profile.
"""

import itertools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from featkit.features import (
    FeatureMatrix,
    PixelGrid,
    Rect,
    load_features,
    save_features,
)
from featkit.preprocess import PcaWhitenModel, load_pca_model, save_pca_model
from featkit.retrieval import (
    RetrievalIndex,
    SpatialSearchConfig,
    load_index,
    patch_count,
    save_index,
    search,
)
from featkit.svm import (
    BinaryModel,
    MulticlassModel,
    SolverConfig,
    load_model,
    save_model,
)

# Any code point, with the separators, line breaks that are not
# separators, a lone surrogate and a byte-order mark drawn often: the id
# rule decides what is valid, not the strategy.
_ids = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(["\t", "\n", "\r", "\x85", "\u2028", "\ud800",
                     "\ufeff"]),
), max_size=5)
_values = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _feature_parts(draw):
    n = draw(st.integers(0, 4))
    d = draw(st.integers(0 if n == 0 else 1, 4))
    ids = draw(st.lists(_ids, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_values, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return ids, np.array(rows, dtype=np.float64).reshape(n, d)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _write_and_read(obj, save, load):
    """``obj`` read back by ``load(path)`` after ``save(obj, path)``, or
    None when the writer refused it with ValueError without opening the
    file.  Any warning is an error."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "out"
        try:
            save(obj, path)
        except ValueError:
            assert not path.exists()
            return None
        return load(path)


def _features_io(fmt):
    return (lambda m, p: save_features(m, p, fmt),
            lambda p: load_features(p, fmt))


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
@given(parts=_feature_parts())
def test_feature_matrix_reads_back_equal_or_is_refused(fmt, parts):
    try:
        matrix = FeatureMatrix(*parts)
    except ValueError:
        return
    back = _write_and_read(matrix, *_features_io(fmt))
    if back is None:
        return
    expected = matrix.values
    if fmt == "binary":
        expected = expected.astype(np.float32).astype(np.float64)
    assert back.ids == matrix.ids
    assert back.values.shape == expected.shape
    assert np.array_equal(_bits(back.values), _bits(expected))


def test_empty_matrix_is_refused_as_value_error():
    assert _write_and_read(FeatureMatrix((), np.zeros((0, 3))),
                           *_features_io("tsv")) is None


@pytest.mark.parametrize("fid", ["\ud800", "a\udfffb"])
def test_id_that_utf8_cannot_encode_is_refused(fid):
    with pytest.raises(ValueError, match="lone surrogate"):
        FeatureMatrix((fid,), [[1.0]])


# Chain values: the 1e-15 grid of fitted components, any finite float,
# and signed zeros, subnormals and the largest doubles drawn often.
_edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          1e-300, 1.7976931348623157e308, -1e308, 1.0, -1.0])
_grid = st.integers(-10**15, 10**15).map(lambda m: m / 1e15)
_eig = st.one_of(st.floats(0.0, allow_infinity=False),
                 st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e308,
                                  1.7976931348623157e308]))


@st.composite
def _pca_parts(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, d))
    comp = draw(st.sampled_from([_grid, st.one_of(_grid, _values, _edges)]))
    mean = draw(st.lists(st.one_of(_values, _edges), min_size=d, max_size=d))
    comps = draw(st.lists(st.lists(comp, min_size=d, max_size=d),
                          min_size=k, max_size=k))
    eigs = sorted(draw(st.lists(_eig, min_size=k, max_size=k)), reverse=True)
    eps = draw(st.one_of(st.floats(0.0, exclude_min=True,
                                   allow_infinity=False), _edges,
                         st.integers(-1, 2**1100)))
    return mean, comps, eigs, eps


@given(parts=_pca_parts())
def test_pca_model_reads_back_equal_or_is_refused(parts):
    try:
        model = PcaWhitenModel(*parts)
    except ValueError:
        return
    back = _write_and_read(model, save_pca_model, load_pca_model)
    if back is None:
        return
    for field in ("mean", "components", "eigenvalues", "epsilon"):
        assert np.array_equal(_bits(getattr(back, field)),
                              _bits(getattr(model, field)))


def test_epsilon_beyond_float64_is_refused_as_value_error():
    # an int epsilon passed "< inf", then the writer's float() overflowed
    with pytest.raises(ValueError, match="epsilon"):
        PcaWhitenModel(np.zeros(1), [[1.0]], [1.0], 10**400)
    model = PcaWhitenModel(np.zeros(1), [[1.0]], [1.0], 3)
    back = _write_and_read(model, save_pca_model, load_pca_model)
    assert back.epsilon == model.epsilon == 3.0


_HUGE = 10**400  # a Python int that float64 cannot hold


@pytest.mark.parametrize("make", [
    lambda: FeatureMatrix(("a",), [[_HUGE]]),
    lambda: PcaWhitenModel([_HUGE], [[1.0]], [1.0], 1.0),
    lambda: BinaryModel([_HUGE], 1.0, 0.0, False),
    lambda: BinaryModel([1.0], _HUGE, 0.0, False),
    lambda: BinaryModel([1.0], 1.0, _HUGE, False),
    lambda: SolverConfig(C=_HUGE),
    lambda: SolverConfig(C=1.0, tol=_HUGE),
    lambda: PixelGrid([[_HUGE]]),
], ids=["FeatureMatrix", "PcaWhitenModel", "BinaryModel-w",
        "BinaryModel-C_used", "BinaryModel-objective_value",
        "SolverConfig-C", "SolverConfig-tol", "PixelGrid"])
def test_int_beyond_float64_is_refused_as_value_error(make):
    # each raised OverflowError from a float conversion
    with pytest.raises(ValueError):
        make()


# Model indices as the CLI writes them, and values equal to them that
# are not ints: the constructor decides which keys are valid.
_index_like = st.sampled_from([True, False, 1.0, np.int64(1), np.float64(0.0)])
_c = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
               _edges, st.integers(-1, 2**1100))
_objective = st.one_of(_values, _edges, st.integers(-2**1100, 2**1100))


@st.composite
def _multiclass_parts(draw):
    strategy = draw(st.sampled_from(["ova", "ovo"]))
    k = draw(st.integers(2, 4))
    classes = draw(st.lists(_ids, min_size=k, max_size=k))
    if strategy == "ova":  # skipped classes are missing keys
        keys = draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
    else:
        keys = list(itertools.combinations(range(k), 2))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(keys) - 1))
        odd = draw(_index_like)
        keys[i] = odd if strategy == "ova" else (keys[i][0], odd)
    bias = draw(st.booleans())
    width = draw(st.integers(0, 4))
    weights = st.lists(st.one_of(_values, _edges), min_size=width,
                       max_size=width)
    models = {}
    for key in keys:
        w = draw(st.one_of(weights, weights.map(lambda w: [w])))
        models[key] = (w, draw(_c), draw(_objective),
                       draw(st.sampled_from([bias, not bias])))
    return strategy, tuple(classes), models, bias


@given(parts=_multiclass_parts())
def test_multiclass_model_reads_back_equal_or_is_refused(parts):
    strategy, classes, models, bias = parts
    try:
        model = MulticlassModel(strategy, classes, {
            key: BinaryModel(*args) for key, args in models.items()}, bias)
    except ValueError:
        return
    back = _write_and_read(model, save_model, load_model)
    if back is None:
        return
    assert (back.strategy, back.classes, back.bias) == (
        model.strategy, model.classes, model.bias)
    assert sorted(back.models) == sorted(model.models)
    for key, m in model.models.items():
        b = back.models[key]
        assert b.bias == m.bias
        for field in ("w", "C_used", "objective_value"):
            assert np.array_equal(_bits(getattr(b, field)),
                                  _bits(getattr(m, field)))


@pytest.mark.parametrize("key, strategy", [
    (True, "ova"), (1.0, "ova"), ((0, True), "ovo"), ((0, 1.0), "ovo"),
], ids=["ova-True", "ova-1.0", "ovo-0,True", "ovo-0,1.0"])
def test_model_key_that_is_not_an_int_is_refused(key, strategy):
    # each one equalled a valid key, and its file did not load
    model = BinaryModel([1.0], 1.0, 0.5, False)
    with pytest.raises(ValueError, match="key"):
        MulticlassModel(strategy, ("a", "b"), {key: model}, False)


@pytest.mark.parametrize("w, bias", [
    ([[1.0, 2.0]], False), ([], False), ([[]], False), ([1.0], True),
], ids=["2-D", "empty", "empty-2-D", "bias-only"])
def test_weights_not_one_vector_over_features_are_refused(w, bias):
    # a 2-D vector was written as "[1.0, 2.0]" and an empty one as a
    # truncated line, and neither file loaded; a bias-only model scores
    # rows of no features, which no feature file holds
    with pytest.raises(ValueError, match="weights"):
        BinaryModel(w, 1.0, 0.5, bias)


def test_binary_model_values_stored_as_floats():
    # 2**53 + 1 was written as the float it rounds to
    m = BinaryModel([1.0], 2**53 + 1, 2**53 + 1, False)
    assert m.C_used == m.objective_value == float(2**53 + 1)
    assert type(m.C_used) is type(m.objective_value) is float


# Stored patch values: any finite float32, with signed zeros, subnormals
# and float32's extremes drawn often.
_f32 = np.finfo(np.float32)
_patch_values = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, float(_f32.smallest_subnormal),
                     -float(_f32.smallest_subnormal),
                     float(_f32.smallest_normal), float(_f32.max),
                     -float(_f32.max)]),
)
# Rect fields, with one field sometimes set to 0, 2**32 - 1 or 2**32.
_rect = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
                  st.integers(1, 3))
# Mostly valid ids, so that most drawn indexes reach the writer.
_ref_ids = st.one_of(_ids, st.text(st.characters(
    exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    min_size=1, max_size=5))


@st.composite
def _index_parts(draw):
    mean, comps, eigs, _ = draw(_pca_parts())
    eps = draw(st.one_of(st.floats(0.0, exclude_min=True,
                                   allow_infinity=False),
                         st.sampled_from([1e-10, 5e-324, 3])))
    k = len(eigs)
    h_r = draw(st.integers(1, 2))
    p = patch_count(h_r)
    n = draw(st.integers(2, 3))
    ids = [f"r{i}" if ref_id is None else ref_id for i, ref_id in
           enumerate(draw(st.lists(st.one_of(st.none(), _ref_ids),
                                   min_size=n, max_size=n)))]
    vectors = draw(st.lists(_patch_values, min_size=n * p * k,
                            max_size=n * p * k))
    rects = []
    for _ in range(n):
        fields = [list(r) for r in draw(st.lists(_rect, min_size=p,
                                                 max_size=p))]
        if draw(st.booleans()):
            fields[draw(st.integers(0, p - 1))][draw(st.integers(0, 3))] = (
                draw(st.sampled_from([0, 2**32 - 1, 2**32])))
        rects.append(draw(st.sampled_from([(), fields])))
    config = (h_r, draw(st.integers(1, 3)), draw(st.integers(k, k + 1)),
              draw(st.one_of(st.floats(0.0, exclude_min=True,
                                       allow_infinity=False),
                             st.integers(1, 3), st.integers(2**53, 2**60))),
              draw(st.sampled_from([eps, eps, 1e-10])))
    return (ids, rects, np.array(vectors, np.float32).reshape(n, p, k),
            (mean, comps, eigs, eps), config)


def _ranking(index):
    """search over a seeded query, as (id, distance bits) pairs."""
    h_q, d = index.config.h_q, index.model.dim_in
    raw = np.random.default_rng(3).normal(size=(patch_count(h_q), d))
    with np.errstate(all="ignore"):
        ranked = search(index, raw, top_k=len(index.ids))
    return [(ref_id, _bits(dist).item()) for ref_id, dist in ranked]


@given(parts=_index_parts())
def test_retrieval_index_reads_back_equal_or_is_refused(parts):
    ids, rects, vectors, chain, config = parts
    try:
        index = RetrievalIndex(
            ids, [tuple(Rect(*r) for r in ref) for ref in rects], vectors,
            PcaWhitenModel(*chain), SpatialSearchConfig(*config))
    except ValueError:
        return
    back = _write_and_read(index, save_index, load_index)
    if back is None:
        return
    assert (back.ids, back.rects, back.config) == (
        index.ids, index.rects, index.config)
    assert np.array_equal(back.vectors.view(np.int32),
                          index.vectors.view(np.int32))
    for field in ("mean", "components", "eigenvalues", "epsilon"):
        assert np.array_equal(_bits(getattr(back.model, field)),
                              _bits(getattr(index.model, field)))
    assert _ranking(back) == _ranking(index)


def test_config_values_stored_as_floats():
    # a power of 2**53 + 1 was written as the float it rounds to, so the
    # index read back with another config
    config = SpatialSearchConfig(power=2**53 + 1, epsilon=3)
    assert config.power == float(2**53 + 1) and config.epsilon == 3.0
    assert type(config.power) is type(config.epsilon) is float
