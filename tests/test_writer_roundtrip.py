"""Writers write only what their readers read back equal.

For each format, every object its constructor accepts is either written
and read back equal, or refused by the writer with ``ValueError`` before
the file is opened.  No writer raises anything else, and none warns.
The properties run under the suite's derandomized profile.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from featkit.features import FeatureMatrix, load_features, save_features
from featkit.preprocess import PcaWhitenModel, load_pca_model, save_pca_model

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
