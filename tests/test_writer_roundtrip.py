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


def _write_and_read(matrix, fmt):
    """``matrix`` read back after ``save_features``, or None when the
    writer refused it with ValueError without opening the file.  Any
    warning is an error."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "features"
        try:
            save_features(matrix, path, fmt)
        except ValueError:
            assert not path.exists()
            return None
        return load_features(path, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
@given(parts=_feature_parts())
def test_feature_matrix_reads_back_equal_or_is_refused(fmt, parts):
    try:
        matrix = FeatureMatrix(*parts)
    except ValueError:
        return
    back = _write_and_read(matrix, fmt)
    if back is None:
        return
    expected = matrix.values
    if fmt == "binary":
        expected = expected.astype(np.float32).astype(np.float64)
    assert back.ids == matrix.ids
    assert back.values.shape == expected.shape
    assert np.array_equal(_bits(back.values), _bits(expected))


def test_empty_matrix_is_refused_as_value_error():
    assert _write_and_read(FeatureMatrix((), np.zeros((0, 3))), "tsv") is None


@pytest.mark.parametrize("fid", ["\ud800", "a\udfffb"])
def test_id_that_utf8_cannot_encode_is_refused(fid):
    with pytest.raises(ValueError, match="lone surrogate"):
        FeatureMatrix((fid,), [[1.0]])
