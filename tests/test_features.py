import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from featkit import features
from featkit.errors import EmptyInput, MalformedFile, RegionOutOfBounds
from featkit.features import (
    FeatureMatrix,
    PixelGrid,
    Rect,
    fmt_float,
    fmt_row,
    load_features,
    load_labels,
    load_pgm,
    save_features,
    single_labels,
    smallest_enclosing_square,
)
from oracles import smallest_square_oracle, tsv_features_oracle
from writers import save_labels, save_pgm

# Values float() reads and numpy does not, text neither reads (the empty
# field included), and numbers padded with ASCII separators numpy strips
# but float() rejects.
_ODD_TOKENS = ["1_000", "\uff11", "\u0663.5", " 2.5", "2.5\xa0", "", " ",
               "x", "1e", "0x1p3", "nan", "-inf", "1e400", "\x1c1", "1\x1f"]


@st.composite
def _tsv_feature_text(draw):
    """A feature file mixing good rows with blank, id-only, ragged,
    duplicate-id and odd-valued lines, with ``\\n`` or ``\\r\\n`` ends."""
    dim = draw(st.integers(1, 4))
    decimal = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(
            ["row"] * 6 + ["blank", "id-only", "ragged", "dup", "odd"]
        ))
        width = dim
        if kind == "ragged":
            width = draw(st.sampled_from([dim - 1, dim + 1]) if dim > 1
                         else st.just(2))
        tokens = [draw(decimal) for _ in range(width)]
        if kind == "odd":
            tokens[draw(st.integers(0, dim - 1))] = draw(
                st.sampled_from(_ODD_TOKENS))
        fid = "r0" if kind == "dup" else f"r{i}"
        line = {"blank": "", "id-only": fid}.get(
            kind, "\t".join([fid] + tokens))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines)


def _float_reader(path):
    """The ids and value bytes the ``float()`` reader gives, or its error."""
    try:
        ids, rows = tsv_features_oracle(path)
        m = FeatureMatrix(ids, rows)
    except MalformedFile as exc:
        return str(exc)
    except ValueError as exc:
        return f"{path}: {exc}"
    return m.ids, m.values.tobytes()


class TestFeatureMatrix:
    def test_basic_shape(self):
        m = FeatureMatrix(("a", "b"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert m.n == 2 and m.dim == 3
        assert m.values[m.ids.index("b")][0] == 4.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureMatrix(("a", "a"), [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(("a",), [[np.nan]])

    @pytest.mark.parametrize("shape", [(5, 3), (2**18 + 5, 4),
                                       (3, 2**19 + 1)])
    def test_first_nonfinite_row_matches_whole_mask(self, shape):
        # the last two shapes span two and three blocks of rows
        a = np.zeros(shape)
        assert features.first_nonfinite_row(a) is None
        for row, bad in [(shape[0] - 1, np.inf), (shape[0] // 2, -np.inf),
                         (1, np.nan)]:
            a[row, -1] = bad
            whole = np.flatnonzero(~np.isfinite(a).all(axis=1))[0]
            assert features.first_nonfinite_row(a) == whole

    def test_tab_in_id_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a\tb",), [[1.0]])

    def test_id_count_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), [[1.0], [2.0]])


class TestTsvFormat:
    def test_parse_two_rows(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\t2.0\t3.0\nb\t4.0\t5.0\t6.0\n")
        m = load_features(p, "tsv")
        assert m.n == 2 and m.dim == 3
        assert np.array_equal(m.values[1], [4.0, 5.0, 6.0])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\t2.0\nb\t4.0\n")
        with pytest.raises(MalformedFile, match="ragged"):
            load_features(p, "tsv")

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\na\t2.0\n")
        with pytest.raises(MalformedFile):
            load_features(p, "tsv")

    def test_bad_float_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\tnot_a_number\n")
        with pytest.raises(MalformedFile):
            load_features(p, "tsv")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("")
        with pytest.raises(MalformedFile, match="empty"):
            load_features(p, "tsv")

    def test_roundtrip_exact(self, tmp_path, random_matrix):
        m = random_matrix(n=6, d=4, float32=False)
        p = tmp_path / "f.tsv"
        save_features(m, p, "tsv")
        back = load_features(p, "tsv")
        assert back.ids == m.ids
        assert np.abs(back.values - m.values).max() <= 1e-6
        # repr-based text keeps full precision, so it is in fact exact
        assert np.array_equal(back.values, m.values)

    @given(_tsv_feature_text())
    def test_reads_as_float_reader(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "property.tsv"
        p.write_text(text, encoding="utf-8", newline="")
        want = _float_reader(p)
        try:
            m = load_features(p, "tsv")
        except MalformedFile as exc:
            assert str(exc) == want
        else:
            assert (m.ids, m.values.tobytes()) == want

    @pytest.mark.parametrize("text, value", [
        ("a\t1_000\n", 1000.0),
        ("a\t\uff11\n", 1.0),
        ("a\t 2.5\xa0\r\n", 2.5),
    ])
    def test_float_only_spellings_load(self, tmp_path, text, value):
        p = tmp_path / "f.tsv"
        p.write_text(text, encoding="utf-8", newline="")
        assert load_features(p, "tsv").values.tolist() == [[value]]

    # numpy skips an empty row and strips \x1c-\x1f; float() rejects both
    @pytest.mark.parametrize("token", ["", "1\x1c", "\x1d1", "1\x1e", "\x1f1"])
    def test_text_numpy_reads_differently_rejected(self, tmp_path, token):
        p = tmp_path / "f.tsv"
        p.write_text(f"a\t0.5\nb\t{token}\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match=f"{p}:2: could not convert"):
            load_features(p, "tsv")

    def test_bad_row_before_id_only_line_named(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\nb\tx\nc\n")
        with pytest.raises(MalformedFile, match=f"{p}:2: could not convert"):
            load_features(p, "tsv")

    def test_well_formed_file_takes_one_call_path(
        self, tmp_path, monkeypatch, random_matrix
    ):
        def fail(*args):
            raise AssertionError("float() fallback taken")

        m = random_matrix(n=40, d=7, float32=False)
        p = tmp_path / "f.tsv"
        save_features(m, p, "tsv")
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n\n"))
        monkeypatch.setattr(features, "_float_rows", fail)
        back = load_features(p, "tsv")
        assert back.ids == m.ids
        assert back.values.tobytes() == m.values.tobytes()

    def test_fmt_row_is_fmt_float_per_value(self):
        values = [0.1, -0.0, 5e-324, 1e300, 1 / 3, 2.0]
        want = "\t".join(fmt_float(v) for v in values)
        assert fmt_row(values) == want
        assert fmt_row(np.asarray(values)) == want
        f32 = np.asarray([0.1, -0.0, 1.1, 3e38], dtype=np.float32)
        assert fmt_row(f32) == "\t".join(fmt_float(v) for v in f32)


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path, random_matrix):
        m = random_matrix(n=5, d=8)
        p = tmp_path / "f.fvec"
        save_features(m, p, "binary")
        back = load_features(p, "binary")
        assert back.ids == m.ids
        assert np.array_equal(back.values, m.values)

    def test_file_bytes_stable(self, tmp_path, random_matrix):
        m = random_matrix(n=4, d=3)
        p1, p2 = tmp_path / "a.fvec", tmp_path / "b.fvec"
        save_features(m, p1, "binary")
        save_features(load_features(p1, "binary"), p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_rows_rejected(self, tmp_path):
        import struct

        p = tmp_path / "f.fvec"
        p.write_bytes(b"FVEC1\n" + struct.pack("<II", 0, 3))
        with pytest.raises(MalformedFile, match="empty"):
            load_features(p, "binary")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "f.fvec"
        p.write_bytes(b"NOPE!\n\x00\x00\x00\x00")
        with pytest.raises(MalformedFile, match="magic"):
            load_features(p, "binary")

    def test_truncated_payload_rejected(self, tmp_path, random_matrix):
        p = tmp_path / "f.fvec"
        save_features(random_matrix(), p, "binary")
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(MalformedFile):
            load_features(p, "binary")

    def test_empty_matrix_refused_on_save(self, tmp_path):
        m = FeatureMatrix((), np.zeros((0, 3)))
        with pytest.raises(EmptyInput):
            save_features(m, tmp_path / "f.fvec", "binary")

    def test_beyond_float32_refused_before_writing(self, tmp_path):
        f32_max = float(np.finfo(np.float32).max)
        m = FeatureMatrix(("a", "b", "c"),
                          [[f32_max, 1.0], [-1e39, 0.0], [1e300, 1.0]])
        p = tmp_path / "f.fvec"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row 'b'"):
                save_features(m, p, "binary")
            assert not p.exists()
            save_features(FeatureMatrix(("a",), m.values[:1]), p, "binary")
        assert np.array_equal(load_features(p, "binary").values,
                              m.values[:1])


class TestLabels:
    def test_multilabel_accumulates(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\tcat\na\tdog\nb\tcat\n")
        labels = load_labels(p)
        assert labels == {"a": {"cat", "dog"}, "b": {"cat"}}

    def test_single_labels_guard(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\tcat\na\tdog\n")
        with pytest.raises(ValueError, match="2 labels"):
            single_labels(load_labels(p))

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "l.tsv"
        save_labels({"a": {"y", "x"}, "b": "z"}, p)
        assert load_labels(p) == {"a": {"x", "y"}, "b": {"z"}}


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        grid = PixelGrid(rng.random((7, 9)))
        p = tmp_path / "img.pgm"
        save_pgm(grid, p)
        back = load_pgm(p)
        assert back.width == 9 and back.height == 7
        assert np.abs(back.intensities - grid.intensities).max() <= 0.5 / 255

    def test_ascii_variant(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_text("P2\n# comment\n2 2\n255\n0 255\n128 64\n")
        g = load_pgm(p)
        assert g.intensities[0, 1] == 1.0
        assert g.intensities[1, 0] == pytest.approx(128 / 255)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n4 4\n255\nXX")
        with pytest.raises(MalformedFile):
            load_pgm(p)


class TestSmallestSquare:
    def test_hand_case(self):
        # 10x20 region inside 100x100: the square is 20x20 and contains it
        sq = smallest_enclosing_square(Rect(40, 30, 10, 20), 100, 100)
        assert (sq.w, sq.h) == (20, 20)
        assert sq.x <= 40 and sq.x + 20 >= 50
        assert sq.y <= 30 and sq.y + 20 >= 50

    def test_out_of_bounds_rect(self):
        with pytest.raises(RegionOutOfBounds):
            smallest_enclosing_square(Rect(95, 0, 10, 5), 100, 100)

    @given(
        st.integers(4, 24),
        st.integers(4, 24),
        st.data(),
    )
    def test_matches_bruteforce(self, width, height, data):
        x = data.draw(st.integers(0, width - 1))
        y = data.draw(st.integers(0, height - 1))
        w = data.draw(st.integers(1, width - x))
        h = data.draw(st.integers(1, height - y))
        rect = Rect(x, y, w, h)
        sq = smallest_enclosing_square(rect, width, height)
        assert sq.w == sq.h
        assert sq.within(width, height)
        oracle_side = smallest_square_oracle(rect, width, height)
        if oracle_side is not None:
            # minimal: same side as the brute-force optimum, and contains
            assert sq.w == oracle_side
            assert sq.x <= rect.x and sq.y <= rect.y
            assert rect.x + rect.w <= sq.x + sq.w
            assert rect.y + rect.h <= sq.y + sq.h
        else:
            # containment impossible: shrunk to the image's short side
            assert sq.w == min(width, height)


def _write_otidx1(path, token):
    """The OTIDX1 fixture with ``token`` as the first value of its chain's
    line 4, the first component row."""
    blob = (Path(__file__).parent / "data" / "otidx1_small.idx").read_bytes()
    off = blob.index(b"\n", len(b"OTIDX1\n")) + 1
    (mlen,) = struct.unpack_from("<I", blob, off)
    lines = blob[off + 4 : off + 4 + mlen].decode().split("\n")
    lines[3] = "\t".join([token] + lines[3].split("\t")[1:])
    text = "\n".join(lines).encode()
    path.write_bytes(blob[:off] + struct.pack("<I", len(text)) + text
                     + blob[off + 4 + mlen:])


def _number_formats():
    """Per text format: (writer of a file holding a token at a known line,
    that line, reader of the token's value).  Every format needs finite
    values."""
    from featkit.cli import _read_scores
    from featkit.preprocess import load_pca_model
    from featkit.retrieval import load_index
    from featkit.svm import load_model

    def text(fmt):
        return lambda path, token: path.write_text(fmt.format(token),
                                                   encoding="utf-8")

    return {
        "tsv-feature": (text("a\t0.5\t{}\nb\t0.5\t0.25\n"), 1,
                        lambda p: load_features(p).values[0, 1]),
        "otsvm1-weight": (
            text("OTSVM1\nova\t2\t0\nx\ny\n0\t1.0\t0.5\t{}\t0.25\n"), 5,
            lambda p: load_model(p).models[0].w[0]),
        "pcaw1-component": (
            text("PCAW1\n1\t2\t1e-10\n0.5\t0.25\n{}\t0.25\n2.0\n"), 4,
            lambda p: load_pca_model(p).components[0, 0]),
        "otidx1-component": (_write_otidx1, 4,
                             lambda p: load_index(p).model.components[0, 0]),
        "score-cell": (text("id\tx\ty\na\t{}\t0.25\n"), 2,
                       lambda p: _read_scores(p)[2][0, 0]),
    }


@pytest.mark.parametrize("fmt", ["tsv-feature", "otsvm1-weight",
                                 "pcaw1-component", "otidx1-component",
                                 "score-cell"])
@pytest.mark.parametrize("token", _ODD_TOKENS)
def test_every_text_format_reads_numbers_as_float_does(tmp_path, fmt, token):
    write, lineno, read = _number_formats()[fmt]
    path = tmp_path / "numbers"
    write(path, token)
    try:
        want = float(token)
    except ValueError:
        with pytest.raises(MalformedFile) as err:
            read(path)
        assert str(err.value).startswith(f"{path}:{lineno}: ")
        return
    if not np.isfinite(want):
        with pytest.raises(MalformedFile, match="finite") as err:
            read(path)
        assert str(err.value).startswith(f"{path}")
        return
    got = read(path)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
