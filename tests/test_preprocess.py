import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    blocked_chain_oracle,
    fixed_decimal_rows_oracle,
    stacked_chain_oracle,
)

from featkit.errors import (
    ClampedDimensionWarning,
    DimMismatch,
    MalformedFile,
    RankDeficientWarning,
)
from featkit.preprocess import (
    COMPONENT_DECIMALS,
    PcaWhitenModel,
    _unit_rows,
    dump_pca_model_text,
    l2_normalize,
    load_pca_model,
    parse_pca_model_text,
    pca_fit,
    pca_whiten_apply,
    retrieval_pipeline_apply,
    retrieval_pipeline_fit,
    save_pca_model,
    signed_power,
)
from featkit.retrieval import SpatialSearchConfig

DATA = Path(__file__).parent / "data"

# well-scaled components: zero or magnitude in [1e-6, 1e6]; squaring and
# norm division stay far from float underflow
_component = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1e6).map(lambda x: x),
    st.floats(1e-6, 1e6).map(lambda x: -x),
)
finite_vectors = st.lists(_component, min_size=1, max_size=12)


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_zero_vector_unchanged(self):
        assert np.array_equal(l2_normalize([0.0, 0.0]), [0.0, 0.0])

    @given(finite_vectors)
    def test_unit_norm(self, vec):
        out = l2_normalize(vec)
        if np.linalg.norm(vec) > 0:
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    @given(finite_vectors)
    def test_idempotent(self, vec):
        once = l2_normalize(vec)
        twice = l2_normalize(once)
        assert np.abs(twice - once).max() <= 1e-12


class TestSignedPower:
    def test_square_keeps_sign(self):
        assert np.array_equal(signed_power([-2.0, 3.0], 2.0), [-4.0, 9.0])

    def test_identity_power(self, rng):
        v = rng.normal(size=9)
        assert np.allclose(signed_power(v, 1.0), v)

    def test_fixed_points(self):
        assert np.array_equal(
            signed_power([0.0, -1.0, 1.0], 2.0), [0.0, -1.0, 1.0]
        )

    @pytest.mark.parametrize("p", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_power_not_positive_and_finite(self, p):
        with pytest.raises(ValueError, match="finite"):
            signed_power([0.5, -0.5], p)

    @given(finite_vectors)
    def test_sign_and_zero_pattern_preserved(self, vec):
        out = signed_power(vec, 2.0)
        assert np.array_equal(np.sign(out), np.sign(vec))


class TestPcaFit:
    def test_axis_aligned_line(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0], [4.0, 0.0]])
        model = pca_fit(x, 1, 1e-10)
        assert np.allclose(model.components[0], [1.0, 0.0])
        assert model.eigenvalues[0] == pytest.approx(np.var(x[:, 0]))

    def test_constructed_diag_covariance(self):
        # population covariance exactly diag(4, 1)
        x = np.array([[2.0, 1.0], [2.0, -1.0], [-2.0, 1.0], [-2.0, -1.0]])
        model = pca_fit(x, 2, 1e-10)
        cov = x.T @ x / 4
        direct = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.allclose(model.eigenvalues, direct)
        assert np.allclose(model.eigenvalues, [4.0, 1.0])

    def test_components_orthonormal(self, rng):
        x = rng.normal(size=(40, 12))
        model = pca_fit(x, 8, 1e-10)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_components_on_grid(self, rng):
        model = pca_fit(rng.normal(size=(40, 12)) * 100.0, 8, 1e-10)
        comps = model.components
        assert np.array_equal(comps, np.round(comps, COMPONENT_DECIMALS))
        assert np.abs(comps).max() <= 1.0

    def test_sign_convention_deterministic(self, rng):
        x = rng.normal(size=(30, 6))
        m1, m2 = pca_fit(x, 4, 1e-10), pca_fit(x.copy(), 4, 1e-10)
        assert np.array_equal(m1.components, m2.components)
        for row in m1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_out_of_range(self, rng):
        x = rng.normal(size=(5, 3))
        with pytest.raises(ValueError):
            pca_fit(x, 4, 1e-10)
        with pytest.raises(ValueError, match="k must be at least 1"):
            pca_fit(x, 0, 1e-10)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_k_is_a_whole_number(self, rng, k):
        with pytest.raises(ValueError, match="k: .* is not an integer"):
            pca_fit(rng.normal(size=(5, 3)), k, 1e-10)

    def test_rank_deficient_warns_and_truncates(self):
        base = np.array([[1.0, 2.0, 0.5]])
        x = np.outer([1.0, 2.0, 3.0, -1.0], base[0])  # rank-1 data
        with pytest.warns(RankDeficientWarning):
            model = pca_fit(x, 3, 1e-10)
        assert model.k == 1


class TestWhitening:
    def test_mean_maps_to_zero(self, rng):
        x = rng.normal(size=(20, 5))
        model = pca_fit(x, 3, 1e-10)
        out = pca_whiten_apply(model, x.mean(axis=0))
        assert np.abs(out).max() <= 1e-9

    def test_one_dim_scaling(self):
        model = PcaWhitenModel(
            mean=np.zeros(2),
            components=np.array([[1.0, 0.0]]),
            eigenvalues=np.array([4.0]),
            epsilon=1e-300,
        )
        assert pca_whiten_apply(model, [2.0, 9.9])[0] == pytest.approx(1.0)

    def test_fit_set_covariance_is_identity(self, rng):
        x = rng.normal(size=(200, 50))
        model = pca_fit(x, 20, 1e-10)
        z = np.stack([pca_whiten_apply(model, row) for row in x])
        assert np.abs(z.mean(axis=0)).max() <= 1e-8
        cov = z.T @ z / z.shape[0]
        assert np.abs(cov - np.eye(20)).max() <= 1e-6

    def test_dim_mismatch(self, rng):
        model = pca_fit(rng.normal(size=(10, 4)), 2, 1e-10)
        with pytest.raises(DimMismatch):
            pca_whiten_apply(model, np.zeros(5))

    def test_rows_match_per_vector(self, rng):
        x = rng.normal(size=(30, 9))
        model = pca_fit(x, 5, 1e-10)
        batch = pca_whiten_apply(model, x)
        per_row = np.stack([pca_whiten_apply(model, row) for row in x])
        assert np.abs(batch - per_row).max() <= 1e-12


class TestRetrievalPipeline:
    def test_clamps_with_warning(self, rng):
        x = rng.normal(size=(3, 4))
        with pytest.warns(ClampedDimensionWarning):
            model = retrieval_pipeline_fit(x, 500, 1e-10)
        assert model.k == 2

    def test_unit_rows_equal_plain_fit(self, rng):
        # renormalizing unit rows moves them by at most one ulp, so the
        # two fits agree to eigensolver precision
        x = rng.normal(size=(12, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        a = retrieval_pipeline_fit(x, 4, 1e-10)
        b = pca_fit(x, 4, 1e-10)
        assert np.abs(a.components - b.components).max() <= 1e-9
        assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-12

    def test_fit_mean_is_mean_of_unit_rows(self, rng):
        # the basis is fitted on the rows the chain applies to
        x = rng.normal(size=(200, 64))
        model = retrieval_pipeline_fit(x, 8, 1e-10)
        assert np.array_equal(model.mean, _unit_rows(x).mean(axis=0))

    def test_scale_invariance_exact_on_pythagorean_input(self, rng):
        # [3, 4] has norm 5 and 7 * [3, 4] has norm 35, all exact in
        # binary floating point, so the leading normalization maps both
        # inputs to identical bits and the rest of the chain is shared
        x = rng.normal(size=(15, 6))
        model = retrieval_pipeline_fit(x, 4, 1e-10)
        v = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        a = retrieval_pipeline_apply(model, 2.0, v)
        b = retrieval_pipeline_apply(model, 2.0, 7.0 * v)
        assert np.array_equal(a, b)

    def test_scale_invariance_random(self, rng):
        x = rng.normal(size=(15, 6))
        model = retrieval_pipeline_fit(x, 4, 1e-10)
        for scale in (7.0, 0.001, 3e5):
            v = rng.normal(size=6)
            a = retrieval_pipeline_apply(model, 2.0, v)
            b = retrieval_pipeline_apply(model, 2.0, scale * v)
            assert np.abs(a - b).max() <= 1e-12

    def test_intermediate_is_unit_before_power(self, rng):
        x = rng.normal(size=(15, 6))
        model = retrieval_pipeline_fit(x, 4, 1e-10)
        for _ in range(10):
            v = rng.normal(size=6)
            out = retrieval_pipeline_apply(model, 2.0, v)
            # undo the signed square: |out|**0.5 recovers the unit vector
            pre = np.sign(out) * np.sqrt(np.abs(out))
            assert abs(np.linalg.norm(pre) - 1.0) <= 1e-12

    def test_rows_equal_per_vector_chain(self, rng):
        # each row is processed by its own matrix-vector products, so the
        # batch agrees with the one-vector chain bit for bit
        x = rng.normal(size=(40, 24))
        model = retrieval_pipeline_fit(x, 10, 1e-10)
        batch_in = rng.normal(size=(25, 24)) * rng.choice(
            [1e-4, 1.0, 1e4], size=(25, 1)
        )
        batch_in[7] = 0.0
        batch = retrieval_pipeline_apply(model, 2.0, batch_in)
        assert batch.shape == (25, 10)
        per_row = np.stack(
            [retrieval_pipeline_apply(model, 2.0, row) for row in batch_in]
        )
        assert np.abs(batch - per_row).max() <= 1e-12
        assert np.array_equal(batch, per_row)
        head = retrieval_pipeline_apply(model, 2.0, batch_in[:3])
        assert np.array_equal(head, batch[:3])

    @pytest.mark.parametrize("d", [12, 64, 768])
    def test_rows_equal_stacked_per_row_chain(self, d):
        # each row is a block of one; its bits must be those of the
        # stacked per-row matrix-vector product
        rng = np.random.default_rng(d)
        model = retrieval_pipeline_fit(rng.normal(size=(2 * d, d)),
                                       min(d - 1, 500), 1e-10)
        x = rng.normal(size=(9, d))
        x[2] = 0.0
        x[3:6] *= 1e-4
        x[6:] *= 1e4
        assert np.array_equal(retrieval_pipeline_apply(model, 2.0, x),
                              stacked_chain_oracle(model, 2.0, x))

    def test_rows_dim_mismatch(self, rng):
        model = retrieval_pipeline_fit(rng.normal(size=(10, 4)), 2, 1e-10)
        with pytest.raises(DimMismatch):
            retrieval_pipeline_apply(model, 2.0, np.zeros((3, 5)))
        with pytest.raises(DimMismatch):
            retrieval_pipeline_apply(model, 2.0, np.zeros((2, 3, 5)))
        with pytest.raises(DimMismatch):
            retrieval_pipeline_apply(model, 2.0, np.zeros((2, 2, 3, 4)))

    def test_k1_output_is_signed_unit(self, rng):
        x = rng.normal(size=(10, 3))
        model = retrieval_pipeline_fit(x, 1, 1e-10)
        vals = {
            float(retrieval_pipeline_apply(model, 2.0, rng.normal(size=3))[0])
            for _ in range(20)
        }
        assert vals <= {-1.0, 0.0, 1.0}


class TestBlockedChain:
    """An (N, P, d) stack: one product per block of P rows.

    A row's float64 bits depend on its position in its block and on the
    block shape, never on the other rows of the block.
    """

    P = 30

    @pytest.fixture(scope="class")
    def chain(self):
        rng = np.random.default_rng(77)
        model = retrieval_pipeline_fit(rng.normal(size=(400, 768)), 200,
                                       1e-10)
        x = rng.normal(size=(4, self.P, 768))
        return model, x, retrieval_pipeline_apply(model, 2.0, x)

    @pytest.mark.parametrize("d", [12, 64, 768])
    @pytest.mark.parametrize("p", [5, 30])
    def test_stack_equals_blocked_oracle(self, d, p):
        # the apply works through whole blocks of about 2**20 values at a
        # time; two blocks more than that cross a chunk boundary
        rng = np.random.default_rng(d + p)
        model = retrieval_pipeline_fit(rng.normal(size=(2 * d, d)),
                                       min(d - 1, 500), 1e-10)
        x = rng.normal(size=((1 << 20) // (p * d) + 2, p, d))
        x[0, 2] = 0.0
        x[1] *= 1e-4
        x[-1] *= 1e4
        out = retrieval_pipeline_apply(model, 2.0, x)
        assert out.shape == (*x.shape[:2], model.k)
        assert np.array_equal(out, blocked_chain_oracle(model, 2.0, x))

    def test_same_position_same_bits(self, chain):
        model, x, out = chain
        rng = np.random.default_rng(78)
        block = x[1].copy()
        block[14:] = rng.normal(size=(self.P - 14, x.shape[2]))
        again = retrieval_pipeline_apply(model, 2.0, block[None])
        assert np.array_equal(again[0, :14], out[1, :14])

    def test_zero_padded_block_gives_real_rows_full_block_bits(self, chain):
        model, x, out = chain
        for m in (1, 14, 29):
            padded = np.zeros((1, self.P, x.shape[2]))
            padded[0, :m] = x[2, :m]
            again = retrieval_pipeline_apply(model, 2.0, padded)
            assert np.array_equal(again[0, :m], out[2, :m])

    def test_close_to_per_row_chain(self, chain):
        model, x, out = chain
        per_row = retrieval_pipeline_apply(model, 2.0, x.reshape(-1, 768))
        assert np.abs(out.reshape(per_row.shape) - per_row).max() <= 1e-12


class TestPcawPersistence:
    def test_roundtrip_exact(self, tmp_path, rng):
        model = pca_fit(rng.normal(size=(30, 7)), 4, 1e-10)
        p = tmp_path / "m.pcaw"
        save_pca_model(model, p)
        back = load_pca_model(p)
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        assert back.epsilon == model.epsilon

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.pcaw"
        p.write_text("WRONG\n1\t2\t0.1\n")
        with pytest.raises(MalformedFile):
            load_pca_model(p)

    def test_truncated(self, tmp_path, rng):
        model = pca_fit(rng.normal(size=(10, 5)), 3, 1e-10)
        p = tmp_path / "m.pcaw"
        save_pca_model(model, p)
        lines = p.read_text().splitlines()[:-2]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile):
            load_pca_model(p)


def _edge_model():
    """A model whose values need every digit and sign of their text."""
    mean = np.array([-0.0, 2.5e-310, 5e-324, 1e16, 1e-5])
    comps = np.array([
        [1e-5, -0.0, 1e16, 5e-324, -2.5e-310],
        [0.1, -1.0 / 3.0, 2.0 ** -1074, -1e16, 1.7976931348623157e308],
    ])
    return PcaWhitenModel(mean, comps, np.array([1e16, 5e-324]), 1e-5)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestPcawParser:
    def test_bit_exact_round_trip(self):
        model = _edge_model()
        back = parse_pca_model_text(dump_pca_model_text(model))
        for name in ("mean", "components", "eigenvalues"):
            assert np.array_equal(_bits(getattr(back, name)),
                                  _bits(getattr(model, name)))
        assert back.epsilon == model.epsilon

    @pytest.mark.parametrize("row", [2, 4, 5], ids=["mean", "component",
                                                      "eigenvalues"])
    @pytest.mark.parametrize("edit", [
        lambda cells: ["#"],
        lambda cells: ["#"] + cells,
        lambda cells: [""],
        lambda cells: cells[:-1],
        lambda cells: cells + ["1.0"],
        lambda cells: cells[:1] + ["abc"] + cells[2:],
        lambda cells: cells[:1] + [""] + cells[2:],
        lambda cells: ["nan"] + cells[1:],
        lambda cells: cells[:1] + ["-inf"] + cells[2:],
    ], ids=["hash", "hash-prefix", "empty-line", "short", "long",
            "non-numeric", "empty-cell", "nan", "inf"])
    def test_malformed_rows(self, row, edit):
        lines = dump_pca_model_text(_edge_model()).split("\n")
        lines[row] = "\t".join(edit(lines[row].split("\t")))
        with pytest.raises(MalformedFile):
            parse_pca_model_text("\n".join(lines))

    @pytest.mark.parametrize("edit", [
        lambda text: text + "garbage\n",
        lambda text: text + "garbage",
        lambda text: text + text.split("\n")[-2] + "\n",
        lambda text: text + "\n",
        lambda text: text + "\n\n",
        lambda text: text[:-1],
    ], ids=["line", "no-newline", "extra-row", "blank-line", "blank-lines",
            "missing-newline"])
    def test_text_ends_after_eigenvalue_row(self, edit):
        text = edit(dump_pca_model_text(_edge_model()))
        with pytest.raises(MalformedFile, match="end the model"):
            parse_pca_model_text(text)

    def test_empty_line_inside_block(self):
        lines = dump_pca_model_text(_edge_model()).split("\n")
        lines.insert(3, "")
        with pytest.raises(MalformedFile):
            parse_pca_model_text("\n".join(lines))

    @pytest.mark.parametrize("size_line", ["0\t5\t1e-05", "-1\t5\t1e-05",
                                           "2\t0\t1e-05", "2\t5",
                                           "2\t5\tnan", "2\t5\tinf"])
    def test_bad_size_line(self, size_line):
        lines = dump_pca_model_text(_edge_model()).split("\n")
        lines[1] = size_line
        with pytest.raises(MalformedFile):
            parse_pca_model_text("\n".join(lines))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mean", "components", "eigenvalues",
                                       "epsilon"])
    def test_model(self, field, bad):
        parts = dict(mean=np.zeros(3), components=np.eye(3)[:2],
                     eigenvalues=np.array([2.0, 1.0]), epsilon=1e-10)
        if field == "epsilon":
            parts[field] = bad
        else:
            parts[field] = parts[field].copy()
            parts[field].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            PcaWhitenModel(**parts)

    @pytest.mark.parametrize("bad", [
        np.nan, np.inf, pytest.param(10**400, id="int-beyond-float64"),
    ])
    @pytest.mark.parametrize("field", ["power", "epsilon"])
    def test_config(self, field, bad):
        # the config rejects the value, and so does the chain step that
        # reads it, before it looks at its input: a 1-D fit input and a
        # wrong-width apply input would raise other errors
        with pytest.raises(ValueError, match="finite"):
            SpatialSearchConfig(**{field: bad})
        with pytest.raises(ValueError, match="finite"):
            if field == "epsilon":
                retrieval_pipeline_fit(np.zeros(3), 2, bad)
            else:
                retrieval_pipeline_apply(_edge_model(), bad, np.zeros((2, 9)))

    @pytest.mark.parametrize("field, value", [
        ("pca_dim", 2.5), ("pca_dim", 8.5), ("pca_dim", True),
        ("h_q", 1.5), ("h_r", True),
    ])
    def test_levels_and_dims_are_whole_numbers(self, field, value, rng):
        # OTIDX1's config line holds integers, so a config that is not
        # whole would save an index that load_index refuses
        with pytest.raises(ValueError, match=f"{field}.*not an integer"):
            SpatialSearchConfig(**{field: value})
        if field == "pca_dim":
            with pytest.raises(ValueError, match="pca_dim.*not an integer"):
                retrieval_pipeline_fit(rng.normal(size=(20, 12)), value,
                                       1e-10)

    @pytest.mark.parametrize("pca_dim", [0, -1])
    def test_pca_dim_below_one(self, pca_dim):
        with pytest.raises(ValueError, match="pca_dim"):
            SpatialSearchConfig(pca_dim=pca_dim)
        with pytest.raises(ValueError, match="pca_dim"):
            retrieval_pipeline_fit(np.zeros(3), pca_dim, 1e-10)


# multiples of 1e-15 in [-1, 1]: the grid of fitted components
_grid_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-15, -1e-15]),
    st.integers(-10**15, 10**15).map(lambda m: m / 1e15),
)
_FIXED = re.compile(r"-?[01]\.\d{15}")
# k x d grid matrices with 1 <= k <= 4 and k <= d <= 9
_grid_matrix = st.integers(1, 9).flatmap(lambda d: st.integers(
    1, min(4, d)).flatmap(lambda k: st.lists(
        st.lists(_grid_value, min_size=d, max_size=d),
        min_size=k, max_size=k)))


def _component_cells(text: str, k: int) -> list:
    return [c for ln in text.split("\n")[3 : 3 + k] for c in ln.split("\t")]


def _component_text(text: str, k: int) -> str:
    return "".join(ln + "\n" for ln in text.split("\n")[3 : 3 + k])


class TestGridText:
    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(_grid_value, min_size=6, max_size=6),
        min_size=k, max_size=k)))
    @example([[0.0, -0.0, 1.0, -1.0, 1e-15, -1e-15]])
    def test_grid_components_round_trip_bit_exact(self, rows):
        comps = np.array(rows)
        k = comps.shape[0]
        model = PcaWhitenModel(np.zeros(6), comps,
                               np.arange(k, 0, -1, dtype=float), 1e-10)
        text = dump_pca_model_text(model)
        back = parse_pca_model_text(text)
        assert np.array_equal(_bits(back.components), _bits(comps))
        assert all(_FIXED.fullmatch(c) for c in _component_cells(text, k))

    @given(_grid_matrix)
    @example([[0.0, -0.0, 1.0, -1.0, 1e-15, -1e-15, 0.999999999999999,
               -0.999999999999999]])
    def test_grid_rows_equal_per_value_format(self, rows):
        comps = np.array(rows)
        k, d = comps.shape
        model = PcaWhitenModel(np.zeros(d), comps,
                               np.arange(k, 0, -1, dtype=float), 1e-10)
        assert (_component_text(dump_pca_model_text(model), k)
                == fixed_decimal_rows_oracle(comps))

    def test_fitted_rows_equal_per_value_format(self, rng):
        model = retrieval_pipeline_fit(rng.normal(size=(120, 70)), 50,
                                       1e-10)
        assert (_component_text(dump_pca_model_text(model), model.k)
                == fixed_decimal_rows_oracle(model.components))

    def test_fitted_rows_use_fixed_format(self, rng):
        model = retrieval_pipeline_fit(rng.normal(size=(50, 9)), 5, 1e-10)
        text = dump_pca_model_text(model)
        cells = _component_cells(text, model.k)
        assert len(cells) == model.k * model.dim_in
        assert all(_FIXED.fullmatch(c) for c in cells)
        assert np.array_equal(
            _bits(parse_pca_model_text(text).components),
            _bits(model.components),
        )

    def test_off_grid_model_keeps_shortest_text(self):
        text = dump_pca_model_text(_edge_model())
        assert _component_cells(text, 2)[:3] == ["1e-05", "-0.0", "1e+16"]

    def test_off_grid_model_in_unit_range_keeps_shortest_text(self):
        model = PcaWhitenModel(np.zeros(2), np.array([[1.0 / 3.0, -0.1]]),
                               np.ones(1), 1e-10)
        assert _component_cells(dump_pca_model_text(model), 1) == [
            "0.3333333333333333", "-0.1"]

    def test_grid_is_bounded_by_one(self):
        model = PcaWhitenModel(np.zeros(2), np.array([[0.5, 2.0]]),
                               np.ones(1), 1e-10)
        assert _component_cells(dump_pca_model_text(model), 1) == [
            "0.5", "2.0"]


class TestPcaw1GridFixture:
    """A small fitted PCAW1 chain committed as a file.

    ``tests/data/pcaw1_grid_small.pcaw`` is ``featkit preprocess-fit
    --pca-dim 8`` on 20 seeded 12-d Gaussian rows whose columns 5 and 9
    were scaled by 1e-17, so their components round to signed zeros.  It
    was written with one ``'%.15f'`` per component and is never
    regenerated: it pins the component text of a fitted chain.
    """

    PATH = DATA / "pcaw1_grid_small.pcaw"

    def test_fixture_holds_signed_zeros_and_negatives(self):
        cells = _component_cells(self.PATH.read_text(), 8)
        assert len(cells) == 8 * 12
        assert all(_FIXED.fullmatch(c) for c in cells)
        assert "-0.000000000000000" in cells
        assert "0.000000000000000" in cells
        assert any(c.startswith("-") and c.strip("-0.") for c in cells)

    def test_load_then_dump_reproduces_bytes(self):
        text = dump_pca_model_text(load_pca_model(self.PATH))
        assert text.encode("utf-8") == self.PATH.read_bytes()
