import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix import (
    POISSON,
    CovariateMask,
    Dataset,
    apply_mask,
    em_fit,
    load_csv,
    save_csv,
    standardize_covariates,
    subset_rows,
    summary_stats,
)
from countmix import data as data_mod
from countmix.errors import (
    DimensionError,
    DomainError,
    EmptyDataError,
    ParseError,
    SchemaError,
)


class TestLoadCsv:
    def test_hiv_schema_fixture(self, hiv_schema_csv):
        path, covs = hiv_schema_csv
        d = load_csv(path, "HIV", covs)
        assert d.n == 95  # property of the fixture file, nothing deeper
        assert d.p == 8
        assert d.names == tuple(covs)
        assert np.all(d.X[:, 0] == 1.0)
        assert d.outcome_name == "HIV"

    def test_zero_outcome_is_legal(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("y,x\n0,1.0\n0,2.0\n0,3.0\n")
        d = load_csv(path, "y", ["x"])
        assert np.all(d.y == 0)

    def test_fractional_outcome_rejected_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x\n1,1.0\n3.5,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "y", ["x"])
        assert err.value.row == 2
        assert "3.5" in str(err.value)

    def test_negative_outcome_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("y,x\n1,1.0\n-2,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "y", ["x"])
        assert err.value.row == 2

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("y,a\n1,2.0\n")
        with pytest.raises(SchemaError, match="POV"):
            load_csv(path, "y", ["a", "POV"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDataError):
            load_csv(path, "y", ["x"])

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("y,x\n")
        with pytest.raises(EmptyDataError):
            load_csv(path, "y", ["x"])

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("y,x,z\n1,2.0,3.0\n1,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "y", ["x", "z"])
        assert err.value.row == 2

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("y,x\n1,\n")
        with pytest.raises(ParseError):
            load_csv(path, "y", ["x"])

    def test_row_order_preserved(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("y,x\n5,1.0\n1,2.0\n9,3.0\n")
        d = load_csv(path, "y", ["x"])
        assert d.y.tolist() == [5, 1, 9]


class TestDatasetInvariants:
    def test_non_integer_outcome_rejected(self):
        with pytest.raises(DomainError):
            Dataset(y=np.array([1.5, 2.0]), X=np.ones((2, 1)), names=())

    def test_negative_outcome_rejected(self):
        with pytest.raises(DomainError):
            Dataset(y=np.array([-1, 2]), X=np.ones((2, 1)), names=())

    def test_missing_intercept_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(y=np.array([1, 2]), X=np.array([[2.0], [1.0]]), names=())

    def test_duplicate_names_rejected(self):
        X = np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0)])
        with pytest.raises(SchemaError):
            Dataset(y=np.array([1, 2, 3]), X=X, names=("a", "a"))

    def test_arrays_are_read_only(self, poisson_data):
        d = poisson_data()
        with pytest.raises(ValueError):
            d.y[0] = 7
        with pytest.raises(ValueError):
            d.X[0, 0] = 7.0

    def test_column_products_built_once_and_read_only(self, poisson_data, monkeypatch):
        d = poisson_data(n=60, beta=(1.0, 0.3, -0.2), seed=3)
        real = data_mod._column_products
        built = []

        def counting(X):
            built.append(X)
            return real(X)

        monkeypatch.setattr(data_mod, "_column_products", counting)
        em_fit(d, 2, POISSON, seed=0, restarts=2)  # Newton steps, rank screens, M-steps
        xx = d.column_products
        assert len(built) == 1 and built[0] is d.X
        assert xx is d.column_products
        assert xx.shape == (d.n, (d.p + 1) ** 2)
        assert np.array_equal(xx, real(d.X))
        with pytest.raises(ValueError):
            xx[0, 0] = 7.0


def _mask_dataset(p=8):
    rng = np.random.default_rng(1)
    n = 20
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    names = ("SCH", "POV", "INC", "URB", "UMP", "NHB", "NHW", "HSP")[:p]
    return Dataset(y=rng.poisson(3.0, n), X=X, names=names)


class TestApplyMask:
    def test_all_ones_identity(self):
        d = _mask_dataset()
        out = apply_mask(d, CovariateMask.all_ones(d.p))
        assert out.names == d.names
        np.testing.assert_array_equal(out.X, d.X)
        np.testing.assert_array_equal(out.y, d.y)

    def test_numbers_4_and_7_select_urb_nhw(self):
        d = _mask_dataset()
        out = apply_mask(d, CovariateMask.from_numbers(d.p, (4, 7)))
        assert out.names == ("URB", "NHW")
        np.testing.assert_array_equal(out.X[:, 1], d.X[:, 4])
        np.testing.assert_array_equal(out.X[:, 2], d.X[:, 7])

    def test_all_zeros_intercept_only(self):
        d = _mask_dataset()
        out = apply_mask(d, CovariateMask.none(d.p))
        assert out.p == 0
        assert out.X.shape == (d.n, 1)

    def test_length_mismatch(self):
        d = _mask_dataset()
        with pytest.raises(DimensionError):
            apply_mask(d, CovariateMask.none(d.p + 1))

    def test_idempotent(self):
        d = _mask_dataset()
        m = CovariateMask.from_numbers(d.p, (1, 3, 5))
        once = apply_mask(d, m)
        sub_mask = CovariateMask.all_ones(once.p)
        twice = apply_mask(once, sub_mask)
        np.testing.assert_array_equal(once.X, twice.X)

    def test_commutes_with_row_subsetting(self):
        d = _mask_dataset()
        m = CovariateMask.from_numbers(d.p, (2, 6))
        rows = np.array([0, 3, 5, 11])
        a = apply_mask(subset_rows(d, rows), m)
        b = subset_rows(apply_mask(d, m), rows)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.names == b.names

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_mask_roundtrip(self, bits):
        mask = CovariateMask(np.array(bits))
        rebuilt = CovariateMask.from_numbers(len(bits), mask.numbers)
        assert rebuilt.key == mask.key

    def test_from_numbers_out_of_range(self):
        with pytest.raises(DomainError):
            CovariateMask.from_numbers(3, (4,))

    def test_render(self):
        assert CovariateMask.from_numbers(8, (4, 7)).render() == "4, 7"
        assert CovariateMask.none(4).render() == "none"


class TestSummaryStats:
    def test_constant_column(self, intercept_only):
        d = intercept_only([7, 7, 7])
        stats = summary_stats(d)["y"]
        assert (stats.mean, stats.sd, stats.min, stats.max) == (7.0, 0.0, 7.0, 7.0)

    def test_two_point_outcome(self, intercept_only):
        stats = summary_stats(intercept_only([2, 6408]))["y"]
        assert stats.mean == 3205.0
        assert stats.min == 2.0
        assert stats.max == 6408.0

    def test_matches_brute_force_oracle(self, hiv_schema_csv):
        path, covs = hiv_schema_csv
        d = load_csv(path, "HIV", covs)
        stats = summary_stats(d)
        for j, name in enumerate(["HIV", *covs]):
            col = [float(d.y[i]) if j == 0 else float(d.X[i, j]) for i in range(d.n)]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
            assert abs(stats[name].mean - mean) < 1e-12
            assert abs(stats[name].sd - var**0.5) < 1e-12
            assert stats[name].min == min(col)
            assert stats[name].max == max(col)

    def test_outcome_listed_first(self, poisson_data):
        d = poisson_data()
        assert next(iter(summary_stats(d))) == d.outcome_name

    @given(ys=st.lists(st.integers(0, 10_000), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_statistics_module(self, ys):
        import statistics

        d = Dataset(y=np.array(ys), X=np.ones((len(ys), 1)), names=())
        got = summary_stats(d)["y"]
        assert got.mean == pytest.approx(statistics.fmean(ys), rel=1e-12)
        assert got.sd == pytest.approx(statistics.stdev(ys), rel=1e-9, abs=1e-12)
        assert got.min == min(ys)
        assert got.max == max(ys)


class TestRoundTrip:
    def test_save_load_bit_for_bit(self, tmp_path, poisson_data):
        d = poisson_data(n=40, seed=3)
        path = tmp_path / "round.csv"
        save_csv(d, path)
        back = load_csv(path, d.outcome_name, list(d.names))
        np.testing.assert_array_equal(back.y, d.y)
        np.testing.assert_array_equal(back.X, d.X)
        assert back.names == d.names


class TestStandardize:
    def test_zero_mean_unit_sd(self, poisson_data):
        d = poisson_data(n=60, seed=4)
        out = standardize_covariates(d)
        assert abs(out.X[:, 1].mean()) < 1e-12
        assert abs(out.X[:, 1].std(ddof=1) - 1.0) < 1e-12
        np.testing.assert_array_equal(out.y, d.y)

    def test_constant_column_warns_and_survives(self):
        X = np.column_stack([np.ones(5), np.full(5, 2.0)])
        d = Dataset(y=np.arange(5), X=X, names=("c",))
        with pytest.warns(RuntimeWarning):
            out = standardize_covariates(d)
        np.testing.assert_array_equal(out.X[:, 1], d.X[:, 1])


class TestSubsetRows:
    def test_empty_subset_rejected(self, poisson_data):
        with pytest.raises(EmptyDataError):
            subset_rows(poisson_data(), np.array([], dtype=int))

    def test_boolean_mask(self, poisson_data):
        d = poisson_data(n=10)
        keep = np.zeros(10, dtype=bool)
        keep[[1, 4]] = True
        out = subset_rows(d, keep)
        assert out.n == 2
        np.testing.assert_array_equal(out.y, d.y[[1, 4]])
