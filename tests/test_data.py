"""Dataset invariants, generators, spectra, and rank functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsketch.data import (
    Dataset,
    effective_rank,
    gram,
    load_csv,
    make_decaying_spectrum,
    make_low_rank,
    numerical_rank,
    save_csv,
    spectrum,
)

EPS = np.finfo(float).eps


def count_rank(features, rel=1e-9):
    s = np.linalg.svd(features, compute_uv=False)
    return int(np.count_nonzero(s > rel * s[0]))


class TestDataset:
    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(3), np.array([1.0, -1.0]))

    def test_rejects_nonsign_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_rejects_non_finite_features_and_overflowing_squares(self, value):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[1.0, value]]), np.array([1.0, -1.0]))

    def test_shape_accessors(self):
        data = Dataset(np.ones((4, 2)), np.array([1.0, -1.0]))
        assert (data.d, data.n) == (4, 2)


class TestLowRankGenerator:
    def test_full_rank_square_case(self):
        data = make_low_rank(3, 3, 3, "random", seed=7)
        assert count_rank(data.features) == 3

    def test_planted_rank_five(self):
        data = make_low_rank(100, 50, 5, "random", seed=1)
        assert count_rank(data.features) == 5

    def test_two_by_two_rank_one(self):
        data = make_low_rank(2, 2, 1, "random", seed=0)
        s = np.linalg.svd(data.features, compute_uv=False)
        assert s[1] <= 1e-12

    def test_deterministic_bitwise(self):
        a = make_low_rank(20, 10, 3, "sign_of_plant", seed=42)
        b = make_low_rank(20, 10, 3, "sign_of_plant", seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_seeds_differ(self):
        a = make_low_rank(20, 10, 3, "random", seed=1)
        b = make_low_rank(20, 10, 3, "random", seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_labels_are_signs(self):
        for rule in ("random", "sign_of_plant"):
            data = make_low_rank(30, 40, 2, rule, seed=5)
            assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            make_low_rank(5, 3, 4, "random", seed=0)
        with pytest.raises(ValueError):
            make_low_rank(5, 3, 0, "random", seed=0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            make_low_rank(0, 3, 1, "random", seed=0)


class TestDecayingGenerator:
    def test_extreme_decay_is_effectively_rank_one(self):
        data = make_decaying_spectrum(4, 4, 50.0, seed=3)
        s = np.linalg.svd(data.features, compute_uv=False)
        # the planted ratio is 2^-50; the materialized matrix can only be
        # measured down to machine epsilon
        assert s[1] / s[0] <= 2.0**-50 + 8 * EPS

    def test_decay_one_ratio(self):
        data = make_decaying_spectrum(50, 50, 1.0, seed=9)
        s = np.linalg.svd(data.features, compute_uv=False)
        assert s[9] / s[0] == pytest.approx(0.1, abs=1e-6)

    def test_decay_half_ratio_rectangular(self):
        data = make_decaying_spectrum(10, 20, 0.5, seed=2)
        s = np.linalg.svd(data.features, compute_uv=False)
        assert s[3] / s[0] == pytest.approx(0.5, abs=1e-6)

    def test_top_scale(self):
        data = make_decaying_spectrum(8, 8, 1.0, seed=0, top_singular_value=4.0)
        s = np.linalg.svd(data.features, compute_uv=False)
        assert s[0] == pytest.approx(4.0, rel=1e-10)

    def test_deterministic(self):
        a = make_decaying_spectrum(12, 9, 0.7, seed=11)
        b = make_decaying_spectrum(12, 9, 0.7, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_planted_labels_follow_top_direction(self):
        data = make_decaying_spectrum(30, 25, 1.0, seed=6, label_rule="sign_of_plant")
        u, _, _ = np.linalg.svd(data.features, full_matrices=False)
        margins = u[:, 0] @ data.features
        # the top left singular vector is defined up to a global sign
        assert abs(np.mean(np.sign(margins) * data.labels)) >= 0.99

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ValueError):
            make_decaying_spectrum(4, 4, 0.0, seed=1)

    def test_rejects_unknown_label_rule(self):
        with pytest.raises(ValueError):
            make_decaying_spectrum(4, 4, 1.0, seed=1, label_rule="alternating")


class TestSpectrum:
    def test_identity(self):
        data = Dataset(np.eye(3), np.array([1.0, -1.0, 1.0]))
        info = spectrum(data)
        np.testing.assert_allclose(info.singular_values, 1.0, atol=1e-14)
        assert info.rank == 3

    def test_rank_one_outer_product(self):
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 3.0])
        data = Dataset(np.outer(u, v), np.array([1.0, 1.0]))
        info = spectrum(data)
        assert info.singular_values[0] == pytest.approx(6.0, rel=1e-12)
        assert info.rank == 1

    def test_generator_rank_consistency(self):
        data = make_low_rank(100, 50, 5, "random", seed=1)
        assert spectrum(data).rank == 5

    @pytest.mark.parametrize("maker", [
        lambda: make_low_rank(40, 25, 6, "random", seed=3),
        lambda: make_decaying_spectrum(30, 30, 1.0, seed=4),
    ])
    def test_orthonormal_and_reconstructs(self, maker):
        data = maker()
        info = spectrum(data)
        k = info.singular_values.size
        np.testing.assert_allclose(info.left_vectors.T @ info.left_vectors, np.eye(k), atol=1e-10)
        # the left pairs rebuild X X' = U diag(sigma^2) U'
        rebuilt = (info.left_vectors * info.singular_values**2) @ info.left_vectors.T
        outer = data.features @ data.features.T
        assert np.linalg.norm(rebuilt - outer) / np.linalg.norm(outer) <= 1e-8


class TestPlantedSpectrum:
    @pytest.mark.parametrize("d, n", [(40, 25), (25, 40), (30, 30)], ids=["d>n", "d<n", "d=n"])
    def test_agrees_with_the_svd_of_the_features(self, d, n):
        data = make_decaying_spectrum(d, n, 1.0, seed=7, top_singular_value=3.0)
        info = spectrum(data)
        assert info is data.planted
        measured = spectrum(Dataset(data.features, data.labels))
        np.testing.assert_allclose(info.singular_values, measured.singular_values, rtol=1e-12)
        overlap = np.abs(np.diag(info.left_vectors.T @ measured.left_vectors))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-10)
        assert info.rank == measured.rank == min(d, n)

    @pytest.mark.parametrize("d, n", [(40, 25), (25, 40), (30, 30)], ids=["d>n", "d<n", "d=n"])
    def test_rank_below_the_threshold_matches_the_svd(self, d, n):
        # sigma_i = i**-8 drops below 1e-9 * sigma_1 at i = 14
        data = make_decaying_spectrum(d, n, 8.0, seed=7)
        assert spectrum(data).rank == spectrum(Dataset(data.features, data.labels)).rank == 13

    def test_only_the_decaying_generator_plants(self):
        assert make_low_rank(20, 10, 3, "random", seed=1).planted is None
        assert Dataset(np.eye(2), np.array([1.0, -1.0])).planted is None

    def test_csv_round_trip_carries_no_planted_svd(self, tmp_path):
        data = make_decaying_spectrum(12, 8, 1.0, seed=3)
        save_csv(data, tmp_path / "d.csv")
        again = load_csv(tmp_path / "d.csv")
        assert data.planted is not None and again.planted is None
        assert np.array_equal(again.features, data.features)


class TestGram:
    def test_identity_features(self):
        data = Dataset(np.eye(2), np.array([1.0, -1.0]))
        np.testing.assert_allclose(gram(data), np.eye(2), atol=0)

    def test_duplicated_column_hand_value(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        data = Dataset(x, np.array([1.0, -1.0]))
        np.testing.assert_allclose(gram(data), [[2.0, -2.0], [-2.0, 2.0]], atol=1e-14)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 4))
        y = rng.choice([-1.0, 1.0], size=4)
        data = Dataset(x, y)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                acc = 0.0
                for k in range(5):
                    acc += x[k, i] * x[k, j]
                expected[i, j] = y[i] * y[j] * acc
        np.testing.assert_allclose(gram(data), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_semidefinite(self, seed):
        data = make_low_rank(20, 15, 4, "random", seed=seed)
        g = gram(data)
        evals = np.linalg.eigvalsh(g)
        assert evals[0] >= -1e-10 * evals[-1]


class TestRankFunctionals:
    def test_effective_rank_zero_spectrum(self):
        assert effective_rank(np.zeros(4), 1.0, 1.0) == 0.0

    def test_effective_rank_symmetry_point(self):
        assert effective_rank(np.array([1.0, 1.0]), 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_effective_rank_hand_value(self):
        # 9/10 + 1/2 + 0.01/1.01 at lam/gamma = 1
        value = effective_rank(np.array([3.0, 1.0, 0.1]), 1.0, 1.0)
        assert value == pytest.approx(9.0 / 10.0 + 0.5 + 0.01 / 1.01, abs=1e-12)

    def test_effective_rank_rejects_bad_params(self):
        with pytest.raises(ValueError):
            effective_rank(np.ones(3), 0.0, 1.0)
        with pytest.raises(ValueError):
            effective_rank(np.ones(3), 1.0, -1.0)

    @pytest.mark.filterwarnings("error")
    def test_effective_rank_overflow_raises_without_warning(self):
        with pytest.raises(OverflowError, match="overflows"):
            effective_rank(np.array([1e200, 1.0]), 1.0, 1.0)

    def test_numerical_rank_threshold_above_all(self):
        assert numerical_rank(np.array([5.0, 4.0, 3.0]), 10.0) == 0

    def test_numerical_rank_strict_at_tie(self):
        assert numerical_rank(np.array([5.0, 4.0, 3.0]), 3.0) == 2

    def test_numerical_rank_zero_threshold(self):
        assert numerical_rank(np.array([5.0, 4.0, 3.0]), 0.0) == 3

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=30),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_effective_rank_tail_inequality(self, values, lam, gamma):
        # rbar <= r_nu + tail sum at nu = sqrt(lam/gamma)
        s = np.sort(np.asarray(values))[::-1]
        nu = np.sqrt(lam / gamma)
        r_nu = numerical_rank(s, nu)
        tail = float(np.sum(s[r_nu:] ** 2 / (lam / gamma + s[r_nu:] ** 2)))
        assert effective_rank(s, lam, gamma) <= r_nu + tail + 1e-12

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_effective_rank_bounded_by_length(self, extra):
        s = np.linspace(5.0, 0.1, 10 + extra)
        value = effective_rank(s, 2.0, 0.5)
        assert 0.0 <= value <= s.size


class TestCsvRoundTrip:
    def test_exact_round_trip_with_header(self, tmp_path):
        data = make_low_rank(7, 5, 2, "random", seed=77)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        again = load_csv(path)
        assert np.array_equal(again.features, data.features)
        assert np.array_equal(again.labels, data.labels)

    def test_round_trip_without_header(self, tmp_path):
        data = make_low_rank(3, 4, 1, "random", seed=5)
        path = tmp_path / "plain.csv"
        rows = [",".join(f"{v:.17g}" for v in (data.labels[i], *data.features[:, i]))
                for i in range(data.n)]
        path.write_text("\n".join(rows) + "\n")
        again = load_csv(path)
        assert np.array_equal(again.features, data.features)

    @pytest.mark.parametrize("text", [
        "label,f0\n1,0.25\n-1,0.5\n",
        "label,f0\r\n1,0.25\r\n-1,0.5\r\n",
        "label , f0\n 1 , 0.25 \n-1,  0.5\n",
        "label,f0\n\n1,0.25\n   \n\n-1,0.5\n\n",
        '"label","f0"\n"1","0.25"\n-1,0.5\n',
        '"1",0.25\n-1,0.5\n',
        ' "1" , 0.25\n-1,\t"0.5" \n',
    ], ids=["plain", "crlf", "spaces-around-cells", "blank-lines", "quoted-header",
            "quoted-first-row", "spaces-around-quoted-cells"])
    def test_header_detected_by_nonnumeric_cell(self, tmp_path, text):
        path = tmp_path / "h.csv"
        path.write_bytes(text.encode())
        data = load_csv(path)
        assert data.n == 2 and data.d == 1
        np.testing.assert_array_equal(data.features, [[0.25, 0.5]])
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    @pytest.mark.parametrize("text", [
        "", "\n  \n", "1,0.5,0.25\n-1,0.5\n", "label,f0\n", "1,0.25,\n-1,0.5,\n", "1\n-1\n",
        "1,0.25#x\n-1,0.5\n", '"1,5",0.25\n-1,0.5\n',
    ], ids=["empty", "blank-only", "ragged", "header-only", "trailing-comma", "single-column",
            "hash-in-cell", "comma-in-quoted-cell"])
    def test_rejects_malformed_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_csv(path)

    def test_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,0.5\n-1,0.25\n")
        with pytest.raises(ValueError):
            load_csv(path)
