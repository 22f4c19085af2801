"""Detection pipeline tests against brute-force recomputation."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lossyad.config import parse_experiment
from lossyad.errors import ContractError, DimensionError, DomainError
from lossyad.detection import (
    ConfidenceStream, default_delta_grid, expand_votes, f1_score,
    max_abs_error, multi_shot, one_shot, scaled_abs_error, score_window,
    subset_means, sweep_one_shot,
)

from oracles import (confidence_oracle, detection_pipeline_oracle,
                     sweep_one_shot_oracle)


class TestScaledAbsError:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).normal(size=(3, 10))
        out = scaled_abs_error(x, x, np.ones(3))
        np.testing.assert_array_equal(out, np.zeros((3, 10)))

    def test_absolute_value(self):
        out = scaled_abs_error(np.array([[-2.0, 3.0]]), np.zeros((1, 2)), np.ones(1))
        np.testing.assert_array_equal(out, [[2.0, 3.0]])

    def test_scaling(self):
        out = scaled_abs_error(np.array([[1.5]]), np.zeros((1, 1)), np.array([2.0]))
        np.testing.assert_array_equal(out, [[3.0]])

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            scaled_abs_error(np.zeros((2, 5)), np.zeros((3, 5)), np.ones(2))


class TestMaxAbsError:
    def test_columnwise_max(self):
        np.testing.assert_array_equal(
            max_abs_error(np.array([[1.0, 5.0], [4.0, 2.0]])), [4.0, 5.0])

    def test_single_channel_identity(self):
        row = np.random.default_rng(1).uniform(size=(1, 7))
        np.testing.assert_array_equal(max_abs_error(row), row[0])

    def test_matches_double_loop(self):
        arr = np.random.default_rng(2).uniform(size=(8, 200))
        expected = np.array([max(arr[i, j] for i in range(8)) for j in range(200)])
        np.testing.assert_array_equal(max_abs_error(arr), expected)

    def test_empty_channel_axis(self):
        with pytest.raises(DomainError):
            max_abs_error(np.zeros((0, 5)))


class TestSubsetMeans:
    def test_constant(self):
        np.testing.assert_array_equal(subset_means(np.full(200, 2.0)), np.full(20, 2.0))

    def test_arithmetic_series(self):
        means = subset_means(np.arange(200.0))
        assert means[0] == 4.5  # mean of 0..9
        assert means[19] == 194.5  # mean of 190..199
        assert means.shape == (20,)

    def test_permutation_within_subset_invariant(self):
        rng = np.random.default_rng(3)
        mae = rng.uniform(size=200)
        shuffled = mae.copy()
        shuffled[30:40] = rng.permutation(shuffled[30:40])
        np.testing.assert_allclose(subset_means(mae)[3], subset_means(shuffled)[3])

    def test_indivisible_length_rejected(self):
        with pytest.raises(ContractError):
            subset_means(np.zeros(17))


class TestOneShot:
    def test_boundary_is_strict(self):
        np.testing.assert_array_equal(one_shot(np.array([1.0]), 1.0), [0])
        np.testing.assert_array_equal(one_shot(np.array([1.0 + 1e-12]), 1.0), [1])

    def test_clean_signal(self):
        np.testing.assert_array_equal(one_shot(np.zeros(20), 1.0), np.zeros(20))

    def test_typical_operating_point_accepted(self):
        # The experiment defaults: delta 1.0, confidence limit 0.85.
        detection = parse_experiment({}).detection
        assert detection["delta"] == 1.0 and detection["cs_limit"] == 0.85
        assert one_shot(np.array([1.5]), detection["delta"])[0] == 1
        assert multi_shot(np.array([0.9]), detection["cs_limit"])[0] == 1

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_non_positive_or_nan_delta_rejected(self, delta):
        # a NaN delta would vote nothing and score every set F1 0
        with pytest.raises(ContractError, match="delta"):
            one_shot(np.array([1.5]), delta)

    def test_monotonicity_in_delta(self):
        rng = np.random.default_rng(4)
        means = rng.uniform(0, 3, size=20)
        flagged = [one_shot(means, d).sum() for d in np.linspace(0.1, 3.0, 30)]
        assert all(a >= b for a, b in zip(flagged, flagged[1:]))


class TestExpandVotes:
    def test_block_expansion(self):
        d = np.zeros(20, dtype=int)
        d[0] = 1
        expanded = expand_votes(d)
        assert expanded[:10].sum() == 10 and expanded[10:].sum() == 0

    def test_saturation(self):
        np.testing.assert_array_equal(expand_votes(np.ones(20, dtype=int)),
                                      np.ones(200, dtype=int))

    def test_roundtrip_via_subset_majority(self):
        rng = np.random.default_rng(5)
        d = rng.integers(0, 2, size=20)
        recovered = expand_votes(d).reshape(20, 10).max(axis=1)
        np.testing.assert_array_equal(recovered, d)


class TestPipelineOracle:
    def test_composed_pipeline_equals_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            c = int(rng.integers(1, 9))
            x = rng.normal(size=(c, 200))
            x_hat = x + rng.normal(0, rng.uniform(0.1, 2.0), size=(c, 200))
            omega = rng.uniform(0.2, 5.0, size=c)
            delta = float(rng.uniform(0.2, 3.0))
            series = score_window(x, x_hat, omega, delta)
            ae, mae, means, votes, per_time = detection_pipeline_oracle(
                x, x_hat, omega, delta)
            np.testing.assert_array_equal(series.scaled_err, ae)
            np.testing.assert_array_equal(series.max_err, mae)
            # means sum 10 floats; summation order differs by <= a few ulp
            np.testing.assert_allclose(series.means, means, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(series.votes, votes)
            np.testing.assert_array_equal(series.per_time_votes, per_time)

    def test_scale_covariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 200))
        resid = rng.normal(0, 0.8, size=(4, 200))
        omega = rng.uniform(0.5, 2.0, size=4)
        base = score_window(x, x - resid, omega, 1.0).votes
        for c in [0.1, 3.0, 42.0]:
            scaled = score_window(x, x - resid / c, omega * c, 1.0).votes
            np.testing.assert_array_equal(base, scaled)


class TestConfidenceStream:
    def test_saturated_votes_give_cs_one(self):
        stream = ConfidenceStream(window_length=200)
        for _ in range(250):
            stream.push(np.ones(200, dtype=int))
        cs = stream.confidence()
        # every time instant has all its possible votes
        np.testing.assert_allclose(cs[:250], np.ones(250))

    def test_kappa_uses_time_index_before_full_overlap(self):
        # At (1-indexed) time 50 only 50 windows can have covered it; all
        # voting 1 must still give confidence exactly 1.
        stream = ConfidenceStream(window_length=200)
        for _ in range(60):
            stream.push(np.ones(200, dtype=int))
        cs = stream.confidence()
        assert cs[49] == 1.0
        assert stream.vote_count(49) == 50

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            t_win = int(rng.choice([20, 50, 200]))
            n_windows = int(rng.integers(1, 40))
            votes = rng.integers(0, 2, size=(n_windows, t_win))
            stream = ConfidenceStream(window_length=t_win)
            for v in votes:
                stream.push(v)
            expected = confidence_oracle(votes, stream.n_times, t_win)
            np.testing.assert_allclose(stream.confidence(), expected)

    def test_bounds_on_arbitrary_streams(self):
        rng = np.random.default_rng(9)
        stream = ConfidenceStream(window_length=30)
        for _ in range(100):
            stream.push(rng.integers(0, 2, size=30))
        cs = stream.confidence()
        assert np.all(cs >= 0.0) and np.all(cs <= 1.0)

    def test_vote_count_invariant(self):
        stream = ConfidenceStream(window_length=200)
        for _ in range(500):
            stream.push(np.zeros(200, dtype=int))
        for t in [0, 10, 199, 200, 350, 499]:
            assert stream.vote_count(t) == min(t + 1, 200)

    def test_first_instant_reduces_to_one_shot(self):
        # Time 0 is only ever covered by the first window, and its
        # normalizer is 1/1, so the alarm equals that window's first vote.
        rng = np.random.default_rng(11)
        for first_vote in (0, 1):
            stream = ConfidenceStream(window_length=40)
            v = rng.integers(0, 2, size=40)
            v[0] = first_vote
            stream.push(v)
            for _ in range(20):
                stream.push(rng.integers(0, 2, size=40))
            assert stream.vote_count(0) == 1
            assert multi_shot(stream.confidence())[0] == first_vote


class TestMultiShot:
    def test_strict_boundary(self):
        np.testing.assert_array_equal(multi_shot(np.array([0.85]), 0.85), [0])

    def test_above_limit(self):
        np.testing.assert_array_equal(multi_shot(np.array([0.9]), 0.85), [1])

    def test_default_limit(self):
        np.testing.assert_array_equal(
            multi_shot(np.array([0.3, 0.86, 0.85])), [0, 1, 0])


class TestF1:
    def test_perfect_detector(self):
        labels = np.array([0, 1, 1, 0, 1])
        assert f1_score(labels, labels).f1 == 1.0

    def test_direct_formula(self):
        preds = np.array([1, 1, 1, 0, 0])
        labels = np.array([1, 1, 0, 1, 0])
        result = f1_score(preds, labels)
        assert (result.tp, result.fp, result.fn) == (2, 1, 1)
        assert abs(result.f1 - 4.0 / 6.0) < 1e-12

    def test_degenerate_counts_error(self):
        with pytest.raises(DomainError):
            f1_score(np.zeros(5, dtype=int), np.zeros(5, dtype=int))


class TestSweep:
    def test_finds_separating_threshold(self):
        rng = np.random.default_rng(10)
        means = rng.uniform(0.0, 0.5, size=(20, 20))
        counts = np.zeros((20, 20), dtype=int)
        for w, anomalous in enumerate(rng.integers(0, 20, size=20)):
            means[w, anomalous] = rng.uniform(2.0, 2.5)
            counts[w, anomalous] = 10
        best, best_delta, curve = sweep_one_shot(means, counts)
        assert best.f1 == 1.0
        assert 0.5 <= best_delta <= 2.0
        assert len(curve) == len(default_delta_grid())

    def test_needs_positive_labels(self):
        with pytest.raises(ContractError):
            sweep_one_shot(np.zeros((1, 20)), np.zeros((1, 20), dtype=int))

    def test_first_best_delta_wins_a_tie(self):
        # no mean exceeds any delta: F1 is 0 everywhere, so the first delta
        best, best_delta, curve = sweep_one_shot(np.zeros(3), [0, 4, 10], [0.5, 1.0])
        assert (best.f1, best.tp, best.fp, best.fn) == (0.0, 0, 0, 14)
        assert best_delta == 0.5 and curve == [(0.5, 0.0), (1.0, 0.0)]

    def test_alarm_is_strictly_above_delta(self):
        best, _, curve = sweep_one_shot([1.0, 2.0], [10, 5], [1.0, 2.0])
        # at 1.0 only the 2.0 subset alarms; at 2.0 none does
        assert curve == [(1.0, 10 / 25), (2.0, 0.0)]
        assert (best.tp, best.fp, best.fn) == (5, 5, 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_is_domain_error(self, bad):
        with pytest.raises(DomainError):
            sweep_one_shot([0.5, bad], [3, 3], [0.2])

    def test_counts_must_match_means(self):
        with pytest.raises(DimensionError):
            sweep_one_shot(np.zeros((2, 3)), np.ones((2, 4), dtype=int), [0.2])


# Grid values as default_delta_grid computes them (inexact binary
# fractions), and means on them, one float either side of them, or far off.
SWEEP_GRID = default_delta_grid(0.2, 0.6, 0.05)
SWEEP_MEANS = sorted({0.0, 5.0, *SWEEP_GRID.tolist(),
                      *np.nextafter(SWEEP_GRID, 0.0).tolist(),
                      *np.nextafter(SWEEP_GRID, 1.0).tolist()})


@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_sweep_matches_the_per_sample_oracle(n_windows, subsets, data):
    n = n_windows * subsets
    means = np.array(data.draw(st.lists(st.sampled_from(SWEEP_MEANS),
                                        min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=10 * n,
                                         max_size=10 * n)), dtype=int)
    assume(labels.any())
    means = means.reshape(n_windows, subsets)
    labels = labels.reshape(n_windows, 10 * subsets)
    grid = SWEEP_GRID[data.draw(st.integers(0, 8)):]
    counts = labels.reshape(n_windows, subsets, 10).sum(axis=2)
    best, best_delta, curve = sweep_one_shot(means, counts, grid)
    expected, expected_curve = sweep_one_shot_oracle(means, labels, grid)
    assert (best.f1, best.tp, best.fp, best.fn, best_delta) == expected
    assert curve == expected_curve
