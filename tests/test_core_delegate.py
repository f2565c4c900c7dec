"""Tests for delegate-vector construction (maximum and β delegates)."""

import numpy as np
import pytest

from repro.algorithms.base import ExecutionTrace
from repro.core.config import ConstructionStrategy
from repro.core.delegate import (
    COALESCED_ALPHA_THRESHOLD,
    build_delegate_vector,
    resolve_strategy,
)
from repro.core.subrange import SubrangePartition
from repro.errors import ConfigurationError


def make_keys(rng, n=1 << 12):
    return rng.integers(0, 2**32, size=n, dtype=np.uint32)


class TestMaximumDelegate:
    def test_maxima_match_numpy(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=6)
        d = build_delegate_vector(keys, p, beta=1)
        expected = keys.reshape(-1, 64).max(axis=1)
        np.testing.assert_array_equal(d.maxima(), expected)

    def test_indices_point_at_maxima(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=5)
        d = build_delegate_vector(keys, p, beta=1)
        np.testing.assert_array_equal(keys[d.indices[:, 0]], d.maxima())

    def test_partial_last_subrange(self, rng):
        keys = make_keys(rng, n=1000)
        p = SubrangePartition(n=1000, alpha=6)
        d = build_delegate_vector(keys, p, beta=1)
        last = keys[(p.num_subranges - 1) * 64 :]
        assert d.maxima()[-1] == last.max()
        assert d.valid.all()

    def test_size_counts_valid_entries(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=4)
        d = build_delegate_vector(keys, p, beta=1)
        assert d.size == p.num_subranges


class TestBetaDelegate:
    def test_top_beta_per_subrange(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=6)
        d = build_delegate_vector(keys, p, beta=3)
        view = keys.reshape(-1, 64)
        expected = np.sort(view, axis=1)[:, -3:][:, ::-1]
        np.testing.assert_array_equal(d.keys, expected)

    def test_columns_sorted_descending(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=5)
        d = build_delegate_vector(keys, p, beta=4)
        assert np.all(np.diff(d.keys.astype(np.int64), axis=1) <= 0)

    def test_beta_th_is_row_minimum_of_valid(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=5)
        d = build_delegate_vector(keys, p, beta=2)
        np.testing.assert_array_equal(d.beta_th(), d.keys[:, 1])

    def test_flat_views_align(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=5)
        d = build_delegate_vector(keys, p, beta=2)
        np.testing.assert_array_equal(keys[d.flat_indices()], d.flat_keys())
        sub_ids = d.flat_subrange_ids()
        np.testing.assert_array_equal(d.flat_indices() >> 5, sub_ids)

    def test_partial_subrange_smaller_than_beta(self, rng):
        keys = make_keys(rng, n=130)  # last subrange has 2 real elements
        p = SubrangePartition(n=130, alpha=6)
        d = build_delegate_vector(keys, p, beta=4)
        # The last subrange can contribute at most its 2 real elements.
        assert d.valid[-1].sum() <= 2
        assert d.size == d.valid.sum()

    def test_beta_larger_than_subrange_rejected(self, rng):
        keys = make_keys(rng, n=64)
        p = SubrangePartition(n=64, alpha=2)
        with pytest.raises(ConfigurationError):
            build_delegate_vector(keys, p, beta=5)

    def test_invalid_beta(self, rng):
        keys = make_keys(rng, n=64)
        p = SubrangePartition(n=64, alpha=3)
        with pytest.raises(ConfigurationError):
            build_delegate_vector(keys, p, beta=0)

    def test_length_mismatch_rejected(self, rng):
        keys = make_keys(rng, n=64)
        p = SubrangePartition(n=128, alpha=3)
        with pytest.raises(ConfigurationError):
            build_delegate_vector(keys, p, beta=1)


class TestStrategies:
    def test_auto_resolution(self):
        assert (
            resolve_strategy(ConstructionStrategy.AUTO, COALESCED_ALPHA_THRESHOLD)
            is ConstructionStrategy.COALESCED_STRIDED
        )
        assert (
            resolve_strategy(ConstructionStrategy.AUTO, COALESCED_ALPHA_THRESHOLD + 1)
            is ConstructionStrategy.WARP_CENTRIC
        )

    def test_explicit_strategy_respected(self):
        assert (
            resolve_strategy(ConstructionStrategy.WARP_CENTRIC, 2)
            is ConstructionStrategy.WARP_CENTRIC
        )

    def test_result_identical_across_strategies(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=4)
        d_warp = build_delegate_vector(
            keys, p, beta=2, strategy=ConstructionStrategy.WARP_CENTRIC
        )
        d_coal = build_delegate_vector(
            keys, p, beta=2, strategy=ConstructionStrategy.COALESCED_STRIDED
        )
        np.testing.assert_array_equal(d_warp.keys, d_coal.keys)
        np.testing.assert_array_equal(d_warp.indices, d_coal.indices)

    def test_warp_centric_records_shuffles(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=6)
        trace = ExecutionTrace()
        build_delegate_vector(
            keys, p, beta=1, strategy=ConstructionStrategy.WARP_CENTRIC, trace=trace
        )
        counters = trace.total_counters()
        assert counters.shuffles == 31 * p.num_subranges
        assert counters.shared_loads == 0

    def test_coalesced_strategy_avoids_shuffles(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=4)
        trace = ExecutionTrace()
        build_delegate_vector(
            keys, p, beta=2, strategy=ConstructionStrategy.COALESCED_STRIDED, trace=trace
        )
        counters = trace.total_counters()
        assert counters.shuffles == 0
        assert counters.shared_loads > 0
        assert counters.utilization == 1.0

    def test_warp_centric_small_subrange_underutilised(self, rng):
        keys = make_keys(rng)
        p = SubrangePartition(n=keys.shape[0], alpha=3)
        trace = ExecutionTrace()
        build_delegate_vector(
            keys, p, beta=1, strategy=ConstructionStrategy.WARP_CENTRIC, trace=trace
        )
        assert trace.total_counters().utilization == pytest.approx(8 / 32)

    def test_optimisation_reduces_construction_time_for_small_alpha(self, rng):
        """The Section 5.3 optimisation: faster construction when alpha is small."""
        keys = make_keys(rng, n=1 << 16)
        p = SubrangePartition(n=keys.shape[0], alpha=4)
        t_warp, t_coal = ExecutionTrace(), ExecutionTrace()
        build_delegate_vector(keys, p, beta=2, strategy=ConstructionStrategy.WARP_CENTRIC, trace=t_warp)
        build_delegate_vector(keys, p, beta=2, strategy=ConstructionStrategy.COALESCED_STRIDED, trace=t_coal)
        assert t_coal.total_time_ms() < t_warp.total_time_ms()


class TestPaddedTieSelection:
    """Regression: padded slots share the pad value with real zero keys, so
    β-delegate selection must never pick padding over a real element in the
    final subrange (it used to, shrinking the delegate vector below k and
    crashing the first top-k on all-zero inputs)."""

    def test_padded_final_subrange_keeps_real_delegates(self):
        keys = np.zeros(5, dtype=np.uint32)
        p = SubrangePartition(n=5, alpha=2)  # subranges [0..3] and [4] + 3 pads
        d = build_delegate_vector(keys, p, beta=2)
        # The final subrange has one real element: exactly one valid delegate.
        assert d.valid[-1].sum() == 1
        assert d.indices[-1, 0] == 4
        assert d.size == 3

    def test_all_zero_vector_full_pipeline(self):
        from repro.core.drtopk import drtopk

        v = np.zeros(5, dtype=np.uint32)
        for k in (1, 3, 5):
            result = drtopk(v, k)
            assert result.values.shape[0] == k
            assert (result.values == 0).all()


class TestMemoisedFlatViews:
    """The flat gathers run once per construction, not once per query."""

    def test_flat_views_are_memoised(self, uniform_u32):
        from repro.algorithms.keys import to_keys

        keys = to_keys(uniform_u32, largest=True)
        p = SubrangePartition(n=keys.shape[0], alpha=6)
        d = build_delegate_vector(keys, p, beta=2)
        assert d.flat_keys() is d.flat_keys()
        assert d.flat_indices() is d.flat_indices()
        assert d.flat_subrange_ids() is d.flat_subrange_ids()
        # Memoisation must not change the values.
        np.testing.assert_array_equal(d.flat_keys(), d.keys[d.valid])
        np.testing.assert_array_equal(d.flat_indices(), d.indices[d.valid])
        assert d.nbytes() > 0

    def test_precomputed_padded_view_matches(self):
        keys = np.arange(21, dtype=np.uint32)  # partial final subrange
        p = SubrangePartition(n=21, alpha=3)
        view = p.reshape_padded(keys, pad_value=np.uint32(0))
        a = build_delegate_vector(keys, p, beta=2)
        b = build_delegate_vector(keys, p, beta=2, padded_view=view)
        np.testing.assert_array_equal(a.keys, b.keys)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_padded_view_shape_validated(self):
        from repro.errors import ConfigurationError

        keys = np.arange(16, dtype=np.uint32)
        p = SubrangePartition(n=16, alpha=2)
        with pytest.raises(ConfigurationError):
            build_delegate_vector(keys, p, padded_view=keys.reshape(2, 8))


def _lowest_index_top2(row: np.ndarray, beta: int) -> list:
    """Reference tie rule: the first maximum, then the first maximum of the rest."""
    first = int(np.argmax(row))
    if beta == 1:
        return [first]
    rest = np.delete(row, first)
    second = int(np.argmax(rest))
    return [first, second + (second >= first)]


@pytest.mark.parametrize("beta", [1, 2])
class TestLowestIndexTieRule:
    """β <= 2 delegates break every tie toward the lowest index in the row."""

    def test_delegates_are_lowest_index(self, rng, beta):
        keys = rng.integers(0, 4, size=1 << 10).astype(np.uint32)  # heavy ties
        p = SubrangePartition(n=keys.shape[0], alpha=4)
        d = build_delegate_vector(keys, p, beta=beta)
        view = keys.reshape(-1, 16)
        expected = [_lowest_index_top2(row, beta) for row in view]
        local = d.indices - (np.arange(p.num_subranges)[:, None] << 4)
        np.testing.assert_array_equal(local, expected)

    def test_all_zero_rows_take_distinct_lowest_indices(self, beta):
        keys = np.zeros(64, dtype=np.uint32)
        keys[8] = 5  # row 1: the maximum sits on index 0, every other key is 0
        keys[17] = 5  # row 2: the maximum sits on index 1
        p = SubrangePartition(n=64, alpha=3)
        d = build_delegate_vector(keys, p, beta=beta)
        local = d.indices - (np.arange(8)[:, None] << 3)
        expected = [[0, 1], [0, 1], [1, 0]] + [[0, 1]] * 5
        np.testing.assert_array_equal(local, np.asarray(expected)[:, :beta])
        assert d.valid.all()
        if beta == 2:
            assert len(np.unique(d.indices)) == d.indices.size

    def test_duplicated_maximum_fills_both_columns(self, beta):
        keys = np.array([1, 7, 3, 7, 7, 2, 0, 6], dtype=np.uint32)
        p = SubrangePartition(n=8, alpha=3)
        d = build_delegate_vector(keys, p, beta=beta)
        np.testing.assert_array_equal(d.keys[0], [7, 7][:beta])
        np.testing.assert_array_equal(d.indices[0], [1, 3][:beta])

    @pytest.mark.parametrize("real", [1, 2, 5])
    def test_padded_final_subrange_prefers_real_zeros(self, beta, real):
        n = 8 + real  # the final subrange holds `real` zeros and 8 - real pads
        keys = np.ones(n, dtype=np.uint32)
        keys[8:] = 0
        p = SubrangePartition(n=n, alpha=3)
        d = build_delegate_vector(keys, p, beta=beta)
        taken = min(beta, real)
        assert d.valid[-1].sum() == taken
        np.testing.assert_array_equal(d.indices[-1, :taken], 8 + np.arange(taken))
        np.testing.assert_array_equal(d.keys[-1], 0)
        assert d.size == beta + taken

    @pytest.mark.parametrize("dist", ["UD", "ND", "CD"])
    @pytest.mark.parametrize("n", [1 << 14, (1 << 14) - 3])
    def test_keys_match_sorted_rows(self, rng, beta, dist, n):
        """The keys are each row's top-β in descending order, as with the
        argpartition kernel: only the tie choice of indices is pinned down."""
        from repro.datasets import customized_distribution

        if dist == "UD":
            keys = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        elif dist == "ND":  # N(1e8, 10) rounded: a few hundred distinct keys
            keys = np.rint(rng.normal(1e8, 10.0, size=n)).astype(np.uint32)
        else:
            keys = customized_distribution(n, seed=7)
        for alpha in (2, 6, 9):
            p = SubrangePartition(n=n, alpha=alpha)
            d = build_delegate_vector(keys, p, beta=beta)
            view = p.reshape_padded(keys, pad_value=np.uint32(0))
            expected = np.sort(view, axis=1)[:, ::-1][:, :beta]
            np.testing.assert_array_equal(d.keys, expected)
            np.testing.assert_array_equal(keys[d.flat_indices()], d.flat_keys())
