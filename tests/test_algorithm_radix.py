"""Behavioural tests specific to the radix top-k variants."""

import numpy as np
import pytest

from repro.algorithms.base import ExecutionTrace
from repro.algorithms.radix import FlagRadixTopK, InPlaceRadixTopK, RadixTopK
from repro.errors import ConfigurationError
from tests.helpers import assert_topk_correct


class TestConstruction:
    def test_bad_bits_per_pass(self):
        with pytest.raises(ConfigurationError):
            RadixTopK(bits_per_pass=0)
        with pytest.raises(ConfigurationError):
            RadixTopK(bits_per_pass=20)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 11, 16])
    def test_any_bits_per_pass_is_correct(self, bits, rng):
        v = rng.integers(0, 2**32, size=4096, dtype=np.uint32)
        result = RadixTopK(bits_per_pass=bits).topk(v, 77)
        assert_topk_correct(result, v, 77)

    @pytest.mark.parametrize("cls", [RadixTopK, InPlaceRadixTopK, FlagRadixTopK])
    @pytest.mark.parametrize("bits", [11, 16])
    def test_digit_wider_than_key(self, cls, bits, rng):
        # A digit wider than a uint8 key still takes one pass over all 8 bits.
        v = rng.integers(0, 256, size=999).astype(np.uint8)
        assert_topk_correct(cls(bits_per_pass=bits).topk(v, 10), v, 10)


class TestVariantEquivalence:
    @pytest.mark.parametrize("k", [1, 32, 500])
    def test_all_variants_agree_on_values(self, rng, k):
        v = rng.integers(0, 2**20, size=8192, dtype=np.uint32)  # narrow range -> ties
        results = [
            np.sort(cls().topk(v, k).values)
            for cls in (RadixTopK, InPlaceRadixTopK, FlagRadixTopK)
        ]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_flag_variant_handles_single_pass_exit(self, rng):
        # All elements equal: the prefix never narrows and the extraction path
        # must still return exactly k elements.
        v = np.full(2048, 123456, dtype=np.uint32)
        result = FlagRadixTopK().topk(v, 10)
        assert_topk_correct(result, v, 10)


class TestTrafficModel:
    def test_flag_scans_do_not_store(self, uniform_u32):
        trace = ExecutionTrace()
        FlagRadixTopK().topk(uniform_u32, 128, trace=trace)
        scan_steps = [s for s in trace.steps if s.name == "radix_flag_scan"]
        assert scan_steps, "flag radix must record scan steps"
        assert all(s.counters.global_stores == 0 for s in scan_steps)

    def test_inplace_charges_scattered_stores(self, uniform_u32):
        trace = ExecutionTrace()
        InPlaceRadixTopK().topk(uniform_u32, 128, trace=trace)
        zero_steps = [s for s in trace.steps if s.name == "radix_inplace_zero"]
        assert zero_steps
        assert all(s.counters.utilization < 1.0 for s in zero_steps)
        total_zeroed = sum(s.counters.global_stores for s in zero_steps)
        # Nearly the whole vector is eventually zeroed out.
        assert total_zeroed > uniform_u32.shape[0] * 0.5

    def test_flag_is_faster_than_inplace_in_simulated_time(self, rng):
        """The Figure 12 effect: the flag optimisation wins by a clear margin.

        The advantage comes from removing the scattered zeroing stores, so it
        shows once the input is large enough for traffic (rather than kernel
        launch overhead) to dominate — the paper uses |V| = 2^21.
        """
        v = rng.integers(0, 2**32, size=1 << 19, dtype=np.uint32)
        t_flag = ExecutionTrace()
        FlagRadixTopK().topk(v, 256, trace=t_flag)
        t_inplace = ExecutionTrace()
        InPlaceRadixTopK().topk(v, 256, trace=t_inplace)
        assert t_inplace.total_time_ms() > 2.0 * t_flag.total_time_ms()

    def test_outofplace_loads_shrink_across_passes(self, uniform_u32):
        trace = ExecutionTrace()
        RadixTopK().topk(uniform_u32, 64, trace=trace)
        loads = [s.counters.global_loads for s in trace.steps if s.name == "radix_topk"]
        assert loads == sorted(loads, reverse=True)

    def test_iteration_counter_exposed(self, uniform_u32):
        algo = RadixTopK()
        algo.topk(uniform_u32, 64)
        assert 1 <= algo.last_iterations <= 4


def _stable_sort_topk(v: np.ndarray, k: int, largest: bool):
    """What the flag radix has always returned: the last k of a stable sort
    of the keys (boundary ties go to the highest positions), ordered by
    :meth:`TopKAlgorithm.topk`."""
    from repro.algorithms.keys import to_keys

    keys = to_keys(v, largest=largest)
    idx = np.argsort(keys, kind="stable")[-k:]
    idx = idx[np.argsort(keys[idx], kind="stable")[::-1]]
    return v[idx], idx


def _flag_input(dtype, ties: bool, n: int, rng) -> np.ndarray:
    dtype = np.dtype(dtype)
    if ties:
        return rng.integers(0, 4, size=n).astype(dtype)
    if dtype.kind == "f":
        return (rng.standard_normal(n) * 1e3).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)


FLAG_DTYPES = [
    np.uint8, np.uint16, np.uint32, np.uint64, np.int32, np.int64, np.float32, np.float64
]


class TestFlagRadixExtraction:
    """The flag radix extracts its answer from the (flag, mask) prefix alone:
    no full sort of the input, in any key width."""

    N = 1500

    @pytest.mark.parametrize("dtype", FLAG_DTYPES)
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("largest", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 37, N - 1, N])
    def test_matches_stable_sort_reference(self, rng, dtype, ties, largest, k):
        v = _flag_input(dtype, ties, self.N, rng)
        result = FlagRadixTopK().topk(v, k, largest=largest)
        values, indices = _stable_sort_topk(v, k, largest)
        np.testing.assert_array_equal(result.indices, indices)
        np.testing.assert_array_equal(result.values, values)
        assert_topk_correct(result, v, k, largest)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
    @pytest.mark.parametrize("bits", [3, 8, 11])
    def test_any_digit_width(self, rng, dtype, bits):
        v = _flag_input(dtype, False, self.N, rng)
        result = FlagRadixTopK(bits_per_pass=bits).topk(v, 100)
        np.testing.assert_array_equal(result.indices, _stable_sort_topk(v, 100, True)[1])

    @pytest.mark.parametrize("ties", [False, True])
    def test_never_sorts_more_than_k(self, monkeypatch, rng, ties):
        n, k = 1 << 17, 4096
        v = _flag_input(np.uint32, ties, n, rng)
        seen = []
        real_argsort = np.argsort

        def spy(a, *args, **kwargs):
            seen.append(np.shape(a)[0])
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        result = FlagRadixTopK().topk(v, k)
        monkeypatch.undo()
        # The only sort left is TopKAlgorithm.topk ordering the k answers.
        assert seen == [k]
        assert_topk_correct(result, v, k)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.int64, np.float32])
    def test_prefix_consistent_nesting(self, rng, dtype):
        assert FlagRadixTopK.prefix_consistent
        algo = FlagRadixTopK()
        for ties in (False, True):
            v = _flag_input(dtype, ties, self.N, rng)
            big = algo.topk(v, 600)
            for k in (1, 5, 64, 599):
                np.testing.assert_array_equal(algo.topk(v, k).indices, big.indices[:k])
