"""Unit + property tests for short binary linear codes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import linear
from repro.coding.linear import (
    LinearBlockCode,
    best_effort_linear_code,
    extended_hamming_8_4,
    search_linear_code,
)
from repro.perf import reference
from repro.utils.rng import make_rng


class TestExtendedHamming:
    def test_parameters(self):
        code = extended_hamming_8_4()
        assert (code.n, code.k, code.min_distance) == (8, 4, 4)

    def test_round_trip_clean(self):
        code = extended_hamming_8_4()
        for value in range(16):
            msg = np.array([(value >> i) & 1 for i in range(4)],
                           dtype=np.uint8)
            assert np.array_equal(code.decode(code.encode(msg)), msg)

    def test_corrects_single_error(self):
        code = extended_hamming_8_4()
        msg = np.array([1, 0, 1, 1], dtype=np.uint8)
        word = code.encode(msg)
        for position in range(8):
            noisy = word.copy()
            noisy[position] ^= 1
            assert np.array_equal(code.decode(noisy), msg)


class TestLinearBlockCode:
    def test_rejects_rank_deficient(self):
        generator = np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            LinearBlockCode(generator)

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            LinearBlockCode(np.eye(15, 20, dtype=np.uint8))

    def test_rejects_long_codewords(self):
        with pytest.raises(ValueError):
            LinearBlockCode(np.eye(4, 60, dtype=np.uint8))

    def test_relative_distance(self):
        code = extended_hamming_8_4()
        assert code.relative_distance == pytest.approx(0.5)

    def test_decode_blocks_matches_scalar(self, rng):
        code = extended_hamming_8_4()
        msgs = rng.integers(0, 2, size=(50, 4)).astype(np.uint8)
        words = code.encode_many(msgs)
        noisy = words.copy()
        flips = rng.integers(0, 8, size=50)
        noisy[np.arange(50), flips] ^= 1
        batch = code.decode_blocks(noisy)
        for i in range(50):
            assert np.array_equal(batch[i], code.decode(noisy[i]))

    def test_encode_many_matches_scalar(self, rng):
        code = extended_hamming_8_4()
        msgs = rng.integers(0, 2, size=(20, 4)).astype(np.uint8)
        batch = code.encode_many(msgs)
        for i in range(20):
            assert np.array_equal(batch[i], code.encode(msgs[i]))

    def test_encode_many_empty(self):
        code = extended_hamming_8_4()
        assert code.encode_many(np.zeros((0, 4), dtype=np.uint8)).shape == (0, 8)

    @given(st.integers(0, 15), st.integers(0, 7))
    @settings(max_examples=40)
    def test_single_error_always_corrected(self, value, position):
        code = extended_hamming_8_4()
        msg = np.array([(value >> i) & 1 for i in range(4)], dtype=np.uint8)
        noisy = code.encode(msg)
        noisy[position] ^= 1
        assert np.array_equal(code.decode(noisy), msg)


class TestFullDecodeTable:
    """The sliced table build must equal the one-shot ``(2^n, 2^k)``
    block, argmin ties included, for every size the table serves."""

    # the oracle's one block is 2^(n+k) int64 distances, so k + n <= 24
    # (134 MB at n=16, k=8)
    @pytest.mark.parametrize("k,n", [
        (1, 1), (1, 2), (2, 5), (4, 8), (3, 12), (7, 13), (9, 14), (4, 16),
        (5, 16), (8, 16),
    ])
    def test_sliced_table_matches_one_shot(self, k, n):
        # a fresh code: a searched one is shared, and so is its table
        code = LinearBlockCode(best_effort_linear_code(k, n, seed=k + n)
                               .generator)
        assert np.array_equal(code._full_decode_table(),
                              reference.full_decode_table_oneshot(code))

    def test_extended_hamming_table(self):
        code = extended_hamming_8_4()
        assert np.array_equal(code._full_decode_table(),
                              reference.full_decode_table_oneshot(code))

    @pytest.mark.parametrize("elements,k,n", [
        (1 << 10, 8, 16),   # 16,384 slices of 4 rows
        (1 << 12, 5, 15),   # 128-row slices
        (4, 5, 10),         # fewer distances than codewords: one row each
    ])
    def test_small_slices(self, monkeypatch, elements, k, n):
        monkeypatch.setattr(linear, "_TABLE_SLICE_ELEMENTS", elements)
        code = LinearBlockCode(best_effort_linear_code(k, n, seed=3).generator)
        assert np.array_equal(code._full_decode_table(),
                              reference.full_decode_table_oneshot(code))


class TestSearch:
    def test_search_finds_target(self):
        code = search_linear_code(4, 10, 4, seed=1)
        assert code.min_distance >= 4

    def test_search_deterministic(self):
        a = search_linear_code(4, 12, 4, seed=7)
        b = search_linear_code(4, 12, 4, seed=7)
        assert np.array_equal(a.generator, b.generator)

    def test_search_impossible_raises(self):
        # Singleton bound: d <= n - k + 1 = 3
        with pytest.raises(ValueError):
            search_linear_code(4, 6, 5, seed=0, attempts=50)

    def test_best_effort_always_succeeds(self):
        code = best_effort_linear_code(6, 14, seed=2)
        assert code.k == 6 and code.n == 14
        assert code.min_distance >= 2

    def test_best_effort_respects_guarantee(self, rng):
        code = best_effort_linear_code(8, 24, seed=0)
        budget = (code.min_distance - 1) // 2
        msg = rng.integers(0, 2, 8).astype(np.uint8)
        noisy = code.encode(msg)
        flip = rng.choice(24, budget, replace=False)
        noisy[flip] ^= 1
        assert np.array_equal(code.decode(noisy), msg)


def _outcome(search, k, n, target, seed, attempts):
    """The generator bytes a search returns, or its error message."""
    try:
        code = search(k, n, target, seed=seed, attempts=attempts)
    except ValueError as exc:
        return str(exc)
    assert code.generator.dtype == np.uint8
    return code.generator.tobytes()


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(linear, "_SEARCH_MEMO", {})


@pytest.fixture
def rng_calls(monkeypatch, empty_memo):
    """How many generators the search has created so far."""
    calls = []

    def counting(seed):
        calls.append(seed)
        return make_rng(seed)

    monkeypatch.setattr(linear, "make_rng", counting)
    return calls


class TestSearchKernel:
    @pytest.mark.parametrize("k,n,target,seed,attempts", [
        # k(n - k) not a multiple of 4: the padded draw is cut per attempt
        (1, 8, 6, 3, 40), (1, 8, 8, 0, 10), (3, 10, 5, 1, 37),
        (3, 10, 6, 1, 37), (1, 32, 20, 0, 5),
        # n == k: no parity bits, no random draws
        (5, 5, 1, 0, 3), (5, 5, 2, 0, 3),
        # k = 14: one attempt per chunk
        (14, 20, 3, 0, 3), (14, 22, 3, 4, 2),
        # attempt counts that are not a multiple of the chunk
        (4, 16, 7, 9, 1), (4, 16, 8, 9, 1), (6, 20, 8, 5, 37),
        # the keys the campaign workloads search
        (4, 16, 8, 2025, 4000), (4, 16, 7, 2025, 4000),
        (8, 24, 10, 0, 4000), (8, 24, 9, 0, 4000), (8, 24, 8, 0, 4000),
        # above the Singleton bound n - k + 1
        (4, 6, 5, 0, 50),
        # no attempts at all
        (4, 12, 3, 0, 0),
    ])
    def test_kernel_matches_loop_oracle(self, empty_memo, k, n, target,
                                        seed, attempts):
        got = _outcome(search_linear_code, k, n, target, seed, attempts)
        want = _outcome(reference.search_linear_code_loop, k, n, target,
                        seed, attempts)
        assert got == want

    @pytest.mark.parametrize("target", [8, 7])  # fails / found at seed 2025
    def test_repeated_search_creates_no_generator(self, rng_calls, target):
        first = _outcome(search_linear_code, 4, 16, target, 2025, 4000)
        assert _outcome(search_linear_code, 4, 16, target, 2025, 4000) \
            == first
        assert len(rng_calls) == 1
        if target == 8:
            assert first == \
                "no [16,4] code with distance >= 8 found; best was 7"

    def test_failure_memo_is_per_attempt_budget(self, rng_calls):
        # (4, 16, 7) at seed 9 fails on its first draw but not within 4000
        with pytest.raises(ValueError):
            search_linear_code(4, 16, 7, seed=9, attempts=1)
        code = search_linear_code(4, 16, 7, seed=9, attempts=4000)
        assert code.min_distance >= 7
        assert len(rng_calls) == 2

    @pytest.mark.parametrize("k,n,bad,limit", [
        (15, 20, "k=15", "k <= 14"), (4, 60, "n=60", "n <= 48"),
        (16, 32, "k=16", "k <= 14"), (0, 8, "k=0", "1 <= k"),
        (6, 5, "n=5", "k=6 <= n")])
    def test_out_of_range_dimensions_fail_fast(self, rng_calls, k, n, bad,
                                               limit):
        for build in (best_effort_linear_code,
                      lambda k, n: search_linear_code(k, n, 1)):
            with pytest.raises(ValueError, match=bad) as info:
                build(k, n)
            assert limit in str(info.value)
        assert rng_calls == []
