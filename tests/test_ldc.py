"""Unit + property tests for locally decodable codes (Hadamard, Reed–Muller)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.hadamard import HadamardLDC
from repro.coding.ldc_interfaces import LocalDecodingFailure
from repro.coding import reed_muller
from repro.coding.reed_muller import ReedMullerLDC, cached_reed_muller
from repro.fields.gfp import PrimeField
from repro.perf.reference import (berlekamp_welch, poly_divmod,
                                  rm_line_decode_loop)


class TestHadamard:
    def test_parameters(self):
        ldc = HadamardLDC(6)
        assert ldc.n == 64 and ldc.k == 6 and ldc.query_count == 2

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            HadamardLDC(20)

    def test_encode_linear(self, rng):
        ldc = HadamardLDC(5)
        a = rng.integers(0, 2, 5)
        b = rng.integers(0, 2, 5)
        assert np.array_equal(
            (ldc.encode(a) + ldc.encode(b)) % 2, ldc.encode((a + b) % 2))

    def test_clean_local_decode(self, rng):
        ldc = HadamardLDC(8)
        msg = rng.integers(0, 2, 8)
        word = ldc.encode(msg)
        for i in range(8):
            for seed in range(5):
                assert ldc.local_decode_from_word(i, word, seed) == msg[i]

    def test_decode_under_corruption(self, rng):
        ldc = HadamardLDC(8)
        msg = rng.integers(0, 2, 8)
        word = ldc.encode(msg)
        corrupted = word.copy()
        positions = rng.choice(ldc.n, ldc.n // 20, replace=False)  # 5%
        corrupted[positions] ^= 1
        hits = sum(ldc.local_decode_from_word(0, corrupted, seed) == msg[0]
                   for seed in range(100))
        assert hits >= 80  # expected failure rate <= 2 * 5%

    def test_non_adaptive_queries(self):
        ldc = HadamardLDC(6)
        a = ldc.decode_indices(3, seed=42)
        b = ldc.decode_indices(3, seed=42)
        assert np.array_equal(a, b)
        assert a[0] ^ a[1] == 1 << 3


class TestPolyDivmod:
    def test_exact_division(self):
        field = PrimeField(13)
        # (x + 2)(x + 3) = x^2 + 5x + 6
        quotient, remainder = poly_divmod(
            field, np.array([6, 5, 1]), np.array([2, 1]))
        assert np.array_equal(quotient % 13, [3, 1])
        assert not (remainder % 13).any()

    def test_division_by_zero_raises(self):
        field = PrimeField(13)
        with pytest.raises(ZeroDivisionError):
            poly_divmod(field, np.array([1, 2]), np.array([0]))


class TestBerlekampWelch:
    def test_clean_recovery(self, rng):
        field = PrimeField(17)
        coeffs = rng.integers(0, 17, 4)
        xs = np.arange(1, 17)
        ys = field.poly_eval(coeffs, xs)
        out = berlekamp_welch(field, xs, ys, degree=3)
        assert np.array_equal(out % 17, coeffs % 17)

    def test_recovery_with_errors(self, rng):
        field = PrimeField(17)
        coeffs = rng.integers(0, 17, 4)
        xs = np.arange(1, 17)
        ys = field.poly_eval(coeffs, xs).copy()
        max_errors = (16 - 3 - 1) // 2  # = 6
        bad = rng.choice(16, max_errors, replace=False)
        ys[bad] = (ys[bad] + 1 + rng.integers(0, 15, max_errors)) % 17
        out = berlekamp_welch(field, xs, ys, degree=3)
        assert np.array_equal(out % 17, coeffs % 17)

    def test_too_few_points_raises(self):
        field = PrimeField(17)
        with pytest.raises(ValueError):
            berlekamp_welch(field, np.array([1, 2]), np.array([3, 4]),
                            degree=5)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_instances(self, seed, errors):
        field = PrimeField(17)
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, 17, 4)
        xs = np.arange(1, 17)
        ys = field.poly_eval(coeffs, xs).copy()
        if errors:
            bad = rng.choice(16, errors, replace=False)
            ys[bad] = (ys[bad] + 1 + rng.integers(0, 15, errors)) % 17
        out = berlekamp_welch(field, xs, ys, degree=3)
        assert np.array_equal(out % 17, coeffs % 17)


@pytest.fixture
def rm():
    return ReedMullerLDC(p=13, m=2, degree=4)


class TestReedMuller:
    def test_parameters(self, rm):
        assert rm.n == 169
        assert rm.k == 15  # C(2 + 4, 2)
        assert rm.query_count == 12
        assert rm.relative_distance == pytest.approx(1 - 4 / 13)

    def test_rejects_large_degree(self):
        with pytest.raises(ValueError):
            ReedMullerLDC(p=7, m=2, degree=6)

    def test_systematic(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg)
        assert np.array_equal(word[rm.systematic_positions()], msg)

    def test_clean_local_decode_all(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg)
        assert np.array_equal(rm.decode_all(word, seed=3), msg)

    def test_local_decode_under_corruption(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg).copy()
        n_err = rm.max_line_errors()  # per-line budget; global random errs
        positions = rng.choice(rm.n, int(0.05 * rm.n), replace=False)
        word[positions] = (word[positions] + 1) % 13
        hits = sum(rm.local_decode_from_word(i, word, seed=9) == msg[i]
                   for i in range(rm.k))
        assert hits >= rm.k - 1
        assert n_err == (12 - 4 - 1) // 2

    def test_non_adaptive_queries(self, rm):
        a = rm.decode_indices(5, seed=11)
        b = rm.decode_indices(5, seed=11)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == rm.query_count  # distinct line points

    def test_queries_depend_only_on_index_and_seed(self, rm):
        # different indices (generically) give different lines
        a = rm.decode_indices(1, seed=4)
        c = rm.decode_indices(2, seed=4)
        assert not np.array_equal(a, c)

    def test_local_decode_many_matches_scalar(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg).copy()
        positions = rng.choice(rm.n, 8, replace=False)
        word[positions] = (word[positions] + 3) % 13
        idx = 7
        qpos = rm.decode_indices(idx, seed=21)
        values = np.tile(word[qpos], (6, 1))
        # corrupt some rows further
        values[2, :3] = (values[2, :3] + 1) % 13
        batch = rm.local_decode_many(idx, values, seed=21)
        # the row-by-row Berlekamp-Welch oracle, not the batch-of-one
        # scalar path, which runs the same kernel
        assert np.array_equal(batch, rm_line_decode_loop(rm, values))

    def test_design(self):
        code = ReedMullerLDC.design(max_codeword_symbols=200,
                                    min_message_symbols=10)
        assert code.n <= 200
        assert code.k >= 10

    def test_design_impossible(self):
        with pytest.raises(ValueError):
            ReedMullerLDC.design(max_codeword_symbols=4,
                                 min_message_symbols=100)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_line_budget_always_decodes(self, seed):
        rm = ReedMullerLDC(p=13, m=2, degree=4)
        rng = np.random.default_rng(seed)
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg).copy()
        index = int(rng.integers(0, rm.k))
        qpos = rm.decode_indices(index, seed=seed)
        values = word[qpos].copy()
        budget = rm.max_line_errors()
        bad = rng.choice(len(values), budget, replace=False)
        values[bad] = (values[bad] + 1 + rng.integers(0, 11, budget)) % 13
        assert rm.local_decode(index, values, seed=seed) == msg[index]


def line_words(rm, errors, count, rng):
    """``count`` restrictions of random degree-d polynomials to a line,
    each with exactly ``errors`` wrong values, plus their g(0)."""
    q = rm.p - 1
    coeffs = rng.integers(0, rm.p, (count, rm.degree + 1))
    ts = np.arange(1, rm.p)
    rows = np.stack([rm.field.poly_eval(c, ts) for c in coeffs])
    for row in rows:
        bad = rng.choice(q, errors, replace=False)
        row[bad] = (row[bad] + rng.integers(1, rm.p, errors)) % rm.p
    return rows, coeffs[:, 0]


# every degree the line decoder admits at small p, and table1's field
KERNEL_CASES = ([(p, d) for p in (7, 11, 13) for d in range(1, p - 1)]
                + [(31, d) for d in (8, 10, 12, 15, 17)])


class TestLineDecodeKernel:
    """The lockstep decoder behind ``local_decode_many`` against the
    Berlekamp–Welch oracle, at and around the line's error radius r."""

    @pytest.mark.parametrize("p, degree", KERNEL_CASES)
    def test_matches_oracle_around_the_radius(self, p, degree):
        rm = cached_reed_muller(p, 2, degree)
        q, r = p - 1, rm.max_line_errors()
        rng = np.random.default_rng(100 * p + degree)
        counts = sorted({0, r - 1, r, r + 1, r + 2, q // 2, q}
                        & set(range(q + 1)))
        blocks = [line_words(rm, errors, 4, rng) for errors in counts]
        rows = np.concatenate([b[0] for b in blocks]
                              + [rng.integers(0, p, (4, q))])
        decoded = rm.local_decode_many(0, rows, 0)
        assert np.array_equal(decoded, rm_line_decode_loop(rm, rows))
        for errors, (_, g0) in zip(counts, blocks):
            if errors <= r:  # inside the radius the message comes back
                start = 4 * counts.index(errors)
                assert np.array_equal(decoded[start:start + 4], g0)

    def test_clean_and_dirty_rows_in_one_call(self, rng):
        rm = cached_reed_muller(31, 2, 17)
        r = rm.max_line_errors()
        rows, g0 = line_words(rm, 0, 24, rng)
        for i, row in enumerate(rows[1::2]):  # every other row goes dirty
            bad = rng.choice(30, 1 + i % (r + 3), replace=False)
            row[bad] = (row[bad] + rng.integers(1, 31, bad.size)) % 31
        decoded = rm.local_decode_many(3, rows, 5)
        assert np.array_equal(decoded, rm_line_decode_loop(rm, rows))
        assert np.array_equal(decoded[0::2], g0[0::2])
        assert (decoded[1::2] == -1).any() and (decoded[1::2] >= 0).any()

    def test_unreduced_values_are_reduced(self, rng):
        rm = cached_reed_muller(13, 2, 4)
        rows, _ = line_words(rm, 3, 6, rng)
        shifted = rows + 13 * rng.integers(-2, 3, rows.shape)
        assert np.array_equal(rm.local_decode_many(0, shifted, 0),
                              rm_line_decode_loop(rm, rows))

    def test_empty_input(self):
        rm = cached_reed_muller(31, 2, 17)
        out = rm.local_decode_many(0, np.zeros((0, 30), dtype=np.int64), 0)
        assert out.shape == (0,) and out.dtype == np.int64

    def test_passes_split_large_batches(self, rng, monkeypatch):
        rm = cached_reed_muller(13, 2, 3)
        rows = np.concatenate([line_words(rm, e, 5, rng)[0]
                               for e in range(0, 9)])
        whole = rm.local_decode_many(0, rows, 0)
        monkeypatch.setattr(reed_muller, "_DECODE_PASS_ELEMENTS", 1)
        assert np.array_equal(rm.local_decode_many(0, rows, 0), whole)
        assert np.array_equal(whole, rm_line_decode_loop(rm, rows))

    def test_scalar_raises_exactly_when_oracle_raises(self, rng):
        rm = cached_reed_muller(11, 2, 3)
        r = rm.max_line_errors()
        rows = np.concatenate([line_words(rm, e, 3, rng)[0]
                               for e in (0, r, r + 1, r + 2, 10)])
        wanted = rm_line_decode_loop(rm, rows)
        assert (wanted < 0).any() and (wanted >= 0).any()
        for row, want in zip(rows, wanted):
            if want < 0:
                with pytest.raises(LocalDecodingFailure):
                    rm.local_decode(0, row, seed=1)
            else:
                assert rm.local_decode(0, row, seed=1) == want

    @given(st.sampled_from(KERNEL_CASES), st.integers(0, 2**31 - 1),
           st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_sweep(self, case, seed, errors):
        p, degree = case
        rm = cached_reed_muller(p, 2, degree)
        rng = np.random.default_rng(seed)
        rows, _ = line_words(rm, min(errors, p - 1), 3, rng)
        rows = np.concatenate([rows, rng.integers(0, p, (1, p - 1))])
        assert np.array_equal(rm.local_decode_many(0, rows, seed),
                              rm_line_decode_loop(rm, rows))
