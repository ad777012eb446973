"""Unit + property tests for GF(p) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fields.gfp import PrimeField, is_prime, next_prime
from repro.perf.reference import inv_matrix_gauss_jordan


class TestPrimality:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 13, 31, 127, 524287,
                                   2147483647])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 15, 91, 524288, 2147483646])
    def test_composites(self, n):
        assert not is_prime(n)

    def test_next_prime(self):
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(1) == 2


@pytest.fixture(params=[13, 31, 524287])
def field(request):
    return PrimeField(request.param)


class TestArithmetic:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(15)

    def test_rejects_huge_prime(self):
        with pytest.raises(ValueError):
            PrimeField((1 << 61) - 1)

    def test_add_sub_inverse(self, field):
        a = np.arange(10) % field.p
        b = (np.arange(10) * 7 + 3) % field.p
        assert np.array_equal(field.sub(field.add(a, b), b), a % field.p)

    def test_mul_inv(self, field):
        values = np.arange(1, min(field.p, 50))
        products = field.mul(values, field.inv(values))
        assert np.all(products == 1)

    def test_inv_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_pow_agrees_with_mul(self, field):
        a = 5 % field.p
        expected = 1
        for exponent in range(8):
            assert int(field.pow(a, exponent)) == expected
            expected = expected * a % field.p

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=50)
    def test_field_axioms(self, x, y):
        field = PrimeField(524287)
        a, b = x % field.p, y % field.p
        assert int(field.mul(a, b)) == a * b % field.p
        assert int(field.add(a, b)) == (a + b) % field.p
        if a != 0:
            assert int(field.mul(a, field.inv(a))) == 1


class TestPolynomials:
    def test_poly_eval_horner(self, field):
        coeffs = [1, 2, 3]  # 1 + 2x + 3x^2
        xs = np.array([0, 1, 2])
        expected = (1 + 2 * xs + 3 * xs * xs) % field.p
        assert np.array_equal(field.poly_eval(coeffs, xs), expected)

    def test_interpolate_round_trip(self, field):
        rng = np.random.default_rng(5)
        coeffs = rng.integers(0, field.p, size=4)
        xs = np.arange(4)
        ys = field.poly_eval(coeffs, xs)
        recovered = field.interpolate(xs, ys)
        assert np.array_equal(recovered % field.p, coeffs % field.p)

    def test_interpolate_rejects_duplicates(self, field):
        with pytest.raises(ValueError):
            field.interpolate([1, 1], [0, 1])


class TestLinearAlgebra:
    def test_solve_identity(self, field):
        b = np.arange(5) % field.p
        x = field.solve(np.eye(5, dtype=np.int64), b)
        assert np.array_equal(x, b)

    def test_solve_random_consistent(self, field):
        rng = np.random.default_rng(9)
        A = rng.integers(0, field.p, size=(6, 6))
        x_true = rng.integers(0, field.p, size=6)
        b = field.matmul(A, x_true.reshape(-1, 1)).reshape(-1)
        x = field.solve(A, b)
        b_check = field.matmul(A, x.reshape(-1, 1)).reshape(-1)
        assert np.array_equal(b_check, b)

    def test_solve_inconsistent_raises(self, field):
        A = np.array([[1, 0], [1, 0], [0, 0]])
        b = np.array([1, 2, 1])
        with pytest.raises(ValueError):
            field.solve(A, b)

    def test_inv_matrix(self, field):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.integers(0, field.p, size=(5, 5))
            try:
                inv = field.inv_matrix(A)
            except ValueError:
                continue  # singular draw
            assert np.array_equal(field.matmul(A, inv),
                                  np.eye(5, dtype=np.int64))

    def test_inv_matrix_singular_raises(self, field):
        with pytest.raises(ValueError):
            field.inv_matrix(np.zeros((3, 3), dtype=np.int64))

    def test_matmul_blocking_matches_direct(self):
        # force the block path with a large prime
        field = PrimeField((1 << 30) + 3 if is_prime((1 << 30) + 3)
                           else next_prime(1 << 30))
        rng = np.random.default_rng(3)
        A = rng.integers(0, field.p, size=(4, 600))
        B = rng.integers(0, field.p, size=(600, 3))
        expected = np.zeros((4, 3), dtype=object)
        for i in range(4):
            for j in range(3):
                expected[i, j] = int(sum(int(a) * int(b) for a, b in
                                         zip(A[i], B[:, j])) % field.p)
        out = field.matmul(A, B)
        assert np.array_equal(out.astype(object), expected)


def _inverse_or_error(invert, field, matrix):
    try:
        return invert(field, matrix)
    except ValueError as exc:
        return str(exc)


def _lattice_matrix(p, degree):
    """table1's Reed–Muller interpolation matrix: the monomials x^a y^b
    with a + b <= degree, evaluated on the same lattice points."""
    from repro.coding.reed_muller import _lattice_points
    points = _lattice_points(2, degree)
    return np.array([[pow(x, a, p) * pow(y, b, p) % p for a, b in points]
                     for x, y in points], dtype=np.int64)


class TestPanelInverse:
    """``PrimeField.inv_matrix`` eliminates in column panels; the
    column-at-a-time Gauss–Jordan it replaced is the oracle.  Both must
    return the same array or raise the same error on every input."""

    SINGULAR = "matrix is singular over GF(p)"

    def assert_matches_oracle(self, field, matrix):
        want = _inverse_or_error(inv_matrix_gauss_jordan, field, matrix)
        got = _inverse_or_error(PrimeField.inv_matrix, field, matrix)
        if isinstance(want, str):
            assert want == self.SINGULAR and got == want
            return False
        assert not isinstance(got, str), got
        assert np.array_equal(got, want)
        return True

    @pytest.mark.parametrize("p", [2, 3, 31, 127, 65521, (1 << 31) - 1])
    def test_matches_oracle(self, p):
        field = PrimeField(p)
        rng = np.random.default_rng(p % 10007)
        for size in range(1, 81):
            dense = rng.integers(0, p, size=(size, size))
            # sparse columns push pivots below the current panel
            sparse = dense * (rng.random((size, size)) < 4 / size)
            # a rolled upper-triangular matrix: column 0's only pivot sits
            # `size // 2` rows down, column 1's the row after, ...
            upper = np.triu(dense)
            upper[np.diag_indices(size)] = rng.integers(1, p, size)
            rolled = np.roll(upper, size // 2, axis=0)
            repeated = dense.copy()
            repeated[-1] = repeated[size // 3]
            zero_lead = dense.copy()
            zero_lead[:, :1 + size // 5] = 0
            self.assert_matches_oracle(field, dense)
            self.assert_matches_oracle(field, sparse)
            assert self.assert_matches_oracle(field, rolled)
            if size > 1:
                assert not self.assert_matches_oracle(field, repeated)
            assert not self.assert_matches_oracle(field, zero_lead)

    @pytest.mark.parametrize("degree,size", [(8, 45), (10, 66), (15, 136),
                                             (17, 171)])
    def test_table1_lattice_matrices(self, degree, size):
        field = PrimeField(31)
        matrix = _lattice_matrix(31, degree)
        assert matrix.shape == (size, size)
        assert self.assert_matches_oracle(field, matrix)
        assert np.array_equal(field.matmul(matrix, field.inv_matrix(matrix)),
                              np.eye(size, dtype=np.int64))

    def test_non_square_raises(self):
        field = PrimeField(31)
        for invert in (inv_matrix_gauss_jordan, PrimeField.inv_matrix):
            with pytest.raises(ValueError, match="matrix must be square"):
                invert(field, np.ones((3, 4), dtype=np.int64))
