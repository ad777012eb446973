"""Prime-field arithmetic GF(p) with numpy-vectorised operations.

Used by the Reed–Muller locally decodable code (Section 5.2 substrate), the
k-wise independent hash families (Lemma 2.5), and the sparse-recovery sketch
fingerprints (Lemma 2.3).  Elements are represented as Python/numpy integers
in ``[0, p)``; all array operations accept and return ``int64`` arrays.

``p`` is limited to 31 bits so that products fit comfortably in ``int64``
before reduction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MAX_PRIME_BITS = 31

#: columns per elimination panel of :meth:`PrimeField.inv_matrix`.  A
#: panel costs ``b`` row steps on a (size, 2b) slice plus one (size, b) x
#: (b, ...) product.  Of 8, 12, 16, 24, 32 and 48, 16 inverted table1's
#: four lattice matrices (45 to 171 square) fastest: 23 ms in all, 27 ms
#: at 8 and 34 ms at 48 (2-core Xeon, BLAS on one thread)
_INV_PANEL = 16


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for the 64-bit range."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime ``>= n``."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PrimeField:
    """The field GF(p) for a prime ``p < 2**31``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p.bit_length() > _MAX_PRIME_BITS:
            raise ValueError(f"prime {p} too large (max {_MAX_PRIME_BITS} bits)")
        self.p = p
        self.order = p

    # -- scalar / array arithmetic -----------------------------------------
    def add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p

    def sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p

    def neg(self, a):
        return (-np.asarray(a, dtype=np.int64)) % self.p

    def inv(self, a):
        """Multiplicative inverse (scalar or array).  Raises on zero."""
        arr = np.asarray(a, dtype=np.int64)
        if np.any(arr % self.p == 0):
            raise ZeroDivisionError("inverse of zero in GF(p)")
        if arr.ndim == 0:
            return np.int64(pow(int(arr) % self.p, self.p - 2, self.p))
        flat = [pow(int(x) % self.p, self.p - 2, self.p) for x in arr.ravel()]
        return np.array(flat, dtype=np.int64).reshape(arr.shape)

    def pow(self, a, e: int):
        arr = np.asarray(a, dtype=np.int64)
        if arr.ndim == 0:
            return np.int64(pow(int(arr) % self.p, int(e), self.p))
        flat = [pow(int(x) % self.p, int(e), self.p) for x in arr.ravel()]
        return np.array(flat, dtype=np.int64).reshape(arr.shape)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- polynomials (coefficient vectors, low-to-high degree) -------------
    def poly_eval(self, coeffs: Sequence[int], xs) -> np.ndarray:
        """Evaluate a polynomial at points ``xs`` (Horner, vectorised)."""
        xs_arr = np.asarray(xs, dtype=np.int64) % self.p
        result = np.zeros_like(xs_arr)
        for c in reversed(list(coeffs)):
            result = (result * xs_arr + int(c)) % self.p
        return result

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product mod p.  Splits the contraction into blocks so the
        intermediate int64 accumulation cannot overflow."""
        A = np.asarray(A, dtype=np.int64) % self.p
        B = np.asarray(B, dtype=np.int64) % self.p
        inner = A.shape[-1]
        # when every accumulated sum stays below 2^53 the whole product is
        # exact in float64, and float matmul runs through BLAS — integer
        # matmul does not; the result is bit-identical to the int64 path
        if self.p * self.p * inner < 1 << 53:
            return (A.astype(np.float64) @ B.astype(np.float64))\
                .astype(np.int64) % self.p
        # each product < p^2 <= 2^62; cap the number of summed terms per block
        max_terms = max(1, (1 << 62) // (self.p * self.p))
        if inner <= max_terms:
            return (A @ B) % self.p
        out = None
        for start in range(0, inner, max_terms):
            part = (A[..., start:start + max_terms]
                    @ B[start:start + max_terms, ...]) % self.p
            out = part if out is None else (out + part) % self.p
        return out

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` mod p by Gaussian elimination.

        ``A`` may be rectangular with more rows than columns (the system must
        be consistent); returns one solution.  Raises ``ValueError`` if the
        system is inconsistent or underdetermined in a pivot column.
        """
        A = (np.asarray(A, dtype=np.int64) % self.p).copy()
        b = (np.asarray(b, dtype=np.int64) % self.p).copy()
        n_rows, n_cols = A.shape
        aug = np.concatenate([A, b.reshape(n_rows, 1)], axis=1)
        pivot_cols = []
        row = 0
        for col in range(n_cols):
            pivot = None
            for r in range(row, n_rows):
                if aug[r, col] % self.p != 0:
                    pivot = r
                    break
            if pivot is None:
                continue
            aug[[row, pivot]] = aug[[pivot, row]]
            inv = pow(int(aug[row, col]), self.p - 2, self.p)
            aug[row] = (aug[row] * inv) % self.p
            mask = np.arange(n_rows) != row
            factors = aug[mask, col].copy()
            aug[mask] = (aug[mask] - factors[:, None] * aug[row][None, :]) % self.p
            pivot_cols.append(col)
            row += 1
            if row == n_rows:
                break
        # consistency check for leftover rows
        for r in range(row, n_rows):
            if np.all(aug[r, :n_cols] == 0) and aug[r, n_cols] != 0:
                raise ValueError("inconsistent linear system over GF(p)")
        x = np.zeros(n_cols, dtype=np.int64)
        for r, col in enumerate(pivot_cols):
            x[col] = aug[r, n_cols]
        return x

    def inv_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Matrix inverse mod p: Gauss–Jordan on [A | I], in panels of
        ``_INV_PANEL`` columns (used for interpolation operators).

        A panel finds and applies its pivots on a (size x 2b) slice: its
        own b columns, plus a record of its row operations as the panel
        columns of an elimination matrix E.  The panel's row swaps are one
        permutation P, so the panel reaches every later column of [A | I]
        as E (P [A | I]): one :meth:`matmul`.  Pivots are the ones the
        column-at-a-time elimination picks, so a singular matrix raises at
        the same column; an inverse is unique, so the result is the same.
        """
        p = self.p
        matrix = np.asarray(matrix, dtype=np.int64) % p
        size = matrix.shape[0]
        if matrix.shape != (size, size):
            raise ValueError("matrix must be square")
        # the columns of [A | I] not eliminated yet; a finished panel's
        # columns are identity columns and drop off the front
        rest = np.concatenate([matrix, np.eye(size, dtype=np.int64)], axis=1)
        for j0 in range(0, size, _INV_PANEL):
            b = min(_INV_PANEL, size - j0)
            work = np.zeros((size, 2 * b), dtype=np.int64)
            work[:, :b] = rest[:, :b]
            perm = np.arange(size)
            for j in range(b):
                c = j0 + j
                nonzero = np.flatnonzero(work[c:, j])
                if nonzero.size == 0:
                    raise ValueError("matrix is singular over GF(p)")
                pivot = c + int(nonzero[0])
                if pivot != c:
                    swapped = [pivot, c]
                    work[[c, pivot], :b] = work[swapped, :b]
                    # E is applied after P, so a swap moves the multipliers
                    # recorded so far; record column j is still unset
                    work[[c, pivot], b:b + j] = work[swapped, b:b + j]
                    perm[[c, pivot]] = perm[swapped]
                work[c, b + j] = 1
                work[c] = work[c] * pow(int(work[c, j]), p - 2, p) % p
                factors = work[:, j].copy()
                factors[c] = 0
                work = (work - factors[:, None] * work[c][None, :]) % p
            # E is the identity outside the panel's columns, whose rows
            # j0 .. j0+b-1 of P [A | I] it mixes into every row
            rest = rest[perm, b:]
            head = rest[j0:j0 + b].copy()
            rest[j0:j0 + b] = 0
            rest = (rest + self.matmul(work[:, b:], head)) % p
        return rest

    def interpolate(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        """Lagrange interpolation: coefficients of the unique polynomial of
        degree < len(xs) through the given points."""
        xs = [int(x) % self.p for x in xs]
        ys = [int(y) % self.p for y in ys]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must be distinct")
        n = len(xs)
        V = np.zeros((n, n), dtype=np.int64)
        for i, x in enumerate(xs):
            acc = 1
            for j in range(n):
                V[i, j] = acc
                acc = acc * x % self.p
        return self.solve(V, np.array(ys, dtype=np.int64))

    def __repr__(self) -> str:
        return f"PrimeField(p={self.p})"
