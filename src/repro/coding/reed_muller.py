"""Reed–Muller locally decodable code (Lemma 2.2 substitute).

The paper instantiates its adaptive compiler with the Kopparty–Meir–
Ron-Zewi–Saraf LDC (constant rate, ``q = exp(sqrt(log n log log n))``
queries).  That construction is far beyond a faithful reimplementation, so
we substitute the classical Reed–Muller LDC (README, "Line decoding"),
which offers every property Section 5.2 actually uses:

* **non-adaptive** local decoding: the queried positions are an affine line
  through the decoded point with a direction derived only from
  ``(index, randomness)`` — exposed as :meth:`decode_indices`;
* constant relative distance ``1 - d/p``;
* local decoding succeeds w.h.p. against a constant corruption fraction;
* polynomial-time encoding and decoding.

The rate is a smaller constant and ``q = p - 1 = O(n^{1/m})`` instead of
``n^{o(1)}``; ``benchmarks/test_table1_adaptive.py`` prints the concrete
α this costs.

Encoding is *systematic on the principal lattice*: the message symbols are
the evaluations of an m-variate degree-≤d polynomial over GF(p) at the
lattice points ``{x : sum(x) <= d}`` (a classical unique-interpolation set),
and the codeword is the evaluation over all of GF(p)^m.  Local decoding of
message coordinate ``i`` therefore reduces to locally *correcting* the
codeword position of lattice point ``i``: pick a random line through it,
decode the restriction (a univariate polynomial of degree ≤ d, i.e. a
Reed–Solomon word of length ``p - 1``) from the ``p - 1`` other points of
the line, and evaluate at the decoded point.  Rows are decoded a batch at
a time: one product finds the rows that are already codewords, and every
other row of the batch goes through one lockstep bounded-distance decoder
(:meth:`ReedMullerLDC.local_decode_many`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.coding.ldc_interfaces import LocalDecodingFailure, LocallyDecodableCode
from repro.fields.gfp import PrimeField, is_prime
from repro.utils.rng import derive


def _lattice_points(m: int, degree: int) -> List[Tuple[int, ...]]:
    """The principal lattice {x in N^m : sum(x) <= degree}, lex ordered."""
    points = [pt for pt in itertools.product(range(degree + 1), repeat=m)
              if sum(pt) <= degree]
    points.sort()
    return points


def _monomials(m: int, degree: int) -> List[Tuple[int, ...]]:
    """Exponent vectors of the m-variate monomials of total degree <= d."""
    return _lattice_points(m, degree)


#: rows x (r + 1)^2 elements the lockstep decoder takes per pass.  Its
#: (rows, r or r + 1, r + 1) locator system is the one array that outgrows
#: the (rows, q) input, and a pass peaks near twice its size.  Measured on
#: 1000 random rows at p = 127, degree 1 (r = 62): 63.7 MB traced in one
#: pass, 5.2 MB in passes of 66 rows.  table1's codes (p = 31, degree >= 8)
#: take at least 2166 rows per pass, more than a whole run ever decodes
_DECODE_PASS_ELEMENTS = 1 << 18

_LDC_CACHE: dict = {}


@dataclass(frozen=True)
class _LineOperators:
    """Fixed matrices of line decoding over the q = p - 1 points
    t = 1 .. p-1 of a line, for one (p, degree)."""

    vander: np.ndarray        # (q, q): t^j for j < q
    inverse: np.ndarray       # inverse Vandermonde of the first d+1 points
    predict_tail: np.ndarray  # float64: first d+1 values -> the other q-d-1
    c0: np.ndarray            # float64: first d+1 values -> g(0)
    hankel: np.ndarray        # syndrome indices of the locator system
    head_inverse: np.ndarray  # inverse Vandermonde of the first d+r+1 points
    inverses: np.ndarray      # a -> a^-1 mod p, with 0 -> 0


def cached_reed_muller(p: int, m: int, degree: int) -> "ReedMullerLDC":
    """Construction is O(k^3 + n*k); protocols share instances."""
    key = (p, m, degree)
    if key not in _LDC_CACHE:
        _LDC_CACHE[key] = ReedMullerLDC(p, m, degree)
    return _LDC_CACHE[key]


class ReedMullerLDC(LocallyDecodableCode):
    """Reed–Muller code RM_p(m, d) with affine-line local decoding."""

    def __init__(self, p: int, m: int, degree: int):
        if m < 1:
            raise ValueError("need at least one variable")
        if not 1 <= degree <= p - 2:
            raise ValueError(
                f"degree must be in [1, p-2] for line decoding, got {degree} "
                f"(p={p})")
        self.field = PrimeField(p)
        self.p = p
        self.m = m
        self.degree = degree
        self.alphabet_size = p
        self.n = p ** m
        lattice = _lattice_points(m, degree)
        if any(max(pt) >= p for pt in lattice):
            raise ValueError("degree too large: lattice leaves GF(p)^m")
        self.k = len(lattice)
        self._lattice = np.array(lattice, dtype=np.int64)
        monos = _monomials(m, degree)
        self._monomials = np.array(monos, dtype=np.int64)
        # evaluation of every monomial at every point of GF(p)^m
        self._points = self._all_points()
        self._eval_matrix = self._monomial_evals(self._points)
        lattice_evals = self._monomial_evals(self._lattice)
        self._interp_inv = self._invert(lattice_evals)
        self._lattice_positions = np.array(
            [self._index_of_point(pt) for pt in lattice], dtype=np.int64)

    # -- construction helpers ------------------------------------------------
    def _all_points(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        coords = np.zeros((self.n, self.m), dtype=np.int64)
        for axis in range(self.m - 1, -1, -1):
            coords[:, axis] = idx % self.p
            idx = idx // self.p
        return coords

    def _index_of_point(self, point) -> int:
        index = 0
        for coordinate in point:
            index = index * self.p + int(coordinate) % self.p
        return index

    def _monomial_evals(self, points: np.ndarray) -> np.ndarray:
        """Matrix M[x, mono] = prod_i x_i^{e_i} mod p."""
        p = self.p
        n_points = points.shape[0]
        out = np.ones((n_points, len(self._monomials)), dtype=np.int64)
        # precompute coordinate powers up to the degree
        powers = np.ones((n_points, self.m, self.degree + 1), dtype=np.int64)
        for d in range(1, self.degree + 1):
            powers[:, :, d] = powers[:, :, d - 1] * points % p
        for j, mono in enumerate(self._monomials):
            acc = np.ones(n_points, dtype=np.int64)
            for axis, exponent in enumerate(mono):
                if exponent:
                    acc = acc * powers[:, axis, exponent] % p
            out[:, j] = acc
        return out

    def _invert(self, matrix: np.ndarray) -> np.ndarray:
        return self.field.inv_matrix(matrix)

    # -- LocallyDecodableCode interface ---------------------------------------
    @property
    def query_count(self) -> int:
        return self.p - 1

    @property
    def relative_distance(self) -> float:
        return 1.0 - self.degree / self.p

    def max_line_errors(self) -> int:
        """Errors tolerated on a single decoding line."""
        return (self.p - 1 - self.degree - 1) // 2

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.int64) % self.p
        if message.shape != (self.k,):
            raise ValueError(f"expected {self.k} message symbols")
        coeffs = self.field.matmul(self._interp_inv, message)
        return self.field.matmul(self._eval_matrix, coeffs)

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (count, k) symbol matrix into (count, n) codewords with
        two batched matrix products (interpolate, then evaluate)."""
        messages = np.asarray(messages, dtype=np.int64) % self.p
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"expected shape (*, {self.k})")
        coeffs = self.field.matmul(messages, self._interp_inv.T)
        return self.field.matmul(coeffs, self._eval_matrix.T)

    def _line_direction(self, index: int, seed: int) -> np.ndarray:
        rng = derive(seed, f"rm-line:{index}")
        while True:
            direction = rng.integers(0, self.p, size=self.m, dtype=np.int64)
            if np.any(direction != 0):
                return direction

    def decode_indices(self, index: int, seed: int) -> np.ndarray:
        if not 0 <= index < self.k:
            raise IndexError(f"index {index} out of range [0, {self.k})")
        base = self._lattice[index]
        direction = self._line_direction(index, seed)
        ts = np.arange(1, self.p, dtype=np.int64)
        points = (base[None, :] + ts[:, None] * direction[None, :]) % self.p
        weights = self.p ** np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return (points * weights[None, :]).sum(axis=1)

    def local_decode(self, index: int, values: np.ndarray, seed: int) -> int:
        """One row through :meth:`local_decode_many`; raises
        :class:`LocalDecodingFailure` where the batch would return -1."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.p - 1,):
            raise ValueError(
                f"expected {self.p - 1} queried values, got {values.shape}")
        decoded = int(self.local_decode_many(index, values[None, :], seed)[0])
        if decoded < 0:
            raise LocalDecodingFailure(
                "no degree-d polynomial within the line's error radius")
        return decoded  # g(0) = f(decoded point)

    def _line_operators(self) -> _LineOperators:
        """Cached fixed matrices of line decoding, which depend only on
        (p, degree)."""
        cached = getattr(self, "_line_ops", None)
        if cached is not None:
            return cached
        p, d, q = self.p, self.degree, self.p - 1
        r = self.max_line_errors()
        ts = np.arange(1, p, dtype=np.int64)
        vander = np.ones((q, q), dtype=np.int64)
        for j in range(1, q):
            vander[:, j] = vander[:, j - 1] * ts % p
        inverse = self.field.inv_matrix(vander[:d + 1, :d + 1])
        # fused "head values -> tail predictions" operator, kept in float64
        # for the batched fast path (entries < p, so every accumulated
        # product below stays < p^2 * (d+1) < 2^53 and is exact).  The fit
        # interpolates the first d+1 points exactly, so only the remaining
        # q - (d+1) coordinates can disagree and need predicting
        predict = self.field.matmul(inverse.T, vander[:, :d + 1].T)
        # equation k of the locator system reads syndromes k+1 .. k+r+1
        hankel = (np.arange(q - d - 1 - r)[:, None]
                  + np.arange(r + 1)[None, :])
        width = d + r + 1
        self._line_ops = _LineOperators(
            vander=vander, inverse=inverse,
            predict_tail=predict[:, d + 1:].astype(np.float64),
            c0=inverse[0].astype(np.float64), hankel=hankel,
            head_inverse=self.field.inv_matrix(vander[:width, :width]),
            inverses=np.concatenate(([0], self.field.inv(ts))))
        return self._line_ops

    def local_decode_many(self, index: int, values: np.ndarray,
                          seed: int) -> np.ndarray:
        """Decode the same message coordinate from many independent query
        rows at once (rows = different codewords queried at identical
        positions — exactly the situation of Figure 1, where one node reads
        its sketch slot out of every group's codeword with shared
        randomness).

        Fast path: fit a degree-d polynomial through the first d+1 query
        values of every row in one matrix product and keep rows whose fit
        explains all q values.  Every other (corrupted) row of the call
        goes through one lockstep bounded-distance decoder,
        :meth:`_decode_dirty`.  Rows with no degree-d polynomial within
        :meth:`max_line_errors` of them come back as -1.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != self.p - 1:
            raise ValueError(f"expected shape (*, {self.p - 1})")
        # skip the reduction write pass when the rows are already reduced
        # (the common case: symbols straight off the wire)
        if values.size and (values.min() < 0 or values.max() >= self.p):
            values = values % self.p
        d = self.degree
        ops = self._line_operators()
        if self.p * self.p * (d + 1) < 1 << 53:
            # one BLAS product head -> tail predictions; exact in float64
            head_f = values[:, :d + 1].astype(np.float64)
            predicted = np.remainder(head_f @ ops.predict_tail, float(self.p))
            clean = np.all(predicted == values[:, d + 1:], axis=1)
            c0 = np.remainder(head_f @ ops.c0, float(self.p))
            out = np.full(values.shape[0], -1, dtype=np.int64)
            out[clean] = c0[clean].astype(np.int64)
        else:
            coeffs = self.field.matmul(values[:, :d + 1], ops.inverse.T)
            # predictions at all q points
            predicted = self.field.matmul(coeffs, ops.vander[:, :d + 1].T)
            clean = np.all(predicted == values, axis=1)
            out = np.full(values.shape[0], -1, dtype=np.int64)
            out[clean] = coeffs[clean, 0]
        dirty = np.flatnonzero(~clean)
        step = max(1, _DECODE_PASS_ELEMENTS
                   // (self.max_line_errors() + 1) ** 2)
        for start in range(0, dirty.size, step):
            part = dirty[start:start + step]
            out[part] = self._decode_dirty(values[part])
        return out

    def _decode_dirty(self, values: np.ndarray) -> np.ndarray:
        """Decode reduced rows that are not codewords, all in lockstep:
        Berlekamp–Welch at the full radius ``r`` solved as one array
        program.  Returns the coefficient at 0 of the degree-≤d
        polynomial within ``r`` of each row, or -1 where there is none.

        The Berlekamp–Welch system ``Q(t) = y E(t)`` (E monic of degree
        r, deg Q <= d + r) is split in two.  Its Vandermonde block is
        shared by every row, and the syndromes ``s_l = sum y t^l`` for
        ``l = 1 .. q-d-1`` annihilate it: over all of GF(p)*, ``sum t^l``
        vanishes for ``0 < l < p - 1``.  What is left per row is the
        Hankel system ``sum_j s_{k+j+1} E_j = 0`` (r or r+1 equations in
        E's r free coefficients), solved by Gauss–Jordan with per-row
        pivots.  Q then interpolates ``y E`` at its first d+r+1 points,
        and synthetic division by the monic E gives the candidate f.

        One solve at ``e = r`` returns exactly what the descending-e loop
        returns.  If some f lies within r of the row, every solution has
        ``Q = f E``: ``Q1 E2 - Q2 E1`` has degree at most d + 2r < q and
        vanishes at all q points.  If no f does, no candidate can pass the
        final mismatch count, so that count alone decides every row.
        """
        p, d, q = self.p, self.degree, self.p - 1
        r = self.max_line_errors()
        field = self.field
        ops = self._line_operators()
        rows = values.shape[0]
        # augmented locator system [A | -b]: unknowns E_0 .. E_{r-1}
        system = field.matmul(values, ops.vander[:, 1:q - d])[:, ops.hankel]
        system[:, :, r] = (-system[:, :, r]) % p
        equations = system.shape[1]
        sel = np.arange(rows)
        eq = np.arange(equations)
        rank = np.zeros(rows, dtype=np.intp)
        pivot_col = np.zeros((rows, r), dtype=np.intp)
        for col in range(r):
            # rank <= col < equations here, so every row owns an equation
            # at index rank to pivot into (a no-op where none is found)
            candidates = (system[:, :, col] != 0) & (eq >= rank[:, None])
            found = candidates.any(axis=1)
            pivot = np.where(found, candidates.argmax(axis=1), rank)
            top = system[sel, rank]
            system[sel, rank] = system[sel, pivot]
            system[sel, pivot] = top
            scale = np.where(found, ops.inverses[system[sel, rank, col]], 1)
            pivot_row = system[sel, rank] * scale[:, None] % p
            factors = system[:, :, col] * found[:, None]
            factors[sel, rank] = 0
            system -= factors[:, :, None] * pivot_row[:, None, :]
            system %= p
            system[sel, rank] = pivot_row
            pivot_col[sel[found], rank[found]] = col
            rank += found
        # one solution per row, free unknowns 0; an inconsistent row keeps
        # whatever this yields and fails the mismatch count below
        locator = np.zeros((rows, r + 1), dtype=np.int64)
        locator[:, r] = 1
        hit_rows, hit_eqs = np.nonzero(np.arange(r)[None, :] < rank[:, None])
        locator[hit_rows, pivot_col[hit_rows, hit_eqs]] = \
            system[hit_rows, hit_eqs, r]
        width = d + r + 1
        weighted = values[:, :width] * field.matmul(
            locator, ops.vander[:width, :r + 1].T) % p
        numerator = field.matmul(weighted, ops.head_inverse.T)
        quotient = np.empty((rows, d + 1), dtype=np.int64)
        for i in range(d, -1, -1):
            lead = numerator[:, i + r].copy()
            quotient[:, i] = lead
            numerator[:, i:i + r + 1] = (numerator[:, i:i + r + 1]
                                         - lead[:, None] * locator) % p
        misses = np.count_nonzero(
            field.matmul(quotient, ops.vander[:, :d + 1].T) != values, axis=1)
        return np.where(misses <= r, quotient[:, 0], -1)

    # -- convenience -----------------------------------------------------------
    def systematic_positions(self) -> np.ndarray:
        """Codeword positions that carry the message symbols verbatim."""
        return self._lattice_positions.copy()

    @classmethod
    def design(cls, max_codeword_symbols: int, min_message_symbols: int,
               m: int = 2) -> "ReedMullerLDC":
        """Choose (p, degree) with ``p^m <= max_codeword_symbols`` and
        ``k >= min_message_symbols``, using the largest admissible prime (so
        the per-line error margin ``p - 2 - degree`` is maximised) and the
        smallest admissible degree."""
        limit = int(max_codeword_symbols ** (1.0 / m)) + 1
        prime = None
        for candidate in range(limit, 1, -1):
            if is_prime(candidate) and candidate ** m <= max_codeword_symbols:
                prime = candidate
                break
        if prime is None:
            raise ValueError(
                f"no prime p with p^{m} <= {max_codeword_symbols}")
        for degree in range(1, prime - 1):
            if math.comb(m + degree, m) >= min_message_symbols:
                return cls(prime, m, degree)
        raise ValueError(
            f"no RM code with <= {max_codeword_symbols} codeword symbols and "
            f">= {min_message_symbols} message symbols (m={m}, p={prime})")

    def __repr__(self) -> str:
        return (f"ReedMullerLDC(p={self.p}, m={self.m}, d={self.degree}, "
                f"k={self.k}, n={self.n}, q={self.query_count})")
