"""Short binary linear block codes with brute-force maximum-likelihood decoding.

These serve two roles:

* **Inner codes** of the Justesen-like concatenated construction
  (``repro.coding.justesen``).  Justesen's original construction uses the
  Wozencraft ensemble of varying inner codes; we substitute one fixed good
  inner code (README, "Code design") — the relevant contract (constant
  rate and distance, exact ML decoding of each short block) is identical.
* **Stand-alone codes for tiny messages**, e.g. encoding a single
  Theta(log n)-bit message in the non-adaptive compiler (Section 5.1).

Message lengths are capped at 14 bits so that enumerating the full codebook
(for exact minimum distance and ML decoding) stays cheap.

Searched codes (:func:`search_linear_code`) are public constructions: every
node derives the same generator from the same seed.  The search scores a
chunk of candidate generators per array program, and each outcome, a
failure included, is computed once per process.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.coding.interfaces import BinaryCode
from repro.utils.bits import BitArray
from repro.utils.rng import make_rng

_MAX_K = 14
_MAX_N = 48  # decode packs codewords into 48-bit integers
#: (received word, codeword) distances per slice of the full decode table:
#: a 512 KB XOR block, where one block for all 2^16 words of an n=16, k=8
#: code would take 134 MB
_TABLE_SLICE_ELEMENTS = 1 << 16

def _check_dimensions(k: int, n: int) -> None:
    """Reject an [n, k] shape that no code of this module can take."""
    if not 1 <= k <= _MAX_K:
        raise ValueError(f"k={k} out of range: brute-force decoding needs "
                         f"1 <= k <= {_MAX_K}")
    if not k <= n <= _MAX_N:
        raise ValueError(f"n={n} out of range: packed ML decoding needs "
                         f"k={k} <= n <= {_MAX_N}")


def _all_messages(k: int) -> np.ndarray:
    """Matrix of all 2^k message vectors, one per row."""
    count = 1 << k
    idx = np.arange(count, dtype=np.int64)
    return ((idx[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)


class LinearBlockCode(BinaryCode):
    """A binary linear [n, k] code given by a generator matrix.

    Decoding is exact nearest-neighbour over the full codebook, so it meets
    the unique-decoding contract for any error weight ``< d/2`` where ``d``
    is the *exact* minimum distance (computed at construction).
    """

    def __init__(self, generator: np.ndarray):
        generator = np.asarray(generator, dtype=np.uint8) % 2
        if generator.ndim != 2:
            raise ValueError("generator matrix must be 2-dimensional")
        k, n = generator.shape
        _check_dimensions(k, n)
        self.k = k
        self.n = n
        self.generator = generator
        messages = _all_messages(k)
        self._messages = messages
        self._codebook = ((messages @ generator) % 2).astype(np.uint8)
        self._msg_weights = (np.int64(1) << np.arange(k, dtype=np.int64))
        self._decode_table: Optional[np.ndarray] = None
        nonzero = self._codebook[1:]
        if nonzero.size == 0:
            self.min_distance = n
        else:
            weights = nonzero.sum(axis=1)
            self.min_distance = int(weights.min())
        if self.min_distance == 0:
            raise ValueError("generator matrix is not full rank")

    @property
    def relative_distance(self) -> float:
        return self.min_distance / self.n

    def encode(self, message: BitArray) -> BitArray:
        message = self._check_message(message)
        return ((message.astype(np.int64) @ self.generator) % 2).astype(np.uint8)

    def decode(self, received: BitArray) -> BitArray:
        received = self._check_received(received)
        distances = np.count_nonzero(self._codebook != received[None, :], axis=1)
        best = int(np.argmin(distances))
        return _all_messages(self.k)[best].copy()

    def decode_blocks(self, blocks: np.ndarray,
                      erasures: np.ndarray | None = None) -> np.ndarray:
        """Vectorised ML decoding of many length-n blocks at once.

        ``blocks`` has shape (num_blocks, n); returns (num_blocks, k).
        Uses bit-packed XOR + popcount so large batches stay in cache.
        ``erasures`` optionally masks per-block known-unreliable positions
        out of the distance computation (erasure-aware ML: a block with
        ``b`` erased bits and ``e`` errors decodes exactly whenever
        ``2e + b < d``).
        """
        blocks = np.asarray(blocks, dtype=np.uint8)
        if blocks.ndim != 2 or blocks.shape[1] != self.n:
            raise ValueError(f"expected shape (*, {self.n}), got {blocks.shape}")
        weights = (np.int64(1) << np.arange(self.n, dtype=np.int64))
        packed = blocks.astype(np.int64) @ weights
        if erasures is None and self.n <= 16:
            # every received word fits in 16 bits: decode each of the 2^n
            # possibilities once (lazily) and look the answers up.  This is
            # the erasure-free hot path of the batched router.
            return self._messages[self._full_decode_table()[packed]]
        codebook = self._codebook.astype(np.int64) @ weights
        keep = None
        if erasures is not None:
            masks = np.asarray(erasures, dtype=bool)
            if masks.shape != blocks.shape:
                raise ValueError(
                    f"erasure mask shape {masks.shape} != {blocks.shape}")
            keep = ((~masks).astype(np.int64) * weights[None, :]).sum(axis=1)
        out = np.empty(blocks.shape[0], dtype=np.int64)
        step = 1 << 14
        for start in range(0, packed.size, step):
            xor = packed[start:start + step, None] ^ codebook[None, :]
            if keep is not None:
                xor &= keep[start:start + step, None]
            out[start:start + step] = np.bitwise_count(xor).argmin(axis=1)
        return self._messages[out]

    def _full_decode_table(self) -> np.ndarray:
        """Message index of the nearest codeword for every possible packed
        received word (requires ``n <= 16``).  Computed once per code, in
        slices of :data:`_TABLE_SLICE_ELEMENTS` distances."""
        if self._decode_table is None:
            every = np.arange(1 << self.n, dtype=np.int64)
            codebook = self._codebook.astype(np.int64) \
                @ (np.int64(1) << np.arange(self.n, dtype=np.int64))
            table = np.empty(every.size, dtype=np.intp)
            step = max(1, _TABLE_SLICE_ELEMENTS >> self.k)
            for start in range(0, every.size, step):
                rows = every[start:start + step]
                table[start:start + step] = np.bitwise_count(
                    rows[:, None] ^ codebook[None, :]).argmin(axis=1)
            self._decode_table = table
        return self._decode_table

    # -- batched BinaryCode interface -----------------------------------------
    supports_erasures = True

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.size == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        # 2^k codewords are precomputed; a gather beats the GF(2) matmul
        return self._codebook[messages.astype(np.int64) @ self._msg_weights]

    def decode_many_flagged(self, received: np.ndarray,
                            erasures: np.ndarray | None = None):
        received = np.asarray(received, dtype=np.uint8)
        out = self.decode_blocks(received, erasures=erasures) \
            if received.size else np.zeros((0, self.k), dtype=np.uint8)
        return out, np.zeros(received.shape[0], dtype=bool)

    def __repr__(self) -> str:
        return f"LinearBlockCode(n={self.n}, k={self.k}, d={self.min_distance})"


def extended_hamming_8_4() -> LinearBlockCode:
    """The extended Hamming [8, 4, 4] code — a classical optimal inner code."""
    generator = np.array(
        [
            [1, 0, 0, 0, 0, 1, 1, 1],
            [0, 1, 0, 0, 1, 0, 1, 1],
            [0, 0, 1, 0, 1, 1, 0, 1],
            [0, 0, 0, 1, 1, 1, 1, 0],
        ],
        dtype=np.uint8,
    )
    return LinearBlockCode(generator)


#: (candidate, message) pairs scored per chunk of the search
_SEARCH_CHUNK_PAIRS = 1 << 11

#: (k, n, target, seed, attempts) -> the code found, or the best distance
#: of a failed search
_SEARCH_MEMO: Dict[Tuple[int, int, int, int, int],
                   Union[LinearBlockCode, int]] = {}


def _systematic_distances(parity_rows: np.ndarray) -> np.ndarray:
    """Exact minimum distance of every code ``[I | A]`` in a stack.

    ``parity_rows`` is ``(count, k)``: row j of each ``A`` packed into an
    integer.  Message m has weight popcount(m) + popcount(mA);
    the parities mA of all 2^k messages are built by doubling.
    """
    count, k = parity_rows.shape
    parity = np.zeros((count, 1 << k), dtype=np.int64)
    for j in range(k):
        parity[:, 1 << j:2 << j] = parity[:, :1 << j] ^ parity_rows[:, j, None]
    weights = np.bitwise_count(np.arange(1 << k, dtype=np.int64)) \
        + np.bitwise_count(parity)
    return weights[:, 1:].min(axis=1)


def _search(k: int, n: int, target_distance: int, seed: int,
            attempts: int) -> Union[LinearBlockCode, int]:
    """The first of ``attempts`` seeded systematic generators whose code
    reaches the target, or the largest distance seen when none does."""
    rng = make_rng(seed ^ (k << 20) ^ (n << 10) ^ target_distance)
    r = n - k
    cells = k * r
    # one attempt's (k, r) uint8 draw uses one byte per 32-bit word and
    # drops the rest of its last word, so a (count, pad) draw cut to
    # ``cells`` columns replays ``count`` attempts of the same stream
    pad = 4 * -(-cells // 4)
    bit_weights = np.int64(1) << np.arange(r, dtype=np.int64)
    chunk = max(1, _SEARCH_CHUNK_PAIRS >> k)
    best = 0
    for start in range(0, attempts, chunk):
        count = min(chunk, attempts - start)
        draws = rng.integers(0, 2, size=(count, pad), dtype=np.uint8)
        a = draws[:, :cells].reshape(count, k, r)
        distances = _systematic_distances(a @ bit_weights)
        hits = np.flatnonzero(distances >= target_distance)
        if hits.size:
            return LinearBlockCode(np.concatenate(
                [np.eye(k, dtype=np.uint8), a[hits[0]]], axis=1))
        best = max(best, int(distances.max()))
    return best


def search_linear_code(k: int, n: int, target_distance: int,
                       seed: int = 0, attempts: int = 4000) -> LinearBlockCode:
    """Randomised search for an [n, k] code with distance >= target.

    Deterministic for a fixed seed.  Tries systematic generators [I | A] with
    random A; raises ``ValueError`` if no code is found within the attempt
    budget (callers should lower the target).  Found codes and failures are
    both memoized, so a repeated call costs a dict lookup.
    """
    _check_dimensions(k, n)
    key = (k, n, target_distance, seed, attempts)
    outcome = _SEARCH_MEMO.get(key)
    if outcome is None:
        outcome = _SEARCH_MEMO[key] = _search(k, n, target_distance, seed,
                                              attempts)
    if isinstance(outcome, LinearBlockCode):
        return outcome
    raise ValueError(
        f"no [{n},{k}] code with distance >= {target_distance} found; "
        f"best was {outcome}")


def best_effort_linear_code(k: int, n: int, seed: int = 0) -> LinearBlockCode:
    """Find a good [n, k] code, relaxing the distance target until one exists.

    Starts near the Gilbert–Varshamov-style guess ``(n - k) // 2 + 2`` and
    walks down.  Always succeeds (distance 1 is trivially achievable) once
    the dimensions are in range; out-of-range ones raise ``ValueError``.
    """
    _check_dimensions(k, n)
    target = max(1, (n - k) // 2 + 2)
    while target > 1:
        try:
            return search_linear_code(k, n, target, seed=seed)
        except ValueError:
            target -= 1
    return search_linear_code(k, n, 1, seed=seed)
