"""Justesen-like concatenated binary code (Lemma 2.1 substitute).

Outer code: Reed–Solomon over GF(2^m).  Inner code: a fixed short binary
linear code with exact ML decoding (Justesen used the varying Wozencraft
ensemble; a fixed good inner code, searched as README "Code design"
describes, preserves the contract the protocols rely on — constant rate,
constant relative distance, polynomial-time encoding/decoding).

Decoding is the classical two-stage procedure: ML-decode each inner block to
an outer symbol, then bounded-distance RS decoding across blocks.  A bit
error pattern is guaranteed correctable when fewer than
``(t_outer + 1) * ceil(d_inner / 2)`` bits are corrupted, because damaging an
inner block beyond repair costs the adversary at least ``ceil(d_inner / 2)``
bit flips, and RS absorbs ``t_outer`` broken blocks.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.coding.interfaces import BinaryCode, DecodingFailure
from repro.coding.linear import (
    LinearBlockCode,
    best_effort_linear_code,
    extended_hamming_8_4,
)
from repro.coding.reed_solomon import ReedSolomonCodec
from repro.fields.gf2m import GF2m
from repro.utils.bits import BitArray, as_bits


class ConcatenatedCode(BinaryCode):
    """RS outer code concatenated with a short binary inner code."""

    def __init__(self, outer: ReedSolomonCodec, inner: LinearBlockCode):
        if inner.k != outer.field.m:
            raise ValueError(
                f"inner message length {inner.k} must equal outer symbol "
                f"size m={outer.field.m}")
        self.outer = outer
        self.inner = inner
        self.k = outer.k * inner.k
        self.n = outer.n * inner.n
        #: see :meth:`_encoder`
        self._tables: np.ndarray | None = None
        self._info: np.ndarray | None = None

    @property
    def relative_distance(self) -> float:
        # Report twice the guaranteed decoding radius so that the BinaryCode
        # contract (decode succeeds below relative_distance * n / 2) holds.
        radius = (self.outer.t + 1) * math.ceil(self.inner.min_distance / 2) - 1
        return 2 * (radius + 1) / self.n

    def guaranteed_correctable_bits(self) -> int:
        return (self.outer.t + 1) * math.ceil(self.inner.min_distance / 2) - 1

    def encode(self, message: BitArray) -> BitArray:
        message = self._check_message(message)
        m = self.inner.k
        weights = (1 << np.arange(m, dtype=np.int64))
        symbols = (message.reshape(-1, m).astype(np.int64) * weights).sum(axis=1)
        outer_word = self.outer.encode(symbols)
        # expand each outer symbol back to m bits and inner-encode
        symbol_bits = ((outer_word[:, None] >> np.arange(m)[None, :]) & 1
                       ).astype(np.uint8)
        blocks = (symbol_bits.astype(np.int64) @ self.inner.generator) % 2
        return blocks.astype(np.uint8).reshape(-1)

    def decode(self, received: BitArray) -> BitArray:
        received = self._check_received(received)
        blocks = received.reshape(self.outer.n, self.inner.n)
        inner_messages = self.inner.decode_blocks(blocks)
        weights = (1 << np.arange(self.inner.k, dtype=np.int64))
        symbols = (inner_messages.astype(np.int64) * weights).sum(axis=1)
        message_symbols = self.outer.decode(symbols)
        m = self.inner.k
        bits = ((message_symbols[:, None] >> np.arange(m)[None, :]) & 1)
        return bits.astype(np.uint8).reshape(-1)

    # -- batched paths ---------------------------------------------------------
    def _encoder(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(tables, info)``, built on first use.

        ``tables`` is ``(ceil(k / 8), 256, ceil(n / 64))`` little-endian
        uint64: entry ``[j, v]`` is the packed codeword of the message whose
        byte ``j`` is ``v`` and whose other bits are zero.  The code is
        GF(2)-linear, so a codeword is the XOR of its message bytes'
        entries.  ``info[i]`` is a codeword position that carries message
        bit ``i`` alone (the outer code is systematic, and so is every inner
        code this package builds).
        """
        if self._tables is None:
            # row i of the generator is the codeword of unit message i: one
            # outer encode of all k unit messages, then the inner generator
            m = self.inner.k
            units = np.eye(self.k, dtype=np.int64).reshape(
                self.k, self.outer.k, m)
            outer_words = self.outer.encode_many(
                units @ (np.int64(1) << np.arange(m, dtype=np.int64)))
            symbol_bits = (outer_words[:, :, None] >> np.arange(m)) & 1
            generator = ((symbol_bits @ self.inner.generator) % 2) \
                .astype(np.uint8).reshape(self.k, self.n)
            # a column equal to the unit vector e_i carries bit i alone
            unit = generator.sum(axis=0) == 1
            self._info = np.argmax(generator.astype(bool) & unit, axis=1)
            message_bytes = -(-self.k // 8)
            words = -(-self.n // 64)
            rows = np.zeros((8 * message_bytes, 8 * words), dtype=np.uint8)
            rows[:self.k, :-(-self.n // 8)] = np.packbits(
                generator, axis=1, bitorder="little")
            rows = rows.view("<u8").reshape(message_bytes, 8, words)
            tables = np.zeros((message_bytes, 256, words), dtype="<u8")
            for bit in range(8):
                tables[:, 1 << bit:2 << bit] = \
                    tables[:, :1 << bit] ^ rows[:, bit, None, :]
            self._tables = tables
        return self._tables, self._info

    def _encode_words(self, messages: np.ndarray) -> np.ndarray:
        """``(count, k)`` message bits to ``(count, ceil(n / 64))`` packed
        codewords: one table gather per message byte, XORed together."""
        tables, _ = self._encoder()
        message_bytes = np.packbits(messages, axis=1, bitorder="little")
        words = tables[0][message_bytes[:, 0]]
        for j in range(1, tables.shape[0]):
            words ^= tables[j][message_bytes[:, j]]
        return words

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.size == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(
                f"expected shape (*, {self.k}), got {messages.shape}")
        return np.unpackbits(self._encode_words(messages).view(np.uint8),
                             axis=1, count=self.n, bitorder="little")

    supports_erasures = True

    def decode_many_flagged(self, received: np.ndarray,
                            erasures: np.ndarray | None = None):
        received = np.asarray(received, dtype=np.uint8)
        if received.size == 0:
            return (np.zeros((0, self.k), dtype=np.uint8),
                    np.zeros(0, dtype=bool))
        if received.ndim != 2 or received.shape[1] != self.n:
            raise ValueError(
                f"expected shape (*, {self.n}), got {received.shape}")
        masks = None
        if erasures is not None:
            masks = np.asarray(erasures, dtype=bool)
            if masks.shape != received.shape:
                raise ValueError(
                    f"erasure mask shape {masks.shape} != {received.shape}")
            if not masks.any():
                masks = None
        # an exact codeword with no declared erasure decodes to its
        # information-set bits: inner ML finds every block at distance 0
        # and Reed–Solomon sees zero syndromes, so the two-stage path would
        # return the same message unflagged; only the other rows take it.
        # A row is clean only if its information-set bits re-encode to the
        # whole row, so the check is exact whatever positions it reads.
        messages = received[:, self._encoder()[1]]
        packed = np.packbits(received, axis=1, bitorder="little")
        encoded = self._encode_words(messages).view(np.uint8)
        clean = (encoded[:, :packed.shape[1]] == packed).all(axis=1)
        if masks is not None:
            clean &= ~masks.any(axis=1)
        failed = np.zeros(received.shape[0], dtype=bool)
        dirty = np.flatnonzero(~clean)
        if dirty.size:
            messages[dirty], failed[dirty] = self._decode_two_stage(
                received[dirty], None if masks is None else masks[dirty])
        return messages, failed

    def _decode_two_stage(self, received: np.ndarray,
                          masks: np.ndarray | None):
        """Inner ML decoding of every block, then Reed–Solomon across the
        blocks of each row; ``masks`` are declared erasures, or None."""
        count = received.shape[0]
        blocks = received.reshape(count * self.outer.n, self.inner.n)
        block_erasures = None
        outer_erasures = None
        if masks is not None:
            block_erasures = masks.reshape(count * self.outer.n,
                                           self.inner.n)
            # an inner block with >= ceil(d/2) erased bits may ML-decode
            # to the wrong symbol even without errors — declare the outer
            # symbol erased (cost 1 vs 2 for an undeclared error); below
            # that threshold erasure-aware inner ML stays exact
            threshold = math.ceil(self.inner.min_distance / 2)
            outer_erasures = (block_erasures.sum(axis=1) >= threshold) \
                .reshape(count, self.outer.n)
        inner_messages = self.inner.decode_blocks(blocks,
                                                  erasures=block_erasures)
        weights = (1 << np.arange(self.inner.k, dtype=np.int64))
        symbols = (inner_messages.astype(np.int64) * weights[None, :]) \
            .sum(axis=1).reshape(count, self.outer.n)
        message_symbols, failed = self.outer.decode_many_flagged(
            symbols, erasures=outer_erasures)
        m = self.inner.k
        bits = ((message_symbols[:, :, None] >> np.arange(m)[None, None, :])
                & 1).astype(np.uint8)
        return bits.reshape(count, self.k), failed

    def __repr__(self) -> str:
        return (f"ConcatenatedCode(n={self.n}, k={self.k}, "
                f"outer={self.outer!r}, inner={self.inner!r})")


class PaddedCode(BinaryCode):
    """Wrap a code so its codeword occupies exactly ``n_bits`` positions.

    The extra positions carry zeros and are ignored at decoding time (a
    shortening in disguise: corruption on pad positions is harmless, which
    only helps the receiver).  Needed because the routing protocol hands a
    codeword to a node set of an exact size L (Section 4.2).
    """

    def __init__(self, base: BinaryCode, n_bits: int):
        if n_bits < base.n:
            raise ValueError(f"cannot pad code of length {base.n} to {n_bits}")
        self.base = base
        self.k = base.k
        self.n = n_bits

    @property
    def relative_distance(self) -> float:
        # Same absolute correction radius over a longer word.
        return self.base.relative_distance * self.base.n / self.n

    def encode(self, message: BitArray) -> BitArray:
        codeword = self.base.encode(message)
        out = np.zeros(self.n, dtype=np.uint8)
        out[:codeword.size] = codeword
        return out

    def decode(self, received: BitArray) -> BitArray:
        received = self._check_received(received)
        return self.base.decode(received[:self.base.n])

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        inner = self.base.encode_many(messages)
        out = np.zeros((inner.shape[0], self.n), dtype=np.uint8)
        out[:, :self.base.n] = inner
        return out

    @property
    def supports_erasures(self) -> bool:
        return getattr(self.base, "supports_erasures", False)

    def decode_many_flagged(self, received: np.ndarray,
                            erasures: np.ndarray | None = None):
        received = np.asarray(received, dtype=np.uint8)
        if erasures is None or not self.supports_erasures:
            return self.base.decode_many_flagged(received[:, :self.base.n])
        erasures = np.asarray(erasures, dtype=bool)[:, :self.base.n]
        return self.base.decode_many_flagged(received[:, :self.base.n],
                                             erasures=erasures)


_FACTORY_CACHE: Dict[Tuple[int, float, int], BinaryCode] = {}


def make_justesen_code(n_bits: int, rate: float = 0.25,
                       seed: int = 0) -> BinaryCode:
    """Build a Justesen-like code whose codeword fits in exactly ``n_bits``.

    Picks the inner code and the outer field by size: the [8,4,4] extended
    Hamming inner with a GF(16) RS outer for short words, and a searched
    [16,8,>=5] inner with a GF(256) RS outer for longer ones.  The outer
    dimension is set so the overall rate is approximately ``rate``.

    Returns a :class:`PaddedCode` of length exactly ``n_bits``.  Raises
    ``ValueError`` when ``n_bits`` is too small to host any such code.
    """
    key = (n_bits, rate, seed)
    cached = _FACTORY_CACHE.get(key)
    if cached is not None:
        return cached

    if n_bits < 24:
        raise ValueError(f"n_bits={n_bits} too small for a concatenated code")

    if n_bits <= 120:
        # [8,4,4] extended Hamming inner + GF(16) outer: best distance ratio
        inner = extended_hamming_8_4()
        field = GF2m(4)
    else:
        # a searched [24,8,8] inner + GF(256) outer for longer codewords
        inner = best_effort_linear_code(8, 24, seed=seed)
        field = GF2m(8)

    n_outer = min(n_bits // inner.n, field.order - 1)
    target_k_bits = rate * n_bits
    k_outer = max(1, min(n_outer - 2,
                         int(target_k_bits // inner.k)))
    # keep an even number of parity symbols for a clean t = (n - k) / 2
    if (n_outer - k_outer) % 2 == 1:
        k_outer = max(1, k_outer - 1)
    if k_outer >= n_outer:
        raise ValueError(
            f"n_bits={n_bits} cannot host rate {rate} (k_outer={k_outer}, "
            f"n_outer={n_outer})")
    outer = ReedSolomonCodec(field, n_outer, k_outer)
    code: BinaryCode = ConcatenatedCode(outer, inner)
    if code.n != n_bits:
        code = PaddedCode(code, n_bits)
    _FACTORY_CACHE[key] = code
    return code


def justesen_message_capacity(n_bits: int, rate: float = 0.25,
                              seed: int = 0) -> int:
    """Message bits carried by ``make_justesen_code(n_bits, rate)``."""
    return make_justesen_code(n_bits, rate, seed).k
