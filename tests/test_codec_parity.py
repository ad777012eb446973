"""Cross-codec parity: batched kernels must agree bit-for-bit with the
per-word reference paths.

The batch interfaces (`encode_many` / `decode_many_flagged`) are the primary
codec contract — every protocol layer consumes them — so for every shipped
code they must reproduce the per-word `encode` / `decode` semantics exactly,
including on rows corrupted beyond the decoding radius: a row's failure flag
is set exactly when `decode` raises :class:`DecodingFailure`, and a failed
row's content is all-zero.
"""

import numpy as np
import pytest

from repro.coding.hadamard import HadamardLDC
from repro.coding.interfaces import BinaryCode, DecodingFailure
from repro.coding.justesen import make_justesen_code
from repro.coding.linear import best_effort_linear_code, extended_hamming_8_4
from repro.coding.reed_muller import ReedMullerLDC
from repro.coding.reed_solomon import ReedSolomonBinaryCode, ReedSolomonCodec
from repro.coding.repetition import RepetitionCode
from repro.fields.gf2m import GF2m
from repro.utils.rng import make_rng


def _binary_codes():
    return [
        ("repetition", RepetitionCode(k=6, repetitions=5)),
        ("hamming-8-4", extended_hamming_8_4()),
        ("linear-searched", best_effort_linear_code(8, 24, seed=0)),
        ("rs-binary", ReedSolomonBinaryCode(ReedSolomonCodec(GF2m(4),
                                                             n=12, k=6))),
        ("justesen-short", make_justesen_code(96)),
        ("justesen-padded", make_justesen_code(250)),
        # free-logn-n512's routing code (GF(2^4), k=8) and adv-logn-n64's
        # at alpha=1/32 (k=16)
        ("justesen-n32", make_justesen_code(32)),
        ("justesen-n64", make_justesen_code(64)),
    ]


def _noisy_batch(code: BinaryCode, rng, count: int = 24) -> np.ndarray:
    """Random codeword batch: one third clean, one third lightly corrupted
    (within the guaranteed radius), one third random noise (rows that may
    legitimately fail)."""
    msgs = rng.integers(0, 2, size=(count, code.k), dtype=np.uint8)
    words = code.encode_many(msgs)
    correctable = code.max_correctable_errors()
    for i in range(count):
        if i % 3 == 1 and correctable > 0:
            errors = int(rng.integers(1, correctable + 1))
            positions = rng.choice(code.n, errors, replace=False)
            words[i, positions] ^= 1
        elif i % 3 == 2:
            words[i] = rng.integers(0, 2, size=code.n, dtype=np.uint8)
    return words


@pytest.mark.parametrize("name,code", _binary_codes(),
                         ids=[n for n, _ in _binary_codes()])
class TestBinaryCodeParity:
    def test_encode_many_matches_encode(self, name, code, rng):
        msgs = rng.integers(0, 2, size=(17, code.k), dtype=np.uint8)
        batch = code.encode_many(msgs)
        assert batch.shape == (17, code.n)
        for i in range(17):
            assert np.array_equal(batch[i], code.encode(msgs[i])), \
                f"{name}: encode_many row {i} diverges from encode"

    def test_decode_many_flagged_matches_decode(self, name, code):
        rng = make_rng(hash(name) & 0xFFFF)
        words = _noisy_batch(code, rng)
        decoded, failed = code.decode_many_flagged(words)
        saw_failure = False
        for i, word in enumerate(words):
            try:
                expected = code.decode(word)
            except DecodingFailure:
                saw_failure = True
                assert failed[i], \
                    f"{name}: row {i} raises per-word but batch flag unset"
                assert not decoded[i].any(), \
                    f"{name}: failed row {i} must decode all-zero"
            else:
                assert not failed[i], \
                    f"{name}: row {i} decodes per-word but batch flagged it"
                assert np.array_equal(decoded[i], expected), \
                    f"{name}: decode_many_flagged row {i} diverges"
        # at least the pure-noise rows of fragile codes should exercise the
        # failing-row path somewhere across the parametrised family
        if name.startswith("justesen"):
            assert saw_failure, f"{name}: batch contained no failing rows"

    def test_empty_batch(self, name, code):
        decoded, failed = code.decode_many_flagged(
            np.zeros((0, code.n), dtype=np.uint8))
        assert decoded.shape == (0, code.k)
        assert failed.shape == (0,)
        assert code.encode_many(
            np.zeros((0, code.k), dtype=np.uint8)).shape == (0, code.n)


class TestConcatenatedBatch:
    """A concatenated code accepts an exact, erasure-free codeword from its
    information-set bits and sends every other row through the two-stage
    decoder; a row's result may not depend on which rows share its call."""

    @pytest.mark.parametrize("n_bits", [32, 64, 250])
    def test_mixed_batch_matches_each_group_alone(self, n_bits):
        code = make_justesen_code(n_bits)
        rng = make_rng(n_bits)
        count = 12
        words = code.encode_many(
            rng.integers(0, 2, size=(3 * count, code.k), dtype=np.uint8))
        masks = np.zeros(words.shape, dtype=bool)
        radius = code.max_correctable_errors()
        for i in range(count, 3 * count):
            # dirty rows: within the radius, beyond it, or pure noise
            if i % 3 == 0:
                words[i] = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            else:
                errors = radius if i % 3 == 1 else 3 * radius + 1
                flip = rng.choice(code.n, errors, replace=False)
                words[i, flip] ^= 1
        erased = np.arange(2 * count, 3 * count)
        for i in erased:
            masks[i, rng.choice(code.n, radius, replace=False)] = True
        # clean codewords with declared erasures take the two-stage path:
        # one within the erasure radius, one wholly erased, which carries
        # no information and must fail
        words[erased[:2]] = words[:2]
        masks[erased[1]] = True
        groups = [np.arange(count), np.arange(count, 2 * count), erased]
        order = rng.permutation(3 * count)
        decoded, failed = code.decode_many_flagged(words[order],
                                                   erasures=masks[order])
        alone_out = np.zeros((3 * count, code.k), dtype=np.uint8)
        alone_failed = np.zeros(3 * count, dtype=bool)
        for rows in groups:
            group_masks = masks[rows] if masks[rows].any() else None
            alone_out[rows], alone_failed[rows] = code.decode_many_flagged(
                words[rows], erasures=group_masks)
        assert np.array_equal(decoded, alone_out[order])
        assert np.array_equal(failed, alone_failed[order])
        assert not alone_failed[:count].any()
        assert not alone_failed[erased[0]] and alone_failed[erased[1]]
        assert alone_failed[count:2 * count].any()

    @pytest.mark.parametrize("n_bits", [32, 96, 250])
    def test_encode_many_rejects_wrong_message_length(self, n_bits):
        code = make_justesen_code(n_bits)
        for k in (code.k - 1, code.k + 1):
            with pytest.raises(ValueError):
                code.encode_many(np.zeros((3, k), dtype=np.uint8))


class TestReedSolomonSymbolParity:
    """The symbol-level RS codec (int64 symbols, not bits) has its own
    batched pipeline (batch Chien/Forney); check it against per-word
    decode on clean, correctable and hopeless rows."""

    @pytest.fixture
    def codec(self):
        return ReedSolomonCodec(GF2m(8), n=40, k=20)

    def test_correct_many_matches_decode(self, codec, rng):
        count = 30
        msgs = rng.integers(0, 256, size=(count, codec.k))
        words = codec.encode_many(msgs)
        for i in range(count):
            if i % 3 == 1:
                errors = int(rng.integers(1, codec.t + 1))
                positions = rng.choice(codec.n, errors, replace=False)
                words[i, positions] ^= rng.integers(1, 256, errors)
            elif i % 3 == 2:
                words[i] = rng.integers(0, 256, codec.n)
        decoded, failed = codec.decode_many_flagged(words)
        for i in range(count):
            try:
                expected = codec.decode(words[i])
            except DecodingFailure:
                assert failed[i]
                assert not decoded[i].any()
            else:
                assert not failed[i]
                assert np.array_equal(decoded[i], expected)

    def test_correct_many_leaves_failed_rows_unmodified(self, codec, rng):
        words = rng.integers(0, 256, size=(5, codec.n))
        corrected, failed = codec.correct_many(words)
        assert np.array_equal(corrected[failed], words[failed])


class TestLDCEncodeParity:
    """Hadamard and Reed–Muller are locally decodable (symbol) codes; their
    batched encoders must match the per-word evaluation exactly."""

    def test_hadamard(self, rng):
        ldc = HadamardLDC(k=6)
        msgs = rng.integers(0, 2, size=(13, ldc.k))
        batch = ldc.encode_many(msgs)
        for i in range(13):
            assert np.array_equal(batch[i], ldc.encode(msgs[i]))

    def test_reed_muller(self, rng):
        ldc = ReedMullerLDC(p=7, m=2, degree=2)
        msgs = rng.integers(0, ldc.p, size=(11, ldc.k))
        batch = ldc.encode_many(msgs)
        assert batch.shape == (11, ldc.n)
        for i in range(11):
            assert np.array_equal(batch[i], ldc.encode(msgs[i]))
