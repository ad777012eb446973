"""Frozen pre-refactor reference implementations.

These are the seed repository's per-bit / per-word code paths, kept verbatim
so the perf suite always measures the batched kernels against the exact
semantics they replaced (and so the parity assertions inside the benchmarks
keep both sides honest).  Nothing outside ``repro.perf`` should import these
— production call sites use the packed/batched primitives.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cliquesim.network import CongestedClique
from repro.coding.interfaces import DecodingFailure
from repro.coding.ldc_interfaces import LocalDecodingFailure
from repro.coding.linear import LinearBlockCode
from repro.core.routing import (BatchedRoutingResult, WavePlan, _per_trial,
                                _ragged)
from repro.fields.gfp import PrimeField
from repro.utils.rng import make_rng


def decode_many_loop(code, words: np.ndarray):
    """Per-word decode loop: the pre-refactor `decode_many_flagged` shape.

    Works for anything with a ``decode`` raising :class:`DecodingFailure`
    (both :class:`BinaryCode` and the symbol-level Reed–Solomon codec).
    """
    words = np.asarray(words)
    count = words.shape[0]
    out = np.zeros((count, code.k), dtype=words.dtype)
    failed = np.zeros(count, dtype=bool)
    for i in range(count):
        try:
            out[i] = code.decode(words[i])
        except DecodingFailure:
            failed[i] = True
    return out, failed


def rs_encode_poly_mod(codec, messages: np.ndarray) -> np.ndarray:
    """The seed Reed–Solomon encoder: one polynomial long division
    (``field.poly_mod`` against the generator) per word.

    `ReedSolomonCodec.encode` now delegates to the parity-matrix
    `encode_many`, so racing `encode` in a loop would measure the new
    kernel against itself; this copy preserves the replaced algorithm
    (which is also why it reaches into ``codec._generator_poly``).
    """
    messages = np.asarray(messages, dtype=np.int64)
    field = codec.field
    n_parity = codec.n - codec.k
    out = np.zeros((messages.shape[0], codec.n), dtype=np.int64)
    for i, msg in enumerate(messages):
        shifted = np.concatenate(
            [np.zeros(n_parity, dtype=np.int64), msg])
        remainder = field.poly_mod(shifted, codec._generator_poly)
        remainder = np.concatenate(
            [remainder,
             np.zeros(n_parity - len(remainder), dtype=np.int64)])
        codeword = shifted.copy()
        codeword[:n_parity] = remainder  # char 2: c = shifted + rem
        out[i] = codeword
    return out


def concatenated_encode_many(code, messages: np.ndarray) -> np.ndarray:
    """The pre-table ``ConcatenatedCode.encode_many``, verbatim: one batched
    Reed–Solomon encode of every row's symbols (a GF(2^m) log/antilog
    matmul), then the inner code's codebook gather per outer symbol.
    ``ConcatenatedCode.encode_many`` must return exactly what it returns."""
    messages = np.asarray(messages, dtype=np.uint8)
    if messages.size == 0:
        return np.zeros((0, code.n), dtype=np.uint8)
    count = messages.shape[0]
    m = code.inner.k
    weights = (1 << np.arange(m, dtype=np.int64))
    symbols = (messages.reshape(count, code.outer.k, m).astype(np.int64)
               * weights[None, None, :]).sum(axis=2)
    outer_words = code.outer.encode_many(symbols)
    symbol_bits = ((outer_words[:, :, None] >> np.arange(m)[None, None, :])
                   & 1).astype(np.uint8)
    flat = symbol_bits.reshape(count * code.outer.n, m)
    blocks = code.inner.encode_many(flat)
    return blocks.reshape(count, code.n)


def rs_correct_many_perrow_bm(codec, words: np.ndarray):
    """The PR-2 ``ReedSolomonCodec.correct_many``: batched syndromes, Chien
    and Forney, but the error-locator solve still runs the *scalar*
    Berlekamp–Massey once per dirty row.  Frozen as the reference for the
    batched multi-row BM kernel (which is why it reaches into the codec's
    private helpers)."""
    words = np.asarray(words, dtype=np.int64)
    if words.ndim != 2 or words.shape[1] != codec.n:
        raise ValueError(f"expected shape (*, {codec.n})")
    count = words.shape[0]
    corrected = words.copy()
    failed = np.zeros(count, dtype=bool)
    syndromes = codec.syndromes_many(words)
    dirty = np.flatnonzero(syndromes.any(axis=1))
    if dirty.size == 0:
        return corrected, failed
    field = codec.field
    n_synd = codec.n - codec.k
    synd = syndromes[dirty]

    # error locators, one small scalar solve per dirty row
    sigmas = np.zeros((dirty.size, codec.t + 1), dtype=np.int64)
    num_errors = np.zeros(dirty.size, dtype=np.int64)
    ok = np.ones(dirty.size, dtype=bool)
    for row in range(dirty.size):
        sigma, length = codec._berlekamp_massey(synd[row].tolist())
        if length > codec.t or np.any(sigma[codec.t + 1:]):
            ok[row] = False
            continue
        sigmas[row, :min(sigma.size, codec.t + 1)] = sigma[:codec.t + 1]
        num_errors[row] = length

    # batch Chien search: evaluate every locator at every position
    evals = codec._eval_many(sigmas, codec._alpha_inv_positions)
    err = (evals == 0)
    ok &= err.sum(axis=1) == num_errors

    # batch Forney: omega = S * sigma mod x^{2t}, sigma' formal derivative
    omega = np.zeros((dirty.size, n_synd), dtype=np.int64)
    for b in range(min(codec.t, n_synd - 1) + 1):
        omega[:, b:] ^= field.mul(sigmas[:, b][:, None],
                                  synd[:, :n_synd - b])
    deriv = sigmas[:, 1:].copy()
    deriv[:, 1::2] = 0
    if deriv.shape[1] == 0:
        deriv = np.zeros((dirty.size, 1), dtype=np.int64)
    omega_vals = codec._eval_many(omega, codec._alpha_inv_positions)
    deriv_vals = codec._eval_many(deriv, codec._alpha_inv_positions)
    ok &= ~np.any(err & (deriv_vals == 0), axis=1)  # Forney denominator
    apply = err & ok[:, None]
    magnitudes = field.mul(
        omega_vals, field.inv(np.where(deriv_vals == 0, 1, deriv_vals)))
    patched = words[dirty] ^ np.where(apply, magnitudes, 0)

    # verify: all syndromes of every corrected word must vanish
    ok &= ~field.matmul(patched, codec._syndrome_matrix).any(axis=1)

    good = dirty[ok]
    corrected[good] = patched[ok]
    failed[dirty[~ok]] = True
    return corrected, failed


def rs_correct_many_erasures_scalar(codec, words: np.ndarray,
                                    erasures: np.ndarray):
    """Per-row errors-and-erasures decoding: each word goes through the
    scalar Gamma-seeded Berlekamp–Massey pipeline
    (:meth:`ReedSolomonCodec.correct` with its ``erasures`` argument),
    one python-level decode at a time.  The reference the batched
    ``_correct_many_erasures`` kernel races — and, because the scalar and
    batched pipelines are implemented independently, a parity assertion
    between them checks the algebra twice."""
    words = np.asarray(words, dtype=np.int64)
    erasures = np.asarray(erasures, dtype=bool)
    if words.shape != erasures.shape:
        raise ValueError("words and erasures must have matching shapes")
    count = words.shape[0]
    corrected = words.copy()
    failed = np.zeros(count, dtype=bool)
    for i in range(count):
        try:
            corrected[i] = codec.correct(words[i], erasures=erasures[i])
        except DecodingFailure:
            failed[i] = True
    return corrected, failed


def stage_symbols_uint8(symbols: np.ndarray, sym_bits: int) -> np.ndarray:
    """The PR-2 compiler staging shape: bit-expand a ``(..., count)`` symbol
    tensor into a ``(..., count * sym_bits)`` uint8 tensor (the scatter /
    answer staging of the adaptive compiler) and pack it into word planes at
    the transport boundary.  Frozen as the reference for the direct
    ``pack_symbols`` plane staging."""
    from repro.utils.bits import pack_bits

    symbols = np.asarray(symbols, dtype=np.int64)
    bits = ((symbols[..., None] >> np.arange(sym_bits)) & 1).astype(np.uint8)
    return pack_bits(bits.reshape(symbols.shape[:-1] + (-1,)))


def full_decode_table_oneshot(code: LinearBlockCode) -> np.ndarray:
    """The pre-slicing ``LinearBlockCode._full_decode_table``: the
    distance of every packed received word to every codeword in one
    ``(2^n, 2^k)`` XOR block, then one ``argmin`` per row."""
    every = np.arange(1 << code.n, dtype=np.int64)
    codebook = code._codebook.astype(np.int64) \
        @ (np.int64(1) << np.arange(code.n, dtype=np.int64))
    return np.bitwise_count(every[:, None] ^ codebook[None, :]).argmin(axis=1)


def search_linear_code_loop(k: int, n: int, target_distance: int,
                            seed: int = 0, attempts: int = 4000):
    """The pre-kernel ``search_linear_code`` without its cache: one
    :class:`LinearBlockCode` built (and its codebook enumerated) per
    attempt.  Frozen as the oracle the array search kernel must match
    generator for generator, failure message included."""
    rng = make_rng(seed ^ (k << 20) ^ (n << 10) ^ target_distance)
    best = None
    for _ in range(attempts):
        a = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
        generator = np.concatenate([np.eye(k, dtype=np.uint8), a], axis=1)
        try:
            code = LinearBlockCode(generator)
        except ValueError:
            continue
        if best is None or code.min_distance > best.min_distance:
            best = code
        if best.min_distance >= target_distance:
            break
    if best is None or best.min_distance < target_distance:
        raise ValueError(
            f"no [{n},{k}] code with distance >= {target_distance} found; "
            f"best was {best.min_distance if best else 0}")
    return best


def cover_free_violations_loop(family, constraints, delta: float) -> list:
    """The per-position ``CoverFreeFamily.violations``: one
    ``uncovered_fraction`` call per constraint position.  The array check
    must return exactly this list."""
    bad = []
    for group in constraints:
        group = list(group)
        for position, target in enumerate(group):
            others = group[:position] + group[position + 1:]
            if family.uncovered_fraction(target, others) < 1.0 - delta:
                bad.append((target, tuple(group)))
    return bad


def tournament_matching_loop(n: int, round_index: int) -> np.ndarray:
    """Perfect matching number ``round_index`` of the circle method, one
    pair at a time: the loop that
    :func:`~repro.adversary.strategies.tournament_matchings` replaced."""
    mask = np.zeros((n, n), dtype=bool)
    m = n if n % 2 == 0 else n + 1
    r = round_index % (m - 1)

    # circle method over labels 0..m-1 where label m-1 is fixed
    def real(label: int) -> Optional[int]:
        return label if label < n else None

    a, b = real(m - 1), real(r)
    if a is not None and b is not None and a != b:
        mask[a, b] = mask[b, a] = True
    for i in range(1, m // 2):
        x = real((r + i) % (m - 1))
        y = real((r - i) % (m - 1))
        if x is not None and y is not None and x != y:
            mask[x, y] = mask[y, x] = True
    return mask


def greedy_symmetric_selection_loop(priorities: np.ndarray, budget: int,
                                    rng: np.random.Generator) -> np.ndarray:
    """The pre-rewrite ``greedy_symmetric_selection``: every edge of the
    argsorted order is visited, reading and writing numpy arrays one
    scalar at a time.  Frozen as the oracle the list walk must match on
    the mask and on the state it leaves ``rng`` in."""
    n = priorities.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    if budget <= 0:
        return mask
    iu, iv = np.triu_indices(n, k=1)
    scores = priorities[iu, iv].astype(np.float64)
    scores += rng.random(scores.size) * 1e-9  # tie-break
    order = np.argsort(-scores)
    degrees = np.zeros(n, dtype=np.int64)
    for idx in order:
        u, v = int(iu[idx]), int(iv[idx])
        if degrees[u] < budget and degrees[v] < budget:
            mask[u, v] = mask[v, u] = True
            degrees[u] += 1
            degrees[v] += 1
    return mask


def sketch_add_scalar_loop(spec, seed: int, ids: np.ndarray,
                           freqs: np.ndarray):
    """The scalar sketch update path: one ``KSparseSketch.add`` per
    ``(id, frequency)`` pair, each hashing the element row by row in
    Python.  Frozen as the oracle that ``SketchPlaneStack.add_many_lockstep``
    (through ``SketchPlanes.add_many``) races and must equal."""
    from repro.sketch import KSparseSketch

    sketch = KSparseSketch(spec, seed)
    for element_id, freq in zip(ids.tolist(), freqs.tolist()):
        sketch.add(int(element_id), int(freq))
    return sketch


def exchange_bits_staged(net: CongestedClique, bits: np.ndarray,
                         present: np.ndarray, label: str = "") -> np.ndarray:
    """The seed `exchange_bits`: one ``(n, n, take)`` uint8 staging tensor
    plus a weight multiply-sum per chunk, one engine round at a time."""
    bits = np.asarray(bits, dtype=np.uint8)
    present = np.asarray(present, dtype=bool)
    if bits.ndim != 3 or bits.shape[:2] != (net.n, net.n):
        raise ValueError(f"expected shape ({net.n}, {net.n}, width)")
    width = bits.shape[2]
    out = np.zeros_like(bits)
    for start in range(0, width, net.bandwidth):
        take = min(net.bandwidth, width - start)
        weights = (np.int64(1) << np.arange(take, dtype=np.int64))
        chunk = (bits[:, :, start:start + take].astype(np.int64)
                 * weights[None, None, :]).sum(axis=2)
        intended = np.where(present, chunk, -1)
        got = net.round(intended, width=take, label=f"{label}[bits{start}]")
        got = np.where(got < 0, 0, got)
        out[:, :, start:start + take] = \
            ((got[:, :, None] >> np.arange(take)[None, None, :]) & 1
             ).astype(np.uint8)
    return out


def exchange_chunked(net: CongestedClique, intended: np.ndarray,
                     width: int, label: str = "") -> np.ndarray:
    """The seed `exchange`: shift/mask per chunk but one python-level engine
    round (with full adversary/validation overhead) per chunk."""
    intended = np.asarray(intended, dtype=np.int64)
    if width <= net.bandwidth:
        return net.round(intended, width, label)
    chunks = []
    missing = np.zeros((net.n, net.n), dtype=bool)
    absent = intended < 0
    shift = 0
    part = 0
    while shift < width:
        take = min(net.bandwidth, width - shift)
        chunk = (intended >> shift) & ((1 << take) - 1)
        chunk = np.where(absent, -1, chunk)
        got = net.round(chunk, take, label=f"{label}[chunk{part}]")
        missing |= got < 0
        chunks.append((np.where(got < 0, 0, got), shift))
        shift += take
        part += 1
    out = np.zeros((net.n, net.n), dtype=np.int64)
    for chunk, offset in chunks:
        out |= chunk << offset
    return np.where(missing, -1, out)


@dataclass
class _Chunk:
    source: int
    slot: int
    index: int
    bits: np.ndarray
    targets: Tuple[int, ...]


def schedule_blocks_reference(chunks: List[_Chunk],
                              num_blocks: int
                              ) -> List[List[Tuple[_Chunk, int]]]:
    """Original set-based greedy, one chunk at a time; the oracle the
    blocks-mode scheduler must match placement-for-placement."""
    batches: List[List[Tuple[_Chunk, int]]] = []
    source_used: List[Dict[int, set]] = []
    target_used: List[Dict[int, set]] = []
    first_open: Dict[int, int] = defaultdict(int)
    for chunk in chunks:
        batch_index = first_open[chunk.source]
        placed = False
        while not placed:
            if batch_index == len(batches):
                batches.append([])
                source_used.append(defaultdict(set))
                target_used.append(defaultdict(set))
            used_src = source_used[batch_index][chunk.source]
            if len(used_src) < num_blocks:
                for block in range(num_blocks):
                    if block in used_src:
                        continue
                    if any(block in target_used[batch_index][t]
                           for t in chunk.targets):
                        continue
                    batches[batch_index].append((chunk, block))
                    used_src.add(block)
                    for t in chunk.targets:
                        target_used[batch_index][t].add(block)
                    placed = True
                    break
            if not placed:
                if len(used_src) >= num_blocks and \
                        batch_index == first_open[chunk.source]:
                    first_open[chunk.source] = batch_index + 1
                batch_index += 1
    return batches


def schedule_runs_reference(srcs, tgts, counts, num_blocks: int, fanout):
    """:func:`schedule_blocks_reference` in the signature of the blocks-mode
    scheduler ``repro.core.routing._grouped_greedy``: message ``m`` becomes
    a run of ``counts[m]`` chunks from ``srcs[m]`` to its ``fanout[m]``
    targets (the next entries of ``tgts``), and the placements come back
    as per-chunk batch and block arrays in message order, plus the batch
    count."""
    ends = np.cumsum(fanout, dtype=np.int64).tolist()
    chunks = [_Chunk(source=int(src), slot=m, index=index,
                     bits=np.ones(1, dtype=np.uint8),
                     targets=tuple(int(t) for t in tgts[end - int(fan):end]))
              for m, (src, count, fan, end)
              in enumerate(zip(srcs, counts, fanout, ends))
              for index in range(int(count))]
    batches = schedule_blocks_reference(chunks, num_blocks)
    where = {id(chunk): (b, block)
             for b, placed in enumerate(batches) for chunk, block in placed}
    placements = np.array([where[id(c)] for c in chunks],
                          dtype=np.int64).reshape(-1, 2)
    return placements[:, 0], placements[:, 1], len(batches)


# The pre-kernel Reed–Muller line decoder, verbatim: Berlekamp–Welch with
# a descending error count, one Python Gaussian elimination per attempt.
# ``ReedMullerLDC.local_decode_many`` must return exactly what it returns
# (the coefficient at 0, or -1 where it raises).

def poly_divmod(field: PrimeField, numerator: np.ndarray,
                denominator: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Polynomial division over GF(p); coefficients low-to-high."""
    num = np.asarray(numerator, dtype=np.int64) % field.p
    den = np.asarray(denominator, dtype=np.int64) % field.p
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    if len(den) == 1 and den[0] == 0:
        raise ZeroDivisionError("division by zero polynomial")
    num = num.copy()
    d_den = len(den) - 1
    lead_inv = int(field.inv(int(den[-1])))
    quot = np.zeros(max(1, len(num) - d_den), dtype=np.int64)
    for i in range(len(num) - 1, d_den - 1, -1):
        coeff = num[i] * lead_inv % field.p
        if coeff:
            quot[i - d_den] = coeff
            num[i - d_den:i + 1] = (num[i - d_den:i + 1]
                                    - coeff * den) % field.p
    remainder = num[:d_den] if d_den > 0 else np.zeros(1, dtype=np.int64)
    return quot, remainder


def berlekamp_welch(field: PrimeField, xs: np.ndarray, ys: np.ndarray,
                    degree: int) -> np.ndarray:
    """Recover a polynomial of degree <= ``degree`` from noisy evaluations.

    Given ``q`` distinct points with at most ``e = (q - degree - 1) // 2``
    wrong values, returns the coefficient vector.  Raises
    :class:`LocalDecodingFailure` when no consistent polynomial exists.
    """
    xs = np.asarray(xs, dtype=np.int64) % field.p
    ys = np.asarray(ys, dtype=np.int64) % field.p
    q = len(xs)
    if q != len(ys):
        raise ValueError("xs and ys must have the same length")
    max_errors = (q - degree - 1) // 2
    if max_errors < 0:
        raise ValueError(f"{q} points cannot determine degree {degree}")
    for e in range(max_errors, -1, -1):
        # unknowns: E (monic, degree e -> e coefficients) and Q (degree <= degree+e)
        n_q = degree + e + 1
        # equation per point: Q(x) - y * (E(x)) = 0 with E monic:
        #   sum_j Q_j x^j - y * (x^e + sum_{j<e} E_j x^j) = 0
        powers = np.ones((q, max(n_q, e + 1)), dtype=np.int64)
        for j in range(1, powers.shape[1]):
            powers[:, j] = powers[:, j - 1] * xs % field.p
        A = np.zeros((q, n_q + e), dtype=np.int64)
        A[:, :n_q] = powers[:, :n_q]
        if e > 0:
            A[:, n_q:] = (-(ys[:, None] * powers[:, :e])) % field.p
        b = ys * powers[:, e] % field.p
        try:
            solution = field.solve(A, b)
        except ValueError:
            continue
        q_coeffs = solution[:n_q]
        e_coeffs = np.concatenate(
            [solution[n_q:], np.array([1], dtype=np.int64)])
        quot, rem = poly_divmod(field, q_coeffs, e_coeffs)
        if np.any(rem % field.p):
            continue
        # verify against the points within the error budget
        fitted = field.poly_eval(quot[:degree + 1], xs)
        if int(np.count_nonzero(fitted != ys)) <= e:
            out = np.zeros(degree + 1, dtype=np.int64)
            out[:min(len(quot), degree + 1)] = quot[:degree + 1]
            return out
    raise LocalDecodingFailure("Berlekamp–Welch found no consistent polynomial")


def rm_line_decode_loop(ldc, rows: np.ndarray) -> np.ndarray:
    """Line decoding one row at a time through :func:`berlekamp_welch`:
    g(0) of each row of a :class:`ReedMullerLDC` line, or -1 where it
    raises."""
    ts = np.arange(1, ldc.p, dtype=np.int64)
    out = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(np.asarray(rows, dtype=np.int64) % ldc.p):
        try:
            out[i] = berlekamp_welch(ldc.field, ts, row, ldc.degree)[0]
        except LocalDecodingFailure:
            out[i] = -1
    return out


# The pre-panel matrix inverse, verbatim: Gauss–Jordan on [A | I], one
# column at a time, every step rewriting the whole size x 2*size array.
# ``PrimeField.inv_matrix`` must return exactly what it returns (the
# inverse is unique) and raise exactly where it raises.

def inv_matrix_gauss_jordan(field: PrimeField,
                            matrix: np.ndarray) -> np.ndarray:
    """Matrix inverse mod p via Gauss–Jordan on [A | I] (one pass for
    all columns — used for interpolation operators on hot paths)."""
    matrix = (np.asarray(matrix, dtype=np.int64) % field.p)
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError("matrix must be square")
    aug = np.concatenate([matrix.copy(),
                          np.eye(size, dtype=np.int64)], axis=1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if aug[r, col] % field.p != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular over GF(p)")
        aug[[col, pivot]] = aug[[pivot, col]]
        inv = pow(int(aug[col, col]), field.p - 2, field.p)
        aug[col] = (aug[col] * inv) % field.p
        mask = np.arange(size) != col
        factors = aug[mask, col].copy()
        aug[mask] = (aug[mask] - factors[:, None] * aug[col][None, :]) % field.p
    return aug[:, size:]


# The blocks-mode wave kernel before row staging, verbatim: every codeword
# bit travels as its own int64 under its own (trial, sender, receiver) key,
# staged with a float ``bincount`` (``bitwise_or.at`` past 52 planes) and
# gathered with three-index fancy indexing.  ``repro.core.routing.
# route_waves`` must return exactly what it returns.

def _stage_per_bit(keys: np.ndarray, shifted: np.ndarray, trials: int,
                   n: int, width: int) -> np.ndarray:
    """``(trials, n, n)`` intended payloads: each row's shifted bits land in
    cell ``keys``, ``-1`` where nothing is sent.  Each (trial, sender,
    receiver) cell gets at most one bit per plane, so summing equals
    OR-ing, and float64 sums stay exact up to 52 planes."""
    size = trials * n * n
    if width <= 52:
        values = np.bincount(keys, weights=shifted.ravel(),
                             minlength=size).astype(np.int64)
    else:
        values = np.zeros(size, dtype=np.int64)
        np.bitwise_or.at(values, keys, shifted.ravel())
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.where(present, values, -1).reshape(trials, n, n)


def route_waves_per_bit(send_round, n: int, bandwidth: int, code,
                        length: int, plan: WavePlan, bits: np.ndarray,
                        label: str) -> BatchedRoutingResult:
    """Run ``plan``'s blocks-mode waves, one codeword bit per index.

    ``bits[t, m]`` is trial ``t``'s payload of message ``m``, zero-padded
    to a common length.  ``send_round(intended, width, label)`` moves one
    ``(trials, n, n)`` round and returns the delivered stack.  Each wave
    packs up to ``bandwidth`` batches into bit-planes (Lemma 2.9) and takes
    two rounds — source to relay block, relay block to target — around one
    batched encode and one batched decode of every trial's rows."""
    trials = plan.batch.shape[0]
    capacity = max(1, code.k)
    arange_cap = np.arange(capacity)
    arange_len = np.arange(length)
    last_col = max(0, bits.shape[2] - 1)
    erasure_aware = getattr(code, "supports_erasures", False)
    # ragged fan-out: chunk c expands into fanout rows starting at row_ptr
    chunk_fan = plan.fanout[plan.chunk_msg]
    row_ptr = np.cumsum(chunk_fan) - chunk_fan
    pair_ptr = np.cumsum(plan.fanout) - plan.fanout
    num_rows = int(chunk_fan.sum())
    decoded_all = np.zeros((trials, num_rows, capacity), dtype=np.uint8)
    failed_all = np.zeros((trials, num_rows), dtype=bool)
    dropped = np.zeros(trials, dtype=np.int64)
    erased = np.zeros(trials, dtype=np.int64)
    waves = range(0, plan.num_batches, bandwidth)
    for wave, lo in enumerate(waves):
        width = min(bandwidth, plan.num_batches - lo)
        wl = f"{label}/wave{wave}"
        tr, ch = np.nonzero((plan.batch >= lo) & (plan.batch < lo + width))
        planes = plan.batch[tr, ch] - lo
        msgs = plan.chunk_msg[ch]
        srcs = plan.sources[tr, msgs]
        relay = plan.block[tr, ch][:, None] * length + arange_len

        # one batched encode of every trial's chunks in the wave
        col = np.minimum(plan.chunk_start[ch][:, None] + arange_cap,
                         last_col)
        valid = arange_cap < plan.chunk_size[ch][:, None]
        payload = np.where(valid, bits[tr[:, None], msgs[:, None], col], 0)
        del col, valid
        codewords = code.encode_many(payload).astype(np.int64)
        del payload

        # round 1: source -> relay block
        keys = (((tr * n + srcs) * n)[:, None] + relay).ravel()
        intended = _stage_per_bit(keys, codewords << planes[:, None], trials,
                                  n, width)
        del keys, codewords
        delivered = send_round(intended, width, f"{wl}/r1")
        del intended
        got = delivered[tr[:, None], srcs[:, None], relay]
        del delivered
        lost = got < 0
        if lost.any():
            dropped += _per_trial(tr, lost, trials)
        relayed = np.where(lost, 0, (got >> planes[:, None]) & 1)
        del got, lost

        # fan out one row per (chunk, target)
        rows = row_ptr[ch]
        pairs = pair_ptr[msgs]
        fan = chunk_fan[ch]
        if int(fan.sum()) != fan.size:
            expand, within = _ragged(fan)
            tr, planes, relay, relayed = (tr[expand], planes[expand],
                                          relay[expand], relayed[expand])
            rows = rows[expand] + within
            pairs = pairs[expand] + within
        tgts = plan.targets[tr, pairs]

        # round 2: relay block -> target
        keys = ((tr[:, None] * n + relay) * n + tgts[:, None]).ravel()
        intended = _stage_per_bit(keys, relayed << planes[:, None], trials,
                                  n, width)
        del keys, relayed
        delivered = send_round(intended, width, f"{wl}/r2")
        del intended
        got = delivered[tr[:, None], relay, tgts[:, None]]
        del delivered
        erase = got < 0
        received = np.where(erase, 0, (got >> planes[:, None]) & 1)\
            .astype(np.uint8)
        del got
        # round-2 drops are receiver-known erasures: erasure-aware codes
        # get them for the doubled pure-drop radius (gated so drop-free
        # waves take the plain decode path)
        declared = {}
        if erase.any():
            lost = _per_trial(tr, erase, trials)
            dropped += lost
            if erasure_aware:
                erased += lost
                declared["erasures"] = erase
        decoded, failed = code.decode_many_flagged(received, **declared)
        del received, erase, declared
        decoded_all[tr, rows] = decoded[:, :capacity]
        failed_all[tr, rows] = np.asarray(failed, dtype=bool)

    row_chunk, within = _ragged(chunk_fan)
    return BatchedRoutingResult(
        decoded=decoded_all, failed=failed_all,
        row_pair=pair_ptr[plan.chunk_msg[row_chunk]] + within,
        row_start=plan.chunk_start[row_chunk],
        row_size=plan.chunk_size[row_chunk],
        pair_msg=np.repeat(np.arange(plan.fanout.size), plan.fanout),
        sizes=plan.sizes, rounds=2 * len(waves), batches=plan.num_batches,
        codeword_bits=length, dropped=dropped, erased=erased)
