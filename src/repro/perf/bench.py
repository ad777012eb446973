"""Microbenchmarks for the payload path: codec kernels, packed transport,
end-to-end protocol throughput.

Every benchmark pits the batched/packed implementation against the frozen
pre-refactor reference (``repro.perf.reference``) on identical inputs,
asserts the outputs agree, and reports both throughputs plus the speedup.
``run_suite`` returns plain dicts; ``write_results`` serialises them to the
``BENCH_coding.json`` / ``BENCH_network.json`` artifacts that track the perf
trajectory, and ``check_regression`` compares a fresh run against a
committed baseline (on *speedups*, which transfer across machines, not raw
throughput, which does not).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.adversary.budget import greedy_symmetric_selection
from repro.cliquesim.network import CongestedClique
from repro.coding import linear
from repro.coding.justesen import make_justesen_code
from repro.coding.linear import best_effort_linear_code
from repro.coding.reed_muller import cached_reed_muller
from repro.coding.reed_solomon import ReedSolomonBinaryCode, ReedSolomonCodec
from repro.core import AllToAllInstance, make_protocol, verify_beliefs
from repro.fields.gf2m import GF2m
from repro.perf import reference
from repro.utils.rng import make_rng

SCHEMA_VERSION = 1

SUITE_FILES = {
    "coding": "BENCH_coding.json",
    "network": "BENCH_network.json",
}


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(name: str, items: int, unit: str, reference_seconds: float,
           batched_seconds: float) -> Dict:
    out = {
        "items": items,
        "unit": unit,
        "reference_seconds": round(reference_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "reference_items_per_sec": round(items / reference_seconds, 2),
        "batched_items_per_sec": round(items / batched_seconds, 2),
        "speedup": round(reference_seconds / batched_seconds, 2),
    }
    return out


def _corrupt_rows(words: np.ndarray, max_errors: int, alphabet: int,
                  rng, fraction: float = 0.25) -> np.ndarray:
    """Corrupt every 1/fraction-th row with up to ``max_errors`` symbol
    errors — the transport-realistic mix of mostly-clean batches."""
    noisy = words.copy()
    stride = max(1, int(round(1 / fraction)))
    for i in range(0, words.shape[0], stride):
        errors = int(rng.integers(1, max_errors + 1))
        positions = rng.choice(words.shape[1], errors, replace=False)
        if alphabet == 2:
            noisy[i, positions] ^= 1
        else:
            noisy[i, positions] ^= rng.integers(1, alphabet, errors)
    return noisy


# -- coding suite -------------------------------------------------------------

def bench_rs_batch_bm(count: int, repeats: int) -> Dict:
    """Heavily-corrupted batch decode: *every* row is dirty (and a quarter
    are corrupted beyond the decoding radius), so the locator solve
    dominates.  Races the batched multi-row Berlekamp–Massey pipeline
    against the frozen PR-2 path whose BM still runs per dirty row in
    Python; parity is asserted on corrected words *and* failure flags, so
    the beyond-radius rows keep both sides honest."""
    codec = ReedSolomonCodec(GF2m(8), n=60, k=40)
    rng = make_rng(106)
    msgs = rng.integers(0, 256, size=(count, codec.k))
    noisy = codec.encode_many(msgs)
    for i in range(count):
        # rows i % 4 == 3 get up to 2t errors: mostly beyond the radius
        high = 2 * codec.t if i % 4 == 3 else codec.t
        errors = int(rng.integers(1, high + 1))
        positions = rng.choice(codec.n, errors, replace=False)
        noisy[i, positions] ^= rng.integers(1, 256, errors)
    ref_out = reference.rs_correct_many_perrow_bm(codec, noisy)
    batch_out = codec.correct_many(noisy)
    assert np.array_equal(ref_out[0], batch_out[0])
    assert np.array_equal(ref_out[1], batch_out[1])
    assert batch_out[1].any()  # the beyond-radius rows must flag
    ref = _best_of(lambda: reference.rs_correct_many_perrow_bm(codec, noisy),
                   1)
    batched = _best_of(lambda: codec.correct_many(noisy), repeats)
    return _entry("rs-batch-bm", count, "words", ref, batched)


def bench_rs_erasure_decode(count: int, repeats: int) -> Dict:
    """Errors-and-erasures batch decode under a transport-realistic mix:
    every row carries erasures (dropped-symbol positions, as the transport
    flags them), most also carry random symbol errors, and a quarter are
    pushed past the combined radius ``2e + f <= d - 1`` so the failure
    flags race too.  Reference is the scalar Gamma-seeded pipeline run one
    word at a time; the two pipelines are implemented independently, so
    the parity assertion double-checks the algebra."""
    codec = ReedSolomonCodec(GF2m(8), n=60, k=40)
    rng = make_rng(107)
    d = codec.n - codec.k + 1
    msgs = rng.integers(0, 256, size=(count, codec.k))
    noisy = codec.encode_many(msgs)
    masks = np.zeros((count, codec.n), dtype=bool)
    for i in range(count):
        if i % 4 == 3:
            # beyond the radius: more erasures than the distance allows
            f = int(rng.integers(d, codec.n + 1))
            errors = 0
        else:
            # in-regime mix: f erasures plus e errors with 2e + f <= d - 1
            f = int(rng.integers(1, d))
            errors = int(rng.integers(0, (d - 1 - f) // 2 + 1))
        positions = rng.choice(codec.n, f + errors, replace=False)
        masks[i, positions[:f]] = True
        noisy[i, positions[:f]] = rng.integers(0, 256, f)  # garbage under mask
        if errors:
            noisy[i, positions[f:]] ^= rng.integers(1, 256, errors)
    ref_out = reference.rs_correct_many_erasures_scalar(codec, noisy, masks)
    batch_out = codec.correct_many(noisy, erasures=masks)
    assert np.array_equal(ref_out[0], batch_out[0])
    assert np.array_equal(ref_out[1], batch_out[1])
    assert batch_out[1].any()       # beyond-radius rows must flag
    assert not batch_out[1].all()   # in-regime rows must decode
    ref = _best_of(
        lambda: reference.rs_correct_many_erasures_scalar(codec, noisy,
                                                          masks), 1)
    batched = _best_of(lambda: codec.correct_many(noisy, erasures=masks),
                       repeats)
    return _entry("rs-erasure-decode", count, "words", ref, batched)


def bench_rs_symbol_decode(count: int, repeats: int) -> Dict:
    codec = ReedSolomonCodec(GF2m(8), n=60, k=40)
    rng = make_rng(101)
    msgs = rng.integers(0, 256, size=(count, codec.k))
    noisy = _corrupt_rows(codec.encode_many(msgs), codec.t, 256, rng)
    ref_out = reference.decode_many_loop(codec, noisy)
    batch_out = codec.decode_many_flagged(noisy)
    assert np.array_equal(ref_out[0], batch_out[0])
    assert np.array_equal(ref_out[1], batch_out[1])
    ref = _best_of(lambda: reference.decode_many_loop(codec, noisy), 1)
    batched = _best_of(lambda: codec.decode_many_flagged(noisy), repeats)
    return _entry("rs-symbol-decode", count, "words", ref, batched)


def bench_rs_symbol_encode(count: int, repeats: int) -> Dict:
    codec = ReedSolomonCodec(GF2m(8), n=60, k=40)
    rng = make_rng(102)
    msgs = rng.integers(0, 256, size=(count, codec.k))
    # the reference is the seed's poly_mod long division, NOT encode in a
    # loop (encode now delegates to the batched kernel under test)
    assert np.array_equal(reference.rs_encode_poly_mod(codec, msgs),
                          codec.encode_many(msgs))
    ref = _best_of(lambda: reference.rs_encode_poly_mod(codec, msgs), 1)
    batched = _best_of(lambda: codec.encode_many(msgs), repeats)
    return _entry("rs-symbol-encode", count, "words", ref, batched)


def bench_rs_binary_decode(count: int, repeats: int) -> Dict:
    code = ReedSolomonBinaryCode(ReedSolomonCodec(GF2m(4), n=12, k=6))
    rng = make_rng(103)
    msgs = rng.integers(0, 2, size=(count, code.k), dtype=np.uint8)
    noisy = _corrupt_rows(code.encode_many(msgs), code.codec.t, 2, rng)
    ref_out = reference.decode_many_loop(code, noisy)
    batch_out = code.decode_many_flagged(noisy)
    assert np.array_equal(ref_out[0], batch_out[0])
    assert np.array_equal(ref_out[1], batch_out[1])
    ref = _best_of(lambda: reference.decode_many_loop(code, noisy), 1)
    batched = _best_of(lambda: code.decode_many_flagged(noisy), repeats)
    return _entry("rs-binary-decode", count, "words", ref, batched)


def bench_justesen_decode(count: int, repeats: int) -> Dict:
    code = make_justesen_code(250)
    rng = make_rng(104)
    msgs = rng.integers(0, 2, size=(count, code.k), dtype=np.uint8)
    noisy = _corrupt_rows(code.encode_many(msgs),
                          code.max_correctable_errors(), 2, rng)
    ref_out = reference.decode_many_loop(code, noisy)
    batch_out = code.decode_many_flagged(noisy)
    assert np.array_equal(ref_out[0], batch_out[0])
    assert np.array_equal(ref_out[1], batch_out[1])
    ref = _best_of(lambda: reference.decode_many_loop(code, noisy), 1)
    batched = _best_of(lambda: code.decode_many_flagged(noisy), repeats)
    return _entry("justesen-decode", count, "words", ref, batched)


def bench_justesen_encode(count: int, repeats: int) -> Dict:
    """Concatenated-code encode at free-logn-n512's routing code (L=32,
    k=8; a wave encodes 32768 rows there): the XOR of per-byte table
    gathers against the batched Reed–Solomon-then-inner composition it
    replaced.  The outputs are asserted equal first."""
    code = make_justesen_code(32)
    msgs = make_rng(107).integers(0, 2, size=(count, code.k), dtype=np.uint8)
    assert np.array_equal(reference.concatenated_encode_many(code, msgs),
                          code.encode_many(msgs))
    ref = _best_of(lambda: reference.concatenated_encode_many(code, msgs),
                   repeats)
    batched = _best_of(lambda: code.encode_many(msgs), repeats)
    return _entry("justesen-encode", count, "words", ref, batched)


def bench_sketch_add_many(count: int, repeats: int) -> Dict:
    """Plane-native sketch updates: one ``SketchPlanes.add_many`` (a
    one-trial ``SketchPlaneStack.add_many_lockstep``, the sketch's only
    update) over a whole group of ``(id, frequency)`` pairs, raced against
    the frozen per-element scalar loop (``KSparseSketch.add`` once per
    pair, the oracle).  Parity is asserted on all three cell planes *and*
    the recovered support."""
    from repro.sketch import SketchPlanes, SketchSpec

    # the adaptive compiler's spec shape: M19 fingerprints, pair-id universe
    spec = SketchSpec(capacity=8, max_id=(1 << 20) - 1, max_abs_count=count,
                      fingerprint_prime=(1 << 19) - 1)
    rng = make_rng(108)
    # cancel-heavy k-sparse workload (the Step IV shape): many updates over
    # a small support, so the final sketch stays recoverable
    support = rng.choice(spec.max_id + 1, size=6, replace=False)
    ids = support[rng.integers(0, support.size, size=count)]
    freqs = rng.integers(1, 4, size=count) * rng.choice([-1, 1], size=count)
    ref_sketch = reference.sketch_add_scalar_loop(spec, 9, ids, freqs)
    planes = SketchPlanes(spec, 9)
    planes.add_many(ids, freqs)
    ref_planes = SketchPlanes.from_sketch(ref_sketch)
    assert np.array_equal(planes.count, ref_planes.count)
    assert np.array_equal(planes.id_sum, ref_planes.id_sum)
    assert np.array_equal(planes.fingerprint, ref_planes.fingerprint)
    assert planes.recover() == ref_sketch.recover()

    def batched_run():
        fresh = SketchPlanes(spec, 9)
        fresh.add_many(ids, freqs)

    ref = _best_of(
        lambda: reference.sketch_add_scalar_loop(spec, 9, ids, freqs), 1)
    batched = _best_of(batched_run, repeats)
    return _entry("sketch-add-many", count, "updates", ref, batched)


def bench_gf2m_matmul_autotune(count: int, repeats: int) -> Dict:
    """Blocked GF(2^m) log/antilog matmul at the batched Reed–Solomon
    syndrome shape, with the contraction-block target autotuned: each probe
    target is applied through the ``REPRO_GF2M_BLOCK`` override that the
    kernel reads, timed on identical inputs, and the winner recorded in the
    bench row.  The "reference" is the kernel at its built-in default
    target, so the speedup column reports what the autotuned choice buys
    on this machine (>= 1.0 when the default wins)."""
    import os

    from repro.fields.gf2m import _MATMUL_BLOCK_TARGET

    field = GF2m(8)
    rng = make_rng(109)
    a = rng.integers(0, field.order, size=(count, 60))
    b = rng.integers(0, field.order, size=(60, 20))
    expected = field.matmul(a, b)
    probes = [_MATMUL_BLOCK_TARGET >> 1, _MATMUL_BLOCK_TARGET,
              _MATMUL_BLOCK_TARGET << 1]
    timings: Dict[str, float] = {}
    saved = os.environ.get("REPRO_GF2M_BLOCK")
    try:
        for target in probes:
            os.environ["REPRO_GF2M_BLOCK"] = str(target)
            assert np.array_equal(field.matmul(a, b), expected)
            timings[str(target)] = _best_of(lambda: field.matmul(a, b),
                                            repeats)
    finally:
        if saved is None:
            os.environ.pop("REPRO_GF2M_BLOCK", None)
        else:
            os.environ["REPRO_GF2M_BLOCK"] = saved
    winner = min(timings, key=timings.get)
    entry = _entry("gf2m-matmul-autotune", count * 60 * 20, "mul-ops",
                   timings[str(_MATMUL_BLOCK_TARGET)], timings[winner])
    entry["block_probes"] = {k: round(v, 6) for k, v in timings.items()}
    entry["block_winner"] = int(winner)
    entry["block_default"] = _MATMUL_BLOCK_TARGET
    return entry


def bench_linear_ml_decode(count: int, repeats: int) -> Dict:
    code = best_effort_linear_code(8, 24, seed=0)
    rng = make_rng(105)
    msgs = rng.integers(0, 2, size=(count, code.k), dtype=np.uint8)
    noisy = _corrupt_rows(code.encode_many(msgs),
                          max(1, (code.min_distance - 1) // 2), 2, rng)
    ref_out = reference.decode_many_loop(code, noisy)
    batch_out = code.decode_many_flagged(noisy)
    assert np.array_equal(ref_out[0], batch_out[0])
    ref = _best_of(lambda: reference.decode_many_loop(code, noisy), 1)
    batched = _best_of(lambda: code.decode_many_flagged(noisy), repeats)
    return _entry("linear-ml-decode", count, "words", ref, batched)


def bench_linear_code_search(repeats: int) -> Dict:
    """Code design: the array search kernel (exact minimum distance of a
    chunk of candidate generators per array program) against the frozen
    loop that builds one :class:`LinearBlockCode` per attempt.  Both
    searches fail, so each side runs every attempt; the memo is cleared
    before each timed kernel call, and the outcomes (failure messages)
    are asserted equal first."""
    # (k, n, target, seed): failing searches of the stochastic-iid and
    # headline campaigns' code design, 4000 attempts each
    searches = ((4, 16, 8, 2025), (8, 24, 10, 0))

    def outcomes(search) -> List[str]:
        out = []
        for k, n, target, seed in searches:
            try:
                out.append(search(k, n, target, seed=seed).generator.tobytes())
            except ValueError as exc:
                out.append(str(exc))
        return out

    def kernel() -> List[str]:
        linear._SEARCH_MEMO.clear()
        return outcomes(linear.search_linear_code)

    assert outcomes(reference.search_linear_code_loop) == kernel()
    ref = _best_of(lambda: outcomes(reference.search_linear_code_loop), 1)
    batched = _best_of(kernel, repeats)
    return _entry("linear-code-search", len(searches), "searches", ref,
                  batched)


def bench_rm_line_decode(count: int, repeats: int) -> Dict:
    """Reed–Muller line decoding at table1's shape: p=31 and degree 17, so
    each row holds q=30 queried values and the line radius is r=6.  Row i
    carries i mod (r+3) errors, spreading the rows over 0..r+2 errors, so
    some are clean and some lie beyond the radius and must come back -1.
    Races ``local_decode_many`` (one lockstep decoder over every dirty
    row) against the frozen Berlekamp–Welch loop, one row at a time; the
    outputs are asserted equal first.  A kernel call takes about a
    millisecond, so it is timed best of ten times as many calls."""
    ldc = cached_reed_muller(31, 2, 17)
    r = ldc.max_line_errors()
    q = ldc.query_count
    rng = make_rng(109)
    ts = np.arange(1, ldc.p)
    rows = np.stack([ldc.field.poly_eval(coeffs, ts) for coeffs in
                     rng.integers(0, ldc.p, size=(count, ldc.degree + 1))])
    for i, row in enumerate(rows):
        positions = rng.choice(q, i % (r + 3), replace=False)
        row[positions] = (row[positions]
                          + rng.integers(1, ldc.p, positions.size)) % ldc.p
    decoded = ldc.local_decode_many(0, rows, 0)
    assert np.array_equal(reference.rm_line_decode_loop(ldc, rows), decoded)
    assert (decoded < 0).any() and (decoded >= 0).any()
    ref = _best_of(lambda: reference.rm_line_decode_loop(ldc, rows), repeats)
    batched = _best_of(lambda: ldc.local_decode_many(0, rows, 0),
                       10 * repeats)
    return _entry("rm-line-decode", count, "rows", ref, batched)


def bench_gfp_inv_matrix(degree: int, repeats: int) -> Dict:
    """``PrimeField.inv_matrix`` on table1's Reed–Muller interpolation
    matrix at p=31: the bivariate monomials of total degree <= ``degree``
    evaluated on the same lattice (degree 17 is 171 x 171, degree 10 is
    66 x 66).  Races the panel elimination against the column-at-a-time
    Gauss–Jordan it replaced; the inverses are asserted equal first."""
    ldc = cached_reed_muller(31, 2, degree)
    field = ldc.field
    matrix = ldc._monomial_evals(ldc._lattice)
    assert np.array_equal(field.inv_matrix(matrix),
                          reference.inv_matrix_gauss_jordan(field, matrix))
    ref = _best_of(lambda: reference.inv_matrix_gauss_jordan(field, matrix),
                   repeats)
    batched = _best_of(lambda: field.inv_matrix(matrix), 5 * repeats)
    return _entry("gfp-inv-matrix", 1, "matrices", ref, batched)


# -- network suite ------------------------------------------------------------

def _fresh_net(n: int, bandwidth: int) -> CongestedClique:
    return CongestedClique(n, bandwidth=bandwidth)


def bench_exchange_bits(n: int, width: int, bandwidth: int,
                        repeats: int, inner: int = 4) -> Dict:
    rng = make_rng(201)
    bits = rng.integers(0, 2, size=(n, n, width), dtype=np.uint8)
    present = np.ones((n, n), dtype=bool)
    got_ref = reference.exchange_bits_staged(_fresh_net(n, bandwidth),
                                             bits, present)
    got_new, dropped = _fresh_net(n, bandwidth).exchange_bits(bits, present)
    assert np.array_equal(got_ref, got_new)
    assert not dropped.any()
    payload_bits = n * (n - 1) * width * inner

    def ref_run():
        for _ in range(inner):
            reference.exchange_bits_staged(_fresh_net(n, bandwidth),
                                           bits, present)

    def batched_run():
        for _ in range(inner):
            _fresh_net(n, bandwidth).exchange_bits(bits, present)

    ref = _best_of(ref_run, max(1, repeats - 1))
    batched = _best_of(batched_run, repeats)
    return _entry(f"exchange-bits-n{n}", payload_bits, "edge-bits",
                  ref, batched)


def bench_exchange_wide(n: int, width: int, bandwidth: int,
                        repeats: int, inner: int = 8) -> Dict:
    rng = make_rng(202)
    intended = rng.integers(0, np.int64(1) << width, size=(n, n),
                            dtype=np.int64)
    got_ref = reference.exchange_chunked(_fresh_net(n, bandwidth),
                                         intended, width)
    got_new = _fresh_net(n, bandwidth).exchange(intended, width)
    assert np.array_equal(got_ref, got_new)
    payload_bits = n * (n - 1) * width * inner

    def ref_run():
        for _ in range(inner):
            reference.exchange_chunked(_fresh_net(n, bandwidth),
                                       intended, width)

    def batched_run():
        for _ in range(inner):
            _fresh_net(n, bandwidth).exchange(intended, width)

    ref = _best_of(ref_run, max(1, repeats - 1))
    batched = _best_of(batched_run, repeats)
    return _entry(f"exchange-wide-n{n}", payload_bits, "edge-bits",
                  ref, batched)


def bench_plane_staging(n: int, count: int, sym_bits: int,
                        repeats: int) -> Dict:
    """Compiler staging: build the transported word planes from an
    ``(n, n, count)`` symbol tensor (the shape of the adaptive compiler's
    scatter/answer staging).  The reference is the frozen PR-2 path — bit
    expansion into an ``(n, n, count * sym_bits)`` uint8 tensor packed at
    the boundary; the batched kernel is the direct ``pack_symbols``
    scatter-write into ``(n, n, words)`` uint64 planes."""
    from repro.utils.bits import pack_symbols

    rng = make_rng(203)
    symbols = rng.integers(0, 1 << sym_bits, size=(n, n, count))
    ref_out = reference.stage_symbols_uint8(symbols, sym_bits)
    new_out = pack_symbols(symbols, sym_bits)
    assert np.array_equal(ref_out, new_out)
    items = n * n * count
    ref = _best_of(lambda: reference.stage_symbols_uint8(symbols, sym_bits),
                   max(1, repeats - 1))
    batched = _best_of(lambda: pack_symbols(symbols, sym_bits), repeats)
    return _entry(f"plane-staging-n{n}", items, "symbols", ref, batched)


def bench_greedy_selection(planes: int, repeats: int) -> Dict:
    """Adaptive-adversary fault selection at the adv-logn-n64 shape:
    ``planes`` all-loaded n=64 priority planes (every edge carries a
    message both ways, so every edge scores 2 and only the tie-break draw
    orders them), alternating budgets 1 and 2, one RNG seed per plane.
    Races the list walk of ``greedy_symmetric_selection`` against the
    frozen per-edge loop; the masks are asserted equal first."""
    n = 64
    priorities = np.full((n, n), 2.0)
    np.fill_diagonal(priorities, 0.0)
    cases = [(1 + plane % 2, 500 + plane) for plane in range(planes)]

    def run(select) -> List[np.ndarray]:
        return [select(priorities, budget, make_rng(seed))
                for budget, seed in cases]

    for fast, slow in zip(run(greedy_symmetric_selection),
                          run(reference.greedy_symmetric_selection_loop)):
        assert np.array_equal(fast, slow)
    ref = _best_of(lambda: run(reference.greedy_symmetric_selection_loop), 1)
    batched = _best_of(lambda: run(greedy_symmetric_selection), repeats)
    return _entry("greedy-selection-n64", planes, "planes", ref, batched)


def _butterfly_waves(n: int):
    """det-logn's first butterfly step as a blocks-mode routing: every
    node sends n/2 bits to its partner across the top bit, in 2 lockstep
    trials.  At n=512 this is free-logn-n512's wave shape: 2 planes of 16
    relay blocks of 32 nodes.  Returns ``(trials, size, length, code,
    plan, bits)``."""
    from repro.cliquesim.topology import flip
    from repro.core.profiles import SIMULATION
    from repro.core.routing import plan_waves

    trials = 2
    top = n.bit_length() - 2
    partner = [flip(u, 0, 1 - ((u >> top) & 1), n) for u in range(n)]
    size = n // 2
    length, code = SIMULATION.select_routing_code(n, 0.0)
    plan = plan_waves(trials, n, n // length, max(1, code.k), np.arange(n),
                      np.zeros(n), np.full(n, size), partner)
    bits = make_rng(204).integers(0, 2, (trials, n, size), dtype=np.uint8)
    return trials, size, length, code, plan, bits


def bench_route_waves(n: int, repeats: int) -> Dict:
    """Blocks-mode routing at :func:`_butterfly_waves`' shape.  Races the
    row kernel ``route_waves`` against the per-bit oracle, both staging
    every round and moving it through a fault-free
    :class:`~repro.cliquesim.batched.BatchedClique` (no booking hook is
    passed, so this times staging); the results are asserted equal
    first."""
    from repro.cliquesim.batched import BatchedClique
    from repro.core.routing import route_waves

    trials, size, length, code, plan, bits = _butterfly_waves(n)

    def run(kernel):
        net = BatchedClique(n, trials=trials, bandwidth=32)
        return kernel(net.round, n, net.bandwidth, code, length, plan, bits,
                      "bench")

    rows, per_bit = run(route_waves), run(reference.route_waves_per_bit)
    for name in ("decoded", "failed", "dropped", "erased"):
        assert np.array_equal(getattr(rows, name), getattr(per_bit, name))
    assert np.array_equal(rows.message_bits(), bits)
    ref = _best_of(lambda: run(reference.route_waves_per_bit),
                   max(1, repeats - 1))
    batched = _best_of(lambda: run(route_waves), repeats)
    return _entry("route-waves-n512", trials * n * size, "payload-bits", ref,
                  batched)


def bench_route_waves_free(n: int, repeats: int) -> Dict:
    """The row kernel at :func:`_butterfly_waves`' shape on a fault-free
    :class:`~repro.cliquesim.batched.BatchedClique`: staging every round
    (the reference) against passing the rows through while the engine's
    ``book_fault_free`` books each round, as ``BatchedRouter.route`` does
    on an engine that delivers as sent.  Rows, flags, drop counts and the
    engine's round and bit counters are asserted equal first."""
    from repro.cliquesim.batched import BatchedClique
    from repro.core.routing import route_waves

    trials, size, length, code, plan, bits = _butterfly_waves(n)

    def run(pass_through: bool):
        net = BatchedClique(n, trials=trials, bandwidth=32)
        result = route_waves(net.round, n, net.bandwidth, code, length, plan,
                             bits, "bench",
                             book=net.book_fault_free if pass_through
                             else None)
        return result, net

    (rows, booked), (staged, sent) = run(True), run(False)
    for name in ("decoded", "failed", "dropped", "erased"):
        assert np.array_equal(getattr(rows, name), getattr(staged, name))
    assert booked.rounds_used == sent.rounds_used == rows.rounds
    assert np.array_equal(booked.bits_sent, sent.bits_sent)
    assert np.array_equal(rows.message_bits(), bits)
    ref = _best_of(lambda: run(False), max(1, repeats - 1))
    batched = _best_of(lambda: run(True), repeats)
    return _entry("route-waves-free-n512", trials * n * size, "payload-bits",
                  ref, batched)


def bench_coverfree_verify(n: int, message_bits: int, repeats: int) -> Dict:
    """Lemma 4.4's family check in a cover-free route: node ``u`` sends
    ``message_bits`` bits to node ``(7u + 1) mod n`` (at n=128 and 256
    bits, 128 batches of 1-bit chunks).  Replays the planner's draws from
    the router's construction stream to collect every (family,
    constraints) pair it verifies, rejected samples included, and checks
    that the accepted families are the plan's relay sets.  Races the array
    ``CoverFreeFamily.violations`` against the per-position loop on those
    pairs; their outputs are asserted equal first."""
    from repro.core.profiles import SIMULATION
    from repro.core.routing import COVERFREE_DELTA, plan_coverfree
    from repro.coverfree.family import CoverFreeFamily
    from repro.coverfree.random_construction import sample_family
    from repro.utils.rng import derive

    length = max(8, n // 16)
    capacity = max(1, SIMULATION.routing_code_at_rate(
        length, min(SIMULATION.code_rate, 1.0 / 8)).k)
    sources, targets = np.arange(n), (7 * np.arange(n) + 1) % n
    stream = f"router:{n}"
    plan = plan_coverfree(1, n, length, capacity,
                          derive(SIMULATION.construction_seed, stream),
                          sources, np.zeros(n), np.full(n, message_bits),
                          targets)
    rng = derive(SIMULATION.construction_seed, stream)
    cases = []
    for b in range(plan.num_batches):
        chunks = np.flatnonzero(plan.batch[0] == b)
        chunks = chunks[np.argsort(plan.block[0, chunks])]
        # the positions sharing a source, then those sharing a target
        constraints = []
        for ids in (sources, targets):
            groups: Dict[int, List[int]] = {}
            for position, node in enumerate(
                    ids[plan.chunk_msg[chunks]].tolist()):
                groups.setdefault(node, []).append(position)
            constraints += [tuple(g) for g in groups.values() if len(g) > 1]
        while True:
            family = sample_family(n, chunks.size, length, rng)
            if not constraints:
                break
            cases.append((family, constraints))
            if not family.violations(constraints, COVERFREE_DELTA):
                break
        assert np.array_equal(family.sets, plan.relays[0, chunks])

    def run(check) -> List[list]:
        return [check(family, constraints, COVERFREE_DELTA)
                for family, constraints in cases]

    assert run(CoverFreeFamily.violations) == \
        run(reference.cover_free_violations_loop)
    # a best of several on both sides: with the reference timed once, the
    # smoke speedup ranged 19-40x on a 2-core host; the array side is cheap
    ref = _best_of(lambda: run(reference.cover_free_violations_loop),
                   repeats)
    batched = _best_of(lambda: run(CoverFreeFamily.violations), 3 * repeats)
    return _entry(f"coverfree-verify-n{n}", len(cases), "families", ref,
                  batched)


def bench_trial_batch(n: int, trials: int, repeats: int) -> Dict:
    """Trial-batched campaign execution: one fault-free det-sqrt cell of
    ``trials`` trials run as a single tensor program over a
    :class:`~repro.cliquesim.batched.BatchedClique` (the vmap backend's
    engine), raced against the serial per-trial loop on identical
    instances and seeds.  Per-trial reports are asserted equal before
    timing — the speedup is only meaningful because the outcomes are
    bit-identical."""
    from repro.core.alltoall import run_protocol
    from repro.core.vmapped import run_protocol_many

    seeds = [301 + 7 * t for t in range(trials)]
    proto_seeds = [401 + 13 * t for t in range(trials)]
    instances = [AllToAllInstance.random(n, width=1, seed=s) for s in seeds]

    def serial_run():
        return [run_protocol(make_protocol("det-sqrt"), instances[t], None,
                             bandwidth=32, seed=proto_seeds[t])
                for t in range(trials)]

    def batched_run():
        return run_protocol_many(make_protocol("det-sqrt"),
                                 instances, None, bandwidth=32,
                                 seeds=proto_seeds)

    # the reference loop is expensive, so its parity pass doubles as the
    # timing run (matching the repeats=1 reference policy above)
    start = time.perf_counter()
    serial_reports = serial_run()
    ref = time.perf_counter() - start
    batched_reports = batched_run()
    for a, b in zip(serial_reports, batched_reports):
        assert (a.rounds, a.bits_sent, a.correct_entries, a.total_entries,
                a.entries_corrupted_in_transit) == \
               (b.rounds, b.bits_sent, b.correct_entries, b.total_entries,
                b.entries_corrupted_in_transit)
    batched = _best_of(batched_run, repeats)
    return _entry(f"trial-batch-n{n}", trials, "trials", ref, batched)


def bench_adaptive_vmap(smoke: bool, repeats: int) -> Dict:
    """The tentpole race: a fault-free adaptive campaign cell run through
    the vmap backend (batched sketch planes, grouped greedy schedules, one
    tensor program per cell) against the serial per-trial loop on identical
    specs and seeds.  Store rows must be bit-identical — modulo wall-clock
    fields — and no trial may have taken the serial-fallback path, so the
    speedup measures the batched adaptive port itself, not a silent
    degradation.  Full mode runs the acceptance cell (n=64, 16 trials);
    smoke floors are measured at n=16."""
    from repro.experiments import free_grid, run_campaign

    if smoke:
        spec = free_grid(name="bench-adaptive-vmap", protocols=("adaptive",),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         widths=(4,), bandwidths=(8,), replicates=4)
    else:
        spec = free_grid(name="bench-adaptive-vmap", protocols=("adaptive",),
                         adversaries=("null",), ns=(64,), alphas=(0.0,),
                         widths=(10,), bandwidths=(32,), replicates=16)

    def row_digest(rows) -> str:
        clean = [{k: v for k, v in row.items()
                  if k not in ("wall_seconds", "recorded_unix")}
                 for row in rows]
        blob = json.dumps(clean, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    # both sides are timed alike: an untimed parity pass, then the best of
    # ``repeats`` (a single cold serial run swung the speedup by 1.5x)
    serial_rows = run_campaign(spec, backend="serial").rows()
    vmap_rows = run_campaign(spec, backend="vmap").rows()
    assert not any("fallback" in row for row in vmap_rows), \
        "adaptive vmap cell sent a trial to run alone"
    assert row_digest(serial_rows) == row_digest(vmap_rows), \
        "vmap store rows diverged from the serial backend"
    ref = _best_of(lambda: run_campaign(spec, backend="serial"), repeats)
    batched = _best_of(
        lambda: run_campaign(spec, backend="vmap"), repeats)
    return _entry("adaptive-vmap-n64", spec.replicates, "trials", ref,
                  batched)


def bench_protocol_end_to_end(protocol_name: str, n: int,
                              bandwidth: int) -> Dict:
    """Fault-free end-to-end run: simulated protocol rounds per second.

    There is no pre-refactor reference to race here — the entry records the
    absolute trajectory (rounds/sec, wall seconds) across PRs instead.
    """
    instance = AllToAllInstance.random(n, width=1, seed=7)
    protocol = make_protocol(protocol_name)

    def run():
        net = CongestedClique(n, bandwidth=bandwidth)
        beliefs = protocol.run(instance, net, seed=11)
        assert verify_beliefs(instance, beliefs) == n * n
        return net

    net = run()
    rounds = net.rounds_used
    seconds = _best_of(run, 1)
    return {
        "items": rounds,
        "unit": "protocol-rounds",
        "batched_seconds": round(seconds, 6),
        "batched_items_per_sec": round(rounds / seconds, 2),
    }


#: documented memory ceiling for the n=1024 headline entry (bytes): the
#: vmap byte-budget chunker plus streaming aggregation must hold peak
#: traced allocation under this while the full campaign machinery runs
HEADLINE_N1024_BYTE_BUDGET = 512 * 1024 * 1024


def bench_headline_n1024() -> Dict:
    """The scale-frontier entry: a fault-free det-logn n=1024 trial pushed
    through the whole campaign stack (spec → runner → store rows →
    streaming aggregation), with peak traced allocation audited against
    :data:`HEADLINE_N1024_BYTE_BUDGET`.

    Like the end-to-end entries this records an absolute trajectory
    (rounds/sec), but the assertion is the point: at n=1024 the payload
    planes are ~33 MB each, so the run only fits the budget because the
    aggregation is streaming (O(cells) memory) and batch chunking is
    byte-budgeted — a regression to materializing the grid fails here
    before it fails in production-scale campaigns.
    """
    import tracemalloc

    from repro.experiments import StreamAggregator, free_grid, run_campaign

    spec = free_grid(name="headline-n1024", protocols=("det-logn",),
                     adversaries=("null",), ns=(1024,), alphas=(0.0,),
                     bandwidths=(32,))
    agg = StreamAggregator()
    tracemalloc.start()
    start = time.perf_counter()
    result = run_campaign(spec, progress=lambda done, total, row: agg.add(row))
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert result.errors == 0 and result.executed == 1
    cells = agg.cells()
    assert len(cells) == 1 and cells[0].ok == 1
    assert cells[0].accuracy.mean == 1.0
    assert peak <= HEADLINE_N1024_BYTE_BUDGET, (
        f"n=1024 peak allocation {peak} exceeded the documented "
        f"{HEADLINE_N1024_BYTE_BUDGET} byte budget")
    rounds = int(round(cells[0].rounds.mean))
    return {
        "items": rounds,
        "unit": "protocol-rounds",
        "batched_seconds": round(seconds, 6),
        "batched_items_per_sec": round(rounds / seconds, 2),
        "peak_bytes": int(peak),
        "byte_budget": HEADLINE_N1024_BYTE_BUDGET,
    }


# -- suite drivers ------------------------------------------------------------

def _suite_plan(suite: str):
    """(name, factory) pairs; each factory takes (smoke, repeats).

    Batched-kernel speedups *grow with the batch size* (the fixed kernel
    overhead amortises), so a smoke-scale measurement is not comparable to a
    full-scale one.  The driver therefore measures every raceable benchmark
    at smoke scale as well during full runs and stores it as
    ``smoke_speedup`` — the mode-matched floor :func:`check_regression`
    uses when gating a smoke run against the committed full baseline.
    """
    if suite == "coding":
        return [
            ("rs-symbol-decode",
             lambda smoke, r: bench_rs_symbol_decode(128 if smoke else 1024,
                                                     r)),
            ("rs-symbol-encode",
             lambda smoke, r: bench_rs_symbol_encode(128 if smoke else 1024,
                                                     r)),
            ("rs-batch-bm",
             lambda smoke, r: bench_rs_batch_bm(256 if smoke else 2048, r)),
            ("rs-erasure-decode",
             lambda smoke, r: bench_rs_erasure_decode(256 if smoke else 2048,
                                                      r)),
            ("rs-binary-decode",
             lambda smoke, r: bench_rs_binary_decode(128 if smoke else 1024,
                                                     r)),
            ("justesen-decode",
             lambda smoke, r: bench_justesen_decode(64 if smoke else 512, r)),
            ("justesen-encode",
             lambda smoke, r: bench_justesen_encode(
                 4096 if smoke else 32768, r)),
            ("linear-ml-decode",
             lambda smoke, r: bench_linear_ml_decode(512 if smoke else 4096,
                                                     r)),
            ("linear-code-search",
             lambda smoke, r: bench_linear_code_search(r)),
            ("rm-line-decode",
             lambda smoke, r: bench_rm_line_decode(100 if smoke else 400,
                                                   r)),
            ("gfp-inv-matrix",
             lambda smoke, r: bench_gfp_inv_matrix(10 if smoke else 17, r)),
            ("sketch-add-many",
             lambda smoke, r: bench_sketch_add_many(2000 if smoke else 20000,
                                                    r)),
            ("gf2m-matmul-autotune",
             lambda smoke, r: bench_gf2m_matmul_autotune(
                 512 if smoke else 4096, r)),
        ]
    return [
        ("exchange-bits-n64",
         lambda smoke, r: bench_exchange_bits(64, 128 if smoke else 512,
                                              32, r)),
        ("exchange-wide-n64",
         lambda smoke, r: bench_exchange_wide(64, 60, 8, r)),
        ("plane-staging-n64",
         lambda smoke, r: bench_plane_staging(64, 32 if smoke else 128,
                                              7, r)),
        ("greedy-selection-n64",
         lambda smoke, r: bench_greedy_selection(16 if smoke else 64, r)),
        ("route-waves-n512",
         lambda smoke, r: bench_route_waves(128 if smoke else 512, r)),
        ("route-waves-free-n512",
         lambda smoke, r: bench_route_waves_free(128 if smoke else 512, r)),
        ("coverfree-verify-n128",
         lambda smoke, r: bench_coverfree_verify(128, 64 if smoke else 256,
                                                 r)),
        ("det-sqrt-end-to-end",
         lambda smoke, r: bench_protocol_end_to_end("det-sqrt", 64, 32)),
        ("trial-batch-n64",
         lambda smoke, r: bench_trial_batch(64, 8 if smoke else 32, r)),
        ("adaptive-vmap-n64",
         lambda smoke, r: bench_adaptive_vmap(smoke, r)),
    ]


def run_suite(suite: str, smoke: bool = False,
              progress: Optional[Callable[[str, Dict], None]] = None) -> Dict:
    """Run one suite ("coding" or "network") and return its result dict."""
    if suite not in SUITE_FILES:
        raise ValueError(f"unknown suite {suite!r}")
    repeats = 2 if smoke else 3
    benchmarks: Dict[str, Dict] = {}

    def record(name: str, entry: Dict):
        benchmarks[name] = entry
        if progress is not None:
            progress(name, entry)

    for name, factory in _suite_plan(suite):
        entry = factory(smoke, repeats)
        if not smoke and "speedup" in entry:
            entry["smoke_speedup"] = factory(True, 2)["speedup"]
        record(name, entry)
    if suite == "network" and not smoke:
        # the scale-sweep entry: n=256 stays out of the smoke CI budget, so
        # its baseline row is marked full-only for check_regression
        entry = bench_exchange_bits(256, 256, 32, repeats, inner=1)
        entry["full_only"] = True
        record("exchange-bits-n256", entry)
        record("nonadaptive-end-to-end",
               bench_protocol_end_to_end("nonadaptive", 64, 32))
        entry = bench_headline_n1024()
        entry["full_only"] = True
        record("headline-scaling-n1024", entry)
    from repro.obs import tracing
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        # timings taken with instrumentation recording are not comparable
        # to the committed (metrics-off) baselines, so the flag is part of
        # the result provenance
        "metrics_enabled": tracing.metrics_enabled(),
        "benchmarks": benchmarks,
    }


def store_rows(results: Dict, recorded_at: Optional[float] = None) -> List[Dict]:
    """Turn a suite run into experiments-store rows (one per benchmark).

    Rows are keyed by a digest of (suite, benchmark, mode, timestamp), so
    every run appends fresh rows instead of overwriting history — that is
    what makes perf trajectories queryable from the store like any other
    trial (``repro bench --store runs/bench.jsonl``).
    """
    stamp = time.time() if recorded_at is None else recorded_at
    rows = []
    for name, entry in results.get("benchmarks", {}).items():
        key = f"bench:{results['suite']}:{name}:{results['mode']}:{stamp:.6f}"
        rows.append({
            "hash": hashlib.sha256(key.encode("utf-8")).hexdigest(),
            "kind": "bench",
            "suite": results["suite"],
            "name": name,
            "mode": results["mode"],
            "recorded_unix": round(stamp, 6),
            "python": results.get("python"),
            "numpy": results.get("numpy"),
            "entry": entry,
        })
    return rows


def write_results(results: Dict, out_dir: str = ".") -> Path:
    """Serialise a suite run.  Smoke runs write ``BENCH_*.smoke.json`` so
    they can never clobber the committed full-mode baselines that
    :func:`check_regression` compares against."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    name = SUITE_FILES[results["suite"]]
    if results.get("mode") == "smoke":
        name = name.replace(".json", ".smoke.json")
    path = Path(out_dir) / name
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_baseline(suite: str, out_dir: str = ".") -> Optional[Dict]:
    """Load the committed full-mode baseline for a suite (None if absent)."""
    path = Path(out_dir) / SUITE_FILES[suite]
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check_regression(baseline: Dict, results: Dict,
                     factor: float = 2.0) -> List[str]:
    """Compare a fresh run against a committed baseline.

    Only *speedups* (batched vs reference on the same machine) are compared
    — they are the machine-portable signal — and mode-matched: a smoke-mode
    fresh run is gated on the baseline's ``smoke_speedup`` (measured at
    smoke scale during the committed full run), because batch speedups grow
    with batch size and a full-scale floor would misfire on smoke batches.
    A benchmark regresses when its speedup fell below ``floor / factor``.
    Returns a list of human-readable failures (empty = pass).
    """
    failures = []
    smoke_run = results.get("mode") == "smoke"
    for name, base in baseline.get("benchmarks", {}).items():
        if "speedup" not in base:
            continue
        if base.get("full_only") and smoke_run:
            continue  # scale-sweep entries are not measured by smoke runs
        fresh = results.get("benchmarks", {}).get(name)
        if fresh is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        base_speedup = base.get("smoke_speedup", base["speedup"]) \
            if smoke_run else base["speedup"]
        floor = base_speedup / factor
        if fresh["speedup"] < floor:
            failures.append(
                f"{name}: speedup {fresh['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base_speedup:.2f}x / "
                f"factor {factor})")
    return failures
