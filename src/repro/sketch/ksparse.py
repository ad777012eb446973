"""k-sparse recovery sketches (Lemma 2.3).

A sketch is a ``rows x buckets`` grid of 1-sparse cells.  Every update
``Add(id, frequency)`` touches one cell per row (chosen by a per-row
pairwise-independent hash); ``recover`` peels: find any cell that verifiably
holds a single id, subtract that id everywhere, repeat.  With
``buckets >= 2k`` and a few rows this recovers any k-sparse multiset with
high probability — exactly the interface Lemma 2.3 postulates (``L(σ, R)``,
``Add``, ``Recover``), including determinism given the shared randomness R.

Sketches serialise to a *fixed* bit width ``spec.total_bits`` (the paper's
``t``; Section 5.2 pads all sketches to a common length so that every sketch
lands at a predictable offset inside the concatenation ``Sk(P_j)``).

:class:`SketchPlaneStack` is the one implementation of the sketch's
arithmetic; :class:`KSparseSketch`, a grid of Python cells, is its oracle
and the peel it runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.hashing.kwise import KWiseHashFamily
from repro.sketch.onesparse import OneSparseCell
from repro.utils.bits import BitArray, bits_from_int, int_from_bits
from repro.utils.rng import derive

_FINGERPRINT_PRIME = (1 << 61) - 1


class SketchRecoveryError(Exception):
    """Recovery failed (support larger than k, or corrupted sketch state)."""


@dataclass(frozen=True)
class SketchSpec:
    """Shared layout parameters; every node derives the identical spec from
    the protocol parameters, so serialised sketches are interoperable."""

    capacity: int            # k: max support size guaranteed recoverable
    max_id: int              # ids live in [0, max_id]
    max_abs_count: int       # |net frequency per cell| bound for serialisation
    rows: int = 3
    fingerprint_prime: int = _FINGERPRINT_PRIME

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"SketchSpec.capacity must be >= 1, got {self.capacity}")
        if self.rows < 1:
            raise ValueError(
                f"SketchSpec.rows must be >= 1, got {self.rows}")
        if self.max_id < 0:
            raise ValueError(
                f"SketchSpec.max_id must be >= 0, got {self.max_id}")
        if self.max_abs_count < 1:
            raise ValueError(
                f"SketchSpec.max_abs_count must be >= 1, "
                f"got {self.max_abs_count}")
        if self.fingerprint_prime < 2:
            raise ValueError(
                f"SketchSpec.fingerprint_prime must be >= 2, "
                f"got {self.fingerprint_prime}")

    @property
    def buckets(self) -> int:
        return max(2, 2 * self.capacity)

    @property
    def count_bits(self) -> int:
        return (2 * self.max_abs_count + 1).bit_length()

    @property
    def id_sum_bits(self) -> int:
        return (2 * self.max_id * self.max_abs_count + 1).bit_length() + 1

    @property
    def fingerprint_bits(self) -> int:
        return self.fingerprint_prime.bit_length()

    @property
    def cell_bits(self) -> int:
        return self.count_bits + self.id_sum_bits + self.fingerprint_bits

    @property
    def total_bits(self) -> int:
        """The fixed serialised size t of one sketch."""
        return self.rows * self.buckets * self.cell_bits


#: (spec, seed) entries the randomness cache keeps.  Each adaptive trial
#: draws its own R2 seed, so an entry is reused only within its own run,
#: where Step IV's stack and peel read every seed Step II's stack drew: the
#: bound must hold one batch's seeds (``MAX_BATCH_TRIALS`` = 64).  Twice
#: that caps the cache at about 64 MB at n=128 (512 KB of bucket tables per
#: entry).
_RANDOMNESS_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_RANDOMNESS_CACHE_SIZE)
def _sketch_randomness(spec: SketchSpec, seed: int) -> tuple:
    """Derive the fingerprint base and row hashes for a given (spec, seed).
    The adaptive compiler instantiates thousands of sketches sharing the
    same randomness R2, so this is on the hot path."""
    rng = derive(seed, "ksparse-z")
    z = int(rng.integers(1, spec.fingerprint_prime))
    family = KWiseHashFamily(2, spec.max_id + 1, spec.buckets)
    hashes = tuple(
        family.sample(derive(seed, f"ksparse-row:{row}"))
        for row in range(spec.rows)
    )
    # precompute bucket choice for every id when the universe is small
    # enough for the table to beat on-demand hashing: a protocol run does
    # O(n * part_size) lookups per seed, so a table over a multi-million-id
    # universe costs far more to build than it ever saves (table lookups and
    # direct evaluation return identical buckets either way)
    if spec.max_id < 1 << 16:
        ids = np.arange(spec.max_id + 1, dtype=np.int64)
        bucket_table = np.stack([h(ids) for h in hashes])
    else:
        bucket_table = None
    return z, hashes, bucket_table


# -- plane arithmetic ---------------------------------------------------------
#
# A plane stack holds the grid as three (trials, rows, buckets) arrays
# (count / id-sum / fingerprint).  All of its arithmetic must be exact, so
# the planes are int64 only when every intermediate fits int64:
#
#   * modular products need  fingerprint_prime**2 < 2**63      (p < 2**31),
#   * frequency-scaled fingerprints need  max_abs_count * p < 2**62,
#   * id_sum magnitudes (including the serialisation offset and anything a
#     corrupted bit pattern can deserialise to) stay below 2**61 when
#     max_id * max_abs_count < 2**59, with headroom for further updates.
#
# `planes_supported` says whether a spec qualifies; planes of any other spec
# (notably the default 2**61 - 1 fingerprint prime) hold Python ints in
# object arrays and run the same code.

_PLANES_WEIGHT_BUDGET = 1 << 59


def planes_supported(spec: SketchSpec) -> bool:
    """True when int64 plane arithmetic is exact for ``spec`` (see the
    module comment above); otherwise the planes hold Python ints."""
    prime = spec.fingerprint_prime
    if prime >= 1 << 31:
        return False
    if spec.max_abs_count * prime >= 1 << 62:
        return False
    if spec.max_id * spec.max_abs_count >= _PLANES_WEIGHT_BUDGET:
        return False
    return True


def _plane_dtype(spec: SketchSpec) -> np.dtype:
    return np.dtype(np.int64 if planes_supported(spec) else object)


def _pow_mod(base, exponents: np.ndarray, prime: int) -> np.ndarray:
    """Vectorised ``base ** e mod prime`` by binary powering, in the dtype of
    ``exponents`` (int64 needs ``prime < 2**31`` so every product fits;
    object arrays compute in Python ints).  ``base`` broadcasts against
    ``exponents``."""
    exps = exponents.copy()
    result = np.ones_like(exps)
    power = np.asarray(base, dtype=exps.dtype) % prime
    while True:
        odd = (exps & 1).astype(bool)
        if odd.any():
            result = np.where(odd, (result * power) % prime, result)
        exps >>= 1
        if not exps.any():
            break
        power = (power * power) % prime
    return result


def _serialise_planes(spec: SketchSpec, count: np.ndarray, id_sum: np.ndarray,
                      fingerprint: np.ndarray) -> np.ndarray:
    """(..., rows, buckets) planes -> (..., total_bits) uint8 bits,
    little-endian per field, in the scalar to_bits() field order.  Shifts
    run in uint64 for int64 planes and in Python ints for object planes,
    whose id-sum field can outgrow 64 bits."""
    if count.size and int(np.abs(count).max()) > spec.max_abs_count:
        raise ValueError("cell count exceeds serialisable range")
    if id_sum.size and int(np.abs(id_sum).max()) \
            > spec.max_id * spec.max_abs_count:
        raise ValueError("cell id_sum exceeds serialisable range")
    dtype = np.dtype(object if count.dtype == object else np.uint64)
    lead = count.shape[:-2]
    fields = (
        (count + spec.max_abs_count, spec.count_bits),
        (id_sum + spec.max_id * spec.max_abs_count, spec.id_sum_bits),
        (fingerprint % spec.fingerprint_prime, spec.fingerprint_bits),
    )
    parts = []
    for values, width in fields:
        shifts = np.arange(width).astype(dtype)
        vals = values.reshape(lead + (-1, 1)).astype(dtype)
        parts.append(((vals >> shifts) & 1).astype(np.uint8))
    cells = np.concatenate(parts, axis=-1)
    return cells.reshape(lead + (spec.total_bits,))


def _deserialise_planes(spec: SketchSpec, bits: np.ndarray):
    """(..., total_bits) uint8 bits -> (count, id_sum, fingerprint) planes,
    C-contiguous, in the spec's plane dtype."""
    dtype = _plane_dtype(spec)
    lead = bits.shape[:-1]
    cells = bits.reshape(
        lead + (spec.rows * spec.buckets, spec.cell_bits)).astype(dtype)
    planes = []
    cursor = 0
    for width, offset in ((spec.count_bits, spec.max_abs_count),
                          (spec.id_sum_bits,
                           spec.max_id * spec.max_abs_count),
                          (spec.fingerprint_bits, 0)):
        field = cells[..., cursor:cursor + width]
        shifts = np.arange(width).astype(dtype)
        values = (field << shifts).sum(axis=-1) - offset
        planes.append(values.reshape(lead + (spec.rows, spec.buckets)))
        cursor += width
    return tuple(planes)


class KSparseSketch:
    """A k-sparse recovery sketch with shared randomness ``seed``: the
    scalar cell grid, kept as the oracle of :class:`SketchPlaneStack` and
    as the peel its :meth:`~SketchPlaneStack.recover_many` runs."""

    def __init__(self, spec: SketchSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._z, self._hashes, self._bucket_table = _sketch_randomness(spec, seed)
        self._cells: List[List[OneSparseCell]] = [
            [OneSparseCell(z=self._z, prime=spec.fingerprint_prime)
             for _ in range(spec.buckets)]
            for _ in range(spec.rows)
        ]

    # -- updates -------------------------------------------------------------
    def add(self, element_id: int, frequency: int) -> None:
        if not 0 <= element_id <= self.spec.max_id:
            raise ValueError(
                f"id {element_id} outside universe [0, {self.spec.max_id}]")
        if self._bucket_table is not None:
            for row in range(self.spec.rows):
                bucket = int(self._bucket_table[row, element_id])
                self._cells[row][bucket].add(element_id, frequency)
        else:
            for row, hash_fn in enumerate(self._hashes):
                bucket = int(hash_fn(element_id))
                self._cells[row][bucket].add(element_id, frequency)

    def merge(self, other: "KSparseSketch") -> None:
        if self.spec != other.spec or self.seed != other.seed:
            raise ValueError("sketches must share spec and randomness")
        for row in range(self.spec.rows):
            for bucket in range(self.spec.buckets):
                self._cells[row][bucket].merge(other._cells[row][bucket])

    def copy(self) -> "KSparseSketch":
        clone = KSparseSketch(self.spec, self.seed)
        for row in range(self.spec.rows):
            for bucket in range(self.spec.buckets):
                cell = self._cells[row][bucket]
                target = clone._cells[row][bucket]
                target.count = cell.count
                target.id_sum = cell.id_sum
                target.fingerprint = cell.fingerprint
        return clone

    # -- recovery ------------------------------------------------------------
    def recover(self) -> Dict[int, int]:
        """Return {id: net frequency} for all non-zero-frequency ids.

        Deterministic given the sketch state (the paper's ``Recover``).
        Raises :class:`SketchRecoveryError` when peeling stalls — which, with
        high probability, only happens when the support exceeds the capacity
        or the sketch bits were corrupted in transit.
        """
        work = self.copy()
        recovered: Dict[int, int] = {}
        budget = self.spec.rows * self.spec.buckets * (self.spec.capacity + 2)
        for _ in range(budget):
            if all(cell.is_zero()
                   for row in work._cells for cell in row):
                return recovered
            progressed = False
            for row in work._cells:
                for cell in row:
                    if cell.is_zero():
                        continue
                    item = cell.recover(self.spec.max_id)
                    if item is None:
                        continue
                    element_id, frequency = item
                    if frequency == 0:
                        continue
                    recovered[element_id] = recovered.get(element_id, 0) + frequency
                    if recovered[element_id] == 0:
                        del recovered[element_id]
                    work.add(element_id, -frequency)
                    progressed = True
                    break
                if progressed:
                    break
            if not progressed:
                raise SketchRecoveryError("peeling stalled")
        raise SketchRecoveryError("peeling budget exhausted")

    # -- fixed-width serialisation (the paper's t-bit encoding) --------------
    def to_bits(self) -> BitArray:
        spec = self.spec
        parts = []
        for row in self._cells:
            for cell in row:
                if abs(cell.count) > spec.max_abs_count:
                    raise ValueError("cell count exceeds serialisable range")
                if abs(cell.id_sum) > spec.max_id * spec.max_abs_count:
                    raise ValueError("cell id_sum exceeds serialisable range")
                parts.append(bits_from_int(
                    cell.count + spec.max_abs_count, spec.count_bits))
                parts.append(bits_from_int(
                    cell.id_sum + spec.max_id * spec.max_abs_count,
                    spec.id_sum_bits))
                parts.append(bits_from_int(
                    cell.fingerprint % spec.fingerprint_prime,
                    spec.fingerprint_bits))
        return np.concatenate(parts)

    @classmethod
    def from_bits(cls, spec: SketchSpec, seed: int,
                  bits: BitArray) -> "KSparseSketch":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != spec.total_bits:
            raise ValueError(
                f"expected {spec.total_bits} bits, got {bits.size}")
        sketch = cls(spec, seed)
        cursor = 0
        for row in range(spec.rows):
            for bucket in range(spec.buckets):
                cell = sketch._cells[row][bucket]
                cell.count = int_from_bits(
                    bits[cursor:cursor + spec.count_bits]) - spec.max_abs_count
                cursor += spec.count_bits
                cell.id_sum = (int_from_bits(
                    bits[cursor:cursor + spec.id_sum_bits])
                    - spec.max_id * spec.max_abs_count)
                cursor += spec.id_sum_bits
                cell.fingerprint = int_from_bits(
                    bits[cursor:cursor + spec.fingerprint_bits])
                cursor += spec.fingerprint_bits
        return sketch


class SketchPlaneStack:
    """A ``(trials, rows, buckets)`` stack of sketch planes advancing in
    lockstep — one sketch per trial, each with its own shared-randomness
    seed (the adaptive compiler derives a distinct R2 per trial).

    The planes are int64 where :func:`planes_supported` holds and Python
    ints (object arrays) otherwise; either way every operation is
    bit-identical to the scalar :class:`KSparseSketch` grid, whose peel
    :meth:`recover_many` runs.  Per-trial updates are lockstep (every
    trial adds the same number of ids, each its own), and
    (de)serialisation is one tensor op across the whole stack.
    """

    __slots__ = ("spec", "seeds", "count", "id_sum", "fingerprint",
                 "_z", "_groups", "_weights")

    def __init__(self, spec: SketchSpec, seeds):
        self.spec = spec
        self.seeds = tuple(int(seed) for seed in seeds)
        dtype = _plane_dtype(spec)
        trials_of: Dict[int, List[int]] = {}
        for trial, seed in enumerate(self.seeds):
            trials_of.setdefault(seed, []).append(trial)
        self._z = np.zeros(len(self.seeds), dtype=dtype)
        #: (trials, row hashes, bucket table) per distinct seed
        self._groups = []
        for seed, trials in trials_of.items():
            z, hashes, bucket_table = _sketch_randomness(spec, seed)
            self._z[trials] = z
            self._groups.append((np.array(trials), hashes, bucket_table))
        shape = (len(self.seeds), spec.rows, spec.buckets)
        self.count = np.zeros(shape, dtype=dtype)
        self.id_sum = np.zeros(shape, dtype=dtype)
        self.fingerprint = np.zeros(shape, dtype=dtype)
        self._weights = np.zeros(len(self.seeds), dtype=np.int64)

    @property
    def trials(self) -> int:
        return len(self.seeds)

    def add_many_lockstep(self, ids, freqs) -> None:
        """Lockstep add: row ``t`` of ``ids`` (shape ``(trials, m)``)
        updates trial ``t``'s planes with ``freqs`` broadcast to that shape,
        as element-wise :meth:`KSparseSketch.add` would — every trial adds
        the same number of elements, so the whole stack is hashed and
        scattered in one shot (e.g. one sketch per segment column built from
        the same group block)."""
        spec = self.spec
        dtype = self.count.dtype
        ids = np.asarray(ids, dtype=dtype)
        if ids.ndim != 2 or ids.shape[0] != self.trials:
            raise ValueError(
                f"ids must have shape ({self.trials}, m), got {ids.shape}")
        freqs = np.broadcast_to(np.asarray(freqs, dtype=dtype), ids.shape)
        if ids.size == 0:
            return
        if not (0 <= int(ids.min()) and int(ids.max()) <= spec.max_id):
            raise ValueError(f"ids outside universe [0, {spec.max_id}]")
        if dtype == np.int64:
            self._weights += np.abs(freqs).sum(axis=1)
            if int(self._weights.max()) * max(1, spec.max_id) \
                    >= _PLANES_WEIGHT_BUDGET:
                raise OverflowError(
                    "accumulated update weight exceeds the int64-exact "
                    "plane budget")
        trials, m = ids.shape
        buckets = np.empty((trials, spec.rows, m), dtype=np.int64)
        for members, hashes, bucket_table in self._groups:
            group_ids = ids[members]
            for row in range(spec.rows):
                buckets[members, row] = (
                    hashes[row](group_ids) if bucket_table is None
                    else bucket_table[row, group_ids.astype(np.intp,
                                                          copy=False)])
        # one flat index, (t * rows + row) * buckets + bucket, into the
        # C-contiguous planes: a 2-D (trial, bucket) np.add.at is far slower
        flat = (np.arange(trials * spec.rows).reshape(trials, spec.rows, 1)
                * spec.buckets + buckets).reshape(-1)
        prime = spec.fingerprint_prime
        contrib = (freqs % prime) \
            * _pow_mod(self._z[:, None], ids, prime) % prime
        for plane, values in ((self.count, freqs),
                              (self.id_sum, ids * freqs),
                              (self.fingerprint, contrib)):
            np.add.at(plane.reshape(-1), flat,
                      np.repeat(values, spec.rows, axis=0).reshape(-1))
        fingerprint = self.fingerprint.reshape(-1)
        fingerprint[flat] %= prime

    def _sketch(self, trial: int) -> KSparseSketch:
        """Trial ``trial``'s planes as the scalar cell grid (exact,
        including unreduced fingerprints deserialised from corrupted
        bits)."""
        sketch = KSparseSketch(self.spec, self.seeds[trial])
        for cells, counts, id_sums, fingerprints in zip(
                sketch._cells, self.count[trial].tolist(),
                self.id_sum[trial].tolist(),
                self.fingerprint[trial].tolist()):
            for cell, count, id_sum, fingerprint in zip(
                    cells, counts, id_sums, fingerprints):
                cell.count = count
                cell.id_sum = id_sum
                cell.fingerprint = fingerprint
        return sketch

    def recover_many(self):
        """Per-trial :meth:`KSparseSketch.recover`; a failed peel yields
        the :class:`SketchRecoveryError` in that trial's slot instead of
        aborting the whole stack (recovery outcomes legitimately diverge
        across trials)."""
        results = []
        for trial in range(self.trials):
            try:
                results.append(self._sketch(trial).recover())
            except SketchRecoveryError as error:
                results.append(error)
        return results

    def to_bits_many(self) -> np.ndarray:
        """(trials, total_bits) uint8 — every trial serialised in one op."""
        return _serialise_planes(self.spec, self.count, self.id_sum,
                                 self.fingerprint)

    @classmethod
    def from_bits_many(cls, spec: SketchSpec, seeds,
                       bits: np.ndarray) -> "SketchPlaneStack":
        stack = cls(spec, seeds)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (stack.trials, spec.total_bits):
            raise ValueError(
                f"expected shape {(stack.trials, spec.total_bits)}, "
                f"got {bits.shape}")
        stack.count, stack.id_sum, stack.fingerprint = \
            _deserialise_planes(spec, bits)
        return stack


class SketchPlanes:
    """One sketch as planes: trial 0 of a one-trial
    :class:`SketchPlaneStack`, whose ``(rows, buckets)`` count / id-sum /
    fingerprint planes it holds as views.  Every operation is the stack's,
    so `to_sketch` round-trips exactly."""

    __slots__ = ("spec", "seed", "count", "id_sum", "fingerprint", "_stack")

    def __init__(self, spec: SketchSpec, seed: int):
        self._hold(SketchPlaneStack(spec, (seed,)))

    def _hold(self, stack: SketchPlaneStack) -> None:
        self._stack = stack
        self.spec, self.seed = stack.spec, stack.seeds[0]
        self.count, self.id_sum, self.fingerprint = (
            stack.count[0], stack.id_sum[0], stack.fingerprint[0])

    def add_many(self, ids, freqs) -> None:
        """Add every ``(ids[i], freqs[i])`` pair; equivalent to element-wise
        ``KSparseSketch.add`` over the same sequence."""
        self._stack.add_many_lockstep(np.atleast_1d(ids)[None], freqs)

    def to_sketch(self) -> KSparseSketch:
        """The equivalent scalar sketch (exact, including any unreduced
        fingerprints deserialised from corrupted bits)."""
        return self._stack._sketch(0)

    @classmethod
    def from_sketch(cls, sketch: KSparseSketch) -> "SketchPlanes":
        planes = cls(sketch.spec, sketch.seed)
        for row, cells in enumerate(sketch._cells):
            for bucket, cell in enumerate(cells):
                planes.count[row, bucket] = cell.count
                planes.id_sum[row, bucket] = cell.id_sum
                planes.fingerprint[row, bucket] = cell.fingerprint
        return planes

    def recover(self) -> Dict[int, int]:
        """:meth:`KSparseSketch.recover` on the equivalent scalar grid."""
        return self.to_sketch().recover()

    def to_bits(self) -> BitArray:
        return self._stack.to_bits_many()[0]

    @classmethod
    def from_bits(cls, spec: SketchSpec, seed: int,
                  bits: BitArray) -> "SketchPlanes":
        planes = cls.__new__(cls)
        planes._hold(SketchPlaneStack.from_bits_many(
            spec, (seed,), np.asarray(bits, dtype=np.uint8).reshape(1, -1)))
        return planes
