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
"""

from __future__ import annotations

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


_RANDOMNESS_CACHE: Dict[tuple, tuple] = {}


def _sketch_randomness(spec: SketchSpec, seed: int) -> tuple:
    """Derive (and cache) the fingerprint base and row hashes for a given
    (spec, seed).  The adaptive compiler instantiates thousands of sketches
    sharing the same randomness R2, so this is on the hot path."""
    key = (spec, seed)
    cached = _RANDOMNESS_CACHE.get(key)
    if cached is not None:
        return cached
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
    value = (z, hashes, bucket_table)
    _RANDOMNESS_CACHE[key] = value
    return value


# -- vectorised plane arithmetic ---------------------------------------------
#
# The plane representation stores the grid as three (rows, buckets) int64
# arrays instead of a grid of Python objects.  All of its arithmetic must be
# exact, so the fast path is only legal when every intermediate fits int64:
#
#   * modular products need  fingerprint_prime**2 < 2**63      (p < 2**31),
#   * frequency-scaled fingerprints need  max_abs_count * p < 2**62,
#   * id_sum magnitudes (including the serialisation offset and anything a
#     corrupted bit pattern can deserialise to) stay below 2**61 when
#     max_id * max_abs_count < 2**59, with headroom for further updates.
#
# `planes_supported` gates all of this; callers keep the scalar
# `KSparseSketch` path as the oracle for specs that do not qualify (notably
# the default 2**61 - 1 fingerprint prime).

_PLANES_WEIGHT_BUDGET = 1 << 59


def planes_supported(spec: SketchSpec) -> bool:
    """True when the vectorised int64 plane arithmetic is exact for ``spec``
    (see the module comment above); scalar and plane paths are bit-identical
    whenever this holds."""
    prime = spec.fingerprint_prime
    if prime >= 1 << 31:
        return False
    if spec.max_abs_count * prime >= 1 << 62:
        return False
    if spec.max_id * spec.max_abs_count >= _PLANES_WEIGHT_BUDGET:
        return False
    return True


def _pow_mod(base, exponents: np.ndarray, prime: int) -> np.ndarray:
    """Vectorised ``base ** e mod prime`` by binary powering.  ``base`` may
    be a scalar or an array broadcastable against ``exponents``; requires
    ``prime < 2**31`` so every product fits int64 exactly."""
    exps = np.array(exponents, dtype=np.int64, copy=True)
    result = np.ones_like(exps)
    power = np.array(base, dtype=np.int64, copy=True) % prime
    while True:
        odd = (exps & 1).astype(bool)
        if odd.any():
            result = np.where(odd, (result * power) % prime, result)
        exps >>= 1
        if not exps.any():
            break
        power = (power * power) % prime
    return result


def _as_update(spec: SketchSpec, ids, freqs):
    """Normalise an (ids, freqs) update pair to int64 arrays and validate the
    universe bound (the vectorised twin of the scalar range check)."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
    freqs = np.broadcast_to(np.asarray(freqs, dtype=np.int64), ids.shape)
    if ids.size and not (0 <= int(ids.min()) and int(ids.max()) <= spec.max_id):
        raise ValueError(f"ids outside universe [0, {spec.max_id}]")
    return ids, freqs


def _serialise_planes(spec: SketchSpec, count: np.ndarray, id_sum: np.ndarray,
                      fingerprint: np.ndarray) -> np.ndarray:
    """(..., rows, buckets) int64 planes -> (..., total_bits) uint8 bits,
    little-endian per field, in the scalar to_bits() field order."""
    lead = count.shape[:-2]
    fields = (
        (count + spec.max_abs_count, spec.count_bits),
        (id_sum + spec.max_id * spec.max_abs_count, spec.id_sum_bits),
        (fingerprint % spec.fingerprint_prime, spec.fingerprint_bits),
    )
    parts = []
    for values, width in fields:
        shifts = np.arange(width, dtype=np.uint64)
        vals = values.reshape(lead + (-1, 1)).astype(np.uint64)
        parts.append(((vals >> shifts) & np.uint64(1)).astype(np.uint8))
    cells = np.concatenate(parts, axis=-1)
    return cells.reshape(lead + (spec.total_bits,))


def _deserialise_planes(spec: SketchSpec, bits: np.ndarray):
    """(..., total_bits) uint8 bits -> (count, id_sum, fingerprint) planes."""
    lead = bits.shape[:-1]
    cells = bits.reshape(
        lead + (spec.rows * spec.buckets, spec.cell_bits)).astype(np.int64)
    planes = []
    cursor = 0
    for width, offset in ((spec.count_bits, spec.max_abs_count),
                          (spec.id_sum_bits,
                           spec.max_id * spec.max_abs_count),
                          (spec.fingerprint_bits, 0)):
        field = cells[..., cursor:cursor + width]
        shifts = np.arange(width, dtype=np.int64)
        values = (field << shifts).sum(axis=-1) - offset
        planes.append(values.reshape(lead + (spec.rows, spec.buckets)))
        cursor += width
    return tuple(planes)


class KSparseSketch:
    """A k-sparse recovery sketch with shared randomness ``seed``."""

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

    def add_many(self, ids, freqs) -> None:
        """Batched ``add``: hash every element of the update at once.

        Bit-identical to calling :meth:`add` element-wise (modular sums are
        order-independent and the integer counters are exact); falls back to
        the scalar loop when the spec's arithmetic does not fit the int64
        plane fast path.
        """
        ids, freqs = _as_update(self.spec, ids, freqs)
        if ids.size == 0:
            return
        weight = int(np.abs(freqs).sum())
        if (not planes_supported(self.spec)
                or weight * max(1, self.spec.max_id) >= _PLANES_WEIGHT_BUDGET):
            for element, frequency in zip(ids.tolist(), freqs.tolist()):
                self.add(element, frequency)
            return
        spec = self.spec
        prime = spec.fingerprint_prime
        contrib = (freqs % prime) * _pow_mod(self._z, ids, prime) % prime
        for row in range(spec.rows):
            if self._bucket_table is not None:
                buckets = self._bucket_table[row, ids]
            else:
                buckets = self._hashes[row](ids)
            d_count = np.zeros(spec.buckets, dtype=np.int64)
            d_id_sum = np.zeros(spec.buckets, dtype=np.int64)
            d_fp = np.zeros(spec.buckets, dtype=np.int64)
            touched = np.zeros(spec.buckets, dtype=bool)
            np.add.at(d_count, buckets, freqs)
            np.add.at(d_id_sum, buckets, ids * freqs)
            np.add.at(d_fp, buckets, contrib)
            touched[buckets] = True
            cells = self._cells[row]
            for bucket in np.flatnonzero(touched).tolist():
                cell = cells[bucket]
                cell.count += int(d_count[bucket])
                cell.id_sum += int(d_id_sum[bucket])
                cell.fingerprint = (
                    cell.fingerprint + int(d_fp[bucket])) % prime

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


class SketchPlanes:
    """The vectorised core of :class:`KSparseSketch`: the same ``rows x
    buckets`` grid held as three int64 planes (count / id-sum / fingerprint)
    so a whole group of updates is hashed and scattered in one shot.

    Only legal for specs passing :func:`planes_supported`; within that gate
    every operation is bit-identical to the scalar cell grid (`to_sketch`
    round-trips exactly), which is what lets the adaptive compiler race this
    path against the scalar oracle.
    """

    __slots__ = ("spec", "seed", "count", "id_sum", "fingerprint",
                 "_z", "_hashes", "_bucket_table", "_weight")

    def __init__(self, spec: SketchSpec, seed: int):
        if not planes_supported(spec):
            raise ValueError(
                "spec does not fit the int64 plane fast path "
                "(see planes_supported); use KSparseSketch")
        self.spec = spec
        self.seed = seed
        self._z, self._hashes, self._bucket_table = \
            _sketch_randomness(spec, seed)
        shape = (spec.rows, spec.buckets)
        self.count = np.zeros(shape, dtype=np.int64)
        self.id_sum = np.zeros(shape, dtype=np.int64)
        self.fingerprint = np.zeros(shape, dtype=np.int64)
        self._weight = 0

    # -- updates -------------------------------------------------------------
    def _buckets_for(self, row: int, ids: np.ndarray) -> np.ndarray:
        if self._bucket_table is not None:
            return self._bucket_table[row, ids]
        return self._hashes[row](ids)

    def _charge(self, weight: int) -> None:
        self._weight += weight
        if self._weight * max(1, self.spec.max_id) >= _PLANES_WEIGHT_BUDGET:
            raise OverflowError(
                "accumulated update weight exceeds the int64-safe plane "
                "budget; use the scalar KSparseSketch path")

    def add_many(self, ids, freqs) -> None:
        """Add every ``(ids[i], freqs[i])`` pair; equivalent to element-wise
        ``KSparseSketch.add`` over the same sequence."""
        ids, freqs = _as_update(self.spec, ids, freqs)
        if ids.size == 0:
            return
        self._charge(int(np.abs(freqs).sum()))
        prime = self.spec.fingerprint_prime
        contrib = (freqs % prime) * _pow_mod(self._z, ids, prime) % prime
        weighted = ids * freqs
        for row in range(self.spec.rows):
            buckets = self._buckets_for(row, ids)
            np.add.at(self.count[row], buckets, freqs)
            np.add.at(self.id_sum[row], buckets, weighted)
            np.add.at(self.fingerprint[row], buckets, contrib)
            self.fingerprint[row, buckets] %= prime

    def merge(self, other: "SketchPlanes") -> None:
        if self.spec != other.spec or self.seed != other.seed:
            raise ValueError("sketches must share spec and randomness")
        self._charge(other._weight)
        self.count += other.count
        self.id_sum += other.id_sum
        self.fingerprint = (self.fingerprint + other.fingerprint) \
            % self.spec.fingerprint_prime

    # -- conversions ---------------------------------------------------------
    def to_sketch(self) -> KSparseSketch:
        """Materialise the equivalent scalar sketch (exact, including any
        unreduced fingerprints deserialised from corrupted bits)."""
        sketch = KSparseSketch(self.spec, self.seed)
        for row in range(self.spec.rows):
            cells = sketch._cells[row]
            for bucket in range(self.spec.buckets):
                cell = cells[bucket]
                cell.count = int(self.count[row, bucket])
                cell.id_sum = int(self.id_sum[row, bucket])
                cell.fingerprint = int(self.fingerprint[row, bucket])
        return sketch

    @classmethod
    def from_sketch(cls, sketch: KSparseSketch) -> "SketchPlanes":
        planes = cls(sketch.spec, sketch.seed)
        for row in range(sketch.spec.rows):
            for bucket, cell in enumerate(sketch._cells[row]):
                planes.count[row, bucket] = cell.count
                planes.id_sum[row, bucket] = cell.id_sum
                planes.fingerprint[row, bucket] = cell.fingerprint
        return planes

    # -- recovery ------------------------------------------------------------
    def recover(self) -> Dict[int, int]:
        """Identical peel to :meth:`KSparseSketch.recover` (delegates to the
        scalar grid, so ordering and failure behaviour match exactly)."""
        return self.to_sketch().recover()

    # -- fixed-width serialisation -------------------------------------------
    def to_bits(self) -> BitArray:
        spec = self.spec
        if self.count.size and int(np.abs(self.count).max()) \
                > spec.max_abs_count:
            raise ValueError("cell count exceeds serialisable range")
        if self.id_sum.size and int(np.abs(self.id_sum).max()) \
                > spec.max_id * spec.max_abs_count:
            raise ValueError("cell id_sum exceeds serialisable range")
        return _serialise_planes(spec, self.count, self.id_sum,
                                 self.fingerprint)

    @classmethod
    def from_bits(cls, spec: SketchSpec, seed: int,
                  bits: BitArray) -> "SketchPlanes":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != spec.total_bits:
            raise ValueError(
                f"expected {spec.total_bits} bits, got {bits.size}")
        planes = cls(spec, seed)
        planes.count, planes.id_sum, planes.fingerprint = \
            _deserialise_planes(spec, bits)
        return planes


class SketchPlaneStack:
    """A ``(trials, rows, buckets)`` stack of sketch planes advancing in
    lockstep — one plane set per trial, each with its own shared-randomness
    seed (the adaptive compiler derives a distinct R2 per trial).

    Per-trial updates may be ragged (each trial adds its own id set); merge
    and (de)serialisation are lockstep tensor ops across the whole stack.
    """

    __slots__ = ("spec", "seeds", "count", "id_sum", "fingerprint",
                 "_z", "_hashes", "_bucket_tables", "_weights")

    def __init__(self, spec: SketchSpec, seeds):
        if not planes_supported(spec):
            raise ValueError(
                "spec does not fit the int64 plane fast path "
                "(see planes_supported); use KSparseSketch")
        self.spec = spec
        self.seeds = tuple(int(seed) for seed in seeds)
        randomness = [_sketch_randomness(spec, seed) for seed in self.seeds]
        self._z = np.array([r[0] for r in randomness], dtype=np.int64)
        self._hashes = [r[1] for r in randomness]
        self._bucket_tables = [r[2] for r in randomness]
        shape = (len(self.seeds), spec.rows, spec.buckets)
        self.count = np.zeros(shape, dtype=np.int64)
        self.id_sum = np.zeros(shape, dtype=np.int64)
        self.fingerprint = np.zeros(shape, dtype=np.int64)
        self._weights = [0] * len(self.seeds)

    @property
    def trials(self) -> int:
        return len(self.seeds)

    def _trial_planes(self, trial: int) -> SketchPlanes:
        planes = SketchPlanes(self.spec, self.seeds[trial])
        planes.count = self.count[trial].copy()
        planes.id_sum = self.id_sum[trial].copy()
        planes.fingerprint = self.fingerprint[trial].copy()
        planes._weight = self._weights[trial]
        return planes

    def add_many(self, trial: int, ids, freqs) -> None:
        """Add an update batch to one trial's planes (trials are ragged:
        each derives its own partition, so id sets differ per trial)."""
        spec = self.spec
        ids, freqs = _as_update(spec, ids, freqs)
        if ids.size == 0:
            return
        self._weights[trial] += int(np.abs(freqs).sum())
        if self._weights[trial] * max(1, spec.max_id) \
                >= _PLANES_WEIGHT_BUDGET:
            raise OverflowError(
                "accumulated update weight exceeds the int64-safe plane "
                "budget; use the scalar KSparseSketch path")
        prime = spec.fingerprint_prime
        z = int(self._z[trial])
        contrib = (freqs % prime) * _pow_mod(z, ids, prime) % prime
        weighted = ids * freqs
        table = self._bucket_tables[trial]
        for row in range(spec.rows):
            if table is not None:
                buckets = table[row, ids]
            else:
                buckets = self._hashes[trial][row](ids)
            np.add.at(self.count[trial, row], buckets, freqs)
            np.add.at(self.id_sum[trial, row], buckets, weighted)
            np.add.at(self.fingerprint[trial, row], buckets, contrib)
            self.fingerprint[trial, row, buckets] %= prime

    def add_many_lockstep(self, ids, freqs) -> None:
        """Lockstep add: row ``t`` of ``ids`` (shape ``(trials, m)``)
        updates trial ``t``'s planes — every trial adds the same number of
        elements, so the whole stack is hashed and scattered in one shot
        (e.g. one sketch per segment column built from the same group
        block)."""
        spec = self.spec
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[0] != self.trials:
            raise ValueError(
                f"ids must have shape ({self.trials}, m), got {ids.shape}")
        freqs = np.broadcast_to(np.asarray(freqs, dtype=np.int64), ids.shape)
        if ids.size == 0:
            return
        if not (0 <= int(ids.min()) and int(ids.max()) <= spec.max_id):
            raise ValueError(f"ids outside universe [0, {spec.max_id}]")
        for trial, weight in enumerate(
                np.abs(freqs).sum(axis=1).tolist()):
            self._weights[trial] += int(weight)
            if self._weights[trial] * max(1, spec.max_id) \
                    >= _PLANES_WEIGHT_BUDGET:
                raise OverflowError(
                    "accumulated update weight exceeds the int64-safe "
                    "plane budget; use the scalar KSparseSketch path")
        prime = spec.fingerprint_prime
        contrib = (freqs % prime) \
            * _pow_mod(self._z[:, None], ids, prime) % prime
        weighted = ids * freqs
        trial_idx = np.repeat(np.arange(self.trials), ids.shape[1])
        shared_seed = len(set(self.seeds)) == 1
        for row in range(spec.rows):
            if shared_seed and self._bucket_tables[0] is not None:
                buckets = self._bucket_tables[0][row, ids]
            else:
                buckets = np.stack([
                    self._bucket_tables[t][row, ids[t]]
                    if self._bucket_tables[t] is not None
                    else self._hashes[t][row](ids[t])
                    for t in range(self.trials)])
            flat = buckets.reshape(-1)
            np.add.at(self.count[:, row], (trial_idx, flat),
                      freqs.reshape(-1))
            np.add.at(self.id_sum[:, row], (trial_idx, flat),
                      weighted.reshape(-1))
            np.add.at(self.fingerprint[:, row], (trial_idx, flat),
                      contrib.reshape(-1))
            self.fingerprint[:, row][trial_idx, flat] %= prime

    def merge_many(self, other: "SketchPlaneStack") -> None:
        """Lockstep merge: every trial's planes absorb the peer trial's."""
        if self.spec != other.spec or self.seeds != other.seeds:
            raise ValueError("stacks must share spec and randomness")
        self._weights = [a + b for a, b in zip(self._weights, other._weights)]
        self.count += other.count
        self.id_sum += other.id_sum
        self.fingerprint = (self.fingerprint + other.fingerprint) \
            % self.spec.fingerprint_prime

    def recover_many(self):
        """Per-trial ``recover``; a failed peel yields the
        :class:`SketchRecoveryError` in that trial's slot instead of
        aborting the whole stack (recovery outcomes legitimately diverge
        across trials)."""
        results = []
        for trial in range(self.trials):
            try:
                results.append(self._trial_planes(trial).recover())
            except SketchRecoveryError as error:
                results.append(error)
        return results

    def to_bits_many(self) -> np.ndarray:
        """(trials, total_bits) uint8 — every trial serialised in one op."""
        spec = self.spec
        if self.count.size and int(np.abs(self.count).max()) \
                > spec.max_abs_count:
            raise ValueError("cell count exceeds serialisable range")
        if self.id_sum.size and int(np.abs(self.id_sum).max()) \
                > spec.max_id * spec.max_abs_count:
            raise ValueError("cell id_sum exceeds serialisable range")
        return _serialise_planes(spec, self.count, self.id_sum,
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
